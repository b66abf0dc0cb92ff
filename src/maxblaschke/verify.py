"""Verification suites for the extremal characterization of the solver output.

Each suite pits an independently constructed object against a solver result:
competitor functions that satisfy the same constraints but should score a
smaller linear functional, a from-scratch re-solve that should agree up to a
disk automorphism, a product construction whose curvature bound certifies a
combined critical set, and boundary diagnostics (Schwarz-Pick quotient,
phi = B/(zB')) whose limiting behavior is known.  Suites return plain-dict
reports with a ``pass`` flag so the CLI can serialize them unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blaschke import (
    CriticalSet,
    FiniteBlaschke,
    _chunks,
    _jet_div,
    _origin_coefficient,
    _pullback,
    _scan,
    _taylor,
    antiderivative,
    compose,
    critical_points,
    derivative_at_origin_order,
    evaluate,
)
from .disk import DiskAutomorphism
from .errors import InputError, NumericalError, _index, _items, _number
from .metrics import (
    PolarGrid,
    _curvature_band,
    discrete_curvature,
    dominance_check,
    pullback_density,
    union_metric,
)
from .solver import HomotopyConfig, solve_maximal

#: Number of boundary samples certifying the sup-norm of the antiderivative
#: competitors, the one kind whose sup is not known in closed form.
SUP_SAMPLES = 8192
#: Competitors are shrunk by this before scoring, absorbing the sampling
#: error of the antiderivative kind's sup.  |f|^2 is a trigonometric
#: polynomial of degree d, so Bernstein's inequality bounds the relative
#: underestimate of sup |f| by about (d pi / SUP_SAMPLES)^2 / 4, up to about
#: 5e-6 at d = 12 (a cubic p at mass 8, the corpus's highest degree).  The
#: worst case is rare: over the corpus batches of mass >= 5 the
#: underestimate is at most 6.4e-7 (tests/test_verify.py).
DEFLATION = 1e-6
#: Constraint check: |f^(i)| at a prescribed critical point, i up to its
#: multiplicity, must not exceed this.
CONSTRAINT_TOL = 1e-10
#: Boundary quotient check: |q - 1| at the outermost probe radius must not
#: exceed this.
QUOTIENT_TOL = 1e-3
#: The radii at which the boundary quotient samples each direction.
PROBE_RADII = (0.9, 0.99, 0.995, 0.999)
#: The number of directions ``boundary_probes`` returns.
PROBE_COUNT = 8
#: The number of re-solved competitors in ``default_competitor_specs``.
RESOLVE_COUNT = 2
#: Draws ``default_competitor_specs`` makes for each extra critical point.
MAX_DRAWS = 1000
#: Semigroup, left-factor and union checks: the re-solved product, or the
#: union's zero set, must match within this (the solver round-trip level).
MATCH_TOL = 1e-8
#: Extremality check: no scored competitor may beat the reference by more.
MARGIN_TOL = 1e-9

_KINDS = (
    "postcompose-automorphism",
    "scalar-multiple",
    "larger-critical-set",
    "antiderivative-family",
)


@dataclass(frozen=True)
class CompetitorSpec:
    """One competitor, an admissible function built from a solver output:
    its kind and one parameter.  That is a ``DiskAutomorphism`` T for T o B,
    a scalar s with |s| <= 1 for s B, or a nonempty sequence, kept as a
    tuple, of critical points to adjoin or of the coefficients of p for the
    antiderivative construction f(z) = integral of p(t) prod (t - z_j)^{m_j}.
    """

    kind: str
    parameter: object = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError(f"unknown competitor kind: {self.kind!r}")
        p = self.parameter
        if self.kind == "postcompose-automorphism":
            if not isinstance(p, DiskAutomorphism):
                raise InputError(
                    f"automorphism competitor needs a DiskAutomorphism: {p!r}"
                )
        elif self.kind == "scalar-multiple":
            p = _number(p, "scalar multiplier")
            if abs(p) > 1.0:
                raise InputError("scalar multiplier must satisfy |s| <= 1")
        else:
            p = tuple(_number(v, f"{self.kind} parameter")
                      for v in _items(p, f"{self.kind} parameter"))
            if not p:
                raise InputError(f"{self.kind} needs a nonempty sequence")
        object.__setattr__(self, "parameter", p)


def boundary_probes(C: CriticalSet) -> list:
    """PROBE_COUNT unit directions, as Python complex numbers: spread out
    over 64 equally spaced ones, each >= 0.1 from every critical point."""
    candidates = np.exp(2j * np.pi * np.arange(64) / 64)
    dist = np.min(np.abs(candidates[:, None] - np.array(C.points())),
                  axis=1, initial=np.inf)
    candidates = candidates[dist >= 0.1]
    if len(candidates) < PROBE_COUNT:
        raise NumericalError("not enough clear probe directions")
    picks = candidates[:: len(candidates) // PROBE_COUNT][:PROBE_COUNT]
    return [complex(z) for z in picks]


def default_competitor_specs(
    C: CriticalSet, count: int, rng: np.random.Generator
) -> list:
    """A mixed batch: RESOLVE_COUNT (2) of the expensive re-solve kind and
    the rest split ~40/30/30 between the three cheap kinds, each of which
    gets at least one, so ``count`` must be >= 5.  A re-solve adjoins one
    or two points of 0.1 < |z| < 0.7, each 0.05 clear of C and the others;
    MAX_DRAWS draws that find none raise ``NumericalError``."""
    count = _index(count, "count")
    if count - RESOLVE_COUNT < 3:
        raise InputError(
            f"{count} competitors with {RESOLVE_COUNT} larger-critical-set "
            f"re-solves leave a kind empty: need at least {RESOLVE_COUNT + 3}"
        )
    specs = []
    for _ in range(RESOLVE_COUNT):
        extra = []
        pts = C.points()
        for _ in range(int(rng.integers(1, 3))):
            for _ in range(MAX_DRAWS):
                z = rng.uniform(0.1, 0.7) * np.exp(2j * np.pi * rng.random())
                if all(abs(z - p) > 0.05 for p in list(pts) + extra):
                    extra.append(complex(z))
                    break
            else:
                raise NumericalError("no extra point 0.05 clear of the set")
        specs.append(CompetitorSpec("larger-critical-set", tuple(extra)))
    rest = count - RESOLVE_COUNT
    n_auto = int(round(rest * 0.4))
    n_scal = int(round(rest * 0.3))
    n_anti = rest - n_auto - n_scal
    for _ in range(n_auto):
        c = rng.uniform(0.0, 0.85) * np.exp(2j * np.pi * rng.random())
        eta = np.exp(2j * np.pi * rng.random())
        specs.append(
            CompetitorSpec(
                "postcompose-automorphism",
                DiskAutomorphism(rotation=complex(eta), center=complex(c)),
            )
        )
    for i in range(n_scal):
        if i % 3 == 0:
            c = complex(rng.uniform(-1.0, 1.0))
        elif i % 3 == 1:
            c = complex(np.exp(2j * np.pi * rng.random()))
        else:
            c = complex(
                np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            )
        specs.append(CompetitorSpec("scalar-multiple", c))
    for _ in range(n_anti):
        deg = int(rng.integers(0, 4))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        specs.append(
            CompetitorSpec("antiderivative-family", tuple(coeffs))
        )
    return specs


class _CompetitorEngine:
    """Shared evaluation data for scoring many competitors against one B.

    Precomputes the boundary samples (for the antiderivative kind's sup)
    and B's Taylor jets at the prescribed points, to the largest
    multiplicity; each constrained f^(i)(p) is i! f_i of a competitor's
    exact jet.  Every order-(N+1) coefficient is exact: g(0) of B for the
    scalar-multiple and automorphism kinds, g(0) of the re-solved product
    for the larger-critical-set kind, and a column of the polynomial basis
    for the antiderivative kind.  Only the antiderivative kind's sup is
    sampled; the others are bounded by 1 on the circle.  Each competitor
    kind is scored as one batch.
    """

    def __init__(self, C: CriticalSet, B: FiniteBlaschke, cfg=None):
        self.C = C
        self.cfg = cfg
        # functional: Re f^(order+1)(0)
        self.order = order = C.origin_multiplicity
        # raises unless B = z^(order+1) g with g(0) != 0
        self.target = derivative_at_origin_order(B, order)
        # g(0), complex unless B is normalized: the order-(N+1) coefficient
        self.g0 = _origin_coefficient(B, order)
        self.factorial = math.factorial(order + 1)
        self.bnodes = np.exp(
            2j * np.pi * np.arange(SUP_SAMPLES) / SUP_SAMPLES
        )
        self.points = np.array([p for p, _ in C.entries], dtype=complex)
        self.K = K = max((m for _, m in C.entries), default=0)
        # i! at each point's constrained orders i = 1..m of a jet, else 0
        self.weights = np.array([[math.factorial(i) * (0 < i <= m)
                                  for i in range(K + 1)]
                                 for _, m in C.entries]).reshape(-1, K + 1)
        self.jets = _taylor(B, self.points, K)

    def _violation(self, jets):
        """Worst constrained |f^(i)(p)| = i! |f_i| of each stack of jets."""
        return np.max(np.abs(jets) * self.weights, axis=(-2, -1), initial=0)

    def scores(self, specs) -> tuple:
        """(margins, violations), one entry per spec, each kind in one batch.

        margin = target - Re f^(N+1)(0) of the deflated competitor; violation
        = its worst |f^(i)(p)| over the prescribed points, i = 1..m.
        """
        coeffs = np.empty(len(specs), dtype=complex)
        violations = np.empty(len(specs))
        for kind, scorer in (
            ("postcompose-automorphism", self._automorphisms),
            ("scalar-multiple", self._scalars),
            ("antiderivative-family", self._antiderivatives),
            ("larger-critical-set", self._larger_sets),
        ):
            idx = [i for i, s in enumerate(specs) if s.kind == kind]
            if idx:
                coeffs[idx], violations[idx] = scorer([specs[i] for i in idx])
        return self.target - coeffs.real * self.factorial, violations

    # Each scorer returns, per spec, the order-(N+1) Taylor coefficient of
    # the deflated competitor f and its constraint violation.

    def _scalars(self, specs):
        """f = s B: |s B| = |s| <= 1 on the circle, and every coefficient is
        B's own, times s."""
        s = np.array([sp.parameter for sp in specs], dtype=complex)
        scale = s * (1.0 - DEFLATION)
        return scale * self.g0, np.abs(scale) * self._violation(self.jets)

    def _antiderivatives(self, specs):
        """f = P @ basis, a polynomial of degree d: the antiderivative is
        linear in p's coefficients, so the jet checks run once per monomial
        basis row, and the order-(N+1) coefficient is read off ``basis``.

        The sup is taken on the samples from |f(e^{it})|^2 = r_0 + 2 Re
        sum_j r_j e^{ijt}, j = 1..d, with r_j = sum_k c_(k+j) conj(c_k) over
        f's coefficients c_k: one real matmul against the rows [1, cos jt,
        sin jt].  Its rounding relative to the max is at most about
        (d + 1)(2d + 1) eps, below 1e-13 at d = 12.
        """
        width = max(len(sp.parameter) for sp in specs)
        P = np.zeros((len(specs), width), dtype=complex)
        for row, sp in zip(P, specs):
            row[width - len(sp.parameter) :] = sp.parameter
        points = self.C.points()
        basis = np.array([antiderivative(e, points) for e in np.eye(width)])
        # f_i of each basis row has the coefficient C(k, i) c_k at z^(k-i);
        # np.polyval(columns, x) runs Horner down the columns, for all rows
        k = range(basis.shape[1] - 1, -1, -1)
        jets = np.stack([np.polyval(
            (basis * [math.comb(j, i) for j in k]).T[: len(k) - i, :, None],
            self.points) for i in range(self.K + 1)], axis=-1)
        F = P @ basis  # descending: F[:, i] is the coefficient of z^(d-i)
        d = F.shape[1] - 1
        r = np.array(
            [np.sum(F[:, : d + 1 - j] * np.conj(F[:, j:]), axis=1)
             for j in range(d + 1)]
        ).T
        # |f|^2 = R @ [1, cos jt, sin jt], R = [r_0, 2 Re r_j, -2 Im r_j]
        r[:, 1:] *= 2.0
        R = np.hstack([r.real, -r.imag[:, 1:]])
        # e^{ijt} at the k-th sample t = 2 pi k / SUP_SAMPLES is sample jk
        trig = np.empty((2 * d + 1, SUP_SAMPLES))
        trig[0] = 1.0
        k = np.arange(SUP_SAMPLES)
        for j in range(1, d + 1):
            e = self.bnodes[j * k % SUP_SAMPLES]
            trig[j], trig[d + j] = e.real, e.imag
        # real entries, half the bytes of complex ones: 4 rows per block
        squared = np.empty(len(specs))
        for rows in _chunks(len(specs), SUP_SAMPLES // 2):
            squared[rows] = np.max(R[rows] @ trig, axis=1)
        if np.any(squared == 0.0):
            raise InputError("zero antiderivative competitor")
        scale = (1.0 - DEFLATION) / np.sqrt(squared)
        coeff = P @ basis[:, -(self.order + 2)]  # of z^(order+1)
        return scale * coeff, scale * self._violation(np.tensordot(P, jets, 1))

    def _automorphisms(self, specs):
        """f = T o B with T(w) = eta (c - w) / (1 - conj(c) w).

        |T o B| = 1 on the circle.  B vanishes to order N + 1 at 0, so
        T o B = T(0) + T'(0) B + O(z^(2N+2)) and its order-(N+1) coefficient
        is T'(0) g(0), with T'(0) = eta (|c|^2 - 1).
        """
        eta = np.array([sp.parameter.rotation for sp in specs])
        c = np.array([sp.parameter.center for sp in specs])
        scale = eta * (1.0 - DEFLATION)
        coeff = (np.abs(c) ** 2 - 1.0) * self.g0
        one = np.eye(1, self.K + 1)
        violation = np.empty(len(c))
        for rows in _chunks(len(c), self.jets.size):
            cc = c[rows, None, None]
            violation[rows] = self._violation(_jet_div(
                cc * one - self.jets, one - np.conj(cc) * self.jets))
        return scale * coeff, np.abs(scale) * violation

    def _larger_sets(self, specs):
        """Re-solve each enlarged critical set; the one kind scored singly.

        The re-solved product is a Blaschke product, so its sup on the
        circle is 1, and its order-(N+1) coefficient is g(0), or 0 when an
        extra point at 0 raises its zero order there above N + 1.
        """
        coeff = np.empty(len(specs), dtype=complex)
        violation = np.empty(len(specs))
        for i, sp in enumerate(specs):
            extra = CriticalSet(tuple((z, 1) for z in sp.parameter))
            big = solve_maximal(self.C.union(extra), self.cfg).solution
            coeff[i] = _origin_coefficient(big, self.order)
            violation[i] = self._violation(_taylor(big, self.points, self.K))
        scale = 1.0 - DEFLATION
        return scale * coeff, scale * violation


def extremality_suite(
    C: CriticalSet, B: FiniteBlaschke, specs, cfg=None
) -> dict:
    """Score every admissible competitor; the reference must win them all.

    Competitors violating their own constraints (derivative not vanishing to
    the prescribed order) are reported and skipped, not scored.
    """
    margins, violations = _CompetitorEngine(C, B, cfg).scores(specs)
    kept = margins[violations <= CONSTRAINT_TOL]
    worst = float(np.min(kept)) if kept.size else np.inf
    return {
        "suite": "extremality",
        "inputs": C.to_dict(),
        "margin": worst,
        "samples": int(kept.size),
        "skipped": len(specs) - int(kept.size),
        "pass": bool(kept.size > 0 and worst >= -MARGIN_TOL),
    }


def boundary_quotient(B: FiniteBlaschke, direction: complex) -> dict:
    """Schwarz-Pick quotient (1-|z|^2)|B'(z)|/(1-|B(z)|^2) at the radii
    PROBE_RADII along the ray of ``direction``, a number on the unit circle
    (``boundary_probes`` returns directions clear of the critical points).

    Approaches 1 at the rim away from critical directions.  The report fits
    the envelope |q - 1| <= K (1 - r); the observed monotonicity of q in r
    is logged but is not a claim worth asserting.
    """
    direction = _number(direction, "probe direction")
    if not abs(abs(direction) - 1.0) <= 1e-12:
        raise InputError("probe direction must lie on the unit circle")
    zs = np.array([r * direction for r in PROBE_RADII])
    q = (1.0 - np.abs(zs) ** 2) * _pullback(B, zs)
    one_minus_r = 1.0 - np.asarray(PROBE_RADII)
    K = float(np.max(np.abs(q - 1.0) / one_minus_r))
    deviation = float(abs(q[-1] - 1.0))
    return {
        "suite": "boundary-quotient",
        "direction": direction,
        "radii": list(PROBE_RADII),
        "quotients": [float(v) for v in q],
        "envelope_K": K,
        "monotone": bool(np.all(np.diff(q) >= -1e-12)),
        "deviation": deviation,
        "pass": bool(deviation <= QUOTIENT_TOL),
    }


def phi_boundary_bound(B: FiniteBlaschke) -> dict:
    """phi(zeta) = B(zeta)/(zeta B'(zeta)) at 4096 points of the circle:
    real, in (0, 1].

    Needs B(0) = 0 (each Moebius factor then contributes a positive term to
    1/phi).  B' cannot vanish on the circle for a finite product, but a
    critical point close by makes the quotient ill-conditioned; detected and
    raised.
    """
    if not any(a == 0 for a in B.zeros):
        raise InputError("phi bound needs a product vanishing at the origin")
    samples = 4096
    zeta = np.exp(2j * np.pi * np.arange(samples) / samples)
    w, dw = _scan(B, zeta)
    if np.min(np.abs(dw)) < 1e-8:
        raise NumericalError("derivative nearly vanishes on the circle")
    phi = w / (zeta * dw)
    return {
        "suite": "phi-bound",
        "samples": samples,
        "max_imag": float(np.max(np.abs(phi.imag))),
        "min_real": float(np.min(phi.real)),
        "max_real": float(np.max(phi.real)),
        "pass": bool(
            np.max(np.abs(phi.imag)) <= 1e-10
            and np.min(phi.real) > 0.0
            and np.max(phi.real) <= 1.0 + 1e-10
        ),
    }


def fit_automorphism(
    values_at: FiniteBlaschke, target: FiniteBlaschke
) -> DiskAutomorphism:
    """T with target = T o values_at, for a ``values_at`` with values_at(0)
    = 0, as normalized products have.

    Interpolates T at w = 0, where T(0) = target(0) fixes the center up to
    the rotation, and at w = values_at(1), which lies on the unit circle,
    so that point never degenerates and T(w) = target(1) fixes the
    rotation.  Three real parameters from three real conditions; the global
    validation afterwards is the check.
    """
    if target.degree != values_at.degree:  # T o values_at has its degree
        raise NumericalError("automorphism fit needs products of one degree")
    if abs(evaluate(values_at, 0.0)) > 1e-12:
        raise NumericalError("automorphism fit needs values_at(0) = 0")
    w1 = evaluate(values_at, 1.0)
    v0 = evaluate(target, 0.0)
    v1 = evaluate(target, 1.0)
    # T(w) = eta (c - w)/(1 - conj(c) w) with eta c = v0
    eta = (v0 - v1) / (w1 * (1.0 - v1 * np.conj(v0)))
    if abs(abs(eta) - 1.0) > 1e-6:
        raise NumericalError("fitted rotation is not unimodular")
    c = v0 / eta
    if abs(c) >= 1.0:
        raise NumericalError("fitted automorphism center left the disk")
    return DiskAutomorphism(center=complex(c), rotation=complex(eta))


def _resolve_and_match(A: FiniteBlaschke, cfg) -> tuple:
    """Re-solve the extremal problem for the critical set of ``A`` and fit
    the automorphism T with A = T o resolved.

    Returns the re-solved product and the largest |A - T o resolved| over
    1000 well-spread samples of |z| <= 0.9 (a golden-angle spiral).
    """
    resolved = solve_maximal(critical_points(A), cfg).solution
    T = fit_automorphism(resolved, A)
    k = np.arange(1000)
    r = 0.9 * np.sqrt((k + 0.5) / 1000)
    theta = k * (np.pi * (3.0 - np.sqrt(5.0)))
    pts = r * np.exp(1j * theta)
    err = float(
        np.max(np.abs(evaluate(A, pts) - T(evaluate(resolved, pts))))
    )
    return resolved, err


def semigroup_check(
    F: FiniteBlaschke, B: FiniteBlaschke, cfg: HomotopyConfig | None = None
) -> dict:
    """Composite of two maximal products is maximal for its critical set.

    Forms A = B o F, re-solves the extremal problem for A's critical points
    from scratch, and fits/validates the automorphism between the two; also
    compares the pullback densities both ways on the default PolarGrid.

    The two pullbacks describe the same metric.  Both products solve their
    conditions to about 1e-15 relative, with exact zeros on a composite's
    multiple critical points, and over 699 composites of the test corpus's
    products the ratios stayed within 1 + 3.9e-12.  The dominance pass
    bound is the 1 + 1e-9 of the nested-set check.
    """
    A = compose(B, F)
    resolved, err = _resolve_and_match(A, cfg)
    g = PolarGrid()
    pa = pullback_density(A, g)
    pm = pullback_density(resolved, g)
    r1 = dominance_check(pa, pm)
    r2 = dominance_check(pm, pa)
    return {
        "suite": "semigroup",
        "composite_degree": A.degree,
        "match_error": err,
        "dominance": [r1, r2],
        "pass": bool(
            err <= MATCH_TOL and r1 <= 1.0 + 1e-9 and r2 <= 1.0 + 1e-9
        ),
    }


def left_factor_check(B: FiniteBlaschke, cfg=None) -> dict:
    """If a composite B o C is maximal, the left factor B is itself maximal.

    Re-solves for the critical set of B alone and fits the automorphism; the
    right factor C plays no part in the check.
    """
    _, err = _resolve_and_match(B, cfg)
    return {
        "suite": "left-factor",
        "factor_degree": B.degree,
        "match_error": err,
        "pass": bool(err <= MATCH_TOL),
    }


def union_suite(
    C1: CriticalSet,
    C2: CriticalSet,
    c: float,
    grid: PolarGrid,
    cfg=None,
) -> dict:
    """Certify the combined critical set two independent ways.

    The metric route: the damped product construction gives a curvature
    <= -4 density vanishing exactly on the multiset union within the grid
    disk.  The solver route: the extremal problem for the whole union is
    solvable outright.
    """
    F = solve_maximal(C1, cfg).solution
    G = solve_maximal(C2, cfg).solution
    mu, alpha = union_metric(F, G, c, grid)
    expected = C1.union(C2)
    try:
        zero_err = expected.within(grid.r_max).match(mu.zero_set)
    except NumericalError:
        zero_err = np.inf
    curv = discrete_curvature(mu)
    worst_curv = float(np.max(curv.values[curv.defined], initial=-np.inf))
    direct = solve_maximal(expected, cfg)
    return {
        "suite": "union",
        "alpha": alpha,
        "zero_set_error": float(zero_err),
        "max_curvature": worst_curv,
        "direct_functional": direct.functional_value,
        "pass": bool(
            zero_err <= MATCH_TOL
            and worst_curv <= -4.0 + _curvature_band(grid.h)
        ),
    }
