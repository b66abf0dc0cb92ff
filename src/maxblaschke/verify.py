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

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .blaschke import (
    CriticalSet,
    FiniteBlaschke,
    _origin_coefficient,
    _scan,
    antiderivative,
    compose,
    critical_points,
    derivative_at_origin_order,
    evaluate,
)
from .disk import DiskAutomorphism
from .errors import InputError, NumericalError
from .metrics import (
    PolarGrid,
    _curvature_band,
    _pullback,
    discrete_curvature,
    dominance_check,
    pullback_density,
    union_metric,
)
from .solver import HomotopyConfig, _index, solve_maximal

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
    """One competitor: an admissible function built from a solver output.

    Exactly the parameters for its kind are meaningful: an automorphism to
    postcompose, a scalar multiplier with |c| <= 1, extra critical points to
    adjoin, or polynomial coefficients for the antiderivative construction
    f(z) = integral of p(t) * prod (t - z_j)^{m_j}.
    """

    kind: str
    automorphism: DiskAutomorphism | None = None
    scalar: complex | None = None
    extra_points: tuple = ()
    poly_coeffs: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError(f"unknown competitor kind: {self.kind!r}")
        if self.kind == "scalar-multiple":
            if not _finite((self.scalar,)) or abs(self.scalar) > 1.0:
                raise InputError("scalar multiplier must satisfy |c| <= 1")
        elif self.kind == "postcompose-automorphism":
            if self.automorphism is None:
                raise InputError("automorphism competitor needs an "
                                 "automorphism")
        elif self.kind == "larger-critical-set":
            if not _finite(self.extra_points):
                raise InputError("extra critical points must be finite")
        elif not (self.poly_coeffs and _finite(self.poly_coeffs)):
            raise InputError("antiderivative competitor needs finite "
                             "polynomial coefficients")


def _finite(values) -> bool:
    """True when every entry is a finite (complex) number."""
    try:
        return all(map(cmath.isfinite, values))
    except TypeError:
        return False


@dataclass(frozen=True)
class BoundaryProbe:
    """A radial approach direction staying away from the critical points."""

    direction: complex
    radii: tuple = (0.9, 0.99, 0.995, 0.999)

    def __post_init__(self):
        if abs(abs(self.direction) - 1.0) > 1e-12:
            raise InputError("probe direction must lie on the unit circle")
        if any(not 0.0 < r < 1.0 for r in self.radii):
            raise InputError("probe radii must lie in (0, 1)")


def boundary_probes(C: CriticalSet, count: int = 8) -> list:
    """``count`` directions, spread out, all >= 0.1 from the critical points."""
    count = _index(count, "count")
    if count < 1:
        raise InputError(f"need at least one probe direction, got {count}")
    candidates = np.exp(2j * np.pi * np.arange(64) / 64)
    crit = np.array(C.points()) if C.entries else np.empty(0, dtype=complex)
    if crit.size:
        dist = np.min(np.abs(candidates[:, None] - crit[None, :]), axis=1)
        candidates = candidates[dist >= 0.1]
    if len(candidates) < count:
        raise NumericalError("not enough clear probe directions")
    picks = candidates[:: max(1, len(candidates) // count)][:count]
    return [BoundaryProbe(complex(z)) for z in picks]


def default_competitor_specs(
    C: CriticalSet, count: int, rng: np.random.Generator, larger: int = 2
) -> list:
    """A mixed batch: ``larger`` of the expensive re-solve kind and the rest
    split ~40/30/30 between the three cheap kinds, each of which gets at
    least one, so with the default ``larger`` of 2 ``count`` must be >= 5."""
    count, larger = _index(count, "count"), _index(larger, "larger")
    if larger < 0:
        raise InputError(f"larger must be nonnegative, got {larger}")
    if count - larger < 3:
        raise InputError(
            f"{count} competitors with {larger} larger-critical-set re-solves "
            f"leave a kind empty: need at least {larger + 3}"
        )
    specs = []
    for _ in range(larger):
        extra = []
        pts = C.points()
        n_extra = int(rng.integers(1, 3))
        while len(extra) < n_extra:
            z = rng.uniform(0.1, 0.7) * np.exp(2j * np.pi * rng.random())
            if all(abs(z - p) > 0.05 for p in list(pts) + extra):
                extra.append(complex(z))
        specs.append(
            CompetitorSpec("larger-critical-set", extra_points=tuple(extra))
        )
    rest = count - larger
    n_auto = int(round(rest * 0.4))
    n_scal = int(round(rest * 0.3))
    n_anti = rest - n_auto - n_scal
    for _ in range(n_auto):
        c = rng.uniform(0.0, 0.85) * np.exp(2j * np.pi * rng.random())
        eta = np.exp(2j * np.pi * rng.random())
        specs.append(
            CompetitorSpec(
                "postcompose-automorphism",
                automorphism=DiskAutomorphism(
                    rotation=complex(eta), center=complex(c)
                ),
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
        specs.append(CompetitorSpec("scalar-multiple", scalar=c))
    for _ in range(n_anti):
        deg = int(rng.integers(0, 4))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        specs.append(
            CompetitorSpec(
                "antiderivative-family",
                poly_coeffs=tuple(complex(v) for v in coeffs),
            )
        )
    return specs


#: Largest complex array over ring or sample nodes, in elements, that
#: batched scoring builds: a quarter of one default PolarGrid field, so the
#: few such arrays alive at once stay below the grid work beside them.  The
#: one larger array is the antiderivative kind's table of 2d + 1 real rows
#: over the SUP_SAMPLES samples (0.9 MB at degree d = 6, 1.6 MB at d = 12).
#: Peak traced memory of one 1000-competitor corpus suite: 1.6 MB at mass
#: <= 2 and 2.6 MB at mass 8, against 2.7 MB for a full field.
_BLOCK = 16384


def _chunks(n: int, width: int) -> list:
    """Slices over ``n`` rows so that rows x ``width`` stays within _BLOCK."""
    step = max(1, _BLOCK // max(1, width))
    return [slice(lo, lo + step) for lo in range(0, max(n, 1), step)]


def _worst(derivs: np.ndarray) -> np.ndarray:
    """Row-wise max |entry| of ring derivatives; 0 with no constraints."""
    return np.max(np.abs(derivs), axis=-1, initial=0.0)


class _CompetitorEngine:
    """Shared evaluation data for scoring many competitors against one B.

    Precomputes the boundary samples (for the antiderivative kind's sup),
    B on small rings around each prescribed critical point, and the matrix
    ``derivs`` taking values on those rings to the constrained derivatives
    f^(i)(p), i = 1..multiplicity.  Every order-(N+1) coefficient is exact:
    g(0) of B for the scalar-multiple and automorphism kinds, g(0) of the
    re-solved product for the larger-critical-set kind, and a column of
    the polynomial basis for the antiderivative kind.  Only the
    antiderivative kind's sup is sampled; the others are bounded by 1 on
    the circle.  Each competitor kind is scored as one batch.
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
        # rings used for derivative constraints at the critical points:
        # f^(i)(p) = i! / (64 r^i) * sum_j f(p + r u_j) u_j^-i, r = 0.05
        u = np.exp(2j * np.pi * np.arange(64) / 64)
        self.rnodes = np.concatenate(
            [p + 0.05 * u for p, _ in C.entries] or [np.empty(0, complex)]
        )
        self.derivs = np.zeros((len(self.rnodes), C.total), dtype=complex)
        col = 0
        for j, (p, m) in enumerate(C.entries):
            for i in range(1, m + 1):
                self.derivs[64 * j : 64 * (j + 1), col] = (
                    math.factorial(i) * u**-i / (64 * 0.05**i)
                )
                col += 1
        self.B_r = evaluate(B, self.rnodes)

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
        s = np.array([sp.scalar for sp in specs], dtype=complex)
        scale = s * (1.0 - DEFLATION)
        return scale * self.g0, np.abs(scale) * _worst(self.B_r @ self.derivs)

    def _antiderivatives(self, specs):
        """f = P @ basis, a polynomial of degree d: the antiderivative is
        linear in p's coefficients, so the ring checks run once per monomial
        basis row, and the order-(N+1) coefficient is read off ``basis``.

        The sup is taken on the samples from |f(e^{it})|^2 = r_0 + 2 Re
        sum_j r_j e^{ijt}, j = 1..d, with r_j = sum_k c_(k+j) conj(c_k) over
        f's coefficients c_k: one real matmul against the rows [1, cos jt,
        sin jt].  Its rounding relative to the max is at most about
        (d + 1)(2d + 1) eps, below 1e-13 at d = 12.
        """
        width = max(len(sp.poly_coeffs) for sp in specs)
        P = np.zeros((len(specs), width), dtype=complex)
        for row, sp in zip(P, specs):
            row[width - len(sp.poly_coeffs) :] = sp.poly_coeffs
        points = self.C.points()
        basis = np.array([antiderivative(e, points) for e in np.eye(width)])
        # np.polyval(columns, x): every basis row at the points x, by Horner
        columns = basis.T[:, :, None]
        ring = sum(
            np.polyval(columns, self.rnodes[b]) @ self.derivs[b]
            for b in _chunks(len(self.rnodes), width)
        )
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
        return scale * coeff, scale * _worst(P @ ring)

    def _automorphisms(self, specs):
        """f = T o B with T(w) = eta (c - w) / (1 - conj(c) w).

        |T o B| = 1 on the circle.  B vanishes to order N + 1 at 0, so
        T o B = T(0) + T'(0) B + O(z^(2N+2)) and its order-(N+1) coefficient
        is T'(0) g(0), with T'(0) = eta (|c|^2 - 1).
        """
        eta = np.array([sp.automorphism.rotation for sp in specs])
        c = np.array([sp.automorphism.center for sp in specs])
        scale = eta * (1.0 - DEFLATION)
        coeff = (np.abs(c) ** 2 - 1.0) * self.g0
        ring = np.empty((len(c), self.derivs.shape[1]), dtype=complex)
        for rows in _chunks(len(c), len(self.rnodes)):
            cc = c[rows, None]
            T = (cc - self.B_r) / (1.0 - np.conj(cc) * self.B_r)
            ring[rows] = T @ self.derivs
        return scale * coeff, np.abs(scale) * _worst(ring)

    def _larger_sets(self, specs):
        """Re-solve each enlarged critical set; the one kind scored singly.

        The re-solved product is a Blaschke product, so its sup on the
        circle is 1, and its order-(N+1) coefficient is g(0), or 0 when an
        extra point at 0 raises its zero order there above N + 1.
        """
        coeff = np.empty(len(specs), dtype=complex)
        violation = np.empty(len(specs))
        for i, sp in enumerate(specs):
            extra = CriticalSet(tuple((z, 1) for z in sp.extra_points))
            big = solve_maximal(self.C.union(extra), self.cfg).solution
            coeff[i] = _origin_coefficient(big, self.order)
            violation[i] = _worst(evaluate(big, self.rnodes) @ self.derivs)
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


def boundary_quotient(B: FiniteBlaschke, probe: BoundaryProbe) -> dict:
    """Schwarz-Pick quotient (1-|z|^2)|B'(z)|/(1-|B(z)|^2) along a ray.

    Approaches 1 at the rim away from critical directions.  The report fits
    the envelope |q - 1| <= K (1 - r); the observed monotonicity of q in r
    is logged but is not a claim worth asserting.
    """
    zs = np.array([r * probe.direction for r in probe.radii])
    q = (1.0 - np.abs(zs) ** 2) * _pullback(B, zs)
    one_minus_r = 1.0 - np.asarray(probe.radii)
    K = float(np.max(np.abs(q - 1.0) / one_minus_r))
    deviation = float(abs(q[-1] - 1.0))
    return {
        "suite": "boundary-quotient",
        "direction": complex(probe.direction),
        "radii": list(probe.radii),
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
    """T with target = T o values_at, from two point conditions.

    Interpolates T at w = values_at(0) (which is 0 for normalized products)
    and w = values_at(1/4); three real parameters against four real
    conditions, so global validation afterwards is a genuine check.
    """
    w1 = evaluate(values_at, 0.25)
    v0 = evaluate(target, 0.0)
    v1 = evaluate(target, 0.25)
    if abs(w1) < 1e-12 or abs(v0 - v1) < 1e-12:
        raise NumericalError("degenerate automorphism interpolation data")
    if abs(v0) < 1e-12:
        # T is a pure rotation composed with negation: T(w) = eta*(-w)
        return DiskAutomorphism(center=0j, rotation=-v1 / w1)
    c = w1 * (v0 - v1 * abs(v0) ** 2) / (v0 - v1)
    eta = v0 / c
    if abs(c) >= 1.0:
        raise NumericalError("fitted automorphism center left the disk")
    if abs(abs(eta) - 1.0) > 1e-6:
        raise NumericalError("fitted rotation is not unimodular")
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
    grid: PolarGrid | None = None,
    cfg=None,
) -> dict:
    """Certify the combined critical set two independent ways.

    The metric route: the damped product construction gives a curvature
    <= -4 density vanishing exactly on the multiset union.  The solver
    route: the extremal problem for the union is solvable outright.
    """
    g = grid or PolarGrid()
    F = solve_maximal(C1, cfg).solution
    G = solve_maximal(C2, cfg).solution
    mu, alpha = union_metric(F, G, c, g)
    expected = C1.union(C2)
    try:
        zero_err = expected.match(mu.zero_set)
    except NumericalError:
        zero_err = np.inf
    curv = discrete_curvature(mu)
    if np.any(curv.defined):
        worst_curv = float(np.max(curv.values[curv.defined]))
    else:
        worst_curv = -np.inf
    direct = solve_maximal(expected, cfg)
    return {
        "suite": "union",
        "alpha": alpha,
        "zero_set_error": float(zero_err),
        "max_curvature": worst_curv,
        "direct_functional": direct.functional_value,
        "pass": bool(
            zero_err <= MATCH_TOL
            and worst_curv <= -4.0 + _curvature_band(g.h)
        ),
    }
