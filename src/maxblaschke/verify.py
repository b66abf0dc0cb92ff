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
    _scan,
    compose,
    critical_points,
    derivative_at_origin_order,
    evaluate,
)
from .disk import DiskAutomorphism
from .errors import InputError, NumericalError
from .metrics import (
    PolarGrid,
    _pullback,
    discrete_curvature,
    dominance_check,
    pullback_density,
    union_metric,
)
from .solver import HomotopyConfig, solve_maximal

#: Number of quadrature nodes on |z| = 1/2 for derivatives at the origin.
CAUCHY_NODES = 4096
#: Number of boundary samples certifying competitor sup-norms.
SUP_SAMPLES = 8192
#: Competitors are shrunk by this before scoring, absorbing sampling error.
DEFLATION = 1e-6
#: Constraint check: |f^(i)| at a prescribed critical point, i up to its
#: multiplicity, must not exceed this.
CONSTRAINT_TOL = 1e-10

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
            if self.scalar is None or abs(self.scalar) > 1.0:
                raise InputError("scalar multiplier must satisfy |c| <= 1")
        if self.kind == "postcompose-automorphism" and self.automorphism is None:
            raise InputError("automorphism competitor needs an automorphism")


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

    def check_clearance(self, C: CriticalSet, clearance: float = 0.1):
        for p, _ in C.entries:
            if abs(self.direction - p) < clearance:
                raise InputError(
                    f"probe direction within {clearance} of a critical point"
                )


def boundary_probes(C: CriticalSet, count: int = 8, radii=None) -> list:
    """``count`` directions, spread out, all >= 0.1 from the critical points."""
    kwargs = {} if radii is None else {"radii": tuple(radii)}
    candidates = np.exp(2j * np.pi * np.arange(64) / 64)
    crit = np.array(C.points()) if C.entries else np.empty(0, dtype=complex)
    if crit.size:
        dist = np.min(np.abs(candidates[:, None] - crit[None, :]), axis=1)
        candidates = candidates[dist >= 0.1]
    if len(candidates) < count:
        raise NumericalError("not enough clear probe directions")
    picks = candidates[:: max(1, len(candidates) // count)][:count]
    probes = [BoundaryProbe(complex(z), **kwargs) for z in picks]
    for p in probes:
        p.check_clearance(C)
    return probes


def default_competitor_specs(
    C: CriticalSet, count: int, rng: np.random.Generator, larger: int = 2
) -> list:
    """A mixed batch of all four kinds, ``larger`` of the expensive re-solve
    kind and the rest split ~40/30/30 between the cheap families."""
    if count < 4:
        raise InputError("need at least one competitor of each kind")
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


def _antiderivative_coeffs(spec: CompetitorSpec, C: CriticalSet) -> np.ndarray:
    """Descending coefficients of  integral_0^z p(t) prod (t-z_j)^{m_j} dt."""
    core = np.asarray(spec.poly_coeffs, dtype=complex)
    for p, m in C.entries:
        for _ in range(m):
            core = np.convolve(core, np.array([1.0, -p]))
    deg = len(core) - 1
    divisors = np.arange(deg + 1, 0, -1)
    return np.concatenate([core / divisors, [0.0]])


class _CompetitorEngine:
    """Shared evaluation data for scoring many competitors against one B.

    Precomputes B on the Cauchy circle, the boundary ring, and small rings
    around each prescribed critical point (for the multiplicity constraint
    checks), so each individual competitor costs only elementwise work.
    """

    def __init__(self, C: CriticalSet, B: FiniteBlaschke, cfg=None):
        self.C = C
        self.B = B
        self.cfg = cfg
        self.order = C.origin_multiplicity  # functional: Re f^(order+1)(0)
        self.target = derivative_at_origin_order(B, self.order)
        k = np.arange(CAUCHY_NODES)
        self.qnodes = 0.5 * np.exp(2j * np.pi * k / CAUCHY_NODES)
        self.qweights = self.qnodes ** -(self.order + 1) / CAUCHY_NODES
        self.bnodes = np.exp(
            2j * np.pi * np.arange(SUP_SAMPLES) / SUP_SAMPLES
        )
        self.B_q = evaluate(B, self.qnodes)
        self.B_b = evaluate(B, self.bnodes)
        # rings used for derivative constraints at the critical points
        self.ring = 0.05 * np.exp(2j * np.pi * np.arange(64) / 64)
        self.crit_rings = {}
        for p, m in C.entries:
            nodes = p + self.ring
            self.crit_rings[p] = (m, nodes, evaluate(B, nodes))

    def functional(self, f_on_qnodes: np.ndarray) -> float:
        coeff = np.sum(f_on_qnodes * self.qweights)
        return float(np.real(coeff)) * math.factorial(self.order + 1)

    def _constraint_violation(self, f_on_rings: dict) -> float:
        """Worst |f^(i)(p)| over prescribed points, i = 1..multiplicity."""
        worst = 0.0
        for p, (m, _, _) in self.crit_rings.items():
            fv = f_on_rings[p]
            for i in range(1, m + 1):
                d = (
                    math.factorial(i)
                    * np.sum(fv * (self.ring / 0.05) ** -i)
                    / (64 * 0.05**i)
                )
                worst = max(worst, abs(d))
        return worst

    def score(self, spec: CompetitorSpec):
        """(margin, violation) for one competitor; margin = target - Re f^(N+1)(0)."""
        if spec.kind == "postcompose-automorphism":
            T = spec.automorphism
            sup = float(np.max(np.abs(T(self.B_b))))
            scale = (1.0 - DEFLATION) / max(1.0, sup)
            fq = T(self.B_q) * scale
            rings = {
                p: T(bv) * scale for p, (_, _, bv) in self.crit_rings.items()
            }
        elif spec.kind == "scalar-multiple":
            sup = float(abs(spec.scalar) * np.max(np.abs(self.B_b)))
            scale = spec.scalar * (1.0 - DEFLATION) / max(1.0, sup)
            fq = self.B_q * scale
            rings = {
                p: bv * scale for p, (_, _, bv) in self.crit_rings.items()
            }
        elif spec.kind == "larger-critical-set":
            extra = CriticalSet(tuple((z, 1) for z in spec.extra_points))
            big = solve_maximal(self.C.union(extra), self.cfg).solution
            fq = evaluate(big, self.qnodes)
            sup = float(np.max(np.abs(evaluate(big, self.bnodes))))
            scale = (1.0 - DEFLATION) / max(1.0, sup)
            fq = fq * scale
            rings = {
                p: evaluate(big, nodes) * scale
                for p, (_, nodes, _) in self.crit_rings.items()
            }
        elif spec.kind == "antiderivative-family":
            coeffs = _antiderivative_coeffs(spec, self.C)
            sup = float(np.max(np.abs(np.polyval(coeffs, self.bnodes))))
            if sup == 0.0:
                raise InputError("zero antiderivative competitor")
            scale = (1.0 - DEFLATION) / sup
            fq = np.polyval(coeffs, self.qnodes) * scale
            rings = {
                p: np.polyval(coeffs, nodes) * scale
                for p, (_, nodes, _) in self.crit_rings.items()
            }
        else:  # pragma: no cover - guarded in CompetitorSpec
            raise InputError(spec.kind)
        violation = self._constraint_violation(rings)
        margin = self.target - self.functional(fq)
        return margin, violation


def extremality_suite(
    C: CriticalSet, B: FiniteBlaschke, specs, cfg=None
) -> dict:
    """Score every admissible competitor; the reference must win them all.

    Competitors violating their own constraints (derivative not vanishing to
    the prescribed order) are reported and skipped, not scored.
    """
    engine = _CompetitorEngine(C, B, cfg)
    worst = np.inf
    skipped = 0
    scored = 0
    for spec in specs:
        margin, violation = engine.score(spec)
        if violation > CONSTRAINT_TOL:
            skipped += 1
            continue
        scored += 1
        worst = min(worst, margin)
    return {
        "suite": "extremality",
        "inputs": C.to_dict(),
        "margin": worst,
        "samples": scored,
        "skipped": skipped,
        "pass": bool(scored > 0 and worst >= -1e-9),
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
    return {
        "suite": "boundary-quotient",
        "direction": complex(probe.direction),
        "radii": list(probe.radii),
        "quotients": [float(v) for v in q],
        "envelope_K": K,
        "monotone": bool(np.all(np.diff(q) >= -1e-12)),
        "deviation": float(abs(q[-1] - 1.0)),
        "pass": True,
    }


def phi_boundary_bound(B: FiniteBlaschke, samples: int = 4096) -> dict:
    """phi(zeta) = B(zeta)/(zeta B'(zeta)) on the circle: real, in (0, 1].

    Needs B(0) = 0 (each Moebius factor then contributes a positive term to
    1/phi).  B' cannot vanish on the circle for a finite product, but a
    critical point close by makes the quotient ill-conditioned; detected and
    raised.
    """
    if not any(a == 0 for a in B.zeros):
        raise InputError("phi bound needs a product vanishing at the origin")
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


def _sample_points(count: int = 1000, radius: float = 0.9) -> np.ndarray:
    """Deterministic well-spread disk samples (golden-angle spiral)."""
    k = np.arange(count)
    r = radius * np.sqrt((k + 0.5) / count)
    theta = k * (np.pi * (3.0 - np.sqrt(5.0)))
    return r * np.exp(1j * theta)


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


def semigroup_check(
    F: FiniteBlaschke,
    B: FiniteBlaschke,
    cfg: HomotopyConfig | None = None,
    grid: PolarGrid | None = None,
) -> dict:
    """Composite of two maximal products is maximal for its critical set.

    Forms A = B o F, re-solves the extremal problem for A's critical points
    from scratch, and fits/validates the automorphism between the two; also
    compares the pullback densities both ways at grid scale.

    The two pullbacks describe the same metric, but each product places its
    critical points only to the solver round-trip tolerance (1e-8), and the
    density ratio near a critical point magnifies that offset by one over
    the node clearance (~2h): budget 2 * 1e-8 / (2h) < 1e-6 for the default
    grid.  The dominance pass bound is that budget, not the 1e-9 used when
    one side is exact.
    """
    A = compose(B, F)
    C_A = critical_points(A)
    resolved = solve_maximal(C_A, cfg).solution
    T = fit_automorphism(resolved, A)
    pts = _sample_points()
    err = float(
        np.max(np.abs(evaluate(A, pts) - T(evaluate(resolved, pts))))
    )
    g = grid or PolarGrid()
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
            err <= 1e-8 and r1 <= 1.0 + 1e-6 and r2 <= 1.0 + 1e-6
        ),
    }


def left_factor_check(
    B: FiniteBlaschke, C_right: FiniteBlaschke, cfg=None
) -> dict:
    """If B o C_right is maximal, the left factor is itself maximal.

    Re-solves for the critical set of B alone and fits the automorphism; the
    right factor only certifies the hypothesis and is otherwise unused.
    """
    crit_B = critical_points(B) if B.degree >= 2 else CriticalSet()
    resolved = solve_maximal(crit_B, cfg).solution
    T = fit_automorphism(resolved, B)
    pts = _sample_points()
    err = float(
        np.max(np.abs(evaluate(B, pts) - T(evaluate(resolved, pts))))
    )
    return {
        "suite": "left-factor",
        "factor_degree": B.degree,
        "match_error": err,
        "pass": bool(err <= 1e-8),
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
    h = g.h
    direct = solve_maximal(expected, cfg)
    return {
        "suite": "union",
        "alpha": alpha,
        "zero_set_error": float(zero_err),
        "max_curvature": worst_curv,
        "direct_functional": direct.functional_value,
        "pass": bool(
            zero_err <= 1e-8 and worst_curv <= -4.0 + 10.0 * h * h
        ),
    }
