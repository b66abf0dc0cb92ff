import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxblaschke.blaschke import (
    CriticalSet,
    FiniteBlaschke,
    _taylor,
    antiderivative,
    compose,
    derivative_at_origin_order,
    evaluate,
)
from maxblaschke.disk import DiskAutomorphism
from maxblaschke.errors import InputError, NumericalError
from maxblaschke.metrics import PolarGrid, pullback_density, union_metric
from maxblaschke.pde import PdeProblem, oracle_validate
from maxblaschke.solver import solve_maximal
from maxblaschke.verify import (
    CONSTRAINT_TOL,
    DEFLATION,
    PROBE_COUNT,
    PROBE_RADII,
    QUOTIENT_TOL,
    SUP_SAMPLES,
    CompetitorSpec,
    boundary_probes,
    boundary_quotient,
    default_competitor_specs,
    extremality_suite,
    fit_automorphism,
    left_factor_check,
    phi_boundary_bound,
    semigroup_check,
    union_suite,
    _CompetitorEngine,
)

from conftest import CORPUS_SEED

C_ONE = CriticalSet.from_points([0.5])
C_TWO = CriticalSet.from_points([0.5, -0.5])
# functional values of the solved products (see test_solver for the oracles)
F_ONE = 0.8
F_TWO = 0.6164640249326709

# competitors are deflated by this factor to stay strictly admissible
DEFL = 1.0 - 1e-6


@pytest.fixture(scope="module")
def b_one():
    return solve_maximal(C_ONE).solution


@pytest.fixture(scope="module")
def b_two():
    return solve_maximal(C_TWO).solution


def test_larger_set_margin_closed_form(b_one):
    """Adjoining -0.5 shrinks the functional from 0.8 to the two-point
    value; the competitor is the deflated two-point solution."""
    spec = CompetitorSpec(kind="larger-critical-set", parameter=(-0.5 + 0j,))
    out = extremality_suite(C_ONE, b_one, [spec])
    assert out["skipped"] == 0
    assert out["margin"] == pytest.approx(F_ONE - DEFL * F_TWO, abs=1e-9)
    assert out["pass"]


def test_scalar_margin_closed_form(b_one):
    out = extremality_suite(
        C_ONE, b_one, [CompetitorSpec(kind="scalar-multiple", parameter=0.9)])
    assert out["margin"] == pytest.approx(F_ONE * (1.0 - 0.9 * DEFL), abs=1e-9)


def test_automorphism_negation_margin(b_one):
    # T(z) = -z flips the functional's sign; the deflated competitor
    # scores -0.8 DEFL, so the margin is 0.8 (1 + DEFL)
    T = DiskAutomorphism(rotation=1.0, center=0j)
    out = extremality_suite(
        C_ONE, b_one, [CompetitorSpec(kind="postcompose-automorphism", parameter=T)])
    assert out["margin"] == pytest.approx(F_ONE * (1.0 + DEFL), abs=1e-9)


def test_antiderivative_competitors_lose(b_one):
    rng = np.random.default_rng(11)
    specs = [
        CompetitorSpec(kind="antiderivative-family",
                       parameter=tuple(rng.normal(size=2) + 0j))
        for _ in range(10)
    ]
    out = extremality_suite(C_ONE, b_one, specs)
    assert out["skipped"] == 0
    assert out["margin"] >= -1e-9


def test_mixed_batch_wins_everything(b_two):
    rng = np.random.default_rng(3)
    specs = default_competitor_specs(C_TWO, 60, rng)
    out = extremality_suite(C_TWO, b_two, specs)
    assert out["samples"] == 60
    assert out["skipped"] == 0
    assert out["pass"]


def test_quadrature_functional_agrees_with_derivative(b_two):
    """The identity competitor, scored in closed form from g(0), against
    the coefficient formula behind the target.  It is deflated by 1e-6, so
    its margin is F * 1e-6.  The Cauchy-integral route that once scored it
    is the per-spec reference below, which the batched-scoring tests check
    the closed forms against."""
    T = DiskAutomorphism(rotation=-1.0, center=0j)  # identity map
    out = extremality_suite(
        C_TWO, b_two, [CompetitorSpec(kind="postcompose-automorphism", parameter=T)])
    direct = derivative_at_origin_order(b_two, 0)
    assert out["margin"] == pytest.approx(F_TWO * 1e-6, abs=1e-12)
    assert direct == pytest.approx(F_TWO, abs=1e-10)


def test_default_specs_hold_one_of_each_kind():
    """Five is the least count with every kind beside two re-solves."""
    kinds = [s.kind for s in
             default_competitor_specs(C_TWO, 5, np.random.default_rng(1))]
    assert sorted(kinds) == sorted(
        ["larger-critical-set"] * 2 + ["postcompose-automorphism",
                                       "scalar-multiple",
                                       "antiderivative-family"]
    )


@pytest.mark.parametrize("count", [4, 3, 2, 7.5, True])
def test_default_specs_reject_too_few_for_every_kind(count):
    """Too few for every kind beside the two re-solves, or a count that is
    not an integer."""
    with pytest.raises(InputError, match="need at least 5|integer"):
        default_competitor_specs(C_TWO, count, np.random.default_rng(1))


def test_default_specs_refuse_a_set_with_no_clear_point():
    """A lattice of spacing 0.06 leaves no point of 0.1 < |z| < 0.7 that is
    0.05 clear of it, so the extra-point draws give up."""
    g = np.arange(-0.78, 0.7801, 0.06)
    lattice = [complex(x, y) for x in g for y in g
               if 0.05 < abs(complex(x, y)) < 0.76]
    assert len(lattice) == 504
    with pytest.raises(NumericalError, match="clear of the set"):
        default_competitor_specs(CriticalSet.from_points(lattice), 5,
                                 np.random.default_rng(1))


def test_competitor_spec_validation():
    with pytest.raises(InputError):
        CompetitorSpec(kind="unheard-of")
    with pytest.raises(InputError):
        CompetitorSpec(kind="scalar-multiple", parameter=1.5)
    with pytest.raises(InputError):
        CompetitorSpec(kind="postcompose-automorphism")


# ----------------------------------------------------------------------
# boundary behavior

def test_quotient_closed_form_for_squaring():
    """(1-r^2) 2r / (1-r^4) = 2r/(1+r^2) for B(z) = z^2."""
    B = FiniteBlaschke(zeros=(0j, 0j), eta=1.0)
    out = boundary_quotient(B, 1.0)
    assert out["direction"] == 1.0 and out["radii"] == list(PROBE_RADII)
    for r, q in zip(PROBE_RADII, out["quotients"]):
        assert q == pytest.approx(2 * r / (1 + r * r), abs=1e-12)
    assert out["quotients"][0] == pytest.approx(0.9944751381215471, abs=1e-12)
    assert out["deviation"] <= 1e-3
    assert out["pass"]


def test_quotient_fails_beyond_tolerance():
    """A zero 5e-4 inside the rim keeps q(0.999) 2e-3 away from 1."""
    B = FiniteBlaschke(zeros=(0j, 0.9995 + 0j), eta=1.0)
    out = boundary_quotient(B, 1.0 + 0j)
    assert out["deviation"] == pytest.approx(2.0e-3, rel=1e-3)
    assert out["deviation"] > QUOTIENT_TOL
    assert not out["pass"]


def test_probes_keep_clear_of_critical_points():
    probes = boundary_probes(C_ONE)
    assert len(probes) == PROBE_COUNT
    for p in probes:
        assert type(p) is complex
        assert abs(p - 0.5) >= 0.1
        assert abs(abs(p) - 1.0) <= 1e-12


@pytest.mark.parametrize("direction", [
    1.1, 0.5j, complex("inf"), complex("nan"), complex(1.0, float("nan")),
    True, np.True_,
], ids=["outside", "inside", "inf", "nan", "nan-imag", "bool", "numpy-bool"])
def test_probe_rejects_off_circle_direction(b_one, direction):
    """A NaN direction would make every boundary quotient NaN.  A boolean
    direction is refused, not read as 1."""
    with pytest.raises(InputError):
        boundary_quotient(b_one, direction)


def test_phi_closed_forms(b_one):
    """1/phi sums (1-|a|^2)/|zeta-a|^2 over the zeros; for zeros {0, 0.8}
    the extremes sit at zeta = +-1: phi(1) = 1/10, phi(-1) = 9/10."""
    out = phi_boundary_bound(b_one)
    assert out["pass"]
    assert out["min_real"] == pytest.approx(0.1, abs=1e-12)
    assert out["max_real"] == pytest.approx(0.9, abs=1e-12)
    squared = phi_boundary_bound(FiniteBlaschke(zeros=(0j, 0j), eta=1.0))
    assert squared["min_real"] == pytest.approx(0.5, abs=1e-14)
    assert squared["max_real"] == pytest.approx(0.5, abs=1e-14)


def test_phi_needs_origin_zero():
    B = FiniteBlaschke(zeros=(0.5 + 0j,), eta=1.0)
    with pytest.raises(InputError):
        phi_boundary_bound(B)


# ----------------------------------------------------------------------
# automorphism fitting and the composition suites

@given(
    st.complex_numbers(max_magnitude=0.7, allow_nan=False,
                       allow_infinity=False),
    st.floats(min_value=0.0, max_value=2 * np.pi),
)
@settings(max_examples=60, deadline=None)
def test_fit_automorphism_recovers_known_map(c, theta):
    B = FiniteBlaschke(zeros=(0j, 0.5 + 0j), eta=1.0)
    # T(z) = eta (c - z)/(1 - conj(c) z) as a degree-1 product
    t_prod = FiniteBlaschke(zeros=(complex(c),), eta=-np.exp(1j * theta))
    composed = compose(t_prod, B)
    got = fit_automorphism(B, composed)
    z = 0.8 * np.exp(2j * np.pi * np.arange(16) / 16)
    assert evaluate(composed, z) == pytest.approx(
        got(evaluate(B, z)), abs=1e-9)


def test_fit_automorphism_rejects_degenerate_data():
    vanishing_at_quarter = FiniteBlaschke(zeros=(0.25 + 0j,), eta=1.0)
    target = FiniteBlaschke(zeros=(0j,), eta=1.0)
    with pytest.raises(NumericalError):
        fit_automorphism(vanishing_at_quarter, target)


@pytest.mark.parametrize("radius", ["0.5", None, 0.5 + 0j])
def test_radii_of_a_wrong_type_are_input_errors(radius):
    """A grid radius, damping constant or PDE sub-disk radius that is not a
    real number is refused with InputError, not a TypeError from a
    comparison."""
    F = FiniteBlaschke(zeros=(0j, 0.5 + 0j))
    grid = PolarGrid(16, 16, 0.5)
    for check in (lambda: PolarGrid(r_max=radius),
                  lambda: union_metric(F, F, radius, grid),
                  lambda: PdeProblem(33, radius, abs, abs),
                  lambda: oracle_validate(F, radius, 33)):
        with pytest.raises(InputError, match="positive finite number"):
            check()


def test_constant_product_is_refused_before_zero_over_zero():
    """A constant product has |K| = 1 and K' = 0, so its pullback density
    is 0/0, and T o g has g's degree, so no fit reaches it.  Each check
    raises a typed error, not a RuntimeWarning."""
    K = FiniteBlaschke(zeros=(), eta=1j)
    F = FiniteBlaschke(zeros=(0j, 0.5 + 0j))
    for check in (lambda: pullback_density(K, PolarGrid(16, 16)),
                  lambda: boundary_quotient(K, 1 + 0j),
                  lambda: oracle_validate(K, 0.5, 33)):
        with pytest.raises(InputError, match="constant"):
            check()
    for check in (lambda: fit_automorphism(F, K),
                  lambda: left_factor_check(K),
                  lambda: semigroup_check(F, K)):
        with pytest.raises(NumericalError, match="degree"):
            check()


def test_semigroup_composition(b_one):
    sq = FiniteBlaschke(zeros=(0j, 0j), eta=1.0)
    out = semigroup_check(b_one, sq)
    assert out["composite_degree"] == 4
    assert out["match_error"] <= 1e-8
    assert out["pass"]


@pytest.mark.parametrize("outer, inner", [(5, 0), (5, 33), (39, 21)])
def test_semigroup_check_on_corpus_composites(corpus_solves, outer, inner):
    """Corpus set 5's product has the zeros {0, 0, 0}, so its composites
    have triple zeros on double critical points; 39 o 21 once broke down
    near t = 1.  With Newton's absolute stop test these failed the
    dominance bound, the round trip and the path, in that order."""
    out = semigroup_check(corpus_solves[inner][0].solution,
                          corpus_solves[outer][0].solution)
    assert out["pass"]


def test_semigroup_check_fits_where_old_interpolation_point_vanishes(
        corpus_solves):
    """Corpus set 7's product nearly vanishes at 1/4, so the composite
    5 o 7 does too (|A(1/4)| ~ 1e-13): an automorphism fitted at 1/4 had no
    data there.  The fit at z = 1 reads a point of the unit circle."""
    inner = corpus_solves[7][0].solution
    assert abs(evaluate(inner, 0.25)) < 1e-4
    out = semigroup_check(inner, corpus_solves[5][0].solution)
    assert out["match_error"] <= 1e-8
    assert out["pass"]


def test_left_factor_of_composition():
    sq = FiniteBlaschke(zeros=(0j, 0j), eta=1.0)
    out = left_factor_check(sq)
    assert out["factor_degree"] == 2
    assert out["pass"]


def test_union_suite_pair():
    grid = PolarGrid(n_r=48, n_theta=160, r_max=0.9)
    out = union_suite(C_ONE, CriticalSet.from_points([-0.5]), 0.5, grid)
    assert out["pass"]
    assert out["zero_set_error"] <= 1e-8
    assert out["max_curvature"] <= -4.0 + 10.0 * grid.h**2


def test_union_suite_multiset():
    """Same set twice: the union is the double point, and the zero-set
    match (which compares multiplicity profiles) must still succeed."""
    grid = PolarGrid(n_r=48, n_theta=160, r_max=0.9)
    assert C_ONE.union(C_ONE).entries == ((0.5 + 0j, 2),)
    out = union_suite(C_ONE, C_ONE, 0.5, grid)
    assert out["pass"]
    assert out["zero_set_error"] <= 1e-8


def test_union_suite_point_beyond_the_grid():
    """0.97 lies outside r_max = 0.95: the metric's annotation is the union
    within the grid disk, and so is the set it is matched against."""
    grid = PolarGrid()
    C1 = CriticalSet.from_points([0.97])
    C2 = CriticalSet.from_points([0.3j])
    out = union_suite(C1, C2, 0.5, grid)
    assert out["pass"]
    assert out["zero_set_error"] <= 1e-8
    F = solve_maximal(C1).solution
    G = solve_maximal(C2).solution
    mu, _ = union_metric(F, G, 0.5, grid)
    assert C1.union(C2).within(grid.r_max) == C2
    assert C2.match(mu.zero_set) <= 1e-8


# ----------------------------------------------------------------------
# batched competitor scoring against the per-spec reference

class _PerSpecReference:
    """The per-spec scorer the batched engine replaced, kept as its oracle:
    every competitor is evaluated on every node, one spec at a time, its
    order-(N+1) coefficient by the trapezoidal rule for Cauchy's integral on
    |z| = 1/2 and its sup on the boundary samples."""

    #: Quadrature nodes on |z| = 1/2 for derivatives at the origin.
    CAUCHY_NODES = 4096

    solve = staticmethod(solve_maximal)

    def __init__(self, C, B):
        self.C = C
        self.order = C.origin_multiplicity
        self.target = derivative_at_origin_order(B, self.order)
        k = np.arange(self.CAUCHY_NODES)
        self.qnodes = 0.5 * np.exp(2j * np.pi * k / self.CAUCHY_NODES)
        self.qweights = self.qnodes ** -(self.order + 1) / self.CAUCHY_NODES
        self.bnodes = np.exp(2j * np.pi * np.arange(SUP_SAMPLES) / SUP_SAMPLES)
        self.B_q = evaluate(B, self.qnodes)
        self.B_b = evaluate(B, self.bnodes)
        self.ring = 0.05 * np.exp(2j * np.pi * np.arange(64) / 64)
        self.crit_rings = {}
        for p, m in C.entries:
            nodes = p + self.ring
            self.crit_rings[p] = (m, nodes, evaluate(B, nodes))

    def functional(self, f_on_qnodes):
        coeff = np.sum(f_on_qnodes * self.qweights)
        return float(np.real(coeff)) * math.factorial(self.order + 1)

    def violation(self, f_on_rings):
        worst = 0.0
        for p, (m, _, _) in self.crit_rings.items():
            fv = f_on_rings[p]
            for i in range(1, m + 1):
                d = (math.factorial(i) * np.sum(fv * (self.ring / 0.05) ** -i)
                     / (64 * 0.05**i))
                worst = max(worst, abs(d))
        return worst

    def score(self, spec):
        if spec.kind == "postcompose-automorphism":
            T = spec.parameter
            sup = float(np.max(np.abs(T(self.B_b))))
            scale = (1.0 - DEFLATION) / max(1.0, sup)
            fq = T(self.B_q) * scale
            rings = {p: T(bv) * scale
                     for p, (_, _, bv) in self.crit_rings.items()}
        elif spec.kind == "scalar-multiple":
            sup = float(abs(spec.parameter) * np.max(np.abs(self.B_b)))
            scale = spec.parameter * (1.0 - DEFLATION) / max(1.0, sup)
            fq = self.B_q * scale
            rings = {p: bv * scale
                     for p, (_, _, bv) in self.crit_rings.items()}
        elif spec.kind == "larger-critical-set":
            extra = CriticalSet(tuple((z, 1) for z in spec.parameter))
            big = self.solve(self.C.union(extra)).solution
            sup = float(np.max(np.abs(evaluate(big, self.bnodes))))
            scale = (1.0 - DEFLATION) / max(1.0, sup)
            fq = evaluate(big, self.qnodes) * scale
            rings = {p: evaluate(big, nodes) * scale
                     for p, (_, nodes, _) in self.crit_rings.items()}
        else:
            coeffs = antiderivative(spec.parameter, self.C.points())
            sup = float(np.max(np.abs(np.polyval(coeffs, self.bnodes))))
            scale = (1.0 - DEFLATION) / sup
            fq = np.polyval(coeffs, self.qnodes) * scale
            rings = {p: np.polyval(coeffs, nodes) * scale
                     for p, (_, nodes, _) in self.crit_rings.items()}
        return self.target - self.functional(fq), self.violation(rings)


@pytest.fixture
def shared_resolves(monkeypatch):
    """The engine and the reference re-solve the same enlarged sets; solve
    each once (solve_maximal is deterministic) to keep the tests fast."""
    import maxblaschke.verify as verify

    cache = {}

    def solve(C, cfg=None):
        if C.entries not in cache:
            cache[C.entries] = solve_maximal(C, cfg)
        return cache[C.entries]

    monkeypatch.setattr(verify, "solve_maximal", solve)
    monkeypatch.setattr(_PerSpecReference, "solve", staticmethod(solve))


def _assert_matches_reference(C, B, specs):
    """Per-spec margins within 1e-12 and the suite's counts unchanged."""
    ref = _PerSpecReference(C, B)
    expect = np.array([ref.score(s) for s in specs]).reshape(-1, 2)
    margins, violations = _CompetitorEngine(C, B).scores(specs)
    assert np.max(np.abs(margins - expect[:, 0]), initial=0.0) <= 1e-12
    ref_skip = expect[:, 1] > CONSTRAINT_TOL
    assert np.array_equal(violations > CONSTRAINT_TOL, ref_skip)
    out = extremality_suite(C, B, specs)
    assert out["samples"] == int(np.sum(~ref_skip))
    assert out["skipped"] == int(np.sum(ref_skip))
    kept = expect[~ref_skip, 0]
    assert out["margin"] == pytest.approx(
        kept.min() if kept.size else np.inf, abs=1e-12)
    return out


def _cheap(specs):
    """The specs of a default batch that need no re-solve."""
    return [s for s in specs if s.kind != "larger-critical-set"]


@pytest.fixture(scope="module")
def corpus_batches(corpus):
    """Each corpus set's criterion-03 batch: the batches are drawn from one
    stream in corpus order, as in the acceptance test."""
    rng = np.random.default_rng(CORPUS_SEED + 3)
    return [default_competitor_specs(C, 1000, rng) for C in corpus]


def test_batched_scores_match_reference_on_corpus(
        corpus, corpus_solves, corpus_batches, shared_resolves):
    """Every corpus set of mass <= 3 with its criterion-03 batch."""
    checked = 0
    for C, (rep, _), specs in zip(corpus, corpus_solves, corpus_batches):
        if C.total <= 3:
            out = _assert_matches_reference(C, rep.solution, specs)
            assert out["skipped"] == 0
            checked += 1
    assert checked >= 10


def test_antiderivatives_match_reference_at_top_degree(
        corpus, corpus_solves, corpus_batches):
    """The antiderivative kind alone on the mass-8 corpus sets, where the
    default cubic p makes f of degree up to 12."""
    degrees = set()
    for C, (rep, _), specs in zip(corpus, corpus_solves, corpus_batches):
        if C.total == 8:
            anti = [s for s in specs if s.kind == "antiderivative-family"]
            degrees.update(len(s.parameter) + C.total for s in anti)
            out = _assert_matches_reference(C, rep.solution, anti)
            assert out["skipped"] == 0
    assert max(degrees) == 12


def _refined_squared_sups(F):
    """Sampled and refined sup of |f|^2 on the circle for each row of
    descending coefficients F, from its trigonometric form g(t) = sum_j
    a_j cos jt + b_j sin jt.  Newton steps on g', each kept within one
    sample spacing h of its start, climb from the top sample of every run
    of 16 samples whose top is within 1e-4 of the sampled max.  The true
    max lies within h/2 of a sample at most about (d pi / SUP_SAMPLES)^2 / 2
    < 1.1e-5 below it, and at degree d <= 12 a run holds at most one peak,
    so its top sample is within h of that peak."""
    d = F.shape[1] - 1
    r = np.array([np.sum(F[:, : d + 1 - j] * np.conj(F[:, j:]), axis=1)
                  for j in range(d + 1)]).T
    r[:, 1:] *= 2.0
    ab = np.hstack([r.real, -r.imag])
    j = np.arange(d + 1)
    h = 2 * np.pi / SUP_SAMPLES
    tj = np.outer(h * np.arange(SUP_SAMPLES), j)
    trig = np.hstack([np.cos(tj), np.sin(tj)])
    sampled = np.empty(len(F))
    rows, starts = [], []
    for block in range(0, len(F), 128):
        # samples down, rows across: g[run, k, row] is sample 16 run + k
        g = (trig @ ab[block : block + 128].T).reshape(
            SUP_SAMPLES // 16, 16, -1)
        peak = g.max(axis=1)
        top = peak.max(axis=0)
        sampled[block : block + 128] = top
        run, row = np.nonzero(peak >= (1.0 - 1e-4) * top)
        rows.append(row + block)
        starts.append(h * (16 * run + g[run, :, row].argmax(axis=1)))
    rows, t0 = np.concatenate(rows), np.concatenate(starts)
    a, b = ab[rows, : d + 1], ab[rows, d + 1 :]
    t = t0.copy()
    for _ in range(4):
        c, s = np.cos(np.outer(t, j)), np.sin(np.outer(t, j))
        slope = np.sum(j * (b * c - a * s), axis=1)
        bend = -np.sum(j**2 * (a * c + b * s), axis=1)
        t = t0 + np.clip(t - slope / bend - t0, -h, h)
    c, s = np.cos(np.outer(t, j)), np.sin(np.outer(t, j))
    refined = sampled.copy()
    np.maximum.at(refined, rows, np.sum(a * c + b * s, axis=1))
    return sampled, refined


def test_sampled_sup_within_deflation_of_refined_sup(corpus, corpus_batches):
    """DEFLATION absorbs the sampling error of the antiderivative kind's
    sup: on the mass >= 5 corpus batches (degrees 6 to 12), the sup of |f|
    over SUP_SAMPLES samples lies within DEFLATION of the locally refined
    sup (worst relative gap 6.4e-7, at degree 12)."""
    worst = 0.0
    for C, specs in zip(corpus, corpus_batches):
        if C.total < 5:
            continue
        # f = P @ basis, P's rows p padded to the default cubic
        anti = [s.parameter for s in specs
                if s.kind == "antiderivative-family"]
        P = np.zeros((len(anti), 4), dtype=complex)
        for row, p in zip(P, anti):
            row[4 - len(p) :] = p
        basis = np.array([antiderivative(e, C.points()) for e in np.eye(4)])
        sampled, refined = _refined_squared_sups(P @ basis)
        gap = 1.0 - np.sqrt(sampled / refined)
        worst = max(worst, float(gap.max()))
    assert worst <= DEFLATION
    assert worst > 1e-8  # the refinement does find the samples' shortfall


def test_larger_set_with_origin_point_scores_the_target(
        b_one, shared_resolves):
    """An extra point at 0 raises the re-solved product's zero order there
    above N + 1, so its order-(N+1) coefficient is 0 and the margin is the
    target itself; with and without a prescribed origin point."""
    origin = CriticalSet(((0j, 2), (0.4 + 0.1j, 1)))
    for C, B in ((C_ONE, b_one), (origin, solve_maximal(origin).solution)):
        specs = [CompetitorSpec("larger-critical-set", extra)
                 for extra in ((0j,), (0j, -0.3 + 0.2j))]
        margins, _ = _CompetitorEngine(C, B).scores(specs)
        target = derivative_at_origin_order(B, C.origin_multiplicity)
        assert np.all(margins == target)
        out = _assert_matches_reference(C, B, specs)
        assert out["skipped"] == 0


def _points_on_circle(n, radius):
    """n prescribed points spread evenly on |z| = radius."""
    return CriticalSet.from_points(
        radius * np.exp(2j * np.pi * (np.arange(n) + 0.3) / n))


@pytest.mark.parametrize("C", [
    CriticalSet.from_points([0.935]),
    CriticalSet.from_points([0.95]),
    CriticalSet.from_points([0.99]),
    _points_on_circle(2, 0.95),
    _points_on_circle(8, 0.95),
    CriticalSet(((0.3 + 0.1j, 4),)),
    CriticalSet(((0.2 + 0j, 5),)),
], ids=["0.935", "0.95", "0.99", "two-at-0.95", "eight-at-0.95",
        "fourfold", "fivefold"])
def test_constraint_check_skips_no_competitor_near_circle_or_at_high_order(C):
    """The constrained derivatives come from exact jets, so a maximal
    product's competitors all pass the check: near the circle, where a
    Cauchy ring of radius 0.05 failed on a reflected pole close by (136 to
    140 of these 200 skipped), and at a 4- or 5-fold point, where its
    rounding i! eps / 0.05^i did (62 and 79 skipped).  The largest violation left is
    the product's own: a 50-digit evaluation puts |B'(0.99)| at 7.4e-13,
    which an automorphism with |c| <= 0.85 multiplies by |T'(B)| < 10."""
    B = solve_maximal(C).solution
    specs = default_competitor_specs(C, 200, np.random.default_rng(0))
    _, violations = _CompetitorEngine(C, B).scores(specs)
    assert np.max(violations) <= 1e-11
    out = extremality_suite(C, B, specs)
    assert out["skipped"] == 0
    assert out["pass"]


@pytest.mark.parametrize("d", [3, 17, 65])
def test_taylor_jets_match_mpmath(d):
    """B's jets to order 5 against 50-digit ``mpmath.taylor``, at a point
    with |p| = 0.99, at a zero of B and at points inside |z| < 0.99, each
    within 1e-14 of the jet's largest entry."""
    rng = np.random.default_rng(d)
    zeros = 0.95 * np.sqrt(rng.random(d)) * np.exp(2j * np.pi * rng.random(d))
    zeros[0] = 0.0
    B = FiniteBlaschke(tuple(zeros), eta=np.exp(2j * np.pi * rng.random()))
    points = np.concatenate([
        [0.99 * np.exp(2j * np.pi * rng.random()), zeros[1]],
        0.99 * np.sqrt(rng.random(3)) * np.exp(2j * np.pi * rng.random(3)),
    ])
    jets = _taylor(B, points, 5)
    with mpmath.workdps(50):
        a = [mpmath.mpc(x) for x in B.zeros]
        eta = mpmath.mpc(B.eta)

        def f(z):
            return eta * mpmath.fprod(
                (z - x) / (1 - mpmath.conj(x) * z) for x in a)

        for p, row in zip(points, jets):
            ref = np.array(
                [complex(c) for c in mpmath.taylor(f, mpmath.mpc(p), 5)])
            assert np.max(np.abs(row - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("index", [10, 20, 21])
def test_corpus_double_points_skip_no_competitor(corpus, corpus_solves, index):
    """These products once read their own constraint check above
    CONSTRAINT_TOL, so most scalar multiples and automorphisms (594, 678 and
    676 of 1000) were skipped, not scored."""
    C, (rep, _) = corpus[index], corpus_solves[index]
    specs = default_competitor_specs(C, 1000, np.random.default_rng(7))
    out = extremality_suite(C, rep.solution, specs)
    assert out["skipped"] == 0
    assert out["pass"]


def test_batched_scores_match_reference_on_mismatched_pair(
        b_one, shared_resolves):
    """B is maximal for a simple point at 0.5 but scored against the double
    point there: B'(0.5) = 0 and B''(0.5) != 0, so competitors built from B
    violate the second-order constraint and are skipped, while the
    antiderivatives (built from the double point) are scored."""
    C = CriticalSet(((0.5 + 0j, 2),))
    specs = default_competitor_specs(C, 200, np.random.default_rng(5))
    out = _assert_matches_reference(C, b_one, specs)
    assert 0 < out["skipped"] < 200
    # and against an unrelated set, where the first derivative fails too
    other = CriticalSet.from_points([-0.3 + 0.2j, 0.1j])
    specs = _cheap(default_competitor_specs(other, 100,
                                            np.random.default_rng(6)))
    out = _assert_matches_reference(other, b_one, specs)
    assert out["skipped"] > 0


def test_batched_scores_match_reference_on_single_kinds(b_two):
    rng = np.random.default_rng(8)
    mixed = default_competitor_specs(C_TWO, 400, rng)
    for kind in ("postcompose-automorphism", "scalar-multiple",
                 "antiderivative-family"):
        batch = [s for s in mixed if s.kind == kind]
        _assert_matches_reference(C_TWO, b_two, batch)
        _assert_matches_reference(C_TWO, b_two, batch[:3])
    # mixed polynomial lengths, from a constant up to degree 6
    anti = [CompetitorSpec("antiderivative-family",
                           tuple(rng.normal(size=n) + 1j))
            for n in (1, 7, 2, 5, 3)]
    _assert_matches_reference(C_TWO, b_two, anti)
    # centered at 0, where the automorphism series has a single term
    rotations = [CompetitorSpec("postcompose-automorphism",
                                DiskAutomorphism(rotation=eta))
                 for eta in (1.0, -1.0, 1j, np.exp(0.3j))]
    _assert_matches_reference(C_TWO, b_two, rotations)
    empty = extremality_suite(C_TWO, b_two, [])
    assert (empty["samples"], empty["skipped"], empty["pass"]) == (0, 0, False)
    assert empty["margin"] == np.inf


def test_batched_scores_on_empty_set_and_origin_point():
    """No constraint rings at all, and a double origin point (order 2)."""
    rng = np.random.default_rng(9)
    for C in (CriticalSet(), CriticalSet(((0j, 2), (0.4 + 0.1j, 1)))):
        B = solve_maximal(C).solution
        specs = _cheap(default_competitor_specs(C, 300, rng))
        _assert_matches_reference(C, B, specs)


@pytest.mark.parametrize("theta", [0.7, 2.0, -2.6])
def test_closed_forms_match_reference_on_rotated_products(
        corpus, corpus_solves, theta):
    """B rotated by eta = e^(i theta): g(0) picks up an imaginary part, which
    the closed forms keep and the reference's quadrature and sampled sup
    see independently.  Corpus sets 0 (a double origin point among 8
    points), 10 and 30 (double points elsewhere), and a small set with a
    double origin point."""
    rng = np.random.default_rng(abs(int(100 * theta)))
    cases = [(corpus[i], corpus_solves[i][0].solution) for i in (0, 10, 30)]
    C = CriticalSet(((0j, 2), (0.4 + 0.1j, 1)))
    cases.append((C, solve_maximal(C).solution))
    for C, B in cases:
        B = FiniteBlaschke(B.zeros, eta=B.eta * np.exp(1j * theta))
        specs = [s for s in _cheap(default_competitor_specs(C, 200, rng))
                 if s.kind != "antiderivative-family"]
        out = _assert_matches_reference(C, B, specs)
        assert out["skipped"] == 0


@pytest.mark.parametrize("kind, parameter", [
    ("scalar-multiple", complex("nan")),
    ("scalar-multiple", complex("inf")),
    ("antiderivative-family", ()),
    ("antiderivative-family", (1.0, complex("nan"))),
    ("larger-critical-set", (0.2, complex("inf"))),
    ("postcompose-automorphism",
     lambda: DiskAutomorphism(center=complex("nan"))),
    ("postcompose-automorphism", 0.5),
    ("scalar-multiple", True),
    ("scalar-multiple", np.True_),
    ("antiderivative-family", (True,)),
    ("larger-critical-set", (False,)),
    ("larger-critical-set", ()),
    ("larger-critical-set", 0.3),
], ids=["scalar-nan", "scalar-inf", "poly-empty", "poly-nan", "extra-inf",
        "center-nan", "automorphism-float", "scalar-bool",
        "scalar-numpy-bool", "poly-bool", "extra-bool", "extra-empty",
        "extra-not-a-tuple"])
def test_competitor_spec_rejects_non_finite_and_empty(kind, parameter):
    """Booleans are refused, not read as 0 or 1; an automorphism competitor
    needs a DiskAutomorphism, not a number; and the point and coefficient
    kinds need a nonempty sequence, so an enlarged set never re-solves C
    itself."""
    with pytest.raises(InputError):
        # a callable is built inside the block: DiskAutomorphism itself
        # rejects a NaN center
        CompetitorSpec(kind, parameter() if callable(parameter) else parameter)
