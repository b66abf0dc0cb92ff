import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from conftest import critical_numerator_coeffs, scan_reference
from maxblaschke import blaschke
from maxblaschke.blaschke import (
    CriticalSet,
    FiniteBlaschke,
    compose,
    critical_points,
    derivative,
    derivative_at_origin_order,
    POLE_TOL,
    antiderivative,
    evaluate,
)
from maxblaschke.disk import pseudo_hyperbolic_distance
from maxblaschke.errors import InputError, NumericalError
from maxblaschke.metrics import PolarGrid
from maxblaschke.solver import solve_maximal


def zeros_strategy(max_len=4, max_radius=0.8):
    return st.lists(
        st.complex_numbers(max_magnitude=max_radius, allow_nan=False,
                           allow_infinity=False),
        min_size=1, max_size=max_len,
    )


def in_disk_critical_point(a):
    """In-disk critical point of z(z - a)/(1 - a z), real 0 < a < 1: the
    quadratic a c^2 - 2 c + a = 0 has roots (1 +- sqrt(1 - a^2))/a."""
    return (1.0 - math.sqrt(1.0 - a * a)) / a


# ----------------------------------------------------------------------
# critical sets

def test_critical_set_merges_and_orders():
    C = CriticalSet(((0.5 + 0j, 1), (0j, 2), (0.5 + 0j, 1)))
    assert C.entries == ((0j, 2), (0.5 + 0j, 2))
    assert C.total == 4
    assert C.origin_multiplicity == 2


def test_critical_set_construction_merges_like_from_points():
    C = CriticalSet(((0.5, 1), (0.5 + 1e-10, 1)))
    assert C == CriticalSet.from_points([0.5, 0.5 + 1e-10])
    assert C.entries == ((0.5 + 0j, 2),)


def test_critical_set_input_validation():
    with pytest.raises(InputError):
        CriticalSet(((1.0 + 0j, 1),))
    with pytest.raises(InputError):
        CriticalSet(((0.5 + 0j, 0),))
    for mult in (1.5, "2", True, float("nan"), float("inf"), None):
        with pytest.raises(InputError, match="must be an integer"):
            CriticalSet(((0.5 + 0j, mult),))
    assert CriticalSet(((0.5 + 0j, 2.0),)).entries == ((0.5 + 0j, 2),)
    assert CriticalSet(((0.5 + 0j, np.int64(2)),)).entries == ((0.5 + 0j, 2),)
    # a boolean point or zero is refused, not read as 0 or 1
    for flag in (False, np.False_):
        with pytest.raises(InputError, match="must be a number"):
            CriticalSet(((flag, 1),))
        with pytest.raises(InputError, match="must be a number"):
            FiniteBlaschke(zeros=(flag,))
    with pytest.raises(InputError, match="must be a number"):
        FiniteBlaschke(zeros=(0.5,), eta=True)


def test_critical_set_union_and_contains():
    A = CriticalSet.from_points([0.5, 0.3j])
    B = CriticalSet.from_points([0.5, -0.2])
    U = A.union(B)
    assert dict(U.entries)[0.5 + 0j] == 2
    assert U.total == 4
    assert U.contains(A) and U.contains(B)
    assert not A.contains(U)


def test_critical_set_match_is_pseudo_hyperbolic():
    A = CriticalSet.from_points([0.5])
    B = CriticalSet.from_points([0.5 + 1e-10])
    assert A.match(B) < 2e-10
    with pytest.raises(NumericalError):
        A.match(CriticalSet(((0.5 + 0j, 2),)))  # profile mismatch


def test_match_raises_unless_nearest_points_are_mutual():
    """0 and 0.001 share the nearest point 0, and 0.5 and 0.5001 share 0.5:
    no point-for-point pairing, from either side."""
    A = CriticalSet.from_points([0, 0.001, 0.5])
    B = CriticalSet.from_points([0, 0.5, 0.5001])
    for X, Y in ((A, B), (B, A)):
        with pytest.raises(NumericalError, match="do not pair point for point"):
            X.match(Y)


def _scipy_match(A, B):
    """``CriticalSet.match`` as it was written on scipy's assignment."""
    by_mult_a, by_mult_b = {}, {}
    for p, m in A.entries:
        by_mult_a.setdefault(m, []).append(p)
    for p, m in B.entries:
        by_mult_b.setdefault(m, []).append(p)
    worst = 0.0
    for m, pa in by_mult_a.items():
        cost = np.array(
            [[pseudo_hyperbolic_distance(x, y) for y in by_mult_b[m]]
             for x in pa]
        )
        worst = max(worst, float(cost[linear_sum_assignment(cost)].max()))
    return worst


def test_match_equals_scipy_reference_on_corpus(corpus, corpus_solves):
    for C, (rep, _) in zip(corpus, corpus_solves):
        found = critical_points(rep.solution)
        assert C.match(found) == _scipy_match(C, found)
        # a perturbed copy moves every pairing cost off zero
        rng = np.random.default_rng(len(C.entries))
        moved = CriticalSet(tuple(
            (p + 1e-3 * complex(*rng.standard_normal(2)), m)
            for p, m in C.entries
        ))
        assert C.match(moved) == _scipy_match(C, moved)


def test_critical_set_dict_round_trip():
    C = CriticalSet(((0.1 + 0.2j, 2), (0j, 1)))
    assert CriticalSet.from_dict(C.to_dict()) == C
    with pytest.raises(InputError):
        CriticalSet.from_dict({"points": [{"re": 0.1}]})


# ----------------------------------------------------------------------
# products and evaluation

def test_eta_is_normalized_and_zeros_sorted():
    B = FiniteBlaschke(zeros=(0.5 + 0j, -0.25 + 0j), eta=2j)
    assert abs(B.eta) == 1.0
    assert B.zeros == (-0.25 + 0j, 0.5 + 0j)


@given(zeros_strategy())
@settings(max_examples=150)
def test_modulus_below_one_inside_and_one_on_circle(zeros):
    B = FiniteBlaschke(zeros=tuple(zeros), eta=1.0)
    inside = np.array([0.4 + 0.1j, -0.2j, 0.65])
    assert np.all(np.abs(evaluate(B, inside)) < 1.0)
    circle = np.exp(1j * np.linspace(0.1, 5.9, 11))
    assert np.abs(evaluate(B, circle)) == pytest.approx(1.0, abs=1e-12)


def test_evaluate_at_own_zeros():
    B = FiniteBlaschke(zeros=(0.3 + 0.4j, -0.5j), eta=-1.0)
    assert evaluate(B, 0.3 + 0.4j) == pytest.approx(0.0, abs=1e-15)


@given(zeros_strategy(max_len=4, max_radius=0.7))
@settings(max_examples=100)
def test_derivative_matches_difference_quotient(zeros):
    B = FiniteBlaschke(zeros=tuple(zeros), eta=np.exp(0.4j))
    z, h = 0.21 - 0.17j, 1e-6
    fd = (evaluate(B, z + h) - evaluate(B, z - h)) / (2 * h)
    assert derivative(B, z) == pytest.approx(fd, abs=5e-8)


def _mp_value_and_slope(B, z):
    """B(z) and B'(z) to 50 digits, rounded to complex.

    B' is the product rule summed with prefix and suffix products of the
    factors, so it is exact at the zeros of B as well.
    """
    with mpmath.workdps(50):
        zm = mpmath.mpc(z)
        f, df = [], []
        for a in B.zeros:
            am = mpmath.mpc(a)
            den = 1 - mpmath.conj(am) * zm
            f.append((zm - am) / den)
            df.append((1 - abs(am) ** 2) / den**2)
        prefix = [mpmath.mpc(1)]
        for v in f:
            prefix.append(prefix[-1] * v)
        suffix = [mpmath.mpc(1)]
        for v in reversed(f):
            suffix.append(suffix[-1] * v)
        suffix.reverse()
        eta = mpmath.mpc(B.eta)
        slope = mpmath.fsum(
            df[k] * prefix[k] * suffix[k + 1] for k in range(len(f))
        )
        return complex(eta * prefix[-1]), complex(eta * slope)


@pytest.mark.parametrize("d", range(1, 13))
def test_evaluate_and_derivative_match_mpmath(d):
    """About 200 points per product: its own zeros (B' finite and nonzero
    there), 32 points on |z| = 1, points inside the disk, and one point by
    each reflected pole 1/conj(a) with |1 - conj(a) z| = 1e-2.  Rounding of
    1 - conj(a) z is amplified by 1/|1 - conj(a) z| in any double-precision
    evaluation, so closer points measure the input's conditioning, not the
    scan."""
    rng = np.random.default_rng(1000 + d)
    zeros = 0.95 * np.sqrt(rng.random(d)) * np.exp(2j * np.pi * rng.random(d))
    B = FiniteBlaschke(tuple(zeros), eta=np.exp(2j * np.pi * rng.random()))
    a = np.array(B.zeros)
    near_pole = (1.0 + 1e-2 * np.exp(2j * np.pi * rng.random(d))) / np.conj(a)
    assert np.all(np.abs(1.0 - np.conj(a) * near_pole) > 1e3 * POLE_TOL)
    z = np.concatenate([
        a,
        np.exp(2j * np.pi * (np.arange(32) + rng.random()) / 32),
        0.99 * np.sqrt(rng.random(160)) * np.exp(2j * np.pi * rng.random(160)),
        near_pole,
    ])
    ref = np.array([_mp_value_and_slope(B, x) for x in z])
    assert np.all(np.abs(ref[:d, 1]) > 0.0)
    for got, want in ((evaluate(B, z), ref[:, 0]),
                      (derivative(B, z), ref[:, 1])):
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= 1e-13, err


def test_scan_is_bit_identical_to_expression_form():
    """The in-place scan keeps every operation and its order, so values and
    tangents, and the values ``evaluate`` returns, equal the expression
    form's bit for bit: on seeded products of degree <= 6 with random
    unimodular factors, at a 0-d point, on a polar grid and with zeros at
    the origin."""
    rng = np.random.default_rng(2026)
    grid = PolarGrid(n_r=16, n_theta=32).nodes
    cases = []
    for _ in range(20):
        d = int(rng.integers(0, 7))
        zeros = 0.9 * np.sqrt(rng.random(d)) * np.exp(2j * np.pi * rng.random(d))
        B = FiniteBlaschke(tuple(zeros), eta=np.exp(2j * np.pi * rng.random()))
        z = 0.99 * np.sqrt(rng.random(50)) * np.exp(2j * np.pi * rng.random(50))
        cases.append((B, z))
    B = FiniteBlaschke((0j, 0j, 0.3 - 0.4j, -0.6j), eta=np.exp(1.1j))
    cases += [(B, 0.2 + 0.1j), (B, grid), (FiniteBlaschke((0j,) * 3), grid)]
    for B, z in cases:
        want, want_slope = scan_reference(B, z)
        got, slope = blaschke._scan(B, z)
        assert got.shape == slope.shape == np.shape(z)
        assert np.array_equal(got, want) and np.array_equal(slope, want_slope)
        assert np.array_equal(evaluate(B, z), want)


def test_evaluate_rejects_reflected_pole():
    B = FiniteBlaschke(zeros=(0.5 + 0j,), eta=1.0)
    with pytest.raises(NumericalError):
        evaluate(B, 2.0 + 0j)  # 1/conj(0.5)


def reflect_check(B, z):
    """Evaluate ``B`` at ``z`` and verify ``B(z) = 1 / conj(B(1/conj(z)))``.

    Works at any point where neither side hits a pole; deviation beyond
    1e-10 (relative to the value size) raises.
    """
    z = complex(z)
    if z == 0:
        raise InputError("reflection check needs z != 0")
    lhs = evaluate(B, z)
    inner = evaluate(B, 1.0 / np.conj(z))
    if abs(inner) < POLE_TOL:
        raise NumericalError("reflected point lands on a zero")
    rhs = 1.0 / np.conj(inner)
    if abs(lhs - rhs) > 1e-10 * max(1.0, abs(lhs), abs(rhs)):
        raise NumericalError("reflection identity violated")
    return lhs


def test_reflection_identity_holds():
    B = FiniteBlaschke(zeros=(0.4 + 0.1j, -0.3j, 0j), eta=1j)
    reflect_check(B, 1.7 - 0.4j)
    with pytest.raises(InputError):
        reflect_check(B, 0.0)


def test_derivative_at_origin_order_monomial():
    for m in range(0, 5):
        B = FiniteBlaschke(zeros=(0j,) * (m + 1), eta=1.0)
        assert derivative_at_origin_order(B, m) == pytest.approx(
            math.factorial(m + 1), abs=1e-12)
    with pytest.raises(InputError):
        derivative_at_origin_order(B, 0)


def test_origin_coefficient_against_taylor_series():
    """B = 1j z^2 (z - a)/(1 - conj(a) z) = -1j a z^2 + O(z^3): the z^2
    coefficient is g(0) = -1j a, complex; the z^1 coefficient is 0 (a zero
    of higher order), and the z^3 one is not g(0), so it raises."""
    a = 0.3 - 0.4j
    B = FiniteBlaschke(zeros=(0j, a, 0j), eta=1j)
    assert blaschke._origin_coefficient(B, 1) == -1j * a
    assert derivative_at_origin_order(B, 1) == 2 * (-1j * a).real
    assert blaschke._origin_coefficient(B, 0) == 0
    with pytest.raises(InputError):
        blaschke._origin_coefficient(B, 2)
    with pytest.raises(InputError):
        derivative_at_origin_order(B, 0)


# ----------------------------------------------------------------------
# critical numerator, the reference for the solver's condition assembly

def test_critical_numerator_degree_and_reflection_symmetry():
    zeros = (0j, 0.6 + 0j, -0.2 + 0.3j)
    q = critical_numerator_coeffs(zeros)
    assert len(q) == 2 * len(zeros) - 1  # degree 2d - 2
    roots = np.roots(q)
    # root multiset is closed under z -> 1/conj(z)
    reflected = 1.0 / np.conj(roots)
    for r in roots:
        assert np.min(np.abs(reflected - r)) < 1e-8


def _mp_critical_numerator(zeros):
    """Coefficients of sum_k w_k prod_{j != k} P_j to 50 digits, each
    leave-one-out product expanded on its own."""
    with mpmath.workdps(50):
        a = [mpmath.mpc(x) for x in zeros]
        quads = [[-mpmath.conj(x), 1 + abs(x) ** 2, -x] for x in a]
        total = [mpmath.mpc(0)] * (2 * len(a) - 1)
        for k in range(len(a)):
            term = [1 - abs(a[k]) ** 2]
            for q in quads[:k] + quads[k + 1:]:
                prod = [mpmath.mpc(0)] * (len(term) + 2)
                for i, x in enumerate(term):
                    for j, y in enumerate(q):
                        prod[i + j] += x * y
                term = prod
            total = [x + y for x, y in zip(total, term)]
        return np.array([complex(x) for x in total])


@pytest.mark.parametrize("d", range(1, 13))
def test_critical_numerator_matches_mpmath(d):
    """Random zeros with the first d // 3 at the origin and the last one
    repeated."""
    rng = np.random.default_rng(2000 + d)
    zeros = 0.95 * np.sqrt(rng.random(d)) * np.exp(2j * np.pi * rng.random(d))
    zeros[: d // 3] = 0.0
    if d > 1:
        zeros[-1] = zeros[-2]
    want = _mp_critical_numerator(zeros)
    err = np.max(np.abs(critical_numerator_coeffs(zeros) - want))
    assert err <= 1e-13 * np.max(np.abs(want)), err


# ----------------------------------------------------------------------
# antiderivatives and critical points

def test_antiderivative_has_the_prescribed_derivative():
    poly = [1.5 - 0.5j, 0.2, -1j]
    points = [0.3 + 0.1j, 0.3 + 0.1j, -0.5, 0j]
    F = antiderivative(poly, points)
    assert np.polyval(F, 0.0) == 0.0
    z = np.array([0.4 - 0.2j, -0.7j, 0.9, 0.3 + 0.1j])
    want = np.polyval(poly, z) * np.prod(z[:, None] - points, axis=1)
    got = np.polyval(np.polyder(F), z)
    assert got == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
def test_degree_two_critical_point_closed_form(a):
    B = FiniteBlaschke(zeros=(0j, complex(a)), eta=1.0)
    crit = critical_points(B)
    assert len(crit.entries) == 1
    p, mult = crit.entries[0]
    assert mult == 1
    assert p == pytest.approx(in_disk_critical_point(a), abs=1e-12)


@pytest.mark.parametrize("points, multiplicities", [
    ([0.3, 0.30003, 0.6], [1, 1, 1]),
    ([0.3, 0.3, 0.6], [2, 1]),
    ([0.3, 0.3, 0.3, 0.6], [3, 1]),
])
def test_cluster_roots_splits_only_separate_roots(points, multiplicities):
    """Solve and recover: points 3e-5 apart stay two simple points, too far
    apart for a double point split by the solve's error; a multiple point
    comes back as one."""
    C = CriticalSet.from_points(points)
    crit = critical_points(solve_maximal(C).solution)
    got = sorted(crit.entries, key=lambda e: e[0].real)
    assert [k for _, k in got] == multiplicities
    expected = sorted(set(points))
    assert max(abs(p - q) for (p, _), q in zip(got, expected)) <= 1e-10


def test_cluster_roots_leaves_the_merge_to_critical_set():
    """A group too wide for a triple root comes back as simple roots, even
    the two of them within MERGE_TOL; CriticalSet merges those two."""
    roots = np.array([0.01, 0.01 + 5e-9, 0.01006], dtype=complex)
    points, orders = blaschke._group(roots, np.array([0.6, 1 / 0.6, 0j]),
                                     np.array([1.0, -1.0, 1.0]))
    assert points.tolist() == roots.tolist() and orders.tolist() == [1] * 3
    assert CriticalSet(tuple(zip(points, orders))).entries == (
        (0.01 + 0j, 2), (0.01006 + 0j, 1)
    )


def test_monomial_critical_points_collapse():
    B = FiniteBlaschke(zeros=(0j, 0j, 0j), eta=1.0)
    assert critical_points(B).entries == ((0j, 2),)


def test_identity_has_no_critical_points():
    B = FiniteBlaschke(zeros=(0j,), eta=1.0)
    assert critical_points(B).entries == ()


# ----------------------------------------------------------------------
# composition

def test_compose_degree_multiplies():
    B = FiniteBlaschke(zeros=(0j, 0.5 + 0j), eta=1.0)
    C = FiniteBlaschke(zeros=(0j, 0j), eta=1.0)
    A = compose(B, C)
    assert A.degree == 4
    z = np.array([0.3 - 0.2j, 0.1j, -0.55])
    assert evaluate(A, z) == pytest.approx(
        evaluate(B, evaluate(C, z)), abs=1e-12)


def test_compose_with_constant_factor():
    """A constant inner factor C gives the constant B(eta_C); a constant
    outer factor B gives eta_B."""
    B = FiniteBlaschke(zeros=(0.5 + 0j, -0.2j), eta=1j)
    K = FiniteBlaschke(zeros=(), eta=np.exp(0.3j))
    inner = compose(B, K)
    assert inner.degree == 0
    assert inner.eta == pytest.approx(evaluate(B, K.eta), abs=1e-15)
    outer = compose(K, B)
    assert outer.degree == 0
    assert outer.eta == pytest.approx(K.eta, abs=1e-15)


def test_compose_chain_rule_adds_critical_points():
    # crit(B o C) = crit(C) + preimages under C of crit(B)
    B = FiniteBlaschke(zeros=(0j, 0.5 + 0j), eta=1.0)
    C = FiniteBlaschke(zeros=(0j, 0j), eta=1.0)
    crit = critical_points(compose(B, C))
    assert crit.total == 3
    assert crit.origin_multiplicity == 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_compose_power_of_z_is_exact(k, corpus_solves):
    """z^k o C is C^k: the zeros of the outer factor at 0 give C's own zeros
    exactly, and the factor eta_C^k comes from one boundary value."""
    double = FiniteBlaschke(zeros=(0.3 + 0.2j, 0.3 + 0.2j, -0.5j, 0j),
                            eta=np.exp(0.7j))
    outer = FiniteBlaschke(zeros=(0j,) * k)
    for C in [rep.solution for rep, _ in corpus_solves] + [double]:
        got = compose(outer, C)
        want = FiniteBlaschke(zeros=C.zeros * k, eta=C.eta ** k)
        assert got.zeros == want.zeros
        assert abs(got.eta - want.eta) <= 1e-15


@pytest.mark.filterwarnings("error")
def test_compose_at_a_critical_value_is_exact():
    """C(z) = (z^2 - 1/4)/(1 - z^2/4) takes its critical value -1/4 at the
    double preimage 0, where C' = 0 exactly, and B(w) = (w + 1/4)/(1 + w/4)
    makes B o C = z^2."""
    B = FiniteBlaschke(zeros=(-0.25 + 0j,))
    C = FiniteBlaschke(zeros=(0.5 + 0j, -0.5 + 0j))
    got = compose(B, C)
    assert got.zeros == (0j, 0j)
    assert abs(got.eta - 1.0) <= 1e-15


@pytest.mark.parametrize("j", [0, 4, 19, 23, 31, 32, 33, 36, 40, 42, 46])
def test_compose_small_composites(j, corpus_solves):
    """Corpus set 5's product has the zeros {0, 0, 0}; composed with these
    corpus products it is small at any fixed probe point, which a fitted
    unimodular factor could not use."""
    B, C = corpus_solves[5][0].solution, corpus_solves[j][0].solution
    assert B.zeros == (0j, 0j, 0j)
    A = compose(B, C)
    assert A.degree == 3 * C.degree
    z = np.array([0.3 - 0.2j, 0.1j, -0.55, 0.8 * np.exp(2j)])
    assert evaluate(A, z) == pytest.approx(evaluate(B, evaluate(C, z)),
                                           abs=1e-12)


def _double_point_composite(seed):
    """``outer o F`` with every ``F``-preimage of ``a`` an exact double
    critical point, and those preimages from an independent polynomial.

    ``outer`` has the zeros ``(a - r)/(1 - conj(a) r)`` over the cube roots
    ``r`` of ``w0``, so it is a Moebius map of ``((a - z)/(1 - conj(a) z))^3``
    and its two critical points are both at ``a``.  The preimages are the
    roots of ``eta_F prod (z - f) - a prod (1 - conj(f) z)``.
    """
    rng = np.random.default_rng(seed)
    a = 0.5 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
    w0 = 0.5 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
    r = w0 ** (1 / 3) * np.exp(2j * np.pi * np.arange(3) / 3)
    outer = FiniteBlaschke(zeros=tuple((a - r) / (1 - np.conj(a) * r)))
    n = int(rng.integers(2, 5))
    f = np.append(
        0.7 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n)), 0
    )
    F = FiniteBlaschke(zeros=tuple(f), eta=np.exp(2j * np.pi * rng.random()))
    reflected = np.ones(1, dtype=complex)
    for c in f:
        reflected = np.convolve(reflected, [-np.conj(c), 1.0])
    num = F.eta * np.poly(f) - a * reflected
    return compose(outer, F), np.roots(num)


@pytest.mark.parametrize("seed", range(60))
def test_double_critical_points_of_composites_are_exact(seed):
    """Each F-preimage of the outer factor's double critical point comes
    back as one double point, to near rounding, not to the square root of
    the composite zeros' error."""
    composite, preimages = _double_point_composite(seed)
    doubles = [p for p, k in critical_points(composite).entries if k == 2]
    assert len(doubles) == len(preimages)
    for z in preimages:
        assert min(abs(p - z) for p in doubles) <= 1e-12


def _disk_points(rng, n, radius):
    """``n`` points ``radius * sqrt(U) * exp(2 pi i V)``, uniform in area."""
    return radius * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


@pytest.mark.parametrize("seed", range(100))
def test_critical_points_of_compositions(seed):
    """A degree-7 product composed with a degree-3 one, zeros up to radius
    0.85 and none at the origin: the companion roots of the expanded
    numerator raised on 17 of these seeds."""
    rng = np.random.default_rng(seed)
    A = FiniteBlaschke(zeros=tuple(_disk_points(rng, 7, 0.85)))
    B = FiniteBlaschke(zeros=tuple(_disk_points(rng, 3, 0.85)))
    assert critical_points(compose(A, B)).total == 20


@pytest.mark.parametrize("seed", range(20))
def test_exact_quadruple_critical_point(seed):
    """The zeros ``(a - r_j)/(1 - conj(a) r_j)`` over the fifth roots
    ``r_j`` of ``w0`` make a Moebius image of ``T_a(z)^5`` with ``T_a`` the
    involution swapping ``a`` and 0, so ``a`` is its one, 4-fold, critical
    point.  The eigen-solve splits it by about 1e-4."""
    rng = np.random.default_rng(seed)
    a, w0 = _disk_points(rng, 1, 0.7)[0], _disk_points(rng, 1, 0.7)[0]
    r = w0 ** 0.2 * np.exp(2j * np.pi * np.arange(5) / 5)
    B = FiniteBlaschke(zeros=tuple((a - r) / (1 - np.conj(a) * r)))
    (point, mult), = critical_points(B).entries
    assert mult == 4
    assert abs(point - a) <= 1e-10


def _mp_newton_on_log_derivative(B, z, steps=5):
    """``steps`` Newton steps on B'/B from ``z``, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        poles = [mpmath.mpc(a) for a in B.zeros]
        signs = [1] * len(poles)
        for a in list(poles):
            if a != 0:
                poles.append(1 / mpmath.conj(a))
                signs.append(-1)
        w = mpmath.mpc(z)
        for _ in range(steps):
            r = [1 / (w - p) for p in poles]
            w += (mpmath.fsum(s * x for s, x in zip(signs, r))
                  / mpmath.fsum(s * x * x for s, x in zip(signs, r)))
        return complex(w)


@pytest.mark.parametrize("d", [33, 49])
def test_large_degree_critical_points_match_mpmath(d):
    """A random product with one zero at the origin and the others up to
    radius 0.9: each returned point is within 1e-12 of the root of B'/B
    that 50-digit Newton reaches from it, and the d - 1 roots are
    distinct."""
    rng = np.random.default_rng(1)
    B = FiniteBlaschke(zeros=tuple(np.append(_disk_points(rng, d - 1, 0.9),
                                             0)))
    crit = critical_points(B)
    assert [k for _, k in crit.entries] == [1] * (d - 1)
    limits = []
    for p, _ in crit.entries:
        limits.append(_mp_newton_on_log_derivative(B, p))
        assert abs(limits[-1] - p) <= 1e-12
    gaps = np.abs(np.subtract.outer(limits, limits)) + np.eye(d - 1)
    assert gaps.min() > 1e-6
