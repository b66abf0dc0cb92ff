import math
import signal
from contextlib import contextmanager

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import critical_numerator_coeffs
from maxblaschke import solver
from maxblaschke.blaschke import (
    CriticalSet,
    FiniteBlaschke,
    compose,
    critical_points,
    evaluate,
)
from maxblaschke.disk import RiemannMapSpec
from maxblaschke.errors import InputError, NumericalError
from maxblaschke.solver import (
    HomotopyConfig,
    _Conditions,
    _NumeratorConditions,
    _jet_mul,
    solve_maximal,
    transplant,
    truncation_sequence,
)
from maxblaschke.verify import _resolve_and_match

# Two-point symmetric anchor: for C = {b', -b'} the solution has zeros
# {0, b, -b}; the in-disk critical points of z(z^2 - b^2)/(1 - b^2 z^2) are
# +-c(b), and bisection on c(b) = 0.5 (independent of the homotopy solver)
# froze the following values.  The functional equals b^2 exactly.
TWO_POINT_ZERO = 0.7851522304194716
TWO_POINT_FUNCTIONAL = 0.6164640249326709


def test_empty_set_gives_identity():
    rep = solve_maximal(CriticalSet())
    assert rep.solution.zeros == (0j,)
    assert rep.functional_value == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7])
def test_one_point_closed_form(p):
    a = 2 * p / (1 + p * p)
    rep = solve_maximal(CriticalSet.from_points([p]))
    zs = sorted(rep.solution.zeros, key=abs)
    assert zs[0] == pytest.approx(0.0, abs=1e-12)
    assert zs[1] == pytest.approx(a, abs=1e-10)
    assert rep.functional_value == pytest.approx(a, abs=1e-10)
    assert rep.solution.eta == pytest.approx(-1.0, abs=1e-12)


def test_two_point_symmetric_frozen_values():
    rep = solve_maximal(CriticalSet.from_points([0.5, -0.5]))
    zs = sorted(rep.solution.zeros, key=lambda z: z.real)
    assert zs[1] == pytest.approx(0.0, abs=1e-12)
    assert zs[2] == pytest.approx(TWO_POINT_ZERO, abs=1e-10)
    assert zs[0] == pytest.approx(-TWO_POINT_ZERO, abs=1e-10)
    assert rep.functional_value == pytest.approx(TWO_POINT_FUNCTIONAL, abs=1e-10)
    assert rep.functional_value == pytest.approx(TWO_POINT_ZERO**2, abs=1e-10)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_collapsed_multiplicity_gives_monomial(m):
    rep = solve_maximal(CriticalSet(((0j, m),)))
    assert rep.solution.zeros == (0j,) * (m + 1)
    assert rep.functional_value == pytest.approx(math.factorial(m + 1), abs=1e-9)


def test_solution_is_normalized():
    """B(0) = 0 and the (N+1)-st derivative at 0 is real positive."""
    rep = solve_maximal(CriticalSet.from_points([0.3 + 0.2j, -0.1j]))
    assert 0j in rep.solution.zeros
    assert rep.functional_value > 0
    assert rep.roundtrip_error <= 1e-8


def test_input_order_does_not_matter():
    pts = [0.3, -0.2 + 0.4j, 0.1 - 0.5j]
    a = solve_maximal(CriticalSet.from_points(pts))
    b = solve_maximal(CriticalSet.from_points(pts[::-1]))
    assert a.solution.zeros == b.solution.zeros
    assert a.solution.eta == b.solution.eta


@given(st.floats(min_value=0.0, max_value=2 * np.pi))
@settings(max_examples=10, deadline=None)
def test_rotation_equivariance(theta):
    """Solving the rotated set matches rotating the argument, up to the
    normalization: |B_{wC}(z)| = |B_C(conj(w) z)|."""
    w = np.exp(1j * theta)
    C = CriticalSet.from_points([0.4, -0.3 + 0.25j])
    base = solve_maximal(C).solution
    rotated = solve_maximal(
        CriticalSet.from_points([w * 0.4, w * (-0.3 + 0.25j)])
    ).solution
    z = 0.55 * np.exp(2j * np.pi * np.arange(9) / 9)
    assert np.abs(evaluate(rotated, z)) == pytest.approx(
        np.abs(evaluate(base, np.conj(w) * z)), abs=1e-9)


def test_double_point_round_trip():
    C = CriticalSet(((0.35 - 0.15j, 2), (0.2j, 1)))
    rep = solve_maximal(C)
    assert critical_points(rep.solution).match(C) <= 1e-8


def test_tight_tolerance_is_honored():
    cfg = HomotopyConfig(newton_tol=1e-13)
    rep = solve_maximal(CriticalSet.from_points([0.5]), cfg)
    assert rep.residual_norm <= 1e-13


def test_roundtrip_tolerance_is_enforced():
    cfg = HomotopyConfig(roundtrip_tol=1e-300)
    with pytest.raises(NumericalError, match="round trip off by"):
        solve_maximal(CriticalSet.from_points([0.3, -0.2j, 0.5]), cfg)


@pytest.mark.parametrize("field", ["newton_tol", "roundtrip_tol"])
@pytest.mark.parametrize(
    "value", [0.0, -1e-8, math.nan, math.inf, "1e-8", True]
)
def test_config_rejects_tolerance_that_is_not_positive_finite(field, value):
    """A NaN round-trip tolerance would switch the round-trip check off, and
    a NaN or nonpositive Newton tolerance would end in a breakdown."""
    with pytest.raises(InputError, match=field):
        HomotopyConfig(**{field: value})


def test_trace_reaches_t_one():
    rep = solve_maximal(CriticalSet.from_points([0.4 + 0.3j]))
    assert rep.homotopy_trace[-1][0] == 1.0


def _sweep_set(m, seed):
    """The m-point set of the solve-time sweep, drawn as bench/sweep.py
    draws it."""
    rng = np.random.default_rng([seed, m])
    points = rng.uniform(0.15, 0.7, m) * np.exp(2j * np.pi * rng.random(m))
    return CriticalSet.from_points(points)


@contextmanager
def _alarm(seconds):
    """Raise TimeoutError in the block once ``seconds`` have passed."""
    def hung(signum, frame):
        raise TimeoutError(f"solve_maximal did not end within {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_sixteen_points_end_in_bounded_work():
    """The m = 16 sets of the solve-time sweep (seeds 1-3) once livelocked
    with the path step shrinking towards zero, and later broke down just
    after t = 0.25; the path now reaches t = 1 and verifies on each."""
    for seed in (1, 2, 3):
        C = _sweep_set(16, seed)
        with _alarm(60):
            rep = solve_maximal(C)
        assert rep.homotopy_trace[-1][0] == 1.0
        assert critical_points(rep.solution).match(C) <= 1e-8


def _sweep_set_verifies(m, seed):
    C = _sweep_set(m, seed)
    with _alarm(60):
        rep = solve_maximal(C)
    assert critical_points(rep.solution).match(C) <= 1e-8


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_twenty_four_points_verify(seed):
    """Seeds 1 and 3 need the endpoint polish, which makes the product's
    accuracy independent of the path; without it they end about 1e-6 off
    and fail the round trip."""
    _sweep_set_verifies(24, seed)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_thirty_two_points_verify(seed):
    """Seeds 2 and 3 failed the round trip (2.4e-5 and 3.3e-8) while the
    critical points came from the companion roots of the expanded critical
    numerator."""
    _sweep_set_verifies(32, seed)


def test_corpus_round_trips_within_1e_12(corpus_solves):
    worst = max(rep.roundtrip_error for rep, _ in corpus_solves)
    assert worst <= 1e-12


def test_corpus_path_work_is_bounded(corpus_solves):
    """Most corpus sets converge in one step from the collapsed tangent at
    t = 1; with every step capped at 1/32 the corpus took 1476 path steps
    and 4077 Newton iterations."""
    traces = [rep.homotopy_trace for rep, _ in corpus_solves]
    assert sum(len(trace) for trace in traces) <= 150
    assert sum(iters for trace in traces for _, _, iters in trace) <= 600


def test_breakdown_after_fourteen_attempts(monkeypatch):
    """A correction that always fails is tried at dt = 1, 1/2, ...,
    2**-13 = _MIN_STEP, once on the sum rows and once on Q's, and then the
    solve raises; only the first attempt ends at t = 1 and asks for the
    endpoint polish."""
    attempts = []

    def failing(free, conditions, cfg, polish=False):
        attempts.append(polish)
        raise NumericalError("Newton did not converge")

    monkeypatch.setattr(solver, "_newton", failing)
    with pytest.raises(NumericalError, match="homotopy breakdown"):
        solve_maximal(CriticalSet.from_points([0.3, -0.2j]))
    assert attempts == [True, True] + [False, False] * 13


@pytest.mark.parametrize("m", [48, 64])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_forty_eight_and_sixty_four_points_verify(m, seed):
    """With Newton's stop test absolute in every row, rows whose terms are
    small passed it long before their root was resolved, and the round
    trip refused all six sets (5.3e-3 and 6.4e-3 for seed 1)."""
    C = _sweep_set(m, seed)
    with _alarm(2):
        rep = solve_maximal(C)
    assert rep.roundtrip_error <= 1e-12


def test_sixty_four_point_product_against_mpmath():
    """At 50 digits, each Taylor row 0..k-1 of B'/B at each prescribed
    point vanishes to 1e-13 of the sum of the moduli of its terms; with the
    absolute stop test the m = 64 sweep products were 0.24 to 0.32 off, and
    the round trip refused them."""
    C = _sweep_set(64, 1)
    zeros = solve_maximal(C).solution.zeros
    worst = 0.0
    with mpmath.workdps(50):
        poles = [(mpmath.mpc(a), 1) for a in zeros]
        poles += [(1 / mpmath.conj(p), -1) for p, _ in poles if p != 0]
        for c, k in C.entries:
            for j in range(k):
                terms = [s / (mpmath.mpc(c) - p) ** (j + 1) for p, s in poles]
                ratio = abs(mpmath.fsum(terms)) / mpmath.fsum(map(abs, terms))
                worst = max(worst, float(ratio))
    assert worst <= 1e-13


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", [96, 128])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_beyond_sixty_four_points_verify_or_raise_without_warning(m, seed):
    """At small t the residual rows' bound underflows for these sets; it
    must end the correction, not divide by zero."""
    C = _sweep_set(m, seed)
    with _alarm(2):
        try:
            rep = solve_maximal(C)
        except NumericalError:
            return
    assert critical_points(rep.solution).match(C) <= 1e-8


def test_snap_keeps_only_collisions_the_residual_accepts():
    """B^2 has a double zero at each free zero b of B, a simple critical
    point.  Two free zeros split 1e-6 about b snap onto it; onto a target
    3e-7 off b, the rows of the other targets refuse the snap."""
    B = solve_maximal(CriticalSet.from_points([0.3, -0.4j])).solution
    b = [a for a in B.zeros if a != 0]
    entries = [(a, 1) for a in b] + [(0.3, 1), (-0.4j, 1)]
    cfg = HomotopyConfig()
    split = np.array([b[0] + 5e-7, b[0] - 5e-7, b[1], b[1]])
    snapped = solver._snap(split, 2, entries, cfg)
    assert snapped.tolist() == [b[0], b[0], b[1], b[1]]
    moved = [(b[0] + 3e-7, 1)] + entries[1:]
    assert solver._snap(split, 2, moved, cfg) is split


@pytest.mark.parametrize("m", [24, 32, 48, 64])
def test_large_sweep_sets_end_verified_or_typed(m):
    """Seed 1 beyond m = 16: a verified product or a NumericalError, within
    the alarm."""
    C = _sweep_set(m, 1)
    with _alarm(60):
        try:
            rep = solve_maximal(C)
        except NumericalError:
            return
    assert critical_points(rep.solution).match(C) <= 1e-8


@pytest.mark.parametrize("points, calls", [
    ([0.4 + 0.3j, -0.2 + 0.5j, 0.35, 0.1 - 0.6j], 1),
    ([0j, 0.3 - 0.4j], 1),
    ([0j, 0j, 0j], 0),
    ([], 0),
])
def test_collapsed_predictor_runs_once_per_solve(monkeypatch, points, calls):
    """The collapsed tangent is computed once on the unscaled targets, and
    not at all when no zero is free."""
    seen = []

    def counted(*args):
        seen.append(args)
        return collapsed(*args)

    collapsed = solver._collapsed_predictor
    monkeypatch.setattr(solver, "_collapsed_predictor", counted)
    C = CriticalSet.from_points(points)
    solve_maximal(C)
    assert len(seen) == calls
    assert all(list(args[1]) == list(C.nonzero_entries()) for args in seen)


# ----------------------------------------------------------------------
# the rows of Q, the fallback where zeros meet a target, checked against
# the expanded critical numerator and against central differences

def _taylor_rows(zeros, targets):
    """Taylor coefficients 0..k-1 of the critical numerator at each target."""
    q = critical_numerator_coeffs(zeros)
    return np.array([np.polyval(np.polyder(q, j), c) / math.factorial(j)
                     for c, k in targets for j in range(k)])


ASSEMBLY_CASES = [
    # (origin zeros, free zeros, targets): multiplicities 1 to 3
    (1, [0.5 + 0.2j, -0.3 + 0.6j, 0.1 - 0.7j, -0.45j, 0.62],
     [(0.3 + 0.1j, 1), (-0.2 + 0.4j, 2), (0.1 - 0.5j, 3)]),
    (3, [0.35 - 0.55j, -0.6 + 0.1j, 0.2 + 0.3j],
     [(-0.15 - 0.25j, 3), (0.4j, 1)]),
    # a composite z^2 o B: every zero of B is doubled, so a free zero sits
    # exactly on a prescribed critical point
    (2, [0.4 + 0.2j, 0.4 + 0.2j, -0.3j, -0.3j],
     [(0.4 + 0.2j, 1), (-0.3j, 1), (0.25, 2)]),
]


def _assemble(free, n_origin, targets):
    """Residual and Wirtinger blocks from one forward scan and its reuse."""
    conditions = _NumeratorConditions(n_origin, targets)
    R, scan = conditions.scan(free)
    return (R,) + conditions.jacobian(scan)


@pytest.mark.parametrize("n_origin, free, targets", ASSEMBLY_CASES)
def test_assembly_matches_expanded_numerator(n_origin, free, targets):
    free = np.array(free, dtype=complex)

    def rows(f):
        return _taylor_rows([0j] * n_origin + list(f), targets)

    R, A, Bm = _assemble(free, n_origin, targets)
    assert np.allclose(R, rows(free), rtol=1e-12, atol=1e-14)

    h = 1e-6
    for l in range(len(free)):
        e = np.zeros(len(free), dtype=complex)
        e[l] = h
        dx = (rows(free + e) - rows(free - e)) / (2 * h)
        dy = (rows(free + 1j * e) - rows(free - 1j * e)) / (2 * h)
        assert np.allclose(A[:, l], (dx - 1j * dy) / 2, rtol=0, atol=1e-8)
        assert np.allclose(Bm[:, l], (dx + 1j * dy) / 2, rtol=0, atol=1e-8)


def _jets(coeffs, length):
    """Stack broadcast coefficient arrays as jets, truncated or zero-padded."""
    shape = np.broadcast_shapes(*map(np.shape, coeffs))
    out = np.zeros(shape + (length,), dtype=complex)
    for i, ci in enumerate(coeffs[:length]):
        out[..., i] = ci
    return out


def _reference_assemble(free, n_origin, targets, jacobian=True):
    """The assembly as one function, with separate product and sum scans,
    rebuilding the targets and rescanning the origin zeros on every call.
    The solver must reproduce it bit for bit."""
    c = np.array([t for t, _ in targets], dtype=complex)
    ks = np.array([k for _, k in targets])
    rows_t = np.repeat(np.arange(len(ks)), ks)
    rows_j = np.concatenate([np.arange(k) for k in ks])
    K1 = int(ks.max())
    a = np.concatenate([np.zeros(n_origin, dtype=complex), free])[:, None]
    ac = np.conj(a)
    w = (1.0 - np.abs(a) ** 2)[..., None]
    P = _jets([(c - a) * (1 - ac * c), 1 - 2 * ac * c + np.abs(a) ** 2, -ac],
              K1)
    d = len(a)
    pre_p = np.empty((d + 1, len(c), K1), dtype=complex)
    pre_s = np.empty_like(pre_p)
    pre_p[0], pre_s[0] = _jets([np.ones_like(c)], K1), 0.0
    for l in range(d):
        pre_s[l + 1] = _jet_mul(pre_s[l], P[l]) + w[l] * pre_p[l]
        pre_p[l + 1] = _jet_mul(pre_p[l], P[l])
    R = pre_s[d][rows_t, rows_j]
    if not jacobian:
        return R
    suf_p = np.empty_like(pre_p)
    suf_s = np.empty_like(pre_p)
    suf_p[d], suf_s[d] = pre_p[0], 0.0
    for l in range(d - 1, n_origin, -1):
        suf_s[l] = _jet_mul(P[l], suf_s[l + 1]) + w[l] * suf_p[l + 1]
        suf_p[l] = _jet_mul(P[l], suf_p[l + 1])
    pp, ps = pre_p[n_origin:d], pre_s[n_origin:d]
    sp, ss = suf_p[n_origin + 1:], suf_s[n_origin + 1:]
    u = _jet_mul(pp, sp)
    S = _jet_mul(ps, sp) + _jet_mul(pp, ss)
    b, bc = a[n_origin:], ac[n_origin:]
    lin = _jets([1 - bc * c, -bc], K1)
    quad = _jets([(c - b) * c, 2 * c - b, 1.0], K1)
    dq = -bc[..., None] * u - _jet_mul(lin, S)
    dqbar = -b[..., None] * u - _jet_mul(quad, S)
    return R, dq[:, rows_t, rows_j].T, dqbar[:, rows_t, rows_j].T


def _seeded_states(count, seed=14):
    """(n_origin, free, targets): 1-3 origin zeros, 1-8 free zeros, 1-5
    targets of multiplicity 1-3."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_free = int(rng.integers(1, 9))
        free = rng.uniform(0, 0.9, n_free) * np.exp(
            2j * np.pi * rng.random(n_free))
        targets = [(complex(rng.uniform(0, 0.8)
                            * np.exp(2j * np.pi * rng.random())),
                    int(rng.integers(1, 4)))
                   for _ in range(int(rng.integers(1, 6)))]
        yield int(rng.integers(1, 4)), free, targets


def _assert_equals_reference(n_origin, free, targets):
    free = np.array(free, dtype=complex)
    R0, A0, Bm0 = _reference_assemble(free, n_origin, targets)
    R, A, Bm = _assemble(free, n_origin, targets)
    assert np.array_equal(R, R0)
    assert np.array_equal(A, A0)
    assert np.array_equal(Bm, Bm0)


@pytest.mark.parametrize("n_origin, free, targets", ASSEMBLY_CASES)
def test_assembly_equals_reference_bit_for_bit(n_origin, free, targets):
    """The factored scans change the numpy calls, not the arithmetic: every
    entry of R, A and Bm equals the reference's exactly."""
    _assert_equals_reference(n_origin, free, targets)


def test_assembly_equals_reference_on_seeded_states():
    for n_origin, free, targets in _seeded_states(200):
        _assert_equals_reference(n_origin, free, targets)


def test_assembly_equals_reference_with_one_free_zero_and_one_target():
    """One free zero against one target: the reference builds its factor
    jets over the origin zeros too, so its arrays are never of size 1; the
    scan's must round as those do."""
    rng = np.random.default_rng(15)
    for _ in range(200):
        free = [complex(rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.random()))]
        target = complex(rng.uniform(0, 0.8) * np.exp(2j * np.pi * rng.random()))
        _assert_equals_reference(int(rng.integers(1, 4)), free,
                                 [(target, int(rng.integers(1, 4)))])


def test_reused_scan_gives_the_fresh_blocks():
    """Newton keeps the scan of the accepted iterate across other trials;
    the Jacobian built from it equals one built from a fresh scan."""
    for n_origin, free, targets in _seeded_states(20, seed=7):
        conditions = _NumeratorConditions(n_origin, targets)
        R, kept = conditions.scan(free)
        conditions.scan(0.5 * free)  # a rejected damping trial
        A, Bm = conditions.jacobian(kept)
        R_fresh, fresh = _NumeratorConditions(n_origin, targets).scan(free)
        A_fresh, Bm_fresh = conditions.jacobian(fresh)
        assert np.array_equal(R, R_fresh)
        assert np.array_equal(A, A_fresh)
        assert np.array_equal(Bm, Bm_fresh)
        assert np.array_equal(conditions.jacobian(kept)[0], A)


# ----------------------------------------------------------------------
# the sum rows of B'/B, checked against 50-digit Taylor coefficients and
# against central differences

def _mp_log_derivative_rows(n_origin, free, targets):
    """Taylor coefficients 0..k-1 of B'/B at each target, at 50 digits:
    ``mpmath.taylor`` expands B itself, and B B'/B = B' is solved for the
    quotient's coefficients term by term."""
    with mpmath.workdps(50):
        zeros = [mpmath.mpc(0)] * n_origin + [mpmath.mpc(b) for b in free]

        def B(z):
            return mpmath.fprod((z - a) / (1 - mpmath.conj(a) * z)
                                for a in zeros)

        rows = []
        for c, k in targets:
            b = mpmath.taylor(B, mpmath.mpc(c), k)
            q = []
            for i in range(k):
                known = mpmath.fsum(b[j] * q[i - j] for j in range(1, i + 1))
                q.append(((i + 1) * b[i + 1] - known) / b[0])
            rows.extend(complex(x) for x in q)
    return np.array(rows)


def _mp_row_bounds(n_origin, free, targets):
    """Each row's sum of the moduli of its terms, at 50 digits, from the
    poles of B'/B: 0 of weight n_origin, each free zero b of weight 1 and
    1/conj(b) of weight -1."""
    with mpmath.workdps(50):
        poles = [(mpmath.mpc(0), n_origin)]
        poles += [(mpmath.mpc(b), 1) for b in free]
        poles += [(1 / mpmath.conj(b), 1) for b in free]
        return np.array([
            float(mpmath.fsum(s / abs(mpmath.mpc(c) - p) ** (i + 1)
                              for p, s in poles))
            for c, k in targets for i in range(k)])


# the assembly cases with no free zero on a target, where B'/B is finite
SUM_ROW_CASES = [case for case in ASSEMBLY_CASES
                 if not {t for t, _ in case[2]} & set(case[1])]


@pytest.mark.parametrize(
    "n_origin, free, targets",
    SUM_ROW_CASES + list(_seeded_states(10, seed=16)))
def test_sum_rows_match_mpmath_taylor_coefficients(n_origin, free, targets):
    """Every row is within 1e-15 of its bound of the 50-digit coefficient,
    and the bound is the 50-digit sum of the moduli of the terms."""
    free = np.array(free, dtype=complex)
    conditions = _Conditions(n_origin, targets)
    R, _ = conditions.scan(free)
    bound = conditions.bound(free)
    ref = _mp_log_derivative_rows(n_origin, free, targets)
    assert np.all(np.abs(R - ref) <= 1e-15 * bound)
    assert bound == pytest.approx(_mp_row_bounds(n_origin, free, targets),
                                  rel=1e-14)


@pytest.mark.parametrize("n_origin, free, targets", SUM_ROW_CASES)
def test_sum_row_blocks_match_central_differences(n_origin, free, targets):
    """``A`` and ``Bm`` are the Wirtinger derivatives of the rows; each row
    is measured against its bound, as Newton measures it."""
    free = np.array(free, dtype=complex)
    conditions = _Conditions(n_origin, targets)
    R, scan = conditions.scan(free)
    A, Bm = conditions.jacobian(scan)
    inv = 1.0 / conditions.bound(free)

    def rows(f):
        return conditions.scan(f)[0]

    h = 1e-6
    for l in range(len(free)):
        e = np.zeros(len(free), dtype=complex)
        e[l] = h
        dx = (rows(free + e) - rows(free - e)) / (2 * h)
        dy = (rows(free + 1j * e) - rows(free - 1j * e)) / (2 * h)
        assert np.all(np.abs(A[:, l] - (dx - 1j * dy) / 2) * inv <= 1e-7)
        assert np.all(np.abs(Bm[:, l] - (dx + 1j * dy) / 2) * inv <= 1e-7)


@pytest.mark.filterwarnings("error")
def test_zero_on_a_target_raises_numerical_error():
    """In the composite case a free zero sits on a target, where B'/B has
    a pole: the sum rows end in the typed error that sends the path step
    to Q's rows, with no division warning."""
    n_origin, free, targets = ASSEMBLY_CASES[2]
    conditions = _Conditions(n_origin, targets)
    with pytest.raises(NumericalError, match="bound out of double range"):
        solver._newton(np.array(free, dtype=complex), conditions,
                       HomotopyConfig())


# ----------------------------------------------------------------------
# composites, where zeros meet a target and the path step falls back on
# Q's rows

def test_corpus_converges_on_sum_rows(monkeypatch, corpus):
    """No corpus set has zeros meeting a target: every correction runs on
    the sum rows and is accepted, so none falls back on Q's."""
    kinds = []
    newton = solver._newton

    def recorded(free, conditions, cfg, polish=False):
        kinds.append(type(conditions))
        return newton(free, conditions, cfg, polish)

    monkeypatch.setattr(solver, "_newton", recorded)
    steps = 0
    for C in corpus:
        rep = solve_maximal(C)
        if C.total > C.origin_multiplicity:  # a zero is free
            steps += len(rep.homotopy_trace)
    assert set(kinds) == {_Conditions}
    assert len(kinds) == steps


def _composite_cases(corpus_solves):
    """Corpus set 5's product, z^3, over every inner product with which
    its composite has degree <= 18; z^2 over 12 seeded inner products; and
    24 seeded pairs of corpus products of degree <= 18."""
    products = [rep.solution for rep, _ in corpus_solves]
    assert products[5].zeros == (0j, 0j, 0j)
    square = FiniteBlaschke(zeros=(0j, 0j), eta=1.0)
    rng = np.random.default_rng(36)
    pairs = [(B, F) for B in products for F in products
             if B.degree * F.degree <= 18]
    return ([(products[5], F) for F in products if 4 * F.degree <= 18]
            + [(square, products[i])
               for i in rng.choice(len(products), 12, replace=False)]
            + [pairs[i] for i in rng.choice(len(pairs), 24, replace=False)])


@pytest.mark.filterwarnings("error")
def test_corpus_composites_resolve(corpus_solves):
    """A composite of maximal products is maximal, so re-solving its
    critical set gives it back.  Where k + 1 free zeros meet a k-fold
    target, B'/B has a pole there: on the sum rows alone, 587 of the 812
    corpus composites of degree <= 18 re-solved, and 4 of the 50 of z^2
    over a corpus product."""
    for B, F in _composite_cases(corpus_solves):
        _, err = _resolve_and_match(compose(B, F), None)
        assert err <= 1e-8


# ----------------------------------------------------------------------
# truncation

def test_truncation_prefix_functionals():
    res = truncation_sequence([0.5], 1)
    assert res.functionals == pytest.approx([1.0, 0.8], abs=1e-10)
    assert len(res.sup_differences) == 1


def test_truncation_repeated_point_merges():
    res = truncation_sequence([0.5, -0.5], 2)
    assert res.functionals[2] == pytest.approx(TWO_POINT_FUNCTIONAL, abs=1e-10)
    assert all(b <= a + 1e-12 for a, b in
               zip(res.functionals, res.functionals[1:]))


def test_truncation_rejects_long_prefix():
    with pytest.raises(InputError):
        truncation_sequence([0.5], 2)
    with pytest.raises(InputError):
        truncation_sequence([0.5], -1)


@pytest.mark.parametrize("n_max", [1.5, 1.0, "1", None, True])
def test_truncation_rejects_non_integral_length(n_max):
    with pytest.raises(InputError, match="n_max"):
        truncation_sequence([0.5, -0.5], n_max)


# ----------------------------------------------------------------------
# transplantation

def test_transplant_identity_reduces_to_solve():
    res = transplant([0.5], RiemannMapSpec())
    direct = solve_maximal(CriticalSet.from_points([0.5]))
    assert res.report.solution.zeros == direct.solution.zeros
    assert res(0.3) == pytest.approx(evaluate(direct.solution, 0.3), abs=1e-14)


def test_transplant_scaled_disk_chain_rule():
    res = transplant([1.0], RiemannMapSpec(coeffs=(1.0, 0.0, 2.0)))
    assert res.derivative(0.0) == pytest.approx(0.4, abs=1e-10)
    pts = res.domain_critical_points()
    assert len(pts) == 1
    assert pts[0][0] == pytest.approx(1.0, abs=1e-8)


def test_transplant_empty_set_is_the_map_itself():
    res = transplant([], RiemannMapSpec(coeffs=(1.0, 0.0, 2.0)))
    z = np.array([0.4, -1.0 + 0.3j])
    assert res(z) == pytest.approx(z / 2.0, abs=1e-14)


def test_transplant_rejects_outside_domain_point():
    with pytest.raises(ValueError):
        transplant([2.5], RiemannMapSpec(coeffs=(1.0, 0.0, 2.0)))
