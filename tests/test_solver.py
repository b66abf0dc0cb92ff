import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxblaschke.blaschke import (
    CriticalSet,
    critical_numerator_coeffs,
    critical_points,
    evaluate,
)
from maxblaschke.disk import RiemannMapSpec
from maxblaschke.errors import InputError, NumericalError
from maxblaschke.solver import (
    HomotopyConfig,
    _assemble,
    solve_maximal,
    transplant,
    truncation_sequence,
)

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
    cfg = HomotopyConfig(roundtrip_tol=0.0)
    with pytest.raises(NumericalError, match="round trip off by"):
        solve_maximal(CriticalSet.from_points([0.3, -0.2j, 0.5]), cfg)


def test_trace_reaches_t_one():
    rep = solve_maximal(CriticalSet.from_points([0.4 + 0.3j]))
    assert rep.homotopy_trace[-1][0] == 1.0


def test_sixteen_points_end_in_bounded_work():
    """The m = 16 set of the solve-time sweep (seed 1) once livelocked with
    the path step shrinking towards zero; it must now end, either verified
    or with a typed error."""
    rng = np.random.default_rng([1, 16])
    points = rng.uniform(0.15, 0.7, 16) * np.exp(2j * np.pi * rng.random(16))
    C = CriticalSet.from_points(points)

    def hung(signum, frame):
        raise TimeoutError("solve_maximal did not end within 60 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        rep = solve_maximal(C)
    except NumericalError as exc:
        assert "homotopy breakdown" in str(exc)
    else:
        assert critical_points(rep.solution).match(C) <= 1e-8
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# condition assembly, checked against the expanded critical numerator and
# against central differences

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


@pytest.mark.parametrize("n_origin, free, targets", ASSEMBLY_CASES)
def test_assembly_matches_expanded_numerator(n_origin, free, targets):
    free = np.array(free, dtype=complex)

    def rows(f):
        return _taylor_rows([0j] * n_origin + list(f), targets)

    R, A, Bm = _assemble(free, n_origin, targets)
    assert np.allclose(R, rows(free), rtol=1e-12, atol=1e-14)
    assert np.array_equal(_assemble(free, n_origin, targets, jacobian=False), R)

    h = 1e-6
    for l in range(len(free)):
        e = np.zeros(len(free), dtype=complex)
        e[l] = h
        dx = (rows(free + e) - rows(free - e)) / (2 * h)
        dy = (rows(free + 1j * e) - rows(free - 1j * e)) / (2 * h)
        assert np.allclose(A[:, l], (dx - 1j * dy) / 2, rtol=0, atol=1e-8)
        assert np.allclose(Bm[:, l], (dx + 1j * dy) / 2, rtol=0, atol=1e-8)


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


# ----------------------------------------------------------------------
# transplantation

def test_transplant_identity_reduces_to_solve():
    res = transplant([0.5], RiemannMapSpec(kind="identity"))
    direct = solve_maximal(CriticalSet.from_points([0.5]))
    assert res.report.solution.zeros == direct.solution.zeros
    assert res(0.3) == pytest.approx(evaluate(direct.solution, 0.3), abs=1e-14)


def test_transplant_scaled_disk_chain_rule():
    res = transplant([1.0], RiemannMapSpec(kind="scaled_disk", radius=2.0))
    assert res.derivative(0.0) == pytest.approx(0.4, abs=1e-10)
    pts = res.domain_critical_points()
    assert len(pts) == 1
    assert pts[0][0] == pytest.approx(1.0, abs=1e-8)


def test_transplant_empty_set_is_the_map_itself():
    res = transplant([], RiemannMapSpec(kind="scaled_disk", radius=2.0))
    z = np.array([0.4, -1.0 + 0.3j])
    assert res(z) == pytest.approx(z / 2.0, abs=1e-14)


def test_transplant_rejects_outside_domain_point():
    with pytest.raises(ValueError):
        transplant([2.5], RiemannMapSpec(kind="scaled_disk", radius=2.0))
