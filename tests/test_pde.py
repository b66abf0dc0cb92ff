import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

from maxblaschke import pde
from maxblaschke.blaschke import (
    CriticalSet,
    FiniteBlaschke,
    critical_points,
    derivative,
    evaluate,
)
from maxblaschke.errors import InputError, NumericalError
from maxblaschke.pde import (
    PdeProblem,
    constant_curvature_problem,
    divisor_poly,
    divisor_reduced_problem,
    oracle_validate,
    solve_dirichlet,
)
from maxblaschke.solver import solve_maximal

# Radially symmetric closed form for kappa = -4, boundary value 2 on
# |z| = 1/2: lambda(z) = c / (1 - c^2 |z|^2) with c / (1 - c^2/4) = 2,
# i.e. c^2 + 2c - 4 = 0, c = sqrt(5) - 1.  The center density is c itself.
RADIAL_CENTER = math.sqrt(5.0) - 1.0


def const_boundary(v):
    return lambda xi: np.full(np.shape(xi), float(v))


def test_radial_closed_form_center_value():
    prob = constant_curvature_problem(129, 0.5, -4.0, const_boundary(2.0))
    sol = solve_dirichlet(prob)
    mid = (prob.n - 1) // 2
    lam0 = math.exp(sol.u[mid, mid])
    h = prob.spacing
    assert abs(lam0 - RADIAL_CENTER) <= 5.0 * h * h
    assert sol.residual_norm <= 1e-10


def test_flat_case_is_exact():
    """kappa = 0 with constant boundary: u is identically log b."""
    prob = constant_curvature_problem(65, 0.6, 0.0, const_boundary(3.0))
    sol = solve_dirichlet(prob)
    assert np.nanmax(np.abs(sol.u - math.log(3.0))) <= 1e-12
    assert np.all(np.isnan(sol.u[~sol.mask]))


def test_flat_case_harmonic_boundary():
    """u = Re z is linear, so even the cut-cell stencil reproduces it
    exactly; boundary data b = exp(Re xi)."""
    prob = constant_curvature_problem(
        65, 0.7, 0.0, lambda xi: np.exp(np.real(xi)))
    sol = solve_dirichlet(prob)
    x = np.real(_nodes(prob))
    assert np.max(np.abs(sol.u[sol.mask] - x[sol.mask])) <= 1e-11


def _nodes(prob):
    t = np.linspace(-prob.radius, prob.radius, prob.n)
    X, Y = np.meshgrid(t, t, indexing="ij")
    return X + 1j * Y


def test_maximum_principle_ordering():
    lo = constant_curvature_problem(65, 0.6, -6.0, const_boundary(0.8))
    hi = constant_curvature_problem(65, 0.6, -1.0, const_boundary(1.2))
    u1 = solve_dirichlet(lo)
    u2 = solve_dirichlet(hi)
    m = u1.mask
    assert np.max(u1.u[m] - u2.u[m]) <= 1e-10


def test_divisor_poly_modulus():
    C = CriticalSet(((0.5 + 0j, 2),))
    s = divisor_poly(C)
    assert s(0.5) == pytest.approx(0.0, abs=1e-15)
    assert s(0.0) == pytest.approx(0.25, abs=1e-15)


def test_divisor_reduction_positive_density():
    C = CriticalSet.from_points([0.5])
    prob = divisor_reduced_problem(C, 0.75, const_boundary(1.0), 65)
    sol = solve_dirichlet(prob)
    assert np.all(np.exp(sol.u[sol.mask]) > 0.0)
    assert sol.residual_norm <= 1e-10


def test_oracle_validates_identity_map():
    B = FiniteBlaschke(zeros=(0j,), eta=1.0)
    dev = oracle_validate(B, 0.75, n=129)
    h = 2 * 0.75 / 128
    assert dev <= 5.0 * h * h


def test_oracle_validates_solved_product():
    B = solve_maximal(CriticalSet.from_points([0.5])).solution
    dev = oracle_validate(B, 0.75, n=129)
    h = 2 * 0.75 / 128
    assert dev <= 5.0 * h * h


def test_rejects_positive_curvature():
    with pytest.raises(InputError):
        constant_curvature_problem(65, 0.5, 1.0, const_boundary(1.0))
    prob = PdeProblem(65, 0.5, lambda z: np.ones(np.shape(z)),
                      const_boundary(1.0))
    with pytest.raises(InputError):
        solve_dirichlet(prob)


def test_rejects_bad_grid_and_radius():
    with pytest.raises(InputError):
        PdeProblem(8, 0.5, -4.0, const_boundary(1.0))
    with pytest.raises(InputError):
        PdeProblem(65, 1.5, -4.0, const_boundary(1.0))


def test_rejects_non_callable_curvature_and_boundary():
    with pytest.raises(InputError):
        PdeProblem(65, 0.5, -4.0, const_boundary(1.0))
    with pytest.raises(InputError):
        PdeProblem(65, 0.5, lambda z: np.full(np.shape(z), -4.0), 1.0)


def test_rejects_divisor_outside_subdisk():
    C = CriticalSet.from_points([0.9])
    with pytest.raises(InputError):
        divisor_reduced_problem(C, 0.5, const_boundary(1.0), 65)


def test_rejects_nonpositive_boundary():
    prob = constant_curvature_problem(65, 0.5, -4.0, const_boundary(-1.0))
    with pytest.raises(InputError):
        solve_dirichlet(prob)


def _loop_assembly(n, r, boundary):
    """Reference cut-cell stencil: one plain loop over interior nodes and
    the four arm directions, with the crossing point of each cut arm."""
    h = 2.0 * r / (n - 1)
    xs = np.linspace(-r, r, n)
    index = {}
    for i in range(n):
        for j in range(n):
            if abs(complex(xs[i], xs[j])) < r:
                index[i, j] = len(index)
    rows, cols, vals = [], [], []
    g = np.zeros(len(index))
    for (i, j), row in index.items():
        diag = 0.0
        for axis in (0, 1):
            coord, fixed = (xs[i], xs[j]) if axis == 0 else (xs[j], xs[i])
            arms, ends = [], []
            for sign in (-1, 1):
                nb = (i + sign, j) if axis == 0 else (i, j + sign)
                if nb in index:
                    arms.append(h)
                    ends.append(index[nb])
                    continue
                target = sign * math.sqrt(max(r * r - fixed * fixed, 0.0))
                arms.append(min(max((target - coord) * sign, 1e-12 * h), h))
                ends.append(complex(target, fixed) if axis == 0
                            else complex(fixed, target))
            hl, hr = arms
            diag -= 2.0 / (hl * hr)
            for arm, end in zip(arms, ends):
                c = 2.0 / (arm * (hl + hr))
                if isinstance(end, complex):
                    g[row] += c * math.log(boundary(end))
                else:
                    rows.append(row)
                    cols.append(end)
                    vals.append(c)
        rows.append(row)
        cols.append(row)
        vals.append(diag)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(len(index),) * 2)
    return A, g


@pytest.mark.parametrize("n, r", [(17, 0.5), (33, 0.63), (66, 0.7)])
def test_assembly_matches_loop_reference(n, r):
    calls = []

    def boundary(xi):
        calls.append(1)
        return np.exp(np.real(xi))

    A, g, mask, _ = pde._assemble(
        constant_curvature_problem(n, r, -4.0, boundary)
    )
    assert len(calls) == 1
    A_ref, g_ref = _loop_assembly(n, r, lambda xi: math.exp(xi.real))
    assert A.shape == A_ref.shape == (int(mask.sum()),) * 2
    assert abs(A - A_ref).max() <= 1e-14 * abs(A_ref).max()
    assert np.max(np.abs(g - g_ref)) <= 1e-14 * np.max(np.abs(g_ref))


def _two_point_problem():
    """Divisor-reduced problem for a degree-3 product with two simple
    critical points inside the sub-disk, from its pullback trace."""
    B = FiniteBlaschke(zeros=(0j, 0.5 + 0j, 0.4j), eta=1.0)

    def trace(xi):
        return np.abs(derivative(B, xi)) / (1.0 - np.abs(evaluate(B, xi)) ** 2)

    C = critical_points(B)
    assert len(C.entries) == 2
    return divisor_reduced_problem(C, 0.75, trace, 129)


def _direct_newton(problem):
    """Reference: the same damped Newton with every step solved by one
    sparse direct solve of the current Jacobian."""
    A, g, mask, nodes = pde._assemble(problem)
    kappa = problem.curvature_at(nodes[mask])
    h2 = problem.spacing ** 2 / 4.0
    As, gs = A * h2, g * h2
    theta = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    btrace = problem.boundary(problem.radius * np.exp(1j * theta))
    u = np.full(A.shape[0], float(np.log(np.min(btrace))))

    def residual(v):
        return As @ v + gs + h2 * kappa * np.exp(2.0 * v)

    res = residual(u)
    rnorm = float(np.max(np.abs(res)))
    iters = 0
    while rnorm > pde.RESIDUAL_TOL:
        assert iters < pde.MAX_NEWTON_ITERS
        J = As + sp.diags(2.0 * h2 * kappa * np.exp(2.0 * u))
        step = scipy.sparse.linalg.spsolve(J.tocsc(), -res)
        for alpha in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125):
            trial = u + alpha * step
            tres = residual(trial)
            tnorm = float(np.max(np.abs(tres)))
            if tnorm < rnorm:
                u, res, rnorm = trial, tres, tnorm
                break
        else:
            raise AssertionError("reference Newton stalled")
        iters += 1
    full = np.full(mask.shape, np.nan)
    full[mask] = u
    return full, iters


@pytest.fixture(scope="module")
def two_point_reference():
    return _direct_newton(_two_point_problem())


def test_preconditioned_newton_matches_direct_newton(two_point_reference):
    u_ref, iters_ref = two_point_reference
    sol = solve_dirichlet(_two_point_problem())
    assert sol.newton_iters == iters_ref
    assert np.nanmax(np.abs(sol.u - u_ref)) <= 1e-12
    assert sol.residual_norm <= 1e-10


def test_jacobian_factored_once(monkeypatch):
    factored = []
    splu = pde.spla.splu

    def counted_splu(*args, **kwargs):
        factored.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(pde.spla, "splu", counted_splu)
    sol = solve_dirichlet(_two_point_problem())
    assert len(factored) == 1
    assert sol.factorizations == 1
    assert sol.newton_iters >= 2 and sol.krylov_iters > 0


def test_refactors_when_krylov_fails(monkeypatch, two_point_reference):
    u_ref, iters_ref = two_point_reference

    def failing_gmres(A, b, **kwargs):
        return np.zeros_like(b), 1

    monkeypatch.setattr(pde.spla, "gmres", failing_gmres)
    sol = solve_dirichlet(_two_point_problem())
    assert sol.residual_norm <= 1e-10
    assert sol.newton_iters == iters_ref
    assert sol.factorizations == sol.newton_iters
    assert np.nanmax(np.abs(sol.u - u_ref)) <= 1e-12
