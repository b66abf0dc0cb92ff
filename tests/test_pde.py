import math
import warnings

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


def test_boundary_read_once_per_solve():
    """The initial guess comes from the trace values the solve reads."""
    calls = []

    def boundary(xi):
        calls.append(1)
        return np.exp(np.real(xi))

    sol = solve_dirichlet(constant_curvature_problem(65, 0.6, -4.0, boundary))
    assert len(calls) == 1
    assert sol.residual_norm <= 1e-10


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


def test_oracle_refuses_constant_product_before_building_a_grid():
    """A degree-0 product has no pullback density: refused up front, with
    no grid built or looked up."""
    before = pde._grid.cache_info()
    with pytest.raises(InputError, match="constant product"):
        oracle_validate(FiniteBlaschke(zeros=(), eta=1j), 0.61, 33)
    assert pde._grid.cache_info() == before


def test_curvature_read_once_at_the_interior_nodes():
    calls = []

    def curvature(z):
        calls.append(z)
        return np.full(np.shape(z), -4.0)

    prob = PdeProblem(65, 0.6, curvature, const_boundary(2.0))
    sol = solve_dirichlet(prob)
    (z,) = calls
    assert np.array_equal(z, _nodes(prob)[sol.mask])


def test_rejects_positive_curvature():
    with pytest.raises(InputError):
        constant_curvature_problem(65, 0.5, 1.0, const_boundary(1.0))
    prob = PdeProblem(65, 0.5, lambda z: np.ones(np.shape(z)),
                      const_boundary(1.0))
    with pytest.raises(InputError):
        solve_dirichlet(prob)


def test_rejects_bad_grid_and_radius():
    def curvature(z):
        return np.full(np.shape(z), -4.0)

    for n, radius in ((8, 0.5), (65, 1.5), (65.0, 0.5), (17.5, 0.5)):
        with pytest.raises(InputError):
            PdeProblem(n, radius, curvature, const_boundary(1.0))


def test_rejects_non_callable_curvature_and_boundary():
    with pytest.raises(InputError):
        PdeProblem(65, 0.5, -4.0, const_boundary(1.0))
    with pytest.raises(InputError):
        PdeProblem(65, 0.5, lambda z: np.full(np.shape(z), -4.0), 1.0)


def test_accepts_divisor_outside_subdisk():
    C = CriticalSet.from_points([0.9])
    prob = divisor_reduced_problem(C, 0.5, const_boundary(1.0), 65)
    assert prob.radius == 0.5


@pytest.mark.parametrize("point", [0.5, -0.5j, 0.5 + 1e-13])
def test_rejects_divisor_on_subdisk_circle(point):
    C = CriticalSet.from_points([point])
    with pytest.raises(InputError, match="sub-disk boundary"):
        divisor_reduced_problem(C, 0.5, const_boundary(1.0), 65)


@pytest.mark.parametrize("zeros", [(0, 0.99), (0, 0.98, -0.97)])
def test_oracle_divides_out_critical_points_beyond_subdisk(zeros):
    """Critical points at 0.868, and at 0.819 and -0.781, lie outside the
    sub-disk of radius 0.75; the oracle still reconstructs within 5h^2."""
    B = FiniteBlaschke(zeros=zeros)
    assert all(abs(p) > 0.75 for p, _ in critical_points(B).entries)
    h = 2.0 * 0.75 / 256
    assert oracle_validate(B, 0.75, 257) <= 5.0 * h * h


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

    grid = pde._grid(n, r)
    _, log_b = pde._read(
        constant_curvature_problem(n, r, -4.0, boundary), grid
    )
    assert len(calls) == 1
    g = pde._boundary_term(grid, log_b)
    A_ref, g_ref = _loop_assembly(n, r, lambda xi: math.exp(xi.real))
    As_ref = A_ref * grid.h2
    assert grid.As.shape == A_ref.shape == (int(grid.mask.sum()),) * 2
    assert abs(grid.As - As_ref).max() <= 1e-14 * abs(As_ref).max()
    assert np.max(np.abs(g - g_ref)) <= 1e-14 * np.max(np.abs(g_ref))


def _two_point_problem(radius=0.75):
    """Divisor-reduced problem for a degree-3 product with two simple
    critical points inside the sub-disk, from its pullback trace."""
    B = FiniteBlaschke(zeros=(0j, 0.5 + 0j, 0.4j), eta=1.0)

    def trace(xi):
        return np.abs(derivative(B, xi)) / (1.0 - np.abs(evaluate(B, xi)) ** 2)

    C = critical_points(B)
    assert len(C.entries) == 2
    return divisor_reduced_problem(C, radius, trace, 129)


def _direct_newton(problem, u=None):
    """Reference: the same damped Newton with every step solved by one
    sparse direct solve of the current Jacobian, from ``u`` or else from the
    constant min log b.  Returns (u on the full grid, iterations)."""
    grid = pde._grid(problem.n, problem.radius)
    kappa, log_b = pde._read(problem, grid)
    g = pde._boundary_term(grid, log_b)
    mask = grid.mask
    h2 = problem.spacing ** 2 / 4.0
    As, gs = grid.As, g * h2
    if u is None:
        u = np.full(As.shape[0], log_b.min())

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


def _bilinear_start(coarse_u, mask):
    """Reference interpolation, one node at a time: the mean of the coarse
    values inside the disk at the corners of each fine interior node's
    coarse cell (at the node itself on a coarse node)."""
    out = []
    for i, j in zip(*np.nonzero(mask)):
        corners = {(a, b) for a in (i // 2, (i + 1) // 2)
                   for b in (j // 2, (j + 1) // 2)}
        values = [coarse_u[c] for c in corners if not np.isnan(coarse_u[c])]
        out.append(sum(values) / len(values))
    return np.array(out)


def _nested_direct_newton(problem):
    """Reference for an odd grid: direct Newton on the problem at (n + 1)/2
    nodes from its constant start, its solution interpolated onto the fine
    grid by ``_bilinear_start``, then direct Newton from there.  Returns
    (u on the full grid, fine iterations, coarse iterations)."""
    coarse = PdeProblem((problem.n + 1) // 2, problem.radius,
                        problem.curvature, problem.boundary)
    coarse_u, coarse_iters = _direct_newton(coarse)
    mask = pde._grid(problem.n, problem.radius).mask
    u, iters = _direct_newton(problem, _bilinear_start(coarse_u, mask))
    return u, iters, coarse_iters


def _constant_start(problem):
    """``pde._newton`` from the constant start min log b on the problem's
    own grid, bypassing any nested grid."""
    grid = pde._grid(problem.n, problem.radius)
    return pde._newton(grid, *pde._read(problem, grid))


@pytest.fixture(scope="module")
def two_point_reference():
    return _nested_direct_newton(_two_point_problem())


def test_preconditioned_newton_matches_direct_newton(two_point_reference):
    u_ref, iters_ref, _ = two_point_reference
    sol = solve_dirichlet(_two_point_problem())
    assert sol.newton_iters == iters_ref
    assert np.nanmax(np.abs(sol.u - u_ref)) <= 1e-12
    assert sol.residual_norm <= 1e-10


def test_laplacian_factored_once_per_grid(monkeypatch):
    """Each grid's Laplacian, the nested coarse grid's included, is factored
    on its first solve only; a solve on another radius is two other
    grids."""
    pde._grid.cache_clear()
    factored = []
    splu = pde.spla.splu

    def counted_splu(*args, **kwargs):
        factored.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(pde.spla, "splu", counted_splu)
    first = solve_dirichlet(_two_point_problem())
    second = solve_dirichlet(_two_point_problem())
    assert len(factored) == 2
    assert (first.factorizations, second.factorizations) == (2, 0)
    assert second.newton_iters >= 2 and second.krylov_iters > 0
    assert np.array_equal(first.u, second.u, equal_nan=True)
    other = solve_dirichlet(_two_point_problem(radius=0.7))
    assert len(factored) == 4
    assert other.factorizations == 2
    # four grids stay cached: alternating the two sizes factors nothing
    again = [solve_dirichlet(_two_point_problem(radius=r))
             for r in (0.75, 0.7)]
    assert len(factored) == 4
    assert [s.factorizations for s in again] == [0, 0]


def test_refactors_when_krylov_fails(monkeypatch, two_point_reference):
    u_ref, iters_ref, coarse_iters_ref = two_point_reference
    clean = solve_dirichlet(_two_point_problem())

    def failing_gmres(As, d, b, solve):
        return np.zeros_like(b), 0, False

    monkeypatch.setattr(pde, "_gmres", failing_gmres)
    sol = solve_dirichlet(_two_point_problem())
    assert sol.residual_norm <= 1e-10
    assert sol.newton_iters == iters_ref
    # one Jacobian LU per Newton step, on the coarse grid and the fine one
    assert sol.factorizations == coarse_iters_ref + iters_ref
    assert np.nanmax(np.abs(sol.u - u_ref)) <= 1e-12

    # the Jacobian LUs of the fallback stay with that solve: the next one
    # is preconditioned by the grids' Laplacians again
    monkeypatch.undo()
    after = solve_dirichlet(_two_point_problem())
    assert after.factorizations == 0
    assert after.newton_iters == iters_ref
    assert np.nanmax(np.abs(after.u - u_ref)) <= 1e-12
    assert after.krylov_iters == clean.krylov_iters


def test_gmres_meets_true_residual_and_matches_direct_solve():
    """A Newton-like system on the two-point problem's grid: the GMRES
    answer passes ||b - J x|| <= 1e-8 ||b|| on J itself and agrees with a
    direct solve (seeds 0-7 measured 1.1e-8 to 6.8e-8 relative, for
    diagonals up to 100 h^2)."""
    grid = pde._grid(129, 0.75)
    rng = np.random.default_rng(0)
    N = grid.As.shape[0]
    d = -8.0 * grid.h2 * rng.random(N)
    b = rng.standard_normal(N)
    x, iters, converged = pde._gmres(grid.As, d, b, grid.lu)
    J = grid.As + sp.diags(d)
    assert converged and 0 < iters <= 20
    assert np.linalg.norm(b - J @ x) <= 1e-8 * np.linalg.norm(b)
    ref = scipy.sparse.linalg.spsolve(J.tocsc(), b)
    assert np.linalg.norm(x - ref) <= 1e-7 * np.linalg.norm(ref)


@pytest.mark.parametrize("preconditioner, scale", [("jacobi", 8.0),
                                                  ("laplacian-lu", 2400.0)])
def test_gmres_restart_cycles(preconditioner, scale):
    """Systems whose first 20-iteration cycle cannot meet the tolerance, so
    the update x += Z y crosses cycles: the grid's LU against a diagonal up
    to 2400 h^2 converges in the third cycle (47 iterations), Jacobi runs
    all 60 and fails.  Either way each iteration is one solve, and the flag
    is the true residual test on the assembled J."""
    grid = pde._grid(129, 0.75)
    rng = np.random.default_rng(0)
    N = grid.As.shape[0]
    d = -scale * grid.h2 * rng.random(N)
    b = rng.standard_normal(N)
    J = grid.As + sp.diags(d)
    diagonal = J.diagonal()
    solve = grid.lu if preconditioner == "laplacian-lu" else (
        lambda v: v / diagonal)
    solves = []

    def counted(v):
        solves.append(1)
        return solve(v)

    x, iters, converged = pde._gmres(grid.As, d, b, counted)
    assert iters > 20 and len(solves) == iters
    assert converged == (preconditioner == "laplacian-lu")
    assert converged == bool(
        np.linalg.norm(b - J @ x) <= 1e-8 * np.linalg.norm(b))
    if converged:
        ref = scipy.sparse.linalg.spsolve(J.tocsc(), b)
        assert np.linalg.norm(x - ref) <= 1e-7 * np.linalg.norm(ref)


def test_one_lu_solve_per_krylov_iteration():
    """Right preconditioning with the preconditioned vectors kept: one LU
    solve per Krylov iteration and none per cycle, so M^{-1} v is never
    solved twice; the iterations count both grids' solves."""
    problem = _two_point_problem()
    grids = [pde._grid(n, problem.radius)
             for n in (problem.n, (problem.n + 1) // 2)]
    lus, solves = [grid.lu for grid in grids], []

    def counter(lu):
        def counted(v):
            solves.append(lu)
            return lu(v)
        return counted

    for grid, lu in zip(grids, lus):
        object.__setattr__(grid, "lu", counter(lu))
    try:
        sol = solve_dirichlet(problem)
    finally:
        for grid, lu in zip(grids, lus):
            object.__setattr__(grid, "lu", lu)
    assert sol.factorizations == 0
    assert len(solves) == sol.krylov_iters
    assert all(lu in solves for lu in lus)


def test_gmres_happy_breakdown_returns_without_warning():
    """J e_k = 2 e_k exactly, so the Krylov space closes after one
    iteration with a zero subdiagonal; nothing may divide by it."""
    N = pde._grid(129, 0.75).As.shape[0]
    b = np.zeros(N)
    b[N // 2] = 3.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x, iters, converged = pde._gmres(
            sp.identity(N, format="csr"), np.ones(N), b, lambda v: v.copy())
    assert converged and iters == 1
    assert np.array_equal(x, b / 2.0)


def test_solution_mask_is_read_only():
    """The mask is the cached grid's; writing into it raises instead of
    changing the next solve on the grid."""
    prob = constant_curvature_problem(65, 0.6, -4.0, const_boundary(2.0))
    sol = solve_dirichlet(prob)
    with pytest.raises(ValueError):
        sol.mask[0, 0] = True
    assert np.array_equal(solve_dirichlet(prob).u, sol.u, equal_nan=True)


@pytest.mark.parametrize("n", [33, 65, 129, 257])
@pytest.mark.parametrize("r", [0.5, 0.63, 0.7, 0.75])
def test_nested_grid_is_every_other_fine_node(n, r):
    """The grid of (n + 1)/2 nodes is the odd grid's even-index nodes bit
    for bit, with their mask and, among the fine crossings, its own; the
    transfer's maps read the coarse values off the fine ones."""
    fine, coarse = pde._grid(n, r), pde._grid((n + 1) // 2, r)
    inject, cross, interpolate = pde._transfer(n, r)
    assert np.array_equal(coarse.nodes, fine.nodes[::2, ::2])
    assert np.array_equal(coarse.mask, fine.mask[::2, ::2])
    assert np.array_equal(fine.nodes[fine.mask][inject],
                          coarse.nodes[coarse.mask])
    assert np.array_equal(fine.crossings[cross], coarse.crossings)
    assert interpolate.shape == (fine.As.shape[0], coarse.As.shape[0])
    assert np.allclose(interpolate.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    # a coarse node's fine copy takes its value alone
    assert (interpolate[inject] != sp.identity(coarse.As.shape[0])).nnz == 0


@pytest.mark.parametrize("n", [66, 17])
def test_constant_start_where_no_grid_nests(n):
    """An even n, or an odd one whose half grid would have fewer than 17
    nodes, solves from the constant start alone, bit for bit."""
    problem = constant_curvature_problem(
        n, 0.7, -4.0, lambda xi: np.exp(np.real(xi)))
    sol = solve_dirichlet(problem)
    u, rnorm, iters, factorizations, krylov_iters = _constant_start(problem)
    assert np.array_equal(sol.u[sol.mask], u)
    assert (sol.residual_norm, sol.newton_iters, sol.krylov_iters) == (
        rnorm, iters, krylov_iters)


def test_callables_read_once_on_a_nested_grid():
    """At n = 257 the coarse grid takes its curvature and trace values from
    the fine grid's reads: each callable is called once, on the fine
    interior nodes and crossings."""
    calls = {"curvature": [], "boundary": []}

    def curvature(z):
        calls["curvature"].append(z)
        return -4.0 * np.abs(z) ** 2

    def boundary(xi):
        calls["boundary"].append(xi)
        return np.exp(np.real(xi))

    sol = solve_dirichlet(PdeProblem(257, 0.75, curvature, boundary))
    grid = pde._grid(257, 0.75)
    (z,), (xi,) = calls["curvature"], calls["boundary"]
    assert np.array_equal(z, grid.nodes[sol.mask])
    assert np.array_equal(xi, grid.crossings)
    assert sol.residual_norm <= 1e-10


def test_nested_start_saves_a_newton_step():
    """On the two-point problem the nested start takes 2 fine Newton steps
    where the constant start takes 3.  The two answers differ by 1.4e-9,
    the constant start's own error: it stops at a scaled residual of
    2.8e-12, the nested one at 5e-15, and one more direct Newton step from
    the constant-start answer lands within 1e-12 of the nested one."""
    problem = _two_point_problem()
    sol = solve_dirichlet(problem)
    u, _, iters, _, _ = _constant_start(problem)
    assert (sol.newton_iters, iters) == (2, 3)
    assert np.max(np.abs(sol.u[sol.mask] - u)) <= 2e-9
    grid = pde._grid(problem.n, problem.radius)
    kappa, log_b = pde._read(problem, grid)
    g = pde._boundary_term(grid, log_b)
    e2u = np.exp(2.0 * u)
    J = grid.As + sp.diags(2.0 * grid.h2 * kappa * e2u)
    res = grid.As @ u + grid.h2 * (g + kappa * e2u)
    polished = u - scipy.sparse.linalg.spsolve(J.tocsc(), res)
    assert np.max(np.abs(sol.u[sol.mask] - polished)) <= 1e-12


_MALFORMED = {
    "one short": lambda z, v: np.full(np.size(z) - 1, v),
    "complex": lambda z, v: np.full(np.shape(z), complex(v)),
    "boolean": lambda z, v: np.full(np.shape(z), True),
    "column": lambda z, v: np.full((np.size(z), 1), v),
    "length-1 list": lambda z, v: [v],
    "string": lambda z, v: "x",
    "None": lambda z, v: None,
}


@pytest.mark.parametrize("kind", sorted(_MALFORMED))
def test_rejects_malformed_curvature_and_boundary_results(kind):
    """Each callable gives one real value per point or one real scalar;
    anything else is an InputError, never numpy's broadcasting ValueError
    or a ComplexWarning with the imaginary part dropped."""
    malformed = _MALFORMED[kind]

    def curvature(z):
        return np.full(np.shape(z), -4.0)

    for problem in (
        PdeProblem(33, 0.6, lambda z: malformed(z, -4.0), const_boundary(2.0)),
        PdeProblem(33, 0.6, curvature, lambda xi: malformed(xi, 2.0)),
        divisor_reduced_problem(CriticalSet.from_points([0.2]), 0.6,
                                lambda xi: malformed(xi, 2.0), 33),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError):
                solve_dirichlet(problem)


def test_scalar_curvature_and_boundary_broadcast():
    scalar = solve_dirichlet(PdeProblem(33, 0.6, lambda z: -4, lambda xi: 2.0))
    array = solve_dirichlet(PdeProblem(
        33, 0.6, lambda z: np.full(np.shape(z), -4.0), const_boundary(2.0)))
    assert np.array_equal(scalar.u, array.u, equal_nan=True)
    constant = constant_curvature_problem(33, 0.6, -4, const_boundary(2.0))
    assert np.array_equal(solve_dirichlet(constant).u, array.u, equal_nan=True)


@pytest.mark.parametrize("kappa", ["x", None, math.nan, -math.inf, 1.0,
                                   True, -1 + 0j, np.array([-1.0])])
def test_constant_curvature_refused_at_construction(kappa):
    with pytest.raises(InputError):
        constant_curvature_problem(33, 0.5, kappa, const_boundary(1.0))
