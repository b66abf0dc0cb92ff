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


def _radial_density(z, radius):
    """The closed form c / (1 - c^2 |z|^2) for kappa = -4 and boundary value
    2 on |z| = radius: c / (1 - c^2 radius^2) = 2."""
    c = (math.sqrt(1.0 + 16.0 * radius ** 2) - 1.0) / (4.0 * radius ** 2)
    return c / (1.0 - c * c * np.abs(z) ** 2)


def _nodes(prob):
    """The polar grid of ``prob``: N = (n - 1) // 2 rings r_i = i h and
    M = 4N angles, ring 0 the centre M times over."""
    N = (prob.n - 1) // 2
    r = np.arange(N) * prob.radius / N
    theta = 2.0 * np.pi * np.arange(4 * N) / (4 * N)
    return r[:, None] * np.exp(1j * theta)


def test_radial_closed_form_center_value():
    prob = constant_curvature_problem(129, 0.5, -4.0, const_boundary(2.0))
    sol = solve_dirichlet(prob)
    lam0 = math.exp(sol.u[0, 0])
    h = prob.spacing
    assert abs(lam0 - RADIAL_CENTER) <= 5.0 * h * h
    assert sol.residual_norm <= 1e-10


@pytest.mark.parametrize("n, radius", [(129, 0.5), (21, 0.7), (69, 0.5),
                                       (81, 0.75), (161, 0.75)])
def test_radial_closed_form_at_every_node(n, radius):
    """Every node within 5h^2 of the closed form (0.62 h^2 at most over
    the 426 grids n = 17, 21, ..., 297 by radii 0.5 to 0.9).  On the last
    four grids a node of the former Cartesian grid lay on the circle to
    within rounding, and its clipped cut-cell arm stalled Newton."""
    prob = constant_curvature_problem(n, radius, -4.0, const_boundary(2.0))
    sol = solve_dirichlet(prob)
    lam = np.exp(sol.u[sol.mask])
    ref = _radial_density(_nodes(prob)[sol.mask], radius)
    assert np.max(np.abs(lam - ref)) <= 5.0 * prob.spacing ** 2
    assert sol.residual_norm <= 1e-10


def test_oracle_where_a_cartesian_node_met_the_circle():
    """At n = 161, radius 0.75, the former Cartesian grid stalled; the
    polar grid reconstructs within its 5h^2 budget."""
    B = solve_maximal(CriticalSet.from_points([0.5])).solution
    h = 0.75 / 80
    assert oracle_validate(B, 0.75, 161) <= 5.0 * h * h


@pytest.mark.parametrize("n", [65, 66, 257])
def test_spacing_is_the_ring_step(n):
    """h = radius/N for N = (n - 1) // 2 rings, the ring step of the grid:
    for odd n the 2 radius/(n - 1) of n nodes per side, bit for bit."""
    prob = constant_curvature_problem(n, 0.7, -4.0, const_boundary(2.0))
    N = (n - 1) // 2
    assert prob.spacing == 0.7 / N
    if n % 2:
        assert prob.spacing == 2.0 * 0.7 / (n - 1)
    sol = solve_dirichlet(prob)
    assert sol.u.shape == (N, 4 * N)
    assert abs(_nodes(prob)[1, 0]) == prob.spacing


def test_flat_case_is_exact():
    """kappa = 0 with constant boundary: u is identically log b, and the
    centre's value fills ring 0."""
    prob = constant_curvature_problem(65, 0.6, 0.0, const_boundary(3.0))
    sol = solve_dirichlet(prob)
    assert np.max(np.abs(sol.u - math.log(3.0))) <= 1e-12
    assert np.all(sol.u[0] == sol.u[0, 0])
    assert np.count_nonzero(~sol.mask) == sol.mask.shape[1] - 1


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
    """The polar stencil's angular weight makes it exact on u = Re z, and
    the centre's row on every linear function; boundary data
    b = exp(Re xi)."""
    prob = constant_curvature_problem(
        65, 0.7, 0.0, lambda xi: np.exp(np.real(xi)))
    sol = solve_dirichlet(prob)
    x = np.real(_nodes(prob))
    assert np.max(np.abs(sol.u - x)) <= 1e-11


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
    assert np.array_equal(z, pde._grid(32, 0.6).nodes[sol.mask])
    assert np.allclose(z, _nodes(prob)[sol.mask], rtol=0, atol=1e-15)
    assert z.size == 1 + 31 * 128  # the centre once, rings 1 to 31


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
    """Reference polar stencil: one plain loop over the distinct nodes (the
    centre, then rings 1 to N - 1 in angle order) and their neighbours, each
    row scaled to a unit diagonal, with the trace on the circle in g.
    Returns (As, g, the factor of each row)."""
    N = (n - 1) // 2
    M = 4 * N
    h, dt = r / N, 2.0 * math.pi / M
    index = {(0, j): 0 for j in range(M)}  # the centre, one unknown
    for i in range(1, N):
        for j in range(M):
            index[i, j] = 1 + (i - 1) * M + j
    size = 1 + (N - 1) * M
    rows, cols, vals = [0], [0], [-1.0]
    g, scale = np.zeros(size), np.zeros(size)
    # the centre: 4 (mean of ring 1 - u_0) / h^2, scaled by h^2 / 4
    scale[0] = h * h / 4.0
    for j in range(M):
        rows.append(0)
        cols.append(index[1, j])
        vals.append(1.0 / M)
    for i in range(1, N):
        ri = i * h
        # h^2 times the conservative stencil: the radial arms weigh
        # r_{i -+ 1/2} / r_i, each angular one h^2 / (r_i^2 (2 - 2 cos dt)),
        # 2 - 2 cos dt written 4 sin^2(dt / 2)
        inner, outer = (ri - h / 2) / ri, (ri + h / 2) / ri
        side = h * h / (ri * ri * 4.0 * math.sin(dt / 2) ** 2)
        diag = inner + outer + 2.0 * side
        for j in range(M):
            row = index[i, j]
            scale[row] = h * h / diag
            rows.append(row)
            cols.append(row)
            vals.append(-1.0)
            for nb, c in (((i - 1, j), inner), ((i, (j - 1) % M), side),
                          ((i, (j + 1) % M), side)):
                rows.append(row)
                cols.append(index[nb])
                vals.append(c / diag)
            if i + 1 < N:
                rows.append(row)
                cols.append(index[i + 1, j])
                vals.append(outer / diag)
            else:
                g[row] = outer / diag * math.log(boundary(r * complex(
                    math.cos(j * dt), math.sin(j * dt))))
    As = sp.csr_matrix((vals, (rows, cols)), shape=(size, size))
    return As, g, scale


@pytest.mark.parametrize("n, r", [(17, 0.5), (33, 0.63), (66, 0.7)])
def test_assembly_matches_loop_reference(n, r):
    calls = []

    def boundary(xi):
        calls.append(1)
        return np.exp(np.real(xi))

    grid = pde._grid((n - 1) // 2, r)
    _, log_b = pde._read(
        constant_curvature_problem(n, r, -4.0, boundary), grid
    )
    assert len(calls) == 1
    g = pde._boundary_term(grid, log_b)
    As_ref, g_ref, scale_ref = _loop_assembly(
        n, r, lambda xi: math.exp(xi.real))
    assert grid.As.shape == As_ref.shape == (int(grid.mask.sum()),) * 2
    assert abs(grid.As - As_ref).max() <= 1e-14
    assert np.max(np.abs(g - g_ref)) <= 1e-14 * np.max(np.abs(g_ref))
    assert np.max(np.abs(grid.scale / scale_ref - 1.0)) <= 1e-14


def _two_point_problem(radius=0.75):
    """Divisor-reduced problem for a degree-3 product with two simple
    critical points inside the sub-disk, from its pullback trace."""
    B = FiniteBlaschke(zeros=(0j, 0.5 + 0j, 0.4j), eta=1.0)

    def trace(xi):
        return np.abs(derivative(B, xi)) / (1.0 - np.abs(evaluate(B, xi)) ** 2)

    C = critical_points(B)
    assert len(C.entries) == 2
    return divisor_reduced_problem(C, radius, trace, 129)


def _to_grid(u, mask):
    """Values at the distinct nodes on the whole polar grid: the centre's
    value fills ring 0."""
    full = np.empty(mask.shape)
    full[mask] = u
    full[0] = u[0]
    return full


def _direct_newton(problem, u=None):
    """Reference: the same damped Newton with every step solved by one
    sparse direct solve of the current Jacobian, from ``u`` or else from the
    constant min log b.  Returns (u on the whole grid, iterations, log b on
    the circle)."""
    grid = pde._grid((problem.n - 1) // 2, problem.radius)
    kappa, log_b = pde._read(problem, grid)
    As, gs = grid.As, pde._boundary_term(grid, log_b)
    sk = grid.scale * kappa
    if u is None:
        u = np.full(As.shape[0], log_b.min())

    def residual(v):
        return As @ v + gs + sk * np.exp(2.0 * v)

    res = residual(u)
    rnorm = float(np.max(np.abs(res)))
    iters = 0
    while rnorm > pde.RESIDUAL_TOL:
        assert iters < pde.MAX_NEWTON_ITERS
        J = As + sp.diags(2.0 * sk * np.exp(2.0 * u))
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
    return _to_grid(u, grid.mask), iters, log_b


def _bilinear_start(coarse_u, log_b, mask):
    """Reference interpolation, one node at a time: the mean of the coarse
    values (``log_b`` on the circle) at the corners of each fine distinct
    node's coarse cell in (ring, angle), at the node itself on a coarse
    node and the two ends of its edge on a coarse line."""
    rings, angles = coarse_u.shape
    out = []
    for i, j in zip(*np.nonzero(mask)):
        corners = {(a, b % angles) for a in (i // 2, (i + 1) // 2)
                   for b in (j // 2, (j + 1) // 2)}
        values = [coarse_u[a, b] if a < rings else log_b[b]
                  for a, b in corners]
        out.append(sum(values) / len(values))
    return np.array(out)


def _nested_direct_newton(problem):
    """Reference for a grid of an even number of rings: direct Newton on
    the problem of half as many rings from its constant start, its solution
    interpolated onto the fine grid by ``_bilinear_start``, then direct
    Newton from there.  Returns (u on the whole grid, fine iterations,
    coarse iterations)."""
    coarse = PdeProblem((problem.n + 1) // 2, problem.radius,
                        problem.curvature, problem.boundary)
    coarse_u, coarse_iters, coarse_log_b = _direct_newton(coarse)
    mask = pde._grid((problem.n - 1) // 2, problem.radius).mask
    start = _bilinear_start(coarse_u, coarse_log_b, mask)
    u, iters, _ = _direct_newton(problem, start)
    return u, iters, coarse_iters


def _constant_start(problem):
    """``pde._newton`` from the constant start min log b on the problem's
    own grid, bypassing any nested grid."""
    grid = pde._grid((problem.n - 1) // 2, problem.radius)
    return pde._newton(grid, *pde._read(problem, grid))


@pytest.fixture(scope="module")
def two_point_reference():
    return _nested_direct_newton(_two_point_problem())


def test_preconditioned_newton_matches_direct_newton(two_point_reference):
    u_ref, iters_ref, _ = two_point_reference
    sol = solve_dirichlet(_two_point_problem())
    assert sol.newton_iters == iters_ref
    assert np.max(np.abs(sol.u - u_ref)) <= 1e-12
    assert sol.residual_norm <= 1e-10


def test_no_factorization_on_a_normal_solve(monkeypatch):
    """The FFT-and-tridiagonal preconditioner factors nothing: no sparse LU
    is built on a nested solve, a radial one or an oracle run, and a repeat
    solve gives the same bits."""
    factored = []
    splu = pde.spla.splu

    def counted_splu(*args, **kwargs):
        factored.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(pde.spla, "splu", counted_splu)
    pde._grid.cache_clear()
    first = solve_dirichlet(_two_point_problem())
    second = solve_dirichlet(_two_point_problem())
    radial = solve_dirichlet(
        constant_curvature_problem(161, 0.75, -4.0, const_boundary(2.0)))
    oracle_validate(FiniteBlaschke(zeros=(0j, 0.3)), 0.7, 65)
    assert factored == []
    assert [s.factorizations for s in (first, second, radial)] == [0, 0, 0]
    assert second.newton_iters >= 2 and second.krylov_iters > 0
    assert np.array_equal(first.u, second.u)


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
    assert np.max(np.abs(sol.u - u_ref)) <= 1e-12

    # the Jacobian LUs of the fallback stay with their steps: the next
    # solve is preconditioned by the FFT-and-tridiagonal solves again
    monkeypatch.undo()
    after = solve_dirichlet(_two_point_problem())
    assert after.factorizations == 0
    assert after.newton_iters == iters_ref
    assert np.max(np.abs(after.u - u_ref)) <= 1e-12
    assert after.krylov_iters == clean.krylov_iters


def _newton_like_system(scale):
    """A Newton-like system on the two-point problem's grid: a diagonal up
    to ``scale`` times each row's factor, as 2 scale kappa e^{2u} is, and a
    right-hand side, seeded."""
    grid = pde._grid(64, 0.75)
    rng = np.random.default_rng(0)
    N = grid.As.shape[0]
    d = -scale * grid.scale * rng.random(N)
    return grid, d, rng.standard_normal(N)


def test_gmres_meets_true_residual_and_matches_direct_solve():
    """The GMRES answer, preconditioned with the ring-mean operator, passes
    ||b - J x|| <= 1e-8 ||b|| on J itself and agrees with a direct solve."""
    grid, d, b = _newton_like_system(8.0)
    x, iters, converged = pde._gmres(grid.As, d, b,
                                     pde._preconditioner(grid, d))
    J = grid.As + sp.diags(d)
    assert converged and 0 < iters <= 20
    assert np.linalg.norm(b - J @ x) <= 1e-8 * np.linalg.norm(b)
    ref = scipy.sparse.linalg.spsolve(J.tocsc(), b)
    assert np.linalg.norm(x - ref) <= 1e-7 * np.linalg.norm(ref)


def test_preconditioner_solves_the_ring_mean_operator():
    """The FFT-and-tridiagonal solve is As + diag(d_bar)'s inverse, d_bar
    each ring's mean of d: it matches a direct solve of that operator."""
    grid, d, b = _newton_like_system(8.0)
    full = _to_grid(d, grid.mask)
    d_bar = np.broadcast_to(full.mean(axis=1)[:, None], full.shape)
    P = grid.As + sp.diags(d_bar[grid.mask])
    ref = scipy.sparse.linalg.spsolve(P.tocsc(), b)
    x = pde._preconditioner(grid, d)(b)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("preconditioner, scale", [("jacobi", 8.0),
                                                  ("ring-mean", 5e5)])
def test_gmres_restart_cycles(preconditioner, scale):
    """Systems whose first 20-iteration cycle cannot meet the tolerance, so
    the update x += Z y crosses cycles: the ring-mean preconditioner against
    a diagonal up to 5e5 times each row's factor converges in the third
    cycle (49 iterations), Jacobi runs all 60 and fails.  Either way each
    iteration is one solve, and the flag is the true residual test on the
    assembled J."""
    grid, d, b = _newton_like_system(scale)
    J = grid.As + sp.diags(d)
    diagonal = J.diagonal()
    solve = pde._preconditioner(grid, d) if preconditioner == "ring-mean" \
        else (lambda v: v / diagonal)
    solves = []

    def counted(v):
        solves.append(1)
        return solve(v)

    x, iters, converged = pde._gmres(grid.As, d, b, counted)
    assert iters > 20 and len(solves) == iters
    assert converged == (preconditioner == "ring-mean")
    assert converged == bool(
        np.linalg.norm(b - J @ x) <= 1e-8 * np.linalg.norm(b))
    if converged:
        ref = scipy.sparse.linalg.spsolve(J.tocsc(), b)
        assert np.linalg.norm(x - ref) <= 1e-7 * np.linalg.norm(ref)


def test_one_preconditioner_solve_per_krylov_iteration(monkeypatch):
    """Right preconditioning with the preconditioned vectors kept: one
    preconditioner solve per Krylov iteration and none per cycle, so
    M^{-1} v is never solved twice; the iterations count both grids'
    solves."""
    problem = _two_point_problem()
    solves = []
    build = pde._preconditioner

    def counted_build(grid, d):
        solve = build(grid, d)

        def counted(v):
            solves.append(grid)
            return solve(v)
        return counted

    monkeypatch.setattr(pde, "_preconditioner", counted_build)
    sol = solve_dirichlet(problem)
    assert sol.factorizations == 0
    assert len(solves) == sol.krylov_iters
    assert {grid.mask.shape for grid in solves} == {(64, 256), (32, 128)}


def test_gmres_happy_breakdown_returns_without_warning():
    """J e_k = 2 e_k exactly, so the Krylov space closes after one
    iteration with a zero subdiagonal; nothing may divide by it."""
    N = pde._grid(64, 0.75).As.shape[0]
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
    assert np.array_equal(solve_dirichlet(prob).u, sol.u)


@pytest.mark.parametrize("n", [33, 65, 129, 257])
@pytest.mark.parametrize("r", [0.5, 0.63, 0.7, 0.75])
def test_nested_grid_is_every_other_fine_node(n, r):
    """The grid of half the rings is every other ring and angle of the
    fine grid, bit for bit, with its mask and its circle; so slicing the
    fine grid's values gives the coarse nodes theirs, and the interpolated
    start keeps each coarse node's value at its fine copy."""
    N = (n - 1) // 2
    fine, coarse = pde._grid(N, r), pde._grid(N // 2, r)
    assert np.array_equal(coarse.nodes, fine.nodes[::2, ::2])
    assert np.array_equal(coarse.mask, fine.mask[::2, ::2])
    assert np.array_equal(coarse.circle, fine.circle[::2])
    index = np.zeros(fine.mask.shape, dtype=int)
    index[fine.mask] = np.arange(fine.As.shape[0])
    inject = index[::2, ::2][coarse.mask]
    assert np.array_equal(fine.nodes[fine.mask][inject],
                          coarse.nodes[coarse.mask])
    rng = np.random.default_rng(n)
    values = rng.standard_normal(fine.As.shape[0])
    assert np.array_equal(pde._full(fine, values)[::2, ::2][coarse.mask],
                          values[inject])
    uc = rng.standard_normal(coarse.As.shape[0])
    start = pde._interpolate(coarse, uc, rng.standard_normal(2 * N))
    assert start.shape == fine.mask.shape
    assert np.array_equal(start[::2, ::2], pde._full(coarse, uc))


@pytest.mark.parametrize("n", [67, 17])
def test_constant_start_where_no_grid_nests(n):
    """An odd number of rings (n = 67: 33), or an even one whose half would
    have fewer than the 8 rings of n = 17, solves from the constant start
    alone, bit for bit."""
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
    distinct nodes and circle."""
    calls = {"curvature": [], "boundary": []}

    def curvature(z):
        calls["curvature"].append(z)
        return -4.0 * np.abs(z) ** 2

    def boundary(xi):
        calls["boundary"].append(xi)
        return np.exp(np.real(xi))

    sol = solve_dirichlet(PdeProblem(257, 0.75, curvature, boundary))
    grid = pde._grid(128, 0.75)
    (z,), (xi,) = calls["curvature"], calls["boundary"]
    assert np.array_equal(z, grid.nodes[sol.mask])
    assert np.array_equal(xi, grid.circle)
    assert sol.residual_norm <= 1e-10


def test_nested_start_saves_a_newton_step():
    """On the two-point problem the nested start takes 2 fine Newton steps
    where the constant start takes 3.  The two answers differ by 1.4e-9,
    the constant start's own error: it stops at a scaled residual of
    3.5e-12, the nested one at 4e-16, and one more direct Newton step from
    the constant-start answer lands within 1e-12 of the nested one."""
    problem = _two_point_problem()
    sol = solve_dirichlet(problem)
    u, _, iters, _, _ = _constant_start(problem)
    assert (sol.newton_iters, iters) == (2, 3)
    assert np.max(np.abs(sol.u[sol.mask] - u)) <= 2e-9
    grid = pde._grid((problem.n - 1) // 2, problem.radius)
    kappa, log_b = pde._read(problem, grid)
    sk_e2u = grid.scale * kappa * np.exp(2.0 * u)
    J = grid.As + sp.diags(2.0 * sk_e2u)
    res = grid.As @ u + pde._boundary_term(grid, log_b) + sk_e2u
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
    assert np.array_equal(scalar.u, array.u)
    constant = constant_curvature_problem(33, 0.6, -4, const_boundary(2.0))
    assert np.array_equal(solve_dirichlet(constant).u, array.u)


@pytest.mark.parametrize("kappa", ["x", None, math.nan, -math.inf, 1.0,
                                   True, -1 + 0j, np.array([-1.0])])
def test_constant_curvature_refused_at_construction(kappa):
    with pytest.raises(InputError):
        constant_curvature_problem(33, 0.5, kappa, const_boundary(1.0))
