"""Independent elliptic check for curvature -4 densities.

The log-density u = log(lambda) of a conformal density with curvature kappa
solves  Delta u = -kappa(z) e^{2u}.  Solving that Dirichlet problem on a
sub-disk from boundary data alone therefore reconstructs the density with no
reference to how it was first produced, which makes the PDE solve an oracle
for the pullback construction: feed it only the boundary trace, compare the
interior.

Densities with zeros are handled by dividing out the divisor first: with
S(z) = prod (z - z_j)^{m_j}, the function u~ = log(lambda/|S|) solves the
same equation with curvature -4|S(z)|^2 and boundary data b/|S|, and is
smooth across the zeros.  Recomposing |S| e^{u~} restores the density.

Discretization: Cartesian grid masked to the disk, with cut-cell (unequal
arm) 5-point stencils where an arm crosses the circle (Shortley & Weller,
J. Appl. Phys. 9, 1938), so the boundary data enters exactly on the circle.
The stencil matrix depends only on the grid size and the radius, so each
such grid is built once (the four grids used last stay cached) and holds only
what the solves read: the Laplacian scaled by h^2/4, that factor h2, and the
scaled Laplacian's LU.  Each solve looks its grid up once and reads the
problem's data once, in one reader: the boundary trace at every arm's
crossing point, where it enters only the right-hand side, and then the
curvature at the interior nodes.  The nonlinear system is solved by damped
Newton; for kappa <= 0 the negated Jacobian is an irreducibly diagonally
dominant M-matrix, so the linear solves are well posed.  The Jacobian is
the grid's Laplacian plus an O(h^2) diagonal, so every Newton step is taken
by a restarted GMRES (Saad & Schultz,
SIAM J. Sci. Stat. Comput. 7, 1986) right-preconditioned with the Laplacian's
LU, the fixed fast-solver preconditioner of Concus & Golub (*Use of fast
direct methods for the efficient numerical solution of nonseparable elliptic
equations*, SIAM J. Numer. Anal. 10, 1973), in an inexact Newton iteration
(Kelley, *Solving Nonlinear Equations with Newton's Method*, SIAM 2003).  The
Jacobian is applied as the Laplacian times a vector plus the diagonal times
it, never assembled; only a GMRES failure assembles and factors one, for that
solve alone.  GMRES keeps each preconditioned Krylov vector, as flexible
GMRES does (Saad, SIAM J. Sci. Comput. 14, 1993), so a Newton step costs one
LU solve per Krylov iteration and none per restart cycle.

Nested iteration (Bank & Rose, Math. Comp. 39, 1982): on an odd grid of n
nodes per side, the grid of (n + 1)/2 nodes is every other node of it, bit
for bit, so the same Newton is first run there, on the curvature and trace
values the fine grid read, and its solution interpolated bilinearly onto the
fine grid is the fine Newton's start.  That start is within O(h^2) of the
fine solution, which saves the fine grid a Newton step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .blaschke import CriticalSet, FiniteBlaschke, _pullback, critical_points
from .disk import BOUNDARY_TOL
from .errors import (
    InputError, NumericalError, _index, _nonpositive, _positive,
)

#: Scaled-residual convergence/report threshold (see PdeSolution.residual_norm).
RESIDUAL_TOL = 1e-10

MAX_NEWTON_ITERS = 100

# Relative true-residual tolerance ||b - J x|| <= _KRYLOV_RTOL ||b|| of the
# right-preconditioned GMRES Newton steps, J applied and never assembled:
# tight enough that the iterates match exactly solved steps to ~1e-12, so
# the iteration count and the convergence decision are those of exact
# Newton.
_KRYLOV_RTOL = 1e-8

# Fewest grid nodes per side of a problem, and of a nested coarse grid.
_MIN_NODES = 17


def divisor_poly(C: CriticalSet):
    """Callable |S(z)| for S(z) = prod (z - z_j)^{m_j} over the divisor."""

    entries = C.entries

    def magnitude(z):
        z = np.asarray(z, dtype=complex)
        out = np.ones(z.shape, dtype=float)
        for p, m in entries:
            out *= np.abs(z - p) ** m
        return out

    return magnitude


@dataclass(frozen=True, eq=False)
class PdeProblem:
    """Dirichlet problem  Delta u = -kappa e^{2u},  u = log b  on |z| = radius.

    ``curvature`` maps complex grid nodes to kappa (``solve_dirichlet``
    calls it once, on the interior nodes in mask order, and checks it
    nonpositive and finite there); ``boundary`` maps complex boundary points
    to the positive trace b.  Each returns one real value per point, or one
    real scalar for all of them.
    """

    n: int
    radius: float
    curvature: Callable
    boundary: Callable

    def __post_init__(self):
        if _index(self.n, "PDE grid size") < _MIN_NODES:
            raise InputError(
                f"PDE grid needs at least {_MIN_NODES} nodes per side"
            )
        radius = _positive(self.radius, "PDE sub-disk radius")
        if not radius < 1.0:
            raise InputError("PDE sub-disk radius must lie in (0, 1)")
        object.__setattr__(self, "radius", radius)
        if not (callable(self.curvature) and callable(self.boundary)):
            raise InputError("PDE curvature and boundary must be callables")

    @property
    def spacing(self) -> float:
        return 2.0 * self.radius / (self.n - 1)


@dataclass(frozen=True, eq=False)
class PdeSolution:
    """``u`` on the full grid (NaN outside the disk), with the interior mask
    (the cached grid's, read-only).

    ``newton_iters`` counts the Newton steps on the grid of ``u``.
    ``factorizations`` and ``krylov_iters`` count the LU work of the whole
    solve, on the nested coarse grid too when there is one (see
    ``solve_dirichlet``): ``factorizations`` is one per Laplacian the solve
    built and factored (grids it found cached cost none), plus one per
    Jacobian factored after a GMRES failure; ``krylov_iters`` counts the
    preconditioned GMRES iterations, each of which costs one LU solve.

    ``residual_norm`` is the max-norm of the residual of the h^2/4-scaled
    system (row sums of the scaled Laplacian are O(1), so the norm is
    comparable across grid sizes and its double-precision floor is far below
    the 1e-10 acceptance threshold, which the raw residual's ~8/h^2 row
    scale would not allow on fine grids).
    """

    u: np.ndarray
    mask: np.ndarray
    residual_norm: float
    newton_iters: int
    factorizations: int
    krylov_iters: int


@dataclass(frozen=True, eq=False)
class _Grid:
    """The (n, radius)-only part of the discretization, arrays read-only.

    ``nodes``/``mask``: the complex grid and its interior; ``cut_rows``,
    ``cut_coefs`` and ``crossings``: each cut arm's row, stencil coefficient
    (of the unscaled Laplacian) and crossing point on the circle; ``As``: the
    cut-cell Laplacian on the interior nodes times ``h2`` = h^2/4, and
    ``lu`` the solve of its sparse LU, the Newton preconditioner.
    """

    nodes: np.ndarray
    mask: np.ndarray
    cut_rows: np.ndarray
    cut_coefs: np.ndarray
    crossings: np.ndarray
    As: sp.csr_matrix
    h2: float
    lu: Callable


def _factor(M) -> Callable:
    """The solve of M's sparse LU, applying M^{-1}: symmetric minimum-degree
    ordering and no pivoting, since -M is a diagonally dominant M-matrix."""
    return spla.splu(
        M.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    ).solve


def _gmres(As, d, b, solve):
    """Restarted GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986)
    for (As + diag d) x = b, right-preconditioned with ``solve``, from x = 0.

    Solves J M^{-1} t = b over the Arnoldi basis V and sets x = M^{-1} V y,
    so the Arnoldi residual is the true residual b - J x: it stops at
    ||b - J x|| <= _KRYLOV_RTOL ||b||, re-checked on J itself at the end of
    each cycle of 20 iterations, for at most 3 cycles.  J is applied, never
    assembled.  Each z_j = M^{-1} v_j, solved once to apply J M^{-1}, is
    kept, as in flexible GMRES (Saad, SIAM J. Sci. Comput. 14, 1993), so a
    cycle ends with x += Z y and no solve: each iteration costs one
    ``solve`` and a cycle none.  Returns (x, iterations, converged).
    """
    tol = _KRYLOV_RTOL * np.linalg.norm(b)
    x, r, iters = np.zeros_like(b), b, 0
    # np.empty: only the rows a cycle writes become resident
    V = np.empty((20, b.size))
    for _ in range(3):
        beta = np.linalg.norm(r)
        if beta <= tol:
            return x, iters, True
        H, g = np.zeros((21, 20)), np.zeros(21)
        V[0], g[0] = r / beta, beta
        Z = []  # the z_j as ``solve`` returns them, neither copied nor padded
        for j in range(20):
            Z.append(solve(V[j]))
            w = As @ Z[j] + d * Z[j]
            for _ in range(2):  # Gram-Schmidt twice, as stable as modified
                h = V[: j + 1] @ w
                w -= h @ V[: j + 1]
                H[: j + 1, j] += h
            H[j + 1, j] = np.linalg.norm(w)
            iters += 1
            Hj, gj = H[: j + 2, : j + 1], g[: j + 2]
            y = np.linalg.lstsq(Hj, gj, rcond=None)[0]
            # tested before dividing by H[j + 1, j]: a zero subdiagonal (a
            # happy breakdown) leaves a zero residual; the last iteration of
            # a cycle needs no next vector
            if np.linalg.norm(Hj @ y - gj) <= tol or j == 19:
                break
            V[j + 1] = w / H[j + 1, j]
        for yj, zj in zip(y, Z):
            x += yj * zj
        r = b - (As @ x + d * x)
    return x, iters, bool(np.linalg.norm(r) <= tol)


@functools.lru_cache(maxsize=4)
def _grid(n: int, radius: float) -> _Grid:
    """The cut-cell grid of (n, radius) with its scaled Laplacian factored,
    built on first use.  Four grids stay cached, so a caller alternating two
    sizes, each with its nested coarse grid, factors each grid once."""
    r, h = radius, 2.0 * radius / (n - 1)
    xs = np.linspace(-r, r, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    nodes = X + 1j * Y
    mask = np.abs(nodes) < r
    N = int(mask.sum())
    if N == 0:
        raise InputError("no interior nodes; grid too coarse for the radius")
    # one ring of -1 around the grid: an off-grid neighbour is a cut arm
    idx = -np.ones((n + 2, n + 2), dtype=int)
    idx[1:-1, 1:-1][mask] = np.arange(N)
    ii, jj = np.nonzero(mask)
    pos = nodes[mask]

    rows, cols, vals = [], [], []
    diag = np.zeros(N)
    cut_rows, cut_coefs, crossings = [], [], []
    for axis, (di, dj) in enumerate([(1, 0), (0, 1)]):
        arms, nbs = [], []  # toward the -, + neighbours
        for sign in (-1, 1):
            nb = idx[ii + 1 + sign * di, jj + 1 + sign * dj]
            cut = nb < 0
            p = pos[cut]
            # walk from p toward the boundary along the axis; the other
            # coordinate is frozen, so the crossing solves a quadratic
            # with only the axis coordinate free
            fixed, coord = (p.imag, p.real) if axis == 0 else (p.real, p.imag)
            target = sign * np.sqrt(np.maximum(r * r - fixed * fixed, 0.0))
            arm = np.full(N, h)
            arm[cut] = np.clip((target - coord) * sign, 1e-12 * h, h)
            crossings.append(
                target + 1j * fixed if axis == 0 else fixed + 1j * target
            )
            arms.append(arm)
            nbs.append(nb)
        hl, hr = arms
        diag -= 2.0 / (hl * hr)
        cl, cr = 2.0 / (hl * (hl + hr)), 2.0 / (hr * (hl + hr))
        for nb, c in zip(nbs, (cl, cr)):
            have = nb >= 0
            rows.append(np.nonzero(have)[0])
            cols.append(nb[have])
            vals.append(c[have])
            cut_rows.append(np.nonzero(~have)[0])
            cut_coefs.append(c[~have])

    rows.append(np.arange(N))
    cols.append(np.arange(N))
    vals.append(diag)
    A = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(N, N),
    )
    h2 = h ** 2 / 4.0
    As = A * h2
    lu = _factor(As)
    cut_rows, cut_coefs, crossings = (
        np.concatenate(a) for a in (cut_rows, cut_coefs, crossings)
    )
    for arr in (nodes, mask, cut_rows, cut_coefs, crossings, As.data,
                As.indices, As.indptr):
        arr.flags.writeable = False
    return _Grid(nodes, mask, cut_rows, cut_coefs, crossings, As, h2, lu)


@functools.lru_cache(maxsize=2)
def _transfer(n: int, radius: float):
    """The maps between the odd grid of (n, radius) and its nested grid of
    (n + 1)/2 nodes, whose nodes are the fine grid's of even index, bit for
    bit (both are ``np.linspace(-radius, radius, .)``, and the coarse step
    is the fine one doubled, exactly).

    Returns (inject, cross, interpolate): the fine interior index of each
    coarse interior node, the fine crossing index of each coarse crossing,
    and the sparse bilinear interpolation from coarse to fine interior
    values, which averages only the coarse neighbours inside the disk.  The
    radius is a whole number of fine steps, so every fine interior node has
    at least one.
    """
    fine, coarse = _grid(n, radius), _grid((n + 1) // 2, radius)
    N, Nc = fine.As.shape[0], coarse.As.shape[0]
    index = -np.ones(fine.mask.shape, dtype=int)
    index[fine.mask] = np.arange(N)
    inject = index[::2, ::2][coarse.mask]
    where = {c: k for k, c in enumerate(fine.crossings.tolist())}
    cross = np.array([where[c] for c in coarse.crossings.tolist()])
    coarse_index = -np.ones(coarse.mask.shape, dtype=int)
    coarse_index[coarse.mask] = np.arange(Nc)
    # the coarse corners of each fine node's cell, doubled along an axis
    # where the node sits on a coarse line; the duplicates sum
    ii, jj = np.nonzero(fine.mask)
    cols = np.concatenate([coarse_index[a, b]
                           for a in (ii // 2, (ii + 1) // 2)
                           for b in (jj // 2, (jj + 1) // 2)])
    rows, inside = np.tile(np.arange(N), 4), cols >= 0
    P = sp.csr_matrix((np.ones(inside.sum()), (rows[inside], cols[inside])),
                      shape=(N, Nc))
    return inject, cross, sp.diags(1.0 / P.sum(axis=1).A1) @ P


def _values(result, size: int, name: str) -> np.ndarray:
    """A callable's ``result`` as ``size`` floats: a real array of that
    length, or a real scalar broadcast to it; anything else, a complex or
    boolean array among them, raises ``InputError``."""
    a = np.asarray(result)
    if a.dtype.kind not in "iuf" or a.shape not in ((), (size,)):
        raise InputError(
            f"{name} must be {size} real values or one, "
            f"got {a.dtype} of shape {a.shape}"
        )
    return np.full(size, float(a)) if a.ndim == 0 else a.astype(float)


def _read(problem: PdeProblem, grid: _Grid):
    """(kappa, log_b) of ``problem`` on ``grid``: ``problem.boundary`` is
    called once, at every crossing point, and then ``problem.curvature``
    once, at the interior nodes in mask order."""
    b = _values(problem.boundary(grid.crossings), grid.crossings.size,
                "boundary trace")
    if np.any(b <= 0.0) or not np.all(np.isfinite(b)):
        raise InputError("boundary trace must be positive")
    kappa = _values(problem.curvature(grid.nodes[grid.mask]),
                    grid.As.shape[0], "curvature")
    if np.any(kappa > 0.0) or not np.all(np.isfinite(kappa)):
        raise InputError("curvature must be nonpositive and finite")
    return kappa, np.log(b)


def _boundary_term(grid: _Grid, log_b: np.ndarray) -> np.ndarray:
    """The boundary term g of Delta_h u = A u + g on ``grid``: the
    contributions of the log trace ``log_b`` at its crossings, through the
    arms cut by the circle, to the unscaled stencil."""
    g = np.zeros(grid.As.shape[0])
    np.add.at(g, grid.cut_rows, grid.cut_coefs * log_b)
    return g


def _newton(grid: _Grid, kappa, log_b, u=None):
    """Damped Newton on ``grid`` for curvature ``kappa`` at its interior
    nodes and log trace ``log_b`` at its crossings, from ``u`` or else from
    the constant u = min log b (for kappa <= 0 this sits below the solution,
    where Newton for this monotone problem is reliable).

    The Jacobian is As + diag(2 h^2/4 kappa e^{2u}), the grid's scaled
    Laplacian plus an O(h^2) diagonal, so every Newton step, the first
    included, is solved by GMRES right-preconditioned with the LU of As,
    which the grid factors once for all solves on it (Concus & Golub, SIAM
    J. Numer. Anal. 10, 1973), to a true relative residual of 1e-8, with
    the Jacobian applied and never assembled: one LU solve per Krylov
    iteration and none per restart cycle.  Each trial iterate's e^{2u} is
    kept for its residual and, once accepted, the Jacobian's diagonal.
    Should GMRES not reach the tolerance, the current Jacobian is assembled,
    factored, solved directly and kept as this solve's preconditioner (never
    cached), so the worst case is one factorization per iteration.
    Convergence is always decided on the exact nonlinear residual.

    Returns (u, residual_norm, newton_iters, factorizations, krylov_iters),
    counting only the Jacobians factored here.
    """
    As, h2 = grid.As, grid.h2
    gs = _boundary_term(grid, log_b) * h2
    if u is None:
        u = np.full(As.shape[0], log_b.min())

    def scaled_residual(uv):
        """The residual at ``uv`` and e^{2 uv}, which the Jacobian reuses."""
        e2u = np.exp(2.0 * uv)
        return As @ uv + gs + h2 * kappa * e2u, e2u

    res, e2u = scaled_residual(u)
    rnorm = float(np.max(np.abs(res)))
    iters = krylov_iters = factorizations = 0
    precond = grid.lu

    while rnorm > RESIDUAL_TOL and iters < MAX_NEWTON_ITERS:
        d = 2.0 * h2 * kappa * e2u
        step, its, converged = _gmres(As, d, -res, precond)
        krylov_iters += its
        if not converged:
            precond = _factor(As + sp.diags(d))
            factorizations += 1
            step = precond(-res)
        for alpha in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125):
            trial = u + alpha * step
            tres, te2u = scaled_residual(trial)
            tnorm = float(np.max(np.abs(tres)))
            if tnorm < rnorm:
                u, res, e2u, rnorm = trial, tres, te2u, tnorm
                break
        else:
            raise NumericalError(
                f"Newton stalled at scaled residual {rnorm:.3e}"
            )
        iters += 1
    if rnorm > RESIDUAL_TOL:
        raise NumericalError(
            f"no convergence in {MAX_NEWTON_ITERS} iterations; "
            f"final scaled residual {rnorm:.3e}"
        )
    return u, rnorm, iters, factorizations, krylov_iters


def solve_dirichlet(problem: PdeProblem) -> PdeSolution:
    """Damped Newton for the discretized problem (see ``_newton``).

    The grid of (n, radius) is looked up once and the problem's data read
    once from it by ``_read``.  When n is odd and (n + 1)/2 is at least 17,
    the fewest a problem may have, the grid of (n + 1)/2 nodes nests in it:
    the same Newton runs there first, on the curvature and trace values the
    fine grid read at its nodes and crossings, and its solution,
    interpolated bilinearly onto the fine interior (only the coarse
    neighbours inside the disk are averaged), is the fine Newton's start
    (Bank & Rose, Math. Comp. 39, 1982).  Every other Newton run starts from
    the constant min log b of ``_newton``.

    Raises
    ------
    InputError
        If the curvature or the boundary callable does not return one real
        value per point or one real scalar, if a curvature value is positive
        or not finite, or if a trace value is not positive and finite.
    NumericalError
        If the scaled residual on either grid has not reached RESIDUAL_TOL
        after MAX_NEWTON_ITERS damped iterations (final residual in the
        message).
    """
    n, radius = problem.n, problem.radius
    nested = n % 2 == 1 and (n + 1) // 2 >= _MIN_NODES
    misses = _grid.cache_info().misses
    grid = _grid(n, radius)
    if nested:
        coarse = _grid((n + 1) // 2, radius)
        inject, cross, interpolate = _transfer(n, radius)
    factorizations = _grid.cache_info().misses - misses
    kappa, log_b = _read(problem, grid)
    u, krylov_iters = None, 0
    if nested:
        uc, _, _, f, krylov_iters = _newton(coarse, kappa[inject],
                                            log_b[cross])
        factorizations += f
        u = interpolate @ uc
    u, rnorm, iters, f, k = _newton(grid, kappa, log_b, u)
    mask = grid.mask
    full = np.full(mask.shape, np.nan)
    full[mask] = u
    return PdeSolution(full, mask, rnorm, iters, factorizations + f,
                       krylov_iters + k)


def constant_curvature_problem(
    n: int, radius: float, kappa: float, boundary: Callable
) -> PdeProblem:
    """The problem of the constant curvature ``kappa``, a finite real
    number <= 0."""
    kappa = _nonpositive(kappa, "PDE curvature")
    return PdeProblem(n, radius, lambda z: kappa, boundary)


def divisor_reduced_problem(
    C: CriticalSet, radius: float, boundary: Callable, n: int
) -> PdeProblem:
    """Problem for u~ = log(lambda/|S|) given the trace of lambda itself.

    The zeros of the target density are divided out: curvature becomes
    -4 |S|^2 and the boundary data b/|S|; both are smooth and positive, so
    the reduced problem has a classical solution even though log(lambda)
    itself diverges at the divisor.  Divisor points may lie anywhere off
    the sub-disk circle (within ``BOUNDARY_TOL`` of it they are refused).
    """
    smag = divisor_poly(C)

    def reduced_boundary(xi):
        return _values(boundary(xi), np.size(xi), "boundary trace") / smag(xi)

    problem = PdeProblem(
        n, radius, lambda z: -4.0 * smag(z) ** 2, reduced_boundary
    )
    if any(abs(abs(p) - problem.radius) <= BOUNDARY_TOL
           for p, _ in C.entries):
        raise InputError("divisor point on the sub-disk boundary")
    return problem


def oracle_validate(B: FiniteBlaschke, radius: float, n: int) -> float:
    """Reconstruct the pullback density of ``B`` from boundary data only.

    Takes the trace of |B'|/(1-|B|^2) on |z| = radius, runs the
    divisor-reduced Dirichlet solve, recomposes |S| e^{u~}, and returns the
    largest relative interior deviation from the directly evaluated
    pullback.  Should be O(h^2).  A constant ``B`` has no pullback density
    and is refused before any grid is built.
    """
    if not B.zeros:
        raise InputError("a constant product has no pullback density")
    C = critical_points(B)
    trace = functools.partial(_pullback, B)
    reduced = divisor_reduced_problem(C, radius, trace, n)
    sol = solve_dirichlet(reduced)
    nodes = _grid(reduced.n, reduced.radius).nodes[sol.mask]  # cached
    lam_pde = divisor_poly(C)(nodes) * np.exp(sol.u[sol.mask])
    lam_ref = _pullback(B, nodes)
    keep = lam_ref > 0.0
    return float(
        np.max(np.abs(lam_pde[keep] - lam_ref[keep]) / lam_ref[keep])
    )
