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

Discretization: one polar grid.  For n nodes per side, N = floor((n - 1)/2)
rings r_i = i h, h = radius/N, and M = 4N angles; ring N is the circle,
where the trace enters, and ring 0 the centre, one node.  Rings 1 to N - 1
take the conservative 5-point polar stencil, whose angular weight
h^2/(r_i^2 (2 - 2 cos(2 pi/M))) makes it exact on Re z and Im z, the centre
the row 4 (mean of ring 1 - u_0)/h^2, and every row is scaled to a unit
diagonal.  Each grid is built once (the four used last stay cached), and a
solve reads the trace once, on the circle, and the curvature once.

Damped Newton solves the nonlinear system; for kappa <= 0 the negated
Jacobian is an irreducibly diagonally dominant M-matrix.  The Jacobian is
the scaled stencil As plus an O(h^2) diagonal d, applied and never
assembled, so each Newton step is a restarted GMRES (Saad & Schultz, SIAM
J. Sci. Stat. Comput. 7, 1986) right-preconditioned with As + diag(d_bar),
d_bar each ring's mean of d: a fast-solver preconditioner as in Concus &
Golub (SIAM J. Numer. Anal. 10, 1973), solved exactly by one real FFT in
angle and one tridiagonal sweep per angular mode (Swarztrauber & Sweet,
SIAM J. Numer. Anal. 10, 1973), so nothing is factored.  This is inexact
Newton (Kelley, *Solving Nonlinear Equations with Newton's Method*, SIAM
2003); only a GMRES failure assembles and factors a Jacobian, for that step
alone.  GMRES keeps each preconditioned Krylov vector, as flexible GMRES
does (Saad, SIAM J. Sci. Comput. 14, 1993): one preconditioner solve per
Krylov iteration and none per restart cycle.

Nested iteration (Bank & Rose, Math. Comp. 39, 1982): for even N, the grid
of N/2 rings and M/2 angles is every other ring and angle, bit for bit, so
Newton first runs there on the fine grid's data, sliced, and its solution
interpolated bilinearly in r and theta is the fine Newton's start, within
O(h^2) of the fine solution: it saves the fine grid a Newton step.
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

# Fewest grid nodes per side of a problem (8 rings), and of a nested grid.
_MIN_NODES = 17


def _spacing(n: int, radius: float) -> float:
    """h = radius/N for the N = floor((n - 1)/2) rings of n nodes per side."""
    return radius / ((n - 1) // 2)


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
    calls it once, on the distinct interior nodes in mask order, and checks it
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
        """The grid's h: for odd n, 2 radius/(n - 1)."""
        return _spacing(self.n, self.radius)


@dataclass(frozen=True, eq=False)
class PdeSolution:
    """``u`` on the whole (N, M) polar grid, every entry a value: ring 0
    is the centre, its M entries one value, so ``u[0, 0]`` is the centre.
    ``mask`` (the cached grid's, read-only) marks each distinct node once:
    the centre at [0, 0] and all of rings 1 to N - 1.

    ``newton_iters`` counts the Newton steps on the grid of ``u``.
    ``factorizations`` and ``krylov_iters`` count the linear-algebra work of
    the whole solve, on the nested coarse grid too when there is one (see
    ``solve_dirichlet``): ``factorizations`` only the Jacobians factored
    after a GMRES failure, ``krylov_iters`` the preconditioned GMRES
    iterations, each one FFT-and-tridiagonal preconditioner solve.

    ``residual_norm`` is the max-norm of the residual with every row scaled
    to a unit diagonal (a row's other entries then sum to at most 1, so the
    norm is comparable across grid sizes and its double-precision floor is
    far below the 1e-10 acceptance threshold, which the raw residual's
    ~1/h^2 row scale would not allow on fine grids).
    """

    u: np.ndarray
    mask: np.ndarray
    residual_norm: float
    newton_iters: int
    factorizations: int
    krylov_iters: int


@dataclass(frozen=True, eq=False)
class _Grid:
    """The (N, radius)-only part of the discretization, arrays read-only.

    ``nodes``: the (N, M) grid r_i e^{i theta_j}; ``mask``: its distinct
    nodes, in whose (row-major) order the unknowns run; ``circle``: the M
    points radius e^{i theta_j}.  ``As``: the stencil with unit diagonal,
    so that As u + g is ``scale`` times the discrete Laplacian of u, g the
    boundary term (``_boundary_term``).  ``inward``, ``outward`` and
    ``angular``: each ring's coefficient in As of its inner, outer (for ring
    N - 1, the circle) and each angular neighbour; the centre's ``outward``
    1 is its coefficient of ring 1's mean.
    """

    nodes: np.ndarray
    mask: np.ndarray
    circle: np.ndarray
    As: sp.csr_matrix
    scale: np.ndarray
    inward: np.ndarray
    outward: np.ndarray
    angular: np.ndarray


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
def _grid(rings: int, radius: float) -> _Grid:
    """The polar grid of ``rings`` rings on the disk of ``radius``, built on
    first use.  Four grids stay cached, so a caller alternating two sizes,
    each with its nested grid, builds each grid once."""
    N, M = rings, 4 * rings
    # products of whole numbers and one step each, so that the grid of
    # N/2 rings is every other ring and angle of this one, bit for bit
    ray = np.exp(1j * (np.arange(M) * (2.0 * np.pi / M)))
    nodes = (np.arange(N) * (radius / N))[:, None] * ray
    mask = np.ones((N, M), dtype=bool)
    mask[0, 1:] = False
    i = np.arange(1.0, N)
    w = 1.0 / (i * i * 4.0 * np.sin(np.pi / M) ** 2)
    diag = 2.0 + 2.0 * w  # minus h^2 times the stencil's diagonal
    inward, outward, angular = (
        np.concatenate(([first], rest / diag))
        for first, rest in ((0.0, 1.0 - 0.5 / i), (1.0, 1.0 + 0.5 / i),
                            (0.0, w))
    )
    h2 = (radius / N) ** 2
    scale = np.concatenate(([h2 / 4.0], np.repeat(h2 / diag, M)))

    size = 1 + (N - 1) * M
    ids = np.zeros((N, M), dtype=int)  # ring 0 is the centre, unknown 0
    ids[1:] = np.arange(1, size).reshape(N - 1, M)
    ring = ids[1:]
    entries = [
        (np.arange(size), np.arange(size), -1.0),
        (0, ids[1], outward[0] / M),  # the centre: ring 1's mean
        (ring, ids[:-1], inward[1:, None]),  # ring 1's inward is the centre
        (ring[:-1], ids[2:], outward[1:-1, None]),
        (ring, np.roll(ring, 1, axis=1), angular[1:, None]),
        (ring, np.roll(ring, -1, axis=1), angular[1:, None]),
    ]
    rows, cols, vals = (
        np.concatenate([a.ravel() for a in arrays])
        for arrays in zip(*(np.broadcast_arrays(*e) for e in entries))
    )
    As = sp.csr_matrix((vals, (rows, cols)), shape=(size, size))
    circle = radius * ray
    for arr in (nodes, mask, circle, scale, inward, outward, angular,
                As.data, As.indices, As.indptr):
        arr.flags.writeable = False
    return _Grid(nodes, mask, circle, As, scale, inward, outward, angular)


def _full(grid: _Grid, x: np.ndarray) -> np.ndarray:
    """``x``, one value per unknown, on the whole (N, M) grid of ``grid``:
    the centre's value fills ring 0."""
    out = np.empty(grid.mask.shape)
    out[1:] = x[1:].reshape(out.shape[0] - 1, -1)
    out[0] = x[0]
    return out


def _preconditioner(grid: _Grid, d: np.ndarray) -> Callable:
    """The solve of As + diag(d_bar), d_bar each ring's mean of ``d``, on
    ``grid`` (Swarztrauber & Sweet, SIAM J. Numer. Anal. 10, 1973).

    Each ring's row is the same at every angle, so a real FFT in angle
    splits the system into one tridiagonal system in r per angular mode,
    and one Thomas sweep, vectorised over the modes, solves them all.  The
    centre, one value on all of ring 0, meets ring 1 in mode 0 alone,
    through ring 1's mean.  The sweep's coefficients are computed here, once
    per Newton step; nothing is factored or kept.
    """
    N, M = grid.mask.shape
    a, c = grid.inward, grid.outward
    modes = np.cos(np.arange(M // 2 + 1) * (2.0 * np.pi / M))
    d_bar = _full(grid, d).mean(axis=1)
    diag = (d_bar - 1.0)[:, None] + 2.0 * grid.angular[:, None] * modes
    inv, cp = np.empty_like(diag), np.zeros_like(diag)
    inv[0] = 1.0 / diag[0]
    cp[0, 0] = c[0] * inv[0, 0]
    for i in range(1, N):
        inv[i] = 1.0 / (diag[i] - a[i] * cp[i - 1])
        cp[i] = c[i] * inv[i]

    def solve(v):
        X = np.fft.rfft(_full(grid, v), axis=1)
        X[0] *= inv[0]
        for i in range(1, N):
            X[i] -= a[i] * X[i - 1]
            X[i] *= inv[i]
        for i in range(N - 2, -1, -1):
            X[i] -= cp[i] * X[i + 1]
        return np.fft.irfft(X, M, axis=1)[grid.mask]

    return solve


def _interpolate(coarse: _Grid, uc: np.ndarray, log_b: np.ndarray):
    """``uc`` on ``coarse``, with ``log_b`` on its circle, interpolated
    bilinearly in r and theta onto the (N, M) grid of twice its rings and
    angles."""
    ext = np.vstack((_full(coarse, uc), log_b))
    R = np.empty((2 * ext.shape[0] - 1, ext.shape[1]))
    R[::2], R[1::2] = ext, 0.5 * (ext[:-1] + ext[1:])
    F = np.empty((R.shape[0] - 1, 2 * R.shape[1]))
    F[:, ::2], F[:, 1::2] = R[:-1], 0.5 * (R[:-1] + np.roll(R[:-1], -1, 1))
    return F


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
    called once, at the M points of the circle, and then
    ``problem.curvature`` once, at the distinct interior nodes in mask
    order."""
    b = _values(problem.boundary(grid.circle), grid.circle.size,
                "boundary trace")
    if np.any(b <= 0.0) or not np.all(np.isfinite(b)):
        raise InputError("boundary trace must be positive")
    kappa = _values(problem.curvature(grid.nodes[grid.mask]),
                    grid.As.shape[0], "curvature")
    if np.any(kappa > 0.0) or not np.all(np.isfinite(kappa)):
        raise InputError("curvature must be nonpositive and finite")
    return kappa, np.log(b)


def _boundary_term(grid: _Grid, log_b: np.ndarray) -> np.ndarray:
    """The boundary term g of As u + g on ``grid``: the log trace ``log_b``
    on the circle times ring N - 1's outward coefficient, in ring N - 1's
    rows."""
    g = np.zeros(grid.As.shape[0])
    g[-log_b.size:] = grid.outward[-1] * log_b
    return g


def _newton(grid: _Grid, kappa, log_b, u=None):
    """Damped Newton on ``grid`` for curvature ``kappa`` at its unknowns and
    log trace ``log_b`` on its circle, from ``u`` or else from the constant
    u = min log b (for kappa <= 0 this sits below the solution, where Newton
    for this monotone problem is reliable).

    Every step solves with the Jacobian As + diag(d), d = 2 scale kappa
    e^{2u}, applied and never assembled, by GMRES to a true relative
    residual of 1e-8, right-preconditioned with ``_preconditioner(grid,
    d)``.  Each trial iterate's e^{2u} is kept for its residual and, once
    accepted, the Jacobian's diagonal.  Should GMRES not reach the
    tolerance, the Jacobian is assembled, factored and solved directly for
    that step alone.  Convergence is decided on the exact nonlinear residual.

    Returns (u, residual_norm, newton_iters, factorizations, krylov_iters),
    counting only the Jacobians factored here.
    """
    As = grid.As
    gs = _boundary_term(grid, log_b)
    sk = grid.scale * kappa
    if u is None:
        u = np.full(As.shape[0], log_b.min())

    def scaled_residual(uv):
        """The residual at ``uv`` and e^{2 uv}, which the Jacobian reuses."""
        e2u = np.exp(2.0 * uv)
        return As @ uv + gs + sk * e2u, e2u

    res, e2u = scaled_residual(u)
    rnorm = float(np.max(np.abs(res)))
    iters = krylov_iters = factorizations = 0

    while rnorm > RESIDUAL_TOL and iters < MAX_NEWTON_ITERS:
        d = 2.0 * sk * e2u
        step, its, converged = _gmres(As, d, -res, _preconditioner(grid, d))
        krylov_iters += its
        if not converged:
            step = _factor(As + sp.diags(d))(-res)
            factorizations += 1
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

    The grid of N = floor((n - 1)/2) rings is looked up once and the
    problem's data read once from it by ``_read``.  When N is even and the
    grid of N/2 rings still has the 8 of the smallest problem, that grid is
    every other ring and angle of this one: the same Newton runs there
    first, on the curvature and trace values the fine grid read, sliced,
    and its solution, interpolated bilinearly in r and theta onto the fine
    grid, is the fine Newton's start (Bank & Rose, Math. Comp. 39, 1982).
    Every other Newton run starts from the constant min log b of
    ``_newton``.

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
    rings, radius = (problem.n - 1) // 2, problem.radius
    grid = _grid(rings, radius)
    kappa, log_b = _read(problem, grid)
    u, factorizations, krylov_iters = None, 0, 0
    if rings % 2 == 0 and rings >= _MIN_NODES - 1:
        coarse = _grid(rings // 2, radius)
        uc, _, _, factorizations, krylov_iters = _newton(
            coarse, _full(grid, kappa)[::2, ::2][coarse.mask], log_b[::2])
        u = _interpolate(coarse, uc, log_b[::2])[grid.mask]
    u, rnorm, iters, f, k = _newton(grid, kappa, log_b, u)
    return PdeSolution(_full(grid, u), grid.mask, rnorm, iters,
                       factorizations + f, krylov_iters + k)


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
    nodes = _grid((reduced.n - 1) // 2, reduced.radius).nodes[sol.mask]
    lam_pde = divisor_poly(C)(nodes) * np.exp(sol.u[sol.mask])
    lam_ref = _pullback(B, nodes)
    keep = lam_ref > 0.0
    return float(
        np.max(np.abs(lam_pde[keep] - lam_ref[keep]) / lam_ref[keep])
    )
