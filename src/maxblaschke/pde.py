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
The stencil matrix depends only on the grid size and the radius; the
boundary trace is read once per assembly, at every arm's crossing point, and
enters only the right-hand side.  The nonlinear system is solved by damped
Newton; for kappa <= 0 the Jacobian is an irreducibly diagonally dominant
M-matrix, so the linear solves are well posed.  The Jacobian differs from
step to step only in its diagonal, so it is factored once and later Newton
steps are taken by GMRES preconditioned with that LU (inexact Newton; Kelley,
*Solving Nonlinear Equations with Newton's Method*, SIAM 2003).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .blaschke import CriticalSet, FiniteBlaschke, critical_points
from .errors import InputError, NumericalError
from .metrics import _pullback

#: Scaled-residual convergence/report threshold (see PdeSolution.residual_norm).
RESIDUAL_TOL = 1e-10

MAX_NEWTON_ITERS = 100

# Relative tolerance of the preconditioned GMRES Newton steps: tight enough
# that the iterates match exactly solved steps to ~1e-12, so the iteration
# count and the convergence decision are those of exact Newton.
_KRYLOV_RTOL = 1e-8


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

    ``curvature`` maps complex grid nodes to kappa (checked nonpositive and
    finite on the grid by ``solve_dirichlet``); ``boundary`` maps complex
    boundary points to the positive trace b.
    """

    n: int
    radius: float
    curvature: Callable
    boundary: Callable

    def __post_init__(self):
        if self.n < 17:
            raise InputError("PDE grid needs at least 17 nodes per side")
        if not 0.0 < self.radius < 1.0:
            raise InputError("PDE sub-disk radius must lie in (0, 1)")
        if not (callable(self.curvature) and callable(self.boundary)):
            raise InputError("PDE curvature and boundary must be callables")

    def curvature_at(self, z):
        return np.asarray(self.curvature(z), dtype=float)

    @property
    def spacing(self) -> float:
        return 2.0 * self.radius / (self.n - 1)


@dataclass(frozen=True, eq=False)
class PdeSolution:
    """``u`` on the full grid (NaN outside the disk), with the interior mask.

    ``factorizations`` counts sparse LU factorizations of the Newton
    Jacobian and ``krylov_iters`` the preconditioned GMRES iterations.

    ``residual_norm`` is the max-norm of the residual of the h^2/4-scaled
    system (row sums of the scaled Laplacian are O(1), so the norm is
    comparable across grid sizes and its double-precision floor is far below
    the 1e-10 acceptance threshold, which the raw residual's ~8/h^2 row
    scale would not allow on fine grids).
    """

    problem: PdeProblem
    u: np.ndarray
    mask: np.ndarray
    residual_norm: float
    newton_iters: int
    factorizations: int
    krylov_iters: int


def _grid_nodes(n, radius):
    xs = np.linspace(-radius, radius, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    return X + 1j * Y


def _assemble(problem: PdeProblem):
    """Cut-cell 5-point Laplacian: matrix on interior nodes + boundary term.

    Returns (A, g, mask, nodes): Delta_h u = A u + g, with g holding the
    boundary-data contributions from arms cut by the circle.  Everything
    before the one ``problem.boundary`` call depends only on (n, radius).
    """
    n, r, h = problem.n, problem.radius, problem.spacing
    nodes = _grid_nodes(n, r)
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
    b = np.asarray(problem.boundary(np.concatenate(crossings)), dtype=float)
    if np.any(b <= 0.0) or not np.all(np.isfinite(b)):
        raise InputError("boundary trace must be positive")
    g = np.zeros(N)
    np.add.at(
        g, np.concatenate(cut_rows), np.concatenate(cut_coefs) * np.log(b)
    )
    return A, g, mask, nodes


def solve_dirichlet(problem: PdeProblem) -> PdeSolution:
    """Damped Newton for the discretized problem.

    Starts from the constant u = min log b (for kappa <= 0 this sits below
    the solution, where Newton for this monotone problem is reliable).

    The first Jacobian is LU-factored (symmetric minimum-degree ordering, no
    pivoting: it is a diagonally dominant M-matrix) and gives the first step
    directly.  Later Jacobians differ from it only in the O(h^2) diagonal
    term, so their steps are solved by GMRES preconditioned with that LU to a
    relative residual of 1e-8.  Should GMRES not reach it, the current
    Jacobian is factored, solved directly and kept as the new preconditioner,
    so the worst case is one factorization per iteration.  Convergence is
    always decided on the exact nonlinear residual.

    Raises
    ------
    NumericalError
        If the scaled residual has not reached RESIDUAL_TOL after
        MAX_NEWTON_ITERS damped iterations (final residual in the message).
    """
    A, g, mask, nodes = _assemble(problem)
    kappa = problem.curvature_at(nodes[mask])
    if np.any(kappa > 0.0) or not np.all(np.isfinite(kappa)):
        raise InputError("curvature must be nonpositive and finite")
    h2 = problem.spacing ** 2 / 4.0
    As = A * h2
    gs = g * h2

    # boundary values enter through g; recover the trace minimum for the
    # initial guess from the assembled data (g sums positive-coefficient
    # log-trace terms, so probe the trace directly instead)
    theta = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    btrace = np.asarray(
        problem.boundary(problem.radius * np.exp(1j * theta)), dtype=float
    )
    if np.any(btrace <= 0.0) or not np.all(np.isfinite(btrace)):
        raise InputError("boundary trace must be positive")
    u = np.full(A.shape[0], float(np.log(btrace.min())))

    def scaled_residual(uv):
        return As @ uv + gs + h2 * kappa * np.exp(2.0 * uv)

    res = scaled_residual(u)
    rnorm = float(np.max(np.abs(res)))
    iters = factorizations = krylov_iters = 0
    precond = None

    def count_krylov(_):
        nonlocal krylov_iters
        krylov_iters += 1

    while rnorm > RESIDUAL_TOL and iters < MAX_NEWTON_ITERS:
        J = As + sp.diags(2.0 * h2 * kappa * np.exp(2.0 * u))
        step = None
        if precond is not None:
            step, info = spla.gmres(
                J, -res, rtol=_KRYLOV_RTOL, atol=0.0, restart=20, maxiter=3,
                M=precond, callback=count_krylov, callback_type="pr_norm",
            )
            if info != 0:
                step = None
        if step is None:
            lu = spla.splu(
                J.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            )
            # an explicit dtype spares LinearOperator a probing solve
            precond = spla.LinearOperator(J.shape, lu.solve, dtype=float)
            factorizations += 1
            step = lu.solve(-res)
        for alpha in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125):
            trial = u + alpha * step
            tres = scaled_residual(trial)
            tnorm = float(np.max(np.abs(tres)))
            if tnorm < rnorm:
                u, res, rnorm = trial, tres, tnorm
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
    full = np.full(mask.shape, np.nan)
    full[mask] = u
    return PdeSolution(
        problem, full, mask, rnorm, iters, factorizations, krylov_iters
    )


def constant_curvature_problem(
    n: int, radius: float, kappa: float, boundary: Callable
) -> PdeProblem:
    if kappa > 0:
        raise InputError("curvature must be nonpositive")
    return PdeProblem(
        n, radius, lambda z: np.full(np.shape(z), float(kappa)), boundary
    )


def divisor_reduced_problem(
    C: CriticalSet, radius: float, boundary: Callable, n: int
) -> PdeProblem:
    """Problem for u~ = log(lambda/|S|) given the trace of lambda itself.

    The zeros of the target density are divided out: curvature becomes
    -4 |S|^2 and the boundary data b/|S|; both are smooth and positive, so
    the reduced problem has a classical solution even though log(lambda)
    itself diverges at the divisor.
    """
    if any(abs(p) >= radius for p, _ in C.entries):
        raise InputError("divisor point on or outside the sub-disk boundary")
    smag = divisor_poly(C)

    def reduced_boundary(xi):
        return np.asarray(boundary(xi), dtype=float) / smag(xi)

    return PdeProblem(
        n, radius, lambda z: -4.0 * smag(z) ** 2, reduced_boundary
    )


def oracle_validate(B: FiniteBlaschke, radius: float, n: int = 257) -> float:
    """Reconstruct the pullback density of ``B`` from boundary data only.

    Takes the trace of |B'|/(1-|B|^2) on |z| = radius, runs the
    divisor-reduced Dirichlet solve, recomposes |S| e^{u~}, and returns the
    largest relative interior deviation from the directly evaluated
    pullback.  Should be O(h^2).
    """
    C = critical_points(B)

    def trace(xi):
        return _pullback(B, xi)

    problem = divisor_reduced_problem(C, radius, trace, n)
    sol = solve_dirichlet(problem)
    nodes = _grid_nodes(n, radius)[sol.mask]
    lam_pde = divisor_poly(C)(nodes) * np.exp(sol.u[sol.mask])
    lam_ref = trace(nodes)
    keep = lam_ref > 0.0
    return float(
        np.max(np.abs(lam_pde[keep] - lam_ref[keep]) / lam_ref[keep])
    )
