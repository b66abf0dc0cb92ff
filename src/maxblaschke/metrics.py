"""Conformal densities on polar disk grids and their discrete curvature.

A density lives on a polar lattice whose radii are graded toward the rim
(densities of interest blow up like 1/(1 - |z|^2) there, so equal radial
steps waste resolution in the middle).  Curvature -(lap log lambda)/lambda^2
is formed with a 5-point polar stencil; since log lambda is singular at the
density's zeros, every curvature node carries a certificate: the same stencil
at double spacing gives a Richardson error estimate, and only nodes whose
estimate is below a fixed multiple of h^2 count as *defined*.  Comparisons
against the constant -4 are then meaningful exactly on the defined set.
Pullback densities of Blaschke products come from ``blaschke._pullback``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blaschke import CriticalSet, FiniteBlaschke, _pullback, critical_points
from .disk import hyperbolic_density
from .errors import InputError, NumericalError, _index, _positive

#: Accept a curvature node when the Richardson estimate is below this many
#: h^2 (after widening the estimate by one node in each direction).
CERTIFY_THETA = 4.0

#: Fraction of the quarter sine period used for radial grading.  The full
#: arc would make the map's derivative vanish at the rim and stall stencil
#: convergence there; stopping short keeps the grading strictly monotone.
RADIAL_ARC = 0.85


@dataclass(frozen=True)
class PolarGrid:
    """Polar lattice: ``n_r`` rings (none at the origin) times ``n_theta``
    equally spaced angles, outer radius ``r_max`` strictly inside the disk."""

    n_r: int = 128
    n_theta: int = 512
    r_max: float = 0.95

    def __post_init__(self):
        if _index(self.n_r, "n_r") < 8 or _index(self.n_theta, "n_theta") < 8:
            raise InputError("grid needs at least 8 rings and 8 angles")
        r_max = _positive(self.r_max, "r_max")
        if not r_max < 1.0:
            raise InputError("r_max must lie in (0, 1)")
        object.__setattr__(self, "r_max", r_max)

    @cached_property
    def radii(self) -> np.ndarray:
        xi = np.arange(1, self.n_r + 1) / self.n_r
        s = 0.5 * np.pi * RADIAL_ARC
        return self.r_max * np.sin(s * xi) / np.sin(s)

    @cached_property
    def thetas(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta

    @cached_property
    def nodes(self) -> np.ndarray:
        """Complex node positions, shape (n_r, n_theta)."""
        return self.radii[:, None] * np.exp(1j * self.thetas[None, :])

    @property
    def h(self) -> float:
        """Mesh parameter: the largest radial gap or outer-ring arc step."""
        return max(
            float(np.max(np.diff(self.radii))),
            self.r_max * 2.0 * np.pi / self.n_theta,
        )

    def refine(self) -> "PolarGrid":
        """Double both resolutions; existing rings survive at even indices."""
        return PolarGrid(2 * self.n_r, 2 * self.n_theta, self.r_max)


def _clear_of_zeros(grid: PolarGrid, zero_set: CriticalSet):
    """True at the nodes farther than two spacings ``h`` from every point of
    ``zero_set`` (everywhere when the set is empty).

    A node on a ring of radius ``r`` is at least ``|r - |p||`` from ``p``,
    so distances to ``p`` are computed only on the rings within ``3h`` of
    ``|p|``: the ``2h`` of the test plus one spacing of slack, so that no
    rounding of either distance can change a node's verdict.
    """
    clear = np.ones((grid.n_r, grid.n_theta), dtype=bool)
    h = grid.h
    for p, _ in zero_set.entries:
        rings = np.flatnonzero(np.abs(grid.radii - abs(p)) <= 3.0 * h)
        clear[rings] &= np.abs(grid.nodes[rings] - p) > 2.0 * h
    return clear


def _max_filter3(a: np.ndarray) -> np.ndarray:
    """Maximum over each node's 3 x 3 neighbourhood, periodic in angle
    (axis 1) and edge-clamped across rings (axis 0)."""
    a = np.maximum(a, np.maximum(np.roll(a, 1, axis=1), np.roll(a, -1, axis=1)))
    p = np.pad(a, ((1, 1), (0, 0)), mode="edge")
    return np.maximum(np.maximum(p[:-2], p[1:-1]), p[2:])


@dataclass(frozen=True, eq=False)
class DensityField:
    """Nonnegative density values on a grid, with an annotation of where the
    density is allowed to vanish (a critical set with multiplicities).

    ``_clear`` marks the nodes farther than two spacings from every annotated
    zero.
    """

    grid: PolarGrid
    values: np.ndarray
    zero_set: CriticalSet = CriticalSet()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_r, self.grid.n_theta):
            raise InputError("values shape does not match the grid")
        if np.any(vals < 0.0) or not np.all(np.isfinite(vals)):
            raise InputError("density values must be finite and nonnegative")
        clear = _clear_of_zeros(self.grid, self.zero_set)
        if np.any(vals[clear] == 0.0):
            raise InputError(
                "density vanishes farther than two spacings from its "
                "annotated zeros"
            )
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_clear", clear)


@dataclass(frozen=True, eq=False)
class CurvatureField:
    """Stencil curvature with a per-node certificate.

    ``values`` hold the 5-point stencil curvature where it was computable
    (NaN elsewhere: the two innermost and three outermost rings, and nodes
    whose stencil touches a vanishing density).  ``defined`` further
    restricts to nodes whose Richardson estimate passed certification.
    """

    grid: PolarGrid
    values: np.ndarray
    defined: np.ndarray

    def max_deviation(self, kappa: float) -> float:
        """Largest |values - kappa| over the defined nodes."""
        if not np.any(self.defined):
            raise NumericalError("no defined curvature nodes")
        return float(np.max(np.abs(self.values[self.defined] - kappa)))


def hyperbolic_field(grid: PolarGrid) -> DensityField:
    """The density 1/(1 - |z|^2) sampled on the grid."""
    return DensityField(grid, hyperbolic_density(grid.nodes))


def _pullback_field(f: FiniteBlaschke, grid: PolarGrid, c: float = 1.0):
    """``_pullback`` on the grid nodes, annotated with the critical set of
    ``f`` restricted to the grid disk |z| <= r_max (where it vanishes)."""
    inside = tuple(
        (p, m) for p, m in critical_points(f).entries if abs(p) <= grid.r_max
    )
    return DensityField(grid, _pullback(f, grid.nodes, c), CriticalSet(inside))


def pullback_density(f: FiniteBlaschke, grid: PolarGrid) -> DensityField:
    """Density |f'| / (1 - |f|^2): the hyperbolic density pulled back by f.

    Values come from ``_pullback``: forward scans carrying (f, f') over the
    zeros of ``f``, block by block over the grid nodes.  The zero
    annotation is the critical set of ``f`` restricted to the grid disk
    |z| <= r_max.
    """
    return _pullback_field(f, grid)


def _polar_laplacian(f: np.ndarray, radii: np.ndarray, n_theta: int, k: int):
    """5-point Laplacian on rings k..n_r-1-k using every k-th neighbour.

    The radial spacing is nonuniform, so the first and second radial
    differences use the standard unequal-interval 3-point weights; the
    angular direction is uniform and periodic.
    """
    ht = 2.0 * np.pi / n_theta * k
    hm = (radii[k:-k] - radii[: -2 * k])[:, None]
    hp = (radii[2 * k:] - radii[k:-k])[:, None]
    fm, f0, fp = f[: -2 * k, :], f[k:-k, :], f[2 * k:, :]
    f_r = (hm**2 * fp - hp**2 * fm + (hp**2 - hm**2) * f0) / (
        hm * hp * (hm + hp)
    )
    f_rr = 2.0 * (hm * fp + hp * fm - (hm + hp) * f0) / (hm * hp * (hm + hp))
    f_tt = (np.roll(f, -k, axis=1) - 2.0 * f + np.roll(f, k, axis=1))[
        k:-k, :
    ] / ht**2
    rc = radii[k:-k][:, None]
    return f_rr + f_r / rc + f_tt / rc**2


def discrete_curvature(field: DensityField) -> CurvatureField:
    """Certified stencil curvature -(lap log lambda)/lambda^2.

    The Laplacian at single and double stencil spacing gives the second-order
    value and, by Richardson comparison, an error estimate |k2 - k1|/3.  The
    estimate is widened by a one-node maximum filter (sign changes of the
    leading error term can make a lone node's estimate deceptively small) and
    nodes pass certification when it stays below ``CERTIFY_THETA * h**2``
    times a curvature-magnitude scale (discretization error grows with
    |curvature|; the scale is clamped so the divergence near density zeros
    can never certify itself).  Nodes within two spacings of an annotated
    zero are never defined.
    """
    grid = field.grid
    n_r, n_t = grid.n_r, grid.n_theta
    lam = field.values
    with np.errstate(divide="ignore", invalid="ignore"):
        logl = np.log(lam)
        k1 = -_polar_laplacian(logl, grid.radii, n_t, 1) / lam[1:-1, :] ** 2
        k2 = -_polar_laplacian(logl, grid.radii, n_t, 2) / lam[2:-2, :] ** 2
    # both stencils exist on rings 2..n_r-3
    a1 = k1[1:-1, :]
    a2 = k2
    est = np.abs(a2 - a1) / 3.0
    est = np.where(np.isfinite(est), est, np.inf)
    est = _max_filter3(est)
    h = grid.h
    with np.errstate(invalid="ignore"):
        scale = np.clip(np.abs(a1) / 4.0, 1.0, 16.0)
    scale = np.where(np.isfinite(a1), scale, 1.0)
    defined = est <= CERTIFY_THETA * h * h * scale
    defined &= np.isfinite(a1)
    defined &= field._clear[2 : n_r - 2, :]
    values = np.full((n_r, n_t), np.nan)
    dmask = np.zeros((n_r, n_t), dtype=bool)
    values[2 : n_r - 2, :] = a1
    dmask[2 : n_r - 2, :] = defined
    return CurvatureField(grid, values, dmask)


def refinement_contraction(
    coarse: CurvatureField, fine: CurvatureField, kappa: float
) -> float:
    """Ratio of deviations from ``kappa`` on shared nodes of grid and refined
    grid (coarse ring i sits at fine ring 2i+1, same angle at even index)."""
    if (
        fine.grid.n_r != 2 * coarse.grid.n_r
        or fine.grid.n_theta != 2 * coarse.grid.n_theta
    ):
        raise InputError("fields are not one refinement apart")
    fine_vals = fine.values[1::2, ::2]
    fine_mask = fine.defined[1::2, ::2]
    both = coarse.defined & fine_mask
    if not np.any(both):
        raise NumericalError("no shared defined nodes")
    dev_c = float(np.max(np.abs(coarse.values[both] - kappa)))
    dev_f = float(np.max(np.abs(fine_vals[both] - kappa)))
    if dev_f == 0.0:
        raise NumericalError("refined deviation vanished; ratio undefined")
    return dev_c / dev_f


def product_density(a: DensityField, b: DensityField):
    """Pointwise product with its closed-form curvature.

    For two curvature -4 densities the product's curvature is
    ``-4 (a^-2 + b^-2)``; the returned array holds that value where both
    factors are positive and NaN elsewhere.  Returns (field, curvature).
    """
    if a.grid != b.grid:
        raise InputError("density fields live on different grids")
    values = a.values * b.values
    with np.errstate(divide="ignore"):
        kappa = -4.0 * (a.values**-2.0 + b.values**-2.0)
    kappa = np.where((a.values > 0) & (b.values > 0), kappa, np.nan)
    field = DensityField(a.grid, values, a.zero_set.union(b.zero_set))
    return field, kappa


def union_metric(
    F: FiniteBlaschke, G: FiniteBlaschke, c: float, grid: PolarGrid
):
    """Density with curvature <= -4 vanishing on the combined critical sets.

    Builds the two damped pullbacks ``c |F'| / (1 - c^2 |F|^2)`` (and same
    for G), multiplies them, reads off the largest curvature -alpha of the
    product from its closed form, and rescales by sqrt(alpha)/2 so the
    result is again a curvature <= -4 density.  Returns (field, alpha).

    alpha is a grid maximum, so it certifies the curvature bound only at
    grid resolution.
    """
    c = _positive(c, "damping constant")
    if not c < 1.0:
        raise InputError("damping constant must lie in (0, 1)")
    product, kappa = product_density(
        _pullback_field(F, grid, c), _pullback_field(G, grid, c)
    )
    finite = np.isfinite(kappa)
    if not np.any(finite):
        raise NumericalError("product density vanishes on the whole grid")
    alpha = -float(np.max(kappa[finite]))
    if alpha <= 0.0:
        raise NumericalError("curvature bound alpha came out nonpositive")
    mu = 0.5 * math.sqrt(alpha) * product.values
    return DensityField(grid, mu, product.zero_set), alpha


def _curvature_band(h: float) -> float:
    """Allowed deviation of certified stencil curvature from -4 on a grid
    of mesh parameter ``h``."""
    return 10.0 * h**2


def _enforce_curvature(field: DensityField, two_sided: bool):
    """Check the certified stencil curvature against -4 within the band;
    vacuous when no node is certified (the precondition only speaks of
    defined nodes)."""
    band = _curvature_band(field.grid.h)
    curv = discrete_curvature(field)
    if not np.any(curv.defined):
        return
    if two_sided:
        dev = curv.max_deviation(-4.0)
        if dev > band:
            raise InputError(
                f"curvature deviates from -4 by {dev:.3e} (allowed "
                f"{band:.3e}); not an admissible comparison density"
            )
    else:
        worst = float(np.max(curv.values[curv.defined]))
        if worst > -4.0 + band:
            raise InputError(
                f"curvature reaches {worst:.6f}; need <= -4 within {band:.3e}"
            )


def ahlfors_check(field: DensityField):
    """Largest ratio of ``field`` to the hyperbolic density over the grid.

    The input must carry stencil curvature at most -4 (within the band
    10 h^2) at its defined nodes; any such density stays below the
    hyperbolic one, so the returned ratio should not exceed 1.
    """
    _enforce_curvature(field, two_sided=False)
    ratio = field.values * (1.0 - np.abs(field.grid.nodes) ** 2)
    return float(np.max(ratio))


def dominance_check(lam_star: DensityField, lam_max: DensityField):
    """Largest nodewise ratio lam_star / lam_max, skipping 0/0 nodes.

    ``lam_star`` must vanish everywhere ``lam_max`` does (annotation
    containment), and must be a constant-curvature -4 density within the
    band 10 h^2 — a scaled copy of one is not and is rejected, since
    scaling by c moves the curvature to -4/c^2.

    Nodes within two spacings of the reference's zeros are excluded along
    with exact zeros: the ratio there is a 0/0 limit, and evaluating it on
    the grid amplifies the roots' placement error by one over the node
    distance.
    """
    if lam_star.grid != lam_max.grid:
        raise InputError("density fields live on different grids")
    if not lam_star.zero_set.contains(lam_max.zero_set):
        raise InputError(
            "zero annotation of the dominated density does not contain "
            "the maximal density's zeros"
        )
    _enforce_curvature(lam_star, two_sided=True)
    mask = (lam_max.values > 0.0) & lam_max._clear
    return float(np.max(lam_star.values[mask] / lam_max.values[mask]))
