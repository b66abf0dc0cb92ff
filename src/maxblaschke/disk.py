"""Unit-disk geometry: hyperbolic density, automorphisms, and disk maps.

The unit disk carries the hyperbolic metric ``lambda(z) |dz|`` with density
``lambda(z) = 1 / (1 - |z|^2)``, normalized so the Gaussian curvature is -4.
Disk automorphisms are the Moebius transformations preserving the disk,
written ``T(z) = eta * (c - z) / (1 - conj(c) z)`` with ``|eta| = 1`` and
``|c| < 1``, so that ``T(c) = 0`` and ``T(0) = eta * c``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, _items, _number

#: Points this close to the unit circle are rejected by interior preconditions.
BOUNDARY_TOL = 1e-12


def hyperbolic_density(z):
    """Density of the hyperbolic metric of curvature -4 on the unit disk.

    Parameters
    ----------
    z : complex or ndarray
        Point(s) strictly inside the unit disk.

    Returns
    -------
    float or ndarray
        ``1 / (1 - |z|^2)``.

    Examples
    --------
    >>> hyperbolic_density(0j)
    1.0
    >>> round(hyperbolic_density(0.5 + 0j), 12)
    1.333333333333
    """
    z = np.asarray(z)
    a2 = np.abs(z) ** 2
    if np.any(a2 >= (1.0 - BOUNDARY_TOL) ** 2):
        raise InputError("hyperbolic density requires |z| < 1")
    out = 1.0 / (1.0 - a2)
    return float(out) if out.ndim == 0 else out


def pseudo_hyperbolic_distance(z, w):
    """Pseudo-hyperbolic distance ``|z - w| / |1 - conj(w) z|``.

    Invariant under disk automorphisms and symmetric in its arguments.

    Examples
    --------
    >>> pseudo_hyperbolic_distance(0j, 0.5 + 0j)
    0.5
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    out = np.abs(z - w) / np.abs(1.0 - np.conj(w) * z)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DiskAutomorphism:
    """Disk automorphism ``T(z) = rotation * (center - z) / (1 - conj(center) z)``.

    The rotation factor is renormalized to exact unit modulus on construction,
    so round-trips through serialization cannot drift off the circle.

    Attributes
    ----------
    rotation : complex
        Unimodular factor.
    center : complex
        The point mapped to 0; must lie strictly inside the disk.
    """

    rotation: complex = 1.0 + 0j
    center: complex = 0j

    def __post_init__(self):
        r = _number(self.rotation, "rotation factor")
        c = _number(self.center, "automorphism center")
        if abs(r) < BOUNDARY_TOL:
            raise InputError("rotation factor must be nonzero")
        if abs(c) >= 1.0 - BOUNDARY_TOL:
            raise InputError("automorphism center must lie inside the disk")
        object.__setattr__(self, "rotation", r / abs(r))
        object.__setattr__(self, "center", c)

    def __call__(self, z):
        """T(z) at a scalar or an array of points."""
        z = np.asarray(z, dtype=complex)
        c = self.center
        out = self.rotation * (c - z) / (1.0 - np.conj(c) * z)
        return complex(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class RiemannMapSpec:
    """Conformal map ``psi(z) = a z / (c z + d)`` from a domain onto the unit
    disk, given by its Moebius coefficients ``coeffs = (a, c, d)``.

    The domain is the preimage of the unit disk: ``(1, 0, r)`` is the disk
    of radius ``r``, and the default ``(1, 0, 1)`` the unit disk itself.
    The coefficients are checked on construction: three finite numbers, no
    boolean among them, with ``a`` and ``d`` nonzero and ``psi'(0) = a / d``
    real and positive.  So every map has ``psi(0) = 0`` and ``psi'(0) > 0``.

    Examples
    --------
    >>> psi = RiemannMapSpec(coeffs=(1.0, 0.0, 2.0))
    >>> psi.coeffs
    ((1+0j), 0j, (2+0j))
    >>> psi(1.0), psi.derivative(1.0), psi.invert(0.5)
    ((0.5+0j), (0.5+0j), (1+0j))
    """

    coeffs: tuple = (1.0 + 0j, 0j, 1.0 + 0j)

    def __post_init__(self):
        coeffs = _items(self.coeffs, "map coefficients (a, c, d)", 3)
        a, c, d = (_number(x, "map coefficient") for x in coeffs)
        if abs(d) < BOUNDARY_TOL or abs(a) < BOUNDARY_TOL:
            raise InputError(
                "degenerate map coefficients: a and d must be nonzero"
            )
        d0 = a / d
        if abs(d0.imag) > BOUNDARY_TOL or d0.real <= 0:
            raise InputError("map must have real positive derivative at 0")
        object.__setattr__(self, "coeffs", (a, c, d))

    def __call__(self, z):
        """psi(z) at a scalar or an array; rejects points outside the
        domain."""
        a, c, d = self.coeffs
        z = np.asarray(z, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):  # at the pole
            out = a * z / (c * z + d)
        if not np.all(np.abs(out) < 1.0 - BOUNDARY_TOL):
            raise InputError("point lies outside the map's domain")
        return complex(out) if out.ndim == 0 else out

    def derivative(self, z):
        """psi'(z) = (a/d) / (1 + (c/d) z)^2."""
        a, c, d = self.coeffs
        z = np.asarray(z, dtype=complex)
        out = (a / d) / (1.0 + (c / d) * z) ** 2
        return complex(out) if out.ndim == 0 else out

    def invert(self, w):
        """The point of the domain that psi sends to ``w``."""
        a, c, d = self.coeffs
        w = np.asarray(w, dtype=complex)
        out = w * d / (a - w * c)
        return complex(out) if out.ndim == 0 else out
