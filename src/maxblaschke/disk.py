"""Unit-disk geometry: hyperbolic density, automorphisms, and disk maps.

The unit disk carries the hyperbolic metric ``lambda(z) |dz|`` with density
``lambda(z) = 1 / (1 - |z|^2)``, normalized so the Gaussian curvature is -4.
Disk automorphisms are the Moebius transformations preserving the disk,
written ``T(z) = eta * (c - z) / (1 - conj(c) z)`` with ``|eta| = 1`` and
``|c| < 1``, so that ``T(c) = 0`` and ``T(0) = eta * c``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

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
        raise ValueError("hyperbolic density requires |z| < 1")
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
        r, c = complex(self.rotation), complex(self.center)
        if not (cmath.isfinite(r) and cmath.isfinite(c)):
            raise InputError("automorphism parameters must be finite")
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

    def derivative(self, z):
        """T'(z) = rotation * (|c|^2 - 1) / (1 - conj(c) z)^2."""
        z = np.asarray(z, dtype=complex)
        c = self.center
        out = self.rotation * (abs(c) ** 2 - 1.0) / (1.0 - np.conj(c) * z) ** 2
        return complex(out) if out.ndim == 0 else out

    def inverse(self) -> "DiskAutomorphism":
        """The inverse automorphism, again in (rotation, center) form."""
        return DiskAutomorphism(
            rotation=np.conj(self.rotation), center=self.rotation * self.center
        )

    def compose(self, other: "DiskAutomorphism") -> "DiskAutomorphism":
        """Return ``self`` after ``other``, i.e. ``z -> self(other(z))``."""
        center = other.inverse()(self.inverse()(0j))
        # Fix the rotation from a sample point where the centered factor is
        # well away from 0/0; validate nothing, closure is exact algebra.
        probe = 0.25 + 0.125j
        if abs(probe - center) < 1e-3:
            probe = -probe
        base = (center - probe) / (1.0 - np.conj(center) * probe)
        rotation = self(other(probe)) / base
        return DiskAutomorphism(rotation=rotation, center=center)


@dataclass(frozen=True)
class RiemannMapSpec:
    """Conformal map ``psi`` from a model domain onto the unit disk.

    Supported kinds:

    ``identity``
        The disk itself, ``psi(z) = z``.
    ``scaled_disk``
        Disk of radius ``radius``, ``psi(z) = z / radius``.
    ``moebius``
        ``psi(z) = a z / (c z + d)`` with explicit coefficients; the domain is
        the preimage of the unit disk.

    Every kind satisfies ``psi(0) = 0`` and ``psi'(0) > 0``; the Moebius
    coefficients are validated against that normalization on construction.
    """

    kind: str = "identity"
    radius: float = 1.0
    coeffs: tuple = field(default=(1.0 + 0j, 0j, 1.0 + 0j))

    def __post_init__(self):
        if self.kind not in ("identity", "scaled_disk", "moebius"):
            raise ValueError(f"unknown map kind {self.kind!r}")
        if self.kind == "scaled_disk" and not self.radius > 0:
            raise ValueError("scaled_disk requires a positive radius")
        if self.kind == "moebius":
            a, c, d = (complex(x) for x in self.coeffs)
            if abs(d) < BOUNDARY_TOL or abs(a) < BOUNDARY_TOL:
                raise ValueError("degenerate moebius coefficients")
            d0 = a / d
            if abs(d0.imag) > BOUNDARY_TOL or d0.real <= 0:
                raise ValueError(
                    "moebius map must have real positive derivative at 0"
                )
            object.__setattr__(self, "coeffs", (a, c, d))

    def derivative_at_zero(self) -> float:
        if self.kind == "identity":
            return 1.0
        if self.kind == "scaled_disk":
            return 1.0 / self.radius
        a, _, d = self.coeffs
        return (a / d).real


def riemann_map_apply(spec: RiemannMapSpec, z):
    """Apply the domain-to-disk map; rejects points outside the domain."""
    z = np.asarray(z, dtype=complex)
    if spec.kind == "identity":
        out = z.astype(complex)
    elif spec.kind == "scaled_disk":
        out = z / spec.radius
    else:
        a, c, d = spec.coeffs
        out = a * z / (c * z + d)
    if np.any(np.abs(out) >= 1.0 - BOUNDARY_TOL):
        raise ValueError("point lies outside the map's domain")
    return complex(out) if out.ndim == 0 else out


def riemann_map_derivative(spec: RiemannMapSpec, z):
    """Derivative of the domain-to-disk map at ``z``."""
    z = np.asarray(z, dtype=complex)
    if spec.kind == "identity":
        out = np.ones_like(z)
    elif spec.kind == "scaled_disk":
        out = np.full_like(z, 1.0 / spec.radius)
    else:
        a, c, d = spec.coeffs
        out = a * d / (c * z + d) ** 2
    return complex(out) if out.ndim == 0 else out


def riemann_map_invert(spec: RiemannMapSpec, w):
    """Map a point of the unit disk back into the model domain."""
    w = np.asarray(w, dtype=complex)
    if spec.kind == "identity":
        out = w.astype(complex)
    elif spec.kind == "scaled_disk":
        out = w * spec.radius
    else:
        a, c, d = spec.coeffs
        out = w * d / (a - w * c)
    return complex(out) if out.ndim == 0 else out
