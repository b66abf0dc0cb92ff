"""Finite Blaschke products and critical sets.

A finite Blaschke product of degree ``d`` is

    B(z) = eta * prod_k (z - a_k) / (1 - conj(a_k) z),   |a_k| < 1, |eta| = 1,

stored as the unimodular factor ``eta`` plus the multiset of zeros.  The
derivative never vanishes on the unit circle, and the ``d - 1`` critical
points inside the disk are the disk roots of the numerator polynomial

    Q(z) = sum_k (1 - |a_k|^2) * prod_{j != k} (z - a_j)(1 - conj(a_j) z),

of degree ``2d - 2``, whose root set is symmetric under reflection across the
circle.

Serialization schema (JSON)
---------------------------
``FiniteBlaschke``::

    {"eta": {"re": <float>, "im": <float>},
     "zeros": [{"re": <float>, "im": <float>}, ...]}

``CriticalSet``::

    {"points": [{"re": <float>, "im": <float>, "multiplicity": <int>}, ...]}

Complex numbers always appear as explicit ``re``/``im`` pairs; multiplicities
are positive integers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .disk import BOUNDARY_TOL, pseudo_hyperbolic_distance
from .errors import InputError, NumericalError
from .roots import MERGE_TOL, cluster_roots, polynomial_roots

#: Evaluation closer than this to a reflected pole 1/conj(a_k) is rejected.
POLE_TOL = 1e-14


def _as_complex(x):
    return complex(x)


def _min_cost_pairing(cost: np.ndarray):
    """Row and column indices of a minimum-total-cost perfect pairing of a
    square cost matrix.

    Hungarian method with dual potentials ``u`` (rows) and ``v`` (columns),
    as shortest augmenting paths (Crouse, IEEE Trans. Aerosp. Electron.
    Syst. 52(4), 2016): each row is added by a Dijkstra search over the
    reduced costs, vectorised over the columns.  Rows and columns count
    from 1; column 0 is a virtual column where every search starts, and
    ``row_of[j] == 0`` marks column ``j`` as unpaired.
    """
    n = cost.shape[0]
    u, v = np.zeros(n + 1), np.zeros(n + 1)
    row_of = np.zeros(n + 1, dtype=int)  # 1-based row paired with a column
    prev = np.zeros(n + 1, dtype=int)  # predecessor column on the path
    for i in range(1, n + 1):
        row_of[0], j = i, 0
        dist = np.full(n + 1, np.inf)
        done = np.zeros(n + 1, dtype=bool)
        while row_of[j]:
            done[j] = True
            r = row_of[j]
            reduced = cost[r - 1] - u[r] - v[1:]
            closer = ~done[1:] & (reduced < dist[1:])
            dist[1:][closer] = reduced[closer]
            prev[1:][closer] = j
            j = int(np.argmin(np.where(done, np.inf, dist)))
            delta = dist[j]
            u[row_of[done]] += delta
            v[done] -= delta
            dist[~done] -= delta
        while j:
            row_of[j] = row_of[prev[j]]
            j = prev[j]
    return row_of[1:] - 1, np.arange(n)


@dataclass(frozen=True)
class CriticalSet:
    """Multiset of prescribed critical points inside the unit disk.

    Attributes
    ----------
    entries : tuple of (complex, int)
        Distinct points with their multiplicities, canonically ordered.
    """

    entries: tuple = ()

    def __post_init__(self):
        # greedy merge: each point joins the first kept point within
        # MERGE_TOL, which stays the representative
        merged = []
        for point, mult in self.entries:
            point = _as_complex(point)
            mult = int(mult)
            if mult < 1:
                raise InputError("critical point multiplicity must be >= 1")
            if not (cmath.isfinite(point)
                    and abs(point) < 1.0 - BOUNDARY_TOL):
                raise InputError("critical points must lie inside the unit disk")
            for entry in merged:
                if abs(point - entry[0]) <= MERGE_TOL:
                    entry[1] += mult
                    break
            else:
                merged.append([point, mult])
        ordered = tuple(sorted(
            map(tuple, merged), key=lambda e: (abs(e[0]), np.angle(e[0]))
        ))
        object.__setattr__(self, "entries", ordered)

    @classmethod
    def from_points(cls, points):
        """Build from a plain list of points, merging near-duplicates."""
        return cls(tuple((p, 1) for p in points))

    @property
    def total(self) -> int:
        """Number of critical points counted with multiplicity."""
        return sum(m for _, m in self.entries)

    @property
    def origin_multiplicity(self) -> int:
        """Multiplicity of 0 in the set (0 if absent)."""
        for point, mult in self.entries:
            if point == 0:
                return mult
        return 0

    def points(self):
        """Expanded list of points, each repeated by its multiplicity."""
        out = []
        for point, mult in self.entries:
            out.extend([point] * mult)
        return out

    def nonzero_entries(self):
        return tuple((p, m) for p, m in self.entries if p != 0)

    def union(self, other: "CriticalSet") -> "CriticalSet":
        """Multiset union: multiplicities add, near-duplicate points merge."""
        return CriticalSet(self.entries + other.entries)

    def contains(self, other: "CriticalSet") -> bool:
        """True if every point of ``other`` appears here with at least its
        multiplicity (points matched within ``MERGE_TOL``)."""
        for p, m in other.entries:
            if not any(
                abs(p - q) <= MERGE_TOL and mq >= m for q, mq in self.entries
            ):
                return False
        return True

    def match(self, other: "CriticalSet") -> float:
        """Largest pseudo-hyperbolic mismatch under the best pairing.

        Entries pair only within equal multiplicity; a differing multiplicity
        profile raises, since no pairing then reproduces the multiset.
        """
        by_mult_a, by_mult_b = {}, {}
        for p, m in self.entries:
            by_mult_a.setdefault(m, []).append(p)
        for p, m in other.entries:
            by_mult_b.setdefault(m, []).append(p)
        if {m: len(v) for m, v in by_mult_a.items()} != {
            m: len(v) for m, v in by_mult_b.items()
        }:
            raise NumericalError("multiplicity profiles do not match")
        worst = 0.0
        for m, pa in by_mult_a.items():
            pb = by_mult_b[m]
            cost = np.array(
                [[pseudo_hyperbolic_distance(x, y) for y in pb] for x in pa]
            )
            worst = max(worst, float(cost[_min_cost_pairing(cost)].max()))
        return worst

    def to_dict(self):
        return {
            "points": [
                {"re": p.real, "im": p.imag, "multiplicity": m}
                for p, m in self.entries
            ]
        }

    @classmethod
    def from_dict(cls, data):
        try:
            entries = tuple(
                (complex(e["re"], e["im"]), e["multiplicity"])
                for e in data["points"]
            )
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed critical set: {exc}") from exc
        return cls(entries)


@dataclass(frozen=True)
class FiniteBlaschke:
    """Finite Blaschke product ``eta * prod (z - a_k) / (1 - conj(a_k) z)``.

    The unimodular factor is renormalized on construction and the zeros are
    kept as a canonically ordered tuple, so equal products compare equal.
    """

    zeros: tuple = ()
    eta: complex = 1.0 + 0j

    def __post_init__(self):
        e = _as_complex(self.eta)
        if not cmath.isfinite(e) or abs(e) == 0:
            raise InputError("unimodular factor must be finite and nonzero")
        object.__setattr__(self, "eta", e / abs(e))
        zs = tuple(_as_complex(a) for a in self.zeros)
        if not all(cmath.isfinite(a) and abs(a) < 1.0 - BOUNDARY_TOL
                   for a in zs):
            raise InputError("zeros must lie strictly inside the unit disk")
        object.__setattr__(
            self, "zeros", tuple(sorted(zs, key=lambda a: (a.real, a.imag)))
        )

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __call__(self, z):
        return evaluate(self, z)

    def to_dict(self):
        return {
            "eta": {"re": self.eta.real, "im": self.eta.imag},
            "zeros": [{"re": a.real, "im": a.imag} for a in self.zeros],
        }

    @classmethod
    def from_dict(cls, data):
        try:
            eta = complex(data["eta"]["re"], data["eta"]["im"])
            zeros = tuple(complex(a["re"], a["im"]) for a in data["zeros"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed Blaschke product: {exc}") from exc
        return cls(zeros=zeros, eta=eta)


def _scan(B: FiniteBlaschke, z, tangent=True):
    """``(B(z), B'(z))`` from one forward pass over the zeros.

    The partial products ``P_k = P_{k-1} f_k`` of the Moebius factors
    ``f_k(z) = (z - a_k) / (1 - conj(a_k) z)`` carry their tangents
    ``P_k' = P_{k-1}' f_k + P_{k-1} f_k'``, with
    ``f_k' = (1 - |a_k|^2) / (1 - conj(a_k) z)^2``.  No factor is ever
    divided out, so ``B'`` is as accurate at the zeros of ``B`` as
    elsewhere, and the work space is a few arrays of the shape of ``z``.
    With ``tangent=False`` only the values are carried and ``B'`` comes
    back as ``None``.
    """
    z = np.asarray(z, dtype=complex)
    p = np.ones(z.shape, dtype=complex)
    dp = np.zeros(z.shape, dtype=complex) if tangent else None
    for a in B.zeros:
        denom = 1.0 - np.conj(a) * z
        if np.any(np.abs(denom) < POLE_TOL):
            raise NumericalError(
                "evaluation point too close to a reflected pole"
            )
        f = (z - a) / denom
        if tangent:
            dp = dp * f + p * ((1.0 - abs(a) ** 2) / denom**2)
        p = p * f
    return B.eta * p, B.eta * dp if tangent else None


def evaluate(B: FiniteBlaschke, z):
    """Evaluate ``B`` at ``z`` (scalar or ndarray)."""
    out, _ = _scan(B, z, tangent=False)
    return complex(out) if out.ndim == 0 else out


def derivative(B: FiniteBlaschke, z):
    """Evaluate ``B'`` at ``z`` (scalar or ndarray).

    Forward-mode product rule over the factors (see ``_scan``): no
    division by a vanishing factor occurs, so the value at a zero of ``B``
    is as accurate as anywhere else.  Points within ``POLE_TOL`` of a
    reflected pole ``1/conj(a_k)`` raise ``NumericalError``.
    """
    _, out = _scan(B, z)
    return complex(out) if out.ndim == 0 else out


def derivative_at_origin_order(B: FiniteBlaschke, order: int) -> float:
    """Value of ``Re B^(order+1)(0)`` given a zero of exact order ``order+1`` at 0.

    Writing ``B(z) = z^(order+1) g(z)`` with ``g(0) != 0``, the derivative is
    ``(order+1)! * g(0)``.  The real part is returned: it is the linear
    functional maximized by the extremal product, and for a normalized product
    the value is real and positive.

    Raises
    ------
    InputError
        If the zero order of ``B`` at the origin is not exactly ``order + 1``.
    """
    at_origin = sum(1 for a in B.zeros if a == 0)
    if at_origin != order + 1:
        raise InputError(
            f"zero order at origin is {at_origin}, expected {order + 1}"
        )
    g0 = B.eta
    for a in B.zeros:
        if a != 0:
            g0 *= -a
    return math.factorial(order + 1) * g0.real


def critical_numerator_coeffs(zeros):
    """Coefficients (descending) of the numerator polynomial of ``B'``.

    Depends only on the zero multiset; the unimodular factor scales ``B'``
    without moving its roots.  One forward scan over the zeros carries
    ``(prod P_j, sum_k w_k prod_{j != k} P_j)`` with ``P_j(z) = (z - a_j)
    (1 - conj(a_j) z)`` and ``w_j = 1 - |a_j|^2``, the recurrence that
    ``solver._assemble`` runs on Taylor jets; the sum is kept padded to the
    length of the product, so its two leading entries stay zero.
    """
    p = np.ones(1, dtype=complex)
    s = np.zeros(1, dtype=complex)
    for a in zeros:
        P = np.array([-np.conj(a), 1.0 + abs(a) ** 2, -a], dtype=complex)
        s = np.convolve(s, P)
        s[2:] += (1.0 - abs(a) ** 2) * p
        p = np.convolve(p, P)
    return s[2:] if len(s) > 1 else s


def critical_points(B: FiniteBlaschke) -> CriticalSet:
    """Critical set of ``B`` inside the unit disk, with multiplicities.

    The ``2d - 2`` roots of the critical numerator polynomial split into
    ``d - 1`` inside the disk and their reflections outside; roots too close
    to the circle make that split ill-defined and raise.

    The product's zeros are taken to be accurate to a relative 1e-12;
    repeated critical points are resolved only up to the root splitting that
    such an uncertainty induces (about its square root, for double points),
    so nearby-but-distinct critical points closer than that are reported as
    one multiple point.
    """
    d = B.degree
    if d <= 1:
        return CriticalSet()
    q = critical_numerator_coeffs(B.zeros)
    roots = polynomial_roots(q)
    circle_gap = np.abs(np.abs(roots) - 1.0)
    if np.any(circle_gap < 10 * MERGE_TOL):
        raise NumericalError(
            "critical point too close to the unit circle to classify"
        )
    inside = roots[np.abs(roots) < 1.0]
    if len(inside) != d - 1:
        raise NumericalError(
            f"expected {d - 1} interior critical points, found {len(inside)}"
        )
    clusters = cluster_roots(inside, q)
    return CriticalSet(tuple(clusters))


def compose(B: FiniteBlaschke, C: FiniteBlaschke) -> FiniteBlaschke:
    """The composite ``B o C`` as a finite Blaschke product.

    Its zeros are the ``C``-preimages of the zeros of ``B`` (degree
    ``deg B * deg C``); the unimodular factor is fitted from one evaluation
    and validated at several more.
    """
    if B.degree == 0 or C.degree == 0:
        # constant outer or inner factor collapses the composite
        value = evaluate(B, evaluate(C, 0j)) if C.degree == 0 else B.eta
        return FiniteBlaschke(zeros=(), eta=value)
    num = np.array([1.0 + 0j])
    for c in C.zeros:
        num = np.convolve(num, np.array([1.0, -c]))
    num *= C.eta
    den = np.array([1.0 + 0j])
    for c in C.zeros:
        den = np.convolve(den, np.array([-np.conj(c), 1.0]))
    zeros = []
    for a in B.zeros:
        # preimages C(z) = a: roots of eta_C * N(z) - a * D(z), both arrays
        # already share length deg C + 1 in descending order
        zeros.extend(polynomial_roots(num - a * den))
    zeros = np.array(zeros, dtype=complex)
    # fit the unimodular factor at a probe where the centered product is tame
    candidate = FiniteBlaschke(zeros=tuple(zeros), eta=1.0)
    for probe in (0.31 + 0.17j, -0.23 + 0.29j, 0.11 - 0.37j):
        base = evaluate(candidate, probe)
        if abs(base) > 1e-6:
            break
    else:
        raise NumericalError("no usable probe point for composition fit")
    eta = evaluate(B, evaluate(C, probe)) / base
    if abs(abs(eta) - 1.0) > 1e-6:
        raise NumericalError("composition produced a non-unimodular factor")
    result = FiniteBlaschke(zeros=tuple(zeros), eta=eta)
    for check in (0.4 + 0j, -0.1 + 0.33j, 0.05 - 0.21j):
        direct = evaluate(B, evaluate(C, check))
        if abs(direct - evaluate(result, check)) > 1e-8:
            raise NumericalError("composition validation failed")
    return result

