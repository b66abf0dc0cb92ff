"""Finite Blaschke products and critical sets.

A finite Blaschke product of degree ``d`` is

    B(z) = eta * prod_k (z - a_k) / (1 - conj(a_k) z),   |a_k| < 1, |eta| = 1,

stored as the unimodular factor ``eta`` plus the multiset of zeros.  The
derivative never vanishes on the unit circle.  Inside the disk ``B`` has
``d - 1`` critical points: a ``k``-fold zero is a ``(k - 1)``-fold critical
point, and the others are the disk roots of the logarithmic derivative

    B'/B(z) = sum_k 1/(z - a_k) - sum_{a_k != 0} 1/(z - 1/conj(a_k)),

whose roots are symmetric under reflection across the circle.  One scan
over the zeros gives B, B' and the blocked pullback density c|B'|/(1 -
c^2|B|^2).  Products compose, and antiderivatives with prescribed roots
feed the solver's start and the competitor families.

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

import math
from dataclasses import dataclass

import numpy as np

from .disk import BOUNDARY_TOL, DiskAutomorphism, pseudo_hyperbolic_distance
from .errors import (
    InputError, NumericalError, _complex, _count, _items, _number,
)

#: Final merge tolerance: points closer than this are never reported
#: separately.
MERGE_TOL = 1e-8
#: Evaluation closer than this to a reflected pole 1/conj(a_k) is rejected.
POLE_TOL = 1e-14
#: Roots of B'/B closer than this are candidates for one multiple critical
#: point: the eigen-solve splits a 4-fold point by about eps**(1/4).
GROUP_TOL = 1e-3
#: Relative splitting of a multiple critical point that is put down to the
#: error of the zeros (see ``_group``).
SPLIT_TOL = 1e-12


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
        for entry in _items(self.entries, "critical set"):
            point, mult = _items(entry, "critical set entry", 2)
            point = _number(point, "critical point")
            mult = _count(mult, "critical point multiplicity")
            if mult < 1:
                raise InputError("critical point multiplicity must be >= 1")
            if not abs(point) < 1.0 - BOUNDARY_TOL:
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
        return cls(tuple((p, 1) for p in _items(points, "critical points")))

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

    def within(self, radius: float) -> "CriticalSet":
        """The entries with |p| <= radius: what a grid that far out sees."""
        return CriticalSet(
            tuple(e for e in self.entries if abs(e[0]) <= radius))

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
        """Largest pseudo-hyperbolic mismatch of a point-for-point pairing.

        Each entry pairs with its nearest entry of equal multiplicity in the
        other set.  The pairing must be mutual: each point is also its
        partner's nearest, so every term is at its minimum and the pairing
        is the min-sum one.  Otherwise, or when the multiplicity profiles
        differ, no pairing reproduces the multiset and ``NumericalError`` is
        raised; either way the check is symmetric in the two sets.

        >>> CriticalSet.from_points([0, 0.9]).match(
        ...     CriticalSet.from_points([0.25, 0.9]))
        0.25
        >>> CriticalSet.from_points([0, 0.001]).match(
        ...     CriticalSet.from_points([0, 0.5]))
        Traceback (most recent call last):
            ...
        maxblaschke.errors.NumericalError: critical sets do not pair point for point
        """
        profile = sorted(m for _, m in self.entries)
        if profile != sorted(m for _, m in other.entries):
            raise NumericalError("multiplicity profiles do not match")
        worst = 0.0
        for m in set(profile):
            pa = [p for p, k in self.entries if k == m]
            pb = [p for p, k in other.entries if k == m]
            cost = np.array(
                [[pseudo_hyperbolic_distance(x, y) for y in pb] for x in pa]
            )
            rows = np.arange(len(pa))
            nearest = cost.argmin(axis=1)
            if np.any(cost.argmin(axis=0)[nearest] != rows):
                raise NumericalError(
                    "critical sets do not pair point for point"
                )
            worst = max(worst, float(cost[rows, nearest].max()))
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
                (_complex(e), e["multiplicity"]) for e in data["points"]
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
        e = _number(self.eta, "unimodular factor")
        if abs(e) == 0:
            raise InputError("unimodular factor must be nonzero")
        object.__setattr__(self, "eta", e / abs(e))
        zs = tuple(_number(a, "Blaschke zero")
                   for a in _items(self.zeros, "Blaschke zeros"))
        if not all(abs(a) < 1.0 - BOUNDARY_TOL for a in zs):
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
            eta = _complex(data["eta"])
            zeros = tuple(_complex(a) for a in data["zeros"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed Blaschke product: {exc}") from exc
        return cls(zeros=zeros, eta=eta)


#: Largest complex array, in elements, that one batched step builds: a
#: quarter of one default PolarGrid field (128 x 512 nodes).  ``_pullback``
#: below scans a larger input this many nodes at a time.  On the 13
#: mass-1-2 corpus products on the default grid (2-core Xeon, numpy 2.4,
#: one BLAS thread) that keeps the bits and takes the pullback inside
#: verification runs from a median 6.0 ms to 3.9 ms per product, and in a
#: loop over the products (best of 15) from 3.5-4.1 ms to 2.8-3.0 ms;
#: blocks of 4096 to 16384 nodes ran within a tenth of each other, 2048
#: and 32768 slower.  Batched competitor scoring sizes its jet and sample
#: arrays by it too.  The one larger array there is the antiderivative
#: kind's table of 2d + 1 real rows over the SUP_SAMPLES samples (0.9 MB
#: at degree d = 6, 1.6 MB at d = 12).  Peak traced memory of one
#: 1000-competitor corpus suite: 1.6 MB at mass <= 2 and 2.5 MB at mass 8,
#: against 2.7 MB for a full field.
_BLOCK = 16384


def _chunks(n: int, width: int) -> list:
    """Slices over ``n`` rows so that rows x ``width`` stays within _BLOCK."""
    step = max(1, _BLOCK // max(1, width))
    return [slice(lo, lo + step) for lo in range(0, max(n, 1), step)]


def _scan(B: FiniteBlaschke, z):
    """``(B(z), B'(z))`` from one forward pass over the zeros.

    The partial products ``P_k = P_{k-1} f_k`` of the Moebius factors
    ``f_k(z) = (z - a_k) / (1 - conj(a_k) z)`` carry their tangents
    ``P_k' = P_{k-1}' f_k + P_{k-1} f_k'``, with
    ``f_k' = (1 - |a_k|^2) / (1 - conj(a_k) z)^2``.  No factor is ever
    divided out, so ``B'`` is as accurate at the zeros of ``B`` as
    elsewhere, and the work space is four arrays of the shape of ``z``:
    the two results and two work arrays that every zero reuses.
    """
    z = np.asarray(z, dtype=complex)
    p = np.ones(z.shape, dtype=complex)
    dp = np.zeros(z.shape, dtype=complex)
    denom, f = np.empty_like(z), np.empty_like(z)  # arrays even for 0-d z
    for a in B.zeros:
        # in place, each operation and its operands in the order of
        # dp * f + p * ((1 - |a|^2) / denom**2), since numpy's complex
        # product is not bitwise commutative; the bits are the expression
        # form's except on a one-element array, where numpy's in-place
        # product skips the fused multiply-add
        np.multiply(np.conj(a), z, out=denom)
        np.subtract(1.0, denom, out=denom)
        if np.any(np.abs(denom) < POLE_TOL):
            raise NumericalError(
                "evaluation point too close to a reflected pole"
            )
        np.subtract(z, a, out=f)
        f /= denom
        dp *= f
        denom **= 2
        np.divide(1.0 - abs(a) ** 2, denom, out=denom)
        np.multiply(p, denom, out=denom)
        dp += denom
        p *= f
    # p[()] makes a 0-d result a numpy scalar, whose product with eta
    # rounds as the expression form's scalar arithmetic did
    return B.eta * p[()], B.eta * dp[()]


def _pullback(f: FiniteBlaschke, z, c: float = 1.0):
    """Damped pullback density c |f'| / (1 - c^2 |f|^2) at ``z``; ``c = 1``
    is the plain hyperbolic pullback.  A constant ``f`` (|f| = 1, f' = 0)
    is refused before 0/0.

    Inputs of more than ``_BLOCK`` nodes are scanned block by block over
    their flattened nodes into one output array, which keeps temporaries
    small (see ``_BLOCK``) and the bits of one scan over the whole input;
    no block holds a single node, on which numpy's in-place complex
    product skips the fused multiply-add (see ``_scan``).
    """
    if not f.zeros:
        raise InputError("a constant product has no pullback density")

    def density(nodes):
        w, dw = _scan(f, nodes)
        return c * np.abs(dw) / (1.0 - c * c * np.abs(w) ** 2)

    z = np.asarray(z, dtype=complex)
    if z.size <= _BLOCK:
        return density(z)
    flat = z.reshape(-1)
    out = np.empty(flat.shape)
    blocks = _chunks(flat.size, 1)
    if flat.size % _BLOCK == 1:
        blocks[-2:] = [slice(blocks[-2].start, flat.size)]
    for rows in blocks:
        out[rows] = density(flat[rows])
    return out.reshape(z.shape)


def evaluate(B: FiniteBlaschke, z):
    """Evaluate ``B`` at ``z`` (scalar or ndarray)."""
    out, _ = _scan(B, z)
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


# jet arithmetic: a jet is [f(c), f'(c)/1!, ..., f^(K)(c)/K!] along the last
# axis; leading axes stack points, zeros and targets.
def _jet_mul(a, b):
    """Truncated product of (broadcast-compatible) stacked jets."""
    out = a[..., :1] * b
    for i in range(1, a.shape[-1]):
        out[..., i:] += a[..., i:i + 1] * b[..., :-i]
    return out


def _jet_div(a, b):
    """Truncated quotient ``a / b`` of stacked jets, with b_0 != 0."""
    q = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    for i in range(q.shape[-1]):
        q[..., i] = a[..., i] - np.sum(b[..., i:0:-1] * q[..., :i], axis=-1)
        q[..., i] /= b[..., 0]
    return q


def _taylor(B: FiniteBlaschke, points, K: int):
    """Jets of ``B`` to order ``K`` at ``points``, one row per point: the
    truncated product of each Moebius factor's series, (p - a)/D and then
    (1 - |a|^2) conj(a)^(n-1) / D^(n+1) for n = 1..K, D = 1 - conj(a) p."""
    p = np.asarray(points, dtype=complex)[:, None]
    out = np.zeros((len(p), K + 1), dtype=complex)
    out[:, 0] = B.eta
    n = np.arange(K)
    for a in B.zeros:
        D = 1.0 - np.conj(a) * p
        tail = (1.0 - abs(a) ** 2) * np.conj(a) ** n / D ** (n + 2)
        out = _jet_mul(out, np.hstack([(p - a) / D, tail]))
    return out


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
    at_origin = B.zeros.count(0)
    if at_origin != order + 1:
        raise InputError(
            f"zero order at origin is {at_origin}, expected {order + 1}"
        )
    return math.factorial(order + 1) * _origin_coefficient(B, order).real


def _origin_coefficient(B: FiniteBlaschke, order: int) -> complex:
    """The coefficient of ``z^(order+1)`` in ``B``, complex in general.

    With a zero of exact order ``order + 1`` at 0 it is ``g(0) = eta *
    prod(-a)`` over the nonzero zeros ``a`` (each factor is ``-a`` at 0);
    with a zero of higher order it is 0.  A lower order raises
    ``InputError``.
    """
    at_origin = B.zeros.count(0)
    if at_origin < order + 1:
        raise InputError(
            f"zero order at origin is {at_origin}, expected at least "
            f"{order + 1}"
        )
    if at_origin > order + 1:
        return 0j
    return math.prod((-a for a in B.zeros if a != 0), start=B.eta)


def critical_points(B: FiniteBlaschke) -> CriticalSet:
    """Critical set of ``B`` inside the unit disk, with multiplicities.

    Each ``k``-fold zero of ``B`` is a ``(k - 1)``-fold critical point; the
    others are roots of

        B'/B(z) = sum_p s / (z - p),

    whose poles ``p`` are the distinct zeros ``a`` of ``B``, with weight
    ``s = k`` their multiplicity, and for ``a != 0`` their reflections
    ``1/conj(a)``, with weight ``-k``.  The roots come in pairs ``z``,
    ``1/conj(z)``, and the inner one of each pair is critical; a root too
    close to the circle to classify raises ``NumericalError``.

    The roots start as the eigenvalues of an arrowhead matrix (Golub, SIAM
    Rev. 15, 1973).  The disk automorphism ``T`` that swaps the smallest
    zero ``c`` of ``B`` and 0 is its own inverse, and ``crit B =
    T(crit(B o T))``; ``B o T`` has a zero of some order ``n0`` at 0, so
    ``z (B o T)'/(B o T)(z) = n0 + sum s p / (z - p)`` over its nonzero
    poles, whose roots are the eigenvalues of ``diag(p) - (s p / n0) 1^T``.

    Roots closer than ``GROUP_TOL`` are tested as one multiple root (see
    ``_group``): a multiple critical point splits under the error of the
    zeros, and so nearby-but-distinct critical points that close are
    reported as one.  Each ``k``-fold point is polished by three Newton
    steps on the ``(k - 1)``-th derivative of B'/B: with ``S_j = sum s
    (z - p)^-j``, each step is ``z += S_k / (k S_(k+1))``.  A root that
    the eigen-solve loses next to a zero of B raises ``NumericalError``.

    For z(z - a)/(1 - a z) the critical point is (1 - sqrt(1 - a^2))/a:

    >>> [(round(p.real, 12), k) for p, k in
    ...  critical_points(FiniteBlaschke(zeros=(0, 0.5))).entries]
    [(0.267949192431, 1)]
    """
    d = B.degree
    if d <= 1:
        return CriticalSet()
    zeros, mult = np.unique(np.array(B.zeros), return_counts=True)
    entries = [(a, k - 1) for a, k in zip(zeros, mult) if k > 1]
    # T(z) = (c - z)/(1 - conj(c) z) is -z when 0 is a zero of B
    T = DiskAutomorphism(center=zeros[np.argmin(np.abs(zeros))])
    u = T(zeros)
    p, s = _poles(u[u != 0], mult[u != 0])
    n0 = mult[u == 0].sum()
    roots = np.linalg.eigvals(np.diag(p) - (s * p / n0)[:, None])
    if np.any(np.abs(np.abs(roots) - 1.0) < 10 * MERGE_TOL):
        raise NumericalError(
            "critical point too close to the unit circle to classify"
        )
    inside = T(roots[np.abs(roots) < 1.0])
    if 2 * len(inside) != len(roots):
        raise NumericalError(
            f"expected {d - 1} interior critical points, found "
            f"{d - len(zeros) + len(inside)}"
        )
    poles, signs = _poles(zeros, mult)
    points, orders = _group(inside, poles, signs)
    with np.errstate(all="ignore"):  # a lost root lands on a pole
        for _ in range(3):
            r = 1 / (points[:, None] - poles)
            rk = signs * r ** orders[:, None]
            points += rk.sum(axis=1) / (orders * (rk * r).sum(axis=1))
    if not np.all(np.isfinite(points)):
        raise NumericalError("critical point lost next to a zero of B")
    entries.extend(zip(points, orders.tolist()))
    return CriticalSet(tuple(entries))


def _poles(zeros, mult):
    """Poles and weights of B'/B from the distinct zeros and their
    multiplicities: each zero ``a`` with weight ``k`` and, for ``a != 0``,
    its reflection ``1/conj(a)`` with weight ``-k``."""
    nonzero = zeros != 0
    return (np.concatenate([zeros, 1 / np.conj(zeros[nonzero])]),
            np.concatenate([mult, -mult[nonzero]]).astype(float))


def _group(z, poles, signs):
    """Roots of B'/B within ``GROUP_TOL`` of one another, as (points,
    orders).

    A group of ``k`` with centroid ``c`` and radius ``r`` is one ``k``-fold
    root if the split ``|S_(k+1)(c)| r^k`` stays within ``SPLIT_TOL`` of
    the size of B'/B at ``c``, the sum of its terms ``sum |s/(c - p)|``.
    Otherwise its members stay simple roots.
    """
    linked = np.abs(z[:, None] - z) <= GROUP_TOL
    for j in range(z.size):
        linked |= np.outer(linked[:, j], linked[j])
    points, orders = [], []
    for i in range(z.size):
        if linked[i, :i].any():
            continue  # i is not its group's smallest index
        members = z[linked[i]]
        k = members.size
        if k > 1:
            c = members.mean()
            r = 1 / (c - poles)
            split = (abs(np.sum(signs * r ** (k + 1)))
                     * np.max(np.abs(members - c)) ** k)
            if split <= SPLIT_TOL * np.sum(np.abs(signs * r)):
                points.append(c)
                orders.append(k)
                continue
        points.extend(members)
        orders.extend([1] * k)
    return np.array(points, dtype=complex), np.array(orders)


def antiderivative(poly, points):
    """Descending coefficients of  integral_0^z p(t) prod_j (t - c_j) dt.

    ``poly`` holds the descending coefficients of ``p`` and ``points`` the
    roots ``c_j``, repeated by multiplicity; the factors are multiplied in
    the given order.
    """
    core = np.asarray(poly, dtype=complex)
    for c in points:
        core = np.convolve(core, np.array([1.0, -c]))
    return np.polyint(core)


def compose(B: FiniteBlaschke, C: FiniteBlaschke) -> FiniteBlaschke:
    """The composite ``B o C`` as a finite Blaschke product.

    Its zeros are the ``C``-preimages of the zeros of ``B`` (degree
    ``deg B * deg C``).  A zero of ``B`` at 0 contributes the zeros of
    ``C`` exactly; the preimages of any other zero ``a`` are the roots of
    ``eta_C N(z) - a D(z)``, with ``N(z) = prod (z - c)`` and ``D(z) =
    prod (1 - conj(c) z)``, each polished by two Newton steps on ``C(z) =
    a``.  The unimodular factor comes from one boundary value, ``B(C(1))``
    over the composite's zeros' factors at 1: both are unimodular, so
    neither is ever small.  The result is validated at three points.
    """
    if B.degree == 0 or C.degree == 0:
        # constant outer or inner factor collapses the composite
        value = evaluate(B, evaluate(C, 0j)) if C.degree == 0 else B.eta
        return FiniteBlaschke(zeros=(), eta=value)
    N = np.poly(C.zeros)
    # D is N with its coefficients conjugated and reversed
    D = np.conj(N)[::-1]
    zeros = []
    for a in B.zeros:
        if a == 0:
            zeros.extend(C.zeros)
            continue
        z = np.roots(C.eta * N - a * D)
        for _ in range(2):
            value, slope = _scan(C, z)
            # no step at a critical point of C, where C' = 0
            z = z - np.divide(value - a, slope, out=np.zeros_like(value),
                              where=slope != 0)
        zeros.extend(z)
    zeros = np.array(zeros)
    eta = (evaluate(B, evaluate(C, 1.0))
           / np.prod((1.0 - zeros) / (1.0 - np.conj(zeros))))
    result = FiniteBlaschke(zeros=tuple(zeros), eta=eta)
    for check in (0.4 + 0j, -0.1 + 0.33j, 0.05 - 0.21j):
        direct = evaluate(B, evaluate(C, check))
        if abs(direct - evaluate(result, check)) > 1e-8:
            raise NumericalError("composition validation failed")
    return result
