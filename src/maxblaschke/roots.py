"""Polynomial root extraction with multiplicity detection.

Roots come from the eigenvalues of the (balanced) companion matrix, each
polished by two Newton iterations.  Repeated roots split under rounding into
clusters whose radius is set by the noise level of polynomial evaluation, not
by the merge tolerance.  So roots are grouped once, as the connected
components of the coarse ``PRECLUSTER_TOL`` adjacency, and a group is taken
as one multiple root only if its radius is consistent with the expected
noise-splitting radius for that multiplicity; an accepted group is
represented by its centroid, polished on the appropriate derivative.  The
roots of a rejected group are returned as simple roots, and the one merge
within ``MERGE_TOL`` is the one ``CriticalSet`` applies to every point set.
"""

from __future__ import annotations

import math

import numpy as np

#: Final merge tolerance: roots closer than this are never reported separately.
MERGE_TOL = 1e-8
#: Coarse pairwise distance for gathering candidate multiple-root clusters.
PRECLUSTER_TOL = 1e-4
#: A cluster is a k-fold root if its radius is below this multiple of the
#: noise-splitting radius (observed ratios: ~1 for true multiples, >30 for
#: distinct roots separated by 1e-6 or more).
NOISE_RADIUS_FACTOR = 10.0

_EPS = np.finfo(float).eps
#: Assumed relative accuracy of the coefficients: a k-fold root splits under
#: it into a cluster of radius ~ _NOISE_REL**(1/k).  Critical numerators come
#: from solved zeros, so this is the solver's level, not the rounding level.
_NOISE_REL = 1e-12


def _newton_polish(coeffs, z, iters=2):
    dcoeffs = np.polyder(coeffs)
    for _ in range(iters):
        p = np.polyval(coeffs, z)
        dp = np.polyval(dcoeffs, z)
        step = np.where(np.abs(dp) > 0, p / np.where(dp == 0, 1, dp), 0)
        z = z - step
    return z

def polynomial_roots(coeffs):
    """All roots of ``coeffs`` (descending order), polished.

    Exact trailing zero coefficients are stripped and re-added as exact roots
    at the origin, which keeps origin multiplicities sharp.  Leading
    coefficients at rounding level relative to the largest are dropped.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.size == 0 or not np.any(c):
        raise ValueError("zero polynomial has no well-defined roots")
    scale = np.max(np.abs(c))
    lead = 0
    while abs(c[lead]) <= 64 * _EPS * scale:
        lead += 1
    c = c[lead:]
    trail = 0
    while trail < c.size - 1 and c[-1 - trail] == 0:
        trail += 1
    core = c[: c.size - trail] if trail else c
    roots = np.roots(core) if core.size > 1 else np.array([], dtype=complex)
    roots = _newton_polish(core, roots)
    if trail:
        roots = np.concatenate([roots, np.zeros(trail, dtype=complex)])
    return roots


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


def _noise_radius(coeffs, z, k):
    """Expected cluster radius of a k-fold root under coefficient noise."""
    dk = np.polyder(coeffs, k)
    lead = abs(np.polyval(dk, z)) / math.factorial(k)
    if lead == 0:
        return math.inf
    # absolute uncertainty of evaluating the polynomial at z when its
    # coefficients carry a relative error of _NOISE_REL
    powers = np.abs(z) ** np.arange(len(coeffs) - 1, -1, -1)
    noise = _NOISE_REL * float(np.sum(np.abs(coeffs) * powers))
    return (noise / lead) ** (1.0 / k)


def cluster_roots(roots, coeffs):
    """Group ``roots`` of ``coeffs`` into (representative, multiplicity) pairs.

    Groups are the connected components of the roots within
    ``PRECLUSTER_TOL`` of one another, each ordered by its smallest index
    and listing its members in ascending order.  A group too wide for a
    multiple root under coefficient noise comes back as simple roots.

    Parameters
    ----------
    roots : array of complex
        Output of :func:`polynomial_roots` (or any subset of it).
    coeffs : array
        The polynomial the roots belong to, used for the multiplicity
        consistency test and centroid polishing.

    Returns
    -------
    list of (complex, int)
    """
    roots = np.asarray(roots, dtype=complex)
    # transitive closure of the adjacency (Warshall)
    linked = np.abs(roots[:, None] - roots[None, :]) <= PRECLUSTER_TOL
    for j in range(roots.size):
        linked |= np.outer(linked[:, j], linked[j])
    out = []
    for i in range(roots.size):
        if linked[i, :i].any():
            continue  # i is not its group's smallest index
        members = roots[linked[i]]
        k = len(members)
        centroid = complex(members.mean())
        radius = float(np.max(np.abs(members - centroid)))
        if k > 1 and radius <= max(
            MERGE_TOL, NOISE_RADIUS_FACTOR * _noise_radius(coeffs, centroid, k)
        ):
            # one k-fold root: the centroid polished on p^(k-1)
            dk1 = np.polyder(coeffs, k - 1)
            out.append((complex(_newton_polish(dk1, centroid, iters=3)), k))
        else:
            out.extend((complex(z), 1) for z in members)
    return out
