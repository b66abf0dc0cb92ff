"""Polynomial root extraction with multiplicity detection.

Roots come from the eigenvalues of the (balanced) companion matrix, each
polished by two Newton iterations.  Repeated roots split under rounding into
clusters whose radius is set by the noise level of polynomial evaluation, not
by the merge tolerance, so clustering proceeds in two stages: a coarse
union-find pass gathers candidate clusters, and each cluster is accepted as a
multiple root only if its radius is consistent with the expected
noise-splitting radius for that multiplicity.  Accepted clusters are
represented by their centroid, polished on the appropriate derivative.
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


def _noise_scale(coeffs, z):
    # absolute uncertainty of evaluating the polynomial at z when its
    # coefficients carry a relative error of _NOISE_REL
    powers = np.abs(z) ** np.arange(len(coeffs) - 1, -1, -1)
    return _NOISE_REL * float(np.sum(np.abs(coeffs) * powers))


def _union_find_clusters(points, tol):
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(points[i] - points[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _derivative_coeffs(coeffs, order):
    c = np.asarray(coeffs, dtype=complex)
    for _ in range(order):
        c = np.polyder(c)
    return c


def _noise_radius(coeffs, z, k):
    """Expected cluster radius of a k-fold root under coefficient noise."""
    dk = _derivative_coeffs(coeffs, k)
    lead = abs(np.polyval(dk, z)) / math.factorial(k)
    if lead == 0:
        return math.inf
    return (_noise_scale(coeffs, z) / lead) ** (1.0 / k)


def cluster_roots(roots, coeffs):
    """Group ``roots`` of ``coeffs`` into (representative, multiplicity) pairs.

    Roots within ``MERGE_TOL`` are always merged.

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
    if roots.size == 0:
        return []

    def multiple_root(members):
        # one k-fold root: the centroid polished on p^(k-1)
        k = len(members)
        dk1 = _derivative_coeffs(coeffs, k - 1)
        return complex(_newton_polish(dk1, complex(members.mean()), iters=3)), k

    out = []
    for group in _union_find_clusters(list(roots), PRECLUSTER_TOL):
        members = roots[group]
        k = len(members)
        if k == 1:
            out.append((complex(members[0]), 1))
            continue
        centroid = complex(members.mean())
        radius = float(np.max(np.abs(members - centroid)))
        limit = max(
            MERGE_TOL, NOISE_RADIUS_FACTOR * _noise_radius(coeffs, centroid, k)
        )
        if radius <= limit:
            out.append(multiple_root(members))
        else:
            # genuinely separate roots that happened to fall in one coarse
            # cluster: fall back to the plain merge tolerance
            for sub in _union_find_clusters(list(members), MERGE_TOL):
                subm = members[sub]
                if len(sub) == 1:
                    out.append((complex(subm[0]), 1))
                else:
                    out.append(multiple_root(subm))
    return out
