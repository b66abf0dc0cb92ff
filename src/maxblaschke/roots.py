"""Polynomial roots and prescribed-root antiderivatives.

Roots come from the eigenvalues of the (balanced) companion matrix, each
polished by two Newton iterations; exact roots at the origin are kept
exact.  ``MERGE_TOL`` is the one distance below which ``CriticalSet``
treats two points as one.
"""

from __future__ import annotations

import numpy as np

#: Final merge tolerance: roots closer than this are never reported separately.
MERGE_TOL = 1e-8

_EPS = np.finfo(float).eps


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
