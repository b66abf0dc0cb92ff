"""Shared fixtures: the random critical-set corpus and its cached solves.

The corpus is the common input for the round-trip, extremality, curvature,
and boundary suites; solving it once per session keeps the whole run inside
the runtime budget.
"""

import os

# One BLAS thread, set before numpy loads BLAS, as bench/run.py does: the
# solver's matrices have at most a few hundred rows, and under OpenBLAS's
# default pool the timed solver tests would depend on warm-up and load.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import time  # noqa: E402

import numpy as np
import pytest

from maxblaschke.blaschke import CriticalSet
from maxblaschke.metrics import PolarGrid, pullback_density
from maxblaschke.solver import solve_maximal

CORPUS_SEED = 20250823
CORPUS_SIZE = 50


def random_critical_set(rng) -> CriticalSet:
    """Up to 8 points counted with multiplicity (each at most double),
    radii in [0.15, 0.7], with an origin point thrown in now and then."""
    entries = []
    total = 0
    target = int(rng.integers(1, 9))
    while total < target:
        mult = int(rng.integers(1, 3))
        if total + mult > target:
            mult = 1
        r = rng.uniform(0.15, 0.7)
        th = rng.uniform(0, 2 * np.pi)
        entries.append((r * np.exp(1j * th), mult))
        total += mult
    if rng.random() < 0.3:
        entries[0] = (0j, entries[0][1])
    return CriticalSet(tuple(entries))


def critical_numerator_coeffs(zeros):
    """Coefficients (descending) of the numerator polynomial of ``B'``,

        Q(z) = sum_k w_k prod_{j != k} P_j(z),

    with ``P_j(z) = (z - a_j)(1 - conj(a_j) z)`` and ``w_j = 1 - |a_j|^2``.
    One forward scan over the zeros carries ``(prod P_j, Q)``, the
    recurrence that ``solver._Conditions`` runs on Taylor jets; the sum is
    kept padded to the length of the product, so its two leading entries
    stay zero.
    """
    p = np.ones(1, dtype=complex)
    s = np.zeros(1, dtype=complex)
    for a in zeros:
        P = np.array([-np.conj(a), 1.0 + abs(a) ** 2, -a], dtype=complex)
        s = np.convolve(s, P)
        s[2:] += (1.0 - abs(a) ** 2) * p
        p = np.convolve(p, P)
    return s[2:] if len(s) > 1 else s


def scan_reference(B, z):
    """``blaschke._scan`` in its expression form, one new array per
    operation: the reference that the in-place scan must match bit for
    bit on 0-d inputs and on arrays of two or more points, since it
    performs the same operations in the same order."""
    z = np.asarray(z, dtype=complex)
    p = np.ones(z.shape, dtype=complex)
    dp = np.zeros(z.shape, dtype=complex)
    for a in B.zeros:
        denom = 1.0 - np.conj(a) * z
        f = (z - a) / denom
        dp = dp * f + p * ((1.0 - abs(a) ** 2) / denom**2)
        p = p * f
    return B.eta * p, B.eta * dp


@pytest.fixture(scope="session")
def corpus():
    rng = np.random.default_rng(CORPUS_SEED)
    return [random_critical_set(rng) for _ in range(CORPUS_SIZE)]


@pytest.fixture(scope="session")
def corpus_solves(corpus):
    """Per-entry (report, wall seconds); timing feeds the round-trip budget."""
    out = []
    for C in corpus:
        t0 = time.perf_counter()
        rep = solve_maximal(C)
        out.append((rep, time.perf_counter() - t0))
    return out


@pytest.fixture(scope="session")
def corpus_fields(corpus_solves):
    """Pullback densities of every corpus solve on the default grid."""
    grid = PolarGrid()
    fields = [pullback_density(rep.solution, grid) for rep, _ in corpus_solves]
    return grid, fields
