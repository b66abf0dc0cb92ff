"""The four benchmark workloads: seeded inputs, one op each, and its checks.

Every workload is a closed loop with one client: the benchmark process runs
one op, checks it, and only then starts the next.  Ops are grouped in rounds,
and a run stops at a round boundary.  The critical sets are those of the
tests' corpus (see :func:`corpus`): a ``solve-corpus`` round solves all of
them, and a ``verify-corpus`` round checks each small one.  The seed draws the
order of each round and every other input from the streams
``numpy.random.default_rng([s, workload_index, i])``, so the same seed always
gives the same inputs, and a traced op sees the inputs of the untraced one.

An op fails when it raises, when a CLI child exits non-zero, or when its
correctness check finds a wrong answer.  Failures come in two kinds: a
refusal is the library's own typed error (``NumericalError``/``InputError``,
or CLI exit code 2), which its contract allows; a wrong answer
(:class:`CheckFailed`, or any other exception) is a defect.  Both count as
failed ops; only wrong answers make a run incorrect.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

NAMES = ("solve-corpus", "verify-corpus", "pde-oracle", "cli")

#: Rounds of inputs generated during set-up (generation is cheap and belongs
#: to set-up time); a run that gets further starts over at round 0.
MAX_ROUNDS = 256


class CheckFailed(Exception):
    """An op finished but its output is wrong."""


class Refused(Exception):
    """A CLI child reported a typed library error (exit code 2)."""


def _rng(seed: int, workload: str, round_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, NAMES.index(workload), round_index])


#: The tests' corpus (tests/conftest.py): its seed and its size.
CORPUS_SEED = 20250823
CORPUS_SIZE = 50


@functools.lru_cache(maxsize=None)
def corpus() -> tuple:
    """The entries of the tests' 50 critical sets, drawn exactly as
    tests/conftest.py draws them: mass m = 1..8 counted with multiplicity
    (each entry at most double), radii in [0.15, 0.7], and the first entry
    moved to 0 with probability 0.3.

    The tests require the round trip, the extremality suite and the
    curvature band to hold on every one of these sets.  Fresh draws from the
    same distribution do not always hold the round trip: a few sets in a
    thousand, all with m >= 5 and a double point, miss the 1e-8 tolerance or
    recover the wrong multiplicities (the accuracy limit of
    ``critical_points``, ROADMAP item 3), and the library refuses them with
    ``NumericalError``.  The benchmark times the library on inputs it
    promises to handle, so it uses these sets and no others.
    """
    rng = np.random.default_rng(CORPUS_SEED)
    sets = []
    for _ in range(CORPUS_SIZE):
        entries = []
        total = 0
        target = int(rng.integers(1, 9))
        while total < target:
            mult = int(rng.integers(1, 3))
            if total + mult > target:
                mult = 1
            r = rng.uniform(0.15, 0.7)
            th = rng.uniform(0, 2 * np.pi)
            entries.append((complex(r * np.exp(1j * th)), mult))
            total += mult
        if rng.random() < 0.3:
            entries[0] = (0j, entries[0][1])
        sets.append(tuple(entries))
    return tuple(sets)


def _mass(entries) -> int:
    return sum(k for _, k in entries)


def _small_sets(max_mass: int) -> list:
    """The corpus sets of mass at most ``max_mass``, in corpus order."""
    return [e for e in corpus() if _mass(e) <= max_mass]


def _crit_dict(entries) -> dict:
    return {
        "points": [
            {"re": p.real, "im": p.imag, "multiplicity": m} for p, m in entries
        ]
    }


def _product_zeros(rng, extra: int) -> list:
    """A zero at 0 plus ``extra`` zeros with |a| <= 0.6.  Critical points lie
    in the hyperbolic hull of the zeros, so they stay inside |z| <= 0.6."""
    radii = 0.6 * np.sqrt(rng.random(extra))
    angles = 2 * np.pi * rng.random(extra)
    return [0j] + [complex(r * np.exp(1j * t)) for r, t in zip(radii, angles)]


def _import_library():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import maxblaschke  # noqa: F401  (import time is part of set-up)

    return maxblaschke


# ----------------------------------------------------------------------
# solve-corpus


class SolveCorpus:
    """solve_maximal on a corpus set plus an independent round trip.

    Why: the basic user operation; the solver does nearly all the work.

    A round solves all 50 corpus sets, in an order drawn from the seed, so
    every run that stops at a round boundary does the same work.
    """

    name = "solve-corpus"

    def __init__(self, seed: int):
        mb = _import_library()
        self.mb = mb
        self.refusals = (mb.NumericalError, mb.InputError)
        self.sets = [mb.CriticalSet(e) for e in corpus()]
        n = len(self.sets)
        self.order = [_rng(seed, self.name, r).permutation(n)
                      for r in range(MAX_ROUNDS)]

    @property
    def round_size(self) -> int:
        return len(self.sets)

    def op(self, i: int) -> None:
        r, k = divmod(i, self.round_size)
        C = self.sets[self.order[r % MAX_ROUNDS][k]]
        rep = self.mb.solve_maximal(C)
        check_solve(self.mb, C, rep)


def check_solve(mb, C, rep) -> None:
    B = rep.solution
    m = C.total
    n = C.origin_multiplicity
    if B.degree != m + 1:
        raise CheckFailed(f"degree {B.degree}, expected {m + 1}")
    at_origin = sum(1 for a in B.zeros if a == 0)
    if at_origin != n + 1:
        raise CheckFailed(f"zero order {at_origin} at 0, expected {n + 1}")
    err = C.match(mb.critical_points(B))
    if not err <= 1e-8:
        raise CheckFailed(f"round trip off by {err:.3e}")
    if m == n:
        # every critical point at 0: the extremal is z^(m+1)
        expect = float(math.factorial(m + 1))
    elif m == 1:
        c = abs(C.entries[0][0])
        expect = 2.0 * c / (1.0 + c * c)
    else:
        return
    if not abs(rep.functional_value - expect) <= 1e-10 * max(1.0, expect):
        raise CheckFailed(
            f"functional {rep.functional_value!r}, closed form {expect!r}"
        )


# ----------------------------------------------------------------------
# verify-corpus


class VerifyCorpus:
    """The verification suites on one pre-solved product per op.

    Why: the solver is used differently (re-solves of enlarged sets), and
    competitor scoring and grid evaluation do real work only here.

    The pool holds the 13 corpus sets of mass 1 and 2, in an order drawn
    from the seed, and a round runs one op on each.  With masses up to 8 an
    op takes 0.5-4 s, dominated by the two re-solves; at masses 1-2 the
    re-solves (of 2-4 points) are about half of each op, and the competitor
    scoring and grid work, which hardly depend on the mass, about a third.

    Each set is scored against the competitor batch that the tests'
    extremality criterion draws for it.  The re-solves in a batch cost from a
    third to three times their mean, so batches drawn per op moved the
    median op time of a 26-op run by a tenth between seeds.
    """

    name = "verify-corpus"
    max_mass = 2
    competitors = 1000

    def __init__(self, seed: int):
        mb = _import_library()
        self.mb = mb
        self.refusals = (mb.NumericalError, mb.InputError)
        # tests/test_acceptance.py, criterion 03: one stream, corpus order
        batch_rng = np.random.default_rng(CORPUS_SEED + 3)
        sets = []
        for entries in corpus():
            C = mb.CriticalSet(entries)
            specs = mb.default_competitor_specs(C, self.competitors, batch_rng)
            if C.total <= self.max_mass:
                sets.append((C, specs))
        self.pool = []
        for j in _rng(seed, self.name, 0).permutation(len(sets)):
            C, specs = sets[j]
            try:
                B = mb.solve_maximal(C).solution
            except self.refusals as exc:
                B = exc  # every op on this set fails with it
            self.pool.append((C, B, specs))
        self.grid = mb.PolarGrid()

    @property
    def round_size(self) -> int:
        return len(self.pool)

    def op(self, i: int) -> None:
        mb = self.mb
        C, B, specs = self.pool[i % self.round_size]
        if isinstance(B, Exception):
            raise B
        ext = mb.extremality_suite(C, B, specs)
        if not (ext["pass"] and ext["margin"] >= -1e-9):
            raise CheckFailed(f"extremality margin {ext['margin']!r}")
        for probe in mb.boundary_probes(C):
            if not mb.boundary_quotient(B, probe)["pass"]:
                raise CheckFailed("boundary quotient failed")
        if not mb.phi_boundary_bound(B)["pass"]:
            raise CheckFailed("phi boundary bound failed")
        field = mb.pullback_density(B, self.grid)
        dev = mb.discrete_curvature(field).max_deviation(-4.0)
        band = 10.0 * self.grid.h ** 2
        if not dev <= band:
            raise CheckFailed(f"curvature deviation {dev:.3e} > {band:.3e}")


# ----------------------------------------------------------------------
# pde-oracle


class PdeOracle:
    """oracle_validate(B, 0.75, 257) on a seeded product; no solver runs.

    Why: the only workload where maxblaschke.pde does the work.
    """

    name = "pde-oracle"
    extras = (2, 3, 4)
    radius = 0.75
    n = 257

    def __init__(self, seed: int):
        mb = _import_library()
        self.mb = mb
        self.refusals = (mb.NumericalError, mb.InputError)
        self.rounds = []
        for r in range(MAX_ROUNDS):
            rng = _rng(seed, self.name, r)
            self.rounds.append(
                [mb.FiniteBlaschke(zeros=tuple(_product_zeros(rng, int(k))),
                                   eta=complex(np.exp(2j * np.pi * rng.random())))
                 for k in rng.permutation(self.extras)]
            )

    @property
    def round_size(self) -> int:
        return len(self.extras)

    def op(self, i: int) -> None:
        B = self.rounds[i // self.round_size % MAX_ROUNDS][i % self.round_size]
        dev = self.mb.oracle_validate(B, self.radius, self.n)
        h = 2.0 * self.radius / (self.n - 1)
        if not dev <= 5.0 * h * h:
            raise CheckFailed(f"oracle deviation {dev:.3e} > 5h^2")


# ----------------------------------------------------------------------
# cli


class Cli:
    """One ``python -m maxblaschke.cli`` child per op, commands in rotation.

    Why: users see the CLI, and its wall time is import plus serialization
    rather than numerics.  The parent never imports the library.
    """

    name = "cli"
    refusals = (Refused,)
    commands = ("solve", "critpoints", "verify-boundary", "metric", "curvature")
    #: traced ops run this wrapper instead of ``-m maxblaschke.cli``
    child = ROOT / "bench" / "cli_child.py"

    def __init__(self, seed: int):
        #: set by the traced run around each traced op
        self.traced = False
        self.work = OUT / f"work-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        rng = _rng(seed, self.name, 0)
        solvable = _small_sets(3)
        small = _small_sets(2)

        def pick(sets):
            return _crit_dict(sets[int(rng.integers(len(sets)))])

        inputs = {
            "solve": pick(solvable),
            "critpoints": {
                "eta": {"re": 1.0, "im": 0.0},
                "zeros": [{"re": a.real, "im": a.imag}
                          for a in _product_zeros(rng, int(rng.integers(2, 4)))],
            },
            "verify-boundary": pick(small),
            "metric": pick(small),
            "curvature": pick(small),
        }
        self.argv = {}
        for cmd, data in inputs.items():
            path = self.work / f"{cmd}.in.json"
            path.write_text(json.dumps(data))
            argv = [cmd, "--input", str(path)]
            if cmd in ("metric", "curvature"):
                argv += ["--output", str(self.work / f"{cmd}.csv")]
            self.argv[cmd] = argv
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.reference = {}
        self.child_traces = []

    @property
    def round_size(self) -> int:
        return len(self.commands)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def op(self, i: int) -> None:
        cmd = self.commands[i % self.round_size]
        argv = self.argv[cmd]
        if self.traced:
            spans = self.work / f"spans-{i}.json"
            args = [sys.executable, str(self.child), str(spans)] + argv
        else:
            args = [sys.executable, "-m", "maxblaschke.cli"] + argv
        proc = subprocess.run(
            args, cwd=ROOT, env=self.env, capture_output=True, timeout=60
        )
        if self.traced and spans.exists():
            self.child_traces.append((i, json.loads(spans.read_bytes())))
        if proc.returncode != 0:
            msg = (f"{cmd} exited {proc.returncode}: "
                   f"{proc.stderr.decode(errors='replace').strip()[-200:]}")
            raise Refused(msg) if proc.returncode == 2 else CheckFailed(msg)
        if cmd in ("metric", "curvature"):
            csv = (self.work / f"{cmd}.csv").read_bytes()
            meta = (self.work / f"{cmd}.csv.json").read_bytes()
            rows = json.loads(meta)["rows"]
            if csv.count(b"\n") != rows + 1:
                raise CheckFailed(f"{cmd} CSV has the wrong row count")
            out = csv + meta
        else:
            out = proc.stdout
            if json.loads(out).get("command") != cmd:
                raise CheckFailed(f"{cmd} report names another command")
        digest = hashlib.sha256(out).hexdigest()
        first = self.reference.setdefault(cmd, digest)
        if digest != first:
            raise CheckFailed(f"{cmd} output differs from its first run")


WORKLOADS = {
    w.name: w for w in (SolveCorpus, VerifyCorpus, PdeOracle, Cli)
}
