"""Benchmark of the maxblaschke library and CLI.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload solve-corpus --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing, with every
time scaled to a reference speed of the machine (see REFERENCES);
``--trace 1`` runs the same ops untraced and then traced and reports the
per-layer metrics, unscaled, and the tracing overhead.  Metric names and units come from BENCHMARK.json at
the root.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment, every op latency and, when traced, every span) is written to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: One client on one core: BLAS pools would otherwise spread small products
#: over both cores and add scheduling noise.  An explicit setting wins.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

#: Fresh processes that each run the workload's whole set-up; setup_s is
#: their median.
SETUP_REPEATS = 3
#: Reference kernel runs before each set-up.
SETUP_REFS = 2
#: A run that is still inside a round after this long stops anyway, so that
#: it ends within 180 s however slow an op becomes.
HARD_STOP_S = 120.0


def _fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def _spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def latency_quantiles(latencies) -> tuple:
    """(median, tail, tail level) of the op latencies.  The tail level is
    that of the highest sample with at least 10 samples beyond it, and never
    below the median's.  Both quantiles are
    Harrell-Davis estimates, weighted means of all order statistics: with a
    few dozen ops from sizes whose costs differ severalfold, the single
    middle sample jumps between sizes from run to run, and the weighted
    mean does not."""
    from scipy.stats.mstats import hdquantiles

    n = len(latencies)
    level = max((n - 10) / n, 0.5)
    p50, tail_s = hdquantiles(latencies, [0.5, level])
    return float(p50), float(tail_s), level


def timed_op(w, i, refused, wrong) -> float:
    """Run op ``i``; file a failure under ``refused`` or ``wrong``."""
    t = time.perf_counter()
    try:
        w.op(i)
    except w.refusals as exc:
        refused.append((i, f"{type(exc).__name__}: {exc}"))
    except Exception as exc:  # a wrong answer or a defect; reported
        wrong.append((i, f"{type(exc).__name__}: {exc}"))
    return time.perf_counter() - t


def compute_kernel() -> float:
    """Wall time of a fixed piece of work made of what the library's ops are
    made of: interpreter loops over complex scalars, complex numpy
    arithmetic on small arrays and a small dense solve.  No library code
    runs, so a change to the library cannot change it."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = 0.6 * (rng.random(12) - 0.5 + 1j * (rng.random(12) - 0.5))
    mat = rng.random((24, 24)) + 24 * np.eye(24)
    z = np.exp(2j * np.pi * np.arange(64) / 64)[:, None]
    acc = np.linalg.solve(mat, z.real[:24, 0])[0]  # first call sets up LAPACK
    t = time.perf_counter()
    for k in range(425):
        acc += abs(np.prod((z - a) / (1 - np.conj(a) * z), axis=1).sum())
        x = np.linalg.solve(mat, np.full(24, float(k)))
        for c in a:
            acc += abs(c * c.conjugate() + x[0])
    return time.perf_counter() - t


def spawn_kernel() -> float:
    """Wall time of starting a fresh interpreter that imports numpy, which
    is most of what a CLI op and a set-up do; no library code runs."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t


#: kernel -> (its seconds on the nominal machine, op time between two runs).
#:
#: The machine is shared, and its speed drifts by a third within minutes, in
#: CPU time as much as in wall time.  Every end-to-end time is scaled to the
#: nominal speed by the nominal seconds over the kernel's mean time: over the
#: run for ``ops_per_s``, over the two kernel runs around the op for each op
#: latency.  Each workload uses the kernel whose time tracks its ops: over
#: 25 s blocks on a shared 2-core machine, the compute kernel tracked a round
#: of 8 solves with correlation 0.91 and cut the blocks' spread from 0.22 to
#: 0.06 of their median, and the spawn kernel tracked CLI ops with
#: correlation 0.82 where the compute kernel gave 0.40.
REFERENCES = {compute_kernel: (0.025, 0.25), spawn_kernel: (0.15, 2.0)}


def run_ops(w, seconds, step, kernel) -> tuple:
    """Closed loop over ops 0, 1, ... in whole rounds: ``step(i)`` runs op
    ``i``; stop at the round boundary nearest to ``seconds``, or after
    HARD_STOP_S even inside a round.  The reference ``kernel`` runs first
    and again after the op time REFERENCES gives it.  Returns the op time,
    the kernel's times, and for each op the index of the kernel run last
    before it."""
    every = REFERENCES[kernel][1]
    refs, before = [], []
    t0 = time.perf_counter()
    since_ref = every
    i = 0
    while True:
        if since_ref >= every:
            refs.append(kernel())
            since_ref = 0.0
        before.append(len(refs) - 1)
        t = time.perf_counter()
        step(i)
        since_ref += time.perf_counter() - t
        i += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= HARD_STOP_S:
            break
        if i % w.round_size == 0:
            per_round = elapsed * w.round_size / i
            if elapsed + per_round / 2 >= seconds:
                break
    return elapsed - sum(refs), refs, before


def timed_setups(args) -> tuple:
    """Wall times from spawning a fresh interpreter to the end of its set-up,
    and the reference kernel's times, taken between the set-ups because the
    machine's speed during them can differ from its speed during the ops."""
    times, refs = [], []
    for _ in range(SETUP_REPEATS):
        refs += [spawn_kernel() for _ in range(SETUP_REFS)]
        t = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, __file__, "--setup-only", "--workload",
             args.workload, "--seed", str(args.seed)],
            cwd=ROOT, stdout=subprocess.PIPE,
        )
        line = proc.stdout.readline()
        dt = time.perf_counter() - t
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != b"ready":
            _fail("set-up failed in a fresh process")
        times.append(dt)
    return times, refs


def make_workload(args):
    from workloads import WORKLOADS

    return WORKLOADS[args.workload](args.seed)


def _close(w) -> None:
    if hasattr(w, "close"):
        w.close()


def end_to_end(args, record) -> tuple:
    setups, setup_refs = timed_setups(args)
    kernel = spawn_kernel if args.workload == "cli" else compute_kernel
    w = make_workload(args)
    lat, refused, wrong = [], [], []
    try:
        wall, refs, before = run_ops(
            w, args.seconds,
            lambda i: lat.append(timed_op(w, i, refused, wrong)), kernel)
    finally:
        _close(w)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else \
        resource.RUSAGE_SELF
    p50, tail_s, level = latency_quantiles(lat)
    # Each op at the speed the kernel measured just before and after it: the
    # machine's state changes within seconds, so a run mean fits short ops
    # worse than their neighbouring kernel runs do.
    nominal = REFERENCES[kernel][0]
    scaled = [x * nominal / statistics.mean(refs[b:b + 2])
              for x, b in zip(lat, before)]
    scaled_p50, scaled_tail, _ = latency_quantiles(scaled)
    checked = len(lat) - len(refused) - len(wrong)
    raw = {
        "setup_s": statistics.median(setups),
        "ops_per_s": checked / wall,
        "op_p50_s": p50,
        "op_tail_s": tail_s,
    }
    scale = nominal / statistics.mean(refs)
    setup_scale = REFERENCES[spawn_kernel][0] / statistics.mean(setup_refs)
    metrics = {
        "setup_s": raw["setup_s"] * setup_scale,
        "ops_per_s": raw["ops_per_s"] / scale,
        "op_p50_s": scaled_p50,
        "op_tail_s": scaled_tail,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    record.update(setup_samples=setups, latencies=lat, wall_s=wall,
                  reference_s=refs, kernel_before=before, scale=scale,
                  unscaled=raw,
                  setup_reference_s=setup_refs, setup_scale=setup_scale,
                  tail={"percentile": 100 * level, "samples": len(lat)})
    notes = {n: f"{v:.6g} unscaled" for n, v in raw.items()}
    notes["op_p50_s"] += f", of {len(lat)} ops"
    notes["op_tail_s"] += f", p{100 * level:.0f} of {len(lat)} ops"
    notes["setup_s"] += f", median of {len(setups)} fresh processes"
    notes["ops_per_s"] += f", {checked} checked ops in {wall:.3f} s"
    return w, metrics, len(lat), refused, wrong, notes


def traced(args, record) -> tuple:
    """Each op runs twice, untraced then traced, so the overhead is a paired
    difference; the per-layer metrics come from the traced runs."""
    from tracing import Tracer, layer_metrics

    w = make_workload(args)
    tracer = Tracer()
    plain, traced_lat, refused, wrong = [], [], [], []
    in_process = args.workload != "cli"

    def step(i):
        plain.append(timed_op(w, i, refused, wrong))
        tracer.op = i
        if in_process:
            tracer.install()
        else:
            w.traced = True
        try:
            traced_lat.append(timed_op(w, i, refused, wrong))
        finally:
            tracer.uninstall()
            if not in_process:
                w.traced = False

    try:
        # per-layer times stay unscaled
        run_ops(w, args.seconds, step, compute_kernel)
    finally:
        _close(w)
    k = len(plain)
    children = []
    for op, child in getattr(w, "child_traces", []):
        tracer.extend(child["spans"], op)
        children.append((child["import_s"], child["main_s"], child["exit"]))
    metrics = layer_metrics(tracer.spans, k, children)
    overhead = sum(traced_lat) - sum(plain)
    metrics["trace.overhead_s"] = overhead / k
    metrics["trace.ops"] = float(k)
    record.update(untraced_latencies=plain, traced_latencies=traced_lat,
                  spans=tracer.spans, children=children)
    notes = {"trace.overhead_s": f"traced {sum(traced_lat):.3f} s - "
                                 f"untraced {sum(plain):.3f} s over {k} ops"}
    if children:
        # share of each command's traced op wall time spent importing
        shares = {}
        for (op, _), (import_s, _, _) in zip(w.child_traces, children):
            cmd = w.commands[op % w.round_size]
            shares.setdefault(cmd, []).append(import_s / traced_lat[op])
        notes["cli.import_s"] = "share of op: " + ", ".join(
            f"{c} {statistics.mean(v):.0%}" for c, v in shares.items())
    return w, metrics, 2 * k, refused, wrong, notes


def main(argv=None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "maxblaschke" / "__init__.py").exists():
        _fail(f"no library sources under {ROOT / 'src'}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        _fail(f"unknown workload {args.workload!r}; choose from {names}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    if args.setup_only:
        _close(make_workload(args))
        print("ready", flush=True)
        return 0

    record = {"environment": environment(args)}
    run = traced if args.trace else end_to_end
    w, metrics, attempted, refused, wrong, notes = run(args, record)
    failed = len(refused) + len(wrong)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        _fail(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    record.update(metrics=metrics, attempted=attempted, refused=refused,
                  wrong=wrong, failed_frac=failed / attempted)
    out = ROOT / "bench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))

    env = record["environment"]
    print(f"# {args.workload} seed {args.seed}: {attempted} ops, {failed} "
          f"failed (failed_frac {failed / attempted:.4g}: {len(refused)} "
          f"refused, {len(wrong)} wrong); nproc {env['nproc']}, python "
          f"{env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"commit {env['commit'][:12]}")
    if "scale" in record:
        print(f"# ops_per_s scaled to the reference speed by "
              f"{record['scale']:.4f}, op latencies by the kernel runs around"
              f" each op"
              f" ({len(record['reference_s'])} kernel runs), set-up times by "
              f"{record['setup_scale']:.4f}")
    for op, msg in (wrong + refused)[:5]:
        print(f"# failed op {op}: {msg}")
    for name in units:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {metrics[name]:.6g} {units[name]}{note}")
    print(f"# record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
