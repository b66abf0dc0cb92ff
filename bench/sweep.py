"""Report-only sweep of solve time against the number of critical points.

Usage (from the root of a checkout)::

    python3 bench/sweep.py --seed 1

For each m in SIZES, one child process solves a set of m simple points with
radii uniform in [0.15, 0.7] and uniform angles (drawn from
``default_rng([seed, m])``) under a wall budget of BUDGET_S seconds.  Each
size records its seconds and round-trip error, ``timeout`` when the child
had to be killed, or the error type and message.  The sweep is not a gated
workload: it only prints a table and writes ``bench/out/sweep-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIZES = (1, 2, 4, 8, 12, 16, 24, 32, 48, 64)
#: Wall seconds allowed per size.
BUDGET_S = 20.0


def child(m: int, seed: int) -> dict:
    """Solve one size in this process; the result as a JSON-able dict."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from maxblaschke import CriticalSet, NumericalError, critical_points, \
        solve_maximal

    rng = np.random.default_rng([seed, m])
    points = rng.uniform(0.15, 0.7, m) * np.exp(2j * np.pi * rng.random(m))
    C = CriticalSet.from_points(points)
    t = time.perf_counter()
    try:
        rep = solve_maximal(C)
    except NumericalError as exc:
        return {"m": m, "status": "error", "error": type(exc).__name__,
                "message": str(exc), "seconds": time.perf_counter() - t}
    seconds = time.perf_counter() - t
    return {"m": m, "status": "solved", "seconds": seconds,
            "roundtrip": rep.roundtrip_error,
            "roundtrip_recomputed": C.match(critical_points(rep.solution)),
            "path_steps": len(rep.homotopy_trace)}


def sweep(seed: int) -> list:
    rows = []
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    for m in SIZES:
        t = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, __file__, "--child", str(m), "--seed", str(seed)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            out, err = proc.communicate(timeout=BUDGET_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            rows.append({"m": m, "status": "timeout", "budget_s": BUDGET_S,
                         "seconds": time.perf_counter() - t})
            continue
        if proc.returncode != 0:
            rows.append({"m": m, "status": "crash",
                         "error": err.decode(errors="replace")[-300:]})
            continue
        rows.append(json.loads(out))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "maxblaschke" / "__init__.py").exists():
        print(f"error: no library sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.child is not None:
        # ends an orphaned child too, should the parent die before killing it
        signal.alarm(int(BUDGET_S) + 2)
        print(json.dumps(child(args.child, args.seed)))
        return 0
    rows = sweep(args.seed)
    for r in rows:
        if r["status"] == "solved":
            detail = (f"{r['seconds']:.3f} s, round trip "
                      f"{r['roundtrip']:.1e}, {r['path_steps']} path steps")
        elif r["status"] == "timeout":
            detail = f"timeout (killed after {r['budget_s']:g} s)"
        else:
            detail = f"{r.get('error')}: {r.get('message', '')}"
        print(f"m = {r['m']:3d}  {r['status']:8s} {detail}")
    out = ROOT / "bench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"sweep-seed{args.seed}.json"
    path.write_text(json.dumps({"seed": args.seed, "budget_s": BUDGET_S,
                                "rows": rows}, indent=1))
    print(f"# record: {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
