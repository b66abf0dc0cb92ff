"""Command-line front end: JSON in, JSON/CSV out.

Exit codes: 0 = pass, 1 = a verification suite ran and failed, 2 = bad input
values or a solver/numerical error, 3 = malformed JSON (with a line/column
diagnostic).  Reports are deterministic: the same config and seed produce
byte-identical files (see serialize).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .blaschke import CriticalSet, FiniteBlaschke, compose, critical_points
from .disk import RiemannMapSpec
from .errors import InputError, NumericalError
from .metrics import PolarGrid, discrete_curvature, pullback_density
from .serialize import dumps, field_to_csv, read_json, write_json
from .solver import (
    HomotopyConfig,
    solve_maximal,
    transplant,
    truncation_sequence,
)
from .verify import (
    boundary_probes,
    boundary_quotient,
    default_competitor_specs,
    extremality_suite,
    left_factor_check,
    phi_boundary_bound,
    semigroup_check,
    union_suite,
)

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 1
EXIT_ERROR = 2
EXIT_BAD_JSON = 3


@dataclass
class JobConfig:
    """One pipeline invocation; assembled from a job file plus overrides."""

    command: str
    input_path: str | None = None
    output_path: str | None = None
    grid: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise InputError(f"unknown command {self.command!r}")
        for key in ("input_path", "output_path"):
            if not isinstance(getattr(self, key), (str, type(None))):
                raise InputError(f"{key} must be a string")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise InputError("seed must be an integer")
        if not isinstance(self.grid, dict):
            raise InputError("grid must be a JSON object")
        if not isinstance(self.tolerances, dict):
            raise InputError("tolerances must be a JSON object")
        for key, value in self.grid.items():
            if key not in ("n_r", "n_theta", "r_max", "n", "r"):
                raise InputError(f"unknown grid parameter {key!r}")
            if not (isinstance(value, (int, float)) and 0 < value < math.inf):
                raise InputError(
                    f"grid parameter {key} must be a positive finite number"
                )
        if self.grid.get("r_max", 0.0) >= 1.0 or self.grid.get("r", 0.0) >= 1.0:
            raise InputError("grid radius must be < 1")
        for key in self.tolerances:
            if key not in ("newton_tol", "roundtrip_tol"):
                raise InputError(f"unknown tolerance {key!r}")


def _homotopy(cfg: JobConfig) -> HomotopyConfig:
    try:
        tols = {k: float(v) for k, v in cfg.tolerances.items()}
    except (TypeError, ValueError) as exc:
        raise InputError(f"tolerances must be numbers: {exc}") from exc
    return HomotopyConfig(**tols)


def _polar_grid(cfg: JobConfig) -> PolarGrid:
    g = cfg.grid
    return PolarGrid(
        n_r=int(g.get("n_r", 128)),
        n_theta=int(g.get("n_theta", 512)),
        r_max=float(g.get("r_max", 0.95)),
    )


def _load(cfg: JobConfig):
    if cfg.input_path is None:
        raise InputError(f"command {cfg.command!r} requires --input")
    try:
        data = read_json(cfg.input_path)
    except OSError as exc:
        raise InputError(f"cannot read input: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("input must hold a JSON object")
    return data


def _scalar(data: dict, key: str, default, kind):
    """``kind(data[key])``, or ``kind(default)`` when the key is absent."""
    try:
        return kind(data.get(key, default))
    except (TypeError, ValueError) as exc:
        raise InputError(f"input field {key!r}: {exc}") from exc


def _emit(report: dict, cfg: JobConfig) -> None:
    if cfg.output_path:
        write_json(report, cfg.output_path)
    else:
        sys.stdout.write(dumps(report))


def _tol_echo(hc: HomotopyConfig) -> dict:
    return {"newton_tol": hc.newton_tol, "roundtrip_tol": hc.roundtrip_tol}


def _run_solve(cfg: JobConfig) -> int:
    C = CriticalSet.from_dict(_load(cfg))
    hc = _homotopy(cfg)
    rep = solve_maximal(C, hc)
    report = {
        "command": "solve",
        "tolerances": _tol_echo(hc),
        "critical_set": C.to_dict(),
        "product": rep.solution.to_dict(),
        "degree": rep.solution.degree,
        "functional": rep.functional_value,
        "residual_norm": rep.residual_norm,
        "roundtrip_error": rep.roundtrip_error,
    }
    _emit(report, cfg)
    return EXIT_PASS


def _run_critpoints(cfg: JobConfig) -> int:
    B = FiniteBlaschke.from_dict(_load(cfg))
    crit = critical_points(B)
    report = {
        "command": "critpoints",
        "degree": B.degree,
        "points": crit.to_dict()["points"],
    }
    _emit(report, cfg)
    return EXIT_PASS


def _run_metric(cfg: JobConfig) -> int:
    if cfg.output_path is None:
        raise InputError("command 'metric' requires --output for the CSV")
    C = CriticalSet.from_dict(_load(cfg))
    hc = _homotopy(cfg)
    rep = solve_maximal(C, hc)
    grid = _polar_grid(cfg)
    lam = pullback_density(rep.solution, grid)
    field_to_csv(
        grid,
        lam.values,
        cfg.output_path,
        sidecar={
            "command": "metric",
            "tolerances": _tol_echo(hc),
            "functional": rep.functional_value,
            "zero_set": lam.zero_set.to_dict(),
        },
    )
    return EXIT_PASS


def _run_curvature(cfg: JobConfig) -> int:
    if cfg.output_path is None:
        raise InputError("command 'curvature' requires --output for the CSV")
    C = CriticalSet.from_dict(_load(cfg))
    hc = _homotopy(cfg)
    rep = solve_maximal(C, hc)
    grid = _polar_grid(cfg)
    lam = pullback_density(rep.solution, grid)
    curv = discrete_curvature(lam)
    band = 10.0 * grid.h**2
    deviation = curv.max_deviation(-4.0)
    field_to_csv(
        grid,
        curv.values,
        cfg.output_path,
        sidecar={
            "command": "curvature",
            "tolerances": _tol_echo(hc),
            "band": band,
            "max_deviation": deviation,
            "defined_fraction": float(np.mean(curv.defined)),
            "pass": bool(deviation <= band),
        },
    )
    return EXIT_PASS if deviation <= band else EXIT_VERIFY_FAIL


def _run_pde_oracle(cfg: JobConfig) -> int:
    # imported here: no other command needs the PDE layer's scipy.sparse
    from .pde import oracle_validate

    B = FiniteBlaschke.from_dict(_load(cfg))
    n = int(cfg.grid.get("n", 257))
    r = float(cfg.grid.get("r", 0.75))
    deviation = oracle_validate(B, r, n)
    h = 2.0 * r / (n - 1)
    budget = 5.0 * h * h
    report = {
        "command": "pde-oracle",
        "grid": {"n": n, "r": r},
        "deviation": deviation,
        "budget": budget,
        "pass": bool(deviation <= budget),
    }
    _emit(report, cfg)
    return EXIT_PASS if report["pass"] else EXIT_VERIFY_FAIL


def _run_verify_extremal(cfg: JobConfig) -> int:
    data = _load(cfg)
    C = CriticalSet.from_dict(data)
    count = _scalar(data, "competitors", 1000, int)
    hc = _homotopy(cfg)
    rep = solve_maximal(C, hc)
    rng = np.random.default_rng(cfg.seed)
    specs = default_competitor_specs(C, count, rng)
    suite = extremality_suite(C, rep.solution, specs, hc)
    report = {
        "command": "verify-extremal",
        "seed": cfg.seed,
        "tolerances": _tol_echo(hc),
        "margin_tolerance": 1e-9,
        **suite,
    }
    _emit(report, cfg)
    return EXIT_PASS if suite["pass"] else EXIT_VERIFY_FAIL


def _run_verify_boundary(cfg: JobConfig) -> int:
    C = CriticalSet.from_dict(_load(cfg))
    hc = _homotopy(cfg)
    rep = solve_maximal(C, hc)
    quotients = [
        boundary_quotient(rep.solution, p) for p in boundary_probes(C)
    ]
    phi = phi_boundary_bound(rep.solution)
    ok = phi["pass"] and all(q["deviation"] <= 1e-3 for q in quotients)
    report = {
        "command": "verify-boundary",
        "tolerances": _tol_echo(hc),
        "deviation_tolerance": 1e-3,
        "quotients": quotients,
        "phi": phi,
        "pass": bool(ok),
    }
    _emit(report, cfg)
    return EXIT_PASS if ok else EXIT_VERIFY_FAIL


def _run_compose(cfg: JobConfig) -> int:
    data = _load(cfg)
    try:
        outer = FiniteBlaschke.from_dict(data["outer"])
        inner = FiniteBlaschke.from_dict(data["inner"])
    except (KeyError, TypeError) as exc:
        raise InputError(
            "compose input needs 'outer' and 'inner' products"
        ) from exc
    hc = _homotopy(cfg)
    semi = semigroup_check(inner, outer, hc)
    left = left_factor_check(outer, inner, hc)
    ok = semi["pass"] and left["pass"]
    report = {
        "command": "compose",
        "tolerances": _tol_echo(hc),
        "match_tolerance": 1e-8,
        "semigroup": semi,
        "left_factor": left,
        "pass": bool(ok),
    }
    _emit(report, cfg)
    return EXIT_PASS if ok else EXIT_VERIFY_FAIL


def _run_union(cfg: JobConfig) -> int:
    data = _load(cfg)
    try:
        C1 = CriticalSet.from_dict(data["first"])
        C2 = CriticalSet.from_dict(data["second"])
    except (KeyError, TypeError) as exc:
        raise InputError(
            "union input needs 'first' and 'second' critical sets"
        ) from exc
    c = _scalar(data, "scale", 0.5, float)
    hc = _homotopy(cfg)
    suite = union_suite(C1, C2, c, _polar_grid(cfg), hc)
    report = {
        "command": "union",
        "tolerances": _tol_echo(hc),
        "scale": c,
        **suite,
    }
    _emit(report, cfg)
    return EXIT_PASS if suite["pass"] else EXIT_VERIFY_FAIL


def _run_converge(cfg: JobConfig) -> int:
    data = _load(cfg)
    try:
        points = [complex(e["re"], e["im"]) for e in data["points"]]
    except (KeyError, TypeError) as exc:
        raise InputError("converge input needs a 'points' list") from exc
    n_max = _scalar(data, "n_max", len(points), int)
    hc = _homotopy(cfg)
    result = truncation_sequence(points, n_max, hc)
    fn = result.functionals
    sups = result.sup_differences
    non_increasing = all(
        fn[i + 1] <= fn[i] + 1e-12 for i in range(len(fn) - 1)
    )
    tail = all(sups[i + 1] <= sups[i] for i in range(3, len(sups) - 1))
    ok = non_increasing and tail
    report = {
        "command": "converge",
        "tolerances": _tol_echo(hc),
        "functionals": fn,
        "sup_differences": sups,
        "non_increasing": bool(non_increasing),
        "tail_monotone": bool(tail),
        "pass": bool(ok),
    }
    _emit(report, cfg)
    return EXIT_PASS if ok else EXIT_VERIFY_FAIL


def _map_spec(data) -> RiemannMapSpec:
    try:
        kind = data["kind"]
    except (KeyError, TypeError) as exc:
        raise InputError("transplant map needs a 'kind'") from exc
    try:
        if kind == "scaled_disk":
            return RiemannMapSpec(kind=kind, radius=float(data["radius"]))
        if kind == "moebius":
            coeffs = tuple(complex(c["re"], c["im"]) for c in data["coeffs"])
            return RiemannMapSpec(kind=kind, coeffs=coeffs)
        return RiemannMapSpec(kind=kind)
    except KeyError as exc:
        raise InputError(f"{kind} map needs {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed {kind} map: {exc}") from exc


def _run_transplant(cfg: JobConfig) -> int:
    data = _load(cfg)
    spec = _map_spec(data.get("map", {"kind": "identity"}))
    try:
        points = [complex(e["re"], e["im"]) for e in data["points"]]
    except (KeyError, TypeError) as exc:
        raise InputError("transplant input needs a 'points' list") from exc
    hc = _homotopy(cfg)
    result = transplant(points, spec, hc)
    report = {
        "command": "transplant",
        "tolerances": _tol_echo(hc),
        "disk_critical_set": result.disk_critical_set.to_dict(),
        "product": result.report.solution.to_dict(),
        "functional": result.report.functional_value,
        "derivative_at_zero": complex(result.derivative(0.0)),
        "domain_critical_points": [
            {"re": p.real, "im": p.imag, "multiplicity": m}
            for p, m in result.domain_critical_points()
        ],
    }
    _emit(report, cfg)
    return EXIT_PASS


_RUNNERS = {
    "solve": _run_solve,
    "critpoints": _run_critpoints,
    "metric": _run_metric,
    "curvature": _run_curvature,
    "pde-oracle": _run_pde_oracle,
    "verify-extremal": _run_verify_extremal,
    "verify-boundary": _run_verify_boundary,
    "compose": _run_compose,
    "union": _run_union,
    "converge": _run_converge,
    "transplant": _run_transplant,
}

COMMANDS = tuple(_RUNNERS)


def run(cfg: JobConfig) -> int:
    return _RUNNERS[cfg.command](cfg)


def _build_config(args) -> JobConfig:
    job = {}
    if args.config:
        loaded = read_json(args.config)
        if not isinstance(loaded, dict):
            raise InputError("job file must hold a JSON object")
        job.update(loaded)
    if args.command:
        job["command"] = args.command
    if args.input:
        job["input_path"] = args.input
    if args.output:
        job["output_path"] = args.output
    if args.seed is not None:
        job["seed"] = args.seed
    if args.grid:
        job["grid"] = json.loads(args.grid)
    if args.tol:
        job["tolerances"] = json.loads(args.tol)
    if "command" not in job:
        raise InputError("no command given (positional argument or job file)")
    unknown = set(job) - {f.name for f in fields(JobConfig)}
    if unknown:
        raise InputError(f"unknown job field(s): {sorted(unknown)}")
    return JobConfig(**job)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="maxblaschke",
        description="Maximal Blaschke products: solves and verification "
        "suites over JSON inputs.",
    )
    parser.add_argument(
        "command", nargs="?", choices=COMMANDS, help="pipeline to run"
    )
    parser.add_argument("--config", help="JSON job file; flags override it")
    parser.add_argument("--input", help="input JSON path")
    parser.add_argument("--output", help="output path (JSON, or CSV for grids)")
    parser.add_argument("--seed", type=int, help="seed for randomized suites")
    parser.add_argument(
        "--grid",
        help='inline JSON, e.g. \'{"n_r":128,"n_theta":512,"r_max":0.95}\' '
        'or \'{"n":257,"r":0.75}\' for the PDE oracle',
    )
    parser.add_argument(
        "--tol",
        help='inline JSON, e.g. \'{"newton_tol":1e-12,"roundtrip_tol":1e-8}\'',
    )
    args = parser.parse_args(argv)
    try:
        return run(_build_config(args))
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}",
            file=sys.stderr,
        )
        return EXIT_BAD_JSON
    except (InputError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
