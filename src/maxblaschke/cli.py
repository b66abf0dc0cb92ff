"""Command-line front end: JSON in, JSON/CSV out.

Exit codes: 0 = pass, 1 = a verification suite ran and failed, 2 = bad input
values or a solver/numerical error, 3 = malformed JSON (with a line/column
diagnostic).  Reports are deterministic: the same config and seed produce
byte-identical files (see serialize).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .blaschke import CriticalSet, FiniteBlaschke, critical_points
from .disk import RiemannMapSpec
from .errors import (
    InputError,
    NumericalError,
    _complex,
    _count,
    _index,
    _positive,
)
from .metrics import (
    PolarGrid,
    _curvature_band,
    discrete_curvature,
    pullback_density,
)
from .serialize import dumps, field_to_csv, read_json, write_json
from .solver import (
    HomotopyConfig,
    solve_maximal,
    transplant,
    truncation_sequence,
)
from .verify import (
    MARGIN_TOL,
    MATCH_TOL,
    QUOTIENT_TOL,
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

_TOLERANCES = tuple(f.name for f in fields(HomotopyConfig))
_GRID_DEFAULTS = {
    **{f.name: f.default for f in fields(PolarGrid)},  # n_r, n_theta, r_max
    "n": 257, "r": 0.75,  # PDE oracle
}
#: Largest grid, in nodes, a job may ask for: n_r * n_theta for the polar
#: grid, n * n for the PDE oracle.  8 default polar grids, or a PDE grid up
#: to n = 724 (n = 513 peaks at about 340 MB).
_MAX_GRID_NODES = 1 << 19
#: Most competitors a verify-extremal input may ask for, checked before the
#: solve: the specs are built one by one, and this many run in 4-7 s at a
#: 77 MB peak RSS on a 2-core machine (the default 1000: 1.3 s, 40 MB).
_MAX_COMPETITORS = 100_000


@dataclass
class JobConfig:
    """One pipeline invocation; assembled from a job file plus overrides."""

    command: str
    input_path: str | None = None
    output_path: str | None = None
    grid: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    seed: int = 0
    #: the solver configuration built from ``tolerances``
    homotopy: HomotopyConfig = field(init=False, repr=False)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise InputError(f"unknown command {self.command!r}")
        for key in ("input_path", "output_path"):
            if not isinstance(getattr(self, key), (str, type(None))):
                raise InputError(f"{key} must be a string")
        if _index(self.seed, "seed") < 0:
            raise InputError("seed must be nonnegative")
        if not isinstance(self.grid, dict):
            raise InputError("grid must be a JSON object")
        if not isinstance(self.tolerances, dict):
            raise InputError("tolerances must be a JSON object")
        for key, value in self.grid.items():
            if key not in _GRID_DEFAULTS:
                raise InputError(f"unknown grid parameter {key!r}")
            _positive(value, f"grid parameter {key}")
        if self.grid.get("r_max", 0.0) >= 1.0 or self.grid.get("r", 0.0) >= 1.0:
            raise InputError("grid radius must be < 1")
        # the job's grid: defaults filled in, node counts as ints
        g = self.grid = {**_GRID_DEFAULTS, **self.grid}
        for key in ("n_r", "n_theta", "n"):
            g[key] = _count(g[key], f"grid parameter {key}")
        for nodes in (g["n_r"] * g["n_theta"], g["n"] ** 2):
            if nodes > _MAX_GRID_NODES:
                raise InputError(
                    f"grid of {nodes} nodes exceeds the limit of "
                    f"{_MAX_GRID_NODES}"
                )
        for key in self.tolerances:
            if key not in _TOLERANCES:
                raise InputError(f"unknown tolerance {key!r}")
        self.homotopy = HomotopyConfig(**self.tolerances)
        # the tolerances the job runs with, echoed in its report
        self.tolerances = asdict(self.homotopy)


def _polar_grid(cfg: JobConfig) -> PolarGrid:
    """The job's polar grid, built only by the commands that read it: the
    others accept grids that PolarGrid would reject."""
    return PolarGrid(**{f.name: cfg.grid[f.name] for f in fields(PolarGrid)})


def _points(data: dict, command: str) -> list:
    """The complex numbers of the input's ``points`` list."""
    try:
        return [_complex(e) for e in data["points"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"{command} input needs a 'points' list") from exc


def _solved(data: dict, cfg: JobConfig):
    """The input's critical set and its maximal solve."""
    C = CriticalSet.from_dict(data)
    return C, solve_maximal(C, cfg.homotopy)


# Report builders: ``builder(data, cfg)`` returns the report body, or for
# _CSV_COMMANDS the polar grid, its node values and the sidecar body.


def _solve(data: dict, cfg: JobConfig) -> dict:
    C, rep = _solved(data, cfg)
    return {
        "tolerances": cfg.tolerances,
        "critical_set": C.to_dict(),
        "product": rep.solution.to_dict(),
        "degree": rep.solution.degree,
        "functional": rep.functional_value,
        "residual_norm": rep.residual_norm,
        "roundtrip_error": rep.roundtrip_error,
    }


def _critpoints(data: dict, cfg: JobConfig) -> dict:
    B = FiniteBlaschke.from_dict(data)
    points = critical_points(B).to_dict()["points"]
    return {"degree": B.degree, "points": points}


def _metric(data: dict, cfg: JobConfig):
    _, rep = _solved(data, cfg)
    lam = pullback_density(rep.solution, _polar_grid(cfg))
    return lam.grid, lam.values, {
        "tolerances": cfg.tolerances,
        "functional": rep.functional_value,
        "zero_set": lam.zero_set.to_dict(),
    }


def _curvature(data: dict, cfg: JobConfig):
    _, rep = _solved(data, cfg)
    grid = _polar_grid(cfg)
    curv = discrete_curvature(pullback_density(rep.solution, grid))
    band = _curvature_band(grid.h)
    deviation = curv.max_deviation(-4.0)
    # uncertified stencil values are rounding noise beside critical points
    return grid, np.where(curv.defined, curv.values, np.nan), {
        "tolerances": cfg.tolerances,
        "band": band,
        "max_deviation": deviation,
        "defined_fraction": float(np.mean(curv.defined)),
        "pass": bool(deviation <= band),
    }


def _pde_oracle(data: dict, cfg: JobConfig) -> dict:
    # imported here: no other command needs the PDE layer's scipy.sparse
    from .pde import oracle_validate

    B = FiniteBlaschke.from_dict(data)
    n, r = cfg.grid["n"], cfg.grid["r"]
    deviation = oracle_validate(B, r, n)
    h = 2.0 * r / (n - 1)
    budget = 5.0 * h * h
    return {
        "grid": {"n": n, "r": r},
        "deviation": deviation,
        "budget": budget,
        "pass": bool(deviation <= budget),
    }


def _verify_extremal(data: dict, cfg: JobConfig) -> dict:
    count = _count(
        data.get("competitors", 1000), "input field 'competitors'"
    )
    if count > _MAX_COMPETITORS:
        raise InputError(
            f"{count} competitors exceed the limit of {_MAX_COMPETITORS}"
        )
    # the specs need only the set and the seed: a count they reject ends the
    # job before the solve
    C = CriticalSet.from_dict(data)
    specs = default_competitor_specs(C, count, np.random.default_rng(cfg.seed))
    rep = solve_maximal(C, cfg.homotopy)
    return {
        "seed": cfg.seed,
        "tolerances": cfg.tolerances,
        "margin_tolerance": MARGIN_TOL,
        **extremality_suite(C, rep.solution, specs, cfg.homotopy),
    }


def _verify_boundary(data: dict, cfg: JobConfig) -> dict:
    C, rep = _solved(data, cfg)
    quotients = [
        boundary_quotient(rep.solution, p) for p in boundary_probes(C)
    ]
    phi = phi_boundary_bound(rep.solution)
    ok = phi["pass"] and all(q["pass"] for q in quotients)
    return {
        "tolerances": cfg.tolerances,
        "deviation_tolerance": QUOTIENT_TOL,
        "quotients": quotients,
        "phi": phi,
        "pass": bool(ok),
    }


def _compose(data: dict, cfg: JobConfig) -> dict:
    try:
        outer = FiniteBlaschke.from_dict(data["outer"])
        inner = FiniteBlaschke.from_dict(data["inner"])
    except (KeyError, TypeError) as exc:
        raise InputError(
            "compose input needs 'outer' and 'inner' products"
        ) from exc
    semi = semigroup_check(inner, outer, cfg.homotopy)
    left = left_factor_check(outer, cfg.homotopy)
    return {
        "tolerances": cfg.tolerances,
        "match_tolerance": MATCH_TOL,
        "semigroup": semi,
        "left_factor": left,
        "pass": bool(semi["pass"] and left["pass"]),
    }


def _union(data: dict, cfg: JobConfig) -> dict:
    try:
        C1 = CriticalSet.from_dict(data["first"])
        C2 = CriticalSet.from_dict(data["second"])
    except (KeyError, TypeError) as exc:
        raise InputError(
            "union input needs 'first' and 'second' critical sets"
        ) from exc
    c = _positive(data.get("scale", 0.5), "input field 'scale'")
    return {
        "tolerances": cfg.tolerances,
        "scale": c,
        **union_suite(C1, C2, c, _polar_grid(cfg), cfg.homotopy),
    }


def _converge(data: dict, cfg: JobConfig) -> dict:
    points = _points(data, "converge")
    n_max = _count(data.get("n_max", len(points)), "input field 'n_max'")
    result = truncation_sequence(points, n_max, cfg.homotopy)
    fn = result.functionals
    sups = result.sup_differences
    non_increasing = all(
        fn[i + 1] <= fn[i] + 1e-12 for i in range(len(fn) - 1)
    )
    tail = all(sups[i + 1] <= sups[i] for i in range(3, len(sups) - 1))
    return {
        "tolerances": cfg.tolerances,
        "functionals": fn,
        "sup_differences": sups,
        "non_increasing": bool(non_increasing),
        "tail_monotone": bool(tail),
        "pass": bool(non_increasing and tail),
    }


def _map_spec(data) -> RiemannMapSpec:
    """The input's map, each kind as the coefficients (a, c, d) of
    psi(z) = a z / (c z + d)."""
    try:
        kind = data["kind"]
    except (KeyError, TypeError) as exc:
        raise InputError("transplant map needs a 'kind'") from exc
    try:
        if kind == "identity":
            coeffs = (1.0, 0.0, 1.0)
        elif kind == "scaled_disk":
            coeffs = (1.0, 0.0, _positive(data["radius"], "scaled_disk radius"))
        elif kind == "moebius":
            coeffs = tuple(_complex(c) for c in data["coeffs"])
        else:
            raise InputError(f"unknown map kind {kind!r}")
        return RiemannMapSpec(coeffs=coeffs)
    except KeyError as exc:
        raise InputError(f"{kind} map needs {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed {kind} map: {exc}") from exc


def _transplant(data: dict, cfg: JobConfig) -> dict:
    spec = _map_spec(data["map"]) if "map" in data else RiemannMapSpec()
    points = _points(data, "transplant")
    result = transplant(points, spec, cfg.homotopy)
    return {
        "tolerances": cfg.tolerances,
        "disk_critical_set": result.disk_critical_set.to_dict(),
        "product": result.report.solution.to_dict(),
        "functional": result.report.functional_value,
        "derivative_at_zero": complex(result.derivative(0.0)),
        "domain_critical_points": [
            {"re": p.real, "im": p.imag, "multiplicity": m}
            for p, m in result.domain_critical_points()
        ],
    }


_BUILDERS = {
    "solve": _solve,
    "critpoints": _critpoints,
    "metric": _metric,
    "curvature": _curvature,
    "pde-oracle": _pde_oracle,
    "verify-extremal": _verify_extremal,
    "verify-boundary": _verify_boundary,
    "compose": _compose,
    "union": _union,
    "converge": _converge,
    "transplant": _transplant,
}

COMMANDS = tuple(_BUILDERS)
_CSV_COMMANDS = ("metric", "curvature")


def run(cfg: JobConfig) -> int:
    """Load the input, build the command's report, write it, and return
    the exit code its "pass" flag calls for."""
    csv = cfg.command in _CSV_COMMANDS
    if csv and cfg.output_path is None:
        raise InputError(
            f"command {cfg.command!r} requires --output for the CSV"
        )
    if cfg.input_path is None:
        raise InputError(f"command {cfg.command!r} requires --input")
    try:
        data = read_json(cfg.input_path)
    except OSError as exc:
        raise InputError(f"cannot read input: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("input must hold a JSON object")
    built = _BUILDERS[cfg.command](data, cfg)
    grid, values, body = built if csv else (None, None, built)
    report = {"command": cfg.command, **body}
    if csv:
        field_to_csv(grid, values, cfg.output_path, sidecar=report)
    elif cfg.output_path:
        write_json(report, cfg.output_path)
    else:
        sys.stdout.write(dumps(report))
    return EXIT_PASS if report.get("pass", True) else EXIT_VERIFY_FAIL


def _build_config(args) -> JobConfig:
    job = {}
    if args.config:
        loaded = read_json(args.config)
        if not isinstance(loaded, dict):
            raise InputError("job file must hold a JSON object")
        job.update(loaded)
    for flag, key in (("command", "command"), ("input", "input_path"),
                      ("output", "output_path"), ("seed", "seed"),
                      ("grid", "grid"), ("tol", "tolerances")):
        value = getattr(args, flag)
        if value is not None and value != "":
            job[key] = json.loads(value) if flag in ("grid", "tol") else value
    if "command" not in job:
        raise InputError("no command given (positional argument or job file)")
    unknown = set(job) - {f.name for f in fields(JobConfig) if f.init}
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
