"""End-to-end checks of the command-line front end.

Most tests drive ``main`` in-process for speed. One subprocess test runs the
console script: the installed ``maxblaschke`` script when it is on ``PATH``,
and otherwise the ``[project.scripts]`` entry point declared in
``pyproject.toml``, called through the current interpreter.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

import maxblaschke
from maxblaschke import cli, solver
from maxblaschke.cli import _TOLERANCES, COMMANDS, JobConfig, main
from maxblaschke.errors import InputError
from maxblaschke.serialize import read_json
from maxblaschke.solver import HomotopyConfig


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _crit(entries):
    return {
        "points": [
            {"re": p.real, "im": p.imag, "multiplicity": m} for p, m in entries
        ]
    }


B05 = {"eta": {"re": -1.0, "im": 0.0}, "zeros": [{"re": 0.0, "im": 0.0}, {"re": 0.8, "im": 0.0}]}
Z2 = {"eta": {"re": 1.0, "im": 0.0}, "zeros": [{"re": 0.0, "im": 0.0}, {"re": 0.0, "im": 0.0}]}
NAN, INF = float("nan"), float("inf")
MONOMIAL = {"eta": {"re": 1.0, "im": 0.0}, "zeros": [{"re": 0.0, "im": 0.0}]}


def test_solve_one_point_closed_form(tmp_path):
    inp = _write(tmp_path, "c.json", _crit([(0.5 + 0j, 1)]))
    out = tmp_path / "report.json"
    assert main(["solve", "--input", inp, "--output", str(out)]) == 0
    rep = read_json(out)
    assert rep["command"] == "solve"
    assert rep["degree"] == 2
    assert rep["functional"] == pytest.approx(0.8, abs=1e-10)
    moduli = sorted(abs(complex(z["re"], z["im"])) for z in rep["product"]["zeros"])
    assert moduli == pytest.approx([0.0, 0.8], abs=1e-10)
    eta = complex(rep["product"]["eta"]["re"], rep["product"]["eta"]["im"])
    assert eta == pytest.approx(-1.0, abs=1e-10)


def test_solve_empty_set_gives_rotation(tmp_path, capsys):
    inp = _write(tmp_path, "c.json", {"points": []})
    assert main(["solve", "--input", inp]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["degree"] == 1
    assert rep["functional"] == pytest.approx(1.0, abs=1e-12)


def test_point_outside_disk_is_exit_2(tmp_path, capsys):
    inp = _write(tmp_path, "c.json", _crit([(1.5 + 0j, 1)]))
    assert main(["solve", "--input", inp]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_malformed_json_is_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"points": [\n  ,]}')
    assert main(["solve", "--input", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_missing_command_is_exit_2(capsys):
    assert main([]) == 2
    assert "no command" in capsys.readouterr().err


def test_unknown_command_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "command, data, flags",
    [
        ("solve", {"points": []}, ["--grid", "[1]"]),
        ("solve", {"points": []}, ["--grid", '{"n_r": "x"}']),
        ("solve", {"points": []}, ["--grid", '{"n_r": Infinity}']),
        ("solve", {"points": []}, ["--tol", '{"newton_tol": "abc"}']),
        ("critpoints", B05, ["--tol", '{"newton_tol": "abc"}']),
        ("pde-oracle", MONOMIAL,
         ["--grid", '{"n": 65, "r": 0.5}', "--tol", '{"newton_tol": "abc"}']),
        ("transplant", {"map": {"kind": "scaled_disk"}, "points": []}, []),
        ("transplant", {"map": {"kind": "moebius"}, "points": []}, []),
        ("transplant",
         {"map": {"kind": "scaled_disk", "radius": -1.0}, "points": []}, []),
        ("transplant", {"map": {"kind": "spiral"}, "points": []}, []),
        ("transplant", [1], []),
        ("verify-extremal", {"points": [], "competitors": "x"}, []),
        ("verify-extremal", {"points": [], "competitors": INF}, []),
        ("converge", {"points": [], "n_max": "x"}, []),
        ("converge", {"points": [], "n_max": INF}, []),
        ("converge", {"points": [], "n_max": -1}, []),
        ("verify-extremal", {"points": [], "competitors": 16.7}, []),
        ("verify-extremal", {**_crit([(0.5 + 0j, 1)]), "competitors": 4},
         []),
        ("converge",
         {**_crit([(0.3 + 0j, 1), (-0.2j, 1), (0.5 + 0j, 1)]), "n_max": 2.9},
         []),
        ("pde-oracle", MONOMIAL, ["--grid", '{"n": 65.9, "r": 0.5}']),
        ("verify-extremal", {"points": []}, ["--seed", "-1"]),
        ("solve", _crit([(0.3 + 0j, 1), (-0.2j, 1), (0.5 + 0j, 1)]),
         ["--tol", '{"roundtrip_tol": 0}']),
        ("solve", _crit([(0.3 + 0j, 1), (-0.2j, 1), (0.5 + 0j, 1)]),
         ["--tol", '{"roundtrip_tol": 1e-300}']),
        ("solve", _crit([(0.3 + 0j, 1)]), ["--tol", '{"roundtrip_tol": NaN}']),
        ("solve", _crit([(0.3 + 0j, 1)]),
         ["--tol", '{"roundtrip_tol": Infinity}']),
        ("solve", _crit([(0.3 + 0j, 1)]), ["--tol", '{"newton_tol": NaN}']),
        ("solve", _crit([(0.3 + 0j, 1)]), ["--tol", '{"newton_tol": -1e-12}']),
        ("pde-oracle", MONOMIAL,
         ["--grid", '{"n": 65, "r": 0.5}', "--tol", '{"newton_tol": 0}']),
        ("union",
         {"first": {"points": []}, "second": {"points": []}, "scale": "x"},
         []),
        ("solve", _crit([(complex("nan"), 1)]), []),
        ("critpoints", {**B05, "zeros": [{"re": NAN, "im": 0.0}]}, []),
        ("critpoints", {**B05, "eta": {"re": INF, "im": 0.0}}, []),
        ("transplant",
         {"map": {"kind": "moebius",
                  "coeffs": [{"re": NAN, "im": 0.0}, {"re": 0.0, "im": 0.0},
                             {"re": 1.0, "im": 0.0}]},
          "points": []}, []),
        ("transplant",
         {"map": {"kind": "scaled_disk", "radius": INF}, "points": []}, []),
        ("transplant",
         {"map": {"kind": "scaled_disk", "radius": 2.0},
          "points": [{"re": 2.5, "im": 0.0}]}, []),
        ("transplant",
         {"map": {"kind": "moebius",
                  "coeffs": [{"re": 1.0, "im": 0.0}, {"re": 1.0, "im": 0.0},
                             {"re": 1.0, "im": 0.0}]},
          "points": [{"re": -1.0, "im": 0.0}]}, []),
        ("solve", _crit([(0.5 + 0j, 1.5)]), []),
        ("solve", _crit([(0.5 + 0j, "2")]), []),
        ("solve", _crit([(0.5 + 0j, True)]), []),
        ("solve", _crit([(0.3 + 0j, 1)]), ["--tol", '{"roundtrip_tol": true}']),
        ("solve", _crit([(0.3 + 0j, 1)]), ["--tol", '{"newton_tol": "1e-12"}']),
        ("solve", {"points": [{"re": False, "im": 0.0, "multiplicity": 1}]},
         []),
        ("union",
         {"first": {"points": []}, "second": {"points": []}, "scale": "0.5"},
         []),
        ("transplant",
         {"map": {"kind": "scaled_disk", "radius": "2"}, "points": []}, []),
        ("compose",
         {"outer": {"eta": {"re": 0.0, "im": 1.0}, "zeros": []},
          "inner": B05}, []),
    ],
    ids=["grid-list", "grid-string", "grid-inf", "tol-string",
         "critpoints-tol-string", "pde-oracle-tol-string",
         "scaled-no-radius", "moebius-no-coeffs", "scaled-negative",
         "unknown-map", "transplant-list", "competitors-string",
         "competitors-inf", "n-max-string", "n-max-inf", "n-max-negative",
         "competitors-fraction", "competitors-four", "n-max-fraction",
         "grid-n-fraction",
         "seed-negative",
         "roundtrip-tol-zero", "roundtrip-tol-tiny", "roundtrip-tol-nan",
         "roundtrip-tol-inf", "newton-tol-nan", "newton-tol-negative",
         "pde-oracle-newton-tol-zero", "scale-string",
         "point-nan", "zero-nan", "eta-inf", "moebius-nan", "radius-inf",
         "outside-domain", "moebius-pole", "multiplicity-fraction",
         "multiplicity-string", "multiplicity-bool", "roundtrip-tol-bool",
         "newton-tol-numeric-string", "coordinate-bool", "scale-numeric-string",
         "radius-numeric-string", "compose-constant-outer"],
)
def test_bad_parameters_are_exit_2(tmp_path, capsys, command, data, flags):
    inp = _write(tmp_path, "in.json", data)
    assert main([command, "--input", inp] + flags) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command, grid", [
    ("pde-oracle", {"n": 5000000}),
    ("metric", {"n_r": 100000, "n_theta": 100000}),
    ("curvature", {"n_theta": 1e9}),
    ("union", {"n_r": 2048, "n_theta": 512}),
])
def test_oversized_grid_rejected_before_allocation(command, grid):
    """The node limit is checked when the job is configured, before any
    input is read or array allocated."""
    with pytest.raises(InputError, match="exceeds the limit"):
        JobConfig(command=command, grid=grid)


def test_oversized_pde_grid_is_exit_2(tmp_path, capsys):
    inp = _write(tmp_path, "mono.json", MONOMIAL)
    assert main(["pde-oracle", "--input", inp, "--grid", '{"n": 5000000}']) == 2
    assert "exceeds the limit" in capsys.readouterr().err


def test_competitor_count_over_the_limit_is_exit_2(
    tmp_path, capsys, monkeypatch
):
    """The count is checked before the solve and before any spec is built."""
    def no_solve(data, cfg):
        raise AssertionError("solved before the competitor count was checked")

    monkeypatch.setattr(cli, "_solved", no_solve)
    data = {**_crit([(0.5 + 0j, 1)]), "competitors": cli._MAX_COMPETITORS + 1}
    inp = _write(tmp_path, "c.json", data)
    assert main(["verify-extremal", "--input", inp]) == 2
    assert "exceed the limit" in capsys.readouterr().err


def test_too_few_competitors_is_exit_2_before_the_solve(
    tmp_path, capsys, monkeypatch
):
    """The specs are drawn, and a count they reject ends the job, before
    the solve."""
    def no_solve(C, cfg=None):
        raise AssertionError("solved before the competitor specs were drawn")

    monkeypatch.setattr(cli, "solve_maximal", no_solve)
    data = {**_crit([(0.5 + 0j, 1)]), "competitors": 4}
    inp = _write(tmp_path, "c.json", data)
    assert main(["verify-extremal", "--input", inp]) == 2
    assert "leave a kind empty" in capsys.readouterr().err


def test_critpoints_report_recovers_input(tmp_path):
    inp = _write(tmp_path, "c.json", _crit([(0.3 + 0.2j, 1)]))
    solved = tmp_path / "solved.json"
    main(["solve", "--input", inp, "--output", str(solved)])
    prod = _write(tmp_path, "prod.json", read_json(solved)["product"])
    out = tmp_path / "crit.json"
    assert main(["critpoints", "--input", prod, "--output", str(out)]) == 0
    rep = read_json(out)
    assert rep["degree"] == 2
    (pt,) = rep["points"]
    assert complex(pt["re"], pt["im"]) == pytest.approx(0.3 + 0.2j, abs=1e-8)
    assert pt["multiplicity"] == 1


def test_tolerance_override_echoed(tmp_path, capsys):
    inp = _write(tmp_path, "c.json", _crit([(0.4 + 0j, 1)]))
    assert main(["solve", "--input", inp, "--tol", '{"newton_tol": 1e-11}']) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["tolerances"]["newton_tol"] == 1e-11


def test_job_file_with_flag_override(tmp_path):
    inp = _write(tmp_path, "c.json", _crit([(0.5 + 0j, 1)]))
    out = tmp_path / "out.json"
    job = _write(
        tmp_path,
        "job.json",
        {"command": "solve", "input_path": inp, "output_path": "ignored.json"},
    )
    assert main(["--config", job, "--output", str(out)]) == 0
    assert read_json(out)["functional"] == pytest.approx(0.8, abs=1e-10)
    assert not (tmp_path / "ignored.json").exists()


def test_job_file_unknown_field_is_exit_2(tmp_path, capsys):
    job = _write(tmp_path, "job.json", {"command": "solve", "speed": "max"})
    assert main(["--config", job]) == 2
    assert "unknown job field" in capsys.readouterr().err


def test_job_file_derived_field_is_exit_2(tmp_path, capsys):
    """``homotopy`` is a JobConfig attribute built from the tolerances, not
    a job field."""
    job = _write(tmp_path, "job.json", {"command": "solve", "homotopy": {}})
    assert main(["--config", job]) == 2
    assert "unknown job field" in capsys.readouterr().err


def test_grid_ignored_by_command_may_be_one_polar_grid_rejects(
    tmp_path, capsys
):
    """``solve`` validates ``--grid`` and ignores it, so a polar grid too
    small to build passes; ``metric`` builds it and exits 2."""
    inp = _write(tmp_path, "c.json", _crit([(0.5 + 0j, 1)]))
    grid = ["--grid", '{"n_r": 4, "n_theta": 4.0}']
    assert main(["solve", "--input", inp] + grid) == 0
    out = str(tmp_path / "field.csv")
    assert main(["metric", "--input", inp, "--output", out] + grid) == 2
    assert "at least 8 rings" in capsys.readouterr().err


def test_job_grid_resolved_once():
    cfg = JobConfig(command="pde-oracle", grid={"n": 65.0, "r": 0.5},
                    tolerances={"newton_tol": 1e-11})
    assert cfg.grid == {"n_r": 128, "n_theta": 512, "r_max": 0.95,
                        "n": 65, "r": 0.5}
    assert all(type(cfg.grid[k]) is int for k in ("n_r", "n_theta", "n"))
    assert cfg.homotopy == HomotopyConfig(newton_tol=1e-11)


@pytest.mark.parametrize(
    "fields",
    [{"seed": "x"}, {"seed": True}, {"seed": 7.5}, {"input_path": 0},
     {"output_path": ["out.json"]}],
    ids=["seed-string", "seed-bool", "seed-float", "input-path-int",
         "output-path-list"],
)
def test_job_file_bad_field_type_is_exit_2(tmp_path, capsys, fields):
    inp = _write(tmp_path, "c.json", {"points": [], "competitors": 4})
    job = _write(
        tmp_path,
        "job.json",
        {"command": "verify-extremal", "input_path": inp, **fields},
    )
    assert main(["--config", job]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_metric_csv_shape(tmp_path):
    inp = _write(tmp_path, "c.json", _crit([(0.5 + 0j, 1)]))
    out = tmp_path / "field.csv"
    code = main([
        "metric", "--input", inp, "--output", str(out),
        "--grid", '{"n_r": 16, "n_theta": 32, "r_max": 0.9}',
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re,im,value"
    assert len(lines) == 1 + 16 * 32
    meta = read_json(str(out) + ".json")
    assert meta["functional"] == pytest.approx(0.8, abs=1e-10)
    assert meta["grid"]["n_r"] == 16


def test_metric_requires_output(tmp_path, capsys):
    inp = _write(tmp_path, "c.json", _crit([(0.5 + 0j, 1)]))
    assert main(["metric", "--input", inp]) == 2
    assert "requires --output" in capsys.readouterr().err


def test_curvature_csv_leaves_uncertified_nodes_empty(tmp_path):
    inp = _write(tmp_path, "c.json", _crit([(0.5 + 0j, 1)]))
    out = tmp_path / "curv.csv"
    code = main([
        "curvature", "--input", inp, "--output", str(out),
        "--grid", '{"n_r": 16, "n_theta": 32, "r_max": 0.9}',
    ])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    meta = read_json(str(out) + ".json")
    assert len(rows) == meta["rows"] == 16 * 32
    values = [float(v) for _, _, v in rows if v]
    assert len(values) / len(rows) == meta["defined_fraction"]
    assert max(abs(v + 4.0) for v in values) <= meta["band"]


def test_pde_oracle_monomial(tmp_path, capsys):
    inp = _write(tmp_path, "b.json", MONOMIAL)
    assert main(["pde-oracle", "--input", inp, "--grid", '{"n": 65, "r": 0.5}']) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["pass"] is True
    assert rep["grid"] == {"n": 65, "r": 0.5}
    assert rep["deviation"] <= rep["budget"]


def test_verify_extremal_deterministic_bytes(tmp_path):
    data = _crit([(0.5 + 0j, 1)])
    data["competitors"] = 16
    inp = _write(tmp_path, "c.json", data)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify-extremal", "--input", inp, "--seed", "7", "--output", str(out1)]) == 0
    assert main(["verify-extremal", "--input", inp, "--seed", "7", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rep = read_json(out1)
    assert rep["pass"] is True
    assert rep["samples"] == 16
    assert rep["margin"] > 0.0


def test_verify_boundary_one_point(tmp_path, capsys):
    inp = _write(tmp_path, "c.json", _crit([(0.5 + 0j, 1)]))
    assert main(["verify-boundary", "--input", inp]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["pass"] is True
    assert rep["phi"]["pass"] is True
    assert len(rep["quotients"]) == 8


def test_compose_pair(tmp_path, capsys):
    inp = _write(tmp_path, "pair.json", {"outer": Z2, "inner": B05})
    assert main(["compose", "--input", inp]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["pass"] is True
    assert rep["semigroup"]["composite_degree"] == 4
    assert rep["left_factor"]["factor_degree"] == 2


def test_union_pair(tmp_path, capsys):
    inp = _write(
        tmp_path,
        "u.json",
        {
            "first": _crit([(0.3 + 0j, 1)]),
            "second": _crit([(-0.2 + 0.1j, 1)]),
            "scale": 0.5,
        },
    )
    code = main([
        "union", "--input", inp,
        "--grid", '{"n_r": 32, "n_theta": 128, "r_max": 0.9}',
    ])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["pass"] is True
    assert rep["zero_set_error"] <= 1e-8


def test_converge_family(tmp_path, capsys):
    data = {
        "points": [
            {"re": 0.3, "im": 0.0},
            {"re": 0.2, "im": 0.1},
            {"re": -0.25, "im": 0.0},
        ]
    }
    inp = _write(tmp_path, "pts.json", data)
    assert main(["converge", "--input", inp]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["pass"] is True
    assert len(rep["functionals"]) == 4
    assert len(rep["sup_differences"]) == 3
    assert rep["functionals"][0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("rise", [5e-11, 5e-10])
def test_converge_reports_a_rising_functional(rise, tmp_path, monkeypatch,
                                              capsys):
    """The library returns functionals that rise along the prefixes, and
    the converge report alone judges them: a rise above 1e-12 fails it."""
    solve = solver.solve_maximal

    def rising(C, cfg=None):
        rep = solve(C, cfg)
        return replace(rep, functional_value=0.5 + rise * len(C.entries))

    monkeypatch.setattr(solver, "solve_maximal", rising)
    expected = [0.5, 0.5 + rise, 0.5 + 2 * rise]
    assert solver.truncation_sequence([0.3, -0.2j], 2).functionals == expected
    inp = _write(tmp_path, "pts.json", {"points": [
        {"re": 0.3, "im": 0.0}, {"re": 0.0, "im": -0.2}]})
    assert main(["converge", "--input", inp]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["functionals"] == expected
    assert rep["non_increasing"] is False
    assert rep["pass"] is False


def test_transplant_scaled_disk(tmp_path, capsys):
    data = {
        "map": {"kind": "scaled_disk", "radius": 0.5},
        "points": [{"re": 0.2, "im": 0.0}],
    }
    inp = _write(tmp_path, "t.json", data)
    assert main(["transplant", "--input", inp]) == 0
    rep = json.loads(capsys.readouterr().out)
    (pt,) = rep["domain_critical_points"]
    assert complex(pt["re"], pt["im"]) == pytest.approx(0.2 + 0j, abs=1e-8)
    # the transported disk point is the preimage 0.2 / 0.5
    (dpt,) = rep["disk_critical_set"]["points"]
    assert complex(dpt["re"], dpt["im"]) == pytest.approx(0.4 + 0j, abs=1e-10)


#: Each command's report (or CSV sidecar) keys in order, on the inputs of
#: the tests above: the key order is the byte layout of the report.
REPORT_LAYOUTS = [
    ("solve", _crit([(0.5 + 0j, 1)]), [],
     ["command", "tolerances", "critical_set", "product", "degree",
      "functional", "residual_norm", "roundtrip_error"]),
    ("critpoints", B05, [], ["command", "degree", "points"]),
    ("metric", _crit([(0.5 + 0j, 1)]),
     ["--grid", '{"n_r": 16, "n_theta": 32, "r_max": 0.9}'],
     ["grid", "rows", "command", "tolerances", "functional", "zero_set"]),
    ("curvature", _crit([(0.5 + 0j, 1)]),
     ["--grid", '{"n_r": 16, "n_theta": 32, "r_max": 0.9}'],
     ["grid", "rows", "command", "tolerances", "band", "max_deviation",
      "defined_fraction", "pass"]),
    ("pde-oracle", MONOMIAL, ["--grid", '{"n": 65, "r": 0.5}'],
     ["command", "grid", "deviation", "budget", "pass"]),
    ("verify-extremal", {**_crit([(0.5 + 0j, 1)]), "competitors": 16},
     ["--seed", "7"],
     ["command", "seed", "tolerances", "margin_tolerance", "suite", "inputs",
      "margin", "samples", "skipped", "pass"]),
    ("verify-boundary", _crit([(0.5 + 0j, 1)]), [],
     ["command", "tolerances", "deviation_tolerance", "quotients", "phi",
      "pass"]),
    ("compose", {"outer": Z2, "inner": B05}, [],
     ["command", "tolerances", "match_tolerance", "semigroup", "left_factor",
      "pass"]),
    ("union",
     {"first": _crit([(0.3 + 0j, 1)]), "second": _crit([(-0.2 + 0.1j, 1)]),
      "scale": 0.5},
     ["--grid", '{"n_r": 32, "n_theta": 128, "r_max": 0.9}'],
     ["command", "tolerances", "scale", "suite", "alpha", "zero_set_error",
      "max_curvature", "direct_functional", "pass"]),
    ("converge",
     {"points": [{"re": 0.3, "im": 0.0}, {"re": 0.2, "im": 0.1},
                 {"re": -0.25, "im": 0.0}]}, [],
     ["command", "tolerances", "functionals", "sup_differences",
      "non_increasing", "tail_monotone", "pass"]),
    ("transplant",
     {"map": {"kind": "scaled_disk", "radius": 0.5},
      "points": [{"re": 0.2, "im": 0.0}]}, [],
     ["command", "tolerances", "disk_critical_set", "product", "functional",
      "derivative_at_zero", "domain_critical_points"]),
]


@pytest.mark.parametrize(
    "command, data, flags, keys", REPORT_LAYOUTS,
    ids=[case[0] for case in REPORT_LAYOUTS],
)
def test_report_layout_is_frozen(tmp_path, command, data, flags, keys):
    inp = _write(tmp_path, "in.json", data)
    csv = command in ("metric", "curvature")
    out = tmp_path / ("out.csv" if csv else "out.json")
    assert main([command, "--input", inp, "--output", str(out)] + flags) == 0
    rep = read_json(str(out) + ".json" if csv else out)
    assert list(rep) == keys


def test_readme_lists_every_command():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = readme.split("Commands:", 1)[1].split("\n\n", 1)[0]
    assert tuple(re.findall(r"`([^`]+)`", listed)) == COMMANDS


def _console_script_command():
    """Command line that runs the ``maxblaschke`` console script, and its env.

    Without an install, run what pip's generated wrapper runs: import the
    ``module:function`` target from ``[project.scripts]`` and exit with its
    return value, in a fresh interpreter that imports this very package.
    """
    script = shutil.which("maxblaschke")
    if script is not None:
        return [script], None
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["maxblaschke"]
    module, function = target.split(":")
    code = f"import sys; from {module} import {function}; sys.exit({function}())"
    return [sys.executable, "-c", code], _child_env()


def _child_env():
    """Environment for a fresh interpreter that imports this very package."""
    package_root = str(Path(maxblaschke.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return env


def test_console_script_runs(tmp_path):
    inp = _write(tmp_path, "c.json", _crit([(0.5 + 0j, 1)]))
    command, env = _console_script_command()
    proc = subprocess.run(
        command + ["solve", "--input", inp],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["functional"] == pytest.approx(0.8, abs=1e-10)


def test_cli_solve_loads_no_scipy(tmp_path, corpus):
    """Only the PDE oracle needs scipy: importing the CLI and solving a
    corpus set must not load it, while the oracle's names still resolve."""
    C = max(corpus, key=lambda c: (c.total, len(c.entries)))
    inp = _write(tmp_path, "c.json", C.to_dict())
    code = f"""
import sys
import maxblaschke.cli
assert maxblaschke.cli.main(["solve", "--input", {inp!r}]) == 0
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, loaded
import maxblaschke
assert callable(maxblaschke.oracle_validate)
from maxblaschke import pde
assert pde.oracle_validate is maxblaschke.oracle_validate
"""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


#: The package's public names; a change to the surface changes this list.
PUBLIC_NAMES = [
    "CompetitorSpec", "CriticalSet", "CurvatureField", "DensityField",
    "DiskAutomorphism", "FiniteBlaschke", "HomotopyConfig", "InputError",
    "NumericalError", "PdeProblem", "PdeSolution", "PolarGrid",
    "RiemannMapSpec", "SolveReport", "TransplantResult", "TruncationResult",
    "ahlfors_check", "boundary_probes", "boundary_quotient", "compose",
    "constant_curvature_problem", "critical_points",
    "default_competitor_specs", "derivative", "derivative_at_origin_order",
    "discrete_curvature", "divisor_reduced_problem", "dominance_check",
    "evaluate", "extremality_suite", "fit_automorphism", "hyperbolic_density",
    "hyperbolic_field", "left_factor_check", "oracle_validate",
    "phi_boundary_bound", "product_density", "pseudo_hyperbolic_distance",
    "pullback_density", "refinement_contraction", "semigroup_check",
    "solve_dirichlet", "solve_maximal", "transplant", "truncation_sequence",
    "union_metric", "union_suite",
]


def test_tolerance_keys_are_the_config_fields():
    names = tuple(f.name for f in fields(HomotopyConfig))
    assert names == _TOLERANCES == ("newton_tol", "roundtrip_tol")


def test_public_surface_is_frozen_and_resolves():
    assert sorted(maxblaschke.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        value = getattr(maxblaschke, name)
        assert getattr(value, "__name__", name) == name
    with pytest.raises(AttributeError):
        getattr(maxblaschke, "solve_maximal_normalized")
