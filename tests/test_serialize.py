"""Determinism and formatting checks for the report writers."""

import json
import math

import numpy as np
import pytest

from maxblaschke import InputError, PolarGrid
from maxblaschke.serialize import dumps, field_to_csv, read_json, write_json


def test_seventeen_digit_floats():
    # 0.1 is not exactly representable; 17 significant digits pin the bits
    assert dumps(0.1) == "0.10000000000000001\n"
    assert dumps(1.0) == "1\n"
    assert dumps(-2.5e-3) == "-0.0025000000000000001\n"


def test_signed_zero_canonicalized():
    assert dumps(-0.0) == "0\n"
    assert dumps({"eta": complex(-1.0, -0.0)}).count("-0") == 0


def test_non_finite_rendered_as_strings():
    text = dumps({"a": float("nan"), "b": float("inf"), "c": float("-inf")})
    parsed = json.loads(text)
    assert parsed == {"a": "nan", "b": "inf", "c": "-inf"}


def test_complex_as_re_im_object():
    parsed = json.loads(dumps(0.3 - 0.4j))
    assert parsed == {"re": 0.3, "im": -0.4}


def test_none_bool_int_and_numpy_scalars():
    obj = {
        "none": None,
        "flag": np.bool_(True),
        "count": np.int64(7),
        "x": np.float64(0.5),
    }
    parsed = json.loads(dumps(obj))
    assert parsed == {"none": None, "flag": True, "count": 7, "x": 0.5}


def test_insertion_order_preserved():
    text = dumps({"b": 1, "a": 2})
    assert text.index('"b"') < text.index('"a"')


def test_unknown_type_rejected():
    with pytest.raises(InputError):
        dumps({"bad": object()})


def test_byte_identical_across_calls(tmp_path):
    report = {"zeros": [0.1 + 0.2j, 0j], "eta": -1.0 + 0j, "ok": True}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(report, p1)
    write_json(report, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert read_json(p1) == json.loads(dumps(report))


def test_read_json_propagates_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"a": 1,\n ,}')
    # malformed input should surface line/column via the parser error
    with pytest.raises(json.JSONDecodeError) as err:
        read_json(bad)
    assert err.value.lineno == 2


def test_field_csv_rows_and_sidecar(tmp_path):
    grid = PolarGrid(8, 8, 0.5)
    values = np.full(grid.nodes.shape, 0.25)
    values[0, 0] = np.nan
    out = tmp_path / "field.csv"
    field_to_csv(grid, values, out, sidecar={"quantity": "density"})

    lines = out.read_text().splitlines()
    assert lines[0] == "re,im,value"
    assert len(lines) == 1 + 8 * 8
    # the NaN node gets an empty value column, not "nan"
    assert lines[1].endswith(",")
    assert lines[2].endswith(",0.25")

    meta = read_json(str(out) + ".json")
    assert meta["rows"] == 64
    assert meta["grid"]["n_r"] == 8
    assert meta["grid"]["n_theta"] == 8
    assert meta["quantity"] == "density"


def test_field_csv_shape_mismatch(tmp_path):
    grid = PolarGrid(8, 8, 0.5)
    with pytest.raises(InputError):
        field_to_csv(grid, np.zeros((3, 8)), tmp_path / "x.csv")


def _field_csv_by_rows(grid, values):
    """The CSV text as the original per-row loop rendered it."""
    lines = ["re,im,value"]
    for z, v in zip(grid.nodes.ravel(), values.ravel()):
        tail = format(float(v), ".17g") if math.isfinite(v) else ""
        lines.append(
            f"{format(z.real, '.17g')},{format(z.imag, '.17g')},{tail}"
        )
    return "\n".join(lines) + "\n"


def test_field_csv_matches_per_row_rendering(tmp_path):
    grid = PolarGrid(16, 32, 0.9)
    rng = np.random.default_rng(5)
    values = rng.standard_normal(grid.nodes.shape) * 10.0 ** rng.integers(
        -300, 300, grid.nodes.shape
    )
    values.flat[:8] = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324,
                       -2.2e-309, 0.1]
    out = tmp_path / "field.csv"
    field_to_csv(grid, values, out)
    assert out.read_bytes() == _field_csv_by_rows(grid, values).encode()
