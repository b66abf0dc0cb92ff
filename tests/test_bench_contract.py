"""The library names that the benchmark harness under bench/ reaches.

The workloads call ``mb.<name>`` and the size sweep imports names from the
package; the tracer records a span ``layer.function`` only for a public
function defined in that layer module, and its per-layer metrics look spans
up by those names.  A rename in the library that bench/ does not follow
would crash a workload or turn a metric into a silent zero; these tests fail
instead.  bench/ is read as text, so nothing there is imported or run.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import maxblaschke

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _text(name: str) -> str:
    return (BENCH / name).read_text(encoding="utf-8")


def _imported_names(source: str) -> set:
    """Names of every ``from maxblaschke import ...`` statement."""
    names = set()
    for group in re.findall(
        r"^\s*from maxblaschke import (\([^)]*\)|(?:[^\n\\]|\\\n)+)",
        source, flags=re.MULTILINE,
    ):
        group = re.sub(r"#[^\n]*", "", group).strip("()")
        names.update(
            part.split()[0] for part in group.replace("\\\n", " ").split(",")
            if part.strip()
        )
    return names


def _package_names() -> list:
    names = set(re.findall(r"\bmb\.([A-Za-z_]\w*)", _text("workloads.py")))
    for script in ("workloads.py", "sweep.py"):
        names |= _imported_names(_text(script))
    return sorted(names)


def _span_names() -> list:
    """``layer.function`` names of the tracer: the INFO_HOOKS keys and the
    spans that layer_metrics reads (not the keys of the metrics it
    returns, which are written ``"key": value`` or ``out["key"] = value``)."""
    source = _text("tracing.py")
    layers = re.findall(r'"(\w+)"', re.search(
        r"^LAYERS = \((.*?)\)", source, re.MULTILINE | re.DOTALL).group(1))
    literal = r'"((?:%s)\.\w+)"' % "|".join(layers)
    hooks = re.search(r"^INFO_HOOKS = \{(.*?)^\}", source,
                      re.MULTILINE | re.DOTALL).group(1)
    metrics = source[source.index("def layer_metrics("):]
    names = set(re.findall(literal + r"\s*:", hooks))
    names |= set(re.findall(literal + r"(?!\s*:|\]\s*=)", metrics))
    return sorted(names)


def test_contract_is_read():
    """The parsing finds the names the benchmark is known to use."""
    assert {"solve_maximal", "oracle_validate", "CriticalSet",
            "critical_points"} <= set(_package_names())
    assert {"solver.solve_maximal", "pde.solve_dirichlet",
            "metrics.pullback_density",
            "serialize.field_to_csv"} <= set(_span_names())


@pytest.mark.parametrize("name", _package_names())
def test_workload_name_is_public(name):
    assert name in maxblaschke.__all__
    assert getattr(maxblaschke, name) is not None


@pytest.mark.parametrize("span", _span_names())
def test_span_name_is_a_traced_function(span):
    layer, name = span.split(".")
    module = importlib.import_module(f"maxblaschke.{layer}")
    fn = getattr(module, name, None)
    assert not name.startswith("_")
    assert inspect.isfunction(fn), f"{span} is not a function"
    assert fn.__module__ == module.__name__, f"{span} is defined elsewhere"


def test_pde_sparse_linalg_is_proxied():
    """The tracer swaps ``maxblaschke.pde.spla`` to time sparse solves; the
    PDE layer calls it only for the LU of a Jacobian after a GMRES failure,
    so the proxy times only those fallback factorizations."""
    import scipy.sparse.linalg

    pde = importlib.import_module("maxblaschke.pde")
    assert pde.spla is scipy.sparse.linalg
