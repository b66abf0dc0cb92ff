import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxblaschke.blaschke import CriticalSet, FiniteBlaschke
from maxblaschke.disk import (
    DiskAutomorphism,
    RiemannMapSpec,
    hyperbolic_density,
    pseudo_hyperbolic_distance,
)
from maxblaschke.errors import InputError, _number
from maxblaschke.solver import transplant, truncation_sequence
from maxblaschke.verify import CompetitorSpec, boundary_quotient


def disk_points(max_radius=0.95):
    return st.complex_numbers(max_magnitude=max_radius, allow_nan=False,
                              allow_infinity=False)


def test_hyperbolic_density_closed_forms():
    assert hyperbolic_density(0.0) == 1.0
    assert hyperbolic_density(0.5) == pytest.approx(4.0 / 3.0, abs=1e-15)
    vals = hyperbolic_density(np.array([0.0, 0.3j, -0.6]))
    assert vals == pytest.approx([1.0, 1.0 / 0.91, 1.0 / 0.64], abs=1e-14)
    with pytest.raises(InputError):
        hyperbolic_density(np.array([0.0, 1.0]))


@given(disk_points(), disk_points())
def test_pseudo_hyperbolic_range_and_symmetry(z, w):
    d = pseudo_hyperbolic_distance(z, w)
    assert 0.0 <= d < 1.0
    assert d == pytest.approx(pseudo_hyperbolic_distance(w, z), abs=1e-14)


@given(disk_points(0.9), disk_points(0.9), disk_points(0.8))
@settings(max_examples=200)
def test_pseudo_hyperbolic_automorphism_invariance(z, w, c):
    T = DiskAutomorphism(rotation=1j, center=c)
    d0 = pseudo_hyperbolic_distance(z, w)
    d1 = pseudo_hyperbolic_distance(T(z), T(w))
    assert d1 == pytest.approx(d0, abs=1e-12)


def test_automorphism_normalizes_rotation():
    T = DiskAutomorphism(rotation=3 + 4j, center=0.1)
    assert abs(T.rotation) == pytest.approx(1.0, abs=1e-15)


def test_automorphism_rejects_outside_center():
    with pytest.raises(ValueError):
        DiskAutomorphism(rotation=1.0, center=1.0 + 0j)


@pytest.mark.parametrize("kwargs", [
    {"center": complex("nan")},
    {"rotation": complex("nan")},
    {"rotation": complex("inf")},
    {"rotation": True},
    {"center": np.False_},
], ids=["center-nan", "rotation-nan", "rotation-inf", "rotation-bool",
        "center-numpy-bool"])
def test_automorphism_rejects_non_finite(kwargs):
    with pytest.raises(InputError):
        DiskAutomorphism(**kwargs)


@given(disk_points(0.85), disk_points(0.9))
def test_automorphism_sends_center_to_zero_and_keeps_the_disk(c, z):
    T = DiskAutomorphism(rotation=np.exp(0.7j), center=c)
    assert T(c) == pytest.approx(0.0, abs=1e-15)
    assert abs(T(z)) < 1.0


@pytest.mark.parametrize("spec", [
    RiemannMapSpec(),
    RiemannMapSpec(coeffs=(1.0, 0.0, 2.0)),
    RiemannMapSpec(coeffs=(1.0 + 0j, 0.2 + 0j, 1.0 + 0j)),
])
def test_riemann_map_round_trip(spec):
    w = np.array([0.0, 0.3 + 0.2j, -0.7j])
    z = spec.invert(w)
    assert spec(z) == pytest.approx(w, abs=1e-13)


@pytest.mark.parametrize("coeffs", [
    (True, 0j, 1.0),
    (1.0, 0.0),
    (complex("nan"), 0.0, 1.0),
    (0.0, 0.0, 1.0),
    (1.0, 0.0, 0.0),
    (-1.0, 0.0, 1.0),
    (1j, 0.0, 1.0),
], ids=["boolean", "wrong-length", "nan", "a-zero", "d-zero",
        "negative-derivative", "imaginary-derivative"])
def test_riemann_map_rejects_bad_coefficients(coeffs):
    with pytest.raises(InputError):
        RiemannMapSpec(coeffs=coeffs)


def test_riemann_map_derivative_scaled_disk():
    spec = RiemannMapSpec(coeffs=(1.0, 0.0, 2.0))
    assert spec.derivative(0.3) == pytest.approx(0.5, abs=1e-15)


def test_riemann_map_rejects_outside_domain():
    spec = RiemannMapSpec(coeffs=(1.0, 0.0, 2.0))
    with pytest.raises(ValueError):
        spec(2.5)


@pytest.mark.parametrize("spec", [
    RiemannMapSpec(coeffs=(1.0, 0.0, 1.0)),
    RiemannMapSpec(coeffs=(1.0, 0.0, 0.7)),
    RiemannMapSpec(coeffs=(2.0 + 1j, 0.3 - 0.4j, 2.5 + 1.25j)),
], ids=["identity", "scaled_disk", "moebius"])
def test_riemann_map_derivative_matches_difference_quotient(spec):
    z, h = np.array([0.0, 0.2 + 0.1j, -0.3j]), 1e-6
    fd = (spec(z + h) - spec(z - h)) / (2 * h)
    assert spec.derivative(z) == pytest.approx(fd, abs=1e-9)


#: Each place a caller's complex number enters the library.
NUMBER_SITES = {
    "critical-point": lambda v: CriticalSet(((v, 1),)),
    "blaschke-zero": lambda v: FiniteBlaschke(zeros=(v,)),
    "blaschke-eta": lambda v: FiniteBlaschke(eta=v),
    "rotation": lambda v: DiskAutomorphism(rotation=v),
    "center": lambda v: DiskAutomorphism(center=v),
    "map-coefficient": lambda v: RiemannMapSpec(coeffs=(1.0, v, 1.0)),
    "probe-direction": lambda v: boundary_quotient(FiniteBlaschke((0j,)), v),
    "competitor-scalar": lambda v: CompetitorSpec("scalar-multiple", v),
    "competitor-extra-point":
        lambda v: CompetitorSpec("larger-critical-set", (v,)),
    "domain-point": lambda v: transplant([v], RiemannMapSpec()),
}


@pytest.mark.parametrize("value", ["0.5", b"0.5", None, complex("nan")],
                         ids=["str", "bytes", "none", "nan"])
@pytest.mark.parametrize("site", NUMBER_SITES)
def test_every_site_refuses_what_is_not_a_finite_number(site, value):
    """``complex`` would parse the string; None and NaN are no number."""
    with pytest.raises(InputError):
        NUMBER_SITES[site](value)


#: Each place a caller's container of numbers enters the library.
CONTAINER_SITES = {
    "critical-set": lambda v: CriticalSet(v),
    "critical-set-entry": lambda v: CriticalSet((v,)),
    "critical-points": lambda v: CriticalSet.from_points(v),
    "blaschke-zeros": lambda v: FiniteBlaschke(zeros=v),
    "map-coefficients": lambda v: RiemannMapSpec(coeffs=v),
    "competitor-extra-points":
        lambda v: CompetitorSpec("larger-critical-set", v),
    "domain-points": lambda v: transplant(v, RiemannMapSpec()),
    "truncation-points": lambda v: truncation_sequence(v, 0),
}


@pytest.mark.parametrize("value", [0.5, None, "0.5", b"0.5", {0.5: 1}],
                         ids=["number", "none", "str", "bytes", "mapping"])
@pytest.mark.parametrize("site", CONTAINER_SITES)
def test_every_site_refuses_what_is_not_a_sequence(site, value):
    """``tuple`` would read the string by character, the bytes by byte and
    the mapping by key; a number and None are no container."""
    with pytest.raises(InputError):
        CONTAINER_SITES[site](value)


@pytest.mark.parametrize("entry", [(0.5, 1, 2), (0.5,)])
def test_critical_set_entry_is_a_point_and_a_multiplicity(entry):
    with pytest.raises(InputError, match="needs 2 items"):
        CriticalSet((entry,))


def test_competitor_points_may_be_a_list():
    spec = CompetitorSpec("larger-critical-set", [0.5, 0.25j])
    assert spec.parameter == (0.5 + 0j, 0.25j)
    assert type(spec.parameter) is tuple


def test_number_reader_returns_complex_for_numpy_values():
    for value in (np.float64(0.5), np.complex128(0.5), np.array(0.5 + 0j)):
        z = _number(value, "point")
        assert type(z) is complex and z == 0.5
