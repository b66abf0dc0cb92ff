import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxblaschke.disk import (
    DiskAutomorphism,
    RiemannMapSpec,
    hyperbolic_density,
    pseudo_hyperbolic_distance,
)
from maxblaschke.errors import InputError


def disk_points(max_radius=0.95):
    return st.complex_numbers(max_magnitude=max_radius, allow_nan=False,
                              allow_infinity=False)


def test_hyperbolic_density_closed_forms():
    assert hyperbolic_density(0.0) == 1.0
    assert hyperbolic_density(0.5) == pytest.approx(4.0 / 3.0, abs=1e-15)
    vals = hyperbolic_density(np.array([0.0, 0.3j, -0.6]))
    assert vals == pytest.approx([1.0, 1.0 / 0.91, 1.0 / 0.64], abs=1e-14)


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
], ids=["center-nan", "rotation-nan", "rotation-inf"])
def test_automorphism_rejects_non_finite(kwargs):
    with pytest.raises(InputError):
        DiskAutomorphism(**kwargs)


@given(disk_points(0.85), disk_points(0.9))
def test_automorphism_inverse_round_trip(c, z):
    T = DiskAutomorphism(rotation=np.exp(0.7j), center=c)
    assert T.inverse()(T(z)) == pytest.approx(z, abs=1e-12)
    # T sends its center to 0 and is a disk bijection
    assert T(c) == pytest.approx(0.0, abs=1e-15)
    assert abs(T(z)) < 1.0


@given(disk_points(0.8), disk_points(0.8), disk_points(0.9))
@settings(max_examples=100)
def test_automorphism_composition(c1, c2, z):
    S = DiskAutomorphism(rotation=-1.0, center=c1)
    T = DiskAutomorphism(rotation=1j, center=c2)
    assert S.compose(T)(z) == pytest.approx(S(T(z)), abs=1e-12)


def test_automorphism_derivative_matches_difference_quotient():
    T = DiskAutomorphism(rotation=np.exp(0.3j), center=0.4 - 0.2j)
    z, h = 0.25 + 0.1j, 1e-6
    fd = (T(z + h) - T(z - h)) / (2 * h)
    assert T.derivative(z) == pytest.approx(fd, abs=1e-9)


@pytest.mark.parametrize("spec", [
    RiemannMapSpec(kind="identity"),
    RiemannMapSpec(kind="scaled_disk", radius=2.0),
    RiemannMapSpec(kind="moebius", coeffs=(1.0 + 0j, 0.2 + 0j, 1.0 + 0j)),
])
def test_riemann_map_round_trip(spec):
    w = np.array([0.0, 0.3 + 0.2j, -0.7j])
    z = spec.invert(w)
    assert spec(z) == pytest.approx(w, abs=1e-13)


def test_riemann_map_derivative_scaled_disk():
    spec = RiemannMapSpec(kind="scaled_disk", radius=2.0)
    assert spec.derivative(0.3) == pytest.approx(0.5, abs=1e-15)


def test_riemann_map_rejects_outside_domain():
    spec = RiemannMapSpec(kind="scaled_disk", radius=2.0)
    with pytest.raises(ValueError):
        spec(2.5)


@pytest.mark.parametrize("spec", [
    RiemannMapSpec(kind="identity"),
    RiemannMapSpec(kind="scaled_disk", radius=0.7),
    RiemannMapSpec(kind="moebius", coeffs=(2.0 + 1j, 0.3 - 0.4j, 2.5 + 1.25j)),
], ids=["identity", "scaled_disk", "moebius"])
def test_riemann_map_derivative_matches_difference_quotient(spec):
    z, h = np.array([0.0, 0.2 + 0.1j, -0.3j]), 1e-6
    fd = (spec(z + h) - spec(z - h)) / (2 * h)
    assert spec.derivative(z) == pytest.approx(fd, abs=1e-9)

