import numpy as np
import pytest
from scipy.ndimage import maximum_filter

from maxblaschke.blaschke import (
    _BLOCK,
    CriticalSet,
    FiniteBlaschke,
    _pullback,
    _scan,
)
from maxblaschke.errors import InputError, NumericalError
from maxblaschke.metrics import (
    DensityField,
    _clear_of_zeros,
    _max_filter3,
    PolarGrid,
    ahlfors_check,
    discrete_curvature,
    dominance_check,
    hyperbolic_field,
    product_density,
    pullback_density,
    refinement_contraction,
    union_metric,
)
from maxblaschke.solver import solve_maximal

GRID = PolarGrid(n_r=48, n_theta=160, r_max=0.9)


def constant_field(grid, value):
    """The constant density ``value`` on the grid."""
    return DensityField(grid, np.full((grid.n_r, grid.n_theta), float(value)))


def scale_field(field, factor):
    """Pointwise positive rescaling; zeros are unchanged."""
    return DensityField(field.grid, factor * field.values, field.zero_set)


def test_grid_layout():
    g = PolarGrid()
    assert g.radii.shape == (128,)
    assert g.radii[0] > 0                      # no ring at the origin
    assert np.all(np.diff(g.radii) > 0)
    assert g.radii[-1] == pytest.approx(0.95, abs=1e-15)
    assert g.h == pytest.approx(0.011658253987930873, rel=1e-12)
    assert g.nodes.shape == (128, 512)


@pytest.mark.parametrize("shape", [(3, 3), (4, 9), (124, 512)])
def test_max_filter_equals_scipy(shape):
    rng = np.random.default_rng(shape)
    for _ in range(5):
        a = rng.standard_normal(shape)
        a[rng.random(shape) < 0.1] = np.inf
        ref = maximum_filter(a, size=3, mode=("nearest", "wrap"))
        assert np.array_equal(_max_filter3(a), ref)


def _dense_clear(grid, zero_set):
    """Every node's distance to every point: the formula the band-limited
    mask must reproduce."""
    if not zero_set.entries:
        return np.ones(grid.nodes.shape, dtype=bool)
    zs = np.array([p for p, _ in zero_set.entries])
    return np.min(np.abs(grid.nodes[..., None] - zs), axis=-1) > 2.0 * grid.h


@pytest.mark.parametrize(
    "grid", [GRID, PolarGrid(), PolarGrid(n_r=8, n_theta=8, r_max=0.5)])
def test_clear_of_zeros_equals_dense_formula(grid):
    rng = np.random.default_rng([grid.n_r, grid.n_theta])
    h, r = grid.h, grid.radii
    # moduli at 0, on and around the innermost ring, the band's edges
    # and r_max; angles random, or exactly a node's
    moduli = [0.0, r[0], r[0] + 2 * h, max(r[0] - 2 * h, 0.0), r[1],
              r[-1], r[-1] - 2 * h, r[-2], min(r[-1] + 2 * h, 0.99),
              0.5 * (r[0] + r[1])]
    assert _clear_of_zeros(grid, CriticalSet()).all()
    for _ in range(40):
        count = int(rng.integers(1, 4))
        mods = rng.choice(moduli, count) + rng.choice(
            [0.0, 1e-12, -1e-12, 1e-3], count)
        mods = np.clip(mods, 0.0, 0.999)
        angles = np.where(rng.random(count) < 0.5,
                          grid.thetas[rng.integers(0, grid.n_theta, count)],
                          2 * np.pi * rng.random(count))
        points = mods * np.exp(1j * angles)
        points = list(dict.fromkeys(complex(p) for p in points))
        C = CriticalSet(tuple((p, 1) for p in points))
        assert np.array_equal(_clear_of_zeros(grid, C), _dense_clear(grid, C))


def test_grid_refine_doubles():
    f = GRID.refine()
    assert (f.n_r, f.n_theta) == (96, 320)
    assert f.r_max == GRID.r_max


def test_grid_validation():
    with pytest.raises(InputError):
        PolarGrid(n_r=4)
    with pytest.raises(InputError):
        PolarGrid(r_max=1.0)
    for counts in ({"n_r": float("nan")}, {"n_theta": 16.5}, {"n_r": 128.0}):
        with pytest.raises(InputError):
            PolarGrid(**counts)
    assert type(PolarGrid(r_max=np.float64(0.5)).r_max) is float


def test_density_field_rejects_negative_values():
    with pytest.raises(InputError):
        DensityField(GRID, -np.ones(GRID.nodes.shape), CriticalSet())


def test_hyperbolic_curvature_is_minus_four():
    lam = hyperbolic_field(GRID)
    curv = discrete_curvature(lam)
    band = 10.0 * GRID.h**2
    assert curv.max_deviation(-4.0) <= band
    assert np.all(np.isfinite(curv.values[curv.defined]))


def test_curvature_contraction_near_four():
    lam = hyperbolic_field(GRID)
    fine = hyperbolic_field(GRID.refine())
    ratio = refinement_contraction(
        discrete_curvature(lam), discrete_curvature(fine), -4.0)
    assert 3.5 <= ratio <= 4.5


def test_scaled_density_curvature():
    """Scaling lambda by c leaves -Delta log lambda alone and divides by
    c^2 after the lambda^2 normalization: kappa -> kappa / c^2."""
    lam = scale_field(hyperbolic_field(GRID), 0.5)
    curv = discrete_curvature(lam)
    dev = curv.max_deviation(-16.0)
    assert dev <= 4 * 10.0 * GRID.h**2   # discretization error scales too


def test_noise_field_has_no_certified_nodes():
    rng = np.random.default_rng(5)
    values = 1.0 + 0.5 * rng.random(GRID.nodes.shape)
    noisy = DensityField(GRID, values, CriticalSet())
    curv = discrete_curvature(noisy)
    with pytest.raises(NumericalError):
        curv.max_deviation(-4.0)


def test_pullback_of_identity_is_hyperbolic():
    B = FiniteBlaschke(zeros=(0j,), eta=1.0)
    lam = pullback_density(B, GRID)
    assert lam.values == pytest.approx(hyperbolic_field(GRID).values, rel=1e-13)
    assert lam.zero_set.entries == ()


def _disk_nodes(rng, n):
    return 0.95 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


@pytest.mark.parametrize("c", [1.0, 0.6])
def test_pullback_blocks_keep_the_bits_of_one_scan(c):
    """Block by block, the pullback density equals the one-pass expression
    c |B'| / (1 - c^2 |B|^2) over the whole input bit for bit, with its
    shape and scalar-ness: at block seams, where the final block would hold
    one or two nodes, at a 0-d point, on an empty array and on 2-D arrays
    that are not grids (one of _BLOCK + 1 nodes)."""
    rng = np.random.default_rng(28)
    for d in (1, 3, 4, 6):
        zeros = 0.9 * np.sqrt(rng.random(d)) * np.exp(2j * np.pi * rng.random(d))
        B = FiniteBlaschke(tuple(zeros), eta=np.exp(2j * np.pi * rng.random()))
        cases = [_disk_nodes(rng, n) for n in (
            _BLOCK, _BLOCK + 1, _BLOCK + 2, 2 * _BLOCK, 2 * _BLOCK + 1,
            3 * _BLOCK + 2)]
        cases += [0.2 + 0.1j, np.array(-0.3j), np.empty(0, dtype=complex),
                  _disk_nodes(rng, 145 * 113).reshape(145, 113),
                  _disk_nodes(rng, 200 * 250).reshape(200, 250)]
        for z in cases:
            w, dw = _scan(B, z)
            want = c * np.abs(dw) / (1.0 - c * c * np.abs(w) ** 2)
            got = _pullback(B, z, c)
            assert np.shape(got) == np.shape(want)
            assert np.isscalar(got) == np.isscalar(want)
            assert np.array_equal(got, want)


def test_pullback_block_refuses_reflected_pole():
    """A node within POLE_TOL of a reflected pole is refused in any block,
    the folded final node included."""
    B = FiniteBlaschke(zeros=(0.5 + 0j,), eta=1.0)
    for index in (_BLOCK + 5, 2 * _BLOCK):
        z = _disk_nodes(np.random.default_rng(index), 2 * _BLOCK + 1)
        z[index] = 2.0  # 1/conj(0.5)
        with pytest.raises(NumericalError, match="reflected pole"):
            _pullback(B, z)


def test_pullback_annotates_critical_points():
    rep = solve_maximal(CriticalSet.from_points([0.5]))
    lam = pullback_density(rep.solution, GRID)
    assert lam.zero_set.total == 1
    assert lam.zero_set.points()[0] == pytest.approx(0.5, abs=1e-8)


def test_ahlfors_identity_attains_one():
    assert ahlfors_check(hyperbolic_field(GRID)) == pytest.approx(1.0, abs=1e-12)


def test_ahlfors_scaled_copy():
    lam = scale_field(hyperbolic_field(GRID), 0.5)
    assert ahlfors_check(lam) == pytest.approx(0.5, abs=1e-12)


def test_ahlfors_rejects_curvature_above_minus_four():
    """Twice the hyperbolic density has curvature -1."""
    with pytest.raises(InputError):
        ahlfors_check(scale_field(hyperbolic_field(GRID), 2.0))


def test_ahlfors_strict_for_nonempty_zero_set():
    rep = solve_maximal(CriticalSet.from_points([0.5]))
    ratio = ahlfors_check(pullback_density(rep.solution, GRID))
    assert ratio <= 1.0 + 1e-9
    assert 1.0 - ratio > 1e-9


def test_dominance_self_ratio_is_one():
    lam = hyperbolic_field(GRID)
    assert dominance_check(lam, lam) == pytest.approx(1.0, abs=1e-12)


def test_dominance_nested_solves():
    small = solve_maximal(CriticalSet.from_points([0.5]))
    large = solve_maximal(CriticalSet.from_points([0.5, -0.5]))
    ratio = dominance_check(
        pullback_density(large.solution, GRID),
        pullback_density(small.solution, GRID),
    )
    assert ratio <= 1.0 + 1e-9


def test_dominance_rejects_scaled_copy():
    """0.9 * lambda_D has curvature -4/0.81, outside the two-sided band."""
    lam = hyperbolic_field(GRID)
    with pytest.raises(InputError):
        dominance_check(scale_field(lam, 0.9), lam)


def test_dominance_rejects_grid_mismatch():
    with pytest.raises(InputError):
        dominance_check(hyperbolic_field(GRID), hyperbolic_field(GRID.refine()))


def test_dominance_requires_zero_containment():
    rep = solve_maximal(CriticalSet.from_points([0.5]))
    lam = pullback_density(rep.solution, GRID)
    with pytest.raises(InputError):
        dominance_check(hyperbolic_field(GRID), lam)


def test_product_density_closed_form_curvature():
    a = hyperbolic_field(GRID)
    b = scale_field(a, 2.0)
    field, kappa = product_density(a, b)
    assert field.values == pytest.approx(2.0 * a.values**2, rel=1e-13)
    expect = -4.0 * (a.values**-2.0 + b.values**-2.0)
    assert kappa == pytest.approx(expect, rel=1e-13)


def test_product_curvature_matches_stencil():
    """Dual route: closed-form product curvature against the finite
    difference stencil of the actual product density."""
    B1 = solve_maximal(CriticalSet.from_points([0.5])).solution
    B2 = FiniteBlaschke(zeros=(0j, 0j), eta=1.0)
    a = pullback_density(B1, GRID)
    b = pullback_density(B2, GRID)
    field, kappa = product_density(a, b)
    curv = discrete_curvature(field)
    mask = curv.defined & np.isfinite(kappa)
    assert mask.any()
    assert np.max(np.abs(curv.values[mask] - kappa[mask])) <= 10.0 * GRID.h**2


def test_union_metric_properties():
    F = solve_maximal(CriticalSet.from_points([0.5])).solution
    G = solve_maximal(CriticalSet.from_points([-0.5])).solution
    field, alpha = union_metric(F, G, 0.5, GRID)
    assert alpha > 0
    expected = CriticalSet.from_points([0.5, -0.5])
    assert expected.match(field.zero_set) <= 1e-8
    curv = discrete_curvature(field)
    assert np.max(curv.values[curv.defined]) <= -4.0 + 10.0 * GRID.h**2


def test_union_metric_rejects_bad_damping():
    F = FiniteBlaschke(zeros=(0j,), eta=1.0)
    with pytest.raises(InputError):
        union_metric(F, F, 1.0, GRID)


def test_constant_field_curvature_is_zero():
    lam = constant_field(GRID, 2.0)
    curv = discrete_curvature(lam)
    assert curv.max_deviation(0.0) <= 10.0 * GRID.h**2
