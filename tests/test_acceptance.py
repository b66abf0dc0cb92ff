"""Numbered acceptance gate: one test per line of the behavior contract.

Every test prints a single ``criterion NN PASS/FAIL`` line (visible with
``-s`` or in captured output) and asserts the same condition, so a red line
and a red test always agree.  The shared 50-set corpus comes from conftest;
criteria that need their own randomness derive seeds from CORPUS_SEED so the
whole gate is reproducible.
"""

import numpy as np

from conftest import CORPUS_SEED

from maxblaschke.blaschke import (
    CriticalSet,
    FiniteBlaschke,
    critical_points,
    derivative,
    evaluate,
)
from maxblaschke.disk import RiemannMapSpec
from maxblaschke.metrics import (
    PolarGrid,
    ahlfors_check,
    discrete_curvature,
    dominance_check,
    pullback_density,
    refinement_contraction,
    union_metric,
)
from maxblaschke.pde import (
    PdeProblem,
    constant_curvature_problem,
    oracle_validate,
    solve_dirichlet,
)
from maxblaschke.solver import solve_maximal, transplant, truncation_sequence
from maxblaschke.verify import (
    boundary_probes,
    boundary_quotient,
    default_competitor_specs,
    extremality_suite,
    left_factor_check,
    phi_boundary_bound,
    semigroup_check,
    union_suite,
)


def _line(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_one_point_closed_form():
    worst = 0.0
    for p in (0.1, 0.3, 0.5, 0.7):
        a = 2.0 * p / (1.0 + p * p)
        rep = solve_maximal(CriticalSet.from_points([p]))
        assert rep.solution.degree == 2
        nonzero = [z for z in rep.solution.zeros if abs(z) > 1e-12]
        worst = max(worst, abs(nonzero[0] - a), abs(rep.functional_value - a))
    _line(1, worst <= 1e-10,
          f"one-point closed form, worst error {worst:.2e} (tol 1e-10)")


def test_criterion_02_round_trip(corpus, corpus_solves):
    worst_err = worst_dt = 0.0
    for C, (rep, dt) in zip(corpus, corpus_solves):
        worst_err = max(worst_err, C.match(critical_points(rep.solution)))
        worst_dt = max(worst_dt, dt)
    _line(2, worst_err <= 1e-8 and worst_dt <= 2.0,
          f"50-set round trip, worst mismatch {worst_err:.2e} (tol 1e-8), "
          f"slowest solve {worst_dt:.2f}s (budget 2s)")


def test_criterion_03_extremality(corpus, corpus_solves):
    rng = np.random.default_rng(CORPUS_SEED + 3)
    worst_margin = np.inf
    violations = 0
    for C, (rep, _) in zip(corpus, corpus_solves):
        specs = default_competitor_specs(C, 1000, rng)
        out = extremality_suite(C, rep.solution, specs)
        assert out["samples"] + out["skipped"] == 1000
        worst_margin = min(worst_margin, out["margin"])
        violations += 0 if out["pass"] else 1
    _line(3, violations == 0 and worst_margin >= -1e-9,
          f"50 x 1000 competitors, worst margin {worst_margin:.2e} "
          f"(tol -1e-9), {violations} violating sets")


def test_criterion_04_curvature(corpus_solves, corpus_fields):
    grid, fields = corpus_fields
    band = 10.0 * grid.h**2
    fine = grid.refine()
    worst_dev = 0.0
    ratios = []
    for (rep, _), field in zip(corpus_solves, fields):
        curv = discrete_curvature(field)
        worst_dev = max(worst_dev, curv.max_deviation(-4.0))
        curv2 = discrete_curvature(pullback_density(rep.solution, fine))
        ratios.append(refinement_contraction(curv, curv2, -4.0))
    lo, hi = min(ratios), max(ratios)
    _line(4, worst_dev <= band and 3.5 <= lo and hi <= 4.5,
          f"pullback curvature within {worst_dev:.2e} of -4 (band {band:.2e}),"
          f" refinement contraction in [{lo:.3f}, {hi:.3f}] (need [3.5, 4.5])")


def test_criterion_05_ahlfors(corpus_fields):
    grid, fields = corpus_fields
    identity = solve_maximal(CriticalSet()).solution
    r0 = ahlfors_check(pullback_density(identity, grid))
    ratios = [ahlfors_check(f) for f in fields]
    worst = max(ratios)
    gap = 1.0 - worst
    _line(5, abs(r0 - 1.0) <= 1e-9 and worst <= 1.0 + 1e-9 and gap > 1e-9,
          f"empty-set ratio 1{r0 - 1.0:+.1e}, nonempty max ratio {worst:.6f} "
          f"(<= 1+1e-9, equality gap {gap:.2e} > 1e-9)")


def test_criterion_06_dominance_nested(corpus, corpus_fields):
    grid, fields = corpus_fields
    rng = np.random.default_rng(CORPUS_SEED + 6)
    worst = -np.inf
    for i in range(20):
        C = corpus[i]
        for _ in range(100):
            p = rng.uniform(0.25, 0.6) * np.exp(2j * np.pi * rng.random())
            if all(abs(p - q) > 0.1 for q in C.points()):
                break
        Cp = C.union(CriticalSet.from_points([p]))
        bigger = solve_maximal(Cp)
        ratio = dominance_check(
            pullback_density(bigger.solution, grid), fields[i]
        )
        worst = max(worst, ratio)
    _line(6, worst <= 1.0 + 1e-9,
          f"20 nested pairs, max density ratio {worst:.12f} (bound 1+1e-9)")


def test_criterion_07_pde_oracle():
    products = {
        "z": FiniteBlaschke(zeros=(0j,)),
        "z^2": FiniteBlaschke(zeros=(0j, 0j)),
        "one-point": solve_maximal(CriticalSet.from_points([0.5])).solution,
        "two-point": solve_maximal(
            CriticalSet.from_points([0.5, -0.5])
        ).solution,
    }
    h = 2.0 * 0.75 / 256
    budget = 5.0 * h * h
    devs, ratios = [], []
    for B in products.values():
        d257 = oracle_validate(B, 0.75, 257)
        d513 = oracle_validate(B, 0.75, 513)
        devs.append(d257)
        ratios.append(d257 / d513)
    prob = constant_curvature_problem(
        257, 0.5, -4.0, lambda xi: np.full(np.shape(xi), 2.0)
    )
    lam0 = float(np.exp(solve_dirichlet(prob).u[0, 0]))
    h_anchor = 2.0 * 0.5 / 256
    anchor_err = abs(lam0 - 4.0 / (1.0 + np.sqrt(5.0)))
    ok = (
        max(devs) <= budget
        and all(3.0 <= r <= 5.0 for r in ratios)
        and anchor_err <= 5.0 * h_anchor**2
    )
    _line(7, ok,
          f"oracle deviation <= {max(devs):.2e} (budget {budget:.2e}), "
          f"contraction in [{min(ratios):.2f}, {max(ratios):.2f}] (~4x), "
          f"radial anchor off by {anchor_err:.2e} "
          f"(tol {5 * h_anchor ** 2:.2e})")


def test_criterion_08_maximum_principle():
    rng = np.random.default_rng(CORPUS_SEED + 8)
    worst_gap = -np.inf
    for _ in range(20):
        k = np.sort(-rng.uniform(0.5, 8.0, size=2))
        b = np.sort(rng.uniform(0.5, 2.0, size=2))
        c1 = float(rng.uniform(0, 2.0))
        rad = float(rng.uniform(0.4, 0.8))
        # coefficientwise-ordered curvatures, ordered constant boundary data
        lo = PdeProblem(
            n=65, radius=rad,
            curvature=(lambda z, a=-k[0], c=c1: -(a + c * np.abs(z) ** 2)),
            boundary=(lambda xi, v=float(b[0]): np.full(np.shape(xi), v)),
        )
        hi = PdeProblem(
            n=65, radius=rad,
            curvature=(lambda z, a=-k[1], c=c1: -(a + c * np.abs(z) ** 2)),
            boundary=(lambda xi, v=float(b[1]): np.full(np.shape(xi), v)),
        )
        u1, u2 = solve_dirichlet(lo), solve_dirichlet(hi)
        worst_gap = max(
            worst_gap, float(np.max(u1.u[u1.mask] - u2.u[u2.mask]))
        )
    _line(8, worst_gap <= 1e-10,
          f"20 ordered PDE pairs, worst ordering violation {worst_gap:.2e} "
          f"(tol 1e-10)")


def test_criterion_09_semigroup(corpus, corpus_solves):
    pair_totals = [(1, 1), (1, 2), (2, 2), (1, 3), (3, 1),
                   (2, 3), (1, 4), (3, 2), (1, 5), (3, 3)]
    by_total = {}
    for i, C in enumerate(corpus):
        by_total.setdefault(C.total, []).append(i)
    used = {}

    def pick(total):
        pool = by_total[total]
        idx = pool[used.get(total, 0) % len(pool)]
        used[total] = used.get(total, 0) + 1
        return corpus_solves[idx][0].solution

    worst_match, worst_dom, degrees = 0.0, -np.inf, []
    all_ok = True
    for n_outer, n_inner in pair_totals:
        outer = pick(n_outer)
        inner = pick(n_inner)
        semi = semigroup_check(inner, outer)
        left = left_factor_check(outer)
        degrees.append(semi["composite_degree"])
        worst_match = max(worst_match, semi["match_error"],
                          left["match_error"])
        worst_dom = max(worst_dom, *semi["dominance"])
        all_ok &= semi["pass"] and left["pass"]
    _line(9, all_ok and max(degrees) <= 16 and worst_match <= 1e-8,
          f"10 composed pairs (composite degree <= {max(degrees)}), worst "
          f"automorphism match {worst_match:.2e} (tol 1e-8), worst density "
          f"ratio {worst_dom:.9f}")


def test_criterion_10_union(corpus):
    rng = np.random.default_rng(CORPUS_SEED + 10)
    grid = PolarGrid()
    band = 10.0 * grid.h**2
    small = [i for i, C in enumerate(corpus) if C.total <= 3]
    cases = []
    for j in range(9):
        i1 = small[2 * j % len(small)]
        i2 = small[(2 * j + 1) % len(small)]
        cases.append((corpus[i1], corpus[i2], float(rng.uniform(0.3, 0.8))))
    cases.append((corpus[small[0]], corpus[small[0]], 0.5))  # multiset union
    passes = 0
    worst_zero = worst_gap = 0.0
    for C1, C2, c in cases:
        out = union_suite(C1, C2, c, grid)
        passes += bool(out["pass"])
        worst_zero = max(worst_zero, out["zero_set_error"])
        # dual route: stencil curvature against the closed form.  The gap is
        # weighted by the same curvature-magnitude scale certification uses,
        # since the stencil's truncation error grows with |kappa|.
        F = solve_maximal(C1).solution
        G = solve_maximal(C2).solution
        mu, alpha = union_metric(F, G, c, grid)
        lam = []
        for f in (F, G):
            w = evaluate(f, grid.nodes)
            dw = derivative(f, grid.nodes)
            lam.append(c * np.abs(dw) / (1.0 - c * c * np.abs(w) ** 2))
        with np.errstate(divide="ignore"):
            kan = -4.0 * (lam[0] ** -2.0 + lam[1] ** -2.0) * 4.0 / alpha
        curv = discrete_curvature(mu)
        d = curv.defined
        scale = np.clip(np.abs(kan[d]) / 4.0, 1.0, 16.0)
        gap = float(np.max(np.abs(curv.values[d] - kan[d]) / scale))
        worst_gap = max(worst_gap, gap)
    _line(10, passes == 10 and worst_gap <= band,
          f"union suite {passes}/10 (zero sets within {worst_zero:.2e}), "
          f"closed-form vs stencil curvature gap {worst_gap:.2e} "
          f"(band {band:.2e})")


def test_criterion_11_convergence():
    family = [0.5, -0.5, 0.5j, -0.5j, 0.25, -0.25, 0.25j, -0.25j]
    res = truncation_sequence(family, len(family))
    fn = res.functionals
    sups = res.sup_differences
    non_inc = all(fn[i + 1] <= fn[i] + 1e-12 for i in range(len(fn) - 1))
    tail = all(sups[i + 1] < sups[i] for i in range(3, len(sups) - 1))
    _line(11, non_inc and tail,
          f"nested family of 8: functionals {fn[0]:.3f} -> {fn[-1]:.5f} "
          f"non-increasing: {non_inc}; sup differences strictly decreasing "
          f"for n >= 3: {tail}")


def test_criterion_12_boundary_quotient(corpus, corpus_solves):
    worst = 0.0
    for C, (rep, _) in zip(corpus, corpus_solves):
        for direction in boundary_probes(C):
            out = boundary_quotient(rep.solution, direction)
            worst = max(worst, out["deviation"])
    z2 = FiniteBlaschke(zeros=(0j, 0j))
    direction = boundary_probes(CriticalSet.from_points([0j]))[0]
    out = boundary_quotient(z2, direction)
    closed = [2.0 * r / (1.0 + r * r) for r in out["radii"]]
    z2_err = max(abs(q - v) for q, v in zip(out["quotients"], closed))
    _line(12, worst <= 1e-3 and z2_err <= 1e-12,
          f"400 rim probes, worst |quotient - 1| {worst:.2e} at r=0.999 "
          f"(tol 1e-3); z^2 closed form 2r/(1+r^2) off by {z2_err:.1e} "
          f"(tol 1e-12)")


def test_criterion_13_phi_bound(corpus_solves):
    worst_imag, lo_real, hi_real = 0.0, np.inf, -np.inf
    for rep, _ in corpus_solves:
        out = phi_boundary_bound(rep.solution)
        assert out["samples"] == 4096
        worst_imag = max(worst_imag, out["max_imag"])
        lo_real = min(lo_real, out["min_real"])
        hi_real = max(hi_real, out["max_real"])
    ok = worst_imag <= 1e-10 and lo_real > 0.0 and hi_real <= 1.0 + 1e-10
    _line(13, ok,
          f"phi on 50 x 4096 rim samples: Re in [{lo_real:.4f}, "
          f"{hi_real:.6f}] (need (0, 1+1e-10]), max |Im| {worst_imag:.1e} "
          f"(tol 1e-10)")


def test_criterion_14_transplant():
    omega = RiemannMapSpec(coeffs=(1.0, 0.0, 2.0))
    res = transplant([1.0], omega)
    d0 = complex(res.derivative(0.0))
    d_err = abs(d0 - 0.4)
    pts = res.domain_critical_points()
    crit_err = max(abs(p - 1.0) for p, _ in pts)
    total_mult = sum(m for _, m in pts)
    _line(14, d_err <= 1e-10 and crit_err <= 1e-8 and total_mult == 1,
          f"radius-2 disk: derivative at 0 is {d0.real:.12f} (target 0.4, "
          f"off {d_err:.1e}, tol 1e-10), critical point off 1.0 by "
          f"{crit_err:.1e} (tol 1e-8)")
