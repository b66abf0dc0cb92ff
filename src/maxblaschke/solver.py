"""Homotopy solver for maximal Blaschke products with prescribed critical sets.

Given a critical set ``C`` of total mass ``m`` containing 0 with multiplicity
``N``, the extremal product has degree ``m + 1`` and the form

    B(z) = eta * z^(N+1) * prod_k (z - b_k) / (1 - conj(b_k) z),

so the unknowns are the ``m - N`` free zeros ``b_k``.  The defining equations
say the critical numerator polynomial ``Q`` vanishes at each prescribed
nonzero point to its multiplicity.  The solver follows the path ``C(t) = t C``
from the collapsed state ``B_0 = z^(m+1)`` at ``t = 0``, correcting with a
damped Newton iteration at each step, and halves the step on failure until
it falls below ``2**-_STEP_HALVING_LIMIT / _STEPS``, where it raises.  ``Q``
and its derivatives with respect to ``b_k`` and ``conj(b_k)`` are short
Taylor jets at the targets, all targets at once, built in factored form by
one forward and one backward scan over the zeros; the Newton line search
evaluates only the residual (the forward scan), and the Jacobian is built
only when a step is taken.  The conjugate-linear structure is handled by
assembling the real ``2(m-N)``-dimensional system.  The unimodular factor is
set last so that ``B^(N+1)(0) > 0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blaschke import (
    CriticalSet,
    FiniteBlaschke,
    critical_numerator_coeffs,
    critical_points,
    derivative,
    derivative_at_origin_order,
    evaluate,
)
from .disk import RiemannMapSpec
from .errors import InputError, NumericalError
from .roots import antiderivative, polynomial_roots


#: Path steps on [0, 1] when no step has to be halved.
_STEPS = 32
#: Newton iterations allowed per path step.
_MAX_NEWTON_ITERS = 50
#: Halvings of the path step allowed before the solve raises.
_STEP_HALVING_LIMIT = 8


@dataclass(frozen=True)
class HomotopyConfig:
    """Tolerances of the path-following solve."""

    newton_tol: float = 1e-12
    roundtrip_tol: float = 1e-8


@dataclass
class SolveReport:
    """Outcome of a solve: the product plus convergence diagnostics.

    ``homotopy_trace`` holds one ``(t, residual, newton_iters)`` triple per
    accepted path step; ``residual_norm`` is the final max-norm of the
    scale-normalized critical-numerator conditions; ``roundtrip_error`` is the
    largest pseudo-hyperbolic distance between the requested critical set and
    the one recovered from the solution.
    """

    solution: FiniteBlaschke
    residual_norm: float
    roundtrip_error: float
    functional_value: float
    homotopy_trace: list = field(default_factory=list)


# ----------------------------------------------------------------------
# jet arithmetic: a jet is [f(c), f'(c)/1!, ..., f^(K)(c)/K!] along the last
# axis; leading axes stack zeros and targets.

def _jets(coeffs, length):
    """Stack broadcast coefficient arrays as jets, truncated or zero-padded."""
    shape = np.broadcast_shapes(*map(np.shape, coeffs))
    out = np.zeros(shape + (length,), dtype=complex)
    for i, ci in enumerate(coeffs[:length]):
        out[..., i] = ci
    return out


def _jet_mul(a, b):
    """Truncated product of (broadcast-compatible) stacked jets."""
    out = a[..., :1] * b
    for i in range(1, a.shape[-1]):
        out[..., i:] += a[..., i:i + 1] * b[..., :-i]
    return out


def _assemble(free, n_origin, targets, jacobian=True):
    """Condition residual and, if ``jacobian``, its Wirtinger blocks.

    With ``P_j(z) = (z - a_j)(1 - conj(a_j) z)`` and ``w_j = 1 - |a_j|^2``
    over all zeros ``a_j`` (the origin ones included), the critical numerator
    is ``Q = sum_k w_k prod_{j != k} P_j``.  The residual stacks the Taylor
    coefficients ``0..k-1`` of ``Q`` at every target ``(c, k)``; the blocks
    ``A``, ``Bm`` hold their derivatives with respect to each free zero ``b``
    and ``conj(b)``.

    Jets at all targets are stacked and padded to the largest multiplicity,
    then scanned over the zeros carrying pairs ``(prod P, weighted
    leave-one-out sum)``, combined as ``(p_a, s_a)(p_b, s_b) = (p_a p_b,
    s_a p_b + p_a s_b)``.  The forward scan alone gives ``Q``; with the
    backward scan, ``u_l = prod_{j != l} P_j`` and ``S_l = sum_{k != l} w_k
    prod_{j not in {k, l}} P_j`` come from the prefix before ``l`` and the
    suffix after it, and ``dQ/db_l = -conj(b_l) u_l - (1 - conj(b_l) z) S_l``,
    ``dQ/dconj(b_l) = -b_l u_l - (z - b_l) z S_l``.  So an assembly costs
    O(d) vectorized jet products and no factor is ever divided out.
    """
    c = np.array([t for t, _ in targets], dtype=complex)
    ks = np.array([k for _, k in targets])
    rows_t = np.repeat(np.arange(len(ks)), ks)
    rows_j = np.concatenate([np.arange(k) for k in ks])
    K1 = int(ks.max())
    a = np.concatenate([np.zeros(n_origin, dtype=complex), free])[:, None]
    ac = np.conj(a)
    w = (1.0 - np.abs(a) ** 2)[..., None]
    P = _jets([(c - a) * (1 - ac * c), 1 - 2 * ac * c + np.abs(a) ** 2, -ac],
              K1)
    d = len(a)
    pre_p = np.empty((d + 1, len(c), K1), dtype=complex)
    pre_s = np.empty_like(pre_p)
    pre_p[0], pre_s[0] = _jets([np.ones_like(c)], K1), 0.0
    for l in range(d):
        pre_s[l + 1] = _jet_mul(pre_s[l], P[l]) + w[l] * pre_p[l]
        pre_p[l + 1] = _jet_mul(pre_p[l], P[l])
    R = pre_s[d][rows_t, rows_j]
    if not jacobian:
        return R
    suf_p = np.empty_like(pre_p)
    suf_s = np.empty_like(pre_p)
    suf_p[d], suf_s[d] = pre_p[0], 0.0
    for l in range(d - 1, n_origin, -1):
        suf_s[l] = _jet_mul(P[l], suf_s[l + 1]) + w[l] * suf_p[l + 1]
        suf_p[l] = _jet_mul(P[l], suf_p[l + 1])
    pp, ps = pre_p[n_origin:d], pre_s[n_origin:d]
    sp, ss = suf_p[n_origin + 1:], suf_s[n_origin + 1:]
    u = _jet_mul(pp, sp)
    S = _jet_mul(ps, sp) + _jet_mul(pp, ss)
    b, bc = a[n_origin:], ac[n_origin:]
    lin = _jets([1 - bc * c, -bc], K1)
    quad = _jets([(c - b) * c, 2 * c - b, 1.0], K1)
    dq = -bc[..., None] * u - _jet_mul(lin, S)
    dqbar = -b[..., None] * u - _jet_mul(quad, S)
    return R, dq[:, rows_t, rows_j].T, dqbar[:, rows_t, rows_j].T


def _q_coefficient_scale(zeros):
    """Max coefficient magnitude of the critical numerator polynomial."""
    return float(np.max(np.abs(critical_numerator_coeffs(zeros))))


def _newton(free, n_origin, targets, cfg, scale):
    """Damped Newton on the free zeros; returns (free, iters, residual).

    The convergence test and every damping trial evaluate the residual
    alone; an accepted trial's residual carries into the next iteration, and
    the Jacobian is built only when a step is taken.
    """
    n = len(free)
    R = _assemble(free, n_origin, targets, jacobian=False)
    for it in range(1, _MAX_NEWTON_ITERS + 1):
        res = float(np.max(np.abs(R))) / scale
        if res <= cfg.newton_tol:
            return free, it, res
        _, A, Bm = _assemble(free, n_origin, targets)
        J = np.block(
            [
                [(A + Bm).real, -(A - Bm).imag],
                [(A + Bm).imag, (A - Bm).real],
            ]
        )
        rhs = -np.concatenate([R.real, R.imag])
        try:
            step = np.linalg.solve(J, rhs)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(J, rhs, rcond=None)
        delta = step[:n] + 1j * step[n:]
        for alpha in (1.0, 0.5, 0.25, 0.125, 0.0625):
            trial = free + alpha * delta
            if np.any(np.abs(trial) >= 1.0):
                continue  # a zero escaped the closed disk: shrink the step
            Rt = _assemble(trial, n_origin, targets, jacobian=False)
            if np.max(np.abs(Rt)) <= (1 - 0.25 * alpha) * np.max(np.abs(R)):
                free, R = trial, Rt
                break
        else:
            raise NumericalError("Newton step rejected (no admissible damping)")
    res = float(np.max(np.abs(R))) / scale
    if res <= cfg.newton_tol:
        return free, _MAX_NEWTON_ITERS, res
    raise NumericalError("Newton did not converge")


def _collapsed_predictor(order, targets, total):
    """Asymptotic free zeros near the collapsed state.

    For small targets, ``B`` behaves like the polynomial ``p`` with
    ``p'(z) = (m+1) z^order prod (z - c_i)^{k_i}`` and ``p(0) = 0``; the
    nonzero roots of ``p`` start the first Newton correction (the labeled
    Jacobian is singular at the exactly collapsed state, so the solver never
    starts there).  The root of ``p`` at 0, of order ``order + 1``, is exact
    and comes last.
    """
    points = [c for c, k in targets for _ in range(k)]
    p = antiderivative([total + 1.0] + [0.0] * order, points)
    return polynomial_roots(p)[: -(order + 1)]


def solve_maximal(
    C: CriticalSet, cfg: HomotopyConfig | None = None
) -> SolveReport:
    """Compute the maximal Blaschke product with critical set ``C``.

    The solve follows the radial path ``C(t) = t * C`` from ``t = 0`` to 1.

    Parameters
    ----------
    C : CriticalSet
    cfg : HomotopyConfig, optional

    Returns
    -------
    SolveReport

    Raises
    ------
    NumericalError
        On homotopy breakdown (no predictor's Newton correction is accepted
        before the path step falls below ``2**-_STEP_HALVING_LIMIT / _STEPS``)
        or a failed critical-set round trip.
    """
    cfg = cfg or HomotopyConfig()
    m = C.total
    n_origin = C.origin_multiplicity + 1
    entries = C.nonzero_entries()
    n_free = m - (n_origin - 1)

    trace = []
    if n_free == 0:
        free = np.array([], dtype=complex)
        trace.append((1.0, 0.0, 0))
    else:
        free = None
        free_prev = None
        t = 0.0
        t_prev = 0.0
        dt = 1.0 / _STEPS
        while t < 1.0:
            t_next = min(1.0, t + dt)
            targets = [(t_next * c, k) for c, k in entries]
            # Predictors, in order of preference: secant extrapolation from
            # the last two accepted states, the last state unchanged, and --
            # early in the deformation, where the Jacobian is nearly
            # singular -- the collapsed-state asymptotic.
            candidates = []
            if free is not None:
                if free_prev is not None:
                    slope = (free - free_prev) / (t - t_prev)
                    candidates.append(free + slope * (t_next - t))
                candidates.append(free)
            if free is None or t_next <= 0.25:
                candidates.append(
                    _collapsed_predictor(n_origin - 1, targets, m)
                )
            accepted = None
            for predictor in candidates:
                if np.any(np.abs(predictor) >= 1.0):
                    continue  # escaped the disk: useless starting point
                scale = _q_coefficient_scale(
                    [0j] * n_origin + list(predictor)
                )
                try:
                    accepted = _newton(predictor, n_origin, targets, cfg, scale)
                except NumericalError:
                    continue
                break
            if accepted is None:
                dt *= 0.5
                if dt * _STEPS < 2.0 ** -_STEP_HALVING_LIMIT:
                    raise NumericalError(
                        f"homotopy breakdown near t = {t_next:.6f}"
                    )
                continue
            nxt, iters, res = accepted
            free_prev, t_prev = free, t
            free, t = nxt, t_next
            dt = min(2 * dt, 1.0 / _STEPS)
            trace.append((t, res, iters))

    g0 = complex(np.prod(-free)) if len(free) else 1.0 + 0j
    if abs(g0) == 0:
        raise NumericalError("degenerate solution: a free zero collapsed to 0")
    eta = np.conj(g0) / abs(g0)
    solution = FiniteBlaschke(zeros=(0j,) * n_origin + tuple(free), eta=eta)

    order = n_origin - 1
    functional = derivative_at_origin_order(solution, order)
    recovered = critical_points(solution)
    roundtrip = recovered.match(C)
    if roundtrip > cfg.roundtrip_tol:
        raise NumericalError(
            f"critical-set round trip off by {roundtrip:.3e}"
        )
    return SolveReport(
        solution=solution,
        residual_norm=trace[-1][1],
        roundtrip_error=roundtrip,
        functional_value=functional,
        homotopy_trace=trace,
    )


@dataclass
class TruncationResult:
    """Solves along nested prefixes of a point sequence.

    ``sup_differences[i]`` is the maximum modulus of ``B_i - B_{i+1}`` over
    the circle of radius 1/2 (which bounds the difference on the closed disk
    of that radius, both being holomorphic).
    """

    reports: list
    sup_differences: list

    @property
    def functionals(self):
        return [r.functional_value for r in self.reports]


def truncation_sequence(
    points, n_max: int, cfg: HomotopyConfig | None = None
) -> TruncationResult:
    """Solve for each prefix of ``points`` up to length ``n_max``.

    Functional values are verified non-increasing along the nesting (a larger
    prescribed critical set can only shrink the extremal derivative); a rise
    beyond rounding slack raises.
    """
    points = list(points)
    if n_max < 0:
        raise InputError("n_max must be nonnegative")
    if n_max > len(points):
        raise InputError("n_max exceeds the number of supplied points")
    reports = []
    for n in range(n_max + 1):
        reports.append(solve_maximal(CriticalSet.from_points(points[:n]), cfg))
    for a, b in zip(reports, reports[1:]):
        if b.functional_value > a.functional_value + 1e-10:
            raise NumericalError(
                "functional increased along a nested prefix"
            )
    ring = 0.5 * np.exp(2j * np.pi * np.arange(1024) / 1024)
    sups = []
    for a, b in zip(reports, reports[1:]):
        sups.append(
            float(np.max(np.abs(evaluate(a.solution, ring) - evaluate(b.solution, ring))))
        )
    return TruncationResult(reports=reports, sup_differences=sups)


@dataclass
class TransplantResult:
    """Maximal product for a critical set living in a mapped domain.

    The extremal for the domain is ``B o psi`` where ``psi`` maps the domain
    onto the unit disk and ``B`` solves the transported critical set.
    """

    report: SolveReport
    map_spec: RiemannMapSpec
    disk_critical_set: CriticalSet

    def __call__(self, z):
        return evaluate(self.report.solution, self.map_spec(z))

    def derivative(self, z):
        inner = derivative(self.report.solution, self.map_spec(z))
        return inner * self.map_spec.derivative(z)

    def domain_critical_points(self):
        """Critical points of the composite, expressed in the domain."""
        recovered = critical_points(self.report.solution)
        return [(self.map_spec.invert(p), m) for p, m in recovered.entries]


def transplant(
    domain_points, spec: RiemannMapSpec, cfg: HomotopyConfig | None = None
) -> TransplantResult:
    """Solve the extremal problem for critical points in a mapped domain."""
    images = [spec(p) for p in domain_points]
    disk_set = CriticalSet.from_points(images)
    report = solve_maximal(disk_set, cfg)
    return TransplantResult(
        report=report, map_spec=spec, disk_critical_set=disk_set
    )
