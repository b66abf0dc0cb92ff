"""Homotopy solver for maximal Blaschke products with prescribed critical sets.

Given a critical set ``C`` of total mass ``m`` containing 0 with multiplicity
``N``, the extremal product has degree ``m + 1`` and the form

    B(z) = eta * z^(N+1) * prod_k (z - b_k) / (1 - conj(b_k) z),

so the unknowns are the ``m - N`` free zeros ``b_k``.  The defining equations
say the critical numerator polynomial ``Q`` vanishes at each prescribed
nonzero point to its multiplicity.  The solver follows the path ``C(t) = t C``
from the collapsed state ``B_0 = z^(m+1)`` at ``t = 0``.  Each step has one
predictor, the last free zeros moved along a slope: first the tangent of the
collapsed asymptotic, computed once, then the secant through the last
accepted step.  A damped Newton iteration corrects it, measuring each
residual row against the sum of the moduli of its terms and stopping once
the largest such ratio is within ``newton_tol``.  The first step tries
``t = 1`` directly; each accepted step doubles the step, up to what is left
of the path, and a predictor that leaves the disk or a failed correction
halves it until it falls below ``_MIN_STEP``, where the solve raises.  A
finite critical set has one extremal product (Heins), so a long step has no
other branch to land on.  On the step that ends at ``t = 1``, the converged
iterate gets one more Newton correction, so the product's accuracy does not
depend on the path taken to it; where ``k + 1`` free zeros then sit on a
``k``-fold target, they are set onto it exactly.  ``Q``
and its derivatives with respect to ``b_k`` and ``conj(b_k)`` are short
Taylor jets at the targets, all targets at once, built in factored form by
one forward and one backward scan over the zeros.  Each Newton iterate is
scanned once: the forward scan gives the residual, which is all the
convergence test and the line search need, and when a step is taken the
Jacobian reuses that scan's prefix pairs and adds only the backward scan.
What a path step's targets and origin zeros fix is set up once per step.
The conjugate-linear structure is handled by assembling the real
``2(m-N)``-dimensional system.  The unimodular factor is set last so that
``B^(N+1)(0) > 0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .blaschke import (
    CriticalSet,
    FiniteBlaschke,
    _jet_mul,
    antiderivative,
    critical_points,
    derivative,
    derivative_at_origin_order,
    evaluate,
)
from .disk import RiemannMapSpec
from .errors import (
    InputError, NumericalError, _index, _items, _number, _positive,
)


#: Newton iterations allowed per path step.
_MAX_NEWTON_ITERS = 50
#: Smallest path step; a failure below it raises "homotopy breakdown".
_MIN_STEP = 2.0 ** -13


@dataclass(frozen=True)
class HomotopyConfig:
    """Tolerances of the path-following solve."""

    newton_tol: float = 1e-12
    roundtrip_tol: float = 1e-8

    def __post_init__(self):
        # a NaN tolerance would pass any residual or switch the round-trip
        # check off
        for f in fields(self):
            value = _positive(getattr(self, f.name), f.name)
            object.__setattr__(self, f.name, value)


@dataclass
class SolveReport:
    """Outcome of a solve: the product plus convergence diagnostics.

    ``homotopy_trace`` holds one ``(t, residual, newton_iters)`` triple per
    accepted path step, often a single one at ``t = 1``, and the last
    step's count includes the endpoint polish when it was kept;
    ``residual_norm`` is the final largest ratio of a critical-numerator
    condition to the sum of the moduli of its terms;
    ``roundtrip_error`` is the largest pseudo-hyperbolic distance
    between the requested critical set and the one recovered from the
    solution.
    """

    solution: FiniteBlaschke
    residual_norm: float
    roundtrip_error: float
    functional_value: float
    homotopy_trace: list = field(default_factory=list)


class _Conditions:
    """The conditions of one path step and their Wirtinger derivatives.

    With ``P_j(z) = (z - a_j)(1 - conj(a_j) z)`` and ``w_j = 1 - |a_j|^2``
    over all zeros ``a_j`` (the ``n_origin`` ones at 0 first), the critical
    numerator is ``Q = sum_k w_k prod_{j != k} P_j``.  The residual stacks
    the Taylor coefficients ``0..k-1`` of ``Q`` at every target ``(c, k)``;
    the blocks ``A``, ``Bm`` hold their derivatives with respect to each
    free zero ``b`` and ``conj(b)``.

    Jets at all targets are stacked and padded to the largest multiplicity,
    then scanned over the zeros carrying pairs ``(prod P, weighted
    leave-one-out sum)`` as one array with a leading axis of 2, combined as
    ``(p_a, s_a)(p_b, s_b) = (p_a p_b, s_a p_b + p_a s_b)``: one jet product
    per zero, then ``w p`` added to the sum half.  The targets and the pair
    after the origin zeros, which no free zero touches, are set up once per
    path step.  :meth:`scan` runs the forward scan of an iterate from that
    pair, building factor jets for the free zeros only: its last pair gives
    ``Q``, and it returns its prefix pairs with it.
    :meth:`jacobian` takes those pairs and runs only the backward scan:
    ``u_l = prod_{j != l} P_j`` and ``S_l = sum_{k != l} w_k prod_{j not in
    {k, l}} P_j`` come from the prefix before ``l`` and the suffix after it,
    and ``dQ/db_l = -conj(b_l) u_l - (1 - conj(b_l) z) S_l``,
    ``dQ/dconj(b_l) = -b_l u_l - (z - b_l) z S_l``.  So an iterate costs
    O(d) vectorized jet products and no factor is ever divided out.
    :meth:`bound` runs the forward scan on the moduli of the jets, which
    gives each row the sum of the moduli of its terms.
    """

    def __init__(self, n_origin, targets):
        self.c = np.array([t for t, _ in targets], dtype=complex)
        ks = np.array([k for _, k in targets])
        self.rows_t = np.repeat(np.arange(len(ks)), ks)
        self.rows_j = np.concatenate([np.arange(k) for k in ks])
        self.K1 = int(ks.max())
        self.one = np.zeros((len(self.c), self.K1), dtype=complex)
        self.one[:, 0] = 1.0
        pair = np.stack([self.one, np.zeros_like(self.one)])
        P, w = self._factors(np.zeros((n_origin, 1), dtype=complex))
        for l in range(n_origin):
            pair = self._step(pair, P[l], w[l])
        self.origin = pair

    def _factors(self, a):
        """Jets of ``P_j`` and weights ``w_j`` of the zeros ``a`` (a column)."""
        # c as a (1, T) row: numpy multiplies a (1, 1) and a (1,) complex
        # array with its scalar kernel, which rounds unlike the array kernel
        # of every larger shape; as a row, one zero against one target
        # stays on the array kernel
        c, K1 = self.c[None, :], self.K1
        ac = np.conj(a)
        P = np.zeros((len(a), len(self.c), K1), dtype=complex)
        P[..., 0] = (c - a) * (1 - ac * c)
        if K1 > 1:
            P[..., 1] = 1 - 2 * ac * c + np.abs(a) ** 2
        if K1 > 2:
            P[..., 2] = -ac
        return P, (1.0 - np.abs(a) ** 2)[..., None]

    @staticmethod
    def _step(pair, Pl, wl):
        """The pair after one more zero: ``(p P, s P + w p)``."""
        out = _jet_mul(pair, Pl)
        out[1] += wl * pair[0]
        return out

    def scan(self, free):
        """Residual of the iterate ``free`` and its forward scan."""
        b = free[:, None]
        P, w = self._factors(b)
        pre = np.empty((len(free) + 1,) + self.origin.shape, dtype=complex)
        pre[0] = self.origin
        for i in range(len(free)):
            pre[i + 1] = self._step(pre[i], P[i], w[i])
        return pre[-1, 1][self.rows_t, self.rows_j], (b, P, w, pre)

    def bound(self, free):
        """Each residual row's sum of the moduli of its terms at ``free``:
        the forward scan on ``|P|`` jets, from ``|origin|``."""
        P, w = self._factors(free[:, None])
        P, pair = np.abs(P), np.abs(self.origin)
        for i in range(len(free)):
            pair = self._step(pair, P[i], w[i])
        return pair[1][self.rows_t, self.rows_j]

    def jacobian(self, scan):
        """Blocks ``A``, ``Bm`` at the iterate whose forward scan is ``scan``."""
        b, P, w, pre = scan
        c, K1 = self.c, self.K1
        n = len(b)
        suf = np.empty_like(pre)
        suf[n, 0], suf[n, 1] = self.one, 0.0
        for i in range(n - 1, 0, -1):
            # the new factor comes first in the product, as the suffix grows
            # to the left; swapping the operands would change the rounding
            out = _jet_mul(P[i], suf[i + 1])
            out[1] += w[i] * suf[i + 1, 0]
            suf[i] = out
        sp, ss = suf[1:, 0], suf[1:, 1]
        us = _jet_mul(pre[:-1], sp[:, None])
        u, S = us[:, 0], us[:, 1] + _jet_mul(pre[:-1, 0], ss)
        bc = np.conj(b)
        lq = np.zeros((2, n, len(c), K1), dtype=complex)
        lq[0, ..., 0] = 1 - bc * c
        lq[1, ..., 0] = (c - b) * c
        if K1 > 1:
            lq[0, ..., 1] = -bc
            lq[1, ..., 1] = 2 * c - b
        if K1 > 2:
            lq[1, ..., 2] = 1.0
        dq = -np.stack([bc, b])[..., None] * u - _jet_mul(lq, S)
        dq = dq[:, :, self.rows_t, self.rows_j]
        return dq[0].T, dq[1].T


def _newton(free, conditions, cfg, polish=False):
    """Damped Newton on the free zeros; returns (free, iters, residual).

    Each residual row is measured against its own sum of the moduli of its
    terms at the start, ``conditions.bound(free)`` (the componentwise
    residual of Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., 5.1), and the rows of the Jacobian with it.  It stops once the
    largest such ratio is ``<= cfg.newton_tol``; a bound with no finite
    nonzero reciprocal (it underflows at small ``t`` for large sets)
    raises ``NumericalError``.  With ``polish``, the converged iterate gets
    one more correction, kept only if the line search accepts it.

    Each iterate is scanned once: the convergence test and every damping
    trial run the forward scan alone, and the scan of the accepted iterate
    (the start, or the trial that won) carries into the next iteration,
    where the Jacobian reuses it and runs only the backward scan.
    """
    n = len(free)
    J = np.empty((2 * n, 2 * n))
    bound = conditions.bound(free)
    if not (bound.min() >= np.finfo(float).tiny and bound.max() < np.inf):
        raise NumericalError("residual bound out of double range")
    inv = 1.0 / bound
    R, scan = conditions.scan(free)
    R *= inv
    converged = None
    for it in range(1, _MAX_NEWTON_ITERS + 1):
        res = float(np.max(np.abs(R)))
        if res <= cfg.newton_tol:
            if converged or not polish:
                return free, it, res
            converged = free, it, res
        A, Bm = conditions.jacobian(scan)
        A *= inv[:, None]
        Bm *= inv[:, None]
        ApB, AmB = A + Bm, A - Bm
        J[:n, :n], J[:n, n:] = ApB.real, -AmB.imag
        J[n:, :n], J[n:, n:] = ApB.imag, AmB.real
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
            Rt, st = conditions.scan(trial)
            Rt *= inv
            if np.max(np.abs(Rt)) <= (1 - 0.25 * alpha) * res:
                free, R, scan = trial, Rt, st
                break
        else:
            if converged:
                return converged
            raise NumericalError("Newton step rejected (no admissible damping)")
    res = float(np.max(np.abs(R)))
    if res <= cfg.newton_tol:
        return free, _MAX_NEWTON_ITERS, res
    raise NumericalError("Newton did not converge")


def _snap(free, conditions, entries, cfg):
    """The converged free zeros, with exact collisions on targets made exact.

    The extremal product is unique (Heins), so where ``k + 1`` free zeros
    converge onto a ``k``-fold target ``c`` it has a ``(k + 1)``-fold zero
    at ``c``.  Newton cannot resolve that meeting, since the Jacobian is
    singular there, and leaves the zeros split by about ``newton_tol **
    (1 / (k + 1))``.  When exactly ``k + 1`` free zeros lie that close to
    ``c`` they are set to ``c``.  The snap is kept only if each residual row
    at the snapped zeros stays within ``newton_tol`` of its bound at the
    unsnapped ones (the snapped rows' own bound is 0).
    """
    snapped = free.copy()
    for c, k in entries:
        near = np.abs(free - c) <= cfg.newton_tol ** (1 / (k + 1))
        if np.count_nonzero(near) == k + 1:
            snapped[near] = c
    if np.array_equal(snapped, free):
        return free
    R, _ = conditions.scan(snapped)
    if np.all(np.abs(R) <= cfg.newton_tol * conditions.bound(free)):
        return snapped
    return free


def _collapsed_predictor(order, targets, total):
    """Tangent of the free zeros at the collapsed state.

    For small targets, ``B`` behaves like the polynomial ``p`` with
    ``p'(z) = (m+1) z^order prod (z - c_i)^{k_i}`` and ``p(0) = 0``.  For
    the targets ``t c_i``, ``p(t w) = t^(m+1) p_1(w)`` with ``p_1`` built on
    the ``c_i``, so the nonzero roots of ``p`` are ``t`` times those of
    ``p_1``: computed once on the unscaled targets, they are the slope that
    starts the path (the labeled Jacobian is singular at the exactly
    collapsed state, so the solver never corrects there).  The roots are
    the companion eigenvalues of ``np.roots``, unpolished, since Newton
    corrects the predicted zeros anyway; ``p`` has an exact root of order
    ``order + 1`` at 0, which ``np.roots`` returns exactly and last.
    """
    points = [c for c, k in targets for _ in range(k)]
    p = antiderivative([total + 1.0] + [0.0] * order, points)
    return np.roots(p)[: -(order + 1)]


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
        On homotopy breakdown (the path step falls below ``_MIN_STEP`` with
        the predictor still leaving the disk or its Newton correction still
        failing) or a failed critical-set round trip.
    """
    cfg = cfg or HomotopyConfig()
    m = C.total
    n_origin = C.origin_multiplicity + 1
    entries = C.nonzero_entries()
    n_free = m - (n_origin - 1)

    trace = []
    free = np.zeros(n_free, dtype=complex)
    if n_free == 0:
        trace.append((1.0, 0.0, 0))
    else:
        # p(tw) = t^(m+1) p_1(w): the collapsed free zeros at t are t times
        # p_1's, so the path leaves t = 0 along that tangent; each accepted
        # step replaces it by the secant through that step.
        slope = _collapsed_predictor(n_origin - 1, entries, m)
        t = 0.0
        dt = 1.0
        while t < 1.0:
            t_next = min(1.0, t + dt)
            predictor = free + slope * (t_next - t)
            accepted = None
            if np.all(np.abs(predictor) < 1.0):
                targets = [(t_next * c, k) for c, k in entries]
                conditions = _Conditions(n_origin, targets)
                try:
                    accepted = _newton(predictor, conditions, cfg,
                                       polish=t_next == 1.0)
                except NumericalError:
                    pass
            if accepted is None:
                dt *= 0.5
                if dt < _MIN_STEP:
                    raise NumericalError(
                        f"homotopy breakdown near t = {t_next:.6f}"
                    )
                continue
            nxt, iters, res = accepted
            slope = (nxt - free) / (t_next - t)
            free, t = nxt, t_next
            dt = min(2 * dt, 1.0 - t)
            trace.append((t, res, iters))
        # the loop ends on the step accepted at t = 1, whose conditions
        # these are
        free = _snap(free, conditions, entries, cfg)

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

    A larger prescribed critical set can only shrink the extremal derivative,
    so the functionals should not increase along the nesting; they are
    returned as solved, a rise included, and judging them is the caller's
    (the CLI's ``converge`` report flags a rise above 1e-12).
    """
    points = _items(points, "points")
    n_max = _index(n_max, "n_max")
    if n_max < 0:
        raise InputError("n_max must be nonnegative")
    if n_max > len(points):
        raise InputError("n_max exceeds the number of supplied points")
    reports = []
    for n in range(n_max + 1):
        reports.append(solve_maximal(CriticalSet.from_points(points[:n]), cfg))
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
    images = [spec(_number(p, "domain point"))
              for p in _items(domain_points, "domain points")]
    disk_set = CriticalSet.from_points(images)
    report = solve_maximal(disk_set, cfg)
    return TransplantResult(
        report=report, map_spec=spec, disk_critical_set=disk_set
    )
