"""Deterministic Skorokhod problem for step inputs.

Given a step input y with y_0 in the domain closure, solve_step produces the
pair (x, k) with x + k = y, x living in the domain closure, the continuous
part of k selected from A(x) dt (realized by the constant-input flow between
grid points), and post-jump states given by the generalized projection:
x_t = Pi(x_{t-} + dy_t) wherever k jumps.

``_sp_step`` is the one step kernel of ``solve_steps`` and of the Euler
scheme in ``schemes``: ``solve_steps`` marches it along one grid, all its
paths at once (one path binds its flow once per step length and its projection
once), and ``schemes._run_chunk`` along the rows of a chunk.  A step returns (x_pre,
x_new), and a march keeps just those; a caller that reads k forms it after the march (``_k``).

The module also ships the closed-form reflection map on the half-line
[0, inf) (the classical running-maximum formula) used as an independent
oracle, a verifier that checks a solution against the defining conditions,
and the two-solution comparison inequalities used as property tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainViolationError
from .operators import (DEFAULT_DOMAIN_TOL, MonotoneOperator, _bound_flows, _flow_kernel,
                        _flow_schedule, flow_steps, row_norm)
from .paths import BVDecomposition, Partition, StepPath
from .projections import Projection

__all__ = [
    "SkorokhodSolution",
    "solve_step",
    "solve_steps",
    "reflect_halfline_oracle",
    "SolutionReport",
    "verify_solution",
    "PairReport",
    "pair_inequality_report",
    "DEFAULT_FLOW_SUBSTEPS",
]

# Flow error is first order in (interval length)/substeps, subordinate to the
# scheme error at default meshes.
DEFAULT_FLOW_SUBSTEPS = 16


@dataclass(frozen=True, eq=False)
class SkorokhodSolution:
    """Solution pair (x, k) of the Skorokhod problem for a step input.

    ``x_pre`` holds the left limits of x at the grid times (the flow
    endpoint before the jump correction); ``x_pre[0] = x_0``.  ``k`` is split
    into the within-interval flow accumulation (continuous part) and the
    projection corrections at grid points (jump part).
    """

    x: StepPath
    k: BVDecomposition
    y: StepPath
    x_pre: np.ndarray
    flow_substeps: int


def _sp_step(op: MonotoneOperator, proj, flow, prev: np.ndarray, dy: np.ndarray, dt):
    """One grid step: flow over dt from ``prev`` with the unchecked kernel
    ``flow`` (``operators._flow_kernel``), then project the flow's end plus
    dy.  Returns (x_left, xi), the left limit and the new value; ``prev`` may
    be a chunk of rows (B, d), with one dt per row."""
    x_left = flow(prev, dt)
    return x_left, np.asarray(proj(op, x_left + dy), dtype=float)


def _k(grid: Partition, x: np.ndarray, x_pre: np.ndarray, dy: np.ndarray,
       drift: bool = False) -> BVDecomposition:
    """k on ``grid`` from the marched x and x_pre and the input increments dy.

    Its increments at t_j are the step's own differences of its own operands,
    bit for bit: after ``_sp_step``, the flow x_{j-1} - x_pre_j and the jump
    (x_pre_j + dy_j) - x_j; after a Yosida step (``drift``), whose x_pre_j is
    the state before the drift, the jump (x_{j-1} + dy_j) - x_pre_j, exactly
    0 where no projection moved it, and the drift x_pre_j - x_j.  Each part
    is summed by ``np.cumsum``, which adds row by row in order.
    """
    dkc, dkd = np.zeros_like(x), np.zeros_like(x)
    dkc[1:], dkd[1:] = ((x_pre[1:] - x[1:], (x[:-1] + dy[1:]) - x_pre[1:]) if drift
                        else (x[:-1] - x_pre[1:], (x_pre[1:] + dy[1:]) - x[1:]))
    kc, kd = np.cumsum(dkc, axis=0), np.cumsum(dkd, axis=0)
    # total = continuous + jump bitwise; additivity to y holds to rounding
    return BVDecomposition(total=StepPath(grid, kc + kd), continuous=StepPath(grid, kc),
                           jump=StepPath(grid, kd))


def solve_steps(op: MonotoneOperator, proj: Projection, ys,
                flow_substeps: int = DEFAULT_FLOW_SUBSTEPS) -> list[SkorokhodSolution]:
    """Solve the Skorokhod problem for step inputs on one grid, marched together.

    Returns one solution per path, each its ``solve_step`` bit for bit.  One path
    marches points, its flow bound per float dt (``_bound_flows``) and its projection
    once (``Projection.bind``); B > 1 paths (B, d) rows with one dt per row, where each
    resolvent and projection gives row i the bits of its point call (a float dt on a
    linear batch would be a matrix product).  An error names a path of B > 1 by index,
    and a state that is not finite after the march names its first step.
    """
    ys = list(ys)
    grid, one = ys[0].partition, len(ys) == 1
    dy = []
    for i, y in enumerate(ys):
        path = "" if one else f"path {i}: "
        if y.dimension != op.dimension:
            raise ValueError(f"{path}input dimension does not match the operator")
        if not y.partition.same_times(grid):
            raise ValueError(f"{path}the input paths must share one grid")
        if (dist := op.domain_distance(y.values[0])) > DEFAULT_DOMAIN_TOL:
            raise DomainViolationError(f"{path}y_0 outside the domain closure "
                                       f"(distance {dist:.3e})", point=y.values[0], distance=dist)
        with np.errstate(over="ignore"):  # a jump between two finite values may overflow
            dy.append(y.jumps())
        if not np.isfinite(dy[i]).all():
            j = int(np.argmin(np.isfinite(dy[i]).all(axis=1)))
            raise ValueError(f"{path}the input increment at step {j} "
                             f"(t = {float(grid.times[j])!r}) is not finite")
    steps = np.diff(grid.times)
    _flow_schedule(op, steps, flow_substeps)  # every step, once
    if one:  # the states gathered in lists and stacked once
        bound = _bound_flows(op, flow_substeps)
        project, x, x_pre = proj.bind(op), [ys[0].values[0]], [ys[0].values[0]]
        for dt, dy_j in zip(steps.tolist(), dy[0][1:]):
            x_pre.append(bound(dt)(x[-1]))
            x.append(project(x_pre[-1] + dy_j))
        x, x_pre, dy = np.array(x)[None], np.array(x_pre)[None], dy[0][None]
    else:
        flow = _flow_kernel(op, flow_substeps)
        dy = np.stack(dy, axis=1)  # (n, B, d), as x and x_pre
        x, x_pre = np.empty(dy.shape), np.empty(dy.shape)
        x[0] = x_pre[0] = [y.values[0] for y in ys]
        dts, prev = [np.full(len(ys), t) for t in steps], x[0]
        for j, (dt, dy_j) in enumerate(zip(dts, dy[1:]), 1):  # prev is the step before's xi
            x_pre[j], prev = _sp_step(op, proj, flow, prev, dy_j, dt)
            x[j] = prev
        x, x_pre, dy = (np.ascontiguousarray(np.swapaxes(a, 0, 1)) for a in (x, x_pre, dy))
    if not np.isfinite(x).all():  # a state that overflowed, at its first step
        b, j = np.argwhere(~np.isfinite(x).all(axis=2))[0].tolist()
        raise ValueError(f"{'' if one else f'path {b}: '}the state at step {j} "
                         f"(t = {float(grid.times[j])!r}) is not finite")
    return [SkorokhodSolution(x=StepPath(y.partition, x[b]),
                              k=_k(y.partition, x[b], x_pre[b], dy[b]), y=y, x_pre=x_pre[b],
                              flow_substeps=flow_substeps) for b, y in enumerate(ys)]


def solve_step(op: MonotoneOperator, proj: Projection, y: StepPath,
               flow_substeps: int = DEFAULT_FLOW_SUBSTEPS) -> SkorokhodSolution:
    """Solve the Skorokhod problem for a step input (``solve_steps`` of one path).

    On [0, t_1) the state follows the constant-input flow from y_0; at each
    later grid point the flow endpoint is corrected by the projection of
    x_{t-} + dy_t, then the flow restarts for the next interval.  y_0 must
    lie in the domain closure within ``DEFAULT_DOMAIN_TOL``.
    """
    return solve_steps(op, proj, [y], flow_substeps)[0]


def reflect_halfline_oracle(y: StepPath) -> SkorokhodSolution:
    """Exact reflection on [0, inf): x_t = y_t + max(0, sup_{s<=t} (-y_s)).

    Valid for the normal cone of [0, inf) with the classical projection and
    one-dimensional step inputs with y_0 >= 0.  The flow is stationary on the
    half-line, so k is pure jump and the formula is exact.
    """
    if y.dimension != 1:
        raise ValueError("the half-line reflection map is one-dimensional")
    vals = y.values[:, 0]
    if vals[0] < 0:
        raise ValueError("the half-line reflection map needs y_0 >= 0")
    pushed = np.maximum.accumulate(np.maximum(-vals, 0.0))
    x_vals = vals + pushed
    k_total = StepPath(y.partition, -pushed)
    zero = StepPath(y.partition, np.zeros_like(y.values))
    x_pre = np.concatenate([x_vals[:1], x_vals[:-1]])[:, None]
    return SkorokhodSolution(x=StepPath(y.partition, x_vals),
                             k=BVDecomposition(total=k_total, continuous=zero, jump=k_total),
                             y=y, x_pre=x_pre, flow_substeps=1)


def _min_subarray_sum(terms) -> float:
    """Smallest sum over a contiguous nonempty range (0.0 for empty input).

    Kadane's scan, with the comparisons of ``min`` written out (a NaN term
    propagates, and a tie keeps the earlier value, as ``min`` does)."""
    best = running = 0.0
    for v in terms:
        s = running + v
        running = s if s < v else v
        if running < best:
            best = running
    return best


def _flow_states(op: MonotoneOperator, x: np.ndarray, times: np.ndarray, substeps: int):
    """The flow over every interval [t_{j-1}, t_j] from x_{j-1}, one power
    call for all (``flow_steps``' batch form): the steps (n - 1,) and the
    states (n - 1, m + 1, d), each interval's start and then its m states."""
    steps = flow_steps(op, x[:-1], np.diff(times), substeps)
    return steps[0][0], np.stack([x[:-1], *(state for _, state in steps)], axis=1)


@dataclass
class SolutionReport:
    """Residuals of a solution against the defining conditions."""

    additivity_residual: float
    jump_condition_residual: float
    jump_bound_margin: float  # min over grid of 2|dy| - |dk_jump|; >= 0 required
    monotonicity_worst: float  # min sub-interval Stieltjes sum over all pairs
    k0_residual: float
    tolerance: float
    passed: bool
    failures: list[str] = field(default_factory=list)


def verify_solution(op: MonotoneOperator, proj: Projection, sol: SkorokhodSolution,
                    test_pairs=(), tol: float = 1e-9) -> SolutionReport:
    """Check a solution pair against the defining conditions.

    - additivity x + k = y at every grid point,
    - k_0 = 0,
    - jump condition x_t = Pi(x_{t-} + dy_t) wherever k jumps,
    - |dk_t| <= 2 |dy_t| at every grid point (jump part of k),
    - for every (alpha, beta) with beta in A(alpha): the Riemann-Stieltjes
      sum of <x - alpha, dk^c - beta dt> is >= -tol over every sub-interval.
      The sum is evaluated at the flow's own substeps, where each term is
      nonnegative by monotonicity up to rounding.

    The flow of every interval is one batch (``_flow_states``): one power
    call on the (n - 1, d) interval starts, and the terms of every pair,
    interval and substep are one ``np.vecdot``, so the check holds
    O(pairs x intervals x substeps x d) floats at once.  Each pair's terms
    are scanned in the order of time, as the per-interval loop laid them out.

    Failures are collected in the report rather than raised.
    """
    y = sol.y
    times = y.partition.times
    failures: list[str] = []

    add = float(np.max(np.linalg.norm(sol.x.values + sol.k.total.values - y.values, axis=1)))
    if add > tol:
        failures.append(f"additivity residual {add:.3e}")

    k0 = float(np.linalg.norm(sol.k.total.values[0]))
    if k0 != 0.0:
        failures.append(f"k_0 = {k0:.3e} != 0")

    dy = y.jumps()
    dkd_norm = row_norm(sol.k.jump.jumps())
    bound_margin = float(np.min(2.0 * row_norm(dy[1:]) - dkd_norm[1:], initial=np.inf))
    # one batched projection for every step where k jumps
    jumps = np.flatnonzero(dkd_norm[1:] > 0.0) + 1
    target = np.asarray(proj(op, sol.x_pre[jumps] + dy[jumps]), dtype=float)
    jump_res = float(np.max(row_norm(sol.x.values[jumps] - target), initial=0.0))
    if jump_res > tol:
        failures.append(f"jump condition residual {jump_res:.3e}")
    if bound_margin < 0.0:
        failures.append(f"|dk| <= 2|dy| violated by {-bound_margin:.3e}")

    mono_worst = 0.0
    if len(test_pairs):
        alphas = np.array([np.atleast_1d(np.asarray(a, dtype=float)) for a, _ in test_pairs])
        betas = np.array([np.atleast_1d(np.asarray(b, dtype=float)) for _, b in test_pairs])
        # every interval's flow is computed once and checked against every pair
        lam, states = _flow_states(op, sol.x.values, times, sol.flow_substeps)
        cur, nxt, lam = states[:, :-1], states[:, 1:], lam[:, None, None]
        # (cur - nxt)/lam is an element of A(nxt), one term per flow step;
        # terms (pairs, intervals, m), each pair's row in the order of time
        terms = np.vecdot(nxt - alphas[:, None, None], (cur - nxt) - lam * betas[:, None, None])
        for row in terms.reshape(len(alphas), -1):
            mono_worst = min(mono_worst, _min_subarray_sum(row.tolist()))
    if mono_worst < -tol:
        failures.append(f"monotonicity sum {mono_worst:.3e} below -{tol:.1e}")

    return SolutionReport(additivity_residual=add, jump_condition_residual=jump_res,
                          jump_bound_margin=float(bound_margin), monotonicity_worst=mono_worst,
                          k0_residual=k0, tolerance=tol, passed=not failures, failures=failures)


@dataclass
class PairReport:
    """Comparison inequalities for two solutions driven by inputs on one grid.

    ``worst_bracket`` is the smallest contiguous-range sum of the terms
    <x - x', d(k - k')> + jump quadratic corrections; ``worst_distance_slack``
    is the smallest value of |y_t - y'_t|^2 - 2 S(t) - |x_t - x'_t|^2 where
    S(t) accumulates <(y_t - y'_t) - (y_s - y'_s), d(k - k')_s>.  Both are
    nonnegative up to rounding for true solution pairs.
    """

    worst_bracket: float
    worst_distance_slack: float


def pair_inequality_report(op: MonotoneOperator, a: SkorokhodSolution,
                           b: SkorokhodSolution) -> PairReport:
    """The comparison inequalities of two solutions on one grid (``PairReport``).

    The events of the grid are, for each interval, its m flow steps and then
    the jump at its right end.  Each solution's flow is one batch over all
    its intervals (``_flow_states``), the terms of every event are array
    operations on (n - 1, m + 1) events, so the report holds
    O(intervals x substeps x d) floats at once, and the running sums v and
    w are sequential ``np.cumsum`` over the events in the order of time.
    """
    if not a.y.partition.same_times(b.y.partition):
        raise ValueError("solutions must share one grid")
    # substep counts must agree so the two flows pair event by event;
    # projection-resolvent operators always take one step regardless
    if not op.projection_resolvent and a.flow_substeps != b.flow_substeps:
        raise ValueError("solutions must share the flow substep count")
    times = a.y.partition.times
    xa, xb = a.x.values, b.x.values
    _, pa = _flow_states(op, xa, times, a.flow_substeps)
    _, pb = _flow_states(op, xb, times, b.flow_substeps)
    # the events of interval j: its m flow steps, then the jump at t_j
    dv_flow = (pa[:, :-1] - pa[:, 1:]) - (pb[:, :-1] - pb[:, 1:])
    dv_jump = (((pa[:, -1] + np.diff(a.y.values, axis=0)) - xa[1:])
               - ((pb[:, -1] + np.diff(b.y.values, axis=0)) - xb[1:]))
    gap, y_gap = xa[1:] - xb[1:], a.y.values - b.y.values
    # per event, (intervals, m + 1): the bracket term, and the increments of
    # v = k - k' and of w = sum <y_s - y'_s, dv_s>
    jump_bracket = np.vecdot(gap, dv_jump) + 0.5 * np.vecdot(dv_jump, dv_jump)
    bracket = np.concatenate([np.vecdot(pa[:, 1:] - pb[:, 1:], dv_flow), jump_bracket[:, None]],
                             axis=1)
    dv = np.concatenate([dv_flow, dv_jump[:, None]], axis=1)
    dw = np.concatenate([np.vecdot(y_gap[:-1, None], dv_flow),
                         np.vecdot(y_gap[1:], dv_jump)[:, None]], axis=1)
    # v and w are summed event by event from zero (a leading zero row, so
    # 0.0 + dv is the first sum); the squared-distance inequality reads them
    # after each jump, at every t_j
    v = np.cumsum(np.vstack([np.zeros(a.x.dimension), dv.reshape(-1, a.x.dimension)]), axis=0)
    w = np.cumsum(np.concatenate([[0.0], dw.reshape(-1)]))
    v, w = v[1:].reshape(dv.shape)[:, -1], w[1:].reshape(dw.shape)[:, -1]
    s2 = np.vecdot(y_gap[1:], v) - w
    slack = np.vecdot(y_gap[1:], y_gap[1:]) - 2.0 * s2 - np.vecdot(gap, gap)
    worst_slack = min([np.inf, *slack.tolist()])  # min's NaN and signed-zero ties

    if not np.isfinite(worst_slack):
        worst_slack = 0.0
    return PairReport(worst_bracket=_min_subarray_sum(bracket.reshape(-1).tolist()),
                      worst_distance_slack=float(worst_slack))
