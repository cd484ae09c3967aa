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
oracle, and two checkers used as property tests: ``verify_solution`` (the
defining conditions) and ``pair_inequality_report`` (the two-solution
comparison inequalities).  Each takes one solution or pair, or lists of them
on one grid, checked in one batched pass that gives each the report of its own call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainViolationError
from .operators import (DEFAULT_DOMAIN_TOL, MonotoneOperator, _bound_flows, _flow_kernel,
                        _flow_schedule, flow_steps, row_norm)
from .paths import BVDecomposition, StepPath
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


def _k(x: np.ndarray, x_pre: np.ndarray, dy: np.ndarray, drift: bool = False):
    """k's total, continuous and jump parts, from the marched x and x_pre and the
    input increments dy: (n, d) rows of one path or (B, n, d) of B paths.

    Its increments at t_j are the step's own differences of its own operands,
    bit for bit: after ``_sp_step``, the flow x_{j-1} - x_pre_j and the jump
    (x_pre_j + dy_j) - x_j; after a Yosida step (``drift``), whose x_pre_j is
    the state before the drift, the jump (x_{j-1} + dy_j) - x_pre_j, exactly
    0 where no projection moved it, and the drift x_pre_j - x_j.  Each part
    is summed by ``np.cumsum`` along the time axis, which adds row by row in order.
    """
    now, before = np.s_[..., 1:, :], np.s_[..., :-1, :]
    dkc, dkd = np.zeros_like(x), np.zeros_like(x)
    dkc[now], dkd[now] = ((x_pre[now] - x[now], (x[before] + dy[now]) - x_pre[now]) if drift
                          else (x[before] - x_pre[now], (x_pre[now] + dy[now]) - x[now]))
    kc, kd = np.cumsum(dkc, axis=-2), np.cumsum(dkd, axis=-2)
    # total = continuous + jump bitwise; additivity to y holds to rounding
    return kc + kd, kc, kd


def solve_steps(op: MonotoneOperator, proj: Projection, ys,
                flow_substeps: int = DEFAULT_FLOW_SUBSTEPS) -> list[SkorokhodSolution]:
    """Solve the Skorokhod problem for step inputs on one grid, marched together.

    Returns one solution per path, each its ``solve_step`` bit for bit.  One path
    marches points, its flow bound per float dt (``_bound_flows``) and its projection
    once (``Projection.bind``); B > 1 paths (B, d) rows with one dt per row, where each
    resolvent and projection gives row i the bits of its point call (a float dt on a
    linear batch would be a matrix product).  The inputs are checked, and k is formed,
    on the stacked (B, n, d) values.  An error names a path of B > 1 by index: the
    first path that fails, with its first failing check (dimension, grid, y_0 in the
    domain, finite increments); a state not finite after the march names its first step.
    """
    ys = list(ys)
    grid, one = ys[0].partition, len(ys) == 1
    path = (lambda b: "") if one else "path {}: ".format
    # the paths before the first of a wrong dimension or grid are checked stacked
    shaped = next((b for b, y in enumerate(ys) if y.dimension != op.dimension
                   or not y.partition.same_times(grid)), len(ys))
    if shaped:
        values = np.stack([y.values for y in ys[:shaped]])
        with np.errstate(over="ignore"):  # a jump between two finite values may overflow
            dy = np.diff(values, axis=1, prepend=values[:, :1])  # row 0: y_0 - y_0 = 0
        dist, finite = op.domain_distance(values[:, 0]), np.isfinite(dy).all(axis=2)
        if (bad := (dist > DEFAULT_DOMAIN_TOL) | ~finite.all(axis=1)).any():
            b = int(np.argmax(bad))
            if dist[b] > DEFAULT_DOMAIN_TOL:
                raise DomainViolationError(f"{path(b)}y_0 outside the domain closure (distance "
                                           f"{dist[b]:.3e})", point=values[b, 0], distance=dist[b])
            j = int(np.argmin(finite[b]))
            raise ValueError(f"{path(b)}the input increment at step {j} "
                             f"(t = {float(grid.times[j])!r}) is not finite")
    if shaped < len(ys):
        raise ValueError(path(shaped) + ("input dimension does not match the operator"
                                         if ys[shaped].dimension != op.dimension
                                         else "the input paths must share one grid"))
    steps = np.diff(grid.times)
    _flow_schedule(op, steps, flow_substeps)  # every step, once
    if one:  # the states gathered in lists and stacked once
        bound = _bound_flows(op, flow_substeps)
        project, x, x_pre = proj.bind(op), [values[0, 0]], [values[0, 0]]
        for dt, dy_j in zip(steps.tolist(), dy[0, 1:]):
            x_pre.append(bound(dt)(x[-1]))
            x.append(project(x_pre[-1] + dy_j))
        x, x_pre = np.array(x)[None], np.array(x_pre)[None]
    else:
        flow = _flow_kernel(op, flow_substeps)
        x, x_pre = np.empty((2, dy.shape[1], len(ys), op.dimension))  # (n, B, d)
        x[0] = x_pre[0] = values[:, 0]
        dts, prev = [np.full(len(ys), t) for t in steps], x[0]
        for j, dt in enumerate(dts, 1):  # prev is the step before's xi
            x_pre[j], prev = _sp_step(op, proj, flow, prev, dy[:, j], dt)
            x[j] = prev
        x, x_pre = (np.ascontiguousarray(np.swapaxes(a, 0, 1)) for a in (x, x_pre))
    if not np.isfinite(x).all():  # a state that overflowed, at its first step
        b, j = np.argwhere(~np.isfinite(x).all(axis=2))[0].tolist()
        raise ValueError(f"{path(b)}the state at step {j} "
                         f"(t = {float(grid.times[j])!r}) is not finite")
    k = _k(x, x_pre, dy)
    return [SkorokhodSolution(x=StepPath(y.partition, x[b]),
                              k=BVDecomposition(*(StepPath(y.partition, part[b]) for part in k)),
                              y=y, x_pre=x_pre[b], flow_substeps=flow_substeps)
            for b, y in enumerate(ys)]


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


def _batch(op: MonotoneOperator, sols) -> tuple[list, np.ndarray, int]:
    """A checker's solutions as a list, with the grid times and flow substep count they share."""
    sols = [sols] if isinstance(sols, SkorokhodSolution) else list(sols)
    if not all(s.y.partition.same_times(sols[0].y.partition) for s in sols):
        raise ValueError("solutions must share one grid")
    if not op.projection_resolvent and len({s.flow_substeps for s in sols}) > 1:
        raise ValueError("solutions must share the flow substep count")
    return sols, sols[0].y.partition.times, sols[0].flow_substeps


def _flow_states(op: MonotoneOperator, x: np.ndarray, times: np.ndarray, substeps: int):
    """The flow over every interval [t_{j-1}, t_j] from x_{j-1} of each path of x
    (B, n, d), one power call for all (``flow_steps``' batch form): the steps
    (B, n - 1) and the states (B, n - 1, m + 1, d), each start then its m states."""
    starts = x[:, :-1].reshape(-1, x.shape[2])
    steps = flow_steps(op, starts, np.tile(np.diff(times), len(x)), substeps)
    states = np.stack([starts, *(state for _, state in steps)], axis=1)
    return steps[0][0].reshape(len(x), -1), states.reshape(len(x), -1, *states.shape[1:])


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


def verify_solution(op: MonotoneOperator, proj: Projection, sols, test_pairs=(),
                    tol: float = 1e-9) -> SolutionReport | list[SolutionReport]:
    """Check solutions against the defining conditions.

    - additivity x + k = y at every grid point,
    - k_0 = 0,
    - jump condition x_t = Pi(x_{t-} + dy_t) wherever k jumps,
    - |dk_t| <= 2 |dy_t| at every grid point (jump part of k),
    - for every (alpha, beta) with beta in A(alpha): the Riemann-Stieltjes
      sum of <x - alpha, dk^c - beta dt> is >= -tol over every sub-interval.
      The sum is evaluated at the flow's own substeps, where each term is
      nonnegative by monotonicity up to rounding.

    ``sols`` is one solution, which gets one ``SolutionReport``, or a list of
    solutions on one grid with one flow substep count, which gets one report
    each, bit for bit its own.  A list is checked in one pass: each residual is
    one array operation over a leading solution axis, every jump row is
    projected in one call and every interval flows in one power call
    (``_flow_states``), so test pairs hold O(solutions x pairs x intervals x
    substeps x d) floats; each pair's terms are scanned per solution in time order.

    Failures are collected in the reports rather than raised.
    """
    one = isinstance(sols, SkorokhodSolution)
    sols, times, substeps = _batch(op, sols)
    x, x_pre, y, k, k_jump = (np.stack(a) for a in zip(*(
        (s.x.values, s.x_pre, s.y.values, s.k.total.values, s.k.jump.values) for s in sols)))
    add, k0 = np.max(np.linalg.norm(x + k - y, axis=2), axis=1), row_norm(k[:, 0])
    dy, dkd = (np.diff(a, axis=1, prepend=a[:, :1]) for a in (y, k_jump))  # row 0 is 0
    dkd_norm = row_norm(dkd)
    bound_margin = np.min(2.0 * row_norm(dy[:, 1:]) - dkd_norm[:, 1:], axis=1, initial=np.inf)
    # one batched projection for every step where k jumps (never t_0, where dk is 0)
    jumps, jump_res = dkd_norm > 0.0, np.zeros(dkd_norm.shape)
    jump_res[jumps] = row_norm(x[jumps] - proj(op, x_pre[jumps] + dy[jumps]))

    mono = [0.0] * len(sols)
    if len(test_pairs):
        alphas = np.array([np.atleast_1d(np.asarray(a, dtype=float)) for a, _ in test_pairs])
        betas = np.array([np.atleast_1d(np.asarray(b, dtype=float)) for _, b in test_pairs])
        # every interval's flow is computed once and checked against every pair
        lam, states = _flow_states(op, x, times, substeps)
        cur, nxt = states[:, None, :, :-1], states[:, None, :, 1:]
        # (cur - nxt)/lam is an element of A(nxt), one term per flow step; terms
        # (solutions, pairs, intervals, m), each pair's row in the order of time
        terms = np.vecdot(nxt - alphas[:, None, None],
                          (cur - nxt) - lam[:, None, :, None, None] * betas[:, None, None])
        mono = [min([0.0, *map(_min_subarray_sum, rows)])  # min(min(0.0, r_1), r_2) ...
                for rows in terms.reshape(*terms.shape[:2], -1).tolist()]

    reports = []  # each solution's residuals, in the report's field order
    for res in zip(add.tolist(), np.max(jump_res, axis=1).tolist(), bound_margin.tolist(), mono,
                   k0.tolist()):
        add_b, jump_b, margin, mono_b, k0_b = res
        failures = [msg for bad, msg in (
            (add_b > tol, f"additivity residual {add_b:.3e}"),
            (k0_b != 0.0, f"k_0 = {k0_b:.3e} != 0"),
            (jump_b > tol, f"jump condition residual {jump_b:.3e}"),
            (margin < 0.0, f"|dk| <= 2|dy| violated by {-margin:.3e}"),
            (mono_b < -tol, f"monotonicity sum {mono_b:.3e} below -{tol:.1e}")) if bad]
        reports.append(SolutionReport(*res, tolerance=tol, passed=not failures, failures=failures))
    return reports[0] if one else reports


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


def pair_inequality_report(op: MonotoneOperator, a, b) -> PairReport | list[PairReport]:
    """The comparison inequalities of two solutions on one grid (``PairReport``).

    ``a`` and ``b`` are two solutions, which get one report, or two lists of as
    many solutions on one grid with one flow substep count, whose pairs (a[i], b[i])
    get one report each, bit for bit its own.  The events of the grid are, for
    each interval, its m flow steps and then the jump at its right end.  Every
    interval of every solution flows in one batch (``_flow_states``), the terms
    are array operations on (pairs, n - 1, m + 1) events, so the reports hold
    O(pairs x intervals x substeps x d) floats, and the running sums v and w
    are sequential ``np.cumsum`` over each pair's events in the order of time.
    """
    one = isinstance(a, SkorokhodSolution)
    a, b = ([a], [b]) if one else (list(a), list(b))
    if len(a) != len(b):
        raise ValueError(f"{len(a)} solutions paired with {len(b)}")
    sols, times, substeps = _batch(op, a + b)
    x, y = (np.stack(v) for v in zip(*((s.x.values, s.y.values) for s in sols)))
    (xa, xb), (ya, yb) = np.split(x, 2), np.split(y, 2)
    pa, pb = np.split(_flow_states(op, x, times, substeps)[1], 2)
    # the events of interval j: its m flow steps, then the jump at t_j
    dv_flow = (pa[:, :, :-1] - pa[:, :, 1:]) - (pb[:, :, :-1] - pb[:, :, 1:])
    dv_jump = (((pa[:, :, -1] + np.diff(ya, axis=1)) - xa[:, 1:])
               - ((pb[:, :, -1] + np.diff(yb, axis=1)) - xb[:, 1:]))
    gap, y_gap = xa[:, 1:] - xb[:, 1:], ya - yb
    # per event, (pairs, intervals, m + 1): the bracket term, and the increments
    # of v = k - k' and of w = sum <y_s - y'_s, dv_s>
    jump_bracket = np.vecdot(gap, dv_jump) + 0.5 * np.vecdot(dv_jump, dv_jump)
    bracket = np.concatenate([np.vecdot(pa[:, :, 1:] - pb[:, :, 1:], dv_flow),
                              jump_bracket[..., None]], axis=2)
    dv = np.concatenate([dv_flow, dv_jump[:, :, None]], axis=2)
    dw = np.concatenate([np.vecdot(y_gap[:, :-1, None], dv_flow),
                         np.vecdot(y_gap[:, 1:], dv_jump)[..., None]], axis=2)
    # v and w are summed event by event from zero (a leading zero row, so
    # 0.0 + dv is the first sum); the squared-distance inequality reads them
    # after each jump, at every t_j
    pairs, d = len(a), xa.shape[2]
    v = np.cumsum(np.concatenate([np.zeros((pairs, 1, d)), dv.reshape(pairs, -1, d)], axis=1),
                  axis=1)
    w = np.cumsum(np.concatenate([np.zeros((pairs, 1)), dw.reshape(pairs, -1)], axis=1), axis=1)
    v, w = v[:, 1:].reshape(dv.shape)[:, :, -1], w[:, 1:].reshape(dw.shape)[:, :, -1]
    s2 = np.vecdot(y_gap[:, 1:], v) - w
    slack = np.vecdot(y_gap[:, 1:], y_gap[:, 1:]) - 2.0 * s2 - np.vecdot(gap, gap)
    # min's NaN and signed-zero ties; a slack that is not finite reads 0.0
    reports = [PairReport(worst_bracket=_min_subarray_sum(terms), worst_distance_slack=worst
                          if np.isfinite(worst := min([np.inf, *slacks])) else 0.0)
               for terms, slacks in zip(bracket.reshape(pairs, -1).tolist(), slack.tolist())]
    return reports[0] if one else reports
