"""Deterministic Skorokhod problem for step inputs.

Given a step input y with y_0 in the domain closure, solve_step produces the
pair (x, k) with x + k = y, x living in the domain closure, the continuous
part of k selected from A(x) dt (realized by the constant-input flow between
grid points), and post-jump states given by the generalized projection:
x_t = Pi(x_{t-} + dy_t) wherever k jumps.

``_march`` is the one grid march behind ``solve_step`` and the three schemes
of ``schemes``.  It walks one path with a state (d,), or a chunk of paths
with states (B, d) on the union of their grids, each row stepping only at its
own grid times with its own step sizes, so that every row equals its own
single-path march bit for bit.

The module also ships the closed-form reflection map on the half-line
[0, inf) (the classical running-maximum formula) used as an independent
oracle, a verifier that checks a solution against the defining conditions,
and the two-solution comparison inequalities used as property tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainViolationError
from .operators import (
    DEFAULT_DOMAIN_TOL,
    MonotoneOperator,
    flow_endpoint,
    flow_steps,
    row_norm,
)
from .paths import BVDecomposition, Partition, StepPath
from .projections import Projection

__all__ = [
    "SkorokhodSolution",
    "solve_step",
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

    @property
    def k_path(self) -> StepPath:
        return self.k.total

    def export_components(self) -> dict[str, StepPath]:
        return {
            "x": self.x,
            "k": self.k.total,
            "kc": self.k.continuous,
            "kd": self.k.jump,
        }


def _sp_step(op: MonotoneOperator, proj, prev: np.ndarray, dy: np.ndarray,
             dt: float, substeps: int):
    """One grid step: flow over dt from ``prev``, then project prev + dy.

    Returns the ``_march`` step outputs (x_left, xi, dkc, dkd): the pre-jump
    left limit, the new grid value, and the k increments split into flow and
    jump parts.  ``prev`` may be a chunk of rows (B, d), with one dt per row.
    """
    x_left = flow_endpoint(op, prev, dt, substeps)
    w = x_left + dy
    xi = np.asarray(proj(op, w), dtype=float)
    return x_left, xi, prev - x_left, w - xi


def _schedule(times: list, single: bool):
    """The steps of ``_march``: (key, rows, dt) for each union time after 0."""
    if single:
        yield from zip(range(1, times[0].size), itertools.repeat(None),
                       np.diff(times[0]).tolist())
        return
    flat = np.concatenate(times)
    union, where = np.unique(flat, return_inverse=True)
    # the flat indices of each union time, row by row
    order = np.argsort(where, kind="stable")
    ends = np.cumsum(np.bincount(where, minlength=union.size)).tolist()
    row_of = np.repeat(np.arange(len(times)), [t.size for t in times])
    dt = np.diff(flat, prepend=0.0)  # a row's own step; its first entry is never read
    for lo, hi in zip(ends, ends[1:]):
        key = order[lo:hi]
        yield key, None if key.size == len(times) else row_of[key], dt[key]


def _march(grids, x0: np.ndarray, step):
    """Apply a step map along one grid, or along each grid of a chunk.

    One path: ``grids`` is its Partition and ``x0`` its start (d,).  A chunk:
    ``grids`` holds one Partition per row and ``x0`` is (B, d).  The march
    walks the union of the grid times; at each union time it steps the rows
    whose grid holds that time, each with its own dt from its own previous
    time, and the other rows hold their state.  The rows' grid points are laid
    end to end in row order, and ``key`` indexes that flat layout: an int for
    one path, an int array (the stepping rows' own points) for a chunk.

    ``step(key, rows, dt, prev)`` maps the states ``prev`` at the rows' previous
    times to ``(keep, (x_left, x_new, dkc, dkd))``: the left limits at the
    key's times, the new states, and the flow and jump parts of dk.  ``rows``
    is None when every row steps (``prev`` is then the whole state), and
    otherwise the stepping rows; ``dt`` is a float for one path and one step
    per row for a chunk.  ``keep`` is None, or a boolean mask over the
    stepping rows: the rows it clears retire (the march steps them no more),
    and the four outputs hold the kept rows only.  The step reads its own
    input increment; the march never sees y.

    k starts at zero and is the running sum of its increments, formed per row
    on the row's own grid by ``np.cumsum``, which adds row by row in order and
    so equals an in-loop running sum bit for bit.  Returns, per row, (x, k,
    x_pre): the state, the BV decomposition of k and the left limits
    (``x_pre[0] = x0``), or None for a retired row.
    """
    single = x0.ndim == 1
    if single:
        grids = [grids]
    times = [g.times for g in grids]
    sizes = [t.size for t in times]
    starts = np.cumsum([0] + sizes[:-1])
    shape = (sum(sizes), x0.shape[-1])
    x_vals = np.empty(shape)
    x_pre = np.empty(shape)
    dkc = np.zeros(shape)
    dkd = np.zeros(shape)
    x_vals[starts] = x_pre[starts] = x0
    state = np.array(x0, dtype=float)
    live = np.ones(len(grids), dtype=bool)
    every = np.arange(len(grids))
    retired = 0
    for key, rows, dt in _schedule(times, single):
        if retired:
            rows = every if rows is None else rows
            held = live[rows]
            if not held.all():
                key, rows, dt = key[held], rows[held], dt[held]
                if not key.size:
                    continue
        prev = state if rows is None else state[rows]
        keep, out = step(key, rows, dt, prev)
        if keep is not None:
            rows = every if rows is None else rows
            live[rows[~keep]] = False
            retired = np.count_nonzero(~live)
            key, rows = key[keep], rows[keep]
            if not key.size:
                if retired == live.size:
                    break
                continue
        x_pre[key], x_new, dkc[key], dkd[key] = out
        x_vals[key] = x_new
        if rows is None:
            state = x_new
        else:
            state[rows] = x_new
    out = []
    for grid, lo, n, alive in zip(grids, starts.tolist(), sizes, live.tolist()):
        if not alive:
            out.append(None)
            continue
        rows = slice(lo, lo + n)
        # the sums overwrite their increments, which nothing else keeps
        kc, kd = dkc[rows], dkd[rows]
        np.cumsum(kc, axis=0, out=kc)
        np.cumsum(kd, axis=0, out=kd)
        # total = continuous + jump bitwise; additivity to y holds to rounding
        k = BVDecomposition(total=StepPath(grid, kc + kd),
                            continuous=StepPath(grid, kc), jump=StepPath(grid, kd))
        out.append((StepPath(grid, x_vals[rows]), k, x_pre[rows]))
    return out


def solve_step(op: MonotoneOperator, proj: Projection, y: StepPath,
               flow_substeps: int = DEFAULT_FLOW_SUBSTEPS,
               domain_tol: float = DEFAULT_DOMAIN_TOL) -> SkorokhodSolution:
    """Solve the Skorokhod problem for a step input.

    On [0, t_1) the state follows the constant-input flow from y_0; at each
    later grid point the flow endpoint is corrected by the projection of
    x_{t-} + dy_t, then the flow restarts for the next interval.  y_0 must
    lie in the domain closure within ``domain_tol``.
    """
    if y.dimension != op.dimension:
        raise ValueError("input dimension does not match the operator")
    y0 = y.values[0]
    dist = op.domain_distance(y0)
    if dist > domain_tol:
        raise DomainViolationError(
            f"y_0 outside the domain closure (distance {dist:.3e})",
            point=y0, distance=dist,
        )
    dy = y.jumps()
    [(x, k, x_pre)] = _march(
        y.partition, y0,
        lambda j, rows, dt, prev: (None, _sp_step(op, proj, prev, dy[j], dt, flow_substeps)))
    return SkorokhodSolution(x=x, k=k, y=y, x_pre=x_pre, flow_substeps=flow_substeps)


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
    k_vals = -pushed
    x = StepPath(y.partition, x_vals)
    k_total = StepPath(y.partition, k_vals)
    zero = StepPath(y.partition, np.zeros_like(y.values))
    x_pre = np.empty_like(y.values)
    x_pre[0, 0] = x_vals[0]
    x_pre[1:, 0] = x_vals[:-1]
    return SkorokhodSolution(
        x=x,
        k=BVDecomposition(total=k_total, continuous=zero, jump=k_total),
        y=y,
        x_pre=x_pre,
        flow_substeps=1,
    )


def _min_subarray_sum(terms) -> float:
    """Smallest sum over a contiguous nonempty range (0.0 for empty input)."""
    best = 0.0
    running = 0.0
    for v in terms:
        running = min(v, running + v)
        best = min(best, running)
    return best


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
    if times.size == 1:
        bound_margin = 0.0
    if jump_res > tol:
        failures.append(f"jump condition residual {jump_res:.3e}")
    if bound_margin < 0.0:
        failures.append(f"|dk| <= 2|dy| violated by {-bound_margin:.3e}")

    mono_worst = 0.0
    if len(test_pairs):
        # each interval's flow is computed once and checked against every pair
        alphas = np.array([np.atleast_1d(np.asarray(a, dtype=float)) for a, _ in test_pairs])
        betas = np.array([np.atleast_1d(np.asarray(b, dtype=float)) for _, b in test_pairs])
        terms = []
        for j in range(1, times.size):
            states = [sol.x.values[j - 1]]
            steps = flow_steps(op, states[0], times[j] - times[j - 1], sol.flow_substeps)
            if not steps:
                continue
            states.extend(nxt for _, nxt in steps)
            states = np.array(states)
            cur, nxt = states[:-1], states[1:]
            # (cur - nxt)/lam is an element of A(nxt), one row per flow step
            terms.append(np.vecdot(nxt - alphas[:, None],
                                   (cur - nxt) - steps[0][0] * betas[:, None]))
        if terms:
            for row in np.concatenate(terms, axis=1):
                mono_worst = min(mono_worst, _min_subarray_sum(row.tolist()))
    if mono_worst < -tol:
        failures.append(f"monotonicity sum {mono_worst:.3e} below -{tol:.1e}")

    return SolutionReport(
        additivity_residual=add,
        jump_condition_residual=jump_res,
        jump_bound_margin=float(bound_margin),
        monotonicity_worst=mono_worst,
        k0_residual=k0,
        tolerance=tol,
        passed=not failures,
        failures=failures,
    )


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
    if not a.y.partition.same_times(b.y.partition):
        raise ValueError("solutions must share one grid")
    # substep counts must agree so the two flows pair event by event;
    # projection-resolvent operators always take one step regardless
    if not op.projection_resolvent and a.flow_substeps != b.flow_substeps:
        raise ValueError("solutions must share the flow substep count")
    times = a.y.partition.times

    bracket_terms: list[float] = []
    # running sums for the squared-distance inequality
    v = np.zeros(a.x.dimension)          # k - k' accumulated over events
    w_inner = 0.0                        # sum <y_s - y'_s, dv_s> over events
    worst_slack = np.inf

    prev_a = a.x.values[0]
    prev_b = b.x.values[0]
    for j in range(1, times.size):
        dt = times[j] - times[j - 1]
        b_left = a.y.values[j - 1] - b.y.values[j - 1]
        sa = flow_steps(op, prev_a, dt, a.flow_substeps)
        sb = flow_steps(op, prev_b, dt, b.flow_substeps)
        xa, xb = prev_a, prev_b
        for (_, na), (_, nb) in zip(sa, sb):
            dv = (xa - na) - (xb - nb)
            bracket_terms.append(float((na - nb) @ dv))
            v += dv
            w_inner += float(b_left @ dv)
            xa, xb = na, nb
        # jump event at t_j
        dya = a.y.values[j] - a.y.values[j - 1]
        dyb = b.y.values[j] - b.y.values[j - 1]
        wa = xa + dya
        wb = xb + dyb
        xa_new = a.x.values[j]
        xb_new = b.x.values[j]
        dv = (wa - xa_new) - (wb - xb_new)
        diff_new = xa_new - xb_new
        bracket_terms.append(float(diff_new @ dv) + 0.5 * float(dv @ dv))
        v += dv
        b_here = a.y.values[j] - b.y.values[j]
        w_inner += float(b_here @ dv)
        # squared-distance inequality at t_j
        s2 = float(b_here @ v) - w_inner
        slack = float(b_here @ b_here) - 2.0 * s2 - float(diff_new @ diff_new)
        worst_slack = min(worst_slack, slack)
        prev_a, prev_b = xa_new, xb_new

    if not np.isfinite(worst_slack):
        worst_slack = 0.0
    return PairReport(
        worst_bracket=_min_subarray_sum(np.asarray(bracket_terms)),
        worst_distance_slack=float(worst_slack),
    )
