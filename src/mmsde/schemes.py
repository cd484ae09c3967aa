"""Approximation schemes for the reflected jump SDE

    X_t + K_t = H_t + int_0^t <f(X_{s-}), dZ_s>

driven by a maximal monotone operator A and a generalized projection.

Three schemes operate on a driver realization's grid, which is a one-row
``drivers.Chunk`` (``simulate``, ``from_step_paths``).  Each supplies only its
step map to ``_run_chunk``, the one chunk march; a step returns (x_pre, x_new),
and the march keeps x and x_pre only.  The Euler step is
``skorokhod._sp_step``, which ``solve_step`` marches along one grid:

- ``euler_scheme``: the driving step input Y_t = H_t + sum f(X_{t_k}) dZ
  (left-point rule) is fed through the Skorokhod step map: flow over each
  interval, project the jump at each grid point.  Equivalently the Skorokhod
  solution of the discretized input.
- ``yosida_scheme``: replaces the reflection by the Lipschitz drift -A_n
  (A_n the Yosida approximation, n the stiffness level), integrated
  implicitly through a single resolvent evaluation per substep, which is
  unconditionally stable; iterates may leave the domain by O(1/n).
- ``modified_yosida_scheme``: same, but at grid points where the driver
  genuinely jumps by more than 1/n the post-increment state is projected
  back before the drift step, which restores sup-norm convergence under
  general non-expansive projections.

Each scheme body (``_euler``; ``_yosida`` for both Yosida schemes, with a
level n and a scheme name per row) marches the rows of a ``drivers.Chunk``
at once and returns x, x_pre and the increments of y flat on the chunk's
points, with the errors of its retired rows.  Row i equals the body on a
chunk of realization i alone, bit for bit and for every operator.  dH, dZ,
dt, Yosida's drift weights and its correction flags are laid out in the march
order, by step index, so that a step of the march reads one slice of each.
A scheme passes its one-row chunk straight to its body and refuses a chunk
of more rows; ``_output`` alone forms k (``_k``).

Every scheme runs the coefficient as given, a diagonal one by elementwise
products.  A coefficient without linear growth may explode: a step whose
driven increment dH + f(x) dZ is not finite retires its realization, with an
``ExplosionError`` naming the level of its base partition, before any
resolvent or projection sees it; a single-realization call raises that error.

A chunk march checks once, at entry: H_0 in the domain closure, every step
of every row (``_euler``), the drift substeps (``_yosida``) and, on its first
call, the coefficient's output shape; inside, kernels run unchecked.
Only the coefficient and its product run quiet about overflow, so the
operators' and projections' own warnings stay visible.
"""

from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .drivers import Chunk
from .errors import DomainViolationError, ExplosionError
from .operators import (DEFAULT_DOMAIN_TOL, MonotoneOperator, _flow_kernel, _flow_schedule,
                        resolve, row_norm)
from .paths import BVDecomposition, Partition, StepPath
from .projections import Projection
from .skorokhod import DEFAULT_FLOW_SUBSTEPS, _k, _sp_step

__all__ = [
    "Coefficient",
    "constant_coefficient",
    "zero_coefficient",
    "diag_linear_coefficient",
    "bounded_sin_coefficient",
    "square_coefficient",
    "SchemeOutput",
    "euler_scheme",
    "yosida_scheme",
    "modified_yosida_scheme",
    "resolvent_of_yosida_step",
]


@dataclass(eq=False)
class Coefficient:
    """Matrix-valued coefficient x -> f(x) in R^{d x d}.

    The schemes call it once per step, on the states at the left end of the
    step: ``f`` maps a chunk (B, d) to one matrix per row, (B, d, d), in one
    call, and a point (d,) to a matrix (d, d).  If ``diagonal``, ``f``
    returns only each matrix's diagonal, (d,) per point, which the schemes
    multiply into dZ elementwise (the built-in kinds but a non-diagonal
    constant do); calling it still gives the matrices.  ``spec`` describes it
    for the harness (the half-line oracle reads a constant matrix from it);
    ``evaluations`` counts the points it was evaluated at (per-process
    diagnostic only).
    """

    f: Callable[[np.ndarray], np.ndarray]
    spec: dict | None = None
    evaluations: int = field(default=0, compare=False)
    diagonal: bool = False

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return _diag(self._evaluate(x)) if self.diagonal else self._evaluate(x)

    def _evaluate(self, x: np.ndarray) -> np.ndarray:
        """f on a point or a chunk, checked, in its own form: (..., d) if diagonal."""
        d = x.shape[-1]
        self.evaluations += math.prod(x.shape[:-1])
        tail, what = ((d,), f"a diagonal of length {d}") if self.diagonal else \
            ((d, d), f"a {d}x{d} matrix")
        out = np.asarray(self.f(x), dtype=float)
        if out.shape != x.shape[:-1] + tail:
            raise ValueError(f"coefficient must return {what} per point, "
                             f"shape {x.shape[:-1] + tail}, got {out.shape}")
        return out


def _diag(v: np.ndarray) -> np.ndarray:
    """np.diag of each row of v: (..., d) -> (..., d, d)."""
    out = np.zeros(v.shape + v.shape[-1:])
    i = np.arange(v.shape[-1])
    out[..., i, i] = v
    return out


def constant_coefficient(matrix) -> Coefficient:
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    if m.shape[0] != m.shape[1] or not np.all(np.isfinite(m)):
        raise ValueError("coefficient matrix must be square and finite")
    diagonal = np.array_equal(m, np.diag(np.diagonal(m)))
    v = np.diagonal(m) if diagonal else m

    def f(x):
        out = np.empty(x.shape[:-1] + v.shape)
        out[...] = v
        return out
    return Coefficient(
        f=f,
        spec={"kind": "constant", "matrix": m.tolist()}, diagonal=diagonal,
    )


def zero_coefficient(dimension: int) -> Coefficient:
    return constant_coefficient(np.zeros((dimension, dimension)))


def diag_linear_coefficient(scale) -> Coefficient:
    """f(x) = diag(scale * x)."""
    scale = np.atleast_1d(np.asarray(scale, dtype=float))
    return Coefficient(f=lambda x: scale * x,
                       spec={"kind": "diag_linear", "scale": scale.tolist()}, diagonal=True)


def bounded_sin_coefficient(dimension: int, base: float, amplitude: float) -> Coefficient:
    """f(x) = (base + amplitude sin(sum x)) I."""
    base, amp = float(base), float(amplitude)
    ones = np.ones(dimension)
    return Coefficient(
        f=lambda x: (base + amp * np.sin(np.add.reduce(x, axis=-1)))[..., None] * ones,
        spec={"kind": "bounded_sin", "base": base, "amplitude": amp}, diagonal=True,
    )


def square_coefficient() -> Coefficient:
    """f(x) = diag(x * x): locally Lipschitz, with no linear growth bound.

    The paper's existence hypotheses fail for it, and a trajectory can
    explode in finite time; the schemes then raise ``ExplosionError``.
    """
    return Coefficient(f=lambda x: x * x, spec={"kind": "square"}, diagonal=True)


@dataclass(frozen=True, eq=False)
class SchemeOutput:
    """Grid process produced by one scheme run.

    ``y`` is the realized driving step input (so x + k = y exactly at grid
    points), ``k`` carries the split into flow/drift accumulation and jump
    corrections, and ``x_pre`` stores pre-jump left limits where the scheme
    produces them (the Euler scheme).
    """

    x: StepPath
    k: BVDecomposition
    y: StepPath
    scheme: str
    params: dict
    realization: Chunk
    x_pre: np.ndarray | None = None


def _run_chunk(op: MonotoneOperator, coeff: Coefficient, chunk: Chunk, scheme_step):
    """March the rows of ``chunk`` through one scheme body.

    Step k of the march steps every row that has a k-th grid step, each with
    its own dt, so the march runs once per step of the longest row.  The
    points are kept in the march order ``order``: by step index, then by row
    rank, the rows ranked by length, longest first.  A row that takes step k
    took step k - 1, so step k is one block, the first ``sizes[k]`` ranked
    rows, and a point's previous state is its place in the block before: a
    slice view of x, which a scheme step must not write into.
    ``scheme_step(order, dt)`` lays out the scheme's own per-point arrays as
    ``a[order]``, beside the steps ``dt`` in the march order (0 in block 0),
    and returns the map ``(key, dt, prev, dy)`` from the stepping points (a
    block's slice, or in a block that holds a retired row, the index array of
    its live points), their steps, states and driven increments to the step
    outputs (x_pre, x_new).  The driven increment dH_j + f(x_{j-1})
    dZ_j of the stepping rows is one batched coefficient call and one
    product, elementwise for a diagonal coefficient, else ``np.matvec``; a
    row whose increment is not finite retires with its ``ExplosionError``, at
    its base partition's level, before the scheme step sees it.

    Returns x, x_pre and the driven increments dy (H_0 at a row's t = 0, so
    that a row's y is their cumsum), (N, d) on the chunk's points in row
    order, and the retired rows' ExplosionErrors by row; a retired row's
    later points are undefined.
    """
    h0 = chunk.h[chunk.starts[:-1]]
    dist = op.domain_distance(h0)  # every scheme starts in the domain closure of A
    if np.any(bad := dist > DEFAULT_DOMAIN_TOL):
        i = int(np.argmax(bad))
        raise DomainViolationError(f"H_0 outside the domain closure (distance {dist[i]:.3e})",
                                   point=h0[i], distance=float(dist[i]))
    count, lengths = h0.shape[0], np.diff(chunk.starts)
    ranked = np.argsort(-lengths, kind="stable")  # the row of each rank
    rank = np.empty_like(ranked)
    rank[ranked] = np.arange(count)
    row = np.repeat(np.arange(count), lengths)
    step = np.arange(row.size) - chunk.starts[row]
    sizes = np.bincount(step)  # block k: step k of the first sizes[k] ranked rows
    ends = np.cumsum(sizes)
    order = np.empty_like(row)
    order[(ends - sizes)[step] + rank[row]] = np.arange(row.size)
    row = row[order]
    del rank, step
    # each row's own increments and steps, in march order; block 0's are never
    # read, and its dt is 0 so that a scheme's weights of every dt are finite
    dh, dz, dt = (np.diff(a, axis=0, prepend=a[:1])[order]
                  for a in (chunk.h, chunk.z, chunk.times))
    dt[:count] = 0.0
    dy = np.empty_like(dh)
    x, x_pre = np.empty(dh.shape), np.empty(dh.shape)
    dy[:count] = x[:count] = x_pre[:count] = h0[ranked]
    advance = scheme_step(order, dt)
    # the coefficient and its product run quiet here: an overflow retires the row
    with np.errstate(over="ignore", invalid="ignore"):
        quiet = contextvars.copy_context()
    f = checked = coeff._evaluate  # f's shape is checked on its first call only
    product = np.multiply if coeff.diagonal else np.matvec

    def driven(key, prev):
        nonlocal f
        m = f(prev)
        if f is not checked:
            coeff.evaluations += prev.shape[0]
        else:  # its shape is checked: from now on f runs bare
            f = coeff.f
        return dh[key] + product(m, dz[key])

    errors, live = {}, np.ones(count, dtype=bool)
    held = None  # per point, whether its row is live, once a row retires
    for prior, lo, hi in zip(sizes.tolist(), ends.tolist(), ends[1:].tolist()):
        key, prev = slice(lo, hi), x[lo - prior:hi - prior]
        if held is not None and not held[key].all():
            key = np.flatnonzero(held[key]) + lo
            if not key.size:
                continue
            prev = x[key - prior]
        inc = quiet.run(driven, key, prev)
        if np.count_nonzero(np.isfinite(inc)) < inc.size:
            keep, rows = np.isfinite(inc).all(axis=-1), row[key]
            for i in np.flatnonzero(~keep).tolist():
                b, p = int(rows[i]), int(order[key][i])
                index, j = chunk.trajectory[b], p - int(chunk.starts[b])
                t = float(chunk.times[p])
                who = "the realization of given paths" if index is None else f"trajectory {index}"
                errors[b] = ExplosionError(
                    f"{who} exploded: the driven increment at step {j} "
                    f"(t = {t!r}) is not finite", last=np.array(prev[i]),
                    trajectory=index, step=j, time=t, level=int(chunk.level[b]))
            live[rows[~keep]] = False
            if not live.any():
                break
            held = live[row]
            key, prev, inc = np.r_[key][keep], prev[keep], inc[keep]
            if not key.size:
                continue
        dy[key] = inc
        x_pre[key], x[key] = advance(key, dt[key], prev, inc)
    # the per-point arrays go before the outputs return to row order
    del advance, driven, dh, dz, row, dt, held
    for a in (x, x_pre, dy):
        a[order] = a.copy()
    return x, x_pre, dy, errors


def _output(realization: Chunk, scheme: str, params: dict, body) -> SchemeOutput:
    """The SchemeOutput of a scheme body ``body(realization)`` on the one-row chunk
    ``realization``, labelled ``scheme`` with ``params``; its ExplosionError is raised."""
    if (rows := len(realization.trajectory)) != 1:
        raise ValueError(f"a scheme run takes a one-row chunk, got {rows} rows")
    x, x_pre, dy, errors = body(realization)
    if errors:
        raise errors[0]
    grid = Partition(realization.times)
    return SchemeOutput(
        x=StepPath(grid, x), k=_k(grid, x, x_pre, dy, drift=scheme != "euler"),
        y=StepPath(grid, np.cumsum(dy, 0)),
        scheme=scheme, params=dict(params, mesh=grid.mesh, steps=grid.times.size - 1),
        realization=realization, x_pre=x_pre if scheme == "euler" else None)


def _euler(op: MonotoneOperator, proj: Projection, coeff: Coefficient, chunk: Chunk,
           flow_substeps: int):
    """``euler_scheme`` on each row of ``chunk``, marched together (``_run_chunk``);
    the steps checked here are each row's grid differences, the march's dt."""
    _flow_schedule(op, np.delete(np.diff(chunk.times), chunk.starts[1:-1] - 1), flow_substeps)
    flow = _flow_kernel(op, flow_substeps)
    return _run_chunk(
        op, coeff, chunk,
        lambda order, dt: lambda key, dt, prev, dy: _sp_step(op, proj, flow, prev, dy, dt))


def euler_scheme(op: MonotoneOperator, proj: Projection, coeff: Coefficient,
                 realization: Chunk,
                 flow_substeps: int = DEFAULT_FLOW_SUBSTEPS) -> SchemeOutput:
    """Skorokhod-step discretization on the realization grid.

    Starts from H_0 (which must lie in the domain closure); each step flows
    over the interval, then projects the flow endpoint plus the driver
    increment dH + f(X_prev) dZ.
    """
    return _output(realization, "euler", {"flow_substeps": flow_substeps},
                   lambda chunk: _euler(op, proj, coeff, chunk, flow_substeps))


def resolvent_of_yosida_step(op: MonotoneOperator, lam, mu, x) -> np.ndarray:
    """One implicit step of size mu for the Yosida drift -A_lam.

    A_lam = (I - J_lam)/lam is Lipschitz with constant 1/lam, so an explicit
    step would need mu < 2 lam to be stable.  The identity

        (I + mu A_lam)^{-1}(x) = (lam x + mu J_{lam+mu}(x)) / (lam + mu)

    reduces the implicit (unconditionally stable) step to a single resolvent
    call and is exact for any maximal monotone operator.  For a batch x of
    shape (B, d), ``lam`` and ``mu`` may each give one value per row.  The
    Yosida schemes' drift substeps run the same step without these checks.
    """
    lam, mu = np.asarray(lam, dtype=float), np.asarray(mu, dtype=float)
    if not (np.all(lam > 0) and np.all(mu > 0)):
        raise ValueError("lam and mu must be positive")
    x, step = np.asarray(x, dtype=float), lam + mu
    w = lam / step
    if np.ndim(w):
        w = w[:, None]
    return w * x + (1.0 - w) * resolve(op, step, x)


def _yosida(op: MonotoneOperator, proj: Projection | None, levels, coeff: Coefficient,
            chunk: Chunk, schemes, drift_substeps: int):
    """``yosida_scheme`` or ``modified_yosida_scheme`` on each row of ``chunk``
    (``_run_chunk``), row b at level ``levels[b]`` with scheme ``schemes[b]``.
    A Yosida row is a modified-Yosida row whose large-jump correction never
    fires, and each row's threshold and drift step 1/n are its own; ``proj`` is
    read by modified-Yosida rows only.  There is no flow between grid points:
    a step reports its state before the drift as x_pre."""
    counts = np.diff(chunk.starts)
    levels, schemes = np.asarray(levels, dtype=float), np.asarray(schemes)
    for name, given in (("levels", levels), ("schemes", schemes)):
        if given.shape != counts.shape:
            raise ValueError(f"{name} must give one entry per row of the chunk "
                             f"({counts.size}), got shape {given.shape}")
    if not np.all(levels >= 1):
        raise ValueError("Yosida level must satisfy n >= 1")
    if drift_substeps < 1:
        raise ValueError("drift_substeps must be >= 1")

    def bind(order, dt):
        # per grid point, in row order, then in the march order
        lam = np.repeat(1.0 / levels, counts)
        # the grid points where the driver genuinely jumps by more than 1/n
        correct = (chunk.jump_flags & np.repeat(schemes == "modified_yosida", counts)
                   & (np.maximum(row_norm(chunk.jump_h), row_norm(chunk.jump_z)) > lam))
        lam, correct = lam[order], correct[order] if correct.any() else None
        # resolvent_of_yosida_step's weights of each point's drift substep, formed once
        size = lam + dt / drift_substeps
        w = (lam / size)[:, None]
        wc = 1.0 - w

        def step(key, dt, prev, dy):
            state = prev + dy
            if correct is not None and (fix := correct[key]).any():
                state[fix] = np.asarray(proj(op, state[fix]), dtype=float)
            pre_drift, w_k, wc_k, size_k = state, w[key], wc[key], size[key]
            for _ in range(drift_substeps):
                state = w_k * state + wc_k * np.asarray(op.resolvent(size_k, state), dtype=float)
            return pre_drift, state
        return step

    return _run_chunk(op, coeff, chunk, bind)


def yosida_scheme(op: MonotoneOperator, n: float, coeff: Coefficient,
                  realization: Chunk,
                  drift_substeps: int = 1) -> SchemeOutput:
    """Explicit driver increments, implicit Yosida drift at stiffness n >= 1.

    No projection is applied: the drift -A_n supplies the soft reflection.
    Iterates converge pointwise at continuity times and through J_n in the
    sup norm, but the raw iterates may leave the domain by O(1/n).  H_0 must
    lie in the domain closure, as for ``euler_scheme``: the approximated
    solution starts there.
    """
    return _output(realization, "yosida", {"n": float(n), "drift_substeps": drift_substeps},
                   lambda chunk: _yosida(op, None, [n], coeff, chunk, ["yosida"],
                                         drift_substeps))


def modified_yosida_scheme(op: MonotoneOperator, proj: Projection, n: float,
                           coeff: Coefficient, realization: Chunk,
                           drift_substeps: int = 1) -> SchemeOutput:
    """Yosida scheme with projection correction at large driver jumps.

    At grid points where the driver genuinely jumps and
    max(|dH|, |dZ|) > 1/n, the post-increment state is replaced by its
    generalized projection before the drift step; elsewhere identical to
    ``yosida_scheme``, including the check that H_0 lies in the domain
    closure.
    """
    return _output(realization, "modified_yosida",
                   {"n": float(n), "drift_substeps": drift_substeps},
                   lambda chunk: _yosida(op, proj, [n], coeff, chunk, ["modified_yosida"],
                                         drift_substeps))
