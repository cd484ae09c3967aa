"""Approximation schemes for the reflected jump SDE

    X_t + K_t = H_t + int_0^t <f(X_{s-}), dZ_s>

driven by a maximal monotone operator A and a generalized projection.

Three schemes operate on a driver realization's grid.  Each supplies only its
step map to ``skorokhod._march``, the one grid march that ``solve_step`` also
uses, which accumulates k and builds the output paths:

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

Each scheme has one body, which runs a chunk of realizations at once
(``euler_chunk``, ``yosida_chunk``, ``modified_yosida_chunk``): the march
steps each realization on its own grid, with its own step sizes, so row i of
a chunk equals the single-realization call on realization i bit for bit (a
``linear`` operator's rows are promised to 1e-15 of the row's norm, the
tolerance of its batched resolvent).  A single realization is a chunk of one.

Every scheme runs the coefficient as given.  A coefficient without linear
growth may explode: a step whose driven increment dH + f(x) dZ is not finite
retires its realization, with an ``ExplosionError``, before any resolvent or
projection sees it; the single-realization calls raise that error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .drivers import DriverRealization
from .errors import DomainViolationError, ExplosionError
from .operators import DEFAULT_DOMAIN_TOL, MonotoneOperator, resolve, row_norm
from .paths import BVDecomposition, StepPath
from .projections import Projection
from .skorokhod import DEFAULT_FLOW_SUBSTEPS, _march, _sp_step

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
    "euler_chunk",
    "yosida_chunk",
    "modified_yosida_chunk",
    "resolvent_of_yosida_step",
]


@dataclass(eq=False)
class Coefficient:
    """Matrix-valued coefficient x -> f(x) in R^{d x d}.

    The schemes call it once per step, on the states at the left end of the
    step: a point (d,) gives a matrix (d, d) and a chunk (B, d) one matrix
    per row, (B, d, d).  ``f`` takes single points unless ``batched``, in
    which case it maps a chunk in one call (the built-in kinds do).  ``spec``
    describes it for the harness (the half-line oracle reads a constant
    matrix from it); ``evaluations`` counts the points it was evaluated at
    (per-process diagnostic only).
    """

    f: Callable[[np.ndarray], np.ndarray]
    spec: dict | None = None
    evaluations: int = field(default=0, compare=False)
    batched: bool = False

    def __call__(self, x: np.ndarray) -> np.ndarray:
        d = x.shape[-1]
        self.evaluations += math.prod(x.shape[:-1])
        if self.batched:
            out = np.asarray(self.f(x), dtype=float)
            if out.shape != x.shape + (d,):
                raise ValueError(f"coefficient must return a {d}x{d} matrix per point, "
                                 f"got {out.shape}")
            return out
        out = np.empty(x.shape + (d,))
        for i in np.ndindex(x.shape[:-1]):  # a point has one index, the empty one
            m = np.asarray(self.f(x[i]), dtype=float)
            if m.shape != (d, d):
                raise ValueError(f"coefficient must return a {d}x{d} matrix, got {m.shape}")
            out[i] = m
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
    return Coefficient(
        f=lambda x: np.broadcast_to(m, x.shape + x.shape[-1:]),
        spec={"kind": "constant", "matrix": m.tolist()},
        batched=True,
    )


def zero_coefficient(dimension: int) -> Coefficient:
    return constant_coefficient(np.zeros((dimension, dimension)))


def diag_linear_coefficient(scale) -> Coefficient:
    """f(x) = diag(scale * x)."""
    scale = np.atleast_1d(np.asarray(scale, dtype=float))
    return Coefficient(
        f=lambda x: _diag(scale * x),
        spec={"kind": "diag_linear", "scale": scale.tolist()},
        batched=True,
    )


def bounded_sin_coefficient(dimension: int, base: float, amplitude: float) -> Coefficient:
    """f(x) = (base + amplitude sin(sum x)) I."""
    base, amp = float(base), float(amplitude)
    eye = np.eye(dimension)
    return Coefficient(
        f=lambda x: (base + amp * np.sin(x.sum(axis=-1)))[..., None, None] * eye,
        spec={"kind": "bounded_sin", "base": base, "amplitude": amp},
        batched=True,
    )


def square_coefficient() -> Coefficient:
    """f(x) = diag(x * x): locally Lipschitz, with no linear growth bound.

    The paper's existence hypotheses fail for it, and a trajectory can
    explode in finite time; the schemes then raise ``ExplosionError``.
    """
    return Coefficient(f=lambda x: _diag(x * x), spec={"kind": "square"}, batched=True)


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
    realization: DriverRealization
    x_pre: np.ndarray | None = None

    @property
    def k_path(self) -> StepPath:
        return self.k.total


def _checked_starts(op: MonotoneOperator, realizations) -> np.ndarray:
    """H_0 of each realization, which every scheme needs in the domain closure of A."""
    h0 = np.array([r.h.values[0] for r in realizations])
    dist = op.domain_distance(h0)
    bad = np.flatnonzero(dist > DEFAULT_DOMAIN_TOL)
    if bad.size:
        i = bad[0]
        raise DomainViolationError(
            f"H_0 outside the domain closure (distance {dist[i]:.3e})",
            point=h0[i], distance=float(dist[i]),
        )
    return h0


def _run_chunk(op: MonotoneOperator, coeff: Coefficient, realizations, scheme: str,
               params: dict, scheme_step) -> list:
    """March a chunk of realizations through one scheme.

    ``scheme_step(key, dt, prev, dy)`` maps the states ``prev`` and driven
    increments ``dy`` of the stepping rows to the ``_march`` step outputs;
    ``key`` indexes the realizations' grid points laid end to end.  The driven
    increment dH_j + f(x_{j-1}) dZ_j of every stepping row is one batched
    coefficient call and one ``np.matvec``; a row whose increment is not
    finite retires with its ``ExplosionError`` before the scheme step sees it.

    Returns, per realization, its SchemeOutput or its ExplosionError.  y is
    the in-place cumsum of the stored increments on the row's own grid (row 0
    holds H_0), which adds row by row in order.
    """
    if not realizations:
        return []
    grids = [r.grid for r in realizations]
    starts = np.cumsum([0] + [g.times.size for g in grids[:-1]])
    h0 = _checked_starts(op, realizations)
    # increments on each row's own grid, laid end to end; a row's first
    # entry is never read
    dh = np.concatenate([np.diff(r.h.values, axis=0, prepend=r.h.values[:1])
                         for r in realizations])
    dz = np.concatenate([np.diff(r.z.values, axis=0, prepend=r.z.values[:1])
                         for r in realizations])
    dys = np.empty_like(dh)
    dys[starts] = h0
    errors = {}

    def step(key, rows, dt, prev):
        with np.errstate(over="ignore", invalid="ignore"):
            dy = dh[key] + np.matvec(coeff(prev), dz[key])
        keep = None
        if not np.isfinite(dy).all():
            keep = np.isfinite(dy).all(axis=-1)
            rows = np.arange(len(realizations)) if rows is None else rows
            for i in np.flatnonzero(~keep).tolist():
                b = int(rows[i])
                index, j = realizations[b].trajectory_index, int(key[i] - starts[b])
                t = float(grids[b].times[j])
                errors[b] = ExplosionError(
                    f"trajectory {index} exploded: the driven increment at step {j} "
                    f"(t = {t!r}) is not finite", last=np.array(prev[i]),
                    trajectory=index, step=j, time=t)
            key, dt, prev, dy = key[keep], dt[keep], prev[keep], dy[keep]
            if not key.size:
                return keep, None
        dys[key] = dy
        return keep, scheme_step(key, dt, prev, dy)

    marched = _march(grids, h0, step)
    out = []
    for b, (r, lo, res) in enumerate(zip(realizations, starts.tolist(), marched)):
        if res is None:
            out.append(errors[b])
            continue
        x, k, x_pre = res
        n = r.grid.times.size
        y = dys[lo:lo + n]
        np.cumsum(y, axis=0, out=y)
        out.append(SchemeOutput(
            x=x, k=k, y=StepPath(r.grid, y), scheme=scheme,
            params=dict(params, mesh=r.grid.mesh, steps=n - 1), realization=r,
            x_pre=x_pre if scheme == "euler" else None))
    return out


def _single(outputs: list) -> SchemeOutput:
    """The output of a chunk of one; its ExplosionError is raised."""
    [out] = outputs
    if isinstance(out, ExplosionError):
        raise out
    return out


def euler_chunk(op: MonotoneOperator, proj: Projection, coeff: Coefficient,
                realizations, flow_substeps: int = DEFAULT_FLOW_SUBSTEPS) -> list:
    """``euler_scheme`` on each realization of a chunk, marched together.

    Returns, per realization, its SchemeOutput, or the ExplosionError that
    ``euler_scheme`` would raise on it.
    """
    return _run_chunk(
        op, coeff, realizations, "euler", {"flow_substeps": flow_substeps},
        lambda key, dt, prev, dy: _sp_step(op, proj, prev, dy, dt, flow_substeps))


def euler_scheme(op: MonotoneOperator, proj: Projection, coeff: Coefficient,
                 realization: DriverRealization,
                 flow_substeps: int = DEFAULT_FLOW_SUBSTEPS) -> SchemeOutput:
    """Skorokhod-step discretization on the realization grid.

    Starts from H_0 (which must lie in the domain closure); each step flows
    over the interval, then projects the flow endpoint plus the driver
    increment dH + f(X_prev) dZ.
    """
    return _single(euler_chunk(op, proj, coeff, [realization], flow_substeps))


def resolvent_of_yosida_step(op: MonotoneOperator, lam, mu, x) -> np.ndarray:
    """One implicit step of size mu for the Yosida drift -A_lam.

    A_lam = (I - J_lam)/lam is Lipschitz with constant 1/lam, so an explicit
    step would need mu < 2 lam to be stable.  The identity

        (I + mu A_lam)^{-1}(x) = (lam x + mu J_{lam+mu}(x)) / (lam + mu)

    reduces the implicit (unconditionally stable) step to a single resolvent
    call and is exact for any maximal monotone operator.  For a batch x of
    shape (B, d), ``lam`` and ``mu`` may each give one value per row.
    """
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if not (np.all(lam > 0) and np.all(mu > 0)):
        raise ValueError("lam and mu must be positive")
    j = resolve(op, lam + mu if (lam.ndim or mu.ndim) else float(lam + mu), x)
    w = lam / (lam + mu)
    if w.ndim:
        w = w[:, None]
    return w * np.asarray(x, dtype=float) + (1.0 - w) * j


def _yosida_chunk(op: MonotoneOperator, proj: Projection | None, n_level: float,
                  coeff: Coefficient, realizations, drift_substeps: int,
                  scheme: str) -> list:
    if not (n_level >= 1):
        raise ValueError("Yosida level must satisfy n >= 1")
    lam = 1.0 / float(n_level)
    threshold = 1.0 / float(n_level)
    correct = None
    if scheme == "modified_yosida" and realizations:
        # the grid points where the driver genuinely jumps by more than 1/n
        jump_h = np.concatenate([r.jump_h for r in realizations])
        jump_z = np.concatenate([r.jump_z for r in realizations])
        correct = (np.concatenate([r.jump_flags for r in realizations])
                   & (np.maximum(row_norm(jump_h), row_norm(jump_z)) > threshold))

    def step(key, dt, prev, dy):
        state = prev + dy
        dkd = 0.0
        if correct is not None:
            fix = correct[key]
            if fix.any():
                w = state[fix]
                corrected = np.asarray(proj(op, w), dtype=float)
                dkd = np.zeros_like(state)
                dkd[fix] = w - corrected
                state[fix] = corrected
        pre_drift = state
        step_size = lam + dt / drift_substeps
        w = (lam / step_size)[:, None]
        for _ in range(drift_substeps):
            state = w * state + (1.0 - w) * np.asarray(op.resolvent(step_size, state), dtype=float)
        # no flow between grid points: the left limit at t_j is prev
        return prev, state, pre_drift - state, dkd

    params = {"n": n_level, "drift_substeps": drift_substeps}
    return _run_chunk(op, coeff, realizations, scheme, params, step)


def yosida_chunk(op: MonotoneOperator, n: float, coeff: Coefficient, realizations,
                 drift_substeps: int = 1) -> list:
    """``yosida_scheme`` on each realization of a chunk, marched together;
    returns per realization its SchemeOutput or its ExplosionError."""
    return _yosida_chunk(op, None, n, coeff, realizations, drift_substeps, "yosida")


def modified_yosida_chunk(op: MonotoneOperator, proj: Projection, n: float,
                          coeff: Coefficient, realizations,
                          drift_substeps: int = 1) -> list:
    """``modified_yosida_scheme`` on each realization of a chunk, marched
    together; returns per realization its SchemeOutput or its ExplosionError."""
    return _yosida_chunk(op, proj, n, coeff, realizations, drift_substeps,
                         "modified_yosida")


def yosida_scheme(op: MonotoneOperator, n: float, coeff: Coefficient,
                  realization: DriverRealization,
                  drift_substeps: int = 1) -> SchemeOutput:
    """Explicit driver increments, implicit Yosida drift at stiffness n >= 1.

    No projection is applied: the drift -A_n supplies the soft reflection.
    Iterates converge pointwise at continuity times and through J_n in the
    sup norm, but the raw iterates may leave the domain by O(1/n).  H_0 must
    lie in the domain closure, as for ``euler_scheme``: the approximated
    solution starts there.
    """
    return _single(yosida_chunk(op, n, coeff, [realization], drift_substeps))


def modified_yosida_scheme(op: MonotoneOperator, proj: Projection, n: float,
                           coeff: Coefficient, realization: DriverRealization,
                           drift_substeps: int = 1) -> SchemeOutput:
    """Yosida scheme with projection correction at large driver jumps.

    At grid points where the driver genuinely jumps and
    max(|dH|, |dZ|) > 1/n, the post-increment state is replaced by its
    generalized projection before the drift step; elsewhere identical to
    ``yosida_scheme``, including the check that H_0 lies in the domain
    closure.
    """
    return _single(modified_yosida_chunk(op, proj, n, coeff, [realization],
                                         drift_substeps))
