"""Approximation schemes for the reflected jump SDE

    X_t + K_t = H_t + int_0^t <f(X_{s-}), dZ_s>

driven by a maximal monotone operator A and a generalized projection.

Three schemes operate on a driver realization's grid:

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

``truncate`` builds the globally Lipschitz localization of a locally
Lipschitz coefficient, and ``run_truncated`` escalates the truncation radius
until the trajectory stays inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .drivers import DriverRealization
from .errors import DomainViolationError, NonConvergenceError
from .operators import DEFAULT_DOMAIN_TOL, MonotoneOperator, resolve
from .paths import BVDecomposition, StepPath
from .projections import Projection
from .skorokhod import DEFAULT_FLOW_SUBSTEPS, _sp_step

__all__ = [
    "Coefficient",
    "constant_coefficient",
    "zero_coefficient",
    "SchemeOutput",
    "euler_scheme",
    "yosida_scheme",
    "modified_yosida_scheme",
    "resolvent_of_yosida_step",
    "truncate",
    "run_truncated",
]


@dataclass(eq=False)
class Coefficient:
    """Matrix-valued coefficient x -> f(x) in R^{d x d}.

    ``lipschitz`` declares a global constant; locally Lipschitz coefficients
    declare a ``growth`` bound ||f(x)|| <= growth * (1 + |x|) together with
    ``local_lipschitz``, a map radius -> constant on that ball, and must be
    run through ``truncate``.  ``evaluations`` counts calls (per-process
    diagnostic only).
    """

    f: Callable[[np.ndarray], np.ndarray]
    lipschitz: float | None = None
    growth: float | None = None
    local_lipschitz: Callable[[float], float] | None = None
    spec: dict | None = None
    evaluations: int = field(default=0, compare=False)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.evaluations += 1
        out = np.asarray(self.f(x), dtype=float)
        d = x.size
        if out.shape != (d, d):
            raise ValueError(f"coefficient must return a {d}x{d} matrix, got {out.shape}")
        return out

    @property
    def globally_lipschitz(self) -> bool:
        return self.lipschitz is not None


def constant_coefficient(matrix) -> Coefficient:
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    if m.shape[0] != m.shape[1] or not np.all(np.isfinite(m)):
        raise ValueError("coefficient matrix must be square and finite")
    return Coefficient(
        f=lambda x: m,
        lipschitz=0.0,
        spec={"kind": "constant", "matrix": m.tolist()},
    )


def zero_coefficient(dimension: int) -> Coefficient:
    return constant_coefficient(np.zeros((dimension, dimension)))


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


def _output(grid, y_vals, x_vals, kc_vals, kd_vals, scheme, params, realization,
            x_pre=None):
    y = StepPath(grid, y_vals)
    x = StepPath(grid, x_vals)
    # total = continuous + jump bitwise; additivity to y holds to rounding
    k_cont = StepPath(grid, kc_vals)
    k_jump = StepPath(grid, kd_vals)
    k_total = StepPath(grid, kc_vals + kd_vals)
    return SchemeOutput(
        x=x,
        k=BVDecomposition(total=k_total, continuous=k_cont, jump=k_jump),
        y=y,
        scheme=scheme,
        params=params,
        realization=realization,
        x_pre=x_pre,
    )


def _checked_start(op: MonotoneOperator, realization: DriverRealization) -> np.ndarray:
    """H_0, which every scheme needs in the domain closure of A."""
    h0 = realization.h.values[0]
    dist = op.domain_distance(h0)
    if dist > DEFAULT_DOMAIN_TOL:
        raise DomainViolationError(
            f"H_0 outside the domain closure (distance {dist:.3e})",
            point=h0, distance=dist,
        )
    return h0


def euler_scheme(op: MonotoneOperator, proj: Projection, coeff: Coefficient,
                 realization: DriverRealization,
                 flow_substeps: int = DEFAULT_FLOW_SUBSTEPS) -> SchemeOutput:
    """Skorokhod-step discretization on the realization grid.

    Starts from H_0 (which must lie in the domain closure); each step flows
    over the interval, then projects the flow endpoint plus the driver
    increment dH + f(X_prev) dZ.
    """
    grid = realization.grid
    times = grid.times
    h = realization.h.values
    z = realization.z.values
    d = realization.dimension
    h0 = _checked_start(op, realization)

    n = times.size
    x_vals = np.empty((n, d))
    y_vals = np.empty((n, d))
    x_pre = np.empty((n, d))
    kc_vals = np.zeros((n, d))
    kd_vals = np.zeros((n, d))
    x_vals[0] = h0
    y_vals[0] = h0
    x_pre[0] = h0

    prev = h0
    y_run = h0
    kc = np.zeros(d)
    kd = np.zeros(d)
    for j in range(1, n):
        dt = times[j] - times[j - 1]
        dy = (h[j] - h[j - 1]) + coeff(prev) @ (z[j] - z[j - 1])
        x_left, xi, dkc, dkd = _sp_step(op, proj, prev, dy, dt, flow_substeps)
        kc = kc + dkc
        kd = kd + dkd
        y_run = y_run + dy
        x_pre[j] = x_left
        x_vals[j] = xi
        y_vals[j] = y_run
        kc_vals[j] = kc
        kd_vals[j] = kd
        prev = xi

    params = {"mesh": grid.mesh, "flow_substeps": flow_substeps,
              "steps": n - 1}
    return _output(grid, y_vals, x_vals, kc_vals, kd_vals, "euler", params,
                   realization, x_pre=x_pre)


def resolvent_of_yosida_step(op: MonotoneOperator, lam: float, mu: float, x) -> np.ndarray:
    """One implicit step of size mu for the Yosida drift -A_lam.

    A_lam = (I - J_lam)/lam is Lipschitz with constant 1/lam, so an explicit
    step would need mu < 2 lam to be stable.  The identity

        (I + mu A_lam)^{-1}(x) = (lam x + mu J_{lam+mu}(x)) / (lam + mu)

    reduces the implicit (unconditionally stable) step to a single resolvent
    call and is exact for any maximal monotone operator.
    """
    lam = float(lam)
    mu = float(mu)
    if lam <= 0 or mu <= 0:
        raise ValueError("lam and mu must be positive")
    j = resolve(op, lam + mu, x)
    w = lam / (lam + mu)
    return w * np.asarray(x, dtype=float) + (1.0 - w) * j


def _yosida_run(op: MonotoneOperator, proj: Projection | None, n_level: float,
                coeff: Coefficient, realization: DriverRealization,
                drift_substeps: int, scheme: str) -> SchemeOutput:
    grid = realization.grid
    times = grid.times
    h = realization.h.values
    z = realization.z.values
    d = realization.dimension
    h0 = _checked_start(op, realization)
    lam = 1.0 / float(n_level)
    threshold = 1.0 / float(n_level)

    n = times.size
    x_vals = np.empty((n, d))
    y_vals = np.empty((n, d))
    kc_vals = np.zeros((n, d))
    kd_vals = np.zeros((n, d))
    x_vals[0] = h0
    y_vals[0] = h0

    prev = h0
    y_run = h0
    kc = np.zeros(d)
    kd = np.zeros(d)
    modified = scheme == "modified_yosida"
    for j in range(1, n):
        dt = times[j] - times[j - 1]
        dy = (h[j] - h[j - 1]) + coeff(prev) @ (z[j] - z[j - 1])
        state = prev + dy
        if modified and realization.jump_flags[j]:
            size = max(float(np.linalg.norm(realization.jump_h[j])),
                       float(np.linalg.norm(realization.jump_z[j])))
            if size > threshold:
                corrected = np.asarray(proj(op, state), dtype=float)
                kd = kd + (state - corrected)
                state = corrected
        pre_drift = state
        mu = dt / drift_substeps
        w = lam / (lam + mu)
        for _ in range(drift_substeps):
            state = w * state + (1.0 - w) * np.asarray(op.resolvent(lam + mu, state), dtype=float)
        kc = kc + (pre_drift - state)
        y_run = y_run + dy
        x_vals[j] = state
        y_vals[j] = y_run
        kc_vals[j] = kc
        kd_vals[j] = kd
        prev = state

    params = {"n": n_level, "mesh": grid.mesh, "drift_substeps": drift_substeps,
              "steps": n - 1}
    return _output(grid, y_vals, x_vals, kc_vals, kd_vals, scheme, params,
                   realization)


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
    if not (n >= 1):
        raise ValueError("Yosida level must satisfy n >= 1")
    return _yosida_run(op, None, n, coeff, realization, drift_substeps, "yosida")


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
    if not (n >= 1):
        raise ValueError("Yosida level must satisfy n >= 1")
    return _yosida_run(op, proj, n, coeff, realization, drift_substeps,
                       "modified_yosida")


def truncate(coeff: Coefficient, radius: float) -> Coefficient:
    """Globally Lipschitz localization of a locally Lipschitz coefficient.

    Agrees with f on the ball of the given radius, vanishes outside radius+1,
    and ramps down linearly in |x| in between.
    """
    if not (radius >= 1):
        raise ValueError("truncation radius must be >= 1")
    if coeff.growth is None and coeff.local_lipschitz is None:
        raise ValueError("truncate expects a coefficient with declared local bounds")
    base = coeff.f
    r = float(radius)

    def f_trunc(x):
        scale = np.clip(r + 1.0 - float(np.linalg.norm(x)), 0.0, 1.0)
        if scale == 0.0:
            d = x.size
            return np.zeros((d, d))
        out = np.asarray(base(x), dtype=float)
        return out if scale == 1.0 else scale * out

    lip = None
    if coeff.local_lipschitz is not None and coeff.growth is not None:
        lip = coeff.local_lipschitz(r + 1.0) + coeff.growth * (r + 2.0)
    return Coefficient(
        f=f_trunc,
        lipschitz=lip,
        growth=coeff.growth,
        local_lipschitz=coeff.local_lipschitz,
        spec={"kind": "truncated", "radius": r, "base": coeff.spec},
    )


def run_truncated(run: Callable[[Coefficient], SchemeOutput], coeff: Coefficient,
                  start_radius: float = 2.0,
                  max_escalations: int = 64) -> tuple[SchemeOutput, int, float]:
    """Run a scheme under truncation, growing the radius until it never binds.

    Reruns with a larger ball whenever the trajectory exits the current one;
    the returned output was computed with a radius containing the whole path,
    so it does not depend on the starting radius.  Returns (output,
    escalation count, final radius).
    """
    radius = float(start_radius)
    escalations = 0
    while True:
        out = run(truncate(coeff, radius))
        peak = float(np.max(np.linalg.norm(out.x.values, axis=1)))
        if peak <= radius:
            return out, escalations, radius
        escalations += 1
        if escalations > max_escalations:
            raise NonConvergenceError(
                f"truncation radius escalation exceeded {max_escalations} rounds",
                last=out.x.values[-1], residual=peak,
            )
        radius = max(radius + 1.0, float(np.ceil(peak)))
