"""Monte Carlo convergence studies, scheme comparisons, and property checks.

Trajectories are deterministic functions of (config, master seed, trajectory
index), results are reduced in index order, and tables are formatted with
exact float reprs, so a study is reproducible byte-for-byte no matter how
many workers execute it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import (
    ExperimentConfig,
    build_coefficient,
    build_driver,
    build_operator,
    build_projection,
)
from .drivers import Chunk, _simulate
from .errors import ConfigError
from .operators import DEFAULT_DOMAIN_TOL, resolve, row_norm, yosida_a, yosida_j
from .paths import Partition, StepPath, refine, uniform_partition
from .projections import project_classical
from .schemes import (
    _euler,
    _yosida,
    euler_scheme,
    modified_yosida_scheme,
    resolvent_of_yosida_step,
    yosida_scheme,
)
from .skorokhod import (
    pair_inequality_report,
    reflect_halfline_oracle,
    solve_step,
    solve_steps,
    verify_solution,
)

__all__ = [
    "ErrorRow",
    "ErrorTable",
    "run_convergence",
    "compare_schemes",
    "CheckResult",
    "verify_suite",
]
_TRACED = (solve_step,)  # bench/tracing.py patches and times this name of the module

_P_THRESHOLDS = (1e-1, 1e-2)
# Trajectories simulated at once (converge: on the reference grid, each level
# restricted from it) and marched together, each level or (scheme, n) as more
# rows; memory grows with chunk x runs x grid size.
_CHUNK_TRAJECTORIES = 64


@dataclass(frozen=True)
class ErrorRow:
    """The errors of one (level, scheme, checkpoint) over ``n_traj`` trajectories.
    ``std_err`` is the sample standard deviation (ddof=1) of the per-trajectory
    errors, not the standard error of ``mean_err`` (``std_err / sqrt(n_traj)``)."""

    level: int
    scheme: str
    checkpoint: float
    mean_err: float
    std_err: float
    sup_err: float
    p_gt_1e1: float
    p_gt_1e2: float
    n_traj: int


@dataclass
class ErrorTable:
    """A study's ErrorRows: each ``std_err`` is the sample standard deviation
    (ddof=1) of the per-trajectory errors, not the standard error of ``mean_err``."""

    rows: list = field(default_factory=list)
    reference: str = ""

    def to_csv(self) -> str:
        lines = [f"# reference={self.reference}"]
        lines.append("level,scheme,checkpoint,mean_err,std_err,sup_err,"
                     "p_gt_1e-1,p_gt_1e-2,n_traj")
        for r in self.rows:
            floats = (r.checkpoint, r.mean_err, r.std_err, r.sup_err, r.p_gt_1e1, r.p_gt_1e2)
            lines.append(",".join([str(r.level), r.scheme, *(repr(float(v)) for v in floats),
                                   str(r.n_traj)]))
        return "\n".join(lines) + "\n"


class _Context:
    """The objects of an ExperimentConfig (validated first), built once per
    study and shared by its batches; a worker process builds its own."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg.validate()
        self.op = build_operator(cfg.operator)
        self.proj = build_projection(cfg.projection)
        self.coeff = build_coefficient(cfg.coefficient, self.op.dimension)
        self.driver = build_driver(cfg.driver, self.op.dimension)
        # every scheme, and the solution it approximates, starts at H_0
        dist = self.op.domain_distance(self.driver.h0)
        if dist > DEFAULT_DOMAIN_TOL:
            raise ConfigError("driver.h0",
                              f"outside the operator's domain closure (distance {dist:.3e})")
        parts = [uniform_partition(cfg.horizon, cfg.levels[0])]
        for prev, nxt in zip(cfg.levels, cfg.levels[1:]):
            parts.append(refine(parts[-1], nxt // prev))
        self.partitions = parts
        self.reference_partition = refine(parts[-1], cfg.reference_refine)
        self.checkpoints = cfg.checkpoints

    def __reduce__(self):  # the built objects hold closures; the config pickles
        return _Context, (self.cfg,)

    def run_scheme(self, scheme: str, realization):
        """One run of ``scheme`` on ``realization``; the Yosida schemes run at
        the finest Yosida level."""
        if scheme == "euler":
            return euler_scheme(self.op, self.proj, self.coeff, realization,
                                self.cfg.flow_substeps)
        if not self.cfg.yosida_levels:
            raise ConfigError("experiment.yosida_levels", f"{scheme} needs at least one level")
        args = (self.cfg.yosida_levels[-1], self.coeff, realization, self.cfg.drift_substeps)
        if scheme == "yosida":
            return yosida_scheme(self.op, *args)
        return modified_yosida_scheme(self.op, self.proj, *args)

    def oracle_applies(self) -> bool:
        """Closed-form reference: reflection on [0, inf) under additive noise."""
        spec = self.op.spec or {}
        return (spec.get("kind") == "halfspace" and self.op.dimension == 1
                and spec["normal"][0] < 0 and spec["offset"] == 0.0
                and self.proj.kind == "classical"
                and (self.coeff.spec or {}).get("kind") == "constant")

    def oracle_x(self, chunk) -> np.ndarray:
        """The half-line reflection of each row's driving input, flat on the chunk."""
        fmat = np.asarray(self.coeff.spec["matrix"], dtype=float)
        x = np.empty_like(chunk.h)
        for lo, hi in zip(chunk.starts.tolist(), chunk.starts[1:].tolist()):
            y = StepPath(Partition(chunk.times[lo:hi]), chunk.h[lo:hi] + chunk.z[lo:hi] @ fmat.T)
            x[lo:hi] = reflect_halfline_oracle(y).x.values
        return x


def _norm(diff: np.ndarray, axis=None):
    """The norm of each vector along the last axis, which is ``np.linalg.norm``
    of a vector bit for bit (``row_norm``), or ``np.linalg.norm`` along
    ``axis``; ``hypot`` where only the squares overflow (above 1e154)."""
    with np.errstate(over="ignore"):
        norm = row_norm(diff) if axis is None else np.linalg.norm(diff, axis=axis)
        if np.isinf(norm).any():
            norm = np.where(np.isinf(norm), np.hypot.reduce(diff, axis=-1), norm)
    return norm


def _at(chunk, times) -> np.ndarray:
    """Per row of ``chunk``, the point whose value holds at each of ``times``
    (the path is right-continuous): (rows, times)."""
    before = chunk.times[:, None] <= np.asarray(times)
    return chunk.starts[:-1, None] - 1 + np.add.reduceat(before, chunk.starts[:-1], dtype=np.intp)


def _errors(march, x, sup_x, fine, ref, fine_of, times):
    """Per run r and row b, the error of x at each of ``times`` (runs, B, times)
    and the largest error of ``sup_x`` over the grid (runs, B), where march row
    r B + b runs fine row b, ``ref`` is flat on ``fine`` and march point i lies
    at fine point ``fine_of[i]``."""
    width = len(fine.trajectory)
    sup = np.maximum.reduceat(_norm(sup_x - ref[fine_of], axis=1), march.starts[:-1])
    at = x[_at(march, times)].reshape(-1, width, len(times), x.shape[1])
    return _norm(at - ref[_at(fine, times)]), sup.reshape(-1, width)


def _explosions(errors: dict, width: int, first_run: int = 0) -> dict:
    """A march's ExplosionErrors, row r keyed (chunk position, run) = (r % width,
    first_run + r // width), with run 0, the reference, marked.  Runs are
    numbered in the order of the per-trajectory loop, so the smallest key
    names the error that loop would have raised first."""
    for r, err in errors.items():
        err.reference = first_run + r // width == 0
    return {(r % width, first_run + r // width): err for r, err in errors.items()}


# ---------------------------------------------------------------------------
# convergence study (Euler scheme across partition levels)


def _chunks(indices):
    for lo in range(0, len(indices), _CHUNK_TRAJECTORIES):
        yield indices[lo:lo + _CHUNK_TRAJECTORIES]


def _convergence_batch(ctx: _Context, indices):
    cfg = ctx.cfg
    use_oracle = ctx.oracle_applies()
    # run 0 is the reference (unless the oracle gives it), then run 1 + li
    # the level li: its rows are the reference rows under a mask
    parts = [*([] if use_oracle else [ctx.reference_partition]), *ctx.partitions]
    out = []
    for chunk in _chunks(indices):
        fine = _simulate(ctx.driver, ctx.reference_partition, cfg.seed, chunk)
        march, fine_of = fine.restrict(parts)
        x, *_, errors = _euler(ctx.op, ctx.proj, ctx.coeff, march, cfg.flow_substeps)
        errors = _explosions(errors, len(chunk), first_run=int(use_oracle))
        if errors:
            raise errors[min(errors)]
        ref = ctx.oracle_x(fine) if use_oracle else x[:fine.times.size]
        cp_err, sup_err = _errors(march, x, x, fine, ref, fine_of,
                                  [cp.time for cp in ctx.checkpoints])
        levels = len(ctx.partitions)
        out.append((cp_err[-levels:].transpose(1, 0, 2), sup_err[-levels:].T))
    return out


def _map_batches(ctx: _Context, batch_fn) -> list:
    """``batch_fn``'s tuples of arrays, one per chunk of the config's trajectories,
    joined in order; with one worker every batch runs on ``ctx``."""
    n, workers = ctx.cfg.trajectories, ctx.cfg.workers
    indices = list(range(n))
    if workers <= 1:
        parts = batch_fn(ctx, indices)
    else:
        # imported here: concurrent.futures and multiprocessing cost every
        # fresh interpreter about 14 ms, and a single worker needs neither
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, (n + workers * 4 - 1) // (workers * 4))
        chunks = [indices[i:i + chunk] for i in range(0, n, chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = [p for part in pool.map(batch_fn, [ctx] * len(chunks), chunks) for p in part]
    return [np.concatenate(arrays) for arrays in zip(*parts)]


def _aggregate_rows(level: int, scheme: str, checkpoints, cp_err: np.ndarray,
                    sup_err: np.ndarray) -> list:
    n = cp_err.shape[0]
    sup_mean = float(np.mean(sup_err))
    rows = []
    for ci, cp in enumerate(checkpoints):
        errs = cp_err[:, ci]
        rows.append(ErrorRow(
            level=level,
            scheme=scheme,
            checkpoint=cp.time,
            mean_err=float(np.mean(errs)),
            std_err=float(np.std(errs, ddof=1)) if n > 1 else 0.0,
            sup_err=sup_mean,
            p_gt_1e1=float(np.mean(errs > _P_THRESHOLDS[0])),
            p_gt_1e2=float(np.mean(errs > _P_THRESHOLDS[1])),
            n_traj=n,
        ))
    return rows


def run_convergence(cfg: ExperimentConfig) -> ErrorTable:
    """Euler-scheme errors across partition levels, aggregated per checkpoint.

    Each trajectory uses one driver realization on the reference grid, and
    every level reads its own off it (``Chunk.restrict``).  The reference is
    the closed-form half-line reflection of the driving input on that grid when
    it applies (one-dimensional half-line operator, classical projection,
    constant coefficient), and otherwise the scheme itself on it
    (self-reference, labelled in the table header).  A chunk of trajectories
    runs its reference and every level as the rows of one Euler march.
    """
    ctx = _Context(cfg)
    reference = ("ORACLE reflect_halfline on driving input," if ctx.oracle_applies()
                 else "SELF-REFERENCE euler at") + f" grid={cfg.levels[-1] * cfg.reference_refine}"
    # (traj, level, checkpoint) and (traj, level)
    cp_err, sup_err = _map_batches(ctx, _convergence_batch)
    table = ErrorTable(reference=reference)
    for li, level in enumerate(cfg.levels):
        table.rows.extend(_aggregate_rows(level, "euler", ctx.checkpoints,
                                          cp_err[:, li, :], sup_err[:, li]))
    return table


# ---------------------------------------------------------------------------
# scheme comparison (Yosida and modified Yosida against fine Euler)


def _compare_batch(ctx: _Context, indices):
    cfg = ctx.cfg
    cps = [cp.time for cp in ctx.checkpoints if cp.continuity_expected]
    n_lv = len(cfg.yosida_levels)
    out = []
    for chunk in _chunks(indices):
        # run 0 is the reference; one march then runs Yosida (1 + 2 li) and modified
        # Yosida (2 + 2 li) at every level li, each in the reference rows' layout
        reals = _simulate(ctx.driver, ctx.partitions[-1], cfg.seed, chunk)
        ref, *_, ref_errors = _euler(ctx.op, ctx.proj, ctx.coeff, reals, cfg.flow_substeps)
        width = len(chunk)
        # each run in the reference rows' own layout: their columns tiled, not masked
        fine_of = np.tile(np.arange(reals.times.size), 2 * n_lv)
        runs = Chunk(*(a[fine_of] for a in (reals.times, reals.h, reals.z, reals.jump_flags,
                                            reals.jump_h, reals.jump_z)),
                     np.r_[0, np.cumsum(np.tile(np.diff(reals.starts), 2 * n_lv))],
                     reals.trajectory * (2 * n_lv), np.tile(reals.level, 2 * n_lv))
        levels = np.repeat(cfg.yosida_levels, 2 * width)
        schemes = np.repeat(np.tile(["yosida", "modified_yosida"], n_lv), width)
        x, *_, errors = _yosida(ctx.op, ctx.proj, levels, ctx.coeff, runs, schemes,
                                cfg.drift_substeps)
        errors = {**_explosions(ref_errors, width), **_explosions(errors, width, first_run=1)}
        if errors:
            raise errors[min(errors)]
        # Yosida rows report the sup error of J_n(x), one step per point
        counts = np.diff(runs.starts)
        sup_x, yosida = x.copy(), np.repeat(schemes == "yosida", counts)
        sup_x[yosida] = ctx.op.resolvent(np.repeat(1.0 / levels, counts)[yosida], x[yosida])
        cp_err, sup_err = _errors(runs, x, sup_x, reals, ref, fine_of, cps)
        cp_err = cp_err.reshape(n_lv, 2, width, -1).transpose(1, 2, 0, 3)
        sup_err = sup_err.reshape(n_lv, 2, width).transpose(1, 2, 0)
        out.append((*cp_err, *sup_err))
    return out


def compare_schemes(cfg: ExperimentConfig) -> ErrorTable:
    """Yosida and modified-Yosida errors against a fine-grid Euler reference.

    All schemes run on identical realizations on the finest partition level
    (mesh fine relative to the largest stiffness).  Yosida rows report
    pointwise errors at continuity checkpoints and the sup error of the
    resolvent-smoothed iterates J_n(X^n); modified-Yosida rows report the
    plain sup error, which is the mode in which that scheme converges.  A
    chunk of trajectories takes two marches: the Euler reference, then both
    Yosida schemes at every level n, one row per (scheme, n, trajectory).
    """
    ctx = _Context(cfg)
    if not cfg.yosida_levels:
        raise ConfigError("experiment.yosida_levels", "compare needs at least one level")
    cps = [cp for cp in ctx.checkpoints if cp.continuity_expected]
    if not cps:
        raise ConfigError("experiment.checkpoints",
                          "compare needs at least one continuity checkpoint")
    reference = f"EULER-REFERENCE grid={cfg.levels[-1]} (same realizations)"
    cp_y, cp_m, sup_jy, sup_m = _map_batches(ctx, _compare_batch)
    table = ErrorTable(reference=reference)
    for scheme, cp, sup in (("yosida", cp_y, sup_jy), ("modified_yosida", cp_m, sup_m)):
        for li, n_level in enumerate(cfg.yosida_levels):
            table.rows.extend(_aggregate_rows(n_level, scheme, cps, cp[:, li, :], sup[:, li]))
    return table


# ---------------------------------------------------------------------------
# randomized property suite


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "worst": self.worst,
                "tolerance": self.tolerance, "detail": self.detail}


_ALL_CHECKS = (
    "projection_identity",
    "projection_lipschitz",
    "projection_firm",
    "resolvent_nonexpansive",
    "resolvent_identity",
    "resolvent_range",
    "yosida_lipschitz",
    "yosida_monotone",
    "yosida_gap",
    "implicit_drift_identity",
    "skorokhod_definition",
    "pair_inequalities",
)


def _random_step_path(rng, op, partition, scale=1.0) -> StepPath:
    d = op.dimension
    start = project_classical(op, rng.normal(0.0, scale, size=d))
    jumps = rng.normal(0.0, scale, size=(partition.times.size - 1, d))
    vals = np.vstack([start, start + np.cumsum(jumps, axis=0)])
    return StepPath(partition, vals)


def verify_suite(cfg: ExperimentConfig, checks=None, samples: int = 2000) -> dict:
    """Randomized verification of the operator/projection/solver properties.

    Returns a machine-readable report: name -> CheckResult with the
    worst-case residual.  Each point-wise check maps its whole sample with
    one batched call; every check draws at least one point, and the Skorokhod
    checks solve all their step paths in one ``solve_steps`` call and check them
    in one call of each checker, on the list of its solutions or pairs.  An
    explicit empty ``checks`` list yields an empty report.
    """
    if checks is None:
        checks = _ALL_CHECKS
    op = build_operator(cfg.operator)
    proj = build_projection(cfg.projection)
    rng = np.random.default_rng(cfg.seed)
    d = op.dimension
    report: dict[str, CheckResult] = {}

    def record(name, worst, tol, larger_fails=True, detail=""):
        passed = worst <= tol if larger_fails else worst >= tol
        report[name] = CheckResult(name=name, passed=bool(passed),
                                   worst=float(worst), tolerance=float(tol),
                                   detail=detail)

    def draw(k, least=1):
        # samples // k random points, and never none
        return rng.normal(0.0, 2.0, size=(max(least, samples // k), d))

    if "projection_identity" in checks:
        pts = project_classical(op, draw(2))
        moved = np.asarray(proj(op, pts), dtype=float)
        worst = float(np.max(np.linalg.norm(moved - pts, axis=1)))
        # a projected point lies on a slanted or curved boundary only up to
        # rounding (up to Dykstra's tolerance on a polyhedron), so projecting
        # it again may move it slightly
        tol = proj.tol if proj.kind == "elastic_iterated" else 1e-10
        record("projection_identity", worst, tol,
               detail="domain points must be fixed")

    if "projection_lipschitz" in checks:
        za, zb = draw(1), draw(1)
        pa = np.asarray(proj(op, za), dtype=float)
        pb = np.asarray(proj(op, zb), dtype=float)
        record("projection_lipschitz", np.max(row_norm(pa - pb) - row_norm(za - zb)), 1e-10,
               detail="|Pi z - Pi z'| <= |z - z'|")

    if "projection_firm" in checks:
        za, zb = draw(1), draw(1)
        dp = project_classical(op, za) - project_classical(op, zb)
        record("projection_firm", np.max(np.vecdot(dp, dp) - np.vecdot(dp, za - zb)), 1e-10,
               detail="classical projection is firmly non-expansive")

    if "resolvent_nonexpansive" in checks:
        worst = -np.inf
        for lam in (0.05, 0.5, 5.0):
            za, zb = draw(3), draw(3)
            dj = resolve(op, lam, za) - resolve(op, lam, zb)
            worst = max(worst, np.max(row_norm(dj) - row_norm(za - zb)))
        record("resolvent_nonexpansive", worst, 1e-12)

    if "resolvent_identity" in checks:
        worst = 0.0
        for lam, mu in ((1.0, 0.25), (2.0, 2.0), (0.5, 0.1)):
            z = draw(3)
            jl = resolve(op, lam, z)
            rhs = resolve(op, mu, (mu / lam) * z + (1.0 - mu / lam) * jl)
            worst = max(worst, np.max(row_norm(jl - rhs)))
        record("resolvent_identity", worst, 1e-9)

    if "resolvent_range" in checks:
        worst = 0.0
        for lam in (0.1, 1.0):
            worst = max(worst, np.max(op.domain_distance(resolve(op, lam, draw(2)))))
        record("resolvent_range", worst, 1e-8,
               detail="resolvent values lie in the domain closure")

    if "yosida_lipschitz" in checks:
        worst = -np.inf
        for n in (1.0, 10.0, 100.0):
            za, zb = draw(3), draw(3)
            da = yosida_a(op, n, za) - yosida_a(op, n, zb)
            worst = max(worst, np.max(row_norm(da) - n * row_norm(za - zb)))
        record("yosida_lipschitz", worst, 1e-10)

    if "yosida_monotone" in checks:
        worst = np.inf
        for n in (1.0, 10.0, 100.0):
            za, zb = draw(3), draw(3)
            da = yosida_a(op, n, za) - yosida_a(op, n, zb)
            worst = min(worst, np.min(np.vecdot(za - zb, da) - np.vecdot(da, da) / n))
        record("yosida_monotone", worst, -1e-10, larger_fails=False,
               detail="<z-z', A_n z - A_n z'> >= |A_n z - A_n z'|^2 / n")

    if "yosida_gap" in checks:
        z = draw(100, least=10)
        target = project_classical(op, z)
        gaps = np.stack([row_norm(yosida_j(op, n, z) - target) for n in (1, 10, 100, 1000)])
        # the absolute final-gap bound applies where the resolvent is the
        # projection (exact zero); elsewhere require a hundredfold decay
        bound = 1e-3 if op.projection_resolvent else np.max(gaps[0]) / 100.0 + 1e-12
        record("yosida_gap", max(np.max(np.diff(gaps, axis=0)), np.max(gaps[-1]) - bound), 1e-12,
               detail="J_n -> classical projection, monotonically")

    if "implicit_drift_identity" in checks:
        z = draw(2, least=10)
        # a fresh (lam, mu) per point, drawn point by point in that order
        lam, mu = rng.uniform([0.05, 0.01], [2.0, 1.0], size=(len(z), 2)).T
        y = resolvent_of_yosida_step(op, lam, mu, z)
        resid = row_norm(y + mu[:, None] * yosida_a(op, 1.0 / lam, y) - z)
        record("implicit_drift_identity", max(0.0, np.max(resid)), 1e-9)

    if "skorokhod_definition" in checks or "pair_inequalities" in checks:
        partition = uniform_partition(1.0, 25)
        pairs = []
        if op.graph_sample is not None:
            for z in rng.normal(0.0, 0.5, size=(5, d)):
                alpha = project_classical(op, z)
                beta = op.graph_sample(alpha)
                if beta is not None:
                    pairs.append((alpha, beta))
        # all paths are drawn first, in the checks' order (solving draws nothing)
        first = 5 * ("skorokhod_definition" in checks)
        sols = solve_steps(op, proj, [_random_step_path(rng, op, partition) for _ in
                                      range(first + 10 * ("pair_inequalities" in checks))])
        if first:  # each checker takes all its solutions in one call
            worst, mono = 0.0, 0.0
            for rep in verify_solution(op, proj, sols[:first], test_pairs=pairs):
                worst = max(worst, rep.additivity_residual,
                            rep.jump_condition_residual, -rep.jump_bound_margin)
                mono = min(mono, rep.monotonicity_worst)
            record("skorokhod_definition", max(worst, -mono - 1e-9), 1e-9,
                   detail="solve_step outputs satisfy the defining conditions")
        if "pair_inequalities" in checks:
            worst = np.inf
            for rep in pair_inequality_report(op, sols[first::2], sols[first + 1::2]):
                worst = min(worst, rep.worst_bracket, rep.worst_distance_slack)
            record("pair_inequalities", worst, -1e-8, larger_fails=False,
                   detail="two-solution comparison inequalities")

    return report
