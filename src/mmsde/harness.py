"""Monte Carlo convergence studies, scheme comparisons, and property checks.

Trajectories are deterministic functions of (config, master seed, trajectory
index), results are reduced in index order, and tables are formatted with
exact float reprs, so a study is reproducible byte-for-byte no matter how
many workers execute it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .config import (
    ExperimentConfig,
    build_coefficient,
    build_driver,
    build_operator,
    build_projection,
)
from .errors import ConfigError, ExplosionError
from .operators import DEFAULT_DOMAIN_TOL, resolve, row_norm, yosida_a, yosida_j
from .paths import StepPath, refine, uniform_partition
from .projections import project_classical
from .schemes import (
    euler_chunk,
    euler_scheme,
    modified_yosida_chunk,
    modified_yosida_scheme,
    resolvent_of_yosida_step,
    yosida_chunk,
    yosida_scheme,
)
from .skorokhod import (
    pair_inequality_report,
    reflect_halfline_oracle,
    solve_step,
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

_P_THRESHOLDS = (1e-1, 1e-2)
# Trajectories whose scheme runs are marched together; memory grows with the
# chunk times the grid size, whatever the trajectory count.
_CHUNK_TRAJECTORIES = 64


@dataclass(frozen=True)
class ErrorRow:
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
    rows: list = field(default_factory=list)
    reference: str = ""

    def to_csv(self) -> str:
        lines = [f"# reference={self.reference}"]
        lines.append("level,scheme,checkpoint,mean_err,std_err,sup_err,"
                     "p_gt_1e-1,p_gt_1e-2,n_traj")
        for r in self.rows:
            lines.append(",".join([
                str(r.level), r.scheme, repr(float(r.checkpoint)),
                repr(float(r.mean_err)), repr(float(r.std_err)),
                repr(float(r.sup_err)), repr(float(r.p_gt_1e1)),
                repr(float(r.p_gt_1e2)), str(r.n_traj),
            ]))
        return "\n".join(lines) + "\n"

    def select(self, scheme: str | None = None, level: int | None = None,
               checkpoint: float | None = None) -> list:
        out = self.rows
        if scheme is not None:
            out = [r for r in out if r.scheme == scheme]
        if level is not None:
            out = [r for r in out if r.level == level]
        if checkpoint is not None:
            out = [r for r in out if r.checkpoint == checkpoint]
        return out


@contextmanager
def _explosion_level(realization, reference: bool = False):
    """Add the partition level of the run on ``realization`` to its ExplosionError."""
    try:
        yield
    except ExplosionError as exc:
        raise exc.at_level(realization.base.times.size - 1, reference) from exc


class _Context:
    """Per-process materialization of an ExperimentConfig."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
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

    def run_scheme(self, scheme: str, realization):
        """One run of ``scheme`` on ``realization``; the Yosida schemes run at
        the finest Yosida level."""
        if scheme == "euler":
            return self.run_euler(realization)
        n_level = self.cfg.yosida_levels[-1]
        with _explosion_level(realization):
            if scheme == "yosida":
                return yosida_scheme(self.op, n_level, self.coeff, realization,
                                     self.cfg.drift_substeps)
            return modified_yosida_scheme(self.op, self.proj, n_level, self.coeff,
                                          realization, self.cfg.drift_substeps)

    def run_euler(self, realization, reference: bool = False):
        with _explosion_level(realization, reference):
            return euler_scheme(self.op, self.proj, self.coeff, realization,
                                self.cfg.flow_substeps)

    def euler_chunk(self, realizations) -> list:
        return euler_chunk(self.op, self.proj, self.coeff, realizations,
                           self.cfg.flow_substeps)

    def oracle_applies(self) -> bool:
        """Closed-form reference: reflection on [0, inf) under additive noise."""
        spec = self.op.spec or {}
        if spec.get("kind") != "halfspace" or self.op.dimension != 1:
            return False
        if not (spec["normal"][0] < 0 and spec["offset"] == 0.0):
            return False
        if self.proj.kind != "classical":
            return False
        return self.coeff.spec is not None and self.coeff.spec.get("kind") == "constant"

    def oracle_solution(self, realization) -> StepPath:
        fmat = np.asarray(self.coeff.spec["matrix"], dtype=float)
        y_vals = realization.h.values + realization.z.values @ fmat.T
        y = StepPath(realization.grid, y_vals)
        return reflect_halfline_oracle(y).x


def _checkpoint_errors(x: StepPath, ref: StepPath, checkpoints) -> np.ndarray:
    return np.asarray([
        float(np.linalg.norm(x.value_at(cp.time) - ref.value_at(cp.time)))
        for cp in checkpoints
    ])


def _grid_sup_error(x: StepPath, ref: StepPath) -> float:
    t = x.partition.times
    diff = x.values - ref.values_at(t)
    return float(np.max(np.linalg.norm(diff, axis=1)))


# ---------------------------------------------------------------------------
# convergence study (Euler scheme across partition levels)


def _chunks(indices):
    for lo in range(0, len(indices), _CHUNK_TRAJECTORIES):
        yield indices[lo:lo + _CHUNK_TRAJECTORIES]


def _run_live(run_chunk, reals, live, errors: dict, run: int,
              reference: bool = False) -> dict:
    """Paths x of ``run_chunk`` on ``reals[b]`` for the live chunk positions b.

    A position whose run exploded gets no path; its ExplosionError, with the
    run's level, goes to ``errors[(position, run)]``.  Runs are numbered in
    the order the per-trajectory loop makes them, so the smallest key names
    the error that loop would have raised first.
    """
    live_reals = [reals[b] for b in live]
    paths = {}
    for b, realization, res in zip(live, live_reals, run_chunk(live_reals)):
        if isinstance(res, ExplosionError):
            errors[(b, run)] = res.at_level(realization.base.times.size - 1, reference)
        else:
            paths[b] = res.x
    return paths


def _raise_first(errors: dict):
    if errors:
        raise errors[min(errors)]


def _convergence_batch(cfg: ExperimentConfig, indices):
    from .drivers import simulate

    ctx = _Context(cfg)
    use_oracle = ctx.oracle_applies()
    out = []
    for chunk in _chunks(indices):
        # run 0 is the reference, run 1 + li the level li
        errors = {}
        fine = [simulate(ctx.driver, ctx.reference_partition, cfg.seed, i) for i in chunk]
        if use_oracle:
            refs = {b: ctx.oracle_solution(r) for b, r in enumerate(fine)}
        else:
            refs = _run_live(ctx.euler_chunk, fine, range(len(chunk)), errors, 0,
                             reference=True)
        del fine
        levels = []
        live = list(refs)
        for part in ctx.partitions:
            reals = {b: simulate(ctx.driver, part, cfg.seed, chunk[b]) for b in live}
            levels.append(_run_live(ctx.euler_chunk, reals, live, errors, 1 + len(levels)))
            live = list(levels[-1])
        _raise_first(errors)
        for b, i in enumerate(chunk):
            cp_err = np.stack([_checkpoint_errors(xs[b], refs[b], ctx.checkpoints)
                               for xs in levels])
            sup_err = np.array([_grid_sup_error(xs[b], refs[b]) for xs in levels])
            out.append((i, cp_err, sup_err))
    return out


def _map_batches(cfg: ExperimentConfig, batch_fn, n: int, workers: int):
    indices = list(range(n))
    if workers <= 1:
        results = batch_fn(cfg, indices)
    else:
        chunk = max(1, (n + workers * 4 - 1) // (workers * 4))
        chunks = [indices[i:i + chunk] for i in range(0, n, chunk)]
        results = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(batch_fn, [cfg] * len(chunks), chunks):
                results.extend(part)
    results.sort(key=lambda item: item[0])
    return results


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

    Each trajectory uses one driver realization consistently refined across
    levels.  The reference is the closed-form half-line reflection of the
    driving input on a refined grid when it applies (one-dimensional
    half-line operator, classical projection, constant coefficient), and
    otherwise the scheme itself on the refined grid (self-reference, labelled
    in the table header).
    """
    cfg.validate()
    ctx = _Context(cfg)
    if ctx.oracle_applies():
        reference = (f"ORACLE reflect_halfline on driving input, "
                     f"grid={cfg.levels[-1] * cfg.reference_refine}")
    else:
        reference = (f"SELF-REFERENCE euler at "
                     f"grid={cfg.levels[-1] * cfg.reference_refine}")
    results = _map_batches(cfg, _convergence_batch, cfg.trajectories, cfg.workers)
    cp_err = np.stack([r[1] for r in results])   # (traj, level, checkpoint)
    sup_err = np.stack([r[2] for r in results])  # (traj, level)
    table = ErrorTable(reference=reference)
    for li, level in enumerate(cfg.levels):
        table.rows.extend(_aggregate_rows(level, "euler", ctx.checkpoints,
                                          cp_err[:, li, :], sup_err[:, li]))
    return table


# ---------------------------------------------------------------------------
# scheme comparison (Yosida and modified Yosida against fine Euler)


def _compare_batch(cfg: ExperimentConfig, indices):
    from .drivers import simulate

    ctx = _Context(cfg)
    cps = [cp for cp in ctx.checkpoints if cp.continuity_expected]
    n_lv = len(cfg.yosida_levels)
    out = []
    for chunk in _chunks(indices):
        # run 0 is the reference; level li runs Yosida (1 + 2 li), then
        # modified Yosida (2 + 2 li)
        errors = {}
        reals = [simulate(ctx.driver, ctx.partitions[-1], cfg.seed, i) for i in chunk]
        refs = _run_live(ctx.euler_chunk, reals, range(len(chunk)), errors, 0,
                         reference=True)
        runs = []  # (Yosida paths, modified-Yosida paths) per level
        live = list(refs)
        for n_level in cfg.yosida_levels:
            ys = _run_live(lambda rs: yosida_chunk(ctx.op, n_level, ctx.coeff, rs,
                                                   cfg.drift_substeps),
                           reals, live, errors, 1 + 2 * len(runs))
            ms = _run_live(lambda rs: modified_yosida_chunk(ctx.op, ctx.proj, n_level,
                                                            ctx.coeff, rs, cfg.drift_substeps),
                           reals, list(ys), errors, 2 + 2 * len(runs))
            live = list(ms)
            runs.append((ys, ms))
        _raise_first(errors)
        for b, i in enumerate(chunk):
            ref = refs[b]
            cp_y = np.empty((n_lv, len(cps)))
            cp_m = np.empty((n_lv, len(cps)))
            sup_jy = np.empty(n_lv)
            sup_m = np.empty(n_lv)
            for li, (n_level, (ys, ms)) in enumerate(zip(cfg.yosida_levels, runs)):
                cp_y[li] = _checkpoint_errors(ys[b], ref, cps)
                cp_m[li] = _checkpoint_errors(ms[b], ref, cps)
                jn_vals = ctx.op.resolvent(1.0 / n_level, ys[b].values)
                sup_jy[li] = float(np.max(np.linalg.norm(jn_vals - ref.values_at(
                    ys[b].partition.times), axis=1)))
                sup_m[li] = _grid_sup_error(ms[b], ref)
            out.append((i, cp_y, cp_m, sup_jy, sup_m))
    return out


def compare_schemes(cfg: ExperimentConfig) -> ErrorTable:
    """Yosida and modified-Yosida errors against a fine-grid Euler reference.

    All schemes run on identical realizations on the finest partition level
    (mesh fine relative to the largest stiffness).  Yosida rows report
    pointwise errors at continuity checkpoints and the sup error of the
    resolvent-smoothed iterates J_n(X^n); modified-Yosida rows report the
    plain sup error, which is the mode in which that scheme converges.
    """
    cfg.validate()
    if not cfg.yosida_levels:
        raise ConfigError("experiment.yosida_levels", "compare needs at least one level")
    ctx = _Context(cfg)
    cps = [cp for cp in ctx.checkpoints if cp.continuity_expected]
    if not cps:
        raise ConfigError("experiment.checkpoints",
                          "compare needs at least one continuity checkpoint")
    reference = f"EULER-REFERENCE grid={cfg.levels[-1]} (same realizations)"
    results = _map_batches(cfg, _compare_batch, cfg.trajectories, cfg.workers)
    cp_y = np.stack([r[1] for r in results])
    cp_m = np.stack([r[2] for r in results])
    sup_jy = np.stack([r[3] for r in results])
    sup_m = np.stack([r[4] for r in results])
    table = ErrorTable(reference=reference)
    for li, n_level in enumerate(cfg.yosida_levels):
        table.rows.extend(_aggregate_rows(n_level, "yosida", cps,
                                          cp_y[:, li, :], sup_jy[:, li]))
    for li, n_level in enumerate(cfg.yosida_levels):
        table.rows.extend(_aggregate_rows(n_level, "modified_yosida", cps,
                                          cp_m[:, li, :], sup_m[:, li]))
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


def verify_suite(cfg: ExperimentConfig, checks=None, samples: int = 2000,
                 projection_override=None) -> dict:
    """Randomized verification of the operator/projection/solver properties.

    Returns a machine-readable report: name -> CheckResult with the
    worst-case residual.  Each point-wise check maps its whole sample with
    one batched call; every check draws at least one point.
    ``projection_override`` replaces the configured projection map (used to
    demonstrate detection of invalid projections): it is called as
    ``override(op, Z)`` with Z of shape (B, d) and must return (B, d).  An
    explicit empty ``checks`` list yields an empty report.
    """
    if checks is None:
        checks = _ALL_CHECKS
    op = build_operator(cfg.operator)
    proj = build_projection(cfg.projection)
    proj_map = projection_override if projection_override is not None else proj
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
        moved = np.asarray(proj_map(op, pts), dtype=float)
        worst = float(np.max(np.linalg.norm(moved - pts, axis=1)))
        # a projected point lies on a slanted or curved boundary only up to
        # rounding (up to Dykstra's tolerance on a polyhedron), so projecting
        # it again may move it slightly
        tol = proj.tol if getattr(proj_map, "kind", "") == "elastic_iterated" else 1e-10
        record("projection_identity", worst, tol,
               detail="domain points must be fixed")

    if "projection_lipschitz" in checks:
        za, zb = draw(1), draw(1)
        pa = np.asarray(proj_map(op, za), dtype=float)
        pb = np.asarray(proj_map(op, zb), dtype=float)
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
        if "skorokhod_definition" in checks:
            worst = 0.0
            mono = 0.0
            for _ in range(5):
                y = _random_step_path(rng, op, partition)
                sol = solve_step(op, proj, y)
                rep = verify_solution(op, proj, sol, test_pairs=pairs)
                worst = max(worst, rep.additivity_residual,
                            rep.jump_condition_residual, -rep.jump_bound_margin)
                mono = min(mono, rep.monotonicity_worst)
            record("skorokhod_definition", max(worst, -mono - 1e-9), 1e-9,
                   detail="solve_step outputs satisfy the defining conditions")
        if "pair_inequalities" in checks:
            worst = np.inf
            for _ in range(5):
                ya = _random_step_path(rng, op, partition)
                yb = _random_step_path(rng, op, partition)
                pa = solve_step(op, proj, ya)
                pb = solve_step(op, proj, yb)
                rep = pair_inequality_report(op, pa, pb)
                worst = min(worst, rep.worst_bracket, rep.worst_distance_slack)
            record("pair_inequalities", worst, -1e-8, larger_fails=False,
                   detail="two-solution comparison inequalities")

    return report
