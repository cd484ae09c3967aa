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
from .operators import DEFAULT_DOMAIN_TOL, resolve, yosida_a, yosida_j
from .paths import StepPath, refine, uniform_partition
from .projections import project_classical
from .schemes import (
    euler_scheme,
    modified_yosida_scheme,
    resolvent_of_yosida_step,
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

    def run_euler(self, realization, reference: bool = False):
        with _explosion_level(realization, reference):
            return euler_scheme(self.op, self.proj, self.coeff, realization,
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


def _convergence_batch(cfg: ExperimentConfig, indices):
    from .drivers import simulate

    ctx = _Context(cfg)
    use_oracle = ctx.oracle_applies()
    out = []
    for i in indices:
        fine = simulate(ctx.driver, ctx.reference_partition, cfg.seed, i)
        ref = ctx.oracle_solution(fine) if use_oracle else ctx.run_euler(fine, reference=True).x
        cp_err = np.empty((len(cfg.levels), len(ctx.checkpoints)))
        sup_err = np.empty(len(cfg.levels))
        for li, part in enumerate(ctx.partitions):
            run = ctx.run_euler(simulate(ctx.driver, part, cfg.seed, i))
            cp_err[li] = _checkpoint_errors(run.x, ref, ctx.checkpoints)
            sup_err[li] = _grid_sup_error(run.x, ref)
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
    for i in indices:
        realization = simulate(ctx.driver, ctx.partitions[-1], cfg.seed, i)
        ref = ctx.run_euler(realization, reference=True).x
        cp_y = np.empty((n_lv, len(cps)))
        cp_m = np.empty((n_lv, len(cps)))
        sup_jy = np.empty(n_lv)
        sup_m = np.empty(n_lv)
        for li, n_level in enumerate(cfg.yosida_levels):
            with _explosion_level(realization):
                ys = yosida_scheme(ctx.op, n_level, ctx.coeff, realization,
                                   cfg.drift_substeps)
                ms = modified_yosida_scheme(ctx.op, ctx.proj, n_level, ctx.coeff,
                                            realization, cfg.drift_substeps)
            cp_y[li] = _checkpoint_errors(ys.x, ref, cps)
            cp_m[li] = _checkpoint_errors(ms.x, ref, cps)
            jn_vals = np.stack([ctx.op.resolvent(1.0 / n_level, v) for v in ys.x.values])
            sup_jy[li] = float(np.max(np.linalg.norm(jn_vals - ref.values_at(
                ys.x.partition.times), axis=1)))
            sup_m[li] = _grid_sup_error(ms.x, ref)
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


def _random_points(rng, d, n, scale=2.0):
    return rng.normal(0.0, scale, size=(n, d))


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
    worst-case residual.  ``projection_override`` replaces the configured
    projection map (used to demonstrate detection of invalid projections);
    an explicit empty ``checks`` list yields an empty report.
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

    if "projection_identity" in checks:
        pts = np.stack([project_classical(op, z) for z in _random_points(rng, d, samples // 2)])
        moved = np.stack([np.asarray(proj_map(op, z), dtype=float) for z in pts])
        worst = float(np.max(np.linalg.norm(moved - pts, axis=1)))
        tol = proj.tol if getattr(proj_map, "kind", "") == "elastic_iterated" else 0.0
        record("projection_identity", worst, tol,
               detail="domain points must be fixed")

    if "projection_lipschitz" in checks:
        za = _random_points(rng, d, samples)
        zb = _random_points(rng, d, samples)
        worst = -np.inf
        for a, b in zip(za, zb):
            pa = np.asarray(proj_map(op, a), dtype=float)
            pb = np.asarray(proj_map(op, b), dtype=float)
            excess = np.linalg.norm(pa - pb) - np.linalg.norm(a - b)
            worst = max(worst, float(excess))
        record("projection_lipschitz", worst, 1e-10,
               detail="|Pi z - Pi z'| <= |z - z'|")

    if "projection_firm" in checks:
        za = _random_points(rng, d, samples)
        zb = _random_points(rng, d, samples)
        worst = -np.inf
        for a, b in zip(za, zb):
            pa = project_classical(op, a)
            pb = project_classical(op, b)
            gap = float((pa - pb) @ (pa - pb)) - float((pa - pb) @ (a - b))
            worst = max(worst, gap)
        record("projection_firm", worst, 1e-10,
               detail="classical projection is firmly non-expansive")

    if "resolvent_nonexpansive" in checks:
        worst = -np.inf
        for lam in (0.05, 0.5, 5.0):
            za = _random_points(rng, d, samples // 3)
            zb = _random_points(rng, d, samples // 3)
            for a, b in zip(za, zb):
                ja = resolve(op, lam, a)
                jb = resolve(op, lam, b)
                worst = max(worst, float(np.linalg.norm(ja - jb) - np.linalg.norm(a - b)))
        record("resolvent_nonexpansive", worst, 1e-12)

    if "resolvent_identity" in checks:
        worst = 0.0
        for lam, mu in ((1.0, 0.25), (2.0, 2.0), (0.5, 0.1)):
            for z in _random_points(rng, d, samples // 3):
                jl = resolve(op, lam, z)
                rhs = resolve(op, mu, (mu / lam) * z + (1.0 - mu / lam) * jl)
                worst = max(worst, float(np.linalg.norm(jl - rhs)))
        record("resolvent_identity", worst, 1e-9)

    if "resolvent_range" in checks:
        worst = 0.0
        for lam in (0.1, 1.0):
            for z in _random_points(rng, d, samples // 2):
                worst = max(worst, op.domain_distance(resolve(op, lam, z)))
        record("resolvent_range", worst, 1e-8,
               detail="resolvent values lie in the domain closure")

    if "yosida_lipschitz" in checks:
        worst = -np.inf
        for n in (1.0, 10.0, 100.0):
            za = _random_points(rng, d, samples // 3)
            zb = _random_points(rng, d, samples // 3)
            for a, b in zip(za, zb):
                da = yosida_a(op, n, a) - yosida_a(op, n, b)
                worst = max(worst, float(np.linalg.norm(da) - n * np.linalg.norm(a - b)))
        record("yosida_lipschitz", worst, 1e-10)

    if "yosida_monotone" in checks:
        worst = np.inf
        for n in (1.0, 10.0, 100.0):
            za = _random_points(rng, d, samples // 3)
            zb = _random_points(rng, d, samples // 3)
            for a, b in zip(za, zb):
                da = yosida_a(op, n, a) - yosida_a(op, n, b)
                slack = float((a - b) @ da) - float(da @ da) / n
                worst = min(worst, slack)
        record("yosida_monotone", worst, -1e-10, larger_fails=False,
               detail="<z-z', A_n z - A_n z'> >= |A_n z - A_n z'|^2 / n")

    if "yosida_gap" in checks:
        worst = -np.inf
        final_gap = 0.0
        start_gap = 0.0
        for z in _random_points(rng, d, max(10, samples // 100)):
            target = project_classical(op, z)
            gaps = [float(np.linalg.norm(yosida_j(op, n, z) - target))
                    for n in (1, 10, 100, 1000)]
            growth = max(b - a for a, b in zip(gaps, gaps[1:]))
            worst = max(worst, growth)
            final_gap = max(final_gap, gaps[-1])
            start_gap = max(start_gap, gaps[0])
        # the absolute final-gap bound applies where the resolvent is the
        # projection (exact zero); elsewhere require a hundredfold decay
        if op.projection_resolvent:
            excess = final_gap - 1e-3
        else:
            excess = final_gap - (start_gap / 100.0 + 1e-12)
        record("yosida_gap", max(worst, excess), 1e-12,
               detail="J_n -> classical projection, monotonically")

    if "implicit_drift_identity" in checks:
        worst = 0.0
        for z in _random_points(rng, d, max(10, samples // 2)):
            lam = float(rng.uniform(0.05, 2.0))
            mu = float(rng.uniform(0.01, 1.0))
            y = resolvent_of_yosida_step(op, lam, mu, z)
            resid = float(np.linalg.norm(y + mu * yosida_a(op, 1.0 / lam, y) - z))
            worst = max(worst, resid)
        record("implicit_drift_identity", worst, 1e-9)

    if "skorokhod_definition" in checks or "pair_inequalities" in checks:
        partition = uniform_partition(1.0, 25)
        pairs = []
        if op.graph_sample is not None:
            for z in _random_points(rng, d, 5, scale=0.5):
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
