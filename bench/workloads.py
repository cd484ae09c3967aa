"""The benchmark's workloads: their inputs, the commands they run and the checks
on every output.

Each workload isolates one layer of ``mmsde``:

- ``hl_nondyadic``: ``converge`` on a non-dyadic grid, where the Brownian
  bridge (``drivers``) does nearly all the work; ``verify`` on the half-line
  is its drivers-free counterpart.
- ``box_dyadic``: ``converge``, ``compare`` and ``verify`` on the 2-D box with
  iterated elastic projection; ``compare`` is dominated by ``schemes``.
- ``lin_path``: ``skorokhod`` on one long generated path with a linear
  operator, the only built-in kind whose flow takes ``flow_substeps`` linear
  solves per step, then ``verify``.

Every check is a property that holds for any random stream (error tables fall
with refinement when pooled over all rounds of a run, properties pass,
x + k = y), so a deliberate change of the stream does not trip them.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

TABLE_COLUMNS = ["level", "scheme", "checkpoint", "mean_err", "std_err", "sup_err",
                 "p_gt_1e-1", "p_gt_1e-2", "n_traj"]


def round_seed(seed: int, r: int) -> int:
    """Config seed of round ``r``: every round of a run draws fresh trajectories."""
    return seed * 1000 + r


@dataclass(frozen=True)
class Spec:
    name: str
    config: str
    commands: tuple          # run in this order in every round
    samples: int = 1000      # verify
    path_points: int = 0     # skorokhod input


SPECS = {
    "hl_nondyadic": Spec("hl_nondyadic", "hl_nondyadic.ini", ("converge", "verify")),
    "box_dyadic": Spec("box_dyadic", "box_dyadic.ini", ("converge", "compare", "verify")),
    "lin_path": Spec("lin_path", "lin_path.ini", ("skorokhod", "verify"),
                     path_points=5000),
}
STUDY_COMMANDS = ("converge", "compare", "skorokhod")
ALL_COMMANDS = ("converge", "compare", "verify", "skorokhod")


def _parse_table(text: str):
    lines = text.splitlines()
    if len(lines) < 3 or not lines[0].startswith("# reference="):
        raise ValueError("error table lacks its '# reference=' header")
    if lines[1].split(",") != TABLE_COLUMNS:
        raise ValueError(f"unexpected table columns {lines[1]!r}")
    rows = []
    for line in lines[2:]:
        f = line.split(",")
        if len(f) != len(TABLE_COLUMNS):
            raise ValueError(f"malformed row {line!r}")
        row = dict(zip(TABLE_COLUMNS, f))
        for k in TABLE_COLUMNS:
            if k != "scheme":
                row[k] = float(row[k])
        rows.append(row)
    return lines[0], rows


def _strictly_falling(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


class Workload:
    """Inputs, command lines and output checks of one named workload."""

    def __init__(self, name: str, seed: int, work_dir: Path):
        self.spec = SPECS[name]
        self.seed = seed
        self.work = work_dir
        self.config_path = CONFIG_DIR / self.spec.config
        self.cfg = None
        self.path_file = self.work / "path.csv"
        self._times = self._y = None
        # pooled sums over all rounds: (scheme, level, checkpoint) -> [sum mean*n, sum sup*n, n]
        self._pooled: dict[str, dict] = {"converge": {}, "compare": {}}

    @property
    def commands(self):
        return self.spec.commands

    def out_dir(self, command: str) -> Path:
        return self.work / "out" / command

    # -- inputs ----------------------------------------------------------------

    def prepare(self):
        """Parse and guard the config, then generate the workload's input path."""
        from mmsde.config import load_config

        self.cfg = load_config(str(self.config_path))
        self._guard_config()
        if self.spec.path_points:
            self.work.mkdir(parents=True, exist_ok=True)
            self._y = self._generate_path()

    def _guard_config(self):
        # The parser treats ' ;' as an inline comment, so a matrix written with
        # a space before ';' silently keeps only its first row.  Assert the
        # parsed geometry so such an edit fails loudly instead.
        cfg = self.cfg
        if self.spec.name == "lin_path":
            m = np.asarray(cfg.operator.get("matrix"))
            if m.shape != (2, 2) or not np.array_equal(m, [[2.0, 0.5], [-0.5, 1.0]]):
                raise ValueError(f"lin_path operator matrix parsed as {m.tolist()}")
        elif self.spec.name == "box_dyadic":
            op = cfg.operator
            if op.get("lo") != [0.0, 0.0] or op.get("hi") != [1.0, 1.0]:
                raise ValueError(f"box_dyadic bounds parsed as {op}")
        elif cfg.operator.get("kind") != "halfline":
            raise ValueError(f"hl_nondyadic operator parsed as {cfg.operator}")

    def _generate_path(self) -> np.ndarray:
        """2-D Gaussian random walk on [0, 1] with sparse large jumps, as CSV."""
        n = self.spec.path_points
        rng = np.random.default_rng(self.seed)
        times = np.linspace(0.0, 1.0, n)
        inc = rng.normal(0.0, math.sqrt(1.0 / n), size=(n - 1, 2))
        jumps = rng.random(n - 1) < 0.01
        inc[jumps] += rng.normal(0.0, 1.0, size=(int(jumps.sum()), 2))
        y = np.vstack([np.zeros(2), np.cumsum(inc, axis=0)])
        with open(self.path_file, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("time,v_1,v_2\n")
            for t, (a, b) in zip(times, y):
                fh.write(f"{float(t)!r},{float(a)!r},{float(b)!r}\n")
        self._times = times
        return y

    # -- command lines -----------------------------------------------------------

    def argv(self, command: str, seed: int, out: Path | None = None,
             trajectories: int | None = None, workers: int = 1) -> list[str]:
        out = out or self.out_dir(command)
        argv = [command, "--config", str(self.config_path), "--seed", str(seed),
                "--out", str(out), "--workers", str(workers)]
        if trajectories is not None:
            argv += ["--trajectories", str(trajectories)]
        if command == "verify":
            argv += ["--samples", str(self.spec.samples)]
        elif command == "skorokhod":
            argv += ["--path", str(self.path_file)]
        return argv

    # -- output checks -----------------------------------------------------------

    def check(self, command: str) -> list[str]:
        """Problems found in the output of the study just run (empty if none)."""
        try:
            return getattr(self, f"_check_{command}")(self.out_dir(command))
        except (OSError, ValueError, KeyError) as exc:
            return [f"{command}: unreadable output: {exc}"]

    def _table(self, command: str, out: Path, levels, schemes, checkpoints):
        header, rows = _parse_table((out / "errors.csv").read_text(encoding="utf-8"))
        problems = []
        keys = {(r["scheme"], int(r["level"]), r["checkpoint"]) for r in rows}
        want = {(s, lv, cp) for s in schemes for lv in levels for cp in checkpoints}
        if keys != want or len(rows) != len(want):
            problems.append(f"{command}: table rows {sorted(keys)} != {sorted(want)}")
        for r in rows:
            if not all(math.isfinite(r[k]) for k in TABLE_COLUMNS if k != "scheme"):
                problems.append(f"{command}: non-finite row {r}")
            if r["n_traj"] != self.cfg.trajectories:
                problems.append(f"{command}: n_traj {r['n_traj']} != {self.cfg.trajectories}")
        pooled = self._pooled[command]
        for r in rows:
            acc = pooled.setdefault((r["scheme"], int(r["level"]), r["checkpoint"]),
                                    [0.0, 0.0, 0])
            acc[0] += r["mean_err"] * r["n_traj"]
            acc[1] += r["sup_err"] * r["n_traj"]
            acc[2] += int(r["n_traj"])
        return header, problems

    def _check_converge(self, out: Path) -> list[str]:
        cps = [cp.time for cp in self.cfg.checkpoints]
        header, problems = self._table("converge", out, self.cfg.levels, ["euler"], cps)
        oracle = header.startswith("# reference=ORACLE")
        if oracle != (self.spec.name == "hl_nondyadic"):
            problems.append(f"converge: unexpected reference {header!r}")
        return problems

    def _check_compare(self, out: Path) -> list[str]:
        cps = [cp.time for cp in self.cfg.checkpoints if cp.continuity_expected]
        _, problems = self._table("compare", out, self.cfg.yosida_levels,
                                  ["yosida", "modified_yosida"], cps)
        return problems

    def _check_verify(self, out: Path) -> list[str]:
        report = json.loads((out / "verify.json").read_text(encoding="utf-8"))
        if not report:
            return ["verify: empty report"]
        return [f"verify: {name} failed (worst {res['worst']}, tol {res['tolerance']})"
                for name, res in sorted(report.items()) if res["passed"] is not True]

    def _check_skorokhod(self, out: Path) -> list[str]:
        comps: dict[str, list] = {"x": [], "k": []}
        with open(out / "solution.csv", encoding="utf-8", newline="") as fh:
            rows = csv.reader(line for line in fh if not line.startswith("#"))
            header = next(rows)
            if header != ["component", "time", "v_1", "v_2"]:
                return [f"skorokhod: unexpected header {header}"]
            for row in rows:
                if row[0] in comps:
                    comps[row[0]].append([float(v) for v in row[1:]])
        n = self._y.shape[0]
        problems = []
        for name, vals in comps.items():
            if len(vals) != n:
                problems.append(f"skorokhod: {len(vals)} rows of {name}, want {n}")
        if problems:
            return problems
        x = np.asarray(comps["x"])
        k = np.asarray(comps["k"])
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(k))):
            problems.append("skorokhod: non-finite solution values")
        if not (np.array_equal(x[:, 0], self._times) and np.array_equal(k[:, 0], self._times)):
            problems.append("skorokhod: solution times differ from the input times")
        resid = float(np.max(np.abs(x[:, 1:] + k[:, 1:] - self._y)))
        if not resid <= 1e-9:
            problems.append(f"skorokhod: |x + k - y| = {resid:.3e} > 1e-9")
        return problems

    def _pooled_mean(self, command: str, scheme: str, level: int, column: int) -> float:
        """Mean over all pooled trajectories; column 0 is mean_err, 1 is sup_err."""
        acc = self._pooled[command].get((scheme, level, 0.5))
        return acc[column] / acc[2] if acc else math.nan

    def pooled_checks(self) -> dict[str, list[str]]:
        """Checks on errors pooled over every round of the run, by command.

        A level missing from the pool reads as NaN and fails its check."""
        out = {}
        levels, ns = self.cfg.levels, self.cfg.yosida_levels
        if "converge" in self.commands:
            if self.spec.name == "hl_nondyadic":
                errs = [self._pooled_mean("converge", "euler", lv, 0) for lv in levels]
                what = "mean error at t=0.5"
            else:
                errs = [self._pooled_mean("converge", "euler", lv, 1) for lv in levels]
                what = "sup error"
            if not _strictly_falling(errs):
                out["converge"] = [f"converge: pooled {what} {errs} does not fall "
                                   f"across levels {list(levels)}"]
        if "compare" in self.commands:
            errs = [self._pooled_mean("compare", "modified_yosida", n, 1) for n in ns]
            if not _strictly_falling(errs):
                out["compare"] = [f"compare: pooled modified_yosida sup error {errs} "
                                  f"does not fall across n = {list(ns)}"]
        return out
