"""Layered benchmark for mmsde.

Usage, from the repository root:

    python3 bench/run.py --workload box_dyadic --seed 1 --seconds 30 --trace 0

One process drives ``mmsde`` from outside through ``mmsde.cli.main`` with
``workers=1``.  A run measures rounds back to back until ``--seconds`` have
passed; each round runs every command of the workload once with a fresh
config seed derived from ``--seed``, then times one fresh interpreter up to a
built context (set-up).  Every timing is scaled by reference-kernel timings
taken around it.  Before the timed rounds the run checks that
``workers=2`` writes the same table as ``workers=1`` and runs one untimed
warm-up round.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time on untraced rounds, replays the same rounds with the layer tracer
installed, and reports per-command layer metrics plus the tracing overhead;
on ``box_dyadic`` it also saves a cProfile listing of one ``converge`` study.

Every output is checked.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the environment and per-command detail, which is also written with the
trace spans under ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from workloads import ALL_COMMANDS, STUDY_COMMANDS, Workload, round_seed

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("hl_nondyadic", "box_dyadic", "lin_path")
MIN_ROUNDS = 5          # timed rounds, whatever --seconds says
WORKERS_CHECK_TRAJECTORIES = 4
# Reported times are scaled to the machine speed at which the reference
# kernel takes this long (about its time on an idle 2-core x86_64 box).
REFERENCE_S = 0.02
REF_WINDOW = 3

# Fresh interpreter to a validated config and a built harness context (or
# operator and projection).  It imports only what mmsde imports, so a numpy or
# scipy import that a change moves into the import path shows in setup_s.
SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
from mmsde import config, harness
cfg = config.load_config(sys.argv[2])
if sys.argv[3] == "context":
    harness._Context(cfg)
else:
    config.build_operator(cfg.operator)
    config.build_projection(cfg.projection)
"""


def _parse_args(argv):
    p = argparse.ArgumentParser(description="mmsde layered benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


class Run:
    """Counts attempted and failed operations by kind and collects problems."""

    def __init__(self):
        self.attempted = Counter()
        self.failed = Counter()
        self.problems: list[str] = []

    def record(self, kind: str, problems):
        self.attempted[kind] += 1
        if problems:
            self.failed[kind] += 1
            self._report(problems)

    def fail_all(self, kind: str, problems):
        """A claim pooled over every study of ``kind`` failed: so did they all."""
        self.failed[kind] = self.attempted[kind]
        self._report(problems)

    def _report(self, problems):
        self.problems.extend(problems)
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)


def _cli_study(cli, argv) -> tuple[float, list[str]]:
    """Run one command through ``cli.main``; returns (seconds, problems)."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except Exception:  # a study that raises is a failed study, not a crash
        dt = time.perf_counter() - t0
        return dt, [f"{argv[0]} raised:\n{traceback.format_exc()}"]
    dt = time.perf_counter() - t0
    return dt, ([] if code == 0 else [f"{argv[0]} exited with code {code}"])


def _reference_seconds() -> float:
    """Time a fixed kernel of the program's kind of work: a Python loop of
    small numpy calls and Philox generator set-ups.  The machine's speed
    drifts by tens of percent within minutes, so every timing is divided by
    the reference timings taken around it."""
    t0 = time.perf_counter()
    x = np.zeros(2)
    acc = 0
    eye = np.eye(2)
    for i in range(600):
        rng = np.random.Generator(np.random.Philox(key=np.array([i, 7], dtype=np.uint64)))
        x = np.clip(0.5 * x + rng.standard_normal(2), -1.0, 1.0)
        acc += float(np.linalg.norm(np.linalg.solve(eye, x))) > 0.5
        for j in range(20):
            acc += j & 3
    return time.perf_counter() - t0


def _setup_study(wl) -> tuple[float, list[str]]:
    """Seconds from a fresh interpreter to a built context; returns (seconds, problems)."""
    kind = "operator" if wl.spec.name == "lin_path" else "context"
    cmd = [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(wl.config_path), kind]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, ["set-up did not finish within 120 s"]
    dt = time.perf_counter() - t0
    return dt, ([] if proc.returncode == 0 else
                [f"set-up exited with code {proc.returncode}: {proc.stderr[-2000:]}"])


def _check_workers(cli, seed: int, run: Run):
    """box_dyadic converge with workers=2 must write the table workers=1 writes."""
    box = Workload("box_dyadic", seed, OUT / "workers_check")
    tables = []
    for workers in (1, 2):
        out = box.work / f"workers{workers}"
        argv = box.argv("converge", seed, out=out, workers=workers,
                        trajectories=WORKERS_CHECK_TRAJECTORIES)
        _, problems = _cli_study(cli, argv)
        if problems:
            run.record("workers_check", problems)
            return
        tables.append((out / "errors.csv").read_bytes())
    run.record("workers_check", [] if tables[0] == tables[1] else
               ["converge tables differ between workers=1 and workers=2"])


def _rounds(cli, wl, run: Run, seeds, tracer=None) -> list[dict]:
    """One round per seed, with a reference-kernel timing after every study.

    A round runs every command of the workload once and, when untraced, one
    fresh-interpreter set-up, so set-up samples spread over the whole run.
    ``seeds`` may be a generator that stops at a deadline.  Each entry holds
    the round's seed and its seconds per step, raw and scaled.
    """
    steps = wl.commands if tracer else wl.commands + ("setup",)
    refs = [_reference_seconds()]
    out = []
    for seed in seeds:
        gc.collect()
        raw = {}
        for step in steps:
            if step == "setup":
                dt, problems = _setup_study(wl)
            else:
                with tracer.study(step) if tracer else contextlib.nullcontext():
                    dt, problems = _cli_study(cli, wl.argv(step, seed))
                problems = problems or wl.check(step)
            run.record(step, problems)
            raw[step] = dt
            refs.append(_reference_seconds())
        out.append({"seed": seed, "raw": raw})
    # Study i ran between refs[i] and refs[i + 1].  A single reference timing
    # jitters by +-25% when another process preempts it, while the drift that
    # scaling corrects is slower, so each study is scaled by the median of the
    # REF_WINDOW timings on either side of it.
    i = 0
    for entry in out:
        entry["scaled"] = {}
        for step, dt in entry["raw"].items():
            near = refs[max(0, i + 1 - REF_WINDOW):i + 1 + REF_WINDOW]
            entry["scaled"][step] = dt * REFERENCE_S / statistics.median(near)
            i += 1
        entry["ref_s"] = refs[i]
    return out


def _seeds_until(seed: int, budget: float):
    deadline = time.perf_counter() + budget
    r = 1
    while r <= MIN_ROUNDS or time.perf_counter() < deadline:
        yield round_seed(seed, r)
        r += 1


def _summary(values):
    q = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def _git_commit(root: Path):
    """HEAD commit read from ``.git``; None outside a git checkout."""
    git = root / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _environment(args, round_seeds):
    from importlib import metadata

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "git_commit": _git_commit(ROOT),
        "source_sha256": _source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "round_seeds": round_seeds,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _profile_converge(cli, wl, seed: int, run: Run, path: Path):
    """Save the cProfile top-10 self-time listing of one converge study."""
    import cProfile
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    _, problems = _cli_study(cli, wl.argv("converge", seed))
    prof.disable()
    run.record("converge", problems or wl.check("converge"))
    buf = io.StringIO()
    pstats.Stats(prof, stream=buf).strip_dirs().sort_stats("tottime").print_stats(10)
    path.write_text(buf.getvalue(), encoding="utf-8")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "mmsde" / "__init__.py").is_file():
        print(f"mmsde sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mmsde
    import mmsde.cli as cli

    if Path(mmsde.__file__).resolve().parent != SRC / "mmsde":
        print(f"imported mmsde from {mmsde.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)
    wl = Workload(args.workload, args.seed, work)
    wl.prepare()
    run = Run()

    _check_workers(cli, args.seed, run)

    # warm-up round: lazy imports and first-call costs, checked but not timed
    _rounds(cli, wl, run, [round_seed(args.seed, 0)])

    budget = args.seconds / 2 if args.trace else args.seconds
    rounds = _rounds(cli, wl, run, _seeds_until(args.seed, budget))
    seeds = [r["seed"] for r in rounds]

    def study(kind):
        return [sum(t for c, t in r[kind].items() if c in STUDY_COMMANDS) for r in rounds]

    detail = {
        "environment": _environment(args, seeds),
        "reference_s": _summary([r["ref_s"] for r in rounds]),
        "setup_s": _summary([r["scaled"]["setup"] for r in rounds]),
        "study_s": _summary(study("scaled")),
        "study_raw_s": _summary(study("raw")),
        "per_command_s": {c: _summary([r["scaled"][c] for r in rounds])
                          for c in rounds[0]["raw"]},
        "per_command_raw_s": {c: _summary([r["raw"][c] for r in rounds])
                              for c in rounds[0]["raw"]},
    }

    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        try:
            traced = _rounds(cli, wl, run, seeds, tracer)
        finally:
            tracer.uninstall()
        metrics = {}
        for command in ALL_COMMANDS:
            for name, value in layer_metrics(tracer.stats[command], command).items():
                metrics[f"{command}.{name}"] = value
            overhead = 0.0
            if command in wl.commands:
                base = sum(r["scaled"][command] for r in rounds)
                overhead = sum(r["scaled"][command] for r in traced) / base - 1.0
            metrics[f"{command}.trace.overhead_frac"] = overhead
        units = {name: _unit(name) for name in metrics}
        detail["spans"] = tracer.spans
        if args.workload == "box_dyadic":
            prof_path = work / f"converge_profile_seed{args.seed}.txt"
            _profile_converge(cli, wl, seeds[0], run, prof_path)
            detail["converge_profile"] = str(prof_path.relative_to(ROOT))
    else:
        metrics = {
            "study_s": detail["study_s"]["median"],
            "verify_s": detail["per_command_s"]["verify"]["median"],
            "setup_s": detail["setup_s"]["median"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"study_s": "s", "verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    for command, problems in wl.pooled_checks().items():
        run.fail_all(command, problems)

    detail["problems"] = run.problems
    (work / f"result_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True), encoding="utf-8")
    detail.pop("spans", None)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": sum(run.attempted.values()),
        "failed": sum(run.failed.values()),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.startswith("us_per", name.rfind(".") + 1):
        return "us"
    if name.endswith("_frac") or name.endswith("_per_call"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
