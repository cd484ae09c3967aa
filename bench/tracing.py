"""Outside-in layer tracing for the mmsde benchmark.

The tracer patches public entry points of ``mmsde`` with timing and counting
wrappers, attributes every call to the study (one ``cli.main`` invocation)
that is open, and restores the originals on ``uninstall``.  Nothing inside
``mmsde`` is edited, so the untraced timings measure the program as shipped.

Binding rules the patching follows:

- ``harness`` binds the builders, the three scheme functions and the
  ``skorokhod`` functions at import time, so those names are patched in
  ``mmsde.harness`` as well as in the module that defines them.
- ``simulate``, ``solve_step``, the CSV path readers/writers and the
  ``config.build_*`` functions used by ``cli`` are imported when called, so
  patching the defining module is enough for them.
- Operators are wrapped with ``dataclasses.replace`` on ``resolvent`` and
  ``domain_projection`` and projections with a ``Projection`` subclass, so
  ``spec`` and ``kind`` survive and oracle detection is unchanged.

Times are inclusive: a projection's time contains the domain projections it
makes.  Nested calls of the same key are timed once, at the outermost call.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import mmsde.cli as cli
import mmsde.config as config
import mmsde.drivers as drivers
import mmsde.harness as harness
import mmsde.paths as paths
import mmsde.schemes as schemes
import mmsde.skorokhod as skorokhod
from mmsde.projections import Projection

# Keys whose calls are direct children of a study are subtracted from the
# study's wall time to give ``harness.self_s``.
CHILD_LAYERS = ("drivers.", "schemes.", "skorokhod.")
# Only these keys are kept as individual spans; operator and projection calls
# are too many to store one by one and are aggregated instead.
SPAN_LAYERS = CHILD_LAYERS + ("paths.", "config.")

SCHEME_KEYS = ("schemes.euler", "schemes.yosida", "schemes.modified_yosida")


class CommandStats:
    """Aggregated time and counts of one command over its traced studies."""

    def __init__(self):
        self.studies = 0
        self.study_s = 0.0
        self.time = defaultdict(float)    # key -> inclusive seconds
        self.calls = defaultdict(int)     # key -> calls
        self.top = defaultdict(float)     # key -> seconds as a direct child of a study
        self.work = defaultdict(float)    # points, steps, rows, nested domain calls


class Tracer:
    """Patches mmsde entry points (``install``) and aggregates their calls per
    command; calls made outside a ``study`` block pass straight through."""

    def __init__(self):
        self.stats: dict[str, CommandStats] = defaultdict(CommandStats)
        self.spans: list[dict] = []
        self._current: CommandStats | None = None
        self._study_id = -1
        self._depth = 0
        self._open = Counter()
        self._saved = []
        self._t0 = perf_counter()

        tracer = self

        class TracedProjection(Projection):
            def __call__(self, op, z):
                st = tracer._current
                if st is None:
                    return super().__call__(op, z)
                before = st.calls["operators.domain_projection"]
                out = tracer._call("projections", super().__call__, (op, z), {})
                st.work["projections.domain_calls"] += (
                    st.calls["operators.domain_projection"] - before)
                return out

        self._projection_cls = TracedProjection

    # -- spans ---------------------------------------------------------------

    def _call(self, key, fn, args, kwargs):
        st = self._current
        if st is None:
            return fn(*args, **kwargs)
        outermost = self._open[key] == 0
        self._open[key] += 1
        self._depth += 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._depth -= 1
            self._open[key] -= 1
            st.calls[key] += 1
            if outermost:
                st.time[key] += t1 - t0
            if self._depth == 0:
                st.top[key] += t1 - t0
                if key.startswith(SPAN_LAYERS):
                    self.spans.append({"name": key, "start": t0 - self._t0,
                                       "end": t1 - self._t0, "parent": self._study_id})

    def _timed(self, key, fn, work=None):
        """Wrap ``fn``; ``work(stats, args, result)`` records work done."""
        tracer = self

        @functools.wraps(fn)
        def inner(*args, **kwargs):
            out = tracer._call(key, fn, args, kwargs)
            if work is not None and tracer._current is not None:
                work(tracer._current, args, out)
            return out

        return inner

    @contextmanager
    def study(self, command: str):
        """Attribute everything called inside the block to one study of ``command``."""
        st = self.stats[command]
        self._current = st
        self._study_id += 1
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._current = None
            st.studies += 1
            st.study_s += t1 - t0
            self.spans.append({"name": f"study.{command}", "id": self._study_id,
                               "start": t0 - self._t0, "end": t1 - self._t0,
                               "parent": None})

    # -- builders whose products are wrapped ---------------------------------

    def _operator_builder(self, build):
        @functools.wraps(build)
        def inner(*args, **kwargs):
            op = build(*args, **kwargs)
            return dataclasses.replace(
                op,
                resolvent=self._timed("operators.resolvent", op.resolvent),
                domain_projection=self._timed("operators.domain_projection",
                                              op.domain_projection))

        return inner

    def _projection_builder(self, build):
        @functools.wraps(build)
        def inner(*args, **kwargs):
            p = build(*args, **kwargs)
            return self._projection_cls(kind=p.kind, c=p.c, tol=p.tol,
                                        max_iter=p.max_iter)

        return inner

    def _coefficient_builder(self, build):
        tracer = self

        @functools.wraps(build)
        def inner(*args, **kwargs):
            coeff = build(*args, **kwargs)
            f = coeff.f

            def counted(x):
                if tracer._current is not None:
                    tracer._current.calls["schemes.coefficient"] += 1
                return f(x)

            return dataclasses.replace(coeff, f=counted)

        return inner

    # -- install / uninstall -------------------------------------------------

    def _patch(self, owner, name, wrapper):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def install(self):
        def points(st, args, out):
            st.work["drivers.points"] += out.grid.times.size

        def steps(st, args, out):
            st.work["schemes.steps"] += out.x.values.shape[0] - 1

        def rows(st, args, out):
            st.work["paths.rows_written"] += args[0].values.shape[0]

        self._patch(cli, "load_config", self._timed("config.load", cli.load_config))
        self._patch(config.ExperimentConfig, "validate",
                    self._timed("config.load", config.ExperimentConfig.validate))
        for mod in (config, harness):
            self._patch(mod, "build_operator", self._operator_builder(mod.build_operator))
            self._patch(mod, "build_projection",
                        self._projection_builder(mod.build_projection))
            self._patch(mod, "build_coefficient",
                        self._coefficient_builder(mod.build_coefficient))
        self._patch(drivers, "simulate",
                    self._timed("drivers.simulate", drivers.simulate, points))
        for mod in (schemes, harness):
            for name, key in zip(("euler_scheme", "yosida_scheme", "modified_yosida_scheme"),
                                 SCHEME_KEYS):
                self._patch(mod, name, self._timed(key, getattr(mod, name), steps))
        for mod in (skorokhod, harness):
            for name, key in (("solve_step", "skorokhod.solve_step"),
                              ("reflect_halfline_oracle", "skorokhod.oracle"),
                              ("verify_solution", "skorokhod.verify_solution"),
                              ("pair_inequality_report", "skorokhod.pair_report")):
                self._patch(mod, name, self._timed(key, getattr(mod, name)))
        self._patch(paths, "read_step_path_csv",
                    self._timed("paths.read", paths.read_step_path_csv))
        self._patch(paths, "write_step_path_csv",
                    self._timed("paths.write", paths.write_step_path_csv, rows))

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# per-layer metrics

def _per(total, base, scale=1.0):
    return scale * total / base if base else 0.0


def layer_metrics(st: CommandStats, command: str) -> dict[str, float]:
    """Per-study layer metrics of one command; zero where a layer did no work."""
    n = st.studies
    t, c, w = st.time, st.calls, st.work
    out = {
        "config.load_s": _per(t["config.load"], n),
        "operators.resolvent_calls": _per(c["operators.resolvent"], n),
        "operators.resolvent_s": _per(t["operators.resolvent"], n),
        "operators.us_per_resolvent": _per(t["operators.resolvent"],
                                           c["operators.resolvent"], 1e6),
        "operators.domain_projection_calls": _per(c["operators.domain_projection"], n),
        "operators.domain_projection_s": _per(t["operators.domain_projection"], n),
        "projections.calls": _per(c["projections"], n),
        "projections.s": _per(t["projections"], n),
        "projections.us_per_call": _per(t["projections"], c["projections"], 1e6),
        "projections.domain_calls_per_call": _per(w["projections.domain_calls"],
                                                  c["projections"]),
    }
    if command in ("converge", "compare"):
        out.update({
            "drivers.simulate_s": _per(t["drivers.simulate"], n),
            "drivers.simulate_calls": _per(c["drivers.simulate"], n),
            "drivers.points": _per(w["drivers.points"], n),
            "drivers.us_per_point": _per(t["drivers.simulate"], w["drivers.points"], 1e6),
        })
        scheme_s = sum(t[k] for k in SCHEME_KEYS)
        out["schemes.euler_s"] = _per(t["schemes.euler"], n)
        if command == "compare":
            out["schemes.yosida_s"] = _per(t["schemes.yosida"], n)
            out["schemes.modified_yosida_s"] = _per(t["schemes.modified_yosida"], n)
        out.update({
            "schemes.steps": _per(w["schemes.steps"], n),
            "schemes.us_per_step": _per(scheme_s, w["schemes.steps"], 1e6),
            "schemes.coefficient_calls": _per(c["schemes.coefficient"], n),
        })
        if command == "converge":
            out["skorokhod.oracle_s"] = _per(t["skorokhod.oracle"], n)
    if command in ("verify", "skorokhod"):
        out["skorokhod.solve_step_s"] = _per(t["skorokhod.solve_step"], n)
    if command == "verify":
        out["skorokhod.verify_solution_s"] = _per(t["skorokhod.verify_solution"], n)
        out["skorokhod.pair_report_s"] = _per(t["skorokhod.pair_report"], n)
    if command == "skorokhod":
        out.update({
            "paths.read_s": _per(t["paths.read"], n),
            "paths.write_s": _per(t["paths.write"], n),
            "paths.rows_written": _per(w["paths.rows_written"], n),
        })
    children = sum(v for k, v in st.top.items() if k.startswith(CHILD_LAYERS))
    out["harness.self_s"] = _per(st.study_s - children, n)
    return out
