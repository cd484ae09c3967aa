"""Càdlàg step paths on finite grids.

Every path in the package is piecewise constant on a finite partition of
[0, T]: the value on [t_k, t_{k+1}) is ``values[k]`` and ``values[-1]`` is the
terminal value at T.  Continuous inputs are represented by their fine-grid
discretizations.  The module also provides grid refinement, the sup and
grid-restricted distances, total variation, and CSV/JSONL serialization with
exact float round-trip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, IO

import numpy as np

__all__ = [
    "Partition",
    "StepPath",
    "BVDecomposition",
    "uniform_partition",
    "refine",
    "discretize",
    "sup_distance",
    "grid_distance",
    "variation",
    "write_step_path_csv",
    "read_step_path_csv",
    "write_step_path_jsonl",
    "read_step_path_jsonl",
]


@dataclass(frozen=True, eq=False)
class Partition:
    """Strictly increasing finite grid 0 = t_0 < t_1 < ... < t_N = T."""

    times: np.ndarray

    def __post_init__(self):
        t = np.ascontiguousarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("a partition needs at least the two points 0 and T")
        if not np.all(np.isfinite(t)):
            raise ValueError("partition times must be finite")
        if t[0] != 0.0:
            raise ValueError("a partition must start at t = 0")
        if not np.all(np.diff(t) > 0.0):
            raise ValueError("partition times must be strictly increasing")
        object.__setattr__(self, "times", t)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def mesh(self) -> float:
        return float(np.max(np.diff(self.times)))

    @property
    def n_intervals(self) -> int:
        return self.times.size - 1

    def same_times(self, other: "Partition") -> bool:
        return self.times.size == other.times.size and bool(
            np.all(self.times == other.times)
        )

    def contains_times(self, other: "Partition") -> bool:
        """True when every grid point of ``other`` is a grid point of self."""
        return bool(np.all(np.isin(other.times, self.times)))


@dataclass(frozen=True, eq=False)
class StepPath:
    """Right-continuous piecewise-constant path with left limits.

    ``values`` has one row per partition time: row k is the value on
    [t_k, t_{k+1}) and the last row is the value at the horizon.  The jump at
    t_k (k >= 1) is ``values[k] - values[k-1]``.
    """

    partition: Partition
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2:
            raise ValueError("values must be a (n_times, d) array")
        if v.shape[0] != self.partition.times.size:
            raise ValueError(
                "need one value per partition time (one per interval plus the "
                f"terminal value): expected {self.partition.times.size}, got {v.shape[0]}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("path values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    @property
    def horizon(self) -> float:
        return self.partition.horizon

    def value_at(self, t: float) -> np.ndarray:
        """Right-continuous evaluation at t in [0, T]."""
        times = self.partition.times
        if t < times[0] or t > times[-1]:
            raise ValueError(f"t={t} outside [0, {times[-1]}]")
        idx = int(np.searchsorted(times, t, side="right")) - 1
        return self.values[idx]

    def values_at(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        times = self.partition.times
        if ts.size and (ts.min() < times[0] or ts.max() > times[-1]):
            raise ValueError("evaluation times outside the path horizon")
        idx = np.searchsorted(times, ts, side="right") - 1
        return self.values[idx]

    def jumps(self) -> np.ndarray:
        """Array of grid-point increments; row 0 is zero (no jump at t=0)."""
        out = np.zeros_like(self.values)
        out[1:] = np.diff(self.values, axis=0)
        return out

    def with_values(self, values: np.ndarray) -> "StepPath":
        return StepPath(self.partition, values)

    def _check_compatible(self, other: "StepPath"):
        if not self.partition.same_times(other.partition):
            raise ValueError("paths live on different partitions")
        if self.dimension != other.dimension:
            raise ValueError("paths have different dimensions")

    def __add__(self, other: "StepPath") -> "StepPath":
        self._check_compatible(other)
        return StepPath(self.partition, self.values + other.values)

    def __sub__(self, other: "StepPath") -> "StepPath":
        self._check_compatible(other)
        return StepPath(self.partition, self.values - other.values)


@dataclass(frozen=True, eq=False)
class BVDecomposition:
    """Split of a bounded-variation step path into continuous and jump parts.

    ``total = continuous + jump`` at every grid point, exactly, and the path
    starts at zero.
    """

    total: StepPath
    continuous: StepPath
    jump: StepPath

    def __post_init__(self):
        self.total._check_compatible(self.continuous)
        self.total._check_compatible(self.jump)
        if np.any(self.total.values[0] != 0.0):
            raise ValueError("a bounded-variation part must start at 0")
        resid = self.total.values - (self.continuous.values + self.jump.values)
        if np.any(resid != 0.0):
            raise ValueError("total != continuous + jump")

    @property
    def interval_variation(self) -> np.ndarray:
        """Norm of the increment of ``total`` over each grid interval."""
        return np.linalg.norm(np.diff(self.total.values, axis=0), axis=1)


def uniform_partition(horizon: float, n: int) -> Partition:
    """Uniform grid with n intervals on [0, horizon]."""
    if not (horizon > 0):
        raise ValueError("horizon must be positive")
    if n < 1:
        raise ValueError("need at least one interval")
    step = horizon / n
    times = np.arange(n + 1, dtype=float) * step
    times[-1] = horizon
    return Partition(times)


def refine(partition: Partition, factor: int) -> Partition:
    """Insert ``factor - 1`` equispaced points into every gap.

    The original grid points are kept bit-exactly, so refined partitions of a
    chain always nest.
    """
    if factor < 1:
        raise ValueError("refinement factor must be >= 1")
    if factor == 1:
        return Partition(partition.times.copy())
    t = partition.times
    out = np.empty((t.size - 1) * factor + 1, dtype=float)
    out[::factor] = t
    for j in range(1, factor):
        out[j::factor] = t[:-1] + (t[1:] - t[:-1]) * (j / factor)
    return Partition(out)


def discretize(path: StepPath | Callable[[float], np.ndarray], partition: Partition) -> StepPath:
    """Step path taking the input's value at each grid point.

    ``path`` may be a StepPath (sampled right-continuously) or a callable
    t -> point, which is how continuous inputs enter the package.
    """
    if isinstance(path, StepPath):
        return StepPath(partition, path.values_at(partition.times))
    vals = np.asarray([np.atleast_1d(np.asarray(path(t), dtype=float)) for t in partition.times])
    return StepPath(partition, vals)


def sup_distance(p: StepPath, q: StepPath, horizon: float | None = None) -> float:
    """Uniform distance over the merged grid of the two paths."""
    if horizon is None:
        horizon = min(p.horizon, q.horizon)
    t = np.union1d(p.partition.times, q.partition.times)
    t = t[t <= horizon]
    if t[-1] != horizon:
        t = np.append(t, horizon)
    diff = p.values_at(t) - q.values_at(t)
    return float(np.max(np.linalg.norm(diff, axis=1)))


def grid_distance(p: StepPath, q: StepPath, partition: Partition, horizon: float | None = None) -> float:
    """Max distance over the partition points only (up to the horizon)."""
    if horizon is None:
        horizon = partition.horizon
    t = partition.times[partition.times <= horizon]
    diff = p.values_at(t) - q.values_at(t)
    return float(np.max(np.linalg.norm(diff, axis=1)))


def variation(path: StepPath, interval: tuple[float, float] | None = None) -> float:
    """Sum of increment norms over grid points in (s, t]; exact for step paths."""
    s, t = (0.0, path.horizon) if interval is None else interval
    if t < s:
        raise ValueError("interval end before start")
    times = path.partition.times
    mask = (times[1:] > s) & (times[1:] <= t)
    inc = np.diff(path.values, axis=0)[mask]
    if inc.size == 0:
        return 0.0
    return float(np.sum(np.linalg.norm(inc, axis=1)))


# ---------------------------------------------------------------------------
# serialization (full-precision round trip: repr of float64 is exact)

def write_step_path_csv(path: StepPath, fh: IO[str], component: str | None = None,
                        meta: dict | None = None, header: bool = True):
    d = path.dimension
    if meta:
        for key in sorted(meta):
            fh.write(f"# {key}={meta[key]}\n")
    cols = ["time"] + [f"v_{i + 1}" for i in range(d)]
    if component is not None:
        cols = ["component"] + cols
    if header:
        fh.write(",".join(cols) + "\n")
    prefix = "" if component is None else f"{component},"
    fh.writelines(f"{prefix}{t!r},{','.join(map(repr, row))}\n"
                  for t, row in zip(path.partition.times.tolist(),
                                    path.values.tolist()))


def read_step_path_csv(fh: IO[str], component: str | None = None) -> StepPath:
    times: list[float] = []
    values: list[list[float]] = []
    header: list[str] | None = None
    for line in fh:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            if "time" not in header:
                raise ValueError("missing 'time' column")
            if "component" in header and component is None:
                raise ValueError(
                    "file holds multiple components; pass component='x' (or 'k', ...)"
                )
            continue
        fields = line.split(",")
        rec = dict(zip(header, fields))
        if component is not None and rec.get("component") != component:
            continue
        times.append(float(rec["time"]))
        values.append([float(rec[c]) for c in header if c.startswith("v_")])
    if not times:
        raise ValueError("no path records found")
    return StepPath(Partition(np.asarray(times)), np.asarray(values))


def write_step_path_jsonl(path: StepPath, fh: IO[str], component: str | None = None,
                          meta: dict | None = None):
    if meta:
        fh.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
    for t, row in zip(path.partition.times, path.values):
        rec = {"time": float(t), "value": [float(v) for v in row]}
        if component is not None:
            rec["component"] = component
        fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_step_path_jsonl(fh: IO[str], component: str | None = None) -> StepPath:
    times: list[float] = []
    values: list[list[float]] = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        if "meta" in rec:
            continue
        if component is not None and rec.get("component") != component:
            continue
        if component is None and "component" in rec:
            raise ValueError(
                "file holds multiple components; pass component='x' (or 'k', ...)"
            )
        times.append(rec["time"])
        values.append(rec["value"])
    if not times:
        raise ValueError("no path records found")
    return StepPath(Partition(np.asarray(times)), np.asarray(values))
