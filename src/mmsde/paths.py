"""Càdlàg step paths on finite grids.

Every path in the package is piecewise constant on a finite partition of
[0, T]: the value on [t_k, t_{k+1}) is ``values[k]`` and ``values[-1]`` is the
terminal value at T.  Continuous inputs are represented by their fine-grid
discretizations.  The module also provides grid refinement and CSV/JSONL
serialization with exact float round-trip.  CSV is read and written
``CSV_BLOCK_ROWS`` lines at a time, a column of a block per pass, not a row.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from itertools import compress, islice, repeat
from typing import IO

import numpy as np

__all__ = [
    "Partition",
    "StepPath",
    "BVDecomposition",
    "uniform_partition",
    "refine",
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

    @functools.cached_property
    def time_reprs(self) -> list[str]:
        """``repr`` of each time, formed once for every path written on the grid."""
        return list(map(repr, self.times.tolist()))

    def same_times(self, other: "Partition") -> bool:
        return other is self or (self.times.size == other.times.size
                                 and bool(np.all(self.times == other.times)))


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

    def jumps(self) -> np.ndarray:
        """Array of grid-point increments; row 0 is zero (no jump at t=0)."""
        out = np.zeros_like(self.values)
        out[1:] = np.diff(self.values, axis=0)
        return out

    def _check_compatible(self, other: "StepPath"):
        if not self.partition.same_times(other.partition):
            raise ValueError("paths live on different partitions")
        if self.dimension != other.dimension:
            raise ValueError("paths have different dimensions")


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


# ---------------------------------------------------------------------------
# serialization (full-precision round trip: repr of float64 is exact)

CSV_BLOCK_ROWS = 1024  # CSV lines parsed, or rows formatted, per pass


def write_step_path_csv(path: StepPath, fh: IO[str], component: str | None = None,
                        meta: dict | None = None, header: bool = True,
                        formatted: dict[bytes, list[str]] | None = None):
    """Write ``path`` as CSV rows ``time,v_1,...,v_d``, one per partition time.

    Every cell is the ``repr`` of its float, which reads back bit for bit.  A
    ``component`` name is written as a first cell on each row, under a
    ``component`` column, so that several paths can share one file; ``meta``
    is written first as ``# key=value`` lines in key order, then, if
    ``header``, the column names.  The rows are formed and written
    ``CSV_BLOCK_ROWS`` at a time, each value column formatted once as a whole.

    ``formatted`` maps the float64 bytes of a value column to its strings.
    Pass one dict with each path written to a file: a column whose bytes equal
    one the previous path left there, or an earlier column of this path,
    reuses its strings, and the dict is left holding this path's columns only.
    """
    if meta:
        fh.write("".join(f"# {key}={meta[key]}\n" for key in sorted(meta)))
    if header:
        cols = ["time"] + [f"v_{i + 1}" for i in range(path.dimension)]
        fh.write(",".join(cols if component is None else ["component"] + cols) + "\n")
    if formatted is None:
        formatted = {}
    raws = [col.tobytes() for col in path.values.T]
    # the previous path's other columns go before this path's are formed
    kept = {raw: formatted[raw] for raw in raws if raw in formatted}
    formatted.clear()
    formatted.update(kept)
    for raw, col in zip(raws, path.values.T):
        if raw not in formatted:
            formatted[raw] = list(map(repr, col.tolist()))
    # the time strings belong to the partition, which the components of a
    # solution share
    columns = [] if component is None else [repeat(component)]
    columns.append(path.partition.time_reprs)
    columns.extend(formatted[raw] for raw in raws)
    rows = map(",".join, zip(*columns))
    while block := list(islice(rows, CSV_BLOCK_ROWS)):
        block.append("")
        fh.write("\n".join(block))


def read_step_path_csv(fh: IO[str], component: str | None = None) -> StepPath:
    """A path written by ``write_step_path_csv``: the rows of ``component``,
    or of a file without a component column.

    Blank lines and ``#`` lines are skipped, and the first other line is the
    header.  The lines are read ``CSV_BLOCK_ROWS`` at a time; each block's
    field counts are checked at once and its cells split as one string, each
    kept column converted as a whole.  A row whose field count differs from
    the header's (a row of any component), or a kept cell that is not a
    number, raises ``ValueError`` naming its line; of several, the first in
    file order is named.
    """
    header = None
    for lineno, line in enumerate(fh, 1):
        if (line := line.strip()) and not line.startswith("#"):
            header = line.split(",")
            break
    if header is None:
        raise ValueError("no path records found")
    if "time" not in header:
        raise ValueError("missing 'time' column")
    if "component" in header and component is None:
        raise ValueError(
            "file holds multiple components; pass component='x' (or 'k', ...)"
        )
    n, tag = len(header), header.index("component") if "component" in header else None
    # the time column, then the value columns in header order
    cols = [header.index("time")] + [i for i, c in enumerate(header) if c.startswith("v_")]
    columns: list[list[float]] = [[] for _ in cols]
    while block := list(map(str.strip, islice(fh, CSV_BLOCK_ROWS))):
        first, lineno = lineno + 1, lineno + len(block)
        if not (lines := [line for line in block if line and not line.startswith("#")]):
            continue
        if list(map(str.count, lines, repeat(","))).count(n - 1) != len(lines):
            raise _first_fault(block, first, header, component, tag, cols)
        cells = ",".join(lines).split(",")
        keep = None
        if component is not None:
            keep = (list(map(component.__eq__, cells[tag::n])) if tag is not None
                    else [False] * len(lines))
        try:
            for out, i in zip(columns, cols):
                out.extend(map(float, cells[i::n] if keep is None
                               else compress(cells[i::n], keep)))
        except ValueError:
            raise _first_fault(block, first, header, component, tag, cols) from None
    if not columns[0]:
        raise ValueError("no path records found")
    table = np.array(columns).T
    return StepPath(Partition(table[:, 0]), table[:, 1:])


def _first_fault(block, first, header, component, tag, cols) -> ValueError:
    """The error of ``read_step_path_csv`` for the first faulty line of a
    block of stripped lines, ``first`` the number of its first line."""
    for lineno, line in enumerate(block, first):
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != len(header):
            return ValueError(f"line {lineno}: {len(fields)} fields, but the header "
                              f"names {len(header)}")
        if component is not None and (tag is None or fields[tag] != component):
            continue
        try:
            for i in cols:
                float(fields[i])
        except ValueError as exc:
            return ValueError(f"line {lineno}: {exc}")
    raise AssertionError("a block that failed to parse holds no faulty line")


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
    """A path written by ``write_step_path_jsonl``; a line that is not a JSON
    object with ``time`` and ``value`` raises ``ValueError`` naming it."""
    times: list[float] = []
    values: list[list[float]] = []
    for lineno, line in enumerate(fh, 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if not isinstance(rec, dict):
            raise ValueError(f"line {lineno}: a record must be a JSON object")
        if "meta" in rec:
            continue
        if component is not None and rec.get("component") != component:
            continue
        if component is None and "component" in rec:
            raise ValueError(
                "file holds multiple components; pass component='x' (or 'k', ...)"
            )
        for key in ("time", "value"):
            if key not in rec:
                raise ValueError(f"line {lineno}: record has no {key!r}")
        times.append(rec["time"])
        values.append(rec["value"])
    if not times:
        raise ValueError("no path records found")
    return StepPath(Partition(np.asarray(times)), np.asarray(values))
