import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mmsde import (
    Chunk,
    ExplosionError,
    convex_prox,
    indicator_ball,
    indicator_box,
    indicator_halfspace,
    indicator_polyhedron,
    linear_monotone,
)
from mmsde.skorokhod import _k

ROOT = Path(__file__).resolve().parents[1]
BENCH_CONFIGS = ROOT / "bench" / "configs"


def bench_config(name: str) -> str:
    """The text of the benchmark's config ``name``."""
    return (BENCH_CONFIGS / f"{name}.ini").read_text(encoding="utf-8")


# f(x) = diag(x * x) has no linear growth bound: trajectory 2 of this seed
# explodes on the 64-step grid
SQUARE_STUDY = """
[operator]
kind = halfline

[projection]
kind = elastic_iterated
c = 0.5

[coefficient]
kind = square

[driver]
sigma = 1
jump_rate = 3
jump_law = gaussian
jump_cov = 1
h0 = 0.5

[experiment]
levels = 4 64
yosida_levels = 2 4
trajectories = 12
seed = 33
"""


def soft_threshold(lam, z):
    return np.sign(z) * np.maximum(np.abs(z) - lam, 0.0)


def make_zoo():
    """Named built-in operators with (alpha, beta) graph pairs for verification."""
    halfline = indicator_halfspace([-1.0], 0.0)
    box2 = indicator_box([0.0, 0.0], [1.0, 1.0])
    ball2 = indicator_ball([0.0, 0.0], 1.0)
    wedge = indicator_polyhedron([([1.0, -1.0], 0.0), ([-1.0, -1.0], 0.0)])
    linear1 = linear_monotone([[1.0]])
    linear2 = linear_monotone([[2.0, 0.0], [0.0, 0.5]])
    rotation2 = linear_monotone([[0.5, 1.0], [-1.0, 0.5]])
    prox_abs = convex_prox(soft_threshold, 1,
                           graph_sample=lambda z: np.sign(z))
    zoo = {
        "halfline": halfline,
        "box2": box2,
        "ball2": ball2,
        "wedge": wedge,
        "linear1": linear1,
        "linear2": linear2,
        "rotation2": rotation2,
        "prox_abs": prox_abs,
    }
    pairs = {
        "halfline": [(np.array([0.5]), np.array([0.0])),
                     (np.array([0.0]), np.array([-1.0]))],
        "box2": [(np.array([0.5, 0.5]), np.array([0.0, 0.0])),
                 (np.array([1.0, 0.5]), np.array([1.0, 0.0])),
                 (np.array([0.0, 0.0]), np.array([-1.0, -1.0]))],
        "ball2": [(np.array([0.0, 0.0]), np.array([0.0, 0.0])),
                  (np.array([1.0, 0.0]), np.array([2.0, 0.0]))],
        "wedge": [(np.array([0.0, 1.0]), np.array([0.0, 0.0])),
                  (np.array([1.0, 1.0]), np.array([1.0, -1.0]))],
        "linear1": [(np.array([0.7]), np.array([0.7])),
                    (np.array([-2.0]), np.array([-2.0]))],
        "linear2": [(np.array([1.0, 1.0]), np.array([2.0, 0.5]))],
        "rotation2": [(np.array([1.0, 2.0]), np.array([2.5, 0.0]))],
        "prox_abs": [(np.array([1.0]), np.array([1.0])),
                     (np.array([-0.5]), np.array([-1.0]))],
    }
    return zoo, pairs


@pytest.fixture(scope="session")
def zoo():
    return make_zoo()[0]


@pytest.fixture(scope="session")
def zoo_pairs():
    return make_zoo()[1]


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def chunk_of(rows) -> Chunk:
    """The one-row chunks ``rows`` (``simulate``, ``from_step_paths``) laid end to
    end as the rows of one chunk, in order."""
    columns = ("times", "h", "z", "jump_flags", "jump_h", "jump_z")
    return Chunk(*(np.concatenate([getattr(r, name) for r in rows]) for name in columns),
                 np.cumsum([0, *(r.times.size for r in rows)]),
                 [index for r in rows for index in r.trajectory],
                 np.concatenate([r.level for r in rows]))


def chunk_rows(chunk, marched) -> list:
    """Per row of ``chunk``, its slices of a scheme body's x, x_pre and dy, or its error."""
    *paths, errors = marched
    bounds = zip(chunk.starts[:-1].tolist(), chunk.starts[1:].tolist())
    return [errors[b] if b in errors else tuple(a[lo:hi] for a in paths)
            for b, (lo, hi) in enumerate(bounds)]


def assert_row_is_the_run(row, run):
    """A ``chunk_rows`` row is the single run ``run()`` bit for bit, signed zeros
    included: the run's ExplosionError (text, fields and last), or its x,
    y = cumsum(dy), Euler x_pre and k, which the row's x, x_pre and dy make
    (``_k``; a Yosida run keeps no x_pre).  Returns what the run gave."""
    try:
        one = run()
    except ExplosionError as exc:
        assert isinstance(row, ExplosionError) and str(row) == str(exc)
        assert (row.trajectory, row.step, row.time, row.level) == \
            (exc.trajectory, exc.step, exc.time, exc.level)
        assert row.last.tobytes() == exc.last.tobytes()
        return exc
    x, x_pre, dy = row
    k = _k(one.x.partition, x, x_pre, dy, drift=one.scheme != "euler")
    pairs = [(x, one.x.values), (np.cumsum(dy, axis=0), one.y.values),
             (k.continuous.values, one.k.continuous.values), (k.jump.values, one.k.jump.values)]
    for got, want in pairs + [(x_pre, one.x_pre)] * (one.x_pre is not None):
        np.testing.assert_array_equal(got, want)
        assert got.tobytes() == want.tobytes()
    return one


def run_python(*args) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports the package from
    this checkout's ``src``, its output captured as text."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120, check=False)
