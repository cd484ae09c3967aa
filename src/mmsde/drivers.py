"""Seeded simulation of the driving processes H and Z on a partition.

Both drivers are drift + Brownian + compound-Poisson processes; H carries an
initial point, Z starts at zero.  Jump times are sampled independently of the
partition and inserted into the computational grid, so schemes see every jump
at an exact grid point and left limits are well defined.

Randomness is counter-based (Philox4x64-10; Salmon et al., SC'11): every
draw is keyed by (master seed, trajectory index) with the counter (0, purpose
tag, context word, block), so trajectory generation is order-independent and
reproducible bit-for-bit.  Brownian values come from a dyadic bridge descent
to float resolution (no depth cap, so the law is exact) whose Gaussians are
keyed by the node time, which makes W(t) a pure function of (seed,
trajectory, tag, t): simulating on a refined partition reproduces the coarse
values exactly, and ``restrict`` reads them off a fine realization.
``simulate_chunk`` descends depth by depth for up to ``_DESCENT_TIMES`` grid
times of a chunk of trajectories at once, draws for all nodes with a key
per node (a numpy Philox4x64-10 equal to ``np.random.Philox(key,
counter).random_raw()``, then Box-Muller, in slices of ``_PHILOX_CHUNK``
blocks) and runs the bridge recursion; ``simulate`` is a chunk of one.
``STREAM_VERSION`` names the stream; a change to its values bumps it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .paths import Partition, StepPath

__all__ = [
    "STREAM_VERSION",
    "JumpLaw",
    "ProcessSpec",
    "DriverSpec",
    "DriverRealization",
    "simulate",
    "simulate_chunk",
    "restrict",
    "from_step_paths",
]

STREAM_VERSION = 2

_U64 = 0xFFFFFFFFFFFFFFFF

# purpose tags for substreams
_TAG_Z_TIMES = 1
_TAG_Z_SIZES = 2
_TAG_Z_BM = 3
_TAG_H_TIMES = 4
_TAG_H_SIZES = 5
_TAG_H_BM = 6


def _substream(seed: int, index: int, purpose: int, context: int = 0) -> np.random.Generator:
    key = np.array([seed & _U64, index & _U64], dtype=np.uint64)
    counter = np.array([0, purpose & _U64, context & _U64, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


# Philox4x64-10 multipliers and Weyl key increments, stacked for the two
# lanes (counter words 0 and 2) that each round multiplies.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_M_LO = _PHILOX_M & np.uint64(0xFFFFFFFF)
_PHILOX_M_HI = _PHILOX_M >> np.uint64(32)
_PHILOX_M_SWAP = np.ascontiguousarray(_PHILOX_M[::-1])
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_PHILOX_ROUNDS = 10
_PHILOX_CHUNK = 1 << 13  # counter blocks per slice of a draw; bounds the temporaries
# Query times per bridge descent, whose arrays grow with its times times the
# tree depth (about 55 for a non-dyadic time); two 401-point grids share one.
_DESCENT_TIMES = 1 << 10


def _philox_block(x: np.ndarray, y: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Philox4x64-10 on lanes x = (c0, c2), overwritten, and y = (c1, c3) under ``key``."""
    lo32, s32 = np.uint64(0xFFFFFFFF), np.uint64(32)
    for r in range(_PHILOX_ROUNDS):
        # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0) with k = key + r W
        # and (hi, lo) the 128-bit product x * M; hi from 32-bit halves, in place of x
        lo, x_lo = x[::-1] * _PHILOX_M_SWAP, x & lo32
        x >>= s32
        t = x * _PHILOX_M_LO
        t += (x_lo * _PHILOX_M_LO) >> s32
        x_lo *= _PHILOX_M_HI
        x_lo += t & lo32
        x *= _PHILOX_M_HI
        x += t >> s32
        x += x_lo >> s32
        x, y = x[::-1] ^ y ^ (key + r * _PHILOX_W), lo
    return x, y


def _philox_raw(keys, counters: np.ndarray) -> np.ndarray:
    """Row i is ``np.random.Philox(key=keys[i], counter=counters[i]).random_raw(4)``.

    ``counters`` is (n, 4) uint64 and ``keys`` (n, 2) or one (2,); like numpy's bit
    generator, the counter is incremented (with carry) before the block is generated.
    """
    c = np.array(counters, dtype=np.uint64).reshape(-1, 4)
    c[:, 0] += np.uint64(1)
    carry = c[:, 0] == 0
    for j in (1, 2, 3):
        c[:, j] += carry
        carry &= c[:, j] == 0
    keys = np.broadcast_to(np.asarray(keys, dtype=np.uint64), (c.shape[0], 2))
    lanes = c.T
    lanes[0::2], lanes[1::2] = _philox_block(lanes[0::2].copy(), lanes[1::2].copy(), keys.T)
    return c


def _keyed_gaussians(seed: int, rows: np.ndarray, purposes, node_times: np.ndarray,
                     dim: int) -> np.ndarray:
    """Standard normals keyed by (seed, row, purpose, bits of t): (nodes, purposes * dim).

    Node t of trajectory ``rows[i]`` and purpose p uses the Philox blocks at
    key (seed, row) and counters (0, p, bits(t), j); Box-Muller turns the
    words, pair by pair, into the normals (r cos a, r sin a), of which the
    first ``dim`` are used.
    """
    blocks, pairs = -(-dim // 4), -(-dim // 2)
    # lanes (c0, c2), (c1, c3) of the incremented counters, and the keys; a column per block
    x, y, key = np.empty((3, 2, node_times.size, len(purposes), blocks), dtype=np.uint64)
    x[0], x[1] = 1, node_times.view(np.uint64)[:, None, None]
    y[0], y[1] = np.asarray(purposes, dtype=np.uint64)[:, None], np.arange(blocks)
    key[0], key[1] = seed & _U64, np.asarray(rows)[:, None, None]
    x, y = _philox_block(x.reshape(2, -1), y.reshape(2, -1), key.reshape(2, -1))
    words = np.stack([x[0], y[0], x[1], y[1]], axis=-1).reshape(node_times.size, len(purposes), -1)
    u = (words[..., :2 * pairs] >> np.uint64(11)) * 2.0 ** -53  # uniforms on [0, 1)
    radius = np.sqrt(-2.0 * np.log1p(-u[..., 0::2]))
    angle = 2.0 * np.pi * u[..., 1::2]
    normals = np.empty((node_times.size, len(purposes), dim))
    normals[..., 0::2] = radius * np.cos(angle)
    normals[..., 1::2] = radius[..., :dim // 2] * np.sin(angle[..., :dim // 2])
    return normals.reshape(node_times.size, -1)


@dataclass(frozen=True, eq=False)
class JumpLaw:
    """Jump size distribution: gaussian(mean, cov), uniform_ball(r), or fixed(v)."""

    kind: str
    mean: np.ndarray | None = None
    factor: np.ndarray | None = None  # cov = factor @ factor.T
    radius: float = 0.0
    value: np.ndarray | None = None

    @staticmethod
    def gaussian(mean, cov) -> "JumpLaw":
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match the mean")
        # symmetric psd factor; tolerate singular covariances
        eigval, eigvec = np.linalg.eigh(0.5 * (cov + cov.T))
        if eigval.min() < -1e-12:
            raise ValueError("covariance must be positive semidefinite")
        factor = eigvec @ np.diag(np.sqrt(np.clip(eigval, 0.0, None)))
        return JumpLaw(kind="gaussian", mean=mean, factor=factor)

    @staticmethod
    def uniform_ball(radius: float, dimension: int) -> "JumpLaw":
        if not (radius > 0):
            raise ValueError("radius must be positive")
        return JumpLaw(kind="uniform_ball", radius=float(radius),
                       value=np.zeros(dimension))

    @staticmethod
    def fixed(value) -> "JumpLaw":
        return JumpLaw(kind="fixed", value=np.atleast_1d(np.asarray(value, dtype=float)))

    @property
    def dimension(self) -> int:
        return (self.mean if self.kind == "gaussian" else self.value).size

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` independent jump sizes, shape (count, d)."""
        if self.kind == "gaussian":
            return self.mean + rng.standard_normal((count, self.mean.size)) @ self.factor.T
        if self.kind == "uniform_ball":
            d = self.value.size
            direction = rng.standard_normal((count, d))
            nrm = np.linalg.norm(direction, axis=1)
            scale = self.radius * rng.uniform(size=count) ** (1.0 / d)
            return direction * np.divide(scale, nrm, out=np.zeros(count), where=nrm > 0.0)[:, None]
        if self.kind == "fixed":
            return np.tile(self.value, (count, 1))
        raise ValueError(f"unknown jump law {self.kind!r}")

    @property
    def spec(self) -> dict:
        if self.kind == "gaussian":
            cov = self.factor @ self.factor.T
            return {"kind": "gaussian", "mean": self.mean.tolist(), "cov": cov.tolist()}
        if self.kind == "uniform_ball":
            return {"kind": "uniform_ball", "radius": self.radius,
                    "dimension": self.value.size}
        return {"kind": "fixed", "value": self.value.tolist()}


@dataclass(frozen=True, eq=False)
class ProcessSpec:
    """Drift + Brownian + compound-Poisson description of one process."""

    dimension: int
    brownian_vol: np.ndarray
    drift: np.ndarray
    jump_rate: float = 0.0
    jump_law: JumpLaw | None = None

    def __post_init__(self):
        d = self.dimension
        vol = np.atleast_2d(np.asarray(self.brownian_vol, dtype=float))
        drift = np.atleast_1d(np.asarray(self.drift, dtype=float))
        if vol.shape != (d, d):
            raise ValueError(f"brownian_vol must be {d}x{d}")
        if drift.shape != (d,):
            raise ValueError(f"drift must have length {d}")
        if not (np.all(np.isfinite(vol)) and np.all(np.isfinite(drift))):
            raise ValueError("drift and volatility must be finite")
        if not (np.isfinite(self.jump_rate) and self.jump_rate >= 0):
            raise ValueError("jump rate must be finite and nonnegative")
        if self.jump_rate > 0 and self.jump_law is None:
            raise ValueError("a jump law is required when the jump rate is positive")
        object.__setattr__(self, "brownian_vol", vol)
        object.__setattr__(self, "drift", drift)

    @property
    def has_brownian(self) -> bool:
        return bool(np.any(self.brownian_vol != 0.0))

    @staticmethod
    def zero(dimension: int) -> "ProcessSpec":
        return ProcessSpec(dimension, np.zeros((dimension, dimension)),
                           np.zeros(dimension))


@dataclass(frozen=True, eq=False)
class DriverSpec:
    """Specification of the pair (H, Z); Z_0 = 0, H starts at ``h0``."""

    z: ProcessSpec
    h: ProcessSpec
    h0: np.ndarray

    def __post_init__(self):
        if self.z.dimension != self.h.dimension:
            raise ValueError("H and Z must share one dimension")
        h0 = np.atleast_1d(np.asarray(self.h0, dtype=float))
        if h0.shape != (self.z.dimension,) or not np.all(np.isfinite(h0)):
            raise ValueError("h0 must be a finite point of the driver dimension")
        object.__setattr__(self, "h0", h0)

    @property
    def dimension(self) -> int:
        return self.z.dimension


def _brownian_values(seed: int, index, purposes, horizon: float, dim: int,
                     times: np.ndarray) -> np.ndarray:
    """Standard Brownian motions W_p(t), one per purpose tag: (purposes, times, dim).

    Each time descends from the bracket (0, T), bridging to the midpoint s of
    its bracket, or to itself once the bracket has no float midpoint, until
    it reaches its own node.  The Gaussian of node s is keyed by its time's
    trajectory ``index`` (one per time, or one for all) and the bits of s.
    """
    times = np.asarray(times, dtype=float)
    if not np.all((times >= 0.0) & (times <= horizon)):
        raise ValueError(f"times outside [0, {horizon}]")
    rows = np.broadcast_to(np.asarray(index).astype(np.uint64), times.shape)
    inner = (times > 0.0) & (times < horizon)
    ends, end_of = np.unique(rows, return_inverse=True)
    end_of = end_of.astype(np.min_scalar_type(ends.size))  # the row of a time, as a small id

    # pass 1: the nodes of every time, depth by depth; they depend on no value
    steps, owners = [], []
    t, row = times[inner], end_of[inner]
    a, b = np.zeros(t.size), np.full(t.size, float(horizon))
    while t.size:
        m = 0.5 * (a + b)
        s = np.where((a < m) & (m < b), m, t)
        left, stop = t < s, s == t
        a, b = np.where(left, a, s), np.where(left, s, b)
        steps.append((s[:, None], left[:, None], stop))
        owners.append(row)
        if stop.any():
            t, a, b, row = t[~stop], a[~stop], b[~stop], row[~stop]
    visits = np.concatenate([step[0][:, 0] for step in steps] + [np.full(ends.size, horizon)])
    owners = np.concatenate(owners + [np.arange(ends.size, dtype=end_of.dtype)])
    # Each node sits at one depth, and a depth lists its nodes in (trajectory,
    # time) order when each trajectory's times are sorted, so repeats are
    # adjacent; a repeat left in is only drawn twice, with the same key.
    fresh = np.concatenate([[True], (visits[1:] != visits[:-1]) | (owners[1:] != owners[:-1])])
    node_ids = np.cumsum(fresh, dtype=np.int32) - 1
    visits, owners = visits[fresh], owners[fresh]

    # pass 2: one keyed draw for every node, in slices of _PHILOX_CHUNK blocks
    gauss = np.empty((visits.size, len(purposes) * dim))
    step = _PHILOX_CHUNK // (len(purposes) * -(-dim // 4))
    for lo in range(0, visits.size, step):
        gauss[lo:lo + step] = _keyed_gaussians(seed, ends[owners[lo:lo + step]], purposes,
                                               visits[lo:lo + step], dim)
    w_end = np.sqrt(horizon) * gauss[node_ids[-ends.size:]]

    # pass 3: the bridge recursion, depth by depth
    w = np.zeros((times.size, gauss.shape[1]))
    at_end = times == horizon
    w[at_end] = w_end[end_of[at_end]]
    pos, first = np.flatnonzero(inner), 0
    a, b = np.zeros((pos.size, 1)), np.full((pos.size, 1), float(horizon))
    va, vb = np.zeros((pos.size, w.shape[1])), w_end[end_of[inner]]
    for s, left, stop in steps:
        frac, std = (s - a) / (b - a), np.sqrt((s - a) * (b - s) / (b - a))
        vs = va + frac * (vb - va) + std * gauss[node_ids[first:first + stop.size]]
        first += stop.size
        a, b = np.where(left, a, s), np.where(left, s, b)
        va, vb = np.where(left, va, vs), np.where(left, vs, vb)
        if stop.any():
            w[pos[stop]] = vs[stop]
            pos, a, b, va, vb = pos[~stop], a[~stop], b[~stop], va[~stop], vb[~stop]
    return w.reshape(times.size, len(purposes), dim).transpose(1, 0, 2)


@dataclass(frozen=True, eq=False)
class DriverRealization:
    """One sampled (H, Z) pair aligned to an augmented partition.

    ``grid`` is the base partition with all sampled jump times inserted;
    ``jump_h``/``jump_z`` hold the process discontinuity at each grid time
    (zero rows where the process does not jump) and ``jump_flags`` marks the
    arrival times of either process.
    """

    base: Partition
    grid: Partition
    h: StepPath
    z: StepPath
    jump_flags: np.ndarray
    jump_h: np.ndarray
    jump_z: np.ndarray
    seed: int | None = None
    trajectory_index: int | None = None
    spec: DriverSpec | None = None

    @property
    def dimension(self) -> int:
        return self.z.dimension


def _sample_jumps(proc: ProcessSpec, seed: int, index: int, tag_times: int,
                  tag_sizes: int, horizon: float):
    if proc.jump_rate == 0.0:
        return np.empty(0), np.empty((0, proc.dimension))
    rng_t = _substream(seed, index, tag_times)
    count = int(rng_t.poisson(proc.jump_rate * horizon))
    times = np.sort(rng_t.uniform(0.0, horizon, size=count))
    sizes = proc.jump_law.sample(_substream(seed, index, tag_sizes), count)
    return times, sizes


def _process_values(proc: ProcessSpec, times: np.ndarray, w: np.ndarray | None,
                    jump_times: np.ndarray, jump_sizes: np.ndarray) -> np.ndarray:
    vals = times[:, None] * proc.drift[None, :]
    if w is not None:
        vals = vals + w @ proc.brownian_vol.T
    if jump_times.size:
        cum = np.vstack([np.zeros(proc.dimension), np.cumsum(jump_sizes, axis=0)])
        idx = np.searchsorted(jump_times, times, side="right")
        vals = vals + cum[idx]
    return vals


def _jump_arrays(times: np.ndarray, jump_times: np.ndarray, jump_sizes: np.ndarray,
                 dim: int) -> np.ndarray:
    out = np.zeros((times.size, dim))
    if jump_times.size:
        pos = np.searchsorted(times, jump_times)
        out[pos] = jump_sizes
    return out


def simulate(spec: DriverSpec, partition: Partition, seed: int,
             trajectory_index: int = 0) -> DriverRealization:
    """Sample one (H, Z) realization, deterministic in (seed, trajectory_index):
    ``simulate_chunk`` of one trajectory."""
    return simulate_chunk(spec, partition, seed, [trajectory_index])[0]


def simulate_chunk(spec: DriverSpec, partition: Partition, seed: int, indices) -> list:
    """The realizations of trajectories ``indices`` on ``partition``, in that order.

    Each trajectory's jump times are merged into its grid, and the Brownian
    parts at all the grids' times come from one descent of the keyed bridge
    tree per ``_DESCENT_TIMES`` times.  Item i does not depend on the chunk.
    """
    if len(indices) == 0:
        return []
    horizon, d = partition.horizon, spec.dimension
    jumps = [_sample_jumps(spec.z, seed, i, _TAG_Z_TIMES, _TAG_Z_SIZES, horizon)
             + _sample_jumps(spec.h, seed, i, _TAG_H_TIMES, _TAG_H_SIZES, horizon)
             for i in indices]
    grids = [np.union1d(partition.times, np.union1d(zt, ht)) if zt.size or ht.size
             else partition.times for zt, _, ht, _ in jumps]
    tags = [tag for tag, proc in ((_TAG_Z_BM, spec.z), (_TAG_H_BM, spec.h))
            if proc.has_brownian]
    queries, rows = np.concatenate(grids), np.repeat(indices, [g.size for g in grids])
    w_all = np.empty((len(tags), queries.size, d))
    for lo in range(0, queries.size, _DESCENT_TIMES) if tags else ():
        hi = lo + _DESCENT_TIMES
        w_all[:, lo:hi] = _brownian_values(seed, rows[lo:hi], tags, horizon, d, queries[lo:hi])
    out, lo = [], 0
    for i, times, (zt, zs, ht, hs) in zip(indices, grids, jumps):
        w = dict(zip(tags, w_all[:, lo:lo + times.size]))
        lo += times.size
        grid = Partition(times)
        z_vals = _process_values(spec.z, times, w.get(_TAG_Z_BM), zt, zs)
        h_vals = spec.h0[None, :] + _process_values(spec.h, times, w.get(_TAG_H_BM), ht, hs)
        out.append(DriverRealization(
            base=partition, grid=grid, h=StepPath(grid, h_vals), z=StepPath(grid, z_vals),
            jump_flags=np.isin(times, zt) | np.isin(times, ht),
            jump_h=_jump_arrays(times, ht, hs, d), jump_z=_jump_arrays(times, zt, zs, d),
            seed=seed, trajectory_index=i, spec=spec))
    return out


def restrict(realization: DriverRealization, coarser: Partition) -> DriverRealization:
    """The same trajectory on ``coarser``, which must lie within its grid.

    The grid keeps every jump time and each value is a function of its time
    alone, so this equals ``simulate`` on ``coarser`` bit for bit.
    """
    fine = realization.grid
    if coarser.horizon != fine.horizon or not fine.contains_times(coarser):
        raise ValueError("coarser partition must lie within the realization's grid")
    grid = Partition(np.union1d(coarser.times, fine.times[realization.jump_flags]))
    pos = np.searchsorted(fine.times, grid.times)
    rows = {k: getattr(realization, k)[pos] for k in ("jump_flags", "jump_h", "jump_z")}
    paths = {k: StepPath(grid, getattr(realization, k).values[pos]) for k in "hz"}
    return replace(realization, base=coarser, grid=grid, **rows, **paths)


def from_step_paths(h: StepPath, z: StepPath) -> DriverRealization:
    """Wrap user-supplied step paths as a driver realization.

    Every nonzero grid increment of either path is treated as a jump of that
    process (a step path genuinely jumps at its grid points).  Z must start
    at zero.
    """
    if not h.partition.same_times(z.partition):
        raise ValueError("H and Z must share one partition")
    if np.any(z.values[0] != 0.0):
        raise ValueError("Z must start at zero")
    jump_h = h.jumps()
    jump_z = z.jumps()
    flags = (np.linalg.norm(jump_h, axis=1) > 0) | (np.linalg.norm(jump_z, axis=1) > 0)
    return DriverRealization(
        base=h.partition, grid=h.partition, h=h, z=z,
        jump_flags=flags, jump_h=jump_h, jump_z=jump_z,
        seed=None, trajectory_index=None, spec=None,
    )
