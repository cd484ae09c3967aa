"""Seeded simulation of the driving processes H and Z on a partition.

Both drivers are drift + Brownian + compound-Poisson processes; H carries an
initial point, Z starts at zero.  Jump times are sampled independently of the
partition and inserted into the computational grid, so schemes see every jump
at an exact grid point and left limits are well defined.

Randomness is counter-based (Philox4x64-10; Salmon et al., SC'11), keyed by
(master seed, trajectory index) with the counter (0, purpose tag, context word,
block), so trajectories are order-independent and reproducible bit for bit.
W comes from the tree of dyadic bridge nodes of (0, 1), split only as far as
a row's times need: the few times left in a bracket take one bridge draw each,
which keeps the law exact.  Each draw is keyed by its time and drawn once; on
a horizon T, W(t) = sqrt(T) B(t / T) by Brownian scaling.  W on a row is a
pure function of (seed, trajectory, tag, the row's set of times), not of t
alone, so a study reads its coarser levels off one fine row with
``Chunk.restrict``; simulating a coarser grid directly gives the same values
only at times that are nodes of both trees, as on a dyadic grid.  The horizon
is at most 2**512, the range a config accepts; no bridge weight bounds it, as
every bracket lies in (0, 1).  ``STREAM_VERSION`` names the stream; a change to
its values bumps it.

Realizations travel as the rows of one ``Chunk``: grid times laid end to
end with row offsets, H and Z as (N, d) columns, the jump flags and sizes, and
each row's trajectory index and base level.  One realization is a one-row
chunk: ``simulate`` samples one, and ``from_step_paths`` wraps given paths as one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import Partition, StepPath

__all__ = [
    "STREAM_VERSION",
    "JumpLaw",
    "ProcessSpec",
    "DriverSpec",
    "Chunk",
    "simulate",
    "from_step_paths",
]

STREAM_VERSION = 4
# the largest horizon accepted; the unit tree's weights would be finite beyond it
_MAX_HORIZON = 2.0 ** 512

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
_PHILOX_CHUNK = 1 << 13  # about the counter blocks per slice of a draw; bounds the temporaries
# Points per ``_brownian_values`` call of ``_simulate``, whose arrays grow with its
# points: 64 dyadic 513-point grids and their jump times share one call.
_CALL_POINTS = 1 << 16
# The most times the sweep leaves in one bracket, each bridged in one draw from its
# left neighbour: a non-dyadic grid then draws about 1.25 nodes per point, not 2.
_LEAF_TIMES = 4


def _philox_block(x: np.ndarray, y: np.ndarray, key: np.ndarray, rounds=range(_PHILOX_ROUNDS)):
    """Philox4x64-10 ``rounds`` on lanes x = (c0, c2), y = (c1, c3) under ``key``, overwritten.
    One lane, x = (c2,), y = (c1,) under key (k0,), gives a round's words 0 and 1 alone."""
    lo32, s32 = np.uint64(0xFFFFFFFF), np.uint64(32)
    lo, x_lo, t, u = (np.empty_like(x) for _ in range(4))  # the rounds allocate nothing else
    # the lanes' multipliers and key increments: one lane (c2,) multiplies M1, its k0 adds W0
    m_lo, m_hi = _PHILOX_M_LO[2 - len(x):], _PHILOX_M_HI[2 - len(x):]
    m_swap, w = _PHILOX_M_SWAP[:len(x)], _PHILOX_W[:len(x)]
    for r in rounds:
        # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0) with k = key + r W
        # and (hi, lo) the 128-bit product x * M; hi from 32-bit halves, in place of x
        np.multiply(x[::-1], m_swap, out=lo)
        np.bitwise_and(x, lo32, out=x_lo)
        x >>= s32
        np.multiply(x, m_lo, out=t)
        t += np.right_shift(np.multiply(x_lo, m_lo, out=u), s32, out=u)
        x_lo *= m_hi
        x_lo += np.bitwise_and(t, lo32, out=u)
        x *= m_hi
        x += np.right_shift(t, s32, out=t)
        x += np.right_shift(x_lo, s32, out=x_lo)
        np.bitwise_xor(np.bitwise_xor(np.add(key, r * w, out=u), y, out=u), x[::-1], out=u)
        x, y, u, lo = u, lo, x, y
    return x, y


def _philox_keyed(seed: int, trajectories: np.ndarray, purposes, times: np.ndarray,
                  blocks: int, lanes: int):
    """``_philox_block`` at key (seed, trajectory) and counters (1, p, bits(t), j), as
    incremented, of each node, purpose p and block j: lanes x = (c0, c2), y = (c1, c3),
    (lanes, nodes x purposes x blocks), only words 0 and 1 if ``lanes`` = 1.  Round 1
    multiplies bits(t) once per node, as c0 = 1 has the product (hi 0, lo M0), and the
    last round of words 0 and 1 only lane 1."""
    zeros = np.zeros((2, 1, times.size), dtype=np.uint64)  # round 1's c1 and k0: (hi, lo) alone
    hi, lo = _philox_block(np.array(times.view(np.uint64), ndmin=2), *zeros, range(1))
    x, y, key = np.empty((3, 2, times.size, len(purposes), blocks), dtype=np.uint64)
    key[0], key[1] = seed & _U64, trajectories[:, None, None]
    x[0] = hi[0, :, None, None] ^ np.asarray(purposes, dtype=np.uint64)[:, None] ^ key[0]
    x[1] = np.arange(blocks, dtype=np.uint64) ^ key[1]
    y[0], y[1] = lo[0, :, None, None], _PHILOX_M[0]
    x, y, key = (v.reshape(2, -1) for v in (x, y, key))
    if lanes == 2:
        return _philox_block(x, y, key, range(1, _PHILOX_ROUNDS))
    x, y = _philox_block(x, y, key, range(1, _PHILOX_ROUNDS - 1))
    return _philox_block(x[1:], y[:1], key[:1], range(_PHILOX_ROUNDS - 1, _PHILOX_ROUNDS))


def _keyed_gaussians(seed: int, ends: np.ndarray, owners: np.ndarray, purposes,
                     node_times: np.ndarray, dim: int) -> np.ndarray:
    """Standard normals keyed by (seed, trajectory, purpose, bits of t): (nodes, purposes * dim).

    Node t of trajectory ``ends[owners[i]]`` and purpose p uses the Philox
    blocks at key (seed, trajectory) and counters (0, p, bits(t), j), drawn by
    ``_philox_keyed`` in slices of about ``_PHILOX_CHUNK`` blocks, words 0 and 1 alone
    when ``dim`` <= 2; Box-Muller turns the words, pair by pair, into the
    normals (r cos a, r sin a), of which the first ``dim`` are used.
    """
    blocks, pairs = -(-dim // 4), -(-dim // 2)
    normals = np.empty((node_times.size, len(purposes), dim))
    # as many slices as _PHILOX_CHUNK blocks fit, rounded: no ragged tail, none over 3/2 of it
    slices = max(1, round(node_times.size * len(purposes) * blocks / _PHILOX_CHUNK))
    step = max(1, -(-node_times.size // slices))
    for lo in range(0, node_times.size, step):
        t, out = node_times[lo:lo + step], normals[lo:lo + step]
        lanes = _philox_keyed(seed, ends[owners[lo:lo + step]], purposes, t, blocks, min(pairs, 2))
        # the even words (c0, c2 of each block) and the odd words (c1, c3), pair by pair
        even, odd = (v.reshape(-1, *out.shape[:2], blocks).transpose(1, 2, 3, 0)
                     .reshape(*out.shape[:2], -1)[..., :pairs] for v in lanes)
        radius = np.sqrt(-2.0 * np.log1p(-((even >> np.uint64(11)) * 2.0 ** -53)))
        angle = 2.0 * np.pi * ((odd >> np.uint64(11)) * 2.0 ** -53)  # uniforms on [0, 1)
        out[..., 0::2] = radius * np.cos(angle)
        out[..., 1::2] = radius[..., :dim // 2] * np.sin(angle[..., :dim // 2])
    return normals.reshape(node_times.size, len(purposes) * dim)


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


# the bridge std of each depth j of (0, 1), on its exact operands b - a = 2 (s - a)
# = 2 (b - s) = 2**-j (frac is 1/2); then 0, for the sweep's last depth, of empty brackets
_HALF = np.ldexp(1.0, -1 - np.arange(1074))
_DEPTH_STDS = np.append(np.sqrt(_HALF * _HALF / (2.0 * _HALF)), 0.0)


def _brownian_values(seed: int, index, purposes, horizon: float, dim: int,
                     times: np.ndarray) -> np.ndarray:
    """Standard Brownian motions W_p(t), one per purpose tag: (purposes, times, dim).

    Their joint law at the given times is exact, and they are a pure function of
    (seed, trajectory, purpose and the trajectory's set of times in the call).  A
    horizon T other than 1 reads the unit interval, W(t) = sqrt(T) B(t / T), so
    two times that t / T rounds to one float share W, and a time with t / T = 0
    (5e-324 on T = 3) reads W = 0.  Each trajectory (``index``: one per time, or
    one for all) has the tree of dyadic brackets of (0, 1); bracket (a, b) has
    node m = (a + b) / 2.  Pass 1 sweeps the trees depth by depth over the
    brackets that hold a time at m or more than ``_LEAF_TIMES`` times, and
    splits their times between the children with one ``np.searchsorted`` on the
    sorted (trajectory, time) keys; the times of a bracket left as a leaf lie
    strictly inside it.  Pass 2 draws one normal for each node m and each leaf
    time t, keyed by the trajectory and the bits of m or t, which never
    coincide.  Pass 3 bridges the nodes in order: every bracket is an exact
    dyadic, so m's frac is 1/2 and its std is one per depth (``_DEPTH_STDS``).
    Then each leaf's times take one draw each, in order, from the value on
    their left, W(a) for the first, to W(b): W(a) + frac (W(b) - W(a)) + std Z
    with frac = (t - a) / (b - a) and std = sqrt(frac (b - t)), a product that
    does not underflow where (t - a)(b - t) would.  As W is Markov, that is the
    law of W(t) given every value drawn before it (Karatzas and Shreve, section
    5.6.B).
    """
    if not horizon <= _MAX_HORIZON:
        raise ValueError(f"horizon {horizon} above 2**512 = {_MAX_HORIZON}, "
                         "the largest accepted")
    times = np.asarray(times, dtype=float)
    if not np.all((times >= 0.0) & (times <= horizon)):
        raise ValueError(f"times outside [0, {horizon}]")
    if horizon != 1.0:
        return np.sqrt(horizon) * _brownian_values(seed, index, purposes, 1.0, dim, times / horizon)
    ends, end_of = np.unique(np.broadcast_to(np.asarray(index).astype(np.uint64), times.shape),
                             return_inverse=True)
    # numpy orders complex numbers by real part, then imaginary part, both exact
    # here; return_index selects its stable sort, which is fast on sorted grids
    keys, _, query_of = np.unique(end_of + 1j * times, return_index=True, return_inverse=True)
    key_t, root = keys.imag.copy(), np.arange(ends.size, dtype=np.min_scalar_type(ends.size))
    # pass 1, the sweep; a bracket is (trajectory, a, b) with the queries [lo, hi) of keys
    live = (root, np.zeros(ends.size), np.ones(ends.size),
            np.searchsorted(keys, root + 0j, side="right"), np.searchsorted(keys, root + 1j))
    nodes, sweep, alone = [(root, live[2])], [], [[x[:0] for x in live]]
    while live[0].size:
        r, a, b, lo, hi = live
        m, count = 0.5 * (a + b), hi - lo
        split = np.searchsorted(keys, r + 1j * m)
        hit = (split < hi) & (key_t[np.minimum(split, hi - 1)] == m)
        # shared: more than _LEAF_TIMES times, or one at m
        shared = hit | (count > _LEAF_TIMES)
        leaf = ~shared & (count > 0)  # empty brackets drop out
        alone.append([x[leaf] for x in live])
        r, a, b, lo, hi, m, split, hit = (x[shared] for x in (*live, m, split, hit))
        nodes.append((r, m))
        sweep.append((shared, leaf, _DEPTH_STDS[len(sweep)], hit, split[hit]))
        live = tuple(np.concatenate(x) for x in
                     ((r, r), (a, m), (m, b), (lo, split + hit), (split, hi)))
    # pass 2: one keyed draw for all nodes, then for the times of the leaves
    r, a, b, lo, hi = (np.concatenate(x) for x in zip(*alone))
    count = hi - lo
    offset = np.cumsum(count) - count  # of each leaf's first time among the leaves' times
    at = np.arange(count.sum()) + np.repeat(lo - offset, count)
    owners, node_t = (np.concatenate(x) for x in zip(*nodes, (np.repeat(r, count), key_t[at])))
    gauss = _keyed_gaussians(seed, ends, owners, purposes, node_t, dim)
    # pass 3: the bridge, in the order of pass 1
    va, vb = np.zeros_like(gauss[:ends.size]), gauss[:ends.size]
    w = np.zeros((keys.size, gauss.shape[1]))
    w[key_t == 1.0] = vb[keys.real[key_t == 1.0].astype(int)]
    first, alone = ends.size, [(va[:0], vb[:0])]
    for shared, leaf, std, hit, at_m in sweep:
        alone.append((va[leaf], vb[leaf]))
        va, vb = va[shared], vb[shared]
        vm, first = va + 0.5 * (vb - va) + std * gauss[first:first + len(va)], first + len(va)
        w[at_m] = vm[hit]
        va, vb = np.concatenate((va, vm)), np.concatenate((vm, vb))
    # then the leaves' i-th times, each from the value on its left (at a) to W(b)
    va, vb = (np.concatenate(x) for x in zip(*alone))
    for i in range(_LEAF_TIMES):
        j = np.flatnonzero(count > i)
        t, noise = key_t[lo[j] + i], gauss[first + offset[j] + i]
        frac = ((t - a[j]) / (b[j] - a[j]))[:, None]
        va[j] += frac * (vb[j] - va[j]) + np.sqrt(frac * (b[j] - t)[:, None]) * noise
        w[lo[j] + i], a[j] = va[j], t
    return w[query_of].reshape(times.size, len(purposes), dim).transpose(1, 0, 2)


@dataclass(frozen=True, eq=False)
class Chunk:
    """Realizations of a chunk of rows, laid end to end in columns.

    Row b owns the points ``starts[b]:starts[b + 1]`` of each per-point
    column: its grid ``times`` (its base partition with the jump times
    inserted), the values ``h`` and ``z`` (N, d), ``jump_flags`` and the jumps
    ``jump_h`` and ``jump_z``.  ``trajectory`` and ``level`` give each row's
    trajectory index (None for given paths) and its base partition's intervals.
    """

    times: np.ndarray
    h: np.ndarray
    z: np.ndarray
    jump_flags: np.ndarray
    jump_h: np.ndarray
    jump_z: np.ndarray
    starts: np.ndarray
    trajectory: list
    level: np.ndarray

    def restrict(self, partitions) -> tuple["Chunk", np.ndarray]:
        """Row b on each of ``partitions`` in turn, as row r B + b of a new
        chunk, and the index here of each new point.  A partition must lie
        within every row's grid; levels nest and every grid holds its jump
        times, so row b on it is the mask of its points at its times or jumps.
        The values are row b's own, read at those points: the restriction of
        the fine realization, which a direct simulation of the coarser grid
        equals only at the times both trees hold as nodes."""
        keep = []
        for part in partitions:  # membership in the sorted part.times
            at = part.times[np.searchsorted(part.times[:-1], self.times)] == self.times
            if (np.any(np.add.reduceat(at, self.starts[:-1], dtype=np.intp) != part.times.size)
                    or np.any(self.times[self.starts[1:] - 1] != part.horizon)):
                raise ValueError("coarser partition must lie within the realization's grid")
            keep.append(at | self.jump_flags)
        counts = np.add.reduceat(keep, self.starts[:-1], axis=1, dtype=np.intp).ravel()
        points = np.flatnonzero(keep) % self.times.size
        columns = (self.times, self.h, self.z, self.jump_flags, self.jump_h, self.jump_z)
        levels = np.repeat([p.times.size - 1 for p in partitions], len(self.trajectory))
        return Chunk(*(a[points] for a in columns), np.cumsum([0, *counts]),
                     self.trajectory * len(keep), levels), points


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


def simulate(spec: DriverSpec, partition: Partition, seed: int,
             trajectory_index: int = 0) -> Chunk:
    """Sample one (H, Z) realization, deterministic in (seed, trajectory_index):
    the one-row chunk of ``_simulate``."""
    return _simulate(spec, partition, seed, [trajectory_index])


def _simulate(spec: DriverSpec, partition: Partition, seed: int, indices) -> Chunk:
    """The realizations of trajectories ``indices`` on ``partition``, as the rows of a Chunk.

    Each trajectory's jump times are merged into its grid.  The Brownian parts
    come from ``_brownian_values``, in calls of whole rows that hold at most
    ``_CALL_POINTS`` points between them (a larger row goes alone).  A row's
    values depend only on its trajectory and its grid, not on the chunk or the cuts.
    """
    horizon, d = partition.horizon, spec.dimension
    jumps = [_sample_jumps(spec.z, seed, i, _TAG_Z_TIMES, _TAG_Z_SIZES, horizon)
             + _sample_jumps(spec.h, seed, i, _TAG_H_TIMES, _TAG_H_SIZES, horizon)
             for i in indices]
    grids = [np.unique(np.concatenate((partition.times, zt, ht))) if zt.size or ht.size
             else partition.times for zt, _, ht, _ in jumps]
    tags = [tag for tag, proc in ((_TAG_Z_BM, spec.z), (_TAG_H_BM, spec.h))
            if proc.has_brownian]
    sizes = [g.size for g in grids]
    times, starts = np.concatenate(grids), np.cumsum([0, *sizes])
    owners, cuts = np.repeat(np.asarray(indices), sizes), [0]
    for lo, hi in zip(starts[1:-1].tolist(), starts[2:].tolist()):
        if hi - cuts[-1] > _CALL_POINTS:
            cuts.append(lo)
    w_all = np.empty((len(tags), times.size, d))
    for lo, hi in zip(cuts, [*cuts[1:], times.size]) if tags else ():
        w_all[:, lo:hi] = _brownian_values(seed, owners[lo:hi], tags, horizon, d, times[lo:hi])
    h, z, jump_h, jump_z = np.zeros((4, times.size, d))
    flags = np.zeros(times.size, dtype=bool)
    for lo, hi, (zt, zs, ht, hs) in zip(starts.tolist(), starts[1:].tolist(), jumps):
        t, w = times[lo:hi], dict(zip(tags, w_all[:, lo:hi]))
        z[lo:hi] = _process_values(spec.z, t, w.get(_TAG_Z_BM), zt, zs)
        h[lo:hi] = spec.h0[None, :] + _process_values(spec.h, t, w.get(_TAG_H_BM), ht, hs)
        for at, jump_sizes, jump in ((zt, zs, jump_z), (ht, hs, jump_h)):
            pos = lo + np.searchsorted(t, at)
            jump[pos], flags[pos] = jump_sizes, True
    return Chunk(times, h, z, flags, jump_h, jump_z, starts, list(indices),
                 np.full(len(indices), partition.times.size - 1))


def from_step_paths(h: StepPath, z: StepPath) -> Chunk:
    """Wrap user-supplied step paths as the one-row chunk of a driver realization,
    of no trajectory and at the level of their shared partition.

    Every nonzero grid increment of either path is treated as a jump of that
    process (a step path genuinely jumps at its grid points).  Z must start
    at zero.
    """
    if not h.partition.same_times(z.partition):
        raise ValueError("H and Z must share one partition")
    if np.any(z.values[0] != 0.0):
        raise ValueError("Z must start at zero")
    jump_h, jump_z = h.jumps(), z.jumps()
    flags = (np.linalg.norm(jump_h, axis=1) > 0) | (np.linalg.norm(jump_z, axis=1) > 0)
    n = h.partition.times.size
    return Chunk(h.partition.times, h.values, z.values, flags, jump_h, jump_z,
                 np.array([0, n]), [None], np.array([n - 1]))
