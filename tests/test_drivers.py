import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BENCH_CONFIGS
from mmsde import (
    STREAM_VERSION,
    DriverSpec,
    JumpLaw,
    Partition,
    ProcessSpec,
    StepPath,
    drivers,
    from_step_paths,
    refine,
    simulate,
    uniform_partition,
)
from mmsde.cli import EXIT_OK, main
from mmsde.drivers import (
    _DEPTH_STDS,
    _MAX_HORIZON,
    _PHILOX_CHUNK,
    _brownian_values,
    _chunk_of,
    _descents,
    _keyed_gaussians,
    _philox_block,
    _philox_keyed,
    _simulate,
)


def _philox_raw(keys, counters: np.ndarray) -> np.ndarray:
    """Row i is ``np.random.Philox(key=keys[i], counter=counters[i]).random_raw(4)``
    through ``drivers._philox_block``.

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


def make_spec(sigma=0.0, drift=0.0, jump_rate=0.0, jump_law=None, h0=0.0, d=1):
    z = ProcessSpec(d, sigma * np.eye(d), np.full(d, float(drift)), jump_rate, jump_law)
    return DriverSpec(z=z, h=ProcessSpec.zero(d), h0=np.full(d, float(h0)))


class TestSimulate:
    def test_pure_drift_is_exact(self):
        spec = make_spec(drift=1.0)
        r = simulate(spec, uniform_partition(1.0, 8), seed=1)
        np.testing.assert_array_equal(r.z.values.ravel(), r.grid.times)
        assert r.jump_flags.sum() == 0

    def test_z_starts_at_zero_h_at_h0(self):
        spec = make_spec(sigma=1.0, drift=0.5, h0=2.5)
        r = simulate(spec, uniform_partition(1.0, 8), seed=3)
        assert r.z.values[0] == pytest.approx([0.0])
        assert r.h.values[0] == pytest.approx([2.5])

    def test_gaussian_increment_moments(self):
        # oracle: increments over dt have mean 0 and variance dt
        spec = make_spec(sigma=1.0)
        part = uniform_partition(1.0, 128)  # dyadic grid: shallow bridge descents
        incs = []
        for i in range(800):
            r = simulate(spec, part, seed=900, trajectory_index=i)
            incs.append(np.diff(r.z.values.ravel()))
        incs = np.concatenate(incs)
        n = incs.size
        assert n == 800 * 128 >= 100_000
        dt = 1.0 / 128.0
        se_mean = np.sqrt(dt / n)
        assert abs(incs.mean()) <= 3 * se_mean
        se_var = dt * np.sqrt(2.0 / (n - 1))
        assert abs(incs.var(ddof=1) - dt) <= 3 * se_var

    def test_poisson_jump_count_moment(self):
        # oracle: jump count over [0, 1] has mean rate*T
        rate = 2.0
        spec = make_spec(jump_rate=rate, jump_law=JumpLaw.fixed([1.0]))
        part = uniform_partition(1.0, 4)
        counts = [simulate(spec, part, seed=17, trajectory_index=i).jump_flags.sum()
                  for i in range(10_000)]
        counts = np.asarray(counts, dtype=float)
        se = np.sqrt(rate / counts.size)  # Poisson variance = rate
        assert abs(counts.mean() - rate) <= 3 * se

    def test_jump_flags_mark_arrivals_and_sizes(self):
        spec = make_spec(jump_rate=3.0, jump_law=JumpLaw.fixed([0.75]))
        r = simulate(spec, uniform_partition(1.0, 4), seed=5)
        flagged = np.flatnonzero(r.jump_flags)
        assert flagged.size >= 1
        for idx in flagged:
            assert r.jump_z[idx] == pytest.approx([0.75])
            jump = r.z.values[idx] - r.z.values[idx - 1]
            assert jump == pytest.approx([0.75])  # pure jump process
        unflagged = np.setdiff1d(np.arange(r.grid.times.size), flagged)
        assert np.all(r.jump_z[unflagged] == 0.0)

    def test_reproducible_bit_for_bit(self):
        spec = make_spec(sigma=0.7, drift=-0.2, jump_rate=1.5,
                         jump_law=JumpLaw.gaussian([0.0], [[0.04]]))
        part = uniform_partition(1.0, 16)
        a = simulate(spec, part, seed=11, trajectory_index=4)
        b = simulate(spec, part, seed=11, trajectory_index=4)
        np.testing.assert_array_equal(a.z.values, b.z.values)
        np.testing.assert_array_equal(a.h.values, b.h.values)
        np.testing.assert_array_equal(a.grid.times, b.grid.times)
        c = simulate(spec, part, seed=11, trajectory_index=5)
        assert not np.array_equal(a.z.values, c.z.values)

    def test_multidimensional_with_h_noise(self):
        z = ProcessSpec(2, np.array([[0.4, 0.1], [0.0, 0.3]]), np.zeros(2),
                        1.0, JumpLaw.uniform_ball(0.5, 2))
        h = ProcessSpec(2, 0.2 * np.eye(2), np.array([0.1, -0.1]))
        spec = DriverSpec(z=z, h=h, h0=np.array([1.0, 2.0]))
        r = simulate(spec, uniform_partition(1.0, 8), seed=2)
        assert r.z.dimension == 2
        assert r.h.values[0] == pytest.approx([1.0, 2.0])


def restrict(realization, coarser):
    """``realization`` on ``coarser`` as a study reads a level off its
    reference grid: one row of ``Chunk.restrict``."""
    return _chunk_of([realization]).restrict([coarser])[0]


class TestRefinementConsistency:
    # a finer partition is simulated directly and read back with ``restrict``
    def test_same_partition_is_identity(self):
        spec = make_spec(sigma=1.0, jump_rate=2.0, jump_law=JumpLaw.fixed([0.3]))
        part = uniform_partition(1.0, 8)
        r = simulate(spec, part, seed=7)
        r2 = restrict(r, part)
        np.testing.assert_array_equal(r.grid.times, r2.times)
        np.testing.assert_array_equal(r.z.values, r2.z)

    def test_coarse_points_preserved_bit_exactly(self):
        spec = make_spec(sigma=1.0, drift=0.3, jump_rate=2.0,
                         jump_law=JumpLaw.gaussian([0.1], [[0.09]]))
        part = uniform_partition(1.0, 8)
        r = simulate(spec, part, seed=23, trajectory_index=9)
        fine = simulate(spec, refine(part, 4), seed=23, trajectory_index=9)
        coarse = {t: v for t, v in zip(r.grid.times, r.z.values[:, 0])}
        fine_map = {t: v for t, v in zip(fine.grid.times, fine.z.values[:, 0])}
        for t, v in coarse.items():
            assert t in fine_map
            assert fine_map[t] == v  # bit-exact
        back = restrict(fine, part)
        np.testing.assert_array_equal(back.times, r.grid.times)
        np.testing.assert_array_equal(back.z, r.z.values)

    def test_direct_simulation_at_finer_grid_agrees(self):
        spec = make_spec(sigma=1.0, jump_rate=1.0, jump_law=JumpLaw.fixed([-0.4]))
        coarse = uniform_partition(1.0, 8)
        fine = refine(coarse, 4)
        a = simulate(spec, coarse, seed=31, trajectory_index=2)
        b = simulate(spec, fine, seed=31, trajectory_index=2)
        amap = dict(zip(a.grid.times, a.z.values[:, 0]))
        bmap = dict(zip(b.grid.times, b.z.values[:, 0]))
        for t, v in amap.items():
            assert bmap[t] == v

    def test_drift_only_refines_to_exact_line(self):
        spec = make_spec(drift=2.0)
        r = simulate(spec, uniform_partition(1.0, 16), seed=1)
        coarse = restrict(r, uniform_partition(1.0, 4))
        np.testing.assert_allclose(r.z.values.ravel(), 2.0 * r.grid.times)
        np.testing.assert_array_equal(coarse.z, r.z.values[::4])

    def test_rejects_non_superset(self):
        spec = make_spec(sigma=1.0)
        r = simulate(spec, uniform_partition(1.0, 8), seed=2)
        with pytest.raises(ValueError):
            restrict(r, Partition(np.array([0.0, 0.3, 1.0])))


def full_spec(d, seed=0):
    """H and Z with full volatility matrices, drifts and jumps of their own."""
    rng = np.random.default_rng(seed)
    cov = rng.normal(size=(d, d))
    z = ProcessSpec(d, rng.normal(size=(d, d)), rng.normal(size=d), 2.5,
                    JumpLaw.gaussian(rng.normal(size=d), cov @ cov.T))
    h = ProcessSpec(d, rng.normal(size=(d, d)), rng.normal(size=d), 1.5,
                    JumpLaw.uniform_ball(0.4, d))
    return DriverSpec(z=z, h=h, h0=rng.normal(size=d))


def assert_same_chunk(got, want):
    for name in ("times", "h", "z", "jump_flags", "jump_h", "jump_z", "starts", "level"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    assert got.trajectory == want.trajectory


class TestChunk:
    @pytest.mark.parametrize("size", [1, 3, 64])
    def test_rows_equal_single_runs_in_any_order(self, size, monkeypatch):
        spec = full_spec(2)
        part = refine(uniform_partition(1.0, 10), 5)  # non-dyadic: deep descents
        indices = [int(i) for i in np.random.default_rng(size).permutation(100)[:size]]
        descents = count_descents(monkeypatch)
        chunk = _simulate(spec, part, 77, indices)
        monkeypatch.undo()
        if size == 64:  # the chunk spans several descents, split inside trajectories
            assert len(descents) >= 3 and any(times[0] > 0.0 for times in descents)
        singles = [simulate(spec, part, 77, i) for i in indices]
        assert_same_chunk(chunk, _chunk_of(singles))
        for i, real in zip(indices, singles):
            assert (real.base, real.seed, real.trajectory_index, real.spec) == (part, 77, i, spec)

    def test_chunk_without_brownian_parts(self):
        spec = make_spec(drift=0.5, jump_rate=3.0, jump_law=JumpLaw.fixed([1.0]))
        part = uniform_partition(1.0, 7)
        assert_same_chunk(_simulate(spec, part, 4, [2, 0]),
                          _chunk_of([simulate(spec, part, 4, i) for i in (2, 0)]))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("factor", [4, 13, 100])
    def test_restriction_equals_direct_simulation(self, d, factor):
        spec = full_spec(d, seed=d)
        coarse = uniform_partition(1.5, 10)
        fine = refine(coarse, factor)
        middle = refine(coarse, {4: 2, 13: 1, 100: 10}[factor])
        chunk = _simulate(spec, fine, 19, range(4))
        assert np.logical_or.reduceat(chunk.jump_flags, chunk.starts[:-1]).all()
        for part in (coarse, middle, fine):
            assert_same_chunk(chunk.restrict([part])[0],
                              _chunk_of([simulate(spec, part, 19, i) for i in range(4)]))

    def test_restriction_rejects_foreign_partitions(self):
        real = simulate(full_spec(1), uniform_partition(1.0, 8), 3)
        with pytest.raises(ValueError):
            restrict(real, uniform_partition(1.0, 3))
        with pytest.raises(ValueError):
            restrict(real, uniform_partition(0.5, 4))

    def test_descent_cap_bounds_chunk_memory(self):
        # the reference grid of the non-dyadic half-line study: 401 times
        spec = make_spec(sigma=1.0, jump_rate=2.0, jump_law=JumpLaw.gaussian([0.0], [[1.0]]),
                         h0=0.5)
        part = refine(refine(uniform_partition(1.0, 10), 10), 4)

        _simulate(spec, part, 5, [0])  # one-off allocations stay out of both peaks
        peaks = []
        for rows in (1, 64):
            tracemalloc.start()
            try:
                _simulate(spec, part, 5, range(rows))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0]

    def test_dyadic_chunk_is_one_descent(self, monkeypatch):
        # 64 grids of 513 dyadic points with their jump times hold about 41k
        # nodes: one descent, which needs less memory than 64 descents of one
        spec = make_spec(sigma=1.0, jump_rate=3.0, jump_law=JumpLaw.gaussian([0.0], [[1.0]]),
                         h0=0.5)
        part = uniform_partition(1.0, 512)
        descents = count_descents(monkeypatch)
        _simulate(spec, part, 5, [0])  # one-off allocations stay out of both peaks
        peaks = []
        for rows in (1, 64):
            descents.clear()
            tracemalloc.start()
            try:
                _simulate(spec, part, 5, range(rows))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(descents) == 1
        assert peaks[1] <= 48 * peaks[0]


def count_descents(monkeypatch) -> list:
    """The query times of each ``_brownian_values`` call (one per descent) from now on."""
    descents, bridge = [], drivers._brownian_values

    def counted(*args):
        descents.append(args[-1])
        return bridge(*args)

    monkeypatch.setattr(drivers, "_brownian_values", counted)
    return descents


@st.composite
def bridge_queries(draw):
    """(horizon, times, trajectories) mixing dyadic grid times, non-dyadic
    times, times a few ulps apart, times near 0 and T and repeated times."""
    horizon = draw(st.sampled_from([1.0, 3.0, 0.7]))
    k = draw(st.integers(1, 6))
    times = [horizon * j / 2 ** k for j in draw(st.lists(st.integers(0, 2 ** k), max_size=8))]
    times += draw(st.lists(st.floats(0.0, horizon), max_size=6))
    x = draw(st.floats(0.0, horizon))
    for _ in range(draw(st.integers(0, 3))):
        times.append(x)
        x = float(np.nextafter(x, horizon))
    times += draw(st.lists(st.sampled_from([0.0, 5e-324, 1e-300, 1e-9, horizon,
                                            float(np.nextafter(horizon, 0.0))]), max_size=3))
    if times:
        times += draw(st.lists(st.sampled_from(times), max_size=4))
    rows = draw(st.lists(st.integers(0, 3), min_size=len(times), max_size=len(times)))
    order = draw(st.permutations(range(len(times))))
    return horizon, np.array(times)[order], np.array(rows, dtype=int)[order]


class TestNodeSweep:
    @settings(max_examples=20, deadline=None)
    @given(bridge_queries(), st.integers(1, 3))
    def test_batched_values_equal_single_calls(self, queries, dim):
        horizon, times, rows = queries
        batched = _brownian_values(11, rows, [3, 6], horizon, dim, times)
        for j, (i, t) in enumerate(zip(rows, times)):
            alone = _brownian_values(11, int(i), [3, 6], horizon, dim, np.array([t]))
            np.testing.assert_array_equal(alone[:, 0], batched[:, j])


POWER_OF_TWO_HORIZONS = [2.0 ** -60, 0.5, 1.0, 2.0, 2.0 ** 100, 2.0 ** 512]


@st.composite
def dyadic_horizon_queries(draw):
    """(horizon, times, trajectories) on a power-of-two horizon: dyadic grid
    times, random floats, times a few ulps apart, 0, the smallest subnormal,
    1e-300 and the floats next to T."""
    horizon = draw(st.sampled_from(POWER_OF_TWO_HORIZONS))
    k = draw(st.integers(1, 8))
    times = [horizon * j / 2 ** k for j in draw(st.lists(st.integers(0, 2 ** k), max_size=8))]
    times += draw(st.lists(st.floats(0.0, horizon), max_size=12))
    x = draw(st.floats(0.0, horizon))
    for _ in range(draw(st.integers(0, 3))):
        times.append(x)
        x = float(np.nextafter(x, horizon))
    times += draw(st.lists(st.sampled_from([0.0, 5e-324, 1e-300, horizon,
                                            float(np.nextafter(horizon, 0.0))]), max_size=4))
    rows = draw(st.lists(st.integers(0, 3), min_size=len(times), max_size=len(times)))
    return horizon, np.array(times), np.array(rows, dtype=int)


def _bridge_weights(a, b, s):
    """W(s) = W(a) + frac (W(b) - W(a)) + std Z for a < s < b: (frac, std), each (n, 1)."""
    sa, ba = s[:, None] - a[:, None], b[:, None] - a[:, None]
    return sa / ba, np.sqrt(sa * (b - s)[:, None] / ba)


def _bisected_descent(t, r, a, b):
    """``drivers._dyadic_descent`` by float bisection, each node's weights from
    ``_bridge_weights``: the nodes [(r, m), ...] of times t, each alone in its
    bracket (a, b) of trajectory r, and pass 3, ``bridge(node_t, gauss, va, vb,
    w, at)``, from the nodes and the brackets' end values, writing W(t) to w[at]."""
    a0, b0, nodes, turns = a, b, [], []
    while t.size:
        m = 0.5 * (a + b)
        left, stop = t < m, t == m
        a, b = np.where(left, a, m), np.where(left, m, b)
        nodes.append((r, m))
        turns.append((left, stop))
        if np.count_nonzero(stop):
            keep = ~stop
            t, a, b, r = t[keep], a[keep], b[keep], r[keep]

    def bridge(node_t, gauss, va, vb, w, at):
        a, b, first = a0, b0, 0
        for left, stop in turns:
            s, k = node_t[first:first + stop.size], slice(first, first + stop.size)
            frac, std = _bridge_weights(a, b, s)
            vs, first = va + frac * (vb - va) + std * gauss[k], k.stop
            a, b = np.where(left, a, s), np.where(left, s, b)
            va, vb = np.where(left[:, None], va, vs), np.where(left[:, None], vs, vb)
            if np.count_nonzero(stop):
                w[at[stop]] = vs[stop]
                keep = ~stop
                at, a, b, va, vb = at[keep], a[keep], b[keep], va[keep], vb[keep]
    return nodes, bridge


class TestDyadicDescent:
    """Every horizon reads the unit tree, whose lone times descend in closed
    form (``_dyadic_descent``); ``_bisected_descent``, the float bisection with
    the general bridge weights, is the reference, and both take one signature."""

    @settings(max_examples=60, deadline=None)
    @given(dyadic_horizon_queries(), st.integers(1, 3), st.sampled_from([[3], [6], [3, 6]]))
    def test_closed_form_equals_the_bisection(self, queries, dim, purposes):
        horizon, times, rows = queries
        times = times / horizon  # exact, but where it underflows: unit-tree times of every kind
        closed = _brownian_values(11, rows, purposes, 1.0, dim, times)
        with mock.patch.object(drivers, "_dyadic_descent", _bisected_descent):
            bisected = _brownian_values(11, rows, purposes, 1.0, dim, times)
        assert closed.tobytes() == bisected.tobytes()

    @pytest.mark.parametrize("horizon", [*POWER_OF_TWO_HORIZONS, 3.0, 0.7])
    def test_a_horizon_scales_the_unit_tree(self, horizon):
        rng = np.random.default_rng(7)
        times = np.concatenate([uniform_partition(horizon, 10).times,
                                rng.uniform(0.0, horizon, 20),
                                [5e-324, float(np.nextafter(horizon, 0.0))]])
        rows = np.arange(times.size) % 3
        got = _brownian_values(11, rows, [3, 6], horizon, 2, times)
        unit = _brownian_values(11, rows, [3, 6], 1.0, 2, times / horizon)
        assert got.tobytes() == (np.sqrt(horizon) * unit).tobytes()

    def test_depth_stds_are_the_bridge_weights(self):
        # brackets of every depth of (0, 1) that holds a float, first, last and
        # at random, down to where (s - a)(b - s) underflows; the last entry, 0,
        # is the sweep's, where every bracket is empty
        assert _DEPTH_STDS.size == 1075 and _DEPTH_STDS[-1] == 0.0
        rng = np.random.default_rng(3)
        depth = np.repeat(np.arange(_DEPTH_STDS.size - 1), 3)
        width = np.ldexp(1.0, -depth)
        where = np.tile([0.0, 1.0, 0.5], _DEPTH_STDS.size - 1) * rng.uniform(0.5, 1.0, depth.size)
        a = np.floor((np.ldexp(1.0, np.minimum(depth, 50)) - 1.0) * where) * width
        frac, std = _bridge_weights(a, a + width, a + 0.5 * width)
        assert np.all(frac == 0.5)
        assert std[:, 0].tobytes() == _DEPTH_STDS[depth].tobytes()
        assert _DEPTH_STDS[0] > 0.0 and _DEPTH_STDS[-2] == 0.0  # (s - a)(b - s) underflows

    @pytest.mark.parametrize("horizon", [1.0, 3.0, 0.7])
    @pytest.mark.parametrize("intervals", [1024, 1000])
    def test_descent_price_counts_the_nodes_drawn(self, horizon, intervals, monkeypatch):
        # _descents prices a time by the bits of t / T, which the unit tree descends
        # by; at a one-node budget it cuts after every node, so it yields the price
        times = uniform_partition(horizon, intervals).times
        monkeypatch.setattr(drivers, "_DESCENT_NODES", 1)
        price = len(list(_descents(times, [times.size], horizon)))
        monkeypatch.undo()
        drawn, draw = [], drivers._keyed_gaussians

        def counted(*args):
            drawn.append(args[4].size)
            return draw(*args)

        monkeypatch.setattr(drivers, "_keyed_gaussians", counted)
        _brownian_values(5, 0, [3], horizon, 1, times)
        assert abs(sum(drawn) / price - 1.0) <= 0.03

    @pytest.mark.parametrize("name", ["box_dyadic", "hl_nondyadic"])
    def test_bench_chunks_take_the_closed_form(self, name, monkeypatch, tmp_path):
        entered, dyadic = [], drivers._dyadic_descent

        def counted(*args):
            entered.append(args[0].size)
            return dyadic(*args)

        monkeypatch.setattr(drivers, "_dyadic_descent", counted)
        for command in ("converge", "compare"):
            argv = [command, "--config", str(BENCH_CONFIGS / f"{name}.ini"),
                    "--out", str(tmp_path / command)]
            assert main(argv) == EXIT_OK
        assert sum(entered) > 0  # times were left alone, and descended in closed form


class TestKeyedBrownianTree:
    def test_philox_matches_numpy_bit_for_bit(self):
        rng = np.random.default_rng(4)
        top = np.iinfo(np.uint64).max
        for _ in range(20):
            key = rng.integers(0, top, size=2, dtype=np.uint64, endpoint=True)
            counters = rng.integers(0, top, size=(6, 4), dtype=np.uint64, endpoint=True)
            counters[1, 0] = top                    # carry into word 1
            counters[2, :3] = top                   # carry into word 3
            counters[3, :] = top                    # counter wraps to zero
            counters[4, :] = 0
            got = _philox_raw(key, counters)
            for row, counter in zip(got, counters):
                want = np.random.Philox(key=key, counter=counter).random_raw(4)
                np.testing.assert_array_equal(row, want)

    def test_philox_key_per_row(self):
        rng = np.random.default_rng(5)
        top = np.iinfo(np.uint64).max
        keys = rng.integers(0, top, size=(7, 2), dtype=np.uint64, endpoint=True)
        counters = rng.integers(0, top, size=(7, 4), dtype=np.uint64, endpoint=True)
        for row, key, counter in zip(_philox_raw(keys, counters), keys, counters):
            np.testing.assert_array_equal(
                row, np.random.Philox(key=key, counter=counter).random_raw(4))

    def test_philox_chunks_agree_with_single_blocks(self):
        n = 2 * _PHILOX_CHUNK + 5
        counters = np.zeros((n, 4), dtype=np.uint64)
        counters[:, 2] = np.arange(n, dtype=np.uint64)
        got = _philox_raw((5, 6), counters)
        for i in (0, _PHILOX_CHUNK - 1, _PHILOX_CHUNK, n - 1):
            want = np.random.Philox(key=np.array([5, 6], dtype=np.uint64),
                                    counter=counters[i]).random_raw(4)
            np.testing.assert_array_equal(got[i], want)

    def test_non_dyadic_refinement_is_bit_exact(self):
        spec = make_spec(sigma=1.0, drift=0.3, jump_rate=2.0,
                         jump_law=JumpLaw.gaussian([0.1], [[0.09]]))
        coarse = uniform_partition(1.0, 10)
        a = simulate(spec, coarse, seed=41, trajectory_index=3)
        b = simulate(spec, refine(coarse, 10), seed=41, trajectory_index=3)
        bmap = dict(zip(b.grid.times, b.z.values[:, 0]))
        for t, v in zip(a.grid.times, a.z.values[:, 0]):
            assert bmap[t] == v  # bit-exact

    def test_single_query_equals_batched_value(self):
        times = np.concatenate([uniform_partition(3.0, 7).times, [0.1, 2.9999, 1e-9]])
        batched = _brownian_values(8, 2, [3, 6], 3.0, 2, times)
        assert batched.shape == (2, times.size, 2)
        for j, t in enumerate(times):
            alone = _brownian_values(8, 2, [3, 6], 3.0, 2, np.array([t]))
            np.testing.assert_array_equal(alone[:, 0], batched[:, j])
        assert not np.array_equal(batched[0], batched[1])  # tags are independent
        np.testing.assert_array_equal(batched[:, 0], 0.0)

    def test_rejects_times_outside_horizon(self):
        with pytest.raises(ValueError):
            _brownian_values(1, 0, [3], 1.0, 1, np.array([0.5, 1.5]))

    def test_stream_version_golden(self):
        # A change to the values a seed produces must bump STREAM_VERSION and
        # re-pin these.  The Philox words are integer arithmetic and pinned
        # exactly; the Gaussians go through log/cos, whose last bit may vary
        # between math libraries, so W is pinned to 1e-12.
        assert STREAM_VERSION == 3
        words = _philox_raw((7, 3), np.array([[0, 3, 4602678819172646912, 0]], dtype=np.uint64))
        assert words[0].tolist() == GOLDEN_WORDS
        w = _brownian_values(7, 3, [3], 1.0, 1, np.array([0.25, 0.5, 0.7, 1.0]))[0, :, 0]
        np.testing.assert_allclose(w, GOLDEN_W, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("horizon", [3.0, 2.0, 0.7])
    def test_stream_golden_off_the_unit_horizon(self, horizon):
        # two purposes, d = 2, at 0.25, 0.6 and T, raveled (purpose, time, coordinate)
        w = _brownian_values(7, 3, [3, 6], horizon, 2, np.array([0.25, 0.6, horizon]))
        np.testing.assert_allclose(w.ravel(), GOLDEN_W_HORIZONS[horizon], rtol=1e-12, atol=0.0)

    def test_stream_golden_four_word_draw(self):
        # d = 3 reads all four Philox words of a block; its first coordinate is GOLDEN_W
        w = _brownian_values(7, 3, [3], 1.0, 3, np.array([0.25, 0.5, 0.7, 1.0]))
        np.testing.assert_allclose(w.ravel(), GOLDEN_W_D3, rtol=1e-12, atol=0.0)

    def test_batched_jump_sizes(self):
        rng = np.random.default_rng(3)
        g = JumpLaw.gaussian([1.0, -1.0], [[0.5, 0.1], [0.1, 0.2]]).sample(rng, 20_000)
        assert g.shape == (20_000, 2)
        np.testing.assert_allclose(g.mean(axis=0), [1.0, -1.0], atol=0.03)
        np.testing.assert_allclose(np.cov(g.T), [[0.5, 0.1], [0.1, 0.2]], atol=0.03)
        ball = JumpLaw.uniform_ball(0.5, 3).sample(rng, 20_000)
        r = np.linalg.norm(ball, axis=1)
        assert ball.shape == (20_000, 3) and r.max() <= 0.5
        # uniform in the ball: P(|x| <= r) = (r / R)^d
        assert abs(np.mean(r <= 0.25) - 0.125) < 0.01
        fixed = JumpLaw.fixed([0.75, 1.0]).sample(rng, 3)
        np.testing.assert_array_equal(fixed, [[0.75, 1.0]] * 3)
        for law in (JumpLaw.gaussian([0.0], [[1.0]]), JumpLaw.uniform_ball(1.0, 1),
                     JumpLaw.fixed([2.0])):
            assert law.sample(rng, 0).shape == (0, 1)


def _reference_gaussians(seed, ends, owners, purposes, times, dim):
    """``_keyed_gaussians`` from ``_philox_raw``'s four words of every block and
    Box-Muller on each pair (u0, u1): sqrt(-2 log(1 - u0)) (cos, sin)(2 pi u1)."""
    blocks, pairs = -(-dim // 4), -(-dim // 2)
    n, p = times.size, len(purposes)
    counters = np.zeros((n, p, blocks, 4), dtype=np.uint64)
    counters[..., 1] = np.asarray(purposes, dtype=np.uint64)[:, None]
    counters[..., 2] = times.view(np.uint64)[:, None, None]
    counters[..., 3] = np.arange(blocks, dtype=np.uint64)
    keys = np.repeat(np.stack([np.full(n, seed, dtype=np.uint64), ends[owners]], axis=1),
                     p * blocks, axis=0)
    words = _philox_raw(keys, counters.reshape(-1, 4)).reshape(n, p, 4 * blocks)
    u = (words[..., :2 * pairs] >> np.uint64(11)) * 2.0 ** -53
    radius, angle = np.sqrt(-2.0 * np.log1p(-u[..., 0::2])), 2.0 * np.pi * u[..., 1::2]
    out = np.empty((n, p, dim))
    out[..., 0::2] = radius * np.cos(angle)
    out[..., 1::2] = radius[..., :dim // 2] * np.sin(angle[..., :dim // 2])
    return out.reshape(n, p * dim)


def _node_times(rng, n):
    """n times >= 0 of every kind: 0, subnormals, dyadic, random and huge."""
    special = [0.0, 5e-324, 2.2250738585072014e-308, 0.5, 0.75, 1.0, 1e300, _MAX_HORIZON]
    bits = rng.integers(0, 0x7FF0000000000000, size=n - len(special), dtype=np.uint64)
    return np.concatenate([special, bits.view(np.float64)])


class TestLeanKeyedDraw:
    """The keyed draw skips Philox work whose result is constant or unread;
    these tests hold it to ``_philox_raw`` (itself held to ``np.random.Philox``)."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("purposes", [[3], [3, 6]], ids=["one", "two"])
    def test_keyed_gaussians_equal_the_reference(self, dim, purposes):
        rng = np.random.default_rng(dim)
        times = _node_times(rng, 300)
        ends = rng.integers(0, 2 ** 64, size=5, dtype=np.uint64)
        owners = rng.integers(0, 5, size=times.size)
        for seed in (0, 11, 2 ** 64 - 1):
            got = _keyed_gaussians(seed, ends, owners, purposes, times, dim)
            want = _reference_gaussians(seed, ends, owners, purposes, times, dim)
            assert got.tobytes() == want.tobytes()

    def test_trimmed_rounds_give_philox_words(self):
        # round 1 multiplies lane 1 alone (c0 = 1), and so does the last round of words 0, 1
        rng = np.random.default_rng(9)
        for _ in range(10):
            seed = int(rng.integers(0, 2 ** 64, dtype=np.uint64))
            times = _node_times(rng, 200)
            ends = rng.integers(0, 2 ** 64, size=times.size, dtype=np.uint64)
            for purpose, blocks, lanes in ((3, 1, 1), (6, 1, 1), (3, 2, 2)):
                x, y = _philox_keyed(seed, ends, [purpose], times, blocks, lanes)
                counters = np.zeros((times.size, blocks, 4), dtype=np.uint64)
                counters[..., 1], counters[..., 2] = purpose, times.view(np.uint64)[:, None]
                counters[..., 3] = np.arange(blocks, dtype=np.uint64)
                keys = np.repeat(np.stack([np.full(times.size, seed, dtype=np.uint64), ends],
                                          axis=1), blocks, axis=0)
                want = _philox_raw(keys, counters.reshape(-1, 4))
                got = np.stack([x[0], y[0], *((x[1], y[1]) if lanes == 2 else ())], axis=1)
                np.testing.assert_array_equal(got, want[:, :2 * lanes])

    def test_a_float_midpoint_lies_strictly_inside(self):
        # the descent's node 0.5 (a + b) of a bracket (a, b) with a float
        # strictly inside it lies strictly inside it while a + b is finite:
        # brackets at every binade edge, among the subnormals, and at random
        edges = np.concatenate([[0.0], 2.0 ** np.arange(-1074, 1024)])
        a = [edges]
        for _ in range(3):
            a += [np.nextafter(a[-1], np.inf)]
        a = np.concatenate(a + [np.nextafter(edges[1:], 0.0)])
        a = np.concatenate([a, np.arange(4096, dtype=np.uint64).view(np.float64)])
        rng = np.random.default_rng(17)
        a = np.concatenate([a, rng.integers(0, 0x7FF0000000000000, size=200_000,
                                            dtype=np.uint64).view(np.float64)])
        a = a[np.isfinite(a)]
        checked = 0
        for gap in (2, 3, 4, 5, 17, 2 ** 20, 2 ** 40):  # at least one float inside
            b = (a.view(np.uint64) + np.uint64(gap)).view(np.float64)
            with np.errstate(over="ignore"):
                keep = np.isfinite(a + b)
            m = 0.5 * (a[keep] + b[keep])
            assert np.all((a[keep] < m) & (m < b[keep]))
            checked += int(keep.sum())
        wide = np.sort(rng.uniform(0.0, _MAX_HORIZON, size=(2, 100_000)), axis=0)
        m = 0.5 * (wide[0] + wide[1])
        inside = np.nextafter(wide[0], np.inf) < wide[1]
        assert np.all((wide[0] < m) & (m < wide[1]) | ~inside)
        assert checked > 1_000_000

    def test_rejects_a_horizon_above_two_to_the_512(self):
        above = float(np.nextafter(_MAX_HORIZON, np.inf))
        for horizon in (above, 1e160, np.inf, np.nan):
            with pytest.raises(ValueError, match=r"above 2\*\*512"):
                _brownian_values(1, 0, [3], horizon, 1, np.array([1.0]))
        # at the bound, the widest bracket's (s - a)(b - s) is finite
        h = _MAX_HORIZON
        w = _brownian_values(1, 0, [3], h, 1, np.array([h / 3, h / 2, h]))
        assert np.all(np.isfinite(w))


# key (7, 3): the raw block of node t = 0.5 of tag 3, and W at 0.25, 0.5, 0.7
# and 1.0 (checked by hand against np.random.Philox words, Box-Muller and the
# bridge formula).  Streams 2 and 3 agree at T = 1, so these and GOLDEN_W_D3
# are stream 2's pins too
GOLDEN_WORDS = [17026611805161637242, 9287880174703922719,
                16106269765591823813, 15692236555719398595]
GOLDEN_W = [-0.26253708564481454, -1.3466704236523417,
            -0.7586317339100459, -0.42931781189479323]
# key (7, 3) too: stream 3's W of tags 3 and 6, d = 2, at 0.25, 0.6 and T off
# the unit horizon, and W of tag 3, d = 3, at GOLDEN_W's times
GOLDEN_W_HORIZONS = {
    3.0: [0.604270011614128, 0.20258535209907355, 0.4720624127322095,
          -0.362153729941522, -0.7436002627960799, 0.644953982260334,
          -0.10757996306369615, 1.278242497695621, -0.4790583083946684,
          1.1891820507051274, -1.208046117252733, 5.9152858562283495],
    2.0: [0.27744312234644347, -0.2674304565841876, -0.7923676207840089,
          0.0812749987112725, -0.6071470721499579, 0.5266027213712839,
          -0.08518483873734738, 1.4300545651521923, -0.9676091692334059,
          2.0395587953603815, -0.9863655243398716, 4.829810676820585],
    0.7: [-0.8486625391380734, -0.18231645059236173, -0.7047316898205325,
          -0.09175940357417263, -0.35919305189144896, 0.31154237136298935,
          -0.639293308822618, 1.4403531703522554, 0.21680401486692702,
          2.651770463939959, -0.5835417137293566, 2.8573545301336933],
}
GOLDEN_W_D3 = [-0.26253708564481454, 0.025340004432086373, 0.6346792750812424,
               -1.3466704236523417, 0.16130532724929014, 1.670563175549773,
               -0.7586317339100459, 0.33784261433329216, 2.042232265707915,
               -0.42931781189479323, 0.37236435527292494, 2.1397495486721394]


class TestStepPathBackedDrivers:
    def test_wraps_paths_and_flags_increments(self):
        part = uniform_partition(1.0, 4)
        h = StepPath(part, np.array([1.0, 1.0, 2.0, 2.0, 2.0]))
        z = StepPath(part, np.array([0.0, 0.5, 0.5, 0.5, 1.5]))
        r = from_step_paths(h, z)
        assert list(r.jump_flags) == [False, True, True, False, True]
        np.testing.assert_allclose(r.jump_h[2], [1.0])
        np.testing.assert_allclose(r.jump_z[4], [1.0])

    def test_rejects_nonzero_z0(self):
        part = uniform_partition(1.0, 2)
        h = StepPath(part, np.zeros(3))
        z = StepPath(part, np.array([0.5, 0.5, 0.5]))
        with pytest.raises(ValueError):
            from_step_paths(h, z)
