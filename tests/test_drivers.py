import tracemalloc
from unittest import mock

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bench_config, chunk_of
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
from mmsde.config import parse_config_text
from mmsde.drivers import (
    _DEPTH_STDS,
    _LEAF_TIMES,
    _MAX_HORIZON,
    _PHILOX_CHUNK,
    _brownian_values,
    _keyed_gaussians,
    _philox_block,
    _philox_keyed,
    _simulate,
)
from mmsde.harness import _Context


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
        np.testing.assert_array_equal(r.z.ravel(), r.times)
        assert r.jump_flags.sum() == 0

    def test_z_starts_at_zero_h_at_h0(self):
        spec = make_spec(sigma=1.0, drift=0.5, h0=2.5)
        r = simulate(spec, uniform_partition(1.0, 8), seed=3)
        assert r.z[0] == pytest.approx([0.0])
        assert r.h[0] == pytest.approx([2.5])

    def test_gaussian_increment_moments(self):
        # oracle: increments over dt have mean 0 and variance dt
        spec = make_spec(sigma=1.0)
        part = uniform_partition(1.0, 128)  # dyadic grid: every time is a node
        incs = []
        for i in range(800):
            r = simulate(spec, part, seed=900, trajectory_index=i)
            incs.append(np.diff(r.z.ravel()))
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
            jump = r.z[idx] - r.z[idx - 1]
            assert jump == pytest.approx([0.75])  # pure jump process
        unflagged = np.setdiff1d(np.arange(r.times.size), flagged)
        assert np.all(r.jump_z[unflagged] == 0.0)

    def test_reproducible_bit_for_bit(self):
        spec = make_spec(sigma=0.7, drift=-0.2, jump_rate=1.5,
                         jump_law=JumpLaw.gaussian([0.0], [[0.04]]))
        part = uniform_partition(1.0, 16)
        a = simulate(spec, part, seed=11, trajectory_index=4)
        b = simulate(spec, part, seed=11, trajectory_index=4)
        np.testing.assert_array_equal(a.z, b.z)
        np.testing.assert_array_equal(a.h, b.h)
        np.testing.assert_array_equal(a.times, b.times)
        c = simulate(spec, part, seed=11, trajectory_index=5)
        assert not np.array_equal(a.z, c.z)

    def test_multidimensional_with_h_noise(self):
        z = ProcessSpec(2, np.array([[0.4, 0.1], [0.0, 0.3]]), np.zeros(2),
                        1.0, JumpLaw.uniform_ball(0.5, 2))
        h = ProcessSpec(2, 0.2 * np.eye(2), np.array([0.1, -0.1]))
        spec = DriverSpec(z=z, h=h, h0=np.array([1.0, 2.0]))
        r = simulate(spec, uniform_partition(1.0, 8), seed=2)
        assert r.z.shape == (r.times.size, 2)
        assert r.h[0] == pytest.approx([1.0, 2.0])


def restrict(realization, coarser):
    """``realization`` on ``coarser`` as a study reads a level off its
    reference grid: one row of ``Chunk.restrict``."""
    return realization.restrict([coarser])[0]


class TestRefinementConsistency:
    # a finer partition is simulated directly and read back with ``restrict``
    def test_same_partition_is_identity(self):
        spec = make_spec(sigma=1.0, jump_rate=2.0, jump_law=JumpLaw.fixed([0.3]))
        part = uniform_partition(1.0, 8)
        r = simulate(spec, part, seed=7)
        r2 = restrict(r, part)
        np.testing.assert_array_equal(r.times, r2.times)
        np.testing.assert_array_equal(r.z, r2.z)

    def test_dyadic_grid_points_keep_their_values_under_refinement(self):
        # a dyadic grid's times are nodes of every finer dyadic grid's tree, so
        # they keep their values; a jump time, left in a leaf, is bridged anew
        spec = make_spec(sigma=1.0, drift=0.3, jump_rate=2.0,
                         jump_law=JumpLaw.gaussian([0.1], [[0.09]]))
        part = uniform_partition(1.0, 8)
        r = simulate(spec, part, seed=23, trajectory_index=9)
        fine = simulate(spec, refine(part, 4), seed=23, trajectory_index=9)
        assert r.jump_flags.any()
        on_grid = np.isin(fine.times, part.times)
        np.testing.assert_array_equal(fine.z[on_grid], r.z[np.isin(r.times, part.times)])

    def test_dyadic_grids_without_jumps_restrict_to_direct_simulation(self):
        # every time of a dyadic grid is a node shared with the finer tree:
        # there the restriction and a direct simulation are one realization
        spec = full_spec(2)
        spec = DriverSpec(z=replace(spec.z, jump_rate=0.0), h=replace(spec.h, jump_rate=0.0),
                          h0=spec.h0)
        coarse = uniform_partition(1.5, 8)
        fine = _simulate(spec, refine(coarse, 4), 31, range(3))
        for part in (coarse, refine(coarse, 2)):
            assert_same_chunk(fine.restrict([part])[0],
                              chunk_of([simulate(spec, part, 31, i) for i in range(3)]))

    def test_drift_only_refines_to_exact_line(self):
        spec = make_spec(drift=2.0)
        r = simulate(spec, uniform_partition(1.0, 16), seed=1)
        coarse = restrict(r, uniform_partition(1.0, 4))
        np.testing.assert_allclose(r.z.ravel(), 2.0 * r.times)
        np.testing.assert_array_equal(coarse.z, r.z[::4])

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
    def test_rows_equal_single_runs_in_any_order(self, size):
        spec = full_spec(2)
        part = refine(uniform_partition(1.0, 10), 5)  # non-dyadic: times left in leaves
        indices = [int(i) for i in np.random.default_rng(size).permutation(100)[:size]]
        chunk = _simulate(spec, part, 77, indices)
        singles = [simulate(spec, part, 77, i) for i in indices]
        assert_same_chunk(chunk, chunk_of(singles))
        for i, real in zip(indices, singles):
            assert (real.trajectory, real.level.tolist()) == ([i], [part.times.size - 1])

    def test_chunk_without_brownian_parts(self):
        spec = make_spec(drift=0.5, jump_rate=3.0, jump_law=JumpLaw.fixed([1.0]))
        part = uniform_partition(1.0, 7)
        assert_same_chunk(_simulate(spec, part, 4, [2, 0]),
                          chunk_of([simulate(spec, part, 4, i) for i in (2, 0)]))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("factor", [4, 13, 100])
    def test_restriction_reads_the_fine_rows_values(self, d, factor):
        # a level read off a fine row is that row at the level's times and its
        # own jump times, with the fine row's values there, bit for bit
        spec = full_spec(d, seed=d)
        coarse = uniform_partition(1.5, 10)
        fine = refine(coarse, factor)
        middle = refine(coarse, {4: 2, 13: 1, 100: 10}[factor])
        chunk = _simulate(spec, fine, 19, range(4))
        assert np.logical_or.reduceat(chunk.jump_flags, chunk.starts[:-1]).all()
        rows = [slice(lo, hi) for lo, hi in zip(chunk.starts[:-1], chunk.starts[1:])]
        for part in (coarse, middle, fine):
            sub, points = chunk.restrict([part])
            for b, row in enumerate(rows):
                at = points[sub.starts[b]:sub.starts[b + 1]]
                jumps = chunk.times[row][chunk.jump_flags[row]]
                np.testing.assert_array_equal(chunk.times[at], np.union1d(part.times, jumps))
            for name in ("times", "h", "z", "jump_flags", "jump_h", "jump_z"):
                np.testing.assert_array_equal(getattr(sub, name), getattr(chunk, name)[points])
            assert sub.trajectory == chunk.trajectory
        assert_same_chunk(chunk.restrict([fine])[0], chunk)

    def test_restriction_rejects_foreign_partitions(self):
        real = simulate(full_spec(1), uniform_partition(1.0, 8), 3)
        with pytest.raises(ValueError):
            restrict(real, uniform_partition(1.0, 3))
        with pytest.raises(ValueError):
            restrict(real, uniform_partition(0.5, 4))

    @pytest.mark.parametrize("budget", [1, 120, 10 ** 9], ids=["row", "some-rows", "chunk"])
    def test_rows_do_not_depend_on_the_point_budget(self, budget, monkeypatch):
        spec = full_spec(2, seed=4)
        part = refine(uniform_partition(1.0, 10), 5)
        want = _simulate(spec, part, 8, range(9))
        monkeypatch.setattr(drivers, "_CALL_POINTS", budget)
        assert_same_chunk(_simulate(spec, part, 8, range(9)), want)

    @pytest.mark.parametrize("budget", [40, 120])
    def test_the_point_budget_bounds_each_call(self, budget, monkeypatch):
        # 51-point rows and their jumps: whole rows share a call up to the
        # budget, and a row above it (at 40) takes a call of its own
        spec = full_spec(1)
        part = refine(uniform_partition(1.0, 10), 5)
        monkeypatch.setattr(drivers, "_CALL_POINTS", budget)
        calls = count_calls(monkeypatch)
        chunk = _simulate(spec, part, 5, range(12))
        rows = np.split(chunk.times, chunk.starts[1:-1])
        sizes = [len(r) for r in rows]
        assert sum(len(times) for _, times in calls) == chunk.times.size
        first = 0
        for owners, times in calls:
            held = sorted(set(owners.tolist()))
            assert held == list(range(first, first + len(held)))  # whole rows, in order
            np.testing.assert_array_equal(times, np.concatenate(rows[first:first + len(held)]))
            assert times.size <= budget or len(held) == 1
            if first + len(held) < len(rows):  # the next row would not have fitted
                assert times.size + sizes[first + len(held)] > budget
            first += len(held)
        assert len(calls) == (len(rows) if budget < min(sizes) else -(-len(rows) // 2))

    def test_dyadic_chunk_is_one_call(self, monkeypatch):
        # 64 grids of 513 dyadic points with their jump times hold about 33k
        # points: one call, which needs less memory than 64 calls of one
        spec = make_spec(sigma=1.0, jump_rate=3.0, jump_law=JumpLaw.gaussian([0.0], [[1.0]]),
                         h0=0.5)
        part = uniform_partition(1.0, 512)
        calls = count_calls(monkeypatch)
        _simulate(spec, part, 5, [0])  # one-off allocations stay out of both peaks
        peaks = []
        for rows in (1, 64):
            calls.clear()
            tracemalloc.start()
            try:
                _simulate(spec, part, 5, range(rows))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(calls) == 1
        assert peaks[1] <= 48 * peaks[0]


def count_calls(monkeypatch) -> list:
    """The (trajectory of each point, times) of each ``_brownian_values`` call from now on."""
    calls, bridge = [], drivers._brownian_values

    def counted(seed, index, purposes, horizon, dim, times):
        calls.append((np.asarray(index), times))
        return bridge(seed, index, purposes, horizon, dim, times)

    monkeypatch.setattr(drivers, "_brownian_values", counted)
    return calls


def count_nodes(monkeypatch) -> list:
    """The size of each keyed draw (``_keyed_gaussians``) from now on: nodes and leaf times."""
    drawn, draw = [], drivers._keyed_gaussians

    def counted(*args):
        drawn.append(args[4].size)
        return draw(*args)

    monkeypatch.setattr(drivers, "_keyed_gaussians", counted)
    return drawn


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


# deep dyadic times, their neighbours and the float edge near 0
DEEP_TIMES = [3 * 2.0 ** -40, float(np.nextafter(3 * 2.0 ** -40, 1.0)), 2.0 ** -38,
              5 * 2.0 ** -41, 5e-324, 1e-323, 1e-300]


class TestNodeSweep:
    @settings(max_examples=20, deadline=None)
    @given(bridge_queries(), st.integers(1, 3))
    def test_each_trajectory_equals_its_own_call(self, queries, dim):
        # a trajectory's values depend on its own times only, not on the
        # other trajectories of the call or on the order of the times
        horizon, times, rows = queries
        batched = _brownian_values(11, rows, [3, 6], horizon, dim, times)
        for i in np.unique(rows):
            mine = rows == i
            alone = _brownian_values(11, int(i), [3, 6], horizon, dim, times[mine][::-1])
            np.testing.assert_array_equal(alone[:, ::-1], batched[:, mine])


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


class TestUnitTree:
    """Every horizon reads the unit tree, whose nodes sit at the midpoints of
    exact dyadic brackets."""

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


class TestNodeCount:
    """Nodes and leaf times drawn per point of a chunk: about one on any grid,
    dyadic or not, jump times included."""

    @staticmethod
    def per_point(text, rows, monkeypatch):
        ctx = _Context(parse_config_text(text))
        drawn = count_nodes(monkeypatch)
        chunk = _simulate(ctx.driver, ctx.reference_partition, 5, range(rows))
        monkeypatch.undo()
        return sum(drawn) / chunk.times.size

    @pytest.mark.parametrize("name, most", [("hl_nondyadic", 3.0), ("box_dyadic", 1.1)])
    def test_bench_reference_grids(self, name, most, monkeypatch):
        assert self.per_point(bench_config(name), 64, monkeypatch) <= most

    def test_no_cliff_off_the_dyadic_levels(self, monkeypatch):
        # the box study at levels 10/100/1000 against 16/128/1024, on its
        # reference grids of 4,000 and 4,096 intervals
        box = bench_config("box_dyadic")
        decimal, dyadic = (self.per_point(box.replace("levels = 8 32 128", f"levels = {levels}"),
                                          4, monkeypatch)
                           for levels in ("10 100 1000", "16 128 1024"))
        assert max(decimal, dyadic) <= 1.5 * min(decimal, dyadic)


class TestLeafBridge:
    """The times the sweep leaves in a bracket: each is one keyed draw, bridged
    from the value on its left to the bracket's right end."""

    @settings(max_examples=40, deadline=None)
    @given(dyadic_horizon_queries(), st.lists(st.sampled_from(DEEP_TIMES), max_size=6))
    def test_no_two_draws_of_a_trajectory_share_a_key(self, queries, deep):
        # a leaf's times lie strictly inside it, so none is a node of the same
        # tree: every (trajectory, time) drawn in a call is drawn once
        horizon, times, rows = queries
        times = np.concatenate([times / horizon, deep])  # unit-tree times of every kind
        rows = np.concatenate([rows, np.arange(len(deep)) % 2])
        keys = []
        draw = drivers._keyed_gaussians

        def recorded(seed, ends, owners, purposes, node_times, dim):
            keys.extend(zip(ends[owners].tolist(), node_times.view(np.uint64).tolist()))
            return draw(seed, ends, owners, purposes, node_times, dim)

        with mock.patch.object(drivers, "_keyed_gaussians", recorded):
            _brownian_values(11, rows, [3], 1.0, 1, times)
        assert len(keys) == len(set(keys))
        # each time in (0, 1) is a node or a leaf time, so it is drawn by its own key
        inside = {(int(r), float(t)) for r, t in zip(rows, times) if 0.0 < t < 1.0}
        drawn = {(r, float(np.uint64(t).view(np.float64))) for r, t in keys}
        assert inside <= drawn

    def test_a_leaf_time_is_one_keyed_draw(self):
        # 0.7 is left alone in (0.5, 1): W(0.7) bridges W(0.5) and W(1) with
        # the normal keyed by 0.7's own bits
        w = _brownian_values(7, 3, [3], 1.0, 1, np.array([0.5, 0.7, 1.0]))[0, :, 0]
        z = _reference_gaussians(7, np.array([3], dtype=np.uint64), np.array([0]), [3],
                                 np.array([0.7]), 1)[0, 0]
        frac, std = (x[0, 0] for x in _bridge_weights(np.array([0.5]), np.array([1.0]),
                                                     np.array([0.7])))
        assert w[1] == pytest.approx(w[0] + frac * (w[2] - w[0]) + std * z, rel=1e-14)

    @pytest.mark.parametrize("leaf", [[0.3], [0.3, 0.4, 0.45]], ids=["alone", "three"])
    def test_leaf_times_take_the_bridge_law(self, leaf):
        # 4,000 trajectories of seed 1 on 0.25, 0.5, 0.75 and 1 and the leaf
        # times in (0.25, 0.5): given W(0.25) and W(0.5), W at the leaf is the
        # bridge, mean W_a + (t - a)/(b - a) (W_b - W_a), covariance
        # (s - a)(b - t)/(b - a) for s <= t, independent of the ends
        n, a, b = 4_000, 0.25, 0.5
        grid = np.array([a, *leaf, b, 0.75, 1.0])
        w = _brownian_values(1, np.repeat(np.arange(n), grid.size), [3], 1.0, 1,
                             np.tile(grid, n))[0, :, 0].reshape(n, grid.size)
        t = np.array(leaf)
        w_a, w_b = w[:, :1], w[:, [t.size + 1]]
        resid = w[:, 1:1 + t.size] - (w_a + (t - a) / (b - a) * (w_b - w_a))
        cov = (np.minimum.outer(t, t) - a) * (b - np.maximum.outer(t, t)) / (b - a)
        assert np.all(np.abs(resid.mean(axis=0)) <= 4 * np.sqrt(np.diag(cov) / n))
        sample = np.cov(resid.T, ddof=1).reshape(t.size, t.size)
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / n)
        assert np.all(np.abs(sample - cov) <= 4 * se)
        for end in (w_a[:, 0], w_b[:, 0]):  # uncorrelated with the bracket's ends
            assert np.all(np.abs([np.corrcoef(r, end)[0, 1] for r in resid.T]) <= 4 / np.sqrt(n))

    @pytest.mark.parametrize("extra", [0, 1])
    def test_a_leaf_holds_at_most_the_leaf_times(self, extra):
        # _LEAF_TIMES times in (0.25, 0.5), none at its midpoint, stay in it;
        # one more splits it at 0.375
        n = _LEAF_TIMES + extra
        inside = 0.25 + 0.25 * (np.arange(n) + 0.3) / n  # spread across it, none at 0.375
        with mock.patch.object(drivers, "_keyed_gaussians",
                               wraps=drivers._keyed_gaussians) as draw:
            _brownian_values(2, 0, [3], 1.0, 1, np.concatenate([[0.25, 0.5], inside]))
        # the nodes 1, 0.5 and 0.25, the times in (0.25, 0.5), and 0.375 on a split
        assert draw.call_args.args[4].size == 3 + inside.size + extra


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

    def test_a_trajectory_alone_equals_its_batched_values(self):
        times = np.concatenate([uniform_partition(3.0, 7).times, [0.1, 2.9999, 1e-9]])
        rows = np.arange(times.size) % 2 * 3 + 2  # trajectories 2 and 5, interleaved
        batched = _brownian_values(8, rows, [3, 6], 3.0, 2, times)
        assert batched.shape == (2, times.size, 2)
        for i in (2, 5):
            alone = _brownian_values(8, i, [3, 6], 3.0, 2, times[rows == i])
            np.testing.assert_array_equal(alone, batched[:, rows == i])
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
        assert STREAM_VERSION == 4
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
        # the sweep's node 0.5 (a + b) of a bracket (a, b) with a float
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
# bridge formula; test_a_leaf_time_is_one_keyed_draw repeats the check at 0.7).
# The nodes 0.25, 0.5 and 1.0 keep the values of streams 2 and 3; 0.7, a leaf
# time of stream 4, does not.  GOLDEN_W_D3 shares them
GOLDEN_WORDS = [17026611805161637242, 9287880174703922719,
                16106269765591823813, 15692236555719398595]
GOLDEN_W = [-0.26253708564481454, -1.3466704236523417,
            -0.46463206207022756, -0.42931781189479323]
# key (7, 3) too: stream 4's W of tags 3 and 6, d = 2, at 0.25, 0.6 and T off
# the unit horizon, and W of tag 3, d = 3, at GOLDEN_W's times
GOLDEN_W_HORIZONS = {
    3.0: [0.8289372622160655, -0.3574451919419982, 0.8953683081702563,
          0.18667957810950092, -0.7436002627960799, 0.644953982260334,
          0.28982663753814925, 0.5036828323869922, -0.5254364395944587,
          0.8814963331910851, -1.208046117252733, 5.9152858562283495],
    2.0: [0.5367103247794893, -0.3116553040827479, -0.3461990341312703,
          -0.07592308243392584, -0.6071470721499579, 0.5266027213712839,
          0.22811470194977226, 1.3343361507905473, 0.3780517406892748,
          2.358209153515277, -0.9863655243398716, 4.829810676820585],
    0.7: [0.44310389877089434, 0.5579622609813655, 0.17927584057666573,
          0.5929303430960081, -0.35919305189144896, 0.31154237136298935,
          -0.17093174181056264, 0.23273581065687898, -0.47024903163986004,
          2.178087707014056, -0.5835417137293566, 2.8573545301336933],
}
GOLDEN_W_D3 = [-0.26253708564481454, 0.025340004432086373, 0.6346792750812424,
               -1.3466704236523417, 0.16130532724929014, 1.670563175549773,
               -0.46463206207022756, 0.023744136738836075, 1.771242585419354,
               -0.42931781189479323, 0.37236435527292494, 2.1397495486721394]


class TestStepPathBackedDrivers:
    def test_wraps_paths_and_flags_increments(self):
        part = uniform_partition(1.0, 4)
        h = StepPath(part, np.array([1.0, 1.0, 2.0, 2.0, 2.0]))
        z = StepPath(part, np.array([0.0, 0.5, 0.5, 0.5, 1.5]))
        r = from_step_paths(h, z)
        # a one-row chunk, of no trajectory, at the level of the paths' partition
        assert (r.starts.tolist(), r.trajectory, r.level.tolist()) == ([0, 5], [None], [4])
        np.testing.assert_array_equal(r.times, part.times)
        assert list(r.jump_flags) == [False, True, True, False, True]
        np.testing.assert_allclose(r.jump_h[2], [1.0])
        np.testing.assert_allclose(r.jump_z[4], [1.0])

    def test_rejects_nonzero_z0(self):
        part = uniform_partition(1.0, 2)
        h = StepPath(part, np.zeros(3))
        z = StepPath(part, np.array([0.5, 0.5, 0.5]))
        with pytest.raises(ValueError):
            from_step_paths(h, z)
