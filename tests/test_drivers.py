import numpy as np
import pytest

from mmsde import (
    STREAM_VERSION,
    DriverSpec,
    JumpLaw,
    Partition,
    ProcessSpec,
    StepPath,
    from_step_paths,
    refine,
    refine_consistent,
    simulate,
    uniform_partition,
)
from mmsde.drivers import _PHILOX_CHUNK, _brownian_values, _philox_raw


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


class TestRefinementConsistency:
    def test_same_partition_is_identity(self):
        spec = make_spec(sigma=1.0, jump_rate=2.0, jump_law=JumpLaw.fixed([0.3]))
        part = uniform_partition(1.0, 8)
        r = simulate(spec, part, seed=7)
        r2 = refine_consistent(r, part)
        np.testing.assert_array_equal(r.z.values, r2.z.values)

    def test_coarse_points_preserved_bit_exactly(self):
        spec = make_spec(sigma=1.0, drift=0.3, jump_rate=2.0,
                         jump_law=JumpLaw.gaussian([0.1], [[0.09]]))
        part = uniform_partition(1.0, 8)
        r = simulate(spec, part, seed=23, trajectory_index=9)
        fine = refine_consistent(r, refine(part, 4))
        coarse = {t: v for t, v in zip(r.grid.times, r.z.values[:, 0])}
        fine_map = {t: v for t, v in zip(fine.grid.times, fine.z.values[:, 0])}
        for t, v in coarse.items():
            assert t in fine_map
            assert fine_map[t] == v  # bit-exact

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
        r = simulate(spec, uniform_partition(1.0, 4), seed=1)
        fine = refine_consistent(r, uniform_partition(1.0, 16))
        np.testing.assert_allclose(fine.z.values.ravel(), 2.0 * fine.grid.times)

    def test_rejects_non_superset(self):
        spec = make_spec(sigma=1.0)
        r = simulate(spec, uniform_partition(1.0, 8), seed=2)
        with pytest.raises(ValueError):
            refine_consistent(r, Partition(np.array([0.0, 0.3, 1.0])))


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
        assert STREAM_VERSION == 2
        words = _philox_raw((7, 3), np.array([[0, 3, 4602678819172646912, 0]], dtype=np.uint64))
        assert words[0].tolist() == GOLDEN_WORDS
        w = _brownian_values(7, 3, [3], 1.0, 1, np.array([0.25, 0.5, 0.7, 1.0]))[0, :, 0]
        np.testing.assert_allclose(w, GOLDEN_W, rtol=1e-12, atol=0.0)

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


# stream 2, key (7, 3): the raw block of node t = 0.5 of tag 3, and W at
# 0.25, 0.5, 0.7 and 1.0 (checked by hand against np.random.Philox words,
# Box-Muller and the bridge formula)
GOLDEN_WORDS = [17026611805161637242, 9287880174703922719,
                16106269765591823813, 15692236555719398595]
GOLDEN_W = [-0.26253708564481454, -1.3466704236523417,
            -0.7586317339100459, -0.42931781189479323]


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

    def test_regridding_keeps_jumps(self):
        part = uniform_partition(1.0, 4)
        h = StepPath(part, np.zeros(5))
        z = StepPath(part, np.array([0.0, 1.0, 1.0, 1.0, 1.0]))
        r = from_step_paths(h, z)
        fine = refine_consistent(r, refine(part, 2))
        idx = np.flatnonzero(fine.jump_flags)
        assert fine.grid.times[idx] == pytest.approx([0.25])
        np.testing.assert_allclose(fine.jump_z[idx[0]], [1.0])
