import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsde import (
    Partition,
    StepPath,
    discretize,
    grid_distance,
    refine,
    sup_distance,
    uniform_partition,
    variation,
)
from mmsde.paths import (
    read_step_path_csv,
    read_step_path_jsonl,
    write_step_path_csv,
    write_step_path_jsonl,
)


def path(times, values):
    return StepPath(Partition(np.asarray(times, dtype=float)),
                    np.asarray(values, dtype=float))


class TestPartition:
    def test_uniform(self):
        p = uniform_partition(1.0, 4)
        np.testing.assert_allclose(p.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert uniform_partition(2.0, 1).times.tolist() == [0.0, 2.0]
        assert uniform_partition(1.0, 10).mesh == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Partition(np.array([0.5, 1.0]))  # must start at 0
        with pytest.raises(ValueError):
            Partition(np.array([0.0, 1.0, 1.0]))  # strictly increasing
        with pytest.raises(ValueError):
            Partition(np.array([0.0]))

    def test_refine_keeps_points_bitwise(self):
        p = Partition(np.array([0.0, 1.0]))
        r = refine(p, 2)
        np.testing.assert_array_equal(r.times, [0.0, 0.5, 1.0])
        q = uniform_partition(0.7, 3)
        r2 = refine(q, 5)
        assert set(q.times.tolist()) <= set(r2.times.tolist())
        assert r2.mesh <= q.mesh / 5 + 1e-15

    def test_refine_halves_uniform_mesh(self):
        p = uniform_partition(1.0, 8)
        assert refine(p, 2).mesh == pytest.approx(p.mesh / 2)


class TestStepPath:
    def test_value_count_enforced(self):
        with pytest.raises(ValueError):
            StepPath(Partition(np.array([0.0, 1.0])), np.array([1.0, 2.0, 3.0]))

    def test_right_continuous_evaluation(self):
        p = path([0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
        assert p.value_at(0.25) == pytest.approx([0.0])
        assert p.value_at(0.5) == pytest.approx([0.5])
        assert p.value_at(1.0) == pytest.approx([1.0])

    def test_jumps(self):
        p = path([0.0, 0.5, 1.0], [1.0, 3.0, 3.0])
        np.testing.assert_allclose(p.jumps().ravel(), [0.0, 2.0, 0.0])


class TestDiscretize:
    def test_identity_on_own_partition(self):
        p = path([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
        q = discretize(p, p.partition)
        np.testing.assert_array_equal(q.values, p.values)

    def test_constant(self):
        q = discretize(lambda t: np.array([4.0]), uniform_partition(1.0, 3))
        np.testing.assert_allclose(q.values, 4.0)

    def test_linear_function(self):
        q = discretize(lambda t: np.array([t]), Partition(np.array([0.0, 0.5, 1.0])))
        np.testing.assert_allclose(q.values.ravel(), [0.0, 0.5, 1.0])

    def test_converges_in_sup_distance_for_continuous_input(self):
        f = lambda t: np.array([np.sin(5.0 * t)])
        fine = discretize(f, uniform_partition(1.0, 4096))
        errs = [sup_distance(discretize(f, uniform_partition(1.0, n)), fine)
                for n in (8, 32, 128)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 5.0 / 128


class TestDistances:
    def test_sup_distance(self):
        a = path([0.0, 1.0], [1.0, 1.0])
        b = path([0.0, 1.0], [0.0, 0.0])
        assert sup_distance(a, a) == 0.0
        assert sup_distance(a, b) == pytest.approx(1.0)

    def test_sup_sees_offset_interval(self):
        a = path([0.0, 0.5, 1.0], [0.0, 1.0, 1.0])
        shifted = path([0.0, 0.6, 1.0], [0.0, 1.0, 1.0])
        assert sup_distance(a, shifted) == pytest.approx(1.0)

    def test_grid_distance(self):
        part = Partition(np.array([0.0, 0.5, 1.0]))
        a = path([0.0, 0.5, 1.0], [0.0, 1.0, 2.0])
        b = path([0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 5.0, 1.0, 9.0, 2.0])
        # agree at the partition points, differ between them
        assert grid_distance(a, b, part) == pytest.approx(0.0)
        assert sup_distance(a, b) > 1.0
        single = Partition(np.array([0.0, 1e-9]))
        c = path([0.0, 1.0], [3.0, 9.0])
        assert grid_distance(a, c, single, horizon=0.0) == pytest.approx(3.0)

    def test_triangle_inequality(self, rng):
        part = uniform_partition(1.0, 7)
        for _ in range(50):
            a = StepPath(part, rng.normal(size=(8, 2)))
            b = StepPath(part, rng.normal(size=(8, 2)))
            c = StepPath(part, rng.normal(size=(8, 2)))
            assert sup_distance(a, c) <= sup_distance(a, b) + sup_distance(b, c) + 1e-12
            assert grid_distance(a, c, part) <= (grid_distance(a, b, part)
                                                 + grid_distance(b, c, part) + 1e-12)


class TestVariation:
    def test_basic(self):
        assert variation(path([0.0, 1.0], [5.0, 5.0])) == 0.0
        assert variation(path([0.0, 0.5, 1.0], [0.0, 1.0, 2.0])) == pytest.approx(2.0)
        assert variation(path([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])) == pytest.approx(2.0)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=12), st.integers(1, 10))
    @settings(max_examples=100, deadline=None)
    def test_additive_over_adjacent_intervals(self, vals, cut):
        n = len(vals)
        times = np.linspace(0.0, 1.0, n)
        p = path(times, vals)
        s = times[min(cut, n - 1)]
        total = variation(p)
        assert variation(p, (0.0, s)) + variation(p, (s, 1.0)) == pytest.approx(total)

    def test_bounds_endpoint_gap(self, rng):
        part = uniform_partition(1.0, 9)
        for _ in range(20):
            p = StepPath(part, rng.normal(size=(10, 3)))
            assert variation(p) >= np.linalg.norm(p.values[-1] - p.values[0]) - 1e-12


class TestSerialization:
    @given(st.lists(st.floats(-1e12, 1e12, allow_nan=False), min_size=2, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_csv_roundtrip_bit_exact(self, vals):
        p = path(np.linspace(0.0, 1.0, len(vals)), vals)
        buf = io.StringIO()
        write_step_path_csv(p, buf)
        buf.seek(0)
        q = read_step_path_csv(buf)
        np.testing.assert_array_equal(q.values, p.values)
        np.testing.assert_array_equal(q.partition.times, p.partition.times)

    def test_csv_roundtrip_awkward_floats(self):
        vals = np.array([1.0 / 3.0, np.pi, 2.0 ** -52, -1.2345678901234567e-8])
        p = path([0.0, 0.1, 0.2, 1.0 / 3.0], vals)
        buf = io.StringIO()
        write_step_path_csv(p, buf, component="x", meta={"tag": "demo"})
        buf.seek(0)
        q = read_step_path_csv(buf, component="x")
        np.testing.assert_array_equal(q.values, p.values)
        np.testing.assert_array_equal(q.partition.times, p.partition.times)

    def test_csv_bytes_golden(self):
        # locks the exact text format, not only the parsed values
        p = path([0.0, 2.0 ** -1074, 0.1],
                 [[0.1, 1e-300], [-0.0, 2.0 ** -1074], [1.0 / 3.0, -1e300]])
        buf = io.StringIO()
        write_step_path_csv(p, buf, component="x", meta={"tag": "demo", "flow_substeps": 16})
        write_step_path_csv(p, buf, component="k", header=False)
        write_step_path_csv(p, buf)
        assert buf.getvalue() == (
            "# flow_substeps=16\n"
            "# tag=demo\n"
            "component,time,v_1,v_2\n"
            "x,0.0,0.1,1e-300\n"
            "x,5e-324,-0.0,5e-324\n"
            "x,0.1,0.3333333333333333,-1e+300\n"
            "k,0.0,0.1,1e-300\n"
            "k,5e-324,-0.0,5e-324\n"
            "k,0.1,0.3333333333333333,-1e+300\n"
            "time,v_1,v_2\n"
            "0.0,0.1,1e-300\n"
            "5e-324,-0.0,5e-324\n"
            "0.1,0.3333333333333333,-1e+300\n"
        )

    def test_jsonl_roundtrip_bit_exact(self, rng):
        p = StepPath(uniform_partition(1.0, 5), rng.normal(size=(6, 3)) * 1e6)
        buf = io.StringIO()
        write_step_path_jsonl(p, buf, meta={"note": "x"})
        buf.seek(0)
        q = read_step_path_jsonl(buf)
        np.testing.assert_array_equal(q.values, p.values)

    def test_component_required_for_multi_component_files(self):
        p = path([0.0, 1.0], [1.0, 2.0])
        buf = io.StringIO()
        write_step_path_csv(p, buf, component="x")
        write_step_path_csv(p, buf, component="k", header=False)
        buf.seek(0)
        with pytest.raises(ValueError):
            read_step_path_csv(buf)
        buf.seek(0)
        q = read_step_path_csv(buf, component="k")
        np.testing.assert_array_equal(q.values, p.values)
