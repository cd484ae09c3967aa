import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsde import (
    Partition,
    StepPath,
    refine,
    uniform_partition,
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

    def test_same_times(self):
        p = uniform_partition(1.0, 8)
        assert p.same_times(p)
        assert p.same_times(Partition(p.times.copy()))  # equal but distinct
        assert refine(uniform_partition(1.0, 4), 2).same_times(p)
        assert not p.same_times(uniform_partition(1.0, 4))  # another size
        assert not uniform_partition(1.0, 4).same_times(p)
        assert not p.same_times(uniform_partition(2.0, 8))  # same size, other times


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

    def test_time_strings_follow_each_partition(self, rng):
        # equal lengths, different grids: no time string of one may reach the other
        first = StepPath(uniform_partition(1.0, 6), rng.normal(size=(7, 2)))
        second = StepPath(Partition(np.cumsum(np.r_[0.0, rng.uniform(0.1, 1.0, 6)])),
                          rng.normal(size=(7, 2)))
        for p in (first, second, first):
            buf = io.StringIO()
            write_step_path_csv(p, buf, component="x", header=False)
            assert buf.getvalue() == "".join(
                f"x,{t!r},{','.join(map(repr, row))}\n"
                for t, row in zip(p.partition.times.tolist(), p.values.tolist()))

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
