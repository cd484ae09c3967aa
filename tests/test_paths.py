import io
import re

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
    CSV_BLOCK_ROWS,
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

    def test_csv_bytes_across_blocks(self, rng):
        # the goldens hold fewer rows than a block; this file spans 2.5 blocks
        # per component, and kc equals k without being the same array
        n = CSV_BLOCK_ROWS * 5 // 2 + 7
        grid = uniform_partition(1.0, n - 1)
        x = rng.normal(size=(n, 2)) * 1e3
        x[[0, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, 2 * CSV_BLOCK_ROWS + 1], 0] = [
            1e-05, 5e-324, 1e16, -0.0]
        x[CSV_BLOCK_ROWS + 3, 1] = -0.0
        k = np.cumsum(rng.normal(size=(n, 2)), axis=0)
        kd = np.zeros((n, 2))
        kd[2 * CSV_BLOCK_ROWS, 1] = -0.0
        components = {"x": StepPath(grid, x), "k": StepPath(grid, k),
                      "kc": StepPath(grid, k.copy()), "kd": StepPath(grid, kd)}
        buf, formatted = io.StringIO(), {}
        for i, (name, p) in enumerate(components.items()):
            write_step_path_csv(p, buf, name, None if i else {"note": "blocks"},
                                header=not i, formatted=formatted)
        times = grid.times.tolist()
        assert buf.getvalue() == "# note=blocks\ncomponent,time,v_1,v_2\n" + "".join(
            f"{name},{t!r},{a!r},{b!r}\n"
            for name, p in components.items() for t, (a, b) in zip(times, p.values.tolist()))
        for name, p in components.items():
            buf.seek(0)
            q = read_step_path_csv(buf, component=name)
            assert q.values.tobytes() == p.values.tobytes(), name
            assert q.partition.times.tobytes() == grid.times.tobytes(), name

    @pytest.mark.parametrize("bad_cell, short_row", [
        (1500, 2600), (2600, 1500), (1500, 1600), (1600, 1500)],
        ids=["cell-then-row", "row-then-cell", "cell-then-row-one-block",
             "row-then-cell-one-block"])
    def test_csv_names_the_first_faulty_line(self, bad_cell, short_row):
        # line 1 is a comment, line 2 the header, line 700 blank
        lines = ["# note", "time,v_1,v_2"] + [f"{i}.0,0.5,-0.5" for i in range(2998)]
        lines[699] = ""
        lines[bad_cell - 1] = "5.0,0.5,half"
        lines[short_row - 1] = "6.0,0.5"
        first = min(bad_cell, short_row)
        message = ("could not convert string to float: 'half'" if first == bad_cell
                   else "2 fields, but the header names 3")
        with pytest.raises(ValueError, match=f"^line {first}: {re.escape(message)}$"):
            read_step_path_csv(io.StringIO("\n".join(lines) + "\n"))

    def test_csv_rows_of_other_components_are_only_counted(self):
        p = path(np.arange(3000.0), np.ones(3000))
        buf = io.StringIO()
        write_step_path_csv(p, buf, component="x")
        write_step_path_csv(p, buf, component="k", header=False)
        lines = buf.getvalue().splitlines()
        lines[4000] = "k,1000.0,one"  # a cell of k, not read for x
        q = read_step_path_csv(io.StringIO("\n".join(lines)), component="x")
        np.testing.assert_array_equal(q.values, p.values)
        lines[5000] = "k,2000.0"  # but every row is field-count checked
        with pytest.raises(ValueError, match="^line 5001: 2 fields, but the header names 3$"):
            read_step_path_csv(io.StringIO("\n".join(lines)), component="x")

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
