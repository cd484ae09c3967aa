import numpy as np
import pytest

from mmsde import Partition, StepPath
from mmsde.cli import EXIT_CONFIG, EXIT_NONCONVERGENCE, EXIT_OK, main
from mmsde.paths import read_step_path_csv, write_step_path_csv

LINEAR_INI = """\
[operator]
kind = linear
matrix = 2 0.5;-0.5 1

[projection]
kind = classical

[experiment]
flow_substeps = 8
"""

ELASTIC_BOX_INI = """\
[operator]
kind = box
lo = 0
hi = 1

[projection]
kind = elastic_iterated
c = 0.5
max_iter = 1
"""


def write_file(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_path(file, times, values):
    y = StepPath(Partition(np.asarray(times, dtype=float)), np.asarray(values, dtype=float))
    with open(file, "w", encoding="utf-8") as fh:
        write_step_path_csv(y, fh)
    return str(file), y


def skorokhod(config, path_file, out):
    return main(["skorokhod", "--config", config, "--path", path_file, "--out", str(out)])


class TestSkorokhodCommand:
    def test_linear_solution_decomposes_input(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        times = np.linspace(0.0, 1.0, 41)
        vals = np.cumsum(rng.normal(0.0, 0.3, size=(41, 2)), axis=0)
        path_file, y = write_path(tmp_path / "y.csv", times, vals)
        config = write_file(tmp_path / "lin.ini", LINEAR_INI)
        out = tmp_path / "out"
        assert skorokhod(config, path_file, out) == EXIT_OK
        solution = out / "solution.csv"
        assert capsys.readouterr().out.strip() == str(solution)
        with open(solution, encoding="utf-8") as fh:
            x = read_step_path_csv(fh, component="x")
        with open(solution, encoding="utf-8") as fh:
            k = read_step_path_csv(fh, component="k")
        np.testing.assert_array_equal(x.partition.times, times)
        np.testing.assert_array_equal(k.partition.times, times)
        assert np.max(np.abs(x.values + k.values - y.values)) <= 1e-9
        # the linear drift pulls x towards 0, so k is not identically zero
        assert np.max(np.abs(k.values)) > 1e-3

    def test_unknown_operator_kind_is_a_config_error(self, tmp_path, capsys):
        path_file, _ = write_path(tmp_path / "y.csv", [0.0, 1.0], [[0.0], [1.0]])
        config = write_file(tmp_path / "bad.ini", "[operator]\nkind = hexagon\n")
        assert skorokhod(config, path_file, tmp_path / "out") == EXIT_CONFIG
        assert "operator.kind" in capsys.readouterr().err

    def test_missing_path_file_is_a_config_error(self, tmp_path, capsys):
        config = write_file(tmp_path / "lin.ini", LINEAR_INI)
        missing = str(tmp_path / "absent.csv")
        assert skorokhod(config, missing, tmp_path / "out") == EXIT_CONFIG
        assert "absent.csv" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_elastic_budget_exhausted_is_nonconvergence(self, tmp_path, capsys):
        # a jump from 0.5 to 5: one elastic step lands at 1 - 0.5 * 4 = -1,
        # still outside [0, 1], and max_iter = 1 allows no second step
        path_file, _ = write_path(tmp_path / "y.csv", [0.0, 0.5, 1.0],
                                  [[0.5], [5.0], [5.0]])
        config = write_file(tmp_path / "box.ini", ELASTIC_BOX_INI)
        assert skorokhod(config, path_file, tmp_path / "out") == EXIT_NONCONVERGENCE
        assert "did not stabilize in 1 steps" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["skorokhod"], ["no-such-command"]])
def test_bad_command_line_exits_through_argparse(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
