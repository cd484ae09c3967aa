import json

import numpy as np
import pytest

from mmsde import (
    Partition,
    StepPath,
    euler_scheme,
    modified_yosida_scheme,
    simulate,
    uniform_partition,
    yosida_scheme,
)
from mmsde.cli import EXIT_CONFIG, EXIT_NONCONVERGENCE, EXIT_OK, main
from mmsde.config import (
    build_coefficient,
    build_driver,
    build_operator,
    build_projection,
    load_config,
)
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


BOX_STUDY_INI = """\
[operator]
kind = box
lo = 0 0
hi = 1 1

[projection]
kind = elastic_iterated
c = 0.5

[coefficient]
kind = bounded_sin

[driver]
sigma = 0.5
jump_rate = 3
jump_law = gaussian
jump_cov = 0.25
h0 = 0.5 0.5

[experiment]
levels = 4 8
yosida_levels = 2 4
checkpoints = 0.5 1.0j
trajectories = 2
seed = 3
"""

# f(x) = diag(x * x) has no linear growth bound; trajectory 2 of this seed
# explodes on the reference grid
EXPLODING_INI = """\
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
levels = 16
trajectories = 4
seed = 33
"""

TABLE_HEADER = "level,scheme,checkpoint,mean_err,std_err,sup_err,p_gt_1e-1,p_gt_1e-2,n_traj"


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


def run_command(command, tmp_path, capsys, *extra):
    """Run one command on BOX_STUDY_INI; return (exit code, output dir, stdout)."""
    config = write_file(tmp_path / "box.ini", BOX_STUDY_INI)
    out = tmp_path / "out"
    code = main([command, "--config", config, "--out", str(out), *extra])
    return code, out, capsys.readouterr().out


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

    @pytest.mark.parametrize("substeps", ["-2", "0"])
    def test_bad_substeps_flag_is_a_config_error(self, tmp_path, capsys, substeps):
        path_file, _ = write_path(tmp_path / "y.csv", [0.0, 1.0], [[0.0, 0.0], [1.0, 1.0]])
        config = write_file(tmp_path / "lin.ini", LINEAR_INI)
        out = tmp_path / "out"
        argv = ["skorokhod", "--config", config, "--path", path_file, "--out", str(out),
                "--substeps", substeps]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "configuration error: experiment.flow_substeps: ")
        assert not out.exists()

    def test_non_numeric_path_cell_is_a_config_error(self, tmp_path, capsys):
        path_file, _ = write_path(tmp_path / "y.csv", [0.0, 1.0], [[0.0, 0.0], [1.0, 1.0]])
        text = (tmp_path / "y.csv").read_text(encoding="utf-8")
        (tmp_path / "y.csv").write_text(text.replace("1.0", "one", 1), encoding="utf-8")
        config = write_file(tmp_path / "lin.ini", LINEAR_INI)
        assert skorokhod(config, path_file, tmp_path / "out") == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: --path: ")
        assert not (tmp_path / "out").exists()

    def test_elastic_budget_exhausted_is_nonconvergence(self, tmp_path, capsys):
        # a jump from 0.5 to 5: one elastic step lands at 1 - 0.5 * 4 = -1,
        # still outside [0, 1], and max_iter = 1 allows no second step
        path_file, _ = write_path(tmp_path / "y.csv", [0.0, 0.5, 1.0],
                                  [[0.5], [5.0], [5.0]])
        config = write_file(tmp_path / "box.ini", ELASTIC_BOX_INI)
        assert skorokhod(config, path_file, tmp_path / "out") == EXIT_NONCONVERGENCE
        assert "did not stabilize in 1 steps" in capsys.readouterr().err


class TestSimulateCommand:
    @pytest.mark.parametrize("scheme", ["euler", "yosida", "modified_yosida"])
    def test_writes_the_scheme_trajectory(self, tmp_path, capsys, scheme):
        code, out, stdout = run_command("simulate", tmp_path, capsys,
                                        "--scheme", scheme, "--trajectory", "1")
        assert code == EXIT_OK
        written = out / f"trajectory_{scheme}.csv"
        assert stdout.strip() == str(written)
        # the same run in-process: finest level 8, finest Yosida level 4
        cfg = load_config(str(tmp_path / "box.ini"))
        op = build_operator(cfg.operator)
        proj = build_projection(cfg.projection)
        coeff = build_coefficient(cfg.coefficient, 2)
        r = simulate(build_driver(cfg.driver, 2), uniform_partition(1.0, 8), cfg.seed, 1)
        expected = {
            "euler": lambda: euler_scheme(op, proj, coeff, r),
            "yosida": lambda: yosida_scheme(op, 4, coeff, r),
            "modified_yosida": lambda: modified_yosida_scheme(op, proj, 4, coeff, r),
        }[scheme]()
        for component, path in (("x", expected.x), ("k", expected.k_path)):
            with open(written, encoding="utf-8") as fh:
                got = read_step_path_csv(fh, component=component)
            np.testing.assert_array_equal(got.partition.times, path.partition.times)
            np.testing.assert_array_equal(got.values, path.values)


class TestStudyCommands:
    @pytest.mark.parametrize("command, reference, rows", [
        ("converge", "# reference=SELF-REFERENCE euler at grid=32", 4),
        ("compare", "# reference=EULER-REFERENCE grid=8 (same realizations)", 4),
    ], ids=["converge", "compare"])
    def test_writes_error_table(self, tmp_path, capsys, command, reference, rows):
        code, out, stdout = run_command(command, tmp_path, capsys)
        assert code == EXIT_OK
        assert stdout.strip() == str(out / "errors.csv")
        lines = (out / "errors.csv").read_text(encoding="utf-8").splitlines()
        assert lines[:2] == [reference, TABLE_HEADER]
        assert len(lines) == 2 + rows
        assert all(len(line.split(",")) == 9 for line in lines[2:])

    def test_verify_reports_every_check_passed(self, tmp_path, capsys):
        code, out, stdout = run_command("verify", tmp_path, capsys, "--samples", "60")
        assert code == EXIT_OK
        with open(out / "verify.json", encoding="utf-8") as fh:
            report = json.load(fh)
        assert report == json.loads(stdout)
        assert len(report) == 12
        assert [name for name, res in report.items() if not res["passed"]] == []

    @pytest.mark.parametrize("samples", ["1", "2"])
    def test_verify_draws_a_point_for_every_check(self, tmp_path, capsys, samples):
        code, out, _ = run_command("verify", tmp_path, capsys, "--samples", samples)
        assert code == EXIT_OK
        report = json.loads((out / "verify.json").read_text(encoding="utf-8"))
        assert len(report) == 12
        assert all(res["passed"] for res in report.values())
        assert all(np.isfinite(res["worst"]) for res in report.values())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_exploding_trajectory_is_nonconvergence(self, tmp_path, capsys, workers):
        config = write_file(tmp_path / "square.ini", EXPLODING_INI + f"workers = {workers}\n")
        out = tmp_path / "out"
        assert main(["converge", "--config", config, "--out", str(out)]) == EXIT_NONCONVERGENCE
        # the reference run, on levels[-1] x reference_refine = 64 intervals, explodes
        assert capsys.readouterr().err == (
            "numerical non-convergence: trajectory 2 exploded: the driven increment "
            "at step 56 (t = 0.84375) is not finite (reference run, level 64)\n")
        assert not (out / "errors.csv").exists()

    def test_exploding_simulation_names_its_level(self, tmp_path, capsys):
        config = write_file(tmp_path / "square.ini", EXPLODING_INI)
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out", str(out), "--trajectory", "2",
                     "--level", "64"]) == EXIT_NONCONVERGENCE
        assert capsys.readouterr().err == (
            "numerical non-convergence: trajectory 2 exploded: the driven increment "
            "at step 56 (t = 0.84375) is not finite (level 64)\n")
        assert not (out / "trajectory_euler.csv").exists()


@pytest.mark.parametrize("command, flags, field", [
    ("simulate", ["--scheme", "yosida", "--yosida-n", "0.5"], "experiment.yosida_levels"),
    ("simulate", ["--level", "-4"], "experiment.levels"),
    ("simulate", ["--level", "0"], "experiment.levels"),
    ("verify", ["--samples", "0"], "--samples"),
], ids=["yosida-n-0.5", "level-minus-4", "level-0", "samples-0"])
def test_bad_flag_is_a_config_error(tmp_path, capsys, command, flags, field):
    # flags are checked with the config they override, so none falls back to it
    config = write_file(tmp_path / "box.ini", BOX_STUDY_INI)
    out = tmp_path / "out"
    assert main([command, "--config", config, "--out", str(out), *flags]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"configuration error: {field}: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["skorokhod"], ["no-such-command"]])
def test_bad_command_line_exits_through_argparse(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
