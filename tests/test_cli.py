import argparse
import json
import time
from collections import Counter

import numpy as np
import pytest

import mmsde.harness as harness
from conftest import SQUARE_STUDY, bench_config, run_python
from mmsde import (
    Partition,
    StepPath,
    drivers,
    euler_scheme,
    indicator_polyhedron,
    modified_yosida_scheme,
    simulate,
    uniform_partition,
    yosida_scheme,
)
from mmsde.cli import EXIT_CONFIG, EXIT_NONCONVERGENCE, EXIT_OK, main
from mmsde.config import (
    _OPERATORS,
    ExperimentConfig,
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

JUMPY_HALFLINE_INI = """\
[operator]
kind = halfline

[driver]
sigma = 1
jump_rate = 500
jump_law = gaussian
jump_cov = 0.01
h0 = 0.5

[experiment]
levels = 8
reference_refine = 4
trajectories = 1
"""

# Dykstra's polyhedron, the triangle of the verify_polyhedron golden
TRIANGLE_INI = """\
[operator]
kind = polyhedron
constraints = -1 0 : 0 ; 0 -1 : 0 ; 1 1 : 1

[projection]
kind = elastic_iterated
c = 0.5
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
        assert capsys.readouterr().err.startswith(
            "configuration error: --path: line 3: could not convert string to float: 'one'")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, text, line", [
        ("short.csv", "time,v_1,v_2\n0.0,0.0,0.0\n1.0,1.0\n", 3),
        ("long.csv", "# note\ntime,v_1\n0.0,0.0\n1.0,1.0,2.0\n", 4),
        ("untimed.jsonl", '{"time": 0.0, "value": [0.0]}\n{"value": [1.0]}\n', 2),
        ("object-time.jsonl", '{"time": {"a": 1}, "value": [1.0, 0.0]}\n', 1),
        ("string-time.jsonl",
         '{"time": 0.0, "value": [0.0, 0.0]}\n{"time": "x", "value": [1.0, 0.0]}\n', 2),
        ("short-value.jsonl",
         '{"time": 0.0, "value": [0.0, 0.0]}\n{"time": 1.0, "value": [1.0]}\n', 2),
    ], ids=["csv-missing-field", "csv-extra-field", "jsonl-missing-time", "jsonl-object-time",
            "jsonl-string-time", "jsonl-short-value"])
    def test_malformed_path_record_is_a_config_error(self, tmp_path, capsys, name, text, line):
        path_file = write_file(tmp_path / name, text)
        config = write_file(tmp_path / "lin.ini", LINEAR_INI)
        assert skorokhod(config, path_file, tmp_path / "out") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: --path: line {line}: "), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ini, times, values, message", [
        ("[operator]\nkind = halfline\n", [0.0, 1.0], [[0.0, 0.0], [1.0, 1.0]],
         "input dimension does not match the operator"),
        (ELASTIC_BOX_INI, [0.0, 1.0], [[2.0], [0.5]],
         "y_0 outside the domain closure (distance 1.000e+00)"),
        (LINEAR_INI, [0.0, 1e-17, 1.0], [[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]],
         "resolvent step must be a finite real >= 1e-15"),
    ], ids=["path-dimension", "y0-outside-domain", "step-below-resolution"])
    def test_path_the_operator_cannot_take_is_a_config_error(self, tmp_path, capsys, ini,
                                                             times, values, message):
        path_file, _ = write_path(tmp_path / "y.csv", times, values)
        config = write_file(tmp_path / "op.ini", ini)
        assert skorokhod(config, path_file, tmp_path / "out") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: --path: {message}"), err
        assert not (tmp_path / "out").exists()

    def test_overflowing_path_increment_is_a_config_error_at_once(self, tmp_path, capsys):
        # 1e308 to -1e308 overflows to an infinite jump, which the iterated
        # elastic projection would otherwise chase through its whole budget
        path_file, _ = write_path(tmp_path / "y.csv", [0.0, 0.5, 1.0],
                                  [[0.0, 0.0], [1e308, 1e308], [-1e308, -1e308]])
        config = write_file(tmp_path / "box.ini", BOX_STUDY_INI)
        start = time.perf_counter()
        assert skorokhod(config, path_file, tmp_path / "out") == EXIT_CONFIG
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().err == ("configuration error: --path: the input "
                                           "increment at step 2 (t = 1.0) is not finite\n")
        assert not (tmp_path / "out").exists()

    def test_elastic_budget_exhausted_is_nonconvergence(self, tmp_path, capsys):
        # a jump from 0.5 to 5: one elastic step lands at 1 - 0.5 * 4 = -1,
        # still outside [0, 1], and max_iter = 1 allows no second step
        path_file, _ = write_path(tmp_path / "y.csv", [0.0, 0.5, 1.0],
                                  [[0.5], [5.0], [5.0]])
        config = write_file(tmp_path / "box.ini", ELASTIC_BOX_INI)
        assert skorokhod(config, path_file, tmp_path / "out") == EXIT_NONCONVERGENCE
        assert "did not stabilize in 1 steps" in capsys.readouterr().err

    def test_dykstra_budget_exhausted_is_nonconvergence(self, tmp_path, capsys, monkeypatch):
        # from (5, 5) one sweep lands on the face x + y = 1, a shift far above
        # the tolerance, and a budget of one sweep allows no second
        monkeypatch.setitem(_OPERATORS, "polyhedron", (
            lambda normals, offsets: indicator_polyhedron(list(zip(normals, offsets)),
                                                          dykstra_max_iter=1),
            _OPERATORS["polyhedron"][1]))
        path_file, _ = write_path(tmp_path / "y.csv", [0.0, 0.5, 1.0],
                                  [[0.2, 0.2], [5.0, 5.0], [5.0, 5.0]])
        config = write_file(tmp_path / "triangle.ini", "[operator]\nkind = polyhedron\n"
                            "constraints = -1 0 : 0 ; 0 -1 : 0 ; 1 1 : 1\n")
        out = tmp_path / "out"
        assert skorokhod(config, path_file, out) == EXIT_NONCONVERGENCE
        assert "Dykstra projection did not stabilize in 1 sweeps" in capsys.readouterr().err
        assert not (out / "solution.csv").exists()


class TestSimulateCommand:
    @pytest.mark.parametrize("scheme", ["euler", "yosida", "modified_yosida"])
    @pytest.mark.parametrize("ini, trajectory", [
        (BOX_STUDY_INI, 1),
        # the benchmark's box study on its finest levels, 128 and Yosida 64
        (bench_config("box_dyadic"), 0),
    ], ids=["box-study", "box_dyadic"])
    def test_writes_the_scheme_trajectory(self, tmp_path, capsys, ini, trajectory, scheme):
        config = write_file(tmp_path / "box.ini", ini)
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out", str(out), "--scheme", scheme,
                     "--trajectory", str(trajectory)]) == EXIT_OK
        written = out / f"trajectory_{scheme}.csv"
        assert capsys.readouterr().out.strip() == str(written)
        # the same run in-process, at the finest level and finest Yosida level
        cfg = load_config(config)
        n = cfg.yosida_levels[-1]
        op = build_operator(cfg.operator)
        proj = build_projection(cfg.projection)
        coeff = build_coefficient(cfg.coefficient, 2)
        r = simulate(build_driver(cfg.driver, 2), uniform_partition(1.0, cfg.levels[-1]),
                     cfg.seed, trajectory)
        expected = {
            "euler": lambda: euler_scheme(op, proj, coeff, r),
            "yosida": lambda: yosida_scheme(op, n, coeff, r),
            "modified_yosida": lambda: modified_yosida_scheme(op, proj, n, coeff, r),
        }[scheme]()
        for component, path in (("x", expected.x), ("k", expected.k_path)):
            with open(written, encoding="utf-8") as fh:
                got = read_step_path_csv(fh, component=component)
            np.testing.assert_array_equal(got.partition.times, path.partition.times)
            np.testing.assert_array_equal(got.values, path.values)

    @pytest.mark.parametrize("scheme", ["yosida", "modified_yosida"])
    def test_yosida_scheme_without_a_level_is_a_config_error(self, tmp_path, capsys, scheme):
        text = BOX_STUDY_INI.replace("yosida_levels = 2 4", "yosida_levels =")
        config = write_file(tmp_path / "box.ini", text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out", str(out),
                     "--scheme", scheme]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "configuration error: experiment.yosida_levels: ")
        assert not out.exists()

    def test_jump_count_is_bounded_by_the_simulated_grid(self, tmp_path, capsys, monkeypatch):
        # 500 expected jumps pass the bound of converge's 32-interval reference
        # grid (16 x 32), but simulate samples on the 8-interval finest level
        config = write_file(tmp_path / "jumpy.ini", JUMPY_HALFLINE_INI)
        assert main(["converge", "--config", config, "--out", str(tmp_path / "study")]) == EXIT_OK
        capsys.readouterr()

        def never(*args):
            raise AssertionError("jump times sampled")

        monkeypatch.setattr(drivers, "_sample_jumps", never)
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: driver.jump_rate: ")
        assert not out.exists()


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

    @pytest.mark.parametrize("ini, samples", [
        (BOX_STUDY_INI, 60),
        # 10,000 fresh per-row steps run through the cap of the inverse memo
        # and through the per-row flow states of the solution checkers
        (bench_config("lin_path"), 20000),
        # the Skorokhod checks solve their 15 step paths as one batch on each
        # operator and projection kind of the benchmark and on Dykstra's
        # polyhedron: a batched projection must not warn on a row it leaves alone
        (bench_config("box_dyadic"), 200),
        (bench_config("hl_nondyadic"), 200),
        (bench_config("lin_path"), 200),
        (TRIANGLE_INI, 200),
    ], ids=["box-study-60", "lin_path-20000", "box_dyadic-200", "hl_nondyadic-200",
            "lin_path-200", "triangle-200"])
    def test_verify_reports_every_check_passed(self, tmp_path, capsys, ini, samples):
        config = write_file(tmp_path / "study.ini", ini)
        out = tmp_path / "out"
        code = main(["verify", "--config", config, "--out", str(out), "--samples", str(samples)])
        stdout = capsys.readouterr().out
        assert code == EXIT_OK
        text = (out / "verify.json").read_text(encoding="utf-8")
        assert stdout == text + "\n"  # one encoding, printed and written
        report = json.loads(text)
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
    @pytest.mark.parametrize("ini, command, trajectories, run", [
        # the reference run, on levels[-1] x reference_refine = 64 intervals, explodes
        (EXPLODING_INI, "converge", 4, "reference run, level 64"),
        # at study scale trajectory 2 retires from its chunk while the other
        # rows march on: with one worker in 64-row chunks, with two in 25-row
        # batches, and the text is the same
        (SQUARE_STUDY, "converge", 200, "level 64"),
        (SQUARE_STUDY, "compare", 200, "reference run, level 64"),
    ], ids=["converge", "square-converge-200", "square-compare-200"])
    def test_exploding_trajectory_is_nonconvergence(self, tmp_path, capsys, ini, command,
                                                    trajectories, run, workers):
        config = write_file(tmp_path / "square.ini", ini)
        out = tmp_path / "out"
        assert main([command, "--config", config, "--out", str(out), "--workers", str(workers),
                     "--trajectories", str(trajectories)]) == EXIT_NONCONVERGENCE
        assert capsys.readouterr().err == (
            "numerical non-convergence: trajectory 2 exploded: the driven increment "
            f"at step 56 (t = 0.84375) is not finite ({run})\n")
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
    ("simulate", ["--scheme", "yosida", "--yosida-n", "nan"], "experiment.yosida_levels"),
    ("simulate", ["--scheme", "yosida", "--yosida-n", "inf"], "experiment.yosida_levels"),
    ("simulate", ["--level", "-4"], "experiment.levels"),
    ("simulate", ["--level", "0"], "experiment.levels"),
    ("verify", ["--samples", "0"], "--samples"),
    ("simulate", ["--trajectory", "-1"], "--trajectory"),
    ("simulate", ["--trajectory", str(2**64)], "--trajectory"),
    ("converge", ["--trajectories", "0"], "experiment.trajectories"),
    ("compare", ["--workers", "0"], "experiment.workers"),
], ids=["yosida-n-0.5", "yosida-n-nan", "yosida-n-inf", "level-minus-4", "level-0",
        "samples-0", "trajectory-minus-1", "trajectory-2**64", "trajectories-0", "workers-0"])
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


# the front end: one parser per process, one validation per command, one
# harness context per study

COMMAND_FLAGS = {"converge": [], "compare": [], "verify": ["--samples", "20"],
                 "simulate": [], "skorokhod": None}


def front_end_counts(monkeypatch, tmp_path, command) -> Counter:
    """What one ``main`` call of ``command`` on BOX_STUDY_INI (one worker) builds:
    operators, harness contexts, and validations that ran their checks (a
    validation builds an operator; a config that passed returns at once)."""
    counts = Counter()
    for kind, (ctor, keys) in _OPERATORS.items():
        def counted(*args, _ctor=ctor, **kwargs):
            counts["operator"] += 1
            return _ctor(*args, **kwargs)
        monkeypatch.setitem(_OPERATORS, kind, (counted, keys))
    validate = ExperimentConfig.validate

    def validated(self):
        before = counts["operator"]
        out = validate(self)
        counts["validate"] += counts["operator"] > before
        return out
    monkeypatch.setattr(ExperimentConfig, "validate", validated)

    class Context(harness._Context):
        def __init__(self, cfg):
            counts["context"] += 1
            super().__init__(cfg)
    monkeypatch.setattr(harness, "_Context", Context)

    config_file = write_file(tmp_path / "box.ini", BOX_STUDY_INI)
    flags = COMMAND_FLAGS[command]
    if flags is None:  # skorokhod: a two-step path inside the box
        flags = ["--path", write_path(tmp_path / "y.csv", [0.0, 0.5, 1.0],
                                      [[0.5, 0.5], [1.5, 0.5], [0.2, 0.2]])[0]]
    out = tmp_path / "out"
    assert main([command, "--config", config_file, "--out", str(out), *flags]) == EXIT_OK
    monkeypatch.undo()
    return counts


@pytest.mark.parametrize("command, contexts", [
    ("converge", 1), ("compare", 1), ("simulate", 1), ("verify", 0), ("skorokhod", 0),
])
def test_command_validates_once_and_builds_one_context(monkeypatch, tmp_path, command,
                                                       contexts):
    counts = front_end_counts(monkeypatch, tmp_path, command)
    # one operator in the validation, one in the context or the command itself
    assert counts == Counter(validate=1, context=contexts, operator=2)


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    assert run_command("verify", tmp_path, capsys, "--samples", "1")[0] == EXIT_OK
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run_command("converge", tmp_path, capsys)[0] == EXIT_OK
    assert built == []


def test_cached_parser_keeps_no_flag_from_an_earlier_call(tmp_path, capsys):
    # BOX_STUDY_INI sets trajectories = 2
    for extra, n_traj in ((["--trajectories", "3"], "3"), ([], "2")):
        code, out, _ = run_command("converge", tmp_path, capsys, *extra)
        assert code == EXIT_OK
        rows = (out / "errors.csv").read_text(encoding="utf-8").splitlines()[2:]
        assert {row.rsplit(",", 1)[1] for row in rows} == {n_traj}


def test_module_entry_point_prints_help():
    # main() builds its parser once per process, and the tests above share it;
    # this runs the real entry point in a fresh interpreter
    done = run_python("-m", "mmsde.cli", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: mmsde ")


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_every_command_has_help(command, capsys):
    with pytest.raises(SystemExit) as err:
        main([command, "--help"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: mmsde {command} ")
