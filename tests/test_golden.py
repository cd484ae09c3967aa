"""Byte-for-byte behaviour contract of the command outputs.

Each case runs one CLI command on an inline configuration and compares the
file it writes with ``tests/golden/<case>``.  A refactor must keep these
bytes; a deliberate change of the numbers (a new random-stream version, say)
regenerates the files and says why.

The files were made with numpy 2.4.6 on x86_64 Linux (glibc 2.36).  Driver
Gaussians come from Box–Muller, which goes through the C math library's
``log1p``/``cos``/``sin``; another libm may change the last bits.
"""

from pathlib import Path

import numpy as np
import pytest

from mmsde import Partition, StepPath
from mmsde.cli import EXIT_OK, main
from mmsde.paths import write_step_path_csv

GOLDEN = Path(__file__).parent / "golden"

# half-line, classical projection, constant coefficient: the closed-form
# reflection oracle is the reference; 1/5 is not dyadic
HALFLINE_INI = """\
[operator]
kind = halfline

[projection]
kind = classical

[coefficient]
kind = constant
matrix = 1

[driver]
sigma = 1
jump_rate = 2
jump_law = gaussian
jump_cov = 1
h0 = 0.5

[experiment]
levels = 5 20
reference_refine = 4
checkpoints = 0.5 1.0j
trajectories = 4
seed = 11
"""

# 2-D unit box, iterated elastic projection, state-dependent coefficient
BOX_INI = """\
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
levels = 8 32
yosida_levels = 4 16
checkpoints = 0.5 1.0j
trajectories = 3
seed = 5
"""

# half-line, iterated elastic projection, the coefficient diag(x * x), which
# has no growth bound; no trajectory of this seed explodes
HALFLINE_SQUARE_INI = """\
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
levels = 4 16
checkpoints = 0.5 1.0j
trajectories = 6
seed = 3
"""

LINEAR_INI = """\
[operator]
kind = linear
matrix = 2 0.5;-0.5 1

[projection]
kind = classical

[experiment]
flow_substeps = 8
"""

# the benchmark's lin_path operator: verify draws a fresh resolvent step per
# point (implicit_drift_identity), so its per-row linear path is in the bytes
VERIFY_LINEAR_INI = """\
[operator]
kind = linear
matrix = 2 0.5;-0.5 1

[projection]
kind = classical

[experiment]
flow_substeps = 16
seed = 19
"""

# the triangle x >= 0, y >= 0, x + y <= 1: its domain projection is Dykstra's
# iteration, whose polish groups a batch's rows by active faces
VERIFY_POLYHEDRON_INI = """\
[operator]
kind = polyhedron
constraints = -1 0 : 0 ; 0 -1 : 0 ; 1 1 : 1

[projection]
kind = elastic_iterated
c = 0.5
"""

BOX_ELASTIC_INI = """\
[operator]
kind = box
lo = 0 0
hi = 1 1

[projection]
kind = elastic_iterated
c = 0.5
"""


def step_path_file(tmp_path) -> str:
    """A seeded 400-point 2-D step path from (0.5, 0.5) with sparse big jumps."""
    rng = np.random.default_rng(400)
    n = 400
    steps = rng.normal(0.0, 0.1, size=(n - 1, 2))
    big = rng.random(n - 1) < 0.03
    steps[big] += rng.normal(0.0, 1.5, size=(int(big.sum()), 2))
    values = np.vstack([[0.5, 0.5], 0.5 + np.cumsum(steps, axis=0)])
    y = StepPath(Partition(np.linspace(0.0, 2.0, n)), values)
    file = tmp_path / "y.csv"
    with open(file, "w", encoding="utf-8") as fh:
        write_step_path_csv(y, fh)
    return str(file)


# case -> (config text, command, extra arguments, output file name)
CASES = {
    "converge_halfline.csv": (HALFLINE_INI, "converge", [], "errors.csv"),
    "converge_box.csv": (BOX_INI, "converge", [], "errors.csv"),
    "converge_halfline_square.csv": (HALFLINE_SQUARE_INI, "converge", [], "errors.csv"),
    "compare_box.csv": (BOX_INI, "compare", [], "errors.csv"),
    "verify_box.json": (BOX_INI, "verify", ["--samples", "200"], "verify.json"),
    "verify_linear.json": (VERIFY_LINEAR_INI, "verify", ["--samples", "200"], "verify.json"),
    "verify_polyhedron.json": (VERIFY_POLYHEDRON_INI, "verify", ["--samples", "200"],
                               "verify.json"),
    "skorokhod_linear.csv": (LINEAR_INI, "skorokhod", [], "solution.csv"),
    "skorokhod_box_elastic.csv": (BOX_ELASTIC_INI, "skorokhod", [], "solution.csv"),
    **{f"simulate_box_{scheme}.csv": (BOX_INI, "simulate",
                                      ["--scheme", scheme, "--trajectory", "1"],
                                      f"trajectory_{scheme}.csv")
       for scheme in ("euler", "yosida", "modified_yosida")},
}


def produce(case: str, tmp_path) -> bytes:
    """Run one case's command in ``tmp_path`` and return the bytes it wrote."""
    text, command, extra, name = CASES[case]
    config = tmp_path / "config.ini"
    config.write_text(text, encoding="utf-8")
    if command == "skorokhod":
        extra = ["--path", step_path_file(tmp_path)]
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--out", str(out), *extra]
    assert main(argv) == EXIT_OK
    return (out / name).read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden_bytes(case, tmp_path, capsys):
    got = produce(case, tmp_path)
    capsys.readouterr()
    assert got == (GOLDEN / case).read_bytes()
