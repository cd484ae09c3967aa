"""Checks at study scale: hundreds of trajectories through ``cli.main``, and
hundreds or thousands against the law of reflected Brownian motion and the
constant of the Euler scheme's error.

``test_table_does_not_depend_on_the_workers`` replaces three shell steps of
the CI workflow, which ran the command line twice and compared the tables
with ``cmp``: "Chunk layout at scale" (its ``box_dyadic`` rows), "Non-dyadic
chunks at scale" (``hl_nondyadic``) and "Both bridge descents at scale"
(``hl_nondyadic`` on horizon 3).  The other at-scale steps are rows of the
tests in ``test_cli.py`` that run the same command:

- the ``simulate`` runs of "Chunk layout at scale":
  ``TestSimulateCommand::test_writes_the_scheme_trajectory[box_dyadic-*]``;
- "Retirement at scale":
  ``TestStudyCommands::test_exploding_trajectory_is_nonconvergence[square-*]``;
- "Verify at scale" and "Verify every config":
  ``TestStudyCommands::test_verify_reports_every_check_passed``.

A numpy RuntimeWarning is an error in every test (``filterwarnings`` in
``pyproject.toml``), and a worker forked by the process pool inherits the
filter, so a warning that a march fails to silence fails the study.

A new check at study scale is one more parametrize row here or there.
"""

import math

import numpy as np
import pytest

from conftest import bench_config
from mmsde.cli import EXIT_OK, main
from mmsde.config import parse_config_text
from mmsde.drivers import _simulate
from mmsde.harness import _chunks, _Context, run_convergence
from mmsde.schemes import _euler


@pytest.mark.parametrize("ini, command, trajectories, reference", [
    # with one worker the studies march three full 64-row chunks and a ragged
    # one, with two workers 25-row batches
    (bench_config("box_dyadic"), "converge", 200, "SELF-REFERENCE"),
    (bench_config("box_dyadic"), "compare", 200, "EULER-REFERENCE"),
    # levels 10/100 and their 400-interval reference grid are not dyadic, so
    # most times are leaf times, whose draws depend on their row's other times
    # and on nothing else: not on the 64-row chunks or the 16-row batches
    (bench_config("hl_nondyadic"), "converge", 128, "ORACLE"),
    # horizon 3 reads the unit bridge tree at t / 3 and scales it by sqrt(3);
    # horizon 2 would add nothing, as t / 2 is exact and the unit study above
    # scales bit for bit (test_drivers' test_a_horizon_scales_the_unit_tree)
    (bench_config("hl_nondyadic") + "horizon = 3\n", "converge", 64, "ORACLE"),
], ids=["box_dyadic-converge-200", "box_dyadic-compare-200", "hl_nondyadic-converge-128",
        "hl_nondyadic-horizon-3-converge-64"])
def test_table_does_not_depend_on_the_workers(tmp_path, ini, command, trajectories, reference):
    config = tmp_path / "study.ini"
    config.write_text(ini, encoding="utf-8")
    tables = []
    for workers in (1, 2):
        out = tmp_path / f"workers-{workers}"
        assert main([command, "--config", str(config), "--out", str(out),
                     "--trajectories", str(trajectories), "--workers", str(workers)]) == EXIT_OK
        tables.append((out / "errors.csv").read_bytes())
    assert tables[0].startswith(f"# reference={reference}".encode())
    assert tables[1] == tables[0]


# By Levy's theorem reflected Brownian motion from 0 has the law of |B_t|, so
# E X_1 = sqrt(2 / pi).  Euler with a constant coefficient on the half-line is
# the discrete reflection, whose mean at level n is sqrt(2 / pi) - beta / sqrt(n)
# to first order, with beta = -zeta(1/2) / sqrt(2 pi) (Asmussen, Glynn and
# Pitman, Ann. Appl. Probab. 5, 1995).
LAW_STUDY = """
[operator]
kind = halfline

[projection]
kind = classical

[coefficient]
kind = constant
matrix = 1

[driver]
sigma = 1
jump_rate = 0
h0 = 0

[experiment]
levels = 16 64 256
trajectories = 4000
seed = 11
"""
ZETA_HALF = -1.4603545088095868


def test_euler_mean_follows_the_reflected_brownian_law():
    ctx = _Context(parse_config_text(LAW_STUDY))
    cfg = ctx.cfg
    x1 = []
    for chunk in _chunks(range(cfg.trajectories)):
        # W is a pure function of t: every level reads its points off the
        # simulation on the finest grid
        fine = _simulate(ctx.driver, ctx.partitions[-1], cfg.seed, chunk)
        march, _ = fine.restrict(ctx.partitions)
        x, *_, errors = _euler(ctx.op, ctx.proj, ctx.coeff, march, cfg.flow_substeps)
        assert not errors
        x1.append(x[march.starts[1:] - 1, 0].reshape(len(cfg.levels), -1))
    x1 = np.concatenate(x1, axis=1)
    beta = -ZETA_HALF / math.sqrt(2.0 * math.pi)
    for level, x in zip(cfg.levels, x1):
        # the levels share their paths, so their deviations are correlated:
        # each is gated on its own, at 4 standard errors
        want = math.sqrt(2.0 / math.pi) - beta / math.sqrt(level)
        std_err = float(np.std(x, ddof=1)) / math.sqrt(x.size)
        assert abs(float(np.mean(x)) - want) <= 4.0 * std_err, (level, np.mean(x), want)


# Against the half-line oracle on the reference grid, N = 256 x 16 = 4096
# intervals, the Euler error at t = 1 on level n is the gap between the
# discrete reflections of one path on two nested grids, whose mean is
# beta (1 / sqrt(n) - 1 / sqrt(N)) to first order, by the expansion above.
RATE_STUDY = """
[operator]
kind = halfline

[projection]
kind = classical

[coefficient]
kind = constant
matrix = 1

[driver]
sigma = 1
jump_rate = 0
h0 = 0

[experiment]
levels = 16 64 256
reference_refine = 16
checkpoints = 1
trajectories = 400
seed = 5
"""


def test_euler_error_follows_the_rate_constant():
    table = run_convergence(parse_config_text(RATE_STUDY))
    assert table.reference.startswith("ORACLE")
    beta = -ZETA_HALF / math.sqrt(2.0 * math.pi)
    # only the finest level is gated: the constant is a first-order term, and
    # at levels 16 and 64 the mean error sits below it, by 1.3 to 4.6 and 1.0
    # to 3.4 standard errors over seeds 1 to 8
    (row,) = [r for r in table.rows if r.level == 256]
    want = beta * (1.0 / math.sqrt(256) - 1.0 / math.sqrt(4096))
    std_err = row.std_err / math.sqrt(row.n_traj)  # the table's std_err is a sample std
    assert abs(row.mean_err - want) <= 4.0 * std_err, (row.mean_err, want, std_err)


# With jumps in Z (rate 2, standard Gaussian sizes) and H_0 = 0.5 the reference
# is still the half-line reflection of the driving input on the reference grid,
# 16 times finer than the finest level.  The Euler strong error falls like
# n^(-1/2) up to logs (Slominski, SPA 1994; Pettersson, Stochastics 1995).  Over
# levels 16, 64 and 256 at 400 trajectories and seeds 1 to 10, the fitted slope
# of the mean error at t = 1 read 0.51 to 0.58, gated at 0.35, and that of the
# sup error over the grid 0.40 to 0.43, gated at 0.3.  The seed is the rate
# study's.  The mean error at t = 1 cannot see a skipped projection: on the
# half-line the next step's flow projects the state, so the miss lasts one
# step; the sup error sees it.
SLOPE_STUDY = RATE_STUDY.replace("jump_rate = 0\nh0 = 0", "jump_rate = 2\njump_law = gaussian\n"
                                 "jump_cov = 1\nh0 = 0.5")


def test_euler_error_slope_with_jumps():
    table = run_convergence(parse_config_text(SLOPE_STUDY))
    assert table.reference.startswith("ORACLE")
    assert [(r.level, r.n_traj) for r in table.rows] == [(16, 400), (64, 400), (256, 400)]
    log_levels = np.log([r.level for r in table.rows])
    for errors, floor in (([r.mean_err for r in table.rows], 0.35),
                          ([r.sup_err for r in table.rows], 0.3)):
        slope = -np.polyfit(log_levels, np.log(errors), 1)[0]
        assert slope >= floor, (slope, errors)
