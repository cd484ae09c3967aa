import pytest

from mmsde.config import build_driver, parse_config_text
from mmsde.drivers import simulate
from mmsde.errors import ExplosionError
from mmsde.harness import _explosion_level, run_convergence
from mmsde.paths import refine, uniform_partition

HALFLINE_NON_DYADIC = """
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
levels = 5 15
reference_refine = 2
checkpoints = 0.5 1.0j
trajectories = 4
seed = 3
"""


def test_convergence_table_is_identical_across_worker_counts():
    cfg = parse_config_text(HALFLINE_NON_DYADIC)
    one = run_convergence(cfg.with_overrides(workers=1)).to_csv()
    two = run_convergence(cfg.with_overrides(workers=2)).to_csv()
    assert one.startswith("# reference=ORACLE")
    assert one == two


@pytest.mark.parametrize("reference, suffix", [(False, "(level 15)"),
                                               (True, "(reference run, level 15)")])
def test_explosion_names_the_level_of_its_base_partition(reference, suffix):
    # the level counts the intervals of the base partition, not the inserted jump times
    cfg = parse_config_text(HALFLINE_NON_DYADIC)
    base = refine(uniform_partition(1.0, 5), 3)
    realization = simulate(build_driver(cfg.driver, 1), base, cfg.seed, 1)
    assert realization.grid.times.size > base.times.size
    with pytest.raises(ExplosionError) as err:
        with _explosion_level(realization, reference):
            raise ExplosionError("blew up", trajectory=1, step=4, time=0.25)
    assert str(err.value) == f"blew up {suffix}"
    assert (err.value.trajectory, err.value.step, err.value.level) == (1, 4, 15)
    assert err.value.reference is reference
