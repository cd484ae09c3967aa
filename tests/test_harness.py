import math

import numpy as np
import pytest

from mmsde.config import build_driver, parse_config_text
from mmsde.drivers import simulate
from mmsde.errors import ExplosionError
from mmsde.harness import _ALL_CHECKS, _explosion_level, run_convergence, verify_suite
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


ZOO_OPERATORS = {
    "halfspace-1d": "kind = halfline",
    "halfspace-2d": "kind = halfspace\nnormal = 1 0.5\noffset = 0.2",
    "box": "kind = box\nlo = 0 0\nhi = 1 1",
    "ball": "kind = ball\ncenter = 0 0\nradius = 1",
    "polyhedron": "kind = polyhedron\nconstraints = 1 -1 : 0; -1 -1 : 0",
    "linear": "kind = linear\nmatrix = 2 0.5;-0.5 1",
}
ZOO_PROJECTIONS = {
    "classical": "kind = classical",
    "elastic": "kind = elastic\nc = 0.5",
    "elastic_iterated": "kind = elastic_iterated\nc = 0.9",
}


def verify_config(operator, projection="elastic_iterated", seed=5):
    return parse_config_text(f"[operator]\n{ZOO_OPERATORS[operator]}\n\n"
                             f"[projection]\n{ZOO_PROJECTIONS[projection]}\n\n"
                             f"[experiment]\nseed = {seed}\n")


@pytest.mark.parametrize("projection", ZOO_PROJECTIONS)
@pytest.mark.parametrize("operator", ZOO_OPERATORS)
def test_verify_passes_every_check_on_every_zoo_kind(operator, projection):
    report = verify_suite(verify_config(operator, projection), samples=40)
    assert list(report) == list(_ALL_CHECKS)
    assert [name for name, res in report.items() if not res.passed] == []
    assert all(math.isfinite(res.worst) for res in report.values())


@pytest.mark.parametrize("operator", ["halfspace-2d", "box", "polyhedron"])
def test_verify_fails_an_expanding_projection(operator):
    seen = []

    def doubling(op, z):
        seen.append(np.shape(z))
        return 2.0 * z

    report = verify_suite(verify_config(operator), samples=40,
                          checks=["projection_identity", "projection_lipschitz"],
                          projection_override=doubling)
    assert not report["projection_identity"].passed
    assert not report["projection_lipschitz"].passed
    # one batched call per sample set: the domain points, then both Lipschitz sets
    assert seen == [(20, 2), (40, 2), (40, 2)]
