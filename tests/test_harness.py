import math

import numpy as np
import pytest

import mmsde.harness as harness
from mmsde import resolve
from mmsde.config import build_driver, parse_config_text
from mmsde.drivers import simulate
from mmsde.errors import ExplosionError
from mmsde.harness import (
    _ALL_CHECKS,
    _Context,
    _explosion_level,
    compare_schemes,
    run_convergence,
    verify_suite,
)
from mmsde.operators import row_norm
from mmsde.paths import refine, uniform_partition
from mmsde.schemes import (
    euler_chunk,
    euler_scheme,
    modified_yosida_chunk,
    modified_yosida_scheme,
    yosida_chunk,
    yosida_scheme,
)

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


# chunk invariance: the harness marches the trajectories of a chunk together,
# and nothing it reports may depend on how they are chunked

STUDY_TAIL = """
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
trajectories = 5
seed = 3
"""
STUDIES = {
    "box": "[operator]\nkind = box\nlo = 0 0\nhi = 1 1\n\n"
           "[projection]\nkind = elastic_iterated\nc = 0.5\n" + STUDY_TAIL,
    "linear": "[operator]\nkind = linear\nmatrix = 2 0.5;-0.5 1\n\n"
              "[projection]\nkind = classical\n"
              + STUDY_TAIL.replace("[experiment]\n", "[experiment]\nflow_substeps = 3\n"),
}


def study_config(name):
    return parse_config_text(STUDIES[name])


@pytest.mark.parametrize("study", [run_convergence, compare_schemes],
                         ids=["converge", "compare"])
@pytest.mark.parametrize("name", sorted(STUDIES))
def test_tables_do_not_depend_on_chunks_or_workers(monkeypatch, name, study):
    cfg = study_config(name)
    default = study(cfg.with_overrides(workers=1)).to_csv()
    assert default == study(cfg.with_overrides(workers=2)).to_csv()
    for cap in (1, 3):
        monkeypatch.setattr(harness, "_CHUNK_TRAJECTORIES", cap)
        assert study(cfg.with_overrides(workers=1)).to_csv() == default, cap


def chunk_runs(name):
    ctx = _Context(study_config(name))
    reals = [simulate(ctx.driver, refine(ctx.partitions[-1], 2), 3, i) for i in range(5)]
    # ragged grids: each realization has its own inserted jump times
    assert len({r.grid.times.size for r in reals}) > 1
    n, m = 4, 2
    return ctx, reals, {
        "euler": (lambda rs: euler_chunk(ctx.op, ctx.proj, ctx.coeff, rs, 3),
                  lambda r: euler_scheme(ctx.op, ctx.proj, ctx.coeff, r, 3)),
        "yosida": (lambda rs: yosida_chunk(ctx.op, n, ctx.coeff, rs, m),
                   lambda r: yosida_scheme(ctx.op, n, ctx.coeff, r, m)),
        "modified_yosida": (
            lambda rs: modified_yosida_chunk(ctx.op, ctx.proj, n, ctx.coeff, rs, m),
            lambda r: modified_yosida_scheme(ctx.op, ctx.proj, n, ctx.coeff, r, m)),
    }


def assert_same_path(name, got, want):
    if name == "linear":
        scale = np.maximum(row_norm(want), 1.0)
        assert np.all(np.abs(got - want) <= 1e-15 * scale[:, None])
    else:
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("scheme", ["euler", "yosida", "modified_yosida"])
@pytest.mark.parametrize("name", sorted(STUDIES))
def test_chunk_rows_equal_single_realization_runs(name, scheme):
    ctx, reals, runs = chunk_runs(name)
    chunk, single = runs[scheme]
    outs = chunk(reals)
    assert len(outs) == len(reals)
    for r, out in zip(reals, outs):
        one = single(r)
        assert out.realization is r and out.scheme == one.scheme
        assert out.params == one.params
        for got, want in [(out.x.values, one.x.values), (out.y.values, one.y.values),
                          (out.k.continuous.values, one.k.continuous.values),
                          (out.k.jump.values, one.k.jump.values),
                          (out.k.total.values, one.k.total.values)]:
            assert_same_path(name, got, want)
        if scheme == "euler":
            assert_same_path(name, out.x_pre, one.x_pre)
        else:
            assert out.x_pre is None and one.x_pre is None
    # any order and any sub-chunk gives the same rows
    for i, out in zip([3, 0], chunk([reals[3], reals[0]])):
        np.testing.assert_array_equal(out.x.values, outs[i].x.values)


ZOO_STEP_OPERATORS = dict(ZOO_OPERATORS, prox="")


@pytest.mark.parametrize("size", [0, 1, 17])
@pytest.mark.parametrize("operator", sorted(ZOO_STEP_OPERATORS))
def test_per_row_step_resolvent_equals_scalar_calls(zoo, rng, operator, size):
    if operator == "prox":
        op = zoo["prox_abs"]
    else:
        op = _Context(verify_config(operator)).op
    z = rng.normal(0.0, 2.0, size=(size, op.dimension))
    lam = rng.choice([0.05, 0.3, 2.0], size=size)  # repeated steps share an inverse
    got = resolve(op, lam, z)
    assert got.shape == z.shape
    want = np.array([resolve(op, step, row) for step, row in zip(lam, z)]).reshape(z.shape)
    assert_same_path(operator, got, want)


def test_per_row_step_is_checked(zoo):
    z = np.zeros((2, 2))
    with pytest.raises(ValueError, match="one step per row"):
        resolve(zoo["linear2"], np.array([0.1, 0.2, 0.3]), z)
    for bad in (0.0, np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="resolvent step"):
            resolve(zoo["linear2"], np.array([0.1, bad]), z)


SQUARE_STUDY = """
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
levels = 4 64
yosida_levels = 2 4
trajectories = 12
seed = 33
"""


def test_exploding_rows_retire_with_their_single_run_error():
    ctx = _Context(parse_config_text(SQUARE_STUDY))
    reals = [simulate(ctx.driver, uniform_partition(1.0, 64), 33, i) for i in range(12)]
    outs = euler_chunk(ctx.op, ctx.proj, ctx.coeff, reals, 16)
    exploded = [i for i, out in enumerate(outs) if isinstance(out, ExplosionError)]
    assert 0 < len(exploded) < len(reals)
    for r, out in zip(reals, outs):
        try:
            want = euler_scheme(ctx.op, ctx.proj, ctx.coeff, r, 16)
        except ExplosionError as exc:
            assert isinstance(out, ExplosionError)
            assert str(out) == str(exc)
            assert (out.trajectory, out.step, out.time) == (exc.trajectory, exc.step, exc.time)
            np.testing.assert_array_equal(out.last, exc.last)
        else:
            np.testing.assert_array_equal(out.x.values, want.x.values)


@pytest.mark.parametrize("study", [run_convergence, compare_schemes],
                         ids=["converge", "compare"])
def test_explosion_raised_is_the_first_of_the_trajectory_loop(monkeypatch, study):
    cfg = parse_config_text(SQUARE_STUDY)
    messages = []
    for cap in (1, 3, 64):
        monkeypatch.setattr(harness, "_CHUNK_TRAJECTORIES", cap)
        with pytest.raises(ExplosionError) as err:
            study(cfg)
        messages.append((str(err.value), err.value.level, err.value.reference))
    # a chunk of one runs the trajectories in the order of the sequential loop
    assert messages[1:] == messages[:1] * 2
