import math

import numpy as np
import pytest

import mmsde.harness as harness
import mmsde.schemes as schemes
from conftest import SQUARE_STUDY, assert_row_is_the_run, chunk_rows
from mmsde import resolve
from mmsde.config import build_driver, parse_config_text
from mmsde.drivers import DriverRealization, _chunk_of, from_step_paths, simulate
from mmsde.errors import ExplosionError
from mmsde.harness import (
    _ALL_CHECKS,
    _Context,
    compare_schemes,
    run_convergence,
    verify_suite,
)
from mmsde.paths import BVDecomposition, Partition, StepPath, refine, uniform_partition
from mmsde.schemes import (
    SchemeOutput,
    _euler,
    _yosida,
    euler_scheme,
    modified_yosida_scheme,
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


@pytest.mark.parametrize("seed", [24, 36, 38])
def test_verify_passes_a_triangle_near_its_vertices(seed):
    # Dykstra alone stops about 1e-11 short of a vertex, and A_n at n = 100
    # scaled that past the Yosida tolerances on these seeds
    cfg = parse_config_text("[operator]\nkind = polyhedron\n"
                            "constraints = 1 -1 : 0; -1 -1 : 0; 0 1 : 2\n\n"
                            f"[projection]\nkind = classical\n\n[experiment]\nseed = {seed}\n")
    report = verify_suite(cfg, samples=40)
    assert [name for name, res in report.items() if not res.passed] == []


@pytest.mark.parametrize("operator", ["halfspace-2d", "box", "polyhedron"])
def test_verify_fails_an_expanding_projection(monkeypatch, operator):
    seen = []

    def doubling(op, z):
        seen.append(np.shape(z))
        return 2.0 * z

    doubling.kind = "doubling"
    cfg = verify_config(operator)
    monkeypatch.setattr(harness, "build_projection", lambda spec: doubling)
    report = verify_suite(cfg, samples=40,
                          checks=["projection_identity", "projection_lipschitz"])
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


def constructions(monkeypatch, run) -> dict:
    """How many path, partition and output objects of each type ``run()`` builds."""
    counts = {}
    for cls in (Partition, StepPath, BVDecomposition, DriverRealization, SchemeOutput):
        def init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", init)
    run()
    monkeypatch.undo()
    return counts


@pytest.mark.parametrize("study", [run_convergence, compare_schemes],
                         ids=["converge", "compare"])
def test_objects_built_do_not_grow_with_the_trajectories(monkeypatch, study):
    # a chunk travels flat from the bridge to the error table: no object is
    # built per trajectory
    cfg = study_config("box")
    counts = [constructions(monkeypatch, lambda: study(cfg.with_overrides(trajectories=n)))
              for n in (2, 16)]
    assert counts[0] == counts[1]


def chunk_runs(name):
    ctx = _Context(study_config(name))
    reals = [simulate(ctx.driver, refine(ctx.partitions[-1], 2), 3, i) for i in range(5)]
    # ragged grids: each realization has its own inserted jump times
    assert len({r.grid.times.size for r in reals}) > 1
    n, m = 4, 2
    return ctx, reals, {
        "euler": (lambda c: _euler(ctx.op, ctx.proj, ctx.coeff, c, 3),
                  lambda r: euler_scheme(ctx.op, ctx.proj, ctx.coeff, r, 3)),
        "yosida": (lambda c: _yosida(ctx.op, None, [n] * len(c.trajectory), ctx.coeff, c,
                                     ["yosida"] * len(c.trajectory), m),
                   lambda r: yosida_scheme(ctx.op, n, ctx.coeff, r, m)),
        "modified_yosida": (
            lambda c: _yosida(ctx.op, ctx.proj, [n] * len(c.trajectory), ctx.coeff, c,
                              ["modified_yosida"] * len(c.trajectory), m),
            lambda r: modified_yosida_scheme(ctx.op, ctx.proj, n, ctx.coeff, r, m)),
        # one level and Yosida scheme per row, as compare marches them
        "mixed_yosida": (
            lambda c: _yosida(ctx.op, ctx.proj, [mixed_row(i)[0] for i in c.trajectory],
                              ctx.coeff, c, [mixed_row(i)[1] for i in c.trajectory], m),
            lambda r: mixed_single(ctx, r, m)),
    }


def mixed_row(i):
    """The Yosida level and scheme of trajectory i in a mixed chunk."""
    return (2.5, 4, 4, 16, 1)[i], ("yosida", "modified_yosida")[i % 2]


def mixed_single(ctx, r, m):
    n, scheme = mixed_row(r.trajectory_index)
    if scheme == "yosida":
        return yosida_scheme(ctx.op, n, ctx.coeff, r, m)
    return modified_yosida_scheme(ctx.op, ctx.proj, n, ctx.coeff, r, m)


def assert_same_path(name, got, want):
    """Bit for bit, signed zeros included, for every operator: a per-row
    linear step is the single-point product with the same matrix layout."""
    np.testing.assert_array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("scheme", ["euler", "yosida", "modified_yosida", "mixed_yosida"])
@pytest.mark.parametrize("name", sorted(STUDIES))
def test_chunk_rows_equal_single_realization_runs(name, scheme):
    # bit for bit for every operator, as ``assert_same_path``
    ctx, reals, runs = chunk_runs(name)
    body, single = runs[scheme]
    chunk = _chunk_of(reals)
    rows = chunk_rows(chunk, body(chunk))
    assert len(rows) == len(reals)
    for r, row in zip(reals, rows):
        one = assert_row_is_the_run(row, lambda: single(r))
        assert one.realization is r and (one.x_pre is None) == (one.scheme != "euler")
        if scheme == "mixed_yosida":
            n, kind = mixed_row(r.trajectory_index)
            assert one.scheme == kind
            assert type(one.params["n"]) is float and one.params["n"] == n
    # any order and any sub-chunk gives the same rows
    sub = _chunk_of([reals[3], reals[0]])
    for i, row in zip([3, 0], chunk_rows(sub, body(sub))):
        for got, want in zip(row, rows[i]):
            assert got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("cap", [1, 3, 64])
@pytest.mark.parametrize("study, text, marches", [
    (run_convergence, HALFLINE_NON_DYADIC, 1),
    (run_convergence, STUDIES["box"], 1),
    (compare_schemes, HALFLINE_NON_DYADIC, 2),
    (compare_schemes, STUDIES["box"], 2),
], ids=["converge-oracle", "converge-self", "compare-halfline", "compare-box"])
def test_each_chunk_is_marched_once_per_scheme_body(monkeypatch, study, text, marches, cap):
    # converge marches the reference and every level together; compare marches
    # the Euler reference, then every Yosida level of both schemes
    calls = []

    def counted(op, coeff, chunk, scheme_step):
        calls.append(len(chunk.starts) - 1)
        return march(op, coeff, chunk, scheme_step)

    march = schemes._run_chunk
    monkeypatch.setattr(schemes, "_run_chunk", counted)
    monkeypatch.setattr(harness, "_CHUNK_TRAJECTORIES", cap)
    cfg = parse_config_text(text)
    study(cfg)
    assert len(calls) == marches * -(-cfg.trajectories // cap)


@pytest.mark.parametrize("reference, suffix", [(False, "(level 15)"),
                                               (True, "(reference run, level 15)")])
def test_explosion_names_the_level_of_its_base_partition(reference, suffix):
    # the level counts the intervals of the base partition, not the inserted
    # jump times; a chunk's run 0 is its reference run
    ctx = _Context(parse_config_text(SQUARE_STUDY.replace("h0 = 0.5", "h0 = 4")))
    base = refine(uniform_partition(1.0, 5), 3)
    realization = simulate(ctx.driver, base, 0, 3)
    assert realization.grid.times.size > base.times.size
    run = 0 if reference else 1
    *_, by_row = schemes._euler(ctx.op, ctx.proj, ctx.coeff, _chunk_of([realization]),
                                ctx.cfg.flow_substeps)
    errors = harness._explosions(by_row, 1, first_run=run)
    err = errors.pop((0, run))
    assert str(err).endswith(f"is not finite {suffix}")
    assert (err.trajectory, err.step, err.level) == (3, 17, 15)
    assert err.reference is reference


def test_exploding_rows_retire_with_their_single_run_error():
    ctx = _Context(parse_config_text(SQUARE_STUDY))
    reals = [simulate(ctx.driver, uniform_partition(1.0, 64), 33, i) for i in range(12)]
    chunk = _chunk_of(reals)
    rows = chunk_rows(chunk, _euler(ctx.op, ctx.proj, ctx.coeff, chunk, 16))
    exploded = [i for i, row in enumerate(rows) if isinstance(row, ExplosionError)]
    assert 0 < len(exploded) < len(reals)
    for r, row in zip(reals, rows):
        assert_row_is_the_run(row, lambda: euler_scheme(ctx.op, ctx.proj, ctx.coeff, r, 16))


def union_order_chunk(case, scheme):
    """A chunk whose rows' grids take the march off its common path, and the
    context to run it in."""
    if case == "retired-row-alone":
        ctx = _Context(parse_config_text(SQUARE_STUDY))
        # trajectory 2 explodes at a time that the live rows' grids, half as
        # fine, hold too (Euler: t = 27/32 on its 64-step grid; Yosida:
        # t = 15/16 on its 32-step grid), and its odd grid times after it are
        # its own
        fine = 64 if scheme == "euler" else 32
        return ctx, [simulate(ctx.driver, uniform_partition(1.0, n), 33, i)
                     for n, i in ((fine // 2, 0), (fine, 2), (fine // 2, 1), (fine // 2, 3))]
    if case == "retired-row-shorter":
        ctx = _Context(parse_config_text(SQUARE_STUDY))
        # trajectory 2 explodes on its 32-step grid (step 34, at a jump time
        # of its own, in both schemes) while the row on the 64-step grid,
        # longer, lives on, and so does trajectory 5's 32-step row, one point
        # shorter: a live row on either side of it by length
        return ctx, [simulate(ctx.driver, uniform_partition(1.0, n), 33, i)
                     for n, i in ((64, 0), (32, 5), (32, 2), (8, 3))]
    if case == "retired-row-at-its-own-time":
        ctx = _Context(parse_config_text(SQUARE_STUDY))
        # the second row's H jump to 1e100 makes f(x) = x^2 = 1e200, and its Z
        # jump of 1e150 at t = 3/4, a time only its grid holds, overflows the
        # driven increment there: the union time's every stepping row retires
        # while the first row lives on, and t = 7/8 follows on its own grid
        coarse = Partition(np.array([0.0, 0.5, 1.0]))
        fine = Partition(np.array([0.0, 0.25, 0.5, 0.75, 0.875, 1.0]))
        h = np.array([[0.5], [0.5], [1e100], [1e100], [1e100], [1e100]])
        z = np.array([[0.0], [0.0], [0.0], [1e150], [1e150], [1e150]])
        return ctx, [from_step_paths(StepPath(coarse, np.array([[0.5], [0.7], [0.2]])),
                                     StepPath(coarse, np.array([[0.0], [0.1], [-0.3]]))),
                     from_step_paths(StepPath(fine, h), StepPath(fine, z))]
    ctx = _Context(study_config("box"))
    still = build_driver(dict(ctx.cfg.driver, jump_rate=0.0), 2)  # no jump times
    if case == "single-interval":
        reals = [simulate(ctx.driver, uniform_partition(1.0, 8), 3, 0),
                 simulate(still, uniform_partition(1.0, 1), 3, 1),
                 simulate(ctx.driver, Partition(np.array([0.0, 0.3, 0.55, 1.0])), 3, 2),
                 simulate(ctx.driver, uniform_partition(1.0, 5), 3, 3)]
        assert reals[1].grid.times.tolist() == [0.0, 1.0]
        assert len({r.grid.times.size for r in reals}) == len(reals)
    else:  # two rows on one grid: every union time steps both
        reals = [simulate(still, uniform_partition(1.0, 8), 3, i) for i in (0, 1)]
        assert reals[0].grid.same_times(reals[1].grid)
    return ctx, reals


@pytest.mark.parametrize("scheme", ["euler", "mixed_yosida"])
@pytest.mark.parametrize("case", ["single-interval", "identical-grids", "retired-row-alone",
                                  "retired-row-at-its-own-time", "retired-row-shorter"])
def test_union_order_edge_cases_equal_single_runs(case, scheme):
    ctx, reals = union_order_chunk(case, scheme)
    chunk = _chunk_of(reals)
    start = ctx.coeff.evaluations
    if scheme == "euler":
        rows = chunk_rows(chunk, _euler(ctx.op, ctx.proj, ctx.coeff, chunk, 3))
        runs = [lambda r=r: euler_scheme(ctx.op, ctx.proj, ctx.coeff, r, 3) for r in reals]
    else:
        levels, kinds = [2.5, 4, 16, 1], ["yosida", "modified_yosida"] * 2
        rows = chunk_rows(chunk, _yosida(ctx.op, ctx.proj, levels[:len(reals)], ctx.coeff,
                                         chunk, kinds[:len(reals)], 2))
        runs = [lambda n=n, kind=kind, r=r: yosida_scheme(ctx.op, n, ctx.coeff, r, 2)
                if kind == "yosida"
                else modified_yosida_scheme(ctx.op, ctx.proj, n, ctx.coeff, r, 2)
                for n, kind, r in zip(levels, kinds, reals)]
    marched = ctx.coeff.evaluations - start
    retired = []
    for r, row, run in zip(reals, rows, runs):
        one = assert_row_is_the_run(row, run)
        if isinstance(one, ExplosionError):
            retired.append((r, one.time))
    # the chunk evaluates the coefficient where the single runs do, and no
    # retired row is stepped again
    assert ctx.coeff.evaluations - start == 2 * marched
    assert len(retired) == case.startswith("retired-row")
    for r, t in retired:
        if case == "retired-row-shorter":
            # a longer row and a shorter one take the step after its last
            j, n = int(np.searchsorted(r.grid.times, t)), r.grid.times.size
            sizes = [q.grid.times.size for q in reals if q is not r]
            assert max(sizes) > n and any(j + 1 < m < n for m in sizes)
            continue
        # it retires at a time that live rows step too, or at one that only
        # its own grid holds, and grid times that no other row holds follow
        others = np.concatenate([q.grid.times for q in reals if q is not r])
        assert (t in others) == (case == "retired-row-alone")
        later = r.grid.times[r.grid.times > t]
        assert np.setdiff1d(later, others).size


def test_a_given_path_row_explodes_under_its_own_name():
    # a realization from given paths has no trajectory index: the text names
    # it as such, the same in a chunk as on its own, where it is another row
    ctx, reals = union_order_chunk("retired-row-at-its-own-time", "euler")
    *_, errors = _euler(ctx.op, ctx.proj, ctx.coeff, _chunk_of(reals), 3)
    out = errors[1]
    with pytest.raises(ExplosionError) as err:
        euler_scheme(ctx.op, ctx.proj, ctx.coeff, reals[1], 3)
    want = ("the realization of given paths exploded: the driven increment at step 3 "
            "(t = 0.75) is not finite (level 5)")
    assert str(out) == str(err.value) == want
    assert out.trajectory is err.value.trajectory is None


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


def test_norm_is_numpy_norm_and_finite_where_only_the_squares_overflow():
    v = np.random.default_rng(0).normal(size=(50, 3))
    np.testing.assert_array_equal(harness._norm(v, axis=1), np.linalg.norm(v, axis=1))
    assert harness._norm(v[0]) == np.linalg.norm(v[0])
    big = np.array([[3e200, -4e200], [1.0, 2.0]])
    np.testing.assert_allclose(harness._norm(big, axis=1), [5e200, np.sqrt(5.0)], rtol=1e-15)
    assert harness._norm(big[0]) == pytest.approx(5e200, rel=1e-15)


def test_compare_errors_stay_finite_on_huge_finite_paths():
    # two modified-Yosida paths of this study reach about 6e162 without
    # exploding: their errors are finite, though their squares overflow
    table = compare_schemes(parse_config_text(SQUARE_STUDY.replace("levels = 4 64",
                                                                    "levels = 4 16")))
    assert all(math.isfinite(r.sup_err) for r in table.rows)
    assert max(r.sup_err for r in table.rows if r.scheme == "modified_yosida") > 1e154
