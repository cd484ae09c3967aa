import dataclasses
import re

import numpy as np
import pytest

from mmsde import (
    NonConvergenceError,
    Projection,
    indicator_box,
    indicator_halfspace,
    indicator_polyhedron,
    project_classical,
    project_elastic,
    project_elastic_iterated,
)


def wedge_op():
    # D = {x : x2 >= |x1|}
    return indicator_polyhedron([([1.0, -1.0], 0.0), ([-1.0, -1.0], 0.0)])


class TestClassical:
    def test_halfline(self):
        op = indicator_halfspace([-1.0], 0.0)
        assert project_classical(op, [-2.0]) == pytest.approx([0.0])

    def test_identity_on_domain(self):
        op = indicator_box([0.0, 0.0], [1.0, 1.0])
        z = np.array([0.3, 0.7])
        np.testing.assert_array_equal(project_classical(op, z), z)

    def test_ball_radial(self, zoo):
        assert project_classical(zoo["ball2"], [0.0, 3.0]) == pytest.approx([0.0, 1.0])

    def test_variational_inequality(self, zoo, rng):
        # <z - x, x' - x> <= 0 for sampled domain points x'
        for name in ("halfline", "box2", "ball2"):
            op = zoo[name]
            for _ in range(50):
                z = rng.normal(0.0, 3.0, size=op.dimension)
                x = project_classical(op, z)
                probe = project_classical(op, rng.normal(0.0, 3.0, size=op.dimension))
                assert float((z - x) @ (probe - x)) <= 1e-10


class TestElastic:
    def test_halfline_rebound(self):
        op = indicator_halfspace([-1.0], 0.0)
        assert project_elastic(op, 0.5, [-2.0]) == pytest.approx([1.0])

    def test_identity_on_domain(self, zoo, rng):
        for op in (zoo["halfline"], zoo["box2"], zoo["ball2"]):
            z = project_classical(op, rng.normal(0.0, 2.0, size=op.dimension))
            for c in (0.0, 0.3, 1.0):
                np.testing.assert_array_equal(project_elastic(op, c, z), z)

    def test_box_mirror(self):
        op = indicator_box([0.0, 0.0], [1.0, 1.0])
        assert project_elastic(op, 1.0, [1.5, 0.5]) == pytest.approx([0.5, 0.5])

    def test_c_zero_collapses_bitwise(self, zoo, rng):
        for op in zoo.values():
            for _ in range(25):
                z = rng.normal(0.0, 3.0, size=op.dimension)
                np.testing.assert_array_equal(
                    project_elastic(op, 0.0, z), project_classical(op, z))

    def test_rejects_bad_elasticity(self, zoo):
        with pytest.raises(ValueError):
            project_elastic(zoo["halfline"], 1.5, [1.0])
        with pytest.raises(ValueError):
            project_elastic(zoo["halfline"], -0.1, [1.0])


class TestElasticIterated:
    def test_one_step_cases(self, zoo):
        # half-line: a single elastic step lands inside
        op = zoo["halfline"]
        for c in (0.2, 0.5, 1.0):
            np.testing.assert_array_equal(
                project_elastic_iterated(op, c, [-2.0]),
                project_elastic(op, c, [-2.0]))
        # box corner mirror lands inside after one step
        box = zoo["box2"]
        assert project_elastic_iterated(box, 1.0, [2.0, 2.0]) == pytest.approx([0.0, 0.0])

    def test_wedge_limit_against_brute_force_oracle(self):
        op = wedge_op()
        z = np.array([3.0, 0.0])
        # oracle: iterate the elastic map to machine stabilization
        w = z.copy()
        for _ in range(10_000):
            nxt = project_elastic(op, 1.0, w)
            if np.linalg.norm(nxt - w) < 1e-14:
                break
            w = nxt
            if op.in_domain(w, 1e-12):
                break
        limit = project_elastic_iterated(op, 1.0, z)
        assert limit == pytest.approx(w, abs=1e-9)
        assert op.in_domain(limit, 1e-8)

    def test_wedge_limit_satisfies_projection_axioms(self, rng):
        op = wedge_op()
        proj = Projection(kind="elastic_iterated", c=1.0)
        pts = rng.normal(0.0, 2.0, size=(1000, 2))
        for i in range(0, 1000, 2):
            a, b = pts[i], pts[i + 1]
            pa, pb = proj(op, a), proj(op, b)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-10
        inside = np.array([0.0, 2.0])
        assert proj(op, inside) == pytest.approx(inside)

    def test_idempotent_on_output(self, zoo, rng):
        for name in ("halfline", "box2", "ball2"):
            op = zoo[name]
            for _ in range(20):
                z = rng.normal(0.0, 3.0, size=op.dimension)
                w = project_elastic_iterated(op, 0.7, z)
                again = project_elastic_iterated(op, 0.7, w)
                assert again == pytest.approx(w, abs=1e-9)

    def test_exhausting_budget_raises(self):
        # narrow cone x2 >= 3|x1|: the first mirror bounce stays outside
        op = indicator_polyhedron([([3.0, -1.0], 0.0), ([-3.0, -1.0], 0.0)])
        with pytest.raises(NonConvergenceError) as info:
            project_elastic_iterated(op, 1.0, [1.0, 0.0], max_iter=1)
        assert info.value.last is not None
        assert info.value.residual is not None


def elastic_loop(op, c, z, tol=1e-10, max_iter=100_000):
    """The iterated elastic projection as a plain loop from the first domain
    projection, with no return for points it fixes: the oracle of the shortcut."""
    w = np.array(z, dtype=float, ndmin=1)
    p = np.asarray(op.domain_projection(w), dtype=float)
    out, rows = np.empty_like(w), np.arange(len(w)) if w.ndim == 2 else None
    for _ in range(max_iter):
        nxt = p if c == 0.0 else p - c * (w - p)
        p = op.domain_projection(nxt)
        stop = (np.linalg.norm(nxt - p, axis=-1) <= tol) | (np.linalg.norm(nxt - w, axis=-1) < tol)
        if rows is None:
            if stop:
                return nxt
        else:
            out[rows[stop]] = nxt[stop]
            rows, nxt, p = rows[~stop], nxt[~stop], p[~stop]
            if not rows.size:
                return out
        w = nxt
    raise AssertionError("the oracle loop did not stop")


def counting(op):
    """``op`` with a domain projection that records each call."""
    calls = []

    def project(z):
        calls.append(np.array(z))
        return op.domain_projection(z)
    return dataclasses.replace(op, domain_projection=project), calls


# on the unit box: inside, on a face, a -0.0 coordinate on a face, outside
# through a face, outside past a corner
BOX_POINTS = [[0.3, 0.7], [1.0, 0.4], [-0.0, 0.5], [0.25, -0.0], [1.3, 0.6], [-0.4, 1.7]]


class TestElasticShortcut:
    @pytest.mark.parametrize("c", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("point", BOX_POINTS)
    def test_single_point_equals_the_loop_bit_for_bit(self, zoo, c, point):
        got = project_elastic_iterated(zoo["box2"], c, point)
        assert got.tobytes() == elastic_loop(zoo["box2"], c, point).tobytes()

    @pytest.mark.parametrize("c", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("rows", [slice(0, 4), slice(0, None), slice(4, None)],
                             ids=["inside", "mixed", "outside"])
    def test_batch_equals_the_loop_bit_for_bit(self, zoo, c, rows):
        z = np.array(BOX_POINTS)[rows]
        got = project_elastic_iterated(zoo["box2"], c, z)
        assert got.tobytes() == elastic_loop(zoo["box2"], c, z).tobytes()
        for row, point in zip(got, z):
            assert row.tobytes() == project_elastic_iterated(zoo["box2"], c, point).tobytes()

    def test_a_signed_zero_keeps_the_loops_sign(self, zoo):
        # the loop's p - c (w - p) at w = p keeps p's zero, sign and all
        for c in (0.0, 0.5, 1.0):
            got = project_elastic_iterated(zoo["box2"], c, [-0.0, 0.5])
            want = elastic_loop(zoo["box2"], c, [-0.0, 0.5])
            assert np.signbit(got).tolist() == np.signbit(want).tolist()

    @pytest.mark.parametrize("name", ["halfline", "box2", "ball2", "wedge"])
    def test_an_inside_batch_makes_one_domain_projection(self, zoo, name):
        # the points that the domain projection fixes (a projection onto a
        # slanted face may move by rounding when projected again)
        z = np.random.default_rng(3).normal(0.0, 1.0, size=(64, zoo[name].dimension))
        z = z[(zoo[name].domain_projection(z) == z).all(axis=-1)][:8]
        assert len(z) == 8
        op, calls = counting(zoo[name])
        got = project_elastic_iterated(op, 0.5, z)
        assert len(calls) == 1
        assert got.tobytes() == z.tobytes() == elastic_loop(zoo[name], 0.5, z).tobytes()

    def test_an_outside_row_keeps_the_loop(self, zoo):
        op, calls = counting(zoo["box2"])
        project_elastic_iterated(op, 0.5, np.array(BOX_POINTS))
        assert len(calls) >= 2


class TestNonFinitePoint:
    @pytest.mark.parametrize("z, named", [
        ([np.nan, 0.5], "[nan, 0.5]"),
        ([np.inf, 0.5], "[inf, 0.5]"),
        ([[0.2, 0.3], [-np.inf, 0.5], [0.5, np.nan]], "[-inf, 0.5]"),
    ], ids=["nan", "inf", "batch"])
    def test_elastic_fails_on_the_first_step(self, zoo, z, named):
        # such a row would spin through all 100,000 steps of the budget
        op, calls = counting(zoo["box2"])
        with pytest.raises(NonConvergenceError, match="non-finite point") as info:
            project_elastic_iterated(op, 0.5, z)
        assert named in str(info.value)
        assert len(calls) <= 2

    @pytest.mark.parametrize("z", [[np.nan, 0.5], [0.5, np.inf], [[0.0, 1.0], [np.nan, 0.5]]],
                             ids=["nan", "inf", "batch"])
    def test_dykstra_fails_before_its_sweeps(self, z):
        # a sweep shift of a non-finite row is never below the tolerance
        op = indicator_polyhedron([([1.0, -1.0], 0.0), ([-1.0, -1.0], 0.0), ([0.0, 1.0], 2.0)])
        with pytest.raises(NonConvergenceError, match="Dykstra projection cannot stabilize "
                                                      "from the non-finite point"):
            op.domain_projection(np.array(z))
        counted, calls = counting(op)
        with pytest.raises(NonConvergenceError, match="non-finite point"):
            project_elastic_iterated(counted, 0.5, z)
        assert len(calls) == 0  # the iterated projection tests the point first

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_typed_error_comes_before_any_numpy_warning(self, zoo, value):
        # the suite turns a RuntimeWarning into an error, so a warning from
        # inf - inf or inf x 0 would be raised in place of the typed error
        elastic = ("iterated elastic projection cannot stabilize from the non-finite point "
                   f"[{value}]")
        with pytest.raises(NonConvergenceError, match=re.escape(elastic)):
            project_elastic_iterated(zoo["halfline"], 0.5, [value])
        dykstra = f"Dykstra projection cannot stabilize from the non-finite point [{value}, 0.5]"
        with pytest.raises(NonConvergenceError, match=re.escape(dykstra)):
            zoo["wedge"].domain_projection(np.array([value, 0.5]))
        # in a batch, through the classical projection, the row is named too
        with pytest.raises(NonConvergenceError, match=re.escape(dykstra)):
            Projection()(zoo["wedge"], [[0.0, 1.0], [value, 0.5]])


class TestProjectionDispatch:
    def test_kinds(self, zoo):
        op = zoo["halfline"]
        z = [-2.0]
        assert Projection()(op, z) == pytest.approx([0.0])
        assert Projection(kind="elastic", c=0.5)(op, z) == pytest.approx([1.0])
        assert Projection(kind="elastic_iterated", c=0.5)(op, z) == pytest.approx([1.0])

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Projection(kind="oblique")
        with pytest.raises(ValueError):
            Projection(kind="elastic", c=1.5)


class TestAxioms:
    def test_lipschitz_all_kinds(self, zoo, rng):
        kinds = [Projection(), Projection(kind="elastic", c=0.6),
                 Projection(kind="elastic_iterated", c=0.6)]
        for name in ("halfline", "box2", "ball2"):
            op = zoo[name]
            for proj in kinds:
                worst = -np.inf
                for _ in range(2500):
                    a = rng.normal(0.0, 3.0, size=op.dimension)
                    b = rng.normal(0.0, 3.0, size=op.dimension)
                    pa, pb = proj(op, a), proj(op, b)
                    worst = max(worst, float(np.linalg.norm(pa - pb) - np.linalg.norm(a - b)))
                assert worst <= 1e-10, (name, proj.kind)

    def test_firm_nonexpansiveness(self, zoo, rng):
        for name in ("halfline", "box2", "ball2", "wedge"):
            op = zoo[name]
            for _ in range(500):
                a = rng.normal(0.0, 3.0, size=op.dimension)
                b = rng.normal(0.0, 3.0, size=op.dimension)
                pa, pb = project_classical(op, a), project_classical(op, b)
                lhs = float((pa - pb) @ (pa - pb))
                rhs = float((pa - pb) @ (a - b))
                assert lhs <= rhs + 1e-10

    def test_range_containment(self, zoo, rng):
        for name in ("halfline", "box2", "ball2", "wedge"):
            op = zoo[name]
            for _ in range(100):
                z = rng.normal(0.0, 3.0, size=op.dimension)
                assert op.in_domain(project_classical(op, z), 1e-8)
                assert op.in_domain(project_elastic_iterated(op, 0.8, z), 1e-8)
