"""Row contract of the operator and projection maps on batches.

Every map takes a point (d,) or a batch (B, d).  Row i of a batched call
equals the single-point call on row i bit for bit; ``linear_monotone`` with
one float step for the whole batch is held to 1e-15 relative to the row's
scale, since that batch is one ``z.dot(inv_t)``, a matrix-matrix product (with
one step per row its rows are bit for bit, ``tests/test_harness.py``).
"""

import numpy as np
import pytest

from mmsde import (
    NonConvergenceError,
    Projection,
    flow,
    indicator_box,
    indicator_polyhedron,
    resolve,
    yosida_a,
    yosida_j,
)
from mmsde.operators import flow_endpoint, row_norm

PROJECTIONS = [Projection("classical"), Projection("elastic", c=0.5),
               Projection("elastic_iterated", c=0.5), Projection("elastic_iterated", c=1.0)]
BATCH_SIZES = [0, 1, 17]


def assert_rows(zoo_name, batched, single, scale=None):
    """``batched`` equals the stacked single-point values; for a linear
    operator each row is within 1e-15 of ``scale`` (default: the row's norm)."""
    stacked = np.array(single).reshape(np.shape(batched))
    if zoo_name.startswith(("linear", "rotation")):
        scale = row_norm(stacked) if scale is None else scale
        assert np.all(np.abs(batched - stacked) <= 1e-15 * scale[:, None])
    else:
        np.testing.assert_array_equal(batched, stacked)
        assert np.array_equal(np.signbit(batched), np.signbit(stacked))


def batch(rng, op, size):
    # scale 2 puts rows on both sides of every zoo domain's boundary
    return rng.normal(0.0, 2.0, size=(size, op.dimension))


@pytest.fixture(params=["halfline", "box2", "ball2", "wedge", "linear1", "linear2",
                        "rotation2", "prox_abs"])
def name(request):
    return request.param


@pytest.mark.parametrize("size", BATCH_SIZES)
class TestOperatorRows:
    def test_resolvent_and_yosida(self, zoo, name, rng, size):
        op = zoo[name]
        z = batch(rng, op, size)
        for lam in (0.05, 1.0, 5.0):
            out = resolve(op, lam, z)
            assert out.shape == z.shape
            assert_rows(name, out, [resolve(op, lam, row) for row in z])
        for n in (1.0, 100.0):
            assert_rows(name, yosida_a(op, n, z), [yosida_a(op, n, row) for row in z],
                        scale=n * row_norm(z))
            assert_rows(name, yosida_j(op, n, z), [yosida_j(op, n, row) for row in z])

    def test_domain_maps(self, zoo, name, rng, size):
        op = zoo[name]
        z = batch(rng, op, size)
        assert_rows(name, op.domain_projection(z), [op.domain_projection(row) for row in z])
        dist = op.domain_distance(z)
        assert dist.shape == (size,)
        np.testing.assert_array_equal(dist, [op.domain_distance(row) for row in z])
        for tol in (1e-8, 0.5):
            np.testing.assert_array_equal(op.in_domain(z, tol),
                                          [op.in_domain(row, tol) for row in z])

    def test_projections(self, zoo, name, rng, size):
        op = zoo[name]
        z = batch(rng, op, size)
        for proj in PROJECTIONS:
            out = proj(op, z)
            assert out.shape == z.shape
            assert_rows(name, out, [proj(op, row) for row in z])

    def test_flows(self, zoo, name, rng, size):
        op = zoo[name]
        z = op.domain_projection(batch(rng, op, size))
        assert_rows(name, flow_endpoint(op, z, 0.3, 3),
                    [flow_endpoint(op, row, 0.3, 3) for row in z], scale=row_norm(z))
        assert_rows(name, flow(op, z, 0.3, 3), [flow(op, row, 0.3, 3) for row in z],
                    scale=row_norm(z))


def test_rows_keep_signed_zeros(zoo):
    # inside points come back unchanged, negative zeros included
    for name in ("halfline", "box2", "ball2", "wedge"):
        op = zoo[name]
        z = np.full((3, op.dimension), -0.0)
        z[1] = 5.0 * np.ones(op.dimension)
        z[2] = np.full(op.dimension, 0.5)
        for proj in PROJECTIONS:
            assert_rows(name, proj(op, z), [proj(op, row) for row in z])


def test_single_point_shapes_are_kept(zoo):
    for name, op in zoo.items():
        z = np.full(op.dimension, 3.0)
        assert resolve(op, 0.5, z).shape == (op.dimension,)
        assert np.ndim(op.domain_distance(z)) == 0
        assert isinstance(op.domain_distance(z), float)
        for proj in PROJECTIONS:
            assert proj(op, z).shape == (op.dimension,)


def test_row_norm_matches_the_vector_norm_bit_for_bit(rng):
    for d in range(1, 8):
        v = rng.normal(0.0, 2.0, size=(500, d)) * rng.uniform(1e-3, 1e3, size=(500, 1))
        np.testing.assert_array_equal(row_norm(v), [np.linalg.norm(row) for row in v])
        w = rng.normal(size=(500, d))
        np.testing.assert_array_equal(np.vecdot(v, w), [a @ b for a, b in zip(v, w)])


def test_linear_single_point_is_the_inverse_product(zoo, rng):
    for name in ("linear1", "linear2", "rotation2"):
        op = zoo[name]
        m = np.asarray(op.spec["matrix"])
        for lam in (0.0625, 0.7):
            inv = np.linalg.inv(np.eye(op.dimension) + lam * m)
            for z in batch(rng, op, 20):
                np.testing.assert_array_equal(op.resolvent(lam, z), inv.dot(z))


def narrow_cone(slope=3.0):
    # x2 >= slope |x1|: bounces from outside take several steps to settle
    return indicator_polyhedron([([slope, -1.0], 0.0), ([-slope, -1.0], 0.0)])


def steps_needed(run, z, limit=200):
    """Smallest budget with which ``run(z, budget)`` does not raise."""
    for budget in range(1, limit):
        try:
            run(z, budget)
            return budget
        except NonConvergenceError:
            pass
    raise AssertionError("no budget up to the limit was enough")


def test_elastic_iterated_rows_stop_at_different_iterations():
    op = narrow_cone(10.0)
    z = np.array([[0.0, 1.0], [1.0, 0.0], [0.2, 0.3], [-2.0, 1.0], [0.3, -0.1]])

    def run(point, budget):
        return Projection("elastic_iterated", c=0.9, max_iter=budget)(op, point)

    needed = [steps_needed(run, row) for row in z]
    assert len(set(needed)) == 5
    proj = Projection("elastic_iterated", c=0.9)
    np.testing.assert_array_equal(proj(op, z), [proj(op, row) for row in z])
    # the whole batch converges with the largest single-row budget
    np.testing.assert_array_equal(run(z, max(needed)), proj(op, z))
    with pytest.raises(NonConvergenceError):
        run(z, max(needed) - 1)
    # with a coarse tolerance some rows stop outside, on the step test, and
    # must not move while the others go on
    coarse = Projection("elastic_iterated", c=0.9, tol=0.05)
    single = [coarse(op, row) for row in z]
    assert np.count_nonzero(op.domain_distance(np.array(single)) > 0.05) == 0
    assert np.count_nonzero(op.domain_distance(np.array(single)) > 0.0) >= 2
    np.testing.assert_array_equal(coarse(op, z), single)


def test_dykstra_rows_stop_at_different_sweeps():
    halfspaces = [([3.0, -1.0], 0.0), ([-3.0, -1.0], 0.0), ([0.0, 1.0], 2.0)]
    z = np.array([[0.0, 1.0], [0.5, 0.0], [3.0, -1.0], [-4.0, 5.0], [0.01, -9.0]])

    def run(point, budget):
        return indicator_polyhedron(halfspaces, dykstra_max_iter=budget).domain_projection(point)

    needed = [steps_needed(run, row) for row in z]
    assert len(set(needed)) >= 3
    op = indicator_polyhedron(halfspaces)
    np.testing.assert_array_equal(op.domain_projection(z),
                                  [op.domain_projection(row) for row in z])
    np.testing.assert_array_equal(run(z, max(needed)), op.domain_projection(z))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_row_is_rejected(zoo, bad):
    op = zoo["box2"]
    z = np.zeros((4, 2))
    z[2, 1] = bad
    for call in (lambda: resolve(op, 0.5, z), lambda: yosida_a(op, 2.0, z),
                 lambda: yosida_j(op, 2.0, z)):
        with pytest.raises(ValueError, match="point must be finite"):
            call()


@pytest.mark.parametrize("z", [np.zeros((4, 3)), np.zeros((2, 4, 2)), np.zeros(3),
                               [[0.0, 0.0], [0.0]]],
                         ids=["wide-rows", "three-dims", "wide-point", "ragged"])
def test_a_wrongly_shaped_batch_is_rejected(zoo, z):
    op = zoo["box2"]
    with pytest.raises(ValueError):
        resolve(op, 0.5, z)
    with pytest.raises(ValueError):
        yosida_a(op, 2.0, z)


def test_iterated_budget_error_names_the_unstopped_rows():
    op = narrow_cone()
    proj = Projection("elastic_iterated", c=1.0, max_iter=1)
    point = np.array([1.0, 0.0])
    with pytest.raises(NonConvergenceError) as single:
        proj(op, point)
    # one row that exhausts the budget among rows that do not
    z = np.array([[0.0, 1.0], point, [0.0, 2.0]])
    with pytest.raises(NonConvergenceError) as batched:
        proj(op, z)
    with pytest.raises(NonConvergenceError) as one_row:
        proj(op, point[None, :])
    assert str(one_row.value) == str(single.value)
    assert str(single.value).startswith(
        "iterated elastic projection did not stabilize in 1 steps (domain distance ")
    assert str(batched.value) == str(single.value)
    assert batched.value.residual == single.value.residual
    assert batched.value.last.shape == z.shape
    np.testing.assert_array_equal(batched.value.last[1], single.value.last)
    np.testing.assert_array_equal(batched.value.last[[0, 2]], z[[0, 2]])


def test_dykstra_budget_error_keeps_its_message():
    halfspaces = [([3.0, -1.0], 0.0), ([-3.0, -1.0], 0.0)]
    op = indicator_polyhedron(halfspaces, dykstra_max_iter=1)
    point = np.array([1.0, 0.0])
    with pytest.raises(NonConvergenceError) as single:
        op.domain_projection(point)
    with pytest.raises(NonConvergenceError) as one_row:
        op.domain_projection(point[None, :])
    with pytest.raises(NonConvergenceError) as batched:
        op.domain_projection(np.array([[0.0, 1.0], point]))
    assert str(single.value) == "Dykstra projection did not stabilize in 1 sweeps"
    assert str(one_row.value) == str(batched.value) == str(single.value)
    assert single.value.last.shape == (2,)
    assert one_row.value.residual == single.value.residual == batched.value.residual
    np.testing.assert_array_equal(batched.value.last[1], single.value.last)


def test_batched_box_projection_is_the_clip():
    op = indicator_box([0.0, -1.0], [1.0, 1.0])
    z = np.array([[2.0, -3.0], [0.5, 0.5], [-1.0, 4.0]])
    np.testing.assert_array_equal(Projection("classical")(op, z),
                                  [[1.0, -1.0], [0.5, 0.5], [0.0, 1.0]])
