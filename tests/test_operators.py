import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsde import (
    NonConvergenceError,
    Partition,
    Projection,
    StepPath,
    convex_prox,
    indicator_ball,
    indicator_box,
    indicator_halfspace,
    indicator_polyhedron,
    linear_monotone,
    pair_inequality_report,
    resolve,
    solve_step,
    verify_solution,
    yosida_a,
    yosida_j,
)
from mmsde.operators import _LINEAR_INVERSE_CACHE, _bound_flows, _flow_kernel, flow_steps
from conftest import soft_threshold


class TestResolve:
    def test_linear_identity_operator(self):
        op = linear_monotone([[1.0]])
        # y + y = 2 forces y = 1
        assert resolve(op, 1.0, [2.0]) == pytest.approx([1.0])

    def test_indicator_projection_ignores_lambda(self):
        op = indicator_halfspace([-1.0], 0.0)
        assert resolve(op, 0.5, [-3.0]) == pytest.approx([0.0])
        assert resolve(op, 7.0, [-3.0]) == pytest.approx([0.0])

    def test_ball_nearest_point(self):
        op = indicator_ball([0.0, 0.0], 1.0)
        assert resolve(op, 2.0, [2.0, 0.0]) == pytest.approx([1.0, 0.0])

    def test_rejects_bad_arguments(self):
        op = linear_monotone([[1.0]])
        with pytest.raises(ValueError):
            resolve(op, 0.0, [1.0])
        with pytest.raises(ValueError):
            resolve(op, -1.0, [1.0])
        with pytest.raises(ValueError):
            resolve(op, 1e-16, [1.0])  # below the documented lower bound
        with pytest.raises(ValueError):
            resolve(op, 1.0, [np.nan])
        with pytest.raises(ValueError):
            resolve(op, 1.0, [np.inf])


class TestYosida:
    def test_j_matches_resolve(self):
        op = linear_monotone([[1.0]])
        assert yosida_j(op, 1, [2.0]) == pytest.approx([1.0])
        np.testing.assert_array_equal(yosida_j(op, 4, [2.0]), resolve(op, 0.25, [2.0]))

    def test_j_projection_cases(self):
        op = indicator_halfspace([-1.0], 0.0)
        assert yosida_j(op, 10, [-1.0]) == pytest.approx([0.0])
        assert yosida_j(op, 10, [5.0]) == pytest.approx([5.0])

    def test_a_values(self):
        hl = indicator_halfspace([-1.0], 0.0)
        assert yosida_a(hl, 4, [-1.0]) == pytest.approx([-4.0])
        lin = linear_monotone([[1.0]])
        # algebra gives A_n(z) = n z / (n + 1)
        assert yosida_a(lin, 100, [1.0]) == pytest.approx([100.0 / 101.0])
        # interior point with 0 in A(z): J_n fixes it
        assert yosida_a(hl, 3, [2.0]) == pytest.approx([0.0])

    def test_gap_to_projection_shrinks(self, zoo):
        rng = np.random.default_rng(5)
        for name, op in zoo.items():
            for _ in range(5):
                z = rng.normal(0.0, 2.0, size=op.dimension)
                target = op.domain_projection(z)
                gaps = [float(np.linalg.norm(yosida_j(op, n, z) - target))
                        for n in (1, 10, 100, 1000)]
                assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:])), name
                if op.projection_resolvent:
                    # resolvent is the projection itself: gap vanishes at every n
                    assert gaps == pytest.approx([0.0] * 4, abs=1e-14)
                    assert gaps[-1] <= 1e-3
                else:
                    assert gaps[-1] <= gaps[0] / 100.0 + 1e-12, name

    def test_monotonicity_on_random_pairs(self, zoo, rng):
        for op in zoo.values():
            for _ in range(200):
                z1 = rng.normal(0.0, 2.0, size=op.dimension)
                z2 = rng.normal(0.0, 2.0, size=op.dimension)
                for n in (1, 10, 100):
                    da = yosida_a(op, n, z1) - yosida_a(op, n, z2)
                    assert float((z1 - z2) @ da) >= -1e-12


class TestFlow:
    """The last state of ``flow_steps`` against the closed forms of the
    constant-input flow."""

    def test_linear_decay_matches_exponential_oracle(self):
        op = linear_monotone([[1.0]])
        exact = math.exp(-1.0)  # oracle: d/dt x = -x
        for m in (10, 100, 1000):
            val = flow_steps(op, np.array([1.0]), 1.0, m)[-1][1][0]
            assert abs(val - exact) <= 2.0 / m
        assert flow_steps(op, np.array([1.0]), 1.0, 1000)[-1][1][0] == pytest.approx(exact,
                                                                                    abs=1e-3)

    def test_matrix_decay_matches_expm_oracle(self):
        from scipy.linalg import expm

        m = np.array([[2.0, 1.0], [-1.0, 0.5]])
        op = linear_monotone(m)
        alpha = np.array([1.0, -0.5])
        exact = expm(-m) @ alpha
        approx = flow_steps(op, alpha, 1.0, 2000)[-1][1]
        assert np.linalg.norm(approx - exact) <= 4.0 / 2000

    def test_stationary_in_interior(self):
        op = indicator_halfspace([-1.0], 0.0)
        assert flow_steps(op, np.array([5.0]), 7.0, 3)[-1][1] == pytest.approx([5.0])
        assert flow_steps(op, np.array([0.0]), 3.0, 3)[-1][1] == pytest.approx([0.0])

    def test_zero_time_is_exact_identity(self, zoo):
        # no step is taken, so the flow ends where it starts
        for op in zoo.values():
            alpha = op.domain_projection(np.full(op.dimension, 0.25))
            assert flow_steps(op, alpha, 0.0, 5) == []

    def test_semigroup_property_on_linear(self):
        # composition error stays first order in 1/m; constant calibrated
        # against the exponential oracle (|alpha| = 1, s + t <= 1.5)
        op = linear_monotone([[1.0]])
        s, t, start = 0.5, 1.0, np.array([1.0])
        for m in (8, 32, 128):
            once = flow_steps(op, start, s + t, 2 * m)[-1][1]
            composed = flow_steps(op, flow_steps(op, start, s, m)[-1][1], t, m)[-1][1]
            assert np.linalg.norm(once - composed) <= 1.0 * (s + t) / m


class TestBoundFlows:
    """The flow that a march along one path binds per step length
    (``_bound_flows``) ends at the last state of ``flow_steps``, bit for bit."""

    @pytest.mark.parametrize("substeps", [1, 3, 16])
    @pytest.mark.parametrize("t", [1e-6, 1.0])
    def test_equals_last_listed_state_bit_for_bit(self, zoo, rng, substeps, t):
        # the zoo holds every built-in kind: halfspace, box, ball, polyhedron,
        # linear and convex_prox
        for name, op in zoo.items():
            bound = _bound_flows(op, substeps)
            for start in rng.normal(0.0, 2.0, size=(4, op.dimension)):
                end = bound(t)(start)
                assert end.dtype == np.float64, name
                np.testing.assert_array_equal(end, flow_steps(op, start, t, substeps)[-1][1],
                                              err_msg=name)

    @pytest.mark.parametrize("substeps", [0, 1, 16])
    def test_zero_time_returns_start(self, zoo, substeps):
        for op in zoo.values():
            start = np.full(op.dimension, 3.0)
            assert flow_steps(op, start, 0.0, substeps) == []

    @pytest.mark.parametrize("t, substeps", [(1.0, 0), (1e-16, 1), (1e-15, 16)],
                             ids=["no-substeps", "short-time", "short-substep"])
    def test_rejects_what_flow_steps_rejects(self, zoo, t, substeps):
        for name, op in zoo.items():
            if op.projection_resolvent and substeps == 16:
                continue  # one step of size t = 1e-15 = MIN_RESOLVENT_STEP is legal
            start = np.zeros(op.dimension)
            with pytest.raises(ValueError) as listed:
                flow_steps(op, start, t, substeps)
            # a march checks its steps at its entry, before it binds a flow
            y = StepPath(Partition(np.array([0.0, t])), np.vstack([start, start]))
            with pytest.raises(ValueError) as march:
                solve_step(op, Projection("classical"), y, flow_substeps=substeps)
            assert str(march.value) == str(listed.value), name

    @pytest.mark.parametrize("name, per_step", [("linear2", 5), ("rotation2", 5),
                                                ("box2", 1), ("wedge", 1)])
    def test_solve_step_calls_the_resolvent_once_per_substep(self, zoo, rng, name, per_step):
        calls = []
        op = zoo[name]
        resolvent = op.resolvent
        counted = dataclasses.replace(
            op, resolvent=lambda lam, z: calls.append(lam) or resolvent(lam, z))
        n = 40
        start = op.domain_projection(np.full(2, 0.25))
        values = start + np.cumsum(rng.normal(0.0, 0.1, size=(n, 2)), axis=0)
        values[0] = start
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, size=n - 1))])
        y = StepPath(Partition(times), values)
        solve_step(counted, Projection("classical"), y, flow_substeps=5)
        # linear: (n - 1) x substeps; a normal cone: one exact step per interval
        assert len(calls) == (n - 1) * per_step
        dt = np.diff(y.partition.times)
        expected = dt / 5 if per_step == 5 else dt
        np.testing.assert_array_equal(calls[::per_step], expected)


class TestConstructors:
    def test_box_clamp(self):
        op = indicator_box([0.0, 0.0], [1.0, 1.0])
        assert resolve(op, 1.0, [2.0, 0.5]) == pytest.approx([1.0, 0.5])

    @pytest.mark.parametrize("size", [1, 3, 16, 33, "every-candidate"])
    def test_box_projection_is_np_clip_byte_for_byte(self, size):
        # signed-zero, infinite and subnormal bounds; np.minimum(np.maximum(...))
        # differs from np.clip on the signs of zeros, so the bytes are compared
        tiny = 5e-324
        lo = np.array([-0.0, 0.0, -1.0, -1.0, -np.inf, -0.5, -np.inf, tiny, -2.2e-308])
        hi = np.array([1.0, 1.0, -0.0, 0.0, 0.5, np.inf, np.inf, 1e-310, -tiny])
        op = indicator_box(lo, hi)
        # per coordinate: each bound, 1 ulp either side of it, and fixed values
        fixed = np.array([0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, np.inf, -np.inf, 2.0, -2.0])
        candidates = np.vstack([lo, hi, np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf),
                                np.nextafter(hi, -np.inf), np.nextafter(hi, np.inf),
                                np.repeat(fixed[:, None], lo.size, axis=1)])
        if size == "every-candidate":
            z = candidates
        else:
            pick = np.random.default_rng(size).integers(0, len(candidates), (size, lo.size))
            z = candidates[pick, np.arange(lo.size)]
        for point in (z, z[0]):
            want = np.clip(point, lo, hi)
            for got in (op.domain_projection(point), op.resolvent(0.5, point)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_linear_halving(self):
        op = linear_monotone(np.eye(2))
        assert resolve(op, 1.0, [2.0, 4.0]) == pytest.approx([1.0, 2.0])

    def test_prox_soft_threshold(self):
        op = convex_prox(soft_threshold, 1)
        assert resolve(op, 1.0, [0.5]) == pytest.approx([0.0])
        assert resolve(op, 1.0, [2.5]) == pytest.approx([1.5])

    def test_rejects_degenerate_geometry(self):
        with pytest.raises(ValueError):
            indicator_box([0.0, 0.0], [1.0, 0.0])  # flat box
        with pytest.raises(ValueError):
            indicator_ball([0.0], 0.0)
        with pytest.raises(ValueError):
            indicator_halfspace([0.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            linear_monotone([[-1.0]])  # not monotone
        with pytest.raises(ValueError):
            # x <= 0 and x >= 1: empty
            indicator_polyhedron([([1.0], 0.0), ([-1.0], -1.0)])
        with pytest.raises(ValueError):
            # x <= 0 and x >= 0: lower-dimensional
            indicator_polyhedron([([1.0], 0.0), ([-1.0], 0.0)])

    @pytest.mark.parametrize("budget", [{"dykstra_max_iter": 0}, {"dykstra_max_iter": -3},
                                        {"dykstra_tol": 0.0}, {"dykstra_tol": -1e-10},
                                        {"dykstra_tol": np.nan}, {"dykstra_tol": np.inf}])
    def test_polyhedron_rejects_an_empty_dykstra_budget(self, budget):
        # a budget of no sweeps used to fail on its first outside point with
        # an UnboundLocalError
        with pytest.raises(ValueError, match=next(iter(budget))):
            indicator_polyhedron([([1.0, -1.0], 0.0), ([-1.0, -1.0], 0.0)], **budget)

    def test_polyhedron_with_one_sweep_projects_or_reports(self):
        op = indicator_polyhedron([([1.0, -1.0], 0.0), ([-1.0, -1.0], 0.0)],
                                  dykstra_max_iter=1)
        with pytest.raises(NonConvergenceError):
            op.domain_projection(np.array([0.3, -1.0]))
        np.testing.assert_array_equal(op.domain_projection(np.array([0.0, 2.0])), [0.0, 2.0])

    def test_polyhedron_projection_against_wedge_geometry(self):
        # wedge x2 >= |x1|: projection of (3, 0) is (1.5, 1.5)
        op = indicator_polyhedron([([1.0, -1.0], 0.0), ([-1.0, -1.0], 0.0)])
        p = op.domain_projection(np.array([3.0, 0.0]))
        assert p == pytest.approx([1.5, 1.5], abs=1e-9)
        inside = np.array([0.25, 0.8])
        np.testing.assert_array_equal(op.domain_projection(inside), inside)

    def test_polyhedron_projection_lands_on_a_vertex(self):
        # triangle with vertices (0, 0), (2, 2), (-2, 2): each point lies in the
        # normal cone of a vertex; Dykstra alone stops about 2e-11 short of it
        op = indicator_polyhedron([([1.0, -1.0], 0.0), ([-1.0, -1.0], 0.0), ([0.0, 1.0], 2.0)])
        z = np.array([[2.5, 2.5], [2.003, 2.5], [5.0, 2.0 + 1e-9], [0.1, -3.0], [-4.0, 2.5]])
        vertex = np.array([[2.0, 2.0], [2.0, 2.0], [2.0, 2.0], [0.0, 0.0], [-2.0, 2.0]])
        np.testing.assert_allclose(op.domain_projection(z), vertex, rtol=0.0, atol=1e-15)
        # a point nearest a face interior keeps its exact face projection
        np.testing.assert_allclose(op.domain_projection(np.array([1.0, 3.0])), [1.0, 2.0],
                                   rtol=0.0, atol=1e-15)


class TestInvariants:
    def test_resolvent_nonexpansive(self, zoo, rng):
        for name, op in zoo.items():
            for _ in range(1000):
                z1 = rng.normal(0.0, 3.0, size=op.dimension)
                z2 = rng.normal(0.0, 3.0, size=op.dimension)
                lam = float(rng.uniform(0.01, 5.0))
                j1 = resolve(op, lam, z1)
                j2 = resolve(op, lam, z2)
                assert np.linalg.norm(j1 - j2) <= np.linalg.norm(z1 - z2) + 1e-12, name

    def test_resolvent_identity(self, zoo, rng):
        for name, op in zoo.items():
            for _ in range(50):
                z = rng.normal(0.0, 2.0, size=op.dimension)
                lam = float(rng.uniform(0.5, 3.0))
                mu = float(rng.uniform(0.05, lam))
                jl = resolve(op, lam, z)
                rhs = resolve(op, mu, (mu / lam) * z + (1.0 - mu / lam) * jl)
                assert np.linalg.norm(jl - rhs) <= 1e-9, name

    def test_resolvent_range_in_domain(self, zoo, rng):
        for op in zoo.values():
            for _ in range(100):
                z = rng.normal(0.0, 3.0, size=op.dimension)
                assert op.domain_distance(resolve(op, 0.7, z)) <= 1e-8

    def test_resolvent_monotone_slope(self, zoo, rng):
        # <a - a', J z - J z'> >= 0 with a = (z - J z)/lam
        for op in zoo.values():
            for _ in range(200):
                z1 = rng.normal(0.0, 2.0, size=op.dimension)
                z2 = rng.normal(0.0, 2.0, size=op.dimension)
                lam = 0.5
                j1 = resolve(op, lam, z1)
                j2 = resolve(op, lam, z2)
                a1 = (z1 - j1) / lam
                a2 = (z2 - j2) / lam
                assert float((a1 - a2) @ (j1 - j2)) >= -1e-10


def random_monotone_matrix(rng, d):
    """Non-symmetric M with <Mx, x> >= 0: a PSD part plus a skew part."""
    b = rng.normal(size=(d, d))
    s = rng.normal(size=(d, d))
    return b @ b.T + (s - s.T)


# one operator shared by every hypothesis example, so its memo is exercised
ROTATION_OP = linear_monotone([[0.5, 1.0], [-1.0, 0.5]])
STEPS = st.floats(1e-6, 1e3)
POINTS = st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2)


class TestLinearResolventCache:
    def test_matches_fresh_solve_beyond_cache_bound(self, rng):
        lams = np.logspace(-6, 3, 3 * _LINEAR_INVERSE_CACHE)
        for d in range(1, 5):
            m = random_monotone_matrix(rng, d)
            op = linear_monotone(m)
            # two passes: the first fills and clears the memo, the second
            # hits entries written after the last clear
            for lam in np.concatenate([lams, lams[::-1]]):
                z = rng.normal(0.0, 3.0, size=d)
                want = np.linalg.solve(np.eye(d) + lam * m, z)
                got = resolve(op, lam, z)
                assert np.max(np.abs(got - want)) <= 1e-13 * (1.0 + np.linalg.norm(z))

    def test_returned_array_does_not_alias_the_memo(self):
        op = linear_monotone([[2.0, 0.5], [-0.5, 1.0]])
        z = np.array([1.0, -2.0])
        first = resolve(op, 0.25, z)
        want = first.copy()
        first[:] = 99.0
        np.testing.assert_array_equal(resolve(op, 0.25, z), want)
        np.testing.assert_array_equal(z, [1.0, -2.0])

    @given(lam=STEPS, mu_frac=st.floats(0.0, 1.0, exclude_min=True), z1=POINTS, z2=POINTS)
    @settings(max_examples=200, deadline=None)
    def test_nonexpansive_and_resolvent_identity(self, lam, mu_frac, z1, z2):
        z1 = np.asarray(z1)
        z2 = np.asarray(z2)
        scale = 1.0 + np.linalg.norm(z1) + np.linalg.norm(z2)
        j1 = resolve(ROTATION_OP, lam, z1)
        j2 = resolve(ROTATION_OP, lam, z2)
        assert np.linalg.norm(j1 - j2) <= np.linalg.norm(z1 - z2) + 1e-12 * scale
        mu = max(mu_frac * lam, 1e-6)
        rhs = resolve(ROTATION_OP, mu, (mu / lam) * z1 + (1.0 - mu / lam) * j1)
        assert np.linalg.norm(j1 - rhs) <= 1e-10 * scale

    def test_solve_step_matches_uncached_reference(self, rng):
        m = random_monotone_matrix(rng, 2)
        eye = np.eye(2)
        reference = convex_prox(lambda lam, z: np.linalg.solve(eye + lam * m, z), 2)
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, size=199))])
        y = StepPath(Partition(times), np.cumsum(rng.normal(0.0, 0.3, size=(200, 2)), axis=0))
        got = solve_step(linear_monotone(m), Projection(), y)
        want = solve_step(reference, Projection(), y)
        assert np.max(np.abs(got.x.values - want.x.values)) <= 1e-10
        assert np.max(np.abs(got.k.total.values - want.k.total.values)) <= 1e-10

    def test_threads_sharing_the_memo_get_correct_results(self):
        m = np.array([[2.0, 0.5], [-0.5, 1.0]])
        op = linear_monotone(m)
        lams = np.logspace(-3, 1, _LINEAR_INVERSE_CACHE + 7)
        z = np.array([1.0, -2.0])
        want = {lam: np.linalg.solve(np.eye(2) + lam * m, z) for lam in lams}
        errors = []

        def hammer(offset):
            for i in range(2000):
                lam = lams[(i * 7 + offset) % lams.size]
                if np.max(np.abs(resolve(op, lam, z) - want[lam])) > 1e-13:
                    errors.append(lam)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def resolvent_loop(op, lam, m, z):
    for _ in range(m):
        z = op.resolvent(lam, z)
    return z


def resolvent_states(op, lam, m, z):
    """The m states of m successive resolvent calls: the oracle of ``flow_steps``."""
    states = []
    for _ in range(m):
        z = op.resolvent(lam, z)
        states.append(z)
    return states


def linear_memo(op):
    """The inverse memo of a ``linear_monotone`` operator, keyed by step."""
    cells = dict(zip(op.resolvent.__code__.co_freevars, op.resolvent.__closure__))
    return cells["inverses_t"].cell_contents


class TestLinearPower:
    """``linear_monotone``'s resolvent carries ``power``: m steps in one call,
    bit for bit the loop of m resolvent calls that a flow replaces, as is the
    map that ``bind_power`` binds to one float step."""

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_point_with_a_float_step(self, rng, d):
        op = linear_monotone(random_monotone_matrix(rng, d))
        for lam in (1e-6, 0.0625, 3.0):
            z = rng.normal(0.0, 2.0, size=d)
            for m in (1, 2, 16):
                assert same_bits(op.resolvent.power(lam, m, z), resolvent_loop(op, lam, m, z))
                assert same_bits(op.resolvent.bind_power(lam, m)(z),
                                 resolvent_loop(op, lam, m, z))
            assert same_bits(flow_steps(op, z, 16 * lam, 16)[-1][1],
                             resolvent_loop(op, lam, 16, z))

    def test_batch_with_one_step(self, rng):
        op = linear_monotone(random_monotone_matrix(rng, 3))
        z = rng.normal(0.0, 2.0, size=(7, 3))
        assert same_bits(op.resolvent.power(0.1, 16, z), resolvent_loop(op, 0.1, 16, z))
        assert same_bits(op.resolvent.bind_power(0.1, 16)(z), resolvent_loop(op, 0.1, 16, z))
        assert same_bits(flow_steps(op, z, 1.6, 16)[-1][1], resolvent_loop(op, 0.1, 16, z))

    def test_batch_with_ragged_steps(self, rng):
        op = linear_monotone(random_monotone_matrix(rng, 2))
        z = rng.normal(0.0, 2.0, size=(9, 2))
        lam = np.array([0.1, 0.3, 0.1, 2.0, 1e-5, 0.3, 0.3, 0.1, 7.5])
        assert same_bits(op.resolvent.power(lam, 16, z), resolvent_loop(op, lam, 16, z))
        assert same_bits(flow_steps(op, z, 16 * lam, 16)[-1][1], resolvent_loop(op, lam, 16, z))

    def test_memo_evicted_mid_stream(self, rng):
        op = linear_monotone(random_monotone_matrix(rng, 2))
        lams = np.logspace(-4, 1, 2 * _LINEAR_INVERSE_CACHE + 5)
        # one batch with more distinct steps than the memo holds
        z = rng.normal(0.0, 2.0, size=(lams.size, 2))
        assert same_bits(op.resolvent.power(lams, 5, z), resolvent_loop(op, lams, 5, z))
        # a stream of float steps that clears the memo between the calls
        for lam in np.concatenate([lams, lams[::-1]]).tolist():
            x = rng.normal(0.0, 2.0, size=2)
            assert same_bits(op.resolvent.power(lam, 3, x), resolvent_loop(op, lam, 3, x))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_fresh_per_row_steps_equal_their_point_calls(self, rng, d):
        op = linear_monotone(random_monotone_matrix(rng, d))
        memo = dict(zip(op.resolvent.__code__.co_freevars,
                        op.resolvent.__closure__))["inverses_t"].cell_contents
        # more fresh steps in one batch than the memo holds, each on two rows
        lams = np.repeat(rng.uniform(0.01, 2.0, size=2 * _LINEAR_INVERSE_CACHE + 9), 2)
        z = rng.normal(0.0, 2.0, size=(lams.size, d))
        got = op.resolvent(lams, z)
        assert 0 < len(memo) <= _LINEAR_INVERSE_CACHE
        for lam, row, out in zip(lams.tolist(), z, got):
            assert same_bits(out, op.resolvent(lam, row))
        assert same_bits(op.resolvent.power(lams, 4, z),
                         np.array([op.resolvent.power(lam, 4, row)
                                   for lam, row in zip(lams.tolist(), z)]))
        assert len(memo) <= _LINEAR_INVERSE_CACHE

    def test_a_fresh_batch_leaves_its_last_missing_steps_in_the_memo(self, rng):
        op = linear_monotone(random_monotone_matrix(rng, 2))
        lams = rng.uniform(0.01, 2.0, size=2 * _LINEAR_INVERSE_CACHE + 9)
        z = rng.normal(0.0, 2.0, size=(lams.size, 2))
        got = op.resolvent(lams, z)
        # the memo keeps the last missing steps in np.unique order, no more
        assert list(linear_memo(op)) == np.unique(lams)[-_LINEAR_INVERSE_CACHE:].tolist()
        for lam, row, out in zip(lams.tolist(), z, got):
            assert same_bits(out, op.resolvent(lam, row))

    def test_a_nearly_full_memo_forgets_its_oldest_steps_only(self, rng):
        # 60 fresh steps, then 10 more: the memo drops the 6 oldest, where
        # emptying it when full kept 6 steps of the second batch alone
        op = linear_monotone(random_monotone_matrix(rng, 2))
        first, second = (rng.uniform(0.01, 2.0, size=n) for n in (60, 10))
        z = rng.normal(0.0, 2.0, size=(70, 2))
        got = np.concatenate([op.resolvent(first, z[:60]), op.resolvent(second, z[60:])])
        kept = [*np.unique(first).tolist(), *np.unique(second).tolist()][-_LINEAR_INVERSE_CACHE:]
        assert list(linear_memo(op)) == kept
        fresh = linear_monotone(op.spec["matrix"])
        for lam, row, out in zip([*first.tolist(), *second.tolist()], z, got):
            assert same_bits(out, fresh.resolvent(lam, row))

    def test_replaced_resolvent_keeps_no_stale_power(self, rng):
        op = linear_monotone(random_monotone_matrix(rng, 2))
        other = linear_monotone(random_monotone_matrix(rng, 2))
        calls = []
        replaced = dataclasses.replace(
            op, resolvent=lambda lam, z: calls.append(lam) or other.resolvent(lam, z))
        assert getattr(replaced.resolvent, "power", None) is None
        assert getattr(replaced.resolvent, "bind_power", None) is None
        z = rng.normal(0.0, 2.0, size=2)
        end = flow_steps(replaced, z, 0.8, 16)[-1][1]
        assert calls == [0.05] * 16
        assert same_bits(end, resolvent_loop(other, 0.05, 16, z))
        assert not same_bits(end, flow_steps(op, z, 0.8, 16)[-1][1])
        # the flow a march binds calls the replaced resolvent too
        assert same_bits(_bound_flows(replaced, 16)(0.8)(z), end)
        assert calls == [0.05] * 32


def counted_power(op):
    """``op`` with a resolvent that carries its own ``power``, which records
    each call's (m, keep) before it runs the operator's power."""
    calls = []
    resolvent = op.resolvent

    def counted(lam, z):
        return resolvent(lam, z)

    def power(lam, m, z, keep=False):
        calls.append((m, keep))
        return resolvent.power(lam, m, z, keep)

    counted.power = power
    return dataclasses.replace(op, resolvent=counted), calls


class TestFlowStates:
    """``flow_steps`` lists the m states of one ``keep=True`` power call; for
    ``linear_monotone`` each equals the state of m plain resolvent calls bit
    for bit."""

    def check(self, op, start, t, m):
        lam = t / m
        got = flow_steps(op, start, t, m)
        want = resolvent_states(op, lam, m, start)
        assert len(got) == len(want) == m
        for (step, state), expect in zip(got, want):
            assert same_bits(step, lam)
            assert same_bits(state, expect)

    @pytest.mark.parametrize("m", [1, 3, 16])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_float_step_on_a_point_and_a_batch(self, rng, d, m):
        op = linear_monotone(random_monotone_matrix(rng, d))
        for t in (1e-6, 1.0, 40.0):
            self.check(op, rng.normal(0.0, 2.0, size=d), t, m)
            self.check(op, rng.normal(0.0, 2.0, size=(7, d)), t, m)

    @pytest.mark.parametrize("m", [1, 16])
    def test_ragged_per_row_steps(self, rng, m):
        op = linear_monotone(random_monotone_matrix(rng, 2))
        t = np.array([0.1, 0.3, 0.1, 2.0, 1e-5, 0.3, 0.3, 0.1, 7.5])
        self.check(op, rng.normal(0.0, 2.0, size=(t.size, 2)), t, m)

    def test_more_distinct_steps_than_the_memo_holds(self, rng):
        op = linear_monotone(random_monotone_matrix(rng, 3))
        t = np.repeat(np.logspace(-4, 1, 2 * _LINEAR_INVERSE_CACHE + 5), 2)
        # the second flow finds the memo filled by the first
        for _ in range(2):
            self.check(op, rng.normal(0.0, 2.0, size=(t.size, 3)), t, 8)

    def test_one_power_call_per_flow(self, zoo, zoo_pairs, rng):
        op = zoo["rotation2"]
        counted, calls = counted_power(op)
        start = rng.normal(0.0, 2.0, size=(5, 2))
        t = rng.uniform(0.5, 1.5, size=5)
        steps = flow_steps(counted, start, t, 16)
        assert calls == [(16, True)]
        for (_, state), (_, want) in zip(steps, flow_steps(op, start, t, 16)):
            assert same_bits(state, want)
        # the unchecked kernel of a batch march: one power call per flow too
        assert same_bits(_flow_kernel(counted, 16)(start, t), steps[-1][1])
        assert calls == [(16, True), (16, False)]
        # each solution checker flows all the intervals of a solution in one call
        n = 20
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, size=n - 1))])
        values = np.cumsum(rng.normal(0.0, 0.3, size=(2, n, 2)), axis=1)
        a, b = (solve_step(op, Projection("classical"), StepPath(Partition(times), v),
                           flow_substeps=4) for v in values)
        calls.clear()
        rep = verify_solution(counted, Projection("classical"), a,
                              test_pairs=zoo_pairs["rotation2"])
        assert rep == verify_solution(op, Projection("classical"), a,
                                      test_pairs=zoo_pairs["rotation2"])
        assert calls == [(4, True)]
        assert pair_inequality_report(counted, a, b) == pair_inequality_report(op, a, b)
        assert calls == [(4, True)] * 2

    @pytest.mark.parametrize("name", ["rotation2", "prox_abs"])
    def test_a_resolvent_without_power_is_called_m_times(self, zoo, zoo_pairs, rng, name):
        op = zoo[name]
        d = op.dimension
        calls = []
        replaced = dataclasses.replace(
            op, resolvent=lambda lam, z: calls.append(np.shape(z)) or op.resolvent(lam, z))
        start = rng.normal(0.0, 2.0, size=(6, d))
        t = rng.uniform(0.5, 1.5, size=6)
        for z, tz in ((start[0], float(t[0])), (start, t)):
            calls.clear()
            got = flow_steps(replaced, z, tz, 5)
            assert calls == [z.shape] * 5
            for (_, state), (_, want) in zip(got, flow_steps(op, z, tz, 5)):
                assert same_bits(state, want)
        # verify_solution: m calls, each flowing every one of the n - 1 intervals
        n = 12
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, size=n - 1))])
        y = StepPath(Partition(times), np.cumsum(rng.normal(0.0, 0.3, size=(n, d)), axis=0))
        sol = solve_step(op, Projection("classical"), y, flow_substeps=5)
        calls.clear()
        rep = verify_solution(replaced, Projection("classical"), sol, test_pairs=zoo_pairs[name])
        assert rep.passed, rep.failures
        assert calls == [(n - 1, d)] * 5
