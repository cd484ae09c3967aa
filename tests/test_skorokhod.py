import dataclasses
import math

import numpy as np
import pytest

from mmsde import (
    DomainViolationError,
    NonConvergenceError,
    Partition,
    Projection,
    StepPath,
    indicator_polyhedron,
    linear_monotone,
    pair_inequality_report,
    reflect_halfline_oracle,
    solve_step,
    solve_steps,
    uniform_partition,
    verify_solution,
)
from mmsde.operators import _LINEAR_INVERSE_CACHE, flow_steps, row_norm
from mmsde.skorokhod import _min_subarray_sum

CLASSICAL = Projection()


def step_path(times, values):
    return StepPath(Partition(np.asarray(times, dtype=float)),
                    np.asarray(values, dtype=float))


def random_halfline_path(rng, max_steps=50):
    n = int(rng.integers(2, max_steps + 1))
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, size=n - 1))])
    times = np.unique(times)
    vals = np.concatenate([[rng.uniform(0.0, 2.0)],
                           rng.normal(0.0, 1.0, size=times.size - 1)])
    return StepPath(Partition(times), np.cumsum(vals))


class TestSolveStep:
    def test_halfline_hand_checked(self, zoo):
        # y = 1 on [0,1), -1 on [1,2]: jump projects 1 + (-2) to 0
        y = step_path([0.0, 1.0, 2.0], [1.0, 1.0, -1.0])
        sol = solve_step(zoo["halfline"], CLASSICAL, y)
        np.testing.assert_allclose(sol.x.values.ravel(), [1.0, 1.0, 0.0])
        np.testing.assert_allclose(sol.k.total.values.ravel(), [0.0, 0.0, -1.0])

    def test_stationary_interior_point(self, zoo):
        y = step_path([0.0, 0.5, 1.0], [0.4, 0.4, 0.4])
        sol = solve_step(zoo["halfline"], CLASSICAL, y)
        np.testing.assert_allclose(sol.x.values.ravel(), 0.4)
        np.testing.assert_allclose(sol.k.total.values.ravel(), 0.0, atol=1e-15)

    def test_constant_input_linear_decay(self):
        # y = 1 on [0, 1]: x_t = e^{-t}, k_t = 1 - e^{-t} (exponential oracle)
        op = linear_monotone([[1.0]])
        m = 64
        y = StepPath(uniform_partition(1.0, 32), np.ones(33))
        sol = solve_step(op, CLASSICAL, y, flow_substeps=m)
        for t in (0.25, 0.5, 1.0):
            assert abs(sol.x.value_at(t)[0] - math.exp(-t)) <= 2.0 / m
            assert abs(sol.k.total.value_at(t)[0] - (1.0 - math.exp(-t))) <= 2.0 / m

    def test_rejects_start_outside_domain(self, zoo):
        y = step_path([0.0, 1.0], [-1.0, 1.0])
        with pytest.raises(DomainViolationError):
            solve_step(zoo["halfline"], CLASSICAL, y)

    @pytest.mark.parametrize("times, values, message", [
        ([0.0, 0.5, 1.0], [[0.0, 0.0], [1e308, 1e308], [-1e308, -1e308]],
         "step 2 (t = 1.0)"),
        ([0.0, 0.25, 0.5, 0.75], [[0.5, 0.5], [0.5, -1.7e308], [0.5, -1.7e308], [0.5, 1.7e308]],
         "step 3 (t = 0.75)"),
    ], ids=["both-coordinates", "one-coordinate"])
    def test_rejects_an_overflowing_increment_before_it_marches(self, zoo, times, values,
                                                              message):
        # the jump between two finite values overflows to an infinite increment:
        # no flow may see it, and the overflow raises no numpy warning

        def never(lam, z):
            raise AssertionError("the march started")

        op = dataclasses.replace(zoo["box2"], resolvent=never)
        with pytest.raises(ValueError) as err:
            solve_step(op, Projection("elastic_iterated", c=0.5), step_path(times, values))
        assert str(err.value) == f"the input increment at {message} is not finite"

    def test_x_stays_in_domain(self, zoo, rng):
        for name in ("halfline", "box2", "ball2", "wedge"):
            op = zoo[name]
            start = op.domain_projection(rng.normal(size=op.dimension))
            vals = np.vstack([start,
                              start + np.cumsum(rng.normal(0, 1, size=(10, op.dimension)), axis=0)])
            y = StepPath(uniform_partition(1.0, 10), vals)
            sol = solve_step(op, CLASSICAL, y)
            for row in sol.x.values:
                assert op.domain_distance(row) <= 1e-7


class TestSolveSteps:
    """``solve_steps`` marches the paths of one grid together; each path's
    solution is its own ``solve_step`` bit for bit."""

    EXTRA = {"zero3": lambda: linear_monotone(np.zeros((3, 3))),
             "triangle": lambda: indicator_polyhedron([([-1.0, 0.0], 0.0), ([0.0, -1.0], 0.0),
                                                       ([1.0, 1.0], 1.0)])}

    @staticmethod
    def paths(op, rng, count, times):
        out = []
        for _ in range(count):
            start = op.domain_projection(rng.normal(0.0, 1.0, size=op.dimension))
            incs = rng.normal(0.0, 0.8, size=(times.size - 1, op.dimension))
            out.append(StepPath(Partition(times.copy()),
                                np.vstack([start, start + np.cumsum(incs, axis=0)])))
        return out

    @staticmethod
    def assert_same(got, want):
        for a, b in [(got.x.values, want.x.values), (got.x_pre, want.x_pre),
                     (got.k.total.values, want.k.total.values),
                     (got.k.continuous.values, want.k.continuous.values),
                     (got.k.jump.values, want.k.jump.values)]:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert got.flow_substeps == want.flow_substeps

    @pytest.mark.parametrize("count", [1, 5])
    @pytest.mark.parametrize("proj", [CLASSICAL, Projection("elastic", c=0.7),
                                      Projection("elastic_iterated", c=0.5)],
                             ids=["classical", "elastic", "elastic_iterated"])
    @pytest.mark.parametrize("name", ["halfline", "box2", "ball2", "wedge", "triangle", "linear1",
                                      "linear2", "rotation2", "zero3", "prox_abs"])
    def test_each_row_is_its_own_solve_step(self, zoo, rng, name, proj, count):
        op = self.EXTRA[name]() if name in self.EXTRA else zoo[name]
        # a ragged grid: every step its own size, so each row's dt is fresh
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.3, size=15))])
        ys = self.paths(op, rng, count, times)
        sols = solve_steps(op, proj, ys, flow_substeps=5)
        assert len(sols) == count
        for y, sol in zip(ys, sols):
            assert sol.y is y
            self.assert_same(sol, solve_step(op, proj, y, flow_substeps=5))

    @pytest.mark.parametrize("count, step", [(1, float), (3, np.ndarray)])
    def test_one_path_marches_float_steps_and_a_batch_one_per_row(self, zoo, rng, count, step):
        # a resolvent without ``power`` is called once per substep
        seen = []
        op = zoo["linear2"]
        spy = dataclasses.replace(
            op, resolvent=lambda lam, z: seen.append((type(lam), np.shape(lam), z.shape))
            or op.resolvent(lam, z))
        ys = self.paths(op, rng, count, uniform_partition(1.0, 4).times)
        solve_steps(spy, CLASSICAL, ys, flow_substeps=2)
        rows = (2,) if count == 1 else (count, 2)
        assert seen == [(step, rows[:-1], rows)] * 8

    @staticmethod
    def mixed_times(rng):
        # steps of exactly 1/32 between fresh ones of random length
        return np.unique(np.concatenate([np.arange(41) / 32, rng.uniform(0.0, 1.25, size=8)]))

    @pytest.mark.parametrize("proj", [CLASSICAL, Projection("elastic", c=0.7),
                                      Projection("elastic_iterated", c=0.5)],
                             ids=["classical", "elastic", "elastic_iterated"])
    @pytest.mark.parametrize("name", ["linear1", "linear2", "rotation2"])
    @pytest.mark.parametrize("grid", ["uniform", "mixed"])
    def test_one_path_is_each_row_of_a_batch(self, zoo, rng, name, proj, grid):
        # the one-path march binds its flow per step length and its projection
        # once; the batch march of two copies takes every step afresh
        op = zoo[name]
        times = uniform_partition(1.0, 40).times if grid == "uniform" else self.mixed_times(rng)
        y = self.paths(op, rng, 1, times)[0]
        one = solve_step(op, proj, y, flow_substeps=5)
        for sol in solve_steps(op, proj, [y, y], flow_substeps=5):
            self.assert_same(one, sol)

    @pytest.mark.parametrize("grid", ["mixed", "past-the-memo"])
    def test_one_path_binds_each_step_length_once(self, zoo, rng, grid):
        op = zoo["rotation2"]
        binds, resolvent = [], op.resolvent

        def counted(lam, z):
            return resolvent(lam, z)

        counted.power = resolvent.power
        counted.bind_power = lambda lam, m: binds.append(lam) or resolvent.bind_power(lam, m)
        spy = dataclasses.replace(op, resolvent=counted)
        if grid == "mixed":
            times = self.mixed_times(rng)
        else:  # 133 exact step lengths, then the same again: all forgotten by then
            lengths = np.arange(1, 2 * _LINEAR_INVERSE_CACHE + 6) / 1024
            times = np.concatenate([[0.0], np.cumsum(np.concatenate([lengths, lengths]))])
        y = self.paths(op, rng, 1, times)[0]
        self.assert_same(solve_step(spy, CLASSICAL, y, flow_substeps=4),
                         solve_steps(op, CLASSICAL, [y, y], flow_substeps=4)[1])
        lengths = dict.fromkeys(np.diff(times).tolist())
        firsts = [t / 4 for t in lengths]
        assert binds == (firsts if grid == "mixed" else firsts * 2)

    def test_an_overflowing_state_stops_the_iterated_kind(self, zoo):
        # x_2 is about -1.7e308, so x_pre_3 + dy_3 = -1.7e308 - 1.7e308 overflows
        y = step_path([0.0, 1.0, 51.0, 51.001], [[0.0], [1.7e308], [0.0], [-1.7e308]])
        with np.errstate(over="ignore"):
            with pytest.raises(NonConvergenceError) as err:
                solve_step(zoo["linear1"], Projection("elastic_iterated", c=0.5), y)
            # the classical kind, the identity here, keeps the infinite state,
            # which no solution path may hold: the march names its first step
            with pytest.raises(ValueError, match=r"^the state at step 3 \(t = 51\.001\) "
                                                 r"is not finite$"):
                solve_step(zoo["linear1"], CLASSICAL, y)
            ok = step_path(y.partition.times, [[0.0], [1.0], [0.0], [-1.0]])
            with pytest.raises(ValueError, match=r"^path 1: the state at step 3 "
                                                 r"\(t = 51\.001\) is not finite$"):
                solve_steps(zoo["linear1"], CLASSICAL, [ok, y, ok])
        assert str(err.value) == ("iterated elastic projection cannot stabilize from the "
                                  "non-finite point [-inf]")
        assert err.value.last.tolist() == [-np.inf] and math.isnan(err.value.residual)

    def test_errors_name_their_path(self, zoo, rng):
        op = zoo["box2"]
        times = uniform_partition(1.0, 4).times
        ys = self.paths(op, rng, 3, times)
        outside = StepPath(ys[1].partition, np.vstack([[-2.0, -2.0], ys[1].values[1:]]))
        with pytest.raises(DomainViolationError, match=r"^path 1: y_0 outside the domain "
                                                       r"closure \(distance 2\.828e\+00\)$"):
            solve_steps(op, CLASSICAL, [ys[0], outside, ys[2]])
        big = ys[2].values.copy()
        big[2:] = [[1e308, 1e308], [-1e308, -1e308], [-1e308, -1e308]]
        with pytest.raises(ValueError, match=r"^path 2: the input increment at step 3 "
                                             r"\(t = 0\.75\) is not finite$"):
            solve_steps(op, CLASSICAL, [ys[0], ys[1], StepPath(ys[2].partition, big)])
        # the first failing path in index order is named, whatever its check: path 0's
        # increment before path 1's y_0, and path 0's y_0 before path 1's dimension
        with pytest.raises(ValueError, match=r"^path 0: the input increment at step 3 "
                                             r"\(t = 0\.75\) is not finite$"):
            solve_steps(op, CLASSICAL, [StepPath(ys[2].partition, big), outside, ys[1]])
        with pytest.raises(DomainViolationError, match=r"^path 0: y_0 outside the domain "):
            solve_steps(op, CLASSICAL, [outside, self.paths(zoo["halfline"], rng, 1, times)[0]])
        with pytest.raises(ValueError, match="^path 1: the input paths must share one grid$"):
            solve_steps(op, CLASSICAL, [ys[0], self.paths(op, rng, 1, times[:-1])[0]])
        with pytest.raises(ValueError, match="^path 2: input dimension does not match"):
            solve_steps(op, CLASSICAL, [*ys[:2], self.paths(zoo["halfline"], rng, 1, times)[0]])

    def test_one_path_keeps_its_messages(self, zoo):
        y = step_path([0.0, 1.0], [-1.0, 1.0])
        for solve in (lambda: solve_step(zoo["halfline"], CLASSICAL, y),
                      lambda: solve_steps(zoo["halfline"], CLASSICAL, [y])):
            with pytest.raises(DomainViolationError) as err:
                solve()
            assert str(err.value) == "y_0 outside the domain closure (distance 1.000e+00)"
            assert err.value.distance == 1.0


class TestHalflineOracle:
    def test_constant(self):
        y = step_path([0.0, 1.0], [3.0, 3.0])
        sol = reflect_halfline_oracle(y)
        np.testing.assert_allclose(sol.x.values.ravel(), 3.0)
        np.testing.assert_allclose(sol.k.total.values.ravel(), 0.0)

    def test_two_step(self):
        y = step_path([0.0, 1.0], [1.0, -1.0])
        sol = reflect_halfline_oracle(y)
        np.testing.assert_allclose(sol.x.values.ravel(), [1.0, 0.0])
        np.testing.assert_allclose(sol.k.total.values.ravel(), [0.0, -1.0])

    def test_running_minimum_three_step(self):
        # hand-evaluated running-minimum formula
        y = step_path([0.0, 0.5, 1.0], [0.0, -2.0, 1.0])
        sol = reflect_halfline_oracle(y)
        np.testing.assert_allclose(sol.x.values.ravel(), [0.0, 0.0, 3.0])
        np.testing.assert_allclose(sol.k.total.values.ravel(), [0.0, -2.0, -2.0])

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            reflect_halfline_oracle(step_path([0.0, 1.0], [-0.5, 1.0]))

    def test_passes_verification(self, zoo, rng, zoo_pairs):
        y = random_halfline_path(rng)
        sol = reflect_halfline_oracle(y)
        rep = verify_solution(zoo["halfline"], CLASSICAL, sol,
                              test_pairs=zoo_pairs["halfline"])
        assert rep.passed, rep.failures
        assert rep.additivity_residual <= 1e-12
        assert rep.jump_condition_residual <= 1e-12

    def test_oracle_equivalence_100_random_paths(self, zoo, rng):
        worst = 0.0
        for _ in range(100):
            y = random_halfline_path(rng)
            a = solve_step(zoo["halfline"], CLASSICAL, y)
            b = reflect_halfline_oracle(y)
            worst = max(worst, np.max(np.abs(a.x.values - b.x.values)))
        assert worst <= 1e-10


class TestVerifySolution:
    def test_valid_solutions_pass(self, zoo, zoo_pairs, rng):
        for name in ("halfline", "box2", "ball2", "linear1", "prox_abs"):
            op = zoo[name]
            start = op.domain_projection(rng.normal(size=op.dimension))
            vals = np.vstack([start,
                              start + np.cumsum(rng.normal(0, 1, size=(12, op.dimension)), axis=0)])
            y = StepPath(uniform_partition(1.0, 12), vals)
            sol = solve_step(op, CLASSICAL, y)
            rep = verify_solution(op, CLASSICAL, sol, test_pairs=zoo_pairs[name])
            assert rep.passed, (name, rep.failures)
            assert rep.additivity_residual <= 1e-8
            assert rep.monotonicity_worst >= -1e-9

    def test_tampered_solution_fails_additivity(self, zoo):
        y = step_path([0.0, 1.0, 2.0], [1.0, 1.0, -1.0])
        sol = solve_step(zoo["halfline"], CLASSICAL, y)
        bad_x = sol.x.values.copy()
        bad_x[1] += 0.1
        tampered = type(sol)(x=StepPath(sol.x.partition, bad_x), k=sol.k, y=sol.y,
                             x_pre=sol.x_pre, flow_substeps=sol.flow_substeps)
        rep = verify_solution(zoo["halfline"], CLASSICAL, tampered)
        assert not rep.passed
        assert any("additivity" in f for f in rep.failures)

    def test_interior_pair_trivial_integral(self, zoo):
        # pure-jump k: the monotonicity sum reduces to 0 for (interior, 0)
        y = step_path([0.0, 0.5, 1.0], [1.0, -1.0, 2.0])
        sol = solve_step(zoo["halfline"], CLASSICAL, y)
        rep = verify_solution(zoo["halfline"], CLASSICAL, sol,
                              test_pairs=[(np.array([2.0]), np.array([0.0]))])
        assert rep.passed
        assert rep.monotonicity_worst == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n_pairs", [1, 2, 5])
    @pytest.mark.parametrize("name, per_step", [("linear2", 4), ("box2", 1)])
    def test_flows_each_interval_once_whatever_the_pairs(self, zoo, zoo_pairs, rng,
                                                         name, per_step, n_pairs):
        op = zoo[name]
        start = op.domain_projection(np.full(2, 0.4))
        n = 15
        vals = np.vstack([start, start + np.cumsum(rng.normal(0, 0.3, size=(n - 1, 2)),
                                                   axis=0)])
        sol = solve_step(op, CLASSICAL, StepPath(uniform_partition(1.0, n - 1), vals),
                         flow_substeps=4)
        calls = []
        counted = dataclasses.replace(
            op, resolvent=lambda lam, z: calls.append((lam, z.shape)) or op.resolvent(lam, z))
        pairs = (zoo_pairs[name] * n_pairs)[:n_pairs]
        rep = verify_solution(counted, CLASSICAL, sol, test_pairs=pairs)
        assert rep.passed, rep.failures
        # one batched flow of every interval: per_step calls of n - 1 rows each
        assert len(calls) == per_step
        dt = np.diff(sol.y.partition.times)
        for lam, shape in calls:
            assert shape == (n - 1, 2)
            np.testing.assert_array_equal(lam, dt / 4 if per_step == 4 else dt)
        # the pairs' worst sum does not depend on how many pairs share the flow
        one = verify_solution(op, CLASSICAL, sol, test_pairs=pairs[:1])
        assert rep.monotonicity_worst <= one.monotonicity_worst

    def test_jump_bound(self, zoo, rng):
        for _ in range(20):
            y = random_halfline_path(rng)
            sol = solve_step(zoo["halfline"], CLASSICAL, y)
            rep = verify_solution(zoo["halfline"], CLASSICAL, sol)
            assert rep.jump_bound_margin >= 0.0


class TestComparisonInequalities:
    def make_pair(self, op, proj, rng, steps=30):
        start_a = op.domain_projection(rng.normal(size=op.dimension))
        start_b = op.domain_projection(rng.normal(size=op.dimension))
        inc_a = rng.normal(0, 0.8, size=(steps, op.dimension))
        inc_b = rng.normal(0, 0.8, size=(steps, op.dimension))
        part = uniform_partition(1.0, steps)
        ya = StepPath(part, np.vstack([start_a, start_a + np.cumsum(inc_a, axis=0)]))
        yb = StepPath(part, np.vstack([start_b, start_b + np.cumsum(inc_b, axis=0)]))
        return solve_step(op, proj, ya), solve_step(op, proj, yb)

    @pytest.mark.parametrize("proj", [Projection(),
                                      Projection(kind="elastic_iterated", c=1.0, tol=1e-12)])
    @pytest.mark.parametrize("name", ["halfline", "box2", "ball2", "linear2", "rotation2"])
    def test_bracket_and_distance_inequalities(self, zoo, rng, name, proj):
        op = zoo[name]
        for _ in range(10):
            a, b = self.make_pair(op, proj, rng)
            rep = pair_inequality_report(op, a, b)
            assert rep.worst_bracket >= -1e-9
            assert rep.worst_distance_slack >= -1e-8


def min_subarray_sum_loop(terms):
    """Kadane's scan through the builtin ``min``: the reference for the
    written-out comparisons of ``_min_subarray_sum``."""
    best = running = 0.0
    for v in terms:
        running = min(v, running + v)
        best = min(best, running)
    return best


def verify_solution_loop(op, proj, sol, test_pairs=(), tol=1e-9):
    """``verify_solution`` flowing one interval at a time, one resolvent call
    per point and substep: the reference for its batched flow."""
    y = sol.y
    times = y.partition.times
    failures = []
    add = float(np.max(np.linalg.norm(sol.x.values + sol.k.total.values - y.values, axis=1)))
    if add > tol:
        failures.append(f"additivity residual {add:.3e}")
    k0 = float(np.linalg.norm(sol.k.total.values[0]))
    if k0 != 0.0:
        failures.append(f"k_0 = {k0:.3e} != 0")
    dy = y.jumps()
    dkd_norm = row_norm(sol.k.jump.jumps())
    bound_margin = float(np.min(2.0 * row_norm(dy[1:]) - dkd_norm[1:], initial=np.inf))
    jumps = np.flatnonzero(dkd_norm[1:] > 0.0) + 1
    target = np.asarray(proj(op, sol.x_pre[jumps] + dy[jumps]), dtype=float)
    jump_res = float(np.max(row_norm(sol.x.values[jumps] - target), initial=0.0))
    if jump_res > tol:
        failures.append(f"jump condition residual {jump_res:.3e}")
    if bound_margin < 0.0:
        failures.append(f"|dk| <= 2|dy| violated by {-bound_margin:.3e}")
    mono_worst = 0.0
    if len(test_pairs):
        alphas = np.array([np.atleast_1d(np.asarray(a, dtype=float)) for a, _ in test_pairs])
        betas = np.array([np.atleast_1d(np.asarray(b, dtype=float)) for _, b in test_pairs])
        terms = []
        for j in range(1, times.size):
            states = [sol.x.values[j - 1]]
            steps = flow_steps(op, states[0], times[j] - times[j - 1], sol.flow_substeps)
            states.extend(nxt for _, nxt in steps)
            states = np.array(states)
            cur, nxt = states[:-1], states[1:]
            terms.append(np.vecdot(nxt - alphas[:, None],
                                   (cur - nxt) - steps[0][0] * betas[:, None]))
        for row in np.concatenate(terms, axis=1):
            mono_worst = min(mono_worst, min_subarray_sum_loop(row.tolist()))
    if mono_worst < -tol:
        failures.append(f"monotonicity sum {mono_worst:.3e} below -{tol:.1e}")
    return dict(additivity_residual=add, jump_condition_residual=jump_res,
                jump_bound_margin=float(bound_margin), monotonicity_worst=mono_worst,
                k0_residual=k0, tolerance=tol, passed=not failures, failures=failures)


def pair_inequality_loop(op, a, b):
    """``pair_inequality_report`` walking event by event, one resolvent call
    per point and substep: the reference for its batched form."""
    times = a.y.partition.times
    bracket_terms = []
    v = np.zeros(a.x.dimension)
    w_inner = 0.0
    worst_slack = np.inf
    prev_a, prev_b = a.x.values[0], b.x.values[0]
    for j in range(1, times.size):
        dt = times[j] - times[j - 1]
        b_left = a.y.values[j - 1] - b.y.values[j - 1]
        sa = flow_steps(op, prev_a, dt, a.flow_substeps)
        sb = flow_steps(op, prev_b, dt, b.flow_substeps)
        xa, xb = prev_a, prev_b
        for (_, na), (_, nb) in zip(sa, sb):
            dv = (xa - na) - (xb - nb)
            bracket_terms.append(float((na - nb) @ dv))
            v += dv
            w_inner += float(b_left @ dv)
            xa, xb = na, nb
        wa = xa + (a.y.values[j] - a.y.values[j - 1])
        wb = xb + (b.y.values[j] - b.y.values[j - 1])
        xa_new, xb_new = a.x.values[j], b.x.values[j]
        dv = (wa - xa_new) - (wb - xb_new)
        diff_new = xa_new - xb_new
        bracket_terms.append(float(diff_new @ dv) + 0.5 * float(dv @ dv))
        v += dv
        b_here = a.y.values[j] - b.y.values[j]
        w_inner += float(b_here @ dv)
        s2 = float(b_here @ v) - w_inner
        slack = float(b_here @ b_here) - 2.0 * s2 - float(diff_new @ diff_new)
        worst_slack = min(worst_slack, slack)
        prev_a, prev_b = xa_new, xb_new
    if not np.isfinite(worst_slack):
        worst_slack = 0.0
    return dict(worst_bracket=min_subarray_sum_loop(np.asarray(bracket_terms)),
                worst_distance_slack=float(worst_slack))


def same_fields(report, want):
    """Every field of ``report`` equals ``want``'s, a float by ``float.hex``."""
    got = dataclasses.asdict(report)
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, float):
            assert float.hex(got[key]) == float.hex(value), key
        else:
            assert got[key] == value, key


class TestBatchedCheckers:
    """Both checkers take a solution (or pair) or a list of them and flow every
    interval of every solution in one batch; each report equals the per-interval
    loop's bit for bit."""

    @staticmethod
    def solutions(op, proj, rng, ragged, substeps, count=2, steps=12):
        if ragged:
            times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.3, size=steps))])
        else:
            times = uniform_partition(1.0, steps).times
        out = []
        for _ in range(count):
            start = op.domain_projection(rng.normal(0.0, 1.0, size=op.dimension))
            incs = rng.normal(0.0, 0.8, size=(steps, op.dimension))
            y = StepPath(Partition(times), np.vstack([start, start + np.cumsum(incs, axis=0)]))
            out.append(solve_step(op, proj, y, flow_substeps=substeps))
        return out

    @pytest.mark.parametrize("ragged", [False, True], ids=["uniform", "ragged"])
    @pytest.mark.parametrize("substeps", [1, 5, 16])
    @pytest.mark.parametrize("proj", [CLASSICAL, Projection("elastic_iterated", c=0.5)],
                             ids=["classical", "elastic_iterated"])
    @pytest.mark.parametrize("name", ["halfline", "box2", "ball2", "wedge", "linear1",
                                      "linear2", "rotation2", "prox_abs"])
    def test_reports_equal_the_interval_loops(self, zoo, zoo_pairs, rng, name, proj,
                                              substeps, ragged):
        # one solution or pair, or a list checked in one pass: each report equals its
        # own call's and the interval loop's, on a 12-interval and a one-interval grid
        op, pairs = zoo[name], zoo_pairs[name]
        for steps in (12, 1):
            sols = self.solutions(op, proj, rng, ragged, substeps, count=4, steps=steps)
            y = sols[0].y
            # a pair (x, k) that is no solution: its residuals are its own, not 0
            bent = sols[0].x.values + rng.normal(0.0, 1e-3, size=y.values.shape)
            sols.append(dataclasses.replace(sols[0], x=StepPath(y.partition, bent)))
            still = StepPath(y.partition, np.repeat(0.5 * y.values[:1], len(y.values), axis=0))
            sols.append(solve_step(op, proj, still, flow_substeps=substeps))
            assert not sols[-1].k.jump.values.any()  # its k never jumps
            reports = verify_solution(op, proj, sols, test_pairs=pairs)
            assert isinstance(reports, list) and len(reports) == len(sols)
            for sol, rep in zip(sols, reports):
                want = verify_solution_loop(op, proj, sol, test_pairs=pairs)
                same_fields(rep, want)
                same_fields(verify_solution(op, proj, sol, test_pairs=pairs), want)
            # every solution on either side of a pair, the one whose k never jumps too
            a, b = sols, sols[1:] + sols[:1]
            reports = pair_inequality_report(op, a, b)
            assert isinstance(reports, list) and len(reports) == len(a)
            for pa, pb, rep in zip(a, b, reports):
                want = pair_inequality_loop(op, pa, pb)
                same_fields(rep, want)
                same_fields(pair_inequality_report(op, pa, pb), want)
            assert verify_solution(op, proj, sols[:1]) == [verify_solution(op, proj, sols[0])]
            assert pair_inequality_report(op, a[:1], b[:1]) == [reports[0]]

    def test_a_list_shares_one_grid_and_one_substep_count(self, zoo, rng):
        op = zoo["linear2"]
        a, b = self.solutions(op, CLASSICAL, rng, True, 4)
        (other,) = self.solutions(op, CLASSICAL, rng, True, 4, count=1)
        (finer,) = self.solutions(op, CLASSICAL, rng, False, 5, count=1)
        coarse = solve_step(op, CLASSICAL, finer.y, flow_substeps=4)
        for check in (lambda sols: verify_solution(op, CLASSICAL, sols),
                      lambda sols: pair_inequality_report(op, sols, sols[::-1])):
            with pytest.raises(ValueError, match="^solutions must share one grid$"):
                check([a, other])
            with pytest.raises(ValueError, match="^solutions must share the flow substep count$"):
                check([finer, coarse])
        with pytest.raises(ValueError, match="^2 solutions paired with 1$"):
            pair_inequality_report(op, [a, b], [b])
        # a projection resolvent takes one step whatever the count
        halfline = zoo["halfline"]
        (one,) = self.solutions(halfline, CLASSICAL, rng, True, 1, count=1)
        seven = solve_step(halfline, CLASSICAL, one.y, flow_substeps=7)
        assert pair_inequality_report(halfline, [one], [seven]) == \
            [pair_inequality_report(halfline, one, seven)]

    def test_kadane_keeps_mins_nan_and_signed_zero_ties(self, rng):
        cases = [[], [-0.0], [0.0, -0.0], [-0.0, 0.0, -0.0], [1.0, math.nan, -2.0],
                 [math.nan], [-1.0, math.nan], [math.inf, -math.inf, 1.0],
                 rng.normal(size=50).tolist()]
        for terms in cases:
            assert (float.hex(_min_subarray_sum(terms))
                    == float.hex(min_subarray_sum_loop(terms))), terms


class TestStability:
    def test_perturbation_errors_shrink_with_noise_level(self, zoo, rng):
        op = zoo["halfline"]
        y = random_halfline_path(rng, max_steps=30)
        base = solve_step(op, CLASSICAL, y)
        sups = []
        for eps in (1e-2, 1e-3, 1e-4):
            noise = rng.uniform(-eps, eps, size=y.values.shape)
            noise[0] = abs(noise[0])  # keep y_0 >= 0
            pert = StepPath(y.partition, y.values + noise)
            sol = solve_step(op, CLASSICAL, pert)
            sups.append(np.max(np.abs(sol.x.values - base.x.values)))
        assert sups[0] > sups[1] > sups[2]

    def test_projection_choice_washes_out_for_continuous_input(self, zoo):
        # finely discretized continuous input: classical vs iterated elastic
        op = zoo["box2"]
        f = lambda t: np.array([0.5 + 0.8 * np.sin(6.28 * t), 0.5 + 0.8 * np.sin(12.56 * t)])
        for n in (64, 256):
            grid = uniform_partition(1.0, n)
            y = StepPath(grid, np.array([f(t) for t in grid.times]))
            a = solve_step(op, Projection(), y)
            b = solve_step(op, Projection(kind="elastic_iterated", c=1.0), y)
            mesh = y.partition.mesh
            assert np.linalg.norm(a.x.values - b.x.values, axis=1).max() <= 10.0 * mesh
