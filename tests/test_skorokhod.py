import dataclasses
import math

import numpy as np
import pytest

from mmsde import (
    DomainViolationError,
    Partition,
    Projection,
    StepPath,
    indicator_halfspace,
    linear_monotone,
    pair_inequality_report,
    reflect_halfline_oracle,
    solve_step,
    uniform_partition,
    verify_solution,
)

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
        np.testing.assert_allclose(sol.k_path.values.ravel(), [0.0, 0.0, -1.0])

    def test_stationary_interior_point(self, zoo):
        y = step_path([0.0, 0.5, 1.0], [0.4, 0.4, 0.4])
        sol = solve_step(zoo["halfline"], CLASSICAL, y)
        np.testing.assert_allclose(sol.x.values.ravel(), 0.4)
        np.testing.assert_allclose(sol.k_path.values.ravel(), 0.0, atol=1e-15)

    def test_constant_input_linear_decay(self):
        # y = 1 on [0, 1]: x_t = e^{-t}, k_t = 1 - e^{-t} (exponential oracle)
        op = linear_monotone([[1.0]])
        m = 64
        y = StepPath(uniform_partition(1.0, 32), np.ones(33))
        sol = solve_step(op, CLASSICAL, y, flow_substeps=m)
        for t in (0.25, 0.5, 1.0):
            assert abs(sol.x.value_at(t)[0] - math.exp(-t)) <= 2.0 / m
            assert abs(sol.k_path.value_at(t)[0] - (1.0 - math.exp(-t))) <= 2.0 / m

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
                assert op.in_domain(row, 1e-7)


class TestHalflineOracle:
    def test_constant(self):
        y = step_path([0.0, 1.0], [3.0, 3.0])
        sol = reflect_halfline_oracle(y)
        np.testing.assert_allclose(sol.x.values.ravel(), 3.0)
        np.testing.assert_allclose(sol.k_path.values.ravel(), 0.0)

    def test_two_step(self):
        y = step_path([0.0, 1.0], [1.0, -1.0])
        sol = reflect_halfline_oracle(y)
        np.testing.assert_allclose(sol.x.values.ravel(), [1.0, 0.0])
        np.testing.assert_allclose(sol.k_path.values.ravel(), [0.0, -1.0])

    def test_running_minimum_three_step(self):
        # hand-evaluated running-minimum formula
        y = step_path([0.0, 0.5, 1.0], [0.0, -2.0, 1.0])
        sol = reflect_halfline_oracle(y)
        np.testing.assert_allclose(sol.x.values.ravel(), [0.0, 0.0, 3.0])
        np.testing.assert_allclose(sol.k_path.values.ravel(), [0.0, -2.0, -2.0])

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
            op, resolvent=lambda lam, z: calls.append(lam) or op.resolvent(lam, z))
        pairs = (zoo_pairs[name] * n_pairs)[:n_pairs]
        rep = verify_solution(counted, CLASSICAL, sol, test_pairs=pairs)
        assert rep.passed, rep.failures
        assert len(calls) == (n - 1) * per_step
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
