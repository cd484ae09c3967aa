import math

import numpy as np
import pytest

from mmsde import (
    Coefficient,
    DomainViolationError,
    DriverSpec,
    JumpLaw,
    Partition,
    ProcessSpec,
    Projection,
    StepPath,
    constant_coefficient,
    discretize,
    euler_scheme,
    from_step_paths,
    linear_monotone,
    modified_yosida_scheme,
    reflect_halfline_oracle,
    resolvent_of_yosida_step,
    run_truncated,
    simulate,
    solve_step,
    truncate,
    uniform_partition,
    yosida_a,
    yosida_scheme,
    zero_coefficient,
)

CLASSICAL = Projection()


def drift_driver(h_drift=0.0, z_drift=0.0, h0=0.0, n=16, horizon=1.0, d=1):
    z = ProcessSpec(d, np.zeros((d, d)), np.full(d, float(z_drift)))
    h = ProcessSpec(d, np.zeros((d, d)), np.full(d, float(h_drift)))
    spec = DriverSpec(z=z, h=h, h0=np.full(d, float(h0)))
    return simulate(spec, uniform_partition(horizon, n), seed=0)


def noisy_driver(seed=5, index=0, sigma=1.0, rate=2.0, h0=1.0, n=32, horizon=1.0):
    z = ProcessSpec(1, np.array([[sigma]]), np.zeros(1), rate,
                    JumpLaw.gaussian([0.0], [[0.25]]) if rate > 0 else None)
    spec = DriverSpec(z=z, h=ProcessSpec.zero(1), h0=np.array([h0]))
    return simulate(spec, uniform_partition(horizon, n), seed=seed,
                    trajectory_index=index)


class TestEulerScheme:
    def test_zero_coefficient_reduces_to_skorokhod_problem(self, zoo, rng):
        op = zoo["halfline"]
        r = noisy_driver()
        out = euler_scheme(op, CLASSICAL, zero_coefficient(1), r)
        sol = solve_step(op, CLASSICAL, discretize(r.h, r.grid))
        np.testing.assert_array_equal(out.x.values, sol.x.values)
        np.testing.assert_array_equal(out.k_path.values, sol.k_path.values)

    def test_additive_noise_matches_halfline_oracle(self, zoo):
        op = zoo["halfline"]
        for i in range(10):
            r = noisy_driver(index=i)
            out = euler_scheme(op, CLASSICAL, constant_coefficient([[1.0]]), r)
            oracle = reflect_halfline_oracle(StepPath(r.grid, 1.0 + r.z.values))
            assert np.max(np.abs(out.x.values - oracle.x.values)) <= 1e-10

    def test_free_case_compounds_to_e(self):
        # A = 0, f(x) = x, Z_t = t, H = 1: X_1 = (1 + 1/n)^n
        op = linear_monotone([[0.0]])
        coeff = Coefficient(f=lambda x: np.diag(x), lipschitz=1.0)
        for n in (16, 64, 256):
            r = drift_driver(z_drift=1.0, h0=1.0, n=n)
            out = euler_scheme(op, CLASSICAL, coeff, r)
            compounded = (1.0 + 1.0 / n) ** n
            assert out.x.values[-1, 0] == pytest.approx(compounded, abs=1e-12)
            assert abs(out.x.values[-1, 0] - math.e) <= 3.0 / n

    def test_iterates_stay_in_domain(self, zoo):
        for name in ("halfline", "box2", "ball2"):
            op = zoo[name]
            z = ProcessSpec(op.dimension, 0.8 * np.eye(op.dimension),
                            np.zeros(op.dimension), 1.0,
                            JumpLaw.uniform_ball(0.6, op.dimension))
            h0 = op.domain_projection(np.full(op.dimension, 0.4))
            spec = DriverSpec(z=z, h=ProcessSpec.zero(op.dimension), h0=h0)
            r = simulate(spec, uniform_partition(1.0, 24), seed=3)
            out = euler_scheme(op, CLASSICAL, constant_coefficient(np.eye(op.dimension)), r)
            for row in out.x.values:
                assert op.in_domain(row, 1e-7)

    def test_jump_bound_inherited(self, zoo):
        op = zoo["halfline"]
        for i in range(5):
            r = noisy_driver(index=i)
            out = euler_scheme(op, CLASSICAL, constant_coefficient([[0.8]]), r)
            dk = np.linalg.norm(out.k.jump.jumps(), axis=1)
            dy = np.linalg.norm(out.y.jumps(), axis=1)
            assert np.all(dk <= 2.0 * dy + 1e-15)

    def test_additivity_residual(self, zoo):
        r = noisy_driver()
        out = euler_scheme(zoo["halfline"], CLASSICAL, constant_coefficient([[1.0]]), r)
        resid = np.max(np.abs(out.x.values + out.k_path.values - out.y.values))
        assert resid <= 1e-10

    def test_counts_coefficient_evaluations(self, zoo):
        r = noisy_driver()
        coeff = constant_coefficient([[1.0]])
        euler_scheme(zoo["halfline"], CLASSICAL, coeff, r)
        assert coeff.evaluations == r.grid.times.size - 1


class TestYosidaScheme:
    def test_drift_into_boundary_balances_at_soft_wall(self, zoo):
        # dH = -dt pushes into the wall; A_n balances at exactly -1/n
        op = zoo["halfline"]
        for n_level in (2, 8, 32):
            r = drift_driver(h_drift=-1.0, h0=0.0, n=64)
            out = yosida_scheme(op, n_level, zero_coefficient(1), r)
            assert abs(out.x.values[-1, 0]) <= 1.0 / n_level + 2.0 / 64

    def test_zero_operator_gives_explicit_euler_maruyama(self):
        op = linear_monotone([[0.0]])
        r = noisy_driver()
        coeff = Coefficient(f=lambda x: np.diag(x), lipschitz=1.0)
        out = yosida_scheme(op, 16, coeff, r)
        # manual explicit recursion
        x = np.array([1.0])
        for j in range(1, r.grid.times.size):
            x = x + (r.h.values[j] - r.h.values[j - 1]) \
                + np.diag(x) @ (r.z.values[j] - r.z.values[j - 1])
            assert out.x.values[j] == pytest.approx(x, abs=1e-12)

    def test_pointwise_gap_to_euler_shrinks_with_stiffness(self, zoo):
        # deterministic wall push: the Yosida iterate sits ~1/n below the
        # reflected state, so the gap decays as n grows
        op = zoo["halfline"]
        r = drift_driver(h_drift=-1.0, h0=0.5, n=256, horizon=2.0)
        ref = euler_scheme(op, CLASSICAL, zero_coefficient(1), r)
        gaps = []
        for n_level in (4, 16, 64):
            out = yosida_scheme(op, n_level, zero_coefficient(1), r)
            gaps.append(abs(out.x.values[-1, 0] - ref.x.values[-1, 0]))
        assert gaps[0] > gaps[1] > gaps[2]


class TestModifiedYosida:
    def test_identical_without_jumps(self, zoo):
        op = zoo["halfline"]
        r = noisy_driver(rate=0.0)
        assert r.jump_flags.sum() == 0
        coeff = constant_coefficient([[1.0]])
        a = yosida_scheme(op, 4, coeff, r)
        b = modified_yosida_scheme(op, CLASSICAL, 4, coeff, r)
        np.testing.assert_array_equal(a.x.values, b.x.values)

    def test_big_jump_projected_exactly(self, zoo):
        # one H-jump of size -2 at t = 0.5 exceeds 1/n: the state is
        # projected onto the domain before the drift step
        op = zoo["halfline"]
        part = Partition(np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
        h = StepPath(part, np.array([1.0, 1.0, -1.0, -1.0, -1.0]))
        z = StepPath(part, np.zeros(5))
        r = from_step_paths(h, z)
        out = modified_yosida_scheme(op, CLASSICAL, 10, zero_coefficient(1), r)
        assert out.x.value_at(0.5)[0] == 0.0  # exact projection
        plain = yosida_scheme(op, 10, zero_coefficient(1), r)
        assert plain.x.value_at(0.5)[0] < 0.0  # soft wall lags behind

    def test_small_jumps_below_threshold_ignored(self, zoo):
        op = zoo["halfline"]
        part = uniform_partition(1.0, 4)
        h = StepPath(part, np.array([1.0, 1.0, 0.95, 0.95, 0.95]))
        z = StepPath(part, np.zeros(5))
        r = from_step_paths(h, z)
        coeff = zero_coefficient(1)
        a = yosida_scheme(op, 4, coeff, r)  # threshold 0.25 > jump 0.05
        b = modified_yosida_scheme(op, CLASSICAL, 4, coeff, r)
        np.testing.assert_array_equal(a.x.values, b.x.values)


class TestStartPoint:
    @pytest.mark.parametrize("scheme", ["euler", "yosida", "modified_yosida"])
    def test_rejects_h0_outside_domain_closure(self, zoo, scheme):
        op = zoo["halfline"]
        r = drift_driver(h0=-1.0)
        run = {
            "euler": lambda: euler_scheme(op, CLASSICAL, zero_coefficient(1), r),
            "yosida": lambda: yosida_scheme(op, 4, zero_coefficient(1), r),
            "modified_yosida": lambda: modified_yosida_scheme(
                op, CLASSICAL, 4, zero_coefficient(1), r),
        }[scheme]
        with pytest.raises(DomainViolationError,
                           match=r"H_0 outside the domain closure \(distance 1\.000e\+00\)") as err:
            run()
        assert err.value.distance == 1.0
        np.testing.assert_array_equal(err.value.point, [-1.0])


class TestSchemeConsistency:
    def test_all_schemes_agree_in_the_free_deterministic_case(self):
        op = linear_monotone(np.zeros((2, 2)))
        r = drift_driver(h_drift=0.3, z_drift=1.0, h0=0.7, n=32, d=2)
        coeff = Coefficient(f=lambda x: np.diag(np.sin(x)), lipschitz=1.0)
        a = euler_scheme(op, CLASSICAL, coeff, r)
        b = yosida_scheme(op, 7, coeff, r)
        c = modified_yosida_scheme(op, CLASSICAL, 7, coeff, r)
        assert np.max(np.abs(a.x.values - b.x.values)) <= 1e-12
        assert np.max(np.abs(b.x.values - c.x.values)) <= 1e-12


class TestImplicitDriftStep:
    def test_resolvent_of_yosida_identity(self, zoo, rng):
        # y + mu * A_lam(y) = x certifies the implicit step
        for name in ("halfline", "box2", "ball2", "linear1", "linear2", "rotation2"):
            op = zoo[name]
            for _ in range(1000 // 6 + 1):
                x = rng.normal(0.0, 2.0, size=op.dimension)
                lam = float(rng.uniform(0.02, 2.0))
                mu = float(rng.uniform(0.01, 1.0))
                y = resolvent_of_yosida_step(op, lam, mu, x)
                resid = np.linalg.norm(y + mu * yosida_a(op, 1.0 / lam, y) - x)
                assert resid <= 1e-9


class TestTruncation:
    def square(self):
        return Coefficient(f=lambda x: np.diag(x * x),
                           growth=1.0, local_lipschitz=lambda r: 2.0 * r)

    def test_truncate_values(self):
        f2 = truncate(self.square(), 2.0)
        assert f2(np.array([1.0]))[0, 0] == pytest.approx(1.0)
        assert f2(np.array([4.0]))[0, 0] == pytest.approx(0.0)
        assert f2(np.array([2.5]))[0, 0] == pytest.approx(0.5 * 2.5 ** 2)

    def test_truncated_is_lipschitz_bound_declared(self):
        f2 = truncate(self.square(), 2.0)
        assert f2.lipschitz is not None and f2.lipschitz > 0

    def test_requires_local_bounds(self):
        undeclared = Coefficient(f=lambda x: np.diag(x))
        with pytest.raises(ValueError):
            truncate(undeclared, 2.0)

    def test_escalation_never_fires_on_bounded_domain(self):
        from mmsde import indicator_box

        box = indicator_box([0.0], [1.0])
        z = ProcessSpec(1, np.array([[0.5]]), np.zeros(1), 2.0,
                        JumpLaw.gaussian([0.0], [[0.25]]))
        spec = DriverSpec(z=z, h=ProcessSpec.zero(1), h0=np.array([0.5]))
        for i in range(20):
            r = simulate(spec, uniform_partition(1.0, 16), seed=29, trajectory_index=i)
            out2, esc2, rad2 = run_truncated(
                lambda c: euler_scheme(box, CLASSICAL, c, r), self.square(), 2.0)
            out5, esc5, rad5 = run_truncated(
                lambda c: euler_scheme(box, CLASSICAL, c, r), self.square(), 5.0)
            assert esc2 == 0 and esc5 == 0
            np.testing.assert_array_equal(out2.x.values, out5.x.values)

    def test_escalation_grows_radius_when_needed(self):
        # free space with drift: the path exits the starting ball
        op = linear_monotone([[0.0]])
        r = drift_driver(h_drift=4.0, h0=0.0, n=8)
        coeff = Coefficient(f=lambda x: np.diag(x * x), growth=1.0,
                            local_lipschitz=lambda rad: 2.0 * rad)
        out, escalations, radius = run_truncated(
            lambda c: euler_scheme(op, CLASSICAL, c, r), coeff, 1.0)
        assert escalations >= 1
        assert radius >= np.max(np.abs(out.x.values))
