import math

import numpy as np
import pytest

from mmsde import (
    Coefficient,
    DomainViolationError,
    DriverSpec,
    ExplosionError,
    JumpLaw,
    Partition,
    ProcessSpec,
    Projection,
    SkorokhodSolution,
    StepPath,
    constant_coefficient,
    convex_prox,
    discretize,
    euler_scheme,
    from_step_paths,
    linear_monotone,
    modified_yosida_scheme,
    reflect_halfline_oracle,
    resolvent_of_yosida_step,
    simulate,
    solve_step,
    uniform_partition,
    verify_solution,
    yosida_a,
    yosida_scheme,
    zero_coefficient,
)
from mmsde.config import parse_config_text
from mmsde.harness import _Context
from mmsde.schemes import square_coefficient

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


def box_spring():
    """Subdifferential of |x|^2 / 2 on the unit box, with graph pairs."""
    op = convex_prox(lambda lam, z: np.clip(z / (1.0 + lam), 0.0, 1.0), 2,
                     domain_projection=lambda z: np.clip(z, 0.0, 1.0))
    pairs = [(np.array([0.5, 0.5]), np.array([0.5, 0.5])),
             (np.array([1.0, 0.5]), np.array([2.0, 0.5])),
             (np.array([0.0, 0.0]), np.array([-1.0, -1.0]))]
    return op, pairs


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
        coeff = Coefficient(f=lambda x: np.diag(x))
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

    @pytest.mark.parametrize("scheme", ["euler", "yosida", "modified_yosida"])
    def test_additivity_residual(self, zoo, scheme):
        # started near the wall, so every scheme's k is nonzero
        r = noisy_driver(h0=0.1)
        op = zoo["halfline"]
        coeff = constant_coefficient([[1.0]])
        out = {
            "euler": lambda: euler_scheme(op, CLASSICAL, coeff, r),
            "yosida": lambda: yosida_scheme(op, 4, coeff, r),
            "modified_yosida": lambda: modified_yosida_scheme(op, CLASSICAL, 4, coeff, r),
        }[scheme]()
        resid = np.max(np.abs(out.x.values + out.k_path.values - out.y.values))
        assert resid <= 1e-10
        assert np.max(np.abs(out.k_path.values)) > 0.1

    @pytest.mark.parametrize("scheme", ["euler", "yosida", "modified_yosida"])
    def test_y_is_the_cumsum_of_the_driven_increments(self, zoo, scheme):
        # y is accumulated step by step as the increments are drawn; it must
        # equal, bit for bit, np.cumsum of H_0 and dH_j + f(x_{j-1}) dZ_j
        op = zoo["box2"]
        z = ProcessSpec(2, np.eye(2), np.zeros(2), 3.0, JumpLaw.uniform_ball(1.0, 2))
        h = ProcessSpec(2, 0.5 * np.eye(2), np.ones(2))
        r = simulate(DriverSpec(z=z, h=h, h0=np.array([0.4, 0.6])), uniform_partition(1.0, 32),
                     seed=11, trajectory_index=2)
        coeff = Coefficient(f=lambda x: np.diag(0.5 + 0.25 * np.sin(x)))
        out = {
            "euler": lambda: euler_scheme(op, CLASSICAL, coeff, r),
            "yosida": lambda: yosida_scheme(op, 4, coeff, r),
            "modified_yosida": lambda: modified_yosida_scheme(op, CLASSICAL, 4, coeff, r),
        }[scheme]()
        hv, zv, xv = r.h.values, r.z.values, out.x.values
        dy = [hv[0]] + [(hv[j] - hv[j - 1]) + coeff.f(xv[j - 1]) @ (zv[j] - zv[j - 1])
                        for j in range(1, hv.shape[0])]
        np.testing.assert_array_equal(out.y.values, np.cumsum(np.stack(dy), axis=0))

    @pytest.mark.parametrize("name", ["box2", "ball2", "wedge", "linear2", "box_spring"])
    def test_output_is_a_skorokhod_solution(self, zoo, zoo_pairs, name):
        # Euler is the Skorokhod map of its realized input: x, the flow and
        # jump split of k, and the left limits x_pre must all verify.  Only
        # box_spring both flows between grid points and projects at jumps,
        # so only it tells x_pre from the previous grid value.
        op, pairs = box_spring() if name == "box_spring" else (zoo[name], zoo_pairs[name])
        d = op.dimension
        z = ProcessSpec(d, np.eye(d), np.zeros(d), 2.0, JumpLaw.uniform_ball(1.0, d))
        spec = DriverSpec(z=z, h=ProcessSpec.zero(d),
                          h0=op.domain_projection(np.full(d, 0.4)))
        coeff = Coefficient(f=lambda x: np.diag(0.5 + 0.25 * np.sin(x)))
        k_peak = 0.0
        for i in range(3):
            r = simulate(spec, uniform_partition(1.0, 24), seed=17, trajectory_index=i)
            out = euler_scheme(op, CLASSICAL, coeff, r, flow_substeps=4)
            sol = SkorokhodSolution(out.x, out.k, out.y, out.x_pre, 4)
            rep = verify_solution(op, CLASSICAL, sol, test_pairs=pairs)
            assert rep.passed, rep.failures
            k_peak = max(k_peak, float(np.max(np.abs(out.k_path.values))))
        # the reflection (or, for linear2, the drift) is active
        assert k_peak > 0.01

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
        coeff = Coefficient(f=lambda x: np.diag(x))
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

    def test_projection_correction_is_the_jump_part_of_k(self, zoo):
        # the H-jump to -1 at t = 0.5 is projected to 0: k jumps by -1 there
        # and the drift never moves a state that sits in the domain
        op = zoo["halfline"]
        part = Partition(np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
        h = StepPath(part, np.array([1.0, 1.0, -1.0, -1.0, -1.0]))
        r = from_step_paths(h, StepPath(part, np.zeros(5)))
        out = modified_yosida_scheme(op, CLASSICAL, 10, zero_coefficient(1), r)
        np.testing.assert_array_equal(out.k.jump.values[:, 0], [0.0, 0.0, -1.0, -1.0, -1.0])
        np.testing.assert_array_equal(out.k.continuous.values[:, 0], np.zeros(5))
        np.testing.assert_array_equal(out.x.values + out.k_path.values, out.y.values)
        assert out.x_pre is None

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
        coeff = Coefficient(f=lambda x: np.diag(np.sin(x)))
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


# half-line, iterated elastic projection, f(x) = diag(x * x): no linear growth
SQUARE_INI = """\
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
"""


class TestExplosion:
    SCHEMES = {
        "euler": lambda op, c, r: euler_scheme(op, CLASSICAL, c, r),
        "yosida": lambda op, c, r: yosida_scheme(op, 4, c, r),
        "modified_yosida": lambda op, c, r: modified_yosida_scheme(op, CLASSICAL, 4, c, r),
    }

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_exploding_driver_raises_at_its_step(self, scheme):
        # H = 2, Z_t = 16 t on 16 steps, so x_j = x_{j-1} + x_{j-1}^2 from 2:
        # x_9 is about 2.6e208 and dy at step 10 = x_9^2 overflows
        part = uniform_partition(1.0, 16)
        h = StepPath(part, np.full((17, 1), 2.0))
        z = StepPath(part, np.arange(17.0)[:, None])
        r = from_step_paths(h, z)
        with pytest.raises(ExplosionError) as info:
            self.SCHEMES[scheme](linear_monotone([[0.0]]), square_coefficient(), r)
        exc = info.value
        assert (exc.trajectory, exc.step, exc.time) == (None, 10, 0.625)
        assert 1e208 < exc.last[0] < np.inf
        assert "step 10 (t = 0.625)" in str(exc)

    def test_explosion_stops_before_the_projection(self):
        # the elastic projection of a NaN would spin through its whole
        # iteration budget; the increment check stops the run first
        ctx = _Context(parse_config_text(SQUARE_INI))
        r = simulate(ctx.driver, uniform_partition(1.0, 64), seed=0, trajectory_index=17)
        seen = []

        def proj(op, w):
            seen.append(w)
            return ctx.proj(op, w)

        with pytest.raises(ExplosionError) as info:
            euler_scheme(ctx.op, proj, ctx.coeff, r)
        exc = info.value
        assert (exc.trajectory, exc.time) == (17, float(r.grid.times[exc.step]))
        assert np.isfinite(exc.last).all()
        assert len(seen) == exc.step - 1
        assert all(np.isfinite(w).all() for w in seen)

    def test_escaping_trajectory_runs_once(self):
        # trajectory 1 of the converge_halfline_square golden leaves the ball
        # of radius 2 at 16 steps; the harness evaluates the coefficient once
        # per step, with no second, wider run
        ctx = _Context(parse_config_text(SQUARE_INI))
        r = simulate(ctx.driver, uniform_partition(1.0, 16), seed=3, trajectory_index=1)
        out = ctx.run_euler(r)
        assert np.max(np.abs(out.x.values)) > 2.0
        assert ctx.coeff.evaluations == out.params["steps"] == r.grid.times.size - 1
