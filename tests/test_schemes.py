import dataclasses
import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest

from conftest import assert_row_is_the_run, chunk_of, chunk_rows
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
    euler_scheme,
    from_step_paths,
    linear_monotone,
    modified_yosida_scheme,
    refine,
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
from mmsde.operators import MIN_RESOLVENT_STEP, flow_steps
from mmsde.schemes import (_diag, _euler, _yosida, bounded_sin_coefficient,
                           diag_linear_coefficient, square_coefficient)

CLASSICAL = Projection()

# each scheme body on a chunk of three rows, at its single-run defaults
BODIES = pytest.mark.parametrize("run", [
    lambda op, c, chunk: _euler(op, CLASSICAL, c, chunk, 16),
    lambda op, c, chunk: _yosida(op, None, [4] * 3, c, chunk, ["yosida"] * 3, 1),
    lambda op, c, chunk: _yosida(op, CLASSICAL, [4] * 3, c, chunk, ["modified_yosida"] * 3, 1),
], ids=["euler", "yosida", "modified_yosida"])


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
        sol = solve_step(op, CLASSICAL, StepPath(Partition(r.times), r.h))
        np.testing.assert_array_equal(out.x.values, sol.x.values)
        np.testing.assert_array_equal(out.k.total.values, sol.k.total.values)

    def test_additive_noise_matches_halfline_oracle(self, zoo):
        op = zoo["halfline"]
        for i in range(10):
            r = noisy_driver(index=i)
            out = euler_scheme(op, CLASSICAL, constant_coefficient([[1.0]]), r)
            oracle = reflect_halfline_oracle(StepPath(Partition(r.times), 1.0 + r.z))
            assert np.max(np.abs(out.x.values - oracle.x.values)) <= 1e-10

    def test_free_case_compounds_to_e(self):
        # A = 0, f(x) = x, Z_t = t, H = 1: X_1 = (1 + 1/n)^n
        op = linear_monotone([[0.0]])
        coeff = Coefficient(f=_diag)
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
                assert op.domain_distance(row) <= 1e-7

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
        resid = np.max(np.abs(out.x.values + out.k.total.values - out.y.values))
        assert resid <= 1e-10
        assert np.max(np.abs(out.k.total.values)) > 0.1

    @pytest.mark.parametrize("scheme", ["euler", "yosida", "modified_yosida"])
    def test_y_is_the_cumsum_of_the_driven_increments(self, zoo, scheme):
        # y is accumulated step by step as the increments are drawn; it must
        # equal, bit for bit, np.cumsum of H_0 and dH_j + f(x_{j-1}) dZ_j
        op = zoo["box2"]
        z = ProcessSpec(2, np.eye(2), np.zeros(2), 3.0, JumpLaw.uniform_ball(1.0, 2))
        h = ProcessSpec(2, 0.5 * np.eye(2), np.ones(2))
        r = simulate(DriverSpec(z=z, h=h, h0=np.array([0.4, 0.6])), uniform_partition(1.0, 32),
                     seed=11, trajectory_index=2)
        coeff = Coefficient(f=lambda x: _diag(0.5 + 0.25 * np.sin(x)))
        out = {
            "euler": lambda: euler_scheme(op, CLASSICAL, coeff, r),
            "yosida": lambda: yosida_scheme(op, 4, coeff, r),
            "modified_yosida": lambda: modified_yosida_scheme(op, CLASSICAL, 4, coeff, r),
        }[scheme]()
        hv, zv, xv = r.h, r.z, out.x.values
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
        coeff = Coefficient(f=lambda x: _diag(0.5 + 0.25 * np.sin(x)))
        k_peak = 0.0
        for i in range(3):
            r = simulate(spec, uniform_partition(1.0, 24), seed=17, trajectory_index=i)
            out = euler_scheme(op, CLASSICAL, coeff, r, flow_substeps=4)
            sol = SkorokhodSolution(out.x, out.k, out.y, out.x_pre, 4)
            rep = verify_solution(op, CLASSICAL, sol, test_pairs=pairs)
            assert rep.passed, rep.failures
            k_peak = max(k_peak, float(np.max(np.abs(out.k.total.values))))
        # the reflection (or, for linear2, the drift) is active
        assert k_peak > 0.01

    def test_counts_coefficient_evaluations(self, zoo):
        r = noisy_driver()
        coeff = constant_coefficient([[1.0]])
        euler_scheme(zoo["halfline"], CLASSICAL, coeff, r)
        assert coeff.evaluations == r.times.size - 1


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
        coeff = Coefficient(f=_diag)
        out = yosida_scheme(op, 16, coeff, r)
        # manual explicit recursion
        x = np.array([1.0])
        for j in range(1, r.times.size):
            x = x + (r.h[j] - r.h[j - 1]) \
                + np.diag(x) @ (r.z[j] - r.z[j - 1])
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
        np.testing.assert_array_equal(out.x.values + out.k.total.values, out.y.values)
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
        coeff = Coefficient(f=lambda x: _diag(np.sin(x)))
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

    @pytest.mark.parametrize("substeps", [1, 3])
    @pytest.mark.parametrize("scheme", ["yosida", "modified_yosida"])
    @pytest.mark.parametrize("name", ["spring", "rotation2"])
    def test_scheme_drift_substeps_are_the_checked_step(self, zoo, name, scheme, substeps):
        # the first grid step drives H_0 by dy = dH + f(H_0) dZ, then makes
        # `substeps` implicit steps of size dt / substeps at lam = 1/n; with
        # one (lam, mu) per row, as the schemes pass them, the bits agree
        op = box_spring()[0] if name == "spring" else zoo[name]
        n = 3.0
        r = drift_driver(h_drift=0.3, z_drift=-1.0, h0=0.5, n=8, d=2)
        coeff = constant_coefficient([[1.0, 0.5], [0.0, 1.0]])
        out = {"yosida": lambda: yosida_scheme(op, n, coeff, r, substeps),
               "modified_yosida": lambda: modified_yosida_scheme(
                   op, CLASSICAL, n, coeff, r, substeps)}[scheme]()
        prev = r.h[:1]
        state = prev + ((r.h[1] - r.h[0])
                        + np.matvec(coeff(prev), r.z[1:2] - r.z[:1]))
        mu = np.diff(r.times)[:1] / substeps
        for _ in range(substeps):
            state = resolvent_of_yosida_step(op, np.array([1.0 / n]), mu, state)
        assert out.x.values[1].tobytes() == state[0].tobytes()


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
        assert (exc.trajectory, exc.time) == (17, float(r.times[exc.step]))
        assert np.isfinite(exc.last).all()
        assert len(seen) == exc.step - 1
        assert all(np.isfinite(w).all() for w in seen)

    def test_explosion_names_the_level_of_its_base_partition(self):
        # the level counts the 15 intervals of the base partition, not the
        # jump times inserted into the grid: this run explodes at step 17
        ctx = _Context(parse_config_text(SQUARE_INI.replace("h0 = 0.5", "h0 = 4")))
        base = refine(uniform_partition(1.0, 5), 3)
        r = simulate(ctx.driver, base, seed=0, trajectory_index=3)
        with pytest.raises(ExplosionError) as info:
            euler_scheme(ctx.op, ctx.proj, ctx.coeff, r)
        exc = info.value
        assert (exc.trajectory, exc.step, exc.level, exc.reference) == (3, 17, 15, False)
        assert str(exc) == ("trajectory 3 exploded: the driven increment at step 17 "
                            f"(t = {float(r.times[17])!r}) is not finite (level 15)")

    def test_escaping_trajectory_runs_once(self):
        # trajectory 1 of the converge_halfline_square golden leaves the ball
        # of radius 2 at 16 steps; the harness evaluates the coefficient once
        # per step, with no second, wider run
        ctx = _Context(parse_config_text(SQUARE_INI))
        r = simulate(ctx.driver, uniform_partition(1.0, 16), seed=3, trajectory_index=1)
        out = ctx.run_scheme("euler", r)
        assert np.max(np.abs(out.x.values)) > 2.0
        assert ctx.coeff.evaluations == out.params["steps"] == r.times.size - 1


def on_grid(times, h0=0.0, z_drift=1.0, d=1):
    """A driver realization with H = h0 and Z_t = z_drift t on the grid ``times``."""
    part = Partition(np.asarray(times, dtype=float))
    h = StepPath(part, np.full((part.times.size, d), float(h0)))
    z = StepPath(part, np.outer(part.times, np.full(d, float(z_drift))))
    return from_step_paths(h, z)


class TestChunkEdge:
    """A chunk march checks its steps and its coefficient once, at entry, and
    runs unchecked kernels inside."""

    @pytest.mark.parametrize("name, step", [
        ("box2", 0.5 * MIN_RESOLVENT_STEP),   # a projection resolvent takes the step t
        ("linear2", 8 * MIN_RESOLVENT_STEP),  # the others take t/m, here t/16
        ("spring", 8 * MIN_RESOLVENT_STEP),
    ])
    def test_a_step_below_resolution_fails_the_chunk_as_flow_steps_does(
            self, zoo, name, step):
        op = box_spring()[0] if name == "spring" else zoo[name]
        coarse = on_grid(uniform_partition(1.0, 8).times, h0=0.5, d=2)
        fine = on_grid([0.0, 0.25, 0.25 + step, 1.0], h0=0.5, d=2)
        t = float(np.diff(fine.times)[1])
        with pytest.raises(ValueError) as kernel:
            flow_steps(op, np.full(2, 0.5), t, 16)
        assert "resolvent step must be" in str(kernel.value)
        for rows in ([fine], [coarse, fine], [fine, coarse, coarse]):
            with pytest.raises(ValueError) as chunk:
                _euler(op, CLASSICAL, zero_coefficient(2), chunk_of(rows), 16)
            assert str(chunk.value) == str(kernel.value), name
        # the same grid with steps of a legal size marches
        _euler(op, CLASSICAL, zero_coefficient(2),
               chunk_of([coarse, on_grid([0.0, 0.25, 0.5, 1.0], h0=0.5, d=2)]), 16)

    @BODIES
    def test_a_coefficient_of_the_wrong_shape_is_rejected(self, zoo, run):
        # one value per point where one 1x1 matrix per point is due
        coeff = Coefficient(f=lambda x: np.ones(x.shape))
        rows = [on_grid(uniform_partition(1.0, 4).times, h0=1.0)] * 3
        with pytest.raises(ValueError, match=re.escape(
                "coefficient must return a 1x1 matrix per point, shape (3, 1, 1), got (3, 1)")):
            run(zoo["halfline"], coeff, chunk_of(rows))

    @pytest.mark.parametrize("substeps", [0, -1])
    def test_yosida_rejects_fewer_than_one_drift_substep(self, zoo, substeps):
        op, r = zoo["box2"], on_grid(uniform_partition(1.0, 4).times, h0=0.5, d=2)
        coeff = zero_coefficient(2)
        for run in (lambda: yosida_scheme(op, 4, coeff, r, substeps),
                    lambda: modified_yosida_scheme(op, CLASSICAL, 4, coeff, r, substeps),
                    lambda: _yosida(op, CLASSICAL, [4, 8], coeff, chunk_of([r, r]),
                                    ["yosida", "modified_yosida"], substeps)):
            with pytest.raises(ValueError, match="^drift_substeps must be >= 1$"):
                run()

    @pytest.mark.parametrize("levels, schemes, name, shape", [
        (4, "yosida", "levels", "()"),
        (4.0, ["yosida", "yosida"], "levels", "()"),
        ([4, 4], "yosida", "schemes", "()"),
        ([4, 8, 16], ["yosida"] * 3, "levels", "(3,)"),
        ([4, 8], ["yosida", "modified_yosida", "yosida"], "schemes", "(3,)"),
    ])
    def test_yosida_needs_one_level_and_scheme_per_row(self, zoo, levels, schemes,
                                                       name, shape):
        op, r = zoo["box2"], on_grid(uniform_partition(1.0, 4).times, h0=0.5, d=2)
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must give one entry per row of the chunk (2), got shape {shape}")):
            _yosida(op, CLASSICAL, levels, zero_coefficient(2), chunk_of([r, r]),
                    schemes, 1)

    @pytest.mark.parametrize("rows", [2, 3])
    def test_a_scheme_run_refuses_a_chunk_of_more_rows(self, zoo, rows):
        # a scheme run takes one realization, a one-row chunk; a body marches many
        op, coeff = zoo["box2"], zero_coefficient(2)
        chunk = chunk_of([on_grid(uniform_partition(1.0, 4).times, h0=0.5, d=2)] * rows)
        for run in (lambda: euler_scheme(op, CLASSICAL, coeff, chunk),
                    lambda: yosida_scheme(op, 4, coeff, chunk),
                    lambda: modified_yosida_scheme(op, CLASSICAL, 4, coeff, chunk)):
            with pytest.raises(ValueError, match=re.escape(
                    f"a scheme run takes a one-row chunk, got {rows} rows")):
                run()

    def test_the_operator_warns_inside_the_march(self):
        # the march silences the coefficient's product only: a proximal map
        # that overflows still warns, and the suite makes that warning an error
        op = convex_prox(lambda lam, z: z * 1e300 * 1e300 / (1.0 + lam), 1)
        rows = [on_grid(uniform_partition(1.0, 4).times, h0=0.5)] * 2
        with pytest.raises(RuntimeWarning, match="overflow"):
            _euler(op, CLASSICAL, constant_coefficient([[1.0]]), chunk_of(rows), 16)


BOX_INI = """\
[operator]
kind = box
lo = 0 0
hi = 1 1

[projection]
kind = elastic_iterated
c = 0.5

[coefficient]
kind = bounded_sin

[driver]
sigma = 0.5
jump_rate = 3
jump_law = gaussian
jump_cov = 0.25
h0 = 0.5 0.5
"""


def driven(coeff, r, x):
    """The driven increments dH_j + f(x_{j-1}) dZ_j of a run's x, one step at a
    time, as the march forms them (0 at t = 0)."""
    dh, dz = np.diff(r.h, axis=0), np.diff(r.z, axis=0)
    dy = np.zeros_like(x)
    for j in range(1, len(x)):
        dy[j] = dh[j - 1] + np.matvec(coeff(x[j - 1:j]), dz[j - 1:j])[0]
    return dy


def assert_k_is_the_step_sum(out, dkc, dkd):
    # k is the running sum of the per-step increments, bit for bit
    assert out.k.continuous.values.tobytes() == np.cumsum(dkc, axis=0).tobytes()
    assert out.k.jump.values.tobytes() == np.cumsum(dkd, axis=0).tobytes()


def sp_replay(op, proj, x, x_pre, dy, times, substeps):
    """The per-step k increments of a ``solve_step`` or Euler run, formed as the
    step once formed them: flow, project, then prev - x_left and w - xi."""
    dkc, dkd = np.zeros_like(x), np.zeros_like(x)
    for j in range(1, len(x)):
        x_left = flow_steps(op, x[j - 1], times[j] - times[j - 1], substeps)[-1][1]
        w = x_left + dy[j]
        xi = np.asarray(proj(op, w), dtype=float)
        assert x_left.tobytes() == x_pre[j].tobytes() and xi.tobytes() == x[j].tobytes()
        dkc[j], dkd[j] = x[j - 1] - x_left, w - xi
    return dkc, dkd


def box_exit():
    """A box realization whose H jumps out through the face x_1 = 1 at t = 0.5."""
    part = uniform_partition(1.0, 8)
    h = np.full((9, 2), 0.5)
    h[4:] = [1.6, 0.4]
    z = np.linspace(0.0, 1.0, 9)[:, None] * [0.3, -0.2]
    return from_step_paths(StepPath(part, h), StepPath(part, z))


class TestKAtTheEdge:
    """k is formed after the march from x, x_pre and y; every increment equals
    the per-step formula that the step used to apply."""

    def test_euler_chunk_on_the_box_with_jumps(self):
        ctx = _Context(parse_config_text(BOX_INI))
        reals = [simulate(ctx.driver, uniform_partition(1.0, 16), 7, i) for i in range(4)]
        reals.append(box_exit())
        assert all(r.jump_flags.any() for r in reals)
        chunk = chunk_of(reals)
        for r, row in zip(reals, chunk_rows(chunk, _euler(ctx.op, ctx.proj, ctx.coeff, chunk, 16))):
            out = assert_row_is_the_run(
                row, lambda: euler_scheme(ctx.op, ctx.proj, ctx.coeff, r, 16))
            x = out.x.values
            dkc, dkd = sp_replay(ctx.op, ctx.proj, x, out.x_pre, driven(ctx.coeff, r, x),
                                 r.times, 16)
            assert_k_is_the_step_sum(out, dkc, dkd)
        assert np.any(out.k.jump.values != 0.0)  # the box exit's

    @pytest.mark.parametrize("substeps", [1, 3])
    def test_modified_yosida_with_a_correction_that_fires(self, substeps):
        ctx = _Context(parse_config_text(BOX_INI))
        r, n = box_exit(), 4.0
        out = modified_yosida_scheme(ctx.op, ctx.proj, n, ctx.coeff, r, substeps)
        x, times = out.x.values, r.times
        dy = driven(ctx.coeff, r, x)
        big = np.maximum(np.linalg.norm(r.jump_h, axis=1), np.linalg.norm(r.jump_z, axis=1))
        dkc, dkd = np.zeros_like(x), np.zeros_like(x)
        for j in range(1, len(x)):
            # the increment, the projection where the driver jumps by more
            # than 1/n, then the implicit drift steps
            state = x[j - 1] + dy[j]
            pre = state
            if r.jump_flags[j] and big[j] > 1.0 / n:
                pre = np.asarray(ctx.proj(ctx.op, state), dtype=float)
                dkd[j] = state - pre
            drifted = pre
            for _ in range(substeps):
                drifted = resolvent_of_yosida_step(ctx.op, 1.0 / n,
                                                   (times[j] - times[j - 1]) / substeps, drifted)
            assert drifted.tobytes() == x[j].tobytes()
            dkc[j] = pre - drifted
        assert_k_is_the_step_sum(out, dkc, dkd)
        assert np.count_nonzero(dkd[:, 0]) == 1 and dkd[4, 0] > 0.5

    @pytest.mark.parametrize("name, proj", [
        ("linear2", CLASSICAL), ("box2", Projection(kind="elastic_iterated", c=0.5))])
    def test_solve_step(self, zoo, rng, name, proj):
        op = zoo[name]
        part = uniform_partition(1.0, 24)
        steps = rng.normal(0.0, 0.6, size=(24, 2))
        y = StepPath(part, np.vstack([[0.5, 0.5], [0.5, 0.5] + np.cumsum(steps, axis=0)]))
        sol = solve_step(op, proj, y, flow_substeps=5)
        dkc, dkd = sp_replay(op, proj, sol.x.values, sol.x_pre, y.jumps(), part.times, 5)
        assert_k_is_the_step_sum(sol, dkc, dkd)
        assert np.any(dkc != 0.0) if name == "linear2" else np.any(dkd != 0.0)

    @pytest.mark.parametrize("run, single", [
        (lambda ctx, chunk: _euler(ctx.op, ctx.proj, ctx.coeff, chunk, 16),
         lambda ctx, r: euler_scheme(ctx.op, ctx.proj, ctx.coeff, r)),
        (lambda ctx, chunk: _yosida(ctx.op, ctx.proj, [4, 4], ctx.coeff, chunk,
                                    ["modified_yosida"] * 2, 1),
         lambda ctx, r: modified_yosida_scheme(ctx.op, ctx.proj, 4, ctx.coeff, r)),
    ], ids=["euler", "modified_yosida"])
    def test_an_exploding_row_leaves_the_live_rows_k_quiet(self, run, single):
        # the retired row's later points are undefined: forming k there could
        # overflow or turn invalid, which the suite makes an error
        ctx = _Context(parse_config_text(SQUARE_INI))
        reals = [simulate(ctx.driver, uniform_partition(1.0, 64), 0, i) for i in (17, 0)]
        chunk = chunk_of(reals)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            exploded, live = chunk_rows(chunk, run(ctx, chunk))
            one = assert_row_is_the_run(live, lambda: single(ctx, reals[1]))
        assert isinstance(exploded, ExplosionError)
        assert np.isfinite(one.k.total.values).all()


DIAGONAL_KINDS = {
    "constant-1d": lambda d: constant_coefficient([[0.8]]),
    "constant-2d": lambda d: constant_coefficient([[0.8, 0.0], [0.0, -1.5]]),
    "zero": zero_coefficient,
    "diag_linear": lambda d: diag_linear_coefficient([0.7, -1.3][:d]),
    "bounded_sin": lambda d: bounded_sin_coefficient(d, 0.5, 0.25),
    "square": lambda d: square_coefficient(),
}


class TestDiagonalCoefficients:
    """A diagonal coefficient's f returns the diagonals, and the march multiplies
    them into dZ elementwise: the bits of the matrix product it replaces."""

    @pytest.mark.parametrize("b", [1, 8, 64])
    @pytest.mark.parametrize("kind, d", [
        ("constant-1d", 1), ("constant-2d", 2),
        *((kind, d) for kind in ("zero", "diag_linear", "bounded_sin", "square") for d in (1, 2))])
    def test_the_elementwise_increment_is_the_matrix_increment_bit_for_bit(
            self, rng, kind, d, b):
        coeff = DIAGONAL_KINDS[kind](d)
        assert coeff.diagonal
        noise = ProcessSpec(d, 0.8 * np.eye(d), np.full(d, 0.1), 3.0,
                            JumpLaw.gaussian(np.zeros(d), 0.25 * np.eye(d)))
        r = simulate(DriverSpec(z=noise, h=noise, h0=np.zeros(d)), uniform_partition(1.0, b),
                     seed=11, trajectory_index=b)
        dh, dz = (np.diff(v, axis=0)[:b] for v in (r.h, r.z))
        x = rng.normal(0.0, 2.0, size=(b, d))
        if kind == "square":
            x[::3, -1] = 1e200  # x * x overflows in these rows
        with np.errstate(over="ignore", invalid="ignore"):
            elementwise = dh + coeff.f(x) * dz
            matrix = dh + np.matvec(coeff(x), dz)
        assert elementwise.tobytes() == matrix.tobytes()
        finite = np.isfinite(elementwise).all(axis=-1)
        np.testing.assert_array_equal(finite, np.isfinite(matrix).all(axis=-1))
        assert finite.tolist() == [kind != "square" or i % 3 != 0 for i in range(b)]

    def test_calling_a_diagonal_coefficient_gives_its_matrices(self):
        coeff = diag_linear_coefficient([2.0, 3.0])
        np.testing.assert_array_equal(coeff(np.array([1.0, -1.0])), [[2.0, 0.0], [0.0, -3.0]])
        chunk = np.arange(10.0).reshape(5, 2)
        out = coeff(chunk)
        assert out.shape == (5, 2, 2)
        np.testing.assert_array_equal(np.diagonal(out, axis1=1, axis2=2), [2.0, 3.0] * chunk)
        assert coeff.evaluations == 6

    def test_a_constant_with_off_diagonal_entries_keeps_the_matrix_product(self):
        coeff = constant_coefficient([[1.0, 0.5], [0.0, 1.0]])
        assert not coeff.diagonal
        assert coeff.f(np.zeros((3, 2))).shape == (3, 2, 2)
        # Z_t = t on a grid of step 1/4 and a constant H: each dY is M (1/4, 1/4)
        r = on_grid(uniform_partition(1.0, 4).times, h0=0.5, d=2)
        out = euler_scheme(linear_monotone(np.zeros((2, 2))), CLASSICAL, coeff, r)
        np.testing.assert_array_equal(out.y.jumps()[1:], [[0.375, 0.25]] * 4)

    def test_a_coefficient_of_its_own_may_be_diagonal(self):
        # the built-in kind's f, given bare: the same bits, and a point call
        # still gives its matrix
        reals = [noisy_driver(index=i, h0=0.3) for i in range(3)]
        op = linear_monotone([[0.5]])
        own = Coefficient(f=lambda x: x * x, diagonal=True)
        chunk = chunk_of(reals)
        a, b = (_euler(op, CLASSICAL, c, chunk, 16) for c in (own, square_coefficient()))
        assert not a[-1] and not b[-1]
        for u, v in zip(a[:3], b[:3]):
            assert u.tobytes() == v.tobytes()
        np.testing.assert_array_equal(own(np.array([3.0])), [[9.0]])

    @BODIES
    def test_a_diagonal_coefficient_of_the_wrong_shape_is_rejected(self, zoo, run):
        # one 1x1 matrix per point where one diagonal of length 1 is due
        coeff = Coefficient(f=lambda x: np.ones(x.shape + (1,)), diagonal=True)
        rows = [on_grid(uniform_partition(1.0, 4).times, h0=1.0)] * 3
        with pytest.raises(ValueError, match=re.escape(
                "coefficient must return a diagonal of length 1 per point, shape (3, 1), "
                "got (3, 1, 1)")):
            run(zoo["halfline"], coeff, chunk_of(rows))

    def test_a_single_run_rejects_a_diagonal_coefficient_of_the_wrong_shape(self, zoo):
        coeff = Coefficient(f=lambda x: np.ones(x.shape[:-1] + (1, 1)), diagonal=True)
        with pytest.raises(ValueError, match=re.escape(
                "coefficient must return a diagonal of length 1 per point, shape (1, 1), "
                "got (1, 1, 1)")):
            euler_scheme(zoo["halfline"], CLASSICAL, coeff, noisy_driver())


class TestTracedNames:
    """A tracer that overrides a ``Projection``'s ``__call__``, or swaps a
    coefficient's ``f`` by ``dataclasses.replace``, sees every step of the
    march and changes none of its bits."""

    def test_a_counted_projection_and_coefficient_see_every_step_of_the_march(self):
        # the march steps all its rows at once, once per step of the longest
        # row, however many times the rows' grids hold between them
        ctx = _Context(parse_config_text(BOX_INI))
        reals = [simulate(ctx.driver, uniform_partition(1.0, n), 7, i)
                 for i, n in enumerate((8, 32, 128, 32))]
        union_steps = np.unique(np.concatenate([r.times for r in reals])).size - 1
        steps = max(r.times.size for r in reals) - 1
        assert steps < union_steps  # jumps differ
        calls = Counter()

        class CountedProjection(Projection):
            def __call__(self, op, z):
                calls["projection"] += 1
                return super().__call__(op, z)

        def counted(x):
            calls["coefficient"] += 1
            return ctx.coeff.f(x)

        proj = CountedProjection(ctx.proj.kind, ctx.proj.c, ctx.proj.tol, ctx.proj.max_iter)
        chunk = chunk_of(reals)
        *plain, errors = _euler(ctx.op, ctx.proj, ctx.coeff, chunk, 16)
        assert not errors
        for p, c, key in ((proj, ctx.coeff, "projection"),
                          (ctx.proj, dataclasses.replace(ctx.coeff, f=counted), "coefficient")):
            calls.clear()
            *marched, _ = _euler(ctx.op, p, c, chunk, 16)
            assert calls == {key: steps}
            # x, x_pre and dy, of which k is a pure function
            for u, v in zip(marched, plain):
                assert u.tobytes() == v.tobytes()
