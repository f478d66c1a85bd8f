import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_allocator as reference
from effort_map import lyapunov_value, theta_star
from staballoc import allocator
from staballoc.allocator import (AdaptiveAllocator, init_theta, project_rate,
                                 solve_lyapunov)
from staballoc.controllers import (C_ALPHA_DEFAULT, AllocatorConfig,
                                   bn_is_invertible, build_bn, measured_net)
from staballoc.harness import run_scenario
from staballoc.linmodel import build_bl
from staballoc.params import ConfigError, VehicleParams
from staballoc.scenario import load_scenario


class TestConfig:
    POSITIVE = ("am_scale", "gamma", "v_scale", "theta_bound_factor",
                "theta_bound_floor", "c_alpha")

    def test_defaults_accepted(self):
        AllocatorConfig()

    @pytest.mark.parametrize("name", POSITIVE)
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_non_positive_setting_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            AllocatorConfig(**{name: value})

    @pytest.mark.parametrize("c_alpha", [1e-300, 9e-4, 1.1e3, 1e300])
    def test_c_alpha_outside_its_range_rejected(self, c_alpha):
        # at 1e-300 and 1e300 the allocator could not be built: its effort
        # map lost a column or its rank
        with pytest.raises(ConfigError, match="c_alpha must be in"):
            AllocatorConfig(c_alpha=c_alpha)

    @pytest.mark.parametrize("c_alpha", [1e-3, 1e3])
    def test_c_alpha_range_ends_build_an_allocator(self, c_alpha):
        AdaptiveAllocator(build_bl(VehicleParams(), c_alpha),
                          AllocatorConfig(c_alpha=c_alpha))

    @pytest.mark.parametrize("margin", [0.0, 1.0, -0.05, 1.5, math.nan])
    def test_proj_margin_outside_unit_interval_rejected(self, margin):
        with pytest.raises(ConfigError, match="proj_margin"):
            AllocatorConfig(proj_margin=margin)

    def test_overrides_are_validated(self):
        with pytest.raises(ConfigError, match="gamma"):
            dataclasses.replace(AllocatorConfig(), gamma=-5000.0)


class TestLyapunovSolver:
    def test_diagonal_closed_form(self):
        p = solve_lyapunov(-1.0 * np.eye(5), np.eye(5))
        np.testing.assert_allclose(p, 0.5 * np.eye(5))

    def test_scaled_diagonal(self):
        p = solve_lyapunov(-10.0 * np.eye(5), np.eye(5))
        np.testing.assert_allclose(p, 0.05 * np.eye(5))

    def test_random_stable_matrix_residual(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = rng.standard_normal((5, 5))
            a_m = m - 6.0 * np.eye(5)  # diagonally shifted: Hurwitz
            if np.max(np.linalg.eigvals(a_m).real) >= 0.0:
                continue
            q = np.eye(5)
            p = solve_lyapunov(a_m, q)
            residual = np.linalg.norm(a_m.T @ p + p @ a_m + q)
            assert residual < 1e-9
            assert np.min(np.linalg.eigvalsh(p)) > 0.0

    def test_non_hurwitz_rejected(self):
        with pytest.raises(ValueError):
            solve_lyapunov(np.eye(3), np.eye(3))

    def test_bad_q_rejected(self):
        with pytest.raises(ValueError):
            solve_lyapunov(-np.eye(3), -np.eye(3))


class TestInitTheta:
    def test_right_inverse_identity(self, params):
        b_l = build_bl(params, C_ALPHA_DEFAULT)
        theta0 = init_theta(b_l)
        np.testing.assert_allclose(b_l @ theta0, np.eye(5), atol=1e-9)

    def test_square_case_is_plain_inverse(self):
        m = np.array([[2.0, 1.0], [0.0, 4.0]])
        np.testing.assert_allclose(init_theta(m), np.linalg.inv(m),
                                   atol=1e-12)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            init_theta(np.zeros((3, 5)))


def negated_rate(theta, raw, lo, hi, margin):
    """The projected rate through `project_rate`, which takes and returns
    it negated."""
    return -project_rate(theta, -raw, lo, hi, margin * (hi - lo))


def hexes(x):
    return [float(y).hex() for y in np.ravel(x)]


class TestProjection:
    def test_zero_error_gives_zero_rate(self):
        theta = np.zeros((3, 2))
        raw = np.zeros((3, 2))
        out = negated_rate(theta, raw, theta - 1.0, theta + 1.0, 0.05)
        assert np.all(out == 0.0)

    def test_outward_rate_zeroed_at_bound(self):
        theta = np.array([[1.0]])
        lo, hi = np.array([[-1.0]]), np.array([[1.0]])
        out = negated_rate(theta, np.array([[5.0]]), lo, hi, 0.05)
        assert out[0, 0] == 0.0
        # inward update passes through untouched
        out = negated_rate(theta, np.array([[-5.0]]), lo, hi, 0.05)
        assert out[0, 0] == -5.0

    @given(st.lists(st.floats(-10.0, 10.0), min_size=8, max_size=8),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30)
    def test_box_never_exited(self, raws, seed):
        rng = np.random.default_rng(seed)
        theta = rng.uniform(-1.0, 1.0, (2, 2))
        lo = theta - rng.uniform(0.5, 2.0, (2, 2))
        hi = theta + rng.uniform(0.5, 2.0, (2, 2))
        dt = 0.05
        for i in range(0, len(raws), 4):
            raw = np.array(raws[i:i + 4]).reshape(2, 2)
            rate = negated_rate(theta, raw, lo, hi, 0.05)
            theta = np.clip(theta + dt * rate, lo, hi)
            assert np.all(theta >= lo) and np.all(theta <= hi)

    @given(st.lists(st.sampled_from(["lo", "lo+", "mid", "hi-", "hi"]),
                    min_size=6, max_size=6),
           st.lists(st.one_of(st.floats(-1e3, 1e3),
                              st.sampled_from([0.0, -0.0, math.nan])),
                    min_size=6, max_size=6),
           st.sampled_from([0.05, 0.5, 0.999]))
    @settings(max_examples=200)
    def test_equals_the_reference_bit_for_bit(self, where, raws, margin):
        # theta at a bound, one ulp inside it or in the middle; raw of
        # either sign, a signed zero or NaN
        lo = np.array([-1.0, -2.5, 1e-3, -3e-20, -7.0, 0.25])
        hi = np.array([1.0, -0.5, 3e-3, 1e-20, 5.0, 0.75])
        pick = {"lo": lo, "lo+": np.nextafter(lo, hi),
                "mid": 0.5 * (lo + hi), "hi-": np.nextafter(hi, lo),
                "hi": hi}
        theta = np.array([pick[w][i] for i, w in enumerate(where)])
        raw = np.array(raws)
        assert hexes(negated_rate(theta, raw, lo, hi, margin)) == \
            hexes(reference.project_rate(theta, raw, lo, hi, margin))


class TestScalarAllocation:
    def test_converges_to_inverse_effectiveness(self):
        # one virtual input, one actuator, half effectiveness: the ideal
        # parameter doubles the nominal command
        cfg = AllocatorConfig(am_scale=10.0, gamma=500.0, v_scale=1.0)
        al = AdaptiveAllocator(np.array([[1.0]]), cfg)
        lam = 0.5
        v = np.array([1.0])
        realized = np.array([0.0])
        dt = 1e-3
        for _ in range(8000):
            res = al.step(v, realized, np.array([1.0]), dt)
            realized = lam * res.u_bar
        assert al.theta[0, 0] == pytest.approx(2.0, rel=0.02)
        assert res.u_bar[0] == pytest.approx(2.0, rel=0.02)
        assert realized[0] == pytest.approx(1.0, rel=0.02)

    def test_zero_error_freezes_theta(self):
        cfg = AllocatorConfig(v_scale=1.0)
        al = AdaptiveAllocator(np.array([[1.0]]), cfg)
        theta0 = al.theta.copy()
        # xi == 0 keeps e = 0 regardless of v
        al.step(np.array([1.0]), np.array([1.0]), np.array([1.0]), 1e-3)
        np.testing.assert_allclose(al.theta, theta0)

    def test_error_dynamics_consistency(self):
        # every term of the error equation is computable in the scalar
        # case: a central-difference estimate of de/dt must match
        # A_m e + B Lambda theta_err v to O(dt)
        def residual(dt):
            cfg = AllocatorConfig(am_scale=10.0, gamma=500.0, v_scale=1.0)
            al = AdaptiveAllocator(np.array([[1.0]]), cfg)
            lam = 0.5
            v = np.array([1.0])
            realized = np.array([0.0])
            es, rhss = [], []
            for _ in range(int(round(0.5 / dt))):
                theta_err = al.theta[0, 0] - 2.0  # theta* = 1/lam
                es.append(float(al.xi[0]))
                rhss.append(-10.0 * es[-1] + lam * theta_err * v[0])
                res = al.step(v, realized, np.array([1.0]), dt)
                realized = lam * res.u_bar
            es.append(float(al.xi[0]))
            # skip the startup samples whose stencil straddles the
            # initial stale-measurement kink
            return max(abs((es[k + 1] - es[k - 1]) / (2.0 * dt) - rhss[k])
                       for k in range(3, len(rhss)))

        coarse, fine = residual(2e-3), residual(1e-3)
        assert coarse < 0.1  # O(dt)-small against O(1) signal levels
        assert coarse / fine == pytest.approx(2.0, rel=0.25)

    def test_identity_effectiveness_is_a_fixed_point(self):
        # theta0 already solves the allocation for Lambda = I, so feeding
        # the allocator its own realized net reproduces v almost at once
        # (one-sample measurement lag causes a brief transient)
        cfg = AllocatorConfig(v_scale=1.0)
        al = AdaptiveAllocator(np.array([[1.0]]), cfg)
        v = np.array([1.0])
        realized = np.array([0.0])
        for _ in range(500):
            res = al.step(v, realized, np.array([1.0]), 1e-3)
            realized = res.u_bar  # Lambda = I
        assert realized[0] == pytest.approx(1.0, rel=5e-3)


@pytest.fixture(scope="module")
def bench():
    p = VehicleParams()
    b_l = build_bl(p, C_ALPHA_DEFAULT)
    b_n = build_bn((0.0,) * 4,
                   (p.N_front_static,) * 2 + (p.N_rear_static,) * 2, p)
    return b_l, b_n


class TestVehicleAllocation:
    def test_residual_converges_within_two_seconds(self, bench):
        b_l, b_n = bench
        rng = np.random.default_rng(17)
        v = np.array([6000.0, 2000.0, 4000.0, 3000.0, 2000.0])
        for _ in range(3):
            lam = rng.uniform(0.1, 1.0, 12)
            al = AdaptiveAllocator(b_l, AllocatorConfig())
            realized = np.zeros(5)
            for _ in range(2000):
                res = al.step(v, realized, b_n, 1e-3)
                realized = b_l @ (lam * res.u_bar)
            resid = np.linalg.norm(b_l @ (lam * res.u_bar) - v)
            assert resid < 0.02 * np.linalg.norm(v)

    def test_lyapunov_function_non_increasing(self, bench):
        b_l, b_n = bench
        rng = np.random.default_rng(23)
        lam = rng.uniform(0.1, 1.0, 12)
        al = AdaptiveAllocator(b_l, AllocatorConfig())
        th_star = theta_star(al, lam)
        v = np.array([6000.0, 2000.0, 4000.0, 3000.0, 2000.0])
        realized = np.zeros(5)
        prev = lyapunov_value(al, lam, th_star)
        for _ in range(2000):
            res = al.step(v, realized, b_n, 1e-3)
            realized = b_l @ (lam * res.u_bar)
            val = lyapunov_value(al, lam, th_star)
            assert val <= prev + 1e-6
            prev = val

    def test_error_is_xi_as_the_reference_state_stays_zero(self, bench):
        # the reference model has no input: the oracle's xi_m stays +0.0,
        # so its error xi - xi_m is xi bit for bit, which the step uses
        b_l, b_n = bench
        al, ref = twins()
        v = np.array([1000.0, 0.0, 500.0, -300.0, 0.0])
        for _ in range(100):
            assert_same_step(al, ref, v, np.zeros(5), b_n, 1e-3)
            assert hexes(ref.xi_m) == [(0.0).hex()] * 5
            assert hexes(ref.xi - ref.xi_m) == hexes(al.xi)

    def test_singular_bn_holds_previous_allocation(self, bench):
        b_l, b_n = bench
        al = AdaptiveAllocator(b_l, AllocatorConfig())
        v = np.array([2000.0, 0.0, 0.0, 0.0, 0.0])
        res1 = al.step(v, np.zeros(5), b_n, 1e-3)
        assert res1.bn_ok
        bad = (0.0, *b_n[1:])
        res2 = al.step(v, np.zeros(5), bad, 1e-3)
        assert not res2.bn_ok
        assert al.bn_failures == 1

    def test_rejects_bad_dt(self, bench):
        b_l, b_n = bench
        al = AdaptiveAllocator(b_l, AllocatorConfig())
        with pytest.raises(ValueError):
            al.step(np.zeros(5), np.zeros(5), b_n, 0.0)


P = VehicleParams()

# theta0 entries that are pinv round-off: the roll and pitch columns of
# the 8 steering and traction rows, where the effort map has structural
# zeros
FROZEN = [(i, j) for i in range(8) for j in (3, 4)]


def at_bound(al):
    at = (al.theta <= al.lo) | (al.theta >= al.hi)
    return sorted(map(tuple, np.argwhere(at).tolist()))


def twins(cfg=AllocatorConfig()):
    b_l = build_bl(P, C_ALPHA_DEFAULT)
    return AdaptiveAllocator(b_l, cfg), reference.ReferenceAllocator(b_l, cfg)


def assert_same_step(al, ref, v, realized, bn, dt):
    res, want = al.step(v, realized, bn, dt), ref.step(v, realized, bn, dt)
    assert (hexes(res.u), hexes(res.u_bar), res.residual.hex(),
            res.bn_ok) == (hexes(want.u), hexes(want.u_bar),
                           want.residual.hex(), want.bn_ok)
    assert type(res.residual) is float
    for name in ("theta", "xi"):
        assert hexes(getattr(al, name)) == hexes(getattr(ref, name)), name
    assert hexes(ref.xi_m) == [(0.0).hex()] * len(ref.xi_m)
    assert al.bn_failures == ref.bn_failures
    return res


SIGNED = st.one_of(st.floats(-3e4, 3e4), st.sampled_from([0.0, -0.0]))
PLACES = ("theta0", "lo", "lo+", "hi-", "hi")


@st.composite
def step_inputs(draw):
    """v, realized and a B_n diagonal, optionally with a zero entry, as
    lists; the step takes realized and B_n as tuples, as the harness
    passes them."""
    v = draw(st.lists(SIGNED, min_size=5, max_size=5))
    realized = draw(st.lists(SIGNED, min_size=5, max_size=5))
    bn = list(build_bn(draw(st.lists(st.floats(-0.6, 0.6), min_size=4,
                                     max_size=4)),
                       draw(st.lists(st.floats(500.0, 8000.0), min_size=4,
                                     max_size=4)), P))
    zero = draw(st.integers(-1, 11))
    if zero >= 0:
        bn[zero] = draw(st.sampled_from([0.0, -0.0]))
    return v, realized, bn


class TestAgainstReference:
    """The step against the old step in tests/reference_allocator.py, by
    float.hex on every output and every state array."""

    @given(st.lists(st.sampled_from(PLACES), min_size=60, max_size=60),
           st.lists(step_inputs(), min_size=2, max_size=25),
           st.none() | st.tuples(st.integers(0, 24),
                                 st.sampled_from(["v", "realized", "bn"]),
                                 st.integers(0, 11),
                                 st.sampled_from([math.nan, math.inf,
                                                  -math.inf])),
           st.sampled_from([5e-4, 1e-3, 2e-3]),
           st.sampled_from([AllocatorConfig(),
                            AllocatorConfig(gamma=5.0e6, proj_margin=0.5)]))
    @settings(max_examples=150, deadline=None)
    def test_steps_bit_for_bit(self, places, steps, poison, dt, cfg):
        # theta starts at theta0, at a bound or one ulp inside it, entry by
        # entry (the 16 round-off entries included); one input entry may
        # be NaN or infinite at one step
        al, ref = twins(cfg)
        pick = {"theta0": al.theta, "lo": al.lo, "hi": al.hi,
                "lo+": np.nextafter(al.lo, al.hi),
                "hi-": np.nextafter(al.hi, al.lo)}
        theta = np.array([pick[w].flat[k] for k, w in enumerate(places)])
        al.theta = theta.reshape(al.theta.shape)
        ref.theta = al.theta.copy()
        for k, (v, realized, bn) in enumerate(steps):
            if poison is not None and poison[0] % len(steps) == k:
                _, name, i, bad = poison
                if name == "v":
                    v[i % 5] = bad
                elif name == "realized":
                    realized[i % 5] = bad
                else:
                    bn[i] = bad
            with np.errstate(invalid="ignore", over="ignore"):
                assert_same_step(al, ref, v, tuple(realized), tuple(bn), dt)

    def test_closed_loop_bit_for_bit(self, bench):
        # a long closed loop with an effectiveness loss half way through
        b_l, b_n = bench
        al, ref = twins()
        lam = np.ones(12)
        v = [6000.0, 2000.0, 4000.0, 3000.0, 2000.0]
        realized = np.zeros(5)
        for k in range(3000):
            if k == 1500:
                lam = np.random.default_rng(5).uniform(0.1, 1.0, 12)
            res = assert_same_step(al, ref, v, realized, b_n, 1e-3)
            realized = b_l @ (lam * res.u_bar)

    @given(st.lists(st.one_of(st.floats(), st.sampled_from(
        [1e-6, np.nextafter(1e-6, 1.0), -1e-6, 0.0, -0.0])),
        min_size=1, max_size=12))
    def test_bn_check_matches_reference(self, bn):
        # the pure-Python check on the tuple the harness passes gives the
        # NumPy verdict, NaN included
        assert bn_is_invertible(tuple(bn)) is \
            reference.bn_is_invertible(np.array(bn))


class TestFrozenEntries:
    """16 entries of theta0 are pinv round-off; the box floor catches only
    exact zeros, so their boxes are round-off wide too and any motion puts
    them at a bound."""

    def test_round_off_entries_of_theta0(self):
        al = AdaptiveAllocator(build_bl(P, C_ALPHA_DEFAULT),
                               AllocatorConfig())
        tiny = (al.theta != 0.0) & (np.abs(al.theta) < 1e-15)
        assert sorted(map(tuple, np.argwhere(tiny).tolist())) == FROZEN
        frozen = tuple(np.array(FROZEN).T)
        assert np.all(np.abs(al.theta[frozen]) < 4e-18)
        assert np.all(al.hi[frozen] - al.lo[frozen] < 4e-16)

    @pytest.mark.parametrize("roll_pitch", [(3000.0, 2000.0), (0.0, 0.0)])
    def test_at_a_bound_from_the_second_step(self, bench, roll_pitch):
        # e = 0 on the first step; from the second on, exactly these 16
        # sit at a bound, unless the roll and pitch demands are zero
        b_l, b_n = bench
        al = AdaptiveAllocator(b_l, AllocatorConfig())
        theta0 = al.theta.copy()
        lam = np.random.default_rng(3).uniform(0.1, 1.0, 12)
        v = [6000.0, 2000.0, 4000.0, *roll_pitch]
        realized = np.zeros(5)
        for k in range(500):
            res = al.step(v, realized, b_n, 1e-3)
            realized = b_l @ (lam * res.u_bar)
            assert at_bound(al) == (FROZEN if k and any(roll_pitch) else [])
        if not any(roll_pitch):
            frozen = tuple(np.array(FROZEN).T)
            assert hexes(al.theta[frozen]) == hexes(theta0[frozen])

    @pytest.mark.parametrize("controller,expected",
                             [("proposed", FROZEN), ("hybrid", [])])
    def test_closed_loop_run_ends_with_them_at_a_bound(
            self, monkeypatch, scenario_dir, controller, expected):
        # the suspension fault run to 1.1 s, past its fault at 1 s; the
        # hybrid controller zeroes the roll and pitch demands
        made = []

        class Recorded(AdaptiveAllocator):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        # run_scenario looks the class up in staballoc.allocator on each
        # allocator-mode run, so that is where it is replaced
        monkeypatch.setattr(allocator, "AdaptiveAllocator", Recorded)
        scn = load_scenario(scenario_dir / "suspension_fault.scn")
        run_scenario(dataclasses.replace(scn, horizon=1.1), controller)
        assert at_bound(made[0]) == expected


class TestMeasuredNet:
    def test_rest_is_zero(self, params):
        np.testing.assert_allclose(
            measured_net(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, params),
            np.zeros(5))

    def test_drag_added_back(self, params):
        # coasting: m*a_x = -drag, so actuator-generated force is zero
        v_x = 20.0
        drag = 0.5 * params.rho * params.C_d * params.A_f * v_x ** 2
        net = measured_net(-drag / params.m, 0.0, 0.0, 0.0, 0.0, v_x,
                           params)
        assert net[0] == pytest.approx(0.0, abs=1e-9)

    def test_load_transfer_removed(self, params):
        # steady cornering: roll acceleration zero, lateral acceleration
        # a_y: the roll channel reports only m*a_y*h
        net = measured_net(0.0, 5.0, 0.0, 0.0, 0.0, 0.0, params)
        assert net[3] == pytest.approx(params.m * 5.0 * params.h)
        assert net[1] == pytest.approx(params.m * 5.0)
