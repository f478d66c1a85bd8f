"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Scenario runs are shared across criteria
through module-scoped fixtures; run with -s (or read the captured output)
to see the per-criterion lines.
"""
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import golden
from effort_map import build_by, lyapunov_value, theta_star
from plant_state import Inputs, PlantState
from staballoc.allocator import AdaptiveAllocator, build_bl, solve_lyapunov
from staballoc.cli import FIGURE_PAIRS
from staballoc.controllers import C_ALPHA_DEFAULT, AllocatorConfig, Gains, \
    build_bn
from staballoc.harness import (BETA_LIMIT, override, run_scenario,
                               sweep_max_speed)
from staballoc.logio import emit_csv
from staballoc.metrics import compute_metrics
from staballoc.params import VehicleParams
from staballoc.plant import normal_forces, step_rk4
from staballoc.scenario import load_scenario
from staballoc.stability import linearize, max_closed_loop_eig, \
    reduced_derivative

P = VehicleParams()


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def runs(scenario_dir):
    """One closed-loop run per shipped (scenario, controller) pair, the
    table behind `staballoc figures`."""
    out = {}
    for name, controllers in FIGURE_PAIRS:
        scn = load_scenario(scenario_dir / f"{name}.scn")
        for ctrl in controllers:
            log = run_scenario(scn, controller=ctrl)
            out[(name, ctrl)] = (log, compute_metrics(log))
    return out


def test_criterion_1_static_physics():
    x = PlantState(z=5e-5, phi=0.02, theta=5e-4).as_list()
    inputs = Inputs().terms(P)
    for _ in range(5000):
        x = step_rk4(x, inputs, P, 1e-3)
    state = PlantState.from_list(x)
    n = normal_forces((state.z_ufl, state.z_ufr, state.z_url, state.z_urr),
                      (0.0,) * 4, P)
    weight_err = abs(sum(n) - P.weight) / P.weight
    ok = (weight_err < 0.005 and abs(state.phi) < 1e-4
          and abs(state.theta) < 1e-4)
    report("criterion 1: static physics", ok,
           f"sum(N)={sum(n):.1f} N vs {P.weight:.0f} N "
           f"(err {100 * weight_err:.4f}%), |roll|={abs(state.phi):.2e}, "
           f"|pitch|={abs(state.theta):.2e} after 5 s")
    assert ok


def test_criterion_2_factorization_identity():
    rng = np.random.default_rng(42)
    b_l = build_bl(P, C_ALPHA_DEFAULT)
    worst = 0.0
    for _ in range(100):
        steer = rng.uniform(-math.radians(30), math.radians(30), 4)
        normals = rng.uniform(500.0, 6000.0, 4)
        b_y = build_by(steer, normals, P)
        b_n = build_bn(steer, normals, P)
        worst = max(worst, float(np.linalg.norm(b_y - b_l @ np.diag(b_n))))
    ok = worst < 1e-9
    report("criterion 2: factorization identity", ok,
           f"worst Frobenius residual over 100 operating points {worst:.2e}")
    assert ok


def test_criterion_3_lyapunov_solver():
    p_exact = solve_lyapunov(-10.0 * np.eye(5), np.eye(5))
    exact_ok = np.allclose(p_exact, 0.05 * np.eye(5), atol=1e-14)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        a_m = rng.standard_normal((5, 5)) - 6.0 * np.eye(5)
        if np.max(np.linalg.eigvals(a_m).real) >= 0.0:
            continue
        q = np.eye(5)
        sol = solve_lyapunov(a_m, q)
        worst = max(worst, float(np.linalg.norm(a_m.T @ sol + sol @ a_m + q)))
    ok = exact_ok and worst < 1e-9
    report("criterion 3: Lyapunov solver", ok,
           f"closed form exact={exact_ok}, worst residual {worst:.2e}")
    assert ok


def test_criterion_4_allocation_convergence():
    b_l = build_bl(P, C_ALPHA_DEFAULT)
    b_n = build_bn((0.0,) * 4,
                   (P.N_front_static,) * 2 + (P.N_rear_static,) * 2, P)
    v = np.array([6000.0, 2000.0, 4000.0, 3000.0, 2000.0])
    rng = np.random.default_rng(99)
    dt = 1e-3
    worst_resid = 0.0
    worst_increase = -np.inf
    for _ in range(3):
        lam = rng.uniform(0.1, 1.0, 12)
        alloc = AdaptiveAllocator(b_l, AllocatorConfig())
        th_star = theta_star(alloc, lam)
        realized = np.zeros(5)
        prev = lyapunov_value(alloc, lam, th_star)
        for _ in range(2000):
            res = alloc.step(v, realized, b_n, dt)
            realized = b_l @ (lam * res.u_bar)
            val = lyapunov_value(alloc, lam, th_star)
            worst_increase = max(worst_increase, val - prev)
            prev = val
        resid = float(np.linalg.norm(realized - v) / np.linalg.norm(v))
        worst_resid = max(worst_resid, resid)
    ok = worst_resid < 0.02 and worst_increase < 1e-6
    report("criterion 4: allocation convergence", ok,
           f"worst residual {100 * worst_resid:.3f}% of |v| after 2 s, "
           f"worst Lyapunov increment {worst_increase:.2e}")
    assert ok


def test_criterion_5_scenario_reproduction(runs):
    _, m_lp = runs[("low_speed", "proposed")]
    _, m_lb = runs[("low_speed", "baseline")]
    low_ok = (not m_lp.spin and not m_lp.diverged
              and not m_lb.spin and not m_lb.diverged)

    _, m_vp = runs[("varying_road", "proposed")]
    _, m_vb = runs[("varying_road", "baseline")]
    vary_ok = (m_vb.spin and not m_vp.spin
               and m_vp.max_beta < math.radians(10.0))

    log_fp, m_fp = runs[("actuator_fault", "proposed")]
    _, m_fb = runs[("actuator_fault", "baseline")]
    fault_ok = (m_fb.spin and not m_fp.spin and not m_fp.diverged
                and len(log_fp) == 10000)

    ok = low_ok and vary_ok and fault_ok
    report("criterion 5: scenario reproduction", ok,
           f"low speed both complete={low_ok}; varying road baseline "
           f"spin={m_vb.spin}, proposed max|beta|="
           f"{math.degrees(m_vp.max_beta):.2f} deg; actuator fault "
           f"baseline spin={m_fb.spin}, proposed completes={fault_ok}")
    assert ok


def test_criterion_6_speed_margin(scenario_dir):
    scn = load_scenario(scenario_dir / "actuator_fault.scn")
    v_base = sweep_max_speed(scn, "baseline", 10.0, 26.0, resolution=0.25)
    v_prop = sweep_max_speed(scn, "proposed", 10.0, 26.0, resolution=0.25)
    ratio = v_prop / v_base
    ok = ratio >= 1.2
    report("criterion 6: speed margin", ok,
           f"max stable speed proposed {v_prop:.2f} m/s vs baseline "
           f"{v_base:.2f} m/s, ratio {ratio:.3f} (>= 1.2 required)")
    assert ok
    # the exact bisection answers on the 0.25 m/s grid, so a change that
    # flips one run's verdict fails here even when the ratio holds
    assert (v_base, v_prop) == (18.75, 26.0)


def test_criterion_6_baseline_fails_one_grid_step_above(scenario_dir):
    # the bisection assumes a single stability threshold in its range; the
    # baseline's answer sits on one only if the grid step above it fails
    # too (the proposed answer, 26.0, is the top of the range)
    scn = load_scenario(scenario_dir / "actuator_fault.scn")
    log = run_scenario(replace(scn, v0=18.75 + 0.25), controller="baseline",
                       beta_limit=BETA_LIMIT)
    assert compute_metrics(log).max_beta >= BETA_LIMIT
    assert log.stop_reason.startswith("|beta| reached the limit")


def test_baseline_spin_in_the_fault_run_depends_on_dt(runs, scenario_dir):
    # a known result, not a target to flip by tuning: the baseline's
    # actuator-fault run spins at dt = 1 ms (the shared run) but not at
    # 2 ms, so "the baseline spins" holds only at the finer steps
    _, m_1ms = runs[("actuator_fault", "baseline")]
    assert m_1ms.spin and math.degrees(m_1ms.max_beta) > 80.0
    scn = load_scenario(scenario_dir / "actuator_fault.scn")
    m_2ms = compute_metrics(run_scenario(override(scn, "baseline", 2e-3)))
    assert not m_2ms.spin and not m_2ms.diverged
    assert math.degrees(m_2ms.max_beta) < 10.0


def test_fault_run_max_beta_converges_in_dt(runs, scenario_dir):
    # the proposed controller's actuator-fault max|beta| at dt = 2, 1 and
    # 0.5 ms agrees within 0.01 deg (the 1 ms run is the shared one)
    scn = load_scenario(scenario_dir / "actuator_fault.scn")
    betas = [math.degrees(compute_metrics(
        run_scenario(override(scn, None, dt))).max_beta)
             for dt in (2e-3, 5e-4)]
    betas.insert(1, math.degrees(runs[("actuator_fault", "proposed")][1]
                                 .max_beta))
    assert max(betas) - min(betas) < 0.01, betas


def test_criterion_7_roll_pitch_reduction(runs):
    _, m_p = runs[("suspension_fault", "proposed")]
    _, m_h = runs[("suspension_fault", "hybrid")]
    roll_ratio = m_p.rms_roll / m_h.rms_roll
    pitch_ratio = m_p.rms_pitch / m_h.rms_pitch
    ok = roll_ratio <= 0.75 and pitch_ratio <= 0.75
    report("criterion 7: roll/pitch reduction", ok,
           f"RMS ratios integrated/independent: roll {roll_ratio:.3f}, "
           f"pitch {pitch_ratio:.3f} (<= 0.75 required)")
    assert ok


def test_criterion_8_linear_closed_loop_stability():
    worst = max(max_closed_loop_eig(Gains(), v0, P) for v0 in (13.0, 20.0))
    bad_gains = Gains(kp_mz=-Gains().kp_mz, ki_mz=-Gains().ki_mz)
    flagged = max_closed_loop_eig(bad_gains, 20.0, P)
    ok = worst < 0.0 and flagged > 0.0
    report("criterion 8: linear closed-loop stability", ok,
           f"max Re(eig) over v0 in (13, 20): {worst:.4f} (< 0 required); "
           f"destabilized gain set flagged at {flagged:.3f} (> 0 required)")
    assert ok


def test_criterion_9_numerical_hygiene(runs, scenario_dir, tmp_path):
    # RK4 observed order on a smooth suspension transient
    x0 = PlantState(z=0.02, phi=0.01, theta=0.005).as_list()
    u = Inputs().terms(P)

    def solve(dt, t_end=0.1):
        x = x0
        for _ in range(int(round(t_end / dt))):
            x = step_rk4(x, u, P, dt)
        return x

    ref = solve(3.125e-5)
    errs = [math.sqrt(sum((a - b) ** 2 for a, b in zip(solve(dt), ref)))
            for dt in (4e-3, 2e-3, 1e-3)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    order_ok = all(3.5 <= o <= 4.5 for o in orders)

    # central-difference linearization: local error is second order
    a = linearize(P, 20.0)
    x_op = np.zeros(17)
    x_op[0] = 20.0
    u0 = np.zeros(12)
    f0 = reduced_derivative(x_op, u0, P)
    rng = np.random.default_rng(1)
    direction = rng.standard_normal(17)
    direction /= np.linalg.norm(direction)

    def lin_err(scale):
        dx = scale * direction
        return float(np.linalg.norm(reduced_derivative(x_op + dx, u0, P)
                                    - f0 - a @ dx))

    ratio = lin_err(1e-2) / lin_err(5e-3)
    fd_ok = 2.5 <= ratio <= 6.0

    # byte-identical CSV across repeated runs of the same scenario
    scn = load_scenario(scenario_dir / "low_speed.scn")
    log_a, _ = runs[("low_speed", "proposed")]
    log_b = run_scenario(scn, controller="proposed")
    pa = emit_csv(log_a, tmp_path / "a.csv")
    pb = emit_csv(log_b, tmp_path / "b.csv")
    csv_ok = pa.read_bytes() == pb.read_bytes()

    ok = order_ok and fd_ok and csv_ok
    report("criterion 9: numerical hygiene", ok,
           f"RK4 orders {orders[0]:.2f}/{orders[1]:.2f} (within [3.5,4.5]); "
           f"linearization error ratio {ratio:.2f} (second order); "
           f"repeated-run CSV byte-identical={csv_ok}")
    assert ok


def test_golden_outputs(runs, tmp_path):
    # the bytes of the ten `staballoc figures` CSVs, their metrics and the
    # stability verdict against tests/golden/figures.sha256
    expected = golden.read()
    failures, notes = golden.compare(expected, golden.observe(runs, tmp_path))
    if notes:
        warnings.warn(f"golden outputs were made on {expected.tag}, this is "
                      f"{golden.tag()}; metrics agree to 1e-9, but "
                      + "; ".join(notes))
    assert not failures, failures
