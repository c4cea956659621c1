"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line
per criterion.
"""

import math
import time

import numpy as np
import scipy.integrate

from nes_sim import (
    GainSet,
    SaturationSpec,
    SimConfig,
    StateLayout,
    StrategyTag,
    attach_distance,
    check_control_bounds,
    detect_convergence,
    estimation_matrix,
    integrate,
    make_rhs,
    monitor_lyapunov,
    random_connected_graph,
    random_strongly_monotone_game,
    sat,
    sat_integral,
    solve_lyapunov,
    theta_star_first_order,
)
from tests.conftest import X0, cost_gradients

SPEC5 = SaturationSpec.symmetric(5.0)


def _report(criterion, detail):
    print(f"\n[acceptance] {criterion}: PASS ({detail})")


def test_criterion_1_oracle_fidelity(sensor_game):
    start = time.perf_counter()
    x_star = sensor_game.exact_ne()
    elapsed = time.perf_counter() - start
    reference = np.array([-0.125, 0.75, 0.75, 0.5, 1.375, -0.25])
    err = float(np.max(np.abs(x_star - reference)))
    assert err <= 1e-10
    assert elapsed < 1.0
    _report("1 oracle fidelity", f"inf-err={err:.2e}, {elapsed:.3f}s")


def test_criterion_2_saturated_gradient_play_replication(fig2_run):
    _, summary, traj = fig2_run
    assert summary.converged
    assert float(np.max(np.abs(traj.controls))) <= 5.0
    ok, worst = check_control_bounds(traj, SPEC5)
    assert ok and worst == 0.0
    assert summary.max_lyapunov_increment is not None
    assert summary.max_lyapunov_increment <= 1e-8
    assert summary.wall_clock_s < 5.0
    # regression: earliest in-tolerance suffix of this deterministic run
    assert summary.t_hit == 5.23
    _report(
        "2 saturated gradient play",
        f"t_hit={summary.t_hit}, max|u|={np.max(np.abs(traj.controls))}, "
        f"maxVinc={summary.max_lyapunov_increment:.1e}, {summary.wall_clock_s:.2f}s",
    )


def test_criterion_3_distributed_first_order_replication(fig3_run):
    _, summary, traj = fig3_run
    assert summary.converged
    ok, worst = check_control_bounds(traj, SPEC5)
    assert ok and worst == 0.0
    est_err_end = float(traj.diagnostics["est_err"][-1])
    assert est_err_end <= 1e-3
    assert summary.wall_clock_s < 60.0
    _report(
        "3 distributed first order",
        f"t_hit={summary.t_hit}, est_err(T)={est_err_end:.2e}, {summary.wall_clock_s:.1f}s",
    )


def test_criterion_4_saturated_second_order_replication(fig4_run):
    _, summary, traj = fig4_run
    assert summary.converged
    ok, worst = check_control_bounds(traj, SPEC5)
    assert ok and worst == 0.0
    assert summary.wall_clock_s < 60.0
    _report(
        "4 saturated distributed second order",
        f"t_hit={summary.t_hit}, max|u|={np.max(np.abs(traj.controls)):.3f}, "
        f"{summary.wall_clock_s:.1f}s",
    )


def test_criterion_5_centralized_second_order(sensor_game, x_star):
    gains = GainSet(alpha=1.0, beta=1.0)
    # gain windows: alpha < alpha* = m = 2, beta < beta*(1) = 2 + 2*sqrt(2)
    assert gains.alpha < 2.0
    assert gains.beta < 2.0 + 2.0 * math.sqrt(2.0)
    rhs, lay = make_rhs(StrategyTag.SECOND_ORDER_CENTRAL, sensor_game, gains=gains)
    cfg = SimConfig(dt=1e-3, t_end=50.0, record_stride=10, convergence_tol=1e-3)
    traj = integrate(rhs, lay.pack(x=X0), cfg, lay)
    converged, t_hit = detect_convergence(traj.times, attach_distance(traj, x_star), 1e-3)
    assert converged
    _, max_inc = monitor_lyapunov(traj, sensor_game, gains=gains)
    assert max_inc <= 1e-8
    _report("5 centralized second order", f"t_hit={t_hit}, maxVinc={max_inc:.1e}")


def test_criterion_6_sufficiency_bound_consistency():
    rng = np.random.default_rng(20260810)
    start = time.perf_counter()
    hits = 0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, 3))
        game = random_strongly_monotone_game(rng, n, p)
        graph = random_connected_graph(rng, n)
        M = estimation_matrix(graph, p)
        lyap = solve_lyapunov(M, 1.0, 1.0)
        theta = 1.1 * theta_star_first_order(game, graph, lyap).theta_star
        gains = GainSet(theta=theta, theta_bar=1.0)
        lam_max = float(np.linalg.eigvalsh(M)[-1])
        dt = min(1e-3, 2.0 / (theta * lam_max))
        rhs, lay = make_rhs(
            StrategyTag.FIRST_ORDER_DIST,
            game,
            graph=graph,
            gains=gains,
            sat_spec=SaturationSpec.symmetric(50.0),
        )
        x0 = rng.uniform(-2.0, 2.0, n * p)
        cfg = SimConfig(
            dt=dt, t_end=15.0, record_stride=max(1, int(round(0.05 / dt))), convergence_tol=1e-3
        )
        traj = integrate(rhs, lay.pack(x=x0), cfg, lay)
        dist = attach_distance(traj, game.exact_ne())
        converged, _ = detect_convergence(traj.times, dist, 1e-3)
        hits += converged
    elapsed = time.perf_counter() - start
    assert hits == 20
    assert elapsed < 120.0
    _report("6 sufficiency-bound consistency", f"{hits}/20 converged, {elapsed:.1f}s")


def test_criterion_7_property_suites(sensor_game):
    rng = np.random.default_rng(99)

    # saturation algebra
    v = rng.uniform(-30, 30, 300)
    w = rng.uniform(-30, 30, 300)
    s, t = sat(v, SPEC5), sat(w, SPEC5)
    assert np.array_equal(sat(-v, SPEC5), -s)
    assert np.all(np.abs(s - t) <= np.abs(v - w) + 1e-15)
    assert np.array_equal(sat(s, SPEC5), s)
    assert np.max(np.abs(s)) == 5.0

    # clamp integral against adaptive quadrature with declared kinks
    for g in rng.uniform(-12, 12, 8):
        breaks = [p for p in (-5.0, 5.0) if min(0.0, g) < p < max(0.0, g)]
        expected, _ = scipy.integrate.quad(
            lambda u: np.clip(u, -5.0, 5.0), 0.0, g, points=breaks or None
        )
        assert abs(sat_integral(float(g), 5.0) - expected) <= 1e-9

    # Lyapunov equation residual with positive definite solution
    graph = random_connected_graph(rng, 4)
    M = estimation_matrix(graph, 2)
    pair = solve_lyapunov(M, 1.0, 1.0)
    assert pair.residual <= 1e-8 * np.linalg.norm(pair.Q, "fro")
    assert np.linalg.eigvalsh(pair.P)[0] > 0.0

    # analytic gradient vs central differences
    for _ in range(100):
        x = rng.uniform(-5, 5, 6)
        ga, gf = sensor_game.pseudo_gradient(x), cost_gradients(sensor_game, x)
        for i in range(3):
            gap = np.max(np.abs(ga[2 * i : 2 * i + 2] - gf[2 * i : 2 * i + 2]))
            assert gap / max(1.0, np.max(np.abs(gf[2 * i : 2 * i + 2]))) <= 1e-5

    # strong monotonicity inequality on random pairs
    m = sensor_game.monotonicity_constant()
    for _ in range(100):
        x = rng.uniform(-10, 10, 6)
        z = rng.uniform(-10, 10, 6)
        lhs = (x - z) @ (sensor_game.pseudo_gradient(x) - sensor_game.pseudo_gradient(z))
        assert lhs >= m * float(np.sum((x - z) ** 2)) - 1e-9

    # RK4 order factor
    lay1 = StateLayout(StrategyTag.SAT_GRAD_PLAY, 1, 1)
    decay = lambda s, out: np.negative(s, out)

    def endpoint_error(dt):
        traj = integrate(decay, np.array([1.0]), SimConfig(dt=dt, t_end=1.0), lay1)
        return abs(traj.final_state()[0] - math.exp(-1.0))

    factor = endpoint_error(0.1) / endpoint_error(0.05)
    assert 14.0 <= factor <= 18.0

    # determinism, bitwise
    rhs, lay = make_rhs(StrategyTag.SAT_GRAD_PLAY, sensor_game, sat_spec=SPEC5)
    cfg = SimConfig(dt=1e-3, t_end=1.0)
    a = integrate(rhs, X0, cfg, lay)
    b = integrate(rhs, X0, cfg, lay)
    assert np.array_equal(a.states, b.states) and np.array_equal(a.controls, b.controls)

    _report("7 property suites", f"rk4 factor={factor:.2f}, residual={pair.residual:.1e}")


def _gradient_play(game, state, out):
    # plain (unclamped) gradient play: the unsaturated reference flow
    return np.negative(game.pseudo_gradient(state), out)


def test_criterion_8_unsaturated_limit_equivalence(sensor_game):
    big = SaturationSpec.symmetric(1e12)
    rhs_sat, lay = make_rhs(StrategyTag.SAT_GRAD_PLAY, sensor_game, sat_spec=big)
    rhs_plain = lambda s, out: _gradient_play(sensor_game, s, out)
    cfg = SimConfig(dt=1e-3, t_end=5.0, record_stride=10)
    a = integrate(rhs_sat, X0, cfg, lay)
    b = integrate(rhs_plain, X0, cfg, lay)
    gap = float(np.max(np.abs(a.states - b.states)))
    assert gap <= 1e-9
    _report("8 unsaturated-limit equivalence", f"max gap={gap:.1e}")
