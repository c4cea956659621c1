import math
import re
import threading
import time
import warnings

import numpy as np
import pytest

from nes_sim import (
    GAME_REGISTRY,
    CommGraph,
    DimensionMismatchError,
    DivergenceError,
    GainSet,
    SaturationSpec,
    SimConfig,
    StateLayout,
    StrategyTag,
    Trajectory,
    attach_distance,
    attach_estimation_error,
    check_control_bounds,
    detect_convergence,
    estimation_matrix,
    integrate,
    make_rhs,
    monitor_lyapunov,
    parse_config,
    random_connected_graph,
    random_strongly_monotone_game,
    run_experiment,
    run_sweep,
    solve_lyapunov,
    stability_guard,
)
from nes_sim.presets import figure_preset
from nes_sim.simulate import _SCREEN_STEPS
from tests.conftest import X0, block_lambda_max, evaluate

SPEC5 = SaturationSpec.symmetric(5.0)
SCALAR_LAYOUT = StateLayout(StrategyTag.SAT_GRAD_PLAY, 1, 1)


def _decay_rhs(s, out):
    return np.negative(s, out)


def test_rk4_accuracy_on_exponential():
    # classical RK4 endpoint error on the exponential: 3.33e-7 at dt=0.1,
    # one sixteenth of that at dt=0.05 (closed-form oracle e^{-t})
    traj = integrate(_decay_rhs, np.array([1.0]), SimConfig(dt=0.1, t_end=1.0), SCALAR_LAYOUT)
    assert abs(traj.final_state()[0] - math.exp(-1.0)) <= 5e-7
    fine = integrate(_decay_rhs, np.array([1.0]), SimConfig(dt=0.05, t_end=1.0), SCALAR_LAYOUT)
    assert abs(fine.final_state()[0] - math.exp(-1.0)) <= 1e-7


def test_rk4_order_factor():
    def endpoint_error(dt):
        traj = integrate(_decay_rhs, np.array([1.0]), SimConfig(dt=dt, t_end=1.0), SCALAR_LAYOUT)
        return abs(traj.final_state()[0] - math.exp(-1.0))

    factor = endpoint_error(0.1) / endpoint_error(0.05)
    assert 14.0 <= factor <= 18.0


def test_euler_is_first_order():
    def endpoint_error(dt):
        cfg = SimConfig(dt=dt, t_end=1.0, integrator="euler")
        traj = integrate(_decay_rhs, np.array([1.0]), cfg, SCALAR_LAYOUT)
        return abs(traj.final_state()[0] - math.exp(-1.0))

    factor = endpoint_error(0.1) / endpoint_error(0.05)
    assert 1.7 <= factor <= 2.3


def test_zero_field_constant_trajectory():
    rhs = lambda s, out: np.multiply(s, 0.0, out)
    traj = integrate(rhs, np.array([2.5]), SimConfig(dt=0.1, t_end=1.0), SCALAR_LAYOUT)
    np.testing.assert_array_equal(traj.states, np.full((11, 1), 2.5))
    # s.s overflows here, but every entry is finite: no divergence
    with np.errstate(over="ignore"):
        traj = integrate(rhs, np.array([1e200]), SimConfig(dt=0.1, t_end=1.0), SCALAR_LAYOUT)
    np.testing.assert_array_equal(traj.states, np.full((11, 1), 1e200))


@pytest.mark.parametrize(
    "n_steps, stride, steps",
    [
        (10, 1, range(11)),
        (10, 3, [0, 3, 6, 9, 10]),  # steps 0, 3, 6, 9 plus the always-recorded final step
        (10, 5, [0, 5, 10]),  # a stride dividing n_steps records the final step once
        (10, 10, [0, 10]),
        (10, 25, [0, 10]),
        (10, 4, [0, 4, 8, 10]),  # a last block of two steps
        (10, 11, [0, 10]),  # one block, one step short of the stride
        (7, 2, [0, 2, 4, 6, 7]),
        (1, 1, [0, 1]),
    ],
    ids=[
        "every-step",
        "stride-3",
        "stride-divides",
        "stride-is-n",
        "stride-past-n",
        "stride-4",
        "stride-n-plus-1",
        "odd-n",
        "one-step",
    ],
)
def test_recording_stride_and_endpoints(n_steps, stride, steps):
    dt = 0.1
    every = SimConfig(dt=dt, t_end=n_steps * dt)
    full = integrate(_decay_rhs, np.array([1.0]), every, SCALAR_LAYOUT)
    cfg = SimConfig(dt=dt, t_end=n_steps * dt, record_stride=stride)
    traj = integrate(_decay_rhs, np.array([1.0]), cfg, SCALAR_LAYOUT)
    assert cfg.n_steps == n_steps
    assert traj.n_records == cfg.n_records == (n_steps - 1) // stride + 2 == len(steps)
    # the times are step * dt exactly, and each record is the state at its step
    assert traj.times.tolist() == [k * dt for k in steps]
    assert np.all(np.diff(traj.times) > 0.0)
    np.testing.assert_array_equal(traj.states, full.states[list(steps)])
    np.testing.assert_array_equal(traj.controls, full.controls[list(steps)])


def test_determinism_bitwise(sensor_game):
    rhs, lay = make_rhs(StrategyTag.SAT_GRAD_PLAY, sensor_game, sat_spec=SPEC5)
    cfg = SimConfig(dt=1e-3, t_end=2.0)
    a = integrate(rhs, X0, cfg, lay)
    b = integrate(rhs, X0, cfg, lay)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.controls, b.controls)
    assert np.array_equal(a.times, b.times)


def _divergence_message(rhs, s0, layout, **sim):
    with pytest.raises(DivergenceError) as info:
        integrate(rhs, s0, SimConfig(**sim), layout)
    return str(info.value)


@pytest.mark.parametrize("stride", [1, 7, 1000])
def test_divergence_abort_names_block(stride):
    rhs = lambda s, out: np.multiply(s * s, 1e150, out)
    sim = dict(dt=1.0, t_end=5.0)
    with np.errstate(over="ignore"):
        message = _divergence_message(rhs, np.array([1e200]), SCALAR_LAYOUT, record_stride=stride, **sim)
        assert message == _divergence_message(rhs, np.array([1e200]), SCALAR_LAYOUT, **sim)
    assert re.fullmatch(r"non-finite state at step \d+ \(t=.*\) in block x\[0\]", message)



def test_divergence_stops_within_a_screen_interval_whatever_the_stride():
    # ds/dt = s overflows near step 713 of 100 000; a run that records only
    # its ends still meets the screen every _SCREEN_STEPS steps, so it stops
    # there too, having called the field a bounded number of extra times
    seen = {}
    for stride in (1, 10**9):
        calls = []

        def growth(s, out):
            calls.append(None)
            out[:] = s
            return out

        message = _divergence_message(
            growth, np.array([1.0]), SCALAR_LAYOUT, dt=1.0, t_end=1e5, record_stride=stride
        )
        seen[stride] = message, len(calls)
    assert seen[10**9][0] == seen[1][0]
    step = int(re.match(r"non-finite state at step (\d+)", seen[1][0]).group(1))
    assert step > _SCREEN_STEPS
    assert seen[1][1] <= seen[10**9][1] <= seen[1][1] + 4 * _SCREEN_STEPS

@pytest.mark.parametrize("stride", [1, 7, 1000])
@pytest.mark.parametrize("integrator", ["rk4", "euler"])
def test_divergence_of_a_compiled_field_warns_only_of_overflow(
    sensor_game, path_graph, integrator, stride
):
    # dt far beyond the stability guard: the estimates blow up. The screen
    # runs after each run of at most _SCREEN_STEPS steps, so the steps after
    # the first non-finite state meet inf - inf until the run ends; the run
    # is then replayed step by step, and the error names the same step as a
    # stride-1 run.
    # The only floating-point warning allowed on the way is one overflow.
    gains = GainSet(theta=1000.0, theta_bar=1.0)
    rhs, lay = make_rhs(
        StrategyTag.FIRST_ORDER_DIST, sensor_game, graph=path_graph, gains=gains, sat_spec=SPEC5
    )
    s0 = lay.pack(x=X0, y=np.full(18, 10.0))
    sim = dict(dt=1e-2, t_end=100.0, integrator=integrator)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        message = _divergence_message(rhs, s0, lay, record_stride=stride, **sim)
    assert all("overflow" in str(w.message) for w in caught) and len(caught) <= 1
    assert re.fullmatch(r"non-finite state at step \d+ \(t=.*\) in block y\[\d+\]", message)
    assert message == _divergence_message(rhs, s0, lay, **sim)


@pytest.mark.parametrize("integrator", ["rk4", "euler"])
def test_the_finiteness_screen_never_warns(sensor_game, path_graph, integrator):
    # the divergence above: s.s overflows for many steps before the state
    # turns non-finite, yet the run warns of overflow at most once
    gains = GainSet(theta=1000.0, theta_bar=1.0)
    rhs, lay = make_rhs(
        StrategyTag.FIRST_ORDER_DIST, sensor_game, graph=path_graph, gains=gains, sat_spec=SPEC5
    )
    s0 = lay.pack(x=X0, y=np.full(18, 10.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivergenceError):
            integrate(rhs, s0, SimConfig(dt=1e-2, t_end=100.0, integrator=integrator), lay)
    assert sum("overflow" in str(w.message) for w in caught) <= 1


def test_sim_config_validation():
    with pytest.raises(ValueError, match="dt"):
        SimConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError, match="t_end"):
        SimConfig(dt=0.1, t_end=0.05)
    with pytest.raises(ValueError, match="record_stride"):
        SimConfig(dt=0.1, t_end=1.0, record_stride=0)
    with pytest.raises(ValueError, match="integrator"):
        SimConfig(dt=0.1, t_end=1.0, integrator="rk45")
    for t_end in (0.0, -1.0):
        with pytest.raises(ValueError, match="^t_end must be positive$"):
            SimConfig(dt=0.1, t_end=t_end)
    with pytest.raises(ValueError, match="^t_end / dt, the step count, must be finite$"):
        SimConfig(dt=1e-300, t_end=1e300)
    for tol in (0.0, -1e-3):
        with pytest.raises(ValueError, match="^convergence_tol must be positive$"):
            SimConfig(dt=0.1, t_end=1.0, convergence_tol=tol)


def _toy_traj(times, xs, controls=None):
    times = np.asarray(times, dtype=float)
    xs = np.asarray(xs, dtype=float).reshape(len(times), 1)
    controls = (
        np.zeros((len(times), 1)) if controls is None else np.asarray(controls).reshape(-1, 1)
    )
    return Trajectory(times=times, states=xs, controls=controls, layout=SCALAR_LAYOUT)


def test_estimation_error_needs_an_estimate_block():
    with pytest.raises(ValueError, match="^layout has no estimate block$"):
        attach_estimation_error(_toy_traj([0.0, 1.0], [1.0, 0.5]))


def test_detect_convergence_constant_at_star():
    traj = _toy_traj([0.0, 1.0, 2.0], [4.0, 4.0, 4.0])
    converged, t_hit = detect_convergence(traj.times, attach_distance(traj, [4.0]), 1e-3)
    assert converged and t_hit == 0.0


def test_detect_convergence_suffix_semantics():
    # touches the tolerance at t=1, leaves, and returns for good at t=3
    traj = _toy_traj([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 0.0005, 0.5, 0.0004, 0.0002])
    converged, t_hit = detect_convergence(traj.times, attach_distance(traj, [0.0]), 1e-3)
    assert converged and t_hit == 3.0


def test_detect_convergence_failure():
    traj = _toy_traj([0.0, 1.0], [1.0, 0.5])
    converged, t_hit = detect_convergence(traj.times, attach_distance(traj, [0.0]), 1e-3)
    assert not converged and t_hit is None
    with pytest.raises(ValueError, match="^distance series is empty$"):
        detect_convergence(np.empty(0), np.empty(0), 1e-3)


def test_check_control_bounds():
    traj = _toy_traj([0.0, 1.0, 2.0], [0, 0, 0], controls=[4.0, 5.0, -5.0])
    ok, worst = check_control_bounds(traj, SPEC5)
    assert ok and worst == 0.0
    traj2 = _toy_traj([0.0, 1.0], [0, 0], controls=[4.0, 6.5])
    ok2, worst2 = check_control_bounds(traj2, SPEC5)
    assert not ok2 and worst2 == 1.5
    empty = Trajectory(
        times=np.array([0.0]),
        states=np.zeros((1, 1)),
        controls=np.zeros((1, 0)),
        layout=SCALAR_LAYOUT,
    )
    with pytest.raises(ValueError, match="controls not recorded"):
        check_control_bounds(empty, SPEC5)


def test_monitor_lyapunov_equilibrium_run(sensor_game, x_star):
    rhs, lay = make_rhs(StrategyTag.SAT_GRAD_PLAY, sensor_game, sat_spec=SPEC5)
    traj = integrate(rhs, x_star, SimConfig(dt=0.01, t_end=0.1), lay)
    values, max_inc = monitor_lyapunov(traj, sensor_game, sat_spec=SPEC5)
    assert np.max(np.abs(values)) <= 1e-18
    assert max_inc == 0.0


def test_monitor_lyapunov_evaluates_the_candidate_once(sensor_game, monkeypatch):
    import nes_sim.dynamics as dyn

    calls = []
    candidate = dyn.lyapunov_value

    def counted(*args, **kwargs):
        calls.append(args[2].shape)
        return candidate(*args, **kwargs)

    monkeypatch.setattr(dyn, "lyapunov_value", counted)
    rhs, lay = make_rhs(StrategyTag.SAT_GRAD_PLAY, sensor_game, sat_spec=SPEC5)
    traj = integrate(rhs, X0, SimConfig(dt=0.01, t_end=0.5, record_stride=5), lay)
    values, _ = monitor_lyapunov(traj, sensor_game, sat_spec=SPEC5)
    assert calls == [traj.states.shape]
    assert values.shape == (traj.n_records,) == (11,)


def test_stability_guard_warns(sensor_game, path_graph):
    gains = GainSet(theta=1000.0, theta_bar=1.0)
    with pytest.warns(RuntimeWarning, match="stability guard"):
        stability_guard(
            SimConfig(dt=1e-2, t_end=1.0), StrategyTag.FIRST_ORDER_DIST,
            gains=gains, graph=path_graph,
        )
    # the preset step size stays quiet
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        product = stability_guard(
            SimConfig(dt=1e-4, t_end=1.0), StrategyTag.FIRST_ORDER_DIST,
            gains=gains, graph=path_graph,
        )
    assert 0.0 < product < 2.5


def test_stability_guard_reads_theta_bar_through_the_gain_set(path_graph):
    # N comes from the graph's nodes: a theta_bar vector is checked against N^2,
    # and its largest weight scales the rate; the default weight is 1
    sim, tag = SimConfig(dt=1e-4, t_end=1.0), StrategyTag.FIRST_ORDER_DIST
    lam = block_lambda_max(estimation_matrix(path_graph, 1))
    tb = np.linspace(0.5, 2.0, 9)
    assert stability_guard(sim, tag, gains=GainSet(theta=10.0), graph=path_graph) == 1e-4 * (
        10.0 * lam
    )
    product = stability_guard(sim, tag, gains=GainSet(theta=10.0, theta_bar=tb), graph=path_graph)
    assert product == 1e-4 * (10.0 * 2.0 * lam)
    short = GainSet(theta=10.0, theta_bar=[1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatchError, match="^theta_bar: expected length 9, got 3$"):
        stability_guard(sim, tag, gains=short, graph=path_graph)


@pytest.mark.parametrize(
    "tag", [t for t in StrategyTag if StateLayout(t, 2, 1).has_estimates]
)
def test_stability_guard_is_the_consensus_rate_of_m1(tag):
    # dt * gain * max(theta_bar) * lambda_max(M1), with the eigenvalue of the
    # full M1 by a full-size eigvalsh, to 1e-12 relative: 21 seeded graphs with
    # unit and random real weights, N = 2..8, scalar and vector theta_bar
    rng = np.random.default_rng(79)
    sim = SimConfig(dt=2e-4, t_end=1.0)
    for case in range(21):
        n = 2 + case % 7
        graph = random_connected_graph(rng, n)
        if case % 2:
            weights = np.triu(rng.uniform(0.1, 3.0, (n, n)), 1)
            graph = CommGraph(graph.adjacency * (weights + weights.T))
        theta_bar = rng.uniform(0.5, 2.0, n * n) if case % 3 else 1.5
        gains = GainSet(theta=rng.uniform(1.0, 10.0), theta1=rng.uniform(0.5, 2.0), K=0.1,
                        theta_bar=theta_bar)
        gain = gains.theta * (gains.theta1 if StateLayout(tag, n, 1).has_velocity else 1.0)
        lam = np.linalg.eigvalsh(estimation_matrix(graph, 1))[-1]
        expected = 2e-4 * gain * np.max(theta_bar) * lam
        assert stability_guard(sim, tag, gains=gains, graph=graph) == pytest.approx(
            expected, rel=1e-12
        )


@pytest.mark.parametrize(
    "tag, missing",
    [
        (StrategyTag.FIRST_ORDER_DIST, "theta"),
        (StrategyTag.SECOND_ORDER_DIST, "theta, theta1, K"),
        (StrategyTag.SECOND_ORDER_DIST_SAT, "theta, theta1, K"),
    ],
)
def test_stability_guard_without_gains_names_them(tag, missing, path_graph):
    # the consensus rate reads the gains: refused as make_rhs refuses them
    with pytest.raises(ValueError, match=f"^missing required gains: {missing}$"):
        stability_guard(SimConfig(dt=1e-3, t_end=1.0), tag, graph=path_graph)


@pytest.mark.parametrize(
    "tag, gains, needs",
    [
        (StrategyTag.SAT_GRAD_PLAY, None, "the game"),
        (StrategyTag.SECOND_ORDER_CENTRAL, GainSet(alpha=1.0, beta=1.0), "the game"),
        (StrategyTag.FIRST_ORDER_DIST, GainSet(theta=1000.0), "the communication graph"),
        (
            StrategyTag.SECOND_ORDER_DIST_SAT,
            GainSet(theta=200.0, theta1=1.0, K=0.1),
            "the communication graph",
        ),
    ],
)
def test_stability_guard_refuses_a_missing_ingredient(tag, gains, needs, sensor_game, path_graph):
    # the tag picks the mode: a consensus law given only the game no longer gets
    # the game-Jacobian product (fig3: 0.0008 instead of 0.373), nor a call
    # given neither ingredient 0.0
    sim = SimConfig(dt=1e-4, t_end=1.0)
    # the ingredient of the other mode does not stand in for the missing one
    other = {"game": sensor_game} if "graph" in needs else {"graph": path_graph}
    for given in ({}, other):
        with pytest.raises(ValueError, match=f"^stability guard for {tag.value} requires {needs}$"):
            stability_guard(sim, tag, gains=gains, **given)


def test_stability_guard_of_the_central_law_requires_its_damping_gains(sensor_game):
    # unchecked, a missing alpha or beta counted as 0.0
    sim, tag = SimConfig(dt=1e-3, t_end=1.0), StrategyTag.SECOND_ORDER_CENTRAL
    with pytest.raises(ValueError, match="^missing required gains: beta$"):
        stability_guard(sim, tag, gains=GainSet(alpha=1.0), game=sensor_game)
    rate = float(np.linalg.norm(sensor_game.jacobian_matrix, 2)) + 1.0 + 2.0
    product = stability_guard(sim, tag, gains=GainSet(alpha=1.0, beta=2.0), game=sensor_game)
    assert product == 1e-3 * rate


def test_monitor_lyapunov_names_the_first_non_finite_record(sensor_game):
    lay = StateLayout(StrategyTag.SAT_GRAD_PLAY, 3, 2)
    states = np.array([X0, X0 / 2.0, np.full(6, 1e308), np.full(6, np.nan)])
    traj = Trajectory(
        times=np.array([0.0, 0.5, 1.25, 2.0]), states=states, controls=np.zeros((4, 6)), layout=lay
    )
    # no RuntimeWarning (an error in this suite) on the way, and no V attached
    with pytest.raises(ValueError, match=r"^Lyapunov candidate is not finite at t=1\.25$"):
        monitor_lyapunov(traj, sensor_game, sat_spec=SPEC5)
    assert "V" not in traj.diagnostics


def test_a_run_computes_the_distance_series_once(monkeypatch):
    import nes_sim.runner
    import nes_sim.simulate

    calls = []
    attach = nes_sim.simulate.attach_distance

    def counted(traj, x_star):
        calls.append(traj.n_records)
        return attach(traj, x_star)

    monkeypatch.setattr(nes_sim.runner, "attach_distance", counted)
    monkeypatch.setattr(nes_sim.simulate, "attach_distance", counted)
    doc = figure_preset("fig2")
    doc.pop("output")
    doc["sim"]["t_end"] = 0.1
    summary, traj = run_experiment(parse_config(doc))
    assert calls == [traj.n_records]
    assert summary.final_dist_inf == traj.diagnostics["dist_ne"][-1]


def test_grid_refinement_fig2(sensor_game):
    rhs, lay = make_rhs(StrategyTag.SAT_GRAD_PLAY, sensor_game, sat_spec=SPEC5)
    coarse = integrate(rhs, X0, SimConfig(dt=1e-3, t_end=20.0, record_stride=10**9), lay)
    fine = integrate(rhs, X0, SimConfig(dt=5e-4, t_end=20.0, record_stride=10**9), lay)
    assert np.max(np.abs(coarse.final_state() - fine.final_state())) <= 1e-6


def test_grid_refinement_fig3_transient(sensor_game, path_graph):
    # stiffest stretch of the estimation preset; tail is pure contraction
    gains = GainSet(theta=1000.0, theta_bar=1.0)
    rhs, lay = make_rhs(
        StrategyTag.FIRST_ORDER_DIST, sensor_game, graph=path_graph, gains=gains, sat_spec=SPEC5
    )
    s0 = lay.pack(x=X0, y=np.full(18, 10.0))
    coarse = integrate(rhs, s0, SimConfig(dt=1e-4, t_end=2.0, record_stride=10**9), lay)
    fine = integrate(rhs, s0, SimConfig(dt=5e-5, t_end=2.0, record_stride=10**9), lay)
    assert np.max(np.abs(coarse.final_state() - fine.final_state())) <= 1e-6


def test_grid_refinement_fig4_transient(sensor_game, path_graph):
    gains = GainSet(theta=200.0, theta1=1.0, K=0.1, theta_bar=1.0)
    rhs, lay = make_rhs(
        StrategyTag.SECOND_ORDER_DIST_SAT,
        sensor_game,
        graph=path_graph,
        gains=gains,
        sat_spec=SPEC5,
    )
    coarse = integrate(rhs, lay.pack(), SimConfig(dt=1e-3, t_end=30.0, record_stride=10**9), lay)
    fine = integrate(rhs, lay.pack(), SimConfig(dt=5e-4, t_end=30.0, record_stride=10**9), lay)
    assert np.max(np.abs(coarse.final_state() - fine.final_state())) <= 1e-6


def test_gradient_norm_eventually_below_initial(fig2_run, sensor_game):
    _, _, traj = fig2_run
    g0 = np.linalg.norm(sensor_game.pseudo_gradient(traj.x_history()[0]))
    g_end = np.linalg.norm(sensor_game.pseudo_gradient(traj.final_state()))
    assert g_end <= g0


def test_second_order_dist_certificate_decreases_in_certified_region(sensor_game, path_graph, x_star):
    # pick gains inside the certified region: theta above the floor,
    # theta1 below the ceiling the tuner reports for this theta
    from nes_sim import theta_bounds_second_order

    M = estimation_matrix(path_graph, 2)
    lyap = solve_lyapunov(M, 1.0, 1.0)
    probe = GainSet(theta=200.0, theta1=1.0, K=0.1, theta_bar=1.0)
    rep = theta_bounds_second_order(sensor_game, path_graph, lyap, probe, theta=200.0)
    assert rep.theta_star < 200.0
    theta1 = 0.7 * rep.theta1_star
    gains = GainSet(theta=200.0, theta1=theta1, K=0.1, theta_bar=1.0)
    rhs, lay = make_rhs(
        StrategyTag.SECOND_ORDER_DIST, sensor_game, graph=path_graph, gains=gains
    )
    s0 = lay.pack(x=np.full(6, 0.5), z=np.full(6, -0.5))
    traj = integrate(rhs, s0, SimConfig(dt=1e-3, t_end=50.0, record_stride=50), lay)
    values, max_inc = monitor_lyapunov(
        traj, sensor_game, gains=gains, P=lyap.P, x_star=x_star
    )
    assert values[0] > 1.0
    assert max_inc <= 1e-8


def test_fig4_certificate_decreases_while_clamp_inactive(fig4_run, sensor_game, path_graph, x_star):
    # semi-global decrease checked on the observed run; the clamp stays
    # inactive throughout this preset, so the whole series must qualify
    cfg, _, traj = fig4_run
    z = traj.block_history("z")
    nu = traj.block_history("nu")
    x = traj.x_history()
    kbar = cfg.gains.theta1 * cfg.gains.k_vec(3, 2)
    zdot = np.array(
        [-kbar * sensor_game.own_gradients_at_estimates(y) for y in traj.block_history("y")]
    )
    arg = np.abs((x - z) + (nu - zdot))
    assert np.max(arg) < 5.0  # clamp inactive over the whole run
    values = traj.diagnostics["V"]
    assert float(np.diff(values).max(initial=0.0)) <= 1e-6


def test_trajectory_csv_schema_first_order(tmp_path, fig3_run):
    _, _, traj = fig3_run
    path = tmp_path / "fig3.csv"
    traj.to_csv(path)
    header = path.read_text().splitlines()[0].split(",")
    assert header == (
        ["t"]
        + [f"x_{i}_{d}" for i in (1, 2, 3) for d in (1, 2)]
        + [f"u_{i}_{d}" for i in (1, 2, 3) for d in (1, 2)]
        + ["V", "dist_ne", "est_err"]
    )
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (traj.n_records, len(header))
    # 17 significant digits round-trip float64 exactly
    np.testing.assert_array_equal(data[:, 0], traj.times)
    np.testing.assert_array_equal(data[:, 1:7], traj.x_history())
    np.testing.assert_array_equal(data[:, 7:13], traj.controls)


def test_trajectory_csv_schema_second_order(tmp_path, fig4_run):
    _, _, traj = fig4_run
    path = tmp_path / "fig4.csv"
    traj.to_csv(path)
    header = path.read_text().splitlines()[0].split(",")
    assert header[:1] == ["t"]
    assert header[1:7] == [f"x_{i}_{d}" for i in (1, 2, 3) for d in (1, 2)]
    assert header[7:13] == [f"nu_{i}_{d}" for i in (1, 2, 3) for d in (1, 2)]
    assert header[13:19] == [f"u_{i}_{d}" for i in (1, 2, 3) for d in (1, 2)]
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 7:13], traj.block_history("nu"))


@pytest.mark.parametrize("n, p", [(2, 1), (3, 2)])
def test_block_history_returns_every_layout_block(n, p):
    widths = {"x": n * p, "nu": n * p, "z": n * p, "y": n * n * p}
    for tag in StrategyTag:
        lay = StateLayout(tag, n, p)
        states = np.arange(3.0 * lay.size).reshape(3, lay.size)
        traj = Trajectory(np.arange(3.0), states, np.zeros((3, n * p)), lay)
        stop = 0
        for name, (a, b) in lay.offsets.items():
            assert a == stop and b - a == widths[name]
            np.testing.assert_array_equal(traj.block_history(name), states[:, a:b])
            stop = b
        assert stop == lay.size


def test_run_sweep_preserves_submission_order():
    # items run one at a time, in the order given
    lock = threading.Lock()
    running, started, overlaps = [], [], []

    def worker(k):
        with lock:
            overlaps.append(len(running))
            running.append(k)
            started.append(k)
        time.sleep(0.02 * (5 - k))  # concurrent items would finish out of order
        with lock:
            running.remove(k)
        return k * k

    assert run_sweep(range(5), worker) == [0, 1, 4, 9, 16]
    assert started == [0, 1, 2, 3, 4]
    assert overlaps == [0] * 5
    assert run_sweep([], worker) == []


def test_run_sweep_executes_real_runs(sensor_game):
    def runner(u_bar):
        spec = SaturationSpec.symmetric(u_bar)
        rhs, lay = make_rhs(StrategyTag.SAT_GRAD_PLAY, sensor_game, sat_spec=spec)
        traj = integrate(rhs, X0, SimConfig(dt=1e-2, t_end=5.0), lay)
        return float(np.max(np.abs(traj.controls)))

    peaks = run_sweep([1.0, 5.0, 100.0], runner)
    assert peaks[0] == 1.0 and peaks[1] == 5.0 and peaks[2] < 100.0


@pytest.mark.parametrize("integrator", ["rk4", "euler"])
def test_rhs_evals_counts_vector_field_calls(integrator, sensor_game):
    # the invariant the benchmark's tracer asserts: stages * steps + 1 calls,
    # counted through a wrapper, for a scalar field and the fields of every
    # strategy, compiled and per call
    compiled, lay = make_rhs(StrategyTag.SAT_GRAD_PLAY, sensor_game, sat_spec=SPEC5)
    fields = [(_decay_rhs, np.array([1.0]), SCALAR_LAYOUT), (compiled, X0, lay)]
    for tag in StrategyTag:
        fields += [(rhs, lay.pack(), lay) for _, rhs, lay in _compiled_and_generic_fields(tag)]
    # 3 and 4 do not divide the 10 steps, 25 exceeds them
    for stride in (1, 3, 4, 25):
        for field, s0, layout in fields:
            calls = []

            def counted(s, out):
                calls.append(1)
                return field(s, out)

            cfg = SimConfig(dt=1e-3, t_end=1e-2, integrator=integrator, record_stride=stride)
            integrate(counted, s0, cfg, layout)
            assert len(calls) == cfg.rhs_evals == (4 if integrator == "rk4" else 1) * 10 + 1


def _random_compiled_fields(tag, seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, p = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        game = random_strongly_monotone_game(rng, n_players=n, action_dim=p)
        graph = random_connected_graph(rng, n)
        gains = GainSet(
            theta=rng.uniform(1.0, 30.0),
            theta1=rng.uniform(0.5, 3.0),
            theta_bar=rng.uniform(0.5, 2.0, n * n),
            K=rng.uniform(0.05, 1.0, n),
            alpha=rng.uniform(0.5, 3.0),
            beta=rng.uniform(0.5, 3.0),
        )
        # bounds this tight make the clamp bind at many stages
        spec = SaturationSpec(-rng.uniform(0.5, 3.0, n * p), rng.uniform(0.5, 3.0, n * p))
        rhs, lay = make_rhs(tag, game, graph=graph, gains=gains, sat_spec=spec)
        yield rng, rhs, lay, spec


@pytest.mark.parametrize("tag", list(StrategyTag))
def test_rk4_step_matches_the_textbook_step(tag):
    # the tableau loop forms stage states and the update as BLAS products,
    # so it may round differently from the textbook formula: 1e-13 relative
    dt = 1e-3
    for rng, rhs, lay, _ in _random_compiled_fields(tag, 23, 4):
        for s in rng.normal(scale=3.0, size=(10, lay.size)):
            k1 = evaluate(rhs, lay, s)[0]
            k2 = evaluate(rhs, lay, s + (0.5 * dt) * k1)[0]
            k3 = evaluate(rhs, lay, s + (0.5 * dt) * k2)[0]
            k4 = evaluate(rhs, lay, s + dt * k3)[0]
            ref = s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            got = integrate(rhs, s, SimConfig(dt=dt, t_end=dt), lay).final_state()
            assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, float(np.max(np.abs(ref))))


@pytest.mark.parametrize("tag", list(StrategyTag))
def test_euler_is_bitwise_the_textbook_step(tag):
    dt, n_steps = 1e-3, 40
    for rng, rhs, lay, _ in _random_compiled_fields(tag, 29, 2):
        s = rng.normal(scale=3.0, size=lay.size)
        traj = integrate(rhs, s, SimConfig(dt=dt, t_end=n_steps * dt, integrator="euler"), lay)
        states, controls = [], []
        for _ in range(n_steps + 1):
            k, u = evaluate(rhs, lay, s)
            states.append(s)
            controls.append(u.copy())
            s = s + dt * k
        np.testing.assert_array_equal(traj.states, states)
        np.testing.assert_array_equal(traj.controls, controls)


@pytest.mark.parametrize("tag", list(StrategyTag))
def test_rhs_writes_its_derivative_into_out(tag):
    # rhs(s, row) writes the derivative into row and returns row; what row
    # held before does not matter
    generic = GAME_REGISTRY["decoupled_quartic"]()
    spec = SaturationSpec.symmetric(1.0)
    gains = GainSet(theta=10.0, theta1=1.0, K=0.1, alpha=1.0, beta=1.0)
    graph = CommGraph([[0.0, 1.0], [1.0, 0.0]])
    fields = [(rhs, lay, sp) for _, rhs, lay, sp in _random_compiled_fields(tag, 37, 3)]
    fields.append((*make_rhs(tag, generic, graph=graph, gains=gains, sat_spec=spec), spec))
    rng = np.random.default_rng(41)
    for rhs, lay, sp in fields:
        for s in rng.normal(scale=3.0, size=(5, lay.size)):
            s0, buf = s.copy(), np.full(lay.size, np.nan)
            assert rhs(s, buf) is buf
            assert np.array_equal(buf, rhs(s, np.zeros(lay.size)))
            u = buf[lay.control]
            if lay.is_saturated:
                assert np.all(sp.lower <= u) and np.all(u <= sp.upper)
            assert np.array_equal(s, s0)
        for size in (lay.size - 1, lay.size + 1):
            # LayoutMismatchError from the check, or ValueError from the product
            with pytest.raises(ValueError):
                rhs(np.ones(size), np.empty(lay.size))


def _compiled_and_generic_fields(tag):
    generic = GAME_REGISTRY["decoupled_quartic"]()
    spec = SaturationSpec.symmetric(1.0)
    gains = GainSet(theta=10.0, theta1=1.0, K=0.1, alpha=1.0, beta=1.0)
    graph = CommGraph([[0.0, 1.0], [1.0, 0.0]])
    fields = [(rng, rhs, lay) for rng, rhs, lay, _ in _random_compiled_fields(tag, 47, 2)]
    rhs, lay = make_rhs(tag, generic, graph=graph, gains=gains, sat_spec=spec)
    return fields + [(np.random.default_rng(53), rhs, lay)]


@pytest.mark.parametrize("tag", list(StrategyTag))
def test_recorded_controls_are_the_control_rows_of_the_derivative(tag):
    # each record's control is rhs(s, row)[layout.control] at its state, bit for bit
    for rng, rhs, lay in _compiled_and_generic_fields(tag):
        s0 = rng.normal(scale=3.0, size=lay.size)
        traj = integrate(rhs, s0, SimConfig(dt=1e-3, t_end=0.05, record_stride=3), lay)
        assert traj.n_records == 18
        row = np.empty(lay.size)
        for s, u in zip(traj.states, traj.controls):
            expected = rhs(s, row)[lay.control]
            assert np.array_equal(u.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize(
    "tag", [StrategyTag.FIRST_ORDER_DIST, StrategyTag.SECOND_ORDER_DIST_SAT]
)
def test_generic_game_runs_the_per_call_law(tag):
    # a non-quadratic game is not compiled: its law is evaluated every call
    game = GAME_REGISTRY["decoupled_quartic"]()
    graph = CommGraph([[0.0, 1.0], [1.0, 0.0]])
    spec = SaturationSpec.symmetric(1.0)
    gains = GainSet(theta=10.0, theta1=1.0, K=0.1)
    rhs, lay = make_rhs(tag, game, graph=graph, gains=gains, sat_spec=spec)
    x0, x_star = np.array([3.0, 0.0]), np.array([1.0, -2.0])
    traj = integrate(rhs, lay.pack(x=x0), SimConfig(dt=0.01, t_end=3.0), lay)
    assert check_control_bounds(traj, spec)[1] == 0.0
    assert np.isfinite(traj.states).all()
    x_end = traj.x_history()[-1]
    assert np.linalg.norm(x_end - x_star) < np.linalg.norm(x0 - x_star)


@pytest.mark.parametrize("dt", [0.01, 0.003, 1e-3])
def test_generic_game_guard_reads_the_analytic_jacobian(dt):
    # decoupled_quartic's Jacobian at the origin is diag(12, 48), so the
    # guard's product for gradient play is dt * 48 exactly
    doc = {
        "game": {"type": "custom", "name": "decoupled_quartic"},
        "graph": {"adjacency": [[0.0, 1.0], [1.0, 0.0]]},
        "strategy": {"tag": "sat_grad_play", "saturation": {"u_bar": 100.0}},
        "sim": {"dt": dt, "t_end": 0.05},
    }
    summary, traj = run_experiment(parse_config(doc))
    assert summary.guard_product == dt * 48.0
    assert summary.max_abs_u == 32.0  # 4 * 2^3, player 2's gradient at the origin
