#!/usr/bin/env python3
"""Gain bounds as a design tool, plus a parameter sweep.

First: compute the sufficient consensus-gain floor theta_star for a batch
of random strongly monotone games and check the promise it makes -- at
theta = 1.1 * theta_star every run converges.

Second: sweep theta across two orders of magnitude on the sensor
benchmark (independent runs executed one at a time, in submission order:
the integrator's BLAS calls release the GIL, so concurrent runs would only
convoy on it) to see how the estimate quality at a fixed horizon responds.
"""

import numpy as np

from nes_sim import (
    CommGraph,
    GainSet,
    SaturationSpec,
    SimConfig,
    StrategyTag,
    attach_estimation_error,
    detect_convergence,
    estimation_matrix,
    integrate,
    make_rhs,
    random_connected_graph,
    random_strongly_monotone_game,
    run_sweep,
    sensor_network_game,
    solve_lyapunov,
    theta_star_first_order,
)
from nes_sim.presets import path_graph_adjacency

rng = np.random.default_rng(7)
spec = SaturationSpec.symmetric(20.0)

print("sufficiency check on 8 random games (theta = 1.1 * theta_star):")
for trial in range(8):
    n, p = int(rng.integers(2, 5)), int(rng.integers(1, 3))
    game = random_strongly_monotone_game(rng, n, p)
    graph = random_connected_graph(rng, n)
    M = estimation_matrix(graph, p)
    lyap = solve_lyapunov(M, 1.0, 1.0)
    theta_star = theta_star_first_order(game, graph, lyap).theta_star
    theta = 1.1 * theta_star
    dt = min(1e-3, 2.0 / (theta * float(np.linalg.eigvalsh(M)[-1])))
    rhs, layout = make_rhs(
        StrategyTag.FIRST_ORDER_DIST, game, M=M, gains=GainSet(theta=theta), sat_spec=spec
    )
    traj = integrate(
        rhs,
        layout.pack(x=rng.uniform(-2, 2, n * p)),
        SimConfig(dt=dt, t_end=12.0, record_stride=200, convergence_tol=1e-3),
        layout,
    )
    converged, t_hit = detect_convergence(traj, game.exact_ne(), 1e-3)
    print(
        f"  N={n} p={p}  theta*={theta_star:8.1f}  dt={dt:.1e}"
        f"  converged={converged} (t_hit={t_hit:.2f})"
    )

print("\ntheta sweep on the sensor benchmark (fixed 3 s horizon):")
game = sensor_network_game()
graph = CommGraph(path_graph_adjacency())
M = estimation_matrix(graph, 2)
x0 = np.array([10.0, 0.0, 0.0, 5.0, 0.0, 0.0])


def run_one(theta):
    gains = GainSet(theta=theta, theta_bar=1.0)
    rhs, layout = make_rhs(
        StrategyTag.FIRST_ORDER_DIST, game, M=M, gains=gains,
        sat_spec=SaturationSpec.symmetric(5.0),
    )
    dt = min(1e-3, 2.0 / (theta * 3.8))
    traj = integrate(
        rhs,
        layout.pack(x=x0, y=np.full(18, 10.0)),
        SimConfig(dt=dt, t_end=3.0, record_stride=10**9),
        layout,
    )
    est = attach_estimation_error(traj)
    return float(np.max(np.abs(traj.final_state()[:6] - game.exact_ne()))), float(est[-1])

thetas = [20.0, 60.0, 200.0, 600.0, 2000.0]
results = run_sweep(thetas, run_one)
print("   theta    |x - x*|_inf at 3 s    estimation error at 3 s")
for theta, (dist, est) in zip(thetas, results):
    print(f"  {theta:7.0f}   {dist:12.2e}          {est:12.2e}")
print("\nfaster estimates help until the action dynamics dominate;")
print("beyond that, raising theta only stiffens the integration")
