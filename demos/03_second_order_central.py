#!/usr/bin/env python3
"""Acceleration-actuated players: the centralized damped law.

Double-integrator players cannot just set their velocity to the negative
gradient. The centralized law steers acceleration with three terms: a
gradient pull, viscous damping, and a Jacobian-velocity coupling that
cancels the gradient's own drift. Gains come with explicit windows:
alpha below the strong-monotonicity constant m, beta below
2*alpha + 2*sqrt(alpha*m).

This law needs the full Jacobian and all actions (it is not distributed),
and its control is unbounded: the demo reports the bound violations a
|u| <= 5 actuator would have seen.
"""

import numpy as np

from nes_sim import (
    GainSet,
    SaturationSpec,
    SimConfig,
    StrategyTag,
    alpha_beta_star,
    attach_distance,
    check_control_bounds,
    detect_convergence,
    integrate,
    make_rhs,
    monitor_lyapunov,
    sensor_network_game,
)

game = sensor_network_game()
x_star = game.exact_ne()

report = alpha_beta_star(game, alpha=1.0, beta=1.0)
print(f"strong monotonicity m = {report.m:.1f}")
print(f"gain windows: alpha < alpha* = {report.alpha_star:.1f}, "
      f"beta*(alpha=1) = {report.beta_star:.4f}")
lo, hi = report.eps1_window
print(f"decrease-certificate feasibility window at (1, 1): ({lo:.4f}, {hi:.4f})")

gains = GainSet(alpha=1.0, beta=1.0)
rhs, layout = make_rhs(StrategyTag.SECOND_ORDER_CENTRAL, game, gains=gains)
state0 = layout.pack(x=[10.0, 0.0, 0.0, 5.0, 0.0, 0.0])  # velocities start at rest

cfg = SimConfig(dt=1e-3, t_end=50.0, record_stride=50, convergence_tol=1e-3)
traj = integrate(rhs, state0, cfg, layout)

dist = attach_distance(traj, x_star)
converged, t_hit = detect_convergence(traj.times, dist, cfg.convergence_tol)
values, max_inc = monitor_lyapunov(traj, game, gains=gains)
ok, worst = check_control_bounds(traj, SaturationSpec.symmetric(5.0))

print(f"\nconverged: {converged} (t_hit = {t_hit:.2f} s)")
print(f"certificate decreased monotonically: largest positive jump {max_inc:.1e}")
print(f"peak |u| = {np.max(np.abs(traj.controls)):.1f}: a |u|<=5 actuator "
      f"would be violated by {worst:.1f} (law is unbounded by design)")
print("\nvelocity transient (player 1):")
for k in np.linspace(0, traj.n_records - 1, 6, dtype=int):
    nu = traj.block_history("nu")[k, :2]
    print(f"  t={traj.times[k]:5.1f}  nu1=({nu[0]:7.3f}, {nu[1]:7.3f})")
