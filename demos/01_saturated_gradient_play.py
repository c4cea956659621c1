#!/usr/bin/env python3
"""Saturated gradient play on the mobile-sensor benchmark.

Three velocity-actuated sensors descend their own cost gradients, but every
control channel is clamped to |u| <= 5. The run shows the two hallmarks of
the clamped law: the applied inputs never leave the bound (exactly, not up
to tolerance), and the positions still reach the Nash equilibrium because
the clamp preserves the descent direction.
"""

import numpy as np

from nes_sim import (
    SaturationSpec,
    SimConfig,
    StrategyTag,
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
print("benchmark game: 3 players, planar actions")
print("exact Nash equilibrium:", np.round(x_star, 6))

x0 = np.array([10.0, 0.0, 0.0, 5.0, 0.0, 0.0])
print("\ninitial positions:", x0)
print("initial own-gradients:", game.pseudo_gradient(x0))
print("-> unclamped gradient play would start with |u| up to 42")

spec = SaturationSpec.symmetric(5.0)
rhs, layout = make_rhs(StrategyTag.SAT_GRAD_PLAY, game, sat_spec=spec)
cfg = SimConfig(dt=1e-3, t_end=20.0, record_stride=10, convergence_tol=1e-3)
traj = integrate(rhs, x0, cfg, layout)

dist = attach_distance(traj, x_star)
converged, t_hit = detect_convergence(traj.times, dist, cfg.convergence_tol)
ok, worst = check_control_bounds(traj, spec)
values, max_inc = monitor_lyapunov(traj, game, sat_spec=spec)

print(f"\nconverged: {converged} (within 1e-3 from t = {t_hit:.2f} s)")
print(f"final distance to equilibrium: {dist[-1]:.2e}")
print(f"control bound respected exactly: {ok} (worst violation {worst})")
print(f"peak |u| over the run: {np.max(np.abs(traj.controls)):.1f}")
print(f"stability certificate decreased from {values[0]:.1f} to {values[-1]:.2e}"
      f" (largest positive jump {max_inc:.1e})")

print("\nsnapshots (t, player-1 position, player-1 control):")
for k in np.linspace(0, traj.n_records - 1, 6, dtype=int):
    x = traj.x_history()[k, :2]
    u = traj.controls[k, :2]
    print(f"  t={traj.times[k]:5.1f}  x1=({x[0]:7.3f}, {x[1]:7.3f})  u1=({u[0]:5.2f}, {u[1]:5.2f})")
