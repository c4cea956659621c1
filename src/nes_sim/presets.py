"""Built-in benchmark games and self-contained replication presets.

The benchmark is a connectivity-control game for three planar mobile
sensors: each sensor pays a quadratic cost in its own position plus
squared-distance couplings to its physical neighbours (sensors 1-2 and
2-3; sensors 1 and 3 are not coupled). Its unique Nash equilibrium is
known in closed form, which makes it the reference oracle for every
convergence check in this package.
"""

from __future__ import annotations

import copy

import numpy as np

from .games import GameDefinition, QuadraticGame

__all__ = [
    "sensor_network_game",
    "complete_graph_adjacency",
    "path_graph_adjacency",
    "figure_preset",
    "PRESET_NAMES",
    "GAME_REGISTRY",
]


def sensor_network_game():
    """Three planar sensors, unit self-curvature, chain coupling 1-2-3."""
    eye = np.eye(2)
    return QuadraticGame(
        r=[eye, eye, eye],
        p_vec=[[2.0, -2.0], [-2.0, -2.0], [-4.0, 2.0]],
        q=[3.0, 3.0, 6.0],
        m_weights=[[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
    )


def complete_graph_adjacency(n=3):
    return np.ones((n, n)) - np.eye(n)


def path_graph_adjacency(n=3):
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    return a


def _sensor_game_section():
    g = sensor_network_game()
    return {
        "type": "quadratic",
        "r": g.r.tolist(),
        "p_vec": g.p_vec.tolist(),
        "q": g.q.tolist(),
        "m_weights": g.m_weights.tolist(),
    }


# What differs per figure; figure_preset's template holds everything else.
_X0 = [10.0, 0.0, 0.0, 5.0, 0.0, 0.0]
_FIGURES = {
    # name: (adjacency, dt, t_end, record_stride, convergence_tol, init, strategy)
    "fig2": (complete_graph_adjacency(), 1e-3, 20.0, 10, 1e-3, {"x0": _X0},
             {"tag": "sat_grad_play"}),
    "fig3": (path_graph_adjacency(), 1e-4, 20.0, 100, 1e-2, {"x0": _X0, "y0": "broadcast:10"},
             {"tag": "first_order_dist", "gains": {"theta": 1000.0, "theta_bar": 1.0}}),
    "fig4": (path_graph_adjacency(), 1e-3, 200.0, 100, 1e-2, {"x0": "zeros"},
             {"tag": "second_order_dist_sat",
              "gains": {"theta": 200.0, "theta1": 1.0, "K": 0.1, "theta_bar": 1.0}}),
}
PRESET_NAMES = tuple(_FIGURES)


def figure_preset(name):
    """Self-contained experiment configuration for a replication run.

    One template: every preset plays the three-sensor game with bound
    ``u_bar = 5``, integrates with rk4, monitors the Lyapunov candidate and
    writes ``<name>_trajectory.csv`` and ``<name>_summary.txt``. The rest
    comes from the figure's row of ``_FIGURES``. Communication topologies
    are an assumption of this package: the gradient-play scenario uses the
    complete triangle since that law needs every action anyway, the
    distributed scenarios use the 3-node path, which is connected but
    sparser than the physical coupling.

    - ``fig2``: saturated gradient play from x(0) = [10,0,0,5,0,0].
    - ``fig3``: distributed first-order seeking, estimate gains 1000,
      all estimate channels initialised at 10.
    - ``fig4``: saturated distributed second-order seeking from the all
      zero state, reference gains 0.1, estimate gains 200, horizon 200 s.

    Output paths are relative; the replicate command rewrites them into
    its output directory. Each call returns a fresh document.
    """
    if name not in _FIGURES:
        raise KeyError(f"unknown preset '{name}'; available: {', '.join(PRESET_NAMES)}")
    adjacency, dt, t_end, stride, tol, init, strategy = copy.deepcopy(_FIGURES[name])
    return {
        "game": _sensor_game_section(),
        "graph": {"adjacency": adjacency.tolist()},
        "strategy": {**strategy, "saturation": {"u_bar": 5.0}},
        "sim": {
            "dt": dt,
            "t_end": t_end,
            "record_stride": stride,
            "integrator": "rk4",
            "convergence_tol": tol,
            "monitor_lyapunov": True,
        },
        "init": init,
        "output": {"trajectory": f"{name}_trajectory.csv", "summary": f"{name}_summary.txt"},
    }


def _skew_bilinear():
    # costs x1 x2 and -x1 x2: pseudo-gradient (x2, -x1), a constant skew
    # Jacobian, so monotone with m = 0; exercises the uncertified paths
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return GameDefinition(
        2, 1, lambda X: np.stack([X[:, 1], -X[:, 0]], axis=1), lambda x: skew
    )


def _decoupled_quartic():
    # costs (x1 - 1)^4 and (x2 + 2)^4: smooth, not quadratic, with its
    # equilibrium at (1, -2), where the Jacobian vanishes
    s = np.array([-1.0, 2.0])
    return GameDefinition(
        2, 1, lambda X: 4.0 * (X + s) ** 3, lambda x: np.diag(12.0 * (x + s) ** 2)
    )


GAME_REGISTRY = {
    "sensor_network": sensor_network_game,
    "skew_bilinear": _skew_bilinear,
    "decoupled_quartic": _decoupled_quartic,
}
