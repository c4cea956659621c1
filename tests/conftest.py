import numpy as np
import pytest

from nes_sim import (
    CommGraph,
    DimensionMismatchError,
    parse_config,
    run_experiment,
    sensor_network_game,
)
from nes_sim.graphs import pinned_index
from nes_sim.presets import figure_preset, path_graph_adjacency

# benchmark initial condition shared across suites
X0 = np.array([10.0, 0.0, 0.0, 5.0, 0.0, 0.0])


def evaluate(rhs, layout, state):
    """A field's derivative at ``state`` in a fresh row, and its control rows."""
    ds = rhs(state, np.empty(layout.size))
    return ds, ds[layout.control]


def block_lambda_max(m):
    """Largest eigenvalue of a symmetric matrix read from its
    :func:`~nes_sim.graphs.pinned_index` blocks, one batched ``eigvalsh``:
    for M1 these are the pinned blocks, so this is the stability guard's
    eigenvalue, bit for bit."""
    idx = pinned_index(m)
    return float(np.linalg.eigvalsh(m[idx[:, :, None], idx[:, None, :]]).max())


def central_difference(f, x):
    """Central differences of ``f`` at ``x``, one column per coordinate of
    ``x``: the gradient of a scalar ``f``, the Jacobian of a vector one.
    The step 1e-6 max(1, |x|) balances truncation against float64 rounding."""
    x = np.asarray(x, dtype=float)
    h = 1e-6 * max(1.0, float(np.max(np.abs(x))))
    cols = [(np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * h) for e in h * np.eye(x.size)]
    return np.stack(cols, axis=-1)


def quadratic_cost(game, i, x):
    """Player i's cost in a ``QuadraticGame``, from its coefficients alone:
    x_i' r_i x_i + x_i' p_i + q_i + sum_j w_ij |x_i - x_j|^2."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != game.profile_dim:
        raise DimensionMismatchError("action profile", game.profile_dim, x.size)
    blocks = x.reshape(game.n_players, game.action_dim)
    xi = blocks[i]
    spread = np.sum((xi - blocks) ** 2, axis=1)
    return float(xi @ game.r[i] @ xi + xi @ game.p_vec[i] + game.q[i] + game.m_weights[i] @ spread)


def cost_gradients(game, x):
    """Every player's own cost gradient at ``x`` by central differences, stacked."""
    p = game.action_dim
    return np.concatenate([
        central_difference(lambda v, i=i: quadratic_cost(game, i, v), x)[i * p : (i + 1) * p]
        for i in range(game.n_players)
    ])


@pytest.fixture(scope="session")
def sensor_game():
    return sensor_network_game()


@pytest.fixture(scope="session")
def x_star(sensor_game):
    return sensor_game.exact_ne()


@pytest.fixture(scope="session")
def path_graph():
    return CommGraph(path_graph_adjacency())


def _run_preset(name, tmp_path_factory):
    doc = figure_preset(name)
    outdir = tmp_path_factory.mktemp(f"{name}_out")
    doc["output"] = {
        "trajectory": str(outdir / f"{name}_trajectory.csv"),
        "summary": str(outdir / f"{name}_summary.txt"),
    }
    cfg = parse_config(doc)
    summary, traj = run_experiment(cfg)
    return cfg, summary, traj


@pytest.fixture(scope="session")
def fig2_run(tmp_path_factory):
    return _run_preset("fig2", tmp_path_factory)


@pytest.fixture(scope="session")
def fig3_run(tmp_path_factory):
    return _run_preset("fig3", tmp_path_factory)


@pytest.fixture(scope="session")
def fig4_run(tmp_path_factory):
    return _run_preset("fig4", tmp_path_factory)
