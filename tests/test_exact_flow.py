"""RK4 against the exact flow of runs whose field is affine.

A quadratic game's law is affine, A s + b, so while no clamp binds the
field has an exact flow (``tests/oracles.py``). The record gaps below are
relative to the largest |state| the exact records reach.
"""

import numpy as np
import pytest

from nes_sim import parse_config, run_experiment
from nes_sim.presets import figure_preset
from tests.conftest import X0
from tests.oracles import affine_law, exact_records


def _record_gap(cfg, traj):
    h = cfg.sim.dt * cfg.sim.record_stride
    np.testing.assert_allclose(traj.times, h * np.arange(traj.n_records), rtol=0, atol=1e-9)
    exact = exact_records(*affine_law(cfg), traj.states[0], h, traj.n_records)
    return float(np.max(np.abs(traj.states - exact)) / np.max(np.abs(exact)))


def test_fig4_records_follow_the_exact_flow(fig4_run):
    cfg, summary, traj = fig4_run
    # the clamp never binds, so the clamped field is the affine law all along
    assert np.max(np.abs(traj.controls)) == summary.max_abs_u == pytest.approx(0.4)
    assert np.all(cfg.sat_spec.upper == 5.0) and np.all(cfg.sat_spec.lower == -5.0)
    assert _record_gap(cfg, traj) <= 1e-9  # 1.08e-11 measured


@pytest.mark.parametrize(
    "strategy",
    [
        {"tag": "second_order_central", "gains": {"alpha": 1.0, "beta": 1.0}},
        {"tag": "second_order_dist",
         "gains": {"theta": 200.0, "theta1": 1.0, "K": 0.1, "theta_bar": 1.0}},
    ],
    ids=["second_order_central", "second_order_dist"],
)
def test_unclamped_second_order_records_follow_the_exact_flow(strategy):
    # the sensor game from fig2's start over 20 s, recorded every 0.1 s; neither law
    # has a clamp. Measured gaps: 4.8e-12 (central) and 1.5e-12 (distributed), so
    # the bound is 20 times the larger
    doc = figure_preset("fig4")
    del doc["output"]
    doc.update(strategy=strategy, init={"x0": X0.tolist()})
    doc["sim"]["t_end"] = 20.0
    cfg = parse_config(doc)
    _, traj = run_experiment(cfg)
    assert _record_gap(cfg, traj) <= 1e-10
