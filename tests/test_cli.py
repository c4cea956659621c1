import json

import numpy as np
import pytest

from nes_sim import CommGraph, estimation_matrix
from nes_sim.cli import main
from nes_sim.presets import figure_preset


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _fast_run_doc(tmp_path, t_end=10.0):
    # short saturated-gradient-play run that converges well inside t_end
    doc = figure_preset("fig2")
    doc["sim"]["t_end"] = t_end
    doc["sim"]["record_stride"] = 10
    doc["output"] = {
        "trajectory": str(tmp_path / "traj.csv"),
        "summary": str(tmp_path / "summary.txt"),
    }
    return doc


def test_oracle_prints_equilibrium(tmp_path, capsys):
    doc = figure_preset("fig2")
    doc.pop("output")
    rc = main(["oracle", _write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "x_star=-0.125000000000,0.750000000000,0.750000000000" in out
    assert "pseudo_gradient_inf_norm" in out


def test_oracle_rejects_non_quadratic(tmp_path, capsys):
    doc = {
        "game": {"type": "custom", "name": "skew_bilinear"},
        "graph": {"adjacency": [[0.0, 1.0], [1.0, 0.0]]},
        "strategy": {"tag": "sat_grad_play", "saturation": {"u_bar": 1.0}},
        "sim": {"dt": 0.01, "t_end": 1.0},
    }
    rc = main(["oracle", _write(tmp_path, doc)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_oracle_rejects_singular_game(tmp_path, capsys):
    doc = figure_preset("fig2")
    doc.pop("output")
    doc["game"]["r"] = np.zeros((3, 2, 2)).tolist()
    doc["game"]["m_weights"] = np.zeros((3, 3)).tolist()
    rc = main(["oracle", _write(tmp_path, doc)])
    assert rc == 1
    assert "not strongly monotone" in capsys.readouterr().err


def test_tune_first_order(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    rc = main(["tune", _write(tmp_path, figure_preset("fig3")), "--out", str(out_json)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "m=2" in out
    assert "lbar=4.472135955,6.63324958071,4.472135955" in out
    assert "theta_star=1471.77030417" in out
    report = json.loads(out_json.read_text())
    assert report["theta_star"] == pytest.approx(1471.7703041737002, rel=1e-9)


def test_tune_central_second_order(tmp_path, capsys):
    doc = figure_preset("fig2")
    doc.pop("output")
    doc["strategy"] = {"tag": "second_order_central", "gains": {"alpha": 1.0, "beta": 1.0}}
    doc["init"] = {"x0": "zeros", "nu0": "zeros"}
    rc = main(["tune", _write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "alpha_star=2" in out
    assert "beta_star=4.82842712475" in out
    assert "eps1_window_low" in out


def test_tune_saturated_second_order_flags_heuristic(tmp_path, capsys):
    rc = main(["tune", _write(tmp_path, figure_preset("fig4"))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "theta1_star=" in out
    assert "heuristic" in out


def test_tune_custom_game_requires_overrides(tmp_path, capsys):
    doc = {
        "game": {"type": "custom", "name": "decoupled_quartic"},
        "graph": {"adjacency": [[0.0, 1.0], [1.0, 0.0]]},
        "strategy": {"tag": "first_order_dist", "gains": {"theta": 10.0},
                     "saturation": {"u_bar": 1.0}},
        "sim": {"dt": 0.01, "t_end": 1.0},
    }
    assert main(["tune", _write(tmp_path, doc, "no_overrides.json")]) == 1
    assert "error" in capsys.readouterr().err
    doc["strategy"]["tuner_overrides"] = {
        "lipschitz_constants": [12.0, 12.0],
        "monotonicity_m": 0.5,
        "sup_jacobian_norm": 12.0,
    }
    assert main(["tune", _write(tmp_path, doc, "with_overrides.json")]) == 0
    assert "theta_star=" in capsys.readouterr().out


def test_run_writes_outputs_and_exits_zero(tmp_path, capsys):
    rc = main(["run", _write(tmp_path, _fast_run_doc(tmp_path))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "converged=true" in out
    assert "max_abs_u=5" in out
    assert (tmp_path / "traj.csv").exists()
    summary = (tmp_path / "summary.txt").read_text()
    assert "bounds_ok=true" in summary
    assert "config_hash=" in summary


def test_run_requires_output_section(tmp_path, capsys):
    doc = _fast_run_doc(tmp_path)
    doc.pop("output")
    assert main(["run", _write(tmp_path, doc)]) == 1
    assert "output section" in capsys.readouterr().err


def test_run_nonpositive_gain_exits_one(tmp_path, capsys):
    doc = figure_preset("fig3")
    doc["strategy"]["gains"]["theta"] = -5.0
    doc["output"] = {"trajectory": str(tmp_path / "t.csv"), "summary": str(tmp_path / "s.txt")}
    assert main(["run", _write(tmp_path, doc)]) == 1
    assert "positive" in capsys.readouterr().err


def test_run_short_horizon_exits_two_but_writes_summary(tmp_path, capsys):
    doc = _fast_run_doc(tmp_path, t_end=0.5)
    rc = main(["run", _write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert rc == 2
    assert "converged=false" in out
    assert (tmp_path / "summary.txt").exists()
    assert (tmp_path / "traj.csv").exists()


def test_run_custom_game_without_oracle_exits_two(tmp_path, capsys):
    # no closed-form equilibrium -> convergence cannot be certified
    doc = {
        "game": {"type": "custom", "name": "decoupled_quartic"},
        "graph": {"adjacency": [[0.0, 1.0], [1.0, 0.0]]},
        "strategy": {"tag": "sat_grad_play", "saturation": {"u_bar": 2.0}},
        "sim": {"dt": 0.01, "t_end": 2.0},
        "output": {"trajectory": str(tmp_path / "t.csv"), "summary": str(tmp_path / "s.txt")},
    }
    rc = main(["run", _write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert rc == 2
    assert "converged=false" in out
    assert "t_hit=none" in out
    assert (tmp_path / "t.csv").exists()


def test_run_malformed_config_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["run", str(path)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_global_overrides(tmp_path, capsys):
    doc = _fast_run_doc(tmp_path)
    rc = main(["--dt", "2e-3", "--t-end", "6.0", "run", _write(tmp_path, doc)])
    assert rc == 0
    lines = (tmp_path / "traj.csv").read_text().splitlines()
    assert lines[-1].split(",")[0] == "6"


def test_run_sweep_section(tmp_path, capsys):
    doc = _fast_run_doc(tmp_path)
    doc["sweep"] = [
        {
            "strategy.saturation.u_bar": 2.0,
            "output.trajectory": str(tmp_path / "a.csv"),
            "output.summary": str(tmp_path / "a.txt"),
        },
        {
            "strategy.saturation.u_bar": 8.0,
            "output.trajectory": str(tmp_path / "b.csv"),
            "output.summary": str(tmp_path / "b.txt"),
        },
    ]
    rc = main(["run", _write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "# sweep[0]" in out and "# sweep[1]" in out
    assert "max_abs_u=2" in out and "max_abs_u=8" in out
    assert (tmp_path / "a.csv").exists() and (tmp_path / "b.txt").exists()


def test_replicate_unknown_figure_exits_one(tmp_path, capsys):
    assert main(["replicate", "fig9", "--out", str(tmp_path)]) == 1
    assert "unknown preset" in capsys.readouterr().err


def test_replicate_fig2(tmp_path, capsys):
    rc = main(["replicate", "fig2", "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "converged=true" in out
    assert "max_abs_u=5" in out
    assert (tmp_path / "out" / "fig2_trajectory.csv").exists()
    assert (tmp_path / "out" / "fig2_summary.txt").exists()


def test_console_script_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "nes_sim.cli", "replicate", "unknown", "--out", "/tmp/x"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "unknown preset" in proc.stderr


def _short_run_doc(tmp_path, name):
    doc = figure_preset(name)
    doc["output"] = {"trajectory": str(tmp_path / "t.csv"), "summary": str(tmp_path / "s.txt")}
    return doc


def _key(out, key):
    return next(line.split("=", 1)[1] for line in out.splitlines() if line.startswith(key + "="))


def test_run_and_tune_share_overridden_theta_star(tmp_path, capsys):
    doc = _short_run_doc(tmp_path, "fig3")
    doc["strategy"]["tuner_overrides"] = {"monotonicity_m": 0.5}
    path = _write(tmp_path, doc)
    assert main(["tune", path]) == 0
    tuned = _key(capsys.readouterr().out, "theta_star")
    assert main(["--t-end", "0.01", "run", path]) == 2  # too short to converge
    echoed = float(_key(capsys.readouterr().out, "tuner_theta_star"))
    assert f"{echoed:.12g}" == tuned == "5758.44721871"


def test_run_reports_tuner_error(tmp_path, capsys):
    doc = _short_run_doc(tmp_path, "fig4")
    doc["strategy"]["gains"]["theta"] = 1.0  # below theta_star
    assert main(["--t-end", "0.01", "run", _write(tmp_path, doc)]) == 2
    out = capsys.readouterr().out
    assert "tuner_error=requested theta does not exceed theta_star" in out
    assert "tuner_theta_star" not in out


def test_tune_refusal_names_theta_and_theta_star(tmp_path, capsys):
    # theta at or below the floor still exits 1, but the message gives the floor
    doc = _short_run_doc(tmp_path, "fig4")
    assert main(["tune", _write(tmp_path, doc)]) == 0
    theta_star = _key(capsys.readouterr().out, "theta_star")
    doc["strategy"]["gains"]["theta"] = 1.0
    assert main(["tune", _write(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert f"theta=1, theta_star={theta_star}" in err


@pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN", "1e999"])
def test_non_finite_numbers_exit_one(tmp_path, capsys, token):
    text = json.dumps(_short_run_doc(tmp_path, "fig2")).replace('"t_end": 20.0', f'"t_end": {token}')
    assert token in text
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["run", str(path)]) == 1
    assert "not a finite number" in capsys.readouterr().err


def test_infinite_t_end_flag_exits_one(tmp_path, capsys):
    path = _write(tmp_path, _short_run_doc(tmp_path, "fig2"))
    assert main(["--t-end", "inf", "run", path]) == 1
    assert "t_end must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("stride", [2.5, True, "2"])
def test_non_integer_record_stride_exits_one(tmp_path, capsys, stride):
    doc = _short_run_doc(tmp_path, "fig2")
    doc["sim"]["record_stride"] = stride
    assert main(["run", _write(tmp_path, doc)]) == 1
    assert "record_stride must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "dotted, value",
    [
        ("graph.lyapunov_q", "1"),
        ("graph.lyapunov_q", True),
        ("strategy.gains.theta", "1000"),
        ("strategy.gains.theta", True),
        ("strategy.gains.theta_bar", "2"),
        ("strategy.gains.theta_bar", "abc"),
        ("strategy.saturation.u_bar", "5"),
        ("sim.dt", "0.0001"),
        ("sim.convergence_tol", "0.01"),
        ("game.q", ["3", 3.0, 6.0]),
        ("graph.adjacency", [[0, 1, 0], [1, 0, True], [0, True, 0]]),
    ],
)
def test_numbers_must_be_json_numbers(tmp_path, capsys, dotted, value):
    doc = _short_run_doc(tmp_path, "fig3")
    *parents, key = dotted.split(".")
    node = doc
    for name in parents:
        node = node[name]
    node[key] = value
    assert main(["--t-end", "0.01", "run", _write(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == f"error: {dotted}: expected a number\n"
    assert not (tmp_path / "s.txt").exists()


_SKEW_SECOND_ORDER = {
    "game": {"type": "custom", "name": "skew_bilinear"},
    "graph": {"adjacency": [[0.0, 1.0], [1.0, 0.0]]},
    "strategy": {"tag": "second_order_dist", "gains": {"theta": 1.0, "theta1": 1.0, "K": 0.1}},
    "sim": {"dt": 0.01, "t_end": 0.1, "monitor_lyapunov": True},
}


@pytest.mark.parametrize(
    "case, reason",
    [
        ("asymmetric_bounds", "Lyapunov candidates are defined for symmetric bounds only"),
        ("no_equilibrium", "second_order_dist Lyapunov value requires the equilibrium x_star"),
    ],
    ids=["asymmetric_bounds", "no_equilibrium"],
)
def test_run_reports_lyapunov_error(tmp_path, capsys, case, reason):
    # a candidate that cannot be evaluated is skipped with its reason, and
    # the outputs are still written
    if case == "asymmetric_bounds":
        doc = _short_run_doc(tmp_path, "fig2")
        doc["strategy"]["saturation"] = {"lower": [-4.0] * 6, "upper": [5.0] * 6}
    else:
        doc = dict(_SKEW_SECOND_ORDER)
        doc["output"] = {"trajectory": str(tmp_path / "t.csv"), "summary": str(tmp_path / "s.txt")}
    assert main(["--t-end", "0.1", "run", _write(tmp_path, doc)]) == 2
    out = capsys.readouterr().out
    assert f"lyapunov_error={reason}\n" in out
    assert "max_lyapunov_increment=none" in out
    assert f"lyapunov_error={reason}\n" in (tmp_path / "s.txt").read_text()
    header = (tmp_path / "t.csv").read_text().splitlines()[0].split(",")
    assert "V" not in header


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed", "3", "replicate", "fig2", "--out", "OUT"],
        ["bogus"],
        ["replicate", "fig2"],
    ],
    ids=["stale_seed_flag", "unknown_subcommand", "missing_out"],
)
def test_usage_errors_exit_one(tmp_path, capsys, argv):
    # argparse would exit 2, the code reserved for a run that did not converge
    argv = [str(tmp_path) if arg == "OUT" else arg for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("integrator, evals_per_step", [("rk4", 4), ("euler", 1)])
def test_summary_reports_steps_and_rhs_evals(tmp_path, capsys, integrator, evals_per_step):
    doc = _short_run_doc(tmp_path, "fig2")
    doc["sim"]["integrator"] = integrator
    assert main(["--t-end", "0.5", "run", _write(tmp_path, doc)]) == 2
    out = capsys.readouterr().out
    assert _key(out, "n_steps") == "500"
    assert _key(out, "rhs_evals") == str(evals_per_step * 500 + 1)
    assert out.index("rhs_evals=") < out.index("wall_clock_s=")


def test_run_unwritable_output_exits_one(tmp_path, capsys):
    doc = _fast_run_doc(tmp_path, t_end=0.5)
    doc["output"]["trajectory"] = str(tmp_path / "missing" / "traj.csv")
    assert main(["run", _write(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing" in err


def test_tune_unwritable_out_exits_one(tmp_path, capsys):
    doc = figure_preset("fig3")
    doc.pop("output", None)
    out = str(tmp_path / "missing" / "x.json")
    assert main(["tune", _write(tmp_path, doc), "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing" in err


def test_sweep_entries_must_not_share_outputs(tmp_path, capsys):
    # the entries differ from the base paths but not from each other
    doc = _fast_run_doc(tmp_path, t_end=0.5)
    doc["sweep"] = [
        {
            "strategy.saturation.u_bar": u_bar,
            "output.trajectory": str(tmp_path / f"{u_bar}.csv"),
            "output.summary": str(tmp_path / "same.txt"),
        }
        for u_bar in (1.0, 2.0)
    ]
    assert main(["run", _write(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert "sweep entries 0 and 1 both write" in err and "same.txt" in err
    assert not (tmp_path / "same.txt").exists()


def test_tune_and_monitored_run_on_a_twenty_player_ring(tmp_path, capsys):
    # n = N^2 p = 800 estimates: the Lyapunov solve must not build the
    # n^2 x n^2 Kronecker system, which would need terabytes
    n_players = 20
    ring = np.roll(np.eye(n_players), 1, axis=1) + np.roll(np.eye(n_players), -1, axis=1)
    rng = np.random.default_rng(3)
    doc = {
        "game": {
            "type": "quadratic",
            "r": [np.eye(2).tolist()] * n_players,
            "p_vec": rng.uniform(-4.0, 4.0, (n_players, 2)).tolist(),
            "q": rng.uniform(0.0, 6.0, n_players).tolist(),
            "m_weights": ring.tolist(),
        },
        "graph": {"adjacency": ring.tolist()},
        "strategy": {
            "tag": "second_order_dist_sat",
            "gains": {"theta": 1e9, "theta1": 1.0, "K": 0.1, "theta_bar": 1.0},
            "saturation": {"u_bar": 5.0},
        },
        "sim": {"dt": 1e-3, "t_end": 1.0, "record_stride": 10, "monitor_lyapunov": True},
        "init": {"x0": "zeros"},
        "output": {"trajectory": str(tmp_path / "t.csv"), "summary": str(tmp_path / "s.txt")},
    }
    assert main(["tune", _write(tmp_path, doc)]) == 0
    theta_star = float(_key(capsys.readouterr().out, "theta_star"))
    assert np.isfinite(theta_star) and theta_star > 0.0

    theta = 2.0 * theta_star
    lam_max = np.linalg.eigvalsh(estimation_matrix(CommGraph(ring), 2))[-1]
    dt = 2.0 / (theta * 1.0 * lam_max)  # theta1 = 1
    doc["strategy"]["gains"]["theta"] = theta
    doc["sim"].update(dt=dt, t_end=50 * dt)
    assert main(["run", _write(tmp_path, doc)]) in (0, 2)
    out = capsys.readouterr().out
    assert np.isfinite(float(_key(out, "max_lyapunov_increment")))
    assert "lyapunov_error=" not in out
