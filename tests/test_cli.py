import copy
import json
import os
import warnings

import numpy as np
import pytest

import nes_sim.cli
import nes_sim.runner
from nes_sim import CommGraph, estimation_matrix, parse_config, solve_lyapunov
from nes_sim.cli import main
from nes_sim.dynamics import STRATEGIES
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


def _second_order_doc(tmp_path, tag):
    # fig4's game and path graph with u_bar = 5; the bound is checked, not applied
    doc = _short_run_doc(tmp_path, "fig4")
    if tag == "second_order_central":
        doc["strategy"] = {
            "tag": tag, "gains": {"alpha": 1.0, "beta": 1.0}, "saturation": {"u_bar": 5.0}
        }
        doc["sim"]["t_end"] = 20.0
        doc["init"] = {"x0": figure_preset("fig2")["init"]["x0"]}
    else:
        doc["strategy"]["tag"] = tag
        doc["sim"]["t_end"] = 60.0
    return doc


@pytest.mark.parametrize(
    "tag, t_hit, bounds_ok",
    [("second_order_central", 7.4, "false"), ("second_order_dist", 20.8, "true")],
)
def test_the_unsaturated_second_order_laws_run_end_to_end(tmp_path, capsys, tag, t_hit, bounds_ok):
    doc = _second_order_doc(tmp_path, tag)
    assert main(["run", _write(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    assert _key(out, "strategy") == tag and _key(out, "converged") == "true"
    assert float(_key(out, "t_hit")) == pytest.approx(t_hit, abs=1e-9)
    assert float(_key(out, "max_lyapunov_increment")) <= 0.0
    # the central law is unbounded: its transient leaves the bound the paper saturates it by
    assert _key(out, "bounds_ok") == bounds_ok
    cfg = parse_config(doc)
    if tag == "second_order_central":
        rate = float(np.linalg.norm(cfg.game.jacobian_matrix, 2)) + 1.0 + 1.0
        assert float(_key(out, "worst_bound_violation")) > 0.0
    else:
        M = estimation_matrix(cfg.graph, 1)
        rate = 200.0 * 1.0 * 1.0 * float(np.linalg.eigvalsh(M)[-1])
    assert float(_key(out, "guard_product")) == cfg.sim.dt * rate

    with open(tmp_path / "t.csv") as fh:
        header = fh.readline().strip().split(",")
    table = np.loadtxt(tmp_path / "t.csv", delimiter=",", skiprows=1)
    names = [f"{b}_{i}_{d}" for b in ("x", "nu", "u") for i in (1, 2, 3) for d in (1, 2)]
    assert header[: 1 + len(names)] == ["t", *names]
    t, x, nu = table[:, 0], table[:, 1:7], table[:, 7:13]
    assert np.all(np.diff(table[:, header.index("V")]) <= 0.0)
    assert np.all(nu[0] == 0.0) and np.abs(nu[-1]).max() < cfg.sim.convergence_tol
    # x is the integral of nu: the trapezoid rule over the 0.1 s records, to 1 %
    drift = x[-1] - x[0]
    np.testing.assert_allclose(np.trapezoid(nu, t, axis=0), drift, atol=0.01 * np.abs(drift).max())


def test_run_requires_output_section(tmp_path, capsys):
    doc = _fast_run_doc(tmp_path)
    doc.pop("output")
    assert main(["run", _write(tmp_path, doc)]) == 1
    assert "output section" in capsys.readouterr().err


def test_run_refuses_an_empty_sweep_and_writes_nothing(tmp_path, capsys):
    # an empty sweep used to run the base document and write its outputs (exit 2)
    doc = _fast_run_doc(tmp_path, t_end=0.05)
    doc["sweep"] = []
    assert main(["run", _write(tmp_path, doc)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: sweep: the list is empty; give at least one entry or drop the key"]
    assert not (tmp_path / "traj.csv").exists() and not (tmp_path / "summary.txt").exists()


@pytest.mark.parametrize(
    "sweep", ["not-a-list", {"sim.dt": 2e-3}, [1], [{"sim.dt": 2e-3}, "x"]],
    ids=["string", "object", "number-entry", "string-entry"],
)
def test_run_refuses_a_sweep_that_is_not_a_list_of_objects(tmp_path, capsys, sweep):
    doc = _fast_run_doc(tmp_path, t_end=0.05)
    doc["sweep"] = sweep
    assert main(["run", _write(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sweep: expected a list of override objects\n"
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("sweep", ["not-a-list", []], ids=["string", "empty"])
def test_a_malformed_base_document_is_reported_before_a_malformed_sweep(
    tmp_path, capsys, sweep
):
    doc = _fast_run_doc(tmp_path, t_end=0.05)
    doc["sim"]["dt"] = "fast"
    doc["sweep"] = sweep
    assert main(["run", _write(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == "error: sim.dt: expected a number\n"


def test_a_deeply_nested_sweep_override_is_one_error_line(tmp_path, capsys):
    # 900 levels read from the file, refused by the entry's parse, not by a traceback
    doc = _fast_run_doc(tmp_path, t_end=0.05)
    doc["sweep"] = [{"init.x0": "DEEP", **_entry_outputs(tmp_path, "a")}]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc).replace('"DEEP"', "[" * 900 + "1" + "]" * 900))
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: sweep[0]: init.x0: expected a flat list of numbers\n"
    assert os.listdir(tmp_path) == ["deep.json"]


@pytest.mark.parametrize("command", ["tune", "oracle"])
@pytest.mark.parametrize("name", ["fig3", "fig4"])
def test_tune_and_oracle_ignore_a_sweep(tmp_path, capsys, command, name):
    doc = figure_preset(name)
    assert main([command, _write(tmp_path, doc)]) == 0
    alone = capsys.readouterr()
    doc["sweep"] = [{"strategy.gains.theta": 1.0, "game.q": 2.0}, {"sim.dt": 1e-2}]
    assert main([command, _write(tmp_path, doc, "sweep.json")]) == 0
    assert capsys.readouterr() == alone


@pytest.mark.parametrize("command", ["run", "tune"])
def test_a_one_player_game_with_estimates_exits_one_naming_the_tag(tmp_path, capsys, command):
    # the lone player's M1 is the 1x1 zero matrix: refused at parse time, not
    # as a graph that is not connected
    doc = {
        "game": {"type": "quadratic", "r": [[[1.0]]], "p_vec": [[0.5]], "q": [0.0],
                 "m_weights": [[0.0]]},
        "graph": {"adjacency": [[0.0]]},
        "strategy": {"tag": "first_order_dist", "gains": {"theta": 10.0},
                     "saturation": {"u_bar": 5.0}},
        "sim": {"dt": 1e-3, "t_end": 0.01},
        "output": {"trajectory": str(tmp_path / "t.csv"), "summary": str(tmp_path / "s.txt")},
    }
    assert main([command, _write(tmp_path, doc)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: strategy.tag: first_order_dist shares estimates between players "
                   "and needs at least 2; the game has 1"]


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


def test_theta_too_large_for_the_ceiling_exits_one_and_run_reports_it(tmp_path, capsys):
    # lambda_min(A1) would overflow to -inf and theta1_star to nan: tune refuses
    # theta, and run echoes the refusal. theta * theta1 = 100 keeps the run finite.
    doc = _short_run_doc(tmp_path, "fig4")
    doc["strategy"]["gains"].update(theta=1e308, theta1=1e-306)
    path = _write(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["tune", path]) == 1
        captured = capsys.readouterr()
        assert "nan" not in captured.out and "inf" not in captured.out
        assert captured.err == (
            "error: theta=1e+308 gives a non-finite lambda_min(A1) or theta1_star\n"
        )
        assert main(["--t-end", "0.01", "run", path]) == 2
    out = capsys.readouterr().out
    assert "tuner_error=theta=1e+308 gives a non-finite lambda_min(A1) or theta1_star" in out
    assert "tuner_theta1_star" not in out


@pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN", "1e999"])
def test_non_finite_numbers_exit_one(tmp_path, capsys, token):
    text = json.dumps(_short_run_doc(tmp_path, "fig2")).replace('"t_end": 20.0', f'"t_end": {token}')
    assert token in text
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["run", str(path)]) == 1
    assert "not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("zeros", [400, 5000])
def test_integer_too_large_for_a_float_exits_one_without_traceback(tmp_path, zeros):
    import subprocess
    import sys

    huge = "1" + "0" * zeros
    text = json.dumps(_short_run_doc(tmp_path, "fig2")).replace('"t_end": 20.0', f'"t_end": {huge}')
    assert huge in text
    path = tmp_path / "config.json"
    path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "nes_sim.cli", "run", str(path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    shown = f"{huge[:40]}... ({len(huge)} characters)"  # the literal is cut, not echoed whole
    assert proc.stderr == f"error: {path}: {shown} is not a finite number\n"
    assert len(proc.stderr) < len(str(path)) + 100
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--dt", "nan"], "dt must be finite"), (["--dt", "inf"], "dt must be finite"),
        (["--t-end", "nan"], "t_end must be finite"), (["--t-end", "inf"], "t_end must be finite"),
        (["--dt", "-1"], "dt must be positive"),  # a finite value keeps its message
        (["--dt", "1e-300"], "dt = 1e-300 and t_end = 20 give 2e+300 records of 6 floats, "
                             "more than one array can hold"),
        # 200 001 records of 6 floats, 9.2 MiB, against the 1 MiB of memory set below
        (["--dt", "1e-5"], "dt = 1e-05 and t_end = 20 give 2e+05 records of 6 floats, "
                           "0.00894 GiB, more than the 0.000977 GiB of physical memory"),
    ],
    ids=["dt-nan", "dt-inf", "t_end-nan", "t_end-inf", "dt-negative", "dt-unindexable",
         "dt-past-memory"],
)
@pytest.mark.parametrize("command", ["replicate", "run"])
def test_refused_sim_flags_are_named_and_create_no_out(
    tmp_path, capsys, monkeypatch, flags, message, command
):
    memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}  # 1 MiB
    monkeypatch.setattr(os, "sysconf", memory.__getitem__)
    if command == "run":
        argv = ["run", _write(tmp_path, _short_run_doc(tmp_path / "new", "fig2"))]
    else:
        argv = ["replicate", "fig2", "--out", str(tmp_path / "new" / "sub")]
    assert main([*flags, *argv]) == 1
    assert capsys.readouterr().err == f"error: sim: {message}\n"
    assert not (tmp_path / "new").exists()


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


def _overflowing_doc(tmp_path, case):
    if case == "adjacency":
        doc = _short_run_doc(tmp_path, "fig3")
        doc["graph"]["adjacency"] = (1e308 * np.array(doc["graph"]["adjacency"])).tolist()
        return doc
    doc = _short_run_doc(tmp_path, "fig2")
    if case == "r":
        doc["game"]["r"][0] = [[1e308, 0.0], [0.0, 1e308]]
    else:
        doc["game"]["m_weights"] = (1e308 * (1.0 - np.eye(3))).tolist()
    return doc


@pytest.mark.parametrize("command", ["oracle", "tune", "run"])
@pytest.mark.parametrize(
    "case, message",
    [
        ("r", "game: the pseudo-gradient matrix H overflows the float range"),
        ("m_weights", "game: the pseudo-gradient matrix H overflows the float range"),
        ("adjacency", "graph.adjacency: adjacency degrees (row sums) overflow the float range"),
    ],
)
def test_overflowing_game_and_graph_inputs_exit_one_by_name(
    tmp_path, capsys, command, case, message
):
    # unchecked, these exit 1 with numpy's "Eigenvalues did not converge" or "SVD
    # did not converge" after RuntimeWarnings (errors in this suite)
    path = _write(tmp_path, _overflowing_doc(tmp_path, case))
    assert main(["--t-end", "0.01", command, path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "t.csv").exists()


def test_run_reports_a_non_finite_lyapunov_candidate(tmp_path, capsys):
    # p_vec of 1e308 overflows the candidate at t = 0: reported by reason, not as nan
    doc = _short_run_doc(tmp_path, "fig2")
    doc["game"]["p_vec"][0] = [1e308, 1e308]
    assert main(["--t-end", "0.01", "run", _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "max_lyapunov_increment=none\n" in captured.out
    assert "lyapunov_error=Lyapunov candidate is not finite at t=0\n" in captured.out
    assert "nan" not in (tmp_path / "s.txt").read_text()


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
        ["--dt", "abc", "run", "a.json"],
        [],
        ["run"],
        ["run", "a.json", "b.json"],
        ["tune", "a.json", "--out"],
        ["--bogus", "run", "a.json"],
        ["replicate", "fig2", "--out"],
        ["--t", "1.0", "run", "a.json"],
        ["run", "--dt", "0.1", "a.json"],
        ["--dt", "0.1", "--dt=0.2", "run", "a.json"],
    ],
    ids=["stale_seed_flag", "unknown_subcommand", "missing_out", "dt_not_a_number",
         "no_command", "no_config", "two_configs", "tune_out_without_value", "unknown_flag",
         "replicate_out_without_value", "abbreviated_flag", "global_flag_after_command",
         "flag_given_twice"],
)
def test_usage_errors_exit_one(tmp_path, capsys, argv):
    # exit 1 with the usage and one error line, never 2: that code means a run
    # that did not converge
    argv = [str(tmp_path) if arg == "OUT" else arg for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 2 and err[0].startswith("usage: nes-sim ")
    assert err[1].startswith("nes-sim: error: ")
    assert not list(tmp_path.iterdir())


def test_help_exits_zero_with_the_usage_on_stdout(capsys):
    for argv in (["--help"], ["-h"], ["--dt", "0.1", "tune", "-h"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage:") and captured.err == ""
        for command in ("run", "tune", "oracle", "replicate", "--dt", "--t-end", "--out"):
            assert command in captured.out


def test_joined_and_reordered_flags_give_the_same_outputs(tmp_path, capsys):
    def outputs(argv, files):
        assert main(argv) == 0
        return capsys.readouterr().out, [(tmp_path / name).read_bytes() for name in files]

    path = _write(tmp_path, _fast_run_doc(tmp_path))
    spaced = outputs(["--dt", "2e-3", "--t-end", "6.0", "run", path], ["traj.csv"])
    joined = outputs(["--dt=2e-3", "--t-end=6.0", "run", path], ["traj.csv"])
    assert spaced[1] == joined[1]
    # the summaries differ only in wall_clock_s
    assert [ln for ln in spaced[0].splitlines() if not ln.startswith("wall_clock_s=")] == [
        ln for ln in joined[0].splitlines() if not ln.startswith("wall_clock_s=")
    ]

    tune_path = _write(tmp_path, figure_preset("fig3"), "fig3.json")
    report = str(tmp_path / "report.json")
    spaced = outputs(["--t-end", "1", "tune", tune_path, "--out", report], ["report.json"])
    for argv in (["--t-end=1", "tune", tune_path, f"--out={report}"],
                 ["--t-end", "1", "tune", "--out", report, tune_path]):
        assert outputs(argv, ["report.json"]) == spaced


@pytest.mark.parametrize("integrator, evals_per_step", [("rk4", 4), ("euler", 1)])
def test_summary_reports_steps_and_rhs_evals(tmp_path, capsys, integrator, evals_per_step):
    doc = _short_run_doc(tmp_path, "fig2")
    doc["sim"]["integrator"] = integrator
    assert main(["--t-end", "0.5", "run", _write(tmp_path, doc)]) == 2
    out = capsys.readouterr().out
    assert _key(out, "n_steps") == "500"
    assert _key(out, "rhs_evals") == str(evals_per_step * 500 + 1)
    assert out.index("rhs_evals=") < out.index("wall_clock_s=")


@pytest.mark.parametrize("integrator, limit", [("rk4", 2.5), ("euler", 1.8)])
def test_summary_reports_the_stability_guard(tmp_path, capsys, integrator, limit):
    doc = _short_run_doc(tmp_path, "fig3")
    doc["sim"]["integrator"] = integrator
    main(["--t-end", "0.01", "run", _write(tmp_path, doc)])
    out = capsys.readouterr().out
    # fig3's fastest mode is the consensus flow: dt * theta * max(theta_bar) * lambda_max(M)
    graph = CommGraph(np.array(doc["graph"]["adjacency"]))
    rate = 1000.0 * 1.0 * np.linalg.eigvalsh(estimation_matrix(graph, 2))[-1]
    assert float(_key(out, "guard_product")) == pytest.approx(1e-4 * rate, rel=1e-12)
    assert float(_key(out, "guard_limit")) == limit
    keys = ("rhs_evals=", "guard_product=", "guard_limit=", "wall_clock_s=")
    assert [out.index(key) for key in keys] == sorted(out.index(key) for key in keys)


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


def test_each_sweep_output_path_is_resolved_once(tmp_path, monkeypatch, capsys):
    # one realpath per path serves both collision checks: the entry's own
    # trajectory against its summary, and the entries against each other
    resolved = []

    def realpath(path, *args, **kwargs):
        resolved.append(path)
        return original(path, *args, **kwargs)

    original = os.path.realpath
    monkeypatch.setattr(os.path, "realpath", realpath)
    monkeypatch.setattr(nes_sim.cli, "run_sweep", lambda items, fn: [])
    doc = _fast_run_doc(tmp_path, t_end=0.5)
    doc["sweep"] = [_entry_outputs(tmp_path, f"e{k}") for k in range(3)]
    assert main(["run", _write(tmp_path, doc)]) == 0
    entries = [path for k in range(3) for path in _entry_outputs(tmp_path, f"e{k}").values()]
    assert sorted(resolved) == sorted(entries + list(doc["output"].values()))


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


def _no_sysconf(name):
    raise ValueError(f"unrecognized configuration name {name}")


@pytest.mark.parametrize(
    "dt, pages, reason",
    [
        # fig2 keeps every 10th of 2e17 steps: 2e16 records of 6 states, 9.6e17 B >= 2**58 B,
        # more than any 64-bit address space holds; with no memory reading numpy refuses it
        pytest.param("1e-16", None, "Unable to allocate", id="1e-16-Unable to allocate"),
        # the same records against 1 MiB of physical memory, refused at parse time
        pytest.param(
            "1e-16", 256, "8.94e+08 GiB, more than the 0.000977 GiB of physical memory",
            id="1e-16-past-memory",
        ),
        # 2e19 steps: 2e18 records, 9.6e19 B > 2**63 B, refused at parse time
        pytest.param(
            "1e-18", None, "2e+18 records of 6 floats, more than one array can hold",
            id="1e-18-2e+18 records of 6 floats, more than one array can hold",
        ),
    ],
)
def test_records_that_cannot_be_allocated_exit_one_before_the_first_step(
    tmp_path, capsys, monkeypatch, dt, pages, reason
):
    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}
    monkeypatch.setattr(os, "sysconf", _no_sysconf if pages is None else sizes.__getitem__)
    assert main(["--dt", dt, "replicate", "fig2", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert reason in captured.err
    assert captured.out == ""
    assert not (tmp_path / "fig2_trajectory.csv").exists()


def test_summary_and_tune_print_keys_in_field_order(tmp_path, capsys):
    path = _write(tmp_path, _short_run_doc(tmp_path, "fig4"))
    assert main(["--t-end", "0.5", "run", path]) == 2
    keys = [line.split("=", 1)[0] for line in capsys.readouterr().out.splitlines()]
    assert keys == [
        "strategy",
        "converged",
        "t_hit",
        "final_dist_inf",
        "max_abs_u",
        *(f"max_abs_u_ch{k}" for k in range(1, 7)),
        "bounds_ok",
        "worst_bound_violation",
        "max_lyapunov_increment",
        "lyap_residual",
        "lyap_cond",
        "tuner_m",
        "tuner_theta1_star",
        "tuner_theta_star",
        "n_steps",
        "rhs_evals",
        "guard_product",
        "guard_limit",
        "wall_clock_s",
        "config_hash",
    ]
    assert main(["tune", path]) == 0
    keys = [line.split("=", 1)[0] for line in capsys.readouterr().out.splitlines()]
    assert keys == [
        "strategy",
        "m",
        "l1",
        "l2",
        "l3",
        "lambda_min_q",
        "lambda_min_a1",
        "theta_star",
        "theta1_star",
        "lbar",
        "caveats",
    ]


def _cli(argv):
    import subprocess
    import sys

    return subprocess.run(
        [sys.executable, "-m", "nes_sim.cli", *argv], capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("route", ["flags", "config"])
def test_step_count_that_overflows_exits_one_without_traceback(tmp_path, route):
    doc = _short_run_doc(tmp_path, "fig2")
    flags = ["--t-end", "1e300", "--dt", "1e-300"]
    if route == "config":
        doc["sim"].update(dt=1e-300, t_end=1e300)
        flags = []
    proc = _cli(flags + ["run", _write(tmp_path, doc)])
    assert proc.returncode == 1
    assert proc.stderr == "error: sim: t_end / dt, the step count, must be finite\n"
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("value", [5, None, ["a"]], ids=["number", "null", "list"])
def test_output_paths_must_be_strings(tmp_path, monkeypatch, capsys, value):
    monkeypatch.chdir(tmp_path)  # where a path such as str(5) would land
    for key in ("trajectory", "summary"):
        doc = _short_run_doc(tmp_path, "fig2")
        doc["output"][key] = value
        assert main(["--t-end", "0.01", "run", _write(tmp_path, doc)]) == 1
        assert capsys.readouterr().err == f"error: output.{key}: expected a file path\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"sim.dt": "0.1"}, "sim.dt: expected a number"),
        ({"sim.step.size": 0.1}, "override 'sim.step.size': no such config path"),
    ],
    ids=["parse", "override"],
)
def test_failing_sweep_entry_is_named(tmp_path, capsys, entry, message):
    doc = _fast_run_doc(tmp_path, t_end=0.5)
    good = {"output.trajectory": str(tmp_path / "a.csv"), "output.summary": str(tmp_path / "a.txt")}
    doc["sweep"] = [good, entry]
    assert main(["run", _write(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == f"error: sweep[1]: {message}\n"
    assert not (tmp_path / "a.csv").exists()


@pytest.mark.parametrize("command", ["run", "tune", "oracle"])
@pytest.mark.parametrize("sim", ["missing", 5, [1.0]], ids=["missing", "number", "list"])
@pytest.mark.parametrize("flag, dotted", [("--dt", "sim.dt"), ("--t-end", "sim.t_end")])
def test_flag_overrides_need_a_sim_object(tmp_path, capsys, command, sim, flag, dotted):
    doc = _short_run_doc(tmp_path, "fig2")
    if sim == "missing":
        doc.pop("sim")
    else:
        doc["sim"] = sim
    assert main([flag, "0.001", command, _write(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == f"error: override '{dotted}': no such config path\n"


def _entry_outputs(tmp_path, name, directory=None):
    where = tmp_path if directory is None else tmp_path / directory
    return {
        "output.trajectory": str(where / f"{name}.csv"),
        "output.summary": str(where / f"{name}.txt"),
    }


def test_unwritable_output_fails_before_the_run(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("integrate entered although the output cannot be written")

    monkeypatch.setattr(nes_sim.runner, "integrate", never)
    doc = _short_run_doc(tmp_path, "fig4")
    missing = str(tmp_path / "missing" / "t.csv")
    doc["output"]["trajectory"] = missing
    assert main(["run", _write(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == (
        f"error: output.trajectory: the directory of {missing} does not exist\n"
    )
    doc["output"]["trajectory"] = str(tmp_path)
    assert main(["run", _write(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == f"error: output.trajectory: {tmp_path} is a directory\n"


def test_read_only_output_directory_fails_before_the_run(tmp_path, monkeypatch, capsys):
    # os.access is stubbed because a process run as root may write anywhere,
    # so no chmod makes a directory unwritable to it
    def never(*args, **kwargs):
        raise AssertionError("integrate entered although the output cannot be written")

    read_only = tmp_path / "read_only"
    read_only.mkdir()
    access = nes_sim.runner.os.access

    def deny_read_only(path, mode, **kwargs):
        return str(path) != str(read_only) and access(path, mode, **kwargs)

    monkeypatch.setattr(nes_sim.runner, "integrate", never)
    monkeypatch.setattr(nes_sim.runner.os, "access", deny_read_only)
    doc = _short_run_doc(tmp_path, "fig4")
    target = str(read_only / "s.txt")
    doc["output"]["summary"] = target
    assert main(["run", _write(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == (
        f"error: output.summary: the directory of {target} is not writable\n"
    )


def test_unwritable_sweep_entry_stops_the_sweep_before_any_entry_runs(tmp_path, capsys):
    doc = _fast_run_doc(tmp_path, t_end=0.5)
    doc["sweep"] = [_entry_outputs(tmp_path, "a"), _entry_outputs(tmp_path, "b", "missing")]
    assert main(["run", _write(tmp_path, doc)]) == 1
    missing = tmp_path / "missing" / "b.csv"
    assert capsys.readouterr().err == (
        f"error: sweep[1]: output.trajectory: the directory of {missing} does not exist\n"
    )
    assert not (tmp_path / "a.csv").exists() and not (tmp_path / "a.txt").exists()


def test_run_time_error_names_its_entry_and_later_entries_still_run(tmp_path, capsys):
    doc = _short_run_doc(tmp_path, "fig3")
    doc["sim"]["t_end"] = 0.05
    diverging = {"sim.dt": 1e-2, "sim.t_end": 1.0, **_entry_outputs(tmp_path, "b")}
    doc["sweep"] = [_entry_outputs(tmp_path, "a"), diverging, _entry_outputs(tmp_path, "c")]
    assert main(["run", _write(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    warned = [line for line in err.splitlines() if line.startswith("warning: ")]
    assert [line.split(": ")[1:3] for line in warned] == [["sweep[1]", "stability guard"]]
    assert err.splitlines()[-1].startswith("error: sweep[1]: non-finite state at step ")
    assert "Traceback" not in err
    assert (tmp_path / "a.csv").exists() and (tmp_path / "c.txt").exists()
    assert not (tmp_path / "b.csv").exists()


def test_sweep_entry_may_not_set_a_sweep(tmp_path, capsys):
    doc = _fast_run_doc(tmp_path, t_end=0.5)
    nested = {"sweep": [{"sim.t_end": 0.2}], **_entry_outputs(tmp_path, "b")}
    doc["sweep"] = [_entry_outputs(tmp_path, "a"), nested]
    assert main(["run", _write(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == "error: sweep[1]: an entry may not set its own sweep\n"
    assert not (tmp_path / "a.csv").exists()


def _set_path(doc, dotted, value):
    *parents, last = dotted.split(".")
    for key in parents:
        doc = doc[key]
    doc[last] = value


# by case: the --dt flag (None for none) and each entry's overrides but its output paths
_COW_SWEEPS = {
    "entry-overrides": (None, [
        {"strategy.saturation.u_bar": 2.0, "strategy.gains.theta": 7.0}, {}
    ]),
    "dt-flag": (2e-3, [{"strategy.saturation.u_bar": 2.0, "strategy.gains.theta": 7.0}, {}]),
    "same-nested-path": (None, [{"strategy.gains.theta": 7.0}, {"strategy.gains.theta": 9.0}]),
    "whole-sim-then-dt": (2e-3, [{"sim": {"dt": 1e-3, "t_end": 0.3, "record_stride": 10}}, {}]),
}


@pytest.mark.parametrize("dt, sweep", _COW_SWEEPS.values(), ids=list(_COW_SWEEPS))
def test_sweep_entries_are_built_from_the_base_document_alone(tmp_path, monkeypatch, dt, sweep):
    # an override copies every object along its path before it writes, so neither the
    # document read, nor its sweep, nor another entry changes
    doc = _fast_run_doc(tmp_path, t_end=0.5)
    doc["strategy"]["tag"] = "first_order_dist"  # a law that reads theta
    doc["strategy"]["gains"] = {"theta": 3.0}
    doc["sweep"] = [{**entry, **_entry_outputs(tmp_path, str(k))} for k, entry in enumerate(sweep)]
    read = copy.deepcopy(doc)
    captured = []

    def capture(configs, runner):
        captured.extend(configs)
        return []

    monkeypatch.setattr(nes_sim.cli, "read_document", lambda path: read)
    monkeypatch.setattr(nes_sim.cli, "run_sweep", capture)
    flags = [] if dt is None else ["--dt", str(dt)]
    assert main([*flags, "run", "config.json"]) == 0
    assert read == doc
    assert len(captured) == len(doc["sweep"])
    for cfg, overrides in zip(captured, doc["sweep"]):
        # the entry as a document of its own: the base, its overrides, then the flag
        alone = copy.deepcopy({key: val for key, val in doc.items() if key != "sweep"})
        for dotted, value in copy.deepcopy(overrides).items():
            _set_path(alone, dotted, value)
        if dt is not None:
            alone["sim"]["dt"] = dt
        assert cfg.to_dict() == parse_config(alone).to_dict()


# one valid value of every key a tag may read, by section
_READABLE = {
    "strategy.gains": {
        "theta": 200.0, "theta1": 1.0, "theta_bar": 1.0, "K": 0.1, "alpha": 1.0, "beta": 1.0
    },
    "strategy.tuner_overrides": {
        "lipschitz_constants": [2.0] * 3, "monotonicity_m": 1.0, "sup_jacobian_norm": 3.0
    },
    "graph": {"lyapunov_q": 1.0},
}
# per tag, the keys of _READABLE its run does not read: 25 over the five tags
_UNREAD = {
    "sat_grad_play": (
        "theta", "theta1", "theta_bar", "K", "alpha", "beta", "sup_jacobian_norm", "lyapunov_q"
    ),
    "first_order_dist": ("theta1", "K", "alpha", "beta"),
    "second_order_central": (
        "theta", "theta1", "theta_bar", "K", "lipschitz_constants", "sup_jacobian_norm",
        "lyapunov_q",
    ),
    "second_order_dist": ("alpha", "beta", "sup_jacobian_norm"),
    "second_order_dist_sat": ("alpha", "beta", "sup_jacobian_norm"),
}


def _section(doc, dotted):
    node = doc
    for name in dotted.split("."):
        node = node.setdefault(name, {})
    return node


def _tag_doc(tmp_path, tag):
    """fig2's game and graph under ``tag``, setting every key of _READABLE the tag reads."""
    doc = _short_run_doc(tmp_path, "fig2")
    doc["strategy"]["tag"] = tag
    for dotted, values in _READABLE.items():
        _section(doc, dotted).update(
            {key: val for key, val in values.items() if key not in _UNREAD[tag]}
        )
    return doc


@pytest.mark.parametrize("tag", list(_UNREAD))
def test_a_document_may_set_every_key_its_tag_reads(tmp_path, tag):
    normalized = parse_config(_tag_doc(tmp_path, tag)).to_dict()
    strategy = normalized["strategy"]
    read = {*strategy.get("gains", {}), *strategy.get("tuner_overrides", {}), *normalized["graph"]}
    assert read == {key for values in _READABLE.values() for key in values}.difference(
        _UNREAD[tag]
    ) | {"adjacency"}


@pytest.mark.parametrize("command", ["run", "tune", "oracle"])
@pytest.mark.parametrize("tag, key", [(tag, key) for tag, keys in _UNREAD.items() for key in keys])
def test_a_key_its_tag_does_not_read_exits_one(tmp_path, capsys, command, tag, key):
    doc = _tag_doc(tmp_path, tag)
    dotted = next(dotted for dotted, values in _READABLE.items() if key in values)
    _section(doc, dotted)[key] = _READABLE[dotted][key]
    out = ["--out", str(tmp_path / "tune.json")] if command == "tune" else []
    assert main([command, _write(tmp_path, doc), *out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {dotted}: tag {tag} does not read ['{key}']\n"
    assert os.listdir(tmp_path) == ["config.json"]  # no trajectory, summary or tune output


_ESTIMATE_TAGS = [tag.value for tag, spec in STRATEGIES.items() if "y" in spec.blocks]
# fig2's three players with only the 1-2 edge: player 3 hears no one
_DISCONNECTED = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
_DISCONNECTED_ERROR = (
    "graph.adjacency: communication graph must be connected for consensus estimation"
)


@pytest.mark.parametrize("command", ["run", "tune", "oracle"])
@pytest.mark.parametrize("tag", _ESTIMATE_TAGS)
def test_a_disconnected_graph_exits_one_at_parse_naming_the_key(tmp_path, capsys, command, tag):
    # refused by CommGraph as the document is parsed, so oracle, which reads
    # no graph, refuses it as well, and nothing is written
    doc = _tag_doc(tmp_path, tag)
    doc["graph"]["adjacency"] = _DISCONNECTED
    out = ["--out", str(tmp_path / "tune.json")] if command == "tune" else []
    assert main([command, _write(tmp_path, doc), *out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {_DISCONNECTED_ERROR}\n"
    assert os.listdir(tmp_path) == ["config.json"]


def test_a_sweep_entry_with_a_disconnected_graph_stops_the_sweep_before_any_entry_runs(
    tmp_path, capsys
):
    doc = _short_run_doc(tmp_path, "fig3")
    doc["sim"]["t_end"] = 0.05
    doc["sweep"] = [_entry_outputs(tmp_path, name) for name in "abc"]
    doc["sweep"][1]["graph.adjacency"] = _DISCONNECTED
    assert main(["run", _write(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: sweep[1]: {_DISCONNECTED_ERROR}\n"
    assert os.listdir(tmp_path) == ["config.json"]


def test_a_sweep_entry_that_switches_the_tag_brings_that_tags_gains(
    tmp_path, capsys, monkeypatch
):
    doc = _short_run_doc(tmp_path, "fig4")
    doc["sweep"] = [
        _entry_outputs(tmp_path, "a"),
        {"strategy.tag": "second_order_central", **_entry_outputs(tmp_path, "b")},
    ]
    assert main(["run", _write(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == (
        "error: sweep[1]: strategy.gains: tag second_order_central does not read "
        "['K', 'theta', 'theta1', 1 more]\n"
    )
    assert os.listdir(tmp_path) == ["config.json"]
    doc["sweep"][1]["strategy.gains"] = {"alpha": 1.0, "beta": 1.0}
    captured = []

    def capture(configs, runner):
        captured.extend(configs)
        return []

    monkeypatch.setattr(nes_sim.cli, "run_sweep", capture)
    assert main(["run", _write(tmp_path, doc)]) == 0
    assert [cfg.tag.value for cfg in captured] == ["second_order_dist_sat", "second_order_central"]


@pytest.mark.parametrize(
    "flag, value, n_steps, code", [("--t-end", "0.1", 100, 2), ("--dt", "0.01", 1000, 0)]
)
def test_flags_reach_every_sweep_entry(tmp_path, capsys, flag, value, n_steps, code):
    # entry 0 sets the whole sim section, entry 1 one key of it
    doc = _fast_run_doc(tmp_path, t_end=10.0)
    doc["sweep"] = [
        {"sim": dict(doc["sim"]), **_entry_outputs(tmp_path, "a")},
        {"sim.record_stride": 5, **_entry_outputs(tmp_path, "b")},
    ]
    assert main([flag, value, "run", _write(tmp_path, doc)]) == code
    out = capsys.readouterr().out
    assert out.count("# sweep[") == 2
    assert [line for line in out.splitlines() if line.startswith("n_steps=")] == [
        f"n_steps={n_steps}"
    ] * 2


def test_failed_sweep_entries_do_not_stop_the_others(tmp_path, capsys):
    doc = _short_run_doc(tmp_path, "fig3")
    doc["sim"]["t_end"] = 0.05
    diverging = {"sim.dt": 1e-2, "sim.t_end": 1.0}
    doc["sweep"] = [
        {**(diverging if k in (1, 3) else {}), **_entry_outputs(tmp_path, name)}
        for k, name in enumerate("abcde")
    ]
    assert main(["run", _write(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    warned = [line for line in captured.err.splitlines() if line.startswith("warning: ")]
    assert [line.split(": ")[1:3] for line in warned] == [
        ["sweep[1]", "stability guard"],
        ["sweep[3]", "stability guard"],
    ]
    headers = [line for line in captured.out.splitlines() if line.startswith("# sweep")]
    assert headers == ["# sweep[0]", "# sweep[2]", "# sweep[4]"]
    assert captured.out.count("strategy=first_order_dist\n") == 3
    errors = [line for line in captured.err.splitlines() if line.startswith("error: ")]
    assert [line.split(": ")[1] for line in errors] == ["sweep[1]", "sweep[3]"]
    assert all("non-finite state at step " in line for line in errors)
    assert "Traceback" not in captured.err
    for name in "ace":
        assert (tmp_path / f"{name}.csv").exists() and (tmp_path / f"{name}.txt").exists()
    for name in "bd":
        assert not (tmp_path / f"{name}.csv").exists() and not (tmp_path / f"{name}.txt").exists()


def test_each_sweep_entry_prints_its_own_warnings(tmp_path, capsys):
    # entries 1 and 2 raise the same warning text; each is named, once
    doc = _short_run_doc(tmp_path, "fig3")
    doc["sim"]["t_end"] = 0.05
    doc["sweep"] = [
        {**({"sim.dt": 7e-4} if k in (1, 2) else {}), **_entry_outputs(tmp_path, name)}
        for k, name in enumerate("abcd")
    ]
    assert main(["run", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert [line.split(" = ")[0] for line in err] == [
        f"warning: sweep[{k}]: stability guard: dt * fastest-mode-rate" for k in (1, 2)
    ]


def test_a_single_run_keeps_the_python_warning(tmp_path, capsys):
    doc = _short_run_doc(tmp_path, "fig3")
    doc["sim"].update(dt=7e-4, t_end=0.05)
    with pytest.warns(RuntimeWarning, match="^stability guard: "):
        assert main(["run", _write(tmp_path, doc)]) == 2
    assert "warning: " not in capsys.readouterr().err


def _estimation_system(doc):
    cfg = parse_config(doc)
    n, p = cfg.game.n_players, cfg.game.action_dim
    return estimation_matrix(cfg.graph, 1), cfg.gains.theta_bar_vec(n), cfg.lyapunov_q, p


def test_summary_reports_the_lyapunov_residual(tmp_path, capsys):
    doc = _short_run_doc(tmp_path, "fig3")
    assert main(["--t-end", "0.01", "run", _write(tmp_path, doc)]) == 2
    out = capsys.readouterr().out
    M, tb, q, p = _estimation_system(doc)
    pair = solve_lyapunov(M, tb, q, p)
    assert float(_key(out, "lyap_residual")) == pair.residual
    # the gate is 1e-8 ||Q||_F of the full equation: sqrt(p) times the per-channel Q's
    assert 0.0 <= pair.residual <= 1e-8 * np.sqrt(p) * np.linalg.norm(pair.Q, "fro")
    assert f"lyap_residual={_key(out, 'lyap_residual')}\n" in (tmp_path / "s.txt").read_text()
    # no solve ran: no estimates (fig2)
    assert main(["--t-end", "0.01", "run", _write(tmp_path, _short_run_doc(tmp_path, "fig2"))]) == 2
    assert _key(capsys.readouterr().out, "lyap_residual") == "none"
    # the pair follows the strategy, not the monitor
    doc["sim"]["monitor_lyapunov"] = False
    assert main(["--t-end", "0.01", "run", _write(tmp_path, doc)]) == 2
    assert float(_key(capsys.readouterr().out, "lyap_residual")) == pair.residual


@pytest.mark.parametrize("name", ["fig3", "fig4"])
def test_an_unmonitored_run_echoes_what_tune_prints(tmp_path, capsys, name):
    doc = _short_run_doc(tmp_path, name)
    doc["sim"]["monitor_lyapunov"] = False
    path = _write(tmp_path, doc)
    assert main(["tune", path]) == 0
    tuned = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert main(["--t-end", "0.01", "run", path]) == 2
    out = capsys.readouterr().out
    summary = dict(line.split("=", 1) for line in out.splitlines())
    echoed = {
        key.removeprefix("tuner_"): val for key, val in summary.items() if key.startswith("tuner_")
    }
    assert "error" not in echoed and "theta_star" in echoed
    # tune prints 12 significant digits, the summary 17
    assert {key: f"{float(val):.12g}" for key, val in echoed.items()} == {
        key: tuned[key] for key in echoed
    }
    M, tb, q, p = _estimation_system(doc)
    pair = solve_lyapunov(M, tb, q, p)
    assert float(_key(out, "lyap_residual")) == pair.residual
    assert float(_key(out, "lyap_cond")) == pair.cond
    assert _key(out, "max_lyapunov_increment") == "none"


@pytest.mark.parametrize("monitor", [True, False])
def test_a_refused_lyapunov_pair_stops_the_run(tmp_path, monkeypatch, capsys, monitor):
    def never(*args, **kwargs):
        raise AssertionError("integrate entered although the Lyapunov solve refused the pair")

    monkeypatch.setattr(nes_sim.runner, "integrate", never)
    doc = _short_run_doc(tmp_path, "fig3")
    doc["sim"]["monitor_lyapunov"] = monitor
    # weights twelve decades apart: the weighted system's condition passes 1e12
    doc["strategy"]["gains"]["theta_bar"] = np.geomspace(1e-6, 1e6, 9).tolist()
    assert main(["run", _write(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Lyapunov system condition estimate ")
    assert "exceeds 1e12" in err
    assert not (tmp_path / "s.txt").exists()


def test_summary_reports_the_lyapunov_condition(tmp_path, capsys):
    doc = _short_run_doc(tmp_path, "fig4")
    doc["strategy"]["gains"]["theta_bar"] = np.linspace(0.5, 2.0, 9).tolist()
    assert main(["--t-end", "0.01", "run", _write(tmp_path, doc)]) == 2
    out = capsys.readouterr().out
    # condition of S M S, S = sqrt(Tb), evaluated at full size
    M, tb, _, _ = _estimation_system(doc)
    s = np.sqrt(tb)
    eigs = np.linalg.eigvalsh(M * np.outer(s, s))
    assert float(_key(out, "lyap_cond")) == pytest.approx(eigs[-1] / eigs[0], rel=1e-12)
    assert float(_key(out, "lyap_cond")) > 1.0
    assert main(["--t-end", "0.01", "run", _write(tmp_path, _short_run_doc(tmp_path, "fig2"))]) == 2
    assert _key(capsys.readouterr().out, "lyap_cond") == "none"



def test_duplicate_key_exits_one_and_names_the_key(tmp_path, capsys):
    # a repeated key would otherwise keep its last value without a word
    doc = _short_run_doc(tmp_path, "fig2")
    top = json.dumps(doc)
    doc.pop("sim")
    cases = [
        ("graph", '{"graph": {}, ' + top[1:]),
        ("dt", '{"sim": {"dt": 0.1, "dt": 0.001, "t_end": 0.01}, ' + json.dumps(doc)[1:]),
    ]
    path = tmp_path / "dup.json"
    for key, text in cases:
        path.write_text(text)
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: duplicate key '{key}'\n"
    assert not (tmp_path / "t.csv").exists()


def test_empty_output_path_fails_before_the_run(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("integrate entered although the output path is empty")

    monkeypatch.setattr(nes_sim.runner, "integrate", never)
    for key in ("trajectory", "summary"):
        doc = _short_run_doc(tmp_path, "fig4")
        doc["output"][key] = ""
        assert main(["run", _write(tmp_path, doc)]) == 1
        assert capsys.readouterr().err == f"error: output.{key}: expected a file path\n"


@pytest.mark.parametrize("command", ["run", "tune", "oracle"])
@pytest.mark.parametrize("name", [["decoupled_quartic"], {"decoupled_quartic": 1}])
def test_custom_game_name_must_be_a_string(tmp_path, capsys, command, name):
    doc = _short_run_doc(tmp_path, "fig2")
    doc["game"] = {"type": "custom", "name": name}
    assert main([command, _write(tmp_path, doc)]) == 1
    expected = "error: game.name: expected the name of a registered custom game\n"
    assert capsys.readouterr().err == expected


def _nested(depth):
    value = 1.0
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("command", ["run", "tune", "oracle"])
@pytest.mark.parametrize("depth", [33, 100])
@pytest.mark.parametrize(
    "dotted",
    [
        "game.q",
        "graph.adjacency",
        "graph.lyapunov_q",
        "strategy.gains.theta_bar",
        "strategy.saturation.u_bar",
        "init.x0",
    ],
)
def test_numbers_nested_past_32_levels_exit_one(tmp_path, capsys, command, depth, dotted):
    # numpy iterates over at most 32 axes; init blocks refuse any nesting
    flat = dotted == "init.x0"
    message = "expected a flat list of numbers" if flat else "lists nested more than 32 levels deep"
    doc = _short_run_doc(tmp_path, "fig3")
    *parents, key = dotted.split(".")
    node = doc
    for name in parents:
        node = node[name]
    node[key] = _nested(depth)
    assert main([command, _write(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == f"error: {dotted}: {message}\n"


@pytest.mark.parametrize("command", ["run", "tune", "oracle"])
def test_document_nested_past_the_recursion_limit_exits_one(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text('{"game": ' + "[" * 5000 + "]" * 5000 + "}")
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: nested too deeply to read\n"


@pytest.mark.parametrize("command", ["run", "tune", "oracle"])
@pytest.mark.parametrize(
    "saturation, shape",
    [
        ({"u_bar": [[5.0] * 6]}, "(1, 6)"),
        ({"u_bar": [[5.0] * 3] * 2}, "(2, 3)"),
        ({"lower": [[-5.0] * 6], "upper": [[5.0] * 6]}, "(1, 6)"),
    ],
    ids=["row", "matrix", "lower-upper"],
)
def test_saturation_bounds_must_be_a_scalar_or_one_per_channel(
    tmp_path, capsys, command, saturation, shape
):
    # the right number of bounds in the wrong shape once passed tune and oracle,
    # and run failed at the first clamp
    doc = _short_run_doc(tmp_path, "fig2")
    doc["strategy"]["saturation"] = saturation
    assert main([command, _write(tmp_path, doc)]) == 1
    expected = f"error: strategy.saturation: saturation bounds: expected length 6, got shape {shape}\n"
    assert capsys.readouterr().err == expected
    assert not (tmp_path / "s.txt").exists()


_LONG = 100_000


def _long_unknown_key(doc):
    doc["sim"]["k" * _LONG] = 1.0
    return json.dumps(doc), f"sim: unknown keys ['{'k' * 40}...' (100000 characters)]"


def _long_duplicate_key(doc):
    key = "d" * _LONG
    text = json.dumps(doc).replace('"sim": {', f'"sim": {{"{key}": 1.0, "{key}": 2.0, ', 1)
    return text, f"duplicate key '{'d' * 40}...' (100000 characters)"


def _long_broadcast(doc):
    doc["init"] = {"x0": "broadcast:" + "9" * _LONG}
    return json.dumps(doc), f"init.x0: broadcast:{'9' * 30}... (100010 characters) is not a finite"


def _long_override_path(doc):
    doc["sweep"] = [{"o" * _LONG + ".t_end": 1.0}]
    return json.dumps(doc), f"sweep[0]: override '{'o' * 40}...' (100006 characters): no such"


@pytest.mark.parametrize(
    "command, build",
    [
        (command, build)
        for build in (_long_unknown_key, _long_duplicate_key, _long_broadcast)
        for command in ("run", "tune", "oracle")
    ]
    # only run applies a sweep's dotted overrides
    + [("run", _long_override_path)],
    ids=lambda arg: arg if isinstance(arg, str) else arg.__name__[1:],
)
def test_a_refused_long_key_or_value_is_echoed_at_a_bounded_length(
    tmp_path, capsys, command, build
):
    text, message = build(_short_run_doc(tmp_path, "fig2"))
    path = tmp_path / "long.json"
    path.write_text(text)
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert len(err.encode()) < 300
    assert not (tmp_path / "t.csv").exists()


def _ring_network_doc(tmp_path, n):
    # an n-sensor planar ring under the saturated distributed law, scalar Q
    ring = (np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1)).tolist()
    return {
        "game": {
            "type": "quadratic",
            "r": [np.eye(2).tolist()] * n,
            "p_vec": [[(-1.0) ** i * (i % 4), (i % 3) - 1.0] for i in range(n)],
            "q": [1.0] * n,
            "m_weights": ring,
        },
        "graph": {"adjacency": ring},
        "strategy": {
            "tag": "second_order_dist_sat",
            "gains": {"theta": 200.0, "theta1": 1.0, "K": 0.1, "theta_bar": 1.0},
            "saturation": {"u_bar": 5.0},
        },
        "sim": {"dt": 1e-3, "t_end": 0.01, "monitor_lyapunov": True},
        "init": {"x0": "zeros"},
        "output": {"trajectory": str(tmp_path / "t.csv"), "summary": str(tmp_path / "s.txt")},
    }


class _ReachedIntegrate(Exception):
    pass


def test_set_up_decomposes_no_full_size_matrix(tmp_path, monkeypatch, capsys):
    # A 6-player ring has N^2 = 36 estimates per channel. The Lyapunov pair,
    # the guard and the gain bounds read M1's six 6 x 6 pinned blocks, so
    # neither tune nor run up to integrate decomposes a matrix of 36 rows.
    import numpy.linalg._linalg as linalg_impl

    rows = []

    def spy(fn):
        def wrapped(a, *args, **kwargs):
            rows.append(np.shape(a)[-2])
            return fn(a, *args, **kwargs)

        return wrapped

    # np.linalg.norm(·, 2) calls svd as a global of numpy.linalg._linalg, the
    # module it is defined in; set-up code calls the numpy.linalg names
    for module in (np.linalg, linalg_impl):
        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(module, name, spy(getattr(linalg_impl, name)))

    def stop(*args, **kwargs):
        raise _ReachedIntegrate

    monkeypatch.setattr(nes_sim.runner, "integrate", stop)
    path = _write(tmp_path, _ring_network_doc(tmp_path, 6))
    assert main(["tune", path]) == 0
    assert "theta_star=" in capsys.readouterr().out
    tune_rows, rows[:] = list(rows), []
    with pytest.raises(_ReachedIntegrate):
        main(["run", path])
    for seen in (tune_rows, rows):
        assert 6 in seen  # the spy sees the pinned blocks
        assert max(seen) < 36

