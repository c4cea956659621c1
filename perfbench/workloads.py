"""Seeded inputs for the benchmark's three workloads.

Each generator writes the config documents its workload feeds to the
``nes-sim`` command line into ``<work>/inputs`` and returns a plan: the
CLI invocations of one pass, in order, and for every item the facts its
check needs (the oracle equilibrium from ``QuadraticGame.exact_ne``, the
tolerance, the output paths). The program under test sees only those
files, so any item can be replayed by hand with the argv recorded in the
plan. Paths in documents and argv are relative to the work directory,
where the passes run, so the same seed gives byte-identical documents
wherever the checkout is; their SHA-256 is recorded with every result.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

from nes_sim import (
    estimation_matrix,
    parse_config,
    random_connected_graph,
    random_strongly_monotone_game,
    solve_lyapunov,
    theta_star_first_order,
)
from nes_sim.presets import PRESET_NAMES, figure_preset


# criterion-6 recipe, with the (N, p) mix fixed so that every seed asks
# for about the same work: only game values, graphs and starts vary
ENSEMBLE_SHAPES = ((2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2))
ENSEMBLE_ITEMS = 20
ENSEMBLE_T_END = 15.0

NETWORK_PLAYERS = 6
NETWORK_T_END = 60.0


def _fresh_dirs(work):
    """Empty ``inputs`` and ``out`` under ``work``; return them relative."""
    inputs, out = Path("inputs"), Path("out")
    for d in (inputs, out):
        if (Path(work) / d).exists():
            shutil.rmtree(Path(work) / d)
        (Path(work) / d).mkdir(parents=True)
    return inputs, out


def _write_json(path, doc):
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    path.write_text(text)
    return text.encode()


def _digest(blobs):
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def _run_item(item_id, doc):
    """Check facts of one `run` item, taken from its parsed document."""
    cfg = parse_config(doc)
    return {
        "id": item_id,
        "kind": "run",
        "summary": cfg.output["summary"],
        "trajectory": cfg.output["trajectory"],
        "x_star": cfg.game.exact_ne().tolist(),
        "tol": cfg.sim.convergence_tol,
        "monitored": cfg.sim.monitor_lyapunov,
        "bounded": cfg.sat_spec is not None,
    }


def replicate(work, seed=None, t_end=None):
    """The three figure presets as shipped; no seed, the presets are fixed.

    ``t_end`` shortens every preset through the CLI's ``--t-end`` (for
    the benchmark's own tests; the presets do not converge that early).
    """
    del seed
    shorten = [] if t_end is None else ["--t-end", str(t_end)]
    _, out = _fresh_dirs(work)
    invocations, blobs = [], []
    for name in PRESET_NAMES:
        doc = figure_preset(name)
        blobs.append(json.dumps(doc, sort_keys=True).encode())
        # the same output paths `replicate --out` rewrites the preset to
        doc["output"] = {
            "trajectory": str(out / f"{name}_trajectory.csv"),
            "summary": str(out / f"{name}_summary.txt"),
        }
        invocations.append(
            {
                "label": name,
                "argv": shorten + ["replicate", name, "--out", str(out)],
                "items": [_run_item(name, doc)],
            }
        )
    return {"workload": "replicate", "seed": None, "inputs_sha256": _digest(blobs),
            "invocations": invocations}


def _ensemble_entry(rng, n, p, out, idx, t_end):
    game = random_strongly_monotone_game(rng, n, p)
    graph = random_connected_graph(rng, n)
    M = estimation_matrix(graph, p)
    lyap = solve_lyapunov(M, 1.0, 1.0)
    theta = 1.1 * theta_star_first_order(game, graph, lyap).theta_star
    lam_max = float(np.linalg.eigvalsh(M)[-1])
    dt = min(1e-3, 2.0 / (theta * lam_max))
    return {
        "game": {
            "type": "quadratic",
            "r": game.r.tolist(),
            "p_vec": game.p_vec.tolist(),
            "q": game.q.tolist(),
            "m_weights": game.m_weights.tolist(),
        },
        "graph": {"adjacency": graph.adjacency.tolist()},
        "strategy": {
            "tag": "first_order_dist",
            "gains": {"theta": theta, "theta_bar": 1.0},
            "saturation": {"u_bar": 50.0},
        },
        "sim": {
            "dt": dt,
            "t_end": t_end,
            "record_stride": max(1, int(round(0.05 / dt))),
            "integrator": "rk4",
            "convergence_tol": 1e-3,
            "monitor_lyapunov": True,
        },
        "init": {"x0": rng.uniform(-2.0, 2.0, n * p).tolist()},
        "output": {
            "trajectory": str(out / f"item{idx:02d}_trajectory.csv"),
            "summary": str(out / f"item{idx:02d}_summary.txt"),
        },
    }


def ensemble(work, seed, n_items=ENSEMBLE_ITEMS, t_end=ENSEMBLE_T_END):
    """One `run` document whose sweep holds ``n_items`` random games."""
    inputs, out = _fresh_dirs(work)
    rng = np.random.default_rng(seed)
    entries = [
        _ensemble_entry(rng, *ENSEMBLE_SHAPES[k % len(ENSEMBLE_SHAPES)], out, k, t_end)
        for k in range(n_items)
    ]
    doc = dict(entries[0])
    # the base document's own outputs are never written; they only have
    # to differ from every item's so the CLI accepts the sweep
    doc["output"] = {
        "trajectory": str(out / "base_trajectory.csv"),
        "summary": str(out / "base_summary.txt"),
    }
    doc["sweep"] = entries
    path = inputs / "ensemble.json"
    blob = _write_json(Path(work) / path, doc)
    items = [_run_item(f"ensemble[{k}]", e) for k, e in enumerate(entries)]
    return {
        "workload": "ensemble",
        "seed": seed,
        "inputs_sha256": _digest([blob]),
        "invocations": [{"label": "ensemble", "argv": ["run", str(path)], "items": items}],
    }


def _ring(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    return a.tolist()


def network(work, seed, t_end=NETWORK_T_END, n=NETWORK_PLAYERS):
    """`tune` then `run` on a seeded n-player planar ring sensor game."""
    inputs, out = _fresh_dirs(work)
    rng = np.random.default_rng(seed)
    theta = 200.0
    doc = {
        "game": {
            "type": "quadratic",
            "r": [np.eye(2).tolist()] * n,
            "p_vec": rng.uniform(-4.0, 4.0, (n, 2)).tolist(),
            "q": rng.uniform(0.0, 6.0, n).tolist(),
            "m_weights": _ring(n),
        },
        "graph": {"adjacency": _ring(n)},
        "strategy": {
            "tag": "second_order_dist_sat",
            "gains": {"theta": theta, "theta1": 1.0, "K": 0.1, "theta_bar": 1.0},
            "saturation": {"u_bar": 5.0},
        },
        "sim": {
            "dt": 1e-3,
            "t_end": t_end,
            "record_stride": 100,
            "integrator": "rk4",
            "convergence_tol": 1e-2,
            "monitor_lyapunov": True,
        },
        "init": {"x0": "zeros"},
        "output": {
            "trajectory": str(out / "network_trajectory.csv"),
            "summary": str(out / "network_summary.txt"),
        },
    }
    path = inputs / "network.json"
    blob = _write_json(Path(work) / path, doc)
    report = out / "tune.json"
    return {
        "workload": "network",
        "seed": seed,
        "inputs_sha256": _digest([blob]),
        "invocations": [
            {
                "label": "tune",
                "argv": ["tune", str(path), "--out", str(report)],
                "items": [{"id": "tune", "kind": "tune", "report": str(report), "theta": theta}],
            },
            {"label": "run", "argv": ["run", str(path)], "items": [_run_item("run", doc)]},
        ],
    }


# each writes a workload's inputs under ``work`` and returns its plan
GENERATORS = {"replicate": replicate, "ensemble": ensemble, "network": network}

