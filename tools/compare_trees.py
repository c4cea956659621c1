"""Compare the outputs of two source trees of nes-sim, artifact by artifact.

    python tools/compare_trees.py PARENT CHANGE [--cases fig2,fig3,fig4,ring,ensemble] [--t-end T]

PARENT and CHANGE are checkouts of this repository; each runs in fresh
processes of this interpreter with ``PYTHONPATH=<tree>/src``. The
artifacts are:

- for each figure preset: the ``replicate`` trajectory CSV, its summary
  (less ``wall_clock_s``), ``tune`` stdout with its ``--out`` JSON, and
  ``oracle`` stdout;
- for ``ring``: the ``run`` trajectory CSV and summary (less
  ``wall_clock_s``), ``tune`` stdout with its ``--out`` JSON and
  ``oracle`` stdout on a seeded six-player planar ring under
  ``second_order_dist_sat`` (the shape of the benchmark's network
  document), written once and read by both trees;
- for ``ensemble``: at seeds 1 and 2, the 20 trajectory CSVs and 20
  summaries (less ``wall_clock_s``) of ``run`` on the benchmark's
  ensemble document. The document is written once per seed by the
  ``ensemble`` generator of this repository's ``perfbench/workloads.py``,
  imported unchanged in a process whose path holds PARENT's ``src``;
  each tree then runs it in its own directory.

``--cases`` picks a subset; ``--t-end`` is passed to every command as
``nes-sim --t-end T``. One JSON line is printed per artifact, with
``"status"`` either ``"identical"`` or ``"gap"``. A CSV gap gives, per
column that differs, the largest absolute and relative difference, and
the first differing cell in file order; a key=value or JSON gap gives
the differing keys with both values. Nothing is timed.

Exit status: 0 when every artifact is identical, 3 when one shows a gap,
1 on an error (a tree without ``src/nes_sim``, a command that exits other
than 0 or 2, or output that cannot be read).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

CASES = ("fig2", "fig3", "fig4", "ring", "ensemble")
RING_PLAYERS = 6
RING_SEED = 1
ENSEMBLE_SEEDS = (1, 2)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class CompareError(Exception):
    pass


def ring_document():
    """A seeded planar ring sensor game under the saturated distributed law."""
    n, rng = RING_PLAYERS, np.random.default_rng(RING_SEED)
    ring = (np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1)).tolist()
    return {
        "game": {
            "type": "quadratic",
            "r": [np.eye(2).tolist()] * n,
            "p_vec": rng.uniform(-4.0, 4.0, (n, 2)).tolist(),
            "q": rng.uniform(0.0, 6.0, n).tolist(),
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
        # relative, so the output paths, and so config_hash, are the same for both trees
        "output": {"trajectory": "ring_trajectory.csv", "summary": "ring_summary.txt"},
    }


def _python(tree, argv, cwd):
    """Run this interpreter on ``argv`` with ``tree``'s package on the path; its stdout.

    An exit status other than 0 or 2 (a run that did not converge) is an error.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(tree) / "src")}
    proc = subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True, check=False
    )
    if proc.returncode not in (0, 2):
        raise CompareError(
            f"{tree}: {' '.join(argv)[:200]} exited {proc.returncode}: {proc.stderr.strip()}"
        )
    return proc.stdout


def _key_values(text, drop=()):
    pairs = [line.split("=", 1) for line in text.splitlines() if line]
    if any(len(pair) != 2 for pair in pairs):
        raise CompareError(f"not key=value lines: {text[:200]!r}")
    return [(key, val) for key, val in pairs if key not in drop]


def compare_pairs(parent, change):
    """Ordered (key, value) lists: identical, or the keys whose values differ."""
    if parent == change:
        return {"status": "identical"}
    a, b = dict(parent), dict(change)
    keys = [key for key in dict.fromkeys([*a, *b]) if a.get(key) != b.get(key)]
    if not keys:  # the same pairs in another order
        return {"status": "gap", "order": [[k for k, _ in parent], [k for k, _ in change]]}
    return {"status": "gap", "keys": {key: [a.get(key), b.get(key)] for key in keys}}


def compare_csv(parent, change):
    """Two CSV files of one header row and float rows, column by column."""
    if Path(parent).read_bytes() == Path(change).read_bytes():
        return {"status": "identical"}
    headers, tables = [], []
    for path in (parent, change):
        with open(path) as fh:
            headers.append(fh.readline().strip().split(","))
        tables.append(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))
    if headers[0] != headers[1] or tables[0].shape != tables[1].shape:
        return {
            "status": "gap",
            "header": headers,
            "shape": [list(tables[0].shape), list(tables[1].shape)],
        }
    a, b = tables
    differs = ~((a == b) | (np.isnan(a) & np.isnan(b)))
    if not differs.any():  # the same values, written differently
        return {"status": "gap", "columns": {}}
    with np.errstate(invalid="ignore", divide="ignore"):
        gap = np.where(differs, np.abs(a - b), 0.0)
        rel = np.where(differs, gap / np.maximum(np.abs(a), np.abs(b)), 0.0)
    gap, rel = (np.nan_to_num(m, nan=np.inf) for m in (gap, rel))  # NaN against a number
    columns = {
        headers[0][k]: {"abs": float(gap[:, k].max()), "rel": float(rel[:, k].max())}
        for k in np.flatnonzero(differs.any(axis=0))
    }
    row, col = np.argwhere(differs)[0]
    first = {"row": int(row), "column": headers[0][col]}
    return {"status": "gap", "columns": columns, "first": first}


def compare_json(parent, change):
    docs = [json.loads(Path(path).read_text()) for path in (parent, change)]
    return compare_pairs(*(list(doc.items()) for doc in docs))


_PRESET = (
    "import json, sys; from nes_sim.presets import figure_preset; "
    "print(json.dumps(figure_preset(sys.argv[1])))"
)
_ENSEMBLE = (
    "import sys; sys.path.insert(0, sys.argv[3]); import workloads; "
    "workloads.ensemble(sys.argv[1], int(sys.argv[2]))"
)


def _run_outputs(work, doc, name, out):
    """Add the CSV and the summary (less ``wall_clock_s``) that a run of ``doc``
    wrote to its relative output paths in ``work`` to ``out``, under ``name``."""
    out[f"{name}/trajectory.csv"] = ("csv", work / doc["output"]["trajectory"])
    summary = (work / doc["output"]["summary"]).read_text()
    out[f"{name}/summary.txt"] = ("pairs", _key_values(summary, drop=("wall_clock_s",)))


def _collect(tree, case, t_end, work):
    """Run one case from one tree in ``work``; its artifacts by name, each as
    ("pairs", key=value pairs), ("csv", path) or ("json", path)."""
    nes_sim = ["-m", "nes_sim.cli", *([] if t_end is None else ["--t-end", repr(t_end)])]
    work.mkdir(parents=True)
    out = {}
    if case == "ensemble":
        for seed in ENSEMBLE_SEEDS:
            # the generated document and its empty out/, copied; its paths are relative
            seed_work = work / f"seed{seed}"
            shutil.copytree(work.parent.parent / f"ensemble{seed}", seed_work)
            _python(tree, [*nes_sim, "run", "inputs/ensemble.json"], seed_work)
            doc = json.loads((seed_work / "inputs" / "ensemble.json").read_text())
            for k, entry in enumerate(doc["sweep"]):
                _run_outputs(seed_work, entry, f"ensemble/seed{seed}/item{k:02d}", out)
        return out
    if case == "ring":
        config = work.parent.parent / "ring.json"
        _python(tree, [*nes_sim, "run", str(config)], work)
    else:
        # the tree's own preset, so a change to a preset shows in every artifact
        config = work / f"{case}.json"
        config.write_text(_python(tree, ["-c", _PRESET, case], work))
        # a relative --out: the output paths, and so config_hash, are the same for both trees
        _python(tree, [*nes_sim, "replicate", case, "--out", "."], work)
    _run_outputs(work, json.loads(config.read_text()), case, out)
    report = work / "tune.json"
    tune = _python(tree, [*nes_sim, "tune", str(config), "--out", str(report)], work)
    out[f"{case}/tune.stdout"] = ("pairs", _key_values(tune))
    out[f"{case}/tune.json"] = ("json", report)
    oracle = _python(tree, [*nes_sim, "oracle", str(config)], work)
    out[f"{case}/oracle.stdout"] = ("pairs", _key_values(oracle))
    return out


def compare_trees(parent, change, cases=CASES, t_end=None):
    """Compare every artifact of ``cases``; True when all are identical."""
    for tree in (parent, change):
        if not (Path(tree) / "src" / "nes_sim").is_dir():
            raise CompareError(f"{tree}: no src/nes_sim")
    identical = True
    with tempfile.TemporaryDirectory(prefix="compare_trees_") as tmp:
        tmp = Path(tmp)
        (tmp / "ring.json").write_text(json.dumps(ring_document()))
        if "ensemble" in cases:
            # written once, by the benchmark's generator on PARENT's package
            for seed in ENSEMBLE_SEEDS:
                generated = tmp / f"ensemble{seed}"
                generated.mkdir()
                _python(parent, ["-c", _ENSEMBLE, str(generated), str(seed), str(PERFBENCH)],
                        generated)
        for case in cases:
            found = [
                _collect(tree, case, t_end, tmp / side / case)
                for side, tree in (("parent", parent), ("change", change))
            ]
            for name, (kind, a) in found[0].items():
                b = found[1][name][1]
                compare = {"pairs": compare_pairs, "csv": compare_csv, "json": compare_json}[kind]
                result = {"artifact": name, **compare(a, b)}
                identical &= result["status"] == "identical"
                print(json.dumps(result))
    return identical


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is an error: exit 1, as documented
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None):
    parser = _Parser(description="Compare the outputs of two nes-sim trees.")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--cases", default=",".join(CASES),
                        help=f"comma-separated subset of {','.join(CASES)}")
    parser.add_argument("--t-end", type=float, default=None,
                        help="passed to every command as nes-sim --t-end T")
    args = parser.parse_args(argv)
    cases = args.cases.split(",")
    unknown = sorted(set(cases).difference(CASES))
    if unknown:
        parser.error(f"unknown cases {unknown}; choose from {','.join(CASES)}")
    try:
        identical = compare_trees(args.parent, args.change, cases, args.t_end)
    except (CompareError, OSError, ValueError) as exc:  # ValueError: output not readable
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if identical else 3


if __name__ == "__main__":
    sys.exit(main())
