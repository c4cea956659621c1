import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_trees.py"


def _compare(parent, change, *extra):
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), *extra],
        capture_output=True, text=True, check=False,
    )
    return proc.returncode, [json.loads(line) for line in proc.stdout.splitlines()], proc.stderr


@pytest.fixture(scope="module")
def two_trees(tmp_path_factory):
    """Two copies of this tree's package, the second with one preset value one ulp up."""
    trees = []
    for name in ("a", "b"):
        tree = tmp_path_factory.mktemp(name)
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
        trees.append(tree)
    return trees


def test_two_copies_of_one_tree_compare_identical(two_trees):
    code, lines, err = _compare(*two_trees, "--cases", "fig2", "--t-end", "0.1")
    assert (code, err) == (0, "")
    assert [line["artifact"] for line in lines] == [
        "fig2/trajectory.csv", "fig2/summary.txt", "fig2/tune.stdout", "fig2/tune.json",
        "fig2/oracle.stdout",
    ]
    assert {line["status"] for line in lines} == {"identical"}


def test_the_ring_run_and_both_ensemble_seeds_compare_identical(two_trees):
    code, lines, err = _compare(*two_trees, "--cases", "ensemble,ring", "--t-end", "0.1")
    assert (code, err) == (0, "")
    items = [f"ensemble/seed{seed}/item{k:02d}" for seed in (1, 2) for k in range(20)]
    assert [line["artifact"] for line in lines] == [
        *(f"{item}/{name}" for item in items for name in ("trajectory.csv", "summary.txt")),
        "ring/trajectory.csv", "ring/summary.txt", "ring/tune.stdout", "ring/tune.json",
        "ring/oracle.stdout",
    ]
    assert {line["status"] for line in lines} == {"identical"}


def test_a_one_ulp_change_to_a_preset_is_a_gap_in_its_column(two_trees, tmp_path):
    changed = tmp_path / "changed"
    shutil.copytree(two_trees[1], changed)
    presets = changed / "src" / "nes_sim" / "presets.py"
    text = presets.read_text()
    assert text.count("_X0 = [10.0, ") == 1
    presets.write_text(text.replace("_X0 = [10.0, ", "_X0 = [10.000000000000002, "))  # 10 + 1 ulp

    code, lines, err = _compare(two_trees[0], changed, "--cases", "fig2", "--t-end", "0.1")
    assert (code, err) == (3, "")
    by_name = {line["artifact"]: line for line in lines}
    trajectory = by_name["fig2/trajectory.csv"]
    assert trajectory["status"] == "gap"
    assert trajectory["first"] == {"row": 0, "column": "x_1_1"}
    assert 2.0**-49 <= trajectory["columns"]["x_1_1"]["abs"] < 1e-12
    assert "config_hash" in by_name["fig2/summary.txt"]["keys"]  # x0 is in the normalized init
    # x0 moves no gain bound and no equilibrium
    for name in ("fig2/tune.stdout", "fig2/tune.json", "fig2/oracle.stdout"):
        assert by_name[name]["status"] == "identical"


def test_a_tree_without_the_package_is_an_error(two_trees, tmp_path):
    code, lines, err = _compare(two_trees[0], tmp_path, "--cases", "fig2")
    assert (code, lines) == (1, [])
    assert err == f"error: {tmp_path}: no src/nes_sim\n"
