"""nes-sim benchmark: one command for any workload, or all of them.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replicate|ensemble|network|all \
        --seed N --seconds S --trace 0|1

The workload's inputs are generated from ``--seed`` into
``perfbench/_work/<workload>/inputs``. Every pass runs in a fresh Python
process (``passrun.py``) in that work directory, so peak RSS is that of
one pass; ``plan.json`` there lists each invocation's argv, which
replays by hand as ``nes-sim <argv>`` from the same directory.

``--trace 0``: full passes are repeated while their summed wall time
stays within ``--seconds`` (at least one). Then set-up-only passes run,
at least one, while there are fewer than ``SETUP_SAMPLES`` set-up
samples and their summed time stays within ``SETUP_SECONDS``. These
passes run under ``speedprobe.SpeedProbe``, which scales their times to
one reference speed of the host. Each end-to-end metric is the median
over its samples. ``--trace 1``: one untraced and one traced
pass; the per-layer metrics come from the traced one, and the tracing
overhead is the traced wall time minus the untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. For ``all`` the
metric names are prefixed with the workload. Seed, input hash, machine
block and every pass's raw numbers go to
``perfbench/_work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
PASS_TIMEOUT_S = 170
SETUP_SAMPLES = 12
SETUP_SECONDS = 5.0
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
E2E_UNITS = {
    "solve_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def machine_block():
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "loadavg": list(os.getloadavg()),
    }


def run_child(plan_path, mode="full", trace=0, probe=0):
    cmd = [sys.executable, str(HERE / "passrun.py"), str(plan_path),
           "--mode", mode, "--trace", str(trace), "--probe", str(probe)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
                          cwd=Path(plan_path).parent)
    if proc.returncode != 0:
        raise BenchError(f"pass ({mode}, trace={trace}) failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tally(passes):
    attempted = sum(len(p["outcomes"]) for p in passes)
    failures = [(i, why) for p in passes for i, why in p["outcomes"] if why is not None]
    return attempted, failures


def _repeat(call, budget, limit):
    """Results of ``call``: one call, then more while fewer than ``limit``
    and the calls' summed time plus the last one's stays within ``budget``."""
    out, spent = [], 0.0
    while len(out) < limit:
        t0 = time.perf_counter()
        out.append(call())
        last = time.perf_counter() - t0
        spent += last
        if spent + last > budget:
            break
    return out


def measure(plan_path, seconds):
    """Untraced run: full passes within ``seconds``, then set-up-only passes."""
    passes = _repeat(lambda: run_child(plan_path, probe=1), seconds, math.inf)
    setups = [p["setup_s"] for p in passes]
    extra = _repeat(lambda: run_child(plan_path, mode="setup", probe=1), SETUP_SECONDS,
                    SETUP_SAMPLES - len(setups))
    setups += [r["setup_s"] for r in extra]
    attempted, failures = _tally(passes)
    metrics = {
        "solve_s": statistics.median(p["solve_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_frac": 1.0 - len(failures) / attempted,
    }
    raw = {"passes": passes, "setup_samples": setups, "setup_passes": extra}
    return metrics, {k: E2E_UNITS[k] for k in metrics}, attempted, failures, raw


def measure_traced(plan_path):
    """Traced run: one untraced pass for reference, then one traced pass."""
    plain = run_child(plan_path)
    traced = run_child(plan_path, trace=1)
    attempted, failures = _tally([plain, traced])
    metrics = {k: v for k, (v, _) in traced["layers"].items()}
    units = {k: u for k, (_, u) in traced["layers"].items()}
    metrics["trace.solve_s"], units["trace.solve_s"] = traced["solve_s"], "s"
    metrics["trace.overhead_s"] = traced["solve_s"] - plain["solve_s"]
    units["trace.overhead_s"] = "s"
    if plain["outcomes"] != traced["outcomes"]:
        failures.append(("trace", "traced and untraced passes disagree on item outcomes"))
    return metrics, units, attempted, failures, {"passes": [plain, traced]}


def evaluate(plan, work, seconds, trace):
    """Measure one generated plan and print its metrics; see the module doc."""
    plan_path = Path(work) / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1) + "\n")
    machine = machine_block()
    if trace:
        metrics, units, attempted, failures, raw = measure_traced(plan_path)
    else:
        metrics, units, attempted, failures, raw = measure(plan_path, seconds)
    name = plan["workload"]
    record = {
        "workload": name,
        "seed": plan["seed"],
        "inputs_sha256": plan["inputs_sha256"],
        "trace": trace,
        "machine": machine,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "failures": failures,
        **raw,
    }
    (Path(work) / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"# workload={name} seed={plan['seed']} inputs_sha256={plan['inputs_sha256']}")
    print(f"# machine {json.dumps(machine)}")
    for key, val in metrics.items():
        print(f"{name} {key} = {val:.6g} {units[key]}")
    if not trace:
        print(f"{name} failed_frac = {len(failures) / attempted:.6g} ratio")
        for key in ("wall_s", "cpu_raw_s"):
            val = statistics.median(p[key] for p in raw["passes"])
            print(f"{name} {key} = {val:.6g} s (unscaled)")
    for item, why in failures:
        print(f"{name} FAILED {item}: {why}")
    return metrics, units, attempted, len(failures)


def main(argv=None):
    parser = argparse.ArgumentParser(description="nes-sim benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("replicate", "ensemble", "network", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nes_sim" / "__init__.py").is_file():
        print(f"error: no nes_sim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    names = tuple(workloads.GENERATORS) if args.workload == "all" else (args.workload,)
    out = {}
    attempted = failed = 0
    try:
        for name in names:
            work = HERE / "_work" / name
            plan = workloads.GENERATORS[name](work, args.seed)
            metrics, units, n, bad = evaluate(plan, work, args.seconds, args.trace)
            prefix = f"{name}." if args.workload == "all" else ""
            for key, val in metrics.items():
                out[prefix + key] = {"value": val, "unit": units[key]}
            attempted += n
            failed += bad
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
