"""One pass of a workload plan, in a fresh process.

Usage: ``python3 passrun.py PLAN --mode full|setup --trace 0|1 --probe 0|1``,
run in the plan's directory (the plan's paths are relative to it).

- ``full``: every invocation of the plan through ``nes_sim.cli.main``,
  then every item checked. Prints one JSON line: wall, set-up and CPU
  time of the pass, the process's peak RSS and each item's outcome.
- ``setup``: every invocation up to the integrator's first step, which
  aborts it. Prints the pass's set-up time only.
- ``--trace 1`` (full mode only) wraps every layer boundary and adds the
  per-layer metrics; the spans go to ``spans.json`` beside the plan.
- ``--probe 1`` (untraced only) runs ``speedprobe.SpeedProbe`` through
  the pass and scales its times to the probe's reference speed.

Untraced, the only hook is one timestamp per call of
``nes_sim.runner.integrate``, taken on entry; nothing runs per step.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import nes_sim.cli  # noqa: E402
import nes_sim.runner  # noqa: E402
from speedprobe import SpeedProbe  # noqa: E402
from tracing import HARNESS_KEY, Tracer, TraceError  # noqa: E402

# the acceptance suite's bound on any increase of the Lyapunov candidate
MAX_LYAPUNOV_INCREMENT = 1e-8


class SetupDone(Exception):
    """Raised at the integrator's first step of a set-up-only pass."""


class SetupClock:
    """Timestamps entries of ``nes_sim.runner.integrate``; O(1) per call."""

    def __init__(self, abort):
        self.entries = []
        self._abort = abort
        self._original = None

    def __enter__(self):
        self._original = original = nes_sim.runner.integrate
        entries, abort = self.entries, self._abort

        def integrate(*args, **kwargs):
            entries.append(perf_counter())
            if abort:
                raise SetupDone
            return original(*args, **kwargs)

        nes_sim.runner.integrate = integrate
        return self

    def __exit__(self, *exc):
        nes_sim.runner.integrate = self._original


def _read_summary(path):
    out = {}
    for line in Path(path).read_text().splitlines():
        key, _, val = line.partition("=")
        out[key] = val
    return out


def _final_x(path, size):
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        last = None
        for last in fh:
            pass
    if last is None:
        raise ValueError(f"{path}: no records")
    row = dict(zip(header, last.rstrip("\n").split(",")))
    cols = [c for c in header if c.startswith("x_")]
    if len(cols) != size:
        raise ValueError(f"{path}: {len(cols)} x columns, expected {size}")
    return [float(row[c]) for c in cols]


def check_item(item):
    """Return None when the item's outputs pass every check, else why not."""
    if item["kind"] == "tune":
        report = json.loads(Path(item["report"]).read_text())
        theta_star = float(report["theta_star"])
        if not (math.isfinite(theta_star) and theta_star < item["theta"]):
            return f"theta_star {theta_star} is not finite and below theta {item['theta']}"
        return None
    summary = _read_summary(item["summary"])
    if summary["converged"] != "true":
        return "summary says not converged"
    x = _final_x(item["trajectory"], len(item["x_star"]))
    dist = max(abs(a - b) for a, b in zip(x, item["x_star"]))
    if not dist <= item["tol"]:
        return f"final distance to exact_ne {dist:.3g} exceeds {item['tol']}"
    if item["bounded"] and not (
        summary["bounds_ok"] == "true" and float(summary["worst_bound_violation"]) == 0.0
    ):
        return f"control bounds violated by {summary['worst_bound_violation']}"
    if item["monitored"]:
        inc = summary["max_lyapunov_increment"]
        if inc == "none" or not float(inc) <= MAX_LYAPUNOV_INCREMENT:
            return f"max Lyapunov increment {inc} exceeds {MAX_LYAPUNOV_INCREMENT}"
    return None


def _outputs(item):
    keys = ("report",) if item["kind"] == "tune" else ("summary", "trajectory")
    return [Path(item[k]) for k in keys]


def invoke(argv):
    """``nes_sim.cli.main(argv)`` with its output captured.

    Returns ``(exit code or None, error text)``; any exception counts as
    a failure of the invocation and the pass carries on.
    """
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = nes_sim.cli.main(argv)
    except SetupDone:
        raise
    except SystemExit as exc:
        return exc.code, sink.getvalue()
    except Exception as exc:  # an item that raises is a failed item
        return None, f"{type(exc).__name__}: {exc}"
    return code, sink.getvalue()


def check_invocation(inv, code, output):
    """Outcome of every item of one invocation: (id, reason or None)."""
    outcomes = []
    for item in inv["items"]:
        try:
            reason = check_item(item)
        except (OSError, KeyError, ValueError) as exc:
            reason = f"outputs unreadable: {type(exc).__name__}: {exc}"
        outcomes.append([item["id"], reason])
    if code != 0 and all(reason is None for _, reason in outcomes):
        # a failing exit that no item explains fails every item
        tail = output.strip().splitlines()[-1:] or [""]
        outcomes = [[i, f"exit code {code}: {tail[0]}"] for i, _ in outcomes]
    return outcomes


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(plan, mode="full", tracer=None, probe=None):
    """Run one pass of ``plan``; see the module docstring for the modes.

    With a ``SpeedProbe`` the pass's times are scaled to its reference
    speed; the plain ones are kept as ``wall_s``, ``cpu_raw_s`` and
    ``setup_raw_s``.
    """
    for inv in plan["invocations"]:
        for item in inv["items"]:
            for path in _outputs(item):
                path.unlink(missing_ok=True)
    setups = []
    outcomes = []
    clock = SetupClock(abort=mode == "setup") if tracer is None else contextlib.nullcontext()
    root = tracer.frame(HARNESS_KEY) if tracer is not None else contextlib.nullcontext()
    with probe or contextlib.nullcontext():
        cpu0, t0 = _cpu(), perf_counter()
        with clock, root:
            for inv in plan["invocations"]:
                if tracer is not None:
                    tracer.set_item(inv["label"])
                else:
                    clock.entries.clear()
                start = perf_counter()
                try:
                    code, output = invoke(inv["argv"])
                except SetupDone:
                    code, output = None, ""
                end = perf_counter()
                if tracer is None:
                    first = min(clock.entries, default=None)
                    whole = first is None or inv["argv"][0] == "tune"
                    setups.append((start, end if whole else first))
                if mode == "full":
                    outcomes += check_invocation(inv, code, output)
        t1 = perf_counter()
        cpu = _cpu() - cpu0
    solve = raw_solve = t1 - t0
    setup = raw_setup = sum(b - a for a, b in setups)
    if probe is not None:
        solve, raw_solve = probe.scaled(t0, t1)
        setup = sum(probe.scaled(a, b)[0] for a, b in setups)
        raw_setup = sum(probe.scaled(a, b)[1] for a, b in setups)
        cpu -= sum(c for a, _, c in probe.probes if a >= t0)
    raw_cpu = cpu
    cpu *= solve / raw_solve if raw_solve > 0 else 1.0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"setup_s": setup, "setup_raw_s": raw_setup} if tracer is None else {}
    if mode == "full":
        result.update(solve_s=solve, cpu_s=cpu, peak_rss_mb=peak_kib / 1024.0,
                      wall_s=raw_solve, cpu_raw_s=raw_cpu, outcomes=outcomes)
    if probe is not None:
        result["probe_cpu_s"] = [c for _, _, c in probe.probes]
    return result


def traced_pass(plan, spans_path):
    """A full pass under the tracer, with its consistency checks."""
    with Tracer() as tracer:
        result = run_pass(plan, tracer=tracer)
    tracer.check(plan["workload"])
    layers, traced_solve = tracer.layer_metrics()
    self_sum = sum(v for k, (v, _) in layers.items() if k.endswith(".self_s"))
    if abs(self_sum - traced_solve) > 1e-6 * max(traced_solve, 1.0):
        raise TraceError(f"layer self times sum to {self_sum}, pass took {traced_solve}")
    Path(spans_path).write_text(json.dumps(tracer.span_records()) + "\n")
    result["solve_s"] = traced_solve
    result["layers"] = {k: [v, unit] for k, (v, unit) in layers.items()}
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan")
    parser.add_argument("--mode", choices=("full", "setup"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text())
    if args.trace:
        result = traced_pass(plan, Path(args.plan).with_name("spans.json"))
    else:
        result = run_pass(plan, args.mode, probe=SpeedProbe() if args.probe else None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
