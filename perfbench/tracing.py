"""Per-layer tracing from outside the package.

The tracer replaces public functions of ``nes_sim`` as they are bound in
the calling module (``nes_sim.runner.integrate``, ``nes_sim.cli.run_sweep``,
...) with timing wrappers, and restores them on exit. A layer is a
package module; its self time is the time spent in its wrapped calls
minus the time of the wrapped calls they make.

Two kinds of boundary:

- span: crossed a few times per invocation. Each crossing is recorded as
  a span (id, name, start, end, parent id, item) kept in memory.
- aggregate: crossed per vector-field call (rhs, game gradients, the
  Lyapunov candidate). Only a count and a total time are kept; fig4 alone
  makes 800k rhs calls.

``run_sweep`` runs items on a thread pool. Layer times inside a sweep are
scaled by U/S, where S is the items' summed traced time and U the wall
time during which at least one item ran, so that every layer reports its
share of wall time and the self times of all layers add up to the pass's
wall time. ``simulate.sweep_concurrency`` reports the items' summed
duration over the sweep's wall time.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

R, E, N = "replicate", "ensemble", "network"
ALL = frozenset((R, E, N))

# (owner, attribute, metric name, kind, workloads that must cross it).
# The metric name's first component is the layer.
BOUNDARIES = (
    ("nes_sim.cli", "main", "cli.main", "span", ALL),
    ("nes_sim.cli", "parse_config", "config.parse_config", "span", ALL),
    ("nes_sim.cli", "run_experiment", "runner.run_experiment", "span", ALL),
    ("nes_sim.cli", "run_sweep", "simulate.run_sweep", "sweep", {E}),
    ("nes_sim.cli", "estimation_matrix", "graphs.estimation_matrix", "span", {N}),
    ("nes_sim.cli", "solve_lyapunov", "graphs.solve_lyapunov", "span", {N}),
    ("nes_sim.runner", "estimation_matrix", "graphs.estimation_matrix", "span", ALL),
    ("nes_sim.runner", "solve_lyapunov", "graphs.solve_lyapunov", "span", ALL),
    ("nes_sim.tuning", "estimation_matrix", "graphs.estimation_matrix", "span", {R, N}),
    ("nes_sim.tuning", "theta_star_first_order", "tuning.bounds", "span", {R, E}),
    ("nes_sim.tuning", "theta_bounds_second_order", "tuning.bounds", "span", {R, N}),
    ("nes_sim.runner", "stability_guard", "simulate.stability_guard", "span", ALL),
    ("nes_sim.runner", "make_rhs", "dynamics.make_rhs", "span", ALL),
    ("nes_sim.runner", "integrate", "simulate.integrate", "span", ALL),
    ("nes_sim.runner", "attach_distance", "simulate.attach_distance", "span", ALL),
    ("nes_sim.runner", "detect_convergence", "simulate.detect_convergence", "span", ALL),
    ("nes_sim.runner", "attach_estimation_error", "simulate.attach_estimation_error", "span", ALL),
    ("nes_sim.runner", "monitor_lyapunov", "simulate.monitor_lyapunov", "span", ALL),
    ("nes_sim.runner", "check_control_bounds", "simulate.check_control_bounds", "span", ALL),
    ("nes_sim.simulate", "Trajectory.to_csv", "simulate.to_csv", "span", ALL),
    ("nes_sim.dynamics", "lyapunov_value", "dynamics.lyapunov_value", "agg", ALL),
    ("nes_sim.games", "QuadraticGame.exact_ne", "games.exact_ne", "span", ALL),
    ("nes_sim.games", "QuadraticGame.pseudo_gradient", "games.gradient", "agg", {R, E}),
    (
        "nes_sim.games",
        "QuadraticGame.own_gradients_at_estimates",
        "games.gradient",
        "agg",
        ALL,
    ),
)
RHS_KEY = "nes_sim.runner:make_rhs -> rhs"
HARNESS_KEY = "harness.pass"  # the root span: one whole pass
LAYERS = ("cli", "config", "graphs", "games", "tuning", "dynamics", "simulate", "runner")

_NAMES = {f"{owner}:{attr}": name for owner, attr, name, _, _ in BOUNDARIES}
_NAMES[RHS_KEY] = "dynamics.rhs"
_NAMES[HARNESS_KEY] = "harness.pass"
_NAMES["sweep item"] = "cli.sweep_item"


class TraceError(RuntimeError):
    """A consistency check of the traced run failed."""


class _ThreadStats:
    """What one thread measured; merged into the pass totals at the end."""

    def __init__(self, root_span, item):
        self.stack = []  # frames: [child seconds, span id]
        self.root_span = root_span
        self.item = item
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self.max_n = 0

    def merge_into(self, other, scale):
        for key, val in self.calls.items():
            other.calls[key] += val
        for key, val in self.total.items():
            other.total[key] += scale * val
        for key, val in self.self_time.items():
            other.self_time[key] += scale * val
        for key, val in self.counters.items():
            other.counters[key] += val
        other.max_n = max(other.max_n, self.max_n)


class _Sweep:
    def __init__(self, span_id, label):
        self.span_id = span_id
        self.label = label
        self.threads = []
        self.intervals = []


def _union_length(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _resolve(owner, attr):
    obj = importlib.import_module(owner)
    *path, leaf = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, leaf


class Tracer:
    """Context manager that wraps every boundary in ``BOUNDARIES``."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._main = _ThreadStats(0, None)
        self._sweep = None
        self._patches = []

    # -- thread state -------------------------------------------------
    def _stats(self):
        try:
            return self._tls.stats
        except AttributeError:
            pass
        if threading.current_thread() is threading.main_thread():
            stats = self._main
        elif self._sweep is not None:
            stats = _ThreadStats(self._sweep.span_id, None)
            self._sweep.threads.append(stats)
        else:
            raise TraceError("traced call from a worker thread outside run_sweep")
        self._tls.stats = stats
        return stats

    def set_item(self, item):
        self._stats().item = item

    # -- frames ---------------------------------------------------------
    def _enter(self):
        st = self._stats()
        parent = st.stack[-1][1] if st.stack else st.root_span
        frame = [0.0, next(self._ids)]
        st.stack.append(frame)
        return st, parent, frame, perf_counter()

    def _leave(self, st, key, parent, frame, t0, child_override=None):
        t1 = perf_counter()
        d = t1 - t0
        st.stack.pop()
        child = frame[0] if child_override is None else child_override
        st.calls[key] += 1
        st.total[key] += d
        st.self_time[key] += d - child
        if st.stack:
            st.stack[-1][0] += d
        self.spans.append((frame[1], _NAMES[key], t0, t1, parent, st.item))

    @contextmanager
    def frame(self, key):
        """Time a block of harness code as a span (used for the pass root)."""
        st, parent, frame, t0 = self._enter()
        try:
            yield
        finally:
            self._leave(st, key, parent, frame, t0)

    def _wrap(self, fn, key, post=None):
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            st, parent, frame, t0 = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(st, key, parent, frame, t0)
            return post(st, args, result) if post is not None else result

        return wrapper

    def _wrap_agg(self, fn, key):
        tls, stats = self._tls, self._stats

        def wrapper(*args, **kwargs):
            try:
                st = tls.stats
            except AttributeError:
                st = stats()
            stack = st.stack
            frame = [0.0, stack[-1][1] if stack else st.root_span]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                stack.pop()
                st.calls[key] += 1
                st.total[key] += d
                st.self_time[key] += d - frame[0]
                if stack:
                    stack[-1][0] += d

        return wrapper

    def _wrap_sweep(self, fn, key):
        tracer = self

        def run_sweep(configs, runner, *args, **kwargs):
            configs = list(configs)
            st, parent, frame, t0 = tracer._enter()
            sweep = _Sweep(frame[1], st.item)
            index = {id(c): k for k, c in enumerate(configs)}
            item_runner = tracer._wrap(runner, "sweep item")

            def run_item(cfg):
                tracer.set_item(f"{sweep.label}[{index[id(cfg)]}]")
                a = perf_counter()
                try:
                    return item_runner(cfg)
                finally:
                    sweep.intervals.append((a, perf_counter()))

            tracer._sweep = sweep
            try:
                return fn(configs, run_item, *args, **kwargs)
            finally:
                tracer._sweep = None
                covered = _union_length(sweep.intervals)
                busy = sum(sum(t.self_time.values()) for t in sweep.threads)
                scale = covered / busy if busy > 0.0 else 0.0
                for stats in sweep.threads:
                    stats.merge_into(st, scale)
                st.counters["sweep_item_s"] += sum(b - a for a, b in sweep.intervals)
                tracer._leave(st, key, parent, frame, t0, child_override=covered)

        return run_sweep

    # -- post hooks -----------------------------------------------------
    def _post_make_rhs(self, st, args, result):
        rhs, layout = result
        return self._wrap_agg(rhs, RHS_KEY), layout

    @staticmethod
    def _post_integrate(st, args, traj):
        st.counters["steps"] += args[2].n_steps
        st.counters["records"] += traj.n_records
        return traj

    @staticmethod
    def _post_to_csv(st, args, result):
        st.counters["csv_bytes"] += os.path.getsize(args[1])
        return result

    @staticmethod
    def _post_solve_lyapunov(st, args, result):
        st.max_n = max(st.max_n, result.P.shape[0])
        return result

    # -- install / restore ------------------------------------------------
    def __enter__(self):
        posts = {
            "dynamics.make_rhs": self._post_make_rhs,
            "simulate.integrate": self._post_integrate,
            "simulate.to_csv": self._post_to_csv,
            "graphs.solve_lyapunov": self._post_solve_lyapunov,
        }
        try:
            for owner, attr, name, kind, _ in BOUNDARIES:
                obj, leaf = _resolve(owner, attr)
                original = getattr(obj, leaf)  # a renamed boundary fails here
                key = f"{owner}:{attr}"
                if kind == "agg":
                    wrapped = self._wrap_agg(original, key)
                elif kind == "sweep":
                    wrapped = self._wrap_sweep(original, key)
                else:
                    wrapped = self._wrap(original, key, post=posts.get(name))
                setattr(obj, leaf, wrapped)
                self._patches.append((obj, leaf, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()

    def _restore(self):
        while self._patches:
            obj, leaf, original = self._patches.pop()
            setattr(obj, leaf, original)

    # -- results ----------------------------------------------------------
    def check(self, workload):
        """Raise TraceError unless the counts are consistent.

        RK4 calls the vector field four times per step plus once for the
        final record, and every boundary the workload should reach was
        entered at least once: a refactor that bypasses a wrapped name
        must fail here rather than report an empty layer.
        """
        st = self._main
        missing = [
            f"{owner}:{attr}"
            for owner, attr, _, _, wanted in BOUNDARIES
            if workload in wanted and st.calls[f"{owner}:{attr}"] == 0
        ]
        if st.calls[RHS_KEY] == 0:
            missing.append(RHS_KEY)
        if missing:
            raise TraceError(f"{workload}: boundaries never entered: {', '.join(missing)}")
        integrations = st.calls["nes_sim.runner:integrate"]
        expected = 4 * int(st.counters["steps"]) + integrations
        if st.calls[RHS_KEY] != expected:
            raise TraceError(
                f"rhs calls {st.calls[RHS_KEY]} != 4 * steps + integrations = {expected}"
            )

    def _by_name(self, table):
        out = defaultdict(float)
        for key, val in table.items():
            out[_NAMES[key]] += val
        return out

    def layer_metrics(self):
        """Per-layer numbers of the pass, by metric name (value, unit)."""
        st = self._main
        calls, total = self._by_name(st.calls), self._by_name(st.total)
        own = self._by_name(st.self_time)
        layer_self = defaultdict(float)
        for name, val in own.items():
            layer_self[name.split(".")[0]] += val
        steps, rhs_calls = st.counters["steps"], calls["dynamics.rhs"]
        sweep_wall = total["simulate.run_sweep"]
        diagnostics = sum(
            total[f"simulate.{n}"]
            for n in ("attach_distance", "detect_convergence", "attach_estimation_error",
                      "check_control_bounds")
        )
        m = {
            "dynamics.rhs_calls": (rhs_calls, "count"),
            "dynamics.rhs_s": (total["dynamics.rhs"], "s"),
            "dynamics.rhs_us": (1e6 * total["dynamics.rhs"] / max(rhs_calls, 1), "us"),
            "dynamics.make_rhs_s": (total["dynamics.make_rhs"], "s"),
            "games.gradient_calls": (calls["games.gradient"], "count"),
            "games.gradient_s": (total["games.gradient"], "s"),
            "games.exact_ne_s": (total["games.exact_ne"], "s"),
            "simulate.integrate_s": (total["simulate.integrate"], "s"),
            "simulate.steps": (steps, "count"),
            "simulate.step_us": (1e6 * total["simulate.integrate"] / max(steps, 1), "us"),
            "simulate.integrate_self_s": (own["simulate.integrate"], "s"),
            "simulate.run_sweep_s": (sweep_wall, "s"),
            "simulate.sweep_concurrency": (
                st.counters["sweep_item_s"] / sweep_wall if sweep_wall > 0 else 0.0,
                "ratio",
            ),
            "simulate.records": (st.counters["records"], "count"),
            "simulate.monitor_lyapunov_s": (total["simulate.monitor_lyapunov"], "s"),
            "simulate.diagnostics_s": (diagnostics, "s"),
            "simulate.to_csv_s": (total["simulate.to_csv"], "s"),
            "simulate.csv_bytes": (st.counters["csv_bytes"], "B"),
            "simulate.stability_guard_s": (total["simulate.stability_guard"], "s"),
            "graphs.solve_lyapunov_s": (total["graphs.solve_lyapunov"], "s"),
            "graphs.solve_lyapunov_calls": (calls["graphs.solve_lyapunov"], "count"),
            "graphs.solve_lyapunov_max_n": (st.max_n, "count"),
            "graphs.estimation_matrix_s": (total["graphs.estimation_matrix"], "s"),
            "tuning.bounds_s": (total["tuning.bounds"], "s"),
            "tuning.bounds_calls": (calls["tuning.bounds"], "count"),
            "config.parse_s": (total["config.parse_config"], "s"),
            "runner.run_experiment_s": (total["runner.run_experiment"], "s"),
        }
        for layer in LAYERS + ("harness",):
            m[f"{layer}.self_s"] = (layer_self[layer], "s")
        return m, total["harness.pass"]

    def span_records(self):
        keys = ("id", "name", "start", "end", "parent", "item")
        return [dict(zip(keys, span)) for span in self.spans]
