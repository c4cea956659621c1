"""End-to-end experiment execution: config in, trajectory and summary out."""

from __future__ import annotations

import os
import time
from types import SimpleNamespace

import numpy as np

from . import tuning
from .dynamics import make_rhs
from .errors import ConfigError, NotStronglyMonotoneError
from .graphs import estimation_matrix, solve_lyapunov
from .simulate import (
    attach_distance,
    attach_estimation_error,
    check_control_bounds,
    detect_convergence,
    integrate,
    monitor_lyapunov,
    stability_guard,
)

__all__ = ["SummaryReport", "check_output_paths", "run_experiment"]


def _summary_value(val):
    if val is None:
        return "none"
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, float):
        return format(val, ".17g")
    return str(val)


class SummaryReport(SimpleNamespace):
    """Machine-readable run outcome: one attribute per summary key, in the
    order the file lists them, written as flat key=value lines."""

    def lines(self):
        """One key=value line per attribute, in the order they were set."""
        return [f"{key}={_summary_value(val)}" for key, val in vars(self).items()]

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("\n".join(self.lines()) + "\n")


# sorted, the order of the summary's tuner_<key> lines
_ECHO_KEYS = ("alpha_star", "beta_star", "m", "theta1_star", "theta_star")


def _tuner_echo(cfg, lyap):
    """The gain bounds ``tune`` reports as ``tuner_<key>`` entries, or
    ``tuner_error`` with the reason they failed."""
    try:
        report = tuning.gain_report(cfg, lyap).as_dict()
    except ValueError as exc:  # NotStronglyMonotoneError included
        # one line, so the summary stays key=value per line
        return {"tuner_error": " ".join(str(exc).split())}
    return {f"tuner_{key}": report[key] for key in _ECHO_KEYS if key in report}


def check_output_path(name, path):
    """Refuse an output path whose directory is missing or not writable, or
    that names a directory; ``name`` heads the message.

    Called before any run time is spent, so a path that cannot be written
    is found before the work, not after it.
    """
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ConfigError(f"{name}: the directory of {path} does not exist")
    if not os.access(directory, os.W_OK | os.X_OK):
        raise ConfigError(f"{name}: the directory of {path} is not writable")
    if os.path.isdir(path):
        raise ConfigError(f"{name}: {path} is a directory")


def check_output_paths(output):
    """:func:`check_output_path` for each path of an output section."""
    for key, path in (output or {}).items():
        check_output_path(f"output.{key}", path)


def run_experiment(cfg):
    """Run one configured experiment and summarise it.

    Returns ``(summary, trajectory)``. The summary is a
    :class:`SummaryReport` whose attributes are exactly the keys of the
    summary file, in its order; ``lyapunov_error`` is an attribute only
    when its line is written. When the configuration carries an output
    section, the trajectory CSV and the summary key=value file are written
    to those paths, which are checked before the run starts.
    """
    check_output_paths(cfg.output)
    game, graph, tag = cfg.game, cfg.graph, cfg.tag

    # the estimation layer per channel (M = M1 (x) I_p); the gain bounds need its pair
    lyap = None
    if cfg.layout.has_estimates:
        M1 = estimation_matrix(graph, 1)
        tb = cfg.gains.theta_bar_vec(game.n_players)
        lyap = solve_lyapunov(M1, tb, cfg.lyapunov_q, game.action_dim)
    guard = stability_guard(cfg.sim, tag, gains=cfg.gains, graph=graph, game=game)

    try:
        x_star = game.exact_ne()
    except NotStronglyMonotoneError:
        x_star = None

    rhs, layout = make_rhs(tag, game, graph=graph, gains=cfg.gains, sat_spec=cfg.sat_spec)
    start = time.perf_counter()
    traj = integrate(rhs, cfg.initial_state(), cfg.sim, layout)
    wall = time.perf_counter() - start

    converged, t_hit, final_dist = False, None, None
    if x_star is not None:
        dist = attach_distance(traj, x_star)
        converged, t_hit = detect_convergence(traj.times, dist, cfg.sim.convergence_tol)
        final_dist = float(dist[-1])
    if layout.has_estimates:
        attach_estimation_error(traj)

    max_inc, lyap_error = None, None
    if cfg.sim.monitor_lyapunov:
        try:
            _, max_inc = monitor_lyapunov(
                traj,
                game,
                gains=cfg.gains,
                sat_spec=cfg.sat_spec,
                P=lyap.P if lyap is not None else None,
                x_star=x_star,
            )
        except ValueError as exc:  # the candidate lacks an ingredient or is not finite
            lyap_error = str(exc)

    bounds_ok, worst = None, None
    if cfg.sat_spec is not None:
        bounds_ok, worst = check_control_bounds(traj, cfg.sat_spec)

    peaks = np.max(np.abs(traj.controls), axis=0)
    summary = SummaryReport(
        strategy=tag.value,
        converged=converged,
        t_hit=t_hit,
        final_dist_inf=final_dist,
        max_abs_u=float(peaks.max()),
        **{f"max_abs_u_ch{k + 1}": float(v) for k, v in enumerate(peaks)},
        bounds_ok=bounds_ok,
        worst_bound_violation=worst,
        max_lyapunov_increment=max_inc,
        **({} if lyap_error is None else {"lyapunov_error": lyap_error}),
        lyap_residual=lyap.residual if lyap is not None else None,
        lyap_cond=lyap.cond if lyap is not None else None,
        **_tuner_echo(cfg, lyap),
        n_steps=cfg.sim.n_steps,
        rhs_evals=cfg.sim.rhs_evals,
        guard_product=guard,
        guard_limit=cfg.sim.guard_limit,
        wall_clock_s=wall,
        config_hash=cfg.config_hash(),
    )

    if cfg.output is not None:
        traj.to_csv(cfg.output["trajectory"])
        summary.write(cfg.output["summary"])
    return summary, traj
