"""Fixed-step integration, trajectory recording, and convergence checks.

Only explicit fixed-step schemes are offered (classical RK4 and forward
Euler): runs are deterministic, bitwise reproducible, and fast consensus
modes are handled by choosing dt against the stability guard rather than
by implicit methods.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import dynamics as dyn
from .errors import DivergenceError

__all__ = [
    "SimConfig",
    "Trajectory",
    "integrate",
    "detect_convergence",
    "check_control_bounds",
    "monitor_lyapunov",
    "attach_distance",
    "attach_estimation_error",
    "stability_guard",
    "run_sweep",
]


class _Scheme(NamedTuple):
    """An explicit Runge-Kutta tableau whose stage i + 1 reads only s and k_i.

    Stage i + 1 is evaluated at ``s + dt * stage_coefs[i - 1] * k_i`` and
    the step is ``s + dt * sum(weights[i] * k_{i+1})``. ``guard`` is the
    dt * fastest-mode-rate threshold, just inside the scheme's real-axis
    stability interval.
    """

    stage_coefs: tuple[float, ...]
    weights: tuple[float, ...]
    guard: float


_SCHEMES = {
    "rk4": _Scheme((0.5, 0.5, 1.0), (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0), 2.5),
    "euler": _Scheme((), (1.0,), 1.8),
}


@dataclass
class SimConfig:
    """Integration settings.

    ``record_stride`` keeps every k-th step; the initial and final states
    are always recorded regardless. ``convergence_tol`` is the inf-norm
    distance to the equilibrium used by :func:`detect_convergence`.
    """

    dt: float
    t_end: float
    record_stride: int = 1
    integrator: str = "rk4"
    convergence_tol: float = 1e-3
    monitor_lyapunov: bool = False

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not self.t_end > 0.0:
            raise ValueError("t_end must be positive")
        if not np.isfinite(self.t_end):
            raise ValueError("t_end must be finite")
        if self.dt > self.t_end:
            raise ValueError("dt must not exceed t_end")
        stride = self.record_stride
        if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
            raise ValueError("record_stride must be a positive integer")
        self.record_stride = int(self.record_stride)
        self.integrator = str(self.integrator).lower()
        if self.integrator not in _SCHEMES:
            raise ValueError(f"integrator must be one of {sorted(_SCHEMES)}")
        if not self.convergence_tol > 0.0:
            raise ValueError("convergence_tol must be positive")

    @property
    def n_steps(self):
        return max(1, int(round(self.t_end / self.dt)))

    @property
    def rhs_evals(self):
        """Vector-field calls of a run: one per stage of each step, plus the last."""
        return len(_SCHEMES[self.integrator].weights) * self.n_steps + 1


@dataclass
class Trajectory:
    """Recorded run: times, flat states, applied controls, diagnostics.

    ``states`` has one row per record in the strategy's layout order;
    ``controls`` holds the Np applied inputs at the same instants.
    Diagnostic series (``V``, ``dist_ne``, ``est_err``) are attached by
    the monitor helpers.
    """

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    layout: dyn.StateLayout
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_records(self):
        return self.times.size

    def block_history(self, name):
        """All records of one state block, shape (n_records, block size)."""
        a, b = self.layout.offsets[name]
        return self.states[:, a:b]

    def x_history(self):
        return self.block_history("x")

    def final_state(self):
        return self.states[-1]

    def to_csv(self, path):
        """Write the schema: t, x_i_d, [nu_i_d], u_i_d, [V, dist_ne, est_err].

        Indices are 1-based in the header; floats carry 17 significant
        digits so the file round-trips float64 exactly.
        """
        n, p = self.layout.n_players, self.layout.action_dim
        cols = ["t"]
        series = [self.times]
        x = self.x_history()
        cols += [f"x_{i + 1}_{d + 1}" for i in range(n) for d in range(p)]
        series += [x[:, k] for k in range(n * p)]
        if self.layout.has_velocity:
            nu = self.block_history("nu")
            cols += [f"nu_{i + 1}_{d + 1}" for i in range(n) for d in range(p)]
            series += [nu[:, k] for k in range(n * p)]
        cols += [f"u_{i + 1}_{d + 1}" for i in range(n) for d in range(p)]
        series += [self.controls[:, k] for k in range(n * p)]
        for key in ("V", "dist_ne", "est_err"):
            if key in self.diagnostics:
                cols.append(key)
                series.append(self.diagnostics[key])
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for row in zip(*series):
                fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def integrate(rhs, state0, cfg, layout):
    """Advance an autonomous vector field at fixed step and record.

    One explicit Runge-Kutta loop serves every scheme. The state and the
    stage derivatives are the rows of one preallocated array; each stage
    state and each step update is one BLAS product over those rows.

    Parameters
    ----------
    rhs : callable
        ``rhs(state) -> (dstate, u)``, called once per stage of every step
        and once more for the final record (``cfg.rhs_evals`` calls).
        ``dstate`` is copied before ``rhs`` is called again.
    state0 : array_like
        Initial flat state in ``layout`` order.
    cfg : SimConfig
    layout : dynamics.StateLayout
        Used for validation and for naming blocks in divergence reports.

    Raises
    ------
    DivergenceError
        On the first non-finite state component, naming the step and the
        offending block.
    """
    scheme = _SCHEMES[cfg.integrator]
    dt = cfg.dt
    n_steps = cfg.n_steps
    stride = cfg.record_stride

    # row 0 is the state s, row i the stage derivative k_i
    rows = np.empty((len(scheme.weights) + 1, layout.size))
    s, k1, ks = rows[0], rows[1], rows[1:]
    s[:] = layout.check(state0)
    buf = np.empty(layout.size)
    # a stage reads only the rows of its nonzero tableau entries, s and k_i,
    # so a non-finite k never meets a zero weight
    stages = [
        (np.array([1.0, dt * a]).dot, rows[0 : i + 1 : i], rows[i + 1])
        for i, a in enumerate(scheme.stage_coefs, start=1)
    ]
    step_dot = np.array([dt * w for w in scheme.weights]).dot
    s_dot, isfinite = s.dot, math.isfinite

    rec_times, rec_states, rec_controls = [], [], []

    def record(step, u):
        rec_times.append(step * dt)
        rec_states.append(s.copy())
        rec_controls.append(np.asarray(u, dtype=float).copy())

    for step in range(n_steps):
        k, u1 = rhs(s)
        if step % stride == 0:
            record(step, u1)
        k1[:] = k
        for stage_dot, src, dst in stages:
            stage_dot(src, buf)
            dst[:] = rhs(buf)[0]
        step_dot(ks, buf)
        s += buf
        # s.s is finite unless an entry is non-finite or |s| passes ~1e154;
        # only then does the exact test run
        if not isfinite(s_dot(s)) and not np.isfinite(s).all():
            bad = int(np.flatnonzero(~np.isfinite(s))[0])
            raise DivergenceError(
                f"non-finite state at step {step + 1} "
                f"(t={(step + 1) * dt:.6g}) in block {layout.block_name(bad)}"
            )
    _, u_final = rhs(s)
    record(n_steps, u_final)

    return Trajectory(
        times=np.asarray(rec_times),
        states=np.vstack(rec_states),
        controls=np.vstack(rec_controls),
        layout=layout,
    )


def attach_distance(traj, x_star):
    """Attach the inf-norm distance of x(t) to the equilibrium."""
    x_star = np.asarray(x_star, dtype=float).ravel()
    dist = np.max(np.abs(traj.x_history() - x_star[None, :]), axis=1)
    traj.diagnostics["dist_ne"] = dist
    return dist

def attach_estimation_error(traj):
    """Attach ||y - tiled target|| (2-norm); target is x or the reference z."""
    if not traj.layout.has_estimates:
        raise ValueError("layout has no estimate block")
    target = "z" if traj.layout.has_reference else "x"
    ref = traj.block_history(target)
    y = traj.block_history("y")
    err = np.linalg.norm(y - np.tile(ref, (1, traj.layout.n_players)), axis=1)
    traj.diagnostics["est_err"] = err
    return err


def detect_convergence(traj, x_star, tol):
    """Earliest recorded time after which x stays within ``tol`` of x_star.

    Uses the suffix criterion: a single crossing during an overshoot does
    not count; the hit time starts the final in-tolerance stretch.

    Returns ``(converged, t_hit)`` with ``t_hit=None`` when the final
    record is out of tolerance.
    """
    if traj.n_records == 0:
        raise ValueError("trajectory is empty")
    dist = attach_distance(traj, x_star)
    inside = dist <= tol
    if not inside[-1]:
        return False, None
    outside = np.flatnonzero(~inside)
    start = 0 if outside.size == 0 else int(outside[-1]) + 1
    return True, float(traj.times[start])


def check_control_bounds(traj, spec):
    """Verify every recorded control lies inside the bounds, exactly.

    Returns ``(ok, worst_violation)``; the violation is the largest
    positive exceedance over all records and channels (0.0 when ok).
    """
    if traj.controls.size == 0:
        raise ValueError("controls not recorded")
    spec.check_size(traj.controls.shape[1])
    over = np.max(traj.controls - spec.upper, initial=0.0)
    under = np.max(spec.lower - traj.controls, initial=0.0)
    worst = float(max(over, under, 0.0))
    return worst == 0.0, worst


def monitor_lyapunov(traj, game, *, gains=None, sat_spec=None, P=None, x_star=None):
    """Evaluate the strategy's Lyapunov candidate at every record.

    One call of :func:`nes_sim.dynamics.lyapunov_value` over the record
    matrix. Attaches the series as diagnostic ``V`` and returns
    ``(values, max_increment)`` where the increment is the largest
    positive jump between consecutive records (0.0 for a monotone
    series).
    """
    values = dyn.lyapunov_value(
        traj.layout.tag, game, traj.states, gains=gains, sat_spec=sat_spec, P=P, x_star=x_star
    )
    traj.diagnostics["V"] = values
    increments = np.diff(values)
    max_inc = float(increments.max(initial=0.0))
    return values, max(max_inc, 0.0)


def stability_guard(cfg, tag, gains=None, M=None, game=None):
    """Estimate dt * (fastest mode rate) and warn when it nears instability.

    For consensus strategies the fastest mode is the estimation flow,
    rate (theta * theta1) * max(theta_bar) * lambda_max(M); otherwise the
    game Jacobian's norm (plus damping gains) is used. Violation warns
    rather than aborts: saturation often tames the transient.
    """
    tag = dyn.StrategyTag(tag)
    blocks = dyn.STRATEGIES[tag].blocks
    rate = 0.0
    if M is not None and "y" in blocks:
        scale = gains.estimation_gain("nu" in blocks)
        tb_max = float(np.max(np.asarray(gains.theta_bar if gains.theta_bar is not None else 1.0)))
        rate = scale * tb_max * float(np.linalg.eigvalsh(M)[-1])
    elif game is not None:
        h_norm = float(np.linalg.norm(game.game_jacobian(np.zeros(game.profile_dim)), 2))
        if tag is dyn.StrategyTag.SECOND_ORDER_CENTRAL:
            rate = h_norm + (gains.alpha or 0.0) + (gains.beta or 0.0)
        else:
            rate = h_norm
    product = cfg.dt * rate
    limit = _SCHEMES[cfg.integrator].guard
    if product > limit:
        warnings.warn(
            f"stability guard: dt * fastest-mode-rate = {product:.3g} exceeds "
            f"{limit} for {cfg.integrator}; reduce dt or the consensus gains",
            RuntimeWarning,
            stacklevel=2,
        )
    return product


def run_sweep(configs, runner):
    """Execute independent runs one at a time, results in submission order.

    ``runner`` is a function of one configuration. Items run on one worker
    thread, in order: the integrator's BLAS products release the GIL on
    every call, so several workers only convoy on it and slow each other.
    """
    configs = list(configs)
    if not configs:
        return []
    # a worker thread, not the caller's: perfbench's tracer tells sweep
    # items apart by the thread they run on
    with ThreadPoolExecutor(max_workers=1) as pool:
        return list(pool.map(runner, configs))
