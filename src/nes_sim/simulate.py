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
from .errors import DivergenceError, positive_int

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
# most steps between two finiteness screens, whatever the record stride
_SCREEN_STEPS = 100


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
        for name in ("dt", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not self.t_end > 0.0:
            raise ValueError("t_end must be positive")
        if self.dt > self.t_end:
            raise ValueError("dt must not exceed t_end")
        if not math.isfinite(self.t_end / self.dt):
            raise ValueError("t_end / dt, the step count, must be finite")
        self.record_stride = positive_int(self.record_stride, "record_stride")
        self.integrator = str(self.integrator).lower()
        if self.integrator not in _SCHEMES:
            raise ValueError(f"integrator must be one of {sorted(_SCHEMES)}")
        if not self.convergence_tol > 0.0:
            raise ValueError("convergence_tol must be positive")

    @property
    def n_steps(self):
        return max(1, int(round(self.t_end / self.dt)))

    @property
    def n_records(self):
        """Rows of a run's record: every ``record_stride``-th step from step 0, then the last."""
        return (self.n_steps - 1) // self.record_stride + 2

    @property
    def rhs_evals(self):
        """Vector-field calls of a run: one per stage of each step, plus the last."""
        return len(_SCHEMES[self.integrator].weights) * self.n_steps + 1

    @property
    def guard_limit(self):
        """The scheme's stability-guard threshold on dt * fastest-mode-rate."""
        return _SCHEMES[self.integrator].guard


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
        blocks = ["x", "nu"] if self.layout.has_velocity else ["x"]
        diags = [key for key in ("V", "dist_ne", "est_err") if key in self.diagnostics]
        names = [f"{b}_{i + 1}_{d + 1}" for b in blocks + ["u"] for i in range(n) for d in range(p)]
        table = np.column_stack(
            [self.times, *map(self.block_history, blocks), self.controls]
            + [self.diagnostics[key] for key in diags]
        )
        header = ",".join(["t", *names, *diags])
        np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")


def integrate(rhs, state0, cfg, layout):
    """Advance an autonomous vector field at fixed step and record.

    One explicit Runge-Kutta loop serves every scheme. The state and the
    stage derivatives are the rows of one preallocated array; each stage
    state and each step update is one BLAS product over those rows. The
    records, every ``record_stride``-th step from step 0 and then the last
    step, are preallocated too: ``cfg.n_records`` rows.

    The steps run in blocks of ``record_stride``, one block per record.
    Each block records its first state and the control of that state's
    first stage call, which is the previous step's last call. The
    finiteness screen runs after each run of at most ``_SCREEN_STEPS``
    steps within a block: a non-finite entry stays non-finite under every
    later update, so a run that ends finite had no non-finite state. A run
    that ends non-finite is replayed from its first state with the screen
    after every step, which names the first non-finite step. So a diverging
    run takes at most ``_SCREEN_STEPS`` more steps than a screen after every
    step would, and ``rhs`` may see a non-finite state for up to
    ``_SCREEN_STEPS`` steps before the error.

    Parameters
    ----------
    rhs : callable
        ``rhs(state, out)`` writes the derivative at ``state`` into ``out``,
        a derivative row of the loop. It is called once per stage of every
        step and once more at the final state (``cfg.rhs_evals`` calls).
    state0 : array_like
        Initial flat state in ``layout`` order.
    cfg : SimConfig
    layout : dynamics.StateLayout
        Validates the state, names blocks in divergence reports, and gives
        each record's control: the ``layout.control`` rows of the derivative
        at its state, the rate of each player's last integrator.

    Raises
    ------
    MemoryError, ValueError
        Before the first step, when the records cannot be allocated.
    DivergenceError
        On the first non-finite state component, naming the step and the
        offending block. Floating-point overflow and invalid operations
        inside the loop, the vector field's included, do not warn: a state
        that overflows to infinity or turns NaN raises this error instead.
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
    control = k1[layout.control]  # the control at s once rhs(s, k1) has run

    states = np.empty((cfg.n_records, layout.size))
    controls = np.empty((cfg.n_records, layout.action_size))
    times = np.r_[0:n_steps:stride, n_steps] * dt

    def advance(count):
        # count steps from s, whose first stage is in k1 on entry and on return
        nonlocal s
        for _ in range(count):
            for stage_dot, src, dst in stages:
                stage_dot(src, buf)
                rhs(buf, dst)
            step_dot(ks, buf)
            s += buf
            rhs(s, k1)

    def diverged(mark, lo, hi):
        # replay steps lo+1..hi from mark, screening every step, to name
        # the first non-finite one; a field whose replay stays finite
        # leaves step hi named
        end = s.copy()
        s[:] = mark
        rhs(s, k1)
        for step in range(lo + 1, hi + 1):
            advance(1)
            if not np.isfinite(s).all():
                end = s
                break
        bad = int(np.flatnonzero(~np.isfinite(end))[0])
        return DivergenceError(
            f"non-finite state at step {step} "
            f"(t={step * dt:.6g}) in block {layout.block_name(bad)}"
        )

    # s.s overflows once |s| passes ~1e154 while every entry is still
    # finite, and the steps after a state turns non-finite meet inf - inf
    # until the next screen: entered once, so the loop pays nothing per step
    mark = np.empty(layout.size)  # the first state of the screened run
    with np.errstate(over="ignore", invalid="ignore"):
        rhs(s, k1)
        for rec, start in enumerate(range(0, n_steps, stride)):
            states[rec] = s
            controls[rec] = control
            stop = min(start + stride, n_steps)
            for lo in range(start, stop, _SCREEN_STEPS):
                mark[:] = s
                hi = min(lo + _SCREEN_STEPS, stop)
                advance(hi - lo)
                # s.s is finite unless an entry is non-finite or |s| passes
                # ~1e154; only then does the exact test run
                if not isfinite(s_dot(s)) and not np.isfinite(s).all():
                    raise diverged(mark, lo, hi)
    states[-1] = s
    controls[-1] = control
    return Trajectory(times=times, states=states, controls=controls, layout=layout)


def attach_distance(traj, x_star):
    """Attach the inf-norm distance of x(t) to the equilibrium."""
    x_star = np.asarray(x_star, dtype=float).ravel()
    dist = np.max(np.abs(traj.x_history() - x_star[None, :]), axis=1)
    traj.diagnostics["dist_ne"] = dist
    return dist


def attach_estimation_error(traj):
    """Attach ||y - tiled target|| (2-norm); target is x or the reference z."""
    err = np.linalg.norm(traj.layout.estimate_error(traj.states), axis=1)
    traj.diagnostics["est_err"] = err
    return err


def detect_convergence(times, dist, tol):
    """Earliest record time after which the distance stays within ``tol``.

    ``dist`` is the distance series of the records at ``times``, as
    :func:`attach_distance` returns it. Uses the suffix criterion: a single
    crossing during an overshoot does not count; the hit time starts the
    final in-tolerance stretch.

    Returns ``(converged, t_hit)`` with ``t_hit=None`` when the final
    record is out of tolerance.
    """
    if len(dist) == 0:
        raise ValueError("distance series is empty")
    inside = np.asarray(dist) <= tol
    if not inside[-1]:
        return False, None
    outside = np.flatnonzero(~inside)
    return True, float(times[outside[-1] + 1 if outside.size else 0])


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
    worst = float(max(over, under))
    return worst == 0.0, worst


def monitor_lyapunov(traj, game, *, gains=None, sat_spec=None, P=None, x_star=None):
    """Evaluate the strategy's Lyapunov candidate at every record.

    One call of :func:`nes_sim.dynamics.lyapunov_value` over the record
    matrix. Attaches the series as diagnostic ``V`` and returns
    ``(values, max_increment)`` where the increment is the largest
    positive jump between consecutive records (0.0 for a monotone
    series). A candidate that overflows or turns NaN at some record raises
    ``ValueError`` naming the first such record's time, without a warning,
    and attaches nothing.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = dyn.lyapunov_value(
            traj.layout.tag, game, traj.states, gains=gains, sat_spec=sat_spec, P=P, x_star=x_star
        )
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"Lyapunov candidate is not finite at t={traj.times[bad[0]]:.6g}")
    traj.diagnostics["V"] = values
    increments = np.diff(values)
    return values, float(increments.max(initial=0.0))


def stability_guard(cfg, tag, gains=None, graph=None, game=None):
    """Estimate dt * (fastest mode rate) and warn when it nears instability.

    The tag alone picks the mode, and the tag's gains are required as
    ``make_rhs`` requires them. For a strategy with estimates the fastest
    mode is the estimation flow, rate (theta * theta1) * max(theta_bar) *
    the largest eigenvalue of M1, and ``graph`` is required: that
    eigenvalue is the largest over its pinned blocks
    (:meth:`~nes_sim.graphs.CommGraph.pinned_blocks`), the same for the full
    M1 (x) I_p, and theta_bar is ``gains.theta_bar_vec(graph.n_nodes)``.
    For the others it is the norm of the game's Jacobian at 0, plus
    alpha + beta for the centralized second-order law, and ``game`` is
    required. A missing ingredient raises ``ValueError``. Violation warns
    rather than aborts: saturation often tames the transient.
    """
    tag = dyn.StrategyTag(tag)
    blocks = dyn.STRATEGIES[tag].blocks
    gains = gains if gains is not None else dyn.GainSet()
    gains.require(*dyn.STRATEGIES[tag].gains)
    if "y" in blocks:
        if graph is None:
            raise ValueError(f"stability guard for {tag.value} requires the communication graph")
        tb_max = float(np.max(gains.theta_bar_vec(graph.n_nodes)))
        lam = float(np.linalg.eigvalsh(graph.pinned_blocks()).max())
        rate = gains.estimation_gain("nu" in blocks) * tb_max * lam
    else:
        if game is None:
            raise ValueError(f"stability guard for {tag.value} requires the game")
        rate = float(np.linalg.norm(game.game_jacobian(np.zeros(game.profile_dim)), 2))
        if tag is dyn.StrategyTag.SECOND_ORDER_CENTRAL:
            rate = rate + gains.alpha + gains.beta
    product = cfg.dt * rate
    limit = cfg.guard_limit
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
