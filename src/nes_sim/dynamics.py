"""Saturation, state layouts, and the five seeking-strategy vector fields.

Every strategy is written as a right-hand side over a flat state vector
whose blocks follow the order x | nu | z | y (blocks absent from a layout
are skipped). Every player is an integrator chain (xdot = u, or xdot = nu
and nudot = u), so the applied control is the derivative's x or nu rows,
``StateLayout.control``. A vector field ``rhs(state, out)`` writes the
derivative into ``out`` (the integrator's stage row) and returns it; the
recorder reads the control from ``out[layout.control]``. A field is built
in three stages: :func:`strategy_law` binds the unclamped law,
:func:`compile_affine` compiles an affine law to ``A s + b``, and
:func:`make_rhs` joins them and clamps.

Strategies
----------
SAT_GRAD_PLAY
    First-order agents, each moving against the clamp of its own partial
    gradient evaluated at the true joint action. Requires full action
    information.
FIRST_ORDER_DIST
    First-order agents with consensus-maintained local estimates y_i of
    the joint action; each agent clamps the gradient at its own estimate.
SECOND_ORDER_CENTRAL
    Double-integrator agents under full-information damping through the
    stacked game Jacobian. The control law is unbounded by design.
SECOND_ORDER_DIST
    Double-integrator agents tracking an auxiliary reference z driven by
    gradient descent at consensus estimates; unbounded control.
SECOND_ORDER_DIST_SAT
    Same as SECOND_ORDER_DIST with the tracking control clamped, so the
    applied input respects the actuator bounds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np
from numpy._core.umath import clip

from .errors import DimensionMismatchError, LayoutMismatchError
from .games import QuadraticGame

__all__ = [
    "SaturationSpec",
    "GainSet",
    "StrategyTag",
    "StrategySpec",
    "STRATEGIES",
    "StateLayout",
    "sat",
    "sat_integral",
    "strategy_law",
    "compile_affine",
    "make_rhs",
    "lyapunov_value",
]


class SaturationSpec:
    """Per-channel actuator bounds ``lower <= u <= upper``.

    ``lower`` must be strictly negative and ``upper`` strictly positive in
    every channel. Scalars broadcast over whatever they are applied to.

    Use :meth:`symmetric` for the common ``|u| <= u_bar`` case.
    """

    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.shape != upper.shape:
            raise ValueError("lower and upper bounds must have matching shapes")
        if not (lower < 0.0).all() or not (upper > 0.0).all():
            raise ValueError("bounds must satisfy lower < 0 < upper componentwise")
        self.lower = lower
        self.upper = upper

    @classmethod
    def symmetric(cls, u_bar):
        """Bounds ``|u| <= u_bar`` from a positive scalar or vector."""
        u = np.asarray(u_bar, dtype=float)
        if not (u > 0.0).all():
            raise ValueError("u_bar must be strictly positive")
        return cls(-u, u)

    @property
    def is_symmetric(self):
        return np.array_equal(self.lower, -self.upper)

    def check_size(self, n):
        """Require scalar bounds or bounds of shape ``(n,)``."""
        if self.lower.ndim and self.lower.shape != (n,):
            raise DimensionMismatchError("saturation bounds", n, f"shape {self.lower.shape}")
        return self


def sat(v, spec):
    """Componentwise clamp of ``v`` to the spec's bounds.

    For a symmetric spec this equals sign(v) * min(|v|, u_bar) with the
    zero-input case mapping to zero; the clamp realisation is continuous
    and numerically exact at the bounds.
    """
    return clip(np.asarray(v, dtype=float), spec.lower, spec.upper)


def sat_integral(g, u_bar):
    """Integral of the symmetric clamp from 0 to ``g``.

    Equals g^2 / 2 inside the bound and u_bar * |g| - u_bar^2 / 2 beyond
    it; even, nonnegative, zero only at zero, and radially unbounded.
    ``g`` may be a scalar or an array (elementwise); ``u_bar`` a positive
    scalar or per-channel array.
    """
    g = np.asarray(g, dtype=float)
    u = np.asarray(u_bar, dtype=float)
    if not (u > 0.0).all():
        raise ValueError("u_bar must be strictly positive")
    a = np.abs(g)
    out = np.where(a <= u, 0.5 * g * g, u * a - 0.5 * u * u)
    return float(out) if out.ndim == 0 else out


class StrategyTag(str, Enum):
    SAT_GRAD_PLAY = "sat_grad_play"
    FIRST_ORDER_DIST = "first_order_dist"
    SECOND_ORDER_CENTRAL = "second_order_central"
    SECOND_ORDER_DIST = "second_order_dist"
    SECOND_ORDER_DIST_SAT = "second_order_dist_sat"


class StrategySpec(NamedTuple):
    """What a strategy's law needs: its state blocks, gains and clamp, and
    the tuner overrides its gain bound reads."""

    blocks: tuple[str, ...]  # in state order, a subsequence of x | nu | z | y
    gains: tuple[str, ...]  # GainSet fields the law requires
    clamped: bool  # the applied control passes through the clamp
    overrides: tuple[str, ...]  # tuner_overrides keys its gain bound reads


# The one table of the five laws. Layouts, config validation, the runner
# and the stability guard all read it; none lists tags of its own.
_M, _LBAR, _SUP = "monotonicity_m", "lipschitz_constants", "sup_jacobian_norm"
_DIST_SECOND_ORDER = ("x", "nu", "z", "y"), ("theta", "theta1", "K")  # blocks and gains
STRATEGIES = {
    StrategyTag.SAT_GRAD_PLAY: StrategySpec(("x",), (), True, (_M, _LBAR)),
    StrategyTag.FIRST_ORDER_DIST: StrategySpec(("x", "y"), ("theta",), True, (_M, _LBAR, _SUP)),
    StrategyTag.SECOND_ORDER_CENTRAL: StrategySpec(("x", "nu"), ("alpha", "beta"), False, (_M,)),
    StrategyTag.SECOND_ORDER_DIST: StrategySpec(*_DIST_SECOND_ORDER, False, (_M, _LBAR)),
    StrategyTag.SECOND_ORDER_DIST_SAT: StrategySpec(*_DIST_SECOND_ORDER, True, (_M, _LBAR)),
}


@dataclass(frozen=True)
class StateLayout:
    """Block structure of a strategy's flat state vector.

    Blocks appear in the order x | nu | z | y, as listed for the tag in
    ``STRATEGIES``; sizes are Np for x, nu, z and N^2 p for the stacked
    estimates y. ``offsets`` maps each present block to its ``(start,
    stop)`` slice bounds. A layout with estimates needs N >= 2, or it
    raises ``ValueError``: no neighbour would ever pin a lone player's
    estimate of itself.
    """

    tag: StrategyTag
    n_players: int
    action_dim: int
    offsets: dict = field(init=False, repr=False, compare=False)
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if "y" in STRATEGIES[self.tag].blocks and self.n_players < 2:
            raise ValueError(
                f"{self.tag.value} shares estimates between players and needs "
                f"at least 2; the game has {self.n_players}"
            )
        d = self.n_players * self.action_dim
        offsets, pos = {}, 0
        for name in STRATEGIES[self.tag].blocks:
            width = d * self.n_players if name == "y" else d
            offsets[name] = (pos, pos + width)
            pos += width
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "size", pos)

    @property
    def action_size(self):
        return self.n_players * self.action_dim

    @property
    def has_velocity(self):
        return "nu" in self.offsets

    @property
    def control(self):
        """Slice of the derivative that is the applied control: nu rows, else x rows."""
        return slice(*self.offsets["nu" if self.has_velocity else "x"])

    @property
    def has_reference(self):
        return "z" in self.offsets

    @property
    def has_estimates(self):
        return "y" in self.offsets

    @property
    def is_saturated(self):
        return STRATEGIES[self.tag].clamped

    def check(self, state):
        state = np.asarray(state, dtype=float).ravel()
        if state.size != self.size:
            raise LayoutMismatchError(
                f"state for {self.tag.value} must have length {self.size}, got {state.size}"
            )
        return state

    def estimate_error(self, states):
        """y - 1_N (x) target for one state or a ``(B, size)`` stack of them.

        The target is the reference z when the layout has one, else x. The
        consensus term of the vector field, the Lyapunov candidate and the
        ``est_err`` diagnostic all read this one error.
        """
        if not self.has_estimates:
            raise ValueError("layout has no estimate block")
        a, b = self.offsets["z" if self.has_reference else "x"]
        lo, hi = self.offsets["y"]
        return states[..., lo:hi] - np.tile(states[..., a:b], self.n_players)

    def pack(self, x=None, nu=None, z=None, y=None):
        """Assemble a flat state; omitted blocks default to zeros."""
        given = {"x": x, "nu": nu, "z": z, "y": y}
        out = np.zeros(self.size)
        for name, val in given.items():
            if val is None:
                continue
            if name not in self.offsets:
                raise LayoutMismatchError(f"layout {self.tag.value} has no block '{name}'")
            a, b = self.offsets[name]
            val = np.asarray(val, dtype=float).ravel()
            if val.size != b - a:
                raise DimensionMismatchError(f"block {name}", b - a, val.size)
            out[a:b] = val
        return out

    def block_name(self, index):
        """Human-readable name of the block holding flat index ``index``."""
        for name, (a, b) in self.offsets.items():
            if a <= index < b:
                return f"{name}[{index - a}]"
        raise IndexError(index)


@dataclass
class GainSet:
    """Control gains. A set built in code may carry fields its strategy's
    law does not read, which are ignored; a configuration document may set
    only the gains its tag reads (:func:`nes_sim.config.parse_config`).

    ``theta_bar`` may be a scalar or a length-N^2 vector ordered like the
    stacked estimates (owner-major); ``K`` a scalar or length-N vector of
    per-player reference gains. The distributed first-order strategy uses
    the per-estimate gains theta * theta_bar; the distributed second-order
    strategies use theta * theta1 * theta_bar and reference gains
    theta1 * K.
    """

    theta: float | None = None
    theta1: float | None = None
    theta_bar: float | np.ndarray | None = None
    K: float | np.ndarray | None = None
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        for name in ("theta", "theta1", "alpha", "beta"):
            val = getattr(self, name)
            if val is not None and not float(val) > 0.0:
                raise ValueError(f"gain {name} must be strictly positive")
        for name in ("theta_bar", "K"):
            val = getattr(self, name)
            if val is not None and not (np.asarray(val, dtype=float) > 0.0).all():
                raise ValueError(f"gain {name} must be strictly positive")

    def require(self, *names):
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise ValueError(f"missing required gains: {', '.join(missing)}")

    def estimation_gain(self, second_order):
        """Scalar gain of the estimation flow: theta, times theta1 for second order."""
        return self.theta * self.theta1 if second_order else self.theta

    def theta_bar_vec(self, n_players):
        """Diagonal of the per-estimate weight matrix: N^2 weights, each shared by p channels."""
        tb = 1.0 if self.theta_bar is None else self.theta_bar
        return _broadcast("theta_bar", tb, n_players * n_players)

    def k_vec(self, n_players, action_dim):
        """Per-player reference gains expanded to Np channels."""
        return np.repeat(_broadcast("K", self.K, n_players), action_dim)

    def reference_rate_gain(self, n_players, action_dim):
        """-theta1 K over Np channels; times the own-gradients at the estimates
        it is the reference rate zdot."""
        return -(self.theta1 * self.k_vec(n_players, action_dim))


def _broadcast(name, value, n):
    """A scalar gain as ``n`` equal floats, or a vector gain of ``n`` entries, flat."""
    v = np.asarray(value, dtype=float)
    v = np.full(n, float(v)) if v.ndim == 0 else v.ravel()
    if v.size != n:
        raise DimensionMismatchError(name, n, v.size)
    return v


def _per_channel(m, v):
    """kron(m, I_q) @ v for a vector or a stack of rows, as one tensordot on the
    (..., k, q) view of ``v``, one column per channel; the result keeps that view."""
    w = v.reshape(*v.shape[:-1], m.shape[0], -1)
    return np.moveaxis(np.tensordot(m, w, axes=(1, -2)), 0, -2)


def strategy_law(tag, game, *, graph=None, gains=None):
    """Bind a strategy's control law, unclamped, to its game, graph and gains.

    Returns ``(law, layout)``. ``law`` takes one flat state or a ``(B,
    size)`` stack of them, one per row, and gives the derivative of each
    with the control rows (``layout.control``) unclamped; it does not
    check the state's length. Each of the five laws is written once here.
    The tag's gains are required, and a law with estimates requires a
    graph (connected, as every ``CommGraph`` is) of one node per player;
    its layout refuses fewer than two players.
    The consensus laws apply M = M1 (x) I_p, with M1 the per-channel
    :func:`~nes_sim.graphs.estimation_matrix`, as the graph's pinned blocks
    (:meth:`~nes_sim.graphs.CommGraph.pinned_blocks`): each player's
    estimates, one per owner, contract through its own block.
    """
    tag = StrategyTag(tag)
    layout = StateLayout(tag, game.n_players, game.action_dim)
    gains = gains if gains is not None else GainSet()
    gains.require(*STRATEGIES[tag].gains)

    n, p, d = game.n_players, game.action_dim, layout.action_size
    if layout.has_estimates:
        if graph is None:
            raise ValueError(f"strategy {tag.value} requires a communication graph")
        if graph.n_nodes != n:
            raise DimensionMismatchError("graph nodes, one per player", n, graph.n_nodes)
        blocks = graph.pinned_blocks()
        # one gain per estimate, at (player j, owner i) so that it scales every column
        tb = gains.theta_bar_vec(n).reshape(n, n).T[:, :, None]
        coef = -gains.estimation_gain(layout.has_velocity) * tb

        def consensus(s):
            # owner i's estimate of player j, moved to (j, i, state, channel): each
            # player's estimates contract to the tiled target through its pinned
            # block, one product per block over every state and channel, which
            # sums each estimate's terms in the dense M's order
            v = layout.estimate_error(s).reshape(-1, n, n, p).transpose(2, 1, 0, 3)
            w = coef * (blocks @ v.reshape(n, n, -1))
            return w.reshape(v.shape).transpose(2, 1, 0, 3).reshape(*s.shape[:-1], -1)

    # Each law takes one state or a stack of them, one per row, so matrix
    # products are written (H @ v.T).T, which is H @ v for one state.
    if tag is StrategyTag.SAT_GRAD_PLAY:
        def law(s):
            # each action moves against its own gradient; u = dx
            return -game.pseudo_gradient(s)

    elif tag is StrategyTag.SECOND_ORDER_CENTRAL:
        alpha, beta = gains.alpha, gains.beta

        def law(s):
            # full-information damping through the game Jacobian; unbounded u
            x, nu = s[..., :d], s[..., d:]
            u = -alpha * game.pseudo_gradient(x) - beta * nu - (game.game_jacobian(x) @ nu.T).T
            return np.concatenate([nu, u], axis=-1)

    elif tag is StrategyTag.FIRST_ORDER_DIST:
        def law(s):
            # gradient at the local estimates; the estimates contract to tiled x
            grad = game.own_gradients_at_estimates(s[..., d:])
            return np.concatenate([-grad, consensus(s)], axis=-1)

    else:
        # Distributed second order: z descends the gradient at the estimates
        # (gain theta1 * K), the estimates track tiled z, and the double
        # integrator tracks z with the rate zdot substituted algebraically.
        rate_gain = gains.reference_rate_gain(n, p)

        def law(s):
            x, nu, z, y = s[..., :d], s[..., d : 2 * d], s[..., 2 * d : 3 * d], s[..., 3 * d :]
            zdot = rate_gain * game.own_gradients_at_estimates(y)
            return np.concatenate([nu, -(x - z) - (nu - zdot), zdot, consensus(s)], axis=-1)

    return law, layout


def compile_affine(law, size):
    """Compile an affine law of ``size``-float states to ``(A, b)``, law(s) = A s + b.

    ``b = law(0)``, and row k of ``law(I)`` is ``law(e_k)``, so ``A = (law(I)
    - b).T``: two law calls, whatever the size. ``A`` is C-contiguous and
    starts on a 64-byte boundary.
    """
    b = law(np.zeros(size))
    # left to the allocator, A's place depends on what set-up allocated
    # before, and a misaligned A slowed the step loop by about 10 %
    buf = np.empty(size * size + 8)
    A = buf[(-buf.ctypes.data % 64) // 8 :][: size * size].reshape(size, size)
    A[...] = (law(np.eye(size)) - b).T
    return A, b


def make_rhs(tag, game, *, graph=None, gains=None, sat_spec=None):
    """Bind a strategy's vector field to its game, graph, and gains.

    Returns ``(rhs, layout)``. ``rhs(state, out)`` writes the derivative
    into ``out`` (``layout.size`` floats, not overlapping the state) and
    returns it; every player is an integrator chain, so the applied control
    is ``out[layout.control]``. The field is :func:`strategy_law`'s law
    with, for a clamped strategy, the whole row clamped in place by one
    call of numpy's ``clip`` ufunc (the clamp ``sat`` uses, bitwise equal
    to ``maximum`` with the lower bound then ``minimum`` with the upper)
    against bounds built once here: the saturation bounds on the control
    rows and -inf/+inf on every other row, which the clip returns bit for
    bit, NaN payloads and signed zeros included.
    A ``QuadraticGame`` law is affine (the pseudo-gradient is ``H x + c``),
    so it is compiled once by :func:`compile_affine` and each call computes
    ``A s + b``. Other games evaluate the law per call, which checks the
    state's length (``LayoutMismatchError``); the compiled product refuses
    a wrong length (``ValueError``), and the compiled field does not test
    the game per call. :func:`strategy_law`'s refusals come first; then a
    clamped strategy requires saturation bounds of one scalar or one
    entry per action channel.
    """
    law, layout = strategy_law(tag, game, graph=graph, gains=gains)
    clamped = layout.is_saturated
    if clamped:
        if sat_spec is None:
            raise ValueError(f"strategy {layout.tag.value} requires saturation bounds")
        sat_spec.check_size(layout.action_size)
        lower, upper = np.outer((-np.inf, np.inf), np.ones(layout.size))
        lower[layout.control], upper[layout.control] = sat_spec.lower, sat_spec.upper
    check, size = layout.check, layout.size

    if not isinstance(game, QuadraticGame):

        def rhs(s, out):
            out[:] = law(check(s))
            if clamped:
                clip(out, lower, upper, out)
            return out

        return rhs, layout

    A, b = compile_affine(law, size)
    matvec, add = A.dot, np.add

    def rhs(s, out):
        matvec(s, out)
        add(out, b, out)
        if clamped:
            clip(out, lower, upper, out)
        return out

    return rhs, layout


def lyapunov_value(tag, game, state, *, gains=None, sat_spec=None, P=None, x_star=None):
    """Evaluate the stability certificate matching a strategy.

    ``state`` is one flat state, which gives a float, or a ``(B, size)``
    stack of them, one per row, which gives one value per row; both take
    the same path, and any other shape raises ``LayoutMismatchError``.
    The value is a monitored diagnostic, never part of any control law.
    Candidates per strategy:

    - SAT_GRAD_PLAY: sum of clamp integrals of the own-gradient channels.
    - FIRST_ORDER_DIST: the above plus the estimation error's quadratic
      form in ``P`` (from :func:`nes_sim.graphs.solve_lyapunov`): N^2 x N^2
      per action channel, or the full N^2 p x N^2 p matrix.
    - SECOND_ORDER_CENTRAL: ||nu||^2 + ||g||^2 / 2 + nu . g with g the
      stacked pseudo-gradient.
    - SECOND_ORDER_DIST: quadratic forms in the reference error (weighted
      by 1/K), the estimation error (in ``P``), the tracking error, and
      the velocity error; requires the equilibrium ``x_star``.
    - SECOND_ORDER_DIST_SAT: as above with the tracking terms replaced by
      clamp integrals and full weight on the velocity error.

    Raises ``ValueError`` when a required ingredient (P, x_star, the gains
    theta1 and K, symmetric bounds) is missing.
    """
    tag = StrategyTag(tag)
    layout = StateLayout(tag, game.n_players, game.action_dim)
    n = layout.action_size
    if layout.is_saturated:
        if sat_spec is None:
            raise ValueError("saturation bounds are required for this Lyapunov candidate")
        sat_spec.check_size(n)
        if not sat_spec.is_symmetric:
            raise ValueError("Lyapunov candidates are defined for symmetric bounds only")
        ub = np.broadcast_to(sat_spec.upper, (n,))
    if layout.has_estimates:
        if P is None:
            raise ValueError(f"{tag.value} Lyapunov value requires the matrix P")
        n2 = game.n_players**2
        if np.shape(P) not in ((n2, n2), (n2 * game.action_dim,) * 2):
            raise DimensionMismatchError("P rows", n2 * game.action_dim, np.shape(P)[0])
    if layout.has_reference:
        if x_star is None:
            raise ValueError(f"{tag.value} Lyapunov value requires the equilibrium x_star")
        x_star = np.asarray(x_star, dtype=float).ravel()
        if x_star.size != n:
            raise DimensionMismatchError("x_star", n, x_star.size)
        gains = gains if gains is not None else GainSet()
        gains.require("theta1", "K")
    states = np.asarray(state, dtype=float)
    if states.ndim not in (1, 2) or states.shape[-1] != layout.size:
        raise LayoutMismatchError(
            f"states for {tag.value} must be one state or rows of length {layout.size}, "
            f"got shape {states.shape}"
        )
    blocks = {name: states[..., a:b] for name, (a, b) in layout.offsets.items()}
    x, nu, z, y = (blocks.get(name) for name in ("x", "nu", "z", "y"))

    def dot(a, b):
        return np.sum(a * b, axis=-1)

    def quad(e):
        # e . (P (x) I) e, with P per channel or full size
        return dot(_per_channel(P, e).reshape(e.shape), e)

    def sat_sum(g):
        return np.sum(sat_integral(g, ub), axis=-1)

    if tag is StrategyTag.SAT_GRAD_PLAY:
        v = sat_sum(game.pseudo_gradient(x))

    elif tag is StrategyTag.FIRST_ORDER_DIST:
        v = sat_sum(game.pseudo_gradient(x)) + quad(layout.estimate_error(states))

    elif tag is StrategyTag.SECOND_ORDER_CENTRAL:
        g = game.pseudo_gradient(x)
        v = dot(nu, nu) + 0.5 * dot(g, g) + dot(nu, g)

    else:
        shape = game.n_players, game.action_dim
        k = gains.k_vec(*shape)
        zdot = gains.reference_rate_gain(*shape) * game.own_gradients_at_estimates(y)
        ez = z - x_star
        ev = nu - zdot
        base = 0.5 * dot(ez, ez / k) + quad(layout.estimate_error(states))
        if tag is StrategyTag.SECOND_ORDER_DIST:
            et = x - z
            v = base + 0.5 * dot(et, et) + 0.5 * dot(ev, ev)
        else:
            v = base + dot(ev, ev) + sat_sum(x - z) + sat_sum(x - z + ev)

    return float(v) if states.ndim == 1 else v
