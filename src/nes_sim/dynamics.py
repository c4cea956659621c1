"""Saturation, state layouts, and the five seeking-strategy vector fields.

Every strategy is written as a right-hand side over a flat state vector
whose blocks follow the order x | nu | z | y (blocks absent from a layout
are skipped). All vector fields return the pair ``(dstate, u)`` so the
recorder can log and bound-check control inputs without recomputation.

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

from .errors import DimensionMismatchError, LayoutMismatchError
from .games import QuadraticGame
from .graphs import estimation_matrix

__all__ = [
    "SaturationSpec",
    "GainSet",
    "StrategyTag",
    "StrategySpec",
    "STRATEGIES",
    "StateLayout",
    "sat",
    "sat_integral",
    "rhs_gradient_play",
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
        if np.any(lower >= 0.0) or np.any(upper <= 0.0):
            raise ValueError("bounds must satisfy lower < 0 < upper componentwise")
        self.lower = lower
        self.upper = upper

    @classmethod
    def symmetric(cls, u_bar):
        """Bounds ``|u| <= u_bar`` from a positive scalar or vector."""
        u = np.asarray(u_bar, dtype=float)
        if np.any(u <= 0.0):
            raise ValueError("u_bar must be strictly positive")
        return cls(-u, u)

    @property
    def is_symmetric(self):
        return np.array_equal(self.lower, -self.upper)

    def check_size(self, n):
        """Require scalar bounds or bounds of length ``n``."""
        if self.lower.ndim == 0:
            return self
        if self.lower.size != n:
            raise DimensionMismatchError("saturation bounds", n, self.lower.size)
        return self


def sat(v, spec):
    """Componentwise clamp of ``v`` to the spec's bounds.

    For a symmetric spec this equals sign(v) * min(|v|, u_bar) with the
    zero-input case mapping to zero; the clamp realisation is continuous
    and numerically exact at the bounds.
    """
    v = np.asarray(v, dtype=float)
    return np.clip(v, spec.lower, spec.upper)


def sat_integral(g, u_bar):
    """Integral of the symmetric clamp from 0 to ``g``.

    Equals g^2 / 2 inside the bound and u_bar * |g| - u_bar^2 / 2 beyond
    it; even, nonnegative, zero only at zero, and radially unbounded.
    ``g`` may be a scalar or an array (elementwise); ``u_bar`` a positive
    scalar or per-channel array.
    """
    g = np.asarray(g, dtype=float)
    u = np.asarray(u_bar, dtype=float)
    if np.any(u <= 0.0):
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
    """What a strategy's law needs: its state blocks, gains and clamp."""

    blocks: tuple[str, ...]  # in state order, a subsequence of x | nu | z | y
    gains: tuple[str, ...]  # GainSet fields the law reads
    clamped: bool  # the applied control passes through the clamp


# The one table of the five laws. Layouts, config validation, the runner
# and the stability guard all read it; none lists tags of its own.
STRATEGIES = {
    StrategyTag.SAT_GRAD_PLAY: StrategySpec(("x",), (), True),
    StrategyTag.FIRST_ORDER_DIST: StrategySpec(("x", "y"), ("theta",), True),
    StrategyTag.SECOND_ORDER_CENTRAL: StrategySpec(("x", "nu"), ("alpha", "beta"), False),
    StrategyTag.SECOND_ORDER_DIST: StrategySpec(
        ("x", "nu", "z", "y"), ("theta", "theta1", "K"), False
    ),
    StrategyTag.SECOND_ORDER_DIST_SAT: StrategySpec(
        ("x", "nu", "z", "y"), ("theta", "theta1", "K"), True
    ),
}


@dataclass(frozen=True)
class StateLayout:
    """Block structure of a strategy's flat state vector.

    Blocks appear in the order x | nu | z | y, as listed for the tag in
    ``STRATEGIES``; sizes are Np for x, nu, z and N^2 p for the stacked
    estimates y. ``offsets`` maps each present block to its ``(start,
    stop)`` slice bounds.
    """

    tag: StrategyTag
    n_players: int
    action_dim: int
    offsets: dict = field(init=False, repr=False, compare=False)
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
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

    def split(self, state):
        """Views of the state's blocks keyed by block name."""
        state = self.check(state)
        return {name: state[a:b] for name, (a, b) in self.offsets.items()}

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
    """Control gains; fields unused by a strategy are ignored.

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
            if val is not None and np.any(np.asarray(val, dtype=float) <= 0.0):
                raise ValueError(f"gain {name} must be strictly positive")

    def require(self, *names):
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise ValueError(f"missing required gains: {', '.join(missing)}")

    def estimation_gain(self, second_order):
        """Scalar gain of the estimation flow: theta, times theta1 for second order."""
        return self.theta * self.theta1 if second_order else self.theta

    def theta_bar_vec(self, n_players, action_dim):
        """Diagonal of the per-estimate weight matrix, expanded to N^2 p."""
        n2 = n_players * n_players
        tb = np.asarray(self.theta_bar if self.theta_bar is not None else 1.0, dtype=float)
        tb = np.full(n2, float(tb)) if tb.ndim == 0 else tb.ravel()
        if tb.size != n2:
            raise DimensionMismatchError("theta_bar", n2, tb.size)
        return np.repeat(tb, action_dim)

    def k_vec(self, n_players, action_dim):
        """Per-player reference gains expanded to Np channels."""
        k = np.asarray(self.K, dtype=float)
        k = np.full(n_players, float(k)) if k.ndim == 0 else k.ravel()
        if k.size != n_players:
            raise DimensionMismatchError("K", n_players, k.size)
        return np.repeat(k, action_dim)


def rhs_gradient_play(game, state):
    """Plain (unclamped) gradient play; the unsaturated reference flow."""
    layout = StateLayout(StrategyTag.SAT_GRAD_PLAY, game.n_players, game.action_dim)
    x = layout.check(state)
    u = -game.pseudo_gradient(x)
    return u.copy(), u


def make_rhs(tag, game, *, graph=None, gains=None, sat_spec=None, M=None):
    """Bind a strategy's vector field to its game, graph, and gains.

    Returns ``(rhs, layout)`` where ``rhs(state) -> (dstate, u)``. Each
    control law is written once here, unclamped; one wrapper checks the
    state length (``LayoutMismatchError``) and clamps the control rows of
    ``dstate`` in place, so ``u`` is a view of them. For a
    ``QuadraticGame`` every law is affine, since the pseudo-gradient is
    ``H x + c``: it is compiled once, here, to ``A s + b``. Any other game
    evaluates the law on every call. ``M`` is assembled from ``graph``
    unless given; gains and bounds are validated here.
    """
    tag = StrategyTag(tag)
    layout = StateLayout(tag, game.n_players, game.action_dim)
    if layout.has_estimates and M is None:
        if graph is None:
            raise ValueError(f"strategy {tag.value} requires a communication graph")
        M = estimation_matrix(graph, game.action_dim)
    clamped = layout.is_saturated
    if clamped:
        if sat_spec is None:
            raise ValueError(f"strategy {tag.value} requires saturation bounds")
        sat_spec.check_size(layout.action_size)
        lower, upper = sat_spec.lower, sat_spec.upper
    gains = gains if gains is not None else GainSet()
    gains.require(*STRATEGIES[tag].gains)

    n, p, d = game.n_players, game.action_dim, layout.action_size
    if layout.has_estimates:
        coef = -gains.estimation_gain(layout.has_velocity) * gains.theta_bar_vec(n, p)

    if tag is StrategyTag.SAT_GRAD_PLAY:
        def law(s):
            # each action moves against its own gradient; u = dx
            return -game.pseudo_gradient(s)

    elif tag is StrategyTag.SECOND_ORDER_CENTRAL:
        alpha, beta = gains.alpha, gains.beta

        def law(s):
            # full-information damping through the game Jacobian; unbounded u
            x, nu = s[:d], s[d:]
            u = -alpha * game.pseudo_gradient(x) - beta * nu - game.game_jacobian(x) @ nu
            return np.concatenate([nu, u])

    elif tag is StrategyTag.FIRST_ORDER_DIST:
        def law(s):
            # gradient at the local estimates; the estimates contract to tiled x
            x, y = s[:d], s[d:]
            dy = coef * (M @ (y - np.tile(x, n)))
            return np.concatenate([-game.own_gradients_at_estimates(y), dy])

    else:
        # Distributed second order: z descends the gradient at the estimates
        # (gain theta1 * K), the estimates track tiled z, and the double
        # integrator tracks z with the rate zdot substituted algebraically.
        neg_kbar = -(gains.theta1 * gains.k_vec(n, p))

        def law(s):
            x, nu, z, y = s[:d], s[d : 2 * d], s[2 * d : 3 * d], s[3 * d :]
            zdot = neg_kbar * game.own_gradients_at_estimates(y)
            dy = coef * (M @ (y - np.tile(z, n)))
            return np.concatenate([nu, -(x - z) - (nu - zdot), zdot, dy])

    field = law
    if isinstance(game, QuadraticGame):
        # the law is affine: column k of A is law(e_k) - law(0)
        b = law(np.zeros(layout.size))
        A = np.column_stack([law(e) - b for e in np.eye(layout.size)])

        def field(s):
            v = A.dot(s)
            v += b
            return v

    ua, ub = layout.offsets["nu" if layout.has_velocity else "x"]
    check = layout.check

    def rhs(s):
        ds = field(check(s))
        u = ds[ua:ub]
        if clamped:
            np.maximum(u, lower, out=u)
            np.minimum(u, upper, out=u)
        return ds, u

    return rhs, layout


def lyapunov_value(tag, game, state, *, gains=None, sat_spec=None, P=None, x_star=None):
    """Evaluate the stability certificate matching a strategy.

    ``state`` is one flat state, which gives a float, or a stack of them,
    one per row, which gives one value per row; the ingredients are
    checked once either way. The value is a monitored diagnostic, never
    part of any control law. Candidates per strategy:

    - SAT_GRAD_PLAY: sum of clamp integrals of the own-gradient channels.
    - FIRST_ORDER_DIST: the above plus the estimation error's quadratic
      form in ``P`` (from :func:`nes_sim.graphs.solve_lyapunov`).
    - SECOND_ORDER_CENTRAL: ||nu||^2 + ||g||^2 / 2 + nu . g with g the
      stacked pseudo-gradient.
    - SECOND_ORDER_DIST: quadratic forms in the reference error (weighted
      by 1/K), the estimation error (in ``P``), the tracking error, and
      the velocity error; requires the equilibrium ``x_star``.
    - SECOND_ORDER_DIST_SAT: as above with the tracking terms replaced by
      clamp integrals and full weight on the velocity error.

    Raises ``ValueError`` when a required ingredient (P, x_star, symmetric
    bounds) is missing.
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
    if layout.has_estimates and P is None:
        raise ValueError(f"{tag.value} Lyapunov value requires the matrix P")
    if layout.has_reference:
        if x_star is None:
            raise ValueError(f"{tag.value} Lyapunov value requires the equilibrium x_star")
        x_star = np.asarray(x_star, dtype=float).ravel()
        if x_star.size != n:
            raise DimensionMismatchError("x_star", n, x_star.size)
    states = np.asarray(state, dtype=float)
    single = states.ndim < 2
    if single:
        states = layout.check(states)[None]
    elif states.ndim != 2 or states.shape[1] != layout.size:
        raise LayoutMismatchError(
            f"states for {tag.value} must be rows of length {layout.size}, got {states.shape}"
        )
    blocks = {name: states[..., a:b] for name, (a, b) in layout.offsets.items()}
    x, nu, z, y = (blocks.get(name) for name in ("x", "nu", "z", "y"))

    def rows(grad, block):
        # the game's own gradient per row, so generic games need no batched form
        return np.array([grad(r) for r in block]).reshape(len(block), n)

    def dot(a, b):
        return np.sum(a * b, axis=-1)

    def sat_sum(g):
        return np.sum(sat_integral(g, ub), axis=-1)

    if tag is StrategyTag.SAT_GRAD_PLAY:
        v = sat_sum(rows(game.pseudo_gradient, x))

    elif tag is StrategyTag.FIRST_ORDER_DIST:
        e = y - np.tile(x, game.n_players)
        v = sat_sum(rows(game.pseudo_gradient, x)) + dot(e @ P, e)

    elif tag is StrategyTag.SECOND_ORDER_CENTRAL:
        g = rows(game.pseudo_gradient, x)
        v = dot(nu, nu) + 0.5 * dot(g, g) + dot(nu, g)

    else:
        k = gains.k_vec(game.n_players, game.action_dim)
        zdot = -(gains.theta1 * k) * rows(game.own_gradients_at_estimates, y)
        ez = z - x_star
        ee = y - np.tile(z, game.n_players)
        ev = nu - zdot
        base = 0.5 * dot(ez, ez / k) + dot(ee @ P, ee)
        if tag is StrategyTag.SECOND_ORDER_DIST:
            et = x - z
            v = base + 0.5 * dot(et, et) + 0.5 * dot(ev, ev)
        else:
            v = base + dot(ev, ev) + sat_sum(x - z) + sat_sum(x - z + ev)

    return float(v[0]) if single else v
