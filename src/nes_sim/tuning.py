"""Sufficient-condition gain bounds for the seeking strategies.

Every bound is derived from four kinds of constants: the strong
monotonicity constant m of the pseudo-gradient, the per-player Lipschitz
constants of the own-gradients, spectral norms of the stacked Jacobian
and of the Lyapunov matrix P, and the smallest eigenvalue of the chosen
Q. All matrix norms here are spectral norms (they act as operator bounds
on Euclidean vectors). The bounds are sufficient, not tight: exceeding a
theta_star (or staying below an alpha_star/theta1_star) guarantees
convergence, but smaller/larger gains may still work.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .dynamics import StrategyTag
from .errors import NotStronglyMonotoneError
from .graphs import estimation_matrix

__all__ = [
    "TunerReport",
    "lipschitz_constants",
    "theta_star_first_order",
    "alpha_beta_star",
    "theta_bounds_second_order",
    "gain_report",
]


@dataclass
class TunerReport:
    """All constants feeding a gain bound, plus the bound itself.

    Fields unused by a strategy stay ``None``. ``caveats`` carries
    human-readable warnings (e.g. when a reported value is only a
    starting heuristic rather than a sufficient bound).
    """

    strategy: StrategyTag
    m: float
    l1: float | None = None
    l2: float | None = None
    l3: float | None = None
    l4: float | None = None
    eps1: float | None = None
    eps2: float | None = None
    lambda_min_q: float | None = None
    lambda_min_a1: float | None = None
    theta_star: float | None = None
    theta1_star: float | None = None
    alpha_star: float | None = None
    beta_star: float | None = None
    lbar: np.ndarray | None = None
    eps1_window: tuple[float, float] | None = None
    caveats: tuple[str, ...] = field(default_factory=tuple)

    def as_dict(self):
        """Flat key/value view in field order, None entries dropped (for printing)."""
        out = {}
        for f in fields(self):
            val = getattr(self, f.name)
            if val is None or (f.name == "caveats" and not val):
                continue
            if f.name == "strategy":
                out[f.name] = val.value
            elif f.name == "lbar":
                out[f.name] = [float(v) for v in val]
            elif f.name == "eps1_window":
                out["eps1_window_low"], out["eps1_window_high"] = map(float, val)
            elif f.name == "caveats":
                out[f.name] = "; ".join(val)
            else:
                out[f.name] = float(val)
        return out


def _certified_m(game, m_override=None):
    m = game.monotonicity_constant() if m_override is None else float(m_override)
    if m <= 0.0:
        raise NotStronglyMonotoneError(
            "pseudo-gradient is not strongly monotone (m <= 0); gain bounds are undefined"
        )
    return m


def lipschitz_constants(game):
    """Per-player Lipschitz constants of the own-gradients.

    For a quadratic game these are exact: the spectral norm of each
    player's block-row of the constant stacked Jacobian. Other games have
    no constant Jacobian and raise ``NotStronglyMonotoneError``.
    """
    H = game.jacobian_matrix
    p = game.action_dim
    return np.array(
        [np.linalg.norm(H[i * p : (i + 1) * p, :], 2) for i in range(game.n_players)]
    )


def theta_star_first_order(game, graph, lyap, theta=None, *, lbar=None, m=None, sup_h_norm=None):
    """Sufficient consensus-gain bound for the distributed first-order strategy.

    The free constants eps1, eps2 in the underlying estimate are fixed
    deterministically to 2*l1/m and 2*l3/m, which leaves slack m/2 in the
    gradient-direction decrease. Any theta above the returned
    ``theta_star`` guarantees global convergence.

    Pass ``theta`` to additionally report the decrease margin l4 at that
    gain. Non-quadratic games must supply ``lbar``, ``m`` and
    ``sup_h_norm`` explicitly.
    """
    m = _certified_m(game, m)
    lbar = np.asarray(lbar, dtype=float) if lbar is not None else lipschitz_constants(game)
    if sup_h_norm is None:
        sup_h_norm = float(np.linalg.norm(game.jacobian_matrix, 2))
    n = game.n_players
    p_norm = lyap.p_norm
    lam_q = lyap.lambda_min_q

    l1 = sup_h_norm * float(lbar.max())
    l2 = 2.0 * p_norm * np.sqrt(n) * float(lbar.max())
    l3 = 2.0 * p_norm * np.sqrt(n)
    eps1 = 2.0 * l1 / m
    eps2 = 2.0 * l3 / m
    theta_star = (2.0 * l2 + l1 * eps1 + l3 * eps2) / (2.0 * lam_q)

    l4 = None
    if theta is not None:
        slack_grad = m - l1 / (2.0 * eps1) - l3 / (2.0 * eps2)
        slack_est = lam_q * theta - l2 - l1 * eps1 / 2.0 - l3 * eps2 / 2.0
        l4 = float(min(slack_grad, slack_est))

    return TunerReport(
        strategy=StrategyTag.FIRST_ORDER_DIST,
        m=m,
        lbar=lbar,
        l1=l1,
        l2=l2,
        l3=l3,
        l4=l4,
        eps1=eps1,
        eps2=eps2,
        lambda_min_q=lam_q,
        theta_star=float(theta_star),
    )


def alpha_beta_star(game, alpha=None, beta=None, *, m=None):
    """Gain windows for the centralized second-order strategy.

    ``alpha_star`` equals the monotonicity constant m; for a chosen
    ``alpha`` strictly below it, ``beta_star = 2*alpha + 2*sqrt(alpha*m)``
    bounds the damping gain. When ``beta`` is given, the report includes
    the feasibility window for the free constant eps1; an empty window
    means the pair (alpha, beta) falls outside the sufficient region.
    """
    m = _certified_m(game, m)
    alpha = m / 2.0 if alpha is None else float(alpha)
    if alpha >= m:
        raise ValueError(
            f"alpha must lie strictly below the strong-monotonicity constant m={m:.6g}"
        )
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    beta_star = 2.0 * alpha + 2.0 * np.sqrt(alpha * m)

    window = None
    caveats = ()
    if beta is not None:
        beta = float(beta)
        lo = (2.0 * alpha + beta) / (2.0 * (2.0 * beta + m))
        hi = 2.0 * alpha / (2.0 * alpha + beta)
        window = (float(lo), float(hi))
        if lo >= hi:
            caveats = ("eps1 window is empty: beta lies outside the sufficient range",)

    return TunerReport(
        strategy=StrategyTag.SECOND_ORDER_CENTRAL,
        m=m,
        alpha_star=float(m),
        beta_star=float(beta_star),
        eps1_window=window,
        caveats=caveats,
    )


def _lambda_min_2x2(a, b, d):
    # symmetric [[a, b], [b, d]]: det / lambda_max, which does not cancel when d >> a
    return (a * d - b * b) / (0.5 * ((a + d) + np.hypot(a - d, 2.0 * b)))


def theta_bounds_second_order(
    game,
    graph,
    lyap,
    gains,
    *,
    saturated=False,
    theta=None,
    lbar=None,
    m=None,
):
    """Gain bounds for the distributed second-order strategies.

    Computes ``theta_star`` (the consensus-gain floor, the same for both
    laws) and, when a ``theta`` above it is supplied, the reference-gain
    ceiling ``theta1_star``. For the saturated strategy ``theta1_star``
    is only a starting heuristic: the true sufficient value depends on
    the initial errors and is flagged in ``caveats``.

    ``gains`` must carry the per-player reference gains K and the
    per-estimate weights theta_bar.
    """
    m = _certified_m(game, m)
    lbar = np.asarray(lbar, dtype=float) if lbar is not None else lipschitz_constants(game)
    gains.require("K")
    n = game.n_players
    k = gains.k_vec(n, 1)  # per-player values suffice for the norms below
    p_norm = lyap.p_norm
    lam_q = lyap.lambda_min_q

    k_lbar_max = float(np.max(k * lbar))
    l1 = float(lbar.max()) + 2.0 * p_norm * n * k_lbar_max
    l2 = 2.0 * p_norm * np.sqrt(n) * k_lbar_max
    # block-diagonal estimate Jacobian: spectral norm is the largest
    # per-player Lipschitz constant (exact for quadratic games)
    sup_hbar = float(lbar.max())
    # Tb M = (Tb1 M1) (x) I_p has the spectral norm of Tb1 M1, the p = 1 matrices
    tb_m1 = gains.theta_bar_vec(n)[:, None] * estimation_matrix(graph, 1)
    l3 = float(np.max(k)) * sup_hbar * float(np.linalg.norm(tb_m1, 2))

    theta_star = l1 * l1 / (4.0 * m * lam_q) + l2 / lam_q

    theta1_star = None
    lambda_min_a1 = None
    caveats = []
    if theta is not None:
        theta = float(theta)
        if theta <= theta_star:
            raise ValueError(
                f"requested theta does not exceed theta_star (theta={theta:.12g}, "
                f"theta_star={theta_star:.12g}); the decrease matrix A1 is not "
                "positive definite"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            lambda_min_a1 = _lambda_min_2x2(m, -l1 / 2.0, lam_q * theta - l2)
            theta1_star = (4.0 * lambda_min_a1 / (theta * theta * l3 * l3)) ** (1.0 / 3.0)
        if not np.isfinite([lambda_min_a1, theta1_star]).all():
            raise ValueError(f"theta={theta:.12g} gives a non-finite lambda_min(A1) or theta1_star")
        if not min(lambda_min_a1, theta1_star) > 0.0:  # e.g. theta * theta overflows
            raise ValueError(f"theta={theta:.12g} gives a zero lambda_min(A1) or theta1_star")
        if saturated:
            caveats.append(
                "theta1_star is a starting heuristic only: the sufficient value "
                "for the saturated law depends on the initial errors and is not "
                "explicitly computable"
            )

    tag = StrategyTag.SECOND_ORDER_DIST_SAT if saturated else StrategyTag.SECOND_ORDER_DIST
    return TunerReport(
        strategy=tag,
        m=m,
        lbar=lbar,
        l1=float(l1),
        l2=float(l2),
        l3=float(l3),
        lambda_min_q=lam_q,
        lambda_min_a1=lambda_min_a1,
        theta_star=float(theta_star),
        theta1_star=theta1_star,
        caveats=tuple(caveats),
    )


def gain_report(cfg, lyap=None):
    """Gain bounds for a parsed experiment config, honouring its overrides.

    Chooses the bound that matches ``cfg.tag`` and feeds it the
    ``tuner_overrides`` (``lipschitz_constants``, ``monotonicity_m``,
    ``sup_jacobian_norm``) and the configured gains. The distributed
    strategies need ``lyap``, the Lyapunov pair of the config's
    estimation matrix; without it they raise ``ValueError``.
    """
    game, gains, tag = cfg.game, cfg.gains, cfg.tag
    overrides = cfg.tuner_overrides
    lbar = overrides.get("lipschitz_constants")
    m = overrides.get("monotonicity_m")
    if tag is StrategyTag.SECOND_ORDER_CENTRAL:
        return alpha_beta_star(game, alpha=gains.alpha, beta=gains.beta, m=m)
    if tag is StrategyTag.SAT_GRAD_PLAY:
        return TunerReport(
            strategy=tag,
            m=_certified_m(game, m),
            lbar=np.asarray(lbar, dtype=float) if lbar is not None else lipschitz_constants(game),
            caveats=("saturated gradient play has no gain condition beyond m > 0",),
        )
    if lyap is None:
        raise ValueError(f"{tag.value} gain bounds need the Lyapunov pair of the estimation matrix")
    if tag is StrategyTag.FIRST_ORDER_DIST:
        return theta_star_first_order(
            game,
            cfg.graph,
            lyap,
            theta=gains.theta,
            lbar=lbar,
            m=m,
            sup_h_norm=overrides.get("sup_jacobian_norm"),
        )
    return theta_bounds_second_order(
        game,
        cfg.graph,
        lyap,
        gains,
        saturated=tag is StrategyTag.SECOND_ORDER_DIST_SAT,
        theta=gains.theta,
        lbar=lbar,
        m=m,
    )
