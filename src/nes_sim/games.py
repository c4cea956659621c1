"""Game definitions: pseudo-gradients, their Jacobians, and equilibrium tools.

Action profiles are stacked player-major: with N players each acting in
R^p, the profile vector is [x_1; x_2; ...; x_N] of length N*p. Every other
module (graphs, dynamics, tuning) follows the same stacking, including all
Kronecker constructions.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NotStronglyMonotoneError, positive_int

__all__ = [
    "GameDefinition",
    "QuadraticGame",
    "random_strongly_monotone_game",
]


class GameDefinition:
    """An N-player game over unconstrained actions in R^p per player.

    A game is what the seeking laws read of it: its stacked pseudo-gradient
    (every player's partial gradient of its own cost with respect to its own
    action block) and, for the centralized second-order law and the
    stability guard, that map's Jacobian. The certification questions of
    the gain bounds and the equilibrium oracle (``jacobian_matrix``,
    ``monotonicity_constant()``, ``exact_ne()``) raise
    :class:`NotStronglyMonotoneError` here; :class:`QuadraticGame` answers them.

    Parameters
    ----------
    n_players : int
        Number of players N, a positive integer.
    action_dim : int
        Dimension p of each player's action, a positive integer.
    pseudo_gradient : callable
        Maps a ``(B, Np)`` stack of profiles to the ``(B, Np)`` stack of
        their pseudo-gradients, one row per profile.
    jacobian : callable
        ``jacobian(x)`` returns the (Np, Np) Jacobian of the pseudo-gradient
        at the profile ``x``: its (i, j) block is the derivative of player
        i's own gradient with respect to block j. ``game_jacobian`` hands a
        stack of profiles over as it is, which only a constant Jacobian can
        serve; the vector fields of these games evaluate it at one profile.

    Notes
    -----
    Every evaluator takes one input, or a ``(B, .)`` stack of inputs (the
    gradients give one result row each), and refuses any other shape with
    :class:`DimensionMismatchError`. Instances are immutable after
    construction and all evaluation methods are pure, so they are safe to
    share across workers.
    """

    def __init__(self, n_players, action_dim, pseudo_gradient, jacobian):
        self.n_players = positive_int(n_players, "n_players")
        self.action_dim = positive_int(action_dim, "action_dim")
        self._pseudo_gradient = pseudo_gradient
        self._jacobian = jacobian

    @property
    def profile_dim(self):
        """Length N*p of a stacked action profile."""
        return self.n_players * self.action_dim

    def _rows(self, v, width, what):
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[-1] != width:
            raise DimensionMismatchError(f"{what} (1-D, or 2-D rows)", width, f"shape {v.shape}")
        return v

    def pseudo_gradient(self, x):
        """Stacked vector of every player's own partial gradient at ``x``.

        Its unique zero characterises the Nash equilibrium when the game is
        strongly monotone. A 2-D ``x`` stacks profiles, one per result row.
        """
        d = self.profile_dim
        x = self._rows(x, d, "action profile")
        rows = np.atleast_2d(x)
        g = np.asarray(self._pseudo_gradient(rows), dtype=float)
        if g.shape != rows.shape:
            raise DimensionMismatchError("pseudo-gradient rows", d, f"shape {g.shape}")
        return g if x.ndim == 2 else g[0]

    def own_gradients_at_estimates(self, y):
        """Stacked own-gradients, each player evaluated at its own estimate.

        ``y`` stacks N local profile estimates (length N * Np); the result
        stacks block i of the pseudo-gradient at estimate i over players
        (length Np). A 2-D ``y`` is a stack of such vectors, one per row.
        """
        n, p, d = self.n_players, self.action_dim, self.profile_dim
        y = self._rows(y, n * d, "stacked profile estimates")
        lead = y.shape[:-1]
        # one call on the (B N, Np) stack of estimates, then block i of row i
        g = self.pseudo_gradient(y.reshape(-1, d)).reshape(*lead, n, n, p)
        k = np.arange(n)
        return g[..., k, k, :].reshape(*lead, d)

    def game_jacobian(self, x):
        """Matrix of second partials: (i, j) block is d(grad_i f_i)/d(x_j)."""
        d = self.profile_dim
        J = np.asarray(self._jacobian(self._rows(x, d, "action profile")), dtype=float)
        if J.shape != (d, d):
            raise DimensionMismatchError("game jacobian", d, f"shape {J.shape}")
        return J

    @property
    def jacobian_matrix(self):
        raise NotStronglyMonotoneError(
            "the Jacobian is not constant for this game, so the Lipschitz constants "
            "and sup_h_norm are not computed; supply certified values manually"
        )

    def monotonicity_constant(self):
        raise NotStronglyMonotoneError(
            "monotonicity constant is uncertified for this game; "
            "supply a certified value explicitly"
        )

    def exact_ne(self):
        raise NotStronglyMonotoneError(
            "the exact equilibrium oracle is only available for quadratic games"
        )


class QuadraticGame(GameDefinition):
    """Quadratic-cost family with pairwise distance couplings.

    Player i's cost is

        x_i^T r_i x_i + x_i^T b_i + q_i + sum_j w_ij ||x_i - x_j||^2

    where ``r_i`` is p x p (symmetrised at construction; the quadratic form
    only sees the symmetric part), ``b_i`` is the linear coefficient,
    ``q_i`` a constant offset, and ``w`` an N x N symmetric nonnegative
    coupling matrix with zero diagonal. Nonzero ``w_ij`` define player i's
    physical neighbours.

    The stacked pseudo-gradient is affine, ``H x + c``, with a constant
    matrix ``H``, which gives the exact m, the Lipschitz constants and a
    linear-solve equilibrium oracle. ``GameDefinition`` evaluates ``H x + c``
    and ``H``; the own gradients at the estimates are one block-row product
    per player, N times less work than the generic path.

    Parameters
    ----------
    r : array_like, shape (N, p, p)
    p_vec : array_like, shape (N, p)
    q : array_like, shape (N,)
    m_weights : array_like, shape (N, N)
        Symmetric, nonnegative, zero diagonal. Asymmetric couplings are
        rejected rather than silently symmetrised.

    Every entry must be finite, and so must H and its symmetric part: a
    game whose H overflows the float range is refused with ``ValueError``.
    """

    def __init__(self, r, p_vec, q, m_weights):
        r = np.asarray(r, dtype=float)
        p_vec = np.asarray(p_vec, dtype=float)
        q = np.asarray(q, dtype=float).ravel()
        w = np.asarray(m_weights, dtype=float)
        if r.ndim != 3 or r.shape[1] != r.shape[2]:
            raise ValueError("r must have shape (n_players, p, p)")
        n, p = r.shape[0], r.shape[1]
        if p_vec.shape != (n, p):
            raise DimensionMismatchError("linear coefficients p_vec", n * p, p_vec.size)
        if q.size != n:
            raise DimensionMismatchError("constant offsets q", n, q.size)
        if w.shape != (n, n):
            raise DimensionMismatchError("coupling matrix m_weights", n * n, w.size)
        for name, val in (("r", r), ("p_vec", p_vec), ("q", q), ("m_weights", w)):
            if not np.isfinite(val).all():
                raise ValueError(f"{name} must be finite")
        if not (w == w.T).all():
            raise ValueError("m_weights must be symmetric (undirected physical coupling)")
        if (w.diagonal() != 0.0).any():
            raise ValueError("m_weights must have a zero diagonal")
        if (w < 0.0).any():
            raise ValueError("m_weights must be nonnegative")

        self.p_vec = p_vec.copy()
        self.q = q.copy()
        self.m_weights = w.copy()

        # H as N x N blocks of p x p: only the diagonal blocks and the blocks of
        # nonzero couplings are written, so every other entry stays +0.0
        H = np.zeros((n, p, n, p))
        eye = np.eye(p)
        i, j = w.nonzero()  # the zero diagonal leaves out i == j
        k = np.arange(n)
        # finite entries near the float range overflow here: refused below, not warned
        with np.errstate(over="ignore", invalid="ignore"):
            self.r = 0.5 * (r + np.transpose(r, (0, 2, 1)))
            H[i, :, j, :] = (-2.0 * w[i, j])[:, None, None] * eye
            H[k, :, k, :] = 2.0 * self.r + (2.0 * w.sum(axis=1))[:, None, None] * eye
            H = H.reshape(n * p, n * p)
            # the symmetric part, which the monotonicity constant reads, too
            finite = np.isfinite(H + H.T).all()
        if not finite:
            raise ValueError(
                "the pseudo-gradient matrix H overflows the float range; rescale r and m_weights"
            )
        self._H = H
        self._c = self.p_vec.ravel().copy()
        super().__init__(n, p, self._affine, self._constant_jacobian)

    # bound methods, not lambdas, so that instances pickle
    def _affine(self, rows):
        return (self._H @ rows.T).T + self._c

    def _constant_jacobian(self, x):
        return self._H.copy()

    @property
    def jacobian_matrix(self):
        """The constant stacked-Jacobian matrix H."""
        return self._H

    def own_gradients_at_estimates(self, y):
        n, d = self.n_players, self.profile_dim
        y = self._rows(y, n * d, "stacked profile estimates")
        lead = y.shape[:-1]
        # player i's block-row of H applied to estimate i, for all i at once
        H = self._H.reshape(n, self.action_dim, d)
        return (H @ y.reshape(*lead, n, d, 1)).reshape(*lead, d) + self._c

    def monotonicity_constant(self):
        """Exact constant m: smallest eigenvalue of the symmetric part of H."""
        sym = 0.5 * (self._H + self._H.T)
        return float(np.linalg.eigvalsh(sym)[0])

    def exact_ne(self):
        """Unique Nash equilibrium, from the linear system H x = -c.

        Raises
        ------
        NotStronglyMonotoneError
            If the symmetric part of H is not positive definite, in which
            case no unique equilibrium certificate exists.
        """
        if self.monotonicity_constant() <= 0.0:
            raise NotStronglyMonotoneError(
                "game is not strongly monotone; no unique Nash equilibrium certificate"
            )
        return np.linalg.solve(self._H, -self._c)


def random_strongly_monotone_game(rng, n_players=3, action_dim=2):
    """Sample a quadratic game whose monotonicity constant is bounded below.

    Each ``r_i`` is a random symmetric matrix with eigenvalues drawn
    uniformly from [0.75, 1.5], so the game's constant satisfies m >= 1.5
    regardless of the sampled couplings (the coupling part of H is positive
    semidefinite). ``p_vec`` is uniform in [-2, 2] and ``q`` in [0, 3]; each
    pair of players is coupled with probability 1/2, by a weight uniform in
    [0, 0.5].
    """
    n, p = n_players, action_dim
    r = np.empty((n, p, p))
    for i in range(n):
        a = rng.normal(size=(p, p))
        qmat, _ = np.linalg.qr(a)
        eigs = rng.uniform(0.75, 1.5, p)
        r[i] = qmat @ np.diag(eigs) @ qmat.T
    p_vec = rng.uniform(-2.0, 2.0, (n, p))
    q = rng.uniform(0.0, 3.0, n)
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                w[i, j] = w[j, i] = rng.uniform(0.0, 0.5)
    return QuadraticGame(r, p_vec, q, w)
