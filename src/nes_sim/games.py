"""Game definitions: player costs, partial gradients, and equilibrium tools.

Action profiles are stacked player-major: with N players each acting in
R^p, the profile vector is [x_1; x_2; ...; x_N] of length N*p. Every other
module (graphs, dynamics, tuning) follows the same stacking, including all
Kronecker constructions.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NotStronglyMonotoneError

__all__ = [
    "GameDefinition",
    "QuadraticGame",
    "check_gradient_consistency",
    "random_strongly_monotone_game",
]


def _fd_step(x):
    # balanced truncation/rounding error for central differences at float64
    scale = float(np.max(np.abs(x))) if x.size else 1.0
    return 1e-6 * max(1.0, scale)


class GameDefinition:
    """An N-player game over unconstrained actions in R^p per player.

    Parameters
    ----------
    n_players : int
        Number of players N.
    action_dim : int
        Dimension p of each player's action.
    costs : sequence of callables
        ``costs[i](x)`` returns player i's scalar cost at the full profile
        ``x`` (length ``n_players * action_dim``). Must be total on R^{Np}.
    gradients : sequence of callables, optional
        ``gradients[i](x)`` returns the partial gradient of ``costs[i]``
        with respect to player i's own action block, shape ``(action_dim,)``.
        When omitted, central finite differences of the cost are used.
    jacobian : callable, optional
        ``jacobian(x)`` returns the (Np, Np) matrix whose (i, j) block is
        the second partial of cost i with respect to blocks i and j. When
        omitted it is finite-differenced from the partial gradients.

    Notes
    -----
    Instances are immutable after construction and all evaluation methods
    are pure, so they are safe to share across workers.
    """

    def __init__(self, n_players, action_dim, costs, gradients=None, jacobian=None):
        if n_players < 1:
            raise ValueError("n_players must be a positive integer")
        if action_dim < 1:
            raise ValueError("action_dim must be a positive integer")
        if len(costs) != n_players:
            raise DimensionMismatchError("cost evaluator list", n_players, len(costs))
        if gradients is not None and len(gradients) != n_players:
            raise DimensionMismatchError("gradient evaluator list", n_players, len(gradients))
        self.n_players = int(n_players)
        self.action_dim = int(action_dim)
        self._costs = tuple(costs)
        self._gradients = tuple(gradients) if gradients is not None else None
        self._jacobian = jacobian

    @property
    def profile_dim(self):
        """Length N*p of a stacked action profile."""
        return self.n_players * self.action_dim

    def _check_profile(self, x, what="action profile"):
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.profile_dim:
            raise DimensionMismatchError(what, self.profile_dim, x.size)
        return x

    def _check_player(self, i):
        if not 0 <= i < self.n_players:
            raise IndexError(f"player index {i} out of range for {self.n_players} players")
        return int(i)

    def _row_by_row(self, evaluate, x):
        # a stack of inputs, one per row of a 2-D array, evaluated one row at a time
        return np.array([evaluate(row) for row in x]).reshape(len(x), self.profile_dim)

    def _block(self, x, i):
        p = self.action_dim
        return x[i * p : (i + 1) * p]

    def cost(self, i, x):
        """Cost of player ``i`` (0-based) at the stacked profile ``x``."""
        i = self._check_player(i)
        x = self._check_profile(x)
        return float(self._costs[i](x))

    def partial_gradient(self, i, profile):
        """Partial gradient of player i's cost w.r.t. its own action block.

        ``profile`` may be the true joint action or a player's local
        estimate of it; either way the gradient is taken at that point.
        """
        i = self._check_player(i)
        x = self._check_profile(profile)
        if self._gradients is not None:
            g = np.asarray(self._gradients[i](x), dtype=float).ravel()
            if g.size != self.action_dim:
                raise DimensionMismatchError(f"gradient of player {i}", self.action_dim, g.size)
            return g
        return self._fd_partial_gradient(i, x)

    def _fd_partial_gradient(self, i, x):
        h = _fd_step(x)
        p = self.action_dim
        g = np.empty(p)
        f = self._costs[i]
        for d in range(p):
            e = np.zeros_like(x)
            e[i * p + d] = h
            g[d] = (f(x + e) - f(x - e)) / (2.0 * h)
        return g

    def pseudo_gradient(self, x):
        """Stacked vector of every player's own partial gradient at ``x``.

        Its unique zero characterises the Nash equilibrium when the game is
        strongly monotone. A 2-D ``x`` stacks profiles, one per result row.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return self._row_by_row(self.pseudo_gradient, x)
        x = self._check_profile(x)
        return np.concatenate([self.partial_gradient(i, x) for i in range(self.n_players)])

    def own_gradients_at_estimates(self, y):
        """Stacked own-gradients, each player evaluated at its own estimate.

        ``y`` stacks N local profile estimates (length N * Np); the result
        stacks ``partial_gradient(i, y_i)`` over players (length Np). A 2-D
        ``y`` is a stack of such vectors, one per row.
        """
        y = np.asarray(y, dtype=float)
        n, d = self.n_players, self.profile_dim
        if y.ndim == 2:
            return self._row_by_row(self.own_gradients_at_estimates, y)
        y = y.ravel()
        if y.size != n * d:
            raise DimensionMismatchError("stacked profile estimates", n * d, y.size)
        return np.concatenate(
            [self.partial_gradient(i, y[i * d : (i + 1) * d]) for i in range(n)]
        )

    def game_jacobian(self, x):
        """Matrix of second partials: (i, j) block is d(grad_i f_i)/d(x_j)."""
        x = self._check_profile(x)
        if self._jacobian is not None:
            J = np.asarray(self._jacobian(x), dtype=float)
            if J.shape != (self.profile_dim, self.profile_dim):
                raise DimensionMismatchError("game jacobian", self.profile_dim, J.shape[0])
            return J
        # differencing finite-differenced gradients amplifies rounding noise;
        # a wider step rebalances truncation against that noise
        h = _fd_step(x) if self._gradients is not None else 500.0 * _fd_step(x)
        d = self.profile_dim
        J = np.empty((d, d))
        for k in range(d):
            e = np.zeros(d)
            e[k] = h
            J[:, k] = (self.pseudo_gradient(x + e) - self.pseudo_gradient(x - e)) / (2.0 * h)
        return J

    def monotonicity_constant(self, n_pairs=100, radius=10.0, rng=None):
        """Estimate the strong-monotonicity constant of the pseudo-gradient.

        Samples pairs (x, z) and returns the smallest observed value of
        ``(x - z) . (P(x) - P(z)) / ||x - z||^2`` together with
        ``certified=False``: sampling can refute strong monotonicity but
        never prove it. A nonpositive estimate is returned as-is.
        """
        rng = np.random.default_rng(rng)
        d = self.profile_dim
        best = np.inf
        for _ in range(n_pairs):
            x = rng.uniform(-radius, radius, d)
            z = rng.uniform(-radius, radius, d)
            diff = x - z
            denom = float(diff @ diff)
            if denom < 1e-20:
                continue
            num = float(diff @ (self.pseudo_gradient(x) - self.pseudo_gradient(z)))
            best = min(best, num / denom)
        return float(best), False


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
    matrix ``H``; this gives an exact linear-solve equilibrium oracle.
    Every evaluator (``pseudo_gradient``, ``partial_gradient``,
    ``own_gradients_at_estimates``, ``game_jacobian``) is that one map: it
    takes one input, or a ``(B, .)`` stack of inputs that gives one result
    row each (``game_jacobian`` gives ``H`` either way), and refuses any
    other shape with :class:`DimensionMismatchError`. The costs are kept
    only for finite-difference checks of those evaluators.

    Parameters
    ----------
    r : array_like, shape (N, p, p)
    p_vec : array_like, shape (N, p)
    q : array_like, shape (N,)
    m_weights : array_like, shape (N, N)
        Symmetric, nonnegative, zero diagonal. Asymmetric couplings are
        rejected rather than silently symmetrised.
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
        if not (w == w.T).all():
            raise ValueError("m_weights must be symmetric (undirected physical coupling)")
        if (w.diagonal() != 0.0).any():
            raise ValueError("m_weights must have a zero diagonal")
        if (w < 0.0).any():
            raise ValueError("m_weights must be nonnegative")

        self.r = 0.5 * (r + np.transpose(r, (0, 2, 1)))
        self.p_vec = p_vec.copy()
        self.q = q.copy()
        self.m_weights = w.copy()

        # H as N x N blocks of p x p: only the diagonal blocks and the blocks of
        # nonzero couplings are written, so every other entry stays +0.0
        H = np.zeros((n, p, n, p))
        eye = np.eye(p)
        i, j = w.nonzero()  # the zero diagonal leaves out i == j
        H[i, :, j, :] = (-2.0 * w[i, j])[:, None, None] * eye
        k = np.arange(n)
        H[k, :, k, :] = 2.0 * self.r + (2.0 * w.sum(axis=1))[:, None, None] * eye
        self._H = H.reshape(n * p, n * p)
        self._c = self.p_vec.ravel().copy()
        # the costs serve check_gradient_consistency; every evaluator is H x + c
        super().__init__(n, p, costs=[self._make_cost(i) for i in range(n)])

    def _make_cost(self, i):
        def f(x):
            xi = self._block(x, i)
            val = xi @ self.r[i] @ xi + xi @ self.p_vec[i] + self.q[i]
            for j in np.nonzero(self.m_weights[i])[0]:
                d = xi - self._block(x, j)
                val += self.m_weights[i, j] * (d @ d)
            return val

        return f

    @property
    def jacobian_matrix(self):
        """The constant stacked-Jacobian matrix H."""
        return self._H

    # Each evaluator takes one input or a (B, .) stack of them, one per row,
    # through one product: (H @ v.T).T is H @ v for one input.

    def _rows(self, v, width, what):
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[-1] != width:
            raise DimensionMismatchError(f"{what} (1-D, or 2-D rows)", width, f"shape {v.shape}")
        return v

    def partial_gradient(self, i, profile):
        i, p = self._check_player(i), self.action_dim
        return self.pseudo_gradient(profile)[..., i * p : (i + 1) * p]

    def pseudo_gradient(self, x):
        x = self._rows(x, self.profile_dim, "action profile")
        return (self._H @ x.T).T + self._c

    def own_gradients_at_estimates(self, y):
        n, d = self.n_players, self.profile_dim
        y = self._rows(y, n * d, "stacked profile estimates")
        lead = y.shape[:-1]
        # player i's block-row of H applied to estimate i, for all i at once
        H = self._H.reshape(n, self.action_dim, d)
        return (H @ y.reshape(*lead, n, d, 1)).reshape(*lead, d) + self._c

    def game_jacobian(self, x):
        # the Jacobian is constant: one matrix H serves every input
        self._rows(x, self.profile_dim, "action profile")
        return self._H.copy()

    def monotonicity_constant(self, n_pairs=None, radius=None, rng=None):
        """Exact constant: smallest eigenvalue of the symmetric part of H.

        Returns ``(m, True)``; no sampling is involved for quadratic games.
        """
        sym = 0.5 * (self._H + self._H.T)
        return float(np.linalg.eigvalsh(sym)[0]), True

    def exact_ne(self):
        """Unique Nash equilibrium, from the linear system H x = -c.

        Raises
        ------
        NotStronglyMonotoneError
            If the symmetric part of H is not positive definite, in which
            case no unique equilibrium certificate exists.
        """
        m, _ = self.monotonicity_constant()
        if m <= 0.0:
            raise NotStronglyMonotoneError(
                "game is not strongly monotone; no unique Nash equilibrium certificate"
            )
        return np.linalg.solve(self._H, -self._c)


def check_gradient_consistency(game, rng=None, n_points=100, radius=5.0):
    """Largest relative gap between analytic and finite-difference gradients.

    Samples profiles uniformly in a box and compares the game's partial
    gradients against central finite differences of its costs. Used to
    validate user-supplied analytic evaluators.
    """
    rng = np.random.default_rng(rng)
    worst = 0.0
    for _ in range(n_points):
        x = rng.uniform(-radius, radius, game.profile_dim)
        for i in range(game.n_players):
            ga = game.partial_gradient(i, x)
            gf = game._fd_partial_gradient(i, x)
            err = np.max(np.abs(ga - gf)) / max(1.0, float(np.max(np.abs(gf))))
            worst = max(worst, float(err))
    return worst


def random_strongly_monotone_game(
    rng,
    n_players=3,
    action_dim=2,
    curvature=(0.75, 1.5),
    coupling_scale=0.5,
    linear_scale=2.0,
    edge_prob=0.5,
):
    """Sample a quadratic game whose monotonicity constant is bounded below.

    Each ``r_i`` is a random symmetric matrix with eigenvalues drawn from
    ``curvature``, so the game's constant satisfies m >= 2 * curvature[0]
    regardless of the sampled couplings (the coupling part of H is positive
    semidefinite).
    """
    n, p = n_players, action_dim
    r = np.empty((n, p, p))
    for i in range(n):
        a = rng.normal(size=(p, p))
        qmat, _ = np.linalg.qr(a)
        eigs = rng.uniform(curvature[0], curvature[1], p)
        r[i] = qmat @ np.diag(eigs) @ qmat.T
    p_vec = rng.uniform(-linear_scale, linear_scale, (n, p))
    q = rng.uniform(0.0, 3.0, n)
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                w[i, j] = w[j, i] = rng.uniform(0.0, coupling_scale)
    return QuadraticGame(r, p_vec, q, w)
