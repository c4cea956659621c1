"""Communication graphs and the linear algebra behind consensus estimation.

The estimation machinery works on stacked local estimates: player i keeps
y_i, an estimate of the full action profile, and the stacked vector
y = [y_11, ..., y_1N, y_21, ..., y_NN] (player-major, each y_ij in R^p)
contracts through M = L (x) I_{Np} + diag{a_ij} (x) I_p = M1 (x) I_p, which
is symmetric positive definite exactly when the graph is connected. The
simulator keeps only the per-channel M1 = ``estimation_matrix(graph, 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DisconnectedGraphError, IllConditionedError

__all__ = [
    "CommGraph",
    "LyapunovPair",
    "estimation_matrix",
    "solve_lyapunov",
    "random_connected_graph",
]

_CONNECTIVITY_TOL = 1e-9


class CommGraph:
    """Undirected weighted communication graph.

    Parameters
    ----------
    adjacency : array_like, shape (N, N)
        Finite, symmetric, nonnegative weights with a zero diagonal, at
        least one node. Any positive entry is a communication link.
    """

    def __init__(self, adjacency):
        a = np.asarray(adjacency, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if a.size == 0:
            raise ValueError("adjacency must have at least one node")
        if not np.isfinite(a).all():
            raise ValueError("adjacency weights must be finite")
        if not (a == a.T).all():
            raise ValueError("adjacency must be symmetric (undirected graph)")
        if (a < 0.0).any():
            raise ValueError("adjacency weights must be nonnegative")
        if (a.diagonal() != 0.0).any():
            raise ValueError("adjacency must have a zero diagonal (no self-loops)")
        self.adjacency = a.copy()

    @property
    def n_nodes(self):
        return self.adjacency.shape[0]

    def laplacian(self):
        """Weighted graph Laplacian L = D - A; rows sum to zero."""
        a = self.adjacency
        return np.diag(a.sum(axis=1)) - a

    def algebraic_connectivity(self):
        """Second-smallest Laplacian eigenvalue (0.0 for a single node)."""
        if self.n_nodes == 1:
            return 0.0
        eigs = np.linalg.eigvalsh(self.laplacian())
        return float(eigs[1])

    def is_connected(self):
        """True iff the graph is connected.

        A single node counts as connected; otherwise the algebraic
        connectivity must exceed a small positive threshold.
        """
        if self.n_nodes == 1:
            return True
        return self.algebraic_connectivity() > _CONNECTIVITY_TOL


def estimation_matrix(graph, action_dim):
    """Assemble the consensus-estimation matrix M = L (x) I_{Np} + diag{a_ij} (x) I_p.

    The Laplacian acts across estimate owners while the diagonal adjacency
    term injects each owner's direct observations of its neighbours' true
    actions. M has size N^2 p and equals kron(M1, I_p) for the p = 1 matrix
    M1, the one the simulator uses. For a connected graph with at least two
    nodes it is symmetric positive definite; a single node gives the zero
    matrix (a lone player needs no estimation). A disconnected graph of two
    or more nodes raises ``DisconnectedGraphError``.
    """
    n = graph.n_nodes
    if n > 1 and not graph.is_connected():
        raise DisconnectedGraphError(
            "communication graph must be connected for consensus estimation"
        )
    p = int(action_dim)
    lap = graph.laplacian()
    return np.kron(lap, np.eye(n * p)) + np.kron(np.diag(graph.adjacency.ravel()), np.eye(p))


@dataclass
class LyapunovPair:
    """Solution P of  P Tb M + M Tb P = Q  with its verification numbers.

    ``residual`` is the Frobenius norm of the defect after substituting P
    back and ``cond`` the condition estimate of the weighted system;
    :func:`solve_lyapunov` refuses a pair with residual above
    1e-8 * ||Q||_F or cond above 1e12. For a scalar Q, P and Q are per
    action channel (size N^2); the full pair is kron(X, I_p), which has
    the same spectrum.
    """

    P: np.ndarray
    Q: np.ndarray
    residual: float
    cond: float | None = None

    @property
    def p_norm(self):
        """Spectral norm of P (used by the gain bounds): its largest eigenvalue, P being SPD."""
        return float(np.linalg.eigvalsh(self.P)[-1])

    @property
    def lambda_min_q(self):
        return float(np.linalg.eigvalsh(self.Q)[0])


def solve_lyapunov(M, theta_bar=1.0, Q=None, action_dim=1):
    """Solve  P Tb M + M Tb P = Q  for symmetric positive definite P.

    ``Tb`` is the diagonal matrix of per-estimate gain weights. The
    equation is solved in the eigenbasis of S M S, S = sqrt(Tb), which also
    gives the condition estimate: O(n^3) time, O(n^2) memory. The
    substitution residual and the condition estimate are recorded on the
    returned pair.

    ``M`` and ``theta_bar`` are one action channel's, as
    ``estimation_matrix(graph, 1)`` and ``GainSet.theta_bar_vec`` give
    them; the flow runs through M (x) I_p. For a scalar Q the equation is
    p copies of the one for M, so P and Q are per channel, and the gates
    hold for the full equation (same condition, residual sqrt(p) ||R||_F).
    A matrix Q must be (n p) x (n p); the equation for kron(M, I_p) is solved.

    Parameters
    ----------
    M : ndarray, shape (n, n)
        Symmetric positive definite estimation matrix of one channel.
    theta_bar : float or array_like
        Finite positive scalar or length-n vector of diagonal weights.
    Q : None, float, or ndarray
        Right-hand side; ``None`` or a finite scalar q > 0 means q * identity.
    action_dim : int
        The number p of action channels.

    A condition estimate above 1e12 or a residual above 1e-8 * ||Q||_F
    raises ``IllConditionedError``: shrink the network or rescale ``theta_bar``.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if M.shape != (n, n) or not np.allclose(M, M.T, rtol=0.0, atol=1e-12):
        raise ValueError("M must be a square symmetric matrix")

    tb = np.asarray(theta_bar, dtype=float).ravel()
    if tb.size == 1:
        tb = np.full(n, tb[0])
    if tb.size != n:
        raise DimensionMismatchError("theta_bar diagonal", n, tb.size)
    if not (np.isfinite(tb).all() and (tb > 0.0).all()):
        raise ValueError("theta_bar entries must be finite and strictly positive")

    p = int(action_dim)
    if p < 1:
        raise ValueError("action_dim must be a positive integer")
    Q = 1.0 if Q is None else Q
    if np.isscalar(Q):
        if not (np.isfinite(Q) and Q > 0.0):
            raise ValueError("scalar Q must be finite and positive")
        Qm = float(Q) * np.eye(n)
    else:
        Qm = np.asarray(Q, dtype=float)
        if Qm.shape != (n * p, n * p):
            raise DimensionMismatchError("Q matrix", (n * p) ** 2, Qm.size)
        if not (np.isfinite(Qm).all() and np.allclose(Qm, Qm.T, rtol=0.0, atol=1e-12)):
            raise ValueError("Q must be finite and symmetric")
        if np.linalg.eigvalsh(Qm)[0] <= 0.0:
            raise ValueError("Q must be positive definite")
        if p > 1:  # Q couples the channels: one solve at full size
            M, tb, p = np.kron(M, np.eye(p)), np.repeat(tb, p), 1

    # S M S = U diag(eigs) U^T, S = sqrt(Tb): the condition estimate and the solve
    s = np.sqrt(tb)
    ss = np.outer(s, s)
    eigs, U = np.linalg.eigh(M * ss)
    if eigs[0] <= 0.0:
        raise ValueError(
            "estimation matrix must be positive definite; "
            "is the communication graph connected?"
        )
    cond = eigs[-1] / eigs[0]
    if cond > 1e12:
        raise IllConditionedError(
            f"Lyapunov system condition estimate {cond:.3e} exceeds 1e12; "
            "reduce the network size or rescale theta_bar"
        )

    # P = V X V^T, V = S^-1 U, turns it into (eigs_i + eigs_j) X_ij = (U^T S Q S U)_ij
    V = U / s[:, None]
    X = (U.T @ (Qm * ss) @ U) / (eigs[:, None] + eigs[None, :])
    P = V @ X @ V.T
    P = 0.5 * (P + P.T)
    mt = M * tb[None, :]  # M Tb
    # the full defect is R (x) I_p, so its norms are sqrt(p) times R's and Q's
    scale = np.sqrt(p)
    residual = float(scale * np.linalg.norm(P @ (tb[:, None] * M) + mt @ P - Qm, "fro"))
    if residual > 1e-8 * scale * np.linalg.norm(Qm, "fro"):
        raise IllConditionedError(
            f"Lyapunov solve residual {residual:.3e} exceeds 1e-8 * ||Q||_F; "
            "reduce the network size or rescale theta_bar"
        )
    if np.linalg.eigvalsh(P)[0] <= 0.0:
        raise ValueError("Lyapunov solve produced a non-positive-definite P")
    return LyapunovPair(P=P, Q=Qm, residual=residual, cond=float(cond))


def random_connected_graph(rng, n_nodes, edge_prob=0.5):
    """Sample unit-weight undirected graphs until one is connected."""
    while True:
        a = np.zeros((n_nodes, n_nodes))
        for i in range(n_nodes):
            for j in range(i + 1, n_nodes):
                if rng.random() < edge_prob:
                    a[i, j] = a[j, i] = 1.0
        g = CommGraph(a)
        if g.is_connected():
            return g
