"""Communication graphs and the linear algebra behind consensus estimation.

The estimation machinery works on stacked local estimates: player i keeps
y_i, an estimate of the full action profile, and the stacked vector
y = [y_11, ..., y_1N, y_21, ..., y_NN] (player-major, each y_ij in R^p)
contracts through the matrix M = L (x) I_{Np} + diag{a_ij} (x) I_p, which
is symmetric positive definite exactly when the graph is connected.
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
        Symmetric nonnegative weights with a zero diagonal. Any positive
        entry is a communication link.
    """

    def __init__(self, adjacency):
        a = np.asarray(adjacency, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric (undirected graph)")
        if np.any(a < 0.0):
            raise ValueError("adjacency weights must be nonnegative")
        if np.any(np.diag(a) != 0.0):
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
    """Assemble the consensus-estimation matrix M = L (x) I + diag{a_ij} (x) I.

    The Laplacian acts across estimate owners while the diagonal adjacency
    term injects each owner's direct observations of its neighbours' true
    actions. For a connected graph with at least two nodes the result is
    symmetric positive definite; the single-node graph degenerates to the
    1 x 1 zero matrix (a lone player needs no estimation).

    Parameters
    ----------
    graph : CommGraph
    action_dim : int
        Action dimension p; M has size N^2 p.

    Raises
    ------
    DisconnectedGraphError
        If the graph has two or more nodes and is not connected.
    """
    n = graph.n_nodes
    if n > 1 and not graph.is_connected():
        raise DisconnectedGraphError(
            "communication graph must be connected for consensus estimation"
        )
    p = int(action_dim)
    lap = graph.laplacian()
    m = np.kron(lap, np.eye(n * p)) + np.kron(np.diag(graph.adjacency.ravel()), np.eye(p))
    assert np.array_equal(m, m.T)
    return m


@dataclass
class LyapunovPair:
    """Solution P of  P Tb M + M Tb P = Q  with its verification residual.

    ``residual`` is the Frobenius norm of the defect after substituting P
    back; :func:`solve_lyapunov` refuses a pair with residual above
    1e-8 * ||Q||_F.
    """

    P: np.ndarray
    Q: np.ndarray
    residual: float

    @property
    def p_norm(self):
        """Spectral norm of P (used by the gain bounds): its largest eigenvalue, P being SPD."""
        return float(np.linalg.eigvalsh(self.P)[-1])

    @property
    def lambda_min_q(self):
        return float(np.linalg.eigvalsh(self.Q)[0])


def solve_lyapunov(M, theta_bar=1.0, Q=None):
    """Solve  P Tb M + M Tb P = Q  for symmetric positive definite P.

    ``Tb`` is the diagonal matrix of per-estimate gain weights. The
    equation is solved in the eigenbasis of S M S, S = sqrt(Tb), which also
    gives the condition estimate: O(n^3) time, O(n^2) memory. The
    substitution residual is recorded on the returned pair.

    Parameters
    ----------
    M : ndarray, shape (n, n)
        Symmetric positive definite estimation matrix.
    theta_bar : float or array_like
        Positive scalar or length-n vector of diagonal weights.
    Q : None, float, or ndarray
        Right-hand side; ``None`` or a scalar q means q * identity.

    Raises
    ------
    IllConditionedError
        If the condition estimate of the weighted system exceeds 1e12, or
        the substitution residual exceeds 1e-8 * ||Q||_F; shrink the
        network or rescale ``theta_bar``.
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
    if np.any(tb <= 0.0):
        raise ValueError("theta_bar entries must be strictly positive")

    if Q is None:
        Qm = np.eye(n)
    elif np.isscalar(Q):
        if Q <= 0.0:
            raise ValueError("scalar Q must be positive")
        Qm = float(Q) * np.eye(n)
    else:
        Qm = np.asarray(Q, dtype=float)
        if Qm.shape != (n, n):
            raise DimensionMismatchError("Q matrix", n * n, Qm.size)
        if not np.allclose(Qm, Qm.T, rtol=0.0, atol=1e-12):
            raise ValueError("Q must be symmetric")
        if np.linalg.eigvalsh(Qm)[0] <= 0.0:
            raise ValueError("Q must be positive definite")

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
    residual = float(np.linalg.norm(P @ (tb[:, None] * M) + mt @ P - Qm, "fro"))
    if residual > 1e-8 * np.linalg.norm(Qm, "fro"):
        raise IllConditionedError(
            f"Lyapunov solve residual {residual:.3e} exceeds 1e-8 * ||Q||_F; "
            "reduce the network size or rescale theta_bar"
        )
    if np.linalg.eigvalsh(P)[0] <= 0.0:
        raise ValueError("Lyapunov solve produced a non-positive-definite P")
    return LyapunovPair(P=P, Q=Qm, residual=residual)


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
