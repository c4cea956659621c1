"""Communication graphs and the linear algebra behind consensus estimation.

The estimation machinery works on stacked local estimates: player i keeps
y_i, an estimate of the full action profile, and the stacked vector
y = [y_11, ..., y_1N, y_21, ..., y_NN] (player-major, each y_ij in R^p)
contracts through M = L (x) I_{Np} + diag{a_ij} (x) I_p = M1 (x) I_p, which
is symmetric positive definite exactly when the graph is connected. A
:class:`CommGraph` of two or more nodes is connected when built, so nothing
that reads one tests it again. The simulator keeps only the per-channel M1,
:func:`estimation_matrix` with p = 1.

Reordered from (i, j) to (j, i), M1 is exactly blockdiag_j(L + diag(A[:, j])):
one pinned Laplacian per estimated player, its leader-following consensus.
:meth:`CommGraph.pinned_blocks` gives that (N, N, N) stack, which the
vector field and the stability guard read. In M1's own order block j is
rows j, N + j, ..., N(N - 1) + j; :func:`pinned_index` returns those rows
after one exact zero test off the blocks, and the Lyapunov pair and the
gain bound's spectral norm are taken per block through it, so with a
scalar Q no set-up step decomposes a matrix of N^2 rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    DisconnectedGraphError,
    IllConditionedError,
    positive_int,
)

__all__ = [
    "CommGraph",
    "LyapunovPair",
    "estimation_matrix",
    "pinned_index",
    "solve_lyapunov",
    "spectral_norm",
    "random_connected_graph",
]

_CONNECTIVITY_TOL = 1e-9
_DISCONNECTED = "communication graph must be connected for consensus estimation"


class CommGraph:
    """Undirected weighted communication graph, connected.

    Parameters
    ----------
    adjacency : array_like, shape (N, N)
        Finite, symmetric, nonnegative weights with a zero diagonal and
        finite row sums (degrees), at least one node. Any positive entry is
        a communication link. A graph of two or more nodes whose algebraic
        connectivity is not above ``_CONNECTIVITY_TOL`` raises
        ``DisconnectedGraphError``: consensus estimation needs a connected
        graph, and this is the one place that tests for it. The stored
        ``adjacency`` is a read-only copy.
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
        with np.errstate(over="ignore"):
            degrees = a.sum(axis=1)
        if not np.isfinite(degrees).all():
            raise ValueError("adjacency degrees (row sums) overflow the float range")
        self.adjacency = a.copy()
        self.adjacency.flags.writeable = False  # stays the graph that was checked
        if self.n_nodes > 1 and self.algebraic_connectivity() <= _CONNECTIVITY_TOL:
            raise DisconnectedGraphError(_DISCONNECTED)

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

    def pinned_blocks(self):
        """The (N, N, N) stack of pinned Laplacians L + diag(A[:, j]), one per player j.

        Block j is player j's leader-following consensus: row i is owner
        i's estimate of player j, pinned by i's link to j. Reordered from
        (i, j) to (j, i), M1 (:func:`estimation_matrix` with p = 1) is
        exactly blockdiag_j of these blocks, each positive definite for
        the connected graph of two or more nodes; a single node gives one
        zero block.
        """
        return self.laplacian() + np.eye(self.n_nodes) * self.adjacency.T[:, None, :]


def estimation_matrix(graph, action_dim):
    """Assemble the consensus-estimation matrix M = L (x) I_{Np} + diag{a_ij} (x) I_p.

    The Laplacian acts across estimate owners while the diagonal adjacency
    term injects each owner's direct observations of its neighbours' true
    actions. M has size N^2 p and equals kron(M1, I_p) for the p = 1 matrix
    M1, the one the simulator uses. For a graph of two or more nodes,
    connected as every :class:`CommGraph` is, it is symmetric positive
    definite; a single node gives the zero matrix (a lone player needs no
    estimation). ``action_dim`` must be a positive integer (``ValueError``).
    """
    n, p = graph.n_nodes, positive_int(action_dim, "action_dim")
    lap = graph.laplacian()
    return np.kron(lap, np.eye(n * p)) + np.kron(np.diag(graph.adjacency.ravel()), np.eye(p))


def pinned_index(*mats):
    """Row indices of the diagonal blocks that square matrices of one size share.

    When every matrix has N^2 rows and is exactly zero off the N strided
    blocks j, N + j, ..., N(N - 1) + j (entry (iN + j, kN + l) is 0 whenever
    j != l), returns the (N, N) array whose row j is block j's indices: for
    M1 these are the N pinned Laplacians, one per estimated player.
    Otherwise returns ``arange(n)[None]``, one dense block.
    """
    n = len(mats[0])
    N = math.isqrt(n)
    off = ~np.eye(N, dtype=bool)
    if N * N == n and not any(a.reshape(N, N, N, N).transpose(1, 3, 0, 2)[off].any() for a in mats):
        return np.arange(n).reshape(N, N).T
    return np.arange(n)[None]


def _stack(a, idx):
    """The (k, s, s) stack of a's diagonal blocks listed by the rows of ``idx``."""
    return a[idx[:, :, None], idx[:, None, :]]


def spectral_norm(a):
    """Spectral norm (largest singular value) of a square matrix: the max
    over its :func:`pinned_index` blocks, one batched SVD."""
    return float(np.linalg.norm(_stack(a, pinned_index(a)), 2, (1, 2)).max())


@dataclass
class LyapunovPair:
    """Solution P of  P Tb M + M Tb P = Q  with its verification numbers.

    ``residual`` is the Frobenius norm of the defect after substituting P
    back and ``cond`` the condition estimate of the weighted system;
    :func:`solve_lyapunov` refuses a pair with residual above
    1e-8 * ||Q||_F or cond above 1e12. For a scalar Q, P and Q are per
    action channel (size N^2); the full pair is kron(X, I_p), which has
    the same spectrum. ``p_norm`` (the spectral norm of P, its largest
    eigenvalue) and ``lambda_min_q`` feed the gain bounds.
    """

    P: np.ndarray
    Q: np.ndarray
    residual: float
    cond: float | None = None
    p_norm: float = field(kw_only=True)
    lambda_min_q: float = field(kw_only=True)


def solve_lyapunov(M, theta_bar=1.0, Q=None, action_dim=1):
    """Solve  P Tb M + M Tb P = Q  for symmetric positive definite P.

    ``Tb`` is the diagonal matrix of per-estimate gain weights. When M
    and Q are exactly zero off the N strided pinned blocks
    (:func:`pinned_index`), as M1 and a scalar Q are, the equation splits
    over those blocks and P is exactly zero off them; any other M or Q is
    one dense block. Each block is solved in the eigenbasis of its S M S,
    S = sqrt(Tb), with one batched ``eigh`` over the blocks; the
    eigenvalues also give the condition estimate. The substitution
    residual and the condition estimate, taken over all blocks, are those
    of the full equation; P's spectrum, for ``p_norm`` and the
    positive-definiteness check, and a matrix Q's, for ``lambda_min_q``,
    are read from the blocks as well (for a scalar Q, ``lambda_min_q`` is
    q itself).

    ``M`` and ``theta_bar`` are one action channel's, as
    :func:`estimation_matrix` with p = 1 and ``GainSet.theta_bar_vec`` give
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
        The number p of action channels, a positive integer.

    A condition estimate above 1e12 or a residual above 1e-8 * ||Q||_F
    raises ``IllConditionedError``: shrink the network or rescale ``theta_bar``.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if M.shape != (n, n) or not np.isfinite(M).all() or not (np.abs(M - M.T) <= 1e-12).all():
        raise ValueError("M must be a finite square symmetric matrix")

    tb = np.asarray(theta_bar, dtype=float).ravel()
    if tb.size == 1:
        tb = np.full(n, tb[0])
    if tb.size != n:
        raise DimensionMismatchError("theta_bar diagonal", n, tb.size)
    if not (np.isfinite(tb).all() and (tb > 0.0).all()):
        raise ValueError("theta_bar entries must be finite and strictly positive")

    p = positive_int(action_dim, "action_dim")
    Q = 1.0 if Q is None else Q
    if np.isscalar(Q):
        if not (np.isfinite(Q) and Q > 0.0):
            raise ValueError("scalar Q must be finite and positive")
        Qm = float(Q) * np.eye(n)
        lambda_min_q = float(Q)
    else:
        Qm = np.asarray(Q, dtype=float)
        if Qm.shape != (n * p, n * p):
            raise DimensionMismatchError("Q matrix", (n * p) ** 2, Qm.size)
        if not (np.isfinite(Qm).all() and np.allclose(Qm, Qm.T, rtol=0.0, atol=1e-12)):
            raise ValueError("Q must be finite and symmetric")
        if p > 1:  # Q couples the channels: the equation for kron(M, I_p)
            M, tb, p = np.kron(M, np.eye(p)), np.repeat(tb, p), 1

    idx = pinned_index(M, Qm)
    Mb, Qb, tbb = _stack(M, idx), _stack(Qm, idx), tb[idx]
    if not np.isscalar(Q):
        lambda_min_q = float(np.linalg.eigvalsh(Qb)[:, 0].min())
        if lambda_min_q <= 0.0:
            raise ValueError("Q must be positive definite")

    # per block, S M S = U diag(eigs) U^T, S = sqrt(Tb): the condition estimate and the solve
    sb = np.sqrt(tbb)
    ss = sb[:, :, None] * sb[:, None, :]
    eigs, U = np.linalg.eigh(Mb * ss)
    lo, hi = eigs[:, 0].min(), eigs[:, -1].max()
    if lo <= 0.0:
        raise ValueError(
            "estimation matrix must be positive definite; "
            "is the communication graph connected?"
        )
    cond = hi / lo
    if cond > 1e12:
        raise IllConditionedError(
            f"Lyapunov system condition estimate {cond:.3e} exceeds 1e12; "
            "reduce the network size or rescale theta_bar"
        )

    # P = V X V^T, V = S^-1 U, turns it into (eigs_i + eigs_j) X_ij = (U^T S Q S U)_ij
    V = U / sb[:, :, None]
    X = (U.mT @ (Qb * ss) @ U) / (eigs[:, :, None] + eigs[:, None, :])
    Pb = V @ X @ V.mT
    Pb = 0.5 * (Pb + Pb.mT)
    P = np.zeros_like(Qm)
    P[idx[:, :, None], idx[:, None, :]] = Pb
    R = Pb @ (tbb[:, :, None] * Mb) + (Mb * tbb[:, None, :]) @ Pb - Qb
    p_eigs = np.linalg.eigvalsh(Pb)
    # off the blocks the defect is exactly 0; the full defect is R (x) I_p,
    # so its norms are sqrt(p) times R's and Q's
    scale = np.sqrt(p)
    residual = float(scale * np.sqrt(float(np.vdot(R, R))))
    if residual > 1e-8 * scale * np.linalg.norm(Qm, "fro"):
        raise IllConditionedError(
            f"Lyapunov solve residual {residual:.3e} exceeds 1e-8 * ||Q||_F; "
            "reduce the network size or rescale theta_bar"
        )
    if p_eigs[:, 0].min() <= 0.0:
        raise ValueError("Lyapunov solve produced a non-positive-definite P")
    return LyapunovPair(
        P=P,
        Q=Qm,
        residual=residual,
        cond=float(cond),
        p_norm=float(p_eigs[:, -1].max()),
        lambda_min_q=lambda_min_q,
    )


def random_connected_graph(rng, n_nodes):
    """Sample unit-weight undirected graphs, each edge present with
    probability 1/2, until :class:`CommGraph` accepts one as connected."""
    while True:
        a = np.zeros((n_nodes, n_nodes))
        for i in range(n_nodes):
            for j in range(i + 1, n_nodes):
                if rng.random() < 0.5:
                    a[i, j] = a[j, i] = 1.0
        try:
            return CommGraph(a)
        except DisconnectedGraphError:
            pass
