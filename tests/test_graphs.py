import numpy as np
import pytest
import scipy.linalg

from nes_sim import (
    CommGraph,
    DimensionMismatchError,
    DisconnectedGraphError,
    GainSet,
    IllConditionedError,
    LyapunovPair,
    SimConfig,
    StrategyTag,
    estimation_matrix,
    random_connected_graph,
    solve_lyapunov,
    stability_guard,
)
from nes_sim import graphs
from nes_sim.games import random_strongly_monotone_game
from nes_sim.graphs import pinned_index, spectral_norm
from nes_sim.presets import complete_graph_adjacency, path_graph_adjacency
from nes_sim.tuning import theta_bounds_second_order, theta_star_first_order
from tests.conftest import block_lambda_max


def test_laplacian_path():
    g = CommGraph(path_graph_adjacency())
    np.testing.assert_array_equal(
        g.laplacian(), [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
    )


def test_laplacian_complete():
    g = CommGraph(complete_graph_adjacency())
    np.testing.assert_array_equal(
        g.laplacian(), [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    )


def test_laplacian_single_node():
    np.testing.assert_array_equal(CommGraph([[0.0]]).laplacian(), np.zeros((1, 1)))


def test_laplacian_rows_sum_to_zero_and_psd():
    rng = np.random.default_rng(0)
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(2, 8)))
        lap = g.laplacian()
        np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)
        assert np.linalg.eigvalsh(lap)[0] >= -1e-12


DISCONNECTED = "^communication graph must be connected for consensus estimation$"


def _fiedler(a):
    # lambda_2 of D - A, taken here rather than from the graph under test
    a = np.asarray(a, dtype=float)
    return np.linalg.eigvalsh(np.diag(a.sum(axis=1)) - a)[1]


def test_connectivity():
    for a in (path_graph_adjacency(), complete_graph_adjacency()):
        assert CommGraph(a).algebraic_connectivity() == _fiedler(a) > 1e-9
    assert CommGraph([[0.0]]).algebraic_connectivity() == 0.0
    two_edges = np.zeros((4, 4))
    two_edges[0, 1] = two_edges[1, 0] = 1.0
    two_edges[2, 3] = two_edges[3, 2] = 1.0
    assert _fiedler(two_edges) <= 1e-9
    with pytest.raises(DisconnectedGraphError, match=DISCONNECTED):
        CommGraph(two_edges)


def test_connectivity_matches_fiedler_sign():
    # construction succeeds exactly when lambda_2 > 1e-9; the seeded draws hold both kinds
    rng = np.random.default_rng(1)
    built = []
    for _ in range(10):
        n = int(rng.integers(2, 7))
        a = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    a[i, j] = a[j, i] = 1.0
        connected = _fiedler(a) > 1e-9
        try:
            CommGraph(a)
        except DisconnectedGraphError:
            built.append(False)
        else:
            built.append(True)
        assert built[-1] == connected
    assert set(built) == {True, False}


def test_a_disconnected_graph_is_refused_when_built():
    # two components, an isolated node, and an edge too light to count: each is
    # refused by CommGraph itself, so no reader of a graph (estimation_matrix,
    # pinned_blocks, make_rhs, the stability guard) ever holds one
    two_edges = np.zeros((4, 4))
    two_edges[0, 1] = two_edges[1, 0] = 1.0
    two_edges[2, 3] = two_edges[3, 2] = 1.0
    isolated = np.zeros((3, 3))
    isolated[0, 1] = isolated[1, 0] = 1.0
    light = [[0.0, 1e-10], [1e-10, 0.0]]
    for a in (two_edges, isolated, light):
        with pytest.raises(DisconnectedGraphError, match=DISCONNECTED):
            CommGraph(a)
    # nor can a checked graph be cut afterwards: its adjacency is a read-only copy
    given = path_graph_adjacency()
    graph = CommGraph(given)
    given[0, 1] = given[1, 0] = 0.0
    assert graph.adjacency[0, 1] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        graph.adjacency[0, 1] = 0.0


def test_graph_validation():
    with pytest.raises(ValueError, match="^adjacency must be a square matrix$"):
        CommGraph(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        CommGraph([[0, 1], [0, 0]])
    with pytest.raises(ValueError, match="nonnegative"):
        CommGraph([[0, -1], [-1, 0]])
    with pytest.raises(ValueError, match="diagonal"):
        CommGraph([[1, 1], [1, 0]])
    # unchecked, an infinite weight surfaces as "must be connected", NaN as
    # asymmetric, and a 0 x 0 graph as an IndexError in the connectivity test
    for weight in (np.inf, np.nan):
        with pytest.raises(ValueError, match="adjacency weights must be finite"):
            CommGraph([[0.0, weight], [weight, 0.0]])
    with pytest.raises(ValueError, match="at least one node"):
        CommGraph(np.zeros((0, 0)))


def test_graph_refuses_degrees_that_overflow():
    # each weight is finite, but node 0's degree 2e308 is not; unchecked, the
    # Laplacian holds inf and the eigensolvers fail after RuntimeWarnings
    a = 1e308 * (1.0 - np.eye(3))
    message = r"^adjacency degrees \(row sums\) overflow the float range$"
    with pytest.raises(ValueError, match=message):
        CommGraph(a)
    assert CommGraph(0.5 * a).laplacian()[0, 0] == 1e308


def test_estimation_matrix_path_structure():
    g = CommGraph(path_graph_adjacency())
    m = estimation_matrix(g, 1)
    assert m.shape == (9, 9)
    # row of estimate (owner 1, target 2): Laplacian consensus with owner 2's
    # copy plus the direct-observation injection a_12 on the diagonal
    assert m[1, 1] == 2.0  # degree 1 + a_12
    assert m[1, 4] == -1.0  # coupling to y_22
    assert m[1, 7] == 0.0  # no link 1-3
    np.testing.assert_array_equal(m, m.T)


def test_estimation_matrix_single_node_degenerate():
    for p in (1, 2, 3):
        np.testing.assert_array_equal(estimation_matrix(CommGraph([[0.0]]), p), np.zeros((p, p)))


def test_estimation_matrix_kron_expansion_in_action_dim():
    g = CommGraph(path_graph_adjacency())
    m1 = estimation_matrix(g, 1)
    m2 = estimation_matrix(g, 2)
    # per-channel structure replicates across action dimensions
    np.testing.assert_array_equal(m2, np.kron(m1, np.eye(2)))


@pytest.mark.parametrize("bad", [0, -1, 1.5, 2.9, 2.0, True, np.True_, "2", None])
def test_action_dim_must_be_a_positive_integer(bad):
    # 0 gave a 0 x 0 matrix, 1.5 and 2.9 were truncated to 1 and 2, True read as 1
    graph = CommGraph(path_graph_adjacency())
    m1 = estimation_matrix(graph, 1)
    message = "^action_dim must be a positive integer$"
    with pytest.raises(ValueError, match=message):
        estimation_matrix(graph, bad)
    with pytest.raises(ValueError, match=message):
        solve_lyapunov(m1, 1.0, 1.0, action_dim=bad)


def test_action_dim_may_be_a_numpy_integer():
    graph = CommGraph(path_graph_adjacency())
    m1 = estimation_matrix(graph, 1)
    for p in (np.int64(2), np.uint8(2)):
        np.testing.assert_array_equal(estimation_matrix(graph, p), estimation_matrix(graph, 2))
        assert solve_lyapunov(m1, 1.0, 1.0, p).residual == solve_lyapunov(m1, 1.0, 1.0, 2).residual


def test_estimation_matrix_path_lambda_min():
    g = CommGraph(path_graph_adjacency())
    lam = np.linalg.eigvalsh(estimation_matrix(g, 1))[0]
    # pinned from this implementation's eigensolve; the value is 2 - sqrt(3)
    assert lam == pytest.approx(2.0 - np.sqrt(3.0), rel=1e-10)
    assert lam > 1e-9


def test_estimation_matrix_positive_definite_random():
    rng = np.random.default_rng(4)
    for _ in range(8):
        n = int(rng.integers(2, 11))
        g = random_connected_graph(rng, n)
        lam = np.linalg.eigvalsh(estimation_matrix(g, 1))[0]
        assert lam >= 1e-9


def test_estimation_matrix_rejects_disconnected():
    two_edges = np.zeros((4, 4))
    two_edges[0, 1] = two_edges[1, 0] = 1.0
    two_edges[2, 3] = two_edges[3, 2] = 1.0
    with pytest.raises(DisconnectedGraphError, match="connected"):
        estimation_matrix(CommGraph(two_edges), 1)


def test_estimation_matrix_relabeling_invariance():
    rng = np.random.default_rng(9)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        g = random_connected_graph(rng, n)
        perm = rng.permutation(n)
        g2 = CommGraph(g.adjacency[np.ix_(perm, perm)])
        m1 = estimation_matrix(g, 1)
        m2 = estimation_matrix(g2, 1)
        # estimate (k, l) in the new labels is estimate (perm[k], perm[l])
        idx = np.array([perm[k] * n + perm[l] for k in range(n) for l in range(n)])
        np.testing.assert_array_equal(m2, m1[np.ix_(idx, idx)])


def test_pinned_blocks_are_the_diagonal_blocks_of_m1():
    # 48 seeded connected graphs, unit and random real weights, N = 2..9: M1 is
    # exactly zero off the rows j, N + j, ..., pinned_index reads those rows,
    # and block j of the stack is M1's block of player j's estimates, bit for
    # bit, signs of zeros included
    rng = np.random.default_rng(73)
    for case in range(48):
        n = 2 + case % 8
        graph = random_connected_graph(rng, n)
        if case % 2:
            weights = np.triu(rng.uniform(0.1, 3.0, (n, n)), 1)
            graph = CommGraph(graph.adjacency * (weights + weights.T))
        m1, blocks = estimation_matrix(graph, 1), graph.pinned_blocks()
        assert blocks.shape == (n, n, n)
        player = np.arange(n * n) % n  # the estimated player of each row
        assert (m1[player[:, None] != player[None, :]] == 0.0).all()
        idx = pinned_index(m1)
        for j in range(n):
            np.testing.assert_array_equal(idx[j], j + n * np.arange(n))
            sub = m1[np.ix_(idx[j], idx[j])]
            assert np.array_equal(blocks[j], sub)
            assert np.array_equal(np.signbit(blocks[j]), np.signbit(sub))
    np.testing.assert_array_equal(CommGraph([[0.0]]).pinned_blocks(), np.zeros((1, 1, 1)))


def test_solve_lyapunov_refuses_a_p_that_is_not_positive_definite(monkeypatch):
    # the solved P's spectrum, read by eigvalsh, is the last gate: flipped, it
    # refuses the pair (with a scalar Q it is the only eigvalsh the solve takes)
    m1 = estimation_matrix(CommGraph(path_graph_adjacency()), 1)
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(graphs.np.linalg, "eigvalsh", lambda a: -eigvalsh(a)[..., ::-1])
    with pytest.raises(ValueError, match="^Lyapunov solve produced a non-positive-definite P$"):
        solve_lyapunov(m1, 1.0, 1.0)


def test_solve_lyapunov_identity():
    pair = solve_lyapunov(np.eye(3))
    np.testing.assert_allclose(pair.P, 0.5 * np.eye(3), atol=1e-14)
    assert pair.residual <= 1e-12


def test_solve_lyapunov_diagonal():
    pair = solve_lyapunov(np.diag([1.0, 2.0]))
    np.testing.assert_allclose(pair.P, np.diag([0.5, 0.25]), atol=1e-14)


def test_solve_lyapunov_path_graph_roundtrip():
    m = estimation_matrix(CommGraph(path_graph_adjacency()), 2)
    pair = solve_lyapunov(m, 1.0, 1.0)
    assert pair.residual <= 1e-8 * np.linalg.norm(pair.Q, "fro")
    np.testing.assert_array_equal(pair.P, pair.P.T)
    assert np.linalg.eigvalsh(pair.P)[0] > 0.0


def test_solve_lyapunov_refuses_a_large_residual(monkeypatch):
    # eigenvalues off by 1e-6 relative put P off by about as much, which
    # leaves a residual far above 1e-8 * ||Q||_F
    eigh = np.linalg.eigh

    def perturbed(a):
        eigs, vecs = eigh(a)
        return eigs * (1.0 + 1e-6), vecs

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    m = estimation_matrix(CommGraph(path_graph_adjacency()), 2)
    with pytest.raises(IllConditionedError, match="residual"):
        solve_lyapunov(m, 1.0, 1.0)


@pytest.mark.parametrize("n_nodes", [3, 6, 20])
def test_solve_lyapunov_against_scipy(n_nodes):
    rng = np.random.default_rng(12)
    ring = np.roll(np.eye(n_nodes), 1, axis=1) + np.roll(np.eye(n_nodes), -1, axis=1)
    m = estimation_matrix(CommGraph(ring), 2)
    n = m.shape[0]
    tb = rng.uniform(0.5, 2.0, n)
    a = rng.normal(size=m.shape)
    # scaled so that ||Q|| does not grow with n: the elementwise tolerance
    # below is only reachable in float64 while ||P|| stays moderate
    q = a @ a.T / n + np.eye(n)
    pair = solve_lyapunov(m, tb, q)
    # independent route: scipy's Bartels-Stewart on  (M Tb) P + P (M Tb)^T = Q
    expected = scipy.linalg.solve_continuous_lyapunov(m * tb[None, :], q)
    np.testing.assert_allclose(pair.P, expected, rtol=1e-9, atol=1e-11)
    # P is symmetric positive definite: its largest eigenvalue is its 2-norm
    assert abs(pair.p_norm - np.linalg.norm(pair.P, 2)) <= 1e-12 * np.linalg.norm(pair.P, 2)


def _dense_q(n, rng):
    a = rng.normal(size=(n, n))
    return a @ a.T / n + np.eye(n)


def _tridiagonal_q(n):
    return 2.0 * np.eye(n) + 0.5 * (np.eye(n, k=1) + np.eye(n, k=-1))


def _full_reference(m, tb, qm):
    """Test-local full-size pair: scipy's Bartels-Stewart P of (M Tb) P + P (M Tb)^T = Q,
    with its spectra read by full-size eigvalsh."""
    P = scipy.linalg.solve_continuous_lyapunov(m * tb[None, :], qm)
    return LyapunovPair(
        P=P,
        Q=qm,
        residual=0.0,
        p_norm=float(np.linalg.eigvalsh(P)[-1]),
        lambda_min_q=float(np.linalg.eigvalsh(qm)[0]),
    )


def test_block_solve_against_independent_oracles():
    # 42 seeded connected graphs: every (N, p, theta_bar kind) with N = 2..8,
    # p = 1, 2, 3 and scalar or vector theta_bar, once. The block solve agrees
    # with scipy's P to 1e-12 of max |P|; cond, p_norm and the bounds built on
    # them to 1e-10 relative; both residuals are rounding, within 1e-14 ||Q||_F.
    rng = np.random.default_rng(27)
    sim = SimConfig(dt=1e-4, t_end=1.0)
    for case in range(42):
        N, p, vector = 2 + case % 7, 1 + case % 3, case % 2 == 1
        graph = random_connected_graph(rng, N)
        game = random_strongly_monotone_game(rng, N, p)
        m1, n, q = estimation_matrix(graph, 1), N * N, 2.5
        # a connected graph splits into N pinned blocks of size N
        assert pinned_index(m1).shape == (N, N)
        tb = rng.uniform(0.5, 2.0, n) if vector else np.full(n, 1.5)
        theta_bar = tb if vector else 1.5

        pair = solve_lyapunov(m1, theta_bar, q, action_dim=p)
        ref = _full_reference(m1, tb, q * np.eye(n))
        assert pair.P.shape == (n, n)
        assert np.abs(pair.P - ref.P).max() <= 1e-12 * np.abs(ref.P).max()
        defect = pair.P @ (tb[:, None] * m1) + (m1 * tb[None, :]) @ pair.P - q * np.eye(n)
        q_norm = np.sqrt(p) * np.linalg.norm(ref.Q, "fro")
        assert abs(pair.residual - np.sqrt(p) * np.linalg.norm(defect, "fro")) <= 1e-14 * q_norm
        s = np.sqrt(tb)
        eigs = np.linalg.eigvalsh(m1 * np.outer(s, s))
        assert pair.cond == pytest.approx(eigs[-1] / eigs[0], rel=1e-10)
        assert pair.p_norm == pytest.approx(ref.p_norm, rel=1e-10)
        assert pair.lambda_min_q == ref.lambda_min_q == q

        first = theta_star_first_order(game, graph, pair).theta_star
        reference = theta_star_first_order(game, graph, ref).theta_star
        assert first == pytest.approx(reference, rel=1e-10)

        gains = GainSet(theta=1.0, theta1=1.0, K=rng.uniform(0.05, 0.2, N), theta_bar=theta_bar)
        theta = 2.0 * theta_bounds_second_order(game, graph, ref, gains).theta_star
        rep = theta_bounds_second_order(game, graph, pair, gains, theta=theta)
        full = theta_bounds_second_order(game, graph, ref, gains, theta=theta)
        l3 = np.max(gains.K) * rep.lbar.max() * np.linalg.norm(tb[:, None] * m1, 2)
        theta1 = (4.0 * full.lambda_min_a1 / (theta * theta * l3 * l3)) ** (1.0 / 3.0)
        assert rep.theta_star == pytest.approx(full.theta_star, rel=1e-10)
        assert rep.l3 == pytest.approx(l3, rel=1e-10)
        assert rep.theta1_star == pytest.approx(theta1, rel=1e-10)

        guard_gains = GainSet(theta=10.0, theta_bar=theta_bar)
        product = stability_guard(sim, StrategyTag.FIRST_ORDER_DIST, gains=guard_gains, graph=graph)
        rate = 10.0 * tb.max() * np.linalg.eigvalsh(m1)[-1]
        assert product == pytest.approx(1e-4 * rate, rel=1e-12)

        if p > 1:  # a matrix Q couples the channels: kron(M1, I_p) is solved
            qm = _tridiagonal_q(n * p) if case % 4 < 2 else _dense_q(n * p, rng)
            pair = solve_lyapunov(m1, theta_bar, qm, action_dim=p)
            ref = _full_reference(np.kron(m1, np.eye(p)), np.repeat(tb, p), qm)
            assert np.abs(pair.P - ref.P).max() <= 1e-12 * np.abs(ref.P).max()
            assert pair.p_norm == pytest.approx(ref.p_norm, rel=1e-10)
            assert pair.lambda_min_q == pytest.approx(ref.lambda_min_q, rel=1e-10)


def _interleaved_blocks():
    # blocks of sizes 3, 1, 2, 2 with their indices interleaved
    m = np.zeros((8, 8))
    for b in ([0, 4, 7], [1], [2, 6], [3, 5]):
        m[np.ix_(b, b)] = 0.5 + np.eye(len(b))
    return m


@pytest.mark.parametrize(
    "kind", ["one node", "one off-block link", "size N^2 p", "coupling Q", "diagonal Q"]
)
def test_pinned_index_splits_only_what_is_zero_off_the_blocks(kind):
    path = CommGraph(path_graph_adjacency())
    m1 = estimation_matrix(path, 1)
    link = np.eye(9)
    link[0, 1] = link[1, 0] = 0.5  # one symmetric nonzero between blocks 0 and 1
    mats, shape = {
        "one node": ((np.zeros((1, 1)),), (1, 1)),
        "one off-block link": ((link,), (1, 9)),
        "size N^2 p": ((estimation_matrix(path, 2),), (1, 18)),  # 18 rows are no square
        # a Q that couples the estimates of two players joins every block
        "coupling Q": ((m1, _tridiagonal_q(9)), (1, 9)),
        # a diagonal N^2 Q is zero off the blocks, so M1 still splits
        "diagonal Q": ((m1, np.diag(np.arange(1.0, 10.0))), (3, 3)),
    }[kind]
    idx = pinned_index(*mats)
    assert idx.shape == shape
    n = len(mats[0])
    if shape[0] == 1:
        np.testing.assert_array_equal(idx[0], np.arange(n))
    else:
        np.testing.assert_array_equal(idx, np.arange(n).reshape(shape).T)


def test_spectral_norm_of_matrices_off_the_pinned_path():
    # interleaved blocks, and skewed patterns that are not symmetric: one dense block
    m = _interleaved_blocks()
    assert block_lambda_max(m) == pytest.approx(np.linalg.eigvalsh(m)[-1], rel=1e-14)
    for skewed in (m * np.arange(1.0, 9.0)[:, None], np.triu(m + 1e-3 * m @ m)):
        assert spectral_norm(skewed) == pytest.approx(np.linalg.norm(skewed, 2), rel=1e-14)


@pytest.mark.parametrize("kind", ["identity", "diagonal", "mixed blocks", "kron p=2", "kron p=3"])
def test_block_solve_of_generic_matrices(kind):
    # any symmetric positive definite M, with a scalar, a tridiagonal or a dense Q
    rng = np.random.default_rng(33)
    graph = random_connected_graph(rng, 4)
    m = {
        "identity": np.eye(5),
        "diagonal": np.diag(rng.uniform(0.5, 3.0, 6)),
        "mixed blocks": _interleaved_blocks(),
        "kron p=2": estimation_matrix(graph, 2),
        "kron p=3": estimation_matrix(graph, 3),
    }[kind]
    n = m.shape[0]
    tb = rng.uniform(0.5, 2.0, n)
    for q in (1.5, _tridiagonal_q(n), _dense_q(n, rng)):
        qm = q * np.eye(n) if np.isscalar(q) else q
        pair = solve_lyapunov(m, tb, q)
        ref = _full_reference(m, tb, qm)
        assert np.abs(pair.P - ref.P).max() <= 1e-12 * np.abs(ref.P).max()
        assert pair.p_norm == pytest.approx(ref.p_norm, rel=1e-10)
        assert pair.lambda_min_q == pytest.approx(ref.lambda_min_q, rel=1e-10)
        s = np.sqrt(tb)
        eigs = np.linalg.eigvalsh(m * np.outer(s, s))
        assert pair.cond == pytest.approx(eigs[-1] / eigs[0], rel=1e-10)
        assert pair.residual <= 1e-12 * np.linalg.norm(qm, "fro")


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("graph_kind", ["ring", "random"])
def test_block_solve_of_m1_is_zero_off_the_pinned_blocks(graph_kind, p):
    # a scalar Q solves M1 per pinned block, so P is exactly zero between
    # estimates of different players; a dense solve leaves rounding there
    rng = np.random.default_rng(41)
    for N in (3, 5, 7):
        if graph_kind == "ring":
            graph = CommGraph(np.roll(np.eye(N), 1, axis=1) + np.roll(np.eye(N), -1, axis=1))
        else:
            graph = random_connected_graph(rng, N)
        m1 = estimation_matrix(graph, 1)
        pair = solve_lyapunov(m1, rng.uniform(0.5, 2.0, N * N), 1.5, action_dim=p)
        player = np.arange(N * N) % N
        assert (pair.P[player[:, None] != player[None, :]] == 0.0).all()


def test_block_solve_refuses_a_singular_m():
    # singular in one of several blocks, and singular and irreducible; the
    # Laplacian's zero eigenvalue rounds to +-1e-16, refused either way
    lap = CommGraph(path_graph_adjacency()).laplacian()
    for m in (np.diag([1.0, 0.0, 2.0]), lap, np.zeros((1, 1))):
        n = m.shape[0]
        for q in (1.0, _dense_q(n, np.random.default_rng(4))):
            with pytest.raises(ValueError, match="positive definite|condition estimate"):
                solve_lyapunov(m, 1.0, q)


def _ring_system(n_nodes, p):
    # the scipy-comparison rings: the per-channel M1 and theta_bar that the
    # factored solve takes, and the full M and theta_bar repeated over p
    rng = np.random.default_rng(12)
    ring = np.roll(np.eye(n_nodes), 1, axis=1) + np.roll(np.eye(n_nodes), -1, axis=1)
    graph = CommGraph(ring)
    tb1 = rng.uniform(0.5, 2.0, n_nodes * n_nodes)
    return graph, estimation_matrix(graph, 1), tb1, estimation_matrix(graph, p), np.repeat(tb1, p)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n_nodes", [3, 6, 20])
def test_factored_solve_matches_the_full_solve(n_nodes, p):
    graph, m1, tb1, m, tb = _ring_system(n_nodes, p)
    n = m.shape[0]
    q = 2.5
    full = solve_lyapunov(m, tb, q)
    fac = solve_lyapunov(m1, tb1, q, action_dim=p)
    assert fac.P.shape == fac.Q.shape == (n // p, n // p) and full.P.shape == (n, n)
    P = np.kron(fac.P, np.eye(p))
    scale = np.abs(full.P).max()
    assert np.abs(P - full.P).max() <= 1e-12 * scale

    # sqrt(p) ||R1||_F against the defect of the full equation, evaluated
    # directly. Both are rounding error, so they agree to within the
    # rounding of the products, far below the 1e-8 ||Q||_F gate.
    defect = P @ (tb[:, None] * m) + (m * tb[None, :]) @ P - q * np.eye(n)
    direct = np.linalg.norm(defect, "fro")
    q_norm = np.linalg.norm(full.Q, "fro")
    assert abs(fac.residual - direct) <= 1e-15 * q_norm
    assert fac.residual == pytest.approx(direct, rel=1e-2)

    assert fac.p_norm == pytest.approx(np.linalg.eigvalsh(full.P)[-1], rel=1e-12)
    assert fac.lambda_min_q == full.lambda_min_q == q
    assert fac.cond == pytest.approx(full.cond, rel=1e-12)
    s = np.sqrt(tb)
    eigs = np.linalg.eigvalsh(m * np.outer(s, s))
    assert fac.cond == pytest.approx(eigs[-1] / eigs[0], rel=1e-12)

    # the guard reads the largest eigenvalue of the full M from the graph's pinned blocks
    sim, gains = SimConfig(dt=1e-4, t_end=1.0), GainSet(theta=1000.0, theta_bar=1.0)
    tag = StrategyTag.FIRST_ORDER_DIST
    from_blocks = stability_guard(sim, tag, gains=gains, graph=graph)
    assert from_blocks == pytest.approx(1e-4 * 1000.0 * np.linalg.eigvalsh(m)[-1], rel=1e-12)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n_nodes", [3, 6, 20])
def test_matrix_q_keeps_the_full_solve(n_nodes, p):
    _, m1, tb1, m, tb = _ring_system(n_nodes, p)
    n = m.shape[0]
    a = np.random.default_rng(5).normal(size=(n, n))
    q = a @ a.T / n + np.eye(n)
    declared, plain = solve_lyapunov(m1, tb1, q, action_dim=p), solve_lyapunov(m, tb, q)
    assert declared.P.shape == declared.Q.shape == (n, n)
    np.testing.assert_array_equal(declared.P, plain.P)
    assert declared.residual == plain.residual and declared.cond == plain.cond


def test_matrix_q_must_have_the_full_size():
    _, m1, tb1, _, _ = _ring_system(3, 2)
    with pytest.raises(DimensionMismatchError, match="Q matrix"):
        solve_lyapunov(m1, tb1, np.eye(9), action_dim=2)
    with pytest.raises(ValueError, match="positive integer"):
        solve_lyapunov(m1, tb1, 1.0, action_dim=0)


def test_solve_lyapunov_scales_linearly_in_q():
    m = estimation_matrix(CommGraph(path_graph_adjacency()), 1)
    p1 = solve_lyapunov(m, 1.0, 1.0)
    p2 = solve_lyapunov(m, 1.0, 2.0)
    np.testing.assert_allclose(p2.P, 2.0 * p1.P, rtol=1e-12)


def test_solve_lyapunov_rejects_indefinite_and_ill_conditioned():
    with pytest.raises(ValueError, match="positive definite"):
        solve_lyapunov(np.diag([1.0, -1.0]))
    with pytest.raises(IllConditionedError, match="condition"):
        solve_lyapunov(np.diag([1.0, 1e-13]))
    with pytest.raises(ValueError, match="positive"):
        solve_lyapunov(np.eye(2), theta_bar=[1.0, 0.0])
    with pytest.raises(ValueError, match="symmetric"):
        solve_lyapunov(np.array([[1.0, 0.5], [0.0, 1.0]]))
    message = "^theta_bar diagonal: expected length 2, got 3$"
    with pytest.raises(DimensionMismatchError, match=message):
        solve_lyapunov(np.eye(2), theta_bar=[1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="^Q must be positive definite$"):
        solve_lyapunov(np.eye(2), 1.0, np.diag([1.0, -1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_lyapunov_refuses_a_non_finite_theta_bar(bad):
    m = estimation_matrix(CommGraph(path_graph_adjacency()), 1)
    with pytest.raises(ValueError, match="theta_bar entries must be finite and strictly positive"):
        solve_lyapunov(m, np.r_[np.ones(8), bad], 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_lyapunov_refuses_a_non_finite_q(bad):
    m = estimation_matrix(CommGraph(path_graph_adjacency()), 1)
    with pytest.raises(ValueError, match="scalar Q must be finite and positive"):
        solve_lyapunov(m, 1.0, bad)
    q = np.eye(9)
    q[0, 0] = bad  # inf passes the symmetry test; the finiteness test refuses it
    with pytest.raises(ValueError, match="Q must be finite and symmetric"):
        solve_lyapunov(m, 1.0, q)
