import numpy as np
import pytest
import scipy.linalg

from nes_sim import (
    CommGraph,
    DimensionMismatchError,
    DisconnectedGraphError,
    GainSet,
    IllConditionedError,
    SimConfig,
    StrategyTag,
    estimation_matrix,
    random_connected_graph,
    solve_lyapunov,
    stability_guard,
)
from nes_sim.presets import complete_graph_adjacency, path_graph_adjacency


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


def test_connectivity():
    assert CommGraph(path_graph_adjacency()).is_connected()
    assert CommGraph(complete_graph_adjacency()).is_connected()
    assert CommGraph([[0.0]]).is_connected()
    two_edges = np.zeros((4, 4))
    two_edges[0, 1] = two_edges[1, 0] = 1.0
    two_edges[2, 3] = two_edges[3, 2] = 1.0
    assert not CommGraph(two_edges).is_connected()


def test_connectivity_matches_fiedler_sign():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        a = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    a[i, j] = a[j, i] = 1.0
        g = CommGraph(a)
        assert g.is_connected() == (g.algebraic_connectivity() > 1e-9)


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
    # asymmetric, and a 0 x 0 graph as an IndexError in is_connected()
    for weight in (np.inf, np.nan):
        with pytest.raises(ValueError, match="adjacency weights must be finite"):
            CommGraph([[0.0, weight], [weight, 0.0]])
    with pytest.raises(ValueError, match="at least one node"):
        CommGraph(np.zeros((0, 0)))


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
    m = estimation_matrix(CommGraph([[0.0]]), 1)
    np.testing.assert_array_equal(m, [[0.0]])


def test_estimation_matrix_kron_expansion_in_action_dim():
    g = CommGraph(path_graph_adjacency())
    m1 = estimation_matrix(g, 1)
    m2 = estimation_matrix(g, 2)
    # per-channel structure replicates across action dimensions
    np.testing.assert_array_equal(m2, np.kron(m1, np.eye(2)))


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

    # the guard reads lambda_max(M) from M1 = estimation_matrix(graph, 1)
    sim, gains = SimConfig(dt=1e-4, t_end=1.0), GainSet(theta=1000.0, theta_bar=1.0)
    tag = StrategyTag.FIRST_ORDER_DIST
    from_m1 = stability_guard(sim, tag, gains=gains, M=m1)
    assert from_m1 == pytest.approx(stability_guard(sim, tag, gains=gains, M=m), rel=1e-12)


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
