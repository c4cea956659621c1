import numpy as np
import pytest

from nes_sim import (
    DimensionMismatchError,
    GameDefinition,
    NotStronglyMonotoneError,
    QuadraticGame,
    check_gradient_consistency,
    random_strongly_monotone_game,
)
from tests.conftest import X0

COUPLING = np.array([[4.0, -2.0, 0.0], [-2.0, 6.0, -2.0], [0.0, -2.0, 4.0]])


def test_cost_at_equilibrium(sensor_game, x_star):
    # hand evaluation: 0.578125 - 1.75 + 3 + 0.828125
    assert sensor_game.cost(0, x_star) == pytest.approx(2.65625, abs=1e-12)


def test_cost_zero_game():
    g = QuadraticGame(
        r=np.zeros((2, 1, 1)), p_vec=np.zeros((2, 1)), q=np.zeros(2), m_weights=np.zeros((2, 2))
    )
    assert g.cost(0, [3.0, -4.0]) == 0.0
    assert g.cost(1, [0.0, 0.0]) == 0.0


def test_cost_constant_term_survives_at_origin(sensor_game):
    assert sensor_game.cost(2, np.zeros(6)) == pytest.approx(6.0, abs=0.0)


def test_cost_dimension_error(sensor_game):
    with pytest.raises(DimensionMismatchError) as exc:
        sensor_game.cost(0, np.zeros(5))
    assert "expected length 6" in str(exc.value)
    assert "got 5" in str(exc.value)


def test_player_index_range(sensor_game):
    with pytest.raises(IndexError):
        sensor_game.cost(3, np.zeros(6))


def test_pseudo_gradient_zero_at_equilibrium(sensor_game, x_star):
    assert np.max(np.abs(sensor_game.pseudo_gradient(x_star))) <= 1e-12


def test_pseudo_gradient_benchmark_point(sensor_game):
    # hand evaluation of 2 x_i + p_i + 2 sum_j w_ij (x_i - x_j)
    expected = np.array([42.0, -12.0, -22.0, 28.0, -4.0, -8.0])
    np.testing.assert_allclose(sensor_game.pseudo_gradient(X0), expected, rtol=0, atol=1e-12)


def test_pseudo_gradient_constant_costs():
    g = GameDefinition(2, 1, costs=[lambda x: 7.0, lambda x: -1.0])
    np.testing.assert_allclose(g.pseudo_gradient([1.0, 2.0]), np.zeros(2), atol=1e-9)


def test_partial_gradient_at_estimate(sensor_game, x_star):
    np.testing.assert_allclose(sensor_game.partial_gradient(0, x_star), np.zeros(2), atol=1e-12)
    np.testing.assert_allclose(sensor_game.partial_gradient(0, X0), [42.0, -12.0], atol=1e-12)
    # linear term survives at the origin
    np.testing.assert_allclose(
        sensor_game.partial_gradient(2, np.zeros(6)), [-4.0, 2.0], atol=0.0
    )


def test_game_jacobian_structure(sensor_game):
    expected = np.kron(COUPLING, np.eye(2))
    np.testing.assert_array_equal(sensor_game.game_jacobian(np.zeros(6)), expected)


def test_game_jacobian_single_player():
    g = QuadraticGame(
        r=np.ones((1, 1, 1)), p_vec=np.zeros((1, 1)), q=np.zeros(1), m_weights=np.zeros((1, 1))
    )
    np.testing.assert_array_equal(g.game_jacobian([0.3]), [[2.0]])


def test_game_jacobian_constant(sensor_game):
    rng = np.random.default_rng(7)
    ref = sensor_game.game_jacobian(rng.normal(size=6))
    for _ in range(10):
        other = sensor_game.game_jacobian(rng.normal(size=6) * 10.0)
        assert np.array_equal(ref, other)


def test_monotonicity_constant_sensor(sensor_game):
    # eigenvalues of the coupling matrix are {2, 4, 8}
    m, certified = sensor_game.monotonicity_constant()
    assert certified
    assert m == pytest.approx(2.0, abs=1e-12)


def test_monotonicity_single_player():
    g = QuadraticGame(
        r=np.ones((1, 1, 1)), p_vec=np.zeros((1, 1)), q=np.zeros(1), m_weights=np.zeros((1, 1))
    )
    m, certified = g.monotonicity_constant()
    assert certified and m == pytest.approx(2.0, abs=1e-12)


def test_monotonicity_skew_game_refuted():
    g = GameDefinition(
        2,
        1,
        costs=[lambda x: x[0] * x[1], lambda x: -x[0] * x[1]],
        gradients=[lambda x: np.array([x[1]]), lambda x: np.array([-x[0]])],
    )
    m, certified = g.monotonicity_constant(rng=0)
    assert not certified
    assert m <= 1e-9


def test_exact_ne_matches_reference(sensor_game):
    expected = np.array([-0.125, 0.75, 0.75, 0.5, 1.375, -0.25])
    assert np.max(np.abs(sensor_game.exact_ne() - expected)) <= 1e-10


def test_exact_ne_symmetric_zero():
    g = QuadraticGame(
        r=np.tile(np.eye(2), (3, 1, 1)),
        p_vec=np.zeros((3, 2)),
        q=np.zeros(3),
        m_weights=[[0, 0.7, 0.2], [0.7, 0, 1.3], [0.2, 1.3, 0]],
    )
    np.testing.assert_allclose(g.exact_ne(), np.zeros(6), atol=1e-14)


def test_exact_ne_single_player():
    g = QuadraticGame(
        r=np.eye(2)[None, :, :], p_vec=[[2.0, -2.0]], q=[0.0], m_weights=np.zeros((1, 1))
    )
    np.testing.assert_allclose(g.exact_ne(), [-1.0, 1.0], atol=1e-14)


def test_exact_ne_rejects_non_monotone():
    # r = 0 gives a singular H with m = 0
    g = QuadraticGame(
        r=np.zeros((2, 1, 1)), p_vec=np.ones((2, 1)), q=np.zeros(2), m_weights=np.zeros((2, 2))
    )
    with pytest.raises(NotStronglyMonotoneError, match="not strongly monotone"):
        g.exact_ne()


def test_quadratic_rejects_asymmetric_couplings():
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticGame(
            r=np.tile(np.eye(1), (2, 1, 1)),
            p_vec=np.zeros((2, 1)),
            q=np.zeros(2),
            m_weights=[[0.0, 1.0], [0.5, 0.0]],
        )


def test_analytic_gradients_match_finite_differences(sensor_game):
    assert check_gradient_consistency(sensor_game, rng=0, n_points=100) <= 1e-5


def test_random_games_gradient_consistency():
    rng = np.random.default_rng(11)
    for _ in range(5):
        game = random_strongly_monotone_game(rng, int(rng.integers(2, 5)), int(rng.integers(1, 3)))
        assert check_gradient_consistency(game, rng=1, n_points=20) <= 1e-5


def test_partial_gradients_are_blocks_of_pseudo_gradient():
    rng = np.random.default_rng(7)
    for _ in range(5):
        game = random_strongly_monotone_game(rng, int(rng.integers(2, 5)), int(rng.integers(1, 3)))
        p = game.action_dim
        for _ in range(10):
            x = rng.uniform(-5, 5, game.profile_dim)
            g = game.pseudo_gradient(x)
            for i in range(game.n_players):
                block = g[i * p : (i + 1) * p]
                np.testing.assert_array_equal(game.partial_gradient(i, x), block)


def test_random_games_equilibrium_residual():
    rng = np.random.default_rng(3)
    for _ in range(10):
        game = random_strongly_monotone_game(rng, int(rng.integers(2, 5)), int(rng.integers(1, 3)))
        assert np.max(np.abs(game.pseudo_gradient(game.exact_ne()))) <= 1e-10


def test_monotonicity_inequality_random_pairs():
    rng = np.random.default_rng(5)
    game = random_strongly_monotone_game(rng, 3, 2)
    m, certified = game.monotonicity_constant()
    assert certified and m > 0
    for _ in range(100):
        x = rng.uniform(-10, 10, 6)
        z = rng.uniform(-10, 10, 6)
        lhs = (x - z) @ (game.pseudo_gradient(x) - game.pseudo_gradient(z))
        assert lhs >= m * np.sum((x - z) ** 2) - 1e-9


def test_symmetric_part_eigenvalue_bound(sensor_game):
    H = sensor_game.game_jacobian(np.zeros(6))
    m, _ = sensor_game.monotonicity_constant()
    assert np.linalg.eigvalsh(0.5 * (H + H.T))[0] >= m - 1e-9


def test_finite_difference_fallback_matches_quadratic(sensor_game):
    # same costs, no analytic evaluators
    fd_game = GameDefinition(
        3, 2, costs=[sensor_game._make_cost(i) for i in range(3)]
    )
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.uniform(-5, 5, 6)
        ga = sensor_game.pseudo_gradient(x)
        gf = fd_game.pseudo_gradient(x)
        assert np.max(np.abs(ga - gf)) / max(1.0, np.max(np.abs(ga))) <= 1e-5
    Hf = fd_game.game_jacobian(np.zeros(6))
    assert np.max(np.abs(Hf - sensor_game.game_jacobian(np.zeros(6)))) <= 1e-4


def test_quadratic_evaluators_take_a_stack_of_rows():
    # a (B, .) stack gives B rows, each the single-input result; products only
    # sum in another order, so a row is held to 1e-15 of its largest sum of
    # absolute terms, sum_j |H_ij v_j| + |c_i|
    rng = np.random.default_rng(13)
    for _ in range(10):
        n, p = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        game = random_strongly_monotone_game(rng, n, p)
        d, absH, absc = game.profile_dim, np.abs(game.jacobian_matrix), np.abs(game.p_vec.ravel())
        xs = rng.normal(scale=3.0, size=(25, d))
        stacked = game.pseudo_gradient(xs)
        assert stacked.shape == (25, d)
        for x, g in zip(xs, stacked):
            scale = np.max(absH @ np.abs(x) + absc)
            assert np.max(np.abs(g - game.pseudo_gradient(x))) <= 1e-15 * scale
        ys = rng.normal(scale=3.0, size=(25, n * d))
        stacked = game.own_gradients_at_estimates(ys)
        assert stacked.shape == (25, d)
        for y, g in zip(ys, stacked):
            terms = absH.reshape(n, p, d) @ np.abs(y).reshape(n, d, 1)
            scale = np.max(terms.ravel() + absc)
            assert np.max(np.abs(g - game.own_gradients_at_estimates(y))) <= 1e-15 * scale
        np.testing.assert_array_equal(game.game_jacobian(xs), game.game_jacobian(xs[0]))
        for method, width in (
            (game.pseudo_gradient, d),
            (game.own_gradients_at_estimates, n * d),
            (game.game_jacobian, d),
        ):
            for bad in (np.zeros((3, width + 1)), np.zeros((1, 1, width)), np.zeros((2, 3, width))):
                with pytest.raises(DimensionMismatchError):
                    method(bad)


def test_generic_evaluators_take_a_stack_of_rows():
    # a plain GameDefinition evaluates a (B, .) stack one row at a time, so
    # each row is exactly the single-input result
    rng = np.random.default_rng(19)
    quad = random_strongly_monotone_game(rng, 3, 2)
    game = GameDefinition(
        3, 2, costs=[lambda x, i=i: quad.cost(i, x) for i in range(3)],
        gradients=[lambda x, i=i: quad.partial_gradient(i, x) for i in range(3)],
    )
    for method, width in ((game.pseudo_gradient, 6), (game.own_gradients_at_estimates, 18)):
        rows = rng.normal(scale=3.0, size=(7, width))
        np.testing.assert_array_equal(method(rows), np.array([method(r) for r in rows]))
        assert method(rows[:0]).shape == (0, 6)
        with pytest.raises(DimensionMismatchError):
            method(np.zeros((3, width + 1)))
