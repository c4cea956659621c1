import pickle

import numpy as np
import pytest

from nes_sim import (
    GAME_REGISTRY,
    DimensionMismatchError,
    GameDefinition,
    NotStronglyMonotoneError,
    QuadraticGame,
    random_strongly_monotone_game,
    sensor_network_game,
)
from tests.conftest import X0, central_difference, cost_gradients, quadratic_cost

COUPLING = np.array([[4.0, -2.0, 0.0], [-2.0, 6.0, -2.0], [0.0, -2.0, 4.0]])


def test_cost_at_equilibrium(sensor_game, x_star):
    # hand evaluation: 0.578125 - 1.75 + 3 + 0.828125
    assert quadratic_cost(sensor_game, 0, x_star) == pytest.approx(2.65625, abs=1e-12)


def test_cost_zero_game():
    g = QuadraticGame(
        r=np.zeros((2, 1, 1)), p_vec=np.zeros((2, 1)), q=np.zeros(2), m_weights=np.zeros((2, 2))
    )
    assert quadratic_cost(g, 0, [3.0, -4.0]) == 0.0
    assert quadratic_cost(g, 1, [0.0, 0.0]) == 0.0


def test_cost_constant_term_survives_at_origin(sensor_game):
    assert quadratic_cost(sensor_game, 2, np.zeros(6)) == pytest.approx(6.0, abs=0.0)


def test_cost_dimension_error(sensor_game):
    with pytest.raises(DimensionMismatchError) as exc:
        quadratic_cost(sensor_game, 0, np.zeros(5))
    assert "expected length 6" in str(exc.value)
    assert "got 5" in str(exc.value)


def test_player_index_range(sensor_game):
    with pytest.raises(IndexError):
        quadratic_cost(sensor_game, 3, np.zeros(6))


def test_pseudo_gradient_zero_at_equilibrium(sensor_game, x_star):
    assert np.max(np.abs(sensor_game.pseudo_gradient(x_star))) <= 1e-12


def test_pseudo_gradient_benchmark_point(sensor_game):
    # hand evaluation of 2 x_i + p_i + 2 sum_j w_ij (x_i - x_j)
    expected = np.array([42.0, -12.0, -22.0, 28.0, -4.0, -8.0])
    np.testing.assert_allclose(sensor_game.pseudo_gradient(X0), expected, rtol=0, atol=1e-12)


def test_pseudo_gradient_constant_costs():
    # constant costs: a zero pseudo-gradient and a zero Jacobian
    g = GameDefinition(2, 1, np.zeros_like, lambda x: np.zeros((2, 2)))
    np.testing.assert_array_equal(g.pseudo_gradient([1.0, 2.0]), np.zeros(2))
    np.testing.assert_array_equal(g.game_jacobian([1.0, 2.0]), np.zeros((2, 2)))


def test_partial_gradient_at_estimate(sensor_game, x_star):
    # player i's partial gradient at an estimate is block i of the
    # pseudo-gradient there
    np.testing.assert_allclose(sensor_game.pseudo_gradient(x_star)[:2], np.zeros(2), atol=1e-12)
    np.testing.assert_allclose(sensor_game.pseudo_gradient(X0)[:2], [42.0, -12.0], atol=1e-12)
    # linear term survives at the origin
    np.testing.assert_allclose(sensor_game.pseudo_gradient(np.zeros(6))[4:], [-4.0, 2.0], atol=0.0)


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
    assert sensor_game.monotonicity_constant() == pytest.approx(2.0, abs=1e-12)


def test_monotonicity_single_player():
    g = QuadraticGame(
        r=np.ones((1, 1, 1)), p_vec=np.zeros((1, 1)), q=np.zeros(1), m_weights=np.zeros((1, 1))
    )
    assert g.monotonicity_constant() == pytest.approx(2.0, abs=1e-12)


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


# two players on one action channel, coupled
GOOD_ARRAYS = {"r": np.ones((2, 1, 1)), "p_vec": np.zeros((2, 1)), "q": np.zeros(2),
               "m_weights": np.ones((2, 2)) - np.eye(2)}


@pytest.mark.parametrize(
    "key, value, error, message",
    [
        ("r", np.ones((2, 1, 2)), ValueError, "r must have shape (n_players, p, p)"),
        ("p_vec", np.zeros((2, 2)), DimensionMismatchError,
         "linear coefficients p_vec: expected length 2, got 4"),
        ("q", np.zeros(3), DimensionMismatchError, "constant offsets q: expected length 2, got 3"),
        ("m_weights", np.zeros((2, 3)), DimensionMismatchError,
         "coupling matrix m_weights: expected length 4, got 6"),
        ("m_weights", np.ones((2, 2)), ValueError, "m_weights must have a zero diagonal"),
        ("m_weights", -(np.ones((2, 2)) - np.eye(2)), ValueError,
         "m_weights must be nonnegative"),
    ],
    ids=["r-shape", "p_vec-shape", "q-size", "m_weights-shape", "diagonal", "negative"],
)
def test_quadratic_game_refuses_malformed_arrays(key, value, error, message):
    QuadraticGame(**GOOD_ARRAYS)
    with pytest.raises(error) as info:
        QuadraticGame(**{**GOOD_ARRAYS, key: value})
    assert str(info.value) == message


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("key", ["r", "p_vec", "q", "m_weights"])
def test_quadratic_game_refuses_non_finite_arrays(key, bad):
    # unchecked, a NaN r is accepted and exact_ne() calls the game "not strongly monotone"
    value = np.array(GOOD_ARRAYS[key], dtype=float)
    value.flat[1] = bad  # for m_weights, off the diagonal; finiteness is checked first
    with pytest.raises(ValueError, match=f"^{key} must be finite$"):
        QuadraticGame(**{**GOOD_ARRAYS, key: value})


@pytest.mark.parametrize(
    "key, value",
    [
        ("r", np.full((2, 1, 1), 1e308)),  # 2 r overflows
        ("r", np.full((2, 1, 1), 6e307)),  # H is finite, H + H^T is not
        ("m_weights", 1e308 * (1.0 - np.eye(2))),  # -2 w overflows
    ],
    ids=["2r", "symmetric-part", "couplings"],
)
def test_quadratic_game_refuses_an_overflowing_h(key, value):
    # refused by name and without a RuntimeWarning, which the suite makes an error
    with pytest.raises(ValueError, match="^the pseudo-gradient matrix H overflows the float range"):
        QuadraticGame(**{**GOOD_ARRAYS, key: value})


@pytest.mark.parametrize(
    "n_players, action_dim, message",
    [
        (0, 1, "n_players must be a positive integer"),
        (1, 0, "action_dim must be a positive integer"),
        # a float was truncated (2.5 players were 2) and a bool read as 1
        (2.5, 1, "n_players must be a positive integer"),
        (True, 1, "n_players must be a positive integer"),
        (2, 1.5, "action_dim must be a positive integer"),
        (2, np.True_, "action_dim must be a positive integer"),
    ],
)
def test_a_game_needs_a_player_and_an_action_channel(n_players, action_dim, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GameDefinition(n_players, action_dim, lambda rows: rows, lambda x: np.eye(1))


def test_a_game_takes_numpy_integers_as_ints():
    game = GameDefinition(np.int64(2), np.uint8(3), lambda rows: rows, lambda x: np.eye(6))
    assert (game.n_players, game.action_dim) == (2, 3)
    assert type(game.n_players) is int and type(game.action_dim) is int


def _gradient_gap(game, x):
    # analytic pseudo-gradient against central differences of the costs,
    # relative to max(1, largest difference quotient)
    fd = cost_gradients(game, x)
    return np.max(np.abs(game.pseudo_gradient(x) - fd)) / max(1.0, np.max(np.abs(fd)))


def test_analytic_gradients_match_finite_differences(sensor_game):
    rng = np.random.default_rng(0)
    for x in rng.uniform(-5, 5, (100, 6)):
        assert _gradient_gap(sensor_game, x) <= 1e-5


def test_random_games_gradient_consistency():
    rng = np.random.default_rng(11)
    for _ in range(5):
        game = random_strongly_monotone_game(rng, int(rng.integers(2, 5)), int(rng.integers(1, 3)))
        for x in rng.uniform(-5, 5, (20, game.profile_dim)):
            assert _gradient_gap(game, x) <= 1e-5


def test_partial_gradients_are_blocks_of_pseudo_gradient():
    # with every estimate at x, player i's own gradient at its estimate is
    # block i of the pseudo-gradient at x; the block-row product sums in
    # another order, so 1e-15 of the row's sum of absolute terms
    rng = np.random.default_rng(7)
    for _ in range(5):
        game = random_strongly_monotone_game(rng, int(rng.integers(2, 5)), int(rng.integers(1, 3)))
        absH, absc = np.abs(game.jacobian_matrix), np.abs(game.p_vec.ravel())
        for x in rng.uniform(-5, 5, (10, game.profile_dim)):
            scale = absH @ np.abs(x) + absc
            own = game.own_gradients_at_estimates(np.tile(x, game.n_players))
            assert np.all(np.abs(own - game.pseudo_gradient(x)) <= 1e-15 * scale)


def test_random_games_equilibrium_residual():
    rng = np.random.default_rng(3)
    for _ in range(10):
        game = random_strongly_monotone_game(rng, int(rng.integers(2, 5)), int(rng.integers(1, 3)))
        assert np.max(np.abs(game.pseudo_gradient(game.exact_ne()))) <= 1e-10


def test_monotonicity_inequality_random_pairs():
    rng = np.random.default_rng(5)
    game = random_strongly_monotone_game(rng, 3, 2)
    m = game.monotonicity_constant()
    assert m > 0
    for _ in range(100):
        x = rng.uniform(-10, 10, 6)
        z = rng.uniform(-10, 10, 6)
        lhs = (x - z) @ (game.pseudo_gradient(x) - game.pseudo_gradient(z))
        assert lhs >= m * np.sum((x - z) ** 2) - 1e-9


def test_symmetric_part_eigenvalue_bound(sensor_game):
    H = sensor_game.game_jacobian(np.zeros(6))
    m = sensor_game.monotonicity_constant()
    assert np.linalg.eigvalsh(0.5 * (H + H.T))[0] >= m - 1e-9


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
    # a GameDefinition over a quadratic game's own stacked pseudo-gradient
    # gives its rows; its own gradients at the estimates, derived from one
    # pseudo-gradient call, match the block-row product to 1e-15 of each
    # row's sum of absolute terms, on a stack and on single inputs
    rng = np.random.default_rng(19)
    for _ in range(20):
        n, p = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        quad = random_strongly_monotone_game(rng, n, p)
        game = GameDefinition(n, p, quad.pseudo_gradient, lambda x: quad.jacobian_matrix)
        d, absH, absc = quad.profile_dim, np.abs(quad.jacobian_matrix), np.abs(quad.p_vec.ravel())
        xs = rng.normal(scale=3.0, size=(7, d))
        np.testing.assert_array_equal(game.pseudo_gradient(xs), quad.pseudo_gradient(xs))
        np.testing.assert_array_equal(game.pseudo_gradient(xs[0]), quad.pseudo_gradient(xs[:1])[0])
        ys = rng.normal(scale=3.0, size=(25, n * d))
        derived = game.own_gradients_at_estimates(ys)
        assert derived.shape == (25, d)
        for y, g in zip(ys, derived):
            scale = (absH.reshape(n, p, d) @ np.abs(y).reshape(n, d, 1)).ravel() + absc
            own = quad.own_gradients_at_estimates(y)
            assert np.all(np.abs(g - own) <= 1e-15 * scale)
            assert np.all(np.abs(game.own_gradients_at_estimates(y) - own) <= 1e-15 * scale)
        np.testing.assert_array_equal(game.game_jacobian(xs[0]), quad.jacobian_matrix)
        for method, width in ((game.pseudo_gradient, d), (game.own_gradients_at_estimates, n * d)):
            assert method(np.zeros((0, width))).shape == (0, d)
            for bad in (np.zeros((3, width + 1)), np.zeros((1, 1, width)), np.zeros(width - 1)):
                with pytest.raises(DimensionMismatchError):
                    method(bad)
        with pytest.raises(DimensionMismatchError):
            game.game_jacobian(np.zeros(d + 1))


def test_a_wrong_shaped_evaluator_result_is_refused():
    game = GameDefinition(2, 1, lambda X: X[:, :1], lambda x: np.eye(3))
    with pytest.raises(DimensionMismatchError, match="pseudo-gradient rows"):
        game.pseudo_gradient([1.0, 2.0])
    with pytest.raises(DimensionMismatchError, match="game jacobian"):
        game.game_jacobian([1.0, 2.0])


@pytest.mark.parametrize("name", sorted(GAME_REGISTRY))
def test_registry_jacobians_match_central_differences(name):
    # each registry game's analytic Jacobian against central differences of
    # its own pseudo-gradient, to 1e-7 of max(1, largest entry)
    game = GAME_REGISTRY[name]()
    rng = np.random.default_rng(23)
    for x in rng.normal(scale=2.0, size=(50, game.profile_dim)):
        J = game.game_jacobian(x)
        fd = central_difference(game.pseudo_gradient, x)
        assert np.max(np.abs(J - fd)) <= 1e-7 * max(1.0, np.max(np.abs(J)))


def test_decoupled_quartic_is_exact_at_its_equilibrium():
    # 4 (x + s)^3 with s = (-1, 2): exactly zero at (1, -2), as is the Jacobian
    game = GAME_REGISTRY["decoupled_quartic"]()
    assert np.array_equal(game.pseudo_gradient([1.0, -2.0]), [0.0, 0.0])
    assert np.array_equal(game.game_jacobian([1.0, -2.0]), np.zeros((2, 2)))
    np.testing.assert_array_equal(game.pseudo_gradient([0.0, 0.0]), [-4.0, 32.0])
    np.testing.assert_array_equal(game.game_jacobian([0.0, 0.0]), np.diag([12.0, 48.0]))


def test_a_generic_game_refuses_the_certification_questions():
    # m, the constant Jacobian and the closed-form equilibrium are certified
    # only for quadratic games; any other game says so itself
    generic = GameDefinition(1, 1, np.negative, lambda x: -np.eye(1))
    for game in (GAME_REGISTRY["skew_bilinear"](), generic):
        with pytest.raises(NotStronglyMonotoneError, match="oracle"):
            game.exact_ne()
        with pytest.raises(NotStronglyMonotoneError, match="uncertified"):
            game.monotonicity_constant()
        with pytest.raises(NotStronglyMonotoneError, match="manually") as exc:
            game.jacobian_matrix
        assert "Lipschitz constants" in str(exc.value) and "sup_h_norm" in str(exc.value)


def test_quadratic_evaluators_are_the_affine_map_bit_for_bit():
    # QuadraticGame hands H x + c and H to GameDefinition and keeps no
    # evaluator of its own but the block-row own-gradients
    assert "pseudo_gradient" not in vars(QuadraticGame)
    assert "game_jacobian" not in vars(QuadraticGame)
    rng = np.random.default_rng(29)
    for _ in range(30):
        game = random_strongly_monotone_game(rng, int(rng.integers(1, 6)), int(rng.integers(1, 4)))
        H, c, d = game.jacobian_matrix, game.p_vec.ravel(), game.profile_dim
        x, X = rng.normal(scale=3.0, size=d), rng.normal(scale=3.0, size=(7, d))
        assert np.array_equal(game.pseudo_gradient(x), H @ x + c)
        assert np.array_equal(game.pseudo_gradient(X), (H @ X.T).T + c)
        J = game.game_jacobian(x)
        assert np.array_equal(J, H) and J is not H and not np.shares_memory(J, H)
        J[0, 0] += 1.0  # a fresh copy: the game's H is untouched
        assert np.array_equal(game.game_jacobian(X), H)


def test_quadratic_games_pickle_with_equal_evaluators():
    # the evaluators handed to GameDefinition are bound methods, not lambdas
    rng = np.random.default_rng(31)
    game = random_strongly_monotone_game(rng, 4, 2)
    twin = pickle.loads(pickle.dumps(game))
    X = rng.normal(scale=3.0, size=(5, game.profile_dim))
    Y = rng.normal(scale=3.0, size=(5, game.n_players * game.profile_dim))
    assert np.array_equal(twin.pseudo_gradient(X), game.pseudo_gradient(X))
    assert np.array_equal(twin.own_gradients_at_estimates(Y), game.own_gradients_at_estimates(Y))
    assert np.array_equal(twin.game_jacobian(X[0]), game.game_jacobian(X[0]))
    assert np.array_equal(twin.exact_ne(), game.exact_ne())
    assert twin.monotonicity_constant() == game.monotonicity_constant()


@pytest.mark.parametrize("name", ["r", "p_vec", "q", "m_weights", "_H", "_c"])
def test_a_quadratic_games_stored_arrays_are_read_only(name):
    # a write would move the game the evaluators and the oracle read after it was
    # checked: on the sensor game, H[0, 0] = -50 moved m from 2.0 to -50.07
    game = sensor_network_game()
    before = (game.pseudo_gradient(X0), game.exact_ne(), game.monotonicity_constant())
    arr = getattr(game, name)
    with pytest.raises(ValueError, match="read-only"):
        arr.flat[0] = -50.0
    if name == "_H":
        with pytest.raises(ValueError, match="read-only"):
            game.jacobian_matrix[0, 0] = -50.0
    after = (game.pseudo_gradient(X0), game.exact_ne(), game.monotonicity_constant())
    assert np.array_equal(after[0], before[0]) and np.array_equal(after[1], before[1])
    assert after[2] == before[2] == pytest.approx(2.0)
    # game_jacobian still hands out a fresh, writable copy, and a pickled game evaluates alike
    assert game.game_jacobian(X0).flags.writeable
    twin = pickle.loads(pickle.dumps(game))
    assert np.array_equal(twin.pseudo_gradient(X0), before[0])
