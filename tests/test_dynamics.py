import numpy as np
import pytest
import scipy.integrate

from nes_sim import (
    GAME_REGISTRY,
    CommGraph,
    DimensionMismatchError,
    GainSet,
    GameDefinition,
    LayoutMismatchError,
    QuadraticGame,
    SaturationSpec,
    StateLayout,
    StrategyTag,
    dynamics,
    estimation_matrix,
    lyapunov_value,
    make_rhs,
    path_graph_adjacency,
    random_connected_graph,
    random_strongly_monotone_game,
    sat,
    sat_integral,
    solve_lyapunov,
)
from tests.conftest import X0, evaluate

SPEC5 = SaturationSpec.symmetric(5.0)


# --- saturation -----------------------------------------------------------


def test_sat_scalar_examples():
    assert sat(3.0, SPEC5) == 3.0
    assert sat(7.0, SPEC5) == 5.0
    assert sat(-7.0, SPEC5) == -5.0


def test_sat_vector_example():
    np.testing.assert_array_equal(
        sat([42.0, -12.0, -22.0, 28.0, -4.0, -8.0], SPEC5), [5.0, -5.0, -5.0, 5.0, -4.0, -5.0]
    )


def test_sat_algebra():
    rng = np.random.default_rng(0)
    v = rng.uniform(-20, 20, 500)
    w = rng.uniform(-20, 20, 500)
    s = sat(v, SPEC5)
    # odd
    np.testing.assert_array_equal(sat(-v, SPEC5), -s)
    # exact bound, reached
    assert np.max(np.abs(s)) <= 5.0
    assert np.max(np.abs(s)) == 5.0
    # idempotent
    np.testing.assert_array_equal(sat(s, SPEC5), s)
    # monotone and 1-Lipschitz
    t = sat(w, SPEC5)
    assert np.all((v - w) * (s - t) >= 0.0)
    assert np.all(np.abs(s - t) <= np.abs(v - w) + 1e-15)
    # sgn(0) = 0
    assert sat(0.0, SPEC5) == 0.0


def test_sat_asymmetric_bounds():
    spec = SaturationSpec(lower=[-1.0, -2.0], upper=[3.0, 0.5])
    np.testing.assert_array_equal(sat([-5.0, 5.0], spec), [-1.0, 0.5])
    np.testing.assert_array_equal(sat([2.0, -1.0], spec), [2.0, -1.0])


def test_saturation_spec_validation():
    with pytest.raises(ValueError, match="positive"):
        SaturationSpec.symmetric(0.0)
    with pytest.raises(ValueError, match="lower < 0 < upper"):
        SaturationSpec(lower=[0.0], upper=[1.0])
    with pytest.raises(ValueError, match="matching shapes"):
        SaturationSpec(lower=[-1.0, -1.0], upper=[1.0])
    with pytest.raises(Exception, match="expected length"):
        SPEC5.check_size(6)  # scalar broadcasts fine
        SaturationSpec(lower=-np.ones(4), upper=np.ones(4)).check_size(6)
    for shape in ((1, 6), (2, 3), (6, 1)):  # the right size, not the shape (6,)
        with pytest.raises(DimensionMismatchError, match=rf"got shape \({shape[0]}, {shape[1]}\)"):
            SaturationSpec.symmetric(np.full(shape, 5.0)).check_size(6)


def test_saturation_spec_refuses_nan_bounds():
    # NaN fails every comparison, so it must not pass as "lower < 0 < upper"
    for lower, upper in ((np.nan, 1.0), (-1.0, np.nan), ([-1.0, np.nan], [1.0, 1.0])):
        with pytest.raises(ValueError, match="lower < 0 < upper"):
            SaturationSpec(lower, upper)


def test_symmetric_spec_refuses_nan_u_bar():
    for u_bar in (np.nan, [5.0, np.nan]):
        with pytest.raises(ValueError, match="u_bar must be strictly positive"):
            SaturationSpec.symmetric(u_bar)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def test_clip_is_max_then_min_bit_for_bit():
    # the package's one clamp primitive, called in place as the fields call it
    tiny = np.finfo(float).tiny
    for lower, upper in ((-5.0, 5.0), (np.array(-0.5), np.array(2.0)),
                         (np.array([-1.0, -2.0, -0.25]), np.array([3.0, 0.5, 1e-300]))):
        lo, hi = np.broadcast_to(lower, 3), np.broadcast_to(upper, 3)
        special = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, tiny, -tiny]
        edges = [*lo, *hi, *np.nextafter(lo, -np.inf), *np.nextafter(lo, np.inf),
                 *np.nextafter(hi, -np.inf), *np.nextafter(hi, np.inf)]
        rng = np.random.default_rng(5)
        values = np.r_[special, edges, rng.normal(scale=4.0, size=60)]
        values = values[: values.size // 3 * 3].reshape(-1, 3)
        for u in values:
            expected = np.minimum(np.maximum(u, lower), upper)
            got = u.copy()
            assert dynamics.clip(got, lower, upper, got) is got
            assert np.array_equal(_bits(got), _bits(expected))


def test_sat_keeps_its_values_and_types():
    # sat returns what np.clip of the float array returns: np.float64 for a
    # scalar, an array otherwise, with the same bits; the input is not written
    specs = (SPEC5, SaturationSpec([-1.0, -2.0], [3.0, 0.5]))
    inputs = (7, -0.0, np.nan, np.float64(-np.inf), np.array(2.5), [np.nan, -7.0],
              np.array([0.5, 3.0]), np.array([[9.0, -9.0], [-0.0, 0.5]]))
    for spec in specs:
        for v in inputs:
            before = np.array(v, dtype=float, copy=True)
            got = sat(v, spec)
            ref = np.clip(np.asarray(v, dtype=float), spec.lower, spec.upper)
            assert type(got) is type(ref)
            assert np.shape(got) == np.shape(ref)
            assert np.array_equal(_bits(got), _bits(ref))
            assert np.array_equal(_bits(v), _bits(before))
    assert type(sat(7.0, SPEC5)) is np.float64
    assert type(sat([7.0], SPEC5)) is np.ndarray


def test_sat_integral_examples():
    assert sat_integral(3.0, 5.0) == 4.5
    assert sat_integral(7.0, 5.0) == 22.5
    assert sat_integral(-7.0, 5.0) == 22.5


def test_sat_integral_properties():
    rng = np.random.default_rng(1)
    g = rng.uniform(-50, 50, 200)
    vals = sat_integral(g, 5.0)
    assert np.all(vals >= 0.0)
    assert sat_integral(0.0, 5.0) == 0.0
    assert np.all(vals[np.abs(g) > 0] > 0.0)
    np.testing.assert_array_equal(sat_integral(-g, 5.0), vals)
    # radially unbounded
    assert sat_integral(1e6, 5.0) > 4.9e6
    assert sat_integral(-1e6, 5.0) > 4.9e6


def test_sat_integral_refuses_nan_bound():
    for u_bar in (np.nan, [5.0, np.nan]):
        with pytest.raises(ValueError, match="u_bar must be strictly positive"):
            sat_integral(1.0, u_bar)


def test_sat_integral_against_quadrature():
    rng = np.random.default_rng(2)
    for g in rng.uniform(-15, 15, 12):
        # adaptive quadrature with the clamp kinks declared as breakpoints
        breaks = [p for p in (-5.0, 5.0) if min(0.0, g) < p < max(0.0, g)]
        expected, _ = scipy.integrate.quad(
            lambda t: np.clip(t, -5.0, 5.0), 0.0, g, points=breaks or None
        )
        assert sat_integral(float(g), 5.0) == pytest.approx(expected, abs=1e-9)


# --- layouts and gains ----------------------------------------------------


def test_layout_sizes():
    sizes = {
        StrategyTag.SAT_GRAD_PLAY: 6,
        StrategyTag.FIRST_ORDER_DIST: 6 + 18,
        StrategyTag.SECOND_ORDER_CENTRAL: 12,
        StrategyTag.SECOND_ORDER_DIST: 18 + 18,
        StrategyTag.SECOND_ORDER_DIST_SAT: 18 + 18,
    }
    for tag, size in sizes.items():
        assert StateLayout(tag, 3, 2).size == size


def test_layout_control_is_the_x_rows_or_the_nu_rows():
    # xdot = u for first-order players, nudot = u for second-order ones
    controls = {
        StrategyTag.SAT_GRAD_PLAY: slice(0, 6),
        StrategyTag.FIRST_ORDER_DIST: slice(0, 6),
        StrategyTag.SECOND_ORDER_CENTRAL: slice(6, 12),
        StrategyTag.SECOND_ORDER_DIST: slice(6, 12),
        StrategyTag.SECOND_ORDER_DIST_SAT: slice(6, 12),
    }
    for tag, control in controls.items():
        assert StateLayout(tag, 3, 2).control == control
    assert StateLayout(StrategyTag.SECOND_ORDER_DIST, 4, 1).control == slice(4, 8)


def test_layout_pack_split_roundtrip():
    lay = StateLayout(StrategyTag.SECOND_ORDER_DIST, 3, 2)
    rng = np.random.default_rng(3)
    parts = {
        "x": rng.normal(size=6),
        "nu": rng.normal(size=6),
        "z": rng.normal(size=6),
        "y": rng.normal(size=18),
    }
    s = lay.pack(**parts)
    blocks = lay.split(s)
    for name, val in parts.items():
        np.testing.assert_array_equal(blocks[name], val)
    assert lay.block_name(0) == "x[0]"
    assert lay.block_name(6) == "nu[0]"
    assert lay.block_name(12) == "z[0]"
    assert lay.block_name(18) == "y[0]"


def test_layout_mismatch_errors():
    lay = StateLayout(StrategyTag.SAT_GRAD_PLAY, 3, 2)
    with pytest.raises(LayoutMismatchError, match="length 6"):
        lay.check(np.zeros(7))
    with pytest.raises(LayoutMismatchError, match="no block"):
        lay.pack(nu=np.zeros(6))
    with pytest.raises(DimensionMismatchError, match="^block x: expected length 6, got 5$"):
        lay.pack(x=np.zeros(5))
    assert lay.block_name(5) == "x[5]"
    with pytest.raises(IndexError, match="^6$"):
        lay.block_name(6)


def test_gains_validation():
    with pytest.raises(ValueError, match="positive"):
        GainSet(theta=-1.0)
    with pytest.raises(ValueError, match="positive"):
        GainSet(K=[0.1, 0.0])
    g = GainSet(theta=2.0, theta_bar=[1.0, 2.0, 3.0, 4.0], K=0.5)
    np.testing.assert_array_equal(g.theta_bar_vec(2), [1, 2, 3, 4])
    np.testing.assert_array_equal(g.k_vec(2, 2), [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ValueError, match="missing required gains"):
        GainSet(theta=1.0).require("theta", "theta1")
    with pytest.raises(DimensionMismatchError, match="^K: expected length 2, got 3$"):
        GainSet(K=[0.1, 0.2, 0.3]).k_vec(2, 2)


def test_gains_refuse_nan_vector_gains():
    # the scalar gains already refuse NaN; the vector gains must too
    for kwargs in ({"theta_bar": np.nan}, {"theta_bar": [1.0, np.nan, 1.0, 1.0]},
                   {"K": [np.nan, 1.0]}, {"K": np.nan}):
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=f"gain {name} must be strictly positive"):
            GainSet(theta=1.0, **kwargs)


# --- strategy vector fields ----------------------------------------------

GAINS1 = GainSet(theta=1000.0)
GAINS_C = GainSet(alpha=1.0, beta=1.0)
GAINS2 = GainSet(theta=200.0, theta1=1.0, K=0.1, theta_bar=1.0)


def test_sat_gradient_play_control(sensor_game):
    ds, u = evaluate(*make_rhs(StrategyTag.SAT_GRAD_PLAY, sensor_game, sat_spec=SPEC5), X0)
    np.testing.assert_array_equal(u, [-5.0, 5.0, 5.0, -5.0, 4.0, 5.0])
    np.testing.assert_array_equal(ds, u)


def test_sat_gradient_play_equilibrium(sensor_game, x_star):
    ds, u = evaluate(*make_rhs(StrategyTag.SAT_GRAD_PLAY, sensor_game, sat_spec=SPEC5), x_star)
    assert np.max(np.abs(ds)) <= 1e-10


def test_sat_gradient_play_unsaturated_limit(sensor_game):
    big = SaturationSpec.symmetric(1e12)
    ds, u = evaluate(*make_rhs(StrategyTag.SAT_GRAD_PLAY, sensor_game, sat_spec=big), X0)
    np.testing.assert_array_equal(ds, -sensor_game.pseudo_gradient(X0))


def test_first_order_dist_consensus_reduces_to_gradient_play(sensor_game, path_graph):
    lay = StateLayout(StrategyTag.FIRST_ORDER_DIST, 3, 2)
    s = lay.pack(x=X0, y=np.tile(X0, 3))
    rhs, _ = make_rhs(
        StrategyTag.FIRST_ORDER_DIST, sensor_game, graph=path_graph, gains=GAINS1, sat_spec=SPEC5
    )
    ds, u = evaluate(rhs, lay, s)
    np.testing.assert_array_equal(ds[6:], np.zeros(18))
    _, u_ref = evaluate(*make_rhs(StrategyTag.SAT_GRAD_PLAY, sensor_game, sat_spec=SPEC5), X0)
    np.testing.assert_allclose(u, u_ref, atol=1e-12)


def test_first_order_dist_equilibrium(sensor_game, path_graph, x_star):
    lay = StateLayout(StrategyTag.FIRST_ORDER_DIST, 3, 2)
    s = lay.pack(x=x_star, y=np.tile(x_star, 3))
    rhs, _ = make_rhs(
        StrategyTag.FIRST_ORDER_DIST, sensor_game, graph=path_graph, gains=GAINS1, sat_spec=SPEC5
    )
    ds, _ = evaluate(rhs, lay, s)
    assert np.max(np.abs(ds)) <= 1e-10


def test_first_order_dist_all_tens_estimates(sensor_game, path_graph):
    # gradients at the all-tens estimate are 20 + p_i, all beyond the bound
    lay = StateLayout(StrategyTag.FIRST_ORDER_DIST, 3, 2)
    s = lay.pack(x=X0, y=np.full(18, 10.0))
    rhs, _ = make_rhs(
        StrategyTag.FIRST_ORDER_DIST, sensor_game, graph=path_graph, gains=GAINS1, sat_spec=SPEC5
    )
    _, u = evaluate(rhs, lay, s)
    np.testing.assert_array_equal(u, np.full(6, -5.0))


def test_second_order_central_equilibrium(sensor_game, x_star):
    rhs, lay = make_rhs(StrategyTag.SECOND_ORDER_CENTRAL, sensor_game, gains=GAINS_C)
    ds, _ = evaluate(rhs, lay, lay.pack(x=x_star))
    assert np.max(np.abs(ds)) <= 1e-10


def test_second_order_central_zero_velocity(sensor_game):
    gains = GainSet(alpha=2.5, beta=1.0)
    rhs, lay = make_rhs(StrategyTag.SECOND_ORDER_CENTRAL, sensor_game, gains=gains)
    ds, u = evaluate(rhs, lay, lay.pack(x=X0))
    np.testing.assert_allclose(u, -2.5 * sensor_game.pseudo_gradient(X0), atol=1e-12)
    np.testing.assert_array_equal(ds[:6], np.zeros(6))


def test_second_order_central_benchmark_value(sensor_game):
    # independent oracle: explicit matrix arithmetic -g - nu - H @ nu with
    # H constant; hand value [-45, 9, 19, -31, 1, 5]
    rhs, lay = make_rhs(StrategyTag.SECOND_ORDER_CENTRAL, sensor_game, gains=GAINS_C)
    ds, u = evaluate(rhs, lay, lay.pack(x=X0, nu=np.ones(6)))
    H = sensor_game.game_jacobian(X0)
    oracle = -sensor_game.pseudo_gradient(X0) - np.ones(6) - H @ np.ones(6)
    np.testing.assert_allclose(u, oracle, atol=1e-12)
    np.testing.assert_allclose(u, [-45.0, 9.0, 19.0, -31.0, 1.0, 5.0], atol=1e-12)
    np.testing.assert_array_equal(ds[:6], np.ones(6))


def _second_order(tag, game, path_graph):
    return make_rhs(tag, game, graph=path_graph, gains=GAINS2, sat_spec=SPEC5)


def test_second_order_dist_equilibrium(sensor_game, path_graph, x_star):
    rhs, lay = _second_order(StrategyTag.SECOND_ORDER_DIST, sensor_game, path_graph)
    ds, _ = evaluate(rhs, lay, lay.pack(x=x_star, z=x_star, y=np.tile(x_star, 3)))
    assert np.max(np.abs(ds)) <= 1e-10


def test_second_order_dist_tracking_manifold(sensor_game, path_graph):
    # y on consensus with z, z = x, nu = zdot: velocity error stays zero
    rhs, lay = _second_order(StrategyTag.SECOND_ORDER_DIST, sensor_game, path_graph)
    z = np.array([1.0, -2.0, 0.5, 0.0, 3.0, 1.5])
    y = np.tile(z, 3)
    zdot = -0.1 * sensor_game.own_gradients_at_estimates(y)
    ds, u = evaluate(rhs, lay, lay.pack(x=z, nu=zdot, z=z, y=y))
    np.testing.assert_allclose(u, np.zeros(6), atol=1e-12)
    np.testing.assert_array_equal(ds[:6], zdot)


def test_second_order_dist_zero_state(sensor_game, path_graph):
    # gradients at the origin reduce to the linear coefficients
    rhs, lay = _second_order(StrategyTag.SECOND_ORDER_DIST, sensor_game, path_graph)
    ds, u = evaluate(rhs, lay, lay.pack())
    expected_zdot = np.array([-0.2, 0.2, 0.2, 0.2, 0.4, -0.2])
    np.testing.assert_allclose(ds[12:18], expected_zdot, atol=1e-15)
    np.testing.assert_allclose(u, expected_zdot, atol=1e-15)


def test_second_order_dist_sat_equilibrium(sensor_game, path_graph, x_star):
    rhs, lay = _second_order(StrategyTag.SECOND_ORDER_DIST_SAT, sensor_game, path_graph)
    ds, _ = evaluate(rhs, lay, lay.pack(x=x_star, z=x_star, y=np.tile(x_star, 3)))
    assert np.max(np.abs(ds)) <= 1e-10


def test_second_order_dist_sat_matches_unsaturated_inside_bounds(sensor_game, path_graph):
    rhs_sat, lay = _second_order(StrategyTag.SECOND_ORDER_DIST_SAT, sensor_game, path_graph)
    rhs_raw, _ = _second_order(StrategyTag.SECOND_ORDER_DIST, sensor_game, path_graph)
    rng = np.random.default_rng(8)
    for _ in range(10):
        s = rng.uniform(-0.5, 0.5, lay.size)
        ds_sat, u_sat = evaluate(rhs_sat, lay, s)
        ds_raw, u_raw = evaluate(rhs_raw, lay, s)
        if np.max(np.abs(u_raw)) < 5.0:
            np.testing.assert_array_equal(u_sat, u_raw)
            np.testing.assert_array_equal(ds_sat, ds_raw)


def test_second_order_dist_sat_zero_init_control(sensor_game, path_graph):
    rhs, lay = _second_order(StrategyTag.SECOND_ORDER_DIST_SAT, sensor_game, path_graph)
    _, u = evaluate(rhs, lay, lay.pack())
    # clamp inactive: |zdot| = 0.4 < 5, so u = zdot
    np.testing.assert_allclose(u, [-0.2, 0.2, 0.2, 0.2, 0.4, -0.2], atol=1e-15)


def test_make_rhs_requires_graph_and_bounds(sensor_game, path_graph):
    with pytest.raises(ValueError, match="graph"):
        make_rhs(StrategyTag.FIRST_ORDER_DIST, sensor_game, gains=GainSet(theta=1.0), sat_spec=SPEC5)
    with pytest.raises(ValueError, match="saturation"):
        make_rhs(StrategyTag.SAT_GRAD_PLAY, sensor_game)


@pytest.mark.parametrize("tag", [t for t in StrategyTag if StateLayout(t, 1, 1).has_estimates])
def test_make_rhs_refuses_a_graph_of_the_wrong_size(tag, sensor_game):
    # one node per player, refused before any product with the estimates
    gains = GainSet(theta=200.0, theta1=1.0, K=0.1)
    for nodes in (2, 4):
        graph = CommGraph(np.ones((nodes, nodes)) - np.eye(nodes))
        for game in (sensor_game, _generic_twin(sensor_game)):
            with pytest.raises(DimensionMismatchError, match=f"expected length 3, got {nodes}"):
                make_rhs(tag, game, graph=graph, gains=gains, sat_spec=SPEC5)


@pytest.mark.parametrize("tag", list(StrategyTag))
def test_make_rhs_rejects_wrong_state_length(tag, sensor_game, path_graph):
    # the per-call law checks the layout; the compiled product refuses the length itself
    gains = GainSet(theta=200.0, theta1=1.0, K=0.1, alpha=1.0, beta=1.0)
    per_call, lay = make_rhs(
        tag, _generic_twin(sensor_game), graph=path_graph, gains=gains, sat_spec=SPEC5
    )
    compiled, _ = make_rhs(tag, sensor_game, graph=path_graph, gains=gains, sat_spec=SPEC5)
    for rhs in (per_call, compiled):
        evaluate(rhs, lay, lay.pack())  # the right length is accepted
    for size in (lay.size - 1, lay.size + 1):
        with pytest.raises(LayoutMismatchError, match=f"length {lay.size}, got {size}"):
            evaluate(per_call, lay, np.zeros(size))
        with pytest.raises(ValueError):
            evaluate(compiled, lay, np.zeros(size))


def _generic_twin(game):
    # the same quadratic game as a plain GameDefinition over its stacked
    # pseudo-gradient and Jacobian, so make_rhs evaluates the law on every
    # call, and that law still takes a stack of states
    return GameDefinition(
        game.n_players, game.action_dim, game.pseudo_gradient, lambda x: game.jacobian_matrix
    )


@pytest.mark.parametrize("tag", list(StrategyTag))
def test_compiled_field_matches_per_call_law(tag):
    # quadratic games run the compiled A s + b; it must agree with the law
    # evaluated per call to 1e-12 relative, and clamp u inside the bounds
    rng = np.random.default_rng(41)
    for _ in range(6):
        n, p = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        game = random_strongly_monotone_game(rng, n_players=n, action_dim=p)
        graph = random_connected_graph(rng, n)
        gains = GainSet(
            theta=rng.uniform(1.0, 300.0),
            theta1=rng.uniform(0.5, 3.0),
            theta_bar=rng.uniform(0.5, 2.0, n * n),
            K=rng.uniform(0.05, 1.0, n),
            alpha=rng.uniform(0.5, 3.0),
            beta=rng.uniform(0.5, 3.0),
        )
        spec = SaturationSpec(-rng.uniform(0.5, 3.0, n * p), rng.uniform(0.5, 3.0, n * p))
        compiled, lay = make_rhs(tag, game, graph=graph, gains=gains, sat_spec=spec)
        per_call, _ = make_rhs(tag, _generic_twin(game), graph=graph, gains=gains, sat_spec=spec)
        for s in rng.normal(scale=3.0, size=(100, lay.size)):
            ds, u = evaluate(compiled, lay, s)
            ds_ref, u_ref = evaluate(per_call, lay, s)
            scale = max(1.0, float(np.max(np.abs(ds_ref))))
            assert np.max(np.abs(ds - ds_ref)) <= 1e-12 * scale
            assert np.max(np.abs(u - u_ref)) <= 1e-12 * scale
            if lay.is_saturated:
                assert np.all(spec.lower <= u) and np.all(u <= spec.upper)


# --- the stacked compile --------------------------------------------------

# bounds that never bind, so a clamped field returns its law unchanged
UNBOUND = SaturationSpec.symmetric(1e300)


def _closure(rhs, *names):
    # the compiled A and b, or the per-call law, as the field's closure holds them
    cells = dict(zip(rhs.__code__.co_freevars, rhs.__closure__))
    return [cells[name].cell_contents for name in names]


@pytest.mark.parametrize("tag", [t for t in StrategyTag if StateLayout(t, 2, 1).is_saturated])
def test_compiled_clamped_field_is_affine_map_then_max_min(tag):
    # the compiled field is A s + b with its control rows clamped in place:
    # bit for bit max-then-min of those rows
    rng = np.random.default_rng(43)
    n_clamped = n_free = 0
    for _ in range(4):
        n, p = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        game = random_strongly_monotone_game(rng, n_players=n, action_dim=p)
        spec = SaturationSpec(-rng.uniform(0.5, 3.0, n * p), rng.uniform(0.5, 3.0, n * p))
        rhs, lay = make_rhs(
            tag, game, graph=random_connected_graph(rng, n), gains=_random_gains(rng, n),
            sat_spec=spec,
        )
        A, b = _closure(rhs, "A", "b")
        row = np.empty(lay.size)
        for s in rng.normal(scale=rng.choice([0.01, 1.0, 5.0]), size=(30, lay.size)):
            expected = A.dot(s) + b
            u_raw = expected[lay.control].copy()
            expected[lay.control] = np.minimum(np.maximum(u_raw, spec.lower), spec.upper)
            clamped = (u_raw < spec.lower) | (u_raw > spec.upper)
            n_clamped += int(clamped.sum())
            n_free += int((~clamped).sum())
            assert rhs(s, row) is row
            assert np.array_equal(_bits(row), _bits(expected))
    assert n_clamped > 100 and n_free > 100  # both sides of the clamp were met


def _ring(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    return a


def _random_gains(rng, n):
    return GainSet(
        theta=rng.uniform(1.0, 300.0),
        theta1=rng.uniform(0.5, 3.0),
        theta_bar=rng.uniform(0.5, 2.0, n * n),
        K=rng.uniform(0.05, 1.0, n),
        alpha=rng.uniform(0.5, 3.0),
        beta=rng.uniform(0.5, 3.0),
    )


def _compiled_and_column_by_column(tag, graph, rng):
    # A and b of the stacked compile, and the same law evaluated one unit
    # state at a time, as column_stack([law(e) - law(0) for e in I])
    n, p = graph.n_nodes, int(rng.integers(1, 4))
    game = random_strongly_monotone_game(rng, n_players=n, action_dim=p)
    gains = _random_gains(rng, n)
    compiled, lay = make_rhs(tag, game, graph=graph, gains=gains, sat_spec=UNBOUND)
    twin = _generic_twin(game)
    per_call, _ = make_rhs(tag, twin, graph=graph, gains=gains, sat_spec=UNBOUND)
    A, b = _closure(compiled, "A", "b")
    b_ref = evaluate(per_call, lay, np.zeros(lay.size))[0]
    A_ref = np.column_stack([evaluate(per_call, lay, e)[0] - b_ref for e in np.eye(lay.size)])
    assert A.flags.c_contiguous and A.shape == A_ref.shape
    return A, b, A_ref, b_ref


@pytest.mark.parametrize("tag", list(StrategyTag))
def test_stacked_compile_is_the_column_by_column_compile_on_integer_weights(tag):
    # integer weights keep every sum in M @ v exact, so the stacked compile
    # must give the column-by-column A and b bit for bit, signs of zeros included
    rng = np.random.default_rng(29)
    graphs = [CommGraph(_ring(n)) for n in (3, 4, 6)]
    graphs += [CommGraph(path_graph_adjacency(n)) for n in (2, 3, 5)]
    graphs += [random_connected_graph(rng, n) for n in (3, 4, 5, 6)]
    for graph in graphs:
        A, b, A_ref, b_ref = _compiled_and_column_by_column(tag, graph, rng)
        for got, ref in ((A, A_ref), (b, b_ref)):
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize("tag", list(StrategyTag))
def test_stacked_compile_on_real_weights_is_within_rounding(tag):
    # with real edge weights a sum over columns of M may round in another
    # order, so A is held to 1e-15 of its largest entry; b is one call either way
    rng = np.random.default_rng(31)
    for n in (2, 3, 4, 5):
        a = np.triu(rng.uniform(0.1, 3.0, (n, n)) * (rng.random((n, n)) < 0.7), 1)
        a[np.arange(n - 1), np.arange(1, n)] = rng.uniform(0.1, 3.0, n - 1)  # connected
        A, b, A_ref, b_ref = _compiled_and_column_by_column(tag, CommGraph(a + a.T), rng)
        assert np.max(np.abs(A - A_ref)) <= 1e-15 * np.max(np.abs(A_ref))
        assert np.array_equal(b, b_ref)


@pytest.mark.parametrize("tag", list(StrategyTag))
def test_law_on_a_stack_of_states_equals_single_state_calls(tag):
    # the per-call field's law over a (B, size) stack gives, row by row, the
    # field at each state; products only sum in another order, so each row
    # is held to 1e-15 of the largest sum of absolute terms sum_j |A_ij s_j| + |b_i|
    rng = np.random.default_rng(37)
    for _ in range(6):
        n, p = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        game = random_strongly_monotone_game(rng, n_players=n, action_dim=p)
        graph = random_connected_graph(rng, n)
        gains = _random_gains(rng, n)
        compiled, lay = make_rhs(tag, game, graph=graph, gains=gains, sat_spec=UNBOUND)
        twin = _generic_twin(game)
        per_call, _ = make_rhs(tag, twin, graph=graph, gains=gains, sat_spec=UNBOUND)
        (law,) = _closure(per_call, "law")
        A, b = _closure(compiled, "A", "b")
        states = rng.normal(scale=3.0, size=(25, lay.size))
        stacked = law(states)
        assert stacked.shape == states.shape
        for s, row in zip(states, stacked):
            scale = np.max(np.abs(A) @ np.abs(s) + np.abs(b))
            assert np.max(np.abs(row - evaluate(per_call, lay, s)[0])) <= 1e-15 * scale


@pytest.mark.parametrize("tag", list(StrategyTag))
def test_compile_calls_the_gradients_a_fixed_number_of_times(tag, monkeypatch):
    # law(0) and law(I): two calls of the tag's one gradient evaluator,
    # whatever the state size
    calls = []
    for name in ("pseudo_gradient", "own_gradients_at_estimates"):
        def counted(self, x, method=getattr(QuadraticGame, name), name=name):
            calls.append(name)
            return method(self, x)

        monkeypatch.setattr(QuadraticGame, name, counted)
    rng = np.random.default_rng(43)
    per_size = {}
    for n, p in ((2, 1), (3, 2), (5, 2), (6, 3)):
        game = random_strongly_monotone_game(rng, n_players=n, action_dim=p)
        calls.clear()
        _, lay = make_rhs(
            tag, game, graph=CommGraph(_ring(n)), gains=_random_gains(rng, n), sat_spec=UNBOUND
        )
        per_size[lay.size] = list(calls)
    evaluator = "own_gradients_at_estimates" if lay.has_estimates else "pseudo_gradient"
    assert len(per_size) == 4
    assert all(called == [evaluator] * 2 for called in per_size.values())


# --- the per-channel estimation layer -------------------------------------

ESTIMATE_TAGS = [t for t in StrategyTag if StateLayout(t, 2, 1).has_estimates]


def _dense_compile(tag, game, graph, gains):
    # the consensus laws written with the dense M = estimation_matrix(graph, p)
    # and theta_bar repeated over p, compiled as make_rhs compiles: A and b
    n, p = game.n_players, game.action_dim
    d, lay = n * p, StateLayout(tag, n, p)
    M = estimation_matrix(graph, p)
    coef = -gains.estimation_gain(lay.has_velocity) * np.repeat(gains.theta_bar_vec(n), p)

    def law(s):
        if not lay.has_velocity:
            x, y = s[..., :d], s[..., d:]
            dy = coef * (M @ (y - np.tile(x, n)).T).T
            return np.concatenate([-game.own_gradients_at_estimates(y), dy], axis=-1)
        x, nu, z, y = s[..., :d], s[..., d : 2 * d], s[..., 2 * d : 3 * d], s[..., 3 * d :]
        zdot = -(gains.theta1 * gains.k_vec(n, p)) * game.own_gradients_at_estimates(y)
        dy = coef * (M @ (y - np.tile(z, n)).T).T
        return np.concatenate([nu, -(x - z) - (nu - zdot), zdot, dy], axis=-1)

    b = law(np.zeros(lay.size))
    return np.ascontiguousarray((law(np.eye(lay.size)) - b).T), b


def _per_channel_and_dense(tag, graph, p, rng):
    game = random_strongly_monotone_game(rng, n_players=graph.n_nodes, action_dim=p)
    gains = _random_gains(rng, graph.n_nodes)
    compiled, _ = make_rhs(tag, game, graph=graph, gains=gains, sat_spec=UNBOUND)
    return _closure(compiled, "A", "b"), _dense_compile(tag, game, graph, gains)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("tag", ESTIMATE_TAGS)
def test_per_channel_field_is_the_dense_field_on_integer_weights(tag, p):
    # integer weights keep every sum exact, so M1 applied per channel must
    # give the dense M's A and b bit for bit, signs of zeros included
    rng = np.random.default_rng(47)
    graphs = [CommGraph(_ring(n)) for n in (3, 4, 6)]
    graphs += [CommGraph(path_graph_adjacency(n)) for n in (2, 3, 5)]
    graphs += [random_connected_graph(rng, n) for n in (3, 4, 5, 6)]
    for graph in graphs:
        for got, ref in zip(*_per_channel_and_dense(tag, graph, p, rng)):
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("tag", ESTIMATE_TAGS)
def test_per_channel_field_on_real_weights_is_within_rounding(tag, p):
    # with real edge weights the sums over M1's columns may round in another
    # order than the dense product's, so A is held to 1e-15 of its largest entry
    rng = np.random.default_rng(53)
    for n in (2, 3, 4, 5):
        a = np.triu(rng.uniform(0.1, 3.0, (n, n)) * (rng.random((n, n)) < 0.7), 1)
        a[np.arange(n - 1), np.arange(1, n)] = rng.uniform(0.1, 3.0, n - 1)  # connected
        (A, b), (A_ref, b_ref) = _per_channel_and_dense(tag, CommGraph(a + a.T), p, rng)
        assert np.max(np.abs(A - A_ref)) <= 1e-15 * np.max(np.abs(A_ref))
        assert np.array_equal(b, b_ref)


@pytest.mark.parametrize("tag", ESTIMATE_TAGS)
def test_lyapunov_value_with_a_per_channel_P_is_the_value_with_its_kron(tag):
    rng = np.random.default_rng(59)
    for p in (1, 2, 3):
        n = int(rng.integers(2, 5))
        game = random_strongly_monotone_game(rng, n_players=n, action_dim=p)
        graph = random_connected_graph(rng, n)
        gains = _random_gains(rng, n)
        P = solve_lyapunov(estimation_matrix(graph, 1), gains.theta_bar_vec(n), 1.0, p).P
        spec = SaturationSpec.symmetric(rng.uniform(0.5, 3.0, n * p))
        states = rng.normal(scale=3.0, size=(25, StateLayout(tag, n, p).size))
        kwargs = dict(gains=gains, sat_spec=spec, x_star=game.exact_ne())
        per_channel = lyapunov_value(tag, game, states, P=P, **kwargs)
        full = lyapunov_value(tag, game, states, P=np.kron(P, np.eye(p)), **kwargs)
        assert np.max(np.abs(per_channel - full)) <= 1e-15 * np.max(np.abs(full))
        with pytest.raises(DimensionMismatchError, match="P rows"):
            lyapunov_value(tag, game, states, P=np.eye(n * n + 1), **kwargs)


@pytest.mark.parametrize("tag", list(StrategyTag))
def test_stacked_gradients_move_v_by_rounding_only(tag):
    # V of the quadratic game against V of its generic twin, whose own
    # gradients at the estimates come from one pseudo-gradient call on the
    # stacked estimates. The products only sum in another order: 1e-15 of
    # the largest |V| per record
    rng = np.random.default_rng(61)
    for _ in range(4):
        n, p = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        game = random_strongly_monotone_game(rng, n_players=n, action_dim=p)
        graph = random_connected_graph(rng, n)
        gains = _random_gains(rng, n)
        P = solve_lyapunov(estimation_matrix(graph, 1), gains.theta_bar_vec(n), 1.0, p).P
        spec = SaturationSpec.symmetric(rng.uniform(0.5, 3.0, n * p))
        states = rng.normal(scale=3.0, size=(200, StateLayout(tag, n, p).size))
        kwargs = dict(gains=gains, sat_spec=spec, P=P, x_star=game.exact_ne())
        stacked = lyapunov_value(tag, game, states, **kwargs)
        twin = lyapunov_value(tag, _generic_twin(game), states, **kwargs)
        assert np.max(np.abs(stacked - twin)) <= 1e-15 * np.max(np.abs(twin))


def test_lyapunov_value_takes_the_gradients_once_per_call(sensor_game, monkeypatch):
    calls = []
    for name in ("pseudo_gradient", "own_gradients_at_estimates"):
        def counted(self, x, method=getattr(QuadraticGame, name), name=name):
            calls.append(name)
            return method(self, x)

        monkeypatch.setattr(QuadraticGame, name, counted)
    lay = StateLayout(StrategyTag.SECOND_ORDER_DIST_SAT, 3, 2)
    states = np.random.default_rng(3).normal(size=(50, lay.size))
    x_star = np.zeros(6)
    lyapunov_value(lay.tag, sensor_game, states, gains=GAINS2, sat_spec=SPEC5, P=np.eye(9),
                   x_star=x_star)
    lyapunov_value(StrategyTag.SAT_GRAD_PLAY, sensor_game, states[:, :6], sat_spec=SPEC5)
    assert calls == ["own_gradients_at_estimates", "pseudo_gradient"]


# --- Lyapunov candidates --------------------------------------------------


def _lyap_P(path_graph):
    return solve_lyapunov(estimation_matrix(path_graph, 2), 1.0, 1.0).P


def test_lyapunov_zero_at_equilibria(sensor_game, path_graph, x_star):
    P = _lyap_P(path_graph)
    tile = np.tile(x_star, 3)
    cases = {
        StrategyTag.SAT_GRAD_PLAY: dict(
            state=x_star, sat_spec=SPEC5
        ),
        StrategyTag.FIRST_ORDER_DIST: dict(
            state=StateLayout(StrategyTag.FIRST_ORDER_DIST, 3, 2).pack(x=x_star, y=tile),
            sat_spec=SPEC5,
            P=P,
        ),
        StrategyTag.SECOND_ORDER_CENTRAL: dict(
            state=StateLayout(StrategyTag.SECOND_ORDER_CENTRAL, 3, 2).pack(x=x_star)
        ),
        StrategyTag.SECOND_ORDER_DIST: dict(
            state=StateLayout(StrategyTag.SECOND_ORDER_DIST, 3, 2).pack(
                x=x_star, z=x_star, y=tile
            ),
            gains=GAINS2,
            P=P,
            x_star=x_star,
        ),
        StrategyTag.SECOND_ORDER_DIST_SAT: dict(
            state=StateLayout(StrategyTag.SECOND_ORDER_DIST_SAT, 3, 2).pack(
                x=x_star, z=x_star, y=tile
            ),
            gains=GAINS2,
            sat_spec=SPEC5,
            P=P,
            x_star=x_star,
        ),
    }
    for tag, kwargs in cases.items():
        state = kwargs.pop("state")
        assert lyapunov_value(tag, sensor_game, state, **kwargs) <= 1e-18


def test_lyapunov_gradient_play_closed_form(sensor_game):
    # sum of clamp integrals over the gradient channels at the benchmark point
    val = lyapunov_value(StrategyTag.SAT_GRAD_PLAY, sensor_game, X0, sat_spec=SPEC5)
    assert val == pytest.approx(505.5, abs=1e-12)


def test_lyapunov_central_zero_velocity_is_half_gradient_norm(sensor_game):
    lay = StateLayout(StrategyTag.SECOND_ORDER_CENTRAL, 3, 2)
    g = sensor_game.pseudo_gradient(X0)
    val = lyapunov_value(StrategyTag.SECOND_ORDER_CENTRAL, sensor_game, lay.pack(x=X0))
    assert val == pytest.approx(0.5 * float(g @ g), rel=1e-12)


def _stacked_matches_per_state(tag, game, states, **kwargs):
    stacked = lyapunov_value(tag, game, states, **kwargs)
    assert stacked.shape == (len(states),)
    for row, v in zip(states, stacked):
        ref = lyapunov_value(tag, game, row, **kwargs)
        assert isinstance(ref, float)
        assert abs(v - ref) <= 1e-13 * max(1.0, abs(ref))


@pytest.mark.parametrize("tag", list(StrategyTag))
def test_stacked_lyapunov_matches_per_state(tag):
    # one call over a stack of states gives each row's single-state value
    rng = np.random.default_rng(17)
    for _ in range(4):
        n, p = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        game = random_strongly_monotone_game(rng, n_players=n, action_dim=p)
        graph = random_connected_graph(rng, n)
        gains = GainSet(theta=10.0, theta1=rng.uniform(0.5, 3.0), K=rng.uniform(0.05, 1.0, n))
        P = solve_lyapunov(estimation_matrix(graph, p), 1.0, 1.0).P
        spec = SaturationSpec.symmetric(rng.uniform(0.5, 3.0, n * p))
        states = rng.normal(scale=3.0, size=(25, StateLayout(tag, n, p).size))
        _stacked_matches_per_state(
            tag, game, states, gains=gains, sat_spec=spec, P=P, x_star=game.exact_ne()
        )


def test_stacked_lyapunov_on_a_generic_game():
    # a non-quadratic game takes its gradients for all rows in one call
    tag, game = StrategyTag.FIRST_ORDER_DIST, GAME_REGISTRY["decoupled_quartic"]()
    P = solve_lyapunov(estimation_matrix(CommGraph([[0.0, 1.0], [1.0, 0.0]]), 1), 1.0, 1.0).P
    spec = SaturationSpec.symmetric(1.0)
    states = np.random.default_rng(5).normal(scale=2.0, size=(25, 6))
    _stacked_matches_per_state(tag, game, states, sat_spec=spec, P=P)
    for bad in (states[:, :5], states[None], states[0, 0]):
        with pytest.raises(LayoutMismatchError, match="rows of length 6"):
            lyapunov_value(tag, game, bad, sat_spec=spec, P=P)


def test_lyapunov_missing_ingredients(sensor_game, path_graph, x_star):
    lay = StateLayout(StrategyTag.FIRST_ORDER_DIST, 3, 2)
    with pytest.raises(ValueError, match="matrix P"):
        lyapunov_value(
            StrategyTag.FIRST_ORDER_DIST, sensor_game, lay.pack(), sat_spec=SPEC5
        )
    lay2 = StateLayout(StrategyTag.SECOND_ORDER_DIST, 3, 2)
    with pytest.raises(ValueError, match="x_star"):
        lyapunov_value(
            StrategyTag.SECOND_ORDER_DIST, sensor_game, lay2.pack(), gains=GAINS2, P=np.eye(18)
        )
    with pytest.raises(DimensionMismatchError, match="^x_star: expected length 6, got 5$"):
        lyapunov_value(
            StrategyTag.SECOND_ORDER_DIST,
            sensor_game,
            lay2.pack(),
            gains=GAINS2,
            P=np.eye(18),
            x_star=x_star[:5],
        )
    asym = SaturationSpec(lower=np.full(6, -4.0), upper=np.full(6, 5.0))
    with pytest.raises(ValueError, match="symmetric"):
        lyapunov_value(StrategyTag.SAT_GRAD_PLAY, sensor_game, X0, sat_spec=asym)
    with pytest.raises(ValueError, match="^saturation bounds are required for this Lyapunov"):
        lyapunov_value(StrategyTag.SAT_GRAD_PLAY, sensor_game, X0)


@pytest.mark.parametrize("tag", [StrategyTag.SECOND_ORDER_DIST, StrategyTag.SECOND_ORDER_DIST_SAT])
def test_lyapunov_value_without_gains_names_them(tag, sensor_game, x_star):
    lay = StateLayout(tag, 3, 2)
    with pytest.raises(ValueError, match="^missing required gains: theta1, K$"):
        lyapunov_value(tag, sensor_game, lay.pack(), sat_spec=SPEC5, P=np.eye(9), x_star=x_star)
