import decimal
import math
import re
import warnings

import numpy as np
import pytest

from nes_sim import (
    GainSet,
    LyapunovPair,
    NotStronglyMonotoneError,
    QuadraticGame,
    alpha_beta_star,
    estimation_matrix,
    lipschitz_constants,
    parse_config,
    solve_lyapunov,
    theta_bounds_second_order,
    theta_star_first_order,
)
from nes_sim.presets import GAME_REGISTRY, figure_preset
from nes_sim.tuning import gain_report

GAINS2 = GainSet(theta=200.0, theta1=1.0, K=0.1, theta_bar=1.0)


def _sensor_lyap(path_graph):
    return solve_lyapunov(estimation_matrix(path_graph, 2), 1.0, 1.0)


def test_lipschitz_constants_sensor(sensor_game):
    # block-row 2-norms of the constant Jacobian
    np.testing.assert_allclose(
        lipschitz_constants(sensor_game),
        [math.sqrt(20.0), math.sqrt(44.0), math.sqrt(20.0)],
        rtol=1e-12,
    )


def test_lipschitz_constants_decoupled():
    g = QuadraticGame(
        r=np.tile(np.eye(2), (3, 1, 1)),
        p_vec=np.zeros((3, 2)),
        q=np.zeros(3),
        m_weights=np.zeros((3, 3)),
    )
    np.testing.assert_allclose(lipschitz_constants(g), [2.0, 2.0, 2.0], rtol=1e-14)


def test_lipschitz_constants_require_quadratic():
    with pytest.raises(NotStronglyMonotoneError, match="manually"):
        lipschitz_constants(GAME_REGISTRY["decoupled_quartic"]())


def test_theta_star_formula_substitution():
    # fabricated constants: l1 = l2 = l3 = 2, m = 2, lambda_min(Q) = 1
    # force them through a single-player setup with ||P|| = 1
    g = QuadraticGame(
        r=np.ones((1, 1, 1)), p_vec=np.zeros((1, 1)), q=np.zeros(1), m_weights=np.zeros((1, 1))
    )
    lyap = LyapunovPair(P=np.eye(1), Q=np.eye(1), residual=0.0)
    rep = theta_star_first_order(g, None, lyap, m=2.0, lbar=np.array([1.0]), sup_h_norm=2.0)
    assert rep.l1 == rep.l2 == rep.l3 == 2.0
    assert rep.eps1 == rep.eps2 == 2.0
    assert rep.theta_star == 6.0


def test_theta_star_sensor_pipeline(sensor_game, path_graph):
    lyap = _sensor_lyap(path_graph)
    rep = theta_star_first_order(sensor_game, path_graph, lyap, theta=1000.0)
    # ||P|| = 1 / (2 lambda_min(M)) with lambda_min(M) = 2 - sqrt(3)
    assert lyap.p_norm == pytest.approx(0.5 / (2.0 - math.sqrt(3.0)), rel=1e-10)
    assert rep.m == pytest.approx(2.0, abs=1e-12)
    assert rep.l1 == pytest.approx(8.0 * math.sqrt(44.0), rel=1e-10)
    # regression constant pinned from this pipeline
    assert rep.theta_star == pytest.approx(1471.7703041737002, rel=1e-9)
    # chosen eps leave decrease slack of exactly m/2
    slack = rep.m - rep.l1 / (2 * rep.eps1) - rep.l3 / (2 * rep.eps2)
    assert slack == pytest.approx(rep.m / 2.0, rel=1e-12)
    # l4 reported at theta only; negative here since 1000 < theta_star
    assert rep.l4 is not None and rep.l4 < 0.0


def test_theta_star_recompute_bitwise(sensor_game, path_graph):
    rep = theta_star_first_order(sensor_game, path_graph, _sensor_lyap(path_graph))
    recomputed = (2.0 * rep.l2 + rep.l1 * rep.eps1 + rep.l3 * rep.eps2) / (
        2.0 * rep.lambda_min_q
    )
    assert recomputed == rep.theta_star


def test_theta_star_q_scaling_metamorphic(sensor_game, path_graph):
    m = estimation_matrix(path_graph, 2)
    lyap1 = solve_lyapunov(m, 1.0, 1.0)
    lyap2 = solve_lyapunov(m, 1.0, 2.0)
    # P is linear in Q, so doubling Q doubles P (and lambda_min(Q))
    np.testing.assert_allclose(lyap2.P, 2.0 * lyap1.P, rtol=1e-12)
    for lyap in (lyap1, lyap2):
        rep = theta_star_first_order(sensor_game, path_graph, lyap)
        recomputed = (2.0 * rep.l2 + rep.l1 * rep.eps1 + rep.l3 * rep.eps2) / (
            2.0 * rep.lambda_min_q
        )
        assert recomputed == rep.theta_star


def test_theta_star_monotone_in_constants(sensor_game, path_graph):
    lyap = _sensor_lyap(path_graph)
    base = theta_star_first_order(sensor_game, path_graph, lyap)

    def star(lbar_scale=1.0, sup_scale=1.0):
        lbar = lipschitz_constants(sensor_game) * lbar_scale
        sup = float(np.linalg.norm(sensor_game.jacobian_matrix, 2)) * sup_scale
        return theta_star_first_order(
            sensor_game, path_graph, lyap, lbar=lbar, sup_h_norm=sup
        ).theta_star

    assert star(lbar_scale=1.1) > base.theta_star  # raises l1 and l2
    assert star(sup_scale=1.1) > base.theta_star  # raises l1
    # larger lambda_min(Q) lowers the bound (Q = 2I, P fixed by hand)
    lyap_scaled = LyapunovPair(P=lyap.P, Q=2.0 * np.eye(18), residual=0.0)
    assert (
        theta_star_first_order(sensor_game, path_graph, lyap_scaled).theta_star
        < base.theta_star
    )


def test_theta_star_requires_monotone_game(path_graph):
    g = QuadraticGame(
        r=np.zeros((3, 2, 2)),
        p_vec=np.zeros((3, 2)),
        q=np.zeros(3),
        m_weights=np.zeros((3, 3)),
    )
    with pytest.raises(NotStronglyMonotoneError, match="m <= 0"):
        theta_star_first_order(g, path_graph, _sensor_lyap(path_graph))


def test_alpha_beta_star_sensor(sensor_game):
    rep = alpha_beta_star(sensor_game, alpha=1.0)
    assert rep.alpha_star == pytest.approx(2.0, abs=1e-12)
    assert rep.beta_star == pytest.approx(2.0 + 2.0 * math.sqrt(2.0), rel=1e-12)


def test_alpha_beta_star_boundary_rejected():
    g = QuadraticGame(
        r=0.5 * np.ones((1, 1, 1)), p_vec=np.zeros((1, 1)), q=np.zeros(1),
        m_weights=np.zeros((1, 1)),
    )  # m = 1
    with pytest.raises(ValueError, match="strictly below"):
        alpha_beta_star(g, alpha=1.0)
    for alpha in (0.0, -0.5):
        with pytest.raises(ValueError, match="^alpha must be positive$"):
            alpha_beta_star(g, alpha=alpha)


def test_alpha_beta_star_substitution():
    g = QuadraticGame(
        r=2.0 * np.ones((1, 1, 1)), p_vec=np.zeros((1, 1)), q=np.zeros(1),
        m_weights=np.zeros((1, 1)),
    )  # m = 4
    rep = alpha_beta_star(g, alpha=1.0)
    assert rep.beta_star == pytest.approx(6.0, abs=1e-12)


def test_alpha_beta_eps_window(sensor_game):
    m = 2.0
    rng = np.random.default_rng(13)
    for _ in range(50):
        alpha = float(rng.uniform(0.05, 0.95)) * m
        rep = alpha_beta_star(sensor_game, alpha=alpha)
        assert rep.beta_star > 2.0 * alpha
        beta = float(rng.uniform(0.01, 1.5 * rep.beta_star))
        rep2 = alpha_beta_star(sensor_game, alpha=alpha, beta=beta)
        lo, hi = rep2.eps1_window
        inside = 2 * alpha - 2 * math.sqrt(alpha * m) < beta < 2 * alpha + 2 * math.sqrt(alpha * m)
        assert (lo < hi) == inside


def test_theta_bounds_formulas_coincide(sensor_game, path_graph):
    # the plain and saturated laws share one theta_star expression
    lyap = _sensor_lyap(path_graph)
    plain = theta_bounds_second_order(sensor_game, path_graph, lyap, GAINS2, saturated=False)
    satd = theta_bounds_second_order(sensor_game, path_graph, lyap, GAINS2, saturated=True)
    assert plain.theta_star == satd.theta_star
    assert plain.l1 == satd.l1 and plain.l2 == satd.l2 and plain.l3 == satd.l3
    # recompute the formula from the stored constants, bitwise
    b1 = plain.l1**2 / (4 * plain.m * plain.lambda_min_q) + plain.l2 / plain.lambda_min_q
    assert b1 == plain.theta_star


def test_theta_bounds_substitution_example():
    # m=2, l1=2, l2=1, lambda_min(Q)=1 gives theta_star = 1.5 on both routes
    m, l1, l2, lam_q = 2.0, 2.0, 1.0, 1.0
    assert l1**2 / (4 * m * lam_q) + l2 / lam_q == 1.5
    assert (l1**2 + 4 * m * l2) / (4 * m * lam_q) == 1.5
    # with theta=2, l3=1: lambda_min(A1) = (3 - sqrt(5)) / 2 and the
    # reference-gain ceiling is its cube root
    d = lam_q * 2.0 - l2
    lam_a1 = 0.5 * ((m + d) - math.sqrt((m - d) ** 2 + l1**2))
    assert lam_a1 == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, rel=1e-12)
    theta1 = (4.0 * lam_a1 / (2.0**2 * 1.0**2)) ** (1.0 / 3.0)
    assert theta1 == pytest.approx(0.7255626302463263, rel=1e-12)


def test_theta1_star_from_pipeline(sensor_game, path_graph):
    lyap = _sensor_lyap(path_graph)
    rep = theta_bounds_second_order(
        sensor_game, path_graph, lyap, GAINS2, saturated=True, theta=200.0
    )
    assert rep.theta_star < 200.0
    assert rep.theta1_star is not None and rep.theta1_star > 0.0
    assert rep.lambda_min_a1 > 0.0
    assert any("heuristic" in c for c in rep.caveats)
    # the unsaturated variant carries no heuristic caveat
    rep2 = theta_bounds_second_order(
        sensor_game, path_graph, lyap, GAINS2, saturated=False, theta=200.0
    )
    assert not rep2.caveats
    # recompute the ceiling from the stored constants, bitwise
    recomputed = (4.0 * rep.lambda_min_a1 / (200.0**2 * rep.l3**2)) ** (1.0 / 3.0)
    assert recomputed == rep.theta1_star


def test_theta1_star_requires_theta_above_bound(sensor_game, path_graph):
    lyap = _sensor_lyap(path_graph)
    rep = theta_bounds_second_order(sensor_game, path_graph, lyap, GAINS2)
    with pytest.raises(ValueError, match="A1"):
        theta_bounds_second_order(
            sensor_game, path_graph, lyap, GAINS2, theta=0.5 * rep.theta_star
        )


def test_theta_that_overflows_the_ceiling_is_refused(sensor_game, path_graph):
    # (a - d)^2 overflows in lambda_min(A1): a ValueError naming theta, and no warning
    lyap = _sensor_lyap(path_graph)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^theta=1e\+308 gives a non-finite lambda_min\(A1\)"):
            theta_bounds_second_order(sensor_game, path_graph, lyap, GAINS2, theta=1e308)


@pytest.mark.parametrize("theta", [2e2, 1e6, 1e12, 1e100])
def test_lambda_min_a1_matches_a_decimal_oracle(sensor_game, path_graph, theta):
    # A1 = [[m, -l1/2], [-l1/2, d]], d = lambda_min(Q) theta - l2, from the report's
    # constants; the textbook form cancels about 2 log10(d) digits, so the oracle
    # carries 50 more than that
    rep = theta_bounds_second_order(
        sensor_game, path_graph, _sensor_lyap(path_graph), GAINS2, theta=theta
    )
    with decimal.localcontext() as ctx:
        ctx.prec = 50 + 2 * int(math.log10(theta))
        a, b = decimal.Decimal(rep.m), decimal.Decimal(rep.l1) / 2
        d = decimal.Decimal(rep.lambda_min_q * theta - rep.l2)
        exact = ((a + d) - ((a - d) ** 2 + 4 * b * b).sqrt()) / 2
        assert abs(decimal.Decimal(rep.lambda_min_a1) / exact - 1) < decimal.Decimal(4e-16)


@pytest.mark.parametrize("theta", [1e154, 1e200])
def test_theta_whose_square_overflows_is_refused(sensor_game, path_graph, theta):
    # theta1_star would read 0: refused like a non-finite one, and no warning
    lyap = _sensor_lyap(path_graph)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = f"theta={theta:.12g} gives a zero lambda_min(A1) or theta1_star"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            theta_bounds_second_order(sensor_game, path_graph, lyap, GAINS2, theta=theta)


@pytest.mark.parametrize("name", ["fig3", "fig4"])
def test_distributed_gain_report_needs_the_lyapunov_pair(name):
    cfg = parse_config(figure_preset(name))
    message = f"{cfg.tag.value} gain bounds need the Lyapunov pair of the estimation matrix"
    with pytest.raises(ValueError, match=f"^{message}$"):
        gain_report(cfg)


def test_a1_positive_definite_above_theta_star(sensor_game, path_graph):
    lyap = _sensor_lyap(path_graph)
    base = theta_bounds_second_order(sensor_game, path_graph, lyap, GAINS2)
    for factor in (1.001, 1.1, 2.0, 10.0):
        theta = factor * base.theta_star
        rep = theta_bounds_second_order(sensor_game, path_graph, lyap, GAINS2, theta=theta)
        d = rep.lambda_min_q * theta - rep.l2
        det = rep.m * d - rep.l1**2 / 4.0
        assert det > 0.0 and rep.m + d > 0.0
        assert rep.lambda_min_a1 > 0.0


@pytest.mark.parametrize("theta_bar", [1.0, "per_estimate"])
def test_l3_from_m1_matches_the_full_size_norm(sensor_game, path_graph, theta_bar):
    # l3 takes ||Tb M||_2 from the p = 1 matrices, since Tb M = (Tb1 M1) (x) I_p
    n, p = sensor_game.n_players, sensor_game.action_dim
    if theta_bar == "per_estimate":
        theta_bar = np.random.default_rng(4).uniform(0.5, 2.0, n * n).tolist()
    gains = GainSet(theta=200.0, theta1=1.0, K=[0.1, 0.3, 0.2], theta_bar=theta_bar)
    tb = np.repeat(gains.theta_bar_vec(n), p)
    lyap = solve_lyapunov(estimation_matrix(path_graph, p), tb, 1.0)
    rep = theta_bounds_second_order(sensor_game, path_graph, lyap, gains)
    tb_m = tb[:, None] * estimation_matrix(path_graph, p)
    full_size = 0.3 * float(lipschitz_constants(sensor_game).max()) * np.linalg.norm(tb_m, 2)
    assert rep.l3 == pytest.approx(full_size, rel=1e-12)
