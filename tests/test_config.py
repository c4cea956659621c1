import json

import numpy as np
import pytest

from nes_sim import (
    ConfigError,
    GainSet,
    QuadraticGame,
    StrategyTag,
    estimation_matrix,
    load_config,
    make_rhs,
    parse_config,
    random_connected_graph,
    random_strongly_monotone_game,
    solve_lyapunov,
    theta_star_first_order,
)
from nes_sim.config import read_document
from nes_sim.dynamics import STRATEGIES
from nes_sim.games import GameDefinition
from nes_sim.presets import PRESET_NAMES, figure_preset


def test_presets_parse(tmp_path):
    for name in PRESET_NAMES:
        cfg = parse_config(figure_preset(name))
        assert cfg.game.n_players == 3 and cfg.game.action_dim == 2
        assert cfg.initial_state().size == cfg.layout.size


def test_fig3_init_resolution():
    cfg = parse_config(figure_preset("fig3"))
    s0 = cfg.initial_state()
    np.testing.assert_array_equal(s0[:6], [10, 0, 0, 5, 0, 0])
    np.testing.assert_array_equal(s0[6:], np.full(18, 10.0))


def test_round_trip_is_identity():
    for name in PRESET_NAMES:
        cfg1 = parse_config(figure_preset(name))
        doc = json.loads(json.dumps(cfg1.to_dict()))
        cfg2 = parse_config(doc)
        assert cfg2.to_dict() == cfg1.to_dict()
        assert cfg2.config_hash() == cfg1.config_hash()


def test_config_hash_changes_with_content():
    a = parse_config(figure_preset("fig2"))
    doc = figure_preset("fig2")
    doc["sim"]["dt"] = 2e-3
    b = parse_config(doc)
    assert a.config_hash() != b.config_hash()


def test_unknown_keys_rejected_everywhere():
    doc = figure_preset("fig2")
    doc["extra_section"] = {}
    with pytest.raises(ConfigError, match="unknown keys.*extra_section"):
        parse_config(doc)
    doc = figure_preset("fig2")
    doc["sim"]["step"] = 0.1
    with pytest.raises(ConfigError, match="sim.*unknown keys.*step"):
        parse_config(doc)
    doc = figure_preset("fig3")
    doc["strategy"]["gains"]["thets"] = 1.0
    with pytest.raises(ConfigError, match="strategy.gains.*thets"):
        parse_config(doc)


def test_missing_required_gains():
    doc = figure_preset("fig3")
    del doc["strategy"]["gains"]["theta"]
    with pytest.raises(ConfigError, match="strategy.gains.*theta"):
        parse_config(doc)
    doc = figure_preset("fig4")
    del doc["strategy"]["gains"]["K"]
    with pytest.raises(ConfigError, match="strategy.gains.*K"):
        parse_config(doc)


ALL_GAINS = {"theta": 1000.0, "theta1": 1.0, "K": 0.1, "alpha": 1.0, "beta": 1.0}


@pytest.mark.parametrize("tag", list(StrategyTag))
def test_required_gains_come_from_the_table(tag):
    doc = figure_preset("fig2")
    doc["strategy"]["tag"] = tag.value
    doc["strategy"]["gains"] = dict(ALL_GAINS)
    cfg = parse_config(doc)
    make_rhs(tag, cfg.game, graph=cfg.graph, gains=cfg.gains, sat_spec=cfg.sat_spec)
    for name in STRATEGIES[tag].gains:
        partial = {k: v for k, v in ALL_GAINS.items() if k != name}
        doc["strategy"]["gains"] = partial
        with pytest.raises(ConfigError, match=f"strategy.gains: missing required key '{name}'"):
            parse_config(doc)
        with pytest.raises(ValueError, match=f"missing required gains: {name}$"):
            make_rhs(
                tag, cfg.game, graph=cfg.graph, gains=GainSet(**partial), sat_spec=cfg.sat_spec
            )


def test_nonpositive_gain_rejected():
    doc = figure_preset("fig3")
    doc["strategy"]["gains"]["theta"] = -1000.0
    with pytest.raises(ConfigError, match="positive"):
        parse_config(doc)
    doc = figure_preset("fig3")
    doc["strategy"]["gains"]["theta"] = 0.0
    with pytest.raises(ConfigError, match="positive"):
        parse_config(doc)


def test_dimension_consistency_enforced():
    doc = figure_preset("fig2")
    doc["graph"]["adjacency"] = [[0.0, 1.0], [1.0, 0.0]]
    with pytest.raises(ConfigError, match="adjacency"):
        parse_config(doc)
    doc = figure_preset("fig2")
    doc["init"]["x0"] = [1.0, 2.0, 3.0]
    with pytest.raises(ConfigError, match="init.x0.*length 6"):
        parse_config(doc)
    doc = figure_preset("fig3")
    doc["strategy"]["gains"]["theta_bar"] = [1.0, 1.0]
    with pytest.raises(ConfigError, match="theta_bar"):
        parse_config(doc)


def test_init_keywords():
    doc = figure_preset("fig3")
    doc["init"]["y0"] = "zeros"
    cfg = parse_config(doc)
    np.testing.assert_array_equal(cfg.initial_state()[6:], np.zeros(18))
    doc["init"]["y0"] = "broadcast:2.5"
    cfg = parse_config(doc)
    np.testing.assert_array_equal(cfg.initial_state()[6:], np.full(18, 2.5))
    doc["init"]["y0"] = "broadcast:abc"
    with pytest.raises(ConfigError, match="broadcast"):
        parse_config(doc)
    doc["init"]["y0"] = "linspace"
    with pytest.raises(ConfigError, match="zeros"):
        parse_config(doc)


@pytest.mark.parametrize("scalar", ["nan", "inf", "1e999"])
def test_broadcast_must_be_finite(scalar):
    doc = figure_preset("fig3")
    doc["init"]["y0"] = f"broadcast:{scalar}"
    with pytest.raises(ConfigError, match=f"init.y0: broadcast:{scalar} is not a finite number"):
        parse_config(doc)


def test_init_blocks_must_match_layout():
    doc = figure_preset("fig2")
    doc["init"]["nu0"] = "zeros"
    with pytest.raises(ConfigError, match="no block 'nu'"):
        parse_config(doc)


def test_custom_registry_game():
    doc = {
        "game": {"type": "custom", "name": "skew_bilinear"},
        "graph": {"adjacency": [[0.0, 1.0], [1.0, 0.0]]},
        "strategy": {"tag": "sat_grad_play", "saturation": {"u_bar": 1.0}},
        "sim": {"dt": 0.01, "t_end": 1.0},
    }
    cfg = parse_config(doc)
    assert isinstance(cfg.game, GameDefinition) and not isinstance(cfg.game, QuadraticGame)
    doc["game"]["name"] = "nonexistent"
    with pytest.raises(ConfigError, match="unknown custom game"):
        parse_config(doc)


def test_game_type_validation():
    doc = figure_preset("fig2")
    doc["game"]["type"] = "cubic"
    with pytest.raises(ConfigError, match="quadratic.*custom"):
        parse_config(doc)
    doc = figure_preset("fig2")
    del doc["game"]["r"]
    with pytest.raises(ConfigError, match="game.*'r'"):
        parse_config(doc)
    doc = figure_preset("fig2")
    doc["game"]["m_weights"] = [[0.0, 1.0, 0.0], [0.5, 0.0, 1.0], [0.0, 1.0, 0.0]]
    with pytest.raises(ConfigError, match="symmetric"):
        parse_config(doc)


def test_saturation_required_for_saturated_tags():
    doc = figure_preset("fig3")
    del doc["strategy"]["saturation"]
    with pytest.raises(ConfigError, match="saturation"):
        parse_config(doc)


def test_saturation_exclusive_forms():
    doc = figure_preset("fig2")
    doc["strategy"]["saturation"] = {"u_bar": 5.0, "lower": [-1.0] * 6}
    with pytest.raises(ConfigError, match="not both"):
        parse_config(doc)
    doc["strategy"]["saturation"] = {"lower": [-1.0] * 6, "upper": [2.0] * 6}
    cfg = parse_config(doc)
    assert not cfg.sat_spec.is_symmetric


def test_strategy_tag_validation():
    doc = figure_preset("fig2")
    doc["strategy"]["tag"] = "newton_play"
    with pytest.raises(ConfigError, match="unknown tag"):
        parse_config(doc)


def test_second_order_central_config():
    doc = figure_preset("fig2")
    doc["strategy"] = {"tag": "second_order_central", "gains": {"alpha": 1.0, "beta": 1.0}}
    doc["init"] = {"x0": [10.0, 0.0, 0.0, 5.0, 0.0, 0.0], "nu0": "zeros"}
    cfg = parse_config(doc)
    assert cfg.tag is StrategyTag.SECOND_ORDER_CENTRAL
    assert cfg.sat_spec is None
    assert cfg.layout.size == 12


def test_sweep_section_validation():
    doc = figure_preset("fig2")
    doc["sweep"] = [{"sim.dt": 2e-3}]
    cfg = parse_config(doc)
    assert cfg.sweep == [{"sim.dt": 2e-3}]
    doc["sweep"] = "not-a-list"
    with pytest.raises(ConfigError, match="sweep"):
        parse_config(doc)


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_monitor_lyapunov_must_be_a_boolean(value):
    doc = figure_preset("fig2")
    doc["sim"]["monitor_lyapunov"] = value
    with pytest.raises(ConfigError, match="sim.monitor_lyapunov: expected true or false"):
        parse_config(doc)


@pytest.mark.parametrize("value", [{"a": 1}, [[1.0, 2.0], [3.0]], ["a"] * 6])
def test_init_vector_must_hold_numbers(value):
    doc = figure_preset("fig2")
    doc["init"] = {"x0": value}
    with pytest.raises(ConfigError, match="init.x0: expected a flat list of numbers"):
        parse_config(doc)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("lipschitz_constants", [1.0], "expected a list of 3 numbers"),
        ("lipschitz_constants", 2.0, "expected a list of 3 numbers"),
        ("lipschitz_constants", [1.0, -1.0, 1.0], "must be strictly positive"),
        ("sup_jacobian_norm", -3.0, "must be strictly positive"),
        ("monotonicity_m", 0.0, "must be strictly positive"),
        ("monotonicity_m", "abc", "expected a number"),
    ],
)
def test_tuner_overrides_validated(key, value, message):
    doc = figure_preset("fig3")
    doc["strategy"]["tuner_overrides"] = {key: value}
    with pytest.raises(ConfigError, match=f"strategy.tuner_overrides.{key}: {message}"):
        parse_config(doc)
    doc["strategy"]["tuner_overrides"] = {
        "lipschitz_constants": [1.0, 2.0, 3.0], "sup_jacobian_norm": 3.0, "monotonicity_m": 1
    }
    assert parse_config(doc).tuner_overrides["monotonicity_m"] == 1


def test_output_paths_must_differ(tmp_path):
    doc = figure_preset("fig2")
    doc["output"] = {"trajectory": str(tmp_path / "x"), "summary": str(tmp_path / "." / "x")}
    with pytest.raises(ConfigError, match="trajectory and summary must be different files"):
        parse_config(doc)


def test_load_config_errors(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(ConfigError, match="line 1"):
        load_config(bad)
    scalar = tmp_path / "scalar.json"
    scalar.write_text("42")
    with pytest.raises(ConfigError, match="top level"):
        load_config(scalar)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(figure_preset("fig2")))
    cfg = load_config(good)
    assert cfg.tag is StrategyTag.SAT_GRAD_PLAY


@pytest.mark.parametrize(
    "name, config_hash, text_sha",
    [
        ("fig2", "d7fd5a31c78c9740", "3a00caa5cfa37a93"),
        ("fig3", "7c6f31e0ddf93182", "eac1c3f08dfa2f62"),
        ("fig4", "e2bb9b0c3f3bd507", "adb689038aa4bb35"),
    ],
)
def test_presets_are_pinned(name, config_hash, text_sha):
    # the preset text, key order included, and the hash of its parse
    import hashlib

    doc = figure_preset(name)
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16] == text_sha
    assert parse_config(doc).config_hash() == config_hash


def test_normalized_form_is_the_document_with_parsed_values_written_back():
    doc = figure_preset("fig2")
    doc["graph"]["adjacency"] = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    doc["strategy"] = {
        "tag": "sat_grad_play",
        "gains": {},
        "saturation": {"lower": -2, "upper": 2},
        "tuner_overrides": {},
    }
    doc["sim"] = {"dt": 1, "t_end": 4}
    doc.pop("init")
    doc["sweep"] = [{"sim.dt": 2}]
    before = json.loads(json.dumps(doc))
    normalized = parse_config(doc).to_dict()
    assert doc == before
    assert normalized == {
        "game": doc["game"],
        "graph": {"adjacency": [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]},
        "strategy": {"tag": "sat_grad_play", "saturation": {"u_bar": 2.0}},
        "sim": {
            "dt": 1.0,
            "t_end": 4.0,
            "record_stride": 1,
            "integrator": "rk4",
            "convergence_tol": 1e-3,
            "monitor_lyapunov": False,
        },
        "init": {"x0": [0.0] * 6},
        "output": doc["output"],
        "sweep": [{"sim.dt": 2}],
    }
    assert type(normalized["sim"]["dt"]) is float


def _ensemble_entry_0(seed):
    """Entry 0 of the benchmark's seeded ensemble sweep, built by its recipe.

    N = 2, p = 1 under first_order_dist at theta = 1.1 theta*, with
    dt = min(1e-3, 2 / (theta lambda_max(M))). theta and dt are rounded to
    12 digits so that a pinned hash does not rest on the last bits of the
    host's LAPACK.
    """
    rng = np.random.default_rng(seed)
    game = random_strongly_monotone_game(rng, 2, 1)
    graph = random_connected_graph(rng, 2)
    M = estimation_matrix(graph, 1)
    theta = 1.1 * theta_star_first_order(game, graph, solve_lyapunov(M, 1.0, 1.0)).theta_star
    dt = min(1e-3, 2.0 / (theta * float(np.linalg.eigvalsh(M)[-1])))
    theta, dt = float(f"{theta:.12g}"), float(f"{dt:.12g}")
    return {
        "game": {
            "type": "quadratic",
            "r": game.r.tolist(),
            "p_vec": game.p_vec.tolist(),
            "q": game.q.tolist(),
            "m_weights": game.m_weights.tolist(),
        },
        "graph": {"adjacency": graph.adjacency.tolist()},
        "strategy": {
            "tag": "first_order_dist",
            "gains": {"theta": theta, "theta_bar": 1.0},
            "saturation": {"u_bar": 50.0},
        },
        "sim": {
            "dt": dt,
            "t_end": 15.0,
            "record_stride": max(1, int(round(0.05 / dt))),
            "integrator": "rk4",
            "convergence_tol": 1e-3,
            "monitor_lyapunov": True,
        },
        "init": {"x0": rng.uniform(-2.0, 2.0, 2).tolist()},
        "output": {"trajectory": "out/item00_trajectory.csv", "summary": "out/item00_summary.txt"},
    }


def _with(doc, where, value):
    """``doc`` with ``value`` put at the key path ``where``."""
    *parents, last = where
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


def test_ensemble_entry_hash_is_pinned():
    # any change to the normalized form (a value, a type, a key) moves the hash
    assert parse_config(_ensemble_entry_0(1)).config_hash() == "662176fee52dec71"


@pytest.mark.parametrize(
    "name, where, as_floats, as_given",
    [
        ("fig2", ("game", "q"), [3.0, 3.0, 6.0], [3, 3, 6]),
        ("fig2", ("game", "m_weights"), [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
         [[0, 1, 0], [1, 0, 1], [0, 1, 0]]),
        ("fig3", ("graph", "lyapunov_q"), 2.0, 2),
        ("fig3", ("graph", "lyapunov_q"), np.eye(18).tolist(), np.eye(18, dtype=int).tolist()),
        ("fig3", ("graph", "lyapunov_q"), np.eye(18).tolist(), np.eye(18)),
        ("fig2", ("strategy", "tuner_overrides"), {"monotonicity_m": 1.0}, {"monotonicity_m": 1}),
        ("fig2", ("strategy", "tuner_overrides"), {"lipschitz_constants": [12.0] * 3},
         {"lipschitz_constants": [12, 12, 12]}),
    ],
    ids=["int-q", "int-m-weights", "int-scalar-q", "int-matrix-q", "ndarray-q",
         "int-override", "int-lipschitz"],
)
def test_equal_documents_hash_equal(name, where, as_floats, as_given):
    # the normalized form holds what the parse read, so numbers equal as
    # floats give one hash whatever their JSON type or container
    floats = parse_config(_with(figure_preset(name), where, as_floats))
    given = parse_config(_with(figure_preset(name), where, as_given))
    assert json.dumps(given.to_dict()) == json.dumps(floats.to_dict())
    assert given.config_hash() == floats.config_hash()


@pytest.mark.parametrize(
    "key, value", [("theta_bar", [[1.0] * 3] * 3), ("K", [[0.1]] * 3)], ids=["theta_bar", "K"]
)
def test_gains_with_more_than_one_axis_are_refused(key, value):
    # read flat, they would be hashed nested: refused like 2-D saturation bounds
    doc = figure_preset("fig4")
    doc["strategy"]["gains"][key] = value
    with pytest.raises(ConfigError, match=f"^strategy.gains.{key}: expected a number or a flat"):
        parse_config(doc)


@pytest.mark.parametrize(
    "where, value, message",
    [
        (("graph",), 5, "graph: expected an object"),
        (("game", "name"), "skew_bilinear", "game: 'name' is only valid for type custom"),
        (
            ("game",),
            {"type": "custom", "name": "skew_bilinear", "q": [1.0, 1.0]},
            "game: keys ['q'] are only valid for type quadratic",
        ),
        # read flat, a nested q would be hashed nested: refused like theta_bar and K
        (("game", "q"), [[3.0], [3.0], [6.0]], "game.q: expected a number or a flat list"),
        (
            ("graph", "adjacency", 0, 1),
            0.5,
            "graph.adjacency: adjacency must be symmetric (undirected graph)",
        ),
        (
            ("graph", "lyapunov_q"),
            np.eye(6).tolist(),
            "graph.lyapunov_q: expected a scalar or a 18x18 matrix",
        ),
    ],
    ids=["section", "quadratic-name", "custom-keys", "nested-q", "graph", "lyapunov_q-shape"],
)
def test_malformed_sections_are_refused(where, value, message):
    with pytest.raises(ConfigError) as info:
        parse_config(_with(figure_preset("fig3"), where, value))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "where, value, path",
    [
        (("game", "r", 1, 0, 1), True, "game.r"),
        (("game", "r", 2, 1, 0), None, "game.r"),
        (("graph", "adjacency", 0, 1), "1.0", "graph.adjacency"),
    ],
    ids=["true-in-r", "null-in-r", "string-in-adjacency"],
)
def test_non_numbers_in_numeric_lists_are_refused(where, value, path):
    doc = _with(figure_preset("fig3"), where, value)
    with pytest.raises(ConfigError, match=f"^{path}: expected a number$"):
        parse_config(doc)


def test_numpy_scalars_parse_like_plain_floats():
    # the library path: numbers taken from numpy arrays one by one
    doc = figure_preset("fig3")

    def numpy_numbers(value, integral):
        if isinstance(value, list):
            return [numpy_numbers(v, integral) for v in value]
        if integral and value == int(value):
            return np.int64(value)
        return np.float64(value)

    mixed = json.loads(json.dumps(doc))
    for key in ("r", "p_vec", "q", "m_weights"):
        mixed["game"][key] = numpy_numbers(doc["game"][key], integral=False)
    mixed["graph"]["adjacency"] = numpy_numbers(doc["graph"]["adjacency"], integral=True)
    mixed["init"]["x0"] = numpy_numbers(doc["init"]["x0"], integral=True)
    assert isinstance(mixed["graph"]["adjacency"][0][1], np.int64)
    plain, cfg = parse_config(doc), parse_config(mixed)
    assert json.dumps(cfg.to_dict()) == json.dumps(plain.to_dict())
    assert cfg.config_hash() == plain.config_hash()


_LONG = 100_000


@pytest.mark.parametrize(
    "where, value, message",
    [
        (
            ("game", "type"),
            "q" * _LONG,
            f"game: type must be 'quadratic' or 'custom', got '{'q' * 40}...' (100000 characters)",
        ),
        (
            ("game", "type"),
            json.loads("[" * 900 + "]" * 900),
            "game: type must be 'quadratic' or 'custom', got a list instead of a string",
        ),
        (
            ("game", "type"),
            3,
            "game: type must be 'quadratic' or 'custom', got a number instead of a string",
        ),
        (
            ("strategy", "tag"),
            "t" * _LONG,
            f"strategy.tag: unknown tag '{'t' * 40}...' (100000 characters); valid: ",
        ),
        (
            ("init", "y0"),
            "broadcast:" + "b" * _LONG,
            f"init.y0: malformed broadcast keyword 'broadcast:{'b' * 30}...' (100010 characters)",
        ),
        (
            ("game",),
            {"type": "custom", "name": "n" * _LONG},
            f"game: unknown custom game '{'n' * 40}...' (100000 characters); available: ",
        ),
    ],
    ids=["long-type", "deep-list-type", "number-type", "long-tag", "long-broadcast", "long-name"],
)
def test_refused_values_are_echoed_at_a_bounded_length(where, value, message):
    doc = _with(figure_preset("fig3"), where, value)
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert str(info.value).startswith(message)
    assert len(str(info.value)) < 300


def test_an_overflowing_literal_is_echoed_at_a_bounded_length(tmp_path):
    path = tmp_path / "huge.json"
    huge = "9" * 5000
    path.write_text(json.dumps(figure_preset("fig2")).replace('"t_end": 20.0', f'"t_end": {huge}'))
    with pytest.raises(ConfigError) as info:
        read_document(path)
    assert str(info.value) == f"{path}: {'9' * 40}... (5000 characters) is not a finite number"


def test_many_unknown_keys_are_counted_past_the_first_three():
    doc = figure_preset("fig3")
    doc["sim"].update({f"key{k:04d}": 1.0 for k in range(1000)})
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert str(info.value) == "sim: unknown keys ['key0000', 'key0001', 'key0002', 997 more]"
