"""Strict parsing of experiment configuration documents (JSON).

Unknown keys are fatal everywhere: a silently ignored typo in a gain name
would invalidate an experiment. Parsed configurations normalise init
keywords ("zeros", "broadcast:<scalar>") into full vectors, so one parse
is a fixed point of serialise-then-reparse.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .dynamics import STRATEGIES, GainSet, SaturationSpec, StateLayout, StrategyTag
from .errors import ConfigError
from .games import QuadraticGame
from .graphs import CommGraph
from .presets import GAME_REGISTRY
from .simulate import SimConfig

__all__ = ["ExperimentConfig", "parse_config", "read_document", "load_config"]

_TOP_KEYS = {"game", "graph", "strategy", "sim", "init", "output", "sweep"}
_QUADRATIC_KEYS = ("r", "p_vec", "q", "m_weights")
_GAME_KEYS = {"type", "name", *_QUADRATIC_KEYS}
_GRAPH_KEYS = {"adjacency", "lyapunov_q"}
_STRATEGY_KEYS = {"tag", "gains", "saturation", "tuner_overrides"}
_GAIN_KEYS = {"theta", "theta1", "theta_bar", "K", "alpha", "beta"}
_SAT_KEYS = {"u_bar", "lower", "upper"}
_OVERRIDE_KEYS = {"lipschitz_constants", "monotonicity_m", "sup_jacobian_norm"}
_SIM_KEYS = {f.name for f in fields(SimConfig)}
_INIT_KEYS = {"x0", "nu0", "z0", "y0"}
_OUTPUT_KEYS = ("trajectory", "summary")

_ECHO_CHARS = 40
_ECHO_KEYS = 3
_JSON_TYPES = {dict: "an object", list: "a list", bool: "a boolean", type(None): "null",
               int: "a number", float: "a number"}


def _echo(value, quote="'"):
    """A refused value as an error message shows it, at a bounded length.

    A string is quoted; past ``_ECHO_CHARS`` characters it is cut there and
    followed by its length. Any other value is named by its type instead.
    """
    if not isinstance(value, str):
        kind = _JSON_TYPES.get(type(value), f"a {type(value).__name__}")
        return f"{kind} instead of a string"
    if len(value) <= _ECHO_CHARS:
        return f"{quote}{value}{quote}"
    return f"{quote}{value[:_ECHO_CHARS]}...{quote} ({len(value)} characters)"


def _reject_unknown(section, allowed, path):
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(section).difference(allowed)
    if unknown:
        shown = [_echo(key) for key in sorted(unknown)[:_ECHO_KEYS]]
        if len(unknown) > _ECHO_KEYS:
            shown.append(f"{len(unknown) - _ECHO_KEYS} more")
        raise ConfigError(f"{path}: unknown keys [{', '.join(shown)}]")


def _require(section, key, path):
    if key not in section:
        raise ConfigError(f"{path}: missing required key '{key}'")
    return section[key]


def _number(value, path):
    """A JSON number as a float; strings and booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{path}: expected a number")
    return float(value)


def _numbers(value, path):
    """A JSON number or rectangular nested list of numbers, as a float array."""
    arr = np.asarray(value, dtype=object)  # a ragged row stays a list and is refused
    if arr.ndim > 32:  # numpy iterates over at most 32 axes
        raise ConfigError(f"{path}: lists nested more than 32 levels deep")
    if not set(map(type, arr.flat)) <= {float, int}:  # a bool, a str or a list takes the walk
        for item in arr.flat:
            _number(item, path)
    return arr.astype(float)


def _positive(value, path):
    v = _number(value, path)
    if not v > 0.0:
        raise ConfigError(f"{path}: must be strictly positive")
    return v


_JSON_LEAVES = frozenset((str, float, bool, type(None)))


def _json_copy(value):
    """A copy of ``value`` in JSON's own types, as ``json.loads(json.dumps(value))``.

    Lists, tuples, dicts with string keys and the leaf types above are
    copied without the text; a numpy number becomes the Python number it
    equals. Anything else takes the text round trip (a numpy array becomes
    its nested list), so it is converted or refused as before.
    """
    kind = type(value)
    if kind is list or kind is tuple:  # leaves are tested in line to save a call each
        return [v if type(v) in _JSON_LEAVES else _json_copy(v) for v in value]
    if kind is dict and all(type(k) is str for k in value):
        return {k: v if type(v) in _JSON_LEAVES else _json_copy(v) for k, v in value.items()}
    if isinstance(value, numbers.Integral):
        return int(str(value))  # json.dumps's conversion, with its digit limit
    if isinstance(value, numbers.Real):
        return float(value)
    return json.loads(json.dumps(value, default=np.ndarray.tolist))


@dataclass
class ExperimentConfig:
    """A fully validated experiment: game, graph, strategy, sim, init."""

    game: object
    graph: CommGraph
    tag: StrategyTag
    gains: GainSet
    sat_spec: SaturationSpec | None
    sim: SimConfig
    init: dict
    lyapunov_q: object
    tuner_overrides: dict
    output: dict | None
    sweep: list | None
    normalized: dict = field(repr=False, default=None)

    @property
    def layout(self):
        return StateLayout(self.tag, self.game.n_players, self.game.action_dim)

    def initial_state(self):
        return self.layout.pack(**self.init)

    def to_dict(self):
        """Normalised plain-dict form; parse(to_dict(...)) is the identity."""
        return json.loads(json.dumps(self.normalized))

    def config_hash(self):
        blob = json.dumps(self.normalized, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _parse_game(section):
    _reject_unknown(section, _GAME_KEYS, "game")
    kind = _require(section, "type", "game")
    if kind == "quadratic":
        for key in _QUADRATIC_KEYS:
            _require(section, key, "game")
        if "name" in section:
            raise ConfigError("game: 'name' is only valid for type custom")
        arrays = {key: _numbers(section[key], f"game.{key}") for key in _QUADRATIC_KEYS}
        if arrays["q"].ndim > 1:
            raise ConfigError("game.q: expected a number or a flat list")
        try:
            return QuadraticGame(**arrays), arrays
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"game: {exc}") from exc
    if kind == "custom":
        name = _require(section, "name", "game")
        if not isinstance(name, str):
            raise ConfigError("game.name: expected the name of a registered custom game")
        extra = set(section) & set(_QUADRATIC_KEYS)
        if extra:
            raise ConfigError(f"game: keys {sorted(extra)} are only valid for type quadratic")
        if name not in GAME_REGISTRY:
            raise ConfigError(
                f"game: unknown custom game {_echo(name)}; available: {sorted(GAME_REGISTRY)}"
            )
        return GAME_REGISTRY[name](), {}
    raise ConfigError(f"game: type must be 'quadratic' or 'custom', got {_echo(kind)}")


def _parse_vector(value, length, path):
    if isinstance(value, str):
        if value == "zeros":
            return np.zeros(length)
        if value.startswith("broadcast:"):
            try:
                scalar = float(value.split(":", 1)[1])
            except ValueError:
                raise ConfigError(f"{path}: malformed broadcast keyword {_echo(value)}") from None
            if not np.isfinite(scalar):
                raise ConfigError(f"{path}: {_echo(value, '')} is not a finite number")
            return np.full(length, scalar)
        raise ConfigError(f"{path}: expected a vector, 'zeros', or 'broadcast:<scalar>'")
    try:
        arr = _numbers(value, path).ravel()
    except ConfigError:
        raise ConfigError(f"{path}: expected a flat list of numbers") from None
    if arr.size != length:
        raise ConfigError(f"{path}: expected length {length}, got {arr.size}")
    return arr


def parse_config(doc):
    """Validate a configuration dict and build the experiment objects.

    The normalized form (``to_dict``, ``config_hash``) is a copy of ``doc``
    with the parsed values written back: floats wherever numbers are read, the
    whole ``sim`` section, every init block, symmetric bounds as ``u_bar``,
    and no empty ``gains`` or ``tuner_overrides``.
    """
    _reject_unknown(doc, _TOP_KEYS, "config")
    for key in ("game", "graph", "strategy", "sim"):
        _require(doc, key, "config")

    game, game_arrays = _parse_game(doc["game"])
    n, p = game.n_players, game.action_dim

    graph_sec = doc["graph"]
    _reject_unknown(graph_sec, _GRAPH_KEYS, "graph")
    adjacency = _numbers(_require(graph_sec, "adjacency", "graph"), "graph.adjacency")
    if adjacency.shape != (n, n):
        raise ConfigError(f"graph.adjacency: expected shape ({n}, {n}), got {adjacency.shape}")
    try:
        graph = CommGraph(adjacency)
    except ValueError as exc:
        raise ConfigError(f"graph.adjacency: {exc}") from exc
    lyap_q = graph_sec.get("lyapunov_q", 1.0)
    if isinstance(lyap_q, (list, np.ndarray)):
        lyap_q = _numbers(lyap_q, "graph.lyapunov_q")
        n2p = n * n * p
        if lyap_q.shape != (n2p, n2p):
            raise ConfigError(f"graph.lyapunov_q: expected a scalar or a {n2p}x{n2p} matrix")
    else:
        lyap_q = _positive(lyap_q, "graph.lyapunov_q")

    strat = doc["strategy"]
    _reject_unknown(strat, _STRATEGY_KEYS, "strategy")
    tag_raw = _require(strat, "tag", "strategy")
    try:
        tag = StrategyTag(tag_raw)
    except ValueError:
        raise ConfigError(
            f"strategy.tag: unknown tag {_echo(tag_raw)}; "
            f"valid: {[t.value for t in StrategyTag]}"
        ) from None

    gains_sec = strat.get("gains", {})
    _reject_unknown(gains_sec, _GAIN_KEYS, "strategy.gains")
    for key in STRATEGIES[tag].gains:
        _require(gains_sec, key, "strategy.gains")
    kwargs = {}
    for key in ("theta", "theta1", "alpha", "beta"):
        if key in gains_sec:
            kwargs[key] = _positive(gains_sec[key], f"strategy.gains.{key}")
    for key in ("theta_bar", "K"):
        if key in gains_sec:
            val = _numbers(gains_sec[key], f"strategy.gains.{key}")
            if val.ndim > 1:
                raise ConfigError(f"strategy.gains.{key}: expected a number or a flat list")
            kwargs[key] = float(val) if val.ndim == 0 else val
    try:
        gains = GainSet(**kwargs)
        gains.theta_bar_vec(n)
        if gains.K is not None:
            gains.k_vec(n, p)
    except ValueError as exc:
        raise ConfigError(f"strategy.gains: {exc}") from exc

    layout = StateLayout(tag, n, p)
    sat_spec = None
    if "saturation" in strat:
        sat_sec = strat["saturation"]
        _reject_unknown(sat_sec, _SAT_KEYS, "strategy.saturation")
        if "u_bar" in sat_sec and ("lower" in sat_sec or "upper" in sat_sec):
            raise ConfigError("strategy.saturation: give either u_bar or lower/upper, not both")
        symmetric = "u_bar" in sat_sec
        bounds = [
            _numbers(_require(sat_sec, key, "strategy.saturation"), f"strategy.saturation.{key}")
            for key in (("u_bar",) if symmetric else ("lower", "upper"))
        ]
        try:
            sat_spec = SaturationSpec.symmetric(*bounds) if symmetric else SaturationSpec(*bounds)
            sat_spec.check_size(layout.action_size)
        except ValueError as exc:
            raise ConfigError(f"strategy.saturation: {exc}") from exc
    if layout.is_saturated and sat_spec is None:
        raise ConfigError(f"strategy: tag {tag.value} requires a saturation section")

    given = strat.get("tuner_overrides", {})
    _reject_unknown(given, _OVERRIDE_KEYS, "strategy.tuner_overrides")
    overrides = {}
    for key, val in given.items():
        path = f"strategy.tuner_overrides.{key}"
        if key == "lipschitz_constants":
            if not isinstance(val, list) or len(val) != n:
                raise ConfigError(f"{path}: expected a list of {n} numbers, one per player")
            overrides[key] = [_positive(v, path) for v in val]
        else:
            overrides[key] = _positive(val, path)

    sim_sec = doc["sim"]
    _reject_unknown(sim_sec, _SIM_KEYS, "sim")
    given = dict(sim_sec)  # SimConfig fills in the keys not given
    if "monitor_lyapunov" in given and not isinstance(given["monitor_lyapunov"], bool):
        raise ConfigError("sim.monitor_lyapunov: expected true or false")
    for key in ("dt", "t_end"):
        given[key] = _number(_require(sim_sec, key, "sim"), f"sim.{key}")
    if "convergence_tol" in given:
        given["convergence_tol"] = _number(given["convergence_tol"], "sim.convergence_tol")
    try:
        sim = SimConfig(**given)
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}") from exc

    init_sec = doc.get("init", {})
    _reject_unknown(init_sec, _INIT_KEYS, "init")
    init = {}
    block_sizes = {name: b - a for name, (a, b) in layout.offsets.items()}
    for key, value in init_sec.items():
        block = key[:-1]  # drop the trailing 0
        if block not in block_sizes:
            raise ConfigError(f"init.{key}: layout {tag.value} has no block '{block}'")
        init[block] = _parse_vector(value, block_sizes[block], f"init.{key}")
    for block, size in block_sizes.items():
        init.setdefault(block, np.zeros(size))

    output = None
    if "output" in doc:
        _reject_unknown(doc["output"], _OUTPUT_KEYS, "output")
        output = dict(doc["output"])
        for key in _OUTPUT_KEYS:
            path = _require(output, key, "output")
            if not isinstance(path, str) or not path:
                raise ConfigError(f"output.{key}: expected a file path")
        if os.path.realpath(output["trajectory"]) == os.path.realpath(output["summary"]):
            raise ConfigError("output: trajectory and summary must be different files")

    sweep = None
    if "sweep" in doc:
        sweep = doc["sweep"]
        if not isinstance(sweep, list) or not all(isinstance(e, dict) for e in sweep):
            raise ConfigError("sweep: expected a list of override objects")

    # the document itself, with each value the parse reads or fills in written back
    try:
        normalized = _json_copy(doc)
    except RecursionError:  # nested past Python's recursion limit; json's C code goes deeper
        normalized = json.loads(json.dumps(doc))
    normalized["game"].update((k, v.tolist()) for k, v in game_arrays.items())
    normalized["graph"]["adjacency"] = adjacency.tolist()
    if "lyapunov_q" in graph_sec:
        normalized["graph"]["lyapunov_q"] = np.asarray(lyap_q).tolist()
    strategy = normalized["strategy"]
    strategy["gains"] = {k: np.asarray(v).tolist() for k, v in kwargs.items()}
    strategy["tuner_overrides"] = dict(overrides)
    for key in ("gains", "tuner_overrides"):  # dropped when empty
        if not strategy.get(key):
            strategy.pop(key, None)
    if sat_spec is not None:
        lower, upper = sat_spec.lower.tolist(), sat_spec.upper.tolist()
        symmetric = sat_spec.is_symmetric  # symmetric lower/upper fold to u_bar
        strategy["saturation"] = {"u_bar": upper} if symmetric else {"lower": lower, "upper": upper}
    normalized["sim"] = {f.name: getattr(sim, f.name) for f in fields(sim)}
    normalized["init"] = {f"{k}0": v.tolist() for k, v in sorted(init.items())}

    return ExperimentConfig(
        game=game,
        graph=graph,
        tag=tag,
        gains=gains,
        sat_spec=sat_spec,
        sim=sim,
        init=init,
        lyapunov_q=lyap_q,
        tuner_overrides=overrides,
        output=output,
        sweep=sweep,
        normalized=normalized,
    )


def read_document(path):
    """Read a JSON configuration file into a dict without validating it.

    Strict JSON: ``NaN``, ``Infinity``, literals that overflow to
    infinity, integers included, and a key given twice in one object are
    refused.
    """

    def finite(text):
        val = float(text)
        if not math.isfinite(val):
            raise ConfigError(f"{path}: {_echo(text, '')} is not a finite number")
        return val

    def integer(text):
        finite(text)  # an integer literal past the float range reads as inf
        return int(text)

    def unique(pairs):
        obj = {}
        for key, val in pairs:
            if key in obj:
                raise ConfigError(f"{path}: duplicate key {_echo(key)}")
            obj[key] = val
        return obj

    try:
        with open(path) as fh:
            hooks = dict(parse_int=integer, parse_float=finite, parse_constant=finite)
            doc = json.load(fh, object_pairs_hook=unique, **hooks)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise ConfigError(f"{path}: nested too deeply to read") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return doc


def load_config(path):
    """Read and parse a JSON configuration file."""
    return parse_config(read_document(path))
