"""Strict parsing of experiment configuration documents (JSON).

One parser per top-level section returns its object and its normalized
section, and a command runs only the parsers of the sections it reads:
``parse_game`` the game (``oracle``), ``parse_tuning`` the game, strategy
and graph (``tune``), and ``parse_config`` all six (``run``). Every one of
them refuses an unknown top-level key; a section none of them reads is
not looked inside.

Within a parsed section unknown keys are fatal: a silently ignored typo
in a gain name would invalidate an experiment. So is a key the run does
not read: a gain outside ``STRATEGIES[tag].gains`` (``theta_bar`` aside,
for the laws with estimates), a tuner override outside
``STRATEGIES[tag].overrides``, ``graph.lyapunov_q`` for a law without
estimates, and ``sim.convergence_tol`` for a game that is not quadratic,
which has no oracle to converge to. ``graph`` itself may be left out
under a law without estimates. Parsed configurations normalise init
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

__all__ = ["ExperimentConfig", "TuningConfig", "parse_config", "parse_game", "parse_tuning",
           "read_document"]

_TOP_KEYS = {"game", "graph", "strategy", "sim", "init", "output"}
_QUADRATIC_KEYS = ("r", "p_vec", "q", "m_weights")
_GAME_KEYS = {"type", "name", *_QUADRATIC_KEYS}
_STRATEGY_KEYS = {"tag", "gains", "saturation", "tuner_overrides"}
_SAT_KEYS = {"u_bar", "lower", "upper"}
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


def _reject_unknown(section, allowed, path, reader=None):
    """Refuse a section that is not an object or holds keys outside ``allowed``;
    given a ``reader`` ("tag first_order_dist"), ``allowed`` is what it reads
    and the message names it."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(section).difference(allowed)
    if unknown:
        shown = [_echo(key) for key in sorted(unknown)[:_ECHO_KEYS]]
        if len(unknown) > _ECHO_KEYS:
            shown.append(f"{len(unknown) - _ECHO_KEYS} more")
        what = "unknown keys" if reader is None else f"{reader} does not read"
        raise ConfigError(f"{path}: {what} [{', '.join(shown)}]")


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


@dataclass
class TuningConfig:
    """The sections ``tune`` reads: the game, the strategy and the graph.

    ``graph`` is None when the document gives none, which only a tag
    without estimates allows.
    """

    game: object
    graph: CommGraph | None
    tag: StrategyTag
    layout: StateLayout
    gains: GainSet
    sat_spec: SaturationSpec | None
    lyapunov_q: object
    tuner_overrides: dict


@dataclass
class ExperimentConfig(TuningConfig):
    """A fully validated experiment: the sections ``tune`` reads, sim, init and output."""

    sim: SimConfig
    init: dict
    output: dict | None
    normalized: dict = field(repr=False)
    # each output path through os.path.realpath, by key: the file it names
    output_files: dict | None = field(repr=False)

    def initial_state(self):
        return self.layout.pack(**self.init)

    def to_dict(self):
        """A fresh copy of this one experiment's normalized form; parse(to_dict(...))
        is the identity."""
        return json.loads(json.dumps(self.normalized))

    def config_hash(self):
        """The first 16 hex digits of the SHA-256 of the normalized form with sorted keys."""
        blob = json.dumps(self.normalized, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _parse_game(section):
    """The game and its normalized section: the arrays as float lists, or the registered name."""
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
            game = QuadraticGame(**arrays)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"game: {exc}") from exc
        return game, {"type": kind, **{key: val.tolist() for key, val in arrays.items()}}
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
        return GAME_REGISTRY[name](), {"type": kind, "name": name}
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


def _parse_strategy(section, game):
    """The tag, layout, gains, saturation and tuner overrides, and the normalized section:
    floats for the gains, symmetric bounds as ``u_bar``, and no empty ``gains`` or
    ``tuner_overrides``."""
    n, p = game.n_players, game.action_dim
    _reject_unknown(section, _STRATEGY_KEYS, "strategy")
    tag_raw = _require(section, "tag", "strategy")
    try:
        tag = StrategyTag(tag_raw)
    except ValueError:
        raise ConfigError(
            f"strategy.tag: unknown tag {_echo(tag_raw)}; "
            f"valid: {[t.value for t in StrategyTag]}"
        ) from None
    spec, reader = STRATEGIES[tag], f"tag {tag.value}"
    try:
        layout = StateLayout(tag, n, p)
    except ValueError as exc:
        raise ConfigError(f"strategy.tag: {exc}") from exc
    normalized = {"tag": tag.value}

    gains_sec = section.get("gains", {})
    # the per-estimate weights are read by every law with estimates
    gain_keys = [*spec.gains, "theta_bar"] if layout.has_estimates else spec.gains
    _reject_unknown(gains_sec, gain_keys, "strategy.gains", reader)
    for key in spec.gains:
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
    if kwargs:
        normalized["gains"] = {key: np.asarray(val).tolist() for key, val in kwargs.items()}

    sat_spec = None
    if "saturation" in section:
        sat_sec = section["saturation"]
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
        bounds = {"lower": sat_spec.lower.tolist(), "upper": sat_spec.upper.tolist()}
        normalized["saturation"] = {"u_bar": bounds["upper"]} if sat_spec.is_symmetric else bounds
    if layout.is_saturated and sat_spec is None:
        raise ConfigError(f"strategy: tag {tag.value} requires a saturation section")

    given = section.get("tuner_overrides", {})
    _reject_unknown(given, spec.overrides, "strategy.tuner_overrides", reader)
    overrides = {}
    for key, val in given.items():
        path = f"strategy.tuner_overrides.{key}"
        if key == "lipschitz_constants":
            if not isinstance(val, list) or len(val) != n:
                raise ConfigError(f"{path}: expected a list of {n} numbers, one per player")
            overrides[key] = [_positive(v, path) for v in val]
        else:
            overrides[key] = _positive(val, path)
    if overrides:
        normalized["tuner_overrides"] = dict(overrides)
    parsed = dict(tag=tag, layout=layout, gains=gains, sat_spec=sat_spec, tuner_overrides=overrides)
    return parsed, normalized


def _parse_graph(section, game, layout):
    """The graph and ``lyapunov_q``, and the normalized section."""
    n, p = game.n_players, game.action_dim
    # the Lyapunov pair's Q is read by the laws with estimates
    keys = ("adjacency", "lyapunov_q") if layout.has_estimates else ("adjacency",)
    _reject_unknown(section, keys, "graph", f"tag {layout.tag.value}")
    adjacency = _numbers(_require(section, "adjacency", "graph"), "graph.adjacency")
    if adjacency.shape != (n, n):
        raise ConfigError(f"graph.adjacency: expected shape ({n}, {n}), got {adjacency.shape}")
    try:
        graph = CommGraph(adjacency)
    except ValueError as exc:
        raise ConfigError(f"graph.adjacency: {exc}") from exc
    normalized = {"adjacency": adjacency.tolist()}
    lyap_q = section.get("lyapunov_q", 1.0)
    if isinstance(lyap_q, (list, np.ndarray)):
        lyap_q = _numbers(lyap_q, "graph.lyapunov_q")
        n2p = n * n * p
        if lyap_q.shape != (n2p, n2p):
            raise ConfigError(f"graph.lyapunov_q: expected a scalar or a {n2p}x{n2p} matrix")
    else:
        lyap_q = _positive(lyap_q, "graph.lyapunov_q")
    if "lyapunov_q" in section:
        normalized["lyapunov_q"] = np.asarray(lyap_q).tolist()
    return (graph, lyap_q), normalized


def _parse_sim(section, game, layout):
    """The ``SimConfig`` and the normalized section: every key it reads, defaults included."""
    _reject_unknown(section, _SIM_KEYS, "sim")
    # a game that is not quadratic has no oracle, so its run tests no convergence
    read = _SIM_KEYS if isinstance(game, QuadraticGame) else _SIM_KEYS - {"convergence_tol"}
    _reject_unknown(section, read, "sim", "a game that is not quadratic")
    given = dict(section)  # SimConfig fills in the keys not given
    if "monitor_lyapunov" in given and not isinstance(given["monitor_lyapunov"], bool):
        raise ConfigError("sim.monitor_lyapunov: expected true or false")
    for key in ("dt", "t_end"):
        given[key] = _number(_require(section, key, "sim"), f"sim.{key}")
    if "convergence_tol" in given:
        given["convergence_tol"] = _number(given["convergence_tol"], "sim.convergence_tol")
    try:
        sim = SimConfig(**given)
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}") from exc
    # the record array integrate allocates: numpy indexes at most intp-max bytes, and
    # it must fit in the physical memory, where sysconf can read that
    nbytes = 8 * sim.n_records * layout.size
    records = f"sim: dt = {sim.dt:g} and t_end = {sim.t_end:g} give {sim.n_records:.3g} records"
    if nbytes > np.iinfo(np.intp).max:
        raise ConfigError(f"{records} of {layout.size} floats, more than one array can hold")
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        memory = 0
    if 0 < memory < nbytes:
        gib = f"{nbytes / 2**30:.3g} GiB, more than the {memory / 2**30:.3g} GiB"
        raise ConfigError(f"{records} of {layout.size} floats, {gib} of physical memory")
    return sim, {f.name: getattr(sim, f.name) for f in fields(sim) if f.name in read}


def _parse_init(section, layout):
    """Every block of the layout as a full vector, zeros where not given, and the
    normalized section."""
    _reject_unknown(section, _INIT_KEYS, "init")
    init = {block: np.zeros(b - a) for block, (a, b) in layout.offsets.items()}
    for key, value in section.items():
        block = key[:-1]  # drop the trailing 0
        if block not in init:
            raise ConfigError(f"init.{key}: layout {layout.tag.value} has no block '{block}'")
        init[block] = _parse_vector(value, init[block].size, f"init.{key}")
    return init, {f"{key}0": val.tolist() for key, val in sorted(init.items())}


def _parse_output(section):
    """The output paths and the files they name, and the normalized section."""
    _reject_unknown(section, _OUTPUT_KEYS, "output")
    for key in _OUTPUT_KEYS:
        path = _require(section, key, "output")
        if not isinstance(path, str) or not path:
            raise ConfigError(f"output.{key}: expected a file path")
    output_files = {key: os.path.realpath(path) for key, path in section.items()}
    if output_files["trajectory"] == output_files["summary"]:
        raise ConfigError("output: trajectory and summary must be different files")
    return (dict(section), output_files), dict(section)


def parse_game(doc):
    """The game of a document, the one section ``oracle`` reads, and its
    normalized section; of the other top-level keys, only the names are checked."""
    _reject_unknown(doc, _TOP_KEYS, "config")
    return _parse_game(_require(doc, "game", "config"))


def parse_tuning(doc):
    """The sections ``tune`` reads as a ``TuningConfig``, and their normalized form.

    ``graph`` may be left out under a tag without estimates, whose laws
    never read it; given, it is parsed and checked all the same.
    """
    game, game_sec = parse_game(doc)
    strategy, strategy_sec = _parse_strategy(_require(doc, "strategy", "config"), game)
    normalized = {"game": game_sec, "strategy": strategy_sec}
    graph = lyap_q = None
    if "graph" in doc or strategy["layout"].has_estimates:
        graph_sec = _require(doc, "graph", "config")
        (graph, lyap_q), normalized["graph"] = _parse_graph(graph_sec, game, strategy["layout"])
    return TuningConfig(game=game, graph=graph, lyapunov_q=lyap_q, **strategy), normalized


def parse_config(doc):
    """Validate a configuration dict and build the experiment objects.

    The normalized form (``to_dict``, ``config_hash``) is the dict of the
    sections each section parser builds from the parsed values, not copied
    from ``doc``: floats wherever numbers are read, every ``sim`` key the
    run reads, every init block, symmetric bounds as ``u_bar``, and no
    empty ``gains`` or ``tuner_overrides``. ``doc`` is one experiment: any
    other top-level key is refused as unknown, a batch's list of overrides
    too, which the command line's ``run`` expands itself into documents of
    one experiment each.
    """
    tuning, normalized = parse_tuning(doc)
    sim, normalized["sim"] = _parse_sim(_require(doc, "sim", "config"), tuning.game, tuning.layout)
    init, normalized["init"] = _parse_init(doc.get("init", {}), tuning.layout)
    output = output_files = None
    if "output" in doc:
        (output, output_files), normalized["output"] = _parse_output(doc["output"])
    return ExperimentConfig(**vars(tuning), sim=sim, init=init, output=output,
                            normalized=normalized, output_files=output_files)


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
