"""Command-line front end: ``nes-sim [--dt DT] [--t-end T_END] COMMAND ...``.

The grammar, the commands and the exit codes are those ``_HELP`` prints.
The command line is read by one scan of argv against the ``_COMMANDS``
table: a general option parser's construction and message-catalogue
lookups took about a third of the set-up of the preset runs.
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import tuning
from .config import ConfigError, _echo, parse_config, parse_game, parse_tuning, read_document
from .errors import DivergenceError
from .graphs import estimation_matrix, solve_lyapunov
from .presets import PRESET_NAMES, figure_preset
from .runner import check_output_path, check_output_paths, run_experiment
from .simulate import run_sweep


# every package error but DivergenceError is a ValueError; OSError covers
# output files that cannot be written, MemoryError record arrays that
# cannot be allocated
_USER_ERRORS = (ValueError, DivergenceError, OSError, MemoryError)


def _set_dotted(doc, dotted, value):
    """Write ``value`` at a dotted path of ``doc``, copying each object below ``doc``
    along the path first, so the objects ``doc`` shares with other documents stay
    as they are."""
    *parents, last = dotted.split(".")
    node = doc
    for key in parents:
        child = node.get(key)
        if not isinstance(child, dict):
            raise ConfigError(f"override {_echo(dotted)}: no such config path")
        node[key] = dict(child)
        node = node[key]
    node[last] = value


def _apply_overrides(doc, args):
    """Apply ``--dt``/``--t-end`` as the dotted overrides ``sim.dt``/``sim.t_end``."""
    for dotted, value in (("sim.dt", args.dt), ("sim.t_end", args.t_end)):
        if value is not None:
            _set_dotted(doc, dotted, value)
    return doc


def _load(args):
    """The document ``args.config`` names, without its sweep and with the flags
    applied, and the sweep (None if it has none); the document read stays as read."""
    doc = read_document(args.config)
    base = {key: val for key, val in doc.items() if key != "sweep"}
    return _apply_overrides(base, args), doc.get("sweep")


def cmd_run(args):
    base, sweep = _load(args)
    base_cfg = parse_config(base)
    if sweep is not None:
        if not isinstance(sweep, list) or not all(isinstance(e, dict) for e in sweep):
            raise ConfigError("sweep: expected a list of override objects")
        if not sweep:
            raise ConfigError("sweep: the list is empty; give at least one entry or drop the key")
    if base_cfg.output is None:
        raise ConfigError("run requires an output section (trajectory and summary paths)")

    if sweep is not None:
        # every entry is a shallow copy of the base document, and an override copies
        # what it writes into, so the cost of building one entry does not grow with
        # the length of the sweep and no entry sees another's overrides
        variants, writers = [], {}
        for idx, overrides in enumerate(sweep):
            variant = dict(base)
            try:
                for dotted, value in overrides.items():
                    _set_dotted(variant, dotted, value)
                if "sweep" in variant:
                    raise ConfigError("an entry may not set its own sweep")
                cfg = parse_config(_apply_overrides(variant, args))
                check_output_paths(cfg.output)
            except ValueError as exc:
                raise ConfigError(f"sweep[{idx}]: {exc}") from exc
            variants.append(cfg)
            for key, real in cfg.output_files.items():
                other = writers.setdefault(real, idx)
                if other != idx:
                    raise ConfigError(
                        f"sweep entries {other} and {idx} both write {cfg.output[key]}; "
                        "override the output paths so runs do not collide"
                    )

        def run_entry(cfg):
            # returned with its warnings, not raised: a raise would cancel the entries
            # after it; catch_warnings is process-wide, and run_sweep runs one at a time
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    return run_experiment(cfg)[0], caught
                except _USER_ERRORS as exc:
                    return exc, caught

        failed, all_converged = False, True
        for idx, (result, caught) in enumerate(run_sweep(variants, run_entry)):
            for warning in caught:
                print(f"warning: sweep[{idx}]: {warning.message}", file=sys.stderr)
            if isinstance(result, Exception):
                print(f"error: sweep[{idx}]: {result}", file=sys.stderr)
                failed = True
                continue
            print(f"# sweep[{idx}]", *result.lines(), sep="\n")
            all_converged &= result.converged
        return 1 if failed else 0 if all_converged else 2

    summary, _ = run_experiment(base_cfg)
    print(*summary.lines(), sep="\n")
    return 0 if summary.converged else 2


def cmd_tune(args):
    if args.out is not None:  # checked before any work, as run checks its output section
        check_output_path("--out", args.out)
    cfg, _ = parse_tuning(_load(args)[0])  # tune reads no sweep, sim, init or output
    lyap = None
    if cfg.layout.has_estimates:
        game = cfg.game
        tb = cfg.gains.theta_bar_vec(game.n_players)
        M1 = estimation_matrix(cfg.graph, 1)
        lyap = solve_lyapunov(M1, tb, cfg.lyapunov_q, game.action_dim)
    report = tuning.gain_report(cfg, lyap)

    flat = report.as_dict()
    for key, val in flat.items():
        if isinstance(val, float):
            print(f"{key}={val:.12g}")
        elif isinstance(val, list):
            print(f"{key}={','.join(f'{v:.12g}' for v in val)}")
        else:
            print(f"{key}={val}")
    if args.out is not None:
        with open(args.out, "w") as fh:
            json.dump(flat, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def cmd_oracle(args):
    game, _ = parse_game(_load(args)[0])  # oracle reads the game alone
    x_star = game.exact_ne()
    residual = float(np.max(np.abs(game.pseudo_gradient(x_star))))
    print("x_star=" + ",".join(f"{v:.12f}" for v in x_star))
    print(f"pseudo_gradient_inf_norm={residual:.6e}")
    return 0


def cmd_replicate(args):
    try:
        preset = figure_preset(args.figure)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from exc
    _apply_overrides(preset, args)
    outdir = Path(args.out)
    preset["output"] = {key: str(outdir / path) for key, path in preset["output"].items()}
    cfg = parse_config(preset)  # refused before --out is created
    outdir.mkdir(parents=True, exist_ok=True)
    summary, _ = run_experiment(cfg)
    print(*summary.lines(), sep="\n")
    return 0 if summary.converged and summary.bounds_ok is not False else 2


# command: (handler, its one positional, whether it takes --out: None, "optional" or "required")
_COMMANDS = {
    "run": (cmd_run, "config", None),
    "tune": (cmd_tune, "config", "optional"),
    "oracle": (cmd_oracle, "config", None),
    "replicate": (cmd_replicate, "figure", "required"),
}
_CHOICES = ", ".join(_COMMANDS)
_GLOBAL_FLAGS = {"--dt": "dt", "--t-end": "t_end"}
_USAGE = f"usage: nes-sim [-h] [--dt DT] [--t-end T_END] {{{','.join(_COMMANDS)}}} ...\n"
_HELP = f"""\
usage: nes-sim [--dt DT] [--t-end T_END] run CONFIG
       nes-sim [--dt DT] [--t-end T_END] tune CONFIG [--out FILE]
       nes-sim [--dt DT] [--t-end T_END] oracle CONFIG
       nes-sim [--dt DT] [--t-end T_END] replicate {{{','.join(PRESET_NAMES)}}} --out DIR

Simulate Nash-equilibrium-seeking strategies with bounded controls: run an
experiment or its sweep, print its gain bounds (tune; --out also writes them
as JSON) or its exact Nash equilibrium (oracle), or run a built-in preset
into DIR (replicate). oracle reads only the game of CONFIG, and tune its
game, strategy and graph; every command refuses an unknown top-level key.
--dt and --t-end override sim.dt and sim.t_end. A flag's value follows it
or joins it with '=', and is not empty. -h or --help prints this.

Exit codes: 0 success; 1 usage, configuration or runtime error; 2 the run
completed but did not converge (replicate: or its input bounds failed).
"""


def _usage_error(message):
    sys.stderr.write(f"{_USAGE}nes-sim: error: {message}\n")
    sys.exit(1)


def _parse_args(argv):
    """Read ``argv`` by the grammar of ``_HELP``: the handler and its arguments.

    A usage error prints the usage and exits 1; ``-h``/``--help`` prints
    the help and exits 0.
    """
    args = {"dt": None, "t_end": None, "out": None}
    flags, command, positionals = _GLOBAL_FLAGS, None, []
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            sys.stdout.write(_HELP)
            sys.exit(0)
        if not token.startswith("-") or token == "-":
            if command is None:
                if token not in _COMMANDS:
                    _usage_error(f"unknown command {_echo(token)}; choose from {_CHOICES}")
                command = token
                flags = {"--out": "out"} if _COMMANDS[command][2] else {}
            else:
                positionals.append(token)
            continue
        name, joined, value = token.partition("=")
        if name not in flags:
            where = " goes before the command" if name in _GLOBAL_FLAGS else " is not an option"
            _usage_error(f"{_echo(token)}{where}")
        if args[flags[name]] is not None:
            _usage_error(f"{name} given twice")
        if not joined:
            value = next(tokens, None)
        if not value:  # missing, or empty as in --out=
            _usage_error(f"{name} expects a value")
        if flags is _GLOBAL_FLAGS:
            try:
                value = float(value)
            except ValueError:
                _usage_error(f"{name}: {_echo(value)} is not a number")
        args[flags[name]] = value

    if command is None:
        _usage_error(f"no command given; choose from {_CHOICES}")
    handler, positional, out = _COMMANDS[command]
    if not positionals:
        _usage_error(f"{command}: missing {positional.upper()}")
    if len(positionals) > 1:
        _usage_error(f"{command} takes one {positional.upper()}; "
                     f"{_echo(positionals[1])} is one too many")
    if out == "required" and args["out"] is None:
        _usage_error(f"{command} requires --out DIR")
    args[positional] = positionals[0]
    return handler, SimpleNamespace(**args)


def main(argv=None):
    handler, args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return handler(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
