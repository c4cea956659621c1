"""Command-line front end.

Subcommands::

    nes-sim run <config.json>          run one experiment (or its sweep)
    nes-sim tune <config.json>         print the gain bounds for the config
    nes-sim oracle <config.json>       print the exact Nash equilibrium
    nes-sim replicate <fig2|fig3|fig4> --out DIR   run a built-in preset

Exit codes: 0 success, 1 usage, configuration or runtime error, 2 the
run completed but did not converge.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import tuning
from .config import ConfigError, _echo, parse_config, read_document
from .errors import DivergenceError
from .graphs import estimation_matrix, solve_lyapunov
from .presets import PRESET_NAMES, figure_preset
from .runner import check_output_paths, run_experiment
from .simulate import run_sweep


class SweepEntryError(Exception):
    """A user error in building or running one sweep entry; the message names the entry."""

    def __init__(self, idx, exc):
        super().__init__(f"sweep[{idx}]: {exc}")


# every package error but DivergenceError is a ValueError; OSError covers
# output files that cannot be written, MemoryError record arrays that
# cannot be allocated
_USER_ERRORS = (ValueError, DivergenceError, OSError, MemoryError, SweepEntryError)


def _set_dotted(doc, dotted, value):
    *parents, last = dotted.split(".")
    node = doc
    for key in parents:
        node = node.get(key) if isinstance(node, dict) else None
    if not isinstance(node, dict):
        raise ConfigError(f"override {_echo(dotted)}: no such config path")
    node[last] = value


def _apply_overrides(doc, args):
    """Apply ``--dt``/``--t-end`` as the dotted overrides ``sim.dt``/``sim.t_end``."""
    for dotted, value in (("sim.dt", args.dt), ("sim.t_end", args.t_end)):
        if value is not None:
            _set_dotted(doc, dotted, value)
    return doc


def cmd_run(args):
    doc = _apply_overrides(read_document(args.config), args)
    base_cfg = parse_config(doc)
    if base_cfg.output is None:
        raise ConfigError("run requires an output section (trajectory and summary paths)")

    if base_cfg.sweep:
        # every entry starts from the base document alone, so the cost of
        # building one entry does not grow with the length of the sweep
        base = json.dumps({key: val for key, val in doc.items() if key != "sweep"})
        variants, writers = [], {}
        for idx, overrides in enumerate(base_cfg.sweep):
            variant = json.loads(base)
            try:
                for dotted, value in overrides.items():
                    _set_dotted(variant, dotted, value)
                if "sweep" in variant:
                    raise ConfigError("an entry may not set its own sweep")
                variants.append(parse_config(_apply_overrides(variant, args)))
                check_output_paths(variants[-1].output)
            except ValueError as exc:
                raise SweepEntryError(idx, exc) from exc
            for path in variants[-1].output.values():
                other = writers.setdefault(os.path.realpath(path), idx)
                if other != idx:
                    raise ConfigError(
                        f"sweep entries {other} and {idx} both write {path}; "
                        "override the output paths so runs do not collide"
                    )

        def run_entry(cfg):
            # returned, not raised: a raise would cancel the entries after it
            try:
                return run_experiment(cfg)[0]
            except _USER_ERRORS as exc:
                return exc

        failed, all_converged = False, True
        for idx, result in enumerate(run_sweep(variants, run_entry)):
            if isinstance(result, Exception):
                print(f"error: sweep[{idx}]: {result}", file=sys.stderr)
                failed = True
                continue
            print(f"# sweep[{idx}]")
            for line in result.lines():
                print(line)
            all_converged &= result.converged
        return 1 if failed else 0 if all_converged else 2

    summary, _ = run_experiment(base_cfg)
    for line in summary.lines():
        print(line)
    return 0 if summary.converged else 2


def cmd_tune(args):
    cfg = parse_config(_apply_overrides(read_document(args.config), args))
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
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(flat, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def cmd_oracle(args):
    cfg = parse_config(_apply_overrides(read_document(args.config), args))
    x_star = cfg.game.exact_ne()
    residual = float(np.max(np.abs(cfg.game.pseudo_gradient(x_star))))
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
    outdir.mkdir(parents=True, exist_ok=True)
    preset["output"] = {key: str(outdir / path) for key, path in preset["output"].items()}
    cfg = parse_config(preset)
    summary, _ = run_experiment(cfg)
    for line in summary.lines():
        print(line)
    ok = summary.converged and (summary.bounds_ok is None or summary.bounds_ok)
    return 0 if ok else 2


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting 1: its own code 2 means "did not converge" here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(
        prog="nes-sim",
        description="Simulate Nash-equilibrium-seeking strategies with bounded controls.",
    )
    parser.add_argument("--dt", type=float, default=None, help="override the sim step size")
    parser.add_argument("--t-end", type=float, default=None, help="override the sim horizon")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)

    p_tune = sub.add_parser("tune", help="compute gain bounds for a config")
    p_tune.add_argument("config")
    p_tune.add_argument("--out", default=None, help="also write the report as JSON")
    p_tune.set_defaults(func=cmd_tune)

    p_oracle = sub.add_parser("oracle", help="print the exact Nash equilibrium")
    p_oracle.add_argument("config")
    p_oracle.set_defaults(func=cmd_oracle)

    p_rep = sub.add_parser("replicate", help="run a built-in benchmark preset")
    p_rep.add_argument("figure", help=f"one of: {', '.join(PRESET_NAMES)}")
    p_rep.add_argument("--out", required=True, help="output directory")
    p_rep.set_defaults(func=cmd_replicate)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
