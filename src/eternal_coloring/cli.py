"""Command-line interface: play, solve, audit, experiment, threshold.

Exit codes: 0 success, 2 config error (bad input), 3 infeasible solve,
4 audit with a failed check.
"""

from __future__ import annotations

import argparse
import json
import sys

from .audit import AuditParams, audit_graph
from .engine import RuleVariant, play_game
from .experiments import (
    ConfigError,
    ExperimentConfig,
    build_graph,
    build_strategy,
    check_variant,
    emit_outputs,
    estimate_threshold,
    preflight_output,
    run_experiment,
    trial_graph,
)
from .graph import NAMED_KINDS
from .solver import SolverInfeasible, eternal_game_chromatic_number, solve_eternal


def _graph_spec(text: str) -> dict:
    """Parse 'gnp:n,p,seed' or 'star:5' style graph specs."""
    kind, _, rest = text.partition(":")
    parts = rest.split(",")
    try:
        if kind == "gnp" and len(parts) in (2, 3):
            spec = {"kind": "gnp", "n": int(parts[0]), "p": float(parts[1])}
            if len(parts) == 3:
                spec["seed"] = int(parts[2])
            return spec
        if kind in NAMED_KINDS:
            return {"kind": kind, "size": int(rest)}
    except ValueError as e:  # a number that does not parse
        raise ConfigError(f"bad graph spec {text!r}: {e}") from None
    if kind == "gnp":
        raise ConfigError("gnp spec is gnp:n,p[,seed]")
    raise ConfigError(f"unknown graph spec {text!r}")


def _check_positive(flag: str, value) -> None:
    if value is not None and value < 1:
        raise ConfigError(f"{flag} must be >= 1, got {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="eternal-coloring")
    sub = parser.add_subparsers(dest="command", required=True)

    p_play = sub.add_parser("play", help="play one game and print the transcript")
    p_play.add_argument("--graph", required=True)
    p_play.add_argument("--k", type=int, required=True)
    p_play.add_argument("--alice", default="greedyFirstFit")
    p_play.add_argument("--bob", default="greedyFirstFit")
    p_play.add_argument("--variant", default="standard", choices=[v.value for v in RuleVariant])
    p_play.add_argument("--max-rounds", type=int, default=10)
    p_play.add_argument("--seed", type=int, default=0)

    p_solve = sub.add_parser("solve", help="exact solve on a tiny graph")
    p_solve.add_argument("--graph", required=True)
    p_solve.add_argument("--k", type=int, help="single palette size; omit to scan for k*")
    p_solve.add_argument("--variant", default="standard", choices=[v.value for v in RuleVariant])
    p_solve.add_argument("--state-cap", type=int, default=10**8)

    p_audit = sub.add_parser("audit", help="structural property audit")
    p_audit.add_argument("--graph", required=True)
    p_audit.add_argument("--p", type=float, default=0.5)
    p_audit.add_argument("--epsilon", type=float, default=0.1)
    p_audit.add_argument("--seed", type=int, default=0)

    p_exp = sub.add_parser("experiment", help="run a config-driven trial batch")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out", help="output directory (overrides config)")
    p_exp.add_argument("--seed", type=int, help="master seed (overrides config)")

    p_thr = sub.add_parser("threshold", help="empirical k-threshold from a config sweep")
    p_thr.add_argument("--config", required=True)
    p_thr.add_argument("--seed", type=int)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except SolverInfeasible as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    if args.command == "play":
        _check_positive("--k", args.k)
        _check_positive("--max-rounds", args.max_rounds)
        check_variant((args.alice, args.bob), args.variant)
        graph = build_graph(_graph_spec(args.graph))
        alice = build_strategy({"name": args.alice}, graph, args.k)
        bob = build_strategy({"name": args.bob}, graph, args.k)
        outcome = play_game(
            graph, args.k, alice, bob, RuleVariant(args.variant), args.max_rounds, args.seed
        )
        print(
            json.dumps(
                {
                    "winner": None if outcome.winner is None else outcome.winner.value,
                    "fault": None if outcome.fault is None else outcome.fault.value,
                    "termination_round": outcome.termination_round,
                    "rounds_completed": outcome.rounds_completed,
                    "transcript": [rec.to_json_obj() for rec in outcome.transcript],
                }
            )
        )
        return 0
    if args.command == "solve":
        _check_positive("--k", args.k)
        _check_positive("--state-cap", args.state_cap)
        graph = build_graph(_graph_spec(args.graph))
        variant = RuleVariant(args.variant)
        if args.k is not None:
            res = solve_eternal(graph, args.k, variant, state_cap=args.state_cap)
            print(json.dumps({"winner": res.winner.value, "statesExplored": res.states_explored, "maxRank": res.max_rank}))
        else:
            scan = eternal_game_chromatic_number(graph, variant, state_cap=args.state_cap)
            print(
                json.dumps(
                    {
                        "k_star": scan.k_star,
                        "winners": {str(k): w.value for k, w in scan.winners.items()},
                    }
                )
            )
        return 0
    if args.command == "audit":
        if not 0 <= args.p <= 1:
            raise ConfigError(f"--p must be in [0, 1], got {args.p}")
        if not 0 < args.epsilon <= 100:  # a percentage; its colour count grows with it
            raise ConfigError(f"--epsilon must be in (0, 100], got {args.epsilon}")
        graph = build_graph(_graph_spec(args.graph))
        params = AuditParams(p=args.p, epsilon=args.epsilon, seed=args.seed)
        report = audit_graph(graph, params)
        print(json.dumps(report.to_json_obj(), indent=2))
        return 0 if report.all_hold else 4
    if args.command in ("experiment", "threshold"):
        config = ExperimentConfig.from_file(args.config)
        if args.seed is not None:
            config.master_seed = args.seed
        if args.command == "threshold":
            print(json.dumps(estimate_threshold(config), indent=2))
            return 0
        out_dir = args.out or config.output
        if not out_dir:
            raise ConfigError("no output directory (use --out or config 'output')")
        first_graph = trial_graph(config, 0)  # strategy specs are checked before any output is made
        for spec in (config.alice, config.bob):
            build_strategy(spec, first_graph, min(config.k_range))
        preflight_output(out_dir)
        records = run_experiment(config)
        paths = emit_outputs(records, config, out_dir)
        print(json.dumps(paths))
        return 0
    raise AssertionError(args.command)


if __name__ == "__main__":
    raise SystemExit(main())
