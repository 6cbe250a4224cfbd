"""Configuration-driven Monte Carlo batches over the game engine.

Determinism contract: every per-trial seed is derived from the master seed by
the documented SHA-256 derivation (graph.derive_seed).  The graph of trial t
is derived from (master, t, 'graph') only, so sweeps over k reuse the same
graph ensemble (common random numbers); the per-cell game seed also hashes k.
Identical config => byte-identical CSV output.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
from dataclasses import dataclass, field
from typing import Optional

from . import __version__
from .engine import GameOutcome, Player, RuleVariant, play_game
from .graph import Graph, GnpSpec, derive_seed, gnp_generate, make_named
from .strategies import (
    GreedyFirstFit,
    PriorityAlice,
    MultiplicityBob,
    TargetBob,
    RandomLegal,
    StrategyParams,
    bob_even_setup,
)


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    graph: dict  # {'kind': 'gnp', 'n':, 'p':} or {'kind': 'star'|'path'|..., 'size':}
    k_range: list
    alice: dict
    bob: dict
    variant: str = "standard"
    trials: int = 1
    max_rounds: int = 10
    master_seed: int = 0
    fresh_graph: bool = True
    survival_quantile: float = 0.5
    output: Optional[str] = None

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not self.k_range:
            raise ConfigError("k_range must be nonempty")
        try:
            RuleVariant(self.variant)
        except ValueError:
            raise ConfigError(f"unknown variant {self.variant!r}") from None

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ExperimentConfig":
        unknown = set(obj) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            kr = obj["k_range"]
            if isinstance(kr, dict):
                kr = list(range(kr["min"], kr["max"] + 1))
            return cls(
                graph=obj["graph"],
                k_range=list(kr),
                alice=obj["alice"],
                bob=obj["bob"],
                variant=obj.get("variant", "standard"),
                trials=obj.get("trials", 1),
                max_rounds=obj.get("max_rounds", 10),
                master_seed=obj.get("master_seed", 0),
                fresh_graph=obj.get("fresh_graph", True),
                survival_quantile=obj.get("survival_quantile", 0.5),
                output=obj.get("output"),
            )
        except KeyError as e:
            raise ConfigError(f"missing config key: {e}") from None

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError(f"bad config JSON: {e}") from None
        return cls.from_json_obj(obj)

    def to_json_obj(self) -> dict:
        return {
            "graph": self.graph,
            "k_range": list(self.k_range),
            "alice": self.alice,
            "bob": self.bob,
            "variant": self.variant,
            "trials": self.trials,
            "max_rounds": self.max_rounds,
            "master_seed": self.master_seed,
            "fresh_graph": self.fresh_graph,
            "survival_quantile": self.survival_quantile,
            "output": self.output,
        }


@dataclass
class TrialRecord:
    trial_index: int
    seed: int
    k: int
    winner: str  # 'alice' | 'bob' | 'fault'
    termination_round: Optional[int]
    moves_played: int
    fault: bool


def build_graph(spec: dict, seed: Optional[int] = None) -> Graph:
    kind = spec.get("kind")
    if kind == "gnp":
        return gnp_generate(GnpSpec(spec["n"], spec["p"], spec.get("seed", seed if seed is not None else 0)))
    if kind in ("star", "path", "cycle", "complete", "empty"):
        return make_named(kind, spec["size"])
    raise ConfigError(f"unknown graph kind {kind!r}")


def build_strategy(spec: dict, graph: Graph, k: int):
    name = spec.get("name")
    params_obj = spec.get("params", {})
    if name == "greedyFirstFit":
        return GreedyFirstFit()
    if name == "randomLegal":
        return RandomLegal()
    params = StrategyParams.from_fractions(graph.n)
    if params_obj:
        try:
            params = dataclasses.replace(params, **params_obj)
        except (TypeError, ValueError) as e:  # unknown field, or a value StrategyParams rejects
            raise ConfigError(f"bad params for {name!r}: {e}") from None
    if name == "priorityAlice":
        return PriorityAlice(params)
    if name == "targetBob":
        return TargetBob(params, target=spec.get("target", 0))
    if name == "multiplicityBob":
        plan = bob_even_setup(graph, spec.get("l", 1), spec.get("k_inv", 2), spec.get("num_colors", k))
        return MultiplicityBob(plan, params)
    raise ConfigError(f"unknown strategy {name!r}")


def run_trial(config: ExperimentConfig, graph: Graph, k: int, trial: int) -> TrialRecord:
    seed = derive_seed(config.master_seed, trial, k)
    alice = build_strategy(config.alice, graph, k)
    bob = build_strategy(config.bob, graph, k)
    outcome = play_game(
        graph,
        k,
        alice,
        bob,
        variant=RuleVariant(config.variant),
        max_rounds=config.max_rounds,
        seed=seed,
    )
    if outcome.fault is not None:
        winner = "fault"
    else:
        winner = outcome.winner.value
    return TrialRecord(
        trial_index=trial,
        seed=seed,
        k=k,
        winner=winner,
        termination_round=outcome.termination_round,
        moves_played=len(outcome.transcript),
        fault=outcome.fault is not None,
    )


def run_experiment(config: ExperimentConfig) -> list[TrialRecord]:
    """One record per (k, trial) cell; fully deterministic from the config."""
    records: list[TrialRecord] = []
    shared_graph = None if config.fresh_graph else build_graph(config.graph, seed=derive_seed(config.master_seed, "graph"))
    graphs: dict[int, Graph] = {}
    for k in sorted(config.k_range):
        for trial in range(config.trials):
            if config.fresh_graph:
                graph = graphs.get(trial)
                if graph is None:
                    graph = build_graph(config.graph, seed=derive_seed(config.master_seed, trial, "graph"))
                    graphs[trial] = graph
            else:
                graph = shared_graph
            records.append(run_trial(config, graph, k, trial))
    return records


def win_rates(records: list[TrialRecord]) -> dict[int, dict]:
    out: dict[int, dict] = {}
    for k in sorted({r.k for r in records}):
        cell = [r for r in records if r.k == k]
        n = len(cell)
        out[k] = {
            "trials": n,
            "bob_win_rate": sum(1 for r in cell if r.winner == "bob") / n,
            "alice_survival_rate": sum(1 for r in cell if r.winner == "alice") / n,
            "fault_rate": sum(1 for r in cell if r.fault) / n,
        }
    return out


def estimate_threshold(config: ExperimentConfig, records: Optional[list[TrialRecord]] = None) -> dict:
    """Smallest k with Alice survival >= the configured quantile.

    Returns the full win-rate curve; censored=True when no k in range crosses.
    """
    if records is None:
        records = run_experiment(config)
    rates = win_rates(records)
    k_hat = None
    for k in sorted(rates):
        if rates[k]["alice_survival_rate"] >= config.survival_quantile:
            k_hat = k
            break
    return {"k_hat": k_hat, "censored": k_hat is None, "curve": rates}


CSV_COLUMNS = ["trialIndex", "seed", "k", "winner", "terminationRound", "movesPlayed", "fault"]


def records_to_csv(records: list[TrialRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in sorted(records, key=lambda r: (r.k, r.trial_index)):
        writer.writerow(
            [
                r.trial_index,
                r.seed,
                r.k,
                r.winner,
                "" if r.termination_round is None else r.termination_round,
                r.moves_played,
                int(r.fault),
            ]
        )
    return buf.getvalue()


def emit_outputs(records: list[TrialRecord], config: ExperimentConfig, out_dir: str) -> dict:
    """Write trials.csv and summary.json; returns the paths."""
    if not records:
        raise ValueError("no records to emit")
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "trials.csv")
    json_path = os.path.join(out_dir, "summary.json")
    with open(csv_path, "w") as fh:
        fh.write(records_to_csv(records))
    summary = {
        "version": __version__,
        "config": config.to_json_obj(),
        "win_rates": {str(k): v for k, v in win_rates(records).items()},
        "threshold": estimate_threshold(config, records),
    }
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"csv": csv_path, "summary": json_path}


def preflight_output(out_dir: str) -> None:
    """Fail before any trial runs if the output location is unwritable."""
    os.makedirs(out_dir, exist_ok=True)
    probe = os.path.join(out_dir, ".write-probe")
    with open(probe, "w") as fh:
        fh.write("ok")
    os.remove(probe)
