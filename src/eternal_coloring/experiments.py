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
from dataclasses import dataclass
from typing import Optional

from . import __version__
from .engine import RuleVariant, play_game
from .graph import NAMED_KINDS, Graph, GnpSpec, derive_seed, gnp_generate, make_named
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


class TrialError(RuntimeError):
    """A game of a batch raised; names the (k, trial, seed) that replays it."""


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string", dict: "an object"}


def _check_type(what: str, value, kind: type) -> None:
    """ConfigError unless value has the JSON type kind: an int is not a bool,
    and a number is an int or a float."""
    if kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif kind is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(f"{what} must be {_TYPE_NAMES[kind]}, got {value!r}")


def _check_keys(what: str, obj: dict, allowed: set) -> None:
    """ConfigError naming the keys of obj outside allowed, if any: a typo,
    not a default."""
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown {what}: {sorted(unknown)}")


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
        for name, kind in (
            ("graph", dict), ("alice", dict), ("bob", dict), ("variant", str), ("trials", int),
            ("max_rounds", int), ("master_seed", int), ("fresh_graph", bool), ("survival_quantile", float),
        ):
            _check_type(name, getattr(self, name), kind)
        if self.output is not None:
            _check_type("output", self.output, str)
        if self.fresh_graph and self.graph.get("kind") == "gnp" and "seed" in self.graph:
            raise ConfigError("a gnp graph 'seed' plays every trial on one graph; it needs 'fresh_graph': false")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.max_rounds < 1:
            raise ConfigError("max_rounds must be >= 1")
        if not self.k_range:
            raise ConfigError("k_range must be nonempty")
        for k in self.k_range:
            _check_type("each k of k_range", k, int)
            if k < 1:
                raise ConfigError(f"each k of k_range must be >= 1, got {k}")
        if len(set(self.k_range)) < len(self.k_range):
            raise ConfigError(f"k_range repeats a k: {self.k_range}")
        if not 0 <= self.survival_quantile <= 1:
            raise ConfigError(f"survival_quantile must be in [0, 1], got {self.survival_quantile}")
        try:
            RuleVariant(self.variant)
        except ValueError:
            raise ConfigError(f"unknown variant {self.variant!r}") from None
        check_variant((self.alice.get("name"), self.bob.get("name")), self.variant)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ExperimentConfig":
        _check_type("a config", obj, dict)
        fields = dataclasses.fields(cls)
        _check_keys("config keys", obj, {f.name for f in fields})
        for f in fields:
            if f.name not in obj and f.default is dataclasses.MISSING:
                raise ConfigError(f"missing config key: {f.name!r}")
        kr = obj["k_range"]
        if isinstance(kr, dict):
            _check_keys("k_range keys", kr, {"min", "max"})
            for end in ("min", "max"):
                if end not in kr:
                    raise ConfigError(f"missing config key: {end!r}")
                _check_type(f"k_range {end}", kr[end], int)
            kr = range(kr["min"], kr["max"] + 1)
        elif not isinstance(kr, list):
            raise ConfigError(f"k_range must be a list or {{min, max}}, got {kr!r}")
        return cls(**{**obj, "k_range": list(kr)})

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from None
        except ValueError as e:  # not JSON, or not text
            raise ConfigError(f"bad config JSON: {e}") from None
        return cls.from_json_obj(obj)

    def to_json_obj(self) -> dict:
        return dataclasses.asdict(self)


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
    if kind != "gnp" and kind not in NAMED_KINDS:
        raise ConfigError(f"unknown graph kind {kind!r}")
    needed = {"n": int, "p": float} if kind == "gnp" else {"size": int}
    allowed = {"kind", "seed", *needed} if kind == "gnp" else {"kind", *needed}
    _check_keys(f"keys for graph kind {kind!r}", spec, allowed)
    for key, value_kind in needed.items():
        if key not in spec:
            raise ConfigError(f"graph kind {kind!r} needs {key!r}")
        _check_type(f"graph {key}", spec[key], value_kind)
    if kind == "gnp" and "seed" in spec:
        _check_type("graph seed", spec["seed"], int)
    try:
        if kind == "gnp":
            return gnp_generate(GnpSpec(spec["n"], spec["p"], spec.get("seed", seed if seed is not None else 0)))
        return make_named(kind, spec["size"])
    except ValueError as e:  # a size or probability out of range
        raise ConfigError(f"bad graph {spec}: {e}") from None


# the spec keys each strategy reads; any other key is a typo, not a default
_SPEC_KEYS = {
    "greedyFirstFit": {"name"},
    "randomLegal": {"name"},
    "priorityAlice": {"name", "params"},
    "targetBob": {"name", "params", "target"},
    "multiplicityBob": {"name", "params", "l", "k_inv", "num_colors"},
}
# the StrategyParams fields each priority strategy reads
_PARAM_KEYS = {
    "priorityAlice": {"danger_threshold", "nearly_full_threshold"},
    "targetBob": {"danger_threshold", "block_distance", "reserve_missing"},
    "multiplicityBob": {"danger_threshold", "block_distance", "reserve_missing", "multiplicity", "block_set_size"},
}


def check_variant(names, variant: str) -> None:
    """The priority Bobs play only standard rules: their copy-ins pick colours the greedy rules forbid."""
    for name in names:
        if variant != RuleVariant.STANDARD.value and name in ("targetBob", "multiplicityBob"):
            raise ConfigError(f"{name} plays only the standard variant, not {variant}")


def build_strategy(spec: dict, graph: Graph, k: int):
    name = spec.get("name")
    if not isinstance(name, str) or name not in _SPEC_KEYS:
        raise ConfigError(f"unknown strategy {name!r}")
    _check_keys(f"keys for {name!r}", spec, _SPEC_KEYS[name])
    params_obj = spec.get("params", {})
    if name == "greedyFirstFit":
        return GreedyFirstFit()
    if name == "randomLegal":
        return RandomLegal()
    params = StrategyParams.from_fractions(graph.n)
    _check_type(f"{name} params", params_obj, dict)
    _check_keys(f"params for {name!r}", params_obj, _PARAM_KEYS[name])
    for key, value in params_obj.items():
        if not (key == "block_set_size" and value is None):
            _check_type(f"{name} params {key}", value, int)
    if params_obj:
        try:
            params = dataclasses.replace(params, **params_obj)
        except ValueError as e:  # a value StrategyParams rejects
            raise ConfigError(f"bad params for {name!r}: {e}") from None
    if name == "priorityAlice":
        return PriorityAlice(params)
    if name == "targetBob":
        target = spec.get("target", 0)
        _check_type("targetBob target", target, int)
        if not 0 <= target < graph.n:
            raise ConfigError(f"targetBob target must be a vertex 0..{graph.n - 1}, got {target}")
        return TargetBob(params, target=target)
    setup = (spec.get("l", 1), spec.get("k_inv", 2), spec.get("num_colors", k))
    for key, value in zip(("l", "k_inv", "num_colors"), setup):
        _check_type(f"multiplicityBob {key}", value, int)
    if not 1 <= setup[2] <= k:
        raise ConfigError(f"multiplicityBob num_colors must be in 1..{k}, got {setup[2]}")
    try:
        plan = bob_even_setup(graph, *setup)
    except ValueError as e:  # no plan fits the graph, l, k_inv and num_colors
        raise ConfigError(f"multiplicityBob plan: {e}") from None
    return MultiplicityBob(plan, params)


def run_trial(config: ExperimentConfig, graph: Graph, k: int, trial: int) -> TrialRecord:
    seed = derive_seed(config.master_seed, trial, k)
    alice = build_strategy(config.alice, graph, k)
    bob = build_strategy(config.bob, graph, k)
    try:
        outcome = play_game(
            graph,
            k,
            alice,
            bob,
            variant=RuleVariant(config.variant),
            max_rounds=config.max_rounds,
            seed=seed,
        )
    except Exception as e:  # a strategy crashed: say which game, so it can be replayed
        raise TrialError(f"game k={k} trial={trial} seed={seed} raised {type(e).__name__}: {e}") from e
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


def trial_graph(config: ExperimentConfig, trial: int) -> Graph:
    """The graph a trial plays on: its own under fresh_graph, else the one shared graph."""
    seed = derive_seed(config.master_seed, trial, "graph") if config.fresh_graph else derive_seed(config.master_seed, "graph")
    return build_graph(config.graph, seed=seed)


def run_experiment(config: ExperimentConfig) -> list[TrialRecord]:
    """One record per (k, trial) cell, k-major; fully deterministic from the
    config.  Each trial's graph is built once, before the first game."""
    if config.fresh_graph:
        graphs = [trial_graph(config, t) for t in range(config.trials)]
    else:
        graphs = [trial_graph(config, 0)] * config.trials
    return [run_trial(config, graphs[t], k, t) for k in sorted(config.k_range) for t in range(config.trials)]


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
    threshold = estimate_threshold(config, records)
    summary = {
        "version": __version__,
        "config": config.to_json_obj(),
        "win_rates": {str(k): v for k, v in threshold["curve"].items()},
        "threshold": threshold,
    }
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"csv": csv_path, "summary": json_path}


def preflight_output(out_dir: str) -> None:
    """Fail before any trial runs if the output location is unwritable."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write-probe")
        with open(probe, "w") as fh:
            fh.write("ok")
        os.remove(probe)
    except OSError as e:  # a file in the way, or no permission
        raise ConfigError(f"unusable output directory {out_dir!r}: {e}") from None
