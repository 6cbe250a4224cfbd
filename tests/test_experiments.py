"""Experiment runner: configs, determinism, records, outputs, and the CLI."""

import ast
import gc
import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eternal_coloring import experiments, strategies
from eternal_coloring.cli import main
from eternal_coloring.experiments import (
    ConfigError,
    ExperimentConfig,
    TrialError,
    build_graph,
    build_strategy,
    emit_outputs,
    estimate_threshold,
    records_to_csv,
    run_experiment,
    run_trial,
    win_rates,
)
from eternal_coloring.graph import Graph, derive_seed, make_named
from eternal_coloring.strategies import GreedyFirstFit, MultiplicityBob, PriorityAlice, TargetBob

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# trials.csv of configs/bob-even-sweep.json, recorded before the level-pruned
# PriorityAlice mirror replaced the weighted one
BOB_EVEN_SWEEP_SHA256 = "80b6ae056e8b08b717ac04705a520d0902b36e877e9de67a4a82d589a14847da"
# trials.csv of _shared_gnp_config(): every trial on the one graph of derive_seed(0, "graph")
SHARED_GNP_SHA256 = "0a44094f7b9ebb942d28eb9bad10fe2b32f5224672345ce727f81fe17e798af5"


def _single_vertex_config(k, trials=10, max_rounds=10):
    return ExperimentConfig(
        graph={"kind": "empty", "size": 1},
        k_range=[k],
        alice={"name": "greedyFirstFit"},
        bob={"name": "greedyFirstFit"},
        trials=trials,
        max_rounds=max_rounds,
    )


def _shared_gnp_config(fresh_graph=False):
    return ExperimentConfig(
        graph={"kind": "gnp", "n": 15, "p": 0.5},
        k_range=[3, 4],
        alice={"name": "randomLegal"},
        bob={"name": "targetBob"},
        trials=4,
        fresh_graph=fresh_graph,
    )


def _played_cells(monkeypatch, config):
    """The (k, trial, graph) of each game run_experiment plays, in play order."""
    cells = []
    run_trial = experiments.run_trial

    def logged(config, graph, k, trial):
        cells.append((k, trial, graph))
        return run_trial(config, graph, k, trial)

    monkeypatch.setattr(experiments, "run_trial", logged)
    run_experiment(config)
    return cells


class TestRunExperiment:
    def test_each_trial_plays_its_own_fresh_graph(self, monkeypatch):
        config = _shared_gnp_config(fresh_graph=True)
        config.k_range = [4, 3]
        cells = _played_cells(monkeypatch, config)
        assert [(k, t) for k, t, _ in cells] == [(k, t) for k in (3, 4) for t in range(4)]  # k-major
        graphs = [build_graph(config.graph, seed=derive_seed(0, t, "graph")) for t in range(4)]
        assert len(set(map(Graph.to_text, graphs))) == 4
        for k, t, graph in cells:
            assert graph == graphs[t], (k, t)
            assert graph is cells[t][2], (k, t)  # built once, shared by every k

    def test_every_trial_plays_the_one_shared_graph(self, monkeypatch):
        config = _shared_gnp_config()
        cells = _played_cells(monkeypatch, config)
        assert [(k, t) for k, t, _ in cells] == [(k, t) for k in (3, 4) for t in range(4)]
        shared = build_graph(config.graph, seed=derive_seed(0, "graph"))
        assert all(graph == shared for *_, graph in cells)

    def test_shared_gnp_trials_csv_is_pinned(self):
        records = run_experiment(_shared_gnp_config())
        assert hashlib.sha256(records_to_csv(records).encode()).hexdigest() == SHARED_GNP_SHA256

    def test_faulting_strategy_is_recorded_as_a_fault(self, monkeypatch):
        class OffBoard(GreedyFirstFit):
            def select(self, state):
                return -1, 1  # no vertex

        config = _shared_gnp_config()
        build = experiments.build_strategy
        monkeypatch.setattr(
            experiments, "build_strategy", lambda spec, graph, k: OffBoard() if spec is config.alice else build(spec, graph, k)
        )
        records = run_experiment(config)
        assert len(records) == 8
        assert all(r.winner == "fault" and r.fault and r.moves_played == 0 for r in records)
        rows = records_to_csv(records).splitlines()[1:]
        assert [row.split(",")[3:] for row in rows] == [["fault", "", "0", "1"]] * 8
        assert all(rates["fault_rate"] == 1.0 for rates in win_rates(records).values())

    def test_scan_rows_live_as_long_as_the_run_s_graphs(self, monkeypatch):
        # every k plays each trial's one graph, so TargetBob's scans after
        # the first k read rows an earlier game computed, the scans after a
        # game's first among them; a run of one k alone computes them afresh.
        # Warm or cold, play is the same, and the rows go with the run's graphs.
        config = ExperimentConfig(
            graph={"kind": "gnp", "n": 41, "p": 0.5},
            k_range=[18, 19, 20, 21, 22],
            alice={"name": "greedyFirstFit"},
            bob={"name": "targetBob", "params": {"reserve_missing": 2, "danger_threshold": 2}},
            trials=3,
            fresh_graph=True,
        )
        gc.collect()
        before = len(strategies._SCAN_ROWS)
        sizes, later, run_trial = [], {}, experiments.run_trial

        def counted(config, graph, k, trial):
            record = run_trial(config, graph, k, trial)
            sizes.append(len(strategies._SCAN_ROWS) - before)
            # the rows filled for scans after a game's first, whose gone
            # lies inside the graph; the last k of a trial sees them all
            table = strategies._SCAN_ROWS.get(graph, {})
            later[k, trial] = sum(row is not None for (_, _, gone), rows in table.items() if gone >= 0 for row in rows)
            return record

        monkeypatch.setattr(experiments, "run_trial", counted)
        warm = run_experiment(config)
        assert sizes == [1, 2, 3] + [3] * 12  # one table per trial graph, kept across k
        warm_later = sum(later[22, trial] for trial in range(3))
        gc.collect()
        assert len(strategies._SCAN_ROWS) == before
        assert records_to_csv(run_experiment(config)) == records_to_csv(warm)
        later.clear()
        for k in config.k_range:
            config.k_range = [k]
            cold = run_experiment(config)
            assert records_to_csv(cold) == records_to_csv([r for r in warm if r.k == k])
        gc.collect()
        assert len(strategies._SCAN_ROWS) == before
        # the k shared later-scan rows: apart, they fill more of them
        assert 0 < warm_later < sum(later.values())

    def test_single_vertex_one_colour_all_bob_round_two(self):
        records = run_experiment(_single_vertex_config(1))
        assert len(records) == 10
        assert all(r.winner == "bob" and r.termination_round == 2 for r in records)

    def test_single_vertex_two_colours_all_alice(self):
        records = run_experiment(_single_vertex_config(2))
        assert all(r.winner == "alice" and not r.fault for r in records)

    def test_csv_is_byte_identical_across_runs(self):
        config = ExperimentConfig(
            graph={"kind": "gnp", "n": 15, "p": 0.5},
            k_range=[3, 4],
            alice={"name": "randomLegal"},
            bob={"name": "randomLegal"},
            trials=5,
            max_rounds=3,
            master_seed=7,
        )
        assert records_to_csv(run_experiment(config)) == records_to_csv(run_experiment(config))

    def test_seed_derivation_contract(self):
        config = _single_vertex_config(2, trials=3)
        config.master_seed = 42
        for r in run_experiment(config):
            assert r.seed == derive_seed(42, r.trial_index, r.k)

    def test_records_are_well_formed(self):
        config = ExperimentConfig(
            graph={"kind": "star", "size": 2},
            k_range=[2, 3],
            alice={"name": "greedyFirstFit"},
            bob={"name": "targetBob", "target": 0},
            trials=2,
            max_rounds=5,
        )
        records = run_experiment(config)
        assert len(records) == 4  # one per (k, trial) cell
        for r in records:
            assert r.winner in ("alice", "bob", "fault")
            assert r.fault == (r.winner == "fault")
            assert r.moves_played >= 1

    def test_bob_even_sweep_trials_csv_is_pinned(self):
        # a regression guard for MultiplicityBob at the paper's even-n size,
        # and for PriorityAlice against a second Bob; not a paper gate
        records = run_experiment(ExperimentConfig.from_file(str(CONFIGS / "bob-even-sweep.json")))
        rates = win_rates(records)
        assert [rates[k]["bob_win_rate"] for k in (20, 26, 32)] == [1.0, 1.0, 0.0]
        assert hashlib.sha256(records_to_csv(records).encode()).hexdigest() == BOB_EVEN_SWEEP_SHA256


class TestTrialError:
    def test_strategy_crash_names_its_trial(self, monkeypatch):
        def crash(self, state):
            raise StopIteration("no move")

        monkeypatch.setattr(TargetBob, "select", crash)
        config = ExperimentConfig(
            graph={"kind": "star", "size": 4},
            k_range=[3],
            alice={"name": "greedyFirstFit"},
            bob={"name": "targetBob"},
            master_seed=5,
        )
        graph = build_graph(config.graph)
        with pytest.raises(TrialError) as info:
            run_trial(config, graph, 3, 2)
        seed = derive_seed(5, 2, 3)
        assert f"k=3 trial=2 seed={seed}" in str(info.value)
        assert isinstance(info.value.__cause__, StopIteration)
        with pytest.raises(TrialError, match="k=3 trial=0 "):
            run_experiment(config)


class TestConfig:
    def test_roundtrip_through_json(self):
        config = _single_vertex_config(2)
        assert ExperimentConfig.from_json_obj(config.to_json_obj()) == config

    def test_k_range_min_max_form(self):
        obj = _single_vertex_config(2).to_json_obj()
        obj["k_range"] = {"min": 3, "max": 6}
        assert ExperimentConfig.from_json_obj(obj).k_range == [3, 4, 5, 6]

    def test_k_range_min_max_form_rejects_other_keys(self):
        obj = _single_vertex_config(2).to_json_obj()
        obj["k_range"] = {"min": 2, "max": 6, "step": 2}
        with pytest.raises(ConfigError, match="step"):
            ExperimentConfig.from_json_obj(obj)

    def test_repeated_k_is_rejected(self):
        # a repeated k would play its trials twice and duplicate trials.csv rows
        obj = _single_vertex_config(3, trials=2).to_json_obj()
        for ks in ([3, 3], [4, 2, 4]):
            obj["k_range"] = ks
            with pytest.raises(ConfigError, match="repeats"):
                ExperimentConfig.from_json_obj(obj)

    def test_seeded_gnp_needs_one_shared_graph(self):
        # a seeded gnp graph is one graph, which a fresh graph per trial contradicts
        obj = _single_vertex_config(2, trials=3).to_json_obj()
        obj["graph"] = {"kind": "gnp", "n": 8, "p": 0.5, "seed": 3}
        with pytest.raises(ConfigError, match="^a gnp graph 'seed' .*'fresh_graph': false$"):
            ExperimentConfig.from_json_obj(obj)
        obj["fresh_graph"] = False
        assert len(run_experiment(ExperimentConfig.from_json_obj(obj))) == 3

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            _single_vertex_config(2, trials=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(
                graph={"kind": "empty", "size": 1},
                k_range=[],
                alice={"name": "greedyFirstFit"},
                bob={"name": "greedyFirstFit"},
            )
        bad = _single_vertex_config(2).to_json_obj()
        bad["variant"] = "telepathic"
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json_obj(bad)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json_obj({"graph": {"kind": "empty", "size": 1}})
        typo = _single_vertex_config(2).to_json_obj()
        typo["trails"] = 50
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json_obj(typo)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json_obj([])
        for key, value in [("trials", "x"), ("k_range", 5), ("max_rounds", "3"), ("master_seed", 1.5), ("trials", True)]:
            wrong = _single_vertex_config(2).to_json_obj()
            wrong[key] = value
            with pytest.raises(ConfigError):
                ExperimentConfig.from_json_obj(wrong)
        for q in (-0.1, 1.5):
            wrong = _single_vertex_config(2).to_json_obj()
            wrong["survival_quantile"] = q
            with pytest.raises(ConfigError, match=rf"^survival_quantile must be in \[0, 1\], got {q}$"):
                ExperimentConfig.from_json_obj(wrong)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(str(path))

    def test_frozen_configs_load(self):
        for name in ("bob-odd-sweep.json", "alice-defence.json"):
            config = ExperimentConfig.from_file(str(CONFIGS / name))
            assert config.trials == 200
            assert config.graph == {"kind": "gnp", "n": 101, "p": 0.5}


def _params_read(source: str) -> dict:
    """Each class's `name` in source mapped to the StrategyParams fields its
    body reads as self.params.<field>; a class that reads none is absent."""
    read = {}
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        fields = {
            node.attr
            for node in ast.walk(cls)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "params"
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "self"
        }
        if fields:
            names = [
                stmt.value.value
                for stmt in cls.body
                if isinstance(stmt, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "name" for t in stmt.targets)
            ]
            read[names[0] if names else cls.name] = fields
    return read


def _param_table_mismatches(source: str) -> dict:
    """The strategy names whose params read in source differ from
    experiments._PARAM_KEYS, mapped to (read, table)."""
    read, table = _params_read(source), experiments._PARAM_KEYS
    return {name: (read.get(name), table.get(name)) for name in read.keys() | table.keys() if read.get(name) != table.get(name)}


class TestBuilders:
    def test_param_keys_are_the_params_each_strategy_reads(self):
        assert _param_table_mismatches(Path(strategies.__file__).read_text()) == {}

    def test_the_param_scan_flags_a_read_outside_the_table(self):
        # known-false control: a class reading its table and one field more,
        # and one reading params with no table at all
        table = experiments._PARAM_KEYS["targetBob"]
        source = (
            "class A(Strategy):\n"
            "    name = 'targetBob'\n"
            "    def select(self, state):\n"
            f"        return {', '.join(f'self.params.{f}' for f in sorted(table | {'multiplicity'}))}\n"
            "class B(Strategy):\n"
            "    name = 'greedyFirstFit'\n"
            "    def select(self, state):\n"
            "        return self.params.danger_threshold\n"
        )
        assert _param_table_mismatches(source) == {
            "targetBob": (table | {"multiplicity"}, table),
            "greedyFirstFit": ({"danger_threshold"}, None),
            "priorityAlice": (None, experiments._PARAM_KEYS["priorityAlice"]),
            "multiplicityBob": (None, experiments._PARAM_KEYS["multiplicityBob"]),
        }

    def test_build_graph_kinds(self):
        assert build_graph({"kind": "star", "size": 3}).n == 4
        assert build_graph({"kind": "gnp", "n": 10, "p": 0.5, "seed": 1}).n == 10
        with pytest.raises(ConfigError):
            build_graph({"kind": "torus", "size": 3})
        # a key the kind does not read is a typo, not a default
        for spec, key in (({"kind": "gnp", "n": 8, "p": 0.5, "sead": 3}, "sead"), ({"kind": "star", "size": 3, "n": 9}, "n")):
            with pytest.raises(ConfigError, match=rf"^unknown keys for graph kind '{spec['kind']}': \['{key}'\]$"):
                build_graph(spec)

    def test_partial_params_overlay_defaults(self):
        g = make_named("star", 100)
        alice = build_strategy({"name": "priorityAlice", "params": {"danger_threshold": 3}}, g, 32)
        assert isinstance(alice, PriorityAlice)
        assert alice.params.danger_threshold == 3
        # untouched fields keep their size-resolved defaults, not dataclass zeros
        from eternal_coloring.strategies import StrategyParams

        defaults = StrategyParams.from_fractions(g.n)
        assert alice.params.nearly_full_threshold == defaults.nearly_full_threshold
        assert alice.params.block_distance == defaults.block_distance

    def test_bob_strategy_with_target(self):
        g = make_named("star", 4)
        bob = build_strategy({"name": "targetBob", "target": 2}, g, 3)
        assert isinstance(bob, TargetBob) and bob.target == 2
        for target in (-1, 5):  # star:4 has vertices 0..4
            with pytest.raises(ConfigError, match=rf"^targetBob target must be a vertex 0\.\.4, got {target}$"):
                build_strategy({"name": "targetBob", "target": target}, g, 3)

    def test_multiplicity_bob_plans_at_a_huge_palette(self):
        # p = 10^-9: the plan's weights stay cheap at any k_inv
        g = build_graph({"kind": "gnp", "n": 20, "p": 0.5, "seed": 0})
        bob = build_strategy({"name": "multiplicityBob", "l": 2, "k_inv": 10**9}, g, 12)
        assert isinstance(bob, MultiplicityBob)

    def test_block_set_size_null_is_the_default(self):
        # README documents null as accepted: it builds what omitting the key does
        g = build_graph({"kind": "gnp", "n": 20, "p": 0.5, "seed": 0})
        omitted = build_strategy({"name": "multiplicityBob"}, g, 10)
        null = build_strategy({"name": "multiplicityBob", "params": {"block_set_size": None}}, g, 10)
        assert null.params == omitted.params
        assert null.params.block_set_size is None

    def test_unknown_strategy(self):
        for spec in (
            {"name": "psychic"},
            {"name": "priorityAlice", "params": {"danger_treshold": 3}},
            {"name": "targetBob", "params": {"danger_threshold": 0}},
            {"name": "multiplicityBob", "k_inv": 0},
            {"name": ["psychic"]},
        ):
            with pytest.raises(ConfigError):
                build_strategy(spec, make_named("star", 3), 3)
        # spec keys the named strategy does not read are rejected, not defaulted
        for spec, key in (
            ({"name": "targetBob", "traget": 2}, "traget"),
            ({"name": "greedyFirstFit", "params": {"danger_threshold": 3, "nonsense": 1}}, "params"),
            ({"name": "priorityAlice", "target": 0, "l": 2}, "l"),
        ):
            with pytest.raises(ConfigError, match=rf"unknown keys for '{spec['name']}': .*'{key}'"):
                build_strategy(spec, make_named("star", 3), 3)
        # knobs no strategy reads are unknown, whatever their value's type
        for key, value in (("epsilon", 0.05), ("small_color_cutoff", 1), ("block_budget", 1)):
            with pytest.raises(ConfigError, match=rf"unknown params .*'{key}'"):
                build_strategy({"name": "priorityAlice", "params": {key: value}}, make_named("star", 3), 3)
        # and so are knobs another strategy reads, but not the named one
        for name, params, key in (
            ("priorityAlice", {"multiplicity": 3, "block_set_size": 7}, "block_set_size"),
            ("priorityAlice", {"reserve_missing": 3}, "reserve_missing"),
            ("targetBob", {"nearly_full_threshold": 2}, "nearly_full_threshold"),
            ("targetBob", {"multiplicity": 3}, "multiplicity"),
            ("multiplicityBob", {"nearly_full_threshold": 2}, "nearly_full_threshold"),
        ):
            with pytest.raises(ConfigError, match=rf"unknown params for '{name}': .*'{key}'"):
                build_strategy({"name": name, "params": params}, make_named("star", 3), 3)
        # values StrategyParams rejects
        for params in ({"multiplicity": 0}, {"block_set_size": 0}, {"block_set_size": -1}, {"reserve_missing": -1}):
            with pytest.raises(ConfigError, match=r"bad params for 'multiplicityBob'"):
                build_strategy({"name": "multiplicityBob", "params": params}, make_named("star", 3), 3)
        bob = build_strategy({"name": "targetBob", "params": {"reserve_missing": 0}}, make_named("star", 3), 3)
        assert bob.params.reserve_missing == 0


class TestAggregation:
    def test_win_rates_and_threshold(self):
        config = ExperimentConfig(
            graph={"kind": "empty", "size": 1},
            k_range=[1, 2],
            alice={"name": "greedyFirstFit"},
            bob={"name": "greedyFirstFit"},
            trials=4,
            max_rounds=5,
            survival_quantile=0.5,
        )
        records = run_experiment(config)
        rates = win_rates(records)
        assert rates[1]["bob_win_rate"] == 1.0
        assert rates[2]["alice_survival_rate"] == 1.0
        threshold = estimate_threshold(config, records)
        assert threshold["k_hat"] == 2 and not threshold["censored"]

    def test_censored_when_nothing_crosses(self):
        config = _single_vertex_config(1, trials=2)
        threshold = estimate_threshold(config)
        assert threshold["k_hat"] is None and threshold["censored"]

    def test_emit_outputs_refuses_no_records(self, tmp_path):
        with pytest.raises(ValueError, match="no records"):
            emit_outputs([], _single_vertex_config(2), str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_emit_outputs(self, tmp_path):
        config = _single_vertex_config(2, trials=3)
        records = run_experiment(config)
        paths = emit_outputs(records, config, str(tmp_path / "out"))
        csv_text = Path(paths["csv"]).read_text()
        assert csv_text.splitlines()[0] == "trialIndex,seed,k,winner,terminationRound,movesPlayed,fault"
        assert len(csv_text.splitlines()) == 4
        summary = json.loads(Path(paths["summary"]).read_text())
        assert summary["config"]["trials"] == 3
        assert summary["win_rates"]["2"]["alice_survival_rate"] == 1.0


TESTS = Path(__file__).resolve().parent
_MISSING_CONFIG = str(TESTS / "data" / "no_such_config.json")

_FUZZ_GRAPHS = [
    "star:0", "star:x", "star:3", "gnp:5,1.5", "gnp:4,0.5,1", "gnp:4", "gnp:0,0.5", "path:3", "cycle:4", "complete:3", "empty:2", "moebius:3",
    "gnp:13,0.5,1",  # n > 12: the audit's sampled triple search
]
_FUZZ_STRATEGIES = ["greedyFirstFit", "randomLegal", "priorityAlice", "targetBob", "multiplicityBob", "nope"]
_FUZZ_VARIANTS = ["standard", "greedy_bob", "greedy_both", "bogus"]
_FUZZ_FLOATS = [-1.0, 0.0, 0.5, 1.0, 1.5, 100.0, 101.0, float("inf"), float("nan")]


@st.composite
def _cli_argv(draw):
    """argv from a small grammar: each subcommand, tiny or malformed graph
    specs, and flag values on both sides of their ranges."""
    cmd = draw(st.sampled_from(["play", "solve", "audit", "experiment", "threshold"]))
    argv = [cmd]

    def flag(name, values):
        if draw(st.booleans()):
            argv.extend([name, str(draw(values))])

    if cmd in ("experiment", "threshold"):
        argv += ["--config", draw(st.sampled_from([_MISSING_CONFIG, os.devnull, str(TESTS)]))]
        flag("--seed", st.integers(-2, 3))
        return argv
    argv += ["--graph", draw(st.sampled_from(_FUZZ_GRAPHS))]
    if cmd == "audit":
        flag("--p", st.sampled_from(_FUZZ_FLOATS))
        flag("--epsilon", st.sampled_from(_FUZZ_FLOATS))
        flag("--seed", st.integers(-2, 3))
        return argv
    if cmd == "play" or draw(st.booleans()):
        argv += ["--k", str(draw(st.integers(-1, 5)))]
    flag("--variant", st.sampled_from(_FUZZ_VARIANTS))
    if cmd == "solve":
        flag("--state-cap", st.sampled_from([-1, 0, 10, 10**6]))
    else:
        flag("--max-rounds", st.integers(-1, 3))
        flag("--alice", st.sampled_from(_FUZZ_STRATEGIES))
        flag("--bob", st.sampled_from(_FUZZ_STRATEGIES))
        flag("--seed", st.integers(-2, 3))
    return argv


# config field -> values on both sides of its type and range; the valid ones
# keep every game tiny (n <= 4, one trial, at most three rounds)
_FUZZ_CONFIG_FIELDS = {
    "graph": [
        {"kind": "star", "size": 2}, {"kind": "empty", "size": 1}, {"kind": "gnp", "n": 4, "p": 0.5},
        {"kind": "gnp", "n": 3, "p": 1, "seed": 5}, {"kind": "gnp", "n": 4, "p": 1.5}, {"kind": "gnp", "n": "4", "p": 0.5},
        {"kind": "gnp", "n": 3, "p": 0.5, "seed": "x"}, {"kind": "gnp", "n": 0, "p": 0.5},
        {"kind": "star"}, {"kind": "star", "size": 0}, {"kind": "star", "size": 2.5}, {"kind": "star", "size": True},
        {"kind": "torus", "size": 2}, {"kind": []}, {"kind": "gnp", "n": 8, "p": 0.5, "sead": 3}, {"kind": "star", "size": 3, "n": 9},
        [], "star:3", None,
    ],
    "k_range": [[2], [1, 3], [], [0], [2.5], ["2"], [True], 5, "12", {"min": 1, "max": 3}, {"min": "1", "max": 2}, {"min": 1},
        [2, 2], {"min": 1, "max": 3, "step": 2}],
    "alice": [
        {"name": "greedyFirstFit"}, {"name": "randomLegal"}, {"name": "priorityAlice"},
        {"name": "priorityAlice", "params": {"danger_threshold": 0}}, {"name": "priorityAlice", "params": {"block_budget": "x"}},
        {"name": "priorityAlice", "params": [1]}, {"name": 5}, {}, [], "greedyFirstFit",
    ],
    "bob": [
        {"name": "greedyFirstFit"}, {"name": "targetBob", "target": 0}, {"name": "targetBob", "target": 99},
        {"name": "targetBob", "target": -1}, {"name": "targetBob", "target": "x"}, {"name": "multiplicityBob"},
        {"name": "multiplicityBob", "l": "x"}, {"name": "multiplicityBob", "k_inv": 0}, None,
        {"name": "multiplicityBob", "params": {"multiplicity": 0}}, {"name": "targetBob", "params": {"multiplicity": 3}},
    ],
    "variant": ["standard", "greedy_both", "bogus", 3, None],
    "trials": [1, 0, -1, "x", 1.5, True, None],
    "max_rounds": [1, 3, 0, -2, "3", 2.0, True],
    "master_seed": [0, 7, -3, 1.5, "x", False, None],
    "fresh_graph": [True, False, 1, "yes"],
    "survival_quantile": [0.5, 0, 1, 2.0, -0.1, "x", None],
    "output": [None, "unused", 3],
}
_REQUIRED_CONFIG_FIELDS = ("graph", "k_range", "alice", "bob")


@st.composite
def _fuzz_config(draw):
    """A config JSON value: a wrong top-level type, or a well-formed object
    with up to two fields redrawn (well-formed, wrongly typed or out of
    range), maybe a required field dropped and maybe a misspelt key."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([[], "config", 3, None, [{"graph": {"kind": "star", "size": 2}}]]))
    obj = {
        name: values[0]
        for name, values in _FUZZ_CONFIG_FIELDS.items()
        if name in _REQUIRED_CONFIG_FIELDS or draw(st.booleans())
    }
    for name in draw(st.lists(st.sampled_from(sorted(_FUZZ_CONFIG_FIELDS)), max_size=2)):
        obj[name] = draw(st.sampled_from(_FUZZ_CONFIG_FIELDS[name]))
    if draw(st.integers(0, 9)) == 0:
        del obj[draw(st.sampled_from(_REQUIRED_CONFIG_FIELDS))]
    if draw(st.integers(0, 9)) == 0:
        obj["trails"] = 1
    return obj


class TestCli:
    def test_play_emits_transcript(self, capsys):
        assert main(["play", "--graph", "star:3", "--k", "3", "--max-rounds", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["winner"] in ("alice", "bob")
        assert len(out["transcript"]) >= 4

    def test_solve_single_k(self, capsys):
        assert main(["solve", "--graph", "empty:1", "--k", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["winner"] == "alice"
        # beyond the old a-priori estimate (2.7e8 > the default cap), yet small
        assert main(["solve", "--graph", "star:8", "--variant", "greedy_both", "--k", "3"]) == 0
        assert json.loads(capsys.readouterr().out) == {"winner": "bob", "statesExplored": 6897, "maxRank": 20}

    def test_solve_reports_the_deepest_attractor_rank(self, capsys):
        # only the sink is ranked when Alice wins
        assert main(["solve", "--graph", "empty:1", "--k", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["maxRank"] == 0
        # one colour: Alice colours the vertex at the start (rank 2), and cannot recolour it in round 2 (rank 1)
        assert main(["solve", "--graph", "empty:1", "--k", "1"]) == 0
        assert json.loads(capsys.readouterr().out) == {"winner": "bob", "statesExplored": 2, "maxRank": 2}

    def test_solve_scan(self, capsys):
        assert main(["solve", "--graph", "star:5", "--variant", "greedy_both"]) == 0
        out = json.loads(capsys.readouterr().out)
        # no "monotone": a scan that stops at its first Alice win cannot see a non-monotone k
        assert out == {"k_star": 3, "winners": {"1": "bob", "2": "bob", "3": "alice"}}

    def test_solve_infeasible_exit_code(self):
        assert main(["solve", "--graph", "path:8", "--k", "5", "--state-cap", "10"]) == 3

    def test_bad_graph_spec_exit_code(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(_single_vertex_config(2).to_json_obj()))
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        for argv in (
            ["solve", "--graph", "moebius:7", "--k", "2"],
            ["play", "--graph", "star:0", "--k", "3"],
            ["play", "--graph", "star:x", "--k", "3"],
            ["solve", "--graph", "gnp:5,1.5", "--k", "2"],
            ["play", "--graph", "gnp:0,0.5", "--k", "1"],
            ["audit", "--graph", "gnp:0,0.5"],
            ["solve", "--graph", "gnp:0,0.5"],
            ["solve", "--graph", "star:3", "--k", "2", "--state-cap", "-1"],
            ["solve", "--graph", "star:3", "--k", "2", "--state-cap", "0"],
            ["play", "--graph", "star:3", "--k", "0"],
            ["play", "--graph", "star:3", "--k", "3", "--max-rounds", "0"],
            ["play", "--graph", "empty:3", "--k", "3", "--bob", "multiplicityBob"],
            ["experiment", "--config", _MISSING_CONFIG, "--out", "unused"],
            ["experiment", "--config", str(config), "--out", str(a_file)],
            ["experiment", "--config", str(config), "--out", str(a_file / "run")],
            ["threshold", "--config", _MISSING_CONFIG],
            ["audit", "--graph", "star:3", "--p", "1.5"],
            ["audit", "--graph", "star:3", "--epsilon", "-1"],
        ):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1, argv

    def test_config_errors_make_no_output_dir(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        for update, word in (
            ({"k_range": [0, 2]}, "k_range"),
            ({"k_range": {"min": 3}}, "'max'"),
            ({"graph": {"kind": "gnp", "n": 5}}, "'p'"),
            ({"max_rounds": 0}, "max_rounds"),
            ({"graph": {"kind": "gnp", "n": 12, "p": 0.5}, "bob": {"name": "multiplicityBob", "l": 200}}, "multiplicityBob plan"),
        ):
            config = _single_vertex_config(2).to_json_obj()
            config.update(update)
            path.write_text(json.dumps(config))
            assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "run")]) == 2, update
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1, (update, err)
            assert word in err, (update, err)
            assert not (tmp_path / "run").exists(), update  # refused before any output is made

    def test_seeded_gnp_with_fresh_graphs_exit_code(self, tmp_path, capsys):
        config = _single_vertex_config(2).to_json_obj()
        config["graph"] = {"kind": "gnp", "n": 4, "p": 0.5, "seed": 1}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        for argv in (["threshold", "--config", str(path)], ["experiment", "--config", str(path), "--out", str(tmp_path / "run")]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1, argv
            assert "'seed'" in err and "'fresh_graph'" in err, argv
        assert not (tmp_path / "run").exists()  # refused before any output is made

    def test_bad_strategy_spec_makes_no_output_dir(self, tmp_path, capsys):
        config = _single_vertex_config(2).to_json_obj()
        config["bob"] = {"name": "nobody"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err == "config error: unknown strategy 'nobody'\n"
        assert not (tmp_path / "run").exists()  # refused before any output is made

    def test_num_colors_outside_the_palette_exit_code(self, tmp_path, capsys):
        config = _single_vertex_config(2).to_json_obj()
        config["graph"] = {"kind": "star", "size": 4}
        path = tmp_path / "config.json"
        for num_colors in (3, 0, -1):
            config["bob"] = {"name": "multiplicityBob", "num_colors": num_colors}
            path.write_text(json.dumps(config))
            for argv in (["threshold", "--config", str(path)], ["experiment", "--config", str(path), "--out", str(tmp_path / "run")]):
                assert main(argv) == 2, (num_colors, argv)
                err = capsys.readouterr().err
                assert err.startswith("config error: ") and err.count("\n") == 1, (num_colors, argv)
                assert "num_colors" in err, (num_colors, argv)
        assert not (tmp_path / "run").exists()  # refused before any output is made

    def test_priority_bobs_play_only_standard_rules(self, tmp_path, capsys):
        # their round-1 copy-ins pick colours the greedy rules forbid
        path = tmp_path / "config.json"
        for name in ("targetBob", "multiplicityBob"):
            for variant in ("greedy_bob", "greedy_both"):
                for side in ("alice", "bob"):
                    config = _single_vertex_config(2).to_json_obj()
                    config.update(graph={"kind": "star", "size": 4}, variant=variant, **{side: {"name": name}})
                    path.write_text(json.dumps(config))
                    for argv in (
                        ["threshold", "--config", str(path)],
                        ["experiment", "--config", str(path), "--out", str(tmp_path / "run")],
                        ["play", "--graph", "star:4", "--k", "2", "--variant", variant, f"--{side}", name],
                    ):
                        case = (name, variant, side, argv[0])
                        assert main(argv) == 2, case
                        err = capsys.readouterr().err
                        assert err.startswith("config error: ") and err.count("\n") == 1, case
                        assert name in err and variant in err, case
        assert not (tmp_path / "run").exists()  # refused before any output is made
        # under standard rules both still play
        for name in ("targetBob", "multiplicityBob"):
            assert main(["play", "--graph", "star:4", "--k", "2", "--bob", name]) == 0, name
            capsys.readouterr()

    def test_bad_params_exit_code(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        for bob in (
            {"name": "multiplicityBob", "params": {"multiplicity": 0}},
            {"name": "multiplicityBob", "params": {"block_set_size": 0}},
            {"name": "targetBob", "params": {"reserve_missing": -1}},
            {"name": "targetBob", "params": {"block_set_size": 7}},
        ):
            config = _single_vertex_config(2).to_json_obj()
            config["bob"] = bob
            path.write_text(json.dumps(config))
            assert main(["threshold", "--config", str(path)]) == 2, bob
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1, bob
            assert "params for" in err, bob

    @settings(max_examples=150, deadline=None)
    @given(argv=_cli_argv())
    def test_fuzzed_argv_exits_cleanly(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse rejects the flags themselves
                code = e.code
        assert code in (0, 2, 3, 4), (argv, code)
        assert "Traceback" not in err.getvalue(), argv

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(obj=_fuzz_config())
    def test_fuzzed_config_exits_cleanly(self, tmp_path, obj):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["threshold", "--config", str(path)])
        assert code in (0, 2), (obj, code)
        assert "Traceback" not in err.getvalue(), obj
        if code == 2:
            assert err.getvalue().startswith("config error: ") and err.getvalue().count("\n") == 1, obj

    def test_audit_json(self, capsys):
        # K_6 fails min_degree (degree 5 < (1 - 0.5/100) * 6), so exit 4
        assert main(["audit", "--graph", "complete:6", "--p", "1.0", "--epsilon", "0.5"]) == 4
        report = json.loads(capsys.readouterr().out)
        assert not report["all_hold"]
        assert {"name", "holds", "method", "witness"} <= set(report["checks"][0])
        assert main(["audit", "--graph", "empty:3", "--p", "0.0", "--epsilon", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["all_hold"]

    def test_audit_with_sets_too_large_to_be_disjoint(self, capsys):
        # epsilon 100 at n = 101 asks for two disjoint sets of 51 vertices
        assert main(["audit", "--graph", "gnp:101,0.5,1", "--epsilon", "100"]) in (0, 4)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        checks = {c["name"]: c for c in json.loads(captured.out)["checks"]}
        assert checks["unbalanced_triple"]["holds"] and checks["unbalanced_triple"]["method"] == "exhaustive"

    def test_experiment_and_threshold(self, tmp_path, capsys):
        config = _single_vertex_config(2, trials=3).to_json_obj()
        config["k_range"] = [1, 2]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
        paths = json.loads(capsys.readouterr().out)
        assert Path(paths["csv"]).exists() and Path(paths["summary"]).exists()
        assert main(["threshold", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["k_hat"] == 2

    def test_seed_flag_runs_the_config_at_that_master_seed(self, tmp_path, capsys):
        config = _shared_gnp_config(fresh_graph=True).to_json_obj()
        config["alice"] = {"name": "greedyFirstFit"}
        outputs = {}
        for name, master_seed, flags in (("flag", 0, ["--seed", "5"]), ("config", 5, []), ("default", 0, [])):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**config, "master_seed": master_seed}))
            out_dir = tmp_path / name
            assert main(["experiment", "--config", str(path), "--out", str(out_dir), *flags]) == 0
            capsys.readouterr()
            assert main(["threshold", "--config", str(path), *flags]) == 0
            csv_text = (out_dir / "trials.csv").read_text()
            summary = json.loads((out_dir / "summary.json").read_text())
            outputs[name] = (csv_text, summary, capsys.readouterr().out)
        assert outputs["flag"] == outputs["config"]
        assert outputs["flag"][0] != outputs["default"][0]  # the seed reaches the games

    def test_impossible_multiplicity_plan_exit_code(self, tmp_path, capsys):
        config = _single_vertex_config(2).to_json_obj()
        config.update(graph={"kind": "star", "size": 4}, bob={"name": "multiplicityBob", "l": 2, "k_inv": 1})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        for argv in (["experiment", "--config", str(path), "--out", str(tmp_path / "run")], ["threshold", "--config", str(path)]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err == "config error: multiplicityBob plan: no positive-weight partitions; plan impossible\n", argv
        assert not (tmp_path / "run").exists()  # refused before any output is made

    def test_experiment_without_output_dir(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_single_vertex_config(2).to_json_obj()))
        assert main(["experiment", "--config", str(path)]) == 2
