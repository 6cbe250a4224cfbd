"""Experiment runner: configs, determinism, records, outputs, and the CLI."""

import json
from pathlib import Path

import pytest

from eternal_coloring.cli import main
from eternal_coloring.experiments import (
    ConfigError,
    ExperimentConfig,
    build_graph,
    build_strategy,
    emit_outputs,
    estimate_threshold,
    records_to_csv,
    run_experiment,
    win_rates,
)
from eternal_coloring.graph import derive_seed, make_named
from eternal_coloring.strategies import PriorityAlice, TargetBob

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _single_vertex_config(k, trials=10, max_rounds=10):
    return ExperimentConfig(
        graph={"kind": "empty", "size": 1},
        k_range=[k],
        alice={"name": "greedyFirstFit"},
        bob={"name": "greedyFirstFit"},
        trials=trials,
        max_rounds=max_rounds,
    )


class TestRunExperiment:
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


class TestConfig:
    def test_roundtrip_through_json(self):
        config = _single_vertex_config(2)
        assert ExperimentConfig.from_json_obj(config.to_json_obj()) == config

    def test_k_range_min_max_form(self):
        obj = _single_vertex_config(2).to_json_obj()
        obj["k_range"] = {"min": 3, "max": 6}
        assert ExperimentConfig.from_json_obj(obj).k_range == [3, 4, 5, 6]

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


class TestBuilders:
    def test_build_graph_kinds(self):
        assert build_graph({"kind": "star", "size": 3}).n == 4
        assert build_graph({"kind": "gnp", "n": 10, "p": 0.5, "seed": 1}).n == 10
        with pytest.raises(ConfigError):
            build_graph({"kind": "torus", "size": 3})

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

    def test_unknown_strategy(self):
        for spec in (
            {"name": "psychic"},
            {"name": "priorityAlice", "params": {"danger_treshold": 3}},
            {"name": "targetBob", "params": {"danger_threshold": 0}},
        ):
            with pytest.raises(ConfigError):
                build_strategy(spec, make_named("star", 3), 3)


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


class TestCli:
    def test_play_emits_transcript(self, capsys):
        assert main(["play", "--graph", "star:3", "--k", "3", "--max-rounds", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["winner"] in ("alice", "bob")
        assert len(out["transcript"]) >= 4

    def test_solve_single_k(self, capsys):
        assert main(["solve", "--graph", "empty:1", "--k", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["winner"] == "alice"

    def test_solve_scan(self, capsys):
        assert main(["solve", "--graph", "star:5", "--variant", "greedy_both"]) == 0
        assert json.loads(capsys.readouterr().out)["k_star"] == 3

    def test_solve_infeasible_exit_code(self):
        assert main(["solve", "--graph", "path:8", "--k", "5", "--state-cap", "10"]) == 3

    def test_bad_graph_spec_exit_code(self):
        assert main(["solve", "--graph", "moebius:7", "--k", "2"]) == 2

    def test_audit_json(self, capsys):
        assert main(["audit", "--graph", "complete:6", "--p", "1.0", "--epsilon", "0.5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert {"name", "holds", "method", "witness"} <= set(report["checks"][0])

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

    def test_experiment_without_output_dir(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_single_vertex_config(2).to_json_obj()))
        assert main(["experiment", "--config", str(path)]) == 2
