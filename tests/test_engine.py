"""Game-engine rules: legality, turn order, round turnover, outcomes, transcripts."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from eternal_coloring.engine import (
    GameState,
    IllegalMoveError,
    MoveRecord,
    Player,
    RuleVariant,
    Strategy,
    apply_move,
    is_proper,
    legal_colors,
    play_game,
    replay_transcript,
    transcript_to_json,
)
from eternal_coloring.experiments import ExperimentConfig, build_graph, build_strategy
from eternal_coloring.graph import GnpSpec, Graph, derive_seed, gnp_generate, iter_bits, make_named
from eternal_coloring.solver import solve_eternal
from eternal_coloring.strategies import GreedyFirstFit, RandomLegal

DATA = Path(__file__).parent / "data"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestLegalColors:
    def test_round1_properness(self):
        g = make_named("complete", 2)
        state = GameState(g, 2)
        apply_move(state, 0, 1)
        assert legal_colors(state, 1) == {2}

    def test_recolour_must_differ(self):
        g = make_named("empty", 1)
        state = GameState(g, 2)
        apply_move(state, 0, 1)  # round 1 done
        assert state.round == 2
        assert legal_colors(state, 0) == {2}

    def test_stuck_centre_has_no_colour(self):
        # star with 3 leaves: centre coloured 1, leaves 2,3,2; querying the
        # centre in round 2 finds every colour blocked or equal to current
        g = make_named("star", 3)
        state = GameState(g, 3)
        for v, c in [(0, 1), (1, 2), (2, 3), (3, 2)]:
            apply_move(state, v, c)
        assert state.round == 2
        assert legal_colors(state, 0) == set()

    def test_rejects_replayed_vertex(self):
        state = GameState(make_named("path", 3), 3)
        apply_move(state, 0, 1)
        with pytest.raises(IllegalMoveError):
            legal_colors(state, 0)

    def test_greedy_both_truncates_to_minimum(self):
        state = GameState(make_named("empty", 2), 3, RuleVariant.GREEDY_BOTH)
        assert legal_colors(state, 0) == {1}

    def test_greedy_bob_only_binds_bob(self):
        state = GameState(make_named("empty", 2), 3, RuleVariant.GREEDY_BOB)
        assert legal_colors(state, 0) == {1, 2, 3}  # Alice to move
        apply_move(state, 0, 2)
        assert legal_colors(state, 1) == {1}  # Bob to move


class TestApplyMove:
    def test_odd_n_alternating_opener(self):
        state = GameState(make_named("path", 3), 3)
        for v, c in [(0, 1), (1, 2), (2, 1)]:
            apply_move(state, v, c)
        assert state.round == 2
        assert state.to_move is Player.BOB

    def test_even_n_alice_opens_every_round(self):
        state = GameState(make_named("path", 4), 3)
        for v, c in [(0, 1), (1, 2), (2, 1), (3, 2)]:
            apply_move(state, v, c)
        assert state.round == 2
        assert state.to_move is Player.ALICE

    def test_replay_same_vertex_rejected(self):
        state = GameState(make_named("path", 3), 3)
        apply_move(state, 0, 1)
        with pytest.raises(IllegalMoveError):
            apply_move(state, 0, 2)

    def test_illegal_colour_rejected(self):
        state = GameState(make_named("complete", 2), 2)
        apply_move(state, 0, 1)
        with pytest.raises(IllegalMoveError):
            apply_move(state, 1, 1)

    def test_non_int_move_rejected(self):
        state = GameState(make_named("path", 3), 3)
        for v, c in [(0, True), (0, 1.0), (True, 1), (1.0, 1)]:
            with pytest.raises(IllegalMoveError):
                apply_move(state, v, c)
        assert state.played_count == 0


class TestPlayGame:
    def test_k1_on_single_vertex_bob_wins_round_2(self):
        out = play_game(make_named("empty", 1), 1, GreedyFirstFit(), GreedyFirstFit())
        assert out.winner is Player.BOB
        assert out.termination_round == 2
        assert out.losing_vertex == 0

    def test_k2_on_single_vertex_alice_survives(self):
        out = play_game(make_named("empty", 1), 2, GreedyFirstFit(), GreedyFirstFit(), max_rounds=10)
        assert out.winner is Player.ALICE
        assert out.rounds_completed == 10

    def test_star4_greedy_both_k3_solver_backed_bob_wins(self):
        # the exact solver proves Bob wins this instance; his extracted
        # witness must realize the win in actual play
        g = make_named("star", 4)
        res = solve_eternal(g, 3, RuleVariant.GREEDY_BOTH)
        assert res.winner is Player.BOB
        out = play_game(g, 3, GreedyFirstFit(), res.witness_strategy(Player.BOB), RuleVariant.GREEDY_BOTH, max_rounds=20)
        assert out.winner is Player.BOB

    def test_fault_is_not_a_win(self):
        class BadStrategy(GreedyFirstFit):
            def __init__(self, move):
                self.move = move

            def select(self, state):
                return self.move

        k = 3
        # vertex 0 opens with every colour legal; a bool or float equal to a
        # legal colour or vertex is still no colour or vertex
        bad_colours = [999, 1.0, True, "1", 0, -1, k + 1, None]
        bad_moves = [(0, c) for c in bad_colours] + [(True, 1), (1.0, 1)]
        for move in bad_moves:
            out = play_game(make_named("path", 4), k, BadStrategy(move), GreedyFirstFit())
            assert out.winner is None, move
            assert out.fault is Player.ALICE, move
            assert out.transcript == [], move

    def test_seeded_random_play_reproducible(self):
        g = gnp_generate(GnpSpec(8, 0.5, 1))
        runs = [
            play_game(g, 5, RandomLegal(), RandomLegal(), max_rounds=4, seed=99).transcript
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


def transcript_from_json(text: str) -> list[MoveRecord]:
    """The inverse of `transcript_to_json`."""
    return [
        MoveRecord(o["round"], o["idx"], Player(o["player"]), o["vertex"], o["colour"])
        for o in json.loads(text)
    ]


class TestTranscripts:
    def test_json_roundtrip(self):
        out = play_game(make_named("path", 4), 3, GreedyFirstFit(), GreedyFirstFit(), max_rounds=3)
        text = transcript_to_json(out.transcript)
        assert transcript_from_json(text) == out.transcript
        rec = json.loads(text)[0]
        assert set(rec) == {"round", "idx", "player", "vertex", "colour"}

    def test_replay_reproduces_final_state(self):
        g = gnp_generate(GnpSpec(7, 0.4, 2))
        out = play_game(g, 5, RandomLegal(), RandomLegal(), max_rounds=3, seed=5)
        final = replay_transcript(g, 5, RuleVariant.STANDARD, out.transcript)
        assert is_proper(final)
        assert final.round == 4

    def test_replay_rejects_out_of_order(self):
        g = make_named("path", 4)
        out = play_game(g, 3, GreedyFirstFit(), GreedyFirstFit(), max_rounds=2)
        with pytest.raises(IllegalMoveError):
            replay_transcript(g, 3, RuleVariant.STANDARD, out.transcript[1:])

    def test_golden_transcript(self):
        paths = sorted(DATA.glob("golden_*.json"))
        assert len(paths) >= 5
        for path in paths:
            golden = json.loads(path.read_text())
            g = Graph.from_text(golden["graph"])
            k, variant = golden["k"], RuleVariant(golden["variant"])
            out = play_game(
                g,
                k,
                build_strategy(golden["alice"], g, k),
                build_strategy(golden["bob"], g, k),
                variant,
                golden["max_rounds"],
                golden["seed"],
            )
            assert out.fault is None, path.name
            assert transcript_to_json(out.transcript) == golden["transcript"], path.name
            # and the frozen transcript itself replays cleanly
            final = replay_transcript(g, k, variant, out.transcript)
            assert is_proper(final), path.name


def _reference_legal(state, v):
    """The per-colour legality rule, restated from the game's definition."""
    g = state.graph
    out = {
        c
        for c in range(1, state.k + 1)
        if not (state.round >= 2 and c == state.colors[v])
        and all(state.colors[u] != c for u in iter_bits(g.adj[v]))
    }
    return {min(out)} if out and state.greedy_applies() else out


def _scripted_playout(n, p, graph_seed, k, variant, play_seed, max_rounds=3):
    """Random playout instrumented with per-move invariant checks."""
    g = gnp_generate(GnpSpec(n, p, graph_seed))
    rng = random.Random(play_seed)
    state = GameState(g, k, variant)
    check_safety = k >= g.max_degree() + 2
    seen_this_round: set[int] = set()
    current_round = 1
    while state.round <= max_rounds:
        if state.round != current_round:
            # round-opener parity: Alice opens odd rounds always; even rounds
            # open with Bob exactly when n is odd
            expected = Player.BOB if (g.n % 2 == 1 and state.round % 2 == 0) else Player.ALICE
            assert state.to_move is expected
            assert len(seen_this_round) == g.n
            seen_this_round = set()
            current_round = state.round
        candidates = [v for v in range(g.n) if not state.is_played(v)]
        for u in candidates:
            assert legal_colors(state, u) == _reference_legal(state, u)
        if check_safety:
            assert all(legal_colors(state, v) for v in candidates)
        v = rng.choice(candidates)
        legal = legal_colors(state, v)
        if not legal:
            return  # Bob-win position reached; nothing more to check
        assert v not in seen_this_round
        seen_this_round.add(v)
        apply_move(state, v, rng.choice(sorted(legal)))
        assert is_proper(state)
        for u in range(g.n):
            recount = 0
            for w in iter_bits(g.closed[u]):
                if state.colors[w]:
                    recount |= 1 << state.colors[w]
            assert state.seen[u] == recount


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 8),
    p=st.floats(0, 1),
    graph_seed=st.integers(0, 10**6),
    k_extra=st.integers(-1, 3),
    variant=st.sampled_from(list(RuleVariant)),
    play_seed=st.integers(0, 10**6),
)
def test_random_playout_invariants(n, p, graph_seed, k_extra, variant, play_seed):
    g = gnp_generate(GnpSpec(n, p, graph_seed))
    k = max(1, g.max_degree() + 2 + k_extra)
    _scripted_playout(n, p, graph_seed, k, variant, play_seed)


def test_defence_scale_bookkeeping_matches_recount():
    """The board census and Alice's round book, recounted after every move of
    three rounds at the alice-defence size: G(101, 1/2), k = 32."""
    config = ExperimentConfig.from_file(str(CONFIGS / "alice-defence.json"))
    g = build_graph(config.graph, seed=derive_seed(0, 0, "graph"))
    k, rounds = 32, 3
    nbrs = [[w for w in range(g.n) if w == u or g.has_edge(u, w)] for u in range(g.n)]
    alice = build_strategy(config.alice, g, k)
    bob = build_strategy(config.bob, g, k)
    threshold = alice.params.danger_threshold

    class CheckedBob(Strategy):
        # observed after Alice, so her book already holds the move
        def reset(self, graph, k, variant, seed=None):
            bob.reset(graph, k, variant, seed)
            self.round = 0

        def select(self, state):
            return bob.select(state)

        def observe(self, state, rec):
            bob.observe(state, rec)
            if rec.round != self.round:
                self.round, self.diff, self.danger = rec.round, [0] * g.n, 0
            for u in nbrs[rec.vertex]:  # u is in N[w] iff w is in N[u]
                self.diff[u] += 1 if rec.player is Player.BOB else -1
                if self.diff[u] >= threshold:
                    self.danger |= 1 << u
            for u in range(g.n):
                recount = 0
                for w in nbrs[u]:
                    if state.colors[w]:
                        recount |= 1 << state.colors[w]
                assert state.seen[u] == recount, (rec, u)
            assert alice.book.round == rec.round
            assert alice.book.diff == self.diff, rec
            assert alice.book.danger_mask == self.danger, rec

    out = play_game(g, k, alice, CheckedBob(), RuleVariant(config.variant), rounds, derive_seed(0, 0, k))
    assert out.winner is Player.ALICE
    assert len(out.transcript) == rounds * g.n  # rounds 2 and 3 recolour every vertex
