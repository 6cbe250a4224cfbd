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
    _place,
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
from eternal_coloring.strategies import GreedyFirstFit, PriorityAlice, RandomLegal, StrategyParams

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
        assert state.played.bit_count() == 0


class TestPlayGame:
    def test_k1_on_single_vertex_bob_wins_round_2(self):
        out = play_game(make_named("empty", 1), 1, GreedyFirstFit(), GreedyFirstFit())
        assert out.winner is Player.BOB
        assert out.termination_round == 2
        assert out.losing_vertex == 0

    def test_no_round_cap_is_refused(self):
        with pytest.raises(ValueError, match="max_rounds"):
            play_game(make_named("empty", 1), 2, GreedyFirstFit(), GreedyFirstFit(), max_rounds=0)

    def test_a_strategy_without_select_is_an_error_not_a_fault(self):
        # the base class is no policy: play stops rather than scoring a fault
        with pytest.raises(NotImplementedError):
            play_game(make_named("empty", 1), 2, Strategy(), GreedyFirstFit())

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


def _reference_verdict(g, colors, k, variant, mover, v, c):
    """'bob', 'placed' or 'fault' for mover choosing (v, c) on an unplayed v,
    restated from the rules on the colouring and the closed neighbourhoods."""
    near = {colors[u] for u in iter_bits(g.closed[v])}
    free = [x for x in range(1, k + 1) if x not in near]
    if not free:
        return "bob"
    greedy = variant is RuleVariant.GREEDY_BOTH or (variant is RuleVariant.GREEDY_BOB and mover is Player.BOB)
    return "placed" if type(c) is int and c in (free[:1] if greedy else free) else "fault"


class _Scripted(Strategy):
    """Plays whatever choose(state) returns."""

    def __init__(self, choose):
        self.choose = choose

    def select(self, state):
        return self.choose(state)


def _probe(g, k, variant, prefix, probe):
    """Play the moves of prefix, then probe; past it, claim the lowest
    unplayed vertex stuck, which ends the game.  Returns play_game's verdict
    on the probe and the reference's, from the colouring the probe met."""
    script, at_probe = list(prefix) + [probe], []

    def choose(state):
        if script:
            if len(script) == 1:
                at_probe.append((list(state.colors), state.round, state.played.bit_count(), state.to_move))
            return script.pop(0)
        rest = ~state.played & g.full_mask
        return (rest & -rest).bit_length() - 1, None

    out = play_game(g, k, _Scripted(choose), _Scripted(choose), variant, max_rounds=3)
    ((colors, rnd, idx, mover),) = at_probe
    v, c = probe
    i = len(prefix)
    if len(out.transcript) > i:
        assert out.transcript[i] == MoveRecord(rnd, idx, mover, v, c)
        got = "placed"
    elif out.winner is Player.BOB:
        assert (out.losing_vertex, out.termination_round) == (v, rnd)
        got = "bob"
    else:
        assert out.winner is None and out.fault is mover
        got = "fault"
    return got, _reference_verdict(g, colors, k, variant, mover, v, c)


# a triangle 0, 1, 2 with 3 hanging from 0, coloured [1, 2, 3, 2] by first
# fit in round 1, which every variant allows; round 2 opens with Alice
_PENDANT = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
_ROUND1 = [(0, 1), (1, 2), (2, 3), (3, 2)]


class TestPlayGameVerdicts:
    """play_game's verdict on a scripted move agrees with the rules restated
    from the colouring, under every variant: a stuck vertex is a Bob win
    whatever colour comes with it, and otherwise a bad colour is a fault."""

    @pytest.mark.parametrize("variant", list(RuleVariant))
    def test_named_cases(self, variant):
        cases = []
        # k = 3: vertex 0 sees the whole palette; 3 sees 2 and 1, so only 3 is free
        for c in (None, 0, 4, True):
            cases.append((3, _ROUND1, (0, c), "bob"))
        for c in (2, 1, 0, -1, 4, True, 1.0):
            cases.append((3, _ROUND1, (3, c), "fault"))
        cases.append((3, _ROUND1, (3, 3), "placed"))
        # k = 4: 3 may take 3 or 4; 4 is not the smallest, which greedy rules
        # forbid to whom they bind: Alice moves first, Bob after her (2, 4)
        greedy_alice = variant is RuleVariant.GREEDY_BOTH
        greedy_bob = variant is not RuleVariant.STANDARD
        cases.append((4, _ROUND1, (3, 4), "fault" if greedy_alice else "placed"))
        cases.append((4, _ROUND1 + [(2, 4)], (3, 4), "fault" if greedy_bob else "placed"))
        cases.append((4, _ROUND1 + [(2, 4)], (3, 3), "placed"))
        for k, prefix, probe, want in cases:
            got, ref = _probe(_PENDANT, k, variant, prefix, probe)
            assert ref == want, (k, prefix, probe)
            assert got == want, (k, prefix, probe)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 6),
        p=st.sampled_from((0.3, 0.6, 0.9)),
        graph_seed=st.integers(0, 10**6),
        k=st.integers(1, 4),
        variant=st.sampled_from(list(RuleVariant)),
        data=st.data(),
    )
    def test_random_positions(self, n, p, graph_seed, k, variant, data):
        g = gnp_generate(GnpSpec(n, p, graph_seed))
        # a prefix of reference-legal moves, each on a random unplayed vertex
        prefix, colors, played, rnd, mover = [], [0] * n, set(), 1, Player.ALICE
        for _ in range(data.draw(st.integers(0, 2 * n))):
            v = data.draw(st.sampled_from([u for u in range(n) if u not in played]))
            legal = [x for x in range(1, k + 1) if _reference_verdict(g, colors, k, variant, mover, v, x) == "placed"]
            if not legal:
                break
            c = data.draw(st.sampled_from(legal))
            prefix.append((v, c))
            colors[v] = c
            played.add(v)
            mover = Player.BOB if mover is Player.ALICE else Player.ALICE
            if len(played) == n:
                played, rnd = set(), rnd + 1
        v = data.draw(st.sampled_from([u for u in range(n) if u not in played]))
        c = data.draw(st.sampled_from([None, 0, -1, k + 1, True, 1.0, *range(1, k + 1)]))
        got, ref = _probe(g, k, variant, prefix, (v, c))
        assert got == ref


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

    def test_is_proper_rejects_a_monochromatic_edge(self):
        # known-false control: 0 and 1 are adjacent on path:3 and share colour 1
        state = GameState(make_named("path", 3), 2)
        _place(state, 0, 1)
        _place(state, 1, 1)
        assert not is_proper(state)

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
        assert state.seen_by == _recount_census(g, state.colors, k)


def _recount_census(g, colors, k):
    """seen_by recounted from the colouring: the vertices u whose closed
    neighbourhood holds colour c, for c = 0..k (none for 0, uncoloured)."""
    census = [0] * (k + 1)
    for u in range(g.n):
        for w in iter_bits(g.closed[u]):
            if colors[w]:
                census[colors[w]] |= 1 << u
    return census


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


def _signed_tallies(planes, n):
    """The per-vertex tallies held in two's-complement bit planes: bit v of
    planes[j] is bit j of v's tally."""
    width = len(planes)
    tallies = []
    for v in range(n):
        t = sum((plane >> v & 1) << j for j, plane in enumerate(planes))
        tallies.append(t - (1 << width) if t >> (width - 1) else t)
    return tallies


def _plane_counts(planes, n):
    """The per-vertex counts held in unsigned bit planes: bit v of planes[j]
    is bit j of v's count."""
    return [sum((plane >> v & 1) << j for j, plane in enumerate(planes)) for v in range(n)]


def _assert_alice_census(alice, state, recount, rec):
    """PriorityAlice's census planes decode to the colours each closed
    neighbourhood holds, counted on the recounted board census."""
    n = state.graph.n
    counts = [sum(s >> u & 1 for s in recount) for u in range(n)]
    assert _plane_counts(alice.census, n) == counts, rec


def test_defence_scale_bookkeeping_matches_recount():
    """The board census, Alice's colour census and her round book, recounted
    after every move of three rounds at the alice-defence size: G(101, 1/2),
    k = 32."""
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
            recount = _recount_census(g, state.colors, k)
            assert state.seen_by == recount, rec
            _assert_alice_census(alice, state, recount, rec)
            assert alice.book.round == rec.round
            assert _signed_tallies(alice.book.diff, g.n) == self.diff, rec
            assert alice.book.danger_mask == self.danger, rec

    out = play_game(g, k, alice, CheckedBob(), RuleVariant(config.variant), rounds, derive_seed(0, 0, k))
    assert out.winner is Player.ALICE
    assert len(out.transcript) == rounds * g.n  # rounds 2 and 3 recolour every vertex


@pytest.mark.parametrize("variant", [RuleVariant.GREEDY_BOB, RuleVariant.GREEDY_BOTH])
def test_alice_census_matches_recount_under_greedy_rules(variant):
    """PriorityAlice's colour census, recounted after every move of a small
    three-round game under each greedy rule: round 1 colours, rounds 2 and 3
    recolour every vertex."""
    g = gnp_generate(GnpSpec(13, 0.5, 5))
    k, rounds = g.max_degree() + 2, 3  # every vertex always has a legal colour
    alice = PriorityAlice(StrategyParams.from_fractions(g.n))

    class CheckedBob(RandomLegal):
        # observed after Alice, so her census already holds the move
        def observe(self, state, rec):
            _assert_alice_census(alice, state, _recount_census(g, state.colors, k), rec)

    out = play_game(g, k, alice, CheckedBob(), variant, rounds, seed=7)
    assert out.winner is Player.ALICE
    assert len(out.transcript) == rounds * g.n
