"""Priority strategies: danger tracking, mirrors, Alice, both Bobs, baselines."""

import dataclasses
import hashlib
import random
from collections import deque
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from eternal_coloring.engine import (
    GameState,
    MoveRecord,
    Player,
    RuleVariant,
    apply_move,
    legal_colors,
    play_game,
    transcript_to_json,
)
from eternal_coloring.experiments import ExperimentConfig, build_strategy, trial_graph
from eternal_coloring.graph import GnpSpec, Graph, derive_seed, gnp_generate, iter_bits, make_named, mask_of
from eternal_coloring.solver import solve_eternal
from eternal_coloring.strategies import (
    GreedyFirstFit,
    PriorityAlice,
    MultiplicityBob,
    TargetBob,
    PlanEntry,
    RandomLegal,
    RoundBook,
    StrategyParams,
    TargetPlan,
    bob_even_setup,
    first_fit,
    _SCAN_ROWS,
    next_move,
    record_round_move,
    uncolored_taking,
    unplayed_vertices,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# the transcripts of TestMultiplicityBob.test_pinned_transcripts_over_plans
MULTIPLICITY_BOB_PLANS_SHA256 = "6580ae4548112ecc7cc4a1fd31e5d59e4d5f369bd61aba3145866de27c385887"


def _colour_mask(state, v):
    """The colour mask of N[v], from the colouring alone."""
    return mask_of(state.colors[u] for u in iter_bits(state.graph.closed[v]) if state.colors[u])


def _observe_move(state, *strategies_then_move):
    """Apply (v, c) to state and feed the move record to each strategy."""
    *strategies, (player, v, c) = strategies_then_move
    rec = MoveRecord(state.round, state.played.bit_count(), player, v, c)
    apply_move(state, v, c)
    for s in strategies:
        s.observe(state, rec)


class TestStrategyParams:
    def test_thresholds_must_be_positive(self):
        for bad in (
            dict(danger_threshold=0),
            dict(multiplicity=0),
            dict(block_set_size=0),
            dict(reserve_missing=-1),
        ):
            with pytest.raises(ValueError):
                StrategyParams(**bad)
        assert StrategyParams(reserve_missing=0, block_set_size=1).reserve_missing == 0

    def test_from_fractions_resolves_by_ceiling(self):
        p = StrategyParams.from_fractions(2001)
        assert p.danger_threshold == 2  # ceil(0.05/100 * 2001)
        assert p.nearly_full_threshold == 41  # ceil(0.02 * 2001)
        assert p.block_distance == 101  # ceil(0.05 * 2001)
        assert (p.reserve_missing, p.multiplicity, p.block_set_size) == (10, 4, None)
        assert StrategyParams.from_fractions(101) == StrategyParams(nearly_full_threshold=3, block_distance=6)


def dangerous_vertices(moves, graph, threshold) -> set[int]:
    """The danger set recomputed from a round's (player, vertex) moves, by the
    rule in record_round_move's docstring: the oracle of its running tally."""
    diff = [0] * graph.n
    danger = set()
    for player, vertex in moves:
        step = 1 if player is Player.BOB else -1
        for u in iter_bits(graph.closed[vertex]):
            diff[u] += step
            if step > 0 and diff[u] >= threshold:
                danger.add(u)
    return danger


def _record(graph, moves, threshold):
    """A fresh round-1 book with the (player, vertex) moves recorded."""
    book = RoundBook(round=1, n=graph.n)
    for player, vertex in moves:
        record_round_move(book, graph, player, vertex, threshold)
    return book


class TestDangerousVertices:
    def test_empty_round_has_no_danger(self):
        g = make_named("star", 9)
        book = _record(g, [], 2)
        assert dangerous_vertices([], g, 2) == set() == set(iter_bits(book.danger_mask))

    def test_two_bob_leaves_endanger_only_the_centre(self):
        g = make_named("star", 9)
        moves = [(Player.BOB, 1), (Player.BOB, 2)]
        book = _record(g, moves, 2)
        # each leaf's closed nbhd got one Bob play; the centre's got two
        assert dangerous_vertices(moves, g, 2) == {0}
        assert set(iter_bits(book.danger_mask)) == {0}

    def test_single_bob_move_threshold_one_endangers_closed_nbhd(self):
        g = make_named("path", 5)
        moves = [(Player.BOB, 2)]
        book = _record(g, moves, 1)
        assert dangerous_vertices(moves, g, 1) == {1, 2, 3} == set(iter_bits(book.danger_mask))

    def test_danger_is_sticky_within_round(self):
        g = make_named("star", 9)
        # Alice compensating afterwards does not un-danger the centre
        moves = [(Player.BOB, 1), (Player.BOB, 2), (Player.ALICE, 3), (Player.ALICE, 4)]
        book = _record(g, moves, 2)
        assert dangerous_vertices(moves, g, 2) == {0} == set(iter_bits(book.danger_mask))

    def test_unreachable_threshold_never_endangers(self):
        # the centre's tally reaches 9, far below 99: a tally kept modulo a
        # small power of two would wrap onto 99's residue on the way
        g = make_named("star", 9)
        book = RoundBook(round=1, n=g.n)
        for leaf in range(1, 10):
            record_round_move(book, g, Player.BOB, leaf, 99)
            assert book.danger_mask == 0, leaf

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 20),
        p=st.floats(0.1, 0.9),
        gseed=st.integers(0, 10**6),
        mseed=st.integers(0, 10**6),
        data=st.data(),
    )
    def test_incremental_matches_recompute_and_grows(self, n, p, gseed, mseed, data):
        # thresholds up to n + 3 include ones no tally can reach
        threshold = data.draw(st.integers(1, n + 3), label="threshold")
        g = gnp_generate(GnpSpec(n, p, gseed))
        rng = random.Random(mseed)
        book = RoundBook(round=1, n=n)
        order = rng.sample(range(n), n)
        moves = []
        previous: set[int] = set()
        for v in order:
            player = Player.BOB if rng.random() < 0.5 else Player.ALICE
            record_round_move(book, g, player, v, threshold)
            moves.append((player, v))
            recomputed = dangerous_vertices(moves, g, threshold)
            assert recomputed == set(iter_bits(book.danger_mask))
            assert previous <= recomputed  # monotone within the round
            previous = recomputed


def _exact_mirror(graph, w, danger, moves):
    """The tier-2 pick of PriorityAlice._choose (None if another tier moves)
    after moves, w's among them, with Bob's last move w and the danger set."""
    alice = PriorityAlice(StrategyParams())
    alice.reset(graph, graph.n + 1, RuleVariant.STANDARD)
    state = GameState(graph, graph.n + 1)
    for v, c in moves:  # Alice's census follows the moves she observes
        _observe_move(state, alice, (state.to_move, v, c))
    alice.book.danger_mask = mask_of(danger)
    alice.book.last_bob_vertex = w
    assert state.is_played(w)  # as in play: w is a move of the current round
    v, _, prio = alice._choose(state)
    return (v if prio == 2 else None), state


class TestMirrorOf:
    def test_empty_reference_set_everything_mirrors(self):
        g = make_named("complete", 3)
        assert _exact_mirror(g, 0, set(), [(0, 1)])[0] == 1

    def test_star_leaves_mirror_each_other(self):
        g = make_named("star", 3)
        assert _exact_mirror(g, 1, {0}, [(1, 1)])[0] == 2

    def test_path_endpoints_mirror_about_the_middle(self):
        g = make_named("path", 3)  # 0 - 1 - 2
        assert _exact_mirror(g, 0, {1}, [(0, 1)])[0] == 2

    def test_none_when_no_mirror_exists(self):
        g = make_named("path", 3)
        # nothing else shares vertex 1's adjacency to {0, 2}
        assert _exact_mirror(g, 1, {0, 2}, [(1, 1)])[0] is None

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 10),
        p=st.floats(0, 1),
        gseed=st.integers(0, 10**6),
        pick=st.integers(0, 10**6),
    )
    def test_returned_mirror_agrees_on_reference_set(self, n, p, gseed, pick):
        g = gnp_generate(GnpSpec(n, p, gseed))
        rng = random.Random(pick)
        w = rng.randrange(n)
        s = {v for v in range(n) if v != w and rng.random() < 0.4}
        # at most n - 2 other moves, so the round does not turn over
        moves = [(w, 1)] + [(v, 2 + v) for v in range(n) if v != w and rng.random() < 0.3][: n - 2]
        v, state = _exact_mirror(g, w, s, moves)
        # the reference: unplayed vertices outside s and w with w's adjacency
        # to s that still have a legal colour, cheapest colour first
        mirrors = [
            (min(legal_colors(state, u)), u)
            for u in range(n)
            if u != w and u not in s and not state.is_played(u)
            and all(g.has_edge(u, t) == g.has_edge(w, t) for t in s)
            and legal_colors(state, u)
        ]
        assert v == (min(mirrors)[1] if mirrors else None)


class TestBaselines:
    def test_greedy_first_fit_fresh_triangle(self):
        state = GameState(make_named("complete", 3), 3)
        assert GreedyFirstFit().select(state) == (0, 1)

    def test_greedy_first_fit_respects_properness(self):
        state = GameState(make_named("complete", 3), 3)
        apply_move(state, 0, 1)
        assert GreedyFirstFit().select(state) == (1, 2)

    def test_random_legal_reproducible(self):
        g = gnp_generate(GnpSpec(7, 0.5, 4))
        a = play_game(g, 5, RandomLegal(), RandomLegal(), max_rounds=3, seed=17)
        b = play_game(g, 5, RandomLegal(), RandomLegal(), max_rounds=3, seed=17)
        assert a.transcript == b.transcript


class TestPriorityAlice:
    def _alice(self, graph, k, **params):
        defaults = dict(
            danger_threshold=99,
            nearly_full_threshold=1,
            block_distance=1,
        )
        defaults.update(params)
        alice = PriorityAlice(StrategyParams(**defaults))
        alice.reset(graph, k, RuleVariant.STANDARD)
        return alice

    def test_first_move_is_lowest_vertex_smallest_colour(self):
        g = make_named("star", 9)
        alice = self._alice(g, 3)
        state = GameState(g, 3)
        assert alice.select(state) == (0, 1)
        assert alice.audit_log[-1][2] == 3  # the fallback priority

    def test_opens_a_round_on_the_lowest_playable_vertex(self):
        # round 2 opens with the centre seeing all three colours: choosing it
        # would concede, so Alice recolours leaf 1, the lowest playable vertex
        g = make_named("star", 3)
        alice = self._alice(g, 3)
        state = GameState(g, 3)
        for player, v, c in [(Player.ALICE, 0, 1), (Player.BOB, 1, 2), (Player.ALICE, 2, 3), (Player.BOB, 3, 2)]:
            _observe_move(state, alice, (player, v, c))
        assert state.round == 2 and state.to_move is Player.ALICE
        assert _colour_mask(state, 0) == state.palette
        assert alice.select(state) == (1, 3)
        assert alice.audit_log[-1][2] == 3

    def test_rescues_a_nearly_full_leaf_first(self):
        # after round 1 each leaf's closed nbhd {leaf, centre} misses exactly
        # one of the three colours; with threshold 2 every leaf is urgent and
        # the lowest-index one gets rescued
        g = make_named("star", 9)
        alice = self._alice(g, 3, nearly_full_threshold=2)
        state = GameState(g, 3)
        _observe_move(state, alice, (Player.ALICE, 0, 1))
        _observe_move(state, alice, (Player.BOB, 1, 2))
        _observe_move(state, alice, (Player.ALICE, 2, 3))
        for leaf in range(3, 10):
            _observe_move(state, alice, (Player.BOB if leaf % 2 else Player.ALICE, leaf, 2))
        assert state.round == 2
        assert _colour_mask(state, 0) == state.palette  # centre already sees everything
        v, c = alice.select(state)
        # the centre (index 0, missing 0) is unrescuable and must be skipped;
        # leaf 1 is the lowest-index urgent vertex
        assert v == 1
        assert alice.audit_log[-1][2] == 1

    def test_mirrors_bobs_non_dangerous_leaf(self):
        g = make_named("star", 5)
        alice = self._alice(g, 3, danger_threshold=2)
        state = GameState(g, 3)
        _observe_move(state, alice, (Player.ALICE, 0, 1))
        _observe_move(state, alice, (Player.BOB, 1, 2))  # Bob plays leaf 1
        v, c = alice.select(state)
        assert (v, c) == (2, 2)  # leaf 2 mirrors leaf 1 (danger set empty)
        assert alice.audit_log[-1][2] == 2

    def test_refuses_a_position_she_has_not_observed(self):
        # her census and round book follow the moves she observes; a board
        # that moved without her would be read as an empty one
        g = make_named("star", 5)
        alice = self._alice(g, 3)
        state = GameState(g, 3)
        _observe_move(state, alice, (Player.ALICE, 0, 1))
        apply_move(state, 1, 2)  # Bob's move, never shown to her
        with pytest.raises(RuntimeError, match="has not observed"):
            alice.select(state)

    def test_always_plays_smallest_legal_colour(self):
        g = gnp_generate(GnpSpec(9, 0.5, 8))
        alice = PriorityAlice(StrategyParams.from_fractions(9))
        bob = GreedyFirstFit()
        out = play_game(g, g.max_degree() + 2, alice, bob, max_rounds=3)
        assert out.winner is Player.ALICE
        replay = GameState(g, g.max_degree() + 2)
        for rec in out.transcript:
            if rec.player is Player.ALICE:
                assert rec.color == min(legal_colors(replay, rec.vertex))
            apply_move(replay, rec.vertex, rec.color)

    def test_priority_soundness_audit(self):
        # replay a real game and recompute rule-1 applicability independently
        g = gnp_generate(GnpSpec(11, 0.5, 21))
        params = dataclasses.replace(StrategyParams.from_fractions(11), nearly_full_threshold=4)
        alice = PriorityAlice(params)
        out = play_game(g, g.max_degree() + 2, alice, GreedyFirstFit(), max_rounds=4)
        assert out.winner is Player.ALICE
        k = g.max_degree() + 2
        state = GameState(g, k)
        log = iter(alice.audit_log)
        for rec in out.transcript:
            if rec.player is Player.ALICE:
                rnd, idx, prio = next(log)
                assert (rnd, idx) == (rec.round, rec.idx)
                urgent_exists = False
                for v in range(g.n):
                    if state.is_played(v):
                        continue
                    seen = {state.colors[u] for u in iter_bits(g.closed[v]) if state.colors[u]}
                    if 1 <= k - len(seen) < params.nearly_full_threshold:
                        urgent_exists = True
                assert (prio == 1) == urgent_exists
            apply_move(state, rec.vertex, rec.color)


class TestTargetBob:
    def _bob(self, graph, k, target=0, **params):
        defaults = dict(
            danger_threshold=1,
            nearly_full_threshold=1,
            block_distance=1,
            reserve_missing=3,
        )
        defaults.update(params)
        bob = TargetBob(StrategyParams(**defaults), target=target)
        bob.reset(graph, k, RuleVariant.STANDARD)
        return bob

    def test_fresh_position_fresh_colour_into_target(self):
        g = make_named("star", 4)
        bob = self._bob(g, 3, reserve_missing=99)  # blocking gate closed
        state = GameState(g, 3)
        v, c = bob.select(state)
        assert (v, c) == (0, 1)  # smallest vertex of N(target), new colour
        assert bob.audit_log[-1][2] == 4

    def test_copies_a_twice_outside_colour_inside(self):
        # target 0 with nbrs {1,2}; 3 and 4 are isolated outside vertices
        g = Graph(5, [(0, 1), (0, 2)])
        bob = self._bob(g, 5, reserve_missing=99)
        state = GameState(g, 5)
        _observe_move(state, bob, (Player.ALICE, 3, 5))
        _observe_move(state, bob, (Player.BOB, 4, 5))
        v, c = bob.select(state)
        assert c == 5 and v == 0  # colour seen twice outside, copied inside
        assert bob.audit_log[-1][2] == 1

    def test_twice_outside_colours_enter_fifo(self):
        g = Graph(9, [(0, 1), (0, 2)])
        bob = self._bob(g, 6, reserve_missing=99)
        state = GameState(g, 6)
        _observe_move(state, bob, (Player.ALICE, 3, 4))  # colour 4 first
        _observe_move(state, bob, (Player.BOB, 4, 2))  # colour 2 second
        _observe_move(state, bob, (Player.ALICE, 5, 2))
        _observe_move(state, bob, (Player.BOB, 6, 4))
        v, c = bob.select(state)
        assert c == 4  # FIFO by introduction time, not colour index
        assert bob.audit_log[-1][2] == 1

    def test_once_outside_colours_enter_fifo(self):
        g = Graph(7, [(0, 1), (0, 2)])
        bob = self._bob(g, 6, reserve_missing=99)
        state = GameState(g, 6)
        _observe_move(state, bob, (Player.ALICE, 3, 4))  # colour 4 first
        _observe_move(state, bob, (Player.BOB, 4, 2))  # colour 2 second
        v, c = bob.select(state)
        assert c == 4  # FIFO by introduction time, not colour index
        assert bob.audit_log[-1][2] == 3

    def test_blocking_tier_with_nothing_to_block_falls_through(self):
        # the centre of star:6 is coloured, so every unplayed pair is two
        # leaves, whose closed neighbourhoods miss 4 of the 6 uncoloured
        # target vertices: the scan queues nothing, and tier 4 moves
        g = make_named("star", 6)
        bob = self._bob(g, 5, reserve_missing=0, danger_threshold=1, block_distance=1)
        state = GameState(g, 5)
        _observe_move(state, bob, (Player.ALICE, 0, 1))
        assert bob.select(state) == (1, 2)
        assert bob.audit_log == [(1, 1, 4)]
        assert bob.seen_pairs == set()

    def test_blocking_sequence_opens_with_a_fresh_colour(self):
        # vertices 5,6 jointly dominate the uncoloured target nbhd {0..4}
        g = Graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 0), (5, 1), (5, 2), (6, 3), (6, 4)])
        bob = self._bob(g, 9, reserve_missing=3, block_distance=1)
        state = GameState(g, 9)
        bob.batches.append(bob._block_moves(state, 5, 6))
        bob.seen_pairs.add((5, 6))
        v, c, prio = bob._round1_move(state)
        assert (v, c) == (5, 1)  # colour a with the smallest unused colour
        assert prio == 2

    def test_blocking_sequence_drops_without_an_unused_colour_for_a(self):
        # target 0 with neighbours 1, 2; outside vertices 3, 4 use up the palette
        g = Graph(7, [(0, 1), (0, 2)])
        bob = self._bob(g, 2, reserve_missing=0)
        state = GameState(g, 2)
        _observe_move(state, bob, (Player.ALICE, 3, 1))
        _observe_move(state, bob, (Player.BOB, 4, 2))
        assert list(bob._block_moves(state, 5, 6)) == []
        assert bob.drop_log == ["pair (5,6) dropped: no unused colour for a"]

    def test_blocking_sequence_drops_without_an_unused_colour_for_b(self):
        g = Graph(7, [(0, 1), (0, 2)])
        bob = self._bob(g, 2, reserve_missing=0)
        state = GameState(g, 2)
        _observe_move(state, bob, (Player.ALICE, 3, 1))
        _observe_move(state, bob, (Player.BOB, 4, 2))
        moves = []
        for v, c in bob._block_moves(state, 3, 5):  # a = 3 holds colour 1, absent from N[0]
            moves.append((v, c))
            _observe_move(state, bob, (state.to_move, v, c))
        assert moves == [(0, 1)]  # c_a goes in; b = 5 then finds no unused colour
        assert bob.drop_log == ["pair (3,5) dropped: no unused colour for b"]

    # target 4 with neighbours 2, 3; vertices 0, 1 and 5 lie outside.  With
    # block_distance 3 every pair of unplayed vertices qualifies.
    _OUTSIDE_PAIRS = Graph(6, [(4, 2), (4, 3)])

    def test_row_coloured_inside_after_the_scan_is_skipped_without_a_drop(self):
        g = self._OUTSIDE_PAIRS
        bob = self._bob(g, 9, target=4, block_distance=3)
        state = GameState(g, 9)
        bob._scan_block_pairs(state)
        _observe_move(state, bob, (Player.ALICE, 2, 1))  # colour 1 enters N[4]
        _observe_move(state, bob, (Player.BOB, 0, 1))  # and now row 0 holds it
        # row 0 is gone, not drawn: pair (1, 2) opens, colouring 1 with the
        # smallest unused colour, 2
        assert next_move(bob.batches) == (1, 2)
        assert bob.seen_pairs == {(1, 2)}
        assert bob.drop_log == []

    def test_row_ends_once_its_own_sequence_puts_a_colour_inside(self):
        g = self._OUTSIDE_PAIRS
        bob = self._bob(g, 9, target=4, block_distance=3)
        state = GameState(g, 9)
        bob._scan_block_pairs(state)
        moves = []
        for _ in range(5):
            v, c = next_move(bob.batches)
            moves.append((v, c))
            _observe_move(state, bob, (state.to_move, v, c))
        # pair (0, 1): give 0 a fresh colour and copy it into N[4], then the
        # same for 1.  The next pair drawn is (4, 5): rows 0..3 now all hold
        # a colour already inside N[4], row 0 included, though it was resumed.
        assert moves == [(0, 1), (2, 1), (1, 2), (3, 2), (4, 3)]
        assert bob.seen_pairs == {(0, 1), (4, 5)}
        assert bob.drop_log == []

    def test_round2_claims_a_saturated_target(self):
        g = make_named("star", 2)
        bob = self._bob(g, 2)
        state = GameState(g, 2)
        for mv in [(Player.ALICE, 1, 1), (Player.BOB, 2, 1), (Player.ALICE, 0, 2)]:
            _observe_move(state, bob, mv)
        assert state.round == 2
        assert _colour_mask(state, 0) == state.palette
        v, c = bob.select(state)
        assert v == 0 and c is None  # claim the stuck target

    def test_round2_without_a_win_falls_back_to_greedy(self):
        g = make_named("star", 2)
        bob = self._bob(g, 3)
        state = GameState(g, 3)
        for mv in [(Player.ALICE, 1, 1), (Player.BOB, 2, 1), (Player.ALICE, 0, 2)]:
            _observe_move(state, bob, mv)
        assert state.k - _colour_mask(state, 0).bit_count() == 1
        assert bob.select(state) == GreedyFirstFit().select(state)

    def test_colour_book_matches_the_board_after_every_round1_move(self):
        # RandomLegal introduces colours out of index order, so the order of
        # first appearance is no sorted list
        checked = unsorted = 0
        for n, gseed in _LOCKSTEP_GAMES:
            g = gnp_generate(GnpSpec(n, 0.5, gseed))
            params = StrategyParams(block_distance=2, danger_threshold=2, reserve_missing=2)
            for target in (0, n - 1):
                for k in (n // 2, n // 2 + 3):
                    bob = _BookCheckedTargetBob(params, target=target)
                    play_game(g, k, RandomLegal(), bob, max_rounds=2, seed=gseed)
                    checked += bob.checked
                    unsorted += bob.appeared != sorted(bob.appeared)
        assert checked > 500 and unsorted > 40, (checked, unsorted)

    def test_scan_rows_are_keyed_by_gone(self):
        # two scans with one u and nested gone sets: the larger set's scan
        # finds more pairs, and must not read the rows the smaller one filled
        g = gnp_generate(GnpSpec(21, 0.5, 0))
        state = GameState(g, 10)
        u = g.closed[0]
        small, large = 1 << 1, g.full_mask & ~u  # vertex 1 lies outside u

        def scan(gone):
            bob = self._bob(g, 10, block_distance=2)
            moves = list(bob._block_pairs(state, u, gone, g.full_mask))
            return bob.seen_pairs, moves

        try:
            _SCAN_ROWS.pop(g, None)
            small_pairs, _ = scan(small)
            warm = scan(large)
            _SCAN_ROWS.pop(g)
            cold = scan(large)
        finally:
            _SCAN_ROWS.pop(g, None)
        assert warm == cold
        assert small_pairs < cold[0], (len(small_pairs), len(cold[0]))

    def test_beats_greedy_alice_where_solver_says_bob_wins(self):
        # exact-solver-confirmed Bob wins; the priority strategy realizes them
        for kind, size, k in [("star", 4, 3), ("path", 5, 3), ("cycle", 5, 3)]:
            g = make_named(kind, size)
            assert solve_eternal(g, k).winner is Player.BOB
            bob = TargetBob(StrategyParams(), target=0)
            out = play_game(g, k, GreedyFirstFit(), bob, max_rounds=10)
            assert out.winner is Player.BOB, (kind, size, k)


class _BookCheckedTargetBob(TargetBob):
    """TargetBob checking his colour book against the board after every
    round-1 move: `outside` holds the colours with no copy in N[target], in
    order of first appearance in play."""

    def reset(self, graph, k, variant, seed=None):
        super().reset(graph, k, variant, seed)
        self.appeared = []
        self.checked = 0

    def observe(self, state, rec):
        super().observe(state, rec)
        if rec.round == 1:
            if rec.color not in self.appeared:
                self.appeared.append(rec.color)
            pos = state.color_pos
            assert list(self.outside) == [c for c in self.appeared if not pos[c] & self.target_mask]
            self.checked += 1


class _LoggedTargetBob(TargetBob):
    """TargetBob logging each block pair as its lazy batch starts the pair's
    blocking sequence, and counting the moves drawn from the batches after
    a game's first.  Batches drain FIFO, so the first batch to run is the
    first one queued."""

    def reset(self, graph, k, variant, seed=None):
        super().reset(graph, k, variant, seed)
        self.pair_log = []
        self.batches_run = 0
        self.later_moves = 0

    def _block_pairs(self, state, u_mask, gone, rest):
        self.batches_run += 1
        later = self.batches_run > 1
        for mv in super()._block_pairs(state, u_mask, gone, rest):
            self.later_moves += later
            yield mv

    def _block_moves(self, state, a, b):
        self.pair_log.append((a, b))
        yield from super()._block_moves(state, a, b)


class _BlockObligation:
    """Pending blocking-move sequence for a pair (a, b) threatening the target.

    Stages: colour a with a fresh colour c_a; introduce c_a into the target
    neighbourhood (deferring to Alice's pre-emptions); then the same for b.
    Obsolete obligations are dropped and logged.
    """

    __slots__ = ("a", "b", "c_a", "c_b", "phase")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b
        self.c_a = None
        self.c_b = None
        self.phase = "A"

    def step(self, bob, state):
        """Next move of the sequence, or None when finished/dropped."""
        colors = state.colors

        def inside(state, c):  # read from color_pos, independent of bob's seen_by test
            return bool(state.color_pos[c] & bob.target_mask)

        while True:
            if self.phase == "done" or not bob.target_mask & state.color_pos[0]:
                return None
            if self.phase == "A":
                col_a = colors[self.a]
                if col_a == 0:
                    c = bob._smallest_unused(state)
                    if c is None:
                        self.phase = "done"
                        bob._log_drop(self.a, self.b, "no unused colour for a")
                        return None
                    self.c_a = c
                    self.phase = "A2"
                    return self.a, c
                if inside(state, col_a):
                    # a was neutralized by a colour already in the target
                    self.phase = "done"
                    bob._log_drop(self.a, self.b, "a coloured inside-target colour")
                    return None
                self.c_a = col_a
                self.phase = "A2"
                continue
            if self.phase == "A2":
                if inside(state, self.c_a):
                    self.phase = "B"
                    continue
                col_b = colors[self.b]
                if col_b != 0 and not inside(state, col_b):
                    # Alice played b with a colour missing from the target:
                    # copy it in first, c_a next move.
                    u = uncolored_taking(state, bob.target_mask, col_b)
                    if u is not None:
                        self.c_b = col_b
                        self.phase = "final_ca"
                        return u, col_b
                u = uncolored_taking(state, bob.target_mask, self.c_a)
                if u is None:
                    self.phase = "done"
                    bob._log_drop(self.a, self.b, "c_a not introducible")
                    return None
                self.phase = "done" if (col_b != 0 and inside(state, col_b)) else "B"
                return u, self.c_a
            if self.phase == "final_ca":
                if inside(state, self.c_a):
                    self.phase = "done"
                    return None
                u = uncolored_taking(state, bob.target_mask, self.c_a)
                if u is None:
                    self.phase = "done"
                    bob._log_drop(self.a, self.b, "c_a not introducible")
                    return None
                self.phase = "done"
                return u, self.c_a
            if self.phase == "B":
                col_b = colors[self.b]
                if col_b != 0:
                    if inside(state, col_b):
                        self.phase = "done"
                        return None
                    self.c_b = col_b
                    self.phase = "B2"
                    continue
                c = bob._smallest_unused(state)
                if c is None:
                    self.phase = "done"
                    bob._log_drop(self.a, self.b, "no unused colour for b")
                    return None
                self.c_b = c
                self.phase = "B2"
                return self.b, c
            if self.phase == "B2":
                if inside(state, self.c_b):
                    self.phase = "done"
                    return None
                u = uncolored_taking(state, bob.target_mask, self.c_b)
                self.phase = "done"
                if u is None:
                    bob._log_drop(self.a, self.b, "c_b not introducible")
                    return None
                return u, self.c_b
            raise AssertionError(f"unknown phase {self.phase}")


_STALE = "a coloured inside-target colour"  # the drop of a pair whose a is already played inside


class _ReferenceTargetBob(TargetBob):
    """TargetBob's round 1 as first written: the full rescan of every unplayed
    pair on every call, queued at once as hand-stepped obligations, and
    colours ordered by their recorded first-appearance time.  The oracle of
    the incremental scan, the lazy pair batches, the blocking generator and
    the appearance list."""

    def reset(self, graph, k, variant, seed=None):
        super().reset(graph, k, variant, seed)
        self.k = k
        self.intro_time = [0] * (k + 1)  # move index of first appearance; 0 = unused
        self.move_clock = 0
        self.pending = deque()
        self.pair_log = []
        self.acted = []  # pairs stepped in play and not dropped as stale at their first step

    def observe(self, state, rec):
        self.move_clock += 1
        if self.intro_time[rec.color] == 0:
            self.intro_time[rec.color] = self.move_clock

    def _colors_by_intro(self, pred):
        cs = [c for c in range(1, self.k + 1) if pred(c)]
        cs.sort(key=lambda c: (self.intro_time[c], c))
        return cs

    def _scan_block_pairs(self, state):
        u_mask = self.target_mask & state.color_pos[0]
        dist = self.params.block_distance
        unplayed = [v for v in unplayed_vertices(state)]
        closed = self.graph.closed
        for i, a in enumerate(unplayed):
            miss_a = u_mask & ~closed[a]
            for b in unplayed[i + 1 :]:
                if (miss_a & ~closed[b]).bit_count() <= dist:
                    key = frozenset((a, b))
                    if key not in self.seen_pairs:
                        self.seen_pairs.add(key)
                        self.pending.append(_BlockObligation(a, b))
                        self.pair_log.append((a, b))

    def _round1_move(self, state):
        pos, target_mask = state.color_pos, self.target_mask
        for c in self._colors_by_intro(lambda c: not pos[c] & target_mask and pos[c].bit_count() >= 2):
            u = uncolored_taking(state, target_mask, c)
            if u is not None:
                return u, c, 1
        unused = pos[1:].count(0)
        if unused >= self.params.reserve_missing and (target_mask & pos[0]).bit_count() >= self.params.danger_threshold:
            self._scan_block_pairs(state)
            while self.pending:
                ob = self.pending[0]
                first, logged = ob.phase == "A", len(self.drop_log)
                mv = ob.step(self, state)
                if first and not any(d.endswith(_STALE) for d in self.drop_log[logged:]):
                    self.acted.append((ob.a, ob.b))
                if mv is not None:
                    return mv[0], mv[1], 2
                self.pending.popleft()
        for c in self._colors_by_intro(lambda c: not pos[c] & target_mask and pos[c].bit_count() == 1):
            u = uncolored_taking(state, target_mask, c)
            if u is not None:
                return u, c, 3
        c = self._smallest_unused(state)
        if c is not None:
            avail = target_mask & pos[0]
            if avail:
                return next(iter_bits(avail)), c, 4
        v, c = first_fit(state)
        return v, c, 5


class _ReferenceAlice(PriorityAlice):
    """PriorityAlice's tiers as first written: a walk over the unplayed
    vertices per tier, the exact mirror over range(n), and the per-(v, t)
    weight loop for the pressure cover.  The oracle of PriorityAlice._choose."""

    def _choose(self, state):
        # the colour masks of all closed neighbourhoods, from the colouring
        self.ref_seen = [_colour_mask(state, v) for v in range(self.graph.n)]
        v, prio = self._choose_vertex(state)
        return v, self._smallest_legal(state, v), prio

    def _smallest_legal(self, state, v):
        free = state.palette & ~self.ref_seen[v]
        return (free & -free).bit_length() - 1 if free else None

    def _choose_vertex(self, state):
        seen, k = self.ref_seen, self.k
        urgent, urgent_missing = None, self.params.nearly_full_threshold
        for v in unplayed_vertices(state):
            missing = k - seen[v].bit_count()
            if 1 <= missing < urgent_missing:
                urgent, urgent_missing = v, missing
        if urgent is not None:
            return urgent, 1
        w = self.book.last_bob_vertex
        if w is not None and not (self.book.danger_mask >> w & 1):
            v = self._exact_mirror(state, w)
            if v is not None:
                return v, 2
        if w is not None:
            v = self._weighted_mirror(state, w)
            if v is not None:
                return v, 3
        # a round opens on the lowest playable vertex; with none, the lowest unplayed one concedes
        unplayed = list(unplayed_vertices(state))
        playable = [v for v in unplayed if self._smallest_legal(state, v) is not None]
        return (playable or unplayed)[0], 3

    def _exact_mirror(self, state, w):
        d_mask = self.book.danger_mask
        want = self.graph.adj[w] & d_mask
        skip = d_mask | state.played | (1 << w)
        best = None
        for v in range(self.graph.n):
            if skip >> v & 1:
                continue
            if self.graph.adj[v] & d_mask != want:
                continue
            c = self._smallest_legal(state, v)
            if c is None:
                continue
            if best is None or (c, v) < best:
                best = (c, v)
        return best[1] if best else None

    def _weighted_mirror(self, state, w):
        d_mask = self.book.danger_mask
        skip = state.played | (1 << w)
        seen = self.ref_seen
        base = self.graph.n + 1
        best = None
        for v in range(self.graph.n):
            if skip >> v & 1:
                continue
            c = self._smallest_legal(state, v)
            if c is None:
                continue
            covered = self.graph.adj[v] & d_mask
            score = 0
            for t in iter_bits(covered):
                e = seen[t].bit_count()
                score += base ** e if seen[t] >> c & 1 else base ** e // base
            if best is None or (-score, c, v) < best:
                best = (-score, c, v)
        return best[2] if best else None


class _KillObligation:
    """Pending kill sequence for an m-set threatening some target class,
    stepped by hand: an iterator over Bob's kill moves on the live board."""

    __slots__ = ("bob", "state", "members", "pos", "color", "intro_left")

    def __init__(self, bob, state, members):
        self.bob = bob
        self.state = state
        self.members = members
        self.pos = 0
        self.color = None
        self.intro_left = []

    def __iter__(self):
        return self

    def __next__(self):
        bob, state = self.bob, self.state
        while True:
            if self.intro_left:
                vertices = bob.plan.entries[self.intro_left[0]].vertices
                if not state.color_pos[self.color] & vertices:
                    u = uncolored_taking(state, vertices, self.color)
                    if u is not None:
                        self.intro_left.pop(0)
                        return u, self.color
                self.intro_left.pop(0)
                continue
            while self.pos < len(self.members) and state.colors[self.members[self.pos]] != 0:
                self.pos += 1
            if self.pos >= len(self.members):
                raise StopIteration
            a = self.members[self.pos]
            if state.is_played(a):
                self.pos += 1
                continue
            c = bob._safe_kill_color(state, a)
            if c is None:
                self.pos += 1
                continue
            self.color = c
            self.intro_left = [i for i in bob.ref_designated[c] if not state.color_pos[c] & bob.plan.entries[i].vertices]
            self.pos += 1
            return a, c


class _ReferenceMultiplicityBob(MultiplicityBob):
    """The oracle of MultiplicityBob's round 1: its own end-stage rule and
    record of Alice's last move, each tier written out in full, and kill
    sequences as hand-stepped obligations, and the greedy kill scan over a
    list of unplayed vertices.  It shares only the safe kill colour with the
    class under test."""

    def reset(self, graph, k, variant, seed=None):
        super().reset(graph, k, variant, seed)
        self.ref_class_of = {v: i for i, e in enumerate(self.plan.entries) for v in iter_bits(e.vertices)}
        self.ref_designated = {c: [i for i, e in enumerate(self.plan.entries) if c in e.colors] for c in range(1, k + 1)}
        self.ref_last_vertex = self.ref_last_color = None

    def observe(self, state, rec):
        i = self.ref_class_of.get(rec.vertex)
        if i is not None and not self.end_stage[i] and len(self._ref_missing(state, i)) <= self.params.reserve_missing:
            self.end_stage[i] = True
        if rec.player is Player.ALICE:
            self.ref_last_vertex, self.ref_last_color = rec.vertex, rec.color

    def _ref_missing(self, state, i):
        entry = self.plan.entries[i]
        return [c for c in sorted(entry.colors) if not state.color_pos[c] & entry.vertices]

    def _ref_forced_colors(self, state, slack):
        C_l, l = self.params.multiplicity, self.plan.l
        out = []
        for c in range(1, self.k + 1):
            if not self.ref_designated[c]:
                continue
            r = state.color_pos[c].bit_count()
            if slack and r == 0:
                continue
            q = min(l, r // C_l + slack)
            missed = sum(1 for i in self.ref_designated[c] if not state.color_pos[c] & self.plan.entries[i].vertices)
            if q >= 1 and missed > l - q:
                out.append(c)
        return out

    def _ref_forced_copy(self, state, slack):
        """The first copy of a forced colour into a class missing it."""
        for c in self._ref_forced_colors(state, slack):
            for i in self.ref_designated[c]:
                vertices = self.plan.entries[i].vertices
                if not state.color_pos[c] & vertices:
                    u = uncolored_taking(state, vertices, c)
                    if u is not None:
                        return u, c
        return None

    def _round1_move(self, state):
        entries = self.plan.entries
        # (1) multiplicity-forced copies
        mv = self._ref_forced_copy(state, slack=0)
        if mv is not None:
            return (*mv, 1)
        # (2) end-stage service, Alice's last colour first
        for i, entry in enumerate(entries):
            if not self.end_stage[i]:
                continue
            missing = self._ref_missing(state, i)
            if self.ref_last_color in missing:
                u = uncolored_taking(state, entry.vertices, self.ref_last_color)
                if u is not None:
                    return u, self.ref_last_color, 2
            for c in missing:
                u = uncolored_taking(state, entry.vertices, c)
                if u is not None:
                    return u, c, 2
        # (3) kill looming blocks
        if not all(self.end_stage):
            self._scan_kills(state)
            mv = next_move(self.pending)
            if mv is not None:
                return (*mv, 3)
        # (4) eager multiplicity copies
        mv = self._ref_forced_copy(state, slack=1)
        if mv is not None:
            return (*mv, 4)
        # (5) fresh designated colours, Alice's last class first
        order = list(range(len(entries)))
        last = self.ref_class_of.get(self.ref_last_vertex)
        if last is not None:
            order.remove(last)
            order.insert(0, last)
        for i in order:
            for c in self._ref_missing(state, i):
                u = uncolored_taking(state, entries[i].vertices, c)
                if u is not None:
                    return u, c, 5
        # (6) anything
        v, c = first_fit(state)
        return v, c, 6

    def _scan_kills(self, state):
        m = self.params.block_set_size or 100 * self.params.multiplicity * self.plan.l
        dist = self.params.block_distance
        unplayed = list(unplayed_vertices(state))
        closed = self.graph.closed
        for i, entry in enumerate(self.plan.entries):
            if self.end_stage[i]:
                continue
            u_mask = entry.vertices & state.color_pos[0]
            if u_mask.bit_count() < self.params.danger_threshold:
                continue
            # greedy max-coverage candidate m-set
            members, remaining = [], u_mask
            for _ in range(min(m, len(unplayed))):
                best, best_cov = None, -1
                for a in unplayed:
                    if a in members:
                        continue
                    cov = (remaining & closed[a]).bit_count()
                    if cov > best_cov:
                        best, best_cov = a, cov
                if best is None or best_cov == 0:
                    break
                members.append(best)
                remaining &= ~closed[best]
                if remaining.bit_count() <= dist:
                    break
            if members and remaining.bit_count() <= dist:
                key = (frozenset(members), i)
                if key not in self.seen_kills:
                    self.seen_kills.add(key)
                    self.pending.append(_KillObligation(self, state, members))


@st.composite
def _mirror_positions(draw):
    """A random proper partial colouring with a played set, a danger mask
    (empty, full or any) and Bob's last vertex w: None, or a played vertex,
    as in play.  Some vertex is left unplayed, as at any turn in play."""
    n = draw(st.integers(1, 14))
    g = gnp_generate(GnpSpec(n, draw(st.sampled_from((0.2, 0.5, 0.8))), draw(st.integers(0, 10**6))))
    k = draw(st.integers(1, n + 1))
    colors = [0] * n
    for v in draw(st.permutations(range(n))):
        c = draw(st.integers(0, k))  # 0 leaves v uncoloured
        if c and all(colors[u] != c for u in iter_bits(g.adj[v])):
            colors[v] = c
    state = GameState(g, k)
    state.colors = colors
    state.color_pos = [mask_of(v for v in range(n) if colors[v] == c) for c in range(k + 1)]
    state.seen_by = [0] + [mask_of(v for v in range(n) if g.closed[v] & state.color_pos[c]) for c in range(1, k + 1)]
    w = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    state.played = draw(st.integers(0, g.full_mask)) | (0 if w is None else 1 << w)
    assume(state.played != g.full_mask)
    danger = draw(st.one_of(st.just(0), st.just(g.full_mask), st.integers(0, g.full_mask)))
    return g, k, state, danger, w


_LOCKSTEP_GAMES = [(n, gseed) for n in (13, 17, 21, 25) for gseed in range(3)]


def _check_scan_rows(g) -> int:
    """Check that each filled row a of TargetBob's table for g, under key
    (dist, u, gone), holds the b > a whose pair with a misses at most dist
    vertices of u and some vertex of gone; return how many rows of scans
    after a game's first (gone inside the graph) were checked."""
    closed, later = g.closed, 0
    for (dist, u, gone), rows in _SCAN_ROWS[g].items():
        for a, row in enumerate(rows):
            if row is not None:
                missed = [~(closed[a] | closed[b]) for b in range(g.n)]
                assert row == sum(1 << b for b in range(a + 1, g.n) if (u & missed[b]).bit_count() <= dist and gone & missed[b])
                later += gone >= 0
    return later


class TestLockstepOracles:
    """The incremental hot loops and the generator sequences play exactly as
    the full recomputations and hand-stepped obligations of the references."""

    def test_target_bob_scan_matches_full_rescan(self):
        queued = drops = stale = lazy = later = later_rows = 0
        # PriorityAlice, above all at n = 41, reaches the scans after a
        # game's first, which the baselines rarely do; they sit out n = 41,
        # where the reference's full rescans are dear
        for n, gseed in _LOCKSTEP_GAMES + [(41, gseed) for gseed in range(3)]:
            g = gnp_generate(GnpSpec(n, 0.5, gseed))
            # several distances and targets on the one graph object, whose
            # scan rows every game on it shares
            for target, dist in [(target, dist) for target in (gseed, n - 1 - gseed) for dist in (1, 2, 3)]:
                params = StrategyParams(block_distance=dist, danger_threshold=2, reserve_missing=2)
                for k in (n // 2, n // 2 + 3):
                    baselines = (GreedyFirstFit(), RandomLegal()) if n < 41 else ()
                    for alice in (*baselines, PriorityAlice(params)):
                        games = []
                        for cls in (_LoggedTargetBob, _ReferenceTargetBob):
                            bob = cls(params, target=target)
                            out = play_game(g, k, alice, bob, max_rounds=3, seed=gseed)
                            games.append((out, bob))
                        (out, bob), (ref_out, ref) = games
                        case = (n, gseed, target, dist, k, alice.name)
                        assert out.transcript == ref_out.transcript, case
                        assert bob.audit_log == ref.audit_log, case
                        # The lazy stream draws, in order, exactly the pairs the
                        # reference acted on: a pair whose a already holds a
                        # colour present in N[target] is skipped, not drawn and
                        # dropped.
                        assert bob.pair_log == ref.acted, case
                        live_drops = [d for d in ref.drop_log if not d.endswith(_STALE)]
                        assert bob.drop_log == live_drops, case
                        queued += len(ref.pair_log)
                        stale += len(ref.drop_log) - len(live_drops)
                        lazy += len(bob.pair_log)
                        drops += len(bob.drop_log)
                        later += bob.later_moves
            later_rows += _check_scan_rows(g)
        assert drops > 100 and stale > 1000  # the scans really ran, and really went stale
        assert later > 50 and later_rows > 150, (later, later_rows)  # the later scans really moved, and filled rows
        assert lazy < queued  # and the lazy queue tested fewer pairs in play

    def test_multiplicity_bob_kills_match_hand_stepped_obligations(self):
        tiers = [0] * 7
        for n, gseed in _LOCKSTEP_GAMES:
            g = gnp_generate(GnpSpec(n, 0.5, gseed))
            k = n // 2 + 2
            for l in (1, 2):
                plan = bob_even_setup(g, l, 2, k)
                for m in (3, None):
                    # C_l = 1 and 2 reach the multiplicity tiers; a larger
                    # reserve reaches the end stage early
                    for multiplicity, reserve in ((4, 2), (1, 2), (2, 6)):
                        params = StrategyParams(
                            danger_threshold=2, block_distance=2, reserve_missing=reserve,
                            multiplicity=multiplicity, block_set_size=m,
                        )
                        for alice in (GreedyFirstFit(), RandomLegal(), PriorityAlice(params)):
                            games = []
                            for cls in (MultiplicityBob, _ReferenceMultiplicityBob):
                                bob = cls(plan, params)
                                out = play_game(g, k, alice, bob, max_rounds=3, seed=gseed)
                                games.append((out, bob))
                            (out, bob), (ref_out, ref) = games
                            case = (n, gseed, l, m, multiplicity, reserve, alice.name)
                            assert out.transcript == ref_out.transcript, case
                            assert bob.audit_log == ref.audit_log, case
                            assert bob.seen_kills == ref.seen_kills, case
                            for *_, prio in bob.audit_log:
                                tiers[prio] += 1
        assert all(tiers[1:]), tiers  # every tier really fired
        assert tiers[3] > 1000  # the kill tier often

    def test_priority_alice_mirror_matches_per_pair_weights(self):
        tiers = [0] * 4
        for n, gseed in _LOCKSTEP_GAMES:
            g = gnp_generate(GnpSpec(n, 0.5, gseed))
            params = StrategyParams(danger_threshold=2, nearly_full_threshold=2, block_distance=2, reserve_missing=2)
            for k in (n // 2 + 2, n - 2):
                for tier, count in enumerate(_alice_lockstep(g, k, params, max_rounds=4, seed=gseed)):
                    tiers[tier] += count
        assert all(tiers[1:]), tiers  # every tier really fired
        assert tiers[3] > 100  # the mirror search often

    def test_priority_alice_mirror_matches_at_defence_scale(self):
        # the alice-defence setting, where many pressure levels and ties meet
        g = gnp_generate(GnpSpec(101, 0.5, derive_seed(0, 0, "graph")))
        params = dataclasses.replace(StrategyParams.from_fractions(101), danger_threshold=3)
        tiers = _alice_lockstep(g, 32, params, max_rounds=3, seed=derive_seed(0, 0, 32))
        assert tiers[2] > 0, tiers  # the exact mirror at n = 101
        assert tiers[3] > 100, tiers

    @settings(max_examples=400, deadline=None)
    @given(position=_mirror_positions(), threshold=st.integers(1, 3))
    def test_playable_mirror_matches_weights_on_any_position(self, position, threshold):
        # threshold 1 never rescues, so the mirror tiers are reached
        g, k, state, danger, w = position
        picks = []
        for cls in (PriorityAlice, _ReferenceAlice):
            alice = cls(StrategyParams(nearly_full_threshold=threshold))
            alice.reset(g, k, RuleVariant.STANDARD)
            # Alice's census follows the moves she observes: one per coloured
            # vertex, each reading the census masks of the final position
            for v in iter_bits(g.full_mask & ~state.color_pos[0]):
                alice.observe(state, MoveRecord(1, 0, Player.ALICE, v, state.colors[v]))
            alice.book.danger_mask = danger
            alice.book.last_bob_vertex = w
            picks.append(alice._choose(state))
        assert picks[0] == picks[1]


def _alice_lockstep(g, k, params, max_rounds, seed) -> list[int]:
    """Play PriorityAlice and _ReferenceAlice against TargetBob, assert the
    same game, and return how many of Alice's moves came from each tier:
    tiers[t] for t = 1, 2, 3 (tiers[0] stays 0)."""
    games = []
    for cls in (PriorityAlice, _ReferenceAlice):
        alice = cls(params)
        out = play_game(g, k, alice, TargetBob(params), max_rounds=max_rounds, seed=seed)
        games.append((out, alice))
    (out, alice), (ref_out, ref) = games
    assert out.transcript == ref_out.transcript, (g.n, k, seed)
    assert alice.audit_log == ref.audit_log, (g.n, k, seed)
    tiers = [0] * 4
    for *_, prio in alice.audit_log:
        tiers[prio] += 1
    return tiers


def _set_safe_kill_color(bob, state, vertex):
    """MultiplicityBob._safe_kill_color on the sorted set of legal_colors,
    with the classes missing each colour counted from the reference's own
    designated lists: the oracle of its walk over the legal mask."""
    C_l = bob.params.multiplicity
    legal = legal_colors(state, vertex)
    fallback = min(legal) if legal else None
    for c in sorted(legal):
        q = min(bob.plan.l, (state.color_pos[c].bit_count() + 1) // C_l)
        missed = sum(1 for i in bob.ref_designated[c] if not state.color_pos[c] & bob.plan.entries[i].vertices)
        if q < 1 or missed <= bob.plan.l - q:
            return c
    return fallback


class TestSafeKillColor:
    """MultiplicityBob walks the legal mask's colours in the order of the
    sorted legal_colors set, so its kill colours are those of the set form,
    the fallback for a vertex with no safe colour included."""

    @settings(max_examples=200, deadline=None)
    @given(position=_mirror_positions(), variant=st.sampled_from(list(RuleVariant)), data=st.data())
    def test_safe_kill_colour_matches_the_set_form(self, position, variant, data):
        g, k, state, _, _ = position
        state.variant, state.to_move = variant, Player.BOB
        entries = tuple(
            PlanEntry(data.draw(st.integers(1, g.full_mask)), tuple(sorted(data.draw(st.sets(st.integers(1, k), min_size=1)))))
            for i in range(data.draw(st.integers(1, 3)))
        )
        plan = TargetPlan(ground_set=tuple(range(data.draw(st.integers(1, 3)))), entries=entries)
        # the reference inherits _safe_kill_color and keeps its own designated lists
        bob = _ReferenceMultiplicityBob(plan, StrategyParams(multiplicity=data.draw(st.integers(1, 4))))
        bob.reset(g, k, variant)
        for v in unplayed_vertices(state):
            assert bob._safe_kill_color(state, v) == _set_safe_kill_color(bob, state, v), v


def _entry_trace(g, plan, entry):
    """The ground vertices adjacent to the vertices of entry's class, which
    must all share them."""
    traces = {frozenset(x for x in plan.ground_set if g.adj[v] >> x & 1) for v in iter_bits(entry.vertices)}
    assert len(traces) == 1, traces
    return traces.pop()


class TestBobEvenSetup:
    def test_single_ground_vertex_degenerates_to_inside_outside(self):
        g = make_named("star", 4)
        plan = bob_even_setup(g, l=1, k=2, num_colors=5)
        assert plan.ground_set == (0,)
        assert len(plan.entries) == 1
        entry = plan.entries[0]
        assert _entry_trace(g, plan, entry) == frozenset({0})
        assert set(iter_bits(entry.vertices)) == {1, 2, 3, 4}
        assert entry.colors == tuple(range(1, 6))

    def test_l2_empty_trace_class_gets_no_colours(self):
        g = gnp_generate(GnpSpec(30, 0.5, 6))
        plan = bob_even_setup(g, l=2, k=2, num_colors=8)
        assert all(_entry_trace(g, plan, e) != frozenset() for e in plan.entries)

    def test_coverage_every_ground_vertex_sees_full_palette(self):
        g = gnp_generate(GnpSpec(40, 0.5, 12))
        for l, k, num_colors in [(1, 2, 10), (2, 2, 10), (2, 3, 12), (3, 3, 12)]:
            plan = bob_even_setup(g, l, k, num_colors)
            for x in plan.ground_set:
                union = set()
                for e in plan.entries:
                    if x in _entry_trace(g, plan, e):
                        union.update(e.colors)
                assert union == set(range(1, num_colors + 1)), (l, k, num_colors)

    def test_entries_have_disjoint_vertex_sets(self):
        g = gnp_generate(GnpSpec(40, 0.5, 12))
        plan = bob_even_setup(g, 2, 2, 10)
        used = 0
        for e in plan.entries:
            assert e.vertices & used == 0
            used |= e.vertices

    def test_empty_needed_class_is_a_setup_failure(self):
        with pytest.raises(ValueError, match=r"^class for trace \[0\] is empty but needs colours$"):
            bob_even_setup(make_named("empty", 5), l=2, k=2, num_colors=4)


class TestMultiplicityBob:
    def _bob(self, graph, plan, k, **params):
        defaults = dict(
            danger_threshold=1,
            nearly_full_threshold=1,
            block_distance=1,
            reserve_missing=1,
            multiplicity=4,
        )
        defaults.update(params)
        bob = MultiplicityBob(plan, StrategyParams(**defaults))
        bob.reset(graph, k, RuleVariant.STANDARD)
        return bob

    def test_first_move_fresh_designated_colour(self):
        g = make_named("star", 4)
        plan = bob_even_setup(g, l=1, k=2, num_colors=2)
        # danger_threshold above the class size keeps the block-kill scan
        # out of play so the fresh-board move is the plain priority-5 one
        bob = self._bob(g, plan, 2, danger_threshold=5)
        state = GameState(g, 2)
        v, c, prio = bob._round1_move(state)
        assert (v, c) == (1, 1)  # smallest class vertex, smallest colour
        assert prio == 5

    def test_kill_sequence_skips_a_member_with_no_legal_colour(self):
        # the leaves 1 and 2 show the whole palette to the centre, so the
        # kill colours only leaf 3, whose class already holds colour 1
        g = make_named("star", 3)
        plan = bob_even_setup(g, l=1, k=2, num_colors=2)
        bob = self._bob(g, plan, 2)
        state = GameState(g, 2)
        _observe_move(state, bob, (Player.ALICE, 1, 1))
        _observe_move(state, bob, (Player.BOB, 2, 2))
        assert bob._safe_kill_color(state, 0) is None
        assert list(bob._kill_moves(state, [0, 3])) == [(3, 1)]

    def test_end_stage_copies_alices_missing_colour(self):
        # star plus an isolated vertex; class = leaves 1..6
        g = Graph(8, [(0, i) for i in range(1, 7)])
        plan = bob_even_setup(g, l=1, k=3, num_colors=3)
        bob = self._bob(g, plan, 3, reserve_missing=3)
        state = GameState(g, 3)
        _observe_move(state, bob, (Player.ALICE, 1, 1))  # flips the end stage
        _observe_move(state, bob, (Player.BOB, 2, 2))
        _observe_move(state, bob, (Player.ALICE, 7, 3))  # Alice plays a missing colour
        assert bob.end_stage[0]
        v, c, prio = bob._round1_move(state)
        assert c == 3 and prio == 2
        assert plan.entries[0].vertices >> v & 1

    def test_multiplicity_forces_a_copy(self):
        # colour 1 placed C_l = 4 times outside while missing from its class
        g = Graph(11, [(0, i) for i in range(1, 7)])
        plan = bob_even_setup(g, l=1, k=3, num_colors=3)
        bob = self._bob(g, plan, 3, reserve_missing=0)
        state = GameState(g, 3)
        for i, v in enumerate((7, 8, 9, 10)):
            _observe_move(state, bob, (Player.ALICE if i % 2 == 0 else Player.BOB, v, 1))
        v, c, prio = bob._round1_move(state)
        assert c == 1 and prio == 1
        assert plan.entries[0].vertices >> v & 1

    def test_kill_scan_stops_at_the_m_set_limit(self):
        # after these three moves one class needs two members to be covered
        # within block_distance, so an m-set limit of 1 finds its kill only
        # for the other class
        g = gnp_generate(GnpSpec(60, 0.5, 3))
        plan = bob_even_setup(g, 2, 2, 12)
        kills = {}
        for m in (1, None):
            bob = self._bob(g, plan, 12, reserve_missing=0, block_set_size=m)
            state = GameState(g, 12)
            for player, v in ((Player.ALICE, 0), (Player.BOB, 1), (Player.ALICE, 59)):
                _observe_move(state, bob, (player, v, min(legal_colors(state, v))))
            bob._round1_move(state)
            kills[m] = bob.seen_kills
        assert len(kills[1]) == 1 and len(kills[None]) == 2
        assert kills[1] < kills[None]
        assert all(len(members) == 1 for members, _ in kills[1])

    def test_pinned_transcripts_over_plans(self):
        # 64 games on G(n, 1/2): plans over 1 to 3 ground vertices for
        # p = 1/2 and 1/3, against two Alices; the digest was recorded once
        # PriorityAlice opened each round on her lowest playable vertex
        digest = hashlib.sha256()
        for n in (40, 60):
            for gseed in (0, 1):
                g = gnp_generate(GnpSpec(n, 0.5, gseed))
                k = n // 3
                for l, k_inv in ((1, 2), (2, 2), (2, 3), (3, 2)):
                    plan = bob_even_setup(g, l, k_inv, k)
                    for m in (None, 3):
                        params = StrategyParams(danger_threshold=2, block_distance=2, reserve_missing=2, block_set_size=m)
                        for alice in (PriorityAlice(params), GreedyFirstFit()):
                            out = play_game(g, k, alice, MultiplicityBob(plan, params), max_rounds=3, seed=gseed)
                            digest.update(transcript_to_json(out.transcript).encode())
        assert digest.hexdigest() == MULTIPLICITY_BOB_PLANS_SHA256

    def test_round2_claims_a_saturated_ground_vertex(self):
        g = make_named("star", 2)
        plan = bob_even_setup(g, l=1, k=2, num_colors=2)
        bob = self._bob(g, plan, 2)
        state = GameState(g, 2)
        for mv in [(Player.ALICE, 1, 1), (Player.BOB, 2, 1), (Player.ALICE, 0, 2)]:
            _observe_move(state, bob, mv)
        assert state.round == 2
        assert bob.select(state) == (0, None)



def test_no_claim_after_round2():
    """Both Bobs claim a vertex seeing the whole palette in round 2 only;
    from round 3 on they play greedy first fit."""
    # vertex 1 with neighbours 2 and 3; 0 and 4 are isolated.  n = 5 is odd,
    # so Alice opens round 3.  Round 2 recolours 1, then refills N[1].
    g = Graph(5, [(1, 2), (1, 3)])
    state = GameState(g, 3)
    for v, c in [(0, 1), (1, 1), (2, 2), (3, 3), (4, 1)] + [(2, 3), (1, 2), (3, 1), (0, 2), (4, 2)] + [(4, 1)]:
        apply_move(state, v, c)
    assert state.round == 3 and state.to_move is Player.BOB
    # 1 is unplayed and sees the whole palette, yet 0 comes first
    assert not state.is_played(1) and _colour_mask(state, 1) == state.palette
    params = StrategyParams(reserve_missing=3)
    plan = TargetPlan(ground_set=(0, 1), entries=())
    for bob in (TargetBob(params, target=1), MultiplicityBob(plan, params)):
        bob.reset(g, 3, RuleVariant.STANDARD)
        assert bob.select(state) == first_fit(state) == (0, 1), bob.name


def test_priority_strategies_always_keep_their_audit_log():
    """Both strategies of a seed-0 alice-defence game, built as a run builds
    them, log one (round, move index, tier) entry per priority-chosen move:
    every Alice move, and every Bob move of round 1."""
    config = ExperimentConfig.from_file(str(CONFIGS / "alice-defence.json"))
    k = config.k_range[0]
    graph = trial_graph(config, 0)
    alice, bob = build_strategy(config.alice, graph, k), build_strategy(config.bob, graph, k)
    out = play_game(graph, k, alice, bob, max_rounds=config.max_rounds, seed=derive_seed(config.master_seed, 0, k))
    alice_moves = [(r.round, r.idx) for r in out.transcript if r.player is Player.ALICE]
    bob_round1 = [(r.round, r.idx) for r in out.transcript if r.player is Player.BOB and r.round == 1]
    assert [entry[:2] for entry in alice.audit_log] == alice_moves
    assert [entry[:2] for entry in bob.audit_log] == bob_round1
    assert len(alice_moves) > len(bob_round1) > 0
