"""Priority strategies: danger tracking, mirrors, Alice, both Bobs, baselines."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from eternal_coloring.engine import (
    GameState,
    Player,
    RuleVariant,
    apply_move,
    legal_colors,
    play_game,
)
from eternal_coloring.graph import GnpSpec, Graph, gnp_generate, iter_bits, make_named, mask_of
from eternal_coloring.solver import solve_eternal
from eternal_coloring.strategies import (
    GreedyFirstFit,
    PriorityAlice,
    MultiplicityBob,
    TargetBob,
    PlanSetupError,
    RandomLegal,
    RoundBook,
    StrategyParams,
    _BlockObligation,
    bob_even_setup,
    dangerous_vertices,
    double_block_distance,
    record_round_move,
)


def _observe_move(state, *strategies_then_move):
    """Apply (v, c) to state and feed the move record to each strategy."""
    from eternal_coloring.engine import MoveRecord

    *strategies, (player, v, c) = strategies_then_move
    rec = MoveRecord(state.round, state.played_count, player, v, c)
    apply_move(state, v, c)
    for s in strategies:
        s.observe(state, rec)


class TestStrategyParams:
    def test_thresholds_must_be_positive(self):
        with pytest.raises(ValueError):
            StrategyParams(danger_threshold=0)

    def test_from_fractions_resolves_by_ceiling(self):
        p = StrategyParams.from_fractions(101, epsilon=5.0, beta=0.02, delta=0.05, K=2)
        assert p.danger_threshold == 6  # ceil(5/100 * 101)
        assert p.nearly_full_threshold == 3  # ceil(0.02 * 101)
        assert p.small_color_cutoff == 3  # ceil(5/200 * 101)
        assert p.block_distance == 6  # ceil(0.05 * 101)
        assert p.reserve_missing == 20


class TestDangerousVertices:
    def test_empty_round_has_no_danger(self):
        g = make_named("star", 9)
        book = RoundBook(round=1, n=g.n)
        assert dangerous_vertices(book, g, 2) == set()

    def test_two_bob_leaves_endanger_only_the_centre(self):
        g = make_named("star", 9)
        book = RoundBook(round=1, n=g.n)
        record_round_move(book, g, Player.BOB, 1, threshold=2)
        record_round_move(book, g, Player.BOB, 2, threshold=2)
        # each leaf's closed nbhd got one Bob play; the centre's got two
        assert dangerous_vertices(book, g, 2) == {0}
        assert set(iter_bits(book.danger_mask)) == {0}

    def test_single_bob_move_threshold_one_endangers_closed_nbhd(self):
        g = make_named("path", 5)
        book = RoundBook(round=1, n=g.n)
        record_round_move(book, g, Player.BOB, 2, threshold=1)
        assert dangerous_vertices(book, g, 1) == {1, 2, 3}

    def test_danger_is_sticky_within_round(self):
        g = make_named("star", 9)
        book = RoundBook(round=1, n=g.n)
        record_round_move(book, g, Player.BOB, 1, threshold=2)
        record_round_move(book, g, Player.BOB, 2, threshold=2)
        # Alice compensating afterwards does not un-danger the centre
        record_round_move(book, g, Player.ALICE, 3, threshold=2)
        record_round_move(book, g, Player.ALICE, 4, threshold=2)
        assert dangerous_vertices(book, g, 2) == {0}

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 10),
        p=st.floats(0.1, 0.9),
        gseed=st.integers(0, 10**6),
        mseed=st.integers(0, 10**6),
        threshold=st.integers(1, 3),
    )
    def test_incremental_matches_recompute_and_grows(self, n, p, gseed, mseed, threshold):
        g = gnp_generate(GnpSpec(n, p, gseed))
        rng = random.Random(mseed)
        book = RoundBook(round=1, n=n)
        order = rng.sample(range(n), n)
        previous: set[int] = set()
        for v in order:
            player = Player.BOB if rng.random() < 0.5 else Player.ALICE
            record_round_move(book, g, player, v, threshold)
            recomputed = dangerous_vertices(book, g, threshold)
            assert recomputed == set(iter_bits(book.danger_mask))
            assert previous <= recomputed  # monotone within the round
            previous = recomputed


def _exact_mirror(graph, w, danger, moves=()):
    """PriorityAlice._exact_mirror of w against the danger set, after moves."""
    alice = PriorityAlice(StrategyParams())
    alice.reset(graph, graph.n + 1, RuleVariant.STANDARD)
    alice.book.danger_mask = mask_of(danger)
    state = GameState(graph, graph.n + 1)
    for v, c in moves:
        apply_move(state, v, c)
    return alice._exact_mirror(state, w), state


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
        moves = [(w, 1)] + [(v, 2 + v) for v in range(n) if v != w and rng.random() < 0.3]
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
            small_color_cutoff=1,
            block_distance=1,
        )
        defaults.update(params)
        alice = PriorityAlice(StrategyParams(**defaults), audit=True)
        alice.reset(graph, k, RuleVariant.STANDARD)
        return alice

    def test_first_move_is_lowest_vertex_smallest_colour(self):
        g = make_named("star", 9)
        alice = self._alice(g, 3)
        state = GameState(g, 3)
        assert alice.select(state) == (0, 1)
        assert alice.audit_log[-1][2] == 3  # the fallback priority

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
        assert state.seen[0] == state.palette  # centre already sees everything
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
        params = StrategyParams.from_fractions(11, beta=0.3)
        alice = PriorityAlice(params, audit=True)
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
            small_color_cutoff=1,
            block_distance=1,
            reserve_missing=3,
        )
        defaults.update(params)
        bob = TargetBob(StrategyParams(**defaults), target=target, audit=True)
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

    def test_once_outside_colours_enter_fifo(self):
        g = Graph(7, [(0, 1), (0, 2)])
        bob = self._bob(g, 6, reserve_missing=99)
        state = GameState(g, 6)
        _observe_move(state, bob, (Player.ALICE, 3, 4))  # colour 4 first
        _observe_move(state, bob, (Player.BOB, 4, 2))  # colour 2 second
        v, c = bob.select(state)
        assert c == 4  # FIFO by introduction time, not colour index
        assert bob.audit_log[-1][2] == 3

    def test_blocking_sequence_opens_with_a_fresh_colour(self):
        # vertices 5,6 jointly dominate the uncoloured target nbhd {0..4}
        g = Graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 0), (5, 1), (5, 2), (6, 3), (6, 4)])
        bob = self._bob(g, 9, reserve_missing=3, block_distance=1)
        bob.pending.append(_BlockObligation(5, 6))
        bob.seen_pairs.add(frozenset((5, 6)))
        state = GameState(g, 9)
        v, c, prio = bob._round1_move(state)
        assert (v, c) == (5, 1)  # colour a with the smallest unused colour
        assert prio == 2

    def test_round2_claims_a_saturated_target(self):
        g = make_named("star", 2)
        bob = self._bob(g, 2)
        state = GameState(g, 2)
        for mv in [(Player.ALICE, 1, 1), (Player.BOB, 2, 1), (Player.ALICE, 0, 2)]:
            _observe_move(state, bob, mv)
        assert state.round == 2
        assert state.seen[0] == state.palette
        v, c = bob.select(state)
        assert v == 0 and c is None  # claim the stuck target

    def test_round2_without_a_win_falls_back_to_greedy(self):
        g = make_named("star", 2)
        bob = self._bob(g, 3)
        state = GameState(g, 3)
        for mv in [(Player.ALICE, 1, 1), (Player.BOB, 2, 1), (Player.ALICE, 0, 2)]:
            _observe_move(state, bob, mv)
        assert state.k - state.seen[0].bit_count() == 1
        assert bob.select(state) == GreedyFirstFit().select(state)

    def test_beats_greedy_alice_where_solver_says_bob_wins(self):
        # exact-solver-confirmed Bob wins; the priority strategy realizes them
        for kind, size, k in [("star", 4, 3), ("path", 5, 3), ("cycle", 5, 3)]:
            g = make_named(kind, size)
            assert solve_eternal(g, k).winner is Player.BOB
            bob = TargetBob(StrategyParams(), target=0)
            out = play_game(g, k, GreedyFirstFit(), bob, max_rounds=10)
            assert out.winner is Player.BOB, (kind, size, k)


class TestDoubleBlockDistance:
    def test_fully_coloured_target_neighbourhood(self):
        g = Graph(6, [(0, 1), (0, 2), (0, 3)])
        state = GameState(g, 4)
        for v, c in [(0, 1), (1, 2), (2, 3), (3, 4)]:
            apply_move(state, v, c)
        assert double_block_distance(state, (4, 5), 0) == 0

    def test_covering_pair_is_a_live_threat(self):
        g = Graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 0), (5, 1), (5, 2), (6, 3), (6, 4)])
        state = GameState(g, 4)
        assert double_block_distance(state, (5, 6), 0) == 0

    def test_pair_covering_all_but_one(self):
        # N(target) = {0,1,2,3} uncoloured; the pair reaches {1,2} and {3}
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (4, 1), (4, 2), (5, 3)])
        state = GameState(g, 4)
        assert double_block_distance(state, (4, 5), 0) == 1

    def test_neutralized_pair_returns_none(self):
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (4, 1), (4, 2), (5, 3)])
        state = GameState(g, 4)
        apply_move(state, 3, 1)  # colour 1 now inside N(target)
        apply_move(state, 4, 1)  # a carries an inside colour: threat dead
        assert double_block_distance(state, (4, 5), 0) is None


class TestBobEvenSetup:
    def test_single_ground_vertex_degenerates_to_inside_outside(self):
        g = make_named("star", 4)
        plan = bob_even_setup(g, l=1, k=2, num_colors=5)
        assert plan.ground_set == (0,)
        assert len(plan.entries) == 1
        entry = plan.entries[0]
        assert entry.subset == frozenset({0})
        assert set(iter_bits(entry.vertices)) == {1, 2, 3, 4}
        assert entry.colors == frozenset(range(1, 6))

    def test_l2_empty_trace_class_gets_no_colours(self):
        g = gnp_generate(GnpSpec(30, 0.5, 6))
        plan = bob_even_setup(g, l=2, k=2, num_colors=8)
        assert all(e.subset != frozenset() for e in plan.entries)

    def test_coverage_every_ground_vertex_sees_full_palette(self):
        g = gnp_generate(GnpSpec(40, 0.5, 12))
        for l, k, num_colors in [(1, 2, 10), (2, 2, 10), (2, 3, 12), (3, 3, 12)]:
            plan = bob_even_setup(g, l, k, num_colors)
            for x in plan.ground_set:
                union = set()
                for e in plan.entries:
                    if x in e.subset:
                        union |= e.colors
                assert union == set(range(1, num_colors + 1)), (l, k, num_colors)

    def test_entries_have_disjoint_vertex_sets(self):
        g = gnp_generate(GnpSpec(40, 0.5, 12))
        plan = bob_even_setup(g, 2, 2, 10)
        used = 0
        for e in plan.entries:
            assert e.vertices & used == 0
            used |= e.vertices

    def test_empty_needed_class_is_a_setup_failure(self):
        with pytest.raises(PlanSetupError):
            bob_even_setup(make_named("empty", 5), l=2, k=2, num_colors=4)


class TestMultiplicityBob:
    def _bob(self, graph, plan, k, **params):
        defaults = dict(
            danger_threshold=1,
            nearly_full_threshold=1,
            small_color_cutoff=1,
            block_distance=1,
            reserve_missing=1,
            multiplicity=4,
        )
        defaults.update(params)
        bob = MultiplicityBob(plan, StrategyParams(**defaults), audit=True)
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

    def test_round2_claims_a_saturated_ground_vertex(self):
        g = make_named("star", 2)
        plan = bob_even_setup(g, l=1, k=2, num_colors=2)
        bob = self._bob(g, plan, 2)
        state = GameState(g, 2)
        for mv in [(Player.ALICE, 1, 1), (Player.BOB, 2, 1), (Player.ALICE, 0, 2)]:
            _observe_move(state, bob, mv)
        assert state.round == 2
        assert bob.select(state) == (0, None)
