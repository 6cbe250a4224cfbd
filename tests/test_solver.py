"""Exact solver: attractor computation, chromatic scans, witnesses, one-round game."""

import gc
import hashlib
import tracemalloc
from collections import deque
from functools import lru_cache
from itertools import product

import pytest

from eternal_coloring.engine import GameState, Player, RuleVariant, _place, apply_move, legal_mask, play_game
from eternal_coloring.graph import Graph, GnpSpec, gnp_generate, iter_bits, make_named
from eternal_coloring.solver import (
    SolverInfeasible,
    _pack,
    attractor_is_fixed_point,
    eternal_game_chromatic_number,
    solve_eternal,
)
from eternal_coloring.strategies import GreedyFirstFit, RandomLegal

ALICE, BOB = 0, 1


def _canonical_colors(colors: tuple) -> tuple:
    mapping = {0: 0}
    out = []
    for c in colors:
        if c not in mapping:
            mapping[c] = len(mapping)
        out.append(mapping[c])
    return tuple(out)


def _reference_solve(graph, k, variant, color_symmetry=False):
    """The tuple-keyed explorer plus attractor that solve_eternal replaced.

    States are (colour tuple, played mask, mover, phase); each state's moves
    are ((v, c), target id), with (v, None) and target -1 for a stuck vertex.
    Returns (winner, states, moves, in_attr, rank), indexed by state id.
    """
    n, full = graph.n, graph.full_mask
    palette = ((1 << k) - 1) << 1
    canon = _canonical_colors if color_symmetry else (lambda t: t)
    initial = (canon((0,) * n), 0, ALICE, 0)
    index, states, moves = {initial: 0}, [initial], [None]
    frontier = [0]
    while frontier:
        next_frontier = []
        for sid in frontier:
            colors, played, mover, phase = states[sid]
            greedy = variant is RuleVariant.GREEDY_BOTH or (variant is RuleVariant.GREEDY_BOB and mover == BOB)
            mlist = []
            for v in iter_bits(~played & full):
                seen = 0
                for u in iter_bits(graph.closed[v]):
                    seen |= 1 << colors[u]
                legal = legal_mask(seen, palette, greedy)
                if not legal:
                    mlist.append(((v, None), -1))
                    continue
                for c in iter_bits(legal):
                    new_colors = list(colors)
                    new_colors[v] = c
                    new_played, new_phase = played | (1 << v), phase
                    if new_played == full:
                        new_played, new_phase = 0, 1
                    key = (canon(tuple(new_colors)), new_played, 1 - mover, new_phase)
                    tid = index.get(key)
                    if tid is None:
                        tid = index[key] = len(states)
                        states.append(key)
                        moves.append(None)
                        next_frontier.append(tid)
                    mlist.append(((v, c), tid))
            moves[sid] = mlist
        frontier = next_frontier

    num = len(states)
    preds = [[] for _ in range(num)]
    bobwin_preds = []
    for sid in range(num):
        for _, tid in moves[sid]:
            (bobwin_preds if tid == -1 else preds[tid]).append(sid)
    in_attr, rank = [False] * num, [None] * num
    remaining = [len(m) for m in moves]
    queue = deque()
    for sid in bobwin_preds:
        if states[sid][2] == ALICE:
            remaining[sid] -= 1
        if not in_attr[sid] and (states[sid][2] == BOB or remaining[sid] == 0):
            in_attr[sid], rank[sid] = True, 1
            queue.append(sid)
    while queue:
        tid = queue.popleft()
        for sid in preds[tid]:
            if in_attr[sid]:
                continue
            if states[sid][2] == ALICE:
                remaining[sid] -= 1
                if remaining[sid]:
                    continue
            in_attr[sid], rank[sid] = True, rank[tid] + 1
            queue.append(sid)
    winner = Player.BOB if in_attr[0] else Player.ALICE
    return winner, states, moves, in_attr, rank


def _decoded(res):
    """solve_eternal's tables in the reference's terms, from the layout in
    the solver's module docstring."""
    n, width = res.graph.n, res.k.bit_length()
    base, tshift = width * n, width + n.bit_length()
    states = []
    for key in res._states:
        colors = tuple(key >> width * v & (1 << width) - 1 for v in range(n))
        played, mover, phase = key >> base & res.graph.full_mask, key >> base + n & 1, key >> base + n + 1 & 1
        assert key >> base + n + 2 == 0
        assert _pack(colors, played, mover, phase, res.k) == key
        states.append((colors, played, mover, phase))
    moves = []
    for sid in range(len(states)):
        row = []
        for mv in res._moves[res._start[sid]:res._start[sid + 1]]:
            v, c = mv >> width & (1 << tshift - width) - 1, mv & (1 << width) - 1
            row.append(((v, c or None), (mv >> tshift) - 1))
        moves.append(row)
    return states, moves, [r is not None for r in res._rank[1:]], res._rank[1:]


_LOCKSTEP_GRAPHS = (
    [make_named("star", s) for s in range(1, 6)]
    + [make_named("path", s) for s in range(2, 6)]
    + [make_named("cycle", s) for s in range(3, 6)]
    + [make_named("complete", 3), make_named("empty", 2)]
    + [gnp_generate(GnpSpec(5, 0.5, 7)), gnp_generate(GnpSpec(6, 0.5, 11))]
)
_LOCKSTEP_RULES = [(variant, False) for variant in RuleVariant] + [(RuleVariant.STANDARD, True)]


@lru_cache(maxsize=None)
def _first_appearance_colourings(n, k) -> tuple:
    """(colourings of n vertices by 0..k, by 1..k), each counted once per
    renaming: those whose colours first appear in the order 1, 2, ..."""
    first = sum(_canonical_colors(c) == c for c in product(range(k + 1), repeat=n))
    later = sum(_canonical_colors(c) == c for c in product(range(1, k + 1), repeat=n))
    return first, later


def _state_bound(n, k, symmetric) -> int:
    """solve_eternal's up-front bound, from its docstring's formula."""
    first, later = _first_appearance_colourings(n, k) if symmetric else ((k + 1) ** n, k**n)
    return first + later * 2**n * (1 + n % 2)


@lru_cache(maxsize=None)
def _default_solve(graph, k):
    """solve_eternal(graph, k), solved once per session and shared by the
    tests that need it: a SolveResult is read-only once built."""
    return solve_eternal(graph, k)


class TestLockstepOracle:
    @pytest.mark.parametrize("variant, symmetric", _LOCKSTEP_RULES, ids=lambda r: getattr(r, "value", r))
    def test_tables_match_the_tuple_keyed_reference(self, variant, symmetric):
        for graph in _LOCKSTEP_GRAPHS:
            alice_won = False
            for k in range(1, 5):
                where = (graph.n, sorted(graph.edges()), k, variant, symmetric)
                if (variant, symmetric) == (RuleVariant.STANDARD, False):
                    res = _default_solve(graph, k)
                else:
                    res = solve_eternal(graph, k, variant, color_symmetry=symmetric)
                winner, states, moves, in_attr, rank = _reference_solve(graph, k, variant, symmetric)
                assert res.winner is winner and res.states_explored == len(states), where
                assert _decoded(res) == (states, moves, in_attr, rank), where
                assert res._rank[0] == 0, where
                # the up-front bound is the solver's only refusal, so it must hold every reachable position
                assert res.states_explored <= _state_bound(graph.n, k, symmetric), where
                # a scan stops at the first Alice win: a larger palette must not hand the game back to Bob
                assert not (alice_won and res.winner is Player.BOB), where
                alice_won = res.winner is Player.ALICE
                lookup = res._index
                assert len(lookup) == res.states_explored, where
                assert all(lookup[key] == sid for sid, key in enumerate(res._states)), where

    @pytest.mark.parametrize(
        "size, k, variant, symmetric, states, digests",
        [
            (8, 3, RuleVariant.GREEDY_BOTH, False, 6897, (
                "9113cd07579e358f9eda9184748278bc653d00a496cdad9d3bbc9e05c3d5b842",
                "6aa5c45638b7490b6fa261e13f2211e607adba5c684580fcb1d889565529a0e4",
                "c5afc74ff023e746f99e225e0ceaa21d8f32ae6398a94205ad5fe41a8f5e9e8e",
                "416f845dba548b89ed31225ca210b5c296b30da01523a58c7d360f9f4925dee1",
            )),
            (6, 4, RuleVariant.STANDARD, True, 28656, (
                "a272c8f43eb05b296eff3cb8206f7fb1500a699f538bbc5ceeeed9117a5737a2",
                "08eeeb8f868550c40305b054074619208e4509ab718a40635465c94edf1a98d7",
                "95f2d44545c02ef5c1e0423a037cbf3ae5ca4c74874bfc7b9f14fb3c3aca6912",
                "1b9913382e30b0323bdcbebbf436321a3990f311785fbbe334ac93cd050ba217",
            )),
        ],
    )
    def test_tables_match_their_pinned_digests(self, size, k, variant, symmetric, states, digests):
        # stars too large for the reference
        res = solve_eternal(make_named("star", size), k, variant, color_symmetry=symmetric)
        assert res.states_explored == states
        assert _table_digests(res) == digests

    @pytest.mark.parametrize(
        "kind, size, k, variant, states, digests",
        [
            ("cycle", 8, 3, RuleVariant.GREEDY_BOB, 31613, (
                "3f8e94826f1e74c05e53e9e96c9c383e1aac595cfd11472adebbf8f528de07fc",
                "80d4f54d97d8904cd7fc9eea62feb346f3ec966db9ce10d75f777c78dd10a1b1",
                "eb0729811b2f26b23eb57a28eb84f6d8407a898a59d72d514705a6a9283573f6",
                "ee936b5768ef5ebce4ca24e8f51b42a1623556a3c2690709dc7010d1a44cc889",
            )),
            ("path", 9, 2, RuleVariant.STANDARD, 3363, (
                "77c9905e4858a147501fba40339ec33e726ffb001b250664107255ea22983e27",
                "3e2d1a625c55798fce4ebcd46ef98c35627536504226853280c9d82ad6bff88d",
                "f65485d0d23b111a3e891286ccb3cf1d659e89a3fe59b1a2cef6c13b7ae00dff",
                "955c527ac9e43972a3c6d0daf767a3fc07e13b7227a663c491faad2b9e255093",
            )),
        ],
    )
    def test_sparse_tables_match_their_pinned_digests(self, kind, size, k, variant, states, digests):
        # twin-free graphs, where nearly every position has a colouring of its own
        res = solve_eternal(make_named(kind, size), k, variant)
        assert res.states_explored == states
        assert _table_digests(res) == digests


def _table_digests(res) -> tuple:
    """SHA-256 of each table's repr, in the order _states, _moves, _start, _rank."""
    tables = (res._states, res._moves, res._start, res._rank)
    return tuple(hashlib.sha256(repr(list(t)).encode()).hexdigest() for t in tables)


class TestSolveEternal:
    def test_single_vertex_one_colour_bob(self):
        assert solve_eternal(make_named("empty", 1), 1).winner is Player.BOB

    def test_single_vertex_two_colours_alice(self):
        assert solve_eternal(make_named("empty", 1), 2).winner is Player.ALICE

    def test_star5_greedy_both_threshold_at_three(self):
        g = make_named("star", 5)
        assert solve_eternal(g, 3, RuleVariant.GREEDY_BOTH).winner is Player.ALICE
        assert solve_eternal(g, 2, RuleVariant.GREEDY_BOTH).winner is Player.BOB

    def test_state_cap_refusal(self):
        with pytest.raises(SolverInfeasible):
            solve_eternal(make_named("path", 6), 4, state_cap=1000)

    def test_feasibility_bound_bounds_the_reachable_set(self):
        # 2.7e8 under the old (k+1)^n 2^n 2 estimate, yet 6,897 reachable states
        res = solve_eternal(make_named("star", 8), 3, RuleVariant.GREEDY_BOTH)
        assert res.winner is Player.BOB and res.states_explored == 6897
        # a cap equal to the bound admits the solve, and one below refuses it
        for graph, k in [(make_named("path", 1), 1), (make_named("star", 3), 3), (make_named("cycle", 4), 2)]:
            n = graph.n
            bound = _state_bound(n, k, False)
            for variant in RuleVariant:
                assert solve_eternal(graph, k, variant, state_cap=bound).states_explored <= bound
            with pytest.raises(SolverInfeasible):
                solve_eternal(graph, k, state_cap=bound - 1)
            # colour symmetry: the same count over colourings numbered by first appearance
            bound = _state_bound(n, k, True)
            assert solve_eternal(graph, k, color_symmetry=True, state_cap=bound).states_explored <= bound
            with pytest.raises(SolverInfeasible):
                solve_eternal(graph, k, color_symmetry=True, state_cap=bound - 1)

    def test_color_symmetric_bound_admits_complete_7(self):
        # the plain bound, 2.1e8, refuses it at the default cap; 4,140 + 877 * 2^7 * 2 does not
        res = solve_eternal(make_named("complete", 7), 7, color_symmetry=True)
        assert res.winner is Player.BOB and res.states_explored == 128
        with pytest.raises(SolverInfeasible):
            solve_eternal(make_named("complete", 7), 7)

    def test_keys_wider_than_63_bits_are_kept(self):
        # 7-bit colours: 8 * 7 + 8 + 2 = 66-bit keys, too wide for array("q")
        res = solve_eternal(make_named("complete", 8), 64, color_symmetry=True)
        assert res.winner is Player.ALICE and res.states_explored == 510
        assert max(res._states).bit_length() > 63

    def test_attractor_is_a_fixed_point(self):
        # the Bob wins attract every state; the Alice wins leave states outside,
        # which the fixed-point check must re-test
        for kind, size, k, variant, outside in [
            ("star", 3, 2, RuleVariant.STANDARD, 0),
            ("star", 4, 3, RuleVariant.GREEDY_BOTH, 0),
            ("path", 4, 3, RuleVariant.STANDARD, 0),
            ("cycle", 4, 3, RuleVariant.GREEDY_BOB, 0),
            ("star", 5, 3, RuleVariant.GREEDY_BOTH, 321),
            ("star", 4, 4, RuleVariant.GREEDY_BOB, 12786),
        ]:
            res = solve_eternal(make_named(kind, size), k, variant)
            case = (kind, size, k, variant)
            assert sum(r is None for r in res._rank[1:]) == outside, case
            assert attractor_is_fixed_point(res), case

    def test_attractor_missing_a_node_is_not_a_fixed_point(self):
        res = solve_eternal(make_named("star", 3), 2)
        first = next(i for i in range(1, len(res._rank)) if res._rank[i] is not None)
        res._rank[first] = None  # one step re-attracts it
        assert not attractor_is_fixed_point(res)

    def test_retained_bytes_per_state(self):
        # 49.9 B a state retained and 186.6 at the solve's peak, with the
        # positions in an array("q") (208.4 at the peak with one template row
        # per colouring); 82.0 and 222.2 in a list of ints, with those rows.
        # Keeping the position index retained 149.0; filling the predecessor
        # table through a second offsets list peaked at 256.6, and both at 341.9
        res, retained, peak = _bytes_per_state(make_named("star", 3), 4, RuleVariant.GREEDY_BOB)
        assert res.states_explored == 1684
        assert "_index" not in vars(res)  # the position lookup waits for a witness's first move
        assert retained < 115
        assert peak < 240

    def test_peak_bytes_per_state_on_a_path(self):
        # a twin-free graph, where nearly every position brings a new
        # colouring: one template row per colouring peaked at 364.0 B a
        # state, the per-vertex templates keyed by N[v]'s colours at 213.5
        res, _, peak = _bytes_per_state(make_named("path", 9), 2, RuleVariant.STANDARD)
        assert res.states_explored == 3363
        assert peak < 240

    def test_color_symmetry_preserves_winner(self):
        for kind, size, k in [("star", 3, 2), ("star", 3, 3), ("path", 3, 2), ("path", 4, 3)]:
            plain = solve_eternal(make_named(kind, size), k)
            reduced = solve_eternal(make_named(kind, size), k, color_symmetry=True)
            assert plain.winner is reduced.winner, (kind, size, k)
            assert reduced.states_explored <= plain.states_explored

    def test_color_symmetry_rejected_for_greedy_variants(self):
        with pytest.raises(ValueError):
            solve_eternal(make_named("path", 3), 2, RuleVariant.GREEDY_BOB, color_symmetry=True)

    def test_palette_below_one_rejected(self):
        # the engine's own message: no solve may yield a witness it cannot replay
        for k in (0, -1):
            with pytest.raises(ValueError, match="^k must be >= 1$"):
                solve_eternal(make_named("star", 2), k)
            with pytest.raises(ValueError, match="^k must be >= 1$"):
                GameState(make_named("star", 2), k)


def _bytes_per_state(graph, k, variant) -> tuple:
    """(result, bytes a state retained, bytes a state at the solve's peak),
    as tracemalloc counts them."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        res = solve_eternal(graph, k, variant)
        peak = tracemalloc.get_traced_memory()[1] - before
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return res, retained / res.states_explored, peak / res.states_explored


class TestChromaticScan:
    def test_single_vertex_standard(self):
        assert eternal_game_chromatic_number(make_named("empty", 1)).k_star == 2

    def test_star5_greedy_both(self):
        scan = eternal_game_chromatic_number(make_named("star", 5), RuleVariant.GREEDY_BOTH)
        assert scan.k_star == 3

    def test_star4_greedy_bob_exact_value(self):
        g = make_named("star", 4)
        scan = eternal_game_chromatic_number(g, RuleVariant.GREEDY_BOB)
        assert scan.k_star == 4
        # every k up to Delta + 2, past the scan's stop: Alice wins from k* on
        winners = {k: solve_eternal(g, k, RuleVariant.GREEDY_BOB).winner for k in range(1, g.max_degree() + 3)}
        assert scan.winners == {k: winners[k] for k in range(1, 5)}
        assert winners[3] is Player.BOB
        assert all(w is Player.ALICE for k, w in winners.items() if k >= 4)

    def test_variant_ordering_greedy_bob_at_most_greedy_both(self):
        for kind, size in [("star", 3), ("star", 4), ("path", 3), ("path", 4), ("cycle", 4)]:
            g = make_named(kind, size)
            k2 = eternal_game_chromatic_number(g, RuleVariant.GREEDY_BOB).k_star
            k3 = eternal_game_chromatic_number(g, RuleVariant.GREEDY_BOTH).k_star
            assert k2 <= k3, (kind, size)

    def test_scan_never_exceeds_max_degree_plus_two(self):
        for kind, size in [("star", 3), ("path", 4), ("cycle", 5), ("complete", 3)]:
            g = make_named(kind, size)
            scan = eternal_game_chromatic_number(g)
            assert scan.k_star is not None
            assert scan.k_star <= g.max_degree() + 2


class TestWitnesses:
    def test_bob_witness_realizes_win_against_baselines(self):
        g = make_named("star", 3)
        res = solve_eternal(g, 2)
        assert res.winner is Player.BOB
        for alice in [GreedyFirstFit(), RandomLegal(0), RandomLegal(1)]:
            out = play_game(g, 2, alice, res.witness_strategy(Player.BOB), max_rounds=60)
            assert out.winner is Player.BOB and out.fault is None

    def test_alice_witness_survives_50_rounds(self):
        g = make_named("star", 5)
        res = solve_eternal(g, 3, RuleVariant.GREEDY_BOTH)
        assert res.winner is Player.ALICE
        witness = res.witness_strategy(Player.ALICE)
        for bob in [GreedyFirstFit(), RandomLegal(0), RandomLegal(1)]:
            out = play_game(g, 3, witness, bob, RuleVariant.GREEDY_BOTH, max_rounds=50)
            assert out.winner is Player.ALICE and out.rounds_completed == 50

    def test_witness_requires_the_winning_side(self):
        res = solve_eternal(make_named("empty", 1), 2)
        with pytest.raises(ValueError):
            res.witness_strategy(Player.BOB)

    def test_witness_refuses_a_colour_symmetric_solve(self):
        res = solve_eternal(make_named("star", 3), 2, color_symmetry=True)
        with pytest.raises(ValueError, match="colour-symmetry"):
            res.witness_strategy(res.winner)

    def test_witness_refuses_a_position_outside_its_table(self):
        # the centre and leaf 1 both coloured 1: an improper colouring, which no game reaches
        g = make_named("star", 3)
        res = solve_eternal(g, 2)
        witness = res.witness_strategy(res.winner)
        witness.reset(g, 2, RuleVariant.STANDARD)
        state = GameState(g, 2)
        _place(state, 0, 1)
        _place(state, 1, 1)
        with pytest.raises(RuntimeError, match="position not in solved table"):
            witness.select(state)

    @pytest.mark.parametrize(
        "kind, size, k, winner, moves, refusal",
        [
            # star:3, k = 3 is Bob's, but once Alice opens round 2 by
            # recolouring the centre 3, no move of his reaches his attractor
            ("star", 3, 3, Player.BOB, [(0, 1), (1, 2), (2, 2), (3, 2), (0, 3)], "outside his winning region"),
            # path:3, k = 3 is Alice's, but once Bob opens round 2 by
            # recolouring an end 3, every move of hers is in his attractor
            ("path", 3, 3, Player.ALICE, [(0, 1), (1, 2), (2, 3), (0, 3)], "inside Bob's attractor"),
        ],
    )
    def test_witness_refuses_a_position_its_side_has_lost(self, kind, size, k, winner, moves, refusal):
        g = make_named(kind, size)
        res = solve_eternal(g, k)
        assert res.winner is winner
        witness = res.witness_strategy(winner)
        witness.reset(g, k, RuleVariant.STANDARD)
        state = GameState(g, k)
        for v, c in moves:
            apply_move(state, v, c)
        assert state.to_move is winner
        with pytest.raises(RuntimeError, match=refusal):
            witness.select(state)

    def test_witnesses_share_one_position_lookup_built_on_demand(self):
        g = make_named("star", 3)
        res = solve_eternal(g, 2)
        first, second = res.witness_strategy(Player.BOB), res.witness_strategy(Player.BOB)
        # a witness keeps its result and side, and making one builds nothing
        assert vars(first) == vars(second) == {"result": res, "player": Player.BOB}
        assert "_index" not in vars(res)
        assert play_game(g, 2, GreedyFirstFit(), first, max_rounds=60).winner is Player.BOB
        lookup = vars(res)["_index"]
        assert len(lookup) == res.states_explored
        for alice in [RandomLegal(0), RandomLegal(1)]:
            for witness in (first, second):
                assert play_game(g, 2, alice, witness, max_rounds=60).winner is Player.BOB
        assert vars(res)["_index"] is lookup  # built once, read by both witnesses
        assert vars(first) == vars(second) == {"result": res, "player": Player.BOB}

    def test_witness_bound_to_its_instance(self):
        res = solve_eternal(make_named("empty", 1), 2)
        w = res.witness_strategy(Player.ALICE)
        with pytest.raises(ValueError):
            w.reset(make_named("empty", 2), 2, RuleVariant.STANDARD)


def solve_one_round(graph, k, state_cap=10**8):
    """Classic (single-round) colouring game by plain minimax.

    Alice wins iff every vertex ends up coloured.  In round 1 the coloured
    set IS the played set and the mover is determined by its parity, so the
    colour vector alone keys the memo.
    """
    n = graph.n
    if (k + 1) ** n * 2 > state_cap:
        raise SolverInfeasible("one-round state space exceeds cap")
    palette = ((1 << k) - 1) << 1
    full = graph.full_mask
    memo: dict[tuple, bool] = {}

    def alice_wins(colors: tuple, played: int) -> bool:
        if played == full:
            return True
        key = colors
        hit = memo.get(key)
        if hit is not None:
            return hit
        mover = ALICE if played.bit_count() % 2 == 0 else BOB
        result = None
        any_move = False
        for v in iter_bits(~played & full):
            seen = 0
            for u in iter_bits(graph.closed[v]):
                seen |= 1 << colors[u]
            legal = legal_mask(seen, palette, False)
            if not legal:
                if mover == BOB:
                    result = False
                    break
                continue
            for c in iter_bits(legal):
                any_move = True
                nc = list(colors)
                nc[v] = c
                sub = alice_wins(tuple(nc), played | (1 << v))
                if mover == ALICE and sub:
                    result = True
                    break
                if mover == BOB and not sub:
                    result = False
                    break
            if result is not None:
                break
        if result is None:
            if mover == ALICE:
                # no winning move; if she cannot move at all she is stuck
                result = False
            else:
                result = any_move  # Bob had only Alice-winning moves
        memo[key] = result
        return result

    return Player.ALICE if alice_wins(tuple([0] * n), 0) else Player.BOB


class TestOneRound:
    def test_empty_graph_one_colour(self):
        assert solve_one_round(make_named("empty", 3), 1) is Player.ALICE

    def test_clique_needs_exactly_n(self):
        g = make_named("complete", 4)
        assert solve_one_round(g, 4) is Player.ALICE
        assert solve_one_round(g, 3) is Player.BOB

    def test_path4_game_chromatic_number_three(self):
        g = make_named("path", 4)
        assert solve_one_round(g, 2) is Player.BOB
        assert solve_one_round(g, 3) is Player.ALICE

    def test_cap_refusal(self):
        with pytest.raises(SolverInfeasible):
            solve_one_round(make_named("path", 8), 5, state_cap=10)

    def test_one_round_bob_win_is_an_eternal_bob_win(self):
        # round 1 of the eternal game is the one-round game, so the classic
        # game chromatic number bounds the eternal one from below
        one_round_bob = eternal_only = 0
        for graph in _LOCKSTEP_GRAPHS:
            for k in range(1, 5):
                eternal = _default_solve(graph, k).winner
                if solve_one_round(graph, k) is Player.BOB:
                    assert eternal is Player.BOB, (graph.n, sorted(graph.edges()), k)
                    one_round_bob += 1
                elif eternal is Player.BOB:
                    eternal_only += 1
        assert (one_round_bob, eternal_only) == (23, 22)  # neither side of the bound is vacuous
