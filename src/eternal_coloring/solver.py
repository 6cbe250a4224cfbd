"""Exact solver for the eternal colouring game on tiny graphs.

The eternal game with a finite palette has a finite position space once the
absolute round number is dropped: the rules only distinguish the first round
(vertices start uncoloured, no recolour restriction) from all later rounds.
Alice wins iff she can keep the play inside the safe region forever, which in
a finite game graph means avoiding Bob's attractor to the set of positions
where a stuck vertex can be (or must be) chosen.

Position key: (colour tuple, played-this-round bitmask, mover, phase) with
phase 0 = first round, 1 = any later round.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .engine import GameState, Player, RuleVariant, Strategy, legal_mask
from .graph import Graph, iter_bits


class SolverInfeasible(RuntimeError):
    """State-space estimate above the cap; no approximation is attempted."""


ALICE, BOB = 0, 1

StateKey = tuple  # (colors tuple, played mask, mover, phase)


def _canonical_colors(colors: tuple) -> tuple:
    """Relabel colours by order of first appearance (colour-symmetric games only)."""
    mapping: dict[int, int] = {0: 0}
    nxt = 1
    out = []
    for c in colors:
        if c not in mapping:
            mapping[c] = nxt
            nxt += 1
        out.append(mapping[c])
    return tuple(out)


@dataclass
class SolveResult:
    winner: Player
    states_explored: int
    graph: Graph
    k: int
    variant: RuleVariant
    _index: dict
    _states: list
    _succ: list
    _attr: list
    _rank: list
    _moves: list  # per state: list of ((v, c) or (v, None) for stuck, succ_id)
    _canonical: bool = False

    def witness_strategy(self, player: Player) -> "WitnessStrategy":
        return WitnessStrategy(self, player)


def _legal_colors_mask(closed: tuple, colors: tuple, palette: int, greedy: bool) -> int:
    """Engine legality rule for an unplayed vertex whose closed neighbourhood
    is the vertex tuple `closed`, under the colour tuple `colors`."""
    seen = 0
    for u in closed:
        seen |= 1 << colors[u]  # bit 0 (uncoloured) lies outside the palette
    return legal_mask(seen, palette, greedy)


def _closed_tuples(graph: Graph) -> list:
    # built once per solve: the per-state loop walks tuples faster than bits
    return [tuple(iter_bits(m)) for m in graph.closed]


def solve_eternal(
    graph: Graph,
    k: int,
    variant: RuleVariant = RuleVariant.STANDARD,
    state_cap: int = 10**8,
    color_symmetry: bool = False,
) -> SolveResult:
    """Decide the winner by explicit reachable-state exploration + attractor.

    color_symmetry canonicalizes colour labels; it is only sound for the
    STANDARD variant (greedy rules depend on colour order) and is rejected
    otherwise.
    """
    n = graph.n
    estimate = (k + 1) ** n * (1 << n) * 2
    if estimate > state_cap:
        raise SolverInfeasible(f"estimated {estimate} states exceeds cap {state_cap}")
    if color_symmetry and variant is not RuleVariant.STANDARD:
        raise ValueError("colour-symmetry reduction is only sound for STANDARD rules")

    full = graph.full_mask
    closed = _closed_tuples(graph)
    palette = ((1 << k) - 1) << 1
    canon = _canonical_colors if color_symmetry else (lambda t: t)

    initial: StateKey = (canon(tuple([0] * n)), 0, ALICE, 0)
    index: dict[StateKey, int] = {initial: 0}
    states: list[StateKey] = [initial]
    succ: list[Optional[list]] = [None]
    moves: list[Optional[list]] = [None]
    # virtual Bob-win sink is id -1 handled via attractor seed; encode as None succ target
    BOBWIN = -1

    frontier = [0]
    while frontier:
        next_frontier = []
        for sid in frontier:
            colors, played, mover, phase = states[sid]
            greedy = variant is RuleVariant.GREEDY_BOTH or (
                variant is RuleVariant.GREEDY_BOB and mover == BOB
            )
            slist = []
            mlist = []
            unplayed = ~played & full
            for v in iter_bits(unplayed):
                legal = _legal_colors_mask(closed[v], colors, palette, greedy)
                if not legal:
                    slist.append(BOBWIN)
                    mlist.append(((v, None), BOBWIN))
                    continue
                for c in iter_bits(legal):
                    new_colors = list(colors)
                    new_colors[v] = c
                    new_played = played | (1 << v)
                    new_phase = phase
                    if new_played == full:
                        new_played = 0
                        new_phase = 1
                    key = (canon(tuple(new_colors)), new_played, 1 - mover, new_phase)
                    tid = index.get(key)
                    if tid is None:
                        tid = len(states)
                        index[key] = tid
                        states.append(key)
                        succ.append(None)
                        moves.append(None)
                        if len(states) > state_cap:
                            raise SolverInfeasible(f"reachable states exceed cap {state_cap}")
                        next_frontier.append(tid)
                    slist.append(tid)
                    mlist.append(((v, c), tid))
            succ[sid] = slist
            moves[sid] = mlist
        frontier = next_frontier

    num = len(states)
    # predecessor lists for the backward fixed point
    preds: list[list[int]] = [[] for _ in range(num)]
    bobwin_preds: list[int] = []
    out_count = [0] * num
    for sid in range(num):
        out_count[sid] = len(succ[sid])
        for tid in succ[sid]:
            if tid == BOBWIN:
                bobwin_preds.append(sid)
            else:
                preds[tid].append(sid)

    in_attr = [False] * num
    rank = [None] * num
    remaining = out_count[:]  # for Alice nodes: successors not yet attracted
    queue = deque()
    for sid in bobwin_preds:
        colors, played, mover, phase = states[sid]
        if mover == BOB:
            if not in_attr[sid]:
                in_attr[sid] = True
                rank[sid] = 1
                queue.append(sid)
        else:
            remaining[sid] -= 1
            if remaining[sid] == 0 and not in_attr[sid]:
                in_attr[sid] = True
                rank[sid] = 1
                queue.append(sid)
    while queue:
        tid = queue.popleft()
        for sid in preds[tid]:
            if in_attr[sid]:
                continue
            mover = states[sid][2]
            if mover == BOB:
                in_attr[sid] = True
                rank[sid] = rank[tid] + 1
                queue.append(sid)
            else:
                remaining[sid] -= 1
                if remaining[sid] == 0:
                    in_attr[sid] = True
                    rank[sid] = rank[tid] + 1
                    queue.append(sid)

    winner = Player.BOB if in_attr[0] else Player.ALICE
    return SolveResult(
        winner=winner,
        states_explored=num,
        graph=graph,
        k=k,
        variant=variant,
        _index=index,
        _states=states,
        _succ=succ,
        _attr=in_attr,
        _rank=rank,
        _moves=moves,
        _canonical=color_symmetry,
    )


def attractor_is_fixed_point(result: SolveResult) -> bool:
    """Re-apply one attractor step; a correct attractor gains nothing."""
    in_attr = result._attr
    for sid, mlist in enumerate(result._moves):
        mover = _state_mover(result, sid)
        targets_in = [tid == -1 or in_attr[tid] for _, tid in mlist]
        should = any(targets_in) if mover == BOB else all(targets_in)
        if should and not in_attr[sid]:
            return False
    return True


def _state_mover(result: SolveResult, sid: int) -> int:
    return result._states[sid][2]


class WitnessStrategy(Strategy):
    """Plays the solved table: Bob descends attractor ranks, Alice stays safe."""

    name = "witness"

    def __init__(self, result: SolveResult, player: Player):
        if result.winner is not player:
            raise ValueError(f"{player} does not win this instance; no witness")
        if result._canonical:
            raise ValueError("witness extraction needs a solve without colour-symmetry reduction")
        self.result = result
        self.player = player

    def reset(self, graph, k, variant, seed=None):
        if graph != self.result.graph or k != self.result.k or variant is not self.result.variant:
            raise ValueError("witness strategy bound to a different instance")

    def select(self, state: GameState):
        key = (
            tuple(state.colors),
            state.played,
            ALICE if state.to_move is Player.ALICE else BOB,
            0 if state.round == 1 else 1,
        )
        sid = self.result._index.get(key)
        if sid is None:
            raise RuntimeError("position not in solved table (unreachable under the rules?)")
        mlist = self.result._moves[sid]
        attr, rank = self.result._attr, self.result._rank
        if self.player is Player.BOB:
            best = None
            for (v, c), tid in mlist:
                r = 0 if tid == -1 else (rank[tid] if attr[tid] else None)
                if r is None:
                    continue
                if best is None or r < best[0]:
                    best = (r, v, c)
            if best is None:
                raise RuntimeError("Bob witness called outside his winning region")
            return best[1], best[2]
        for (v, c), tid in mlist:
            if tid != -1 and not attr[tid]:
                return v, c
        raise RuntimeError("Alice witness called inside Bob's attractor")


@dataclass
class ChromaticScan:
    k_star: Optional[int]
    winners: dict  # k -> Player
    monotone: bool
    scanned: list


def eternal_game_chromatic_number(
    graph: Graph,
    variant: RuleVariant = RuleVariant.STANDARD,
    state_cap: int = 10**8,
    full_scan: bool = False,
    color_symmetry: bool = False,
) -> ChromaticScan:
    """Smallest k with an Alice win; k = Delta + 2 always suffices.

    By default the scan stops at the first Alice win; full_scan continues to
    Delta + 2 and reports whether 'Alice wins' was monotone in k.
    """
    k_max = graph.max_degree() + 2
    winners: dict[int, Player] = {}
    k_star = None
    for k in range(1, k_max + 1):
        res = solve_eternal(graph, k, variant, state_cap=state_cap, color_symmetry=color_symmetry)
        winners[k] = res.winner
        if res.winner is Player.ALICE and k_star is None:
            k_star = k
            if not full_scan:
                break
    scanned = sorted(winners)
    alice_flags = [winners[k] is Player.ALICE for k in scanned]
    first_win = alice_flags.index(True) if True in alice_flags else len(alice_flags)
    monotone = all(alice_flags[first_win:])
    return ChromaticScan(k_star=k_star, winners=winners, monotone=monotone, scanned=scanned)


def solve_one_round(graph: Graph, k: int, state_cap: int = 10**8) -> Player:
    """Classic (single-round) colouring game by plain minimax.

    Alice wins iff every vertex ends up coloured.  In round 1 the coloured
    set IS the played set and the mover is determined by its parity, so the
    colour vector alone keys the memo.
    """
    n = graph.n
    if (k + 1) ** n * 2 > state_cap:
        raise SolverInfeasible("one-round state space exceeds cap")
    closed = _closed_tuples(graph)
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
            legal = _legal_colors_mask(closed[v], colors, palette, False)
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
