"""State machine for the eternal vertex colouring game.

Rules: the game runs in rounds; within a round every vertex is played exactly
once.  Round 1 colours uncoloured vertices; in later rounds the chosen vertex
must be recoloured with a colour distinct from its current one.  Every
assignment must keep the colouring proper.  Moves alternate globally, Alice
first, so for even n Alice opens every round while for odd n the opener
alternates.  Bob wins as soon as a chosen vertex has no legal colour.

Greedy variants: under GREEDY_BOB, Bob must use the smallest legal colour;
under GREEDY_BOTH both players must.  This is enforced here, in
``legal_mask``, so strategies cannot violate it.

Colour sets are bitmasks with bit c standing for colour c, and vertex sets
are bitmasks with bit v standing for vertex v.  GameState keeps a census per
colour: ``seen_by[c]`` is the set of vertices whose closed neighbourhood N[v]
holds colour c.  Placing c at v ORs N[v] into ``seen_by[c]``; a recolour
away from ``old`` rebuilds ``seen_by[old]`` from the vertices still coloured
``old``, so no move walks N[v].  ``legal_at(state, v)`` collects v's colour
mask from the census and turns it into the legal colours with
``legal_mask``.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Optional

from .graph import Graph, derive_seed, iter_bits


class RuleVariant(enum.Enum):
    STANDARD = "standard"
    GREEDY_BOB = "greedy_bob"
    GREEDY_BOTH = "greedy_both"


class Player(enum.Enum):
    ALICE = "alice"
    BOB = "bob"


# Function bodies read the members through these module globals.  CPython
# 3.11's EnumType defines a Python-level __getattr__, so every attribute read
# on an enum class, Player.ALICE included, goes through that slow hook.
ALICE, BOB = Player.ALICE, Player.BOB
STANDARD, GREEDY_BOB, GREEDY_BOTH = RuleVariant.STANDARD, RuleVariant.GREEDY_BOB, RuleVariant.GREEDY_BOTH


class IllegalMoveError(ValueError):
    pass


@dataclass
class MoveRecord:
    round: int
    idx: int
    player: Player
    vertex: int
    color: int

    def to_json_obj(self) -> dict:
        return {
            "round": self.round,
            "idx": self.idx,
            "player": self.player.value,
            "vertex": self.vertex,
            "colour": self.color,
        }


class GameState:
    """Mutable position of one game; confined to a single worker."""

    __slots__ = (
        "graph", "k", "variant", "palette", "colors", "round", "played", "to_move", "color_pos", "seen_by"
    )

    def __init__(self, graph: Graph, k: int, variant: RuleVariant = RuleVariant.STANDARD):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.graph = graph
        self.k = k
        self.variant = variant
        self.palette = ((1 << k) - 1) << 1  # colours 1..k
        self.colors = [0] * graph.n  # 0 = uncoloured (round 1 only)
        self.round = 1
        self.played = 0  # bitmask of vertices played this round
        self.to_move = ALICE
        # color_pos[c] = bitmask of vertices currently coloured c (c = 0: uncoloured)
        self.color_pos = [graph.full_mask] + [0] * k
        # seen_by[c] = bitmask of the vertices whose closed neighbourhood
        # holds colour c (v's own colour too, which a recolour must change);
        # seen_by[0] stays 0, since "uncoloured" is never a colour
        self.seen_by = [0] * (k + 1)

    def is_played(self, v: int) -> bool:
        return bool(self.played >> v & 1)

    def greedy_applies(self) -> bool:
        variant = self.variant
        return variant is GREEDY_BOTH or variant is GREEDY_BOB and self.to_move is BOB


def legal_mask(seen: int, palette: int, greedy: bool) -> int:
    """The legality rule, as a colour mask: the palette colours absent from
    `seen`, the colour mask of an unplayed vertex's closed neighbourhood.
    Under greedy rules only the smallest of them."""
    free = palette & ~seen
    return free & -free if greedy else free


def legal_at(state: GameState, v: int) -> int:
    """The colours the mover may assign to v right now, as a mask: the
    legality rule applied to the colour mask of N[v], read off the census."""
    seen, bit = 0, 1 << v
    for c, s in enumerate(state.seen_by):
        if s & bit:
            seen |= 1 << c
    return legal_mask(seen, state.palette, state.greedy_applies())


def legal_colors(state: GameState, v: int) -> set[int]:
    """Colours the mover may assign to v right now.

    Empty set means the mover choosing v loses the game to Bob.
    """
    if type(v) is not int or not 0 <= v < state.graph.n:
        raise IllegalMoveError(f"vertex {v!r} out of range")
    if state.is_played(v):
        raise IllegalMoveError(f"vertex {v} already played in round {state.round}")
    return set(iter_bits(legal_at(state, v)))


def apply_move(state: GameState, v: int, c: int) -> GameState:
    """Apply a validated move in place; flips the mover and handles round turnover."""
    if type(c) is not int or c not in legal_colors(state, v):
        raise IllegalMoveError(f"colour {c!r} is not legal at vertex {v}")
    return _place(state, v, c)


def _place(state: GameState, v: int, c: int) -> GameState:
    """apply_move after its legality check: the caller has checked the move."""
    old = state.colors[v]
    bit = 1 << v
    pos = state.color_pos
    pos[old] &= ~bit
    pos[c] |= bit
    state.colors[v] = c
    closed, seen_by = state.graph.closed, state.seen_by
    seen_by[c] |= closed[v]
    if old:
        # the vertices still seeing old are the closed neighbourhoods of
        # those still coloured old
        seen, rest = 0, pos[old]
        while rest:
            low = rest & -rest
            rest ^= low
            seen |= closed[low.bit_length() - 1]
        seen_by[old] = seen
    state.played |= bit
    state.to_move = BOB if state.to_move is ALICE else ALICE
    if state.played == state.graph.full_mask:
        state.round += 1
        state.played = 0
    return state


@dataclass
class GameOutcome:
    winner: Optional[Player]  # None iff a strategy faulted
    fault: Optional[Player] = None
    termination_round: Optional[int] = None  # Bob win: round the stuck vertex was chosen in
    rounds_completed: int = 0  # Alice survival under the round cap
    transcript: list[MoveRecord] = field(default_factory=list)
    losing_vertex: Optional[int] = None


class Strategy:
    """Move-selection policy; one instance per game (reset() re-arms it)."""

    name = "strategy"

    def reset(self, graph: Graph, k: int, variant: RuleVariant, seed: Optional[int] = None) -> None:
        pass

    def select(self, state: GameState) -> tuple[int, Optional[int]]:
        """Return (vertex, colour).  colour None signals 'chosen vertex is stuck'."""
        raise NotImplementedError

    def observe(self, state: GameState, record: MoveRecord) -> None:
        """Called after every accepted move (by either player)."""


def play_game(
    graph: Graph,
    k: int,
    alice: Strategy,
    bob: Strategy,
    variant: RuleVariant = RuleVariant.STANDARD,
    max_rounds: int = 10,
    seed: Optional[int] = None,
) -> GameOutcome:
    """Drive a full game until Bob wins or max_rounds complete.

    A strategy returning an illegal move aborts the game with a fault outcome
    attributed to that strategy; a fault is never a game-theoretic win.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    state = GameState(graph, k, variant)
    alice.reset(graph, k, variant, None if seed is None else derive_seed(seed, "alice"))
    bob.reset(graph, k, variant, None if seed is None else derive_seed(seed, "bob"))
    transcript: list[MoveRecord] = []
    standard, seen_by = variant is STANDARD, state.seen_by
    while state.round <= max_rounds:
        mover = state.to_move
        strat = alice if mover is ALICE else bob
        v, c = strat.select(state)
        # a bool or float is no vertex or colour, though it may index or
        # compare equal to one
        if type(v) is not int or not 0 <= v < graph.n or state.played >> v & 1:
            return GameOutcome(winner=None, fault=mover, rounds_completed=state.round - 1, transcript=transcript)
        # a palette colour N[v] does not see is legal under standard rules;
        # any other move is judged on v's legal colours, so that a stuck v
        # is Bob's win whatever colour comes with it
        if not (standard and type(c) is int and 0 < c <= k and not seen_by[c] >> v & 1):
            legal = legal_at(state, v)
            if not legal:
                return GameOutcome(
                    winner=BOB,
                    termination_round=state.round,
                    rounds_completed=state.round - 1,
                    transcript=transcript,
                    losing_vertex=v,
                )
            if type(c) is not int or c < 0 or not legal >> c & 1:
                return GameOutcome(winner=None, fault=mover, rounds_completed=state.round - 1, transcript=transcript)
        rec = MoveRecord(state.round, state.played.bit_count(), mover, v, c)
        _place(state, v, c)
        transcript.append(rec)
        alice.observe(state, rec)
        bob.observe(state, rec)
    return GameOutcome(winner=ALICE, rounds_completed=max_rounds, transcript=transcript)


def replay_transcript(graph: Graph, k: int, variant: RuleVariant, transcript: list[MoveRecord]) -> GameState:
    """Re-apply a transcript from the initial position; raises on any illegality."""
    state = GameState(graph, k, variant)
    for rec in transcript:
        if rec.player is not state.to_move or rec.round != state.round or rec.idx != state.played.bit_count():
            raise IllegalMoveError(f"transcript out of order at {rec}")
        apply_move(state, rec.vertex, rec.color)
    return state


def transcript_to_json(transcript: list[MoveRecord]) -> str:
    return json.dumps([rec.to_json_obj() for rec in transcript], indent=None)


def is_proper(state: GameState) -> bool:
    """Check the full colouring restricted to coloured vertices is proper."""
    g = state.graph
    for v in range(g.n):
        c = state.colors[v]
        if c and g.adj[v] & state.color_pos[c]:
            return False
    return True
