"""State machine for the eternal vertex colouring game.

Rules: the game runs in rounds; within a round every vertex is played exactly
once.  Round 1 colours uncoloured vertices; in later rounds the chosen vertex
must be recoloured with a colour distinct from its current one.  Every
assignment must keep the colouring proper.  Moves alternate globally, Alice
first, so for even n Alice opens every round while for odd n the opener
alternates.  Bob wins as soon as a chosen vertex has no legal colour.

Greedy variants: under GREEDY_BOB, Bob must use the smallest legal colour;
under GREEDY_BOTH both players must.  This is enforced here, in
``legal_colors``, so strategies cannot violate it.

Colour sets are bitmasks with bit c standing for colour c.  GameState keeps,
per vertex v, the mask ``seen[v]`` of colours present in its closed
neighbourhood N[v]; ``legal_mask`` turns it into the legal colours.
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

    @property
    def other(self) -> "Player":
        return Player.BOB if self is Player.ALICE else Player.ALICE


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
        "graph", "k", "variant", "palette", "colors", "round", "played", "played_count", "to_move", "color_pos", "seen"
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
        self.played_count = 0
        self.to_move = Player.ALICE
        # color_pos[c] = bitmask of vertices currently coloured c (c = 0: uncoloured)
        self.color_pos = [graph.full_mask] + [0] * k
        # seen[v] = colour mask of N[v]; it holds v's own colour, which a
        # recolour must change, and no bit for "uncoloured"
        self.seen = [0] * graph.n

    def is_played(self, v: int) -> bool:
        return bool(self.played >> v & 1)

    def greedy_applies(self) -> bool:
        if self.variant is RuleVariant.GREEDY_BOTH:
            return True
        return self.variant is RuleVariant.GREEDY_BOB and self.to_move is Player.BOB


def legal_mask(seen: int, palette: int, greedy: bool) -> int:
    """The legality rule, as a colour mask: the palette colours absent from
    `seen`, the colour mask of an unplayed vertex's closed neighbourhood.
    Under greedy rules only the smallest of them."""
    free = palette & ~seen
    return free & -free if greedy else free


def legal_colors(state: GameState, v: int) -> set[int]:
    """Colours the mover may assign to v right now.

    Empty set means the mover choosing v loses the game to Bob.
    """
    if not 0 <= v < state.graph.n:
        raise IllegalMoveError(f"vertex {v} out of range")
    if state.is_played(v):
        raise IllegalMoveError(f"vertex {v} already played in round {state.round}")
    return set(iter_bits(legal_mask(state.seen[v], state.palette, state.greedy_applies())))


def apply_move(state: GameState, v: int, c: int) -> GameState:
    """Apply a validated move in place; flips the mover and handles round turnover."""
    if c not in legal_colors(state, v):
        raise IllegalMoveError(f"colour {c} is not legal at vertex {v}")
    old = state.colors[v]
    bit = 1 << v
    pos = state.color_pos
    pos[old] &= ~bit
    pos[c] |= bit
    state.colors[v] = c
    closed, seen, new_bit = state.graph.closed, state.seen, 1 << c
    if old:
        # u still sees old iff another vertex of N[u] keeps it
        old_bit, old_pos = 1 << old, pos[old]
        for u in iter_bits(closed[v]):
            mask = seen[u] | new_bit
            if not closed[u] & old_pos:
                mask &= ~old_bit
            seen[u] = mask
    else:
        for u in iter_bits(closed[v]):
            seen[u] |= new_bit
    state.played |= bit
    state.played_count += 1
    state.to_move = state.to_move.other
    if state.played_count == state.graph.n:
        state.round += 1
        state.played = 0
        state.played_count = 0
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
    while state.round <= max_rounds:
        mover = state.to_move
        strat = alice if mover is Player.ALICE else bob
        v, c = strat.select(state)
        if not isinstance(v, int) or not 0 <= v < graph.n or state.is_played(v):
            return GameOutcome(winner=None, fault=mover, rounds_completed=state.round - 1, transcript=transcript)
        legal = legal_colors(state, v)
        if not legal:
            return GameOutcome(
                winner=Player.BOB,
                termination_round=state.round,
                rounds_completed=state.round - 1,
                transcript=transcript,
                losing_vertex=v,
            )
        if c not in legal:
            return GameOutcome(winner=None, fault=mover, rounds_completed=state.round - 1, transcript=transcript)
        rec = MoveRecord(state.round, state.played_count, mover, v, c)
        apply_move(state, v, c)
        transcript.append(rec)
        alice.observe(state, rec)
        bob.observe(state, rec)
    return GameOutcome(winner=Player.ALICE, rounds_completed=max_rounds, transcript=transcript)


def replay_transcript(graph: Graph, k: int, variant: RuleVariant, transcript: list[MoveRecord]) -> GameState:
    """Re-apply a transcript from the initial position; raises on any illegality."""
    state = GameState(graph, k, variant)
    for rec in transcript:
        if rec.player is not state.to_move or rec.round != state.round or rec.idx != state.played_count:
            raise IllegalMoveError(f"transcript out of order at {rec}")
        apply_move(state, rec.vertex, rec.color)
    return state


def transcript_to_json(transcript: list[MoveRecord]) -> str:
    return json.dumps([rec.to_json_obj() for rec in transcript], indent=None)


def transcript_from_json(text: str) -> list[MoveRecord]:
    return [
        MoveRecord(o["round"], o["idx"], Player(o["player"]), o["vertex"], o["colour"])
        for o in json.loads(text)
    ]


def is_proper(state: GameState) -> bool:
    """Check the full colouring restricted to coloured vertices is proper."""
    g = state.graph
    for v in range(g.n):
        c = state.colors[v]
        if c and g.adj[v] & state.color_pos[c]:
            return False
    return True
