"""Move-selection policies for the eternal colouring game.

Implements the priority-list strategies the analysis of random graphs rests
on: Alice's danger/mirror strategy, Bob's single-target strategy for odd n,
Bob's generalized multi-target strategy, plus two baselines.  All asymptotic
thresholds are explicit integer knobs in StrategyParams so the strategies can
run at desk scale.

Tie-breaking everywhere: lowest vertex index first, then smallest colour,
so that games against deterministic opponents are reproducible.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from math import ceil
from typing import Optional

from .engine import GameState, MoveRecord, Player, Strategy, legal_colors, legal_mask
from .graph import Graph, iter_bits, mask_of
from .partitions import build_color_plan


@dataclass
class StrategyParams:
    """Integer-resolved thresholds for the priority strategies.

    The fraction-of-n forms are documented next to each field; use
    ``from_fractions`` to resolve them at a concrete n.
    """

    epsilon: float = 0.05
    danger_threshold: int = 1  # ceil(epsilon/100 * n); also the min-uncoloured gate for blocking
    nearly_full_threshold: int = 1  # ceil(beta * n)
    small_color_cutoff: int = 1  # ceil(epsilon/200 * n)
    block_distance: int = 1  # ceil(delta * n)
    block_budget: int = 1  # K
    reserve_missing: int = 10  # 10K
    multiplicity: int = 4  # C_l
    block_set_size: Optional[int] = None  # m for multi-target blocks; default 100 * C_l * l

    def __post_init__(self):
        for name in ("danger_threshold", "nearly_full_threshold", "small_color_cutoff", "block_distance"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @classmethod
    def from_fractions(
        cls,
        n: int,
        epsilon: float = 0.05,
        beta: float = 0.02,
        delta: float = 0.05,
        K: int = 1,
        C_l: int = 4,
    ) -> "StrategyParams":
        return cls(
            epsilon=epsilon,
            danger_threshold=max(1, ceil(epsilon / 100 * n)),
            nearly_full_threshold=max(1, ceil(beta * n)),
            small_color_cutoff=max(1, ceil(epsilon / 200 * n)),
            block_distance=max(1, ceil(delta * n)),
            block_budget=K,
            reserve_missing=10 * K,
            multiplicity=C_l,
        )


def smallest_legal(state: GameState, v: int) -> Optional[int]:
    low = legal_mask(state.seen[v], state.palette, True)  # the greedy cut, under any variant
    return low.bit_length() - 1 if low else None


def unplayed_vertices(state: GameState):
    return iter_bits(~state.played & state.graph.full_mask)


def first_fit(state: GameState) -> tuple[int, Optional[int]]:
    """Lowest-index unplayed vertex with its smallest legal colour."""
    v = next(unplayed_vertices(state))
    return v, smallest_legal(state, v)


def uncolored_taking(state: GameState, mask: int, c: int) -> Optional[int]:
    """Lowest-index uncoloured vertex of mask where colour c is legal (round 1)."""
    for u in iter_bits(mask & state.color_pos[0]):
        if not state.seen[u] >> c & 1:
            return u
    return None


class GreedyFirstFit(Strategy):
    """Lowest-index unplayed vertex, smallest legal colour."""

    name = "greedyFirstFit"

    def select(self, state: GameState):
        return first_fit(state)


class RandomLegal(Strategy):
    """Uniform over all currently legal (vertex, colour) pairs; seeded."""

    name = "randomLegal"

    def __init__(self, seed: Optional[int] = None):
        self._init_seed = seed
        self.rng = random.Random(seed)

    def reset(self, graph, k, variant, seed=None):
        self.rng = random.Random(seed if seed is not None else self._init_seed)

    def select(self, state: GameState):
        pairs = [(v, c) for v in unplayed_vertices(state) for c in sorted(legal_colors(state, v))]
        if not pairs:
            return next(unplayed_vertices(state)), None
        return pairs[self.rng.randrange(len(pairs))]


# ---------------------------------------------------------------------------
# Alice: danger tracking + mirroring
# ---------------------------------------------------------------------------


@dataclass
class RoundBook:
    """Per-round move tallies and the (monotone) danger set."""

    round: int
    n: int
    alice_mask: int = 0
    bob_mask: int = 0
    diff: list[int] = field(default_factory=list)  # Bob-minus-Alice plays in N(v), per v
    danger_mask: int = 0
    last_bob_vertex: Optional[int] = None
    moves: list[tuple[Player, int]] = field(default_factory=list)

    def __post_init__(self):
        if not self.diff:
            self.diff = [0] * self.n


def record_round_move(book: RoundBook, graph: Graph, player: Player, vertex: int, threshold: int) -> None:
    book.moves.append((player, vertex))
    step = 1 if player is Player.BOB else -1
    if player is Player.BOB:
        book.bob_mask |= 1 << vertex
        book.last_bob_vertex = vertex
    else:
        book.alice_mask |= 1 << vertex
    for u in iter_bits(graph.closed[vertex]):
        book.diff[u] += step
        if step > 0 and book.diff[u] >= threshold:
            book.danger_mask |= 1 << u


def dangerous_vertices(book: RoundBook, graph: Graph, threshold: int) -> set[int]:
    """Recompute the danger set from the book's move sequence (audit path).

    A vertex is dangerous once Bob's plays in its closed neighbourhood exceed
    Alice's by at least the threshold at ANY prefix of the round; dangerousness
    is sticky for the rest of the round.
    """
    diff = [0] * graph.n
    danger = 0
    for player, vertex in book.moves:
        step = 1 if player is Player.BOB else -1
        for u in iter_bits(graph.closed[vertex]):
            diff[u] += step
            if step > 0 and diff[u] >= threshold:
                danger |= 1 << u
    return set(iter_bits(danger))


class PriorityAlice(Strategy):
    """Alice's priority strategy: urgent vertices, then mirrors, then anything.

    Priorities per move:
      1. an unplayed vertex missing fewer than nearly_full_threshold colours
         in its closed neighbourhood;
      2. if Bob's previous move w is not dangerous, a playable mirror of w
         with respect to the current danger set;
      3. the lowest-index unplayed vertex.
    The chosen vertex always gets the smallest legal colour.
    """

    name = "priorityAlice"

    def __init__(self, params: StrategyParams, audit: bool = False):
        self.params = params
        self.audit = audit

    def reset(self, graph, k, variant, seed=None):
        self.graph = graph
        self.k = k
        self.book = RoundBook(round=1, n=graph.n)
        self.audit_log: list[tuple[int, int, int]] = []  # (round, move idx, priority)

    def observe(self, state: GameState, rec: MoveRecord):
        if rec.round > self.book.round:
            self.book = RoundBook(round=rec.round, n=self.graph.n)
        record_round_move(self.book, self.graph, rec.player, rec.vertex, self.params.danger_threshold)

    def select(self, state: GameState):
        if state.round > self.book.round:
            self.book = RoundBook(round=state.round, n=self.graph.n)
        v, prio = self._choose(state)
        if self.audit:
            self.audit_log.append((state.round, state.played_count, prio))
        return v, smallest_legal(state, v)

    def _choose(self, state: GameState) -> tuple[int, int]:
        seen, k = state.seen, self.k
        thr = self.params.nearly_full_threshold
        # (1) rescue vertices about to see the whole palette, most urgent
        # first; a vertex already seeing everything is unrescuable (playing it
        # would concede), so it is skipped.
        urgent, urgent_missing = None, thr
        for v in unplayed_vertices(state):
            missing = k - seen[v].bit_count()
            if 1 <= missing < urgent_missing:
                urgent, urgent_missing = v, missing
        if urgent is not None:
            return urgent, 1
        # (2) exact mirror of Bob's last non-dangerous move w.r.t. the danger
        # set (choice among mirrors is free: take the cheapest colour).
        w = self.book.last_bob_vertex
        if w is not None and not (self.book.danger_mask >> w & 1):
            v = self._exact_mirror(state, w)
            if v is not None:
                return v, 2
        # (3) the arbitrary move is free, so spend it where the pressure is:
        # cover the most-pressured neighbourhoods, coolest colour on ties.
        if w is not None:
            v = self._playable_mirror(state, w)
            if v is not None:
                return v, 3
        return next(unplayed_vertices(state)), 3

    def _exact_mirror(self, state: GameState, w: int) -> Optional[int]:
        d_mask = self.book.danger_mask
        want = self.graph.adj[w] & d_mask
        skip = d_mask | state.played | (1 << w)
        best = None
        for v in range(self.graph.n):
            if skip >> v & 1:
                continue
            if self.graph.adj[v] & d_mask != want:
                continue
            c = smallest_legal(state, v)
            if c is None:
                continue
            if best is None or (c, v) < best:
                best = (c, v)
        return best[1] if best else None

    def _playable_mirror(self, state: GameState, w: int) -> Optional[int]:
        # Best-effort mirror.  Exact mirrors (identical adjacency to the whole
        # danger set) quickly stop existing at small n, so we keep the
        # invariant the mirror exists to provide — Alice plays next to a
        # pressured vertex at least as often as Bob does — directly: take the
        # playable vertex whose neighbourhood covers the most pressure, with
        # exponential weights so the single most-pressured vertex outranks any
        # number of mildly-pressured ones.  Ties break towards the smallest
        # usable colour, keeping Alice's distinct-colour footprint low.
        d_mask = self.book.danger_mask
        skip = state.played | (1 << w)
        seen = state.seen
        # Pressure = how much of the palette a dangerous vertex already sees.
        # Base n+1 makes the score lexicographic: covering the single vertex
        # closest to seeing everything beats covering every other one.
        base = self.graph.n + 1
        best = None
        for v in range(self.graph.n):
            if skip >> v & 1:
                continue
            c = smallest_legal(state, v)
            if c is None:
                continue
            covered = self.graph.adj[v] & d_mask
            # Covering a pressured vertex with a colour it already sees is a
            # pure slot-burn; covering it with a colour new to it also fills
            # it, so that counts one pressure level lower.
            score = 0
            for t in iter_bits(covered):
                e = seen[t].bit_count()
                score += base ** e if seen[t] >> c & 1 else base ** e // base
            if best is None or (-score, c, v) < best:
                best = (-score, c, v)
        return best[2] if best else None


# ---------------------------------------------------------------------------
# Bob, single target (odd n)
# ---------------------------------------------------------------------------


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
        self.c_a: Optional[int] = None
        self.c_b: Optional[int] = None
        self.phase = "A"

    def step(self, bob: "TargetBob", state: GameState) -> Optional[tuple[int, int]]:
        """Next move of the sequence, or None when finished/dropped."""
        colors, inside = state.colors, bob._inside
        while True:
            if self.phase == "done" or not bob.target_mask & state.color_pos[0]:
                return None
            if self.phase == "A":
                col_a = colors[self.a]
                if col_a == 0:
                    c = bob._smallest_unused(state)
                    if c is None:
                        self.phase = "done"
                        bob._log_drop(self, "no unused colour for a")
                        return None
                    self.c_a = c
                    self.phase = "A2"
                    return self.a, c
                if inside(state, col_a):
                    # a was neutralized by a colour already in the target
                    self.phase = "done"
                    bob._log_drop(self, "a coloured inside-target colour")
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
                    bob._log_drop(self, "c_a not introducible")
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
                    bob._log_drop(self, "c_a not introducible")
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
                    bob._log_drop(self, "no unused colour for b")
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
                    bob._log_drop(self, "c_b not introducible")
                    return None
                return u, self.c_b
            raise AssertionError(f"unknown phase {self.phase}")


class TargetBob(Strategy):
    """Bob's single-target strategy: flood the target's closed neighbourhood.

    Round-1 priorities:
      1. a colour appearing >= 2 times outside the target neighbourhood and
         absent inside -> copy it in;
      2. blocking-move sequences for pairs close to a double block, executed
         FIFO while enough colours are still unused and the target keeps
         enough uncoloured vertices;
      3. introduce colours appearing exactly once outside, FIFO by when they
         entered the game;
      4. introduce globally-new colours;
      5. greedy first fit.
    From round 2 on, Bob first looks for a vertex seeing the whole palette
    (choosing it wins) and otherwise falls back to greedy first fit.
    """

    name = "targetBob"

    def __init__(self, params: StrategyParams, target: int = 0, audit: bool = False):
        self.params = params
        self.target = target
        self.audit = audit

    def reset(self, graph, k, variant, seed=None):
        self.graph = graph
        self.k = k
        self.target_mask = graph.closed[self.target]
        self.intro_time = [0] * (k + 1)  # move index of first appearance; 0 = unused
        self.move_clock = 0
        self.pending: deque[_BlockObligation] = deque()
        self.seen_pairs: set[frozenset] = set()
        self.audit_log: list[tuple[int, int, int]] = []
        self.drop_log: list[str] = []

    def observe(self, state: GameState, rec: MoveRecord):
        self.move_clock += 1
        if self.intro_time[rec.color] == 0:
            self.intro_time[rec.color] = self.move_clock

    # -- round-1 helpers ----------------------------------------------------

    def _inside(self, state: GameState, c: int) -> bool:
        return bool(state.color_pos[c] & self.target_mask)

    def _smallest_unused(self, state: GameState) -> Optional[int]:
        for c in range(1, self.k + 1):
            if not state.color_pos[c]:
                return c
        return None

    def _colors_by_intro(self, pred):
        cs = [c for c in range(1, self.k + 1) if pred(c)]
        cs.sort(key=lambda c: (self.intro_time[c], c))
        return cs

    def _scan_block_pairs(self, state: GameState) -> None:
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

    def _log_drop(self, ob: _BlockObligation, why: str) -> None:
        self.drop_log.append(f"pair ({ob.a},{ob.b}) dropped: {why}")

    def select(self, state: GameState):
        if state.round >= 2:
            return self._late_round_move(state)
        v, c, prio = self._round1_move(state)
        if self.audit:
            self.audit_log.append((state.round, state.played_count, prio))
        return v, c

    def _round1_move(self, state: GameState) -> tuple[int, Optional[int], int]:
        pos, target_mask = state.color_pos, self.target_mask
        # (1) colours seen >= twice outside, absent inside
        for c in self._colors_by_intro(lambda c: not pos[c] & target_mask and pos[c].bit_count() >= 2):
            u = uncolored_taking(state, target_mask, c)
            if u is not None:
                return u, c, 1
        # (2) blocking obligations
        unused = pos[1:].count(0)
        if unused >= self.params.reserve_missing and (target_mask & pos[0]).bit_count() >= self.params.danger_threshold:
            self._scan_block_pairs(state)
            while self.pending:
                mv = self.pending[0].step(self, state)
                if mv is not None:
                    return mv[0], mv[1], 2
                self.pending.popleft()
        # (3) colours seen exactly once outside, absent inside, FIFO
        for c in self._colors_by_intro(lambda c: not pos[c] & target_mask and pos[c].bit_count() == 1):
            u = uncolored_taking(state, target_mask, c)
            if u is not None:
                return u, c, 3
        # (4) brand-new colours into the target
        c = self._smallest_unused(state)
        if c is not None:
            avail = target_mask & pos[0]
            if avail:
                u = next(iter_bits(avail))
                return u, c, 4
        # (5) anything
        v, c = first_fit(state)
        return v, c, 5

    def _late_round_move(self, state: GameState):
        # Round 2: claim the target if its closed neighbourhood saw the whole
        # palette (the strategy's designed winning check).  Past that horizon
        # the strategy is out of plan and falls back to greedy play.
        if state.round == 2 and not state.is_played(self.target) and state.seen[self.target] == state.palette:
            return self.target, None
        return first_fit(state)


def double_block_distance(state: GameState, pair: tuple[int, int], target: int) -> Optional[int]:
    """Uncoloured vertices of N(target) outside N(a) u N(b); None if the pair
    carries a colour already present in N(target) (no longer a threat)."""
    g = state.graph
    a, b = pair
    inside_colors = {state.colors[u] for u in iter_bits(g.closed[target]) if state.colors[u]}
    for x in (a, b):
        if state.colors[x] and state.colors[x] in inside_colors:
            return None
    uncolored = 0
    for u in iter_bits(g.closed[target]):
        if state.colors[u] == 0:
            uncolored |= 1 << u
    return (uncolored & ~g.closed[a] & ~g.closed[b]).bit_count()


# ---------------------------------------------------------------------------
# Bob, generalized multi-target plan (even n, p = 1/k')
# ---------------------------------------------------------------------------


class PlanSetupError(ValueError):
    pass


@dataclass(frozen=True)
class PlanEntry:
    index: int
    subset: frozenset  # which ground vertices this class is adjacent to
    vertices: int  # bitmask
    colors: frozenset  # designated colour set Y_i


@dataclass(frozen=True)
class TargetPlan:
    ground_set: tuple  # the l distinguished vertices
    entries: tuple  # PlanEntry, disjoint vertex sets
    num_colors: int

    @property
    def l(self) -> int:
        return len(self.ground_set)


def bob_even_setup(graph: Graph, l: int, k: int, num_colors: int) -> TargetPlan:
    """Fix the lowest-index l vertices as the ground set, split the rest by
    adjacency trace, and attach the colour-plan sets.  Requires p = 1/k style
    palettes: the colour plan construction needs the exact partition weights.
    """
    if l < 1 or l > graph.n:
        raise PlanSetupError(f"l={l} out of range")
    plan = build_color_plan(l, k, num_colors)
    ground = tuple(range(l))
    ground_mask = mask_of(ground)
    classes: dict[frozenset, int] = {}
    for v in range(l, graph.n):
        trace = frozenset(x for x in ground if graph.adj[v] >> x & 1)
        classes[trace] = classes.get(trace, 0) | (1 << v)
    entries = []
    idx = 0
    for subset in sorted(plan.subset_colors, key=lambda s: (len(s), sorted(s))):
        colors = plan.subset_colors[subset]
        if not colors:
            continue
        vertices = classes.get(subset, 0)
        if vertices == 0:
            raise PlanSetupError(f"class for trace {sorted(subset)} is empty but needs colours")
        entries.append(PlanEntry(idx, subset, vertices, colors))
        idx += 1
    return TargetPlan(ground_set=ground, entries=tuple(entries), num_colors=num_colors)


class _KillObligation:
    """Pending kill sequence for an m-set threatening some target class."""

    __slots__ = ("members", "entry_index", "pos", "color", "intro_left")

    def __init__(self, members: list[int], entry_index: int):
        self.members = members
        self.entry_index = entry_index
        self.pos = 0
        self.color: Optional[int] = None
        self.intro_left: list[int] = []


class MultiplicityBob(Strategy):
    """Bob's generalized strategy driving designated colours into target classes.

    Round-1 priorities (highest first): multiplicity-forced copies, end-stage
    service, block killing, eager multiplicity copies, fresh designated
    colours (preferring the class Alice just played in), then anything.
    From round 2 on, Bob checks the ground set for a vertex seeing all colours
    and otherwise plays greedy first fit.
    """

    name = "multiplicityBob"

    def __init__(self, plan: TargetPlan, params: StrategyParams, audit: bool = False):
        self.plan = plan
        self.params = params
        self.audit = audit

    def reset(self, graph, k, variant, seed=None):
        self.graph = graph
        self.k = k
        self.entry_of_vertex = {}
        for e in self.plan.entries:
            for v in iter_bits(e.vertices):
                self.entry_of_vertex[v] = e.index
        self.end_stage = [False] * len(self.plan.entries)
        self.end_stage_move = [None] * len(self.plan.entries)
        self.designated = [[] for _ in range(k + 1)]
        for e in self.plan.entries:
            for c in e.colors:
                self.designated[c].append(e.index)
        self.alice_last_vertex = None
        self.alice_last_color = None
        self.move_clock = 0
        self.pending: deque[_KillObligation] = deque()
        self.seen_kills: set[frozenset] = set()
        self.audit_log: list[tuple[int, int, int]] = []

    @property
    def _l(self) -> int:
        return self.plan.l

    def observe(self, state: GameState, rec: MoveRecord):
        self.move_clock += 1
        i = self.entry_of_vertex.get(rec.vertex)
        if i is not None and not self.end_stage[i] and len(self._missing(state, i)) <= self.params.reserve_missing:
            self.end_stage[i] = True
            self.end_stage_move[i] = self.move_clock
        if rec.player is Player.ALICE:
            self.alice_last_vertex = rec.vertex
            self.alice_last_color = rec.color

    # -- helpers -------------------------------------------------------------

    def _is_missing(self, state: GameState, i: int, c: int) -> bool:
        """Whether c, a designated colour of class i, is absent from it."""
        return not state.color_pos[c] & self.plan.entries[i].vertices

    def _missing(self, state: GameState, i: int) -> list[int]:
        return [c for c in sorted(self.plan.entries[i].colors) if self._is_missing(state, i, c)]

    def _miss_count(self, state: GameState, c: int) -> int:
        return sum(1 for i in self.designated[c] if self._is_missing(state, i, c))

    def _forced_colors(self, state: GameState, slack: int):
        """Colours whose multiplicity forces a copy into a missing class.

        slack=0 is the strict rule (fires at q = floor(r_c / C_l)); slack=1
        fires one multiplicity level earlier.
        """
        C_l = self.params.multiplicity
        out = []
        for c in range(1, self.k + 1):
            if not self.designated[c]:
                continue
            r = state.color_pos[c].bit_count()
            if slack and r == 0:
                continue  # a colour not yet on the board carries no multiplicity pressure
            q = min(self._l, r // C_l + slack)
            if q >= 1 and self._miss_count(state, c) > self._l - q:
                out.append(c)
        return out

    def _safe_kill_color(self, state: GameState, vertex: int) -> Optional[int]:
        """Smallest colour legal at vertex whose extra copy will not itself
        force a priority-(1) move."""
        C_l = self.params.multiplicity
        legal = legal_colors(state, vertex)
        fallback = min(legal) if legal else None
        for c in sorted(legal):
            q = min(self._l, (state.color_pos[c].bit_count() + 1) // C_l)
            if q < 1 or self._miss_count(state, c) <= self._l - q:
                return c
        return fallback

    def _scan_kills(self, state: GameState) -> None:
        m = self.params.block_set_size or 100 * self.params.multiplicity * self._l
        dist = self.params.block_distance
        unplayed = [v for v in unplayed_vertices(state)]
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
                    self.pending.append(_KillObligation(members, i))

    def _kill_step(self, state: GameState) -> Optional[tuple[int, int]]:
        while self.pending:
            ob = self.pending[0]
            if ob.intro_left:
                i = ob.intro_left[0]
                if self._is_missing(state, i, ob.color):
                    u = uncolored_taking(state, self.plan.entries[i].vertices, ob.color)
                    if u is not None:
                        ob.intro_left.pop(0)
                        return u, ob.color
                ob.intro_left.pop(0)
                continue
            while ob.pos < len(ob.members) and state.colors[ob.members[ob.pos]] != 0:
                ob.pos += 1
            if ob.pos >= len(ob.members):
                self.pending.popleft()
                continue
            a = ob.members[ob.pos]
            if state.is_played(a):
                ob.pos += 1
                continue
            c = self._safe_kill_color(state, a)
            if c is None:
                ob.pos += 1
                continue
            ob.color = c
            ob.intro_left = [i for i in self.designated[c] if self._is_missing(state, i, c)]
            ob.pos += 1
            return a, c
        return None

    def select(self, state: GameState):
        if state.round >= 2:
            return self._late_round_move(state)
        v, c, prio = self._round1_move(state)
        if self.audit:
            self.audit_log.append((state.round, state.played_count, prio))
        return v, c

    def _round1_move(self, state: GameState):
        entries = self.plan.entries
        # (1) multiplicity-forced copies
        for c in self._forced_colors(state, slack=0):
            for i in self.designated[c]:
                if self._is_missing(state, i, c):
                    u = uncolored_taking(state, entries[i].vertices, c)
                    if u is not None:
                        return u, c, 1
        # (2) end-stage service
        for i, entry in enumerate(entries):
            if not self.end_stage[i]:
                continue
            missing = self._missing(state, i)
            if not missing:
                continue
            if self.alice_last_color in missing:
                u = uncolored_taking(state, entry.vertices, self.alice_last_color)
                if u is not None:
                    return u, self.alice_last_color, 2
            for c in missing:
                u = uncolored_taking(state, entry.vertices, c)
                if u is not None:
                    return u, c, 2
        # (3) kill looming blocks
        if any(not es for es in self.end_stage):
            self._scan_kills(state)
            mv = self._kill_step(state)
            if mv is not None:
                return mv[0], mv[1], 3
        # (4) eager multiplicity copies
        for c in self._forced_colors(state, slack=1):
            for i in self.designated[c]:
                if self._is_missing(state, i, c):
                    u = uncolored_taking(state, entries[i].vertices, c)
                    if u is not None:
                        return u, c, 4
        # (5) fresh designated colours, preferring Alice's last class
        order = list(range(len(entries)))
        last = self.entry_of_vertex.get(self.alice_last_vertex) if self.alice_last_vertex is not None else None
        if last is not None:
            order.remove(last)
            order.insert(0, last)
        for i in order:
            for c in self._missing(state, i):
                u = uncolored_taking(state, entries[i].vertices, c)
                if u is not None:
                    return u, c, 5
        # (6) anything
        v, c = first_fit(state)
        return v, c, 6

    def _late_round_move(self, state: GameState):
        # Round 2 is the plan's payoff; past it the strategy is out of plan.
        if state.round == 2:
            x = pick_winning_vertex(self, state)
            if x is not None:
                return x, None
        return first_fit(state)


def pick_winning_vertex(bob: MultiplicityBob, state: GameState) -> Optional[int]:
    """Ground-set vertex whose closed neighbourhood still shows all colours."""
    for x in bob.plan.ground_set:
        if not state.is_played(x) and state.seen[x] == state.palette:
            return x
    return None
