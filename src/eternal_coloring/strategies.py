"""Move-selection policies for the eternal colouring game.

Implements the priority-list strategies the analysis of random graphs rests
on: Alice's danger/mirror strategy, Bob's single-target strategy for odd n,
Bob's generalized multi-target strategy, plus two baselines.  All asymptotic
thresholds are explicit integer knobs in StrategyParams so the strategies can
run at desk scale.

PriorityAlice keeps two records of her own, both updated in ``observe`` from
the move just played, so she must observe every move from ``reset`` on: her
round book of Bob-minus-Alice tallies, and her colour census, the number of
palette colours each closed neighbourhood sees.  Both are bit planes that
``planes_add`` and ``planes_sub`` update.  ``select`` refuses a position
whose colouring differs from the one her observed moves left.  TargetBob
keeps a colour book the same way (the colours in order of first appearance,
and which of them have no copy in the target's closed neighbourhood), so he
too must observe every move from ``reset`` on.  Each of his blocking-pair
scans depends only on the graph, block_distance, the uncoloured part of the
target's closed neighbourhood and the part of it coloured since his last
scan, not on k: its rows are kept per graph in a weak-keyed table, shared by
every game on the graph and gone with it.

Ties break deterministically, so that games against deterministic opponents
are reproducible: lowest vertex index first, then smallest colour, except in
PriorityAlice's two mirror tiers, which take the smallest colour first, then
the lowest vertex.
"""

from __future__ import annotations

import random
import weakref
from collections import deque
from dataclasses import dataclass, field
from math import ceil
from typing import Iterator, Optional

from .engine import ALICE, BOB, GameState, MoveRecord, Player, Strategy, legal_at
from .graph import Graph, iter_bits, planes_add, planes_sub, split_by_count
from .partitions import build_color_plan


# The paper's fractions of n, resolved by StrategyParams.from_fractions.
EPSILON = 0.05
BETA = 0.02
DELTA = 0.05


@dataclass
class StrategyParams:
    """Integer-resolved thresholds for the priority strategies.

    The fraction-of-n forms are documented next to each field; use
    ``from_fractions`` to resolve them at a concrete n.
    """

    danger_threshold: int = 1  # ceil(EPSILON/100 * n); also the min-uncoloured gate for blocking
    nearly_full_threshold: int = 1  # ceil(BETA * n)
    block_distance: int = 1  # ceil(DELTA * n)
    reserve_missing: int = 10  # 10K, with block budget K = 1
    multiplicity: int = 4  # C_l
    block_set_size: Optional[int] = None  # m for multi-target blocks; default 100 * C_l * l

    def __post_init__(self):
        for name in ("danger_threshold", "nearly_full_threshold", "block_distance", "multiplicity"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.reserve_missing < 0:
            raise ValueError("reserve_missing must be >= 0")
        if self.block_set_size is not None and self.block_set_size < 1:
            raise ValueError("block_set_size must be None or >= 1")

    @classmethod
    def from_fractions(cls, n: int) -> "StrategyParams":
        return cls(
            danger_threshold=max(1, ceil(EPSILON / 100 * n)),
            nearly_full_threshold=max(1, ceil(BETA * n)),
            block_distance=max(1, ceil(DELTA * n)),
        )


def smallest_legal(state: GameState, v: int) -> Optional[int]:
    """The smallest colour N[v] does not see, under any variant."""
    seen_by, bit = state.seen_by, 1 << v
    for c in range(1, state.k + 1):
        if not seen_by[c] & bit:
            return c
    return None


def unplayed_vertices(state: GameState):
    return iter_bits(~state.played & state.graph.full_mask)


def first_fit(state: GameState) -> tuple[int, Optional[int]]:
    """Lowest-index unplayed vertex with its smallest legal colour."""
    rest = ~state.played & state.graph.full_mask
    v = (rest & -rest).bit_length() - 1
    return v, smallest_legal(state, v)


def uncolored_taking(state: GameState, mask: int, c: int) -> Optional[int]:
    """Lowest-index uncoloured vertex of mask where colour c is legal (round 1)."""
    free = mask & state.color_pos[0] & ~state.seen_by[c]
    return (free & -free).bit_length() - 1 if free else None


def copy_into(state: GameState, mask: int, colors) -> Optional[tuple[int, int]]:
    """Bob's round-1 copy-in: the first colour of colors absent from mask
    that some uncoloured vertex of mask can take, with the lowest such
    vertex, as a move (vertex, colour); None if there is none."""
    pos = state.color_pos
    for c in colors:
        if not pos[c] & mask:
            u = uncolored_taking(state, mask, c)
            if u is not None:
                return u, c
    return None


def next_move(queue: deque) -> Optional[tuple[int, int]]:
    """The next move of the oldest unfinished move sequence in queue; the
    finished ones leave it.  A sequence resumes on the board it was made
    for, which play mutates in place."""
    while queue:
        mv = next(queue[0], None)
        if mv is not None:
            return mv
        queue.popleft()
    return None


def claim_or_first_fit(state: GameState, ground) -> tuple[int, Optional[int]]:
    """Bob's move from round 2 on.  Round 2 is the plan's payoff: claim the
    first unplayed vertex of ground whose closed neighbourhood shows the
    whole palette.  Otherwise, and past round 2, where the plan is spent,
    greedy first fit."""
    if state.round == 2:
        for x in ground:
            if not state.is_played(x) and not legal_at(state, x):
                return x, None
    return first_fit(state)


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

    def reset(self, graph, k, variant, seed=None):
        self.rng = random.Random(seed if seed is not None else self._init_seed)

    def select(self, state: GameState):
        pairs = [(v, c) for v in unplayed_vertices(state) for c in iter_bits(legal_at(state, v))]
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
    # Bob-minus-Alice plays in N[v], per v, as two's-complement bit planes:
    # bit v of diff[j] is bit j of v's tally.  A tally lies in [-n, n], and
    # n.bit_length() + 1 planes hold that range.
    diff: list[int] = field(init=False)
    danger_mask: int = 0
    last_bob_vertex: Optional[int] = None

    def __post_init__(self):
        self.diff = [0] * (self.n.bit_length() + 1)


def record_round_move(book: RoundBook, graph: Graph, player: Player, vertex: int, threshold: int) -> None:
    """Count one move into the round's tallies.

    A vertex is dangerous once Bob's plays in its closed neighbourhood exceed
    Alice's by at least the threshold at ANY prefix of the round; dangerousness
    is sticky for the rest of the round.

    The move adds (Bob) or subtracts (Alice) the mask N[vertex] on the tally
    planes, all tallies at once (planes_add, planes_sub).  A tally rises one
    step at a time, so it first reaches the threshold by equalling it just
    after one of Bob's moves in its closed neighbourhood.  A threshold above
    n, which no tally reaches, endangers nothing.
    """
    diff, m = book.diff, graph.closed[vertex]
    if player is BOB:
        book.last_bob_vertex = vertex
        planes_add(diff, m)
        if threshold <= book.n:  # below 2**(len(diff) - 1): it cannot alias
            for j, plane in enumerate(diff):  # the vertices of N[vertex] whose tally is threshold
                m &= plane if threshold >> j & 1 else ~plane
            book.danger_mask |= m
    else:  # Alice's plays only lower the tallies, so they endanger nothing
        planes_sub(diff, m)


class PriorityAlice(Strategy):
    """Alice's priority strategy: urgent vertices, then mirrors, then anything.

    Priorities per move:
      1. an unplayed vertex missing fewer than nearly_full_threshold colours
         in its closed neighbourhood;
      2. if Bob's previous move w is not dangerous, a playable mirror of w
         with respect to the current danger set;
      3. the playable vertex covering the most pressure, or, before Bob
         has moved this round, the lowest-index playable vertex; with no
         playable vertex, the lowest-index unplayed one (a concession).
    The chosen vertex always gets the smallest legal colour.  One count of
    the colours each unplayed or dangerous vertex sees feeds all three tiers:
    the census, which observe keeps up to date move by move.
    """

    name = "priorityAlice"

    def __init__(self, params: StrategyParams):
        self.params = params

    def reset(self, graph, k, variant, seed=None):
        self.graph = graph
        self.k = k
        self.book = RoundBook(round=1, n=graph.n)
        self.audit_log: list[tuple[int, int, int]] = []  # (round, move idx, priority)
        # The census: count[v], the palette colours N[v] sees, for every v,
        # as bit planes (bit v of census[j] is bit j of count[v]).  No count
        # exceeds k, so k.bit_length() planes hold it.  seen[c] is
        # state.seen_by[c] as of the last observed move, and colors[v] the
        # colour that move left at v: what a move changed is read off them.
        self.census = [0] * k.bit_length()
        self.seen = [0] * (k + 1)
        self.colors = [0] * graph.n

    def observe(self, state: GameState, rec: MoveRecord):
        if rec.round > self.book.round:
            self.book = RoundBook(round=rec.round, n=self.graph.n)
        record_round_move(self.book, self.graph, rec.player, rec.vertex, self.params.danger_threshold)
        # A move changes two census masks at most: seen_by[c] gains the
        # vertices now seeing c, and seen_by[old] of a recolour loses those
        # that no longer see v's previous colour.
        v, c, census, seen, seen_by = rec.vertex, rec.color, self.census, self.seen, state.seen_by
        old, self.colors[v] = self.colors[v], c
        now = seen_by[c]
        planes_add(census, now & ~seen[c])
        seen[c] = now
        if old:
            now = seen_by[old]
            planes_sub(census, seen[old] & ~now)
            seen[old] = now

    def select(self, state: GameState):
        if self.colors != state.colors:
            raise RuntimeError("PriorityAlice was handed a position she has not observed: she must observe every move from reset on")
        if state.round > self.book.round:
            self.book = RoundBook(round=state.round, n=self.graph.n)
        v, c, prio = self._choose(state)
        self.audit_log.append((state.round, state.played.bit_count(), prio))
        return v, c

    def _choose(self, state: GameState) -> tuple[int, Optional[int], int]:
        # The census split over the vertices the tiers read, the unplayed
        # and the dangerous ones, serves every tier: tier 1 reads its
        # unplayed part, tier 3 its dangerous part, lvl[L] = the dangerous
        # vertices seeing L colours, up to the top level.
        seen_by, k = state.seen_by, self.k
        unplayed = ~state.played & self.graph.full_mask
        d_mask = self.book.danger_mask
        live = unplayed | d_mask
        # (1) rescue vertices about to see the whole palette: fewest missing
        # colours first, then the lowest vertex.  A vertex already seeing
        # everything is unrescuable (playing it would concede), so it is no
        # candidate.
        urgent, most, full = 0, k - self.params.nearly_full_threshold, 0
        lvl, top = [0] * (k + 2), -1
        for m, count in split_by_count(live, self.census):
            u = m & unplayed
            if u:
                if count == k:
                    full = u
                elif count > most:
                    urgent, most = u, count
            d = m & d_mask
            if d:
                lvl[count] = d
                if count > top:
                    top = count
        if urgent:
            v = (urgent & -urgent).bit_length() - 1
            return v, smallest_legal(state, v), 1
        # Bob's last move of this round; the book starts afresh each round, so
        # w, when set, is played and no candidate.  Before Bob has moved this
        # round there is nothing to mirror: open on the lowest playable vertex.
        # With no playable vertex, the lowest unplayed one concedes.
        w = self.book.last_bob_vertex
        playable = unplayed & ~full
        if w is None or not playable:
            pool = playable or unplayed
            v = (pool & -pool).bit_length() - 1
            return v, smallest_legal(state, v), 3
        # cands[i] = (c, got): got holds the playable vertices whose smallest
        # legal colour is c, for ascending c
        cands, left, c = [], playable, 1
        while left:
            got = left & ~seen_by[c]
            if got:
                cands.append((c, got))
                left ^= got
            c += 1
        # (2) exact mirror of Bob's last non-dangerous move w.r.t. the danger
        # set (choice among mirrors is free: take the cheapest colour, then
        # the lowest vertex).  v mirrors w when each dangerous t is adjacent
        # to both or to neither, so each t cuts the playable non-dangerous
        # vertices down to those on w's side of it: about half of them.
        if not d_mask >> w & 1:
            adj = self.graph.adj
            near, mirrors, rest = adj[w], playable & ~d_mask, d_mask
            while rest and mirrors:
                low = rest & -rest
                rest ^= low
                t = low.bit_length() - 1
                mirrors &= adj[t] if near & low else ~adj[t]
            if mirrors:
                for c, got in cands:  # the groups partition the playable vertices
                    got &= mirrors
                    if got:
                        return (got & -got).bit_length() - 1, c, 2
        # (3) the arbitrary move is free, so spend it where the pressure is:
        # cover the most-pressured neighbourhoods, coolest colour on ties.
        return (*self._playable_mirror(state, cands, lvl, top), 3)

    def _playable_mirror(self, state: GameState, cands: list[tuple[int, int]], lvl: list[int], top: int) -> tuple[int, int]:
        # Best-effort mirror.  Exact mirrors (identical adjacency to the whole
        # danger set) quickly stop existing at small n, so we keep the
        # invariant the mirror exists to provide — Alice plays next to a
        # pressured vertex at least as often as Bob does — directly: take the
        # playable vertex whose neighbourhood covers the most pressure, the
        # single most-pressured vertex outranking any number of
        # mildly-pressured ones.  Ties break towards the smallest usable
        # colour, keeping Alice's distinct-colour footprint low, then towards
        # the lowest vertex.
        #
        # A dangerous vertex t is at level L when it sees L colours (lvl[L],
        # up to lvl[top]).  Covering it with a colour it already sees is a
        # pure slot-burn and counts at level L; a colour new to it also fills
        # it, which counts one level lower (and not at all from level 0).  A
        # candidate's cover is its count per level, compared from the top
        # level down: the score sum_L count_L * (n+1)**L of the weighted form,
        # since no count reaches n+1.  So the candidates, _choose's (colour,
        # vertices) groups, are cut to the best count level by level, from
        # the top, until one is left; a level returns only a unique best, so
        # their order does not matter.  A group's vertices share its colour
        # c, so they share one cover mask per level, and a group is cut to
        # the mask of its best-scoring vertices.  The groups stay in
        # ascending colour, so the lowest vertex of the first group left is
        # the (colour, vertex) minimum.
        seen_by, adj = state.seen_by, self.graph.adj
        for level in range(top, -1, -1):
            hit, miss = lvl[level], lvl[level + 1]
            if not hit | miss:
                continue
            best, keep = -1, []
            for c, got in cands:
                s = seen_by[c]
                cover = (s & hit) | (miss & ~s)
                group_best, tie = -1, 0
                while got:
                    low = got & -got
                    got ^= low
                    count = (adj[low.bit_length() - 1] & cover).bit_count()
                    if count > group_best:
                        group_best, tie = count, low
                    elif count == group_best:
                        tie |= low
                if group_best > best:
                    best, keep = group_best, [(c, tie)]
                elif group_best == best:
                    keep.append((c, tie))
            if len(keep) == 1 and not keep[0][1] & (keep[0][1] - 1):
                c, tie = keep[0]
                return tie.bit_length() - 1, c
            cands = keep
        c, tie = cands[0]
        return (tie & -tie).bit_length() - 1, c


# ---------------------------------------------------------------------------
# Bob, single target (odd n)
# ---------------------------------------------------------------------------


# The rows of TargetBob's pair scans: _SCAN_ROWS[graph][dist, u, gone][a], for
# block_distance dist, the uncoloured target part u and the part `gone` of
# the last scan's u coloured since, is the mask of every b > a whose pair
# with a misses at most dist vertices of u and some vertex of gone, or None
# until a game first reads row a.  The target enters only through u and gone.
# The keys are weak, so a graph's rows go with it: a fresh run starts cold.
_SCAN_ROWS = weakref.WeakKeyDictionary()


def _pair_row(miss: list[int], far: list[int], a: int, dist: int) -> int:
    """The mask of the b > a whose pair with a misses at most dist vertices
    of u and some vertex of gone (miss[x] = u minus N[x], far[x] = gone
    minus N[x]).  Few pairs qualify, so a plain range walk beats a bit
    walk."""
    far_a = far[a]
    if not far_a:
        return 0
    miss_a, row = miss[a], 0
    for b in range(a + 1, len(miss)):
        if (miss_a & miss[b]).bit_count() <= dist and far_a & far[b]:
            row |= 1 << b
    return row


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
    In round 2, Bob claims the target if it sees the whole palette (choosing
    it wins); otherwise, and from round 3 on, he plays greedy first fit.

    Tiers 1 and 3 read a colour book that observe keeps, so Bob must observe
    every round-1 move from reset on: `outside`, the colours with no copy in
    N[target] in order of first appearance, as dict keys.  Round 1 never
    recolours, so a move's colour is new when the moved vertex holds its
    only copy, and a colour once inside stays inside: popping it leaves the
    others in order.  Round 1 is the only round that reads the book, so
    observe stops keeping it after round 1.  Tiers 1 and 3 share one walk of
    `outside`.
    """

    name = "targetBob"

    def __init__(self, params: StrategyParams, target: int = 0):
        self.params = params
        self.target = target

    def reset(self, graph, k, variant, seed=None):
        self.graph = graph
        self.target_mask = graph.closed[self.target]
        self.outside: dict[int, None] = {}  # colours absent from N[target], by first appearance
        self.batches: deque[Iterator[tuple[int, int]]] = deque()  # blocking moves of each scan, FIFO
        self.seen_pairs: set[tuple[int, int]] = set()  # (a, b), a < b, drawn so far
        self.last_u = -1  # uncoloured part of N[target] at the last scan; -1 before the first
        self.audit_log: list[tuple[int, int, int]] = []
        self.drop_log: list[str] = []

    def observe(self, state: GameState, rec: MoveRecord):
        if rec.round > 1:
            return
        c = rec.color
        if self.target_mask >> rec.vertex & 1:
            self.outside.pop(c, None)
        elif state.color_pos[c] == 1 << rec.vertex:  # c's first copy
            self.outside[c] = None

    # -- round-1 helpers ----------------------------------------------------

    def _smallest_unused(self, state: GameState) -> Optional[int]:
        try:
            return state.color_pos.index(0, 1)
        except ValueError:
            return None

    def _scan_block_pairs(self, state: GameState) -> None:
        """Queue a batch: the blocking moves of every unseen unplayed pair
        (a, b), a < b, in ascending order, whose union of closed
        neighbourhoods misses at most block_distance uncoloured vertices of
        the target's closed neighbourhood.

        The batch is a snapshot: its pairs are tested against the board of
        this call, but only once `next_move` has run the sequences before
        them to their end.  Batches drain FIFO, so when a pair is tested
        `seen_pairs` holds every pair of the batches before it and of its own
        batch before it, just as if all pairs had been tested here, and the
        pairs come in the same order.  The one exception is a row whose a the
        live board has since coloured inside the target: its pairs could gain
        nothing, so they are skipped unseen (see `_block_pairs`).  Every
        batch tests its pairs through rows shared by every game on the graph
        (`_SCAN_ROWS`).
        """
        u_mask = self.target_mask & state.color_pos[0]
        last_u = self.last_u
        if u_mask == last_u:
            return
        self.last_u = u_mask
        self.batches.append(self._block_pairs(state, u_mask, last_u & ~u_mask, ~state.played & self.graph.full_mask))

    def _block_pairs(self, state: GameState, u_mask: int, gone: int, rest: int) -> Iterator[tuple[int, int]]:
        """The blocking moves of the new qualifying pairs of one scan.  A
        pair is tested once the sequence of the pair before it has ended.

        Round 1 (the only round that scans) only shrinks the uncoloured target
        part u and the unplayed set, so a pair's miss count never rises and a
        pair that qualified at the last scan is seen already.  A pair new to
        the queue thus misses a vertex of `gone`, the part of u coloured since
        the last scan: only such pairs are tested.  `last_u` starts at -1,
        every vertex, so a game's first scan counts every vertex outside u as
        gone, those above n included: every pair misses one, and the scan
        tests them all.  Which pairs qualify depends on the graph,
        block_distance, u and gone alone, not on k, the target or the play:
        row a, the qualifying b > a, is computed by the first game on the
        graph that reads it and kept in `_SCAN_ROWS`, and a game reads the
        unplayed part of it.

        Row a is read against the live `state` too, at its top and after the
        sequence of each of its pairs (which may have coloured a): once a
        holds a colour present in N[target] the row ends.  In round 1 that
        colour stays on a and stays inside, so no pair left in the row could
        gain anything, and no later scan offers the played a again; the
        skipped pairs never enter `seen_pairs` or the drop log.  These two
        checks are the only guard against such stale pairs: nothing is played
        between them and a pair's `_block_moves`, which assumes a holds no
        colour inside N[target].
        """
        dist, graph = self.params.block_distance, self.graph
        # colour c is inside N[target] iff seen_by[c] >> t & 1 (never for c = 0,
        # uncoloured); it is read at each test, since play changes it between yields
        colors, seen_by, t = state.colors, state.seen_by, self.target
        rows = _SCAN_ROWS.setdefault(graph, {}).setdefault((dist, u_mask, gone), [None] * graph.n)
        miss = far = None  # built once a row must be filled
        seen_pairs = self.seen_pairs
        while rest:
            low = rest & -rest
            rest ^= low  # rest = unplayed vertices above a
            a = low.bit_length() - 1
            if seen_by[colors[a]] >> t & 1:
                continue
            row = rows[a]
            if row is None:
                if miss is None:
                    miss = [u_mask & ~c for c in graph.closed]
                    far = [gone & ~c for c in graph.closed]
                row = rows[a] = _pair_row(miss, far, a, dist)
            cand = rest & row
            while cand:
                bit = cand & -cand
                cand ^= bit
                b = bit.bit_length() - 1
                if (a, b) not in seen_pairs:
                    seen_pairs.add((a, b))
                    yield from self._block_moves(state, a, b)
                    if seen_by[colors[a]] >> t & 1:
                        break

    def _block_moves(self, state: GameState, a: int, b: int) -> Iterator[tuple[int, int]]:
        """Bob's blocking moves for a pair (a, b) threatening the target.

        Stage A gives a a colour c_a not yet in the target's closed
        neighbourhood (a fresh one if a is uncoloured) and introduces c_a
        there; stage B does the same for b.  Each stage defers to Alice's
        pre-emptions.  A sequence that can no longer gain anything ends early
        and is logged as a drop.  The sequence resumes on the same `state`,
        which play mutates in place.  It starts with no colour of N[target]
        on a, which `_block_pairs` checks.
        """
        # colour c is inside N[target] iff seen_by[c] >> t & 1, read at each
        # test: play changes seen_by between yields
        seen_by, t, target = state.seen_by, self.target, self.target_mask
        c_a = state.colors[a]
        if not c_a:
            c_a = self._smallest_unused(state)
            if c_a is None:
                self._log_drop(a, b, "no unused colour for a")
                return
            yield a, c_a
        # If Alice played b with a colour missing from the target, that colour
        # goes in first and c_a next; stage B then finds b's colour inside and
        # ends the sequence.
        col_b = state.colors[b]
        if col_b and not seen_by[col_b] >> t & 1:
            u = uncolored_taking(state, target, col_b)
            if u is not None:
                yield u, col_b
        if not seen_by[c_a] >> t & 1:
            u = uncolored_taking(state, target, c_a)
            if u is None:
                self._log_drop(a, b, "c_a not introducible")
                return
            yield u, c_a
        # Stage B.  Round 1 never recolours, so a b coloured inside ends it here.
        c_b = state.colors[b]
        if not c_b:
            c_b = self._smallest_unused(state)
            if c_b is None:
                self._log_drop(a, b, "no unused colour for b")
                return
            yield b, c_b
        if seen_by[c_b] >> t & 1:
            return
        u = uncolored_taking(state, target, c_b)
        if u is None:
            self._log_drop(a, b, "c_b not introducible")
            return
        yield u, c_b

    def _log_drop(self, a: int, b: int, why: str) -> None:
        self.drop_log.append(f"pair ({a},{b}) dropped: {why}")

    def select(self, state: GameState):
        if state.round >= 2:
            return claim_or_first_fit(state, (self.target,))
        v, c, prio = self._round1_move(state)
        self.audit_log.append((state.round, state.played.bit_count(), prio))
        return v, c

    def _round1_move(self, state: GameState) -> tuple[int, Optional[int], int]:
        pos, target_mask = state.color_pos, self.target_mask
        # (1) colours seen >= twice outside, absent inside, FIFO: the colours
        # of `outside` in order.  The same walk finds tier 3's move, the
        # first colour seen once (round 1 leaves a copy of each) that can go
        # in; tier 2 below only queues and draws, so it changes no board.
        once = None
        for c in self.outside:
            if pos[c].bit_count() >= 2:
                u = uncolored_taking(state, target_mask, c)
                if u is not None:
                    return u, c, 1
            elif once is None:
                u = uncolored_taking(state, target_mask, c)
                if u is not None:
                    once = u, c, 3
        # (2) blocking obligations
        unused = pos.count(0) - (not pos[0])  # pos[0], the uncoloured set, is no colour
        if unused >= self.params.reserve_missing and (target_mask & pos[0]).bit_count() >= self.params.danger_threshold:
            self._scan_block_pairs(state)
            mv = next_move(self.batches)
            if mv is not None:
                return mv[0], mv[1], 2
        # (3) colours seen exactly once outside, absent inside, FIFO
        if once is not None:
            return once
        # (4) brand-new colours into the target
        c = self._smallest_unused(state)
        if c is not None:
            mv = copy_into(state, target_mask, (c,))
            if mv is not None:
                return (*mv, 4)
        # (5) anything
        v, c = first_fit(state)
        return v, c, 5


# ---------------------------------------------------------------------------
# Bob, generalized multi-target plan (even n, p = 1/k')
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanEntry:
    vertices: int  # bitmask of a class: the vertices adjacent to the same ground vertices
    colors: tuple  # designated colour set Y_i, ascending


@dataclass(frozen=True)
class TargetPlan:
    ground_set: tuple  # the l distinguished vertices
    entries: tuple  # PlanEntry, disjoint vertex sets

    @property
    def l(self) -> int:
        return len(self.ground_set)


def bob_even_setup(graph: Graph, l: int, k: int, num_colors: int) -> TargetPlan:
    """Fix the lowest-index l vertices as the ground set, split the rest by
    adjacency trace, and attach the colour-plan sets.  Requires p = 1/k style
    palettes: the colour plan construction needs the exact partition weights.
    ValueError when l is out of range or no plan fits l, k and num_colors.
    """
    if l < 1 or l > graph.n:
        raise ValueError(f"l={l} out of range")
    plan = build_color_plan(l, k, num_colors)
    ground = tuple(range(l))
    classes: dict[frozenset, int] = {}
    for v in range(l, graph.n):
        trace = frozenset(x for x in ground if graph.adj[v] >> x & 1)
        classes[trace] = classes.get(trace, 0) | (1 << v)
    entries = []
    for subset in sorted(plan.subset_colors, key=lambda s: (len(s), sorted(s))):
        colors = plan.subset_colors[subset]
        if not colors:
            continue
        vertices = classes.get(subset, 0)
        if vertices == 0:
            raise ValueError(f"class for trace {sorted(subset)} is empty but needs colours")
        entries.append(PlanEntry(vertices, tuple(sorted(colors))))
    return TargetPlan(ground_set=ground, entries=tuple(entries))


class MultiplicityBob(Strategy):
    """Bob's generalized strategy driving designated colours into target classes.

    Round-1 priorities (highest first): multiplicity-forced copies, end-stage
    service, block killing, eager multiplicity copies, fresh designated
    colours (preferring the class Alice just played in), then anything.
    In round 2, Bob claims a ground-set vertex seeing all colours; otherwise,
    and from round 3 on, he plays greedy first fit.
    """

    name = "multiplicityBob"

    def __init__(self, plan: TargetPlan, params: StrategyParams):
        self.plan = plan
        self.params = params

    def reset(self, graph, k, variant, seed=None):
        self.graph = graph
        self.k = k
        entries = self.plan.entries
        self.entry_of_vertex = {v: i for i, e in enumerate(entries) for v in iter_bits(e.vertices)}
        self.end_stage = [False] * len(entries)
        # designated[c]: the vertex masks of the classes c is designated to
        self.designated = [[e.vertices for e in entries if c in e.colors] for c in range(k + 1)]
        self.alice_last_entry = None  # the class of Alice's last vertex, if any
        self.alice_last_color = None
        self.pending: deque[Iterator[tuple[int, int]]] = deque()  # kill sequences, FIFO
        self.seen_kills: set[tuple[frozenset, int]] = set()  # (m-set, class)
        self.audit_log: list[tuple[int, int, int]] = []

    def observe(self, state: GameState, rec: MoveRecord):
        i = self.entry_of_vertex.get(rec.vertex)
        if i is not None and not self.end_stage[i]:
            entry = self.plan.entries[i]
            missing = sum(1 for c in entry.colors if not state.color_pos[c] & entry.vertices)
            self.end_stage[i] = missing <= self.params.reserve_missing
        if rec.player is ALICE:
            self.alice_last_entry = i
            self.alice_last_color = rec.color

    # -- helpers -------------------------------------------------------------

    def _miss_count(self, state: GameState, c: int) -> int:
        pos = state.color_pos[c]
        return sum(1 for vertices in self.designated[c] if not pos & vertices)

    def _forces_copy(self, state: GameState, c: int, copies: int) -> bool:
        """The multiplicity rule: with copies copies of colour c on the
        board, q = min(l, copies // C_l), and c must be copied in once more
        than l - q of its classes miss it.  A colour no class is designated
        misses none, so it is never forced."""
        l = self.plan.l
        q = min(l, copies // self.params.multiplicity)
        return q >= 1 and self._miss_count(state, c) > l - q

    def _forced_copy(self, state: GameState, extra: int) -> Optional[tuple[int, int]]:
        """The copy of the smallest colour that the rule forces at its count
        plus extra and that a class missing it can take, into the first such
        class.  With extra > 0 only colours already on the board count."""
        for c in range(1, self.k + 1):
            r = state.color_pos[c].bit_count()
            if extra and not r:
                continue
            if self._forces_copy(state, c, r + extra):
                for vertices in self.designated[c]:
                    mv = copy_into(state, vertices, (c,))
                    if mv is not None:
                        return mv
        return None

    def _safe_kill_color(self, state: GameState, vertex: int) -> Optional[int]:
        """Smallest colour legal at vertex whose extra copy will not itself
        force a priority-(1) move."""
        legal = legal_at(state, vertex)
        for c in iter_bits(legal):
            if not self._forces_copy(state, c, state.color_pos[c].bit_count() + 1):
                return c
        return next(iter_bits(legal), None)

    def _scan_kills(self, state: GameState) -> None:
        m = self.params.block_set_size or 100 * self.params.multiplicity * self.plan.l
        dist = self.params.block_distance
        unplayed = ~state.played & self.graph.full_mask
        closed = self.graph.closed
        for i, entry in enumerate(self.plan.entries):
            if self.end_stage[i]:
                continue
            u_mask = entry.vertices & state.color_pos[0]
            if u_mask.bit_count() < self.params.danger_threshold:
                continue
            # greedy max-coverage candidate m-set, the lowest best cover
            # first.  What remains is uncoloured, so unplayed in round 1, and
            # each of its vertices covers itself: a best cover always exists,
            # and it is never a member.
            members, remaining = [], u_mask
            while len(members) < m:
                best = max(iter_bits(unplayed), key=lambda a: (remaining & closed[a]).bit_count())
                members.append(best)
                remaining &= ~closed[best]
                if remaining.bit_count() <= dist:
                    break
            if remaining.bit_count() <= dist:
                key = (frozenset(members), i)
                if key not in self.seen_kills:
                    self.seen_kills.add(key)
                    self.pending.append(self._kill_moves(state, members))

    def _kill_moves(self, state: GameState, members: list[int]) -> Iterator[tuple[int, int]]:
        """Kill an m-set: colour each still-uncoloured member with a safe
        colour, then copy that colour into each class it was missing from.
        The sequence resumes on the same `state`, which play mutates in place.
        """
        for a in members:
            if state.colors[a]:
                continue
            c = self._safe_kill_color(state, a)
            if c is None:
                continue
            missing = [vertices for vertices in self.designated[c] if not state.color_pos[c] & vertices]
            yield a, c
            for vertices in missing:
                mv = copy_into(state, vertices, (c,))
                if mv is not None:
                    yield mv

    def select(self, state: GameState):
        if state.round >= 2:
            return claim_or_first_fit(state, self.plan.ground_set)
        v, c, prio = self._round1_move(state)
        self.audit_log.append((state.round, state.played.bit_count(), prio))
        return v, c

    def _round1_move(self, state: GameState):
        entries = self.plan.entries
        # (1) multiplicity-forced copies
        mv = self._forced_copy(state, 0)
        if mv is not None:
            return (*mv, 1)
        # (2) end-stage service, Alice's last colour first when the class wants it
        a = self.alice_last_color
        for i, entry in enumerate(entries):
            if self.end_stage[i]:
                first = (a,) if a in entry.colors else ()
                mv = copy_into(state, entry.vertices, first + entry.colors)
                if mv is not None:
                    return (*mv, 2)
        # (3) kill looming blocks
        if any(not es for es in self.end_stage):
            self._scan_kills(state)
            mv = next_move(self.pending)
            if mv is not None:
                return (*mv, 3)
        # (4) eager multiplicity copies, one level early
        mv = self._forced_copy(state, self.params.multiplicity)
        if mv is not None:
            return (*mv, 4)
        # (5) fresh designated colours, Alice's last class first (visited twice, to no effect)
        last = self.alice_last_entry
        order = range(len(entries)) if last is None else (last, *range(len(entries)))
        for i in order:
            mv = copy_into(state, entries[i].vertices, entries[i].colors)
            if mv is not None:
                return (*mv, 5)
        # (6) anything
        v, c = first_fit(state)
        return v, c, 6
