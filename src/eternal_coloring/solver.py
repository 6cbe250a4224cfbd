"""Exact solver for the eternal colouring game on tiny graphs.

The eternal game with a finite palette has a finite position space once the
absolute round number is dropped: the rules only distinguish the first round
(vertices start uncoloured, no recolour restriction) from all later rounds.
Alice wins iff she can keep the play inside the safe region forever, which in
a finite game graph means avoiding Bob's attractor to the set of positions
where a stuck vertex can be (or must be) chosen.

A position is one int (see ``_pack``).  With width = k.bit_length(), the
colour of vertex v (0 = uncoloured) is the width-bit field at bit width * v.
Above the n colour fields come the played-this-round mask (n bits), the mover
bit (0 = Alice) and the phase bit (0 = first round, 1 = any later round).
A move is one int too: target id + 1, vertex v and colour c, from the high
field down (see ``_target_shift``).  Target id -1, with c = 0, is a stuck
vertex: Bob's win.

The move table and its per-state offsets are ``array("q")`` buffers, 8 bytes
a move rather than a pointer to a separately allocated int.  Under the
default state cap no move int reaches 2^63: that takes 2^(63 - tshift)
states, over 10^8 while k < 2^28, and the cap refuses any larger k.  The
positions are an ``array("q")`` too when a key fits, in width * n + n + 2
<= 63 bits, and a list of ints otherwise.  Which
colours are legal at a vertex depends only on the colouring and on whether
the mover plays greedily, so a solve builds each colouring's move templates
once, not once per position: per vertex v and legal colour c, the XOR that
takes a parent key to the child's, and the move int into state 0 (the
child's id, shifted to the target field, is added to it).  Under colour
symmetry every child's colours are renumbered, through a cache of the
renumbered colour fields.  Each state's in-degree is counted as it is
explored, so the predecessor table needs one pass over the moves.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from math import comb
from typing import Optional

from .engine import GameState, Player, RuleVariant, Strategy, legal_mask
from .graph import Graph, iter_bits


class SolverInfeasible(RuntimeError):
    """State-space bound above the cap; no approximation is attempted."""


ALICE, BOB = 0, 1


@dataclass
class SolveResult:
    winner: Player
    states_explored: int
    graph: Graph
    k: int
    variant: RuleVariant
    # state id -> position key: array("q") when a key fits in 63 bits, else a
    # list; a witness builds the reverse lookup it needs
    _states: array | list
    # _rank is indexed by node = state id + 1: a node's attractor rank, None
    # outside Bob's attractor; node 0 is the stuck-vertex sink, of rank 0
    _rank: list
    _moves: array  # array("q") of the move ints of every state in turn, each by v, then c ascending
    _start: array  # array("q"): state s owns _moves[_start[s]:_start[s + 1]]
    _canonical: bool = False

    @property
    def max_rank(self) -> int:
        """The deepest attractor rank; 0 when only the stuck-vertex sink is ranked."""
        return max(r for r in self._rank if r is not None)

    def witness_strategy(self, player: Player) -> "WitnessStrategy":
        return WitnessStrategy(self, player)


def _pack(colors, played: int, mover: int, phase: int, k: int) -> int:
    """Position key of a colour sequence, played mask, mover and phase."""
    width = k.bit_length()
    n = len(colors)
    key = played | mover << n | phase << n + 1
    for c in reversed(colors):
        key = key << width | c
    return key


def _mover_bit(n: int, k: int) -> int:
    return 1 << k.bit_length() * n + n


def _target_shift(n: int, k: int) -> int:
    """Low bit of a move int's target field; v sits above the k.bit_length()
    bits of c, in n.bit_length() bits."""
    return k.bit_length() + n.bit_length()


def _relabelled(fields: int, shifts: list, k: int) -> int:
    """The colour fields `fields`, colours renamed 1, 2, ... by first appearance."""
    cmask = (1 << k.bit_length()) - 1
    label = [0] * (k + 1)
    nxt = 1
    key = 0
    for s in shifts:
        c = fields >> s & cmask
        if c:
            lab = label[c]
            if not lab:
                lab = label[c] = nxt
                nxt += 1
            key |= lab << s
    return key


def _renamings(n: int, k: int) -> list:
    """counts[m]: the colourings of m vertices by at most k colours, up to
    renaming the colours: the sum over j <= min(k, m) of Stirling's S(m, j)."""
    row, counts = [1], [1]  # row[j] = S(m, j)
    for m in range(1, n + 1):
        row = [0] + [j * a + b for j, a, b in zip(range(1, m + 1), row[1:] + [0], row)]
        counts.append(sum(row[: k + 1]))
    return counts


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
    otherwise.  An instance is refused up front when an upper bound of its
    reachable positions exceeds state_cap.  With c_m the colourings of m
    vertices (k^m, or up to renaming under colour symmetry), first-round
    positions number at most sum_m C(n, m) c_m, (k+1)^n plainly (the played
    set is the coloured set, and its parity fixes the mover), later ones at
    most c_n 2^n, twice that for odd n, where either player may open a
    round.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if color_symmetry and variant is not RuleVariant.STANDARD:
        raise ValueError("colour-symmetry reduction is only sound for STANDARD rules")
    n = graph.n
    # counts[m]: the colourings of m coloured vertices, up to renaming under colour symmetry
    counts = _renamings(n, k) if color_symmetry else [k**m for m in range(n + 1)]
    bound = sum(comb(n, m) * c for m, c in enumerate(counts)) + counts[n] * (1 << n) * (1 + n % 2)
    if bound > state_cap:
        raise SolverInfeasible(f"up to {bound} reachable states exceeds cap {state_cap}")

    full = graph.full_mask
    closed = [tuple(iter_bits(m)) for m in graph.closed]  # N[v] for the walk below
    palette = ((1 << k) - 1) << 1
    width = k.bit_length()
    cmask = (1 << width) - 1
    shifts = [width * v for v in range(n)]
    pshift = width * n  # the played field
    colour_fields = (1 << pshift) - 1
    mover_bit = _mover_bit(n, k)
    phase_bit = mover_bit << 1
    tshift = _target_shift(n, k)
    greedy_for = (variant is RuleVariant.GREEDY_BOTH, variant is not RuleVariant.STANDARD)  # by mover

    initial = _pack([0] * n, 0, ALICE, 0, k)
    index: dict[int, int] = {initial: 0}
    get = index.get
    states = array("q", [initial]) if pshift + n + 2 <= 63 else [initial]
    moves = array("q")
    start = array("q", [0])
    indeg, sink = [0], 0  # indeg[s]: the moves into state s so far; sink: the stuck-vertex moves
    # move templates, one row per colouring keyed by the colour fields with the
    # greedy flag at the played field's low bit: row[v] holds (xor, tail) per
    # colour c legal at v, shared by (v, old colour, legal)
    rows: dict[int, tuple] = {}
    templates: dict[tuple, tuple] = {}
    relabelled: dict[int, int] = {}  # child colour fields -> the same renumbered
    sid = 0
    while sid < len(states):  # ids are handed out in discovery order: breadth-first
        key = states[sid]
        sid += 1
        played = key >> pshift & full
        greedy = greedy_for[key >> pshift + n & 1]
        colouring = key & colour_fields | greedy << pshift
        row = rows.get(colouring)
        if row is None:
            cols = [key >> s & cmask for s in shifts]
            row = []
            for v, old, s in zip(range(n), cols, shifts):
                seen = 0
                for u in closed[v]:
                    seen |= 1 << cols[u]  # bit 0 (uncoloured) lies outside the palette
                legal = legal_mask(seen, palette, greedy)
                tpl = templates.get(tkey := (v, old, legal))
                if tpl is None:  # a child is key ^ xor: mover flipped, v played, its old colour swapped for c
                    flip = mover_bit | 1 << pshift + v
                    tpl = templates[tkey] = tuple(
                        (flip | (old ^ c) << s, 1 << tshift | v << width | c) for c in iter_bits(legal))
                row.append(tpl)
            row = rows[colouring] = tuple(row)
        m = full & ~played
        if not m & m - 1:  # one vertex left: its move turns the round over
            key ^= full << pshift | phase_bit & ~key
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            if not row[v]:  # v is stuck: a move into the sink
                moves.append(v << width)
                sink += 1
            for xor, tail in row[v]:
                child = key ^ xor
                if color_symmetry:  # colours numbered 1, 2, ... by first appearance
                    fields = child & colour_fields
                    renumbered = relabelled.get(fields)
                    if renumbered is None:
                        renumbered = relabelled[fields] = _relabelled(fields, shifts, k)
                    child ^= fields ^ renumbered
                tid = get(child)
                if tid is None:
                    tid = len(states)
                    if tid >= state_cap:
                        raise SolverInfeasible(f"reachable states exceed cap {state_cap}")
                    index[child] = tid
                    states.append(child)
                    indeg.append(1)
                else:
                    indeg[tid] += 1
                moves.append((tid << tshift) + tail)
        start.append(len(moves))
    del index, get, rows, templates, relabelled  # exploration only: free them before the attractor's tables

    num = len(states)
    # Backward fixed point over nodes t = state id + 1, from the sink t = 0.
    # Node t's predecessors are pred[pstart[t]:pstart[t + 1]], in reverse
    # move order: each block is filled from its end.  A rank is 1 + the
    # least (Bob) or greatest (Alice) rank among the successors, so the
    # order does not matter.
    indeg.append(0)
    pstart = list(accumulate(indeg, initial=sink))  # pstart[t]: the end of t's block
    del indeg
    pred = [0] * len(moves)
    for u in range(1, num + 1):
        for mv in moves[start[u - 1]:start[u]]:
            t = mv >> tshift
            i = pstart[t] - 1
            pred[i] = u
            pstart[t] = i

    rank: list[Optional[int]] = [None] * (num + 1)
    rank[0] = 0
    # Hits a node still needs: Alice's node falls once all its moves are
    # attracted, Bob's at the first.  A node falls when its count reaches 0;
    # later hits take it below 0, so it never falls twice.
    remaining = [0] + [1 if key & mover_bit else b - a for a, b, key in zip(start, start[1:], states)]
    queue = deque([0])
    while queue:
        t = queue.popleft()
        r = rank[t] + 1
        for u in pred[pstart[t]:pstart[t + 1]]:
            remaining[u] -= 1
            if not remaining[u]:
                rank[u] = r
                queue.append(u)

    return SolveResult(
        winner=Player.ALICE if rank[1] is None else Player.BOB,
        states_explored=num,
        graph=graph,
        k=k,
        variant=variant,
        _states=states,
        _rank=rank,
        _moves=moves,
        _start=start,
        _canonical=color_symmetry,
    )


def attractor_is_fixed_point(result: SolveResult) -> bool:
    """Re-apply one attractor step; a correct attractor gains nothing."""
    rank, moves, start = result._rank, result._moves, result._start
    n, k = result.graph.n, result.k
    tshift, mover_bit = _target_shift(n, k), _mover_bit(n, k)
    for sid, key in enumerate(result._states):
        if rank[sid + 1] is not None:
            continue
        hits = [rank[mv >> tshift] is not None for mv in moves[start[sid]:start[sid + 1]]]
        if (True in hits) if key & mover_bit else (False not in hits):
            return False
    return True


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
        self._index = {key: sid for sid, key in enumerate(result._states)}  # position key -> state id

    def reset(self, graph, k, variant, seed=None):
        if graph != self.result.graph or k != self.result.k or variant is not self.result.variant:
            raise ValueError("witness strategy bound to a different instance")

    def select(self, state: GameState):
        res = self.result
        mover = ALICE if state.to_move is Player.ALICE else BOB
        sid = self._index.get(_pack(state.colors, state.played, mover, 0 if state.round == 1 else 1, res.k))
        if sid is None:
            raise RuntimeError("position not in solved table (unreachable under the rules?)")
        rank = res._rank
        width, tshift = res.k.bit_length(), _target_shift(res.graph.n, res.k)
        row = res._moves[res._start[sid]:res._start[sid + 1]]
        best = None
        if self.player is Player.BOB:
            # the first move of least rank into the attractor (the sink ranks 0)
            for mv in row:
                t = mv >> tshift
                if rank[t] is not None and (best is None or rank[t] < best_rank):
                    best, best_rank = mv, rank[t]
            if best is None:
                raise RuntimeError("Bob witness called outside his winning region")
        else:
            for mv in row:
                if rank[mv >> tshift] is None:
                    best = mv
                    break
            else:
                raise RuntimeError("Alice witness called inside Bob's attractor")
        c = best & (1 << width) - 1
        return best >> width & (1 << tshift - width) - 1, c or None


@dataclass
class ChromaticScan:
    k_star: Optional[int]
    winners: dict  # k -> Player, for every k solved: 1 up to k_star


def eternal_game_chromatic_number(
    graph: Graph,
    variant: RuleVariant = RuleVariant.STANDARD,
    state_cap: int = 10**8,
) -> ChromaticScan:
    """Smallest k with an Alice win; k = Delta + 2 always suffices.  The scan
    stops at the first Alice win."""
    winners: dict[int, Player] = {}
    k_star = None
    for k in range(1, graph.max_degree() + 3):
        res = solve_eternal(graph, k, variant, state_cap=state_cap)
        winners[k] = res.winner
        if res.winner is Player.ALICE:
            k_star = k
            break
    return ChromaticScan(k_star=k_star, winners=winners)
