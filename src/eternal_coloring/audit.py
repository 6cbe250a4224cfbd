"""Finite-n audits of the random-graph structure the strategies rely on.

Each check is an honest desk-scale version of a with-high-probability
statement: exhaustive where the instance is small enough, sampled (and
labelled as such) otherwise.  Witnesses always revalidate against the raw
graph.  The Hoeffding comparison is exact integer arithmetic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from math import ceil, comb
from typing import Optional

from .graph import Graph, iter_bits, mask_of, planes_add, split_by_count
from .strategies import BETA, DELTA

# K: witness count; M: block-set size; C, D: the C log n and D log n count caps
K, M, C, D = 5, 2, 5, 5


@dataclass
class AuditParams:
    """Property thresholds, as fractions of n plus their resolved integers.

    epsilon is a percent of n.  beta and delta are the strategies' BETA and
    DELTA.  All fractions resolve by ceiling (the conservative direction for
    'at most'-style properties).
    """

    p: float = 0.5
    epsilon: float = 0.1
    gamma: float = 0.02
    sample_budget: int = 20000
    seed: int = 0

    def resolved(self, n: int) -> dict:
        return {
            "danger": ceil(self.epsilon / 100 * n),
            "imbalance": ceil(self.epsilon / 200 * n),
            "beta_n": ceil(BETA * n),
            "gamma_n": ceil(self.gamma * n),
            "delta_n": ceil(DELTA * n),
        }


@dataclass
class PropertyCheck:
    name: str
    holds: bool
    method: str  # 'exhaustive' or 'sampled'
    witness: Optional[object] = None


@dataclass
class PropertyReport:
    checks: list[PropertyCheck] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)

    def by_name(self, name: str) -> PropertyCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_obj(self) -> dict:
        return {
            "all_hold": self.all_hold,
            "checks": [
                {"name": c.name, "holds": c.holds, "method": c.method, "witness": repr(c.witness)}
                for c in self.checks
            ],
        }


def check_degree_bounds(graph: Graph, p: float, epsilon: float) -> PropertyReport:
    """Max degree <= (p + eps/100)n and min degree >= (p - eps/100)n."""
    n = graph.n
    hi = (p + epsilon / 100) * n
    lo = (p - epsilon / 100) * n
    hi_witness = [v for v in range(n) if graph.degree(v) > hi]
    lo_witness = [v for v in range(n) if graph.degree(v) < lo]
    return PropertyReport(
        [
            PropertyCheck("max_degree", not hi_witness, "exhaustive", hi_witness or None),
            PropertyCheck("min_degree", not lo_witness, "exhaustive", lo_witness or None),
        ]
    )


def check_unbalanced_triple(
    graph: Graph,
    set_size: int,
    imbalance: int,
    K: int,
    samples: int = 20000,
    seed: int = 0,
) -> PropertyCheck:
    """Search for disjoint A, B of the given size with >= K vertices each
    favouring B by >= imbalance neighbours.  Exhaustive for n <= 12, and
    when no two disjoint sets of that size exist.

    'holds' means NO such triple was found.
    """
    n = graph.n
    if 2 * set_size > n:
        return PropertyCheck("unbalanced_triple", True, "exhaustive")

    if n <= 12:
        method = "exhaustive"
        pairs = (
            (A, B)
            for A in combinations(range(n), set_size)
            for B in combinations([v for v in range(n) if v not in A], set_size)
        )
    else:
        method, rng = "sampled", random.Random(seed)
        draws = (rng.sample(range(n), 2 * set_size) for _ in range(samples))  # lazy: drawn until a hit
        pairs = ((picked[:set_size], picked[set_size:]) for picked in draws)
    for A, B in pairs:
        a_mask, b_mask = mask_of(A), mask_of(B)
        bad = [
            v for v, adj in enumerate(graph.adj) if (adj & b_mask).bit_count() - (adj & a_mask).bit_count() >= imbalance
        ]
        if len(bad) >= K:
            return PropertyCheck("unbalanced_triple", False, method, (sorted(A), sorted(B), bad[:K]))
    return PropertyCheck("unbalanced_triple", True, method)


def count_nearly_full_vertices(
    graph: Graph, coloring: list[int], missing_threshold: int, num_colors: int
) -> tuple[int, list[int]]:
    """Vertices whose closed neighbourhood misses at most missing_threshold
    of the num_colors palette, ascending.  The colouring need not be proper.
    Counted on the census seen_by[c] (the vertices whose N[v] holds colour c),
    as PriorityAlice's rescue tier counts."""
    seen_by = [0] * (num_colors + 1)
    for c, closed in zip(coloring, graph.closed):
        if 0 < c <= num_colors:
            seen_by[c] |= closed
    planes = [0] * num_colors.bit_length()  # the counts, at most num_colors, as bit planes
    for m in seen_by:
        planes_add(planes, m)
    nearly_full = 0
    for m, count in split_by_count(graph.full_mask, planes):
        if num_colors - count <= missing_threshold:
            nearly_full |= m
    out = list(iter_bits(nearly_full))
    return len(out), out


def find_m_block_sets(
    graph: Graph,
    S,
    m: int,
    delta_count: int,
    enumeration_cap: int = 10**7,
    samples: int = 50000,
    seed: int = 0,
) -> dict:
    """m-sets whose closed neighbourhoods cover all but <= delta_count of S,
    plus a greedily-extracted maximal disjoint family of them."""
    s_mask = mask_of(S)
    n = graph.n

    def misses(members) -> int:
        rem = s_mask
        for a in members:
            rem &= ~graph.closed[a]
        return rem.bit_count()

    if comb(n, m) <= enumeration_cap:
        method, candidates = "exhaustive", combinations(range(n), m)
    else:
        method, rng = "sampled", random.Random(seed)
        # the distinct draws, in the order first drawn
        candidates = dict.fromkeys(tuple(sorted(rng.sample(range(n), m))) for _ in range(samples))
    found = [members for members in candidates if misses(members) <= delta_count]

    disjoint: list[tuple] = []
    used = 0
    for members in found:
        mm = mask_of(members)
        if mm & used == 0:
            disjoint.append(members)
            used |= mm
    return {"sets": found, "disjoint_family": disjoint, "method": method}


@lru_cache(maxsize=1)
def _tail_numerators(n: int, num: int, den: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Prefix and suffix sums of the terms t_j = comb(n, j) num^j q^(n-j),
    q = den - num, for 0 < num < den: (t_0 + ... + t_j, t_j + ... + t_n) by j.

    Each term comes from its neighbour by an exact integer division.  The one
    entry serves a run of checks at one (n, p) that differ only in epsilon.
    """
    q = den - num
    t = q**n
    terms = [t]
    for j in range(n):  # t_j -> t_(j+1)
        t = t * (n - j) * num // ((j + 1) * q)
        terms.append(t)
    return tuple(accumulate(terms)), tuple(accumulate(reversed(terms)))[::-1]


def _tails(n: int, p: Fraction, epsilon: Fraction) -> tuple[int, int, int]:
    """Numerators of P(Bin >= (p+eps)n) and P(Bin <= (p-eps)n) over den^n."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    num, den = p.numerator, p.denominator
    e_num, e_den = epsilon.numerator, epsilon.denominator
    scale = den * e_den
    upper_from = max(-(-(num * e_den + e_num * den) * n // scale), 0)  # ceil((p+eps)n)
    lower_to = min((num * e_den - e_num * den) * n // scale, n)  # floor((p-eps)n)
    total = den**n
    if num == 0 or num == den:  # p = 0 or 1: all the mass sits at j = 0 or j = n
        j = 0 if num == 0 else n
        return int(j >= upper_from), int(j <= lower_to), total
    below, above = _tail_numerators(n, num, den)
    upper = above[upper_from] if upper_from <= n else 0
    lower = below[lower_to] if lower_to >= 0 else 0
    return upper, lower, total


def exact_binomial_tails(n: int, p: Fraction, epsilon: Fraction) -> tuple[Fraction, Fraction]:
    """(P(Bin >= (p+eps)n), P(Bin <= (p-eps)n)) exactly, p rational.

    epsilon is a plain fraction, so 1/5 means 20% of n, unlike
    ``AuditParams.epsilon``, which is a percent of n.  Both tails are read
    from one table of term sums per (n, p), reused while only epsilon
    changes.
    """
    upper, lower, total = _tails(n, p, epsilon)
    return Fraction(upper, total), Fraction(lower, total)


def hoeffding_check(n: int, p, epsilon) -> dict:
    """Exact binomial tails vs exp(-2 eps^2 n), both sides.

    epsilon is a plain fraction, as in ``exact_binomial_tails``: 1/5 means
    20% of n, where ``AuditParams.epsilon`` would read 20.  The tails are
    first compared with a float just below the float value of the
    exponential, taken as a lower bound of the true exponential.  A pass
    there decides the check with ``decided_by: "certified"``.  Otherwise the
    tails are compared with the float value itself, which is not certified
    either way (``decided_by: "float_fallback"``).  Both comparisons are
    between integers: a float is the exact ratio ``float.as_integer_ratio()``.
    Only the verdict is returned; ``exact_binomial_tails`` gives the tails.
    """
    if n > 10**4:
        raise ValueError("exact tail summation capped at n <= 10^4")
    p = Fraction(p).limit_denominator(10**6) if not isinstance(p, Fraction) else p
    epsilon = Fraction(epsilon).limit_denominator(10**6) if not isinstance(epsilon, Fraction) else epsilon
    upper, lower, total = _tails(n, p, epsilon)
    worst = max(upper, lower)
    bound_float = math.exp(-2 * float(epsilon) ** 2 * n)
    a, b = math.nextafter(bound_float, 0.0).as_integer_ratio()
    decided_by = "certified"
    holds = worst * b <= a * total
    if not holds:
        decided_by = "float_fallback"
        a, b = bound_float.as_integer_ratio()
        holds = worst * b <= a * total
    return {"holds": holds, "decided_by": decided_by, "bound": bound_float}


def _adversarial_colorings(graph: Graph, num_colors: int, seed: int) -> list[list[int]]:
    """Colouring battery for the quantified-over-all-colourings properties:
    constant, rainbow-cyclic, random, and a greedy saturator of vertex 0."""
    n = graph.n
    rng = random.Random(seed)
    battery = [
        [1] * n,
        [(v % num_colors) + 1 for v in range(n)],
        [rng.randrange(1, num_colors + 1) for _ in range(n)],
    ]
    # saturate vertex 0: give its closed neighbourhood as many distinct colours as possible
    sat = [1] * n
    c = 1
    for u in iter_bits(graph.closed[0]):
        sat[u] = c
        c = c % num_colors + 1
    battery.append(sat)
    return battery


def audit_graph(graph: Graph, params: AuditParams) -> PropertyReport:
    """Run the degree, imbalance, nearly-full and block-scarcity audits.

    Colouring-quantified properties are audited against a battery of
    adversarial and random colourings, not all colourings (a documented
    limitation of desk-scale verification).
    """
    n = graph.n
    res = params.resolved(n)
    report = PropertyReport()
    report.checks.extend(check_degree_bounds(graph, params.p, params.epsilon).checks)

    report.checks.append(
        check_unbalanced_triple(
            graph,
            set_size=res["imbalance"],
            imbalance=res["imbalance"],
            K=K,
            samples=params.sample_budget,
            seed=params.seed,
        )
    )

    log_n = max(1, ceil(math.log(max(n, 2))))
    wide = max(1, ceil((params.p / 2 + params.epsilon / 100) * n))
    small = max(1, res["imbalance"])
    # (name, palette size, missing threshold, cap on the count, battery seed)
    for name, num_colors, missing, cap, seed in (
        ("few_nearly_full", wide, 2 * res["beta_n"], C * log_n, params.seed),
        ("few_small_color_full", small, res["gamma_n"], D * log_n, params.seed + 1),
    ):
        worst, worst_witness = 0, None
        for coloring in _adversarial_colorings(graph, num_colors, seed):
            count, verts = count_nearly_full_vertices(graph, coloring, missing, num_colors)
            if count > worst:
                worst, worst_witness = count, verts[:K]
        report.checks.append(PropertyCheck(name, worst <= cap, "sampled", worst_witness if worst > cap else None))

    rng = random.Random(params.seed + 2)
    s_size = max(1, res["danger"])
    S = rng.sample(range(n), min(s_size, n))
    blocks = find_m_block_sets(
        graph,
        S,
        m=M,
        delta_count=res["delta_n"],
        enumeration_cap=10**6,
        samples=params.sample_budget,
        seed=params.seed + 3,
    )
    report.checks.append(
        PropertyCheck(
            "block_scarcity",
            len(blocks["disjoint_family"]) <= K,
            blocks["method"],
            blocks["disjoint_family"][: K + 1] or None,
        )
    )
    return report
