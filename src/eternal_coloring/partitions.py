"""Set partitions, exact partition weights, and colour plans.

Everything here is exact rational arithmetic (fractions.Fraction); no
operation in this module rounds.

The weight function over partitions of an l-element ground set satisfies,
for p = 1/k and every nonempty A subset of the ground set,

    sum over partitions T containing A as a block of weight(T)
        = p^|A| * (1-p)^(l-|A|).

Two candidate formulas are implemented.  The 'proof' form,
k^-l * (k-1)! / (k-|T|)!, the falling factorial of k-1 of length |T|-1 (0 once
|T| > k), follows the ordered-partition counting argument and satisfies the
identity exactly; it costs |T| - 1 products at any k.  The 'display' form,
k^-l * (k-1)! / (|T|-1)!  for |T| <= l, breaks the identity from l = 3 on.
It is kept as a known-false control: the tests and the benchmark's ``exact``
workload both check that the identity fails for it at k = 2, l = 3.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial, perm

MAX_GROUND_SET = 10  # Bell(10) = 115975; enumeration guard

SetPartition = tuple[frozenset, ...]  # blocks ordered by minimum element


def enumerate_partitions(l: int) -> list[SetPartition]:
    """All partitions of {0..l-1}, canonical blocks, deterministic order.

    Enumerates restricted-growth strings lexicographically, which lists
    partitions in a fixed order with blocks indexed by first appearance.
    """
    if not 1 <= l <= MAX_GROUND_SET:
        raise ValueError(f"l must be in 1..{MAX_GROUND_SET}")
    out: list[SetPartition] = []

    def grow(pos: int, blocks: list[list[int]]):
        if pos == l:
            out.append(tuple(frozenset(b) for b in blocks))
            return
        for b in blocks:
            b.append(pos)
            grow(pos + 1, blocks)
            b.pop()
        blocks.append([pos])
        grow(pos + 1, blocks)
        blocks.pop()

    grow(1, [[0]])
    return out


def partition_weight(T: SetPartition, k: int, l: int, form: str = "proof") -> Fraction:
    """Exact weight of partition T under palette parameter k (p = 1/k)."""
    return _block_count_weight(len(T), k, l, form)


def _block_count_weight(m: int, k: int, l: int, form: str) -> Fraction:
    """The weight of every partition of m blocks: it depends on T only via |T|."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if form == "proof":
        return Fraction(perm(k - 1, m - 1), k**l)
    if form == "display":
        return Fraction(factorial(k - 1), factorial(m - 1) * k**l)
    raise ValueError(f"unknown form {form!r}")


def weight_identity_check(k: int, l: int, form: str = "proof") -> dict[frozenset, bool]:
    """Verify the defining identity for every nonempty A; exact equality.

    One pass over the partitions counts, for each block A, the partitions
    holding A by their number of blocks; A's sum is then those counts times
    the l weights, one per block count.
    """
    if k > 6 or l > 7:
        raise ValueError("identity check is capped at k <= 6, l <= 7")
    weight = [_block_count_weight(m, k, l, form) for m in range(1, l + 1)]
    counts: defaultdict = defaultdict(lambda: [0] * l)  # A -> partitions holding A, by block count - 1
    for T in enumerate_partitions(l):
        for A in T:
            counts[A][len(T) - 1] += 1
    p = Fraction(1, k)
    report: dict[frozenset, bool] = {}
    for size in range(1, l + 1):
        for A in map(frozenset, combinations(range(l), size)):
            total = sum((c * w for c, w in zip(counts[A], weight) if c), Fraction(0))
            target = p**size * (1 - p) ** (l - size)
            report[A] = total == target
    return report


@dataclass(frozen=True)
class ColorPlan:
    """Contiguous colour intervals per partition and the induced subset map."""

    l: int
    k: int
    num_colors: int
    partitions: tuple  # ordered positive-weight partitions receiving intervals
    intervals: dict  # partition -> range of colours (1-based, contiguous)
    subset_colors: dict  # frozenset -> frozenset of colours


def build_color_plan(l: int, k: int, num_colors: int) -> ColorPlan:
    """Apportion colours over partitions and derive the subset -> colours map.

    The one-block partition is excluded for l >= 2 (its colours would have to
    sit in the common intersection); for l = 1 it is the whole family and is
    kept.  Interval lengths come from largest-remainder apportionment over the
    exact weights, so the total is exactly num_colors and every positive-weight
    partition gets a nonempty interval.
    """
    family = [T for T in enumerate_partitions(l) if len(T) > 1 or l == 1]
    weighted = [(T, partition_weight(T, k, l)) for T in family]
    positive = [(T, w) for T, w in weighted if w > 0]
    if not positive:
        raise ValueError("no positive-weight partitions; plan impossible")
    if num_colors < len(positive):
        raise ValueError(
            f"num_colors={num_colors} cannot give each of {len(positive)} partitions a colour"
        )
    total = sum(w for _, w in positive)
    quotas = [(T, Fraction(num_colors) * w / total) for T, w in positive]
    sizes = {T: int(q) for T, q in quotas}
    leftover = num_colors - sum(sizes.values())
    by_remainder = sorted(
        range(len(quotas)), key=lambda i: (quotas[i][1] - int(quotas[i][1]), -i), reverse=True
    )
    for i in by_remainder[:leftover]:
        sizes[quotas[i][0]] += 1
    # guarantee nonempty intervals (conservation-preserving transfer)
    for T, _ in positive:
        while sizes[T] == 0:
            donor = max(positive, key=lambda tw: sizes[tw[0]])[0]
            sizes[donor] -= 1
            sizes[T] += 1
    intervals: dict = {}
    start = 1
    for T, _ in positive:
        intervals[T] = range(start, start + sizes[T])
        start += sizes[T]
    assert start - 1 == num_colors
    subset_colors: dict = {}
    for size in range(0, l + 1):
        for A in map(frozenset, combinations(range(l), size)):
            cols: set[int] = set()
            for T, _ in positive:
                if A in T:
                    cols.update(intervals[T])
            subset_colors[A] = frozenset(cols)
    return ColorPlan(
        l=l,
        k=k,
        num_colors=num_colors,
        partitions=tuple(T for T, _ in positive),
        intervals=intervals,
        subset_colors=subset_colors,
    )


def plan_coverage_ok(plan: ColorPlan) -> bool:
    """Every ground element sees the full palette across its subsets."""
    full = frozenset(range(1, plan.num_colors + 1))
    for x in range(plan.l):
        seen: set[int] = set()
        for A, cols in plan.subset_colors.items():
            if x in A:
                seen.update(cols)
        if frozenset(seen) != full:
            return False
    return True
