"""Set partitions, exact partition weights, and colour plans.

Everything here is exact rational arithmetic (fractions.Fraction); no
operation in this module rounds.

The weight function over partitions of an l-element ground set satisfies,
for p = 1/k and every nonempty A subset of the ground set,

    sum over partitions T containing A as a block of weight(T)
        = p^|A| * (1-p)^(l-|A|).

Two candidate formulas are implemented.  The 'proof' form,
k^-l * (k-1)! / (k-|T|)!  for |T| <= k (else 0), follows the ordered-partition
counting argument and satisfies the identity exactly.  The 'display' form,
k^-l * (k-1)! / (|T|-1)!  for |T| <= l, breaks the identity from l = 3 on and
is retained only so tests can demonstrate the failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Iterable

MAX_GROUND_SET = 10  # Bell(10) = 115975; enumeration guard

SetPartition = tuple[frozenset, ...]  # blocks ordered by minimum element


def canonical_partition(blocks: Iterable[Iterable[int]]) -> SetPartition:
    bs = [frozenset(b) for b in blocks]
    if any(not b for b in bs):
        raise ValueError("blocks must be nonempty")
    seen: set[int] = set()
    for b in bs:
        if seen & b:
            raise ValueError("blocks must be disjoint")
        seen |= b
    return tuple(sorted(bs, key=min))


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


def bell_number(l: int) -> int:
    """Bell numbers by the binomial recurrence."""
    bell = [1]
    for n in range(1, l + 1):
        total, binom = 0, 1
        for j in range(n):
            total += binom * bell[j]
            binom = binom * (n - 1 - j) // (j + 1)
        bell.append(total)
    return bell[l]


def partition_weight(T: SetPartition, k: int, l: int, form: str = "proof") -> Fraction:
    """Exact weight of partition T under palette parameter k (p = 1/k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    m = len(T)
    if form == "proof":
        if m > k:
            return Fraction(0)
        return Fraction(factorial(k - 1), factorial(k - m) * k**l)
    if form == "display":
        if m > l:
            return Fraction(0)
        return Fraction(factorial(k - 1), factorial(m - 1) * k**l)
    raise ValueError(f"unknown form {form!r}")


def weight_identity_check(k: int, l: int, form: str = "proof") -> dict[frozenset, bool]:
    """Verify the defining identity for every nonempty A; exact equality."""
    if k > 6 or l > 7:
        raise ValueError("identity check is capped at k <= 6, l <= 7")
    parts = enumerate_partitions(l)
    p = Fraction(1, k)
    report: dict[frozenset, bool] = {}
    ground = range(l)
    for size in range(1, l + 1):
        for A in _subsets_of_size(ground, size):
            total = sum(
                (partition_weight(T, k, l, form) for T in parts if A in T),
                Fraction(0),
            )
            target = p**size * (1 - p) ** (l - size)
            report[A] = total == target
    return report


def _subsets_of_size(ground, size):
    for combo in combinations(ground, size):
        yield frozenset(combo)


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
    all_parts = enumerate_partitions(l)
    if l >= 2:
        one_block = canonical_partition([range(l)])
        family = [T for T in all_parts if T != one_block]
    else:
        family = all_parts
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
            if sizes[donor] <= 1:
                raise ValueError("cannot give every partition a colour")
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
        for A in _subsets_of_size(range(l), size):
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


def plan_size_bounds(plan: ColorPlan, class_sizes: dict, eta: Fraction) -> dict:
    """Check |colours(I)| <= (1 - eta) * |class I| / 2 for every subset I.

    class_sizes maps frozenset -> vertex count from a concrete graph.
    Returns {'ok': bool, 'violations': [(subset, n_colors, class_size)]}.
    """
    violations = []
    for A, cols in plan.subset_colors.items():
        if not cols:
            continue
        size = class_sizes.get(A, 0)
        if Fraction(len(cols)) > (1 - eta) * Fraction(size, 2):
            violations.append((A, len(cols), size))
    return {"ok": not violations, "violations": violations}


def plan_to_json_obj(plan: ColorPlan) -> dict:
    """Subset-bitmask -> sorted colour list, for configs and golden tests."""
    out = {}
    for A, cols in sorted(plan.subset_colors.items(), key=lambda kv: sum(1 << x for x in kv[0])):
        mask = sum(1 << x for x in A)
        out[str(mask)] = sorted(cols)
    return {"l": plan.l, "k": plan.k, "num_colors": plan.num_colors, "subset_colors": out}
