"""Set partitions, exact weights, weight identity, colour plans."""

import dataclasses
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from eternal_coloring.graph import GnpSpec, gnp_generate
from eternal_coloring.partitions import (
    ColorPlan,
    build_color_plan,
    enumerate_partitions,
    partition_weight,
    plan_coverage_ok,
    weight_identity_check,
)


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
    """A colour plan as JSON: subset bitmask -> sorted colour list."""
    out = {}
    for A, cols in sorted(plan.subset_colors.items(), key=lambda kv: sum(1 << x for x in kv[0])):
        mask = sum(1 << x for x in A)
        out[str(mask)] = sorted(cols)
    return {"l": plan.l, "k": plan.k, "num_colors": plan.num_colors, "subset_colors": out}


def P(*blocks):
    return tuple(sorted(map(frozenset, blocks), key=min))


def _reference_identity(k: int, l: int, form: str) -> dict:
    """The identity checked pair by pair: one Fraction weight per (A, T)."""
    parts = enumerate_partitions(l)
    p = Fraction(1, k)
    report = {}
    for size in range(1, l + 1):
        for A in map(frozenset, combinations(range(l), size)):
            total = sum((partition_weight(T, k, l, form) for T in parts if A in T), Fraction(0))
            report[A] = total == p**size * (1 - p) ** (l - size)
    return report


class TestEnumeration:
    def test_counts_match_bell_numbers(self):
        assert len(enumerate_partitions(1)) == 1
        assert len(enumerate_partitions(3)) == 5
        assert len(enumerate_partitions(5)) == 52
        for l in range(1, 8):
            assert len(enumerate_partitions(l)) == bell_number(l)

    def test_each_partition_exactly_once_and_valid(self):
        for l in range(1, 7):
            parts = enumerate_partitions(l)
            assert len(set(parts)) == len(parts)
            for T in parts:
                union = set()
                for b in T:
                    assert b and not (union & b)
                    union |= b
                assert union == set(range(l))

    def test_deterministic_order(self):
        assert enumerate_partitions(4) == enumerate_partitions(4)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            enumerate_partitions(0)
        with pytest.raises(ValueError):
            enumerate_partitions(11)


class TestPartitionWeight:
    def test_two_elements_both_partitions_quarter(self):
        assert partition_weight(P({0, 1}), 2, 2) == Fraction(1, 4)
        assert partition_weight(P({0}, {1}), 2, 2) == Fraction(1, 4)

    def test_more_blocks_than_colours_is_zero(self):
        assert partition_weight(P({0}, {1}, {2}), 2, 3) == 0

    def test_three_colours_two_singletons(self):
        assert partition_weight(P({0}, {1}), 3, 2) == Fraction(2, 9)

    def test_display_form_breaks_the_identity_at_l3(self):
        # summing over partitions containing {0} as a block, k=2, l=3:
        # the counting form gives p(1-p)^2 = 1/8, the display form 3/16
        parts = enumerate_partitions(3)
        A = frozenset({0})
        proof = sum(partition_weight(T, 2, 3, "proof") for T in parts if A in T)
        display = sum(partition_weight(T, 2, 3, "display") for T in parts if A in T)
        assert proof == Fraction(1, 8)
        assert display == Fraction(3, 16)

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError):
            partition_weight(P({0}), 2, 1, "guess")

    def test_proof_form_matches_the_factorial_formula(self):
        for k in range(1, 41):
            for l in range(1, 8):
                for m in range(1, l + 1):
                    T = P(*({i} for i in range(m - 1)), range(m - 1, l))
                    expected = Fraction(factorial(k - 1), factorial(k - m) * k**l) if m <= k else 0
                    assert partition_weight(T, k, l) == expected, (k, l, m)

    def test_proof_form_is_cheap_at_a_huge_palette(self):
        assert partition_weight(P({0}, {1}), 10**9, 2) == Fraction(10**9 - 1, 10**18)

    def test_singleton_ground_set_weight_is_p(self):
        # with one element the identity pins the single partition's weight to p
        assert partition_weight(P({0}), 2, 1) == Fraction(1, 2)
        assert partition_weight(P({0}), 5, 1) == Fraction(1, 5)


class TestWeightIdentity:
    def test_k2_l2_all_subsets_pass(self):
        report = weight_identity_check(2, 2)
        assert len(report) == 3 and all(report.values())

    def test_degenerate_single_colour(self):
        # p = 1: only A = whole ground set has a nonzero target, carried
        # entirely by the one-block partition
        report = weight_identity_check(1, 3)
        assert all(report.values())
        assert partition_weight(P(range(3)), 1, 3) == 1

    def test_k4_l5_all_31_subsets_pass(self):
        report = weight_identity_check(4, 5)
        assert len(report) == 31 and all(report.values())

    def test_display_form_fails_at_k2_l3(self):
        report = weight_identity_check(2, 3, form="display")
        assert not all(report.values())

    @pytest.mark.parametrize("form", ["proof", "display"])
    def test_matches_the_pairwise_sum(self, form):
        for k in range(2, 7):
            for l in range(1, 8):
                report, expected = weight_identity_check(k, l, form), _reference_identity(k, l, form)
                assert list(report.items()) == list(expected.items()), (k, l, form)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            weight_identity_check(7, 2)
        with pytest.raises(ValueError):
            weight_identity_check(2, 8)


class TestColorPlan:
    def test_l1_single_partition_gets_everything(self):
        plan = build_color_plan(1, 2, 10)
        assert plan.subset_colors[frozenset({0})] == frozenset(range(1, 11))

    def test_l2_both_singletons_get_everything(self):
        plan = build_color_plan(2, 2, 10)
        full = frozenset(range(1, 11))
        assert plan.subset_colors[frozenset({0})] == full
        assert plan.subset_colors[frozenset({1})] == full
        assert plan.subset_colors[frozenset({0, 1})] == frozenset()
        assert plan.subset_colors[frozenset()] == frozenset()

    def test_conservation_and_disjoint_intervals(self):
        for l, k, num_colors in [(1, 2, 10), (2, 3, 11), (3, 3, 13), (3, 4, 40)]:
            plan = build_color_plan(l, k, num_colors)
            sizes = [len(plan.intervals[T]) for T in plan.partitions]
            assert sum(sizes) == num_colors
            assert all(s >= 1 for s in sizes)
            seen = set()
            for T in plan.partitions:
                cols = set(plan.intervals[T])
                assert not (cols & seen)
                seen |= cols
            assert seen == set(range(1, num_colors + 1))

    def test_coverage_invariant(self):
        for l, k, num_colors in [(1, 2, 10), (2, 2, 10), (2, 4, 12), (3, 3, 13)]:
            assert plan_coverage_ok(build_color_plan(l, k, num_colors))

    def test_zero_quota_partition_takes_a_colour_from_the_largest(self):
        # p = 1/5 on a 3-set: the three two-block partitions weigh 4/125 each
        # and the all-singletons one 12/125, so four colours apportion as
        # quotas 2/3, 2/3, 2/3 and 2.  Largest remainder leaves one two-block
        # partition at 0, and the repair moves one colour to it from the
        # all-singletons partition.
        plan = build_color_plan(3, 5, 4)
        sizes = [len(plan.intervals[T]) for T in plan.partitions]
        assert sizes == [1, 1, 1, 1]
        assert sum(sizes) == 4
        assert plan_coverage_ok(plan)

    def test_coverage_check_rejects_an_emptied_plan(self):
        # known-false control: a plan whose subsets hold no colour covers nothing
        plan = build_color_plan(3, 5, 4)
        emptied = dataclasses.replace(plan, subset_colors={A: frozenset() for A in plan.subset_colors})
        assert not plan_coverage_ok(emptied)

    def test_too_few_colours_rejected(self):
        with pytest.raises(ValueError):
            build_color_plan(3, 4, 2)  # fewer colours than positive partitions

    def test_json_export_shape(self):
        obj = plan_to_json_obj(build_color_plan(2, 2, 4))
        assert obj["subset_colors"]["1"] == [1, 2, 3, 4]  # bitmask of {0}
        assert obj["subset_colors"]["3"] == []  # bitmask of {0,1}


class TestPlanSizeBounds:
    def test_huge_classes_pass(self):
        plan = build_color_plan(2, 2, 10)
        sizes = {A: 1000 for A in plan.subset_colors}
        assert plan_size_bounds(plan, sizes, Fraction(1, 10))["ok"]

    def test_empty_class_with_colours_is_a_violation(self):
        plan = build_color_plan(2, 2, 10)
        sizes = {A: 0 for A in plan.subset_colors}
        report = plan_size_bounds(plan, sizes, Fraction(1, 10))
        assert not report["ok"]
        assert (frozenset({0}), 10, 0) in report["violations"]

    def test_against_concrete_random_graph_classes(self):
        # class sizes from an actual trace partition; the check must agree
        # with a direct recount of |colours(I)| <= (1 - eta) |class I| / 2
        g = gnp_generate(GnpSpec(200, 0.5, 3))
        l, num_colors = 2, 40
        plan = build_color_plan(l, 2, num_colors)
        class_sizes = {}
        for v in range(l, g.n):
            trace = frozenset(x for x in range(l) if g.adj[v] >> x & 1)
            class_sizes[trace] = class_sizes.get(trace, 0) + 1
        eta = Fraction(1, 10)
        report = plan_size_bounds(plan, class_sizes, eta)
        expected = [
            (A, len(cols), class_sizes.get(A, 0))
            for A, cols in plan.subset_colors.items()
            if cols and Fraction(len(cols)) > (1 - eta) * Fraction(class_sizes.get(A, 0), 2)
        ]
        assert sorted(report["violations"]) == sorted(expected)
        assert report["ok"] == (not expected)


@settings(max_examples=30, deadline=None)
@given(
    l=st.integers(1, 4),
    k=st.integers(2, 5),
    extra=st.integers(0, 30),
)
def test_plan_properties_hold_generally(l, k, extra):
    probe = build_color_plan(l, k, 64)  # 64 >= positive-partition count for l <= 4
    num_colors = len(probe.partitions) + extra
    plan = build_color_plan(l, k, num_colors)
    assert sum(len(plan.intervals[T]) for T in plan.partitions) == num_colors
    assert plan_coverage_ok(plan)
    # f(A) is exactly the union of intervals of partitions with A as a block
    for A, cols in plan.subset_colors.items():
        union = set()
        for T in plan.partitions:
            if A in T:
                union |= set(plan.intervals[T])
        assert cols == frozenset(union)
