"""Tests of the tracer's span arithmetic on synthetic spans.

Run from the repository root with either of:

    python3 -m pytest perfbench/test_spans.py
    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Span, Tracer, covered_time, self_times, tail_percentile  # noqa: E402


def make_span(name, start, end, parent=-1, leaf_cover=0.0):
    sp = Span(name, parent, 0)
    sp.start, sp.end, sp.leaf_cover = start, end, leaf_cover
    return sp


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class CoveredTimeTest(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(covered_time(0, 10, []), 0)

    def test_disjoint_children_add_up(self):
        self.assertEqual(covered_time(0, 10, [(1, 2), (4, 7)]), 4)

    def test_overlapping_children_count_once(self):
        self.assertEqual(covered_time(0, 10, [(1, 5), (3, 8), (4, 6)]), 7)

    def test_touching_children_merge(self):
        self.assertEqual(covered_time(0, 10, [(1, 3), (3, 5)]), 4)

    def test_children_are_clipped_to_the_parent(self):
        self.assertEqual(covered_time(2, 6, [(0, 3), (5, 9)]), 2)
        self.assertEqual(covered_time(2, 6, [(7, 9)]), 0)

    def test_order_of_children_does_not_matter(self):
        self.assertEqual(covered_time(0, 10, [(6, 9), (0, 2), (1, 4)]), covered_time(0, 10, [(0, 2), (1, 4), (6, 9)]))


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans_subtract_only_direct_children(self):
        spans = [
            make_span("game", 0, 10),
            make_span("select", 1, 6, parent=0),
            make_span("inner", 2, 5, parent=1),
        ]
        self.assertEqual(self_times(spans), [5, 2, 3])

    def test_overlapping_children_are_not_subtracted_twice(self):
        spans = [
            make_span("parent", 0, 10),
            make_span("a", 1, 6, parent=0),
            make_span("b", 4, 8, parent=0),
        ]
        self.assertEqual(self_times(spans)[0], 3)

    def test_leaf_time_is_subtracted(self):
        spans = [make_span("select", 0, 10, leaf_cover=4), make_span("child", 5, 7, parent=0)]
        self.assertEqual(self_times(spans), [4, 2])


class TracerTest(unittest.TestCase):
    def test_spans_record_parents_groups_and_self_time(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def leaf():
            clock.now += 1

        def outer_leaf():
            clock.now += 2
            wrapped_leaf()  # a leaf inside a leaf is charged to the outer one

        def child():
            clock.now += 3
            wrapped_leaf()

        def game():
            clock.now += 1
            wrapped_child()
            wrapped_outer_leaf()

        wrapped_leaf = tracer.leaf("leaf", leaf)
        wrapped_outer_leaf = tracer.leaf("outer_leaf", outer_leaf)
        wrapped_child = tracer.span("child", child)
        wrapped_game = tracer.span("game", game, group_root=True)
        wrapped_game()
        wrapped_game()

        game_a, child_a, game_b, child_b = tracer.spans
        self.assertEqual([s.name for s in tracer.spans], ["game", "child", "game", "child"])
        self.assertEqual((child_a.parent, child_b.parent), (0, 2))
        self.assertEqual((game_a.group, child_a.group, game_b.group), (1, 1, 2))
        self.assertEqual(game_a.end - game_a.start, 8)
        self.assertEqual(self_times(tracer.spans), [1, 3, 1, 3])

        stats = tracer.span_stats()
        self.assertEqual(stats["game"]["calls"], 2)
        self.assertEqual(stats["game"]["self_s"], 2)
        self.assertEqual(stats["child"]["incl_s"], 8)
        leaves = tracer.leaf_stats()
        self.assertEqual(leaves["leaf"], {"calls": 4, "total_s": 4, "self_s": 4})
        self.assertEqual(leaves["outer_leaf"], {"calls": 2, "total_s": 6, "self_s": 4})

    def test_span_closes_when_the_call_raises(self):
        tracer = Tracer(FakeClock())

        def boom():
            raise KeyError("x")

        with self.assertRaises(KeyError):
            tracer.span("boom", boom)()
        tracer.span("after", lambda: None)()
        self.assertEqual(tracer.spans[1].parent, -1)


class TailPercentileTest(unittest.TestCase):
    def test_small_sample_falls_back_to_the_median(self):
        pct, value, beyond = tail_percentile(range(1, 11))
        self.assertEqual((pct, value, beyond), (50, 5, 5))

    def test_twenty_samples_give_the_median_with_ten_beyond(self):
        self.assertEqual(tail_percentile(range(1, 21)), (50, 10, 10))

    def test_hundred_samples_give_p90(self):
        self.assertEqual(tail_percentile(range(1, 101)), (90, 90, 10))

    def test_just_short_of_the_next_percentile(self):
        self.assertEqual(tail_percentile(range(1, 1000))[0], 90)
        self.assertEqual(tail_percentile(range(1, 1001)), (99, 990, 10))

    def test_order_of_samples_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0] * 30
        self.assertEqual(tail_percentile(values), tail_percentile(sorted(values)))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            tail_percentile([])


if __name__ == "__main__":
    unittest.main()
