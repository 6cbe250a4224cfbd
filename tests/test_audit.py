"""Structural audits: degree bounds, imbalanced triples, colour saturation,
block scarcity, exact binomial tails versus the exponential bound."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eternal_coloring import audit
from eternal_coloring.audit import (
    AuditParams,
    PropertyCheck,
    audit_graph,
    check_degree_bounds,
    check_unbalanced_triple,
    count_nearly_full_vertices,
    exact_binomial_tails,
    find_m_block_sets,
    hoeffding_check,
)
from eternal_coloring.graph import GnpSpec, Graph, gnp_generate, make_named, mask_of
from eternal_coloring.strategies import StrategyParams


def _direct_tails(n, p, eps):
    """Both tails as plain sums of comb(n, j) p^j (1-p)^(n-j)."""
    num, den = p.numerator, p.denominator
    hi, lo = math.ceil((p + eps) * n), math.floor((p - eps) * n)
    term = lambda j: Fraction(math.comb(n, j) * num**j * (den - num) ** (n - j), den**n)
    return sum(term(j) for j in range(max(hi, 0), n + 1)), sum(term(j) for j in range(0, lo + 1))


def _reference_hoeffding(n, p, eps):
    """hoeffding_check's verdict from the direct tails, compared as Fractions."""
    upper, lower = _direct_tails(n, p, eps)
    bound = math.exp(-2 * float(eps) ** 2 * n)
    for decided_by, cut in (("certified", math.nextafter(bound, 0.0)), ("float_fallback", bound)):
        holds = upper <= Fraction(cut) and lower <= Fraction(cut)
        if holds:
            break
    return {"bound": bound, "holds": holds, "decided_by": decided_by}


_TAIL_GRID_NP = [(n, Fraction(a, b)) for n in (0, 1, 9, 24) for a, b in ((1, 3), (1, 2), (7, 10))]
_TAIL_GRID_EPS = [Fraction(0), Fraction(1, 20), Fraction(1, 6), Fraction(9, 20), Fraction(3, 2)]


class TestDegreeBounds:
    def test_complete_graph_respects_max_bound_at_p_one(self):
        report = check_degree_bounds(make_named("complete", 20), p=1.0, epsilon=0.5)
        assert report.by_name("max_degree").holds

    def test_empty_graph_fails_min_bound(self):
        report = check_degree_bounds(make_named("empty", 10), p=0.5, epsilon=0.5)
        check = report.by_name("min_degree")
        assert not check.holds
        assert check.witness  # every vertex violates

    def test_dense_random_graph_within_wide_bounds(self):
        # epsilon is the percent-style knob: 50 means degrees within (0.5 +- 0.5)n
        g = gnp_generate(GnpSpec(500, 0.5, 1))
        report = check_degree_bounds(g, p=0.5, epsilon=50)
        assert report.all_hold

    def test_by_name_refuses_an_unknown_check(self):
        report = check_degree_bounds(make_named("path", 4), p=0.5, epsilon=50)
        with pytest.raises(KeyError, match="mean_degree"):
            report.by_name("mean_degree")

    def test_witnesses_revalidate(self):
        g = gnp_generate(GnpSpec(60, 0.5, 4))
        report = check_degree_bounds(g, p=0.5, epsilon=0.01)
        hi = (0.5 + 0.01 / 100) * g.n
        for v in report.by_name("max_degree").witness or []:
            assert g.degree(v) > hi


class TestUnbalancedTriple:
    def test_complete_bipartite_is_an_adversarial_hit(self):
        m = 3
        g = Graph(2 * m, [(i, m + j) for i in range(m) for j in range(m)])
        check = check_unbalanced_triple(g, set_size=m, imbalance=m, K=m)
        assert not check.holds  # a triple exists by construction
        assert check.method == "exhaustive"
        A, B, bad = check.witness
        # revalidate the witness against the raw graph
        for v in bad:
            to_b = sum(1 for u in B if g.has_edge(v, u))
            to_a = sum(1 for u in A if g.has_edge(v, u))
            assert to_b - to_a >= m

    def test_impossible_imbalance_holds_vacuously(self):
        g = gnp_generate(GnpSpec(10, 0.5, 0))
        assert check_unbalanced_triple(g, set_size=2, imbalance=g.n + 1, K=1).holds

    def test_sets_too_large_to_be_disjoint_hold_beyond_the_exhaustive_range(self):
        # every vertex clears imbalance -n, so any disjoint A, B of size 7
        # would be a witness; there are none on 12 or 13 vertices
        for n in (12, 13):
            check = check_unbalanced_triple(gnp_generate(GnpSpec(n, 0.5, 1)), set_size=7, imbalance=-n, K=1)
            assert check.holds and check.method == "exhaustive", n

    def test_random_graph_sampled_search_finds_nothing(self):
        g = gnp_generate(GnpSpec(300, 0.5, 2))
        check = check_unbalanced_triple(g, set_size=30, imbalance=15, K=40, samples=3000, seed=7)
        assert check.holds
        assert check.method == "sampled"

    def test_sampled_search_returns_the_first_hit_in_draw_order(self):
        # pins the seeded draw order: the first hit is draw 237, so 236
        # draws find nothing
        g = gnp_generate(GnpSpec(30, 0.5, 1))
        check = check_unbalanced_triple(g, set_size=2, imbalance=2, K=6, samples=2000, seed=1)
        assert check == PropertyCheck("unbalanced_triple", False, "sampled", ([19, 27], [18, 23], [2, 5, 8, 11, 12, 16]))
        assert check_unbalanced_triple(g, set_size=2, imbalance=2, K=6, samples=236, seed=1).holds
        A, B, bad = check.witness
        for v in bad:
            assert (g.adj[v] & mask_of(B)).bit_count() - (g.adj[v] & mask_of(A)).bit_count() >= 2, v


class TestNearlyFull:
    def test_monochromatic_colouring_counts_nothing(self):
        g = gnp_generate(GnpSpec(20, 0.5, 5))
        count, verts = count_nearly_full_vertices(g, [1] * g.n, 8, num_colors=10)
        assert count == 0 and verts == []

    def test_rainbow_clique_saturates_everyone(self):
        n = 8
        g = make_named("complete", n)
        count, verts = count_nearly_full_vertices(g, list(range(1, n + 1)), 0, num_colors=n)
        assert count == n and verts == list(range(n))

    def test_greedy_saturator_fixture_is_counted(self):
        g = gnp_generate(GnpSpec(200, 0.5, 9))
        from eternal_coloring.graph import iter_bits

        num_colors = 10
        coloring = [1] * g.n
        c = 1
        for u in iter_bits(g.closed[0]):
            coloring[u] = c
            if c < num_colors:
                c += 1
        count, verts = count_nearly_full_vertices(g, coloring, 0, num_colors)
        assert 0 in verts


def _reference_nearly_full(graph, coloring, missing_threshold, num_colors):
    """count_nearly_full_vertices as per-vertex colour sets over N[v]."""
    out = []
    for v in range(graph.n):
        seen = set()
        for u in range(graph.n):
            if u == v or graph.has_edge(u, v):
                c = coloring[u]
                if c:
                    seen.add(c)
        if num_colors - len(seen & set(range(1, num_colors + 1))) <= missing_threshold:
            out.append(v)
    return len(out), out


@st.composite
def _nearly_full_case(draw):
    """A graph on up to 40 vertices, and a colouring that may leave vertices
    uncoloured, give neighbours one colour and use colours above num_colors."""
    n = draw(st.integers(1, 40))
    graph = gnp_generate(GnpSpec(n, draw(st.floats(0, 1)), draw(st.integers(0, 2**32))))
    num_colors = draw(st.integers(1, 12))
    coloring = draw(st.lists(st.integers(0, num_colors + 3), min_size=n, max_size=n))
    missing_threshold = draw(st.integers(-1, num_colors + 1))
    return graph, coloring, missing_threshold, num_colors


@settings(max_examples=300, deadline=None)
@given(case=_nearly_full_case())
def test_nearly_full_count_matches_per_vertex_colour_sets(case):
    assert count_nearly_full_vertices(*case) == _reference_nearly_full(*case)


class TestBlockSets:
    def test_single_dominating_vertex_found(self):
        g = make_named("star", 6)
        result = find_m_block_sets(g, {1, 2, 3}, m=1, delta_count=0)
        assert (0,) in result["sets"]
        assert result["method"] == "exhaustive"

    def test_empty_graph_has_no_covering_sets(self):
        g = make_named("empty", 8)
        result = find_m_block_sets(g, {0, 1, 2, 3, 4}, m=2, delta_count=2)
        assert result["sets"] == []  # closed nbhds are singletons

    def test_random_graph_pair_blocks_are_absent(self):
        import random

        g = gnp_generate(GnpSpec(100, 0.5, 13))
        S = random.Random(1).sample(range(100), 50)
        result = find_m_block_sets(g, S, m=2, delta_count=1)
        assert result["method"] == "exhaustive"  # C(100,2) well under the cap
        assert result["sets"] == []

    def test_sampled_sets_are_revalidated_exhaustive_ones(self):
        g = gnp_generate(GnpSpec(30, 0.5, 1))
        S = set(range(10))
        exhaustive = find_m_block_sets(g, S, m=2, delta_count=3)
        sampled = find_m_block_sets(g, S, m=2, delta_count=3, enumeration_cap=1, samples=2000, seed=4)
        assert sampled["method"] == "sampled"
        for a, b in sampled["sets"]:
            assert (0b1111111111 & ~g.closed[a] & ~g.closed[b]).bit_count() <= 3, (a, b)  # S = 0..9
        assert len(sampled["sets"]) == 362 and len(exhaustive["sets"]) == 367
        assert set(sampled["sets"]) <= set(exhaustive["sets"])

    def test_disjoint_family_is_disjoint(self):
        g = gnp_generate(GnpSpec(30, 0.6, 3))
        result = find_m_block_sets(g, set(range(10)), m=3, delta_count=3)
        used = set()
        for members in result["disjoint_family"]:
            assert not (used & set(members))
            used |= set(members)


class TestHoeffding:
    def test_known_small_case(self):
        result = hoeffding_check(10, Fraction(1, 2), Fraction(1, 5))
        assert exact_binomial_tails(10, Fraction(1, 2), Fraction(1, 5))[0] == Fraction(176, 1024)
        assert math.isclose(result["bound"], math.exp(-0.8))
        assert result["holds"]

    def test_threshold_beyond_n_gives_zero_tail(self):
        result = hoeffding_check(20, Fraction(1, 2), Fraction(3, 5))
        assert exact_binomial_tails(20, Fraction(1, 2), Fraction(3, 5))[0] == 0
        assert result["holds"]

    def test_zero_epsilon_bound_is_one(self):
        result = hoeffding_check(15, Fraction(1, 3), Fraction(0))
        assert result["bound"] == 1.0
        assert result["holds"]

    def test_exact_tails_against_direct_summation(self):
        from math import comb

        n, p, eps = 12, Fraction(1, 3), Fraction(1, 6)
        upper, lower = exact_binomial_tails(n, p, eps)
        thresh_hi = math.ceil((p + eps) * n)
        thresh_lo = math.floor((p - eps) * n)
        pmf = [Fraction(comb(n, j)) * p**j * (1 - p) ** (n - j) for j in range(n + 1)]
        assert upper == sum(pmf[thresh_hi:])
        assert lower == sum(pmf[: thresh_lo + 1])
        assert sum(pmf) == 1

    def test_exact_tails_at_p_zero_and_one(self):
        for n in (0, 1, 7):
            for p in (Fraction(0), Fraction(1)):
                for eps in (Fraction(0), Fraction(1, 4), Fraction(3, 2)):
                    assert exact_binomial_tails(n, p, eps) == _direct_tails(n, p, eps), (n, p, eps)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 60),
        p=st.integers(1, 12).flatmap(lambda b: st.integers(0, b).map(lambda a: Fraction(a, b))),
        eps=st.fractions(min_value=0, max_value=1, max_denominator=200).filter(lambda e: e < 1),
    )
    def test_exact_tails_match_direct_summation(self, n, p, eps):
        # eps near 1 puts both thresholds beyond 0..n
        assert exact_binomial_tails(n, p, eps) == _direct_tails(n, p, eps)

    def test_decided_by_names_the_deciding_comparison(self):
        assert hoeffding_check(10, Fraction(1, 2), Fraction(1, 5))["decided_by"] == "certified"
        # a tail of exactly 1 against exp(0) = 1: the float just below 1 fails,
        # and the float 1.0 itself, exact here, decides the check
        result = hoeffding_check(5, Fraction(0), Fraction(0))
        assert exact_binomial_tails(5, Fraction(0), Fraction(0))[1] == 1 and result["bound"] == 1.0
        assert result["holds"] and result["decided_by"] == "float_fallback"

    def test_result_is_the_verdict_only(self):
        # the exact tails come from exact_binomial_tails alone
        result = hoeffding_check(10, Fraction(1, 2), Fraction(1, 5))
        assert set(result) == {"holds", "decided_by", "bound"}

    def test_size_cap(self):
        with pytest.raises(ValueError):
            hoeffding_check(10**5, Fraction(1, 2), Fraction(1, 10))

    @pytest.mark.parametrize(
        "n, p, eps, name",
        [
            (-3, Fraction(1, 2), Fraction(1, 10), "n"),
            (10, Fraction(3, 2), Fraction(1, 10), "p"),
            (10, Fraction(-1, 2), Fraction(1, 10), "p"),
            (10, Fraction(1, 2), Fraction(-1, 10), "epsilon"),
        ],
    )
    def test_out_of_range_input_is_rejected(self, n, p, eps, name):
        for check in (hoeffding_check, exact_binomial_tails):
            with pytest.raises(ValueError, match=f"^{name} must"):
                check(n, p, eps)

    @pytest.mark.parametrize(
        "n, p, eps, message",
        [
            (10, Fraction(3, 2), Fraction(1, 10), "p must lie in [0, 1], got 3/2"),
            (10, Fraction(-1, 2), Fraction(1, 10), "p must lie in [0, 1], got -1/2"),
            (10, Fraction(1, 2), Fraction(-1, 10), "epsilon must be >= 0, got -1/10"),
            (-1, Fraction(1, 2), Fraction(1, 10), "n must be >= 0, got -1"),
        ],
    )
    def test_refusal_messages_name_the_value(self, n, p, eps, message):
        with pytest.raises(ValueError) as refused:
            audit._tails(n, p, eps)
        assert str(refused.value) == message

    @pytest.mark.parametrize("order", ["epsilon_innermost", "np_innermost", "interleaved"])
    def test_shared_term_table_in_any_call_order(self, order):
        points = [(n, p, eps) for n, p in _TAIL_GRID_NP for eps in _TAIL_GRID_EPS]
        if order == "np_innermost":
            points = [(n, p, eps) for eps in _TAIL_GRID_EPS for n, p in _TAIL_GRID_NP]
        elif order == "interleaved":
            points = points[::2] + points[1::2][::-1]
        before = audit._tail_numerators.cache_info().hits
        for n, p, eps in points:
            assert exact_binomial_tails(n, p, eps) == _direct_tails(n, p, eps), (order, n, p, eps)
        hits = audit._tail_numerators.cache_info().hits - before
        if order == "epsilon_innermost":  # every (n, p) builds its table once
            assert hits == len(points) - len(_TAIL_GRID_NP)
        elif order == "np_innermost":  # one entry: a pass over (n, p) starts on a miss
            assert hits == 0

    def test_integer_comparison_matches_fraction_comparison(self):
        for n in (0, 1, 5, 10, 37, 80):
            for p in (Fraction(0), Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10), Fraction(1)):
                for eps in (Fraction(0), Fraction(1, 100), Fraction(1, 20), Fraction(1, 5), Fraction(9, 20)):
                    assert hoeffding_check(n, p, eps) == _reference_hoeffding(n, p, eps), (n, p, eps)


class TestAuditGraph:
    def test_empty_graph_min_degree_fails_with_witness(self):
        report = audit_graph(make_named("empty", 20), AuditParams(p=0.5))
        check = report.by_name("min_degree")
        assert not check.holds and check.witness

    def test_complete_graph_max_degree_fails(self):
        report = audit_graph(make_named("complete", 200), AuditParams(p=0.5, epsilon=0.1))
        assert not report.by_name("max_degree").holds  # 199 > (0.5 + 0.001) * 200

    def test_complete_graph_is_full_of_nearly_full_vertices(self):
        # the palette is ceil((p/2 + epsilon/100) n) = 30 colours; the rainbow
        # colouring shows all 30 to every vertex of K_40, far over 5 ceil(ln 40)
        check = audit_graph(make_named("complete", 40), AuditParams(p=0.5, epsilon=50)).by_name("few_nearly_full")
        assert not check.holds and check.witness == [0, 1, 2, 3, 4]

    def test_random_graph_passes_under_sampled_auditing(self):
        # thresholds wide enough to be honest at n = 300 (they concentrate
        # much harder at large n); frozen after checking they genuinely hold
        g = gnp_generate(GnpSpec(300, 0.5, 9))
        params = AuditParams(p=0.5, epsilon=50, gamma=0.003, sample_budget=2000, seed=9)
        report = audit_graph(g, params)
        assert report.all_hold, [c.name for c in report.checks if not c.holds]

    def test_report_serializes(self):
        import json

        report = audit_graph(make_named("empty", 5), AuditParams())
        obj = report.to_json_obj()
        json.dumps(obj)
        assert obj["all_hold"] is False

    def test_resolved_thresholds_are_ceilinged(self, monkeypatch):
        params = AuditParams(epsilon=5.0, gamma=0.02)
        res = params.resolved(101)
        assert res["danger"] == 6  # ceil(5/100 * 101)
        assert res["imbalance"] == 3  # ceil(5/200 * 101)
        assert res["beta_n"] == 3
        assert res["delta_n"] == 6
        # one owner: the strategies' beta and delta, resolved at the same n
        strategy = StrategyParams.from_fractions(101)
        assert (res["beta_n"], res["delta_n"]) == (strategy.nearly_full_threshold, strategy.block_distance)
        # the small palette is the triple's set size, imbalance
        palettes = set()

        def count(graph, coloring, missing_threshold, num_colors):
            palettes.add((num_colors, missing_threshold))
            return count_nearly_full_vertices(graph, coloring, missing_threshold, num_colors)

        monkeypatch.setattr(audit, "count_nearly_full_vertices", count)
        audit_graph(gnp_generate(GnpSpec(101, 0.5, 3)), params)
        # wide: ceil((0.5/2 + 5/100) * 101) colours, missing 2 beta_n; small: imbalance, missing gamma_n
        assert palettes == {(31, 2 * res["beta_n"]), (res["imbalance"], res["gamma_n"])}
