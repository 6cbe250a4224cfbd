"""Graph construction, G(n,p) sampling, named families, serialization."""

import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from eternal_coloring.graph import (
    GnpSpec,
    Graph,
    derive_seed,
    gnp_generate,
    iter_bits,
    make_named,
    mask_of,
    planes_add,
    planes_sub,
    split_by_count,
)
from eternal_coloring.strategies import _SCAN_ROWS


def closed_neighborhood(g: Graph, v: int) -> set[int]:
    """{v} together with its neighbours (the convention used throughout)."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    return set(iter_bits(g.closed[v]))


class TestGnp:
    def test_p_zero_is_empty(self):
        g = gnp_generate(GnpSpec(5, 0.0, 7))
        assert g.n == 5 and g.edge_count() == 0

    def test_p_one_is_complete(self):
        g = gnp_generate(GnpSpec(5, 1.0, 7))
        assert g.edge_count() == 10
        assert all(g.has_edge(u, v) for u in range(5) for v in range(u + 1, 5))

    def test_half_density_edge_count_concentrates(self):
        # n=100, p=0.5: mean 2475, +-6 sigma is about +-297
        g = gnp_generate(GnpSpec(100, 0.5, 42))
        assert 2178 <= g.edge_count() <= 2772

    def test_determinism(self):
        a = gnp_generate(GnpSpec(30, 0.3, 11))
        b = gnp_generate(GnpSpec(30, 0.3, 11))
        assert a == b
        c = gnp_generate(GnpSpec(30, 0.3, 12))
        assert a != c

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GnpSpec(5, 1.5, 0)
        with pytest.raises(ValueError):
            GnpSpec(-1, 0.5, 0)
        with pytest.raises(ValueError):
            GnpSpec(0, 0.5, 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 101])
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
    def test_sampler_matches_the_edge_list_reference(self, n, p):
        # the RNG contract, sampled the plain way: one random() per pair,
        # pairs in lexicographic order, the edges through Graph(n, edges)
        for seed in range(5):
            rng = random.Random(seed)
            want = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
            got = gnp_generate(GnpSpec(n, p, seed))
            assert (got.n, got.adj, got.closed, got.full_mask) == (want.n, want.adj, want.closed, want.full_mask)
            assert got == want and hash(got) == hash(want)

    def test_sampled_graph_is_a_weak_key(self):
        # the strategies' per-graph pair rows must go with a sampled graph
        g = gnp_generate(GnpSpec(21, 0.5, 0))
        gc.collect()
        before = len(_SCAN_ROWS)
        _SCAN_ROWS[g] = {}
        assert len(_SCAN_ROWS) == before + 1 and _SCAN_ROWS[g] == {}
        del g
        gc.collect()
        assert len(_SCAN_ROWS) == before


class TestNamed:
    def test_star(self):
        g = make_named("star", 5)
        assert g.n == 6 and g.edge_count() == 5
        assert g.degree(0) == 5 and all(g.degree(v) == 1 for v in range(1, 6))

    def test_path(self):
        g = make_named("path", 4)
        assert g.n == 4 and g.edge_count() == 3

    def test_complete(self):
        g = make_named("complete", 4)
        assert g.n == 4 and g.edge_count() == 6

    def test_cycle_and_empty(self):
        assert make_named("cycle", 5).edge_count() == 5
        assert make_named("empty", 3).edge_count() == 0

    def test_errors(self):
        with pytest.raises(ValueError):
            make_named("hypercube", 3)
        with pytest.raises(ValueError):
            make_named("cycle", 2)


class TestClosedNeighborhood:
    def test_star_centre_sees_everything(self):
        g = make_named("star", 4)
        assert closed_neighborhood(g, 0) == {0, 1, 2, 3, 4}

    def test_leaf_sees_centre_and_itself(self):
        g = make_named("star", 4)
        assert closed_neighborhood(g, 2) == {0, 2}

    def test_isolated_vertex_is_its_own_neighbourhood(self):
        g = make_named("empty", 3)
        assert closed_neighborhood(g, 1) == {1}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            closed_neighborhood(make_named("path", 3), 5)


class TestGraphBasics:
    def test_rejects_loops_and_bad_edges(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_serialization_format(self):
        g = make_named("path", 3)
        assert g.to_text() == "3 2\n0 1\n1 2\n"

    def test_serialization_roundtrip(self):
        g = gnp_generate(GnpSpec(25, 0.4, 5))
        assert Graph.from_text(g.to_text()) == g

    def test_from_text_rejects_bad_count(self):
        with pytest.raises(ValueError):
            Graph.from_text("3 2\n0 1\n")

    def test_from_text_rejects_blank_text(self):
        for text in ("", " \n\n\t\n"):
            with pytest.raises(ValueError, match="no header"):
                Graph.from_text(text)

    def test_equality_and_hash_read_adjacency_alone(self):
        g = gnp_generate(GnpSpec(12, 0.5, 3))
        h = Graph(g.n, reversed(g.edges()))
        h.closed = []  # a graph is its adjacency: a derived field must not matter
        assert g == h and hash(g) == hash(h)
        assert g != Graph(g.n, g.edges()[1:])


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 24), p=st.floats(0, 1), seed=st.integers(0, 2**32))
def test_degree_sum_is_twice_edges(n, p, seed):
    g = gnp_generate(GnpSpec(n, p, seed))
    assert sum(g.degree(v) for v in range(n)) == 2 * g.edge_count()


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 24), p=st.floats(0, 1), seed=st.integers(0, 2**32))
def test_closed_neighbourhood_size_is_degree_plus_one(n, p, seed):
    g = gnp_generate(GnpSpec(n, p, seed))
    for v in range(n):
        assert g.closed[v] == g.adj[v] | 1 << v
        assert len(closed_neighborhood(g, v)) == g.degree(v) + 1
        assert v in closed_neighborhood(g, v)


def test_derive_seed_contract():
    # documented contract: SHA-256 of '|'.join(repr(part)), low 64 bits
    import hashlib

    expected = int.from_bytes(hashlib.sha256(b"0|3|'graph'").digest()[:8], "big")
    assert derive_seed(0, 3, "graph") == expected
    assert derive_seed(0, 3, "graph") == derive_seed(0, 3, "graph")
    assert derive_seed(0, 3, "graph") != derive_seed(0, 4, "graph")
    assert 0 <= derive_seed("x") < 2**64


def test_bit_helpers():
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    assert mask_of([0, 3, 5]) == 0b101001
    assert list(iter_bits(0)) == []


_BITS = 130


@st.composite
def _masks(draw):
    """0 to 70 masks on up to 130 bits (so counts reach 7 planes), sometimes
    all equal, with a vertex mask that may be empty."""
    width = draw(st.integers(1, _BITS))
    mask = st.integers(0, (1 << width) - 1)
    count = draw(st.integers(0, 70))
    if draw(st.booleans()):
        masks = [draw(mask)] * count
    else:
        masks = draw(st.lists(mask, min_size=count, max_size=count))
    return masks, draw(st.one_of(st.just(0), mask))


def _planes(masks, width):
    """The per-bit counts of masks in width bit planes, added one mask at a time."""
    planes = [0] * width
    for m in masks:
        planes_add(planes, m)
    return planes


@settings(max_examples=300, deadline=None)
@given(case=_masks())
def test_planes_add_and_split_match_per_bit_sums(case):
    masks, vertices = case
    planes = _planes(masks, len(masks).bit_length())
    counts = [sum(m >> v & 1 for m in masks) for v in range(_BITS)]
    for v in range(_BITS):
        assert sum((p >> v & 1) << j for j, p in enumerate(planes)) == counts[v], v
    groups = split_by_count(vertices, planes)
    union = 0
    for m, count in groups:
        assert m and not m & union  # nonempty and disjoint
        union |= m
        assert all(counts[v] == count for v in iter_bits(m))
    assert union == vertices
    assert len({count for _, count in groups}) == len(groups)


def test_planes_and_split_of_nothing():
    assert _planes([], 2) == _planes([0, 0], 2) == [0, 0]
    assert split_by_count(0, []) == split_by_count(0, _planes([5, 3], 2)) == []
    assert split_by_count(0b110, []) == [(0b110, 0)]
    assert _planes([0b11] * 7, 3) == [0b11] * 3
    assert _planes([1] * 70, 7) == [0, 1, 1, 0, 0, 0, 1]  # 70 = 0b1000110


def _step_planes(planes, counts, add, mask, lo, hi):
    """Apply one add (or subtract) of mask to planes and to the integer
    counts, on the bits whose count stays in [lo, hi]."""
    mask &= mask_of(v for v, t in enumerate(counts) if (t < hi if add else t > lo))
    (planes_add if add else planes_sub)(planes, mask)
    for v in iter_bits(mask):
        counts[v] += 1 if add else -1


def _plane_values(planes, n, signed):
    """The per-bit values held in planes, read as two's complement if signed."""
    width = len(planes)
    values = []
    for v in range(n):
        t = sum((p >> v & 1) << j for j, p in enumerate(planes))
        values.append(t - (1 << width) if signed and t >> (width - 1) else t)
    return values


_OPS = st.lists(st.tuples(st.booleans(), st.integers(0, (1 << 20) - 1)), max_size=60)


@settings(max_examples=200, deadline=None)
@given(j=st.integers(1, 5), full_planes=st.booleans(), n=st.integers(1, 12), ops=_OPS)
def test_plane_updates_match_unsigned_counts(j, full_planes, n, ops):
    # counts in [0, k] on k.bit_length() planes: k = 2^j - 1 fills every
    # plane, k = 2^j sets the top plane alone
    k = (1 << j) - 1 if full_planes else 1 << j
    planes, counts = [0] * k.bit_length(), [0] * n
    for add, mask in ops:
        _step_planes(planes, counts, add, mask, 0, k)
        assert _plane_values(planes, n, False) == counts
    for add, end in ((True, k), (False, 0)):  # every count up to exactly k, then back to 0
        for _ in range(k):
            _step_planes(planes, counts, add, (1 << n) - 1, 0, k)
            assert _plane_values(planes, n, False) == counts
        assert counts == [end] * n
    assert planes == [0] * len(planes)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 20), ops=_OPS)
def test_plane_updates_match_signed_tallies(n, ops):
    # tallies in [-n, n] as two's complement on n.bit_length() + 1 planes
    planes, tallies = [0] * (n.bit_length() + 1), [0] * n
    for add, mask in ops:
        _step_planes(planes, tallies, add, mask, -n, n)
        assert _plane_values(planes, n, True) == tallies
    # every tally up to exactly n, down to exactly -n, back to 0
    for add, steps, end in ((True, 2 * n, n), (False, 2 * n, -n), (True, n, 0)):
        for _ in range(steps):
            _step_planes(planes, tallies, add, (1 << n) - 1, -n, n)
            assert _plane_values(planes, n, True) == tallies
        assert tallies == [end] * n
    assert planes == [0] * len(planes)
