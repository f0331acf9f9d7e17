import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgdilute import decomposition
from hgdilute.decomposition import (
    GHDecomposition,
    TreeDecomposition,
    exact_ghw,
    exact_treewidth,
    ghd_from_dual_td,
    ghd_width,
    merge_transform,
    min_edge_cover,
    td_width,
    validate_ghd,
    validate_td,
)
from hgdilute.dilution import merge_on, reduce_hypergraph
from hgdilute.errors import ConstructionError, InvalidInputError, LimitExceededError
from hgdilute.hypergraph import Hypergraph, dual, edge_key
from hgdilute.generators import grid, jigsaw

from conftest import sample_hypergraph


def H(*edges, extra=()):
    return Hypergraph.make([set(e) for e in edges], vertices=extra)


def one_bag(h):
    return TreeDecomposition(("t1",), (("t1", None),), (("t1", h.vertices),))


seeds = st.integers(min_value=0, max_value=10**6)


class TestValidators:
    def test_single_bag_valid(self):
        h = H("ab", "bc")
        ok, why = validate_td(h, one_bag(h))
        assert ok, why
        assert td_width(one_bag(h)).width == 2

    def test_path_decomposition(self):
        h = H("ab", "bc", "cd")
        td = TreeDecomposition(
            ("t1", "t2", "t3"),
            (("t1", "t2"), ("t2", "t3"), ("t3", None)),
            (
                ("t1", frozenset("ab")),
                ("t2", frozenset("bc")),
                ("t3", frozenset("cd")),
            ),
        )
        ok, why = validate_td(h, td)
        assert ok, why
        assert td_width(td).width == 1

    def test_missing_edge_detected(self):
        h = H("ab", "cd")
        td = TreeDecomposition(("t1",), (("t1", None),), (("t1", frozenset("ab")),))
        ok, why = validate_td(h, td)
        assert not ok and "not contained" in why

    def test_disconnected_occurrence_detected(self):
        h = H("ab", "bc")
        td = TreeDecomposition(
            ("t1", "t2", "t3"),
            (("t1", "t2"), ("t2", "t3"), ("t3", None)),
            (
                ("t1", frozenset("ab")),
                ("t2", frozenset("c")),
                ("t3", frozenset("bc")),
            ),
        )
        ok, why = validate_td(h, td)
        assert not ok and "connected" in why

    def test_ghd_cover_condition(self):
        h = H("ab", "bc")
        td = one_bag(h)
        good = GHDecomposition(td, (("t1", frozenset(h.edges)),))
        ok, why = validate_ghd(h, good)
        assert ok, why
        bad = GHDecomposition(td, (("t1", frozenset([frozenset("ab")])),))
        ok, _ = validate_ghd(h, bad)
        assert not ok

    def test_ghd_nonedge_cover_raises(self):
        h = H("ab")
        ghd = GHDecomposition(one_bag(h), (("t1", frozenset([frozenset("xy")])),))
        with pytest.raises(InvalidInputError):
            validate_ghd(h, ghd)


def min_max_over_permutations(vertices, edges, cost):
    """Minimum over every vertex order of the max cost of an elimination bag,
    playing the elimination game on explicit fill edges."""
    best = None
    for order in itertools.permutations(sorted(vertices)):
        adj = {v: set() for v in vertices}
        for e in edges:
            for a, b in itertools.permutations(e, 2):
                adj[a].add(b)
        width = None
        for v in order:
            c = cost(frozenset(adj[v]) | {v})
            width = c if width is None else max(width, c)
            if best is not None and width >= best:
                break
            for a, b in itertools.permutations(adj[v], 2):
                adj[a].add(b)
            for a in adj.pop(v):
                adj[a].discard(v)
        best = width if best is None else min(best, width)
    return best


def brute_force_treewidth(h):
    """Minimum over all elimination orderings, computed naively."""
    return min_max_over_permutations(h.vertices, h.edges, lambda bag: len(bag) - 1)


class TestExactTreewidth:
    def test_tree_has_width_1(self):
        rep, td = exact_treewidth(H("ab", "bc", "bd"))
        assert rep.width == 1

    def test_k5(self):
        k5 = Hypergraph.make(
            [set(p) for p in itertools.combinations("abcde", 2)]
        )
        assert exact_treewidth(k5)[0].width == 4

    def test_grid33(self):
        assert exact_treewidth(grid(3, 3))[0].width == 3

    def test_limit(self):
        with pytest.raises(LimitExceededError):
            exact_treewidth(grid(4, 4), max_vertices=12)

    @pytest.mark.parametrize(
        "name,fake",
        [
            ("validate_td", lambda h, td: (False, "forced failure")),
            ("td_width", lambda td: decomposition.WidthReport("tw", 99, "t1")),
        ],
    )
    def test_failed_self_check_raises(self, monkeypatch, name, fake):
        # the checks must survive ``python -O``, so they cannot be asserts
        monkeypatch.setattr(decomposition, name, fake)
        with pytest.raises(ConstructionError):
            exact_treewidth(grid(2, 2))

    def test_empty_graph(self):
        rep, td = exact_treewidth(Hypergraph(frozenset(), frozenset()))
        assert rep.width == -1

    @given(seeds)
    @settings(max_examples=15)
    def test_against_permutation_brute_force(self, seed):
        rng = random.Random(seed)
        h = sample_hypergraph(rng, max_vertices=6, max_edges=5)
        rep, td = exact_treewidth(h)
        assert rep.width == brute_force_treewidth(h)
        ok, why = validate_td(h, td)
        assert ok, why


def brute_force_ghw(h):
    """Minimum over all elimination orderings of the max bag cover number.

    Independent path to the same width: for monotone bag costs the optimum
    over orderings equals the optimum over all tree decompositions, so this
    also certifies that no decomposition of smaller width exists.
    """
    covered = frozenset().union(*h.edges)
    if not covered:
        return 0
    return min_max_over_permutations(
        covered, h.edges, lambda bag: len(min_edge_cover(h, bag))
    )


class TestExactGhw:
    def test_acyclic_hypergraph(self):
        rep, _ = exact_ghw(H("abc", "cde"))
        assert rep.width == 1

    def test_jigsaw22(self):
        rep, ghd = exact_ghw(jigsaw(2, 2))
        assert rep.width == 2
        assert validate_ghd(jigsaw(2, 2), ghd)[0]

    def test_no_edges_width_zero(self):
        rep, ghd = exact_ghw(Hypergraph(frozenset("ab"), frozenset()))
        assert rep.width == 0

    def test_edge_limit(self):
        with pytest.raises(LimitExceededError):
            exact_ghw(jigsaw(3, 4))  # 12 edges

    @given(seeds)
    @settings(max_examples=12)
    def test_witness_and_minimality(self, seed):
        rng = random.Random(seed)
        h = sample_hypergraph(rng, max_vertices=6, max_edges=4)
        rep, ghd = exact_ghw(h)
        ok, why = validate_ghd(h, ghd)
        assert ok, why
        assert ghd_width(ghd).width == rep.width
        for _, bag in ghd.td.bags:
            assert len(min_edge_cover(h, bag)) <= rep.width
        # exhaustive permutation sweep certifies no smaller width exists
        assert rep.width == brute_force_ghw(h)


@st.composite
def small_hypergraphs(draw):
    """Up to 7 vertices, isolated vertices, singleton and empty edges
    allowed; names unordered relative to their drawing order."""
    n = 7 - draw(st.integers(min_value=0, max_value=6))  # mostly large
    names = draw(st.permutations("qzbmxad"))[:n]
    edges = draw(
        st.lists(
            st.sets(st.sampled_from(names), max_size=4), min_size=n // 2, max_size=7
        )
    )
    return Hypergraph(frozenset(names), frozenset(frozenset(e) for e in edges))


class TestSubsetDP:
    @given(small_hypergraphs())
    @settings(max_examples=60)
    def test_widths_match_every_permutation(self, h):
        tw, td = exact_treewidth(h)
        assert tw.width == brute_force_treewidth(h)
        assert validate_td(h, td)[0]
        ghw, ghd = exact_ghw(h)
        assert ghw.width == brute_force_ghw(h)
        assert validate_ghd(h, ghd)[0]

    def test_interpreter_state_untouched(self, monkeypatch):
        def refuse(limit):
            raise RuntimeError("recursion limit changed")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        assert exact_treewidth(grid(3, 4))[0].width == 3
        assert exact_ghw(jigsaw(3, 3))[0].width == 3

    def test_pinned_treewidth_witness(self):
        # ties go to the smallest vertex name, so the witness is pinned
        rep, td = exact_treewidth(grid(3, 3))
        assert rep == decomposition.WidthReport("tw", 3, "t5")
        names = tuple(f"t{i}" for i in range(1, 10))
        assert td.nodes == names
        assert td.parents == tuple(zip(names, names[1:] + (None,)))
        assert [sorted(b) for _, b in td.bags] == [
            ["x1_1", "x1_2", "x2_1"],
            ["x1_2", "x1_3", "x2_1", "x2_2"],
            ["x1_3", "x2_1", "x2_2", "x2_3"],
            ["x2_1", "x2_2", "x2_3", "x3_1"],
            ["x2_2", "x2_3", "x3_1", "x3_2"],
            ["x2_3", "x3_1", "x3_2"],
            ["x2_3", "x3_2", "x3_3"],
            ["x3_2", "x3_3"],
            ["x3_3"],
        ]

    def test_pinned_cover_witness(self):
        rep, ghd = exact_ghw(jigsaw(2, 2))
        assert rep == decomposition.WidthReport("ghw", 2, "t3")
        assert ghd.td.parents == (
            ("t1", "t3"), ("t2", "t3"), ("t3", "t4"), ("t4", None)
        )
        assert [sorted(b) for _, b in ghd.td.bags] == [
            ["h1_1", "v1_1", "v1_2"],
            ["h2_1", "v1_1", "v1_2"],
            ["v1_1", "v1_2"],
            ["v1_2"],
        ]
        assert [sorted(sorted(e) for e in c) for _, c in ghd.covers] == [
            [["h1_1", "v1_1"], ["h1_1", "v1_2"]],
            [["h1_1", "v1_1"], ["h2_1", "v1_2"]],
            [["h1_1", "v1_1"], ["h1_1", "v1_2"]],
            [["h1_1", "v1_2"]],
        ]


class TestMergeTransform:
    def test_two_edges_merge_drops_width(self):
        # one-bag decomposition covering with both edges: width 2 -> 1
        h = H("ab", "bc")
        ghd = GHDecomposition(one_bag(h), (("t1", frozenset(h.edges)),))
        assert ghd_width(ghd).width == 2
        out = merge_transform(h, ghd, "b")
        merged = merge_on(h, "b")
        assert validate_ghd(merged, out)[0]
        assert ghd_width(out).width == 1
        assert exact_ghw(merged)[0].width <= exact_ghw(h)[0].width

    def test_mesh_diagonal_merge(self):
        h = H("abc", "ade", "bdf")
        rep, ghd = exact_ghw(h)
        out = merge_transform(h, ghd, "a")
        assert validate_ghd(merge_on(h, "a"), out)[0]
        assert ghd_width(out).width <= rep.width

    def test_invalid_input_rejected(self):
        h = H("ab", "bc")
        bad = GHDecomposition(one_bag(h), (("t1", frozenset([frozenset("ab")])),))
        with pytest.raises(InvalidInputError):
            merge_transform(h, bad, "b")

    @given(seeds)
    @settings(max_examples=25)
    def test_random_merge_never_widens(self, seed):
        rng = random.Random(seed)
        h = sample_hypergraph(rng, max_vertices=7, max_edges=5)
        rep, ghd = exact_ghw(h)
        candidates = sorted(v for v in h.vertices if h.degree(v) >= 1)
        v = rng.choice(candidates)
        out = merge_transform(h, ghd, v)
        ok, why = validate_ghd(merge_on(h, v), out)
        assert ok, why
        assert ghd_width(out).width <= rep.width


class TestDualTransfer:
    def test_single_edge(self):
        h, _ = reduce_hypergraph(H("ab"))
        _, td = exact_treewidth(dual(h))
        ghd = ghd_from_dual_td(h, td)
        assert validate_ghd(h, ghd)[0]

    def test_triangle(self):
        h = H("ab", "bc", "ac")
        rep, td = exact_treewidth(dual(h))
        ghd = ghd_from_dual_td(h, td)
        assert validate_ghd(h, ghd)[0]
        assert ghd_width(ghd).width <= rep.width + 1

    def test_not_reduced_rejected(self):
        h = H("ab", extra={"z"})
        with pytest.raises(InvalidInputError):
            ghd_from_dual_td(h, one_bag(dual(h)))

    @given(seeds)
    @settings(max_examples=25)
    def test_dual_width_bound(self, seed):
        rng = random.Random(seed)
        h, _ = reduce_hypergraph(sample_hypergraph(rng, max_vertices=7, max_edges=5))
        if not h.is_reduced():
            return
        rep, td = exact_treewidth(dual(h))
        ghd = ghd_from_dual_td(h, td)
        ok, why = validate_ghd(h, ghd)
        assert ok, why
        assert ghd_width(ghd).width <= rep.width + 1
        # the bound transfers to the exact widths as well
        gw, _ = exact_ghw(h)
        assert gw.width <= rep.width + 1
