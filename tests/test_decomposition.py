import itertools
import random

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


def brute_force_treewidth(h):
    """Minimum over all elimination orderings, computed naively."""
    verts = sorted(h.vertices)
    best = None
    for order in itertools.permutations(verts):
        adj = {v: set() for v in verts}
        for e in h.edges:
            for a in e:
                for b in e:
                    if a != b:
                        adj[a].add(b)
        width = 0
        for v in order:
            width = max(width, len(adj[v]))
            for a in adj[v]:
                for b in adj[v]:
                    if a != b:
                        adj[a].add(b)
            for a in adj[v]:
                adj[a].discard(v)
            del adj[v]
        best = width if best is None else min(best, width)
    return best


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
    covered = sorted({v for e in h.edges for v in e})
    if not covered:
        return 0
    best = None
    for order in itertools.permutations(covered):
        adj = {v: set() for v in covered}
        for e in h.edges:
            for a in e:
                for b in e:
                    if a != b:
                        adj[a].add(b)
        width = 0
        for v in order:
            bag = frozenset(adj[v]) | {v}
            width = max(width, len(min_edge_cover(h, bag)))
            for a in adj[v]:
                for b in adj[v]:
                    if a != b:
                        adj[a].add(b)
            for a in adj[v]:
                adj[a].discard(v)
            del adj[v]
        best = width if best is None else min(best, width)
    return best


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
