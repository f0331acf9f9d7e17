import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hgdilute.errors import InvalidInputError
from hgdilute.hypergraph import (
    Hypergraph,
    _shortest_path,
    canonical_form,
    components,
    dual,
    dual_with_map,
    find_path,
    is_connected,
    isomorphic,
    primal_graph,
)
from hgdilute.dilution import reduce_hypergraph
from hgdilute.generators import grid, jigsaw

from conftest import sample_hypergraph


def H(*edges, extra=()):
    return Hypergraph.make([set(e) for e in edges], vertices=extra)


small_hypergraphs = st.builds(
    lambda seed: sample_hypergraph(__import__("random").Random(seed)),
    st.integers(min_value=0, max_value=10**6),
)


@st.composite
def raw_hypergraphs(draw):
    """Up to 8 vertices, possibly none; empty and singleton edges allowed."""
    verts = sorted(draw(st.sets(st.sampled_from("abcdefgh"))))
    edge = st.sets(st.sampled_from(verts)) if verts else st.just(set())
    return Hypergraph.make(draw(st.lists(edge, max_size=6)), verts)


class TestBasics:
    def test_vertices_must_cover_edges(self):
        with pytest.raises(InvalidInputError):
            Hypergraph(frozenset({"a"}), frozenset({frozenset({"a", "b"})}))

    def test_duplicate_edges_collapse(self):
        h = H("ab", "ba")
        assert len(h.edges) == 1

    def test_degree_rank_incidence(self):
        h = H("ab", "bc", extra={"z"})
        assert h.degree("b") == 2
        assert h.degree("z") == 0
        assert h.rank() == 2
        assert h.incidence("b") == frozenset({frozenset("ab"), frozenset("bc")})
        with pytest.raises(InvalidInputError):
            h.degree("nope")

    def test_jigsaw_degrees(self):
        j = jigsaw(3, 4)
        assert all(j.degree(v) == 2 for v in j.vertices)
        assert j.rank() == 4

    def test_empty_and_isolated_representable(self):
        h = Hypergraph(frozenset({"a"}), frozenset({frozenset()}))
        assert h.rank() == 0
        assert not h.is_reduced()


class TestDual:
    def test_single_edge_collapses(self):
        d = dual(H("ab"))
        assert len(d.vertices) == 1 and len(d.edges) == 1

    def test_dual_grid22_is_jigsaw22(self):
        assert isomorphic(dual(grid(2, 2)), jigsaw(2, 2)) is not None
        assert isomorphic(jigsaw(2, 2), grid(2, 2)) is not None  # both 4-cycles

    def test_empty_edge_becomes_isolated_dual_vertex(self):
        d = dual(Hypergraph.make([{"a", "b"}, set()]))
        isolated = [v for v in d.vertices if all(v not in e for e in d.edges)]
        assert len(isolated) == 1

    @given(small_hypergraphs)
    def test_dual_involution_on_reduced(self, h):
        r, _ = reduce_hypergraph(h)
        if not r.is_reduced():  # the lone empty-edge corner case
            return
        assert isomorphic(dual(dual(r)), r) is not None

    def test_dual_map_is_bijection(self):
        h = H("ab", "bc", "abc")
        d, names = dual_with_map(h)
        assert set(names) == set(h.edges)
        assert set(names.values()) == set(d.vertices)


class TestPrimal:
    def test_single_edge_gives_clique(self):
        p = primal_graph(H("abc"))
        assert p.edges == frozenset(
            frozenset(x) for x in itertools.combinations("abc", 2)
        )

    def test_jigsaw22_already_two_uniform(self):
        j = jigsaw(2, 2)
        assert isomorphic(primal_graph(j), j) is not None

    def test_no_edges(self):
        p = primal_graph(Hypergraph(frozenset("ab"), frozenset()))
        assert p.edges == frozenset()

    @given(small_hypergraphs)
    def test_primal_matches_cooccurrence(self, h):
        p = primal_graph(h)
        for x in h.vertices:
            for y in h.vertices:
                if x < y:
                    expected = any({x, y} <= e for e in h.edges)
                    assert (frozenset({x, y}) in p.edges) == expected


class TestPaths:
    def test_two_step_path(self):
        h = H("ab", "bc")
        p = find_path(h, "a", "c")
        assert p.path_vertices == ("a", "b", "c")
        assert p.check(h) is None

    def test_disconnected(self):
        h = H("ab", "cd")
        assert find_path(h, "a", "c") is None
        assert not is_connected(h)

    def test_same_endpoint_rejected(self):
        with pytest.raises(InvalidInputError):
            find_path(H("ab"), "a", "a")

    def test_jigsaw_connected(self):
        assert is_connected(jigsaw(3, 3))

    def test_avoid_forces_a_detour(self):
        h = H("ab", "bc", "ad", "de", "ec")
        assert _shortest_path(h, "a", "c", frozenset()).path_vertices == ("a", "b", "c")
        p = _shortest_path(h, "a", "c", frozenset("b"))
        assert p.path_vertices == ("a", "d", "e", "c")
        assert p.check(h) is None

    def test_avoid_blocking_the_only_route(self):
        assert _shortest_path(H("ab", "bc"), "a", "c", frozenset("b")) is None

    @given(raw_hypergraphs())
    def test_components_match_reachability_closure(self, h):
        reach = {v: {v} for v in h.vertices}
        changed = True
        while changed:
            changed = False
            for e in h.edges:
                for v in h.vertices:
                    if reach[v] & e and not e <= reach[v]:
                        reach[v] |= e
                        changed = True
        classes = {frozenset(r) for r in reach.values()}
        comps = components(h)
        assert set(comps) == classes and len(comps) == len(classes)
        assert [min(c) for c in comps] == sorted(min(c) for c in comps)
        assert is_connected(h) == (len(classes) <= 1)

    @given(small_hypergraphs)
    def test_path_agrees_with_connectivity(self, h):
        verts = sorted(h.vertices)
        connected = is_connected(h)
        if len(verts) >= 2:
            p = find_path(h, verts[0], verts[1])
            if connected:
                assert p is not None and p.check(h) is None
            if p is None:
                assert not connected


class TestIsomorphism:
    def test_identity(self):
        h = H("ab", "bc")
        w = isomorphic(h, h)
        assert w is not None and w.check(h, h)

    def test_cardinality_mismatch(self):
        assert isomorphic(jigsaw(2, 3), jigsaw(2, 2)) is None

    def test_same_counts_different_structure(self):
        h1 = H("ab", "bc", "cd")  # path
        h2 = H("ab", "bc", "bd")  # star-ish
        assert isomorphic(h1, h2) is None

    def test_canonical_form_invariance(self):
        h1 = H("ab", "bc", "ca")
        h2 = H("xy", "yz", "zx")
        assert canonical_form(h1) == canonical_form(h2)

    @given(small_hypergraphs, st.randoms(use_true_random=False))
    def test_relabeling_is_isomorphic(self, h, rnd):
        verts = sorted(h.vertices)
        perm = verts[:]
        rnd.shuffle(perm)
        m = dict(zip(verts, (f"w{i}" for i in range(len(perm)))))
        shuffled = Hypergraph(
            frozenset(m.values()),
            frozenset(frozenset(m[v] for v in e) for e in h.edges),
        )
        w = isomorphic(h, shuffled)
        assert w is not None and w.check(h, shuffled)
