import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgdilute import hypergraph
from hgdilute.errors import BudgetExceededError, InvalidInputError
from hgdilute.hypergraph import (
    Hypergraph,
    _canonical,
    _shortest_path,
    canonical_form,
    components,
    dual,
    dual_with_map,
    edge_key,
    find_path,
    is_connected,
    isomorphic,
    primal_graph,
)
from hgdilute.dilution import _index_steps, reduce_hypergraph
from hgdilute.generators import grid, jigsaw, mesh

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


@st.composite
def tiny_hypergraphs(draw):
    """Up to 7 vertices, isolated ones allowed; empty and singleton edges allowed."""
    verts = sorted(draw(st.sets(st.sampled_from("abcdefg"))))
    edge = st.sets(st.sampled_from(verts)) if verts else st.just(set())
    return Hypergraph.make(draw(st.lists(edge, max_size=7)), verts)


@st.composite
def cloned_hypergraphs(draw):
    """``tiny_hypergraphs`` whose vertices gain copies, at most 7 vertices
    in all: each copy joins every edge of its original, so the copies share
    its type, the way the vertices of an unreduced search state do."""
    h = draw(tiny_hypergraphs())
    verts = sorted(h.vertices)
    if not verts:
        return h
    originals = draw(st.lists(st.sampled_from(verts), max_size=6))
    copies = {f"{v}{k}": v for k, v in enumerate(originals[: 7 - len(verts)])}
    edges = [set(e) | {c for c, v in copies.items() if v in e} for e in h.edges]
    g = Hypergraph.make(edges, set(verts) | set(copies))
    return relabel(g, draw(st.permutations(range(len(g.vertices)))), "k")


def relabel(h, order, prefix):
    """Copy of h whose i-th sorted vertex is renamed prefix + order[i]."""
    m = {v: f"{prefix}{k}" for v, k in zip(sorted(h.vertices), order)}
    return Hypergraph(
        frozenset(m.values()), frozenset(frozenset(m[v] for v in e) for e in h.edges)
    )


def brute_force_certificate(h):
    """Smallest relabelled edge set over every vertex permutation."""
    verts = sorted(h.vertices)
    return len(verts), min(
        tuple(sorted(tuple(sorted(lab[v] for v in e)) for e in h.edges))
        for lab in (dict(zip(verts, p)) for p in itertools.permutations(range(len(verts))))
    )


def unpruned_canonical(h):
    """Certificate and labelling from the individualisation/refinement tree
    searched in full: the first leaf with the smallest edge set wins."""
    verts = sorted(h.vertices)
    n = len(verts)
    edges = [frozenset(verts.index(v) for v in e) for e in h.edges]
    inc = [[ei for ei, e in enumerate(edges) if v in e] for v in range(n)]

    def refine(cells):
        while True:
            color = {v: ci for ci, cell in enumerate(cells) for v in cell}
            out = []
            for cell in cells:
                groups = {}
                for v in cell:
                    sig = tuple(
                        sorted((len(edges[ei]), tuple(sorted(color[w] for w in edges[ei]))) for ei in inc[v])
                    )
                    groups.setdefault(sig, []).append(v)
                out += [sorted(groups[sig]) for sig in sorted(groups)]
            if len(out) == len(cells):
                return cells
            cells = out

    best = []

    def descend(cells):
        cells = refine(cells)
        split_at = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if split_at is None:
            lab = {cell[0]: pos for pos, cell in enumerate(cells)}
            cert = tuple(sorted(tuple(sorted(lab[v] for v in e)) for e in edges))
            if not best or cert < best[0]:
                best[:] = [cert, lab]
            return
        cell = cells[split_at]
        for v in cell:
            descend(cells[:split_at] + [[v], [w for w in cell if w != v]] + cells[split_at + 1 :])

    if n == 0:
        return (0, tuple(sorted(tuple(sorted(e)) for e in edges))), {}
    descend([list(range(n))])
    return (n, best[0]), {verts[v]: pos for v, pos in best[1].items()}


def brute_force_automorphisms(h):
    """Every automorphism of h, as a vertex-to-vertex dict."""
    verts = sorted(h.vertices)
    maps = (dict(zip(verts, p)) for p in itertools.permutations(verts))
    return [g for g in maps if is_automorphism(g, h)]


def orbits(h, perms):
    """The vertex orbits of the group the vertex-to-vertex dicts ``perms``
    generate, as a set of frozensets."""
    orbit = {v: frozenset([v]) for v in h.vertices}
    for g in perms:
        for a, b in g.items():
            if orbit[a] is not orbit[b]:
                joined = orbit[a] | orbit[b]
                for v in joined:
                    orbit[v] = joined
    return set(orbit.values())


def is_automorphism(g, h):
    return (
        set(g) == set(h.vertices) == set(g.values())
        and frozenset(frozenset(g[v] for v in e) for e in h.edges) == h.edges
    )


# set-based references for the vertex-set kernel: per-vertex edge scans,
# primal adjacency as sets and a set BFS per component


def reference_incidence(h):
    return {v: frozenset(e for e in h.edges if v in e) for v in h.vertices}


def reference_neighbors(h):
    adj = {v: set() for v in h.vertices}
    for e in h.edges:
        for v in e:
            adj[v] |= e
    for v, around in adj.items():
        around.discard(v)
    return adj


def reference_components(h, within=None):
    """Connected classes of ``within`` (all vertices by default), joined by
    the edges of h restricted to it, ordered by their smallest vertex."""
    adj = reference_neighbors(h)
    within = set(h.vertices if within is None else within)
    seen, out = set(), []
    for v in sorted(within):
        if v in seen:
            continue
        comp, stack = {v}, [v]
        while stack:
            for y in (adj[stack.pop()] & within) - comp:
                comp.add(y)
                stack.append(y)
        seen |= comp
        out.append(frozenset(comp))
    return out


def reference_is_reduced(h):
    types = list(reference_incidence(h).values())
    return (
        frozenset() not in h.edges
        and all(types)
        and len(set(types)) == len(types)
    )


def reference_dual_with_map(h):
    names = {e: "{" + ",".join(sorted(e)) + "}" for e in h.edges}
    inc = reference_incidence(h)
    dual_edges = frozenset(frozenset(names[e] for e in inc[v]) for v in h.vertices)
    return Hypergraph(frozenset(names.values()), dual_edges), names


def reference_iso_invariant(h):
    inc = reference_incidence(h)
    return (
        len(h.vertices),
        len(h.edges),
        tuple(sorted(len(e) for e in h.edges)),
        tuple(sorted(len(at) for at in inc.values())),
    )


class TestVertexSetKernel:
    """The cached incidence and the mask kernel against set-based references."""

    @given(tiny_hypergraphs())
    @settings(max_examples=200)
    def test_incidence_views(self, h):
        inc = reference_incidence(h)
        assert h._incidence == inc
        for v in h.vertices:
            assert h.incidence(v) == inc[v] and h.degree(v) == len(inc[v])
        assert h.max_degree() == max(map(len, inc.values()), default=0)
        assert h.is_reduced() == reference_is_reduced(h)
        assert dual_with_map(h) == reference_dual_with_map(h)
        assert hypergraph._iso_invariant(h) == reference_iso_invariant(h)

    @given(tiny_hypergraphs())
    @settings(max_examples=200)
    def test_connectivity_views(self, h):
        comps = reference_components(h)
        assert components(h) == comps
        assert is_connected(h) == (len(comps) <= 1)

    @given(tiny_hypergraphs(), st.data())
    @settings(max_examples=200)
    def test_masks(self, h, data):
        names, (n, masks) = h._index_form
        index = {v: i for i, v in enumerate(names)}
        assert masks == tuple(sorted(hypergraph._mask(index, e) for e in h.edges))
        adj = hypergraph._adjacency(n, masks)
        expected = reference_neighbors(h)
        assert [{names[j] for j in hypergraph._bits(a)} for a in adj] == [
            expected[v] for v in names
        ]
        within = data.draw(st.sets(st.sampled_from(names))) if names else set()
        pieces = hypergraph._mask_components(adj, hypergraph._mask(index, within))
        assert [{names[j] for j in hypergraph._bits(p)} for p in pieces] == (
            reference_components(h, within)
        )


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


class TestCanonicalLabelling:
    @settings(max_examples=150)
    @given(tiny_hypergraphs(), st.data())
    def test_certificates_agree_with_brute_force(self, h, data):
        kind = data.draw(st.sampled_from(["copy", "toggle", "other"]))
        g = h
        if kind == "toggle" and h.vertices:
            e = data.draw(st.sampled_from(sorted(h.edges, key=edge_key) + [frozenset()]))
            v = data.draw(st.sampled_from(sorted(h.vertices)))
            g = Hypergraph(h.vertices, (h.edges - {e}) | {e ^ {v}})
        elif kind == "other":
            g = data.draw(tiny_hypergraphs())
        g = relabel(g, data.draw(st.permutations(range(len(g.vertices)))), "w")
        same = canonical_form(h) == canonical_form(g)
        assert same == (brute_force_certificate(h) == brute_force_certificate(g))
        assert (isomorphic(h, g) is not None) == same
        for x in (h, g):
            cert, lab, gens = _canonical(x, 10**6)
            relabelled = tuple(sorted(tuple(sorted(lab[v] for v in e)) for e in x.edges))
            assert cert == (len(x.vertices), relabelled)
            assert all(is_automorphism(gen, x) for gen in gens)

    @given(tiny_hypergraphs(), st.data())
    def test_labelling_matches_unpruned_search(self, h, data):
        h = relabel(h, data.draw(st.permutations(range(len(h.vertices)))), "u")
        cert, lab, _ = _canonical(h, 10**6)
        assert (cert, lab) == unpruned_canonical(h)

    def test_symmetric_labellings_match_unpruned_search(self):
        rnd = random.Random(7)
        c3_c4 = H("ab", "bc", "ca", "de", "ef", "fg", "gd")
        for base in (c3_c4, grid(2, 3), jigsaw(2, 2), mesh(2, 3), H("abc", "cde", "eaf")):
            for _ in range(5):
                order = list(range(len(base.vertices)))
                rnd.shuffle(order)
                h = relabel(base, order, "s")
                cert, lab, _ = _canonical(h, 10**6)
                assert (cert, lab) == unpruned_canonical(h)

    @pytest.mark.usefixtures("empty_cert_cache")
    def test_pinned_refinement_budget(self):
        # a Fano plane beside an 8-vertex 3-uniform circulant: refinement
        # cannot tell their vertices apart, and 44 refinement nodes are
        # exactly enough; certificate and labelling are the unpruned search's
        h = H(
            *(
                e.split()
                for e in (
                    "a0 a3 a5", "a0 b1 b3", "a0 b2 b5", "a1 a2 a6", "a1 a7 b6",
                    "a1 b0 b4", "a2 a4 a7", "a2 b4 b6", "a3 b1 b2", "a3 b3 b5",
                    "a4 a6 b4", "a4 b0 b6", "a5 b1 b5", "a5 b2 b3", "a6 a7 b0",
                )
            )
        )
        with pytest.raises(BudgetExceededError):
            canonical_form(h, budget=43)
        cert, lab, _ = _canonical(h, 44)
        assert cert == (
            15,
            (
                (0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6),
                (2, 4, 5), (7, 8, 9), (7, 10, 12), (7, 11, 13), (8, 10, 11),
                (8, 12, 14), (9, 11, 14), (9, 12, 13), (10, 13, 14),
            ),
        )
        assert sorted(lab.items()) == [
            ("a0", 0), ("a1", 7), ("a2", 8), ("a3", 1), ("a4", 14), ("a5", 2),
            ("a6", 9), ("a7", 12), ("b0", 13), ("b1", 3), ("b2", 5), ("b3", 4),
            ("b4", 11), ("b5", 6), ("b6", 10),
        ]

    @given(cloned_hypergraphs())
    def test_cloned_vertices_match_unpruned_search(self, h):
        # a node whose non-singleton cells each hold one type is a leaf
        cert, lab, gens = _canonical(h, 10**6)
        assert (cert, lab) == unpruned_canonical(h)
        assert all(is_automorphism(gen, h) for gen in gens)

    def test_a_one_type_cell_before_a_mixed_one_is_no_leaf(self):
        # refinement puts a cell of one type (the isolated d and e; the
        # copies c and d) before a cell that mixes types, so the node must
        # still branch
        rnd = random.Random(18)
        for base in (H("ac", "bf", extra="de"), H("cd", "abf", "aeg", "bcdefg")):
            for _ in range(5):
                order = list(range(len(base.vertices)))
                rnd.shuffle(order)
                h = relabel(base, order, "t")
                cert, lab, _ = _canonical(h, 10**6)
                assert (cert, lab) == unpruned_canonical(h)

    @given(cloned_hypergraphs())
    def test_generators_span_every_automorphism_orbit(self, h):
        # the seeded transpositions stand in for the ties of the cut
        # subtrees, so the dilution search prunes its steps as before
        _, _, gens = _canonical(h, 10**6)
        auts = brute_force_automorphisms(h)
        assert orbits(h, gens) == orbits(h, auts)
        names, (n, masks) = h._index_form
        index = {v: i for i, v in enumerate(names)}

        def steps(perms):
            return _index_steps(
                n, frozenset(masks), [[index[g[v]] for v in names] for g in perms]
            )

        assert steps(gens) == steps(auts)

    @pytest.mark.usefixtures("empty_cert_cache")
    def test_one_type_labels_at_the_root(self):
        # a 12-vertex edge and 10 isolated vertices refine to one cell of a
        # single type: one refinement node, where the tree without the type
        # cut needs 78 and 55 nodes to find its vertices interchangeable
        edge = H([f"e{i:02d}" for i in range(12)])
        isolated = H(extra=[f"i{i}" for i in range(10)])
        for h, n_edges in ((edge, 1), (isolated, 0)):
            cert, lab, gens = _canonical(h, 1)
            assert cert == (len(h.vertices), (tuple(range(12)),) * n_edges)
            assert lab == {v: pos for pos, v in enumerate(sorted(h.vertices))}
            assert orbits(h, gens) == {h.vertices}

    @pytest.mark.usefixtures("empty_cert_cache")
    def test_pinned_mesh_budget(self):
        # the README's figure: mesh(6,6) needs exactly 63 refinement nodes
        h = mesh(6, 6)
        with pytest.raises(BudgetExceededError):
            canonical_form(h, budget=62)
        assert canonical_form(h, budget=63) == canonical_form(h)

    @given(tiny_hypergraphs(), st.data())
    def test_order_isomorphic_relabellings_share_an_entry(self, h, data):
        order = data.draw(st.permutations(range(len(h.vertices))))
        h = relabel(h, order, "u")
        # an order-preserving renaming onto names of another shape
        k = len(order)
        slots = sorted(data.draw(st.sets(st.integers(0, 999), min_size=k, max_size=k)))
        m = {v: f"z{s:03d}" for v, s in zip(sorted(h.vertices), slots)}
        g = Hypergraph.make([{m[v] for v in e} for e in h.edges], m.values())
        cert_h, lab_h, gens_h = _canonical(h, 10**6)
        entries = len(hypergraph._cert_cache)
        cert_g, lab_g, gens_g = _canonical(g, 10**6)
        assert len(hypergraph._cert_cache) == entries  # g hit h's entry
        assert g._index_form[1] == h._index_form[1]
        assert (cert_h, lab_h) == unpruned_canonical(h)
        assert (cert_g, lab_g) == unpruned_canonical(g)
        assert lab_g == {m[v]: pos for v, pos in lab_h.items()}
        assert gens_g == tuple({m[a]: m[b] for a, b in gen.items()} for gen in gens_h)

    @pytest.mark.usefixtures("empty_cert_cache")
    def test_named_hit_path_is_a_lookup(self, monkeypatch):
        h = mesh(4, 4)
        cert = canonical_form(h)
        assert len(hypergraph._cert_cache) == 1

        def named_labelling(*args):
            raise AssertionError("hit path built a named labelling")

        monkeypatch.setattr(hypergraph, "_canonical", named_labelling)
        renamed = Hypergraph.make([{"q" + v for v in e} for e in h.edges])
        for same in (h, Hypergraph.make(h.edges), renamed):
            # budget 0: a hit explores no refinement node
            assert canonical_form(same, budget=0) is cert
        assert len(hypergraph._cert_cache) == 1

    @pytest.mark.usefixtures("empty_cert_cache")
    def test_full_cache_is_emptied_not_frozen(self, monkeypatch):
        monkeypatch.setattr(hypergraph, "_CERT_CACHE_MAX", 2)
        # the vertexless form is cached, and emptied, like any other
        forms = [H(), H("ab"), H("ab", "bc"), H(), H("ab", "bc", "ca")]
        expected = [{0}, {0, 1}, {2}, {2, 3}, {4}]  # full at two entries
        for h, kept in zip(forms, expected):
            canonical_form(h)
            assert set(hypergraph._cert_cache) == {forms[i]._index_form[1] for i in kept}

    def test_generators_of_symmetric_hosts_are_automorphisms(self):
        for h in (mesh(4, 4), dual(mesh(4, 5)), jigsaw(3, 4), grid(4, 4)):
            _, _, gens = _canonical(h, 10**6)
            assert gens and all(is_automorphism(g, h) for g in gens)

    @pytest.mark.usefixtures("empty_cert_cache")
    @pytest.mark.parametrize("n", range(1, 7))
    def test_relabelled_meshes_within_small_budget(self, n):
        rnd = random.Random(n)
        for base in (mesh(n, n), dual(mesh(n, n))):
            copies = []
            for prefix in ("ma", "mb"):
                order = list(range(len(base.vertices)))
                rnd.shuffle(order)
                copies.append(relabel(base, order, f"{prefix}{n}_"))
            a, b = copies
            assert canonical_form(a, budget=10**4) == canonical_form(b, budget=10**4)
            assert canonical_form(a, budget=10**4) == canonical_form(base)
            w = isomorphic(a, b, budget=10**4)
            assert w is not None and w.check(a, b)

    @pytest.mark.usefixtures("empty_cert_cache")
    @pytest.mark.parametrize("lengths", [(3, 4), (3, 3, 6), (4, 4, 8), (3, 3, 3, 4, 5)])
    def test_relabelled_cycle_unions(self, lengths):
        # every vertex looks alike to refinement, so the tree must branch
        edges, start = [], 0
        for k in lengths:
            edges += [(f"x{start + i}", f"x{start + (i + 1) % k}") for i in range(k)]
            start += k
        base = H(*edges)
        rnd = random.Random(sum(lengths))
        for _ in range(8):
            order = list(range(len(base.vertices)))
            rnd.shuffle(order)
            h = relabel(base, order, "cy")
            assert canonical_form(h, budget=10**4) == canonical_form(base)

    def test_pinned_labellings(self):
        cert, lab, _ = _canonical(jigsaw(2, 2), 10**6)
        assert cert == (4, ((0, 1), (0, 2), (1, 3), (2, 3)))
        assert sorted(lab.items()) == [("h1_1", 0), ("h2_1", 3), ("v1_1", 1), ("v1_2", 2)]
        cert, lab, _ = _canonical(jigsaw(3, 3), 10**6)
        assert cert == (
            12,
            (
                (0, 1), (0, 2, 8), (1, 4, 9), (2, 3), (3, 6, 10), (4, 5),
                (5, 7, 11), (6, 7), (8, 9, 10, 11),
            ),
        )
        assert sorted(lab.items()) == [
            ("h1_1", 0), ("h1_2", 2), ("h2_1", 9), ("h2_2", 10), ("h3_1", 5),
            ("h3_2", 7), ("v1_1", 1), ("v1_2", 8), ("v1_3", 3), ("v2_1", 4),
            ("v2_2", 11), ("v2_3", 6),
        ]
