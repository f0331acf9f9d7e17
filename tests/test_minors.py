import itertools
import json
import pathlib
import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hgdilute.acceptance as acceptance
import hgdilute.dilution as dilution
import hgdilute.minors as minors
from hgdilute.acceptance import _connected_graphs_upto, _degree2_corpus
from hgdilute.decomposition import DEFAULT_TW_VERTEX_LIMIT, exact_treewidth
from hgdilute.dilution import (
    DilutionSequence,
    MergeOn,
    apply_sequence,
    reachable_dilutions,
    reduce_hypergraph,
    search_dilution,
    verify_dilution,
)
from hgdilute.errors import BudgetExceededError, ConstructionError, InvalidInputError
from hgdilute.generators import grid, jigsaw, mesh, random_hypergraph, subdivided_jigsaw
from hgdilute.hypergraph import (
    Hypergraph,
    Path,
    _adjacency,
    _circuit_rank,
    _edge_count,
    _mask,
    _mask_components,
    canonical_form,
    dual,
    dual_with_map,
    edge_key,
    isomorphic,
)
from hgdilute.minors import (
    ExpressiveMinorMap,
    MinorMap,
    decide_dilution,
    expressive_from_minor,
    extend_to_onto,
    find_grid_minor,
    find_minor,
    jigsaw_from_grid_minor,
    minor_from_dilution,
    minor_piece,
    prejigsaw_from_expressive_minor,
    prejigsaw_to_jigsaw,
    trivial_prejigsaw_witness,
    validate_expressive_minor,
    validate_minor_map,
    validate_prejigsaw,
    _connected_subsets,
    _host,
    _pattern,
    _wider,
)

from conftest import sample_hypergraph


def H(*edges, extra=()):
    return Hypergraph.make([set(e) for e in edges], vertices=extra)


def _reassign(emm, **edges):
    """emm with the pattern edge ``xy`` of each keyword sent to its value."""
    rho = emm.rho_dict() | {frozenset(k): frozenset(v) for k, v in edges.items()}
    return ExpressiveMinorMap.of(emm.mu, rho)


def _recorner(w, **corners):
    return replace(w, corners=tuple(sorted((w.corner_dict() | corners).items())))


def _regroup(w, i, add=frozenset(), drop=frozenset()):
    """w with host edges added to and one dropped from its i-th edge group."""
    je, group = w.edge_groups[i]
    groups = list(w.edge_groups)
    groups[i] = je, (group | add) - {drop}
    return replace(w, edge_groups=tuple(groups))


def _repath(w, a, b, *vertices):
    """w with the fixed path of corners a, b through ``vertices``, each step
    along the edge of its two ends."""
    edges = tuple(frozenset(p) for p in zip(vertices, vertices[1:]))
    return replace(w, fixed_paths=tuple(
        ((x, y), Path(vertices, edges) if (x, y) == (a, b) else p)
        for (x, y), p in w.fixed_paths
    ))


def graph_dual(h):
    """Degree-2 test hosts are duals of graphs; keep the naming stable."""
    return dual_with_map(h)[0]


def expressive_by_search(g, host, mm):
    """Exhaustive injective edge-assignment search over connecting edges."""
    import itertools

    from hgdilute.hypergraph import edge_key
    from hgdilute.minors import extend_to_onto

    mm = extend_to_onto(g, host, mm)
    images = mm.as_dict()
    gedges = sorted(g.edges, key=edge_key)
    candidates = []
    for e in gedges:
        u, v = sorted(e)
        cands = sorted(
            (f for f in host.edges if f & images[u] and f & images[v]),
            key=edge_key,
        )
        candidates.append(cands)
    for combo in itertools.product(*candidates):
        if len(set(combo)) != len(combo):
            continue
        emm = ExpressiveMinorMap.of(mm, dict(zip(gedges, combo)))
        if validate_expressive_minor(g, host, emm)[0]:
            return emm
    return None


class TestMinorMaps:
    def test_identity_map_valid(self):
        g = grid(2, 2)
        mm = MinorMap.of({v: {v} for v in g.vertices})
        ok, why = validate_minor_map(g, g, mm)
        assert ok, why

    def test_overlap_invalid(self):
        g = H("ab")
        mm = MinorMap.of({"a": {"x"}, "b": {"x"}})
        host = H("xy")
        ok, why = validate_minor_map(g, host, mm)
        assert not ok and "overlaps" in why

    def test_disconnected_branch_set_invalid(self):
        g = H("ab")
        host = H("xy", "zw")
        mm = MinorMap.of({"a": {"x", "z"}, "b": {"y"}})
        ok, why = validate_minor_map(g, host, mm)
        assert not ok and "connected" in why

    def test_missing_connection_invalid(self):
        g = H("ab")
        host = H("xy", extra={"z"})
        mm = MinorMap.of({"a": {"x"}, "b": {"z"}})
        ok, why = validate_minor_map(g, host, mm)
        assert not ok and "connects" in why


class TestFindMinor:
    def test_c4_in_grid33(self):
        mm = find_minor(grid(2, 2), grid(3, 3))
        assert mm is not None
        assert validate_minor_map(grid(2, 2), grid(3, 3), mm)[0]

    def test_c4_in_k4(self):
        import itertools

        k4 = Hypergraph.make([set(p) for p in itertools.combinations("abcd", 2)])
        mm = find_grid_minor(k4, 2)
        assert mm is not None
        assert validate_minor_map(grid(2, 2), k4, mm, require_onto=True)[0]

    def test_c4_not_in_tree(self):
        tree = H("ab", "bc", "cd", "be")
        assert find_grid_minor(tree, 2) is None

    def test_onto_extension(self):
        host = grid(3, 3)
        mm = find_minor(grid(2, 2), host)
        onto = extend_to_onto(grid(2, 2), host, mm)
        assert validate_minor_map(grid(2, 2), host, onto, require_onto=True)[0]

    def test_grid_in_own_dual_of_jigsaw(self):
        d = graph_dual(jigsaw(3, 3))
        assert find_grid_minor(d, 3) is not None
        assert find_grid_minor(d, 2) is not None


@st.composite
def small_hosts(draw):
    """Up to 6 vertices with hyperedges, singleton and empty edges and
    isolated vertices; names unordered relative to their drawing order."""
    n = 6 - draw(st.integers(min_value=0, max_value=6))  # mostly large
    names = draw(st.permutations("pkcwfa"))[:n]
    edge = st.sets(st.sampled_from(names), max_size=4) if names else st.just(set())
    edges = draw(st.lists(edge, min_size=n // 2, max_size=7))
    return Hypergraph(frozenset(names), frozenset(frozenset(e) for e in edges))


@st.composite
def small_patterns(draw):
    """Connected graphs on 1 to 4 vertices: a random tree plus extra edges."""
    n = 4 - draw(st.integers(min_value=0, max_value=3))  # mostly large
    names = "abcd"[:n]
    edges = [{names[i], names[draw(st.integers(0, i - 1))]} for i in range(1, n)]
    if n > 2:
        pairs = list(itertools.combinations(names, 2))
        edges += draw(st.lists(st.sampled_from(pairs), max_size=3))
    return Hypergraph.make(edges, vertices=names)


def minor_oracle(g, host, assignment):
    """Is the assignment (pattern vertex of each sorted host vertex, or None)
    a minor model?  Checked from the edges alone."""
    hosts = sorted(host.vertices)
    sets = {v: {x for x, a in zip(hosts, assignment) if a == v} for v in g.vertices}
    for s in sets.values():
        reach, grow = set(sorted(s)[:1]), True
        while grow:
            step = {x for e in host.edges if e & reach for x in e & s}
            grow = not step <= reach
            reach |= step
        if not s or reach != s:
            return False
    return all(
        any(f & sets[u] and f & sets[v] for f in host.edges)
        for u, v in map(sorted, g.edges)
    )


class TestFindMinorOracle:
    @given(small_hosts(), small_patterns(), st.data())
    @settings(max_examples=150)
    def test_presence_matches_every_assignment(self, host, g, data):
        choices = [None, *sorted(g.vertices)]
        n = len(host.vertices)
        present = any(
            minor_oracle(g, host, a) for a in itertools.product(choices, repeat=n)
        )
        mm = find_minor(g, host)
        assert (mm is not None) == present
        if mm is not None:
            assert validate_minor_map(g, host, mm) == (True, None)
        # validate_minor_map agrees with the oracle on an arbitrary assignment,
        # and on one of single host vertices, where adjacency alone decides
        hosts = sorted(host.vertices)
        arbitrary = st.lists(st.sampled_from(choices), min_size=n, max_size=n)
        singles = st.permutations(choices[1:] + [None] * n).map(lambda a: a[:n])
        for a in (data.draw(arbitrary), data.draw(singles)):
            sets = {v: {x for x, b in zip(hosts, a) if b == v} for v in g.vertices}
            verdict = validate_minor_map(g, host, MinorMap.of(sets))[0]
            assert verdict == minor_oracle(g, host, a)


@st.composite
def hosts_upto7(draw, size=None):
    """Up to 7 vertices (or exactly ``size``) with hyperedges, singleton and
    empty edges and isolated vertices, often sparse."""
    n = 7 - draw(st.integers(min_value=0, max_value=7)) if size is None else size
    names = draw(st.permutations("pkcwfaz"))[:n]
    edge = st.sets(st.sampled_from(names), max_size=3) if names else st.just(set())
    edges = draw(st.lists(edge, max_size=draw(st.integers(0, 9))))
    return Hypergraph(frozenset(names), frozenset(frozenset(e) for e in edges))


@st.composite
def patterns_upto5(draw):
    """Connected graphs on 1 to 5 vertices: a random tree plus extra edges."""
    n = 5 - draw(st.integers(min_value=0, max_value=4))  # mostly large
    names = "abcde"[:n]
    edges = [{names[i], names[draw(st.integers(0, i - 1))]} for i in range(1, n)]
    if n > 2:
        pairs = list(itertools.combinations(names, 2))
        edges += draw(st.lists(st.sampled_from(pairs), max_size=6))
    return Hypergraph.make(edges, vertices=names)


def has_minor_by_branch_sets(g, host):
    """Brute force over every tuple of pairwise disjoint, nonempty, connected
    host vertex sets, one per pattern vertex, checked from the edges alone."""
    hosts = sorted(host.vertices)

    def connected(s):
        reach, grow = set(sorted(s)[:1]), True
        while grow:
            step = {x for e in host.edges if e & reach for x in e & s}
            grow = not step <= reach
            reach |= step
        return reach == s

    blocks = [
        frozenset(c)
        for k in range(1, len(hosts) + 1)
        for c in itertools.combinations(hosts, k)
        if connected(set(c))
    ]
    verts = sorted(g.vertices)

    def extend(chosen):
        i = len(chosen)
        if i == len(verts):
            return True
        for b in blocks:
            if any(b & c for c in chosen):
                continue
            joined = all(
                any(f & b and f & chosen[j] for f in host.edges)
                for j in range(i)
                if frozenset({verts[i], verts[j]}) in g.edges
            )
            if joined and extend(chosen + [b]):
                return True
        return False

    return extend([])


def masks(h):
    return _adjacency(*h._index_form[1])


def degrees(h):
    return sorted((m.bit_count() for m in masks(h)), reverse=True)


class TestAbsenceCertificates:
    """Each certificate on its own proves absence whenever it fires."""

    @given(hosts_upto7(), patterns_upto5())
    @settings(max_examples=100)
    def test_brute_force_matches_search(self, host, g):
        assert has_minor_by_branch_sets(g, host) == (find_minor(g, host) is not None)

    @given(hosts_upto7(), patterns_upto5())
    @settings(max_examples=100)
    def test_more_edges(self, host, g):
        assume(_edge_count(masks(g)) > _edge_count(masks(host)))
        assert not has_minor_by_branch_sets(g, host)

    @given(hosts_upto7(), patterns_upto5())
    @settings(max_examples=100)
    def test_larger_circuit_rank(self, host, g):
        assume(_circuit_rank(masks(g)) > _circuit_rank(masks(host)))
        assert not has_minor_by_branch_sets(g, host)

    @given(hosts_upto7(), patterns_upto5())
    @settings(max_examples=100)
    def test_larger_treewidth(self, host, g):
        assume(_wider(_pattern(g), _host(host)))
        assert not has_minor_by_branch_sets(g, host)

    @given(hosts_upto7(), patterns_upto5())
    @settings(max_examples=100)
    def test_wider_is_the_plain_rule(self, host, g):
        # _wider skips the host's bound when the pattern's lies at or below
        # the host's least degree; the answer must be the rule's all the same
        empty, lone = Hypergraph(frozenset(), frozenset()), H(extra="a")
        for h, p in [(host, g), (empty, g), (host, lone), (empty, lone)]:
            pattern, plan = _pattern(p), _host(h)
            wider = _wider(pattern, plan)
            n, bound = len(pattern.adj), plan.min_degree_width
            if n > DEFAULT_TW_VERTEX_LIMIT or bound >= n - 1:
                assert not wider
            else:
                assert wider == (pattern.treewidth > bound)

    def test_treewidth_is_exact_where_min_degree_is_loose(self):
        # min-degree elimination reads 4 on this pattern; its treewidth is 3
        g = H("ae", "bd", "ab", "bc", "df", "cd", "de", "cf", "af", "ce")
        assert not _wider(_pattern(g), _host(grid(3, 3)))  # host bound 3
        assert _wider(_pattern(g), _host(grid(2, 7)))  # host bound 2

    def test_pattern_treewidth_is_the_oracles(self):
        corpus = pathlib.Path(__file__).parents[1] / "perfbench" / "degree2_corpus.json"
        patterns = [
            Hypergraph.make(p["edges"], p["vertices"])
            for p in json.loads(corpus.read_text())["patterns"]
        ]
        assert len(patterns) == 31
        for g in patterns + [grid(3, 3), grid(3, 4), grid(4, 4)]:
            assert minors._Pattern(g).treewidth == exact_treewidth(g)[0].width

    def test_circuit_rank_counts_components(self):
        # two triangles and an isolated vertex: 6 - 7 + 3
        two_triangles = H("ab", "bc", "ca", "xy", "yz", "zx", extra="q")
        assert _circuit_rank(masks(two_triangles)) == 2
        # a hyperedge is a clique of the primal graph: 6 - 4 + 1
        assert _circuit_rank(masks(H("abcd"))) == 3

    @given(patterns_upto5(), st.data())
    @settings(max_examples=100)
    def test_degrees_not_dominated(self, g, data):
        host = data.draw(hosts_upto7(size=len(g.vertices)))
        assume(any(p > h for p, h in zip(degrees(g), degrees(host))))
        assert not has_minor_by_branch_sets(g, host)

    def test_net_not_in_hexagon(self):
        # a triangle with a pendant at each corner against a 6-cycle: equal
        # edge count, circuit rank and treewidth, but degrees 3 against 2
        net = H("ab", "bc", "ca", "ax", "by", "cz")
        hexagon = H("pq", "qr", "rs", "st", "tu", "up")
        assert (_edge_count(masks(net)), _circuit_rank(masks(net))) == (6, 1)
        assert (_edge_count(masks(hexagon)), _circuit_rank(masks(hexagon))) == (6, 1)
        assert not _wider(_pattern(net), _host(hexagon))
        assert find_minor(net, hexagon, budget=0) is None

    @pytest.mark.parametrize(
        "host", [grid(2, 7), graph_dual(jigsaw(2, 7))], ids=["grid27", "jigsaw27-dual"]
    )
    def test_no_3x3_grid_in_2x7_grid(self, host):
        # treewidth 3 against 2: proved before any placement attempt
        assert find_minor(grid(3, 3), host) is None
        assert find_minor(grid(3, 3), host, budget=0) is None


def reference_find_minor(g, host):
    """The search without the degree certificate, the free-neighbour cut,
    the circuit-rank cut per piece and the cap on subset sizes, kept as the
    reference: (model or None, placement attempts made)."""
    pattern, plan = _pattern(g), _host(host)
    if len(pattern.names) > len(plan.names) or (
        pattern.edges > plan.edges or pattern.rank > plan.rank or _wider(pattern, plan)
    ):
        return None, 0
    n, nbr = len(pattern.names), plan.adj
    subsets = _connected_subsets(nbr, len(nbr))
    everything = (1 << len(plan.names)) - 1
    attempts = 0

    def place(i, used, images, rims):
        nonlocal attempts
        if i == n:
            return list(images)
        free = everything & ~used
        limit = free.bit_count() - (n - i - 1)
        regions = _mask_components(nbr, free)
        for k, (size, touch, _) in enumerate(pattern.fits[i]):
            spot = room = 0
            for r in regions:
                if r.bit_count() >= size and all(r & rims[j] for j in touch):
                    spot |= r
                    room = max(room, r.bit_count() - size + 1)
                    if k:
                        break
            if not spot:
                return None
            if not k:
                home, limit = spot, min(limit, room)
        for s, around, size in subsets:
            if size > limit:
                break
            if s & ~home:
                continue
            attempts += 1
            if all(around & images[j] for j in pattern.earlier[i]):
                res = place(i + 1, used | s, images + [s], rims + [around])
                if res is not None:
                    return res
        return None

    model = place(0, 0, [], [])
    if model is None:
        return None, attempts
    sets = [{v for k, v in enumerate(plan.names) if m >> k & 1} for m in model]
    return MinorMap.of(dict(zip(pattern.names, sets))), attempts


def random_connected_graph(rng, n, extra):
    """A random tree on n shuffled names plus up to ``extra`` more edges."""
    names = [f"v{k}" for k in range(n)]
    rng.shuffle(names)
    edges = {frozenset({names[i], names[rng.randrange(i)]}) for i in range(1, n)}
    for _ in range(extra):
        edges.add(frozenset(rng.sample(names, 2)))
    return Hypergraph(frozenset(names), frozenset(edges))


class TestMatchesReferenceSearch:
    """The cuts drop only branches without a model: the same model or None
    as the reference search, within the reference's attempt count."""

    def assert_matches(self, g, host):
        model, attempts = reference_find_minor(g, host)
        assert find_minor(g, host, budget=attempts) == model

    @given(hosts_upto7(), patterns_upto5())
    @settings(max_examples=150)
    def test_small_hosts(self, host, g):
        self.assert_matches(g, host)

    @pytest.mark.parametrize("seed", range(16))
    def test_connected_graphs_8_to_11_vertices(self, seed):
        rng = random.Random(seed)
        host = random_connected_graph(rng, 8 + seed % 4, rng.randint(3, 9))
        star, k4 = H("ab", "ac", "ad", "ae"), H("ab", "ac", "ad", "bc", "bd", "cd")
        for g in (grid(2, 2), grid(2, 3), grid(3, 3), star, k4):
            self.assert_matches(g, host)


def reference_neighbors(host):
    adj = {v: set() for v in host.vertices}
    for e in host.edges:
        for v in e:
            adj[v] |= e
    for v, around in adj.items():
        around.discard(v)
    return adj


def reference_validate_minor_map(g, host, mm, require_onto=False):
    """``validate_minor_map`` on named sets: branch sets grow by set BFS."""
    if any(len(e) != 2 for e in g.edges):
        raise InvalidInputError("pattern must be 2-uniform")
    images = mm.as_dict()
    if set(images) != set(g.vertices):
        return False, "branch sets do not cover exactly the pattern vertices"
    adj = reference_neighbors(host)
    taken = set()
    for v in sorted(images):
        s = images[v]
        if not s:
            return False, f"branch set of {v} is empty"
        if not s <= host.vertices:
            return False, f"branch set of {v} leaves the host"
        if s & taken:
            return False, f"branch set of {v} overlaps another"
        taken |= s
        reach, stack = {min(s)}, [min(s)]
        while stack:
            for y in (adj[stack.pop()] & s) - reach:
                reach.add(y)
                stack.append(y)
        if reach != s:
            return False, f"branch set of {v} is not connected"
    for e in sorted(g.edges, key=edge_key):
        u, v = sorted(e)
        if not any(adj[x] & images[v] for x in images[u]):
            return False, f"no host edge connects branch sets of {u} and {v}"
    if require_onto and taken != set(host.vertices):
        return False, "branch sets do not cover the host"
    return True, None


def reference_extend_to_onto(g, host, mm):
    """``extend_to_onto`` on named sets: the least free vertex next to some
    branch set joins the first such set, until none is left."""
    images = {v: set(s) for v, s in mm.as_dict().items()}
    adj = reference_neighbors(host)
    free = set(host.vertices) - set().union(*images.values())
    while free:
        hit = next(
            ((u, v) for u in sorted(free) for v in sorted(images) if adj[u] & images[v]),
            None,
        )
        if hit is None:
            raise InvalidInputError("unreachable")
        images[hit[1]].add(hit[0])
        free.remove(hit[0])
    out = MinorMap.of(images)
    if not reference_validate_minor_map(g, host, out, require_onto=True)[0]:
        raise ConstructionError("broken")
    return out


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as err:  # the type is what is compared
        return type(err)


@st.composite
def maps_into(draw, g, host):
    """Branch sets for g's vertices in host: a found model, perhaps with one
    more vertex added to a set; single host vertices, where adjacency alone
    decides; or random sets that may be empty, overlap, be disconnected or
    leave the host.  Sometimes a pattern vertex has no set."""
    names, verts = sorted(host.vertices), sorted(g.vertices)
    kind = draw(st.sampled_from(["found", "singles", "random"]))
    found = find_minor(g, host) if kind == "found" else None
    if found is not None:
        images = dict(found.as_dict())
        if draw(st.booleans()):
            v = draw(st.sampled_from(verts))
            images[v] = images[v] | {draw(st.sampled_from(names))}
    elif kind != "random" and len(names) >= len(verts):
        picks = draw(st.permutations(names))
        images = {v: frozenset([x]) for v, x in zip(verts, picks)}
    else:
        pool = st.sampled_from(names + ["outside"])
        images = {v: draw(st.frozensets(pool, max_size=3)) for v in verts}
    if images and draw(st.integers(0, 9)) == 7:
        del images[draw(st.sampled_from(sorted(images)))]
    return MinorMap.of(images)


class TestMinorMapsMatchReferences:
    """Validation and the onto extension on host masks against the named
    versions kept here."""

    @given(hosts_upto7(), patterns_upto5(), st.data())
    @settings(max_examples=300)
    def test_random_maps(self, host, g, data):
        mm = data.draw(maps_into(g, host))
        for onto in (False, True):
            assert validate_minor_map(g, host, mm, onto) == (
                reference_validate_minor_map(g, host, mm, onto)
            )
        assert outcome(extend_to_onto, g, host, mm) == (
            outcome(reference_extend_to_onto, g, host, mm)
        )

    @given(st.integers(0, 10**6), patterns_upto5())
    @settings(max_examples=100)
    def test_onto_extension_of_found_models(self, seed, g):
        # connected hosts, where free vertices often touch several sets
        host = sample_hypergraph(random.Random(seed), max_vertices=9, max_edges=7)
        mm = find_minor(g, host)
        assume(mm is not None)
        assert extend_to_onto(g, host, mm) == reference_extend_to_onto(g, host, mm)

    def test_outside_vertex_is_a_construction_error(self):
        mm = MinorMap.of({"a": {"x", "outside"}, "b": {"y"}})
        with pytest.raises(ConstructionError):
            extend_to_onto(H("ab"), H("xy", "yz"), mm)


class TestPinnedSearch:
    """Witnesses copied from the frozenset search; attempt counts from the
    search with free-region pruning, the free-neighbour cut and the
    circuit-rank cut per piece."""

    # a relabelled grid(3,4): sorted grid vertex i becomes RELABEL[i]
    RELABEL = ["q10", "q6", "q2", "q1", "q4", "q11", "q0", "q7", "q5", "q8", "q3", "q9"]

    def host(self):
        m = dict(zip(sorted(grid(3, 4).vertices), self.RELABEL))
        return Hypergraph.make([{m[v] for v in e} for e in grid(3, 4).edges])

    def test_c4_witness_in_grid33(self):
        mm = find_minor(grid(2, 2), grid(3, 3))
        assert mm.as_dict() == {v: {v} for v in ["x1_1", "x1_2", "x2_1", "x2_2"]}

    def test_grid_minor_of_relabelled_grid(self):
        mm = find_grid_minor(self.host(), 3)
        assert [(v, sorted(s)) for v, s in mm.branch_sets] == [
            ("x1_1", ["q1"]),
            ("x1_2", ["q2"]),
            ("x1_3", ["q10", "q4", "q5", "q6"]),
            ("x2_1", ["q7"]),
            ("x2_2", ["q0"]),
            ("x2_3", ["q11"]),
            ("x3_1", ["q9"]),
            ("x3_2", ["q3"]),
            ("x3_3", ["q8"]),
        ]

    def test_exact_attempt_budget(self):
        # 36120 attempts before free-region pruning, 5967 before the
        # free-neighbour cut, 4297 before the circuit-rank cut
        assert find_minor(grid(3, 3), self.host(), budget=926) is not None
        with pytest.raises(BudgetExceededError, match="925 placement attempts"):
            find_minor(grid(3, 3), self.host(), budget=925)

    def test_exact_absence_budget(self):
        # no certificate fires on grid(3,4) less a middle edge; the pruned
        # search proves absence in 15428 attempts (28724 without the
        # circuit-rank cut, 53772 without the free-neighbour cut either,
        # 205616 unpruned)
        g = grid(3, 4)
        host = Hypergraph(g.vertices, g.edges - {frozenset({"x2_2", "x2_3"})})
        assert find_minor(grid(3, 3), host, budget=15428) is None
        with pytest.raises(BudgetExceededError, match="15427 placement attempts"):
            find_minor(grid(3, 3), host, budget=15427)


class TestPreparedSearch:
    """Patterns and hosts are prepared once and cached by value; no cached
    plan may change an answer or hide an error."""

    def answers(self, hosts):
        return [
            find_minor(g, host)
            for host in hosts
            for g in (grid(2, 2), grid(2, 3), H("ab", "bc", "ca"), H("ab"))
        ]

    def test_interleaved_hosts(self):
        a, b = grid(3, 3), graph_dual(mesh(3, 4))
        first = self.answers([a, b, a])
        assert first[:4] == first[8:]
        assert first == self.answers([a]) + self.answers([b]) + self.answers([a])

    def test_equal_but_distinct_objects(self):
        a = grid(3, 3)
        copy = Hypergraph(frozenset(set(a.vertices)), frozenset(set(a.edges)))
        assert copy == a and copy is not a
        assert self.answers([a]) == self.answers([copy])

    def test_after_cache_clear(self):
        before = self.answers([grid(3, 3), graph_dual(mesh(3, 4))])
        minors._pattern.cache_clear()
        minors._host.cache_clear()
        assert self.answers([grid(3, 3), graph_dual(mesh(3, 4))]) == before

    @pytest.mark.parametrize(
        "g,why",
        [(H("abc", "cd"), "2-uniform"), (H("ab", "cd"), "connected")],
        ids=["hyperedge", "disconnected"],
    )
    def test_bad_pattern_raises_every_call(self, g, why):
        for _ in range(2):
            with pytest.raises(InvalidInputError, match=why):
                find_minor(g, grid(3, 3))


class TestRankCut:
    """A connected piece of the unplaced pattern is a minor of the free
    region it goes to, so that region's circuit rank is at least its own."""

    def test_theta_not_in_two_hexagons(self):
        # a and b joined by three 2-paths: rank 2, as the two hexagons have
        # together, but each hexagon alone has rank 1
        theta = H(*(f"{end}{mid}" for mid in "123" for end in "ab"))
        hexagons = Hypergraph.make(
            [{f"{t}{i}", f"{t}{(i + 1) % 6}"} for t in "pq" for i in range(6)]
        )
        assert _circuit_rank(masks(theta)) == _circuit_rank(masks(hexagons)) == 2
        assert _edge_count(masks(theta)) < _edge_count(masks(hexagons))
        assert not _wider(_pattern(theta), _host(hexagons))
        # 24 attempts without the cut
        assert find_minor(theta, hexagons, budget=0) is None

    def test_piece_ranks(self):
        g = grid(2, 3)
        fits = _pattern(g).fits
        assert [rank for _, _, rank in fits[0]] == [2]
        assert [rank for _, _, rank in fits[1]] == [1]
        assert all(rank == 0 for pieces in fits[3:] for _, _, rank in pieces)


class TestCappedSubsets:
    """A branch set holds at most |host| - |pattern| + 1 vertices, so the
    host plan enumerates no larger subset than some pattern can use."""

    PATTERNS = [grid(3, 3), grid(2, 3), H("ab", "bc", "cd", "da"), H("ab")]

    @pytest.mark.parametrize("seed", range(8))
    def test_capped_list_is_a_prefix(self, seed):
        rng = random.Random(seed)
        host = random_connected_graph(rng, 5 + seed, rng.randint(0, 8))
        if seed % 2:  # and a second component
            other = random_connected_graph(rng, 4, 2)
            host = Hypergraph(
                host.vertices | {"w" + v for v in other.vertices},
                host.edges | {frozenset("w" + v for v in e) for e in other.edges},
            )
        nbr = masks(host)
        full = _connected_subsets(nbr, len(nbr))
        assert len(set(full)) == len(full)
        assert {s for s, _, _ in full} == {
            s for s in range(1, 1 << len(nbr)) if len(_mask_components(nbr, s)) == 1
        }
        for cap in range(1, len(nbr) + 2):
            kept = [t for t in full if t[2] <= cap]
            assert _connected_subsets(nbr, cap) == kept

    def assert_order_free(self, host, patterns):
        fresh = []
        for g in patterns:
            minors._host.cache_clear()
            fresh.append(find_minor(g, host))
        for order in (patterns, patterns[::-1]):
            minors._host.cache_clear()
            shared = {g: find_minor(g, host) for g in order}
            assert [shared[g] for g in patterns] == fresh

    @pytest.mark.parametrize("seed", range(4))
    def test_cap_order_does_not_change_models(self, seed):
        rng = random.Random(seed)
        host = random_connected_graph(rng, 10 + seed, 8)
        self.assert_order_free(host, self.PATTERNS)

    def test_small_pattern_after_a_large_one(self):
        # a triangle in an 8-cycle needs a branch set of 6 vertices, which
        # the plan built for the 8-cycle itself (cap 1) does not hold
        ring = Hypergraph.make([{f"c{i}", f"c{(i + 1) % 8}"} for i in range(8)])
        triangle = H("ab", "bc", "ca")
        self.assert_order_free(ring, [ring, triangle])
        assert max(map(len, find_minor(triangle, ring).as_dict().values())) == 6

    def test_plan_holds_no_subset_above_the_largest_cap(self):
        host = grid(3, 4)
        minors._host.cache_clear()
        largest = 0
        for g in self.PATTERNS:
            find_minor(g, host)
            largest = max(largest, len(host.vertices) - len(g.vertices) + 1)
            plan = _host(host)
            assert plan.cap == largest
            assert max(size for _, _, size in plan._subsets) == largest
        assert largest == 11


def _renamed(h, tag):
    return Hypergraph(
        frozenset(tag + v for v in h.vertices),
        frozenset(frozenset(tag + v for v in e) for e in h.edges),
    )


def _route_hosts():
    """Criterion 7's quick corpus, plus hosts outside its reduced connected
    class: a twin vertex, an isolated vertex, disjoint unions of two hosts."""
    corpus = _degree2_corpus(max_h_edges=4, max_h_vertices=5)
    hosts = list(corpus)
    for h in corpus:
        v = min(h.vertices)
        hosts.append(Hypergraph.make([e | {"twin"} if v in e else e for e in h.edges]))
        hosts.append(Hypergraph(h.vertices | {"lone"}, h.edges))
    for a, b in itertools.combinations_with_replacement(corpus[::3], 2):
        left, right = _renamed(a, "l"), _renamed(b, "r")
        hosts.append(Hypergraph(left.vertices | right.vertices, left.edges | right.edges))
    return hosts


class TestDecideDilution:
    """The degree-2 route against the BFS, and the pairs it leaves alone."""

    def test_route_agrees_with_bfs(self, monkeypatch):
        def no_bfs(*args, **kwargs):
            raise AssertionError("the route fell back to the BFS")

        monkeypatch.setattr(minors, "search_dilution", no_bfs)
        targets = [dual(g) for g in _connected_graphs_upto(4) if len(g.vertices) >= 3]
        yes = 0
        for h in _route_hosts():
            assert h.max_degree() <= 2
            reach = reachable_dilutions(h, budget=2 * 10**5)
            for t in targets:
                seq = decide_dilution(h, t)
                assert (seq is not None) == (canonical_form(t) in reach), (h, t)
                if seq is not None:
                    yes += 1
                    assert verify_dilution(h, seq, t)[0]
        assert yes > 300

    def test_degree_shortcut_does_not_search(self, monkeypatch):
        # the search's degree cut refuses the source before expanding it
        def no_search(*args, **kwargs):
            raise AssertionError("searched")

        monkeypatch.setattr(dilution, "_children", no_search)
        monkeypatch.setattr(minors, "find_minor", no_search)
        star = H("ab", "ac", "ad")  # a has degree 3
        assert decide_dilution(mesh(4, 4), star) is None
        assert decide_dilution(H("ab", "bc"), star) is None

    @pytest.mark.parametrize(
        "h,t",
        [
            (mesh(3, 3), H("ab", "bc")),  # degree-1 vertices: no graph's dual
            (mesh(3, 3), H("abd", "bc", "cad")),  # twins a, d: dual(dual(t)) is smaller
            (H("a"), dual(H("uv"))),  # the two-vertex pattern's loop vertex
            (mesh(2, 3), H("abc")),  # one edge: its dual has one vertex
            (H("abc", "abd", "acd", "bcd"), jigsaw(2, 2)),  # host degree 3
        ],
        ids=["path", "twins", "loop", "one-edge", "degree-3-host"],
    )
    def test_other_pairs_are_search_dilution(self, h, t, monkeypatch):
        def no_route(*args, **kwargs):
            raise AssertionError("took the route")

        monkeypatch.setattr(minors, "_dilution_by_minor", no_route)
        assert decide_dilution(h, t) == search_dilution(h, t)

    def test_mesh_to_jigsaw(self):
        seq = decide_dilution(mesh(6, 6), jigsaw(3, 2), budget=14)
        assert verify_dilution(mesh(6, 6), seq, jigsaw(3, 2))[0]
        with pytest.raises(BudgetExceededError, match="13 placement attempts"):
            decide_dilution(mesh(6, 6), jigsaw(3, 2), budget=13)
        assert decide_dilution(mesh(6, 6), jigsaw(4, 4)) is None

    @pytest.mark.parametrize(
        "h,n",
        [(mesh(4, 4), 2), (mesh(6, 6), 2), (mesh(6, 6), 3)],
        ids=["mesh44-2", "mesh66-2", "mesh66-3"],
    )
    def test_route_verifies_once(self, h, n, monkeypatch):
        # the route checks its whole sequence from h and nothing else; its
        # sequence is the piece's followed by jigsaw_from_grid_minor's
        budget = 10**5
        t, g = jigsaw(n, n), grid(n, n)
        piece_seq, piece, mm = minor_piece(h, g, budget)
        want = piece_seq.then(jigsaw_from_grid_minor(piece, g, mm).steps)
        dg = minors._dual_graph(t)
        dual_seq, dual_piece, dual_mm = minor_piece(h, dg, budget)
        decided = dual_seq.then(jigsaw_from_grid_minor(dual_piece, dg, dual_mm).steps)
        calls = []
        verify = minors.verify_dilution
        monkeypatch.setattr(
            minors, "verify_dilution", lambda *a: calls.append(a) or verify(*a)
        )
        assert decide_dilution(h, t, budget) == decided
        assert len(calls) == 1
        # jigsaw-extract's call
        assert minors._dilution_by_minor(h, g, t, budget) == (want, mm)
        assert len(calls) == 2

    def test_criterion_7_never_runs_the_route(self, monkeypatch, rng):
        def no_route(*args, **kwargs):
            raise AssertionError("criterion 7 ran the route")

        for name in ("decide_dilution", "_dilution_by_minor"):
            monkeypatch.setattr(minors, name, no_route)
            monkeypatch.setattr(acceptance, name, no_route, raising=False)
        passed, detail = acceptance.criterion_7_degree2_equivalence(rng, quick=True)
        assert passed, detail


class TestJigsawExtraction:
    @pytest.mark.parametrize("n,m", [(3, 3), (4, 4)])
    def test_mesh_to_jigsaw22(self, n, m):
        h = mesh(n, m)
        h_red, _ = reduce_hypergraph(h)
        d, _ = dual_with_map(h_red)
        mm = find_grid_minor(d, 2)
        assert mm is not None
        seq = jigsaw_from_grid_minor(h, grid(2, 2), mm)
        assert verify_dilution(h, seq, jigsaw(2, 2))[0]

    def test_jigsaw33_identity(self):
        h = jigsaw(3, 3)
        d, _ = dual_with_map(reduce_hypergraph(h)[0])
        mm = find_grid_minor(d, 3)
        seq = jigsaw_from_grid_minor(h, grid(3, 3), mm)
        ok, _ = verify_dilution(h, seq, jigsaw(3, 3))
        assert ok and len(seq.steps) == 0

    def test_jigsaw33_to_jigsaw22(self):
        h = jigsaw(3, 3)
        d, _ = dual_with_map(reduce_hypergraph(h)[0])
        mm = find_grid_minor(d, 2)
        seq = jigsaw_from_grid_minor(h, grid(2, 2), mm)
        assert verify_dilution(h, seq, jigsaw(2, 2))[0]

    def test_degree_3_rejected(self):
        h = H("ab", "bc", "bd")  # b has degree 3
        with pytest.raises(InvalidInputError):
            jigsaw_from_grid_minor(h, grid(2, 2), MinorMap.of({}))

    def test_lone_empty_edge_stays(self):
        # the host {()} is the dual of the one-vertex pattern: nothing to
        # collapse, and its empty edge, the only edge, is no subedge to drop
        h, x = H(""), Hypergraph(frozenset({"x"}), frozenset())
        d, _ = dual_with_map(h)
        assert jigsaw_from_grid_minor(h, x, MinorMap.of({"x": d.vertices})).steps == ()
        seq, piece, mm = minors.minor_piece(h, x, 10)
        assert (seq.steps, piece, mm) == ((), h, MinorMap.of({"x": d.vertices}))


class TestDegenerateDualCollapse:
    def test_two_vertex_pattern_dual_collapses(self):
        # both dual edges of the one-edge pattern coincide, so its dual is a
        # single loop vertex; the loop host reaches it by the empty sequence
        # while no two disjoint branch sets fit into the one-vertex dual
        k2 = H("uv")
        loop = H("a")
        assert isomorphic(dual(k2), loop) is not None
        assert search_dilution(loop, dual(k2)) is not None
        assert find_minor(k2, dual(loop)) is None


class TestMinorFromDilution:
    def test_empty_sequence_identity(self):
        g = grid(2, 2)
        h = jigsaw(2, 2)  # = dual(g) up to naming
        seq = DilutionSequence.for_source(h, ())
        mm = minor_from_dilution(h, seq, g)
        assert validate_minor_map(g, dual(h), mm)[0]
        assert all(len(s) == 1 for _, s in mm.branch_sets)

    def test_extraction_round_trip(self):
        h = mesh(4, 4)
        d, _ = dual_with_map(reduce_hypergraph(h)[0])
        seq = jigsaw_from_grid_minor(h, grid(2, 2), find_grid_minor(d, 2))
        mm = minor_from_dilution(h, seq, grid(2, 2))
        assert validate_minor_map(grid(2, 2), dual(h), mm)[0]

    def test_single_merge_small_images(self):
        g = H("pq", "qr", "rp")  # triangle
        h = dual(g)
        # subdivide one vertex of h? instead: take h with a merge-reachable copy
        seq = search_dilution(mesh(3, 3), dual(g), budget=5 * 10**4)
        assert seq is not None
        mm = minor_from_dilution(mesh(3, 3), seq, g)
        ok, why = validate_minor_map(g, dual(mesh(3, 3)), mm)
        assert ok, why


def _edges_linked_avoiding(
    host: Hypergraph, a: frozenset, b: frozenset, marked: frozenset
) -> bool:
    """Reference: whether edges a and b touch or connect via unmarked-edge
    paths, read off the components of the unmarked edges plus a and b."""
    names, (n, masks) = host._index_form
    index = {x: i for i, x in enumerate(names)}
    ma, mb = _mask(index, a), _mask(index, b)
    kept = set(masks) - {_mask(index, e) for e in marked} | {ma, mb}
    pieces = _mask_components(_adjacency(n, kept), (1 << n) - 1)
    return any(p & ma and p & mb for p in pieces)


class TestExpressiveMinors:
    def test_link_rule_matches_reference(self):
        # random rank-3/4 hosts; every injective assignment of connecting
        # edges (up to 30 per model) is judged by the reference, pair by pair
        rng = random.Random(5)
        patterns = [H("ab", "bc", "ca"), H("ab", "ac", "ad"), H("ab", "bc", "cd", "da"),
                    H("ab", "bc", "cd", "da", "ac")]
        checked = blocked = 0
        for seed in range(300):
            nv = rng.randint(5, 9)
            try:
                host = random_hypergraph(
                    nv, rng.randint(nv - 1, nv + 2), rng.choice([2, 3]),
                    rng.choice([3, 4]), seed=seed,
                )
            except InvalidInputError:
                continue
            for g in patterns:
                mm = find_minor(g, host)
                if mm is None:
                    continue
                mm = extend_to_onto(g, host, mm)
                images = mm.as_dict()
                gl = sorted(g.edges, key=edge_key)
                cands = [
                    [f for f in sorted(host.edges, key=edge_key)
                     if minors._edge_connects(f, *(images[x] for x in sorted(e)))]
                    for e in gl
                ]
                for combo in itertools.islice(itertools.product(*cands), 30):
                    if len(set(combo)) < len(combo):
                        continue
                    rho, marked = dict(zip(gl, combo)), frozenset(combo)
                    expected = (True, None)
                    for e1, e2 in itertools.combinations(gl, 2):
                        a, b = rho[e1], rho[e2]
                        if e1 & e2 and not _edges_linked_avoiding(host, a, b, marked):
                            expected = (
                                False,
                                f"assigned edges of incident pattern edges {sorted(e1)}/"
                                f"{sorted(e2)} only connect through assigned edges",
                            )
                            break
                    emm = ExpressiveMinorMap.of(mm, rho)
                    assert validate_expressive_minor(g, host, emm) == expected
                    checked += 1
                    blocked += not expected[0]
        assert checked >= 1000 and blocked >= 10, (checked, blocked)

    def test_rank2_minor_is_expressive(self):
        host = grid(3, 3)
        mm = find_minor(grid(2, 2), host)
        emm = expressive_from_minor(grid(2, 2), host, mm)
        ok, why = validate_expressive_minor(grid(2, 2), host, emm)
        assert ok, why

    def test_non_injective_rejected(self):
        g = H("ab", "bc")
        host = H("xy", "yz", extra=())
        mm = extend_to_onto(g, host, find_minor(g, host))
        rho = {frozenset({"a", "b"}): frozenset("xy"), frozenset({"b", "c"}): frozenset("xy")}
        emm = ExpressiveMinorMap.of(mm, rho)
        ok, why = validate_expressive_minor(g, host, emm)
        assert not ok and "injective" in why

    def test_touching_assigned_edges_are_linked(self):
        g = H("ab", "bc")
        host = H("uv", "vw")
        mm = MinorMap.of({"a": {"u"}, "b": {"v"}, "c": {"w"}})
        emm = ExpressiveMinorMap.of(
            mm,
            {
                frozenset({"a", "b"}): frozenset("uv"),
                frozenset({"b", "c"}): frozenset("vw"),
            },
        )
        assert validate_expressive_minor(g, host, emm)[0]

    @pytest.mark.parametrize(
        "mutate, reason",
        [
            (
                lambda host, emm: (host, replace(emm, mu=MinorMap.of(
                    {"a": {"1"}, "b": {"3", "4"}, "c": {"5"}}
                ))),
                "branch sets do not cover exactly the pattern vertices",
            ),
            (
                lambda host, emm: (host, replace(emm, rho=emm.rho[:2])),
                "edge assignment does not cover exactly the pattern edges",
            ),
            (
                lambda host, emm: (host, _reassign(emm, bd="13")),
                "edge assignment is not injective",
            ),
            (
                lambda host, emm: (host, _reassign(emm, bd="35")),
                "edge assignment leaves the host",
            ),
            (
                lambda host, emm: (host, _reassign(emm, bc="36", bd="45")),
                "assigned edge for b-c does not connect the branch sets",
            ),
            (
                # the branch set of b holds together only through bd's edge
                lambda host, emm: (H("13", "45", "346"), _reassign(emm, bd="346")),
                "assigned edges of incident pattern edges ['a', 'b']/['b', 'c'] "
                "only connect through assigned edges",
            ),
        ],
        ids=["minor-map", "cover", "injective", "host", "connect", "link"],
    )
    def test_each_rejection(self, mutate, reason):
        g, host = H("ab", "bc", "bd"), H("13", "34", "45", "36")
        mm = MinorMap.of({"a": {"1"}, "b": {"3", "4"}, "c": {"5"}, "d": {"6"}})
        emm = expressive_from_minor(g, host, mm)
        assert validate_expressive_minor(g, host, emm) == (True, None)
        assert validate_expressive_minor(g, *mutate(host, emm)) == (False, reason)

    def test_blocked_path_detected(self):
        # rank-3 host: the only bridge between the first two assigned edges
        # is itself assigned, so the inter-edge path condition fails
        g = H("ab", "bc", "ca")  # triangle pattern
        host = Hypergraph.make([{"u", "v"}, {"w", "x"}, {"u", "v", "w", "x"}])
        mm = MinorMap.of({"a": {"u"}, "b": {"v", "w"}, "c": {"x"}})
        emm = ExpressiveMinorMap.of(
            mm,
            {
                frozenset({"a", "b"}): frozenset({"u", "v"}),
                frozenset({"b", "c"}): frozenset({"w", "x"}),
                frozenset({"c", "a"}): frozenset({"u", "v", "w", "x"}),
            },
        )
        assert validate_minor_map(g, host, mm, require_onto=True)[0]
        ok, why = validate_expressive_minor(g, host, emm)
        assert not ok and "assigned" in why


class TestPreJigsaw:
    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (3, 4), (4, 4)])
    def test_jigsaw_is_prejigsaw(self, n, m):
        w = trivial_prejigsaw_witness(n, m)
        rep = validate_prejigsaw(jigsaw(n, m), n, m, w)
        assert rep.valid and rep.pi_injective

    def test_overlapping_groups_invalid(self):
        w = trivial_prejigsaw_witness(2, 2)
        groups = dict(w.edge_groups)
        keys = sorted(groups, key=lambda e: tuple(sorted(e)))
        groups[keys[0]] = groups[keys[0]] | groups[keys[1]]
        bad = type(w)(
            w.rows, w.cols, w.corners, tuple(groups.items()), w.fixed_paths
        )
        rep = validate_prejigsaw(jigsaw(2, 2), 2, 2, bad)
        assert not rep.valid and "overlap" in rep.reason

    @pytest.mark.parametrize(
        "mutate, reason",
        [
            (lambda h, w: (h, replace(w, rows=3)), "witness dimensions disagree"),
            (
                lambda h, w: (h, replace(w, corners=w.corners[1:])),
                "corner map does not cover exactly the jigsaw vertices",
            ),
            (
                lambda h, w: (h, _recorner(w, h1_1="stray")),
                "corner map leaves the host",
            ),
            (
                lambda h, w: (h, replace(w, edge_groups=w.edge_groups[1:])),
                "edge groups do not cover exactly the jigsaw edges",
            ),
            (
                lambda h, w: (h, _regroup(w, 0, add={frozenset({"h1_1", "v1_1"})})),
                "group of ['h1_1', 'v1_1'] contains non-edges",
            ),
            (
                lambda h, w: (h, _regroup(w, 1, add=w.edge_groups[0][1])),
                "group of ['h1_1', 'v1_2'] overlaps another group",
            ),
            (
                lambda h, w: (h, _regroup(w, 0, drop=frozenset({"h1_1", "se1_1_1"}))),
                "groups do not exhaust the host edges",
            ),
            (
                lambda h, w: (h, replace(w, fixed_paths=w.fixed_paths[1:])),
                "fixed paths do not cover exactly the same-edge corner pairs",
            ),
            (
                lambda h, w: (h, _repath(w, "h1_1", "v1_1", "h1_1", "v1_1")),
                "fixed path h1_1,v1_1: path edge not in hypergraph",
            ),
            (
                lambda h, w: (h, _repath(w, "h1_1", "v1_1", "h1_1", "se1_1_1")),
                "fixed path h1_1,v1_1 does not join the mapped corners",
            ),
            (
                # the long way round, through the other three regions
                lambda h, w: (h, _repath(
                    w, "h1_1", "v1_1", "h1_1", "se1_2_1", "v1_2", "se2_2_1",
                    "h2_1", "se2_1_1", "v1_1",
                )),
                "fixed path h1_1,v1_1 uses edges outside its group",
            ),
            (
                lambda h, w: (h, _recorner(w, v1_2="se1_1_1")),
                "fixed path h1_1,v1_1 passes through a mapped corner",
            ),
            (
                lambda h, w: (Hypergraph(h.vertices | {"stray"}, h.edges), w),
                "some host vertex is neither a corner nor on a fixed path",
            ),
        ],
        ids=[
            "dims", "corners", "corner-host", "groups", "non-edge", "overlap",
            "exhaust", "paths", "path-check", "ends", "outside", "through", "uncovered",
        ],
    )
    def test_each_rejection(self, mutate, reason):
        h, w = subdivided_jigsaw(2, 2, 1)
        assert validate_prejigsaw(h, 2, 2, w).valid
        h, w = mutate(h, w)
        rep = validate_prejigsaw(h, 2, 2, w)
        assert (rep.valid, rep.reason) == (False, reason)

    def test_uncovered_vertex_invalid(self):
        h, w = subdivided_jigsaw(2, 2, 1)
        extra = Hypergraph(h.vertices | {"stray"}, h.edges)
        rep = validate_prejigsaw(extra, 2, 2, w)
        assert not rep.valid and "neither" in rep.reason

    def test_collapse_subdivided(self):
        h, w = subdivided_jigsaw(2, 2, 1)
        seq = prejigsaw_to_jigsaw(h, w)
        merges = [s for s in seq.steps if isinstance(s, MergeOn)]
        assert len(merges) == 4
        assert verify_dilution(h, seq, jigsaw(2, 2))[0]

    def test_degree3_rejected(self):
        h = H("ab", "bc", "bd")
        with pytest.raises(InvalidInputError):
            prejigsaw_to_jigsaw(h, trivial_prejigsaw_witness(2, 2))


class TestExpressiveToPreJigsaw:
    @pytest.mark.parametrize("builder", [lambda: mesh(4, 4), lambda: jigsaw(3, 3)])
    def test_degree2_pipeline(self, builder):
        h = builder()
        h_red, _ = reduce_hypergraph(h)
        d, _ = dual_with_map(h_red)
        mm = find_grid_minor(d, 2)
        emm = expressive_from_minor(grid(2, 2), d, mm)
        seq, wit = prejigsaw_from_expressive_minor(h, 2, emm)
        p = apply_sequence(h, seq)
        rep = validate_prejigsaw(p, 2, 2, wit)
        assert rep.valid, rep.reason
        # the pre-jigsaw further dilutes to the jigsaw
        collapse = prejigsaw_to_jigsaw(p, wit)
        assert verify_dilution(p, collapse, jigsaw(2, 2))[0]

    def test_identity_on_jigsaw(self):
        h = jigsaw(2, 2)
        h_red, _ = reduce_hypergraph(h)
        d, _ = dual_with_map(h_red)
        mm = find_grid_minor(d, 2)
        emm = expressive_from_minor(grid(2, 2), d, mm)
        seq, wit = prejigsaw_from_expressive_minor(h, 2, emm)
        assert not [s for s in seq.steps]  # nothing to delete
        rep = validate_prejigsaw(apply_sequence(h, seq), 2, 2, wit)
        assert rep.valid

    def test_handbuilt_degree3_host(self):
        # subdivided jigsaw(2,2) plus a pendant spike making one vertex degree
        # 3; an exhaustive assignment search stands in for a hand-built map
        base, _ = subdivided_jigsaw(2, 2, 1)
        spike_at = sorted(base.vertices)[0]
        h = Hypergraph.make(list(base.edges) + [{spike_at, "spike"}])
        assert h.max_degree() == 3
        h_red, _ = reduce_hypergraph(h)
        d, _ = dual_with_map(h_red)
        mm = find_grid_minor(d, 2)
        assert mm is not None
        emm = expressive_by_search(grid(2, 2), d, mm)
        assert emm is not None
        seq, wit = prejigsaw_from_expressive_minor(h, 2, emm)
        p = apply_sequence(h, seq)
        assert validate_prejigsaw(p, 2, 2, wit).valid
