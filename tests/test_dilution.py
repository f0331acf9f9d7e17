import itertools
import random
from collections import deque
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgdilute.acceptance import _connected_graphs_upto, _degree2_corpus
from hgdilute import dilution, hypergraph
from hgdilute.dilution import (
    DeleteSubedge,
    DeleteVertex,
    DilutionSequence,
    MergeOn,
    apply_sequence,
    apply_step,
    delete_subedge,
    delete_vertex,
    merge_on,
    reachable_dilutions,
    apply_sequence_states,
    reduce_hypergraph,
    search_dilution,
    track_labels,
    valid_steps,
    verify_dilution,
    _index_steps,
    _invariants,
    _named_step,
)
from hgdilute.errors import BudgetExceededError, InvalidStepError
from hgdilute.hypergraph import (
    Hypergraph,
    _bits,
    _canonical,
    _canonical_index,
    canonical_form,
    components,
    dual,
    is_connected,
    isomorphic,
    primal_graph,
)
from hgdilute.formats import fig3_sequence
from hgdilute.generators import grid, jigsaw, mesh, random_hypergraph

from conftest import sample_hypergraph


def H(*edges, extra=()):
    return Hypergraph.make([set(e) for e in edges], vertices=extra)


seeds = st.integers(min_value=0, max_value=10**6)


def relabelled(h, seed):
    """A copy of h on the vertices ``r0, r1, ...``, shuffled by ``seed``."""
    names = [f"r{i}" for i in range(len(h.vertices))]
    random.Random(seed).shuffle(names)
    rename = dict(zip(sorted(h.vertices), names))
    return Hypergraph(
        frozenset(names), frozenset(frozenset(rename[v] for v in e) for e in h.edges)
    )


def random_valid_sequence(h, rng, max_steps=4):
    steps = []
    cur = h
    for _ in range(rng.randint(0, max_steps)):
        options = valid_steps(cur)
        if not options:
            break
        s = rng.choice(options)
        steps.append(s)
        cur = apply_step(cur, s)
    return DilutionSequence.for_source(h, steps), cur


class TestSteps:
    def test_delete_vertex(self):
        assert delete_vertex(H("ab", "bc"), "b") == H("a", "c")

    def test_delete_vertex_triangle(self):
        assert delete_vertex(H("ab", "bc", "ac"), "c") == H("ab", "a", "b")

    def test_delete_vertex_collapse(self):
        assert delete_vertex(H("ab", "a"), "b") == H("a")

    def test_delete_vertex_unknown(self):
        with pytest.raises(InvalidStepError):
            delete_vertex(H("ab"), "z")

    def test_delete_subedge(self):
        assert delete_subedge(H("a", "ab"), {"a"}) == H("ab")

    def test_delete_empty_edge(self):
        h = Hypergraph.make([{"a", "b"}, set()])
        assert delete_subedge(h, set()) == H("ab")

    def test_delete_subedge_not_proper(self):
        with pytest.raises(InvalidStepError):
            delete_subedge(H("ab", "bc"), {"a", "b"})

    def test_merge_on(self):
        assert merge_on(H("ab", "bc"), "b") == H("ac")

    def test_merge_single_edge(self):
        assert merge_on(H("ab"), "b") == H("a")

    def test_merge_degree_zero(self):
        with pytest.raises(InvalidStepError):
            merge_on(H("ab", extra={"z"}), "z")

    def test_merge_mesh_diagonal_makes_all_incident(self):
        cur = mesh(6, 6)
        for i in range(1, 7):
            cur = merge_on(cur, f"c{i}_{i}")
        assert len(cur.edges) == 6
        assert all(a & b for a in cur.edges for b in cur.edges if a != b)


class TestSequences:
    def test_empty_sequence(self):
        h = H("ab")
        assert apply_sequence(h, DilutionSequence()) == h

    def test_fig3_sequence(self):
        ok, _ = verify_dilution(mesh(6, 6), fig3_sequence(), jigsaw(3, 2))
        assert ok

    def test_failing_step_reports_index(self):
        seq = DilutionSequence((DeleteVertex("a"), DeleteVertex("a")))
        with pytest.raises(InvalidStepError) as err:
            apply_sequence(H("ab"), seq)
        assert err.value.index == 1

    def test_fingerprint_mismatch(self):
        seq = DilutionSequence((), source_vertices=5)
        with pytest.raises(InvalidStepError):
            apply_sequence(H("ab"), seq)

    def test_verify_reports_mismatch(self):
        ok, wit = verify_dilution(H("ab"), DilutionSequence(), H("ab", extra={"z"}))
        assert not ok and wit is None

    @given(seeds)
    def test_step_monotonicity(self, seed):
        rng = random.Random(seed)
        h = sample_hypergraph(rng)
        for step in valid_steps(h):
            nxt = apply_step(h, step)
            assert len(nxt.vertices) <= len(h.vertices)
            assert len(nxt.edges) <= len(h.edges)
            assert (len(nxt.vertices), len(nxt.edges)) != (
                len(h.vertices),
                len(h.edges),
            )

    @given(seeds)
    def test_degree_never_increases(self, seed):
        rng = random.Random(seed)
        h = sample_hypergraph(rng)
        for step in valid_steps(h):
            assert apply_step(h, step).max_degree() <= h.max_degree()


class TestReduce:
    def test_isolated_vertex_removed(self):
        # b shares a's vertex type, so it goes too; then the isolated x
        r, seq = reduce_hypergraph(H("ab", extra={"x"}))
        assert r == H("a")
        assert seq.steps == (DeleteVertex("b"), DeleteVertex("x"))

    def test_distinct_types_survive(self):
        h = H("ab", "bc", extra={"x"})
        r, seq = reduce_hypergraph(h)
        assert r == H("ab", "bc")
        assert seq.steps == (DeleteVertex("x"),)

    def test_empty_edge_removed(self):
        h = Hypergraph.make([{"a", "b"}, {"b", "c"}, set()])
        r, seq = reduce_hypergraph(h)
        assert r == H("ab", "bc")
        assert DeleteSubedge(frozenset()) in seq.steps

    def test_vertex_types_deduplicated(self):
        r, seq = reduce_hypergraph(H("abc"))
        assert r == H("a")  # smallest name kept
        assert verify_dilution(H("abc"), seq, r)[0]

    def test_lone_empty_edge_kept(self):
        h = Hypergraph(frozenset(), frozenset({frozenset()}))
        r, seq = reduce_hypergraph(h)
        assert r == h and not seq.steps

    @given(seeds)
    def test_reduce_contract(self, seed):
        rng = random.Random(seed)
        h = sample_hypergraph(rng)
        r, seq = reduce_hypergraph(h)
        assert apply_sequence(h, seq) == r
        assert r.is_reduced() or r.edges == frozenset({frozenset()})
        r2, _ = reduce_hypergraph(r)
        assert isomorphic(r2, r) is not None  # idempotent up to isomorphism


class TestSearch:
    def test_self_is_empty_sequence(self):
        h = H("ab", "bc")
        seq = search_dilution(h, h)
        assert seq is not None and not seq.steps

    def test_c4_to_jigsaw22_up_to_iso(self):
        seq = search_dilution(grid(2, 2), jigsaw(2, 2))
        assert seq is not None and not seq.steps

    def test_size_obstruction_proven_absent(self):
        assert search_dilution(H("ab"), H("ab", "bc", "ca")) is None

    def test_found_sequences_verify(self):
        src = mesh(3, 3)
        target = jigsaw(2, 2)
        seq = search_dilution(src, target, budget=5 * 10**4)
        assert seq is not None
        assert verify_dilution(src, seq, target)[0]

    @given(seeds)
    @settings(max_examples=20)
    def test_random_dilutions_are_found(self, seed):
        rng = random.Random(seed)
        h = sample_hypergraph(rng, max_vertices=5, max_edges=4)
        seq, result = random_valid_sequence(h, rng, max_steps=3)
        found = search_dilution(h, result, budget=4 * 10**4)
        assert found is not None
        assert verify_dilution(h, found, result)[0]

    def test_reachable_contains_reductions(self):
        h = H("ab", "bc", extra={"z"})
        certs = reachable_dilutions(h)
        assert canonical_form(reduce_hypergraph(h)[0]) in certs


def unpruned_search(h_src, h_target):
    """Breadth-first dilution search expanding every valid step of every state.

    Returns the sequence found (or None) and the number of states expanded.
    """
    target_cert = canonical_form(h_target)
    if canonical_form(h_src) == target_cert:
        return DilutionSequence.for_source(h_src, ()), 0
    size_ok = lambda g: (  # noqa: E731
        len(g.vertices) >= len(h_target.vertices) and len(g.edges) >= len(h_target.edges)
    )
    if not size_ok(h_src):
        return None, 0
    seen = {canonical_form(h_src)}
    queue = deque([(h_src, ())])
    expanded = 0
    while queue:
        state, path = queue.popleft()
        expanded += 1
        for step in valid_steps(state):
            child = apply_step(state, step)
            if not size_ok(child):
                continue
            cert = canonical_form(child)
            if cert in seen:
                continue
            if cert == target_cert:
                return DilutionSequence.for_source(h_src, path + (step,)), expanded
            seen.add(cert)
            queue.append((child, path + (step,)))
    return None, expanded


def unpruned_reachable(h_src):
    """Certificates reachable from h_src, expanding every valid step."""
    seen = {canonical_form(h_src)}
    queue = deque([h_src])
    while queue:
        state = queue.popleft()
        for step in valid_steps(state):
            child = apply_step(state, step)
            cert = canonical_form(child)
            if cert not in seen:
                seen.add(cert)
                queue.append(child)
    return seen


def named_invariants(h):
    """Sorted degrees, largest first, and the edge count and circuit rank of
    the dual 2-section ``primal_graph(dual(h))``."""
    section = primal_graph(dual(h))
    rank = len(section.edges) - len(section.vertices) + len(components(section))
    degrees = sorted([h.degree(v) for v in h.vertices], reverse=True)
    return degrees, len(section.edges), rank


def passes_cuts(state, target) -> bool:
    """Whether ``state`` passes the invariant cuts of ``target``: its degrees
    dominate the target's entry by entry, and its dual 2-section has at
    least the target's edge count and circuit rank."""
    degrees, edges, rank = named_invariants(state)
    t_degrees, t_edges, t_rank = named_invariants(target)
    dominates = all(d >= t for d, t in zip(degrees, t_degrees))
    return dominates and edges >= t_edges and rank >= t_rank


def index_hypergraph(n, edges):
    """The hypergraph on the vertices ``str(i)`` for i < n, with edges given
    as lists of vertex indices."""
    return Hypergraph.make([map(str, e) for e in edges], map(str, range(n)))


def contour_search(h_src, h_target, breadth_first=False):
    """The contour-and-cut search over every valid step.

    A child below the target's vertex or edge count, or failing
    ``passes_cuts``, is dropped.  Contour F admits the states at depth d with
    d + vertices - target vertices <= F, starting at the source's value; a
    child at depth F is tested against the target but not expanded.  The
    first contour is depth-first, taking the last state queued and queueing
    a state's new children in reverse, unless ``breadth_first``; later
    contours are breadth-first.  Returns the sequence found (or None) and the
    number of distinct states expanded over all contours.
    """
    target_cert = canonical_form(h_target)
    if canonical_form(h_src) == target_cert:
        return DilutionSequence.for_source(h_src, ()), 0
    t_n, t_m = len(h_target.vertices), len(h_target.edges)

    def admitted(g):
        big = len(g.vertices) >= t_n and len(g.edges) >= t_m
        return big and passes_cuts(g, h_target)

    if not admitted(h_src):
        return None, 0
    expanded = set()
    first = bound = len(h_src.vertices) - t_n
    while True:
        seen = {canonical_form(h_src)}
        queue = deque([(h_src, ())])
        cut = False
        depth_first = bound == first and not breadth_first
        while queue:
            state, path = queue.pop() if depth_first else queue.popleft()
            expanded.add(canonical_form(state))
            depth = len(path) + 1
            found = []
            for step in valid_steps(state):
                child = apply_step(state, step)
                if not admitted(child):
                    continue
                if depth + len(child.vertices) - t_n > bound:
                    cut = True
                    continue
                cert = canonical_form(child)
                if cert in seen:
                    continue
                if cert == target_cert:
                    seq = DilutionSequence.for_source(h_src, path + (step,))
                    return seq, len(expanded)
                seen.add(cert)
                if depth == bound:
                    cut = True
                else:
                    found.append((child, path + (step,)))
            queue.extend(reversed(found) if depth_first else found)
        if not cut:
            return None, len(expanded)
        bound += 1


def assert_search_matches_oracle(src, target):
    """The unpruned search's sequence, at the least budget of the
    contour-and-cut reference.  That is no more than the reference's with a
    breadth-first first contour, which is no more than the unpruned count,
    and equal to it unless the first contour finds the target: past that
    contour both have expanded all of it, then run the same contours."""
    expected, unpruned = unpruned_search(src, target)
    reference, least = contour_search(src, target)
    breadth_first = contour_search(src, target, breadth_first=True)
    assert reference == breadth_first[0] == expected
    assert least <= breadth_first[1] <= unpruned
    if expected is None or len(expected) > len(src.vertices) - len(target.vertices):
        assert least == breadth_first[1]
    assert search_dilution(src, target, budget=least) == expected
    if least:
        message = f"^dilution search exceeded {least - 1} expanded states$"
        with pytest.raises(BudgetExceededError, match=message):
            search_dilution(src, target, budget=least - 1)


@st.composite
def search_sources(draw):
    """Connected samples, or up to 6 vertices with empty, singleton and isolated parts."""
    if draw(st.booleans()):
        rng = random.Random(draw(seeds))
        return sample_hypergraph(rng, max_vertices=6, max_edges=5, max_rank=4)
    verts = sorted(draw(st.sets(st.sampled_from("abcdef"))))
    edge = st.sets(st.sampled_from(verts)) if verts else st.just(set())
    return Hypergraph.make(draw(st.lists(edge, max_size=5)), verts)


def orbit_steps(h, gens):
    """``valid_steps(h)`` keeping only the first step of each orbit of the
    named generators ``gens`` and no merge on a vertex of degree 1: the
    reference the index-space step enumerator must reproduce."""
    degree = dict.fromkeys(h.vertices, 0)
    for e in h.edges:
        for v in e:
            degree[v] += 1
    steps = [
        s
        for s in valid_steps(h)
        if not (isinstance(s, MergeOn) and degree[s.vertex] == 1)
    ]
    if not gens:
        return steps
    orbit = {}  # vertex or edge -> first member of its orbit
    kept, met = [], set()
    for step in steps:
        x = step.edge if isinstance(step, DeleteSubedge) else step.vertex
        if x not in orbit:
            orbit[x] = x
            stack = [x]
            while stack:
                y = stack.pop()
                for g in gens:
                    z = frozenset([g[v] for v in y]) if type(y) is frozenset else g[y]
                    if z not in orbit:
                        orbit[z] = x
                        stack.append(z)
        key = (type(step), orbit[x])
        if key not in met:
            met.add(key)
            kept.append(step)
    return kept


def mask_steps(h, gens):
    """``_index_steps`` on h's index form, generators and steps in h's names."""
    names, (n, masks) = h._index_form
    pos = {v: i for i, v in enumerate(names)}
    index_gens = [[pos[g[v]] for v in names] for g in gens]
    return [_named_step(k, x, names) for k, x in _index_steps(n, masks, index_gens)]


@st.composite
def step_sources(draw):
    """Up to 7 vertices, isolated ones allowed; empty and singleton edges
    allowed.  Half carry an edge on every vertex, so that every other edge
    is a deletable subedge."""
    verts = sorted(draw(st.sets(st.sampled_from("abcdefg"))))
    edge = st.sets(st.sampled_from(verts)) if verts else st.just(set())
    edges = draw(st.lists(edge, max_size=7))
    if draw(st.booleans()):
        edges.append(verts)
    return Hypergraph.make(edges, verts)


class TestOrbitPruning:
    """The orbit-pruned searches against the unpruned ones kept here."""

    @given(search_sources())
    def test_reachable_matches_unpruned(self, h):
        assert reachable_dilutions(h) == unpruned_reachable(h)

    @settings(max_examples=80)
    @given(search_sources(), seeds, st.booleans())
    def test_search_matches_unpruned(self, h, seed, related):
        rng = random.Random(seed)
        if related:
            target = random_valid_sequence(h, rng, max_steps=5)[1]
        else:
            target = sample_hypergraph(rng, max_vertices=3, max_edges=3)
        assert_search_matches_oracle(h, target)

    @pytest.mark.parametrize("src", [mesh(3, 3), mesh(3, 4)], ids=["mesh33", "mesh34"])
    def test_mesh_searches_match_unpruned(self, src):
        targets = [
            jigsaw(2, 2),
            jigsaw(2, 3),
            dual(mesh(2, 3)),
            H("ab", "bc", "ca"),
            H("abc", "cde", "aef"),
            H("abc", "cd", "de", "ea"),
            random_hypergraph(5, 4, 2, 3, seed=3),
        ]
        for target in targets:
            assert_search_matches_oracle(src, target)

    def test_mesh_reachable_matches_unpruned(self):
        assert reachable_dilutions(mesh(3, 3)) == unpruned_reachable(mesh(3, 3))

    @pytest.mark.parametrize(
        "src",
        [H("ab", "bc", "c"), H("abc", "cde", "aef", extra="g"), H("abcd", "ab", "de")],
    )
    def test_leaf_merges_not_expanded(self, src):
        # merging on a vertex of degree 1 gives the child its deletion gives
        degree = {v: sum(v in e for e in src.edges) for v in src.vertices}
        leaves = sorted(v for v, d in degree.items() if d == 1)
        assert leaves
        for v in leaves:
            assert merge_on(src, v) == delete_vertex(src, v)
        kept = mask_steps(src, ())
        assert kept == [s for s in valid_steps(src) if s not in map(MergeOn, leaves)]

    @settings(max_examples=150)
    @given(step_sources(), st.booleans(), st.lists(seeds, max_size=3))
    @example(H("ad", "bc", "abcd"), False, [])  # edge_key is not mask order
    @example(H("ab", "cd", "ac", "bd", "abcd"), False, [5])
    def test_mask_steps_match_named_filter(self, h, automorphisms, perm_seeds):
        verts = sorted(h.vertices)
        if automorphisms:
            gens = _canonical(h, 10**6)[2]
        else:  # arbitrary permutations, automorphisms or not
            gens = []
            for seed in perm_seeds:
                image = verts[:]
                random.Random(seed).shuffle(image)
                gens.append(dict(zip(verts, image)))
        assert mask_steps(h, gens) == orbit_steps(h, gens)

    @pytest.mark.parametrize(
        "src, target, found, labels",
        [
            (mesh(3, 3), jigsaw(2, 2), True, (367, 14)),
            (mesh(3, 4), jigsaw(2, 3), True, (2853, 38)),
            (grid(3, 3), H("ab", "bc", "ca"), True, (6967, 472)),
            (mesh(3, 3), H("abc", "cd", "de", "ea"), True, (367, 85)),  # two contours
            (mesh(3, 3), H("abc", "cde", "aef"), False, (367, 49)),  # four contours
        ],
        ids=["mesh33", "mesh34", "grid33", "mesh33-two-contours", "mesh33-absent"],
    )
    @pytest.mark.usefixtures("empty_cert_cache")
    def test_each_child_labelled_once(self, monkeypatch, src, target, found, labels):
        # a form is labelled when it misses the certificate cache, the one
        # table of labellings; labels pins (sweep, search) misses from cold
        keys = []
        core = dilution._canonical_index

        def recording_core(key, budget):
            if key not in hypergraph._cert_cache:
                keys.append(key)
            return core(key, budget)

        monkeypatch.setattr(dilution, "_canonical_index", recording_core)
        reachable_dilutions(src)
        assert keys and len(keys) == len(set(keys))
        swept = len(keys)
        keys.clear()
        hypergraph._cert_cache.clear()
        assert (search_dilution(src, target) is not None) == found
        # once across all contours, and never a child below the target's
        # size or failing a cut
        assert keys and len(keys) == len(set(keys))
        assert (swept, len(keys)) == labels
        assert keys[0] == src._index_form[1]
        for n, masks in keys[1:]:
            assert n >= len(target.vertices) and len(masks) >= len(target.edges)
            assert passes_cuts(index_hypergraph(n, map(_bits, masks)), target)

    @pytest.mark.usefixtures("empty_cert_cache")
    def test_relabelled_mesh_labels_few_forms(self, monkeypatch):
        # the breadth-first first contour labelled about 1,000 forms here;
        # a labelled form is a miss of the certificate cache
        core, keys = dilution._canonical_index, []

        def counting_core(key, budget):
            if key not in hypergraph._cert_cache:
                keys.append(key)
            return core(key, budget)

        monkeypatch.setattr(dilution, "_canonical_index", counting_core)
        target = jigsaw(2, 2)
        for seed in range(3):
            copy = relabelled(mesh(3, 4), seed)
            keys.clear()
            hypergraph._cert_cache.clear()
            found = search_dilution(copy, target)
            assert len(keys) <= 50
            assert found == unpruned_search(copy, target)[0]

    def test_degree2_corpus_matches_unpruned(self):
        """Reachable sets, searched sequences and least budgets on the degree-2
        hosts with at most 5 edges (97 of the 206 of criterion 7)."""
        graphs = [g for g in _connected_graphs_upto(4) if len(g.vertices) == 4]
        targets = [dual(g) for g in graphs[:3]]
        for h in _degree2_corpus(max_h_edges=5, max_h_vertices=6):
            reach = unpruned_reachable(h)
            assert reachable_dilutions(h, budget=len(reach)) == reach
            with pytest.raises(BudgetExceededError):
                reachable_dilutions(h, budget=len(reach) - 1)
            for target in targets:
                assert_search_matches_oracle(h, target)


class TestCuts:
    """The invariants the search cuts by never rise along a step."""

    @given(search_sources(), seeds)
    def test_walks_keep_the_invariants(self, h, seed):
        seq = random_valid_sequence(h, random.Random(seed), max_steps=6)[0]
        states = apply_sequence_states(h, seq)
        for state in states:
            degrees, edges, rank = named_invariants(state)
            assert _invariants(*state._index_form[1]) == (degrees, edges, rank)
        for i, earlier in enumerate(states):
            for later in states[i + 1 :]:
                assert passes_cuts(earlier, later)
            if i:
                assert len(states[i - 1].vertices) - len(earlier.vertices) <= 1

    def test_reachable_states_pass_the_cuts_of_their_host(self):
        hosts = _degree2_corpus(max_h_edges=4, max_h_vertices=5) + [
            H("abc", "abd", "acd", "bcd"),
            H("abc", "cde", "aef", "bdf"),
            H("abc", "ab", "bd", "cd", "a", extra="x"),
            Hypergraph.make(["ab", "bc", "ac", "abc", ""]),
            grid(2, 3),
            dual(grid(2, 3)),
            mesh(2, 3),
        ]
        for host in hosts:
            assert host.max_degree() <= 3
            for n, edges in reachable_dilutions(host):
                state = index_hypergraph(n, edges)
                assert passes_cuts(host, state), (host, state)

    @pytest.mark.parametrize(
        "src, target",
        [
            (mesh(4, 4), H("ab", "ac", "ad")),  # a has degree 3
            (H("ab", "bc", "cd", "de"), H("ab", "bc", "ca")),  # circuit rank 0 < 1
            (H("abx", "aby", "z"), H("ab", "bc", "cd")),  # 2-section: 1 edge < 2
        ],
        ids=["degree", "circuit-rank", "section-edges"],
    )
    def test_source_failing_a_cut_expands_nothing(self, src, target):
        assert not passes_cuts(src, target)
        assert search_dilution(src, target, budget=0) is None


@contextmanager
def fresh_memo(cap=None):
    """An empty reachability memo, with the process-wide memos capped at
    ``cap`` entries when given."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dilution, "_reach_memo", {})
        if cap is not None:
            mp.setattr(hypergraph, "_CERT_CACHE_MAX", cap)
        yield mp


def assert_reach(h, reach):
    """The sweep returns ``reach``, which is also its least budget."""
    assert reachable_dilutions(h, len(reach)) == reach
    message = f"^dilution reachability exceeded {len(reach) - 1} expanded states$"
    with pytest.raises(BudgetExceededError, match=message):
        reachable_dilutions(h, len(reach) - 1)


def assert_memo_closed():
    """Each node in the memo is filed under its own certificate, its form
    labels to that certificate with the generators it keeps, and a node
    that holds children holds only nodes of the memo."""
    memo = dilution._reach_memo
    for cert, node in memo.items():
        assert node.cert == cert
        n, edges, gens = node.form
        form_cert, _, form_gens = _canonical_index((n, tuple(sorted(edges))), 10**6)
        assert (form_cert, form_gens) == (cert, gens)
        for child in node.children or ():
            assert memo.get(child.cert) is child


class TestReachMemo:
    """Sweeps that share the certificate-keyed memo, in every order that lets
    one read entries another wrote, against the unpruned sweep."""

    @given(search_sources(), seeds, st.sampled_from([None, 0, 2]))
    def test_source_and_state_in_either_order(self, h, seed, cap):
        s = random_valid_sequence(h, random.Random(seed), max_steps=5)[1]
        reach = {h: unpruned_reachable(h), s: unpruned_reachable(s)}
        for order in ((h, s), (s, h)):
            with fresh_memo(cap):
                for x in order:
                    assert_reach(x, reach[x])

    @given(search_sources(), st.data())
    def test_full_sweep_after_one_that_raised(self, h, data):
        reach = unpruned_reachable(h)
        with fresh_memo():
            budget = data.draw(st.integers(0, len(reach) - 1))
            with pytest.raises(BudgetExceededError):
                reachable_dilutions(h, budget)
            assert_reach(h, reach)

    @given(search_sources(), st.integers(1, 40))
    def test_full_sweep_after_an_interrupted_expansion(self, h, calls):
        # labelling raises on its ``calls``-th call, part-way through an
        # expansion, so no entry of that expansion may have been written
        core, count = dilution._canonical_index, itertools.count(1)

        def failing_core(key, budget):
            if next(count) == calls:
                raise BudgetExceededError("labelling interrupted")
            return core(key, budget)

        reach = unpruned_reachable(h)
        with fresh_memo() as mp:
            mp.setattr(dilution, "_canonical_index", failing_core)
            try:
                reachable_dilutions(h)
            except BudgetExceededError:
                pass
            mp.setattr(dilution, "_canonical_index", core)
            assert_reach(h, reach)

    @given(search_sources(), seeds)
    def test_warm_sweep_labels_only_its_source(self, h, seed):
        copy = relabelled(h, seed)
        core, calls = dilution._canonical_index, []

        def counting_core(key, budget):
            calls.append(key)
            return core(key, budget)

        with fresh_memo() as mp:
            reach = reachable_dilutions(h)
            mp.setattr(dilution, "_canonical_index", counting_core)
            assert reachable_dilutions(copy) == reach
        assert calls == [copy._index_form[1]]

    @given(search_sources(), seeds, seeds)
    @example(mesh(2, 3), 1, 2)
    @settings(max_examples=30)
    def test_hosts_sharing_sub_states_under_every_cap(self, h, seed_a, seed_b):
        hosts = [h]
        for seed in (seed_a, seed_b):
            hosts.append(random_valid_sequence(h, random.Random(seed), max_steps=3)[1])
        reach = [unpruned_reachable(x) for x in hosts]
        # the last cap is half the first host's classes, so the first sweep
        # leaves the memo full
        for cap in (None, 0, 2, max(1, len(reach[0]) // 2)):
            with fresh_memo(cap):
                for x, r in zip(hosts, reach):
                    # a sweep that starts with the memo full empties it
                    # first, none empties it while it runs, and both sweeps
                    # of ``assert_reach`` meet every class of r
                    memo = set(dilution._reach_memo)
                    for _ in range(2):
                        full = cap is not None and len(memo) >= cap
                        memo = (set() if full else memo) | r
                    assert_reach(x, r)
                    assert_memo_closed()
                    assert set(dilution._reach_memo) == memo


class TestLabels:
    def test_identity_labeling(self):
        h = H("ab", "bc")
        lab = track_labels(h, DilutionSequence()).as_dict()
        assert lab == {e: frozenset([e]) for e in h.edges}

    def test_merge_unions_labels(self):
        h = H("ab", "bc")
        lab = track_labels(h, DilutionSequence((MergeOn("b"),))).as_dict()
        assert lab[frozenset("ac")] == frozenset(h.edges)

    def test_subedge_label_folds_onto_superedge(self):
        h = H("a", "ab")
        lab = track_labels(h, DilutionSequence((DeleteSubedge(frozenset("a")),)))
        assert lab.as_dict()[frozenset("ab")] == frozenset(h.edges)

    def test_collapse_unions_labels(self):
        h = H("ab", "a")
        lab = track_labels(h, DilutionSequence((DeleteVertex("b"),)))
        assert lab.as_dict()[frozenset("a")] == frozenset(h.edges)

    @given(seeds)
    def test_labels_pairwise_disjoint(self, seed):
        rng = random.Random(seed)
        h = sample_hypergraph(rng)
        seq, _ = random_valid_sequence(h, rng)
        assert track_labels(h, seq).pairwise_disjoint()


class TestGhwMonotonicity:
    @given(seeds)
    @settings(max_examples=25)
    def test_ghw_never_increases(self, seed):
        from hgdilute.decomposition import exact_ghw

        rng = random.Random(seed)
        h = sample_hypergraph(rng, max_vertices=7, max_edges=5)
        seq, result = random_valid_sequence(h, rng, max_steps=3)
        before, _ = exact_ghw(h)
        after, _ = exact_ghw(result)
        assert after.width <= before.width
