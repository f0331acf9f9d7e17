import itertools
import json
import pathlib
import random
import sys

import pytest
from hypothesis import example, given, settings
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
from hgdilute.hypergraph import Hypergraph, _adjacency, _mask, dual, edge_key
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

    def test_occurrences_in_sibling_subtrees_detected(self):
        # b sits in both children of a root whose bag lacks it
        h = H("ab", "bc")
        td = TreeDecomposition(
            ("r", "t1", "t2"),
            (("r", None), ("t1", "r"), ("t2", "r")),
            (
                ("r", frozenset("ac")),
                ("t1", frozenset("ab")),
                ("t2", frozenset("bc")),
            ),
        )
        ok, why = validate_td(h, td)
        assert not ok and why == "occurrences of vertex b are not connected"

    def test_ghd_cover_condition(self):
        h = H("ab", "bc")
        td = one_bag(h)
        good = GHDecomposition(td, (("t1", frozenset(h.edges)),))
        ok, why = validate_ghd(h, good)
        assert ok, why
        bad = GHDecomposition(td, (("t1", frozenset([frozenset("ab")])),))
        ok, _ = validate_ghd(h, bad)
        assert not ok
        # a node listed twice: the first cover would go unchecked
        twice = GHDecomposition(td, (("t1", frozenset([frozenset("xy")])),) + good.covers)
        assert validate_ghd(h, twice) == (False, "covers do not match node set")

    def test_ghd_nonedge_cover_is_a_violation(self):
        h = H("ab")
        ghd = GHDecomposition(one_bag(h), (("t1", frozenset([frozenset("xy")])),))
        assert validate_ghd(h, ghd) == (False, "cover of t1 references non-edge ['x', 'y']")
        # a witness of the exact oracle with one cover edge swapped for a
        # non-edge that still covers the bag
        h = jigsaw(2, 2)
        ghd = exact_ghw(h)[1]
        node, lam = ghd.covers[0]
        wider = frozenset(h.vertices)
        assert wider not in h.edges
        swapped = ((node, lam - {min(lam, key=edge_key)} | {wider}),) + ghd.covers[1:]
        ok, why = validate_ghd(h, GHDecomposition(ghd.td, swapped))
        assert not ok and why.startswith(f"cover of {node} references non-edge")


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


def brute_min_cover(h, bag):
    """Lexicographically-first minimum edge cover of bag, by trying every
    combination of the edges meeting it in ``edge_key`` order, fewest first."""
    if not bag:
        return frozenset()
    candidates = sorted((e for e in h.edges if e & bag), key=edge_key)
    for k in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, k):
            if bag <= frozenset().union(*combo):
                return frozenset(combo)
    raise InvalidInputError(f"bag {sorted(bag)} has vertices in no edge")


def brute_force_ghw(h):
    """Minimum over all elimination orderings of the max bag cover number.

    Independent path to the same width: for monotone bag costs the optimum
    over orderings equals the optimum over all tree decompositions, so this
    also certifies that no decomposition of smaller width exists.  Bag covers
    come from the combination search, not from the cover-number memo.
    """
    covered = frozenset().union(*h.edges)
    if not covered:
        return 0
    return min_max_over_permutations(
        covered, h.edges, lambda bag: len(brute_min_cover(h, bag))
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

    def test_vertex_limit(self):
        with pytest.raises(LimitExceededError):
            exact_ghw(jigsaw(3, 4), max_vertices=16)  # 17 covered vertices

    def test_jigsaw34(self):
        # 12 edges: only the covered vertices limit the oracle
        rep, ghd = exact_ghw(jigsaw(3, 4))
        assert rep.width == 3
        assert validate_ghd(jigsaw(3, 4), ghd) == (True, None)
        assert ghd_width(ghd).width == 3

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


@st.composite
def hypergraphs_with_bags(draw):
    h = draw(small_hypergraphs())
    # "w" is in no hypergraph; isolated vertices are in no edge either
    bag = draw(st.sets(st.sampled_from(sorted(h.vertices) + ["w"])))
    return h, frozenset(bag)


class TestMinEdgeCover:
    @given(hypergraphs_with_bags())
    @example((H("ab"), frozenset()))
    @example((Hypergraph(frozenset(), frozenset()), frozenset()))
    @example((H("ab", extra="c"), frozenset("ac")))
    @example((H("", "a", "ab"), frozenset("a")))
    @example((H("ab", "bc", "cd", "ad"), frozenset("abcd")))  # two minimum covers
    @settings(max_examples=200)
    def test_matches_combination_search(self, case):
        h, bag = case
        try:
            want = brute_min_cover(h, bag)
        except InvalidInputError as err:
            with pytest.raises(InvalidInputError) as got:
                min_edge_cover(h, bag)
            assert str(got.value) == str(err)
        else:
            assert min_edge_cover(h, bag) == want

    def test_long_path_cover_needs_no_deep_recursion(self):
        # every cover of a 1000-vertex path chains 500 edges along it
        names = [f"p{i:04d}" for i in range(1000)]
        h = Hypergraph.make(zip(names, names[1:]))
        cover = min_edge_cover(h, h.vertices)
        assert cover <= h.edges and frozenset().union(*cover) == h.vertices
        assert len(cover) == 500  # each edge covers two of the 1000 vertices


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


def flood_bag(adj, P, v):
    """v plus the vertices outside P that v reaches through P, by a plain
    breadth-first search that queues the vertices of P it meets."""
    seen, queue = 1 << v, [v]
    for x in queue:
        new = adj[x] & ~seen
        seen |= new
        new &= P
        while new:
            b = new & -new
            new ^= b
            queue.append(b.bit_length() - 1)
    return seen & ~P


def oracle_eliminate(adj, cost):
    """The bottom-up subset DP over all 2^n sets, kept as the oracle."""
    n = len(adj)
    full = (1 << n) - 1
    bits = [(v, 1 << v) for v in range(n)]
    best = [0] * (full + 1)
    best[full] = -1
    pick = [0] * (full + 1)
    pick_bag = [0] * (full + 1)
    for P in range(full - 1, -1, -1):
        value = n + 1  # above any bag cost
        for v, b in bits:
            if P & b:
                continue
            after = best[P | b]
            if after >= value:
                continue
            bag = flood_bag(adj, P, v)
            c = cost(bag)
            if c < after:
                c = after
            if c < value:
                value, chosen, chosen_bag = c, v, bag
        best[P] = value
        pick[P] = chosen
        pick_bag[P] = chosen_bag

    order: list[int] = []
    bags: list[int] = []
    P = 0
    while P != full:
        order.append(pick[P])
        bags.append(pick_bag[P])
        P |= 1 << pick[P]
    return best[0], order, bags


def elimination_cases(h):
    """(adj, fresh cost) pairs as exact_treewidth and exact_ghw build them;
    given a cap, a fresh cover cost is capped there, as in exact_ghw."""
    yield _adjacency(*h._index_form[1]), lambda cap=None: int.bit_count
    covered = {v: i for i, v in enumerate(sorted({v for e in h.edges for v in e}))}
    edges = sorted(h.edges, key=edge_key)
    masks = [_mask(covered, e) for e in edges]
    n = len(covered)
    yield _adjacency(n, masks), lambda cap=None: (
        decomposition._CoverNumbers(masks, n)
        if cap is None
        else decomposition._CappedCovers(masks, n, cap)
    ).__getitem__


def assert_every_top_matches_oracle(adj, fresh_cost):
    """Every root cutoff from the optimum + 1 up to n + 1, and the cost of
    the min-degree order plus one, keep the full DP's width, order and
    bags, on the cost and on the cost capped at the cutoff."""
    expected = oracle_eliminate(adj, fresh_cost())
    seed = 1 + max(map(fresh_cost(), decomposition._min_degree_bags(adj)[1]), default=-1)
    assert seed > expected[0]
    for top in sorted({*range(expected[0] + 1, len(adj) + 2), seed}):
        assert decomposition._eliminate(adj, fresh_cost(), top) == expected
        assert decomposition._eliminate(adj, fresh_cost(top), top) == expected


def assert_matches_oracle(h):
    for adj, fresh_cost in elimination_cases(h):
        assert decomposition._eliminate(
            adj, fresh_cost(), top=len(adj) + 1
        ) == oracle_eliminate(adj, fresh_cost())
        assert_every_top_matches_oracle(adj, fresh_cost)


WIDTH_CORPUS = pathlib.Path(__file__).parents[1] / "perfbench" / "width_corpus.json"


def width_corpus():
    data = json.loads(WIDTH_CORPUS.read_text())
    return [
        Hypergraph.make(d["edges"], d["vertices"])
        for kind in ("treewidth", "ghw")
        for d in data[kind]
    ]


def sixteen_vertex_graphs():
    names = [f"v{i:02d}" for i in range(16)]
    ring = list(zip(names, names[1:] + names[:1]))
    return {
        "empty": Hypergraph.make([], names),
        "complete": Hypergraph.make(itertools.combinations(names, 2)),
        "path": Hypergraph.make(ring[:-1]),
        "cycle": Hypergraph.make(ring),
        "grid44": grid(4, 4),
    }


class TestEliminateMatchesOracle:
    """The cut-off top-down DP keeps the full DP's width, order and bags."""

    @given(small_hypergraphs())
    @settings(max_examples=100)
    def test_small_hypergraphs(self, h):
        assert_matches_oracle(h)

    def test_width_corpus(self):
        graphs = width_corpus()
        assert len(graphs) == 50
        for h in graphs:
            assert_matches_oracle(h)

    @pytest.mark.parametrize("name", sorted(sixteen_vertex_graphs()))
    def test_sixteen_vertices(self, name):
        assert_matches_oracle(sixteen_vertex_graphs()[name])

    @given(seeds)
    @example(5)  # a stored lower bound one above the true one changes this
    @settings(max_examples=200)
    def test_any_bag_cost(self, seed):
        # nothing in the cutoff needs a monotone cost, only one below n + 1
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        adj = [0] * n
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.5:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        cost = [rng.randint(0, n) for _ in range(1 << n)].__getitem__
        assert decomposition._eliminate(adj, cost, top=n + 1) == oracle_eliminate(
            adj, cost
        )
        # the min-degree order is an order, so its cost bounds any optimum
        assert_every_top_matches_oracle(adj, lambda cap=None: cost)

    def test_min_degree_seed_prunes_grid36(self):
        # the min-degree order of grid(3,6) is optimal, width 3: seeded one
        # above it, the DP skips every bag of 5 or more vertices at once
        adj, _ = next(elimination_cases(grid(3, 6)))

        def run(top):
            costed = []
            got = decomposition._eliminate(
                adj, lambda bag: costed.append(bag) or bag.bit_count(), top
            )
            return got, len(costed)

        seed = decomposition._min_degree_width(adj) + 2
        (full, full_costs), (seeded, seeded_costs) = run(len(adj) + 1), run(seed)
        assert seed == 5 and full == seeded and full[0] == 4
        assert (full_costs, seeded_costs) == (11915, 583)

    def test_cutoff_prunes_grid44(self):
        # the full DP costs 178,914 bags on grid(4,4); the cutoff skips most
        adj, _ = next(elimination_cases(grid(4, 4)))
        calls = 0

        def counting(bag):
            nonlocal calls
            calls += 1
            return bag.bit_count()

        assert decomposition._eliminate(adj, counting, top=len(adj) + 1)[0] == 5
        assert calls < 2**15


def min_degree_width(h):
    return decomposition._min_degree_width(_adjacency(*h._index_form[1]))


class TestCappedCovers:
    @given(
        st.integers(min_value=1, max_value=7).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.sets(st.integers(0, n - 1), max_size=4), min_size=1, max_size=8
                ),
                st.integers(0, n + 1),
                st.randoms(use_true_random=False),
            )
        )
    )
    @settings(max_examples=150)
    def test_capped_numbers_are_min_of_exact_and_cap(self, case):
        """Empty and singleton edges allowed, masks read in random order."""
        edges, cap, rnd = case
        covered = sorted(set().union(*edges))
        index = {v: i for i, v in enumerate(covered)}
        masks = [sum(1 << index[v] for v in e) for e in edges]
        n = len(covered)
        exact = decomposition._CoverNumbers(masks, n)
        capped = decomposition._CappedCovers(masks, n, cap)
        order = list(range(1 << n))
        rnd.shuffle(order)
        for m in order:
            k = rnd.randint(0, cap)
            assert capped.fill(m, k) == min(exact[m], k)
            assert capped[m] == min(exact[m], cap)


class TestMinDegreeBound:
    @given(small_hypergraphs())
    @settings(max_examples=60)
    def test_bounds_treewidth_from_above(self, h):
        assert min_degree_width(h) >= exact_treewidth(h)[0].width

    @pytest.mark.parametrize(
        "h, width",
        [
            (H(), -1),
            (H(extra="a"), 0),
            (H("ab", "bc", "cd", extra="e"), 1),
            (H("ab", "bc", "cd", "da"), 2),
            (H("abcd"), 3),
            (grid(3, 3), 3),
            (grid(2, 7), 2),
            # loose here: the treewidth is 3
            (H("ae", "bd", "ab", "bc", "df", "cd", "de", "cf", "af", "ce"), 4),
        ],
    )
    def test_known_values(self, h, width):
        assert min_degree_width(h) == width


def reference_validate_td(h, td):
    """The set-based tree-decomposition check, kept as the reference of the
    mask check: the same verdicts and messages in the same order."""
    err = td.tree_error()
    if err:
        return False, err
    bags = td.bag_of()
    for n, b in bags.items():
        if not b <= h.vertices:
            return False, f"bag of {n} contains non-vertices"
    for e in sorted(h.edges, key=edge_key):
        if not any(e <= b for b in bags.values()):
            return False, f"edge {sorted(e)} not contained in any bag"
    # in a rooted tree each connected part of a node set has exactly one
    # topmost node, the one whose parent lies outside the set
    parent = td.parent_of()
    for v in sorted(h.vertices):
        nodes_with = {n for n, b in bags.items() if v in b}
        if sum(parent[n] not in nodes_with for n in nodes_with) > 1:
            return False, f"occurrences of vertex {v} are not connected"
    return True, None


def reference_validate_ghd(h, ghd):
    """The set-based cover-decomposition check, the mask check's reference."""
    covers = ghd.cover_of()
    if len(covers) != len(ghd.covers) or set(covers) != set(ghd.td.nodes):
        return False, "covers do not match node set"
    for n, lam in covers.items():
        for e in lam:
            if e not in h.edges:
                return False, f"cover of {n} references non-edge {sorted(e)}"
    ok, why = reference_validate_td(h, ghd.td)
    if not ok:
        return False, why
    bags = ghd.td.bag_of()
    for n in ghd.td.nodes:
        union = frozenset().union(*covers[n]) if covers[n] else frozenset()
        if not bags[n] <= union:
            return False, f"bag of {n} not covered by its edge label"
    return True, None


def mutants(h, ghd, rng):
    """Seeded one-change variants of a cover decomposition: one to three bag
    vertices dropped, one added (a non-vertex among the candidates), a node
    re-parented (to itself or to no node among the candidates), a cover edge
    dropped, a non-edge added to a cover."""
    td = ghd.td
    names = sorted(h.vertices)

    def with_bag(node, bag):
        bags = tuple((n, bag if n == node else b) for n, b in td.bags)
        return GHDecomposition(TreeDecomposition(td.nodes, td.parents, bags), ghd.covers)

    def with_cover(node, lam):
        covers = tuple((n, lam if n == node else c) for n, c in ghd.covers)
        return GHDecomposition(td, covers)

    for _ in range(4):
        node, bag = rng.choice(td.bags)
        if bag:
            k = min(len(bag), rng.randint(1, 3))
            yield with_bag(node, bag - set(rng.sample(sorted(bag), k)))
        node, bag = rng.choice(td.bags)
        yield with_bag(node, bag | {rng.choice(names + ["zz"])})
        node, to = rng.choice(td.nodes), rng.choice(td.nodes + (None,))
        parents = tuple((n, to if n == node else p) for n, p in td.parents)
        yield GHDecomposition(TreeDecomposition(td.nodes, parents, td.bags), ghd.covers)
        node, lam = rng.choice(ghd.covers)
        if lam:
            yield with_cover(node, lam - {rng.choice(sorted(lam, key=edge_key))})
        wrong = frozenset(rng.sample(names, min(len(names), rng.randint(1, 3))))
        if wrong not in h.edges:
            yield with_cover(node, lam | {wrong})


VIOLATIONS = (
    "cycle in parent links",
    "exactly one root",
    "contains non-vertices",
    "not contained in any bag",
    "are not connected",
    "references non-edge",
    "not covered by its edge label",
)


class TestMaskValidatorsMatchReference:
    def test_width_corpus_witnesses_and_mutants(self):
        seen = set()
        for i, h in enumerate(width_corpus()):
            rng = random.Random(i)
            td = exact_treewidth(h)[1]
            bare = GHDecomposition(td, tuple((n, frozenset()) for n in td.nodes))
            ghd = exact_ghw(h)[1]
            ghds = [ghd, *mutants(h, ghd, rng)]
            for t in [td] + [m.td for m in mutants(h, bare, rng)] + [g.td for g in ghds]:
                got = validate_td(h, t)
                assert got == reference_validate_td(h, t)
                seen.add(got[1])
            for g in ghds:
                got = validate_ghd(h, g)
                assert got == reference_validate_ghd(h, g)
                seen.add(got[1])
        assert None in seen
        kinds = {k for k in VIOLATIONS for why in seen - {None} if k in why}
        assert kinds == set(VIOLATIONS)


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
