"""Tree decompositions, generalized hypertree decompositions, exact oracles.

Width conventions: treewidth is max bag size minus one; generalized hypertree
width is the max number of cover edges at a node.  A hypergraph with no edges
has width 0 by convention (a single empty bag with an empty cover).

Both exact oracles run a Held-Karp style dynamic program over elimination
orderings.  For a monotone bag-cost function f, the minimum over orderings of
the maximum elimination-bag cost equals the f-width over all tree
decompositions: an ordering yields a decomposition with exactly its
elimination bags, and conversely a perfect elimination ordering of the
chordal completion induced by any decomposition produces bags that are
subsets of that decomposition's bags.  Treewidth uses f = |bag| - 1 over all
vertices; the cover width uses f = exact edge-cover number over the covered
vertices (vertices in no edge never need a bag).  Exponential in the vertex
count, hence the hard input limits.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass

from .errors import ConstructionError, InvalidInputError, LimitExceededError
from .hypergraph import Hypergraph, edge_key

DEFAULT_TW_VERTEX_LIMIT = 12
DEFAULT_GHW_EDGE_LIMIT = 10
DEFAULT_GHW_VERTEX_LIMIT = 14


@dataclass(frozen=True)
class TreeDecomposition:
    """Rooted tree with bags; parents[root] is None."""

    nodes: tuple[str, ...]
    parents: tuple[tuple[str, str | None], ...]
    bags: tuple[tuple[str, frozenset[str]], ...]

    def parent_of(self) -> dict[str, str | None]:
        return dict(self.parents)

    def bag_of(self) -> dict[str, frozenset[str]]:
        return dict(self.bags)

    def tree_error(self) -> str | None:
        """None when the node/parent structure is a rooted tree."""
        if not self.nodes:
            return "decomposition has no nodes"
        if len(set(self.nodes)) != len(self.nodes):
            return "duplicate node names"
        parent = self.parent_of()
        if set(parent) != set(self.nodes) or {n for n, _ in self.bags} != set(
            self.nodes
        ):
            return "parents/bags do not cover exactly the node set"
        roots = [n for n in self.nodes if parent[n] is None]
        if len(roots) != 1:
            return "decomposition must have exactly one root"
        for n in self.nodes:
            if parent[n] is not None and parent[n] not in set(self.nodes):
                return f"unknown parent for node {n}"
        seen: set[str] = set()
        for n in self.nodes:
            trail = []
            x: str | None = n
            while x is not None and x not in seen:
                if x in trail:
                    return "cycle in parent links"
                trail.append(x)
                x = parent[x]
            seen.update(trail)
        return None

    def neighbors(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {n: set() for n in self.nodes}
        for n, p in self.parents:
            if p is not None:
                adj[n].add(p)
                adj[p].add(n)
        return adj


@dataclass(frozen=True)
class GHDecomposition:
    td: TreeDecomposition
    covers: tuple[tuple[str, frozenset[frozenset[str]]], ...]

    def cover_of(self) -> dict[str, frozenset[frozenset[str]]]:
        return dict(self.covers)

    def width(self) -> int:
        return max((len(c) for _, c in self.covers), default=0)


@dataclass(frozen=True)
class WidthReport:
    kind: str  # "tw" or "ghw"
    width: int
    witness_node: str | None


def _subtree_connected(td: TreeDecomposition, nodes_with: set[str]) -> bool:
    if len(nodes_with) <= 1:
        return True
    adj = td.neighbors()
    start = next(iter(nodes_with))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y in nodes_with and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen == nodes_with


def validate_td(h: Hypergraph, td: TreeDecomposition) -> tuple[bool, str | None]:
    """Both decomposition conditions; returns the first violation found."""
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
    for v in sorted(h.vertices):
        nodes_with = {n for n, b in bags.items() if v in b}
        if not _subtree_connected(td, nodes_with):
            return False, f"occurrences of vertex {v} are not connected"
    return True, None


def validate_ghd(h: Hypergraph, ghd: GHDecomposition) -> tuple[bool, str | None]:
    """Tree-decomposition validity plus the per-node cover condition."""
    covers = ghd.cover_of()
    if set(covers) != set(ghd.td.nodes):
        return False, "covers do not match node set"
    for n, lam in covers.items():
        for e in lam:
            if e not in h.edges:
                raise InvalidInputError(
                    f"cover of {n} references non-edge {sorted(e)}"
                )
    ok, why = validate_td(h, ghd.td)
    if not ok:
        return False, why
    bags = ghd.td.bag_of()
    for n in ghd.td.nodes:
        union = frozenset().union(*covers[n]) if covers[n] else frozenset()
        if not bags[n] <= union:
            return False, f"bag of {n} not covered by its edge label"
    return True, None


def td_width(td: TreeDecomposition) -> WidthReport:
    node, bag = max(td.bags, key=lambda kv: (len(kv[1]), kv[0]))
    return WidthReport("tw", len(bag) - 1, node)


def ghd_width(ghd: GHDecomposition) -> WidthReport:
    node, cov = max(ghd.covers, key=lambda kv: (len(kv[1]), kv[0]))
    return WidthReport("ghw", len(cov), node)


# -- elimination-order dynamic program ---------------------------------------


def _primal_adjacency(h: Hypergraph) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {v: set() for v in h.vertices}
    for e in h.edges:
        for a in e:
            for b in e:
                if a != b:
                    adj[a].add(b)
    return adj


def _elimination_bag(adj, eliminated: frozenset, v: str) -> frozenset:
    """{v} plus vertices outside `eliminated` reachable from v through it."""
    seen = {v}
    stack = [v]
    bag = {v}
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y in seen:
                continue
            seen.add(y)
            if y in eliminated:
                stack.append(y)
            else:
                bag.add(y)
    return frozenset(bag)


def _min_max_ordering(vertices, adj, cost):
    """Elimination order minimizing the max bag cost, via subset memoization."""
    verts = tuple(sorted(vertices))
    n = len(verts)
    NEG = -(10**9)

    memo: dict[frozenset, int] = {frozenset(verts): NEG}

    def best(P: frozenset) -> int:
        got = memo.get(P)
        if got is not None:
            return got
        value = None
        for v in verts:
            if v in P:
                continue
            c = max(cost(_elimination_bag(adj, P, v)), best(P | {v}))
            if value is None or c < value:
                value = c
        memo[P] = value
        return value

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, n * 50 + 100))
    try:
        width = best(frozenset())
    finally:
        sys.setrecursionlimit(old)

    order: list[str] = []
    P: frozenset = frozenset()
    while len(order) < n:
        chosen = None
        for v in verts:
            if v in P:
                continue
            c = max(cost(_elimination_bag(adj, P, v)), best(P | {v}))
            if chosen is None or (c, v) < chosen:
                chosen = (c, v)
        order.append(chosen[1])
        P = P | {chosen[1]}
    return width, order


def _td_from_order(adj, order: list[str]) -> TreeDecomposition:
    """Standard elimination tree: bag(v) = {v} + later fill neighbors."""
    pos = {v: i for i, v in enumerate(order)}
    bags: list[frozenset] = []
    for i, v in enumerate(order):
        bags.append(_elimination_bag(adj, frozenset(order[:i]), v))
    names = [f"t{i + 1}" for i in range(len(order))]
    parents: list[tuple[str, str | None]] = []
    for i in range(len(order)):
        later = [pos[w] for w in bags[i] if pos[w] > i]
        if later:
            parents.append((names[i], names[min(later)]))
        elif i + 1 < len(order):
            parents.append((names[i], names[i + 1]))
        else:
            parents.append((names[i], None))
    return TreeDecomposition(
        tuple(names),
        tuple(parents),
        tuple((names[i], bags[i]) for i in range(len(order))),
    )


def exact_treewidth(
    h: Hypergraph, max_vertices: int = DEFAULT_TW_VERTEX_LIMIT
) -> tuple[WidthReport, TreeDecomposition]:
    """Exact treewidth with a validating decomposition witness.

    Accepts any hypergraph; the computation runs on its primal graph, which
    has the same tree decompositions.
    """
    if len(h.vertices) > max_vertices:
        raise LimitExceededError(
            f"{len(h.vertices)} vertices exceeds treewidth limit {max_vertices}"
        )
    if not h.vertices:
        td = TreeDecomposition(("t1",), (("t1", None),), (("t1", frozenset()),))
        return WidthReport("tw", -1, "t1"), td
    adj = _primal_adjacency(h)
    width, order = _min_max_ordering(h.vertices, adj, lambda bag: len(bag) - 1)
    td = _td_from_order(adj, order)
    ok, why = validate_td(h, td)
    if not ok:  # construction invariant
        raise ConstructionError(f"elimination decomposition invalid: {why}")
    report = td_width(td)
    if report.width != width:  # construction invariant
        raise ConstructionError(
            f"decomposition width {report.width} differs from optimum {width}"
        )
    return report, td


def min_edge_cover(h: Hypergraph, bag: frozenset) -> frozenset[frozenset[str]]:
    """Lexicographically-first minimum set of edges whose union contains bag."""
    if not bag:
        return frozenset()
    candidates = sorted((e for e in h.edges if e & bag), key=edge_key)
    for k in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, k):
            if bag <= frozenset().union(*combo):
                return frozenset(combo)
    raise InvalidInputError(f"bag {sorted(bag)} has vertices in no edge")


def exact_ghw(
    h: Hypergraph,
    max_edges: int = DEFAULT_GHW_EDGE_LIMIT,
    max_vertices: int = DEFAULT_GHW_VERTEX_LIMIT,
) -> tuple[WidthReport, GHDecomposition]:
    """Exact cover width with a validating decomposition witness."""
    if len(h.edges) > max_edges:
        raise LimitExceededError(
            f"{len(h.edges)} edges exceeds cover-width limit {max_edges}"
        )
    covered = sorted({v for e in h.edges for v in e})
    if len(covered) > max_vertices:
        raise LimitExceededError(
            f"{len(covered)} covered vertices exceeds limit {max_vertices}"
        )
    if not covered:
        td = TreeDecomposition(("t1",), (("t1", None),), (("t1", frozenset()),))
        ghd = GHDecomposition(td, (("t1", frozenset()),))
        return WidthReport("ghw", 0, "t1"), ghd

    sub = Hypergraph(frozenset(covered), h.edges)
    adj = _primal_adjacency(sub)

    cover_cache: dict[frozenset, frozenset] = {}

    def cover_for(bag: frozenset) -> frozenset:
        got = cover_cache.get(bag)
        if got is None:
            got = min_edge_cover(h, bag)
            cover_cache[bag] = got
        return got

    width, order = _min_max_ordering(covered, adj, lambda bag: len(cover_for(bag)))
    td = _td_from_order(adj, order)
    covers = tuple((n, cover_for(b)) for n, b in td.bags)
    ghd = GHDecomposition(td, covers)
    ok, why = validate_ghd(h, ghd)
    if not ok:  # pragma: no cover - construction invariant
        raise ConstructionError(f"elimination cover decomposition invalid: {why}")
    report = ghd_width(ghd)
    if report.width != width:  # pragma: no cover - construction invariant
        raise ConstructionError(
            f"cover decomposition width {report.width} differs from optimum {width}"
        )
    return report, ghd


# -- constructive transforms --------------------------------------------------


def merge_transform(h: Hypergraph, ghd: GHDecomposition, v: str) -> GHDecomposition:
    """Rebuild a cover decomposition for the hypergraph after merging on v.

    Every cover that used an edge at v swaps those edges for the single merged
    edge; bags along the subtree whose bags contain v absorb the merged edge
    and drop v.  The width never increases.
    """
    ok, why = validate_ghd(h, ghd)
    if not ok:
        raise InvalidInputError(f"input decomposition invalid: {why}")
    if v not in h.vertices:
        raise InvalidInputError(f"unknown vertex {v!r}")
    incident = frozenset(e for e in h.edges if v in e)
    if not incident:
        raise InvalidInputError(f"vertex {v!r} has degree 0, nothing to merge")
    merged = frozenset().union(*incident) - {v}

    new_bags = []
    for n, b in ghd.td.bags:
        new_bags.append((n, (b - {v}) | merged if v in b else b))
    new_covers = []
    for n, lam in ghd.covers:
        if lam & incident:
            new_covers.append((n, (lam - incident) | {merged}))
        else:
            new_covers.append((n, lam))
    out = GHDecomposition(
        TreeDecomposition(ghd.td.nodes, ghd.td.parents, tuple(new_bags)),
        tuple(new_covers),
    )
    from .dilution import merge_on

    ok, why = validate_ghd(merge_on(h, v), out)
    if not ok:  # pragma: no cover - transform invariant
        raise ConstructionError(
            f"merge transform produced invalid decomposition: {why}"
        )
    return out


def ghd_from_dual_td(
    h: Hypergraph,
    td_of_dual: TreeDecomposition,
    dual_vertex_to_edge: dict[str, frozenset] | None = None,
) -> GHDecomposition:
    """Cover decomposition of a reduced h from a tree decomposition of its dual.

    Each dual bag is a set of h-edges; it becomes the cover, and the bag is
    the union of those edges.  The width is at most the dual treewidth plus
    one.
    """
    if not h.is_reduced():
        raise InvalidInputError("hypergraph must be reduced")
    from .hypergraph import dual_with_map

    d, edge_to_name = dual_with_map(h)
    if dual_vertex_to_edge is None:
        dual_vertex_to_edge = {name: e for e, name in edge_to_name.items()}
    ok, why = validate_td(d, td_of_dual)
    if not ok:
        raise InvalidInputError(f"decomposition invalid for the dual: {why}")
    covers = []
    bags = []
    for n, dbag in td_of_dual.bags:
        lam = frozenset(dual_vertex_to_edge[x] for x in dbag)
        covers.append((n, lam))
        bags.append((n, frozenset().union(*lam) if lam else frozenset()))
    ghd = GHDecomposition(
        TreeDecomposition(td_of_dual.nodes, td_of_dual.parents, tuple(bags)),
        tuple(covers),
    )
    ok, why = validate_ghd(h, ghd)
    if not ok:  # pragma: no cover - transform invariant
        raise ConstructionError(f"dual transform produced invalid decomposition: {why}")
    return ghd
