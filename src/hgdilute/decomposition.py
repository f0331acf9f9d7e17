"""Tree decompositions, generalized hypertree decompositions, exact oracles.

Width conventions: treewidth is max bag size minus one; generalized hypertree
width is the max number of cover edges at a node.  A hypergraph with no edges
has width 0 by convention (a single empty bag with an empty cover).

Both exact oracles minimise, over elimination orderings, the maximum cost of
an elimination bag.  For a monotone bag-cost function f this equals the
f-width over all tree decompositions: an ordering yields a decomposition with
exactly its elimination bags, and conversely a perfect elimination ordering
of the chordal completion induced by any decomposition produces bags that
are subsets of that decomposition's bags.  Treewidth uses f = |bag| - 1 over
all vertices; the cover width uses f = exact edge-cover number over the
covered vertices (vertices in no edge never need a bag).

The minimum is the exact subset dynamic program of Bodlaender, Fomin, Koster,
Kratsch and Thilikos (On exact algorithms for treewidth, ACM TALG 2012), run
on ints: the sorted vertices are indexed once, a vertex set is a bit mask,
the primal adjacency is one mask per vertex, and the table over all 2^n
eliminated sets is a flat list filled from the full set down to the empty
one, with no recursion.  An elimination bag is a flood through the
eliminated set whose every step is three table lookups.  The cover number of
a bag mask is memoised per mask; the public ``min_edge_cover`` runs only on
the n bags of the returned witness.  Ties go to the smallest vertex name, so
the witness is a function of the input alone.  Time and memory grow as
2^n, hence the hard input limits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .dilution import merge_on
from .errors import ConstructionError, InvalidInputError, LimitExceededError
from .hypergraph import Hypergraph, dual_with_map, edge_key

DEFAULT_TW_VERTEX_LIMIT = 16
DEFAULT_GHW_EDGE_LIMIT = 10
DEFAULT_GHW_VERTEX_LIMIT = 18


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


def _mask(index: dict[str, int], vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << index[v]
    return m


def _adjacency_masks(index: dict[str, int], edges) -> list[int]:
    """Primal adjacency: bit j of entry i is set when i != j share an edge."""
    adj = [0] * len(index)
    for e in edges:
        m = _mask(index, e)
        for v in e:
            adj[index[v]] |= m
    return [a & ~(1 << i) for i, a in enumerate(adj)]


def _union_table(block: list[int]) -> list[int]:
    """Union of the block's masks for every sub-mask x of the block."""
    table = [0] * (1 << len(block))
    for x in range(1, len(table)):
        bit = x & -x
        table[x] = table[x ^ bit] | block[bit.bit_length() - 1]
    return table


def _eliminate(adj: list[int], cost) -> tuple[int, list[int], list[int]]:
    """Elimination order minimising the max bag cost, by a subset DP on masks.

    best[P] is the least max bag cost of eliminating the rest once the set P
    is gone; masks run from the full set down to 0, so every superset comes
    first.  The bag of v after P is v plus the vertices outside P that v
    reaches through P.  Vertices are tried in index order and only a strictly
    smaller cost replaces the running choice, so the choice kept for P is the
    least (cost, index); a vertex with best[P | v] already at the running
    minimum cannot beat it and costs no bag.  The order follows the kept
    choices from P = 0.  Returns the width, the order and the order's bags.
    """
    n = len(adj)
    full = (1 << n) - 1
    # the union of adj over a mask is three lookups, one per block of at
    # most w vertex indices
    w = max(1, -(-n // 3))
    w2, low = 2 * w, (1 << w) - 1
    t0, t1, t2 = (_union_table(adj[lo : lo + w]) for lo in (0, w, w2))
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
            bag = adj[v]
            reach = bag & P
            if reach:
                while True:
                    around = t0[reach & low] | t1[reach >> w & low] | t2[reach >> w2]
                    grown = reach | around & P
                    if grown == reach:
                        break
                    reach = grown
                bag = (bag | around) & ~P
            bag |= b
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


def _td_from_order(
    verts: list[str], order: list[int], bags: list[int]
) -> TreeDecomposition:
    """Elimination tree: each bag hangs below its earliest later member."""
    pos = [0] * len(verts)
    for i, v in enumerate(order):
        pos[v] = i
    members = [[v for v in range(len(verts)) if bag >> v & 1] for bag in bags]
    names = [f"t{i + 1}" for i in range(len(order))]
    parents: list[tuple[str, str | None]] = []
    for i in range(len(order)):
        later = [pos[v] for v in members[i] if pos[v] > i]
        if later:
            parents.append((names[i], names[min(later)]))
        elif i + 1 < len(order):
            parents.append((names[i], names[i + 1]))
        else:
            parents.append((names[i], None))
    return TreeDecomposition(
        tuple(names),
        tuple(parents),
        tuple(
            (name, frozenset(verts[v] for v in m)) for name, m in zip(names, members)
        ),
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
    verts = sorted(h.vertices)
    index = {v: i for i, v in enumerate(verts)}
    # the bag size is the cost; the width is one less
    size, order, bags = _eliminate(_adjacency_masks(index, h.edges), int.bit_count)
    width = size - 1
    td = _td_from_order(verts, order, bags)
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


def _cover_number(edges: list[int], n: int):
    """Memoised exact edge-cover number of a vertex mask.

    The lowest vertex of a mask lies in some edge of every cover, so
    cover(m) = 1 + min over the edges e at that vertex of cover(m & ~e).
    Each level of the recursion uses a new edge, so it is at most as deep as
    there are edges.
    """
    at = [[e for e in edges if e >> i & 1] for i in range(n)]
    memo = {0: 0}

    def cover(m: int) -> int:
        got = memo.get(m)
        if got is None:
            low = (m & -m).bit_length() - 1
            got = 1 + min(cover(m & ~e) for e in at[low])
            memo[m] = got
        return got

    return cover


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

    index = {v: i for i, v in enumerate(covered)}
    cover = _cover_number([_mask(index, e) for e in h.edges], len(covered))
    width, order, bags = _eliminate(_adjacency_masks(index, h.edges), cover)
    td = _td_from_order(covered, order, bags)
    covers = tuple((n, min_edge_cover(h, b)) for n, b in td.bags)
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
