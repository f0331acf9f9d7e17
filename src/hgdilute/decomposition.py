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
on the int masks of ``hypergraph``'s vertex-set kernel: a vertex set is a bit
mask over the sorted vertices, and the primal adjacency is one mask per
vertex.  The recurrence over eliminated sets is evaluated top down from the
empty set with a cutoff at the best order found so far, memoised in dicts, so
a set that cannot beat that order is never expanded: most inputs visit a few
percent of the 2^n sets, and the recursion is at most one frame per vertex
deep; the first cutoff is one above the min-degree order's cost (Gogate and
Dechter, UAI 2004).  A set's elimination bags are its parent's after one step
of the elimination game, the step the min-degree order plays too.  The cover
number of a bag mask is memoised per mask and filled under the same cutoff,
and each witness cover is read off that memo: the edges are walked in
``edge_key`` order and an edge is kept when it meets what is left of the bag
and lowers its cover number by one, which yields the lexicographically-first
minimum cover.  ``min_edge_cover`` reads an exact memo of its own.  Ties go to
the smallest vertex name, so the witness is a function of the input alone.  In
the worst case time and memory still grow as 2^n in the covered vertices,
hence the hard input limits; the number of edges needs no limit of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dilution import MergeOn, _step
from .errors import ConstructionError, InvalidInputError, LimitExceededError
from .hypergraph import Hypergraph, _adjacency, _bits, _mask, dual_with_map, edge_key

DEFAULT_TW_VERTEX_LIMIT = 16
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
        nodes = set(self.nodes)
        if len(nodes) != len(self.nodes):
            return "duplicate node names"
        parent = self.parent_of()
        if set(parent) != nodes or {n for n, _ in self.bags} != nodes:
            return "parents/bags do not cover exactly the node set"
        roots = [n for n in self.nodes if parent[n] is None]
        if len(roots) != 1:
            return "decomposition must have exactly one root"
        for n in self.nodes:
            if parent[n] is not None and parent[n] not in nodes:
                return f"unknown parent for node {n}"
        seen: set[str] = set()
        for n in self.nodes:
            trail: set[str] = set()
            x: str | None = n
            while x is not None and x not in seen:
                if x in trail:
                    return "cycle in parent links"
                trail.add(x)
                x = parent[x]
            seen.update(trail)
        return None


@dataclass(frozen=True)
class GHDecomposition:
    td: TreeDecomposition
    covers: tuple[tuple[str, frozenset[frozenset[str]]], ...]

    def cover_of(self) -> dict[str, frozenset[frozenset[str]]]:
        return dict(self.covers)


@dataclass(frozen=True)
class WidthReport:
    kind: str  # "tw" or "ghw"
    width: int
    witness_node: str | None


def validate_td(h: Hypergraph, td: TreeDecomposition) -> tuple[bool, str | None]:
    """Both decomposition conditions on ``h._index_form`` masks; returns the
    first violation found.  A vertex's nodes are connected iff it has one
    topmost node, so the masks ``bag & ~parent_bag`` must be disjoint."""
    if err := td.tree_error():
        return False, err
    names, (_, edges) = h._index_form
    bit = {v: 1 << i for i, v in enumerate(names)}
    masks = {}
    for n, b in td.bag_of().items():
        if not b <= h.vertices:
            return False, f"bag of {n} contains non-vertices"
        masks[n] = sum(map(bit.__getitem__, b))
    missed = list(edges)
    for b in set(masks.values()):
        missed = [e for e in missed if e & ~b]
    if missed:
        first = min(([names[i] for i in _bits(e)] for e in missed), key=edge_key)
        return False, f"edge {first} not contained in any bag"
    seen = twice = 0
    for n, p in td.parent_of().items():
        top = masks[n] & ~masks.get(p, 0)
        twice |= seen & top
        seen |= top
    if twice:
        v = names[(twice & -twice).bit_length() - 1]
        return False, f"occurrences of vertex {v} are not connected"
    return True, None


def validate_ghd(h: Hypergraph, ghd: GHDecomposition) -> tuple[bool, str | None]:
    """Tree-decomposition validity plus the per-node cover condition."""
    covers = ghd.cover_of()
    if len(covers) != len(ghd.covers) or set(covers) != set(ghd.td.nodes):
        return False, "covers do not match node set"
    for n, lam in covers.items():
        for e in lam:
            if e not in h.edges:
                return False, f"cover of {n} references non-edge {sorted(e)}"
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


def _eliminate_vertex(bags: list[int], b: int) -> None:
    """One step of the elimination game on the closed neighbourhoods
    ``bags``, in place: the vertex of bit b goes, and the bag of each vertex
    left in b's bag becomes ``(bag | rest) & ~b``, where rest is b's bag
    less b.  Bags of vertices gone earlier go stale and are never read."""
    rest = around = bags[b.bit_length() - 1] ^ b
    while around:
        u = around & -around
        around ^= u
        i = u.bit_length() - 1
        bags[i] = bags[i] ^ b | rest


def _eliminate(adj: list[int], cost, top: int) -> tuple[int, list[int], list[int]]:
    """Elimination order minimising the max bag cost, by a subset DP on masks.

    best[P] is the least max bag cost of eliminating the rest once the set P
    is gone: the least over v outside P of max(cost of v's bag, best[P | v]).
    The bag of v after P is v's closed neighbourhood once the elimination
    game has removed P; ``solve(P, k, bags, gone)`` plays the step ``gone``
    on a copy of its parent's bags, only after its memo lookups miss.  The
    recurrence is evaluated top down from P = 0 and memoised: ``solve``
    returns best[P] when it is below the cutoff k, and k otherwise, when it
    records k as a lower bound for P.  Vertices are tried in index order; one
    whose bag alone costs the running value is skipped, the rest recurse
    with the running value as the cutoff, and only a strictly smaller cost
    replaces the running choice.  So whenever best[P] is below the cutoff,
    the choice kept for P is the least (cost, index), the one a fill of all
    2^n sets keeps, and a set that cannot beat the best order found so far is
    never expanded.  The root cutoff ``top`` lies above the optimum (the
    callers pass the min-degree order's cost plus one), so best[0] is exact,
    and so is best at each set the kept choices lead to; the order follows
    them from P = 0, the same for every such ``top``.  A cost of ``top`` or
    more only needs to be at least ``top``.  The recursion is at most n + 1
    frames deep.  The worst case still visits all 2^n sets.  Returns the
    width, the order and the order's bags.
    """
    n = len(adj)
    full = (1 << n) - 1
    bits = [(v, 1 << v) for v in range(n)]
    best = {full: -1}  # exact values
    floor: dict[int, int] = {}  # best[P] >= floor[P]
    pick: dict[int, tuple[int, int]] = {}  # the kept (vertex, bag) at P

    def solve(P: int, k: int, bags: list[int], gone: int) -> int:
        if P in best:
            return min(best[P], k)
        if floor.get(P, 0) >= k:
            return k
        if gone:
            bags = bags.copy()
            _eliminate_vertex(bags, gone)
        value = k
        for v, b in bits:
            if P & b:
                continue
            bag = bags[v]
            c = cost(bag)
            if c >= value:
                continue
            after = solve(P | b, value, bags, b)
            if c < after:
                c = after
            if c < value:
                value, chosen = c, (v, bag)
        if value < k:
            best[P] = value
            pick[P] = chosen
        else:
            floor[P] = k
        return value

    width = solve(0, top, [a | 1 << v for v, a in enumerate(adj)], 0)
    del solve  # the closure refers to itself; drop the cycle with the memo
    order, bags = [], []
    P = 0
    while P != full:
        v, bag = pick[P]
        order.append(v)
        bags.append(bag)
        P |= 1 << v
    return width, order, bags


def _min_degree_bags(adj: list[int]) -> tuple[list[int], list[int]]:
    """The min-degree elimination order and its bags, whose largest cost
    bounds the optimum of any bag cost.  Each step eliminates a vertex of
    smallest bag by ``_eliminate_vertex``, as in ``_eliminate``.  Ties go to
    the lowest index."""
    bags = [a | 1 << v for v, a in enumerate(adj)]
    left = list(range(len(adj)))
    order, chosen = [], []
    while left:
        sizes = [bags[v].bit_count() for v in left]
        v = left.pop(sizes.index(min(sizes)))
        order.append(v)
        chosen.append(bags[v])
        _eliminate_vertex(bags, 1 << v)
    return order, chosen


def _min_degree_width(adj: list[int]) -> int:
    """Treewidth upper bound: the widest min-degree bag less one, -1 for no
    vertices."""
    return max(map(int.bit_count, _min_degree_bags(adj)[1]), default=0) - 1


def _td_from_order(
    verts: tuple[str, ...], order: list[int], bags: list[int]
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
    verts, (n, masks) = h._index_form
    adj = _adjacency(n, masks)
    # the bag size is the cost; the width is one less
    size, order, bags = _eliminate(adj, int.bit_count, _min_degree_width(adj) + 2)
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


class _CoverNumbers(dict):
    """Memoised exact edge-cover numbers of vertex masks: ``cover[m]``.

    The lowest vertex of a mask lies in some edge of every cover, so
    cover[m] = 1 + min over the edges e at that vertex of cover[m & ~e].
    A miss fills the memo depth first from an explicit stack, so a cover
    needing a long chain of edges takes no Python frame per edge.  Unlike a
    recursive closure, which refers to itself, the memo holds no reference
    cycle and is freed as soon as it is dropped.
    """

    def __init__(self, edges: list[int], n: int):
        super().__init__({0: 0})
        self.at = [[e for e in edges if e >> i & 1] for i in range(n)]

    def __missing__(self, m: int) -> int:
        at, known = self.at, self.get
        stack: list[int] = []  # masks waiting for their rests, m at the bottom
        x = m
        while True:
            edges = at[(x & -x).bit_length() - 1]
            covers = [known(x & ~e) for e in edges]
            if None in covers:  # fill the unknown rests first, then x again
                stack.append(x)
                stack += [x & ~e for e, c in zip(edges, covers) if c is None]
            else:
                got = self[x] = 1 + min(covers)
                if not stack:
                    return got
            x = stack.pop()


class _CappedCovers(_CoverNumbers):
    """Edge-cover numbers capped: ``cover[m]`` is min(cover number, cap).

    A miss runs ``_eliminate``'s cutoff on ``_CoverNumbers``' recurrence:
    ``fill(m, k)`` is min(cover number, k), and an edge's rest is filled
    only below the running value less one, so a fill is at most ``cap``
    frames deep.  Exact numbers are memoised in the dict, "at least k" in
    ``low``.
    """

    def __init__(self, edges: list[int], n: int, cap: int):
        super().__init__(edges, n)
        self.low: dict[int, int] = {}  # cover number of m >= low[m]
        self.cap = cap

    def fill(self, m: int, k: int) -> int:
        got = self.get(m)
        if got is not None:
            return got if got < k else k
        if self.low.get(m, 0) >= k:
            return k
        value = k
        for e in self.at[(m & -m).bit_length() - 1]:
            if value <= 1:  # m is not empty, so nothing covers it with fewer
                break
            c = 1 + self.fill(m & ~e, value - 1)
            if c < value:
                value = c
        if value < k:
            self[m] = value
        else:
            self.low[m] = k
        return value

    def __missing__(self, m: int) -> int:
        got = self[m] = self.fill(m, self.cap)
        return got


def _read_cover(edges: list[int], cover: _CoverNumbers, m: int) -> list[int]:
    """Positions in ``edges`` of the lexicographically-first minimum cover of m.

    The least position in that cover is the least one whose edge lies in some
    minimum cover of m, that is, meets m and leaves a rest whose cover number
    is one less.  The rest's lexicographically-first minimum cover is the
    remainder of m's, and every position in it comes later, so one forward
    walk over the edges reads the whole cover off the memo.  Capped numbers
    serve when m's lies below the cap: a rest is compared only with one less.
    """
    need = cover[m]
    picked = []
    for i, e in enumerate(edges):
        if e & m and cover[m & ~e] == need - 1:
            picked.append(i)
            m &= ~e
            need -= 1
            if not m:
                break
    return picked


def min_edge_cover(h: Hypergraph, bag: frozenset) -> frozenset[frozenset[str]]:
    """Lexicographically-first minimum set of edges whose union contains bag.

    Edges compare by ``edge_key``; the cover is read off a cover-number memo
    over the bag's vertices, as in ``exact_ghw``.
    """
    if not bag:
        return frozenset()
    edges = sorted(h.edges, key=edge_key)
    if not bag <= frozenset().union(*edges):
        raise InvalidInputError(f"bag {sorted(bag)} has vertices in no edge")
    index = {v: i for i, v in enumerate(sorted(bag))}
    masks = [_mask(index, e & bag) for e in edges]
    cover = _CoverNumbers(masks, len(index))
    return frozenset(
        edges[i] for i in _read_cover(masks, cover, (1 << len(index)) - 1)
    )


def exact_ghw(
    h: Hypergraph, max_vertices: int = DEFAULT_GHW_VERTEX_LIMIT
) -> tuple[WidthReport, GHDecomposition]:
    """Exact cover width with a validating decomposition witness.

    The cost grows with the covered vertices alone, so only their number is
    limited; each bag's cover is the one ``min_edge_cover`` would return.
    """
    covered = tuple(sorted({v for e in h.edges for v in e}))
    if len(covered) > max_vertices:
        raise LimitExceededError(
            f"{len(covered)} covered vertices exceeds limit {max_vertices}"
        )
    if not covered:
        td = TreeDecomposition(("t1",), (("t1", None),), (("t1", frozenset()),))
        ghd = GHDecomposition(td, (("t1", frozenset()),))
        return WidthReport("ghw", 0, "t1"), ghd

    index = {v: i for i, v in enumerate(covered)}
    edges = sorted(h.edges, key=edge_key)
    masks = [_mask(index, e) for e in edges]
    adj = _adjacency(len(covered), masks)
    cover = _CappedCovers(masks, len(covered), len(covered) + 1)  # exact
    top = 1 + max([cover[bag] for bag in _min_degree_bags(adj)[1]])
    cover.cap = top  # every number read so far lies below it
    width, order, bags = _eliminate(adj, cover.__getitem__, top)
    td = _td_from_order(covered, order, bags)
    covers = tuple(
        (name, frozenset(edges[i] for i in _read_cover(masks, cover, bag)))
        for name, bag in zip(td.nodes, bags)
    )
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

    Every cover edge becomes its image under the merge (``dilution._step``),
    so a cover that used edges at v holds the single merged edge instead;
    bags along the subtree whose bags contain v absorb the merged edge and
    drop v.  The width never increases.
    """
    ok, why = validate_ghd(h, ghd)
    if not ok:
        raise InvalidInputError(f"input decomposition invalid: {why}")
    if v not in h.vertices:
        raise InvalidInputError(f"unknown vertex {v!r}")
    incident = h._incidence[v]
    if not incident:
        raise InvalidInputError(f"vertex {v!r} has degree 0, nothing to merge")
    merged_h, image = _step(h, MergeOn(v))
    merged = image[next(iter(incident))]

    new_bags = []
    for n, b in ghd.td.bags:
        new_bags.append((n, (b - {v}) | merged if v in b else b))
    new_covers = [(n, frozenset([image[e] for e in lam])) for n, lam in ghd.covers]
    out = GHDecomposition(
        TreeDecomposition(ghd.td.nodes, ghd.td.parents, tuple(new_bags)),
        tuple(new_covers),
    )
    ok, why = validate_ghd(merged_h, out)
    if not ok:  # pragma: no cover - transform invariant
        raise ConstructionError(
            f"merge transform produced invalid decomposition: {why}"
        )
    return out


def ghd_from_dual_td(
    h: Hypergraph,
    td_of_dual: TreeDecomposition,
) -> GHDecomposition:
    """Cover decomposition of a reduced h from a tree decomposition of its dual.

    Each dual bag is a set of h-edges; it becomes the cover, and the bag is
    the union of those edges.  The width is at most the dual treewidth plus
    one.
    """
    if not h.is_reduced():
        raise InvalidInputError("hypergraph must be reduced")
    d, edge_to_name = dual_with_map(h)
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
