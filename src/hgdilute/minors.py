"""Graph minors in hypergraphs, jigsaw extraction, pre-jigsaw machinery.

A minor map sends each vertex of a pattern graph to a connected, pairwise
disjoint branch set of the host, with host edges witnessing pattern adjacency.
``find_minor`` is an exhaustive model search (complete; budget-guarded) over
the host's connected vertex subsets held as int masks, which come, like
the masks the minor-map checks run on, from ``hypergraph``'s vertex-set
kernel.  Before the search it tries certificates of absence: a pattern
with more primal edges, a larger circuit rank or a larger treewidth than
the host is no minor, as none of these grows under deletion or contraction
(the pattern's treewidth, by ``decomposition``'s DP, is compared with a
min-degree bound of the host); and a pattern with as many vertices as the
host, whose branch sets are then single vertices, is none when the host's
sorted degrees do not dominate its own entry by entry.  During the search
it drops every partial placement that leaves some connected piece of the
unplaced pattern no connected region of the unused host to go to (one
with room for it, at least its circuit rank, and next to its placed
neighbours), it places a vertex only on a subset with an unused host
neighbour for each of its pattern neighbours still to come (the
free-neighbour cut), and it enumerates the host's connected subsets only
up to the largest size a branch set can have.  No cut removes a branch
that holds a model, so the first model found is the one the plain search
finds.  On 12-16-vertex hosts
(relabelled grids, duals of meshes and jigsaws) it finds a 2x2, 3x3 or 4x4
grid in at most 0.1 s, and the treewidth certificate proves that no 3x3 or
4x4 grid lies in a 2 x k grid (``grid(2, 7)`` took 2.47e6 attempts before)
in under 1 ms.  Absences that no certificate settles are proved by the
search on random 12- and 14-vertex hosts in at most 0.46 s; on 16 vertices
2 of 20 still outgrow the default 1e6 attempts, which run out after at
most 2.0 s (timed on a 2-core x86 machine).

Each plan of the search is built once and kept in a small cache keyed on
the hypergraph: a pattern's placement order, position adjacency, certificate
counts and fitting tables, and a host's masks, certificate counts and
connected subsets.  Many patterns asked of one host, as in the degree-2
sweep, then share one host plan, and each pattern is prepared once.

``jigsaw_from_grid_minor`` turns a minor of any connected pattern graph g in
the dual of a degree-2 hypergraph into an explicit dilution sequence onto
the dual of g (a jigsaw when g is a grid): each branch set's edge region is
collapsed, keeping the junction vertices shared between adjacent regions.
``minor_from_dilution`` goes the other way, reading the branch sets off the
edge-provenance labels of a verified sequence.  ``decide_dilution`` puts the
two halves of the paper's degree-2 lemma to work: on a host of degree at
most 2 it decides a dilution onto the dual of a connected graph by a minor
search in the dual of the reduced host.

Expressive minor maps add an injective edge assignment whose inter-edge
connectivity avoids all assigned edges; dualizing one produces a pre-jigsaw
witness: a corner embedding of a jigsaw plus disjoint edge regions whose
internal paths realize each jigsaw edge.  Degree-2 pre-jigsaws collapse back
onto the jigsaw, keeping the corners.

Both constructions end in one collapse (``_collapse``): merge each edge
region along a spanning set of its interior degree-2 vertices, drop the
empty edge this may leave, and delete every vertex but the kept ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

from .decomposition import DEFAULT_TW_VERTEX_LIMIT, _min_degree_width, _treewidth_order
from .dilution import (
    DEFAULT_SEARCH_BUDGET,
    DeleteVertex,
    DilutionSequence,
    MergeOn,
    _apply_dropping_empty_edge,
    apply_sequence,
    reduce_hypergraph,
    search_dilution,
    track_labels,
    verify_dilution,
)
from .errors import (
    BudgetExceededError,
    ConstructionError,
    InvalidInputError,
)
from .generators import (
    _grid_edge_names,
    grid,
    jigsaw,
    jigsaw_named_edges,
    subdivided_jigsaw,
)
from .hypergraph import (
    Hypergraph,
    Path,
    PreJigsawWitness,
    _adjacency,
    _bits,
    _circuit_rank,
    _dual_names,
    _edge_count,
    _find,
    _mask,
    _mask_components,
    _shortest_path,
    components,
    dual,
    dual_with_map,
    edge_key,
    is_connected,
    isomorphic,
)

DEFAULT_MINOR_BUDGET = 10**6


@dataclass(frozen=True)
class MinorMap:
    """Pattern vertex -> branch set (host vertex subset)."""

    branch_sets: tuple[tuple[str, frozenset[str]], ...]

    def as_dict(self) -> dict[str, frozenset[str]]:
        return dict(self.branch_sets)

    @classmethod
    def of(cls, mapping) -> "MinorMap":
        return cls(tuple(sorted((v, frozenset(s)) for v, s in dict(mapping).items())))


def _check_graph(g: Hypergraph):
    if any(len(e) != 2 for e in g.edges):
        raise InvalidInputError("pattern must be 2-uniform")


def _edge_connects(e: frozenset, a: frozenset, b: frozenset) -> bool:
    return bool(e & a) and bool(e & b)


def validate_minor_map(
    g: Hypergraph, host: Hypergraph, mm: MinorMap, require_onto: bool = False
) -> tuple[bool, str | None]:
    """All minor-map conditions; reports the first violation."""
    _check_graph(g)
    images = mm.as_dict()
    if set(images) != set(g.vertices):
        return False, "branch sets do not cover exactly the pattern vertices"
    names, (n, masks) = host._index_form
    index = {x: i for i, x in enumerate(names)}
    adj = _adjacency(n, masks)
    sets: dict[str, int] = {}
    taken = 0
    for v in sorted(images):
        s = images[v]
        if not s:
            return False, f"branch set of {v} is empty"
        if not s <= host.vertices:
            return False, f"branch set of {v} leaves the host"
        sets[v] = m = _mask(index, s)
        if m & taken:
            return False, f"branch set of {v} overlaps another"
        taken |= m
        if len(_mask_components(adj, m)) > 1:
            return False, f"branch set of {v} is not connected"
    # the sets are disjoint: an edge meets two exactly when primal neighbours do
    for e in sorted(g.edges, key=edge_key):
        u, v = sorted(e)
        if not any(adj[i] & sets[v] for i in _bits(sets[u])):
            return False, f"no host edge connects branch sets of {u} and {v}"
    if require_onto and taken != (1 << n) - 1:
        return False, "branch sets do not cover the host"
    return True, None


# -- exhaustive minor search --------------------------------------------------


def _connected_subsets(nbr: list[int], cap: int) -> list[tuple[int, int, int]]:
    """Every connected vertex subset of at most ``cap`` >= 1 vertices, each
    exactly once, as (mask, open-neighbourhood mask, size), for the vertices
    0..n-1 with neighbour masks ``nbr``; ordered by size, then by the sorted
    tuple of vertex indices, so a smaller cap cuts the list short."""
    top = len(nbr) - 1
    keyed: list[tuple[int, int, int, int]] = []

    def expand(mask: int, rev: int, size: int, around: int, banned: int):
        # rev mirrors mask (bit k at top - k): a larger rev sorts first
        keyed.append((size, -rev, mask, around))
        if size == cap:
            return
        options = around & ~banned
        while options:
            u = options & -options
            options ^= u
            k, grown = u.bit_length() - 1, mask | u
            ring = (around | nbr[k]) & ~grown
            expand(grown, rev | 1 << (top - k), size + 1, ring, banned)
            banned |= u

    for i in range(len(nbr)):
        # subsets whose minimum element is i: every vertex up to i is banned
        expand(1 << i, 1 << (top - i), 1, nbr[i], (2 << i) - 1)
    keyed.sort()
    return [(mask, around, size) for size, _, mask, around in keyed]


def _piece_rank(adj: list[int], piece: int) -> int:
    """The circuit rank of the connected vertex set ``piece`` of the graph
    with neighbour masks ``adj``: its edges less its vertices plus one."""
    ends = 0
    rest = piece
    while rest:
        b = rest & -rest
        rest ^= b
        ends += (adj[b.bit_length() - 1] & piece).bit_count()
    return (ends >> 1) - piece.bit_count() + 1


class _Plan:
    """What the certificates read off a graph's neighbour masks ``adj``:
    its edge count, circuit rank, vertex degrees largest first, and the
    min-degree elimination bound, computed when first asked for."""

    def __init__(self, adj: list[int]):
        self.adj = adj
        self.edges, self.rank = _edge_count(adj), _circuit_rank(adj)
        self.degrees = sorted((m.bit_count() for m in adj), reverse=True)

    @cached_property
    def min_degree_width(self) -> int:
        return _min_degree_width(self.adj)


class _Pattern(_Plan):
    """Search set-up of a connected pattern graph, built once per pattern.

    ``names`` holds the vertices in placement order: breadth-first from the
    least name, neighbours in name order.  ``adj`` is the adjacency by
    position in that order, ``earlier[i]`` the placed neighbours of
    position i, ``later[i]`` the number of its neighbours placed after it,
    and ``fits[i]`` the (size, placed neighbours, circuit rank) of each
    piece of the pattern left unplaced at depth i, the piece holding
    position i first.  The treewidth is computed only when a certificate
    asks for it.
    """

    def __init__(self, g: Hypergraph):
        _check_graph(g)
        gnames, (n, masks) = g._index_form
        gadj = _adjacency(n, masks)
        order, seen = [0] if gnames else [], 1
        for x in order:
            fresh = gadj[x] & ~seen
            seen |= fresh
            while fresh:
                b = fresh & -fresh
                fresh ^= b
                order.append(b.bit_length() - 1)
        if len(order) < len(gnames):
            raise InvalidInputError("pattern must be connected")
        self.names = [gnames[x] for x in order]
        index = {v: i for i, v in enumerate(self.names)}
        super().__init__(adj := _adjacency(n, [_mask(index, e) for e in g.edges]))
        self.earlier = [[j for j in range(i) if adj[i] >> j & 1] for i in range(n)]
        self.later = [(adj[i] >> i + 1).bit_count() for i in range(n)]
        self.fits = [
            [
                (
                    piece.bit_count(),
                    [j for j in range(i) if adj[j] & piece],
                    _piece_rank(adj, piece),
                )
                for piece in _mask_components(adj, (1 << n) - (1 << i))
            ]
            for i in range(n)
        ]

    @cached_property
    def treewidth(self) -> int:
        return _treewidth_order(self.adj)[0]


class _Host(_Plan):
    """Search set-up of a host, shared by every pattern asked of it: sorted
    names and the plan of their neighbour masks (vertex i of ``names`` is
    bit i); the connected subsets are built when a search first needs them,
    and only up to the largest size a search has asked for."""

    def __init__(self, host: Hypergraph):
        self.names, (n, masks) = host._index_form
        super().__init__(_adjacency(n, masks))
        self.cap, self._subsets = 0, []

    def subsets(self, cap: int) -> list[tuple[int, int, int]]:
        """The connected subsets in search order, at least all of at most
        ``cap`` vertices: the list kept is for the largest cap asked so far,
        and is rebuilt only when a larger one is asked."""
        if cap > self.cap:
            self.cap, self._subsets = cap, _connected_subsets(self.adj, cap)
        return self._subsets


# equal hypergraphs share a plan, so no caller may change one (a host plan
# only ever extends its subset list); a failed build is not cached and
# raises again on every call
_pattern = lru_cache(maxsize=64)(_Pattern)
_host = lru_cache(maxsize=1)(_Host)


def _wider(pattern: _Pattern, host: _Host) -> bool:
    """Whether the pattern's exact treewidth exceeds ``host.min_degree_width``,
    the host's min-degree elimination bound.  The exact subset DP, cut off at
    its running optimum but 2^n in the worst case, runs only when the pattern
    fits the treewidth limit and its own min-degree bound lies above it."""
    n, bound = len(pattern.adj), host.min_degree_width
    # a treewidth is at most the vertex count less one
    if bound >= n - 1 or n > DEFAULT_TW_VERTEX_LIMIT:
        return False
    return pattern.min_degree_width > bound and pattern.treewidth > bound


def find_minor(
    g: Hypergraph,
    host: Hypergraph,
    budget: int = DEFAULT_MINOR_BUDGET,
) -> MinorMap | None:
    """Exhaustive search for a minor model of connected pattern g in host.

    None means proven absence; exceeding the budget raises.  Absence is
    first tried by certificates: more pattern vertices, primal edges or
    circuit rank than the host, sorted degrees that the host's do not
    dominate entry by entry when the vertex counts are equal, or a pattern
    treewidth above the host's min-degree elimination bound.  The search
    then places the pattern vertices in breadth-first order, each on a
    connected host subset by size, and drops a partial placement as soon as
    some connected piece of the unplaced pattern fits no connected piece of
    the unused host vertices: one with at least as many vertices and at
    least the piece's circuit rank (the circuit-rank cut: the piece is a
    minor of the region it goes to) that touches the image of every placed
    neighbour of the piece.  The next vertex is tried only inside a region
    that fits its own piece, and only on a subset with at least one unused
    host neighbour for each of its pattern neighbours still to be placed.
    Every other pattern vertex needs a branch set of its own, so the host's
    connected subsets are enumerated only up to |host| - |pattern| + 1
    vertices (the size cap).  These only cut branches without a completion
    or subsets no placement can take, so the first model found is the
    unpruned search's.
    """
    pattern = _pattern(g)
    if len(pattern.names) > len(host.vertices):
        return None
    plan = _host(host)
    # edge count, circuit rank and treewidth never grow under deletion or
    # contraction (Robertson & Seymour, Graph Minors): a pattern above the
    # host in any of them has no model.  With as many vertices as the host,
    # every branch set is one vertex, so a model is a spanning subgraph and
    # each pattern degree needs its own host vertex of at least that degree.
    # The cheapest come first
    if (
        pattern.edges > plan.edges
        or pattern.rank > plan.rank
        or (
            len(pattern.names) == len(plan.names)
            and any(p > h for p, h in zip(pattern.degrees, plan.degrees))
        )
        or _wider(pattern, plan)
    ):
        return None

    n, names, nbr = len(pattern.names), plan.names, plan.adj
    earlier, later, fits = pattern.earlier, pattern.later, pattern.fits
    # every other pattern vertex takes at least one host vertex
    subsets = plan.subsets(len(names) - n + 1)
    everything = (1 << len(names)) - 1
    attempts = 0

    def place(i: int, used: int, images: list[int], rims: list[int]):
        nonlocal attempts
        if i == n:
            return list(images)
        free = everything & ~used
        limit = free.bit_count() - (n - i - 1)
        # a piece fits a region (a connected piece of the free host) that has
        # room for it, no smaller circuit rank, as the piece is a minor of
        # the region, and touches the image of each of its placed
        # neighbours; the vertex at depth i must go to a region that fits
        # its own piece.  A tree fits any rank, so a region's rank is
        # counted only for a piece with a cycle
        regions = _mask_components(nbr, free)
        for k, (size, touch, rank) in enumerate(fits[i]):
            spot = room = 0
            for r in regions:
                if r.bit_count() >= size and (not rank or _piece_rank(nbr, r) >= rank):
                    for j in touch:
                        if not r & rims[j]:
                            break
                    else:
                        spot |= r
                        room = max(room, r.bit_count() - size + 1)
                        if k:
                            break  # one region is enough for the others
            if not spot:
                return None
            if not k:
                home, limit = spot, min(limit, room)
        linked = [images[j] for j in earlier[i]]
        for s, around, size in subsets:
            if size > limit:
                break  # sizes only grow from here
            if s & ~home:
                continue
            attempts += 1
            if attempts > budget:
                raise BudgetExceededError(
                    f"minor search exceeded {budget} placement attempts"
                )
            # each pattern neighbour still to come needs its own branch set,
            # disjoint from the rest and touching s: an unused host neighbour
            if (around & ~used).bit_count() < later[i]:
                continue
            # s misses every placed image: an edge joins the two iff a neighbour does
            for image in linked:
                if not around & image:
                    break
            else:
                images.append(s)
                rims.append(around)
                res = place(i + 1, used | s, images, rims)
                if res is not None:
                    return res
                images.pop()
                rims.pop()
        return None

    model = place(0, 0, [], [])
    if model is None:
        return None
    sets = [{v for k, v in enumerate(names) if m >> k & 1} for m in model]
    return MinorMap.of(dict(zip(pattern.names, sets)))


def extend_to_onto(g: Hypergraph, host: Hypergraph, mm: MinorMap) -> MinorMap:
    """Absorb unused host vertices, the least one next to a branch set
    first, each into the first set in pattern order that it touches."""
    images = {v: frozenset(s) for v, s in mm.as_dict().items()}
    order = sorted(images)
    names, (n, masks) = host._index_form
    index = {x: i for i, x in enumerate(names)}
    adj = _adjacency(n, masks)
    # vertices outside the host stay in their sets for validation to reject
    sets = [_mask(index, images[v] & host.vertices) for v in order]
    free = _mask(index, host.vertices.difference(*images.values()))
    while free:
        for u in _bits(free):
            k = next((k for k, m in enumerate(sets) if adj[u] & m), None)
            if k is not None:
                break
        else:
            raise InvalidInputError(
                "host has vertices unreachable from the model; cannot make the map onto"
            )
        sets[k] |= 1 << u
        free ^= 1 << u
    out = MinorMap.of(
        {v: images[v] | {names[i] for i in _bits(m)} for v, m in zip(order, sets)}
    )
    ok, why = validate_minor_map(g, host, out, require_onto=True)
    if not ok:  # pragma: no cover - absorption invariant
        raise ConstructionError(f"onto extension broke the map: {why}")
    return out


def find_grid_minor(
    host: Hypergraph, n: int, budget: int = DEFAULT_MINOR_BUDGET
) -> MinorMap | None:
    """Onto minor map of the n x n grid into host, or proven absence.

    Complete in practice for hosts of about 14 vertices, and of about 16
    when the grid is present or a certificate rules it out (for instance a
    host whose min-degree elimination bound is below n); beyond that the
    budget decides.  The host must be connected for the returned map to be
    onto.
    """
    g = grid(n, n)
    mm = find_minor(g, host, budget=budget)
    if mm is None:
        return None
    return extend_to_onto(g, host, mm)


# -- jigsaw extraction ---------------------------------------------------------


def _region_merge_spine(region: frozenset, protected: set[str]) -> list[str]:
    """Interior vertices whose merges fuse the edge region into one edge.

    Candidates are the vertices in two edges of the region, all their edges
    on a host of degree at most 2; a lexicographic Kruskal sweep picks a
    spanning spine of minimum size.
    """
    edges = sorted((e for e in region if e), key=edge_key)
    if len(edges) <= 1:
        return []
    parent = list(range(len(edges)))  # union-find over edge positions
    spine: list[str] = []
    for w in sorted({v for e in edges for v in e}):
        if w in protected:
            continue
        holders = [i for i, e in enumerate(edges) if w in e]
        if len(holders) != 2:
            continue
        a, b = _find(parent, holders[0]), _find(parent, holders[1])
        if a != b:
            parent[a] = b
            spine.append(w)
    if len({_find(parent, i) for i in range(len(edges))}) != 1:
        raise ConstructionError(
            "edge region is not linked by interior degree-2 vertices"
        )
    return spine


def jigsaw_from_grid_minor(
    h: Hypergraph, g: Hypergraph, mm: MinorMap
) -> DilutionSequence:
    """Dilution sequence from degree-2 h onto the dual of g.

    g may be any connected graph, not only a grid.  Requires an onto minor
    map of g into the dual of the reduced form of h, with branch sets named
    by that dual's vertex names.  The sequence reduces h, merges each branch
    set's edge region along an interior spanning spine, and deletes
    everything but one junction vertex per pattern edge.  The result is
    verified before returning.
    """
    _check_graph(g)
    if h.max_degree() > 2:
        raise InvalidInputError("hypergraph degree must be at most 2")
    if not is_connected(g):
        raise InvalidInputError("pattern must be connected")
    h_red, seq = reduce_hypergraph(h)
    ok, why = validate_minor_map(g, dual(h_red), mm, require_onto=True)
    if not ok:
        raise InvalidInputError(f"minor map invalid for the dual: {why}")
    seq = seq.then(_jigsaw_steps(h_red, g, mm))
    ok, _ = verify_dilution(h, seq, dual(g))
    if not ok:
        raise ConstructionError("extracted sequence does not reach the dual pattern")
    return seq


def _jigsaw_steps(h_red: Hypergraph, g: Hypergraph, mm: MinorMap) -> list:
    """``jigsaw_from_grid_minor``'s steps from the reduced h_red, unchecked:
    mm is an onto minor map of connected g into the dual of h_red."""
    name_to_edge = {name: e for e, name in _dual_names(h_red).items()}
    images = mm.as_dict()
    region = {
        u: frozenset(name_to_edge[x] for x in images[u]) for u in g.vertices
    }

    # on a degree-2 host a vertex joins the regions of u and v exactly when
    # the owners of its (at most two) edges are u and v
    owner = {e: u for u, r in region.items() for e in r}
    junction: dict[frozenset, str] = {}
    for w in sorted(h_red.vertices):
        junction.setdefault(frozenset(owner[e] for e in h_red._incidence[w]), w)
    for ge in sorted(g.edges, key=edge_key):
        if ge not in junction:
            u, v = sorted(ge)
            raise ConstructionError(f"no junction vertex for pattern edge {u}-{v}")
    kept = {junction[ge] for ge in g.edges}
    return _collapse(h_red, [region[u] for u in sorted(g.vertices)], kept)


def _dual_graph(t: Hypergraph) -> Hypergraph | None:
    """The connected graph g on at least 3 vertices with dual(g) isomorphic
    to t, read off as dual(t); None when t is no such dual."""
    g = dual(t)
    if len(g.vertices) < 3 or any(len(e) != 2 for e in g.edges):
        return None
    if not is_connected(g) or isomorphic(dual(g), t) is None:
        return None
    return g


def decide_dilution(
    h: Hypergraph, t: Hypergraph, budget: int = DEFAULT_SEARCH_BUDGET
) -> DilutionSequence | None:
    """A verified dilution sequence from h onto t, or None when there is none.

    On a host of degree at most 2 the paper's degree-2 lemma answers:
    for a connected graph g with at least 3 vertices, dual(g) is a dilution
    of h iff g is a minor of dual(reduce(h)).  A target isomorphic to such
    a dual(g) is decided by ``find_minor`` with ``budget`` placement
    attempts; a found model is made onto and turned into a sequence by
    ``jigsaw_from_grid_minor``.  A "no" of this route rests on the lemma,
    which acceptance criterion 7 checks exhaustively on small hosts, plus
    the complete minor search.  The route's sequence is verified, but it is
    not the shortest.  Every other pair goes to ``search_dilution`` with
    ``budget`` expanded states, which returns a shortest sequence; it
    refuses before expanding a state a target whose sorted degrees the
    host's do not dominate, at every host degree, since no step raises a
    degree.
    """
    if h.max_degree() <= 2:
        g = _dual_graph(t)
        if g is not None:
            found = _dilution_by_minor(h, g, t, budget)
            return None if found is None else found[0]
    return search_dilution(h, t, budget=budget)


def minor_piece(
    h: Hypergraph, g: Hypergraph, budget: int
) -> tuple[DilutionSequence, Hypergraph, MinorMap] | None:
    """The sequence from h to a piece of its reduced form, the piece, and an
    onto minor map of connected g into the piece's dual; None when g is no
    minor of the dual of the reduced h."""
    h_red, seq = reduce_hypergraph(h)
    d, edge_to_name = dual_with_map(h_red)
    mm = find_minor(g, d, budget=budget)
    if mm is None:
        return None
    # g is connected, so its model lies in one component of d.  The map must
    # be made onto a connected dual, so the vertices of h_red outside that
    # component's edges go first; the edges they empty collapse into one
    # empty edge, which is dropped.  Each vertex left keeps all its edges,
    # so the piece is reduced like h_red
    used = frozenset().union(*mm.as_dict().values())
    piece = next(c for c in components(d) if c & used)
    kept = {v for e, name in edge_to_name.items() if name in piece for v in e}
    steps = [DeleteVertex(v) for v in sorted(h_red.vertices - kept)]
    h_piece = _apply_dropping_empty_edge(h_red, steps)
    return seq.then(steps), h_piece, extend_to_onto(g, dual(h_piece), mm)


def _dilution_by_minor(
    h: Hypergraph, g: Hypergraph, t: Hypergraph, budget: int
) -> tuple[DilutionSequence, MinorMap] | None:
    """A sequence from degree-2 h onto t, the dual of connected g, verified
    from h, and the onto minor map of g it was built from; None when g is no
    minor of the dual of the reduced h.  The piece is collapsed as it stands."""
    found = minor_piece(h, g, budget)
    if found is None:
        return None
    seq, h_piece, mm = found
    seq = seq.then(_jigsaw_steps(h_piece, g, mm))
    ok, _ = verify_dilution(h, seq, t)
    if not ok:
        raise ConstructionError("minor route does not reach the target")
    return seq, mm


def minor_from_dilution(
    h: Hypergraph, seq: DilutionSequence, g: Hypergraph
) -> MinorMap:
    """Branch sets of g in the dual of h, read off a verified dilution.

    The edge-provenance labels of the sequence, grouped by the target edge
    they end on, are exactly the branch sets once edges are renamed to dual
    vertices.  Needs at least 3 pattern vertices so that the dual of g keeps
    one edge per pattern vertex.
    """
    _check_graph(g)
    if h.max_degree() > 2:
        raise InvalidInputError("hypergraph degree must be at most 2")
    if len(g.vertices) < 3:
        raise InvalidInputError("pattern needs at least 3 vertices")
    if not is_connected(g):
        raise InvalidInputError("pattern must be connected")
    dg, gedge_name = dual_with_map(g)
    result = apply_sequence(h, seq)
    wit = isomorphic(result, dg)
    if wit is None:
        raise InvalidInputError("sequence does not reach the dual of the pattern")
    to_dg = wit.as_dict()
    labels = track_labels(h, seq).as_dict()
    _, edge_to_name = dual_with_map(h)
    images = {}
    for v in sorted(g.vertices):
        dg_edge = frozenset(gedge_name[e] for e in g._incidence[v])
        matches = [
            f
            for f in result.edges
            if frozenset(to_dg[x] for x in f) == dg_edge
        ]
        if len(matches) != 1:
            raise ConstructionError(
                f"dual edge of pattern vertex {v} is not uniquely matched"
            )
        images[v] = frozenset(edge_to_name[e] for e in labels[matches[0]])
    mm = MinorMap.of(images)
    ok, why = validate_minor_map(g, dual(h), mm)
    if not ok:
        raise ConstructionError(f"label-derived branch sets invalid: {why}")
    return mm


# -- expressive minors ---------------------------------------------------------


@dataclass(frozen=True)
class ExpressiveMinorMap:
    """Onto minor map plus an injective pattern-edge -> host-edge assignment."""

    mu: MinorMap
    rho: tuple[tuple[frozenset[str], frozenset[str]], ...]

    def rho_dict(self) -> dict[frozenset, frozenset]:
        return dict(self.rho)

    @classmethod
    def of(cls, mu, rho) -> "ExpressiveMinorMap":
        mm = mu if isinstance(mu, MinorMap) else MinorMap.of(mu)
        return cls(
            mm,
            tuple(
                sorted(
                    ((frozenset(k), frozenset(v)) for k, v in dict(rho).items()),
                    key=lambda kv: edge_key(kv[0]),
                )
            ),
        )


def validate_expressive_minor(
    g: Hypergraph, host: Hypergraph, emm: ExpressiveMinorMap
) -> tuple[bool, str | None]:
    """Expressive-minor conditions on top of an onto minor map."""
    ok, why = validate_minor_map(g, host, emm.mu, require_onto=True)
    if not ok:
        return False, why
    rho = emm.rho_dict()
    if set(rho) != set(g.edges):
        return False, "edge assignment does not cover exactly the pattern edges"
    values = list(rho.values())
    if len(set(values)) != len(values):
        return False, "edge assignment is not injective"
    if any(v not in host.edges for v in values):
        return False, "edge assignment leaves the host"
    images = emm.mu.as_dict()
    for e in sorted(g.edges, key=edge_key):
        u, v = sorted(e)
        if not _edge_connects(rho[e], images[u], images[v]):
            return False, f"assigned edge for {u}-{v} does not connect the branch sets"
    # assigned edges a and b touch or link avoiding the other assigned edges
    # iff one component of the unassigned edges (isolated vertices count)
    # meets both: a path from a to b leaves a for the last time and enters
    # b for the first time through unassigned edges only
    names, (n, masks) = host._index_form
    index = {x: i for i, x in enumerate(names)}
    assigned = {e: _mask(index, f) for e, f in rho.items()}
    free = set(masks) - set(assigned.values())
    pieces = _mask_components(_adjacency(n, free), (1 << n) - 1)
    for e1, e2 in combinations(sorted(g.edges, key=edge_key), 2):
        a, b = assigned[e1], assigned[e2]
        if e1 & e2 and not any(p & a and p & b for p in pieces):
            return (
                False,
                f"assigned edges of incident pattern edges "
                f"{sorted(e1)}/{sorted(e2)} only connect through assigned edges",
            )
    return True, None


def expressive_from_minor(
    g: Hypergraph, host: Hypergraph, mm: MinorMap
) -> ExpressiveMinorMap:
    """Canonical edge assignment for rank-2 hosts, where every minor is expressive."""
    if host.rank() > 2:
        raise InvalidInputError("automatic edge assignment needs a rank-2 host")
    mm = extend_to_onto(g, host, mm)
    images = mm.as_dict()
    rho = {}
    for e in sorted(g.edges, key=edge_key):
        u, v = sorted(e)
        cands = sorted(
            (f for f in host.edges if _edge_connects(f, images[u], images[v])),
            key=edge_key,
        )
        if not cands:
            raise InvalidInputError("map is not a minor map; missing connecting edge")
        rho[e] = cands[0]
    emm = ExpressiveMinorMap.of(mm, rho)
    ok, why = validate_expressive_minor(g, host, emm)
    if not ok:  # pragma: no cover - rank-2 guarantee
        raise ConstructionError(f"rank-2 edge assignment failed: {why}")
    return emm


# -- pre-jigsaws ---------------------------------------------------------------


@dataclass(frozen=True)
class PreJigsawReport:
    valid: bool
    reason: str | None
    pi_injective: bool


def trivial_prejigsaw_witness(n: int, m: int) -> PreJigsawWitness:
    """Identity witness showing a jigsaw is its own pre-jigsaw."""
    return subdivided_jigsaw(n, m, 0)[1]


def validate_prejigsaw(
    h: Hypergraph, n: int, m: int, witness: PreJigsawWitness
) -> PreJigsawReport:
    """All pre-jigsaw conditions plus the vertex-coverage clause.

    Injectivity of the corner map is reported separately and does not affect
    validity on its own (a non-injective map already fails the path checks).
    """
    if (witness.rows, witness.cols) != (n, m):
        return PreJigsawReport(False, "witness dimensions disagree", True)
    named = jigsaw_named_edges(n, m)
    jedges = set(named.values())
    jverts = {v for e in jedges for v in e}
    pi = witness.corner_dict()
    injective = len(set(pi.values())) == len(pi)

    def fail(reason):
        return PreJigsawReport(False, reason, injective)

    if set(pi) != jverts:
        return fail("corner map does not cover exactly the jigsaw vertices")
    if not set(pi.values()) <= h.vertices:
        return fail("corner map leaves the host")
    groups = witness.group_dict()
    if set(groups) != jedges:
        return fail("edge groups do not cover exactly the jigsaw edges")
    claimed: set[frozenset] = set()
    for je in sorted(groups, key=edge_key):
        grp = groups[je]
        if not grp <= h.edges:
            return fail(f"group of {sorted(je)} contains non-edges")
        if grp & claimed:
            return fail(f"group of {sorted(je)} overlaps another group")
        claimed |= grp
    if claimed != set(h.edges):
        return fail("groups do not exhaust the host edges")

    paths = witness.path_dict()
    wanted = {}  # corner pair -> the jigsaw edge holding both
    pi_image = set(pi.values())
    for je in sorted(jedges, key=edge_key):
        for a, b in combinations(sorted(je), 2):
            wanted[a, b] = je
    if set(paths) != set(wanted):
        return fail("fixed paths do not cover exactly the same-edge corner pairs")
    for (a, b), p in sorted(paths.items()):
        je = wanted[a, b]
        bad = p.check(h)
        if bad:
            return fail(f"fixed path {a},{b}: {bad}")
        ends = {p.path_vertices[0], p.path_vertices[-1]}
        if ends != {pi[a], pi[b]}:
            return fail(f"fixed path {a},{b} does not join the mapped corners")
        if not set(p.path_edges) <= groups[je]:
            return fail(f"fixed path {a},{b} uses edges outside its group")
        interior = set(p.path_vertices[1:-1])
        if interior & pi_image:
            return fail(f"fixed path {a},{b} passes through a mapped corner")
    on_paths = {v for _, p in paths.items() for v in p.path_vertices}
    if not set(h.vertices) <= (pi_image | on_paths):
        return fail("some host vertex is neither a corner nor on a fixed path")
    return PreJigsawReport(True, None, injective)


def _collapse(h: Hypergraph, regions, kept: set[str]) -> list:
    """Steps that merge each edge region of h along its spine, in the given
    order, drop the empty edge this leaves, and delete every vertex of h
    outside kept.  The spines avoid kept."""
    steps = [MergeOn(w) for r in regions for w in _region_merge_spine(r, kept)]
    cur = _apply_dropping_empty_edge(h, steps)
    steps.extend(DeleteVertex(v) for v in sorted(cur.vertices - kept))
    return steps


def prejigsaw_to_jigsaw(h: Hypergraph, witness: PreJigsawWitness) -> DilutionSequence:
    """Collapse a degree-2 pre-jigsaw onto its jigsaw by merging each region."""
    if h.max_degree() > 2:
        raise InvalidInputError("hypergraph degree must be at most 2")
    n, m = witness.rows, witness.cols
    report = validate_prejigsaw(h, n, m, witness)
    if not report.valid:
        raise InvalidInputError(f"witness invalid: {report.reason}")
    if not report.pi_injective:
        raise InvalidInputError("corner map must be injective to collapse")
    groups = witness.group_dict()
    regions = [groups[je] for je in sorted(groups, key=edge_key)]
    steps = _collapse(h, regions, set(witness.corner_dict().values()))
    seq = DilutionSequence.for_source(h, steps)
    ok, _ = verify_dilution(h, seq, jigsaw(n, m))
    if not ok:
        raise ConstructionError("collapse does not reach the jigsaw")
    return seq


def prejigsaw_from_expressive_minor(
    h: Hypergraph, n: int, emm: ExpressiveMinorMap
) -> tuple[DilutionSequence, PreJigsawWitness]:
    """Dualize an expressive n x n grid minor of the dual into a pre-jigsaw.

    The corner map sends each jigsaw vertex to the host vertex whose incidence
    set is the assigned dual edge; regions dualize the branch sets.  Fixed
    paths are shortest paths inside each region avoiding other corners; the
    dilution deletes everything off those paths and drops the resulting empty
    edge.  The witness is validated on the diluted hypergraph before return.
    """
    h_red, seq0 = reduce_hypergraph(h)
    d, edge_to_name = dual_with_map(h_red)
    name_to_edge = {name: e for e, name in edge_to_name.items()}
    ok, why = validate_expressive_minor(grid(n, n), d, emm)
    if not ok:
        raise InvalidInputError(f"expressive minor invalid for the dual: {why}")

    dual_edge_to_vertex = {
        frozenset(edge_to_name[e] for e in at): w
        for w, at in h_red._incidence.items()
    }
    rho = emm.rho_dict()
    images = emm.mu.as_dict()

    grid_edges = _grid_edge_names(n, n)
    named_jedges = jigsaw_named_edges(n, n)
    pi = {jv: dual_edge_to_vertex[rho[ge]] for jv, ge in grid_edges.items()}
    groups: dict[frozenset, frozenset] = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            je = named_jedges[f"e{i}_{j}"]
            groups[je] = frozenset(name_to_edge[x] for x in images[f"x{i}_{j}"])

    pi_image = set(pi.values())
    paths: dict[tuple[str, str], Path] = {}
    for je in sorted(set(named_jedges.values()), key=edge_key):
        region = Hypergraph(h_red.vertices, groups[je])
        # pi is injective (h_red is reduced), so the two ends always differ
        for a, b in combinations(sorted(je), 2):
            forbidden = pi_image - {pi[a], pi[b]}
            p = _shortest_path(region, pi[a], pi[b], forbidden)
            if p is None:
                raise ConstructionError(f"no region path between corners {a} and {b}")
            paths[(a, b)] = p

    keep = pi_image | {v for p in paths.values() for v in p.path_vertices}
    steps: list = [DeleteVertex(v) for v in sorted(h_red.vertices - keep)]
    cur = _apply_dropping_empty_edge(h_red, steps)

    # regions that collide once restricted fail the overlap check below
    restricted_groups = {
        je: frozenset(e & cur.vertices for e in region) - {frozenset()}
        for je, region in groups.items()
    }
    restricted_paths = {
        key: Path(p.path_vertices, tuple(e & cur.vertices for e in p.path_edges))
        for key, p in paths.items()
    }
    witness = PreJigsawWitness(
        rows=n,
        cols=n,
        corners=tuple(sorted(pi.items())),
        edge_groups=tuple(
            sorted(restricted_groups.items(), key=lambda kv: edge_key(kv[0]))
        ),
        fixed_paths=tuple(sorted(restricted_paths.items())),
    )
    report = validate_prejigsaw(cur, n, n, witness)
    if not report.valid:
        raise ConstructionError(f"dualized witness invalid: {report.reason}")
    return seq0.then(steps), witness
