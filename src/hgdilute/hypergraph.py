"""Immutable hypergraphs: duals, primal graphs, paths, and isomorphism.

A hypergraph is a finite vertex set together with a *set* of edges, each edge
a subset of the vertices.  Because the edge family is a set, duplicate edges
collapse automatically; empty edges and isolated vertices are representable.
All values are frozen and all operations are pure, so everything here is safe
for unrestricted concurrent use.

The vertex-set kernel lives here, and other modules ask it instead of
building their own.  A vertex's *type*, the set of edges at it, is read off
the cached ``Hypergraph._incidence``.  Vertex sets are int masks over the
cached index form (vertex i is the i-th name in sorted order): ``_mask``
turns names into a mask, ``_bits`` a mask back into indices, ``_adjacency``
gives the primal adjacency as one neighbour mask per vertex,
``_mask_components`` the connected pieces of a mask, and ``_edge_count``
and ``_circuit_rank`` the edge count and number of independent cycles of
such an adjacency.  ``components`` and ``is_connected`` are views of those
over the index form; ``_shortest_path`` is the breadth-first search behind
``find_path``.  The plain witness records
``Path``, ``PreJigsawWitness`` and ``IsoWitness`` live here so that
generators and search code can share them without importing each other.

Isomorphism is decided through a canonical certificate computed by iterated
partition refinement with individualization backtracking (the
individualisation/refinement scheme of nauty: McKay & Piperno, *Practical
Graph Isomorphism II*, 2014).  Two things prune the tree.  Vertices of one
type can be swapped freely, so a node whose non-singleton cells each hold a
single type is a leaf, and one transposition per such vertex seeds the
automorphisms; the automorphisms that tied leaves reveal prune the rest.
Pruning only skips subtrees that are images of explored ones, so the
certificate and the labelling are those of the unpruned search.  The
certificate is also what search code uses to deduplicate states up to
isomorphism, and the automorphisms let it skip symmetric steps.

The labelling runs in index space: ``_canonical_index`` labels vertices
``0..n-1`` whose edges are a sorted tuple of int masks, the *index form* a
hypergraph gets by numbering its vertices in name order.  ``_cert_cache``
is keyed on that form, so every hypergraph equal to another up to an
order-preserving renaming shares its entry; like every process-wide memo it
is emptied when full (``_make_room``).  ``canonical_form``,
``_canonical`` and ``isomorphic`` are thin wrappers that build the index form
of a named hypergraph and carry labellings and automorphisms back to names;
search code that keeps its states as masks calls the core directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import BudgetExceededError, ConstructionError, InvalidInputError

#: default number of refinement-tree nodes explored before giving up
DEFAULT_ISO_BUDGET = 10**6


@dataclass(frozen=True)
class Hypergraph:
    vertices: frozenset[str]
    edges: frozenset[frozenset[str]]

    def __post_init__(self):
        covered = set().union(*self.edges) if self.edges else set()
        if not covered <= self.vertices:
            missing = sorted(covered - self.vertices)
            raise InvalidInputError(f"edge vertices not in vertex set: {missing}")

    @classmethod
    def make(cls, edges, vertices=()) -> "Hypergraph":
        """Build from any iterables; vertex set is the union plus extras."""
        es = frozenset(frozenset(e) for e in edges)
        vs = frozenset(vertices) | frozenset(v for e in es for v in e)
        return cls(vs, es)

    # -- local structure ---------------------------------------------------

    def incidence(self, v: str) -> frozenset[frozenset[str]]:
        """All edges containing v (the *vertex type* of v)."""
        if v not in self.vertices:
            raise InvalidInputError(f"unknown vertex {v!r}")
        return self._incidence[v]

    def degree(self, v: str) -> int:
        return len(self.incidence(v))

    def max_degree(self) -> int:
        return max(map(len, self._incidence.values()), default=0)

    def rank(self) -> int:
        return max((len(e) for e in self.edges), default=0)

    def is_reduced(self) -> bool:
        """No degree-0 vertex, no empty edge, no two vertices of equal type."""
        if frozenset() in self.edges:
            return False
        types = self._incidence.values()
        return all(types) and len(set(types)) == len(types)

    @cached_property
    def _incidence(self) -> dict[str, frozenset[frozenset[str]]]:
        """Every vertex mapped to its type, the edges containing it."""
        inc: dict[str, list] = {v: [] for v in self.vertices}
        for e in self.edges:
            for v in e:
                inc[v].append(e)
        return {v: frozenset(at) for v, at in inc.items()}

    @cached_property
    def _index_form(self) -> tuple[tuple[str, ...], tuple]:
        """Sorted vertex names and the index form ``(n, masks)``.

        Vertex ``names[i]`` is bit i, and ``masks`` is the sorted tuple of
        edge masks.  Hypergraphs that match up to an order-preserving
        renaming of their vertices have the same index form, the key of the
        certificate cache; it is computed once per object.
        """
        names = sorted(self.vertices)
        bit = {v: 1 << i for i, v in enumerate(names)}.__getitem__
        masks = sorted([sum(map(bit, e)) for e in self.edges])
        return tuple(names), (len(names), tuple(masks))


def edge_key(e) -> tuple:
    """Deterministic sort key for edges: by size, then by sorted contents."""
    return (len(e), tuple(sorted(e)))


# -- dual ------------------------------------------------------------------


def _dual_names(h: Hypergraph) -> dict[frozenset, str]:
    """Each edge's name as a vertex of the dual: its contents, so an edge
    has one name in every call and every hypergraph that has it."""
    names = {e: "{" + ",".join(sorted(e)) + "}" for e in sorted(h.edges, key=edge_key)}
    if len(set(names.values())) != len(names):
        raise InvalidInputError("vertex names make dual edge names ambiguous")
    return names


def dual_with_map(h: Hypergraph) -> tuple[Hypergraph, dict[frozenset, str]]:
    """Dual hypergraph plus ``_dual_names``: dual vertices are H's edges;
    dual edges are the incidence sets of H's vertices (deduplicated)."""
    names = _dual_names(h)
    dual_edges = frozenset(
        frozenset(names[e] for e in at) for at in h._incidence.values()
    )
    return Hypergraph(frozenset(names.values()), dual_edges), names


def dual(h: Hypergraph) -> Hypergraph:
    return dual_with_map(h)[0]


def primal_graph(h: Hypergraph) -> Hypergraph:
    """2-uniform co-occurrence graph on the same vertex set (no loops)."""
    pairs = set()
    for e in h.edges:
        pairs.update(frozenset(p) for p in itertools.combinations(sorted(e), 2))
    return Hypergraph(h.vertices, frozenset(pairs))


# -- paths and connectivity -------------------------------------------------


@dataclass(frozen=True)
class Path:
    """Alternating vertex/edge sequence; no vertex or edge repeats."""

    path_vertices: tuple[str, ...]
    path_edges: tuple[frozenset[str], ...]

    def check(self, h: Hypergraph) -> str | None:
        """Return None if valid in h, else the first violated condition."""
        vs, es = self.path_vertices, self.path_edges
        if len(vs) != len(es) + 1 or not vs:
            return "length mismatch between vertices and edges"
        if any(v not in h.vertices for v in vs):
            return "path vertex not in hypergraph"
        if any(e not in h.edges for e in es):
            return "path edge not in hypergraph"
        for i, e in enumerate(es):
            if not {vs[i], vs[i + 1]} <= e:
                return f"edge {i} does not contain both endpoints"
        if len(set(vs)) != len(vs):
            return "repeated vertex"
        if len(set(es)) != len(es):
            return "repeated edge"
        return None


@dataclass(frozen=True)
class PreJigsawWitness:
    """Corner embedding of an (n, m) jigsaw with edge regions and fixed paths.

    ``corners`` maps each jigsaw vertex to a host vertex; ``edge_groups`` maps
    each jigsaw edge (a frozenset of jigsaw vertices) to a disjoint set of
    host edges; ``fixed_paths`` realizes every pair of corners sharing a
    jigsaw edge by a path inside that edge's region.
    """

    rows: int
    cols: int
    corners: tuple[tuple[str, str], ...]
    edge_groups: tuple[tuple[frozenset[str], frozenset[frozenset[str]]], ...]
    fixed_paths: tuple[tuple[tuple[str, str], Path], ...]

    def corner_dict(self) -> dict[str, str]:
        return dict(self.corners)

    def group_dict(self) -> dict[frozenset, frozenset]:
        return dict(self.edge_groups)

    def path_dict(self) -> dict[tuple[str, str], Path]:
        return dict(self.fixed_paths)


def find_path(h: Hypergraph, u: str, v: str) -> Path | None:
    """Shortest alternating path from u to v, or None when none exists."""
    if u == v:
        raise InvalidInputError("path endpoints must be distinct")
    if u not in h.vertices or v not in h.vertices:
        raise InvalidInputError("path endpoints must be vertices")
    return _shortest_path(h, u, v, frozenset())


def _shortest_path(h: Hypergraph, u: str, v: str, avoid) -> Path | None:
    """Breadth-first path from u to v whose vertices stay out of ``avoid``.

    Frontier vertices are expanded in name order and their edges in
    ``edge_key`` order, so each vertex's predecessor edge is deterministic.
    """
    prev: dict[str, tuple[str, frozenset]] = {}
    seen = {u}
    frontier = [u]
    adj: dict[str, list[tuple[str, frozenset]]] = {w: [] for w in h.vertices}
    for e in sorted(h.edges, key=edge_key):
        for a in e:
            for b in e:
                if a != b and b not in avoid:
                    adj[a].append((b, e))
    while frontier:
        nxt = []
        for a in sorted(frontier):
            for b, e in adj[a]:
                if b not in seen:
                    seen.add(b)
                    prev[b] = (a, e)
                    nxt.append(b)
        if v in seen:
            break
        frontier = nxt
    if v not in seen:
        return None
    verts, edges = [v], []
    while verts[-1] != u:
        a, e = prev[verts[-1]]
        edges.append(e)
        verts.append(a)
    return Path(tuple(reversed(verts)), tuple(reversed(edges)))


# -- vertex sets as masks --------------------------------------------------


def _bits(m: int) -> list[int]:
    """The indices of the set bits of m, ascending."""
    return [i for i in range(m.bit_length()) if m >> i & 1]


def _mask(index: dict[str, int], vertices) -> int:
    """The mask of a vertex set, vertex v being bit ``index[v]``."""
    m = 0
    for v in vertices:
        m |= 1 << index[v]
    return m


def _adjacency(n: int, masks) -> list[int]:
    """Primal adjacency of the vertices 0..n-1 with edge masks ``masks``:
    bit j of entry i is set when i != j share an edge."""
    adj = [0] * n
    for m in masks:
        rest = m
        while rest:
            b = rest & -rest
            rest ^= b
            adj[b.bit_length() - 1] |= m
    return [a & ~(1 << i) for i, a in enumerate(adj)]


def _mask_components(adj: list[int], within: int) -> list[int]:
    """Connected pieces of the vertices in mask ``within``, as masks, ordered
    by their lowest vertex; ``adj`` holds one neighbour mask per vertex."""
    pieces = []
    while within:
        piece = front = within & -within
        while front:
            b = front & -front
            front ^= b
            new = adj[b.bit_length() - 1] & within & ~piece
            piece |= new
            front |= new
        pieces.append(piece)
        within &= ~piece
    return pieces


def _edge_count(adj: list[int]) -> int:
    """The number of edges of the graph with neighbour masks ``adj``."""
    return sum(map(int.bit_count, adj)) >> 1


def _circuit_rank(adj: list[int]) -> int:
    """Edges - vertices + components: the number of independent cycles."""
    pieces = _mask_components(adj, (1 << len(adj)) - 1)
    return _edge_count(adj) - len(adj) + len(pieces)


def components(h: Hypergraph) -> list[frozenset[str]]:
    """Connected vertex classes, ordered by their smallest vertex."""
    names, (n, masks) = h._index_form
    pieces = _mask_components(_adjacency(n, masks), (1 << n) - 1)
    return [frozenset([names[i] for i in _bits(p)]) for p in pieces]


def is_connected(h: Hypergraph) -> bool:
    """At most one component; hypergraphs with at most one vertex count."""
    return len(components(h)) <= 1


# -- isomorphism -------------------------------------------------------------


@dataclass(frozen=True)
class IsoWitness:
    """Vertex bijection inducing an edge bijection between two hypergraphs."""

    mapping: tuple[tuple[str, str], ...]

    def as_dict(self) -> dict[str, str]:
        return dict(self.mapping)

    def check(self, h1: Hypergraph, h2: Hypergraph) -> bool:
        m = self.as_dict()
        if set(m) != set(h1.vertices) or set(m.values()) != set(h2.vertices):
            return False
        if len(set(m.values())) != len(m):
            return False
        return frozenset(frozenset(m[v] for v in e) for e in h1.edges) == h2.edges


#: canonical labellings of index forms: ``(n, masks)`` -> ``_canonical_index``,
#: emptied before an insert when full
_cert_cache: dict[tuple, tuple] = {}
_CERT_CACHE_MAX = 1 << 18


def _make_room(memo: dict) -> None:
    """The cap rule of the process-wide memos, this module's ``_cert_cache``
    and ``dilution._reach_memo``: a memo holding ``_CERT_CACHE_MAX`` entries
    is full, and a full memo is emptied, so it keeps serving recent work
    instead of freezing on old entries."""
    if len(memo) >= _CERT_CACHE_MAX:
        memo.clear()


def canonical_form(h: Hypergraph, budget: int = DEFAULT_ISO_BUDGET):
    """Hashable canonical certificate of h, equal iff hypergraphs isomorphic."""
    return _canonical_index(h._index_form[1], budget)[0]


def _canonical(h: Hypergraph, budget: int):
    """``(certificate, labelling, generators)`` of h in its vertex names.

    The labelling maps each vertex to its canonical position; the generators
    are automorphisms of h (vertex-to-vertex dicts) found on the way.  Both
    are ``_canonical_index``'s, carried through h's sorted vertex names.
    """
    names, key = h._index_form
    cert, lab, gens = _canonical_index(key, budget)
    labeling = dict(zip(names, lab))
    generators = tuple({names[a]: names[b] for a, b in enumerate(g)} for g in gens)
    return cert, labeling, generators


def _canonical_index(key: tuple, budget: int):
    """``(certificate, labelling, generators)`` of the index form ``key``.

    ``key`` is ``(n, masks)`` as ``Hypergraph._index_form`` builds it, and
    the result is cached under it.  ``labelling[i]`` is vertex i's canonical
    position, and each generator is an automorphism as a tuple sending i to
    ``g[i]``.  The search tree individualises one vertex of the first
    non-singleton cell per level and refines; the certificate is the
    smallest edge set over the leaves, the labelling that of the first leaf
    reaching it.

    Vertices of one type (the same set of edges) can be swapped freely.  So
    the generators start with one transposition per vertex, joining it to
    the first vertex of its type, and a node whose non-singleton cells each
    hold vertices of a single type is finished as a leaf, with each cell's
    vertices in ascending order.  This type cut changes neither the
    certificate nor the labelling.  Any permutation inside such cells is an
    automorphism, and individualising one of their vertices splits off only
    that vertex, so every leaf below the node has the same edge set, and
    the first of them the full tree reaches, individualising each cell in
    ascending order, is the ascending one.  The seeded transpositions stand
    for the ties the cut subtree would have produced.

    A leaf whose edge set ties the best or the first leaf yields an
    automorphism.  Since refinement only ever splits cells in place, it maps
    the other leaf's path onto this one's position by position: it fixes
    their common prefix and sends the other branch below that node onto this
    one, so the rest of this branch is abandoned.  Likewise a child in the
    orbit of an explored sibling, under the automorphisms found so far that
    fix the node's individualised vertices, is skipped.  Each pruned subtree
    is the image of an earlier explored one, so neither the minimum nor the
    first leaf reaching it can lie there: pruning changes no output, only the
    number of refinement nodes counted against ``budget``.
    """
    cached = _cert_cache.get(key)
    if cached is not None:
        return cached
    n, masks = key
    edges = [_bits(m) for m in masks]
    if n == 0:
        result = ((0, tuple(tuple(e) for e in edges)), (), ())
        _make_room(_cert_cache)
        _cert_cache[key] = result
        return result
    inc: list[list[int]] = [[] for _ in range(n)]  # the edges at each vertex
    sizes: list[list[int]] = [[] for _ in range(n)]  # and their sizes
    for ei, e in enumerate(edges):
        for v in e:
            inc[v].append(ei)
            sizes[v].append(len(e))
    firsts: dict[tuple, int] = {}  # the first vertex of each type
    kind = [firsts.setdefault(tuple(at), v) for v, at in enumerate(inc)]
    twins = len(firsts) < n  # whether some vertices share a type

    def refine(cells):
        """Split cells by their vertices' edge signatures until no cell
        splits; each cell keeps its vertices in ascending order."""
        while len(cells) < n:
            color = [0] * n  # the start position of the vertex's cell
            start = single = 0  # single: the vertices of singleton cells
            for cell in cells:
                if len(cell) == 1:
                    color[cell[0]] = start
                    single |= 1 << cell[0]
                    start += 1
                else:
                    for v in cell:
                        color[v] = start
                    start += len(cell)
            get = color.__getitem__
            esig = [  # only the edges at a vertex of a non-singleton cell
                (len(e), tuple(sorted(map(get, e)))) if m & ~single else None
                for m, e in zip(masks, edges)
            ]
            sig_of = esig.__getitem__
            out, changed = [], False
            for cell in cells:
                if len(cell) == 1:
                    out.append(cell)
                    continue
                groups: dict[tuple, list[int]] = {}
                for v in cell:
                    sig = tuple(sorted(map(sig_of, inc[v])))
                    groups.setdefault(sig, []).append(v)
                if len(groups) == 1:
                    out.append(cell)
                else:
                    changed = True
                    out += [groups[sig] for sig in sorted(groups)]
            cells = out
            if not changed:
                break
        return cells

    best = first = None  # (certificate, labelling, path) of those leaves
    gens: list[list[int]] = []
    for v, t in enumerate(kind):
        if t != v:
            g = list(range(n))
            g[v], g[t] = t, v
            gens.append(g)
    nodes = 0

    def descend(cells, fixed):
        """Search below the node that individualised ``fixed``.

        Returns None, or the depth of a node above whose current child has
        turned out to be the image of an explored sibling.
        """
        nonlocal nodes, best, first
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                f"isomorphism search exceeded {budget} refinement nodes"
            )
        cells = refine(cells)
        wide = [c for c in cells if len(c) > 1]
        if not wide or twins and all(len({kind[v] for v in c}) == 1 for c in wide):
            # cells hold their vertices in ascending order, so this leaf is
            # the first the full tree reaches below the node
            lab = [0] * n
            for pos, v in enumerate(itertools.chain.from_iterable(cells)):
                lab[v] = pos
            cert = tuple(sorted([tuple(sorted([lab[v] for v in e])) for e in edges]))
            if first is None:
                best = first = (cert, lab, fixed)
                return None
            if cert < best[0]:
                best = (cert, lab, fixed)
                return None
            for other, other_lab, path in (best, first):
                if cert == other:
                    # the tie matches the two leaves position by position,
                    # so it fixes their common prefix and maps this branch
                    # below it onto the other leaf's, explored earlier
                    at = [0] * n
                    for v, pos in enumerate(other_lab):
                        at[pos] = v
                    gens.append([at[pos] for pos in lab])
                    depth = 0
                    while path[depth] == fixed[depth]:
                        depth += 1
                    return depth
            return None
        cell = wide[0]
        split_at = cells.index(cell)
        orbit = None  # union-find over the orbits of the prefix stabiliser
        used = 0  # generators looked at so far
        explored: list[int] = []
        for v in cell:
            if explored:
                for g in gens[used:]:
                    if all(g[w] == w for w in fixed):
                        if orbit is None:
                            orbit = list(range(n))
                        for a, b in enumerate(g):
                            if a != b:
                                ra, rb = _find(orbit, a), _find(orbit, b)
                                if ra != rb:
                                    orbit[max(ra, rb)] = min(ra, rb)
                used = len(gens)
                if orbit is not None:
                    root = _find(orbit, v)
                    if any(_find(orbit, u) == root for u in explored):
                        continue
            explored.append(v)
            back = descend(
                cells[:split_at]
                + [[v], [w for w in cell if w != v]]
                + cells[split_at + 1 :],
                fixed + [v],
            )
            if back is not None and back < len(fixed):
                return back
        return None

    # the root's first refinement pass colours every vertex alike, so it
    # splits by the sorted sizes of each vertex's edges: take that split here
    profiles: dict[tuple, list[int]] = {}
    for v, at in enumerate(sizes):
        profiles.setdefault(tuple(sorted(at)), []).append(v)
    descend([profiles[p] for p in sorted(profiles)], [])
    result = ((n, best[0]), tuple(best[1]), tuple(tuple(g) for g in gens))
    _make_room(_cert_cache)
    _cert_cache[key] = result
    return result


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _iso_invariant(h: Hypergraph) -> tuple:
    return (
        len(h.vertices),
        len(h.edges),
        tuple(sorted(len(e) for e in h.edges)),
        tuple(sorted(map(len, h._incidence.values()))),
    )


def isomorphic(
    h1: Hypergraph, h2: Hypergraph, budget: int = DEFAULT_ISO_BUDGET
) -> IsoWitness | None:
    """Witness bijection when isomorphic, None otherwise.

    Absence is definitive; running out of budget raises instead.
    """
    if _iso_invariant(h1) != _iso_invariant(h2):
        return None
    names1, key1 = h1._index_form
    names2, key2 = h2._index_form
    cert1, lab1, _ = _canonical_index(key1, budget)
    cert2, lab2, _ = _canonical_index(key2, budget)
    if cert1 != cert2:
        return None
    by_label = dict(zip(lab2, names2))
    mapping = tuple(zip(names1, [by_label[pos] for pos in lab1]))
    witness = IsoWitness(mapping)
    if not witness.check(h1, h2):  # pragma: no cover - canonical labeling bug
        raise ConstructionError("canonical labelings disagree with certificate")
    return witness
