"""Dilution steps, sequences, reduction, bounded-exhaustive search, labels.

The three step kinds: deleting a vertex (from the vertex set and every edge),
deleting an edge that is a proper subset of another edge, and merging on a
vertex v (all edges at v are replaced by their union minus v).  Merging also
drops v from the vertex set; it can no longer occur in any edge and keeping it
would only leave an isolated vertex behind.

Every step strictly shrinks the vertex or the edge count and never grows
either, which bounds sequence length and lets the exhaustive search prune by
size.  No step raises a vertex's degree, or the edge count or circuit rank
of the dual 2-section (``_invariants``), so ``search_dilution`` also drops
every child that falls short of the target in one of them.  A step removes
at most one vertex, so the search runs in vertex-count contours, the bound
of iterative-deepening A*, and labels only children that can still lie on a
shortest path to the target.  In the first contour every step removes a
vertex, so each class lies at one depth there, and a depth-first pass
meets each class from the same parent as a breadth-first one.  That
contour runs depth-first: it reaches the target's level without first
exhausting every level above it and returns the same sequence, so least
budgets can only fall; it labels a child only when it takes it.  Search
states are deduplicated by canonical form, so a ``None`` result means
proven absence, while running out of budget raises.  Of the steps that a
state's automorphisms (found by the canonical labelling) map onto one
another, only the first is expanded: the others lead to isomorphic
children, which the unpruned search would have found already seen, so the
visited states, the budget used and the returned sequences are unchanged.

The search runs on int masks, not on named hypergraphs: a state is a
frozenset of edge masks over its vertices in name order, each step a few bit
operations, and each child is born in the index form the labelling core
(``hypergraph._canonical_index``) takes.  Both sweeps, ``search_dilution``
and ``reachable_dilutions`` (with no target), run on two kernels:
``_children`` is the one place a sweep steps and drops a child below the
target's size or beyond the search's contour, and ``_label`` the one place
it drops a child failing the target's cuts and labels the rest, through
the certificate cache, the one table of labellings.  Search states carry
no vertex names: named ``Step`` values are built only along the sequence
returned, replayed from the source's names.

``_step`` is the one place that gives step semantics on named hypergraphs:
it returns the child and the edge image, which says which child edge each
edge becomes.  ``delete_vertex``, ``delete_subedge``, ``merge_on`` and
``apply_step`` are views of it, ``_walk`` applies whole sequences, and edge
labels here, the CQ reduction and the merge transform read its images.  The
mask steps of the search are tested against it.

What is reachable depends only on the isomorphism class, so
``reachable_dilutions`` sweeps classes and keeps a process-wide memo,
``_reach_memo``, from a certificate to the class's node (``_ClassNode``).
A node holds the index form its class was first labelled with and, once
the class has been expanded, the nodes of its children, so a sweep that
meets a class another sweep expanded walks node to node and hashes no
certificate on the way (hash-consing: Filliatre and Conchon, *Type-Safe
Modular Hash-Consing*, ML Workshop 2006).  The memo follows the cap rule of
the certificate cache (``hypergraph._make_room``): a sweep that starts with
it full empties it first, so every node a sweep meets is in the memo.  The
budget still counts the states the sweep takes from its queue, so answers
and least budgets do not depend on what the memo holds.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .errors import BudgetExceededError, InvalidStepError
from .hypergraph import (
    DEFAULT_ISO_BUDGET,
    Hypergraph,
    IsoWitness,
    _adjacency,
    _bits,
    _canonical_index,
    _circuit_rank,
    _edge_count,
    _make_room,
    canonical_form,
    edge_key,
    isomorphic,
)

DEFAULT_SEARCH_BUDGET = 10**5


class _ClassNode:
    """An isomorphism class that ``reachable_dilutions`` has met: its
    certificate, the index form ``(n, edge masks, generators)`` it was
    first labelled with, and the nodes of all its children once it has
    been expanded, None before."""

    __slots__ = ("cert", "form", "children")

    def __init__(self, cert: tuple, form: tuple):
        self.cert = cert
        self.form = form
        self.children: tuple[_ClassNode, ...] | None = None


#: the node of each class ``reachable_dilutions`` has met: certificate ->
#: node.  Children of a node here are all here too.
_reach_memo: dict[tuple, _ClassNode] = {}


@dataclass(frozen=True)
class DeleteVertex:
    vertex: str


@dataclass(frozen=True)
class DeleteSubedge:
    edge: frozenset[str]


@dataclass(frozen=True)
class MergeOn:
    vertex: str


Step = DeleteVertex | DeleteSubedge | MergeOn


@dataclass(frozen=True)
class DilutionSequence:
    """Ordered dilution steps, optionally pinned to a source size fingerprint."""

    steps: tuple[Step, ...] = ()
    source_vertices: int | None = None
    source_edges: int | None = None

    def __len__(self):
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    @classmethod
    def for_source(cls, h: Hypergraph, steps) -> "DilutionSequence":
        return cls(tuple(steps), len(h.vertices), len(h.edges))

    def then(self, more) -> "DilutionSequence":
        return DilutionSequence(
            self.steps + tuple(more), self.source_vertices, self.source_edges
        )


# -- single steps ------------------------------------------------------------


def _step(h: Hypergraph, step: Step) -> tuple[Hypergraph, dict[frozenset, frozenset]]:
    """The child of h under step, and its edge image: each edge of h mapped
    to the child edge it becomes.

    Deleting v sends e to e - {v}; deleting subedge f sends f to its first
    proper superedge in ``edge_key`` order; merging on v sends every edge at
    v to their union minus v; every other edge maps to itself.  The child's
    edges are exactly the image's values.
    """
    if isinstance(step, DeleteVertex):
        v = step.vertex
        if v not in h.vertices:
            raise InvalidStepError(f"cannot delete unknown vertex {v!r}")
        image = {e: e - {v} for e in h.edges}
        return Hypergraph(h.vertices - {v}, frozenset(image.values())), image
    if isinstance(step, DeleteSubedge):
        f = frozenset(step.edge)
        if f not in h.edges:
            raise InvalidStepError(f"edge {sorted(f)} not present")
        supers = [e for e in h.edges if f < e]
        if not supers:
            raise InvalidStepError(f"edge {sorted(f)} is not a proper subset of another edge")
        image = {e: e for e in h.edges}
        image[f] = min(supers, key=edge_key)
        return Hypergraph(h.vertices, h.edges - {f}), image
    if isinstance(step, MergeOn):
        v = step.vertex
        if v not in h.vertices:
            raise InvalidStepError(f"cannot merge on unknown vertex {v!r}")
        incident = h._incidence[v]
        if not incident:
            raise InvalidStepError(f"vertex {v!r} has degree 0, nothing to merge")
        merged = frozenset().union(*incident) - {v}
        image = {e: merged if v in e else e for e in h.edges}
        return Hypergraph(h.vertices - {v}, (h.edges - incident) | {merged}), image
    raise InvalidStepError(f"unknown step {step!r}")


def delete_vertex(h: Hypergraph, v: str) -> Hypergraph:
    return _step(h, DeleteVertex(v))[0]


def delete_subedge(h: Hypergraph, e) -> Hypergraph:
    return _step(h, DeleteSubedge(frozenset(e)))[0]


def merge_on(h: Hypergraph, v: str) -> Hypergraph:
    return _step(h, MergeOn(v))[0]


def apply_step(h: Hypergraph, step: Step) -> Hypergraph:
    return _step(h, step)[0]


def valid_steps(h: Hypergraph) -> list[Step]:
    """All steps applicable to h, in a fixed deterministic order."""
    steps: list[Step] = [DeleteVertex(v) for v in sorted(h.vertices)]
    for e in sorted(h.edges, key=edge_key):
        if any(e < f for f in h.edges):
            steps.append(DeleteSubedge(e))
    steps += [MergeOn(v) for v in sorted(h.vertices) if h._incidence[v]]
    return steps


# -- sequences ---------------------------------------------------------------


def _walk(h: Hypergraph, seq: DilutionSequence) -> tuple[list[Hypergraph], list[dict]]:
    """Every state of seq from h, source first, and the edge image of each
    step; a failing step's error carries its index."""
    if seq.source_vertices is not None and seq.source_vertices != len(h.vertices):
        raise InvalidStepError(
            f"sequence fingerprint expects {seq.source_vertices} vertices, "
            f"source has {len(h.vertices)}"
        )
    if seq.source_edges is not None and seq.source_edges != len(h.edges):
        raise InvalidStepError(
            f"sequence fingerprint expects {seq.source_edges} edges, "
            f"source has {len(h.edges)}"
        )
    states, images = [h], []
    for i, step in enumerate(seq):
        try:
            child, image = _step(states[-1], step)
        except InvalidStepError as err:
            raise InvalidStepError(str(err), index=i) from None
        states.append(child)
        images.append(image)
    return states, images


def apply_sequence(h: Hypergraph, seq: DilutionSequence) -> Hypergraph:
    return apply_sequence_states(h, seq)[-1]


def apply_sequence_states(h: Hypergraph, seq: DilutionSequence) -> list[Hypergraph]:
    """All intermediate hypergraphs, source first, result last."""
    return _walk(h, seq)[0]


def verify_dilution(
    h_src: Hypergraph, seq: DilutionSequence, h_target: Hypergraph
) -> tuple[bool, IsoWitness | None]:
    """Whether applying seq to the source lands on the target up to isomorphism."""
    result = apply_sequence(h_src, seq)
    witness = isomorphic(result, h_target)
    return (witness is not None), witness


# -- reduction ---------------------------------------------------------------


def reduce_hypergraph(h: Hypergraph) -> tuple[Hypergraph, DilutionSequence]:
    """Reduced form of h together with a dilution sequence reaching it.

    Reduced means: no degree-0 vertices, no empty edge, and no two vertices
    sharing a vertex type (the smallest-named vertex of each type class is
    kept).  The lone unremovable case is a hypergraph whose only edge is the
    empty edge: the empty edge is then no proper subset of anything, so it is
    kept and the result retains it.
    """
    steps: list[Step] = []
    by_type: dict[frozenset, list[str]] = {}
    for v in sorted(h.vertices):
        by_type.setdefault(h._incidence[v], []).append(v)
    for vtype, group in sorted(by_type.items(), key=lambda kv: kv[1][0]):
        if vtype:
            steps.extend(DeleteVertex(v) for v in group[1:])
    # deleting a vertex that shares its type with a kept one collapses no
    # edges, so the isolated vertices left are exactly those of h
    steps.extend(DeleteVertex(v) for v in by_type.get(frozenset(), ()))
    cur = _apply_dropping_empty_edge(h, steps)
    return cur, DilutionSequence.for_source(h, steps)


def _apply_dropping_empty_edge(h: Hypergraph, steps: list) -> Hypergraph:
    """Apply steps to h, then delete the empty edge they leave, if any, and
    append that deletion to ``steps``.  An empty edge that is the only edge
    left is no subedge and stays."""
    cur = apply_sequence(h, DilutionSequence(tuple(steps)))
    if frozenset() in cur.edges and len(cur.edges) > 1:
        steps.append(DeleteSubedge(frozenset()))
        cur = delete_subedge(cur, frozenset())
    return cur


# -- exhaustive decision -----------------------------------------------------


def _edge_order(m: int) -> tuple:
    """``edge_key`` of an edge mask, vertex i standing for the i-th name."""
    return m.bit_count(), _bits(m)


def _index_steps(n: int, edges, gens) -> list[tuple[type, int]]:
    """The steps the search expands from vertices ``0..n-1`` with edge masks
    ``edges``: ``(kind, vertex or edge mask)`` pairs, each kind a step class.

    They are ``valid_steps`` of the named state in its order (vertex order
    is name order, and ``_edge_order`` is ``edge_key``), keeping only the
    first step of each orbit of ``gens`` and no merge on a vertex of degree
    1.  An automorphism g maps the child of a step onto the child of the
    step's image (vertex steps move by vertex, subedge deletions by edge
    image), so the children of one orbit are isomorphic and a search that
    deduplicates by certificate needs only the first of them.  Merging on a
    vertex that lies in one edge yields the same hypergraph as deleting it,
    and every vertex deletion comes earlier, so that child is always seen.
    """
    once = twice = 0  # vertices in at least one, and at least two edges
    for e in edges:
        twice |= once & e
        once |= e
    deletable = sorted(
        (e for e in edges if any(e & f == e != f for f in edges)), key=_edge_order
    )
    steps = [(DeleteVertex, v) for v in range(n)]
    steps += [(DeleteSubedge, e) for e in deletable]
    steps += [(MergeOn, v) for v in range(n) if twice >> v & 1]
    if not gens:
        return steps
    first = [-1] * n  # vertex -> first vertex of its orbit
    for v in range(n):
        if first[v] >= 0:
            continue
        first[v] = v
        stack = [v]
        while stack:
            y = stack.pop()
            for g in gens:
                if first[g[y]] < 0:
                    first[g[y]] = v
                    stack.append(g[y])
    orbit: dict[int, int] = {}  # edge mask -> first deletable edge of its orbit
    for e in deletable:
        if e in orbit:
            continue
        orbit[e] = e
        stack = [e]
        while stack:
            y = _bits(stack.pop())
            for g in gens:
                z = sum([1 << g[i] for i in y])
                if z not in orbit:
                    orbit[z] = e
                    stack.append(z)
    kept, met = [], set()
    for kind, x in steps:
        key = (kind, orbit[x] if kind is DeleteSubedge else first[x])
        if key not in met:
            met.add(key)
            kept.append((kind, x))
    return kept


def _named_step(kind: type, x: int, names) -> Step:
    """The step of ``_index_steps``' pair ``(kind, x)`` on the vertices
    ``names``: x names a vertex, or the edge mask of a subedge deletion."""
    if kind is DeleteSubedge:
        return DeleteSubedge(frozenset([names[i] for i in _bits(x)]))
    return kind(names[x])


def _invariants(n: int, masks) -> tuple[list[int], int, int]:
    """What no step raises, for the vertices ``0..n-1`` with edge masks
    ``masks``: the degree sequence, largest first, and the edge count and
    circuit rank of the dual 2-section, ``primal_graph(dual(.))``, whose
    vertices are the edges, adjacent when they meet.

    A step only removes incidences, and a merge on v leaves each vertex in
    one of the edges it replaces, so no vertex's degree rises: the target's
    sorted degrees are bounded entry by entry by those of any state that
    reaches it.  On the dual 2-section a step is a minor operation: deleting
    subedge f deletes the vertex f, deleting a vertex deletes adjacencies
    and contracts edges it makes equal, and a merge contracts the edges at
    the merged vertex.  Edge count and circuit rank are minor-monotone.
    """
    at = [0] * n  # vertex -> mask of the edges at it
    for i, e in enumerate(masks):
        while e:
            b = e & -e
            e ^= b
            at[b.bit_length() - 1] |= 1 << i
    section = _adjacency(len(masks), at)
    degrees = sorted(map(int.bit_count, at), reverse=True)
    return degrees, _edge_count(section), _circuit_rank(section)


def _may_reach(n: int, masks, goal: tuple[list[int], int, int]) -> bool:
    """Whether the state passes the cuts of a target with ``_invariants``
    ``goal``: its degrees dominate the target's entry by entry, and its
    dual 2-section has at least the target's edges and circuit rank."""
    degrees, edges, rank = _invariants(n, masks)
    return (
        edges >= goal[1]
        and rank >= goal[2]
        and all([d >= t for d, t in zip(degrees, goal[0])])
    )


def _children(form: tuple, target: tuple | None = None, cap: int | None = None):
    """The children of a sweep state ``form`` = ``(n, edges, gens)``, on
    vertices ``0..n-1`` with edge masks ``edges``, along the steps of
    ``_index_steps`` in its order: yields ``(kind, x, child n, child
    edges)``, unlabelled.

    With a ``target``, its vertex and edge count and ``_invariants``, a
    child with fewer vertices or edges is dropped; one with more than
    ``cap`` vertices is yielded with edges None, so that the caller sees
    its bound cut something.  Deleting or merging on vertex x squeezes bit
    x out of every mask, so each child is already in its own
    order-preserving index form.
    """
    n, edges, gens = form
    for kind, x in _index_steps(n, edges, gens):
        if kind is DeleteSubedge:
            child_n, child = n, edges - {x}
        else:
            rest = edges
            if kind is MergeOn:
                bit, merged, rest = 1 << x, 0, []
                for e in edges:
                    if e & bit:
                        merged |= e
                    else:
                        rest.append(e)
                rest.append(merged)
            low, high = (1 << x) - 1, -1 << x
            child_n = n - 1
            child = frozenset([e & low | e >> 1 & high for e in rest])
        if target is not None:
            if child_n < target[0] or len(child) < target[1]:
                continue
            if cap is not None and child_n > cap:
                yield kind, x, child_n, None
                continue
        yield kind, x, child_n, child


def _label(n: int, edges: frozenset, target: tuple | None = None):
    """The certificate and generators of the index form ``(n, edges)``, or
    None when it fails the ``_may_reach`` cut of a ``target``.  The
    labelling comes from ``_canonical_index``, whose cache holds every form
    labelled before, so a sweep keeps no table of its own."""
    if target is not None and not _may_reach(n, edges, target[2]):
        return None
    cert, _, gens = _canonical_index((n, tuple(sorted(edges))), DEFAULT_ISO_BUDGET)
    return cert, gens


def search_dilution(
    h_src: Hypergraph,
    h_target: Hypergraph,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> DilutionSequence | None:
    """Shortest dilution sequence from source to target, searched in
    vertex-count contours.

    States are deduplicated by canonical form, and of the steps that a
    state's automorphisms map onto one another only the first is expanded.
    A child is never labelled when it has fewer vertices or edges than the
    target, or when it fails the target's ``_invariants`` (``_may_reach``):
    no state below it reaches the target.  A source that fails them gives
    None before any state is expanded.

    The search runs in contours (the bound of iterative-deepening A*: Korf,
    *Depth-first iterative-deepening*, AI 1985).  A state at depth d with n
    vertices has f = d + n - (target vertices); contour F admits only
    states with f <= F, starting at F = f(source) and rising by one.  Each
    contour is a fresh pass in the same step order; a child beyond the
    contour is not labelled, and a child on its last level, at depth F, is
    tested against the target but not expanded.  All contours share the
    certificate cache.  A step removes at most one vertex, so f never falls
    along a path: every state on a shortest path to a state of the contour
    lies in it, and a breadth-first contour replays the plain breadth-first
    search restricted to its own states, in the same order and with the
    same discovery parents.

    The first contour alone runs depth-first: it takes the entry queued
    last and queues a state's children in reverse step order.  Each step
    it admits removes one vertex, so each class in it lies at exactly one
    depth, the source's vertices minus its own, and is met only from the
    level above.  Pre-order then meets each level in breadth-first order,
    the lexicographic order of discovery paths, so every class is first
    met from the same parent by the same step as breadth-first, and so is
    the target.  The first contour that meets the target thus returns the
    plain search's sequence.  When a contour cuts nothing it was the whole
    pruned search, and None is proven.

    That contour labels a child only when it takes it, so siblings left
    when the target turns up are never labelled.  An earlier sibling's
    subtree has fewer vertices than the child, so it never holds the
    child's class, and nothing else changes.

    The budget counts distinct states expanded, summed over all contours;
    hitting it raises.  The first contour expands a subset of the states
    the breadth-first one would, and all of them when it does not meet the
    target, so depth-first order can only lower the least budget that
    succeeds, and only when the first contour finds the target.  Deciding
    this question is NP-hard in general, so the budget is the contract.
    """
    target_cert = canonical_form(h_target)
    src_names, (n, masks) = h_src._index_form
    src_cert, _, src_gens = _canonical_index((n, masks), DEFAULT_ISO_BUDGET)
    if src_cert == target_cert:
        return DilutionSequence.for_source(h_src, ())
    t_n, t_masks = h_target._index_form[1]
    target = t_n, len(t_masks), _invariants(t_n, t_masks)
    if n < t_n or len(masks) < target[1] or not _may_reach(n, masks, target[2]):
        return None
    src_form = n, frozenset(masks), src_gens
    expanded = set()  # certificates of the states expanded in any contour
    for bound in itertools.count(n - t_n):
        seen, cut = {src_cert}, False
        depth_first = bound == n - t_n
        # trail[i] is (parent position, kind, x) of the i-th state found; a
        # queued state is (form, cert, position or -1 for h_src, depth), and
        # a depth-first child waits with (kind, x, child n, edges) as form, no cert
        trail: list[tuple[int, type, int]] = []
        queue = deque([(src_form, src_cert, -1, 0)])
        take = queue.pop if depth_first else queue.popleft
        while queue:
            form, cert, at, depth = take()
            if cert is None:  # once found, it goes back on top and is expanded
                children = [form]
            else:
                if cert not in expanded:
                    expanded.add(cert)
                    if len(expanded) > budget:
                        raise BudgetExceededError(
                            f"dilution search exceeded {budget} expanded states"
                        )
                # a vertex step keeps f, a subedge deletion raises it by one
                cap = form[0] - 1 if depth + form[0] - t_n == bound else None
                children = _children(form, target, cap)
            last = depth + 1 == bound
            found = []
            for kind, x, child_n, child in children:
                if child is None:
                    cut = True
                    continue
                if depth_first and cert is not None:  # labelled when taken
                    found.append(((kind, x, child_n, child), None, at, depth))
                    continue
                got = _label(child_n, child, target)
                if got is None or got[0] in seen:
                    continue
                c = got[0]
                if c == target_cert:
                    path = [(at, kind, x)]
                    while path[-1][0] >= 0:
                        path.append(trail[path[-1][0]])
                    steps, names = [], src_names
                    for _, kind, x in reversed(path):
                        steps.append(_named_step(kind, x, names))
                        if kind is not DeleteSubedge:
                            names = names[:x] + names[x + 1 :]
                    return DilutionSequence.for_source(h_src, steps)
                seen.add(c)
                if last:
                    cut = True
                    continue
                trail.append((at, kind, x))
                found.append(((child_n, child, got[1]), c, len(trail) - 1, depth + 1))
            queue.extend(reversed(found) if depth_first else found)
        if not cut:
            return None


def _class_node(cert: tuple, form: tuple) -> _ClassNode:
    """The memo's node of ``cert``, entered with ``form`` when it is new."""
    node = _reach_memo.get(cert)
    if node is None:
        node = _reach_memo[cert] = _ClassNode(cert, form)
    return node


def reachable_dilutions(h_src: Hypergraph, budget: int = DEFAULT_SEARCH_BUDGET) -> set:
    """Canonical forms of every hypergraph reachable by dilution from h_src.

    Exhaustive; used to answer many containment queries against one source in
    a single sweep.  The sweep is breadth-first over class nodes
    (``_ClassNode``, one per certificate, all in ``_reach_memo``): a
    certificate is looked up only for the source and for the children of a
    state being labelled, and ``seen`` and the queue hold nodes, so a node
    that has its children is walked without hashing a certificate.  A node
    without them is expanded from its own index form by ``_children`` and
    ``_label`` as in ``search_dilution``, with no target and so no cut, and
    once that expansion has finished the nodes of its children are written
    to it for any later sweep to read.  The memo is emptied only when a
    sweep starts with it full, so a node's children are in the memo too.
    The budget still counts states, one per node taken from the queue, so
    the result and the least budget that succeeds (the size of the result)
    are the same whether the memo is warm or cold.
    """
    _make_room(_reach_memo)
    n, masks = h_src._index_form[1]
    start, _, gens = _canonical_index((n, masks), DEFAULT_ISO_BUDGET)
    source = _class_node(start, (n, frozenset(masks), gens))
    seen = {source}
    queue = deque([source])
    expanded = 0
    while queue:
        node = queue.popleft()
        expanded += 1
        if expanded > budget:
            raise BudgetExceededError(
                f"dilution reachability exceeded {budget} expanded states"
            )
        children = node.children
        if children is None:
            found = []
            for _, _, child_n, child_edges in _children(node.form):
                c, child_gens = _label(child_n, child_edges)
                found.append(_class_node(c, (child_n, child_edges, child_gens)))
            node.children = children = tuple(dict.fromkeys(found))
        for child in children:
            if child not in seen:
                seen.add(child)
                queue.append(child)
    return {node.cert for node in seen}


# -- label tracking ----------------------------------------------------------


@dataclass(frozen=True)
class EdgeLabeling:
    """Maps each current edge to the set of original edges it descends from."""

    labels: tuple[tuple[frozenset, frozenset], ...]  # (current edge, originals)

    def as_dict(self) -> dict[frozenset, frozenset]:
        return dict(self.labels)

    def pairwise_disjoint(self) -> bool:
        seen: set = set()
        for _, originals in self.labels:
            if seen & originals:
                return False
            seen |= originals
        return True


def track_labels(h_src: Hypergraph, seq: DilutionSequence) -> EdgeLabeling:
    """Edge provenance through a dilution sequence.

    Each step's edge image (``_step``) says which edge every edge becomes;
    a new edge's label is the union of the labels of the edges mapped onto
    it.  So a vertex deletion that collapses edges unions their labels, a
    deleted subedge folds its label onto its first proper superedge, and a
    merge unions the labels of every edge at the merged vertex.  Labels of
    distinct surviving edges stay pairwise disjoint throughout.
    """
    labels: dict[frozenset, frozenset] = {e: frozenset([e]) for e in h_src.edges}
    for image in _walk(h_src, seq)[1]:
        folded: dict[frozenset, frozenset] = {}
        for e, lab in labels.items():
            folded[image[e]] = folded.get(image[e], frozenset()) | lab
        labels = folded
    return EdgeLabeling(tuple(sorted(labels.items(), key=lambda kv: edge_key(kv[0]))))
