"""Answer checks written without the library's own validators.

Each check reads only the plain data of a result (vertex and edge sets,
branch sets, bags, covers, steps) and recomputes the property it claims, so a
bug in the library cannot vouch for itself.  Every function returns ``None``
when the answer holds and a short reason otherwise.
"""

from __future__ import annotations


def _connected(vertices: frozenset, edges) -> bool:
    """Whether ``vertices`` is connected through the given edges restricted to it."""
    if not vertices:
        return False
    start = next(iter(vertices))
    seen, stack = {start}, [start]
    while stack:
        x = stack.pop()
        for e in edges:
            if x in e:
                for y in e & vertices:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
    return seen == vertices


def iso_mapping(mapping: dict, vertices1, edges1, vertices2, edges2) -> str | None:
    """A vertex bijection that carries the first edge set exactly onto the second."""
    if set(mapping) != set(vertices1) or set(mapping.values()) != set(vertices2):
        return "mapping is not a bijection between the vertex sets"
    if len(set(mapping.values())) != len(mapping):
        return "mapping is not injective"
    if {frozenset(mapping[v] for v in e) for e in edges1} != set(edges2):
        return "mapping does not carry edges onto edges"
    return None


def minor_model(pattern, host, branch: dict, onto: bool = False) -> str | None:
    """Disjoint connected branch sets, one host edge meeting both ends of each
    pattern edge, and (when ``onto``) every host vertex used."""
    if set(branch) != set(pattern.vertices):
        return "branch sets do not match the pattern vertices"
    used: set = set()
    for s in branch.values():
        if not s or not s <= host.vertices or used & s:
            return "branch sets are empty, foreign or overlapping"
        used |= s
        if not _connected(frozenset(s), host.edges):
            return "a branch set is not connected"
    for e in pattern.edges:
        u, v = tuple(e)
        if not any(f & branch[u] and f & branch[v] for f in host.edges):
            return "a pattern edge has no host edge between its branch sets"
    if onto and used != set(host.vertices):
        return "branch sets do not cover the host"
    return None


def apply_steps(vertices, edges, steps):
    """Replay a dilution sequence from the three step definitions.

    Steps are read by their kind name and field: ``DeleteVertex.vertex``,
    ``DeleteSubedge.edge`` and ``MergeOn.vertex``.  Returns the final
    ``(vertices, edges)`` or raises ``ValueError`` on a step that does not
    apply.
    """
    vs, es = set(vertices), set(edges)
    for step in steps:
        kind = type(step).__name__
        if kind == "DeleteVertex":
            if step.vertex not in vs:
                raise ValueError("deleted vertex is absent")
            vs.discard(step.vertex)
            es = {e - {step.vertex} for e in es}
        elif kind == "DeleteSubedge":
            if step.edge not in es or not any(step.edge < f for f in es):
                raise ValueError("deleted edge is not a proper subedge")
            es.discard(step.edge)
        elif kind == "MergeOn":
            incident = {e for e in es if step.vertex in e}
            if not incident:
                raise ValueError("merge vertex has degree 0")
            vs.discard(step.vertex)
            es = (es - incident) | {frozenset().union(*incident) - {step.vertex}}
        else:
            raise ValueError(f"unknown step kind {kind}")
    return frozenset(vs), frozenset(es)


def dilution_witness(src, steps, target, mapping: dict) -> str | None:
    """The sequence applies to ``src`` and ``mapping`` carries its result onto ``target``."""
    try:
        vs, es = apply_steps(src.vertices, src.edges, steps)
    except ValueError as err:
        return str(err)
    return iso_mapping(mapping, vs, es, target.vertices, target.edges)


def _tree_ok(nodes, parent: dict) -> bool:
    roots = [n for n in nodes if parent[n] is None]
    if len(roots) != 1:
        return False
    for n in nodes:
        seen = set()
        while n is not None:
            if n in seen:
                return False
            seen.add(n)
            n = parent[n]
    return True


def tree_decomposition(vertices, edges, nodes, parent: dict, bags: dict) -> str | None:
    """Rooted tree, every edge inside a bag, each vertex on a connected subtree."""
    if set(parent) != set(nodes) or set(bags) != set(nodes) or not _tree_ok(nodes, parent):
        return "nodes do not form a rooted tree"
    if any(not b <= vertices for b in bags.values()):
        return "a bag holds a non-vertex"
    if any(not any(e <= b for b in bags.values()) for e in edges):
        return "an edge lies in no bag"
    for v in vertices:
        holders = {n for n in nodes if v in bags[n]}
        tops = [n for n in holders if parent[n] not in holders]
        if len(tops) > 1:
            return "a vertex occurs on a disconnected set of nodes"
    return None


def degeneracy(vertices, edges) -> int:
    """Degeneracy of the primal graph, a lower bound on treewidth."""
    adj = {v: set() for v in vertices}
    for e in edges:
        for a in e:
            adj[a] |= e - {a}
    best = 0
    while adj:
        v = min(adj, key=lambda x: (len(adj[x]), x))
        best = max(best, len(adj[v]))
        for w in adj.pop(v):
            adj[w].discard(v)
    return best


def count_solutions(atoms, relations: dict) -> int:
    """Number of variable assignments satisfying every atom.

    ``atoms`` is a list of ``(relation, args)``.  Atoms are joined one at a
    time, each next atom sharing the most variables with those before it, and
    each is looked up through an index on its already-bound positions, so the
    work follows the partial solutions instead of the rows.
    """
    rows = {r: set(relations.get(r, ())) for r, _ in atoms}
    plans, bound, remaining = [], set(), list(atoms)
    while remaining:
        rel, args = max(remaining, key=lambda a: (len(bound & set(a[1])), -len(rows[a[0]])))
        remaining.remove((rel, args))
        key = [i for i, x in enumerate(args) if x in bound]
        index: dict[tuple, list] = {}
        for row in rows[rel]:
            index.setdefault(tuple(row[i] for i in key), []).append(row)
        plans.append((args, key, index))
        bound |= set(args)

    def extend(i: int, binding: dict) -> int:
        if i == len(plans):
            return 1
        args, key, index = plans[i]
        total = 0
        for row in index.get(tuple(binding[args[j]] for j in key), ()):
            new = dict(binding)
            if all(new.setdefault(x, c) == c for x, c in zip(args, row)):
                total += extend(i + 1, new)
        return total

    return extend(0, {})
