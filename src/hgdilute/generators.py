"""Canonical hypergraph families for tests and experiments.

Grids are the usual n x m lattice graphs.  A jigsaw is the hypergraph dual of
a grid: its vertices are the grid's edges and it has one hyperedge per grid
vertex, so every jigsaw vertex has degree exactly 2 and the rank is at most 4.
A mesh is the rows-and-columns hypergraph over an n x m cell array: one edge
per row and one per column, every cell of degree exactly 2.  Subdivided
jigsaws stretch each jigsaw edge into internal paths and come packaged with
the witness describing how to collapse them back.

Everything is deterministic; the random family is fully determined by its
seed (CPython's Mersenne Twister via ``random.Random``).
"""

from __future__ import annotations

import random

from .errors import InvalidInputError
from .hypergraph import Hypergraph, Path, PreJigsawWitness, edge_key, is_connected

__all__ = [
    "grid",
    "jigsaw",
    "jigsaw_edge_name",
    "mesh",
    "subdivided_jigsaw",
    "random_hypergraph",
]


def grid(n: int, m: int) -> Hypergraph:
    """n x m lattice as a 2-uniform hypergraph; vertices x{i}_{j}."""
    if n < 1 or m < 1:
        raise InvalidInputError("grid dimensions must be at least 1")
    vertices = {f"x{i}_{j}" for i in range(1, n + 1) for j in range(1, m + 1)}
    return Hypergraph(frozenset(vertices), frozenset(_grid_edge_names(n, m).values()))


def _grid_edge_names(n: int, m: int) -> dict[str, frozenset]:
    """Jigsaw vertex names: h{i}_{j} horizontal grid edges, v{i}_{j} vertical."""
    names = {}
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if j < m:
                names[f"h{i}_{j}"] = frozenset({f"x{i}_{j}", f"x{i}_{j + 1}"})
            if i < n:
                names[f"v{i}_{j}"] = frozenset({f"x{i}_{j}", f"x{i + 1}_{j}"})
    return names


def jigsaw_edge_name(i: int, j: int) -> str:
    """Name of the jigsaw edge that corresponds to grid position (i, j)."""
    return f"e{i}_{j}"


def _check_jigsaw_dims(n: int, m: int) -> None:
    """Raise unless an n x m jigsaw exists: it needs two grid vertices."""
    if n < 1 or m < 1 or n * m < 2:
        raise InvalidInputError("jigsaw needs n, m >= 1 and n*m >= 2")


def jigsaw_named_edges(n: int, m: int) -> dict[str, frozenset]:
    """Jigsaw edges keyed by their canonical grid-position names."""
    _check_jigsaw_dims(n, m)
    edge_names = _grid_edge_names(n, m)
    named = {}
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cell = frozenset(
                name
                for name, ge in edge_names.items()
                if f"x{i}_{j}" in ge
            )
            named[jigsaw_edge_name(i, j)] = cell
    return named


def jigsaw(n: int, m: int) -> Hypergraph:
    """Dual of grid(n, m): one hyperedge per grid vertex, all degrees 2."""
    named = jigsaw_named_edges(n, m)
    vertices = frozenset(v for e in named.values() for v in e)
    return Hypergraph(vertices, frozenset(named.values()))


def mesh(n: int, m: int) -> Hypergraph:
    """Rows-and-columns hypergraph on an n x m cell array; cells c{i}_{j}."""
    if n < 1 or m < 1:
        raise InvalidInputError("mesh dimensions must be at least 1")
    cells = {f"c{i}_{j}" for i in range(1, n + 1) for j in range(1, m + 1)}
    rows = [
        frozenset(f"c{i}_{j}" for j in range(1, m + 1)) for i in range(1, n + 1)
    ]
    cols = [
        frozenset(f"c{i}_{j}" for i in range(1, n + 1)) for j in range(1, m + 1)
    ]
    return Hypergraph(frozenset(cells), frozenset(rows) | frozenset(cols))


def subdivided_jigsaw(
    n: int, m: int, k: int
) -> tuple[Hypergraph, PreJigsawWitness]:
    """Jigsaw with stretched edges plus the witness that collapses it back.

    Each jigsaw edge with corner set S is replaced by: the edge itself when
    k = 0; a corner-to-corner path with k internal vertices when |S| = 2; and
    spokes of length k from each corner into a shared hub edge otherwise.  The
    result has degree at most 2 and always validates as an (n, m) pre-jigsaw.
    """
    if k < 0:
        raise InvalidInputError("subdivision count must be >= 0")
    named = jigsaw_named_edges(n, m)
    edges: set[frozenset] = set()
    groups: dict[frozenset, set[frozenset]] = {}
    paths: dict[tuple[str, str], Path] = {}

    for ename in sorted(named):
        corners = sorted(named[ename])
        region: set[frozenset] = set()
        if k == 0 or len(corners) == 1:
            region.add(frozenset(corners))
            for a in corners:
                for b in corners:
                    if a < b:
                        paths[(a, b)] = Path((a, b), (frozenset(corners),))
        elif len(corners) == 2:
            a, b = corners
            chain = [a] + [f"s{ename}_{t}" for t in range(1, k + 1)] + [b]
            chain_edges = [
                frozenset({chain[t], chain[t + 1]}) for t in range(len(chain) - 1)
            ]
            region.update(chain_edges)
            paths[(a, b)] = Path(tuple(chain), tuple(chain_edges))
        else:
            hub_ends = {}
            spokes: dict[str, tuple[list[str], list[frozenset]]] = {}
            for c in corners:
                spine = [c] + [f"s{ename}_{c}_{t}" for t in range(1, k + 1)]
                spoke_edges = [
                    frozenset({spine[t], spine[t + 1]})
                    for t in range(len(spine) - 1)
                ]
                hub_ends[c] = spine[-1]
                spokes[c] = (spine, spoke_edges)
                region.update(spoke_edges)
            hub = frozenset(hub_ends.values())
            region.add(hub)
            for a in corners:
                for b in corners:
                    if a < b:
                        sa, ea = spokes[a]
                        sb, eb = spokes[b]
                        verts = tuple(sa) + tuple(reversed(sb))
                        pedges = tuple(ea) + (hub,) + tuple(reversed(eb))
                        paths[(a, b)] = Path(verts, pedges)
        edges.update(region)
        groups[named[ename]] = region

    h = Hypergraph.make(edges)
    witness = PreJigsawWitness(
        rows=n,
        cols=m,
        corners=tuple(sorted({(v, v) for e in named.values() for v in e})),
        edge_groups=tuple(
            sorted(
                ((je, frozenset(region)) for je, region in groups.items()),
                key=lambda kv: edge_key(kv[0]),
            )
        ),
        fixed_paths=tuple(sorted(paths.items())),
    )
    return h, witness


def random_hypergraph(
    nv: int,
    ne: int,
    max_degree: int,
    max_rank: int,
    seed: int,
    retries: int = 400,
) -> Hypergraph:
    """Connected random hypergraph under degree and rank caps, seed-determined."""
    if nv < 1 or max_degree < 1 or max_rank < 1:
        raise InvalidInputError("need nv >= 1 and positive caps")
    if ne == 0:
        if nv == 1:
            return Hypergraph(frozenset({"n1"}), frozenset())
        raise InvalidInputError("no edges cannot connect more than one vertex")
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(1, nv + 1)]
    # sizes lean toward >= 2; singletons stay possible so that dense edge
    # counts over few vertices remain reachable
    size_pool = list(range(min(2, max_rank), max_rank + 1)) * 4 + [1]
    for _ in range(retries):
        degree = {v: 0 for v in names}
        used: list[str] = []
        unused = names[:]
        rng.shuffle(unused)
        edges: set[frozenset] = set()
        ok = True
        for _ in range(ne):
            size = rng.choice(size_pool)
            members: set[str] = set()
            anchors = [v for v in used if degree[v] < max_degree]
            if anchors:
                members.add(rng.choice(anchors))
            while len(members) < size and unused:
                members.add(unused.pop())
            pool = [v for v in names if v not in members and degree[v] < max_degree]
            rng.shuffle(pool)
            while len(members) < size and pool:
                members.add(pool.pop())
            if not members:
                ok = False
                break
            edge = frozenset(members)
            if edge in edges:
                continue
            edges.add(edge)
            for v in sorted(edge):  # not set order, which string hashing sets
                degree[v] += 1
                if v not in used:
                    used.append(v)
            if any(d > max_degree for d in degree.values()):
                ok = False
                break
        if not ok or len(edges) != ne:
            continue
        h = Hypergraph(frozenset(names), frozenset(edges))
        if is_connected(h) and h.max_degree() <= max_degree and h.rank() <= max_rank:
            return h
    raise InvalidInputError(
        f"no connected hypergraph with nv={nv} ne={ne} "
        f"max_degree={max_degree} max_rank={max_rank} found after {retries} tries"
    )

