"""Regenerate the benchmark's fixed inputs: ``degree2_corpus.json``, the host
and pattern sets of the ``degree2-sweep`` workload, and ``width_corpus.json``,
the random graphs of the ``width-oracles`` workload.

Hosts are every reduced connected hypergraph of degree at most 2 with at most
6 edges, found as duals of connected graphs on at most 6 vertices with at
most 7 edges (singleton edges allowed on up to 5 vertices).  Patterns are
every connected graph on at most 5 vertices.  Both sets hold one member per
isomorphism class.  The enumeration takes a few seconds, so the benchmark
reads the stored result instead of redoing it at set-up.

The width graphs come from ``generators.random_hypergraph`` fed by a fixed
stream.  That generator walks frozensets of vertex names, so what it returns
depends on ``PYTHONHASHSEED`` too; drawn inside a run, the graphs (and the
time spent redrawing rejected ones) changed with every run's hash seed.  The
script pins the hash seed to 0 and stores the graphs, so every run of the
workload solves the same graphs under its own vertex names.

Usage: PYTHONPATH=src python3 perfbench/make_corpus.py
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import random
import sys

from hgdilute import Hypergraph, canonical_form, dual, is_connected
from hgdilute.errors import InvalidInputError
from hgdilute.generators import random_hypergraph

OUT = pathlib.Path(__file__).with_name("degree2_corpus.json")
WIDTH_OUT = pathlib.Path(__file__).with_name("width_corpus.json")


def connected_graphs(max_n: int) -> list[Hypergraph]:
    found: dict = {}
    for n in range(1, max_n + 1):
        verts = [f"g{i}" for i in range(n)]
        pairs = list(itertools.combinations(verts, 2))
        for bits in range(1 << len(pairs)):
            g = Hypergraph(
                frozenset(verts),
                frozenset(frozenset(pairs[i]) for i in range(len(pairs)) if bits >> i & 1),
            )
            if is_connected(g):
                found.setdefault(canonical_form(g), g)
    return [found[c] for c in sorted(found)]


def degree2_hosts(max_edges: int = 6, max_vertices: int = 7) -> list[Hypergraph]:
    found: dict = {}
    for k in range(1, max_edges + 1):
        verts = [f"f{i}" for i in range(k)]
        pairs = list(itertools.combinations(verts, 2))
        single_sets = range(1 << k) if k <= 5 else [0]
        for bits in range(1 << len(pairs)):
            edges = [frozenset(pairs[i]) for i in range(len(pairs)) if bits >> i & 1]
            if len(edges) > max_vertices:
                continue
            if not is_connected(Hypergraph(frozenset(verts), frozenset(edges))):
                continue
            for sbits in single_sets:
                singles = [frozenset({verts[i]}) for i in range(k) if sbits >> i & 1]
                if len(edges) + len(singles) > max_vertices:
                    continue
                h = dual(Hypergraph(frozenset(verts), frozenset(edges) | frozenset(singles)))
                if h.is_reduced() and h.max_degree() <= 2 and len(h.edges) <= max_edges:
                    found.setdefault(canonical_form(h), h)
    return [found[c] for c in sorted(found)]


def random_connected(rng, nv_range, ne_range, max_degree, max_rank) -> Hypergraph:
    """Random hypergraph; draws that no hypergraph satisfies are redrawn."""
    while True:
        nv, ne = rng.choice(nv_range), rng.choice(ne_range)
        try:
            return random_hypergraph(
                nv, ne, max_degree, max_rank, seed=rng.randrange(10**9), retries=60
            )
        except InvalidInputError:
            continue


def width_graphs(n_tw: int = 20, n_ghw: int = 30) -> dict[str, list[Hypergraph]]:
    """Graphs with 10-12 vertices for exact_treewidth; hypergraphs with 10-12
    vertices, 7-9 edges, degree <= 3 and rank <= 4 for exact_ghw."""
    fixed = random.Random("width-oracles:graphs")
    sizes = (10, 11, 12)
    tw = []
    for _ in range(n_tw):
        nv = fixed.choice(sizes)
        tw.append(random_connected(fixed, [nv], range(nv, 2 * nv + 1), nv - 1, 2))
    ghw = [random_connected(fixed, sizes, (7, 8, 9), 3, 4) for _ in range(n_ghw)]
    return {"treewidth": tw, "ghw": ghw}


def encode(h: Hypergraph, prefix: str) -> dict:
    """Rename vertices to prefix+index in sorted order; edges as sorted lists."""
    names = {v: f"{prefix}{i}" for i, v in enumerate(sorted(h.vertices))}
    edges = sorted(sorted(names[v] for v in e) for e in h.edges)
    return {"vertices": sorted(names.values()), "edges": edges}


def main() -> None:
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    data = {
        "hosts": [encode(h, "a") for h in degree2_hosts()],
        "patterns": [encode(g, "p") for g in connected_graphs(5)],
    }
    OUT.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    print(f"{len(data['hosts'])} hosts, {len(data['patterns'])} patterns -> {OUT.name}")
    width = {k: [encode(h, "r") for h in hs] for k, hs in width_graphs().items()}
    WIDTH_OUT.write_text(json.dumps(width, separators=(",", ":")) + "\n")
    print(f"{len(width['treewidth'])} + {len(width['ghw'])} width graphs -> {WIDTH_OUT.name}")


if __name__ == "__main__":
    main()
