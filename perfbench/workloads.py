"""The benchmark's three workloads.

A workload is built once per set-up from the library namespace ``lib`` (see
``run.load_library``) and a seed.  ``round(k)`` then returns the jobs of round
``k``: a fixed mix of verification call chains whose inputs are drawn from
``(workload, seed, k)``, so every round of a run meets fresh vertex names and
never reuses the certificate cache of an earlier round.  A job is a callable
that returns ``None`` when its answer passes its check and a short reason
when it does not; an exception raised by the library is a failure too.

Budgets are the ones the acceptance battery passes, so budget exhaustion
shows up as a failure instead of being absorbed by a larger budget.
"""

from __future__ import annotations

import json
import pathlib
import random

import checks

CORPUS = pathlib.Path(__file__).with_name("degree2_corpus.json")
WIDTH_CORPUS = pathlib.Path(__file__).with_name("width_corpus.json")

REACH_BUDGET = 2 * 10**5  # criterion 7
MINOR_BUDGET = 10**6  # criterion 7
EXTRACT_BUDGET = 5 * 10**5  # criterion 5
SEARCH_BUDGET = 10**5  # search_dilution and CLI default


def rng_for(name: str, seed: int, k: int) -> random.Random:
    # string seeds hash through SHA-512, so PYTHONHASHSEED cannot move them
    return random.Random(f"{name}:{seed}:{k}")


def relabel(lib, h, rng: random.Random, prefix: str):
    """Copy of h with vertices renamed to a seeded permutation of prefix+index."""
    verts = sorted(h.vertices)
    names = [f"{prefix}{i}" for i in range(len(verts))]
    rng.shuffle(names)
    m = dict(zip(verts, names))
    return lib.hypergraph.Hypergraph(
        frozenset(names), frozenset(frozenset(m[v] for v in e) for e in h.edges)
    )


def _witness(wit, a, b) -> str | None:
    return checks.iso_mapping(wit.as_dict(), a.vertices, a.edges, b.vertices, b.edges)


class Degree2Sweep:
    """Criterion 7 as jobs: one job per reduced connected degree-2 host."""

    name = "degree2-sweep"

    def __init__(self, lib, seed: int, tiny: bool = False):
        self.lib, self.seed = lib, seed
        H = lib.hypergraph.Hypergraph
        data = json.loads(CORPUS.read_text())
        make = lambda d: H.make(d["edges"], d["vertices"])  # noqa: E731
        self.hosts = [make(d) for d in data["hosts"]]
        patterns = [make(d) for d in data["patterns"]]
        if tiny:
            self.hosts, patterns = self.hosts[:6], patterns[:6]
        hg = lib.hypergraph
        self.targets = [
            (hg.canonical_form(hg.dual(g)), g, len(g.vertices) == 2) for g in patterns
        ]

    def round(self, k: int):
        rng = rng_for(self.name, self.seed, k)
        return [self._job(relabel(self.lib, h, rng, "v")) for h in self.hosts]

    def _job(self, h):
        lib, targets = self.lib, self.targets
        # the lone loop-vertex host reaches the two-vertex pattern's dual (a
        # loop vertex) while its one-vertex dual has no two-vertex minor
        loop_host = len(h.vertices) == 1 and len(h.edges) == 1

        def job():
            reach = lib.dilution.reachable_dilutions(h, budget=REACH_BUDGET)
            dh = lib.hypergraph.dual(h)
            for cert, g, two_vertex in targets:
                mm = lib.minors.find_minor(g, dh, budget=MINOR_BUDGET)
                if mm is not None:
                    why = checks.minor_model(g, dh, mm.as_dict())
                    if why:
                        return why
                has_dilution, has_minor = cert in reach, mm is not None
                if loop_host and two_vertex:
                    if not has_dilution or has_minor:
                        return "pinned loop/two-vertex pair changed"
                elif has_dilution != has_minor:
                    return "dilution and minor answers disagree"
            return None

        return job


class WidthOracles:
    """Few large exact searches: treewidth and cover width, grid minors,
    jigsaw extraction, isomorphism of a symmetric mesh and a dilution search."""

    name = "width-oracles"

    def __init__(self, lib, seed: int, tiny: bool = False):
        self.lib, self.seed = lib, seed
        gen = lib.generators
        self.grid3 = gen.grid(3, 3)
        self.grid2 = gen.grid(2, 2)
        self.jigsaw2 = gen.jigsaw(2, 2)
        self.jigsaw3 = gen.jigsaw(3, 3)
        self.grid_hosts = [gen.grid(3, 3)] if tiny else [gen.grid(3, 3), gen.grid(3, 4)] * 4
        self.extract_hosts = [gen.mesh(3, 3)] if tiny else [
            gen.mesh(3, 3),
            gen.mesh(3, 4),
            gen.jigsaw(2, 3),
            gen.jigsaw(3, 3),
            gen.subdivided_jigsaw(2, 2, 1)[0],
            gen.subdivided_jigsaw(2, 2, 2)[0],
        ]
        # the random graphs are a stored corpus (see make_corpus.py) and only
        # their vertex names come from the seed, so every seed and round solves
        # the same graphs
        data = json.loads(WIDTH_CORPUS.read_text())
        make = lambda d: lib.hypergraph.Hypergraph.make(d["edges"], d["vertices"])  # noqa: E731
        take = 2 if tiny else None
        self.tw_graphs = [make(d) for d in data["treewidth"][:take]]
        self.ghw_graphs = [make(d) for d in data["ghw"][:take]]
        self.n_jigsaw = 1 if tiny else 2
        # refinement on a highly symmetric mesh and its dual, with no cache
        # reuse, and one dilution search, so that isomorphic and
        # search_dilution run in some workload
        mesh = gen.mesh(3, 3) if tiny else gen.mesh(4, 4)
        self.iso_bases = [mesh, lib.hypergraph.dual(mesh)]
        self.search_src = gen.mesh(3, 3) if tiny else gen.mesh(3, 4)

    def round(self, k: int):
        rng = rng_for(self.name, self.seed, k)
        jobs = [self._tw_job(relabel(self.lib, h, rng, "t")) for h in self.tw_graphs]
        jobs += [self._ghw_job(relabel(self.lib, h, rng, "g"), None) for h in self.ghw_graphs]
        for _ in range(self.n_jigsaw):
            jobs.append(self._ghw_job(relabel(self.lib, self.jigsaw3, rng, "j"), 3))
        for host in self.grid_hosts:
            jobs.append(self._grid_job(relabel(self.lib, host, rng, "x")))
        for h in self.extract_hosts:
            jobs.append(self._extract_job(relabel(self.lib, h, rng, "e")))
        for b in self.iso_bases:
            a, b = relabel(self.lib, b, rng, "u"), relabel(self.lib, b, rng, "w")
            jobs.append(self._iso_job(a, b))
        jobs.append(self._search_job(relabel(self.lib, self.search_src, rng, "c")))
        return jobs

    def _tw_job(self, h):
        dec = self.lib.decomposition

        def job():
            rep, td = dec.exact_treewidth(h)
            ok, why = dec.validate_td(h, td)
            if not ok:
                return why
            bags = td.bag_of()
            why = checks.tree_decomposition(h.vertices, h.edges, td.nodes, td.parent_of(), bags)
            if why:
                return why
            if rep.width != max(len(b) for b in bags.values()) - 1:
                return "reported width differs from the witness"
            if rep.width < checks.degeneracy(h.vertices, h.edges):
                return "treewidth below the degeneracy lower bound"
            return None

        return job

    def _ghw_job(self, h, expect):
        dec = self.lib.decomposition

        def job():
            rep, ghd = dec.exact_ghw(h)
            ok, why = dec.validate_ghd(h, ghd)
            if not ok:
                return why
            covered = frozenset().union(*h.edges)
            bags, covers = ghd.td.bag_of(), ghd.cover_of()
            why = checks.tree_decomposition(
                covered, h.edges, ghd.td.nodes, ghd.td.parent_of(), bags
            )
            if why:
                return why
            for n, bag in bags.items():
                if not covers[n] <= h.edges or not bag <= frozenset().union(*covers[n]):
                    return "a bag is not covered by edges of its label"
            if rep.width != max(len(c) for c in covers.values()):
                return "reported width differs from the witness"
            if expect is not None and rep.width != expect:
                return f"cover width {rep.width}, expected {expect}"
            return None

        return job

    def _grid_job(self, host):
        mn, g = self.lib.minors, self.grid3

        def job():
            mm = mn.find_grid_minor(host, 3, budget=MINOR_BUDGET)
            if mm is None:
                return "no 3x3 grid minor in a grid host"
            ok, why = mn.validate_minor_map(g, host, mm, require_onto=True)
            return why if not ok else checks.minor_model(g, host, mm.as_dict(), onto=True)

        return job

    def _extract_job(self, h):
        lib, g, target = self.lib, self.grid2, self.jigsaw2

        def job():
            d = lib.hypergraph.dual(lib.dilution.reduce_hypergraph(h)[0])
            mm = lib.minors.find_grid_minor(d, 2, budget=EXTRACT_BUDGET)
            if mm is None:
                return "no 2x2 grid minor in the dual"
            seq = lib.minors.jigsaw_from_grid_minor(h, g, mm)
            ok, wit = lib.dilution.verify_dilution(h, seq, target)
            if not ok:
                return "extracted sequence does not verify"
            return checks.dilution_witness(h, seq.steps, target, wit.as_dict())

        return job

    def _iso_job(self, a, b):
        def job():
            wit = self.lib.hypergraph.isomorphic(a, b)
            return "isomorphic copies reported apart" if wit is None else _witness(wit, a, b)

        return job

    def _search_job(self, src):
        target, dil = self.jigsaw2, self.lib.dilution

        def job():
            seq = dil.search_dilution(src, target, budget=SEARCH_BUDGET)
            if seq is None:
                return "no dilution found onto jigsaw(2,2)"
            ok, wit = dil.verify_dilution(src, seq, target)
            if not ok:
                return "found sequence does not verify"
            return checks.dilution_witness(src, seq.steps, target, wit.as_dict())

        return job


class CqCount:
    """Counting, and count preservation along reduce_along_dilution."""

    name = "cq-count"

    def __init__(self, lib, seed: int, tiny: bool = False):
        self.lib, self.seed = lib, seed
        gen, hg, dil, mn = lib.generators, lib.hypergraph, lib.dilution, lib.minors
        self.mesh = gen.mesh(3, 3)
        d = hg.dual(dil.reduce_hypergraph(self.mesh)[0])
        # one (target query, sequence from mesh(3,3), weight) per jigsaw shape;
        # the 2x2 jobs are about 7 times cheaper than the others, and the
        # weights keep the median job inside the costly block
        self.backed = []
        for (a, b), weight in [((2, 2), 1)] if tiny else [((2, 2), 1), ((2, 3), 2), ((3, 2), 2)]:
            g = gen.grid(a, b)
            mm = mn.extend_to_onto(g, d, mn.find_minor(g, d, budget=MINOR_BUDGET))
            seq = mn.jigsaw_from_grid_minor(self.mesh, g, mm)
            target = dil.apply_sequence(self.mesh, seq)
            self.backed.append((lib.cq.query_from_hypergraph(target), seq, weight))
        self.per_weight, self.n_random = (2, 2) if tiny else (30, 30)

    def _database(self, q, rng, domain: int, rows: tuple[int, int]):
        dom = [str(i) for i in range(1, domain + 1)]
        return self.lib.cq.Database.of(
            {
                a.relation: {
                    tuple(rng.choice(dom) for _ in a.args)
                    for _ in range(rng.randint(*rows))
                }
                for a in q.atoms
            }
        )

    def _random_instance(self, rng):
        """Criterion 9's instances: a random degree-2 host, a random sequence of
        up to 3 steps onto a target covering its vertices, a random database."""
        gen, dil, errors = self.lib.generators, self.lib.dilution, self.lib.errors
        while True:
            ne, rank = rng.randint(1, 6), rng.randint(2, 3)
            nv = rng.randint(2, max(2, min(6, ne * (rank - 1) + 1)))
            try:
                h = gen.random_hypergraph(nv, ne, 2, rank, seed=rng.randrange(10**9), retries=60)
            except errors.InvalidInputError:
                continue
            steps, cur = [], h
            for _ in range(rng.randint(0, 3)):
                options = dil.valid_steps(cur)
                if not options:
                    break
                steps.append(rng.choice(options))
                cur = dil.apply_step(cur, steps[-1])
            if cur.edges and frozenset().union(*cur.edges) == cur.vertices:
                q = self.lib.cq.query_from_hypergraph(cur)
                d = self._database(q, rng, rng.randint(2, 4), (0, 6))
                return q, d, h, dil.DilutionSequence.for_source(h, steps)

    def round(self, k: int):
        rng = rng_for(self.name, self.seed, k)
        jobs = []
        for q, seq, weight in self.backed:
            for _ in range(weight * self.per_weight):
                jobs.append(self._job(q, self._database(q, rng, 4, (16, 20)), self.mesh, seq))
        for _ in range(self.n_random):
            jobs.append(self._job(*self._random_instance(rng)))
        return jobs

    def _job(self, q, d, h, seq):
        cq = self.lib.cq
        atoms = [(a.relation, a.args) for a in q.atoms]

        def job():
            n = cq.count(q, d)
            red = cq.reduce_along_dilution(q, d, h, seq)
            n_rebuilt = cq.count(red.query, red.database)
            if n != n_rebuilt:
                return f"count {n} not preserved by the reduction ({n_rebuilt})"
            if n != checks.count_solutions(atoms, d.relations_dict()):
                return "count disagrees with the independent counter"
            return None

        return job


WORKLOADS = {w.name: w for w in (Degree2Sweep, WidthOracles, CqCount)}
