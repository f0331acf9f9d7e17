"""Acceptance batteries: one runner per shipped correctness criterion.

Each criterion is an executable statement about the toolkit checked against
independent oracles (brute-force evaluation, exhaustive enumeration, the
exact width oracles).  ``run_suite`` executes them with fixed seeds and
returns one pass/fail record per criterion; the CLI ``suite`` subcommand and
the test suite both consume it.  ``quick`` shrinks the corpora for smoke
runs and is not the shipped acceptance configuration.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .cq import (
    Assignment,
    ConjunctiveQuery,
    Database,
    compute_core,
    count,
    evaluate,
    homomorphically_equivalent,
    hypergraph_of,
    project,
    query_from_hypergraph,
    reduce_along_dilution,
    semantic_ghw,
    _homomorphism,
)
from .decomposition import (
    exact_ghw,
    exact_treewidth,
    ghd_from_dual_td,
    ghd_width,
    merge_transform,
    validate_ghd,
)
from .dilution import (
    DilutionSequence,
    apply_step,
    apply_sequence_states,
    merge_on,
    reachable_dilutions,
    reduce_hypergraph,
    valid_steps,
    verify_dilution,
)
from .errors import InvalidInputError
from .formats import fig3_sequence
from .generators import (
    grid,
    jigsaw,
    mesh,
    random_hypergraph,
    subdivided_jigsaw,
)
from .hypergraph import (
    Hypergraph,
    canonical_form,
    dual,
    is_connected,
    isomorphic,
)
from .minors import (
    find_grid_minor,
    find_minor,
    jigsaw_from_grid_minor,
    prejigsaw_to_jigsaw,
    trivial_prejigsaw_witness,
    validate_prejigsaw,
)

DEFAULT_SEED = 20250810


@dataclass(frozen=True)
class CriterionResult:
    ident: int
    name: str
    passed: bool
    detail: str


# -- shared helpers --------------------------------------------------------------


def _sample(rng, max_vertices=6, max_edges=5, max_degree=3, max_rank=3):
    """Feasible random connected hypergraph; resamples infeasible parameter draws."""
    while True:
        ne = rng.randint(1, max_edges)
        rank = rng.randint(2, max_rank)
        nv = rng.randint(2, max(2, min(max_vertices, ne * (rank - 1) + 1)))
        try:
            return random_hypergraph(
                nv, ne, max_degree, rank, seed=rng.randint(0, 10**9), retries=60
            )
        except InvalidInputError:
            continue


def _random_sequence(h, rng, max_steps):
    steps = []
    cur = h
    for _ in range(rng.randint(0, max_steps)):
        options = valid_steps(cur)
        if not options:
            break
        step = rng.choice(options)
        steps.append(step)
        cur = apply_step(cur, step)
    return DilutionSequence.for_source(h, steps), cur


def _brute_solutions(q: ConjunctiveQuery, d: Database):
    """All-assignments oracle; independent of the join pipeline."""
    rels = d.relations_dict()
    dom = sorted(d.active_domain())
    variables = q.variables()
    out = set()
    for combo in itertools.product(dom, repeat=len(variables)):
        assignment = dict(zip(variables, combo))
        if all(
            tuple(assignment[v] for v in atom.args) in rels.get(atom.relation, ())
            for atom in q.atoms
        ):
            out.add(Assignment.of(assignment))
    return frozenset(out)


def _connected_graphs_upto(
    max_n: int, max_edges: int | None = None
) -> list[Hypergraph]:
    """All connected graphs with at most max_n vertices, one per iso class.

    With ``max_edges`` only graphs with at most that many edges are kept;
    the cap is checked before anything else is built.
    """
    found: dict = {}
    for n in range(1, max_n + 1):
        verts = [f"g{i}" for i in range(n)]
        pairs = list(itertools.combinations(verts, 2))
        for bits in range(1 << len(pairs)):
            if max_edges is not None and bits.bit_count() > max_edges:
                continue
            edges = frozenset(
                frozenset(pairs[i]) for i in range(len(pairs)) if bits >> i & 1
            )
            g = Hypergraph(frozenset(verts), edges)
            if is_connected(g):
                found.setdefault(canonical_form(g), g)
    return [found[c] for c in sorted(found)]


def _degree2_corpus(max_h_edges=6, max_h_vertices=7) -> list[Hypergraph]:
    """Every reduced connected degree-2 hypergraph within the size bounds.

    Degree-2 hypergraphs are exactly duals of graphs (with singleton edges
    for degree-1 vertices), so enumerate those hosts instead: connected
    graphs on up to ``max_h_edges`` vertices with up to ``max_h_vertices``
    edges, singleton edges included for up to 5 vertices.  Isomorphic hosts
    have isomorphic duals, so one graph per isomorphism class, with every
    subset of its vertices given a singleton edge, reaches every dual.
    """
    corpus: dict = {}
    for g in _connected_graphs_upto(max_h_edges, max_edges=max_h_vertices):
        verts = sorted(g.vertices)
        k = len(verts)
        for sbits in (range(1 << k) if k <= 5 else [0]):
            singles = [frozenset({verts[i]}) for i in range(k) if sbits >> i & 1]
            if len(g.edges) + len(singles) > max_h_vertices:
                continue
            h = dual(Hypergraph(g.vertices, g.edges | frozenset(singles)))
            if h.is_reduced() and h.max_degree() <= 2 and len(h.edges) <= max_h_edges:
                corpus.setdefault(canonical_form(h), h)
    return [corpus[c] for c in sorted(corpus)]


# -- criteria --------------------------------------------------------------------


def criterion_1_dual_involution(rng, quick=False) -> tuple[bool, str]:
    """Double dual reconstructs every reduced hypergraph up to isomorphism."""
    goal = 50 if quick else 500
    done = failures = 0
    while done < goal:
        h = _sample(rng, max_vertices=8, max_edges=6, max_degree=3, max_rank=4)
        r, _ = reduce_hypergraph(h)
        if not r.is_reduced() or len(r.vertices) > 8 or r.max_degree() > 3:
            continue
        done += 1
        if isomorphic(dual(dual(r)), r) is None:
            failures += 1
    return failures == 0, f"{done - failures}/{done} reduced hypergraphs"


def criterion_2_ghw_monotone(rng, quick=False) -> tuple[bool, str]:
    """Cover width never increases along random dilution sequences."""
    goal = 40 if quick else 300
    failures = 0
    for _ in range(goal):
        h = _sample(rng, max_vertices=8, max_edges=7, max_degree=3, max_rank=3)
        seq, _ = _random_sequence(h, rng, max_steps=4)
        states = apply_sequence_states(h, seq)
        widths = [exact_ghw(s)[0].width for s in states]
        if any(b > a for a, b in zip(widths, widths[1:])):
            failures += 1
    return failures == 0, f"{goal - failures}/{goal} sequences monotone"


def criterion_3_dual_width_bound(rng, quick=False) -> tuple[bool, str]:
    """Dual-tree transfer stays within dual treewidth plus one."""
    goal = 30 if quick else 200
    done = failures = 0
    while done < goal:
        h = _sample(rng, max_vertices=9, max_edges=7, max_degree=3, max_rank=3)
        r, _ = reduce_hypergraph(h)
        if not r.is_reduced():
            continue
        done += 1
        rep, td = exact_treewidth(dual(r))
        ghd = ghd_from_dual_td(r, td)
        ok, _ = validate_ghd(r, ghd)
        if not ok or ghd_width(ghd).width > rep.width + 1:
            failures += 1
    return failures == 0, f"{done - failures}/{done} within tw(dual)+1"


def criterion_4_merge_transform(rng, quick=False) -> tuple[bool, str]:
    """Merging never widens an optimal cover decomposition."""
    goal = 40 if quick else 300
    done = failures = 0
    while done < goal:
        h = _sample(rng, max_vertices=8, max_edges=7, max_degree=3, max_rank=3)
        candidates = sorted(v for v in h.vertices if h.degree(v) >= 1)
        if not candidates:
            continue
        done += 1
        rep, ghd = exact_ghw(h)
        v = rng.choice(candidates)
        out = merge_transform(h, ghd, v)
        ok, _ = validate_ghd(merge_on(h, v), out)
        if not ok or ghd_width(out).width > rep.width:
            failures += 1
    return failures == 0, f"{done - failures}/{done} transformed decompositions"


def criterion_5_jigsaw_extraction(rng, quick=False) -> tuple[bool, str]:
    """Grid minors of the dual convert into verified jigsaw dilutions."""
    goal = 10 if quick else 50
    corpus: list[Hypergraph] = [
        mesh(4, 4),
        mesh(6, 6),
        jigsaw(3, 3),
        mesh(3, 3),
        jigsaw(2, 2),
        jigsaw(2, 3),
        subdivided_jigsaw(2, 2, 1)[0],
        subdivided_jigsaw(2, 2, 2)[0],
    ]
    while len(corpus) < goal:
        g = _sample(rng, max_vertices=7, max_edges=8, max_degree=4, max_rank=2)
        h = dual(g)
        if h.max_degree() > 2:
            continue
        d = dual(reduce_hypergraph(h)[0])
        if len(d.vertices) > 10:
            continue
        if find_grid_minor(d, 2, budget=2 * 10**5) is not None:
            corpus.append(h)
    failures = 0
    for h in corpus[:goal]:
        d = dual(reduce_hypergraph(h)[0])
        mm = find_grid_minor(d, 2, budget=5 * 10**5)
        if mm is None:
            failures += 1
            continue
        seq = jigsaw_from_grid_minor(h, grid(2, 2), mm)
        ok, _ = verify_dilution(h, seq, jigsaw(2, 2))
        if not ok:
            failures += 1
    return failures == 0, f"{goal - failures}/{goal} extractions verified"


def criterion_6_packaged_mesh_sequence(rng, quick=False) -> tuple[bool, str]:
    """The packaged sequence takes mesh(6,6) onto the 3x2 jigsaw."""
    ok, _ = verify_dilution(mesh(6, 6), fig3_sequence(), jigsaw(3, 2))
    return ok, "mesh(6,6) -> jigsaw(3,2)" if ok else "sequence does not verify"


def criterion_7_degree2_equivalence(rng, quick=False) -> tuple[bool, str]:
    """Minor/dilution duality: a connected pattern graph is a minor of the
    dual iff the host dilutes to the pattern's dual, exhaustively over small
    patterns and hosts of degree at most 2.

    One pair is degenerate by the set semantics of edges: the two-vertex
    pattern's dual collapses to a single loop vertex, which the lone
    loop-vertex host (hypergraph degree 1, so outside the literal degree-2
    statement) reaches trivially while no two-branch-set minor fits into its
    one-vertex dual.  That pair is asserted at its known values instead; any
    other disagreement fails the criterion.
    """
    graphs = _connected_graphs_upto(4 if quick else 5)
    corpus = _degree2_corpus(
        max_h_edges=4 if quick else 6, max_h_vertices=5 if quick else 7
    )
    loop_host = canonical_form(Hypergraph.make([{"a"}]))
    two_vertex_pattern = canonical_form(Hypergraph.make([{"u", "v"}]))
    targets = {}
    for g in graphs:
        targets[canonical_form(dual(g))] = (
            g, canonical_form(g) == two_vertex_pattern
        )
    checked = failures = degenerate = 0
    for h in corpus:
        reachable = reachable_dilutions(h, budget=2 * 10**5)
        dh = dual(h)
        is_loop_host = canonical_form(h) == loop_host
        for cert, (g, is_two_vertex) in targets.items():
            checked += 1
            has_dilution = cert in reachable
            has_minor = find_minor(g, dh, budget=10**6) is not None
            if is_loop_host and is_two_vertex:
                degenerate += 1
                if not (has_dilution and not has_minor):
                    failures += 1
                continue
            if has_dilution != has_minor:
                failures += 1
    return (
        failures == 0,
        f"{checked - degenerate - failures}/{checked - degenerate} pairs agree "
        f"({len(corpus)} hosts x {len(graphs)} patterns; "
        f"{degenerate} degenerate loop/two-vertex pair pinned separately)",
    )


def criterion_8_jigsaw_lower_bound(rng, quick=False) -> tuple[bool, str]:
    """Square jigsaws have cover width at least their dimension."""
    w22 = exact_ghw(jigsaw(2, 2))[0].width
    w33 = exact_ghw(jigsaw(3, 3))[0].width
    ok = w22 >= 2 and w33 >= 3
    return ok, f"ghw(jigsaw(2,2))={w22}, ghw(jigsaw(3,3))={w33}"


def _reduction_instance(rng, max_steps=3):
    while True:
        h = _sample(rng, max_vertices=6, max_edges=6, max_degree=2, max_rank=3)
        seq, target = _random_sequence(h, rng, max_steps=max_steps)
        covered = set().union(*target.edges) if target.edges else set()
        if covered != set(target.vertices) or not target.edges:
            continue
        q = query_from_hypergraph(target)
        dom = [str(i) for i in range(1, rng.randint(2, 4) + 1)]
        rels = {
            atom.relation: {
                tuple(rng.choice(dom) for _ in atom.args)
                for _ in range(rng.randint(0, 6))
            }
            for atom in q.atoms
        }
        return q, Database.of(rels), h, seq


def criterion_9_reduction_soundness(rng, quick=False) -> tuple[bool, str]:
    """Rebuilt instances project onto the original solutions with equal count,
    against brute-force evaluation; ``count`` on both sides matches it too."""
    goal = 30 if quick else 200
    failures = 0
    for _ in range(goal):
        q, d, h, seq = _reduction_instance(rng)
        red = reduce_along_dilution(q, d, h, seq)
        oracle = _brute_solutions(q, d)
        if evaluate(q, d) != oracle or count(q, d) != len(oracle):
            failures += 1
            continue
        sols_p = evaluate(red.query, red.database)
        pulled = red.pull_back(project(sols_p, set(red.rename_dict().values())))
        if (
            pulled != oracle
            or len(sols_p) != len(oracle)
            or count(red.query, red.database) != len(oracle)
        ):
            failures += 1
    return failures == 0, f"{goal - failures}/{goal} instances sound"


def criterion_10_reduction_blowup(rng, quick=False) -> tuple[bool, str]:
    """Per-step database growth stays within 8 * degree of the source."""
    goal = 20 if quick else 100
    worst = 0.0
    steps_measured = 0
    for _ in range(goal):
        q, d, h, seq = _reduction_instance(rng)
        red = reduce_along_dilution(q, d, h, seq)
        deg = max(1, h.max_degree())
        for before, after in zip(red.step_sizes, red.step_sizes[1:]):
            if before == 0:
                if after != 0:
                    worst = float("inf")
                continue
            steps_measured += 1
            worst = max(worst, after / (deg * before))
    return (
        worst <= 8,
        f"max growth {worst:.2f} x degree over {steps_measured} steps (C <= 8)",
    )


def criterion_11_prejigsaw_suite(rng, quick=False) -> tuple[bool, str]:
    """Jigsaws are pre-jigsaws; subdivided ones validate and collapse back."""
    checks = 0
    failures = 0
    for n in range(1, 5):
        for m in range(1, 5):
            if n * m < 2:
                continue
            checks += 1
            witness = trivial_prejigsaw_witness(n, m)
            if not validate_prejigsaw(jigsaw(n, m), n, m, witness).valid:
                failures += 1
    for k in range(0, 3):
        checks += 1
        h, witness = subdivided_jigsaw(2, 2, k)
        report = validate_prejigsaw(h, 2, 2, witness)
        seq = prejigsaw_to_jigsaw(h, witness)
        ok, _ = verify_dilution(h, seq, jigsaw(2, 2))
        if not (report.valid and ok):
            failures += 1
    return failures == 0, f"{checks - failures}/{checks} pre-jigsaw checks"


def _known_core_queries():
    """Hand-built queries paired with their expected core atom counts."""
    Q = ConjunctiveQuery.of
    return [
        (Q([("R", ("x", "y")), ("R", ("y", "y"))]), 1),
        (Q([("R", ("x", "y")), ("R", ("u", "v"))]), 1),
        (Q([("R", ("x", "y")), ("S", ("y", "z"))]), 2),
        (Q([("R", ("x", "y")), ("R", ("y", "z")), ("R", ("z", "x"))]), 3),
        (Q([("R", ("x", "y")), ("R", ("y", "z")), ("R", ("u", "u"))]), 1),
        (Q([("E", ("a", "b")), ("E", ("b", "c")), ("E", ("c", "d"))]), 3),
        (Q([("R", ("x", "x")), ("S", ("x", "y"))]), 2),
        (Q([("R", ("x", "y")), ("S", ("y", "x")), ("R", ("u", "v")), ("S", ("v", "u"))]), 2),
        (query_from_hypergraph(jigsaw(2, 2)), 4),
        (Q([("R", ("a", "b")), ("R", ("b", "a")), ("R", ("c", "c"))]), 1),
    ]


def _brute_core_size(q: ConjunctiveQuery) -> int:
    """Smallest subquery admitting a homomorphism from q (subset oracle)."""
    uniq = sorted(set(q.atoms), key=lambda a: (a.relation, a.args))
    for size in range(1, len(uniq) + 1):
        for combo in itertools.combinations(uniq, size):
            if _homomorphism(q.atoms, combo) is not None:
                return size
    return len(uniq)


def criterion_12_core_and_semantic_width(rng, quick=False) -> tuple[bool, str]:
    """Cores match the subset oracle; semantic width equals the core's width."""
    goal = 15 if quick else 50
    cases = list(_known_core_queries())
    symbols = ["R", "S"]
    while len(cases) < goal:
        variables = ["x", "y", "z", "u"][: rng.randint(2, 4)]
        atoms = []
        for _ in range(rng.randint(1, 4)):
            atoms.append(
                (rng.choice(symbols), tuple(rng.choice(variables) for _ in range(2)))
            )
        try:
            q = ConjunctiveQuery.of(atoms)
        except InvalidInputError:
            continue
        cases.append((q, _brute_core_size(q)))
    failures = 0
    for q, expected_atoms in cases[:goal]:
        core = compute_core(q)
        if len(core.atoms) != expected_atoms:
            failures += 1
            continue
        if not homomorphically_equivalent(q, core):
            failures += 1
            continue
        want = exact_ghw(hypergraph_of(core))[0].width
        if semantic_ghw(q).width != want:
            failures += 1
    return failures == 0, f"{goal - failures}/{goal} cores and widths agree"


CRITERIA = (
    (1, "dual-involution", criterion_1_dual_involution),
    (2, "ghw-monotone-under-dilution", criterion_2_ghw_monotone),
    (3, "dual-treewidth-bound", criterion_3_dual_width_bound),
    (4, "merge-transform", criterion_4_merge_transform),
    (5, "jigsaw-extraction", criterion_5_jigsaw_extraction),
    (6, "packaged-mesh-sequence", criterion_6_packaged_mesh_sequence),
    (7, "degree2-minor-dilution-equivalence", criterion_7_degree2_equivalence),
    (8, "jigsaw-lower-bound", criterion_8_jigsaw_lower_bound),
    (9, "reduction-soundness", criterion_9_reduction_soundness),
    (10, "reduction-blowup", criterion_10_reduction_blowup),
    (11, "prejigsaw-suite", criterion_11_prejigsaw_suite),
    (12, "core-and-semantic-width", criterion_12_core_and_semantic_width),
)


def run_suite(only=None, quick=False, seed=DEFAULT_SEED) -> list[CriterionResult]:
    results = []
    for ident, name, fn in CRITERIA:
        if only is not None and ident not in only:
            continue
        rng = random.Random(seed + ident)
        passed, detail = fn(rng, quick=quick)
        results.append(CriterionResult(ident, name, passed, detail))
    return results
