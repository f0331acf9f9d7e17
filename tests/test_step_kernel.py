"""The step kernel and the three readers of its edge image.

``dilution._step`` is the one place that says what a dilution step does to
each edge.  Edge labels (``track_labels``), the CQ reduction
(``reduce_along_dilution``) and the merge transform (``merge_transform``)
read its image.  The references below are those three functions as they were
when each worked the step out for itself, on named step functions of their
own, so the tests pin the readers to the same outputs.
"""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgdilute import dilution
from hgdilute.cq import (
    Atom,
    ConjunctiveQuery,
    Database,
    DilutionReduction,
    _FRESH_RE,
    _atom_by_edge,
    _fresh_constant,
    eliminate_self_joins,
    hypergraph_of,
    query_from_hypergraph,
    reduce_along_dilution,
    rename_query,
)
from hgdilute.decomposition import (
    GHDecomposition,
    TreeDecomposition,
    exact_ghw,
    merge_transform,
    validate_ghd,
)
from hgdilute.dilution import (
    DeleteSubedge,
    DeleteVertex,
    DilutionSequence,
    MergeOn,
    apply_sequence,
    apply_sequence_states,
    apply_step,
    track_labels,
    valid_steps,
)
from hgdilute.errors import ConstructionError, InvalidInputError, InvalidStepError
from hgdilute.formats import write_database, write_query
from hgdilute.hypergraph import Hypergraph, edge_key, isomorphic

from conftest import sample_hypergraph


def H(*edges, extra=()):
    return Hypergraph.make([set(e) for e in edges], vertices=extra)


# -- references: each reader working the step out for itself -------------------


def ref_apply_step(h, step):
    if isinstance(step, DeleteVertex):
        v = step.vertex
        if v not in h.vertices:
            raise InvalidStepError(f"cannot delete unknown vertex {v!r}")
        return Hypergraph(h.vertices - {v}, frozenset(e - {v} for e in h.edges))
    if isinstance(step, DeleteSubedge):
        e = frozenset(step.edge)
        if e not in h.edges:
            raise InvalidStepError(f"edge {sorted(e)} not present")
        if not any(e < f for f in h.edges):
            raise InvalidStepError(
                f"edge {sorted(e)} is not a proper subset of another edge"
            )
        return Hypergraph(h.vertices, h.edges - {e})
    if isinstance(step, MergeOn):
        v = step.vertex
        if v not in h.vertices:
            raise InvalidStepError(f"cannot merge on unknown vertex {v!r}")
        incident = h._incidence[v]
        if not incident:
            raise InvalidStepError(f"vertex {v!r} has degree 0, nothing to merge")
        merged = frozenset().union(*incident) - {v}
        return Hypergraph(h.vertices - {v}, (h.edges - incident) | {merged})
    raise InvalidStepError(f"unknown step {step!r}")


def ref_states(h, seq):
    states = [h]
    for step in seq:
        states.append(ref_apply_step(states[-1], step))
    return states


def ref_track_labels(h_src, seq):
    states = ref_states(h_src, seq)
    labels = {e: frozenset([e]) for e in h_src.edges}
    for step, cur in zip(seq, states):
        if isinstance(step, DeleteVertex):
            new_labels = {}
            for e, lab in labels.items():
                shrunk = e - {step.vertex}
                new_labels[shrunk] = new_labels.get(shrunk, frozenset()) | lab
            labels = new_labels
        elif isinstance(step, DeleteSubedge):
            supers = sorted((f for f in cur.edges if step.edge < f), key=edge_key)
            host = supers[0]
            dropped = labels.pop(step.edge)
            labels[host] = labels[host] | dropped
        else:
            incident = cur._incidence[step.vertex]
            merged = frozenset().union(*incident) - {step.vertex}
            union = frozenset().union(*(labels.pop(e) for e in incident))
            labels[merged] = labels.get(merged, frozenset()) | union
    assert set(labels) == set(states[-1].edges)
    return tuple(sorted(labels.items(), key=lambda kv: edge_key(kv[0])))


def ref_reduce_along_dilution(q, d, h, seq):
    for a in q.atoms:
        if len(set(a.args)) != len(a.args):
            raise InvalidInputError(f"atom {a.relation} repeats a variable")
    for c in d.active_domain():
        if _FRESH_RE.match(c):
            raise InvalidInputError(f"constant {c!r} collides with reserved tokens")
    q1, d1 = eliminate_self_joins(q, d)
    states = ref_states(h, seq)
    wit = isomorphic(hypergraph_of(q1), states[-1])
    if wit is None:
        raise InvalidInputError(
            "hypergraph of the query is not isomorphic to the sequence result"
        )
    rename = wit.as_dict()
    cur_q = rename_query(q1, rename)
    referenced = {a.relation for a in cur_q.atoms}
    rels = d1.relations_dict()
    cur_d = Database.of({s: rows for s, rows in rels.items() if s in referenced})
    symgen = (f"P{i}" for i in itertools.count(1) if f"P{i}" not in rels)
    sizes = [cur_d.size()]
    for idx in range(len(seq.steps) - 1, -1, -1):
        cur_q, cur_d = ref_reverse_step(cur_q, cur_d, states[idx], seq.steps[idx], symgen)
        sizes.append(cur_d.size())
    assert hypergraph_of(cur_q) == Hypergraph.make(states[0].edges)
    return DilutionReduction(cur_q, cur_d, tuple(sorted(rename.items())), tuple(sizes))


def ref_reverse_step(q, d, prev_h, step, symgen):
    atoms = _atom_by_edge(q)
    rels = d.relations_dict()
    if isinstance(step, DeleteVertex):
        v = step.vertex
        incident = sorted(prev_h._incidence[v], key=edge_key)
        new_atoms, new_rels = [], {}
        for f in sorted(prev_h.edges, key=edge_key):
            if v in f:
                continue
            a = atoms[f]
            new_atoms.append(a)
            new_rels[a.relation] = rels[a.relation]
        for e in incident:
            base = atoms[e - {v}]
            sym = next(symgen)
            new_atoms.append(Atom(sym, base.args + (v,)))
            new_rels[sym] = tuple(
                sorted(row + (_fresh_constant(0),) for row in rels[base.relation])
            )
        return ConjunctiveQuery(tuple(new_atoms)), Database.of(new_rels)
    if isinstance(step, MergeOn):
        v = step.vertex
        incident = sorted(prev_h._incidence[v], key=edge_key)
        merged = frozenset().union(*incident) - {v}
        base = atoms[merged]
        rows = sorted(rels[base.relation])
        extended = [row + (_fresh_constant(i + 1),) for i, row in enumerate(rows)]
        pos = {var: i for i, var in enumerate(base.args)}
        pos[v] = len(base.args)
        new_atoms, new_rels = [], {}
        for f in sorted(prev_h.edges, key=edge_key):
            if f in atoms and v not in f:
                a = atoms[f]
                new_atoms.append(a)
                new_rels[a.relation] = rels[a.relation]
        for e in incident:
            args = tuple(sorted(e - {v})) + (v,)
            cols = [pos[var] for var in args]
            sym = next(symgen)
            new_atoms.append(Atom(sym, args))
            new_rels[sym] = tuple(sorted({tuple(row[c] for c in cols) for row in extended}))
        return ConjunctiveQuery(tuple(new_atoms)), Database.of(new_rels)
    f = step.edge
    supers = sorted((e for e in prev_h.edges if f < e), key=edge_key)
    host = atoms[supers[0]]
    pos = {var: i for i, var in enumerate(host.args)}
    args = tuple(sorted(f))
    cols = [pos[var] for var in args]
    sym = next(symgen)
    new_rels = dict(rels)
    new_rels[sym] = tuple(sorted({tuple(row[c] for c in cols) for row in rels[host.relation]}))
    return ConjunctiveQuery(tuple(q.atoms) + (Atom(sym, args),)), Database.of(new_rels)


def ref_merge_transform(h, ghd, v):
    ok, why = validate_ghd(h, ghd)
    if not ok:
        raise InvalidInputError(f"input decomposition invalid: {why}")
    if v not in h.vertices:
        raise InvalidInputError(f"unknown vertex {v!r}")
    incident = h._incidence[v]
    if not incident:
        raise InvalidInputError(f"vertex {v!r} has degree 0, nothing to merge")
    merged = frozenset().union(*incident) - {v}
    new_bags = [(n, (b - {v}) | merged if v in b else b) for n, b in ghd.td.bags]
    new_covers = [
        (n, (lam - incident) | {merged} if lam & incident else lam)
        for n, lam in ghd.covers
    ]
    out = GHDecomposition(
        TreeDecomposition(ghd.td.nodes, ghd.td.parents, tuple(new_bags)),
        tuple(new_covers),
    )
    ok, why = validate_ghd(ref_apply_step(h, MergeOn(v)), out)
    if not ok:
        raise ConstructionError(f"merge transform produced invalid decomposition: {why}")
    return out


# -- inputs -------------------------------------------------------------------


@st.composite
def hosts(draw):
    """Connected samples, or up to 6 vertices with empty, singleton and
    isolated parts."""
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 10**6)))
        return sample_hypergraph(rng, max_vertices=6, max_edges=5, max_rank=4)
    verts = sorted(draw(st.sets(st.sampled_from("abcdef"))))
    edge = st.sets(st.sampled_from(verts)) if verts else st.just(set())
    return Hypergraph.make(draw(st.lists(edge, max_size=5)), verts)


def random_sequence(h, rng, max_steps=5):
    steps, cur = [], h
    for _ in range(rng.randint(0, max_steps)):
        options = valid_steps(cur)
        if not options:
            break
        steps.append(rng.choice(options))
        cur = ref_apply_step(cur, steps[-1])
    return DilutionSequence.for_source(h, steps), cur


def random_database(q, rng):
    return Database.of(
        {
            a.relation: {
                tuple(rng.choice("123") for _ in a.args) for _ in range(rng.randint(0, 5))
            }
            for a in q.atoms
        }
    )


def outcome(fn, *args):
    """The result of fn, or the type and text of the input error it raised."""
    try:
        return "ok", fn(*args)
    except InvalidInputError as err:
        return type(err).__name__, str(err)


def written(result):
    """A reduction as the CLI writes it, plus its rename and sizes."""
    kind, red = result
    if kind != "ok":
        return result
    return write_query(red.query), write_database(red.database), red.rename, red.step_sizes


# a vertex deletion that folds two edges into one; a merge whose union is an
# edge already present; a subedge with two superedges of the same size
NAMED = {
    "deletion-folds-two-edges": (H("ab", "a"), (DeleteVertex("b"),)),
    "merge-onto-present-edge": (H("av", "bv", "ab"), (MergeOn("v"),)),
    "subedge-two-equal-superedges": (H("a", "ab", "ac"), (DeleteSubedge(frozenset("a")),)),
}


class TestLabelsMatchReference:
    def test_named_cases(self):
        expect = {
            "deletion-folds-two-edges": {frozenset("a"): {frozenset("ab"), frozenset("a")}},
            "merge-onto-present-edge": {
                frozenset("ab"): {frozenset("av"), frozenset("bv"), frozenset("ab")}
            },
            "subedge-two-equal-superedges": {
                frozenset("ab"): {frozenset("ab"), frozenset("a")},
                frozenset("ac"): {frozenset("ac")},
            },
        }
        for name, (h, steps) in NAMED.items():
            seq = DilutionSequence.for_source(h, steps)
            assert track_labels(h, seq).labels == ref_track_labels(h, seq), name
            assert track_labels(h, seq).as_dict() == expect[name], name

    @given(hosts(), st.integers(0, 10**6))
    @settings(max_examples=150)
    def test_random_sequences(self, h, seed):
        seq, _ = random_sequence(h, random.Random(seed))
        assert track_labels(h, seq).labels == ref_track_labels(h, seq)


class TestReductionMatchesReference:
    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_named_cases(self, name):
        h, steps = NAMED[name]
        seq = DilutionSequence.for_source(h, steps)
        q = query_from_hypergraph(ref_states(h, seq)[-1])
        d = random_database(q, random.Random(name))
        got = outcome(reduce_along_dilution, q, d, h, seq)
        assert got[0] == "ok"
        assert written(got) == written(outcome(ref_reduce_along_dilution, q, d, h, seq))

    @given(hosts(), st.integers(0, 10**6))
    @settings(max_examples=150)
    def test_random_sequences(self, h, seed):
        rng = random.Random(seed)
        seq, target = random_sequence(h, rng)
        q = query_from_hypergraph(target)
        d = random_database(q, rng)
        assert written(outcome(reduce_along_dilution, q, d, h, seq)) == written(
            outcome(ref_reduce_along_dilution, q, d, h, seq)
        )


class TestMergeTransformMatchesReference:
    @given(hosts())
    @settings(max_examples=100)
    def test_every_vertex_of_a_witness(self, h):
        _, ghd = exact_ghw(h)
        for v in sorted(h.vertices) + ["zz"]:
            assert outcome(merge_transform, h, ghd, v) == outcome(
                ref_merge_transform, h, ghd, v
            ), v

    def test_merge_onto_present_edge(self):
        h = H("av", "bv", "ab", "bc")
        _, ghd = exact_ghw(h)
        assert merge_transform(h, ghd, "v") == ref_merge_transform(h, ghd, "v")

    def test_invalid_witness_rejected_the_same_way(self):
        h = H("ab", "bc")
        td = TreeDecomposition(("t1",), (("t1", None),), (("t1", frozenset("abc")),))
        bad = GHDecomposition(td, (("t1", frozenset([frozenset("ab")])),))
        for v in ("b", "zz"):
            got = outcome(merge_transform, h, bad, v)
            assert got == outcome(ref_merge_transform, h, bad, v)
            assert got[0] == "InvalidInputError"


def invalid_steps(h):
    """Steps of each kind that do not apply to h."""
    yield DeleteVertex("zz")
    yield MergeOn("zz")
    yield DeleteSubedge(frozenset({"zz"}))
    for e in sorted(h.edges, key=edge_key):
        if not any(e < f for f in h.edges):
            yield DeleteSubedge(e)
    for v in sorted(h.vertices):
        if not h._incidence[v]:
            yield MergeOn(v)
    yield "delv a"


class TestStepKernel:
    @given(hosts())
    def test_image_and_child(self, h):
        for step in valid_steps(h):
            child, image = dilution._step(h, step)
            assert image.keys() == h.edges
            assert frozenset(image.values()) == child.edges
            assert child == ref_apply_step(h, step) == apply_step(h, step)

    @given(hosts(), st.integers(0, 10**6))
    def test_invalid_steps_raise_with_index(self, h, seed):
        seq, cur = random_sequence(h, random.Random(seed))
        assert apply_sequence_states(h, seq) == ref_states(h, seq)
        for bad in invalid_steps(cur):
            with pytest.raises(InvalidStepError) as want:
                ref_apply_step(cur, bad)
            with pytest.raises(InvalidStepError) as got:
                apply_step(cur, bad)
            assert (str(got.value), got.value.index) == (str(want.value), None)
            with pytest.raises(InvalidStepError) as got:
                apply_sequence(h, seq.then([bad]))
            assert got.value.index == len(seq)
            assert str(got.value) == f"step {len(seq) + 1}: {want.value}"

    @pytest.mark.parametrize(
        "h, step, text",
        [
            (H("ab"), DeleteVertex("z"), "cannot delete unknown vertex 'z'"),
            (H("ab"), DeleteSubedge(frozenset("a")), "edge ['a'] not present"),
            (
                H("ab", "bc"),
                DeleteSubedge(frozenset("ab")),
                "edge ['a', 'b'] is not a proper subset of another edge",
            ),
            (H("ab"), MergeOn("z"), "cannot merge on unknown vertex 'z'"),
            (H("ab", extra="z"), MergeOn("z"), "vertex 'z' has degree 0, nothing to merge"),
        ],
    )
    def test_messages(self, h, step, text):
        with pytest.raises(InvalidStepError, match=f"^{re.escape(text)}$"):
            apply_step(h, step)
        with pytest.raises(InvalidStepError, match=f"^step 1: {re.escape(text)}$"):
            apply_sequence(h, DilutionSequence((step,)))
