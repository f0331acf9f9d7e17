"""The plans behind ``count``, ``evaluate`` and ``reduce_along_dilution``.

A query plan is kept per query and a reduction plan per (query, source,
sequence, relation names), each in a small cache.  The reference below is
the reduction as it ran before it was planned: every call walked the
sequence, matched the query to its result and rebuilt query and database
together, one reverse step at a time.  The planned reduction must return
an equal ``DilutionReduction`` and raise the same errors in the same order.
"""

import itertools
import random

import pytest

from hgdilute import cq
from hgdilute.acceptance import _reduction_instance
from hgdilute.cq import (
    _FRESH_RE,
    Atom,
    ConjunctiveQuery,
    Database,
    DilutionReduction,
    _atom_by_edge,
    _columns,
    _fresh_constant,
    count,
    eliminate_self_joins,
    evaluate,
    hypergraph_of,
    query_from_hypergraph,
    reduce_along_dilution,
    rename_query,
)
from hgdilute.dilution import (
    DeleteSubedge,
    DeleteVertex,
    DilutionSequence,
    _walk,
    apply_sequence,
    reduce_hypergraph,
)
from hgdilute.errors import ConstructionError, InvalidInputError
from hgdilute.generators import grid, mesh
from hgdilute.hypergraph import Hypergraph, dual, edge_key, isomorphic
from hgdilute.minors import extend_to_onto, find_minor, jigsaw_from_grid_minor


# -- the reference: the reduction worked out again on every call ---------------


def ref_relations(q, d):
    rels = d.relations_dict()
    q.relation_arities()
    for a in q.atoms:
        if a.relation not in rels:
            raise InvalidInputError(f"unknown relation {a.relation}")
        if set(map(len, rels[a.relation])) - {len(a.args)}:
            raise InvalidInputError(f"relation {a.relation} arity mismatch with query")
    return rels


def ref_reduce_along_dilution(q, d, h, seq):
    for a in q.atoms:
        if len(set(a.args)) != len(a.args):
            raise InvalidInputError(f"atom {a.relation} repeats a variable")
    for c in d.active_domain():
        if _FRESH_RE.match(c):
            raise InvalidInputError(f"constant {c!r} collides with reserved tokens")
    q1, d1 = eliminate_self_joins(q, d)
    _atom_by_edge(q1)
    states, images = _walk(h, seq)
    wit = isomorphic(hypergraph_of(q1), states[-1])
    if wit is None:
        raise InvalidInputError(
            "hypergraph of the query is not isomorphic to the sequence result"
        )
    ref_relations(q, d)
    rename = wit.as_dict()
    cur_q = rename_query(q1, rename)
    referenced = {a.relation for a in cur_q.atoms}
    rels = d1.relations_dict()
    cur_d = Database.of({s: rows for s, rows in rels.items() if s in referenced})
    symgen = (f"P{i}" for i in itertools.count(1) if f"P{i}" not in rels)
    sizes = [cur_d.size()]
    for step, image in zip(reversed(seq.steps), reversed(images)):
        cur_q, cur_d = ref_reverse_step(cur_q, cur_d, step, image, symgen)
        sizes.append(cur_d.size())
    if hypergraph_of(cur_q) != Hypergraph.make(states[0].edges):
        raise ConstructionError("reversal did not rebuild the source hypergraph")
    return DilutionReduction(cur_q, cur_d, tuple(sorted(rename.items())), tuple(sizes))


def ref_reverse_step(q, d, step, image, symgen):
    atoms = _atom_by_edge(q)
    rels = d.relations_dict()
    if isinstance(step, DeleteSubedge):
        f = step.edge
        host = atoms[image[f]]
        pos = {var: i for i, var in enumerate(host.args)}
        args = tuple(sorted(f))
        cols = _columns([pos[var] for var in args])
        sym = next(symgen)
        new_rels = dict(rels)
        new_rels[sym] = tuple(sorted(set(map(cols, rels[host.relation]))))
        return ConjunctiveQuery(tuple(q.atoms) + (Atom(sym, args),)), Database.of(new_rels)
    v = step.vertex
    new_atoms, new_rels, incident = [], {}, []
    for e in sorted(image, key=edge_key):
        if v in e:
            incident.append(e)
        else:
            new_atoms.append(atoms[e])
            new_rels[atoms[e].relation] = rels[atoms[e].relation]
    if isinstance(step, DeleteVertex):
        for e in incident:
            base = atoms[image[e]]
            sym = next(symgen)
            new_atoms.append(Atom(sym, base.args + (v,)))
            new_rels[sym] = tuple(row + (_fresh_constant(0),) for row in rels[base.relation])
        return ConjunctiveQuery(tuple(new_atoms)), Database.of(new_rels)
    base = atoms[image[incident[0]]]
    extended = [
        row + (_fresh_constant(i),) for i, row in enumerate(rels[base.relation], 1)
    ]
    pos = {var: i for i, var in enumerate(base.args)}
    pos[v] = len(base.args)
    for e in incident:
        args = tuple(sorted(e, key=lambda var: (var == v, var)))
        cols = _columns([pos[var] for var in args])
        sym = next(symgen)
        new_atoms.append(Atom(sym, args))
        new_rels[sym] = tuple(sorted(set(map(cols, extended))))
    return ConjunctiveQuery(tuple(new_atoms)), Database.of(new_rels)


def outcome(fn, *args):
    """The result of fn, or the type and text of the input error it raised."""
    try:
        return "ok", fn(*args)
    except InvalidInputError as err:
        return type(err).__name__, str(err)


def assert_matches_reference(q, d, h, seq):
    got = outcome(reduce_along_dilution, q, d, h, seq)
    assert got == outcome(ref_reduce_along_dilution, q, d, h, seq)
    return got


# -- inputs -----------------------------------------------------------------


def random_database(q, rng, domain=4, rows=(16, 20)):
    dom = [str(i) for i in range(1, domain + 1)]
    return Database.of(
        {
            a.relation: {
                tuple(rng.choice(dom) for _ in a.args)
                for _ in range(rng.randint(*rows))
            }
            for a in q.atoms
        }
    )


def jigsaw_reductions():
    """The benchmark's cq-count shapes: jigsaw(2,2), (2,3) and (3,2) queries,
    each with its sequence from mesh(3,3)."""
    h = mesh(3, 3)
    d = dual(reduce_hypergraph(h)[0])
    out = []
    for a, b in [(2, 2), (2, 3), (3, 2)]:
        g = grid(a, b)
        seq = jigsaw_from_grid_minor(h, g, extend_to_onto(g, d, find_minor(g, d)))
        out.append((query_from_hypergraph(apply_sequence(h, seq)), h, seq))
    return out


def with_self_join(q):
    """q with every atom of the first atom's arity renamed to its relation."""
    first = q.atoms[0]
    return ConjunctiveQuery(
        tuple(
            Atom(first.relation, a.args) if len(a.args) == len(first.args) else a
            for a in q.atoms
        )
    )


@pytest.fixture
def empty_plans():
    cq._query_plans.cache_clear()
    cq._reduction_plans.cache_clear()
    yield
    cq._query_plans.cache_clear()
    cq._reduction_plans.cache_clear()


# -- the planned reduction against the reference ----------------------------------


class TestReductionMatchesReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_criterion_9_instances(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            assert_matches_reference(*_reduction_instance(rng))

    def test_jigsaw_shapes_over_mesh(self):
        rng = random.Random(31)
        for q, h, seq in jigsaw_reductions():
            assert len(seq) > 0
            for _ in range(3):
                kind, red = assert_matches_reference(q, random_database(q, rng), h, seq)
                assert kind == "ok" and len(red.step_sizes) == len(seq) + 1

    @pytest.mark.parametrize("seed", range(6))
    def test_self_joins(self, seed):
        rng = random.Random(seed)
        joined = 0
        for _ in range(40):
            q, d, h, seq = _reduction_instance(rng)
            q2 = with_self_join(q)
            if len({a.relation for a in q2.atoms}) == len(q2.atoms):
                continue
            joined += 1
            d2 = random_database(q2, rng, domain=3, rows=(0, 6))
            assert_matches_reference(q2, d2, h, seq)
        assert joined

    def test_jigsaw_self_join(self):
        rng = random.Random(5)
        for q, h, seq in jigsaw_reductions():
            q2 = with_self_join(q)
            kind, _ = assert_matches_reference(q2, random_database(q2, rng), h, seq)
            assert kind == "ok"

    def test_fresh_symbols_follow_the_database_names(self, empty_plans):
        q, h, seq = jigsaw_reductions()[0]
        rng = random.Random(2)
        d = random_database(q, rng)
        # the same rows with one more relation, named as the first fresh symbol
        d_p1 = Database.of({**d.relations_dict(), "P1": [("a",)]})
        plain = assert_matches_reference(q, d, h, seq)[1]
        taken = assert_matches_reference(q, d_p1, h, seq)[1]
        assert cq._reduction_plans.cache_info().misses == 2

        def made(red):
            return {a.relation for a in red.query.atoms} - {a.relation for a in q.atoms}

        # the i-th fresh symbol is P<i> beside d and P<i+1> beside d_p1
        assert made(taken) == {f"P{int(s[1:]) + 1}" for s in made(plain)}
        assert "P1" not in made(taken)
        assert count(plain.query, plain.database) == count(taken.query, taken.database)

    @pytest.mark.parametrize("seed", range(3))
    def test_rejections_in_the_same_order(self, seed):
        # every check, each alone and several at once
        rng = random.Random(seed)
        q, h, seq = jigsaw_reductions()[1]
        d = random_database(q, rng).relations_dict()
        width = {a.relation: len(a.args) for a in q.atoms}
        pair = next(r for r, n in width.items() if n == 2)
        other = Hypergraph.make([{"a", "b"}])
        queries = (
            q,
            ConjunctiveQuery(q.atoms + (Atom("E1", ("x",)),)),
            ConjunctiveQuery((Atom("R", ("x", "x")),) + q.atoms),
            # one symbol at two arities: the match holds, as self-joins split
            ConjunctiveQuery(tuple(Atom(pair, a.args) for a in q.atoms)),
        )
        bad_rows = (
            {},
            {"E1": [("_fresh_3",) * width["E1"]]},
            {"E2": [("1",) * (width["E2"] + 1)]},
        )
        seen = set()
        for drop, rows, query, host in itertools.product(
            (None, "E2"), bad_rows, queries, (h, other)
        ):
            rels = {**d, **rows}
            rels.pop(drop, None)
            seq_for = seq if host is h else DilutionSequence.for_source(other, ())
            kind, got = assert_matches_reference(query, Database.of(rels), host, seq_for)
            seen.add(kind if kind == "ok" else " ".join(w for w in got.split() if w.islower()))
        assert len(seen) == 7, seen  # a success and each of the six rejections


# -- how the plans are kept -----------------------------------------------------


class TestPlanCaches:
    def test_equal_queries_share_one_plan(self, empty_plans):
        h = grid(2, 3)
        rng = random.Random(4)
        dbs = [random_database(query_from_hypergraph(h), rng, rows=(3, 6)) for _ in range(10)]
        # each query is built anew, equal to the others
        counts = [count(query_from_hypergraph(h), d) for d in dbs]
        info = cq._query_plans.cache_info()
        assert (info.misses, info.hits) == (1, 9)
        assert counts == [len(evaluate(query_from_hypergraph(h), d)) for d in dbs]

    def test_atoms_with_list_args_are_planned(self, empty_plans):
        q = ConjunctiveQuery((Atom("R", ["x", "y"]), Atom("S", ["y", "z"])))
        d = Database.of({"R": [("1", "2"), ("3", "2")], "S": [("2", "4")]})
        assert count(q, d) == 2
        assert count(ConjunctiveQuery.of([("R", "xy"), ("S", "yz")]), d) == 2
        assert cq._query_plans.cache_info().misses == 1

    def test_failed_query_plan_raises_every_time(self, empty_plans):
        bad = ConjunctiveQuery((Atom("R", ("x",)), Atom("R", ("x", "y"))))
        d = Database.of({"R": [("1",)]})
        message = "^relation R used with inconsistent arities$"
        for _ in range(2):
            with pytest.raises(InvalidInputError, match=message):
                count(bad, d)
            with pytest.raises(InvalidInputError, match=message):
                evaluate(bad, d)
        assert cq._query_plans.cache_info().currsize == 0
        good = ConjunctiveQuery((Atom("R", ("x",)),))
        assert count(good, d) == 1

    def test_failed_reduction_plan_raises_every_time(self, empty_plans):
        q, h, seq = jigsaw_reductions()[0]
        d = random_database(q, random.Random(8))
        path = Hypergraph.make([{"a", "b"}, {"b", "c"}])
        no_iso = DilutionSequence.for_source(path, ())
        message = "^hypergraph of the query is not isomorphic to the sequence result$"
        for _ in range(2):
            with pytest.raises(InvalidInputError, match=message):
                reduce_along_dilution(q, d, path, no_iso)
        # a binary and a ternary atom under one symbol: the match holds, as
        # the self-join is split, and the arities fail after it
        q3, h3, seq3 = jigsaw_reductions()[1]
        pair = next(a.relation for a in q3.atoms if len(a.args) == 2)
        arity = ConjunctiveQuery(
            tuple(Atom(pair, a.args) if len(a.args) == 3 else a for a in q3.atoms)
        )
        d3 = random_database(q3, random.Random(8))
        message = f"^relation {pair} used with inconsistent arities$"
        for _ in range(2):
            with pytest.raises(InvalidInputError, match=message):
                reduce_along_dilution(arity, d3, h3, seq3)
            assert outcome(reduce_along_dilution, arity, d3, h3, seq3) == outcome(
                ref_reduce_along_dilution, arity, d3, h3, seq3
            )
        assert cq._reduction_plans.cache_info().currsize == 0
        assert reduce_along_dilution(q, d, h, seq) == ref_reduce_along_dilution(q, d, h, seq)
        assert cq._reduction_plans.cache_info().currsize == 1

    def test_a_plan_holds_no_rows(self, empty_plans):
        q, h, seq = jigsaw_reductions()[2]
        rng = random.Random(9)
        dom = [str(i) for i in range(20)]
        one = Database.of({a.relation: [("1",) * len(a.args)] for a in q.atoms})
        rels = {}
        for a in q.atoms:
            rows = rels[a.relation] = set()
            while len(rows) < 200:
                rows.add(tuple(rng.choice(dom) for _ in a.args))
        many = Database.of(rels)
        for d in (one, many, one):
            assert reduce_along_dilution(q, d, h, seq) == ref_reduce_along_dilution(q, d, h, seq)
        info = cq._reduction_plans.cache_info()
        assert (info.misses, info.hits) == (1, 2)
