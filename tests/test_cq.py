import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgdilute.cq import (
    Assignment,
    ConjunctiveQuery,
    Database,
    compute_core,
    count,
    eliminate_self_joins,
    evaluate,
    homomorphically_equivalent,
    hypergraph_of,
    project,
    query_from_hypergraph,
    reduce_along_dilution,
    rename_query,
    semantic_ghw,
    _elimination_order,
)
from hgdilute.decomposition import exact_ghw
from hgdilute.dilution import (
    DilutionSequence,
    MergeOn,
    apply_sequence,
    apply_step,
    valid_steps,
)
from hgdilute.errors import InvalidInputError, LimitExceededError
from hgdilute.generators import jigsaw, mesh
from hgdilute.hypergraph import Hypergraph, isomorphic
from hgdilute.minors import decide_dilution

from conftest import sample_hypergraph


def Q(*atoms):
    return ConjunctiveQuery.of(atoms)


def brute_solutions(q, d):
    """All-assignments oracle, independent of the join pipeline."""
    rels = d.relations_dict()
    dom = sorted(d.active_domain())
    vs = q.variables()
    out = set()
    for combo in itertools.product(dom, repeat=len(vs)):
        a = dict(zip(vs, combo))
        if all(
            tuple(a[v] for v in atom.args) in rels.get(atom.relation, ())
            for atom in q.atoms
        ):
            out.add(Assignment.of(a))
    return frozenset(out)


def random_instance(rng, max_atoms=5, max_dom=4):
    h = sample_hypergraph(rng, max_vertices=6, max_edges=max_atoms)
    q = query_from_hypergraph(h)
    dom = [str(i) for i in range(1, rng.randint(2, max_dom) + 1)]
    rels = {}
    for atom in q.atoms:
        rels[atom.relation] = {
            tuple(rng.choice(dom) for _ in atom.args)
            for _ in range(rng.randint(0, 6))
        }
    return q, Database.of(rels)


seeds = st.integers(min_value=0, max_value=10**6)


@st.composite
def general_instances(draw):
    """Queries beyond query_from_hypergraph: repeated variables inside an
    atom, self-joins (one symbol, several atoms), empty relations, and
    disconnected atoms whose solutions form cross products."""
    variables = draw(
        st.lists(st.sampled_from("xyzuvw"), min_size=1, max_size=5, unique=True)
    )
    arities = {r: draw(st.integers(0, 3)) for r in "RST"}
    atoms = draw(
        st.lists(
            st.sampled_from("RST").flatmap(
                lambda r: st.tuples(
                    st.just(r),
                    st.lists(
                        st.sampled_from(variables),
                        min_size=arities[r],
                        max_size=arities[r],
                    ).map(tuple),
                )
            ),
            min_size=1,
            max_size=5,
        )
    )
    dom = [str(i) for i in range(draw(st.integers(1, 3)))]
    rels = {
        r: draw(
            st.sets(
                st.tuples(*[st.sampled_from(dom)] * arities[r]),
                max_size=6,
            )
        )
        for r in {r for r, _ in atoms}
    }
    return ConjunctiveQuery.of(atoms), Database.of(rels)


class TestHypergraphOf:
    def test_two_atoms(self):
        h = hypergraph_of(Q(("R", "xy"), ("S", "yz")))
        assert h == Hypergraph.make([{"x", "y"}, {"y", "z"}])

    def test_same_variable_set_collapses(self):
        h = hypergraph_of(Q(("R", "xy"), ("S", "xy"), ("T", "xz")))
        assert len(h.edges) == 2

    def test_repeated_variable(self):
        h = hypergraph_of(Q(("R", "xx")))
        assert h.edges == frozenset({frozenset({"x"})})


class TestEvaluate:
    def test_single_atom(self):
        q = Q(("R", "xy"))
        d = Database.of({"R": [("1", "2"), ("3", "4")]})
        sols = evaluate(q, d)
        assert sols == frozenset(
            {
                Assignment.of({"x": "1", "y": "2"}),
                Assignment.of({"x": "3", "y": "4"}),
            }
        )

    def test_triangle(self):
        q = Q(("R", "xy"), ("S", "yz"), ("T", "zx"))
        d = Database.of({"R": [("1", "2")], "S": [("2", "3")], "T": [("3", "1")]})
        assert count(q, d) == 1

    def test_empty_relation(self):
        q = Q(("R", "xy"), ("S", "yz"))
        d = Database.of({"R": [("1", "2")], "S": []})
        assert count(q, d) == 0

    def test_cross_product_count(self):
        q = Q(("R", "x"), ("S", "y"))
        d = Database.of({"R": [("1",), ("2",)], "S": [("1",), ("2",), ("3",)]})
        assert count(q, d) == 6

    def test_unknown_relation(self):
        with pytest.raises(InvalidInputError):
            evaluate(Q(("R", "x")), Database.of({}))

    def test_repeated_var_in_atom(self):
        q = Q(("R", "xx"))
        d = Database.of({"R": [("1", "1"), ("1", "2")]})
        assert count(q, d) == 1

    @given(seeds)
    @settings(max_examples=40)
    def test_agrees_with_brute_force(self, seed):
        rng = random.Random(seed)
        q, d = random_instance(rng)
        assert evaluate(q, d) == brute_solutions(q, d)

    @given(general_instances())
    @settings(max_examples=150)
    def test_general_instances_against_brute_force(self, instance):
        q, d = instance
        oracle = brute_solutions(q, d)
        assert count(q, d) == len(oracle)
        assert evaluate(q, d) == oracle

    def test_nullary_atoms(self):
        q = Q(("R", "x"), ("B", ""))
        yes = {"R": [("1",), ("2",)], "B": [()]}
        assert count(q, Database.of(yes)) == 2
        assert count(q, Database.of({**yes, "B": []})) == 0
        assert evaluate(Q(), Database.of({})) == frozenset({Assignment(())})


class TestDatabase:
    def test_of_accepts_an_iterator_of_pairs(self):
        d = Database.of(iter([("S", [("c",)]), ("R", [("a", "b"), ("a", "b")])]))
        assert d == Database.of({"R": [("a", "b")], "S": [("c",)]})
        assert d.relations == (("R", (("a", "b"),)), ("S", (("c",),)))

    def test_mixed_arities_rejected(self):
        with pytest.raises(InvalidInputError, match="relation R has mixed arities"):
            Database.of({"R": [("1",), ("1", "2")]})


def stepwise_order(scopes):
    """The per-step choice the planned order replaces: the smallest closed
    neighbourhood over the live scopes, ties by name, worked out again from
    every live scope after each elimination."""
    live = [tuple(s) for s in scopes if s]
    order = []
    while live:
        neighbours: dict[str, set[str]] = {}
        for scope in live:
            for v in scope:
                neighbours.setdefault(v, set()).update(scope)
        v = min(neighbours, key=lambda v: (len(neighbours[v]), v))
        order.append(v)
        merged = set().union(*(s for s in live if v in s)) - {v}
        live = [s for s in live if v not in s]
        if merged:
            live.append(tuple(sorted(merged)))
    return order


def atom_scopes(q):
    return [tuple(dict.fromkeys(a.args)) for a in q.atoms]


class TestPlannedOrder:
    @given(general_instances())
    @settings(max_examples=150)
    def test_matches_stepwise_choice(self, instance):
        scopes = atom_scopes(instance[0])
        assert _elimination_order(scopes) == stepwise_order(scopes)

    def test_jigsaw_queries(self):
        rng = random.Random(22)
        for n, m in itertools.product(range(1, 5), repeat=2):
            if n * m < 2:
                continue
            q = query_from_hypergraph(jigsaw(n, m))
            names = list(q.variables())
            fresh = [f"w{i}" for i in range(len(names))]
            rng.shuffle(fresh)
            for q2 in (q, rename_query(q, dict(zip(names, fresh)))):
                scopes = atom_scopes(q2)
                assert _elimination_order(scopes) == stepwise_order(scopes)


class TestFusedCount:
    """Benchmark-sized instances: 16-20 rows a relation over 4 constants, so
    rows reach the fused sum-out with multiplicities above 1."""

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    @pytest.mark.parametrize("seed", range(3))
    def test_count_evaluate_brute_force(self, shape, seed):
        q = query_from_hypergraph(jigsaw(*shape))
        rng = random.Random(seed)
        dom = [str(i) for i in range(1, 5)]
        d = Database.of(
            {
                a.relation: {
                    tuple(rng.choice(dom) for _ in a.args)
                    for _ in range(rng.randint(16, 20))
                }
                for a in q.atoms
            }
        )
        oracle = brute_solutions(q, d)
        assert count(q, d) == len(evaluate(q, d)) == len(oracle) > 0
        assert evaluate(q, d) == oracle


class TestJigsawCount:
    """The jigsaw(3,3) query: 9 atoms over 12 variables, 40 rows per relation
    over a domain of 8.  Listing solutions atom by atom does not finish in
    reasonable time; elimination counts it in milliseconds."""

    @staticmethod
    def instance():
        q = query_from_hypergraph(jigsaw(3, 3))
        rng = random.Random(33)
        dom = [str(i) for i in range(8)]
        rels = {}
        for a in q.atoms:
            rows = set()
            while len(rows) < 40:
                rows.add(tuple(rng.choice(dom) for _ in a.args))
            rels[a.relation] = rows
        return q, Database.of(rels)

    def test_count_matches_evaluate(self):
        q, d = self.instance()
        sols = evaluate(q, d)
        assert count(q, d) == len(sols) > 0
        rels = d.relations_dict()
        for s in sols:
            b = s.as_dict()
            assert all(tuple(b[v] for v in a.args) in rels[a.relation] for a in q.atoms)

    def test_invariant_under_permutation_and_renaming(self):
        q, d = self.instance()
        sols = evaluate(q, d)
        rng = random.Random(7)
        for _ in range(3):
            atoms = list(q.atoms)
            rng.shuffle(atoms)
            names = list(q.variables())
            fresh = [f"w{i}" for i in range(len(names))]
            rng.shuffle(fresh)
            mapping = dict(zip(names, fresh))
            q2 = rename_query(ConjunctiveQuery(tuple(atoms)), mapping)
            assert count(q2, d) == len(sols)
            back = {w: v for v, w in mapping.items()}
            got = frozenset(
                Assignment.of({back[w]: c for w, c in s.as_dict().items()})
                for s in evaluate(q2, d)
            )
            assert got == sols


class TestSelfJoins:
    def test_split(self):
        q = Q(("R", "xy"), ("R", "yz"))
        d = Database.of({"R": [("1", "2"), ("2", "3")]})
        q2, d2 = eliminate_self_joins(q, d)
        assert len({a.relation for a in q2.atoms}) == 2
        assert evaluate(q2, d2) == evaluate(q, d)
        assert hypergraph_of(q2) == hypergraph_of(q)

    def test_identity_when_free(self):
        q = Q(("R", "xy"), ("S", "yz"))
        d = Database.of({"R": [], "S": []})
        assert eliminate_self_joins(q, d) == (q, d)

    @given(seeds)
    @settings(max_examples=20)
    def test_counting_preserved(self, seed):
        rng = random.Random(seed)
        q, d = random_instance(rng, max_atoms=4)
        # force a self join by duplicating the first relation symbol
        if len(q.atoms) >= 2:
            atoms = [(a.relation, a.args) for a in q.atoms]
            atoms[1] = (atoms[0][0], atoms[1][1])
            rels = d.relations_dict()
            rels.pop(q.atoms[1].relation, None)
            try:
                q = ConjunctiveQuery.of(atoms)
            except InvalidInputError:
                return  # arity clash; the draw does not make a self-join
            d = Database.of(rels)
        q2, d2 = eliminate_self_joins(q, d)
        assert count(q2, d2) == count(q, d)


class TestQueryFromHypergraph:
    def test_jigsaw22(self):
        q = query_from_hypergraph(jigsaw(2, 2))
        assert len(q.atoms) == 4
        assert all(len(a.args) == 2 for a in q.atoms)
        assert all(len(set(a.args)) == len(a.args) for a in q.atoms)

    def test_single_ternary(self):
        q = query_from_hypergraph(Hypergraph.make([{"a", "b", "c"}]))
        assert len(q.atoms) == 1 and len(q.atoms[0].args) == 3

    def test_subedge_arities(self):
        q = query_from_hypergraph(Hypergraph.make([{"a"}, {"a", "b"}]))
        assert sorted(len(a.args) for a in q.atoms) == [1, 2]


class TestReduction:
    def test_empty_sequence_round_trip(self):
        h = Hypergraph.make([{"a", "b"}, {"b", "c"}])
        q = query_from_hypergraph(h)
        d = Database.of(
            {"E1": [("1", "2"), ("2", "2")], "E2": [("2", "3")]}
        )
        red = reduce_along_dilution(q, d, h, DilutionSequence.for_source(h, ()))
        sols = evaluate(red.query, red.database)
        assert red.pull_back(project(sols, set(red.rename_dict().values()))) == evaluate(q, d)
        assert len(sols) == count(q, d)

    def test_subdivided_cycle_merge(self):
        # 5-cycle merges one subdivision vertex down to a 4-cycle
        h5 = Hypergraph.make(
            [{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "e"}, {"e", "a"}]
        )
        from hgdilute.dilution import MergeOn

        seq = DilutionSequence.for_source(h5, (MergeOn("e"),))
        h4 = apply_sequence(h5, seq)
        q = query_from_hypergraph(h4)
        rng = random.Random(5)
        rels = {
            a.relation: {
                tuple(rng.choice("123") for _ in a.args) for _ in range(6)
            }
            for a in q.atoms
        }
        d = Database.of(rels)
        red = reduce_along_dilution(q, d, h5, seq)
        assert len(red.query.atoms) == 5
        sols_p = evaluate(red.query, red.database)
        sols_q = evaluate(q, d)
        assert red.pull_back(project(sols_p, set(red.rename_dict().values()))) == sols_q
        assert len(sols_p) == len(sols_q)

    def test_fresh_constant_collision_rejected(self):
        h = Hypergraph.make([{"a", "b"}])
        q = query_from_hypergraph(h)
        d = Database.of({"E1": [("_fresh_0", "x")]})
        with pytest.raises(InvalidInputError):
            reduce_along_dilution(q, d, h, DilutionSequence.for_source(h, ()))

    def test_repeated_variable_rejected(self):
        h = Hypergraph.make([{"a"}])
        q = Q(("R", "xx"))
        d = Database.of({"R": [("1", "1")]})
        with pytest.raises(InvalidInputError):
            reduce_along_dilution(q, d, h, DilutionSequence.for_source(h, ()))

    @staticmethod
    def jigsaw22_on_mesh33():
        """mesh(3,3) diluted to jigsaw(2,2), and that jigsaw's query."""
        h = mesh(3, 3)
        seq = decide_dilution(h, jigsaw(2, 2))
        return query_from_hypergraph(apply_sequence(h, seq)), h, seq

    def test_missing_relation_rejected_as_count_does(self):
        q, h, seq = self.jigsaw22_on_mesh33()
        rels = {a.relation: [("1", "2")] for a in q.atoms if a.relation != "E1"}
        d = Database.of(rels)
        with pytest.raises(InvalidInputError, match="^unknown relation E1$"):
            count(q, d)
        with pytest.raises(InvalidInputError, match="^unknown relation E1$"):
            reduce_along_dilution(q, d, h, seq)
        # an empty sequence runs no reverse step, so only the check up front sees it
        t = apply_sequence(h, seq)
        with pytest.raises(InvalidInputError, match="^unknown relation E1$"):
            reduce_along_dilution(q, d, t, DilutionSequence.for_source(t, ()))

    def test_arity_mismatch_rejected_as_count_does(self):
        q, h, seq = self.jigsaw22_on_mesh33()
        rels = {a.relation: [("1", "2")] for a in q.atoms}
        d = Database.of({**rels, "E1": [("1", "2", "3")]})
        message = "^relation E1 arity mismatch with query$"
        with pytest.raises(InvalidInputError, match=message):
            count(q, d)
        with pytest.raises(InvalidInputError, match=message):
            reduce_along_dilution(q, d, h, seq)

    def test_shared_variable_set_rejected_with_any_sequence(self):
        # R and S share {x, y}: the query's hypergraph is still a two-edge path
        q = Q(("R", "xy"), ("S", "xy"), ("T", "yz"))
        d = Database.of({"R": [("1", "2")], "S": [("1", "2")], "T": [("2", "3")]})
        message = "^two atoms share one variable set"
        path = Hypergraph.make([{"a", "b"}, {"b", "c"}])
        with pytest.raises(InvalidInputError, match=message):
            reduce_along_dilution(q, d, path, DilutionSequence.for_source(path, ()))
        # a non-empty sequence was rejected by its first reverse step already
        longer = Hypergraph.make([{"a", "b"}, {"b", "c"}, {"c", "d"}])
        seq = DilutionSequence.for_source(longer, (MergeOn("c"),))
        assert isomorphic(apply_sequence(longer, seq), path) is not None
        with pytest.raises(InvalidInputError, match=message):
            reduce_along_dilution(q, d, longer, seq)

    def test_mismatched_hypergraph_rejected(self):
        h = Hypergraph.make([{"a", "b"}, {"b", "c"}])
        q = Q(("R", "xy"))
        d = Database.of({"R": [("1", "2")]})
        with pytest.raises(InvalidInputError):
            reduce_along_dilution(q, d, h, DilutionSequence.for_source(h, ()))

    @given(seeds)
    @settings(max_examples=30)
    def test_random_soundness(self, seed):
        rng = random.Random(seed)
        h = sample_hypergraph(rng, max_vertices=6, max_edges=5, max_degree=2)
        steps = []
        cur = h
        for _ in range(rng.randint(0, 3)):
            options = valid_steps(cur)
            if not options:
                break
            s = rng.choice(options)
            steps.append(s)
            cur = apply_step(cur, s)
        seq = DilutionSequence.for_source(h, steps)
        target = apply_sequence(h, seq)
        covered = set().union(*target.edges) if target.edges else set()
        if covered != set(target.vertices) or not target.edges:
            return
        q = query_from_hypergraph(target)
        dom = ["1", "2", "3"]
        rels = {
            a.relation: {
                tuple(rng.choice(dom) for _ in a.args)
                for _ in range(rng.randint(0, 5))
            }
            for a in q.atoms
        }
        d = Database.of(rels)
        red = reduce_along_dilution(q, d, h, seq)
        sols_q = evaluate(q, d)
        sols_p = evaluate(red.query, red.database)
        pulled = red.pull_back(project(sols_p, set(red.rename_dict().values())))
        assert pulled == sols_q
        assert len(sols_p) == len(sols_q)
        # reserved tokens never leak into the projected solutions
        for s in pulled:
            assert not any(c.startswith("_fresh_") for c in s.as_dict().values())
        for before, after in zip(red.step_sizes, red.step_sizes[1:]):
            assert after <= 8 * max(1, h.max_degree()) * max(before, 1)


class TestCores:
    def test_loop_absorbs(self):
        core = compute_core(Q(("R", "xy"), ("R", "yy")))
        assert [(a.relation, a.args) for a in core.atoms] == [("R", ("y", "y"))]

    def test_disconnected_copy_drops(self):
        core = compute_core(Q(("R", "xy"), ("R", "uv")))
        assert len(core.atoms) == 1

    def test_self_join_free_is_own_core(self):
        q = Q(("R", "xy"), ("S", "yz"))
        assert compute_core(q) == q

    def test_limit(self):
        q = query_from_hypergraph(jigsaw(3, 3))
        with pytest.raises(LimitExceededError):
            compute_core(q, max_vars=8)

    def test_homomorphic_equivalence(self):
        q = Q(("R", "xy"), ("R", "yz"), ("R", "uv"))
        core = compute_core(q)
        assert homomorphically_equivalent(q, core)

    @given(seeds)
    @settings(max_examples=20)
    def test_against_subset_brute_force(self, seed):
        from hgdilute.cq import _homomorphism

        rng = random.Random(seed)
        syms = ["R", "S"]
        atoms = []
        variables = ["x", "y", "z", "u"][: rng.randint(2, 4)]
        for _ in range(rng.randint(1, 4)):
            sym = rng.choice(syms)
            arity = 2
            atoms.append((sym, tuple(rng.choice(variables) for _ in range(arity))))
        try:
            q = ConjunctiveQuery.of(atoms)
        except InvalidInputError:
            return
        core = compute_core(q)
        # brute force: smallest subquery with a homomorphism from q
        best = None
        uniq = sorted(set(q.atoms), key=lambda a: (a.relation, a.args))
        for r in range(1, len(uniq) + 1):
            for combo in itertools.combinations(uniq, r):
                if _homomorphism(q.atoms, combo) is not None:
                    best = combo
                    break
            if best:
                break
        assert len(core.atoms) == len(best)
        assert homomorphically_equivalent(q, core)


class TestSemanticWidth:
    def test_two_copies(self):
        assert semantic_ghw(Q(("R", "xy"), ("R", "uv"))).width == 1

    def test_acyclic(self):
        assert semantic_ghw(Q(("R", "xy"), ("S", "yz"))).width == 1

    def test_jigsaw22_query(self):
        q = query_from_hypergraph(jigsaw(2, 2))
        assert semantic_ghw(q).width == 2

    def test_equals_core_width(self):
        q = Q(("R", "xy"), ("R", "yz"), ("S", "zx"), ("S", "uu"))
        core = compute_core(q)
        assert semantic_ghw(q).width == exact_ghw(hypergraph_of(core))[0].width


class TestQueryReadings:
    """``count`` reads every variable as free, the core functions read every
    variable as existential, so a query and its core may count differently."""

    def test_free_count_and_existential_core(self):
        q = Q(("E", "xy"), ("E", "xz"))
        d = Database.of({"E": [("a", "b"), ("a", "c"), ("b", "c")]})
        assert count(q, d) == 5
        core = compute_core(q)
        assert core == Q(("E", "xz"))
        assert count(core, d) == 3
        assert homomorphically_equivalent(q, core)
