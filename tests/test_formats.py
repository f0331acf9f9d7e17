import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgdilute.cq import Assignment, ConjunctiveQuery, Database, evaluate
from hgdilute.decomposition import exact_ghw, exact_treewidth
from hgdilute.dilution import DilutionSequence, valid_steps, apply_step
from hgdilute.errors import ParseError
from hgdilute.formats import (
    auto_edge_names,
    edge_names,
    parse_database,
    parse_decomposition,
    parse_expressive,
    parse_hypergraph,
    parse_minor_map,
    parse_prejigsaw,
    parse_query,
    parse_rename,
    parse_sequence,
    parse_solutions,
    write_database,
    write_decomposition,
    write_expressive,
    write_hypergraph,
    write_minor_map,
    write_prejigsaw,
    write_query,
    write_rename,
    write_sequence,
    write_solutions,
)
from hgdilute.generators import grid, jigsaw, mesh, subdivided_jigsaw
from hgdilute.hypergraph import Hypergraph, dual_with_map, edge_key
from hgdilute.minors import expressive_from_minor, find_grid_minor
from hgdilute.dilution import reduce_hypergraph

from conftest import sample_hypergraph

seeds = st.integers(min_value=0, max_value=10**6)


class TestHypergraphFormat:
    def test_parse_basic(self):
        h, names = parse_hypergraph(
            "% a comment\ne1(a,b)\ne2(b,c)\nvertex(z)\nempty()\n"
        )
        assert h.vertices == frozenset({"a", "b", "c", "z"})
        assert frozenset() in h.edges
        assert names["e1"] == frozenset({"a", "b"})

    def test_duplicate_edges_collapse(self):
        h, names = parse_hypergraph("e1(a,b)\ne2(b,a)\n")
        assert len(h.edges) == 1 and names == {"e1": frozenset({"a", "b"})}

    def test_bad_name(self):
        with pytest.raises(ParseError):
            parse_hypergraph("e1(a-b)\n")

    def test_vertex_directive_arity(self):
        with pytest.raises(ParseError):
            parse_hypergraph("vertex(a,b)\n")

    @given(seeds)
    @settings(max_examples=30)
    def test_round_trip(self, seed):
        h = sample_hypergraph(random.Random(seed))
        for fmt in ("text", "json"):
            h2, _ = parse_hypergraph(write_hypergraph(h, fmt=fmt))
            assert h2 == h

    def test_round_trip_isolated_and_empty(self):
        h = Hypergraph(frozenset({"a", "b", "z"}), frozenset({frozenset({"a", "b"}), frozenset()}))
        for fmt in ("text", "json"):
            assert parse_hypergraph(write_hypergraph(h, fmt=fmt))[0] == h


class TestSequenceFormat:
    def test_parse(self):
        seq = parse_sequence("delv a\ndele e(b,c)\nmerge d\n")
        assert len(seq.steps) == 3

    def test_bad_op(self):
        with pytest.raises(ParseError):
            parse_sequence("zap a\n")

    @given(seeds)
    @settings(max_examples=30)
    def test_round_trip(self, seed):
        rng = random.Random(seed)
        h = sample_hypergraph(rng)
        steps = []
        cur = h
        for _ in range(3):
            options = valid_steps(cur)
            if not options:
                break
            s = rng.choice(options)
            steps.append(s)
            cur = apply_step(cur, s)
        seq = DilutionSequence(tuple(steps))
        assert parse_sequence(write_sequence(seq)).steps == seq.steps
        assert parse_sequence(write_sequence(seq, fmt="json")) == seq


class TestDecompositionFormat:
    def test_td_round_trip(self):
        h = grid(2, 2)
        _, td = exact_treewidth(h)
        for fmt in ("text", "json"):
            td2 = parse_decomposition(write_decomposition(td, fmt=fmt))
            assert td2 == td

    def test_ghd_round_trip(self):
        h = jigsaw(2, 2)
        _, ghd = exact_ghw(h)
        names = auto_edge_names(h)
        for fmt in ("text", "json"):
            out = write_decomposition(ghd, names, fmt=fmt)
            ghd2 = parse_decomposition(out, names)
            assert ghd2 == ghd

    def test_cover_needs_names(self):
        h = jigsaw(2, 2)
        _, ghd = exact_ghw(h)
        text = write_decomposition(ghd, auto_edge_names(h))
        with pytest.raises(ParseError):
            parse_decomposition(text)

    def test_mixed_cover_rejected(self):
        text = "node a parent - bag x cover e1\nnode b parent a bag x\n"
        with pytest.raises(ParseError):
            parse_decomposition(text, {"e1": frozenset({"x"})})


class TestQueryAndDatabase:
    def test_query_round_trip(self):
        q = ConjunctiveQuery.of([("R", ("x", "y")), ("S", ("y", "z", "z"))])
        for fmt in ("text", "json"):
            assert parse_query(write_query(q, fmt=fmt)) == q

    def test_database_round_trip(self):
        d = Database.of({"R": [("1", "2")], "S": [("a",), ("b",)], "T": [()]})
        for fmt in ("text", "json"):
            assert parse_database(write_database(d, fmt=fmt)) == d

    def test_fact_needs_period(self):
        with pytest.raises(ParseError):
            parse_database("R(a,b)\n")

    def test_solutions_round_trip(self):
        q = ConjunctiveQuery.of([("R", ("x", "y"))])
        d = Database.of({"R": [("1", "2"), ("5", "5")]})
        sols = evaluate(q, d)
        for fmt in ("text", "json"):
            text = write_solutions(q.variables(), sols, fmt=fmt)
            variables, sols2 = parse_solutions(text)
            assert variables == list(q.variables())
            assert sols2 == sols

    def test_rename_round_trip(self):
        ren = {"x": "a", "y": "b"}
        for fmt in ("text", "json"):
            assert parse_rename(write_rename(ren, fmt=fmt)) == ren


class TestWitnessFormats:
    def test_minor_map_round_trip(self):
        host = grid(3, 3)
        mm = find_grid_minor(host, 2)
        for fmt in ("text", "json"):
            assert parse_minor_map(write_minor_map(mm, fmt=fmt)) == mm

    def test_expressive_round_trip(self):
        h_red, _ = reduce_hypergraph(mesh(4, 4))
        d, _ = dual_with_map(h_red)
        names = auto_edge_names(d)
        emm = expressive_from_minor(grid(2, 2), d, find_grid_minor(d, 2))
        for fmt in ("text", "json"):
            out = write_expressive(emm, names, fmt=fmt)
            assert parse_expressive(out, names) == emm

    def test_prejigsaw_round_trip(self):
        for n, m, k in [(2, 2, 1), (2, 3, 1), (3, 3, 2)]:
            h, w = subdivided_jigsaw(n, m, k)
            names = auto_edge_names(h)
            for fmt in ("text", "json"):
                out = write_prejigsaw(w, names, fmt=fmt)
                assert parse_prejigsaw(out, names) == w


NAMES = {"e1": frozenset({"a", "b"})}

# parser, extra arguments, a valid JSON document, the same document without a
# required key, and the same document with one field of the wrong type
MALFORMED_JSON = [
    (
        parse_hypergraph,
        (),
        '{"vertices": ["a"], "edges": [{"name": "e1", "vertices": ["a", "b"]}]}',
        '{"vertices": ["a"], "edges": [{"vertices": ["a", "b"]}]}',
        '{"vertices": ["a"], "edges": [{"name": "e1", "vertices": "ab"}]}',
    ),
    (
        parse_sequence,
        (),
        '{"steps": [{"op": "delv", "vertex": "a"}]}',
        '{"steps": [{"op": "delv"}]}',
        '{"steps": [{"op": "dele", "vertices": "ab"}]}',
    ),
    (
        parse_decomposition,
        (NAMES,),
        '{"nodes": [{"name": "t1", "parent": null, "bag": ["a"], "cover": ["e1"]}]}',
        '{"nodes": [{"name": "t1", "parent": null, "cover": ["e1"]}]}',
        '{"nodes": [{"name": "t1", "parent": null, "bag": "ab", "cover": ["e1"]}]}',
    ),
    (
        parse_query,
        (),
        '{"atoms": [{"relation": "R", "args": ["x", "y"]}]}',
        '{"atoms": [{"relation": "R"}]}',
        '{"atoms": [{"relation": "R", "args": "xy"}]}',
    ),
    (
        parse_database,
        (),
        '{"relations": {"R": [["a", "b"]]}}',
        '{"facts": {"R": [["a", "b"]]}}',
        '{"relations": {"R": "ab"}}',
    ),
    (
        parse_solutions,
        (),
        '{"vars": ["x"], "solutions": [["a"]]}',
        '{"vars": ["x"]}',
        '{"vars": ["x"], "solutions": ["a"]}',
    ),
    (
        parse_rename,
        (),
        '{"rename": {"x": "a"}}',
        '{"renaming": {"x": "a"}}',
        '{"rename": 5}',
    ),
    (
        parse_minor_map,
        (),
        '{"branch_sets": {"x": ["a", "b"]}}',
        '{"images": {"x": ["a", "b"]}}',
        '{"branch_sets": {"x": "ab"}}',
    ),
    (
        parse_expressive,
        (NAMES,),
        '{"branch_sets": {"x": ["a"], "y": ["b"]},'
        ' "rho": [{"u": "x", "v": "y", "edge": "e1"}]}',
        '{"branch_sets": {"x": ["a"], "y": ["b"]}}',
        '{"branch_sets": {"x": ["a"], "y": ["b"]},'
        ' "rho": [{"u": "x", "v": "y", "edge": ["e1"]}]}',
    ),
    (
        parse_prejigsaw,
        (NAMES,),
        '{"dims": [1, 2], "pi": {}, "o": {}, "paths": []}',
        '{"dims": [1, 2], "pi": {}, "o": {}}',
        '{"dims": ["1", "2"], "pi": {}, "o": {}, "paths": []}',
    ),
]


class TestMalformedInput:
    """Every parser reports malformed input as a ParseError and nothing else."""

    @pytest.mark.parametrize(
        "parse, args, valid, missing, wrong",
        MALFORMED_JSON,
        ids=[case[0].__name__ for case in MALFORMED_JSON],
    )
    def test_json(self, parse, args, valid, missing, wrong):
        parse(valid, *args)
        for text in (valid[:-2], missing, wrong):
            with pytest.raises(ParseError):
                parse(text, *args)

    def test_text_prejigsaw_dims_must_be_integers(self):
        with pytest.raises(ParseError):
            parse_prejigsaw("dims 2 x\n", {})

    @pytest.mark.parametrize(
        "text", ["dims 0 2\n", '{"dims": [0, 2], "pi": {}, "o": {}, "paths": []}']
    )
    def test_prejigsaw_dims_without_a_jigsaw(self, text):
        with pytest.raises(ParseError, match="dims 0 2: jigsaw needs"):
            parse_prejigsaw(text, {})

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_hypergraph, '{"vertices": ["a b"], "edges": []}'),
            (parse_hypergraph, '{"edges": [{"name": "e 1", "vertices": ["a"]}]}'),
            (parse_hypergraph, '{"edges": [{"name": "vertex", "vertices": ["a"]}]}'),
            (parse_sequence, '{"steps": [{"op": "merge", "vertex": "a b"}]}'),
            (parse_sequence, '{"steps": [{"op": "dele", "vertices": ["a b"]}]}'),
            (parse_query, '{"atoms": [{"relation": "R", "args": ["a b"]}]}'),
            (parse_query, '{"atoms": [{"relation": "R S", "args": ["x"]}]}'),
            (parse_database, '{"relations": {"R": [["a b"]]}}'),
            (parse_database, '{"relations": {"R-S": [["a"]]}}'),
            (parse_solutions, '{"vars": ["x"], "solutions": [["a b"]]}'),
            (parse_rename, '{"rename": {"a": 5}}'),
            (parse_rename, '{"rename": {"a b": "c"}}'),
        ],
    )
    def test_json_names_follow_the_text_rule(self, parse, text):
        with pytest.raises(ParseError):
            parse(text)

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_rename, "a -> \n"),
            (parse_rename, "a b -> c\n"),
            (parse_rename, "a -> c\nb -> d\na -> c\n"),
            (parse_solutions, "% vars: x x\nsol(a,b).\n"),
            (parse_solutions, '{"vars": ["x", "x"], "solutions": [["a", "b"]]}'),
            (parse_solutions, "% vars: x\n% vars: y\nsol(a).\n"),
        ],
    )
    def test_no_name_lost(self, parse, text):
        # an empty, spaced or repeated name would be dropped or overwritten
        with pytest.raises(ParseError):
            parse(text)

    @pytest.mark.parametrize(
        "parse, args, text, key",
        [
            (
                parse_hypergraph,
                (),
                '{"vertices": ["a"], "edges": [],'
                ' "edges": [{"name": "e1", "vertices": ["a"]}]}',
                "edges",
            ),
            (parse_rename, (), '{"rename": {"a": "b", "a": "c"}}', "a"),
            (parse_minor_map, (), '{"branch_sets": {"x": ["a"], "x": ["b"]}}', "x"),
            (parse_database, (), '{"relations": {"R": [["a"]], "R": [["b"]]}}', "R"),
            (
                parse_prejigsaw,
                ({"e1": frozenset({"h1_1"})},),
                '{"dims": [1, 2], "pi": {"h1_1": "h1_1", "h1_1": "h1_1"},'
                ' "o": {"e1_1": ["e1"]}, "paths": []}',
                "h1_1",
            ),
            (
                parse_prejigsaw,
                ({"e1": frozenset({"h1_1"})},),
                '{"dims": [1, 2], "pi": {"h1_1": "h1_1"},'
                ' "o": {"e1_1": ["e1"], "e1_1": ["e1"]}, "paths": []}',
                "e1_1",
            ),
        ],
        ids=["top-level", "rename", "branch_sets", "relations", "pi", "o"],
    )
    def test_repeated_json_key(self, parse, args, text, key):
        # each document is valid but for the repeat, whose first entry the
        # JSON reader would silently overwrite
        with pytest.raises(ParseError, match=f"repeated key '{key}'"):
            parse(text, *args)

    @pytest.mark.parametrize(
        "text",
        [
            "a(x,y)\na(y,z)\ne2(z,w)\n",
            "e1(a,b)\ne2(b,a)\ne2(c,d)\n",
            '{"edges": [{"name": "a", "vertices": ["x", "y"]},'
            ' {"name": "a", "vertices": ["y", "z"]}]}',
        ],
    )
    def test_one_name_for_two_edges_rejected(self, text):
        with pytest.raises(ParseError):
            parse_hypergraph(text)


class TestEdgeNames:
    @given(seeds)
    @settings(max_examples=30)
    def test_edge_names_inverts_auto_edge_names(self, seed):
        h = sample_hypergraph(random.Random(seed))
        assert edge_names(h) == {e: n for n, e in auto_edge_names(h).items()}

    def test_write_names_every_edge_by_the_rule(self):
        h = grid(2, 2)
        edges = sorted(h.edges, key=edge_key)
        names = {"e2": edges[3], "top": edges[1], "e1": frozenset({"gone"})}
        _, parsed = parse_hypergraph(write_hypergraph(h, names))
        # named edges keep their names; the rest count up, skipping e1 and e2
        assert parsed == {"e3": edges[0], "top": edges[1], "e4": edges[2], "e2": edges[3]}
        assert edge_names(h, names) == {e: n for n, e in parsed.items()}
