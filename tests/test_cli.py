import json
import os
import pathlib
import subprocess
import sys

import pytest

import hgdilute

from hgdilute.cli import main
from hgdilute.cq import evaluate, project
from hgdilute.dilution import DEFAULT_SEARCH_BUDGET, apply_sequence, reduce_hypergraph
from hgdilute.formats import (
    auto_edge_names,
    parse_database,
    parse_hypergraph,
    parse_prejigsaw,
    parse_query,
    parse_rename,
    parse_sequence,
    parse_solutions,
    write_expressive,
    write_hypergraph,
    write_minor_map,
    write_sequence,
)
from hgdilute.generators import grid, jigsaw, mesh
from hgdilute.minors import (
    decide_dilution,
    expressive_from_minor,
    find_grid_minor,
    minor_piece,
    validate_prejigsaw,
)
from hgdilute.hypergraph import Hypergraph, dual_with_map, isomorphic


def run(tmp_path, *argv):
    return main([str(a) for a in argv])


@pytest.fixture
def mesh66(tmp_path):
    path = tmp_path / "mesh66.hg"
    assert main(["gen", "--family", "mesh", "-n", "6", "-m", "6", "-o", str(path)]) == 0
    return path


class TestGen:
    def test_gen_grid(self, tmp_path):
        out = tmp_path / "g.hg"
        assert main(["gen", "--family", "grid", "-n", "2", "-m", "3", "-o", str(out)]) == 0
        h, _ = parse_hypergraph(out.read_text())
        assert len(h.vertices) == 6 and len(h.edges) == 7

    def test_gen_random_independent_of_string_hashing(self):
        src = str(pathlib.Path(hgdilute.__file__).parents[1])
        argv = ["gen", "--family", "random", "--nv", "7", "--ne", "5", "--seed", "3"]
        code = "import sys; from hgdilute.cli import main; sys.exit(main(sys.argv[1:]))"
        outputs = set()
        for hash_seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", code, *argv],
                env=env,
                capture_output=True,
                timeout=60,
            )
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert len(outputs) == 1

    def test_gen_random_deterministic(self, tmp_path):
        a, b = tmp_path / "a.hg", tmp_path / "b.hg"
        args = ["gen", "--family", "random", "--nv", "5", "--ne", "4", "--seed", "9"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_gen_json_round_trip(self, tmp_path):
        out = tmp_path / "j.json"
        assert main(
            ["--format", "json", "gen", "--family", "jigsaw", "-n", "2", "-m", "2",
             "-o", str(out)]
        ) == 0
        h, _ = parse_hypergraph(out.read_text())
        assert isomorphic(h, jigsaw(2, 2)) is not None

    def test_gen_subdivided_with_witness(self, tmp_path):
        out, wit = tmp_path / "s.hg", tmp_path / "s.wit"
        assert main(
            ["gen", "--family", "subdivided-jigsaw", "-n", "2", "-m", "2", "-k", "1",
             "-o", str(out), "--witness-out", str(wit)]
        ) == 0
        assert "pi " in wit.read_text()


class TestStructureCommands:
    def test_dual_uses_file_names(self, tmp_path):
        src = tmp_path / "h.hg"
        src.write_text("left(a,b)\nright(b,c)\n")
        out = tmp_path / "d.hg"
        assert main(["dual", str(src), "-o", str(out)]) == 0
        d, _ = parse_hypergraph(out.read_text())
        assert d.vertices == frozenset({"left", "right"})

    def test_reduce_emits_sequence(self, tmp_path):
        src = tmp_path / "h.hg"
        src.write_text("e1(a,b)\ne2(b,c)\nvertex(z)\n")
        out, seq_out = tmp_path / "r.hg", tmp_path / "r.dseq"
        assert main(["reduce", str(src), "-o", str(out), "--seq-out", str(seq_out)]) == 0
        r, _ = parse_hypergraph(out.read_text())
        assert r.vertices == frozenset({"a", "b", "c"})
        assert "delv z" in seq_out.read_text()

    @pytest.mark.parametrize("option", ["-o", "--seq-out"])
    def test_unwritable_output_exit_2(self, tmp_path, option, capsys):
        src = tmp_path / "h.hg"
        src.write_text("e1(a,b)\ne2(b,c)\n")
        out = tmp_path / "missing" / "r.hg"
        assert main(["reduce", str(src), option, str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out}: No such file or directory\n"

    def test_primal(self, tmp_path):
        src = tmp_path / "h.hg"
        src.write_text("e1(a,b,c)\n")
        out = tmp_path / "p.hg"
        assert main(["primal", str(src), "-o", str(out)]) == 0
        p, _ = parse_hypergraph(out.read_text())
        assert len(p.edges) == 3

    def test_parse_error_exit_2(self, tmp_path):
        src = tmp_path / "h.hg"
        src.write_text("not a line\n")
        assert main(["dual", str(src)]) == 2

    def test_repeated_json_key_exit_2(self, tmp_path, capsys):
        src = tmp_path / "h.json"
        src.write_text('{"vertices": ["a"], "vertices": ["b"], "edges": []}')
        assert main(["dual", str(src)]) == 2
        assert capsys.readouterr().err == "error: bad JSON: repeated key 'vertices'\n"

    @pytest.mark.parametrize("command", [["dual"], ["width", "--kind", "ghw"]])
    def test_one_name_for_two_edges_exit_2(self, tmp_path, command, capsys):
        src = tmp_path / "h.hg"
        src.write_text("a(x,y)\na(y,z)\ne2(z,w)\n")
        assert main([*command, str(src)]) == 2
        assert "names two different edges" in capsys.readouterr().err


class TestDilutionCommands:
    def test_dilute_fig3(self, tmp_path, mesh66):
        from importlib import resources

        seq = tmp_path / "fig3.dseq"
        seq.write_text(
            resources.files("hgdilute")
            .joinpath("data/mesh66_to_jigsaw32.dseq")
            .read_text()
        )
        out = tmp_path / "out.hg"
        assert main(["dilute", str(mesh66), str(seq), "-o", str(out)]) == 0
        h, _ = parse_hypergraph(out.read_text())
        assert isomorphic(h, jigsaw(3, 2)) is not None

    def test_check_dilution_search_and_verify(self, tmp_path):
        src, tgt = tmp_path / "src.hg", tmp_path / "tgt.hg"
        src.write_text("e1(a,b)\ne2(b,c)\n")
        tgt.write_text("f(a,c)\n")
        seq_out = tmp_path / "found.dseq"
        assert main(
            ["check-dilution", str(src), str(tgt), "--seq-out", str(seq_out)]
        ) == 0
        assert main(
            ["check-dilution", str(src), str(tgt), "--seq", str(seq_out)]
        ) == 0

    def test_check_dilution_size_obstruction_exit_1(self, tmp_path):
        src, tgt = tmp_path / "src.hg", tmp_path / "tgt.hg"
        src.write_text("e1(a,b)\n")
        tgt.write_text("f1(a,b)\nf2(b,c)\nf3(a,c)\n")
        assert main(["check-dilution", str(src), str(tgt)]) == 1

    def test_check_dilution_mesh_by_minor_route(self, tmp_path, mesh66):
        # the BFS runs out of 1000 states on this pair (exit 3); the degree-2
        # route needs 14 minor placement attempts
        src = str(pathlib.Path(hgdilute.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys; from hgdilute.cli import main; sys.exit(main(sys.argv[1:]))"
        j32, found = tmp_path / "j32.hg", tmp_path / "f.dseq"
        assert main(["gen", "--family", "jigsaw", "-n", "3", "-m", "2", "-o", str(j32)]) == 0
        common = [sys.executable, "-c", code, "check-dilution", str(mesh66), str(j32)]
        for extra in (["--budget", "1000", "--seq-out", str(found)], ["--seq", str(found)]):
            done = subprocess.run(
                common + extra, env=env, capture_output=True, text=True, timeout=60
            )
            assert (done.returncode, done.stdout) == (0, "dilution: yes\n"), done.stderr

    def test_invalid_step_exit_2(self, tmp_path):
        src = tmp_path / "src.hg"
        src.write_text("e1(a,b)\n")
        seq = tmp_path / "bad.dseq"
        seq.write_text("delv zz\n")
        assert main(["dilute", str(src), str(seq)]) == 2

    def test_failing_step_numbered_from_one(self, tmp_path, capsys):
        src = tmp_path / "src.hg"
        src.write_text("e1(a,b)\n")
        seq = tmp_path / "bad.dseq"
        seq.write_text("delv a\ndelv zz\n")
        assert main(["dilute", str(src), str(seq)]) == 2
        assert capsys.readouterr().err == "error: step 2: cannot delete unknown vertex 'zz'\n"

    def test_json_step_missing_vertex_exit_2(self, tmp_path, capsys):
        src = tmp_path / "src.hg"
        src.write_text("e1(a,b)\n")
        seq = tmp_path / "bad.json"
        seq.write_text('{"steps": [{"op": "delv"}]}')
        assert main(["dilute", str(src), str(seq)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_truncated_json_sequence_exit_2(self, tmp_path, capsys):
        src, tgt = tmp_path / "src.hg", tmp_path / "tgt.hg"
        src.write_text("e1(a,b)\ne2(b,c)\n")
        tgt.write_text("f(a,c)\n")
        seq = tmp_path / "cut.json"
        seq.write_text('{"steps": [{"op": "merge", "vertex": "b"}')
        assert main(["check-dilution", str(src), str(tgt), "--seq", str(seq)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestWidthCommands:
    def test_width_ghw_jigsaw22(self, tmp_path, capsys):
        src = tmp_path / "j.hg"
        assert main(["gen", "--family", "jigsaw", "-n", "2", "-m", "2", "-o", str(src)]) == 0
        wit = tmp_path / "w.ghd"
        assert main(["width", "--kind", "ghw", str(src), "--witness-out", str(wit)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "2"
        assert "cover" in wit.read_text()

    def test_width_ghw_jigsaw34(self, tmp_path, capsys):
        # 12 edges and 17 covered vertices, within the covered-vertex limit
        src = tmp_path / "j.hg"
        assert main(["gen", "--family", "jigsaw", "-n", "3", "-m", "4", "-o", str(src)]) == 0
        assert main(["width", "--kind", "ghw", str(src)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "3"

    @pytest.mark.parametrize("command", ["width", "sghw"])
    def test_no_edge_limit_option(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        assert "--max-vertices" in out or "--max-vars" in out
        assert "--max-edges" not in out

    def test_width_tw_limit_exit_2(self, tmp_path):
        # grid(4,5) has 20 vertices, above the default treewidth limit of 16
        src = tmp_path / "g.hg"
        assert main(["gen", "--family", "grid", "-n", "4", "-m", "5", "-o", str(src)]) == 0
        assert main(["width", "--kind", "tw", str(src)]) == 2

    def test_width_tw(self, tmp_path, capsys):
        src = tmp_path / "g.hg"
        assert main(["gen", "--family", "grid", "-n", "3", "-m", "3", "-o", str(src)]) == 0
        assert main(["width", "--kind", "tw", str(src)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "3"


class TestExtractCommands:
    def test_jigsaw_extract_mesh(self, tmp_path, mesh66, capsys):
        seq_out = tmp_path / "seq.dseq"
        code = main(["jigsaw-extract", str(mesh66), "-n", "2", "--seq-out", str(seq_out)])
        assert code == 0
        seq = parse_sequence(seq_out.read_text())
        from hgdilute.dilution import verify_dilution

        ok, _ = verify_dilution(mesh(6, 6), seq, jigsaw(2, 2))
        assert ok

    def test_jigsaw_extract_negative(self, tmp_path):
        src = tmp_path / "tree.hg"
        src.write_text("e1(a,b)\ne2(b,c)\n")
        assert main(["jigsaw-extract", str(src), "-n", "2"]) == 1

    @pytest.mark.parametrize("command", ["jigsaw-extract", "prejigsaw-extract"])
    @pytest.mark.parametrize(
        "host", [mesh(2, 2), Hypergraph.make([()])], ids=["mesh22", "empty_edge"]
    )
    def test_extract_needs_two_grid_vertices(self, tmp_path, command, host, capsys):
        # checked before the minor search, with the jigsaw generator's rule
        src = tmp_path / "h.hg"
        src.write_text(write_hypergraph(host))
        assert main([command, str(src), "-n", "1"]) == 2
        assert capsys.readouterr().err == "error: jigsaw needs n, m >= 1 and n*m >= 2\n"

    def test_prejigsaw_extract(self, tmp_path):
        src = tmp_path / "m.hg"
        assert main(["gen", "--family", "mesh", "-n", "4", "-m", "4", "-o", str(src)]) == 0
        seq_out, wit_out = tmp_path / "p.dseq", tmp_path / "p.wit"
        assert main(
            ["prejigsaw-extract", str(src), "-n", "2", "--seq-out", str(seq_out),
             "--witness-out", str(wit_out)]
        ) == 0
        assert "dims 2 2" in wit_out.read_text()

    def test_prejigsaw_extract_witness_in(self, tmp_path, capsys):
        # the expressive witness names its maps by the dual of the reduced host
        h = mesh(4, 4)
        d, _ = dual_with_map(reduce_hypergraph(h)[0])
        emm = expressive_from_minor(grid(2, 2), d, find_grid_minor(d, 2))
        src, wit_in = tmp_path / "m.hg", tmp_path / "e.wit"
        src.write_text(write_hypergraph(h))
        wit_in.write_text(write_expressive(emm, auto_edge_names(d)))
        seq_out, wit_out = tmp_path / "p.dseq", tmp_path / "p.wit"
        assert main(
            ["prejigsaw-extract", str(src), "-n", "2", "--witness-in", str(wit_in),
             "--seq-out", str(seq_out), "--witness-out", str(wit_out)]
        ) == 0
        p = apply_sequence(h, parse_sequence(seq_out.read_text()))
        assert capsys.readouterr().out == (
            f"dilutes to a 2x2 pre-jigsaw with {len(p.vertices)} vertices\n"
        )
        witness = parse_prejigsaw(wit_out.read_text(), auto_edge_names(p))
        assert validate_prejigsaw(p, 2, 2, witness).valid

    def test_prejigsaw_extract_negative(self, tmp_path, capsys):
        # a path: the dual of its reduced form has two vertices, no 2x2 grid
        src = tmp_path / "path.hg"
        src.write_text("e1(a,b)\ne2(b,c)\n")
        assert main(["prejigsaw-extract", str(src), "-n", "2"]) == 1
        assert capsys.readouterr().out == "no 2x2 grid minor in the dual\n"

    @pytest.fixture
    def two_meshes(self, tmp_path):
        """Two disjoint copies of mesh(3, 3): a disconnected degree-2 host."""
        edges = [{copy + v for v in e} for copy in "ab" for e in mesh(3, 3).edges]
        path = tmp_path / "two.hg"
        path.write_text(write_hypergraph(Hypergraph.make(edges)))
        return path

    def test_extract_from_disconnected_host(self, tmp_path, two_meshes, capsys):
        # the model lies in one copy; the other is deleted before the map is
        # made onto, as check-dilution's minor route does
        seq_out, target = tmp_path / "seq.dseq", tmp_path / "j22.hg"
        assert main(["gen", "--family", "jigsaw", "-n", "2", "-m", "2", "-o", str(target)]) == 0
        assert main(["jigsaw-extract", str(two_meshes), "-n", "2", "--seq-out", str(seq_out)]) == 0
        assert "in 15 steps" in capsys.readouterr().out
        assert main(["check-dilution", str(two_meshes), str(target), "--seq", str(seq_out)]) == 0
        wit_out = tmp_path / "p.wit"
        assert main(
            ["prejigsaw-extract", str(two_meshes), "-n", "2", "--seq-out", str(seq_out),
             "--witness-out", str(wit_out)]
        ) == 0
        assert "dims 2 2" in wit_out.read_text()

    @pytest.mark.parametrize("host", ["mesh66", "two_meshes"])
    def test_jigsaw_extract_is_the_decided_route(self, tmp_path, host, request):
        # the written sequence is check-dilution's route, verified from the
        # input host; the witness is the onto map of the model's piece
        src = request.getfixturevalue(host)
        h, _ = parse_hypergraph(src.read_text())
        seq_out, wit_out = tmp_path / "seq.dseq", tmp_path / "map.wit"
        assert main(
            ["jigsaw-extract", str(src), "-n", "2", "--seq-out", str(seq_out),
             "--witness-out", str(wit_out)]
        ) == 0
        assert seq_out.read_text() == write_sequence(decide_dilution(h, jigsaw(2, 2)))
        _, _, mm = minor_piece(h, grid(2, 2), DEFAULT_SEARCH_BUDGET)
        assert wit_out.read_text() == write_minor_map(mm)


class TestCqCommands:
    @pytest.fixture
    def instance(self, tmp_path):
        q = tmp_path / "q.cq"
        q.write_text("R(x,y)\nS(y,z)\n")
        d = tmp_path / "d.db"
        d.write_text("R(1,2).\nR(2,2).\nS(2,3).\n")
        return q, d

    def test_eval_and_count(self, tmp_path, instance, capsys):
        q, d = instance
        out = tmp_path / "sols.txt"
        assert main(["cq-eval", str(q), str(d), "-o", str(out)]) == 0
        variables, sols = parse_solutions(out.read_text())
        assert len(sols) == 2
        assert main(["cq-count", str(q), str(d)]) == 0
        assert capsys.readouterr().out.strip().endswith("2")

    def test_cq_reduce_round_trip(self, tmp_path):
        h = tmp_path / "h.hg"
        h.write_text("e1(a,b)\ne2(b,c)\ne3(c,d)\n")
        seqf = tmp_path / "s.dseq"
        seqf.write_text("merge c\n")
        q = tmp_path / "q.cq"
        q.write_text("R(a,b)\nS(b,d)\n")
        d = tmp_path / "d.db"
        d.write_text("R(1,2).\nR(2,3).\nS(2,1).\nS(3,3).\n")
        outq, outd, outr = tmp_path / "p.cq", tmp_path / "dp.db", tmp_path / "ren.txt"
        assert main(
            ["cq-reduce", str(q), str(d), str(h), str(seqf),
             "--out-query", str(outq), "--out-db", str(outd),
             "--out-rename", str(outr)]
        ) == 0
        p = parse_query(outq.read_text())
        dp = parse_database(outd.read_text())
        rename = parse_rename(outr.read_text())
        orig_q = parse_query(q.read_text())
        orig_d = parse_database(d.read_text())
        sols_p = evaluate(p, dp)
        back = {w: v for v, w in rename.items()}
        projected = set()
        for s in sols_p:
            sd = s.as_dict()
            projected.add(tuple(sorted((back[w], sd[w]) for w in back)))
        expected = {tuple(sorted(s.as_dict().items())) for s in evaluate(orig_q, orig_d)}
        assert projected == expected
        assert len(sols_p) == len(expected)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("R(1,2).\nR(2,3).\n", "unknown relation S"),
            ("R(1,2).\nS(2,1,1).\n", "relation S arity mismatch with query"),
        ],
        ids=["missing", "arity"],
    )
    def test_cq_reduce_rejects_database_not_matching_query(
        self, tmp_path, capsys, rows, message
    ):
        h = tmp_path / "h.hg"
        h.write_text("e1(a,b)\ne2(b,c)\ne3(c,d)\n")
        seqf = tmp_path / "s.dseq"
        seqf.write_text("merge c\n")
        q = tmp_path / "q.cq"
        q.write_text("R(a,b)\nS(b,d)\n")
        d = tmp_path / "d.db"
        d.write_text(rows)
        outq, outd = tmp_path / "p.cq", tmp_path / "dp.db"
        assert main(
            ["cq-reduce", str(q), str(d), str(h), str(seqf),
             "--out-query", str(outq), "--out-db", str(outd)]
        ) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not outq.exists() and not outd.exists()

    def test_core_and_sghw(self, tmp_path, capsys):
        q = tmp_path / "q.cq"
        q.write_text("R(x,y)\nR(u,v)\n")
        out = tmp_path / "core.cq"
        assert main(["core", str(q), "-o", str(out)]) == 0
        assert len(parse_query(out.read_text()).atoms) == 1
        assert main(["sghw", str(q)]) == 0
        assert capsys.readouterr().out.strip().endswith("1")


class TestBudgets:
    def test_env_budget_exhaustion_exit_3(self, tmp_path, monkeypatch):
        src, tgt = tmp_path / "src.hg", tmp_path / "tgt.hg"
        assert main(["gen", "--family", "mesh", "-n", "3", "-m", "3", "-o", str(src)]) == 0
        tgt.write_text("f(a,c)\n")
        monkeypatch.setenv("HGDILUTE_BUDGET", "2")
        assert main(["check-dilution", str(src), str(tgt)]) == 3

    def test_strict_budget_exit_2(self, tmp_path, monkeypatch):
        src, tgt = tmp_path / "src.hg", tmp_path / "tgt.hg"
        assert main(["gen", "--family", "mesh", "-n", "3", "-m", "3", "-o", str(src)]) == 0
        tgt.write_text("f(a,c)\n")
        monkeypatch.setenv("HGDILUTE_BUDGET", "2")
        assert main(["--strict", "check-dilution", str(src), str(tgt)]) == 2

    def test_budget_flag_overrides_env(self, tmp_path, monkeypatch):
        src, tgt = tmp_path / "src.hg", tmp_path / "tgt.hg"
        src.write_text("e1(a,b)\ne2(b,c)\n")
        tgt.write_text("f(a,c)\n")
        monkeypatch.setenv("HGDILUTE_BUDGET", "1")
        assert main(["check-dilution", str(src), str(tgt), "--budget", "1000"]) == 0

    @pytest.mark.parametrize(
        "flag, env", [(["--budget", "-5"], None), ([], "-1")], ids=["flag", "env"]
    )
    def test_negative_budget_exit_2(self, tmp_path, monkeypatch, capsys, flag, env):
        src, tgt = tmp_path / "src.hg", tmp_path / "tgt.hg"
        src.write_text("e1(a,b)\ne2(b,c)\n")
        tgt.write_text("f(a,c)\n")
        if env is not None:
            monkeypatch.setenv("HGDILUTE_BUDGET", env)
        try:
            code = main(["check-dilution", str(src), str(tgt), *flag])
        except SystemExit as exit_info:  # argparse rejects the flag
            code = exit_info.code
        assert code == 2
        assert "budget must be an integer >= 0" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "command, flag",
        [("width", "--max-vertices"), ("core", "--max-vars"), ("sghw", "--max-vars")],
    )
    @pytest.mark.parametrize("value", ["-1", "x"])
    def test_bad_limit_exit_2(self, tmp_path, capsys, command, flag, value):
        # a usage error before any input is read
        path = tmp_path / "in.txt"
        path.write_text("e(a,b)\n" if command == "width" else "R(x,y)\n")
        kind = ["--kind", "tw"] if command == "width" else []
        with pytest.raises(SystemExit) as exit_info:
            main([command, *kind, str(path), flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: hgdilute {command}")
        assert f"argument {flag}: limit must be an integer >= 0, got {value!r}" in err


class TestSuiteCommand:
    def test_quick_suite(self, capsys):
        assert main(["suite", "--quick", "--only", "6,8,11"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "3/3 criteria passed in " in out

    @pytest.mark.parametrize(
        "only,message",
        [
            ("x", "expected comma-separated criterion numbers, got 'x'"),
            ("6,x", "expected comma-separated criterion numbers, got '6,x'"),
            ("13", "no criterion 13 (criteria are 1-12)"),
            ("0,6,13", "no criterion 0, 13 (criteria are 1-12)"),
        ],
    )
    def test_bad_only_exit_2(self, only, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["suite", "--quick", "--only", only])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: hgdilute suite")
        assert f"argument --only: {message}" in err
