import json

import pytest

from hgdilute.cli import main
from hgdilute.cq import evaluate, project
from hgdilute.formats import (
    parse_database,
    parse_hypergraph,
    parse_query,
    parse_rename,
    parse_sequence,
    parse_solutions,
)
from hgdilute.generators import jigsaw, mesh
from hgdilute.hypergraph import isomorphic


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

    def test_invalid_step_exit_2(self, tmp_path):
        src = tmp_path / "src.hg"
        src.write_text("e1(a,b)\n")
        seq = tmp_path / "bad.dseq"
        seq.write_text("delv zz\n")
        assert main(["dilute", str(src), str(seq)]) == 2


class TestWidthCommands:
    def test_width_ghw_jigsaw22(self, tmp_path, capsys):
        src = tmp_path / "j.hg"
        assert main(["gen", "--family", "jigsaw", "-n", "2", "-m", "2", "-o", str(src)]) == 0
        wit = tmp_path / "w.ghd"
        assert main(["width", "--kind", "ghw", str(src), "--witness-out", str(wit)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "2"
        assert "cover" in wit.read_text()

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

    def test_prejigsaw_extract(self, tmp_path):
        src = tmp_path / "m.hg"
        assert main(["gen", "--family", "mesh", "-n", "4", "-m", "4", "-o", str(src)]) == 0
        seq_out, wit_out = tmp_path / "p.dseq", tmp_path / "p.wit"
        assert main(
            ["prejigsaw-extract", str(src), "-n", "2", "--seq-out", str(seq_out),
             "--witness-out", str(wit_out)]
        ) == 0
        assert "dims 2 2" in wit_out.read_text()


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


class TestSuiteCommand:
    def test_quick_suite(self, capsys):
        assert main(["suite", "--quick", "--only", "6,8,11"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "3/3 criteria passed in " in out
