"""Command-line surface: every operation wired to files.

Exit codes: 0 success, 1 negative decision (e.g. not a dilution, no minor),
2 input errors (parse failures, violated preconditions, exceeded limits),
3 exhausted search budget (inconclusive; ``--strict`` upgrades this to 2).
Output files are written atomically.  ``--format json`` mirrors every text
format one-to-one.  The ``HGDILUTE_BUDGET`` environment variable overrides
the default search budget.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

from . import formats
from .cq import (
    count as cq_count,
    evaluate,
    hypergraph_of,
    project,
    reduce_along_dilution,
    compute_core,
    semantic_ghw,
)
from .decomposition import (
    DEFAULT_GHW_EDGE_LIMIT,
    DEFAULT_GHW_VERTEX_LIMIT,
    DEFAULT_TW_VERTEX_LIMIT,
    exact_ghw,
    exact_treewidth,
    ghd_width,
    td_width,
)
from .dilution import (
    DilutionSequence,
    apply_sequence,
    reduce_hypergraph,
    search_dilution,
    verify_dilution,
)
from .errors import (
    BudgetExceededError,
    HgError,
    InvalidInputError,
    ParseError,
)
from .generators import grid, jigsaw, mesh, random_hypergraph, subdivided_jigsaw
from .hypergraph import dual_with_map, primal_graph
from .minors import (
    expressive_from_minor,
    find_grid_minor,
    jigsaw_from_grid_minor,
    prejigsaw_from_expressive_minor,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

DEFAULT_BUDGET = 10**5


def _default_budget() -> int:
    env = os.environ.get("HGDILUTE_BUDGET")
    if env:
        try:
            return int(env)
        except ValueError:
            raise InvalidInputError(f"HGDILUTE_BUDGET={env!r} is not an integer")
    return DEFAULT_BUDGET


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from None


def _emit(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hgdilute-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_hypergraph(path: str):
    return formats.parse_hypergraph(_read(path))


# -- subcommand handlers ---------------------------------------------------------


def _cmd_gen(args) -> int:
    fam = args.family
    witness_text = None
    if fam == "grid":
        h, names = grid(args.n, args.m), None
    elif fam == "jigsaw":
        h, names = jigsaw(args.n, args.m), None
    elif fam == "mesh":
        h, names = mesh(args.n, args.m), None
    elif fam == "subdivided-jigsaw":
        h, w = subdivided_jigsaw(args.n, args.m, args.k)
        names = None
        if args.witness_out:
            witness_text = formats.write_prejigsaw(
                w, formats.auto_edge_names(h), fmt=args.format
            )
    elif fam == "random":
        h, names = (
            random_hypergraph(
                args.nv, args.ne, args.max_degree, args.max_rank, args.seed
            ),
            None,
        )
    else:  # pragma: no cover - argparse enforces choices
        raise InvalidInputError(f"unknown family {fam}")
    _emit(formats.write_hypergraph(h, names, fmt=args.format), args.output)
    if witness_text is not None:
        _emit(witness_text, args.witness_out)
    return EXIT_OK


def _cmd_dual(args) -> int:
    h, names = _load_hypergraph(args.hypergraph)
    by_edge = {}
    for n, e in names.items():
        by_edge.setdefault(e, n)
    d, edge_to_name = dual_with_map(h)
    renamed = {}
    for e, generated in edge_to_name.items():
        renamed[generated] = by_edge.get(e, generated)
    # dual vertices take the input file's edge names where available
    from .hypergraph import Hypergraph

    try:
        d2 = Hypergraph(
            frozenset(renamed[v] for v in d.vertices),
            frozenset(frozenset(renamed[v] for v in e) for e in d.edges),
        )
        out = formats.write_hypergraph(d2, fmt=args.format)
    except (HgError, KeyError):
        out = formats.write_hypergraph(d, fmt=args.format)
    _emit(out, args.output)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    h, names = _load_hypergraph(args.hypergraph)
    r, seq = reduce_hypergraph(h)
    _emit(formats.write_hypergraph(r, names, fmt=args.format), args.output)
    if args.seq_out:
        _emit(formats.write_sequence(seq, fmt=args.format), args.seq_out)
    return EXIT_OK


def _cmd_primal(args) -> int:
    h, _ = _load_hypergraph(args.hypergraph)
    _emit(formats.write_hypergraph(primal_graph(h), fmt=args.format), args.output)
    return EXIT_OK


def _cmd_dilute(args) -> int:
    h, names = _load_hypergraph(args.hypergraph)
    seq = formats.parse_sequence(_read(args.sequence))
    result = apply_sequence(h, seq)
    _emit(formats.write_hypergraph(result, names, fmt=args.format), args.output)
    return EXIT_OK


def _cmd_check_dilution(args) -> int:
    src, _ = _load_hypergraph(args.source)
    target, _ = _load_hypergraph(args.target)
    if args.seq:
        seq = formats.parse_sequence(_read(args.seq))
        ok, _ = verify_dilution(src, seq, target)
        print("dilution: yes" if ok else "dilution: no")
        return EXIT_OK if ok else EXIT_NEGATIVE
    seq = search_dilution(src, target, budget=args.budget)
    if seq is None:
        print("dilution: no")
        return EXIT_NEGATIVE
    print("dilution: yes")
    if args.seq_out:
        _emit(formats.write_sequence(seq, fmt=args.format), args.seq_out)
    return EXIT_OK


def _cmd_width(args) -> int:
    h, names = _load_hypergraph(args.hypergraph)
    if args.kind == "tw":
        report, witness = exact_treewidth(h, max_vertices=args.max_vertices)
        print(report.width)
        if args.witness_out:
            _emit(
                formats.write_decomposition(witness, fmt=args.format),
                args.witness_out,
            )
    else:
        report, witness = exact_ghw(
            h, max_edges=args.max_edges, max_vertices=args.max_vertices
        )
        print(report.width)
        if args.witness_out:
            named = dict(names)
            for auto, e in formats.auto_edge_names(h).items():
                if e not in named.values():
                    while auto in named:
                        auto += "_"
                    named[auto] = e
            _emit(
                formats.write_decomposition(witness, named, fmt=args.format),
                args.witness_out,
            )
    return EXIT_OK


def _cmd_jigsaw_extract(args) -> int:
    h, _ = _load_hypergraph(args.hypergraph)
    if h.max_degree() > 2:
        raise InvalidInputError("jigsaw extraction needs degree at most 2")
    h_red, _ = reduce_hypergraph(h)
    d, _ = dual_with_map(h_red)
    mm = find_grid_minor(d, args.n, budget=args.budget)
    if mm is None:
        print(f"no {args.n}x{args.n} grid minor in the dual")
        return EXIT_NEGATIVE
    seq = jigsaw_from_grid_minor(h, grid(args.n, args.n), mm)
    print(f"dilutes to the {args.n}x{args.n} jigsaw in {len(seq.steps)} steps")
    if args.seq_out:
        _emit(formats.write_sequence(seq, fmt=args.format), args.seq_out)
    if args.witness_out:
        _emit(formats.write_minor_map(mm, fmt=args.format), args.witness_out)
    return EXIT_OK


def _cmd_prejigsaw_extract(args) -> int:
    h, _ = _load_hypergraph(args.hypergraph)
    h_red, _ = reduce_hypergraph(h)
    d, _ = dual_with_map(h_red)
    if args.witness_in:
        emm = formats.parse_expressive(
            _read(args.witness_in), formats.auto_edge_names(d)
        )
    else:
        if d.rank() > 2:
            raise InvalidInputError(
                "dual rank exceeds 2; provide an expressive-minor witness file"
            )
        mm = find_grid_minor(d, args.n, budget=args.budget)
        if mm is None:
            print(f"no {args.n}x{args.n} grid minor in the dual")
            return EXIT_NEGATIVE
        emm = expressive_from_minor(grid(args.n, args.n), d, mm)
    seq, witness = prejigsaw_from_expressive_minor(h, args.n, emm)
    result = apply_sequence(h, seq)
    print(
        f"dilutes to a {args.n}x{args.n} pre-jigsaw with "
        f"{len(result.vertices)} vertices"
    )
    if args.seq_out:
        _emit(formats.write_sequence(seq, fmt=args.format), args.seq_out)
    if args.witness_out:
        _emit(
            formats.write_prejigsaw(
                witness, formats.auto_edge_names(result), fmt=args.format
            ),
            args.witness_out,
        )
    return EXIT_OK


def _cmd_cq_eval(args) -> int:
    q = formats.parse_query(_read(args.query))
    d = formats.parse_database(_read(args.database))
    sols = evaluate(q, d)
    _emit(formats.write_solutions(q.variables(), sols, fmt=args.format), args.output)
    return EXIT_OK


def _cmd_cq_count(args) -> int:
    q = formats.parse_query(_read(args.query))
    d = formats.parse_database(_read(args.database))
    print(cq_count(q, d))
    return EXIT_OK


def _cmd_cq_reduce(args) -> int:
    q = formats.parse_query(_read(args.query))
    d = formats.parse_database(_read(args.database))
    h, _ = _load_hypergraph(args.hypergraph)
    seq = formats.parse_sequence(_read(args.sequence))
    red = reduce_along_dilution(q, d, h, seq)
    _emit(formats.write_query(red.query, fmt=args.format), args.out_query)
    _emit(formats.write_database(red.database, fmt=args.format), args.out_db)
    if args.out_rename:
        _emit(
            formats.write_rename(red.rename_dict(), fmt=args.format),
            args.out_rename,
        )
    return EXIT_OK


def _cmd_core(args) -> int:
    q = formats.parse_query(_read(args.query))
    core = compute_core(q, max_vars=args.max_vars)
    _emit(formats.write_query(core, fmt=args.format), args.output)
    return EXIT_OK


def _cmd_sghw(args) -> int:
    q = formats.parse_query(_read(args.query))
    report = semantic_ghw(q, max_vars=args.max_vars, max_edges=args.max_edges)
    print(report.width)
    return EXIT_OK


def _cmd_suite(args) -> int:
    from .acceptance import run_suite

    only = None
    if args.only:
        only = {int(x) for x in args.only.split(",")}
    start = time.monotonic()
    results = run_suite(only=only, quick=args.quick, seed=args.seed)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"  {r.ident:>2}  {r.name:<{width}}  {status}  {r.detail}")
        failures += 0 if r.passed else 1
    print(
        f"{len(results) - failures}/{len(results)} criteria passed "
        f"in {time.monotonic() - start:.1f}s"
    )
    return EXIT_OK if failures == 0 else EXIT_NEGATIVE


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgdilute",
        description="hypergraph dilutions, width oracles, jigsaw extraction, "
        "and conjunctive-query reductions",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format for emitted files",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat budget exhaustion as a hard error (exit 2 instead of 3)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a hypergraph family member")
    p.add_argument(
        "--family",
        required=True,
        choices=("grid", "jigsaw", "mesh", "subdivided-jigsaw", "random"),
    )
    p.add_argument("-n", type=int, default=2)
    p.add_argument("-m", type=int, default=2)
    p.add_argument("-k", type=int, default=0, help="subdivision points")
    p.add_argument("--nv", type=int, default=6)
    p.add_argument("--ne", type=int, default=5)
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--max-rank", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--witness-out")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)

    for name, func, help_text in (
        ("dual", _cmd_dual, "dual hypergraph"),
        ("primal", _cmd_primal, "primal (co-occurrence) graph"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("hypergraph")
        p.add_argument("-o", "--output")
        p.set_defaults(func=func)

    p = sub.add_parser("reduce", help="reduced form plus its dilution sequence")
    p.add_argument("hypergraph")
    p.add_argument("-o", "--output")
    p.add_argument("--seq-out")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("dilute", help="apply a dilution sequence")
    p.add_argument("hypergraph")
    p.add_argument("sequence")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_dilute)

    p = sub.add_parser(
        "check-dilution", help="verify a sequence or search for one"
    )
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--seq", help="sequence to verify instead of searching")
    p.add_argument("--seq-out", help="write the found sequence here")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_check_dilution)

    p = sub.add_parser("width", help="exact treewidth or cover width")
    p.add_argument("--kind", choices=("tw", "ghw"), required=True)
    p.add_argument("hypergraph")
    p.add_argument("--witness-out")
    p.add_argument("--max-vertices", type=int, default=None)
    p.add_argument("--max-edges", type=int, default=DEFAULT_GHW_EDGE_LIMIT)
    p.set_defaults(func=_cmd_width)

    p = sub.add_parser(
        "jigsaw-extract",
        help="dilution sequence onto a jigsaw via a grid minor of the dual",
    )
    p.add_argument("hypergraph")
    p.add_argument("-n", type=int, default=2, help="jigsaw dimension")
    p.add_argument("--seq-out")
    p.add_argument("--witness-out", help="write the grid minor map here")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_jigsaw_extract)

    p = sub.add_parser(
        "prejigsaw-extract",
        help="dilution sequence onto a pre-jigsaw via an expressive minor",
    )
    p.add_argument("hypergraph")
    p.add_argument("-n", type=int, default=2)
    p.add_argument("--witness-in", help="expressive-minor witness file")
    p.add_argument("--seq-out")
    p.add_argument("--witness-out", help="write the pre-jigsaw witness here")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_prejigsaw_extract)

    p = sub.add_parser("cq-eval", help="evaluate a query over a database")
    p.add_argument("query")
    p.add_argument("database")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_cq_eval)

    p = sub.add_parser("cq-count", help="number of solutions")
    p.add_argument("query")
    p.add_argument("database")
    p.set_defaults(func=_cmd_cq_count)

    p = sub.add_parser(
        "cq-reduce", help="rebuild an instance over a dilution source"
    )
    p.add_argument("query")
    p.add_argument("database")
    p.add_argument("hypergraph")
    p.add_argument("sequence")
    p.add_argument("--out-query", required=True)
    p.add_argument("--out-db", required=True)
    p.add_argument("--out-rename")
    p.set_defaults(func=_cmd_cq_reduce)

    p = sub.add_parser("core", help="minimal homomorphically equivalent query")
    p.add_argument("query")
    p.add_argument("-o", "--output")
    p.add_argument("--max-vars", type=int, default=8)
    p.set_defaults(func=_cmd_core)

    p = sub.add_parser("sghw", help="cover width of the query core")
    p.add_argument("query")
    p.add_argument("--max-vars", type=int, default=8)
    p.add_argument("--max-edges", type=int, default=DEFAULT_GHW_EDGE_LIMIT)
    p.set_defaults(func=_cmd_sghw)

    p = sub.add_parser("suite", help="run the acceptance batteries")
    p.add_argument("--only", help="comma-separated criterion numbers")
    p.add_argument("--quick", action="store_true", help="smaller smoke corpora")
    p.add_argument("--seed", type=int, default=20250810)
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "budget", None) is None and hasattr(args, "budget"):
        try:
            args.budget = _default_budget()
        except InvalidInputError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_INPUT
    if getattr(args, "max_vertices", -1) is None:
        args.max_vertices = (
            DEFAULT_TW_VERTEX_LIMIT if args.kind == "tw" else DEFAULT_GHW_VERTEX_LIMIT
        )
    try:
        return args.func(args)
    except BudgetExceededError as err:
        print(f"budget exhausted: {err}", file=sys.stderr)
        return EXIT_INPUT if args.strict else EXIT_BUDGET
    except HgError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
