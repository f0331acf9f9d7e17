"""Command-line surface: every operation wired to files.

Exit codes: 0 success, 1 negative decision (e.g. not a dilution, no minor),
2 input errors (parse failures, violated preconditions, exceeded limits,
unwritable output paths, budgets below 0),
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
from .acceptance import CRITERIA, DEFAULT_SEED, run_suite
from .cq import (
    DEFAULT_CORE_VAR_LIMIT,
    count as cq_count,
    evaluate,
    reduce_along_dilution,
    compute_core,
    semantic_ghw,
)
from .decomposition import exact_ghw, exact_treewidth
from .dilution import (
    DEFAULT_SEARCH_BUDGET,
    apply_sequence,
    reduce_hypergraph,
    verify_dilution,
)
from .errors import (
    BudgetExceededError,
    HgError,
    InvalidInputError,
    ParseError,
)
from .generators import (
    _check_jigsaw_dims,
    grid,
    jigsaw,
    mesh,
    random_hypergraph,
    subdivided_jigsaw,
)
from .hypergraph import Hypergraph, dual, dual_with_map, primal_graph
from .minors import (
    _dilution_by_minor,
    decide_dilution,
    expressive_from_minor,
    minor_piece,
    prejigsaw_from_expressive_minor,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _count(what: str):
    """The parser of an integer >= 0; ``what`` names it in the error."""

    def parse(text: str) -> int:
        if not text.strip().isdecimal():
            raise argparse.ArgumentTypeError(
                f"{what} must be an integer >= 0, got {text!r}"
            )
        return int(text)

    return parse


_budget = _count("budget")  # from ``--budget`` or ``HGDILUTE_BUDGET``
_limit = _count("limit")


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
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hgdilute-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as err:
        raise InvalidInputError(f"cannot write {path}: {err.strerror}") from None


def _load_hypergraph(path: str):
    return formats.parse_hypergraph(_read(path))


# -- subcommand handlers ---------------------------------------------------------


def _cmd_gen(args) -> int:
    fam = args.family
    witness_text = None
    if fam == "grid":
        h = grid(args.n, args.m)
    elif fam == "jigsaw":
        h = jigsaw(args.n, args.m)
    elif fam == "mesh":
        h = mesh(args.n, args.m)
    elif fam == "subdivided-jigsaw":
        h, w = subdivided_jigsaw(args.n, args.m, args.k)
        if args.witness_out:
            witness_text = formats.write_prejigsaw(
                w, formats.auto_edge_names(h), fmt=args.format
            )
    elif fam == "random":
        h = random_hypergraph(
            args.nv, args.ne, args.max_degree, args.max_rank, args.seed
        )
    else:  # pragma: no cover - argparse enforces choices
        raise InvalidInputError(f"unknown family {fam}")
    _emit(formats.write_hypergraph(h, fmt=args.format), args.output)
    if witness_text is not None:
        _emit(witness_text, args.witness_out)
    return EXIT_OK


def _cmd_dual(args) -> int:
    h, names = _load_hypergraph(args.hypergraph)
    d, edge_to_name = dual_with_map(h)
    # dual vertices take the input file's edge names
    renamed = {
        edge_to_name[e]: n for e, n in formats.edge_names(h, names).items()
    }
    d = Hypergraph(
        frozenset(renamed.values()),
        frozenset(frozenset(renamed[v] for v in e) for e in d.edges),
    )
    _emit(formats.write_hypergraph(d, fmt=args.format), args.output)
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
    seq = decide_dilution(src, target, budget=args.budget)
    if seq is None:
        print("dilution: no")
        return EXIT_NEGATIVE
    print("dilution: yes")
    if args.seq_out:
        _emit(formats.write_sequence(seq, fmt=args.format), args.seq_out)
    return EXIT_OK


def _cmd_width(args) -> int:
    h, names = _load_hypergraph(args.hypergraph)
    oracle = exact_treewidth if args.kind == "tw" else exact_ghw
    # without --max-vertices each oracle keeps its own default limit
    limit = {} if args.max_vertices is None else {"max_vertices": args.max_vertices}
    report, witness = oracle(h, **limit)
    print(report.width)
    if args.witness_out:
        text = formats.write_decomposition(witness, names, fmt=args.format)
        _emit(text, args.witness_out)
    return EXIT_OK


def _cmd_jigsaw_extract(args) -> int:
    _check_jigsaw_dims(args.n, args.n)
    h, _ = _load_hypergraph(args.hypergraph)
    if h.max_degree() > 2:
        raise InvalidInputError("jigsaw extraction needs degree at most 2")
    found = _dilution_by_minor(
        h, grid(args.n, args.n), jigsaw(args.n, args.n), args.budget
    )
    if found is None:
        print(f"no {args.n}x{args.n} grid minor in the dual")
        return EXIT_NEGATIVE
    seq, mm = found
    print(f"dilutes to the {args.n}x{args.n} jigsaw in {len(seq.steps)} steps")
    if args.seq_out:
        _emit(formats.write_sequence(seq, fmt=args.format), args.seq_out)
    if args.witness_out:
        _emit(formats.write_minor_map(mm, fmt=args.format), args.witness_out)
    return EXIT_OK


def _cmd_prejigsaw_extract(args) -> int:
    _check_jigsaw_dims(args.n, args.n)
    h, _ = _load_hypergraph(args.hypergraph)
    h_red, _ = reduce_hypergraph(h)
    d, _ = dual_with_map(h_red)
    if args.witness_in:
        # a witness file names its maps by the dual of the reduced host
        emm = formats.parse_expressive(
            _read(args.witness_in), formats.auto_edge_names(d)
        )
        seq, witness = prejigsaw_from_expressive_minor(h, args.n, emm)
    else:
        if d.rank() > 2:
            raise InvalidInputError(
                "dual rank exceeds 2; provide an expressive-minor witness file"
            )
        g = grid(args.n, args.n)
        found = minor_piece(h, g, args.budget)
        if found is None:
            print(f"no {args.n}x{args.n} grid minor in the dual")
            return EXIT_NEGATIVE
        to_piece, piece, mm = found
        emm = expressive_from_minor(g, dual(piece), mm)
        seq, witness = prejigsaw_from_expressive_minor(piece, args.n, emm)
        seq = to_piece.then(seq.steps)
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
    report = semantic_ghw(q, max_vars=args.max_vars)
    print(report.width)
    return EXIT_OK


def _criterion_numbers(text: str) -> set[int]:
    """``--only``: comma-separated numbers of shipped criteria."""
    known = [ident for ident, _, _ in CRITERIA]
    try:
        picked = {int(x) for x in text.split(",")}
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated criterion numbers, got {text!r}"
        ) from None
    unknown = sorted(picked.difference(known))
    if unknown:
        raise argparse.ArgumentTypeError(
            f"no criterion {', '.join(map(str, unknown))} "
            f"(criteria are {known[0]}-{known[-1]})"
        )
    return picked


def _cmd_suite(args) -> int:
    start = time.monotonic()
    results = run_suite(only=args.only, quick=args.quick, seed=args.seed)
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
    p.add_argument("--budget", type=_budget, default=None)
    p.set_defaults(func=_cmd_check_dilution)

    p = sub.add_parser("width", help="exact treewidth or cover width")
    p.add_argument("--kind", choices=("tw", "ghw"), required=True)
    p.add_argument("hypergraph")
    p.add_argument("--witness-out")
    p.add_argument("--max-vertices", type=_limit, default=None)
    p.set_defaults(func=_cmd_width)

    p = sub.add_parser(
        "jigsaw-extract",
        help="dilution sequence onto a jigsaw via a grid minor of the dual",
    )
    p.add_argument("hypergraph")
    p.add_argument("-n", type=int, default=2, help="jigsaw dimension")
    p.add_argument("--seq-out")
    p.add_argument("--witness-out", help="write the grid minor map here")
    p.add_argument("--budget", type=_budget, default=None)
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
    p.add_argument("--budget", type=_budget, default=None)
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
    p.add_argument("--max-vars", type=_limit, default=DEFAULT_CORE_VAR_LIMIT)
    p.set_defaults(func=_cmd_core)

    p = sub.add_parser("sghw", help="cover width of the query core")
    p.add_argument("query")
    p.add_argument("--max-vars", type=_limit, default=DEFAULT_CORE_VAR_LIMIT)
    p.set_defaults(func=_cmd_sghw)

    p = sub.add_parser("suite", help="run the acceptance batteries")
    p.add_argument(
        "--only", type=_criterion_numbers, help="comma-separated criterion numbers"
    )
    p.add_argument("--quick", action="store_true", help="smaller smoke corpora")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "budget", None) is None and hasattr(args, "budget"):
        env = os.environ.get("HGDILUTE_BUDGET")
        try:
            args.budget = _budget(env) if env else DEFAULT_SEARCH_BUDGET
        except argparse.ArgumentTypeError as err:
            print(f"error: HGDILUTE_BUDGET: {err}", file=sys.stderr)
            return EXIT_INPUT
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
