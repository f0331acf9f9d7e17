"""Text and JSON wire formats for every artifact the CLI reads or writes.

Text formats, one item per line, ``%`` starts a comment line:

* hypergraph: ``edgeName(v1,v2,...)``; isolated vertices as ``vertex(v)``;
  an empty edge as ``edgeName()``.  ``vertex`` is reserved as a directive.
* dilution sequence: ``delv v`` / ``dele name(v1,...)`` / ``merge v``.
* decomposition: ``node n parent m bag v1 v2 ... cover e1 e2 ...`` with
  ``parent -`` at the root; the ``cover`` clause is optional and refers to
  edges by their hypergraph-file names.
* query: ``R(x,y)``.  database: ``R(a,b).`` with a trailing period.
* minor map: ``mu v -> x1 x2 ...``; expressive maps add ``rho u v -> edge``.
* pre-jigsaw witness: ``dims n m``, ``pi u -> x``, ``o e -> f1 f2 ...``,
  ``path u v : v0 e0 v1 ...`` (edges by name).

Every text format mirrors a JSON document one-to-one; parsers sniff JSON by
a leading ``{`` or ``[``.  A parser reads text lines into that document and
checks and builds every document in one place; a writer builds the document
and renders it as JSON or as text lines.  Names (hypergraph vertices and
edges, sequence vertices, query variables and relation symbols, database
and solution constants) match ``[A-Za-z0-9_]+``; the other strings are
tokens without whitespace.  A name identifies exactly one edge; an edge
given several names keeps its first, and ``edge_names`` names the rest.
Every ``parse_*`` raises ``ParseError`` on malformed input.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from importlib import resources

from .cq import Assignment, ConjunctiveQuery, Database
from .decomposition import GHDecomposition, TreeDecomposition
from .dilution import (
    DeleteSubedge,
    DeleteVertex,
    DilutionSequence,
    MergeOn,
)
from .errors import InvalidInputError, ParseError
from .generators import jigsaw_named_edges
from .hypergraph import Hypergraph, Path, PreJigsawWitness, edge_key
from .minors import ExpressiveMinorMap, MinorMap

NAME_RE = re.compile(r"[A-Za-z0-9_]+")
_TOKEN_RE = re.compile(r"\S+")
_ATOM_RE = re.compile(r"(?P<name>[A-Za-z0-9_]+)\s*\(\s*(?P<args>[^)]*)\)\s*$")


def _parser(parse):
    """Reports a missing key or a wrongly typed field as a ParseError."""

    @functools.wraps(parse)
    def wrapped(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except KeyError as err:
            raise ParseError(f"missing key {err}") from None
        except (AttributeError, IndexError, TypeError, ValueError) as err:
            raise ParseError(f"malformed input: {err}") from None

    return wrapped


def _json_doc(text: str):
    """The parsed document if ``text`` is JSON, else None.  A key repeated
    in one object is an error, not an entry the later one overwrites."""
    if not text.lstrip().startswith(("{", "[")):
        return None
    try:
        return json.loads(text, object_pairs_hook=_json_object)
    except json.JSONDecodeError as err:
        raise ParseError(f"bad JSON: {err}") from None


def _json_object(pairs) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ParseError(f"bad JSON: repeated key {key!r}")
        doc[key] = value
    return doc


def _write(doc, fmt: str, lines) -> str:
    """``doc`` as JSON, or its text rendering ``lines``."""
    if fmt == "json":
        return json.dumps(doc, indent=2)
    return "\n".join(lines) + "\n"


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        yield lineno, line


def _check_name(name, what: str, pattern: re.Pattern = NAME_RE) -> str:
    if not isinstance(name, str) or not pattern.fullmatch(name):
        raise ParseError(f"{what} {name!r} must match {pattern.pattern}")
    return name


def _names(items, what: str, pattern: re.Pattern = NAME_RE) -> list[str]:
    if not isinstance(items, list):
        raise ParseError(f"expected a list of {what}s, got {items!r}")
    return [_check_name(x, what, pattern) for x in items]


def _atom(line: str, lineno: int, shape: str) -> tuple[str, list[str]]:
    """The name and arguments of a ``name(a1,a2,...)`` line."""
    m = _ATOM_RE.match(line)
    if not m:
        raise ParseError(f"line {lineno}: expected {shape}, got {line!r}")
    args = m.group("args").strip()
    return m.group("name"), [a.strip() for a in args.split(",")] if args else []


def _facts(text: str):
    """(lineno, symbol, arguments) of each ``R(a,b,...).`` line."""
    for lineno, line in _lines(text):
        if not line.endswith("."):
            raise ParseError(f"line {lineno}: facts end with a period")
        yield lineno, *_atom(line[:-1].strip(), lineno, "R(a,b,...).")


# -- edge names ----------------------------------------------------------------


def _first_names(edges_by_name: dict[str, frozenset]) -> dict[frozenset, str]:
    """Inverts a name -> edge table; an edge with several names keeps the first."""
    name_of: dict[frozenset, str] = {}
    for n, e in edges_by_name.items():
        name_of.setdefault(e, n)
    return name_of


def _edge_name(name_of: dict[frozenset, str], e: frozenset, what: str) -> str:
    if e not in name_of:
        raise ParseError(f"no name known for {what} edge {sorted(e)}")
    return name_of[e]


def _resolve(edges_by_name: dict[str, frozenset], en: str, where: str) -> frozenset:
    if en not in edges_by_name:
        raise ParseError(f"unknown edge name {en!r} in {where}")
    return edges_by_name[en]


def edge_names(
    h: Hypergraph, names: dict[str, frozenset] | None = None
) -> dict[frozenset, str]:
    """Edge -> name for every edge of ``h``, in ``edge_key`` order.

    Each edge keeps its first name in ``names``; the others get ``e1``,
    ``e2``, ... in ``edge_key`` order, skipping every name ``names`` uses.
    """
    names = names or {}
    known = _first_names(names)
    fresh = (f"e{i}" for i in itertools.count(1) if f"e{i}" not in names)
    return {
        e: known[e] if e in known else next(fresh)
        for e in sorted(h.edges, key=edge_key)
    }


def auto_edge_names(h: Hypergraph) -> dict[str, frozenset]:
    """Name -> edge with every edge named ``e1``, ``e2``, ... in ``edge_key`` order."""
    return {n: e for e, n in edge_names(h).items()}


# -- hypergraphs ---------------------------------------------------------------


@_parser
def parse_hypergraph(text: str) -> tuple[Hypergraph, dict[str, frozenset]]:
    """Returns the hypergraph and its name -> edge table.

    One name given to two different edges is an error; an edge given several
    names keeps the first, so the table names every edge exactly once.
    """
    doc = _json_doc(text)
    if doc is None:
        doc = {"vertices": [], "edges": []}
        for lineno, line in _lines(text):
            name, args = _atom(line, lineno, "name(v1,...)")
            if name != "vertex":
                doc["edges"].append({"name": name, "vertices": args})
            elif len(args) != 1:
                raise ParseError(f"line {lineno}: vertex(...) takes one name")
            else:
                doc["vertices"] += args
    edge_of: dict[str, frozenset] = {}
    for item in doc.get("edges", []):
        name = _check_name(item["name"], "edge name")
        if name == "vertex":
            raise ParseError("'vertex' is a directive, not an edge name")
        e = frozenset(_names(item["vertices"], "vertex"))
        if edge_of.setdefault(name, e) != e:
            raise ParseError(f"edge name {name!r} names two different edges")
    edges = frozenset(edge_of.values())
    vertices = frozenset(_names(doc.get("vertices", []), "vertex")).union(*edges)
    return Hypergraph(vertices, edges), {n: e for e, n in _first_names(edge_of).items()}


def write_hypergraph(
    h: Hypergraph, names: dict[str, frozenset] | None = None, fmt: str = "text"
) -> str:
    for v in h.vertices:
        _check_name(v, "vertex")
    edges = [
        {"name": n, "vertices": sorted(e)} for e, n in edge_names(h, names).items()
    ]
    lines = [f"vertex({v})" for v in sorted(h.vertices.difference(*h.edges))]
    lines += [f"{e['name']}({','.join(e['vertices'])})" for e in edges]
    return _write({"vertices": sorted(h.vertices), "edges": edges}, fmt, lines)


# -- dilution sequences --------------------------------------------------------

# step op -> (step class, JSON key of its argument: a vertex or an edge's vertices)
_STEP_OPS = {
    "delv": (DeleteVertex, "vertex"),
    "dele": (DeleteSubedge, "vertices"),
    "merge": (MergeOn, "vertex"),
}
_OP_OF = {cls: (op, key) for op, (cls, key) in _STEP_OPS.items()}


@_parser
def parse_sequence(text: str) -> DilutionSequence:
    doc = _json_doc(text)
    if doc is None:
        doc = {"steps": []}
        for lineno, line in _lines(text):
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected '<op> <arg>'")
            op, arg = parts[0], parts[1].strip()
            if op == "dele":
                edge = _atom(arg, lineno, "dele name(v1,...)")[1]
                doc["steps"].append({"op": op, "vertices": edge})
            else:
                doc["steps"].append({"op": op, "vertex": arg})
    steps = []
    for i, item in enumerate(doc["steps"], start=1):
        if item["op"] not in _STEP_OPS:
            raise ParseError(f"step {i}: unknown op {item['op']!r}")
        cls, key = _STEP_OPS[item["op"]]
        if cls is DeleteSubedge:
            steps.append(cls(frozenset(_names(item[key], "vertex"))))
        else:
            steps.append(cls(_check_name(item[key], "vertex")))
    fingerprint = (doc.get("source_vertices"), doc.get("source_edges"))
    if any(x is not None and type(x) is not int for x in fingerprint):
        raise ParseError(f"source sizes {fingerprint} must be integers")
    return DilutionSequence(tuple(steps), *fingerprint)


def write_sequence(seq: DilutionSequence, fmt: str = "text") -> str:
    steps = []
    for s in seq.steps:
        op, key = _OP_OF[type(s)]
        steps.append({"op": op, key: sorted(s.edge) if key == "vertices" else s.vertex})
    doc = {
        "source_vertices": seq.source_vertices,
        "source_edges": seq.source_edges,
        "steps": steps,
    }
    lines = [
        f"{s['op']} e({','.join(s['vertices'])})"
        if "vertices" in s
        else f"{s['op']} {s['vertex']}"
        for s in steps
    ]
    return _write(doc, fmt, lines)


def fig3_sequence() -> DilutionSequence:
    """The packaged mesh(6,6) -> jigsaw(3,2) dilution sequence.

    Parsed from the data file shipped with the package: merge on every
    diagonal cell, then delete all cells except one junction cell per
    adjacent pair of the six merged row-column blobs.
    """
    data = resources.files("hgdilute").joinpath("data/mesh66_to_jigsaw32.dseq")
    return parse_sequence(data.read_text())


# -- decompositions ------------------------------------------------------------


@_parser
def parse_decomposition(
    text: str, edges_by_name: dict[str, frozenset] | None = None
) -> TreeDecomposition | GHDecomposition:
    doc = _json_doc(text)
    if doc is None:
        doc = {"nodes": []}
        for lineno, line in _lines(text):
            toks = line.split()
            if len(toks) < 4 or toks[0] != "node" or toks[2] != "parent":
                raise ParseError(f"line {lineno}: expected 'node n parent m bag ...'")
            if "bag" not in toks:
                raise ParseError(f"line {lineno}: missing bag clause")
            cover_at = toks.index("cover") if "cover" in toks else None
            item = {
                "name": toks[1],
                "parent": None if toks[3] == "-" else toks[3],
                "bag": toks[toks.index("bag") + 1 : cover_at],
            }
            if cover_at is not None:
                item["cover"] = toks[cover_at + 1 :]
            doc["nodes"].append(item)
    nodes = doc["nodes"]
    has_cover = [item.get("cover") is not None for item in nodes]
    if any(has_cover) and not all(has_cover):
        raise ParseError("either every node carries a cover clause or none does")
    td = TreeDecomposition(
        tuple(item["name"] for item in nodes),
        tuple((item["name"], item.get("parent")) for item in nodes),
        tuple(
            (item["name"], frozenset(_names(item["bag"], "vertex", _TOKEN_RE)))
            for item in nodes
        ),
    )
    if not any(has_cover):
        return td
    if edges_by_name is None:
        raise ParseError("cover clauses need the hypergraph's edge names")
    covers = []
    for item in nodes:
        where = f"cover of {item['name']}"
        cover = _names(item["cover"], "edge name", _TOKEN_RE)
        covers.append(
            (item["name"], frozenset(_resolve(edges_by_name, en, where) for en in cover))
        )
    return GHDecomposition(td, tuple(covers))


def write_decomposition(
    dec: TreeDecomposition | GHDecomposition,
    edges_by_name: dict[str, frozenset] | None = None,
    fmt: str = "text",
) -> str:
    if isinstance(dec, GHDecomposition):
        td, name_of = dec.td, _first_names(edges_by_name or {})
        covers = {
            n: sorted(_edge_name(name_of, e, "cover") for e in lam)
            for n, lam in dec.cover_of().items()
        }
    else:
        td, covers = dec, None
    parent, bags = td.parent_of(), td.bag_of()
    nodes, lines = [], []
    for n in td.nodes:
        item = {"name": n, "parent": parent[n], "bag": sorted(bags[n])}
        words = ["node", n, "parent", "-" if parent[n] is None else parent[n]]
        words += ["bag", *item["bag"]]
        if covers is not None:
            item["cover"] = covers[n]
            words += ["cover", *covers[n]]
        nodes.append(item)
        lines.append(" ".join(words))
    return _write({"nodes": nodes}, fmt, lines)


# -- queries, databases, solutions ----------------------------------------------


@_parser
def parse_query(text: str) -> ConjunctiveQuery:
    if (doc := _json_doc(text)) is None:
        atoms = [_atom(line, lineno, "R(x,y,...)") for lineno, line in _lines(text)]
    else:
        atoms = [(a["relation"], a["args"]) for a in doc["atoms"]]
    return ConjunctiveQuery.of(
        (_check_name(rel, "relation"), _names(args, "variable")) for rel, args in atoms
    )


def write_query(q: ConjunctiveQuery, fmt: str = "text") -> str:
    atoms = [{"relation": a.relation, "args": list(a.args)} for a in q.atoms]
    lines = [f"{a.relation}({','.join(a.args)})" for a in q.atoms]
    return _write({"atoms": atoms}, fmt, lines)


@_parser
def parse_database(text: str) -> Database:
    if (doc := _json_doc(text)) is None:
        rels: dict[str, list] = {}
        for _, sym, args in _facts(text):
            rels.setdefault(sym, []).append(args)
    else:
        rels = doc["relations"]
    return Database.of(
        {
            _check_name(sym, "relation"): [tuple(_names(r, "constant")) for r in rows]
            for sym, rows in rels.items()
        }
    )


def write_database(d: Database, fmt: str = "text") -> str:
    doc = {"relations": {sym: [list(row) for row in rows] for sym, rows in d.relations}}
    lines = [f"{sym}({','.join(row)})." for sym, rows in d.relations for row in rows]
    return _write(doc, fmt, lines)


def write_solutions(variables, solutions, fmt: str = "text") -> str:
    variables = list(variables)
    rows = sorted(tuple(s.as_dict()[v] for v in variables) for s in solutions)
    doc = {"vars": variables, "solutions": [list(r) for r in rows]}
    lines = [f"% vars: {' '.join(variables)}"]
    lines += [f"sol({','.join(r)})." for r in rows]
    return _write(doc, fmt, lines)


@_parser
def parse_solutions(text: str) -> tuple[list[str], frozenset[Assignment]]:
    if (doc := _json_doc(text)) is None:
        variables, rows = None, []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if line.startswith("% vars:"):
                if variables is not None:
                    raise ParseError(f"line {lineno}: a second '% vars:' line")
                variables = line[len("% vars:") :].split()
        for lineno, sym, args in _facts(text):
            if sym != "sol":
                raise ParseError(f"line {lineno}: expected sol(...) facts")
            rows.append(args)
        variables = variables or []
    else:
        variables, rows = doc["vars"], doc["solutions"]
    variables = _names(variables, "variable", _TOKEN_RE)
    if len(set(variables)) != len(variables):
        raise ParseError(f"variables {variables} repeat a name")
    sols = set()
    for row in rows:
        if len(_names(row, "constant")) != len(variables):
            raise ParseError(f"solution {row} does not match variables {variables}")
        sols.add(Assignment.of(dict(zip(variables, row))))
    return variables, frozenset(sols)


def write_rename(rename: dict[str, str], fmt: str = "text") -> str:
    lines = [f"{a} -> {b}" for a, b in sorted(rename.items())]
    return _write({"rename": rename}, fmt, lines)


@_parser
def parse_rename(text: str) -> dict[str, str]:
    if (doc := _json_doc(text)) is not None:
        pairs = list(doc["rename"].items())
    else:
        pairs = []
        for lineno, line in _lines(text):
            parts = line.split("->")
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'old -> new'")
            pairs.append((parts[0].strip(), parts[1].strip()))
    out: dict[str, str] = {}
    for old, new in pairs:
        if _check_name(old, "variable") in out:
            raise ParseError(f"variable {old!r} is renamed twice")
        out[old] = _check_name(new, "variable")
    return out


# -- witnesses -------------------------------------------------------------------


def _write_maps(branch_sets, rho=None, fmt: str = "text") -> str:
    """``mu`` lines of a minor map, plus ``rho`` (u, v, edge name) rows."""
    doc = {"branch_sets": {v: sorted(s) for v, s in branch_sets}}
    lines = [f"mu {v} -> {' '.join(s)}" for v, s in doc["branch_sets"].items()]
    if rho is not None:
        doc["rho"] = [{"u": u, "v": v, "edge": en} for u, v, en in rho]
        lines += [f"rho {u} {v} -> {en}" for u, v, en in rho]
    return _write(doc, fmt, lines)


def _parse_maps(text: str, edges_by_name: dict[str, frozenset] | None = None):
    """Branch sets and, given edge names, the ``rho`` edge map of ``text``."""
    doc = _json_doc(text)
    if doc is None:
        doc = {"branch_sets": {}, "rho": []}
        for lineno, line in _lines(text):
            toks = line.split()
            if toks[0] == "mu" and len(toks) >= 4 and toks[2] == "->":
                doc["branch_sets"][toks[1]] = toks[3:]
            elif (
                edges_by_name is not None
                and toks[0] == "rho"
                and len(toks) == 5
                and toks[3] == "->"
            ):
                doc["rho"].append({"u": toks[1], "v": toks[2], "edge": toks[4]})
            else:
                kinds = "mu" if edges_by_name is None else "mu/rho"
                raise ParseError(f"line {lineno}: expected {kinds} line")
    images = {
        v: frozenset(_names(s, "vertex", _TOKEN_RE))
        for v, s in doc["branch_sets"].items()
    }
    if edges_by_name is None:
        return images, {}
    rho = {
        frozenset(_names([item["u"], item["v"]], "vertex", _TOKEN_RE)): _resolve(
            edges_by_name, item["edge"], "rho"
        )
        for item in doc["rho"]
    }
    return images, rho


def write_minor_map(mm: MinorMap, fmt: str = "text") -> str:
    return _write_maps(mm.branch_sets, fmt=fmt)


@_parser
def parse_minor_map(text: str) -> MinorMap:
    return MinorMap.of(_parse_maps(text)[0])


def write_expressive(
    emm: ExpressiveMinorMap, edges_by_name: dict[str, frozenset], fmt: str = "text"
) -> str:
    name_of = _first_names(edges_by_name)
    rho = [(*sorted(ge), _edge_name(name_of, he, "host")) for ge, he in emm.rho]
    return _write_maps(emm.mu.branch_sets, rho, fmt)


@_parser
def parse_expressive(
    text: str, edges_by_name: dict[str, frozenset]
) -> ExpressiveMinorMap:
    return ExpressiveMinorMap.of(*_parse_maps(text, edges_by_name))


def write_prejigsaw(
    w: PreJigsawWitness, edges_by_name: dict[str, frozenset], fmt: str = "text"
) -> str:
    ename = functools.partial(_edge_name, _first_names(edges_by_name), what="host")
    jnames = _first_names(jigsaw_named_edges(w.rows, w.cols))
    doc = {
        "dims": [w.rows, w.cols],
        "pi": dict(w.corners),
        "o": {jnames[je]: sorted(map(ename, grp)) for je, grp in w.edge_groups},
        "paths": [
            {
                "u": u,
                "v": v,
                "vertices": list(p.path_vertices),
                "edges": [ename(e) for e in p.path_edges],
            }
            for (u, v), p in w.fixed_paths
        ],
    }
    lines = [f"dims {w.rows} {w.cols}"]
    lines += [f"pi {u} -> {x}" for u, x in w.corners]
    lines += [f"o {jname} -> {' '.join(ens)}" for jname, ens in doc["o"].items()]
    for p in doc["paths"]:
        walk = itertools.chain(*zip(p["vertices"], p["edges"]), p["vertices"][-1:])
        lines.append(f"path {p['u']} {p['v']} : {' '.join(walk)}")
    return _write(doc, fmt, lines)


@_parser
def parse_prejigsaw(
    text: str, edges_by_name: dict[str, frozenset]
) -> PreJigsawWitness:
    doc = _json_doc(text)
    if doc is None:
        doc = {"pi": {}, "o": {}, "paths": []}
        for lineno, line in _lines(text):
            toks = line.split()
            if toks[0] == "dims" and len(toks) == 3:
                doc["dims"] = [int(toks[1]), int(toks[2])]
            elif toks[0] == "pi" and len(toks) == 4 and toks[2] == "->":
                doc["pi"][toks[1]] = toks[3]
            elif toks[0] == "o" and len(toks) >= 3 and toks[2] == "->":
                if "dims" not in doc:
                    raise ParseError("dims line must come first")
                doc["o"][toks[1]] = toks[3:]
            elif toks[0] == "path" and len(toks) >= 5 and toks[3] == ":":
                walk = toks[4:]
                if len(walk) % 2 != 1:
                    raise ParseError(f"line {lineno}: path must alternate vertex edge")
                doc["paths"].append(
                    {
                        "u": toks[1],
                        "v": toks[2],
                        "vertices": walk[0::2],
                        "edges": walk[1::2],
                    }
                )
            else:
                raise ParseError(f"line {lineno}: unrecognized witness line")
        if "dims" not in doc:
            raise ParseError("witness needs a dims line")
    n, m = doc["dims"]
    try:
        jn = jigsaw_named_edges(n, m)
    except InvalidInputError as err:
        raise ParseError(f"dims {n} {m}: {err}") from None
    groups = {}
    for jname, ens in doc["o"].items():
        if jname not in jn:
            raise ParseError(f"unknown jigsaw edge {jname!r}")
        where = f"o {jname}"
        ens = _names(ens, "edge name", _TOKEN_RE)
        groups[jn[jname]] = frozenset(_resolve(edges_by_name, en, where) for en in ens)
    paths = {}
    for p in doc["paths"]:
        where = f"path {p['u']} {p['v']}"
        ens = _names(p["edges"], "edge name", _TOKEN_RE)
        paths[(p["u"], p["v"])] = Path(
            tuple(_names(p["vertices"], "vertex", _TOKEN_RE)),
            tuple(_resolve(edges_by_name, en, where) for en in ens),
        )
    return PreJigsawWitness(
        n,
        m,
        tuple(sorted(doc["pi"].items())),
        tuple(sorted(groups.items(), key=lambda kv: edge_key(kv[0]))),
        tuple(sorted(paths.items())),
    )
