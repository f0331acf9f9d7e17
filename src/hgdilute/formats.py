"""Text and JSON wire formats for every artifact the CLI reads or writes.

Text formats, one item per line, ``%`` starts a comment line:

* hypergraph: ``edgeName(v1,v2,...)``; isolated vertices as ``vertex(v)``;
  an empty edge as ``edgeName()``.  Names match ``[A-Za-z0-9_]+``; ``vertex``
  is reserved as a directive.
* dilution sequence: ``delv v`` / ``dele name(v1,...)`` / ``merge v``.
* decomposition: ``node n parent m bag v1 v2 ... cover e1 e2 ...`` with
  ``parent -`` at the root; the ``cover`` clause is optional and refers to
  edges by their hypergraph-file names.
* query: ``R(x,y)``.  database: ``R(a,b).`` with a trailing period.
* minor map: ``mu v -> x1 x2 ...``; expressive maps add ``rho u v -> edge``.
* pre-jigsaw witness: ``dims n m``, ``pi u -> x``, ``o e -> f1 f2 ...``,
  ``path u v : v0 e0 v1 ...`` (edges by name).

Every text format has a one-to-one JSON mirror; parsers sniff JSON by a
leading ``{`` or ``[``.
"""

from __future__ import annotations

import json
import re

from .cq import Assignment, ConjunctiveQuery, Database
from .decomposition import GHDecomposition, TreeDecomposition
from .dilution import (
    DeleteSubedge,
    DeleteVertex,
    DilutionSequence,
    MergeOn,
)
from .errors import ParseError
from .generators import jigsaw_named_edges
from .hypergraph import Hypergraph, Path, PreJigsawWitness, edge_key
from .minors import ExpressiveMinorMap, MinorMap

NAME_RE = re.compile(r"[A-Za-z0-9_]+$")
_ATOM_RE = re.compile(r"(?P<name>[A-Za-z0-9_]+)\s*\(\s*(?P<args>[^)]*)\)\s*$")


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        yield lineno, line


def _is_json(text: str) -> bool:
    stripped = text.lstrip()
    return stripped.startswith("{") or stripped.startswith("[")


def _check_name(name: str, what: str):
    if not NAME_RE.match(name):
        raise ParseError(f"{what} {name!r} must match [A-Za-z0-9_]+")


def _split_args(args: str, lineno: int) -> list[str]:
    args = args.strip()
    if not args:
        return []
    parts = [a.strip() for a in args.split(",")]
    for p in parts:
        if not NAME_RE.match(p):
            raise ParseError(f"line {lineno}: bad name {p!r}")
    return parts


# -- hypergraphs ---------------------------------------------------------------


def auto_edge_names(h: Hypergraph) -> dict[str, frozenset]:
    return {
        f"e{i}": e
        for i, e in enumerate(sorted(h.edges, key=edge_key), start=1)
    }


def parse_hypergraph(text: str) -> tuple[Hypergraph, dict[str, frozenset]]:
    """Returns the hypergraph and the name -> edge table (first name wins)."""
    if _is_json(text):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise ParseError(f"bad JSON: {err}") from None
        vertices = set(doc.get("vertices", []))
        names: dict[str, frozenset] = {}
        edges = set()
        for item in doc.get("edges", []):
            e = frozenset(item["vertices"])
            edges.add(e)
            names.setdefault(item["name"], e)
            vertices |= e
        for v in vertices:
            _check_name(v, "vertex")
        return Hypergraph(frozenset(vertices), frozenset(edges)), names

    vertices: set[str] = set()
    edges: set[frozenset] = set()
    names = {}
    seen_edges: set[frozenset] = set()
    for lineno, line in _lines(text):
        m = _ATOM_RE.match(line)
        if not m:
            raise ParseError(f"line {lineno}: expected name(v1,...), got {line!r}")
        name = m.group("name")
        args = _split_args(m.group("args"), lineno)
        if name == "vertex":
            if len(args) != 1:
                raise ParseError(f"line {lineno}: vertex(...) takes one name")
            vertices.add(args[0])
            continue
        e = frozenset(args)
        vertices |= e
        edges.add(e)
        if e not in seen_edges:
            seen_edges.add(e)
            if name not in names:
                names[name] = e
    return Hypergraph(frozenset(vertices), frozenset(edges)), names


def write_hypergraph(
    h: Hypergraph, names: dict[str, frozenset] | None = None, fmt: str = "text"
) -> str:
    for v in h.vertices:
        _check_name(v, "vertex")
    by_edge: dict[frozenset, str] = {}
    if names:
        for n, e in names.items():
            if e in h.edges:
                by_edge.setdefault(e, n)
    counter = 0
    for e in sorted(h.edges, key=edge_key):
        if e not in by_edge:
            counter += 1
            candidate = f"e{counter}"
            while candidate in (names or {}) or candidate in by_edge.values():
                counter += 1
                candidate = f"e{counter}"
            by_edge[e] = candidate
    isolated = sorted(v for v in h.vertices if all(v not in e for e in h.edges))
    if fmt == "json":
        return json.dumps(
            {
                "vertices": sorted(h.vertices),
                "edges": [
                    {"name": by_edge[e], "vertices": sorted(e)}
                    for e in sorted(h.edges, key=edge_key)
                ],
            },
            indent=2,
        )
    lines = [f"vertex({v})" for v in isolated]
    for e in sorted(h.edges, key=edge_key):
        lines.append(f"{by_edge[e]}({','.join(sorted(e))})")
    return "\n".join(lines) + "\n"


# -- dilution sequences --------------------------------------------------------


def parse_sequence(text: str) -> DilutionSequence:
    if _is_json(text):
        doc = json.loads(text)
        steps = []
        for item in doc["steps"]:
            op = item["op"]
            if op == "delv":
                steps.append(DeleteVertex(item["vertex"]))
            elif op == "dele":
                steps.append(DeleteSubedge(frozenset(item["vertices"])))
            elif op == "merge":
                steps.append(MergeOn(item["vertex"]))
            else:
                raise ParseError(f"unknown step op {op!r}")
        return DilutionSequence(
            tuple(steps), doc.get("source_vertices"), doc.get("source_edges")
        )
    steps = []
    for lineno, line in _lines(text):
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected '<op> <arg>'")
        op, rest = parts
        if op == "delv":
            _check_name(rest.strip(), "vertex")
            steps.append(DeleteVertex(rest.strip()))
        elif op == "merge":
            _check_name(rest.strip(), "vertex")
            steps.append(MergeOn(rest.strip()))
        elif op == "dele":
            m = _ATOM_RE.match(rest.strip())
            if not m:
                raise ParseError(f"line {lineno}: expected dele name(v1,...)")
            steps.append(
                DeleteSubedge(frozenset(_split_args(m.group("args"), lineno)))
            )
        else:
            raise ParseError(f"line {lineno}: unknown op {op!r}")
    return DilutionSequence(tuple(steps))


def write_sequence(seq: DilutionSequence, fmt: str = "text") -> str:
    if fmt == "json":
        steps = []
        for s in seq.steps:
            if isinstance(s, DeleteVertex):
                steps.append({"op": "delv", "vertex": s.vertex})
            elif isinstance(s, DeleteSubedge):
                steps.append({"op": "dele", "vertices": sorted(s.edge)})
            else:
                steps.append({"op": "merge", "vertex": s.vertex})
        return json.dumps(
            {
                "source_vertices": seq.source_vertices,
                "source_edges": seq.source_edges,
                "steps": steps,
            },
            indent=2,
        )
    lines = []
    for s in seq.steps:
        if isinstance(s, DeleteVertex):
            lines.append(f"delv {s.vertex}")
        elif isinstance(s, DeleteSubedge):
            lines.append(f"dele e({','.join(sorted(s.edge))})")
        else:
            lines.append(f"merge {s.vertex}")
    return "\n".join(lines) + "\n"


# -- decompositions ------------------------------------------------------------


def parse_decomposition(
    text: str, edges_by_name: dict[str, frozenset] | None = None
) -> TreeDecomposition | GHDecomposition:
    rows: list[tuple[str, str | None, frozenset, frozenset | None]] = []
    if _is_json(text):
        doc = json.loads(text)
        for item in doc["nodes"]:
            cover = item.get("cover")
            rows.append(
                (
                    item["name"],
                    item.get("parent"),
                    frozenset(item["bag"]),
                    None if cover is None else frozenset(cover),
                )
            )
    else:
        for lineno, line in _lines(text):
            toks = line.split()
            if len(toks) < 4 or toks[0] != "node" or toks[2] != "parent":
                raise ParseError(f"line {lineno}: expected 'node n parent m bag ...'")
            name, parent = toks[1], toks[3]
            if "bag" not in toks:
                raise ParseError(f"line {lineno}: missing bag clause")
            bag_at = toks.index("bag")
            cover_at = toks.index("cover") if "cover" in toks else None
            bag = toks[bag_at + 1 : cover_at if cover_at is not None else len(toks)]
            cover = None if cover_at is None else frozenset(toks[cover_at + 1 :])
            rows.append(
                (name, None if parent == "-" else parent, frozenset(bag), cover)
            )
    has_cover = [r[3] is not None for r in rows]
    if any(has_cover) and not all(has_cover):
        raise ParseError("either every node carries a cover clause or none does")
    td = TreeDecomposition(
        tuple(r[0] for r in rows),
        tuple((r[0], r[1]) for r in rows),
        tuple((r[0], r[2]) for r in rows),
    )
    if not any(has_cover):
        return td
    if edges_by_name is None:
        raise ParseError("cover clauses need the hypergraph's edge names")
    covers = []
    for name, _, _, cover in rows:
        resolved = set()
        for en in cover:
            if en not in edges_by_name:
                raise ParseError(f"unknown edge name {en!r} in cover of {name}")
            resolved.add(edges_by_name[en])
        covers.append((name, frozenset(resolved)))
    return GHDecomposition(td, tuple(covers))


def write_decomposition(
    dec: TreeDecomposition | GHDecomposition,
    edges_by_name: dict[str, frozenset] | None = None,
    fmt: str = "text",
) -> str:
    if isinstance(dec, GHDecomposition):
        td, covers = dec.td, dec.cover_of()
        name_of = {}
        for n, e in (edges_by_name or {}).items():
            name_of.setdefault(e, n)
        for _, lam in covers.items():
            for e in lam:
                if e not in name_of:
                    raise ParseError(
                        f"no name known for cover edge {sorted(e)}"
                    )
    else:
        td, covers, name_of = dec, None, {}
    parent = td.parent_of()
    bags = td.bag_of()
    if fmt == "json":
        nodes = []
        for n in td.nodes:
            item = {"name": n, "parent": parent[n], "bag": sorted(bags[n])}
            if covers is not None:
                item["cover"] = sorted(name_of[e] for e in covers[n])
            nodes.append(item)
        return json.dumps({"nodes": nodes}, indent=2)
    lines = []
    for n in td.nodes:
        parts = [f"node {n} parent {parent[n] if parent[n] is not None else '-'}"]
        parts.append("bag " + " ".join(sorted(bags[n])) if bags[n] else "bag")
        if covers is not None:
            parts.append(
                "cover " + " ".join(sorted(name_of[e] for e in covers[n]))
                if covers[n]
                else "cover"
            )
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# -- queries, databases, solutions ----------------------------------------------


def parse_query(text: str) -> ConjunctiveQuery:
    if _is_json(text):
        doc = json.loads(text)
        return ConjunctiveQuery.of(
            (a["relation"], a["args"]) for a in doc["atoms"]
        )
    atoms = []
    for lineno, line in _lines(text):
        m = _ATOM_RE.match(line)
        if not m:
            raise ParseError(f"line {lineno}: expected R(x,y,...)")
        atoms.append((m.group("name"), _split_args(m.group("args"), lineno)))
    return ConjunctiveQuery.of(atoms)


def write_query(q: ConjunctiveQuery, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(
            {"atoms": [{"relation": a.relation, "args": list(a.args)} for a in q.atoms]},
            indent=2,
        )
    return "\n".join(f"{a.relation}({','.join(a.args)})" for a in q.atoms) + "\n"


def parse_database(text: str) -> Database:
    if _is_json(text):
        doc = json.loads(text)
        return Database.of(
            {sym: [tuple(row) for row in rows] for sym, rows in doc["relations"].items()}
        )
    rels: dict[str, set] = {}
    for lineno, line in _lines(text):
        if not line.endswith("."):
            raise ParseError(f"line {lineno}: facts end with a period")
        m = _ATOM_RE.match(line[:-1].strip())
        if not m:
            raise ParseError(f"line {lineno}: expected R(a,b,...).")
        rels.setdefault(m.group("name"), set()).add(
            tuple(_split_args(m.group("args"), lineno))
        )
    return Database.of(rels)


def write_database(d: Database, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(
            {
                "relations": {
                    sym: [list(row) for row in rows] for sym, rows in d.relations
                }
            },
            indent=2,
        )
    lines = []
    for sym, rows in d.relations:
        for row in rows:
            lines.append(f"{sym}({','.join(row)}).")
    return "\n".join(lines) + "\n"


def write_solutions(variables, solutions, fmt: str = "text") -> str:
    variables = list(variables)
    rows = sorted(
        tuple(s.as_dict()[v] for v in variables) for s in solutions
    )
    if fmt == "json":
        return json.dumps(
            {"vars": variables, "solutions": [list(r) for r in rows]}, indent=2
        )
    lines = [f"% vars: {' '.join(variables)}"]
    for r in rows:
        lines.append(f"sol({','.join(r)}).")
    return "\n".join(lines) + "\n"


def parse_solutions(text: str) -> tuple[list[str], frozenset[Assignment]]:
    if _is_json(text):
        doc = json.loads(text)
        variables = list(doc["vars"])
        sols = frozenset(
            Assignment.of(dict(zip(variables, row))) for row in doc["solutions"]
        )
        return variables, sols
    variables: list[str] = []
    sols = set()
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("% vars:"):
            variables = line[len("% vars:") :].split()
    for lineno, line in _lines(text):
        if not line.endswith("."):
            raise ParseError(f"line {lineno}: facts end with a period")
        m = _ATOM_RE.match(line[:-1].strip())
        if not m or m.group("name") != "sol":
            raise ParseError(f"line {lineno}: expected sol(...) facts")
        row = _split_args(m.group("args"), lineno)
        if len(row) != len(variables):
            raise ParseError(f"line {lineno}: solution arity mismatch")
        sols.add(Assignment.of(dict(zip(variables, row))))
    return variables, frozenset(sols)


def write_rename(rename: dict[str, str], fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps({"rename": rename}, indent=2)
    return "\n".join(f"{a} -> {b}" for a, b in sorted(rename.items())) + "\n"


def parse_rename(text: str) -> dict[str, str]:
    if _is_json(text):
        return dict(json.loads(text)["rename"])
    out = {}
    for lineno, line in _lines(text):
        parts = line.split("->")
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'old -> new'")
        out[parts[0].strip()] = parts[1].strip()
    return out


# -- witnesses -------------------------------------------------------------------


def write_minor_map(mm: MinorMap, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(
            {"branch_sets": {v: sorted(s) for v, s in mm.branch_sets}}, indent=2
        )
    return (
        "\n".join(f"mu {v} -> {' '.join(sorted(s))}" for v, s in mm.branch_sets)
        + "\n"
    )


def parse_minor_map(text: str) -> MinorMap:
    if _is_json(text):
        doc = json.loads(text)
        return MinorMap.of({v: frozenset(s) for v, s in doc["branch_sets"].items()})
    images = {}
    for lineno, line in _lines(text):
        toks = line.split()
        if len(toks) < 4 or toks[0] != "mu" or toks[2] != "->":
            raise ParseError(f"line {lineno}: expected 'mu v -> x1 x2 ...'")
        images[toks[1]] = frozenset(toks[3:])
    return MinorMap.of(images)


def write_expressive(
    emm: ExpressiveMinorMap, edges_by_name: dict[str, frozenset], fmt: str = "text"
) -> str:
    name_of = {}
    for n, e in edges_by_name.items():
        name_of.setdefault(e, n)
    rho_items = []
    for ge, he in emm.rho:
        u, v = sorted(ge)
        if he not in name_of:
            raise ParseError(f"no name known for host edge {sorted(he)}")
        rho_items.append((u, v, name_of[he]))
    if fmt == "json":
        return json.dumps(
            {
                "branch_sets": {v: sorted(s) for v, s in emm.mu.branch_sets},
                "rho": [{"u": u, "v": v, "edge": en} for u, v, en in rho_items],
            },
            indent=2,
        )
    lines = [f"mu {v} -> {' '.join(sorted(s))}" for v, s in emm.mu.branch_sets]
    lines += [f"rho {u} {v} -> {en}" for u, v, en in rho_items]
    return "\n".join(lines) + "\n"


def parse_expressive(
    text: str, edges_by_name: dict[str, frozenset]
) -> ExpressiveMinorMap:
    images: dict[str, frozenset] = {}
    rho: dict[frozenset, frozenset] = {}

    def resolve(en: str, where: str) -> frozenset:
        if en not in edges_by_name:
            raise ParseError(f"unknown edge name {en!r} in {where}")
        return edges_by_name[en]

    if _is_json(text):
        doc = json.loads(text)
        images = {v: frozenset(s) for v, s in doc["branch_sets"].items()}
        for item in doc["rho"]:
            rho[frozenset({item["u"], item["v"]})] = resolve(item["edge"], "rho")
        return ExpressiveMinorMap.of(images, rho)
    for lineno, line in _lines(text):
        toks = line.split()
        if toks[0] == "mu" and len(toks) >= 4 and toks[2] == "->":
            images[toks[1]] = frozenset(toks[3:])
        elif toks[0] == "rho" and len(toks) == 5 and toks[3] == "->":
            rho[frozenset({toks[1], toks[2]})] = resolve(toks[4], f"line {lineno}")
        else:
            raise ParseError(f"line {lineno}: expected mu/rho line")
    return ExpressiveMinorMap.of(images, rho)


def write_prejigsaw(
    w: PreJigsawWitness, edges_by_name: dict[str, frozenset], fmt: str = "text"
) -> str:
    name_of = {}
    for n, e in edges_by_name.items():
        name_of.setdefault(e, n)

    def ename(e: frozenset) -> str:
        if e not in name_of:
            raise ParseError(f"no name known for host edge {sorted(e)}")
        return name_of[e]

    jnames = {}
    for jn, je in jigsaw_named_edges(w.rows, w.cols).items():
        jnames.setdefault(je, jn)
    if fmt == "json":
        return json.dumps(
            {
                "dims": [w.rows, w.cols],
                "pi": {u: x for u, x in w.corners},
                "o": {
                    jnames[je]: sorted(ename(e) for e in grp)
                    for je, grp in w.edge_groups
                },
                "paths": [
                    {
                        "u": u,
                        "v": v,
                        "vertices": list(p.path_vertices),
                        "edges": [ename(e) for e in p.path_edges],
                    }
                    for (u, v), p in w.fixed_paths
                ],
            },
            indent=2,
        )
    lines = [f"dims {w.rows} {w.cols}"]
    lines += [f"pi {u} -> {x}" for u, x in w.corners]
    for je, grp in w.edge_groups:
        lines.append(f"o {jnames[je]} -> {' '.join(sorted(ename(e) for e in grp))}")
    for (u, v), p in w.fixed_paths:
        inter = [p.path_vertices[0]]
        for i, e in enumerate(p.path_edges):
            inter += [ename(e), p.path_vertices[i + 1]]
        lines.append(f"path {u} {v} : {' '.join(inter)}")
    return "\n".join(lines) + "\n"


def parse_prejigsaw(
    text: str, edges_by_name: dict[str, frozenset]
) -> PreJigsawWitness:
    def resolve(en: str, where: str) -> frozenset:
        if en not in edges_by_name:
            raise ParseError(f"unknown edge name {en!r} in {where}")
        return edges_by_name[en]

    if _is_json(text):
        doc = json.loads(text)
        n, m = doc["dims"]
        jn = jigsaw_named_edges(n, m)
        groups = {
            jn[jname]: frozenset(resolve(en, "o") for en in ens)
            for jname, ens in doc["o"].items()
        }
        paths = {}
        for item in doc["paths"]:
            p = Path(
                tuple(item["vertices"]),
                tuple(resolve(en, "path") for en in item["edges"]),
            )
            paths[(item["u"], item["v"])] = p
        return PreJigsawWitness(
            n,
            m,
            tuple(sorted(doc["pi"].items())),
            tuple(sorted(groups.items(), key=lambda kv: edge_key(kv[0]))),
            tuple(sorted(paths.items())),
        )
    dims = None
    pi = {}
    groups = {}
    paths = {}
    jn = {}
    for lineno, line in _lines(text):
        toks = line.split()
        if toks[0] == "dims" and len(toks) == 3:
            dims = (int(toks[1]), int(toks[2]))
            jn = jigsaw_named_edges(*dims)
        elif toks[0] == "pi" and len(toks) == 4 and toks[2] == "->":
            pi[toks[1]] = toks[3]
        elif toks[0] == "o" and len(toks) >= 3 and toks[2] == "->":
            if dims is None:
                raise ParseError("dims line must come first")
            if toks[1] not in jn:
                raise ParseError(f"line {lineno}: unknown jigsaw edge {toks[1]!r}")
            groups[jn[toks[1]]] = frozenset(
                resolve(en, f"line {lineno}") for en in toks[3:]
            )
        elif toks[0] == "path" and len(toks) >= 5 and toks[3] == ":":
            u, v = toks[1], toks[2]
            rest = toks[4:]
            if len(rest) % 2 != 1:
                raise ParseError(f"line {lineno}: path must alternate vertex edge")
            verts = tuple(rest[0::2])
            pedges = tuple(resolve(en, f"line {lineno}") for en in rest[1::2])
            paths[(u, v)] = Path(verts, pedges)
        else:
            raise ParseError(f"line {lineno}: unrecognized witness line")
    if dims is None:
        raise ParseError("witness needs a dims line")
    return PreJigsawWitness(
        dims[0],
        dims[1],
        tuple(sorted(pi.items())),
        tuple(sorted(groups.items(), key=lambda kv: edge_key(kv[0]))),
        tuple(sorted(paths.items())),
    )
