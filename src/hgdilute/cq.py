"""Conjunctive queries and databases: evaluation, counting, cores, and the
constructive reduction along dilution sequences.

Queries are conjunctions of relational atoms with every variable free; there
is no existential quantification anywhere (counting results depend on this).
A query's hypergraph has the variables as vertices and one edge per atom's
variable set, so atoms sharing a variable set collapse onto one edge.

``reduce_along_dilution`` walks a dilution sequence backwards and rebuilds,
for each step, a query/database pair over the pre-step hypergraph whose
solutions project onto the original ones and whose solution *count* is
exactly preserved.  Fresh constants (one reserved token stream, disjoint from
the input's active domain) link the rebuilt relations through functional
dependence on the reintroduced variable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .decomposition import DEFAULT_GHW_EDGE_LIMIT, WidthReport, exact_ghw
from .errors import ConstructionError, InvalidInputError, LimitExceededError
from .hypergraph import Hypergraph, edge_key, isomorphic
from .dilution import (
    DeleteSubedge,
    DeleteVertex,
    DilutionSequence,
    MergeOn,
    apply_sequence_states,
)

FRESH_PREFIX = "_fresh_"
_FRESH_RE = re.compile(r"_fresh_\d+$")


@dataclass(frozen=True)
class Atom:
    relation: str
    args: tuple[str, ...]

    def var_set(self) -> frozenset[str]:
        return frozenset(self.args)


@dataclass(frozen=True)
class ConjunctiveQuery:
    atoms: tuple[Atom, ...]

    def variables(self) -> tuple[str, ...]:
        return tuple(sorted({v for a in self.atoms for v in a.args}))

    def relation_arities(self) -> dict[str, int]:
        arities: dict[str, int] = {}
        for a in self.atoms:
            if arities.setdefault(a.relation, len(a.args)) != len(a.args):
                raise InvalidInputError(
                    f"relation {a.relation} used with inconsistent arities"
                )
        return arities

    @classmethod
    def of(cls, atoms) -> "ConjunctiveQuery":
        q = cls(tuple(Atom(r, tuple(args)) for r, args in atoms))
        q.relation_arities()
        return q


@dataclass(frozen=True)
class Database:
    relations: tuple[tuple[str, tuple[tuple[str, ...], ...]], ...]

    def relations_dict(self) -> dict[str, tuple[tuple[str, ...], ...]]:
        return dict(self.relations)

    def active_domain(self) -> frozenset[str]:
        return frozenset(
            c for _, rows in self.relations for row in rows for c in row
        )

    def size(self) -> int:
        """Total cell count, one slot per tuple added for the relation row itself."""
        return sum(
            len(rows) * (len(rows[0]) + 1) if rows else 0
            for _, rows in self.relations
        )

    @classmethod
    def of(cls, mapping) -> "Database":
        rels = []
        for sym in sorted(dict(mapping)):
            rows = {tuple(r) for r in dict(mapping)[sym]}
            arities = {len(r) for r in rows}
            if len(arities) > 1:
                raise InvalidInputError(f"relation {sym} has mixed arities")
            rels.append((sym, tuple(sorted(rows))))
        return cls(tuple(rels))


@dataclass(frozen=True)
class Assignment:
    binding: tuple[tuple[str, str], ...]

    def as_dict(self) -> dict[str, str]:
        return dict(self.binding)

    def restrict(self, variables) -> "Assignment":
        keep = set(variables)
        return Assignment(tuple((v, c) for v, c in self.binding if v in keep))

    @classmethod
    def of(cls, mapping) -> "Assignment":
        return cls(tuple(sorted(dict(mapping).items())))


def hypergraph_of(q: ConjunctiveQuery) -> Hypergraph:
    """Variables as vertices, one edge per atom's variable set (deduplicated)."""
    return Hypergraph.make(a.var_set() for a in q.atoms)


# -- evaluation and counting by variable elimination ---------------------------
#
# A factor is a scope (distinct variables) and a sparse table mapping each
# row over that scope to its multiplicity.  Every atom starts as a factor
# whose rows all have multiplicity 1; eliminating a variable hash-joins the
# factors that contain it (multiplicities multiply) and sums it out.  The
# cost follows the elimination width of the query, not its solution count.

_Factor = tuple[tuple[str, ...], dict[tuple[str, ...], int]]


def _atom_factors(q: ConjunctiveQuery, d: Database) -> list[_Factor]:
    """Validate q against d, then one factor per atom.

    A row survives only if it agrees on the atom's repeated variables.
    """
    rels = d.relations_dict()
    q.relation_arities()
    for a in q.atoms:
        if a.relation not in rels:
            raise InvalidInputError(f"unknown relation {a.relation}")
        for row in rels[a.relation]:
            if len(row) != len(a.args):
                raise InvalidInputError(
                    f"relation {a.relation} arity mismatch with query"
                )
    factors = []
    for a in q.atoms:
        scope = tuple(dict.fromkeys(a.args))
        first = [a.args.index(v) for v in scope]
        repeats = [
            (i, a.args.index(v)) for i, v in enumerate(a.args) if a.args.index(v) != i
        ]
        table = {
            tuple(row[i] for i in first): 1
            for row in rels[a.relation]
            if all(row[i] == row[j] for i, j in repeats)
        }
        factors.append((scope, table))
    return factors


def _next_variable(factors: list[_Factor]) -> str:
    """Minimum degree over the scopes of the live factors, ties by name."""
    neighbours: dict[str, set[str]] = {}
    for scope, _ in factors:
        for v in scope:
            neighbours.setdefault(v, set()).update(scope)
    return min(neighbours, key=lambda v: (len(neighbours[v]), v))


def _join(left: _Factor, right: _Factor) -> _Factor:
    """Hash join on the shared variables; the right side is indexed."""
    lscope, ltable = left
    rscope, rtable = right
    lpos = {v: i for i, v in enumerate(lscope)}
    lkey = [lpos[v] for v in rscope if v in lpos]
    rkey = [i for i, v in enumerate(rscope) if v in lpos]
    rest = [i for i, v in enumerate(rscope) if v not in lpos]
    index: dict[tuple[str, ...], list[tuple[tuple[str, ...], int]]] = {}
    for row, n in rtable.items():
        index.setdefault(tuple(row[i] for i in rkey), []).append(
            (tuple(row[i] for i in rest), n)
        )
    out = {}
    for row, n in ltable.items():
        for tail, m in index.get(tuple(row[i] for i in lkey), ()):
            out[row + tail] = n * m
    return lscope + tuple(rscope[i] for i in rest), out


def _sum_out(factor: _Factor, v: str) -> _Factor:
    scope, table = factor
    i = scope.index(v)
    out: dict[tuple[str, ...], int] = {}
    for row, n in table.items():
        key = row[:i] + row[i + 1 :]
        out[key] = out.get(key, 0) + n
    return scope[:i] + scope[i + 1 :], out


def _eliminate(
    q: ConjunctiveQuery, d: Database
) -> tuple[int, list[tuple[str, _Factor]]]:
    """Forward sum-product pass over the atom factors.

    Returns the solution count and, in elimination order, each variable with
    its joined table from before its sum-out.  A count of 0 comes with no
    tables: the pass stops at the first empty factor.
    """
    live: list[_Factor] = []
    for scope, table in _atom_factors(q, d):
        if not table:
            return 0, []
        if scope:
            live.append((scope, table))
    total = 1
    steps: list[tuple[str, _Factor]] = []
    while live:
        v = _next_variable(live)
        touching = sorted((f for f in live if v in f[0]), key=lambda f: len(f[1]))
        live = [f for f in live if v not in f[0]]
        joined = touching[0]
        for f in touching[1:]:
            joined = _join(joined, f)
            if not joined[1]:
                return 0, []
        steps.append((v, joined))
        scope, table = _sum_out(joined, v)
        if scope:
            live.append((scope, table))
        else:
            total *= table[()]
    return total, steps


def count(q: ConjunctiveQuery, d: Database) -> int:
    """Exact number of solutions, without listing any of them."""
    return _eliminate(q, d)[0]


def evaluate(q: ConjunctiveQuery, d: Database) -> frozenset[Assignment]:
    """Exact solution set by variable elimination; all variables stay free.

    The forward pass is the one ``count`` runs.  The backward pass assigns
    the variables in reverse elimination order, each looked up in its joined
    table on the table's other (already assigned) variables.  Every row of a
    joined table extends to a full solution, so nothing backtracks.
    """
    total, steps = _eliminate(q, d)
    if total == 0:
        return frozenset()
    names: list[str] = []
    partial: list[tuple[str, ...]] = [()]
    for v, (scope, table) in reversed(steps):
        i = scope.index(v)
        at = {w: j for j, w in enumerate(names)}
        key = [at[w] for w in scope if w != v]
        index: dict[tuple[str, ...], list[str]] = {}
        for row in table:
            index.setdefault(row[:i] + row[i + 1 :], []).append(row[i])
        partial = [p + (c,) for p in partial for c in index[tuple(p[j] for j in key)]]
        names.append(v)
    if len(partial) != total:  # pragma: no cover - elimination invariant
        raise ConstructionError(
            f"backward pass listed {len(partial)} solutions, count is {total}"
        )
    order = sorted(range(len(names)), key=names.__getitem__)
    return frozenset(
        Assignment(tuple((names[j], p[j]) for j in order)) for p in partial
    )


def project(solutions, variables) -> frozenset[Assignment]:
    return frozenset(s.restrict(variables) for s in solutions)


def eliminate_self_joins(
    q: ConjunctiveQuery, d: Database
) -> tuple[ConjunctiveQuery, Database]:
    """Split repeated relation symbols into fresh copies; solutions unchanged."""
    symbols = [a.relation for a in q.atoms]
    dups = {s for s in symbols if symbols.count(s) > 1}
    if not dups:
        return q, d
    rels = d.relations_dict()
    used = set(rels) | set(symbols)
    new_atoms: list[Atom] = []
    new_rels = dict(rels)
    counters: dict[str, int] = {}
    for a in q.atoms:
        if a.relation not in dups:
            new_atoms.append(a)
            continue
        counters[a.relation] = counters.get(a.relation, 0) + 1
        fresh = f"{a.relation}_{counters[a.relation]}"
        while fresh in used:
            fresh += "_"
        used.add(fresh)
        new_atoms.append(Atom(fresh, a.args))
        if a.relation in rels:
            new_rels[fresh] = rels[a.relation]
    return ConjunctiveQuery(tuple(new_atoms)), Database.of(new_rels)


def query_from_hypergraph(h: Hypergraph) -> ConjunctiveQuery:
    """One atom per edge with a fresh symbol; no repeated variables anywhere.

    Isolated vertices have no atom to live in and are dropped.
    """
    atoms = []
    for i, e in enumerate(sorted(h.edges, key=edge_key), start=1):
        atoms.append(Atom(f"E{i}", tuple(sorted(e))))
    return ConjunctiveQuery(tuple(atoms))


def rename_query(q: ConjunctiveQuery, mapping: dict[str, str]) -> ConjunctiveQuery:
    return ConjunctiveQuery(
        tuple(Atom(a.relation, tuple(mapping[v] for v in a.args)) for a in q.atoms)
    )


# -- reduction along a dilution sequence ---------------------------------------


@dataclass(frozen=True)
class DilutionReduction:
    """Rebuilt instance over the sequence's source hypergraph.

    ``rename`` maps each original query variable to its name in the rebuilt
    world; project rebuilt solutions onto ``rename`` values and pull the names
    back to compare against the original solutions.  ``step_sizes`` records
    the database size before and after every reverse step, latest first.
    """

    query: ConjunctiveQuery
    database: Database
    rename: tuple[tuple[str, str], ...]
    step_sizes: tuple[int, ...]

    def rename_dict(self) -> dict[str, str]:
        return dict(self.rename)

    def pull_back(self, solutions) -> frozenset[Assignment]:
        """Project solutions of the rebuilt query onto the original variables."""
        ren = self.rename_dict()
        back = {w: v for v, w in ren.items()}
        out = []
        for s in solutions:
            d = s.as_dict()
            out.append(Assignment.of({back[w]: d[w] for w in back}))
        return frozenset(out)


def _fresh_constant(i: int) -> str:
    return f"{FRESH_PREFIX}{i}"


def _atom_by_edge(q: ConjunctiveQuery) -> dict[frozenset, Atom]:
    table: dict[frozenset, Atom] = {}
    for a in q.atoms:
        key = a.var_set()
        if key in table:
            raise InvalidInputError(
                "two atoms share one variable set; the edge-atom correspondence "
                "must be one-to-one for the reduction"
            )
        table[key] = a
    return table


class _SymbolGen:
    def __init__(self, used):
        self.used = set(used)
        self.counter = 0

    def next(self) -> str:
        while True:
            self.counter += 1
            sym = f"P{self.counter}"
            if sym not in self.used:
                self.used.add(sym)
                return sym


def reduce_along_dilution(
    q: ConjunctiveQuery,
    d: Database,
    h: Hypergraph,
    seq: DilutionSequence,
) -> DilutionReduction:
    """Rebuild (q, d) over the source of a dilution sequence landing on q's
    hypergraph.

    Requirements: no repeated variables inside an atom, the atoms of the
    self-join-free form carry pairwise distinct variable sets, no reserved
    fresh constants in the database, and the hypergraph of q is isomorphic to
    the sequence's result.  Solutions of the output project onto the input's
    solutions and have exactly the same count.

    Reintroduced vertices that sit in no edge cannot appear in any atom, so
    their reversal is a no-op; the output hypergraph matches the source up to
    isolated vertices.
    """
    for a in q.atoms:
        if len(set(a.args)) != len(a.args):
            raise InvalidInputError(f"atom {a.relation} repeats a variable")
    for c in d.active_domain():
        if _FRESH_RE.match(c):
            raise InvalidInputError(f"constant {c!r} collides with reserved tokens")

    q1, d1 = eliminate_self_joins(q, d)
    states = apply_sequence_states(h, seq)
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
    symgen = _SymbolGen(set(rels))
    sizes = [cur_d.size()]

    for idx in range(len(seq.steps) - 1, -1, -1):
        prev_h, step = states[idx], seq.steps[idx]
        cur_q, cur_d = _reverse_step(cur_q, cur_d, prev_h, step, symgen)
        sizes.append(cur_d.size())

    want = Hypergraph.make(states[0].edges)
    got = hypergraph_of(cur_q)
    if got != want:  # pragma: no cover - reversal invariant
        raise ConstructionError("reversal did not rebuild the source hypergraph")
    rename_pairs = tuple(sorted(rename.items()))
    return DilutionReduction(cur_q, cur_d, rename_pairs, tuple(sizes))


def _reverse_step(q, d, prev_h, step, symgen):
    atoms = _atom_by_edge(q)
    rels = d.relations_dict()

    if isinstance(step, DeleteVertex):
        v = step.vertex
        incident = sorted((e for e in prev_h.edges if v in e), key=edge_key)
        new_atoms: list[Atom] = []
        new_rels: dict[str, tuple] = {}
        for f in sorted(prev_h.edges, key=edge_key):
            if v in f:
                continue
            a = atoms[f]
            new_atoms.append(a)
            new_rels[a.relation] = rels[a.relation]
        for e in incident:
            base = atoms[e - {v}]
            sym = symgen.next()
            new_atoms.append(Atom(sym, base.args + (v,)))
            new_rels[sym] = tuple(
                sorted(row + (_fresh_constant(0),) for row in rels[base.relation])
            )
        return ConjunctiveQuery(tuple(new_atoms)), Database.of(new_rels)

    if isinstance(step, MergeOn):
        v = step.vertex
        incident = sorted((e for e in prev_h.edges if v in e), key=edge_key)
        merged = frozenset().union(*incident) - {v}
        base = atoms[merged]
        rows = sorted(rels[base.relation])
        extended = [
            row + (_fresh_constant(i + 1),) for i, row in enumerate(rows)
        ]
        pos = {var: i for i, var in enumerate(base.args)}
        pos[v] = len(base.args)
        new_atoms = []
        new_rels = {}
        for f in sorted(prev_h.edges, key=edge_key):
            if f in atoms and v not in f:
                a = atoms[f]
                new_atoms.append(a)
                new_rels[a.relation] = rels[a.relation]
        for e in incident:
            args = tuple(sorted(e - {v})) + (v,)
            cols = [pos[var] for var in args]
            sym = symgen.next()
            new_atoms.append(Atom(sym, args))
            new_rels[sym] = tuple(
                sorted({tuple(row[c] for c in cols) for row in extended})
            )
        return ConjunctiveQuery(tuple(new_atoms)), Database.of(new_rels)

    if isinstance(step, DeleteSubedge):
        f = step.edge
        supers = sorted(
            (e for e in prev_h.edges if f < e), key=edge_key
        )
        host = atoms[supers[0]]
        pos = {var: i for i, var in enumerate(host.args)}
        args = tuple(sorted(f))
        cols = [pos[var] for var in args]
        sym = symgen.next()
        new_atoms = list(q.atoms) + [Atom(sym, args)]
        new_rels = dict(rels)
        new_rels[sym] = tuple(
            sorted({tuple(row[c] for c in cols) for row in rels[host.relation]})
        )
        return ConjunctiveQuery(tuple(new_atoms)), Database.of(new_rels)

    raise InvalidInputError(f"unknown step {step!r}")


# -- cores and semantic width --------------------------------------------------

DEFAULT_CORE_VAR_LIMIT = 8


def _homomorphism(src_atoms, dst_atoms) -> dict[str, str] | None:
    """Variable map sending every source atom onto a destination atom."""
    index: dict[str, list[tuple[str, ...]]] = {}
    for a in dst_atoms:
        index.setdefault(a.relation, []).append(a.args)
    for rel in index:
        index[rel].sort()
    ordered = sorted(src_atoms, key=lambda a: (a.relation, a.args))
    binding: dict[str, str] = {}

    def go(i):
        if i == len(ordered):
            return dict(binding)
        a = ordered[i]
        for row in index.get(a.relation, []):
            placed = []
            ok = True
            for var, tgt in zip(a.args, row):
                if var in binding:
                    if binding[var] != tgt:
                        ok = False
                        break
                else:
                    binding[var] = tgt
                    placed.append(var)
            if ok:
                res = go(i + 1)
                if res is not None:
                    return res
            for var in placed:
                del binding[var]
        return None

    return go(0)


def compute_core(
    q: ConjunctiveQuery, max_vars: int = DEFAULT_CORE_VAR_LIMIT
) -> ConjunctiveQuery:
    """Minimal homomorphically equivalent subquery, by iterated retraction.

    Repeatedly looks for an endomorphism into the query minus one atom and
    replaces the query by that endomorphism's image; when no atom can be
    dropped the remainder has no proper retract and is the core.
    """
    if len(q.variables()) > max_vars:
        raise LimitExceededError(
            f"{len(q.variables())} variables exceeds core limit {max_vars}"
        )
    current = sorted(set(q.atoms), key=lambda a: (a.relation, a.args))
    changed = True
    while changed:
        changed = False
        for a in list(current):
            target = [x for x in current if x != a]
            if not target:
                continue
            hom = _homomorphism(current, target)
            if hom is not None:
                image = {
                    Atom(x.relation, tuple(hom[v] for v in x.args)) for x in current
                }
                current = sorted(image, key=lambda a: (a.relation, a.args))
                changed = True
                break
    return ConjunctiveQuery(tuple(current))


def homomorphically_equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    return (
        _homomorphism(q1.atoms, q2.atoms) is not None
        and _homomorphism(q2.atoms, q1.atoms) is not None
    )


def semantic_ghw(
    q: ConjunctiveQuery,
    max_vars: int = DEFAULT_CORE_VAR_LIMIT,
    max_edges: int = DEFAULT_GHW_EDGE_LIMIT,
) -> WidthReport:
    """Cover width of the core's hypergraph."""
    core = compute_core(q, max_vars=max_vars)
    report, _ = exact_ghw(hypergraph_of(core), max_edges=max_edges)
    return report
