"""Conjunctive queries and databases: evaluation, counting, cores, and the
constructive reduction along dilution sequences.

Queries are conjunctions of relational atoms with every variable free; there
is no existential quantification anywhere (counting results depend on this).
A query's hypergraph has the variables as vertices and one edge per atom's
variable set, so atoms sharing a variable set collapse onto one edge.

``count`` and ``evaluate`` run one variable-elimination pass.  Its order is
planned once from the atoms' scopes; ``count`` sums each variable out inside
the last join of its step, and ``evaluate`` keeps the joined tables for a
backward pass that lists the solutions.

``reduce_along_dilution`` walks a dilution sequence backwards and rebuilds,
for each step, a query/database pair over the pre-step hypergraph whose
solutions project onto the original ones and whose solution *count* is
exactly preserved.  Each reverse step reads the step's edge image
(``dilution._step``) for the edge every pre-step edge became, so it never
works the step out again.  Fresh constants (one reserved token stream,
disjoint from the input's active domain) link the rebuilt relations through
functional dependence on the reintroduced variable.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from operator import itemgetter

from .decomposition import WidthReport, _min_degree_bags, exact_ghw
from .errors import ConstructionError, InvalidInputError, LimitExceededError
from .hypergraph import Hypergraph, _adjacency, edge_key, isomorphic
from .dilution import DeleteSubedge, DeleteVertex, DilutionSequence, _walk

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
        rows = itertools.chain.from_iterable(rows for _, rows in self.relations)
        return frozenset(itertools.chain.from_iterable(rows))

    def size(self) -> int:
        """Total cell count, one slot per tuple added for the relation row itself."""
        return sum(
            len(rows) * (len(rows[0]) + 1) if rows else 0
            for _, rows in self.relations
        )

    @classmethod
    def of(cls, mapping) -> "Database":
        mapping = dict(mapping)
        rels = []
        for sym in sorted(mapping):
            rows = set(map(tuple, mapping[sym]))
            if len(set(map(len, rows))) > 1:
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
#
# The order depends only on the atoms' scopes, so it is planned once, by
# graph elimination over them, before any table is touched.  ``count`` fuses
# each step's last join with the sum-out: it accumulates straight into the
# table keyed without the variable, so the widest joined table is never
# built.  ``evaluate`` keeps the joined tables for its backward pass.

_Factor = tuple[tuple[str, ...], dict[tuple[str, ...], int]]
_UNIT: _Factor = ((), {(): 1})


def _columns(positions):
    """Getter for the tuple of a row's values at ``positions``.

    ``itemgetter`` returns a bare value for one position and takes no empty
    list, so those widths slice the row instead.
    """
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(slice(0))


def _relations(q: ConjunctiveQuery, d: Database) -> dict:
    """Validate q against d and return d's relations by symbol: arities
    consistent across q, every relation present with its atoms' arity."""
    rels = d.relations_dict()
    q.relation_arities()
    for a in q.atoms:
        if a.relation not in rels:
            raise InvalidInputError(f"unknown relation {a.relation}")
        if set(map(len, rels[a.relation])) - {len(a.args)}:
            raise InvalidInputError(f"relation {a.relation} arity mismatch with query")
    return rels


def _atom_factors(q: ConjunctiveQuery, d: Database) -> list[_Factor]:
    """Validate q against d, then one factor per atom.

    A row survives only if it agrees on the atom's repeated variables.
    """
    rels = _relations(q, d)
    factors = []
    for a in q.atoms:
        rows = rels[a.relation]
        scope = tuple(dict.fromkeys(a.args))
        if len(scope) == len(a.args):
            factors.append((scope, dict.fromkeys(rows, 1)))
            continue
        first = _columns([a.args.index(v) for v in scope])
        repeats = [
            (i, a.args.index(v)) for i, v in enumerate(a.args) if a.args.index(v) != i
        ]
        later = _columns([i for i, _ in repeats])
        earlier = _columns([j for _, j in repeats])
        table = {first(row): 1 for row in rows if later(row) == earlier(row)}
        factors.append((scope, table))
    return factors


def _elimination_order(scopes) -> list[str]:
    """Every variable of the scopes in elimination order: at each step the
    smallest closed neighbourhood over the live scopes, ties by name.

    Eliminating v replaces the scopes holding v by their union minus v, so
    the neighbourhoods evolve as in the graph elimination game on the primal
    graph, and no table is needed to plan the order: it is the min-degree
    order of that graph, with vertices numbered in name order.
    """
    names = sorted({v for scope in scopes for v in scope})
    index = {v: i for i, v in enumerate(names)}
    masks = [sum([1 << index[v] for v in scope]) for scope in scopes]
    return [names[v] for v in _min_degree_bags(_adjacency(len(names), masks))[0]]


def _join(left: _Factor, right: _Factor, drop: str | None = None) -> _Factor:
    """Hash join on the shared variables; the right side is indexed.

    With ``drop`` (a variable of left's scope) every joined row is summed
    into the row without it as it is produced, so the join and the sum-out
    are one pass and the joined table is never built.
    """
    lscope, ltable = left
    rscope, rtable = right
    lpos = {w: i for i, w in enumerate(lscope)}
    shared = [i for i, w in enumerate(rscope) if w in lpos]
    rest = [i for i, w in enumerate(rscope) if w not in lpos]
    keep = [i for i, w in enumerate(lscope) if w != drop]
    rkey, tail = _columns(shared), _columns(rest)
    lkey = _columns([lpos[rscope[i]] for i in shared])
    head = _columns(keep) if drop is not None else None
    index: dict[tuple[str, ...], list[tuple[tuple[str, ...], int]]] = {}
    for row, n in rtable.items():
        index.setdefault(rkey(row), []).append((tail(row), n))
    out: dict[tuple[str, ...], int] = {}
    for row, n in ltable.items():
        matches = index.get(lkey(row))
        if matches:
            h = row if head is None else head(row)
            for t, m in matches:
                key = h + t
                out[key] = out.get(key, 0) + n * m
    return tuple(lscope[i] for i in keep) + tuple(rscope[i] for i in rest), out


def _eliminate(q: ConjunctiveQuery, d: Database, steps: list | None = None) -> int:
    """Forward sum-product pass over the atom factors; the solution count.

    Given a list ``steps``, each variable is appended to it in elimination
    order with its joined table from before its sum-out; without one, each
    step's last join sums the variable out as it goes.  The pass stops at
    the first empty factor and returns 0.
    """
    live: list[_Factor] = []
    for scope, table in _atom_factors(q, d):
        if not table:
            return 0
        if scope:
            live.append((scope, table))
    total = 1
    for v in _elimination_order([scope for scope, _ in live]):
        touching = sorted((f for f in live if v in f[0]), key=lambda f: len(f[1]))
        live = [f for f in live if v not in f[0]]
        last = _UNIT if steps is not None or len(touching) == 1 else touching.pop()
        joined = touching[0]
        for f in touching[1:]:
            joined = _join(joined, f)
            if not joined[1]:
                return 0
        if steps is not None:
            steps.append((v, joined))
        scope, table = _join(joined, last, v)
        if not table:
            return 0
        if scope:
            live.append((scope, table))
        else:
            total *= table[()]
    return total


def count(q: ConjunctiveQuery, d: Database) -> int:
    """Exact number of solutions, without listing any of them."""
    return _eliminate(q, d)


def evaluate(q: ConjunctiveQuery, d: Database) -> frozenset[Assignment]:
    """Exact solution set by variable elimination; all variables stay free.

    The forward pass is the one ``count`` runs.  The backward pass assigns
    the variables in reverse elimination order, each looked up in its joined
    table on the table's other (already assigned) variables.  Every row of a
    joined table extends to a full solution, so nothing backtracks.
    """
    steps: list[tuple[str, _Factor]] = []
    total = _eliminate(q, d, steps)
    if total == 0:
        return frozenset()
    names: list[str] = []
    partial: list[tuple[str, ...]] = [()]
    for v, (scope, table) in reversed(steps):
        i = scope.index(v)
        at = {w: j for j, w in enumerate(names)}
        others = _columns([j for j, w in enumerate(scope) if w != v])
        assigned = _columns([at[w] for w in scope if w != v])
        index: dict[tuple[str, ...], list[str]] = {}
        for row in table:
            index.setdefault(others(row), []).append(row[i])
        partial = [p + (c,) for p in partial for c in index[assigned(p)]]
        names.append(v)
    if len(partial) != total:  # pragma: no cover - elimination invariant
        raise ConstructionError(
            f"backward pass listed {len(partial)} solutions, count is {total}"
        )
    order = sorted(range(len(names)), key=names.__getitem__)
    by_name, sorted_names = _columns(order), [names[j] for j in order]
    return frozenset(Assignment(tuple(zip(sorted_names, by_name(p)))) for p in partial)


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
    fresh constants in the database, the hypergraph of q isomorphic to the
    sequence's result, and every relation q names in the database with its
    atoms' arity, as ``count`` requires.  Solutions of the output project
    onto the input's solutions and have exactly the same count.

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
    # checked here too, as an empty sequence runs no reverse step
    _atom_by_edge(q1)
    states, images = _walk(h, seq)
    wit = isomorphic(hypergraph_of(q1), states[-1])
    if wit is None:
        raise InvalidInputError(
            "hypergraph of the query is not isomorphic to the sequence result"
        )
    _relations(q, d)
    rename = wit.as_dict()
    cur_q = rename_query(q1, rename)
    referenced = {a.relation for a in cur_q.atoms}
    rels = d1.relations_dict()
    cur_d = Database.of({s: rows for s, rows in rels.items() if s in referenced})
    # fresh relation symbols P1, P2, ... that the database does not use
    symgen = (f"P{i}" for i in itertools.count(1) if f"P{i}" not in rels)
    sizes = [cur_d.size()]

    for step, image in zip(reversed(seq.steps), reversed(images)):
        cur_q, cur_d = _reverse_step(cur_q, cur_d, step, image, symgen)
        sizes.append(cur_d.size())

    want = Hypergraph.make(states[0].edges)
    got = hypergraph_of(cur_q)
    if got != want:  # pragma: no cover - reversal invariant
        raise ConstructionError("reversal did not rebuild the source hypergraph")
    rename_pairs = tuple(sorted(rename.items()))
    return DilutionReduction(cur_q, cur_d, rename_pairs, tuple(sizes))


def _reverse_step(q, d, step, image, symgen):
    """Undo one step: rebuild (q, d) over the edges before it, ``image``
    mapping each of them to the edge it became.

    Every relation of d, and every one built here, is sorted and free of
    duplicates already, so the new database is assembled without
    ``Database.of``.
    """
    atoms = _atom_by_edge(q)
    rels = d.relations_dict()

    if isinstance(step, DeleteSubedge):
        f = step.edge
        host = atoms[image[f]]
        pos = {var: i for i, var in enumerate(host.args)}
        args = tuple(sorted(f))
        cols = _columns([pos[var] for var in args])
        sym = next(symgen)
        new_atoms = list(q.atoms) + [Atom(sym, args)]
        new_rels = dict(rels)
        new_rels[sym] = tuple(sorted(set(map(cols, rels[host.relation]))))
        return ConjunctiveQuery(tuple(new_atoms)), _database(new_rels)

    # a vertex deletion or a merge on v: the edges without v keep their atoms,
    # and each edge at v gets a fresh one with v as its last argument
    v = step.vertex
    new_atoms = []
    new_rels = {}
    incident = []
    for e in sorted(image, key=edge_key):
        if v in e:
            incident.append(e)
        else:
            a = atoms[e]
            new_atoms.append(a)
            new_rels[a.relation] = rels[a.relation]

    if isinstance(step, DeleteVertex):
        # one constant appended to sorted rows of one width keeps them sorted
        fresh = (_fresh_constant(0),)
        for e in incident:
            base = atoms[image[e]]
            sym = next(symgen)
            new_atoms.append(Atom(sym, base.args + (v,)))
            new_rels[sym] = tuple(row + fresh for row in rels[base.relation])
        return ConjunctiveQuery(tuple(new_atoms)), _database(new_rels)

    # merge: one fresh constant per row of the merged edge's relation
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
    return ConjunctiveQuery(tuple(new_atoms)), _database(new_rels)


def _database(rels) -> Database:
    """``Database.of`` for relations that are sorted and duplicate-free."""
    return Database(tuple(sorted(rels.items())))


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
    q: ConjunctiveQuery, max_vars: int = DEFAULT_CORE_VAR_LIMIT
) -> WidthReport:
    """Cover width of the core's hypergraph."""
    core = compute_core(q, max_vars=max_vars)
    report, _ = exact_ghw(hypergraph_of(core))
    return report
