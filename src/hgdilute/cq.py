"""Conjunctive queries and databases: evaluation, counting, cores, and the
constructive reduction along dilution sequences.

A query is read in one of two ways, and each function says which.
``count``, ``evaluate`` and ``reduce_along_dilution`` (the CLI's
``cq-count``, ``cq-eval`` and ``cq-reduce``) read every variable as free:
a solution assigns all of them, and the count is of such assignments.
``compute_core``, ``homomorphically_equivalent`` and ``semantic_ghw`` (the
CLI's ``core`` and ``sghw``) read every variable as existential, a Boolean
query: two queries are equivalent when each maps homomorphically into the
other, and the core is the least equivalent subquery.  So E(x,y), E(x,z)
has the core E(x,z), yet over E = {ab, ac, bc} it counts 5 solutions and
its core 3.  A query's hypergraph has the variables as vertices and one
edge per atom's variable set, so atoms sharing a variable set collapse onto
one edge.

``count`` and ``evaluate`` run one variable-elimination pass.  Its order is
planned from the atoms' scopes; ``count`` sums each variable out inside the
last join of its step, and ``evaluate`` keeps the joined tables for a
backward pass that lists the solutions.

``reduce_along_dilution`` walks a dilution sequence backwards and rebuilds,
for each step, a query/database pair over the pre-step hypergraph whose
solutions project onto the original ones and whose solution *count* is
exactly preserved.  Each reverse step reads the step's edge image
(``dilution._step``) for the edge every pre-step edge became, so it never
works the step out again.  Fresh constants (one reserved token stream,
disjoint from the input's active domain) link the rebuilt relations through
functional dependence on the reintroduced variable.

The query is the parameter and the data varies, so what depends on the
query alone is worked out once, as a plan kept in a small cache and keyed
by value: a query plan (``_QueryPlan``) per query, and a reduction plan
(``_ReductionPlan``) per query, source hypergraph, sequence and set of the
database's relation names.  A plan holds no rows; a call checks the
database and moves its rows.  A failed build is not cached and raises again
on every call.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter

from .decomposition import WidthReport, _min_degree_bags, exact_ghw
from .errors import ConstructionError, InvalidInputError, LimitExceededError
from .hypergraph import Hypergraph, _adjacency, edge_key, isomorphic
from .dilution import DeleteSubedge, DeleteVertex, DilutionSequence, MergeOn, _walk

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
    """Relations by symbol, in symbol order, each a sorted tuple of distinct
    rows: build one with ``of``, which sorts and deduplicates, and the
    functions here keep the form (``reduce_along_dilution`` reads its
    input's rows as they stand)."""

    relations: tuple[tuple[str, tuple[tuple[str, ...], ...]], ...]

    def relations_dict(self) -> dict[str, tuple[tuple[str, ...], ...]]:
        return dict(self.relations)

    def active_domain(self) -> frozenset[str]:
        rows = itertools.chain.from_iterable(rows for _, rows in self.relations)
        return frozenset(itertools.chain.from_iterable(rows))

    def size(self) -> int:
        """Total cell count, one slot per tuple added for the relation row itself."""
        return _size(rows for _, rows in self.relations)

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


def _size(tables) -> int:
    """``Database.size`` of relations given by their rows."""
    return sum(len(rows) * (len(rows[0]) + 1) if rows else 0 for rows in tables)


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
# The order depends only on the atoms' scopes, so it is planned, by graph
# elimination over them, before any table is touched.  ``count`` fuses
# each step's last join with the sum-out: it accumulates straight into the
# table keyed without the variable, so the widest joined table is never
# built.  ``evaluate`` keeps the joined tables for its backward pass.
#
# All of that is the query's plan, and so is which live factors each step
# joins.  The one choice that reads the data, the order in which a step
# joins its factors (smallest table first), stays per call; the column
# getters it needs are kept in the plan by the scopes that choice meets.

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


def _repeats(args, scope):
    """For an atom that repeats a variable, the getters that keep a row
    only if it agrees on the repeats: a row's values at the scope (its
    distinct variables in order of first use), at the later uses and at
    the first uses they repeat."""
    repeats = [(i, args.index(v)) for i, v in enumerate(args) if args.index(v) != i]
    return (
        _columns([args.index(v) for v in scope]),
        _columns([i for i, _ in repeats]),
        _columns([j for _, j in repeats]),
    )


def _elimination_order(scopes) -> list[str]:
    """Every variable of the scopes in elimination order: at each step the
    smallest closed neighbourhood over the live scopes, ties by name.

    Eliminating v replaces the scopes holding v by their union minus v, so
    the neighbourhoods evolve as in the graph elimination game on the primal
    graph, and no table is needed to plan the order: it is the min-degree
    order of that graph, with vertices numbered in name order.
    """
    return [v for v, _, _ in _elimination_steps(scopes)]


def _elimination_steps(scopes) -> list[tuple[str, tuple[int, ...], int | None]]:
    """``_elimination_order`` as steps: each variable with the slots of the
    live scopes that hold it, ascending, and the slot of the scope its
    elimination leaves, None when that is empty.  The scopes take slots 0,
    1, ... in order and the scope step i leaves slot ``len(scopes) + i``,
    so ascending slots list live scopes in the order they became live."""
    names = sorted({v for scope in scopes for v in scope})
    bit = {v: 1 << i for i, v in enumerate(names)}
    masks = [sum(map(bit.__getitem__, scope)) for scope in scopes]
    live = dict(enumerate(masks))
    steps = []
    for i, v in enumerate(_min_degree_bags(_adjacency(len(names), masks))[0], len(masks)):
        b = 1 << v
        slots = tuple([s for s, m in live.items() if m & b])
        rest = 0
        for s in slots:
            rest |= live.pop(s)
        rest ^= b
        if rest:
            live[i] = rest
        steps.append((names[v], slots, i if rest else None))
    return steps


def _join_layout(lscope, rscope, drop):
    """The scope of a join's output (``_QueryPlan.join``) and its getters:
    the key of a left and of a right row, a right row's columns outside the
    key, and a left row less ``drop`` (None without one)."""
    lpos = {w: i for i, w in enumerate(lscope)}
    shared = [i for i, w in enumerate(rscope) if w in lpos]
    rest = [i for i, w in enumerate(rscope) if w not in lpos]
    keep = [i for i, w in enumerate(lscope) if w != drop]
    return (
        tuple(lscope[i] for i in keep) + tuple(rscope[i] for i in rest),
        _columns([lpos[rscope[i]] for i in shared]),
        _columns(shared),
        _columns(rest),
        _columns(keep) if drop is not None else None,
    )


class _QueryPlan:
    """What ``count`` and ``evaluate`` work out from a query alone; building
    it checks the relation arities.  Each atom keeps its scope and its
    repeat getters (``_repeats``), ``steps`` are the ``_elimination_steps``
    of the scopes of the atoms with a variable, and the join and
    backward-pass getters are kept by the scopes a call meets."""

    def __init__(self, q: ConjunctiveQuery):
        self.arities = tuple(q.relation_arities().items())
        atoms = []
        for a in q.atoms:
            scope = tuple(dict.fromkeys(a.args))
            repeats = _repeats(a.args, scope) if len(scope) < len(a.args) else None
            atoms.append((a.relation, scope, repeats))
        self.atoms = tuple(atoms)
        self.layouts: dict[tuple, tuple] = {}
        self.lookups: dict[tuple, tuple] = {}

    @cached_property
    def steps(self) -> list:
        # planned when a call first needs it: one with an empty relation
        # returns 0 before any step
        return _elimination_steps([scope for _, scope, _ in self.atoms if scope])

    def relations(self, d: Database) -> dict:
        """d's relations by symbol, once every relation the query names is
        in d with its atoms' arity."""
        rels = d.relations_dict()
        for relation, arity in self.arities:
            if relation not in rels:
                raise InvalidInputError(f"unknown relation {relation}")
            if set(map(len, rels[relation])) - {arity}:
                raise InvalidInputError(f"relation {relation} arity mismatch with query")
        return rels

    def join(self, left: _Factor, right: _Factor, drop: str | None = None) -> _Factor:
        """Hash join on the shared variables; the right side is indexed.

        With ``drop`` (a variable of left's scope) every joined row is summed
        into the row without it as it is produced, so the join and the sum-out
        are one pass and the joined table is never built.
        """
        lscope, ltable = left
        rscope, rtable = right
        shape = lscope, rscope, drop
        layout = self.layouts.get(shape)
        if layout is None:
            layout = self.layouts[shape] = _join_layout(lscope, rscope, drop)
        scope, lkey, rkey, tail, head = layout
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
        return scope, out

    def eliminate(self, d: Database, steps: list | None = None) -> int:
        """Forward sum-product pass over the atom factors; the solution count.

        d is checked first.  Given a list ``steps``, each variable is
        appended to it in elimination order with its joined table from
        before its sum-out; without one, each step's last join sums the
        variable out as it goes.  The pass stops at the first empty factor
        and returns 0.
        """
        rels = self.relations(d)
        live: dict[int, _Factor] = {}
        for relation, scope, repeats in self.atoms:
            rows = rels[relation]
            if repeats is None:
                table = dict.fromkeys(rows, 1)
            else:
                first, later, earlier = repeats
                table = {first(row): 1 for row in rows if later(row) == earlier(row)}
            if not table:
                return 0
            if scope:
                live[len(live)] = scope, table
        total = 1
        for v, slots, out in self.steps:
            touching = sorted(map(live.pop, slots), key=lambda f: len(f[1]))
            last = _UNIT if steps is not None or len(touching) == 1 else touching.pop()
            joined = touching[0]
            for f in touching[1:]:
                joined = self.join(joined, f)
                if not joined[1]:
                    return 0
            if steps is not None:
                steps.append((v, joined))
            scope, table = self.join(joined, last, v)
            if not table:
                return 0
            if out is None:
                total *= table[()]
            else:
                live[out] = scope, table
        return total

    def lookup(self, scope: tuple[str, ...], v: str):
        """For ``evaluate``'s backward pass at v over a joined table with
        ``scope``: v's column, and the getters of a row's other values and
        of those variables' values in a partial solution."""
        shape = scope, v
        got = self.lookups.get(shape)
        if got is None:
            at = self.listing[0]
            got = self.lookups[shape] = (
                scope.index(v),
                _columns([j for j, w in enumerate(scope) if w != v]),
                _columns([at[w] for w in scope if w != v]),
            )
        return got

    @cached_property
    def listing(self):
        """A partial solution lists its values in reverse elimination
        order: each variable's position there, the variables in name
        order, and the getter that puts a solution's values in that order."""
        names = [v for v, _, _ in reversed(self.steps)]
        order = sorted(range(len(names)), key=names.__getitem__)
        at = {v: j for j, v in enumerate(names)}
        return at, tuple(names[j] for j in order), _columns(order)


# equal queries share a plan
_query_plans = lru_cache(maxsize=128)(_QueryPlan)


def _plan(q: ConjunctiveQuery) -> _QueryPlan:
    try:
        return _query_plans(q)
    except TypeError:  # an Atom built with list args: plan its tuple twin
        return _query_plans(_tuple_args(q))


def _tuple_args(q: ConjunctiveQuery) -> ConjunctiveQuery:
    return ConjunctiveQuery(tuple(Atom(a.relation, tuple(a.args)) for a in q.atoms))


def count(q: ConjunctiveQuery, d: Database) -> int:
    """Exact number of solutions, without listing any of them."""
    return _plan(q).eliminate(d)


def evaluate(q: ConjunctiveQuery, d: Database) -> frozenset[Assignment]:
    """Exact solution set by variable elimination; all variables stay free.

    The forward pass is the one ``count`` runs.  The backward pass assigns
    the variables in reverse elimination order, each looked up in its joined
    table on the table's other (already assigned) variables.  Every row of a
    joined table extends to a full solution, so nothing backtracks.
    """
    plan = _plan(q)
    steps: list[tuple[str, _Factor]] = []
    total = plan.eliminate(d, steps)
    if total == 0:
        return frozenset()
    partial: list[tuple[str, ...]] = [()]
    for v, (scope, table) in reversed(steps):
        i, others, assigned = plan.lookup(scope, v)
        index: dict[tuple[str, ...], list[str]] = {}
        for row in table:
            index.setdefault(others(row), []).append(row[i])
        partial = [p + (c,) for p in partial for c in index[assigned(p)]]
    if len(partial) != total:  # pragma: no cover - elimination invariant
        raise ConstructionError(
            f"backward pass listed {len(partial)} solutions, count is {total}"
        )
    _, names, by_name = plan.listing
    return frozenset(Assignment(tuple(zip(names, by_name(p)))) for p in partial)


def project(solutions, variables) -> frozenset[Assignment]:
    return frozenset(s.restrict(variables) for s in solutions)


def _split_self_joins(q: ConjunctiveQuery, names) -> tuple[ConjunctiveQuery, dict]:
    """q with each repeated relation symbol split into fresh copies, one per
    atom, and the symbol each copy was split from; a copy's name avoids the
    relation names ``names`` and q's symbols.  q itself when no symbol
    repeats."""
    symbols = [a.relation for a in q.atoms]
    dups = {s for s in symbols if symbols.count(s) > 1}
    if not dups:
        return q, {}
    used = set(names) | set(symbols)
    new_atoms: list[Atom] = []
    copies: dict[str, str] = {}
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
        copies[fresh] = a.relation
    return ConjunctiveQuery(tuple(new_atoms)), copies


def eliminate_self_joins(
    q: ConjunctiveQuery, d: Database
) -> tuple[ConjunctiveQuery, Database]:
    """Split repeated relation symbols into fresh copies; solutions unchanged."""
    rels = d.relations_dict()
    q1, copies = _split_self_joins(q, rels)
    if not copies:
        return q, d
    new_rels = dict(rels)
    for fresh, s in copies.items():
        if s in rels:
            new_rels[fresh] = rels[s]
    return q1, Database.of(new_rels)


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


class _ReductionPlan:
    """The query side of ``reduce_along_dilution``, for the query q, the
    source h, the sequence and the database's relation names ``names``.

    Building it splits the self-joins, walks the sequence, matches the
    query's hypergraph to the result, checks the relation arities, rebuilds
    the query step by step and checks that the rebuilt query's hypergraph
    is the source's.  It keeps the rebuilt query, the rename, the relation
    each starting relation is read from (``sources``) and one row
    transform per reverse step (``_rows_back``), latest step first.  Fresh
    relation symbols ``P1, P2, ...`` skip the names the database uses,
    which is why ``names`` is part of the key.
    """

    def __init__(self, q, h, seq, names):
        q1, copies = _split_self_joins(q, names)
        # checked here too, as an empty sequence runs no reverse step
        _atom_by_edge(q1)
        states, images = _walk(h, seq)
        wit = isomorphic(hypergraph_of(q1), states[-1])
        if wit is None:
            raise InvalidInputError(
                "hypergraph of the query is not isomorphic to the sequence result"
            )
        self.query_plan = _query_plans(q)
        rename = wit.as_dict()
        cur_q = rename_query(q1, rename)
        self.sources = tuple(
            (s, copies.get(s, s)) for s in sorted({a.relation for a in cur_q.atoms})
        )
        used = set(names) | {c for c, s in copies.items() if s in names}
        symgen = (f"P{i}" for i in itertools.count(1) if f"P{i}" not in used)
        atoms = _atom_by_edge(cur_q)
        self.steps = []
        for step, image in zip(reversed(seq.steps), reversed(images)):
            atoms, rows_back = _reverse_step(atoms, step, image, symgen)
            self.steps.append(rows_back)
        self.query = ConjunctiveQuery(tuple(atoms.values()))
        # both hypergraphs' vertices are their edges' union, so edges decide
        if frozenset([a.var_set() for a in self.query.atoms]) != states[0].edges:
            raise ConstructionError(  # pragma: no cover - reversal invariant
                "reversal did not rebuild the source hypergraph"
            )
        self.rename = tuple(sorted(rename.items()))


# one plan per (query, source, sequence, relation names); it holds no rows
_reduction_plans = lru_cache(maxsize=64)(_ReductionPlan)


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
    names = frozenset([s for s, _ in d.relations])
    try:
        plan = _reduction_plans(q, h, seq, names)
    except TypeError:  # an Atom built with list args: plan its tuple twin
        plan = _reduction_plans(_tuple_args(q), h, seq, names)
    rels = plan.query_plan.relations(d)
    tables = {s: rels[source] for s, source in plan.sources}
    sizes = [_size(tables.values())]
    for rows_back in plan.steps:
        tables = _rows_back(tables, *rows_back)
        sizes.append(_size(tables.values()))
    return DilutionReduction(plan.query, _database(tables), plan.rename, tuple(sizes))


def _reverse_step(atoms: dict, step, image: dict, symgen):
    """Undo one step on the query side.  ``atoms`` maps each edge after the
    step to its atom, in the query's atom order, and ``image`` each edge
    before it to the edge it became.  Returns the same map for the edges
    before the step, and the row transform that rebuilds the database to
    match, as ``_rows_back`` takes it: the step's kind, the relations kept
    (None for all) and, for each new relation, its symbol, the relation it
    is built from and the columns it projects."""
    if isinstance(step, DeleteSubedge):
        f = step.edge
        host = atoms[image[f]]
        pos = {var: i for i, var in enumerate(host.args)}
        args = tuple(sorted(f))
        sym = next(symgen)
        made = ((sym, host.relation, _columns([pos[var] for var in args])),)
        return {**atoms, f: Atom(sym, args)}, (DeleteSubedge, None, made)

    # a vertex deletion or a merge on v: the edges without v keep their atoms,
    # and each edge at v gets a fresh one with v as its last argument
    v = step.vertex
    before = {}
    incident = []
    for e in sorted(image, key=edge_key):
        if v in e:
            incident.append(e)
        else:
            before[e] = atoms[e]
    keep = tuple([a.relation for a in before.values()])
    made = []

    if isinstance(step, DeleteVertex):
        for e in incident:
            base = atoms[image[e]]
            sym = next(symgen)
            before[e] = Atom(sym, base.args + (v,))
            made.append((sym, base.relation, None))
    else:
        base = atoms[image[incident[0]]]
        pos = {var: i for i, var in enumerate(base.args)}
        pos[v] = len(base.args)
        for e in incident:
            args = tuple(sorted(e, key=lambda var: (var == v, var)))
            sym = next(symgen)
            before[e] = Atom(sym, args)
            made.append((sym, base.relation, _columns([pos[var] for var in args])))
    return before, (type(step), keep, tuple(made))


def _rows_back(tables: dict, kind: type, keep, made) -> dict:
    """The relations after one reverse step, from the relations ``tables``
    before it, along the transform ``_reverse_step`` planned.

    Every relation of ``tables``, and every one built here, is sorted and
    free of duplicates already, so none is sorted again but a projection.
    """
    out = dict(tables) if keep is None else {s: tables[s] for s in keep}
    if kind is DeleteVertex:
        # one constant appended to sorted rows of one width keeps them sorted
        fresh = (_fresh_constant(0),)
        for sym, source, _ in made:
            out[sym] = tuple(row + fresh for row in tables[source])
        return out
    rows = tables[made[0][1]]
    if kind is MergeOn:
        # one fresh constant per row of the merged edge's relation
        rows = [row + (_fresh_constant(i),) for i, row in enumerate(rows, 1)]
    for sym, _, cols in made:
        out[sym] = tuple(sorted(set(map(cols, rows))))
    return out


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
