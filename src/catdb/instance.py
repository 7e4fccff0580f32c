"""Instance presentations, saturation into tables, and transforms.

An instance is presented by a context of generators over a schema's
collage signature (entity-sorted generators are rows-to-be, type-sorted
generators are labelled nulls) together with equations.  Saturation
materializes the entity side: rows are congruence classes of entity
terms, closed under edge application; attribute cells are canonical type
values over the instance's type algebra.  A type-sorted instance equation
that sets a cell to a literal or a null writes the cell; the other pairs
of values are the algebra's hypotheses: the two sides of each other such
equation, and of each observable equation at each row, read with every
other cell as an opaque atom by sides compiled once (`typeside.type_plan`).
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from collections import Counter
from dataclasses import dataclass
from functools import cache, partial
from operator import itemgetter
from typing import Callable

from .kernel import (
    App, Context, Equation, FunctionSymbol, Sort, Term, Var, app, ctx,
    is_int_literal, is_str_literal, render_term, term_key,
)
from .rewrite import (
    DEFAULT_BUDGET, Budget, EqResult, GroundClosure, _positions, match,
)
from .schema import PossiblyInfinite, Schema
from .typeside import (
    CanonicalValue, TypeAlgebra, _constant, decide_values, map_value_atoms,
    opaque_atom, render_value, symbol_operation, type_plan, value_sort,
    value_to_term,
)

class InstanceError(Exception):
    pass


class InconsistentInstance(InstanceError):
    pass


class DomainDependence(InstanceError):
    pass


@dataclass(frozen=True)
class InstancePresentation:
    schema: Schema
    generators: Context
    equations: tuple[Equation, ...] = ()

    def __post_init__(self):
        for n, s in self.generators.bindings:
            if self.schema.collage_sig.sorts.get(s.name) != s:
                raise InstanceError(f"unknown sort for generator {n}: {s}")

    def entity_generators(self):
        return [(n, s) for n, s in self.generators.bindings
                if self.schema.is_entity(s)]

    def type_generators(self):
        return [(n, s) for n, s in self.generators.bindings
                if not self.schema.is_entity(s)]


def representable_instance(s: Schema, obj: Sort) -> InstancePresentation:
    if s.collage_sig.sorts.get(obj.name) != obj:
        raise InstanceError(f"unknown sort: {obj}")
    return InstancePresentation(s, ctx(("x", obj)))


class SaturatedInstance:
    """Finite tables: rows per entity (representative terms), total edge
    columns, attribute columns valued in the type algebra."""

    def __init__(self, schema: Schema, row_list, edge_cols, attr_cols,
                 typealg: TypeAlgebra, gen_env):
        self.schema = schema
        self.row_list: dict[Sort, list[Term]] = row_list
        self.edge_cols: dict[FunctionSymbol, dict[Term, Term]] = edge_cols
        self.attr_cols: dict[FunctionSymbol, dict[Term, CanonicalValue]] = attr_cols
        self.typealg = typealg
        self.gen_env: dict[str, Term] = gen_env
        self._compiled: dict = {}  # by (term, frozenset of names, entity)

    def rows(self, e: Sort) -> list[Term]:
        return self.row_list[e]

    def total_rows(self) -> int:
        return sum(len(v) for v in self.row_list.values())

    def eval_entity(self, t: Term, env: dict[str, Term] | None = None) -> Term:
        """The row of t, with t's variables bound by env first, then by the
        generators of this instance."""
        env = env or {}
        return self.compile(t, env.keys(), entity=True)(env)

    def eval_type(self, t: Term, env: dict[str, Term] | None = None,
                  vals: dict[str, CanonicalValue] | None = None) -> CanonicalValue:
        """The value of t, with its entity variables bound by env and its
        type variables by vals (a name bound by both reads vals)."""
        if env and vals and env is not vals:
            env = {**env, **vals}
        env = env or vals or {}
        return self.compile(t, env.keys())(env)

    def compile(self, t: Term, names=(), entity: bool = False):
        """t as a function of a dict that binds every name in names: the
        row of an entity term, the simplified value of a type term; built
        once per (t, set of names, entity) and kept, as columns never change.

        A path is a tuple of columns applied in a loop, and an attribute
        read is one more column.  A type term is planned by
        `typeside.type_plan`, which resolves each type symbol to its
        operation once.  A variable outside names is a generator of this
        instance or a null, and like a literal it is a constant, as is
        every subterm over constants.  A path is evaluated from the name
        at its base, even if it spells a row: the same term may be a row of
        two entities, and a source generator may share its name with a
        row."""
        key = (t, frozenset(names), entity)
        fn = self._compiled.get(key)
        if fn is None:
            fn = self._compiled[key] = self._compile(t, names, entity)
        return fn

    def _compile(self, t: Term, names, entity: bool):
        if entity:
            name, cols, row = self._path(t, names)
            return _constant(row) if name is None else _follow(name, cols)
        fn, v = type_plan(t, names, self.typealg, self._read)
        simplify = self.typealg.simplify
        if fn is None:
            return _constant(simplify(v))
        return lambda env: simplify(fn(env))

    def _path(self, t: Term, names, last=None):
        """(bound name, its columns, None) for a path out of a name in
        names, else (None, (), its row); last is a column read at the
        end."""
        syms = []
        while isinstance(t, App):
            syms.append(t.symbol)
            t = t.args[0]
        cols = [self.edge_cols[s] for s in reversed(syms)]
        if last is not None:
            cols.append(last)
        if t.name in names:
            return t.name, tuple(cols), None
        row = self.gen_env[t.name]
        for col in cols:
            row = col[row]
        return None, (), row

    def _read(self, t: App, names):
        """The plan of an attribute read, for `type_plan`."""
        col = self.attr_cols.get(t.symbol)
        if col is None:
            raise InstanceError(
                f"cannot evaluate symbol {t.symbol} in this instance")
        name, cols, v = self._path(t.args[0], names, col)
        return (None, v) if name is None else (_follow(name, cols), None)


def _follow(name: str, cols: tuple):
    """The function of the bindings that applies cols to the row bound to
    name, in order."""
    if not cols:
        return itemgetter(name)
    if len(cols) == 1:
        c = cols[0]
        return lambda env: c[env[name]]
    if len(cols) == 2:
        c, d = cols
        return lambda env: d[c[env[name]]]

    def follow(env):
        row = env[name]
        for col in cols:
            row = col[row]
        return row
    return follow


def chase(ip: InstancePresentation, budget: Budget = DEFAULT_BUDGET
          ) -> tuple[GroundClosure, dict[Sort, list[Term]]]:
    """The entity stage of saturation, a semi-naive chase: each pass walks
    a snapshot of the rows found so far and applies each edge once to each
    class member it needs; a pass that applies nothing new ends it.  Returns
    the closure and the rows per entity, as representatives."""
    sch = ip.schema
    rs = sch.entity_rs
    limit = budget.rows
    cl = GroundClosure([eq for eq in ip.equations if sch.is_entity(eq.sort)],
                       rs, budget)

    # Members are normal forms, and a redex of f(m) that does not reach into
    # m rewrites m and the representative alike.  So f is applied to a member
    # other than the representative only when f(m) matches a path of two or
    # more edges that begins a rule's side (x.mgr.on ~> x.on needs x.mgr).
    # `by_head` holds those paths by head edge, as `match` fails on another.
    sides = [r.lhs for r in rs.rules]
    sides += [t for eq in rs.unoriented for t in (eq.lhs, eq.rhs)]
    paths = [p for side in sides for _, p in _positions(side)
             if isinstance(p.args[0], App)]
    by_head = {f: [p for p in paths if p.symbol == f] for f in sch.edges}

    items: dict[Term, Sort] = {}
    for n, s in ip.entity_generators():
        items.setdefault(cl.representative(Var(n)), s)
    applied: set[tuple[FunctionSymbol, Term]] = set()
    fired = True
    while fired:
        fired = False
        for t, s in list(items.items()):
            rep = cl.representative(t)
            for f in sch.edges_from(s):
                for m in cl.class_members(rep):
                    if (f, m) in applied or m != rep and all(
                            match(p, app(f, m)) is None for p in by_head[f]):
                        continue
                    applied.add((f, m))
                    fired = True
                    u = cl.representative(app(f, m))
                    if u not in items:
                        items[u] = f.cod
        if len(items) > limit * max(1, len(sch.entities)):
            raise PossiblyInfinite(
                budget.exhausted("instance saturation", "rows"))

    row_list: dict[Sort, list[Term]] = {e: [] for e in sch.entities}
    listed: set[Term] = set()
    for t in items:
        rep = cl.representative(t)
        if rep not in listed:
            listed.add(rep)
            row_list[items[t]].append(rep)
            if len(row_list[items[t]]) > limit:
                raise PossiblyInfinite(budget.exhausted(
                    f"instance saturation of {items[t].name}", "rows"))
    return cl, row_list


def saturate(ip: InstancePresentation,
             budget: Budget = DEFAULT_BUDGET) -> SaturatedInstance:
    """The tables of ip: the chase finds the rows and edge columns, then the
    type algebra settles the attribute cells.  A type-sorted equation of ip
    that sets an attribute of a ground path to a literal or a null writes
    that value into the cell first; a second one on a written cell is the
    pair (old, new).  The algebra's other hypotheses are pairs of values,
    read with every other cell as its own opaque atom: each side of each
    other type-sorted equation, compiled once per shape (`_shape`, with its
    generators, nulls and literals as holes), and each side of each
    observable equation, compiled once over its variable and applied at
    every row of its entity."""
    sch = ip.schema
    nulls = Context(tuple(ip.type_generators()))
    gen_names = set(ip.generators.names())
    cl, row_list = chase(ip, budget)

    edge_cols = {
        f: {r: cl.representative(app(f, r)) for r in row_list[f.dom[0]]}
        for f in sch.edges}
    gen_env = {n: cl.representative(Var(n)) for n, _ in ip.entity_generators()}
    cells = SaturatedInstance(sch, row_list, edge_cols,
                              {a: {} for a in sch.attributes},
                              TypeAlgebra(nulls), gen_env)

    # a generator's row, a null's atom, and a literal's value once it occurs
    leaf_values: dict[Term, object] = {Var(n): r for n, r in gen_env.items()}
    leaf_values.update((Var(n), opaque_atom(Var(n), s))
                       for n, s in nulls.bindings)

    def leaf_value(leaf: Term):
        if leaf not in leaf_values:
            leaf_values[leaf] = symbol_operation(leaf.symbol)(cells.typealg)
        return leaf_values[leaf]

    def value(t: Term):
        leaves: dict[Term, Var] = {}
        fn = cells.compile(_shape(t, gen_names, True, leaves),
                           [h.name for h in leaves.values()])
        return fn({h.name: leaf_value(leaf) for leaf, h in leaves.items()})

    def solved(cell: Term, leaf: Term) -> bool:
        return isinstance(cell, App) and cell.symbol in cells.attr_cols and (
            leaf in leaf_values if isinstance(leaf, Var)
            else is_int_literal(leaf.symbol) or is_str_literal(leaf.symbol))

    # solve: write each cell that an equation sets to a literal or a null
    pending: list = []  # a pair of values, or an equation to evaluate
    for eq in (eq for eq in ip.equations if not sch.is_entity(eq.sort)):
        cell, leaf = eq.lhs, eq.rhs
        if solved(leaf, cell):
            cell, leaf = leaf, cell
        elif not solved(cell, leaf):
            pending.append(eq)
            continue
        col = cells.attr_cols[cell.symbol]
        row = cells._path(cell.args[0], ())[2]
        if row in col:
            pending.append((col[row], leaf_value(leaf)))
        else:
            col[row] = leaf_value(leaf)
    for a in sch.attributes:  # an unwritten cell is its own opaque atom
        col = cells.attr_cols[a]
        cells.attr_cols[a] = {r: col[r] if r in col else opaque_atom(
            app(a, r), a.cod) for r in row_list[a.dom[0]]}
    # then evaluate the rest over the written cells, in equation order
    hypotheses = [p if isinstance(p, tuple) else (value(p.lhs), value(p.rhs))
                  for p in pending]
    for eq in sch.obs_eqs:
        zname, zsort = eq.context.bindings[0]
        lhs, rhs = (cells.compile(t, (zname,)) for t in (eq.lhs, eq.rhs))
        hypotheses += [(lhs({zname: r}), rhs({zname: r}))
                       for r in row_list.get(zsort, ())]
    alg = TypeAlgebra(nulls, hypotheses)
    if alg.inconsistent:
        raise InconsistentInstance(
            "type equations force distinct constants to coincide")

    attr_cols = {a: {r: alg.simplify(v) for r, v in col.items()}
                 for a, col in cells.attr_cols.items()}
    return SaturatedInstance(sch, row_list, edge_cols, attr_cols, alg,
                             gen_env)


# --- canonical presentations -------------------------------------------


def canonical_presentation(si: SaturatedInstance) -> InstancePresentation:
    """One generator per row and per null; one equation per edge cell, per
    constrained attribute cell, and per type-algebra constraint, each
    written once."""
    return canonical_form(si)[0]


def canonical_form(si: SaturatedInstance
                   ) -> tuple[InstancePresentation, Callable[..., Term],
                              dict[tuple[Sort, Term], str]]:
    """The canonical presentation of si, the function that writes a value
    of si's type algebra as a term over its generators, and the generator
    name of each row, by (entity, row): a term may be a row of two
    entities, after a pullback along a mapping that merges them.

    This is the one place that decides how a row and an atom are written:
    a row as a generator named after its term, an attribute of a retained
    row as that attribute of the row's generator, a null as itself.  While
    the presentation is built, any other atom (possible after a pullback)
    becomes a fresh null generator; afterwards an atom that no generator
    names is a domain error.  Row and atom names are made unique against
    the nulls and each other by one counter suffix."""
    alg = si.typealg
    null_names = {n for n, _ in alg.nulls.bindings}
    used = set(null_names)

    def fresh(base: str) -> str:
        name, k = base, 1
        while name in used:
            k += 1
            name = f"{base}_{k}"
        used.add(name)
        return name

    names = {(e, r): fresh(render_term(r))
             for e in si.schema.entities for r in si.rows(e)}
    attrs = set(si.schema.attributes)
    extra_nulls: list[tuple[str, Sort]] = []
    orphan: dict[Term, str] = {}
    building = True

    def row_var(e: Sort, r: Term) -> Term:
        return Var(names[e, r])

    def atom_term(at: Term) -> Term:
        if isinstance(at, Var) and at.name in null_names:
            return at
        if isinstance(at, App) and at.symbol in attrs \
                and (at.symbol.dom[0], at.args[0]) in names:
            return App(at.symbol, (row_var(at.symbol.dom[0], at.args[0]),))
        if at not in orphan:
            if not building:
                raise DomainDependence(
                    f"attribute cell depends on a value outside the image: "
                    f"{render_term(at)}")
            sort = at.symbol.cod if isinstance(at, App) else None
            orphan[at] = fresh(
                render_term(at).replace(".", "_").replace('"', ""))
            extra_nulls.append((orphan[at], sort))
        return Var(orphan[at])

    eqs_raw: list[tuple[Term, Term, Sort]] = []
    for f in si.schema.edges:
        for r in si.rows(f.dom[0]):
            eqs_raw.append((app(f, row_var(f.dom[0], r)),
                            row_var(f.cod, si.edge_cols[f][r]), f.cod))
    for a in si.schema.attributes:
        for r in si.rows(a.dom[0]):
            v = si.attr_cols[a][r]
            if v == opaque_atom(app(a, r), a.cod):
                continue
            eqs_raw.append((app(a, row_var(a.dom[0], r)),
                            value_to_term(v, atom_term), a.cod))
    for at, v in alg._subst.items():
        eqs_raw.append((atom_term(at), value_to_term(v, atom_term),
                        value_sort(v)))
    for big, small in alg._residual.items():
        eqs_raw.append((value_to_term(big, atom_term),
                        value_to_term(small, atom_term), value_sort(big)))

    bindings = [(name, e) for (e, _), name in names.items()]
    bindings += list(alg.nulls.bindings) + extra_nulls
    context = Context(tuple(bindings))
    # a cell whose atom the algebra substitutes is also a _subst equation
    eqs = [Equation(context, l, r, s) for l, r, s in dict.fromkeys(eqs_raw)]
    building = False
    return (InstancePresentation(si.schema, context, tuple(eqs)),
            partial(value_to_term, atom_fn=atom_term), names)


# --- transforms ---------------------------------------------------------


def _shape(t: Term, names, literals: bool, leaves: dict[Term, Var]) -> Term:
    """t with each variable named in names, and each integer or string
    literal if literals, replaced by a hole `?k`, k counting the distinct
    ones in order of first occurrence; leaves maps each replaced subterm to
    its hole.  Terms of one shape are compiled once, as functions of their
    holes: e1.last and e2.last are both `?0.last`.  A path is walked in a
    loop, and the arguments of any other symbol on an explicit stack."""
    done: list[Term] = []  # the shapes of the subterms finished, in order
    todo: list = [t]  # subterms to shape, and (top, path, app) frames
    while todo:
        t = todo.pop()
        if type(t) is tuple:  # app's argument shapes end done
            top, path, t = t
            args = tuple(done[-len(t.args):])
            del done[-len(t.args):]
            t = App(t.symbol, args)
        else:
            top, path = t, []
            while isinstance(t, App) and len(t.args) == 1:
                path.append(t.symbol)
                t = t.args[0]
            if isinstance(t, App) and t.args:
                todo += ((top, path, t), *reversed(t.args))
                continue
            if (t.name in names if isinstance(t, Var) else literals and (
                    is_int_literal(t.symbol) or is_str_literal(t.symbol))):
                t = leaves.setdefault(t, Var(f"?{len(leaves)}"))
        for sym in reversed(path):
            t = App(sym, (t,))
        done.append(t)
    return done[0]


@dataclass(frozen=True)
class Transform:
    source: InstancePresentation
    target: SaturatedInstance
    rows: tuple[tuple[str, Term], ...]
    vals: tuple[tuple[str, object], ...] = ()

    def row_assignment(self) -> dict[str, Term]:
        return dict(self.rows)

    def render(self) -> str:
        parts = [f"{n} := {render_term(t)}" for n, t in self.rows]
        parts += [f"{n} := {render_value(v)}" for n, v in self.vals]
        return "[" + ", ".join(parts) + "]"


def rows_by_assignment(rows, transforms) -> dict[frozenset, list[Term]]:
    """Result rows keyed by their transform's row assignment as a set of
    (generator, row) pairs, so that a dict d equal to the assignment finds
    them under frozenset(d.items())."""
    out: dict[frozenset, list[Term]] = {}
    for row, t in zip(rows, transforms):
        out.setdefault(frozenset(t.rows), []).append(row)
    return out


def check_transform(t: Transform) -> list[str]:
    """The equations of t's source that fail under t's assignment, one
    message each: an entity equation whose sides are different rows of the
    target, or a type equation whose sides are not provably equal values."""
    out = []
    bindings = dict(t.rows + t.vals)
    for eq in t.source.equations:
        ent = t.source.schema.is_entity(eq.sort)
        l, r = (t.target.compile(side, bindings.keys(), ent)(bindings)
                for side in (eq.lhs, eq.rhs))
        if ent:
            if l != r:
                out.append(f"entity equation fails: {eq}")
        else:
            got = decide_values(l, r)
            if got != EqResult.Equal:
                out.append(f"type equation not provable ({got.name}): {eq}")
    return out


def enumerate_transforms(src: InstancePresentation,
                         dst: SaturatedInstance) -> list[Transform]:
    """All generator assignments into dst's rows satisfying src's
    equations, in deterministic order (generators by declaration, rows by
    table order).  Type-sorted generators must be forced by equations.

    Sides.  Each side's shape (`_shape`, with a hole for each generator and
    each literal, a constant of its side) is made once per src
    (`_prepared`), and compiled once per dst by `SaturatedInstance.compile`
    into a function that reads dst's columns; a side that is a generator
    alone is its binding.  Side values are memoised for the call, one memo
    per shape and literals, keyed by the rows of the side's generators, or
    by its literals' values if it has no generator.

    Plan.  The names bound at a search node depend only on its depth, so
    the search is planned once, level by level, over the set of bound
    names, like a query plan compiled before it runs.  Each level binds one
    entity generator (the root binds none) and then runs a straight-line
    list of steps, made by a worklist over the equations of the names it
    binds.  Each equation is one step, at the level that binds the last of
    its generators: a check that its sides are equal, or, if one side is a
    bare unbound generator, the binding of that generator to the other
    side's value, after which the equation holds by construction.

    Branching.  A level binds the first unbound entity generator in
    declaration order when an inverse index narrows it, and otherwise the
    one with the smallest target table, ties to declaration order: like
    the variable orders of Generic Join and Leapfrog Triejoin, it never
    scans a whole table while a smaller one is at hand.  If a level left
    declaration order, the transforms are sorted at the end by the table
    positions of their entity rows in declaration order, which is the
    order a search that always branches in declaration order emits.

    Indexes.  A level's candidates for its generator g are the rows that an
    inverse index (side value -> rows in table order) lists for each
    equation with one side over g alone, other than g itself, and the
    other side bound.  There is one index per memo, so e1.last and e2.last
    share one, and the memo is its side value by row.  The index is
    exact because entity sides compare as rows and decide_values is Equal
    exactly when the two canonical values are ==.

    Run.  The search is a loop over a stack of the levels entered, not a
    recursion, so its depth is not bounded by Python's recursion limit.
    Nothing is unbound on backtracking: no step reads a name bound below
    its level, and the next candidate overwrites its level's names."""
    if src.schema.presentation != dst.schema.presentation:
        raise InstanceError("transform endpoints live on different schemas")
    ent_gens = src.entity_generators()
    type_gen_names = [n for n, _ in src.type_generators()]
    watch, eq_info, gets, specs = _prepared(src)
    # per spec, its side values by their keys; a bare side's spec, -1, reads
    # None
    memos = [_Memo(dst.compile(shape, names, ent), holes, lits)
             for shape, ent, names, holes, lits in specs]
    memos.append(None)

    # --- the plan: the names bound so far, and each level's steps
    known: set = set()
    is_known = known.issuperset
    planned = [False] * len(eq_info)

    def steps(todo) -> list:
        """The steps of the equations in todo, and of those of each name
        they force, in worklist order; each is a tuple (forced name or
        None, get, memo, other get, other memo)."""
        out, queue = [], list(todo)
        for i in queue:
            if planned[i]:
                continue
            lnames, lget, lspec, lbare, rnames, rget, rspec, rbare = eq_info[i]
            lhs_known, rhs_known = is_known(lnames), is_known(rnames)
            if lhs_known and rhs_known:
                step = (None, gets[lget], memos[lspec], gets[rget],
                        memos[rspec])
            elif lbare is not None and rhs_known:
                step = (lbare, gets[rget], memos[rspec], None, None)
            elif rbare is not None and lhs_known:
                step = (rbare, gets[lget], memos[lspec], None, None)
            else:
                continue
            planned[i] = True
            out.append(step)
            if step[0] is not None:
                known.add(step[0])
                queue.extend(watch[step[0]])
        return out

    def probes(name: str) -> list | None:
        """Per equation of name with one side over name alone and the other
        side bound: (that side's memo, the other's get and memo); None when
        there is no such equation."""
        out = []
        for i in watch[name]:
            lnames, lget, lspec, _, rnames, rget, rspec, _ = eq_info[i]
            for names, spec, other, get, ospec in (
                    (lnames, lspec, rnames, rget, rspec),
                    (rnames, rspec, lnames, lget, lspec)):
                if spec >= 0 and names == (name,) and is_known(other):
                    out.append((memos[spec], gets[get], memos[ospec]))
                    break
        return out or None

    # per level: (generator, all rows of its sort, probes or None, steps);
    # the root is the level that binds no generator, named None, to its one
    # candidate, None
    levels = [(None, (None,), None, steps(range(len(eq_info))))]
    # the entity generators of each sort as (position, name, sort), in
    # declaration order, with the size of the sort's table
    groups: dict[str, list] = {}
    for k, (n, s) in enumerate(ent_gens):
        groups.setdefault(s.name, []).append((k, n, s))
    per_sort = [(gens, len(gens), len(dst.rows(gens[0][2])))
                for gens in groups.values()]
    cursors = [0] * len(per_sort)
    reordered = False
    while True:
        first = smallest = None
        for j, (gens, n, size) in enumerate(per_sort):
            c = cursors[j]
            while c < n and gens[c][1] in known:
                c += 1
            cursors[j] = c
            if c < n:
                here = gens[c]
                if first is None or here < first:
                    first = here
                if smallest is None or (size, here) < smallest:
                    smallest = (size, here)
        if first is None:
            break
        _, name, sort = first
        narrow = probes(name)
        if narrow is None and smallest[1] != first:
            reordered = True
            _, name, sort = smallest[1]
            narrow = probes(name)
        known.add(name)
        levels.append((name, dst.rows(sort), narrow, steps(watch[name])))
    unforced = [n for n in type_gen_names if n not in known]

    # --- the run: a stack of iterators over the candidates of each level
    # entered
    results: list[Transform] = []
    bound: dict = {}
    stack = [iter(levels[0][1])]
    while stack:
        row = next(stack[-1], _DONE)
        if row is _DONE:
            stack.pop()
            continue
        name, _, _, todo = levels[len(stack) - 1]
        bound[name] = row
        for bare, get, memo, oget, omemo in todo:
            v = get(bound)
            if memo is not None:
                v = memo[v]
            if bare is not None:
                bound[bare] = v
                continue
            w = oget(bound)
            if omemo is not None:
                w = omemo[w]
            if v != w:
                break
        else:
            if len(stack) < len(levels):
                _, rows, narrow, _ = levels[len(stack)]
                stack.append(iter(
                    rows if narrow is None else _narrowed(narrow, bound, rows)))
                continue
            if unforced:
                raise DomainDependence(
                    "type-sorted generators not determined by equations: "
                    + ", ".join(unforced))
            results.append(Transform(
                src, dst, tuple([(n, bound[n]) for n, _ in ent_gens]),
                tuple([(n, bound[n]) for n in type_gen_names])))

    if reordered:
        pos = {(e, r): k for e, rows in dst.row_list.items()
               for k, r in enumerate(rows)}
        sorts = [s for _, s in ent_gens]
        results.sort(key=lambda t: tuple(
            pos[s, r] for s, (_, r) in zip(sorts, t.rows)))
    return results


def _prepared(src: InstancePresentation) -> tuple[dict, list, list, list]:
    """What a transform search reads of src alone, made on the first search
    from src and kept in its own __dict__ (a presentation built again
    prepares again): the equations of each generator, in order; per
    equation, (generators, getter, spec, bare) of its lhs, then its rhs,
    all strings and integers, which the cyclic collector skips; the
    getters, each giving a side's memo key from the bindings; and the
    specs, each (shape, entity?, holes, holes of the key, (hole, value) per
    literal of the spec).  A bare side, a generator alone, has spec -1: its
    value is its binding, a row or a value simplified already."""
    got = src.__dict__.get("_search")
    if got is not None:
        return got
    watch: dict[str, list[int]] = {n: [] for n in src.generators.names()}
    getters: dict[tuple, tuple] = {}  # by leaves: see _getter
    specs: dict[tuple, int] = {}  # by shape, entity? and literals
    get_list, spec_list, eq_info = [], [], []
    for i, eq in enumerate(src.equations):
        ent = src.schema.is_entity(eq.sort)
        sides: list = []
        for t in (eq.lhs, eq.rhs):
            bare, leaves = type(t) is Var and t.name in watch, {}
            shape = t if bare else _shape(t, watch, True, leaves)
            gens = (t,) if bare else tuple(leaves)
            if gens not in getters:
                names, get, lits = _getter(gens)
                getters[gens] = names, len(get_list), lits
                get_list.append(get)
            names, get, lits = getters[gens]
            k = -1 if bare else specs.setdefault((shape, ent, lits), len(specs))
            if k == len(spec_list):
                holes = [h.name for h in leaves.values()]
                spec_list.append((shape, ent, holes, tuple(
                    h for h, v in zip(holes, lits) if v is None), tuple(
                    (h, v) for h, v in zip(holes, lits) if v is not None)))
            sides += names, get, k, t.name if bare else None
        for v in {*sides[0], *sides[4]}:
            watch[v].append(i)
        eq_info.append(tuple(sides))
    got = src.__dict__["_search"] = watch, eq_info, get_list, spec_list
    return got


def _getter(leaves: tuple) -> tuple:
    """What a side reads at its leaves: the names of its generators, the
    function of the bindings that gives its memo's key, and per hole the
    value of a literal that is a constant of its spec, else None.  The key
    is the rows of its generators, or for a side with none, the values of
    its literals, so that the ground sides of one shape share a memo."""
    names = tuple([v.name for v in leaves if type(v) is Var])
    # a literal's value reads no type algebra
    vals = [None if type(v) is Var else symbol_operation(v.symbol)(None)
            for v in leaves]
    if names:
        return names, itemgetter(*names), tuple(vals)
    return (names, _constant(vals[0] if len(vals) == 1 else tuple(vals)),
            (None,) * len(vals))


_DONE = object()  # the end of a level's candidates


def _narrowed(probes: list, bound: dict, rows: list[Term]) -> list[Term]:
    """The rows, in table order, that each probe's inverse index lists at
    the value its other side takes at the bindings.  A probe is a side
    over one generator, whose sort's rows are rows, as its shape's memo,
    and the other side as its get and memo."""
    hits = []  # (bucket size, probe, bucket, side value by row, key)
    for k, (memo, get, other_memo) in enumerate(probes):
        want = get(bound)
        if other_memo is not None:
            want = other_memo[want]
        if memo.index is None:
            # the symbol applied to the hole fixes its sort, so one index
            # serves every generator
            memo.index = {}
            for row in rows:
                memo.index.setdefault(memo[row], []).append(row)
        bucket = memo.index.get(want, ())
        hits.append((len(bucket), k, bucket, memo, want))
    if len(hits) == 1:
        return hits[0][2]
    hits.sort()
    # a row is in another side's bucket iff its side value is the key
    return [r for r in hits[0][2]
            if all(at[r] == want for _, _, _, at, want in hits[1:])]


class _Memo(dict):
    """The values of a side shape with literals lits, by what its holes
    hold, one for one hole, else a tuple in the order of holes.  Each is
    computed on its first lookup by fn, a function of a dict that binds the
    holes and lits; index is the inverse, once built."""
    __slots__ = ("fn", "holes", "lits", "index")

    def __init__(self, fn, holes: tuple[str, ...], lits: tuple):
        self.fn, self.holes, self.lits, self.index = fn, holes, lits, None

    def __missing__(self, rows):
        holes = self.holes
        env = {holes[0]: rows} if len(holes) == 1 else dict(zip(holes, rows))
        if self.lits:
            env.update(self.lits)
        v = self[rows] = self.fn(env)
        return v


def hom_count(src: InstancePresentation, dst: SaturatedInstance) -> int:
    return len(enumerate_transforms(src, dst))


def tabulate(schema: Schema, J: SaturatedInstance, blocks: dict,
             keys: Callable, returns: Callable):
    """The tables of a For-Where-Return evaluation over J.  blocks maps
    each entity of schema to a row-name prefix and a presentation; its rows
    are the transforms from the presentation into J, named prefix1,
    prefix2, ...  Edge f sends a row to the row whose transform is the
    row's precomposed with keys(f), which writes each generator of f.cod's
    block as a term over f.dom's; attribute a reads returns(a), a term over
    a.dom's block, at the row's transform.  keys and returns are called
    after every block is enumerated, never for a block with no rows.
    Returns the instance and each entity's rows and transforms."""
    per = {}
    for e, (prefix, pres) in blocks.items():
        alphas = enumerate_transforms(pres, J)
        per[e] = ([Var(f"{prefix}{i + 1}") for i in range(len(alphas))],
                  alphas, pres.generators.names(),
                  [dict(t.rows + t.vals) for t in alphas])
    row_of = {e: rows_by_assignment(*per[e][:2])
              for e in {f.cod for f in schema.edges}}
    edge_cols = {f: {} for f in schema.edges}
    for f, col in edge_cols.items():
        rows, _, names, envs = per[f.dom[0]]
        if not rows:
            continue
        cells = [(g, J.compile(t, names, entity=True))
                 for g, t in keys(f).items()]
        for row, env in zip(rows, envs):
            key = frozenset((g, cell(env)) for g, cell in cells)
            hits = row_of[f.cod].get(key, ())
            if len(hits) != 1:
                raise InstanceError(f"the keys of edge {f.name} do not "
                                    f"determine a unique row")
            col[row] = hits[0]
    attr_cols = {a: {} for a in schema.attributes}
    for a, col in attr_cols.items():
        rows, _, names, envs = per[a.dom[0]]
        if rows:
            cell = J.compile(returns(a), names)
            col.update((row, cell(env)) for row, env in zip(rows, envs))
    row_list = {e: per[e][0] for e in schema.entities}
    return (SaturatedInstance(schema, row_list, edge_cols, attr_cols,
                              J.typealg, {}),
            {e: per[e][:2] for e in schema.entities})


def instances_isomorphic(a: SaturatedInstance, b: SaturatedInstance,
                         entity_names: dict | None = None,
                         column_names: dict | None = None) -> bool:
    """Row-bijection comparison of two saturated instances, cell for cell.

    Entities and columns are matched by name unless correspondences are
    given.  Ground cells must be equal; indeterminate cells must agree up
    to a single consistent one-to-one renaming of atoms.  A row is an
    (entity, term) pair, as a term may be a row of two entities.

    A row of a may only map to a row of b whose attribute cells have the
    same shapes (the value with its atoms replaced by numbered holes).  The
    search assigns the rows of a in entity and table order on an explicit
    stack.  Each assignment checks at once every edge cell whose two ends
    are assigned and extends the atom bijection by the row's cells; the
    atoms it adds are kept on a trail and undone on backtracking."""
    ea = {e.name: e for e in a.schema.entities}
    eb = {e.name: e for e in b.schema.entities}
    emap = entity_names or {n: n for n in ea}
    if set(emap) != set(ea) or set(emap.values()) != set(eb):
        return False
    cols_a = {s.name: s for s in a.schema.edges + a.schema.attributes}
    cols_b = {s.name: s for s in b.schema.edges + b.schema.attributes}
    cmap = column_names or {n: n for n in cols_a}
    if set(cmap) != set(cols_a) or set(cmap.values()) != set(cols_b):
        return False

    def atom_sort(at, alg):
        if isinstance(at, App):
            return at.symbol.cod
        return alg.nulls.sort_of(at.name) if at.name in alg.nulls else None

    def shape_and_atoms(v, alg):
        if not v.atoms():
            return v, ()
        atoms = sorted(v.atoms(), key=term_key)
        ph = {at: opaque_atom(Var(f"@{i}"), atom_sort(at, alg))
              for i, at in enumerate(atoms)}
        return map_value_atoms(v, lambda at: ph[at]), atoms

    # attribute cells by (column of a, row), as (shape, atoms in key order)
    attr_pairs = [(att, cols_b[cmap[att.name]]) for att in a.schema.attributes]
    cells_a = {(att, r): shape_and_atoms(a.attr_cols[att][r], a.typealg)
               for att, _ in attr_pairs for r in a.rows(att.dom[0])}
    cells_b = {(att, r): shape_and_atoms(b.attr_cols[att_b][r], b.typealg)
               for att, att_b in attr_pairs for r in b.rows(att_b.dom[0])}

    pairs = []  # ((entity, a row), candidate b rows in table order, columns)
    for name, e in ea.items():
        e2 = eb[emap[name]]
        if len(a.rows(e)) != len(b.rows(e2)):
            return False
        atts = [att for att, _ in attr_pairs if att.dom[0] == e]
        shapes_a = [tuple(cells_a[att, r][0] for att in atts)
                    for r in a.rows(e)]
        shapes_b = [tuple(cells_b[att, r][0] for att in atts)
                    for r in b.rows(e2)]
        if Counter(shapes_a) != Counter(shapes_b):
            return False
        by_shape: dict[tuple, list[Term]] = {}
        for r, k in zip(b.rows(e2), shapes_b):
            by_shape.setdefault(k, []).append(r)
        pairs += [((e, r), by_shape[k], atts)
                  for r, k in zip(a.rows(e), shapes_a)]

    # edge cells at each row of a: (b's column, the row at the other end)
    edges_out: dict[tuple, list] = {r: [] for r, _, _ in pairs}
    edges_in: dict[tuple, list] = {r: [] for r, _, _ in pairs}
    for f in a.schema.edges:
        col_b = b.edge_cols[cols_b[cmap[f.name]]]
        for r in a.rows(f.dom[0]):
            r2 = (f.cod, a.edge_cols[f][r])
            edges_out[f.dom[0], r].append((col_b, r2))
            edges_in[r2].append((col_b, (f.dom[0], r)))

    rowmap: dict[tuple, Term] = {}  # (entity, a row) -> b row
    used: set[tuple] = set()  # (entity of a, b row)
    atom_map: dict = {}
    inverse: dict = {}
    added: list = []  # atoms of a in the order atom_map took them

    def assign(r, cand, atts) -> bool:
        rowmap[r] = cand
        used.add((r[0], cand))
        for col_b, r2 in edges_out[r]:
            if r2 in rowmap and rowmap[r2] != col_b[cand]:
                return False
        for col_b, r0 in edges_in[r]:
            if r0 in rowmap and col_b[rowmap[r0]] != cand:
                return False
        for att in atts:
            for x, y in zip(cells_a[att, r[1]][1], cells_b[att, cand][1]):
                y0, x0 = atom_map.get(x), inverse.get(y)
                if y0 is None and x0 is None:
                    atom_map[x], inverse[y] = y, x
                    added.append(x)
                elif y0 != y or x0 != x:
                    return False
        return True

    def unassign(r, mark):
        used.discard((r[0], rowmap.pop(r)))
        while len(added) > mark:
            del inverse[atom_map.pop(added.pop())]

    nxt = [0] * len(pairs)  # per depth: the next candidate to try
    marks = [0] * len(pairs)  # per depth: len(added) before its assignment
    i = 0
    while i < len(pairs):
        r, cands, atts = pairs[i]
        k = nxt[i]
        while k < len(cands):
            cand = cands[k]
            k += 1
            if (r[0], cand) in used:
                continue
            marks[i] = len(added)
            if assign(r, cand, atts):
                break
            unassign(r, marks[i])
        else:
            nxt[i] = 0
            i -= 1
            if i < 0:
                return False
            unassign(pairs[i][0], marks[i])
            continue
        nxt[i] = k
        i += 1
    return True


# --- observable equality within a schema (used by mapping checks) ------


def observable_decide(schema: Schema, context: Context, lhs: Term,
                      rhs: Term) -> EqResult:
    """Does lhs = rhs hold for the free instance on the given context?"""
    try:
        si = saturate(InstancePresentation(schema, context))
    except PossiblyInfinite:
        return EqResult.Unknown
    return decide_values(si.eval_type(lhs), si.eval_type(rhs))


# --- rendering ----------------------------------------------------------


def tables(si: SaturatedInstance) -> dict:
    out: dict = {"entities": {}, "typealg": typealg_summary(si.typealg)}
    row, value = cache(render_term), cache(render_value)  # once per call
    for e in si.schema.entities:
        edges, attrs = si.schema.edges_from(e), si.schema.attrs_from(e)
        cols = [(si.edge_cols[f], row) for f in edges] + [
            (si.attr_cols[a], value) for a in attrs]
        out["entities"][e.name] = {
            "columns": ["id"] + [c.name for c in edges + attrs],
            "rows": [[row(r)] + [text(c[r]) for c, text in cols]
                     for r in si.rows(e)],
        }
    return out


def typealg_summary(alg: TypeAlgebra) -> dict:
    """The nulls, then the constraints on them, sorted: each null the
    algebra sets to a value, as `null = value`, and each residual one."""
    solved = [f"{at.name} = {v.render()}" for at, v in alg._subst.items()
              if isinstance(at, Var) and at.name in alg.nulls]
    return {
        "nulls": [f"{n} : {s.name}" for n, s in alg.nulls.bindings],
        "constraints": sorted(alg.residual_constraints() + solved),
    }


def render_tables(si: SaturatedInstance) -> str:
    data = tables(si)
    blocks = []
    for ename, tab in data["entities"].items():
        header = [ename] + tab["columns"][1:]
        rows = tab["rows"]
        widths = [max(len(str(c)) for c in col)
                  for col in zip(*([header] + rows))] if rows else \
                 [len(h) for h in header]
        lines = [" | ".join(h.ljust(w) for h, w in zip(header, widths)),
                 "-+-".join("-" * w for w in widths)]
        for r in rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
        blocks.append("\n".join(lines))
    ta = data["typealg"]
    if ta["nulls"] or ta["constraints"]:
        lines = ["typealg"]
        for n in ta["nulls"]:
            lines.append(f"  null {n}")
        for h in ta["constraints"]:
            lines.append(f"  {h}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def tables_json(si: SaturatedInstance) -> str:
    return _json(tables(si), "\n")


def _json(v, pad: str) -> str:
    """`json.dumps(v, indent=2)` of nested dicts and lists of strings: the
    stdlib's indenting encoder is slower and leaves cyclic garbage."""
    if isinstance(v, str):
        return _quote(v)
    if not v:
        return "{}" if isinstance(v, dict) else "[]"
    inner = pad + "  "
    if isinstance(v, dict):
        items = [f"{_quote(k)}: {_json(x, inner)}" for k, x in v.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    items = [_json(x, inner) for x in v]
    return "[" + inner + ("," + inner).join(items) + pad + "]"
