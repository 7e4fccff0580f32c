"""Instance presentations, saturation into tables, and transforms.

An instance is presented by a context of generators over a schema's
collage signature (entity-sorted generators are rows-to-be, type-sorted
generators are labelled nulls) together with equations.  Saturation
materializes the entity side: rows are congruence classes of entity
terms, closed under edge application; attribute cells are canonical type
values over the instance's type algebra, whose hypotheses are the
type-sorted instance equations plus every observable equation
instantiated at every row.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .kernel import (
    App, Context, Equation, FunctionSymbol, Sort, Term, Var, app, ctx,
    render_term, subst_map, term_key, term_vars, well_sort_check,
)
from .rewrite import (
    DEFAULT_BUDGET, Budget, EqResult, GroundClosure, _positions, match,
)
from .schema import PossiblyInfinite, Schema
from .typeside import (
    CanonicalValue, TypeAlgebra, apply_symbol, decide_values, is_type_symbol,
    map_value_atoms, opaque_atom, render_value, ts_normalize, value_sort,
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
        sig = self.schema.collage_sig
        for n, s in self.generators.bindings:
            if sig.sorts.get(s.name) != s:
                raise InstanceError(f"unknown sort for generator {n}: {s}")
        for eq in self.equations:
            well_sort_check(eq.lhs, self.generators, sig)
            well_sort_check(eq.rhs, self.generators, sig)

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
                 typealg: TypeAlgebra, gen_env, presentation=None):
        self.schema = schema
        self.row_list: dict[Sort, list[Term]] = row_list
        self.edge_cols: dict[FunctionSymbol, dict[Term, Term]] = edge_cols
        self.attr_cols: dict[FunctionSymbol, dict[Term, CanonicalValue]] = attr_cols
        self.typealg = typealg
        self.gen_env: dict[str, Term] = gen_env
        self.presentation = presentation
        self.row_sort: dict[Term, Sort] = {
            r: e for e, rs_ in row_list.items() for r in rs_}

    def rows(self, e: Sort) -> list[Term]:
        return self.row_list[e]

    def total_rows(self) -> int:
        return sum(len(v) for v in self.row_list.values())

    def eval_entity(self, t: Term, env: dict[str, Term] | None = None) -> Term:
        """The row of t, with t's variables bound by env first, then by the
        generators of this instance.  A term over bound variables is
        evaluated through its edges even if it spells a row of this
        instance: a source generator may share its name with a row."""
        if isinstance(t, Var):
            if env and t.name in env:
                return env[t.name]
            return t if t in self.row_sort else self.gen_env[t.name]
        if not env and t in self.row_sort:
            return t
        assert isinstance(t, App)
        row = self.eval_entity(t.args[0], env)
        return self.edge_cols[t.symbol][row]

    def eval_type(self, t: Term, env: dict[str, Term] | None = None,
                  vals: dict[str, CanonicalValue] | None = None) -> CanonicalValue:
        v = self._eval_type(t, env or {}, vals or {})
        return self.typealg.simplify(v)

    def _eval_type(self, t: Term, env, vals) -> CanonicalValue:
        if isinstance(t, Var):
            if t.name in vals:
                return vals[t.name]
            return ts_normalize(t, self.typealg)
        assert isinstance(t, App)
        sym = t.symbol
        if sym in self.attr_cols:
            row = self.eval_entity(t.args[0], env)
            return self.attr_cols[sym][row]
        if is_type_symbol(sym):
            return apply_symbol(
                sym, [self._eval_type(a, env, vals) for a in t.args],
                self.typealg)
        raise InstanceError(f"cannot evaluate symbol {sym} in this instance")


def _term_sort(t: Term, gens: Context) -> Sort:
    if isinstance(t, Var):
        return gens.sort_of(t.name)
    return t.symbol.cod


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
    sides = [r.lhs for r in rs.rules]
    sides += [t for eq in rs.unoriented for t in (eq.lhs, eq.rhs)]
    patterns = [p for side in sides for _, p in _positions(side)
                if isinstance(p.args[0], App)]

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
                            match(p, app(f, m)) is None for p in patterns):
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
    sch = ip.schema
    gens = ip.generators
    nulls = Context(tuple(ip.type_generators()))
    is_ent = sch.is_entity
    cl, row_list = chase(ip, budget)

    edge_cols = {
        f: {r: cl.representative(app(f, r)) for r in row_list[f.dom[0]]}
        for f in sch.edges}

    def resolve(t: Term) -> Term:
        if is_ent(_term_sort(t, gens)):
            return cl.representative(t)
        if isinstance(t, Var):
            return t
        assert isinstance(t, App)
        return App(t.symbol, tuple(resolve(a) for a in t.args))

    hypotheses = [Equation(nulls, resolve(eq.lhs), resolve(eq.rhs), eq.sort)
                  for eq in ip.equations if not is_ent(eq.sort)]
    for eq in sch.obs_eqs:
        zname, zsort = eq.context.bindings[0]
        for r in row_list.get(zsort, ()):
            hypotheses.append(Equation(
                nulls,
                resolve(subst_map(eq.lhs, {zname: r})),
                resolve(subst_map(eq.rhs, {zname: r})),
                eq.sort))
    alg = TypeAlgebra(nulls, hypotheses)
    if alg.inconsistent:
        raise InconsistentInstance(
            "type equations force distinct constants to coincide")

    attr_cols = {
        a: {r: ts_normalize(app(a, r), alg) for r in row_list[a.dom[0]]}
        for a in sch.attributes}
    gen_env = {n: cl.representative(Var(n)) for n, _ in ip.entity_generators()}
    return SaturatedInstance(sch, row_list, edge_cols, attr_cols, alg,
                             gen_env, presentation=ip)


# --- canonical presentations -------------------------------------------


def row_generator_names(si: SaturatedInstance) -> dict[Term, str]:
    names: dict[Term, str] = {}
    used = set(n for n, _ in si.typealg.nulls.bindings)
    for e in si.schema.entities:
        for r in si.rows(e):
            base = r.name if isinstance(r, Var) else render_term(r)
            name = base
            k = 1
            while name in used:
                k += 1
                name = f"{base}_{k}"
            used.add(name)
            names[r] = name
    return names


def canonical_presentation(si: SaturatedInstance) -> InstancePresentation:
    """One generator per row and per null; one equation per edge cell, per
    constrained attribute cell, and per residual type-algebra constraint.

    Constraints are re-expressed over this instance's own schema: an atom
    that is not an attribute applied to a retained row (possible after a
    pullback) becomes a fresh null generator."""
    alg = si.typealg
    names = row_generator_names(si)
    used = set(names.values()) | {n for n, _ in alg.nulls.bindings}
    null_names = {n for n, _ in alg.nulls.bindings}
    attrs = set(si.schema.attributes)
    extra_nulls: list[tuple[str, Sort]] = []
    orphan: dict[Term, str] = {}

    def row_var(r: Term) -> Term:
        return Var(names[r])

    def atom_term(at: Term) -> Term:
        if isinstance(at, Var) and at.name in null_names:
            return at
        if isinstance(at, App) and at.symbol in attrs and at.args[0] in names:
            return App(at.symbol, (row_var(at.args[0]),))
        if at not in orphan:
            sort = at.symbol.cod if isinstance(at, App) else None
            base = render_term(at).replace(".", "_").replace('"', "")
            name, k = base, 1
            while name in used:
                k += 1
                name = f"{base}_{k}"
            used.add(name)
            orphan[at] = name
            extra_nulls.append((name, sort))
        return Var(orphan[at])

    eqs_raw: list[tuple[Term, Term, Sort]] = []
    for f in si.schema.edges:
        for r in si.rows(f.dom[0]):
            eqs_raw.append((app(f, row_var(r)),
                            row_var(si.edge_cols[f][r]), f.cod))
    for a in si.schema.attributes:
        for r in si.rows(a.dom[0]):
            v = si.attr_cols[a][r]
            free = ts_normalize(app(a, r))  # the cell's own opaque atom
            if v == free:
                continue
            eqs_raw.append((app(a, row_var(r)),
                            value_to_term(v, atom_term), a.cod))
    for at, v in alg._subst.items():
        eqs_raw.append((atom_term(at), value_to_term(v, atom_term),
                        value_sort(v)))
    for form, truth in alg._facts.items():
        eqs_raw.append((value_to_term(form, atom_term),
                        value_to_term(truth, atom_term), value_sort(form)))
    for big, small in alg._rewrites:
        eqs_raw.append((value_to_term(big, atom_term),
                        value_to_term(small, atom_term), value_sort(big)))

    bindings = [(names[r], e) for e in si.schema.entities for r in si.rows(e)]
    bindings += list(alg.nulls.bindings) + extra_nulls
    context = Context(tuple(bindings))
    eqs = [Equation(context, l, r, s) for l, r, s in eqs_raw]
    return InstancePresentation(si.schema, context, tuple(eqs))


# --- transforms ---------------------------------------------------------


@dataclass(frozen=True)
class Transform:
    source: InstancePresentation
    target: SaturatedInstance
    rows: tuple[tuple[str, Term], ...]
    vals: tuple[tuple[str, object], ...] = ()

    def row_assignment(self) -> dict[str, Term]:
        return dict(self.rows)

    def val_assignment(self) -> dict:
        return dict(self.vals)

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


def _check_equations(src: InstancePresentation, dst: SaturatedInstance,
                     env: dict[str, Term], vals: dict) -> list[str]:
    out = []
    is_ent = src.schema.is_entity
    for eq in src.equations:
        if is_ent(eq.sort):
            if dst.eval_entity(eq.lhs, env) != dst.eval_entity(eq.rhs, env):
                out.append(f"entity equation fails: {eq}")
        else:
            got = decide_values(dst.eval_type(eq.lhs, env, vals),
                                dst.eval_type(eq.rhs, env, vals))
            if got != EqResult.Equal:
                out.append(f"type equation not provable ({got.name}): {eq}")
    return out


def check_transform(t: Transform) -> list[str]:
    return _check_equations(t.source, t.target,
                            t.row_assignment(), t.val_assignment())


def enumerate_transforms(src: InstancePresentation,
                         dst: SaturatedInstance) -> list[Transform]:
    """All generator assignments into dst's rows satisfying src's
    equations, in deterministic order (generators by declaration, rows by
    table order).  Type-sorted generators must be forced by equations.

    A depth-first search that branches on the first unbound entity
    generator.  A node looks only at the equations of the generators it
    binds: an equation is checked once, when its last generator is bound
    (bindings only grow along a path, so a check that passed keeps
    passing), and an equation with a bare unbound generator on one side
    and a bound other side forces that generator.  Side values are
    memoised for the call, keyed by the side and the rows and values bound
    to its generators.  Branching on g keeps only the rows that an inverse
    index (side value -> rows in table order, built once per call) lists
    for each equation with one side over g alone and the other side bound.
    The index is exact because entity sides compare as rows and
    decide_values is Equal exactly when the two canonical values are ==."""
    if src.schema.presentation != dst.schema.presentation:
        raise InstanceError("transform endpoints live on different schemas")
    is_ent = src.schema.is_entity
    ent_gens = src.entity_generators()
    type_gen_names = [n for n, _ in src.type_generators()]

    # equations by generator, each list in equation order
    watch: dict[str, list[int]] = {n: [] for n in src.generators.names()}
    side_vars: dict[Term, tuple[str, ...]] = {}
    eq_info: list[tuple[bool, Term, Term]] = []
    for i, eq in enumerate(src.equations):
        for t in (eq.lhs, eq.rhs):
            side_vars[t] = tuple(sorted(v for v in term_vars(t) if v in watch))
        for v in set(side_vars[eq.lhs] + side_vars[eq.rhs]):
            watch[v].append(i)
        eq_info.append((is_ent(eq.sort), eq.lhs, eq.rhs))

    memo: dict = {}
    indexes: dict[Term, dict] = {}
    results: list[Transform] = []

    def value(t: Term, ent: bool, bound: dict):
        key = (t, tuple(bound[v] for v in side_vars[t]))
        v = memo.get(key)
        if v is None:
            v = memo[key] = (dst.eval_entity(t, bound) if ent
                             else dst.eval_type(t, bound, bound))
        return v

    def is_bound(t: Term, bound: dict) -> bool:
        return all(v in bound for v in side_vars[t])

    def propagate(bound: dict, todo) -> bool:
        # todo: the equations of the generators bound since the parent node;
        # checked keeps one that mentions two of them from being checked twice
        queue, checked = list(todo), set()
        for i in queue:
            if i in checked:
                continue
            ent, lhs, rhs = eq_info[i]
            lhs_bound, rhs_bound = is_bound(lhs, bound), is_bound(rhs, bound)
            if lhs_bound and rhs_bound:
                checked.add(i)
                l, r = value(lhs, ent, bound), value(rhs, ent, bound)
                holds = l == r if ent else decide_values(l, r) == EqResult.Equal
                if not holds:
                    return False
                continue
            for bare, other, other_bound in ((lhs, rhs, rhs_bound),
                                             (rhs, lhs, lhs_bound)):
                if isinstance(bare, Var) and other_bound:
                    bound[bare.name] = value(other, ent, bound)
                    queue.extend(watch[bare.name])
                    break
        return True

    def index(side: Term, ent: bool, name: str, sort: Sort) -> dict:
        idx = indexes.get(side)
        if idx is None:
            idx = indexes[side] = {}
            for row in dst.rows(sort):
                idx.setdefault(value(side, ent, {name: row}), []).append(row)
        return idx

    def candidates(name: str, sort: Sort, bound: dict) -> list[Term]:
        hits = []
        for i in watch[name]:
            ent, lhs, rhs = eq_info[i]
            for side, other in ((lhs, rhs), (rhs, lhs)):
                if side_vars[side] == (name,) and is_bound(other, bound):
                    hits.append(index(side, ent, name, sort).get(
                        value(other, ent, bound), []))
                    break
        if not hits:
            return dst.rows(sort)
        hits.sort(key=len)
        rest = [set(h) for h in hits[1:]]
        return [r for r in hits[0] if all(r in h for h in rest)]

    def search(bound: dict, todo) -> None:
        if not propagate(bound, todo):
            return
        pending = [(n, s) for n, s in ent_gens if n not in bound]
        if not pending:
            unforced = [n for n in type_gen_names if n not in bound]
            if unforced:
                raise DomainDependence(
                    "type-sorted generators not determined by equations: "
                    + ", ".join(unforced))
            results.append(Transform(
                src, dst,
                tuple((n, bound[n]) for n, _ in ent_gens),
                tuple((n, bound[n]) for n in type_gen_names)))
            return
        name, sort = pending[0]
        for row in candidates(name, sort, bound):
            search({**bound, name: row}, watch[name])

    search({}, range(len(eq_info)))
    return results


def hom_count(src: InstancePresentation, dst: SaturatedInstance) -> int:
    return len(enumerate_transforms(src, dst))


def instances_isomorphic(a: SaturatedInstance, b: SaturatedInstance,
                         entity_names: dict | None = None,
                         column_names: dict | None = None) -> bool:
    """Row-bijection comparison of two saturated instances, cell for cell.

    Entities and columns are matched by name unless correspondences are
    given.  Ground cells must be equal; indeterminate cells must agree up
    to a single consistent one-to-one renaming of atoms."""
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
        for n, s in alg.nulls.bindings:
            if n == at.name:
                return s
        return at.sort if hasattr(at, "sort") else None

    def shape_and_atoms(v, alg):
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

    # Each row of a may only map to a row of b whose attribute cells have
    # the same shapes, which consistent() needs anyway.
    pairs = []  # (a row, candidate b rows in table order)
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
        pairs += [(r, by_shape[k]) for r, k in zip(a.rows(e), shapes_a)]

    def consistent(rowmap):
        for f in a.schema.edges:
            fb = cols_b[cmap[f.name]]
            for r in a.rows(f.dom[0]):
                if rowmap[a.edge_cols[f][r]] != b.edge_cols[fb][rowmap[r]]:
                    return False
        # the atom renaming must be a bijection
        atom_map: dict = {}
        inverse: dict = {}
        for att, _ in attr_pairs:
            for r in a.rows(att.dom[0]):
                for x, y in zip(cells_a[att, r][1], cells_b[att, rowmap[r]][1]):
                    if atom_map.setdefault(x, y) != y \
                            or inverse.setdefault(y, x) != x:
                        return False
        return True

    def search(i, rowmap, used):
        if i == len(pairs):
            return consistent(rowmap)
        r, cands = pairs[i]
        for cand in cands:
            if cand in used:
                continue
            rowmap[r] = cand
            if search(i + 1, rowmap, used | {cand}):
                return True
            del rowmap[r]
        return False

    return search(0, {}, frozenset())


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


def _cell_str(si: SaturatedInstance, sym: FunctionSymbol, row: Term) -> str:
    if sym in si.edge_cols:
        return render_term(si.edge_cols[sym][row])
    return render_value(si.attr_cols[sym][row])


def tables(si: SaturatedInstance) -> dict:
    out: dict = {"entities": {}, "typealg": typealg_summary(si.typealg)}
    for e in si.schema.entities:
        cols = si.schema.edges_from(e) + si.schema.attrs_from(e)
        out["entities"][e.name] = {
            "columns": ["id"] + [c.name for c in cols],
            "rows": [
                [render_term(r)] + [_cell_str(si, c, r) for c in cols]
                for r in si.rows(e)
            ],
        }
    return out


def typealg_summary(alg: TypeAlgebra) -> dict:
    return {
        "nulls": [f"{n} : {s.name}" for n, s in alg.nulls.bindings],
        "constraints": alg.residual_constraints(),
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
    return json.dumps(tables(si), indent=2, sort_keys=False)
