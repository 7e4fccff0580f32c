"""Test oracle: the staged-closure loops of instance and schema saturation.

These are the two closures catdb used before instance saturation became a
semi-naive chase and hom-sets were read off the saturated representables:
``saturate`` re-applies every edge to every class member on every pass and
stops when a pass changes neither the rows nor the closure, and
``saturate_entity_category`` is a breadth-first search over normal-form
paths with its own morphism count.  They are slow but simple, so the tests
compare the chase against them.  ``saturate`` also reads its type
equations its own way: it rewrites each observable equation at each row
into a term, resolves its entity subterms to rows, and reads the sides
with ``typeside_oracle.canon``.  Nothing under ``src/`` imports this.
"""

from __future__ import annotations

from catdb.instance import (
    InconsistentInstance, InstancePresentation, SaturatedInstance,
)
from catdb.kernel import (
    App, Context, Equation, Sort, Term, Var, app, subst_map, term_key,
)
from catdb.rewrite import DEFAULT_BUDGET, GroundClosure
from catdb.schema import PossiblyInfinite, Schema
from catdb.typeside import TypeAlgebra
from tests.typeside_oracle import canon, value_pairs


def _term_sort(t: Term, gens: Context) -> Sort:
    if isinstance(t, Var):
        return gens.sort_of(t.name)
    return t.symbol.cod


def saturate(ip: InstancePresentation,
             budget: int = DEFAULT_BUDGET.rows) -> SaturatedInstance:
    sch = ip.schema
    rs = sch.entity_rs
    gens = ip.generators
    nulls = Context(tuple(ip.type_generators()))

    is_ent = sch.is_entity
    ent_eqs = [eq for eq in ip.equations if is_ent(eq.sort)]
    type_eqs = [eq for eq in ip.equations if not is_ent(eq.sort)]
    cl = GroundClosure(ent_eqs, rs)

    # staged closure of entity terms under edge application
    items: dict[Term, Sort] = {}
    for n, s in ip.entity_generators():
        items.setdefault(cl.representative(Var(n)), s)
    changed = True
    while changed:
        # Edges are applied to every member of a row's congruence class,
        # not just its representative: a path rule may only fire on a
        # longer member (e.g. x.mgr.on ~> x.on needs the mgr spelling).
        state = (len(cl.known), len({cl.representative(t) for t in items}))
        changed = False
        for t, s in list(items.items()):
            for f in sch.edges_from(s):
                for m in cl.class_members(t):
                    u = cl.representative(app(f, m))
                    if u not in items:
                        items[u] = f.cod
                        changed = True
        if (len(cl.known), len({cl.representative(t) for t in items})) != state:
            changed = True
        if len(items) > budget * max(1, len(sch.entities)):
            raise PossiblyInfinite("instance saturation exceeded row budget")

    row_list: dict[Sort, list[Term]] = {e: [] for e in sch.entities}
    for t in items:
        rep = cl.representative(t)
        if rep not in row_list[items[t]]:
            row_list[items[t]].append(rep)
            if len(row_list[items[t]]) > budget:
                raise PossiblyInfinite(
                    f"entity {items[t]} exceeded {budget} rows")

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
                  for eq in type_eqs]
    for eq in sch.obs_eqs:
        zname, zsort = eq.context.bindings[0]
        for r in row_list.get(zsort, ()):
            hypotheses.append(Equation(
                nulls,
                resolve(subst_map(eq.lhs, {zname: r})),
                resolve(subst_map(eq.rhs, {zname: r})),
                eq.sort))
    alg = TypeAlgebra(nulls, value_pairs(nulls, hypotheses))
    if alg.inconsistent:
        raise InconsistentInstance(
            "type equations force distinct constants to coincide")

    attr_cols = {
        a: {r: alg.simplify(canon(app(a, r), alg)) for r in row_list[a.dom[0]]}
        for a in sch.attributes}
    gen_env = {n: cl.representative(Var(n)) for n, _ in ip.entity_generators()}
    return SaturatedInstance(sch, row_list, edge_cols, attr_cols, alg,
                             gen_env)


def saturate_entity_category(s: Schema, budget: int = 10_000
                             ) -> dict[tuple[Sort, Sort], list[Term]]:
    """Hom-set tables: for each entity pair (a, b), the normal-form path
    terms x:a |- p : b, computed by staged closure under edge application."""
    homs: dict[tuple[Sort, Sort], list[Term]] = {
        (a, b): [] for a in s.entities for b in s.entities}
    frontier: list[tuple[Sort, Sort, Term]] = []
    total = 0
    for a in s.entities:
        homs[(a, a)].append(Var("x"))
        frontier.append((a, a, Var("x")))
        total += 1
    while frontier:
        a, b, p = frontier.pop(0)
        for f in s.edges_from(b):
            q = s.entity_rs.normalize(app(f, p))
            cell = homs[(a, f.cod)]
            if q not in cell:
                cell.append(q)
                frontier.append((a, f.cod, q))
                total += 1
                if total > budget:
                    raise PossiblyInfinite(
                        f"entity category exceeded {budget} morphisms")
    for cell in homs.values():
        cell.sort(key=term_key)
    return homs
