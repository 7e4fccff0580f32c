"""Schema presentations and compiled schemas.

A schema is presented by entities, edges (unary entity-to-entity symbols),
attributes (unary entity-to-type symbols), path equations between edge
paths, and observable equations whose sides are type-sorted.  Compiling a
schema runs completion on the entity side and assembles the collage
signature: the built-in type signature extended with the entities, edges
and attributes.  Type symbols are declared first so that every schema
symbol outranks them in the term order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import (
    AlgSignature, App, Context, Equation, FunctionSymbol, Presentation, Sort,
    Term, Var, app, ctx, subst_map, term_key,
)
from .rewrite import (
    DEFAULT_BUDGET, Budget, BudgetExceeded, EqResult, RewriteSystem, complete,
)
from .typeside import TYPE_SORTS, TYPE_SYMBOLS


class SchemaError(Exception):
    pass


class PossiblyInfinite(SchemaError):
    pass


class SchemaMismatch(SchemaError):
    pass


@dataclass(frozen=True)
class SchemaPresentation:
    entities: tuple[Sort, ...]
    edges: tuple[FunctionSymbol, ...]
    attributes: tuple[FunctionSymbol, ...]
    path_eqs: tuple[Equation, ...] = ()
    obs_eqs: tuple[Equation, ...] = ()

    def __post_init__(self):
        type_sorts = set(TYPE_SORTS)
        for e in self.entities:
            if e in type_sorts:
                raise SchemaError(f"entity name clashes with a type sort: {e}")
        ents = set(self.entities)
        for f in self.edges:
            if len(f.dom) != 1 or f.dom[0] not in ents or f.cod not in ents:
                raise SchemaError(f"edge must be unary entity->entity: {f}")
        for a in self.attributes:
            if len(a.dom) != 1 or a.dom[0] not in ents or a.cod not in type_sorts:
                raise SchemaError(f"attribute must be unary entity->type: {a}")
        for eq in self.path_eqs:
            if len(eq.context.bindings) != 1 or eq.sort not in ents:
                raise SchemaError(f"path equation must be unary, entity-sorted: {eq}")
        for eq in self.obs_eqs:
            if len(eq.context.bindings) != 1 or eq.sort in ents:
                raise SchemaError(
                    f"observable equation must be unary with type-sorted sides: {eq}")


@dataclass(frozen=True)
class Schema:
    presentation: SchemaPresentation
    collage_sig: AlgSignature
    entity_sig: AlgSignature
    entity_rs: RewriteSystem

    @property
    def entities(self):
        return self.presentation.entities

    @property
    def edges(self):
        return self.presentation.edges

    @property
    def attributes(self):
        return self.presentation.attributes

    @property
    def obs_eqs(self):
        return self.presentation.obs_eqs

    def edges_from(self, e: Sort):
        return [f for f in self.edges if f.dom[0] == e]

    def attrs_from(self, e: Sort):
        return [a for a in self.attributes if a.dom[0] == e]

    def is_entity(self, s: Sort) -> bool:
        return s in self.presentation.entities


def compile_schema(pres: SchemaPresentation,
                   budget: Budget = DEFAULT_BUDGET) -> Schema:
    entity_sig = AlgSignature(pres.entities, pres.edges)
    collage_sig = AlgSignature(TYPE_SORTS + pres.entities,
                               TYPE_SYMBOLS + pres.edges + pres.attributes)
    entity_rs = complete(Presentation(entity_sig, pres.path_eqs), budget=budget)
    # Saturation treats entity_rs as canonical.  A total precedence orients
    # every equation between unary paths, so only the budget stops short.
    if entity_rs.status != "confluent":
        raise BudgetExceeded(
            budget.exhausted("schema completion", "critical_pairs"))
    return Schema(pres, collage_sig, entity_sig, entity_rs)


# --- schema mappings ----------------------------------------------------


@dataclass(frozen=True)
class SchemaMapping:
    """Maps entities to entities, edges to paths, attributes to observable
    terms; each image term lives in the context (x: F(dom))."""

    source: Schema
    target: Schema
    entity_map: tuple[tuple[Sort, Sort], ...]
    edge_map: tuple[tuple[FunctionSymbol, Term], ...]
    attr_map: tuple[tuple[FunctionSymbol, Term], ...]

    @staticmethod
    def make(source: Schema, target: Schema, entity_map: dict,
             edge_map: dict, attr_map: dict,
             errors: dict | None = None) -> "SchemaMapping":
        """Compares the images' top sorts: an image is well-sorted unless
        the parser recorded its sort error in `errors`, raised in turn."""
        F = SchemaMapping(source, target,
                          tuple(entity_map.items()),
                          tuple(edge_map.items()),
                          tuple(attr_map.items()))
        for e in source.entities:
            if F.on_entity(e) not in target.entities:
                raise SchemaMismatch(f"no target entity for {e}")

        def image_sort(f: FunctionSymbol, t: Term) -> Sort:
            if errors and errors.get(f):
                raise errors[f]
            return (t.symbol.cod if isinstance(t, App) else
                    ctx(("x", F.on_entity(f.dom[0]))).sort_of(t.name))

        for f in source.edges:
            t = F.on_edge(f)
            if image_sort(f, t) != F.on_entity(f.cod):
                raise SchemaMismatch(f"edge image has wrong codomain: {f} -> {t}")
        for a in source.attributes:
            t = F.on_attr(a)
            if image_sort(a, t) != a.cod:
                raise SchemaMismatch(f"attribute image has wrong sort: {a} -> {t}")
        return F

    def on_entity(self, e: Sort) -> Sort:
        for a, b in self.entity_map:
            if a == e:
                return b
        raise SchemaMismatch(f"entity not in mapping: {e}")

    def on_edge(self, f: FunctionSymbol) -> Term:
        for g, t in self.edge_map:
            if g == f:
                return t
        raise SchemaMismatch(f"edge not in mapping: {f}")

    def on_attr(self, a: FunctionSymbol) -> Term:
        for b, t in self.attr_map:
            if b == a:
                return t
        raise SchemaMismatch(f"attribute not in mapping: {a}")

    def translate(self, term: Term) -> Term:
        """Push a term over the source collage through the mapping.
        Variables are untouched (their sorts translate via the context)."""
        if isinstance(term, Var):
            return term
        assert isinstance(term, App)
        args = tuple(self.translate(a) for a in term.args)
        sym = term.symbol
        for g, t in self.edge_map:
            if g == sym:
                return subst_map(t, {"x": args[0]})
        for b, t in self.attr_map:
            if b == sym:
                return subst_map(t, {"x": args[0]})
        return App(sym, args)

    def translate_context(self, context: Context) -> Context:
        return Context(tuple(
            (n, self.on_entity(s) if self.source.is_entity(s) else s)
            for n, s in context.bindings))


def identity_mapping(s: Schema) -> SchemaMapping:
    return SchemaMapping.make(
        s, s,
        {e: e for e in s.entities},
        {f: app(f, Var("x")) for f in s.edges},
        {a: app(a, Var("x")) for a in s.attributes},
    )


def compose_mappings(F: SchemaMapping, G: SchemaMapping) -> SchemaMapping:
    if F.target is not G.source and F.target.presentation != G.source.presentation:
        raise SchemaMismatch("mapping composition: middle schemas differ")
    return SchemaMapping.make(
        F.source, G.target,
        {e: G.on_entity(F.on_entity(e)) for e in F.source.entities},
        {f: G.translate(F.on_edge(f)) for f in F.source.edges},
        {a: G.translate(F.on_attr(a)) for a in F.source.attributes},
    )


def check_mapping(F: SchemaMapping) -> list[str]:
    """Empty list if every source equation's image holds in the target;
    otherwise descriptions of the failing equations.  Unknown counts as a
    violation."""
    from .instance import observable_decide  # late import: layered modules

    violations = []
    for eq in F.source.presentation.path_eqs:
        l, r = F.translate(eq.lhs), F.translate(eq.rhs)
        if F.target.entity_rs.decide_equal(l, r) != EqResult.Equal:
            violations.append(f"path equation not preserved: {eq}")
    for eq in F.source.presentation.obs_eqs:
        name, s = eq.context.bindings[0]
        c = Context(((name, F.on_entity(s)),))
        got = observable_decide(F.target, c, F.translate(eq.lhs), F.translate(eq.rhs))
        if got != EqResult.Equal:
            violations.append(f"observable equation not preserved: {eq}")
    return violations


# --- saturated entity categories ---------------------------------------


def saturate_entity_category(s: Schema, budget: Budget = DEFAULT_BUDGET
                             ) -> dict[tuple[Sort, Sort], list[Term]]:
    """Hom-set tables: for each entity pair (a, b), the normal-form path
    terms x:a |- p : b, read off as the rows at b of the chased
    representable y(a)."""
    # late import: layered modules
    from .instance import chase, representable_instance

    ys = {a: chase(representable_instance(s, a), budget)[1]
          for a in s.entities}
    return {(a, b): sorted(ys[a][b], key=term_key)
            for a in s.entities for b in s.entities}


def edge_lifts(F: SchemaMapping, homs, s: Sort, g: FunctionSymbol):
    """Non-identity paths out of s in homs that F maps to the edge g."""
    tgt_rs = F.target.entity_rs
    want = tgt_rs.normalize(app(g, Var("x")))
    return [p for s2 in F.source.entities for p in homs[(s, s2)]
            if not isinstance(p, Var)
            and tgt_rs.normalize(F.translate(p)) == want]


def attr_lifts(F: SchemaMapping, homs, s: Sort, a: FunctionSymbol):
    """Observations b(p) out of s in homs that F maps to the attribute a."""
    tgt_rs = F.target.entity_rs
    want = tgt_rs.normalize(app(a, Var("x")))
    return [app(b, p) for s2 in F.source.entities for p in homs[(s, s2)]
            for b in F.source.attrs_from(s2)
            if tgt_rs.normalize(F.translate(app(b, p))) == want]


def discrete_opfibration_lifts(F: SchemaMapping,
                               budget: Budget = DEFAULT_BUDGET):
    """('yes', lifts) | ('no', None) | ('unknown', None).

    Checks unique lifting of generating target edges and attributes on the
    saturated entity categories: out of every image object, and — for
    edges whose codomain has a preimage — into every such preimage.  On
    'yes', lifts[s, g] is the lift out of s of each target edge or
    attribute g out of F(s)."""
    try:
        src_homs = saturate_entity_category(F.source, budget)
    except PossiblyInfinite:
        return "unknown", None
    tgt_rs = F.target.entity_rs

    lifts: dict[tuple[Sort, FunctionSymbol], Term] = {}
    for s in F.source.entities:
        fs = F.on_entity(s)
        for g in F.target.edges_from(fs):
            found = edge_lifts(F, src_homs, s, g)
            if len(found) != 1:
                return "no", None
            lifts[s, g] = found[0]
        for a in F.target.attrs_from(fs):
            found = attr_lifts(F, src_homs, s, a)
            if len(found) != 1:
                return "no", None
            lifts[s, a] = found[0]
    # edges into the image must also lift uniquely
    for g in F.target.edges:
        for s2 in F.source.entities:
            if F.on_entity(s2) != g.cod:
                continue
            image = tgt_rs.normalize(app(g, Var("x")))
            count = 0
            for s1 in F.source.entities:
                if F.on_entity(s1) != g.dom[0]:
                    continue
                for p in src_homs[(s1, s2)]:
                    if tgt_rs.normalize(F.translate(p)) == image:
                        count += 1
            if count != 1:
                return "no", None
    return "yes", lifts


def is_discrete_opfibration(F: SchemaMapping,
                            budget: Budget = DEFAULT_BUDGET) -> str:
    """'yes' | 'no' | 'unknown', as in discrete_opfibration_lifts."""
    return discrete_opfibration_lifts(F, budget)[0]
