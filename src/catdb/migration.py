"""Data migration along schema mappings, and bimodules via collages.

Delta pulls saturated tables back along a mapping; sigma pushes an
instance presentation forward syntactically; pi computes the right
adjoint row-by-row as transforms out of pulled-back representables.
Bimodules are presented by generating edges/attributes plus equations;
their collage is an ordinary schema with two inclusion mappings.  lambda
is delta after sigma along them; gamma is pi along the target inclusion,
built only on the source entities, which is delta after pi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial

from .kernel import (
    App, Context, Equation, FunctionSymbol, Sort, Term, Var, app, ctx,
    render_term, subst_map, term_key,
)
from .schema import (
    Schema, SchemaError, SchemaMapping, SchemaMismatch, SchemaPresentation,
    compile_schema, discrete_opfibration_lifts, saturate_entity_category,
)
from .instance import (
    InstancePresentation, SaturatedInstance, canonical_form,
    representable_instance, saturate, tabulate,
)
from .rewrite import DEFAULT_BUDGET, Budget


class MigrationError(Exception):
    pass


class NotOpfibration(MigrationError):
    pass


class NameClash(MigrationError):
    pass


# --- the three migration functors --------------------------------------


def delta(F: SchemaMapping, K: SaturatedInstance) -> SaturatedInstance:
    """Pullback: rows of s are K's rows at F(s); columns chase the images
    of edges and attributes; the type algebra is untouched."""
    src = F.source
    try:
        row_list = {s: list(K.rows(F.on_entity(s))) for s in src.entities}
        edge_img = {f: K.compile(F.on_edge(f), ("x",), entity=True)
                    for f in src.edges}
        attr_img = {a: K.compile(F.on_attr(a), ("x",)) for a in src.attributes}
    except KeyError as exc:  # K has no table or column the image reads
        what = ("table for entity" if isinstance(exc.args[0], Sort)
                else "column for edge")
        raise MigrationError(f"delta: the instance has no {what} "
                             f"{exc.args[0].name}") from None
    edge_cols = {f: {r: img({"x": r}) for r in row_list[f.dom[0]]}
                 for f, img in edge_img.items()}
    attr_cols = {a: {r: img({"x": r}) for r in row_list[a.dom[0]]}
                 for a, img in attr_img.items()}
    return SaturatedInstance(src, row_list, edge_cols, attr_cols,
                             K.typealg, dict(K.gen_env))


def _on_source(F: SchemaMapping, I, what: str) -> None:
    if I.schema.presentation != F.source.presentation:
        raise MigrationError(
            f"{what}: the instance is not on the mapping's source schema")


def sigma(F: SchemaMapping, I: InstancePresentation) -> InstancePresentation:
    """Left pushforward, as a presentation: re-sort the generators through
    the entity map and translate every equation symbol-wise."""
    _on_source(F, I, "sigma")
    new_ctx = F.translate_context(I.generators)
    eqs = []
    for eq in I.equations:
        sort = F.on_entity(eq.sort) if F.source.is_entity(eq.sort) else eq.sort
        eqs.append(Equation(new_ctx, F.translate(eq.lhs), F.translate(eq.rhs),
                            sort))
    return InstancePresentation(F.target, new_ctx, tuple(eqs))


def sigma_pointwise(F: SchemaMapping, I: SaturatedInstance) -> SaturatedInstance:
    """Coproduct-over-preimages formula, valid when F induces a discrete
    opfibration on collages."""
    _on_source(F, I, "sigma")
    verdict, lifts = discrete_opfibration_lifts(F)
    if verdict != "yes":
        raise NotOpfibration("mapping is not a discrete opfibration")
    src, tgt = F.source, F.target
    preim = {t: [s for s in src.entities if F.on_entity(s) == t]
             for t in tgt.entities}
    row_list: dict[Sort, list[Term]] = {t: [] for t in tgt.entities}
    row_home: dict[Term, Sort] = {}
    for t in tgt.entities:
        for s in preim[t]:
            for r in I.rows(s):
                if r in row_home:
                    raise MigrationError(
                        "row terms of distinct preimages must be disjoint")
                row_home[r] = s
                row_list[t].append(r)

    # an opfibration lifts every target edge and attribute uniquely
    lift = {key: I.compile(t, ("x",), entity=key[1] in tgt.edges)
            for key, t in lifts.items()}
    edge_cols = {
        g: {r: lift[row_home[r], g]({"x": r}) for r in row_list[g.dom[0]]}
        for g in tgt.edges}
    attr_cols = {
        a: {r: lift[row_home[r], a]({"x": r}) for r in row_list[a.dom[0]]}
        for a in tgt.attributes}
    return SaturatedInstance(tgt, row_list, edge_cols, attr_cols,
                             I.typealg, dict(I.gen_env))


def pi(F: SchemaMapping, I: SaturatedInstance,
       budget: Budget = DEFAULT_BUDGET) -> SaturatedInstance:
    """Right pushforward: a row at target entity t is a transform alpha
    from the canonical presentation of delta(F, saturate(y(t))) into I.
    Edges act by path precomposition.  A mapping is the identity on the
    type side, so a row's attribute cell is the representable's value of
    that attribute written over the presentation's generators and
    evaluated in I at alpha; a value that the generators cannot write
    depends on data outside the image of F, a domain error."""
    _on_source(F, I, "pi")
    out, found = _pushforward(F, I, F.target, budget)
    out.pi_details = {t: {"rows": rows, "alphas": alphas}
                      for t, (rows, alphas) in found.items()}
    return out


def _memo(obj) -> dict:
    """What obj, an immutable mapping or bimodule, has prepared so far,
    kept in obj's own __dict__: dropped with obj and shared with no other
    object, so a workspace parsed again prepares again.  A preparation
    that raises stores nothing, and raises again on the next call."""
    return obj.__dict__.setdefault("_prepared", {})


def _pushforward(F: SchemaMapping, I: SaturatedInstance, part: Schema,
                 budget: Budget = DEFAULT_BUDGET):
    """tabulate's pair for pi(F, I) on part, whose entities, edges and
    attributes are some of F.target's; only part's are computed.

    The representable side never reads I, so it is prepared once per F,
    part's entities and budget: each y(t) saturated, pulled back along F
    and written as a canonical presentation.  keys(h) and returns(a) are
    computed on first call, which tabulate makes only for a block with
    rows, and kept once they succeed.  Per I, only tabulate runs: the
    search into I and the columns."""
    memo, key = _memo(F), (part.entities, budget)
    if key not in memo:
        per, blocks = {}, {}
        for t in part.entities:
            sat = saturate(representable_instance(F.target, t), budget)
            dI = delta(F, sat)
            cp, term_of, names = canonical_form(dI)
            per[t] = (sat, names, term_of)
            blocks[t] = (t.name.lower(), cp)

        @cache
        def keys(h: FunctionSymbol) -> dict[str, Term]:
            # each generator of y(t1), a row of source entity s that is a
            # path term over x:t1, precomposed with h lands on a row of
            # y(t), named by its generator at s
            (sat, names, _), names1 = per[h.dom[0]], per[h.cod][1]
            x = {"x": sat.gen_env["x"]}
            return {g1: Var(names[s, sat.eval_entity(
                        subst_map(r1, {"x": app(h, Var("x"))}), x)])
                    for (s, r1), g1 in names1.items()}

        @cache
        def returns(a: FunctionSymbol) -> Term:
            sat, _, term_of = per[a.dom[0]]
            return term_of(sat.eval_type(app(a, Var("x")),
                                         {"x": sat.gen_env["x"]}))

        memo[key] = blocks, keys, returns
    return tabulate(part, I, *memo[key])


# --- bimodules ----------------------------------------------------------


@dataclass(frozen=True)
class BimodulePresentation:
    src: Schema
    dst: Schema
    gen_edges: tuple[FunctionSymbol, ...]
    gen_attrs: tuple[FunctionSymbol, ...]
    equations: tuple[Equation, ...] = ()

    def __post_init__(self):
        for g in self.gen_edges:
            if len(g.dom) != 1 or not self.src.is_entity(g.dom[0]) \
                    or not self.dst.is_entity(g.cod):
                raise SchemaError(
                    f"generating edge must be src-entity -> dst-entity: {g}")
        for a in self.gen_attrs:
            if len(a.dom) != 1 or not self.src.is_entity(a.dom[0]) \
                    or self.dst.is_entity(a.cod):
                raise SchemaError(
                    f"generating attribute must be src-entity -> type: {a}")
        for eq in self.equations:
            if len(eq.context.bindings) != 1 \
                    or not self.src.is_entity(eq.context.bindings[0][1]):
                raise SchemaError(
                    f"bimodule equation needs a singleton src-entity context: {eq}")


@dataclass(frozen=True)
class CollageSchema:
    schema: Schema
    incl_src: SchemaMapping
    incl_dst: SchemaMapping


def collage_of_bimodule(M: BimodulePresentation,
                        budget: Budget = DEFAULT_BUDGET) -> CollageSchema:
    """M's collage, built once per M and budget."""
    memo = _memo(M)
    if budget in memo:
        return memo[budget]
    sp, dp = M.src.presentation, M.dst.presentation
    ent_names = {e.name for e in sp.entities} & {e.name for e in dp.entities}
    sym_names = ({f.name for f in sp.edges + sp.attributes}
                 & {f.name for f in dp.edges + dp.attributes})
    if ent_names or sym_names:
        raise NameClash(f"collage name clashes: {sorted(ent_names | sym_names)}")
    ents = set(sp.entities) | set(dp.entities)
    path_eqs = list(sp.path_eqs) + list(dp.path_eqs)
    obs_eqs = list(sp.obs_eqs) + list(dp.obs_eqs)
    for eq in M.equations:
        (path_eqs if eq.sort in ents else obs_eqs).append(eq)
    pres = SchemaPresentation(
        sp.entities + dp.entities,
        sp.edges + dp.edges + M.gen_edges,
        sp.attributes + dp.attributes + M.gen_attrs,
        tuple(path_eqs), tuple(obs_eqs))
    col = compile_schema(pres, budget)

    def inclusion(side: Schema) -> SchemaMapping:
        return SchemaMapping.make(
            side, col,
            {e: e for e in side.entities},
            {f: app(f, Var("x")) for f in side.edges},
            {a: app(a, Var("x")) for a in side.attributes})

    memo[budget] = CollageSchema(col, inclusion(M.src), inclusion(M.dst))
    return memo[budget]


def companion_presentation(F: SchemaMapping,
                           prefix: str = "psi") -> BimodulePresentation:
    gens = {r: FunctionSymbol(f"{prefix}_{r.name}", (r,), F.on_entity(r))
            for r in F.source.entities}
    x = Var("x")
    eqs = []
    for f in F.source.edges:
        r, r1 = f.dom[0], f.cod
        eqs.append(Equation(
            ctx(("x", r)),
            app(gens[r1], app(f, x)),
            subst_map(F.on_edge(f), {"x": app(gens[r], x)}),
            F.on_entity(r1)))
    for a in F.source.attributes:
        r = a.dom[0]
        eqs.append(Equation(
            ctx(("x", r)),
            app(a, x),
            subst_map(F.on_attr(a), {"x": app(gens[r], x)}),
            a.cod))
    return BimodulePresentation(F.source, F.target, tuple(gens.values()),
                                (), tuple(eqs))


def conjoint_presentation(F: SchemaMapping,
                          prefix: str = "phi") -> BimodulePresentation:
    gens = {r: FunctionSymbol(f"{prefix}_{r.name}", (F.on_entity(r),), r)
            for r in F.source.entities}
    x = Var("x")
    eqs = []
    for f in F.source.edges:
        r, r1 = f.dom[0], f.cod
        eqs.append(Equation(
            ctx(("x", F.on_entity(r))),
            app(f, app(gens[r], x)),
            app(gens[r1], subst_map(F.on_edge(f), {"x": x})),
            r1))
    for a in F.source.attributes:
        r = a.dom[0]
        eqs.append(Equation(
            ctx(("x", F.on_entity(r))),
            app(a, app(gens[r], x)),
            subst_map(F.on_attr(a), {"x": x}),
            a.cod))
    return BimodulePresentation(F.target, F.source, tuple(gens.values()),
                                (), tuple(eqs))


def unit_bimodule(s: Schema) -> BimodulePresentation:
    """Identity bimodule s -|-> s', where s' is a disjoint copy of s
    (collages need disjoint sides) whose every entity, edge and attribute
    name carries the fixed suffix '_c'."""
    copy, to_copy = rename_schema(s, lambda n: n + "_c")
    return companion_presentation(to_copy, prefix="u")


def rename_schema(s: Schema, ren) -> tuple[Schema, SchemaMapping]:
    """A fresh copy of s with every entity/edge/attribute name passed
    through ren, plus the evident mapping s -> copy."""
    ents = {e: Sort(ren(e.name)) for e in s.entities}
    syms = {}
    for f in s.edges:
        syms[f] = FunctionSymbol(ren(f.name), (ents[f.dom[0]],), ents[f.cod])
    for a in s.attributes:
        syms[a] = FunctionSymbol(ren(a.name), (ents[a.dom[0]],), a.cod)

    def req(eq: Equation) -> Equation:
        c = Context(tuple((n, ents.get(srt, srt))
                          for n, srt in eq.context.bindings))
        return Equation(c, _rename_symbols(eq.lhs, syms),
                        _rename_symbols(eq.rhs, syms),
                        ents.get(eq.sort, eq.sort))

    pres = s.presentation
    copy = compile_schema(SchemaPresentation(
        tuple(ents[e] for e in pres.entities),
        tuple(syms[f] for f in pres.edges),
        tuple(syms[a] for a in pres.attributes),
        tuple(req(eq) for eq in pres.path_eqs),
        tuple(req(eq) for eq in pres.obs_eqs)))
    to_copy = SchemaMapping.make(
        s, copy,
        {e: ents[e] for e in s.entities},
        {f: app(syms[f], Var("x")) for f in s.edges},
        {a: app(syms[a], Var("x")) for a in s.attributes})
    return copy, to_copy


def _rename_symbols(t: Term, syms: dict) -> Term:
    if isinstance(t, Var):
        return t
    return App(syms.get(t.symbol, t.symbol),
               tuple(_rename_symbols(x, syms) for x in t.args))


def _map_observables(t: Term, schema: Schema, fn) -> Term:
    """t with fn applied to each largest subterm headed by an edge or an
    attribute of schema."""
    if isinstance(t, Var):
        return t
    if t.symbol in schema.edges or t.symbol in schema.attributes:
        return fn(t)
    return App(t.symbol,
               tuple(_map_observables(a, schema, fn) for a in t.args))


def compose_bimodules(M: BimodulePresentation, N: BimodulePresentation,
                      budget: Budget = DEFAULT_BUDGET) -> BimodulePresentation:
    """Composite bimodule via the double collage: its generating edges are
    the normal-form paths from a src entity of M into a dst entity of N,
    its extra generating attributes the normal-form observations of middle
    entities reachable from src, with equations expressing pre/post
    composition and the translated observable equations."""
    if M.dst.presentation != N.src.presentation:
        raise SchemaMismatch("bimodule composition: middle schemas differ")
    R, S, T = M.src, M.dst, N.dst
    rp, sp, tp = R.presentation, S.presentation, T.presentation
    ent_names = [e.name for e in rp.entities + sp.entities + tp.entities]
    if len(set(ent_names)) != len(ent_names):
        raise NameClash("bimodule composition: entity name clash")
    ents = set(rp.entities) | set(sp.entities) | set(tp.entities)
    path_eqs = list(rp.path_eqs) + list(sp.path_eqs) + list(tp.path_eqs)
    obs_eqs = list(rp.obs_eqs) + list(sp.obs_eqs) + list(tp.obs_eqs)
    for eq in tuple(M.equations) + tuple(N.equations):
        (path_eqs if eq.sort in ents else obs_eqs).append(eq)
    double = compile_schema(SchemaPresentation(
        rp.entities + sp.entities + tp.entities,
        rp.edges + sp.edges + tp.edges + M.gen_edges + N.gen_edges,
        rp.attributes + sp.attributes + tp.attributes
        + M.gen_attrs + N.gen_attrs,
        tuple(path_eqs), tuple(obs_eqs)), budget)
    homs = saturate_entity_category(double, budget)

    def pname(t: Term) -> str:
        return render_term(t).replace("x.", "", 1).replace(".", "_")

    gen_edges: dict[Term, FunctionSymbol] = {}
    for r in rp.entities:
        for t in tp.entities:
            for p in homs[(r, t)]:
                gen_edges[p] = FunctionSymbol(f"b_{pname(p)}", (r,), t)
    mid_attrs = list(sp.attributes) + list(N.gen_attrs)
    gen_attrs: dict[Term, FunctionSymbol] = {}
    for r in rp.entities:
        for s in sp.entities:
            for p in homs[(r, s)]:
                for att in mid_attrs:
                    if att.dom[0] != s:
                        continue
                    key = double.entity_rs.normalize(app(att, p))
                    if key not in gen_attrs:
                        gen_attrs[key] = FunctionSymbol(
                            f"o_{pname(key)}", (r,), att.cod)

    x = Var("x")
    r_attrs = set(rp.attributes) | set(M.gen_attrs)
    t_ents = set(tp.entities)
    s_ents = set(sp.entities)

    def observable(t: Term) -> Term:
        """A double-collage observable over x:r, headed by an edge or an
        attribute, in the composite bimodule's language."""
        nt = double.entity_rs.normalize(t)
        asym = nt.symbol
        if asym in double.attributes:
            dom = asym.dom[0]
            if asym in r_attrs or dom in set(rp.entities):
                return nt
            if dom in s_ents:
                return app(gen_attrs[nt], x)
            return App(asym, (app(gen_edges[nt.args[0]], x),))
        raise SchemaError(f"entity-sorted term in observable position: {t}")

    tau = partial(_map_observables, schema=double, fn=observable)

    eqs: list[Equation] = []
    for p, E in gen_edges.items():
        r, t = E.dom[0], E.cod
        for f in R.edges:
            if f.cod != r:
                continue
            q = double.entity_rs.normalize(subst_map(p, {"x": app(f, x)}))
            eqs.append(Equation(ctx(("x", f.dom[0])),
                               app(E, app(f, x)), app(gen_edges[q], x), t))
        for g in T.edges_from(t):
            q = double.entity_rs.normalize(app(g, p))
            eqs.append(Equation(ctx(("x", r)),
                               app(g, app(E, x)), app(gen_edges[q], x), g.cod))
    for q, A in gen_attrs.items():
        r = A.dom[0]
        for f in R.edges:
            if f.cod != r:
                continue
            q2 = double.entity_rs.normalize(subst_map(q, {"x": app(f, x)}))
            eqs.append(Equation(ctx(("x", f.dom[0])),
                               app(A, app(f, x)), app(gen_attrs[q2], x),
                               A.cod))
    for eq in M.equations:
        if eq.sort in ents:
            continue
        eqs.append(Equation(eq.context, tau(eq.lhs), tau(eq.rhs), eq.sort))
    mid_obs = [eq for eq in tuple(N.equations) + sp.obs_eqs
               if eq.sort not in ents]
    for r in rp.entities:
        for s in sp.entities:
            for p in homs[(r, s)]:
                for eq in mid_obs:
                    if eq.context.bindings[0][1] != s:
                        continue
                    name = eq.context.bindings[0][0]
                    l = subst_map(eq.lhs, {name: p})
                    rr = subst_map(eq.rhs, {name: p})
                    eqs.append(Equation(ctx(("x", r)), tau(l), tau(rr),
                                        eq.sort))
    return BimodulePresentation(
        R, T,
        tuple(gen_edges[p] for p in sorted(gen_edges, key=lambda p: term_key(p))),
        tuple(M.gen_attrs)
        + tuple(gen_attrs[q] for q in sorted(gen_attrs, key=lambda q: term_key(q))),
        tuple(eqs))


def lambda_(M: BimodulePresentation, I: InstancePresentation,
            budget: Budget = DEFAULT_BUDGET) -> SaturatedInstance:
    col = collage_of_bimodule(M, budget)
    return delta(col.incl_dst, saturate(sigma(col.incl_src, I), budget))


def gamma(M: BimodulePresentation, J: SaturatedInstance,
          budget: Budget = DEFAULT_BUDGET) -> SaturatedInstance:
    """delta(incl_src, pi(incl_dst, J)) along M's collage, which keeps
    M.src's entities, edges and attributes under their names: pi's tables
    on M.src, the only ones built.

    The collage and the representable side of the pushforward never read
    J, so both are prepared once per M and budget and kept on M (the
    representables on the collage's incl_dst).  Per J, only the search
    into J and the columns run."""
    col = collage_of_bimodule(M, budget)
    return _pushforward(col.incl_dst, J, M.src, budget)[0]
