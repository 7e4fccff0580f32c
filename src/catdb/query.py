"""For-Where-Return queries over a schema, and their evaluation.

A query freezes its FOR context and WHERE equations into an instance;
each result row is a transform from that frozen instance into the input,
and each RETURN attribute is the value of its term under the transform.
Uber-queries bundle one such block per result entity plus KEYS morphisms
that populate the result edges by precomposition.  The bimodule route
(restriction along one collage inclusion, right extension along the
other) must agree with direct evaluation; crosscheck_migration verifies
that on concrete inputs.  What does not read the input instance is
prepared once per (immutable) query object and kept on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .kernel import (
    Context, ContextMorphism, Equation, FunctionSymbol, Sort, Term, Var, app,
    ctx, subst_map,
)
from .schema import Schema, SchemaPresentation, compile_schema
from .instance import (
    DomainDependence, InstancePresentation, SaturatedInstance, Transform,
    check_transform, instances_isomorphic, render_tables, saturate, tabulate,
)
from .migration import BimodulePresentation, gamma
from .rewrite import DEFAULT_BUDGET, Budget
from .typeside import TYPE_SORTS


STAR = Sort("*")


class QueryError(Exception):
    pass


class InvalidKeys(QueryError):
    pass


@dataclass(frozen=True)
class Query:
    """FOR variables with their sorts, WHERE equations over them, and a
    RETURN context whose variables are assigned type-sorted terms."""

    schema: Schema
    for_ctx: Context
    where_eqs: tuple[Equation, ...]
    return_ctx: Context
    return_morph: ContextMorphism

    def __post_init__(self):
        type_sorts = set(TYPE_SORTS)
        for n, s in self.return_ctx.bindings:
            if s not in type_sorts:
                raise QueryError(f"return variable {n} must have a type sort")

    @cached_property
    def _result_schema(self) -> Schema:
        # see result_schema
        attrs = tuple(FunctionSymbol(n, (STAR,), s)
                      for n, s in self.return_ctx.bindings)
        return compile_schema(SchemaPresentation((STAR,), (), attrs))

    @cached_property
    def _bimodule(self) -> BimodulePresentation:
        # see query_to_bimodule
        R = self._result_schema
        gen_edges = tuple(FunctionSymbol(n, (STAR,), s)
                          for n, s in self.for_ctx.bindings)
        q = Var("q")
        qctx = ctx(("q", STAR))
        sub = {g.name: app(g, q) for g in gen_edges}
        eqs = []
        for eq in self.where_eqs:
            eqs.append(Equation(qctx, subst_map(eq.lhs, sub),
                                subst_map(eq.rhs, sub), eq.sort))
        for (n, s), a in zip(self.return_ctx.bindings, R.attributes):
            t = self.return_morph(n)
            eqs.append(Equation(qctx, app(a, q), subst_map(t, sub), s))
        return BimodulePresentation(R, self.schema, gen_edges, (),
                                    tuple(eqs))


@dataclass(frozen=True)
class QueryResult:
    instance: SaturatedInstance

    @property
    def typealg(self):
        return self.instance.typealg


def frozen_instance(Q: Query) -> InstancePresentation:
    return InstancePresentation(Q.schema, Q.for_ctx, tuple(Q.where_eqs))


def check_domain_independence(Q: Query) -> list[str]:
    """Names of FOR variables that do not have entity sorts (empty = ok)."""
    return [n for n, s in Q.for_ctx.bindings if not Q.schema.is_entity(s)]


def result_schema(Q: Query) -> Schema:
    """One entity with one attribute per RETURN variable, in order; built
    once per Q."""
    return Q._result_schema


def query_to_bimodule(Q: Query) -> tuple[Schema, BimodulePresentation]:
    """The result schema and the bimodule, which has one generating edge
    per FOR variable, with the WHERE equations and the RETURN assignments
    as its equations; built once per Q and kept on it."""
    return Q._result_schema, Q._bimodule


def eval_query(Q: Query, J: SaturatedInstance) -> QueryResult:
    bad = check_domain_independence(Q)
    if bad:
        raise DomainDependence(
            f"FOR variables without entity sorts: {', '.join(bad)}")
    # one block, rows named 1, 2, ...; R has no edges, so no keys
    out, _ = tabulate(result_schema(Q), J,
                      {STAR: ("", frozen_instance(Q))}, None,
                      lambda a: Q.return_morph(a.name))
    return QueryResult(out)


# --- uber-queries -------------------------------------------------------


@dataclass(frozen=True)
class UberBlock:
    for_ctx: Context
    where_eqs: tuple[Equation, ...]
    keys: tuple[tuple[FunctionSymbol, ContextMorphism], ...] = ()
    returns: tuple[tuple[FunctionSymbol, Term], ...] = ()

    def key_for(self, edge: FunctionSymbol) -> ContextMorphism:
        for f, m in self.keys:
            if f == edge:
                return m
        raise InvalidKeys(f"no keys morphism for edge {edge.name}")

    def return_for(self, attr: FunctionSymbol) -> Term:
        for a, t in self.returns:
            if a == attr:
                return t
        raise QueryError(f"no return assignment for attribute {attr.name}")


@dataclass(frozen=True)
class UberQuery:
    schema: Schema
    result_schema: Schema
    blocks: tuple[tuple[Sort, UberBlock], ...]

    def block_for(self, e: Sort) -> UberBlock:
        for s, b in self.blocks:
            if s == e:
                return b
        raise QueryError(f"no block for result entity {e.name}")

    @cached_property
    def _checked_blocks(self) -> dict:
        # see eval_uber_query
        check_uber_query(self)
        return {e: (e.name.lower(), InstancePresentation(
                    self.schema, b.for_ctx, tuple(b.where_eqs)))
                for e, b in self.blocks}


def check_uber_query(N: UberQuery) -> None:
    """Domain independence per block; each keys morphism must be a valid
    transform between the frozen instances of its blocks; every result
    entity needs a block that returns each of its attributes."""
    for e, b in N.blocks:
        bad = [n for n, s in b.for_ctx.bindings if not N.schema.is_entity(s)]
        if bad:
            raise DomainDependence(
                f"block {e.name}: FOR variables without entity sorts: "
                f"{', '.join(bad)}")
    for e, b in N.blocks:
        dom_sat = None  # saturated once, at the block's first result edge
        for f in N.result_schema.edges_from(e):
            m = b.key_for(f)
            cod_block = N.block_for(f.cod)
            if dom_sat is None:
                dom_sat = saturate(InstancePresentation(
                    N.schema, b.for_ctx, tuple(b.where_eqs)))
            cod_pres = InstancePresentation(
                N.schema, cod_block.for_ctx, tuple(cod_block.where_eqs))
            rows = {n: dom_sat.eval_entity(m(n))
                    for n, s in cod_block.for_ctx.bindings
                    if N.schema.is_entity(s)}
            t = Transform(cod_pres, dom_sat, tuple(rows.items()), ())
            errs = check_transform(t)
            if errs:
                raise InvalidKeys(
                    f"keys morphism for {f.name} violates WHERE equations: "
                    f"{'; '.join(errs)}")
    for e in N.result_schema.entities:
        b = N.block_for(e)
        for a in N.result_schema.attrs_from(e):
            b.return_for(a)


def eval_uber_query(N: UberQuery, J: SaturatedInstance) -> SaturatedInstance:
    """N's tables over J.  N's check and its blocks' frozen instances never
    read J, so they are prepared once per N (a failing check stores
    nothing and raises on every call); per J, only tabulate runs."""
    return tabulate(N.result_schema, J, N._checked_blocks,
                    lambda f: N.block_for(f.dom[0]).key_for(f).as_dict(),
                    lambda a: N.block_for(a.dom[0]).return_for(a))[0]


# --- the migration cross-check -----------------------------------------


def crosscheck_migration(Q: Query, J: SaturatedInstance,
                         budget: Budget = DEFAULT_BUDGET,
                         direct: SaturatedInstance | None = None) -> str:
    """Evaluate Q directly and through the bimodule collage (restriction
    after right extension, with the right extension built on the result
    entity only); 'ok' if the two tables are isomorphic.  direct is Q's
    result on J when the caller has it already.

    Q's result schema and bimodule are built once per Q, and gamma
    prepares the collage and y(*)'s side once per bimodule and budget.
    Per J, only the two searches into J, their columns and the
    isomorphism check run."""
    if direct is None:
        direct = eval_query(Q, J).instance
    _, M = query_to_bimodule(Q)
    via = gamma(M, J, budget)
    if instances_isomorphic(direct, via):
        return "ok"
    return ("mismatch:\n--- direct evaluation ---\n"
            + render_tables(direct)
            + "\n--- via migration ---\n" + render_tables(via))
