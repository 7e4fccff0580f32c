"""Text DSL for theories, schemas, instances, mappings, bimodules,
queries and uber-queries (.cdb files).

Every parse and check error carries a file:line:column span.  Tokens
are plain strings from one regular-expression pass; a span is found
again from the text only when an error is raised.  The grammar uses
explicit `forall x:A .` binders for equations; terms use postfix paths
(x.f.g), infix `* + - <=`, function application, integer and string
literals, and `true`/`false`.  A term is sorted as it is built,
an attribute grammar after Knuth (1968): each node in O(arity), no walk.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from itertools import islice
from typing import NoReturn

from .kernel import (
    AlgSignature, App, AritySortMismatch, Context, ContextMorphism, Equation,
    FunctionSymbol, KernelError, Presentation, Sort, Term, UnknownSymbol, Var,
    render_term,
)
from .typeside import (
    FALSE, LE, NEG, PLUS, TIMES, TRUE, TYPE_SORTS, TYPE_SYMBOLS, int_term,
    str_literal,
)
from .schema import (
    Schema, SchemaMapping, SchemaPresentation, compile_schema,
)
from .instance import InstancePresentation
from .migration import BimodulePresentation
from .query import Query, UberBlock, UberQuery


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    column: int

    def __str__(self):
        return f"{self.file}:{self.line}:{self.column}"


class DslError(Exception):
    def __init__(self, message: str, span: SourceSpan | None = None):
        self.span = span
        super().__init__(f"{span}: {message}" if span else message)


# --- tokenizer ----------------------------------------------------------

# a token: a name, an operator, an integer or a string
_TOKEN = r'''[A-Za-z_][A-Za-z0-9_']*|\*(?![/)])|<=|->|:=|[{}();:,.=+\-\[\]|]
    |\d+|"(?:[^"\\]|\\.)*"'''
# blanks, newlines and comments, then a token; or, at a character no token
# starts, the rest of the text, so the bad character is the last token; or
# the end, so trailing blanks are skipped once, not rescanned from each.
# After the greedy prefix one of the three always matches: no backtracking.
_TOKEN_RE = re.compile(rf"\s*(?://[^\n]*\s*)*({_TOKEN}|\S[\s\S]*|\Z)",
                       re.VERBOSE)
_NAME_START = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_*")


def tokenize(text: str, filename: str = "<input>") -> list[str]:
    """The tokens of `text` as strings, ending in "" at its end, from one
    C-level pass of `_TOKEN_RE`, whose first bad character ends it.  A
    token's kind is its first character's: a letter, `_` or `*` starts a
    name, a digit an integer and `"` a string; anything else is an
    operator."""
    toks = _TOKEN_RE.findall(text)
    end = toks.index("")
    del toks[end + 1:]  # findall may match the empty end twice
    if end and not re.fullmatch(_TOKEN, toks[end - 1], re.VERBOSE):
        raise DslError(f"unexpected character {toks[end - 1][0]!r}",
                       token_span(text, filename, end - 1))
    return toks


def token_span(text: str, filename: str, i: int) -> SourceSpan:
    """Where token `i` of `text` starts, found by scanning it again: only
    an error needs it."""
    at = next(islice(_TOKEN_RE.finditer(text), i, None)).start(1)
    return SourceSpan(filename, text.count("\n", 0, at) + 1,
                      at - text.rfind("\n", 0, at))


# --- workspace ----------------------------------------------------------


@dataclass
class Workspace:
    theories: dict[str, Presentation] = field(default_factory=dict)
    schemas: dict[str, Schema] = field(default_factory=dict)
    instances: dict[str, InstancePresentation] = field(default_factory=dict)
    mappings: dict[str, SchemaMapping] = field(default_factory=dict)
    bimodules: dict[str, BimodulePresentation] = field(default_factory=dict)
    queries: dict[str, Query] = field(default_factory=dict)
    uberqueries: dict[str, UberQuery] = field(default_factory=dict)
    order: list[tuple[str, str]] = field(default_factory=list)

    def schema_name(self, s: Schema) -> str:
        for n, sc in self.schemas.items():
            if sc is s:
                return n
        return "?"


# --- parser -------------------------------------------------------------

BUILTIN_SORTS = {s.name: s for s in TYPE_SORTS}
_DECLARATIONS = ("theory", "schema", "instance", "mapping", "bimodule",
                 "query", "uberquery")
_INFIX = {"<=": 0, "+": 1, "-": 1, "*": 2}  # binding power


class Parser:
    def __init__(self, text: str, filename: str = "<input>"):
        self.toks = tokenize(text, filename)
        self.text, self.file = text, filename  # for spans
        self.pos = 0
        self._sig = None, None  # the last signature and what it was built of

    # - token plumbing -

    def span(self, at: int) -> SourceSpan:
        return token_span(self.text, self.file, at)

    def fail(self, message: str, at: int | None = None) -> NoReturn:
        """Raise DslError at token `at`, by default the one just read."""
        raise DslError(message, self.span(self.pos - 1 if at is None else at))

    def check_equation(self, env: "TermEnv", lhs: Term,
                       rhs: Term | Sort | None, at: int) -> Sort:
        """The sort of `lhs`, a term `env` built.  `rhs` is the other side
        of an equation or a wanted sort; a different sort, or an ill-sorted
        subterm of either side, raises DslError at token `at`."""
        try:
            ls = env.sort(lhs)
            rs = rhs if rhs is None or isinstance(rhs, Sort) else env.sort(rhs)
        except KernelError as exc:
            raise DslError(str(exc), self.span(at)) from exc
        if rs is None or ls is rs:
            return ls
        if rs is rhs:  # a wanted sort
            self.fail(f"{render_dsl_term(lhs)} has sort {ls.name}, "
                      f"expected {rs.name}", at)
        self.fail(f"equation sides have sorts {ls.name} and {rs.name}", at)

    def peek(self) -> str:
        return self.toks[self.pos]

    def next(self) -> str:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str):
        t = self.next()
        if t != text:
            self.fail(f"expected {text!r}, found {t!r}")

    def expect_ident(self) -> str:
        t = self.next()
        if t[:1] not in _NAME_START:
            self.fail(f"expected a name, found {t!r}")
        return t

    def ident_at(self) -> int:
        """Read a name; its token index, for an error later."""
        self.expect_ident()
        return self.pos - 1

    def expect_kw(self, kw: str):
        t = self.expect_ident()
        if t != kw:
            self.fail(f"expected {kw!r}, found {t!r}")

    def at(self, text: str) -> bool:
        return self.toks[self.pos] == text

    def accept(self, text: str) -> bool:
        if self.toks[self.pos] == text:
            self.pos += 1
            return True
        return False

    def peek_is_decl_name(self) -> bool:
        return (self.peek()[:1] in _NAME_START
                and self.toks[self.pos + 1] in (",", ":"))

    # - top level -

    def parse_workspace(self) -> Workspace:
        ws = Workspace()
        while self.peek():
            kw = self.expect_ident()
            if kw in _DECLARATIONS:
                getattr(self, f"parse_{kw}")(ws)
            elif kw == "typeside":
                self.fail("the typeside is built in; `typeside` declarations "
                          "are reserved")
            else:
                self.fail(f"unknown declaration {kw!r}")
        return ws

    # - shared pieces -

    def _sort(self, at: int, sorts, types: bool = True) -> Sort:
        """The sort token `at` names among `sorts`, then, when `types`,
        among the built-in type sorts.  Without them it must name an
        entity."""
        name = self.toks[at]
        for s in sorts:
            if s.name == name:
                return s
        if types and name in BUILTIN_SORTS:
            return BUILTIN_SORTS[name]
        self.fail(f"unknown {'sort' if types else 'entity'} {name!r}", at)

    def _binders(self, end: str, sorts) -> list[tuple[str, Sort]]:
        """`x y : A, z : B` up to `end`: forall binders, generators, for."""
        out = []
        while not self.accept(end):
            names = [self.expect_ident()]
            while not self.at(":"):
                names.append(self.expect_ident())
            self.expect(":")
            s = self._sort(self.ident_at(), sorts)
            out.extend((n, s) for n in names)
            self.accept(",")
        return out

    def _equation(self, env: "TermEnv") -> Equation:
        lhs = self.parse_term(env)
        self.expect("=")
        at = self.pos - 1
        rhs = self.parse_term(env)
        return Equation(env.context, lhs, rhs,
                        self.check_equation(env, lhs, rhs, at))

    def parse_forall_eq(self, sig: AlgSignature, sorts) -> Equation:
        self.expect_kw("forall")
        context = Context(tuple(self._binders(".", sorts)))
        return self._equation(TermEnv(sig, context))

    def _signature(self, sorts: tuple, symbols: tuple) -> AlgSignature:
        """`AlgSignature(sorts, symbols)`, built again only when they have
        grown since the last call: once per declaration, not per section."""
        if self._sig[1] != (sorts, symbols):
            self._sig = AlgSignature(sorts, symbols), (sorts, symbols)
        return self._sig[0]

    def _schema(self, ws: Workspace) -> Schema:
        """The schema the next token names."""
        name = self.expect_ident()
        if name not in ws.schemas:
            self.fail(f"unknown schema {name!r}")
        return ws.schemas[name]

    # - theories -

    def parse_theory(self, ws: Workspace):
        name = self.expect_ident()
        self.expect("{")
        sorts: dict[str, Sort] = {}
        symbols: list[FunctionSymbol] = []
        equations: list[Equation] = []
        while not self.accept("}"):
            section = self.expect_ident()
            if section == "sorts":
                while not self.accept(";"):
                    s = self.expect_ident()
                    sorts[s] = Sort(s)
            elif section in ("constants", "symbols"):
                # name [name...] : S1 ... Sn -> S  |  name : S
                while not self.accept(";"):
                    names = [self.next()]
                    while not self.at(":"):
                        names.append(self.next())
                    self.expect(":")
                    parts = []
                    while not self.at("->") and not self.at(";") \
                            and not self.at(","):
                        parts.append(self.ident_at())
                    if self.accept("->") or not parts:
                        cod = self.ident_at()
                    else:
                        cod = parts.pop()
                    dom = tuple(self._sort(p, sorts.values()) for p in parts)
                    cod_sort = self._sort(cod, sorts.values())
                    symbols.extend(FunctionSymbol(n, dom, cod_sort)
                                   for n in names)
                    self.accept(",")
            elif section == "equations":
                sig = self._signature(tuple(sorts.values()), tuple(symbols))
                while not self.accept(";"):
                    equations.append(self.parse_forall_eq(sig, sorts.values()))
                    self.accept(",")
            else:
                self.fail(f"unknown theory section {section!r}")
        sig = AlgSignature(tuple(sorts.values()), tuple(symbols))
        ws.theories[name] = Presentation(sig, tuple(equations))
        ws.order.append(("theory", name))

    # - schemas -

    def parse_schema(self, ws: Workspace):
        name = self.expect_ident()
        self.expect("{")
        entities: list[Sort] = []
        edges: list[FunctionSymbol] = []
        attributes: list[FunctionSymbol] = []
        path_eqs: list[Equation] = []
        obs_eqs: list[Equation] = []
        while not self.accept("}"):
            section = self.expect_ident()
            if section == "entities":
                while not self.accept(";"):
                    entities.append(Sort(self.expect_ident()))
            elif section in ("edges", "attributes"):
                into = edges if section == "edges" else attributes
                while not self.accept(";"):
                    names = [self.expect_ident()]
                    while self.accept(","):
                        if self.peek_is_decl_name():
                            names.append(self.expect_ident())
                        else:
                            break
                    self.expect(":")
                    dom = self._sort(self.ident_at(), entities)
                    self.expect("->")
                    cod = self._sort(self.ident_at(), entities)
                    into.extend(FunctionSymbol(n, (dom,), cod) for n in names)
                    self.accept(",")
            elif section in ("path_eqs", "obs_eqs"):
                sig = self._signature(TYPE_SORTS + tuple(entities),
                                      TYPE_SYMBOLS + tuple(edges + attributes))
                into = path_eqs if section == "path_eqs" else obs_eqs
                while not self.accept(";"):
                    into.append(self.parse_forall_eq(sig, entities))
                    self.accept(",")
            else:
                self.fail(f"unknown schema section {section!r}")
        pres = SchemaPresentation(tuple(entities), tuple(edges),
                                  tuple(attributes), tuple(path_eqs),
                                  tuple(obs_eqs))
        ws.schemas[name] = compile_schema(pres)
        ws.order.append(("schema", name))

    # - instances -

    def parse_instance(self, ws: Workspace):
        name = self.expect_ident()
        self.expect_kw("on")
        schema = self._schema(ws)
        self.expect("{")
        bindings: list[tuple[str, Sort]] = []
        gens = Context(())
        equations: list[Equation] = []
        while not self.accept("}"):
            section = self.expect_ident()
            if section == "generators":
                bindings += self._binders(";", schema.entities)
            elif section == "equations":
                # rebuilt only after new generators: generated workspaces
                # have one equations section per row
                if len(gens.bindings) != len(bindings):
                    gens = Context(tuple(bindings))
                env = TermEnv(schema.collage_sig, gens)
                while not self.accept(";"):
                    equations.append(self._equation(env))
                    self.accept(",")
            else:
                self.fail(f"unknown instance section {section!r}")
        ws.instances[name] = InstancePresentation(
            schema, Context(tuple(bindings)), tuple(equations))
        ws.order.append(("instance", name))

    # - mappings -

    def parse_mapping(self, ws: Workspace):
        name = self.expect_ident()
        self.expect(":")
        src = self._schema(ws)
        self.expect("->")
        tgt = self._schema(ws)
        self.expect("{")
        entity_map: dict[Sort, Sort] = {}
        edge_map: dict[FunctionSymbol, Term] = {}
        attr_map: dict[FunctionSymbol, Term] = {}
        errors: dict[FunctionSymbol, KernelError | None] = {}
        while not self.accept("}"):
            section = self.expect_ident()
            if section == "entity":
                s_at = self.ident_at()
                self.expect("->")
                t_at = self.ident_at()
                e = self._sort(s_at, src.entities, types=False)
                entity_map[e] = self._sort(t_at, tgt.entities, types=False)
                self.expect(";")
            elif section in ("edge", "attribute"):
                n_at = self.ident_at()
                self.expect("->")
                syms = {f.name: f for f in (src.edges if section == "edge"
                                            else src.attributes)}
                if self.toks[n_at] not in syms:
                    self.fail(f"unknown {section} {self.toks[n_at]!r}", n_at)
                sym = syms[self.toks[n_at]]
                dom_img = entity_map.get(sym.dom[0])
                if dom_img is None:
                    self.fail(f"entity image of {sym.dom[0].name} must be "
                              f"declared before {sym.name}", n_at)
                context = Context((("x", dom_img),))
                env = TermEnv(tgt.collage_sig, context, implicit_x=True)
                term = self.parse_term(env)
                (edge_map if section == "edge" else attr_map)[sym] = term
                errors[sym] = env.errors.get(term)
                self.expect(";")
            else:
                self.fail(f"unknown mapping section {section!r}")
        ws.mappings[name] = SchemaMapping.make(src, tgt, entity_map,
                                               edge_map, attr_map, errors)
        ws.order.append(("mapping", name))

    # - bimodules -

    def parse_bimodule(self, ws: Workspace):
        name = self.expect_ident()
        self.expect(":")
        src = self._schema(ws)
        self.expect("->")
        dst = self._schema(ws)
        self.expect("{")
        gen_edges: list[FunctionSymbol] = []
        gen_attrs: list[FunctionSymbol] = []
        equations: list[Equation] = []
        while not self.accept("}"):
            section = self.expect_ident()
            if section in ("edges", "attributes"):
                # edges land on dst entities, attributes on type sorts
                edges = section == "edges"
                into = gen_edges if edges else gen_attrs
                cods = dst.entities if edges else ()
                while not self.accept(";"):
                    gen = self.expect_ident()
                    self.expect(":")
                    d_at = self.ident_at()
                    self.expect("->")
                    c_at = self.ident_at()
                    dom = self._sort(d_at, src.entities, types=False)
                    cod = self._sort(c_at, cods, types=not edges)
                    into.append(FunctionSymbol(gen, (dom,), cod))
                    self.accept(",")
            elif section == "equations":
                sig = self._signature(
                    TYPE_SORTS + src.entities + dst.entities,
                    TYPE_SYMBOLS + src.edges + dst.edges + tuple(gen_edges)
                    + src.attributes + dst.attributes + tuple(gen_attrs))
                sorts = src.entities + dst.entities
                while not self.accept(";"):
                    equations.append(self.parse_forall_eq(sig, sorts))
                    self.accept(",")
            else:
                self.fail(f"unknown bimodule section {section!r}")
        ws.bimodules[name] = BimodulePresentation(
            src, dst, tuple(gen_edges), tuple(gen_attrs), tuple(equations))
        ws.order.append(("bimodule", name))

    # - queries -

    def parse_query(self, ws: Workspace):
        name = self.expect_ident()
        self.expect_kw("on")
        schema = self._schema(ws)
        self.expect("{")
        env, where_eqs, returns, keys = self._block_body(schema)
        self.expect("}")
        if keys:
            self.fail("keys clauses require an uberquery", keys[0][0])
        ret_ctx = Context(tuple(
            (self.toks[n], self.check_equation(env, t, None, at))
            for n, at, t in returns))
        ws.queries[name] = Query(
            schema, env.context, tuple(where_eqs), ret_ctx,
            ContextMorphism.make(env.context, ret_ctx,
                                 {self.toks[n]: t for n, _, t in returns}))
        ws.order.append(("query", name))

    def _block_body(self, schema: Schema):
        """The FOR, WHERE, RETURN and KEYS sections of a block.  Returns and
        key assignments keep the token indices of their name and of the
        first token of their term, for the checks the caller makes."""
        env = TermEnv(schema.collage_sig, Context(()))
        where_eqs: list[Equation] = []
        returns: list[tuple[int, int, Term]] = []
        keys: list[tuple[int, int, list]] = []
        while not self.at("}"):
            section = self.expect_ident()
            if section == "for":
                if env.context.bindings:  # terms may have been sorted in it
                    self.fail("a block has one for section")
                env = TermEnv(schema.collage_sig, Context(tuple(
                    self._binders(";", schema.entities))))
            elif section == "where":
                while not self.accept(";"):
                    where_eqs.append(self._equation(env))
                    self.accept(",")
            elif section == "return":
                while not self.accept(";"):
                    n = self.ident_at()
                    self.expect(":=")
                    returns.append((n, self.pos, self.parse_term(env)))
                    self.accept(",")
            elif section == "keys":
                while not self.accept(";"):
                    f_at = self.ident_at()
                    self.expect(":=")
                    b_at = self.ident_at()
                    self.expect("[")
                    assigns = []
                    while not self.accept("]"):
                        v = self.ident_at()
                        self.expect(":=")
                        assigns.append((v, self.pos, self.parse_term(env)))
                        self.accept(",")
                    keys.append((f_at, b_at, assigns))
                    self.accept(",")
            else:
                self.fail(f"unknown query section {section!r}")
        return env, where_eqs, returns, keys

    def parse_uberquery(self, ws: Workspace):
        name = self.expect_ident()
        self.expect_kw("on")
        schema = self._schema(ws)
        self.expect("->")
        result = self._schema(ws)
        self.expect("{")
        raw_blocks = {}
        while not self.accept("}"):
            self.expect_kw("entity")
            e_at = self.ident_at()
            e = self._sort(e_at, result.entities, types=False)
            self.expect("{")
            raw_blocks[e] = (e_at, *self._block_body(schema))
            self.expect("}")
        toks, blocks = self.toks, []
        for e, (e_at, env, where_eqs, returns, keys) in raw_blocks.items():
            attrs = {a.name: a for a in result.attrs_from(e)}
            rets = []
            for n, at, t in returns:
                if toks[n] not in attrs:
                    self.fail(f"unknown result attribute {toks[n]!r}", e_at)
                self.check_equation(env, t, attrs[toks[n]].cod, at)
                rets.append((attrs[toks[n]], t))
            edges = {f.name: f for f in result.edges_from(e)}
            key_list = []
            for f_at, b_at, assigns in keys:
                if toks[f_at] not in edges:
                    self.fail(f"unknown result edge {toks[f_at]!r}", f_at)
                f = edges[toks[f_at]]
                if toks[b_at] != f.cod.name:
                    self.fail(f"keys {f.name} names {toks[b_at]}, not its "
                              f"target {f.cod.name}", b_at)
                if f.cod not in raw_blocks:
                    self.fail(f"no block for result entity {f.cod.name}",
                              b_at)
                cod_ctx = raw_blocks[f.cod][1].context
                assignment = {}
                for v, at, t in assigns:
                    if toks[v] not in cod_ctx:
                        self.fail(f"block {f.cod.name} has no FOR variable "
                                  f"{toks[v]!r}", v)
                    self.check_equation(env, t, cod_ctx.sort_of(toks[v]), at)
                    assignment[toks[v]] = t
                missing = [n for n in cod_ctx.names() if n not in assignment]
                if missing:
                    self.fail(f"keys {f.name} must assign "
                              f"{', '.join(missing)}", b_at)
                key_list.append((f, ContextMorphism.make(
                    env.context, cod_ctx, assignment)))
            blocks.append((e, UberBlock(env.context, tuple(where_eqs),
                                        tuple(key_list), tuple(rets))))
        ws.uberqueries[name] = UberQuery(schema, result, tuple(blocks))
        ws.order.append(("uberquery", name))

    # - terms -

    def parse_term(self, env: "TermEnv", prec: int = 0) -> Term:
        """Precedence climbing over the operators of `_INFIX` that bind at
        least as tightly as `prec`; `*` only where `env.times()` exists."""
        t = (env.app(NEG, (self.parse_term(env, 3),), False)
             if self.accept("-")
             else self._postfix(env))  # binding power 3: a unary term
        while True:
            op = self.toks[self.pos]
            p = _INFIX.get(op, -1)
            if p < prec or op == "*" and (times := env.times()) is None:
                return t
            self.pos += 1
            u = self.parse_term(env, p + 1)
            if op == "<=":  # non-associative
                return env.app(LE, (t, u), False)
            t = (env.app(times, (t, u), False) if op == "*"
                 else env.app(PLUS, (t, u if op == "+"
                                     else env.app(NEG, (u,), False)), False))

    def _postfix(self, env) -> Term:
        t = self._primary(env)
        toks = self.toks
        while toks[self.pos] == "." and toks[self.pos + 1][:1] in _NAME_START:
            self.pos += 2
            t = self._apply(env, self.pos - 1, (t,))
        return t

    def _apply(self, env, at: int, args: tuple[Term, ...]) -> App:
        """The symbol token `at` names, of the arity of `args`, applied to
        them."""
        sym = env.lookup(self.toks[at], len(args))
        if sym is None:
            self.fail(f"unknown symbol {self.toks[at]!r}", at)
        return env.app(sym, args)

    def _primary(self, env) -> Term:
        t = self.next()
        if t[:1] in _NAME_START:
            if t in ("true", "false"):
                return env.app(TRUE if t == "true" else FALSE, (), False)
            if self.accept("("):
                at, args = self.pos - 2, []
                while not self.accept(")"):
                    args.append(self.parse_term(env))
                    self.accept(",")
                return self._apply(env, at, tuple(args))
            return env.atom(t) or self.fail(f"unknown name {t!r}")
        if t == "(":
            out = self.parse_term(env)
            self.expect(")")
            return out
        if t.isdigit():
            try:
                n = int(t)
            except ValueError:  # over the digit limit of int(str)
                self.fail(f"integer literal of {len(t)} digits exceeds the "
                          f"limit of {sys.get_int_max_str_digits()} digits")
            return env.int_term(n) or self.fail(f"no constant named {n}")
        if t.startswith('"'):
            try:
                return env.app(str_literal(t[1:-1].replace('\\"', '"')
                               .replace("\\\\", "\\")).symbol, (), False)
            except ValueError as exc:
                self.fail(str(exc))
        self.fail(f"unexpected {t!r} in term")


class TermEnv:
    """Name resolution for term parsing, and the sorts of the terms built:
    context variables, symbols, and (for mapping images) paths from x."""

    def __init__(self, sig: AlgSignature, context: Context,
                 implicit_x: bool = False):
        self.sig = sig
        self.context = context
        self.implicit_x = implicit_x
        self.errors: dict[Term, KernelError] = {}  # ill-sorted terms built

    def sort(self, t: Term) -> Sort:
        """The sort of `t`, a term built here, or its recorded error."""
        if t in self.errors:
            raise self.errors[t]
        return t.symbol.cod if type(t) is App else self.context.sort_of(t.name)

    def app(self, sym: FunctionSymbol, args: tuple[Term, ...] = (),
            known: bool = True) -> App:
        """`App(sym, args)` and the first error a walk would meet in it: an
        unknown symbol (unless `known`), else an argument's error or sort."""
        t = App(sym, args)
        try:
            if not (known or self.sig.has_symbol(sym)):
                raise UnknownSymbol(f"{sym.name} in {render_term(t)}")
            for a, want in zip(args, sym.dom):
                if (got := self.sort(a)) is not want:
                    raise AritySortMismatch(
                        f"argument {render_term(a)} of {sym.name} has sort "
                        f"{got.name}, expected {want.name}")
        except KernelError as exc:
            self.errors[t] = exc
        return t

    def lookup(self, name: str, arity: int):
        sym = self.sig.symbols.get(name)
        if sym is not None and len(sym.dom) == arity:
            return sym
        return None

    def times(self):
        """`*`: the signature's own binary symbol, else Int multiplication."""
        return self.lookup("*", 2) or (TIMES if "Int" in self.sig.sorts
                                       else None)

    def int_term(self, n: int) -> Term | None:
        if "Int" in self.sig.sorts:
            return int_term(n)
        sym = self.lookup(str(n), 0)
        return None if sym is None else App(sym)

    def atom(self, name: str) -> Term | None:
        if name in self.context:
            return Var(name)
        sym = self.lookup(name, 0)
        if sym is not None:
            return App(sym)
        if self.implicit_x:
            sym = self.lookup(name, 1)
            if sym is not None:
                return self.app(sym, (Var("x"),))
        return None


def parse_workspace(text: str, filename: str = "<input>") -> Workspace:
    return Parser(text, filename).parse_workspace()


# --- pretty printer -----------------------------------------------------


def render_dsl_term(t: Term) -> str:
    """Print a term in the surface syntax the parser accepts."""
    return _rdt(t, 0)


def _rdt(t: Term, prec: int) -> str:
    if isinstance(t, Var):
        return t.name
    sym = t.symbol
    if sym.arity == 0:
        return sym.name
    if sym.name == "<=" and sym.arity == 2:
        return f"({_rdt(t.args[0], 1)} <= {_rdt(t.args[1], 1)})"
    if sym.name == "+" and sym.arity == 2:
        a, b = t.args
        if isinstance(b, App) and b.symbol.name == "-" and b.symbol.arity == 1:
            inner = f"{_rdt(a, 1)} - {_rdt(b.args[0], 2)}"
        else:
            inner = f"{_rdt(a, 1)} + {_rdt(b, 2)}"
        return f"({inner})" if prec > 1 else inner
    if sym.name == "*" and sym.arity == 2:
        inner = f"{_rdt(t.args[0], 2)} * {_rdt(t.args[1], 3)}"
        return f"({inner})" if prec > 2 else inner
    if sym.name == "-" and sym.arity == 1:
        return f"-{_rdt(t.args[0], 3)}"
    if sym.arity == 1:
        return f"{_rdt(t.args[0], 3)}.{sym.name}"
    inner = ", ".join(_rdt(a, 0) for a in t.args)
    return f"{sym.name}({inner})"


def _render_eq(eq: Equation) -> str:
    binds = ", ".join(f"{n}:{s.name}" for n, s in eq.context.bindings)
    return (f"forall {binds} . {render_dsl_term(eq.lhs)} = "
            f"{render_dsl_term(eq.rhs)}")


def render_workspace(ws: Workspace) -> str:
    out = []
    for kind, name in ws.order:
        if kind == "theory":
            out.append(_render_theory(name, ws.theories[name]))
        elif kind == "schema":
            out.append(_render_schema(name, ws.schemas[name]))
        elif kind == "instance":
            out.append(_render_instance(name, ws))
        elif kind == "mapping":
            out.append(_render_mapping(name, ws))
        elif kind == "query":
            out.append(_render_query(name, ws))
        elif kind == "uberquery":
            out.append(_render_uberquery(name, ws))
        elif kind == "bimodule":
            out.append(_render_bimodule(name, ws))
    return "\n\n".join(out) + "\n"


def _render_theory(name: str, th: Presentation) -> str:
    lines = [f"theory {name} {{"]
    lines.append("  sorts " + " ".join(th.signature.sorts) + ";")
    for sym in th.signature.symbols.values():
        dom = " ".join(s.name for s in sym.dom)
        arrow = f"{dom} -> {sym.cod.name}" if sym.dom else sym.cod.name
        lines.append(f"  symbols {sym.name} : {arrow};")
    for eq in th.equations:
        lines.append(f"  equations {_render_eq(eq)};")
    lines.append("}")
    return "\n".join(lines)


def _render_schema(name: str, s: Schema) -> str:
    p = s.presentation
    lines = [f"schema {name} {{"]
    lines.append("  entities " + " ".join(e.name for e in p.entities) + ";")
    for f in p.edges:
        lines.append(f"  edges {f.name} : {f.dom[0].name} -> {f.cod.name};")
    for a in p.attributes:
        lines.append(f"  attributes {a.name} : {a.dom[0].name} -> "
                     f"{a.cod.name};")
    for eq in p.path_eqs:
        lines.append(f"  path_eqs {_render_eq(eq)};")
    for eq in p.obs_eqs:
        lines.append(f"  obs_eqs {_render_eq(eq)};")
    lines.append("}")
    return "\n".join(lines)


def _render_instance(name: str, ws: Workspace) -> str:
    ip = ws.instances[name]
    lines = [f"instance {name} on {ws.schema_name(ip.schema)} {{"]
    for n, s in ip.generators.bindings:
        lines.append(f"  generators {n} : {s.name};")
    for eq in ip.equations:
        lines.append(f"  equations {render_dsl_term(eq.lhs)} = "
                     f"{render_dsl_term(eq.rhs)};")
    lines.append("}")
    return "\n".join(lines)


def _render_mapping(name: str, ws: Workspace) -> str:
    F = ws.mappings[name]
    lines = [f"mapping {name} : {ws.schema_name(F.source)} -> "
             f"{ws.schema_name(F.target)} {{"]
    for a, b in F.entity_map:
        lines.append(f"  entity {a.name} -> {b.name};")
    for f, t in F.edge_map:
        lines.append(f"  edge {f.name} -> {render_dsl_term(t)};")
    for a, t in F.attr_map:
        lines.append(f"  attribute {a.name} -> {render_dsl_term(t)};")
    lines.append("}")
    return "\n".join(lines)


def _render_query(name: str, ws: Workspace) -> str:
    Q = ws.queries[name]
    lines = [f"query {name} on {ws.schema_name(Q.schema)} {{"]
    lines.append("  for " + ", ".join(f"{n}:{s.name}"
                                      for n, s in Q.for_ctx.bindings) + ";")
    if Q.where_eqs:
        lines.append("  where " + ", ".join(
            f"{render_dsl_term(eq.lhs)} = {render_dsl_term(eq.rhs)}"
            for eq in Q.where_eqs) + ";")
    if Q.return_ctx.bindings:
        lines.append("  return " + ", ".join(
            f"{n} := {render_dsl_term(Q.return_morph(n))}"
            for n, _ in Q.return_ctx.bindings) + ";")
    lines.append("}")
    return "\n".join(lines)


def _render_uberquery(name: str, ws: Workspace) -> str:
    N = ws.uberqueries[name]
    lines = [f"uberquery {name} on {ws.schema_name(N.schema)} -> "
             f"{ws.schema_name(N.result_schema)} {{"]
    for e, b in N.blocks:
        lines.append(f"  entity {e.name} {{")
        lines.append("    for " + ", ".join(
            f"{n}:{s.name}" for n, s in b.for_ctx.bindings) + ";")
        if b.where_eqs:
            lines.append("    where " + ", ".join(
                f"{render_dsl_term(eq.lhs)} = {render_dsl_term(eq.rhs)}"
                for eq in b.where_eqs) + ";")
        for f, m in b.keys:
            assigns = ", ".join(f"{n} := {render_dsl_term(t)}"
                                for n, t in m.assignment)
            lines.append(f"    keys {f.name} := {f.cod.name}[{assigns}];")
        if b.returns:
            lines.append("    return " + ", ".join(
                f"{a.name} := {render_dsl_term(t)}" for a, t in b.returns) + ";")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def _render_bimodule(name: str, ws: Workspace) -> str:
    M = ws.bimodules[name]
    lines = [f"bimodule {name} : {ws.schema_name(M.src)} -> "
             f"{ws.schema_name(M.dst)} {{"]
    for g in M.gen_edges:
        lines.append(f"  edges {g.name} : {g.dom[0].name} -> {g.cod.name};")
    for a in M.gen_attrs:
        lines.append(f"  attributes {a.name} : {a.dom[0].name} -> "
                     f"{a.cod.name};")
    for eq in M.equations:
        lines.append(f"  equations {_render_eq(eq)};")
    lines.append("}")
    return "\n".join(lines)
