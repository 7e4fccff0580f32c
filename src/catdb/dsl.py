"""Text DSL for theories, schemas, instances, mappings, bimodules,
queries and uber-queries (.cdb files).

Every parse and check error carries a file:line:column span.  The
grammar uses explicit `forall x:A .` binders for equations; terms use
postfix paths (x.f.g), infix `* + - <=`, function application, integer
and string literals, and `true`/`false`.  A term is sorted as it is built,
an attribute grammar after Knuth (1968): each node in O(arity), no walk.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

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

_TOKEN_RE = re.compile(r"""
    [^\S\n]*(?://[^\n]*)?           # blanks and a comment before the token
    (?:(?P<ident>[A-Za-z_][A-Za-z0-9_']*'*|\*(?![/)]))
     | (?P<op><=|->|:=|[{}();:,.=+\-\[\]|])
     | (?P<nl>\n\s*)
     | (?P<int>\d+)
     | (?P<string>"(?:[^"\\]|\\.)*")
     | (?P<eof>\Z)
     | (?P<error>.))
""", re.VERBOSE)


class Token(NamedTuple):
    kind: str  # ident | int | string | op | eof
    text: str
    file: str
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.file, self.line, self.column)


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    """One pass: a match is a token and the blanks and comment before it."""
    out, new = [], tuple.__new__  # a Token without its Python-level __new__
    line, start = 1, 0  # start: offset of the current line
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok, i = m[kind], m.start(kind)
        if kind == "error":
            raise DslError(f"unexpected character {tok!r}",
                           SourceSpan(filename, line, i - start + 1))
        if kind != "nl":
            out.append(new(Token, (kind, tok, filename, line, i - start + 1)))
            if kind == "eof":  # finditer may match the empty end twice
                return out
            if kind != "string" or "\n" not in tok:
                continue
        line += tok.count("\n")
        start = text.rfind("\n", i, m.end()) + 1


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


def check_equation(env: "TermEnv", lhs: Term, rhs: Term | Sort | None,
                   at: Token) -> Sort:
    """The sort of `lhs`, a term `env` built.  `rhs` is the other side of
    an equation or a wanted sort; a different sort, or an ill-sorted
    subterm of either side, raises DslError at token `at`."""
    try:
        ls = env.sort(lhs)
        rs = rhs if rhs is None or isinstance(rhs, Sort) else env.sort(rhs)
    except KernelError as exc:
        raise DslError(str(exc), at.span) from exc
    if rs is None or ls is rs:
        return ls
    if rs is rhs:  # a wanted sort
        raise DslError(f"{render_dsl_term(lhs)} has sort {ls.name}, "
                       f"expected {rs.name}", at.span)
    raise DslError(f"equation sides have sorts {ls.name} and {rs.name}",
                   at.span)


class Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0

    # - token plumbing -

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise DslError(f"expected {text!r}, found {t.text!r}", t.span)
        return t

    def expect_ident(self) -> Token:
        t = self.next()
        if t.kind != "ident":
            raise DslError(f"expected a name, found {t.text!r}", t.span)
        return t

    def expect_kw(self, kw: str):
        t = self.expect_ident()
        if t.text != kw:
            raise DslError(f"expected {kw!r}, found {t.text!r}", t.span)

    def at(self, text: str) -> bool:
        return self.toks[self.pos].text == text

    def accept(self, text: str) -> bool:
        if self.toks[self.pos].text == text:
            self.pos += 1
            return True
        return False

    def peek_is_decl_name(self) -> bool:
        return (self.peek().kind == "ident"
                and self.toks[self.pos + 1].text in (",", ":"))

    # - top level -

    def parse_workspace(self) -> Workspace:
        ws = Workspace()
        while self.peek().kind != "eof":
            kw = self.expect_ident()
            if kw.text in _DECLARATIONS:
                getattr(self, f"parse_{kw.text}")(ws)
            elif kw.text == "typeside":
                raise DslError(
                    "the typeside is built in; `typeside` declarations are "
                    "reserved", kw.span)
            else:
                raise DslError(f"unknown declaration {kw.text!r}", kw.span)
        return ws

    # - shared pieces -

    def _sort(self, tok: Token, sorts, types: bool = True) -> Sort:
        """The sort `tok` names among `sorts`, then, when `types`, among the
        built-in type sorts.  Without them `tok` must name an entity."""
        for s in sorts:
            if s.name == tok.text:
                return s
        if types and tok.text in BUILTIN_SORTS:
            return BUILTIN_SORTS[tok.text]
        raise DslError(f"unknown {'sort' if types else 'entity'} "
                       f"{tok.text!r}", tok.span)

    def _binders(self, end: str, sorts) -> list[tuple[str, Sort]]:
        """`x y : A, z : B` up to `end`: forall binders, generators, for."""
        out = []
        while not self.accept(end):
            names = [self.expect_ident()]
            while not self.at(":"):
                names.append(self.expect_ident())
            self.expect(":")
            s = self._sort(self.expect_ident(), sorts)
            out.extend((n.text, s) for n in names)
            self.accept(",")
        return out

    def _equation(self, env: "TermEnv") -> Equation:
        lhs = self.parse_term(env)
        eqt = self.expect("=")
        rhs = self.parse_term(env)
        return Equation(env.context, lhs, rhs,
                        check_equation(env, lhs, rhs, eqt))

    def parse_forall_eq(self, sig: AlgSignature, sorts) -> Equation:
        self.expect_kw("forall")
        context = Context(tuple(self._binders(".", sorts)))
        return self._equation(TermEnv(sig, context))

    def _schema(self, ws: Workspace, tok: Token) -> Schema:
        if tok.text not in ws.schemas:
            raise DslError(f"unknown schema {tok.text!r}", tok.span)
        return ws.schemas[tok.text]

    # - theories -

    def parse_theory(self, ws: Workspace):
        name = self.expect_ident()
        self.expect("{")
        sorts: dict[str, Sort] = {}
        symbols: list[FunctionSymbol] = []
        equations: list[Equation] = []
        while not self.accept("}"):
            section = self.expect_ident()
            if section.text == "sorts":
                while not self.accept(";"):
                    s = self.expect_ident()
                    sorts[s.text] = Sort(s.text)
            elif section.text in ("constants", "symbols"):
                # name [name...] : S1 ... Sn -> S  |  name : S
                while not self.accept(";"):
                    names = [self.next()]
                    while not self.at(":"):
                        names.append(self.next())
                    self.expect(":")
                    parts = []
                    while not self.at("->") and not self.at(";") \
                            and not self.at(","):
                        parts.append(self.expect_ident())
                    if self.accept("->") or not parts:
                        cod = self.expect_ident()
                    else:
                        cod = parts.pop()
                    dom = tuple(self._sort(p, sorts.values()) for p in parts)
                    cod_sort = self._sort(cod, sorts.values())
                    symbols.extend(FunctionSymbol(n.text, dom, cod_sort)
                                   for n in names)
                    self.accept(",")
            elif section.text == "equations":
                sig = AlgSignature(tuple(sorts.values()), tuple(symbols))
                while not self.accept(";"):
                    equations.append(self.parse_forall_eq(sig, sorts.values()))
                    self.accept(",")
            else:
                raise DslError(f"unknown theory section {section.text!r}",
                               section.span)
        sig = AlgSignature(tuple(sorts.values()), tuple(symbols))
        ws.theories[name.text] = Presentation(sig, tuple(equations))
        ws.order.append(("theory", name.text))

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
            if section.text == "entities":
                while not self.accept(";"):
                    entities.append(Sort(self.expect_ident().text))
            elif section.text in ("edges", "attributes"):
                into = edges if section.text == "edges" else attributes
                while not self.accept(";"):
                    names = [self.expect_ident()]
                    while self.accept(","):
                        if self.peek_is_decl_name():
                            names.append(self.expect_ident())
                        else:
                            break
                    self.expect(":")
                    dom = self._sort(self.expect_ident(), entities)
                    self.expect("->")
                    cod = self._sort(self.expect_ident(), entities)
                    into.extend(FunctionSymbol(n.text, (dom,), cod)
                                for n in names)
                    self.accept(",")
            elif section.text in ("path_eqs", "obs_eqs"):
                sig = AlgSignature(TYPE_SORTS + tuple(entities),
                                   TYPE_SYMBOLS + tuple(edges + attributes))
                into = path_eqs if section.text == "path_eqs" else obs_eqs
                while not self.accept(";"):
                    into.append(self.parse_forall_eq(sig, entities))
                    self.accept(",")
            else:
                raise DslError(f"unknown schema section {section.text!r}",
                               section.span)
        pres = SchemaPresentation(tuple(entities), tuple(edges),
                                  tuple(attributes), tuple(path_eqs),
                                  tuple(obs_eqs))
        ws.schemas[name.text] = compile_schema(pres)
        ws.order.append(("schema", name.text))

    # - instances -

    def parse_instance(self, ws: Workspace):
        name = self.expect_ident()
        self.expect_kw("on")
        schema = self._schema(ws, self.expect_ident())
        self.expect("{")
        bindings: list[tuple[str, Sort]] = []
        gens = Context(())
        equations: list[Equation] = []
        while not self.accept("}"):
            section = self.expect_ident()
            if section.text == "generators":
                bindings += self._binders(";", schema.entities)
            elif section.text == "equations":
                # rebuilt only after new generators: generated workspaces
                # have one equations section per row
                if len(gens.bindings) != len(bindings):
                    gens = Context(tuple(bindings))
                env = TermEnv(schema.collage_sig, gens)
                while not self.accept(";"):
                    equations.append(self._equation(env))
                    self.accept(",")
            else:
                raise DslError(f"unknown instance section {section.text!r}",
                               section.span)
        ws.instances[name.text] = InstancePresentation(
            schema, Context(tuple(bindings)), tuple(equations))
        ws.order.append(("instance", name.text))

    # - mappings -

    def parse_mapping(self, ws: Workspace):
        name = self.expect_ident()
        self.expect(":")
        src = self._schema(ws, self.expect_ident())
        self.expect("->")
        tgt = self._schema(ws, self.expect_ident())
        self.expect("{")
        entity_map: dict[Sort, Sort] = {}
        edge_map: dict[FunctionSymbol, Term] = {}
        attr_map: dict[FunctionSymbol, Term] = {}
        errors: dict[FunctionSymbol, KernelError | None] = {}
        while not self.accept("}"):
            section = self.expect_ident()
            if section.text == "entity":
                stok = self.expect_ident()
                self.expect("->")
                ttok = self.expect_ident()
                e = self._sort(stok, src.entities, types=False)
                entity_map[e] = self._sort(ttok, tgt.entities, types=False)
                self.expect(";")
            elif section.text in ("edge", "attribute"):
                ntok = self.expect_ident()
                self.expect("->")
                syms = {f.name: f for f in (src.edges if section.text == "edge"
                                            else src.attributes)}
                if ntok.text not in syms:
                    raise DslError(f"unknown {section.text} {ntok.text!r}",
                                   ntok.span)
                sym = syms[ntok.text]
                dom_img = entity_map.get(sym.dom[0])
                if dom_img is None:
                    raise DslError(
                        f"entity image of {sym.dom[0].name} must be declared "
                        f"before {ntok.text}", ntok.span)
                context = Context((("x", dom_img),))
                env = TermEnv(tgt.collage_sig, context, implicit_x=True)
                term = self.parse_term(env)
                (edge_map if section.text == "edge" else attr_map)[sym] = term
                errors[sym] = env.errors.get(term)
                self.expect(";")
            else:
                raise DslError(f"unknown mapping section {section.text!r}",
                               section.span)
        ws.mappings[name.text] = SchemaMapping.make(src, tgt, entity_map,
                                                    edge_map, attr_map, errors)
        ws.order.append(("mapping", name.text))

    # - bimodules -

    def parse_bimodule(self, ws: Workspace):
        name = self.expect_ident()
        self.expect(":")
        src = self._schema(ws, self.expect_ident())
        self.expect("->")
        dst = self._schema(ws, self.expect_ident())
        self.expect("{")
        gen_edges: list[FunctionSymbol] = []
        gen_attrs: list[FunctionSymbol] = []
        equations: list[Equation] = []
        while not self.accept("}"):
            section = self.expect_ident()
            if section.text in ("edges", "attributes"):
                # edges land on dst entities, attributes on type sorts
                edges = section.text == "edges"
                into = gen_edges if edges else gen_attrs
                cods = dst.entities if edges else ()
                while not self.accept(";"):
                    ntok = self.expect_ident()
                    self.expect(":")
                    dtok = self.expect_ident()
                    self.expect("->")
                    ctok = self.expect_ident()
                    dom = self._sort(dtok, src.entities, types=False)
                    cod = self._sort(ctok, cods, types=not edges)
                    into.append(FunctionSymbol(ntok.text, (dom,), cod))
                    self.accept(",")
            elif section.text == "equations":
                sig = AlgSignature(
                    TYPE_SORTS + src.entities + dst.entities,
                    TYPE_SYMBOLS + src.edges + dst.edges + tuple(gen_edges)
                    + src.attributes + dst.attributes + tuple(gen_attrs))
                sorts = src.entities + dst.entities
                while not self.accept(";"):
                    equations.append(self.parse_forall_eq(sig, sorts))
                while self.at("forall"):
                    equations.append(self.parse_forall_eq(sig, sorts))
                    self.expect(";")
            else:
                raise DslError(f"unknown bimodule section {section.text!r}",
                               section.span)
        ws.bimodules[name.text] = BimodulePresentation(
            src, dst, tuple(gen_edges), tuple(gen_attrs), tuple(equations))
        ws.order.append(("bimodule", name.text))

    # - queries -

    def parse_query(self, ws: Workspace):
        name = self.expect_ident()
        self.expect_kw("on")
        schema = self._schema(ws, self.expect_ident())
        self.expect("{")
        env, where_eqs, returns, keys = self._block_body(schema)
        self.expect("}")
        if keys:
            raise DslError("keys clauses require an uberquery",
                           keys[0][0].span)
        ret_ctx = Context(tuple(
            (n.text, check_equation(env, t, None, ttok))
            for n, ttok, t in returns))
        ws.queries[name.text] = Query(
            schema, env.context, tuple(where_eqs), ret_ctx,
            ContextMorphism.make(env.context, ret_ctx,
                                 {n.text: t for n, _, t in returns}))
        ws.order.append(("query", name.text))

    def _block_body(self, schema: Schema):
        """The FOR, WHERE, RETURN and KEYS sections of a block.  Returns and
        key assignments keep their name token and the first token of
        their term, for the checks the caller makes."""
        env = TermEnv(schema.collage_sig, Context(()))
        where_eqs: list[Equation] = []
        returns: list[tuple[Token, Token, Term]] = []
        keys: list[tuple[Token, Token, list]] = []
        while not self.at("}"):
            section = self.expect_ident()
            if section.text == "for":
                if env.context.bindings:  # terms may have been sorted in it
                    raise DslError("a block has one for section", section.span)
                env = TermEnv(schema.collage_sig, Context(tuple(
                    self._binders(";", schema.entities))))
            elif section.text == "where":
                while not self.accept(";"):
                    where_eqs.append(self._equation(env))
                    self.accept(",")
            elif section.text == "return":
                while not self.accept(";"):
                    n = self.expect_ident()
                    self.expect(":=")
                    returns.append((n, self.peek(), self.parse_term(env)))
                    self.accept(",")
            elif section.text == "keys":
                while not self.accept(";"):
                    ftok = self.expect_ident()
                    self.expect(":=")
                    btok = self.expect_ident()
                    self.expect("[")
                    assigns = []
                    while not self.accept("]"):
                        v = self.expect_ident()
                        self.expect(":=")
                        assigns.append((v, self.peek(), self.parse_term(env)))
                        self.accept(",")
                    keys.append((ftok, btok, assigns))
                    self.accept(",")
            else:
                raise DslError(f"unknown query section {section.text!r}",
                               section.span)
        return env, where_eqs, returns, keys

    def parse_uberquery(self, ws: Workspace):
        name = self.expect_ident()
        self.expect_kw("on")
        schema = self._schema(ws, self.expect_ident())
        self.expect("->")
        result = self._schema(ws, self.expect_ident())
        self.expect("{")
        raw_blocks = {}
        while not self.accept("}"):
            self.expect_kw("entity")
            etok = self.expect_ident()
            e = self._sort(etok, result.entities, types=False)
            self.expect("{")
            raw_blocks[e] = (etok, *self._block_body(schema))
            self.expect("}")
        blocks = []
        for e, (etok, env, where_eqs, returns, keys) in raw_blocks.items():
            attrs = {a.name: a for a in result.attrs_from(e)}
            rets = []
            for n, ttok, t in returns:
                if n.text not in attrs:
                    raise DslError(f"unknown result attribute {n.text!r}",
                                   etok.span)
                check_equation(env, t, attrs[n.text].cod, ttok)
                rets.append((attrs[n.text], t))
            edges = {f.name: f for f in result.edges_from(e)}
            key_list = []
            for ftok, btok, assigns in keys:
                if ftok.text not in edges:
                    raise DslError(f"unknown result edge {ftok.text!r}",
                                   ftok.span)
                f = edges[ftok.text]
                if btok.text != f.cod.name:
                    raise DslError(f"keys {f.name} names {btok.text}, not "
                                   f"its target {f.cod.name}", btok.span)
                if f.cod not in raw_blocks:
                    raise DslError(f"no block for result entity "
                                   f"{f.cod.name}", btok.span)
                cod_ctx = raw_blocks[f.cod][1].context
                assignment = {}
                for v, ttok, t in assigns:
                    if v.text not in cod_ctx:
                        raise DslError(f"block {f.cod.name} has no FOR "
                                       f"variable {v.text!r}", v.span)
                    check_equation(env, t, cod_ctx.sort_of(v.text), ttok)
                    assignment[v.text] = t
                missing = [n for n in cod_ctx.names() if n not in assignment]
                if missing:
                    raise DslError(f"keys {f.name} must assign "
                                   f"{', '.join(missing)}", btok.span)
                key_list.append((f, ContextMorphism.make(
                    env.context, cod_ctx, assignment)))
            blocks.append((e, UberBlock(env.context, tuple(where_eqs),
                                        tuple(key_list), tuple(rets))))
        ws.uberqueries[name.text] = UberQuery(schema, result, tuple(blocks))
        ws.order.append(("uberquery", name.text))

    # - terms -

    def parse_term(self, env: "TermEnv", prec: int = 0) -> Term:
        """Precedence climbing over the operators of `_INFIX` that bind at
        least as tightly as `prec`; `*` only where `env.times()` exists."""
        t = (env.app(NEG, (self.parse_term(env, 3),), False)
             if self.accept("-")
             else self._postfix(env))  # binding power 3: a unary term
        while True:
            op = self.toks[self.pos].text
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
        while self.at(".") and self.toks[self.pos + 1].kind == "ident":
            self.pos += 2
            t = env.apply(self.toks[self.pos - 1], (t,))
        return t

    def _primary(self, env) -> Term:
        t = self.next()
        if t.text == "(":
            out = self.parse_term(env)
            self.expect(")")
            return out
        if t.kind == "int":
            return env.int_term(int(t.text), t)
        if t.kind == "string":
            try:
                return env.app(str_literal(t.text[1:-1].replace('\\"', '"')
                               .replace("\\\\", "\\")).symbol, (), False)
            except ValueError as exc:
                raise DslError(str(exc), t.span) from None
        if t.kind != "ident":
            raise DslError(f"unexpected {t.text!r} in term", t.span)
        if t.text in ("true", "false"):
            return env.app(TRUE if t.text == "true" else FALSE, (), False)
        if self.accept("("):
            args = []
            while not self.accept(")"):
                args.append(self.parse_term(env))
                self.accept(",")
            return env.apply(t, tuple(args))
        return env.atom(t)


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

    def apply(self, tok: Token, args: tuple[Term, ...]) -> App:
        """The symbol `tok` names, of the arity of `args`, applied to them."""
        sym = self.lookup(tok.text, len(args))
        if sym is None:
            raise DslError(f"unknown symbol {tok.text!r}", tok.span)
        return self.app(sym, args)

    def lookup(self, name: str, arity: int):
        sym = self.sig.symbols.get(name)
        if sym is not None and len(sym.dom) == arity:
            return sym
        return None

    def times(self):
        """`*`: the signature's own binary symbol, else Int multiplication."""
        return self.lookup("*", 2) or (TIMES if "Int" in self.sig.sorts
                                       else None)

    def int_term(self, n: int, tok: Token) -> Term:
        if "Int" in self.sig.sorts:
            return int_term(n)
        sym = self.lookup(str(n), 0)
        if sym is not None:
            return App(sym)
        raise DslError(f"no constant named {n}", tok.span)

    def atom(self, tok: Token) -> Term:
        if tok.text in self.context:
            return Var(tok.text)
        sym = self.lookup(tok.text, 0)
        if sym is not None:
            return App(sym)
        if self.implicit_x:
            sym = self.lookup(tok.text, 1)
            if sym is not None:
                return self.app(sym, (Var("x"),))
        raise DslError(f"unknown name {tok.text!r}", tok.span)


def parse_workspace(text: str, filename: str = "<input>") -> Workspace:
    return Parser(tokenize(text, filename)).parse_workspace()


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
