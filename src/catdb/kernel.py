"""Multi-sorted term syntax: signatures, contexts, terms, substitution.

Everything downstream (rewriting, schemas, instances, migration) is built
from the values defined here.  All values are immutable and hashable, and
sorts, symbols and terms are hash-consed through weak tables: an equal live
value is the same object, so `==` and `hash` are `object`'s, O(1) in C.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from typing import Iterator
from weakref import ref


class KernelError(Exception):
    pass


class UnknownVariable(KernelError):
    pass


class UnknownSymbol(KernelError):
    pass


class AritySortMismatch(KernelError):
    pass


class SortMismatch(KernelError):
    pass


class ContextMismatch(KernelError):
    pass


class _Table(dict):
    """Fields -> weak reference to the live value with those fields."""

    limit = 1024  # sweep when the table reaches this size

    def make(self, key, cls, *values):
        v = object.__new__(cls)
        for name, x in zip(cls.__slots__, values):
            object.__setattr__(v, name, x)
        if len(self) >= self.limit:
            self.sweep()
        self[key] = ref(v)
        return v

    def sweep(self):
        """Drop the dead entries, newest first: a dropped key frees its dead
        arguments before their (older) entries come up."""
        keys = list(self)
        while keys:
            k = keys.pop()
            if self[k]() is None:
                del self[k]
        self.limit = 2 * len(self) + 1024


class _Interned:
    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


_SORTS, _SYMBOLS, _VARS, _APPS = _Table(), _Table(), _Table(), _Table()


class Sort(_Interned):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        r = _SORTS.get(name)
        return (r and r()) or _SORTS.make(name, cls, name)

    def __repr__(self):
        return self.name


class FunctionSymbol(_Interned):
    __slots__ = ("name", "dom", "cod")

    def __new__(cls, name: str, dom: tuple[Sort, ...], cod: Sort):
        key = name, dom, cod
        r = _SYMBOLS.get(key)
        return (r and r()) or _SYMBOLS.make(key, cls, name, dom, cod)

    @property
    def arity(self) -> int:
        return len(self.dom)

    def __repr__(self):
        dom = ",".join(s.name for s in self.dom)
        return f"{self.name}:({dom})->{self.cod.name}"


def int_literal(value: int) -> FunctionSymbol:
    """Nullary symbol denoting an arbitrary-precision integer constant."""
    return FunctionSymbol(str(value), (), Sort("Int"))


def is_int_literal(sym: FunctionSymbol) -> bool:
    n = sym.name
    return sym.arity == 0 and (n.isdigit() or (n.startswith("-") and n[1:].isdigit()))


def str_literal_symbol(text: str) -> FunctionSymbol:
    """Nullary symbol denoting a string constant, named by its quoted text."""
    return FunctionSymbol(f'"{text}"', (), Sort("Str"))


def is_str_literal(sym: FunctionSymbol) -> bool:
    n = sym.name
    return (sym.arity == 0 and len(n) >= 2 and n[0] == n[-1] == '"'
            and sym.cod.name == "Str")


class AlgSignature:
    """A set of sorts plus function symbols, in declaration order."""

    def __init__(self, sorts=(), symbols=()):
        self.sorts: dict[str, Sort] = {}
        self.symbols: dict[str, FunctionSymbol] = {}
        for s in sorts:
            self.add_sort(s)
        for f in symbols:
            self.add_symbol(f)

    def add_sort(self, s: Sort):
        self.sorts.setdefault(s.name, s)  # a sort is its name

    def add_symbol(self, f: FunctionSymbol):
        if f.name in self.symbols:
            if self.symbols[f.name] != f:
                raise KernelError(f"duplicate symbol name {f.name}")
            return
        for s in (*f.dom, f.cod):
            if s.name not in self.sorts:
                raise KernelError(f"symbol {f.name} uses unknown sort {s.name}")
        self.symbols[f.name] = f

    def has_symbol(self, sym: FunctionSymbol) -> bool:
        # Integer and string constants are admitted wherever their sort exists.
        return (self.symbols.get(sym.name) is sym
                or is_int_literal(sym) and "Int" in self.sorts
                or is_str_literal(sym) and "Str" in self.sorts)

    def __repr__(self):
        return f"AlgSignature(sorts={list(self.sorts)}, symbols={list(self.symbols)})"


class Term(_Interned):
    __slots__ = ()


class Var(Term):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        r = _VARS.get(name)
        return (r and r()) or _VARS.make(name, cls, name)

    def __repr__(self):
        return self.name


class App(Term):
    __slots__ = ("symbol", "args")

    def __new__(cls, symbol: FunctionSymbol, args: tuple[Term, ...] = ()):
        key = symbol, args
        r = _APPS.get(key)
        return (r and r()) or _APPS.make(key, cls, symbol, args)

    def __repr__(self):
        return render_term(self)


def app(sym: FunctionSymbol, *args: Term) -> App:
    return App(sym, tuple(args))


def render_term(t: Term) -> str:
    """Print a term, using postfix path sugar for nested unary applications."""
    if isinstance(t, Var):
        return t.name
    assert isinstance(t, App)
    if t.symbol.arity == 1:
        return f"{render_term(t.args[0])}.{t.symbol.name}"
    if t.symbol.arity == 0:
        return t.symbol.name
    inner = ", ".join(render_term(a) for a in t.args)
    return f"{t.symbol.name}({inner})"


@dataclass(frozen=True)
class Context:
    bindings: tuple[tuple[str, Sort], ...] = ()
    _sorts: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        sorts = dict(self.bindings)
        if len(sorts) != len(self.bindings):
            raise KernelError(f"duplicate variable in context: {self.names()}")
        object.__setattr__(self, "_sorts", sorts)

    def sort_of(self, name: str) -> Sort:
        s = self._sorts.get(name)
        if s is None:
            raise UnknownVariable(name)
        return s

    def __contains__(self, name: str) -> bool:
        return name in self._sorts

    def names(self) -> list[str]:
        return [n for n, _ in self.bindings]

    def __repr__(self):
        return "(" + ", ".join(f"{n}:{s.name}" for n, s in self.bindings) + ")"


def ctx(*bindings: tuple[str, Sort]) -> Context:
    return Context(tuple(bindings))


@dataclass(frozen=True)
class Equation:
    context: Context
    lhs: Term
    rhs: Term
    sort: Sort

    def __repr__(self):
        return f"{self.context} |- {render_term(self.lhs)} = {render_term(self.rhs)}"


@dataclass(frozen=True)
class Presentation:
    signature: AlgSignature
    equations: tuple[Equation, ...]


@dataclass(frozen=True)
class ContextMorphism:
    """Assignment of a source-context term to each target-context variable."""

    source: Context
    target: Context
    assignment: tuple[tuple[str, Term], ...]

    def __post_init__(self):
        assigned = {n for n, _ in self.assignment}
        wanted = set(self.target.names())
        if assigned != wanted:
            raise ContextMismatch(
                f"assignment covers {sorted(assigned)}, target needs {sorted(wanted)}"
            )

    def __call__(self, name: str) -> Term:
        for n, t in self.assignment:
            if n == name:
                return t
        raise UnknownVariable(name)

    def as_dict(self) -> dict[str, Term]:
        return dict(self.assignment)

    @staticmethod
    def make(source: Context, target: Context, mapping: dict[str, Term]) -> "ContextMorphism":
        return ContextMorphism(
            source, target, tuple((n, mapping[n]) for n in target.names())
        )

    def __repr__(self):
        parts = ", ".join(f"{n} := {render_term(t)}" for n, t in self.assignment)
        return f"[{parts}]"


def substitute(term: Term, m: ContextMorphism) -> Term:
    """Simultaneous substitution t[x_i := m(x_i)]."""
    return subst_map(term, m.as_dict())


def subst_map(term: Term, d: dict[str, Term]) -> Term:
    if isinstance(term, Var):
        if term.name not in d:
            raise UnknownVariable(term.name)
        return d[term.name]
    assert isinstance(term, App)
    if not term.args:
        return term
    return App(term.symbol, tuple(subst_map(a, d) for a in term.args))


def compose_ctx_morphisms(f: ContextMorphism, g: ContextMorphism) -> ContextMorphism:
    """(g after f)(y) = substitute(g(y), f), for f: Gamma -> Theta, g: Theta -> Psi."""
    if f.target != g.source:
        raise ContextMismatch(f"cannot compose {f.target} with {g.source}")
    return ContextMorphism(
        f.source, g.target, tuple((n, substitute(t, f)) for n, t in g.assignment)
    )


def term_height(t: Term) -> int:
    if isinstance(t, Var):
        return 0
    assert isinstance(t, App)
    if not t.args:
        return 1
    return 1 + max(term_height(a) for a in t.args)


def term_size(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    return 1 + sum(term_size(a) for a in t.args)


def term_vars(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    out: set[str] = set()
    for a in t.args:
        out |= term_vars(a)
    return out


def term_key(t: Term) -> tuple:
    """Deterministic ordering key: height first, then a lexicographic spine."""
    return (term_height(t), term_size(t), spine(t))


def spine(t: Term) -> tuple:
    """Ordering key on the spelling alone: names, variables first."""
    if isinstance(t, Var):
        return (0, t.name)
    return (1, t.symbol.name) + tuple(spine(a) for a in t.args)


def enumerate_terms(sig: AlgSignature, context: Context, sort: Sort,
                    size_bound: int) -> list[Term]:
    """All well-sorted terms of `sort` with syntax-tree height <= size_bound.

    Deterministic: ordered by height, then symbol declaration order, then
    argument order.
    """
    by_height: dict[Sort, list[list[Term]]] = {s: [] for s in sig.sorts.values()}
    seen: dict[Sort, set[Term]] = {s: set() for s in sig.sorts.values()}

    def level(s: Sort, h: int) -> list[Term]:
        return by_height[s][h] if h < len(by_height[s]) else []

    def upto(s: Sort, h: int) -> list[Term]:
        out = []
        for i in range(min(h + 1, len(by_height[s]))):
            out.extend(by_height[s][i])
        return out

    # height 0: variables
    for s in sig.sorts.values():
        lvl = []
        for n, vs in context.bindings:
            if vs == s:
                lvl.append(Var(n))
        by_height[s].append(lvl)
        seen[s].update(lvl)

    for h in range(1, size_bound + 1):
        new: dict[Sort, list[Term]] = {s: [] for s in sig.sorts.values()}
        for sym in sig.symbols.values():
            if sym.arity == 0:
                if h == 1:
                    t = App(sym)
                    if t not in seen[sym.cod]:
                        new[sym.cod].append(t)
                        seen[sym.cod].add(t)
                continue
            # argument tuples whose max height is exactly h - 1
            pools = [upto(d, h - 1) for d in sym.dom]
            if any(not p for p in pools):
                continue
            for args in _product(pools):
                if max(term_height(a) for a in args) != h - 1:
                    continue
                t = App(sym, args)
                if t not in seen[sym.cod]:
                    new[sym.cod].append(t)
                    seen[sym.cod].add(t)
        for s in sig.sorts.values():
            by_height[s].append(new[s])

    return upto(sort, size_bound)


def _product(pools: list[list[Term]]) -> Iterator[tuple[Term, ...]]:
    if not pools:
        yield ()
        return
    for head in pools[0]:
        for rest in _product(pools[1:]):
            yield (head,) + rest
