"""The built-in theory of Int, Bool and Str, and its decision procedure.

Rather than running completion on the (undecidable in general) full theory,
values are normalized into canonical forms per sort: multivariate integer
polynomials, flattened letter words, and boolean formulas in negation
normal form.  Integer and string constants are nullary literal symbols
given by their value (`250`, `"Gauss"`), not by generators and equations.
Unknowns (labelled nulls and unconstrained attribute cells) appear as
opaque atoms inside these forms, which are hash-consed like terms: equal
values are one object.  Equality modulo a set of hypotheses is answered
tri-state; Unknown is deliberate whenever the answer would need reasoning
outside these fragments (e.g. ordered-ring arithmetic over nulls).
"""

from __future__ import annotations

import string
from collections import deque
from itertools import groupby
from operator import itemgetter

from .kernel import (
    App, Context, FunctionSymbol, Sort, Term, Var, _Interned, _Table, app,
    int_literal, is_int_literal, is_str_literal, render_term,
    spine, str_literal_symbol,
)
from .rewrite import EqResult

INT = Sort("Int")
BOOL = Sort("Bool")
STR = Sort("Str")
TYPE_SORTS = (INT, BOOL, STR)

ZERO = FunctionSymbol("0", (), INT)
ONE = FunctionSymbol("1", (), INT)
NEG = FunctionSymbol("-", (INT,), INT)
PLUS = FunctionSymbol("+", (INT, INT), INT)
TIMES = FunctionSymbol("*", (INT, INT), INT)
LE = FunctionSymbol("<=", (INT, INT), BOOL)
TRUE = FunctionSymbol("true", (), BOOL)
FALSE = FunctionSymbol("false", (), BOOL)
NOT = FunctionSymbol("not", (BOOL,), BOOL)
AND = FunctionSymbol("and", (BOOL, BOOL), BOOL)
OR = FunctionSymbol("or", (BOOL, BOOL), BOOL)
EPS = FunctionSymbol("eps", (), STR)
LETTERS = frozenset(string.ascii_lowercase + string.ascii_uppercase)
CONCAT = FunctionSymbol(".", (STR, STR), STR)
EQS = FunctionSymbol("eq", (STR, STR), BOOL)

TYPE_SYMBOLS = (
    ZERO, ONE, NEG, PLUS, TIMES, LE, TRUE, FALSE, NOT, AND, OR,
    EPS, CONCAT, EQS,
)


def str_literal(s: str) -> Term:
    """The constant term denoting a string of letters."""
    if not LETTERS.issuperset(s):
        raise ValueError(f"only letters a-z, A-Z allowed in string literals: {s!r}")
    return app(str_literal_symbol(s))


def int_term(n: int) -> Term:
    return app(int_literal(n))


# --- canonical values ---------------------------------------------------


# shared by every atom-free value, so that caching its atoms allocates nothing
_NO_ATOMS: frozenset = frozenset()

# one weak intern table per class: `IntPoly(())` and `StrWord(())` have
# equal fields but are different values
_POLYS, _WORDS, _CONSTS, _BATOMS, _BNODES = (_Table() for _ in range(5))


class CanonicalValue(_Interned):
    """An immutable value in canonical form (`IntPoly`, `StrWord` or a
    `BoolForm`), hash-consed like terms, so `==` and `hash` are identity.
    Its set of opaque atoms and its weight (`_value_weight`) are computed
    once and kept in slots.  Its `repr` is `Name(field=...)`, with
    `render_term` for the terms in it."""

    __slots__ = ("_atoms", "_kept_weight")

    def atoms(self) -> frozenset[Term]:
        out = getattr(self, "_atoms", None)
        if out is None:
            out = self._atom_set() or _NO_ATOMS
            object.__setattr__(self, "_atoms", out)
        return out

    def _atom_set(self) -> frozenset[Term]:
        return _NO_ATOMS


def _tuple_text(parts: list[str]) -> str:
    """The repr of a tuple whose items have the reprs in parts."""
    if len(parts) == 1:
        return f"({parts[0]},)"
    return "(" + ", ".join(parts) + ")"


class IntPoly(CanonicalValue):
    """Multivariate polynomial over opaque atoms; monomials sorted."""

    # tuple of (monomial, coeff); monomial = tuple of (atom, power)
    __slots__ = ("terms",)

    def __new__(cls, terms: tuple):
        r = _POLYS.get(terms)
        return (r and r()) or _POLYS.make(terms, cls, terms)

    @staticmethod
    def const(n: int) -> "IntPoly":
        return IntPoly(((() , n),)) if n else IntPoly(())

    @staticmethod
    def atom(t: Term) -> "IntPoly":
        return IntPoly(((((t, 1),), 1),))

    @staticmethod
    def _from_dict(d) -> "IntPoly":
        items = [(m, c) for m, c in d.items() if c != 0]
        items.sort(key=lambda mc: tuple((spine(a), p) for a, p in mc[0]))
        return IntPoly(tuple(items))

    def add(self, other: "IntPoly") -> "IntPoly":
        a, b = self.const_value(), other.const_value()
        if a is not None and b is not None:
            return IntPoly.const(a + b)
        d = dict(self.terms)
        for m, c in other.terms:
            d[m] = d.get(m, 0) + c
        return IntPoly._from_dict(d)

    def neg(self) -> "IntPoly":
        a = self.const_value()
        if a is not None:
            return IntPoly.const(-a)
        return IntPoly(tuple((m, -c) for m, c in self.terms))

    def mul(self, other: "IntPoly") -> "IntPoly":
        a, b = self.const_value(), other.const_value()
        if a is not None and b is not None:
            return IntPoly.const(a * b)
        d: dict = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                pw: dict[Term, int] = {}
                for a, p in m1 + m2:
                    pw[a] = pw.get(a, 0) + p
                m = tuple(sorted(pw.items(), key=lambda ap: spine(ap[0])))
                d[m] = d.get(m, 0) + c1 * c2
        return IntPoly._from_dict(d)

    def const_value(self) -> int | None:
        """The integer this polynomial is, None if it has an atom; the
        constant monomial sorts first."""
        t = self.terms
        if not t:
            return 0
        m, c = t[0]
        return None if m or len(t) > 1 else c

    def _atom_set(self) -> frozenset[Term]:
        return frozenset(a for m, _ in self.terms for a, _ in m)

    def __repr__(self) -> str:
        parts = []
        for m, c in self.terms:
            mono = _tuple_text([f"({render_term(a)}, {p})" for a, p in m])
            parts.append(f"({mono}, {c})")
        return f"IntPoly(terms={_tuple_text(parts)})"

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.terms:
            body = " * ".join(
                render_term(a) if p == 1 else f"{render_term(a)}^{p}" for a, p in m
            )
            if not m:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c} * {body}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


# one item per letter, shared by every word that holds it
_LETTER_ITEMS = {c: ("lit", c) for c in LETTERS}


class StrWord(CanonicalValue):
    """Flattened concatenation: literal letters and opaque atoms."""

    __slots__ = ("items",)  # ('lit', char) | ('atom', Term)

    def __new__(cls, items: tuple):
        r = _WORDS.get(items)
        return (r and r()) or _WORDS.make(items, cls, items)

    @staticmethod
    def lit(s: str) -> "StrWord":
        return StrWord(tuple(_LETTER_ITEMS.get(c) or ("lit", c) for c in s))

    @staticmethod
    def atom(t: Term) -> "StrWord":
        return StrWord((("atom", t),))

    def concat(self, other: "StrWord") -> "StrWord":
        return StrWord(self.items + other.items)

    def is_literal(self) -> bool:
        return all(k == "lit" for k, _ in self.items)

    def literal_value(self) -> str:
        assert self.is_literal()
        return "".join(c for _, c in self.items)  # type: ignore[misc]

    def _atom_set(self) -> frozenset[Term]:
        return frozenset(t for k, t in self.items if k == "atom")

    def __repr__(self) -> str:
        return "StrWord(items=" + _tuple_text([
            f"('lit', {x!r})" if k == "lit" else f"('atom', {render_term(x)})"
            for k, x in self.items]) + ")"

    def key(self):
        return tuple(
            (0, v) if k == "lit" else (1, spine(v)) for k, v in self.items
        )

    def render(self) -> str:
        parts, buf = [], ""
        for k, v in self.items:
            if k == "lit":
                buf += v  # type: ignore[operator]
            else:
                if buf:
                    parts.append(f'"{buf}"')
                    buf = ""
                parts.append(render_term(v))  # type: ignore[arg-type]
        if buf or not parts:
            parts.append(f'"{buf}"')
        return " . ".join(parts)


class BoolForm(CanonicalValue):
    __slots__ = ()


class BConst(BoolForm):
    __slots__ = ("value",)

    def __new__(cls, value: bool):
        r = _CONSTS.get(value)
        return (r and r()) or _CONSTS.make(value, cls, value)

    def __repr__(self) -> str:
        return f"BConst(value={self.value!r})"

    def render(self):
        return "true" if self.value else "false"


BTRUE, BFALSE = BConst(True), BConst(False)


class BAtom(BoolForm):
    __slots__ = ("positive", "kind", "payload")  # kind: 'var' | 'le' | 'eq'

    def __new__(cls, positive: bool, kind: str, payload: tuple):
        key = positive, kind, payload
        r = _BATOMS.get(key)
        return (r and r()) or _BATOMS.make(key, cls, positive, kind, payload)

    def flip(self) -> "BAtom":
        return BAtom(not self.positive, self.kind, self.payload)

    def _atom_set(self) -> frozenset[Term]:
        if self.kind == "var":
            return frozenset(self.payload[:1])
        l, r = self.payload
        return l.atoms() | r.atoms()

    def __repr__(self) -> str:
        if self.kind == "var":
            payload = f"({render_term(self.payload[0])},)"
        else:
            l, r = self.payload
            payload = f"({l!r}, {r!r})"
        return (f"BAtom(positive={self.positive!r}, kind={self.kind!r}, "
                f"payload={payload})")

    def key(self):
        if self.kind == "var":
            pk = spine(self.payload[0])
        elif self.kind == "le":
            pk = tuple(p.terms for p in self.payload)
        else:
            pk = tuple(w.key() for w in self.payload)
        return (self.kind, repr(pk), self.positive)

    def render(self):
        if self.kind == "var":
            body = render_term(self.payload[0])
        elif self.kind == "le":
            l, r = self.payload
            if l.terms and all(c < 0 for _, c in l.terms):
                l, r = r.neg(), l.neg()
            body = f"({l.render()} <= {r.render()})"
        else:
            l, r = self.payload
            body = f"eq({l.render()}, {r.render()})"
        return body if self.positive else f"not {body}"


class BNode(BoolForm):
    __slots__ = ("op", "args")  # op: 'and' | 'or'

    def __new__(cls, op: str, args: tuple):
        key = op, args
        r = _BNODES.get(key)
        return (r and r()) or _BNODES.make(key, cls, op, args)

    def _atom_set(self) -> frozenset[Term]:
        return frozenset().union(*(a.atoms() for a in self.args))

    def __repr__(self) -> str:
        args = _tuple_text([repr(a) for a in self.args])
        return f"BNode(op={self.op!r}, args={args})"

    def key(self):
        return (self.op, tuple(_form_key(a) for a in self.args))

    def render(self):
        sep = " and " if self.op == "and" else " or "
        return "(" + sep.join(a.render() for a in self.args) + ")"


def _form_key(f: BoolForm):
    if isinstance(f, BConst):
        return (0, f.value)
    if isinstance(f, BAtom):
        return (1,) + f.key()
    assert isinstance(f, BNode)
    return (2,) + f.key()


def _bnode(op: str, args) -> BoolForm:
    unit = BTRUE if op == "and" else BFALSE
    kill = BFALSE if op == "and" else BTRUE
    flat: list[BoolForm] = []
    for a in args:
        if a == kill:
            return kill
        if a == unit:
            continue
        if isinstance(a, BNode) and a.op == op:
            flat.extend(a.args)
        else:
            flat.append(a)
    uniq: list[BoolForm] = []
    for a in sorted(flat, key=_form_key):
        if not uniq or uniq[-1] != a:
            uniq.append(a)
    # complement pair
    for a in uniq:
        if isinstance(a, BAtom) and a.flip() in uniq:
            return kill
    if not uniq:
        return unit
    if len(uniq) == 1:
        return uniq[0]
    return BNode(op, tuple(uniq))


def _bnot(f: BoolForm) -> BoolForm:
    if isinstance(f, BConst):
        return BFALSE if f.value else BTRUE
    if isinstance(f, BAtom):
        return f.flip()
    assert isinstance(f, BNode)
    return _bnode("or" if f.op == "and" else "and", [_bnot(a) for a in f.args])


def _le_atom(l: IntPoly, r: IntPoly) -> BoolForm:
    a, b = l.const_value(), r.const_value()
    if a is not None and b is not None:
        return BTRUE if a <= b else BFALSE
    # canonical offset: move the shared part to the right-hand side
    diff = l.add(r.neg())
    d = diff.const_value()
    if d is not None:
        return BTRUE if d <= 0 else BFALSE
    # split diff = nonconst + c as (nonconst <= -c)
    const = sum(c for m, c in diff.terms if m == ())
    lhs = IntPoly(tuple((m, c) for m, c in diff.terms if m != ()))
    return BAtom(True, "le", (lhs, IntPoly.const(-const)))


def _eq_atom(l: StrWord, r: StrWord) -> BoolForm:
    if not l.atoms() and not r.atoms():
        return BTRUE if l.items == r.items else BFALSE
    # strip common prefix/suffix (decidable-equality axioms)
    li, ri = list(l.items), list(r.items)
    while li and ri and li[0] == ri[0]:
        li.pop(0)
        ri.pop(0)
    while li and ri and li[-1] == ri[-1]:
        li.pop()
        ri.pop()
    lw, rw = StrWord(tuple(li)), StrWord(tuple(ri))
    if not lw.items and not rw.items:
        return BTRUE
    if lw.is_literal() and rw.is_literal():
        return BFALSE  # equal words strip to nothing
    # mismatched literal boundary letters are provably unequal
    if li and ri:
        for end in (0, -1):
            x, y = li[end], ri[end]
            if x[0] == "lit" and y[0] == "lit" and x[1] != y[1]:
                return BFALSE
    pair = sorted((lw, rw), key=lambda w: w.key())
    return BAtom(True, "eq", (pair[0], pair[1]))


class TypeAlgebra:
    """A presented algebra over the built-in theory: a labelled-null
    context plus hypotheses, each a pair of canonical values taken as
    equal, in order."""

    def __init__(self, nulls: Context = Context(), hypotheses=()):
        self.nulls = nulls
        self.hypotheses = tuple(hypotheses)
        self.inconsistent = False
        # closed: no value mentions a key, so one `_apply_subst` is exact
        self._subst: dict[Term, CanonicalValue] = {}
        self._keys_onto: dict[Term, list[Term]] = {}  # value atom -> keys
        # reduced: `_lookup` rewrites no value and nothing inside a key
        self._residual: dict[CanonicalValue, CanonicalValue] = {}
        self._uses: dict[Term, dict] = {}  # atom -> keys of its entries
        self._compile()

    def _compile(self):
        """One worklist settles every hypothesis pair.  Simplified, a pair
        is dropped if its sides are equal, flagged if they force distinct
        constants together, made a substitution, or stored as the entry
        `big -> small`.  A substitution takes back out the entries that
        mention its atom, and an entry the entries it rewrites, so at the
        end `_residual` is reduced and depends on the set of pairs only.

        It ends: an atom is substituted at most once, and every entry
        rewrites its key to a lighter value.  A boolean value weighs as the
        lighter of it and its complement, so sides of equal weight are
        equal or complementary (`b = not(b)`) and never make an entry.
        """
        work = deque(self.hypotheses)
        while work:
            l, r = work.popleft()
            l, r = self.simplify(l), self.simplify(r)
            if l == r:
                continue
            if _forced_apart(l, r):
                self.inconsistent = True
                continue
            atom = self._try_subst(l, r) or self._try_subst(r, l)
            big = small = None
            if atom is None:
                big, small = _orient(l, r)
                self._residual[big] = small
                for a in big.atoms() | small.atoms():
                    self._uses.setdefault(a, {})[big] = None
                # the entries that `big` occurs in mention each of its
                # atoms, and so do the keys a constant away from it
                atom = min(big.atoms(),
                           key=lambda a: (len(self._uses[a]), spine(a)))
            for key in list(self._uses.get(atom, ())):
                value = self._residual[key]
                if value == small and key != big and _forced_apart(key, big):
                    self.inconsistent = True
                # taken back out if the new rule rewrites it anywhere
                if key != big and (
                        self.simplify(value) != value
                        or _apply_subst(key, self._subst) != key
                        or isinstance(key, BNode)
                        and any(self.simplify(a) != a for a in key.args)):
                    del self._residual[key]
                    for a in key.atoms() | value.atoms():
                        del self._uses[a][key]
                    work.append((key, value))

    def _try_subst(self, side: CanonicalValue,
                   value: CanonicalValue) -> Term | None:
        """Map the atom of `side`, perhaps negated, to `value` or its
        complement; both mention no key.  Gives back the atom mapped."""
        if isinstance(side, BAtom) and not side.positive:
            side, value = side.flip(), _bnot(value)
        atom = _bare_atom(side)
        if atom is None or atom in value.atoms():
            return None
        # an atom-free value is lighter than any atom
        if value.atoms() and _value_weight(value) > _value_weight(side):
            return None
        # `value` is a constant or a lighter atom, perhaps negated, so the
        # keys mapped onto `atom` are all the keys whose value mentions it
        moved = self._keys_onto.pop(atom, [])
        for key in moved:
            self._subst[key] = (value if self._subst[key] == side
                                else _bnot(value))
        self._subst[atom] = value
        moved.append(atom)
        for onto in value.atoms():
            self._keys_onto.setdefault(onto, []).extend(moved)
        return atom

    def simplify(self, v: CanonicalValue) -> CanonicalValue:
        # no key of `_residual` is atom-free
        if not v.atoms():
            return v
        v = _apply_subst(v, self._subst)
        return self._lookup(v) if self._residual else v

    def _lookup(self, v: CanonicalValue) -> CanonicalValue:
        """`v` rewritten by `_residual` at the top, through its complement
        or among its boolean arguments, which come back in normal form."""
        got = self._residual.get(v)
        if got is None and isinstance(v, (BAtom, BNode)):
            got = self._residual.get(_bnot(v))
            if got is not None:
                return _bnot(got)
            if isinstance(v, BNode):
                w = _bnode(v.op, [self._lookup(a) for a in v.args])
                return v if w == v else self._lookup(w)
        return v if got is None else got

    def residual_constraints(self) -> list[str]:
        """The compiled non-definitional content: each entry of
        `_residual`, rendered `key = value`."""
        return sorted({f"{big.render()} = {small.render()}"
                       for big, small in self._residual.items()})


def _forced_apart(l: CanonicalValue, r: CanonicalValue) -> bool:
    """Whether the distinct values `l` and `r` are constants, Int values a
    constant apart or complementary Bool values."""
    if l.atoms() != r.atoms():
        return False
    if isinstance(l, IntPoly):
        return l.add(r.neg()).const_value() is not None  # type: ignore
    return not l.atoms() or isinstance(l, BoolForm) and l == _bnot(r)


def _orient(l: CanonicalValue, r: CanonicalValue):
    """The entry for `l = r`: the heavier side rewrites to the lighter.  Of
    a boolean entry and its complement, the one kept has its value, or its
    key if the value is a constant, in the lighter polarity."""
    big, small = sorted((l, r), key=_value_weight, reverse=True)
    probe = big if isinstance(small, BConst) else small
    if isinstance(probe, (BAtom, BNode)) and \
            _weight(_bnot(probe)) < _weight(probe):
        return _bnot(big), _bnot(small)  # type: ignore[arg-type]
    return big, small


def _bare_atom(v: CanonicalValue) -> Term | None:
    if isinstance(v, IntPoly) and len(v.terms) == 1:
        m, c = v.terms[0]
        if c == 1 and len(m) == 1 and m[0][1] == 1:
            return m[0][0]
    if isinstance(v, StrWord) and len(v.items) == 1 and v.items[0][0] == "atom":
        return v.items[0][1]  # type: ignore[return-value]
    if isinstance(v, BAtom) and v.positive and v.kind == "var":
        return v.payload[0]
    return None


def _value_weight(v: CanonicalValue):
    """Preference order for representatives: constants, then nulls, then
    compounds; ties by size then rendering.  A boolean value weighs as the
    lighter of it and its complement.  Kept on the value."""
    w = getattr(v, "_kept_weight", None)
    if w is None:
        w = _weight(v)
        if isinstance(v, (BAtom, BNode)):
            w = min(w, _weight(_bnot(v)))
        object.__setattr__(v, "_kept_weight", w)
    return w


def _weight(v: CanonicalValue):
    if not v.atoms():
        cls = 0
    else:
        a = _bare_atom(v)
        cls = 3 if a is None else 1 if isinstance(a, Var) else 2
    text = repr(v)
    return (cls, len(text), text)


def _apply_subst(v, subst: dict[Term, CanonicalValue]):
    # values are built canonical, so rebuilding one whose atoms are all
    # kept would give it back unchanged
    if subst.keys().isdisjoint(v.atoms()):
        return v
    if isinstance(v, IntPoly):
        out = IntPoly.const(0)
        for m, c in v.terms:
            part = IntPoly.const(c)
            for a, p in m:
                rep = subst.get(a)
                base = rep if isinstance(rep, IntPoly) else IntPoly.atom(a)
                for _ in range(p):
                    part = part.mul(base)
            out = out.add(part)
        return out
    if isinstance(v, StrWord):
        items: list = []
        for k, x in v.items:
            if k == "atom" and isinstance(subst.get(x), StrWord):
                items.extend(subst[x].items)  # type: ignore[union-attr]
            else:
                items.append((k, x))
        return StrWord(tuple(items))
    if isinstance(v, BAtom):
        if v.kind == "var":
            rep = subst.get(v.payload[0])
            if isinstance(rep, BoolForm):
                return rep if v.positive else _bnot(rep)
            return v
        if v.kind == "le":
            l, r = (_apply_subst(p, subst) for p in v.payload)
            out = _le_atom(l, r)
            return out if v.positive else _bnot(out)
        l, r = (_apply_subst(w, subst) for w in v.payload)
        out = _eq_atom(l, r)
        return out if v.positive else _bnot(out)
    if isinstance(v, BNode):
        return _bnode(v.op, [_apply_subst(a, subst) for a in v.args])
    return v


def ts_normalize(term: Term, alg: TypeAlgebra | None = None) -> CanonicalValue:
    """Canonical form of a type-sorted term whose entity parts are already
    resolved, read by `type_plan`, the one interpreter of type terms: an
    application of a non-type symbol (an attribute of a row) is an opaque
    atom."""
    if alg is None:
        alg = _EMPTY_ALGEBRA
    _, v = type_plan(term, (), alg, _opaque_read)
    return alg.simplify(v)


def _opaque_read(t: App, names):
    return None, opaque_atom(t, t.symbol.cod)


def type_plan(t: Term, names, alg: TypeAlgebra, read):
    """t as (function of the bindings, None), or as (None, constant value)
    when no name in names occurs in it; values before the final simplify.

    A type symbol is resolved to its operation once, and a subterm over
    constants is computed once.  A variable outside names is a null.  An
    application of any other symbol is handed to read(t, names), which
    gives back a plan of the same form."""
    if isinstance(t, Var):
        if t.name in names:
            return itemgetter(t.name), None
        s = alg.nulls.sort_of(t.name) if t.name in alg.nulls else None
        return None, opaque_atom(t, s)
    op = symbol_operation(t.symbol)
    if op is None:
        return read(t, names)
    plans = [type_plan(a, names, alg, read) for a in t.args]
    if all(fn is None for fn, _ in plans):
        return None, op(alg, *(v for _, v in plans))
    fns = [_constant(v) if fn is None else fn for fn, v in plans]
    if len(fns) == 1:
        f = fns[0]
        return (lambda env: op(alg, f(env))), None
    f, g = fns
    return (lambda env: op(alg, f(env), g(env))), None


def _constant(v):
    return lambda env: v


def opaque_atom(term: Term, sort: Sort) -> CanonicalValue:
    if sort == STR:
        return StrWord.atom(term)
    if sort == BOOL:
        return BAtom(True, "var", (term,))
    return IntPoly.atom(term)


def symbol_operation(sym: FunctionSymbol):
    """The operation of a built-in type symbol, a function of the type
    algebra (in which `<=` and `eq` simplify) and the argument values;
    None for any other symbol."""
    if sym in _OPERATIONS:
        return _OPERATIONS[sym]
    if is_int_literal(sym):
        value = IntPoly.const(int(sym.name))
    elif is_str_literal(sym):
        value = StrWord.lit(sym.name[1:-1])
    else:
        return None
    return lambda alg: value


# `0` and `1` (ZERO, ONE) are integer literals
_OPERATIONS = {
    NEG: lambda alg, a: _as_poly(a).neg(),
    PLUS: lambda alg, a, b: _as_poly(a).add(_as_poly(b)),
    TIMES: lambda alg, a, b: _as_poly(a).mul(_as_poly(b)),
    LE: lambda alg, a, b: alg.simplify(_le_atom(_as_poly(a), _as_poly(b))),
    TRUE: lambda alg: BTRUE,
    FALSE: lambda alg: BFALSE,
    NOT: lambda alg, a: _bnot(_as_bool(a)),
    AND: lambda alg, a, b: _bnode("and", [_as_bool(a), _as_bool(b)]),
    OR: lambda alg, a, b: _bnode("or", [_as_bool(a), _as_bool(b)]),
    EPS: lambda alg: StrWord(()),
    CONCAT: lambda alg, a, b: _as_word(a).concat(_as_word(b)),
    EQS: lambda alg, a, b: alg.simplify(_eq_atom(_as_word(a), _as_word(b))),
}


def _as_poly(v) -> IntPoly:
    assert isinstance(v, IntPoly), f"expected Int value, got {v!r}"
    return v


def _as_word(v) -> StrWord:
    assert isinstance(v, StrWord), f"expected Str value, got {v!r}"
    return v


def _as_bool(v) -> BoolForm:
    assert isinstance(v, BoolForm), f"expected Bool value, got {v!r}"
    return v


_EMPTY_ALGEBRA = TypeAlgebra()


def decide_values(v1: CanonicalValue, v2: CanonicalValue) -> EqResult:
    if v1 == v2:
        return EqResult.Equal
    ground1, ground2 = not v1.atoms(), not v2.atoms()
    if ground1 and ground2:
        return EqResult.NotEqual
    # distinct literal boundary letters separate words even around atoms
    if isinstance(v1, StrWord) and isinstance(v2, StrWord):
        if _eq_atom(v1, v2) == BFALSE:
            return EqResult.NotEqual
    return EqResult.Unknown


def render_value(v: CanonicalValue) -> str:
    return v.render()  # type: ignore[union-attr]


def map_value_atoms(v: CanonicalValue, fn) -> CanonicalValue:
    """Rebuild a canonical value with every opaque atom replaced by
    fn(atom) -> CanonicalValue."""
    subst = {a: fn(a) for a in v.atoms()}
    return _apply_subst(v, subst)


def value_sort(v: CanonicalValue) -> Sort:
    if isinstance(v, IntPoly):
        return INT
    if isinstance(v, StrWord):
        return STR
    return BOOL


def _poly_to_term(p: IntPoly, atom_fn) -> Term:
    def mono(m, c) -> Term:
        factors: list[Term] = []
        if c != 1 or not m:
            factors.append(app(int_literal(c)) if c >= 0
                           else app(NEG, app(int_literal(-c))))
        for a, pw in m:
            for _ in range(pw):
                factors.append(atom_fn(a))
        out = factors[0]
        for f in factors[1:]:
            out = app(TIMES, out, f)
        return out

    if not p.terms:
        return app(int_literal(0))
    out = mono(*p.terms[0])
    for m, c in p.terms[1:]:
        out = app(PLUS, out, mono(m, c))
    return out


def _word_to_term(w: StrWord, atom_fn) -> Term:
    if not w.items:
        return app(EPS)
    # each run of literal letters becomes one string constant
    parts: list[Term] = []
    for lit, run in groupby(w.items, key=lambda kv: kv[0] == "lit"):
        if lit:
            parts.append(str_literal("".join(c for _, c in run)))
        else:
            parts.extend(atom_fn(v) for _, v in run)
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = app(CONCAT, p, out)
    return out


def _form_to_term(f: BoolForm, atom_fn) -> Term:
    if isinstance(f, BConst):
        return app(TRUE) if f.value else app(FALSE)
    if isinstance(f, BAtom):
        if f.kind == "var":
            body = atom_fn(f.payload[0])
        elif f.kind == "le":
            body = app(LE, _poly_to_term(f.payload[0], atom_fn),
                       _poly_to_term(f.payload[1], atom_fn))
        else:
            body = app(EQS, _word_to_term(f.payload[0], atom_fn),
                       _word_to_term(f.payload[1], atom_fn))
        return body if f.positive else app(NOT, body)
    assert isinstance(f, BNode)
    sym = AND if f.op == "and" else OR
    parts = [_form_to_term(a, atom_fn) for a in f.args]
    out = parts[0]
    for p in parts[1:]:
        out = app(sym, out, p)
    return out


def value_to_term(v: CanonicalValue, atom_fn=None) -> Term:
    """Convert a canonical value back to a term; atoms pass through
    atom_fn (default: kept as-is)."""
    if atom_fn is None:
        atom_fn = lambda a: a  # noqa: E731
    if isinstance(v, IntPoly):
        return _poly_to_term(v, atom_fn)
    if isinstance(v, StrWord):
        return _word_to_term(v, atom_fn)
    assert isinstance(v, BoolForm)
    return _form_to_term(v, atom_fn)
