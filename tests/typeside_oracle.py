"""Test oracle: term reading, substitution, simplification and completion
done naively.

``canon`` is the recursive reading of a type term that catdb used before
every type term went through one compiled plan (`typeside.type_plan`), and
``value_pairs`` reads hypothesis equations with it.

``apply_subst`` and ``simplify`` are catdb's type-algebra substitution and
simplification before values cached their atom sets: every value is
rebuilt through the canonicalising constructors, whether or not any atom
of it is substituted, and the residual entries are applied until a value
stops changing.  ``OracleTypeAlgebra`` compiles its hypotheses without a
worklist: each round rebuilds the substitution and the classes of equal
values from all the pairs, then simplifies every pair again, until a round
changes nothing.  It picks representatives by ``value_weight`` and
orients entries by ``orient``, catdb's weight before each value kept its
own: the rendering is ``dataclass_text``, the ``repr`` that the frozen
dataclasses of the values generated, computed at every call.  The tests
compare ``catdb.typeside`` against these.
Nothing under ``src/`` imports this.
"""

from __future__ import annotations

from catdb.kernel import (
    App, Context, FunctionSymbol, Term, Var, is_int_literal, is_str_literal,
    render_term,
)
from catdb.typeside import (
    TYPE_SYMBOLS, BAtom, BConst, BNode, BoolForm, CanonicalValue, IntPoly,
    StrWord, TypeAlgebra, _bare_atom, _bnode, _bnot, _eq_atom, _le_atom,
    opaque_atom, symbol_operation, value_sort,
)


def is_type_symbol(sym: FunctionSymbol) -> bool:
    return sym in TYPE_SYMBOLS or is_int_literal(sym) or is_str_literal(sym)


def canon(term: Term, alg: TypeAlgebra) -> CanonicalValue:
    """The value of a type-sorted term, its leaves read through the
    substitution of alg and every non-type application an opaque atom;
    not simplified at the top."""
    if isinstance(term, Var):
        got = alg._subst.get(term)
        if got is not None:
            return got
        s = alg.nulls.sort_of(term.name) if term.name in alg.nulls else None
        return opaque_atom(term, s)
    assert isinstance(term, App)
    sym = term.symbol
    if is_type_symbol(sym):
        return symbol_operation(sym)(alg, *(canon(a, alg) for a in term.args))
    got = alg._subst.get(term)
    if got is not None:
        return got
    return opaque_atom(term, sym.cod)


def value_pairs(nulls: Context, equations) -> list:
    """The hypotheses of `TypeAlgebra(nulls, ...)` for the equations: both
    sides of each read by ``canon`` in an algebra with no hypotheses."""
    plain = TypeAlgebra(nulls)
    return [(canon(e.lhs, plain), canon(e.rhs, plain)) for e in equations]


class OracleTypeAlgebra(TypeAlgebra):
    """`TypeAlgebra` with the rebuilding substitution and simplification
    and a completion in rounds.  It inherits `_try_subst`, which keeps the
    substitution closed, so comparing against it cannot show an open
    substitution: the permutation property in
    ``tests/test_typeside_cache.py`` checks closure."""

    def _compile(self):
        if not self.hypotheses:
            return
        pairs = list(self.hypotheses)
        before = None
        while before != (self._subst, self._residual):
            before = (self._subst, self._residual)
            self._subst, self._keys_onto = {}, {}
            self._residual = self._classes(self._substitute(pairs))
            pairs = [(opaque_atom(atom, value_sort(v)), v)
                     for atom, v in self._subst.items()]
            pairs += [(self._simplify_args(k), self.simplify(v))
                      for k, v in self._residual.items()]

    def _substitute(self, pairs) -> list:
        """Substitute until a pass over the pairs adds no substitution; the
        pairs left unsettled, in terms of the substitution."""
        settled = True
        while settled:
            rest, settled = [], False
            for l, r in pairs:
                l, r = self._resubst(l), self._resubst(r)
                if l == r:
                    continue
                if forced_apart(l, r):
                    self.inconsistent = True
                elif (self._try_subst(l, r) is None
                      and self._try_subst(r, l) is None):
                    rest.append((l, r))
                else:
                    settled = True
            pairs = rest
        return pairs

    def _classes(self, pairs) -> dict:
        """Every member of each class of values that the pairs and their
        complements join, mapped to the class's lightest member."""
        parent: dict = {}

        def find(v):
            while parent.setdefault(v, v) != v:
                v = parent[v]
            return v

        for l, r in pairs:
            both = [(l, r)]
            if isinstance(l, BoolForm):
                both.append((_bnot(l), _bnot(r)))
            for x, y in both:
                parent[find(x)] = find(y)
        members: dict = {}
        for v in list(parent):
            members.setdefault(find(v), []).append(v)
        out = {}
        for cls in members.values():
            rep = min(cls, key=value_weight)
            for i, v in enumerate(cls):
                if any(forced_apart(v, w) for w in cls[i + 1:]):
                    self.inconsistent = True
                if v != rep:
                    big, small = orient(v, rep)
                    out[big] = small
        return out

    def _simplify_args(self, key: CanonicalValue) -> CanonicalValue:
        if isinstance(key, BNode):
            return _bnode(key.op, [self.simplify(a) for a in key.args])
        return key

    def _resubst(self, v: CanonicalValue) -> CanonicalValue:
        return apply_subst(v, self._subst)

    def simplify(self, v: CanonicalValue) -> CanonicalValue:
        return simplify(self, v)


def value_weight(v: CanonicalValue):
    """Preference order for representatives: constants, then nulls, then
    compounds; ties by size then rendering.  A boolean value weighs as the
    lighter of it and its complement."""
    if isinstance(v, (BAtom, BNode)):
        return min(weight(v), weight(_bnot(v)))
    return weight(v)


def weight(v: CanonicalValue):
    if not v.atoms():
        cls = 0
    else:
        a = _bare_atom(v)
        cls = 3 if a is None else 1 if isinstance(a, Var) else 2
    text = dataclass_text(v)
    return (cls, len(text), text)


# the fields of each value class, in the order its dataclass declared them
FIELDS = {IntPoly: ("terms",), StrWord: ("items",), BConst: ("value",),
          BAtom: ("positive", "kind", "payload"), BNode: ("op", "args")}


def dataclass_text(x) -> str:
    """x written as a frozen dataclass writes its `repr`: a value as
    `Name(field=..., ...)`, a tuple with its items written so, a term by
    `render_term` and anything else by its own `repr`."""
    if isinstance(x, CanonicalValue):
        fields = (f"{f}={dataclass_text(getattr(x, f))}"
                  for f in FIELDS[type(x)])
        return f"{type(x).__name__}({', '.join(fields)})"
    if isinstance(x, tuple):
        items = [dataclass_text(y) for y in x]
        return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"
    return render_term(x) if isinstance(x, Term) else repr(x)


def orient(l: CanonicalValue, r: CanonicalValue):
    """The entry for `l = r`: the heavier side rewrites to the lighter.  Of
    a boolean entry and its complement, the one kept has its value, or its
    key if the value is a constant, in the lighter polarity."""
    big, small = sorted((l, r), key=value_weight, reverse=True)
    probe = big if isinstance(small, BConst) else small
    if isinstance(probe, (BAtom, BNode)) and \
            weight(_bnot(probe)) < weight(probe):
        return _bnot(big), _bnot(small)  # type: ignore[arg-type]
    return big, small


def forced_apart(l: CanonicalValue, r: CanonicalValue) -> bool:
    """Whether the distinct values `l` and `r` cannot be equal: two
    constants, Int values a constant apart, or complementary booleans."""
    if not l.atoms() and not r.atoms():
        return True
    if isinstance(l, IntPoly) and isinstance(r, IntPoly):
        return all(m == () for m, _ in l.add(r.neg()).terms)
    return isinstance(l, BoolForm) and l == _bnot(r)


def simplify(alg: TypeAlgebra, v: CanonicalValue) -> CanonicalValue:
    v = apply_subst(v, alg._subst)
    for _ in range(len(alg._residual) + 2):
        before = v
        v = apply_residual(v, alg._residual)
        if v == before:
            return v
    return v


def apply_residual(v, residual: dict[CanonicalValue, CanonicalValue]):
    got = residual.get(v)
    if got is not None:
        return got
    if isinstance(v, (BAtom, BNode)):
        got = residual.get(_bnot(v))
        if got is not None:
            return _bnot(got)
    if isinstance(v, BNode):
        return _bnode(v.op, [apply_residual(a, residual) for a in v.args])
    return v


def apply_subst(v, subst: dict[Term, CanonicalValue]):
    if not subst:
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
    if isinstance(v, BConst):
        return v
    if isinstance(v, BAtom):
        if v.kind == "var":
            rep = subst.get(v.payload[0])
            if isinstance(rep, BoolForm):
                return rep if v.positive else _bnot(rep)
            return v
        if v.kind == "le":
            l, r = (apply_subst(p, subst) for p in v.payload)
            out = _le_atom(l, r)
            return out if v.positive else _bnot(out)
        l, r = (apply_subst(w, subst) for w in v.payload)
        out = _eq_atom(l, r)
        return out if v.positive else _bnot(out)
    if isinstance(v, BNode):
        return _bnode(v.op, [apply_subst(a, subst) for a in v.args])
    return v
