"""Test oracle: substitution and simplification that rebuild every value.

``apply_subst`` and ``simplify`` are catdb's type-algebra substitution and
simplification before values cached their atom sets: every value is
rebuilt through the canonicalising constructors, whether or not any atom
of it is substituted, and atom-free values run the whole fact and rewrite
loop.  ``OracleTypeAlgebra`` compiles its hypotheses through them, in a
fixpoint that runs every one of its passes: it does not stop at a pass
that changes nothing.  The tests compare ``catdb.typeside`` against these.
Nothing under ``src/`` imports this.
"""

from __future__ import annotations

from catdb.kernel import Term
from catdb.typeside import (
    BAtom, BConst, BNode, BoolForm, CanonicalValue, IntPoly, StrWord,
    TypeAlgebra, _apply_facts, _bnode, _bnot, _eq_atom, _le_atom,
    _value_weight, ts_normalize,
)


class OracleTypeAlgebra(TypeAlgebra):
    """`TypeAlgebra` with the rebuilding substitution and simplification
    and the fixpoint without an early exit.  It inherits `_try_subst`,
    which keeps the substitution closed, so comparing against it cannot
    show an open substitution: the permutation property in
    ``tests/test_typeside_cache.py`` checks closure."""

    def _compile(self):
        if not self.hypotheses:
            return
        plain = TypeAlgebra(self.nulls)
        pending = [(ts_normalize(e.lhs, plain), ts_normalize(e.rhs, plain))
                   for e in self.hypotheses]
        for _ in range(len(pending) + 4):
            rest = []
            for l, r in pending:
                l, r = self._resubst(l), self._resubst(r)
                if l == r:
                    continue
                if not l.atoms() and not r.atoms():
                    self.inconsistent = True
                    continue
                if not self._try_subst(l, r) and not self._try_subst(r, l):
                    rest.append((l, r))
            pending = rest
            if not pending:
                break
        for l, r in pending:
            if isinstance(l, BoolForm) and isinstance(r, BConst):
                self._facts[l] = r
            elif isinstance(r, BoolForm) and isinstance(l, BConst):
                self._facts[r] = l
            else:
                big, small = sorted((l, r), key=_value_weight, reverse=True)
                self._rewrites.append((big, small))
        self.inconsistent |= forced_apart(pending)

    def _resubst(self, v: CanonicalValue) -> CanonicalValue:
        return apply_subst(v, self._subst)

    def simplify(self, v: CanonicalValue) -> CanonicalValue:
        return simplify(self, v)


def forced_apart(pairs) -> bool:
    """Whether the pairs equate one value with two distinct constants; a
    negated boolean atom counts as its positive atom equated with the
    negated constant."""
    constants: dict[CanonicalValue, set] = {}
    for pair in pairs:
        for value, other in (pair, pair[::-1]):
            if not value.atoms() or other.atoms():
                continue
            if isinstance(value, BAtom) and not value.positive:
                value, other = _bnot(value), _bnot(other)
            constants.setdefault(value, set()).add(other)
    return any(len(cs) > 1 for cs in constants.values())


def simplify(alg: TypeAlgebra, v: CanonicalValue) -> CanonicalValue:
    v = apply_subst(v, alg._subst)
    for _ in range(len(alg._rewrites) + len(alg._facts) + 2):
        before = v
        v = _apply_facts(v, alg._facts)
        for big, small in alg._rewrites:
            if v == big:
                v = small
        if v == before:
            return v
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
