"""Test oracle: the type-side operations without their ground folds.

These are catdb's integer arithmetic, `<=`, string `eq` and boolean
negation from before atom-free values took a shortcut.  ``add``, ``mul``
and ``neg`` always go through a dict of monomials and re-sort it, and
``le_atom``, ``eq_atom`` and ``bnot`` build a fresh ``BConst`` for every
decided answer.  ``operation`` is ``typeside.symbol_operation`` over them.
The tests compare ``catdb.typeside`` against these.  Nothing under
``src/`` imports this.
"""

from __future__ import annotations

from catdb.kernel import (
    FunctionSymbol, Term, is_int_literal, is_str_literal, spine,
)
from catdb.typeside import (
    AND, CONCAT, EPS, EQS, FALSE, LE, NEG, NOT, OR, PLUS, TIMES, TRUE, BAtom,
    BConst, BNode, BoolForm, IntPoly, StrWord, _bnode,
)


def is_const(p: IntPoly) -> bool:
    return all(m == () for m, _ in p.terms)


def const_value(p: IntPoly) -> int:
    assert is_const(p)
    return p.terms[0][1] if p.terms else 0


def add(p: IntPoly, q: IntPoly) -> IntPoly:
    d = dict(p.terms)
    for m, c in q.terms:
        d[m] = d.get(m, 0) + c
    return IntPoly._from_dict(d)


def neg(p: IntPoly) -> IntPoly:
    return IntPoly(tuple((m, -c) for m, c in p.terms))


def mul(p: IntPoly, q: IntPoly) -> IntPoly:
    d: dict = {}
    for m1, c1 in p.terms:
        for m2, c2 in q.terms:
            pw: dict[Term, int] = {}
            for a, e in m1 + m2:
                pw[a] = pw.get(a, 0) + e
            m = tuple(sorted(pw.items(), key=lambda ap: spine(ap[0])))
            d[m] = d.get(m, 0) + c1 * c2
    return IntPoly._from_dict(d)


def bnot(f: BoolForm) -> BoolForm:
    if isinstance(f, BConst):
        return BConst(not f.value)
    if isinstance(f, BAtom):
        return f.flip()
    assert isinstance(f, BNode)
    return _bnode("or" if f.op == "and" else "and", [bnot(a) for a in f.args])


def le_atom(l: IntPoly, r: IntPoly) -> BoolForm:
    if is_const(l) and is_const(r):
        return BConst(const_value(l) <= const_value(r))
    diff = add(l, neg(r))
    if is_const(diff):
        return BConst(const_value(diff) <= 0)
    const = sum(c for m, c in diff.terms if m == ())
    lhs = IntPoly(tuple((m, c) for m, c in diff.terms if m != ()))
    return BAtom(True, "le", (lhs, IntPoly.const(-const)))


def eq_atom(l: StrWord, r: StrWord) -> BoolForm:
    li, ri = list(l.items), list(r.items)
    while li and ri and li[0] == ri[0]:
        li.pop(0)
        ri.pop(0)
    while li and ri and li[-1] == ri[-1]:
        li.pop()
        ri.pop()
    lw, rw = StrWord(tuple(li)), StrWord(tuple(ri))
    if not lw.items and not rw.items:
        return BConst(True)
    if lw.is_literal() and rw.is_literal():
        return BConst(lw.literal_value() == rw.literal_value())
    if li and ri:
        for end in (0, -1):
            x, y = li[end], ri[end]
            if x[0] == "lit" and y[0] == "lit" and x[1] != y[1]:
                return BConst(False)
    pair = sorted((lw, rw), key=lambda w: w.key())
    return BAtom(True, "eq", (pair[0], pair[1]))


_OPERATIONS = {
    NEG: lambda alg, a: neg(a),
    PLUS: lambda alg, a, b: add(a, b),
    TIMES: lambda alg, a, b: mul(a, b),
    LE: lambda alg, a, b: alg.simplify(le_atom(a, b)),
    TRUE: lambda alg: BConst(True),
    FALSE: lambda alg: BConst(False),
    NOT: lambda alg, a: bnot(a),
    AND: lambda alg, a, b: _bnode("and", [a, b]),
    OR: lambda alg, a, b: _bnode("or", [a, b]),
    EPS: lambda alg: StrWord(()),
    CONCAT: lambda alg, a, b: a.concat(b),
    EQS: lambda alg, a, b: alg.simplify(eq_atom(a, b)),
}


def operation(sym: FunctionSymbol):
    """``typeside.symbol_operation`` over the unfolded operations."""
    if sym in _OPERATIONS:
        return _OPERATIONS[sym]
    if is_int_literal(sym):
        return lambda alg: IntPoly.const(int(sym.name))
    if is_str_literal(sym):
        return lambda alg: StrWord.lit(sym.name[1:-1])
    return None
