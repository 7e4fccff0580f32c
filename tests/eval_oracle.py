"""Test oracle: the recursive term interpreter.

``eval_entity`` and ``eval_type`` are how `SaturatedInstance` evaluated
terms before it compiled them: each call walks the term, recursing once
per edge of a path, and applies each type symbol through
``apply_symbol``, a chain of comparisons over the built-in symbols.  The
tests compare the compiled evaluation and the symbol table of
``catdb.typeside`` against these.  Nothing under ``src/`` imports this.
"""

from __future__ import annotations

from catdb.instance import InstanceError, SaturatedInstance
from catdb.kernel import App, FunctionSymbol, Term, Var, is_int_literal, \
    is_str_literal
from catdb.typeside import (
    AND, BFALSE, BTRUE, CONCAT, EPS, EQS, FALSE, LE, NEG, NOT, ONE, OR, PLUS,
    TIMES, TRUE, ZERO, CanonicalValue, IntPoly, StrWord, TypeAlgebra,
    _EMPTY_ALGEBRA, _as_bool, _as_poly, _as_word, _bnode, _bnot, _eq_atom,
    _le_atom,
)
from tests.typeside_oracle import canon, is_type_symbol


def eval_entity(si: SaturatedInstance, t: Term,
                env: dict[str, Term] | None = None) -> Term:
    """The row of t, with t's variables bound by env first, then by the
    generators of this instance.  A term over bound variables is
    evaluated through its edges even if it spells a row of this
    instance: a source generator may share its name with a row."""
    return _eval_entity(si, t, env, {r for rs in si.row_list.values()
                                     for r in rs})


def _eval_entity(si: SaturatedInstance, t: Term, env, rows) -> Term:
    if isinstance(t, Var):
        if env and t.name in env:
            return env[t.name]
        return t if t in rows else si.gen_env[t.name]
    if not env and t in rows:
        return t
    assert isinstance(t, App)
    row = _eval_entity(si, t.args[0], env, rows)
    return si.edge_cols[t.symbol][row]


def eval_type(si: SaturatedInstance, t: Term,
              env: dict[str, Term] | None = None,
              vals: dict[str, CanonicalValue] | None = None) -> CanonicalValue:
    v = _eval_type(si, t, env or {}, vals or {})
    return si.typealg.simplify(v)


def _eval_type(si: SaturatedInstance, t: Term, env, vals) -> CanonicalValue:
    if isinstance(t, Var):
        if t.name in vals:
            return vals[t.name]
        return si.typealg.simplify(canon(t, si.typealg))
    assert isinstance(t, App)
    sym = t.symbol
    if sym in si.attr_cols:
        row = eval_entity(si, t.args[0], env)
        return si.attr_cols[sym][row]
    if is_type_symbol(sym):
        return apply_symbol(
            sym, [_eval_type(si, a, env, vals) for a in t.args],
            si.typealg)
    raise InstanceError(f"cannot evaluate symbol {sym} in this instance")


def apply_symbol(sym: FunctionSymbol, args: list,
                 alg: "TypeAlgebra | None" = None) -> CanonicalValue:
    """Apply a built-in type symbol to canonical values."""
    if alg is None:
        alg = _EMPTY_ALGEBRA
    if is_int_literal(sym):
        return IntPoly.const(int(sym.name))
    if is_str_literal(sym):
        return StrWord.lit(sym.name[1:-1])
    if sym == ZERO:
        return IntPoly.const(0)
    if sym == ONE:
        return IntPoly.const(1)
    if sym == NEG:
        return _as_poly(args[0]).neg()
    if sym == PLUS:
        return _as_poly(args[0]).add(_as_poly(args[1]))
    if sym == TIMES:
        return _as_poly(args[0]).mul(_as_poly(args[1]))
    if sym == LE:
        return alg.simplify(_le_atom(_as_poly(args[0]), _as_poly(args[1])))
    if sym == TRUE:
        return BTRUE
    if sym == FALSE:
        return BFALSE
    if sym == NOT:
        return _bnot(_as_bool(args[0]))
    if sym in (AND, OR):
        return _bnode("and" if sym == AND else "or",
                      [_as_bool(a) for a in args])
    if sym == EPS:
        return StrWord(())
    if sym == CONCAT:
        return _as_word(args[0]).concat(_as_word(args[1]))
    if sym == EQS:
        return alg.simplify(_eq_atom(_as_word(args[0]), _as_word(args[1])))
    raise ValueError(f"not a type symbol: {sym}")
