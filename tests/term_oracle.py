"""Test oracles for kernel values: structural equality and sorting.

The kernel hash-conses sorts, function symbols and terms, so its `==` is
identity.  `structurally_equal` decides equality the way the frozen
dataclasses did before: same class and equal fields, recursing through
symbols, sorts and arguments.  It compares names and lengths only and
never calls `==` on a kernel value.

`well_sort_check` is the recursive sort walk the parser used to run over
every term it built; the parser now sorts each node as it builds it
(`catdb.dsl.TermEnv.app`).  Nothing under ``src/`` imports this.
"""

from __future__ import annotations

from catdb.kernel import (
    AlgSignature, App, AritySortMismatch, Context, FunctionSymbol, Sort, Term,
    UnknownSymbol, Var, render_term,
)


def structurally_equal(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, (Sort, Var)):
        return a.name == b.name
    if isinstance(a, FunctionSymbol):
        return (a.name == b.name and len(a.dom) == len(b.dom)
                and all(map(structurally_equal, a.dom, b.dom))
                and structurally_equal(a.cod, b.cod))
    assert isinstance(a, App)
    return (structurally_equal(a.symbol, b.symbol)
            and len(a.args) == len(b.args)
            and all(map(structurally_equal, a.args, b.args)))


def well_sort_check(term: Term, context: Context, sig: AlgSignature) -> Sort:
    """Return the sort of `term`, or raise naming the offending subterm."""
    if isinstance(term, Var):
        return context.sort_of(term.name)
    assert isinstance(term, App)
    sym = term.symbol
    if not sig.has_symbol(sym):
        raise UnknownSymbol(f"{sym.name} in {render_term(term)}")
    if len(term.args) != sym.arity:
        raise AritySortMismatch(
            f"{sym.name} expects {sym.arity} arguments in {render_term(term)}"
        )
    for arg, want in zip(term.args, sym.dom):
        got = well_sort_check(arg, context, sig)
        if got != want:
            raise AritySortMismatch(
                f"argument {render_term(arg)} of {sym.name} has sort "
                f"{got.name}, expected {want.name}"
            )
    return sym.cod
