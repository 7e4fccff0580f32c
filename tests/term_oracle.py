"""Test oracle: structural equality of kernel values, field by field.

The kernel hash-conses sorts, function symbols and terms, so its `==` is
identity.  This oracle decides equality the way the frozen dataclasses did
before: same class and equal fields, recursing through symbols, sorts and
arguments.  It compares names and lengths only and never calls `==` on a
kernel value.  Nothing under ``src/`` imports this.
"""

from __future__ import annotations

from catdb.kernel import App, FunctionSymbol, Sort, Var


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
