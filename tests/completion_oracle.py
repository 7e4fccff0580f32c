"""Test oracle: critical pairs without the head-symbol filter.

``critical_pairs`` renames both rules apart and tries to unify r2's left
side with every non-variable position of r1's, whatever its head symbol.
The tests compare ``catdb.rewrite._critical_pairs``, which tries only the
positions headed by r2's head symbol, against it, and run ``complete``
with either.  Nothing under ``src/`` imports this.
"""

from __future__ import annotations

from catdb.rewrite import (
    RewriteRule, _apply, _positions, _rename_apart, _replace, unify,
)


def critical_pairs(r1: RewriteRule, r2: RewriteRule):
    """Critical pairs from overlapping r2's lhs into r1's lhs."""
    l1 = _rename_apart(r1.lhs, "#1")
    rhs1 = _rename_apart(r1.rhs, "#1")
    l2 = _rename_apart(r2.lhs, "#2")
    rhs2 = _rename_apart(r2.rhs, "#2")
    for path, sub in _positions(l1):
        if path == () and r1 is r2:
            continue  # trivial self-overlap at the root
        s = unify(sub, l2, {})
        if s is None:
            continue
        peak = _apply(l1, s)
        left = _apply(rhs1, s)
        right = _apply(_replace(l1, path, rhs2), s)
        if left != right:
            yield peak, left, right
