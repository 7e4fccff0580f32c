"""A fixed reference routine that measures how fast the machine runs now.

The benchmark runs on shared machines whose speed drifts by up to a factor
of two within a minute, for all pure-Python code alike.  The run times
this routine before every op and reports each op's time in units of the
routine's time measured next to it ("ref"), so the drift cancels while
any change to catdb's own speed shows in full.

The routine uses only the standard library and never calls catdb, so no
change to the engine can move it.  Its work is interpreter-bound like the
engine's hot path: it rewrites nested tuples bottom-up with a memo dict
(``f(g(t)) -> t``), which means function calls, tuple building, hashing
and dict lookups.  Its result is a fixed checksum, so a run can check
that the work was done.
"""

from __future__ import annotations

ROUNDS = 60
CHECKSUM = 3348


def _rewrite(t, memo: dict):
    if not isinstance(t, tuple):
        return t
    r = memo.get(t)
    if r is None:
        head = t[0]
        args = tuple(_rewrite(a, memo) for a in t[1:])
        if head == "f" and isinstance(args[0], tuple) and args[0][0] == "g":
            r = args[0][1]
        else:
            r = (head, *args)
        memo[t] = r
    return r


def _size(t) -> int:
    return 1 + sum(_size(a) for a in t[1:]) if isinstance(t, tuple) else 1


def reference() -> int:
    """Run the fixed work once; returns CHECKSUM."""
    total = 0
    for i in range(ROUNDS):
        t = ("x", i)
        for k in range(i % 7 + 12):
            t = ("f", ("g", t)) if k % 2 else ("h", t, ("c", k))
        memo: dict = {}
        total += _size(_rewrite(t, memo)) + len(memo)
    return total
