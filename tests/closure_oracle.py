"""Test oracles: two earlier ground congruence closures.

``FullRebuildClosure`` is the closure catdb used before the incremental
one: every rebuild is a fixpoint pass over every known term, and
``class_members`` scans them all.  ``TermKeyedClosure`` is the incremental
closure before hash-consing: union-find, member lists and use-lists are
keyed by terms, and every ``representative`` call re-normalises its term
both ways.  Both are slow but simple, so the tests compare the hash-consed
closure in ``catdb.rewrite`` against them.  Nothing under ``src/`` imports
this.
"""

from __future__ import annotations

from catdb.kernel import App, Term, Var, term_key
from catdb.rewrite import BudgetExceeded, RewriteSystem, normalize


class FullRebuildClosure:
    """Union-find over ground normal forms, closed under congruence and
    under rewriting by a background system."""

    def __init__(self, ground_eqs, rs: RewriteSystem, budget: int = 100_000):
        self.rs = rs
        self.budget = budget
        self.parent: dict[Term, Term] = {}
        self.known: set[Term] = set()
        # Free variables act as inert constants (e.g. instance generators);
        # rewrite-rule variables never capture them.
        for eq in ground_eqs:
            self._union(self._add(eq.lhs), self._add(eq.rhs))
        self._rebuild()

    def _add(self, t: Term) -> Term:
        """Register t under both readings — rewrite the raw term, and
        rewrite with arguments replaced by their representatives — and
        union them.  The two can differ: a rule may only fire on the raw
        argument (e.g. a two-step path) while congruence only sees the
        representative."""
        t0 = normalize(t, self.rs)
        self._register(t0)
        if isinstance(t, App) and t.args:
            args = tuple(self._find(self._add(a)) for a in t.args)
            t1 = normalize(App(t.symbol, args), self.rs)
            self._register(t1)
            self._union(self._find(t0), self._find(t1))
        return self._find(t0)

    def _norm(self, t: Term) -> Term:
        t = normalize(t, self.rs)
        self._register(t)
        return t

    def _register(self, t: Term):
        if t in self.known:
            return
        self.known.add(t)
        self.parent.setdefault(t, t)
        if isinstance(t, App):
            for a in t.args:
                self._register(a)

    def _find(self, t: Term) -> Term:
        while self.parent.get(t, t) != t:
            self.parent[t] = self.parent.get(self.parent[t], self.parent[t])
            t = self.parent[t]
        return t

    def _union(self, a: Term, b: Term):
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        # prefer the smaller term as representative
        if term_key(rb) < term_key(ra):
            ra, rb = rb, ra
        self.parent[rb] = ra

    def _canon(self, t: Term) -> Term:
        if isinstance(t, Var) or not isinstance(t, App) or not t.args:
            return self._find(t)
        return self._find(
            self._norm(App(t.symbol, tuple(self._canon(a) for a in t.args)))
        )

    def _rebuild(self):
        steps = 0
        changed = True
        while changed:
            changed = False
            steps += 1
            if steps > self.budget:
                raise BudgetExceeded("congruence closure did not converge")
            for t in list(self.known):
                c = self._canon(t)
                if self._find(t) != c:
                    self._union(self._find(t), c)
                    changed = True

    def representative(self, t: Term) -> Term:
        r = self._add(t)
        self._rebuild()
        return self._find(r)

    def class_members(self, t: Term) -> list[Term]:
        rep = self.representative(t)
        return [m for m in self.known if self._find(m) == rep]

    def same(self, a: Term, b: Term) -> bool:
        return self.representative(a) == self.representative(b)


class TermKeyedClosure:
    """Union-find over ground normal forms, closed under congruence and
    under rewriting by a background system.

    The closure is incremental, after Downey-Sethi-Tarjan (1980) and
    Nieuwenhuis-Oliveras (2007).  Each root keeps the members of its class
    and a use-list: the compound terms with an argument in its class.  A
    union queues the use-list of the root it absorbs, and a rebuild
    re-canonicalises only the queued terms."""

    def __init__(self, ground_eqs, rs: RewriteSystem, budget: int = 100_000):
        self.rs = rs
        self.budget = budget
        self.parent: dict[Term, Term] = {}
        self.known: set[Term] = set()
        self.members: dict[Term, list[Term]] = {}
        self.uses: dict[Term, list[Term]] = {}
        self.pending: list[Term] = []
        # Free variables act as inert constants (e.g. instance generators);
        # rewrite-rule variables never capture them.
        for eq in ground_eqs:
            self._union(self._add(eq.lhs), self._add(eq.rhs))
        self._rebuild()

    def _add(self, t: Term) -> Term:
        """Register t under both readings — rewrite the raw term, and
        rewrite with arguments replaced by their representatives — and
        union them.  The two can differ: a rule may only fire on the raw
        argument (e.g. a two-step path) while congruence only sees the
        representative."""
        t0 = normalize(t, self.rs)
        self._register(t0)
        if isinstance(t, App) and t.args:
            args = tuple(self._find(self._add(a)) for a in t.args)
            t1 = normalize(App(t.symbol, args), self.rs)
            self._register(t1)
            self._union(self._find(t0), self._find(t1))
        return self._find(t0)

    def _register(self, t: Term):
        if t in self.known:
            return
        self.known.add(t)
        self.parent[t] = t
        self.members[t] = [t]
        if isinstance(t, App) and t.args:
            for a in t.args:
                self._register(a)
                self.uses.setdefault(self._find(a), []).append(t)
            self.pending.append(t)

    def _find(self, t: Term) -> Term:
        while self.parent.get(t, t) != t:
            self.parent[t] = self.parent.get(self.parent[t], self.parent[t])
            t = self.parent[t]
        return t

    def _union(self, a: Term, b: Term):
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        # prefer the smaller term as representative
        if term_key(rb) < term_key(ra):
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.members[ra].extend(self.members.pop(rb))
        # The absorbed users stay users of the merged class: a later union
        # of ra must queue them again, since their canonical form need not
        # be registered when a rule rewrote it.
        absorbed = self.uses.pop(rb, [])
        self.pending.extend(absorbed)
        self.uses.setdefault(ra, []).extend(absorbed)

    def _rebuild(self):
        pops = 0
        while self.pending:
            pops += 1
            limit = self.budget * max(1, len(self.known))
            if pops > limit:
                raise BudgetExceeded(
                    f"congruence closure exceeded {limit} worklist steps")
            t = self.pending.pop()
            c = normalize(
                App(t.symbol, tuple(self._find(a) for a in t.args)), self.rs)
            self._register(c)
            self._union(t, c)

    def representative(self, t: Term) -> Term:
        r = self._add(t)
        self._rebuild()
        return self._find(r)

    def class_members(self, t: Term) -> list[Term]:
        return list(self.members[self.representative(t)])

    def same(self, a: Term, b: Term) -> bool:
        return self.representative(a) == self.representative(b)
