"""Word problems for presented theories: orientation, completion, normal forms.

Equations are oriented with a lexicographic path order whose precedence is
the reverse of symbol declaration order (the last declared symbol is the
greatest).  Completion is the unfailing flavour: unorientable equations are
kept and used for ordered rewriting instead of aborting the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush
from itertools import count

from .kernel import (
    AlgSignature, App, Context, Equation, Presentation, Term, Var,
    render_term, subst_map, term_key, term_size, term_vars,
)


class BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class Budget:
    """The limits on loops that can diverge: equations completion processes,
    rewrite steps per normalize call, closure worklist pops per registered
    term, and rows per entity.  `--budget N` sets critical_pairs and rows."""

    critical_pairs: int = 10_000
    rewrite_steps: int = 100_000
    closure_steps: int = 100_000
    rows: int = 10_000

    def exhausted(self, phase: str, limit: str) -> str:
        """The message for a phase that ran out of the named limit."""
        return f"{phase}: {limit} budget ({getattr(self, limit)}) exhausted"


DEFAULT_BUDGET = Budget()


class EqResult(Enum):
    Equal = "Equal"
    NotEqual = "NotEqual"
    Unknown = "Unknown"


class TermOrder:
    """Lexicographic path order over a total symbol precedence: a symbol's
    rank is its declaration index, so the last declared is the greatest."""

    def __init__(self, sig: AlgSignature):
        self._rank = {name: i for i, name in enumerate(sig.symbols)}

    def _prec(self, name: str) -> int:
        # Undeclared symbols (integer literals) rank below everything,
        # tie-broken by name so the order stays total.
        return self._rank.get(name, -1)

    def greater(self, s: Term, t: Term) -> bool:
        if s == t:
            return False
        if isinstance(s, Var):
            return False
        if isinstance(t, Var):
            return t.name in term_vars(s)
        assert isinstance(s, App) and isinstance(t, App)
        # (1) some argument of s dominates t
        for a in s.args:
            if a == t or self.greater(a, t):
                return True
        ps, pt = self._prec(s.symbol.name), self._prec(t.symbol.name)
        if ps == pt and s.symbol.name != t.symbol.name:
            ps, pt = (s.symbol.name, t.symbol.name)  # type: ignore[assignment]
        if ps > pt:  # (2) higher precedence head
            return all(self.greater(s, b) for b in t.args)
        if s.symbol.name == t.symbol.name:  # (3) lexicographic on arguments
            for a, b in zip(s.args, t.args):
                if a == b:
                    continue
                if self.greater(a, b):
                    return all(self.greater(s, c) for c in t.args)
                return False
        return False


@dataclass(frozen=True)
class RewriteRule:
    context: Context
    lhs: Term
    rhs: Term

    def __repr__(self):
        return f"{render_term(self.lhs)} ~> {render_term(self.rhs)}"


def orient(eq: Equation, order: TermOrder) -> RewriteRule | None:
    """The reducing orientation of eq, or None if neither side is greater."""
    if order.greater(eq.lhs, eq.rhs) and term_vars(eq.rhs) <= term_vars(eq.lhs):
        return RewriteRule(eq.context, eq.lhs, eq.rhs)
    if order.greater(eq.rhs, eq.lhs) and term_vars(eq.lhs) <= term_vars(eq.rhs):
        return RewriteRule(eq.context, eq.rhs, eq.lhs)
    return None


def match(pattern: Term, term: Term, subst: dict[str, Term] | None = None):
    """One-way matching: a substitution s with pattern[s] == term, or None."""
    if subst is None:
        subst = {}
    if isinstance(pattern, Var):
        bound = subst.get(pattern.name)
        if bound is None:
            subst[pattern.name] = term
            return subst
        return subst if bound == term else None
    if not isinstance(term, App) or term.symbol != pattern.symbol:
        return None
    for p, t in zip(pattern.args, term.args):
        if match(p, t, subst) is None:
            return None
    return subst


@dataclass
class RewriteSystem:
    rules: list[RewriteRule]
    order: TermOrder
    status: str  # "confluent" | "unoriented" | "budget-exhausted"
    unoriented: list[Equation] = field(default_factory=list)
    budget: Budget = DEFAULT_BUDGET

    def __post_init__(self):
        self._nf_cache: dict[Term, Term] = {}

    def normalize(self, term: Term) -> Term:
        return normalize(term, self)

    def decide_equal(self, t1: Term, t2: Term) -> EqResult:
        return decide_equal(t1, t2, self)


def _rewrite_head(term: Term, rs: RewriteSystem) -> Term | None:
    for rule in rs.rules:
        s = match(rule.lhs, term)
        if s is not None:
            return subst_map(rule.rhs, s)
    # ordered rewriting with the unorientable equations
    for eq in rs.unoriented:
        for big, small in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
            s = match(big, term)
            if s is not None and term_vars(small) <= term_vars(big):
                out = subst_map(small, s)
                if rs.order.greater(term, out):
                    return out
    return None


def normalize(term: Term, rs: RewriteSystem) -> Term:
    cached = rs._nf_cache.get(term)
    if cached is not None:
        return cached
    out = _normalize(term, rs, [rs.budget.rewrite_steps])
    rs._nf_cache[term] = out
    return out


def _normalize(term: Term, rs: RewriteSystem, left: list[int]) -> Term:
    # leftmost-innermost
    while True:
        cached = rs._nf_cache.get(term)
        if cached is not None:
            return cached
        if isinstance(term, App) and term.args:
            term = App(term.symbol, tuple(_normalize(a, rs, left) for a in term.args))
        reduced = _rewrite_head(term, rs)
        if reduced is None:
            return term
        left[0] -= 1
        if left[0] < 0:
            raise BudgetExceeded(rs.budget.exhausted("rewriting", "rewrite_steps"))
        term = reduced


def decide_equal(t1: Term, t2: Term, rs: RewriteSystem) -> EqResult:
    n1, n2 = normalize(t1, rs), normalize(t2, rs)
    if n1 == n2:
        return EqResult.Equal
    if rs.status == "confluent":
        return EqResult.NotEqual
    return EqResult.Unknown


# --- completion ---------------------------------------------------------


def _rename_apart(t: Term, suffix: str) -> Term:
    if isinstance(t, Var):
        return Var(t.name + suffix)
    return App(t.symbol, tuple(_rename_apart(a, suffix) for a in t.args))


def unify(a: Term, b: Term, subst: dict[str, Term] | None = None):
    if subst is None:
        subst = {}
    a, b = _walk(a, subst), _walk(b, subst)
    if a == b:
        return subst
    if isinstance(a, Var):
        if a.name in term_vars(_apply(b, subst)):
            return None
        subst[a.name] = b
        return subst
    if isinstance(b, Var):
        return unify(b, a, subst)
    if a.symbol != b.symbol:
        return None
    for x, y in zip(a.args, b.args):
        if unify(x, y, subst) is None:
            return None
    return subst


def _walk(t: Term, subst: dict[str, Term]) -> Term:
    while isinstance(t, Var) and t.name in subst:
        t = subst[t.name]
    return t


def _apply(t: Term, subst: dict[str, Term]) -> Term:
    t = _walk(t, subst)
    if isinstance(t, Var):
        return t
    return App(t.symbol, tuple(_apply(a, subst) for a in t.args))


def _positions(t: Term):
    """Non-variable positions of t as (path, subterm)."""
    if isinstance(t, Var):
        return
    yield (), t
    for i, a in enumerate(t.args):
        for path, sub in _positions(a):
            yield (i,) + path, sub


def _replace(t: Term, path: tuple[int, ...], new: Term) -> Term:
    if not path:
        return new
    assert isinstance(t, App)
    i = path[0]
    args = list(t.args)
    args[i] = _replace(args[i], path[1:], new)
    return App(t.symbol, tuple(args))


def _clash_free(s: Term, t: Term) -> bool:
    """No symbol clash between s and t, variables matching anything."""
    return (isinstance(s, Var) or isinstance(t, Var) or s.symbol == t.symbol
            and all(map(_clash_free, s.args, t.args)))


def _critical_pairs(r1: RewriteRule, r2: RewriteRule):
    """Critical pairs from overlapping r2's lhs into r1's lhs at each position
    clash-free with it (`unify` fails at any other), bar a root self-overlap."""
    paths = [path for path, sub in _positions(r1.lhs)
             if _clash_free(sub, r2.lhs) and (path or r1 is not r2)]
    if not paths:
        return
    l1 = _rename_apart(r1.lhs, "#1")
    rhs1 = _rename_apart(r1.rhs, "#1")
    l2 = _rename_apart(r2.lhs, "#2")
    rhs2 = _rename_apart(r2.rhs, "#2")
    at = dict(_positions(l1))
    for path in paths:
        s = unify(at[path], l2, {})
        if s is None:
            continue
        peak = _apply(l1, s)
        left = _apply(rhs1, s)
        right = _apply(_replace(l1, path, rhs2), s)
        if left != right:
            yield peak, left, right


def complete(pres: Presentation,
             budget: Budget = DEFAULT_BUDGET) -> RewriteSystem:
    """Unfailing Knuth-Bendix completion of a presentation."""
    order = TermOrder(pres.signature)
    rs = RewriteSystem([], order, "confluent", [], budget)
    limit = budget.critical_pairs
    # smallest first, ties in insertion order
    pending: list[tuple[int, int, Equation]] = []
    tick = count()
    processed = 0

    def queue(eq: Equation):
        heappush(pending, (term_size(eq.lhs) + term_size(eq.rhs), next(tick), eq))

    def push_rule(rule: RewriteRule):
        # interreduce: drop/revise existing rules the new rule touches
        kept = []
        probe = RewriteSystem([rule], order, "budget-exhausted", [], budget)
        for old in rs.rules:
            if normalize(old.lhs, probe) != old.lhs:
                queue(Equation(old.context, old.lhs, old.rhs, old.lhs.symbol.cod))
            else:
                kept.append(old)
        rs.rules = kept + [rule]
        rs._nf_cache = {}
        # reduce all right-hand sides by the full current system; a rule
        # whose right side is in normal form stays the same object
        rs.rules = [
            r if (rhs := normalize(r.rhs, rs)) is r.rhs
            else RewriteRule(r.context, r.lhs, rhs) for r in rs.rules
        ]
        rs._nf_cache = {}

    for eq in pres.equations:
        queue(eq)
    while pending:
        eq = heappop(pending)[2]
        processed += 1
        if processed > limit:
            break
        lhs, rhs = normalize(eq.lhs, rs), normalize(eq.rhs, rs)
        if lhs == rhs:
            continue
        o = orient(Equation(eq.context, lhs, rhs, eq.sort), order)
        if o is None:
            rs.unoriented.append(Equation(eq.context, lhs, rhs, eq.sort))
            rs._nf_cache = {}
            continue
        push_rule(o)
        # queue critical pairs of o with itself, and both ways with every
        # other rule; o's right side is already normal, so o is in rs.rules
        for other in list(rs.rules):
            for a, b in ((o, o),) if other is o else ((o, other), (other, o)):
                for _, left, right in _critical_pairs(a, b):
                    queue(Equation(eq.context, left, right, eq.sort))

    rs.status = ("budget-exhausted" if processed > limit
                 else "unoriented" if rs.unoriented else "confluent")
    rs.rules = [_tidy_rule(r) for r in rs.rules]
    rs._nf_cache = {}
    return rs


def _tidy_rule(rule: RewriteRule) -> RewriteRule:
    """Rename rule variables canonically (x, y, z, v3, ...)."""
    names: list[str] = []
    _collect_vars(rule.lhs, names)
    _collect_vars(rule.rhs, names)
    fresh = ["x", "y", "z"] + [f"v{i}" for i in range(3, len(names) + 3)]
    ren = {old: Var(new) for old, new in zip(names, fresh)}
    return RewriteRule(rule.context, subst_map(rule.lhs, ren),
                       subst_map(rule.rhs, ren))


def _collect_vars(t: Term, names: list[str]) -> None:
    """Append t's variables to names, in order of first occurrence."""
    if isinstance(t, Var):
        if t.name not in names:
            names.append(t.name)
    else:
        for a in t.args:
            _collect_vars(a, names)


# --- ground congruence closure -----------------------------------------


class GroundClosure:
    """Union-find over ground normal forms, closed under congruence and
    under rewriting by a background system.

    The closure is incremental, after Downey-Sethi-Tarjan (1980) and
    Nieuwenhuis-Oliveras (2007), over hash-consed integer nodes as in egg
    (Willsey et al. 2021).  Each root keeps its class members and a
    use-list: the compound terms with an argument in its class.  A union
    queues the use-list of the root it absorbs, and a rebuild re-canonicalises
    only the queued terms."""

    def __init__(self, ground_eqs, rs: RewriteSystem, budget=DEFAULT_BUDGET):
        self.rs = rs
        self.budget = budget
        self.ids: dict[Term, int] = {}  # hash-cons table: term -> node
        self.known = self.ids.keys()
        self.terms, self.keys, self.parent = [], [], []  # indexed by node
        self.members, self.uses = {}, {}  # root -> member, user terms
        self.pending: list[Term] = []
        self.closed = 0  # nodes below this id are closed: see _add
        # Free variables act as inert constants (e.g. instance generators);
        # rewrite-rule variables never capture them.
        for eq in ground_eqs:
            self._union(self._add(eq.lhs), self._add(eq.rhs))
        self._rebuild()

    def _add(self, t: Term) -> int:
        """Register t under both readings — rewrite the raw term, and
        rewrite with arguments replaced by their representatives — and
        union them.  The two can differ: a rule may only fire on the raw
        argument (e.g. a two-step path) while congruence only sees the
        representative.  A closed node needs neither: registered terms are
        normal forms, and at quiescence each registered f(args) has
        normalize(f(find(args))) in its class, which holds until a union."""
        i = self.ids.get(t, self.closed)
        if i < self.closed:
            return self._find(i)
        t0 = self._register(normalize(t, self.rs))
        if isinstance(t, App) and t.args:
            args = tuple(self.terms[self._add(a)] for a in t.args)
            t1 = self._register(normalize(App(t.symbol, args), self.rs))
            self._union(t0, t1)
        return self._find(t0)

    def _register(self, t: Term) -> int:
        i = self.ids.get(t)
        if i is None:
            i = self.ids[t] = len(self.terms)
            self.terms.append(t)
            self.keys.append(term_key(t))
            self.parent.append(i)
            self.members[i] = [t]
            if isinstance(t, App) and t.args:
                for a in t.args:
                    r = self._find(self._register(a))
                    self.uses.setdefault(r, []).append(t)
                self.pending.append(t)
        return i

    def _find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = i = self.parent[self.parent[i]]
        return i

    def _union(self, a: int, b: int):
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        self.closed = 0
        # prefer the smaller term as representative
        if self.keys[rb] < self.keys[ra]:
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
        pops, per_term = 0, self.budget.closure_steps
        while self.pending:
            pops += 1
            if pops > per_term * max(1, len(self.known)):
                raise BudgetExceeded(self.budget.exhausted(
                    "congruence closure", "closure_steps"))
            t = self.pending.pop()
            c = normalize(App(t.symbol, tuple(
                self.terms[self._find(self.ids[a])] for a in t.args)), self.rs)
            self._union(self.ids[t], self._register(c))
        self.closed = len(self.terms)

    def representative(self, t: Term) -> Term:
        r = self._add(t)
        self._rebuild()
        return self.terms[self._find(r)]

    def class_members(self, t: Term) -> list[Term]:
        return list(self.members[self.ids[self.representative(t)]])

    def same(self, a: Term, b: Term) -> bool:
        return self.representative(a) == self.representative(b)
