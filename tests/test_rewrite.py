"""Completion, normalization, word problems, and ground congruence."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from catdb.kernel import (
    AlgSignature, App, Context, Equation, FunctionSymbol, Presentation,
    Sort, Term, Var, app, ctx, enumerate_terms, term_key,
)
from catdb.rewrite import (
    Budget, BudgetExceeded, EqResult, GroundClosure, RewriteSystem, TermOrder,
    complete, decide_equal, match, normalize, unify,
)

G = Sort("G")
ONE = FunctionSymbol("1", (), G)
CA = FunctionSymbol("a", (), G)
CB = FunctionSymbol("b", (), G)
MUL = FunctionSymbol("*", (G, G), G)
INV = FunctionSymbol("inv", (G,), G)
GSIG = AlgSignature((G,), (ONE, CA, CB, MUL, INV))

x, y, z = Var("x"), Var("y"), Var("z")
GCTX = ctx(("x", G), ("y", G), ("z", G))


def mul(a, b):
    return app(MUL, a, b)


def inv(t):
    return app(INV, t)


def group_presentation() -> Presentation:
    return Presentation(GSIG, (
        Equation(GCTX, mul(mul(x, y), z), mul(x, mul(y, z)), G),
        Equation(GCTX, mul(inv(x), x), app(ONE), G),
        Equation(GCTX, mul(app(ONE), x), x, G),
    ))


@pytest.fixture(scope="module")
def grs():
    return complete(group_presentation())


class TestGroupCompletion:
    def test_confluent_and_interreduced(self, grs):
        assert grs.status == "confluent"
        assert not grs.unoriented
        for i, rule in enumerate(grs.rules):
            others = RewriteSystem(
                [r for j, r in enumerate(grs.rules) if j != i],
                grs.order, "confluent", [])
            # no other rule rewrites this left-hand side ...
            assert normalize(rule.lhs, others) == rule.lhs
            # ... and every right-hand side is in normal form.
            assert normalize(rule.rhs, grs) == rule.rhs

    def test_reproduces_known_rule_behaviors(self, grs):
        # each classical group rewrite collapses under the completed system
        expected = [
            (mul(app(ONE), x), x),
            (mul(inv(x), x), app(ONE)),
            (mul(mul(x, y), z), mul(x, mul(y, z))),
            (mul(inv(x), mul(x, y)), y),
            (inv(app(ONE)), app(ONE)),
            (mul(x, app(ONE)), x),
            (inv(inv(x)), x),
            (mul(x, inv(x)), app(ONE)),
            (mul(x, mul(inv(x), y)), y),
            (inv(mul(x, y)), mul(inv(y), inv(x))),
        ]
        for lhs, rhs in expected:
            assert normalize(lhs, grs) == normalize(rhs, grs), (lhs, rhs)

    def test_equal_word_problem(self, grs):
        a, b = app(CA), app(CB)
        t1 = mul(mul(inv(a), a), mul(b, inv(b)))
        t2 = mul(b, mul(inv(mul(a, b)), a))
        assert normalize(t1, grs) == app(ONE)
        assert normalize(t2, grs) == app(ONE)
        assert grs.decide_equal(t1, t2) == EqResult.Equal

    def test_not_equal_word_problem(self, grs):
        a, b = app(CA), app(CB)
        t1 = mul(app(ONE), mul(a, b))
        t2 = mul(b, mul(app(ONE), a))
        assert normalize(t1, grs) == mul(a, b)
        assert normalize(t2, grs) == mul(b, a)
        assert grs.decide_equal(t1, t2) == EqResult.NotEqual

    def test_budget_exhaustion_reported(self):
        rs = complete(group_presentation(), budget=Budget(critical_pairs=2))
        assert rs.status == "budget-exhausted"


def group_words(depth: int):
    """Ground group terms over a, b up to a syntactic depth."""
    return enumerate_terms(GSIG, Context(()), G, depth)


class TestNormalization:
    def test_idempotent_on_ground_terms(self, grs):
        for t in group_words(3):
            n = normalize(t, grs)
            assert normalize(n, grs) == n

    def test_agrees_with_free_group_oracle(self, grs):
        # interpret terms as reduced words in the free group on a, b;
        # equality of reduced words must match decide_equal.
        def word(t) -> tuple:
            if t.symbol == ONE:
                return ()
            if t.symbol in (CA, CB):
                return ((t.symbol.name, 1),)
            if t.symbol == INV:
                return tuple((s, -e) for s, e in reversed(word(t.args[0])))
            out = list(word(t.args[0]))
            for s, e in word(t.args[1]):
                if out and out[-1][0] == s and out[-1][1] == -e:
                    out.pop()
                else:
                    out.append((s, e))
            return tuple(out)

        terms = group_words(3)
        rng = random.Random(7)
        for _ in range(400):
            t1, t2 = rng.choice(terms), rng.choice(terms)
            want = EqResult.Equal if word(t1) == word(t2) else EqResult.NotEqual
            assert grs.decide_equal(t1, t2) == want, (t1, t2)


_GRS_CACHE: list = []


def cached_grs() -> RewriteSystem:
    if not _GRS_CACHE:
        _GRS_CACHE.append(complete(group_presentation()))
    return _GRS_CACHE[0]


gterm = st.deferred(lambda: st.one_of(
    st.just(app(ONE)), st.just(app(CA)), st.just(app(CB)),
    st.builds(inv, gterm), st.builds(mul, gterm, gterm)))


class TestNormalizationProperties:
    @settings(max_examples=200, deadline=None)
    @given(gterm)
    def test_normal_form_is_fixed_point(self, t):
        rs = cached_grs()
        n = normalize(t, rs)
        assert normalize(n, rs) == n

    @settings(max_examples=100, deadline=None)
    @given(gterm, gterm)
    def test_congruence(self, t1, t2):
        rs = cached_grs()
        if rs.decide_equal(t1, t2) == EqResult.Equal:
            assert rs.decide_equal(inv(t1), inv(t2)) == EqResult.Equal
            assert rs.decide_equal(mul(t1, app(CA)),
                                   mul(t2, app(CA))) == EqResult.Equal


class TestMatchingUnification:
    def test_match_basic(self):
        s = match(mul(x, inv(x)), mul(app(CA), inv(app(CA))))
        assert s == {"x": app(CA)}
        assert match(mul(x, inv(x)), mul(app(CA), inv(app(CB)))) is None

    def test_unify_symmetric(self):
        s = unify(mul(x, app(CB)), mul(app(CA), y))
        assert s is not None
        assert unify(app(CA), app(CB)) is None

    def test_unify_occurs_check(self):
        assert unify(x, mul(x, y)) is None


class TestGroundClosure:
    def make_syms(self):
        E = Sort("E")
        k1 = FunctionSymbol("k1", (), E)
        k2 = FunctionSymbol("k2", (), E)
        k3 = FunctionSymbol("k3", (), E)
        fe = FunctionSymbol("fe", (E,), E)
        return E, (k1, k2, k3), fe

    def naive_closure(self, universe, eqs):
        """Oracle: fixpoint congruence closure by pairwise merging."""
        parent = {t: t for t in universe}

        def find(t):
            while parent[t] != t:
                t = parent[t]
            return t

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for l, r in eqs:
            union(l, r)
        changed = True
        while changed:
            changed = False
            for t1, t2 in itertools.combinations(universe, 2):
                if find(t1) == find(t2):
                    continue
                if (isinstance(t1, App) and isinstance(t2, App)
                        and t1.symbol == t2.symbol and t1.args and
                        all(find(a) == find(b)
                            for a, b in zip(t1.args, t2.args))):
                    union(t1, t2)
                    changed = True
        return find

    def test_matches_naive_congruence_closure(self, rng):
        E, (k1, k2, k3), fe = self.make_syms()
        empty = RewriteSystem([], TermOrder(
            AlgSignature((E,), (k1, k2, k3, fe))), "confluent", [])
        consts = [app(k1), app(k2), app(k3)]
        universe = consts + [app(fe, c) for c in consts] \
            + [app(fe, app(fe, c)) for c in consts]
        for _ in range(50):
            eqs = [tuple(rng.sample(universe, 2))
                   for _ in range(rng.randrange(1, 5))]
            cl = GroundClosure(
                [Equation(Context(()), l, r, E) for l, r in eqs], empty)
            find = self.naive_closure(universe, eqs)
            for t1, t2 in itertools.combinations(universe, 2):
                assert (cl.representative(t1) == cl.representative(t2)) \
                    == (find(t1) == find(t2)), (eqs, t1, t2)

    def test_class_members_cover_equated_terms(self):
        E, (k1, k2, k3), fe = self.make_syms()
        empty = RewriteSystem([], TermOrder(
            AlgSignature((E,), (k1, k2, k3, fe))), "confluent", [])
        eqs = [Equation(Context(()), app(fe, app(k1)), app(k2), E)]
        cl = GroundClosure(eqs, empty)
        members = cl.class_members(app(k2))
        assert app(fe, app(k1)) in members and app(k2) in members


def test_completion_builds_one_probe_per_pushed_rule(grp_ws, monkeypatch):
    # Grp pushes 17 rules; each needs one probe system to interreduce by
    built = []
    init = RewriteSystem.__post_init__

    def counted(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(RewriteSystem, "__post_init__", counted)
    rs = complete(grp_ws.theories["Grp"])
    assert rs.status == "confluent" and len(rs.rules) == 10
    assert len(built) <= 18
