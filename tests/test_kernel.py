"""Terms, contexts, substitution, and term enumeration."""

import itertools
import random

import pytest

from catdb.kernel import (
    AlgSignature, App, AritySortMismatch, Context, ContextMorphism,
    FunctionSymbol, KernelError, Sort, SortMismatch, Term, UnknownSymbol,
    UnknownVariable, Var, app, compose_ctx_morphisms, ctx, enumerate_terms,
    render_term, substitute, subst_map, term_height, term_key, term_size,
    term_vars,
)
from tests.term_oracle import well_sort_check

A, B = Sort("A"), Sort("B")
c = FunctionSymbol("c", (), A)
d = FunctionSymbol("d", (), B)
f = FunctionSymbol("f", (A,), A)
g = FunctionSymbol("g", (A,), B)
h = FunctionSymbol("h", (A, B), A)
SIG = AlgSignature((A, B), (c, d, f, g, h))
CTX = ctx(("x", A), ("y", B))


def random_term(rng: random.Random, sort: Sort, depth: int) -> Term:
    choices = []
    for n, s in CTX.bindings:
        if s == sort:
            choices.append(("var", n))
    for sym in (c, d, f, g, h):
        if sym.cod == sort and (depth > 0 or sym.arity == 0):
            choices.append(("app", sym))
    kind, pick = rng.choice(choices)
    if kind == "var":
        return Var(pick)
    return App(pick, tuple(random_term(rng, s, depth - 1) for s in pick.dom))


def random_endo(rng: random.Random) -> ContextMorphism:
    return ContextMorphism.make(CTX, CTX, {
        n: random_term(rng, s, rng.randrange(3)) for n, s in CTX.bindings})


class TestWellSorting:
    def test_simple_terms(self):
        assert well_sort_check(Var("x"), CTX, SIG) == A
        assert well_sort_check(app(g, app(f, Var("x"))), CTX, SIG) == B
        assert well_sort_check(app(h, app(c), Var("y")), CTX, SIG) == A

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            well_sort_check(Var("z"), CTX, SIG)

    def test_unknown_symbol(self):
        rogue = FunctionSymbol("rogue", (), A)
        with pytest.raises(UnknownSymbol):
            well_sort_check(app(rogue), CTX, SIG)

    def test_wrong_argument_sort(self):
        with pytest.raises((AritySortMismatch, SortMismatch)):
            well_sort_check(app(f, Var("y")), CTX, SIG)

    def test_duplicate_context_variable(self):
        with pytest.raises(KernelError):
            Context((("x", A), ("x", B)))


class TestSubstitution:
    def test_identity_substitution(self, rng):
        ident = ContextMorphism.make(CTX, CTX, {"x": Var("x"), "y": Var("y")})
        for _ in range(200):
            t = random_term(rng, rng.choice((A, B)), 4)
            assert substitute(t, ident) == t

    def test_composition_law(self, rng):
        # (g after f)(t) built by compose_ctx_morphisms must equal the
        # two-step substitution, on many random terms.
        for _ in range(1000):
            fm, gm = random_endo(rng), random_endo(rng)
            comp = compose_ctx_morphisms(fm, gm)
            t = random_term(rng, rng.choice((A, B)), 3)
            assert substitute(t, comp) == substitute(substitute(t, gm), fm)

    def test_substitution_preserves_sort(self, rng):
        for _ in range(300):
            m = random_endo(rng)
            s = rng.choice((A, B))
            t = random_term(rng, s, 3)
            assert well_sort_check(substitute(t, m), CTX, SIG) == s

    def test_missing_assignment(self):
        with pytest.raises(UnknownVariable):
            subst_map(Var("x"), {})


class TestTermMetrics:
    def test_height_and_size(self):
        t = app(h, app(f, app(c)), app(g, Var("x")))
        assert term_height(t) == 3
        assert term_size(t) == 5
        assert term_vars(t) == {"x"}

    def test_size_bounds_height(self, rng):
        for _ in range(500):
            t = random_term(rng, rng.choice((A, B)), 4)
            assert term_height(t) <= term_size(t)
            assert term_vars(t) <= {"x", "y"}

    def test_term_key_total_order(self, rng):
        terms = [random_term(rng, A, 3) for _ in range(50)]
        keys = sorted(terms, key=term_key)
        assert sorted(keys, key=term_key) == keys
        for t in terms:
            assert term_key(t) == term_key(t)


class TestRender:
    def test_postfix_paths(self):
        assert render_term(app(g, app(f, Var("x")))) == "x.f.g"
        assert render_term(app(h, app(c), Var("y"))) == "h(c, y)"


def brute_terms(sort: Sort, height: int) -> set[Term]:
    """Independent oracle: all terms of the test signature by height."""
    pools: dict[Sort, set[Term]] = {
        A: {Var("x")}, B: {Var("y")}}
    for _ in range(height):
        nxt = {A: set(pools[A]), B: set(pools[B])}
        nxt[A].add(app(c))
        nxt[B].add(app(d))
        nxt[A] |= {app(f, t) for t in pools[A]}
        nxt[B] |= {app(g, t) for t in pools[A]}
        nxt[A] |= {app(h, t, u) for t, u in
                   itertools.product(pools[A], pools[B])}
        pools = nxt
    return pools[sort]


class TestEnumeration:
    @pytest.mark.parametrize("sort", (A, B))
    @pytest.mark.parametrize("height", (0, 1, 2, 3))
    def test_matches_brute_force(self, sort, height):
        got = enumerate_terms(SIG, CTX, sort, height)
        assert len(got) == len(set(got)), "no duplicates"
        assert set(got) == brute_terms(sort, height)

    def test_deterministic(self):
        a = enumerate_terms(SIG, CTX, A, 3)
        b = enumerate_terms(SIG, CTX, A, 3)
        assert a == b
