"""The built-in theory of Int, Bool, Str and its canonical values."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from catdb.kernel import AlgSignature, Context, Sort, Term, Var, app
from catdb.rewrite import EqResult
from catdb.typeside import (
    AND, BOOL, CONCAT, EPS, FALSE, INT, LE, NEG, NOT, OR, PLUS, STR,
    TIMES, TRUE, EQS, TypeAlgebra, decide_values, int_term,
    TYPE_SORTS, TYPE_SYMBOLS, map_value_atoms, opaque_atom, str_literal,
    ts_normalize, value_sort, value_to_term,
)


def eval_ground(t: Term):
    """The canonical value of a closed type term, which has no atoms."""
    v = ts_normalize(t)
    assert not v.atoms(), t
    return v


def ts_decide(a: Term, b: Term) -> EqResult:
    return decide_values(ts_normalize(a), ts_normalize(b))


def int_expr(rng: random.Random, depth: int):
    """Random integer expression plus its Python value (the oracle)."""
    if depth == 0 or rng.random() < 0.3:
        n = rng.randrange(-20, 21)
        return int_term(n) if n >= 0 else app(NEG, int_term(-n)), n
    op = rng.choice(("plus", "times", "neg"))
    a, va = int_expr(rng, depth - 1)
    if op == "neg":
        return app(NEG, a), -va
    b, vb = int_expr(rng, depth - 1)
    if op == "plus":
        return app(PLUS, a, b), va + vb
    return app(TIMES, a, b), va * vb


class TestIntegerEvaluation:
    def test_random_arithmetic_against_python(self, rng):
        for _ in range(500):
            t, v = int_expr(rng, 3)
            want = int_term(v) if v >= 0 else app(NEG, int_term(-v))
            assert eval_ground(t) == eval_ground(want), (t, v)

    def test_comparison_facts(self, rng):
        for _ in range(300):
            t1, v1 = int_expr(rng, 2)
            t2, v2 = int_expr(rng, 2)
            got = eval_ground(app(LE, t1, t2))
            want = eval_ground(app(TRUE) if v1 <= v2 else app(FALSE))
            assert got == want, (v1, v2)


class TestStrings:
    def test_concat_normalizes_to_joined_word(self):
        t = app(CONCAT, str_literal("Ad"), app(CONCAT, app(EPS),
                                               str_literal("min")))
        assert eval_ground(t) == eval_ground(str_literal("Admin"))

    def test_unit_laws(self, rng):
        for _ in range(100):
            s = "".join(rng.choice("abcXYZ")
                        for _ in range(rng.randrange(5)))
            w = str_literal(s)
            assert eval_ground(app(CONCAT, app(EPS), w)) == eval_ground(w)
            assert eval_ground(app(CONCAT, w, app(EPS))) == eval_ground(w)

    def test_string_equality_decidable(self):
        assert eval_ground(app(EQS, str_literal("HR"), str_literal("HR"))) \
            == eval_ground(app(TRUE))
        assert eval_ground(app(EQS, str_literal("HR"), str_literal("IT"))) \
            == eval_ground(app(FALSE))

    def test_rejects_non_letters(self):
        with pytest.raises(ValueError):
            str_literal("no spaces")

    def test_literal_is_one_constant(self):
        t = str_literal("Gauss")
        assert t.args == () and t.symbol.name == '"Gauss"'
        assert t.symbol.cod == STR
        assert repr(t) == '"Gauss"'
        assert str_literal("Gauss") == t and str_literal("Gaus") != t

    def test_long_literal_normalizes(self):
        s = "xY" * 10_000
        v = eval_ground(str_literal(s))
        assert v.literal_value() == s and v.render() == f'"{s}"'

    def test_no_letter_symbols(self):
        assert [f for f in TYPE_SYMBOLS if f.arity == 0 and f.cod == STR] \
            == [EPS]

    def test_literals_admitted_where_str_exists(self):
        with_str = AlgSignature(TYPE_SORTS, TYPE_SYMBOLS)
        without = AlgSignature((INT,), ())
        sym = str_literal("HR").symbol
        assert with_str.has_symbol(sym) and not without.has_symbol(sym)

    def test_letter_runs_become_one_constant_each(self):
        a = Var("a")
        alg = TypeAlgebra(Context((("a", STR),)))
        t = app(CONCAT, str_literal("ab"),
                app(CONCAT, str_literal("c"), app(CONCAT, a, str_literal("de"))))
        v = ts_normalize(t, alg)
        assert value_to_term(v) == app(
            CONCAT, str_literal("abc"), app(CONCAT, a, str_literal("de")))
        assert value_to_term(ts_normalize(str_literal(""))) == app(EPS)


class TestBooleans:
    def test_truth_tables(self):
        tt = {True: app(TRUE), False: app(FALSE)}
        for a in (False, True):
            assert eval_ground(app(NOT, tt[a])) == eval_ground(tt[not a])
            for b in (False, True):
                assert eval_ground(app(AND, tt[a], tt[b])) \
                    == eval_ground(tt[a and b])
                assert eval_ground(app(OR, tt[a], tt[b])) \
                    == eval_ground(tt[a or b])


class TestHypotheses:
    def test_null_constraint_simplifies(self, ws):
        # the J fixture carries the hypothesis (150 <= x) = true
        from catdb.instance import saturate
        alg = saturate(ws.instances["J"]).typealg
        v = ts_normalize(app(LE, int_term(150), Var("x")), alg)
        assert decide_values(v, ts_normalize(app(TRUE), alg)) \
            == EqResult.Equal
        free = ts_normalize(app(LE, Var("x"), int_term(150)), alg)
        assert decide_values(free, ts_normalize(app(TRUE), alg)) \
            != EqResult.Equal

    def test_residual_constraints_reported(self, ws):
        from catdb.instance import saturate
        alg = saturate(ws.instances["J"]).typealg
        assert [n for n, _ in alg.nulls.bindings] == ["x"]
        assert any("150" in c and "x" in c
                   for c in alg.residual_constraints())


class TestValueTermRoundTrip:
    def test_int_round_trip(self, rng):
        for _ in range(200):
            t, v = int_expr(rng, 2)
            val = eval_ground(t)
            back = eval_ground(value_to_term(val))
            assert back == val

    def test_opaque_atoms_preserved(self):
        at = app(LE, Var("x"), int_term(3))
        v = opaque_atom(Var("u"), INT)
        assert value_sort(v) == INT
        seen = []
        map_value_atoms(v, lambda a: seen.append(a) or opaque_atom(a, INT))
        assert seen == [Var("u")]

    def test_decide_unknown_between_distinct_nulls(self):
        u = opaque_atom(Var("u"), INT)
        w = opaque_atom(Var("w"), INT)
        assert decide_values(u, w) == EqResult.Unknown
        assert decide_values(u, u) == EqResult.Equal


ints = st.integers(min_value=-30, max_value=30)


class TestAlgebraicLaws:
    @settings(max_examples=200, deadline=None)
    @given(ints, ints, ints)
    def test_ring_laws_on_literals(self, a, b, c):
        def lit(n):
            return int_term(n) if n >= 0 else app(NEG, int_term(-n))

        lhs = app(TIMES, lit(a), app(PLUS, lit(b), lit(c)))
        rhs = app(PLUS, app(TIMES, lit(a), lit(b)),
                  app(TIMES, lit(a), lit(c)))
        assert eval_ground(lhs) == eval_ground(rhs)
        assert ts_decide(app(PLUS, lit(a), lit(b)),
                         app(PLUS, lit(b), lit(a))) == EqResult.Equal
