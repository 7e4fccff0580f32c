"""Hash-consing of sorts, function symbols, terms and canonical values.

While a kernel or type-side value lives, every construction with equal
fields gives back that one object, so `==` and `hash` are `object`'s.
The property tests compare identity against the field-by-field oracles in
`tests/term_oracle.py` and `tests/typeside_oracle.py`; the reclamation
tests check that the weak intern tables drop what nothing else holds.
"""

import gc
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

import catdb.kernel as kernel
import catdb.typeside as typeside
from catdb.kernel import App, Context, FunctionSymbol, Sort, Var, app
from catdb.typeside import (
    AND, BOOL, BTRUE, CONCAT, INT, LE, NOT, PLUS, STR, BAtom, BConst, BNode,
    IntPoly, StrWord, TypeAlgebra, _apply_subst, _bnot, int_term,
    str_literal, symbol_operation, ts_normalize,
)
from tests.term_oracle import structurally_equal
from tests.test_typeside_cache import PLAIN, terms
from tests.typeside_oracle import dataclass_text

A, B = Sort("A"), Sort("B")
VALUE_CLASSES = (IntPoly, StrWord, BConst, BAtom, BNode)
CLASSES = (Sort, FunctionSymbol, Var, App) + VALUE_CLASSES
TABLES = (kernel._APPS, kernel._VARS, kernel._SYMBOLS, kernel._SORTS)
# outer values first: a key holds its fields until its entry is swept
VALUE_TABLES = (typeside._BNODES, typeside._BATOMS, typeside._POLYS,
                typeside._WORDS, typeside._CONSTS)

N, M, S, P = Var("n"), Var("m"), Var("s"), Var("p")
ALG = TypeAlgebra(Context((("n", INT), ("m", INT), ("s", STR),
                           ("p", BOOL))))


def _le():
    return symbol_operation(LE)(ALG, IntPoly.atom(N), IntPoly.const(7))


def _node():
    return symbol_operation(AND)(ALG, BAtom(True, "var", (P,)), _le())


EXAMPLES = {
    "Sort": lambda: Sort("A"),
    "FunctionSymbol": lambda: FunctionSymbol("f", (Sort("A"),), Sort("B")),
    "Var": lambda: Var("x"),
    "App": lambda: App(FunctionSymbol("h", (A, A), A),
                       (Var("x"), App(FunctionSymbol("c", (), A)))),
    "IntPoly": lambda: IntPoly.atom(N).add(IntPoly.const(2)),
    "StrWord": lambda: StrWord.lit("ab").concat(StrWord.atom(S)),
    "BConst": lambda: BConst(True),
    "BAtom": _le,
    "BNode": _node,
}


@pytest.mark.parametrize("name", EXAMPLES)
def test_equal_constructions_are_one_object(name):
    x = EXAMPLES[name]()
    assert type(x).__name__ == name
    assert EXAMPLES[name]() is x


def test_fields_tell_values_apart():
    assert FunctionSymbol("f", (A,), B) is not FunctionSymbol("f", (B,), B)
    assert FunctionSymbol("f", (A,), B) is not FunctionSymbol("f", (A,), A)
    assert Sort("x") is not Var("x")
    c = FunctionSymbol("c", (), A)
    assert App(c) is App(c, ()) is App(symbol=c, args=())
    assert App(c) is not App(FunctionSymbol("c", (), B))


def test_args_are_a_tuple():
    with pytest.raises(TypeError):
        App(FunctionSymbol("f", (A,), A), [Var("x")])


@pytest.mark.parametrize("cls", CLASSES)
def test_eq_and_hash_are_objects(cls):
    assert cls.__eq__ is object.__eq__
    assert cls.__ne__ is object.__ne__
    assert cls.__hash__ is object.__hash__


@pytest.mark.parametrize("name", EXAMPLES)
def test_fields_cannot_be_set(name):
    x = EXAMPLES[name]()
    for field in type(x).__slots__:
        before = getattr(x, field)
        with pytest.raises(FrozenInstanceError):
            setattr(x, field, None)
        with pytest.raises(FrozenInstanceError):
            delattr(x, field)
        assert getattr(x, field) is before
    with pytest.raises(AttributeError):
        x.extra = 1
    assert not hasattr(x, "__dict__")


def test_values_reached_by_different_routes_are_one_object():
    assert IntPoly.const(2).add(IntPoly.const(3)) is IntPoly.const(5)
    assert BConst(True) is BTRUE
    assert IntPoly(()) is not StrWord(())
    for f in (BTRUE, BAtom(True, "var", (P,)), _le(), _node()):
        assert _bnot(_bnot(f)) is f
    # n + 2 by an operation, by a substitution and from a term
    two = IntPoly.const(2)
    plus = symbol_operation(PLUS)(ALG, IntPoly.atom(N), two)
    assert plus is _apply_subst(IntPoly.atom(N).add(IntPoly.atom(M)),
                                {M: two})
    assert plus is ts_normalize(app(PLUS, int_term(2), N), ALG)
    word = symbol_operation(CONCAT)(ALG, StrWord.lit("ab"), StrWord.atom(S))
    assert word is _apply_subst(StrWord.atom(M).concat(StrWord.atom(S)),
                                {M: StrWord.lit("ab")})
    assert word is ts_normalize(
        app(CONCAT, str_literal("a"), app(CONCAT, str_literal("b"), S)), ALG)
    assert _node() is ts_normalize(
        app(NOT, app(NOT, app(AND, P, app(LE, N, int_term(7))))), ALG)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(terms(), st.data())
def test_one_value_exactly_when_the_fields_are_equal(t1, data):
    t2 = data.draw(st.one_of(st.just(t1), terms()))
    a, b = ts_normalize(t1, PLAIN), ts_normalize(t2, PLAIN)
    assert (a is b) == (dataclass_text(a) == dataclass_text(b))
    assert (a == b) == (a is b)
    assert hash(a) == hash(ts_normalize(t1, PLAIN))


# A spec is ("var", name) or ("app", (name, dom, cod), args), over a small
# alphabet so that equal and nearly equal specs come up often.
SYMBOLS = st.tuples(st.sampled_from("fgc"),
                    st.lists(st.sampled_from("AB"), max_size=2).map(tuple),
                    st.sampled_from("AB"))


def specs(depth=3):
    leaf = st.tuples(st.just("var"), st.sampled_from("xy"))
    if depth == 0:
        return leaf
    return st.one_of(leaf, SYMBOLS.flatmap(lambda sym: st.tuples(
        st.just("app"), st.just(sym),
        st.tuples(*[specs(depth - 1)] * len(sym[1])))))


def build(spec, short: bool):
    """The value of spec; `short` spells a constant `App(c)` rather than
    `App(c, ())`."""
    if spec[0] == "var":
        return Var(spec[1])
    name, dom, cod = spec[1]
    sym = FunctionSymbol(name, tuple(Sort(s) for s in dom), Sort(cod))
    args = tuple(build(a, short) for a in spec[2])
    return App(sym) if short and not args else App(sym, args)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(specs(), st.data())
def test_one_object_exactly_when_structurally_equal(s1, data):
    s2 = data.draw(st.one_of(st.just(s1), specs()))
    a, b = build(s1, short=True), build(s2, short=False)
    assert build(s1, short=False) is a
    assert (a is b) == structurally_equal(a, b) == (s1 == s2)
    assert (a == b) == (a is b)
    assert hash(a) == hash(build(s1, short=True))


def _live(table) -> int:
    return sum(r() is not None for r in table.values())


def test_tables_reclaim_dead_values():
    step = FunctionSymbol("step", (A,), A)
    kept = App(step, (Var("kept"),))
    for i in range(20_000):
        Var(f"throwaway{i}")
    for i in range(200):
        t = Var(f"root{i}")
        for _ in range(100):
            t = App(step, (t,))
    del t
    gc.collect()
    assert not [k for k, r in kernel._VARS.items()
                if k.startswith("throwaway") and r() is not None]
    for table in TABLES:
        # A table is swept once it has doubled since its last sweep, and a
        # sweep leaves only the values then alive: at most the current
        # chain on top of the ones alive now.  No table sweeps below its
        # initial limit.
        assert len(table) <= 2 * (_live(table) + 101) + kernel._Table.limit
    # one sweep, terms first, drops every dead entry, whole chains included
    for table in TABLES:
        table.sweep()
        assert len(table) == _live(table)
    assert not [k for k in kernel._VARS if k.startswith(("throwaway", "root"))]
    assert [k for k in kernel._APPS if k[0] is step] == [(step, (Var("kept"),))]
    assert App(step, (Var("kept"),)) is kept


def test_value_tables_reclaim_dead_values():
    kept = StrWord.atom(Var("kept"))
    for i in range(200):
        _bnot(symbol_operation(LE)(ALG, IntPoly.atom(Var(f"gone{i}")),
                                   IntPoly.const(i)))
    gc.collect()
    for table in VALUE_TABLES:
        table.sweep()
        assert len(table) == _live(table)
    assert "gone" not in repr([list(table) for table in VALUE_TABLES])
    assert typeside._WORDS[(("atom", Var("kept")),)]() is kept
