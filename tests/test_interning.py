"""Hash-consing of sorts, function symbols and terms.

While a kernel value lives, every construction with equal fields gives
back that one object, so `==` and `hash` are `object`'s.  The property
test compares identity against the field-by-field oracle in
`tests/term_oracle.py`; the reclamation test checks that the weak intern
tables drop what nothing else holds.
"""

import gc
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

import catdb.kernel as kernel
from catdb.kernel import App, FunctionSymbol, Sort, Var
from tests.term_oracle import structurally_equal

A, B = Sort("A"), Sort("B")
CLASSES = (Sort, FunctionSymbol, Var, App)
TABLES = (kernel._APPS, kernel._VARS, kernel._SYMBOLS, kernel._SORTS)

EXAMPLES = {
    "Sort": lambda: Sort("A"),
    "FunctionSymbol": lambda: FunctionSymbol("f", (Sort("A"),), Sort("B")),
    "Var": lambda: Var("x"),
    "App": lambda: App(FunctionSymbol("h", (A, A), A),
                       (Var("x"), App(FunctionSymbol("c", (), A)))),
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
