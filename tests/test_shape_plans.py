"""Type-side evaluation by shape.

Atom-free arithmetic, `<=`, `eq` and `not` fold to their answers, and these
tests compare them with the unfolded operations of `tests/fold_oracle.py`.
A value's weight is kept on it and reads its `repr`, which must be the
text the value's frozen dataclass wrote (`tests/typeside_oracle.py`'s
`dataclass_text`); the weight must order values as that oracle's does.
`saturate` and the transform search compile each side shape once; the
counts of `SaturatedInstance.compile` calls are pinned on one workspace.
A crosscheck builds its result schema once.
"""

from hypothesis import given, settings, strategies as st

import catdb.query as query
from catdb.cli import run_cli
from catdb.dsl import parse_workspace
from catdb.instance import SaturatedInstance, enumerate_transforms, saturate
from catdb.kernel import Var, app
from catdb.typeside import (
    AND, BFALSE, BOOL, BTRUE, EQS, INT, LE, NEG, NOT, STR, TRUE,
    TYPE_SYMBOLS, BAtom, BConst, IntPoly, StrWord, TypeAlgebra, _bnot,
    _eq_atom, _le_atom, _value_weight, _weight, int_term, str_literal,
    symbol_operation, ts_normalize,
)
from tests import fold_oracle
from tests.conftest import FIXTURES
from tests.genfixtures import bench_company
from tests.test_typeside_cache import (
    ATTRS, NULLS, PLAIN, ROWS, algebras, terms,
)
from tests.typeside_oracle import (
    dataclass_text, value_pairs, value_weight, weight,
)

NULL_ATOMS = {INT: [Var("n1"), Var("n2")], STR: [Var("s1")],
              BOOL: [Var("b1")]}


# --- random values from nulls and literals -------------------------------


@st.composite
def polys(draw, depth=2):
    """An Int value over the nulls n1, n2 and small literals, built by the
    unfolded operations."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        if draw(st.booleans()):
            return IntPoly.const(draw(st.integers(-3, 3)))
        return IntPoly.atom(draw(st.sampled_from(NULL_ATOMS[INT])))
    op = draw(st.sampled_from((fold_oracle.add, fold_oracle.mul)))
    if draw(st.integers(0, 3)) == 0:
        return fold_oracle.neg(draw(polys(depth - 1)))
    return op(draw(polys(depth - 1)), draw(polys(depth - 1)))


@st.composite
def ground_polys(draw):
    return IntPoly.const(draw(st.integers(-5, 5)))


@st.composite
def words(draw):
    """A Str value of literal runs and, now and then, the null s1."""
    out = StrWord(())
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 3)) == 0:
            part = StrWord.atom(NULL_ATOMS[STR][0])
        else:
            part = StrWord.lit(draw(st.sampled_from(("a", "b", "ab", ""))))
        out = out.concat(part)
    return out


@st.composite
def forms(draw):
    """A Bool value: a constant, the null b1, or a `<=` or `eq` atom."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(st.sampled_from((BTRUE, BFALSE)))
    if kind == 1:
        return BAtom(True, "var", (NULL_ATOMS[BOOL][0],))
    if kind == 2:
        return fold_oracle.le_atom(draw(polys()), draw(polys()))
    return fold_oracle.eq_atom(draw(words()), draw(words()))


def same_value(got, want):
    assert got == want
    assert type(got) is type(want)
    if isinstance(want, IntPoly):
        assert got.terms == want.terms
    if isinstance(want, StrWord):
        assert got.items == want.items
    if isinstance(want, BConst):
        assert got is (BTRUE if want.value else BFALSE)


# --- ground folds --------------------------------------------------------


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(polys(), ground_polys()), st.one_of(polys(), ground_polys()))
def test_int_arithmetic_matches_the_unfolded_path(p, q):
    same_value(p.add(q), fold_oracle.add(p, q))
    same_value(p.mul(q), fold_oracle.mul(p, q))
    same_value(p.neg(), fold_oracle.neg(p))
    same_value(_le_atom(p, q), fold_oracle.le_atom(p, q))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(words(), words())
def test_string_equality_matches_the_unfolded_path(v, w):
    same_value(_eq_atom(v, w), fold_oracle.eq_atom(v, w))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(forms())
def test_negation_matches_the_unfolded_path(f):
    same_value(_bnot(f), fold_oracle.bnot(f))


def _args(draw, sym):
    kinds = {INT: st.one_of(polys(), ground_polys()), STR: words(),
             BOOL: forms()}
    return [draw(kinds[s]) for s in sym.dom]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(TYPE_SYMBOLS + (int_term(7).symbol,
                                       str_literal("ab").symbol)),
       st.data())
def test_symbol_operations_match_the_unfolded_path(sym, data):
    args = _args(data.draw, sym)
    same_value(symbol_operation(sym)(PLAIN, *args),
               fold_oracle.operation(sym)(PLAIN, *args))


def test_ground_answers_are_the_two_constants():
    three, four = IntPoly.const(3), IntPoly.const(4)
    assert _le_atom(three, four) is BTRUE and _le_atom(four, three) is BFALSE
    assert _eq_atom(StrWord.lit("ab"), StrWord.lit("ab")) is BTRUE
    assert _eq_atom(StrWord.lit("ab"), StrWord.lit("b")) is BFALSE
    assert _bnot(BTRUE) is BFALSE and _bnot(fold_oracle.bnot(BTRUE)) is BTRUE
    le = symbol_operation(LE)(PLAIN, three, four)
    assert symbol_operation(NOT)(PLAIN, le) is BFALSE
    assert symbol_operation(NEG)(PLAIN, three).terms == (((), -3),)


# --- weights ---------------------------------------------------------------


@st.composite
def weighed_values(draw):
    """An Int, Str or Bool value, ground or over nulls and attribute cells,
    or the complement of a Bool one."""
    v = ts_normalize(draw(terms(depth=3)), PLAIN)
    if draw(st.integers(0, 3)) == 0:
        v = v.neg() if isinstance(v, IntPoly) else \
            _bnot(v) if not isinstance(v, StrWord) else v
    return v


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(weighed_values(), min_size=2, max_size=8))
def test_weight_orders_values_as_the_repr_weight(vs):
    for v in vs:
        assert repr(v) == dataclass_text(v)
        assert _weight(v) == weight(v)
        assert _value_weight(v) == value_weight(v)
        assert _value_weight(v) is _value_weight(v)  # kept on the value
    assert sorted(vs, key=_value_weight) == sorted(vs, key=value_weight)
    for v in vs:
        for w in vs:
            assert (_value_weight(v) < _value_weight(w)) == \
                (value_weight(v) < value_weight(w))


def _every_kind():
    """Int, Str and Bool values: ground, over a null, over an attribute
    cell, and negated."""
    r1 = ROWS[0]
    out = []
    for sort, ground in ((INT, int_term(3)), (STR, str_literal("ab")),
                         (BOOL, app(TRUE))):
        null = Var(NULL_ATOMS[sort][0].name)
        cell = app(ATTRS[sort], r1)
        out += [ground, null, cell]
        if sort == INT:
            out += [app(NEG, null), app(NEG, cell),
                    app(LE, cell, int_term(2)), app(LE, null, cell)]
        if sort == STR:
            out += [app(EQS, null, ground), app(EQS, cell, null)]
        if sort == BOOL:
            out += [app(NOT, null), app(NOT, cell), app(NOT, ground),
                    app(AND, null, app(NOT, cell))]
    return [ts_normalize(t, PLAIN) for t in out]


def test_weight_orders_every_kind_as_the_repr_weight():
    vs = _every_kind()
    assert {(type(v).__name__, bool(v.atoms())) for v in vs} >= {
        (k, a) for k in ("IntPoly", "StrWord") for a in (False, True)}
    assert sorted(vs, key=_value_weight) == sorted(vs, key=value_weight)
    for v in vs:
        assert repr(v) == dataclass_text(v)
        assert _value_weight(v) == value_weight(v)


# --- simplify is idempotent ------------------------------------------------


@settings(max_examples=150, deadline=None, derandomize=True)
@given(algebras(), st.lists(terms(), max_size=4))
def test_simplified_values_are_fixed_points(hyps, probes):
    # the transform search takes a type generator's binding, a simplified
    # value, as the value of a side that is that generator alone
    alg = TypeAlgebra(NULLS, value_pairs(NULLS, hyps))
    if alg.inconsistent:
        return
    for t in probes + [t for e in hyps for t in (e.lhs, e.rhs)]:
        v = ts_normalize(t, alg)
        assert alg.simplify(v) == v


# --- compiles per shape ----------------------------------------------------


def _counting_compile(monkeypatch):
    calls = []
    real = SaturatedInstance.compile

    def counting(self, t, *args, **kwargs):
        calls.append(t)
        return real(self, t, *args, **kwargs)

    monkeypatch.setattr(SaturatedInstance, "compile", counting)
    return calls


def test_sides_compile_once_per_shape(monkeypatch):
    text = bench_company(1, 36, 7, null_share=0.25, salaries=(300, 600))
    ws = parse_workspace(text, "company")
    W = ws.instances["W"]
    want = enumerate_transforms(W, saturate(W))
    calls = _counting_compile(monkeypatch)
    si = saturate(W)
    # 79 type equations: the shapes ?0.sal, ?0.last, ?0.name and ?0 (a
    # literal or a null), and the two sides of the observable equation
    assert len(calls) == 6
    calls.clear()
    got = enumerate_transforms(W, si)
    # 6 shapes over one generator (?0.sal, ?0.mgr, ...) and 46 ground
    # sides; a side that is one generator alone takes its binding
    holes = [t for t in calls if "?" in repr(t)]
    assert len(holes) == 6 and len(calls) == 52
    assert [t.render() for t in got] == [t.render() for t in want]


def test_crosscheck_builds_the_result_schema_once(monkeypatch, capsys):
    # a workspace of its own: a Q that an earlier test prepared builds none
    ws = parse_workspace((FIXTURES / "paper.cdb").read_text(encoding="utf-8"),
                         "paper.cdb")
    Q, satJ = ws.queries["Q"], saturate(ws.instances["J"])
    calls = []
    real = query.compile_schema

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(query, "compile_schema", counting)
    assert query.crosscheck_migration(Q, satJ) == "ok"
    assert len(calls) == 1
    calls.clear()
    assert query.crosscheck_migration(Q, satJ) == "ok"
    assert len(calls) == 0
    code = run_cli(["query", str(FIXTURES / "paper.cdb"), "--query", "Q",
                    "--instance", "J", "--crosscheck"])
    assert code == 0 and capsys.readouterr().out.endswith("crosscheck: ok\n")
    assert len(calls) == 1
    R = query.result_schema(Q)
    R1, M1 = query.query_to_bimodule(Q)
    assert R1 is R and M1.src is R
    assert query.query_to_bimodule(Q)[1] is M1
