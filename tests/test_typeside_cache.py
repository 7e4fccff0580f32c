"""Cached atom sets and the shortcuts they allow.

Canonical values are hash-consed (`tests/test_interning.py`) and keep
their atom set after computing it once, `_apply_subst` gives back a value
none of whose atoms it replaces, and `TypeAlgebra.simplify` gives back an
atom-free value at once.  These tests compare the shortcuts against the
rebuilding oracle in `tests/typeside_oracle.py`.
"""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import catdb.typeside as typeside
from catdb.kernel import Context, Equation, FunctionSymbol, Sort, Var, app
from catdb.typeside import (
    AND, BOOL, CONCAT, EPS, EQS, FALSE, INT, LE, NEG, NOT, OR, PLUS, STR,
    TIMES, TRUE, BAtom, BNode, IntPoly, StrWord, TypeAlgebra, _apply_subst,
    _bnot, int_term, str_literal, symbol_operation, ts_normalize,
)
from tests.genfixtures import type_equations_workspace, typeside_instance
from tests.test_cli import run_module
from tests.typeside_oracle import (
    OracleTypeAlgebra, apply_subst, canon, simplify, value_pairs,
)

ITEM = Sort("Item")
NULLS = Context((("n1", INT), ("n2", INT), ("s1", STR), ("b1", BOOL)))
PLAIN = TypeAlgebra(NULLS)
ATTRS = {INT: FunctionSymbol("qty", (ITEM,), INT),
         STR: FunctionSymbol("tag", (ITEM,), STR),
         BOOL: FunctionSymbol("flag", (ITEM,), BOOL)}
ROWS = (Var("r1"), Var("r2"))


def _poly():
    return symbol_operation(PLUS)(PLAIN, IntPoly.atom(Var("n")),
                                  IntPoly.const(2))


def _node():
    le = symbol_operation(LE)(PLAIN, _poly(), IntPoly.const(7))
    return symbol_operation(AND)(PLAIN, BAtom(True, "var", (Var("b"),)), le)


def _word():
    return StrWord.lit("ab").concat(StrWord.atom(Var("s")))


def test_atoms_are_one_cached_frozenset():
    for make in (_poly, _word, _node):
        v = make()
        got = v.atoms()
        assert isinstance(got, frozenset)
        assert v.atoms() is got
        assert make() is v
    assert typeside.BTRUE.atoms() == frozenset()


def _atom_leaves(sort):
    nulls = [Var(n) for n, s in NULLS.bindings if s == sort]
    return nulls + [app(ATTRS[sort], r) for r in ROWS]


LEAVES = {
    INT: _atom_leaves(INT) + [int_term(0), int_term(1), int_term(2),
                              app(NEG, int_term(3))],
    STR: _atom_leaves(STR) + [str_literal("a"), str_literal("ab"),
                              str_literal("c"), app(EPS)],
    BOOL: _atom_leaves(BOOL) + [app(TRUE), app(FALSE)],
}
BRANCHES = {INT: (PLUS, TIMES, NEG), STR: (CONCAT,),
            BOOL: (NOT, AND, OR, LE, EQS)}
ATOMS = _atom_leaves(INT) + _atom_leaves(STR) + _atom_leaves(BOOL)


def _term(draw, sort, depth):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(st.sampled_from(LEAVES[sort]))
    sym = draw(st.sampled_from(BRANCHES[sort]))
    return app(sym, *(_term(draw, d, depth - 1) for d in sym.dom))


@st.composite
def terms(draw, sort=None, depth=3):
    if sort is None:
        sort = draw(st.sampled_from((INT, STR, BOOL)))
    return _term(draw, sort, depth)


@st.composite
def values(draw, alg=None, depth=3):
    """A canonical value, built by normalising a random term."""
    return ts_normalize(draw(terms(depth=depth)), alg or PLAIN)


@st.composite
def substitutions(draw, favoured=()):
    """Some atoms, the favoured ones more often, each mapped to a value of
    its own sort or, now and then, of another sort."""
    pool = sorted(favoured, key=repr) * 5 + ATOMS
    out = {}
    for atom in draw(st.lists(st.sampled_from(pool), max_size=4,
                              unique=True)):
        out[atom] = draw(values(depth=2))
    return out


@st.composite
def algebras(draw):
    hyps = []
    for _ in range(draw(st.integers(0, 4))):
        sort = draw(st.sampled_from((INT, STR, BOOL)))
        hyps.append(Equation(NULLS, draw(terms(sort, 2)),
                             draw(terms(sort, 2)), sort))
    return hyps


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values(), st.data())
def test_apply_subst_matches_rebuilding_oracle(v, data):
    subst = data.draw(substitutions(v.atoms()))
    assert _apply_subst(v, subst) == apply_subst(v, subst)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(terms(INT, depth=4), st.data())
def test_integer_substitution_matches_rebuilding_oracle(t, data):
    """Every atom of a polynomial mapped to an integer: `_apply_subst`
    gives one constant, the object the oracle builds step by step."""
    v = ts_normalize(t, PLAIN)
    subst = {a: IntPoly.const(data.draw(st.integers(-9, 9)))
             for a in sorted(v.atoms(), key=repr)}
    got = _apply_subst(v, subst)
    assert got is apply_subst(v, subst)
    assert got.const_value() is not None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(algebras(), st.lists(terms(), max_size=4))
def test_type_algebra_matches_rebuilding_oracle(hyps, probes):
    pairs = value_pairs(NULLS, hyps)
    alg, ref = TypeAlgebra(NULLS, pairs), OracleTypeAlgebra(NULLS, pairs)
    assert alg.inconsistent == ref.inconsistent
    if alg.inconsistent:
        return
    assert alg._subst == ref._subst
    assert alg._residual == ref._residual
    assert alg.residual_constraints() == ref.residual_constraints()
    sides = [t for e in hyps for t in (e.lhs, e.rhs)]
    for t in probes + sides:
        assert ts_normalize(t, alg) == ts_normalize(t, ref)
        assert ts_normalize(t, alg) == alg.simplify(canon(t, alg))
        v = ts_normalize(t, PLAIN)
        assert alg.simplify(v) == simplify(ref, v)


INT_NULLS = Context(tuple((f"x{i}", INT) for i in range(1, 5)))
INT_LEAVES = ([Var(n) for n, _ in INT_NULLS.bindings]
              + [int_term(c) for c in range(4)])


def _int_term(draw, depth):
    if depth == 0 or draw(st.integers(0, 2)) > 0:
        return draw(st.sampled_from(INT_LEAVES))
    sym = draw(st.sampled_from((PLUS, TIMES)))
    return app(sym, _int_term(draw, depth - 1), _int_term(draw, depth - 1))


@st.composite
def int_hypotheses(draw):
    """2-5 equations between Int nulls, constants, sums and products,
    many of them between a null and a null or a constant."""
    return [Equation(INT_NULLS, _int_term(draw, 2), _int_term(draw, 2), INT)
            for _ in range(draw(st.integers(2, 5)))]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(int_hypotheses())
def test_equation_order_does_not_change_the_algebra(hyps):
    """Every order of the hypotheses compiles to a closed substitution and
    the same verdict; a consistent algebra also gives each null the same
    normal form.  (An inconsistent one makes all values equal, and which
    of them a null names is arbitrary.)"""
    answers = set()
    for order in permutations(hyps):
        alg = TypeAlgebra(INT_NULLS, value_pairs(INT_NULLS, order))
        for v in alg._subst.values():
            assert alg._subst.keys().isdisjoint(v.atoms())
        answers.add((alg.inconsistent, None if alg.inconsistent else tuple(
            ts_normalize(Var(n), alg) for n, _ in INT_NULLS.bindings)))
    assert len(answers) == 1


X1, X2, X3, X4 = (Var(n) for n, _ in INT_NULLS.bindings)
RESIDUAL_SIDES = {
    INT: [app(PLUS, X1, X2), app(TIMES, X1, X2), app(PLUS, X3, int_term(1)),
          X4],
    BOOL: [app(LE, X1, int_term(2)), app(NOT, app(LE, X1, int_term(2))),
           app(LE, X2, X3), app(NOT, app(LE, X2, X3)), app(LE, X4, X1)],
}
RESIDUAL_CONSTANTS = {INT: [int_term(c) for c in range(3)],
                      BOOL: [app(TRUE), app(FALSE)]}


@st.composite
def residual_hypotheses(draw):
    """2-5 equations, most of them between a sum, a product or a
    comparison of Int nulls and a constant, so that the unsettled pairs
    often give one value two constants."""
    hyps = []
    for _ in range(draw(st.integers(2, 5))):
        sort = draw(st.sampled_from((INT, BOOL)))
        sides = RESIDUAL_SIDES[sort]
        rhs = sides + 2 * RESIDUAL_CONSTANTS[sort]
        hyps.append(Equation(INT_NULLS, draw(st.sampled_from(sides)),
                             draw(st.sampled_from(rhs)), sort))
    return hyps


@settings(max_examples=200, deadline=None, derandomize=True)
@given(residual_hypotheses())
def test_residual_contradictions_match_the_oracle(hyps):
    """The oracle joins the unsettled pairs into classes and finds the
    values they force apart with its own loop.  (What an inconsistent
    algebra stores is arbitrary, as in the permutation property.)"""
    pairs = value_pairs(INT_NULLS, hyps)
    alg, ref = (TypeAlgebra(INT_NULLS, pairs),
                OracleTypeAlgebra(INT_NULLS, pairs))
    assert alg.inconsistent == ref.inconsistent
    if not alg.inconsistent:
        assert alg._residual == ref._residual


B1, B2, B3 = (Var(f"b{i}") for i in range(1, 4))
MIXED_NULLS = Context(INT_NULLS.bindings[:2]
                      + tuple((b.name, BOOL) for b in (B1, B2, B3)))
LE_X1, LE_X2 = app(LE, X1, int_term(2)), app(LE, X2, X1)
MIXED_SIDES = {
    INT: [X1, X2, app(PLUS, X1, int_term(1)), app(PLUS, X1, int_term(2)),
          app(PLUS, X1, X2), app(TIMES, X1, X2),
          app(PLUS, app(TIMES, X1, X2), int_term(1))]
    + [int_term(c) for c in range(3)],
    BOOL: [B1, B2, B3, app(NOT, B1), app(NOT, B2), LE_X1, app(NOT, LE_X1),
           LE_X2, app(NOT, LE_X2), app(AND, B1, B2), app(AND, B1, LE_X1),
           app(NOT, app(AND, B1, B2)),
           app(NOT, app(AND, app(NOT, B3), app(NOT, LE_X2))),
           app(TRUE), app(FALSE)],
}


@st.composite
def mixed_hypotheses(draw):
    """2-4 equations between Int and Bool nulls, constants and small
    terms in `+`, `*`, `<=`, `not` and `and`, drawn from few enough sides
    that the equations often share one."""
    hyps = []
    for _ in range(draw(st.integers(2, 4))):
        sort = draw(st.sampled_from((INT, BOOL)))
        lhs, rhs = (draw(st.sampled_from(MIXED_SIDES[sort])) for _ in "lr")
        hyps.append(Equation(MIXED_NULLS, lhs, rhs, sort))
    return hyps


def _reduced(alg) -> bool:
    """No key of `_residual` occurs in a value, as another key's
    complement or inside another key."""
    for key, value in alg._residual.items():
        if alg.simplify(value) != value:
            return False
        if isinstance(key, (BAtom, BNode)) and _bnot(key) in alg._residual:
            return False
        if isinstance(key, BNode) and any(alg.simplify(a) != a
                                          for a in key.args):
            return False
    return True


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mixed_hypotheses())
def test_every_order_completes_to_one_reduced_system(hyps):
    """Every order of the hypotheses gives the same verdict and a reduced
    `_residual`; a consistent algebra also gives the same entries and the
    same normal form of every side and every null."""
    probes = [t for e in hyps for t in (e.lhs, e.rhs)]
    probes += [Var(n) for n, _ in MIXED_NULLS.bindings]
    answers = set()
    for order in permutations(hyps):
        alg = TypeAlgebra(MIXED_NULLS, value_pairs(MIXED_NULLS, order))
        assert _reduced(alg)
        answers.add((alg.inconsistent, None if alg.inconsistent else (
            frozenset(alg._residual.items()),
            tuple(ts_normalize(t, alg) for t in probes))))
    assert len(answers) == 1


@pytest.mark.parametrize("argv", [
    (typeside_instance, "saturate", "--instance", "K", "--format", "json"),
    (typeside_instance, "homs", "--from", "K", "--to", "K"),
    (type_equations_workspace, "saturate", "--instance", "Overlap"),
])
def test_typeside_instance_output_ignores_hash_seed(tmp_path, argv):
    source, command, *rest = argv
    path = tmp_path / "typeside.cdb"
    path.write_text(source(), encoding="utf-8")
    outs = []
    for seed in ("0", "1"):
        proc = run_module(command, str(path), *rest, hash_seed=seed)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
