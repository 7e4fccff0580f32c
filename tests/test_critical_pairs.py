"""Head-filtered critical pairs against the unfiltered oracle in
``completion_oracle``: the same triples in the same order, and the same
completed systems."""

import pytest
from hypothesis import given, settings, strategies as st

from catdb import rewrite
from catdb.kernel import (
    AlgSignature, App, Context, Equation, FunctionSymbol, Presentation, Sort,
    Var, app,
)
from catdb.rewrite import (
    Budget, BudgetExceeded, RewriteRule, _critical_pairs, complete,
)
from tests.completion_oracle import critical_pairs
from tests.conftest import load_fixture

A = Sort("A")
UNARY = [FunctionSymbol(n, (A,), A) for n in "fgh"]
M = FunctionSymbol("m", (A, A), A)
C = FunctionSymbol("c", (), A)
SIG = AlgSignature((A,), UNARY + [M, C])
CTX = Context((("x", A), ("y", A)))

terms = st.recursive(
    st.sampled_from([Var("x"), Var("y"), app(C)]),
    lambda sub: st.one_of(
        st.builds(app, st.sampled_from(UNARY), sub),
        st.builds(lambda a, b: app(M, a, b), sub, sub)),
    max_leaves=6)
paths = st.recursive(  # x.f.g... : the shape of a schema's path equations
    st.just(Var("x")), lambda sub: st.builds(app, st.sampled_from(UNARY), sub),
    max_leaves=5)
lhs = st.one_of(terms, paths).filter(lambda t: isinstance(t, App))
rules = st.builds(lambda l, r: RewriteRule(CTX, l, r), lhs,
                  st.one_of(terms, paths))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(rules, rules)
def test_pairs_alike(r1, r2):
    twin = RewriteRule(r1.context, r1.lhs, r1.rhs)  # equal, but not r1
    for a, b in ((r1, r2), (r2, r1), (r1, r1), (r2, r2), (r1, twin)):
        assert list(_critical_pairs(a, b)) == list(critical_pairs(a, b))


def test_pairs_found():
    """The filter keeps every overlap: x.f.f ~> x.g into itself overlaps
    at x.f, and m(m(x, y), x) ~> x with m(x, c) ~> x at the root and at
    the inner m."""
    x, y, c = Var("x"), Var("y"), app(C)
    f, g, _ = UNARY
    ff = RewriteRule(CTX, app(f, app(f, x)), app(g, x))
    assert len(list(_critical_pairs(ff, ff))) == 1
    mm = RewriteRule(CTX, app(M, app(M, x, y), x), x)
    mc = RewriteRule(CTX, app(M, x, c), x)
    assert list(_critical_pairs(mm, mc)) == list(critical_pairs(mm, mc))
    assert len(list(_critical_pairs(mm, mc))) == 2
    assert list(_critical_pairs(mm, ff)) == []


def _fixture_presentations():
    ws, grp = load_fixture("paper.cdb"), load_fixture("group.cdb")
    out = {f"schema {n}": Presentation(s.entity_sig, s.presentation.path_eqs)
           for n, s in ws.schemas.items()}
    out.update((f"theory {n}", th) for n, th in grp.theories.items())
    return out


PRESENTATIONS = _fixture_presentations()


def _completed(pres, budget, oracle, monkeypatch):
    if oracle:
        monkeypatch.setattr(rewrite, "_critical_pairs", critical_pairs)
    try:
        rs = complete(pres, budget)
    except BudgetExceeded as exc:
        return str(exc)
    finally:
        monkeypatch.undo()
    return rs.rules, rs.unoriented, rs.status


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_fixture_completion_alike(name, monkeypatch):
    pres = PRESENTATIONS[name]
    new = _completed(pres, Budget(), False, monkeypatch)
    assert new == _completed(pres, Budget(), True, monkeypatch)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.lists(st.tuples(lhs, st.one_of(terms, paths)), min_size=1,
                max_size=4))
def test_random_completion_alike(sides):
    """Random equations, completed under a small budget: the 60 examples
    end confluent, unoriented and budget-exhausted."""
    pres = Presentation(SIG, tuple(Equation(CTX, l, r, A) for l, r in sides))
    budget = Budget(critical_pairs=40, rewrite_steps=2000)
    with pytest.MonkeyPatch.context() as mp:
        new = _completed(pres, budget, False, mp)
        assert new == _completed(pres, budget, True, mp)
