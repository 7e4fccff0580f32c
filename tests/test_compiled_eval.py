"""Compiled term evaluation against the recursive interpreter.

`SaturatedInstance.compile` turns a term into a function of the bindings;
`eval_entity` and `eval_type` compile and apply.  These tests compare them
with the interpreter kept in `tests/eval_oracle.py` on random terms over
null-bearing company instances, walk a path deeper than the recursion
limit, check that compiled plans and the engine's operations leave no
cyclic garbage, that the type stage's early exit compiles what the full
fixpoint does, and that `catdb query --crosscheck` evaluates its query
once.
"""

import gc
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import catdb.cli as cli
import catdb.query as query
from catdb.cli import run_cli
from catdb.dsl import parse_workspace
from catdb.instance import InstanceError, enumerate_transforms, saturate
from catdb.kernel import (
    App, Context, Equation, FunctionSymbol, Sort, Var, int_literal,
)
from catdb.migration import (
    companion_presentation, compose_bimodules, pi, rename_schema, sigma,
)
from catdb.query import crosscheck_migration, eval_query, eval_uber_query
from catdb.typeside import (
    AND, BOOL, CONCAT, EPS, EQS, FALSE, INT, LE, NEG, NOT, OR, PLUS, STR,
    TIMES, TRUE, IntPoly, StrWord, TypeAlgebra, opaque_atom, str_literal,
    symbol_operation,
)
from tests import eval_oracle
from tests.conftest import FIXTURES
from tests.genfixtures import bench_company
from tests.typeside_oracle import OracleTypeAlgebra, value_pairs

NULLS = dict(null_share=0.25, salaries=(300, 600))
ALG = TypeAlgebra()  # no hypotheses: `<=` and `eq` leave values as they are


def company(seed, n_emp, n_dept, **kw):
    ws = parse_workspace(bench_company(seed, n_emp, n_dept, **kw), "company")
    return ws, saturate(ws.instances["W"])


@pytest.fixture(scope="module", params=[(5, 30, 6), (6, 45, 9)],
                ids=["36-rows", "54-rows"])
def comp(request):
    return company(*request.param, **NULLS)


# --- random terms -------------------------------------------------------


def entity_path(draw, si, sort, env):
    """A path of up to six edges out of a variable of env or a generator
    of si, ending at sort, built by prefixing edges into its start."""
    S = si.schema
    end = sort
    edges = []
    for _ in range(draw(st.integers(0, 6))):
        into = [f for f in S.edges if f.cod == end]
        f = draw(st.sampled_from(into))
        edges.append(f)
        end = f.dom[0]
    rows = set(si.rows(end))
    starts = [n for n, row in (env or {}).items() if row in rows]
    starts += [n for n, row in si.gen_env.items() if row in rows]
    t = Var(draw(st.sampled_from(starts)))
    for f in reversed(edges):
        t = App(f, (t,))
    return t


def type_term(draw, si, sort, env, depth=3):
    S = si.schema
    attrs = [a for a in S.attributes if a.cod == sort]
    leaves = ["attr"] if attrs else []
    if sort == INT:
        leaves += ["int", "null", "bound"]
        nodes = ["neg", "plus", "times"]
    elif sort == STR:
        leaves += ["str", "eps"]
        nodes = ["concat"]
    else:
        leaves += ["true", "false"]
        nodes = ["le", "eqs", "not", "and", "or"]
    kind = draw(st.sampled_from(leaves + (nodes if depth else [])))
    sub = lambda s: type_term(draw, si, s, env, depth - 1)  # noqa: E731
    if kind == "attr":
        a = draw(st.sampled_from(attrs))
        return App(a, (entity_path(draw, si, a.dom[0], env),))
    if kind == "int":
        return App(int_literal(draw(st.integers(-3, 700))))
    if kind == "null":
        names = [n for n, s in si.typealg.nulls.bindings if s == INT]
        return Var(draw(st.sampled_from(names)))
    if kind == "bound":
        return Var("n")
    if kind == "str":
        return str_literal(draw(st.sampled_from(["", "a", "Ad", "min"])))
    simple = {"eps": EPS, "true": TRUE, "false": FALSE}
    if kind in simple:
        return App(simple[kind])
    ops = {"neg": (NEG, INT), "plus": (PLUS, INT), "times": (TIMES, INT),
           "concat": (CONCAT, STR), "le": (LE, INT), "eqs": (EQS, STR),
           "not": (NOT, BOOL), "and": (AND, BOOL), "or": (OR, BOOL)}
    sym, arg = ops[kind]
    return App(sym, tuple(sub(arg) for _ in sym.dom))


def bindings(draw, si):
    """None, or rows for e:Emp and d:Dept, and a value for n:Int."""
    if not draw(st.booleans()):
        return None, None
    emp, dept = si.schema.entities
    env = {"e": draw(st.sampled_from(si.rows(emp))),
           "d": draw(st.sampled_from(si.rows(dept)))}
    nulls = [n for n, s in si.typealg.nulls.bindings if s == INT]
    n = draw(st.sampled_from(
        [IntPoly.const(300), opaque_atom(Var(nulls[0]), INT)]))
    return env, {"n": n}


SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.function_scoped_fixture,
                                           HealthCheck.too_slow])


class TestAgainstInterpreter:
    @SETTINGS
    @given(data=st.data())
    def test_entity_paths(self, comp, data):
        _, si = comp
        env, _ = bindings(data.draw, si)
        sort = data.draw(st.sampled_from(si.schema.entities))
        t = entity_path(data.draw, si, sort, env)
        assert si.eval_entity(t, env) == eval_oracle.eval_entity(si, t, env)

    @SETTINGS
    @given(data=st.data())
    def test_type_terms(self, comp, data):
        _, si = comp
        env, vals = bindings(data.draw, si)
        sort = data.draw(st.sampled_from([INT, STR, BOOL]))
        t = type_term(data.draw, si, sort, env)
        got = _outcome(lambda: si.eval_type(t, env, vals))
        want = _outcome(lambda: eval_oracle.eval_type(si, t, env, vals))
        assert got == want

    @SETTINGS
    @given(data=st.data())
    def test_unknown_symbols_raise_alike(self, comp, data):
        _, si = comp
        env, vals = bindings(data.draw, si)
        emp = si.schema.entities[0]
        bogus_edge = FunctionSymbol("boss", (emp,), emp)
        bogus_op = FunctionSymbol("max", (INT, INT), INT)
        inner = type_term(data.draw, si, INT, env, depth=1)
        if data.draw(st.booleans()):
            t = App(bogus_op, (inner, App(int_literal(1))))
        else:
            sal = next(a for a in si.schema.attributes if a.cod == INT)
            path = entity_path(data.draw, si, emp, env)
            t = App(sal, (App(bogus_edge, (path,)),))
        t = App(PLUS, (inner, t))
        got = _outcome(lambda: si.eval_type(t, env, vals or {}))
        want = _outcome(
            lambda: eval_oracle.eval_type(si, t, env, vals or {}))
        assert got[0] == "raised" and got == want

    def test_symbol_table_is_the_comparison_chain(self):
        values = {INT: [IntPoly.const(2), opaque_atom(Var("k"), INT)],
                  STR: [StrWord.lit("ab"), opaque_atom(Var("s"), STR)],
                  BOOL: [symbol_operation(TRUE)(ALG),
                         opaque_atom(Var("b"), BOOL)]}
        syms = [NEG, PLUS, TIMES, LE, NOT, AND, OR, CONCAT, EQS, EPS, TRUE,
                FALSE, int_literal(7), int_literal(-4), int_literal(0),
                str_literal("xy").symbol]
        for sym in syms:
            pools = [values[s] for s in sym.dom]
            for args in _product(pools):
                assert (symbol_operation(sym)(ALG, *args)
                        == eval_oracle.apply_symbol(sym, list(args)))
        not_type = FunctionSymbol("sal", (INT,), INT)
        assert symbol_operation(not_type) is None
        with pytest.raises(ValueError):
            eval_oracle.apply_symbol(not_type, [IntPoly.const(1)])


def _outcome(fn):
    try:
        return "value", fn()
    except (InstanceError, KeyError, AssertionError) as exc:
        return "raised", type(exc)


def _product(pools):
    out = [()]
    for pool in pools:
        out = [p + (x,) for p in out for x in pool]
    return out


# --- depth -------------------------------------------------------------

LIMIT = 150


def test_a_deep_path_is_a_loop(comp):
    _, si = comp
    emp = si.schema.entities[0]
    mgr = next(f for f in si.schema.edges if f.dom[0] == f.cod == emp)
    t = Var("e")
    for _ in range(5000):
        t = App(mgr, (t,))
    start = si.rows(emp)[-1]
    row = start
    for _ in range(5000):
        row = si.edge_cols[mgr][row]
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(LIMIT)
    try:
        got = si.eval_entity(t, {"e": start})
    finally:
        sys.setrecursionlimit(old)
    assert got == row


# --- garbage -----------------------------------------------------------


def test_plans_leave_no_cyclic_garbage(ws, satJ):
    gc.collect()
    gc.disable()
    try:
        enumerate_transforms(ws.instances["I"], satJ)
        assert gc.collect() == 0
        eval_query(ws.queries["Q"], satJ)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _composite_companion(S):
    copy1, r1 = rename_schema(S, lambda n: n + "_c")
    _, r2 = rename_schema(copy1, lambda n: n + "c")
    return compose_bimodules(companion_presentation(r1, "p"),
                             companion_presentation(r2, "q"))


ENGINE_OPS = {
    "saturate": lambda ws, J: saturate(ws.instances["J"]),
    "pi": lambda ws, J: pi(ws.mappings["G"], J),
    "sigma": lambda ws, J: saturate(sigma(ws.mappings["H"], ws.instances["J"])),
    "uberquery": lambda ws, J: eval_uber_query(ws.uberqueries["N"], J),
    "crosscheck": lambda ws, J: crosscheck_migration(ws.queries["Q"], J),
    "compose_bimodules": lambda ws, J: _composite_companion(ws.schemas["S"]),
}


@pytest.mark.parametrize("op", list(ENGINE_OPS))
def test_engine_ops_leave_no_cyclic_garbage(ws, satJ, op):
    gc.collect()
    gc.disable()
    try:
        ENGINE_OPS[op](ws, satJ)
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- the type stage ------------------------------------------------------


@pytest.mark.parametrize("seed,n_emp", [(1, 40), (2, 60)])
def test_early_exit_compiles_what_the_full_fixpoint_does(seed, n_emp):
    _, si = company(seed, n_emp, n_emp // 5, **NULLS)
    alg = si.typealg
    assert alg.nulls.bindings and alg._residual
    full = OracleTypeAlgebra(alg.nulls, alg.hypotheses)
    assert alg._subst == full._subst
    assert alg._residual == full._residual
    assert alg.inconsistent == full.inconsistent


def test_early_exit_waits_for_substitution_chains():
    # the <= hypothesis comes first and is stored as (e.sal <= 3) = false;
    # e.sal = n and n = 5 then become substitutions, and only taking the
    # stored entry back out decides 5 <= 3.  A compile that kept its early
    # entries would keep (n <= 3) = false.
    cell = App(FunctionSymbol("sal", (Sort("Emp"),), INT), (Var("e"),))
    nulls = Context((("n", INT),))
    hyps = [Equation(nulls, App(LE, (cell, App(int_literal(3)))),
                     App(FALSE), BOOL),
            Equation(nulls, cell, Var("n"), INT),
            Equation(nulls, Var("n"), App(int_literal(5)), INT)]
    pairs = value_pairs(nulls, hyps)
    alg, full = TypeAlgebra(nulls, pairs), OracleTypeAlgebra(nulls, pairs)
    assert not alg._residual and not full._residual
    assert alg._subst == full._subst


# --- the CLI -----------------------------------------------------------


def test_crosscheck_evaluates_the_query_once(ws, satJ, monkeypatch, capsys):
    Q = ws.queries["Q"]
    want = (query.render_tables(eval_query(Q, satJ).instance)
            + f"\ncrosscheck: {crosscheck_migration(Q, satJ)}\n")
    calls = []
    real = query.eval_query

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(query, "eval_query", counting)
    monkeypatch.setattr(cli, "eval_query", counting)
    code = run_cli(["query", str(FIXTURES / "paper.cdb"), "--query", "Q",
                    "--instance", "J", "--crosscheck"])
    assert code == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == want
