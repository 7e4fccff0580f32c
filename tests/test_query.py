"""For-Where-Return queries, uber-queries, and the migration crosscheck."""

import pytest

import catdb.query as query
from catdb.kernel import (
    Context, ContextMorphism, Equation, Var, app, render_term,
)
from catdb.instance import (
    DomainDependence, SaturatedInstance, render_tables, saturate, tables,
)
from catdb.query import (
    InvalidKeys, Query, QueryError, UberBlock, UberQuery,
    check_domain_independence, check_uber_query, crosscheck_migration,
    eval_query, eval_uber_query, frozen_instance, query_to_bimodule,
)
from catdb.typeside import INT, LE, STR, TRUE, render_value, str_literal


def rows_of(si, entity_name):
    tab = tables(si)["entities"][entity_name]
    return {tuple(r) for r in tab["rows"]}, tab["columns"]


class TestEvalQuery:
    def test_admin_salary_query(self, ws, satJ):
        res = eval_query(ws.queries["Q"], satJ)
        got, columns = rows_of(res.instance, "*")
        assert columns == ["id", "emp_last", "dept_name", "diff"]
        assert {r[1:] for r in got} == {
            ('"Noether"', '"HR"', "100"),
            ('"Euclid"', '"HR"', "150"),
            ('"Euclid"', '"Admin"', "0"),
        }

    def test_shares_target_type_algebra(self, ws, satJ):
        res = eval_query(ws.queries["Q"], satJ)
        assert res.typealg is satJ.typealg

    def test_empty_when_where_unsatisfiable(self, ws, satJ):
        Q = ws.queries["Q"]
        s = Q.schema
        attrs = {a.name: a for a in s.attributes}
        edges = {f.name: f for f in s.edges}
        harder = Query(s, Q.for_ctx, Q.where_eqs + (
            Equation(Q.for_ctx,
                     app(attrs["name"], Var("d")), str_literal("Nowhere"),
                     STR),),
            Q.return_ctx, Q.return_morph)
        res = eval_query(harder, satJ)
        assert rows_of(res.instance, "*")[0] == set()

    def test_domain_independence_violation(self, ws, satJ):
        s = ws.schemas["S"]
        bad_ctx = Context((("e", [e for e in s.entities
                                  if e.name == "Emp"][0]), ("v", INT)))
        attrs = {a.name: a for a in s.attributes}
        ret_ctx = Context((("out", INT),))
        ret = ContextMorphism.make(bad_ctx, ret_ctx, {"out": Var("v")})
        bad = Query(s, bad_ctx, (), ret_ctx, ret)
        assert check_domain_independence(bad) == ["v"]
        with pytest.raises(DomainDependence):
            eval_query(bad, satJ)

    def test_frozen_instance_shape(self, ws):
        fi = frozen_instance(ws.queries["Q"])
        assert [n for n, _ in fi.generators.bindings] == ["e", "d"]
        assert len(fi.equations) == 2


class TestQueryAsBimodule:
    def test_result_schema_shape(self, ws):
        R, M = query_to_bimodule(ws.queries["Q"])
        assert [e.name for e in R.entities] == ["*"]
        assert {a.name for a in R.attributes} \
            == {"emp_last", "dept_name", "diff"}
        assert len(M.gen_edges) == 2  # one per FOR variable

    def test_crosscheck_passes_on_employees(self, ws, satJ):
        assert crosscheck_migration(ws.queries["Q"], satJ) == "ok"

    def test_crosscheck_passes_on_ground_variant(self, ws):
        assert crosscheck_migration(
            ws.queries["Q"], saturate(ws.instances["Jbar"])) == "ok"

    def test_crosscheck_reports_both_tables_on_mismatch(self, ws, satJ,
                                                        monkeypatch):
        # the route through migration loses its first row
        full = query.gamma(query_to_bimodule(ws.queries["Q"])[1], satJ)
        via = SaturatedInstance(
            full.schema, {e: rows[1:] for e, rows in full.row_list.items()},
            full.edge_cols, full.attr_cols, full.typealg, full.gen_env)
        monkeypatch.setattr(query, "gamma", lambda M, J, budget: via)
        direct = eval_query(ws.queries["Q"], satJ).instance
        assert crosscheck_migration(ws.queries["Q"], satJ) == (
            "mismatch:\n--- direct evaluation ---\n" + render_tables(direct)
            + "\n--- via migration ---\n" + render_tables(via))


class TestUberQuery:
    def test_paper_blocks(self, ws, satJ):
        out = eval_uber_query(ws.uberqueries["N"], satJ)
        a_rows, a_cols = rows_of(out, "A")
        assert a_cols == ["id", "dept_name", "diff"]
        assert {r[1:] for r in a_rows} == {
            ('"HR"', "100"), ('"HR"', "150"), ('"Admin"', "0")}
        ap_rows, ap_cols = rows_of(out, "A'")
        assert ap_cols == ["id", "f", "emp_last"]
        assert len(ap_rows) == 1
        (_, f_cell, last_cell), = ap_rows
        assert last_cell == '"Euclid"'
        # f points at the (Admin, 0) row of A
        target = {r[0]: r[1:] for r in a_rows}[f_cell]
        assert target == ('"Admin"', "0")

    def test_check_accepts_paper_uberquery(self, ws):
        check_uber_query(ws.uberqueries["N"])

    def test_invalid_keys_detected(self, ws):
        N = ws.uberqueries["N"]
        (eA, bA), (eAp, bAp) = N.blocks
        # break the key: sending e to e'.mgr leaves block A's salary
        # comparison (e.sal <= d.sec.sal) unprovable.
        s = N.schema
        edges = {f.name: f for f in s.edges}
        (fsym, good), = bAp.keys
        ep = good("e")
        bad_m = ContextMorphism.make(
            good.source, good.target,
            {"e": app(edges["mgr"], ep), "d": good("d")})
        bad_block = UberBlock(bAp.for_ctx, bAp.where_eqs,
                              ((fsym, bad_m),), bAp.returns)
        bad = UberQuery(N.schema, N.result_schema,
                        ((eA, bA), (eAp, bad_block)))
        with pytest.raises(InvalidKeys):
            check_uber_query(bad)

    def test_every_result_entity_needs_its_block_and_returns(self, ws, satJ):
        # refused before evaluation, so also where the block has no rows
        N = ws.uberqueries["N"]
        (eA, bA), (eAp, bAp) = N.blocks
        last = {a.name: a for a in N.schema.attributes}["last"]
        nobody = Equation(bAp.for_ctx, app(last, Var("e'")),
                          str_literal("Nobody"), STR)
        no_return = UberBlock(bAp.for_ctx, bAp.where_eqs + (nobody,),
                              bAp.keys, ())
        for blocks, msg in [
                (((eA, bA), (eAp, no_return)),
                 "no return assignment for attribute emp_last"),
                (((eA, bA),), "no block for result entity A'")]:
            bad = UberQuery(N.schema, N.result_schema, blocks)
            with pytest.raises(QueryError, match=f"^{msg}$"):
                eval_uber_query(bad, satJ)

class TestDeterminism:
    def test_same_tables_every_run(self, ws):
        from catdb.instance import render_tables
        a = render_tables(eval_uber_query(ws.uberqueries["N"],
                                          saturate(ws.instances["J"])))
        b = render_tables(eval_uber_query(ws.uberqueries["N"],
                                          saturate(ws.instances["J"])))
        assert a == b
