"""Data migration: delta, sigma, pi, and bimodules."""

import random

import pytest

from catdb.kernel import Var, app, render_term
from catdb.schema import (
    check_mapping, compose_mappings, identity_mapping,
    is_discrete_opfibration,
)
from catdb.instance import (
    canonical_presentation, hom_count, instances_isomorphic, saturate,
    tables, InstancePresentation,
)
from catdb.migration import (
    BimodulePresentation, MigrationError, NameClash, collage_of_bimodule,
    companion_presentation, compose_bimodules, conjoint_presentation, delta,
    gamma, lambda_, pi, rename_schema, sigma, sigma_pointwise, unit_bimodule,
)
from catdb.typeside import STR
from tests.genfixtures import random_instance


def by_name(syms):
    return {s.name: s for s in syms}


class TestPi:
    def test_span_table_base_points(self, ws, satJ):
        T = ws.schemas["T"]
        ents = {e.name: e for e in T.entities}
        edges = by_name(T.edges)
        PiJ = pi(ws.mappings["G"], satJ)
        det = PiJ.pi_details[ents["QR"]]
        assert len(det["rows"]) == 3

        def base(entity, row):
            d = PiJ.pi_details[entity]
            alpha = d["alphas"][d["rows"].index(row)]
            return render_term(alpha.row_assignment()["x"])

        got = {(base(ents["Emp"], PiJ.edge_cols[edges["f"]][r]),
                base(ents["Dept"], PiJ.edge_cols[edges["g"]][r]))
               for r in PiJ.rows(ents["QR"])}
        assert got == {("e2", "d1"), ("e6", "d1"), ("e6", "d2")}

    def test_preserves_type_algebra(self, ws, satJ):
        PiJ = pi(ws.mappings["G"], satJ)
        assert tables(PiJ)["typealg"] == tables(satJ)["typealg"]

    def test_existing_entities_carried_over(self, ws, satJ):
        T = ws.schemas["T"]
        ents = {e.name: e for e in T.entities}
        PiJ = pi(ws.mappings["G"], satJ)
        assert len(PiJ.rows(ents["Emp"])) == 7
        assert len(PiJ.rows(ents["Dept"])) == 3


class TestDelta:
    def test_query_span_projection(self, ws, satJ):
        R = ws.schemas["R"]
        A = [e for e in R.entities if e.name == "A"][0]
        attrs = by_name(R.attributes)
        out = delta(ws.mappings["F"], pi(ws.mappings["G"], satJ))
        from catdb.typeside import render_value
        got = {(render_value(out.attr_cols[attrs["emp_last"]][r]),
                render_value(out.attr_cols[attrs["dept_name"]][r]),
                render_value(out.attr_cols[attrs["diff"]][r]))
               for r in out.rows(A)}
        assert got == {('"Noether"', '"HR"', "100"),
                       ('"Euclid"', '"HR"', "150"),
                       ('"Euclid"', '"Admin"', "0")}

    def test_preserves_type_algebra(self, ws, satJ):
        out = delta(ws.mappings["F"], pi(ws.mappings["G"], satJ))
        assert tables(out)["typealg"] == tables(satJ)["typealg"]

    def test_identity_delta_is_identity(self, ws, satJ):
        out = delta(identity_mapping(ws.schemas["S"]), satJ)
        assert instances_isomorphic(out, satJ)


class TestSigma:
    def test_team_grouping(self, ws, satJ):
        L = ws.schemas["L"]
        ents = {e.name: e for e in L.entities}
        edges = by_name(L.edges)
        attrs = by_name(L.attributes)
        out = saturate(sigma(ws.mappings["H"], ws.instances["J"]))
        teams = out.rows(ents["Team"])
        assert len(teams) == 4
        # employees grouped with their manager onto the same team
        emp_rows = {render_term(r): r for r in out.rows(ents["Emp"])}
        on = out.edge_cols[edges["on"]]
        assert on[emp_rows["e1"]] == on[emp_rows["e5"]]
        assert on[emp_rows["e2"]] == on[emp_rows["e4"]]
        assert on[emp_rows["e6"]] == on[emp_rows["e7"]]
        assert len({on[r] for r in out.rows(ents["Emp"])}) == 4
        # bel projects each team to its department
        wrk = out.edge_cols[edges["wrk"]]
        bel = out.edge_cols[edges["bel"]]
        for r in out.rows(ents["Emp"]):
            assert bel[on[r]] == wrk[r]
        # four distinct fresh Str cells in col
        cols = {str(out.attr_cols[attrs["col"]][t]) for t in teams}
        assert len(cols) == 4

    def test_preserves_employee_data(self, ws):
        L = ws.schemas["L"]
        ents = {e.name: e for e in L.entities}
        out = saturate(sigma(ws.mappings["H"], ws.instances["J"]))
        assert len(out.rows(ents["Emp"])) == 7
        assert len(out.rows(ents["Dept"])) == 3


class TestAdjunctions:
    def test_sigma_delta_bijection_on_random_fixtures(self, ws):
        rng = random.Random(42)
        checked = 0
        most = {}
        for Fname, tgt in (("H", "L"), ("G", "T")):
            F = ws.mappings[Fname]
            for _ in range(6):
                I = random_instance(rng, ws.schemas["S"], attr_fill=0.0)
                Jp = random_instance(rng, ws.schemas[tgt], attr_fill=0.0)
                satJp = saturate(Jp)
                lhs = hom_count(sigma(F, I), satJp)
                rhs = hom_count(I, delta(F, satJp))
                assert lhs == rhs, (Fname, I, Jp)
                most[Fname] = max(most.get(Fname, 0), lhs)
                checked += 1
        assert checked == 12
        # not only hom-sets with no transform or with one
        assert min(most.values()) > 1, most

    def test_delta_pi_bijection_on_random_fixtures(self, ws):
        rng = random.Random(43)
        F = ws.mappings["G"]
        for _ in range(10):
            K = random_instance(rng, ws.schemas["T"], attr_fill=0.0)
            I = random_instance(rng, ws.schemas["S"], attr_fill=0.0)
            satI = saturate(I)
            lhs = hom_count(canonical_presentation(delta(F, saturate(K))),
                            satI)
            rhs = hom_count(K, pi(F, satI))
            assert lhs == rhs, (K, I)


class TestSigmaPointwise:
    def test_agrees_on_identity(self, ws):
        rng = random.Random(44)
        ident = identity_mapping(ws.schemas["S"])
        assert is_discrete_opfibration(ident) == "yes"
        for _ in range(5):
            I = random_instance(rng, ws.schemas["S"], attr_fill=0.0)
            a = sigma_pointwise(ident, saturate(I))
            b = saturate(sigma(ident, I))
            assert instances_isomorphic(a, b)

    def test_agrees_on_projection(self):
        from catdb.kernel import FunctionSymbol, Sort
        from catdb.schema import SchemaMapping, SchemaPresentation, \
            compile_schema
        from catdb.typeside import INT
        x = Var("x")
        B1, B2 = Sort("B1"), Sort("B2")
        bf = FunctionSymbol("bf", (B1,), B2)
        ba = FunctionSymbol("ba", (B1,), STR)
        base = compile_schema(SchemaPresentation((B1, B2), (bf,), (ba,)))
        E1, E2, E1b, E2b = (Sort(n) for n in ("E1", "E2", "E1b", "E2b"))
        ef = FunctionSymbol("ef", (E1,), E2)
        efb = FunctionSymbol("efb", (E1b,), E2b)
        ea = FunctionSymbol("ea", (E1,), STR)
        eab = FunctionSymbol("eab", (E1b,), STR)
        tot = compile_schema(
            SchemaPresentation((E1, E2, E1b, E2b), (ef, efb), (ea, eab)))
        proj = SchemaMapping.make(
            tot, base,
            {E1: B1, E2: B2, E1b: B1, E2b: B2},
            {ef: app(bf, x), efb: app(bf, x)},
            {ea: app(ba, x), eab: app(ba, x)})
        assert is_discrete_opfibration(proj) == "yes"
        rng = random.Random(45)
        for _ in range(5):
            I = random_instance(rng, tot)
            a = sigma_pointwise(proj, saturate(I))
            b = saturate(sigma(proj, I))
            assert instances_isomorphic(a, b)

    def test_refuses_non_opfibration(self, ws, satJ):
        with pytest.raises(MigrationError):
            sigma_pointwise(ws.mappings["H"], satJ)

    def test_refuses_an_instance_on_another_schema(self, ws, satJ):
        # the identity on T is an opfibration, but J lives on S
        ident = identity_mapping(ws.schemas["T"])
        assert is_discrete_opfibration(ident) == "yes"
        with pytest.raises(MigrationError, match="not on the mapping's source"):
            sigma_pointwise(ident, satJ)
        with pytest.raises(MigrationError, match="not on the mapping's source"):
            sigma(ident, ws.instances["J"])

    def test_saturates_each_representable_once(self, ws, satJ, monkeypatch):
        import catdb.instance
        calls = []
        real = catdb.instance.chase

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(catdb.instance, "chase", counting)
        sigma_pointwise(identity_mapping(ws.schemas["S"]), satJ)
        assert len(calls) == 2  # one representable per entity of S


class TestBimodules:
    def test_companion_lambda_recovers_renamed_instance(self, ws, satJ):
        S = ws.schemas["S"]
        _, r1 = rename_schema(S, lambda n: n + "_c")
        M = companion_presentation(r1, "p")
        lam = lambda_(M, ws.instances["J"])
        emap = {e.name + "_c": e.name for e in S.entities}
        cmap = {s.name + "_c": s.name for s in S.edges + S.attributes}
        assert instances_isomorphic(lam, satJ, entity_names=emap,
                                    column_names=cmap)

    def test_gamma_after_lambda_round_trip(self, ws, satJ):
        S = ws.schemas["S"]
        _, r1 = rename_schema(S, lambda n: n + "_c")
        M = companion_presentation(r1, "p")
        lam = lambda_(M, ws.instances["J"])
        gam = gamma(M, lam)
        assert instances_isomorphic(gam, satJ)

    def test_composition_matches_composite_companion(self, ws):
        S = ws.schemas["S"]
        copy1, r1 = rename_schema(S, lambda n: n + "_c")
        _, r2 = rename_schema(copy1, lambda n: n + "c")
        M = companion_presentation(r1, "p")
        N = companion_presentation(r2, "q")
        MN = compose_bimodules(M, N)
        lam2 = lambda_(MN, ws.instances["J"])
        direct = companion_presentation(compose_mappings(r1, r2), "w")
        lam3 = lambda_(direct, ws.instances["J"])
        assert instances_isomorphic(lam2, lam3)

    def test_collage_name_clash_detected(self, ws):
        # gluing a schema to an unrenamed copy of itself duplicates every
        # entity and column name, which the collage must reject.
        S = ws.schemas["S"]
        _, r = rename_schema(S, lambda n: n)
        with pytest.raises(NameClash):
            collage_of_bimodule(companion_presentation(r, "p"))

    def test_unit_bimodule_collage_checks(self, ws):
        cs = collage_of_bimodule(unit_bimodule(ws.schemas["R"]))
        assert check_mapping(cs.incl_src) == []
        assert check_mapping(cs.incl_dst) == []

    def test_conjoint_checks(self, ws):
        S = ws.schemas["S"]
        _, r1 = rename_schema(S, lambda n: n + "_c")
        M = conjoint_presentation(r1, "phi")
        cs = collage_of_bimodule(M)
        assert check_mapping(cs.incl_src) == []
        assert check_mapping(cs.incl_dst) == []
