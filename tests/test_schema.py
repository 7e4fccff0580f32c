"""Schemas, their entity categories, and schema mappings."""

import pytest

from catdb.kernel import (
    Context, Equation, FunctionSymbol, Presentation, Sort, Var, app, ctx,
    enumerate_terms,
)
from catdb.rewrite import Budget, EqResult, complete
from catdb.schema import (
    PossiblyInfinite, Schema, SchemaError, SchemaMapping, SchemaMismatch,
    SchemaPresentation, check_mapping, compile_schema, compose_mappings,
    identity_mapping, is_discrete_opfibration, saturate_entity_category,
)
from catdb.typeside import INT, STR, TRUE, LE

x = Var("x")


def entity_category_oracle(s: Schema, height: int):
    """Brute force: enumerate all path terms up to a height and group them
    by provable equality under the completed path equations."""
    rs = complete(Presentation(s.entity_sig, s.presentation.path_eqs))
    homs = {}
    for a in s.entities:
        for b in s.entities:
            terms = enumerate_terms(s.entity_sig, ctx(("x", a)), b, height)
            classes = []
            for t in terms:
                for cls in classes:
                    if rs.decide_equal(t, cls[0]) == EqResult.Equal:
                        cls.append(t)
                        break
                else:
                    classes.append([t])
            homs[(a, b)] = classes
    return homs


class TestEntityCategory:
    def test_matches_brute_force_oracle(self, ws):
        for name in ("S", "T", "L", "R", "RS"):
            s = ws.schemas[name]
            got = saturate_entity_category(s)
            oracle = entity_category_oracle(s, 6)
            for key, classes in oracle.items():
                assert len(got[key]) == len(classes), (name, key)

    def test_employee_schema_hom_sets(self, ws):
        s = ws.schemas["S"]
        ents = {e.name: e for e in s.entities}
        homs = saturate_entity_category(s)
        # Emp -> Emp: x, x.mgr, x.wrk.sec, x.wrk.sec.mgr;
        # Emp -> Dept: x.wrk;  Dept -> Emp: x.sec, x.sec.mgr;
        # Dept -> Dept: x.
        assert len(homs[(ents["Emp"], ents["Emp"])]) == 4
        assert len(homs[(ents["Emp"], ents["Dept"])]) == 1
        assert len(homs[(ents["Dept"], ents["Emp"])]) == 2
        assert len(homs[(ents["Dept"], ents["Dept"])]) == 1

    def test_infinite_category_detected(self):
        A = Sort("A")
        loop = FunctionSymbol("loop", (A,), A)
        s = compile_schema(SchemaPresentation((A,), (loop,), ()))
        with pytest.raises(PossiblyInfinite):
            saturate_entity_category(s, budget=Budget(rows=50))


class TestSchemaValidation:
    def test_rejects_non_entity_edge(self):
        A = Sort("A")
        bad = FunctionSymbol("bad", (A,), INT)
        with pytest.raises(SchemaError):
            SchemaPresentation((A,), (bad,), ())

    def test_rejects_entity_valued_attribute(self):
        A = Sort("A")
        bad = FunctionSymbol("bad", (A,), A)
        with pytest.raises(SchemaError):
            SchemaPresentation((A,), (), (bad,))

    def test_rejects_type_sort_entity(self):
        with pytest.raises(SchemaError):
            SchemaPresentation((INT,), (), ())


class TestMappings:
    def test_paper_mappings_check_clean(self, ws):
        for name in ("G", "F", "H"):
            assert check_mapping(ws.mappings[name]) == [], name

    def test_identity_and_composition(self, ws):
        s, t = ws.schemas["S"], ws.schemas["T"]
        G = ws.mappings["G"]
        ids, idt = identity_mapping(s), identity_mapping(t)
        assert check_mapping(ids) == []
        left = compose_mappings(ids, G)
        right = compose_mappings(G, idt)
        for f in s.edges:
            assert t.entity_rs.normalize(left.on_edge(f)) \
                == t.entity_rs.normalize(right.on_edge(f))

    def test_translate_respects_paths(self, ws):
        s, t = ws.schemas["S"], ws.schemas["T"]
        G = ws.mappings["G"]
        syms = {f.name: f for f in s.edges}
        p = app(syms["wrk"], app(syms["mgr"], x))
        assert t.entity_rs.normalize(G.translate(p)) \
            == t.entity_rs.normalize(
                app({f.name: f for f in t.edges}["wrk"], x))

    def test_violating_mapping_detected(self, ws):
        # negate every salary: the observable equation
        # (e.sal <= e.mgr.sal) = true is no longer provable.
        from catdb.kernel import app as mk
        from catdb.typeside import NEG
        s = ws.schemas["S"]
        syms = {f.name: f for f in s.edges}
        attrs = {a.name: a for a in s.attributes}
        bad = SchemaMapping.make(
            s, s, {e: e for e in s.entities},
            {f: app(f, x) for f in syms.values()},
            {attrs["last"]: app(attrs["last"], x),
             attrs["name"]: app(attrs["name"], x),
             attrs["sal"]: mk(NEG, app(attrs["sal"], x))})
        assert any("observable" in v for v in check_mapping(bad))

    def test_wrong_codomain_rejected(self, ws):
        s = ws.schemas["S"]
        syms = {f.name: f for f in s.edges}
        with pytest.raises(SchemaMismatch):
            SchemaMapping.make(
                s, s, {e: e for e in s.entities},
                {syms["mgr"]: app(syms["wrk"], x),
                 syms["wrk"]: app(syms["wrk"], x),
                 syms["sec"]: app(syms["sec"], x)},
                {a: app(a, x) for a in s.attributes})


class TestDiscreteOpfibration:
    def test_paper_mappings_are_not(self, ws):
        assert is_discrete_opfibration(ws.mappings["G"]) == "no"
        assert is_discrete_opfibration(ws.mappings["H"]) == "no"

    def test_identity_is(self, ws):
        assert is_discrete_opfibration(
            identity_mapping(ws.schemas["R"])) == "yes"

    def test_two_fibre_projection_is(self):
        # two copies of a pointed edge over one base arrow
        B1, B2 = Sort("B1"), Sort("B2")
        bf = FunctionSymbol("bf", (B1,), B2)
        ba = FunctionSymbol("ba", (B1,), INT)
        base = compile_schema(SchemaPresentation((B1, B2), (bf,), (ba,)))
        E1, E2, E1b, E2b = (Sort(n) for n in ("E1", "E2", "E1b", "E2b"))
        ef = FunctionSymbol("ef", (E1,), E2)
        efb = FunctionSymbol("efb", (E1b,), E2b)
        ea = FunctionSymbol("ea", (E1,), INT)
        eab = FunctionSymbol("eab", (E1b,), INT)
        tot = compile_schema(
            SchemaPresentation((E1, E2, E1b, E2b), (ef, efb), (ea, eab)))
        proj = SchemaMapping.make(
            tot, base,
            {E1: B1, E2: B2, E1b: B1, E2b: B2},
            {ef: app(bf, x), efb: app(bf, x)},
            {ea: app(ba, x), eab: app(ba, x)})
        assert is_discrete_opfibration(proj) == "yes"
