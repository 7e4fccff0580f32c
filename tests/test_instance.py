"""Instance saturation, transforms, and table rendering."""

import itertools
import json

import pytest

from catdb.kernel import (
    Context, Equation, FunctionSymbol, Sort, Var, app, ctx, render_term,
)
from catdb.dsl import parse_workspace
from catdb.migration import delta
from catdb.rewrite import Budget, EqResult
from catdb.schema import PossiblyInfinite, SchemaPresentation, compile_schema
from catdb.instance import (
    DomainDependence, InconsistentInstance, InstanceError,
    InstancePresentation, SaturatedInstance, Transform, canonical_presentation,
    check_transform, enumerate_transforms, hom_count, instances_isomorphic,
    observable_decide, render_tables, representable_instance, saturate,
    tables, tables_json, tabulate,
)
from catdb.typeside import (
    INT, LE, STR, TRUE, int_term, str_literal, ts_normalize,
)
from tests.genfixtures import bench_company


def entity(schema, name):
    return [e for e in schema.entities if e.name == name][0]


def by_name(syms):
    return {s.name: s for s in syms}


def reversed_rows(si):
    """The same tables with every entity's rows in reverse order."""
    return SaturatedInstance(
        si.schema, {e: rows[::-1] for e, rows in si.row_list.items()},
        si.edge_cols, si.attr_cols, si.typealg, si.gen_env)


def table_cells(si, entity_name):
    tab = tables(si)["entities"][entity_name]
    return {row[0]: dict(zip(tab["columns"][1:], row[1:]))
            for row in tab["rows"]}


class TestSaturation:
    def test_employee_tables_cell_for_cell(self, satJ):
        emp = table_cells(satJ, "Emp")
        assert emp == {
            "e1": {"mgr": "e1", "wrk": "d3", "last": '"Gauss"', "sal": "250"},
            "e2": {"mgr": "e4", "wrk": "d2", "last": '"Noether"', "sal": "200"},
            "e3": {"mgr": "e3", "wrk": "d1", "last": '"Einstein"', "sal": "300"},
            "e4": {"mgr": "e4", "wrk": "d2", "last": '"Turing"', "sal": "400"},
            "e5": {"mgr": "e1", "wrk": "d3", "last": '"Newton"', "sal": "100"},
            "e6": {"mgr": "e7", "wrk": "d2", "last": '"Euclid"', "sal": "150"},
            "e7": {"mgr": "e7", "wrk": "d2", "last": '"Hypatia"', "sal": "x"},
        }
        dept = table_cells(satJ, "Dept")
        assert dept == {
            "d1": {"sec": "e3", "name": '"HR"'},
            "d2": {"sec": "e6", "name": '"Admin"'},
            "d3": {"sec": "e5", "name": '"IT"'},
        }

    def test_type_algebra_hypotheses(self, satJ):
        summary = tables(satJ)["typealg"]
        assert summary["nulls"] == ["x : Int"]
        assert summary["constraints"] == ["(150 <= x) = true"]

    def test_ground_variant_has_no_nulls(self, ws):
        si = saturate(ws.instances["Jbar"])
        assert tables(si)["typealg"] == {"nulls": [], "constraints": []}
        assert len(si.rows([e for e in si.schema.entities
                            if e.name == "Emp"][0])) == 6

    def test_inconsistent_instance_rejected(self, ws):
        s = ws.schemas["S"]
        sal = {a.name: a for a in s.attributes}["sal"]
        G = ctx(("e", [e for e in s.entities if e.name == "Emp"][0]))
        ip = InstancePresentation(s, G, (
            Equation(G, app(sal, Var("e")), int_term(1), INT),
            Equation(G, app(sal, Var("e")), int_term(2), INT),
        ))
        with pytest.raises(InconsistentInstance):
            saturate(ip)

    def test_possibly_infinite_saturation(self):
        A = Sort("A")
        loop = FunctionSymbol("loop", (A,), A)
        s = compile_schema(SchemaPresentation((A,), (loop,), ()))
        with pytest.raises(PossiblyInfinite):
            saturate(InstancePresentation(s, ctx(("a", A))), budget=Budget(rows=5))

    def test_representable_instance(self, ws):
        s = ws.schemas["S"]
        emp = [e for e in s.entities if e.name == "Emp"][0]
        si = saturate(representable_instance(s, emp))
        by_name = {e.name: e for e in s.entities}
        assert len(si.rows(by_name["Emp"])) == 4
        assert len(si.rows(by_name["Dept"])) == 1


class TestTransforms:
    def test_hom_counts_from_frozen_instances(self, ws, satJ):
        assert hom_count(ws.instances["I"], satJ) == 3
        got = {tuple(t.row_assignment()[n].name for n in ("e", "d"))
               for t in enumerate_transforms(ws.instances["I"], satJ)}
        assert got == {("e2", "d1"), ("e6", "d1"), ("e6", "d2")}

    def test_presented_transforms_between_instances(self, ws):
        sat_ip = saturate(ws.instances["I'"])
        ts = enumerate_transforms(ws.instances["I"], sat_ip)
        rendered = sorted(t.render() for t in ts)
        assert rendered == ["[e := e', d := e'.wrk]",
                           "[e := e'.wrk.sec, d := e'.wrk]"]

    def test_enumeration_matches_brute_force(self, ws, satJ):
        src = ws.instances["I"]
        got = {tuple(sorted(t.row_assignment().items()))
               for t in enumerate_transforms(src, satJ)}
        # oracle: try every assignment of generators to rows and keep the
        # ones that check out.
        gens = src.entity_generators()
        pools = [satJ.rows(s) for _, s in gens]
        want = set()
        for combo in itertools.product(*pools):
            rows = tuple((n, r) for (n, _), r in zip(gens, combo))
            t = Transform(src, satJ, rows, ())
            if not check_transform(t):
                want.add(tuple(sorted(dict(rows).items())))
        assert got == want

    def test_unforced_type_generator_rejected(self, ws, satJ):
        s = ws.schemas["S"]
        emp = [e for e in s.entities if e.name == "Emp"][0]
        G = ctx(("e", emp), ("y", INT))
        free = InstancePresentation(s, G, ())
        with pytest.raises(DomainDependence):
            enumerate_transforms(free, satJ)

    def test_mismatched_schemas_rejected(self, ws, satJ):
        r = ws.schemas["R"]
        a = [e for e in r.entities if e.name == "A"][0]
        other = InstancePresentation(r, ctx(("a", a)), ())
        with pytest.raises(InstanceError):
            enumerate_transforms(other, satJ)



class TestTabulate:
    """The one For-Where-Return evaluator: a row per transform, an edge
    cell by precomposition with the keys, an attribute cell by the return
    term.  Blocks X (employees named `last`) and Y (departments named
    `name`) with k : X -> Y keyed by d := e.wrk and u : Y -> Str."""

    @staticmethod
    def tabulate(ws, last, name, keys, returns):
        S = ws.schemas["S"]
        ents, syms = by_name(S.entities), by_name(S.attributes)
        X, Y = Sort("X"), Sort("Y")
        R = compile_schema(SchemaPresentation(
            (X, Y), (FunctionSymbol("k", (X,), Y),),
            (FunctionSymbol("u", (Y,), STR),)))

        def block(var, entity, attr, value):
            G = ctx((var, ents[entity]))
            return InstancePresentation(S, G, () if value is None else (
                Equation(G, app(syms[attr], Var(var)), str_literal(value),
                         STR),))
        blocks = {X: ("x", block("e", "Emp", "last", last)),
                  Y: ("y", block("d", "Dept", "name", name))}
        return tabulate(R, saturate(ws.instances["J"]), blocks, keys,
                        returns)

    def test_keys_and_returns(self, ws):
        wrk = by_name(ws.schemas["S"].edges)["wrk"]
        name = by_name(ws.schemas["S"].attributes)["name"]
        out, found = self.tabulate(
            ws, "Euclid", None, lambda f: {"d": app(wrk, Var("e"))},
            lambda a: app(name, Var("d")))
        (x_rows, _), (y_rows, alphas) = found.values()
        assert [r.name for r in x_rows] == ["x1"]
        assert len(y_rows) == len(alphas) == 3
        k, = out.schema.edges
        d = dict(alphas[y_rows.index(out.edge_cols[k][x_rows[0]])].rows)["d"]
        assert render_term(d) == "d2"  # Euclid works in d2
        assert tables(out)["entities"]["Y"]["rows"] == [
            ["y1", '"HR"'], ["y2", '"Admin"'], ["y3", '"IT"']]

    def test_keys_that_reach_no_row_name_the_edge(self, ws):
        # Gauss works in d3, which is not the one Admin row of Y
        wrk = by_name(ws.schemas["S"].edges)["wrk"]
        with pytest.raises(InstanceError, match="^the keys of edge k do "
                           "not determine a unique row$"):
            self.tabulate(ws, "Gauss", "Admin",
                          lambda f: {"d": app(wrk, Var("e"))},
                          lambda a: Var("nowhere"))

    def test_no_call_for_a_block_without_rows(self, ws):
        def never(_):
            raise AssertionError("called for a block with no rows")
        out, found = self.tabulate(ws, "Nobody", "Nowhere", never, never)
        assert [rows for rows, _ in found.values()] == [[], []]
        assert out.total_rows() == 0 and list(out.attr_cols.values()) == [{}]

def renamed_generators(ip, prefix="s_"):
    """ip with every generator name prefixed, so none names a row."""
    def rn(t):
        if isinstance(t, Var):
            return Var(prefix + t.name)
        return app(t.symbol, *(rn(a) for a in t.args))
    G = Context(tuple((prefix + n, s) for n, s in ip.generators.bindings))
    return InstancePresentation(ip.schema, G, tuple(
        Equation(G, rn(eq.lhs), rn(eq.rhs), eq.sort) for eq in ip.equations))


class TestGeneratorNames:
    @pytest.mark.parametrize("name,count", [
        ("J", 1), ("Jbar", 1), ("I", 2), ("I'", 2)])
    def test_self_homs_match_renamed_source(self, ws, name, count):
        dst = saturate(ws.instances[name])
        same = enumerate_transforms(ws.instances[name], dst)
        other = enumerate_transforms(renamed_generators(ws.instances[name]),
                                     dst)
        assert len(same) == count
        assert [t.rows for t in same] == [
            tuple((n[2:], r) for n, r in t.rows) for t in other]

    def test_self_hom_of_J_is_identity(self, ws, satJ):
        (t,) = enumerate_transforms(ws.instances["J"], satJ)
        assert all(r == Var(n) for n, r in t.rows)
        assert [n for n, _ in t.vals] == ["x"]

    def test_path_through_a_generator_named_like_a_row(self, ws):
        # I's rows include e.wrk; a source generator e bound to another row
        # must be followed through wrk, not read as the row e.wrk
        s = ws.schemas["S"]
        emp = entity(s, "Emp")
        wrk, sec = by_name(s.edges)["wrk"], by_name(s.edges)["sec"]
        G = ctx(("e", emp))
        src = InstancePresentation(s, G, (
            Equation(G, app(sec, app(wrk, Var("e"))), Var("e"), emp),))
        got = [render_term(t.row_assignment()["e"])
               for t in enumerate_transforms(src, saturate(ws.instances["I"]))]
        assert sorted(got) == ["d.sec", "e.wrk.sec"]


class TestCanonicalPresentation:
    def test_round_trip_is_isomorphic(self, ws, satJ):
        again = saturate(canonical_presentation(satJ))
        assert instances_isomorphic(satJ, again)

    def test_round_trip_preserves_hom_counts(self, ws, satJ):
        again = saturate(canonical_presentation(satJ))
        assert hom_count(ws.instances["I"], again) == 3

    @pytest.fixture(scope="class")
    def companies(self):
        return [saturate(parse_workspace(
            bench_company(seed, 40, 8, **kw), "company").instances["W"])
            for seed, kw in ((3, {}), (4, dict(null_share=0.25,
                                                  salaries=(300, 600))))]

    def test_each_equation_is_written_once(self, satJ, companies):
        # a cell whose atom the type algebra substitutes (e1.sal = 250)
        # is both a cell equation and a substitution
        for si in [satJ] + companies:
            eqs = canonical_presentation(si).equations
            sides = [(eq.lhs, eq.rhs, eq.sort) for eq in eqs]
            assert len(set(sides)) == len(sides)

    def test_written_once_saturates_as_written_twice(self, satJ, companies):
        for si in [satJ] + companies:
            cp = canonical_presentation(si)
            assert tables(saturate(cp)) == tables(saturate(twice(cp)))

    def test_pi_representables_map_out_as_written_twice(self, ws, satJ,
                                                        companies):
        G = ws.mappings["G"]
        for t in G.target.entities:
            cp = canonical_presentation(delta(
                G, saturate(representable_instance(G.target, t))))
            for I in [satJ] + companies:
                once = enumerate_transforms(cp, I)
                assert [(a.rows, a.vals) for a in once] == [
                    (a.rows, a.vals)
                    for a in enumerate_transforms(twice(cp), I)]
                assert once or t.name != "QR"


def twice(pres):
    """pres with every equation written a second time."""
    return InstancePresentation(pres.schema, pres.generators,
                                pres.equations + pres.equations)


class TestIsomorphism:
    def test_different_row_counts_rejected(self, ws, satJ):
        assert not instances_isomorphic(satJ, saturate(ws.instances["Jbar"]))

    def test_different_cells_rejected(self, ws):
        a = saturate(ws.instances["I"])
        b = saturate(ws.instances["I"])
        assert instances_isomorphic(a, b)

    def test_self_isomorphic(self, satJ):
        assert instances_isomorphic(satJ, satJ)

    def test_reversed_rows_isomorphic(self, satJ):
        assert instances_isomorphic(satJ, reversed_rows(satJ))
        assert instances_isomorphic(reversed_rows(satJ), satJ)

    def test_reversed_rows_of_a_large_instance_isomorphic(self, ws):
        s = ws.schemas["S"]
        emp, dept = (entity(s, n) for n in ("Emp", "Dept"))
        mgr, wrk, sec = (by_name(s.edges)[n] for n in ("mgr", "wrk", "sec"))
        last = by_name(s.attributes)["last"]
        names = [f"e{i}" for i in range(14)]
        G = ctx(*[(n, emp) for n in names], ("d", dept))
        eqs = [Equation(G, app(sec, Var("d")), Var("e0"), emp)]
        for i, n in enumerate(names):
            eqs += [Equation(G, app(mgr, Var(n)), Var(n), emp),
                    Equation(G, app(wrk, Var(n)), Var("d"), dept),
                    Equation(G, app(last, Var(n)),
                             str_literal("n" + "abcdefghijklmn"[i]), STR)]
        si = saturate(InstancePresentation(s, G, tuple(eqs)))
        assert len(si.rows(emp)) == 14
        assert instances_isomorphic(si, reversed_rows(si))

    def test_atom_renaming_must_be_one_to_one(self, ws):
        s = ws.schemas["S"]
        emp, dept = (entity(s, n) for n in ("Emp", "Dept"))
        mgr, wrk, sec = (by_name(s.edges)[n] for n in ("mgr", "wrk", "sec"))
        sal = by_name(s.attributes)["sal"]

        def two_bosses(salaries, nulls):
            G = ctx(("a", emp), ("b", emp), ("d", dept),
                    *[(n, INT) for n in nulls])
            eqs = [Equation(G, app(sec, Var("d")), Var("a"), emp)]
            for e, n in zip(("a", "b"), salaries):
                eqs += [Equation(G, app(mgr, Var(e)), Var(e), emp),
                        Equation(G, app(wrk, Var(e)), Var("d"), dept),
                        Equation(G, app(sal, Var(e)), Var(n), INT)]
            return saturate(InstancePresentation(s, G, tuple(eqs)))

        a2 = two_bosses(("n1", "n2"), ("n1", "n2"))
        b2 = two_bosses(("m", "m"), ("m",))
        assert instances_isomorphic(a2, a2)
        assert not instances_isomorphic(a2, b2)
        assert not instances_isomorphic(b2, a2)

    def test_same_sizes_different_cells_rejected(self, ws, satJ):
        jbar = saturate(ws.instances["Jbar"])
        assert not instances_isomorphic(jbar, satJ)
        assert not instances_isomorphic(satJ, jbar)
        last = by_name(satJ.schema.attributes)["last"]
        other = reversed_rows(satJ)
        other.attr_cols = {**other.attr_cols,
                           last: {**other.attr_cols[last],
                                  Var("e2"): ts_normalize(str_literal("x"))}}
        assert not instances_isomorphic(satJ, other)


class TestObservables:
    def test_observable_consequence(self, ws):
        s = ws.schemas["S"]
        emp = [e for e in s.entities if e.name == "Emp"][0]
        sal = {a.name: a for a in s.attributes}["sal"]
        mgr = {f.name: f for f in s.edges}["mgr"]
        e = Var("e")
        c = ctx(("e", emp))
        # e.sal <= e.mgr.sal is a hypothesis; applied at e.mgr it gives
        # e.mgr.sal <= e.mgr.mgr.sal = e.mgr.sal, which is reflexive truth.
        got = observable_decide(
            s, c, app(LE, app(sal, app(mgr, e)), app(sal, app(mgr, e))),
            app(TRUE))
        assert got == EqResult.Equal
        free = observable_decide(
            s, c, app(LE, app(sal, app(mgr, e)), app(sal, e)), app(TRUE))
        assert free != EqResult.Equal


class TestRendering:
    def test_json_and_ascii_agree(self, satJ):
        data = json.loads(tables_json(satJ))
        text = render_tables(satJ)
        for ename, tab in data["entities"].items():
            assert ename in text
            for row in tab["rows"]:
                for cell in row:
                    assert cell in text

    def test_deterministic(self, ws):
        a = render_tables(saturate(ws.instances["J"]))
        b = render_tables(saturate(ws.instances["J"]))
        assert a == b
