"""Workspace text format: tokenizer, parser, and pretty printer."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from catdb import dsl
from catdb.dsl import (
    DslError, parse_workspace, render_workspace, tokenize,
)
from catdb.typeside import INT, STR
from tests.conftest import FIXTURES
from tests.genfixtures import (
    bench_company, type_equations_workspace, typeside_instance,
)


class TestTokenizer:
    def test_spans(self):
        text = "schema S {\n  entities A;\n}"
        toks = tokenize(text, "demo.cdb")
        assert toks[0] == "schema"
        first = dsl.token_span(text, "demo.cdb", 0)
        assert (first.line, first.column) == (1, 1)
        entities = dsl.token_span(text, "demo.cdb", toks.index("entities"))
        assert (entities.line, entities.column) == (2, 3)

    def test_comments_and_strings(self):
        toks = tokenize('// hi\n"Admin" 42 e\'')
        assert toks == ['"Admin"', "42", "e'", ""]

    def test_unexpected_character(self):
        with pytest.raises(DslError) as err:
            tokenize("schema ?", "bad.cdb")
        assert "bad.cdb:1:8" in str(err.value)

    @pytest.mark.parametrize("text", [
        "schema S { entities A; }" + " " * 200_000,
        "schema S { entities A; }" + "?" * 200_000,
        "schema S { entities A; } //" + "c" * 1_000_000,
    ], ids=["trailing blanks", "invalid characters", "long comment"])
    def test_linear_time(self, text):
        start = time.perf_counter()
        try:
            tokenize(text)
        except DslError:
            pass
        assert time.perf_counter() - start < 1

    def test_parse_builds_no_span(self, monkeypatch):
        """Spans are found again only for an error: parsing a workspace
        that has none makes no SourceSpan, and an error still makes one."""
        class Built(Exception):
            pass

        def refuse(*args):
            raise Built
        monkeypatch.setattr(dsl, "SourceSpan", refuse)
        for name in ("paper.cdb", "group.cdb"):
            parse_workspace((FIXTURES / name).read_text(encoding="utf-8"))
        for text in (bench_company(1, 36, 7, null_share=0.25),
                     typeside_instance(), type_equations_workspace()):
            parse_workspace(text)
        with pytest.raises(Built):
            parse_workspace("schema S { entities A; } ?")


class TestParseErrors:
    def test_unknown_declaration(self):
        with pytest.raises(DslError) as err:
            parse_workspace("gizmo X {}", "f.cdb")
        assert "gizmo" in str(err.value) and "f.cdb:1:1" in str(err.value)

    def test_reserved_typeside_keyword(self):
        with pytest.raises(DslError) as err:
            parse_workspace("typeside T {}")
        assert "reserved" in str(err.value)

    def test_unknown_name_in_term(self):
        text = """
schema S { entities A; attributes a : A -> Int; }
instance I on S { generators r : A; equations r.nope = 3; }
"""
        with pytest.raises(DslError) as err:
            parse_workspace(text, "f.cdb")
        assert "nope" in str(err.value) and "f.cdb:3" in str(err.value)

    def test_unknown_schema_reference(self):
        with pytest.raises(DslError):
            parse_workspace("instance I on Missing { }")


class TestParsedShapes:
    def test_employee_schema_shape(self, ws):
        p = ws.schemas["S"].presentation
        assert [e.name for e in p.entities] == ["Emp", "Dept"]
        assert [f.name for f in p.edges] == ["mgr", "wrk", "sec"]
        assert [(a.name, a.cod) for a in p.attributes] == [
            ("last", STR), ("name", STR), ("sal", INT)]
        assert len(p.path_eqs) == 3 and len(p.obs_eqs) == 1

    def test_query_is_a_four_tuple(self, ws):
        Q = ws.queries["Q"]
        assert [n for n, _ in Q.for_ctx.bindings] == ["e", "d"]
        assert len(Q.where_eqs) == 2
        assert [n for n, _ in Q.return_ctx.bindings] == [
            "emp_last", "dept_name", "diff"]
        assert Q.return_morph.source == Q.for_ctx

    def test_instance_generators_sorted_by_declaration(self, ws):
        ip = ws.instances["J"]
        names = [n for n, _ in ip.generators.bindings]
        assert names == ["e1", "e2", "e3", "e4", "e5", "e6", "e7",
                         "d1", "d2", "d3", "x"]

    def test_theory_with_infix_and_postfix(self, grp_ws):
        th = grp_ws.theories["Grp"]
        assert set(th.signature.symbols) >= {"1", "a", "b", "*", "inv"}
        assert len(th.equations) == 3

    def test_mapping_images(self, ws):
        F = ws.mappings["F"]
        assert [b.name for _, b in F.entity_map] == ["QR"]
        rendered = {a.name: t for a, t in F.attr_map}
        assert str(rendered["emp_last"]).count("last")


class TestRoundTrip:
    @pytest.mark.parametrize("fixture", ("group.cdb", "paper.cdb"))
    def test_render_then_reparse_is_stable(self, fixture):
        from tests.conftest import FIXTURES
        text = (FIXTURES / fixture).read_text()
        ws1 = parse_workspace(text, fixture)
        r1 = render_workspace(ws1)
        ws2 = parse_workspace(r1, fixture + "<rendered>")
        assert render_workspace(ws2) == r1

    def test_string_constants_round_trip_to_equal_terms(self, ws):
        r = render_workspace(ws)
        assert 'equations e1.last = "Gauss";' in r
        assert 'where e.wrk.name = "Admin"' in r
        ws2 = parse_workspace(r)
        assert render_workspace(ws2) == r
        for name, ip in ws.instances.items():
            assert ip.equations == ws2.instances[name].equations

    def test_round_trip_preserves_structure(self, ws):
        r = render_workspace(ws)
        ws2 = parse_workspace(r)
        assert set(ws2.schemas) == set(ws.schemas)
        assert set(ws2.instances) == set(ws.instances)
        assert set(ws2.mappings) == set(ws.mappings)
        assert set(ws2.queries) == set(ws.queries)
        assert set(ws2.uberqueries) == set(ws.uberqueries)
        for name, ip in ws.instances.items():
            ip2 = ws2.instances[name]
            assert ip.generators.bindings == ip2.generators.bindings
            assert len(ip.equations) == len(ip2.equations)
        for name, q in ws.queries.items():
            q2 = ws2.queries[name]
            assert q.for_ctx == q2.for_ctx
            assert q.where_eqs == q2.where_eqs
            assert q.return_morph.assignment == q2.return_morph.assignment


class TestTermGrammar:
    def test_precedence(self):
        text = """
theory T {
  sorts Unused;
  constants k : Unused;
}
schema S { entities A; attributes a : A -> Int, b : A -> Int; }
instance I on S {
  generators r : A;
  equations r.a = 1 + 2 * 3, r.b = (1 + 2) * 3;
}
"""
        ws = parse_workspace(text)
        from catdb.instance import saturate, tables
        si = saturate(ws.instances["I"])
        cells = {row[0]: row[1:] for row
                 in tables(si)["entities"]["A"]["rows"]}
        assert cells["r"] == ["7", "9"]

    def test_comparison_and_truth(self):
        text = """
schema S { entities A; attributes a : A -> Int;
  obs_eqs forall r:A . (r.a <= r.a) = true; }
"""
        ws = parse_workspace(text)
        assert len(ws.schemas["S"].presentation.obs_eqs) == 1


KEYS = "keys f := A[e := e', d := e'.wrk];"


class TestUberqueryChecks:
    """One-line edits of the paper's uber-query N, each refused at parse
    time at the token that is wrong."""

    @pytest.mark.parametrize("old,new,message", [
        ("return dept_name := d.name,", "return dept_name := d.sec.sal,",
         "paper.cdb:135:25: d.sec.sal has sort Int, expected Str"),
        (KEYS, "keys f := A[e := e'];",
         "paper.cdb:140:15: keys f must assign d"),
        (KEYS, "keys f := A[e := e', d := e'.last];",
         "paper.cdb:140:31: e'.last has sort Str, expected Dept"),
        (KEYS, "keys f := Zzz[e := e', d := e'.wrk];",
         "paper.cdb:140:15: keys f names Zzz, not its target A"),
        (KEYS, "keys f := A[e := e', d := e'.wrk, z := e'];",
         "paper.cdb:140:39: block A has no FOR variable 'z'"),
    ], ids=["return sort", "missing key", "key sort", "block name",
            "extra key"])
    def test_refused_edit(self, old, new, message):
        from tests.conftest import FIXTURES
        text = (FIXTURES / "paper.cdb").read_text()
        assert text.count(old) == 1
        with pytest.raises(DslError) as err:
            parse_workspace(text.replace(old, new), "paper.cdb")
        assert str(err.value) == message

    def test_ill_sorted_return_term(self):
        from tests.conftest import FIXTURES
        text = (FIXTURES / "paper.cdb").read_text()
        with pytest.raises(DslError):
            parse_workspace(text.replace("return dept_name := d.name,",
                                         "return dept_name := d.name + 1,"))

    def test_keys_into_a_missing_block(self):
        text = """
schema S { entities E; }
schema R { entities A B; edges f : B -> A; }
uberquery N on S -> R {
  entity B { for x:E; keys f := A[y := x]; }
}
"""
        with pytest.raises(DslError) as err:
            parse_workspace(text, "u.cdb")
        assert str(err.value) == "u.cdb:5:33: no block for result entity A"


class TestMutatedFixtures:
    """Deleting, duplicating or swapping one token of a fixture may make
    it malformed, but never crashes the parser."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.sampled_from(("group.cdb", "paper.cdb")), st.data())
    def test_only_domain_errors(self, fixture, data):
        from catdb.cli import DOMAIN_ERRORS
        from tests.conftest import FIXTURES
        words = tokenize((FIXTURES / fixture).read_text())[:-1]
        i = data.draw(st.integers(0, len(words) - 2))
        edit = data.draw(st.sampled_from(("delete", "duplicate", "swap")))
        if edit == "delete":
            del words[i]
        elif edit == "duplicate":
            words.insert(i, words[i])
        else:
            words[i], words[i + 1] = words[i + 1], words[i]
        try:
            parse_workspace(" ".join(words), fixture)
        except DOMAIN_ERRORS + (RecursionError,):
            pass
