"""Indexed transform search against the nested-loop oracle."""

import random

import pytest

from catdb.dsl import parse_workspace
from catdb.instance import (
    DomainDependence, InconsistentInstance, InstancePresentation,
    canonical_presentation, enumerate_transforms, representable_instance,
    saturate,
)
from catdb.kernel import Equation, Var, app, ctx, int_literal
from catdb.migration import delta
from catdb.query import frozen_instance
from catdb.typeside import INT, STR, str_literal
from tests.conftest import FIXTURES
from tests.genfixtures import random_instance
from tests.transform_oracle import enumerate_transforms as oracle

EQUI_JOIN = """
query SJ on S {
  for e:Emp, f:Emp;
  where e.wrk = f.wrk, e.sal = f.sal;
  return left := e.last, right := f.last, pay := e.sal;
}
"""

# Sources for the cases a search plan must get right; they are never
# saturated, only searched from.
PLAN_CASES = """
instance Agree on S {
  generators e f : Emp;
  equations e.last = "Turing", f = e.mgr, f = e;
}
instance Disagree on S {
  generators e f : Emp;
  equations e.last = "Noether", f = e.mgr, f = e;
}
instance TwoForcings on S {
  generators e : Emp;
  generators x : Int;
  equations x = e.sal, x = e.mgr.sal;
}
instance EmptyBucket on S {
  generators e : Emp;
  generators d : Dept;
  equations d.sec = e.mgr;
}
instance LateNull on S {
  generators e : Emp;
  generators d : Dept;
  generators x : Int;
  equations (e.sal <= d.sec.sal) = true, x = d.sec.sal - e.sal;
}
instance NoLeaf on S {
  generators e : Emp;
  generators d : Dept;
  generators y : Int;
  equations e.last = "Turing", d.name = "IT", (d.sec.sal <= e.sal) = false;
}
"""


def outcome(search, src, dst):
    """The transforms as (rows, vals) pairs, or the DomainDependence
    message."""
    try:
        ts = search(src, dst)
    except DomainDependence as exc:
        return ("DomainDependence", str(exc))
    assert all(t.source is src and t.target is dst for t in ts)
    return [(t.rows, t.vals) for t in ts]


def assert_same(src, dst):
    got = outcome(enumerate_transforms, src, dst)
    assert got == outcome(oracle, src, dst)
    return got


@pytest.fixture(scope="module")
def sats(ws):
    return {n: saturate(ws.instances[n]) for n in ("J", "Jbar", "I'")}


def entity(schema, name):
    return [e for e in schema.entities if e.name == name][0]


class TestAgainstOracle:
    @pytest.mark.parametrize("src", ["I", "I'"])
    @pytest.mark.parametrize("dst", ["J", "Jbar"])
    def test_paper_instances(self, ws, sats, src, dst):
        assert assert_same(ws.instances[src], sats[dst])

    def test_instances_with_forced_nulls(self, ws, sats):
        # J's null x is forced by e7.sal = x
        for src, dst in (("J", "J"), ("J", "Jbar"), ("Jbar", "J")):
            assert_same(ws.instances[src], sats[dst])
        assert assert_same(ws.instances["I"], sats["I'"])

    def test_frozen_query_and_uberquery_blocks(self, ws, sats):
        assert assert_same(frozen_instance(ws.queries["Q"]), sats["J"])
        N = ws.uberqueries["N"]
        for _, b in N.blocks:
            pres = InstancePresentation(N.schema, b.for_ctx,
                                        tuple(b.where_eqs))
            assert assert_same(pres, sats["J"])

    def test_pi_canonical_presentations(self, ws, sats):
        G = ws.mappings["G"]
        for t in G.target.entities:
            dI = delta(G, saturate(representable_instance(G.target, t)))
            for dst in ("J", "Jbar"):
                assert_same(canonical_presentation(dI), sats[dst])

    def test_canonical_presentation_of_the_target(self, sats):
        assert assert_same(canonical_presentation(sats["Jbar"]), sats["Jbar"])

    def test_equi_join(self, sats):
        text = (FIXTURES / "paper.cdb").read_text(encoding="utf-8")
        ws = parse_workspace(text + EQUI_JOIN, "paper+SJ")
        src = frozen_instance(ws.queries["SJ"])
        for dst in ("J", "Jbar"):
            assert assert_same(src, saturate(ws.instances[dst]))

    def test_unforced_null_raises_the_same_error(self, ws, sats):
        s = ws.schemas["S"]
        emp = entity(s, "Emp")
        last = {a.name: a for a in s.attributes}["last"]
        G = ctx(("e", emp), ("y", INT))
        free = InstancePresentation(s, G, ())
        assert assert_same(free, sats["J"])[0] == "DomainDependence"
        # no row satisfies the equation, so no leaf is reached to raise
        none = InstancePresentation(s, G, (Equation(
            G, app(last, Var("e")), str_literal("nobody"), STR),))
        assert assert_same(none, sats["J"]) == []

    def test_seeded_random_instances(self, ws):
        rng = random.Random(20261018)
        s = ws.schemas["S"]
        checked = found = 0
        for _ in range(40):
            src = random_instance(rng, s, 2, edge_fill=0.3, attr_fill=0.2)
            try:
                dst = saturate(random_instance(rng, s, max_rows_per_entity=4))
            except InconsistentInstance:  # two names forced onto one row
                continue
            found += len(assert_same(src, dst))
            checked += 1
        assert checked >= 20 and found > 0


@pytest.fixture(scope="module")
def plan_cases():
    text = (FIXTURES / "paper.cdb").read_text(encoding="utf-8")
    ws = parse_workspace(text + PLAN_CASES, "paper+plan cases")
    return ws, {n: saturate(ws.instances[n]) for n in ("J", "Jbar")}


class TestPlanCases:
    """Searches whose plans force a generator twice, fail at the root, find
    an empty index bucket below it, leave declaration order, or reach no
    leaf, against the nested-loop oracle."""

    def test_generator_forced_by_two_equations(self, plan_cases):
        ws, sats = plan_cases
        J = sats["J"]
        # e4 is its own manager: f = e4.mgr and f = e agree
        [(rows, _)] = assert_same(ws.instances["Agree"], J)
        assert rows == (("e", Var("e4")), ("f", Var("e4")))
        # e2's manager is e4: the two forcings of f disagree
        assert assert_same(ws.instances["Disagree"], J) == []
        # x = e.sal and x = e.mgr.sal agree only for a self-managed e
        got = assert_same(ws.instances["TwoForcings"], J)
        assert [rows for rows, _ in got] == [
            (("e", Var(n)),) for n in ("e1", "e3", "e4", "e7")]

    def test_ground_equation_false_at_the_root(self, ws, sats):
        s = ws.schemas["S"]
        G = ctx(("e", entity(s, "Emp")), ("y", INT))
        false = Equation(G, app(int_literal(1)), app(int_literal(2)), INT)
        # the root fails, so no leaf is reached to report y as unforced
        src = InstancePresentation(s, G, (false,))
        assert assert_same(src, sats["J"]) == []
        true = Equation(G, app(int_literal(2)), app(int_literal(2)), INT)
        src = InstancePresentation(s, G, (true,))
        assert assert_same(src, sats["J"])[0] == "DomainDependence"

    def test_empty_bucket_below_the_root(self, plan_cases):
        ws, sats = plan_cases
        src = ws.instances["EmptyBucket"]
        # no department's secretary manages anyone but e3 (and, in Jbar,
        # e6), so the index on d.sec is probed at e.mgr's row and misses
        # for every other e
        assert len(assert_same(src, sats["J"])) == 1
        assert len(assert_same(src, sats["Jbar"])) == 2

    def test_reordered_search_forces_its_null_at_the_last_level(
            self, plan_cases):
        ws, sats = plan_cases
        src = ws.instances["LateNull"]
        for dst in sats.values():
            # Dept is the smaller table, so d is bound before e, and x
            # once both are
            got = assert_same(src, dst)
            assert len(got) > 1 and all(len(vals) == 1 for _, vals in got)

    def test_unforced_null_without_a_full_assignment(self, plan_cases):
        ws, sats = plan_cases
        # y is forced by nothing, but the last level's check fails for the
        # one candidate of each level, so no leaf raises
        assert assert_same(ws.instances["NoLeaf"], sats["J"]) == []
