"""Indexed transform search against the nested-loop oracle."""

import random

import pytest

from catdb.dsl import parse_workspace
from catdb.instance import (
    DomainDependence, InconsistentInstance, InstancePresentation,
    canonical_presentation, enumerate_transforms, representable_instance,
    saturate,
)
from catdb.kernel import Equation, Var, app, ctx
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
