"""Chase saturation and hom-sets against the staged-closure oracle."""

import random
from dataclasses import replace

import pytest

from catdb.dsl import parse_workspace
from catdb.instance import (
    InstanceError, representable_instance, saturate, tables, tables_json,
)
from catdb.migration import collage_of_bimodule, sigma
from catdb.query import query_to_bimodule
from catdb.schema import SchemaError, saturate_entity_category
from catdb.typeside import TypeAlgebra
from tests import saturate_oracle as oracle
from tests.conftest import FIXTURES
from tests.genfixtures import (
    bench_company, company_instance, random_instance,
    type_equations_workspace, typeside_instance,
)

SCHEMAS = ("S", "T", "L", "R", "RS")


def outcome(sat, ip):
    """The saturated instance, or the error saturation raised."""
    try:
        return sat(ip)
    except (InstanceError, SchemaError) as exc:
        return (type(exc).__name__, str(exc))


def assert_same(ip):
    """The tables as JSON, or the error both saturations raised.  When both
    saturate, their type algebras also have the same hypotheses, in the
    same order."""
    got, want = outcome(saturate, ip), outcome(oracle.saturate, ip)
    if isinstance(got, tuple) or isinstance(want, tuple):
        assert got == want
        return got
    assert list(got.typealg.hypotheses) == list(want.typealg.hypotheses)
    out = tables_json(got)
    assert out == tables_json(want)
    return out


def test_fixture_instances(ws):
    for name in ("J", "Jbar", "I", "I'"):
        assert isinstance(assert_same(ws.instances[name]), str), name


def test_type_equation_instances():
    # K's cells use every canonical value form; of the others, some
    # saturate and some are inconsistent
    saturated = 0
    for source in (typeside_instance, type_equations_workspace):
        ws = parse_workspace(source(), "<types>")
        for ip in ws.instances.values():
            saturated += isinstance(assert_same(ip), str)
    assert saturated == 8


def test_company_with_nulls():
    text = bench_company(1, 40, 8, null_share=0.25, salaries=(300, 600))
    ip = parse_workspace(text, "<company>").instances["W"]
    assert isinstance(assert_same(ip), str)


def test_representables(ws):
    for name in SCHEMAS:
        s = ws.schemas[name]
        for e in s.entities:
            assert isinstance(assert_same(representable_instance(s, e)), str)


@pytest.mark.parametrize("name", SCHEMAS)
def test_random_instances(ws, name):
    # Random strings can clash with rows merged by path equations; those
    # instances must fail alike, and 100 must saturate to tables.
    rng = random.Random(f"chase-{name}")
    saturated = 0
    for _ in range(400):
        ip = random_instance(rng, ws.schemas[name])
        saturated += isinstance(assert_same(ip), str)
        if saturated == 100:
            break
    assert saturated == 100


def test_left_migrations_along_H(ws):
    # L's rule x.mgr.on ~> x.on fires only on the mgr spelling of a row,
    # which need not be its representative.
    H = ws.mappings["H"]
    rng = random.Random(2031)
    for _ in range(40):
        I = random_instance(rng, ws.schemas["S"], attr_fill=0.0)
        assert isinstance(assert_same(sigma(H, I)), str)


def test_hom_sets(ws):
    _, M = query_to_bimodule(ws.queries["Q"])
    schemas = [ws.schemas[n] for n in SCHEMAS]
    schemas.append(collage_of_bimodule(M).schema)
    for s in schemas:
        assert saturate_entity_category(s) \
            == oracle.saturate_entity_category(s)


CYCLES = """
schema P {
  entities Item;
  edges nxt : Item -> Item;
  attributes qty : Item -> Int;
}
instance K1 on P {
  generators i1 : Item;
  equations i1.nxt = i1;
}
instance K3 on P {
  generators i1 i2 i3 : Item;
  equations i1.nxt = i2, i2.nxt = i3, i3.nxt = i1;
}
"""


@pytest.mark.parametrize("name, cells", [
    ("K1", [["i1", "i1", "i1.qty"]]),
    ("K3", [["i1", "i2", "i1.qty"], ["i2", "i3", "i2.qty"],
            ["i3", "i1", "i3.qty"]]),
])
def test_edge_cycles_end(name, cells):
    # No rule reads through nxt, so the chase applies nxt to each row's
    # representative only, and i1.nxt.nxt... is never built.
    ws = parse_workspace(CYCLES, "<cycles>")
    si = saturate(ws.instances[name])
    assert tables(si)["entities"]["Item"]["rows"] == cells


def test_hom_sets_build_no_type_algebra(ws, monkeypatch):
    built = []
    real = TypeAlgebra.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(TypeAlgebra, "__init__", counting)
    for name in SCHEMAS:
        s = ws.schemas[name]
        assert saturate_entity_category(s) \
            == oracle.saturate_entity_category(s)
    assert built == []


def test_equation_order_does_not_change_the_tables(ws):
    text = ((FIXTURES / "paper.cdb").read_text(encoding="utf-8") + "\n"
            + company_instance(random.Random(60)))
    company = parse_workspace(text, "<company>").instances["W"]
    K = parse_workspace(typeside_instance(), "<K>").instances["K"]
    rng = random.Random(2046)
    fixtures = [ws.instances[n] for n in ("J", "Jbar", "I", "I'")]
    for ip in fixtures + [K, company]:
        want = tables_json(saturate(ip))
        for _ in range(3):
            eqs = list(ip.equations)
            rng.shuffle(eqs)
            assert tables_json(saturate(replace(ip, equations=tuple(eqs)))) \
                == want
