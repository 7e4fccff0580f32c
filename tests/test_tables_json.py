"""`tables_json` lays out `json.dumps(tables(si), indent=2)` by hand: the
same bytes, and no cyclic garbage."""

import gc
import json

import pytest

from catdb.dsl import parse_workspace
from catdb.instance import _json, saturate, tables, tables_json
from tests.conftest import load_fixture
from tests.genfixtures import bench_company

EMPTY_ENTITY = """
schema E2 { entities A B; edges f : A -> A; attributes s : A -> Str; }
instance K on E2 { generators a : A; equations a.f = a, a.s = "Admin"; }
instance K0 on E2 { }
"""


def instances():
    ws = load_fixture("paper.cdb")
    out = {f"fixture {n}": ip for n, ip in ws.instances.items()}
    for shape, kw in (("ground", {}),
                      ("nulls", {"null_share": 0.25, "salaries": (300, 600)})):
        w = parse_workspace(bench_company(1, 40, 8, **kw))
        out[f"company {shape}"] = w.instances["W"]
    out.update((f"empty entity {n}", ip) for n, ip in
               parse_workspace(EMPTY_ENTITY).instances.items())
    return out


INSTANCES = instances()


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_same_bytes_as_the_encoder(name):
    si = saturate(INSTANCES[name])
    assert tables_json(si) == json.dumps(tables(si), indent=2)


def test_nested_values_and_non_ascii():
    doc = {"a": [], "b": {}, "c": [["x", "É\n\t\""], [""]], "d": {"e": ["f"]}}
    assert _json(doc, "\n") == json.dumps(doc, indent=2)


@pytest.mark.parametrize("name", ["fixture J", "company nulls",
                                  "empty entity K0"])
def test_no_cyclic_garbage(name):
    si = saturate(INSTANCES[name])
    gc.collect()
    gc.disable()
    try:
        tables_json(si)
        assert gc.collect() == 0
    finally:
        gc.enable()
