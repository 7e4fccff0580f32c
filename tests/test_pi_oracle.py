"""`pi` reads each attribute cell off its transform; the atom resolver it
replaced (`tests/pi_oracle.py`) must give the same tables, or fail the
same way, wherever it worked."""

import random

import pytest

from catdb.dsl import parse_workspace
from catdb.instance import (
    InconsistentInstance, instances_isomorphic, saturate, tables,
)
from catdb.migration import collage_of_bimodule, delta, gamma, pi
from catdb.query import query_to_bimodule
from tests import pi_oracle
from tests.conftest import load_fixture
from tests.genfixtures import bench_company, random_instance

NULLS = dict(null_share=0.25, salaries=(300, 600))


def outcome(fn):
    try:
        return "ok", tables(fn())
    except Exception as exc:  # compared by type and message
        return "raised", type(exc).__name__, str(exc)


def same_pi(F, I):
    got = outcome(lambda: pi(F, I))
    assert got == outcome(lambda: pi_oracle.pi(F, I))
    return got


def same_gamma(Q, I):
    _, M = query_to_bimodule(Q)
    col = collage_of_bimodule(M)
    got = outcome(lambda: gamma(M, I))
    assert got == outcome(
        lambda: delta(col.incl_src, pi_oracle.pi(col.incl_dst, I)))
    return got


@pytest.mark.parametrize("name", ["J", "Jbar"])
def test_G_over_the_fixture(ws, name):
    got = same_pi(ws.mappings["G"], saturate(ws.instances[name]))
    assert got[0] == "ok" and got[1]["entities"]["QR"]["rows"]


@pytest.mark.parametrize("name", ["J", "Jbar"])
def test_gamma_of_Q(ws, name):
    got = same_gamma(ws.queries["Q"], saturate(ws.instances[name]))
    assert got[0] == "ok" and got[1]["entities"]["*"]["rows"]


def test_target_attribute_without_preimage_fails_alike(ws, satJ):
    # Team.col in L has no preimage under H
    got = same_pi(ws.mappings["H"], satJ)
    assert got[0] == "raised" and "outside the image: x.col" in got[2]


def test_random_R_instances_fail_alike(ws):
    # F : R -> T reaches no attribute of Emp or Dept
    rng = random.Random(12)
    F = ws.mappings["F"]
    for _ in range(5):
        I = saturate(random_instance(rng, F.source))
        assert same_pi(F, I)[0] == "raised"


@pytest.mark.parametrize("seed,n_emp", [(3, 20), (4, 40)])
def test_null_bearing_companies(seed, n_emp):
    ws = parse_workspace(
        bench_company(seed, n_emp, n_emp // 5, **NULLS), "company")
    W = saturate(ws.instances["W"])
    assert W.typealg.nulls.bindings
    got = same_pi(ws.mappings["G"], W)
    assert got[0] == "ok" and got[1]["entities"]["QR"]["rows"]
    assert same_gamma(ws.queries["Q"], W)[0] == "ok"


def test_a_mapping_that_renames_and_merges_attributes():
    # F3 sends A and B to E, and their attributes a and b to n: the oracle
    # reads a cell x.n of y(E) through a at an A row or b at a B row
    merge = load_fixture("merge.cdb")
    F3 = merge.mappings["F3"]
    rng = random.Random(29)
    Xs = [saturate(merge.instances["I3"])]
    while len(Xs) < 21:
        try:
            Xs.append(saturate(random_instance(rng, F3.source)))
        except InconsistentInstance:  # two names forced onto one row
            continue
    for X in Xs:
        got = pi(F3, X)
        assert instances_isomorphic(got, pi_oracle.pi(F3, X))
    assert pi(F3, Xs[0]).rows(F3.target.entities[0])
