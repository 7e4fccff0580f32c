"""`gamma` builds the pushforward only on the bimodule's source entities;
its tables must be those of the composite it replaced
(`tests/pi_oracle.gamma_oracle`), which builds every collage entity and
pulls back."""

import pytest

from catdb.dsl import parse_workspace
from catdb.instance import saturate, tables_json
from catdb.migration import (
    companion_presentation, gamma, lambda_, rename_schema,
)
from catdb.query import crosscheck_migration, query_to_bimodule
from catdb.rewrite import Budget
from catdb.schema import PossiblyInfinite
from tests.genfixtures import bench_company, infinite_side_workspace
from tests.pi_oracle import gamma_oracle

NULLS = dict(null_share=0.25, salaries=(300, 600))
SMALL = Budget(critical_pairs=50, rows=50)


def assert_same_gamma(M, J):
    got, want = gamma(M, J), gamma_oracle(M, J)
    assert got.row_list == want.row_list
    assert got.edge_cols == want.edge_cols
    assert got.attr_cols == want.attr_cols
    assert tables_json(got) == tables_json(want)
    return got


def test_companion_round_trip(ws, satJ):
    _, r1 = rename_schema(ws.schemas["S"], lambda n: n + "_c")
    M = companion_presentation(r1, "p")
    got = assert_same_gamma(M, lambda_(M, ws.instances["J"]))
    assert list(map(len, got.row_list.values())) == list(
        map(len, satJ.row_list.values()))


@pytest.mark.parametrize("name", ["J", "Jbar"])
def test_Q_over_the_fixture(ws, name):
    got = assert_same_gamma(query_to_bimodule(ws.queries["Q"])[1],
                            saturate(ws.instances[name]))
    assert any(got.row_list.values())


@pytest.mark.parametrize("seed,n_emp,kw", [
    (5, 10, {}), (6, 25, {}), (7, 40, {}),
    (5, 10, NULLS), (6, 25, NULLS), (7, 40, NULLS)])
def test_generated_companies(seed, n_emp, kw):
    ws = parse_workspace(bench_company(seed, n_emp, n_emp // 5, **kw),
                         "company")
    W = saturate(ws.instances["W"])
    assert bool(W.typealg.nulls.bindings) == bool(kw)
    for name in ("Q", "SJ"):
        got = assert_same_gamma(query_to_bimodule(ws.queries[name])[1], W)
        assert any(got.row_list.values()), name


@pytest.mark.parametrize("budget", [Budget(), SMALL])
def test_an_infinite_instance_side_entity_is_not_built(budget):
    ws = parse_workspace(infinite_side_workspace(), "loop")
    K = saturate(ws.instances["K"], budget)
    M = query_to_bimodule(ws.queries["Q"])[1]
    via = gamma(M, K, budget)
    assert [len(rows) for rows in via.row_list.values()] == [1]
    assert crosscheck_migration(ws.queries["Q"], K, budget) == "ok"


def test_the_composite_builds_the_infinite_entity():
    ws = parse_workspace(infinite_side_workspace(), "loop")
    K = saturate(ws.instances["K"], SMALL)
    M = query_to_bimodule(ws.queries["Q"])[1]
    with pytest.raises(PossiblyInfinite, match=r"rows budget \(50\) exhausted"):
        gamma_oracle(M, K, SMALL)
