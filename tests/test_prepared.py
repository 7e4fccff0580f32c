"""What a query, a bimodule and a mapping prepare once and keep.

A query keeps its result schema and bimodule, an uber-query its checked
blocks, a bimodule its collage per budget, and a mapping the
representable side of its pushforward per entities and budget.  None of
that reads the instance, so a kept object must give, on every instance,
the bytes a freshly parsed one gives; it must fail under a small budget
as a fresh one does; it must keep no instance alive; and a second parse
of the same text must prepare again.
"""

import gc
import weakref

import pytest

import catdb.instance as instance
import catdb.migration as migration
import catdb.query as query
from catdb.dsl import parse_workspace
from catdb.instance import (
    InstancePresentation, render_tables, saturate, tables_json,
)
from catdb.kernel import Context
from catdb.migration import gamma, pi
from catdb.query import crosscheck_migration, eval_uber_query, query_to_bimodule
from catdb.rewrite import Budget
from tests.conftest import load_fixture
from tests.genfixtures import bench_company

NULLS = dict(null_share=0.25, salaries=(300, 600))
# Q, SJ, N, G and H over S, as in the bench's query workload
TEXT = bench_company(5, 10, 2, **NULLS)


def parse():
    return parse_workspace(TEXT, "company")


def instances():
    """Three saturated S-instances from other parses: J, Jbar and a W."""
    paper = load_fixture("paper.cdb")
    W = parse_workspace(bench_company(6, 25, 5, **NULLS), "w").instances["W"]
    return [saturate(paper.instances["J"]), saturate(paper.instances["Jbar"]),
            saturate(W)]


def rendered(ws, I) -> list[str]:
    Q, SJ = ws.queries["Q"], ws.queries["SJ"]
    out = [crosscheck_migration(Q, I), crosscheck_migration(SJ, I)]
    for si in (gamma(query_to_bimodule(Q)[1], I),
               gamma(query_to_bimodule(SJ)[1], I),
               eval_uber_query(ws.uberqueries["N"], I),
               pi(ws.mappings["G"], I)):
        out += [render_tables(si), tables_json(si)]
    return out


def outcome(fn):
    try:
        out = fn()
        return "ok", out if isinstance(out, str) else tables_json(out)
    except Exception as exc:  # compared by type and message
        return "raised", type(exc).__name__, str(exc)


def counting(monkeypatch, module, name) -> list:
    calls = []
    real = getattr(module, name)

    def count(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, count)
    return calls


def test_a_kept_workspace_renders_what_a_fresh_one_does(monkeypatch):
    kept = parse()
    sats = counting(monkeypatch, migration, "saturate")
    checks = counting(monkeypatch, query, "saturate")
    for i, I in enumerate(instances()):
        got = rendered(kept, I)
        if i:  # prepared on the first instance, reused since
            assert sats == [] and checks == []
        assert got == rendered(parse(), I)
        assert got[:2] == ["ok", "ok"]
        sats.clear()
        checks.clear()


@pytest.mark.parametrize("budget", [
    Budget(critical_pairs=1),  # the collage's completion
    Budget(rows=2),            # saturating the representables
    Budget(rows=3),
    Budget(closure_steps=0),   # their congruence closure
])
def test_a_small_budget_fails_as_on_a_fresh_object(budget):
    kept, (J, *_) = parse(), instances()
    Q, G = kept.queries["Q"], kept.mappings["G"]
    M = query_to_bimodule(Q)[1]
    assert crosscheck_migration(Q, J) == "ok"
    ok_gamma, ok_pi = outcome(lambda: gamma(M, J)), outcome(lambda: pi(G, J))
    for _ in range(2):  # a failure stores nothing and fails again
        fresh = parse()
        for got, want in (
                (lambda: crosscheck_migration(Q, J, budget),
                 lambda: crosscheck_migration(fresh.queries["Q"], J, budget)),
                (lambda: gamma(M, J, budget),
                 lambda: gamma(query_to_bimodule(fresh.queries["Q"])[1], J,
                               budget)),
                (lambda: pi(G, J, budget),
                 lambda: pi(fresh.mappings["G"], J, budget))):
            assert outcome(got) == outcome(want)
    assert outcome(lambda: crosscheck_migration(Q, J, budget))[0] == "raised"
    assert outcome(lambda: pi(G, J, budget))[0] == (
        "ok" if budget.critical_pairs == 1 else "raised")
    assert outcome(lambda: gamma(M, J)) == ok_gamma
    assert outcome(lambda: pi(G, J)) == ok_pi


def test_keys_and_returns_stay_lazy():
    # Team.col in L has no preimage under H: its cells are a domain error,
    # raised only once Team has rows, and raised again on every call
    kept = parse()
    H = kept.mappings["H"]
    empty = saturate(InstancePresentation(H.source, Context(())))
    J = instances()[0]
    for _ in range(2):
        assert outcome(lambda: pi(H, empty))[0] == "ok"
        got = outcome(lambda: pi(H, J))
        assert got == outcome(lambda: pi(parse().mappings["H"], J))
        assert got[0] == "raised" and "outside the image: x.col" in got[2]


def test_no_instance_is_kept():
    kept = parse()
    J = instances()[0]
    ref = weakref.ref(J)
    rendered(kept, J)
    del J
    gc.collect()
    assert ref() is None


def test_a_second_parse_prepares_again(monkeypatch):
    I = instances()[0]
    chases = counting(monkeypatch, instance, "chase")
    per_parse = []
    for _ in range(2):
        G = parse().mappings["G"]
        counts = []
        for _ in range(2):
            pi(G, I)
            counts.append(len(chases))
            chases.clear()
        per_parse.append(counts)
    # one chase per representable y(t) of G's target, on each parse only
    assert per_parse == [[len(G.target.entities), 0]] * 2
