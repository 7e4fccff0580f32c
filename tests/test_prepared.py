"""What a query, a bimodule, a mapping and a presentation prepare once and
keep.

A query keeps its result schema, bimodule and frozen instance, an
uber-query its checked blocks, a bimodule its collage per budget, a
mapping the representable side of its pushforward per entities and
budget, and a presentation the side shapes a transform search from it
reads.  None of that reads the instance, so a kept object must give, on
every instance, the bytes a freshly parsed one gives; it must fail under
a small budget as a fresh one does; it must keep no instance alive; and a
second parse of the same text must prepare again.  A saturated instance
keeps the functions it compiles, which read no source.
"""

import gc
import weakref

import pytest

import catdb.instance as instance
import catdb.migration as migration
import catdb.query as query
from catdb.dsl import parse_workspace
from catdb.instance import (
    InstancePresentation, SaturatedInstance, enumerate_transforms,
    render_tables, saturate, tables_json,
)
from catdb.kernel import Context
from catdb.migration import collage_of_bimodule, gamma, pi
from catdb.query import (
    crosscheck_migration, eval_uber_query, frozen_instance, query_to_bimodule,
)
from catdb.rewrite import DEFAULT_BUDGET, Budget
from tests.conftest import FIXTURES, load_fixture
from tests.genfixtures import bench_company
from tests.test_transforms import PLAN_CASES, outcome as outcome_of
from tests.transform_oracle import enumerate_transforms as oracle

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


# --- transform searches ----------------------------------------------------


def sources(ws) -> list[InstancePresentation]:
    """Sources from ws: I, Q's frozen instance, and the canonical
    presentation of y(*) pulled back to S, as gamma along Q's bimodule
    prepares it once."""
    M = query_to_bimodule(ws.queries["Q"])[1]
    col = collage_of_bimodule(M)
    gamma(M, instances()[0])
    (_, cp), = migration._memo(col.incl_dst)[
        M.src.entities, DEFAULT_BUDGET][0].values()
    return [ws.instances["I"], frozen_instance(ws.queries["Q"]), cp]


def found(src, dst):
    return [(t.rows, t.vals) for t in enumerate_transforms(src, dst)]


def test_a_kept_source_finds_what_a_fresh_one_does():
    kept = sources(parse())
    assert frozen_instance(parse().queries["Q"]) is not kept[1]
    targets = instances()
    for _ in range(2):  # prepared on the first search, then reused
        for dst in targets:
            for src, fresh in zip(kept, sources(parse())):
                got = found(src, dst)
                assert got == found(fresh, dst)
                assert got == [(t.rows, t.vals) for t in oracle(src, dst)]
    assert any(found(kept[0], dst) for dst in targets)
    assert found(kept[2], targets[0])


def test_one_source_gives_each_target_its_own_transforms():
    # SJ's equi-join finds 7 pairs in J, 6 in Jbar and 35 in a W
    src = frozen_instance(parse().queries["SJ"])
    J, Jbar, W = instances()
    want = {id(dst): found(InstancePresentation(
        src.schema, src.generators, src.equations), dst)
        for dst in (J, Jbar, W)}
    assert [len(v) for v in want.values()] == [7, 6, 35]
    for dst in (J, Jbar, W, J, Jbar):
        assert found(src, dst) == want[id(dst)]


def test_a_kept_source_keeps_no_target():
    src = parse().instances["I"]
    J = instances()[0]
    ref = weakref.ref(J)
    assert found(src, J)
    del J
    gc.collect()
    assert ref() is None and "_search" in src.__dict__


def test_a_source_built_again_prepares_again(monkeypatch):
    shapes = counting(monkeypatch, instance, "_shape")
    J = instances()[0]
    per_parse = []
    for _ in range(2):
        ws = parse()
        Q = ws.queries["Q"]
        shapes.clear()  # the parse's own checks saturate
        counts = []
        for _ in range(2):
            found(ws.instances["I"], J)
            found(frozen_instance(Q), J)
            counts.append(len(shapes))
            shapes.clear()
        per_parse.append(counts)
    I, Q = ws.instances["I"], ws.queries["Q"]
    n = 2 * len(I.equations) + 2 * len(Q.where_eqs)
    assert per_parse == [[n, 0]] * 2
    assert frozen_instance(Q) is frozen_instance(Q)


def test_a_target_compiles_each_shape_once(monkeypatch):
    built = counting(monkeypatch, SaturatedInstance, "_compile")
    src = parse().instances["W"]
    for dst in (instances()[0], saturate(src)):
        built.clear()
        want = found(src, dst)
        assert built  # its shapes, once
        for _ in range(2):
            built.clear()
            assert found(src, dst) == want
            assert built == []


def test_the_oracle_corpus_with_kept_sources():
    # tests/test_transforms.py's sources: the paper's instances, its plan
    # cases, Q's frozen instance and N's blocks, each searched twice into
    # J and Jbar
    text = (FIXTURES / "paper.cdb").read_text(encoding="utf-8")
    ws = parse_workspace(text + PLAN_CASES, "paper+plan cases")
    N = ws.uberqueries["N"]
    srcs = list(ws.instances.values()) + [frozen_instance(ws.queries["Q"])]
    srcs += [pres for _, pres in N._checked_blocks.values()]
    targets = [saturate(ws.instances[n]) for n in ("J", "Jbar")]
    for _ in range(2):
        for src in srcs:
            for dst in targets:
                assert outcome_of(enumerate_transforms, src, dst) \
                    == outcome_of(oracle, src, dst)
