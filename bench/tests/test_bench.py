"""The benchmark's own tests: generator, oracle, tracer and metric names.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

import json
import random
from pathlib import Path

import pytest

import gen
import oracle
import reference
import run
import workloads
from catdb.dsl import parse_workspace
from catdb.kernel import App, Var
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]
PAPER = (ROOT / "fixtures" / "paper.cdb").read_text(encoding="utf-8")


def _value(t, row, c: gen.Company):
    """Evaluate an equation side of schema S on one row of the raw data;
    None when the value is a labelled null."""
    if isinstance(t, Var):
        return row
    assert isinstance(t, App)
    name = t.symbol.name
    args = [_value(a, row, c) for a in t.args]
    if name == "true":
        return True
    if name == "<=":
        return None if None in args else args[0] <= args[1]
    kind, i = args[0]
    if kind == "Emp":
        e = c.emps[i]
        return {"mgr": ("Emp", e.mgr), "wrk": ("Dept", e.wrk),
                "sal": e.sal, "last": e.last}[name]
    d = c.depts[i]
    return {"sec": ("Emp", d.sec), "name": d.name}[name]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kw", [{}, {"null_share": 0.25,
                                     "salaries": gen.QUERY_SALARIES}])
def test_generated_data_satisfies_schema_equations(seed, kw):
    c = gen.make_company(random.Random(seed), 24, 6, **kw)
    S = parse_workspace(gen.fixture_decls(PAPER, ("S",))).schemas["S"]
    eqs = S.presentation.path_eqs + S.presentation.obs_eqs
    assert len(eqs) == 4
    rows = {"Emp": range(len(c.emps)), "Dept": range(len(c.depts))}
    for eq in eqs:
        (_, sort), = eq.context.bindings
        for i in rows[sort.name]:
            lhs = _value(eq.lhs, (sort.name, i), c)
            rhs = _value(eq.rhs, (sort.name, i), c)
            assert lhs is None or lhs == rhs, (eq, i)
    assert c.depts[0].name == "Admin"
    assert all(e.last.isalpha() for e in c.emps)
    sizes = [sum(e.wrk == j for e in c.emps) for j in range(len(c.depts))]
    assert max(sizes) - min(sizes) <= 1


def test_generator_is_seeded():
    a = gen.make_company(random.Random(7), 16, 4, null_share=0.25)
    b = gen.make_company(random.Random(7), 16, 4, null_share=0.25)
    assert gen.workspace_text(PAPER, a) == gen.workspace_text(PAPER, b)
    assert len(a.nulls) == 4


@pytest.fixture
def smallest(monkeypatch, tmp_path):
    """Each workload's ops at the smallest rung of its ladder."""
    for name in ("SATURATE_LADDER", "QUERY_LADDER", "MIGRATE_LADDER"):
        monkeypatch.setattr(workloads, name, getattr(workloads, name)[:1])

    def build(workload):
        return workloads.SETUPS[workload](3, PAPER, tmp_path)
    return build


@pytest.mark.parametrize("workload", ["saturate", "query", "migrate"])
def test_oracle_agrees_with_engine_at_smallest_size(smallest, workload):
    ops = smallest(workload).ops
    assert len(ops) == {"saturate": 1, "query": 5, "migrate": 3}[workload]
    for op in ops:
        ok, rows = op.check(op.run())
        assert ok, op.kind
        assert rows > 0 or op.kind.startswith("crosscheck")


def test_oracle_rejects_a_wrong_cell(smallest):
    op, = smallest("saturate").ops
    code, out = op.run()
    doc = json.loads(out)
    doc["entities"]["Emp"]["rows"][1][4] = "999"
    assert not op.check((code, json.dumps(doc)))[0]
    assert not op.check((1, out))[0]


def test_cell_key_names_the_null():
    assert oracle.cell_key("1000 - x3") == oracle.null("x3")
    assert oracle.cell_key('"Admin"') == '"Admin"'
    assert oracle.cell_key("-5") == "-5"


def test_readme_table_matches_engine():
    assert run.check_readme()


def test_tracer_patches_every_binding_site():
    import catdb.cli
    import catdb.instance
    import catdb.migration
    import catdb.query
    original = catdb.instance.saturate
    sites = (catdb.cli, catdb.instance, catdb.migration, catdb.query,
             workloads)
    tr = Tracer()
    for _ in range(2):
        tr.install()
        try:
            for mod in sites:
                assert mod.saturate is not original
                assert mod.saturate.__wrapped__ is original
        finally:
            tr.remove()
        for mod in sites:
            assert mod.saturate is original


def test_self_time_subtracts_children():
    tr = Tracer()
    outer = tr.open("outer")
    inner = tr.open("inner")
    tr.close(inner)
    tr.close(outer)
    tr.spans[outer][1:3] = [0.0, 10.0]
    tr.spans[inner][1:3] = [2.0, 5.0]
    tr.covered = [3.0, 0.0]
    times = tr.self_times()
    assert times["outer"] == 7.0 and times["inner"] == 3.0


def test_traced_op_accounts_for_layers(smallest):
    op, = smallest("saturate").ops
    tr = Tracer()
    tr.install()
    try:
        span = tr.begin_op(0, op.kind)
        op.run()
        tr.end_op(span)
    finally:
        tr.remove()
    self_s = tr.self_times()
    assert tr.counts["rewrite.closure.representative"] > 0
    assert tr.counts["rewrite.normalize"] > 0
    assert tr.closure_terms > 0
    assert self_s["instance.saturate"] > 0 and self_s["dsl.parse"] > 0
    total = tr.spans[span][2] - tr.spans[span][1]
    assert sum(self_s.values()) + tr.closure_s == pytest.approx(total)


def test_reference_routine_is_fixed_work():
    assert reference.reference() == reference.CHECKSUM
    assert run.time_reference() > 0


def test_measure_brackets_every_op_with_the_reference():
    class CountingOp:
        kind, rows_in = "count", 1

        def __init__(self):
            self.runs = 0

        def run(self):
            self.runs += 1
            return self.runs

        def check(self, out):
            return True, 1
    op = CountingOp()
    samples = run.measure([op], 0.0, float("inf"))
    assert len(samples) == 1 + run.MIN_CYCLES == op.runs
    assert all(x.ref_s > 0 and x.cost > 0 for x in samples)


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    value, pct, n = run.tail([float(i) for i in range(1, 34)])
    assert (value, n) == (23.0, 33) and pct == pytest.approx(100 * 23 / 33)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layer == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SETUPS)

    class FakeOp:
        def __init__(self, rows_in):
            self.rows_in = rows_in
    samples = [run.Sample(FakeOp(r), 0.01 * r, True, r, "timed", 0.005)
               for r in (8, 16, 32) for _ in range(5)]
    got = run.end_to_end(samples, 1.0)
    assert list(got) == [n for n, _, _ in e2e]
    assert got["scaling_exp"] == pytest.approx(1.0)
    assert got["op_p50_ref"] == pytest.approx(32.0)
    assert got["ops_per_kref"] == pytest.approx(1000 * 15 / (5 * 2 * 56))
    tr = Tracer()
    traced = [run.Sample(FakeOp(8), 0.02, True, 8, "traced")]
    untraced = [run.Sample(FakeOp(8), 0.01, True, 8, "timed")]
    got = run.per_layer(tr, traced, untraced)
    assert list(got) == [n for n, _, _ in layer]
    assert got["trace.overhead"] == pytest.approx(2.0)
