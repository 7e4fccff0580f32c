"""Completion overlaps each pushed rule once with itself and once each way
with every other rule: no `_critical_pairs` call pairs a rule with an equal
copy of itself."""

import pytest

from catdb import rewrite
from catdb.cli import run_cli
from catdb.dsl import parse_workspace
from catdb.kernel import Presentation
from tests.conftest import load_fixture
from tests.genfixtures import bench_company


@pytest.fixture
def calls(monkeypatch):
    """The rule pairs `complete` hands to `_critical_pairs`."""
    seen = []
    pairs = rewrite._critical_pairs

    def spy(r1, r2):
        seen.append((r1, r2))
        return pairs(r1, r2)
    monkeypatch.setattr(rewrite, "_critical_pairs", spy)
    return seen


def no_equal_copies(seen):
    return not [(a, b) for a, b in seen
                if a is not b and a.lhs is b.lhs and a.rhs is b.rhs]


def fixture_presentations():
    ws, grp = load_fixture("paper.cdb"), load_fixture("group.cdb")
    out = {f"schema {n}": Presentation(s.entity_sig, s.presentation.path_eqs)
           for n, s in ws.schemas.items()}
    out.update((f"theory {n}", th) for n, th in grp.theories.items())
    return out


@pytest.mark.parametrize("name", sorted(fixture_presentations()))
def test_fixture_completion_pairs_no_copies(name, calls):
    rs = rewrite.complete(fixture_presentations()[name])
    assert rs.status == "confluent"
    assert no_equal_copies(calls)


def test_bench_workspace_pairs_no_copies(calls):
    """Parsing completes S, T, L and RS in 43 calls."""
    parse_workspace(bench_company(1, 18, 3), "w.cdb")
    assert no_equal_copies(calls)
    assert len(calls) == 43


SO = ("theory SO { sorts A; symbols g : A -> A; symbols f : A -> A; "
      "equations forall x:A . f(f(x)) = g(x); }\n")


@pytest.mark.parametrize("budget", ["3", "4", "100"])
def test_self_overlap_fits_a_smaller_budget(tmp_path, capsys, budget):
    """f(f(x)) ~> g(x) overlaps itself once, at f(x), so three equations
    make the system confluent: the axiom, the pair f(g(x)) = g(f(x)), and
    that rule's one overlap with the axiom, which normalizes away."""
    path = tmp_path / "so.cdb"
    path.write_text(SO)
    code = run_cli(["complete", str(path), "--theory", "SO",
                    "--budget", budget])
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    assert out.out == "x.f.f ~> x.g\nx.g.f ~> x.f.g\n"
