"""Transform and isomorphism searches on company workspaces: the order of
the transforms against the nested-loop oracle where the search branches
out of declaration order, no recursion on the number of generators or
rows or on the depth of a side, and a search plan made in time linear in
the generators."""

import gc
import random
import re
import sys
import time

import pytest

from catdb.dsl import parse_workspace
from catdb.instance import (
    InstancePresentation, _shape, canonical_presentation,
    enumerate_transforms, representable_instance, saturate,
)
from catdb.kernel import App, Var
from catdb.migration import collage_of_bimodule, delta
from catdb.query import (
    crosscheck_migration, eval_query, frozen_instance, query_to_bimodule,
)
from catdb.typeside import PLUS, int_term
from tests.conftest import FIXTURES
from tests.genfixtures import company_instance
from tests.transform_oracle import enumerate_transforms as oracle


def company(seed, n_emp, n_dept):
    """fixtures/paper.cdb plus company instance W, saturated; department
    d0 is named "Admin", so that Q and N have rows."""
    text = company_instance(random.Random(seed), n_emp, n_dept)
    text = re.sub(r'd0\.name = "[a-z]+"', 'd0.name = "Admin"', text, count=1)
    ws = parse_workspace(
        (FIXTURES / "paper.cdb").read_text(encoding="utf-8") + text, "company")
    return ws, saturate(ws.instances["W"])


def same_as_oracle(src, dst):
    got = [(t.rows, t.vals) for t in enumerate_transforms(src, dst)]
    assert got == [(t.rows, t.vals) for t in oracle(src, dst)]
    return got


@pytest.fixture(scope="module", params=[(1, 20, 4), (2, 30, 6)],
                ids=["24-rows", "36-rows"])
def comp(request):
    return company(*request.param)


class TestOrderAgainstOracle:
    def test_self_homs(self, comp):
        ws, W = comp
        assert len(same_as_oracle(ws.instances["W"], W)) == 1

    @pytest.mark.parametrize("name", ["I", "I'"])
    def test_paper_sources(self, comp, name):
        ws, W = comp
        assert same_as_oracle(ws.instances[name], W)

    def test_query_and_uberquery_blocks(self, comp):
        ws, W = comp
        assert same_as_oracle(frozen_instance(ws.queries["Q"]), W)
        N = ws.uberqueries["N"]
        for _, b in N.blocks:
            same_as_oracle(InstancePresentation(
                N.schema, b.for_ctx, tuple(b.where_eqs)), W)

    def test_pi_canonical_presentations_of_the_Q_collage(self, comp):
        ws, W = comp
        _, M = query_to_bimodule(ws.queries["Q"])
        F = collage_of_bimodule(M).incl_dst
        out_of_order = 0
        for t in F.target.entities:
            cp = canonical_presentation(
                delta(F, saturate(representable_instance(F.target, t))))
            # the first generator (x.e, x or x.sec) is of sort Emp, and no
            # index narrows it at the root, so the search branches first on
            # a generator of the smaller Dept table
            sizes = [len(W.rows(s)) for _, s in cp.entity_generators()]
            out_of_order += sizes[0] > min(sizes)
            assert same_as_oracle(cp, W)
        assert out_of_order == 3


# Deeper than this, a search that recursed once per generator or per row
# would raise RecursionError.
LIMIT = 150


@pytest.fixture(scope="module")
def big():
    return company(3, 220, 10)


def lowered(fn):
    """fn() and its seconds, run under the lowered recursion limit."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(LIMIT)
    try:
        start = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - start
    finally:
        sys.setrecursionlimit(old)


class TestNoRecursion:
    def test_self_homs_are_the_identity(self, big):
        ws, W = big
        src = ws.instances["W"]
        assert len(src.entity_generators()) > LIMIT
        ts, secs = lowered(lambda: enumerate_transforms(src, W))
        assert [t.rows for t in ts] == [
            tuple((n, Var(n)) for n, _ in src.entity_generators())]
        assert secs < 2

    def test_planning_is_linear_in_the_generators(self):
        # Planning walks each sort's generators with a cursor.  A planner
        # that rescanned them for each level, one level per employee here,
        # took 19 times as long at 6,000 employees as at 1,000; the search
        # takes about 7 times as long.  The sizes alternate, so that a slow
        # phase of the machine falls on both, and the cyclic collector is
        # off, since its passes grow with the heap rather than the plan.
        built = {n: company(4, n, n // 20) for n in (1000, 6000)}
        secs: dict[int, list[float]] = {n: [] for n in built}
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                for n, (ws, W) in built.items():
                    src = ws.instances["W"]
                    assert len(src.entity_generators()) > n
                    secs[n].append(
                        lowered(lambda: enumerate_transforms(src, W))[1])
        finally:
            gc.enable()
        assert min(secs[6000]) < 12 * min(secs[1000])

    def test_crosscheck(self, big):
        ws, W = big
        Q = ws.queries["Q"]
        direct = eval_query(Q, W).instance
        assert direct.total_rows() > LIMIT  # the rows the isomorphism maps
        report, secs = lowered(lambda: crosscheck_migration(Q, W))
        assert report == "ok"
        assert secs < 2


# --- side shapes on deep terms ------------------------------------------


def spine(t, k):
    """The subterms down argument k of a chain of `+`, then its end."""
    out = []
    while isinstance(t, App) and t.symbol == PLUS:
        out.append(t)
        t = t.args[k]
    return out, t


@pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
def test_shape_of_a_3000_term_sum(left):
    # x + 0 + 1 + 2 + 0 + ..., nested to the left, or ... + 1 + 0 + x to
    # the right: the shape has the chain's form, with x and each literal a
    # hole in order of first occurrence from the left
    chain = Var("x")
    for k in range(3000):
        lit = int_term(k % 3)
        chain = App(PLUS, (chain, lit) if left else (lit, chain))
    for literals in (True, False):
        leaves = {}
        shape, _ = lowered(lambda: _shape(chain, {"x"}, literals, leaves))
        nodes, end = spine(shape, 0 if left else 1)
        assert len(nodes) == 3000
        holes = {int_term(k): Var(f"?{k + 1 if left else 2 - k}")
                 for k in range(3)} if literals else {}
        x = Var("?3" if literals and not left else "?0")
        assert leaves == {Var("x"): x, **holes} and end == x
        for k, node in enumerate(reversed(nodes)):  # inner to outer
            lit = node.args[1 if left else 0]
            assert lit == holes.get(int_term(k % 3), int_term(k % 3))
