"""Incremental ground congruence closure against the full-rebuild oracle."""

import pytest

from catdb.kernel import (
    AlgSignature, Context, Equation, FunctionSymbol, Sort, Var, app,
)
from catdb.rewrite import (
    Budget, BudgetExceeded, GroundClosure, RewriteRule, RewriteSystem,
    TermOrder,
)
from tests.closure_oracle import FullRebuildClosure

E = Sort("E")
K1, K2, K3, K4 = (FunctionSymbol(n, (), E) for n in ("k1", "k2", "k3", "k4"))
FE = FunctionSymbol("fe", (E,), E)
ORDER = TermOrder(AlgSignature((E,), (K1, K2, K3, K4, FE)))
EMPTY = RewriteSystem([], ORDER, "confluent", [])


def fe(t, times=1):
    for _ in range(times):
        t = app(FE, t)
    return t


def ground_rules(*pairs):
    return RewriteSystem([RewriteRule(Context(()), l, r) for l, r in pairs],
                         ORDER, "confluent", [])


def assert_same_closure(eqs, rs, terms, members_both_know=False):
    """Both closures give every term the same representative and the same
    class members, queried in the same order.  With members_both_know, only
    members that both closures registered are compared: under ground rules
    the oracle registers intermediate normal forms in set iteration order,
    so which extra terms its classes hold varies with PYTHONHASHSEED."""
    new, old = GroundClosure(eqs, rs), FullRebuildClosure(eqs, rs)
    for t in terms:
        assert new.representative(t) == old.representative(t), t
        got, want = set(new.class_members(t)), set(old.class_members(t))
        if members_both_know:
            both = new.known & old.known
            got, want = got & both, want & both
        assert got == want, t
        assert len(new.class_members(t)) == len(set(new.class_members(t)))


def test_random_universe_matches_oracle(rng):
    consts = [app(K1), app(K2), app(K3)]
    universe = consts + [fe(c, n) for n in (1, 2) for c in consts]
    for _ in range(50):
        eqs = [Equation(Context(()), *rng.sample(universe, 2), E)
               for _ in range(rng.randrange(1, 5))]
        assert_same_closure(eqs, EMPTY, universe)


def test_ground_rewriting_matches_oracle(rng):
    """Under ground rules a term's canonical form need not be its own
    spelling, so a congruence can hang on a term that is never registered.
    The fixed case fails if a union drops the use-list of the root it
    absorbs instead of moving it to the absorbing root."""
    consts = [app(K1), app(K2), app(K3), app(K4)]
    k1, k2, k3, k4 = consts
    universe = consts + [fe(c, n) for n in (1, 2) for c in consts]
    eqs = [Equation(Context(()), l, r, E) for l, r in
           ((k2, fe(k3, 2)), (fe(k2, 2), fe(k1, 2)), (fe(k1, 2), k4))]
    rs = ground_rules((fe(k3), k1), (fe(k4), k3))
    assert_same_closure(eqs, rs, universe, members_both_know=True)
    for _ in range(200):
        lhss = rng.sample([fe(c) for c in consts], rng.randrange(1, 4))
        rs = ground_rules(*((l, rng.choice(consts)) for l in lhss))
        eqs = [Equation(Context(()), *rng.sample(universe, 2), E)
               for _ in range(rng.randrange(1, 8))]
        assert_same_closure(eqs, rs, universe, members_both_know=True)


def entity_paths(ip, length=2):
    """Every entity generator of ip, and each edge path from it up to
    `length` edges long."""
    sch = ip.schema
    out = []
    frontier = [(Var(n), s) for n, s in ip.entity_generators()]
    for _ in range(length + 1):
        out.extend(t for t, _ in frontier)
        frontier = [(app(f, t), f.cod)
                    for t, s in frontier for f in sch.edges_from(s)]
    return out


@pytest.mark.parametrize("name", ["J", "Jbar", "I", "I'"])
def test_paper_instances_match_oracle(ws, name):
    ip = ws.instances[name]
    sch = ip.schema
    assert sch is ws.schemas["S"] and sch.entity_rs.rules
    eqs = [eq for eq in ip.equations if sch.is_entity(eq.sort)]
    assert_same_closure(eqs, sch.entity_rs, entity_paths(ip))


def test_zero_budget_raises_naming_the_phase():
    eqs = [Equation(Context(()), app(FE, app(K1)), app(K2), E)]
    with pytest.raises(BudgetExceeded, match="congruence closure"):
        GroundClosure(eqs, EMPTY, budget=Budget(closure_steps=0))
