"""The hash-consed closure against the term-keyed one it replaced.

Both must answer every query the same, in the same order: the same
representative, the same class members as an ordered list (table rows
follow member order), and the same registered terms.
"""

import random

import pytest

import catdb.instance
import catdb.rewrite
from catdb.dsl import parse_workspace
from catdb.instance import saturate
from catdb.kernel import (
    AlgSignature, Context, Equation, FunctionSymbol, app,
)
from catdb.rewrite import (
    DEFAULT_BUDGET, GroundClosure, RewriteRule, RewriteSystem, TermOrder,
)
from tests.closure_oracle import TermKeyedClosure
from tests.conftest import FIXTURES
from tests.genfixtures import company_instance
from tests.test_closure import (
    E, EMPTY, FE, K1, K2, K3, K4, entity_paths, fe, ground_rules,
)


class PairedClosure:
    """Runs every query on both closures and checks they agree."""

    def __init__(self, ground_eqs, rs, budget=DEFAULT_BUDGET):
        self.new = GroundClosure(ground_eqs, rs, budget)
        self.old = TermKeyedClosure(ground_eqs, rs, budget.closure_steps)
        self.queries = 0
        self._check_known()

    def _check_known(self):
        assert set(self.new.known) == self.old.known

    def representative(self, t):
        got = self.new.representative(t)
        assert got == self.old.representative(t), t
        self._check_known()
        self.queries += 1
        return got

    def class_members(self, t):
        got = self.new.class_members(t)
        assert got == self.old.class_members(t), t
        self._check_known()
        self.queries += 1
        return got

    def same(self, a, b):
        got = self.new.same(a, b)
        assert got == self.old.same(a, b), (a, b)
        self._check_known()
        return got


def query_all(eqs, rs, terms):
    cl = PairedClosure(eqs, rs)
    for t in terms:
        cl.representative(t)
        cl.class_members(t)
    for a, b in zip(terms, reversed(terms)):
        cl.same(a, b)


CONSTS = [app(K1), app(K2), app(K3), app(K4)]


def test_random_universes_match_term_keyed_closure(rng):
    consts = CONSTS[:3]
    universe = consts + [fe(c, n) for n in (1, 2) for c in consts]
    for _ in range(50):
        eqs = [Equation(Context(()), *rng.sample(universe, 2), E)
               for _ in range(rng.randrange(1, 5))]
        query_all(eqs, EMPTY, rng.sample(universe, len(universe)))


def test_ground_rewriting_matches_term_keyed_closure(rng):
    k1, k2, k3, k4 = CONSTS
    universe = CONSTS + [fe(c, n) for n in (1, 2, 3) for c in CONSTS]
    eqs = [Equation(Context(()), l, r, E) for l, r in
           ((k2, fe(k3, 2)), (fe(k2, 2), fe(k1, 2)), (fe(k1, 2), k4))]
    query_all(eqs, ground_rules((fe(k3), k1), (fe(k4), k3)), universe)
    for _ in range(200):
        lhss = rng.sample([fe(c, n) for c in CONSTS for n in (1, 2)],
                          rng.randrange(1, 4))
        rs = ground_rules(*((l, rng.choice(CONSTS)) for l in lhss))
        eqs = [Equation(Context(()), *rng.sample(universe, 2), E)
               for _ in range(rng.randrange(1, 8))]
        query_all(eqs, rs, rng.sample(universe, len(universe)))


GE = FunctionSymbol("ge", (E, E), E)
BINARY = TermOrder(AlgSignature((E,), (K1, K2, K3, K4, FE, GE)))


def test_binary_terms_under_ground_rules_match_term_keyed_closure(rng):
    """With two arguments, adding the first can make a union that moves
    the classes under the second, and registering the second can add users
    to the first's class: the order of both shows in the registered set
    and in member order.  The first fixed case fails if a term's users are
    recorded after all its arguments are registered, not after each.  The
    second fails if a union does not end the known-term shortcut: adding
    k1.fe.fe unites k1 with the new term k2.fe, which k3.fe is congruent
    to, so the known term k3.fe is no longer closed."""
    k1, k2, k3, k4 = CONSTS
    eqs = [Equation(Context(()), l, r, E) for l, r in (
        (app(GE, app(GE, app(GE, k4, k4), k3), fe(app(GE, k2, k4))),
         app(GE, app(GE, k3, app(GE, k3, k4)),
             app(GE, fe(k2), app(GE, k2, k2)))),
        (k3, k1))]
    query_all(eqs, RewriteSystem([], BINARY, "confluent", []),
              [app(GE, fe(app(GE, k4, k4)), app(GE, fe(app(GE, k2, k1)), k4))])
    eqs = [Equation(Context(()), l, r, E) for l, r in (
        (fe(app(GE, fe(k4), k1)),
         app(GE, app(GE, fe(k3), k3), fe(app(GE, k3, k4)))),
        (k3, fe(k1)), (k2, k3))]
    rs = RewriteSystem([RewriteRule(Context(()), fe(k1, 2), k1)],
                       BINARY, "confluent", [])
    query_all(eqs, rs, [app(GE, fe(k1, 2), app(GE, fe(k3), k2))])
    small = CONSTS + [fe(c) for c in CONSTS]
    pairs = [app(GE, a, b) for a in small for b in small]
    universe = small + pairs + [app(GE, p, rng.choice(small))
                                for p in rng.sample(pairs, 12)]
    for _ in range(150):
        lhss = rng.sample(small[4:] + pairs, rng.randrange(1, 5))
        rs = RewriteSystem(
            [RewriteRule(Context(()), l, rng.choice(CONSTS)) for l in lhss],
            BINARY, "confluent", [])
        eqs = [Equation(Context(()), *rng.sample(universe, 2), E)
               for _ in range(rng.randrange(1, 6))]
        query_all(eqs, rs, rng.sample(universe, 30))


@pytest.mark.parametrize("name", ["J", "Jbar", "I", "I'"])
def test_entity_system_of_S_matches_term_keyed_closure(ws, name):
    ip = ws.instances[name]
    sch = ip.schema
    eqs = [eq for eq in ip.equations if sch.is_entity(eq.sort)]
    query_all(eqs, sch.entity_rs, entity_paths(ip, length=3))


@pytest.fixture(scope="module")
def company_ws():
    text = (FIXTURES / "paper.cdb").read_text(encoding="utf-8")
    return parse_workspace(text + company_instance(random.Random(60)))


@pytest.mark.parametrize("name", ["J", "Jbar", "I", "I'", "W"])
def test_saturation_chase_matches_term_keyed_closure(company_ws, monkeypatch,
                                                     name):
    """The chase interleaves representative and class_members calls while
    new rows keep arriving; both closures see the same sequence.  W is a
    60-row instance with free managers and null salaries."""
    built = []

    def paired(*args):
        built.append(PairedClosure(*args))
        return built[-1]

    monkeypatch.setattr(catdb.instance, "GroundClosure", paired)
    saturate(company_ws.instances[name])
    assert len(built) == 1 and built[0].queries > 0


def test_known_term_of_quiescent_closure_is_one_find(ws, monkeypatch):
    ip = ws.instances["J"]
    sch = ip.schema
    eqs = [eq for eq in ip.equations if sch.is_entity(eq.sort)]
    cl = GroundClosure(eqs, sch.entity_rs)
    for t in entity_paths(ip, length=3):
        cl.representative(t)
    known = list(cl.known)
    before = len(cl.known)
    reps = [cl.representative(t) for t in known]
    calls = []
    real = catdb.rewrite.normalize

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(catdb.rewrite, "normalize", counted)
    assert [cl.representative(t) for t in known] == reps
    assert [cl.class_members(t)[0] for t in known] == reps
    assert cl.same(known[0], known[-1]) == (reps[0] == reps[-1])
    assert len(cl.known) == before
    assert calls == []
    # a term it has not seen still goes through normalize
    longer = entity_paths(ip, length=5)[-1]
    assert longer not in cl.known
    cl.representative(longer)
    assert calls
