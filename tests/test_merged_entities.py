"""Migration along F3 (fixtures/merge.cdb), a mapping that sends entities A
and B to one entity E: delta puts each E row in both A's and B's tables,
so a row is identified by its entity and its term together.

The adjunctions Sigma -| Delta -| Pi are checked as bijections of hom
counts on seeded random instances.  They do not read generator names, so
they test pi independently of how its tables are written."""

import random

import pytest

from catdb.cli import run_cli
from catdb.dsl import parse_workspace
from catdb.instance import (
    SaturatedInstance, canonical_presentation, hom_count, instances_isomorphic,
    saturate,
)
from catdb.migration import delta, pi, sigma
from tests.conftest import FIXTURES
from tests.iso_oracle import instances_isomorphic as iso_oracle

MERGE = (FIXTURES / "merge.cdb").read_text(encoding="utf-8")


def instance(text: str, name: str = "X"):
    ws = parse_workspace(MERGE + text, "merge")
    return ws.mappings["F3"], ws.instances[name]


def random_source(rng: random.Random, fill: float) -> str:
    """Instance X on S3: A and B rows whose edges are each set with
    probability 3/4 and attributes with probability fill, mostly to one
    value, so that rows often agree."""
    a, b = rng.randrange(1, 3), rng.randrange(1, 3)
    c = rng.randrange(1, 3)
    lines = ["instance X on S3 {", "  generators c1 c2 : C;"]
    lines += [f"  generators x{i} : A;" for i in range(a)]
    lines += [f"  generators y{i} : B;" for i in range(b)]
    eqs = []
    for gen, edge, attr in ([(f"x{i}", "f", "a") for i in range(a)]
                            + [(f"y{i}", "g", "b") for i in range(b)]):
        if rng.random() < 3 / 4:
            eqs.append(f"{gen}.{edge} = c{rng.randrange(1, c + 1)}")
        if rng.random() < fill:
            eqs.append(f'{gen}.{attr} = "{rng.choice("pppq")}"')
    for k in range(1, 3):
        if rng.random() < fill:
            eqs.append(f"c{k}.c = 1")
    if eqs:
        lines.append("  equations " + ", ".join(eqs) + ";")
    return "\n".join(lines + ["}"]) + "\n"


def random_target(rng: random.Random, fill: float) -> str:
    """Instance K on T3 with one or two E rows, set the same way."""
    e, d = rng.randrange(3), rng.randrange(1, 3)
    lines = ["instance K on T3 {", f"  generators "
             + " ".join(f"d{k}" for k in range(d)) + " : D;"]
    lines += [f"  generators u{i} : E;" for i in range(e)]
    eqs = []
    for i in range(e):
        if rng.random() < 3 / 4:
            eqs.append(f"u{i}.h = d{rng.randrange(d)}")
        if rng.random() < fill:
            eqs.append(f'u{i}.n = "{rng.choice("pppq")}"')
    for k in range(d):
        if rng.random() < fill:
            eqs.append(f"d{k}.m = 1")
    if eqs:
        lines.append("  equations " + ", ".join(eqs) + ";")
    return "\n".join(lines + ["}"]) + "\n"


def test_pi_tables(capsys):
    code = run_cli(["migrate", str(FIXTURES / "merge.cdb"), "--mapping", "F3",
                    "--instance", "I3", "--mode", "pi"])
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    assert out.out == (
        'E  | h  | n  \n'
        '---+----+----\n'
        'e1 | d1 | "p"\n'
        '\n'
        'D  | m\n'
        '---+--\n'
        'd1 | 1\n'
        'd2 | 2\n')


def hom_counts(seed: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """For a seeded random X on S3 and K on T3, the two sides of
    Sigma -| Delta and of Delta -| Pi as hom counts."""
    rng = random.Random(seed)
    # a hom needs its target's cells set where its source's are
    fill = rng.choice([(1 / 4, 3 / 4), (3 / 4, 1 / 4)])
    F, X = instance(random_source(rng, fill[0]))
    _, K = instance(random_target(rng, fill[1]), "K")
    satX, satK = saturate(X), saturate(K)
    return ((hom_count(sigma(F, X), satK), hom_count(X, delta(F, satK))),
            (hom_count(canonical_presentation(delta(F, satK)), satX),
             hom_count(K, pi(F, satX))))


@pytest.mark.parametrize("seed", range(40))
def test_adjunctions_as_hom_count_bijections(seed):
    sigma_delta, delta_pi = hom_counts(seed)
    assert sigma_delta[0] == sigma_delta[1]
    assert delta_pi[0] == delta_pi[1]


def test_the_random_pairs_have_homs():
    counts = [hom_counts(seed) for seed in range(40)]
    assert sum(sd[0] > 0 for sd, _ in counts) >= 5
    assert sum(dp[0] > 0 for _, dp in counts) >= 15


def reversed_rows(si: SaturatedInstance) -> SaturatedInstance:
    return SaturatedInstance(
        si.schema, {e: rows[::-1] for e, rows in si.row_list.items()},
        si.edge_cols, si.attr_cols, si.typealg, si.gen_env)


@pytest.mark.parametrize("text", [
    "instance K on T3 { generators u : E; generators d : D;"
    " equations u.h = d; }",
    "instance K on T3 { generators u v : E; generators d : D;"
    ' equations u.h = d, v.h = d, u.n = "p"; }',
], ids=["one-row", "two-rows"])
def test_pullback_is_isomorphic_to_itself(text):
    F, K = instance(text, "K")
    d = delta(F, saturate(K))
    # the same term is a row of A and of B
    assert d.row_list[F.source.entities[0]] == d.row_list[
        F.source.entities[1]]
    for other in (d, reversed_rows(d)):
        assert instances_isomorphic(d, other)
        assert iso_oracle(d, other)

