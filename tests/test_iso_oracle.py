"""The stack-based isomorphism search against the recursive oracle, on
seeded random pairs: an instance and a row-permuted copy, pairs that
differ in one cell or edge, and null-bearing instances whose atoms are
renamed."""

import random
import re

from catdb.dsl import parse_workspace
from catdb.instance import (
    InconsistentInstance, SaturatedInstance, instances_isomorphic, saturate,
)
from tests.conftest import FIXTURES
from tests.genfixtures import company_instance, random_instance
from tests.iso_oracle import instances_isomorphic as oracle

PAPER = (FIXTURES / "paper.cdb").read_text(encoding="utf-8")


def permuted(rng, si):
    """The same tables with every entity's rows in a random order."""
    return SaturatedInstance(
        si.schema, {e: rng.sample(rows, len(rows))
                    for e, rows in si.row_list.items()},
        si.edge_cols, si.attr_cols, si.typealg, si.gen_env)


def changed(rng, si):
    """si with one edge cell pointed at a random row, or one attribute cell
    given the value of another row's cell in its column."""
    cols = [c for c in si.schema.edges + si.schema.attributes
            if si.rows(c.dom[0])]
    c = rng.choice(cols)
    r = rng.choice(si.rows(c.dom[0]))
    edge_cols, attr_cols = dict(si.edge_cols), dict(si.attr_cols)
    if c in edge_cols:
        edge_cols[c] = {**edge_cols[c], r: rng.choice(si.rows(c.cod))}
    else:
        r2 = rng.choice(si.rows(c.dom[0]))
        attr_cols[c] = {**attr_cols[c], r: attr_cols[c][r2]}
    return SaturatedInstance(si.schema, si.row_list, edge_cols, attr_cols,
                             si.typealg, si.gen_env)


def agree(a, b) -> bool:
    got = instances_isomorphic(a, b)
    assert got == oracle(a, b)
    return got


def company(rng, n_emp, n_dept, rename=None):
    """Saturated company instance W; rename maps its null names."""
    text = company_instance(rng, n_emp, n_dept)
    if rename:
        text = re.sub(r"\bx\d+\b", lambda m: rename.get(m[0], m[0]), text)
    return saturate(parse_workspace(PAPER + text).instances["W"])


def test_random_instances_permuted_and_changed():
    rng = random.Random(20261018)
    schema = parse_workspace(PAPER).schemas["S"]
    seen = {True: 0, False: 0}
    for _ in range(60):
        try:
            a = saturate(random_instance(rng, schema, 3))
        except InconsistentInstance:
            continue
        if max(map(len, a.row_list.values())) > 6:
            # the oracle tries every bijection of rows with equal cell
            # shapes before it rejects a pair: 7! leaves take minutes
            continue
        assert agree(a, permuted(rng, a))
        assert agree(permuted(rng, a), a)
        seen[agree(a, changed(rng, permuted(rng, a)))] += 1
        seen[agree(changed(rng, a), a)] += 1
    assert seen[True] and seen[False] > 10


def test_company_instances_permuted_and_changed():
    rng = random.Random(7)
    seen = {True: 0, False: 0}
    for _ in range(6):
        a = company(rng, rng.randrange(10, 16), rng.randrange(2, 5))
        assert agree(a, permuted(rng, a))
        for _ in range(4):
            seen[agree(permuted(rng, a), changed(rng, a))] += 1
    assert seen[False] > 10


def test_null_bearing_instances_with_renamed_atoms():
    seen = {True: 0, False: 0}
    for seed in range(6):
        n_emp, n_dept = 12 + seed, 3
        a = company(random.Random(seed), n_emp, n_dept)
        nulls = sorted(n for n, _ in a.typealg.nulls.bindings)
        assert nulls
        rng = random.Random(100 + seed)
        renamed = dict(zip(nulls, rng.sample(
            [f"x{k}" for k in range(40, 40 + len(nulls))], len(nulls))))
        b = company(random.Random(seed), n_emp, n_dept, renamed)
        assert b.typealg.nulls.bindings != a.typealg.nulls.bindings
        assert agree(a, b) and agree(permuted(rng, b), a)
        seen[agree(a, changed(rng, permuted(rng, b)))] += 1
    assert seen[False]
