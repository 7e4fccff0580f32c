"""Terms are sorted as the parser builds them (`dsl.TermEnv.app`), with no
second walk.  Against the recursive walk in `tests/term_oracle.py`:

- on random terms, well-sorted or not, in random contexts, the parser gives
  the same sort, or the same error class and text;
- every presentation and mapping the engine builds is well-sorted; no
  code checks that at run time.
"""

import pytest
from hypothesis import given, settings, strategies as st

from catdb.dsl import (
    DslError, Parser, TermEnv, parse_workspace, render_dsl_term,
)
from catdb.instance import (
    InstancePresentation, canonical_form, enumerate_transforms,
    representable_instance, saturate,
)
from catdb.kernel import (
    AlgSignature, App, AritySortMismatch, Context, KernelError, Sort, Var, ctx,
)
from catdb.migration import (
    BimodulePresentation, companion_presentation, conjoint_presentation,
    delta, gamma, lambda_, pi, rename_schema, sigma,
)
from catdb.query import (
    crosscheck_migration, eval_query, eval_uber_query, frozen_instance,
    query_to_bimodule,
)
from catdb.schema import (
    SchemaMapping, SchemaMismatch, SchemaPresentation, check_mapping,
)
from catdb.typeside import (
    FALSE, LE, NEG, PLUS, TRUE, TYPE_SORTS, TYPE_SYMBOLS, int_term,
    str_literal,
)
from tests.conftest import load_fixture
from tests.genfixtures import bench_company
from tests.term_oracle import well_sort_check

PAPER = load_fixture("paper.cdb")
GRP = load_fixture("group.cdb").theories["Grp"].signature
COLLAGE = PAPER.schemas["S"].collage_sig
NAMES = ("x", "y", "z", "e")


def _is_name(sym) -> bool:
    return sym.name.isidentifier() or sym.name in ("+", "-", "*", "<=")


# Symbols a term may use.  Over Grp the type symbols, true and string
# literals are unknown; over the collage every symbol is known, and the
# errors are argument sorts.
POOLS = {
    "collage": (COLLAGE, [s for s in COLLAGE.symbols.values() if _is_name(s)]
                + [int_term(7).symbol, str_literal("ab").symbol]),
    "Grp": (GRP, list(GRP.symbols.values())
            + [PLUS, NEG, LE, TRUE, FALSE, str_literal("ab").symbol]),
}


@st.composite
def workspaces(draw, pool):
    """A context over the signature's sorts and terms in it, each built
    from the pool's symbols with arguments of any sort."""
    sig, symbols = POOLS[pool]
    names = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=3))
    context = Context(tuple(
        (n, draw(st.sampled_from(list(sig.sorts.values())))) for n in names))
    leaves = [Var(n) for n in names] + [
        App(s) for s in symbols if not s.arity]
    inner = [s for s in symbols if s.arity]
    terms = st.recursive(
        st.sampled_from(leaves),
        lambda sub: st.sampled_from(inner).flatmap(
            lambda s: st.tuples(*[sub] * s.arity).map(
                lambda args: App(s, args))),
        max_leaves=8)
    return sig, context, terms


def text(t, postfix: bool) -> str:
    """Fully bracketed surface syntax for t."""
    if isinstance(t, Var):
        return t.name
    name, args = t.symbol.name, [text(a, postfix) for a in t.args]
    if not args:
        return name
    if name in ("+", "*", "<=") and len(args) == 2:
        return f"({args[0]} {name} {args[1]})"
    if name == "-" and len(args) == 1:
        return f"(-{args[0]})"
    if postfix and len(args) == 1:
        return f"({args[0]}).{name}"
    return f"{name}({', '.join(args)})"


def parse(env: TermEnv, t, postfix: bool):
    p = Parser(text(t, postfix), "<t>")
    got = p.parse_term(env)
    assert p.peek() == ""
    assert got is t, (text(t, postfix), got)
    return got, p


def walked_check(context, sig, lhs, rhs, span):
    """`check_equation` as it was, sorting each side by the recursive walk."""
    def sort_of(t):
        try:
            return well_sort_check(t, context, sig)
        except KernelError as exc:
            raise DslError(str(exc), span) from exc

    ls = sort_of(lhs)
    if isinstance(rhs, Sort):
        if ls != rhs:
            raise DslError(f"{render_dsl_term(lhs)} has sort {ls.name}, "
                           f"expected {rhs.name}", span)
    elif rhs is not None:
        rs = sort_of(rhs)
        if ls != rs:
            raise DslError(
                f"equation sides have sorts {ls.name} and {rs.name}", span)
    return ls


def outcome(f, *args):
    """f's sort, or its error's class, text, and cause's class and text."""
    try:
        return f(*args)
    except (DslError, KernelError) as exc:
        cause = exc.__cause__
        return (type(exc), str(exc), type(cause),
                None if cause is None else str(cause))


@pytest.mark.parametrize("pool", sorted(POOLS))
@settings(derandomize=True, deadline=None, max_examples=400)
@given(data=st.data())
def test_parser_sorts_like_the_walk(pool, data):
    sig, context, terms = data.draw(workspaces(pool))
    env = TermEnv(sig, context)
    postfix = data.draw(st.booleans())
    lhs, p = parse(env, data.draw(terms), postfix)
    rhs = data.draw(st.one_of(
        st.none(), st.sampled_from(list(sig.sorts.values())), terms))
    if isinstance(rhs, App | Var):
        rhs = parse(env, rhs, not postfix)[0]
    assert outcome(p.check_equation, env, lhs, rhs, 0) == outcome(
        walked_check, context, sig, lhs, rhs, p.span(0))
    for t in (lhs, rhs):
        if isinstance(t, App | Var):
            assert outcome(env.sort, t) == outcome(
                well_sort_check, t, context, sig)


@pytest.mark.parametrize("pool,source,message", [
    # f(g(a), h(b)) with both arguments ill-sorted: the first is reported
    ("collage", "e.wrk.sal + e.mgr.name",
     "argument e.wrk of sal has sort Dept, expected Emp"),
    ("collage", "e.last + e.wrk.sal",
     "argument e.last of + has sort Str, expected Int"),
    ("collage", "e.sal + e.mgr.name",
     "argument e.mgr of name has sort Emp, expected Dept"),
    ("Grp", "inv(true) * (1 + e)", "true in true"),
    ("Grp", "inv(e * 1) * inv(-e)", "- in e.-"),
    ("Grp", 'inv("ab") * (1 <= e)', '"ab" in "ab"'),
])
def test_first_of_two_errors(pool, source, message):
    sig = POOLS[pool][0]
    e = Sort("Emp") if pool == "collage" else Sort("G")
    env = TermEnv(sig, ctx(("e", e)))
    p = Parser(source, "<t>")
    t = p.parse_term(env)
    with pytest.raises(KernelError) as err:
        env.sort(t)
    assert str(err.value) == message
    with pytest.raises(KernelError) as want:
        well_sort_check(t, ctx(("e", e)), sig)
    assert (type(err.value), str(err.value)) == (type(want.value), message)


MAP_S = ("schema S { entities A B; edges f : A -> B, g : B -> A, h : A -> A; "
         "attributes a : A -> Int, s : B -> Str; }\n"
         "mapping F : S -> S { entity A -> A; entity B -> B; %s }\n")


@pytest.mark.parametrize("images,exc,message", [
    # the first edge's image is ill-sorted, the second's has another sort
    ("edge f -> x.h.g; edge g -> x.f.f;", AritySortMismatch,
     "argument x.h of g has sort A, expected B"),
    ("edge f -> x.h; edge g -> x.f.f.g;", SchemaMismatch,
     "edge image has wrong codomain: f:(A)->B -> x.h"),
    # an ill-sorted image comes before a later edge with no image
    ("edge f -> x.h.g; edge h -> x;", AritySortMismatch,
     "argument x.h of g has sort A, expected B"),
    ("edge f -> x; edge g -> x.g;", SchemaMismatch,
     "edge image has wrong codomain: f:(A)->B -> x"),
    ("edge f -> f; edge g -> g; edge h -> h; attribute a -> s;",
     AritySortMismatch, "argument x of s has sort A, expected B"),
])
def test_mapping_images_report_in_turn(images, exc, message):
    """`SchemaMapping.make` raises the parser's error for an ill-sorted
    image at that image's turn, as the walk over each image did."""
    with pytest.raises((KernelError, SchemaMismatch)) as err:
        parse_workspace(MAP_S % images, "m.cdb")
    assert (type(err.value), str(err.value)) == (exc, message)


def test_a_block_has_one_for_section():
    """Terms of a block are sorted in its one FOR context."""
    text = MAP_S.split("mapping")[0] + (
        "query Q on S {\n  for x:A;\n  return r := x.a;\n  for x:B;\n}\n")
    with pytest.raises(DslError) as err:
        parse_workspace(text, "q.cdb")
    assert str(err.value) == "q.cdb:5:3: a block has one for section"


# --- what the engine builds -------------------------------------------


def assert_well_sorted(t, context, sig, sort):
    assert well_sort_check(t, context, sig) is sort, t


def check_instance(ip: InstancePresentation):
    for eq in ip.equations:
        for t in (eq.lhs, eq.rhs):
            assert_well_sorted(t, ip.generators, ip.schema.collage_sig,
                               eq.sort)


def check_schema(p: SchemaPresentation):
    entity_sig = AlgSignature(p.entities, p.edges)
    collage = AlgSignature(TYPE_SORTS + p.entities,
                           TYPE_SYMBOLS + p.edges + p.attributes)
    for sig, eqs in ((entity_sig, p.path_eqs), (collage, p.obs_eqs)):
        for eq in eqs:
            for t in (eq.lhs, eq.rhs):
                assert_well_sorted(t, eq.context, sig, eq.sort)


def check_mapping_sorts(F: SchemaMapping):
    sig = F.target.collage_sig
    for f, t in F.edge_map:
        assert_well_sorted(t, ctx(("x", F.on_entity(f.dom[0]))), sig,
                           F.on_entity(f.cod))
    for a, t in F.attr_map:
        assert_well_sorted(t, ctx(("x", F.on_entity(a.dom[0]))), sig, a.cod)


def check_bimodule(M: BimodulePresentation):
    sig = AlgSignature(
        TYPE_SORTS + M.src.entities + M.dst.entities,
        TYPE_SYMBOLS + M.src.edges + M.dst.edges + M.gen_edges
        + M.src.attributes + M.dst.attributes + M.gen_attrs)
    for eq in M.equations:
        for t in (eq.lhs, eq.rhs):
            assert_well_sorted(t, eq.context, sig, eq.sort)


@pytest.fixture
def built(monkeypatch):
    """Every instance, schema and bimodule presentation and every schema
    mapping constructed while the test runs."""
    seen = {"instance": [], "schema": [], "mapping": [], "bimodule": []}
    for kind, cls in (("instance", InstancePresentation),
                      ("schema", SchemaPresentation),
                      ("bimodule", BimodulePresentation)):
        def spy(self, post=cls.__post_init__, into=seen[kind]):
            post(self)
            into.append(self)
        monkeypatch.setattr(cls, "__post_init__", spy)
    make = SchemaMapping.make

    def make_spy(*args, **kw):
        F = make(*args, **kw)
        seen["mapping"].append(F)
        return F
    monkeypatch.setattr(SchemaMapping, "make", staticmethod(make_spy))
    yield seen
    checks = {"instance": check_instance, "schema": check_schema,
              "mapping": check_mapping_sorts, "bimodule": check_bimodule}
    for kind, values in seen.items():
        for v in values:
            checks[kind](v)


def run_engine(ws, instance: str, queries=("Q",)):
    """Build what the commands build: canonical forms, representables,
    delta, sigma, pi, query bimodules, gamma's and lambda_'s collages."""
    S = ws.schemas["S"]
    J = saturate(ws.instances[instance])
    check_instance(canonical_form(J)[0])
    for s in ws.schemas.values():
        for e in s.entities:
            check_instance(representable_instance(s, e))
    G, H = ws.mappings["G"], ws.mappings["H"]
    for F in (G, H):
        moved = sigma(F, ws.instances[instance])
        check_instance(moved)
        check_instance(canonical_form(delta(F, saturate(moved)))[0])
    pi(G, J)
    for name in queries:
        Q = ws.queries[name]
        check_instance(frozen_instance(Q))
        R, M = query_to_bimodule(Q)
        check_schema(R.presentation)
        check_bimodule(M)
        eval_query(Q, J)
        assert crosscheck_migration(Q, J) == "ok"
        gamma(M, J)
    eval_uber_query(ws.uberqueries["N"], J)
    _, to_copy = rename_schema(S, lambda n: n + "_c")
    for M in (companion_presentation(to_copy, "p"),
              conjoint_presentation(to_copy, "p")):
        check_bimodule(M)
    lambda_(companion_presentation(to_copy, "p"), ws.instances[instance])
    enumerate_transforms(ws.instances["I"], J)


def test_fixtures_build_well_sorted(built):
    ws = load_fixture("paper.cdb")
    grp = load_fixture("group.cdb")
    for th in grp.theories.values():
        for eq in th.equations:
            for t in (eq.lhs, eq.rhs):
                assert_well_sorted(t, eq.context, th.signature, eq.sort)
    for F in ws.mappings.values():
        check_mapping(F)  # saturates representables of both schemas
    for name in ("J", "Jbar"):
        run_engine(ws, name)
    for kind in ("instance", "schema", "mapping", "bimodule"):
        assert built[kind], kind


@pytest.mark.parametrize("kw", [{}, dict(null_share=0.25, salaries=(300, 600))],
                         ids=["ground", "nulls"])
def test_bench_workspaces_build_well_sorted(built, kw):
    ws = parse_workspace(bench_company(1, 36, 7, **kw), "w.cdb")
    run_engine(ws, "W", queries=("Q", "SJ"))
    assert len(built["instance"]) > 10 and built["mapping"]
