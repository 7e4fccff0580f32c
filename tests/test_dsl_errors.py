"""Malformed workspaces: each input class raises its exception with its
exact message, source span included."""

import pytest

from catdb.dsl import DslError, parse_workspace
from catdb.kernel import AritySortMismatch, KernelError
from tests.conftest import FIXTURES

S = ("schema S { entities A B; edges f : A -> B; "
     "attributes a : A -> Int, s : B -> Str; }\n")
R = "schema R { entities X Y; edges k : Y -> X; attributes n : X -> Int; }\n"
UBER = S + R + """uberquery N on S -> R {
  entity X {
    for a:A;
    return %s := a.a;
  }
  entity Y { for b:A; keys %s := X[a := b]; }
}"""

CASES = [
    # unknown sorts
    ("theory", "theory T {\n  sorts G;\n  symbols m : G G -> H;\n}",
     DslError, "e.cdb:3:22: unknown sort 'H'"),
    ("theory binder", "theory T {\n  sorts G;\n  equations forall x : H . x = x;\n}",
     DslError, "e.cdb:3:24: unknown sort 'H'"),
    ("schema attribute", "schema S {\n  entities A;\n  attributes a : A -> Flt;\n}",
     DslError, "e.cdb:3:23: unknown sort 'Flt'"),
    ("schema edge", "schema S {\n  entities A;\n  edges f : A -> Zed;\n}",
     DslError, "e.cdb:3:18: unknown sort 'Zed'"),
    ("schema binder", "schema S {\n  entities A;\n  path_eqs forall x : Zed . x = x;\n}",
     DslError, "e.cdb:3:23: unknown sort 'Zed'"),
    ("instance", S + "instance I on S {\n  generators x y : Zed;\n}",
     DslError, "e.cdb:3:20: unknown sort 'Zed'"),
    ("for", S + "query Q on S {\n  for x:A, y:Zed;\n}",
     DslError, "e.cdb:3:14: unknown sort 'Zed'"),
    ("bimodule attribute", S + R + "bimodule M : S -> R {\n  attributes g : A -> Flt;\n}",
     DslError, "e.cdb:4:23: unknown sort 'Flt'"),
    ("bimodule binder", S + R + "bimodule M : S -> R {\n  equations forall x : Zed . x = x;\n}",
     DslError, "e.cdb:4:24: unknown sort 'Zed'"),
    # unknown entities
    ("mapping source", S + R + "mapping F : S -> R {\n  entity Zed -> X;\n}",
     DslError, "e.cdb:4:10: unknown entity 'Zed'"),
    ("mapping target", S + R + "mapping F : S -> R {\n  entity A -> Zed;\n}",
     DslError, "e.cdb:4:15: unknown entity 'Zed'"),
    ("bimodule domain", S + R + "bimodule M : S -> R {\n  edges g : Zed -> X;\n}",
     DslError, "e.cdb:4:13: unknown entity 'Zed'"),
    ("bimodule codomain", S + R + "bimodule M : S -> R {\n  edges g : A -> Zed;\n}",
     DslError, "e.cdb:4:18: unknown entity 'Zed'"),
    ("uberquery block", S + R + "uberquery N on S -> R {\n  entity Zed { for a:A; }\n}",
     DslError, "e.cdb:4:10: unknown entity 'Zed'"),
    # mismatched equation sides
    ("theory sides", "theory T {\n  sorts G H;\n  symbols g : G; symbols h : H;\n"
     "  equations forall x : G . x = h;\n}",
     DslError, "e.cdb:4:30: equation sides have sorts G and H"),
    ("schema sides", "schema S {\n  entities A;\n  attributes a : A -> Int;\n"
     "  obs_eqs forall x : A . x.a = x;\n}",
     DslError, "e.cdb:4:30: equation sides have sorts Int and A"),
    ("instance sides", S + 'instance I on S {\n  generators x : A;\n  equations x.a = "q";\n}',
     DslError, "e.cdb:4:17: equation sides have sorts Int and Str"),
    ("where sides", S + "query Q on S {\n  for x:A;\n  where x.a = x;\n}",
     DslError, "e.cdb:4:13: equation sides have sorts Int and A"),
    ("bimodule sides", S + R + "bimodule M : S -> R {\n  edges g : A -> X;\n"
     "  equations forall x : A . x.g.n = x.f;\n}",
     DslError, "e.cdb:5:34: equation sides have sorts Int and B"),
    ("ill-sorted argument", S + "instance I on S {\n  generators x : A;\n  equations x.f.a = 1;\n}",
     DslError, "e.cdb:4:19: argument x.f of a has sort B, expected A"),
    ("ill-sorted where", S + "query Q on S {\n  for x:A;\n  where x.a + x.f = 1;\n}",
     DslError, "e.cdb:4:19: argument x.f of + has sort B, expected Int"),
    ("ill-sorted return", S + "query Q on S {\n  for x:A;\n  return r := x.f + 1;\n}",
     DslError, "e.cdb:4:15: argument x.f of + has sort B, expected Int"),
    # duplicate generators and binders
    ("duplicate generator", S + "instance I on S {\n  generators x y : A;\n  generators x : B;\n}",
     KernelError, "duplicate variable in context: ['x', 'y', 'x']"),
    ("duplicate before equations", S + "instance I on S {\n  generators x : A, x : B;\n"
     "  equations x.a = 1;\n}",
     KernelError, "duplicate variable in context: ['x', 'x']"),
    ("duplicate binder", "theory T {\n  sorts G;\n  equations forall x x : G . x = x;\n}",
     KernelError, "duplicate variable in context: ['x', 'x']"),
    # unknown names
    ("result attribute", UBER % ("m", "k"),
     DslError, "e.cdb:4:10: unknown result attribute 'm'"),
    ("result edge", UBER % ("n", "q"),
     DslError, "e.cdb:8:28: unknown result edge 'q'"),
    ("keys outside uberquery", S + "query Q on S {\n  for a:A;\n  keys f := X[a := a];\n}",
     DslError, "e.cdb:4:8: keys clauses require an uberquery"),
    ("symbol", S + "instance I on S {\n  generators x : A;\n  equations x.zz = 1;\n}",
     DslError, "e.cdb:4:15: unknown symbol 'zz'"),
    ("symbol arity", S + "instance I on S {\n  generators x : A;\n  equations a(x, x) = 1;\n}",
     DslError, "e.cdb:4:13: unknown symbol 'a'"),
    # a bimodule equation is a section of its own, not a bare statement
    ("bimodule statement", S + R + "bimodule M : S -> R {\n  edges g : A -> X;\n"
     "  equations forall x : A . x.g.n = x.a;\n  forall x : A . x.g.n = 1;\n}",
     DslError, "e.cdb:6:3: unknown bimodule section 'forall'"),
]


@pytest.mark.parametrize("text,exc,message", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_error_class_and_message(text, exc, message):
    with pytest.raises(exc) as err:
        parse_workspace(text, "e.cdb")
    assert type(err.value) is exc
    assert str(err.value) == message


def test_ill_sorted_subterm_of_a_fixture_return():
    """The sort error of a subterm is reported at its RETURN term, and
    chains the kernel's error."""
    text = (FIXTURES / "paper.cdb").read_text()
    old = "emp_last := e.last, dept_name := d.name,"
    assert text.count(old) == 1
    with pytest.raises(DslError) as err:
        parse_workspace(text.replace(old, old[:-1] + " + 1,"), "paper.cdb")
    assert str(err.value) == ("paper.cdb:128:43: argument d.name of + has "
                              "sort Str, expected Int")
    assert type(err.value.__cause__) is AritySortMismatch
