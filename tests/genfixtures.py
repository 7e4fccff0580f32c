"""Seeded random instance presentations for the property suites."""

import importlib.util
import random
import string
import sys
from pathlib import Path

from catdb.kernel import Context, Equation, Var, app
from catdb.schema import Schema
from catdb.instance import InstancePresentation
from catdb.typeside import STR, str_literal


def random_instance(rng: random.Random, schema: Schema,
                    max_rows_per_entity: int = 3,
                    edge_fill: float = 0.7,
                    attr_fill: float = 0.4) -> InstancePresentation:
    """A random instance: a few generator rows per entity, edges wired to
    random rows (or left free), and string attributes optionally set.

    Integer/boolean attributes are left free so the random data can never
    contradict ordering hypotheses baked into a schema's observable
    equations.
    """
    names: dict = {}
    bindings = []
    for e in schema.entities:
        count = rng.randrange(1, max_rows_per_entity + 1)
        names[e] = [f"{e.name.lower()}{i}" for i in range(count)]
        bindings += [(n, e) for n in names[e]]
    G = Context(tuple(bindings))
    eqs = []
    for f in schema.edges:
        for n in names[f.dom[0]]:
            if rng.random() < edge_fill:
                eqs.append(Equation(
                    G, app(f, Var(n)), Var(rng.choice(names[f.cod])),
                    f.cod))
    for a in schema.attributes:
        if a.cod != STR:
            continue
        for n in names[a.dom[0]]:
            if rng.random() < attr_fill:
                word = "".join(rng.choice(string.ascii_lowercase)
                               for _ in range(2))
                eqs.append(Equation(
                    G, app(a, Var(n)), str_literal(word), STR))
    return InstancePresentation(schema, G, tuple(eqs))


def bench_company(seed: int, n_emp: int, n_dept: int, **kw) -> str:
    """The benchmark's workspace text: the declarations of
    fixtures/paper.cdb, query SJ and instance W of
    ``bench/gen.make_company(random.Random(seed), n_emp, n_dept, **kw)``."""
    root = Path(__file__).resolve().parent.parent
    gen = sys.modules.get("bench_gen")
    if gen is None:
        spec = importlib.util.spec_from_file_location(
            "bench_gen", root / "bench" / "gen.py")
        gen = sys.modules["bench_gen"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
    paper = (root / "fixtures" / "paper.cdb").read_text(encoding="utf-8")
    return gen.workspace_text(
        paper, gen.make_company(random.Random(seed), n_emp, n_dept, **kw))


def word(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(6))


def company_instance(rng: random.Random, n_emp: int = 50,
                     n_dept: int = 10) -> str:
    """Instance W on S: the boss of each department manages itself and is
    its secretary; every fifth staff member has no manager given, every
    seventh a labelled null salary, and every third department no name."""
    nulls = [f"x{k}" for k in range(0, n_emp - n_dept, 7)]
    lines = ["instance W on S {",
             f"  generators {' '.join(f'e{i}' for i in range(n_emp))} : Emp;",
             f"  generators {' '.join(f'd{j}' for j in range(n_dept))} : Dept;",
             f"  generators {' '.join(nulls)} : Int;"]
    for j in range(n_dept):
        name = "" if j % 3 == 2 else f'd{j}.name = "{word(rng)}", '
        lines.append(f"  equations {name}d{j}.sec = e{j}, e{j}.wrk = d{j}, "
                     f"e{j}.mgr = e{j}, e{j}.sal = 1000, "
                     f'e{j}.last = "{word(rng)}";')
    for k, i in enumerate(range(n_dept, n_emp)):
        d = rng.randrange(n_dept)
        mgr = "" if k % 5 == 4 else f"e{i}.mgr = e{d}, "
        sal = f"x{k}" if k % 7 == 0 else str(rng.randrange(100, 900))
        lines.append(f"  equations {mgr}e{i}.wrk = d{d}, e{i}.sal = {sal}, "
                     f'e{i}.last = "{word(rng)}";')
    return "\n".join(lines + ["}"]) + "\n"


def typeside_instance() -> str:
    """Schema P and instance K on it, whose cells and constraints use each
    canonical value form: Int, Str and Bool nulls, an ordering fact on a
    null, a string comparison, a product of nulls and a negation."""
    return """\
schema P {
  entities Item Box;
  edges box : Item -> Box;
  attributes qty : Item -> Int, tag : Item -> Str, flag : Item -> Bool;
  attributes cap : Box -> Int;
}

instance K on P {
  generators i1 i2 i3 : Item;
  generators c1 c2 : Box;
  generators n k : Int;
  generators m : Str;
  generators b : Bool;
  equations i1.box = c1, i2.box = c1, i3.box = c2;
  equations i1.qty = n, i1.tag = m, i1.flag = b, i2.qty = k;
  equations (n <= 2) = false, n * n = k;
  equations i2.flag = eq("c", m), i3.flag = not(and(b, n <= 5));
  equations i3.qty = n * n + 1, i3.tag = "c", c1.cap = n + k;
}
"""


def type_equations_workspace() -> str:
    """Schema P and instances whose answers once hung on the order of their
    type equations: a chain of nulls down to a constant, written both ways
    round; two chains that meet in one class; the same with two constants,
    which clash; residual equations (a fact, a fact and its negation, a
    sum) that give one value two constants; residual equations that settle
    a null only together (Product) or clash only together (Chained); an
    atom equated with its own negation or successor; and two residual
    equations with one side in common, written both ways round."""
    return """\
schema P {
  entities E;
  attributes v : E -> Int, u : E -> Int;
}

instance Chain on P {
  generators e : E;
  generators n1 n2 n3 : Int;
  equations e.v = n3, n3 = n2, n2 = n1, n1 = 5;
}

instance ChainRev on P {
  generators e : E;
  generators n1 n2 n3 : Int;
  equations n1 = 5, n2 = n1, n3 = n2, e.v = n3;
}

instance Five on P {
  generators e : E;
  equations e.v = 5;
}

instance Meet on P {
  generators e : E;
  generators w x y z : Int;
  equations z = y, y = x, z = w, e.v = x, e.u = w;
}

instance Clash on P {
  generators e : E;
  generators w x y z : Int;
  equations x = 5, w = 6, z = y, y = x, z = w;
}

instance Facts on P {
  generators e : E;
  generators n : Int;
  equations (n <= 2) = true, (n <= 2) = false;
}

instance Negated on P {
  generators e : E;
  generators n : Int;
  equations (n <= 2) = true, not(n <= 2) = true;
}

instance Sums on P {
  generators e : E;
  generators n m : Int;
  equations n + m = 5, n + m = 6;
}

instance Product on P {
  generators e : E;
  generators a b c : Int;
  equations e.v = a, b * c = a, b * c = 5;
}

instance Chained on P {
  generators e : E;
  generators a b c : Int;
  equations a + c = 6, a * b = 5, a + c = a * b;
}

instance SelfNot on P {
  generators e : E;
  generators b : Bool;
  equations b = not(b);
}

instance Successor on P {
  generators e : E;
  generators x : Int;
  equations x = x + 1;
}

instance Overlap on P {
  generators e : E;
  generators a b c d : Int;
  equations c * d + 1 = a * b, c * d + 1 = a + b, e.v = a * b, e.u = a + b;
}

instance OverlapRev on P {
  generators e : E;
  generators a b c d : Int;
  equations c * d + 1 = a + b, c * d + 1 = a * b, e.v = a * b, e.u = a + b;
}
"""


def solved_equations_workspace() -> str:
    """Schemas P and S and instances whose type equations set a cell to a
    literal or a null: the same literal twice (Twice), two literals
    (Literals, inconsistent), a literal on the left (Left), a cell reached
    through an edge (Edge) and its clash (EdgeClash), two nulls
    (TwoNulls), a null set to a literal beside a cell set to that null
    (NullLiteral), a negative literal (Negative), a Bool cell set to a
    null and to true (BoolCell), a cell set both ways round with a
    residual equation over it (Residual), and S-instances whose literal
    salaries keep (Paid) or break (Underpaid, inconsistent) the
    observable equation (e.sal <= e.mgr.sal) = true, and one whose boss
    earns a null (NullBoss)."""
    return """\
schema P {
  entities E;
  edges nx : E -> E;
  attributes v : E -> Int, u : E -> Int, s : E -> Str, b : E -> Bool;
  path_eqs forall x:E . x.nx.nx = x.nx;
}

schema S {
  entities Emp;
  edges mgr : Emp -> Emp;
  attributes sal : Emp -> Int;
  path_eqs forall e:Emp . e.mgr.mgr = e.mgr;
  obs_eqs forall e:Emp . (e.sal <= e.mgr.sal) = true;
}

instance Twice on P {
  generators e : E;
  equations e.v = 5, e.v = 5, e.s = "ab", "ab" = e.s;
}

instance Literals on P {
  generators e : E;
  equations e.v = 5, e.v = 6;
}

instance Left on P {
  generators e : E;
  equations 7 = e.u;
}

instance Edge on P {
  generators e f : E;
  equations e.nx = f, e.nx.v = 5, f.v = 5;
}

instance EdgeClash on P {
  generators e f : E;
  equations e.nx = f, e.nx.v = 5, f.v = 6;
}

instance TwoNulls on P {
  generators e : E;
  generators n m : Int;
  equations e.v = n, e.v = m;
}

instance NullLiteral on P {
  generators e : E;
  generators n : Int;
  equations e.v = n, n = 4, e.nx.u = n;
}

instance Negative on P {
  generators e f : E;
  equations e.nx = f, f.u = -3;
}

instance BoolCell on P {
  generators e : E;
  generators p : Bool;
  equations e.b = p, e.b = true;
}

instance Residual on P {
  generators e : E;
  generators n : Int;
  equations e.u + n = e.v, 3 = e.v, e.v = 3, (n <= e.u) = true;
}

instance Paid on S {
  generators a b : Emp;
  equations a.mgr = b, b.mgr = b, a.sal = 500, b.sal = 700;
}

instance Underpaid on S {
  generators a b : Emp;
  equations a.mgr = b, b.mgr = b, a.sal = 700, b.sal = 500;
}

instance NullBoss on S {
  generators a b : Emp;
  generators n : Int;
  equations a.mgr = b, b.mgr = b, a.sal = 500, b.sal = n;
}
"""


def infinite_side_workspace() -> str:
    """Schema P, whose entity B has an infinite representable (edge nxt
    is free), instance K on it, and query Q, which reads only A: Q's
    migration route never needs a table for B."""
    return """\
schema P {
  entities A B;
  edges nxt : B -> B;
  attributes v : A -> Int;
}

instance K on P {
  generators a1 : A, a2 : A, b : B;
  equations a1.v = 1, a2.v = 2, b.nxt = b;
}

query Q on P {
  for a:A;
  where (a.v <= 1) = true;
  return w := a.v;
}
"""


# A bimodule from S to R whose equations section separates its two
# equations by a comma.
BIMODULE_WORKSPACE = """\
schema S {
  entities A;
  attributes a : A -> Int;
}

schema R {
  entities X Y;
  edges k : Y -> X;
  attributes n : X -> Int;
}

bimodule M : S -> R {
  edges g : A -> X, h : A -> Y;
  equations forall x:A . x.g.n = x.a, forall x:A . x.h.k = x.g;
}
"""


# Each declaration fails `check` once: F breaks S's path equation and its
# observable equation, Q binds a FOR variable to a type, and N's block X
# asks for x.a = 2 where S forces x.a = 1.
CHECK_FAILURES_WORKSPACE = """\
schema S {
  entities A B;
  edges p : A -> B, q : A -> B;
  attributes a : A -> Int;
  path_eqs forall x:A . x.p = x.q;
  obs_eqs forall x:A . x.a = 1;
}

schema T {
  entities A B;
  edges p : A -> B, q : A -> B;
  attributes a : A -> Int;
}

schema R {
  entities X Y;
  edges k : X -> Y;
}

mapping F : S -> T {
  entity A -> A;
  entity B -> B;
  edge p -> x.p;
  edge q -> x.q;
  attribute a -> x.a;
}

query Q on S {
  for x:A, n:Int;
}

uberquery N on S -> R {
  entity X {
    for x:A;
    where x.a = 2;
    keys k := Y[y := x];
  }
  entity Y {
    for y:A;
  }
}
"""
