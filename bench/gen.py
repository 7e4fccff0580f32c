"""Seeded Emp/Dept workspaces for the benchmark.

A company has N employees and D departments.  Employee e_j (j < D) is the
self-managed boss and the secretary of department d_j and earns 1000.
Every other employee works in a department drawn from a shuffled deck that
holds each department equally often, so the shape of the data (and with it
the amount of work per op) does not swing with the seed; its manager is
the boss of that department.  d0 is named "Admin"; names are letter-only.
Every path and observable equation of schema S holds by construction.

The schemas, mappings and queries come from ``fixtures/paper.cdb``, which
is only read; this module appends the equi-join query SJ and one instance.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass

FIXTURE_DECLS = ("S", "T", "L", "RS", "G", "H", "I", "Q", "N")

SJ_QUERY = """\
query SJ on S {
  for e:Emp, f:Emp;
  where e.wrk = f.wrk, e.sal = f.sal;
  return left := e.last, right := f.last, pay := e.sal;
}
"""

BOSS_SALARY = 1000
QUERY_SALARIES = (300, 600)


@dataclass(frozen=True)
class Emp:
    gen: str
    last: str
    wrk: int
    mgr: int
    sal: int | None  # None: the salary is the labelled null named ``null``
    null: str | None = None


@dataclass(frozen=True)
class Dept:
    gen: str
    name: str
    sec: int


@dataclass(frozen=True)
class Company:
    emps: tuple[Emp, ...]
    depts: tuple[Dept, ...]

    @property
    def rows(self) -> int:
        return len(self.emps) + len(self.depts)

    @property
    def nulls(self) -> list[str]:
        return [e.null for e in self.emps if e.null]


def _word(rng: random.Random, taken: set[str]) -> str:
    while True:
        w = rng.choice(string.ascii_uppercase) + "".join(
            rng.choice(string.ascii_lowercase)
            for _ in range(rng.randint(3, 7)))
        if w not in taken:
            taken.add(w)
            return w


def make_company(rng: random.Random, n_emp: int, n_dept: int,
                 null_share: float = 0.0,
                 salaries: tuple[int, ...] | None = None) -> Company:
    """``salaries`` None draws each non-boss salary from 100-899; otherwise
    each department's staff cycle through a shuffled copy of the set.
    ``null_share`` of each department's staff get a labelled null salary."""
    if not 1 <= n_dept <= n_emp:
        raise ValueError("need 1 <= departments <= employees")
    dept_names = {"Admin"}
    depts = [Dept(f"d{j}", "Admin" if j == 0 else _word(rng, dept_names), j)
             for j in range(n_dept)]
    deck = [i % n_dept for i in range(n_emp - n_dept)]
    rng.shuffle(deck)
    staff: list[list[int]] = [[] for _ in range(n_dept)]
    for i, d in enumerate(deck):
        staff[d].append(n_dept + i)
    pay: dict[int, int | None] = {j: BOSS_SALARY for j in range(n_dept)}
    for members in staff:
        pool = list(salaries) if salaries else []
        rng.shuffle(pool)
        n_null = round(len(members) * null_share)
        nulled = set(rng.sample(members, n_null))
        for k, e in enumerate(members):
            if e in nulled:
                pay[e] = None
            elif pool:
                pay[e] = pool[k % len(pool)]
            else:
                pay[e] = rng.randint(100, 899)
    lasts: set[str] = set()
    emps = []
    n_nulls = 0
    for e in range(n_emp):
        wrk = e if e < n_dept else deck[e - n_dept]
        null = None
        if pay[e] is None:
            null, n_nulls = f"x{n_nulls}", n_nulls + 1
        emps.append(Emp(f"e{e}", _word(rng, lasts), wrk, wrk, pay[e], null))
    return Company(tuple(emps), tuple(depts))


def fixture_decls(paper_text: str, names=FIXTURE_DECLS) -> str:
    """The named top-level declarations of a workspace text, in file
    order, cut out by brace matching."""
    out = []
    for m in re.finditer(r"^(\w+)\s+([\w']+)\s[^{]*\{", paper_text, re.M):
        depth, i = 0, m.end() - 1
        while True:
            depth += {"{": 1, "}": -1}.get(paper_text[i], 0)
            i += 1
            if depth == 0:
                break
        if m.group(2) in names:
            out.append(paper_text[m.start():i])
    found = {re.match(r"\w+\s+([\w']+)\s", d).group(1) for d in out}
    if found != set(names):
        raise ValueError(f"fixture lacks {sorted(set(names) - found)}")
    return "\n\n".join(out) + "\n"


def instance_text(c: Company) -> str:
    """The company as instance W on schema S."""
    lines = ["instance W on S {",
             f"  generators {' '.join(e.gen for e in c.emps)} : Emp;",
             f"  generators {' '.join(d.gen for d in c.depts)} : Dept;"]
    if c.nulls:
        lines.append(f"  generators {' '.join(c.nulls)} : Int;")
    for e in c.emps:
        sal = e.null if e.sal is None else str(e.sal)
        lines.append(f'  equations {e.gen}.last = "{e.last}", '
                     f"{e.gen}.wrk = {c.depts[e.wrk].gen}, "
                     f"{e.gen}.mgr = {c.emps[e.mgr].gen}, "
                     f"{e.gen}.sal = {sal};")
    for d in c.depts:
        lines.append(f'  equations {d.gen}.name = "{d.name}", '
                     f"{d.gen}.sec = {c.emps[d.sec].gen};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def workspace_text(paper_text: str, c: Company) -> str:
    return (fixture_decls(paper_text) + "\n" + SJ_QUERY + "\n"
            + instance_text(c))
