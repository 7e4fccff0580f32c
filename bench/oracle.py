"""Brute-force expected results, computed in plain Python from a Company.

Nothing here calls the engine.  Ground cells are predicted exactly in the
engine's rendering (strings quoted, integers in decimal); a cell that holds
a labelled null is predicted as ``null(<name>)`` and an engine cell matches
it when the only identifier it mentions is that null.

Row order follows the engine's documented contract: generators by
declaration, rows by table order, which for these instances is generator
order.
"""

from __future__ import annotations

import re

from gen import BOSS_SALARY, Company

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_GROUND = re.compile(r'-?\d+|"[A-Za-z]*"|true|false')


def null(name: str) -> str:
    return f"null({name})"


def cell_key(cell: str) -> str:
    """An engine cell in the oracle's vocabulary."""
    if _GROUND.fullmatch(cell):
        return cell
    names = set(_IDENT.findall(cell))
    if len(names) == 1:
        return null(names.pop())
    return f"symbolic({cell})"


def _q(s: str) -> str:
    return f'"{s}"'


def _sal(e) -> str:
    return null(e.null) if e.sal is None else str(e.sal)


def _diff(e) -> str:
    """d.sec.sal - e.sal: every secretary is a boss."""
    return null(e.null) if e.sal is None else str(BOSS_SALARY - e.sal)


def saturate_tables(c: Company) -> dict:
    """The exact ``tables()`` document of the saturated instance."""
    emp_rows = [[e.gen, c.emps[e.mgr].gen, c.depts[e.wrk].gen, _q(e.last),
                 e.null or str(e.sal)] for e in c.emps]
    dept_rows = [[d.gen, c.emps[d.sec].gen, _q(d.name)] for d in c.depts]
    nulls = c.nulls
    return {
        "entities": {
            "Emp": {"columns": ["id", "mgr", "wrk", "last", "sal"],
                    "rows": emp_rows},
            "Dept": {"columns": ["id", "sec", "name"], "rows": dept_rows},
        },
        "typealg": {
            "nulls": [f"{n} : Int" for n in nulls],
            "constraints": sorted(f"({n} <= {BOSS_SALARY}) = true"
                                  for n in nulls),
        },
    }


def admin_pairs(c: Company) -> list[tuple]:
    """(employee, department) pairs matched by Q, N's block A and the
    frozen instance I: the employee works in "Admin"; the salary test
    always holds because every secretary is a boss earning the most."""
    return [(e, d) for e in c.emps if c.depts[e.wrk].name == "Admin"
            for d in c.depts]


def query_q(c: Company) -> list[list[str]]:
    return [[_q(e.last), _q(d.name), _diff(e)]
            for e, d in admin_pairs(c)]


def query_sj(c: Company) -> list[list[str]]:
    """Pairs in one department whose salaries are provably equal: equal
    ground values, or one employee paired with itself."""
    out = []
    for e in c.emps:
        for f in c.emps:
            same_pay = e is f or (e.sal is not None and e.sal == f.sal)
            if e.wrk == f.wrk and same_pay:
                out.append([_q(e.last), _q(f.last), _sal(e)])
    return out


def uber_n(c: Company) -> dict[str, list[list[str]]]:
    pairs = admin_pairs(c)
    a_rows = [[_q(d.name), _diff(e)] for e, d in pairs]
    index = {(e.gen, d.gen): i + 1 for i, (e, d) in enumerate(pairs)}
    admins = [e for e in c.emps if c.depts[e.wrk].name == "Admin"]
    a2_rows = [[f"a{index[(e.gen, c.depts[e.wrk].gen)]}", _q(e.last)]
               for e in admins]
    return {"A": a_rows, "A'": a2_rows}


def homs_i(c: Company) -> list[str]:
    return [f"[e := {e.gen}, d := {d.gen}]" for e, d in admin_pairs(c)]


def sigma_h(c: Company) -> dict:
    """Sigma along H into L: Emp and Dept keep their cells; one Team per
    department, since ``e.mgr.on = e.on`` puts a boss's staff on its team."""
    sat = saturate_tables(c)["entities"]
    return {"Emp": sat["Emp"]["rows"], "Dept": sat["Dept"]["rows"],
            "Team": len(c.depts)}


def pi_g(c: Company) -> dict:
    """Pi along G into T: Emp and Dept hold the same cells under fresh row
    names; QR holds Q's (employee, department) pairs."""
    return {
        "Emp": sorted((_q(e.last), _sal(e)) for e in c.emps),
        "Dept": sorted(_q(d.name) for d in c.depts),
        "QR": sorted((_q(e.last), _q(d.name)) for e, d in admin_pairs(c)),
    }
