"""The three workloads: their inputs, their ops and each op's oracle check.

``saturate``: whole ``catdb saturate ... --format json`` commands, run in
process, over a ladder of ground instances (8, 16 and 24 rows).  Every op
parses its file again, as a command-line user does, so no normal-form
cache carries over.  Ground congruence closure does nearly all the work
and transform search none.

``query``: three instances with labelled nulls (11, 22 and 44 rows) are
saturated during set-up; the timed ops are library calls on them (Q, SJ,
N, homs of I and the crosscheck of Q), each with its result rendered.
Transform search, typeside decisions on nulls, pi/gamma and the
isomorphism check do the work; saturation is nearly absent.

The ladders are small enough that a 30-second run completes well over ten
cycles, which keeps the tail percentile inside the slowest op kind.

``migrate``: whole ``catdb migrate`` commands over ground instances of 4,
8 and 12 rows: sigma along H (saturated, into L, whose ``e.mgr.on = e.on``
fires only on non-representative class members), pi along G and delta
along G.

Each workload has a ladder of input sizes so that its scaling exponent
can be measured.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle
from gen import QUERY_SALARIES, Company, make_company, workspace_text

from catdb.cli import run_cli
from catdb.dsl import parse_workspace
from catdb.instance import enumerate_transforms, saturate, tables_json
from catdb.query import crosscheck_migration, eval_query, eval_uber_query

# (employees, departments) per rung of each workload's ladder
SATURATE_LADDER = ((6, 2), (12, 4), (18, 6))
QUERY_LADDER = ((9, 2), (18, 4), (36, 8))
MIGRATE_LADDER = ((3, 1), (6, 2), (9, 3))
QUERY_NULL_SHARE = 0.25

MIGRATIONS = (
    ("sigma", ("--mapping", "H", "--mode", "sigma", "--saturate")),
    ("pi", ("--mapping", "G", "--mode", "pi")),
    ("delta", ("--mapping", "G", "--mode", "delta")),
)


@dataclass
class Op:
    kind: str
    rows_in: int
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, int]]  # -> (correct, rows out)


@dataclass
class Workload:
    ops: list[Op]
    hashseed_argv: list[str]  # one op, as catdb command-line arguments


def run_command(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue()


def companies(seed: int, ladder, **kw) -> list[Company]:
    rng = random.Random(seed)
    return [make_company(rng, n, d, **kw) for n, d in ladder]


def write_workspace(paper: str, work: Path, name: str, c: Company):
    """Write the company's workspace file and parse it, so that a malformed
    input fails before timing.  Returns (path, workspace)."""
    text = workspace_text(paper, c)
    path = work / f"{name}.cdb"
    path.write_text(text, encoding="utf-8")
    return str(path), parse_workspace(text, str(path))


def command_workload(paper: str, work: Path, stem: str, rungs,
                     kinds) -> Workload:
    """One op per rung and kind; ``kinds`` holds (name, catdb arguments
    around the file, check factory).  The first command doubles as the
    hash-seed check."""
    ops, commands = [], []
    for c in rungs:
        path, _ = write_workspace(paper, work, f"{stem}{c.rows}", c)
        for kind, extra, make_check in kinds:
            argv = [extra[0], path, "--instance", "W", "--format", "json",
                    *extra[1:]]
            commands.append(argv)
            ops.append(Op(f"{kind}{c.rows}", c.rows,
                          lambda argv=argv: run_command(argv),
                          make_check(c)))
    return Workload(ops, commands[0])


# -- saturate --------------------------------------------------------------


def _check_saturate(c: Company):
    expected = oracle.saturate_tables(c)

    def check(result) -> tuple[bool, int]:
        code, out = result
        return code == 0 and json.loads(out) == expected, c.rows
    return check


def setup_saturate(seed: int, paper: str, work: Path) -> Workload:
    rungs = companies(seed, SATURATE_LADDER)
    return command_workload(paper, work, "saturate", rungs,
                            [("saturate", ["saturate"], _check_saturate)])


# -- migrate ---------------------------------------------------------------


def _entities(out: str) -> dict:
    return json.loads(out)["entities"]


def _check_sigma(c: Company):
    want = oracle.sigma_h(c)

    def check(result) -> tuple[bool, int]:
        code, out = result
        if code != 0:
            return False, 0
        ents = _entities(out)
        emp = ents["Emp"]
        on = emp["columns"].index("on")
        emp_rows = [r[:on] + r[on + 1:] for r in emp["rows"]]
        team_of_dept = {}
        for row, e in zip(emp["rows"], c.emps):
            team_of_dept.setdefault(e.wrk, set()).add(row[on])
        teams = {r[0]: r[1] for r in ents["Team"]["rows"]}
        same_team = all(len(t) == 1 for t in team_of_dept.values())
        team_dept = {next(iter(t)): c.depts[d].gen
                     for d, t in team_of_dept.items()}
        ok = (emp_rows == want["Emp"] and ents["Dept"]["rows"] == want["Dept"]
              and len(teams) == want["Team"] and same_team
              and teams == team_dept)
        return ok, sum(len(t["rows"]) for t in ents.values())
    return check


def _check_pi(c: Company):
    want = oracle.pi_g(c)

    def check(result) -> tuple[bool, int]:
        code, out = result
        if code != 0:
            return False, 0
        ents = _entities(out)
        cells = {e: {r[0]: r for r in t["rows"]} for e, t in ents.items()}
        got = {
            "Emp": sorted((r[3], oracle.cell_key(r[4]))
                          for r in cells["Emp"].values()),
            "Dept": sorted(r[2] for r in cells["Dept"].values()),
            "QR": sorted((cells["Emp"][f][3], cells["Dept"][g][2])
                         for _, f, g in cells["QR"].values()),
        }
        return got == want, sum(len(t["rows"]) for t in ents.values())
    return check


def setup_migrate(seed: int, paper: str, work: Path) -> Workload:
    rungs = companies(seed, MIGRATE_LADDER)
    checks = {"sigma": _check_sigma, "pi": _check_pi, "delta": _check_saturate}
    kinds = [(mode, ["migrate", *flags], checks[mode])
             for mode, flags in MIGRATIONS]
    return command_workload(paper, work, "migrate", rungs, kinds)


# -- query -----------------------------------------------------------------


def _rows(doc: str, entity: str) -> list[list[str]]:
    return _entities(doc)[entity]["rows"]


def _keyed(rows) -> list[list[str]]:
    return [[oracle.cell_key(x) for x in r[1:]] for r in rows]


def _query_ops(c: Company, ws, J) -> list[Op]:
    Q, SJ, N = ws.queries["Q"], ws.queries["SJ"], ws.uberqueries["N"]
    I = ws.instances["I"]
    q_rows, sj_rows = oracle.query_q(c), oracle.query_sj(c)
    n_rows, homs = oracle.uber_n(c), oracle.homs_i(c)

    def check_q(out):
        got = _keyed(_rows(out, "*"))
        return got == q_rows, len(got)

    def check_sj(out):
        got = _keyed(_rows(out, "*"))
        return got == sj_rows, len(got)

    def check_n(out):
        a = _keyed(_rows(out, "A"))
        a2 = [[r[1], oracle.cell_key(r[2])] for r in _rows(out, "A'")]
        return a == n_rows["A"] and a2 == n_rows["A'"], len(a) + len(a2)

    def check_homs(out):
        return out == homs, len(out)

    def check_crosscheck(out):
        return out == "ok", 0

    n = c.rows
    return [
        Op(f"Q{n}", n, lambda: tables_json(eval_query(Q, J).instance),
           check_q),
        Op(f"SJ{n}", n, lambda: tables_json(eval_query(SJ, J).instance),
           check_sj),
        Op(f"N{n}", n, lambda: tables_json(eval_uber_query(N, J)), check_n),
        Op(f"homs{n}", n,
           lambda: [t.render() for t in enumerate_transforms(I, J)],
           check_homs),
        Op(f"crosscheck{n}", n, lambda: crosscheck_migration(Q, J),
           check_crosscheck),
    ]


def setup_query(seed: int, paper: str, work: Path) -> Workload:
    """One instance per rung, saturated here: set-up is where saturation
    belongs in this workload."""
    rungs = companies(seed, QUERY_LADDER, null_share=QUERY_NULL_SHARE,
                      salaries=QUERY_SALARIES)
    ops, paths = [], []
    for c in rungs:
        path, ws = write_workspace(paper, work, f"query{c.rows}", c)
        ops += _query_ops(c, ws, saturate(ws.instances["W"]))
        paths.append(path)
    return Workload(ops, ["query", paths[0], "--query", "N", "--instance",
                          "W", "--format", "json"])


SETUPS = {
    "saturate": setup_saturate,
    "query": setup_query,
    "migrate": setup_migrate,
}
