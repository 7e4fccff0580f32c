"""Command-line interface.

Commands operate on .cdb workspace files: check, complete, eq, saturate,
homs, query, migrate.  Exit codes: 0 success, 1 domain errors (failed
checks, undecidable/infinite cases, inconsistency), 2 usage errors.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .kernel import Context, KernelError, Presentation, render_term
from .rewrite import DEFAULT_BUDGET, Budget, BudgetExceeded, complete
from .schema import PossiblyInfinite, SchemaError
from .instance import (
    InstanceError, enumerate_transforms, render_tables, saturate, tables_json,
)
from .migration import MigrationError, delta, pi, sigma
from .query import (
    QueryError, crosscheck_migration, eval_query, eval_uber_query,
)
from .dsl import DslError, Parser, TermEnv, Workspace, parse_workspace


class UsageError(Exception):
    pass


# what run_cli reports as a domain error (exit 1)
DOMAIN_ERRORS = (DslError, KernelError, SchemaError, InstanceError,
                 MigrationError, QueryError, BudgetExceeded, PossiblyInfinite)


def _load(path: str) -> Workspace:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    return parse_workspace(text, path)


def _pick(table: dict, name: str, what: str):
    if name not in table:
        raise UsageError(f"no {what} named {name!r} "
                         f"(have: {', '.join(sorted(table)) or 'none'})")
    return table[name]


def _emit_instance(si, fmt: str):
    if fmt == "json":
        print(tables_json(si))
    else:
        print(render_tables(si))


def cmd_check(ws: Workspace, args) -> int:
    from .schema import check_mapping
    from .query import check_uber_query, check_domain_independence
    problems = []
    for name, F in ws.mappings.items():
        for v in check_mapping(F):
            problems.append(f"mapping {name}: {v}")
    for name, Q in ws.queries.items():
        bad = check_domain_independence(Q)
        if bad:
            problems.append(
                f"query {name}: FOR variables without entity sorts: "
                f"{', '.join(bad)}")
    for name, N in ws.uberqueries.items():
        try:
            check_uber_query(N)
        except (QueryError, InstanceError) as exc:
            problems.append(f"uberquery {name}: {exc}")
    counts = {k: len(getattr(ws, k)) for k in
              ("theories", "schemas", "instances", "mappings", "bimodules",
               "queries", "uberqueries")}
    summary = ", ".join(f"{v} {k}" for k, v in counts.items() if v)
    if problems:
        for p in problems:
            print(p)
        return 1
    print(f"ok ({summary})")
    return 0


def cmd_complete(ws: Workspace, args) -> int:
    th: Presentation = _pick(ws.theories, args.theory, "theory")
    rs = complete(th, budget=args.budget)
    for rule in rs.rules:
        print(f"{render_term(rule.lhs)} ~> {render_term(rule.rhs)}")
    for eq in rs.unoriented:
        print(f"{render_term(eq.lhs)} = {render_term(eq.rhs)}  (unoriented)")
    if rs.status != "confluent":
        print(f"status: {rs.status}")
        return 1
    return 0


def cmd_eq(ws: Workspace, args) -> int:
    th: Presentation = _pick(ws.theories, args.theory, "theory")
    rs = complete(th, budget=args.budget)
    env = TermEnv(th.signature, Context(()))

    def parse_one(text: str):
        p = Parser(text, "<arg>")
        t = p.parse_term(env)
        if p.peek():
            p.fail(f"trailing input {p.peek()!r}", p.pos)
        return t, p

    (a, _), (b, p) = parse_one(args.terms[0]), parse_one(args.terms[1])
    p.check_equation(env, a, b, 0)
    print(rs.decide_equal(a, b).name)
    return 0


def cmd_saturate(ws: Workspace, args) -> int:
    ip = _pick(ws.instances, args.instance, "instance")
    _emit_instance(saturate(ip, args.budget), args.format)
    return 0


def cmd_homs(ws: Workspace, args) -> int:
    src = _pick(ws.instances, getattr(args, "from"), "instance")
    dst = _pick(ws.instances, args.to, "instance")
    ts = enumerate_transforms(src, saturate(dst, args.budget))
    for t in ts:
        print(t.render())
    print(f"count: {len(ts)}")
    return 0


def cmd_query(ws: Workspace, args) -> int:
    if args.crosscheck and args.query in ws.uberqueries:
        raise UsageError(f"--crosscheck needs a query; {args.query} is an "
                         "uberquery")
    J = saturate(_pick(ws.instances, args.instance, "instance"), args.budget)
    if args.query in ws.uberqueries:
        _emit_instance(eval_uber_query(ws.uberqueries[args.query], J),
                       args.format)
        return 0
    Q = _pick(ws.queries, args.query, "query")
    direct = eval_query(Q, J).instance
    _emit_instance(direct, args.format)
    if args.crosscheck:
        report = crosscheck_migration(Q, J, args.budget, direct)
        print(f"crosscheck: {report}")
        if report != "ok":
            return 1
    return 0


def cmd_migrate(ws: Workspace, args) -> int:
    F = _pick(ws.mappings, args.mapping, "mapping")
    ip = _pick(ws.instances, args.instance, "instance")
    if args.mode == "sigma":
        moved = sigma(F, ip)
        if args.saturate:
            _emit_instance(saturate(moved, args.budget), args.format)
        else:
            gens = ", ".join(f"{n}:{s.name}"
                             for n, s in moved.generators.bindings)
            print(f"generators {gens}")
            for eq in moved.equations:
                print(f"{render_term(eq.lhs)} = {render_term(eq.rhs)}")
        return 0
    J = saturate(ip, args.budget)
    out = delta(F, J) if args.mode == "delta" else pi(F, J, args.budget)
    _emit_instance(out, args.format)
    return 0


def budget(text: str) -> Budget:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {text}")
    return Budget(critical_pairs=n, rows=n)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="catdb",
        description="Schemas, instances, queries and data migrations "
                    "presented by generators and equations.")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help, budgeted=True, formatted=False):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("file", help="workspace file (.cdb)")
        if budgeted:
            sp.add_argument("--budget", type=budget, default=DEFAULT_BUDGET,
                            metavar="N",
                            help="limit on critical pairs in completion and "
                                 "on rows per entity in saturation")
        if formatted:
            sp.add_argument("--format", choices=("ascii", "json"),
                            default="ascii")
        return sp

    command("check", "parse and check a workspace", budgeted=False)
    sp = command("complete", "complete a theory")
    sp.add_argument("--theory", required=True)
    sp = command("eq", "decide a word problem")
    sp.add_argument("--theory", required=True)
    sp.add_argument("terms", nargs=2, metavar="TERM")
    sp = command("saturate", "saturate an instance", formatted=True)
    sp.add_argument("--instance", required=True)
    sp = command("homs", "enumerate transforms")
    sp.add_argument("--from", required=True, dest="from")
    sp.add_argument("--to", required=True)
    sp = command("query", "evaluate a query", formatted=True)
    sp.add_argument("--query", required=True)
    sp.add_argument("--instance", required=True)
    sp.add_argument("--crosscheck", action="store_true")
    sp = command("migrate", "migrate an instance", formatted=True)
    sp.add_argument("--mapping", required=True)
    sp.add_argument("--instance", required=True)
    sp.add_argument("--mode", choices=("sigma", "delta", "pi"),
                    required=True)
    sp.add_argument("--saturate", action="store_true")
    return p


COMMANDS = {
    "check": cmd_check,
    "complete": cmd_complete,
    "eq": cmd_eq,
    "saturate": cmd_saturate,
    "homs": cmd_homs,
    "query": cmd_query,
    "migrate": cmd_migrate,
}


def run_cli(argv: list[str] | None = None) -> int:
    """One command, run with the cyclic collector off: the engine makes no
    reference cycles, so reference counting frees what it drops.  The
    collector's state is restored on the way out."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        ws = _load(args.file)
        return COMMANDS[args.command](ws, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:  # term walks recurse on term depth
        print("error: term depth exceeds the recursion limit "
              f"({sys.getrecursionlimit()})", file=sys.stderr)
        return 1
    except ValueError as exc:  # str() of an integer past the digit limit
        if "integer string conversion" not in str(exc):
            raise
        print("error: an integer exceeds the limit of "
              f"{sys.get_int_max_str_digits()} digits", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run_cli()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away: drop the rest of the output quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
