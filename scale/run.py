"""Scale ladder: whole `catdb` commands on generated workspaces.

    python3 scale/run.py [--sizes 192 1920] [--repeat K] [--out BENCH_scale.json]

Run from anywhere; the engine is imported from ``src/`` of this checkout.
Each workspace is ``bench/gen.py``'s company with N employees and N//5
departments, ``make_company(random.Random(1), N, N//5)``: *ground*, or
*nulls* with ``null_share=0.25, salaries=(300, 600)``.  On each, seven
commands run as subprocesses: ``check``, which parses and checks the
workspace and saturates nothing, so it times the parse on its own; then,
with ``--budget 100000``, ``saturate W --format json``, ``homs W W``,
``query Q --crosscheck``, ``query N --format json``, ``migrate G --mode
pi`` and ``migrate H --mode sigma --saturate``.  Seconds are wall clock
including interpreter start-up, and peak RSS is the child's
``ru_maxrss``.  With ``--repeat K`` each command runs K times, in K
rounds that each run every command on the workspace once, so that the
machine's drift falls on all commands alike; a command's seconds are the
median of its K runs and its peak RSS the largest.  K defaults to 1, one
run each.  The exponent per decade is the log-log slope of seconds
against N between consecutive sizes.  Workspaces go to
a temporary directory, and nothing is written under ``bench/``.  A
command that exits non-zero fails the run.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHAPES = {"ground": {}, "nulls": {"null_share": 0.25, "salaries": (300, 600)}}
BUDGET = ["--budget", "100000"]
COMMANDS = {
    "check": ["check", "{file}"],
    "saturate": ["saturate", "{file}", "--instance", "W", "--format", "json",
                 *BUDGET],
    "homs": ["homs", "{file}", "--from", "W", "--to", "W", *BUDGET],
    "query_crosscheck": ["query", "{file}", "--query", "Q", "--instance", "W",
                         "--crosscheck", *BUDGET],
    "query_n": ["query", "{file}", "--query", "N", "--instance", "W",
                "--format", "json", *BUDGET],
    "migrate_pi": ["migrate", "{file}", "--mapping", "G", "--instance", "W",
                   "--mode", "pi", *BUDGET],
    "migrate_sigma": ["migrate", "{file}", "--mapping", "H", "--instance", "W",
                      "--mode", "sigma", "--saturate", *BUDGET],
}


def load_gen():
    """``bench/gen.py``, loaded by path without writing its bytecode."""
    spec = importlib.util.spec_from_file_location(
        "scale_bench_gen", ROOT / "bench" / "gen.py")
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(gen)
    finally:
        sys.dont_write_bytecode = dont_write
    return gen


def run_command(argv: list[str]) -> tuple[float, float, int, str]:
    """Seconds, peak RSS in MB, exit code and standard error of one
    `catdb` subprocess."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "catdb.cli", *argv],
            stdout=subprocess.DEVNULL, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return seconds, usage.ru_maxrss / 1024, proc.returncode, stderr


def summary(samples: list[tuple[float, float]]) -> tuple[float, float]:
    """The median seconds and the largest peak RSS of (seconds, peak RSS)
    samples of one command."""
    return (statistics.median(s for s, _ in samples),
            max(rss for _, rss in samples))


def measure(sizes: list[int], repeat: int) -> dict:
    gen = load_gen()
    paper = (ROOT / "fixtures" / "paper.cdb").read_text(encoding="utf-8")
    runs, failures = [], []
    with tempfile.TemporaryDirectory() as work:
        for shape, kw in SHAPES.items():
            for n in sizes:
                company = gen.make_company(random.Random(1), n, n // 5, **kw)
                path = Path(work) / f"{shape}{n}.cdb"
                path.write_text(gen.workspace_text(paper, company),
                                encoding="utf-8")
                samples: dict[str, list] = {name: [] for name in COMMANDS}
                for _ in range(repeat):
                    for name, argv in COMMANDS.items():
                        argv = [a.replace("{file}", str(path)) for a in argv]
                        seconds, rss, code, stderr = run_command(argv)
                        if code != 0:
                            failures.append(f"{name} {shape} {n}: exit "
                                            f"{code}: {stderr.strip()}")
                        samples[name].append((seconds, rss))
                for name, got in samples.items():
                    seconds, rss = summary(got)
                    runs.append({"command": name, "shape": shape, "n": n,
                                 "rows": company.rows,
                                 "seconds": round(seconds, 4),
                                 "peak_rss_mb": round(rss, 1)})
    return {"python": platform.python_version(), "sizes": sizes,
            "budget": int(BUDGET[1]), "repeat": repeat, "runs": runs,
            "exponent_per_decade": exponents(runs), "failures": failures}


def exponents(runs: list[dict]) -> dict[str, list[float]]:
    """Per command and shape, the log-log slope of seconds against N
    between each pair of consecutive sizes."""
    out: dict[str, list[float]] = {}
    for name in COMMANDS:
        for shape in SHAPES:
            ladder = [r for r in runs
                      if r["command"] == name and r["shape"] == shape]
            out[f"{name}/{shape}"] = [
                round(math.log(b["seconds"] / a["seconds"])
                      / math.log(b["n"] / a["n"]), 3)
                for a, b in zip(ladder, ladder[1:])]
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sizes", type=int, nargs="+", default=[192, 1920])
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--out", default="BENCH_scale.json")
    args = p.parse_args(argv)
    if any(n < 5 for n in args.sizes):
        p.error("sizes must be at least 5")
    if args.repeat < 1:
        p.error("repeat must be at least 1")
    report = measure(sorted(set(args.sizes)), args.repeat)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n",
                              encoding="utf-8")
    for r in report["runs"]:
        print(f"{r['command']:17} {r['shape']:6} {r['n']:6} "
              f"{r['seconds']:8.3f} s {r['peak_rss_mb']:7.1f} MB")
    for failure in report["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if report["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
