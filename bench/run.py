"""catdb benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload saturate|query|migrate --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from
``src/``.  Before timing, the run checks the README's hand-written query
table and byte-identical output under two ``PYTHONHASHSEED`` values.
Every timed op is checked against the oracle in ``oracle.py``.

Op times are reported in "ref", multiples of the time of a fixed
reference routine (``reference.py``) run next to each op, because the
speed of a shared machine drifts by up to a factor of two within a
minute; raw seconds are printed on the lines before the result.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced cycles of the same ops, prints the per-layer metrics
of the traced cycles plus the tracing overhead, and writes the spans to
``.bench_work/``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from reference import CHECKSUM, reference

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = (ROOT / "src" / "catdb", ROOT / "fixtures" / "paper.cdb",
            ROOT / "README.md")

# A run repeats whole cycles of its workload's ops until --seconds have
# passed and at least MIN_CYCLES cycles are done.  With more than ten
# cycles, the ten samples beyond the reported tail percentile all belong
# to the slowest op kind, so a faster engine (more cycles) cannot move the
# tail onto a slower op kind.
MIN_CYCLES = 11
# set-up is repeated at least SETUP_REPEATS times and until it has taken
# SETUP_MIN_S in all (at most SETUP_MAX_REPEATS times); setup_s is the median
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 25
TAIL_BEYOND = 10
HARD_LIMIT_S = 150  # stop timing early rather than overrun the 180 s limit

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_p50_ref", "ref", "lower"),
    ("op_tail_ref", "ref", "lower"),
    ("ops_per_kref", "1/kref", "higher"),
    ("rows_per_kref", "rows/kref", "higher"),
    ("scaling_exp", "log/log", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("rewrite.closure_s", "s/op", "lower"),
    ("rewrite.closure.representative_calls", "1/op", "lower"),
    ("rewrite.closure.class_members_calls", "1/op", "lower"),
    ("rewrite.closure.terms_per_row", "1/row", "lower"),
    ("rewrite.normalize_calls_per_row", "1/row", "lower"),
    ("rewrite.complete_s", "s/op", "lower"),
    ("rewrite.rules_out", "1/op", "lower"),
    ("dsl.parse_s", "s/op", "lower"),
    ("schema.compile_s", "s/op", "lower"),
    ("instance.saturate_s", "s/op", "lower"),
    ("instance.rows_out", "1/op", "higher"),
    ("instance.transforms_s", "s/op", "lower"),
    ("instance.transforms_found", "1/op", "higher"),
    ("instance.evals_per_transform", "1/transform", "lower"),
    ("instance.iso_s", "s/op", "lower"),
    ("instance.render_s", "s/op", "lower"),
    ("typeside.compile_s", "s/op", "lower"),
    ("typeside.hypotheses", "1/op", "lower"),
    ("typeside.simplify_calls", "1/op", "lower"),
    ("typeside.decide_calls", "1/op", "lower"),
    ("migration.sigma_s", "s/op", "lower"),
    ("migration.pi_s", "s/op", "lower"),
    ("migration.delta_s", "s/op", "lower"),
    ("query.eval_s", "s/op", "lower"),
    ("query.crosscheck_s", "s/op", "lower"),
    ("trace.other_s", "s/op", "lower"),
    ("trace.op_s", "s/op", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

# per-layer self times, by span name
SELF_TIMES = {
    "rewrite.complete_s": "rewrite.complete",
    "dsl.parse_s": "dsl.parse",
    "schema.compile_s": "schema.compile",
    "instance.saturate_s": "instance.saturate",
    "instance.transforms_s": "instance.transforms",
    "instance.iso_s": "instance.iso",
    "instance.render_s": "instance.render",
    "typeside.compile_s": "typeside.compile",
    "migration.sigma_s": "migration.sigma",
    "migration.pi_s": "migration.pi",
    "migration.delta_s": "migration.delta",
    "query.eval_s": "query.eval",
    "query.crosscheck_s": "query.crosscheck",
}

# per-layer counts per op, by counter name
PER_OP_COUNTS = {
    "rewrite.closure.representative_calls": "rewrite.closure.representative",
    "rewrite.closure.class_members_calls": "rewrite.closure.class_members",
    "rewrite.rules_out": "rewrite.rules_out",
    "instance.rows_out": "instance.rows_out",
    "instance.transforms_found": "instance.transforms_found",
    "typeside.hypotheses": "typeside.hypotheses",
    "typeside.simplify_calls": "typeside.simplify",
    "typeside.decide_calls": "typeside.decide",
}


def log(msg: str) -> None:
    print(msg, flush=True)


# -- checks before timing --------------------------------------------------


def readme_table(text: str) -> list[list[str]]:
    """The hand-written result of ``catdb query ... --query Q --instance J``
    in the README, as rows of stripped cells."""
    lines = text.splitlines()
    start = next(i for i, l in enumerate(lines)
                 if l.startswith("$ catdb query fixtures/paper.cdb")
                 and "--query Q --instance J" in l)
    rows = []
    for line in lines[start + 1:]:
        if not line.strip() or line.startswith("```"):
            break
        rows.append([c.strip() for c in line.split("|")])
    return rows


def check_readme() -> bool:
    from workloads import run_command
    want = readme_table((ROOT / "README.md").read_text(encoding="utf-8"))
    code, out = run_command(["query", str(ROOT / "fixtures" / "paper.cdb"),
                             "--query", "Q",
                             "--instance", "J"])
    got = [[c.strip() for c in line.split("|")]
           for line in out.split("\n\n")[0].splitlines()]
    return code == 0 and bool(want) and got == want


HASHSEED_CHILD = ("import sys; from catdb.cli import run_cli; "
                  "sys.exit(run_cli(sys.argv[1:]))")


def check_hashseeds(argv: list[str]) -> bool:
    """Run one op as a catdb command in two processes with different
    PYTHONHASHSEED values; their outputs must be byte-identical."""
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", HASHSEED_CHILD, *argv],
                              cwd=ROOT, env=env, capture_output=True,
                              timeout=120)
        if proc.returncode != 0:
            return False
        outs.append(proc.stdout)
    return outs[0] == outs[1] and bool(outs[0])


# -- timing ----------------------------------------------------------------


class Sample(NamedTuple):
    op: object
    seconds: float
    correct: bool
    rows: int
    phase: str  # "warmup", "timed" or "traced"
    ref_s: float = math.nan  # reference routine's time next to the op

    @property
    def cost(self) -> float:
        """The op's time in ref units."""
        return self.seconds / self.ref_s


def time_reference() -> float:
    start = perf_counter()
    if reference() != CHECKSUM:
        raise RuntimeError("the reference routine computed a wrong result")
    return perf_counter() - start


def run_op(op, phase: str, tracer, op_id: int) -> Sample:
    """Time one op and check its output."""
    span = tracer.begin_op(op_id, op.kind) if tracer else None
    start = perf_counter()
    try:
        out = op.run()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return Sample(op, perf_counter() - start, False, 0, phase)
    finally:
        if tracer:
            tracer.end_op(span)
    dt = perf_counter() - start
    try:
        ok, rows = op.check(out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok, rows = False, 0
    return Sample(op, dt, ok, rows, phase)


def measure(ops, seconds: float, deadline: float, tracer=None) -> list:
    """One untimed warm-up cycle, then a closed loop over whole cycles of
    ``ops``.  With a tracer, odd cycles are traced and the loop ends on a
    traced cycle.  The reference routine runs before every op and once
    after the last; each sample's ``ref_s`` is the mean of the two runs
    around it."""
    refs: list[float] = []
    samples = []
    for op in ops:
        refs.append(time_reference())
        samples.append(run_op(op, "warmup", None, -1))
    start = perf_counter()
    cycle = 0
    while True:
        traced = tracer is not None and cycle % 2 == 1
        if traced:
            tracer.install()
        try:
            for op in ops:
                refs.append(time_reference())
                samples.append(run_op(op, "traced" if traced else "timed",
                                      tracer if traced else None,
                                      len(samples)))
        finally:
            if traced:
                tracer.remove()
        cycle += 1
        now = perf_counter()
        if tracer is not None and cycle % 2:
            continue
        if now >= deadline:
            log(f"stopped at the hard limit after {cycle} cycles")
            break
        if now - start >= seconds and cycle >= MIN_CYCLES:
            break
    refs.append(time_reference())
    return [x._replace(ref_s=(refs[i] + refs[i + 1]) / 2)
            for i, x in enumerate(samples)]


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it
    (nearest rank), as (value, percentile, n); the maximum when the sample
    is too small."""
    xs = sorted(times)
    n = len(xs)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return xs[rank - 1], 100.0 * rank / n, n


def scaling_exponent(samples) -> float:
    """Least-squares slope of log(median op cost) against log(input rows)
    across the workload's ladder."""
    by_rows: dict[int, list[float]] = {}
    for x in samples:
        by_rows.setdefault(x.op.rows_in, []).append(x.cost)
    pts = [(math.log(r), math.log(statistics.median(ts)))
           for r, ts in sorted(by_rows.items())]
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return (sum((x - mx) * (y - my) for x, y in pts)
            / sum((x - mx) ** 2 for x, _ in pts))


def end_to_end(samples, setup_s: float) -> dict[str, float]:
    costs = [x.cost for x in samples]
    total = sum(costs) / 1000  # in kref
    value, pct, n = tail(costs)
    log(f"op_tail_ref is p{pct:.1f} of n={n} ops")
    return {
        "setup_s": setup_s,
        "op_p50_ref": statistics.median(costs),
        "op_tail_ref": value,
        "ops_per_kref": len(costs) / total,
        "rows_per_kref": sum(x.rows for x in samples) / total,
        "scaling_exp": scaling_exponent(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def per_layer(tracer, traced, untraced) -> dict[str, float]:
    n_ops = len(traced)
    rows = sum(x.rows for x in traced) or 1
    op_s = sum(x.seconds for x in traced)
    self_s = tracer.self_times()
    counts = tracer.counts
    out = {"rewrite.closure_s": tracer.closure_s / n_ops}
    for metric, span in SELF_TIMES.items():
        out[metric] = self_s[span] / n_ops
    for metric, counter in PER_OP_COUNTS.items():
        out[metric] = counts[counter] / n_ops
    out["rewrite.closure.terms_per_row"] = tracer.closure_terms / rows
    out["rewrite.normalize_calls_per_row"] = counts["rewrite.normalize"] / rows
    found = counts["instance.transforms_found"]
    evals = counts["instance.eval", "instance.transforms"]
    out["instance.evals_per_transform"] = evals / found if found else 0.0
    out["trace.other_s"] = sum(v for k, v in self_s.items()
                               if k.startswith("op.")) / n_ops
    out["trace.op_s"] = op_s / n_ops
    out["trace.overhead"] = op_s / sum(x.seconds for x in untraced)
    return {name: out[name] for name, _, _ in PER_LAYER}


# -- main ------------------------------------------------------------------


def main(argv=None) -> int:
    t0 = perf_counter()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("saturate", "query", "migrate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    missing = [str(m.relative_to(ROOT)) for m in REQUIRED if not m.exists()]
    if missing:
        print(f"error: not a catdb source checkout, missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import Tracer
    from workloads import SETUPS

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    paper = (ROOT / "fixtures" / "paper.cdb").read_text(encoding="utf-8")

    readme_ok = check_readme()
    setups = []
    while len(setups) < SETUP_REPEATS or (
            sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS):
        start = perf_counter()
        wl = SETUPS[args.workload](args.seed, paper, work)
        setups.append(perf_counter() - start)
    hashseed_ok = check_hashseeds(wl.hashseed_argv)
    log(f"check README query table: {'ok' if readme_ok else 'MISMATCH'}")
    log(f"check PYTHONHASHSEED 0 vs 1 on `catdb {' '.join(wl.hashseed_argv)}`"
        f": {'byte-identical' if hashseed_ok else 'DIFFERENT'}")

    tracer = Tracer() if args.trace else None
    samples = measure(wl.ops, args.seconds, t0 + HARD_LIMIT_S, tracer)

    failed = sum(1 for x in samples if not x.correct)
    log(f"{args.workload} seed {args.seed}: {len(samples)} ops checked, "
        f"{failed} failed, fail_ratio {failed / len(samples):.4f}")
    timed = [x for x in samples if x.phase == "timed"]
    for op in wl.ops:
        mine = [x for x in timed if x.op is op]
        log(f"  {op.kind:<14} n={len(mine):<4} median "
            f"{statistics.median(x.seconds for x in mine):.4f} s, "
            f"{statistics.median(x.cost for x in mine):.2f} ref")
    ref_ms = 1000 * statistics.median(x.ref_s for x in timed)
    log(f"1 ref = the reference routine's time, median {ref_ms:.3f} ms; "
        f"op_p50 {statistics.median(x.seconds for x in timed):.4f} s")
    if tracer:
        traced = [x for x in samples if x.phase == "traced"]
        values = per_layer(tracer, traced, timed)
        tracer.dump(work / "spans.jsonl")
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        values = end_to_end(timed, statistics.median(setups))
        units = {n: u for n, u, _ in END_TO_END}
    correct = readme_ok and hashseed_ok and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
