"""Smoke test of the scale ladder ``scale/run.py`` at its smallest size."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scale" / "run.py"


def _listing(d: Path) -> list[str]:
    return sorted(str(p.relative_to(d)) for p in d.rglob("*"))


def test_ladder_at_192_writes_its_report(tmp_path):
    out = tmp_path / "BENCH_scale.json"
    before = _listing(ROOT / "bench")
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--sizes", "192", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert _listing(ROOT / "bench") == before
    report = json.loads(out.read_text())
    assert report["failures"] == []
    runs = report["runs"]
    assert {(r["command"], r["shape"]) for r in runs} == {
        (c, s) for c in ("check", "saturate", "homs", "query_crosscheck",
                         "query_n", "migrate_pi", "migrate_sigma")
        for s in ("ground", "nulls")}
    assert all(r["n"] == 192 and r["rows"] == 230 and r["seconds"] > 0
               and r["peak_rss_mb"] > 0 for r in runs)
    assert report["repeat"] == 1
    slopes = report["exponent_per_decade"]
    assert len(slopes) == 14 and all(v == [] for v in slopes.values())


def _scale_module():
    spec = importlib.util.spec_from_file_location("scale_run", SCRIPT)
    scale = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scale)
    return scale


def test_exponent_per_decade():
    scale = _scale_module()
    runs = [{"command": "saturate", "shape": "ground", "n": n, "seconds": s}
            for n, s in ((192, 0.5), (1920, 5.0), (19200, 20.0))]
    assert scale.exponents(runs)["saturate/ground"] == [1.0, 0.602]
    assert scale.exponents(runs)["homs/nulls"] == []


def test_repeated_runs_report_the_median_seconds_and_the_largest_rss():
    summary = _scale_module().summary
    assert summary([(2.0, 90.0)]) == (2.0, 90.0)
    # a slow outlier does not move the median
    assert summary([(1.5, 80.0), (9.0, 70.0), (1.0, 95.0)]) == (1.5, 95.0)
    assert summary([(4.0, 10.0), (1.0, 30.0), (3.0, 20.0), (2.0, 5.0)]) \
        == (2.5, 30.0)
