"""The engine names that the benchmark's tracer wraps or reads still exist.

``bench/tracer.py`` patches engine functions found by (module, qualified
name), and its post-hooks read attributes of their arguments and results.
The benchmark's own tests are a separate suite, so without this check a
name that looks dead in ``src/`` could be deleted and break only the
benchmark.  The tracer is loaded by file path; it imports only the
standard library."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from catdb.rewrite import GroundClosure
from catdb.typeside import TypeAlgebra

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()
WRAPPED = tracer.SPANS + tracer.CLOSURE + tracer.COUNTERS


def test_the_tables_are_found():
    assert len(tracer.SPANS) and len(tracer.CLOSURE) and len(tracer.COUNTERS)


@pytest.mark.parametrize("module, qualname", [(m, q) for m, q, _ in WRAPPED],
                         ids=[f"{m}.{q}" for m, q, _ in WRAPPED])
def test_each_wrapped_name_resolves(module, qualname):
    owner = importlib.import_module(module)
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_post_hooks_read_attributes_that_exist(ws, satJ):
    # rewrite.complete: rs.rules; instance.saturate: si.total_rows();
    # typeside.compile: .hypotheses; the closure init wrapper keeps the
    # closure and later reads .known
    assert len(ws.schemas["S"].entity_rs.rules) > 0
    assert satJ.total_rows() == 10
    assert len(TypeAlgebra(satJ.typealg.nulls, ()).hypotheses) == 0
    closure = GroundClosure((), ws.schemas["S"].entity_rs)
    assert len(closure.known) == 0
