"""Per-layer tracing of the engine from outside, by wrapping its functions.

Coarse entry points (parse, schema compilation, completion, saturation,
transform search, the isomorphism check, migrations, query evaluation,
rendering) record spans: name, start, end, parent span and op id.  Hot
functions only bump counters, and the ground congruence closure is timed
as one accumulated interval per outermost call, so nested closure calls
(``class_members`` calls ``representative``) are counted once.

A wrapped function can be bound under its name in several modules (cli,
migration and query all import ``saturate`` by name, and so does the
benchmark's ``workloads``); ``Tracer.install`` replaces every binding site
in every loaded module, and ``Tracer.remove`` puts the originals back.

A span's self time is its duration minus the time its child spans and the
closure intervals inside it cover.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# (module, qualified name, span name)
SPANS = (
    ("catdb.dsl", "parse_workspace", "dsl.parse"),
    ("catdb.schema", "compile_schema", "schema.compile"),
    ("catdb.rewrite", "complete", "rewrite.complete"),
    ("catdb.instance", "saturate", "instance.saturate"),
    ("catdb.instance", "enumerate_transforms", "instance.transforms"),
    ("catdb.instance", "instances_isomorphic", "instance.iso"),
    ("catdb.instance", "tables", "instance.render"),
    ("catdb.instance", "tables_json", "instance.render"),
    ("catdb.instance", "render_tables", "instance.render"),
    ("catdb.instance", "Transform.render", "instance.render"),
    ("catdb.typeside", "TypeAlgebra.__init__", "typeside.compile"),
    ("catdb.migration", "sigma", "migration.sigma"),
    ("catdb.migration", "pi", "migration.pi"),
    ("catdb.migration", "delta", "migration.delta"),
    ("catdb.query", "eval_query", "query.eval"),
    ("catdb.query", "eval_uber_query", "query.eval"),
    ("catdb.query", "crosscheck_migration", "query.crosscheck"),
)

# timed as one interval per outermost call, and counted
CLOSURE = (
    ("catdb.rewrite", "GroundClosure.__init__", "rewrite.closure.init"),
    ("catdb.rewrite", "GroundClosure.representative",
     "rewrite.closure.representative"),
    ("catdb.rewrite", "GroundClosure.class_members",
     "rewrite.closure.class_members"),
    ("catdb.rewrite", "GroundClosure.same", "rewrite.closure.same"),
)

# counted only
COUNTERS = (
    ("catdb.rewrite", "normalize", "rewrite.normalize"),
    ("catdb.typeside", "TypeAlgebra.simplify", "typeside.simplify"),
    ("catdb.typeside", "decide_values", "typeside.decide"),
    ("catdb.instance", "SaturatedInstance.eval_entity", "instance.eval"),
    ("catdb.instance", "SaturatedInstance.eval_type", "instance.eval"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op_id]
        self.covered: list[float] = []  # per span: time covered by children
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.closure_s = 0.0
        self.closure_depth = 0
        self.closures: list = []  # GroundClosure objects built in this op
        self.closure_terms = 0
        self.op_id = -1
        self._sites: list | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op_id])
        self.covered.append(0.0)
        self.stack.append(i)
        return i

    def close(self, i: int) -> None:
        end = perf_counter()
        span = self.spans[i]
        span[2] = end
        self.stack.pop()
        if span[3] is not None:
            self.covered[span[3]] += end - span[1]

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n
        if self.stack:
            self.counts[name, self.spans[self.stack[-1]][0]] += n

    def begin_op(self, op_id: int, kind: str) -> int:
        self.op_id = op_id
        self.closures = []
        return self.open(f"op.{kind}")

    def end_op(self, i: int) -> None:
        self.close(i)
        self.closure_terms += sum(len(cl.known) for cl in self.closures)
        self.closures = []

    def self_times(self) -> Counter:
        out: Counter = Counter()
        for (name, start, end, _, _), cov in zip(self.spans, self.covered):
            out[name] += (end - start) - cov
        return out

    def dump(self, path) -> None:
        """Write the spans, in memory until now, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, name):
        post = _POST.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if post:
                post(self, args, out)
            return out
        return wrapper

    def _closure(self, fn, name):
        is_init = name.endswith(".init")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.closure_depth:
                return fn(*args, **kwargs)
            self.counts[name] += 1
            self.closure_depth = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                self.closure_depth = 0
                self.closure_s += dt
                if self.stack:
                    self.covered[self.stack[-1]] += dt
                if is_init:
                    self.closures.append(args[0])
        return wrapper

    def _counter(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        if self._sites is None:
            self._sites = self._binding_sites()
        for wrapped, places in self._sites:
            for owner, attr in places:
                self._patch(owner, attr, wrapped)

    def _binding_sites(self) -> list:
        """Each wrapper with the places that bind its original: the class
        of a method; for a module-level function, every loaded module that
        binds it, the benchmark's own modules included."""
        modules = [m for m in list(sys.modules.values()) if m is not None]
        sites = []
        for table, make in ((SPANS, self._span), (CLOSURE, self._closure),
                            (COUNTERS, self._counter)):
            for module, qualname, name in table:
                owner = sys.modules[module]
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                if path:
                    places = [(owner, attr)]
                else:
                    places = [(mod, key) for mod in modules
                              for key, value in list(vars(mod).items())
                              if value is original]
                sites.append((make(original, name), places))
        return sites

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def _after_complete(tr: Tracer, args, rs) -> None:
    tr.count("rewrite.rules_out", len(rs.rules))


def _after_saturate(tr: Tracer, args, si) -> None:
    tr.count("instance.rows_out", si.total_rows())


def _after_transforms(tr: Tracer, args, found) -> None:
    tr.count("instance.transforms_found", len(found))


def _after_typealg(tr: Tracer, args, _) -> None:
    tr.count("typeside.hypotheses", len(args[0].hypotheses))


_POST = {
    "rewrite.complete": _after_complete,
    "instance.saturate": _after_saturate,
    "instance.transforms": _after_transforms,
    "typeside.compile": _after_typealg,
}
