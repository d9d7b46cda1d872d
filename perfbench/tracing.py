"""Spans around tvermat's layer entry points, installed from outside the package.

``Tracer.install()`` replaces each entry point in ENTRY_POINTS at every module
binding that holds it: ``from .x import f`` copies the function into the
importer's namespace, so wrapping only the defining module would miss calls
made through the copy (``tvermat.cli.as_complex`` and
``tvermat.complexes.as_complex`` are two bindings).  Matroid oracles are
wrapped at class level (each class's own ``_indep``).  Oracle calls are too
many to keep as spans; each adds its count and time to the enclosing span.

A span keeps its name, layer, parent id, start and end, the time covered by
its children (child spans and oracle calls), and a few numbers taken from its
result.  Self time is duration minus child time.  Spans live in memory until
``summary`` folds them into per-layer metrics.
"""

import inspect
import json
import sys
import time
from functools import wraps

# (module, attribute, layer).  Generator functions are timed per resumption.
ENTRY_POINTS = (
    ("tvermat.packing", "max_disjoint_bases", "packing"),
    ("tvermat.packing", "pack_k_bases", "packing"),
    ("tvermat.packing", "pack_into_independent", "packing"),
    ("tvermat.complexes", "as_complex", "complexes"),
    ("tvermat.complexes", "chessboard", "complexes"),
    ("tvermat.complexes", "matroid_deleted_join", "complexes"),
    ("tvermat.homology", "boundary_matrix", "homology.boundary"),
    ("tvermat.homology", "betti_reduced", "homology.betti"),
    ("tvermat.lp", "hulls_intersect", "lp"),
    ("tvermat.tverberg", "enumerate_faces", "tverberg.faces"),
    ("tvermat.tverberg", "find_tverberg", "tverberg.search"),
    ("tvermat.formats", "read_matroid", "formats.read"),
    ("tvermat.formats", "read_points", "formats.read"),
    ("tvermat.formats", "read_faces", "formats.read"),
    ("tvermat.formats", "render_report", "formats.render"),
)


class Span:
    __slots__ = ("id", "parent", "name", "layer", "start", "end", "child_s",
                 "oracle_calls", "oracle_s", "result")

    def __init__(self, sid, parent, name, layer, start):
        self.id = sid
        self.parent = parent
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.oracle_calls = 0
        self.oracle_s = 0.0
        self.result = None

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {key: getattr(self, key) for key in self.__slots__}


def _result_numbers(name, res):
    """The work counts a span reports, read off its return value."""
    if name == "max_disjoint_bases":
        return {"packed": sum(len(B) for B in res[1].bases)}
    if name in ("pack_k_bases", "pack_into_independent"):
        bases = res if isinstance(res, list) else getattr(res, "bases", ())
        return {"packed": sum(len(B) for B in bases)}
    if name in ("as_complex", "chessboard", "matroid_deleted_join"):
        return {"faces": res.num_faces()}
    if name == "boundary_matrix":
        return {"nnz": sum(len(col) for col in res.cols)}
    if name == "hulls_intersect":
        return {"hit": res is not None}
    if name == "find_tverberg":
        return {"tuples": res.tuples_examined}
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self._in_oracle = False
        self._undo = []

    # -- recording ---------------------------------------------------------------

    def open(self, name, layer):
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), parent, name, layer, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child_s += span.duration

    def call(self, name, layer, fn, *args, **kwargs):
        span = self.open(name, layer)
        try:
            res = fn(*args, **kwargs)
            span.result = _result_numbers(name, res)
            return res
        finally:
            self.close(span)

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, fn, name, layer):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, layer, fn, *args, **kwargs)

        return wrapper

    def _wrap_generator(self, fn, name, layer):
        """One span per generator; only the time inside resumptions counts,
        and each resumption is a child interval of the span consuming it."""
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            span = None
            yielded = 0
            active = 0.0
            try:
                while True:
                    t0 = time.perf_counter()
                    if span is None:
                        span = tracer.open(name, layer)
                        t0 = span.start
                    else:
                        tracer.stack.append(span)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dt = time.perf_counter() - t0
                        active += dt
                        tracer.stack.pop()
                        if tracer.stack:
                            tracer.stack[-1].child_s += dt
                    yielded += 1
                    yield item
            finally:
                if span is not None:
                    span.end = span.start + active
                    span.result = {"yielded": yielded}

        return wrapper

    def _wrap_oracle(self, fn):
        tracer = self

        @wraps(fn)
        def _indep(matroid, ids):
            if tracer._in_oracle:  # minors delegate to their parent's oracle
                return fn(matroid, ids)
            tracer._in_oracle = True
            t0 = time.perf_counter()
            try:
                return fn(matroid, ids)
            finally:
                dt = time.perf_counter() - t0
                tracer._in_oracle = False
                if tracer.stack:
                    span = tracer.stack[-1]
                    span.oracle_calls += 1
                    span.oracle_s += dt
                    span.child_s += dt

        return _indep

    def install(self):
        import tvermat.matroids

        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "tvermat" or name.startswith("tvermat.")) and m]
        for modname, attr, layer in ENTRY_POINTS:
            orig = getattr(sys.modules[modname], attr)
            if inspect.isgeneratorfunction(orig):
                wrapped = self._wrap_generator(orig, attr, layer)
            else:
                wrapped = self._wrap(orig, attr, layer)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))
        base = tvermat.matroids.Matroid
        for cls in vars(tvermat.matroids).values():
            if isinstance(cls, type) and issubclass(cls, base) and "_indep" in vars(cls):
                orig = vars(cls)["_indep"]
                setattr(cls, "_indep", self._wrap_oracle(orig))
                self._undo.append((cls, "_indep", orig))

    def uninstall(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def reset(self):
        self.spans = []
        self.stack = []

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")

    # -- per-layer metrics -------------------------------------------------------

    def summary(self):
        """Per-layer metrics over every span recorded since the last reset.

        ``_self_s`` names are self times; the other ``_s`` names sum the full
        durations of the outermost spans of their layer.
        """
        by_id = {s.id: s for s in self.spans}

        def outermost(span):
            parent = by_id.get(span.parent)
            return parent is None or parent.layer != span.layer

        def num(span, key):
            return (span.result or {}).get(key, 0)

        layer = {}
        for s in self.spans:
            layer.setdefault(s.layer, []).append(s)

        def spans(*names):
            return [s for name in names for s in layer.get(name, ())]

        def self_s(*names):
            return sum(s.duration - s.child_s for s in spans(*names))

        def inclusive_s(*names):
            return sum(s.duration for s in spans(*names) if outermost(s))

        packing = spans("packing")
        packed = sum(num(s, "packed") for s in packing if outermost(s))
        packing_calls = sum(s.oracle_calls for s in packing)
        lp = spans("lp")
        search_ids = {s.id for s in spans("tverberg.search")}
        search_lp = sum(1 for s in lp if s.parent in search_ids)
        tuples = sum(num(s, "tuples") for s in spans("tverberg.search"))
        return {
            "matroids.indep_calls": sum(s.oracle_calls for s in self.spans),
            "matroids.indep_s": sum(s.oracle_s for s in self.spans),
            "packing.self_s": self_s("packing"),
            "packing.k_steps": sum(1 for s in packing if s.name == "pack_k_bases"),
            "packing.indep_calls_per_packed_element":
                packing_calls / packed if packed else 0.0,
            "complexes.build_s": inclusive_s("complexes"),
            "complexes.faces": sum(num(s, "faces") for s in spans("complexes")
                                   if outermost(s)),
            "homology.boundary_s": inclusive_s("homology.boundary"),
            "homology.boundary_nnz": sum(num(s, "nnz") for s in spans("homology.boundary")),
            "homology.betti_self_s": self_s("homology.betti"),
            "homology.betti_calls": len(spans("homology.betti")),
            "lp.calls": len(lp),
            "lp.s": inclusive_s("lp"),
            "lp.hit_ratio": sum(num(s, "hit") for s in lp) / len(lp) if lp else 0.0,
            "tverberg.enumerate_faces_s": inclusive_s("tverberg.faces"),
            "tverberg.faces_enumerated": sum(num(s, "yielded")
                                             for s in spans("tverberg.faces")),
            "tverberg.search_self_s": self_s("tverberg.search"),
            "tverberg.tuples_examined": tuples,
            "tverberg.tuples_per_lp_call": tuples / search_lp if search_lp else float(tuples),
            "formats.read_s": inclusive_s("formats.read"),
            "formats.render_s": inclusive_s("formats.render"),
            "cli.self_s": self_s("cli"),
        }
