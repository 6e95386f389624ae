"""Span recorder and the wrappers that attach it to fsprim from outside.

Nothing in ``src/`` knows about tracing.  ``install`` replaces public
functions and methods with wrappers that record spans, and the per-layer
metrics are computed from those spans when the sample ends.  Tracing is only
installed in traced samples; end-to-end metrics come from untraced ones.

A span is ``(span_id, parent_id, name, start, end)``.  Span 0 is the sample
itself (first call into fsprim to last return), so every other span has a
parent.  All spans of one sample share the recorder's ``trace_id``.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import sys
import time
from collections import Counter, defaultdict

# Layer spans whose self time is reported as "<name>.s".
SPAN_LAYERS = (
    "finsetcat.enumerate_hom",
    "fsfilt.hom_perm",
    "fsfilt.operator_build",
    "fsfilt.restricted_char",
    "fsfilt.closure",
    "ratlinalg.elim",
    "ratlinalg.matmul",
    "ratlinalg.build",
    "ratlinalg.membership",
    "repdecomp.class_algebra",
    "repdecomp.character_table",
)

# Cached functions whose cache_info() is read at the end of every sample.
CACHED = (
    ("finsetcat", "enumerate_hom"),
    ("fsfilt", "hom_module"),
    ("fsfilt", "theta_matrix"),
    ("fsfilt", "filtration_level"),
    ("fsfilt", "level_bicharacter"),
)


class Recorder:
    """Spans and counters of one traced sample, kept in memory."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.eliminations: list[tuple[int, int, int, str]] = []
        self._stack = [0]
        self._ids = itertools.count(1)

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records one span called ``name``."""
        spans, stack, ids, clock = (self.spans, self._stack, self._ids,
                                    time.perf_counter)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, stack[-1], name, start, end))
        return wrapper

    def self_times(self, sample_seconds: float) -> dict[str, float]:
        """Self time per span name; "sample" is time outside every layer."""
        covered: defaultdict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            covered[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            out[name] += end - start - covered[sid]
        out["sample"] = sample_seconds - covered[0]
        return out

    def layer_metrics(self, sample_seconds: float) -> dict[str, float]:
        selfs = self.self_times(sample_seconds)
        calls = Counter(name for _, _, name, _, _ in self.spans)
        elims = self.eliminations
        out = {f"{name}.s": selfs.get(name, 0.0) for name in SPAN_LAYERS}
        out.update({
            "finsetcat.enumerate_hom.maps": self.counts["enumerate_hom.maps"],
            "finsetcat.compose.calls": self.counts["compose"],
            "finsetcat.finmap.count": self.counts["finmap"],
            "fsfilt.hom_perm.calls": calls["fsfilt.hom_perm"],
            "fsfilt.restricted_char.calls": calls["fsfilt.restricted_char"],
            "ratlinalg.elim.count": len(elims),
            "ratlinalg.elim.entries": sum(r * c for r, c, _, _ in elims),
            "ratlinalg.elim.nnz": sum(nnz for _, _, nnz, _ in elims),
            "ratlinalg.elim.max_cols": max((c for _, c, _, _ in elims),
                                           default=0),
            # Distinct RREF results per elimination; 0 when there are none.
            "ratlinalg.elim.distinct_ratio":
                len({d for *_, d in elims}) / len(elims) if elims else 0.0,
            "ratlinalg.matmul.count": calls["ratlinalg.matmul"],
            "ratlinalg.membership.count": calls["ratlinalg.membership"],
            "ratlinalg.membership.found_ratio":
                self.counts["membership.found"] / calls["ratlinalg.membership"]
                if calls["ratlinalg.membership"] else 0.0,
            "repdecomp.class_algebra.calls": calls["repdecomp.class_algebra"],
            "other.self.s": selfs["sample"],
            "trace.bookkeeping.s": selfs.get("trace.bookkeeping", 0.0),
            "trace.spans.count": len(self.spans),
        })
        return out

    def dump(self) -> dict:
        return {"trace_id": self.trace_id,
                "fields": ["span_id", "parent_id", "name", "start", "end"],
                "spans": self.spans}


def _rref_digest(result) -> str:
    """Content hash of an RREF, so equal eliminations can be counted once."""
    red, pivots = result
    rows = red.dm.rep.to_sdm()
    content = sorted((i, sorted((j, int(v.numerator), int(v.denominator))
                                for j, v in row.items()))
                     for i, row in rows.items())
    return hashlib.sha256(
        repr((red.rows, red.cols, pivots, content)).encode()).hexdigest()


def _rebind(old, new) -> None:
    """Point every fsprim module-level name bound to ``old`` at ``new``.

    fsfilt, verify and repdecomp import functions by name, so replacing the
    defining module's attribute alone would miss their calls.
    """
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "fsprim" or mod_name.startswith("fsprim."):
            for key, value in list(vars(module).items()):
                if value is old:
                    setattr(module, key, new)


def install(rec: Recorder) -> None:
    """Wrap fsprim's layer boundaries so that they record into ``rec``."""
    from fsprim import finsetcat, fsfilt, ratlinalg, repdecomp
    from fsprim.finsetcat import FinMap
    from fsprim.fsfilt import HomModule
    from fsprim.ratlinalg import RatMatrix

    counts = rec.counts

    # -- finsetcat: compose and FinMap are counted, without spans, because
    # they run millions of times and a span each would swamp the sample.
    compose = finsetcat.compose

    def counted_compose(g, f):
        counts["compose"] += 1
        return compose(g, f)
    _rebind(compose, counted_compose)

    post_init = FinMap.__post_init__

    def counted_post_init(self):
        counts["finmap"] += 1
        post_init(self)
    FinMap.__post_init__ = counted_post_init

    enumerate_hom = finsetcat.enumerate_hom
    spanned_enum = rec.span("finsetcat.enumerate_hom", enumerate_hom)

    def traced_enumerate_hom(*args):
        misses = enumerate_hom.cache_info().misses
        maps = spanned_enum(*args)
        if enumerate_hom.cache_info().misses != misses:
            counts["enumerate_hom.maps"] += len(maps)
        return maps
    _rebind(enumerate_hom, traced_enumerate_hom)

    # -- fsfilt
    for method in ("left_perm", "right_perm"):
        setattr(HomModule, method,
                rec.span("fsfilt.hom_perm", getattr(HomModule, method)))
    HomModule.bicharacter = rec.span("fsfilt.restricted_char",
                                     HomModule.bicharacter)
    for name in ("level_bicharacter", "coker_theta_decompose"):
        fn = getattr(fsfilt, name)
        _rebind(fn, rec.span("fsfilt.restricted_char", fn))
    # _reduced_restriction is private, but it builds the restriction stages
    # that filtration_level and the filtration checks eliminate.
    for name in ("theta_matrix", "filtration_level", "_reduced_restriction"):
        fn = getattr(fsfilt, name)
        _rebind(fn, rec.span("fsfilt.operator_build", fn))
    _rebind(fsfilt.closure_check,
            rec.span("fsfilt.closure", fsfilt.closure_check))

    # -- ratlinalg
    rref = RatMatrix.rref
    spanned_rref = rec.span("ratlinalg.elim", rref)

    def record_elimination(matrix, result):
        nnz = sum(map(len, matrix.dm.rep.to_sdm().values()))
        rec.eliminations.append((matrix.rows, matrix.cols, nnz,
                                 _rref_digest(result)))
    record = rec.span("trace.bookkeeping", record_elimination)

    def traced_rref(self):
        # A cached or empty RREF is a lookup, not an elimination.
        if self._rref is not None or not self.rows or not self.cols:
            return rref(self)
        result = spanned_rref(self)
        record(self, result)
        return result
    RatMatrix.rref = traced_rref

    RatMatrix.__matmul__ = rec.span("ratlinalg.matmul", RatMatrix.__matmul__)

    from_triplets = rec.span(
        "ratlinalg.build", RatMatrix.__dict__["from_triplets"].__func__)
    from_columns = rec.span(
        "ratlinalg.build", RatMatrix.__dict__["from_columns"].__func__)

    # Callers pass generators that walk maps.  Draining them before the
    # build span keeps that map work in the caller's layer.
    def traced_from_triplets(cls, rows, cols, triplets):
        return from_triplets(cls, rows, cols, list(triplets))

    def traced_from_columns(cls, rows, columns):
        return from_columns(cls, rows, [list(c) for c in columns])
    RatMatrix.from_triplets = classmethod(traced_from_triplets)
    RatMatrix.from_columns = classmethod(traced_from_columns)

    solve_membership = ratlinalg.solve_membership
    spanned_solve = rec.span("ratlinalg.membership", solve_membership)

    def traced_solve_membership(span, vector):
        coeffs = spanned_solve(span, vector)
        if coeffs is not None:
            counts["membership.found"] += 1
        return coeffs
    _rebind(solve_membership, traced_solve_membership)

    # -- repdecomp
    for name in ("bidecompose_character", "decompose_character",
                 "convolution_class", "biconvolution_right"):
        fn = getattr(repdecomp, name)
        _rebind(fn, rec.span("repdecomp.class_algebra", fn))
    _rebind(repdecomp.character_table,
            rec.span("repdecomp.character_table", repdecomp.character_table))
