"""Spans around the calls into each tkhist layer, installed from outside.

Every wrapper replaces the module (or class) attribute through which the
caller looks the function up, so the program's own files stay unchanged.
While installed, each wrapped call records a span: name, trace id, parent
span, start and end.  Counting wrappers only count calls, for functions
called once per row.  Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, span name); a dotted attribute names a class method.
SPAN_TARGETS = [
    ("tkhist.catalog", "ingest_table", "catalog.ingest"),
    ("tkhist.catalog", "set_domain_boundaries", "catalog.domain_bounds"),
    ("tkhist.state", "build_state", "state.build"),
    ("tkhist.state", "build_tkhist1d", "histcore.build1d"),
    ("tkhist.state", "build_tkhist2d", "histcore.build2d"),
    ("tkhist.state", "save_state", "state.save"),
    ("tkhist.state", "load_state", "state.load"),
    ("tkhist.estimator", "discover_correlations", "djpcd.discover"),
    ("tkhist.djpcd", "build_correlation_map", "djpcd.envelope_scan"),
    ("tkhist.djpcd", "find_excluded_keys", "djpcd.find_excluded"),
    ("tkhist.estimator", "estimate", "estimator.estimate"),
    ("tkhist.estimator", "parse_sql", "queryfront.parse_bind"),
    ("tkhist.estimator", "bind", "queryfront.parse_bind"),
    ("tkhist.estimator", "decompose", "queryfront.decompose"),
    ("tkhist.estimator", "run_plan", "estimator.run_plan"),
    ("tkhist.estimator", "selectivity_2d", "predicate.selectivity"),
    ("tkhist.estimator", "key_bin_fractions", "predicate.selectivity"),
    ("tkhist.estimator", "lift", "joinengine.lift"),
    ("tkhist.estimator", "apply_filters", "joinengine.apply_filters"),
    ("tkhist.estimator", "join_star_group", "joinengine.star_fold"),
    ("tkhist.joinengine", "jtkh_join", "joinengine.jtkh_join"),
    ("tkhist.estimator", "chain_translate", "joinengine.chain_translate"),
    ("tkhist.cli", "cmd_update", "cli.update"),
    ("tkhist.cli", "load_state", "state.load"),
    ("tkhist.cli", "save_state", "state.save"),
]
COUNT_TARGETS = [
    ("tkhist.histcore", "TKHist1D.insert", "histcore.insert"),
    ("tkhist.histcore", "TKHist2D.insert", "histcore.insert"),
]


def _owner(module: str, attr: str):
    obj = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, name


class Tracer:
    """Span and call-count sink; `install`/`uninstall` toggle the wrappers."""

    def __init__(self):
        # span: [name, trace id, parent index or None, start, end]
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.trace_id: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers = {}
        for module, attr, name in SPAN_TARGETS:
            owner, field = _owner(module, attr)
            self._wrappers[(module, attr)] = self._span_wrapper(
                name, getattr(owner, field))
        for module, attr, name in COUNT_TARGETS:
            owner, field = _owner(module, attr)
            self._wrappers[(module, attr)] = self._count_wrapper(
                name, getattr(owner, field))

    def _span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, self.trace_id, stack[-1] if stack else None,
                    time.perf_counter(), None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
        return wrapper

    def _count_wrapper(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, trace_id: str) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.trace_id = trace_id
        for (module, attr), wrapper in self._wrappers.items():
            owner, field = _owner(module, attr)
            self._saved.append((owner, field, owner.__dict__[field]))
            setattr(owner, field, wrapper)

    def uninstall(self) -> None:
        for owner, field, original in reversed(self._saved):
            setattr(owner, field, original)
        self._saved.clear()
        self.trace_id = None

    def by_trace(self) -> dict[str, dict[str, dict]]:
        """Per trace id, per span name: call count, inclusive and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls within one process are nested, never overlapping.
        """
        child_time = defaultdict(float)
        for name, tid, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, dict]] = defaultdict(
            lambda: defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}))
        for i, (name, tid, parent, start, end) in enumerate(self.spans):
            rec = out[tid][name]
            rec["calls"] += 1
            rec["s"] += end - start
            rec["self_s"] += end - start - child_time[i]
        return out

    def records(self) -> list[dict]:
        return [{"name": n, "trace": t, "parent": p, "start": s, "end": e}
                for n, t, p, s, e in self.spans]
