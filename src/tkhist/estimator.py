"""Cardinality estimation facade: plan evaluation, metrics, workloads.

A query is decomposed into star groups chained into a tree.  Each group is a
left-fold of bin-wise joins over its member histograms; child groups are
carried across their bridge tables onto the parent domain before entering the
parent's fold.  The root group's total is the estimate.  Filters and
correlation-based key exclusion act in one place, `_lift_alias`, which lifts
each member's histogram without the dominant keys no filtered row can carry.
Keys are excluded exactly when the state holds a correlation map, which only
a build with discovery makes.  One rule, `_bin_fractions`, turns a filter
into per-bin fractions for a join's lift and a one-table query alike.  What
depends on the state alone, each histogram's unfiltered lift and each
bridge's weights, is built once per loaded state, in its `cache`; so is each
SQL text's bound query and plan, up to PLAN_CACHE_SIZE of them.
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import djpcd, oracle
from .catalog import KIND_INTEGER, TableData, check_tables
from .errors import EstimationError, ParseError, TKHistError
from .joinengine import (CompositeHist, apply_filters, bridge_weights,
                         chain_translate, composite, identity_lift,
                         join_star_group)
from .predicate import Predicate, key_bin_fractions, matches, selectivity_2d
from .queryfront import (PlanGroup, Query, SubQueryPlan, bind, decompose,
                         parse_sql)
from .state import EstimatorState, check_complete

PLAN_CACHE_SIZE = 256  # bound queries and plans kept per loaded state


@dataclass
class EstimationReport:
    query: str
    estimate: float
    latency_ms: float
    used_djpcd: bool
    truth: float | None = None
    q_error: float | None = None
    ratio: float | None = None
    error: str | None = None

    def score(self, truth: float | None) -> None:
        """Record the true count, None when unknown, and against a positive
        one the q-error and ratio."""
        self.truth = truth
        if truth is not None and truth > 0:
            self.q_error = q_error(self.estimate, truth)
            self.ratio = ratio(self.estimate, truth)

    def to_dict(self) -> dict:
        out = {"query": self.query, "estimate": self.estimate,
               "latency_ms": self.latency_ms, "used_djpcd": self.used_djpcd}
        if self.truth is not None:
            out["truth"] = self.truth
            out["q_error"] = self.q_error
            out["ratio"] = self.ratio
        if self.error is not None:
            out["error"] = self.error
        return out


def q_error(estimate: float, truth: float) -> float:
    """max(est/true, true/est); an estimate of zero yields inf."""
    if truth <= 0:
        raise EstimationError("q-error is undefined for a zero true cardinality")
    if estimate <= 0:
        return math.inf
    return max(estimate / truth, truth / estimate)


def ratio(estimate: float, truth: float) -> float:
    if truth <= 0:
        raise EstimationError("ratio is undefined for a zero true cardinality")
    return estimate / truth


# ---------------------------------------------------------------------------
# plan evaluation

def lift(state: EstimatorState, table: str, key_col: str) -> CompositeHist:
    """The identity lift of `table`'s `key_col` histogram over its domain's
    key index, built once per loaded state and shared (read-only)."""
    def build():
        hist = state.hists1d[(table, key_col)]
        return identity_lift(hist, state.key_index(hist.domain.id),
                             (table, key_col))
    return state.derived(("lift", table, key_col), build)


def _lift_alias(state: EstimatorState, query: Query, alias: str,
                key_col: str, excluded: frozenset) -> CompositeHist:
    """Lift one table's histogram, apply its filters and key exclusions.

    Background mass scales by the per-bin conditional selectivity product;
    dominant entries stay at full weight unless a predicate on the key column
    itself rejects the key exactly, or correlation exclusion removes it: a
    removed key is no longer dominant.  Exclusion removes keys from copies of
    the histogram's containers, then drops each container key that its bin's
    copy lost.  The identity lift is shared, so this returns it unchanged
    when nothing applies and otherwise builds new arrays for what changes.
    """
    table = query.aliases[alias]
    comp = lift(state, table, key_col)
    keep = None  # the dominance flags, copied when a key is removed

    if excluded:
        hist = state.hists1d[(table, key_col)]
        maps = [dict(b.topk) for b in hist.bins]
        for dom in maps:
            for key in excluded:
                dom.pop(key, None)
        # a bin that lost keys is one whose copy shrank
        keys, offsets = hist.topk_keys.tolist(), hist.topk_offsets.tolist()
        gone = [j for dom, lo, hi in zip(maps, offsets, offsets[1:])
                if len(dom) < hi - lo for j in range(lo, hi)
                if keys[j] not in dom]
        keep = comp.dominant.copy()
        keep[comp.index.positions[(table, key_col)][gone]] = False

    sel = None  # product of the per-bin fractions, in predicate order
    for pred in (p for p in query.predicates
                 if p.column.split(".", 1)[0] == alias):
        if pred.column.split(".", 1)[1] == key_col:
            # exact on dominant keys, interpolated on the background
            keep = comp.dominant.copy() if keep is None else keep
            held = np.flatnonzero(keep)
            miss = np.fromiter((not matches(pred, k)
                                for k in comp.index.keys[held].tolist()),
                               dtype=bool, count=len(held))
            keep[held[miss]] = False
        frac = _bin_fractions(state, table, key_col, pred)
        sel = frac if sel is None else sel * frac
    if keep is not None:
        comp = composite(comp.index, keep, comp.factor, comp.background,
                         comp.ndv)
    if sel is not None:
        comp = apply_filters(comp, sel)
    return comp


def _bin_fractions(state: EstimatorState, table: str, key_col: str,
                   pred: Predicate) -> np.ndarray:
    """Per bin of `table`'s `key_col` histogram, the share of its rows that
    match `pred`, a filter on that key column itself or through its grid."""
    attr = pred.column.split(".", 1)[1]
    integer = state.schema.table(table).column(attr).kind == KIND_INTEGER
    hist = state.hists1d[(table, key_col)]
    if attr == key_col:
        return key_bin_fractions(hist.domain, pred, integer)
    return selectivity_2d(state.hists2d[(table, key_col, attr)], pred,
                          integer, hist.bin_rows())


def run_plan(state: EstimatorState, query: Query, plan: SubQueryPlan,
             excluded_by_domain: dict[str, frozenset] | None = None,
             ) -> dict[str, CompositeHist]:
    """Post-order evaluation of the group tree: every group's composite by
    domain id, the root's last."""
    composites: dict[str, CompositeHist] = {}
    _eval_group(state, query, plan.root, excluded_by_domain or {}, composites)
    return composites


def _eval_group(state: EstimatorState, query: Query, group: PlanGroup,
                excluded_by_domain: dict[str, frozenset],
                composites: dict[str, CompositeHist]) -> CompositeHist:
    """One group's star fold over its members and translated children.  Not
    a closure: a self-calling closure is a cycle that keeps the state alive."""
    excluded = excluded_by_domain.get(group.domain_id, frozenset())
    factors = [_lift_alias(state, query, alias, col, excluded)
               for alias, col in group.members]
    for link in group.children:
        child = _eval_group(state, query, link.group, excluded_by_domain,
                            composites)
        grid = (query.aliases[link.bridge_alias], link.child_col,
                link.parent_col)  # the bridge's 2D histogram
        bridge = state.derived(("bridge", *grid), lambda: bridge_weights(
            state.hists2d[grid], state.hists1d[(grid[0], grid[2])]))
        factors.append(chain_translate(child, bridge,
                                       state.key_index(group.domain_id)))
    composites[group.domain_id] = comp = join_star_group(factors)
    return comp


def _single_table_fraction(state: EstimatorState, table: str,
                           pred: Predicate) -> float:
    """Share of the table's rows that match `pred`.  A null never matches,
    so every row counts in the denominator: the table's rows, or for an
    attribute seen only through its 2D histogram, the rows of that grid's
    key column.  A filter with no statistic behind it is ignored: 1.0."""
    attr = pred.column.split(".", 1)[1]
    rows = state.table_rows[table]
    if rows <= 0:
        return 1.0  # no row to count: neutral
    fhist = state.freq_hists.get((table, attr))
    if fhist is not None:
        return sum(c for v, c in fhist.items() if matches(pred, v)) / rows
    keys = state.key_columns(table)
    if not keys:
        return 1.0  # no key column, so no 2D histogram: neutral
    key_col = attr if attr in keys else keys[0]
    key_rows = state.hists1d[(table, key_col)].bin_rows().astype(np.float64)
    if key_col != attr:
        rows = float(key_rows.sum())
        if rows <= 0:
            return 1.0  # every key null, so the grid holds no row: neutral
    return float(key_rows @ _bin_fractions(state, table, key_col, pred)) / rows


def _estimate_single_table(state: EstimatorState, query: Query) -> float:
    alias = next(iter(query.aliases))
    table = query.aliases[alias]
    est = float(state.table_rows[table])
    for pred in query.predicates:
        est *= _single_table_fraction(state, table, pred)
    return est


def _bound_plan(sql: str,
                state: EstimatorState) -> tuple[Query, SubQueryPlan]:
    """The bound query and plan of `sql` on `state`, which depend on the
    text and on the state's schema and key domains alone: kept in the
    state's cache under ("plans",), by text, the oldest dropped first past
    PLAN_CACHE_SIZE.  A text that fails to parse, bind or plan is not kept.
    """
    plans = state.derived(("plans",), dict)
    entry = plans.get(sql)
    if entry is None:
        query = bind(parse_sql(sql), state.schema)
        entry = query, decompose(query, state.column_domain)
        if len(plans) >= PLAN_CACHE_SIZE:
            del plans[next(iter(plans))]
        plans[sql] = entry
    return entry


def estimate(sql: str, state: EstimatorState) -> EstimationReport:
    """Parse, validate, plan, and evaluate one COUNT(*) query; keys are
    excluded exactly when the state holds a correlation map."""
    t0 = time.perf_counter()
    check_complete(state)
    query, plan = _bound_plan(sql, state)
    djpcd_active = bool(state.correlations)
    if not plan.groups:
        value = _estimate_single_table(state, query)
    else:
        excluded = {}
        if djpcd_active:
            excluded = djpcd.find_excluded_keys(
                query, state.correlations, state.column_domain)
        value = run_plan(state, query, plan,
                         excluded)[plan.root.domain_id].total()
    latency = (time.perf_counter() - t0) * 1000.0
    return EstimationReport(query=sql.strip(), estimate=value,
                            latency_ms=latency, used_djpcd=djpcd_active)


# ---------------------------------------------------------------------------
# correlation discovery

def discover_correlations(state: EstimatorState,
                          tables: dict[str, TableData]) -> dict:
    """Offline pass: run the join pipeline over the schema's declared join
    templates, collect the dominant keys per domain, and scan the base tables
    for per-key attribute envelopes.  Stores and returns the correlation map.
    """
    check_complete(state)
    check_tables({t: d.columns for t, d in tables.items()},
                 state.schema.column_names())
    composites: list[CompositeHist] = []
    for edges in state.schema.templates:
        aliases: dict[str, str] = {}
        for a, b in edges:
            for ref in (a, b):
                t = ref.split(".", 1)[0]
                aliases[t] = t
        query = Query(aliases=aliases, join_edges=list(edges),
                      predicates=[])
        plan = decompose(query, state.column_domain)
        composites.extend(run_plan(state, query, plan).values())
    dominant = djpcd.collect_dominant_keys(composites)
    state.correlations = djpcd.build_correlation_map(
        state.schema, tables, state.column_domain, dominant)
    return state.correlations


# ---------------------------------------------------------------------------
# workloads

def parse_workload(path: str) -> list[tuple[str, float | None]]:
    """One query per line; `--` lines are comments; `||N` appends a true
    count, at the first `||` outside a string literal."""
    out: list[tuple[str, float | None]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParseError(f"cannot read workload file {path!r}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("--"):
            continue
        truth: float | None = None
        cut = line.find("||")
        while cut >= 0 and line.count("'", 0, cut) % 2:  # inside a string
            cut = line.find("||", cut + 1)
        if cut >= 0:
            line, rest = line[:cut].strip(), line[cut + 2:].strip()
            try:
                truth = float(rest)
            except ValueError:
                raise ParseError(f"{path!r} line {lineno}: true count "
                                 f"{rest!r} is not a number") from None
        out.append((line, truth))
    return out


@dataclass
class WorkloadSummary:
    queries: int
    failed: int
    median_q: float | None
    p90_q: float | None
    p95_q: float | None
    p99_q: float | None
    max_q: float | None
    mean_latency_ms: float

    def to_dict(self) -> dict:
        return asdict(self)


def _with_oracle_truths(schema, entries: list,
                        tables: dict[str, TableData] | None) -> list:
    """Fill each missing truth from the exact oracle when base tables are
    supplied; a query that cannot be parsed or counted gets the `TKHistError`
    that says why in place of its truth."""
    out = []
    for sql, truth in entries:
        if truth is None and tables is not None:
            try:
                truth = float(oracle.oracle_count(
                    bind(parse_sql(sql), schema), tables))
            except TKHistError as exc:
                truth = exc
        out.append((sql, truth))
    return out


def evaluate_workload(state: EstimatorState,
                      entries: list[tuple[str, float | None]],
                      tables: dict[str, TableData] | None = None,
                      ) -> tuple[list[EstimationReport], WorkloadSummary]:
    """Estimate every workload query; truths come from the file or, when base
    tables are supplied, from the exact join oracle.  A failing query becomes
    an error report instead of aborting the run.
    """
    reports: list[EstimationReport] = []
    for sql, truth in _with_oracle_truths(state.schema, entries, tables):
        try:
            rep = estimate(sql, state)
        except TKHistError as exc:
            truth = exc
        if isinstance(truth, TKHistError):
            reports.append(EstimationReport(
                query=sql, estimate=float("nan"), latency_ms=0.0,
                used_djpcd=bool(state.correlations),
                error=str(truth)))
            continue
        rep.score(truth)
        reports.append(rep)

    ok = [r for r in reports if r.error is None]
    qerrs = [r.q_error for r in ok if r.q_error is not None]
    lat = [r.latency_ms for r in ok]

    def pct(p):
        """numpy's linear percentile, or inf where it gives an infinite
        q-error some weight (numpy's arithmetic would read inf - inf)."""
        if not qerrs:
            return None
        q = np.asarray(qerrs, dtype=np.float64)
        inf = np.isinf(q)
        if np.percentile(inf.astype(np.float64), p) > 0:
            return math.inf
        return float(np.percentile(np.where(inf, q[~inf].max(), q), p))

    summary = WorkloadSummary(
        queries=len(reports), failed=len(reports) - len(ok),
        median_q=pct(50), p90_q=pct(90), p95_q=pct(95), p99_q=pct(99),
        max_q=(max(qerrs) if qerrs else None),
        mean_latency_ms=(sum(lat) / len(lat)) if lat else 0.0)
    return reports, summary


@dataclass
class SweepPoint:
    bin_count: int
    top_k: int
    build_seconds: float
    state_bytes: int
    median_q: float | None
    mean_latency_ms: float


def sweep(schema, tables, entries, bin_counts: list[int], ks: list[int],
          use_djpcd: bool = True) -> list[SweepPoint]:
    """Rebuild and evaluate at every (bin count, k) grid point as `tkhist
    build` builds a state, with discovery when `use_djpcd`; exact truths
    are counted once, before the grid."""
    import tempfile

    from .state import BuildConfig, build_state, save_state

    entries = _with_oracle_truths(schema, entries, tables)
    points = []
    for n in bin_counts:
        for k in ks:
            t0 = time.perf_counter()
            st = build_state(schema, tables,
                             BuildConfig(bin_count=n, top_k=k))
            if use_djpcd:
                discover_correlations(st, tables)
            build_s = time.perf_counter() - t0
            with tempfile.NamedTemporaryFile(suffix=".json", delete=True) as tmp:
                size = save_state(st, tmp.name)
            _, summ = evaluate_workload(st, entries)
            points.append(SweepPoint(bin_count=n, top_k=k,
                                     build_seconds=build_s, state_bytes=size,
                                     median_q=summ.median_q,
                                     mean_latency_ms=summ.mean_latency_ms))
    return points
