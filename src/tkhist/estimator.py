"""Cardinality estimation facade: plan evaluation, metrics, workloads.

A query is decomposed into star groups chained into a tree.  Each group is a
left-fold of bin-wise joins over its member histograms (filtered and, with
correlation exclusion enabled, stripped of dominant keys no filtered row can
carry); child groups are carried across their bridge tables onto the parent
domain before entering the parent's fold.  The root group's total is the
estimate.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import djpcd
from .catalog import KIND_INTEGER, TableData
from .errors import EstimationError, PlanError, TKHistError
from .joinengine import (CompositeHist, apply_filters, chain_translate,
                         join_star_group, lift)
from .predicate import (BinSelectivity, Predicate, key_bin_fractions, matches,
                        selectivity_2d)
from .queryfront import (Query, SubQueryPlan, bind, decompose, parse_sql,
                         validate_acyclic)
from .state import EstimatorState


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

def _alias_predicates(query: Query, alias: str) -> list[Predicate]:
    return [p for p in query.predicates
            if p.column.split(".", 1)[0] == alias]


def _lift_alias(state: EstimatorState, query: Query, alias: str,
                key_col: str, excluded: frozenset) -> CompositeHist:
    """Lift one table's histogram, apply its filters and key exclusions.

    Background mass scales by the per-bin conditional selectivity product;
    dominant entries stay at full weight unless a predicate on the key column
    itself rejects the key exactly, or correlation exclusion removes it.
    """
    table = query.aliases[alias]
    hist = state.hists1d.get((table, key_col))
    if hist is None:
        raise PlanError(f"no histogram for join column {table}.{key_col}")
    comp = lift(hist, provenance=(alias,))

    if excluded:
        for b in comp.bins:
            for key in excluded:
                b.dominant.pop(key, None)

    fractions: list[np.ndarray] = []
    for pred in _alias_predicates(query, alias):
        attr = pred.column.split(".", 1)[1]
        if attr == key_col:
            # exact on dominant keys, interpolated on the background
            for b in comp.bins:
                b.dominant = {k: v for k, v in b.dominant.items()
                              if matches(pred, k)}
            kind = state.schema.table(table).column(attr).kind
            fractions.append(key_bin_fractions(hist.domain, pred,
                                               integer=kind == KIND_INTEGER))
        else:
            h2 = state.hists2d.get((table, key_col, attr))
            if h2 is None:
                raise PlanError(
                    f"no statistics for predicate column {table}.{attr}")
            fractions.append(selectivity_2d(h2, pred).fractions)
    if fractions:
        combined = np.ones(hist.domain.bin_count)
        for f in fractions:
            combined = combined * f
        comp = apply_filters(comp, BinSelectivity(combined))
    return comp


def run_plan(state: EstimatorState, query: Query, plan: SubQueryPlan,
             excluded_by_domain: dict[str, frozenset] | None = None,
             group_record: dict[int, CompositeHist] | None = None) -> CompositeHist:
    """Post-order evaluation of the group tree; returns the root composite."""
    excluded_by_domain = excluded_by_domain or {}

    def eval_group(gid: int) -> CompositeHist:
        group = plan.groups[gid]
        excluded = excluded_by_domain.get(group.domain_id, frozenset())
        factors: list[CompositeHist] = []
        for alias, col in group.members:
            if (alias, col) in group.suppressed:
                continue
            factors.append(_lift_alias(state, query, alias, col, excluded))
        for link in plan.children(gid):
            child = eval_group(link.child)
            btable = query.aliases[link.bridge_alias]
            bridge2d = state.hists2d.get(
                (btable, link.child_col, link.parent_col))
            parent_hist = state.hists1d.get((btable, link.parent_col))
            if bridge2d is None or parent_hist is None:
                raise PlanError(
                    f"no bridge statistics for {btable}.{link.child_col} -> "
                    f"{btable}.{link.parent_col}")
            factors.append(chain_translate(child, bridge2d, parent_hist,
                                           provenance=(link.bridge_alias,)))
        comp = join_star_group(factors, excluded)
        if group_record is not None:
            group_record[gid] = comp
        return comp

    return eval_group(plan.root)


def _single_table_fraction(state: EstimatorState, table: str,
                           pred: Predicate) -> float:
    attr = pred.column.split(".", 1)[1]
    fhist = state.freq_hists.get((table, attr))
    if fhist is not None:
        total = sum(fhist.values())
        if total <= 0:
            return 0.0
        return sum(c for v, c in fhist.items() if matches(pred, v)) / total
    hist = state.hists1d.get((table, attr))
    if hist is not None:  # predicate on a join-key column
        kind = state.schema.table(table).column(attr).kind
        fr = key_bin_fractions(hist.domain, pred, integer=kind == KIND_INTEGER)
        masses = np.array([b.total() for b in hist.bins], dtype=np.float64)
        return float(masses @ fr / masses.sum()) if masses.sum() > 0 else 0.0
    for kc in state.key_columns(table):
        h2 = state.hists2d.get((table, kc, attr))
        if h2 is not None:
            mass = h2.grid.sum(axis=1).astype(np.float64)
            if mass.sum() <= 0:
                return 0.0
            frac = selectivity_2d(h2, pred).fractions
            return float(mass @ frac / mass.sum())
    return 1.0  # no statistics for this column; neutral


def _estimate_single_table(state: EstimatorState, query: Query) -> float:
    alias = next(iter(query.aliases))
    table = query.aliases[alias]
    est = float(state.table_rows[table])
    for pred in query.predicates:
        est *= _single_table_fraction(state, table, pred)
    return est


def estimate(sql: str, state: EstimatorState,
             use_djpcd: bool = True,
             min_only: bool = False) -> EstimationReport:
    """Parse, validate, plan, and evaluate one COUNT(*) query."""
    t0 = time.perf_counter()
    query = bind(parse_sql(sql), state.schema)
    validate_acyclic(query)
    djpcd_active = bool(use_djpcd and state.correlations)
    if not query.join_edges:
        if len(query.aliases) > 1:
            raise PlanError("multi-table query without join edges")
        value = _estimate_single_table(state, query)
    else:
        plan = decompose(query, state.column_domain)
        excluded = {}
        if djpcd_active:
            excluded = djpcd.find_excluded_keys(
                query, state.correlations, state.column_domain,
                min_only=min_only)
        value = run_plan(state, query, plan, excluded).total()
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
    if not state.schema.templates:
        state.correlations = {}
        return state.correlations
    composites: list[CompositeHist] = []
    for edges in state.schema.templates:
        aliases: dict[str, str] = {}
        for a, b in edges:
            for ref in (a, b):
                t = ref.split(".", 1)[0]
                aliases[t] = t
        query = Query(text="", aliases=aliases, join_edges=list(edges),
                      predicates=[])
        plan = decompose(query, state.column_domain)
        record: dict[int, CompositeHist] = {}
        run_plan(state, query, plan, group_record=record)
        composites.extend(record.values())
    dominant = djpcd.collect_dominant_keys(composites,
                                           state.config.correlation_cap)
    state.correlations = djpcd.build_correlation_map(
        state.schema, tables, state.column_domain, state.column_class,
        dominant)
    return state.correlations


# ---------------------------------------------------------------------------
# accuracy guarantees

def error_bound_check(hist, epsilon: float) -> list[bool]:
    """Per-bin check that sqrt(bin_count) * NV / |bin| stays below epsilon.

    Bins whose background is a vanishing share of a large bin admit a relative
    error bound on bin-wise join estimates; this reports which bins qualify.
    """
    if hist.total_rows <= 0:
        raise EstimationError("error bound is undefined for an empty histogram")
    root_n = math.sqrt(len(hist.bins))
    out = []
    for b in hist.bins:
        total = b.total()
        out.append(bool(total > 0 and root_n * b.nv / total < epsilon))
    return out


# ---------------------------------------------------------------------------
# workloads

def parse_workload(path: str) -> list[tuple[str, float | None]]:
    """One query per line; `--` lines are comments; `||N` appends a true count."""
    out: list[tuple[str, float | None]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("--"):
                continue
            truth: float | None = None
            if "||" in line:
                sql, _, rest = line.partition("||")
                line = sql.strip()
                truth = float(rest.strip())
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
        return {"queries": self.queries, "failed": self.failed,
                "median_q": self.median_q, "p90_q": self.p90_q,
                "p95_q": self.p95_q, "p99_q": self.p99_q,
                "max_q": self.max_q,
                "mean_latency_ms": self.mean_latency_ms}


def evaluate_workload(state: EstimatorState,
                      entries: list[tuple[str, float | None]],
                      use_djpcd: bool = True,
                      tables: dict[str, TableData] | None = None,
                      oracle_cap: int | None = None,
                      ) -> tuple[list[EstimationReport], WorkloadSummary]:
    """Estimate every workload query; truths come from the file or, when base
    tables are supplied, from the exact join oracle.  A failing query becomes
    an error report instead of aborting the run.
    """
    from . import oracle as oracle_mod

    cap = oracle_cap if oracle_cap is not None else oracle_mod.DEFAULT_CAP
    reports: list[EstimationReport] = []
    for sql, truth in entries:
        try:
            rep = estimate(sql, state, use_djpcd=use_djpcd)
            if truth is None and tables is not None:
                query = bind(parse_sql(sql), state.schema)
                truth = float(oracle_mod.oracle_count(query, tables, cap=cap))
        except TKHistError as exc:
            reports.append(EstimationReport(
                query=sql, estimate=float("nan"), latency_ms=0.0,
                used_djpcd=use_djpcd, error=str(exc)))
            continue
        if truth is not None:
            rep.truth = truth
            if truth > 0:
                rep.q_error = q_error(rep.estimate, truth)
                rep.ratio = ratio(rep.estimate, truth)
        reports.append(rep)

    ok = [r for r in reports if r.error is None]
    qerrs = [r.q_error for r in ok if r.q_error is not None]
    lat = [r.latency_ms for r in ok]

    def pct(p):
        return float(np.percentile(qerrs, p)) if qerrs else None

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
          use_djpcd: bool = False) -> list[SweepPoint]:
    """Rebuild and evaluate at every (bin count, k) grid point."""
    import tempfile

    from .state import BuildConfig, build_state, save_state

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
            _, summ = evaluate_workload(st, entries, use_djpcd=use_djpcd,
                                        tables=tables)
            points.append(SweepPoint(bin_count=n, top_k=k,
                                     build_seconds=build_s, state_bytes=size,
                                     median_q=summ.median_q,
                                     mean_latency_ms=summ.mean_latency_ms))
    return points
