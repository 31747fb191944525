"""Cardinality estimation facade: plan evaluation, metrics, workloads.

A query is decomposed into star groups chained into a tree.  Each group is a
left-fold of bin-wise joins over its member histograms; child groups are
carried across their bridge tables onto the parent domain before entering the
parent's fold.  The root group's total is the estimate.  Filters and
correlation-based key exclusion act in one place, `_lift_alias`, which lifts
each member's histogram without the dominant keys no filtered row can carry.
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import djpcd, oracle
from .catalog import KIND_INTEGER, TableData
from .errors import EstimationError, ParseError, TKHistError
from .joinengine import (CompositeHist, apply_filters, chain_translate,
                         join_star_group, lift)
from .predicate import Predicate, key_bin_fractions, matches, selectivity_2d
from .queryfront import (PlanGroup, Query, SubQueryPlan, bind, decompose,
                         parse_sql)
from .state import EstimatorState, check_complete


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
    The lifted maps are the histogram's own containers, so exclusion copies
    each map before removing keys from it.
    """
    table = query.aliases[alias]
    hist = state.hists1d[(table, key_col)]
    comp = lift(hist)

    if excluded:
        comp.dominant = [dict(d) for d in comp.dominant]
        for dom in comp.dominant:
            for key in excluded:
                dom.pop(key, None)

    sel = None  # product of the per-bin fractions, in predicate order
    for pred in _alias_predicates(query, alias):
        attr = pred.column.split(".", 1)[1]
        integer = state.schema.table(table).column(attr).kind == KIND_INTEGER
        if attr == key_col:
            # exact on dominant keys, interpolated on the background
            comp.dominant = [{k: v for k, v in dom.items()
                              if matches(pred, k)} for dom in comp.dominant]
            frac = key_bin_fractions(hist.domain, pred, integer)
        else:
            frac = selectivity_2d(state.hists2d[(table, key_col, attr)], pred,
                                  integer)
        sel = frac if sel is None else sel * frac
    if sel is not None:
        comp = apply_filters(comp, sel)
    return comp


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
        btable = query.aliases[link.bridge_alias]
        factors.append(chain_translate(
            child, state.hists2d[(btable, link.child_col, link.parent_col)],
            state.hists1d[(btable, link.parent_col)]))
    composites[group.domain_id] = comp = join_star_group(factors)
    return comp


def _single_table_fraction(state: EstimatorState, table: str,
                           pred: Predicate) -> float:
    attr = pred.column.split(".", 1)[1]
    fhist = state.freq_hists.get((table, attr))
    if fhist is not None:
        total = sum(fhist.values())
        if total <= 0:
            return 0.0
        return sum(c for v, c in fhist.items() if matches(pred, v)) / total
    integer = state.schema.table(table).column(attr).kind == KIND_INTEGER
    hist = state.hists1d.get((table, attr))
    if hist is not None:  # predicate on a join-key column
        fr = key_bin_fractions(hist.domain, pred, integer)
        masses = hist.bin_rows().astype(np.float64)
        return float(masses @ fr / masses.sum()) if masses.sum() > 0 else 0.0
    keys = state.key_columns(table)
    if not keys:
        return 1.0  # no key column, so no 2D histogram: neutral
    h2 = state.hists2d[(table, keys[0], attr)]
    mass = h2.key_marginal().astype(np.float64)
    if mass.sum() <= 0:
        return 0.0
    return float(mass @ selectivity_2d(h2, pred, integer) / mass.sum())


def _estimate_single_table(state: EstimatorState, query: Query) -> float:
    alias = next(iter(query.aliases))
    table = query.aliases[alias]
    est = float(state.table_rows[table])
    for pred in query.predicates:
        est *= _single_table_fraction(state, table, pred)
    return est


def estimate(sql: str, state: EstimatorState,
             use_djpcd: bool = True) -> EstimationReport:
    """Parse, validate, plan, and evaluate one COUNT(*) query."""
    t0 = time.perf_counter()
    check_complete(state)
    query = bind(parse_sql(sql), state.schema)
    plan = decompose(query, state.column_domain)
    djpcd_active = bool(use_djpcd and state.correlations)
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
        state.schema, tables, state.column_domain, state.freq_hists.keys(),
        dominant)
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
                      use_djpcd: bool = True,
                      tables: dict[str, TableData] | None = None,
                      ) -> tuple[list[EstimationReport], WorkloadSummary]:
    """Estimate every workload query; truths come from the file or, when base
    tables are supplied, from the exact join oracle.  A failing query becomes
    an error report instead of aborting the run.
    """
    reports: list[EstimationReport] = []
    for sql, truth in _with_oracle_truths(state.schema, entries, tables):
        try:
            rep = estimate(sql, state, use_djpcd=use_djpcd)
        except TKHistError as exc:
            truth = exc
        if isinstance(truth, TKHistError):
            reports.append(EstimationReport(
                query=sql, estimate=float("nan"), latency_ms=0.0,
                used_djpcd=bool(use_djpcd and state.correlations),
                error=str(truth)))
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
          use_djpcd: bool = False) -> list[SweepPoint]:
    """Rebuild and evaluate at every (bin count, k) grid point; exact truths
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
            _, summ = evaluate_workload(st, entries, use_djpcd=use_djpcd)
            points.append(SweepPoint(bin_count=n, top_k=k,
                                     build_seconds=build_s, state_bytes=size,
                                     median_q=summ.median_q,
                                     mean_latency_ms=summ.mean_latency_ms))
    return points
