"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Each test computes its verdict first, prints the line, then asserts, so the
verdict line appears in captured output even when a criterion fails.
"""
import math
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from tkhist.estimator import (discover_correlations, estimate, q_error, ratio)
from tkhist.histcore import build_tkhist2d
from tkhist.joinengine import jtkh_join, selinger_bin_estimate
from tkhist.oracle import nested_loop_count, oracle_count
from tkhist.predicate import Predicate, selectivity_2d
from tkhist.queryfront import Query, bind, parse_sql
from tkhist.state import BuildConfig, build_state
from tkhist.synth import SyntheticSpec, generate_synthetic

from conftest import (composites_of, domain_bin, make_table, numeric_axis,
                      two_table_schema)


def verdict(n: int, ok: bool, desc: str) -> None:
    print(f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n}: {desc}"


def truth_of(sql, schema, tables):
    return oracle_count(bind(parse_sql(sql), schema), tables)


# ---------------------------------------------------------------------------
# shared expensive fixtures

MIXED_WORKLOAD = [
    "SELECT COUNT(*) FROM t1, t2 WHERE t2.k1 = t1.k1",
    "SELECT COUNT(*) FROM t1, t3 WHERE t3.k1 = t1.k1",
    "SELECT COUNT(*) FROM t1, t2, t3 WHERE t2.k1 = t1.k1 AND t3.k1 = t1.k1",
    "SELECT COUNT(*) FROM t3, t4 WHERE t4.k2 = t3.k2",
    "SELECT COUNT(*) FROM t4, t5 WHERE t5.k3 = t4.k3",
    "SELECT COUNT(*) FROM t1, t3, t4 WHERE t3.k1 = t1.k1 AND t4.k2 = t3.k2",
    "SELECT COUNT(*) FROM t3, t4, t5 WHERE t4.k2 = t3.k2 AND t5.k3 = t4.k3",
    "SELECT COUNT(*) FROM t1, t2, t3, t4 WHERE t2.k1 = t1.k1 "
    "AND t3.k1 = t1.k1 AND t4.k2 = t3.k2",
    "SELECT COUNT(*) FROM t1, t2, t3, t4, t5 WHERE t2.k1 = t1.k1 "
    "AND t3.k1 = t1.k1 AND t4.k2 = t3.k2 AND t5.k3 = t4.k3",
]


@pytest.fixture(scope="module")
def mixed5():
    spec = SyntheticSpec(tables=5, rows=10_000, layout="mixed", skew=1.2,
                         distinct_keys=2000)
    schema, tables = generate_synthetic(spec, seed=17)
    truths = {sql: truth_of(sql, schema, tables) for sql in MIXED_WORKLOAD}
    return schema, tables, truths


@pytest.fixture(scope="module")
def mixed5_state(mixed5):
    schema, tables, _ = mixed5
    return build_state(schema, tables, BuildConfig(bin_count=200, top_k=20))


# ---------------------------------------------------------------------------

def test_criterion_01_exact_at_full_capture():
    t0 = time.perf_counter()
    spec = SyntheticSpec(tables=2, rows=10_000, layout="star", skew=1.2,
                         distinct_keys=1000)
    schema, tables = generate_synthetic(spec, seed=3)
    # k at least the largest per-bin distinct count => nothing in background
    max_distinct = 0
    probe = build_state(schema, tables, BuildConfig(bin_count=50, top_k=0))
    for h in probe.hists1d.values():
        max_distinct = max(max_distinct, int(h.ndv.max()))
    state = build_state(schema, tables,
                        BuildConfig(bin_count=50, top_k=max_distinct))
    sql = "SELECT COUNT(*) FROM t1, t2 WHERE t2.k1 = t1.k1"
    est = estimate(sql, state).estimate
    true = truth_of(sql, schema, tables)
    elapsed = time.perf_counter() - t0
    ok = est == float(true) and q_error(est, true) == 1.0 and elapsed < 10
    verdict(1, ok, f"two-table full-capture estimate {est} == oracle {true}, "
                   f"q-error 1.0, {elapsed:.1f}s")


def test_criterion_02_join_histogram_degeneration():
    rng = np.random.default_rng(11)
    mismatches = 0
    for _ in range(100):
        ndv_a, ndv_b = int(rng.integers(0, 50)), int(rng.integers(0, 50))
        nv_a = int(rng.integers(ndv_a, 10 * (ndv_a + 1)))
        nv_b = int(rng.integers(ndv_b, 10 * (ndv_b + 1)))
        from tkhist.catalog import KeyDomain
        d = KeyDomain(id="t.k", columns=frozenset({"t.k"}))
        d.set_boundaries(0, 1, 1)
        a, b = composites_of(d, [({}, float(nv_a), float(ndv_a))],
                             [({}, float(nv_b), float(ndv_b))])
        out = jtkh_join(a, b)
        expect = selinger_bin_estimate(nv_a, ndv_a, nv_b, ndv_b)
        if out.mass.any() or out.background[0] != expect:
            mismatches += 1
    verdict(2, mismatches == 0,
            "k=0 join equals the Selinger per-bin estimate bit-for-bit on "
            "100 random bin-stat instances")


def test_criterion_03_bin_mass_identity(mixed5):
    schema, tables, _ = mixed5
    datasets = [(schema, tables, BuildConfig(bin_count=200, top_k=20)),
                (schema, tables, BuildConfig(bin_count=37, top_k=3))]
    hand_schema = two_table_schema()
    hand_tables = {
        "r": make_table("r", {"k": [1, 1, 1, 2, 5, 9], "y": [0] * 6},
                        nulls={"k": [False] * 5 + [True]}),
        "s": make_table("s", {"k": [1, 2, 2, 9], "y": [0] * 4}),
    }
    datasets.append((hand_schema, hand_tables, BuildConfig(bin_count=4, top_k=1)))

    checked, bad = 0, 0
    for sch, tabs, cfg in datasets:
        state = build_state(sch, tabs, cfg)
        for (t, c), h in state.hists1d.items():
            vals = tabs[t].non_null(c)
            exact = Counter(int(i) for i in h.domain.bins_of(vals))
            for i, b in enumerate(h.bins):
                checked += 1
                if b.nv + sum(b.topk.values()) != exact.get(i, 0):
                    bad += 1
    verdict(3, bad == 0 and checked > 0,
            f"NV + container mass equals the exact per-bin row count for all "
            f"{checked} bins across synthetic and hand-made histograms")


def test_criterion_04_pure_join_accuracy_trend(mixed5, mixed5_state):
    t0 = time.perf_counter()
    schema, tables, truths = mixed5
    ratios = []
    for sql in MIXED_WORKLOAD:
        est = estimate(sql, mixed5_state).estimate
        ratios.append(ratio(est, truths[sql]))
    median = float(np.median(ratios))
    in_band = all(0.1 <= r <= 10 for r in ratios)
    k0_state = build_state(schema, tables, BuildConfig(bin_count=200, top_k=0))
    k0_ratios = [ratio(estimate(sql, k0_state).estimate,
                       truths[sql]) for sql in MIXED_WORKLOAD]
    k0_escapes = any(not 0.1 <= r <= 10 for r in k0_ratios)
    elapsed = time.perf_counter() - t0
    ok = 0.5 <= median <= 2.0 and in_band and k0_escapes and elapsed < 60
    verdict(4, ok,
            f"5-table median ratio {median:.3f} in [0.5,2], all ratios in "
            f"[0.1,10] (min {min(ratios):.3f}, max {max(ratios):.3f}); k=0 "
            f"worst ratio {min(k0_ratios):.2e} escapes the band; "
            f"{elapsed:.1f}s")


@pytest.fixture(scope="module")
def correlated_setup():
    rng = np.random.default_rng(23)

    def rows():
        keys = np.concatenate([np.repeat([1, 2, 3], 1000),
                               np.repeat(np.arange(4, 504), 2)])
        y = np.where(keys <= 3, keys, rng.integers(100, 200, size=len(keys)))
        return keys.astype(np.int64), y.astype(np.int64)

    schema = two_table_schema()
    tables = {}
    for name in ("r", "s"):
        k, y = rows()
        tables[name] = make_table(name, {"k": k.tolist(), "y": y.tolist()})
    state = build_state(schema, tables, BuildConfig(bin_count=50, top_k=10))
    discover_correlations(state, tables)
    return schema, tables, state


def test_criterion_05_djpcd_effect(correlated_setup):
    schema, tables, state = correlated_setup
    workload = [
        "SELECT COUNT(*) FROM r, s WHERE r.k = s.k AND r.y >= 100",
        "SELECT COUNT(*) FROM r, s WHERE r.k = s.k AND r.y BETWEEN 100 AND 199",
        "SELECT COUNT(*) FROM r, s WHERE r.k = s.k AND r.y >= 150",
    ]
    with_r, without_r, monotone = [], [], True
    for sql in workload:
        true = truth_of(sql, schema, tables)
        on = estimate(sql, state).estimate
        off = estimate(sql, replace(state, correlations={})).estimate
        with_r.append(ratio(on, true))
        without_r.append(ratio(off, true))
        monotone = monotone and on <= off + 1e-9
    ok = max(without_r) >= 10 and max(with_r) <= 3 and monotone
    verdict(5, ok,
            f"correlated filters: max ratio {max(without_r):.0f} without "
            f"exclusion vs {max(with_r):.2f} with it; exclusion never "
            f"increases an estimate")


def test_criterion_06_update_consistency():
    schema = two_table_schema()
    rng = np.random.default_rng(31)
    heavy = np.repeat(np.arange(5, 100, 10), 50)  # one clear MFV per bin
    background = rng.integers(1, 101, size=400)
    base_r = np.concatenate([heavy, background])
    s_keys = rng.integers(1, 101, size=500)
    tables = {
        "r": make_table("r", {"k": base_r.tolist(),
                              "y": [0] * len(base_r)}),
        "s": make_table("s", {"k": s_keys.tolist(), "y": [0] * 500}),
    }
    state = build_state(schema, tables, BuildConfig(bin_count=10, top_k=1))

    # exact container increment on a known top-k key
    h = state.hists1d[("r", "k")]
    bin5 = domain_bin(h.domain, 5)
    before = h.bins[bin5].topk[5]
    h.insert(5)
    increment_exact = h.bins[bin5].topk[5] == before + 1

    inserts = rng.integers(1, 101, size=1000)
    inserts = inserts[~np.isin(inserts, np.arange(5, 100, 10))][:1000]
    for v in inserts:
        h.insert(int(v))
    sql = "SELECT COUNT(*) FROM r, s WHERE r.k = s.k"
    incremental = estimate(sql, state).estimate

    merged = np.concatenate([base_r, [5], inserts])
    tables2 = {
        "r": make_table("r", {"k": merged.tolist(), "y": [0] * len(merged)}),
        "s": tables["s"],
    }
    rebuilt_state = build_state(schema, tables2,
                                BuildConfig(bin_count=10, top_k=1))
    rebuilt = estimate(sql, rebuilt_state).estimate
    rel = abs(incremental - rebuilt) / rebuilt
    ok = increment_exact and rel < 1e-9
    verdict(6, ok,
            f"{len(inserts)} streamed background inserts: estimate "
            f"{incremental:.1f} vs rebuild {rebuilt:.1f} "
            f"(relative {rel:.1e}); container increments exact")


def test_criterion_07_latency_budget(mixed5, mixed5_state):
    schema, tables, _ = mixed5
    sql = MIXED_WORKLOAD[-1]
    states = {(200, 20): mixed5_state}
    for n, k in [(25, 0), (25, 20), (200, 0)]:
        states[(n, k)] = build_state(schema, tables,
                                     BuildConfig(bin_count=n, top_k=k))
    # one estimate per state per round, the states interleaved, so that a
    # burst of load on the machine slows every state alike; per-state
    # medians over the rounds
    times = {cfg: [] for cfg in states}
    for _ in range(40):
        for cfg, st in states.items():
            t0 = time.perf_counter()
            estimate(sql, st)
            times[cfg].append(time.perf_counter() - t0)
    lat = {cfg: 1000.0 * float(np.median(t)) for cfg, t in times.items()}
    per_query_ms = lat[(200, 20)]
    monotone_n = lat[(25, 0)] <= lat[(200, 0)] and lat[(25, 20)] <= lat[(200, 20)]
    # k sets the per-key work, two array passes over the key indexes of the
    # query's domains: too little wall time to order k = 0 and k = 20 at
    # n = 25, so the work itself is counted, the keys the estimate indexed
    keys = {cfg: sum(len(index.keys) for name, index in st.cache.items()
                     if name[0] == "index") for cfg, st in states.items()}
    monotone_k = keys[(25, 0)] < keys[(25, 20)] and keys[(200, 0)] < keys[(200, 20)]
    ok = per_query_ms <= 100 and monotone_n and monotone_k
    verdict(7, ok,
            f"5-table estimate at n=200,k=20 takes {per_query_ms:.1f}ms "
            f"(budget 100ms); median latency non-decreasing in n "
            f"({ {c: round(v, 2) for c, v in sorted(lat.items())} }); "
            f"indexed keys increasing in k ({dict(sorted(keys.items()))})")


def test_criterion_08_selectivity_correctness():
    rng = np.random.default_rng(41)
    n = 10_000
    keys = rng.integers(0, 101, size=n)
    y = rng.integers(0, 101, size=n)
    z = rng.integers(0, 101, size=n)
    y[0], y[1] = 0, 100  # pin attribute ranges so boundaries are integral
    z[0], z[1] = 0, 100
    from tkhist.catalog import KeyDomain
    d = KeyDomain(id="t.k", columns=frozenset({"t.k"}))
    d.set_boundaries(0, 100, 5)
    h_y = build_tkhist2d(keys, y, d, numeric_axis(y, 10))
    h_z = build_tkhist2d(keys, z, d, numeric_axis(z, 10))
    pred_y = Predicate("y", "<", 50)   # aligned with an attribute boundary
    pred_z = Predicate("z", ">=", 30)  # aligned as well

    fy = selectivity_2d(h_y, pred_y, integer=True, rows=h_y.key_marginal())
    kb = d.bins_of(keys)
    exact_single = True
    for i in range(5):
        mask = kb == i
        scan = np.mean(y[mask] < 50)
        exact_single = exact_single and fy[i] == scan

    fz = selectivity_2d(h_z, pred_z, integer=True, rows=h_z.key_marginal())
    combined = fy * fz  # conditional independence on the key bin
    within = True
    for i in range(5):
        mask = kb == i
        joint = np.mean((y[mask] < 50) & (z[mask] >= 30))
        rel = abs(combined[i] - joint) / joint
        within = within and rel <= 0.2
    verdict(8, exact_single and within,
            "boundary-aligned per-bin selectivity matches a full scan "
            "exactly; independent-attribute product within 20% of the joint "
            "scan in every key bin")


def test_criterion_09_oracle_integrity():
    failures = 0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n_tables = int(rng.integers(2, 4))
        names = [f"t{i}" for i in range(n_tables)]
        tables = {}
        for name in names:
            rows = int(rng.integers(10, 60))
            tables[name] = make_table(name, {
                "k": rng.integers(0, 10, size=rows).tolist(),
                "y": rng.integers(0, 6, size=rows).tolist()})
        edges = [(f"{names[i + 1]}.k", f"{names[0]}.k")
                 for i in range(n_tables - 1)]
        preds = []
        if rng.random() < 0.6:
            alias = names[int(rng.integers(0, n_tables))]
            preds.append(Predicate(f"{alias}.y", "<=", int(rng.integers(0, 6))))
        q = Query(aliases={a: a for a in names},
                  join_edges=edges, predicates=preds)
        if oracle_count(q, tables) != nested_loop_count(q, tables):
            failures += 1
    verdict(9, failures == 0,
            "hash-join oracle equals the independent nested-loop join on 50 "
            "random instances")


def test_criterion_10_metric_definitions():
    ok = (q_error(10, 100) == 10 and ratio(10, 100) == 0.1
          and q_error(200, 100) == 2 and ratio(200, 100) == 2
          and q_error(0, 100) == math.inf)
    verdict(10, ok, "q-error and ratio reproduce the hand examples "
                    "(10,100)->(10, 0.1) and (200,100)->(2, 2)")
