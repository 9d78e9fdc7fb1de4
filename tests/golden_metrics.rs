//! Golden `/metrics` exposition: both output formats of
//! [`Metrics`], rendered from a fully populated registry and from a fresh
//! one, compared byte for byte against `tests/golden/metrics_*`.
//!
//! Dashboards and scrapers parse these bytes, so any change to a family
//! name, HELP text, label, JSON key or ordering shows up here first. The
//! golden files were written by the hand-written renderers that preceded
//! the table-driven ones.

use std::sync::atomic::{AtomicU64, Ordering};

use dclab::core::bounds::BoundKind;
use dclab::engine::{OracleStats, Strategy};
use dclab_serve::cache::CacheCounters;
use dclab_serve::metrics::{Metrics, StoreGauges, GAP_BUCKETS};

/// Every atomic gets its own value (so a row reading the wrong field or
/// two swapped rows cannot go unnoticed); the histograms get samples on
/// and around their bucket boundaries.
fn populated() -> Metrics {
    let m = Metrics::default();
    let mut next = 100u64;
    let mut set = |a: &AtomicU64| {
        next += 7;
        a.store(next, Ordering::Relaxed);
    };
    for a in [
        &m.requests_total,
        &m.solve_requests,
        &m.batch_requests,
        &m.health_requests,
        &m.metrics_requests,
        &m.responses_2xx,
        &m.responses_4xx,
        &m.responses_5xx,
        &m.rejected_overload,
        &m.solve_timeouts,
        &m.slow_solves,
        &m.store_hits,
        &m.store_misses,
        &m.store_appends,
        &m.store_warm_boot,
        &m.store_flushes,
        &m.conns_accepted,
        &m.conns_open,
        &m.conns_reaped,
        &m.rejected_conn_budget,
        &m.pool_queue_depth,
        &m.pool_in_flight,
        &m.pool_workers,
        &m.cluster_replicas,
        &m.cluster_local,
        &m.cluster_forwarded,
        &m.cluster_received,
        &m.cluster_fallback,
    ] {
        set(a);
    }
    for a in m
        .per_strategy
        .iter()
        .chain(m.race_wins.iter())
        .chain(m.bound_kinds.iter())
    {
        set(a);
    }
    m.cluster_enabled.store(1, Ordering::Relaxed);
    assert_eq!(m.per_strategy.len(), Strategy::CONCRETE.len());
    assert_eq!(m.bound_kinds.len(), BoundKind::ALL.len());

    for &le in &GAP_BUCKETS {
        m.record_bound(BoundKind::OneTree, Some(le));
    }
    m.record_bound(BoundKind::HkAscent, Some(0.25));

    m.solve_latency.record_us(0);
    for k in [0u32, 1, 5, 10, 17, 30] {
        m.solve_latency.record_us(1 << k);
    }
    m.solve_latency.record_us(1 << 31);
    m.solve_latency.record_us(1 << 40);

    for (phase, us) in [
        ("instance_parse", 12u64),
        ("canon", 40),
        ("request", 900),
        ("request", 1_500),
        ("lk", 256),
        ("oracle_build", 70_000),
        ("not-a-registered-phase", 5),
    ] {
        m.record_phase(phase, us);
    }

    m.record_oracle(
        &OracleStats {
            backend: "hub".into(),
            builds: 1,
            label_entries: 4_321,
            footprint_bytes: 98_765,
            queries: 1_234,
            dense_fallback: false,
        },
        97,
    );
    m.record_oracle(
        &OracleStats {
            backend: "dense".into(),
            builds: 1,
            label_entries: 0,
            footprint_bytes: 400,
            queries: 55,
            dense_fallback: true,
        },
        10,
    );
    m
}

fn cache_counters() -> CacheCounters {
    CacheCounters {
        hits: 9_001,
        misses: 9_002,
        coalesced: 9_003,
        evictions: 9_004,
        entries: 9_005,
        bytes: 9_006,
    }
}

const STORE: StoreGauges = StoreGauges {
    entries: 8_001,
    bytes: 8_002,
    generation: 8_003,
};

/// Compare line by line first, so a mismatch names the first line that
/// moved instead of dumping both documents.
fn assert_golden(got: &str, want: &str, file: &str) {
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{file}: line {}", i + 1);
    }
    assert_eq!(got, want, "{file}: trailing lines differ");
}

#[test]
fn populated_metrics_match_golden_with_store() {
    let m = populated();
    assert_golden(
        &m.to_prometheus(cache_counters(), Some(STORE)),
        include_str!("golden/metrics_store.prom"),
        "metrics_store.prom",
    );
    assert_golden(
        &m.to_json(cache_counters(), Some(STORE)),
        include_str!("golden/metrics_store.json"),
        "metrics_store.json",
    );
}

#[test]
fn populated_metrics_match_golden_without_store() {
    let m = populated();
    assert_golden(
        &m.to_prometheus(cache_counters(), None),
        include_str!("golden/metrics_nostore.prom"),
        "metrics_nostore.prom",
    );
    assert_golden(
        &m.to_json(cache_counters(), None),
        include_str!("golden/metrics_nostore.json"),
        "metrics_nostore.json",
    );
}

#[test]
fn fresh_metrics_match_golden() {
    let m = Metrics::default();
    assert_golden(
        &m.to_prometheus(CacheCounters::default(), None),
        include_str!("golden/metrics_default.prom"),
        "metrics_default.prom",
    );
    assert_golden(
        &m.to_json(CacheCounters::default(), None),
        include_str!("golden/metrics_default.json"),
        "metrics_default.json",
    );
}
