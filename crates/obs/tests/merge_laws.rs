//! Merge-law proptests: histogram and rollup merges must be
//! commutative and associative bit for bit, and sharded folds must
//! equal the single-stream fold — the algebra the fleet tier's
//! shard reduction leans on.

use proptest::prop_assert_eq;
use proptest::proptest;

use hars_obs::{Log2Histogram, MetricsConfig, MetricsEngine, MetricsRollup};

use hars_core::TelemetryEvent;

/// A cheap deterministic value stream (splitmix-style) from a seed.
fn values(seed: u64, n: usize) -> Vec<u64> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..n)
        .map(|_| {
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            // Mixed magnitudes: from the linear range to huge.
            x >> (x % 59)
        })
        .collect()
}

fn hist_of(vals: &[u64]) -> Log2Histogram {
    let mut h = Log2Histogram::new();
    for &v in vals {
        h.record(v);
    }
    h
}

/// A synthetic tenant event stream with per-seed shape variation.
fn tenant_events(seed: u64, tenants: u64) -> Vec<TelemetryEvent> {
    let mut evs = Vec::new();
    for tenant in 0..tenants {
        let t0 = seed.wrapping_add(tenant) % 1_000 * 1_000_000;
        let queued = (seed ^ tenant).is_multiple_of(3);
        if queued {
            evs.push(TelemetryEvent::AdmissionVerdict {
                t_ns: t0,
                tenant,
                verdict: "queue".into(),
            });
        }
        evs.push(TelemetryEvent::AdmissionVerdict {
            t_ns: t0 + 500,
            tenant,
            verdict: "admit".into(),
        });
        evs.push(TelemetryEvent::TenantAdmitted {
            t_ns: t0 + 500,
            tenant,
            bench: if tenant % 2 == 0 {
                "swaptions"
            } else {
                "blackscholes"
            }
            .into(),
            threads: 1 + tenant % 4,
            target_min: 4.0 + (tenant % 5) as f64,
            queue_wait_ns: if queued { 500 } else { 0 },
        });
        let beats = 3 + (seed ^ tenant) % 8;
        for i in 0..beats {
            let satisfied = !(seed.wrapping_add(tenant * 31 + i)).is_multiple_of(4);
            evs.push(TelemetryEvent::HeartbeatRate {
                t_ns: t0 + 1_000 + i * 100_000_000,
                tenant,
                rate_hz: 3.0 + (i % 7) as f64,
                satisfied,
            });
        }
        if tenant % 5 != 4 {
            evs.push(TelemetryEvent::TenantDeparted {
                t_ns: t0 + 2_000_000_000,
                tenant,
                heartbeats: beats,
            });
        }
    }
    evs
}

fn rollup_of(events: &[TelemetryEvent]) -> MetricsRollup {
    let mut e = MetricsEngine::new(MetricsConfig::default());
    for ev in events {
        e.observe(ev);
    }
    e.finish().rollup
}

proptest! {
    /// Histogram merge commutes: a∪b == b∪a, bit for bit.
    #[test]
    fn hist_merge_commutes(seed_a in 0u64..1_000_000, seed_b in 0u64..1_000_000) {
        let a = hist_of(&values(seed_a, 200));
        let b = hist_of(&values(seed_b, 150));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.render(), ba.render());
    }

    /// Histogram merge associates: (a∪b)∪c == a∪(b∪c).
    #[test]
    fn hist_merge_associates(seed in 0u64..1_000_000) {
        let a = hist_of(&values(seed, 100));
        let b = hist_of(&values(seed ^ 0xDEAD, 130));
        let c = hist_of(&values(seed ^ 0xBEEF, 70));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// Sharded histograms merged equal the single-stream histogram,
    /// for any shard count — so fleet percentiles equal the
    /// single-shard computation on the same observations.
    #[test]
    fn sharded_hist_equals_single_stream(seed in 0u64..1_000_000, shards in 1usize..9) {
        let vals = values(seed, 400);
        let whole = hist_of(&vals);
        let mut parts = vec![Log2Histogram::new(); shards];
        for (i, &v) in vals.iter().enumerate() {
            parts[i % shards].record(v);
        }
        let mut merged = Log2Histogram::new();
        for p in &parts {
            merged.merge(p);
        }
        prop_assert_eq!(&merged, &whole);
        prop_assert_eq!(merged.p50(), whole.p50());
        prop_assert_eq!(merged.p95(), whole.p95());
        prop_assert_eq!(merged.p99(), whole.p99());
    }

    /// Rollup merge commutes and matches the fold of the concatenated
    /// tenant stream (tenants partitioned across shards).
    #[test]
    fn rollup_merge_laws(seed in 0u64..1_000_000, tenants in 2u64..20) {
        let evs = tenant_events(seed, tenants);
        let whole = rollup_of(&evs);
        // Partition by tenant (each shard sees whole tenants, as the
        // fleet does).
        let shard_a: Vec<_> = evs
            .iter()
            .filter(|e| e.tenant().is_some_and(|t| t % 2 == 0))
            .cloned()
            .collect();
        let shard_b: Vec<_> = evs
            .iter()
            .filter(|e| e.tenant().is_some_and(|t| t % 2 == 1))
            .cloned()
            .collect();
        let (a, b) = (rollup_of(&shard_a), rollup_of(&shard_b));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(&ab, &whole);
        prop_assert_eq!(ab.render(), whole.render());
    }
}
