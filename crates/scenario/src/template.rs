//! App templates: what each arriving tenant runs.
//!
//! A template is a parameterized draw over the `workloads` crate: a
//! PARSEC-analog benchmark, a thread count, a heartbeat budget (the
//! tenant's "job size") and a performance target expressed as a
//! fraction of the benchmark's *isolated* rate on the board. Each
//! instantiation jitters the size and target fraction (deterministic,
//! SplitMix64-seeded), so every arrival is a distinct tenant rather
//! than a clone.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hmp_sim::AppSpec;
use workloads::Benchmark;

/// Relative jitter on a template's heartbeat budget: each tenant's
/// budget is drawn uniformly from
/// `heartbeats · [1 − SIZE_JITTER, 1 + SIZE_JITTER]`.
const SIZE_JITTER: f64 = 0.25;

/// A parameterized tenant blueprint.
#[derive(Debug, Clone, PartialEq)]
pub struct AppTemplate {
    /// The PARSEC-analog the tenant runs.
    pub bench: Benchmark,
    /// Thread count passed to [`Benchmark::spec`] (the paper runs 8).
    pub threads: usize,
    /// Base heartbeat budget (the tenant departs after this many):
    /// each tenant's budget is drawn uniformly from
    /// `heartbeats · [0.75, 1.25]`.
    pub heartbeats: u64,
    /// Target rate as a fraction of the benchmark's isolated
    /// (solo, maximum-state) rate on the board.
    pub target_frac: f64,
    /// Absolute jitter on `target_frac`: drawn uniformly from
    /// `target_frac ± target_jitter`.
    pub target_jitter: f64,
    /// Half-width of the target band relative to its center (the
    /// `PerfTarget::from_center` tolerance).
    pub target_tolerance: f64,
}

impl AppTemplate {
    /// A sane default template for `bench`: 8 threads, 120-heartbeat
    /// jobs ±25%, a 50%-of-solo target ±5% with a ±10% band.
    pub fn new(bench: Benchmark) -> Self {
        Self {
            bench,
            threads: 8,
            heartbeats: 120,
            target_frac: 0.5,
            target_jitter: 0.05,
            target_tolerance: 0.10,
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters (templates are static
    /// experiment configuration; a bad one is a programming error).
    pub fn assert_valid(&self) {
        assert!(self.threads > 0, "template needs threads");
        assert!(self.heartbeats > 0, "template needs a heartbeat budget");
        assert!(
            self.target_frac > 0.0 && self.target_frac - self.target_jitter > 0.0,
            "target fraction (minus jitter) must stay positive"
        );
        assert!(
            (0.0..1.0).contains(&self.target_tolerance),
            "target tolerance must be in [0, 1)"
        );
    }

    /// Instantiates one tenant from this template. `draw_seed` folds the
    /// scenario seed and the tenant index, so tenant `i` of a scenario
    /// is reproducible in isolation. The jittered heartbeat budget
    /// always lands in the spec's `max_heartbeats`.
    pub fn instantiate(&self, draw_seed: u64) -> TenantSpec {
        self.assert_valid();
        let mut rng = StdRng::seed_from_u64(draw_seed);
        let size_scale = 1.0 + SIZE_JITTER * (rng.random_range(0.0..2.0) - 1.0);
        let budget = ((self.heartbeats as f64 * size_scale).round() as u64).max(1);
        let target_frac =
            self.target_frac + self.target_jitter * (rng.random_range(0.0..2.0) - 1.0);
        // A fresh workload seed per tenant: distinct phase/noise
        // schedules even for tenants of the same template.
        let spec = self
            .bench
            .spec_with_budget(self.threads, rng.next_u64(), budget);
        TenantSpec {
            spec,
            bench: self.bench,
            target_frac,
            target_tolerance: self.target_tolerance,
        }
    }
}

/// A weighted set of templates the arrival process draws tenants from.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateSet {
    templates: Vec<(f64, AppTemplate)>,
}

impl TemplateSet {
    /// A set with uniform weights.
    ///
    /// # Panics
    ///
    /// Panics on an empty template list.
    pub fn uniform(templates: Vec<AppTemplate>) -> Self {
        Self::weighted(templates.into_iter().map(|t| (1.0, t)).collect())
    }

    /// A set with explicit positive weights.
    ///
    /// # Panics
    ///
    /// Panics on an empty list or non-positive weights.
    pub fn weighted(templates: Vec<(f64, AppTemplate)>) -> Self {
        assert!(!templates.is_empty(), "need at least one template");
        assert!(
            templates.iter().all(|(w, _)| w.is_finite() && *w > 0.0),
            "weights must be positive"
        );
        for (_, t) in &templates {
            t.assert_valid();
        }
        Self { templates }
    }

    /// The templates in the set.
    pub fn templates(&self) -> impl Iterator<Item = &AppTemplate> {
        self.templates.iter().map(|(_, t)| t)
    }

    /// Draws one template by weight using `rng`.
    pub fn draw(&self, rng: &mut StdRng) -> &AppTemplate {
        let total: f64 = self.templates.iter().map(|(w, _)| w).sum();
        let mut x = rng.random_range(0.0..total);
        for (w, t) in &self.templates {
            if x < *w {
                return t;
            }
            x -= w;
        }
        &self.templates.last().expect("non-empty").1
    }
}

/// One concrete tenant: a validated [`AppSpec`] plus the target recipe
/// the driver resolves against the benchmark's isolated rate.
///
/// The spec is the only copy of the tenant's size: `spec.threads` is
/// the OS thread count the engine spawns and the manager registers
/// (for ferret, `4n + 2` pipeline threads, not the template's `n`),
/// and `spec.max_heartbeats` is the heartbeat budget after jitter. A
/// tenant failed over to another board carries only the heartbeats it
/// has left there.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// The application the engine will run.
    pub spec: AppSpec,
    /// The source benchmark (for solo-rate caching and reporting).
    pub bench: Benchmark,
    /// Target rate as a fraction of the isolated rate, after jitter.
    pub target_frac: f64,
    /// Target band half-width relative to the center.
    pub target_tolerance: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instantiation_is_deterministic_per_seed() {
        let t = AppTemplate::new(Benchmark::Swaptions);
        let a = t.instantiate(11);
        let b = t.instantiate(11);
        assert_eq!(a, b);
        let c = t.instantiate(12);
        assert!(
            a.target_frac != c.target_frac || a.spec != c.spec,
            "different draws must differ somewhere"
        );
    }

    #[test]
    fn jitter_stays_in_bounds() {
        let t = AppTemplate::new(Benchmark::Bodytrack);
        for seed in 0..200 {
            let ts = t.instantiate(seed);
            let lo = (t.heartbeats as f64 * (1.0 - SIZE_JITTER)).floor() as u64;
            let hi = (t.heartbeats as f64 * (1.0 + SIZE_JITTER)).ceil() as u64;
            let budget = ts.spec.max_heartbeats.expect("tenants have a budget");
            assert!((lo..=hi).contains(&budget), "budget {budget}");
            assert!(
                (t.target_frac - t.target_jitter..=t.target_frac + t.target_jitter)
                    .contains(&ts.target_frac)
            );
            assert!(ts.spec.validate().is_ok());
        }
    }

    #[test]
    fn pipeline_tenants_register_their_real_os_thread_count() {
        // Ferret's `-n 4` spawns 4·4 + 2 = 18 OS threads; the tenant
        // must carry the spec's real count, or the manager pins only a
        // prefix of the threads.
        let t = AppTemplate {
            threads: 4,
            ..AppTemplate::new(Benchmark::Ferret)
        };
        let ts = t.instantiate(3);
        assert_eq!(ts.spec.threads, 18);
    }

    #[test]
    fn weighted_draws_respect_weights() {
        let heavy = AppTemplate::new(Benchmark::Facesim);
        let light = AppTemplate::new(Benchmark::Blackscholes);
        let set = TemplateSet::weighted(vec![(9.0, heavy.clone()), (1.0, light)]);
        let mut rng = StdRng::seed_from_u64(5);
        let n_heavy = (0..1_000)
            .filter(|_| set.draw(&mut rng).bench == heavy.bench)
            .count();
        assert!((800..=980).contains(&n_heavy), "drew heavy {n_heavy}/1000");
    }

    #[test]
    #[should_panic(expected = "at least one template")]
    fn empty_set_panics() {
        let _ = TemplateSet::uniform(vec![]);
    }
}
