//! Fleet descriptions: which boards serve, under which runtime and
//! admission policy, fed by which global arrival stream.

use hars_core::policy::SearchPolicy;
use hars_scenario::{AdmissionPolicy, AdmissionSwap, ArrivalProcess, ScenarioRuntime, TemplateSet};
use hmp_sim::{BoardSpec, ClusterId, EngineConfig, FaultKind, FaultPlan, TimedFault};
use mp_hars::{mp_hars_e, mp_hars_i, MpHarsConfig};

use crate::placement::PlacementPolicy;

/// The SplitMix64 finalizer: a full-avalanche 64-bit mix.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives shard `shard_id`'s engine seed from the fleet master seed:
/// one SplitMix64 child stream per shard, so every board gets an
/// independent sensor-noise stream while the whole fleet stays a pure
/// function of the master seed. The derivation is positional (golden-
/// ratio stride, SplitMix64-finalized), so a shard's seed — and with
/// it the shard's entire outcome — does not depend on how many other
/// shards exist or which worker runs it.
pub fn shard_seed(master: u64, shard_id: u64) -> u64 {
    mix64(master.wrapping_add((shard_id.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Which runtime stack a fleet board serves tenants with — a compact,
/// plain-data descriptor instead of a built [`ScenarioRuntime`]
/// (which owns estimators and is rebuilt fresh inside each shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetRuntimeKind {
    /// Stock GTS at the maximum state (no manager).
    Gts,
    /// MP-HARS with the incremental policy, churn-tuned
    /// (5-heartbeat adaptation period).
    MpHarsI,
    /// MP-HARS with the strongest tractable policy for the board:
    /// exhaustive on ≤ 2 clusters, adaptive-beam beyond (the churn
    /// bench's rule — the 8-D exhaustive sweep on a 4-cluster server
    /// dominates wall time for no decision-quality gain).
    MpHarsAuto,
}

impl FleetRuntimeKind {
    /// Builds the runtime for one shard on `board`.
    pub fn build(&self, board: &BoardSpec) -> ScenarioRuntime {
        let tuned = |cfg: MpHarsConfig| MpHarsConfig {
            adapt_every: 5,
            ..cfg
        };
        match self {
            FleetRuntimeKind::Gts => ScenarioRuntime::Gts,
            FleetRuntimeKind::MpHarsI => ScenarioRuntime::mp_hars(board, tuned(mp_hars_i())),
            FleetRuntimeKind::MpHarsAuto => {
                if board.n_clusters() <= 2 {
                    ScenarioRuntime::mp_hars(board, tuned(mp_hars_e()))
                } else {
                    ScenarioRuntime::mp_hars(
                        board,
                        tuned(MpHarsConfig {
                            policy: SearchPolicy::adaptive_beam_default(),
                            ..mp_hars_e()
                        }),
                    )
                }
            }
        }
    }

    /// Display label for report tables.
    pub fn label(&self) -> &'static str {
        match self {
            FleetRuntimeKind::Gts => "GTS",
            FleetRuntimeKind::MpHarsI => "MP-HARS-I",
            FleetRuntimeKind::MpHarsAuto => "MP-HARS-auto",
        }
    }
}

/// One board of the fleet: the hardware, the runtime serving it, and
/// the admission policy guarding it. Each board is one *shard* — an
/// independent scenario run over the tenants the placement tier routes
/// to it.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetBoard {
    /// The simulated hardware.
    pub board: BoardSpec,
    /// The runtime stack serving this board.
    pub runtime: FleetRuntimeKind,
    /// The board's admission policy (a plain-data descriptor; each
    /// shard builds a fresh instance, and the placement tier builds its
    /// own to pre-screen arrivals).
    pub admission: AdmissionSwap,
}

impl FleetBoard {
    /// A board served by MP-HARS-auto behind `AlwaysAdmit`.
    pub fn new(board: BoardSpec) -> Self {
        Self {
            board,
            runtime: FleetRuntimeKind::MpHarsAuto,
            admission: AdmissionSwap::AlwaysAdmit,
        }
    }

    /// Builds this board's admission policy instance.
    pub fn build_admission(&self) -> Box<dyn AdmissionPolicy> {
        self.admission.build()
    }
}

/// How shards share (or don't share) the solo-rate calibration cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FleetCacheMode {
    /// One fleet-wide [`hars_scenario::SharedSoloRateCache`]: each
    /// unique `(board fingerprint, benchmark, threads, budget)`
    /// calibration runs once for the whole fleet. The default — and
    /// the fleet layer's wall-clock win.
    #[default]
    Shared,
    /// Every shard run calibrates into a fresh private cache (the
    /// naive pre-fleet serving baseline). Output-identical to
    /// [`Self::Shared`], strictly slower; kept for ablation and the
    /// equivalence proptest.
    PerShard,
}

/// Seeded fleet-wide fault model: a compact probabilistic description
/// from which each board derives one deterministic [`FaultPlan`].
///
/// Like [`shard_seed`], the derivation is *positional*: board `i`'s
/// plan is a pure function of `(fault seed, i)` — one SplitMix64 chain
/// per `(board, channel, slot)` — so a board's faults do not depend on
/// fleet size, worker count or which other channels fired. Probability
/// `0.0` on every channel (or `FleetSpec::faults = None`) yields empty
/// plans and a bit-identical fault-free run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetFaultSpec {
    /// Fault-plane master seed, independent of the workload seed so
    /// the same tenant stream can be replayed under different fault
    /// schedules.
    pub seed: u64,
    /// Per-board probability of a mid-run whole-board failure.
    pub board_fail_prob: f64,
    /// Per-cluster probability of a windowed thermal cap
    /// ([`FaultKind::ClusterCap`]).
    pub cluster_cap_prob: f64,
    /// Per-cluster probability of a windowed full quarantine
    /// ([`FaultKind::ClusterOffline`]).
    pub cluster_offline_prob: f64,
    /// Per-board probability of a windowed power-sensor fault; a
    /// derived coin picks dropout vs stuck-at.
    pub sensor_fault_prob: f64,
    /// Per-board probability of a windowed heartbeat stall.
    pub hb_stall_prob: f64,
    /// Whether the pool's shard supervisor fails tenants of dead
    /// boards over onto survivors (off = report-only). A victim
    /// re-arrives after a backoff of 500 ms, doubled per attempt, and
    /// is lost after three attempts.
    pub failover: bool,
}

impl FleetFaultSpec {
    /// A fault spec with every channel at probability zero and
    /// failover on.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            board_fail_prob: 0.0,
            cluster_cap_prob: 0.0,
            cluster_offline_prob: 0.0,
            sensor_fault_prob: 0.0,
            hb_stall_prob: 0.0,
            failover: true,
        }
    }

    /// One positional draw: a full-avalanche function of
    /// `(seed, board, channel, slot)`.
    fn draw(&self, board: u64, channel: u64, slot: u64) -> u64 {
        let b = mix64(self.seed ^ (board.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let c = mix64(b ^ (channel.wrapping_add(1)).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        mix64(c ^ (slot.wrapping_add(1)).wrapping_mul(0x1656_67B1_9E37_79F9))
    }

    /// Maps a draw to the unit interval (53 mantissa bits).
    fn unit(x: u64) -> f64 {
        (x >> 11) as f64 / 9_007_199_254_740_992.0
    }

    /// `true` when the `(board, channel)` coin under probability `p`
    /// comes up faulty.
    fn fires(&self, board: u64, channel: u64, slot: u64, p: f64) -> bool {
        p > 0.0 && Self::unit(self.draw(board, channel, slot)) < p
    }

    /// A fault window inside the horizon: onset in the 20–65 % band
    /// (after ramp-up, with room to recover), lasting 10–30 % of the
    /// horizon.
    fn window(&self, board: u64, channel: u64, slot: u64, horizon_ns: u64) -> (u64, u64) {
        let h = horizon_ns as f64;
        let at = h * (0.20 + 0.45 * Self::unit(self.draw(board, channel, slot.wrapping_add(100))));
        let len = h * (0.10 + 0.20 * Self::unit(self.draw(board, channel, slot.wrapping_add(200))));
        let at_ns = at as u64;
        (at_ns, at_ns.saturating_add(len as u64).min(horizon_ns))
    }

    /// Materializes board `board_idx`'s deterministic fault plan.
    pub fn plan_for(&self, board_idx: usize, n_clusters: usize, horizon_ns: u64) -> FaultPlan {
        const CH_BOARD_FAIL: u64 = 1;
        const CH_CLUSTER_CAP: u64 = 2;
        const CH_CLUSTER_OFFLINE: u64 = 3;
        const CH_SENSOR: u64 = 4;
        const CH_HB_STALL: u64 = 5;
        let b = board_idx as u64;
        let mut faults = Vec::new();
        if self.fires(b, CH_BOARD_FAIL, 0, self.board_fail_prob) {
            // Mid-run death: late enough to have in-flight tenants,
            // early enough for failover retries to land in-horizon.
            let h = horizon_ns as f64;
            let at = h * (0.30 + 0.40 * Self::unit(self.draw(b, CH_BOARD_FAIL, 101)));
            faults.push(TimedFault {
                at_ns: at as u64,
                kind: FaultKind::BoardFail,
            });
        }
        for c in 0..n_clusters {
            let slot = c as u64;
            if self.fires(b, CH_CLUSTER_CAP, slot, self.cluster_cap_prob) {
                let (at_ns, until_ns) = self.window(b, CH_CLUSTER_CAP, slot, horizon_ns);
                faults.push(TimedFault {
                    at_ns,
                    kind: FaultKind::ClusterCap {
                        cluster: ClusterId(c),
                        until_ns,
                    },
                });
            }
            if self.fires(b, CH_CLUSTER_OFFLINE, slot, self.cluster_offline_prob) {
                let (at_ns, until_ns) = self.window(b, CH_CLUSTER_OFFLINE, slot, horizon_ns);
                faults.push(TimedFault {
                    at_ns,
                    kind: FaultKind::ClusterOffline {
                        cluster: ClusterId(c),
                        until_ns,
                    },
                });
            }
        }
        if self.fires(b, CH_SENSOR, 0, self.sensor_fault_prob) {
            let (at_ns, until_ns) = self.window(b, CH_SENSOR, 0, horizon_ns);
            let kind = if self.draw(b, CH_SENSOR, 300) & 1 == 0 {
                FaultKind::SensorDropout { until_ns }
            } else {
                FaultKind::SensorStuck { until_ns }
            };
            faults.push(TimedFault { at_ns, kind });
        }
        if self.fires(b, CH_HB_STALL, 0, self.hb_stall_prob) {
            let (at_ns, until_ns) = self.window(b, CH_HB_STALL, 0, horizon_ns);
            faults.push(TimedFault {
                at_ns,
                kind: FaultKind::HeartbeatStall { until_ns },
            });
        }
        FaultPlan::new(faults)
    }
}

/// A complete fleet-serving description: the boards, the global tenant
/// stream, the placement policy routing arrivals to boards, and the
/// cache mode.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// The fleet, indexed by shard id.
    pub boards: Vec<FleetBoard>,
    /// The global arrival process (one stream for the whole fleet; the
    /// placement tier fans it out).
    pub arrivals: ArrivalProcess,
    /// Tenant blueprints arrivals are drawn from.
    pub templates: TemplateSet,
    /// Scenario horizon (ns), shared by every shard.
    pub horizon_ns: u64,
    /// Master seed: arrival instants, template draws and per-shard
    /// engine seeds (via [`shard_seed`]) all derive from it.
    pub seed: u64,
    /// Solo calibration heartbeat budget (cache key component).
    pub solo_budget: u64,
    /// SLO guard band, shared by every shard
    /// ([`hars_scenario::ScenarioSpec::target_guard`]).
    pub target_guard: f64,
    /// Base engine configuration; each shard runs
    /// `EngineConfig { seed: shard_seed(seed, id), ..engine }`.
    pub engine: EngineConfig,
    /// How arrivals are routed to boards.
    pub placement: PlacementPolicy,
    /// Calibration-cache sharing mode.
    pub cache: FleetCacheMode,
    /// The fleet's fault model; `None` (the default) disables the
    /// fault plane entirely — no plans, no supervision, bit-identical
    /// to pre-fault-plane runs.
    pub faults: Option<FleetFaultSpec>,
}

impl FleetSpec {
    /// A fleet spec with the default 60-heartbeat solo budget, no
    /// guard, default engine config, least-loaded placement and the
    /// shared cache.
    pub fn new(
        boards: Vec<FleetBoard>,
        arrivals: ArrivalProcess,
        templates: TemplateSet,
        horizon_ns: u64,
        seed: u64,
    ) -> Self {
        assert!(!boards.is_empty(), "a fleet needs at least one board");
        Self {
            boards,
            arrivals,
            templates,
            horizon_ns,
            seed,
            solo_budget: 60,
            target_guard: 0.0,
            engine: EngineConfig::default(),
            placement: PlacementPolicy::LeastLoaded,
            cache: FleetCacheMode::Shared,
            faults: None,
        }
    }

    /// Board `shard`'s fault plan under the spec's fault model (empty
    /// when the fault plane is off).
    pub fn fault_plan(&self, shard: usize) -> FaultPlan {
        match &self.faults {
            Some(f) => f.plan_for(
                shard,
                self.boards[shard].board.n_clusters(),
                self.horizon_ns,
            ),
            None => FaultPlan::empty(),
        }
    }

    /// Materializes the fleet's global tenant schedule — the same
    /// derivation as [`hars_scenario::ScenarioSpec::tenant_schedule`],
    /// so tenant `i` of a fleet run is bit-identical to tenant `i` of
    /// the equivalent single-board scenario. Placement routes these to
    /// boards; it never changes who arrives or when.
    pub fn tenant_schedule(&self) -> Vec<(u64, hars_scenario::TenantSpec)> {
        hars_scenario::ScenarioSpec {
            arrivals: self.arrivals.clone(),
            templates: self.templates.clone(),
            horizon_ns: self.horizon_ns,
            seed: self.seed,
            solo_budget: self.solo_budget,
            target_guard: self.target_guard,
            events: Vec::new(),
        }
        .tenant_schedule()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..256).map(|i| shard_seed(42, i)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 256, "child seeds must not collide");
        assert_eq!(
            seeds,
            (0..256).map(|i| shard_seed(42, i)).collect::<Vec<_>>()
        );
        assert_ne!(shard_seed(42, 0), shard_seed(43, 0));
    }

    #[test]
    fn fault_plans_are_positional_and_seed_sensitive() {
        let mut f = FleetFaultSpec::new(99);
        f.board_fail_prob = 0.5;
        f.cluster_cap_prob = 0.5;
        f.sensor_fault_prob = 0.5;
        let a = f.plan_for(3, 4, 60_000_000_000);
        // Same (seed, board): identical plan, independent of anything else.
        assert_eq!(a, f.plan_for(3, 4, 60_000_000_000));
        // Some board in a modest fleet must draw at least one fault at
        // these probabilities, and a different seed must reshuffle.
        let total: usize = (0..8).map(|b| f.plan_for(b, 4, 60_000_000_000).len()).sum();
        assert!(total > 0, "p=0.5 channels over 8 boards must fire");
        let mut g = f;
        g.seed = 100;
        assert_ne!(
            (0..8)
                .map(|b| f.plan_for(b, 4, 60_000_000_000))
                .collect::<Vec<_>>(),
            (0..8)
                .map(|b| g.plan_for(b, 4, 60_000_000_000))
                .collect::<Vec<_>>(),
        );
        // Zero probabilities are inert regardless of seed.
        let off = FleetFaultSpec::new(99);
        assert!((0..8).all(|b| off.plan_for(b, 4, 60_000_000_000).is_empty()));
    }

    #[test]
    fn fault_windows_stay_inside_the_horizon() {
        let mut f = FleetFaultSpec::new(7);
        f.board_fail_prob = 1.0;
        f.cluster_cap_prob = 1.0;
        f.cluster_offline_prob = 1.0;
        f.sensor_fault_prob = 1.0;
        f.hb_stall_prob = 1.0;
        let horizon = 30_000_000_000;
        for b in 0..8 {
            let plan = f.plan_for(b, 3, horizon);
            assert_eq!(plan.len(), 3 + 2 * 3, "every channel fires at p=1");
            for fault in plan.iter() {
                let at = fault.at_ns;
                assert!(at < horizon, "onset {at} past horizon");
            }
        }
    }

    #[test]
    fn auto_runtime_picks_policy_by_cluster_count() {
        let small = FleetRuntimeKind::MpHarsAuto.build(&BoardSpec::odroid_xu3());
        let big = FleetRuntimeKind::MpHarsAuto.build(&BoardSpec::server_4c_32core());
        assert_eq!(small.label(), "MP-HARS-E");
        assert_eq!(big.label(), "MP-HARS-B");
    }
}
