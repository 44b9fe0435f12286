//! The placement tier: routes each global arrival to one board of the
//! fleet, before any shard runs.
//!
//! Placement is a *sequential, deterministic pre-pass* over the global
//! tenant schedule: it sees arrivals in time order, keeps a per-board
//! ledger of estimated outstanding work, pre-screens each candidate
//! board through that board's own admission policy, and scores the
//! survivors by feasibility and projected load. The output — which
//! tenants land on which board — is therefore a pure function of the
//! fleet spec, independent of worker count or shard execution order,
//! which is what lets the worker pool run shards in any interleaving
//! and still reproduce the fleet outcome bit for bit.

use hars_core::{TelemetryEvent, TelemetrySink};
use hars_scenario::{AdmissionDecision, LoadEstimate, TenantSpec};
use hmp_sim::BoardSpec;

use crate::spec::FleetSpec;

/// The crude deterministic service-time proxy the ledger charges per
/// heartbeat of a placed tenant's budget (5 hb/s). Placement needs a
/// *consistent relative* load signal to spread work, not an accurate
/// absolute one — the shard's own admission policy re-screens every
/// arrival against the board's real load at run time.
pub(crate) const EST_NS_PER_HEARTBEAT: u64 = 200_000_000;

/// How arrivals are routed to boards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Route to the feasible, admitting board with the lowest projected
    /// load (claimed cores plus this tenant's threads, over capacity).
    /// Ties break toward the lower shard id.
    #[default]
    LeastLoaded,
    /// Rotate over the boards, skipping boards that reject; spreads
    /// tenant *count* rather than load.
    RoundRobin,
}

impl PlacementPolicy {
    /// Display name for report tables.
    pub fn name(&self) -> &'static str {
        match self {
            PlacementPolicy::LeastLoaded => "least-loaded",
            PlacementPolicy::RoundRobin => "round-robin",
        }
    }
}

/// A tenant's heartbeat budget: its spec's `max_heartbeats`, the one
/// copy the engine obeys. Failover rewrites it to the heartbeats left.
pub(crate) fn budget(ts: &TenantSpec) -> u64 {
    ts.spec
        .max_heartbeats
        .expect("a tenant's spec carries its heartbeat budget")
}

/// One board's outstanding-work ledger entry: a claim of `cores` until
/// the estimated completion instant.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Claim {
    pub(crate) expires_ns: u64,
    pub(crate) cores: usize,
}

impl Claim {
    /// The claim `ts`, arriving at `arrival_ns`, makes on `board`: its
    /// threads' cores (at most the board's) until the ledger's service-
    /// time proxy says its budget is served.
    pub(crate) fn new(arrival_ns: u64, ts: &TenantSpec, board: &BoardSpec) -> Self {
        Self {
            expires_ns: arrival_ns.saturating_add(budget(ts).saturating_mul(EST_NS_PER_HEARTBEAT)),
            cores: ts.spec.threads.min(board.n_cores()),
        }
    }
}

/// The per-board outstanding-work ledgers, shared between the initial
/// placement pass and the supervisor's failover re-placement.
#[derive(Debug)]
pub(crate) struct LedgerSet {
    claims: Vec<Vec<Claim>>,
}

impl LedgerSet {
    /// Empty ledgers for `n` boards.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            claims: vec![Vec::new(); n],
        }
    }

    /// Charges `claim` on `shard` — also how the supervisor seeds
    /// survivors' load before re-placing victims.
    pub(crate) fn charge(&mut self, shard: usize, claim: Claim) {
        self.claims[shard].push(claim);
    }

    /// Expires every claim held by a dead board: the work it was
    /// charged for will never be served there, so it must not distort
    /// load scores (the victims re-enter through failover placement).
    pub(crate) fn expire_board(&mut self, shard: usize) {
        self.claims[shard].clear();
    }
}

/// The routing decision for every tenant of the global schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Per-tenant board assignment (global schedule order); `None` for
    /// tenants every board's admission policy turned away.
    pub assignments: Vec<Option<usize>>,
    /// Tenants routed to each board, indexed by shard id.
    pub per_board: Vec<usize>,
    /// Tenants rejected fleet-wide at placement time.
    pub fleet_rejected: usize,
}

impl Placement {
    /// A deterministic digest of the whole routing (FNV-1a over
    /// `(tenant, board)` pairs) — folded into the fleet fingerprint so
    /// any placement drift is immediately visible.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = hars_core::fnv::FnvHasher::new();
        for (i, a) in self.assignments.iter().enumerate() {
            h.write(&(i as u64).to_le_bytes());
            h.write(&(a.map(|b| b as u64).unwrap_or(u64::MAX)).to_le_bytes());
        }
        h.finish()
    }
}

/// Routes every tenant of `schedule` to a board of `spec.boards`,
/// emitting one [`TelemetryEvent::Placement`] per arrival (rejected
/// arrivals carry `board = u64::MAX` and an infinite score, serialized
/// as `null`).
///
/// Each candidate board is screened through a fresh instance of *its
/// own* admission policy against the ledger's load estimate — the
/// feedback loop the shard repeats authoritatively at run time. A
/// `Queue` verdict still routes (the shard's policy will queue it); a
/// `Reject` sends the tenant to the next-best board; when every board
/// rejects, the tenant is fleet-rejected and reaches no shard.
pub fn place(
    spec: &FleetSpec,
    schedule: &[(u64, TenantSpec)],
    sink: &mut dyn TelemetrySink,
) -> Placement {
    let n = spec.boards.len();
    let ids: Vec<u64> = (0..schedule.len() as u64).collect();
    place_masked(
        spec,
        schedule,
        &ids,
        &vec![true; n],
        LedgerSet::new(n),
        sink,
    )
}

/// [`place`] restricted to `eligible` boards, over pre-seeded ledgers
/// — the supervisor's failover re-placement entry point. `tenant_ids`
/// carries the *global* tenant id of each schedule entry (failover
/// schedules are sparse subsets of the global one), used only for
/// telemetry. Ineligible (dead) boards have their ledger claims
/// expired up front and are never candidates; boards with zero
/// feasible capacity (no cores at all) are likewise skipped.
pub(crate) fn place_masked(
    spec: &FleetSpec,
    schedule: &[(u64, TenantSpec)],
    tenant_ids: &[u64],
    eligible: &[bool],
    mut ledgers: LedgerSet,
    sink: &mut dyn TelemetrySink,
) -> Placement {
    let n = spec.boards.len();
    let usable: Vec<bool> = (0..n)
        .map(|s| eligible[s] && spec.boards[s].board.n_cores() > 0)
        .collect();
    for (s, ok) in usable.iter().enumerate() {
        if !ok {
            ledgers.expire_board(s);
        }
    }
    let mut admissions: Vec<_> = spec.boards.iter().map(|b| b.build_admission()).collect();
    let mut assignments = Vec::with_capacity(schedule.len());
    let mut per_board = vec![0usize; n];
    let mut fleet_rejected = 0usize;
    let mut rr_cursor = 0usize;

    for (tenant, (arrival_ns, ts)) in schedule.iter().enumerate() {
        // Expire completed claims before scoring.
        for ledger in &mut ledgers.claims {
            ledger.retain(|c| c.expires_ns > *arrival_ns);
        }
        // Candidate order encodes the policy's preference; the first
        // candidate whose admission policy does not reject wins.
        let candidates = rank(spec, &ledgers.claims, *arrival_ns, ts, rr_cursor, &usable);
        let mut placed: Option<(usize, f64)> = None;
        for (shard, score) in candidates {
            let ledger = &ledgers.claims[shard];
            let load = load_estimate(&spec.boards[shard].board, ledger);
            if admissions[shard].decide(&load, 0) != AdmissionDecision::Reject {
                placed = Some((shard, score));
                break;
            }
        }
        match placed {
            Some((shard, score)) => {
                ledgers.charge(
                    shard,
                    Claim::new(*arrival_ns, ts, &spec.boards[shard].board),
                );
                per_board[shard] += 1;
                rr_cursor = (shard + 1) % n;
                assignments.push(Some(shard));
                sink.emit(&TelemetryEvent::Placement {
                    t_ns: *arrival_ns,
                    tenant: tenant_ids[tenant],
                    board: shard as u64,
                    score,
                });
            }
            None => {
                fleet_rejected += 1;
                assignments.push(None);
                sink.emit(&TelemetryEvent::Placement {
                    t_ns: *arrival_ns,
                    tenant: tenant_ids[tenant],
                    board: u64::MAX,
                    score: f64::INFINITY,
                });
            }
        }
    }
    Placement {
        assignments,
        per_board,
        fleet_rejected,
    }
}

/// Ranks the boards for one tenant: ascending score, feasible boards
/// (enough cores for the tenant's threads) strictly ahead of
/// infeasible ones, ties broken by shard id. Boards outside `usable`
/// (dead, or zero capacity) are never candidates. Returns
/// `(shard, score)` pairs in preference order.
fn rank(
    spec: &FleetSpec,
    ledgers: &[Vec<Claim>],
    arrival_ns: u64,
    ts: &TenantSpec,
    rr_cursor: usize,
    usable: &[bool],
) -> Vec<(usize, f64)> {
    let n = spec.boards.len();
    let projected = |shard: usize| -> f64 {
        let board = &spec.boards[shard].board;
        let claimed: usize = ledgers[shard].iter().map(|c| c.cores).sum();
        (claimed + Claim::new(arrival_ns, ts, board).cores) as f64 / board.n_cores() as f64
    };
    let feasible = |shard: usize| spec.boards[shard].board.n_cores() >= ts.spec.threads;
    match spec.placement {
        PlacementPolicy::LeastLoaded => {
            let mut ranked: Vec<(usize, f64)> = (0..n)
                .filter(|&s| usable[s])
                .map(|s| (s, projected(s)))
                .collect();
            // Infeasible boards sort behind every feasible one: a board
            // smaller than the tenant's thread count can still serve it
            // (the engine time-shares), but only as a last resort.
            ranked.sort_by(|a, b| {
                feasible(b.0)
                    .cmp(&feasible(a.0))
                    .then(a.1.total_cmp(&b.1))
                    .then(a.0.cmp(&b.0))
            });
            ranked
        }
        PlacementPolicy::RoundRobin => (0..n)
            .map(|i| (rr_cursor + i) % n)
            .filter(|&s| usable[s])
            .map(|s| (s, projected(s)))
            .collect(),
    }
}

/// Synthesizes the [`LoadEstimate`] a board's admission policy sees at
/// placement time from the ledger (uniform across clusters — the
/// ledger tracks whole-board claims).
fn load_estimate(board: &BoardSpec, ledger: &[Claim]) -> LoadEstimate {
    let claimed: usize = ledger.iter().map(|c| c.cores).sum();
    let total = claimed as f64 / board.n_cores() as f64;
    LoadEstimate {
        per_cluster: vec![total; board.n_clusters()],
        total,
        live_tenants: ledger.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FleetBoard, FleetSpec};
    use hars_core::NullSink;
    use hars_scenario::{AppTemplate, ArrivalProcess, TemplateSet};
    use workloads::Benchmark;

    /// A degenerate board with no clusters at all — zero feasible
    /// capacity.
    fn husk() -> BoardSpec {
        BoardSpec {
            clusters: Vec::new(),
            name: "husk".to_string(),
            ..BoardSpec::odroid_xu3()
        }
    }

    fn two_board_spec(first: BoardSpec, second: BoardSpec) -> FleetSpec {
        FleetSpec::new(
            vec![FleetBoard::new(first), FleetBoard::new(second)],
            ArrivalProcess::Poisson { rate_per_sec: 1.0 },
            TemplateSet::uniform(vec![AppTemplate::new(Benchmark::Swaptions)]),
            10_000_000_000,
            5,
        )
    }

    fn schedule(n: usize) -> Vec<(u64, TenantSpec)> {
        let t = AppTemplate::new(Benchmark::Swaptions);
        (0..n)
            .map(|i| (i as u64 * 1_000_000_000, t.instantiate(i as u64)))
            .collect()
    }

    #[test]
    fn zero_capacity_boards_are_never_candidates() {
        let spec = two_board_spec(husk(), BoardSpec::odroid_xu3());
        let sched = schedule(4);
        let p = place(&spec, &sched, &mut NullSink);
        assert!(
            p.assignments.iter().all(|a| *a == Some(1)),
            "every tenant must route around the zero-capacity board: {:?}",
            p.assignments
        );
        // A fleet of only husks cannot place anyone.
        let dead = two_board_spec(husk(), husk());
        let p = place(&dead, &sched, &mut NullSink);
        assert_eq!(p.fleet_rejected, sched.len());
        assert!(p.assignments.iter().all(|a| a.is_none()));
    }

    #[test]
    fn masked_boards_lose_claims_and_candidacy() {
        let spec = two_board_spec(BoardSpec::odroid_xu3(), BoardSpec::odroid_xu3());
        let sched = schedule(4);
        // Board 0 is dead and still holds stale claims; placement must
        // expire them and route everything to board 1.
        let mut ledgers = LedgerSet::new(2);
        ledgers.charge(
            0,
            Claim {
                expires_ns: u64::MAX,
                cores: 8,
            },
        );
        let ids: Vec<u64> = (10..14).collect();
        let p = place_masked(&spec, &sched, &ids, &[false, true], ledgers, &mut NullSink);
        assert!(
            p.assignments.iter().all(|a| *a == Some(1)),
            "dead board must not receive tenants: {:?}",
            p.assignments
        );
        assert_eq!(p.per_board, vec![0, 4]);
    }
}
