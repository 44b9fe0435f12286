//! CONS-I — the conservative incremental adaptation baseline
//! (Section 5.2.1, built on the "naive model" of Section 4.1.1).
//!
//! CONS-I manages one *global* system state shared by every application:
//! all apps share **all cores** (scheduled by GTS) and both cluster
//! frequencies — the paper's behavior graphs (Figure 5.5) show the core
//! counts pinned at 4/4 while only the frequencies walk, so the ranked
//! state list holds the frequency pairs at full core counts. It
//! performs **no estimation**; states are sorted by the performance
//! score
//!
//! ```text
//! perfScore = C_B · r₀ · (f_B / f₀) + C_L · (f_L / f₀)
//! ```
//!
//! and every adaptation moves one step up or down this list ("the
//! candidate system state that makes the smallest system performance
//! change"). Decisions follow the conservative Table 4.3 rules with a
//! global frozen flag: increase whenever anyone under-performs; decrease
//! only when everyone over-performs; every decrease freezes adaptation
//! until all apps collect fresh data.

use heartbeats::{AppId, PerfTarget};
use hmp_sim::{BoardSpec, ClusterId, CpuSet, FreqKhz};

use hars_core::{StateSpace, SystemState};

use crate::app_data::PerfClass;
use crate::freeze::{combine_others, decide, FreezeDecision, StateDecision};

/// Assumed big/little performance ratio `r₀` for the score.
const R0: f64 = 1.5;

// Adaptation every rate window (10 heartbeats) and a one-window
// post-decrease freeze: each decision sees a fresh windowed rate and
// increases/decreases are rate-symmetric. Faster cadences decide on
// stale windows and ratchet the state upward (each noise-induced dip
// under `t.min` triggers an INC, while DECs stay freeze-gated).

/// Per-app adaptation period (heartbeats).
const ADAPT_EVERY: u64 = 10;
/// Freezing count armed after a decrease.
const FREEZE_HEARTBEATS: u32 = 10;
/// Modeled CPU cost per heartbeat observation (ns).
const COST_PER_HEARTBEAT_NS: u64 = 500;

/// A global state change: the allowed core set and frequencies apply to
/// **every** application.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsDecision {
    /// New global system state.
    pub state: SystemState,
    /// Cores every thread of every app may run on (GTS balances inside).
    pub allowed_cores: CpuSet,
    /// Modeled decision latency (ns).
    pub overhead_ns: u64,
}

#[derive(Debug, Clone)]
struct ConsApp {
    app: AppId,
    target: PerfTarget,
    last_rate: Option<f64>,
    freezing_cnt: u32,
}

/// The CONS-I manager.
#[derive(Debug, Clone)]
pub struct ConsIManager {
    board: BoardSpec,
    /// The board's nominal per-cluster ratios (the score's
    /// interpolation anchors).
    nominals: Vec<f64>,
    /// All states sorted ascending by `perfScore` (ties broken
    /// deterministically by the state tuple).
    ranked: Vec<SystemState>,
    /// Index of the current state in `ranked`.
    cursor: usize,
    apps: Vec<ConsApp>,
    busy_ns: u64,
    adaptations: u64,
}

impl ConsIManager {
    /// Builds the manager; the initial state is the maximum state (the
    /// top of the score list), matching the baseline boot configuration.
    pub fn new(board: &BoardSpec) -> Self {
        let space = StateSpace::from_board(board);
        let base = board.base_freq;
        let nominals: Vec<f64> = board.cluster_ids().map(|c| board.perf_ratio(c)).collect();
        // Frequency combinations only, at full core counts (see module
        // docs).
        let mut ranked: Vec<SystemState> = space
            .iter_all()
            .filter(|s| {
                board
                    .cluster_ids()
                    .all(|c| s.cores(c) == board.cluster_size(c))
            })
            .collect();
        ranked.sort_by(|a, b| {
            let sa = perf_score(a, R0, base, &nominals);
            let sb = perf_score(b, R0, base, &nominals);
            sa.partial_cmp(&sb)
                .expect("scores are finite")
                .then_with(|| {
                    // Deterministic tie-break: core counts then
                    // frequencies, highest cluster index first (the
                    // paper's big-before-little tuple order).
                    let key = |s: &SystemState| {
                        let mut k = Vec::with_capacity(2 * s.n_clusters());
                        for i in (0..s.n_clusters()).rev() {
                            k.push(s.cores(ClusterId(i)) as u64);
                        }
                        for i in (0..s.n_clusters()).rev() {
                            k.push(s.freq(ClusterId(i)).khz() as u64);
                        }
                        k
                    };
                    key(a).cmp(&key(b))
                })
        });
        let cursor = ranked.len() - 1;
        Self {
            board: board.clone(),
            nominals,
            ranked,
            cursor,
            apps: Vec::new(),
            busy_ns: 0,
            adaptations: 0,
        }
    }

    /// Registers an application.
    pub fn register_app(&mut self, app: AppId, target: PerfTarget) {
        self.apps.push(ConsApp {
            app,
            target,
            last_rate: None,
            freezing_cnt: 0,
        });
    }

    /// Removes an application from the decision set.
    pub fn unregister_app(&mut self, app: AppId) {
        self.apps.retain(|a| a.app != app);
    }

    /// The current global state.
    pub fn state(&self) -> SystemState {
        self.ranked[self.cursor]
    }

    /// Modeled manager CPU time (ns).
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Applied state changes.
    pub fn adaptations(&self) -> u64 {
        self.adaptations
    }

    /// Whether the global frozen flag is set.
    pub fn frozen(&self) -> bool {
        self.apps.iter().any(|a| a.freezing_cnt > 0)
    }

    /// One heartbeat of `app`.
    pub fn on_heartbeat(
        &mut self,
        app: AppId,
        hb_index: u64,
        rate: Option<f64>,
    ) -> Option<ConsDecision> {
        self.busy_ns += COST_PER_HEARTBEAT_NS;
        let ai = self.apps.iter().position(|a| a.app == app)?;
        self.apps[ai].freezing_cnt = self.apps[ai].freezing_cnt.saturating_sub(1);
        if let Some(r) = rate {
            self.apps[ai].last_rate = Some(r);
        }
        if !(hb_index > 0 && hb_index.is_multiple_of(ADAPT_EVERY)) {
            return None;
        }
        let rate = rate?;
        if !self.apps[ai].target.needs_adaptation(rate) {
            return None;
        }
        let me = PerfClass::of(&self.apps[ai].target, rate);
        let others = combine_others(
            self.apps
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != ai)
                .map(|(_, a)| a.last_rate.map(|r| PerfClass::of(&a.target, r))),
        );
        let (state_dec, freeze_dec) = decide(me, others, self.frozen());
        match freeze_dec {
            FreezeDecision::Unfreeze => {
                for a in &mut self.apps {
                    a.freezing_cnt = 0;
                }
            }
            FreezeDecision::Freeze => {
                // Applied below, together with the decrease.
            }
            FreezeDecision::Keep => {}
        }
        let base = self.board.base_freq;
        let cur_score = perf_score(&self.ranked[self.cursor], R0, base, &self.nominals);
        // "The candidate system state that makes the smallest system
        // performance change": the nearest state with a strictly
        // different score (many states tie on score; a tie would be no
        // change at all).
        let next = match state_dec {
            StateDecision::Inc => {
                let mut i = self.cursor;
                loop {
                    if i + 1 >= self.ranked.len() {
                        return None;
                    }
                    i += 1;
                    if perf_score(&self.ranked[i], R0, base, &self.nominals) > cur_score + 1e-9 {
                        break i;
                    }
                }
            }
            StateDecision::Dec => {
                if self.frozen() {
                    return None;
                }
                let mut i = self.cursor;
                loop {
                    if i == 0 {
                        return None;
                    }
                    i -= 1;
                    if perf_score(&self.ranked[i], R0, base, &self.nominals) < cur_score - 1e-9 {
                        break i;
                    }
                }
            }
            StateDecision::Keep => return None,
        };
        if state_dec == StateDecision::Dec {
            // "when the system performance is decreased, adaptation
            // should be stopped for a certain period."
            for a in &mut self.apps {
                a.freezing_cnt = FREEZE_HEARTBEATS;
            }
        }
        self.cursor = next;
        self.adaptations += 1;
        let state = self.ranked[self.cursor];
        Some(ConsDecision {
            state,
            allowed_cores: allowed_core_set(&self.board, &state),
            overhead_ns: COST_PER_HEARTBEAT_NS,
        })
    }
}

/// The performance score CONS-I ranks states by:
/// `Σ_c C_c · r_c · (f_c/f₀)` with `r_c` the assumed per-cluster ratio
/// (only the big/little split of the original formula uses `r0`). For
/// N-cluster states the fastest cluster gets `r0` and middle clusters
/// interpolate linearly **by nominal ratio**: a mid cluster whose
/// board-nominal ratio sits 60% of the way between the reference and
/// the fastest cluster is scored at 60% of the `1 → r0` span. (The
/// earlier index-based interpolation scored a near-prime mid cluster
/// the same as a near-little one; CONS-I still performs no estimation,
/// but its coarse score should at least respect the board's shape.)
/// `nominals` are the board's per-cluster nominal ratios in cluster
/// order; boards where all nominals coincide fall back to index
/// interpolation.
///
/// # Panics
///
/// Panics when `nominals` does not cover the state's clusters.
pub fn perf_score(state: &SystemState, r0: f64, base: FreqKhz, nominals: &[f64]) -> f64 {
    let n = state.n_clusters();
    assert_eq!(nominals.len(), n, "one nominal ratio per cluster");
    let mut score = 0.0;
    for i in (0..n).rev() {
        let c = ClusterId(i);
        let ratio = if i == 0 {
            1.0
        } else if i == n - 1 {
            r0
        } else {
            let span = nominals[n - 1] - nominals[0];
            let w = if span > 0.0 {
                (nominals[i] - nominals[0]) / span
            } else {
                i as f64 / (n - 1) as f64
            };
            1.0 + (r0 - 1.0) * w
        };
        score += state.cores(c) as f64 * ratio * state.freq(c).ratio_to(base);
    }
    score
}

/// The global core set of a state: the first `C_c` cores of every
/// cluster (the rest behave as hot-unplugged).
pub fn allowed_core_set(board: &BoardSpec, state: &SystemState) -> CpuSet {
    let mut set = CpuSet::empty();
    for c in board.cluster_ids() {
        let start = board.cluster_start(c).0;
        for i in 0..state.cores(c).min(board.cluster_size(c)) {
            set.insert(hmp_sim::CoreId(start + i));
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    fn board() -> BoardSpec {
        BoardSpec::odroid_xu3()
    }

    fn mk() -> ConsIManager {
        ConsIManager::new(&board())
    }

    fn target(lo: f64, hi: f64) -> PerfTarget {
        PerfTarget::new(lo, hi).unwrap()
    }

    /// The XU3's nominal ratios (little 1.0, big 1.5) — middle-cluster
    /// interpolation never fires on two clusters, so the scores below
    /// are unchanged from the index-based formula.
    const XU3_NOMINALS: [f64; 2] = [1.0, 1.5];

    #[test]
    fn starts_at_the_maximum_state() {
        let m = mk();
        let s = m.state();
        for c in [ClusterId::BIG, ClusterId::LITTLE] {
            assert_eq!(s.cores(c), 4);
            assert_eq!(s.freq(c), board().ladder(c).max());
        }
    }

    #[test]
    fn perf_score_matches_paper_formula() {
        // 2 big cores at 1.2 GHz, 3 little at 1.0 GHz.
        let s = SystemState::new(&[(3, FreqKhz::from_mhz(1_000)), (2, FreqKhz::from_mhz(1_200))]);
        // 2·1.5·1.2 + 3·1.0 = 6.6
        assert!((perf_score(&s, 1.5, FreqKhz::from_mhz(1_000), &XU3_NOMINALS) - 6.6).abs() < 1e-12);
    }

    #[test]
    fn perf_score_interpolates_middle_clusters_by_nominal_ratio() {
        // DynamIQ nominals (1.0, 1.6, 2.0): the mid cluster sits 60% of
        // the way from little to prime, so at r0 = 1.5 it scores
        // 1 + 0.5·0.6 = 1.3 per core — not the index-interpolated 1.25.
        let nominals = [1.0, 1.6, 2.0];
        let f = FreqKhz::from_mhz(1_000);
        let one_each = SystemState::new(&[(1, f), (1, f), (1, f)]);
        let score = perf_score(&one_each, 1.5, f, &nominals);
        assert!(
            (score - (1.0 + 1.3 + 1.5)).abs() < 1e-12,
            "score {score} != 3.8"
        );
        // Only the mid cluster contributes the interpolated ratio.
        let mid_only = SystemState::new(&[(0, f), (2, f), (0, f)]);
        let mid_score = perf_score(&mid_only, 1.5, f, &nominals);
        assert!((mid_score - 2.0 * 1.3).abs() < 1e-12);
        // Degenerate nominals (all equal) fall back to index weights.
        let flat = perf_score(&one_each, 1.5, f, &[1.0, 1.0, 1.0]);
        assert!((flat - (1.0 + 1.25 + 1.5)).abs() < 1e-12);
    }

    #[test]
    fn tri_cluster_cons_manager_ranks_by_nominal_interpolation() {
        // End to end: a DynamIQ CONS-I manager's ranked list must be
        // monotone under the nominal-interpolated score.
        let board = BoardSpec::dynamiq_1p_3m_4l();
        let m = ConsIManager::new(&board);
        let nominals = [1.0, 1.6, 2.0];
        let mut prev = f64::NEG_INFINITY;
        for s in &m.ranked {
            let score = perf_score(s, 1.5, board.base_freq, &nominals);
            assert!(score >= prev - 1e-12);
            prev = score;
        }
    }

    #[test]
    fn ranked_list_is_monotone() {
        let m = mk();
        let base = board().base_freq;
        let mut prev = f64::NEG_INFINITY;
        for s in &m.ranked {
            let score = perf_score(s, 1.5, base, &XU3_NOMINALS);
            assert!(score >= prev - 1e-12);
            prev = score;
        }
    }

    #[test]
    fn overperforming_solo_app_steps_down_and_freezes() {
        let mut m = mk();
        m.register_app(AppId(0), target(9.0, 11.0));
        let before_score = perf_score(&m.state(), 1.5, board().base_freq, &XU3_NOMINALS);
        let d = m.on_heartbeat(AppId(0), 10, Some(30.0)).expect("dec");
        let after_score = perf_score(&m.state(), 1.5, board().base_freq, &XU3_NOMINALS);
        assert!(after_score < before_score, "score must strictly drop");
        assert!(m.frozen(), "decrease must freeze");
        assert!(!d.allowed_cores.is_empty());
        // While frozen, further decreases are refused.
        assert!(m.on_heartbeat(AppId(0), 20, Some(30.0)).is_none());
    }

    #[test]
    fn freeze_drains_with_heartbeats() {
        let mut m = mk();
        m.register_app(AppId(0), target(9.0, 11.0));
        let _ = m.on_heartbeat(AppId(0), 10, Some(30.0)).expect("dec");
        assert!(m.frozen());
        // While frozen, over-performance cannot decrease further.
        assert!(m.on_heartbeat(AppId(0), 20, Some(30.0)).is_none());
        assert!(m.frozen());
        // In-band heartbeats drain the count without re-freezing: each
        // heartbeat after the decrease drains one, so the tenth
        // (heartbeat 29) lifts the freeze.
        for hb in 21..29 {
            let _ = m.on_heartbeat(AppId(0), hb, Some(10.0));
        }
        assert!(m.frozen());
        let _ = m.on_heartbeat(AppId(0), 29, Some(10.0));
        assert!(!m.frozen());
        // Once drained, the next adaptation period decreases again.
        assert!(m.on_heartbeat(AppId(0), 30, Some(30.0)).is_some());
        assert!(m.frozen());
    }

    #[test]
    fn underperformer_blocks_decreases_by_others() {
        let mut m = mk();
        m.register_app(AppId(0), target(9.0, 11.0));
        m.register_app(AppId(1), target(9.0, 11.0));
        // App 1 reports an under-performing rate.
        let _ = m.on_heartbeat(AppId(1), 1, Some(2.0));
        // (Index 1 is off-period, so this records the rate only.)
        // App 0 over-performs but must not decrease the system.
        let before = m.cursor;
        assert!(m.on_heartbeat(AppId(0), 10, Some(30.0)).is_none());
        assert_eq!(m.cursor, before);
    }

    #[test]
    fn underperformer_steps_up_even_at_freeze() {
        let mut m = mk();
        m.register_app(AppId(0), target(9.0, 11.0));
        // Step down twice first (with draining in between).
        let _ = m.on_heartbeat(AppId(0), 10, Some(30.0));
        for i in 11..=31 {
            let _ = m.on_heartbeat(AppId(0), i, Some(30.0));
        }
        let at_score = perf_score(&m.state(), 1.5, board().base_freq, &XU3_NOMINALS);
        // Now under-perform: INC even though frozen state may linger.
        let d = m.on_heartbeat(AppId(0), 40, Some(1.0)).expect("inc");
        assert!(perf_score(&m.state(), 1.5, board().base_freq, &XU3_NOMINALS) > at_score);
        assert!(!m.frozen(), "INC unfreezes");
        assert_eq!(d.state, m.state());
    }

    #[test]
    fn achieving_app_keeps_state() {
        let mut m = mk();
        m.register_app(AppId(0), target(9.0, 11.0));
        assert!(m.on_heartbeat(AppId(0), 10, Some(10.0)).is_none());
        assert_eq!(m.adaptations(), 0);
    }

    #[test]
    fn allowed_core_set_matches_state() {
        let b = board();
        // 2 big cores, 3 little.
        let s = SystemState::new(&[(3, FreqKhz::from_mhz(800)), (2, FreqKhz::from_mhz(800))]);
        let set = allowed_core_set(&b, &s);
        assert_eq!(set.len(), 5);
        assert!(set.contains(hmp_sim::CoreId(0)));
        assert!(set.contains(hmp_sim::CoreId(2)));
        assert!(!set.contains(hmp_sim::CoreId(3)));
        assert!(set.contains(hmp_sim::CoreId(4)));
        assert!(set.contains(hmp_sim::CoreId(5)));
        assert!(!set.contains(hmp_sim::CoreId(6)));
    }
}
