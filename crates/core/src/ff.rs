//! Steady-state fast-forward: cycle detection over iteration signatures.
//!
//! The fine-grained backends simulate every bubble of every iteration, but
//! over a week-long fleet horizon almost all of that work is repetitive
//! steady state. This module implements the detection half of the
//! fast-forward machinery: each backend summarizes its *complete*
//! behavioral state at every iteration boundary into a signature (a
//! `Vec<u64>` of exact bit patterns — accumulator bits, plan identities,
//! executor cursors), and the [`SteadyDetector`] looks for a previous
//! boundary with an identical signature. Because the signature captures
//! everything that determines future behavior, a repeated signature proves
//! the simulation has entered a cycle: the iterations between the two
//! boundaries will repeat verbatim, forever, until an external transition
//! (a fault, an arrival, the horizon) perturbs the state.
//!
//! Once a cycle of length `L` is confirmed, the backend skips `M` whole
//! cycles in O(cycle) time by *replaying the recorded per-iteration
//! effects* `M` times — floating-point accumulator updates are applied in
//! the exact order and magnitude the event loop would have produced, so
//! the skip is bit-for-bit identical to simulating the events, not merely
//! close. Clocks and integer counters advance in closed form.
//!
//! # Randomness gates the whole mechanism
//!
//! A signature match only proves determinism if no randomness is consumed
//! inside the cycle (jitter draws would make "identical state" a lie).
//! The detector therefore tracks the backend RNG's
//! [`state_fingerprint`](pipefill_sim_core::rng::DeterministicRng::state_fingerprint)
//! across iteration boundaries and arms itself only while the fingerprint
//! is frozen. Jittered runs — the default fidelity — keep the detector
//! permanently disarmed at the cost of one fingerprint compare per
//! iteration, which also guarantees their event-by-event results are
//! untouched by this feature.

use std::collections::VecDeque;

use pipefill_sim_core::SimDuration;

/// Absolute monotone counters sampled at an iteration boundary; the
/// detector differences consecutive samples to get per-iteration deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SteadyCounters {
    /// Fill jobs completed (absolute).
    pub completions: u64,
    /// Fill jobs drawn from the backlog (absolute; advances job ids).
    pub draws: u64,
    /// Bubbles lost to device downtime and fill attempts killed by
    /// isolated OOMs (absolute) — zero in quiescent runs but carried so
    /// the replay stays fully general.
    pub bubbles_lost: u64,
    /// See [`SteadyCounters::bubbles_lost`].
    pub isolated_ooms: u64,
}

impl SteadyCounters {
    fn delta(self, earlier: SteadyCounters) -> SteadyCounters {
        SteadyCounters {
            completions: self.completions - earlier.completions,
            draws: self.draws - earlier.draws,
            bubbles_lost: self.bubbles_lost - earlier.bubbles_lost,
            isolated_ooms: self.isolated_ooms - earlier.isolated_ooms,
        }
    }
}

/// Everything one iteration did to the backend's monotone accumulators,
/// in exact order. Replaying the record reproduces the iteration's metric
/// updates bit for bit.
#[derive(Debug, Clone, Default)]
pub(crate) struct IterRecord {
    /// Per-bubble FLOP additions in event order.
    pub flops: Vec<f64>,
    /// Critical-path stall folded into the clock at the iteration end.
    pub delay: SimDuration,
    /// Counter deltas over the iteration.
    pub counters: SteadyCounters,
    /// Ids of fill jobs completed during the iteration. Ids are the only
    /// non-cyclic part of the state (each cycle's ids sit exactly
    /// `draws`-per-cycle above the previous cycle's), so replay shifts
    /// them by that stride per skipped cycle.
    pub completed: Vec<u64>,
}

/// A confirmed cycle and how many times to replay it.
#[derive(Debug)]
pub(crate) struct Skip {
    /// Whole cycles to skip.
    pub cycles: u64,
    /// Iterations per cycle.
    pub len: u64,
    /// Sum of the per-iteration clock stalls across one cycle.
    pub delay_sum: SimDuration,
    /// Counter deltas across one cycle.
    pub counters: SteadyCounters,
    /// The cycle's iteration records, oldest first.
    pub records: Vec<IterRecord>,
}

impl Skip {
    /// Total iterations skipped.
    pub fn iterations(&self) -> u64 {
        self.cycles * self.len
    }
}

struct HistEntry {
    hash: u64,
    sig: Vec<u64>,
    rec: IterRecord,
}

/// FxHash-style mixing — cheap, deterministic across platforms, and only
/// used to pre-filter exact `Vec<u64>` comparisons.
fn hash_sig(sig: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in sig {
        h = (h ^ w).wrapping_mul(0x0100_0000_01b3).rotate_left(5);
    }
    h
}

/// Signature-history depth per main job of a `jobs`-job fleet:
/// `(512 / jobs).clamp(64, 512)`. The history bounds both memory and the
/// longest detectable cycle. A single job keeps 512 boundaries, long
/// enough for realistic fill-cycle periods (plan cursor × rotation ×
/// completion interleavings; 64 misses the heterogeneous quiescent
/// pipeline's cycle). Fleets of 8 jobs or more keep 64 per job: on the
/// 64-job `fleet_quiescent` benchmark fleet a 512 history skips 42% more
/// iterations but raises peak RSS from 12 MB to 41 MB.
pub(crate) fn history_cap(jobs: usize) -> usize {
    (512 / jobs.max(1)).clamp(64, 512)
}

/// Detects steady-state cycles at iteration boundaries. One instance per
/// independent iteration stream: one per main job.
#[derive(Debug)]
pub(crate) struct SteadyDetector {
    enabled: bool,
    /// Signature matches required before the first skip; `u32::MAX` is
    /// the degenerate "never fast-forward" pin.
    confirm: u32,
    matches_seen: u32,
    last_fp: Option<[u64; 6]>,
    /// True while the RNG fingerprint has been frozen across at least one
    /// full iteration, i.e. the current iteration is being recorded.
    active: bool,
    hist: VecDeque<HistEntry>,
    cap: usize,
    cur_flops: Vec<f64>,
    cur_completed: Vec<u64>,
    /// Counters at the last recorded boundary.
    snap: SteadyCounters,
    /// Counters at the boundary currently being observed.
    pending: SteadyCounters,
}

impl std::fmt::Debug for HistEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistEntry")
            .field("hash", &self.hash)
            .finish()
    }
}

impl SteadyDetector {
    /// Creates a detector. `cap` bounds the signature history, which
    /// bounds both memory and the longest detectable cycle.
    pub fn new(enabled: bool, confirm: u32, cap: usize) -> Self {
        SteadyDetector {
            enabled,
            confirm,
            matches_seen: 0,
            last_fp: None,
            active: false,
            hist: VecDeque::new(),
            cap,
            cur_flops: Vec::new(),
            cur_completed: Vec::new(),
            snap: SteadyCounters::default(),
            pending: SteadyCounters::default(),
        }
    }

    /// Whether fast-forward is on at all (the cheap outer gate for every
    /// hot-path call below).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records one bubble's FLOP contribution. No-op unless the detector
    /// is armed, so jittered runs pay a single branch.
    #[inline]
    pub fn record_flops(&mut self, flops: f64) {
        if self.active {
            self.cur_flops.push(flops);
        }
    }

    /// Records a fill-job completion (by id). No-op unless armed.
    #[inline]
    pub fn record_completion(&mut self, id: u64) {
        if self.active {
            self.cur_completed.push(id);
        }
    }

    /// Phase 1 of an iteration boundary: quiescence bookkeeping. Returns
    /// `true` when the caller should build a full state signature and
    /// finish the boundary with [`Self::end_iteration`]. Must be called
    /// with the RNG fingerprint and the *current absolute* counters.
    pub fn observe(&mut self, fp: [u64; 6], counters: SteadyCounters) -> bool {
        if !self.enabled {
            return false;
        }
        let quiescent = self.last_fp == Some(fp);
        self.last_fp = Some(fp);
        self.pending = counters;
        if !quiescent {
            // Randomness was consumed: any cycle hypothesis is void.
            self.reset();
            self.snap = counters;
            return false;
        }
        if !self.active {
            // The fingerprint just proved frozen across one boundary, but
            // that iteration ran before recording was armed. Arm now and
            // record from the next iteration on.
            self.active = true;
            self.cur_flops.clear();
            self.cur_completed.clear();
            self.snap = counters;
            return false;
        }
        true
    }

    /// Phase 2: closes the iteration with its post-state signature and
    /// clock stall, then hunts for a cycle. Returns a [`Skip`] when a
    /// confirmed cycle allows skipping at least one whole cycle within
    /// `remaining` iterations (one iteration is always left to run for
    /// real so the final iteration boundary fires as a genuine event).
    pub fn end_iteration(
        &mut self,
        sig: Vec<u64>,
        delay: SimDuration,
        remaining: u64,
    ) -> Option<Skip> {
        debug_assert!(self.active, "end_iteration without a true observe()");
        let rec = IterRecord {
            flops: std::mem::take(&mut self.cur_flops),
            completed: std::mem::take(&mut self.cur_completed),
            delay,
            counters: self.pending.delta(self.snap),
        };
        self.snap = self.pending;
        if self.hist.len() == self.cap {
            self.hist.pop_front();
        }
        let hash = hash_sig(&sig);
        self.hist.push_back(HistEntry { hash, sig, rec });

        // Scan backwards (nearest previous boundary first → minimal cycle
        // length) for a boundary with an identical signature.
        let n = self.hist.len();
        let cur = &self.hist[n - 1];
        let mut found = None;
        for i in (0..n - 1).rev() {
            let e = &self.hist[i];
            if e.hash == cur.hash && e.sig == cur.sig {
                found = Some(i);
                break;
            }
        }
        let i = found?;
        self.matches_seen = self.matches_seen.saturating_add(1);
        if self.confirm == u32::MAX || self.matches_seen < self.confirm {
            return None;
        }
        let len = (n - 1 - i) as u64;
        let cycles = remaining.saturating_sub(1) / len;
        if cycles == 0 {
            return None;
        }
        let records: Vec<IterRecord> = self.hist.range(i + 1..n).map(|e| e.rec.clone()).collect();
        let delay_sum = records.iter().map(|r| r.delay).sum();
        let counters = records
            .iter()
            .fold(SteadyCounters::default(), |acc, r| SteadyCounters {
                completions: acc.completions + r.counters.completions,
                draws: acc.draws + r.counters.draws,
                bubbles_lost: acc.bubbles_lost + r.counters.bubbles_lost,
                isolated_ooms: acc.isolated_ooms + r.counters.isolated_ooms,
            });
        Some(Skip {
            cycles,
            len,
            delay_sum,
            counters,
            records,
        })
    }

    /// Discards every cycle hypothesis (history, partial records, match
    /// streak). Called whenever randomness was consumed or an external
    /// transition (fault, arrival, eviction) perturbs the state.
    pub fn reset(&mut self) {
        self.active = false;
        self.matches_seen = 0;
        self.hist.clear();
        self.cur_flops.clear();
        self.cur_completed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefill_sim_core::rng::DeterministicRng;

    fn fp(rng: &DeterministicRng) -> [u64; 6] {
        rng.state_fingerprint()
    }

    #[test]
    fn disabled_detector_is_inert() {
        let mut d = SteadyDetector::new(false, 1, 16);
        assert!(!d.enabled());
        let rng = DeterministicRng::seed_from(1);
        assert!(!d.observe(fp(&rng), SteadyCounters::default()));
        d.record_flops(1.0);
        assert!(d.cur_flops.is_empty());
    }

    #[test]
    fn arms_only_after_a_frozen_fingerprint_boundary() {
        let mut d = SteadyDetector::new(true, 1, 16);
        let mut rng = DeterministicRng::seed_from(2);
        // First boundary: no baseline yet.
        assert!(!d.observe(fp(&rng), SteadyCounters::default()));
        // Consuming randomness keeps it disarmed.
        let _ = rng.uniform(0.0, 1.0);
        assert!(!d.observe(fp(&rng), SteadyCounters::default()));
        // One frozen boundary arms recording…
        assert!(!d.observe(fp(&rng), SteadyCounters::default()));
        // …and the next frozen boundary asks for a signature.
        assert!(d.observe(fp(&rng), SteadyCounters::default()));
    }

    #[test]
    fn period_two_cycle_is_detected_and_scaled() {
        let mut d = SteadyDetector::new(true, 1, 16);
        let rng = DeterministicRng::seed_from(3);
        let c = SteadyCounters::default();
        assert!(!d.observe(fp(&rng), c)); // baseline
        assert!(!d.observe(fp(&rng), c)); // arm
                                          // States alternate A, B, A, B…
        assert!(d.observe(fp(&rng), c));
        assert!(d
            .end_iteration(vec![0xa], SimDuration::from_secs(1), 1000)
            .is_none());
        assert!(d.observe(fp(&rng), c));
        assert!(d
            .end_iteration(vec![0xb], SimDuration::from_secs(2), 999)
            .is_none());
        assert!(d.observe(fp(&rng), c));
        let skip = d
            .end_iteration(vec![0xa], SimDuration::from_secs(1), 998)
            .expect("A repeated: cycle of length 2");
        assert_eq!(skip.len, 2);
        // (998 - 1) / 2 whole cycles fit while leaving one real iteration.
        assert_eq!(skip.cycles, 498);
        assert_eq!(skip.iterations(), 996);
        assert_eq!(skip.records.len(), 2);
        assert_eq!(skip.delay_sum, SimDuration::from_secs(3));
    }

    #[test]
    fn confirm_streak_delays_the_first_skip() {
        let mut d = SteadyDetector::new(true, 3, 16);
        let rng = DeterministicRng::seed_from(4);
        let c = SteadyCounters::default();
        assert!(!d.observe(fp(&rng), c));
        assert!(!d.observe(fp(&rng), c));
        for round in 0..3 {
            assert!(d.observe(fp(&rng), c));
            assert!(
                d.end_iteration(vec![7], SimDuration::ZERO, 500).is_none(),
                "skip before the confirm streak (round {round})"
            );
        }
        // The first boundary can never match (empty history), so the
        // three loop rounds produced matches 0, 1 and 2; the next match
        // is the third and completes the confirm streak.
        assert!(d.observe(fp(&rng), c));
        assert!(d.end_iteration(vec![7], SimDuration::ZERO, 500).is_some());
    }

    #[test]
    fn confirm_max_never_skips() {
        let mut d = SteadyDetector::new(true, u32::MAX, 16);
        let rng = DeterministicRng::seed_from(5);
        let c = SteadyCounters::default();
        assert!(!d.observe(fp(&rng), c));
        assert!(!d.observe(fp(&rng), c));
        for _ in 0..100 {
            assert!(d.observe(fp(&rng), c));
            assert!(d
                .end_iteration(vec![9], SimDuration::ZERO, 10_000)
                .is_none());
        }
    }

    #[test]
    fn randomness_voids_the_hypothesis() {
        let mut d = SteadyDetector::new(true, 1, 16);
        let mut rng = DeterministicRng::seed_from(6);
        let c = SteadyCounters::default();
        assert!(!d.observe(fp(&rng), c));
        assert!(!d.observe(fp(&rng), c));
        assert!(d.observe(fp(&rng), c));
        assert!(d.end_iteration(vec![1], SimDuration::ZERO, 100).is_none());
        let _ = rng.uniform(0.0, 1.0); // perturb
        assert!(!d.observe(fp(&rng), c)); // disarmed again
        assert!(!d.observe(fp(&rng), c)); // re-arm
        assert!(d.observe(fp(&rng), c));
        // History was wiped: the matching signature from before the
        // perturbation no longer counts.
        assert!(d.end_iteration(vec![1], SimDuration::ZERO, 100).is_none());
        assert!(d.observe(fp(&rng), c));
        assert!(d.end_iteration(vec![1], SimDuration::ZERO, 100).is_some());
    }

    #[test]
    fn counter_deltas_and_records_replay_exactly() {
        let mut d = SteadyDetector::new(true, 1, 16);
        let rng = DeterministicRng::seed_from(7);
        let at = |n: u64| SteadyCounters {
            completions: n,
            draws: 2 * n,
            bubbles_lost: 0,
            isolated_ooms: 0,
        };
        assert!(!d.observe(fp(&rng), at(0)));
        assert!(!d.observe(fp(&rng), at(1)));
        assert!(d.observe(fp(&rng), at(2)));
        d.record_flops(1.5);
        d.record_completion(40);
        assert!(d.end_iteration(vec![5], SimDuration::ZERO, 100).is_none());
        assert!(d.observe(fp(&rng), at(3)));
        d.record_flops(2.5);
        d.record_completion(41);
        let skip = d
            .end_iteration(vec![5], SimDuration::ZERO, 100)
            .expect("cycle of length 1");
        assert_eq!(skip.len, 1);
        assert_eq!(skip.counters.completions, 1);
        assert_eq!(skip.counters.draws, 2);
        assert_eq!(skip.records[0].flops, vec![2.5]);
        assert_eq!(skip.records[0].completed, vec![41]);
    }

    #[test]
    fn history_cap_shrinks_with_the_fleet() {
        assert_eq!(history_cap(1), 512);
        assert_eq!(history_cap(2), 256);
        // The benchmark fleets (64 and 1,000 jobs) keep the 64-entry
        // history their skip counters were pinned with.
        for jobs in [8, 64, 1_000] {
            assert_eq!(history_cap(jobs), 64, "{jobs} jobs");
        }
    }

    #[test]
    fn history_cap_bounds_detectable_cycles() {
        let mut d = SteadyDetector::new(true, 1, 3);
        let rng = DeterministicRng::seed_from(8);
        let c = SteadyCounters::default();
        assert!(!d.observe(fp(&rng), c));
        assert!(!d.observe(fp(&rng), c));
        // A cycle of length 4 never fits in a 3-entry history.
        for sig in [1u64, 2, 3, 4, 1, 2, 3, 4, 1, 2] {
            assert!(d.observe(fp(&rng), c));
            assert!(d.end_iteration(vec![sig], SimDuration::ZERO, 100).is_none());
        }
    }
}
