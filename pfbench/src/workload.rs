//! The four workloads, their seeded inputs, and what one evaluation of
//! an input yields.

use std::str::FromStr;

use crate::span::Recorder;
use crate::{sims, sweep};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64-job / 8K-GPU 1F1B fleet with device failures: the event-fidelity
    /// path (kernel, per-bubble fill handler, evictions, global queue).
    FleetChurn,
    /// The same fleet shape, GPipe, no jitter or faults and a one-model
    /// mix: the steady-state fast-forward detector fires.
    FleetQuiescent,
    /// The Fig. 6 pair: coarse backend under SJF at load 8 against its
    /// physical twin over the same span.
    Fig6Agree,
    /// Schedule design-space sweep: engine, schedverify and the
    /// Algorithm-1 planner per candidate, no event kernel.
    DesignSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::FleetChurn,
        Workload::FleetQuiescent,
        Workload::Fig6Agree,
        Workload::DesignSweep,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetChurn => "fleet_churn",
            Workload::FleetQuiescent => "fleet_quiescent",
            Workload::Fig6Agree => "fig6_agree",
            Workload::DesignSweep => "design_sweep",
        }
    }

    /// Distinct inputs one run cycles through. Modelled metrics are means
    /// over exactly these, so they do not depend on how many repetitions
    /// fit into the measuring time. Generated fleets differ widely
    /// (device generations, depths, shapes to plan), so a fleet run
    /// averages sixteen of them; a quiescent fleet's host time also
    /// depends on how much fast-forward skips, so that run averages
    /// thirty-two.
    pub fn inputs_per_run(self) -> usize {
        match self {
            Workload::FleetChurn => 16,
            Workload::FleetQuiescent => 32,
            Workload::Fig6Agree => 6,
            Workload::DesignSweep => 4,
        }
    }

    /// The input seeds of one run, derived from the run's `--seed`.
    pub fn input_seeds(self, seed: u64) -> Vec<u64> {
        (0..self.inputs_per_run() as u64)
            .map(|k| splitmix64(seed.wrapping_mul(0x100).wrapping_add(k)))
            .collect()
    }

    /// Evaluates one input: untraced when `rec` is `None`, otherwise with
    /// every layer call recorded into it.
    pub fn evaluate(self, input_seed: u64, rec: Option<&mut Recorder>) -> Eval {
        match self {
            Workload::FleetChurn | Workload::FleetQuiescent | Workload::Fig6Agree => {
                sims::evaluate(self, input_seed, rec, true)
            }
            Workload::DesignSweep => sweep::evaluate(input_seed, rec),
        }
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload '{s}' ({})", names.join("|"))
            })
    }
}

/// SplitMix64: decorrelates consecutive seeds.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Modelled (simulated, deterministic) outcome of one input.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Fill TFLOPS per GPU recovered from bubbles.
    pub recovered_tflops_per_gpu: f64,
    /// Main-job slowdown in percent (0 where not modelled).
    pub main_slowdown_pct: f64,
    /// Surviving share of executed fill FLOPs, percent.
    pub fill_goodput_pct: f64,
    /// Coarse-arm median fill-job completion time, simulated s.
    pub fill_jct_p50_s: f64,
    /// Coarse-arm 95th-percentile fill-job completion time, simulated s.
    pub fill_jct_p95_s: f64,
    /// |coarse − physical| / physical recovered TFLOPS, percent.
    pub coarse_err_pct: f64,
    /// Events the kernel dispatched, credited ones included.
    pub events_dispatched: u64,
    /// Main-job iterations simulated (all jobs).
    pub main_iterations: u64,
    /// Main-job iterations skipped by fast-forward.
    pub iterations_skipped: u64,
    /// Fill-job evictions.
    pub evictions: u64,
    /// Evicted fill jobs resumed on another main job.
    pub cross_job_dispatches: u64,
    /// Deepest the global fill queue got.
    pub peak_queue_depth: u64,
    /// Fill jobs the scheduler refused (infeasible everywhere).
    pub rejected: u64,
    /// The backends' `BackendMetrics` in `Debug` form.
    pub metrics_bits: String,
    /// Every modelled number of the input in `Debug` form: two
    /// evaluations agree bit for bit iff their fingerprints are equal.
    pub fingerprint: String,
}

/// Counters of layer calls made from the benchmark during a traced
/// evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounts {
    /// Trace jobs converted by `trace_job_to_spec`.
    pub converted_jobs: u64,
    /// `plan_best` calls that found a plan.
    pub plans_feasible: u64,
    /// Instructions per iteration of every engine run.
    pub engine_instructions: u64,
    /// Instructions of every verified stream set.
    pub verify_instructions: u64,
    /// Verdicts that certified.
    pub verify_certified: u64,
}

impl LayerCounts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &LayerCounts) {
        self.converted_jobs += other.converted_jobs;
        self.plans_feasible += other.plans_feasible;
        self.engine_instructions += other.engine_instructions;
        self.verify_instructions += other.verify_instructions;
        self.verify_certified += other.verify_certified;
    }
}

/// One evaluated input.
#[derive(Debug, Clone, Default)]
pub struct Eval {
    /// Inputs → first event: generation, `::new`, `prime` (simulations);
    /// grid construction (design sweep). Host CPU seconds, as every
    /// time here (see `clock.rs`).
    pub setup_s: f64,
    /// Event-loop host time per loop: one per simulation (two for the
    /// Fig. 6 pair); per candidate for the design sweep.
    pub loop_s: Vec<f64>,
    /// Simulated span covered by `loop_s`.
    pub sim_span_s: f64,
    /// Host time per evaluated configuration (one simulation from inputs
    /// to drain, one Fig. 6 pair, or one schedule candidate).
    pub unit_s: Vec<f64>,
    /// Factor that brings this evaluation's host times to the nominal
    /// host speed (`calib.rs`); set when the evaluation is recorded.
    pub host_scale: f64,
    /// The modelled outcome.
    pub outcome: Outcome,
    /// Correctness checks made inside the evaluation, and how many failed.
    pub checks: u64,
    /// Failed checks, with a reason each.
    pub failures: Vec<String>,
    /// Layer-call counters (traced evaluations only).
    pub layers: LayerCounts,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(w.name().parse::<Workload>(), Ok(w));
        }
        assert!("nope".parse::<Workload>().is_err());
    }

    #[test]
    fn input_seeds_are_deterministic_and_distinct() {
        for w in Workload::ALL {
            let a = w.input_seeds(7);
            assert_eq!(a, w.input_seeds(7));
            assert_ne!(a, w.input_seeds(8));
            let mut sorted = a.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), a.len());
        }
    }
}
