//! The fine-grained "physical cluster" simulator.
//!
//! Stand-in for the paper's 16-GPU testbed runs (§5.1, §6.1): where the
//! coarse simulator replays plans between arrival/completion events, this
//! one executes *every bubble of every iteration* with multiplicative
//! timing jitter, explicit context-switch costs, and an engine-slack
//! floor inside each bubble. Main-job slowdown is therefore an emergent
//! measurement: whenever a fill partition (plus switch cost) overruns the
//! jittered bubble's usable span, the pipeline stalls and the iteration
//! stretches — which is exactly the failure mode the paper's 68%
//! fill-fraction cap exists to avoid (Fig. 5).
//!
//! Because this models the same plans through an independent mechanism,
//! comparing its recovered FLOPS against the coarse simulator reproduces
//! the paper's simulator-validation experiment (Fig. 6, error <2%).
//!
//! The simulator is implemented as [`PhysicalBackend`], a
//! [`SimBackend`](crate::SimBackend) on the shared event kernel: each
//! main-job iteration unfolds as one `StageBubbles` event per stage (the
//! per-bubble fill execution happens in
//! [`SimBackend::on_bubble`](crate::SimBackend::on_bubble)) followed by an
//! `IterationEnd` event that folds the per-stage stalls into the pipeline's
//! critical path and schedules the next iteration at the *stretched* period
//! — so the kernel clock itself carries the emergent slowdown.
//! [`PhysicalSim`] remains the convenience entry point.

use std::collections::HashMap;
use std::sync::Arc;

use pipefill_executor::plan::BubbleSlot;
use pipefill_executor::{ExecutorConfig, FillJobExecutor, FillJobSpec, FillProfiles, GeometryId};
use pipefill_model_zoo::{JobKind, ModelId};
use pipefill_pipeline::{BubbleWindow, MainJobSpec};
use pipefill_sim_core::rng::DeterministicRng;
use pipefill_sim_core::{EventHandler, EventQueue, SimDuration, SimTime, Simulation};
use pipefill_trace::ModelMix;
use serde::{Deserialize, Serialize};

use crate::backend::{BackendDriver, BackendKind, BackendMetrics, ClusterEvent, SimBackend};
use crate::ff::{SteadyCounters, SteadyDetector};

/// Signature-history depth for the single-job fine-grained backends: long
/// enough for the realistic fill-cycle periods (plan cursor × rotation ×
/// job-completion interleavings), small enough that an undetectable
/// workload just falls back to event fidelity.
pub(crate) const STEADY_HISTORY: usize = 512;

/// Fine-grained simulation parameters.
#[derive(Debug, Clone)]
pub struct PhysicalSimConfig {
    /// The main job (defaults target the paper's 5B/16-GPU setup).
    pub main_job: MainJobSpec,
    /// Executor tuning; `fill_fraction` is the Fig. 5 sweep axis. A fill
    /// fraction of exactly `0.0` disables filling (the baseline run).
    pub executor: ExecutorConfig,
    /// Fill-job model mix (devices draw from an infinite backlog).
    pub mix: ModelMix,
    /// Main-job iterations to simulate.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
    /// Coefficient of variation of the multiplicative timing jitter
    /// applied to bubble windows and fill partitions.
    pub jitter_cv: f64,
    /// Fraction of each (jittered) bubble actually usable before the
    /// engine needs the device back (receive setup, allocator work).
    pub usable_fraction: f64,
    /// Size of each backlog job in GPU-hours.
    pub backlog_job_gpu_hours: f64,
    /// Draw backlog jobs by weighted round-robin instead of random
    /// sampling. Used by the simulator-validation experiment (Fig. 6) so
    /// the physical run realizes the mix weights exactly rather than up
    /// to sampling noise.
    pub deterministic_mix: bool,
    /// Failure injection: coefficient of variation of the *actual* free
    /// memory relative to the profiled value (0 disables). When a
    /// partition's memory request exceeds the jittered free memory, the
    /// allocation hits the per-process cap: the fill attempt dies with an
    /// OOM isolated to the Executor (§4.3) and the bubble goes idle —
    /// the main job is never affected.
    pub memory_jitter_cv: f64,
    /// Steady-state fast-forward: when the simulation provably enters a
    /// repeating iteration cycle (identical full-state signature at two
    /// iteration boundaries with no randomness consumed in between), skip
    /// whole cycles analytically instead of simulating their events.
    /// Results are bit-for-bit identical either way; this only trades
    /// wall-clock time. Default on.
    pub fast_forward: bool,
    /// Signature matches required before the first fast-forward skip
    /// (the "k consecutive identical iterations" knob). `u32::MAX` pins
    /// fast-forward off even when `fast_forward` is true — the degenerate
    /// k=∞ setting used by regression tests.
    pub steady_confirm: u32,
}

impl PhysicalSimConfig {
    /// Defaults matching the paper's physical experiments: the 5B main
    /// job, trace mix, 10% jitter, 82% usable bubble span.
    pub fn new(main_job: MainJobSpec) -> Self {
        PhysicalSimConfig {
            main_job,
            executor: ExecutorConfig::default(),
            mix: ModelMix::paper_mix(),
            iterations: 200,
            seed: 7,
            jitter_cv: 0.08,
            usable_fraction: 0.88,
            backlog_job_gpu_hours: 0.02,
            deterministic_mix: false,
            memory_jitter_cv: 0.0,
            fast_forward: true,
            steady_confirm: 1,
        }
    }

    /// Sets the fill fraction (Fig. 5 sweep).
    pub fn with_fill_fraction(mut self, f: f64) -> Self {
        if f == 0.0 {
            self.executor.fill_fraction = 0.0; // sentinel: no filling
        } else {
            self.executor = self.executor.with_fill_fraction(f);
        }
        self
    }

    /// Sets the model mix (Fig. 6 sweep).
    pub fn with_mix(mut self, mix: ModelMix) -> Self {
        self.mix = mix;
        self
    }
}

/// Fine-grained simulation output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhysicalSimResult {
    /// Iterations simulated.
    pub iterations: usize,
    /// Undisturbed iteration period.
    pub nominal_period: SimDuration,
    /// Mean iteration period including fill-induced stalls.
    pub mean_period: SimDuration,
    /// Main-job slowdown caused by filling: `(mean − nominal)/nominal`.
    pub main_slowdown: f64,
    /// Fill FLOPs executed.
    pub fill_flops: f64,
    /// Fill TFLOPS per GPU over the (stretched) run.
    pub recovered_tflops_per_gpu: f64,
    /// Main-job TFLOPS per GPU (slowdown-adjusted).
    pub main_tflops_per_gpu: f64,
    /// Fill jobs completed.
    pub jobs_completed: usize,
    /// Fill-job OOMs isolated by the memory cap (only non-zero under
    /// memory-jitter failure injection).
    pub isolated_ooms: u64,
    /// Iterations skipped analytically by steady-state fast-forward
    /// (zero when the run never reached a provable cycle). Skipped
    /// iterations are counted in `iterations` as usual — this only
    /// reports how many of them cost O(1) instead of events.
    pub iterations_fast_forwarded: u64,
}

impl PhysicalSimResult {
    /// Aggregate TFLOPS per GPU.
    pub fn total_tflops_per_gpu(&self) -> f64 {
        self.main_tflops_per_gpu + self.recovered_tflops_per_gpu
    }
}

/// The fine-grained backend: a [`SimBackend`] that unfolds every main-job
/// iteration into per-stage bubble events on the shared kernel. See the
/// module docs for the event flow.
pub struct PhysicalBackend {
    cfg: PhysicalSimConfig,
    period: SimDuration,
    main_nominal: f64,
    bubble_ratio: f64,
    /// Fillable windows per stage (profiled once, like the engine does).
    stage_windows: Vec<Vec<BubbleWindow>>,
    /// Each stage's windows as a planner geometry, interned in `profiles`.
    stage_geometry: Vec<GeometryId>,
    rng: DeterministicRng,
    /// Throughputs and plans on the main job's device.
    profiles: FillProfiles,
    executors: Vec<Option<FillJobExecutor>>,
    rotation: Option<MixRotation>,
    next_job_id: u64,
    iterations_done: usize,
    /// Per-stage stall of the iteration in flight.
    stage_delays: Vec<SimDuration>,
    total_delay: SimDuration,
    fill_flops: f64,
    jobs_completed: usize,
    isolated_ooms: u64,
    detector: SteadyDetector,
    fast_forwarded: u64,
    result: Option<PhysicalSimResult>,
}

impl PhysicalBackend {
    /// Builds the backend (runs the engine once to extract bubbles).
    pub fn new(cfg: PhysicalSimConfig) -> Self {
        let timeline = cfg.main_job.engine_timeline();
        let period = timeline.period;
        let main_nominal = cfg.main_job.main_job_tflops_per_gpu(&timeline);
        let p = timeline.stages.len();
        let stage_windows: Vec<Vec<BubbleWindow>> = timeline
            .stages
            .iter()
            .map(|s| s.fillable_windows())
            .collect();
        let mut profiles = FillProfiles::new(cfg.main_job.device.clone());
        let stage_geometry: Vec<GeometryId> = stage_windows
            .iter()
            .map(|ws| profiles.geometry(window_slots(ws), &cfg.executor))
            .collect();
        let rng = DeterministicRng::seed_from(cfg.seed);
        let rotation = cfg.deterministic_mix.then(|| MixRotation::new(&cfg.mix));
        let bubble_ratio = timeline.bubble_ratio();
        let detector = SteadyDetector::new(cfg.fast_forward, cfg.steady_confirm, STEADY_HISTORY);
        PhysicalBackend {
            period,
            main_nominal,
            bubble_ratio,
            stage_windows,
            stage_geometry,
            rng,
            profiles,
            executors: (0..p).map(|_| None).collect(),
            rotation,
            next_job_id: 0,
            iterations_done: 0,
            stage_delays: Vec::with_capacity(p),
            total_delay: SimDuration::ZERO,
            fill_flops: 0.0,
            jobs_completed: 0,
            isolated_ooms: 0,
            detector,
            fast_forwarded: 0,
            result: None,
            cfg,
        }
    }

    /// Pipeline depth.
    fn stages(&self) -> usize {
        self.stage_windows.len()
    }

    /// Draws the next backlog job for a stage and binds it to its plan.
    /// Returns `None` (leaving the bubble idle this round) if several
    /// draws in a row are infeasible on this stage.
    fn draw_job(&mut self, stage: usize) -> Option<FillJobExecutor> {
        const MAX_TRIES: usize = 5;
        let cfg = &self.cfg;
        let profiles = &mut self.profiles;
        let geometry = self.stage_geometry[stage];
        for _ in 0..MAX_TRIES {
            let (model, kind) = match self.rotation.as_mut() {
                Some(r) => r.next(),
                None => {
                    let model = cfg.mix.sample_model(&mut self.rng);
                    (model, cfg.mix.sample_kind(model, &mut self.rng))
                }
            };
            // The memo holds `Arc`s, so handing a plan to an executor is
            // a refcount bump — profiled plans are shared, never
            // deep-copied in the per-draw hot path.
            let Some(plan) = profiles.plan(model, kind, geometry).cloned() else {
                continue;
            };
            let Some(samples) = profiles.samples_for(model, kind, cfg.backlog_job_gpu_hours) else {
                continue;
            };
            let id = self.next_job_id;
            self.next_job_id += 1;
            let job = FillJobSpec::new(id, model, kind, samples);
            return Some(FillJobExecutor::new(job, plan));
        }
        None
    }

    /// Critical-path aggregation of the in-flight iteration's stalls.
    fn aggregate_delay(&self) -> SimDuration {
        critical_path_delay(&self.stage_delays)
    }

    /// Full behavioral state at an iteration boundary, as exact bit
    /// patterns. Two boundaries with equal signatures (and no randomness
    /// consumed in between — enforced separately by the RNG fingerprint)
    /// evolve identically, which is what licenses a fast-forward skip.
    /// Job ids are deliberately excluded: they are the one monotone,
    /// behavior-neutral component, and the skip advances them in closed
    /// form instead.
    fn steady_sig(&self) -> Vec<u64> {
        let mut sig = Vec::with_capacity(2 + 6 * self.executors.len());
        sig_rotation(&self.rotation, &mut sig);
        for ex in &self.executors {
            sig_executor(ex.as_ref(), &mut sig);
        }
        sig
    }

    /// The detailed result. Only valid after the driver has run.
    ///
    /// # Panics
    ///
    /// Panics if the backend has not been drained yet.
    pub fn into_result(self) -> PhysicalSimResult {
        self.result
            .expect("backend not drained; drive it with BackendDriver::run")
    }
}

impl EventHandler for PhysicalBackend {
    type Event = ClusterEvent;

    fn handle(&mut self, now: SimTime, event: ClusterEvent, queue: &mut EventQueue<ClusterEvent>) {
        match event {
            ClusterEvent::StageBubbles { stage } => {
                self.stage_delays.push(SimDuration::ZERO);
                for slot in 0..self.stage_windows[stage].len() {
                    self.on_bubble(now, stage, slot, queue);
                }
                // Once the last stage of this iteration ran, the stall
                // aggregate is known; the iteration boundary lands at the
                // *stretched* period so the kernel clock carries the
                // emergent slowdown.
                if stage + 1 == self.stages() {
                    queue.push(
                        now + self.period + self.aggregate_delay(),
                        ClusterEvent::IterationEnd,
                    );
                }
            }
            ClusterEvent::IterationEnd => {
                let delay = self.aggregate_delay();
                self.total_delay += delay;
                self.stage_delays.clear();
                self.iterations_done += 1;
                if self.iterations_done < self.cfg.iterations {
                    // Steady-state fast-forward: if this boundary's full
                    // state matches an earlier one (with the RNG frozen in
                    // between), the iterations separating them form a
                    // cycle that would repeat verbatim. Replay the cycle's
                    // recorded effects M times instead of simulating
                    // M × cycle events, and resume event fidelity at the
                    // advanced clock. Bit-for-bit identical by
                    // construction.
                    let mut next_at = now;
                    if self.detector.enabled() {
                        let counters = SteadyCounters {
                            completions: self.jobs_completed as u64,
                            draws: self.next_job_id,
                            aux: self.isolated_ooms,
                        };
                        if self
                            .detector
                            .observe(self.rng.state_fingerprint(), counters)
                        {
                            let sig = self.steady_sig();
                            let remaining = (self.cfg.iterations - self.iterations_done) as u64;
                            if let Some(skip) = self.detector.end_iteration(sig, delay, remaining) {
                                for _ in 0..skip.cycles {
                                    for rec in &skip.records {
                                        for &f in &rec.flops {
                                            self.fill_flops += f;
                                        }
                                    }
                                }
                                self.total_delay += skip.delay_sum * skip.cycles;
                                self.iterations_done += skip.iterations() as usize;
                                self.jobs_completed +=
                                    (skip.counters.completions * skip.cycles) as usize;
                                self.next_job_id += skip.counters.draws * skip.cycles;
                                self.isolated_ooms += skip.counters.aux * skip.cycles;
                                // In-flight jobs advance with the skipped
                                // draws so their eventual completion ids
                                // continue the event-fidelity stream.
                                for ex in self.executors.iter_mut().flatten() {
                                    ex.advance_job_id(skip.counters.draws * skip.cycles);
                                }
                                self.fast_forwarded += skip.iterations();
                                // Each skipped iteration would have fired
                                // one StageBubbles per stage plus one
                                // IterationEnd.
                                queue.credit(skip.iterations() * (self.stages() as u64 + 1));
                                next_at =
                                    now + (self.period * skip.len + skip.delay_sum) * skip.cycles;
                            }
                        }
                    }
                    for stage in 0..self.stages() {
                        queue.push(next_at, ClusterEvent::StageBubbles { stage });
                    }
                }
            }
            ClusterEvent::JobArrival(_)
            | ClusterEvent::JobCompletion { .. }
            | ClusterEvent::JobIterationEnd { .. }
            | ClusterEvent::DeviceFailure { .. }
            | ClusterEvent::DeviceRecovery { .. } => {
                debug_assert!(false, "physical backend received a foreign event");
            }
        }
    }
}

impl SimBackend for PhysicalBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Physical
    }

    fn prime(&mut self, sim: &mut Simulation<ClusterEvent>) {
        // A fill fraction of exactly 0.0 is the no-filling baseline: no
        // bubble events exist, the run is the nominal pipeline.
        if self.cfg.executor.fill_fraction == 0.0 || self.cfg.iterations == 0 {
            return;
        }
        for stage in 0..self.stages() {
            sim.schedule(SimTime::ZERO, ClusterEvent::StageBubbles { stage });
        }
    }

    fn on_bubble(
        &mut self,
        _now: SimTime,
        stage: usize,
        slot: usize,
        _queue: &mut EventQueue<ClusterEvent>,
    ) {
        let window = self.stage_windows[stage][slot];
        // Refill the device's backlog if idle.
        if self.executors[stage].is_none() {
            self.executors[stage] = self.draw_job(stage);
        }
        let cfg_jitter = self.cfg.jitter_cv;
        let Some(executor) = self.executors[stage].as_mut() else {
            return;
        };
        // Failure injection: the engine capped the Executor at the
        // profiled free memory, but the *actual* free memory this bubble
        // may be less. A request over the cap dies as an isolated OOM; the
        // bubble idles and the partition retries next cycle.
        if self.cfg.memory_jitter_cv > 0.0 {
            if let Some(need) = executor.pending_memory(slot) {
                let actual_free = window
                    .free_memory
                    .mul_f64(self.rng.jitter(self.cfg.memory_jitter_cv));
                if need > actual_free {
                    self.isolated_ooms += 1;
                    return;
                }
            }
        }
        let run = executor.on_bubble(slot);
        if run.time_used.is_zero() && run.samples_completed == 0 && !run.job_finished {
            return;
        }
        self.fill_flops += run.flops;
        self.detector.record_flops(run.flops);
        // Jittered reality: the bubble and the partition both deviate from
        // their profiled durations.
        let actual_window = window.duration.mul_f64(self.rng.jitter(cfg_jitter));
        let used =
            self.cfg.executor.switch_overhead + run.time_used.mul_f64(self.rng.jitter(cfg_jitter));
        let usable = actual_window.mul_f64(self.cfg.usable_fraction);
        let delay = used.saturating_sub(usable);
        // Normally `handle(StageBubbles)` opened this iteration's stall
        // accumulator; when `on_bubble` is driven directly (the trait is
        // public), open one on demand instead of panicking.
        if self.stage_delays.is_empty() {
            self.stage_delays.push(SimDuration::ZERO);
        }
        *self
            .stage_delays
            .last_mut()
            .expect("just ensured non-empty") += delay;
        if run.job_finished {
            self.jobs_completed += 1;
            self.executors[stage] = None;
        }
    }

    fn drain(&mut self, now: SimTime) {
        let p = self.stages();
        let iterations = self.cfg.iterations;
        let nominal_total = self.period * iterations as u64;
        let elapsed = nominal_total + self.total_delay;
        debug_assert!(
            self.cfg.executor.fill_fraction == 0.0
                || iterations == 0
                || now.saturating_since(SimTime::ZERO) == elapsed,
            "kernel clock diverged from delay accounting"
        );
        let slowdown = if iterations == 0 {
            0.0
        } else {
            self.total_delay.as_secs_f64() / nominal_total.as_secs_f64()
        };
        self.result = Some(PhysicalSimResult {
            iterations,
            nominal_period: self.period,
            mean_period: if iterations == 0 {
                self.period
            } else {
                self.period + self.total_delay / iterations as u64
            },
            main_slowdown: slowdown,
            fill_flops: self.fill_flops,
            recovered_tflops_per_gpu: if self.fill_flops == 0.0 {
                0.0
            } else {
                self.fill_flops / (p as f64 * elapsed.as_secs_f64()) / 1e12
            },
            main_tflops_per_gpu: self.main_nominal / (1.0 + slowdown),
            jobs_completed: self.jobs_completed,
            isolated_ooms: self.isolated_ooms,
            iterations_fast_forwarded: self.fast_forwarded,
        });
    }

    fn metrics(&self, events_dispatched: u64) -> BackendMetrics {
        let result = self
            .result
            .as_ref()
            .expect("metrics requested before drain");
        let elapsed = self.period * result.iterations as u64 + self.total_delay;
        BackendMetrics {
            kind: BackendKind::Physical,
            num_devices: self.stages(),
            elapsed,
            events_dispatched,
            fill_flops: result.fill_flops,
            recovered_tflops_per_gpu: result.recovered_tflops_per_gpu,
            main_tflops_per_gpu: result.main_tflops_per_gpu,
            main_slowdown: result.main_slowdown,
            bubble_ratio: self.bubble_ratio,
            jobs_completed: result.jobs_completed,
            // This fidelity injects memory faults (isolated OOMs), not
            // device failures: nothing is evicted mid-execution.
            evictions: 0,
            lost_fill_flops: 0.0,
            goodput_fraction: 1.0,
        }
    }
}

/// The fine-grained simulator: the convenience entry point wrapping
/// [`PhysicalBackend`] in a [`BackendDriver`]. See module docs.
#[derive(Debug)]
pub struct PhysicalSim {
    config: PhysicalSimConfig,
}

impl PhysicalSim {
    /// Creates a simulator.
    pub fn new(config: PhysicalSimConfig) -> Self {
        PhysicalSim { config }
    }

    /// Runs the simulation on the shared event kernel.
    pub fn run(&self) -> PhysicalSimResult {
        let (_, backend) = BackendDriver::new(PhysicalBackend::new(self.config.clone())).run();
        backend.into_result()
    }
}

/// A stage's fillable windows as `(duration, free_memory)` planner slots.
pub(crate) fn window_slots(windows: &[BubbleWindow]) -> impl Iterator<Item = BubbleSlot> + '_ {
    windows.iter().map(|w| (w.duration, w.free_memory))
}

/// Critical-path aggregation of one iteration's per-stage stalls: stalls
/// on different stages partially overlap, so the longest is fully paid
/// and the rest half. Shared by every fine-grained backend so their
/// slowdown semantics stay identical.
pub(crate) fn critical_path_delay(stage_delays: &[SimDuration]) -> SimDuration {
    let max = stage_delays
        .iter()
        .copied()
        .max()
        .unwrap_or(SimDuration::ZERO);
    let sum: SimDuration = stage_delays.iter().copied().sum();
    max + (sum - max).mul_f64(0.5)
}

/// Weighted round-robin over a model mix (largest-accumulator rule), with
/// training/inference alternation for the sub-700M models — realizes mix
/// weights exactly, without sampling noise. Shared with the fault backend
/// so the two fine-grained fidelities realize identical workloads.
#[derive(Debug)]
pub(crate) struct MixRotation {
    weights: Vec<(ModelId, f64)>,
    acc: Vec<f64>,
    kind_flip: HashMap<ModelId, bool>,
}

impl MixRotation {
    /// Validates the mix and builds the rotation. Non-finite, negative or
    /// all-zero weights are reported as an error instead of deferring a
    /// panic into the per-draw selection loop.
    pub(crate) fn try_new(mix: &ModelMix) -> Result<Self, String> {
        Self::try_from_weights(mix.weights())
    }

    pub(crate) fn try_from_weights(raw: &[(ModelId, f64)]) -> Result<Self, String> {
        if raw.is_empty() {
            return Err("model mix has no entries".to_string());
        }
        for &(m, w) in raw {
            if !w.is_finite() || w < 0.0 {
                return Err(format!("model mix weight for {m:?} is not usable: {w}"));
            }
        }
        let total: f64 = raw.iter().map(|&(_, w)| w).sum();
        if !total.is_finite() || total <= 0.0 {
            return Err(format!("model mix weights sum to {total}, need > 0"));
        }
        let weights: Vec<(ModelId, f64)> = raw.iter().map(|&(m, w)| (m, w / total)).collect();
        Ok(MixRotation {
            acc: vec![0.0; weights.len()],
            weights,
            kind_flip: HashMap::new(),
        })
    }

    /// # Panics
    ///
    /// Panics if the mix fails [`Self::try_new`] validation. Every
    /// in-tree [`ModelMix`] constructor produces valid weights.
    pub(crate) fn new(mix: &ModelMix) -> Self {
        Self::try_new(mix).expect("invalid model mix")
    }

    pub(crate) fn next(&mut self) -> (ModelId, JobKind) {
        for (i, &(_, w)) in self.weights.iter().enumerate() {
            self.acc[i] += w;
        }
        // Manual total-order scan with a fixed index-order tie rule:
        // `>=` keeps the *highest* maximal index, so exact ties (e.g. a
        // 50/50 blend) resolve identically on every run and platform.
        // This replaces `max_by(partial_cmp(..).expect(..))`, which
        // panicked on NaN; the tie direction deliberately matches
        // `max_by`'s last-maximum rule so realized sequences (and the
        // golden experiment outputs derived from them) are unchanged.
        let mut best = 0;
        for i in 1..self.acc.len() {
            if self.acc[i] >= self.acc[best] {
                best = i;
            }
        }
        self.acc[best] -= 1.0;
        let model = self.weights[best].0;
        let kind = if model.trainable_as_fill_job() {
            let flip = self.kind_flip.entry(model).or_insert(false);
            *flip = !*flip;
            if *flip {
                JobKind::Training
            } else {
                JobKind::BatchInference
            }
        } else {
            JobKind::BatchInference
        };
        (model, kind)
    }

    /// Appends the rotation's full state (accumulators and
    /// training/inference flips) to a steady-state signature, iterating
    /// in stable weight order — never over the `HashMap`.
    pub(crate) fn sig_into(&self, out: &mut Vec<u64>) {
        for (i, &(m, _)) in self.weights.iter().enumerate() {
            out.push(self.acc[i].to_bits());
            out.push(self.kind_flip.get(&m).copied().unwrap_or(false) as u64);
        }
    }
}

/// Appends an optional [`MixRotation`]'s state to a signature.
pub(crate) fn sig_rotation(rotation: &Option<MixRotation>, out: &mut Vec<u64>) {
    match rotation {
        None => out.push(0),
        Some(r) => {
            out.push(1);
            r.sig_into(out);
        }
    }
}

/// Appends one device slot's executor state to a signature. The plan's
/// `Arc` pointer stands in for (model, kind, geometry, plan) identity:
/// memoized plans live for the whole run, so equal pointers mean the
/// same profiled plan. Job ids are excluded on purpose (see the backends'
/// `steady_sig`).
pub(crate) fn sig_executor(ex: Option<&FillJobExecutor>, out: &mut Vec<u64>) {
    match ex {
        None => out.push(0),
        Some(ex) => {
            out.push(1);
            out.push(Arc::as_ptr(ex.plan_handle()) as usize as u64);
            out.push(ex.cursor() as u64);
            out.push(ex.samples_done());
            out.push(ex.flops_done().to_bits());
            out.push(ex.bubble_time_used().as_nanos());
            out.push(ex.job().samples);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefill_pipeline::ScheduleKind;

    fn config(fill: f64) -> PhysicalSimConfig {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let mut cfg = PhysicalSimConfig::new(main).with_fill_fraction(fill);
        cfg.iterations = 120;
        cfg
    }

    #[test]
    fn no_fill_baseline_has_zero_overhead() {
        let r = PhysicalSim::new(config(0.0)).run();
        assert_eq!(r.main_slowdown, 0.0);
        assert_eq!(r.recovered_tflops_per_gpu, 0.0);
        assert_eq!(r.jobs_completed, 0);
    }

    #[test]
    fn default_fill_fraction_keeps_overhead_under_two_percent() {
        // Fig. 5's headline: <2% slowdown at the 68% default.
        let r = PhysicalSim::new(config(0.68)).run();
        assert!(r.main_slowdown < 0.02, "slowdown {}", r.main_slowdown);
        assert!(
            r.recovered_tflops_per_gpu > 2.0,
            "recovered {}",
            r.recovered_tflops_per_gpu
        );
        assert!(r.jobs_completed > 0);
    }

    #[test]
    fn aggressive_filling_hurts_the_main_job() {
        let moderate = PhysicalSim::new(config(0.68)).run();
        let aggressive = PhysicalSim::new(config(0.95)).run();
        assert!(
            aggressive.main_slowdown > moderate.main_slowdown * 2.0,
            "moderate {} aggressive {}",
            moderate.main_slowdown,
            aggressive.main_slowdown
        );
        assert!(aggressive.main_slowdown > 0.02);
        // But total utilization keeps rising (the Fig. 5 observation).
        assert!(aggressive.recovered_tflops_per_gpu > moderate.recovered_tflops_per_gpu);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = PhysicalSim::new(config(0.68)).run();
        let b = PhysicalSim::new(config(0.68)).run();
        assert_eq!(a, b);
    }

    #[test]
    fn recovered_scales_with_fill_fraction() {
        let lo = PhysicalSim::new(config(0.3)).run();
        let hi = PhysicalSim::new(config(0.68)).run();
        assert!(
            hi.recovered_tflops_per_gpu > lo.recovered_tflops_per_gpu * 1.4,
            "lo {} hi {}",
            lo.recovered_tflops_per_gpu,
            hi.recovered_tflops_per_gpu
        );
    }

    #[test]
    fn memory_jitter_causes_isolated_ooms_not_slowdown() {
        // §4.3: a fill job exceeding its cap OOMs in isolation — the
        // main job never notices.
        let mut cfg = config(0.68);
        cfg.memory_jitter_cv = 0.4;
        let with_faults = PhysicalSim::new(cfg).run();
        let clean = PhysicalSim::new(config(0.68)).run();
        assert!(with_faults.isolated_ooms > 0, "no OOMs injected");
        assert_eq!(clean.isolated_ooms, 0);
        // Lost bubbles reduce recovered work but never the main job.
        assert!(with_faults.recovered_tflops_per_gpu < clean.recovered_tflops_per_gpu);
        assert!(
            with_faults.main_slowdown < 0.02,
            "isolation violated: slowdown {}",
            with_faults.main_slowdown
        );
    }

    #[test]
    fn rotation_ties_resolve_by_index_deterministically() {
        // A 50/50 blend produces exact accumulator ties every other draw;
        // the fixed index-order rule (last maximal index wins, matching
        // the historical `max_by` behavior) must alternate
        // deterministically instead of depending on float comparison
        // quirks.
        let mix = ModelMix::blend(ModelId::XlmRobertaXl, ModelId::EfficientNet, 0.5);
        let mut r = MixRotation::new(&mix);
        let seq: Vec<ModelId> = (0..8).map(|_| r.next().0).collect();
        let expect: Vec<ModelId> = (0..8)
            .map(|i| {
                if i % 2 == 0 {
                    ModelId::EfficientNet
                } else {
                    ModelId::XlmRobertaXl
                }
            })
            .collect();
        assert_eq!(seq, expect);
    }

    #[test]
    fn rotation_rejects_unusable_weights() {
        // Regression: non-finite weights used to panic inside the
        // per-draw `max_by(partial_cmp)` selection; they now surface as a
        // constructor error.
        assert!(MixRotation::try_from_weights(&[]).is_err());
        assert!(MixRotation::try_from_weights(&[(ModelId::BertBase, f64::NAN)]).is_err());
        assert!(MixRotation::try_from_weights(&[(ModelId::BertBase, f64::INFINITY)]).is_err());
        assert!(MixRotation::try_from_weights(&[(ModelId::BertBase, -1.0)]).is_err());
        assert!(MixRotation::try_from_weights(&[(ModelId::BertBase, 0.0)]).is_err());
        assert!(MixRotation::try_new(&ModelMix::paper_mix()).is_ok());
    }

    #[test]
    fn fast_forward_matches_event_fidelity_bit_for_bit() {
        // A jitter-free deterministic run reaches steady state; the
        // fast-forwarded result must be indistinguishable except for the
        // skip counter.
        let mut on = config(0.68).with_mix(ModelMix::single(ModelId::EfficientNet));
        on.jitter_cv = 0.0;
        on.deterministic_mix = true;
        on.backlog_job_gpu_hours = 0.002;
        on.iterations = 400;
        let mut off = on.clone();
        off.fast_forward = false;
        let r_on = PhysicalSim::new(on).run();
        let r_off = PhysicalSim::new(off).run();
        assert!(
            r_on.iterations_fast_forwarded > 0,
            "steady state never detected"
        );
        assert_eq!(r_off.iterations_fast_forwarded, 0);
        let mut r_on = r_on;
        r_on.iterations_fast_forwarded = 0;
        assert_eq!(r_on, r_off);
        assert_eq!(r_on.fill_flops.to_bits(), r_off.fill_flops.to_bits());
    }

    #[test]
    fn jittered_runs_never_fast_forward() {
        // The default fidelity consumes randomness every iteration; the
        // detector must stay disarmed and results must equal the
        // pre-fast-forward behavior exactly.
        let r = PhysicalSim::new(config(0.68)).run();
        assert_eq!(r.iterations_fast_forwarded, 0);
    }

    #[test]
    fn overhead_is_mix_independent_at_default_fill() {
        // Fig. 6: "the overhead to the main job does not vary
        // significantly" across fill-job types.
        let xlm =
            PhysicalSim::new(config(0.68).with_mix(ModelMix::single(ModelId::XlmRobertaXl))).run();
        let eff =
            PhysicalSim::new(config(0.68).with_mix(ModelMix::single(ModelId::EfficientNet))).run();
        assert!(xlm.main_slowdown < 0.02, "xlm {}", xlm.main_slowdown);
        assert!(eff.main_slowdown < 0.02, "eff {}", eff.main_slowdown);
    }
}
