//! The Fill Job Execution Plan Algorithm — the paper's Algorithm 1.
//!
//! Given the bubble cycle (the per-iteration sequence of bubble durations
//! and free-memory capacities) and a job profile, the planner:
//!
//! 1. replicates the linearized graph until its total duration approaches
//!    the cycle's total bubble time (Algorithm 1, lines 3–7);
//! 2. greedily packs source nodes of the remaining graph into successive
//!    bubbles without violating each bubble's duration or free-memory
//!    limit (lines 8–18).
//!
//! [`plan_best`] runs this for every feasible configuration (batch size ×
//! technique) and keeps the plan with the highest throughput, which is the
//! Executor's "choose a batch size and create partitions … that maximize
//! the amount of work completed during the pipeline bubbles" (§4.1).

use pipefill_device::{Bytes, DeviceSpec};
use pipefill_sim_core::SimDuration;
use serde::{Deserialize, Serialize};

use crate::config::{ExecConfig, ExecTechnique, ExecutorConfig};
use crate::job::FillJobSpec;
use crate::profile::{build_profile, CostTable, JobProfile, NodeProfile};

/// One contiguous chunk of graph nodes assigned to one bubble slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    /// Bubble-slot index in the cycle this partition runs in.
    pub bubble_index: usize,
    /// Total execution time of the nodes (already inflated by the
    /// cold-start factor).
    pub duration: SimDuration,
    /// Peak memory across the nodes.
    pub memory: Bytes,
    /// FLOPs executed.
    pub flops: f64,
    /// Number of graph nodes.
    pub node_count: usize,
    /// Fill-job iterations whose final node completes inside this
    /// partition.
    pub iterations_completed: u64,
}

/// Why planning failed for a configuration (or a whole job).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanError {
    /// Some graph node cannot fit in any bubble: either it is longer than
    /// the longest usable bubble or needs more memory than any bubble
    /// offers.
    NodeDoesNotFit,
    /// The bubble cycle has no usable capacity (all bubbles shorter than
    /// the context-switch overhead).
    NoUsableBubbles,
    /// No configuration in the job's menu produced a feasible plan.
    NoFeasibleConfig,
    /// The profile's nodes take no time in total (or there are none), so
    /// Algorithm 1 could replicate the graph without bound.
    ZeroDurationGraph,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NodeDoesNotFit => write!(f, "a graph node fits no bubble"),
            PlanError::NoUsableBubbles => write!(f, "no usable bubble capacity"),
            PlanError::NoFeasibleConfig => write!(f, "no feasible configuration"),
            PlanError::ZeroDurationGraph => write!(f, "the job graph takes no time"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A complete execution plan: partitions mapped cyclically onto the
/// bubble slots of successive main-job iterations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionPlan {
    /// The chosen configuration.
    pub config: ExecConfig,
    /// Partitions in execution order.
    pub partitions: Vec<Partition>,
    /// Graph replicas (fill-job iterations) packed per pass.
    pub iterations_per_pass: u64,
    /// Samples completed per pass.
    pub samples_per_pass: u64,
    /// FLOPs executed per pass.
    pub flops_per_pass: f64,
    /// Total bubble time occupied per pass (sum of partition durations,
    /// excluding context-switch overhead).
    pub busy_time_per_pass: SimDuration,
    /// Bubble slots in the cycle (= fillable windows per main-job
    /// iteration).
    pub bubbles_per_iteration: usize,
    /// Main-job iterations one pass spans.
    pub main_iterations_per_pass: u64,
}

impl ExecutionPlan {
    /// Samples completed per main-job iteration — the throughput metric
    /// `plan_best` maximizes.
    pub fn samples_per_main_iteration(&self) -> f64 {
        self.samples_per_pass as f64 / self.main_iterations_per_pass as f64
    }

    /// Main-job iterations needed to process `samples`.
    pub fn main_iterations_for(&self, samples: u64) -> u64 {
        let passes = samples.div_ceil(self.samples_per_pass.max(1));
        passes * self.main_iterations_per_pass
    }
}

/// Alias used throughout: one bubble slot = (usable duration, free memory).
pub type BubbleSlot = (SimDuration, Bytes);

/// Usable capacity per bubble: the filled fraction minus switch cost.
fn usable_slots(bubbles: &[BubbleSlot], exec: &ExecutorConfig) -> Vec<BubbleSlot> {
    bubbles
        .iter()
        .map(|&(d, m)| {
            (
                d.mul_f64(exec.fill_fraction)
                    .saturating_sub(exec.switch_overhead),
                m,
            )
        })
        .collect()
}

/// Rewrites `nodes` (a profile's graph) to their durations as executed in
/// bubbles, where cold caches slow them by `exec.cold_start_factor`.
fn inflate_for_bubbles(nodes: &mut [NodeProfile], exec: &ExecutorConfig) {
    let slowdown = 1.0 / exec.cold_start_factor;
    for n in nodes {
        n.duration = n.duration.mul_f64(slowdown);
    }
}

/// The checks Algorithm 1 needs before packing `nodes` (at bubble speed)
/// into `caps`: every node fits at least one bubble (duration and memory
/// in the same bubble), and the graph takes time, or replication would
/// never end. Returns the graph's total duration.
fn packable(nodes: &[NodeProfile], caps: &[BubbleSlot]) -> Result<SimDuration, PlanError> {
    let fits = |n: &NodeProfile| {
        caps.iter()
            .any(|&(cd, cm)| n.duration <= cd && n.memory <= cm)
    };
    if !nodes.iter().all(fits) {
        return Err(PlanError::NodeDoesNotFit);
    }
    let graph_dur: SimDuration = nodes.iter().map(|n| n.duration).sum();
    if graph_dur.is_zero() {
        return Err(PlanError::ZeroDurationGraph);
    }
    Ok(graph_dur)
}

/// The key [`plan_best`] maximizes: throughput, with sample ties broken
/// toward the plan executing more FLOPs (e.g. prefer a bigger
/// checkpointed batch over a small plain one at equal sample rate).
fn selection_key(plan: &ExecutionPlan) -> (f64, f64) {
    (
        plan.samples_per_main_iteration(),
        plan.flops_per_pass / plan.main_iterations_per_pass as f64,
    )
}

/// Algorithm 1 proper, on `nodes` already at bubble speed that passed
/// [`packable`] with total `graph_dur`, and `total_cap` the cycle's
/// non-zero usable time.
///
/// With `record` false this is a dry run: it walks the same packing but
/// keeps no partitions, so the plan carries every per-pass total (and so
/// the selection key) with an empty `partitions` and nothing allocated.
fn pack(
    config: ExecConfig,
    samples_per_iteration: u64,
    nodes: &[NodeProfile],
    caps: &[BubbleSlot],
    total_cap: SimDuration,
    graph_dur: SimDuration,
    record: bool,
) -> Result<ExecutionPlan, PlanError> {
    // Lines 3–7: replicate the graph while another copy still fits:
    // r = max(1, the largest r with r·G < ΣB).
    let replicas = ((total_cap.as_nanos() - 1) / graph_dur.as_nanos()).max(1);
    let total_nodes = nodes.len() as u64 * replicas;
    let last = nodes.len() - 1;

    // Lines 8–18: greedy packing into cyclic bubbles. `slot_steps` counts
    // every bubble slot consumed (including ones skipped for memory), so
    // the pass's main-iteration span is exact.
    let mut partitions = Vec::new();
    let mut flops_per_pass = 0.0;
    let mut busy = SimDuration::ZERO;
    let mut placed = 0u64; // nodes of the replicated sequence packed so far
    let mut k = 0usize; // index of the next node within its replica
    let mut bubble_i = 0usize;
    let mut empty_streak = 0usize;
    let mut slot_steps = 0u64;
    while placed < total_nodes {
        let (cap_d, cap_m) = caps[bubble_i];
        let mut dur = SimDuration::ZERO;
        let mut mem = Bytes::ZERO;
        let mut flops = 0.0;
        let mut count = 0usize;
        let mut iterations = 0u64;
        while placed < total_nodes {
            let node = &nodes[k];
            if dur + node.duration > cap_d || node.memory > cap_m {
                break;
            }
            dur += node.duration;
            mem = mem.max(node.memory);
            flops += node.flops;
            count += 1;
            placed += 1;
            if k == last {
                iterations += 1;
                k = 0;
            } else {
                k += 1;
            }
        }
        if count == 0 {
            empty_streak += 1;
            // A full cycle without progress means the head node fits no
            // bubble under current occupancy — impossible by the
            // feasibility pre-check unless all bubbles were tried.
            if empty_streak >= caps.len() {
                return Err(PlanError::NodeDoesNotFit);
            }
        } else {
            empty_streak = 0;
            flops_per_pass += flops;
            busy += dur;
            if record {
                partitions.push(Partition {
                    bubble_index: bubble_i,
                    duration: dur,
                    memory: mem,
                    flops,
                    node_count: count,
                    iterations_completed: iterations,
                });
            }
        }
        slot_steps += 1;
        bubble_i = (bubble_i + 1) % caps.len();
    }

    Ok(ExecutionPlan {
        config,
        partitions,
        iterations_per_pass: replicas,
        samples_per_pass: replicas * samples_per_iteration,
        flops_per_pass,
        busy_time_per_pass: busy,
        bubbles_per_iteration: caps.len(),
        main_iterations_per_pass: slot_steps.div_ceil(caps.len() as u64).max(1),
    })
}

/// Runs Algorithm 1 for one already-built profile.
///
/// # Errors
///
/// See [`PlanError`].
pub fn plan_for_config(
    profile: &JobProfile,
    bubbles: &[BubbleSlot],
    exec: &ExecutorConfig,
) -> Result<ExecutionPlan, PlanError> {
    exec.validate();
    let caps = usable_slots(bubbles, exec);
    let total_cap: SimDuration = caps.iter().map(|&(d, _)| d).sum();
    if total_cap.is_zero() {
        return Err(PlanError::NoUsableBubbles);
    }
    let mut nodes = profile.nodes.clone();
    inflate_for_bubbles(&mut nodes, exec);
    let graph_dur = packable(&nodes, &caps)?;
    pack(
        profile.config,
        profile.samples_per_iteration,
        &nodes,
        &caps,
        total_cap,
        graph_dur,
        true,
    )
}

/// Returns the feasible plan, over every configuration in the job's menu,
/// with the most samples per main-job iteration (ties: more FLOPs per
/// main-job iteration, then the earlier configuration in menu order —
/// batch sizes as listed, techniques in [`ExecTechnique::applicable`]
/// order).
///
/// The result is exactly the first maximum of [`build_profile`] +
/// [`plan_for_config`] over the menu, computed in one pass:
///
/// * each batch size's layer costs are computed once and every
///   technique's graph is derived from them into reused buffers;
/// * configurations are packed dry (no partitions kept) to get their
///   selection key, and only the winner is planned in full;
/// * a configuration that provably cannot beat the incumbent is not
///   packed at all. **Upper bound:** a pass packs `replicas · G` of node
///   time (`G` the graph's bubble-time duration) into slots that offer at
///   most `C` = Σ usable slot time per main-job iteration, so
///   `replicas · G ≤ main_iterations · C` and samples per main-job
///   iteration `= b · replicas / main_iterations ≤ b · C / G`. A
///   configuration whose bound (with a 1e-9 relative guard against
///   rounding) is strictly below the incumbent's sample rate loses on the
///   first key component. **Monotone batch size:** every node's duration
///   and memory are non-decreasing in the batch size (compute time is
///   `flops·(b + half_batch)/(peak·max)`, stream bytes and activations
///   grow with `b`), so once `(b, t)` has a node that fits no bubble,
///   every `(b' ≥ b, t)` has one too and is skipped without costing.
///
/// # Errors
///
/// [`PlanError::NoFeasibleConfig`] if nothing fits.
///
/// # Panics
///
/// Panics (through [`ExecutorConfig::validate`]) on an invalid `exec`.
pub fn plan_best(
    job: &FillJobSpec,
    bubbles: &[BubbleSlot],
    device: &DeviceSpec,
    exec: &ExecutorConfig,
) -> Result<ExecutionPlan, PlanError> {
    exec.validate();
    let caps = usable_slots(bubbles, exec);
    let total_cap: SimDuration = caps.iter().map(|&(d, _)| d).sum();
    if total_cap.is_zero() {
        // Every configuration would fail with `NoUsableBubbles`.
        return Err(PlanError::NoFeasibleConfig);
    }
    let model = job.model_graph();
    let techniques = ExecTechnique::applicable(job.kind);
    let mut table = CostTable::new(&model, job.kind, device);
    let mut nodes = Vec::new();
    // Per technique, the smallest batch size seen whose graph fits no
    // bubble: by monotonicity, no batch at least this large fits either.
    let mut unfit_from: Vec<Option<usize>> = vec![None; techniques.len()];
    let mut best: Option<(ExecConfig, (f64, f64))> = None;
    for &batch_size in &job.valid_batch_sizes {
        let unfit = |from: &Option<usize>| from.is_some_and(|b| batch_size >= b);
        if unfit_from.iter().all(unfit) {
            continue;
        }
        table.set_batch(batch_size);
        for (t, &technique) in techniques.iter().enumerate() {
            if unfit(&unfit_from[t]) {
                continue;
            }
            table.nodes_into(technique, &mut nodes);
            inflate_for_bubbles(&mut nodes, exec);
            let graph_dur = match packable(&nodes, &caps) {
                Ok(graph_dur) => graph_dur,
                Err(PlanError::NodeDoesNotFit) => {
                    unfit_from[t] = Some(batch_size);
                    continue;
                }
                Err(_) => continue,
            };
            if let Some((_, (incumbent, _))) = best {
                let bound =
                    batch_size as f64 * total_cap.as_nanos() as f64 / graph_dur.as_nanos() as f64;
                if bound * (1.0 + 1e-9) < incumbent {
                    continue;
                }
            }
            let config = ExecConfig {
                batch_size,
                technique,
            };
            let Ok(dry) = pack(
                config,
                batch_size as u64,
                &nodes,
                &caps,
                total_cap,
                graph_dur,
                false,
            ) else {
                continue;
            };
            let key = selection_key(&dry);
            if best.is_none_or(|(_, incumbent)| key > incumbent) {
                best = Some((config, key));
            }
        }
    }
    let (config, _) = best.ok_or(PlanError::NoFeasibleConfig)?;
    plan_for_config(
        &build_profile(&model, job.kind, config, device),
        bubbles,
        exec,
    )
}

/// Ablation baseline: no partitioning — the whole fill-job iteration must
/// fit inside a single bubble or the config is infeasible. This is what a
/// bubble-filler without Algorithm 1 could do.
///
/// # Errors
///
/// Same conditions as [`plan_for_config`], with the stricter whole-graph
/// fit requirement.
pub fn plan_whole_graph_only(
    profile: &JobProfile,
    bubbles: &[BubbleSlot],
    exec: &ExecutorConfig,
) -> Result<ExecutionPlan, PlanError> {
    exec.validate();
    let slowdown = 1.0 / exec.cold_start_factor;
    let graph_dur: SimDuration = profile
        .nodes
        .iter()
        .map(|n| n.duration.mul_f64(slowdown))
        .sum();
    let peak = profile.peak_memory();
    let caps = usable_slots(bubbles, exec);
    let fitting: Vec<usize> = caps
        .iter()
        .enumerate()
        .filter(|&(_, &(d, m))| graph_dur <= d && peak <= m)
        .map(|(i, _)| i)
        .collect();
    if fitting.is_empty() {
        return Err(PlanError::NodeDoesNotFit);
    }
    // One whole iteration per fitting bubble per cycle.
    let partitions: Vec<Partition> = fitting
        .iter()
        .map(|&i| Partition {
            bubble_index: i,
            duration: graph_dur,
            memory: peak,
            flops: profile.iteration_flops(),
            node_count: profile.nodes.len(),
            iterations_completed: 1,
        })
        .collect();
    let iterations = partitions.len() as u64;
    Ok(ExecutionPlan {
        config: profile.config,
        iterations_per_pass: iterations,
        samples_per_pass: iterations * profile.samples_per_iteration,
        flops_per_pass: partitions.iter().map(|p| p.flops).sum(),
        busy_time_per_pass: partitions.iter().map(|p| p.duration).sum(),
        bubbles_per_iteration: caps.len(),
        main_iterations_per_pass: 1,
        partitions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::NodeProfile;
    use pipefill_model_zoo::{JobKind, ModelId};

    fn exec() -> ExecutorConfig {
        ExecutorConfig {
            fill_fraction: 1.0,
            cold_start_factor: 1.0,
            switch_overhead: SimDuration::ZERO,
        }
    }

    fn uniform_profile(nodes: usize, ms: u64, mem_mib: u64) -> JobProfile {
        JobProfile {
            config: ExecConfig {
                batch_size: 4,
                technique: ExecTechnique::Plain,
            },
            nodes: (0..nodes)
                .map(|_| NodeProfile {
                    duration: SimDuration::from_millis(ms),
                    memory: Bytes::from_mib(mem_mib),
                    flops: 1.0e9,
                })
                .collect(),
            samples_per_iteration: 4,
        }
    }

    fn slots(spec: &[(u64, u64)]) -> Vec<BubbleSlot> {
        spec.iter()
            .map(|&(ms, gib)| (SimDuration::from_millis(ms), Bytes::from_gib(gib)))
            .collect()
    }

    #[test]
    fn partitions_respect_bubble_durations() {
        // Graph: 10 nodes × 30 ms = 300 ms. Bubbles: 100 ms and 65 ms.
        let profile = uniform_profile(10, 30, 100);
        let plan = plan_for_config(&profile, &slots(&[(100, 4), (65, 4)]), &exec()).unwrap();
        for p in &plan.partitions {
            let cap = if p.bubble_index == 0 { 100 } else { 65 };
            assert!(
                p.duration <= SimDuration::from_millis(cap),
                "partition {p:?} exceeds bubble {cap} ms"
            );
        }
        // All nodes of all replicas are packed.
        let total: usize = plan.partitions.iter().map(|p| p.node_count).sum();
        assert_eq!(total, 10 * plan.iterations_per_pass as usize);
    }

    #[test]
    fn replication_fills_available_time() {
        // Graph 100 ms; cycle 1000 ms => Algorithm 1 lines 3-7 replicate
        // while dur(F') + dur(F) < ΣB: 9 replicas (900 + 100 !< 1000).
        let profile = uniform_profile(10, 10, 10);
        let plan = plan_for_config(&profile, &slots(&[(1000, 4)]), &exec()).unwrap();
        assert_eq!(plan.iterations_per_pass, 9);
        assert_eq!(plan.samples_per_pass, 9 * 4);
    }

    #[test]
    fn memory_constraint_defers_to_fitting_bubble() {
        // Node needs 3 GiB; bubble 0 offers 1 GiB, bubble 1 offers 4 GiB.
        let profile = uniform_profile(4, 10, 3 * 1024);
        let plan = plan_for_config(&profile, &slots(&[(1000, 1), (1000, 4)]), &exec()).unwrap();
        for p in &plan.partitions {
            assert_eq!(p.bubble_index, 1, "all work must land in the 4 GiB bubble");
        }
    }

    #[test]
    fn oversized_node_is_rejected() {
        // 200 ms node, longest bubble 100 ms.
        let profile = uniform_profile(1, 200, 10);
        assert_eq!(
            plan_for_config(&profile, &slots(&[(100, 4), (50, 4)]), &exec()),
            Err(PlanError::NodeDoesNotFit)
        );
        // 8 GiB node, biggest bubble 4 GiB.
        let profile = uniform_profile(1, 10, 8 * 1024);
        assert_eq!(
            plan_for_config(&profile, &slots(&[(100, 4)]), &exec()),
            Err(PlanError::NodeDoesNotFit)
        );
    }

    #[test]
    fn zero_capacity_cycle_is_rejected() {
        let profile = uniform_profile(2, 10, 10);
        let tiny = ExecutorConfig {
            fill_fraction: 0.5,
            cold_start_factor: 1.0,
            switch_overhead: SimDuration::from_millis(100),
        };
        // 100 ms bubble × 0.5 − 100 ms switch = 0 usable.
        assert_eq!(
            plan_for_config(&profile, &slots(&[(100, 4)]), &tiny),
            Err(PlanError::NoUsableBubbles)
        );
    }

    #[test]
    fn fill_fraction_shrinks_capacity() {
        let profile = uniform_profile(10, 10, 10);
        let full = plan_for_config(&profile, &slots(&[(400, 4)]), &exec()).unwrap();
        assert_eq!(full.iterations_per_pass, 3);
        let capped = plan_for_config(
            &profile,
            &slots(&[(400, 4)]),
            &ExecutorConfig {
                fill_fraction: 0.5,
                cold_start_factor: 1.0,
                switch_overhead: SimDuration::ZERO,
            },
        )
        .unwrap();
        assert!(capped.iterations_per_pass < full.iterations_per_pass);
    }

    #[test]
    fn cold_start_inflates_node_time() {
        let profile = uniform_profile(10, 10, 10);
        let cold = plan_for_config(
            &profile,
            &slots(&[(200, 4)]),
            &ExecutorConfig {
                fill_fraction: 1.0,
                cold_start_factor: 0.5,
                switch_overhead: SimDuration::ZERO,
            },
        )
        .unwrap();
        // Nodes run at half speed: a 200 ms bubble fits 10 nodes of 20 ms.
        assert_eq!(cold.partitions[0].node_count, 10);
        assert_eq!(cold.partitions[0].duration, SimDuration::from_millis(200));
    }

    #[test]
    fn multi_iteration_pass_spans_main_iterations() {
        // Graph 400 ms, cycle capacity 100 ms/iteration => pass spans 4+
        // main iterations.
        let profile = uniform_profile(40, 10, 10);
        let plan = plan_for_config(&profile, &slots(&[(100, 4)]), &exec()).unwrap();
        assert!(plan.main_iterations_per_pass >= 4);
        assert_eq!(plan.main_iterations_for(4), plan.main_iterations_per_pass);
        assert_eq!(
            plan.main_iterations_for(8),
            2 * plan.main_iterations_per_pass
        );
    }

    #[test]
    fn zero_duration_graph_is_an_error_not_a_hang() {
        // A graph that takes no time would be replicated without bound.
        let mut instant = uniform_profile(1, 0, 10);
        assert_eq!(
            plan_for_config(&instant, &slots(&[(10, 4)]), &exec()),
            Err(PlanError::ZeroDurationGraph)
        );
        instant.nodes.clear();
        assert_eq!(
            plan_for_config(&instant, &slots(&[(10, 4)]), &exec()),
            Err(PlanError::ZeroDurationGraph)
        );
    }

    #[test]
    fn tie_on_the_full_key_goes_to_the_earlier_configuration() {
        // On one 100 ms / 4.5 GiB slot, BERT-base inference packs the
        // same samples and FLOPs per main-job iteration at batch 128 and
        // 256, plain or with streamed parameters.
        let device = DeviceSpec::v100();
        let cfg = ExecutorConfig::default();
        let bubbles = [(SimDuration::from_millis(100), Bytes::from_gib_f64(4.5))];
        let model = ModelId::BertBase.build();
        let key = |batch_size, technique| {
            let profile = build_profile(
                &model,
                JobKind::BatchInference,
                ExecConfig {
                    batch_size,
                    technique,
                },
                &device,
            );
            selection_key(&plan_for_config(&profile, &bubbles, &cfg).unwrap())
        };
        let tied = key(128, ExecTechnique::Plain);
        assert_eq!(key(128, ExecTechnique::OffloadParams), tied);
        assert_eq!(key(256, ExecTechnique::Plain), tied);
        assert_eq!(key(256, ExecTechnique::OffloadParams), tied);
        for (menu, winner) in [(vec![128, 256], 128), (vec![256, 128], 256)] {
            let job = FillJobSpec::new(1, ModelId::BertBase, JobKind::BatchInference, 10_000)
                .with_batch_sizes(menu);
            let plan = plan_best(&job, &bubbles, &device, &cfg).unwrap();
            assert_eq!(
                plan.config,
                ExecConfig {
                    batch_size: winner,
                    technique: ExecTechnique::Plain,
                }
            );
            assert_eq!(selection_key(&plan), tied);
        }
    }

    #[test]
    fn plan_best_picks_bert_inference_plain() {
        let job = FillJobSpec::new(1, ModelId::BertBase, JobKind::BatchInference, 10_000);
        let bubbles = slots(&[(1900, 4), (1000, 4)]);
        let plan = plan_best(
            &job,
            &bubbles,
            &DeviceSpec::v100(),
            &ExecutorConfig::default(),
        )
        .unwrap();
        assert_eq!(plan.config.technique, ExecTechnique::Plain);
        assert!(plan.config.batch_size >= 16, "{}", plan.config);
        assert!(plan.samples_per_main_iteration() > 0.0);
    }

    #[test]
    fn plan_best_uses_streaming_for_xlm() {
        // XLM's weights exceed 4.5 GB: only ZeRO-Infinity-style configs
        // are feasible (§6.2).
        let job = FillJobSpec::new(2, ModelId::XlmRobertaXl, JobKind::BatchInference, 1_000);
        let bubbles = slots(&[(1900, 4), (1000, 4)]);
        let plan = plan_best(
            &job,
            &bubbles,
            &DeviceSpec::v100(),
            &ExecutorConfig::default(),
        )
        .unwrap();
        assert!(plan.config.technique.streams_params(), "{}", plan.config);
    }

    #[test]
    fn whole_graph_baseline_is_no_better_than_algorithm1() {
        let job = FillJobSpec::new(3, ModelId::BertLarge, JobKind::BatchInference, 10_000);
        let model = job.model_graph();
        let bubbles = slots(&[(500, 4), (300, 4)]);
        let cfg = ExecutorConfig::default();
        let device = DeviceSpec::v100();
        let best = plan_best(&job, &bubbles, &device, &cfg).unwrap();
        // Compare against the naive baseline under the same best config.
        let profile = build_profile(&model, job.kind, best.config, &device);
        match plan_whole_graph_only(&profile, &bubbles, &cfg) {
            Ok(naive) => assert!(
                naive.samples_per_main_iteration() <= best.samples_per_main_iteration() + 1e-9
            ),
            Err(_) => { /* naive infeasible: Algorithm 1 strictly better */ }
        }
    }
}
