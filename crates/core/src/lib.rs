//! # pipefill-core
//!
//! The PipeFill system (§4): the integration of the instrumented pipeline
//! engine, the per-device Fill Job Executors and the Fill Job Scheduler
//! into a cluster-level simulation, plus the experiment drivers that
//! regenerate every figure of the paper's evaluation (§6).
//!
//! Two simulation engines are provided, mirroring the paper's methodology
//! (§5.1):
//!
//! * [`ClusterSim`] — the *coarse, profile-driven* simulator. Like the
//!   paper's, its events are fill-job arrivals and completions; the time
//!   in between is computed from execution plans ("deep learning jobs
//!   have repetitive patterns, so an accurate simulator only needs to
//!   profile a pattern once").
//! * [`FleetBackend`] — the *fine-grained* engine: N concurrent
//!   pipeline-parallel main jobs (heterogeneous depths, periods, per-stage
//!   devices) on one kernel, sharing one cluster-wide fill queue. It
//!   executes every bubble of every iteration with multiplicative timing
//!   jitter, explicit context-switch costs and engine slack, so main-job
//!   slowdown is an emergent measurement rather than an assumption, and
//!   it injects memory-jitter OOMs and device failures with
//!   FreeRide-style checkpoint/restart accounting.
//!
//! Two presets of the fine-grained engine keep their own configuration
//! and result types: [`PhysicalBackend`], the stand-in for the paper's
//! 16-GPU physical cluster (comparing it with the coarse simulator
//! reproduces the Fig. 6 validation, max error <2%), and [`FaultBackend`],
//! a heterogeneous, failure-injecting pipeline. Each is a one-job fleet.
//!
//! All are [`SimBackend`]s over the shared [`ClusterEvent`] alphabet,
//! driven by the `pipefill-sim-core` kernel through [`BackendDriver`];
//! experiment drivers select fidelity by value with [`BackendConfig`] and
//! read the common [`BackendMetrics`] (see the `backend` module docs).
//!
//! The [`experiments`] module contains one driver per table/figure; each
//! returns typed rows, prints the same series the paper plots, and writes
//! CSV under `target/experiments/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod backend;
mod cluster;
mod convert;
mod csv;
mod fault;
mod ff;
mod fleet;
mod metrics;
mod physical;
mod steady;

pub mod experiments;

pub use backend::{
    BackendConfig, BackendDetail, BackendDriver, BackendKind, BackendMetrics, BackendRun,
    ClusterEvent, SimBackend,
};
pub use cluster::{
    ClusterSim, ClusterSimConfig, ClusterSimResult, CoarseBackend, CompletedJob, PolicyKind,
};
pub use convert::{kind_allowed, samples_for_trace_job, trace_job_to_spec, trace_job_to_spec_with};
pub use csv::{experiments_dir, CsvWriter};
pub use fault::{FaultBackend, FaultSimConfig, FaultSimResult};
pub use fleet::{FleetBackend, FleetJobConfig, FleetJobResult, FleetSimConfig, FleetSimResult};
pub use metrics::{gpus_saved, JctStats, UtilizationBreakdown};
pub use physical::{PhysicalBackend, PhysicalSimConfig, PhysicalSimResult};
pub use steady::{stage_plans, steady_rate, steady_recovered_tflops, SteadyRate};
