//! In-memory spans recorded from outside the crates, and the traced
//! backend wrapper.
//!
//! A [`Recorder`] keeps one [`Span`] per timed call: its [`Layer`], the
//! span that caused it, the simulated time (for dispatched events) and
//! the host start and end. [`Traced`] wraps any [`SimBackend`] and
//! records a span per `prime`, `drain` and dispatched event, plus the
//! kernel loop between them, without touching the backend. A layer's self
//! time is its span's duration minus the time its child spans cover.

use std::io::Write;
use std::time::Instant;

use pipefill_core::{BackendKind, BackendMetrics, ClusterEvent, SimBackend};
use pipefill_sim_core::{EventHandler, EventQueue, SimTime, Simulation};

/// What a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One evaluation: a whole simulation run or one schedule candidate.
    Run,
    /// Workload or trace generation (`trace` crate).
    Generate,
    /// `trace_job_to_spec` conversions of one trace (`core`).
    Convert,
    /// One `plan_best` call (`executor`).
    Plan,
    /// One pipeline-engine run (`pipeline`).
    Engine,
    /// `StreamSet::from_schedule` plus `verify` (`schedverify`).
    Verify,
    /// A backend's `::new` (`core`).
    New,
    /// `SimBackend::prime` (`core`).
    Prime,
    /// The kernel's dispatch loop (`sim-core`).
    Loop,
    /// `SimBackend::drain` (`core`).
    Drain,
    /// `handle` of a `StageBubbles` event.
    StageBubbles,
    /// `handle` of an `IterationEnd` or `JobIterationEnd` event.
    IterationEnd,
    /// `handle` of a `DeviceFailure` event.
    DeviceFailure,
    /// `handle` of a `DeviceRecovery` event.
    DeviceRecovery,
    /// `handle` of a `JobArrival` event.
    Arrival,
    /// `handle` of a `JobCompletion` event.
    Completion,
}

impl Layer {
    /// Every layer, in declaration order.
    pub const ALL: [Layer; 16] = [
        Layer::Run,
        Layer::Generate,
        Layer::Convert,
        Layer::Plan,
        Layer::Engine,
        Layer::Verify,
        Layer::New,
        Layer::Prime,
        Layer::Loop,
        Layer::Drain,
        Layer::StageBubbles,
        Layer::IterationEnd,
        Layer::DeviceFailure,
        Layer::DeviceRecovery,
        Layer::Arrival,
        Layer::Completion,
    ];

    /// The handler span kind of a dispatched event.
    pub fn of_event(event: &ClusterEvent) -> Layer {
        match event {
            ClusterEvent::StageBubbles { .. } => Layer::StageBubbles,
            ClusterEvent::IterationEnd | ClusterEvent::JobIterationEnd { .. } => {
                Layer::IterationEnd
            }
            ClusterEvent::DeviceFailure { .. } => Layer::DeviceFailure,
            ClusterEvent::DeviceRecovery { .. } => Layer::DeviceRecovery,
            ClusterEvent::JobArrival(_) => Layer::Arrival,
            ClusterEvent::JobCompletion { .. } => Layer::Completion,
        }
    }

    /// Whether spans of this layer are event-handler calls.
    pub fn is_handler(self) -> bool {
        self >= Layer::StageBubbles
    }

    /// Short lowercase name, used in the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Run => "run",
            Layer::Generate => "generate",
            Layer::Convert => "convert",
            Layer::Plan => "plan",
            Layer::Engine => "engine",
            Layer::Verify => "verify",
            Layer::New => "new",
            Layer::Prime => "prime",
            Layer::Loop => "loop",
            Layer::Drain => "drain",
            Layer::StageBubbles => "stage_bubbles",
            Layer::IterationEnd => "iteration_end",
            Layer::DeviceFailure => "device_failure",
            Layer::DeviceRecovery => "device_recovery",
            Layer::Arrival => "arrival",
            Layer::Completion => "completion",
        }
    }
}

/// No parent: a root span.
const ROOT: u32 = u32::MAX;

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was timed.
    pub layer: Layer,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Simulated time of a dispatched event (0 otherwise), in ns.
    pub sim_ns: u64,
    /// Host start, ns since the recorder was created.
    pub start_ns: u64,
    /// Host end, ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Host duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans of one evaluation, kept in memory until it ends.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// An empty recorder, with room for `capacity` spans so that growth
    /// does not land inside timed intervals.
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, layer: Layer) {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent,
            sim_ns: 0,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (unbalanced calls: a benchmark bug).
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Times `f` as one span of `layer`.
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.enter(layer);
        let out = f();
        self.exit();
        out
    }

    /// Records a closed leaf span with a simulated timestamp.
    fn leaf(&mut self, layer: Layer, sim: SimTime, start_ns: u64, end_ns: u64) {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        self.spans.push(Span {
            layer,
            parent,
            sim_ns: sim.as_nanos(),
            start_ns,
            end_ns,
        });
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated lines
    /// `id parent layer sim_ns start_ns end_ns self_ns` (parent `-` for a
    /// root span).
    pub fn write_tsv(&self, out: impl Write) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(out);
        writeln!(out, "id\tparent\tlayer\tsim_ns\tstart_ns\tend_ns\tself_ns")?;
        let own = self_times(&self.spans);
        for (i, (s, own)) in self.spans.iter().zip(own).enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{own}",
                s.layer.name(),
                s.sim_ns,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f`, as a span of `layer` when recording.
pub fn timed<R>(rec: &mut Option<&mut Recorder>, layer: Layer, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(r) => r.time(layer, f),
        None => f(),
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Children of one parent run one after another on one
/// thread, so their coverage is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            covered[s.parent as usize] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Per-layer totals over one or more evaluations.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Spans recorded.
    pub count: u64,
    /// Total host duration, ns.
    pub total_ns: u64,
    /// Total self time, ns.
    pub self_ns: u64,
}

/// Accumulates [`LayerTotals`] per [`Layer`].
#[derive(Debug, Clone, Default)]
pub struct Profile {
    totals: [LayerTotals; Layer::ALL.len()],
}

impl Profile {
    /// Adds every span of `rec`.
    pub fn add(&mut self, rec: &Recorder) {
        let own = self_times(rec.spans());
        for (s, own) in rec.spans().iter().zip(own) {
            let t = &mut self.totals[s.layer as usize];
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += own;
        }
    }

    /// Totals of one layer.
    pub fn get(&self, layer: Layer) -> LayerTotals {
        self.totals[layer as usize]
    }

    /// Handler calls over every event kind.
    pub fn handler_calls(&self) -> u64 {
        Layer::ALL
            .iter()
            .filter(|l| l.is_handler())
            .map(|&l| self.get(l).count)
            .sum()
    }
}

/// A transparent [`SimBackend`] wrapper recording one span per `prime`,
/// kernel loop, dispatched event and `drain` into its [`Recorder`].
pub struct Traced<'r, B> {
    inner: B,
    rec: &'r mut Recorder,
}

impl<'r, B: SimBackend> Traced<'r, B> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: B, rec: &'r mut Recorder) -> Self {
        Traced { inner, rec }
    }

    /// The wrapped backend.
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: SimBackend> EventHandler for Traced<'_, B> {
    type Event = ClusterEvent;

    fn handle(&mut self, now: SimTime, event: ClusterEvent, queue: &mut EventQueue<ClusterEvent>) {
        let layer = Layer::of_event(&event);
        let start = self.rec.now_ns();
        self.inner.handle(now, event, queue);
        let end = self.rec.now_ns();
        self.rec.leaf(layer, now, start, end);
    }
}

impl<B: SimBackend> SimBackend for Traced<'_, B> {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    /// Primes the inner backend, then opens the kernel-loop span that
    /// [`SimBackend::drain`] closes.
    fn prime(&mut self, sim: &mut Simulation<ClusterEvent>) {
        let inner = &mut self.inner;
        self.rec.time(Layer::Prime, || inner.prime(sim));
        self.rec.enter(Layer::Loop);
    }

    fn horizon(&self) -> Option<SimTime> {
        self.inner.horizon()
    }

    fn on_bubble(
        &mut self,
        now: SimTime,
        stage: usize,
        slot: usize,
        queue: &mut EventQueue<ClusterEvent>,
    ) {
        self.inner.on_bubble(now, stage, slot, queue);
    }

    fn drain(&mut self, now: SimTime) {
        self.rec.exit();
        let inner = &mut self.inner;
        self.rec.time(Layer::Drain, || inner.drain(now));
    }

    fn metrics(&self, events_dispatched: u64) -> BackendMetrics {
        self.inner.metrics(events_dispatched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_coverage() {
        let mut rec = Recorder::with_capacity(4);
        rec.enter(Layer::Run);
        rec.time(Layer::Plan, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.time(Layer::Engine, || ());
        rec.exit();
        let spans = rec.spans();
        let own = self_times(spans);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert_eq!(
            own[0],
            spans[0].duration_ns() - spans[1].duration_ns() - spans[2].duration_ns()
        );
        assert_eq!(own[1], spans[1].duration_ns());
        assert!(own[1] >= 2_000_000);
        let mut p = Profile::default();
        p.add(&rec);
        assert_eq!(p.get(Layer::Plan).count, 1);
        assert_eq!(p.handler_calls(), 0);
    }

    #[test]
    fn span_file_has_one_line_per_span() {
        let mut rec = Recorder::with_capacity(2);
        rec.time(Layer::Run, || ());
        let mut buf = Vec::new();
        rec.write_tsv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().starts_with("0\t-\trun\t"));
    }
}
