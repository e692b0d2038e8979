//! Telemetry: metrics registry, causal spans, engine profiling and a
//! flight recorder — everything off by default, behaviourally inert when on.
//!
//! # Registry ids
//!
//! Metrics are registered once by `&'static str` name against the
//! [`MetricsRegistry`] and recorded through the returned dense [`MetricId`]
//! — the hot path is a `Vec` index, never a hash or a `String`. The engine
//! pre-registers its own ids at [`Telemetry::new`] (see the `engine.*` and
//! `sim.*` names below); hosts sample `sim.*` mirrors of [`SimMetrics`] and
//! every other scalar on a fixed **virtual-time** cadence
//! ([`TelemetryConfig::sample_every`]), so time series are deterministic
//! across runs of one seed.
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `engine.dispatch_ns.{deliver,timer,start,fail,stop}` | histogram | wall-clock ns per dispatched event, 1-in-1024 sampled |
//! | `engine.barrier_stall_ns` | histogram | wall-clock ns a shard thread spent blocked per barrier wait |
//! | `engine.barrier_epochs` | counter | epochs the sharded engine completed |
//! | `sim.events`, `sim.messages_sent`, … | counter | mirrors of [`SimMetrics`], refreshed at each sample tick |
//!
//! # Span model
//!
//! [`Context::start_trace`](crate::Context::start_trace) opens a **root
//! span** for an originated operation and sets the context's [`TraceCtx`].
//! From then on propagation is automatic: every `ctx.send` under an active
//! trace records a **hop span** (opened at send time, closed at delivery,
//! marked [`SpanRecord::lost`] if the link drops it) whose parent is the
//! current span, and the receiver's callback context carries
//! `TraceCtx { trace_id, parent_span: hop }` — so fan-out trees and
//! retransmit chains reconstruct from parent links alone. The context is
//! **simulator-envelope metadata**: it rides the in-memory event queue and
//! is never serialised by any wire codec, which is why enabling tracing
//! cannot change a single byte on the wire. Trace/span ids come from plain
//! counters (the sharded engine tags them with the shard index in the high
//! bits), never from the simulation RNG, so the deterministic event stream
//! is untouched — a digest-pinned test holds the engine to that.
//!
//! # Export format
//!
//! [`export::chrome_trace`] renders span logs as Chrome-trace JSON (the
//! `traceEvents` array form): one `ph:"X"` complete event per span with
//! `ts`/`dur` in virtual µs, `pid` = trace id, `tid` = receiving node, and
//! one `ph:"i"` instant event per note. The file loads directly in Perfetto
//! or `chrome://tracing`; `reproduce --trace-out FILE` writes one for a
//! seeded run.

pub mod export;
pub mod recorder;
pub mod registry;
pub mod span;

pub use recorder::{FlightEntry, FlightRecorder};
pub use registry::{Histogram, MetricId, MetricKind, MetricsRegistry};
pub use span::{NoteRecord, SpanLog, SpanRecord, TraceCtx};

use crate::metrics::SimMetrics;
use crate::protocol::NodeAddr;
use crate::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// Tuning knobs for a [`Telemetry`] instance.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Events retained by the flight recorder. The ring is written on
    /// *every* dispatched event, so its working set should stay within
    /// L2: 4096 × 32-byte entries = 128 KB. Raise it (e.g. via
    /// [`TelemetryConfig::with_recorder_capacity`]) in property tests
    /// that want a longer post-mortem tail and don't care about steps/s.
    pub recorder_capacity: usize,
    /// Spans (and notes) retained by the span log.
    pub span_capacity: usize,
    /// Virtual-time cadence for sampling scalars into series.
    pub sample_every: SimDuration,
    /// Sample wall-clock dispatch cost (1 event in 1024) into the
    /// per-event-kind histograms.
    pub time_dispatch: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            recorder_capacity: 4 * 1024,
            span_capacity: 1 << 20,
            sample_every: SimDuration::from_secs(1),
            time_dispatch: true,
        }
    }
}

impl TelemetryConfig {
    /// A config whose flight recorder retains the last `cap` events.
    pub fn with_recorder_capacity(mut self, cap: usize) -> Self {
        self.recorder_capacity = cap;
        self
    }
}

/// Pre-registered engine metric ids.
#[derive(Debug, Clone, Copy)]
struct EngineIds {
    dispatch: [MetricId; 5],
    barrier_stall: MetricId,
    barrier_epochs: MetricId,
    sim: [MetricId; 6],
}

/// One dispatch in this many has its wall-clock cost timed.
const TIME_EVERY: u32 = 1024;

/// Per-host telemetry state: registry, span log, flight recorder and the
/// deterministic id allocators. One per [`crate::Simulation`]; one per
/// shard under [`crate::ShardedSimulation`].
#[derive(Debug)]
pub struct Telemetry {
    /// The metrics registry (engine ids pre-registered, open for hosts).
    pub registry: MetricsRegistry,
    /// The span log.
    pub spans: SpanLog,
    /// The flight recorder.
    pub recorder: FlightRecorder,
    ids: EngineIds,
    tag: u64,
    next_span: u64,
    next_trace: u64,
    /// Dispatches left until the next timed one; counts down from
    /// [`TIME_EVERY`].
    until_timed: u32,
    time_dispatch: bool,
    sample_every: SimDuration,
    next_sample: SimTime,
    inflight: HashMap<u64, TraceCtx>,
}

impl Telemetry {
    /// Telemetry for a single-threaded host (id tag 0).
    pub fn new(config: TelemetryConfig) -> Self {
        Telemetry::with_tag(config, 0)
    }

    /// Telemetry whose trace/span ids carry `tag << 48` in the high bits,
    /// keeping per-shard allocators collision-free without coordination.
    pub fn with_tag(config: TelemetryConfig, tag: u64) -> Self {
        let mut registry = MetricsRegistry::new(4096);
        let ids = EngineIds {
            dispatch: [
                registry.histogram("engine.dispatch_ns.deliver"),
                registry.histogram("engine.dispatch_ns.timer"),
                registry.histogram("engine.dispatch_ns.start"),
                registry.histogram("engine.dispatch_ns.fail"),
                registry.histogram("engine.dispatch_ns.stop"),
            ],
            barrier_stall: registry.histogram("engine.barrier_stall_ns"),
            barrier_epochs: registry.counter("engine.barrier_epochs"),
            sim: [
                registry.counter("sim.events"),
                registry.counter("sim.messages_sent"),
                registry.counter("sim.messages_delivered"),
                registry.counter("sim.messages_lost"),
                registry.counter("sim.timers_fired"),
                registry.counter("sim.nodes_started"),
            ],
        };
        Telemetry {
            registry,
            spans: SpanLog::new(config.span_capacity),
            recorder: FlightRecorder::new(config.recorder_capacity),
            ids,
            tag: tag << 48,
            next_span: 0,
            next_trace: 0,
            until_timed: TIME_EVERY,
            time_dispatch: config.time_dispatch,
            sample_every: config.sample_every,
            next_sample: SimTime::ZERO + config.sample_every,
            inflight: HashMap::new(),
        }
    }

    fn alloc_span(&mut self) -> u64 {
        self.next_span += 1;
        self.tag | self.next_span
    }

    fn alloc_trace(&mut self) -> u64 {
        self.next_trace += 1;
        self.tag | self.next_trace
    }

    /// Open a root span for an originated operation; the returned context
    /// is what child sends propagate.
    pub fn start_trace(&mut self, name: &'static str, now: SimTime, node: NodeAddr) -> TraceCtx {
        let trace_id = self.alloc_trace();
        let span = self.alloc_span();
        self.spans.push_span(SpanRecord {
            id: span,
            trace_id,
            parent: 0,
            name,
            start: now,
            end: None,
            src: node,
            dest: node,
            lost: false,
        });
        TraceCtx {
            trace_id,
            parent_span: span,
        }
    }

    /// Record one message hop under `ctx`: sent at `start`, delivered at
    /// `end` (`None` = dropped by the link). Returns the hop's span id —
    /// the `parent_span` the receiving execution continues under.
    pub fn record_hop(
        &mut self,
        label: &'static str,
        ctx: TraceCtx,
        src: NodeAddr,
        dest: NodeAddr,
        start: SimTime,
        end: Option<SimTime>,
    ) -> u64 {
        let id = self.alloc_span();
        self.spans.push_span(SpanRecord {
            id,
            trace_id: ctx.trace_id,
            parent: ctx.parent_span,
            name: label,
            start,
            end,
            src,
            dest,
            lost: end.is_none(),
        });
        id
    }

    /// Attach an instant note to the current span.
    pub fn note(&mut self, label: &'static str, ctx: TraceCtx, at: SimTime, node: NodeAddr) {
        self.spans.push_note(NoteRecord {
            trace_id: ctx.trace_id,
            span: ctx.parent_span,
            at,
            node,
            label,
        });
    }

    /// Stash the trace context of an in-flight message under its scheduler
    /// sequence number.
    pub fn put_inflight(&mut self, seq: u64, ctx: TraceCtx) {
        self.inflight.insert(seq, ctx);
    }

    /// Claim the trace context of a delivery, if the message carried one.
    #[inline]
    pub fn take_inflight(&mut self, seq: u64) -> Option<TraceCtx> {
        if self.inflight.is_empty() {
            None
        } else {
            self.inflight.remove(&seq)
        }
    }

    /// True on the one dispatch in every `TIME_EVERY` whose wall-clock cost
    /// should be measured (keeps `Instant::now` off the common path).
    #[inline]
    pub fn should_time(&mut self) -> bool {
        self.until_timed -= 1;
        if self.until_timed == 0 {
            self.until_timed = TIME_EVERY;
            self.time_dispatch
        } else {
            false
        }
    }

    /// The per-event telemetry work of a host: flight-record `entry`, then
    /// [`Telemetry::maybe_sample`] and [`Telemetry::should_time`], whose
    /// answer it returns. While neither a sample nor a timed dispatch is
    /// due, that is the ring write and two compares; the rest runs out of
    /// line.
    #[inline]
    pub(crate) fn pre_dispatch(&mut self, entry: FlightEntry, metrics: &SimMetrics) -> bool {
        self.recorder.record(entry);
        if self.until_timed > 1 && entry.at < self.next_sample {
            self.until_timed -= 1;
            return false;
        }
        self.periodic(entry.at, metrics)
    }

    #[cold]
    #[inline(never)]
    fn periodic(&mut self, now: SimTime, metrics: &SimMetrics) -> bool {
        self.maybe_sample(now, metrics);
        self.should_time()
    }

    /// Record a sampled dispatch cost for digest tag `tag` (0 deliver …
    /// 4 stop).
    pub fn record_dispatch(&mut self, tag: u8, nanos: u64) {
        let id = self.ids.dispatch[(tag as usize).min(4)];
        self.registry.observe(id, nanos);
    }

    /// Total sampled dispatch observations across all event kinds.
    pub fn dispatch_samples(&self) -> u64 {
        self.ids
            .dispatch
            .iter()
            .map(|id| self.registry.value(*id))
            .sum()
    }

    /// Record one barrier wait's wall-clock stall.
    pub fn record_barrier_stall(&mut self, nanos: u64) {
        self.registry.observe(self.ids.barrier_stall, nanos);
    }

    /// Count one completed sharded epoch.
    pub fn record_barrier_epoch(&mut self) {
        self.registry.add(self.ids.barrier_epochs, 1);
    }

    /// Number of barrier stall observations.
    pub fn barrier_stall_samples(&self) -> u64 {
        self.registry.value(self.ids.barrier_stall)
    }

    /// The barrier-stall histogram.
    pub fn barrier_stall_histogram(&self) -> &Histogram {
        self.registry
            .histogram_of(self.ids.barrier_stall)
            .expect("pre-registered")
    }

    /// The dispatch-cost histogram for digest tag `tag`.
    pub fn dispatch_histogram(&self, tag: u8) -> &Histogram {
        self.registry
            .histogram_of(self.ids.dispatch[(tag as usize).min(4)])
            .expect("pre-registered")
    }

    /// Refresh the `sim.*` mirrors and sample every scalar into its series
    /// if a sample tick elapsed. Hosts call this once per dispatched event;
    /// the interval check is two compares.
    #[inline]
    pub fn maybe_sample(&mut self, now: SimTime, metrics: &SimMetrics) {
        if now < self.next_sample {
            return;
        }
        let [events, sent, delivered, lost, timers, started] = self.ids.sim;
        self.registry.set(events, metrics.events_dispatched);
        self.registry.set(sent, metrics.messages_sent);
        self.registry.set(delivered, metrics.messages_delivered);
        self.registry.set(lost, metrics.messages_lost);
        self.registry.set(timers, metrics.timers_fired);
        self.registry.set(started, metrics.nodes_started);
        self.registry.sample(now);
        while self.next_sample <= now {
            self.next_sample += self.sample_every;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_tagged_and_sequential() {
        let mut t = Telemetry::with_tag(TelemetryConfig::default(), 3);
        let a = t.start_trace("op", SimTime::ZERO, NodeAddr(1));
        let b = t.start_trace("op", SimTime::ZERO, NodeAddr(2));
        assert_eq!(a.trace_id >> 48, 3);
        assert_eq!(b.trace_id, a.trace_id + 1);
        assert_ne!(a.parent_span, b.parent_span);
        assert_eq!(t.spans.spans().len(), 2);
    }

    #[test]
    fn hops_chain_under_roots() {
        let mut t = Telemetry::new(TelemetryConfig::default());
        let root = t.start_trace("lookup", SimTime::ZERO, NodeAddr(0));
        let hop = t.record_hop(
            "lookup",
            root,
            NodeAddr(0),
            NodeAddr(1),
            SimTime::ZERO,
            Some(SimTime::from_millis(5)),
        );
        let rec = t.spans.spans().last().unwrap();
        assert_eq!(rec.parent, root.parent_span);
        assert_eq!(rec.id, hop);
        assert!(!rec.lost);
    }

    #[test]
    fn dispatch_timing_is_subsampled() {
        let mut t = Telemetry::new(TelemetryConfig::default());
        let timed = (0..4 * TIME_EVERY).filter(|_| t.should_time()).count();
        assert_eq!(timed, 4);
        t.record_dispatch(0, 100);
        assert_eq!(t.dispatch_samples(), 1);
    }

    #[test]
    fn inflight_roundtrip() {
        let mut t = Telemetry::new(TelemetryConfig::default());
        assert_eq!(t.take_inflight(9), None);
        let ctx = TraceCtx {
            trace_id: 5,
            parent_span: 7,
        };
        t.put_inflight(9, ctx);
        assert_eq!(t.take_inflight(9), Some(ctx));
        assert_eq!(t.take_inflight(9), None);
    }

    #[test]
    fn sampling_respects_cadence() {
        let mut t = Telemetry::new(TelemetryConfig {
            sample_every: SimDuration::from_millis(10),
            ..TelemetryConfig::default()
        });
        let m = SimMetrics {
            events_dispatched: 4,
            ..SimMetrics::default()
        };
        t.maybe_sample(SimTime::from_millis(1), &m);
        t.maybe_sample(SimTime::from_millis(10), &m);
        t.maybe_sample(SimTime::from_millis(11), &m);
        let id = t.registry.by_name("sim.events").unwrap();
        assert_eq!(t.registry.series(id), &[(10_000, 4)]);
    }
}
