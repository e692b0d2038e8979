//! Drives the real `TreePNode` on the single-threaded wheel engine: set-up
//! (build, settle, preload), the open-loop op window, the drain, and the
//! collection of every op's outcome.
//!
//! Ops are issued at their scheduled virtual instants. Each instant gets a
//! no-op marker event (a `Fail` addressed to a node that does not exist)
//! and the benchmark stops right after dispatching it, so an op is invoked
//! between the same two events whether or not the run is traced: the
//! traced run steps one event at a time to time each step, the untraced
//! run uses `run_until` up to the instant before, and both dispatch the
//! identical event sequence (checked through the engine's event digest).

use crate::gen::{self, Op, OpKind, Rng, Spec};
use crate::host::HostClock;
use simnet::telemetry::SpanLog;
use simnet::{
    NodeAddr, SimConfig, SimDuration, SimMetrics, SimTime, Simulation, TelemetryConfig, TraceCtx,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;
use treep::{
    AggregateOutcome, KeyRange, LookupStatus, MessageKind, NodeId, ReadOutcome, ReadSource,
    RequestId, RoutingAlgorithm, SubscribeOutcome, TreePConfig, TreePNode, VersionStamp,
};
use workloads::TopologyBuilder;

/// Address of the no-op instant markers: no node ever has it.
const MARKER: NodeAddr = NodeAddr(u64::MAX);
/// Timeout of every routed op, subscription and aggregation.
pub const OP_TIMEOUT: SimDuration = SimDuration(2_000_000);
/// Virtual time the built topology runs before preload.
const SETTLE: SimDuration = SimDuration(3_000_000);
/// Virtual time for the corpus puts and the subscriptions to land.
const PRELOAD_SETTLE: SimDuration = SimDuration(1_000_000);
/// Virtual time after the window for in-flight ops to resolve.
const DRAIN: SimDuration = SimDuration(2_100_000);
/// Equal slices of the window; host time is read at each boundary.
const SLICES: usize = 10;
/// Schedule positions of the corpus puts start here.
const PRELOAD_SEQ: u64 = 1 << 40;
const SPAN_CAP: usize = 1 << 23;

/// Protocol configuration of a workload.
fn config(spec: &Spec) -> TreePConfig {
    let mut c = TreePConfig::paper_case_fixed().with_read_path(spec.cache_capacity);
    c.replication_factor = spec.replication;
    c.lookup_timeout = OP_TIMEOUT;
    if spec.pubsub {
        c = c.with_pubsub();
        c.subscribe_timeout = OP_TIMEOUT;
    }
    c
}

/// Host-time span recorded by the benchmark around its calls into the
/// program (build, settle, preload, invoke, advance, drain).
#[derive(Debug, Clone, Copy)]
pub struct HostSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
}

#[derive(Debug)]
pub struct HostSpans {
    origin: Instant,
    pub spans: Vec<HostSpan>,
    stack: Vec<u32>,
}

impl HostSpans {
    fn new() -> Self {
        HostSpans {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        let parent = self.stack.last().copied().unwrap_or(u32::MAX);
        self.stack.push(self.spans.len() as u32);
        self.spans.push(HostSpan {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
    }

    fn close(&mut self) {
        let end = self.now_ns();
        let idx = self.stack.pop().expect("span stack underflow") as usize;
        self.spans[idx].end_ns = end;
    }
}

/// Everything the traced run records besides the program's own counters.
#[derive(Debug)]
pub struct Tracer {
    pub host: HostSpans,
    /// Wall ns of each stepped event in the window, by class.
    pub deliver_ns: Vec<u32>,
    pub timer_ns: Vec<u32>,
    pub other_ns: Vec<u32>,
    pub queue_peak: usize,
    /// Trace id → op kind of every measured op.
    user_traces: HashMap<u64, OpKind>,
    /// Trace ids of aggregations the program started on its own (the
    /// replication digest probes).
    probe_traces: HashSet<u64>,
    /// Message hops carried by measured ops, by op kind.
    pub op_msgs: [u64; 5],
    /// Multicast/convergecast hops of digest probes inside the window.
    pub probe_msgs: u64,
    pub spans_dropped: u64,
}

/// One issued op and what became of it.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub op: Op,
    /// Request id the source assigned.
    pub request: u32,
    /// Issued inside the measured window.
    pub measured: bool,
    pub done_at: Option<SimTime>,
    pub ok: bool,
    pub hops: Option<u32>,
    pub stamp: Option<VersionStamp>,
    pub tier: Option<ReadSource>,
    /// Range queries: the answer was complete (not truncated).
    pub complete: bool,
    /// Publishes: deliveries to subscribers alive at the end.
    pub delivered: usize,
}

/// Summed per-node counters (all nodes, dead ones included).
#[derive(Debug, Clone, Copy)]
pub struct Totals {
    pub sent: [u64; MessageKind::COUNT],
    pub lookups_dead_ended: u64,
    pub lookups_ttl_dropped: u64,
    pub entries_expired: u64,
    pub entries_pruned: u64,
    pub cache_evictions: u64,
    pub read_repairs: u64,
    pub pairwise_syncs: u64,
    pub mc_forwards: u64,
    pub mc_dup_suppressed: u64,
    pub mc_budget_dropped: u64,
    pub branches_pruned: u64,
    pub promotions: u64,
    pub demotions: u64,
}

impl Totals {
    fn of(sim: &Simulation<TreePNode>) -> Totals {
        let mut t = Totals {
            sent: [0; MessageKind::COUNT],
            lookups_dead_ended: 0,
            lookups_ttl_dropped: 0,
            entries_expired: 0,
            entries_pruned: 0,
            cache_evictions: 0,
            read_repairs: 0,
            pairwise_syncs: 0,
            mc_forwards: 0,
            mc_dup_suppressed: 0,
            mc_budget_dropped: 0,
            branches_pruned: 0,
            promotions: 0,
            demotions: 0,
        };
        for addr in sim.all_nodes() {
            let Some(node) = sim.node(addr) else { continue };
            let s = node.stats();
            for (kind, n) in s.sent.iter() {
                t.sent[kind.index()] += n;
            }
            t.lookups_dead_ended += s.lookups_dead_ended;
            t.lookups_ttl_dropped += s.lookups_ttl_dropped;
            t.entries_expired += s.entries_expired;
            t.entries_pruned += s.entries_pruned;
            t.cache_evictions += s.cache_evictions;
            t.read_repairs += s.read_repairs_issued;
            t.pairwise_syncs += s.replica_syncs_sent;
            t.mc_forwards += s.multicast_forwards;
            t.mc_dup_suppressed += s.multicast_duplicates_suppressed;
            t.mc_budget_dropped += s.multicast_budget_dropped;
            t.branches_pruned += s.pubsub_branches_pruned;
            t.promotions += s.promotions;
            t.demotions += s.demotions;
        }
        t
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, e: &Totals) -> Totals {
        let mut sent = [0; MessageKind::COUNT];
        for (i, s) in sent.iter_mut().enumerate() {
            *s = self.sent[i] - e.sent[i];
        }
        Totals {
            sent,
            lookups_dead_ended: self.lookups_dead_ended - e.lookups_dead_ended,
            lookups_ttl_dropped: self.lookups_ttl_dropped - e.lookups_ttl_dropped,
            entries_expired: self.entries_expired - e.entries_expired,
            entries_pruned: self.entries_pruned - e.entries_pruned,
            cache_evictions: self.cache_evictions - e.cache_evictions,
            read_repairs: self.read_repairs - e.read_repairs,
            pairwise_syncs: self.pairwise_syncs - e.pairwise_syncs,
            mc_forwards: self.mc_forwards - e.mc_forwards,
            mc_dup_suppressed: self.mc_dup_suppressed - e.mc_dup_suppressed,
            mc_budget_dropped: self.mc_budget_dropped - e.mc_budget_dropped,
            branches_pruned: self.branches_pruned - e.branches_pruned,
            promotions: self.promotions - e.promotions,
            demotions: self.demotions - e.demotions,
        }
    }
}

/// Host seconds of the three set-up phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub build_s: f64,
    pub settle_s: f64,
    pub preload_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.build_s + self.settle_s + self.preload_s
    }
}

/// What the window and drain measured.
#[derive(Debug, Clone)]
pub struct WindowStats {
    /// Host seconds and live node-seconds of each slice.
    pub slice_host_s: Vec<f64>,
    pub slice_node_s: Vec<f64>,
    /// Live node-seconds over the whole window.
    pub node_s: f64,
    /// Counters over the window, and over window plus drain.
    pub window: Totals,
    pub window_and_drain: Totals,
    /// Events dispatched in the window, markers excluded.
    pub events: u64,
    pub sim_window_and_drain: SimMetrics,
}

/// One seeded simulation of a workload.
pub struct Bench {
    pub spec: Spec,
    pub config: TreePConfig,
    pub sim: Simulation<TreePNode>,
    /// Identifier of each node, by address index.
    pub ids: Vec<NodeId>,
    pub key_coords: Vec<NodeId>,
    pub topic_ids: Vec<NodeId>,
    /// Subscriber address indexes of each topic.
    pub subscribers: Vec<Vec<usize>>,
    pub ops: Vec<OpRecord>,
    /// `(source, request id)` → index into `ops`.
    pending: HashMap<(u64, u64), usize>,
    /// Crashing nodes with their crash instant as a fraction of the window.
    crash_plan: Vec<(usize, f64)>,
    /// The crash plan placed on the window.
    pub crashes: Vec<(usize, SimTime)>,
    /// Topic deliveries collected so far, by `(origin, request id)`.
    deliveries: BTreeMap<(u64, u64), Vec<(usize, SimTime)>>,
    /// `(key, seq)` of every put issued.
    written: HashSet<(usize, u64)>,
    /// Marker events scheduled so far (excluded from event counts).
    markers: u64,
    next_seq: u64,
    /// Nodes that never crash: the op sources and lookup targets.
    pub sources: Vec<usize>,
    pub subscribe_acked: usize,
    pub subscribe_issued: usize,
    pub tracer: Option<Tracer>,
    /// Correctness violations found while collecting outcomes.
    pub violations: Vec<String>,
    pub setup: SetupTimes,
    rng: Rng,
    seed: u64,
}

impl Bench {
    /// Build, settle and preload one simulation of `spec` for `seed`.
    pub fn setup(spec: &Spec, seed: u64, traced: bool, digest: bool) -> Bench {
        let config = config(spec);
        let mut sim = Simulation::new(SimConfig::default(), spec.scenario_seed.unwrap_or(seed));
        if digest {
            sim.enable_digest();
        }
        let mut tracer = None;
        if traced {
            sim.enable_telemetry(TelemetryConfig {
                span_capacity: SPAN_CAP,
                ..TelemetryConfig::default()
            });
            tracer = Some(Tracer {
                host: HostSpans::new(),
                deliver_ns: Vec::new(),
                timer_ns: Vec::new(),
                other_ns: Vec::new(),
                queue_peak: 0,
                user_traces: HashMap::new(),
                probe_traces: HashSet::new(),
                op_msgs: [0; 5],
                probe_msgs: 0,
                spans_dropped: 0,
            });
        }
        let builder = TopologyBuilder::new(spec.nodes).with_config(config);

        let mut b = Bench {
            spec: spec.clone(),
            config,
            sim,
            ids: Vec::new(),
            key_coords: (0..spec.keys)
                .map(|k| treep::hash_key(config.space, &gen::key_bytes(k)))
                .collect(),
            // At least one topic, so publishes can be replayed everywhere.
            topic_ids: (0..spec.topics.max(1))
                .map(|t| treep::topic_key(config.space, &format!("bench-topic-{t}")))
                .collect(),
            subscribers: Vec::new(),
            ops: Vec::new(),
            pending: HashMap::new(),
            crash_plan: Vec::new(),
            crashes: Vec::new(),
            deliveries: BTreeMap::new(),
            written: HashSet::new(),
            markers: 0,
            next_seq: 0,
            sources: Vec::new(),
            subscribe_acked: 0,
            subscribe_issued: 0,
            tracer,
            violations: Vec::new(),
            setup: SetupTimes::default(),
            rng: Rng::stream(seed, 1),
            seed,
        };

        let t0 = HostClock::now();
        b.span_open("build");
        let topo = builder.build(&mut b.sim);
        b.span_close();
        let t1 = HostClock::now();
        b.ids = vec![NodeId(0); spec.nodes];
        for n in &topo.nodes {
            b.ids[n.addr.0 as usize] = n.id;
        }

        b.span_open("settle");
        let settled = b.sim.now() + SETTLE;
        b.run_plain(settled);
        b.span_close();
        let t2 = HostClock::now();

        b.span_open("preload");
        b.preload();
        b.span_close();
        let t3 = HostClock::now();
        b.setup = SetupTimes {
            build_s: t1.secs_since(t0),
            settle_s: t2.secs_since(t1),
            preload_s: t3.secs_since(t2),
        };
        b
    }

    fn span_open(&mut self, name: &'static str) {
        if let Some(t) = self.tracer.as_mut() {
            t.host.open(name);
        }
    }

    fn span_close(&mut self) {
        if let Some(t) = self.tracer.as_mut() {
            t.host.close();
        }
    }

    /// Plain `run_until`, in chunks when traced so the span log is drained
    /// often (chunking does not change the dispatched sequence).
    fn run_plain(&mut self, until: SimTime) {
        if self.tracer.is_none() {
            self.sim.run_until(until);
            return;
        }
        let chunk = SimDuration::from_millis(250);
        loop {
            let next = (self.sim.now() + chunk).min(until);
            self.sim.run_until(next);
            self.drain_spans(false);
            if next >= until {
                break;
            }
        }
    }

    /// Corpus puts, subscriptions and the warm-up op mix.
    fn preload(&mut self) {
        let spec = self.spec.clone();
        let mut wrng = Rng::stream(self.seed, 2);
        // The crash plan is drawn first so ops avoid nodes that will crash;
        // it is placed on the window when the window starts.
        let mut crng = Rng::stream(spec.scenario_seed.unwrap_or(self.seed), 4);
        let plan = gen::crash_plan(&spec, &mut crng);
        let crashed: HashSet<usize> = plan.iter().map(|&(n, _)| n).collect();
        self.sources = (0..spec.nodes).filter(|n| !crashed.contains(n)).collect();
        self.crash_plan = plan;

        // Corpus: every key written once, from never-crashing nodes.
        let mut corpus = Vec::with_capacity(spec.keys);
        for key in 0..spec.keys {
            let source = self.sources[wrng.below(self.sources.len())] as u32;
            corpus.push(Op {
                at: self.sim.now(),
                kind: OpKind::Put,
                source,
                arg: key as u64,
                seq: PRELOAD_SEQ + key as u64,
            });
        }
        for op in corpus {
            self.issue(op, false);
        }
        let t = self.sim.now() + PRELOAD_SETTLE;
        self.run_plain(t);

        // Subscriptions (any node may subscribe, crashing ones included).
        for topic in 0..spec.topics {
            let subs = wrng.distinct(spec.nodes, spec.subscribers_per_topic);
            for &s in &subs {
                let topic_id = self.topic_ids[topic];
                self.subscribe_issued += 1;
                self.sim.invoke(NodeAddr(s as u64), move |node, ctx| {
                    node.start_subscribe(topic_id, ctx);
                });
            }
            self.subscribers.push(subs);
        }
        if spec.topics > 0 {
            let t = self.sim.now() + PRELOAD_SETTLE;
            self.run_plain(t);
        }

        // Warm-up: the op mix itself, outcomes checked but not measured.
        let start = self.sim.now() + SimDuration::from_millis(1);
        let ops = gen::schedule(
            &spec,
            &mut wrng,
            start,
            start + spec.warmup,
            &self.sources,
            self.next_seq,
            self.config.space.max_id().0 + 1,
        );
        self.next_seq += ops.len() as u64;
        self.run_ops(&ops, false, &[]);
        self.rng = wrng;
    }

    /// Run the measured window for `seconds` of requested host time, then
    /// the drain. Returns what was measured.
    pub fn run_window(&mut self, seconds: u64) -> WindowStats {
        let start = self.sim.now() + SimDuration::from_millis(1);
        let len = self.spec.window(seconds);
        let end = start + len;
        let crashes: Vec<(usize, SimTime)> = self
            .crash_plan
            .iter()
            .map(|&(n, frac)| (n, SimTime(start.0 + (frac * len.as_micros() as f64) as u64)))
            .collect();
        for &(n, at) in &crashes {
            self.sim.fail_node_at(NodeAddr(n as u64), at);
        }
        self.crashes = crashes;

        let mut rng = self.rng.clone();
        let ops = gen::schedule(
            &self.spec,
            &mut rng,
            start,
            end,
            &self.sources,
            self.next_seq,
            self.config.space.max_id().0 + 1,
        );
        self.next_seq += ops.len() as u64;
        self.ops.reserve_exact(ops.len());
        let bounds: Vec<SimTime> = (1..=SLICES)
            .map(|i| SimTime(start.0 + len.as_micros() * i as u64 / SLICES as u64))
            .collect();

        // Settle the pre-window span log so only window hops are counted.
        self.drain_spans(false);
        let before = Totals::of(&self.sim);
        let sim_before = self.sim.metrics();
        let markers_before = self.markers;
        self.span_open("window");
        let slice_host_s = self.run_ops(&ops, true, &bounds);
        self.span_close();
        self.drain_spans(true);
        let at_end = Totals::of(&self.sim);
        let sim_end = self.sim.metrics();
        let window_markers = self.markers - markers_before;

        self.span_open("drain");
        let until = end + DRAIN;
        self.run_plain(until);
        self.collect();
        self.finish_publishes();
        self.span_close();
        let after = Totals::of(&self.sim);
        let sim_after = self.sim.metrics();

        let mut slice_node_s = Vec::with_capacity(SLICES);
        let mut prev = start;
        for &b in &bounds {
            slice_node_s.push(self.live_node_seconds(prev, b));
            prev = b;
        }
        WindowStats {
            slice_host_s,
            node_s: slice_node_s.iter().sum(),
            slice_node_s,
            window: at_end.since(&before),
            window_and_drain: after.since(&before),
            events: sim_end.delta_since(&sim_before).events_dispatched - window_markers,
            sim_window_and_drain: sim_after.delta_since(&sim_before),
        }
    }

    /// Node-seconds of live nodes over `[a, b)`.
    fn live_node_seconds(&self, a: SimTime, b: SimTime) -> f64 {
        let mut us = self.spec.nodes as f64 * (b.0 - a.0) as f64;
        for &(_, at) in &self.crashes {
            if at < b {
                us -= (b.0 - at.0.max(a.0)) as f64;
            }
        }
        us / 1e6
    }

    /// Issue `ops` at their instants; with `bounds`, return the host
    /// seconds of each slice ending at those instants.
    fn run_ops(&mut self, ops: &[Op], measured: bool, bounds: &[SimTime]) -> Vec<f64> {
        let mut slice_s = Vec::with_capacity(bounds.len());
        let mut slice_start = HostClock::now();
        let mut next_bound = 0usize;
        let mut i = 0usize;
        while i < ops.len() || next_bound < bounds.len() {
            let op_at = ops.get(i).map(|o| o.at);
            let bound_at = bounds.get(next_bound).copied();
            let at = match (op_at, bound_at) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => unreachable!(),
            };
            self.advance_to(at, measured);
            if bound_at == Some(at) {
                slice_s.push(HostClock::now().secs_since(slice_start));
                next_bound += 1;
                self.drain_spans(measured);
                self.collect();
                slice_start = HostClock::now();
            }
            while i < ops.len() && ops[i].at == at {
                self.issue(ops[i], measured);
                i += 1;
            }
        }
        slice_s
    }

    /// Dispatch every event up to and including the marker at `at`.
    fn advance_to(&mut self, at: SimTime, timed: bool) {
        self.sim.fail_node_at(MARKER, at);
        self.markers += 1;
        let traced = self.tracer.is_some();
        if !traced && at.0 > self.sim.now().0 + 1 {
            self.sim.run_until(SimTime(at.0 - 1));
        }
        self.span_open("advance");
        loop {
            let before = self.sim.metrics();
            let started = (traced && timed).then(Instant::now);
            assert!(self.sim.step(), "event queue drained before a marker");
            let after = self.sim.metrics();
            if self.sim.now() == at && is_marker(&before, &after) {
                break;
            }
            if let (Some(t0), Some(tr)) = (started, self.tracer.as_mut()) {
                let ns = t0.elapsed().as_nanos().min(u32::MAX as u128) as u32;
                if after.messages_delivered > before.messages_delivered
                    || after.messages_to_dead > before.messages_to_dead
                {
                    tr.deliver_ns.push(ns);
                } else if after.timers_fired > before.timers_fired
                    || after.timers_dropped > before.timers_dropped
                {
                    tr.timer_ns.push(ns);
                } else {
                    tr.other_ns.push(ns);
                }
                tr.queue_peak = tr.queue_peak.max(self.sim.pending_events());
            }
        }
        self.span_close();
    }

    /// Invoke one op on its source node and remember it.
    fn issue(&mut self, op: Op, measured: bool) {
        let (rid, trace, _) = self.invoke_op(op);
        if let (Some(tr), Some(t), true) = (self.tracer.as_mut(), trace, measured) {
            tr.user_traces.insert(t.trace_id, op.kind);
        }
        if op.kind == OpKind::Put {
            self.written.insert((op.arg as usize, op.seq));
        }
        self.pending
            .insert((op.source as u64, rid.0), self.ops.len());
        self.ops.push(OpRecord {
            op,
            request: rid.0 as u32,
            measured,
            done_at: None,
            ok: false,
            hops: None,
            stamp: None,
            tier: None,
            complete: false,
            delivered: 0,
        });
    }

    /// Originate `op` at its source through `Simulation::invoke`; returns
    /// the request id, the op's trace (when traced) and the host ns the
    /// invoke took.
    fn invoke_op(&mut self, op: Op) -> (RequestId, Option<TraceCtx>, u32) {
        let kind = op.kind;
        let value_size = self.spec.value_size;
        let key = gen::key_bytes(op.arg as usize);
        let topic = self.topic_ids.get(op.arg as usize).copied();
        let target = self.ids.get(op.arg as usize).copied();
        let width = self.range_width();
        self.span_open(match kind {
            OpKind::Get => "invoke.get",
            OpKind::Put => "invoke.put",
            OpKind::Lookup => "invoke.lookup",
            OpKind::Publish => "invoke.publish",
            OpKind::Range => "invoke.range",
        });
        let started = Instant::now();
        let out = self
            .sim
            .invoke(NodeAddr(op.source as u64), move |node, ctx| {
                let rid = match kind {
                    OpKind::Get => node.dht_get_versioned(&key, ctx),
                    OpKind::Put => {
                        let value = gen::value_bytes(op.arg as usize, op.seq, value_size);
                        node.dht_put_versioned(&key, value, ctx)
                    }
                    OpKind::Lookup => node.start_lookup(
                        target.expect("lookup target"),
                        RoutingAlgorithm::Greedy,
                        ctx,
                    ),
                    OpKind::Publish => {
                        let data = gen::value_bytes(op.arg as usize, op.seq, value_size);
                        node.start_publish(topic.expect("publish topic"), data, ctx)
                    }
                    OpKind::Range => node.start_range_query(
                        KeyRange::new(NodeId(op.arg), NodeId(op.arg + width)),
                        ctx,
                    ),
                };
                (rid, ctx.trace_ctx())
            });
        let ns = started.elapsed().as_nanos().min(u32::MAX as u128) as u32;
        self.span_close();
        let (rid, trace) = out.expect("op source is alive");
        (rid, trace, ns)
    }

    /// Width of a range query in identifier units.
    fn range_width(&self) -> u64 {
        (self.spec.range_width * (self.config.space.max_id().0 as f64 + 1.0)) as u64
    }

    /// Median host ns of `Simulation::invoke` for each op kind, replayed
    /// `per_kind` times on the final state (every kind, whatever the mix).
    /// The replayed ops are never run, so call this last.
    pub fn replay_issue_ns(&mut self, per_kind: usize) -> [f64; 5] {
        let mut out = [0.0; 5];
        let space = self.config.space.max_id().0 + 1;
        let width = self.range_width().max(space / 100);
        for kind in OpKind::ALL {
            let mut ns = Vec::with_capacity(per_kind);
            for j in 0..per_kind {
                let arg = match kind {
                    OpKind::Get | OpKind::Put => (j % self.spec.keys) as u64,
                    OpKind::Lookup => self.sources[(j * 31) % self.sources.len()] as u64,
                    OpKind::Publish => (j % self.topic_ids.len()) as u64,
                    OpKind::Range => (j as u64).wrapping_mul(0x9E37_79B9) % (space - width),
                };
                let op = Op {
                    at: self.sim.now(),
                    kind,
                    source: self.sources[(j * 7919) % self.sources.len()] as u32,
                    arg,
                    seq: PRELOAD_SEQ - 1 - j as u64,
                };
                ns.push(self.invoke_op(op).2 as f64);
            }
            ns.sort_by(f64::total_cmp);
            out[kind.index()] = ns[ns.len() / 2];
        }
        out
    }

    /// Attribute the span log's hops to measured ops and digest probes.
    fn drain_spans(&mut self, count: bool) {
        let Some(tr) = self.tracer.as_mut() else {
            return;
        };
        let Some(tel) = self.sim.telemetry_mut() else {
            return;
        };
        let log = std::mem::replace(&mut tel.spans, SpanLog::new(SPAN_CAP));
        tr.spans_dropped += log.dropped();
        for s in log.spans() {
            if s.parent == 0 {
                if s.name == "aggregate" && !tr.user_traces.contains_key(&s.trace_id) {
                    tr.probe_traces.insert(s.trace_id);
                }
                continue;
            }
            if !count {
                continue;
            }
            if let Some(kind) = tr.user_traces.get(&s.trace_id) {
                tr.op_msgs[kind.index()] += 1;
            } else if tr.probe_traces.contains(&s.trace_id) {
                tr.probe_msgs += 1;
            }
        }
    }

    /// Drain every node's outcome queues into the op records and check
    /// each answer.
    fn collect(&mut self) {
        let mut deliveries = std::mem::take(&mut self.deliveries);
        for addr in self.sim.all_nodes() {
            let Some(node) = self.sim.node_mut(addr) else {
                continue;
            };
            let reads = node.drain_read_outcomes();
            let lookups = node.drain_lookup_outcomes();
            let aggs = node.drain_aggregate_outcomes();
            let topics = node.drain_topic_deliveries();
            let subs = node.drain_subscribe_outcomes();
            for s in subs {
                if matches!(s, SubscribeOutcome::Acked { .. }) {
                    self.subscribe_acked += 1;
                }
            }
            for d in topics {
                deliveries
                    .entry((d.origin.addr.0, d.request_id.0))
                    .or_default()
                    .push((addr.0 as usize, d.at));
            }
            for r in reads {
                self.apply_read(addr, r);
            }
            for l in lookups {
                let Some(i) = self.pending.remove(&(addr.0, l.request_id.0)) else {
                    continue;
                };
                let rec = &mut self.ops[i];
                rec.done_at = Some(l.completed_at);
                let expected = self.ids[rec.op.arg as usize];
                match l.status {
                    LookupStatus::Found => {
                        if l.target != expected {
                            self.violations.push(format!(
                                "lookup {} from {} found {} instead of {}",
                                l.request_id.0, addr, l.target, expected
                            ));
                        } else {
                            rec.ok = true;
                            rec.hops = Some(l.hops);
                        }
                    }
                    LookupStatus::NotFound | LookupStatus::TimedOut => {}
                }
            }
            for a in aggs {
                self.apply_aggregate(addr, a);
            }
        }
        self.deliveries = deliveries;
    }

    fn apply_read(&mut self, addr: NodeAddr, r: ReadOutcome) {
        let rid = match &r {
            ReadOutcome::Got { request_id, .. }
            | ReadOutcome::PutAcked { request_id, .. }
            | ReadOutcome::TimedOut { request_id, .. } => request_id.0,
        };
        let Some(i) = self.pending.remove(&(addr.0, rid)) else {
            return;
        };
        match r {
            ReadOutcome::Got {
                value,
                source,
                hops,
                completed_at,
                ..
            } => {
                let key = self.ops[i].op.arg as usize;
                let valid = value.as_ref().map(|v| {
                    matches!(gen::parse_value(&v.value),
                        Some((k, seq)) if k == key && self.written.contains(&(key, seq)))
                });
                let rec = &mut self.ops[i];
                rec.done_at = Some(completed_at);
                rec.tier = Some(source);
                match value {
                    None => {} // a miss on a preloaded key: failed op
                    Some(v) => match valid {
                        Some(true) => {
                            rec.ok = true;
                            rec.hops = Some(hops);
                            rec.stamp = Some(v.stamp);
                        }
                        _ => self.violations.push(format!(
                            "get of key {key} from {addr} returned a value no put wrote: {:?}",
                            String::from_utf8_lossy(&v.value[..v.value.len().min(24)])
                        )),
                    },
                }
            }
            ReadOutcome::PutAcked {
                stamp,
                completed_at,
                ..
            } => {
                let rec = &mut self.ops[i];
                rec.done_at = Some(completed_at);
                rec.ok = true;
                rec.stamp = Some(stamp);
            }
            ReadOutcome::TimedOut { completed_at, .. } => {
                self.ops[i].done_at = Some(completed_at);
            }
        }
    }

    fn apply_aggregate(&mut self, addr: NodeAddr, a: AggregateOutcome) {
        let Some(i) = self.pending.remove(&(addr.0, a.request_id().0)) else {
            return;
        };
        let width = self.range_width();
        let rec = &mut self.ops[i];
        let range = KeyRange::new(NodeId(rec.op.arg), NodeId(rec.op.arg + width));
        match a {
            AggregateOutcome::Completed {
                partial,
                truncated,
                completed_at,
                ..
            } => {
                rec.done_at = Some(completed_at);
                rec.complete = !truncated;
                let got: Vec<NodeId> = partial.as_keys().map(|k| k.to_vec()).unwrap_or_default();
                // Subscriber directories are DHT values at the topic keys.
                let mut expected: Vec<NodeId> = self
                    .key_coords
                    .iter()
                    .chain(&self.topic_ids)
                    .copied()
                    .filter(|k| range.contains(*k))
                    .collect();
                expected.sort();
                expected.dedup();
                let foreign: Vec<&NodeId> = got
                    .iter()
                    .filter(|k| expected.binary_search(k).is_err())
                    .collect();
                if !foreign.is_empty() {
                    self.violations.push(format!(
                        "range query from {addr} returned {} keys never written in range",
                        foreign.len()
                    ));
                } else {
                    rec.ok = !truncated && got.len() == expected.len();
                }
            }
            AggregateOutcome::TimedOut { completed_at, .. } => {
                rec.done_at = Some(completed_at);
            }
        }
    }

    /// Judge every publish against the deliveries collected: each
    /// subscriber alive at the end must have it exactly once.
    fn finish_publishes(&mut self) {
        let deliveries = std::mem::take(&mut self.deliveries);
        // Deliveries of publishes this run did not issue are foreign.
        for (&(origin, rid), got) in &deliveries {
            let Some(&i) = self.pending.get(&(origin, rid)) else {
                self.violations.push(format!(
                    "{} topic deliveries of an unknown publish {origin}/{rid}",
                    got.len()
                ));
                continue;
            };
            let topic = self.ops[i].op.arg as usize;
            let mut seen = HashSet::new();
            for &(node, _) in got {
                if !seen.insert(node) {
                    self.violations.push(format!(
                        "publish {origin}/{rid} delivered twice to node {node}"
                    ));
                }
                if !self.subscribers[topic].contains(&node) {
                    self.violations.push(format!(
                        "publish {origin}/{rid} delivered to non-subscriber {node}"
                    ));
                }
            }
        }
        for i in 0..self.ops.len() {
            if self.ops[i].op.kind != OpKind::Publish {
                continue;
            }
            let op = self.ops[i].op;
            let got = deliveries
                .get(&(op.source as u64, self.ops[i].request as u64))
                .cloned()
                .unwrap_or_default();
            let mut last = op.at;
            let mut all = true;
            let mut delivered = 0;
            for &s in &self.subscribers[op.arg as usize] {
                if !self.sim.is_alive(NodeAddr(s as u64)) {
                    continue;
                }
                match got.iter().find(|&&(n, _)| n == s) {
                    Some(&(_, at)) => {
                        last = last.max(at);
                        delivered += 1;
                    }
                    None => all = false,
                }
            }
            let rec = &mut self.ops[i];
            rec.ok = all;
            rec.delivered = delivered;
            if all {
                rec.done_at = Some(last);
            }
        }
    }
}

/// True when the step between `before` and `after` touched nothing but
/// the event counter: a marker (or another no-op) was dispatched.
fn is_marker(before: &SimMetrics, after: &SimMetrics) -> bool {
    let mut b = *before;
    b.events_dispatched += 1;
    b == *after
}

/// Peak resident set size of this process, in bytes.
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}
