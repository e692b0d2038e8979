//! The simulation host: owns nodes, virtual time, the event queue and the
//! link model, and drives [`Protocol`] state machines.
//!
//! # Engine layout (million-node scale)
//!
//! The host is built so the per-event dispatch path does no hashing and no
//! allocation:
//!
//! * events come off a hierarchical timer wheel ([`Scheduler`]) in exact
//!   `(time, seq)` order;
//! * node state lives in a generation-tagged [`Arena`]; the sim assigns
//!   dense `NodeAddr`s, so resolving an address is two `Vec` indexes
//!   (`addr → handle → slot`) instead of a `HashMap` probe;
//! * each callback's actions are recorded into one recycled buffer
//!   ([`Context::with_buffer`]) instead of a fresh `Vec` per event.
//!
//! Node sweeps ([`Simulation::alive_nodes`], [`Simulation::all_nodes`],
//! metrics, shutdown) iterate the arena in index order, which equals
//! address order — deterministic by construction, with nothing to sort.
//! An optional FNV-1a [`Simulation::event_digest`] folds every dispatched
//! event so two runs can be compared for identical event order cheaply.
//!
//! # Owned address range
//!
//! A simulation owns the addresses `[base, base + block)`. Standing alone
//! it owns them all, so every send is scheduled locally. As one shard of a
//! [`ShardedSimulation`](crate::shard::ShardedSimulation) it owns one
//! block, and a send to another block is buffered for that shard's mailbox
//! instead. Ownership is one compare on the send path.

use crate::arena::{Arena, Handle};
use crate::event::EventKind;
use crate::link::LinkModel;
use crate::metrics::SimMetrics;
use crate::protocol::{Action, Context, NodeAddr, Protocol, SendTrace, TimerToken};
use crate::rng::SimRng;
use crate::scheduler::Scheduler;
use crate::telemetry::{FlightEntry, Telemetry, TelemetryConfig, TraceCtx};
use crate::time::{SimDuration, SimTime};

/// Configuration of a simulation run.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Link model applied to every message.
    pub link: LinkModel,
    /// Hard cap on dispatched events; exceeding it panics. Guards against
    /// protocols that accidentally generate unbounded traffic.
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            link: LinkModel::default(),
            max_events: 500_000_000,
        }
    }
}

/// Per-node bookkeeping.
struct NodeSlot<P> {
    proto: P,
    alive: bool,
    started: bool,
}

/// A send with its delivery time already drawn by the sender.
pub(crate) struct Outgoing<M> {
    pub(crate) arrival: SimTime,
    pub(crate) src: NodeAddr,
    pub(crate) dest: NodeAddr,
    pub(crate) msg: M,
    /// Trace continuation for the receiver's callback (the sender already
    /// recorded the hop span). Envelope metadata, never serialised.
    pub(crate) trace: Option<TraceCtx>,
}

/// Seed for the 64-bit FNV-1a-style event digest.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One xor-multiply round over a whole 64-bit word. A byte-wise FNV would
/// cost 32 serially dependent multiplies per event on the dispatch hot
/// path; the word-level variant keeps the avalanche we need (any event
/// reordering flips the digest) at one multiply per word.
#[inline]
pub(crate) fn fnv_fold(digest: u64, word: u64) -> u64 {
    (digest ^ word).wrapping_mul(FNV_PRIME)
}

/// Fold one dispatched event into a digest: its time, FIFO sequence, and
/// the kind tag and node word of [`event_word`]. Two runs with equal
/// digests dispatched the same events in the same order.
#[inline]
pub(crate) fn fold_word(digest: u64, at: SimTime, seq: u64, tag: u8, node: u64) -> u64 {
    let mut d = fnv_fold(digest, at.as_micros());
    d = fnv_fold(d, seq);
    d = fnv_fold(d, tag as u64);
    fnv_fold(d, node)
}

/// The digest's compressed view of an event: a kind tag and a node word.
/// Shared by the digest fold and the flight recorder so a recorder dump
/// reads in the digest's vocabulary.
#[inline]
pub(crate) fn event_word<M>(kind: &EventKind<M>) -> (u8, u64) {
    match kind {
        EventKind::Deliver { src, dest, .. } => (0u8, dest.0 ^ (src.0 << 1)),
        EventKind::Timer { node, token } => (1, node.0 ^ (token.0 << 1)),
        EventKind::Start { node } => (2, node.0),
        EventKind::Fail { node } => (3, node.0),
        EventKind::Stop { node } => (4, node.0),
    }
}

/// A discrete-event simulation hosting nodes of one protocol type.
pub struct Simulation<P: Protocol> {
    config: SimConfig,
    pub(crate) scheduler: Scheduler<P::Message>,
    /// Node state, in a slab arena addressed by dense index handles.
    nodes: Arena<NodeSlot<P>>,
    /// `NodeAddr.0 - base → Handle`. Addresses are assigned densely by the
    /// sim, so this is a plain `Vec` — no hashing on the dispatch path.
    handles: Vec<Handle>,
    rng: SimRng,
    metrics: SimMetrics,
    /// Recycled action buffer threaded through every [`Context`].
    action_buf: Vec<Action<P::Message>>,
    /// FNV-1a fold over dispatched events; `None` until enabled.
    digest: Option<u64>,
    /// Telemetry sink (registry, spans, flight recorder); `None` until
    /// enabled, and behaviourally inert when on.
    pub(crate) telemetry: Option<Box<Telemetry>>,
    /// First owned address.
    base: u64,
    /// Number of owned addresses: all of them standing alone, the shard
    /// width in a sharded run.
    block: u64,
    /// Sends to addresses outside the owned range, per destination shard,
    /// awaiting the sharded engine's mailbox flush.
    pub(crate) out_bufs: Vec<Vec<Outgoing<P::Message>>>,
}

impl<P: Protocol> Simulation<P> {
    /// Create an empty simulation with the given configuration and RNG seed.
    pub fn new(config: SimConfig, seed: u64) -> Self {
        Simulation {
            config,
            scheduler: Scheduler::new(),
            nodes: Arena::new(),
            handles: Vec::new(),
            rng: SimRng::seed_from(seed),
            metrics: SimMetrics::default(),
            action_buf: Vec::new(),
            digest: None,
            telemetry: None,
            base: 0,
            block: u64::MAX,
            out_bufs: vec![Vec::new()],
        }
    }

    /// Shard `index` of `shards`, each owning `block` consecutive addresses.
    pub(crate) fn shard(
        config: SimConfig,
        seed: u64,
        index: usize,
        block: u64,
        shards: usize,
    ) -> Self {
        Simulation {
            nodes: Arena::with_capacity(block as usize),
            handles: Vec::with_capacity(block as usize),
            base: index as u64 * block,
            block,
            out_bufs: (0..shards).map(|_| Vec::new()).collect(),
            ..Simulation::new(config, seed)
        }
    }

    /// Pre-size the node storage (avoids re-allocation while adding large
    /// populations).
    pub fn reserve_nodes(&mut self, additional: usize) {
        self.handles.reserve(additional);
    }

    /// Start folding every dispatched event into an order-sensitive FNV-1a
    /// digest (see [`Simulation::event_digest`]).
    pub fn enable_digest(&mut self) {
        self.digest.get_or_insert(FNV_OFFSET);
    }

    /// Turn telemetry on: metrics registry, causal spans, engine profiling
    /// and the flight recorder (see [`crate::telemetry`]). Inert with
    /// respect to simulation behaviour — a digest-pinned test holds the
    /// engine to that.
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        if self.telemetry.is_none() {
            self.telemetry = Some(Box::new(Telemetry::new(config)));
        }
    }

    /// The telemetry sink, if [`Simulation::enable_telemetry`] was called.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// Mutable telemetry access (experiments register their own metrics).
    pub fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        self.telemetry.as_deref_mut()
    }

    /// The event digest so far, if [`Simulation::enable_digest`] was
    /// called. Equal digests ⇒ identical dispatch sequence, which is the
    /// determinism regression check used by `reproduce --scale`.
    pub fn event_digest(&self) -> Option<u64> {
        self.digest
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.scheduler.now()
    }

    /// Aggregate counters for the run so far.
    pub fn metrics(&self) -> SimMetrics {
        self.metrics
    }

    /// The simulation-wide RNG (workloads may fork it to stay deterministic).
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Add a node and schedule its start at the current time. Returns its
    /// address.
    pub fn add_node(&mut self, proto: P) -> NodeAddr {
        self.add_node_at(proto, self.now())
    }

    /// Add a node and schedule its start at `at`.
    pub fn add_node_at(&mut self, proto: P, at: SimTime) -> NodeAddr {
        let addr = NodeAddr(self.base + self.handles.len() as u64);
        let handle = self.nodes.insert(NodeSlot {
            proto,
            alive: true,
            started: false,
        });
        self.handles.push(handle);
        self.scheduler.schedule(at, EventKind::Start { node: addr });
        addr
    }

    #[inline]
    fn slot(&self, addr: NodeAddr) -> Option<&NodeSlot<P>> {
        let handle = *self.handles.get(addr.0.wrapping_sub(self.base) as usize)?;
        self.nodes.get(handle)
    }

    #[inline]
    fn slot_mut(&mut self, addr: NodeAddr) -> Option<&mut NodeSlot<P>> {
        let handle = *self.handles.get(addr.0.wrapping_sub(self.base) as usize)?;
        self.nodes.get_mut(handle)
    }

    /// Immutable access to a node's protocol state (dead nodes remain
    /// inspectable).
    pub fn node(&self, addr: NodeAddr) -> Option<&P> {
        self.slot(addr).map(|s| &s.proto)
    }

    /// Mutable access to a node's protocol state without dispatching actions.
    /// Prefer [`Simulation::invoke`] when the mutation should produce
    /// messages or timers.
    pub fn node_mut(&mut self, addr: NodeAddr) -> Option<&mut P> {
        self.slot_mut(addr).map(|s| &mut s.proto)
    }

    /// Is the node currently alive?
    pub fn is_alive(&self, addr: NodeAddr) -> bool {
        self.slot(addr).is_some_and(|s| s.alive)
    }

    /// Addresses of all currently alive nodes, in address order (arena
    /// index order — no sort needed).
    pub fn alive_nodes(&self) -> Vec<NodeAddr> {
        (self.base..self.base + self.handles.len() as u64)
            .map(NodeAddr)
            .filter(|&addr| self.is_alive(addr))
            .collect()
    }

    /// Addresses of every node ever added, in address order.
    pub fn all_nodes(&self) -> Vec<NodeAddr> {
        (self.base..self.base + self.handles.len() as u64)
            .map(NodeAddr)
            .collect()
    }

    /// Number of alive nodes.
    pub fn alive_count(&self) -> usize {
        self.nodes.iter().filter(|(_, s)| s.alive).count()
    }

    /// Crash-fail `addr` immediately: the node stops receiving messages and
    /// timers and its protocol gets no notification (Section IV failure
    /// model).
    pub fn fail_node(&mut self, addr: NodeAddr) {
        self.fail_node_at(addr, self.now());
    }

    /// Schedule a crash failure of `addr` at time `at`.
    pub fn fail_node_at(&mut self, addr: NodeAddr, at: SimTime) {
        self.scheduler.schedule(at, EventKind::Fail { node: addr });
    }

    /// Gracefully stop `addr` (its `on_stop` hook runs and may send
    /// goodbye messages).
    pub fn stop_node(&mut self, addr: NodeAddr) {
        let at = self.now();
        self.scheduler.schedule(at, EventKind::Stop { node: addr });
    }

    /// Invoke a closure on a live node with a full [`Context`], dispatching
    /// whatever actions it produces. This is how experiments trigger
    /// protocol-level operations (e.g. "start a lookup for key X").
    ///
    /// Returns `None` when the node is missing or dead.
    pub fn invoke<R>(
        &mut self,
        addr: NodeAddr,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Message>) -> R,
    ) -> Option<R> {
        self.call(addr, self.now(), None, |s| s.alive, f)
    }

    /// Dispatch a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(event) = self.scheduler.pop() else {
            return false;
        };
        self.metrics.events_dispatched += 1;
        assert!(
            self.metrics.events_dispatched <= self.config.max_events,
            "simulation exceeded max_events = {} (runaway protocol?)",
            self.config.max_events
        );
        let now = event.at;
        let seq = event.seq;
        // Digest fold and telemetry pre-dispatch: flight-record the event,
        // sample the scalar series on its virtual-time cadence, and decide
        // whether this is one of the 1-in-1024 dispatches whose wall-clock
        // cost gets measured. None of it runs when both are off.
        if self.digest.is_some() || self.telemetry.is_some() {
            let (tag, node) = event_word(&event.kind);
            if let Some(d) = self.digest.as_mut() {
                *d = fold_word(*d, now, seq, tag, node);
            }
            if let Some(t) = self.telemetry.as_deref_mut() {
                let entry = FlightEntry {
                    at: now,
                    seq,
                    tag,
                    node,
                };
                if t.pre_dispatch(entry, &self.metrics) {
                    self.dispatch_timed(event.kind, now, seq, tag);
                    return true;
                }
            }
        }
        self.dispatch_event(event.kind, now, seq);
        true
    }

    /// [`Simulation::dispatch_event`] with its wall-clock cost recorded
    /// under the event's digest tag.
    #[cold]
    #[inline(never)]
    fn dispatch_timed(&mut self, kind: EventKind<P::Message>, now: SimTime, seq: u64, tag: u8) {
        let started = std::time::Instant::now();
        self.dispatch_event(kind, now, seq);
        let nanos = started.elapsed().as_nanos() as u64;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.record_dispatch(tag, nanos);
        }
    }

    fn dispatch_event(&mut self, kind: EventKind<P::Message>, now: SimTime, seq: u64) {
        match kind {
            EventKind::Start { node } => self.dispatch_start(node, now),
            EventKind::Fail { node } => self.dispatch_fail(node),
            EventKind::Stop { node } => self.dispatch_stop(node, now),
            EventKind::Timer { node, token } => self.dispatch_timer(node, token, now),
            EventKind::Deliver { src, dest, msg } => {
                let trace = self
                    .telemetry
                    .as_deref_mut()
                    .and_then(|t| t.take_inflight(seq));
                self.dispatch_deliver(src, dest, msg, now, trace)
            }
        }
    }

    /// Run until the event queue drains completely.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    /// Run until virtual time reaches `deadline` (events at exactly
    /// `deadline` are processed) or the queue drains.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.scheduler.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
    }

    /// Run for `d` more virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }

    /// Number of events still queued.
    pub fn pending_events(&self) -> usize {
        self.scheduler.len()
    }

    // ---- dispatch helpers -------------------------------------------------

    fn dispatch_start(&mut self, node: NodeAddr, now: SimTime) {
        let admit = |s: &mut NodeSlot<P>| {
            if !s.alive || s.started {
                return false;
            }
            s.started = true;
            true
        };
        if self
            .call(node, now, None, admit, |proto, ctx| proto.on_start(ctx))
            .is_some()
        {
            self.metrics.nodes_started += 1;
        }
    }

    fn dispatch_fail(&mut self, node: NodeAddr) {
        if let Some(slot) = self.slot_mut(node).filter(|s| s.alive) {
            slot.alive = false;
            self.metrics.nodes_failed += 1;
        }
    }

    fn dispatch_stop(&mut self, node: NodeAddr, now: SimTime) {
        // A stopping node may still send goodbye messages, but any timers
        // it sets are pointless: they are dropped on firing because the
        // node is already dead.
        let admit = |s: &mut NodeSlot<P>| {
            if !s.alive {
                return false;
            }
            s.alive = false;
            true
        };
        if self
            .call(node, now, None, admit, |proto, ctx| proto.on_stop(ctx))
            .is_some()
        {
            self.metrics.nodes_stopped += 1;
        }
    }

    fn dispatch_timer(&mut self, node: NodeAddr, token: TimerToken, now: SimTime) {
        let fired = self.call(
            node,
            now,
            None,
            |s| s.alive,
            |proto, ctx| proto.on_timer(token, ctx),
        );
        match fired {
            Some(()) => self.metrics.timers_fired += 1,
            None => self.metrics.timers_dropped += 1,
        }
    }

    fn dispatch_deliver(
        &mut self,
        src: NodeAddr,
        dest: NodeAddr,
        msg: P::Message,
        now: SimTime,
        trace: Option<TraceCtx>,
    ) {
        let delivered = self.call(
            dest,
            now,
            trace,
            |s| s.alive && s.started,
            |proto, ctx| proto.on_message(src, msg, ctx),
        );
        match delivered {
            Some(()) => self.metrics.messages_delivered += 1,
            None => self.metrics.messages_to_dead += 1,
        }
    }

    /// Look `node` up once and, if it exists and `admit` lets it run (the
    /// predicate may also update the slot's flags), run one callback on
    /// its protocol state with a [`Context`] over the recycled action
    /// buffer, then apply the actions it recorded. `None` means the
    /// callback did not run.
    fn call<R>(
        &mut self,
        node: NodeAddr,
        now: SimTime,
        trace: Option<TraceCtx>,
        admit: impl FnOnce(&mut NodeSlot<P>) -> bool,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Message>) -> R,
    ) -> Option<R> {
        let handle = *self.handles.get(node.0.wrapping_sub(self.base) as usize)?;
        let slot = self.nodes.get_mut(handle)?;
        if !admit(slot) {
            return None;
        }
        let mut ctx = Context::for_host(
            now,
            node,
            &mut self.rng,
            std::mem::take(&mut self.action_buf),
            self.telemetry.as_deref_mut(),
            trace,
        );
        let out = f(&mut slot.proto, &mut ctx);
        let (actions, traces) = ctx.into_parts();
        self.apply_actions(node, actions, traces);
        Some(out)
    }

    /// Dispatch recorded actions, then keep the (drained) buffer for the
    /// next callback. `traces` carries the trace contexts attached to sends
    /// (by action index). A traced send records its hop span here, on the
    /// sender's side, so a cross-shard hop never touches another shard's
    /// span log: only the continuation context travels with the message.
    fn apply_actions(
        &mut self,
        origin: NodeAddr,
        mut actions: Vec<Action<P::Message>>,
        traces: Vec<SendTrace>,
    ) {
        let now = self.scheduler.now();
        let mut trace_iter = traces.iter();
        let mut next_trace = trace_iter.next();
        for (index, action) in actions.drain(..).enumerate() {
            match action {
                Action::Send { dest, msg } => {
                    let sent_trace = match next_trace {
                        Some(t) if t.action as usize == index => {
                            let t = *t;
                            next_trace = trace_iter.next();
                            Some(t)
                        }
                        _ => None,
                    };
                    self.metrics.messages_sent += 1;
                    let Some(latency) = self.config.link.transmit(origin, dest, &mut self.rng)
                    else {
                        self.metrics.messages_lost += 1;
                        if let (Some(st), Some(t)) = (sent_trace, self.telemetry.as_deref_mut()) {
                            t.record_hop(st.label, st.ctx, origin, dest, now, None);
                        }
                        continue;
                    };
                    let arrival = now + latency;
                    let trace = match (sent_trace, self.telemetry.as_deref_mut()) {
                        (Some(st), Some(t)) => Some(TraceCtx {
                            trace_id: st.ctx.trace_id,
                            parent_span: t.record_hop(
                                st.label,
                                st.ctx,
                                origin,
                                dest,
                                now,
                                Some(arrival),
                            ),
                        }),
                        _ => None,
                    };
                    // Out-of-range destinations clamp to the last shard,
                    // which records them as messages_to_dead.
                    let remote = if dest.0.wrapping_sub(self.base) < self.block {
                        None
                    } else {
                        let shard = ((dest.0 / self.block) as usize).min(self.out_bufs.len() - 1);
                        (shard as u64 * self.block != self.base).then_some(shard)
                    };
                    match remote {
                        None => self.schedule_deliver(arrival, origin, dest, msg, trace),
                        Some(shard) => self.out_bufs[shard].push(Outgoing {
                            arrival,
                            src: origin,
                            dest,
                            msg,
                            trace,
                        }),
                    }
                }
                Action::SetTimer { delay, token } => {
                    self.scheduler.schedule(
                        now + delay,
                        EventKind::Timer {
                            node: origin,
                            token,
                        },
                    );
                }
                Action::Shutdown => {
                    self.scheduler
                        .schedule(now, EventKind::Stop { node: origin });
                }
            }
        }
        self.action_buf = actions;
    }

    /// Queue a delivery, stashing its trace continuation (if any) under the
    /// scheduled event's sequence number.
    #[inline]
    pub(crate) fn schedule_deliver(
        &mut self,
        arrival: SimTime,
        src: NodeAddr,
        dest: NodeAddr,
        msg: P::Message,
        trace: Option<TraceCtx>,
    ) {
        let seq = self
            .scheduler
            .schedule(arrival, EventKind::Deliver { src, dest, msg });
        if let (Some(c), Some(t)) = (trace, self.telemetry.as_deref_mut()) {
            t.put_inflight(seq, c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LatencyModel, LossModel};

    /// Ping-pong test protocol: node 0 pings node 1 on start, node 1 pongs
    /// back, each side counts what it received; node 0 also arms a timer.
    #[derive(Default)]
    struct PingPong {
        pings: u32,
        pongs: u32,
        timer_fires: u32,
        stopped: bool,
    }

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping,
        Pong,
    }

    impl Protocol for PingPong {
        type Message = Msg;

        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            if ctx.self_addr() == NodeAddr(0) {
                ctx.send(NodeAddr(1), Msg::Ping);
                ctx.set_timer(SimDuration::from_millis(100), TimerToken(7));
            }
        }

        fn on_message(&mut self, from: NodeAddr, msg: Msg, ctx: &mut Context<'_, Msg>) {
            match msg {
                Msg::Ping => {
                    self.pings += 1;
                    ctx.send(from, Msg::Pong);
                }
                Msg::Pong => self.pongs += 1,
            }
        }

        fn on_timer(&mut self, token: TimerToken, _ctx: &mut Context<'_, Msg>) {
            assert_eq!(token, TimerToken(7));
            self.timer_fires += 1;
        }

        fn on_stop(&mut self, _ctx: &mut Context<'_, Msg>) {
            self.stopped = true;
        }
    }

    fn ideal_config() -> SimConfig {
        SimConfig {
            link: LinkModel::ideal(),
            max_events: 1_000_000,
        }
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut sim: Simulation<PingPong> = Simulation::new(ideal_config(), 1);
        let a = sim.add_node(PingPong::default());
        let b = sim.add_node(PingPong::default());
        sim.run_until_idle();
        assert_eq!(sim.node(b).unwrap().pings, 1);
        assert_eq!(sim.node(a).unwrap().pongs, 1);
        assert_eq!(sim.node(a).unwrap().timer_fires, 1);
        let m = sim.metrics();
        assert_eq!(m.messages_sent, 2);
        assert_eq!(m.messages_delivered, 2);
        assert_eq!(m.timers_fired, 1);
        assert_eq!(m.nodes_started, 2);
    }

    #[test]
    fn lossy_link_drops_everything() {
        let config = SimConfig {
            link: LinkModel {
                latency: LatencyModel::Fixed(SimDuration::from_millis(1)),
                loss: LossModel::Bernoulli { p: 1.0 },
            },
            max_events: 10_000,
        };
        let mut sim: Simulation<PingPong> = Simulation::new(config, 1);
        let _a = sim.add_node(PingPong::default());
        let b = sim.add_node(PingPong::default());
        sim.run_until_idle();
        assert_eq!(sim.node(b).unwrap().pings, 0);
        assert_eq!(sim.metrics().messages_lost, 1);
        assert_eq!(sim.metrics().messages_delivered, 0);
    }

    #[test]
    fn failed_node_receives_nothing() {
        let mut sim: Simulation<PingPong> = Simulation::new(ideal_config(), 1);
        let _a = sim.add_node(PingPong::default());
        let b = sim.add_node(PingPong::default());
        // Fail b before the ping can be delivered: both the Fail and the
        // Start/Deliver are at t=0, but Fail is scheduled first.
        sim.fail_node(b);
        sim.run_until_idle();
        assert_eq!(sim.node(b).unwrap().pings, 0);
        assert!(!sim.is_alive(b));
        assert_eq!(sim.alive_count(), 1);
        assert_eq!(sim.metrics().messages_to_dead, 1);
        assert!(
            !sim.node(b).unwrap().stopped,
            "crash failure must not run on_stop"
        );
    }

    #[test]
    fn graceful_stop_runs_on_stop() {
        let mut sim: Simulation<PingPong> = Simulation::new(ideal_config(), 1);
        let a = sim.add_node(PingPong::default());
        let b = sim.add_node(PingPong::default());
        sim.run_until_idle();
        sim.stop_node(b);
        sim.run_until_idle();
        assert!(sim.node(b).unwrap().stopped);
        assert!(!sim.is_alive(b));
        assert!(sim.is_alive(a));
        assert_eq!(sim.metrics().nodes_stopped, 1);
    }

    #[test]
    fn timers_of_dead_nodes_are_dropped() {
        let mut sim: Simulation<PingPong> = Simulation::new(ideal_config(), 1);
        let a = sim.add_node(PingPong::default());
        let _b = sim.add_node(PingPong::default());
        // Run only far enough for on_start (which arms a's 100ms timer).
        sim.run_until(SimTime::from_millis(10));
        sim.fail_node(a);
        sim.run_until_idle();
        assert_eq!(sim.node(a).unwrap().timer_fires, 0);
        assert_eq!(sim.metrics().timers_dropped, 1);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim: Simulation<PingPong> = Simulation::new(
            SimConfig {
                link: LinkModel {
                    latency: LatencyModel::Fixed(SimDuration::from_millis(20)),
                    loss: LossModel::None,
                },
                max_events: 10_000,
            },
            1,
        );
        let _a = sim.add_node(PingPong::default());
        let b = sim.add_node(PingPong::default());
        sim.run_until(SimTime::from_millis(5));
        // Ping is in flight (20ms latency) but not yet delivered.
        assert_eq!(sim.node(b).unwrap().pings, 0);
        sim.run_until(SimTime::from_millis(25));
        assert_eq!(sim.node(b).unwrap().pings, 1);
    }

    #[test]
    fn invoke_dispatches_actions() {
        let mut sim: Simulation<PingPong> = Simulation::new(ideal_config(), 1);
        let _a = sim.add_node(PingPong::default());
        let b = sim.add_node(PingPong::default());
        sim.run_until_idle();
        let before = sim.node(b).unwrap().pings;
        let r = sim.invoke(NodeAddr(0), |_node, ctx| {
            ctx.send(b, Msg::Ping);
            42
        });
        assert_eq!(r, Some(42));
        sim.run_until_idle();
        assert_eq!(sim.node(b).unwrap().pings, before + 1);
        // Invoking a dead node returns None.
        sim.fail_node(b);
        sim.run_until_idle();
        assert_eq!(sim.invoke(b, |_n, _c| ()), None);
    }

    #[test]
    fn deterministic_given_seed() {
        fn run(seed: u64) -> (u64, u64, Option<u64>) {
            let mut sim: Simulation<PingPong> = Simulation::new(SimConfig::default(), seed);
            sim.enable_digest();
            for _ in 0..10 {
                sim.add_node(PingPong::default());
            }
            sim.run_until_idle();
            (
                sim.metrics().messages_delivered,
                sim.now().as_micros(),
                sim.event_digest(),
            )
        }
        assert_eq!(run(7), run(7));
        assert!(run(7).2.is_some());
    }

    #[test]
    fn node_sweeps_are_index_ordered() {
        let mut sim: Simulation<PingPong> = Simulation::new(ideal_config(), 1);
        for _ in 0..5 {
            sim.add_node(PingPong::default());
        }
        sim.run_until_idle();
        sim.fail_node(NodeAddr(2));
        sim.run_until_idle();
        assert_eq!(
            sim.all_nodes(),
            (0..5).map(NodeAddr).collect::<Vec<_>>(),
            "all_nodes is address-ordered"
        );
        assert_eq!(
            sim.alive_nodes(),
            vec![NodeAddr(0), NodeAddr(1), NodeAddr(3), NodeAddr(4)],
            "alive_nodes is address-ordered with dead nodes skipped"
        );
    }
}
