//! TreeP benchmark: one seeded workload on the real protocol, end-to-end
//! metrics (`--trace 0`) or per-layer metrics from a traced run
//! (`--trace 1`), with correctness checks. The last line of standard output
//! is one JSON object; the exit code is non-zero on any failed check.
//!
//! ```text
//! treep-perfbench --workload kv_zipf_1k --seed 1 --seconds 10 --trace 0 [--out DIR]
//! ```

mod drive;
mod gen;
mod host;
mod ledger;

use drive::{Bench, WindowStats, OP_TIMEOUT};
use gen::{OpKind, Spec};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use treep::{MessageKind, ReadSource, TreePNode};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                }
            }
            "--out" => a.out = Some(val()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if Spec::by_name(&a.workload).is_none() {
        return Err(format!(
            "--workload must be one of {}",
            gen::WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

/// One reported figure.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind the figure, when it is a statistic over samples.
    samples: Option<usize>,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    fn add(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: Option<usize>,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    fn print(&self, header: &str) {
        println!("== {header}");
        for m in &self.metrics {
            let n = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
            println!("{:<36} {:>16.6} {}{n}", m.name, m.value, m.unit);
        }
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i > 0 { ", " } else { "" },
                m.name,
                v,
                m.unit
            );
        }
        s.push('}');
        s
    }
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted samples.
fn pctl(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail quantile to report: 0.99, or the highest one that still has
/// ten samples beyond it.
fn tail_q(n: usize) -> f64 {
    if n as f64 * 0.01 >= 10.0 {
        0.99
    } else {
        (1.0 - 10.0 / n.max(1) as f64).max(0.5)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Per-op figures over the measured window.
struct OpStats {
    attempted: [usize; 5],
    failed: [usize; 5],
    /// Latency in ms of every measured op that completed correctly.
    /// Failed ops are counted in `failed` instead: where more than 1% fail,
    /// a tail percentile that ranked them above every latency would be
    /// infinite.
    latency_ms: Vec<f64>,
    latency_by_kind: [Vec<f64>; 5],
    /// Hops of answered gets and found lookups.
    hops: Vec<f64>,
    lookup_hops: Vec<f64>,
    gets_answered: usize,
    cache_served: usize,
    replica_served: usize,
    ranges_complete: usize,
}

fn op_stats(b: &Bench) -> OpStats {
    let mut s = OpStats {
        attempted: [0; 5],
        failed: [0; 5],
        latency_ms: Vec::new(),
        latency_by_kind: Default::default(),
        hops: Vec::new(),
        lookup_hops: Vec::new(),
        gets_answered: 0,
        cache_served: 0,
        replica_served: 0,
        ranges_complete: 0,
    };
    for r in b.ops.iter().filter(|r| r.measured) {
        let k = r.op.kind.index();
        s.attempted[k] += 1;
        match (r.ok, r.done_at) {
            (true, Some(done)) => {
                let ms = done.0.saturating_sub(r.op.at.0) as f64 / 1e3;
                s.latency_ms.push(ms);
                s.latency_by_kind[k].push(ms);
            }
            _ => s.failed[k] += 1,
        }
        if let (true, Some(h)) = (r.ok, r.hops) {
            s.hops.push(h as f64);
            if r.op.kind == OpKind::Lookup {
                s.lookup_hops.push(h as f64);
            }
        }
        if r.op.kind == OpKind::Get && r.ok {
            s.gets_answered += 1;
            match r.tier {
                Some(ReadSource::Cache) => s.cache_served += 1,
                Some(ReadSource::Replica) => s.replica_served += 1,
                _ => {}
            }
        }
        if r.op.kind == OpKind::Range && r.complete {
            s.ranges_complete += 1;
        }
    }
    s.latency_ms.sort_by(f64::total_cmp);
    for v in &mut s.latency_by_kind {
        v.sort_by(f64::total_cmp);
    }
    s.lookup_hops.sort_by(f64::total_cmp);
    s
}

/// Reads that went backwards for one origin: a get must return a stamp at
/// least as fresh as every get of the same origin and key that completed
/// before it was issued.
fn monotonic_violations(b: &Bench) -> Vec<String> {
    // (issued, completed, stamp) of the answered gets of each (origin, key).
    type Reads = Vec<(u64, u64, treep::VersionStamp)>;
    let mut groups: HashMap<(usize, u64), Reads> = HashMap::new();
    for r in &b.ops {
        if let (OpKind::Get, true, Some(done), Some(stamp)) = (r.op.kind, r.ok, r.done_at, r.stamp)
        {
            groups
                .entry((r.op.source as usize, r.op.arg))
                .or_default()
                .push((r.op.at.0, done.0, stamp));
        }
    }
    let mut out = Vec::new();
    for ((source, key), mut gets) in groups {
        gets.sort_by_key(|g| g.1);
        let mut prefix_max = Vec::with_capacity(gets.len());
        let mut best = None;
        for g in &gets {
            best = best.max(Some(g.2));
            prefix_max.push(best);
        }
        for g in &gets {
            let before = gets.partition_point(|h| h.1 < g.0);
            if before > 0 {
                if let Some(floor) = prefix_max[before - 1] {
                    if g.2 < floor {
                        out.push(format!(
                            "node {source} read key {key} at stamp {:?} after reading {:?}",
                            g.2, floor
                        ));
                    }
                }
            }
        }
    }
    out.sort();
    out
}

fn sent_rate(w: &WindowStats, kinds: impl Fn(MessageKind) -> bool) -> f64 {
    let n: u64 = MessageKind::ALL
        .iter()
        .filter(|k| kinds(**k))
        .map(|k| w.window.sent[k.index()])
        .sum();
    ratio(n as f64, w.node_s)
}

/// Host µs per live node-second over the whole window.
fn host_us_per_node_s(w: &WindowStats) -> f64 {
    ratio(w.slice_host_s.iter().sum::<f64>() * 1e6, w.node_s)
}

fn end_to_end(b: &Bench, w: &WindowStats, s: &OpStats, setup_s: &[f64]) -> Report {
    let mut r = Report::default();
    let attempted: usize = s.attempted.iter().sum();
    let failed: usize = s.failed.iter().sum();
    let n = s.latency_ms.len();
    r.add("setup_s", median(setup_s), "s", Some(setup_s.len()));
    r.add(
        "host_us_per_node_s",
        host_us_per_node_s(w),
        "us/node-s",
        None,
    );
    r.add("op_p50_ms", pctl(&s.latency_ms, 0.5), "ms", Some(n));
    r.add("op_p99_ms", pctl(&s.latency_ms, tail_q(n)), "ms", Some(n));
    r.add(
        "op_success_ratio",
        ratio((attempted - failed) as f64, attempted as f64),
        "ratio",
        Some(attempted),
    );
    r.add(
        "hops_mean",
        ratio(s.hops.iter().sum(), s.hops.len() as f64),
        "hops",
        Some(s.hops.len()),
    );
    r.add("msgs_per_node_s", sent_rate(w, |_| true), "1/node-s", None);
    r.add(
        "maint_msgs_per_node_s",
        sent_rate(w, |k| k.is_maintenance()),
        "1/node-s",
        None,
    );
    r.add(
        "rss_bytes_per_node",
        drive::peak_rss_bytes() as f64 / b.spec.nodes as f64,
        "B/node",
        None,
    );
    r
}

/// End-of-run overlay health over the live nodes.
struct Health {
    roots: usize,
    orphans: usize,
    height: u32,
    deficit: usize,
    keys_lost: usize,
    entries_mean: f64,
    entries_max: usize,
}

fn health(b: &Bench) -> Health {
    let alive: Vec<&TreePNode> = b
        .sim
        .alive_nodes()
        .iter()
        .filter_map(|&a| b.sim.node(a))
        .collect();
    let audit = treep::audit(alive.iter().copied(), &b.config);
    // Top-level roots: parentless nodes at the top level, grouped into
    // components by their top-bus entries (more than one = split brain).
    let tops: Vec<&TreePNode> = alive
        .iter()
        .copied()
        .filter(|n| n.max_level() == audit.height && n.tables().parent().is_none())
        .collect();
    let mut comp: Vec<usize> = (0..tops.len()).collect();
    fn find(c: &mut [usize], i: usize) -> usize {
        let mut i = i;
        while c[i] != i {
            c[i] = c[c[i]];
            i = c[i];
        }
        i
    }
    for (i, a) in tops.iter().enumerate() {
        for (j, other) in tops.iter().enumerate() {
            if a.tables().find(other.id()).is_some() {
                let (x, y) = (find(&mut comp, i), find(&mut comp, j));
                comp[x] = y;
            }
        }
    }
    let roots = (0..tops.len()).filter(|&i| find(&mut comp, i) == i).count();
    let rep = treep::audit_replication(
        alive.iter().map(|n| (n.id(), n.dht_store())),
        b.config.replication_factor,
    );
    let keys_lost = b
        .key_coords
        .iter()
        .filter(|k| !alive.iter().any(|n| n.dht_store().contains(**k)))
        .count();
    let sizes: Vec<usize> = alive.iter().map(|n| n.tables().sizes().total()).collect();
    Health {
        roots,
        orphans: audit.orphans,
        height: audit.height,
        deficit: rep.keys - rep.fully_replicated,
        keys_lost,
        entries_mean: ratio(sizes.iter().sum::<usize>() as f64, sizes.len() as f64),
        entries_max: sizes.iter().copied().max().unwrap_or(0),
    }
}

fn pctl_u32(v: &mut [u32], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1] as f64
}

/// Replayed invokes per op kind behind `treep.issue_ns.*`.
const INVOKE_REPLAYS: usize = 500;

fn per_layer(
    b: &mut Bench,
    w: &WindowStats,
    s: &OpStats,
    untraced_host_us: f64,
    codec: &ledger::CodecLedger,
) -> Report {
    // Replays on the final state first: the issue replays leave
    // originated-but-unrun ops behind.
    let h = health(b);
    let rep = ledger::replays(b);
    let issue_ns = b.replay_issue_ns(INVOKE_REPLAYS);
    let mut r = Report::default();
    let su = b.setup;
    r.add("builder.build_s", su.build_s, "s", None);
    r.add("builder.settle_s", su.settle_s, "s", None);
    r.add("builder.preload_s", su.preload_s, "s", None);

    let traced_host_us = host_us_per_node_s(w);
    let events = w.events as f64;
    let tr = b.tracer.as_mut().expect("traced run");
    let deliver_total: u64 = tr.deliver_ns.iter().map(|&x| x as u64).sum();
    let timer_total: u64 = tr.timer_ns.iter().map(|&x| x as u64).sum();
    let other_total: u64 = tr.other_ns.iter().map(|&x| x as u64).sum();
    let steps = tr.deliver_ns.len() + tr.timer_ns.len() + tr.other_ns.len();
    let step_total = (deliver_total + timer_total + other_total) as f64;
    r.add(
        "simnet.events_per_node_s",
        ratio(events, w.node_s),
        "1/node-s",
        None,
    );
    r.add(
        "simnet.ns_per_event",
        ratio(step_total, steps as f64),
        "ns",
        Some(steps),
    );
    let (nd, nt) = (tr.deliver_ns.len(), tr.timer_ns.len());
    r.add(
        "simnet.deliver_ns_p50",
        pctl_u32(&mut tr.deliver_ns, 0.5),
        "ns",
        Some(nd),
    );
    r.add(
        "simnet.deliver_ns_p99",
        pctl_u32(&mut tr.deliver_ns, tail_q(nd)),
        "ns",
        Some(nd),
    );
    r.add(
        "simnet.timer_ns_p50",
        pctl_u32(&mut tr.timer_ns, 0.5),
        "ns",
        Some(nt),
    );
    r.add(
        "simnet.timer_ns_p99",
        pctl_u32(&mut tr.timer_ns, tail_q(nt)),
        "ns",
        Some(nt),
    );
    r.add(
        "simnet.deliver_share",
        ratio(deliver_total as f64, step_total),
        "ratio",
        None,
    );
    r.add(
        "simnet.timer_share",
        ratio(timer_total as f64, step_total),
        "ratio",
        None,
    );
    r.add("simnet.queue_peak", tr.queue_peak as f64, "events", None);
    r.add(
        "simnet.messages_to_dead",
        w.sim_window_and_drain.messages_to_dead as f64,
        "count",
        None,
    );
    r.add(
        "simnet.timers_dropped",
        w.sim_window_and_drain.timers_dropped as f64,
        "count",
        None,
    );
    let tel = b.sim.telemetry().expect("traced run");
    for (tag, name) in [(0u8, "deliver"), (1u8, "timer")] {
        let hist = tel.dispatch_histogram(tag);
        r.add(
            format!("engine.dispatch_ns.{name}_mean"),
            hist.mean(),
            "ns",
            Some(hist.count() as usize),
        );
    }

    for k in MessageKind::ALL {
        r.add(
            format!("treep.sent.{}", k.name()),
            ratio(w.window.sent[k.index()] as f64, w.node_s),
            "1/node-s",
            None,
        );
    }
    for k in OpKind::ALL {
        r.add(
            format!("treep.issue_ns.{}", k.name()),
            issue_ns[k.index()],
            "ns",
            Some(INVOKE_REPLAYS),
        );
    }
    for k in OpKind::ALL {
        r.add(
            format!("ops.attempted.{}", k.name()),
            s.attempted[k.index()] as f64,
            "count",
            None,
        );
        r.add(
            format!("ops.failed.{}", k.name()),
            s.failed[k.index()] as f64,
            "count",
            None,
        );
    }
    let tr = b.tracer.as_ref().expect("traced run");
    let op_msgs = tr.op_msgs;
    let probe_msgs = tr.probe_msgs;
    let spans_dropped = tr.spans_dropped;

    r.add("routing.route_ns", rep.route_ns, "ns", Some(rep.calls));
    let nl = s.lookup_hops.len();
    r.add(
        "lookup.hops_p99",
        pctl(&s.lookup_hops, tail_q(nl)),
        "hops",
        Some(nl),
    );
    let wd = &w.window_and_drain;
    let lookup_timeouts = b
        .ops
        .iter()
        .filter(|o| {
            o.measured
                && o.op.kind == OpKind::Lookup
                && !o.ok
                && o.done_at
                    .is_none_or(|d| d.0 >= o.op.at.0 + OP_TIMEOUT.as_micros())
        })
        .count();
    r.add("lookup.timeouts", lookup_timeouts as f64, "count", None);
    r.add(
        "lookup.dead_ended",
        wd.lookups_dead_ended as f64,
        "count",
        None,
    );
    r.add(
        "lookup.ttl_dropped",
        wd.lookups_ttl_dropped as f64,
        "count",
        None,
    );

    r.add("tables.entries_mean", h.entries_mean, "entries", None);
    r.add("tables.entries_max", h.entries_max as f64, "entries", None);
    r.add("tables.find_ns", rep.find_ns, "ns", Some(rep.calls));
    r.add(
        "tables.closest_peer_ns",
        rep.closest_peer_ns,
        "ns",
        Some(rep.calls),
    );
    r.add(
        "tables.expired",
        ratio(w.window.entries_expired as f64, w.node_s),
        "1/node-s",
        None,
    );
    r.add(
        "tables.pruned",
        ratio(w.window.entries_pruned as f64, w.node_s),
        "1/node-s",
        None,
    );

    let gets = s.attempted[OpKind::Get.index()] as f64;
    let puts = s.attempted[OpKind::Put.index()] as f64;
    r.add(
        "readpath.cache_hit_ratio",
        ratio(s.cache_served as f64, s.gets_answered as f64),
        "ratio",
        Some(s.gets_answered),
    );
    r.add(
        "readpath.replica_served_ratio",
        ratio(s.replica_served as f64, s.gets_answered as f64),
        "ratio",
        Some(s.gets_answered),
    );
    r.add(
        "readpath.read_repairs",
        wd.read_repairs as f64,
        "count",
        None,
    );
    r.add(
        "readpath.cache_evictions",
        wd.cache_evictions as f64,
        "count",
        None,
    );
    let gl = &s.latency_by_kind[OpKind::Get.index()];
    let pl = &s.latency_by_kind[OpKind::Put.index()];
    r.add(
        "readpath.get_p99_ms",
        pctl(gl, tail_q(gl.len())),
        "ms",
        Some(gl.len()),
    );
    r.add(
        "readpath.put_p99_ms",
        pctl(pl, tail_q(pl.len())),
        "ms",
        Some(pl.len()),
    );
    r.add(
        "readpath.msgs_per_get",
        ratio(op_msgs[OpKind::Get.index()] as f64, gets),
        "msgs",
        Some(gets as usize),
    );
    r.add(
        "readpath.msgs_per_put",
        ratio(op_msgs[OpKind::Put.index()] as f64, puts),
        "msgs",
        Some(puts as usize),
    );

    r.add(
        "replication.probe_msgs_per_node_s",
        ratio(probe_msgs as f64, w.node_s),
        "1/node-s",
        None,
    );
    r.add(
        "replication.pairwise_syncs",
        wd.pairwise_syncs as f64,
        "count",
        None,
    );
    r.add("replication.deficit", h.deficit as f64, "keys", None);
    r.add("replication.keys_lost", h.keys_lost as f64, "keys", None);

    let publishes = s.attempted[OpKind::Publish.index()];
    let (required, delivered) = pubsub_coverage(b);
    let ranges = s.attempted[OpKind::Range.index()];
    r.add("multicast.forwards", wd.mc_forwards as f64, "count", None);
    r.add(
        "multicast.dup_suppressed",
        wd.mc_dup_suppressed as f64,
        "count",
        None,
    );
    r.add(
        "multicast.budget_dropped",
        wd.mc_budget_dropped as f64,
        "count",
        None,
    );
    r.add(
        "pubsub.coverage",
        ratio(delivered as f64, required as f64),
        "ratio",
        Some(required),
    );
    r.add(
        "pubsub.branches_pruned",
        wd.branches_pruned as f64,
        "count",
        None,
    );
    r.add(
        "pubsub.msgs_per_delivery",
        ratio(op_msgs[OpKind::Publish.index()] as f64, delivered as f64),
        "msgs",
        Some(publishes),
    );
    r.add(
        "range.complete_ratio",
        ratio(s.ranges_complete as f64, ranges as f64),
        "ratio",
        Some(ranges),
    );

    r.add("health.roots", h.roots as f64, "count", None);
    r.add("health.orphans", h.orphans as f64, "count", None);
    r.add("health.height", h.height as f64, "levels", None);
    r.add("promotion.promotions", wd.promotions as f64, "count", None);
    r.add("promotion.demotions", wd.demotions as f64, "count", None);

    r.add(
        "codec.encode_ns",
        codec.encode_ns,
        "ns",
        Some(codec.messages),
    );
    r.add(
        "codec.decode_ns",
        codec.decode_ns,
        "ns",
        Some(codec.messages),
    );
    for (kind, bytes) in &codec.bytes {
        r.add(format!("codec.bytes.{kind}"), *bytes, "B", None);
    }
    r.add(
        "trace.overhead",
        ratio(traced_host_us, untraced_host_us) - 1.0,
        "ratio",
        None,
    );
    r.add("trace.spans_dropped", spans_dropped as f64, "count", None);
    r
}

/// `(required, delivered)` deliveries of measured publishes to
/// subscribers alive at the end.
fn pubsub_coverage(b: &Bench) -> (usize, usize) {
    let mut required = 0;
    let mut delivered = 0;
    for rec in b
        .ops
        .iter()
        .filter(|r| r.measured && r.op.kind == OpKind::Publish)
    {
        let live = b.subscribers[rec.op.arg as usize]
            .iter()
            .filter(|&&s| b.sim.is_alive(simnet::NodeAddr(s as u64)))
            .count();
        required += live;
        delivered += rec.delivered;
    }
    (required, delivered)
}

fn print_slices(w: &WindowStats) {
    let per: Vec<String> = w
        .slice_host_s
        .iter()
        .zip(&w.slice_node_s)
        .map(|(h, n)| format!("{:.1}", ratio(h * 1e6, *n)))
        .collect();
    println!(
        "window slices, host us per live node-second: {}",
        per.join(" ")
    );
}

fn print_ops(s: &OpStats) {
    println!("== ops by type (measured window)");
    for k in OpKind::ALL {
        let (a, f) = (s.attempted[k.index()], s.failed[k.index()]);
        if a > 0 {
            let v = &s.latency_by_kind[k.index()];
            println!(
                "{:<8} attempted {:>8}  failed {:>6} ({:.4})  p50 {:.3} ms  p{:.1} {:.3} ms",
                k.name(),
                a,
                f,
                ratio(f as f64, a as f64),
                pctl(v, 0.5),
                tail_q(v.len()) * 100.0,
                pctl(v, tail_q(v.len()))
            );
        }
    }
}

/// Self time of each host span name: duration minus the children's.
fn print_host_spans(spans: &[drive::HostSpan]) {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != u32::MAX {
            child[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut by: std::collections::BTreeMap<&str, (usize, u64, u64)> = Default::default();
    for (i, s) in spans.iter().enumerate() {
        let e = by.entry(s.name).or_default();
        let d = s.end_ns - s.start_ns;
        e.0 += 1;
        e.1 += d;
        e.2 += d.saturating_sub(child[i]);
    }
    println!("== host spans (benchmark side): count, total ms, self ms");
    for (name, (n, total, selft)) in by {
        println!(
            "{name:<16} {n:>9} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            selft as f64 / 1e6
        );
    }
}

/// Write the host spans as Chrome-trace JSON (at most `cap` events).
fn write_spans(dir: &str, workload: &str, spans: &[drive::HostSpan]) -> std::io::Result<String> {
    const CAP: usize = 200_000;
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/spans-{workload}.json");
    let mut s = String::from("{\"traceEvents\": [\n");
    for (i, sp) in spans.iter().take(CAP).enumerate() {
        let _ = writeln!(
            s,
            "{}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}}}",
            if i > 0 { "," } else { "" },
            sp.name,
            sp.start_ns as f64 / 1e3,
            (sp.end_ns - sp.start_ns) as f64 / 1e3
        );
    }
    let _ = writeln!(
        s,
        "], \"otherData\": {{\"spans\": {}, \"written\": {}}}}}",
        spans.len(),
        spans.len().min(CAP)
    );
    std::fs::write(&path, s)?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::by_name(&args.workload).expect("checked in parse_args");
    let started = Instant::now();
    println!(
        "workload {} seed {} seconds {} trace {} (n = {}, k = {}, {} ops/s, window {} virtual ms, host threads {})",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.nodes,
        spec.replication,
        spec.ops_per_s,
        spec.window(args.seconds).as_millis(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut problems: Vec<String> = Vec::new();

    let (report, stats) = if !args.trace {
        let mut setup_s = Vec::with_capacity(spec.setups);
        let mut bench = None;
        for _ in 0..spec.setups {
            drop(bench.take());
            let b = Bench::setup(&spec, args.seed, false, false);
            println!(
                "set-up: build {:.3} s, settle {:.3} s, preload {:.3} s",
                b.setup.build_s, b.setup.settle_s, b.setup.preload_s
            );
            setup_s.push(b.setup.total());
            bench = Some(b);
        }
        let mut b = bench.expect("at least one set-up");
        let w = b.run_window(args.seconds);
        print_slices(&w);
        let s = op_stats(&b);
        problems.extend(check(&b));
        let codec = ledger::codec_ledger(&b, false);
        if codec.round_trip_failures > 0 {
            problems.push(format!(
                "{} corpus messages failed to round-trip",
                codec.round_trip_failures
            ));
        }
        println!("setup_s samples: {setup_s:?}");
        let h = health(&b);
        println!(
            "health at end: roots {}, orphans {}, height {}, replication deficit {} keys, keys lost {}",
            h.roots, h.orphans, h.height, h.deficit, h.keys_lost
        );
        (end_to_end(&b, &w, &s, &setup_s), s)
    } else {
        // Untraced leg: the digest and host cost to compare against.
        let mut a = Bench::setup(&spec, args.seed, false, true);
        let wa = a.run_window(args.seconds);
        let digest_a = a.sim.event_digest();
        let untraced_host_us = host_us_per_node_s(&wa);
        drop(a);
        // Traced leg.
        let mut b = Bench::setup(&spec, args.seed, true, true);
        let w = b.run_window(args.seconds);
        let digest_b = b.sim.event_digest();
        println!("event digest untraced {digest_a:016x?} traced {digest_b:016x?}");
        if digest_a != digest_b {
            problems.push("traced run's event digest differs from the untraced run's".into());
        }
        let s = op_stats(&b);
        problems.extend(check(&b));
        let codec = ledger::codec_ledger(&b, true);
        if codec.round_trip_failures > 0 {
            problems.push(format!(
                "{} corpus messages failed to round-trip",
                codec.round_trip_failures
            ));
        }
        let report = per_layer(&mut b, &w, &s, untraced_host_us, &codec);
        let host = &b.tracer.as_ref().expect("traced").host.spans;
        print_host_spans(host);
        if let Some(dir) = &args.out {
            match write_spans(dir, spec.name, host) {
                Ok(path) => println!("host spans written to {path}"),
                Err(e) => problems.push(format!("writing spans: {e}")),
            }
        }
        (report, s)
    };

    print_ops(&stats);
    report.print(if args.trace {
        "per-layer metrics"
    } else {
        "end-to-end metrics"
    });
    let attempted: usize = stats.attempted.iter().sum();
    let failed: usize = stats.failed.iter().sum();
    for p in problems.iter().take(20) {
        println!("CHECK FAILED: {p}");
    }
    println!("total host time {:.2} s", started.elapsed().as_secs_f64());
    let correct = problems.is_empty() && attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        report.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Every correctness check on a finished run.
fn check(b: &Bench) -> Vec<String> {
    let mut p: Vec<String> = b.violations.clone();
    p.extend(monotonic_violations(b));
    if b.subscribe_acked < b.subscribe_issued {
        println!(
            "note: {} of {} subscriptions acknowledged",
            b.subscribe_acked, b.subscribe_issued
        );
    }
    p
}
