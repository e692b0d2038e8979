//! Seeded input generation: the three workload specifications, the op
//! schedule and the crash plan.
//!
//! Everything here is derived from the `--seed` argument with the
//! benchmark's own generator, so the program under test receives only the
//! generated inputs and the same seed always yields the same inputs.

use simnet::{SimDuration, SimTime};

/// SplitMix64: small, fast and independent of the simulator's own RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`salt` names the purpose).
    pub fn stream(seed: u64, salt: u64) -> Self {
        let mut r = Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// `k` distinct indices from `0..n`, in draw order.
    pub fn distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        let k = k.min(n);
        for i in 0..k {
            let j = i + self.below(n - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }
}

/// Zipf(α) over ranks `0..n` by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, alpha: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(alpha);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The operation types of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    Get,
    Put,
    Lookup,
    Publish,
    Range,
}

impl OpKind {
    pub const ALL: [OpKind; 5] = [
        OpKind::Get,
        OpKind::Put,
        OpKind::Lookup,
        OpKind::Publish,
        OpKind::Range,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Put => "put",
            OpKind::Lookup => "lookup",
            OpKind::Publish => "publish",
            OpKind::Range => "range",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// One workload: population, protocol features, op mix and rates.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub nodes: usize,
    /// `TreePConfig::replication_factor`.
    pub replication: u32,
    /// Hot-key cache lines per node (the read path is always on).
    pub cache_capacity: usize,
    pub pubsub: bool,
    /// Key corpus size (the Zipf rank space of gets and puts).
    pub keys: usize,
    pub alpha: f64,
    pub value_size: usize,
    /// Offered load: ops per virtual second (open loop, Poisson arrivals).
    pub ops_per_s: f64,
    /// Relative weights of get, put, lookup, publish and range.
    pub mix: [f64; 5],
    pub topics: usize,
    pub subscribers_per_topic: usize,
    /// Width of a range query as a fraction of the identifier space.
    pub range_width: f64,
    /// Fraction of nodes that crash (no rejoin) during the window.
    pub crash_fraction: f64,
    /// Seed of the simulated network (topology, link draws) and the crash
    /// plan, when fixed for the workload instead of taken from `--seed`.
    pub scenario_seed: Option<u64>,
    /// Virtual milliseconds of measured window per requested host second.
    pub window_ms_per_s: u64,
    /// Virtual warm-up of the op mix before the window (part of set-up).
    pub warmup: SimDuration,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
}

pub const WORKLOADS: [&str; 3] = ["maint_10k", "kv_zipf_1k", "repl_churn_2k"];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        let base = Spec {
            name: "",
            nodes: 0,
            replication: 1,
            cache_capacity: 32,
            pubsub: false,
            keys: 1000,
            alpha: 0.99,
            value_size: 64,
            ops_per_s: 0.0,
            mix: [0.8, 0.1, 0.1, 0.0, 0.0],
            topics: 0,
            subscribers_per_topic: 0,
            range_width: 0.0,
            crash_fraction: 0.0,
            scenario_seed: None,
            window_ms_per_s: 1000,
            warmup: SimDuration::from_millis(500),
            setups: 3,
        };
        let spec = match name {
            // Maintenance-dominated: a large population, a light op stream.
            "maint_10k" => Spec {
                name: "maint_10k",
                nodes: 10_000,
                ops_per_s: 800.0,
                window_ms_per_s: 500,
                ..base
            },
            // Op-dominated: a small population under a heavy Zipf stream.
            "kv_zipf_1k" => Spec {
                name: "kv_zipf_1k",
                nodes: 1_000,
                value_size: 100,
                ops_per_s: 20_000.0,
                window_ms_per_s: 2500,
                setups: 7,
                ..base
            },
            // Replication, pub/sub and range queries under crashes.
            "repl_churn_2k" => Spec {
                name: "repl_churn_2k",
                nodes: 2_000,
                replication: 3,
                pubsub: true,
                keys: 500,
                value_size: 256,
                ops_per_s: 400.0,
                mix: [0.5, 0.2, 0.1, 0.1, 0.1],
                topics: 16,
                subscribers_per_topic: 24,
                range_width: 0.01,
                crash_fraction: 0.10,
                scenario_seed: Some(1),
                window_ms_per_s: 800,
                ..base
            },
            _ => return None,
        };
        Some(spec)
    }

    /// The measured window's virtual length for a run of `seconds`.
    pub fn window(&self, seconds: u64) -> SimDuration {
        SimDuration::from_millis(self.window_ms_per_s * seconds.max(1))
    }
}

/// One scheduled operation.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Scheduled issue instant.
    pub at: SimTime,
    pub kind: OpKind,
    /// Issuing node (its simulator address index).
    pub source: u32,
    /// Key index (get/put), target node index (lookup), topic index
    /// (publish) or range start in identifier units (range).
    pub arg: u64,
    /// Position in the schedule; names the value a put writes.
    pub seq: u64,
}

/// Poisson arrivals over `[start, end)` drawing sources from `sources`.
pub fn schedule(
    spec: &Spec,
    rng: &mut Rng,
    start: SimTime,
    end: SimTime,
    sources: &[usize],
    first_seq: u64,
    space_size: u64,
) -> Vec<Op> {
    let zipf = Zipf::new(spec.keys.max(1), spec.alpha);
    let topic_zipf = Zipf::new(spec.topics.max(1), spec.alpha);
    let total: f64 = spec.mix.iter().sum();
    let mean_gap_us = 1e6 / spec.ops_per_s;
    let range_width = (spec.range_width * space_size as f64) as u64;
    let mut ops = Vec::new();
    let mut t = start.0 as f64;
    let mut seq = first_seq;
    loop {
        t += -mean_gap_us * (1.0 - rng.f64()).ln();
        let at = SimTime(t.ceil() as u64);
        if at >= end {
            break;
        }
        let mut pick = rng.f64() * total;
        let mut kind = OpKind::Get;
        for k in OpKind::ALL {
            let w = spec.mix[k.index()];
            if pick < w {
                kind = k;
                break;
            }
            pick -= w;
        }
        let source = sources[rng.below(sources.len())] as u32;
        let arg = match kind {
            OpKind::Get | OpKind::Put => zipf.sample(rng) as u64,
            OpKind::Lookup => sources[rng.below(sources.len())] as u64,
            OpKind::Publish => topic_zipf.sample(rng) as u64,
            OpKind::Range => rng.next_u64() % space_size.saturating_sub(range_width).max(1),
        };
        ops.push(Op {
            at,
            kind,
            source,
            arg,
            seq,
        });
        seq += 1;
    }
    ops
}

/// Which nodes crash, with each crash instant as a fraction of the
/// window, sorted by instant.
pub fn crash_plan(spec: &Spec, rng: &mut Rng) -> Vec<(usize, f64)> {
    let count = (spec.nodes as f64 * spec.crash_fraction).round() as usize;
    let mut plan: Vec<(usize, f64)> = rng
        .distinct(spec.nodes, count)
        .into_iter()
        .map(|node| (node, rng.f64()))
        .collect();
    plan.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    plan
}

/// The bytes a put with schedule position `seq` writes under key `key`:
/// a self-describing prefix padded to the workload's value size.
pub fn value_bytes(key: usize, seq: u64, size: usize) -> Vec<u8> {
    let mut v = format!("v{key}:{seq}:").into_bytes();
    let mut fill = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    while v.len() < size {
        fill ^= fill << 13;
        fill ^= fill >> 7;
        fill ^= fill << 17;
        v.push(b'a' + (fill % 26) as u8);
    }
    v
}

/// Parse `(key, seq)` back out of [`value_bytes`] output.
pub fn parse_value(v: &[u8]) -> Option<(usize, u64)> {
    let s = std::str::from_utf8(v).ok()?;
    let mut parts = s.strip_prefix('v')?.splitn(3, ':');
    let key = parts.next()?.parse().ok()?;
    let seq = parts.next()?.parse().ok()?;
    Some((key, seq))
}

pub fn key_bytes(key: usize) -> Vec<u8> {
    format!("bench-key-{key}").into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_and_pad() {
        let v = value_bytes(17, 123_456, 100);
        assert_eq!(v.len(), 100);
        assert_eq!(parse_value(&v), Some((17, 123_456)));
    }

    #[test]
    fn schedule_is_seeded() {
        let spec = Spec::by_name("kv_zipf_1k").unwrap();
        let sources: Vec<usize> = (0..spec.nodes).collect();
        let a = schedule(
            &spec,
            &mut Rng::stream(5, 0),
            SimTime(0),
            SimTime(1_000_000),
            &sources,
            0,
            1 << 32,
        );
        let b = schedule(
            &spec,
            &mut Rng::stream(5, 0),
            SimTime(0),
            SimTime(1_000_000),
            &sources,
            0,
            1 << 32,
        );
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.at == y.at && x.arg == y.arg));
        assert!((a.len() as f64 - 20_000.0).abs() < 1_000.0);
    }
}
