//! Post-run replays on the final node state: the codec ledger (encode and
//! decode time, bytes per kind, round-trip check) and timed calls into the
//! routing and table layers.

use crate::drive::Bench;
use crate::gen;
use std::hint::black_box;
use std::time::Instant;
use treep::routing::{route, RouterView};
use treep::{
    HierarchicalDistance, KeyRange, LookupRequest, MulticastPayload, MulticastPhase, NodeId,
    PeerInfo, ReadSource, RequestId, RoutingAlgorithm, RoutingEntry, RoutingUpdate, StampedValue,
    TreePMessage, TreePNode, VersionStamp,
};
use treep_net::{decode_message, encode_message};

/// Nodes sampled from the final state for the corpus and the replays.
const SAMPLE_NODES: usize = 64;
/// Timed repetitions; each figure is the median over them.
const ROUNDS: usize = 9;

/// Codec cost and size over the message corpus.
#[derive(Debug, Clone)]
pub struct CodecLedger {
    pub messages: usize,
    pub encode_ns: f64,
    pub decode_ns: f64,
    /// Mean encoded bytes per message kind, in corpus order.
    pub bytes: Vec<(&'static str, f64)>,
    /// Messages that did not decode back to themselves.
    pub round_trip_failures: usize,
}

/// The message kinds of the corpus; `codec.bytes.<kind>` is reported for
/// each.
pub const CORPUS_KINDS: [&str; 7] = [
    "keep_alive",
    "child_report",
    "lookup",
    "get_versioned",
    "get_versioned_reply",
    "put_versioned",
    "multicast_down",
];

fn info(e: &RoutingEntry) -> PeerInfo {
    PeerInfo {
        id: e.id,
        addr: e.addr,
        max_level: e.max_level,
        summary: e.summary,
    }
}

fn sample(b: &Bench) -> Vec<&TreePNode> {
    let alive = b.sim.alive_nodes();
    let step = (alive.len() / SAMPLE_NODES).max(1);
    alive
        .iter()
        .step_by(step)
        .take(SAMPLE_NODES)
        .filter_map(|&a| b.sim.node(a))
        .collect()
}

/// A deterministic corpus built from public constructors and the final
/// state of the sampled nodes.
pub fn corpus(b: &Bench) -> Vec<TreePMessage> {
    let space = b.config.space;
    let mut out = Vec::new();
    for (i, node) in sample(b).into_iter().enumerate() {
        let me = node.peer_info();
        let t = node.tables();
        let mut updates = Vec::new();
        if let Some(p) = t.parent() {
            updates.push(RoutingUpdate::ParentOf { peer: info(p) });
        }
        updates.extend(
            t.superiors()
                .map(|e| RoutingUpdate::Superior { peer: info(e) }),
        );
        let levels: Vec<u32> = t.known_levels().filter(|&l| l > 0).collect();
        for level in levels {
            updates.extend(t.level_members(level).map(|e| RoutingUpdate::LevelMember {
                level,
                peer: info(e),
            }));
        }
        updates.extend(
            t.own_children()
                .map(|e| RoutingUpdate::ChildOf { peer: info(e) }),
        );
        updates.extend(
            t.level0()
                .take(4)
                .map(|e| RoutingUpdate::Contact { peer: info(e) }),
        );
        updates.truncate(16);
        let path: Vec<simnet::NodeAddr> = t.level0().take(3).map(|e| e.addr).collect();
        let key_idx = i % b.key_coords.len().max(1);
        let key = b
            .key_coords
            .get(key_idx)
            .copied()
            .unwrap_or(NodeId(i as u64));
        let stamp = VersionStamp {
            version: 3 + i as u64,
            origin: me.id,
        };
        let value = gen::value_bytes(key_idx, i as u64, b.spec.value_size);
        let target = b.ids[(i * 7919) % b.ids.len()];
        let mut lookup =
            LookupRequest::new(RequestId(i as u64), me, target, RoutingAlgorithm::Greedy);
        lookup.ttl = path.len() as u32;
        lookup.visited = path.clone();

        out.push(TreePMessage::KeepAlive {
            sender: me,
            updates,
        });
        out.push(TreePMessage::ChildReport {
            child: me,
            span: node.subtree_span(),
        });
        out.push(TreePMessage::Lookup(lookup));
        out.push(TreePMessage::GetVersioned {
            request_id: RequestId(i as u64),
            origin: me,
            key,
            ttl: 2,
            min_stamp: Some(stamp),
            path: path.clone(),
        });
        out.push(TreePMessage::GetVersionedReply {
            request_id: RequestId(i as u64),
            origin: me.addr,
            key,
            value: Some(StampedValue {
                stamp,
                value: value.clone(),
            }),
            source: ReadSource::Cache,
            hops: 2,
            responder: me,
            path,
        });
        out.push(TreePMessage::PutVersioned {
            request_id: RequestId(i as u64),
            origin: me,
            key,
            stamp,
            value: value.clone(),
            ttl: 1,
        });
        out.push(TreePMessage::MulticastDown {
            origin: me,
            request_id: RequestId(i as u64),
            range: KeyRange::full(space),
            payload: MulticastPayload::Topic {
                topic: treep::topic_key(space, "bench-topic-0"),
                data: value,
            },
            budget: b.config.multicast_hop_budget,
            hops: 3,
            phase: MulticastPhase::Down,
            bus_level: 0,
        });
    }
    out
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Check every corpus message round-trips; with `timed`, also time the
/// codec over the corpus.
pub fn codec_ledger(b: &Bench, timed: bool) -> CodecLedger {
    let msgs = corpus(b);
    let frames: Vec<Vec<u8>> = msgs.iter().map(encode_message).collect();
    let mut round_trip_failures = 0;
    for (m, f) in msgs.iter().zip(&frames) {
        if decode_message(f).ok().as_ref() != Some(m) {
            round_trip_failures += 1;
        }
    }
    let bytes = CORPUS_KINDS
        .iter()
        .map(|&kind| {
            let sizes: Vec<usize> = msgs
                .iter()
                .zip(&frames)
                .filter(|(m, _)| m.kind().name() == kind)
                .map(|(_, f)| f.len())
                .collect();
            let mean = sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64;
            (kind, mean)
        })
        .collect();
    let (mut encode_ns, mut decode_ns) = (0.0, 0.0);
    if timed && !msgs.is_empty() {
        let reps = 20;
        let per = (msgs.len() * reps) as f64;
        let mut enc = Vec::with_capacity(ROUNDS);
        let mut dec = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let t = Instant::now();
            for _ in 0..reps {
                for m in &msgs {
                    black_box(encode_message(black_box(m)));
                }
            }
            enc.push(t.elapsed().as_nanos() as f64 / per);
            let t = Instant::now();
            for _ in 0..reps {
                for f in &frames {
                    let _ = black_box(decode_message(black_box(f)));
                }
            }
            dec.push(t.elapsed().as_nanos() as f64 / per);
        }
        encode_ns = median(enc);
        decode_ns = median(dec);
    }
    CodecLedger {
        messages: msgs.len(),
        encode_ns,
        decode_ns,
        bytes,
        round_trip_failures,
    }
}

/// Host ns per call of the routing and table layers, replayed on the
/// final tables of the sampled nodes.
#[derive(Debug, Clone, Copy)]
pub struct Replays {
    pub route_ns: f64,
    pub find_ns: f64,
    pub closest_peer_ns: f64,
    pub calls: usize,
}

pub fn replays(b: &Bench) -> Replays {
    let space = b.config.space;
    let dist = HierarchicalDistance::new(space, b.config.height);
    let mut rng = gen::Rng::stream(b.spec.nodes as u64, 3);
    let nodes = sample(b);
    // (node, lookup request, probe id) triples, fixed before timing.
    let mut cases = Vec::new();
    for node in &nodes {
        let known: Vec<NodeId> = node.tables().all_peers().iter().map(|e| e.id).collect();
        for j in 0..32 {
            let target = b.ids[rng.below(b.ids.len())];
            let probe = if j % 2 == 0 && !known.is_empty() {
                known[rng.below(known.len())]
            } else {
                NodeId(rng.next_u64() % (space.max_id().0 + 1))
            };
            let req = LookupRequest::new(
                RequestId(j),
                node.peer_info(),
                target,
                RoutingAlgorithm::Greedy,
            );
            cases.push((*node, req, probe));
        }
    }
    let calls = cases.len().max(1);
    let (mut route_ns, mut find_ns, mut closest_ns) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let mut reqs: Vec<LookupRequest> = cases.iter().map(|c| c.1.clone()).collect();
        let t = Instant::now();
        for ((node, _, _), req) in cases.iter().zip(reqs.iter_mut()) {
            let view = RouterView {
                tables: node.tables(),
                dist: &dist,
                self_id: node.id(),
                self_level: node.max_level(),
                self_addr: node.addr().expect("started node"),
                max_ttl: node.config().max_ttl,
            };
            black_box(route(&view, req));
        }
        route_ns.push(t.elapsed().as_nanos() as f64 / calls as f64);

        let t = Instant::now();
        for (node, _, probe) in &cases {
            black_box(node.tables().find(black_box(*probe)));
        }
        find_ns.push(t.elapsed().as_nanos() as f64 / calls as f64);

        let t = Instant::now();
        for (node, _, probe) in &cases {
            let addr = node.addr().expect("started node");
            black_box(node.tables().closest_peer(space, black_box(*probe), addr));
        }
        closest_ns.push(t.elapsed().as_nanos() as f64 / calls as f64);
    }
    Replays {
        route_ns: median(route_ns),
        find_ns: median(find_ns),
        closest_peer_ns: median(closest_ns),
        calls,
    }
}
