//! Literal event-digest goldens for both simulation engines.
//!
//! Every constant below was captured once and is pinned: a change to the
//! engine core (dispatch, action application, the sharded barrier loop)
//! must replay each scenario event for event. The FNV digest folds every
//! dispatched event's time, sequence number, kind and node, so any change
//! to dispatch order — or to any RNG draw that feeds a latency, loss or
//! protocol decision — moves it. `SimMetrics` is pinned alongside, so a
//! drift shows which counter moved.
//!
//! Scenarios:
//! * a TreeP overlay (n = 200, k = 3 replication, seeded lookups) on the
//!   single-threaded [`Simulation`];
//! * the `ScaleProto` keep-alive workload on [`Simulation`];
//! * the same workload on [`ShardedSimulation`] at 1, 2 and 4 shards.

use experiments::scale::ScaleProto;
use simnet::{
    LatencyModel, LinkModel, LossModel, ShardedSimulation, SimConfig, SimDuration, SimMetrics,
    SimRng, SimTime, Simulation,
};
use treep::{RoutingAlgorithm, TreePConfig};
use workloads::TopologyBuilder;

const SEED: u64 = 7;

/// `SimMetrics` from its ten counters in declaration order.
fn metrics(c: [u64; 10]) -> SimMetrics {
    SimMetrics {
        messages_sent: c[0],
        messages_delivered: c[1],
        messages_lost: c[2],
        messages_to_dead: c[3],
        timers_fired: c[4],
        timers_dropped: c[5],
        nodes_started: c[6],
        nodes_failed: c[7],
        nodes_stopped: c[8],
        events_dispatched: c[9],
    }
}

fn assert_pinned(name: &str, got: (u64, SimMetrics), digest: u64, counters: [u64; 10]) {
    println!("{name}: digest {:#018x}, metrics {:?}", got.0, got.1);
    assert_eq!(got.0, digest, "{name}: event digest moved");
    assert_eq!(got.1, metrics(counters), "{name}: metrics moved");
}

/// TreeP at n = 200 with k = 3 replication: settle, then one seeded lookup
/// every 250 ms for 20 virtual seconds, then a 2 s drain. Ten nodes crash
/// and one stops gracefully half-way, so the fail and stop paths (and
/// messages and timers addressed to the dead) are pinned too.
fn run_treep() -> (u64, SimMetrics) {
    let config = TreePConfig {
        replication_factor: 3,
        ..TreePConfig::paper_case_fixed()
    };
    let mut sim = Simulation::new(SimConfig::default(), SEED);
    sim.enable_digest();
    let topo = TopologyBuilder::new(200)
        .with_config(config)
        .build(&mut sim);
    sim.run_for(SimDuration::from_secs(3));
    let pairs = topo.pairs();
    let mut picks = SimRng::seed_from(SEED ^ 0x6c6f_6f6b);
    for round in 0..80 {
        if round == 40 {
            for &(addr, _) in pairs.iter().skip(5).step_by(19).take(10) {
                sim.fail_node(addr);
            }
            sim.stop_node(pairs[1].0);
        }
        let origin = pairs[picks.gen_range_usize(0..pairs.len())].0;
        let target = pairs[picks.gen_range_usize(0..pairs.len())].1;
        sim.invoke(origin, |node, ctx| {
            node.start_lookup(target, RoutingAlgorithm::Greedy, ctx)
        });
        sim.run_for(SimDuration::from_millis(250));
    }
    sim.run_for(SimDuration::from_secs(2));
    (sim.event_digest().unwrap(), sim.metrics())
}

const SCALE_N: usize = 1_000;

fn scale_config() -> SimConfig {
    SimConfig {
        link: LinkModel {
            latency: LatencyModel::Uniform {
                min: SimDuration::from_millis(5),
                max: SimDuration::from_millis(50),
            },
            loss: LossModel::Bernoulli { p: 0.01 },
        },
        ..SimConfig::default()
    }
}

fn scale_deadline() -> SimTime {
    SimTime::from_millis(3_000)
}

/// The keep-alive workload on the wheel engine; one group parent crashes
/// at 1.5 s so its children's keep-alives go to the dead.
fn run_scale_wheel() -> (u64, SimMetrics) {
    let mut sim = Simulation::new(scale_config(), SEED);
    sim.enable_digest();
    for _ in 0..SCALE_N {
        sim.add_node(ScaleProto::default());
    }
    sim.fail_node_at(simnet::NodeAddr(257), SimTime::from_millis(1_500));
    sim.run_until(scale_deadline());
    (sim.event_digest().unwrap(), sim.metrics())
}

fn run_scale_sharded(shards: usize) -> (u64, SimMetrics) {
    let mut sim = ShardedSimulation::new(scale_config(), SEED, SCALE_N, shards);
    sim.enable_digest();
    for _ in 0..SCALE_N {
        sim.add_node(ScaleProto::default());
    }
    sim.run_until(scale_deadline());
    (sim.event_digest().unwrap(), sim.metrics())
}

#[test]
fn treep_lookup_run_on_simulation_is_pinned() {
    assert_pinned(
        "treep n=200 k=3",
        run_treep(),
        0x80ad_1535_6b7d_f4d2,
        [347_177, 345_827, 0, 962, 47_413, 238, 200, 10, 1, 394_651],
    );
}

#[test]
fn scale_proto_on_simulation_is_pinned() {
    assert_pinned(
        "scale wheel",
        run_scale_wheel(),
        0xb872_92cf_1040_b532,
        [5_916, 5_799, 48, 6, 2_998, 1, 1_000, 1, 0, 9_805],
    );
}

#[test]
fn scale_proto_on_one_shard_is_pinned() {
    assert_pinned(
        "scale 1 shard",
        run_scale_sharded(1),
        0xc675_c80f_25a3_d3f2,
        [5_933, 5_824, 48, 0, 3_000, 0, 1_000, 0, 0, 9_824],
    );
}

#[test]
fn scale_proto_on_two_shards_is_pinned() {
    assert_pinned(
        "scale 2 shards",
        run_scale_sharded(2),
        0xff88_3a82_df0a_6907,
        [5_925, 5_804, 58, 0, 3_000, 0, 1_000, 0, 0, 9_804],
    );
}

#[test]
fn scale_proto_on_four_shards_is_pinned() {
    assert_pinned(
        "scale 4 shards",
        run_scale_sharded(4),
        0xb19b_98cd_59cb_9d5e,
        [5_937, 5_819, 58, 0, 3_000, 0, 1_000, 0, 0, 9_819],
    );
}
