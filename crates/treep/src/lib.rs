//! # treep — a tree-based hierarchical P2P overlay
//!
//! This crate is a from-scratch implementation of **TreeP** (Hudzia,
//! Kechadi, Ottewill — *TreeP: A Tree Based P2P Network Architecture*,
//! CLUSTER 2005): a hierarchical peer-to-peer overlay built on a dynamic
//! partitioning (tessellation) of a 1-D identifier space, designed to
//! exploit the heterogeneity of the participating peers while keeping the
//! maintenance overhead low.
//!
//! ## Architecture in one paragraph
//!
//! Every peer owns a coordinate in a 1-D space and belongs to **level 0**.
//! Strong, stable peers are promoted (by countdown elections) to the upper
//! levels; each level forms a **bus** ordered by coordinate and each level-k
//! node is the parent of the level-(k-1) nodes falling in its tessellation —
//! the interval of the space it is responsible for. Each peer maintains six
//! small routing tables (level-0 neighbours, per-level bus neighbours,
//! children, parent, superiors/ancestors, all timestamped) refreshed lazily
//! by keep-alives. Lookups are routed with a hierarchical distance function
//! and resolved in `O(log n)` hops by one of three algorithms (greedy,
//! non-greedy, non-greedy with fall-back). A DHT / resource-discovery layer
//! sits on top of the same routing; with `replication_factor = k` every
//! stored value is kept on the responsible node plus its `k - 1` nearest
//! registry neighbours and continuously repaired by a digest-probed
//! anti-entropy engine ([`replication`]). The hierarchy doubles as a
//! dissemination and aggregation spine ([`multicast`]): a payload addressed
//! to a contiguous identifier range climbs to the initiator's root, walks
//! the top-level bus, and descends the own-children links — reaching every
//! live node in the range **exactly once** with zero duplicate messages —
//! while aggregation queries (node census, max free capacity, DHT key
//! digests) convergecast back up with per-hop combining, turning a range
//! query into one scoped multicast instead of `n` point lookups. On lossy
//! links, `max_retransmits > 0` arms a hop-by-hop reliability layer
//! (per-hop acks, exponential-backoff retransmission, dead-hop
//! re-routing) that holds full coverage through heavy per-hop loss while
//! keeping application-layer delivery exactly-once.
//!
//! ## Quick start
//!
//! ```
//! use simnet::{SimConfig, Simulation, SimTime};
//! use treep::{NodeCharacteristics, NodeId, RoutingAlgorithm, TreePConfig, TreePNode};
//!
//! // Two nodes that know each other at level 0.
//! let config = TreePConfig::default();
//! let mut sim: Simulation<TreePNode> = Simulation::new(SimConfig::default(), 7);
//! let a = sim.add_node(TreePNode::new(config, NodeId(1_000), NodeCharacteristics::default()));
//! let b = sim.add_node(TreePNode::new(config, NodeId(2_000_000), NodeCharacteristics::strong()));
//! sim.run_until(SimTime::from_millis(10));
//!
//! let b_info = sim.node(b).unwrap().peer_info();
//! sim.node_mut(a).unwrap().seed_level0_neighbor(b_info, SimTime::from_millis(10));
//!
//! // Node a resolves node b's identifier.
//! sim.invoke(a, |node, ctx| {
//!     node.start_lookup(NodeId(2_000_000), RoutingAlgorithm::Greedy, ctx);
//! });
//! sim.run_until(SimTime::from_secs(1));
//! let outcomes = sim.node_mut(a).unwrap().drain_lookup_outcomes();
//! assert!(outcomes[0].status.is_success());
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod characteristics;
pub mod config;
pub mod dht;
pub mod discovery;
pub mod distance;
pub mod election;
pub mod entry;
pub mod id;
pub mod lookup;
pub mod messages;
pub mod multicast;
pub mod node;
pub mod pubsub;
pub mod readpath;
pub mod replication;
pub mod routing;
pub mod stats;
pub mod tables;

pub use audit::{analytic_table_bound, audit, HierarchyAudit};
pub use characteristics::{CharacteristicsSummary, NodeCharacteristics};
pub use config::{ChildPolicy, TreePConfig};
pub use dht::{DhtOutcome, DhtStore};
pub use discovery::{attribute_key, attribute_query, ResourceDescriptor};
pub use distance::HierarchicalDistance;
pub use entry::{PeerInfo, RoutingEntry};
pub use id::{hash_key, IdAssigner, IdAssignment, IdSpace, NodeId};
pub use lookup::{LookupOutcome, LookupRequest, LookupStatus, RequestId};
pub use messages::{MessageKind, RoutingUpdate, TreePMessage};
pub use multicast::{
    AggregateOutcome, AggregatePartial, AggregateQuery, KeyRange, MulticastDelivery,
    MulticastPayload, MulticastPhase,
};
pub use node::TreePNode;
pub use pubsub::{
    decode_subscriber_set, encode_subscriber_set, topic_key, PendingSubscribe, SubscribeOutcome,
    TopicDelivery, TopicFilter,
};
pub use readpath::{
    CacheFill, HotKeyCache, PendingRead, ReadOutcome, ReadSource, StampedValue, VersionStamp,
};
pub use replication::{audit_replication, ReplicaEntry, ReplicationAudit};
pub use routing::{RouteDecision, RouterView, RoutingAlgorithm};
pub use stats::{KindCounters, NodeStats};
pub use tables::{PeerEntry, RemovalReport, RoutingTables, TableSizes};

/// The transport address carried in [`PeerInfo`] and in protocol messages.
pub use simnet::NodeAddr;
