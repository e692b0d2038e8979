//! Protocol messages exchanged between TreeP peers.
//!
//! TreeP is a UDP-style overlay: every interaction is a single datagram, no
//! connection state is assumed by the wire protocol, and loss is tolerated
//! (missed keep-alives simply age the corresponding routing-table entries).
//!
//! Every message is declared exactly once, as a row of the
//! [`treep_messages!`](crate::treep_messages) table. This module generates
//! [`TreePMessage`] and [`MessageKind`] from it; the `treep-net` wire codec
//! generates its encoder and decoder from the same rows.

use crate::entry::PeerInfo;
use serde::{Deserialize, Serialize};
use simnet::NodeAddr;

/// A piece of routing information piggy-backed on maintenance traffic
/// (Section III.d: after the initial synchronisation peers "only exchange
/// information concerning the out of dated data").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RoutingUpdate {
    /// `peer` is a member of the level-`level` bus.
    LevelMember {
        /// Bus level (`> 0`).
        level: u32,
        /// The member.
        peer: PeerInfo,
    },
    /// `peer` is the sender's immediate parent.
    ParentOf {
        /// The parent.
        peer: PeerInfo,
    },
    /// `peer` is one of the sender's children.
    ChildOf {
        /// The child.
        peer: PeerInfo,
    },
    /// `peer` is an ancestor / superior the receiver should replicate
    /// ("Superior Node List").
    Superior {
        /// The superior node.
        peer: PeerInfo,
    },
    /// `peer` is an ordinary level-0 contact.
    Contact {
        /// The contact.
        peer: PeerInfo,
    },
}

impl RoutingUpdate {
    /// The peer carried by the update.
    pub fn peer(&self) -> PeerInfo {
        match *self {
            RoutingUpdate::LevelMember { peer, .. }
            | RoutingUpdate::ParentOf { peer }
            | RoutingUpdate::ChildOf { peer }
            | RoutingUpdate::Superior { peer }
            | RoutingUpdate::Contact { peer } => peer,
        }
    }
}

/// The message table: one row per [`TreePMessage`] variant, in
/// [`MessageKind`] index order.
///
/// `treep_messages!(callback)` expands to `callback! { rows }`, so each
/// consumer derives its own view of the protocol from this one list. A row
/// is the variant's doc attributes, its name and its fields in wire order
/// (a braced list of `name: Type,` fields, or `(name: Type)` for a tuple
/// variant), then
/// `= tag, "snake_name", maintenance = bool;`:
///
/// - `tag` is the variant's wire tag byte, fixed once assigned. It need not
///   follow row order (`ReplicaPut` is row 17 but tag 20).
/// - `snake_name` is [`MessageKind::name`], the key used in reports.
/// - `maintenance` is [`MessageKind::is_maintenance`].
///
/// Append new messages at the end with the next free tag; moving a row
/// renumbers every per-kind counter.
#[macro_export]
macro_rules! treep_messages {
    ($callback:ident) => {
        $callback! {
            // ---- membership -------------------------------------------------
            /// A joining node contacts a peer it learned out of band (bootstrap).
            JoinRequest {
                /// The joining node.
                joiner: $crate::PeerInfo,
            } = 1, "join_request", maintenance = true;
            /// Response to a join: level-0 contacts near the joiner and, when the
            /// responder (or its hierarchy) covers the joiner, a parent to report to.
            JoinAck {
                /// The responding node.
                responder: $crate::PeerInfo,
                /// Suggested level-0 neighbours for the joiner.
                contacts: Vec<$crate::PeerInfo>,
                /// A parent for the joiner, when known.
                parent: Option<$crate::PeerInfo>,
            } = 2, "join_ack", maintenance = true;

            // ---- maintenance ------------------------------------------------
            /// Periodic keep-alive between direct neighbours (level 0 and level-i
            /// buses), carrying piggy-backed routing updates.
            KeepAlive {
                /// The sender.
                sender: $crate::PeerInfo,
                /// Out-of-date information being refreshed.
                updates: Vec<$crate::RoutingUpdate>,
            } = 3, "keep_alive", maintenance = true;
            /// Reply to a keep-alive with the receiver's own updates.
            KeepAliveAck {
                /// The sender of the ack.
                sender: $crate::PeerInfo,
                /// Out-of-date information being refreshed.
                updates: Vec<$crate::RoutingUpdate>,
            } = 4, "keep_alive_ack", maintenance = true;
            /// Periodic report from a child to its parent ("if they do not report
            /// regularly they will simply be deleted from its routing table").
            ChildReport {
                /// The reporting child.
                child: $crate::PeerInfo,
                /// Exact extent of the child's subtree in the identifier space (its
                /// own coordinate joined with its children's reported extents). The
                /// parent records it and uses it to prune multicast fan-outs
                /// exactly instead of by the tessellation-radius estimate.
                span: $crate::KeyRange,
            } = 5, "child_report", maintenance = true;
            /// Parent's answer to a child report: refreshes the parent entry and
            /// replicates the ancestor chain + the parent's bus neighbours into the
            /// child's superior list.
            ChildReportAck {
                /// The parent.
                parent: $crate::PeerInfo,
                /// Superiors the child should replicate.
                superiors: Vec<$crate::PeerInfo>,
            } = 6, "child_report_ack", maintenance = true;

            // ---- hierarchy formation ----------------------------------------
            /// A node that reached degree 2 without a parent calls an election among
            /// its neighbours (Section III.b).
            ElectionCall {
                /// Level being filled (the new parent will sit at this level).
                level: u32,
                /// The calling node.
                caller: $crate::PeerInfo,
            } = 7, "election_call", maintenance = true;
            /// The election winner announces itself as the new parent at `level`.
            ParentAnnounce {
                /// Level of the new parent.
                level: u32,
                /// The new parent.
                parent: $crate::PeerInfo,
            } = 8, "parent_announce", maintenance = true;
            /// A node accepts `parent` and registers as its child.
            ParentAccept {
                /// The accepting child.
                child: $crate::PeerInfo,
            } = 9, "parent_accept", maintenance = true;
            /// A parent with fewer than two children demotes itself back to level 0
            /// and tells its children / neighbours to drop it.
            Demotion {
                /// The demoting node.
                node: $crate::PeerInfo,
                /// The level it is leaving.
                from_level: u32,
            } = 10, "demotion", maintenance = true;

            // ---- lookup -----------------------------------------------------
            /// A routed lookup request.
            Lookup(request: $crate::LookupRequest) = 11, "lookup", maintenance = false;
            /// Successful resolution sent straight back to the origin.
            LookupFound {
                /// Request being answered.
                request_id: $crate::RequestId,
                /// The resolved target.
                target: $crate::NodeId,
                /// Contact information of the resolved node.
                result: $crate::PeerInfo,
                /// Number of overlay hops the request travelled.
                hops: u32,
                /// Algorithm that carried the request.
                algorithm: $crate::RoutingAlgorithm,
            } = 12, "lookup_found", maintenance = false;
            /// Negative answer sent back to the origin (dead end).
            LookupNotFound {
                /// Request being answered.
                request_id: $crate::RequestId,
                /// The unresolved target.
                target: $crate::NodeId,
                /// Hops travelled before giving up.
                hops: u32,
                /// Algorithm that carried the request.
                algorithm: $crate::RoutingAlgorithm,
            } = 13, "lookup_not_found", maintenance = false;

            // ---- DHT / resource discovery -------------------------------------------
            /// Store `value` at the node responsible for `key` (routed greedily
            /// toward the key's coordinate).
            DhtPut {
                /// Request identifier (for the origin's bookkeeping).
                request_id: $crate::RequestId,
                /// Origin of the request.
                origin: $crate::PeerInfo,
                /// Key coordinate.
                key: $crate::NodeId,
                /// Opaque value.
                value: Vec<u8>,
                /// Remaining TTL.
                ttl: u32,
            } = 14, "dht_put", maintenance = false;
            /// Acknowledgement of a [`TreePMessage::DhtPut`], sent by the node that
            /// stored the value.
            DhtPutAck {
                /// Request identifier.
                request_id: $crate::RequestId,
                /// Key coordinate.
                key: $crate::NodeId,
                /// The node that stored the value.
                stored_at: $crate::PeerInfo,
            } = 15, "dht_put_ack", maintenance = false;
            /// Retrieve the value stored under `key`.
            DhtGet {
                /// Request identifier.
                request_id: $crate::RequestId,
                /// Origin of the request.
                origin: $crate::PeerInfo,
                /// Key coordinate.
                key: $crate::NodeId,
                /// Remaining TTL.
                ttl: u32,
            } = 16, "dht_get", maintenance = false;
            /// Answer to a [`TreePMessage::DhtGet`].
            DhtGetReply {
                /// Request identifier.
                request_id: $crate::RequestId,
                /// Key coordinate.
                key: $crate::NodeId,
                /// The stored value, if the responsible node had one.
                value: Option<Vec<u8>>,
                /// The node that answered.
                responder: $crate::PeerInfo,
            } = 17, "dht_get_reply", maintenance = false;

            // ---- replication ------------------------------------------------
            /// Push one replicated `(key, value)` copy to a member of the key's
            /// replica set (the k nearest registry neighbours of the key
            /// coordinate). Sent by the responsible node when a `DhtPut` lands, by
            /// the anti-entropy round when a partner's `want` list requests it, and
            /// as the handoff before a node drops a key it is no longer responsible
            /// for. Fire-and-forget: a lost copy is repaired by the next sync round.
            ReplicaPut {
                /// The pushing node.
                sender: $crate::PeerInfo,
                /// The key coordinate.
                key: $crate::NodeId,
                /// The replicated value.
                value: Vec<u8>,
            } = 20, "replica_put", maintenance = true;
            /// Pairwise anti-entropy: "these are the keys I hold in `range` — send
            /// me what I lack, ask for what you lack."
            ReplicaSyncRequest {
                /// The syncing node (the reply goes back to it).
                sender: $crate::PeerInfo,
                /// The key-space interval being reconciled (the sender's replica
                /// range).
                range: $crate::KeyRange,
                /// Every key the sender stores inside `range`, in key order.
                keys: Vec<$crate::NodeId>,
            } = 21, "replica_sync_request", maintenance = true;
            /// Answer to a [`TreePMessage::ReplicaSyncRequest`]: the values the
            /// requester was missing, plus the keys the responder is missing (which
            /// the requester answers with [`TreePMessage::ReplicaPut`]s).
            ReplicaSyncReply {
                /// The responding node.
                sender: $crate::PeerInfo,
                /// The reconciled interval (echoed from the request).
                range: $crate::KeyRange,
                /// Values the responder holds in `range` that the requester lacked.
                entries: Vec<$crate::ReplicaEntry>,
                /// Keys the requester listed that the responder lacks.
                want: Vec<$crate::NodeId>,
            } = 22, "replica_sync_reply", maintenance = true;

            // ---- multicast / aggregation ------------------------------------
            /// A scoped multicast travelling through the hierarchy: up the
            /// initiator's ancestor chain, along the top-level bus, and down the
            /// own-children links of every visited node. Range delegation is
            /// structural (one parent per node, directional bus walk), so every live
            /// node in `range` receives the payload at most once.
            MulticastDown {
                /// The initiating node (aggregation answers return straight to it).
                origin: $crate::PeerInfo,
                /// Identifier of the multicast at its origin.
                request_id: $crate::RequestId,
                /// The contiguous identifier range being addressed.
                range: $crate::KeyRange,
                /// Payload to deliver, or aggregation query to fold.
                payload: $crate::MulticastPayload,
                /// Remaining hop budget; the message is discarded at zero.
                budget: u32,
                /// Hops travelled so far.
                hops: u32,
                /// Current phase of the dissemination.
                phase: $crate::MulticastPhase,
                /// Bus level of the walk (meaningful in the bus phases; the walk
                /// visits every node whose maximum level is at least this).
                bus_level: u32,
            } = 18, "multicast_down", maintenance = false;
            /// Convergecast step of an aggregation: a node (or whole delegated
            /// branch) reports its folded partial to the node that delegated it —
            /// or, from the descent root, the final fold to the origin.
            AggregateUp {
                /// The initiating node (scopes `request_id`).
                origin: $crate::PeerInfo,
                /// Identifier of the aggregation at its origin.
                request_id: $crate::RequestId,
                /// The query being folded.
                query: $crate::AggregateQuery,
                /// Partial result folded over the reporting branch.
                partial: $crate::AggregatePartial,
                /// True when the reporting branch lost at least one delegated
                /// sub-branch (its relay hold timer fired): the partial is a lower
                /// bound, not an authoritative answer. Propagated by OR on the way
                /// up.
                truncated: bool,
                /// True only on the descent root's final fold to the origin. The
                /// discriminant matters when the origin is itself a relay of its own
                /// aggregation: a branch partial folds into the relay, the final
                /// answer resolves the pending request — without the flag the two
                /// are indistinguishable.
                final_answer: bool,
            } = 19, "aggregate_up", maintenance = false;
            /// Per-hop acknowledgement of a received
            /// [`TreePMessage::MulticastDown`], sent back to the forwarding peer the
            /// moment the message arrives (before any duplicate suppression, so a
            /// retransmitted copy is re-acked and the sender's retransmission state
            /// drains). Only exchanged when the reliability layer is enabled
            /// (`max_retransmits > 0` in the configuration); the `(origin,
            /// request_id)` pair identifies the pending transmission at the sender,
            /// which never sends the same multicast twice to the same peer.
            MulticastAck {
                /// Address of the multicast's initiator (scopes `request_id`).
                origin: $crate::NodeAddr,
                /// Identifier of the multicast at its origin.
                request_id: $crate::RequestId,
            } = 23, "multicast_ack", maintenance = false;
            /// Per-hop acknowledgement of a received
            /// [`TreePMessage::AggregateUp`], the convergecast counterpart of
            /// [`TreePMessage::MulticastAck`]. Only exchanged when the reliability
            /// layer is enabled.
            AggregateAck {
                /// Address of the aggregation's initiator (scopes `request_id`).
                origin: $crate::NodeAddr,
                /// Identifier of the aggregation at its origin.
                request_id: $crate::RequestId,
            } = 24, "aggregate_ack", maintenance = false;

            // ---- read path --------------------------------------------------
            /// A versioned get, routed greedily toward the key's coordinate but
            /// servable by any node on the route holding a satisfying copy (see
            /// [`crate::readpath`]).
            GetVersioned {
                /// Request identifier (scoped by `origin` — identifiers are
                /// per-node counters).
                request_id: $crate::RequestId,
                /// Origin of the request.
                origin: $crate::PeerInfo,
                /// Key coordinate.
                key: $crate::NodeId,
                /// Remaining TTL.
                ttl: u32,
                /// The highest stamp the client has already observed for the key:
                /// replica / cache copies with a staler stamp are treated as misses
                /// (monotonic reads per client). `None` accepts any copy.
                min_stamp: Option<$crate::VersionStamp>,
                /// Addresses of the caching hops the request traversed, origin
                /// first. The reply walks this path backwards, filling each hop's
                /// hot-key cache; hops with the cache disabled never append
                /// themselves, so a cacheless deployment gets a direct reply.
                path: Vec<$crate::NodeAddr>,
            } = 25, "get_versioned", maintenance = false;
            /// Answer to a [`TreePMessage::GetVersioned`], walking the recorded
            /// caching path backwards toward the origin.
            GetVersionedReply {
                /// Request identifier.
                request_id: $crate::RequestId,
                /// Address of the request's origin. Required on the walk-back:
                /// request identifiers are per-node counters, so a relay must not
                /// mistake a passing reply for one of its own requests.
                origin: $crate::NodeAddr,
                /// Key coordinate.
                key: $crate::NodeId,
                /// The stamped value, if any node on the route had a satisfying
                /// copy.
                value: Option<$crate::StampedValue>,
                /// Which serving tier answered.
                source: $crate::ReadSource,
                /// Overlay hops the request travelled before being served.
                hops: u32,
                /// The node that answered.
                responder: $crate::PeerInfo,
                /// Remaining walk-back path; each relay pops itself off the tail.
                path: Vec<$crate::NodeAddr>,
            } = 26, "get_versioned_reply", maintenance = false;
            /// A versioned put: store `(stamp, value)` at the node responsible for
            /// `key`, last-write-wins against whatever stamp it already holds.
            PutVersioned {
                /// Request identifier.
                request_id: $crate::RequestId,
                /// Origin of the request.
                origin: $crate::PeerInfo,
                /// Key coordinate.
                key: $crate::NodeId,
                /// The write stamp (version + writer identifier).
                stamp: $crate::VersionStamp,
                /// Opaque value.
                value: Vec<u8>,
                /// Remaining TTL.
                ttl: u32,
            } = 27, "put_versioned", maintenance = false;
            /// Acknowledgement of a [`TreePMessage::PutVersioned`], sent by the
            /// responsible node whether or not the write won its last-write-wins
            /// comparison (a losing write is still durably resolved).
            PutVersionedAck {
                /// Request identifier.
                request_id: $crate::RequestId,
                /// Key coordinate.
                key: $crate::NodeId,
                /// The stamp the put carried (echoed for the origin's bookkeeping).
                stamp: $crate::VersionStamp,
                /// The responsible node.
                stored_at: $crate::PeerInfo,
            } = 28, "put_versioned_ack", maintenance = false;
            /// Push one fresh stamped copy to a node holding (or about to hold) a
            /// stale or missing one: sent by the responsible node to repair a
            /// lagging server after a [`TreePMessage::ReadVerify`] mismatch, and as
            /// the stamped replica placement of versioned puts. Receivers apply it
            /// last-write-wins to their store and refresh any matching hot-key
            /// cache line. Fire-and-forget.
            ReadRepair {
                /// The pushing node.
                sender: $crate::PeerInfo,
                /// The key coordinate.
                key: $crate::NodeId,
                /// The stamp of the pushed value.
                stamp: $crate::VersionStamp,
                /// The fresh value.
                value: Vec<u8>,
            } = 29, "read_repair", maintenance = true;
            /// Probe sent onward to the responsible node after a replica served a
            /// versioned get (`read_repair` enabled): "I answered with this stamp —
            /// was it fresh?" A responsible node holding a strictly fresher copy
            /// answers the server (and the key's replica set) with
            /// [`TreePMessage::ReadRepair`]; one holding a staler copy marks its
            /// own repair state dirty for the next anti-entropy round.
            ReadVerify {
                /// The node that served the get (the repair target).
                server: $crate::PeerInfo,
                /// The key coordinate.
                key: $crate::NodeId,
                /// The stamp the server answered with.
                served_stamp: $crate::VersionStamp,
                /// Remaining TTL of the probe's descent.
                ttl: u32,
            } = 30, "read_verify", maintenance = false;

            // ---- pub/sub ----------------------------------------------------
            /// Register `origin` as a subscriber of `topic`: routed greedily toward
            /// the topic coordinate; the responsible node adds the origin to the
            /// topic's replicated subscriber directory (see [`crate::pubsub`]).
            /// The origin's *delivery* state is local and immediate — this message
            /// only maintains the directory.
            Subscribe {
                /// Request identifier (for the origin's bookkeeping).
                request_id: $crate::RequestId,
                /// The subscribing node.
                origin: $crate::PeerInfo,
                /// The topic coordinate ([`crate::pubsub::topic_key`]).
                topic: $crate::NodeId,
                /// Remaining TTL of the greedy route.
                ttl: u32,
            } = 31, "subscribe", maintenance = false;
            /// Acknowledgement of a [`TreePMessage::Subscribe`] or
            /// [`TreePMessage::Unsubscribe`], sent by the node holding the topic's
            /// directory.
            SubscribeAck {
                /// Request identifier.
                request_id: $crate::RequestId,
                /// The topic coordinate.
                topic: $crate::NodeId,
                /// Directory size after the update.
                subscribers: u32,
                /// The node holding the directory.
                stored_at: $crate::PeerInfo,
            } = 32, "subscribe_ack", maintenance = false;
            /// Remove `origin` from `topic`'s subscriber directory; the mirror of
            /// [`TreePMessage::Subscribe`].
            Unsubscribe {
                /// Request identifier.
                request_id: $crate::RequestId,
                /// The unsubscribing node.
                origin: $crate::PeerInfo,
                /// The topic coordinate.
                topic: $crate::NodeId,
                /// Remaining TTL of the greedy route.
                ttl: u32,
            } = 33, "unsubscribe", maintenance = false;
            /// Topic-subscription summary of a child's whole subtree, reported to
            /// the parent next to the [`TreePMessage::ChildReport`] span — both
            /// periodically and immediately when the summary changes. The parent
            /// records it and prunes topic-publish fan-outs into branches whose
            /// summary provably excludes the topic.
            FilterReport {
                /// The reporting child.
                child: $crate::PeerInfo,
                /// Topics present in the child's subtree (exact unless `overflow`),
                /// in identifier order.
                topics: Vec<$crate::NodeId>,
                /// True when the subtree holds more topics than the summary bound:
                /// the filter excludes nothing and the branch is never pruned.
                overflow: bool,
            } = 34, "filter_report", maintenance = true;
        }
    };
}

/// Generates the protocol enum, its kind index and the kind's metadata from
/// the table rows.
macro_rules! message_types {
    ($(
        $(#[$doc:meta])*
        $name:ident
        $(($tuple_field:ident: $tuple_ty:ty))?
        $({ $($(#[$field_doc:meta])* $field:ident: $field_ty:ty,)* })?
        = $tag:literal, $snake:literal, maintenance = $maintenance:literal;
    )*) => {
        /// The TreeP wire protocol.
        #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
        pub enum TreePMessage {
            $(
                $(#[$doc])*
                $name
                $(($tuple_ty))?
                $({ $($(#[$field_doc])* $field: $field_ty,)* })?,
            )*
        }

        impl TreePMessage {
            /// The message's kind index (used by per-node statistics and
            /// tracing; `kind().name()` gives the report name).
            pub fn kind(&self) -> MessageKind {
                match self {
                    $(TreePMessage::$name { .. } => MessageKind::$name,)*
                }
            }
        }

        /// Static index of every [`TreePMessage`] variant.
        ///
        /// Per-node statistics key send/receive counters by this enum, a
        /// dense array index on the hot path. [`MessageKind::name`] (and
        /// `Display`) give the snake_case form used in reports.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u8)]
        #[allow(missing_docs)]
        pub enum MessageKind {
            $($name,)*
        }

        impl MessageKind {
            /// Number of message kinds (the length of a per-kind counter array).
            pub const COUNT: usize = [$(MessageKind::$name),*].len();

            /// Every kind, in index order.
            pub const ALL: [MessageKind; MessageKind::COUNT] = [$(MessageKind::$name),*];

            /// Short, stable snake_case name (the report/display form).
            pub fn name(self) -> &'static str {
                match self {
                    $(MessageKind::$name => $snake,)*
                }
            }

            /// True for kinds that belong to overlay maintenance rather than
            /// user traffic; the maintenance-overhead ablation counts these.
            pub fn is_maintenance(self) -> bool {
                match self {
                    $(MessageKind::$name => $maintenance,)*
                }
            }
        }
    };
}

crate::treep_messages!(message_types);

impl MessageKind {
    /// Dense array index of this kind.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for MessageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl TreePMessage {
    /// True for messages that belong to overlay maintenance rather than user
    /// traffic; the maintenance-overhead ablation counts these.
    pub fn is_maintenance(&self) -> bool {
        self.kind().is_maintenance()
    }

    /// The address the answer to this message should be sent to, when the
    /// message carries an explicit origin.
    pub fn origin_addr(&self) -> Option<NodeAddr> {
        match self {
            TreePMessage::Lookup(req) => Some(req.origin.addr),
            TreePMessage::DhtPut { origin, .. }
            | TreePMessage::DhtGet { origin, .. }
            | TreePMessage::MulticastDown { origin, .. }
            | TreePMessage::AggregateUp { origin, .. }
            | TreePMessage::GetVersioned { origin, .. }
            | TreePMessage::PutVersioned { origin, .. }
            | TreePMessage::Subscribe { origin, .. }
            | TreePMessage::Unsubscribe { origin, .. } => Some(origin.addr),
            TreePMessage::GetVersionedReply { origin, .. } => Some(*origin),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characteristics::{CharacteristicsSummary, NodeCharacteristics};
    use crate::config::ChildPolicy;
    use crate::id::NodeId;
    use crate::lookup::RequestId;
    use crate::multicast::KeyRange;
    use crate::readpath::{ReadSource, StampedValue, VersionStamp};
    use crate::routing::RoutingAlgorithm;

    fn peer(id: u64) -> PeerInfo {
        PeerInfo {
            id: NodeId(id),
            addr: NodeAddr(id),
            max_level: 0,
            summary: CharacteristicsSummary::of(
                &NodeCharacteristics::default(),
                ChildPolicy::Fixed(4),
            ),
        }
    }

    #[test]
    fn update_peer_accessor() {
        let p = peer(5);
        assert_eq!(
            RoutingUpdate::LevelMember { level: 2, peer: p }.peer().id,
            NodeId(5)
        );
        assert_eq!(RoutingUpdate::ParentOf { peer: p }.peer().addr, NodeAddr(5));
        assert_eq!(RoutingUpdate::Contact { peer: p }.peer().id, NodeId(5));
    }

    #[test]
    fn maintenance_classification() {
        let ka = TreePMessage::KeepAlive {
            sender: peer(1),
            updates: vec![],
        };
        assert!(ka.is_maintenance());
        assert_eq!(ka.kind().name(), "keep_alive");
        let nf = TreePMessage::LookupNotFound {
            request_id: RequestId(1),
            target: NodeId(5),
            hops: 3,
            algorithm: RoutingAlgorithm::Greedy,
        };
        assert!(!nf.is_maintenance());
        assert_eq!(nf.kind().name(), "lookup_not_found");
    }

    #[test]
    fn multicast_messages_are_user_traffic() {
        use crate::multicast::{
            AggregatePartial, AggregateQuery, KeyRange, MulticastPayload, MulticastPhase,
        };
        let down = TreePMessage::MulticastDown {
            origin: peer(1),
            request_id: RequestId(7),
            range: KeyRange::new(NodeId(10), NodeId(90)),
            payload: MulticastPayload::Data(vec![1, 2, 3]),
            budget: 32,
            hops: 0,
            phase: MulticastPhase::Up,
            bus_level: 0,
        };
        assert_eq!(down.kind().name(), "multicast_down");
        assert!(!down.is_maintenance());
        assert_eq!(down.origin_addr(), Some(NodeAddr(1)));

        let up = TreePMessage::AggregateUp {
            origin: peer(2),
            request_id: RequestId(8),
            query: AggregateQuery::CountNodes,
            partial: AggregatePartial::Count(5),
            truncated: false,
            final_answer: true,
        };
        assert_eq!(up.kind().name(), "aggregate_up");
        assert!(!up.is_maintenance());
        assert_eq!(up.origin_addr(), Some(NodeAddr(2)));
    }

    #[test]
    fn acks_are_user_traffic_without_peer_origin() {
        let mack = TreePMessage::MulticastAck {
            origin: NodeAddr(3),
            request_id: RequestId(9),
        };
        assert_eq!(mack.kind().name(), "multicast_ack");
        assert!(
            !mack.is_maintenance(),
            "ack overhead is accounted to the multicast, not to maintenance"
        );
        assert_eq!(mack.origin_addr(), None, "acks are point-to-point");
        let aack = TreePMessage::AggregateAck {
            origin: NodeAddr(4),
            request_id: RequestId(10),
        };
        assert_eq!(aack.kind().name(), "aggregate_ack");
        assert!(!aack.is_maintenance());
        assert_eq!(aack.origin_addr(), None);
    }

    #[test]
    fn replica_messages_are_maintenance() {
        use crate::replication::ReplicaEntry;
        let put = TreePMessage::ReplicaPut {
            sender: peer(3),
            key: NodeId(9),
            value: vec![1, 2],
        };
        assert_eq!(put.kind().name(), "replica_put");
        assert!(put.is_maintenance(), "repair traffic is maintenance");
        let req = TreePMessage::ReplicaSyncRequest {
            sender: peer(3),
            range: KeyRange::new(NodeId(0), NodeId(10)),
            keys: vec![NodeId(9)],
        };
        assert_eq!(req.kind().name(), "replica_sync_request");
        assert!(req.is_maintenance());
        let reply = TreePMessage::ReplicaSyncReply {
            sender: peer(4),
            range: KeyRange::new(NodeId(0), NodeId(10)),
            entries: vec![ReplicaEntry {
                key: NodeId(5),
                value: vec![7],
            }],
            want: vec![NodeId(9)],
        };
        assert_eq!(reply.kind().name(), "replica_sync_reply");
        assert!(reply.is_maintenance());
        assert_eq!(reply.origin_addr(), None);
    }

    #[test]
    fn read_path_messages_classify_correctly() {
        let stamp = VersionStamp {
            version: 3,
            origin: NodeId(7),
        };
        let get = TreePMessage::GetVersioned {
            request_id: RequestId(1),
            origin: peer(9),
            key: NodeId(5),
            ttl: 0,
            min_stamp: Some(stamp),
            path: vec![NodeAddr(9)],
        };
        assert_eq!(get.kind().name(), "get_versioned");
        assert!(!get.is_maintenance(), "versioned gets are user traffic");
        assert_eq!(get.origin_addr(), Some(NodeAddr(9)));

        let reply = TreePMessage::GetVersionedReply {
            request_id: RequestId(1),
            origin: NodeAddr(9),
            key: NodeId(5),
            value: Some(StampedValue {
                stamp,
                value: vec![1],
            }),
            source: ReadSource::Replica,
            hops: 2,
            responder: peer(4),
            path: vec![NodeAddr(9)],
        };
        assert_eq!(reply.kind().name(), "get_versioned_reply");
        assert!(!reply.is_maintenance());
        assert_eq!(reply.origin_addr(), Some(NodeAddr(9)));

        let put = TreePMessage::PutVersioned {
            request_id: RequestId(2),
            origin: peer(9),
            key: NodeId(5),
            stamp,
            value: vec![2],
            ttl: 0,
        };
        assert_eq!(put.kind().name(), "put_versioned");
        assert!(!put.is_maintenance());
        assert_eq!(put.origin_addr(), Some(NodeAddr(9)));

        let ack = TreePMessage::PutVersionedAck {
            request_id: RequestId(2),
            key: NodeId(5),
            stamp,
            stored_at: peer(4),
        };
        assert_eq!(ack.kind().name(), "put_versioned_ack");
        assert!(!ack.is_maintenance());
        assert_eq!(ack.origin_addr(), None, "acks travel point-to-point");

        let repair = TreePMessage::ReadRepair {
            sender: peer(4),
            key: NodeId(5),
            stamp,
            value: vec![3],
        };
        assert_eq!(repair.kind().name(), "read_repair");
        assert!(repair.is_maintenance(), "repair traffic is maintenance");

        let verify = TreePMessage::ReadVerify {
            server: peer(4),
            key: NodeId(5),
            served_stamp: stamp,
            ttl: 1,
        };
        assert_eq!(verify.kind().name(), "read_verify");
        assert!(
            !verify.is_maintenance(),
            "verify probes are accounted to the get that caused them"
        );
        assert_eq!(verify.origin_addr(), None);
    }

    #[test]
    fn pubsub_messages_classify_correctly() {
        let sub = TreePMessage::Subscribe {
            request_id: RequestId(1),
            origin: peer(9),
            topic: NodeId(5),
            ttl: 10,
        };
        assert_eq!(sub.kind().name(), "subscribe");
        assert!(!sub.is_maintenance(), "subscriptions are user traffic");
        assert_eq!(sub.origin_addr(), Some(NodeAddr(9)));

        let ack = TreePMessage::SubscribeAck {
            request_id: RequestId(1),
            topic: NodeId(5),
            subscribers: 3,
            stored_at: peer(4),
        };
        assert_eq!(ack.kind().name(), "subscribe_ack");
        assert!(!ack.is_maintenance());
        assert_eq!(ack.origin_addr(), None, "acks travel point-to-point");

        let unsub = TreePMessage::Unsubscribe {
            request_id: RequestId(2),
            origin: peer(9),
            topic: NodeId(5),
            ttl: 10,
        };
        assert_eq!(unsub.kind().name(), "unsubscribe");
        assert!(!unsub.is_maintenance());
        assert_eq!(unsub.origin_addr(), Some(NodeAddr(9)));

        let report = TreePMessage::FilterReport {
            child: peer(3),
            topics: vec![NodeId(5)],
            overflow: false,
        };
        assert_eq!(report.kind().name(), "filter_report");
        assert!(
            report.is_maintenance(),
            "filter summaries ride the maintenance cycle like child reports"
        );
        assert_eq!(report.origin_addr(), None);
    }

    /// The whole kind table, literally: per-kind counter arrays are indexed
    /// by `index()` and report keys (`treep.sent.<name>`) use `name()`, so
    /// neither may move.
    #[test]
    fn kind_table_is_pinned() {
        const TABLE: [(usize, &str, bool); MessageKind::COUNT] = [
            (0, "join_request", true),
            (1, "join_ack", true),
            (2, "keep_alive", true),
            (3, "keep_alive_ack", true),
            (4, "child_report", true),
            (5, "child_report_ack", true),
            (6, "election_call", true),
            (7, "parent_announce", true),
            (8, "parent_accept", true),
            (9, "demotion", true),
            (10, "lookup", false),
            (11, "lookup_found", false),
            (12, "lookup_not_found", false),
            (13, "dht_put", false),
            (14, "dht_put_ack", false),
            (15, "dht_get", false),
            (16, "dht_get_reply", false),
            (17, "replica_put", true),
            (18, "replica_sync_request", true),
            (19, "replica_sync_reply", true),
            (20, "multicast_down", false),
            (21, "aggregate_up", false),
            (22, "multicast_ack", false),
            (23, "aggregate_ack", false),
            (24, "get_versioned", false),
            (25, "get_versioned_reply", false),
            (26, "put_versioned", false),
            (27, "put_versioned_ack", false),
            (28, "read_repair", true),
            (29, "read_verify", false),
            (30, "subscribe", false),
            (31, "subscribe_ack", false),
            (32, "unsubscribe", false),
            (33, "filter_report", true),
        ];
        assert_eq!(MessageKind::COUNT, 34);
        for (kind, &(index, name, maintenance)) in MessageKind::ALL.iter().zip(&TABLE) {
            assert_eq!(
                (kind.index(), kind.name(), kind.is_maintenance()),
                (index, name, maintenance)
            );
            assert_eq!(kind.to_string(), name);
        }
    }

    #[test]
    fn origin_addr_only_for_routed_requests() {
        let get = TreePMessage::DhtGet {
            request_id: RequestId(2),
            origin: peer(9),
            key: NodeId(1),
            ttl: 10,
        };
        assert_eq!(get.origin_addr(), Some(NodeAddr(9)));
        let ka = TreePMessage::KeepAlive {
            sender: peer(1),
            updates: vec![],
        };
        assert_eq!(ka.origin_addr(), None);
    }
}
