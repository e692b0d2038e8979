//! Hand-rolled binary codec for [`TreePMessage`].
//!
//! Layout: one tag byte per message / enum variant, fixed-width little-endian
//! integers, and `u32` length prefixes for variable-length sequences. The
//! format is self-contained (no schema negotiation) and deliberately boring:
//! the goal is a dependency-free wire encoding whose round-trip is easy to
//! test exhaustively.
//!
//! The message encoding is generated from the `treep` message table
//! ([`treep::treep_messages!`]): a message is its row's tag byte followed by
//! its fields in row order. Each field type has exactly one encoding here,
//! shared by every message that carries it.

use bytes::{Buf, BufMut, BytesMut};
use simnet::NodeAddr;
use treep::lookup::{LookupRequest, RequestId};
use treep::{
    AggregatePartial, AggregateQuery, CharacteristicsSummary, KeyRange, MulticastPayload,
    MulticastPhase, NodeId, PeerInfo, ReadSource, ReplicaEntry, RoutingAlgorithm, RoutingUpdate,
    StampedValue, TreePMessage, VersionStamp,
};

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the message was complete.
    Truncated,
    /// An unknown tag byte was encountered.
    UnknownTag(u8),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "datagram truncated"),
            CodecError::UnknownTag(t) => write!(f, "unknown tag byte {t}"),
        }
    }
}

impl std::error::Error for CodecError {}

type Result<T> = std::result::Result<T, CodecError>;

// ---- public API -------------------------------------------------------------

/// Encode a message into a fresh buffer.
pub fn encode_message(msg: &TreePMessage) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(128);
    msg.put(&mut buf);
    buf.to_vec()
}

/// Decode one message from a datagram.
pub fn decode_message(mut buf: &[u8]) -> Result<TreePMessage> {
    TreePMessage::get(&mut buf)
}

// ---- batch frames ----------------------------------------------------------

/// Tag byte marking a batch frame: several messages bundled into one
/// datagram. Chosen far above every message tag in the `treep` message
/// table so a batch can never be confused with a single message.
const TAG_BATCH: u8 = 255;

/// Encode several already-encoded messages into one batch datagram.
///
/// Layout: `TAG_BATCH`, `u32` message count, then each message as a
/// `u32` length prefix followed by its [`encode_message`] bytes. Callers
/// batching on the send path keep the encoded frames around for MTU
/// accounting; this avoids encoding each message twice.
pub fn encode_batch_frames(frames: &[Vec<u8>]) -> Vec<u8> {
    let payload: usize = frames.iter().map(|f| 4 + f.len()).sum();
    let mut buf = BytesMut::with_capacity(5 + payload);
    buf.put_u8(TAG_BATCH);
    buf.put_u32_le(frames.len() as u32);
    for frame in frames {
        buf.put_u32_le(frame.len() as u32);
        buf.put_slice(frame);
    }
    buf.to_vec()
}

/// Encode several messages into one batch datagram (see
/// [`encode_batch_frames`] for the layout).
pub fn encode_batch(msgs: &[TreePMessage]) -> Vec<u8> {
    let frames: Vec<Vec<u8>> = msgs.iter().map(encode_message).collect();
    encode_batch_frames(&frames)
}

/// Decode a datagram that is either a single message or a batch frame.
///
/// Single-message datagrams (everything [`encode_message`] produces) pass
/// through unchanged, so peers that never batch remain wire-compatible.
pub fn decode_datagram(mut buf: &[u8]) -> Result<Vec<TreePMessage>> {
    if buf.first() != Some(&TAG_BATCH) {
        return Ok(vec![decode_message(buf)?]);
    }
    let _ = get_u8(&mut buf)?;
    let count = u32::get(&mut buf)? as usize;
    let mut msgs = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let len = u32::get(&mut buf)? as usize;
        if buf.len() < len {
            return Err(CodecError::Truncated);
        }
        msgs.push(decode_message(&buf[..len])?);
        buf = &buf[len..];
    }
    Ok(msgs)
}

// ---- field encodings ---------------------------------------------------------

/// The wire form of one field type. Every type that appears in a message
/// has exactly one impl.
trait Wire: Sized {
    /// Append `self` to `buf`.
    fn put(&self, buf: &mut BytesMut);
    /// Read one value off the front of `buf`.
    fn get(buf: &mut &[u8]) -> Result<Self>;
}

/// Fails with `Truncated` unless `n` more bytes remain.
fn need(buf: &[u8], n: usize) -> Result<()> {
    if buf.remaining() < n {
        Err(CodecError::Truncated)
    } else {
        Ok(())
    }
}

fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    need(buf, 1)?;
    Ok(buf.get_u8())
}

/// Fixed-width little-endian integers.
macro_rules! wire_ints {
    ($($ty:ty: $put:ident, $get:ident;)*) => {$(
        impl Wire for $ty {
            fn put(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
            fn get(buf: &mut &[u8]) -> Result<Self> {
                need(buf, std::mem::size_of::<$ty>())?;
                Ok(buf.$get())
            }
        }
    )*};
}

wire_ints! {
    u16: put_u16_le, get_u16_le;
    u32: put_u32_le, get_u32_le;
    u64: put_u64_le, get_u64_le;
}

/// One byte, 0 or 1; any other byte is rejected.
impl Wire for bool {
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
    fn get(buf: &mut &[u8]) -> Result<Self> {
        match get_u8(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::UnknownTag(other)),
        }
    }
}

/// A presence flag (as a `bool`), then the value when present.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut BytesMut) {
        self.is_some().put(buf);
        if let Some(value) = self {
            value.put(buf);
        }
    }
    fn get(buf: &mut &[u8]) -> Result<Self> {
        Ok(if bool::get(buf)? {
            Some(T::get(buf)?)
        } else {
            None
        })
    }
}

/// A `u32` item count, then the items.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, buf: &mut BytesMut) {
        (self.len() as u32).put(buf);
        for item in self {
            item.put(buf);
        }
    }
    fn get(buf: &mut &[u8]) -> Result<Self> {
        let n = u32::get(buf)? as usize;
        // The count is untrusted: cap what it may preallocate.
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(T::get(buf)?);
        }
        Ok(out)
    }
}

/// Opaque bytes: a `u32` length, then the bytes as one slice.
impl Wire for Vec<u8> {
    fn put(&self, buf: &mut BytesMut) {
        (self.len() as u32).put(buf);
        buf.put_slice(self);
    }
    fn get(buf: &mut &[u8]) -> Result<Self> {
        let n = u32::get(buf)? as usize;
        need(buf, n)?;
        let (bytes, rest) = buf.split_at(n);
        *buf = rest;
        Ok(bytes.to_vec())
    }
}

/// `u64` newtypes.
macro_rules! wire_newtypes {
    ($($ty:ident),*) => {$(
        impl Wire for $ty {
            fn put(&self, buf: &mut BytesMut) {
                self.0.put(buf);
            }
            fn get(buf: &mut &[u8]) -> Result<Self> {
                u64::get(buf).map($ty)
            }
        }
    )*};
}

wire_newtypes!(NodeId, NodeAddr, RequestId);

/// Structs: the listed fields, in order.
macro_rules! wire_structs {
    ($($ty:ident { $($field:ident),* })*) => {$(
        impl Wire for $ty {
            fn put(&self, buf: &mut BytesMut) {
                $(self.$field.put(buf);)*
            }
            fn get(buf: &mut &[u8]) -> Result<Self> {
                Ok($ty { $($field: Wire::get(buf)?),* })
            }
        }
    )*};
}

wire_structs! {
    CharacteristicsSummary { score_milli, max_children }
    PeerInfo { id, addr, max_level, summary }
    VersionStamp { version, origin }
    StampedValue { stamp, value }
    ReplicaEntry { key, value }
    LookupRequest { request_id, origin, target, algorithm, ttl, visited, fallbacks }
}

/// `lo` then `hi`; decoding re-normalises the order.
impl Wire for KeyRange {
    fn put(&self, buf: &mut BytesMut) {
        self.lo.put(buf);
        self.hi.put(buf);
    }
    fn get(buf: &mut &[u8]) -> Result<Self> {
        Ok(KeyRange::new(NodeId::get(buf)?, NodeId::get(buf)?))
    }
}

/// Enums: the variant's tag byte, then its fields in order. A tuple variant
/// is written `Variant(binding: Type)`.
macro_rules! wire_enums {
    ($($ty:ident {
        $($variant:ident $(($value:ident: $value_ty:ty))? $({ $($field:ident),* })? = $tag:literal),*
        $(,)?
    })*) => {$(
        impl Wire for $ty {
            fn put(&self, buf: &mut BytesMut) {
                match self {
                    $($ty::$variant $(($value))? $({ $($field),* })? => {
                        buf.put_u8($tag);
                        $($value.put(buf);)?
                        $($($field.put(buf);)*)?
                    })*
                }
            }
            fn get(buf: &mut &[u8]) -> Result<Self> {
                Ok(match get_u8(buf)? {
                    $($tag => $ty::$variant
                        $((<$value_ty>::get(buf)?))?
                        $({ $($field: Wire::get(buf)?),* })?,)*
                    other => return Err(CodecError::UnknownTag(other)),
                })
            }
        }
    )*};
}

wire_enums! {
    RoutingAlgorithm { Greedy = 0, NonGreedy = 1, NonGreedyFallback = 2 }
    MulticastPhase { Up = 0, BusLeft = 1, BusRight = 2, Down = 3 }
    AggregateQuery { CountNodes = 0, MaxCapability = 1, DhtKeyDigest = 2, KeysInRange = 3 }
    ReadSource { Responsible = 0, Replica = 1, Cache = 2 }
    RoutingUpdate {
        Contact { peer } = 0,
        LevelMember { level, peer } = 1,
        ParentOf { peer } = 2,
        ChildOf { peer } = 3,
        Superior { peer } = 4,
    }
    MulticastPayload {
        Data(data: Vec<u8>) = 0,
        Aggregate(query: AggregateQuery) = 1,
        Topic { topic, data } = 2,
    }
    AggregatePartial {
        Count(count: u64) = 0,
        MaxCapability(max: u16) = 1,
        Digest { xor, count } = 2,
        Keys(keys: Vec<NodeId>) = 3,
    }
}

/// Reshapes the `treep` message table into a [`wire_enums!`] entry for
/// [`TreePMessage`]: each row keeps its tag and its fields in row order.
macro_rules! message_codec {
    ($(
        $(#[$doc:meta])*
        $name:ident
        $(($tuple_field:ident: $tuple_ty:ty))?
        $({ $($(#[$field_doc:meta])* $field:ident: $field_ty:ty,)* })?
        = $tag:literal, $snake:literal, maintenance = $maintenance:literal;
    )*) => {
        wire_enums! {
            TreePMessage {
                $($name $(($tuple_field: $tuple_ty))? $({ $($field),* })? = $tag,)*
            }
        }
    };
}

treep::treep_messages!(message_codec);

#[cfg(test)]
mod tests {
    use super::*;
    use treep::{ChildPolicy, NodeCharacteristics};

    fn peer(id: u64, level: u32) -> PeerInfo {
        PeerInfo {
            id: NodeId(id),
            addr: NodeAddr(id * 3 + 1),
            max_level: level,
            summary: CharacteristicsSummary::of(
                &NodeCharacteristics::strong(),
                ChildPolicy::Fixed(4),
            ),
        }
    }

    fn all_messages() -> Vec<TreePMessage> {
        let mut req = LookupRequest::new(
            RequestId(9),
            peer(1, 0),
            NodeId(42),
            RoutingAlgorithm::NonGreedyFallback,
        );
        req.advance(NodeAddr(5));
        req.advance(NodeAddr(6));
        req.fallbacks.push(peer(7, 2));
        vec![
            TreePMessage::JoinRequest { joiner: peer(1, 0) },
            TreePMessage::JoinAck {
                responder: peer(2, 1),
                contacts: vec![peer(3, 0), peer(4, 0)],
                parent: Some(peer(5, 1)),
            },
            TreePMessage::JoinAck {
                responder: peer(2, 1),
                contacts: vec![],
                parent: None,
            },
            TreePMessage::KeepAlive {
                sender: peer(6, 0),
                updates: vec![
                    RoutingUpdate::Contact { peer: peer(7, 0) },
                    RoutingUpdate::LevelMember {
                        level: 2,
                        peer: peer(8, 2),
                    },
                    RoutingUpdate::ParentOf { peer: peer(9, 1) },
                    RoutingUpdate::ChildOf { peer: peer(10, 0) },
                    RoutingUpdate::Superior { peer: peer(11, 3) },
                ],
            },
            TreePMessage::KeepAliveAck {
                sender: peer(6, 0),
                updates: vec![],
            },
            TreePMessage::ChildReport {
                child: peer(12, 0),
                span: KeyRange::new(NodeId(8), NodeId(24)),
            },
            TreePMessage::ChildReportAck {
                parent: peer(13, 1),
                superiors: vec![peer(14, 2)],
            },
            TreePMessage::ElectionCall {
                level: 3,
                caller: peer(15, 2),
            },
            TreePMessage::ParentAnnounce {
                level: 1,
                parent: peer(16, 1),
            },
            TreePMessage::ParentAccept { child: peer(17, 0) },
            TreePMessage::Demotion {
                node: peer(18, 2),
                from_level: 2,
            },
            TreePMessage::Lookup(req),
            TreePMessage::LookupFound {
                request_id: RequestId(100),
                target: NodeId(55),
                result: peer(19, 0),
                hops: 4,
                algorithm: RoutingAlgorithm::Greedy,
            },
            TreePMessage::LookupNotFound {
                request_id: RequestId(101),
                target: NodeId(56),
                hops: 7,
                algorithm: RoutingAlgorithm::NonGreedy,
            },
            TreePMessage::DhtPut {
                request_id: RequestId(102),
                origin: peer(20, 0),
                key: NodeId(77),
                value: b"hello world".to_vec(),
                ttl: 3,
            },
            TreePMessage::DhtPutAck {
                request_id: RequestId(102),
                key: NodeId(77),
                stored_at: peer(21, 1),
            },
            TreePMessage::DhtGet {
                request_id: RequestId(103),
                origin: peer(22, 0),
                key: NodeId(78),
                ttl: 0,
            },
            TreePMessage::DhtGetReply {
                request_id: RequestId(103),
                key: NodeId(78),
                value: Some(b"value".to_vec()),
                responder: peer(23, 0),
            },
            TreePMessage::DhtGetReply {
                request_id: RequestId(104),
                key: NodeId(79),
                value: None,
                responder: peer(24, 0),
            },
            TreePMessage::ReplicaPut {
                sender: peer(30, 0),
                key: NodeId(80),
                value: b"copy".to_vec(),
            },
            TreePMessage::ReplicaSyncRequest {
                sender: peer(31, 0),
                range: KeyRange::new(NodeId(10), NodeId(90)),
                keys: vec![NodeId(20), NodeId(40)],
            },
            TreePMessage::ReplicaSyncRequest {
                sender: peer(31, 0),
                range: KeyRange::new(NodeId(10), NodeId(90)),
                keys: vec![],
            },
            TreePMessage::ReplicaSyncReply {
                sender: peer(32, 1),
                range: KeyRange::new(NodeId(10), NodeId(90)),
                entries: vec![
                    ReplicaEntry {
                        key: NodeId(30),
                        value: b"v30".to_vec(),
                    },
                    ReplicaEntry {
                        key: NodeId(50),
                        value: vec![],
                    },
                ],
                want: vec![NodeId(20)],
            },
            TreePMessage::ReplicaSyncReply {
                sender: peer(32, 1),
                range: KeyRange::new(NodeId(0), NodeId(0)),
                entries: vec![],
                want: vec![],
            },
            TreePMessage::MulticastDown {
                origin: peer(25, 0),
                request_id: RequestId(105),
                range: KeyRange::new(NodeId(100), NodeId(900)),
                payload: MulticastPayload::Data(b"announce".to_vec()),
                budget: 64,
                hops: 2,
                phase: MulticastPhase::Up,
                bus_level: 0,
            },
            TreePMessage::MulticastDown {
                origin: peer(26, 1),
                request_id: RequestId(106),
                range: KeyRange::new(NodeId(0), NodeId(50)),
                payload: MulticastPayload::Aggregate(AggregateQuery::CountNodes),
                budget: 12,
                hops: 5,
                phase: MulticastPhase::BusLeft,
                bus_level: 3,
            },
            TreePMessage::MulticastDown {
                origin: peer(27, 2),
                request_id: RequestId(107),
                range: KeyRange::new(NodeId(7), NodeId(7)),
                payload: MulticastPayload::Data(vec![]),
                budget: 1,
                hops: 30,
                phase: MulticastPhase::Down,
                bus_level: 2,
            },
            TreePMessage::AggregateUp {
                origin: peer(28, 0),
                request_id: RequestId(108),
                query: AggregateQuery::MaxCapability,
                partial: AggregatePartial::MaxCapability(750),
                truncated: false,
                final_answer: false,
            },
            TreePMessage::AggregateUp {
                origin: peer(29, 0),
                request_id: RequestId(109),
                query: AggregateQuery::DhtKeyDigest,
                partial: AggregatePartial::Digest {
                    xor: 0xDEAD_BEEF,
                    count: 17,
                },
                truncated: true,
                final_answer: true,
            },
            TreePMessage::MulticastAck {
                origin: NodeAddr(76),
                request_id: RequestId(105),
            },
            TreePMessage::AggregateAck {
                origin: NodeAddr(79),
                request_id: RequestId(108),
            },
            TreePMessage::GetVersioned {
                request_id: RequestId(110),
                origin: peer(30, 0),
                key: NodeId(88),
                ttl: 12,
                min_stamp: Some(VersionStamp {
                    version: 3,
                    origin: NodeId(30),
                }),
                path: vec![NodeAddr(91), NodeAddr(94)],
            },
            TreePMessage::GetVersioned {
                request_id: RequestId(111),
                origin: peer(31, 0),
                key: NodeId(89),
                ttl: 12,
                min_stamp: None,
                path: vec![],
            },
            TreePMessage::GetVersionedReply {
                request_id: RequestId(110),
                origin: NodeAddr(91),
                key: NodeId(88),
                value: Some(StampedValue {
                    stamp: VersionStamp {
                        version: 4,
                        origin: NodeId(32),
                    },
                    value: b"cached".to_vec(),
                }),
                source: ReadSource::Cache,
                hops: 2,
                responder: peer(33, 1),
                path: vec![NodeAddr(91)],
            },
            TreePMessage::GetVersionedReply {
                request_id: RequestId(111),
                origin: NodeAddr(94),
                key: NodeId(89),
                value: None,
                source: ReadSource::Responsible,
                hops: 5,
                responder: peer(34, 0),
                path: vec![],
            },
            TreePMessage::PutVersioned {
                request_id: RequestId(112),
                origin: peer(35, 0),
                key: NodeId(90),
                stamp: VersionStamp {
                    version: 7,
                    origin: NodeId(35),
                },
                value: b"fresh".to_vec(),
                ttl: 9,
            },
            TreePMessage::PutVersionedAck {
                request_id: RequestId(112),
                key: NodeId(90),
                stamp: VersionStamp {
                    version: 7,
                    origin: NodeId(35),
                },
                stored_at: peer(36, 1),
            },
            TreePMessage::ReadRepair {
                sender: peer(37, 1),
                key: NodeId(90),
                stamp: VersionStamp {
                    version: 7,
                    origin: NodeId(35),
                },
                value: b"fresh".to_vec(),
            },
            TreePMessage::ReadVerify {
                server: peer(38, 0),
                key: NodeId(90),
                served_stamp: VersionStamp {
                    version: 6,
                    origin: NodeId(20),
                },
                ttl: 8,
            },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in all_messages() {
            let encoded = encode_message(&msg);
            let decoded = decode_message(&encoded).expect("decode");
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn truncated_datagrams_are_rejected() {
        for msg in all_messages() {
            let encoded = encode_message(&msg);
            for cut in 0..encoded.len() {
                let err = decode_message(&encoded[..cut]);
                assert!(err.is_err(), "prefix of length {cut} must not decode");
            }
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert_eq!(decode_message(&[99, 0, 0]), Err(CodecError::UnknownTag(99)));
        assert_eq!(decode_message(&[]), Err(CodecError::Truncated));
    }

    #[test]
    fn option_flags_other_than_zero_or_one_are_rejected() {
        // (message with an empty option, byte offset of its presence flag)
        let cases = [
            (
                TreePMessage::JoinAck {
                    responder: peer(2, 1),
                    contacts: vec![],
                    parent: None,
                },
                1 + 26 + 4,
            ),
            (
                TreePMessage::DhtGetReply {
                    request_id: RequestId(1),
                    key: NodeId(2),
                    value: None,
                    responder: peer(3, 0),
                },
                1 + 8 + 8,
            ),
            (
                TreePMessage::GetVersioned {
                    request_id: RequestId(1),
                    origin: peer(4, 0),
                    key: NodeId(2),
                    ttl: 3,
                    min_stamp: None,
                    path: vec![],
                },
                1 + 8 + 26 + 8 + 4,
            ),
            (
                TreePMessage::GetVersionedReply {
                    request_id: RequestId(1),
                    origin: NodeAddr(5),
                    key: NodeId(2),
                    value: None,
                    source: ReadSource::Responsible,
                    hops: 1,
                    responder: peer(6, 0),
                    path: vec![],
                },
                1 + 8 + 8 + 8,
            ),
        ];
        for (msg, flag_at) in cases {
            let mut encoded = encode_message(&msg);
            assert_eq!(encoded[flag_at], 0, "{:?}: flag offset", msg.kind());
            encoded[flag_at] = 2;
            assert_eq!(
                decode_message(&encoded),
                Err(CodecError::UnknownTag(2)),
                "{:?}",
                msg.kind()
            );
        }
    }

    #[test]
    fn error_display_is_informative() {
        assert_eq!(CodecError::Truncated.to_string(), "datagram truncated");
        assert_eq!(CodecError::UnknownTag(7).to_string(), "unknown tag byte 7");
    }

    #[test]
    fn encoding_is_compact() {
        let keepalive = TreePMessage::KeepAlive {
            sender: peer(1, 0),
            updates: vec![],
        };
        assert!(
            encode_message(&keepalive).len() < 64,
            "keep-alives must fit comfortably in one datagram"
        );
    }

    #[test]
    fn batch_round_trips_every_message() {
        let msgs = all_messages();
        let datagram = encode_batch(&msgs);
        let decoded = decode_datagram(&datagram).expect("batch decodes");
        assert_eq!(decoded.len(), msgs.len());
        for (orig, back) in msgs.iter().zip(&decoded) {
            // Compare via re-encoding: the per-message round-trip tests
            // already pin encode∘decode = id.
            assert_eq!(encode_message(orig), encode_message(back));
        }
    }

    #[test]
    fn single_message_datagrams_pass_through_unbatched() {
        for msg in all_messages() {
            let bare = encode_message(&msg);
            assert_ne!(bare[0], 255, "message tags must stay clear of TAG_BATCH");
            let decoded = decode_datagram(&bare).expect("single frame decodes");
            assert_eq!(decoded.len(), 1);
            assert_eq!(encode_message(&decoded[0]), bare);
        }
    }

    #[test]
    fn truncated_batches_are_rejected_not_panicking() {
        let msgs = all_messages();
        let datagram = encode_batch(&msgs[..3]);
        for cut in 0..datagram.len() {
            assert!(decode_datagram(&datagram[..cut]).is_err());
        }
        let empty = encode_batch(&[]);
        assert_eq!(decode_datagram(&empty).expect("empty batch").len(), 0);
    }

    /// The wire tag of every message kind, by kind index. Tag order is not
    /// index order: the replication tags (20–22) were assigned after the
    /// multicast ones (18–19).
    #[test]
    fn every_kind_encodes_with_its_pinned_tag() {
        const TAGS: [u8; 34] = [
            1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 20, 21, 22, 18, 19, 23, 24,
            25, 26, 27, 28, 29, 30, 31, 32, 33, 34,
        ];
        let mut msgs = all_messages();
        msgs.extend([
            TreePMessage::Subscribe {
                request_id: RequestId(1),
                origin: peer(40, 0),
                topic: NodeId(2),
                ttl: 3,
            },
            TreePMessage::SubscribeAck {
                request_id: RequestId(1),
                topic: NodeId(2),
                subscribers: 4,
                stored_at: peer(41, 1),
            },
            TreePMessage::Unsubscribe {
                request_id: RequestId(5),
                origin: peer(40, 0),
                topic: NodeId(2),
                ttl: 3,
            },
            TreePMessage::FilterReport {
                child: peer(42, 0),
                topics: vec![NodeId(2)],
                overflow: false,
            },
        ]);
        let mut seen = [false; 34];
        for msg in &msgs {
            let index = msg.kind().index();
            assert_eq!(encode_message(msg)[0], TAGS[index], "{:?}", msg.kind());
            seen[index] = true;
        }
        assert!(seen.iter().all(|&s| s), "every kind is exercised");
    }
}

#[cfg(test)]
mod wire_compat {
    //! Golden wire-format test: the encodings of the pre-reliability
    //! message set (tags 1–22) are pinned by a checksum, guarding the
    //! `max_retransmits = 0` off-path — a deployment that never sends acks
    //! must stay byte-identical on the wire to one built before the
    //! reliability layer existed. Adding new tags (23+) is fine; changing
    //! any byte an old tag produces is not.
    use super::*;

    /// A peer with fully literal fields (no helpers whose defaults could
    /// drift), so the golden bytes depend only on the codec.
    fn peer(id: u64, addr: u64, level: u32) -> PeerInfo {
        PeerInfo {
            id: NodeId(id),
            addr: NodeAddr(addr),
            max_level: level,
            summary: CharacteristicsSummary {
                score_milli: 640,
                max_children: 4,
            },
        }
    }

    /// One deterministic message per legacy tag, in tag order 1–22.
    fn legacy_messages() -> Vec<TreePMessage> {
        let mut req = LookupRequest::new(
            RequestId(900),
            peer(31, 131, 0),
            NodeId(4_242),
            RoutingAlgorithm::NonGreedyFallback,
        );
        req.advance(NodeAddr(5));
        req.fallbacks.push(peer(32, 132, 2));
        vec![
            TreePMessage::JoinRequest {
                joiner: peer(1, 101, 0),
            },
            TreePMessage::JoinAck {
                responder: peer(2, 102, 1),
                contacts: vec![peer(3, 103, 0)],
                parent: Some(peer(4, 104, 1)),
            },
            TreePMessage::KeepAlive {
                sender: peer(5, 105, 0),
                updates: vec![
                    RoutingUpdate::Contact {
                        peer: peer(6, 106, 0),
                    },
                    RoutingUpdate::LevelMember {
                        level: 2,
                        peer: peer(7, 107, 2),
                    },
                    RoutingUpdate::ParentOf {
                        peer: peer(8, 108, 1),
                    },
                    RoutingUpdate::ChildOf {
                        peer: peer(9, 109, 0),
                    },
                    RoutingUpdate::Superior {
                        peer: peer(10, 110, 3),
                    },
                ],
            },
            TreePMessage::KeepAliveAck {
                sender: peer(11, 111, 0),
                updates: vec![],
            },
            TreePMessage::ChildReport {
                child: peer(12, 112, 0),
                span: KeyRange::new(NodeId(100), NodeId(900)),
            },
            TreePMessage::ChildReportAck {
                parent: peer(13, 113, 1),
                superiors: vec![peer(14, 114, 2)],
            },
            TreePMessage::ElectionCall {
                level: 3,
                caller: peer(15, 115, 2),
            },
            TreePMessage::ParentAnnounce {
                level: 1,
                parent: peer(16, 116, 1),
            },
            TreePMessage::ParentAccept {
                child: peer(17, 117, 0),
            },
            TreePMessage::Demotion {
                node: peer(18, 118, 2),
                from_level: 2,
            },
            TreePMessage::Lookup(req),
            TreePMessage::LookupFound {
                request_id: RequestId(901),
                target: NodeId(55),
                result: peer(19, 119, 0),
                hops: 4,
                algorithm: RoutingAlgorithm::Greedy,
            },
            TreePMessage::LookupNotFound {
                request_id: RequestId(902),
                target: NodeId(56),
                hops: 7,
                algorithm: RoutingAlgorithm::NonGreedy,
            },
            TreePMessage::DhtPut {
                request_id: RequestId(903),
                origin: peer(20, 120, 0),
                key: NodeId(77),
                value: b"wire".to_vec(),
                ttl: 3,
            },
            TreePMessage::DhtPutAck {
                request_id: RequestId(903),
                key: NodeId(77),
                stored_at: peer(21, 121, 1),
            },
            TreePMessage::DhtGet {
                request_id: RequestId(904),
                origin: peer(22, 122, 0),
                key: NodeId(78),
                ttl: 9,
            },
            TreePMessage::DhtGetReply {
                request_id: RequestId(904),
                key: NodeId(78),
                value: Some(b"v".to_vec()),
                responder: peer(23, 123, 0),
            },
            TreePMessage::MulticastDown {
                origin: peer(24, 124, 0),
                request_id: RequestId(905),
                range: KeyRange::new(NodeId(10), NodeId(90)),
                payload: MulticastPayload::Data(b"mc".to_vec()),
                budget: 64,
                hops: 2,
                phase: MulticastPhase::BusRight,
                bus_level: 3,
            },
            TreePMessage::AggregateUp {
                origin: peer(25, 125, 0),
                request_id: RequestId(906),
                query: AggregateQuery::DhtKeyDigest,
                partial: AggregatePartial::Digest { xor: 77, count: 3 },
                truncated: true,
                final_answer: false,
            },
            TreePMessage::ReplicaPut {
                sender: peer(26, 126, 0),
                key: NodeId(80),
                value: b"copy".to_vec(),
            },
            TreePMessage::ReplicaSyncRequest {
                sender: peer(27, 127, 0),
                range: KeyRange::new(NodeId(10), NodeId(90)),
                keys: vec![NodeId(20), NodeId(40)],
            },
            TreePMessage::ReplicaSyncReply {
                sender: peer(28, 128, 1),
                range: KeyRange::new(NodeId(10), NodeId(90)),
                entries: vec![ReplicaEntry {
                    key: NodeId(30),
                    value: b"e".to_vec(),
                }],
                want: vec![NodeId(20)],
            },
        ]
    }

    fn fnv1a64(bytes: &[u8]) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    #[test]
    fn legacy_tags_encode_byte_identically() {
        let messages = legacy_messages();
        assert_eq!(messages.len(), 22, "one fixture per legacy tag");
        let mut all = Vec::new();
        for (i, msg) in messages.iter().enumerate() {
            let encoded = encode_message(msg);
            assert_eq!(
                encoded[0],
                (i + 1) as u8,
                "fixture {i} must encode with tag {}",
                i + 1
            );
            all.extend_from_slice(&(encoded.len() as u32).to_le_bytes());
            all.extend_from_slice(&encoded);
            assert_eq!(&decode_message(&encoded).unwrap(), msg);
        }
        // The pinned digest of every legacy encoding. If this assertion
        // fails, the wire format of a pre-reliability message changed —
        // which breaks `max_retransmits = 0` interoperability with already
        // deployed nodes. Extend the protocol with new tags instead.
        assert_eq!(
            fnv1a64(&all),
            0x1A2D_D1FA_DD8A_2D1F_u64,
            "legacy wire encoding changed (total {} bytes)",
            all.len()
        );
        assert_eq!(all.len(), 1278, "legacy encodings changed length");
    }

    /// Sub-encodings the three tag goldens never reach: empty options,
    /// the `Aggregate` payload, the `Count` / `MaxCapability` partials, the
    /// remaining phase / query / read-source bytes, and a batch frame.
    #[test]
    fn uncovered_sub_encodings_are_frozen() {
        let messages = vec![
            TreePMessage::JoinAck {
                responder: peer(61, 161, 1),
                contacts: vec![],
                parent: None,
            },
            TreePMessage::DhtGetReply {
                request_id: RequestId(921),
                key: NodeId(9_000),
                value: None,
                responder: peer(62, 162, 0),
            },
            TreePMessage::GetVersioned {
                request_id: RequestId(922),
                origin: peer(63, 163, 0),
                key: NodeId(9_001),
                ttl: 5,
                min_stamp: None,
                path: vec![NodeAddr(163)],
            },
            TreePMessage::MulticastDown {
                origin: peer(64, 164, 0),
                request_id: RequestId(923),
                range: KeyRange::new(NodeId(5), NodeId(50)),
                payload: MulticastPayload::Aggregate(AggregateQuery::CountNodes),
                budget: 32,
                hops: 0,
                phase: MulticastPhase::Up,
                bus_level: 0,
            },
            TreePMessage::MulticastDown {
                origin: peer(65, 165, 2),
                request_id: RequestId(924),
                range: KeyRange::new(NodeId(60), NodeId(600)),
                payload: MulticastPayload::Aggregate(AggregateQuery::MaxCapability),
                budget: 16,
                hops: 3,
                phase: MulticastPhase::BusLeft,
                bus_level: 2,
            },
            TreePMessage::AggregateUp {
                origin: peer(66, 166, 0),
                request_id: RequestId(925),
                query: AggregateQuery::CountNodes,
                partial: AggregatePartial::Count(41),
                truncated: false,
                final_answer: true,
            },
            TreePMessage::AggregateUp {
                origin: peer(67, 167, 1),
                request_id: RequestId(926),
                query: AggregateQuery::MaxCapability,
                partial: AggregatePartial::MaxCapability(875),
                truncated: true,
                final_answer: false,
            },
            TreePMessage::GetVersionedReply {
                request_id: RequestId(922),
                origin: NodeAddr(163),
                key: NodeId(9_001),
                value: Some(StampedValue {
                    stamp: VersionStamp {
                        version: 2,
                        origin: NodeId(68),
                    },
                    value: b"hot".to_vec(),
                }),
                source: ReadSource::Cache,
                hops: 1,
                responder: peer(68, 168, 0),
                path: vec![],
            },
        ];
        let mut all = Vec::new();
        for msg in &messages {
            let encoded = encode_message(msg);
            assert_eq!(decode_message(&encoded).as_ref(), Ok(msg));
            all.extend_from_slice(&encoded);
        }
        let batch = encode_batch(&messages[..3]);
        assert_eq!(decode_datagram(&batch).unwrap(), messages[..3].to_vec());
        all.extend_from_slice(&batch);
        assert_eq!(
            (fnv1a64(&all), all.len()),
            (0xFF19_637F_F650_1227_u64, 593),
            "sub-encoding wire format changed"
        );
    }
}

#[cfg(test)]
mod wire_compat_readpath {
    //! Second golden wire-format test: pins the encodings of the
    //! reliability tags (23–24) and the read-path tags (25–30) introduced
    //! after the legacy golden above was frozen. With `replica_reads`,
    //! `read_repair` and the hot-key cache all defaulting to off, a node
    //! never emits these tags — but once two deployments opt in they must
    //! agree on every byte, so the new tags get their own checksum.
    use super::*;

    /// Fully literal peer, mirroring the legacy golden's helper.
    fn peer(id: u64, addr: u64, level: u32) -> PeerInfo {
        PeerInfo {
            id: NodeId(id),
            addr: NodeAddr(addr),
            max_level: level,
            summary: CharacteristicsSummary {
                score_milli: 640,
                max_children: 4,
            },
        }
    }

    fn stamp(version: u64, origin: u64) -> VersionStamp {
        VersionStamp {
            version,
            origin: NodeId(origin),
        }
    }

    /// One deterministic message per post-legacy tag, in tag order 23–30.
    /// Optional fields appear once populated and once empty where a single
    /// fixture cannot cover both.
    fn readpath_messages() -> Vec<TreePMessage> {
        vec![
            TreePMessage::MulticastAck {
                origin: NodeAddr(501),
                request_id: RequestId(901),
            },
            TreePMessage::AggregateAck {
                origin: NodeAddr(502),
                request_id: RequestId(902),
            },
            TreePMessage::GetVersioned {
                request_id: RequestId(903),
                origin: peer(41, 141, 0),
                key: NodeId(7_000),
                ttl: 16,
                min_stamp: Some(stamp(5, 41)),
                path: vec![NodeAddr(142), NodeAddr(143)],
            },
            TreePMessage::GetVersionedReply {
                request_id: RequestId(903),
                origin: NodeAddr(141),
                key: NodeId(7_000),
                value: Some(StampedValue {
                    stamp: stamp(6, 42),
                    value: b"pinned".to_vec(),
                }),
                source: ReadSource::Replica,
                hops: 3,
                responder: peer(42, 142, 1),
                path: vec![NodeAddr(142)],
            },
            TreePMessage::GetVersionedReply {
                request_id: RequestId(904),
                origin: NodeAddr(144),
                key: NodeId(7_001),
                value: None,
                source: ReadSource::Responsible,
                hops: 4,
                responder: peer(43, 143, 0),
                path: vec![],
            },
            TreePMessage::PutVersioned {
                request_id: RequestId(905),
                origin: peer(44, 144, 0),
                key: NodeId(7_002),
                stamp: stamp(9, 44),
                value: b"payload".to_vec(),
                ttl: 11,
            },
            TreePMessage::PutVersionedAck {
                request_id: RequestId(905),
                key: NodeId(7_002),
                stamp: stamp(9, 44),
                stored_at: peer(45, 145, 2),
            },
            TreePMessage::ReadRepair {
                sender: peer(46, 146, 1),
                key: NodeId(7_002),
                stamp: stamp(9, 44),
                value: b"payload".to_vec(),
            },
            TreePMessage::ReadVerify {
                server: peer(47, 147, 0),
                key: NodeId(7_002),
                served_stamp: stamp(8, 30),
                ttl: 10,
            },
        ]
    }

    fn fnv1a64(bytes: &[u8]) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    #[test]
    fn readpath_tag_encodings_are_frozen() {
        let messages = readpath_messages();
        let expected_tags: &[u8] = &[23, 24, 25, 26, 26, 27, 28, 29, 30];
        let mut all = Vec::new();
        for (msg, want_tag) in messages.iter().zip(expected_tags) {
            let encoded = encode_message(msg);
            assert_eq!(encoded[0], *want_tag, "tag byte moved for {:?}", msg.kind());
            assert_eq!(decode_message(&encoded).as_ref(), Ok(msg));
            all.extend_from_slice(&encoded);
        }
        assert_eq!(
            (fnv1a64(&all), all.len()),
            (0xCD5D_0BB9_4CB2_16A3_u64, 524),
            "read-path wire format changed; if intentional, bump the \
             protocol notes and re-pin this checksum"
        );
    }
}

#[cfg(test)]
mod wire_compat_pubsub {
    //! Third golden wire-format test: pins the pub/sub tags (31–34) plus
    //! the pub/sub extensions threaded through pre-existing tags — the
    //! `Topic` multicast payload, the `KeysInRange` aggregate query and the
    //! `Keys` convergecast partial. With `pubsub_enabled` defaulting to
    //! off a node never emits any of these, so the legacy and read-path
    //! goldens stay byte-identical; this checksum freezes what opted-in
    //! deployments exchange.
    use super::*;

    /// Fully literal peer, mirroring the other goldens' helper.
    fn peer(id: u64, addr: u64, level: u32) -> PeerInfo {
        PeerInfo {
            id: NodeId(id),
            addr: NodeAddr(addr),
            max_level: level,
            summary: CharacteristicsSummary {
                score_milli: 640,
                max_children: 4,
            },
        }
    }

    /// One deterministic message per pub/sub tag in tag order 31–34, then
    /// the extended payload/query/partial encodings under tags 18–19.
    fn pubsub_messages() -> Vec<TreePMessage> {
        vec![
            TreePMessage::Subscribe {
                request_id: RequestId(911),
                origin: peer(51, 151, 0),
                topic: NodeId(8_000),
                ttl: 2,
            },
            TreePMessage::SubscribeAck {
                request_id: RequestId(911),
                topic: NodeId(8_000),
                subscribers: 3,
                stored_at: peer(52, 152, 1),
            },
            TreePMessage::Unsubscribe {
                request_id: RequestId(912),
                origin: peer(51, 151, 0),
                topic: NodeId(8_000),
                ttl: 1,
            },
            TreePMessage::FilterReport {
                child: peer(53, 153, 0),
                topics: vec![NodeId(8_000), NodeId(8_001)],
                overflow: false,
            },
            TreePMessage::FilterReport {
                child: peer(54, 154, 1),
                topics: vec![],
                overflow: true,
            },
            TreePMessage::MulticastDown {
                origin: peer(55, 155, 0),
                request_id: RequestId(913),
                range: KeyRange::new(NodeId(0), NodeId(u64::MAX)),
                payload: MulticastPayload::Topic {
                    topic: NodeId(8_000),
                    data: b"published".to_vec(),
                },
                budget: 64,
                hops: 2,
                phase: MulticastPhase::Down,
                bus_level: 1,
            },
            TreePMessage::AggregateUp {
                origin: peer(56, 156, 0),
                request_id: RequestId(914),
                query: AggregateQuery::KeysInRange,
                partial: AggregatePartial::Keys(vec![NodeId(10), NodeId(20), NodeId(30)]),
                truncated: false,
                final_answer: true,
            },
        ]
    }

    fn fnv1a64(bytes: &[u8]) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    #[test]
    fn pubsub_tag_encodings_are_frozen() {
        let messages = pubsub_messages();
        let expected_tags: &[u8] = &[31, 32, 33, 34, 34, 18, 19];
        let mut all = Vec::new();
        for (msg, want_tag) in messages.iter().zip(expected_tags) {
            let encoded = encode_message(msg);
            assert_eq!(encoded[0], *want_tag, "tag byte moved for {:?}", msg.kind());
            assert_eq!(decode_message(&encoded).as_ref(), Ok(msg));
            all.extend_from_slice(&encoded);
        }
        assert_eq!(
            (fnv1a64(&all), all.len()),
            (0x144D_4923_C44D_035B_u64, 374),
            "pub/sub wire format changed; if intentional, bump the \
             protocol notes and re-pin this checksum"
        );
    }
}

#[cfg(test)]
mod proptests {
    //! Randomised round-trip checks over every message variant. The offline
    //! build has no `proptest`, so a deterministic xorshift drives many
    //! random cases; a failing seed reproduces exactly.
    use super::*;
    use treep::RoutingUpdate;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn arb_peer(state: &mut u64) -> PeerInfo {
        PeerInfo {
            id: NodeId(xorshift(state)),
            addr: NodeAddr(xorshift(state)),
            max_level: (xorshift(state) % 8) as u32,
            summary: CharacteristicsSummary {
                score_milli: (xorshift(state) % 1001) as u16,
                max_children: (xorshift(state) % 64) as u32,
            },
        }
    }

    fn arb_bytes(state: &mut u64, max_len: usize) -> Vec<u8> {
        let len = (xorshift(state) as usize) % (max_len + 1);
        (0..len).map(|_| (xorshift(state) & 0xFF) as u8).collect()
    }

    fn arb_update(state: &mut u64) -> RoutingUpdate {
        let peer = arb_peer(state);
        match xorshift(state) % 5 {
            0 => RoutingUpdate::Contact { peer },
            1 => RoutingUpdate::LevelMember {
                level: (xorshift(state) % 8) as u32,
                peer,
            },
            2 => RoutingUpdate::ParentOf { peer },
            3 => RoutingUpdate::ChildOf { peer },
            _ => RoutingUpdate::Superior { peer },
        }
    }

    fn arb_algorithm(state: &mut u64) -> RoutingAlgorithm {
        match xorshift(state) % 3 {
            0 => RoutingAlgorithm::Greedy,
            1 => RoutingAlgorithm::NonGreedy,
            _ => RoutingAlgorithm::NonGreedyFallback,
        }
    }

    fn arb_lookup_request(state: &mut u64) -> LookupRequest {
        let mut req = LookupRequest::new(
            RequestId(xorshift(state)),
            arb_peer(state),
            NodeId(xorshift(state)),
            arb_algorithm(state),
        );
        for _ in 0..(xorshift(state) % 6) {
            req.advance(NodeAddr(xorshift(state)));
        }
        for _ in 0..(xorshift(state) % 4) {
            req.fallbacks.push(arb_peer(state));
        }
        req
    }

    /// One random instance of the message variant with index `variant`.
    /// Keep `VARIANTS` in sync when adding messages: the exhaustiveness test
    /// below fails if a new variant is not mapped here.
    const VARIANTS: usize = 34;

    fn arb_message(variant: usize, state: &mut u64) -> TreePMessage {
        match variant {
            0 => TreePMessage::JoinRequest {
                joiner: arb_peer(state),
            },
            1 => TreePMessage::JoinAck {
                responder: arb_peer(state),
                contacts: (0..xorshift(state) % 5).map(|_| arb_peer(state)).collect(),
                parent: if xorshift(state).is_multiple_of(2) {
                    Some(arb_peer(state))
                } else {
                    None
                },
            },
            2 => TreePMessage::KeepAlive {
                sender: arb_peer(state),
                updates: (0..xorshift(state) % 6)
                    .map(|_| arb_update(state))
                    .collect(),
            },
            3 => TreePMessage::KeepAliveAck {
                sender: arb_peer(state),
                updates: (0..xorshift(state) % 6)
                    .map(|_| arb_update(state))
                    .collect(),
            },
            4 => TreePMessage::ChildReport {
                child: arb_peer(state),
                span: treep::KeyRange::new(NodeId(xorshift(state)), NodeId(xorshift(state))),
            },
            5 => TreePMessage::ChildReportAck {
                parent: arb_peer(state),
                superiors: (0..xorshift(state) % 5).map(|_| arb_peer(state)).collect(),
            },
            6 => TreePMessage::ElectionCall {
                level: (xorshift(state) % 8) as u32,
                caller: arb_peer(state),
            },
            7 => TreePMessage::ParentAnnounce {
                level: (xorshift(state) % 8) as u32,
                parent: arb_peer(state),
            },
            8 => TreePMessage::ParentAccept {
                child: arb_peer(state),
            },
            9 => TreePMessage::Demotion {
                node: arb_peer(state),
                from_level: (xorshift(state) % 8) as u32,
            },
            10 => TreePMessage::Lookup(arb_lookup_request(state)),
            11 => TreePMessage::LookupFound {
                request_id: RequestId(xorshift(state)),
                target: NodeId(xorshift(state)),
                result: arb_peer(state),
                hops: (xorshift(state) % 256) as u32,
                algorithm: arb_algorithm(state),
            },
            12 => TreePMessage::LookupNotFound {
                request_id: RequestId(xorshift(state)),
                target: NodeId(xorshift(state)),
                hops: (xorshift(state) % 256) as u32,
                algorithm: arb_algorithm(state),
            },
            13 => TreePMessage::DhtPut {
                request_id: RequestId(xorshift(state)),
                origin: arb_peer(state),
                key: NodeId(xorshift(state)),
                value: arb_bytes(state, 512),
                ttl: (xorshift(state) % 256) as u32,
            },
            14 => TreePMessage::DhtPutAck {
                request_id: RequestId(xorshift(state)),
                key: NodeId(xorshift(state)),
                stored_at: arb_peer(state),
            },
            15 => TreePMessage::DhtGet {
                request_id: RequestId(xorshift(state)),
                origin: arb_peer(state),
                key: NodeId(xorshift(state)),
                ttl: (xorshift(state) % 256) as u32,
            },
            16 => TreePMessage::DhtGetReply {
                request_id: RequestId(xorshift(state)),
                key: NodeId(xorshift(state)),
                value: if xorshift(state).is_multiple_of(2) {
                    Some(arb_bytes(state, 256))
                } else {
                    None
                },
                responder: arb_peer(state),
            },
            17 => TreePMessage::MulticastDown {
                origin: arb_peer(state),
                request_id: RequestId(xorshift(state)),
                range: treep::KeyRange::new(NodeId(xorshift(state)), NodeId(xorshift(state))),
                payload: match xorshift(state) % 3 {
                    0 => treep::MulticastPayload::Data(arb_bytes(state, 256)),
                    1 => treep::MulticastPayload::Aggregate(arb_query(state)),
                    _ => treep::MulticastPayload::Topic {
                        topic: NodeId(xorshift(state)),
                        data: arb_bytes(state, 256),
                    },
                },
                budget: (xorshift(state) % 256) as u32,
                hops: (xorshift(state) % 256) as u32,
                phase: match xorshift(state) % 4 {
                    0 => treep::MulticastPhase::Up,
                    1 => treep::MulticastPhase::BusLeft,
                    2 => treep::MulticastPhase::BusRight,
                    _ => treep::MulticastPhase::Down,
                },
                bus_level: (xorshift(state) % 8) as u32,
            },
            18 => TreePMessage::AggregateUp {
                origin: arb_peer(state),
                request_id: RequestId(xorshift(state)),
                query: arb_query(state),
                partial: arb_partial(state),
                truncated: xorshift(state).is_multiple_of(2),
                final_answer: xorshift(state).is_multiple_of(2),
            },
            19 => TreePMessage::ReplicaPut {
                sender: arb_peer(state),
                key: NodeId(xorshift(state)),
                value: arb_bytes(state, 256),
            },
            20 => TreePMessage::ReplicaSyncRequest {
                sender: arb_peer(state),
                range: treep::KeyRange::new(NodeId(xorshift(state)), NodeId(xorshift(state))),
                keys: (0..xorshift(state) % 8)
                    .map(|_| NodeId(xorshift(state)))
                    .collect(),
            },
            21 => TreePMessage::ReplicaSyncReply {
                sender: arb_peer(state),
                range: treep::KeyRange::new(NodeId(xorshift(state)), NodeId(xorshift(state))),
                entries: (0..xorshift(state) % 5)
                    .map(|_| ReplicaEntry {
                        key: NodeId(xorshift(state)),
                        value: arb_bytes(state, 64),
                    })
                    .collect(),
                want: (0..xorshift(state) % 8)
                    .map(|_| NodeId(xorshift(state)))
                    .collect(),
            },
            22 => TreePMessage::MulticastAck {
                origin: NodeAddr(xorshift(state)),
                request_id: RequestId(xorshift(state)),
            },
            23 => TreePMessage::AggregateAck {
                origin: NodeAddr(xorshift(state)),
                request_id: RequestId(xorshift(state)),
            },
            24 => TreePMessage::GetVersioned {
                request_id: RequestId(xorshift(state)),
                origin: arb_peer(state),
                key: NodeId(xorshift(state)),
                ttl: (xorshift(state) % 32) as u32,
                min_stamp: if xorshift(state).is_multiple_of(2) {
                    Some(arb_stamp(state))
                } else {
                    None
                },
                path: (0..xorshift(state) % 5)
                    .map(|_| NodeAddr(xorshift(state)))
                    .collect(),
            },
            25 => TreePMessage::GetVersionedReply {
                request_id: RequestId(xorshift(state)),
                origin: NodeAddr(xorshift(state)),
                key: NodeId(xorshift(state)),
                value: if xorshift(state).is_multiple_of(2) {
                    Some(StampedValue {
                        stamp: arb_stamp(state),
                        value: arb_bytes(state, 64),
                    })
                } else {
                    None
                },
                source: match xorshift(state) % 3 {
                    0 => ReadSource::Responsible,
                    1 => ReadSource::Replica,
                    _ => ReadSource::Cache,
                },
                hops: (xorshift(state) % 256) as u32,
                responder: arb_peer(state),
                path: (0..xorshift(state) % 5)
                    .map(|_| NodeAddr(xorshift(state)))
                    .collect(),
            },
            26 => TreePMessage::PutVersioned {
                request_id: RequestId(xorshift(state)),
                origin: arb_peer(state),
                key: NodeId(xorshift(state)),
                stamp: arb_stamp(state),
                value: arb_bytes(state, 64),
                ttl: (xorshift(state) % 32) as u32,
            },
            27 => TreePMessage::PutVersionedAck {
                request_id: RequestId(xorshift(state)),
                key: NodeId(xorshift(state)),
                stamp: arb_stamp(state),
                stored_at: arb_peer(state),
            },
            28 => TreePMessage::ReadRepair {
                sender: arb_peer(state),
                key: NodeId(xorshift(state)),
                stamp: arb_stamp(state),
                value: arb_bytes(state, 64),
            },
            29 => TreePMessage::ReadVerify {
                server: arb_peer(state),
                key: NodeId(xorshift(state)),
                served_stamp: arb_stamp(state),
                ttl: (xorshift(state) % 32) as u32,
            },
            30 => TreePMessage::Subscribe {
                request_id: RequestId(xorshift(state)),
                origin: arb_peer(state),
                topic: NodeId(xorshift(state)),
                ttl: (xorshift(state) % 32) as u32,
            },
            31 => TreePMessage::SubscribeAck {
                request_id: RequestId(xorshift(state)),
                topic: NodeId(xorshift(state)),
                subscribers: (xorshift(state) % 4096) as u32,
                stored_at: arb_peer(state),
            },
            32 => TreePMessage::Unsubscribe {
                request_id: RequestId(xorshift(state)),
                origin: arb_peer(state),
                topic: NodeId(xorshift(state)),
                ttl: (xorshift(state) % 32) as u32,
            },
            33 => TreePMessage::FilterReport {
                child: arb_peer(state),
                topics: (0..xorshift(state) % 8)
                    .map(|_| NodeId(xorshift(state)))
                    .collect(),
                overflow: xorshift(state).is_multiple_of(2),
            },
            other => panic!("variant index {other} not mapped; update arb_message"),
        }
    }

    fn arb_stamp(state: &mut u64) -> VersionStamp {
        VersionStamp {
            version: xorshift(state),
            origin: NodeId(xorshift(state)),
        }
    }

    fn arb_query(state: &mut u64) -> treep::AggregateQuery {
        match xorshift(state) % 4 {
            0 => treep::AggregateQuery::CountNodes,
            1 => treep::AggregateQuery::MaxCapability,
            2 => treep::AggregateQuery::DhtKeyDigest,
            _ => treep::AggregateQuery::KeysInRange,
        }
    }

    fn arb_partial(state: &mut u64) -> treep::AggregatePartial {
        match xorshift(state) % 4 {
            0 => treep::AggregatePartial::Count(xorshift(state)),
            1 => treep::AggregatePartial::MaxCapability((xorshift(state) % 1001) as u16),
            2 => treep::AggregatePartial::Digest {
                xor: xorshift(state),
                count: xorshift(state),
            },
            _ => treep::AggregatePartial::Keys(
                (0..xorshift(state) % 8)
                    .map(|_| NodeId(xorshift(state)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn every_variant_round_trips_with_random_fields() {
        let mut state = 0x5eed_c0dec;
        for round in 0..200 {
            for variant in 0..VARIANTS {
                let msg = arb_message(variant, &mut state);
                let encoded = encode_message(&msg);
                let decoded = decode_message(&encoded)
                    .unwrap_or_else(|e| panic!("round {round} variant {variant}: {e}"));
                assert_eq!(decoded, msg, "round {round} variant {variant}");
            }
        }
    }

    /// Exhaustive (no wildcard arm) mapping from message to its
    /// `arb_message` variant index: adding a `TreePMessage` variant without
    /// extending the generator breaks compilation here, which is the
    /// enforcement the round-trip test needs.
    fn variant_index(msg: &TreePMessage) -> usize {
        match msg {
            TreePMessage::JoinRequest { .. } => 0,
            TreePMessage::JoinAck { .. } => 1,
            TreePMessage::KeepAlive { .. } => 2,
            TreePMessage::KeepAliveAck { .. } => 3,
            TreePMessage::ChildReport { .. } => 4,
            TreePMessage::ChildReportAck { .. } => 5,
            TreePMessage::ElectionCall { .. } => 6,
            TreePMessage::ParentAnnounce { .. } => 7,
            TreePMessage::ParentAccept { .. } => 8,
            TreePMessage::Demotion { .. } => 9,
            TreePMessage::Lookup(_) => 10,
            TreePMessage::LookupFound { .. } => 11,
            TreePMessage::LookupNotFound { .. } => 12,
            TreePMessage::DhtPut { .. } => 13,
            TreePMessage::DhtPutAck { .. } => 14,
            TreePMessage::DhtGet { .. } => 15,
            TreePMessage::DhtGetReply { .. } => 16,
            TreePMessage::MulticastDown { .. } => 17,
            TreePMessage::AggregateUp { .. } => 18,
            TreePMessage::ReplicaPut { .. } => 19,
            TreePMessage::ReplicaSyncRequest { .. } => 20,
            TreePMessage::ReplicaSyncReply { .. } => 21,
            TreePMessage::MulticastAck { .. } => 22,
            TreePMessage::AggregateAck { .. } => 23,
            TreePMessage::GetVersioned { .. } => 24,
            TreePMessage::GetVersionedReply { .. } => 25,
            TreePMessage::PutVersioned { .. } => 26,
            TreePMessage::PutVersionedAck { .. } => 27,
            TreePMessage::ReadRepair { .. } => 28,
            TreePMessage::ReadVerify { .. } => 29,
            TreePMessage::Subscribe { .. } => 30,
            TreePMessage::SubscribeAck { .. } => 31,
            TreePMessage::Unsubscribe { .. } => 32,
            TreePMessage::FilterReport { .. } => 33,
        }
    }

    #[test]
    fn variant_count_matches_the_enum() {
        let mut state = 1;
        for v in 0..VARIANTS {
            assert_eq!(
                variant_index(&arb_message(v, &mut state)),
                v,
                "arb_message({v}) generates the wrong variant"
            );
        }
        // `variant_index` is exhaustive, so `VARIANTS` must equal the
        // number of match arms above.
        assert_eq!(VARIANTS, 34);
    }

    #[test]
    fn random_bytes_never_panic() {
        let mut state = 0x5eed_fffe;
        for _ in 0..500 {
            let bytes = arb_bytes(&mut state, 256);
            let _ = decode_message(&bytes);
        }
    }

    #[test]
    fn truncated_random_messages_are_rejected_not_panicking() {
        let mut state = 0x5eed_aaaa;
        for variant in 0..VARIANTS {
            let msg = arb_message(variant, &mut state);
            let encoded = encode_message(&msg);
            for cut in 0..encoded.len() {
                assert!(decode_message(&encoded[..cut]).is_err());
            }
        }
    }
}
