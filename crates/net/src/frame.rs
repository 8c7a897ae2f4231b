//! Batch wire framing.
//!
//! A flushed output buffer becomes exactly one *frame* on the wire: a
//! fixed 60-byte header, then the body. All integers are little-endian.
//!
//! ```text
//! offset  len  field
//!      0    4  magic          "NPTF"
//!      4    1  version        PROTOCOL_VERSION
//!      5    1  kind           0 data, 1 heartbeat, 2 ack, 3 hello, 4 barrier
//!      6    1  present        bit 0: `seq` is set, bit 1: `trace` is set
//!      7    1  reserved       zero
//!      8    8  link_id
//!     16    8  base_seq       data: sequence of the first message;
//!                             control: the value (see `ControlKind`)
//!     24    4  count          messages in the body
//!     28    4  body_len
//!     32    8  sent_at        sender wall clock at flush, µs; 0 = unstamped
//!     40    8  seq            per-link frame sequence number, or zero
//!     48    8  trace          causal trace id, or zero
//!     56    4  crc32          over bytes 0..56 of the header, then the body
//!     60       body           body_len bytes
//! ```
//!
//! [`FrameHeader`] is that header in memory; [`encode_frame_into`] is the
//! one function that writes it and [`FrameDecoder`] the one that reads it
//! ([`decode_frame`] and [`read_frame`] drive a decoder over a slice and a
//! blocking reader).
//!
//! The body of a data frame is the selective-compression framing (see
//! `neptune-compress`) of `count` messages laid end to end, each as
//! `[msg_len (4B LE) | msg bytes]`; a control frame has none. `base_seq` is
//! the sequence number of the first message in the batch; messages are
//! contiguous, which is how the receiver enforces the paper's in-order,
//! exactly-once delivery within a link. `seq` numbers whole frames:
//! receivers ack cumulatively against it and senders replay unacked frames
//! on reconnect. `sent_at` lets the receive side measure flush→receive
//! latency, and `trace` tags the frame of a sampled source packet so every
//! hop records spans against one id.
//!
//! The CRC32 (IEEE 802.3 polynomial, see [`crate::crc`]) covers every byte
//! of the frame but its own four, so a bit flipped anywhere in transit —
//! payload, length, link id, either sequence number — is an error, not a
//! delivery to the wrong link or dedup cursor; the paper's correctness
//! goal, *"our proposed solution should not result in dropped or corrupted
//! stream packets"*, is checked, not assumed. It is computed where the
//! bytes already are: over the finished frame on encode, chunk by chunk as
//! the body arrives on decode.
//!
//! The decoder accepts this layout and nothing else. A frame with another
//! magic or version, an unknown kind or presence bit, a non-zero reserved
//! byte, a body over [`MAX_BODY_LEN`] or a control kind with a body is
//! refused when its header completes, before any body is buffered; nothing
//! is skipped or guessed at. Any change to the layout bumps
//! [`PROTOCOL_VERSION`].
//!
//! Decoding is zero-copy per message (§III-B3's object-reuse principle
//! applied to the receive path): a decoded [`Frame`] holds one refcounted
//! [`Bytes`] batch buffer plus `(offset, len)` ranges into it — see
//! [`FrameMessages`] — so splitting a batch into messages allocates
//! nothing per message, and the batch buffer can be returned to a
//! [`crate::pool::BytesPool`] once the frame is consumed.

use crate::crc::Crc32;
use crate::pool::BytesPool;
use bytes::{Bytes, BytesMut};
use neptune_compress::{lz4, Payload, SelectiveCompressor};
use std::io::Read;
use std::time::Instant;

/// Frame magic: `"NPTF"` little-endian.
pub const MAGIC: u32 = 0x4654_504E;
/// Wire protocol version, carried in every frame header. The layout has no
/// additive path: any change to it bumps this, and a decoder refuses every
/// version but its own.
pub const PROTOCOL_VERSION: u8 = 2;
/// Header size in bytes — the same for every frame.
pub const FRAME_HEADER_LEN: usize = 60;
/// Cap on the body length accepted by the decoder (a corrupted length field
/// must not trigger a huge allocation).
pub const MAX_BODY_LEN: usize = 64 << 20;

/// Bytes an uncompressed data frame carrying `raw_len` bytes of
/// length-prefixed messages occupies on the wire: header, compression tag,
/// batch. Transports that never encode (in-process hand-over) account this
/// much per frame, so every flavour reports the same bytes for the same
/// traffic. A control frame is [`FRAME_HEADER_LEN`] alone.
pub const fn wire_len(raw_len: usize) -> usize {
    FRAME_HEADER_LEN + 1 + raw_len
}

/// The messages of one decoded frame: a single refcounted batch buffer
/// plus per-message `(offset, len)` ranges into it.
///
/// Splitting a batch this way performs **zero per-message allocations** —
/// the ranges vector is the only per-frame allocation, amortized across
/// the whole batch. Messages read as `&[u8]` slices; the batch buffer
/// itself can be reclaimed via [`into_batch`](Self::into_batch) +
/// [`BytesPool::recycle`] once every message has been processed.
#[derive(Debug, Clone)]
pub struct FrameMessages {
    batch: Bytes,
    ranges: Vec<(u32, u32)>,
}

impl FrameMessages {
    /// Empty message set.
    pub fn empty() -> Self {
        FrameMessages { batch: Bytes::new(), ranges: Vec::new() }
    }

    /// Parse a length-prefixed concatenation (`[len u32 LE | bytes] *`)
    /// into message ranges — the zero-copy receive-side split. When
    /// `expected_count` is given, the number of parsed messages must match.
    pub fn parse_prefixed(batch: Bytes, expected_count: Option<u32>) -> Result<Self, String> {
        // Every message costs at least its 4-byte prefix, so a hostile
        // count cannot reserve more than the batch could hold.
        let mut ranges =
            Vec::with_capacity((expected_count.unwrap_or(8) as usize).min(batch.len() / 4));
        let mut i = 0usize;
        while i < batch.len() {
            if i + 4 > batch.len() {
                return Err(format!("dangling length prefix at offset {i}"));
            }
            let len = u32::from_le_bytes(batch[i..i + 4].try_into().expect("slice len")) as usize;
            i += 4;
            if i + len > batch.len() {
                return Err(format!("message at offset {i} overruns buffer"));
            }
            ranges.push((i as u32, len as u32));
            i += len;
        }
        if let Some(count) = expected_count {
            if ranges.len() != count as usize {
                return Err(format!("count {} but {} messages", count, ranges.len()));
            }
        }
        Ok(FrameMessages { batch, ranges })
    }

    /// Build from discrete messages (tests and compatibility paths): the
    /// messages are copied once into a fresh length-prefixed batch.
    pub fn from_messages(messages: &[impl AsRef<[u8]>]) -> Self {
        let total: usize = messages.iter().map(|m| 4 + m.as_ref().len()).sum();
        let mut batch = Vec::with_capacity(total);
        let mut ranges = Vec::with_capacity(messages.len());
        for m in messages {
            let m = m.as_ref();
            batch.extend_from_slice(&(m.len() as u32).to_le_bytes());
            ranges.push((batch.len() as u32, m.len() as u32));
            batch.extend_from_slice(m);
        }
        FrameMessages { batch: Bytes::from(batch), ranges }
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True when there are no messages.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Message `i` as a slice, or `None` out of range.
    pub fn get(&self, i: usize) -> Option<&[u8]> {
        let &(off, len) = self.ranges.get(i)?;
        Some(&self.batch[off as usize..off as usize + len as usize])
    }

    /// Message `i` together with the 4-byte length prefix that precedes it
    /// in the batch — the `[len u32 LE | bytes]` form an output buffer
    /// appends as is, so a message can be forwarded without re-framing.
    ///
    /// Panics when out of range.
    pub fn prefixed(&self, i: usize) -> &[u8] {
        let (off, len) = self.ranges[i];
        &self.batch[off as usize - 4..(off + len) as usize]
    }

    /// Iterate over the messages as slices.
    pub fn iter(&self) -> FrameMessagesIter<'_> {
        FrameMessagesIter { batch: &self.batch, ranges: self.ranges.iter() }
    }

    /// Sum of message payload sizes (the "useful" bytes).
    pub fn payload_bytes(&self) -> usize {
        self.ranges.iter().map(|&(_, len)| len as usize).sum()
    }

    /// The shared batch buffer backing every message.
    pub fn batch(&self) -> &Bytes {
        &self.batch
    }

    /// Message `i` as a refcounted zero-copy slice of the batch buffer.
    ///
    /// Panics when out of range.
    pub fn message_bytes(&self, i: usize) -> Bytes {
        let (off, len) = self.ranges[i];
        self.batch.slice(off as usize..(off + len) as usize)
    }

    /// Consume the messages, yielding the batch buffer for recycling (see
    /// [`BytesPool::recycle`]).
    pub fn into_batch(self) -> Bytes {
        self.batch
    }
}

/// Iterator over a frame's messages as byte slices.
pub struct FrameMessagesIter<'a> {
    batch: &'a [u8],
    ranges: std::slice::Iter<'a, (u32, u32)>,
}

impl<'a> Iterator for FrameMessagesIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let &(off, len) = self.ranges.next()?;
        Some(&self.batch[off as usize..(off + len) as usize])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ranges.size_hint()
    }
}

impl<'a> ExactSizeIterator for FrameMessagesIter<'a> {}

impl<'a> IntoIterator for &'a FrameMessages {
    type Item = &'a [u8];
    type IntoIter = FrameMessagesIter<'a>;

    fn into_iter(self) -> FrameMessagesIter<'a> {
        self.iter()
    }
}

impl std::ops::Index<usize> for FrameMessages {
    type Output = [u8];

    fn index(&self, i: usize) -> &[u8] {
        self.get(i).expect("message index out of range")
    }
}

impl PartialEq for FrameMessages {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl Eq for FrameMessages {}

impl<T: AsRef<[u8]>> PartialEq<Vec<T>> for FrameMessages {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b.as_ref())
    }
}

impl<T: AsRef<[u8]>> PartialEq<FrameMessages> for Vec<T> {
    fn eq(&self, other: &FrameMessages) -> bool {
        other == self
    }
}

impl FromIterator<Vec<u8>> for FrameMessages {
    fn from_iter<I: IntoIterator<Item = Vec<u8>>>(iter: I) -> Self {
        let collected: Vec<Vec<u8>> = iter.into_iter().collect();
        FrameMessages::from_messages(&collected)
    }
}

/// What a control frame carries. The kind is the header's kind byte; the
/// associated value rides in the `base_seq` field and there is no body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlKind {
    /// Link liveness probe. Value: an opaque, monotonically increasing
    /// nonce; the receiver answers with an [`ControlKind::Ack`] carrying
    /// its cumulative delivery watermark.
    Heartbeat,
    /// Cumulative acknowledgement. Value: the next *message* sequence the
    /// receiver expects on this link — everything below it may be trimmed
    /// from the sender's replay buffer.
    Ack,
    /// Capability announcement, sent as the *first* frame on a connection
    /// by `neptuned` peers. Value: the sender's capability byte (`CAP_*`).
    /// The protocol version needs no announcing — it is in this frame's
    /// header as in every other.
    Hello,
    /// Aligned-checkpoint barrier (Chandy–Lamport style). Value: the
    /// checkpoint id, monotonically increasing per job; `u64::MAX` is the
    /// *final* barrier a finished source emits so downstream alignment
    /// never waits on a closed channel. Barriers are injected at sources,
    /// flow in-band behind every data frame flushed before them, and are
    /// aligned at multi-input operators before state is snapshotted.
    Barrier,
}

/// Capability bit: the peer propagates trace ids.
pub const CAP_TRACE: u8 = 0x01;
/// Capability bit: the peer sequences frames and replays unacked ones.
pub const CAP_SEQ_REPLAY: u8 = 0x02;
/// Capability bit: the peer understands entropy-compressed frame bodies.
pub const CAP_COMPRESS: u8 = 0x04;
/// Capability byte a current full-featured build announces.
pub const CAPS_ALL: u8 = CAP_TRACE | CAP_SEQ_REPLAY | CAP_COMPRESS;

/// The frame header: what the wire carries ahead of the body, and what the
/// link stack hands a transport to send. `body_len` and the CRC are
/// properties of an encoded frame, so the encoder derives them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameHeader {
    /// Link this frame belongs to.
    pub link_id: u64,
    /// Data: sequence number of the first message. Control: the value.
    pub base_seq: u64,
    /// Messages in the body.
    pub count: u32,
    /// `None` for a data frame.
    pub control: Option<ControlKind>,
    /// Sender wall clock at flush, µs since the Unix epoch; 0 = unstamped.
    pub sent_at_micros: u64,
    /// Per-link frame sequence number; `None` on links without ack/replay.
    pub seq: Option<u64>,
    /// Causal trace id; `None` for unsampled frames.
    pub trace: Option<u64>,
}

/// A decoded frame.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Link this batch belongs to.
    pub link_id: u64,
    /// Sequence number of the first message.
    pub base_seq: u64,
    /// The batched messages, in emission order.
    pub messages: FrameMessages,
    /// Total bytes this frame occupied on the wire (header + body).
    pub wire_len: usize,
    /// Sender wall clock (µs since the Unix epoch) at flush time; `0`
    /// when the sender did not stamp the frame.
    pub sent_at_micros: u64,
    /// Local instant the frame landed on the destination queue. Set by
    /// transports on delivery, never carried on the wire; the receiving
    /// task's schedule delay is measured against it.
    pub received_at: Option<Instant>,
    /// Per-link frame sequence number; `None` when the sender does not
    /// run ack/replay on this link.
    pub seq: Option<u64>,
    /// Set when this is a control frame; the control value (ack watermark,
    /// heartbeat nonce, capability byte, checkpoint id) is in `base_seq`
    /// and `messages` is empty.
    pub control: Option<ControlKind>,
    /// Causal trace id; `None` for unsampled frames or senders without
    /// tracing.
    pub trace: Option<u64>,
}

/// Equality compares wire content only — the telemetry stamps
/// (`sent_at_micros`, `received_at`, `trace`) are measurement metadata,
/// not payload, and differ between otherwise-identical frames.
impl PartialEq for Frame {
    fn eq(&self, other: &Self) -> bool {
        self.link_id == other.link_id
            && self.base_seq == other.base_seq
            && self.messages == other.messages
            && self.wire_len == other.wire_len
            && self.seq == other.seq
            && self.control == other.control
    }
}

impl Eq for Frame {}

impl Frame {
    /// Number of messages in the batch.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// True when the batch holds no messages.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// Sum of message payload sizes (the "useful" bytes).
    pub fn payload_bytes(&self) -> usize {
        self.messages.payload_bytes()
    }
}

/// Framing/deframing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// First four bytes were not the frame magic.
    BadMagic(u32),
    /// The frame's version byte is not [`PROTOCOL_VERSION`]; holds the
    /// peer's.
    UnsupportedVersion(u8),
    /// A header field holds something this layout does not define.
    MalformedHeader(String),
    /// CRC mismatch — corruption on the wire.
    CrcMismatch {
        /// CRC in the header.
        expected: u32,
        /// CRC of the received header and body.
        actual: u32,
    },
    /// Declared body length exceeds [`MAX_BODY_LEN`].
    OversizedBody(usize),
    /// Body did not decode into `count` well-formed messages.
    MalformedBody(String),
    /// Underlying IO failed (socket closed, truncated read).
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#x}"),
            FrameError::UnsupportedVersion(v) => {
                write!(f, "frame is protocol v{v}, this build speaks v{PROTOCOL_VERSION}")
            }
            FrameError::MalformedHeader(msg) => write!(f, "malformed frame header: {msg}"),
            FrameError::CrcMismatch { expected, actual } => {
                write!(f, "crc mismatch: header says {expected:#x}, frame sums to {actual:#x}")
            }
            FrameError::OversizedBody(n) => write!(f, "oversized frame body: {n} bytes"),
            FrameError::MalformedBody(msg) => write!(f, "malformed frame body: {msg}"),
            FrameError::Io(msg) => write!(f, "frame io error: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e.to_string())
    }
}

/// Presence bit: the header's `seq` field is set.
const PRESENT_SEQ: u8 = 0b01;
/// Presence bit: the header's `trace` field is set.
const PRESENT_TRACE: u8 = 0b10;
/// Offset of the version byte within the header.
pub(crate) const VERSION_AT: usize = 4;
/// Offset of `body_len` within the header.
const BODY_LEN_AT: usize = 28;
/// Offset of the CRC within the header: its last four bytes.
const CRC_AT: usize = FRAME_HEADER_LEN - 4;

/// The encoder: append one frame to `out`, built in place — the header,
/// then for a data frame the selective-compression framing of `raw`
/// written (or LZ4-compressed) straight into `out` behind it, then the
/// body length and the CRC of what landed patched into the header. No
/// intermediate body buffer, and no allocation at all when `out` is a
/// recycled wire buffer with room (see
/// [`crate::tcp::TcpSender::wire_buffer`]).
///
/// `raw` is the length-prefixed concatenation an output buffer flushes
/// ([`crate::buffer::FlushedBatch`]); a control frame has no body, so its
/// `raw` must be empty.
pub fn encode_frame_into(
    out: &mut Vec<u8>,
    header: &FrameHeader,
    raw: &[u8],
    compressor: &SelectiveCompressor,
) {
    assert!(header.control.is_none() || raw.is_empty(), "a control frame carries no body");
    let kind = match header.control {
        None => 0u8,
        Some(ControlKind::Heartbeat) => 1,
        Some(ControlKind::Ack) => 2,
        Some(ControlKind::Hello) => 3,
        Some(ControlKind::Barrier) => 4,
    };
    let mut present = 0u8;
    if header.seq.is_some() {
        present |= PRESENT_SEQ;
    }
    if header.trace.is_some() {
        present |= PRESENT_TRACE;
    }
    let start = out.len();
    out.reserve(wire_len(raw.len()));
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&[PROTOCOL_VERSION, kind, present, 0]);
    out.extend_from_slice(&header.link_id.to_le_bytes());
    out.extend_from_slice(&header.base_seq.to_le_bytes());
    out.extend_from_slice(&header.count.to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // body_len, patched below
    out.extend_from_slice(&header.sent_at_micros.to_le_bytes());
    out.extend_from_slice(&header.seq.unwrap_or(0).to_le_bytes());
    out.extend_from_slice(&header.trace.unwrap_or(0).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // crc, patched below
    let body_at = start + FRAME_HEADER_LEN;
    debug_assert_eq!(out.len(), body_at);
    if header.control.is_none() {
        compressor.encode_into(raw, out);
    }
    let body_len = u32::try_from(out.len() - body_at).expect("frame body under 4 GiB");
    out[start + BODY_LEN_AT..][..4].copy_from_slice(&body_len.to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&out[start..start + CRC_AT]);
    crc.update(&out[body_at..]);
    out[start + CRC_AT..body_at].copy_from_slice(&crc.finalize().to_le_bytes());
}

/// [`encode_frame_into`] a fresh vector: a bare data frame (unstamped,
/// unsequenced, untraced) around an already length-prefixed batch.
pub fn encode_frame_raw(
    link_id: u64,
    base_seq: u64,
    count: u32,
    raw: &[u8],
    compressor: &SelectiveCompressor,
) -> Vec<u8> {
    let mut out = Vec::new();
    let header = FrameHeader { link_id, base_seq, count, ..FrameHeader::default() };
    encode_frame_into(&mut out, &header, raw, compressor);
    out
}

/// Encode a batch of discrete messages into one bare data frame (tests,
/// the control protocol): the messages are length-prefixed into a scratch
/// batch first.
pub fn encode_frame(
    link_id: u64,
    base_seq: u64,
    messages: &[impl AsRef<[u8]>],
    compressor: &SelectiveCompressor,
) -> Vec<u8> {
    let raw = FrameMessages::from_messages(messages).into_batch();
    encode_frame_raw(link_id, base_seq, messages.len() as u32, &raw, compressor)
}

/// Encode a control frame. `value` rides in the `base_seq` header field
/// (see [`ControlKind`] for what each kind puts there).
pub fn encode_control_frame(link_id: u64, kind: ControlKind, value: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN);
    let header =
        FrameHeader { link_id, base_seq: value, control: Some(kind), ..FrameHeader::default() };
    encode_frame_into(&mut out, &header, &[], &SelectiveCompressor::disabled());
    out
}

/// Encode the hello a `neptuned` peer sends first on a new connection,
/// announcing capability byte `caps`.
pub fn encode_hello_frame(link_id: u64, caps: u8) -> Vec<u8> {
    encode_control_frame(link_id, ControlKind::Hello, u64::from(caps))
}

/// A header off the wire: the fields, plus the two properties of the
/// encoded frame the decoder needs to finish it.
#[derive(Debug, Clone, Copy, Default)]
struct WireHeader {
    fields: FrameHeader,
    body_len: usize,
    crc: u32,
}

/// The parser: check a complete header against the layout and lift its
/// fields. The CRC can only be verified once the body is in.
fn parse_header(bytes: &[u8; FRAME_HEADER_LEN]) -> Result<WireHeader, FrameError> {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("slice len"));
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("slice len"));
    let malformed = |what: String| Err(FrameError::MalformedHeader(what));
    if u32_at(0) != MAGIC {
        return Err(FrameError::BadMagic(u32_at(0)));
    }
    // Before anything else: another version may lay the rest out otherwise.
    if bytes[VERSION_AT] != PROTOCOL_VERSION {
        return Err(FrameError::UnsupportedVersion(bytes[VERSION_AT]));
    }
    let control = match bytes[5] {
        0 => None,
        1 => Some(ControlKind::Heartbeat),
        2 => Some(ControlKind::Ack),
        3 => Some(ControlKind::Hello),
        4 => Some(ControlKind::Barrier),
        other => return malformed(format!("unknown frame kind {other}")),
    };
    let present = bytes[6];
    if present & !(PRESENT_SEQ | PRESENT_TRACE) != 0 {
        return malformed(format!("unknown presence bits {present:#04x}"));
    }
    if bytes[7] != 0 {
        return malformed(format!("reserved byte is {:#04x}", bytes[7]));
    }
    let body_len = u32_at(BODY_LEN_AT) as usize;
    if body_len > MAX_BODY_LEN {
        return Err(FrameError::OversizedBody(body_len));
    }
    if control.is_some() && body_len != 0 {
        return malformed(format!("control frame carries a {body_len}-byte body"));
    }
    Ok(WireHeader {
        fields: FrameHeader {
            link_id: u64_at(8),
            base_seq: u64_at(16),
            count: u32_at(24),
            control,
            sent_at_micros: u64_at(32),
            seq: (present & PRESENT_SEQ != 0).then(|| u64_at(40)),
            trace: (present & PRESENT_TRACE != 0).then(|| u64_at(48)),
        },
        body_len,
        crc: u32_at(CRC_AT),
    })
}

/// An empty buffer with room for `len` body bytes, pooled when there is a pool.
fn body_storage(pool: Option<&BytesPool>, len: usize) -> BytesMut {
    match pool {
        Some(p) => p.checkout(len),
        None => BytesMut::with_capacity(len),
    }
}

/// Strip the selective-compression framing off a wire body, yielding the
/// length-prefixed batch. The hot path — an uncompressed body — is a
/// zero-copy slice of the shared buffer. A compressed body decompresses
/// once, straight into the storage that becomes the frame's batch (drawn
/// from `pool` when given), and the spent wire body goes back to the pool.
fn decode_body(body: Bytes, pool: Option<&BytesPool>) -> Result<Bytes, FrameError> {
    let malformed = |e: &dyn std::fmt::Display| FrameError::MalformedBody(e.to_string());
    let (original_len, block) =
        match SelectiveCompressor::split(&body).map_err(|e| malformed(&e))? {
            Payload::Raw(_) => return Ok(body.slice(1..)),
            Payload::Lz4 { original_len, block } => (original_len, block),
        };
    if original_len > MAX_BODY_LEN {
        return Err(FrameError::OversizedBody(original_len));
    }
    let mut batch = body_storage(pool, original_len);
    batch.resize(original_len, 0);
    let decoded = lz4::decompress_exact(block, &mut batch);
    if let Some(p) = pool {
        p.recycle(body);
    }
    match decoded {
        Ok(()) => Ok(batch.freeze()),
        Err(e) => {
            if let Some(p) = pool {
                p.recycle_mut(batch);
            }
            Err(malformed(&e))
        }
    }
}

/// Decode the frame at the front of a byte slice; returns the frame and
/// the number of input bytes consumed. Used by the simulator and by tests.
/// The body is copied once into a fresh buffer.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
    match FrameDecoder::new().feed(buf, None)? {
        (used, Some(frame)) => Ok((frame, used)),
        (_, None) => Err(FrameError::Io(format!("buffer ends {} bytes into a frame", buf.len()))),
    }
}

/// Most body bytes the blocking reader pulls per read, so the CRC folds
/// over each piece while it is still in cache.
const READ_CHUNK: usize = 64 << 10;

/// Read exactly one frame from a blocking reader (the cluster control
/// connection, tests): the header, then the body read in place, into a
/// fresh buffer.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut dec = FrameDecoder::new();
    let mut header = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut header)?;
    let mut done = dec.feed(&header, None)?.1;
    while done.is_none() {
        let window = dec.body_window();
        let n = window.len().min(READ_CHUNK);
        r.read_exact(&mut window[..n])?;
        done = dec.commit(n, None)?;
    }
    Ok(done.expect("loop exits on a frame"))
}

/// Which wire section the incremental decoder is currently filling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DecodeStage {
    Header,
    Body,
}

/// Incremental frame decoder.
///
/// On the readiness-driven path a socket hands over however many bytes the
/// kernel has — possibly splitting a frame mid-header or mid-body — so the
/// decoder is resumable at *every* byte boundary. [`feed`](Self::feed)
/// consumes as much of the input as it can, returns a completed [`Frame`]
/// as soon as one closes, and parks its partial state (header scratch plus
/// a body buffer drawn from the [`BytesPool`]) across `WouldBlock` gaps.
/// The CRC is folded over the header and then each piece of the body as
/// it arrives, so closing a frame only compares.
///
/// A caller that owns the socket can skip the staging copy for large
/// bodies: read straight into [`body_window`](Self::body_window) and
/// report the count with [`commit`](Self::commit).
///
/// A decode error leaves the decoder on a frame boundary; the transport
/// treats it as fatal for the connection.
#[derive(Debug)]
pub struct FrameDecoder {
    stage: DecodeStage,
    /// Bytes received so far of the *current* stage's section.
    filled: usize,
    header: [u8; FRAME_HEADER_LEN],
    /// The parsed header, valid in the Body stage.
    head: WireHeader,
    /// Body accumulator, checked out when the header completes. Its length
    /// is `filled` while bytes are appended through `feed`, and the full
    /// body length once `body_window` has zero-extended it.
    body: BytesMut,
    /// CRC of the header and the body bytes received so far.
    crc: Crc32,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameDecoder {
    /// A decoder positioned at a frame boundary.
    pub fn new() -> Self {
        FrameDecoder {
            stage: DecodeStage::Header,
            filled: 0,
            header: [0u8; FRAME_HEADER_LEN],
            head: WireHeader::default(),
            body: BytesMut::new(),
            crc: Crc32::new(),
        }
    }

    /// True when the decoder sits exactly on a frame boundary — no partial
    /// frame is buffered. An EOF observed while `!is_idle()` means the
    /// peer died mid-frame.
    pub fn is_idle(&self) -> bool {
        self.stage == DecodeStage::Header && self.filled == 0
    }

    /// Consume bytes from `input`, advancing the partial frame. Returns
    /// how many input bytes were consumed and the frame, if one completed.
    /// Stops after at most one frame so the caller controls delivery
    /// pacing; call again with the unconsumed tail for back-to-back
    /// frames. Body buffers (and decompression storage) come from `pool`
    /// when given. An error leaves the decoder on a frame boundary; the
    /// connection should be dropped.
    pub fn feed(
        &mut self,
        input: &[u8],
        pool: Option<&BytesPool>,
    ) -> Result<(usize, Option<Frame>), FrameError> {
        let mut consumed = 0usize;
        if self.stage == DecodeStage::Header {
            let take = (FRAME_HEADER_LEN - self.filled).min(input.len());
            self.header[self.filled..self.filled + take].copy_from_slice(&input[..take]);
            self.filled += take;
            consumed = take;
            if self.filled < FRAME_HEADER_LEN {
                return Ok((consumed, None));
            }
            self.filled = 0;
            self.head = parse_header(&self.header)?;
            self.crc = Crc32::new();
            self.crc.update(&self.header[..CRC_AT]);
            if self.head.body_len == 0 {
                // Control frames: nothing to buffer, so nothing to check
                // out of (and leak from) the pool.
                return self.finish(pool).map(|frame| (consumed, Some(frame)));
            }
            self.body = body_storage(pool, self.head.body_len);
            self.stage = DecodeStage::Body;
        }
        let rest = &input[consumed..];
        let take = (self.head.body_len - self.filled).min(rest.len());
        if self.body.len() > self.filled {
            self.body[self.filled..self.filled + take].copy_from_slice(&rest[..take]);
        } else {
            self.body.extend_from_slice(&rest[..take]);
        }
        self.commit(take, pool).map(|frame| (consumed + take, frame))
    }

    /// Body bytes still to arrive; 0 outside a body.
    pub fn body_remaining(&self) -> usize {
        match self.stage {
            DecodeStage::Body => self.head.body_len - self.filled,
            DecodeStage::Header => 0,
        }
    }

    /// Mid-body, the not-yet-received remainder of the body buffer: read
    /// socket bytes straight into its front, then [`commit`](Self::commit)
    /// the count. Empty outside a body.
    pub fn body_window(&mut self) -> &mut [u8] {
        if self.stage != DecodeStage::Body {
            return &mut [];
        }
        if self.body.len() < self.head.body_len {
            self.body.resize(self.head.body_len, 0);
        }
        &mut self.body[self.filled..]
    }

    /// Account for `n` body bytes that just landed at the front of
    /// [`body_window`](Self::body_window): fold them into the CRC and, when
    /// the body is complete, close the frame. Errors as [`feed`](Self::feed).
    ///
    /// Panics if `n` exceeds [`body_remaining`](Self::body_remaining).
    pub fn commit(
        &mut self,
        n: usize,
        pool: Option<&BytesPool>,
    ) -> Result<Option<Frame>, FrameError> {
        assert!(n <= self.body_remaining(), "commit past the end of the body");
        if self.stage != DecodeStage::Body {
            return Ok(None);
        }
        self.crc.update(&self.body[self.filled..self.filled + n]);
        self.filled += n;
        if self.filled < self.head.body_len {
            return Ok(None);
        }
        self.finish(pool).map(Some)
    }

    /// Close the frame whose last byte just arrived, leaving the decoder
    /// on the boundary whether or not the frame turns out sound. The body
    /// is only unframed once the CRC holds, and never for a control frame.
    fn finish(&mut self, pool: Option<&BytesPool>) -> Result<Frame, FrameError> {
        let body = std::mem::take(&mut self.body);
        self.stage = DecodeStage::Header;
        self.filled = 0;
        let WireHeader { fields, body_len, crc: expected } = self.head;
        let actual = self.crc.finalize();
        if actual != expected {
            return Err(FrameError::CrcMismatch { expected, actual });
        }
        let messages = match fields.control {
            Some(_) => FrameMessages::empty(),
            None => {
                let batch = decode_body(body.freeze(), pool)?;
                FrameMessages::parse_prefixed(batch, Some(fields.count))
                    .map_err(FrameError::MalformedBody)?
            }
        };
        Ok(Frame {
            link_id: fields.link_id,
            base_seq: fields.base_seq,
            messages,
            wire_len: FRAME_HEADER_LEN + body_len,
            sent_at_micros: fields.sent_at_micros,
            received_at: None,
            seq: fields.seq,
            control: fields.control,
            trace: fields.trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw_policy() -> SelectiveCompressor {
        SelectiveCompressor::disabled()
    }

    fn prefixed(msgs: &[Vec<u8>]) -> Vec<u8> {
        FrameMessages::from_messages(msgs).into_batch().to_vec()
    }

    fn encode(header: &FrameHeader, raw: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame_into(&mut out, header, raw, &raw_policy());
        out
    }

    #[test]
    fn roundtrip_simple_batch() {
        let msgs: Vec<Vec<u8>> = vec![b"alpha".to_vec(), b"bravo!".to_vec(), vec![]];
        let wire = encode_frame(42, 1000, &msgs, &raw_policy());
        let (frame, consumed) = decode_frame(&wire).unwrap();
        assert_eq!(consumed, wire.len());
        assert_eq!(frame.link_id, 42);
        assert_eq!(frame.base_seq, 1000);
        assert_eq!(frame.messages, msgs);
        assert_eq!(frame.wire_len, wire.len());
        assert_eq!(frame.wire_len, wire_len(prefixed(&msgs).len()));
        assert_eq!(frame.payload_bytes(), 11);
    }

    #[test]
    fn roundtrip_empty_batch() {
        let msgs: Vec<Vec<u8>> = vec![];
        let wire = encode_frame(1, 0, &msgs, &raw_policy());
        let (frame, _) = decode_frame(&wire).unwrap();
        assert!(frame.is_empty());
        assert_eq!(frame.len(), 0);
    }

    #[test]
    fn roundtrip_compressed_batch_shrinks() {
        let msgs: Vec<Vec<u8>> = (0..100).map(|_| vec![7u8; 100]).collect();
        let raw = encode_frame(5, 0, &msgs, &raw_policy());
        let compressed = encode_frame(5, 0, &msgs, &SelectiveCompressor::new(4.0));
        assert!(compressed.len() < raw.len() / 4, "{} vs {}", compressed.len(), raw.len());
        let (frame, _) = decode_frame(&compressed).unwrap();
        assert_eq!(frame.messages, msgs);
    }

    #[test]
    fn every_header_field_roundtrips_on_every_decode_path() {
        let msgs = vec![b"stamped".to_vec(), b"batch".to_vec()];
        let raw = prefixed(&msgs);
        let bare = FrameHeader { link_id: 3, base_seq: 50, count: 2, ..FrameHeader::default() };
        let full = FrameHeader {
            sent_at_micros: 1_722_000_000_000_123,
            seq: Some(4242),
            trace: Some(0xDEAD_BEEF),
            ..bare
        };
        // Zero is a value, not an absence: the presence bits say which.
        let zeros = FrameHeader { seq: Some(0), trace: Some(0), ..bare };
        for header in [bare, full, zeros] {
            let wire = encode(&header, &raw);
            assert_eq!(wire.len(), wire_len(raw.len()), "the header is one size");
            let (sliced, used) = decode_frame(&wire).unwrap();
            assert_eq!(used, wire.len());
            let streamed = read_frame(&mut std::io::Cursor::new(&wire)).unwrap();
            let fed = FrameDecoder::new().feed(&wire, None).unwrap().1.unwrap();
            for f in [sliced, streamed, fed] {
                assert_eq!((f.link_id, f.base_seq), (3, 50));
                assert_eq!(f.sent_at_micros, header.sent_at_micros);
                assert_eq!((f.seq, f.trace, f.control), (header.seq, header.trace, None));
                assert_eq!(f.messages, msgs);
                assert_eq!(f.wire_len, wire.len());
                assert!(f.received_at.is_none(), "the wire never carries received_at");
            }
        }
    }

    #[test]
    fn control_frames_roundtrip() {
        for (kind, value) in [
            (ControlKind::Heartbeat, 3u64),
            (ControlKind::Ack, 1_000_000),
            (ControlKind::Hello, u64::from(CAPS_ALL)),
            (ControlKind::Barrier, 42),
            // The final-barrier sentinel survives the trip too.
            (ControlKind::Barrier, u64::MAX),
        ] {
            let wire = encode_control_frame(12, kind, value);
            assert_eq!(wire.len(), FRAME_HEADER_LEN, "control frames are a header alone");
            let (f, used) = decode_frame(&wire).unwrap();
            assert_eq!(used, wire.len());
            assert_eq!(f.control, Some(kind));
            assert_eq!(f.link_id, 12);
            assert_eq!(f.base_seq, value, "control value rides in base_seq");
            assert!(f.is_empty());
            let f2 = read_frame(&mut std::io::Cursor::new(&wire)).unwrap();
            assert_eq!((f2.control, f2.base_seq), (Some(kind), value));
        }
        assert_eq!(encode_hello_frame(12, CAP_TRACE), {
            encode_control_frame(12, ControlKind::Hello, u64::from(CAP_TRACE))
        });
    }

    #[test]
    fn bad_magic_detected() {
        let msgs = vec![b"x".to_vec()];
        let mut wire = encode_frame(1, 0, &msgs, &raw_policy());
        wire[0] ^= 0xFF;
        assert!(matches!(decode_frame(&wire), Err(FrameError::BadMagic(_))));
    }

    #[test]
    fn what_the_layout_does_not_define_is_refused() {
        let data = encode_frame(1, 0, &[b"x".to_vec()], &raw_policy());
        let control = encode_control_frame(1, ControlKind::Ack, 5);
        let patched = |wire: &[u8], at: usize, byte: u8| {
            let mut wire = wire.to_vec();
            wire[at] = byte;
            decode_frame(&wire)
        };
        for wire in [&data, &control] {
            for version in [0, PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1, 255] {
                assert_eq!(
                    patched(wire, VERSION_AT, version),
                    Err(FrameError::UnsupportedVersion(version))
                );
            }
            for kind in [5u8, 99, 255] {
                assert!(matches!(patched(wire, 5, kind), Err(FrameError::MalformedHeader(_))));
            }
            for present in [0b100u8, 0b1000_0000, 0xFF] {
                assert!(matches!(patched(wire, 6, present), Err(FrameError::MalformedHeader(_))));
            }
            assert!(matches!(patched(wire, 7, 1), Err(FrameError::MalformedHeader(_))));
        }
        // A control kind with a body, however it came about.
        assert!(matches!(patched(&data, 5, 1), Err(FrameError::MalformedHeader(_))));
        assert!(matches!(patched(&control, BODY_LEN_AT, 1), Err(FrameError::MalformedHeader(_))));
    }

    #[test]
    fn corruption_is_caught_by_the_crc_header_and_body_alike() {
        let wire = encode_frame(1, 0, &[b"hello world".to_vec()], &raw_policy());
        // Last body byte, link_id, base_seq, count, the stamp, seq and
        // trace fields: none of them has a structural check to trip first.
        for at in [wire.len() - 1, 8, 16, 24, 32, 40, 48] {
            let mut bad = wire.clone();
            bad[at] ^= 0x01;
            assert!(matches!(decode_frame(&bad), Err(FrameError::CrcMismatch { .. })), "byte {at}");
        }
    }

    #[test]
    fn corrupted_header_length_rejected() {
        let msgs = vec![b"hello".to_vec()];
        let mut wire = encode_frame(1, 0, &msgs, &raw_policy());
        // Blow up the declared body length beyond the cap.
        wire[BODY_LEN_AT..BODY_LEN_AT + 4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(decode_frame(&wire), Err(FrameError::OversizedBody(_))));
    }

    #[test]
    fn truncated_buffer_is_io_error() {
        let msgs = vec![b"hello".to_vec()];
        let wire = encode_frame(1, 0, &msgs, &raw_policy());
        assert!(matches!(decode_frame(&wire[..10]), Err(FrameError::Io(_))));
        assert!(matches!(decode_frame(&wire[..wire.len() - 1]), Err(FrameError::Io(_))));
    }

    #[test]
    fn count_mismatch_detected() {
        // A sender that claims 3 messages over a body holding 2.
        let raw = prefixed(&[b"a".to_vec(), b"b".to_vec()]);
        let wire = encode_frame_raw(1, 0, 3, &raw, &raw_policy());
        assert!(matches!(decode_frame(&wire), Err(FrameError::MalformedBody(_))));
    }

    #[test]
    #[should_panic(expected = "carries no body")]
    fn the_encoder_refuses_a_control_frame_with_a_body() {
        let header = FrameHeader { control: Some(ControlKind::Ack), ..FrameHeader::default() };
        encode(&header, b"\x01\0\0\0x");
    }

    #[test]
    fn read_frame_from_stream() {
        let msgs = vec![b"stream-read".to_vec(), b"works".to_vec()];
        let wire = encode_frame(9, 77, &msgs, &SelectiveCompressor::new(6.0));
        let mut cursor = std::io::Cursor::new(wire);
        let frame = read_frame(&mut cursor).unwrap();
        assert_eq!(frame.link_id, 9);
        assert_eq!(frame.base_seq, 77);
        assert_eq!(frame.messages, msgs);
    }

    #[test]
    fn back_to_back_frames_decode_sequentially() {
        let a = encode_frame(1, 0, &[b"one".to_vec()], &raw_policy());
        let b = encode_frame(1, 1, &[b"two".to_vec()], &raw_policy());
        let mut wire = a.clone();
        wire.extend_from_slice(&b);
        let (f1, used) = decode_frame(&wire).unwrap();
        assert_eq!(used, a.len());
        let (f2, used2) = decode_frame(&wire[used..]).unwrap();
        assert_eq!(used + used2, wire.len());
        assert_eq!(f1.base_seq, 0);
        assert_eq!(f2.base_seq, 1);
    }

    #[test]
    fn pooled_read_recycles_body_buffers() {
        let pool = BytesPool::new(8);
        let msgs = vec![b"pooled".to_vec(); 10];
        let wire = encode_frame(1, 0, &msgs, &raw_policy());
        for round in 0..5 {
            let frame = FrameDecoder::new().feed(&wire, Some(&pool)).unwrap().1.unwrap();
            assert_eq!(frame.messages, msgs);
            assert!(pool.recycle(frame.messages.into_batch()), "round {round}");
        }
        let stats = pool.stats();
        assert_eq!(stats.misses, 1, "steady state must reuse the body buffer: {stats:?}");
        assert_eq!(stats.hits, 4);
    }

    #[test]
    fn pooled_read_recycles_compressed_bodies_too() {
        let pool = BytesPool::new(8);
        let msgs: Vec<Vec<u8>> = (0..50).map(|_| vec![3u8; 100]).collect();
        let wire = encode_frame(1, 0, &msgs, &SelectiveCompressor::new(4.0));
        for _ in 0..3 {
            let frame = FrameDecoder::new().feed(&wire, Some(&pool)).unwrap().1.unwrap();
            assert_eq!(frame.messages, msgs);
            pool.recycle(frame.messages.into_batch());
        }
        assert!(pool.stats().hits > 0, "decompressed bodies must come from the pool");
    }

    #[test]
    fn frame_messages_accessors() {
        let fm = FrameMessages::from_messages(&[b"ab".as_slice(), b"", b"cdef"]);
        assert_eq!(fm.len(), 3);
        assert!(!fm.is_empty());
        assert_eq!(fm.get(0), Some(b"ab".as_slice()));
        assert_eq!(fm.get(1), Some(b"".as_slice()));
        assert_eq!(&fm[2], b"cdef".as_slice());
        assert_eq!(fm.get(3), None);
        assert_eq!(fm.payload_bytes(), 6);
        assert_eq!(fm.iter().count(), 3);
        assert_eq!(fm.message_bytes(2), Bytes::from_static(b"cdef"));
        assert_eq!(fm.prefixed(0), b"\x02\0\0\0ab".as_slice());
        assert_eq!(fm.prefixed(1), b"\0\0\0\0".as_slice());
        let parsed = FrameMessages::parse_prefixed(fm.batch().clone(), Some(3)).unwrap();
        assert_eq!(parsed.prefixed(2), b"\x04\0\0\0cdef".as_slice());
        let collected: Vec<&[u8]> = (&fm).into_iter().collect();
        assert_eq!(collected, vec![b"ab".as_slice(), b"", b"cdef"]);
        assert_eq!(FrameMessages::empty().len(), 0);
    }

    #[test]
    fn frame_messages_equality() {
        let a = FrameMessages::from_messages(&[b"x".as_slice(), b"yy"]);
        let b: FrameMessages = vec![b"x".to_vec(), b"yy".to_vec()].into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(a, vec![b"x".to_vec(), b"yy".to_vec()]);
        assert_eq!(vec![b"x".to_vec(), b"yy".to_vec()], a);
        assert_ne!(a, vec![b"x".to_vec()]);
        assert_ne!(a, vec![b"x".to_vec(), b"zz".to_vec()]);
    }

    #[test]
    fn frame_equality_ignores_telemetry_stamps() {
        let wire = encode_frame(1, 0, &[b"x".to_vec()], &raw_policy());
        let (a, _) = decode_frame(&wire).unwrap();
        let mut b = a.clone();
        b.sent_at_micros = 12345;
        b.received_at = Some(Instant::now());
        assert_eq!(a, b);
    }

    #[test]
    fn parse_prefixed_rejects_corruption() {
        assert!(FrameMessages::parse_prefixed(Bytes::from_static(&[1, 2, 3]), None).is_err());
        assert!(FrameMessages::parse_prefixed(Bytes::from_static(&[10, 0, 0, 0, 1]), None).is_err());
        let ok = FrameMessages::parse_prefixed(Bytes::new(), None).unwrap();
        assert!(ok.is_empty());
        // Count mismatch.
        let one = FrameMessages::from_messages(&[b"m".as_slice()]);
        assert!(FrameMessages::parse_prefixed(one.into_batch(), Some(2)).is_err());
    }

    /// Feed `wire` to a decoder in `chunk`-byte slices, asserting the
    /// consumed-byte accounting, and return every completed frame.
    fn feed_chunked(wire: &[u8], chunk: usize, pool: Option<&BytesPool>) -> Vec<Frame> {
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        for piece in wire.chunks(chunk) {
            let mut off = 0;
            while off < piece.len() {
                let (used, frame) = dec.feed(&piece[off..], pool).unwrap();
                assert!(used > 0, "no progress on nonempty input");
                off += used;
                frames.extend(frame);
            }
        }
        assert!(dec.is_idle(), "decoder must end on a frame boundary");
        frames
    }

    #[test]
    fn incremental_decoder_matches_blocking_at_every_split() {
        // Every header field in play, two frames back to back, split at
        // every chunk size from one byte up: identical results each time.
        let msgs = vec![b"incremental".to_vec(), b"decode".to_vec()];
        let header = FrameHeader {
            link_id: 7,
            base_seq: 100,
            count: 2,
            sent_at_micros: 1_234_567,
            seq: Some(42),
            trace: Some(9),
            control: None,
        };
        let mut wire = encode(&header, &prefixed(&msgs));
        wire.extend_from_slice(&encode_control_frame(7, ControlKind::Ack, 100));
        let mut cursor = std::io::Cursor::new(&wire);
        let expect_data = read_frame(&mut cursor).unwrap();
        let expect_ctl = read_frame(&mut cursor).unwrap();
        for chunk in 1..=wire.len() {
            let frames = feed_chunked(&wire, chunk, None);
            assert_eq!(frames.len(), 2, "chunk size {chunk}");
            assert_eq!(frames[0], expect_data);
            assert_eq!(frames[0].sent_at_micros, expect_data.sent_at_micros);
            assert_eq!(frames[0].trace, expect_data.trace);
            assert_eq!(frames[1], expect_ctl);
        }
    }

    #[test]
    fn incremental_decoder_handles_compressed_bodies_and_recycles() {
        let pool = BytesPool::new(8);
        let msgs: Vec<Vec<u8>> = (0..50).map(|_| vec![9u8; 100]).collect();
        let wire = encode_frame(3, 0, &msgs, &SelectiveCompressor::new(4.0));
        for _ in 0..3 {
            let frames = feed_chunked(&wire, 13, Some(&pool));
            assert_eq!(frames.len(), 1);
            assert_eq!(frames[0].messages, msgs);
            pool.recycle(frames[0].messages.clone().into_batch());
        }
        assert!(pool.stats().hits > 0, "incremental bodies must come from the pool");
    }

    #[test]
    fn incremental_decoder_rejects_corruption_and_resets() {
        let wire = encode_frame(1, 0, &[b"good".to_vec()], &raw_policy());
        let mut dec = FrameDecoder::new();

        // Bad magic surfaces as soon as the header completes.
        let mut bad_magic = wire.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(dec.feed(&bad_magic, None), Err(FrameError::BadMagic(_))));
        assert!(dec.is_idle(), "decoder must reset after an error");

        // A flipped body bit fails the CRC even when fed byte-by-byte.
        let mut bad_body = wire.clone();
        let last = bad_body.len() - 1;
        bad_body[last] ^= 0x01;
        let mut err = None;
        for i in 0..bad_body.len() {
            if let Err(e) = dec.feed(&bad_body[i..i + 1], None) {
                err = Some(e);
                break;
            }
        }
        assert!(matches!(err, Some(FrameError::CrcMismatch { .. })));
        assert!(dec.is_idle());

        // An oversized declared body is rejected before any allocation.
        let mut oversized = wire.clone();
        oversized[BODY_LEN_AT..BODY_LEN_AT + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(dec.feed(&oversized, None), Err(FrameError::OversizedBody(_))));

        // After every rejection the same decoder still handles clean input.
        let (used, frame) = dec.feed(&wire, None).unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(frame.unwrap().messages, vec![b"good".to_vec()]);
    }

    #[test]
    fn incremental_decoder_reports_mid_frame_state() {
        let wire = encode_frame(1, 0, &[b"partial".to_vec()], &raw_policy());
        let mut dec = FrameDecoder::new();
        assert!(dec.is_idle());
        let (used, frame) = dec.feed(&wire[..FRAME_HEADER_LEN + 2], None).unwrap();
        assert_eq!(used, FRAME_HEADER_LEN + 2);
        assert!(frame.is_none());
        assert!(!dec.is_idle(), "mid-body is not a frame boundary");
        let (_, frame) = dec.feed(&wire[used..], None).unwrap();
        assert!(frame.is_some() && dec.is_idle(), "the rest of the body closes the frame");
    }
}
