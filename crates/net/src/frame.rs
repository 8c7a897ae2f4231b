//! Batch wire framing.
//!
//! A flushed output buffer becomes exactly one *frame* on the wire:
//!
//! ```text
//! | magic (4B) | flags (1B) | link_id (8B) | base_seq (8B) | count (4B)
//! | body_len (4B) | crc32 (4B) | body (body_len bytes) |
//! ```
//!
//! The body is the selective-compression framing (see `neptune-compress`)
//! of the concatenation `[msg_len (4B LE) | msg bytes] * count`. `base_seq`
//! is the sequence number of the first message in the batch; messages are
//! contiguous, which is how the receiver enforces the paper's in-order,
//! exactly-once delivery within a link.
//!
//! Decoding is zero-copy per message (§III-B3's object-reuse principle
//! applied to the receive path): a decoded [`Frame`] holds one refcounted
//! [`Bytes`] batch buffer plus `(offset, len)` ranges into it — see
//! [`FrameMessages`] — so splitting a batch into messages allocates
//! nothing per message, and the batch buffer can be returned to a
//! [`crate::pool::BytesPool`] once the frame is consumed.
//!
//! The CRC32 (IEEE 802.3 polynomial, see [`crate::crc`]) covers the body;
//! the paper's correctness goal — *"our proposed solution should not
//! result in dropped or corrupted stream packets"* — is checked, not
//! assumed. It is computed where the bytes already are: once over the
//! finished body on encode, chunk by chunk as the body arrives on decode.
//!
//! ## Header extensions
//!
//! The low four bits of the (previously reserved) flags byte each mark an
//! 8-byte extension word between the fixed header and the body, laid out
//! in ascending bit order. Because every extension bit contributes a fixed
//! 8 bytes, a decoder can compute the body offset from the flags mask
//! alone — extension bits it does not understand are *skipped*, not
//! misparsed, which is what keeps old and new senders interoperable.
//!
//! * Bit 0 ([`FLAG_SENT_AT`]): sender wall clock in µs at flush time. The
//!   receive side uses it to measure flush→receive transport latency
//!   (ISSUE 2); it is not covered by the CRC (a stamp corrupted in
//!   transit skews one telemetry sample, never the data path).
//! * Bit 1 ([`FLAG_SEQ`]): monotonically increasing per-link *frame*
//!   sequence number assigned by the HA layer (ISSUE 3). Receivers ack
//!   cumulatively against it and senders replay unacked frames on
//!   reconnect — at-least-once delivery across link failures.
//! * Bit 2 ([`FLAG_CONTROL`]): the frame is a control frame (heartbeat or
//!   cumulative ack), not data. The extension word carries the
//!   [`ControlKind`]; the control *value* (ack watermark, heartbeat
//!   nonce) rides in the `base_seq` header field and the body is empty.
//! * Bit 3 ([`FLAG_TRACE`]): causal trace id (ISSUE 7). A deterministically
//!   sampled source packet tags its frame with a 64-bit trace id; every
//!   hop records per-stage spans against it and re-tags downstream
//!   frames, so one packet's whole journey reconstructs in Perfetto.
//!   Like the sent-at stamp it is measurement metadata: not CRC-covered,
//!   and decoders that predate it skip the word.
//!
//! Frames with no extension bits decode exactly as before, so the
//! formats interoperate in both directions.

use crate::crc::{crc32, Crc32};
use crate::pool::BytesPool;
use bytes::{Bytes, BytesMut};
use neptune_compress::{lz4, Payload, SelectiveCompressor};
use std::io::Read;
use std::time::Instant;

/// Frame magic: `"NEPT"` little-endian.
pub const MAGIC: u32 = 0x5450_454E;
/// Fixed header size in bytes.
pub const FRAME_HEADER_LEN: usize = 4 + 1 + 8 + 8 + 4 + 4 + 4;
/// Flags bit 0: an 8-byte sent-at (µs) extension follows the header.
pub const FLAG_SENT_AT: u8 = 0b0000_0001;
/// Flags bit 1: an 8-byte per-link frame sequence number extension
/// follows the header (HA ack/replay delivery).
pub const FLAG_SEQ: u8 = 0b0000_0010;
/// Flags bit 2: this is a control frame (heartbeat/ack); an 8-byte
/// [`ControlKind`] word follows the header and the body is empty.
pub const FLAG_CONTROL: u8 = 0b0000_0100;
/// Flags bit 3: an 8-byte causal trace id extension follows the header
/// (sampled per-packet tracing, ISSUE 7).
pub const FLAG_TRACE: u8 = 0b0000_1000;
/// Every flag bit in this mask contributes one 8-byte extension word, in
/// ascending bit order. Decoders size the extension area from the mask so
/// reserved bits are skipped, never misparsed into the body.
pub const EXT_FLAG_MASK: u8 = 0b0000_1111;
/// Cap on the body length accepted by the decoder (a corrupted length field
/// must not trigger a huge allocation).
pub const MAX_BODY_LEN: usize = 64 << 20;

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

/// What a control frame ([`FLAG_CONTROL`]) carries. The kind lives in the
/// 8-byte control extension word; the associated value rides in the
/// `base_seq` header field.
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
    /// Protocol handshake announcement. Value: [`hello_value`] — a magic
    /// tag plus the sender's protocol version and capability byte (see
    /// [`PROTOCOL_VERSION`]). Sent as the *first* frame on a connection by
    /// version-aware peers (`neptuned`); legacy in-repo clients never send
    /// it and receivers that predate it skip it, so the wire stays
    /// byte-compatible in both directions.
    Hello,
    /// Aligned-checkpoint barrier (Chandy–Lamport style). Value: the
    /// checkpoint id, monotonically increasing per job; `u64::MAX` is the
    /// *final* barrier a finished source emits so downstream alignment
    /// never waits on a closed channel. Barriers are injected at sources,
    /// flow in-band behind every data frame flushed before them, and are
    /// aligned at multi-input operators before state is snapshotted.
    /// Barrier frames only travel on links between checkpoint-aware
    /// builds (the feature is off by default), so no protocol-version
    /// bump is needed: a job either emits none or every peer decodes
    /// them.
    Barrier,
}

impl ControlKind {
    /// Wire encoding of the kind (the low bits of the control word).
    pub fn word(self) -> u64 {
        match self {
            ControlKind::Heartbeat => 1,
            ControlKind::Ack => 2,
            ControlKind::Hello => 3,
            ControlKind::Barrier => 4,
        }
    }

    /// Decode a control word; `None` for kinds this build does not know.
    pub fn from_word(w: u64) -> Option<Self> {
        match w {
            1 => Some(ControlKind::Heartbeat),
            2 => Some(ControlKind::Ack),
            3 => Some(ControlKind::Hello),
            4 => Some(ControlKind::Barrier),
            _ => None,
        }
    }
}

/// Wire protocol version announced in [`ControlKind::Hello`] frames. Bump
/// on any change that an older decoder would *misread* (new mandatory
/// extension semantics, control-value layout changes); purely additive
/// extension bits do not need a bump — unknown bits are skipped.
pub const PROTOCOL_VERSION: u8 = 1;

/// Capability bit: the peer propagates [`FLAG_TRACE`] trace ids.
pub const CAP_TRACE: u8 = 0x01;
/// Capability bit: the peer runs the HA layer ([`FLAG_SEQ`] ack/replay).
pub const CAP_SEQ_REPLAY: u8 = 0x02;
/// Capability bit: the peer understands entropy-compressed frame bodies.
pub const CAP_COMPRESS: u8 = 0x04;
/// Capability byte a current full-featured build announces.
pub const CAPS_ALL: u8 = CAP_TRACE | CAP_SEQ_REPLAY | CAP_COMPRESS;

/// Tag in the high bits of a hello value, so a garbled or misrouted
/// control word cannot be mistaken for a plausible version announcement.
const HELLO_TAG: u64 = 0x4E50_4854 << 32; // "NPHT"

/// Pack a hello control value: tag | version | capability byte.
pub fn hello_value(version: u8, caps: u8) -> u64 {
    HELLO_TAG | ((version as u64) << 8) | caps as u64
}

/// Unpack a hello control value into `(version, caps)`; `None` when the
/// tag is wrong (the word was not produced by [`hello_value`]).
pub fn hello_parts(value: u64) -> Option<(u8, u8)> {
    if value & 0xFFFF_FFFF_0000_0000 != HELLO_TAG {
        return None;
    }
    Some((((value >> 8) & 0xFF) as u8, (value & 0xFF) as u8))
}

/// Encode the hello handshake frame a version-aware peer sends first on a
/// new connection.
pub fn encode_hello_frame(link_id: u64, version: u8, caps: u8) -> Vec<u8> {
    encode_control_frame(link_id, ControlKind::Hello, hello_value(version, caps))
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
    /// Sender wall clock (µs since the Unix epoch) at flush time, carried
    /// via the [`FLAG_SENT_AT`] wire extension. `0` when absent.
    pub sent_at_micros: u64,
    /// Local instant the frame landed on the destination queue. Set by
    /// transports on delivery, never carried on the wire; the receiving
    /// task's schedule delay is measured against it.
    pub received_at: Option<Instant>,
    /// Per-link frame sequence number carried via the [`FLAG_SEQ`] wire
    /// extension; `None` when the sender is not running the HA layer.
    pub seq: Option<u64>,
    /// Set when this is a control frame ([`FLAG_CONTROL`]); the control
    /// value (ack watermark / heartbeat nonce) is in `base_seq` and
    /// `messages` is empty.
    pub control: Option<ControlKind>,
    /// Causal trace id carried via the [`FLAG_TRACE`] wire extension;
    /// `None` for unsampled frames or senders without tracing.
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
    /// Body CRC mismatch — corruption on the wire.
    CrcMismatch {
        /// CRC in the header.
        expected: u32,
        /// CRC of the received body.
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
            FrameError::CrcMismatch { expected, actual } => {
                write!(f, "crc mismatch: header {expected:#x}, body {actual:#x}")
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

/// Offset of the `body_len | crc32` pair within the fixed header.
const BODY_LEN_AT: usize = FRAME_HEADER_LEN - 8;

/// Append the fixed header and the extension words `exts` carries — flags
/// derived from which are present, words in ascending bit order. The one
/// header writer behind every encoder. `body_len | crc32` are written as
/// zeros: already right for a bodyless frame (the CRC of nothing is 0),
/// patched by [`encode_frame_into`] once the body has landed.
fn write_header(out: &mut Vec<u8>, link_id: u64, base_seq: u64, count: u32, exts: &Extensions) {
    let words = [
        (FLAG_SENT_AT, (exts.sent_at_micros != 0).then_some(exts.sent_at_micros)),
        (FLAG_SEQ, exts.seq),
        (FLAG_CONTROL, exts.control_word),
        (FLAG_TRACE, exts.trace),
    ];
    let flags = words.iter().filter(|(_, w)| w.is_some()).fold(0u8, |f, (bit, _)| f | bit);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(flags);
    out.extend_from_slice(&link_id.to_le_bytes());
    out.extend_from_slice(&base_seq.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(&[0u8; FRAME_HEADER_LEN - BODY_LEN_AT]);
    for word in words.into_iter().filter_map(|(_, w)| w) {
        out.extend_from_slice(&word.to_le_bytes());
    }
}

/// The encoder: append one frame to `out`, built in place — header and
/// extensions, then the selective-compression framing of `raw` written
/// (or LZ4-compressed) straight into `out` behind them, then the CRC of
/// what landed patched into the header. No intermediate body buffer, and
/// no allocation at all when `out` is a recycled wire buffer with room
/// (see [`crate::tcp::TcpSender::wire_buffer`]).
///
/// `raw` is the length-prefixed concatenation an output buffer flushes
/// ([`crate::buffer::FlushedBatch`]). A non-zero `sent_at_micros` (sender
/// wall clock, µs) sets [`FLAG_SENT_AT`], `frame_seq` sets [`FLAG_SEQ`],
/// `trace` sets [`FLAG_TRACE`]; with none of them the layout is the
/// extension-less legacy one.
#[allow(clippy::too_many_arguments)]
pub fn encode_frame_into(
    out: &mut Vec<u8>,
    link_id: u64,
    base_seq: u64,
    count: u32,
    raw: &[u8],
    compressor: &SelectiveCompressor,
    sent_at_micros: u64,
    frame_seq: Option<u64>,
    trace: Option<u64>,
) {
    let exts = Extensions { sent_at_micros, seq: frame_seq, control_word: None, trace };
    let start = out.len();
    out.reserve(FRAME_HEADER_LEN + MAX_EXT_LEN + 1 + raw.len());
    write_header(out, link_id, base_seq, count, &exts);
    let body_at = out.len();
    compressor.encode_into(raw, out);
    let body = &out[body_at..];
    let body_len = u32::try_from(body.len()).expect("frame body under 4 GiB");
    let crc = crc32(body);
    let patch = &mut out[start + BODY_LEN_AT..start + FRAME_HEADER_LEN];
    patch[..4].copy_from_slice(&body_len.to_le_bytes());
    patch[4..].copy_from_slice(&crc.to_le_bytes());
}

/// Encode a batch of discrete messages into one frame (tests, control
/// protocol): the messages are length-prefixed into a scratch batch first.
pub fn encode_frame(
    link_id: u64,
    base_seq: u64,
    messages: &[impl AsRef<[u8]>],
    compressor: &SelectiveCompressor,
) -> Vec<u8> {
    let raw = FrameMessages::from_messages(messages).into_batch();
    encode_frame_raw(link_id, base_seq, messages.len() as u32, &raw, compressor)
}

/// [`encode_frame_into`] a fresh vector, no extensions.
pub fn encode_frame_raw(
    link_id: u64,
    base_seq: u64,
    count: u32,
    raw: &[u8],
    compressor: &SelectiveCompressor,
) -> Vec<u8> {
    encode_frame_raw_traced(link_id, base_seq, count, raw, compressor, 0, None, None)
}

/// [`encode_frame_into`] a fresh vector, untraced.
pub fn encode_frame_raw_ext(
    link_id: u64,
    base_seq: u64,
    count: u32,
    raw: &[u8],
    compressor: &SelectiveCompressor,
    sent_at_micros: u64,
    frame_seq: Option<u64>,
) -> Vec<u8> {
    encode_frame_raw_traced(
        link_id,
        base_seq,
        count,
        raw,
        compressor,
        sent_at_micros,
        frame_seq,
        None,
    )
}

/// [`encode_frame_into`] a fresh vector.
#[allow(clippy::too_many_arguments)]
pub fn encode_frame_raw_traced(
    link_id: u64,
    base_seq: u64,
    count: u32,
    raw: &[u8],
    compressor: &SelectiveCompressor,
    sent_at_micros: u64,
    frame_seq: Option<u64>,
    trace: Option<u64>,
) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(
        &mut out,
        link_id,
        base_seq,
        count,
        raw,
        compressor,
        sent_at_micros,
        frame_seq,
        trace,
    );
    out
}

/// Encode a bodyless control frame (heartbeat or cumulative ack). `value`
/// rides in the `base_seq` header field: the ack watermark for
/// [`ControlKind::Ack`], a liveness nonce for [`ControlKind::Heartbeat`].
pub fn encode_control_frame(link_id: u64, kind: ControlKind, value: u64) -> Vec<u8> {
    let exts = Extensions { control_word: Some(kind.word()), ..Extensions::default() };
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + 8);
    write_header(&mut out, link_id, value, 0, &exts);
    out
}

/// The fixed header, parsed.
#[derive(Debug, Clone, Copy, Default)]
struct Header {
    flags: u8,
    link_id: u64,
    base_seq: u64,
    count: u32,
    body_len: usize,
    crc: u32,
}

impl Header {
    /// Byte length of the header extensions selected by `flags`: every set
    /// bit in [`EXT_FLAG_MASK`] contributes a fixed 8-byte word, so
    /// decoders can skip extensions they do not understand.
    fn ext_len(&self) -> usize {
        (self.flags & EXT_FLAG_MASK).count_ones() as usize * 8
    }

    /// Total bytes the frame occupies on the wire.
    fn wire_len(&self) -> usize {
        FRAME_HEADER_LEN + self.ext_len() + self.body_len
    }
}

fn parse_header(header: &[u8; FRAME_HEADER_LEN]) -> Result<Header, FrameError> {
    let magic = u32::from_le_bytes(header[0..4].try_into().expect("slice len"));
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let body_len = u32::from_le_bytes(header[25..29].try_into().expect("slice len")) as usize;
    if body_len > MAX_BODY_LEN {
        return Err(FrameError::OversizedBody(body_len));
    }
    Ok(Header {
        flags: header[4],
        link_id: u64::from_le_bytes(header[5..13].try_into().expect("slice len")),
        base_seq: u64::from_le_bytes(header[13..21].try_into().expect("slice len")),
        count: u32::from_le_bytes(header[21..25].try_into().expect("slice len")),
        body_len,
        crc: u32::from_le_bytes(header[29..33].try_into().expect("slice len")),
    })
}

/// Extension words: what an encoder writes between header and body, and
/// what a decoder found there.
#[derive(Debug, Default, Clone, Copy)]
struct Extensions {
    sent_at_micros: u64,
    seq: Option<u64>,
    control_word: Option<u64>,
    trace: Option<u64>,
}

/// Walk the extension area in ascending bit order, capturing the words
/// this build understands and skipping the rest. `ext` must be exactly
/// the header's `ext_len()` bytes.
fn parse_extensions(flags: u8, ext: &[u8]) -> Extensions {
    let mut out = Extensions::default();
    let mut words = ext.chunks_exact(8);
    for bit in 0..u8::BITS as u8 {
        let flag = 1u8 << bit;
        if flag & EXT_FLAG_MASK == 0 || flags & flag == 0 {
            continue;
        }
        let word = words.next().expect("extension area sized from the flags");
        let word = u64::from_le_bytes(word.try_into().expect("slice len"));
        match flag {
            FLAG_SENT_AT => out.sent_at_micros = word,
            FLAG_SEQ => out.seq = Some(word),
            FLAG_CONTROL => out.control_word = Some(word),
            FLAG_TRACE => out.trace = Some(word),
            _ => {} // reserved extension: skipped, not rejected
        }
    }
    out
}

/// Interpret a parsed control word, validating the control-frame shape
/// (empty body). Returns `Ok(None)` for data frames.
fn decode_control(exts: &Extensions, body_len: usize) -> Result<Option<ControlKind>, FrameError> {
    let Some(word) = exts.control_word else {
        return Ok(None);
    };
    if body_len != 0 {
        return Err(FrameError::MalformedBody(format!(
            "control frame carries a {body_len}-byte body"
        )));
    }
    match ControlKind::from_word(word) {
        Some(kind) => Ok(Some(kind)),
        None => Err(FrameError::MalformedBody(format!("unknown control kind {word}"))),
    }
}

/// Validate and assemble a frame whose three wire sections are all in hand
/// — the shared tail of every decode path. `actual` is the CRC computed
/// over the body; `body` is only asked for once the frame is known to be a
/// sound data frame, so bodyless control frames never materialize one.
fn assemble(
    head: &Header,
    ext: &[u8],
    actual: u32,
    body: impl FnOnce() -> Bytes,
    pool: Option<&BytesPool>,
) -> Result<Frame, FrameError> {
    if actual != head.crc {
        return Err(FrameError::CrcMismatch { expected: head.crc, actual });
    }
    let exts = parse_extensions(head.flags, ext);
    let control = decode_control(&exts, head.body_len)?;
    let messages = match control {
        Some(_) => FrameMessages::empty(),
        None => FrameMessages::parse_prefixed(decode_body(body(), pool)?, Some(head.count))
            .map_err(FrameError::MalformedBody)?,
    };
    Ok(Frame {
        link_id: head.link_id,
        base_seq: head.base_seq,
        messages,
        wire_len: head.wire_len(),
        sent_at_micros: exts.sent_at_micros,
        received_at: None,
        seq: exts.seq,
        control,
        trace: exts.trace,
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

/// Parse the header of the frame at the front of `buf` and check the whole
/// frame is there; returns the header and the offset its body starts at.
fn locate(buf: &[u8]) -> Result<(Header, usize), FrameError> {
    let Some(header) = buf.first_chunk::<FRAME_HEADER_LEN>() else {
        return Err(FrameError::Io("buffer shorter than frame header".into()));
    };
    let head = parse_header(header)?;
    if buf.len() < head.wire_len() {
        let total = head.wire_len();
        return Err(FrameError::Io(format!("buffer holds {} of {total} frame bytes", buf.len())));
    }
    Ok((head, FRAME_HEADER_LEN + head.ext_len()))
}

/// Decode one frame from a byte slice; returns the frame and the number of
/// input bytes consumed. Used by the simulator and by tests. The body is
/// copied once into a fresh buffer; use [`decode_frame_shared`] to decode
/// out of an existing refcounted buffer with no copy at all.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
    let (head, body_at) = locate(buf)?;
    let total = head.wire_len();
    let (ext, body) = (&buf[FRAME_HEADER_LEN..body_at], &buf[body_at..total]);
    let frame = assemble(&head, ext, crc32(body), || Bytes::copy_from_slice(body), None)?;
    Ok((frame, total))
}

/// Decode one frame out of a refcounted buffer; the frame's batch is a
/// zero-copy slice of `buf` (uncompressed bodies perform no copy at all).
/// Returns the frame and the number of input bytes consumed.
pub fn decode_frame_shared(
    buf: &Bytes,
    pool: Option<&BytesPool>,
) -> Result<(Frame, usize), FrameError> {
    let (head, body_at) = locate(buf)?;
    let total = head.wire_len();
    let (ext, actual) = (&buf[FRAME_HEADER_LEN..body_at], crc32(&buf[body_at..total]));
    let frame = assemble(&head, ext, actual, || buf.slice(body_at..total), pool)?;
    Ok((frame, total))
}

/// Most body bytes the blocking reader pulls per read, so the CRC folds
/// over each piece while it is still in cache.
const READ_CHUNK: usize = 64 << 10;

/// Read exactly one frame from a blocking reader (the cluster control
/// connection, tests). It is the incremental decoder driven with
/// exact-sized reads: header, then extensions, then the body read in
/// place, into a fresh buffer.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut dec = FrameDecoder::new();
    let mut fixed = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut fixed)?;
    let mut done = dec.feed(&fixed, None)?.1;
    if done.is_none() && dec.stage == DecodeStage::Ext {
        let ext = &mut fixed[..dec.head.ext_len()];
        r.read_exact(ext)?;
        done = dec.feed(ext, None)?.1;
    }
    while done.is_none() {
        let window = dec.body_window();
        let n = window.len().min(READ_CHUNK);
        r.read_exact(&mut window[..n])?;
        done = dec.commit(n, None)?;
    }
    Ok(done.expect("loop exits on a frame"))
}

/// Largest possible extension area (every bit in [`EXT_FLAG_MASK`] set).
const MAX_EXT_LEN: usize = 8 * EXT_FLAG_MASK.count_ones() as usize;

/// Which wire section the incremental decoder is currently filling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DecodeStage {
    Header,
    Ext,
    Body,
}

/// Incremental frame decoder for nonblocking sockets.
///
/// On the readiness-driven path a socket hands over however many bytes the
/// kernel has — possibly splitting a frame mid-header, mid-extension, or
/// mid-body — so the decoder is resumable at *every* byte boundary.
/// [`feed`](Self::feed) consumes as much of the input as it can, returns a
/// completed [`Frame`] as soon as one closes, and parks its partial state
/// (fixed header/extension scratch plus a body buffer drawn from the
/// [`BytesPool`]) across `WouldBlock` gaps. The body CRC is folded over
/// each piece as it arrives, so closing a frame only compares.
///
/// A caller that owns the socket can skip the staging copy for large
/// bodies: read straight into [`body_window`](Self::body_window) and
/// report the count with [`commit`](Self::commit).
///
/// [`read_frame`] is this decoder behind a blocking reader, so the two
/// receive paths cannot drift. A decode error leaves the decoder on a
/// frame boundary; the transport treats it as fatal for the connection.
#[derive(Debug)]
pub struct FrameDecoder {
    stage: DecodeStage,
    /// Bytes received so far of the *current* stage's section.
    filled: usize,
    header: [u8; FRAME_HEADER_LEN],
    ext: [u8; MAX_EXT_LEN],
    /// The parsed header, valid from the Ext stage onwards.
    head: Header,
    /// Body accumulator, checked out when the extension area completes.
    /// Its length is `filled` while bytes are appended through `feed`, and
    /// the full body length once `body_window` has zero-extended it.
    body: BytesMut,
    /// CRC of the body bytes received so far.
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
            ext: [0u8; MAX_EXT_LEN],
            head: Header::default(),
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

    /// Drop any partial frame and return to the boundary state.
    pub fn reset(&mut self) {
        self.stage = DecodeStage::Header;
        self.filled = 0;
        self.body = BytesMut::new();
    }

    /// Consume bytes from `input`, advancing the partial frame. Returns
    /// how many input bytes were consumed and the frame, if one completed.
    /// Stops after at most one frame so the caller controls delivery
    /// pacing; call again with the unconsumed tail for back-to-back
    /// frames. Body buffers (and decompression storage) come from `pool`
    /// when given. On error the decoder is reset; the connection should be
    /// dropped, exactly as after a [`read_frame`] error.
    pub fn feed(
        &mut self,
        input: &[u8],
        pool: Option<&BytesPool>,
    ) -> Result<(usize, Option<Frame>), FrameError> {
        let mut consumed = 0usize;
        loop {
            let rest = &input[consumed..];
            match self.stage {
                DecodeStage::Header => {
                    let take = (FRAME_HEADER_LEN - self.filled).min(rest.len());
                    self.header[self.filled..self.filled + take].copy_from_slice(&rest[..take]);
                    self.filled += take;
                    consumed += take;
                    if self.filled < FRAME_HEADER_LEN {
                        return Ok((consumed, None));
                    }
                    self.filled = 0;
                    self.head = parse_header(&self.header)?;
                    self.stage = DecodeStage::Ext;
                }
                DecodeStage::Ext => {
                    let need = self.head.ext_len();
                    let take = (need - self.filled).min(rest.len());
                    self.ext[self.filled..self.filled + take].copy_from_slice(&rest[..take]);
                    self.filled += take;
                    consumed += take;
                    if self.filled < need {
                        return Ok((consumed, None));
                    }
                    self.filled = 0;
                    self.crc = Crc32::new();
                    if self.head.body_len == 0 {
                        // Control frames: nothing to buffer, so nothing to
                        // check out of (and leak from) the pool.
                        return self.finish(pool).map(|frame| (consumed, Some(frame)));
                    }
                    self.body = body_storage(pool, self.head.body_len);
                    self.stage = DecodeStage::Body;
                }
                DecodeStage::Body => {
                    let take = (self.head.body_len - self.filled).min(rest.len());
                    if self.body.len() > self.filled {
                        self.body[self.filled..self.filled + take].copy_from_slice(&rest[..take]);
                    } else {
                        self.body.extend_from_slice(&rest[..take]);
                    }
                    consumed += take;
                    return self.commit(take, pool).map(|frame| (consumed, frame));
                }
            }
        }
    }

    /// Body bytes still to arrive; 0 outside a body.
    pub fn body_remaining(&self) -> usize {
        match self.stage {
            DecodeStage::Body => self.head.body_len - self.filled,
            _ => 0,
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
    /// on the boundary whether or not the frame turns out sound.
    fn finish(&mut self, pool: Option<&BytesPool>) -> Result<Frame, FrameError> {
        let body = std::mem::take(&mut self.body);
        self.stage = DecodeStage::Header;
        self.filled = 0;
        let ext = &self.ext[..self.head.ext_len()];
        assemble(&self.head, ext, self.crc.finalize(), || body.freeze(), pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw_policy() -> SelectiveCompressor {
        SelectiveCompressor::disabled()
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
    fn barrier_control_frame_roundtrips() {
        let wire = encode_control_frame(11, ControlKind::Barrier, 42);
        let (frame, used) = decode_frame(&wire).unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(frame.control, Some(ControlKind::Barrier));
        assert_eq!(frame.link_id, 11);
        assert_eq!(frame.base_seq, 42, "checkpoint id rides in base_seq");
        assert!(frame.is_empty(), "barriers carry no body");
        // The final-barrier sentinel survives the trip too.
        let fin = encode_control_frame(11, ControlKind::Barrier, u64::MAX);
        let (frame, _) = decode_frame(&fin).unwrap();
        assert_eq!(frame.base_seq, u64::MAX);
        assert_eq!(ControlKind::from_word(ControlKind::Barrier.word()), Some(ControlKind::Barrier));
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
    fn bad_magic_detected() {
        let msgs = vec![b"x".to_vec()];
        let mut wire = encode_frame(1, 0, &msgs, &raw_policy());
        wire[0] ^= 0xFF;
        assert!(matches!(decode_frame(&wire), Err(FrameError::BadMagic(_))));
    }

    #[test]
    fn corrupted_body_detected_by_crc() {
        let msgs = vec![b"hello world".to_vec()];
        let mut wire = encode_frame(1, 0, &msgs, &raw_policy());
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        assert!(matches!(decode_frame(&wire), Err(FrameError::CrcMismatch { .. })));
    }

    #[test]
    fn corrupted_header_length_rejected() {
        let msgs = vec![b"hello".to_vec()];
        let mut wire = encode_frame(1, 0, &msgs, &raw_policy());
        // Blow up the declared body length beyond the cap.
        wire[25..29].copy_from_slice(&(u32::MAX).to_le_bytes());
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
        let msgs = vec![b"a".to_vec(), b"b".to_vec()];
        let mut wire = encode_frame(1, 0, &msgs, &raw_policy());
        // Claim 3 messages while the body holds 2.
        wire[21..25].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(decode_frame(&wire), Err(FrameError::MalformedBody(_))));
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
    fn shared_decode_aliases_input_buffer() {
        // Zero-copy: an uncompressed body decoded out of a shared buffer
        // must point into that buffer, not into a copy.
        let msgs = vec![b"zero".to_vec(), b"copy".to_vec()];
        let wire = Bytes::from(encode_frame(4, 2, &msgs, &raw_policy()));
        let (frame, used) = decode_frame_shared(&wire, None).unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(frame.messages, msgs);
        let wire_range = wire.as_ptr() as usize..wire.as_ptr() as usize + wire.len();
        let m0 = &frame.messages[0];
        assert!(
            wire_range.contains(&(m0.as_ptr() as usize)),
            "decoded message must alias the wire buffer"
        );
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
    fn sent_at_extension_roundtrips_on_every_decode_path() {
        let msgs = vec![b"stamped".to_vec(), b"batch".to_vec()];
        let mut raw = Vec::new();
        for m in &msgs {
            raw.extend_from_slice(&(m.len() as u32).to_le_bytes());
            raw.extend_from_slice(m);
        }
        let stamp = 1_722_000_000_000_123u64;
        let wire = encode_frame_raw_ext(3, 50, 2, &raw, &raw_policy(), stamp, None);
        assert_eq!(wire[4], FLAG_SENT_AT);

        let (f, used) = decode_frame(&wire).unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(f.sent_at_micros, stamp);
        assert_eq!(f.messages, msgs);
        assert_eq!(f.wire_len, wire.len());

        let shared = Bytes::from(wire.clone());
        let (f2, _) = decode_frame_shared(&shared, None).unwrap();
        assert_eq!(f2.sent_at_micros, stamp);

        let mut cursor = std::io::Cursor::new(&wire);
        let f3 = read_frame(&mut cursor).unwrap();
        assert_eq!(f3.sent_at_micros, stamp);
        assert_eq!(f3.messages, msgs);
        assert!(f3.received_at.is_none(), "the wire never carries received_at");
    }

    #[test]
    fn zero_stamp_produces_legacy_wire_format() {
        let msgs = vec![b"legacy".to_vec()];
        let via_raw = {
            let mut raw = Vec::new();
            raw.extend_from_slice(&(msgs[0].len() as u32).to_le_bytes());
            raw.extend_from_slice(&msgs[0]);
            encode_frame_raw_ext(1, 0, 1, &raw, &raw_policy(), 0, None)
        };
        assert_eq!(via_raw, encode_frame(1, 0, &msgs, &raw_policy()));
        assert_eq!(via_raw[4], 0, "no flags without a stamp");
        let (f, _) = decode_frame(&via_raw).unwrap();
        assert_eq!(f.sent_at_micros, 0);
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

    fn prefixed(msgs: &[Vec<u8>]) -> Vec<u8> {
        let mut raw = Vec::new();
        for m in msgs {
            raw.extend_from_slice(&(m.len() as u32).to_le_bytes());
            raw.extend_from_slice(m);
        }
        raw
    }

    #[test]
    fn seq_extension_roundtrips_on_every_decode_path() {
        let msgs = vec![b"sequenced".to_vec()];
        let raw = prefixed(&msgs);
        let wire = encode_frame_raw_ext(7, 100, 1, &raw, &raw_policy(), 0, Some(4242));
        assert_eq!(wire[4], FLAG_SEQ);

        let (f, used) = decode_frame(&wire).unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(f.seq, Some(4242));
        assert_eq!(f.sent_at_micros, 0);
        assert_eq!(f.messages, msgs);
        assert!(f.control.is_none());

        let shared = Bytes::from(wire.clone());
        let (f2, _) = decode_frame_shared(&shared, None).unwrap();
        assert_eq!(f2.seq, Some(4242));

        let mut cursor = std::io::Cursor::new(&wire);
        let f3 = read_frame(&mut cursor).unwrap();
        assert_eq!(f3.seq, Some(4242));
        assert_eq!(f3.messages, msgs);
    }

    #[test]
    fn sent_at_and_seq_extensions_compose() {
        let msgs = vec![b"both".to_vec(), b"exts".to_vec()];
        let raw = prefixed(&msgs);
        let stamp = 1_722_000_000_000_777u64;
        let wire = encode_frame_raw_ext(1, 9, 2, &raw, &raw_policy(), stamp, Some(55));
        assert_eq!(wire[4], FLAG_SENT_AT | FLAG_SEQ);
        assert_eq!(wire.len(), encode_frame(1, 9, &msgs, &raw_policy()).len() + 16);
        let (f, _) = decode_frame(&wire).unwrap();
        assert_eq!(f.sent_at_micros, stamp);
        assert_eq!(f.seq, Some(55));
        assert_eq!(f.messages, msgs);
    }

    #[test]
    fn no_extensions_produces_legacy_layout() {
        let msgs = vec![b"legacy".to_vec()];
        let raw = prefixed(&msgs);
        let wire = encode_frame_raw_ext(1, 0, 1, &raw, &raw_policy(), 0, None);
        assert_eq!(wire, encode_frame(1, 0, &msgs, &raw_policy()));
        let (f, _) = decode_frame(&wire).unwrap();
        assert_eq!(f.seq, None);
        assert!(f.control.is_none());
    }

    #[test]
    fn control_frames_roundtrip() {
        for (kind, value) in [(ControlKind::Heartbeat, 3u64), (ControlKind::Ack, 1_000_000u64)] {
            let wire = encode_control_frame(12, kind, value);
            let (f, used) = decode_frame(&wire).unwrap();
            assert_eq!(used, wire.len());
            assert_eq!(f.control, Some(kind));
            assert_eq!(f.link_id, 12);
            assert_eq!(f.base_seq, value, "control value rides in base_seq");
            assert!(f.is_empty());

            let shared = Bytes::from(wire.clone());
            let (f2, _) = decode_frame_shared(&shared, None).unwrap();
            assert_eq!(f2.control, Some(kind));

            let mut cursor = std::io::Cursor::new(&wire);
            let f3 = read_frame(&mut cursor).unwrap();
            assert_eq!(f3.control, Some(kind));
            assert_eq!(f3.base_seq, value);
        }
    }

    #[test]
    fn hello_frame_roundtrips_and_value_is_tagged() {
        let wire = encode_hello_frame(7, PROTOCOL_VERSION, CAPS_ALL);
        let (f, used) = decode_frame(&wire).unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(f.control, Some(ControlKind::Hello));
        assert_eq!(hello_parts(f.base_seq), Some((PROTOCOL_VERSION, CAPS_ALL)));
        // A word not produced by hello_value (e.g. an ack watermark that
        // got misrouted) must not parse as a version announcement.
        assert_eq!(hello_parts(1_000_000), None);
        assert_eq!(hello_parts(0), None);
        // All version/caps combinations survive the pack/unpack.
        for v in [0u8, 1, 7, 255] {
            for c in [0u8, CAP_TRACE, CAPS_ALL, 255] {
                assert_eq!(hello_parts(hello_value(v, c)), Some((v, c)));
            }
        }
    }

    #[test]
    fn trace_extension_roundtrips_and_is_absent_by_default() {
        // Bit 3 was the reserved bit this test used to forge as "unknown"
        // — ISSUE 7 assigned it to FLAG_TRACE. The same wire shape
        // (header, seq word, one extra 8-byte word, body) now decodes the
        // extra word as the causal trace id, and the decoder still sizes
        // the extension area from the flags mask to find the body.
        let msgs = vec![b"future".to_vec(), b"proof".to_vec()];
        let raw = prefixed(&msgs);
        let wire =
            encode_frame_raw_traced(3, 20, 2, &raw, &raw_policy(), 0, Some(9), Some(0xDEAD_BEEF));
        let (f, used) = decode_frame(&wire).unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(f.seq, Some(9));
        assert_eq!(f.trace, Some(0xDEAD_BEEF));
        assert_eq!(f.messages, msgs);
        let mut cursor = std::io::Cursor::new(&wire);
        let f2 = read_frame(&mut cursor).unwrap();
        assert_eq!(f2.trace, Some(0xDEAD_BEEF));
        assert_eq!(f2.messages, msgs);
        // Untraced frames keep the exact legacy layout: no flag, no word,
        // and legacy decoders see a byte-identical frame.
        let legacy = encode_frame_raw_ext(3, 20, 2, &raw, &raw_policy(), 0, Some(9));
        assert_eq!(legacy.len() + 8, wire.len(), "trace adds exactly one 8-byte word");
        assert_eq!(legacy[4] | FLAG_TRACE, wire[4]);
        let (lf, _) = decode_frame(&legacy).unwrap();
        assert_eq!(lf.trace, None);
    }

    #[test]
    fn malformed_control_frames_rejected() {
        // Unknown control kind.
        let mut wire = encode_control_frame(1, ControlKind::Ack, 5);
        wire[FRAME_HEADER_LEN..FRAME_HEADER_LEN + 8].copy_from_slice(&99u64.to_le_bytes());
        assert!(matches!(decode_frame(&wire), Err(FrameError::MalformedBody(_))));
        // Control frame with a body.
        let msgs = vec![b"x".to_vec()];
        let raw = prefixed(&msgs);
        let mut with_body = encode_frame_raw_ext(1, 0, 1, &raw, &raw_policy(), 0, None);
        with_body[4] |= FLAG_CONTROL;
        with_body.splice(
            FRAME_HEADER_LEN..FRAME_HEADER_LEN,
            ControlKind::Heartbeat.word().to_le_bytes(),
        );
        assert!(matches!(decode_frame(&with_body), Err(FrameError::MalformedBody(_))));
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
        // All extension bits in play, two frames back to back, split at
        // every chunk size from one byte up: identical results each time.
        let msgs = vec![b"incremental".to_vec(), b"decode".to_vec()];
        let raw = prefixed(&msgs);
        let mut wire = encode_frame_raw_ext(7, 100, 2, &raw, &raw_policy(), 1_234_567, Some(42));
        wire.extend_from_slice(&encode_control_frame(7, ControlKind::Ack, 100));
        let mut cursor = std::io::Cursor::new(&wire);
        let expect_data = read_frame(&mut cursor).unwrap();
        let expect_ctl = read_frame(&mut cursor).unwrap();
        for chunk in 1..=wire.len() {
            let frames = feed_chunked(&wire, chunk, None);
            assert_eq!(frames.len(), 2, "chunk size {chunk}");
            assert_eq!(frames[0], expect_data);
            assert_eq!(frames[0].seq, expect_data.seq);
            assert_eq!(frames[0].sent_at_micros, expect_data.sent_at_micros);
            assert_eq!(frames[1].control, expect_ctl.control);
            assert_eq!(frames[1].base_seq, expect_ctl.base_seq);
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
        oversized[25..29].copy_from_slice(&u32::MAX.to_le_bytes());
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
        dec.reset();
        assert!(dec.is_idle());
        let (_, frame) = dec.feed(&wire, None).unwrap();
        assert!(frame.is_some(), "reset decoder must accept a fresh frame");
    }
}
