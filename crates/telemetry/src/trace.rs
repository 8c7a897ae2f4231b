//! Causal per-packet tracing: sampled spans in a lock-free ring,
//! exportable as Chrome trace-event JSON (loadable in Perfetto or
//! `chrome://tracing`).
//!
//! A traced packet carries a 64-bit trace id on the wire (the frame
//! header's `trace` field in `neptune-net`) and leaves one
//! [`Span`] per pipeline stage it crosses: source pump → buffer-wait →
//! transport → schedule → execution → sink, plus reactor dispatch
//! stints. Sampling is deterministic — 1 in N source packets by
//! sequence number, N a power of two — so two runs over the same input
//! trace the same packets and an unsampled packet costs nothing beyond
//! one mask test.
//!
//! Spans land in a [`SpanRing`]: a set of seqlock-slot shards (see
//! [`crate::ring`]), one picked per writer thread by a cached
//! thread-local hash, so concurrent stages never contend on a slot in
//! the common case. The ring is bounded and overwrites oldest spans;
//! nothing on the hot path allocates or locks.

use crate::ring::{Packable, SeqRing};
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Pipeline stage a span measures, in causal order.
pub const STAGE_SOURCE: u8 = 0;
/// Enqueue → flush inside the sender's output buffer.
pub const STAGE_BUFFER_WAIT: u8 = 1;
/// Flush → arrival on the destination watermark queue.
pub const STAGE_TRANSPORT: u8 = 2;
/// Arrival → the receiving task actually running.
pub const STAGE_SCHEDULE: u8 = 3;
/// Decoding and processing one scheduled batch.
pub const STAGE_EXECUTION: u8 = 4;
/// Terminal-operator processing (end of the traced packet's journey).
pub const STAGE_SINK: u8 = 5;
/// One reactor dispatch stint (not tied to a single packet).
pub const STAGE_REACTOR: u8 = 6;

/// Stage names indexed by the `STAGE_*` constants, used as Chrome
/// trace-event names.
pub const TRACE_STAGE_NAMES: [&str; 7] =
    ["source", "buffer_wait", "transport", "schedule", "execution", "sink", "reactor"];

/// One recorded stage crossing of a traced packet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Trace id carried on the wire; 0 for spans not tied to a packet
    /// (reactor dispatch stints).
    pub trace_id: u64,
    /// Span start, microseconds wall clock (Unix epoch).
    pub start_micros: u64,
    /// Span duration in microseconds.
    pub dur_micros: u64,
    /// One of the `STAGE_*` constants.
    pub stage: u8,
    /// Track id from [`SpanRing::register_track`] — the operator or
    /// subsystem this span executed in.
    pub track: u16,
}

impl Span {
    /// Stage name for exporters.
    pub fn stage_name(&self) -> &'static str {
        TRACE_STAGE_NAMES.get(self.stage as usize).copied().unwrap_or("unknown")
    }
}

impl Packable<4> for Span {
    fn pack(&self) -> [u64; 4] {
        [
            self.trace_id,
            self.start_micros,
            self.dur_micros,
            (self.stage as u64) | ((self.track as u64) << 8),
        ]
    }

    fn unpack(words: [u64; 4]) -> Self {
        Span {
            trace_id: words[0],
            start_micros: words[1],
            dur_micros: words[2],
            stage: (words[3] & 0xFF) as u8,
            track: ((words[3] >> 8) & 0xFFFF) as u16,
        }
    }
}

const SHARDS: usize = 8;

thread_local! {
    /// Per-thread shard pick, computed once from the thread id hash.
    static THREAD_SHARD: Cell<Option<usize>> = const { Cell::new(None) };
}

fn thread_shard() -> usize {
    THREAD_SHARD.with(|c| match c.get() {
        Some(s) => s,
        None => {
            let mut h = DefaultHasher::new();
            std::thread::current().id().hash(&mut h);
            let s = (h.finish() as usize) % SHARDS;
            c.set(Some(s));
            s
        }
    })
}

/// Bounded, lock-free, thread-sharded store of sampled [`Span`]s.
#[derive(Debug)]
pub struct SpanRing {
    shards: [SeqRing<Span, 4>; SHARDS],
    tracks: Mutex<Vec<String>>,
    /// `sample_every - 1` for the power-of-two sampling mask.
    sample_mask: u64,
}

impl SpanRing {
    /// A ring holding roughly `capacity` spans total, sampling 1 in
    /// `sample_every` source packets (`sample_every` must be a power of
    /// two; it is rounded up if not).
    pub fn new(capacity: usize, sample_every: u32) -> Self {
        let per_shard = capacity.div_ceil(SHARDS);
        SpanRing {
            shards: std::array::from_fn(|_| SeqRing::new(per_shard)),
            tracks: Mutex::new(Vec::new()),
            sample_mask: (sample_every.max(1).next_power_of_two() as u64) - 1,
        }
    }

    /// True when `seq` is one of the 1-in-N sampled sequence numbers.
    /// Deterministic: the same stream samples the same packets.
    #[inline]
    pub fn sampled(&self, seq: u64) -> bool {
        seq & self.sample_mask == 0
    }

    /// The sampling period N (always a power of two).
    pub fn sample_every(&self) -> u64 {
        self.sample_mask + 1
    }

    /// Register (or look up) a named track — one per operator or
    /// subsystem — returning the id to stamp on spans. Tracks render as
    /// Perfetto threads.
    pub fn register_track(&self, name: &str) -> u16 {
        let mut tracks = self.tracks.lock().unwrap();
        if let Some(i) = tracks.iter().position(|t| t == name) {
            return i as u16;
        }
        tracks.push(name.to_string());
        (tracks.len() - 1) as u16
    }

    /// Registered track names, indexed by track id.
    pub fn track_names(&self) -> Vec<String> {
        self.tracks.lock().unwrap().clone()
    }

    /// Record one span (lock-free; drops under claim races).
    #[inline]
    pub fn record(&self, span: Span) {
        self.shards[thread_shard()].push(span);
    }

    /// Spans published so far (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.shards.iter().map(|s| s.recorded()).sum()
    }

    /// Spans dropped to slot-claim races.
    pub fn dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped()).sum()
    }

    /// Copy out every stable span, ordered by start time.
    pub fn snapshot(&self) -> Vec<Span> {
        let mut spans: Vec<Span> = self.shards.iter().flat_map(|s| s.snapshot()).collect();
        spans.sort_by_key(|s| (s.start_micros, s.trace_id, s.stage));
        spans
    }

    /// Render the ring as a Chrome trace-event JSON document (the
    /// `{"traceEvents": [...]}` object form Perfetto loads directly).
    /// Each track becomes a named thread; each span a complete (`"X"`)
    /// event with its trace id in `args`.
    pub fn to_chrome_trace(&self) -> String {
        chrome_trace_json(&self.snapshot(), &self.track_names())
    }
}

/// Minimal JSON string escaping for track names and messages.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render spans + track names as a Chrome trace-event JSON document.
pub fn chrome_trace_json(spans: &[Span], tracks: &[String]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for (tid, name) in tracks.iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ));
    }
    for s in spans {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"neptune\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{},\"args\":{{\"trace_id\":\"{:#x}\"}}}}",
            s.stage_name(),
            s.start_micros,
            s.dur_micros,
            s.track,
            s.trace_id
        ));
    }
    out.push_str("]}");
    out
}

/// Microseconds since the Unix epoch — the wall clock spans are
/// recorded against (matches the `sent_at`/source timestamps frames
/// already carry).
pub fn wall_micros() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Sampled trace ids propagate through a fan-out buffer as a pending
/// mark: the first traced packet to enter an un-flushed batch tags it,
/// and the flush takes the tag onto the outgoing frame. Lock-free
/// (one atomic), loses later ids when two traced packets share a batch
/// — acceptable at 1-in-N sampling.
#[derive(Debug, Default)]
pub struct PendingTrace(AtomicU64);

impl PendingTrace {
    /// Empty mark.
    pub const fn new() -> Self {
        PendingTrace(AtomicU64::new(0))
    }

    /// Tag the batch with `trace_id` if it is not already tagged.
    #[inline]
    pub fn set_if_empty(&self, trace_id: u64) {
        let _ = self.0.compare_exchange(0, trace_id, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Take the tag off the batch (returns `None` when untagged).
    #[inline]
    pub fn take(&self) -> Option<u64> {
        match self.0.swap(0, Ordering::Relaxed) {
            0 => None,
            id => Some(id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_power_of_two() {
        let ring = SpanRing::new(64, 128);
        assert_eq!(ring.sample_every(), 128);
        assert!(ring.sampled(0));
        assert!(!ring.sampled(1));
        assert!(ring.sampled(128));
        assert!(ring.sampled(256));
        let ring = SpanRing::new(64, 100); // rounds up to 128
        assert_eq!(ring.sample_every(), 128);
    }

    #[test]
    fn span_packs_round_trip() {
        let s = Span {
            trace_id: 0xDEAD_BEEF_0000_0001,
            start_micros: 123_456_789,
            dur_micros: 42,
            stage: STAGE_EXECUTION,
            track: 7,
        };
        assert_eq!(Span::unpack(s.pack()), s);
    }

    #[test]
    fn tracks_dedup_by_name() {
        let ring = SpanRing::new(64, 1);
        let a = ring.register_track("src");
        let b = ring.register_track("sink");
        assert_eq!(ring.register_track("src"), a);
        assert_ne!(a, b);
        assert_eq!(ring.track_names(), vec!["src".to_string(), "sink".to_string()]);
    }

    #[test]
    fn chrome_trace_renders_metadata_and_spans() {
        let ring = SpanRing::new(64, 1);
        let t = ring.register_track("relay \"ops\"");
        ring.record(Span {
            trace_id: 5,
            start_micros: 1000,
            dur_micros: 30,
            stage: STAGE_BUFFER_WAIT,
            track: t,
        });
        let json = ring.to_chrome_trace();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("relay \\\"ops\\\""));
        assert!(json.contains("\"name\":\"buffer_wait\""));
        assert!(json.contains("\"ts\":1000"));
        assert!(json.contains("\"dur\":30"));
        assert!(json.contains("\"trace_id\":\"0x5\""));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn empty_ring_renders_valid_document() {
        let ring = SpanRing::new(8, 1);
        assert_eq!(ring.to_chrome_trace(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
    }

    #[test]
    fn pending_trace_first_writer_wins() {
        let p = PendingTrace::new();
        assert_eq!(p.take(), None);
        p.set_if_empty(9);
        p.set_if_empty(11);
        assert_eq!(p.take(), Some(9));
        assert_eq!(p.take(), None);
    }

    #[test]
    fn snapshot_sorts_by_start_time() {
        let ring = SpanRing::new(64, 1);
        for (ts, stage) in [(300u64, STAGE_SINK), (100, STAGE_SOURCE), (200, STAGE_TRANSPORT)] {
            ring.record(Span { trace_id: 1, start_micros: ts, dur_micros: 1, stage, track: 0 });
        }
        let starts: Vec<u64> = ring.snapshot().iter().map(|s| s.start_micros).collect();
        assert_eq!(starts, vec![100, 200, 300]);
    }
}
