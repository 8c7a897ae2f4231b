//! # neptune-net
//!
//! Networking substrate for the NEPTUNE reproduction.
//!
//! This crate owns the mechanisms behind three of the paper's optimizations:
//!
//! * **Application-level buffering** (§III-B1): [`OutputBuffer`] accumulates
//!   serialized stream packets per link and flushes either when a
//!   *byte-capacity* threshold is reached ("irrespective of the number of
//!   the messages in the buffer and their sizes") or when a *flush timer*
//!   expires ("a timer that guarantees flushing of the buffer after a
//!   certain time period since arrival of the first message"), bounding
//!   end-to-end latency.
//! * **Batch framing**: [`frame`] packs a flushed buffer into one wire frame
//!   with a CRC32-protected, optionally entropy-compressed body, so a batch
//!   costs one network-stack traversal instead of hundreds. The checksum
//!   ([`crc`]) streams over the body as it is written or read, on a
//!   carry-less-multiply kernel where the CPU has one.
//! * **Backpressure** (§III-B4): [`WatermarkQueue`] is the bounded inbound
//!   buffer with high/low watermarks. IO threads block on
//!   [`WatermarkQueue::push_blocking`] when the high watermark is reached
//!   and stay blocked until consumers drain it to the low watermark —
//!   which, on the TCP transport, stops the reader from draining the
//!   socket, closes the TCP window, and throttles the sender.
//!
//! Frames travel over the `neptune-link` crate's transport flavours:
//! in-process queue handover (links between operators co-located in one
//! resource) and [`tcp`] (links across resources, with dedicated IO
//! threads per §III's two-tier thread model). The TCP path itself has two
//! selectable implementations — blocking thread-per-connection and
//! readiness-driven ([`tcp_reactor`], epoll + IO-pool tasks,
//! O(io_threads) at thousands of connections) — behind one
//! byte-compatible facade. This crate keeps the shared vocabulary
//! ([`transport::TransportError`], [`flush::FlushPolicy`]) those flavours
//! compose over.

pub mod buffer;
pub mod crc;
pub mod flush;
pub mod frame;
pub mod pool;
pub mod tcp;
pub mod tcp_reactor;
pub mod test_support;
pub mod transport;
pub mod watermark;

pub use buffer::{FlushReason, FlushedBatch, OutputBuffer, PushOutcome};
pub use crc::{crc32, Crc32};
pub use flush::{FlushPolicy, FlushPolicySnapshot};
pub use frame::{
    decode_frame, decode_frame_shared, encode_control_frame, encode_frame, encode_frame_raw,
    encode_frame_raw_ext, encode_hello_frame, hello_parts, hello_value, read_frame,
    read_frame_pooled, ControlKind, Frame, FrameDecoder, FrameError, FrameMessages, CAPS_ALL,
    CAP_COMPRESS, CAP_SEQ_REPLAY, CAP_TRACE, FLAG_CONTROL, FLAG_SENT_AT, FLAG_SEQ,
    FRAME_HEADER_LEN, PROTOCOL_VERSION,
};
pub use pool::{BytesPool, BytesPoolStats};
pub use tcp::{HandshakeGate, TcpReceiver, TcpSender};
pub use tcp_reactor::NetDriver;
pub use transport::TransportError;
pub use watermark::{PushError, Pushed, ShedConfig, ShedPolicy, WatermarkConfig, WatermarkQueue};
