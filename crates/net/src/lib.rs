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
//!   behind a fixed, versioned header, CRC32-protected end to end and with
//!   an optionally entropy-compressed body, so a batch costs one
//!   network-stack traversal instead of hundreds. The checksum ([`crc`])
//!   streams over the frame as it is written or read, on a
//!   carry-less-multiply kernel where the CPU has one.
//! * **Backpressure** (§III-B4): [`WatermarkQueue`] is the bounded inbound
//!   buffer with high/low watermarks. Once the high watermark is reached
//!   the queue stays gated until consumers drain it to the low watermark:
//!   an in-process producer task is refused by [`WatermarkQueue::try_push`]
//!   and parks until the gate reopens, and on the TCP transport the
//!   connection task stops reading its socket — the TCP window closes and
//!   throttles the sender. The queue never drops what it was handed.
//!
//! Frames travel over the `neptune-link` crate's transport flavours:
//! in-process queue handover (links between operators co-located in one
//! resource) and [`tcp`] (links across resources: nonblocking state
//! machines on the fixed IO tier of §III's two-tier thread model, woken by
//! an epoll reactor — O(io_threads) threads at thousands of connections).
//! This crate keeps the shared vocabulary ([`transport::TransportError`])
//! those flavours compose over.

pub mod buffer;
pub mod crc;
pub mod frame;
pub mod pool;
pub mod tcp;
pub mod test_support;
pub mod transport;
pub mod watermark;

pub use buffer::{FlushedBatch, OutputBuffer, PushOutcome};
pub use crc::{crc32, Crc32};
pub use frame::{
    decode_frame, encode_control_frame, encode_frame, encode_frame_raw, encode_hello_frame,
    read_frame, ControlKind, Frame, FrameDecoder, FrameError, FrameHeader, FrameMessages, CAPS_ALL,
    CAP_COMPRESS, CAP_SEQ_REPLAY, CAP_TRACE, FRAME_HEADER_LEN, PROTOCOL_VERSION,
};
pub use pool::{BytesPool, BytesPoolStats};
pub use tcp::{HandshakeGate, NetDriver, TcpReceiver, TcpSender};
pub use transport::TransportError;
pub use watermark::{PushError, WatermarkConfig, WatermarkQueue};
