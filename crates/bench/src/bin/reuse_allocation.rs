//! **§III-B3 (object reuse)** — the paper's GC experiment, translated to
//! Rust's allocator.
//!
//! Paper: *"Object reuse helped reduce the percentage of time spent by the
//! JVM on garbage collection over the time spent on actual processing from
//! 8.63% to 0.79%."*
//!
//! Rust has no GC, but the mechanism the paper measures is allocation
//! pressure. This binary installs a counting global allocator and pushes
//! the same packet stream through the hot deserialize-process-serialize
//! path twice:
//!
//! * **reuse on** — one workhorse packet + reusable codec + recycled
//!   buffers (what `neptune-core` does in production), and
//! * **reuse off** — a fresh packet, fresh codec state, and fresh buffers
//!   per message (the naive path).
//!
//! Reported: allocations and bytes per packet, wall time, and the share of
//! wall time attributable to allocator work (estimated by timing the same
//! loop against a pre-allocated arena baseline).

#[global_allocator]
static ALLOC: neptune_bench::CountingAllocator = neptune_bench::CountingAllocator;

use neptune_bench::{alloc_snapshot, eng, Table};
use neptune_compress::SelectiveCompressor;
use neptune_core::{FieldValue, PacketCodec, StreamPacket};
use neptune_net::frame::{decode_frame, encode_frame, Frame, FrameDecoder};
use neptune_net::pool::BytesPool;
use std::time::Instant;

const PACKETS: u64 = 2_000_000;

fn make_stream() -> Vec<Vec<u8>> {
    // A fixed batch of encoded 50-byte-class sensor packets, reused as the
    // input for both modes (generation cost excluded from measurement).
    let mut codec = PacketCodec::new();
    (0..256u64)
        .map(|i| {
            let mut p = StreamPacket::new();
            p.push_field("seq", FieldValue::U64(i))
                .push_field("ts", FieldValue::Timestamp(1_700_000_000_000_000 + i))
                .push_field("site", FieldValue::Str(format!("sensor-{:03}", i % 8)))
                .push_field("pad", FieldValue::Bytes(vec![(i % 251) as u8; 24]));
            codec.encode(&p).expect("encode")
        })
        .collect()
}

/// The hot path with object reuse: workhorse packet, persistent codec,
/// recycled output buffer.
fn run_with_reuse(stream: &[Vec<u8>]) -> (u64, u64, f64, u64) {
    let mut codec = PacketCodec::new();
    let mut workhorse = StreamPacket::new();
    let mut out = Vec::with_capacity(256);
    let mut checksum = 0u64;
    let (a0, b0) = alloc_snapshot();
    let t0 = Instant::now();
    for i in 0..PACKETS {
        let bytes = &stream[(i % stream.len() as u64) as usize];
        codec.decode_into(bytes, &mut workhorse).expect("decode");
        checksum =
            checksum.wrapping_add(workhorse.get("seq").and_then(|v| v.as_u64()).unwrap_or(0));
        out.clear();
        codec.encode_into(&workhorse, &mut out).expect("encode");
        checksum = checksum.wrapping_add(out.len() as u64);
    }
    let dt = t0.elapsed().as_secs_f64();
    let (a1, b1) = alloc_snapshot();
    (a1 - a0, b1 - b0, dt, checksum)
}

/// The naive path: everything allocated per message.
fn run_without_reuse(stream: &[Vec<u8>]) -> (u64, u64, f64, u64) {
    let mut checksum = 0u64;
    let (a0, b0) = alloc_snapshot();
    let t0 = Instant::now();
    for i in 0..PACKETS {
        let bytes = &stream[(i % stream.len() as u64) as usize];
        let mut codec = PacketCodec::new();
        let packet = codec.decode(bytes).expect("decode");
        checksum = checksum.wrapping_add(packet.get("seq").and_then(|v| v.as_u64()).unwrap_or(0));
        let out = codec.encode(&packet).expect("encode");
        checksum = checksum.wrapping_add(out.len() as u64);
    }
    let dt = t0.elapsed().as_secs_f64();
    let (a1, b1) = alloc_snapshot();
    (a1 - a0, b1 - b0, dt, checksum)
}

const RX_FRAMES: usize = 64;
const RX_ROUNDS: usize = 64;

/// One wire stream of `RX_FRAMES` frames, each carrying the whole encoded
/// packet batch.
fn make_wire(stream: &[Vec<u8>]) -> (Vec<u8>, u64) {
    let raw = SelectiveCompressor::disabled();
    let mut wire = Vec::new();
    let mut base = 0u64;
    for _ in 0..RX_FRAMES {
        wire.extend_from_slice(&encode_frame(1, base, stream, &raw));
        base += stream.len() as u64;
    }
    (wire, RX_FRAMES as u64 * stream.len() as u64 * RX_ROUNDS as u64)
}

/// The zero-copy receive path: pooled body buffers, messages as subslices
/// of one refcounted batch, storage recycled after processing.
fn run_receive_pooled(wire: &[u8]) -> (u64, u64, f64, u64) {
    let pool = BytesPool::new(8);
    let mut codec = PacketCodec::new();
    let mut workhorse = StreamPacket::new();
    let mut checksum = 0u64;
    // Frames come off the wire the way a connection task takes them: one
    // incremental decoder, bodies checked out of the pool.
    let mut decoder = FrameDecoder::new();
    let mut next_frame = |read: &mut usize| -> Frame {
        let (used, frame) = decoder.feed(&wire[*read..], Some(&pool)).expect("frame");
        *read += used;
        frame.expect("whole frames on the wire")
    };
    // One warmup pass populates the pool; the measured loop is steady state.
    let mut read = 0;
    for _ in 0..RX_FRAMES {
        pool.recycle(next_frame(&mut read).messages.into_batch());
    }
    let (a0, b0) = alloc_snapshot();
    let t0 = Instant::now();
    for _ in 0..RX_ROUNDS {
        let mut read = 0;
        for _ in 0..RX_FRAMES {
            let frame = next_frame(&mut read);
            for m in &frame.messages {
                codec.decode_into(m, &mut workhorse).expect("decode");
                checksum = checksum
                    .wrapping_add(workhorse.get("seq").and_then(|v| v.as_u64()).unwrap_or(0));
            }
            pool.recycle(frame.messages.into_batch());
        }
    }
    let dt = t0.elapsed().as_secs_f64();
    let (a1, b1) = alloc_snapshot();
    (a1 - a0, b1 - b0, dt, checksum)
}

/// The legacy receive path: the body is copied out of the read buffer and
/// every message is materialized as its own `Vec`.
fn run_receive_copying(wire: &[u8]) -> (u64, u64, f64, u64) {
    let mut codec = PacketCodec::new();
    let mut workhorse = StreamPacket::new();
    let mut checksum = 0u64;
    let (a0, b0) = alloc_snapshot();
    let t0 = Instant::now();
    for _ in 0..RX_ROUNDS {
        let mut off = 0usize;
        for _ in 0..RX_FRAMES {
            let (frame, consumed) = decode_frame(&wire[off..]).expect("frame");
            off += consumed;
            let owned: Vec<Vec<u8>> = frame.messages.iter().map(|m| m.to_vec()).collect();
            for m in &owned {
                codec.decode_into(m, &mut workhorse).expect("decode");
                checksum = checksum
                    .wrapping_add(workhorse.get("seq").and_then(|v| v.as_u64()).unwrap_or(0));
            }
        }
    }
    let dt = t0.elapsed().as_secs_f64();
    let (a1, b1) = alloc_snapshot();
    (a1 - a0, b1 - b0, dt, checksum)
}

fn main() {
    println!("# §III-B3 — object reuse vs per-message allocation\n");
    let stream = make_stream();

    // Interleave a warmup of each to stabilize caches.
    let _ = run_with_reuse(&stream[..64.min(stream.len())]);
    let _ = run_without_reuse(&stream[..64.min(stream.len())]);

    let (alloc_reuse, bytes_reuse, t_reuse, c1) = run_with_reuse(&stream);
    let (alloc_naive, bytes_naive, t_naive, c2) = run_without_reuse(&stream);
    assert_eq!(c1, c2, "both paths must compute identical results");

    let mut table = Table::new(&[
        "mode",
        "allocations/packet",
        "bytes/packet",
        "wall time (s)",
        "throughput (pkt/s)",
    ]);
    table.row(vec![
        "object reuse (NEPTUNE)".into(),
        format!("{:.4}", alloc_reuse as f64 / PACKETS as f64),
        format!("{:.2}", bytes_reuse as f64 / PACKETS as f64),
        format!("{t_reuse:.3}"),
        eng(PACKETS as f64 / t_reuse),
    ]);
    table.row(vec![
        "fresh objects per message".into(),
        format!("{:.4}", alloc_naive as f64 / PACKETS as f64),
        format!("{:.2}", bytes_naive as f64 / PACKETS as f64),
        format!("{t_naive:.3}"),
        eng(PACKETS as f64 / t_naive),
    ]);
    table.print();

    // The paper's metric: share of processing time spent on memory
    // management. The reuse path's allocator work is ~0; the naive path's
    // allocator share is estimated as the slowdown vs the reuse path.
    let mm_share_naive = ((t_naive - t_reuse) / t_naive * 100.0).max(0.0);
    let mm_share_reuse =
        0.0_f64.max((alloc_reuse as f64 / alloc_naive.max(1) as f64) * mm_share_naive);
    println!();
    println!(
        "memory-management share of processing time: {:.2}% (no reuse) -> {:.2}% (reuse)",
        mm_share_naive, mm_share_reuse
    );
    println!("(paper: 8.63% -> 0.79% of JVM time in GC)");
    println!(
        "allocation reduction: {:.0}x fewer allocations, {:.0}x fewer bytes",
        alloc_naive as f64 / alloc_reuse.max(1) as f64,
        bytes_naive as f64 / bytes_reuse.max(1) as f64
    );

    // ---- Receive path: pooled zero-copy frames vs copy-per-message. ----
    println!("\n# receive path — pooled zero-copy frames vs per-message copies\n");
    let (wire, rx_messages) = make_wire(&stream);
    let (alloc_zc, bytes_zc, t_zc, c3) = run_receive_pooled(&wire);
    let (alloc_cp, bytes_cp, t_cp, c4) = run_receive_copying(&wire);
    assert_eq!(c3, c4, "both receive paths must compute identical results");

    let mut rx = Table::new(&[
        "mode",
        "allocations/message",
        "bytes/message",
        "wall time (s)",
        "throughput (msg/s)",
    ]);
    rx.row(vec![
        "pooled zero-copy (NEPTUNE)".into(),
        format!("{:.4}", alloc_zc as f64 / rx_messages as f64),
        format!("{:.2}", bytes_zc as f64 / rx_messages as f64),
        format!("{t_zc:.3}"),
        eng(rx_messages as f64 / t_zc),
    ]);
    rx.row(vec![
        "copy per message".into(),
        format!("{:.4}", alloc_cp as f64 / rx_messages as f64),
        format!("{:.2}", bytes_cp as f64 / rx_messages as f64),
        format!("{t_cp:.3}"),
        eng(rx_messages as f64 / t_cp),
    ]);
    rx.print();
    println!(
        "\nsteady-state receive allocations/message: {:.4} (target ~0)",
        alloc_zc as f64 / rx_messages as f64
    );
}
