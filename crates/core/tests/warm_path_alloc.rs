//! The warm packet path allocates nothing.
//!
//! Once warmed up, 10 000 rounds each of encoding into a reused buffer,
//! decoding into a reused workhorse, and building an output packet from
//! the operator's pool with literal names must not call the allocator
//! once. Field slots survive `clear()` with their names, so a name is
//! written only when it changes. Allocations are counted per thread, so
//! the tests may run in parallel.

use neptune_core::codec::PacketCodec;
use neptune_core::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct CountPerThread;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a bump of a const-initialized thread-local cell, which
// neither allocates nor touches allocator state.
unsafe impl GlobalAlloc for CountPerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountPerThread = CountPerThread;

const ROUNDS: usize = 10_000;

/// Allocations on this thread while `round` runs `ROUNDS` times, after
/// one warm-up pass of `ROUNDS` more.
fn warm_allocations(mut round: impl FnMut(usize)) -> u64 {
    (0..ROUNDS).for_each(&mut round);
    let before = ALLOCATIONS.with(Cell::get);
    (ROUNDS..2 * ROUNDS).for_each(&mut round);
    ALLOCATIONS.with(Cell::get) - before
}

/// A reading with every field type, numbered `i`.
fn reading(i: u64) -> StreamPacket {
    let mut p = StreamPacket::new();
    p.push_field("ts", FieldValue::Timestamp(1_600_000_000_000_000 + i))
        .push_field("id", FieldValue::U64(i))
        .push_field("delta", FieldValue::I64(-(i as i64)))
        .push_field("temp", FieldValue::F64(i as f64 / 4.0))
        .push_field("ok", FieldValue::Bool(i.is_multiple_of(2)))
        .push_field("site", FieldValue::Str(format!("plant-{}", i % 10)))
        .push_field("raw", FieldValue::Bytes(vec![i as u8; 16 + i as usize % 8]));
    p
}

#[test]
fn encoding_into_a_reused_buffer_allocates_nothing() {
    let packets: Vec<StreamPacket> = (0..8).map(reading).collect();
    let mut codec = PacketCodec::new();
    let mut out = Vec::new();
    let allocations = warm_allocations(|i| {
        out.clear();
        codec.encode_into(&packets[i % packets.len()], &mut out).unwrap();
    });
    assert_eq!(allocations, 0);
}

#[test]
fn decoding_into_a_workhorse_allocates_nothing() {
    let mut codec = PacketCodec::new();
    // Full readings, and between them a shorter packet: the slots past
    // its length must survive it with their names.
    let mut short = StreamPacket::new();
    short.push_field("ts", FieldValue::Timestamp(7)).push_field("id", FieldValue::U64(7));
    let mut encoded: Vec<Vec<u8>> = (0..8).map(|i| codec.encode(&reading(i)).unwrap()).collect();
    encoded.insert(3, codec.encode(&short).unwrap());
    let mut workhorse = StreamPacket::new();
    let allocations = warm_allocations(|i| {
        codec.decode_into(&encoded[i % encoded.len()], &mut workhorse).unwrap();
    });
    assert_eq!(allocations, 0);
    let last = &encoded[(2 * ROUNDS - 1) % encoded.len()];
    assert_eq!(workhorse, codec.decode(last).unwrap());
}

#[test]
fn a_pooled_packet_with_literal_names_allocates_nothing() {
    let mut ctx = OperatorContext::collector("warm");
    let allocations = warm_allocations(|i| {
        let mut out = ctx.checkout_packet();
        out.push_field("pair", FieldValue::U64(i as u64 % 3))
            .push_field("ts", FieldValue::Timestamp(i as u64))
            .push_field("s", FieldValue::Bool(i.is_multiple_of(2)))
            .push_field("v", FieldValue::Bool(i.is_multiple_of(3)))
            .push_field("due", FieldValue::U64(i as u64));
        ctx.checkin_packet(out);
    });
    assert_eq!(allocations, 0);
}
