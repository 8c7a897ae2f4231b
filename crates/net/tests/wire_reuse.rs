//! Buffer-reuse tests for the TCP hop.
//!
//! * In steady state a stream of 1 MB frames performs **zero body-sized
//!   allocations** end to end: the sender encodes into a wire buffer its
//!   task has finished with ([`TcpSender::wire_buffer`]), the receiver
//!   reads the body into a pooled buffer the consumer recycled. Counted by
//!   a global allocator, as `reuse_allocation` does.
//! * Bodyless control frames (heartbeats, acks, barriers) never touch the
//!   receiver's [`BytesPool`] — they used to check out a buffer per frame
//!   and drop it unrecycled.

use neptune_compress::SelectiveCompressor;
use neptune_net::frame::{encode_control_frame, encode_frame_into, ControlKind, FrameHeader};
use neptune_net::pool::BytesPool;
use neptune_net::tcp::{TcpReceiver, TcpSender};
use neptune_net::test_support::{wait_for, NetRig};
use neptune_net::watermark::WatermarkConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Anything at least this large is "body-sized" next to a 1 MB frame.
const BODY_SIZED: usize = 256 << 10;

static BODY_SIZED_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountLarge;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a relaxed counter bump that touches no allocator state.
unsafe impl GlobalAlloc for CountLarge {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= BODY_SIZED {
            BODY_SIZED_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= BODY_SIZED {
            BODY_SIZED_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountLarge = CountLarge;

/// The allocation counter is process-wide: the tests here take turns.
static SERIAL: Mutex<()> = Mutex::new(());

const TIMEOUT: Duration = Duration::from_secs(20);

/// A connected pooled receiver/sender pair.
fn connect(rig: &NetRig, pool: &Arc<BytesPool>) -> (TcpReceiver, TcpSender) {
    let driver = rig.driver();
    let rx = TcpReceiver::bind_reactor_pooled(
        "127.0.0.1:0",
        WatermarkConfig::new(16 << 20, 1 << 20),
        pool.clone(),
        &driver,
    )
    .unwrap();
    // Deep enough for every control frame one test sends: `send` does not
    // wait.
    let tx = TcpSender::connect_reactor(rx.local_addr(), 256, &driver).unwrap();
    (rx, tx)
}

#[test]
fn steady_state_megabyte_frames_allocate_nothing_body_sized() {
    let _turn = SERIAL.lock().unwrap();
    let rig = NetRig::new("wire-reuse");
    // One 1 MB message, length-prefixed the way an output buffer flushes it.
    let mut batch = (1u32 << 20).to_le_bytes().to_vec();
    batch.extend((0..1usize << 20).map(|i| (i * 31 + i / 251) as u8));
    let raw = SelectiveCompressor::disabled();

    let pool = Arc::new(BytesPool::new(8));
    let (rx, tx) = connect(&rig, &pool);
    let queue = rx.queue();
    // One frame in flight at a time, and the next is not encoded until
    // the sender task has handed the previous buffer back (`frames_sent`
    // moves only after it has): what is reused is then exact.
    let relay = |seq: u64| {
        let mut wire = tx.wire_buffer();
        let header = FrameHeader { link_id: 1, base_seq: seq, count: 1, ..FrameHeader::default() };
        encode_frame_into(&mut wire, &header, &batch, &raw);
        tx.send(wire).unwrap();
        let frame = queue.pop_timeout(TIMEOUT).expect("frame");
        assert_eq!(frame.base_seq, seq);
        assert_eq!(frame.messages[0].len(), 1 << 20);
        assert!(pool.recycle(frame.messages.into_batch()), "sole handle");
        assert!(wait_for(TIMEOUT, || tx.frames_sent() == seq + 1), "written");
    };
    for seq in 0..5 {
        relay(seq);
    }
    let before = BODY_SIZED_ALLOCATIONS.load(Ordering::Relaxed);
    for seq in 5..105 {
        relay(seq);
    }
    let allocated = BODY_SIZED_ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(allocated, 0, "body-sized allocations over 100 warm frames");
    let stats = pool.stats();
    assert_eq!(stats.misses, 1, "one body buffer, reused: {stats:?}");
    tx.close();
    rx.shutdown();
}

#[test]
fn bodyless_control_frames_leave_the_pool_untouched() {
    let _turn = SERIAL.lock().unwrap();
    let rig = NetRig::new("wire-ctl");
    let pool = Arc::new(BytesPool::new(8));
    // Idle buffers a stray `checkout(0)` would pop (and then leak).
    let idle: Vec<_> = (0..4).map(|_| pool.checkout(1 << 16)).collect();
    idle.into_iter().for_each(|buf| pool.recycle_mut(buf));
    let before = pool.stats();
    let (rx, tx) = connect(&rig, &pool);
    let queue = rx.queue();
    const ROUNDS: u64 = 50;
    for i in 0..ROUNDS {
        tx.send(encode_control_frame(3, ControlKind::Heartbeat, i)).unwrap();
        tx.send(encode_control_frame(3, ControlKind::Ack, i)).unwrap();
        tx.send(encode_control_frame(3, ControlKind::Barrier, i)).unwrap();
    }
    // Barriers ride the data queue in order, so the last one out means
    // every control frame before it has been through the decoder.
    for i in 0..ROUNDS {
        let barrier = queue.pop_timeout(TIMEOUT).expect("barrier");
        assert_eq!((barrier.control, barrier.base_seq), (Some(ControlKind::Barrier), i));
    }
    assert_eq!(pool.stats(), before, "control frames must not touch the pool");
    assert_eq!(pool.idle(), 4);
    tx.close();
    rx.shutdown();
}
