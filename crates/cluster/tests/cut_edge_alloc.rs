//! The cut edge allocates per frame, never per packet.
//!
//! `src → relay → __egress → loopback TCP → __ingress → forward → sink`
//! between two [`DataPlane`]s, with a source, relays and a sink that reuse
//! their packets (so what is left is the boundary's own): after a warm-up,
//! 100 k packets must cost fewer than 0.05 allocations each, process-wide,
//! counted by a global allocator as `crates/net/tests/wire_reuse.rs` does.
//! Before batches were forwarded encoded, every packet cost a `Vec<u8>` on
//! the route queue alone. The upstream relay is `forward`, or the
//! benchmark's `window_mean` over packets that carry a byte payload — which
//! cost a `Vec<u8>` per packet while it cloned each field into its output.
//!
//! The count is process-wide, so the cases take turns.

use neptune_cluster::dataplane::{AckMode, DataPlane};
use neptune_cluster::ops::builtin_registry;
use neptune_core::descriptor::OperatorRegistry;
use neptune_core::graph::OperatorSpec;
use neptune_core::json::{self, JsonValue};
use neptune_core::prelude::*;
use neptune_net::test_support::wait_for;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountAll;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a relaxed counter bump that touches no allocator state.
unsafe impl GlobalAlloc for CountAll {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountAll = CountAll;

const WARM_UP: u64 = 20_000;
const MEASURED: u64 = 100_000;
const TIMEOUT: Duration = Duration::from_secs(60);
/// Held by the case that is counting.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Emits uids up to a limit the test raises, mutating one packet in place.
struct GatedSource {
    packet: StreamPacket,
    next: u64,
    limit: Arc<AtomicU64>,
    done: Arc<AtomicBool>,
}

impl StreamSource for GatedSource {
    fn next(&mut self, ctx: &mut OperatorContext) -> SourceStatus {
        let limit = self.limit.load(Ordering::Acquire);
        if self.next >= limit {
            return if self.done.load(Ordering::Acquire) {
                SourceStatus::Exhausted
            } else {
                SourceStatus::Idle
            };
        }
        let burst = (limit - self.next).min(256);
        for _ in 0..burst {
            *self.packet.get_mut("uid").expect("built with a uid") = FieldValue::U64(self.next);
            if ctx.emit(&self.packet).is_err() {
                return SourceStatus::Exhausted;
            }
            self.next += 1;
        }
        SourceStatus::Emitted(burst as usize)
    }
}

struct CountingSink {
    received: Arc<AtomicU64>,
    uid_sum: Arc<AtomicU64>,
}

impl StreamProcessor for CountingSink {
    fn process(&mut self, packet: &StreamPacket, _ctx: &mut OperatorContext) {
        let uid = packet.get("uid").and_then(|v| v.as_u64()).expect("uid survives the hop");
        self.uid_sum.fetch_add(uid, Ordering::Relaxed);
        self.received.fetch_add(1, Ordering::Release);
    }
}

fn registered(registry: &OperatorRegistry, factory: &str, name: &str, addr: &str) -> OperatorSpec {
    let params = json::object([
        ("edge", JsonValue::Number(0.0)),
        ("epoch", JsonValue::Number(0.0)),
        ("addr", JsonValue::String(addr.to_string())),
    ]);
    let factory = registry
        .processor_factory(factory, &params)
        .or_else(|| registry.source_factory(factory, &params))
        .expect("builtin and boundary operators are registered");
    OperatorSpec { name: name.to_string(), parallelism: 1, factory }
}

fn wait_until(what: &str, cond: impl FnMut() -> bool) {
    assert!(wait_for(TIMEOUT, cond), "timed out waiting until {what}");
}

#[test]
fn a_warm_cut_edge_allocates_per_frame_not_per_packet() {
    assert_allocates_per_frame("forward", None);
}

#[test]
fn a_warm_window_mean_before_the_cut_allocates_per_frame_not_per_packet() {
    assert_allocates_per_frame("window_mean", Some(64));
}

/// Run the cut edge with `relay` upstream, over packets that carry a
/// `pad` of that many bytes if given, and hold it to the bound.
fn assert_allocates_per_frame(relay: &str, pad: Option<usize>) {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let up_plane = DataPlane::bind("127.0.0.1:0", AckMode::Quiescent).expect("bind up plane");
    let down_plane = DataPlane::bind("127.0.0.1:0", AckMode::Quiescent).expect("bind down plane");
    let received = Arc::new(AtomicU64::new(0));
    let uid_sum = Arc::new(AtomicU64::new(0));
    let limit = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));

    let mut down_registry = builtin_registry();
    down_plane.register_boundary_ops(&mut down_registry);
    let (sink_received, sink_sum) = (received.clone(), uid_sum.clone());
    let down = GraphBuilder::new("alloc-down")
        .operator_spec(registered(&down_registry, "__ingress", "in", ""))
        .operator_spec(registered(&down_registry, "forward", "relay", ""))
        .processor("sink", move || CountingSink {
            received: sink_received.clone(),
            uid_sum: sink_sum.clone(),
        })
        .link("in", "relay", PartitioningScheme::Shuffle)
        .link("relay", "sink", PartitioningScheme::Shuffle)
        .build()
        .expect("valid downstream half");
    let down = LocalRuntime::new(RuntimeConfig::default()).submit(down).expect("deploys");

    let mut up_registry = builtin_registry();
    up_plane.register_boundary_ops(&mut up_registry);
    let (src_limit, src_done) = (limit.clone(), done.clone());
    let down_addr = down_plane.local_addr().to_string();
    let up = GraphBuilder::new("alloc-up")
        .source("src", move || {
            let mut packet = StreamPacket::new();
            packet.push_field("uid", FieldValue::U64(0));
            packet.push_field("v", FieldValue::F64(0.5));
            if let Some(bytes) = pad {
                packet.push_field("pad", FieldValue::Bytes(vec![7; bytes]));
            }
            GatedSource { packet, next: 0, limit: src_limit.clone(), done: src_done.clone() }
        })
        .operator_spec(registered(&up_registry, relay, "relay", ""))
        .operator_spec(registered(&up_registry, "__egress", "out", &down_addr))
        .link("src", "relay", PartitioningScheme::Shuffle)
        .link("relay", "out", PartitioningScheme::Shuffle)
        .build()
        .expect("valid upstream half");
    let up = LocalRuntime::new(RuntimeConfig::default()).submit(up).expect("deploys");

    limit.store(WARM_UP, Ordering::Release);
    wait_until("the warm-up has crossed", || received.load(Ordering::Acquire) == WARM_UP);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    limit.store(WARM_UP + MEASURED, Ordering::Release);
    wait_until("the measured packets have crossed", || {
        received.load(Ordering::Acquire) == WARM_UP + MEASURED
    });
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    done.store(true, Ordering::Release);
    assert!(up.await_sources(TIMEOUT), "source did not finish");
    up.stop();
    down_plane.drain_ingress();
    assert!(down.await_sources(TIMEOUT), "ingress did not drain");
    down.stop();
    let frames = down_plane.stats().frames_in;
    up_plane.shutdown();
    down_plane.shutdown();

    let total = WARM_UP + MEASURED;
    assert_eq!(uid_sum.load(Ordering::Relaxed), total * (total - 1) / 2, "every uid, once");
    let per_packet = allocations as f64 / MEASURED as f64;
    assert!(
        per_packet < 0.05,
        "{relay}: {allocations} allocations for {MEASURED} warm packets ({per_packet:.4} each, \
         {frames} frames crossed in all)"
    );
}
