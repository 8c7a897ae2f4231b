//! Isolated layer probes: the bench calls each layer's public functions
//! directly, on the workload's own packet shape and batch size, and times
//! them. Single-threaded except where a layer is a hand-off between
//! threads (task dispatch, the TCP hops). Each probe runs inside a
//! bench-side span. Nothing here is tuned to make the ledger close.

use crate::ops::{KeyWindows, WindowPackets};
use crate::spans::SpanLog;
use crate::workloads::{Kind, Workload};
use bytes::Bytes;
use neptune_compress::{lz4, shannon_entropy, SelectiveCompressor};
use neptune_core::partition::Partitioner;
use neptune_core::prelude::*;
use neptune_core::window::TumblingWindow;
use neptune_core::PacketCodec;
use neptune_granules::{
    ComputationalTask, IoPool, Reactor, Resource, ScheduleSpec, TaskContext, TaskOutcome,
};
use neptune_link::{Link, LinkBuilder, ReconnectPolicy, RecoveryStats, ReplayBuffer, TcpFrameLink};
use neptune_net::buffer::{OutputBuffer, PushOutcome};
use neptune_net::frame::{decode_frame, encode_frame_raw, Frame, FrameDecoder};
use neptune_net::tcp::{TcpReceiver, TcpSender};
use neptune_net::watermark::{WatermarkConfig, WatermarkQueue};
use neptune_net::NetDriver;
use std::hint::black_box;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Packets generated once and reused by every probe.
const SAMPLE_PACKETS: u64 = 1024;
/// Socket reads feed the frame decoder in chunks of this size.
const READ_CHUNK: usize = 64 * 1024;
/// Keys in the state-snapshot probe (the `window_ckpt` device count).
const STATE_KEYS: u64 = 10_000;

/// What the probes of one workload found.
pub struct ProbeResults {
    /// `name → value`, in the order the probes ran.
    pub values: Vec<(&'static str, f64)>,
    /// Mean encoded size of the workload's source packets, bytes.
    pub mean_packet_bytes: f64,
}

impl ProbeResults {
    /// The value of probe `name` (0 when it did not run).
    pub fn get(&self, name: &str) -> f64 {
        self.values.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v)
    }
}

/// Repeat `batch` (which returns how many operations it did) for at
/// least `budget`; nanoseconds per operation.
fn ns_per_op(budget: Duration, mut batch: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut ops = 0u64;
    loop {
        ops += batch();
        let elapsed = start.elapsed();
        if elapsed >= budget {
            return elapsed.as_nanos() as f64 / ops.max(1) as f64;
        }
    }
}

/// The workload's packets, encoded, and one buffer's worth of them.
struct Shape {
    packets: Vec<StreamPacket>,
    encoded: Vec<Vec<u8>>,
    /// `[len | bytes]*` as an output buffer holds it: 1 MB, or the cut
    /// edge's 64 messages.
    batch: Vec<u8>,
    batch_count: u32,
    mean_packet_bytes: f64,
}

fn shape_of(workload: &Workload, seed: u64) -> Shape {
    let mut gen = workload.packet_gen(seed);
    let mut codec = PacketCodec::new();
    let packets: Vec<StreamPacket> = (0..SAMPLE_PACKETS)
        .map(|i| {
            let mut p = StreamPacket::new();
            gen.fill(i, 0, &mut p);
            p
        })
        .collect();
    let encoded: Vec<Vec<u8>> =
        packets.iter().map(|p| codec.encode(p).expect("bench packets encode")).collect();
    let (max_bytes, max_messages) = match workload.kind {
        Kind::ClusterCut => (usize::MAX, 64),
        _ => (1 << 20, usize::MAX),
    };
    let mut batch = Vec::new();
    let mut batch_count = 0u32;
    for msg in encoded.iter().cycle() {
        if batch.len() >= max_bytes || batch_count as usize >= max_messages {
            break;
        }
        batch.extend_from_slice(&(msg.len() as u32).to_le_bytes());
        batch.extend_from_slice(msg);
        batch_count += 1;
    }
    let mean_packet_bytes =
        encoded.iter().map(Vec::len).sum::<usize>() as f64 / encoded.len() as f64;
    Shape { packets, encoded, batch, batch_count, mean_packet_bytes }
}

struct Noop;

impl ComputationalTask for Noop {
    fn execute(&mut self, _ctx: &TaskContext) -> TaskOutcome {
        TaskOutcome::Continue
    }
}

/// Signal a deployed no-op task and watch it run, one at a time.
fn dispatch_ns_per_task(budget: Duration) -> f64 {
    let resource = Resource::builder("probe-dispatch").workers(1).build();
    let task = resource.deploy(Noop, ScheduleSpec::data_driven()).expect("deploys");
    let ns = ns_per_op(budget, || {
        let before = task.executions();
        task.signal();
        while task.executions() == before {
            std::hint::spin_loop();
        }
        1
    });
    resource.shutdown();
    ns
}

/// Send `shape.batch` through `link` until `budget` is spent while a
/// consumer thread pops the frames off `queue`; wall nanoseconds per
/// packet from the first send to the last frame received.
fn hop_ns_per_packet(
    link: &Arc<Link>,
    queue: &Arc<WatermarkQueue<Frame>>,
    shape: &Shape,
    budget: Duration,
) -> f64 {
    let batch = Bytes::from(shape.batch.clone());
    let start = Instant::now();
    let (sent, received) = std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::channel::<u64>();
        let consumer = scope.spawn(move || {
            let mut received = 0u64;
            let mut expected = None;
            loop {
                if let Ok(total) = rx.try_recv() {
                    expected = Some(total);
                }
                if expected.is_some_and(|e| received >= e) {
                    return received;
                }
                if let Some(frame) = queue.pop_timeout(Duration::from_millis(1)) {
                    if frame.control.is_none() {
                        received += 1;
                    }
                }
                assert!(start.elapsed() < budget + Duration::from_secs(20), "hop probe stalled");
            }
        });
        let mut sent = 0u64;
        while start.elapsed() < budget {
            link.send_batch(
                sent * u64::from(shape.batch_count),
                batch.clone(),
                shape.batch_count,
                0,
                0,
            )
            .expect("probe link accepts the batch");
            sent += 1;
        }
        tx.send(sent).expect("consumer alive");
        (sent, consumer.join().expect("consumer thread"))
    });
    assert_eq!(sent, received, "hop probe lost frames");
    start.elapsed().as_nanos() as f64 / (sent * u64::from(shape.batch_count)) as f64
}

/// A loopback TCP receiver and the pieces that keep it alive.
struct Loopback {
    pool: IoPool,
    reactor: Reactor,
    driver: NetDriver,
    receiver: TcpReceiver,
}

impl Loopback {
    fn bind() -> Loopback {
        let pool = IoPool::new("probe-io", 2);
        let reactor = Reactor::new("probe").expect("epoll reactor");
        let driver = NetDriver::new(pool.spawner(), reactor.handle());
        let receiver = TcpReceiver::bind_reactor(
            "127.0.0.1:0",
            WatermarkConfig::new(8 << 20, 4 << 20),
            &driver,
        )
        .expect("bind loopback receiver");
        Loopback { pool, reactor, driver, receiver }
    }

    fn shutdown(mut self) {
        self.receiver.shutdown();
        self.pool.shutdown();
        self.reactor.shutdown();
    }
}

fn tcp_hop(shape: &Shape, budget: Duration, reliable: bool) -> f64 {
    let lo = Loopback::bind();
    let addr = lo.receiver.local_addr();
    let queue = lo.receiver.queue();
    let link = if reliable {
        // The cluster data plane's recipe: acks from the backchannel trim
        // the replay buffer, which only exists once the link is built.
        let replay: Arc<OnceLock<Arc<ReplayBuffer>>> = Arc::new(OnceLock::new());
        let (slot, driver) = (replay.clone(), lo.driver.clone());
        let connector = move || {
            let slot = slot.clone();
            let sender =
                TcpSender::connect_reactor_with_acks(addr, 128, &driver, move |_link, next| {
                    if let Some(r) = slot.get() {
                        r.ack(next);
                    }
                })
                .map_err(|e| neptune_link::TransportError::Io(e.to_string()))?;
            Ok(Arc::new(TcpFrameLink::new(sender, SelectiveCompressor::disabled()))
                as Arc<dyn neptune_link::FrameLink>)
        };
        let link = LinkBuilder::new(3)
            .reliable_with(
                Box::new(connector),
                ReconnectPolicy::new(3),
                64 << 20,
                Arc::new(RecoveryStats::new()),
            )
            .build();
        let _ = replay.set(link.reliability().expect("reliable link").replay().clone());
        link
    } else {
        let sender = TcpSender::connect_reactor(addr, 128, &lo.driver).expect("connect loopback");
        LinkBuilder::new(2).tcp(sender, SelectiveCompressor::disabled()).build()
    };
    let ns = hop_ns_per_packet(&link, &queue, shape, budget);
    drop(link);
    lo.shutdown();
    ns
}

/// Run every probe for `workload`, each for about `budget`.
pub fn run(
    workload: &Workload,
    seed: u64,
    budget: Duration,
    spans: &SpanLog,
    root: usize,
) -> ProbeResults {
    let shape = shape_of(workload, seed);
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let mut probe = |name: &'static str, f: &mut dyn FnMut() -> f64| {
        let value = spans.scope(format!("probe:{name}"), Some(root), f);
        out.push((name, value));
    };
    let n = shape.packets.len() as u64;

    probe("data.generate_ns_per_packet", &mut || {
        let mut gen = workload.packet_gen(seed);
        let mut packet = StreamPacket::new();
        let mut i = 0;
        ns_per_op(budget, || {
            for _ in 0..256 {
                gen.fill(i, 1, &mut packet);
                i += 1;
            }
            black_box(&packet);
            256
        })
    });

    probe("core.codec.encode_ns_per_packet", &mut || {
        let mut codec = PacketCodec::new();
        let mut scratch = Vec::with_capacity(64 << 10);
        ns_per_op(budget, || {
            for p in &shape.packets {
                scratch.clear();
                codec.encode_into(black_box(p), &mut scratch).expect("encodes");
            }
            black_box(&scratch);
            n
        })
    });

    probe("core.codec.decode_ns_per_packet", &mut || {
        let mut codec = PacketCodec::new();
        let mut packet = StreamPacket::new();
        ns_per_op(budget, || {
            for bytes in &shape.encoded {
                codec.decode_into(black_box(bytes), &mut packet).expect("decodes");
            }
            black_box(&packet);
            n
        })
    });

    probe("core.partition.route_ns_per_packet", &mut || {
        let scheme = match workload.kind {
            Kind::WindowCheckpoint => PartitioningScheme::by_field("key"),
            _ => PartitioningScheme::Shuffle,
        };
        let mut partitioner = Partitioner::new(&scheme);
        ns_per_op(budget, || {
            for p in &shape.packets {
                black_box(partitioner.route(black_box(p), 2));
            }
            n
        })
    });

    probe("net.buffer.push_ns_per_packet", &mut || {
        let mut buffer = OutputBuffer::new(1 << 20, None);
        ns_per_op(budget, || {
            for bytes in &shape.encoded {
                if let PushOutcome::Flush(batch) = buffer.push(black_box(bytes)) {
                    buffer.recycle(batch.encoded);
                }
            }
            n
        })
    });

    let raw = SelectiveCompressor::disabled();
    let per_batch = u64::from(shape.batch_count);
    probe("net.frame.encode_ns_per_packet", &mut || {
        ns_per_op(budget, || {
            black_box(encode_frame_raw(1, 0, shape.batch_count, black_box(&shape.batch), &raw));
            per_batch
        })
    });

    let wire = encode_frame_raw(1, 0, shape.batch_count, &shape.batch, &raw);
    probe("net.frame.decode_ns_per_packet", &mut || {
        let mut decoder = FrameDecoder::new();
        ns_per_op(budget, || {
            let mut frames = 0;
            for chunk in wire.chunks(READ_CHUNK) {
                let mut rest = chunk;
                while !rest.is_empty() {
                    let (used, frame) = decoder.feed(rest, None).expect("valid frame");
                    rest = &rest[used..];
                    frames += u64::from(frame.is_some());
                }
            }
            assert_eq!(frames, 1);
            per_batch
        })
    });

    let batch_kb = shape.batch.len() as f64 / 1024.0;
    probe("compress.decide_ns_per_kb", &mut || {
        ns_per_op(budget, || {
            black_box(shannon_entropy(black_box(&shape.batch)));
            1
        }) / batch_kb
    });
    let mut compressed = Vec::new();
    probe("compress.encode_ns_per_kb", &mut || {
        ns_per_op(budget, || {
            compressed.clear();
            lz4::compress_into(black_box(&shape.batch), &mut compressed);
            1
        }) / batch_kb
    });
    probe("compress.decode_ns_per_kb", &mut || {
        let mut restored = Vec::with_capacity(shape.batch.len());
        ns_per_op(budget, || {
            restored.clear();
            lz4::decompress_into(black_box(&compressed), shape.batch.len(), &mut restored)
                .expect("round trip");
            1
        }) / batch_kb
    });
    probe("compress.wire_ratio", &mut || {
        let mut framed = Vec::new();
        workload.compression().to_compressor().encode_into(&shape.batch, &mut framed);
        framed.len() as f64 / shape.batch.len() as f64
    });

    probe("net.watermark.push_pop_ns_per_frame", &mut || {
        let queue = WatermarkQueue::new(WatermarkConfig::new(8 << 20, 4 << 20));
        let (frame, _) = decode_frame(&wire).expect("own frame decodes");
        queue.push_blocking(frame).expect("open queue");
        ns_per_op(budget, || {
            for _ in 0..64 {
                let frame = queue.pop().expect("one frame cycles");
                queue.push_blocking(frame).expect("open queue");
            }
            64
        })
    });

    probe("granules.dispatch_ns_per_task", &mut || dispatch_ns_per_task(budget));

    probe("link.inproc_hop_ns_per_packet", &mut || {
        let queue = Arc::new(WatermarkQueue::new(WatermarkConfig::new(8 << 20, 4 << 20)));
        let link = LinkBuilder::new(1).in_process(queue.clone()).build();
        hop_ns_per_packet(&link, &queue, &shape, budget)
    });
    probe("link.tcp_hop_ns_per_packet", &mut || tcp_hop(&shape, budget, false));
    probe("link.reliable_tcp_hop_ns_per_packet", &mut || tcp_hop(&shape, budget, true));

    probe("core.window.observe_ns_per_packet", &mut || {
        let mut gen = WindowPackets::new(seed);
        let readings: Vec<(u64, f64)> =
            (0..n).map(|i| gen.reading(i)).map(|(_, et, v)| (et, v)).collect();
        let mut window = TumblingWindow::new(crate::ops::WINDOW_WIDTH_US);
        let mut base = 0;
        ns_per_op(budget, || {
            for &(et, v) in &readings {
                black_box(window.observe(base + et, v));
            }
            // Keep event time monotone across repetitions.
            base += n * crate::ops::WINDOW_EVENT_STEP_US;
            n
        })
    });

    let mut state = KeyWindows::default();
    for key in 0..STATE_KEYS {
        state.observe(key, 1, key as f64);
    }
    let mut blob = Vec::new();
    probe("core.state.snapshot_us", &mut || {
        ns_per_op(budget, || {
            blob.clear();
            state.snapshot_state(&mut blob);
            1
        }) / 1000.0
    });
    probe("core.state.restore_us", &mut || {
        let mut restored = KeyWindows::default();
        ns_per_op(budget, || {
            restored.restore_state(1, black_box(&blob)).expect("own snapshot restores");
            1
        }) / 1000.0
    });
    probe("core.state.snapshot_bytes", &mut || blob.len() as f64);
    ProbeResults { values: out, mean_packet_bytes: shape.mean_packet_bytes }
}
