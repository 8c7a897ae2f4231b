//! Criterion micro-benchmarks over NEPTUNE's hot paths.
//!
//! These are the per-operation costs behind the paper's throughput
//! numbers: packet ser/de (with the object-reuse fast path), LZ4 and
//! entropy estimation (the §III-B5 compression decision), output-buffer
//! filling (§III-B1), partitioner routing (§III-A6), watermark queue
//! operations (§III-B4), frame encode/decode, the three CRC-32 kernels the
//! frame checksum can run on, one whole cut-edge hop between two data
//! planes, and the statistics kernels used by the evaluation harness.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use neptune_cluster::dataplane::{AckMode, DataPlane};
use neptune_compress::{compress, decompress, shannon_entropy, SelectiveCompressor};
use neptune_core::codec::PacketCodec;
use neptune_core::descriptor::OperatorRegistry;
use neptune_core::graph::{Factory, GraphBuilder, OperatorSpec};
use neptune_core::json::{self, JsonValue};
use neptune_core::operator::{OperatorContext, StreamProcessor};
use neptune_core::partition::{Partitioner, PartitioningScheme};
use neptune_core::pool::PacketPool;
use neptune_core::runtime::LocalRuntime;
use neptune_core::RuntimeConfig;
use neptune_core::{FieldValue, StreamPacket};
use neptune_net::buffer::{OutputBuffer, PushOutcome};
use neptune_net::crc;
use neptune_net::frame::{
    decode_frame, encode_frame, encode_frame_into, FrameHeader, FrameMessages,
};
use neptune_net::watermark::{WatermarkConfig, WatermarkQueue};
use neptune_stats::{tukey_hsd, welch_t_test, Tail};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn sample_packet() -> StreamPacket {
    let mut p = StreamPacket::new();
    p.push_field("seq", FieldValue::U64(12345))
        .push_field("ts", FieldValue::Timestamp(1_700_000_000_000_000))
        .push_field("site", FieldValue::Str("plant-07".into()))
        .push_field("pad", FieldValue::Bytes(vec![0xAB; 32]));
    p
}

fn low_entropy_block(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i / 64) % 7) as u8).collect()
}

fn high_entropy_block(n: usize) -> Vec<u8> {
    let mut state = 0x2545F4914F6CDD1Du64;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect()
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    let packet = sample_packet();
    let mut codec = PacketCodec::new();
    let encoded = codec.encode(&packet).unwrap();
    group.throughput(Throughput::Elements(1));

    group.bench_function("encode_into_reused_buffer", |b| {
        let mut out = Vec::with_capacity(256);
        b.iter(|| {
            out.clear();
            codec.encode_into(black_box(&packet), &mut out).unwrap();
            black_box(out.len());
        })
    });
    group.bench_function("decode_into_workhorse (object reuse)", |b| {
        let mut workhorse = StreamPacket::new();
        b.iter(|| {
            codec.decode_into(black_box(&encoded), &mut workhorse).unwrap();
            black_box(workhorse.len());
        })
    });
    group.bench_function("decode_fresh_packet (no reuse)", |b| {
        b.iter(|| {
            let p = codec.decode(black_box(&encoded)).unwrap();
            black_box(p.len());
        })
    });
    group.finish();
}

fn bench_compression(c: &mut Criterion) {
    let mut group = c.benchmark_group("compression");
    for (label, data) in [
        ("low_entropy_16k", low_entropy_block(16384)),
        ("high_entropy_16k", high_entropy_block(16384)),
    ] {
        group.throughput(Throughput::Bytes(data.len() as u64));
        group.bench_function(format!("lz4_compress/{label}"), |b| {
            b.iter(|| black_box(compress(black_box(&data))))
        });
        let compressed = compress(&data);
        group.bench_function(format!("lz4_decompress/{label}"), |b| {
            b.iter(|| black_box(decompress(black_box(&compressed), data.len()).unwrap()))
        });
        group.bench_function(format!("shannon_entropy/{label}"), |b| {
            b.iter(|| black_box(shannon_entropy(black_box(&data))))
        });
        group.bench_function(format!("selective_encode/{label}"), |b| {
            let policy = SelectiveCompressor::new(5.0);
            b.iter(|| black_box(policy.encode(black_box(&data)).payload.len()))
        });
    }
    group.finish();
}

fn bench_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool");
    group.throughput(Throughput::Elements(1));
    group.bench_function("checkout_checkin (pooled)", |b| {
        let mut pool = PacketPool::new(16);
        b.iter(|| {
            let mut p = pool.checkout();
            p.push_field("x", FieldValue::U64(1));
            pool.checkin(p);
        })
    });
    group.bench_function("fresh_allocation (no pool)", |b| {
        b.iter(|| {
            let mut p = StreamPacket::new();
            p.push_field("x", FieldValue::U64(1));
            black_box(p);
        })
    });
    group.finish();
}

fn bench_output_buffer(c: &mut Criterion) {
    let mut group = c.benchmark_group("output_buffer");
    let msg = vec![0u8; 50];
    for (label, capacity) in [("16KB", 16 << 10), ("1MB", 1usize << 20)] {
        group.throughput(Throughput::Elements(1));
        group.bench_function(format!("push_until_flush/{label}"), |b| {
            let mut buffer = OutputBuffer::new(capacity, None);
            b.iter(|| {
                if let PushOutcome::Flush(batch) = buffer.push(black_box(&msg)) {
                    let encoded = black_box(batch.encoded);
                    buffer.recycle(encoded);
                }
            })
        });
    }
    group.finish();
}

fn bench_partitioners(c: &mut Criterion) {
    let mut group = c.benchmark_group("partitioner");
    let packet = sample_packet();
    group.throughput(Throughput::Elements(1));
    group.bench_function("shuffle", |b| {
        let mut p = Partitioner::new(&PartitioningScheme::Shuffle);
        b.iter(|| black_box(p.route(black_box(&packet), 8)))
    });
    group.bench_function("fields_hash", |b| {
        let mut p = Partitioner::new(&PartitioningScheme::by_field("site"));
        b.iter(|| black_box(p.route(black_box(&packet), 8)))
    });
    group.finish();
}

fn bench_watermark_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("watermark_queue");
    group.throughput(Throughput::Elements(1));
    group.bench_function("push_pop_uncontended", |b| {
        let q: WatermarkQueue<Vec<u8>> =
            WatermarkQueue::new(WatermarkConfig::new(1 << 24, 1 << 20));
        b.iter(|| {
            q.push_blocking(vec![0u8; 64]).unwrap();
            black_box(q.pop());
        })
    });
    group.bench_function("pop_batch_64", |b| {
        let q: WatermarkQueue<Vec<u8>> =
            WatermarkQueue::new(WatermarkConfig::new(1 << 24, 1 << 20));
        let mut out = Vec::with_capacity(64);
        b.iter_batched(
            || {
                for _ in 0..64 {
                    q.push_blocking(vec![0u8; 64]).unwrap();
                }
            },
            |_| {
                out.clear();
                black_box(q.pop_batch(64, &mut out));
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_framing(c: &mut Criterion) {
    let mut group = c.benchmark_group("framing");
    let mut codec = PacketCodec::new();
    let messages: Vec<Vec<u8>> =
        (0..100).map(|_| codec.encode(&sample_packet()).unwrap()).collect();
    let raw = SelectiveCompressor::disabled();
    group.throughput(Throughput::Elements(100));
    group.bench_function("encode_frame_100_msgs", |b| {
        b.iter(|| black_box(encode_frame(1, 0, black_box(&messages), &raw)))
    });
    let wire = encode_frame(1, 0, &messages, &raw);
    group.bench_function("decode_frame_100_msgs", |b| {
        b.iter(|| black_box(decode_frame(black_box(&wire)).unwrap()))
    });
    group.finish();
}

fn bench_frame_decode(c: &mut Criterion) {
    // The tentpole comparison: the legacy receive path materialized every
    // message as its own Vec (copy per message); the zero-copy path hands
    // out subslices of one refcounted batch buffer. Identical wire input.
    let mut group = c.benchmark_group("frame_decode");
    let raw = SelectiveCompressor::disabled();
    const COUNT: usize = 100;
    for (label, size) in [("50B", 50usize), ("200B", 200), ("1KB", 1024)] {
        let messages: Vec<Vec<u8>> = (0..COUNT).map(|i| vec![(i % 251) as u8; size]).collect();
        let wire = encode_frame(1, 0, &messages, &raw);
        group.throughput(Throughput::Elements(COUNT as u64));
        group.bench_function(format!("copy_per_message/{label}"), |b| {
            b.iter(|| {
                let (frame, _) = decode_frame(black_box(&wire)).unwrap();
                let owned: Vec<Vec<u8>> = frame.messages.iter().map(|m| m.to_vec()).collect();
                black_box(owned.len());
            })
        });
        group.bench_function(format!("zero_copy/{label}"), |b| {
            b.iter(|| {
                let (frame, _) = decode_frame(black_box(&wire)).unwrap();
                let mut total = 0usize;
                for m in &frame.messages {
                    total += black_box(m).len();
                }
                black_box(total);
            })
        });
    }
    group.finish();
}

fn bench_crc32(c: &mut Criterion) {
    // ns/byte of each kernel at a control-frame, a packet and a batch
    // size. `hw` is absent on CPUs without carry-less multiply.
    let mut group = c.benchmark_group("crc32");
    for (label, len) in [("64B", 64usize), ("10KB", 10 << 10), ("1MB", 1 << 20)] {
        let data = high_entropy_block(len);
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_function(format!("{label}/reference"), |b| {
            b.iter(|| black_box(crc::reference(!0, black_box(&data))))
        });
        group.bench_function(format!("{label}/portable"), |b| {
            b.iter(|| black_box(crc::portable(!0, black_box(&data))))
        });
        if crc::hardware(!0, &[]).is_some() {
            group.bench_function(format!("{label}/hw"), |b| {
                b.iter(|| black_box(crc::hardware(!0, black_box(&data))))
            });
        }
    }
    group.finish();
}

fn bench_frame_encode_into(c: &mut Criterion) {
    // The send side of a TCP hop for one full 1 MB batch: header, tag,
    // body copy and CRC into a wire buffer that is reused, as the
    // sender's recycled buffers are.
    let mut group = c.benchmark_group("frame_encode_into");
    let batch = high_entropy_block(1 << 20);
    let raw = SelectiveCompressor::disabled();
    let mut wire = Vec::new();
    let header = FrameHeader { link_id: 1, count: 100, ..FrameHeader::default() };
    group.throughput(Throughput::Bytes(batch.len() as u64));
    group.bench_function("1MB", |b| {
        b.iter(|| {
            wire.clear();
            encode_frame_into(&mut wire, &header, black_box(&batch), &raw);
            black_box(wire.len());
        })
    });
    group.finish();
}

/// Counts the messages of every frame it is handed, without opening one:
/// the hop ends where the batch reaches the consumer's inbound queue.
struct FrameCounter(Arc<AtomicU64>);

impl StreamProcessor for FrameCounter {
    fn process(&mut self, _packet: &StreamPacket, _ctx: &mut OperatorContext) {
        unreachable!("every frame is claimed whole");
    }

    fn process_encoded(&mut self, batch: &FrameMessages, _ctx: &mut OperatorContext) -> bool {
        self.0.fetch_add(batch.len() as u64, Ordering::Release);
        true
    }
}

fn bench_cut_edge_hop(c: &mut Criterion) {
    // One cut edge, end to end: an encoded batch handed to `__egress` on
    // one data plane → sequenced frame over loopback TCP → demux, route
    // queue and `__ingress` on the other → the consumer's inbound queue.
    // Reported per packet, to set beside a plain TCP link hop.
    const BATCH_BYTES: usize = 256 << 10;
    const BATCHES_PER_ITER: u64 = 8;
    let mut group = c.benchmark_group("cut_edge_hop");
    group.sample_size(10);
    for (label, size) in [("50B", 50usize), ("400B", 400)] {
        let up = DataPlane::bind("127.0.0.1:0", AckMode::Quiescent).expect("bind up plane");
        let down = DataPlane::bind("127.0.0.1:0", AckMode::Quiescent).expect("bind down plane");
        let boundary = |plane: &Arc<DataPlane>, factory: &str| {
            let mut registry = OperatorRegistry::new();
            plane.register_boundary_ops(&mut registry);
            let params = json::object([
                ("edge", JsonValue::Number(0.0)),
                ("epoch", JsonValue::Number(0.0)),
                ("addr", JsonValue::String(down.local_addr().to_string())),
            ]);
            registry
                .processor_factory(factory, &params)
                .or_else(|| registry.source_factory(factory, &params))
                .expect("boundary operators are registered")
        };
        // A packet of `size` encoded bytes, as many as fill one batch.
        let mut codec = PacketCodec::new();
        let mut packet = StreamPacket::new();
        packet.push_field("uid", FieldValue::U64(7)).push_field("pad", FieldValue::Bytes(vec![]));
        let overhead = codec.encode(&packet).unwrap().len();
        *packet.get_mut("pad").unwrap() = FieldValue::Bytes(vec![0xAB; size - overhead]);
        let message = codec.encode(&packet).unwrap();
        assert_eq!(message.len(), size);
        let per_batch = (BATCH_BYTES / (size + 4)) as u64;
        let batch = FrameMessages::from_messages(&vec![message; per_batch as usize]);

        let received = Arc::new(AtomicU64::new(0));
        let counter = received.clone();
        let graph = GraphBuilder::new("cut-edge-hop")
            .operator_spec(OperatorSpec {
                name: "in".into(),
                parallelism: 1,
                factory: boundary(&down, "__ingress"),
            })
            .processor("consumer", move || FrameCounter(counter.clone()))
            .link("in", "consumer", PartitioningScheme::Shuffle)
            .build()
            .expect("valid graph");
        let job = LocalRuntime::new(RuntimeConfig::default()).submit(graph).expect("job deploys");
        let Factory::Processor(make_egress) = boundary(&up, "__egress") else {
            panic!("__egress is a processor");
        };
        let mut egress = make_egress();
        let mut ctx = OperatorContext::collector("bench");

        let mut sent = 0u64;
        group.throughput(Throughput::Elements(BATCHES_PER_ITER * per_batch));
        group.bench_function(label, |b| {
            b.iter(|| {
                for _ in 0..BATCHES_PER_ITER {
                    assert!(egress.process_encoded(black_box(&batch), &mut ctx));
                }
                sent += BATCHES_PER_ITER * per_batch;
                while received.load(Ordering::Acquire) < sent {
                    std::thread::yield_now();
                }
            })
        });
        down.drain_ingress();
        job.stop();
        up.shutdown();
        down.shutdown();
    }
    group.finish();
}

fn bench_stats(c: &mut Criterion) {
    let mut group = c.benchmark_group("stats");
    let a: Vec<f64> = (0..50).map(|i| 10.0 + (i as f64 * 0.37).sin()).collect();
    let b_: Vec<f64> = (0..50).map(|i| 10.5 + (i as f64 * 0.41).cos()).collect();
    let c_: Vec<f64> = (0..50).map(|i| 11.0 + (i as f64 * 0.29).sin()).collect();
    group.bench_function("welch_t_test_n50", |bch| {
        bch.iter(|| black_box(welch_t_test(black_box(&a), black_box(&b_), Tail::TwoSided)))
    });
    group.bench_function("tukey_hsd_3x50", |bch| {
        bch.iter(|| black_box(tukey_hsd(&[black_box(&a), black_box(&b_), black_box(&c_)])))
    });
    group.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_millis(900))
        .warm_up_time(std::time::Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_codec, bench_compression, bench_pool, bench_output_buffer,
              bench_partitioners, bench_watermark_queue, bench_framing,
              bench_frame_decode, bench_frame_encode_into, bench_crc32, bench_cut_edge_hop,
              bench_stats
}
criterion_main!(benches);
