//! Cross-flavour conformance suite for the link stack.
//!
//! Every transport flavour the [`LinkBuilder`] can assemble — in-process
//! queue, TCP, and chaos-injected — must satisfy the same contract:
//!
//! * **Backpressure gates, it does not drop.** When the destination
//!   queue crosses its high watermark, sends park until the consumer
//!   drains; every frame still arrives, in order.
//! * **Ask, park, retry.** Asked with the `try_` forms, a link under
//!   backpressure answers `Backpressure` at once and nothing has
//!   happened to the frame; [`Link::admits`] gives the same answer
//!   without a frame; and a listener registered before asking fires when
//!   the link admits again — the contract a task on an IO pool parks on.
//! * **Closed is not Gated.** A closed destination surfaces
//!   [`TransportError::Closed`] (and TCP teardown at worst `Io`) —
//!   never `Backpressure`, which callers may retry forever.
//! * **Exactly-once under seeded cuts.** With the reliability layer on
//!   top and a [`ReliableIngress`] at the sink, a mid-stream link cut
//!   (scripted for chaos links, a server-side connection drop for
//!   TCP) loses nothing and duplicates nothing.
//! * **Header fields round-trip.** The frame sequence number
//!   (reliability), the trace id (tagging) and the sent-at stamp
//!   (latency) survive the wire on every flavour, bit-identically.
//! * **One byte count.** The same traffic is accounted the same
//!   `wire_bytes` on every flavour — what a TCP link really puts on the
//!   wire with compression off.
//!
//! The fault script is positional and seeded; the CI chaos job replays
//! the whole suite under several seeds (`NEPTUNE_CHAOS_SEED`).

use bytes::Bytes;
use neptune_compress::SelectiveCompressor;
use neptune_link::tag::mint_every_n_trace_id;
use neptune_link::{
    AckMode, ChaosLink, FaultEvent, FaultPlan, FrameLink, IngressVerdict, Link, LinkBuilder,
    QueueLink, ReconnectPolicy, RecoveryStats, ReliableIngress, TcpFrameLink, TraceTagger,
    TransportError,
};
use neptune_net::frame::{wire_len, Frame};
use neptune_net::tcp::{TcpReceiver, TcpSender};
use neptune_net::test_support::{wait_for, NetRig};
use neptune_net::watermark::{PushError, WatermarkConfig, WatermarkQueue};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed for the scripted faults; the CI chaos job varies it.
fn chaos_seed() -> u64 {
    std::env::var("NEPTUNE_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Flavour {
    InProcess,
    Tcp,
    Chaos,
}

const ALL_FLAVOURS: [Flavour; 3] = [Flavour::InProcess, Flavour::Tcp, Flavour::Chaos];

/// One assembled link plus everything that must outlive it, torn down
/// in dependency order (link, then receiver, then the IO tier).
struct Fixture {
    link: Arc<Link>,
    sink: Arc<WatermarkQueue<Frame>>,
    stats: Arc<RecoveryStats>,
    rx: Option<TcpReceiver>,
    net: Option<NetRig>,
}

impl Fixture {
    fn shutdown(self) {
        drop(self.link);
        if let Some(rx) = self.rx {
            rx.shutdown();
        }
        drop(self.net);
    }
}

/// Assemble one link of the given flavour through the shared builder.
/// `reliable` layers replay + acks on top (for TCP via a
/// reconnecting connector, so a severed connection is re-dialed);
/// `trace_every` installs an every-N tagger; `plan` scripts faults on
/// the chaos flavour.
fn build(
    flavour: Flavour,
    id: u64,
    watermark: WatermarkConfig,
    reliable: bool,
    trace_every: u64,
    plan: Option<&FaultPlan>,
    seed: u64,
) -> Fixture {
    let stats = Arc::new(RecoveryStats::new());
    let mut builder = LinkBuilder::new(id);
    if trace_every > 0 {
        builder = builder.tracing(TraceTagger::every_n(trace_every));
    }
    match flavour {
        Flavour::InProcess => {
            let q = Arc::new(WatermarkQueue::new(watermark));
            builder = builder.in_process(q.clone());
            if reliable {
                builder = builder.reliable(ReconnectPolicy::fast(seed), 1 << 20, stats.clone());
            }
            Fixture { link: builder.build(), sink: q, stats, rx: None, net: None }
        }
        Flavour::Chaos => {
            let q = Arc::new(WatermarkQueue::new(watermark));
            let quiet = FaultPlan::new(seed);
            let plan = plan.unwrap_or(&quiet);
            let chaos = Arc::new(ChaosLink::new(Arc::new(QueueLink::new(q.clone())), plan, id));
            builder = builder.transport(chaos);
            if reliable {
                builder = builder.reliable(ReconnectPolicy::fast(seed), 1 << 20, stats.clone());
            }
            Fixture { link: builder.build(), sink: q, stats, rx: None, net: None }
        }
        Flavour::Tcp => {
            let rig = NetRig::new("conformance-net");
            let driver = rig.driver();
            let rx = TcpReceiver::bind_reactor("127.0.0.1:0", watermark, &driver).expect("bind");
            let addr = rx.local_addr();
            if reliable {
                builder = builder.reliable_with(
                    Box::new(move || {
                        let tx = TcpSender::connect_reactor(addr, 64, &driver)
                            .map_err(|e| TransportError::Io(e.to_string()))?;
                        Ok(Arc::new(TcpFrameLink::new(tx, SelectiveCompressor::disabled()))
                            as Arc<dyn FrameLink>)
                    }),
                    ReconnectPolicy::fast(seed),
                    1 << 20,
                    stats.clone(),
                );
            } else {
                let tx = TcpSender::connect_reactor(addr, 64, &driver).expect("connect");
                builder = builder.tcp(tx, SelectiveCompressor::disabled());
            }
            let sink = rx.queue().clone();
            Fixture { link: builder.build(), sink, stats, rx: Some(rx), net: Some(rig) }
        }
    }
}

fn batch_of(msgs: &[&[u8]]) -> (Bytes, u32) {
    let mut out = Vec::new();
    for m in msgs {
        out.extend_from_slice(&(m.len() as u32).to_le_bytes());
        out.extend_from_slice(m);
    }
    (Bytes::from(out), msgs.len() as u32)
}

/// A consumer that never pops gates every flavour's sink at its high
/// watermark; once draining starts, every parked frame comes through in
/// order with nothing dropped.
#[test]
fn backpressure_gates_sends_without_loss() {
    let seed = chaos_seed();
    for flavour in ALL_FLAVOURS {
        const N: u64 = 64;
        // High watermark a few frames deep: ~208-byte payloads gate the
        // sink long before the 64-frame stream completes.
        let fx = build(flavour, 11, WatermarkConfig::new(1024, 256), false, 0, None, seed);
        let link = fx.link.clone();
        let sender = std::thread::spawn(move || {
            for i in 0..N {
                let (encoded, count) = batch_of(&[&[0u8; 200][..], &i.to_le_bytes()[..]]);
                link.send_batch(i * 2, encoded, count, 0, 0).expect("gated sends park, not fail");
            }
        });
        // `is_gated`, not `gate_events`: the reactor read task checks the
        // gate *before* pushing (no bounced push, no gate event), so the
        // flag is the one signal every flavour raises.
        assert!(
            wait_for(Duration::from_secs(10), || fx.sink.is_gated()),
            "{flavour:?}: sink never crossed its high watermark (pushed {}, buffered {})",
            fx.sink.total_pushed(),
            fx.sink.len()
        );
        for i in 0..N {
            let f = fx.sink.pop_timeout(Duration::from_secs(10)).unwrap_or_else(|| {
                panic!("{flavour:?}: frame {i}/{N} never arrived after the gate opened")
            });
            assert_eq!(f.base_seq, i * 2, "{flavour:?}: frames reordered under backpressure");
            assert_eq!(f.len(), 2, "{flavour:?}: batch split or merged in flight");
        }
        sender.join().expect("sender thread");
        assert!(
            fx.sink.pop_timeout(Duration::from_millis(50)).is_none(),
            "{flavour:?}: duplicate frames after drain"
        );
        fx.shutdown();
    }
}

/// The non-waiting half of the contract, the one IO-tier tasks live by:
/// a full link refuses at once, says so without being handed a frame,
/// signals when it has room again, and then takes the refused frame —
/// once, in order.
#[test]
fn a_full_link_refuses_at_once_and_signals_when_it_admits_again() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let seed = chaos_seed();
    // 64 KB frames: a handful closes an in-process gate, and ~130 fill a
    // stalled TCP hop (the receiver's queue, ~4 MB of loopback kernel
    // buffers, the 64-frame sender queue).
    let payload = vec![0x5Au8; 64 << 10];
    for flavour in ALL_FLAVOURS {
        let fx =
            build(flavour, 13, WatermarkConfig::new(256 << 10, 64 << 10), false, 0, None, seed);
        let signals = Arc::new(AtomicU64::new(0));
        let s = signals.clone();
        fx.link.add_space_listener(Arc::new(move || {
            s.fetch_add(1, Ordering::Relaxed);
        }));
        assert!(fx.link.admits(), "{flavour:?}: an idle link admits");

        // Offer frames until one is refused. Each is prepared once.
        let mut taken = 0u64;
        let refused = loop {
            assert!(taken < 1_000, "{flavour:?}: nothing ever pushed back");
            let (encoded, count) = batch_of(&[&payload[..], &taken.to_le_bytes()[..]]);
            let frame = fx.link.prepare(taken * 2, encoded, count, 0, 0);
            let asked = Instant::now();
            match fx.link.try_deliver(&frame) {
                Ok(_) => taken += 1,
                Err(TransportError::Backpressure) => {
                    assert!(asked.elapsed() < Duration::from_millis(250), "{flavour:?}: it waited");
                    break frame;
                }
                Err(e) => panic!("{flavour:?}: {e:?}"),
            }
            // A TCP hop backs up asynchronously: give its tasks a moment
            // once the first refusal must be near.
            if flavour == Flavour::Tcp && taken.is_multiple_of(16) {
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        assert!(!fx.link.admits(), "{flavour:?}: the question without a frame agrees");
        assert!(
            matches!(fx.link.try_deliver(&refused), Err(TransportError::Backpressure)),
            "{flavour:?}: asking again changes nothing"
        );
        assert_eq!(signals.load(Ordering::Relaxed), 0, "{flavour:?}: no space signal while full");

        // Drain: the link signals, admits, and takes the refused frame.
        let pop = |next: u64, what: &str| {
            let f = fx
                .sink
                .pop_timeout(Duration::from_secs(10))
                .unwrap_or_else(|| panic!("{flavour:?}: frame {next} never arrived ({what})"));
            assert_eq!(f.base_seq, next * 2, "{flavour:?}: reordered ({what})");
        };
        let mut popped = 0u64;
        while signals.load(Ordering::Relaxed) == 0 {
            pop(popped, "draining until the space signal");
            popped += 1;
        }
        assert!(wait_for(Duration::from_secs(10), || fx.link.admits()), "{flavour:?}");
        fx.link.try_deliver(&refused).unwrap_or_else(|e| panic!("{flavour:?}: {e:?}"));
        for next in popped..=taken {
            pop(next, "the rest, the refused frame last");
        }
        assert!(
            fx.sink.pop_timeout(Duration::from_millis(50)).is_none(),
            "{flavour:?}: a refused offer must not have delivered anything"
        );
        assert_eq!(fx.link.stats().flushes(), taken + 1, "{flavour:?}: one flush per prepare");
        fx.shutdown();
    }
}

/// A *closed* destination is a terminal error, distinct from the
/// retryable `Backpressure` a gated queue maps to. Queue-backed
/// flavours surface exactly `Closed`; TCP learns of the severed socket
/// asynchronously and surfaces `Closed` or `Io` — never `Backpressure`.
#[test]
fn closed_destination_is_not_backpressure() {
    let seed = chaos_seed();
    let (encoded, count) = batch_of(&[b"shutdown"]);
    for flavour in [Flavour::InProcess, Flavour::Chaos] {
        let fx = build(flavour, 12, WatermarkConfig::new(1 << 20, 1 << 10), false, 0, None, seed);
        fx.sink.close();
        let err = fx
            .link
            .send_batch(0, encoded.clone(), count, 0, 0)
            .expect_err("send into a closed queue must fail");
        assert!(
            matches!(err, TransportError::Closed),
            "{flavour:?}: closed queue surfaced {err:?}, want Closed"
        );
        fx.shutdown();
    }
    let flavour = Flavour::Tcp;
    let fx = build(flavour, 12, WatermarkConfig::new(1 << 20, 1 << 10), false, 0, None, seed);
    // Sever every established connection server-side. The sender
    // only learns when its writer hits the dead socket, so keep
    // sending until the failure surfaces.
    assert!(
        wait_for(Duration::from_secs(10), || fx
            .rx
            .as_ref()
            .expect("tcp fixture")
            .chaos_drop_connections()
            > 0),
        "{flavour:?}: no established connection to sever"
    );
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut seq = 0u64;
    let err = loop {
        match fx.link.send_batch(seq, encoded.clone(), count, 0, 0) {
            Ok(_) => {
                seq += u64::from(count);
                assert!(
                    Instant::now() < deadline,
                    "{flavour:?}: sends kept succeeding after the socket died"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => break e,
        }
    };
    assert!(
        !matches!(err, TransportError::Backpressure),
        "{flavour:?}: socket death surfaced as retryable Backpressure"
    );
    assert!(
        matches!(err, TransportError::Closed | TransportError::Io(_)),
        "{flavour:?}: socket death surfaced {err:?}"
    );
    fx.shutdown();
}

/// The shared error taxonomy itself: a gated push maps to
/// `Backpressure`, a closed push to `Closed`. This is the mapping the
/// cluster ingress relies on to withhold acks instead of dropping.
#[test]
fn push_errors_map_onto_distinct_transport_errors() {
    let q: WatermarkQueue<Vec<u8>> = WatermarkQueue::new(WatermarkConfig::new(8, 4));
    // First push crosses the high watermark and gates the queue; the
    // second bounces as Gated.
    q.push_timeout(vec![0u8; 16], Duration::from_millis(10)).expect("first push admitted");
    let gated = q.push_timeout(vec![1u8; 16], Duration::from_millis(10)).expect_err("gated");
    assert!(matches!(gated, PushError::Gated(_)));
    assert!(matches!(TransportError::from_push(gated), TransportError::Backpressure));
    q.close();
    let closed = q.push_timeout(vec![2u8; 16], Duration::from_millis(10)).expect_err("closed");
    assert!(matches!(closed, PushError::Closed(_)));
    assert!(matches!(TransportError::from_push(closed), TransportError::Closed));
}

/// The frame sequence number, the trace id and the sent-at stamp survive
/// every flavour's wire bit-identically: the reliability layer assigns
/// the sequence, the every-N tagger mints the trace id, and the caller's
/// send stamp arrives unchanged.
#[test]
fn header_fields_round_trip_on_every_flavour() {
    let seed = chaos_seed();
    const LINK: u64 = 21;
    for flavour in ALL_FLAVOURS {
        let fx = build(flavour, LINK, WatermarkConfig::new(1 << 20, 1 << 10), true, 1, None, seed);
        for i in 0..3u64 {
            let (encoded, count) = batch_of(&[&i.to_le_bytes()]);
            fx.link.send_batch(i, encoded, count, 777_000 + i, 0).expect("send");
        }
        let ingress = ReliableIngress::new(AckMode::Immediate);
        for i in 0..3u64 {
            let f = fx
                .sink
                .pop_timeout(Duration::from_secs(10))
                .unwrap_or_else(|| panic!("{flavour:?}: frame {i} never arrived"));
            assert_eq!(f.link_id, LINK, "{flavour:?}");
            assert_eq!(f.base_seq, i, "{flavour:?}");
            assert_eq!(f.seq, Some(i), "{flavour:?}: frame seq lost or renumbered");
            assert_eq!(
                f.trace,
                Some(mint_every_n_trace_id(LINK, i)),
                "{flavour:?}: trace id lost or re-minted"
            );
            assert_eq!(f.sent_at_micros, 777_000 + i, "{flavour:?}: sent-at stamp mangled");
            let msgs: Vec<Vec<u8>> = f.messages.iter().map(|m| m.to_vec()).collect();
            assert_eq!(msgs, vec![i.to_le_bytes().to_vec()], "{flavour:?}: payload mangled");
            assert!(
                matches!(
                    ingress.admit(f.link_id, f.base_seq, f.len() as u32),
                    IngressVerdict::Deliver { skip: 0 }
                ),
                "{flavour:?}: first delivery misclassified"
            );
            if let Some((_, watermark)) = ingress.stage_ack(f.link_id) {
                fx.link.ack(watermark);
            }
        }
        let sup = fx.link.reliability().expect("reliable link").clone();
        assert!(
            wait_for(Duration::from_secs(5), || sup.replay().is_empty()),
            "{flavour:?}: acks never trimmed the replay buffer"
        );
        fx.shutdown();
    }
}

/// Identical traffic is accounted identical bytes, whatever carries it and
/// whichever header fields are in use: stamped and traced on a bare link,
/// sequenced as well on a reliable one. The number is the real one — what
/// the TCP receiver saw arrive.
#[test]
fn every_flavour_accounts_the_same_wire_bytes() {
    let seed = chaos_seed();
    const LINK: u64 = 23;
    let payloads: [&[u8]; 3] = [b"a", b"bcdefgh", &[7u8; 300]];
    for reliable in [false, true] {
        for flavour in ALL_FLAVOURS {
            let watermark = WatermarkConfig::new(1 << 20, 1 << 10);
            let fx = build(flavour, LINK, watermark, reliable, 1, None, seed);
            let (mut returned, mut expected, mut arrived) = (0, 0, 0);
            for (i, payload) in payloads.iter().enumerate() {
                let (encoded, count) = batch_of(&[payload]);
                expected += wire_len(encoded.len());
                returned += fx.link.send_batch(i as u64, encoded, count, 777_000, 0).expect("send");
                let f = fx.sink.pop_timeout(Duration::from_secs(10)).expect("frame arrives");
                assert_eq!(f.seq.is_some(), reliable, "{flavour:?}");
                assert!(f.trace.is_some() && f.sent_at_micros != 0, "{flavour:?}");
                arrived += f.wire_len;
            }
            let what = format!("{flavour:?}, reliable={reliable}");
            assert_eq!(returned, expected, "{what}: send_batch's return");
            assert_eq!(fx.link.stats_snapshot().wire_bytes, expected as u64, "{what}: wire_bytes");
            assert_eq!(arrived, expected, "{what}: bytes the receiver saw");
            fx.shutdown();
        }
    }
}

/// The headline property: a reliable link over any flavour delivers the
/// stream exactly once through a [`ReliableIngress`], even when the
/// link is cut mid-stream at a seeded position. The chaos flavour cuts
/// via its fault script; TCP drops every established connection
/// server-side (losing frames the wire had already accepted) and must
/// reconnect + replay; the in-process queue cannot be cut and
/// pins the degenerate case.
#[test]
fn exactly_once_under_seeded_cuts() {
    let seed = chaos_seed();
    const LINK: u64 = 31;
    const TOTAL: u64 = 150;
    for flavour in ALL_FLAVOURS {
        let plan = FaultPlan::new(seed);
        let cut_at = plan.jitter(31, 20, 120);
        let down_for = plan.jitter(32, 2, 5);
        let plan =
            plan.with_event(FaultEvent::CutLink { link_id: LINK, at_frame: cut_at, down_for });

        let fx = build(
            flavour,
            LINK,
            WatermarkConfig::new(1 << 20, 1 << 10),
            true,
            0,
            Some(&plan),
            seed,
        );
        let ingress = ReliableIngress::new(AckMode::Immediate);
        let mut delivered: Vec<u64> = Vec::new();
        let drain = |delivered: &mut Vec<u64>| {
            while let Some(f) = fx.sink.pop() {
                if let IngressVerdict::Deliver { skip: 0 } =
                    ingress.admit(f.link_id, f.base_seq, f.len() as u32)
                {
                    delivered.push(f.base_seq);
                }
                if let Some((_, watermark)) = ingress.stage_ack(f.link_id) {
                    fx.link.ack(watermark);
                }
            }
        };

        let tcp = flavour == Flavour::Tcp;
        for i in 0..TOTAL {
            if tcp && i == cut_at {
                // The kernel completes the handshake before the acceptor
                // registers the socket; wait for the accept so the sever
                // really lands on an established connection.
                let rx = fx.rx.as_ref().expect("tcp fixture");
                assert!(
                    wait_for(Duration::from_secs(10), || rx.connections() > 0),
                    "seed {seed} {flavour:?}: connection never accepted by frame {cut_at}"
                );
                assert!(
                    rx.chaos_drop_connections() > 0,
                    "seed {seed} {flavour:?}: no connection to cut at {cut_at}"
                );
            }
            let (encoded, count) = batch_of(&[&i.to_le_bytes()]);
            fx.link
                .send_batch(i, encoded, count, 0, 0)
                .unwrap_or_else(|e| panic!("seed {seed} {flavour:?}: send failed: {e:?}"));
            if i % 7 == 6 {
                drain(&mut delivered);
            }
        }

        // TCP frames accepted by the wire before the cut was detected
        // are gone; heartbeats force the reconnect + replay that brings
        // them back. Keep probing until the stream is whole.
        let deadline = Instant::now() + Duration::from_secs(60);
        while delivered.len() < TOTAL as usize {
            assert!(
                Instant::now() < deadline,
                "seed {seed} {flavour:?}: only {}/{TOTAL} delivered (cut at {cut_at})",
                delivered.len()
            );
            let _ = fx.link.heartbeat();
            drain(&mut delivered);
            std::thread::sleep(Duration::from_millis(2));
        }

        assert_eq!(
            delivered,
            (0..TOTAL).collect::<Vec<_>>(),
            "seed {seed} {flavour:?}: lost, duplicated, or reordered"
        );
        let snap = fx.stats.snapshot();
        assert_eq!(snap.link_failures, 0, "seed {seed} {flavour:?}: retry budget exhausted");
        if flavour != Flavour::InProcess {
            assert!(
                snap.retransmits > 0,
                "seed {seed} {flavour:?}: the cut at frame {cut_at} never forced a replay \
                 ({snap:?})"
            );
        }
        fx.shutdown();
    }
}
