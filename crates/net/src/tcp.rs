//! TCP transport — the cross-resource link path, in two selectable
//! flavours behind one facade.
//!
//! The paper's two-tier thread model (§I-C, §IV-C) separates *worker
//! threads* (stream-processor logic) from *IO threads* (socket traffic).
//! [`TcpSender`] and [`TcpReceiver`] are facades over two implementations
//! of that contract:
//!
//! * **Blocking** (the original path, [`TcpSender::connect`] /
//!   [`TcpReceiver::bind`]): one writer OS thread per outbound link fed by
//!   a **bounded** frame queue, one reader OS thread per accepted
//!   connection, plus an acceptor thread. When the remote end stops
//!   reading, the kernel send buffer fills, the writer blocks in
//!   `write_all`, the bounded queue fills, and [`TcpSender::send`] blocks
//!   the calling worker thread — the paper's *"shared bounded buffers at
//!   IO threads that are handling outbound traffic ... prevents worker
//!   threads from writing to these shared buffers"*. Thread count is
//!   O(connections).
//! * **Readiness-driven** ([`TcpSender::connect_reactor`] /
//!   [`TcpReceiver::bind_reactor`], see [`crate::tcp_reactor`]): the same
//!   state machines as cooperative IO-pool tasks woken by an epoll
//!   reactor, so thread count stays O(io_threads) at thousands of
//!   connections. Backpressure works by *not re-arming* the read interest
//!   while the inbound [`WatermarkQueue`] is gated — the TCP window
//!   closes, §III-B4's *"backpressure model that leverages the TCP flow
//!   control"*, with zero parked threads.
//!
//! The wire format and ack protocol are byte-identical across the two, so
//! a blocking sender can feed a reactor receiver and vice versa.
//!
//! # Ack backchannel
//!
//! TCP links are full duplex, and the fault-tolerance layer uses the
//! reverse direction: when a receiver decodes a data frame carrying the
//! [`FLAG_SEQ`](crate::frame::FLAG_SEQ) extension, it writes a cumulative
//! [`ControlKind::Ack`] control frame back on the same socket after the
//! frame lands on the inbound queue. Heartbeat control frames are answered
//! the same way (and never surface on the data queue), so an idle link
//! still proves liveness end to end. A sender built with
//! [`TcpSender::connect_with_acks`] (or
//! [`TcpSender::connect_reactor_with_acks`]) parses that backchannel and
//! hands `(link_id, cumulative_seq)` to a callback — the hook
//! `neptune-ha`'s replay buffer trims from. Legacy frames without the
//! extension elicit no acks, so pre-existing peers are unaffected.

use crate::frame::{
    encode_control_frame, encode_hello_frame, hello_parts, read_frame, read_frame_pooled,
    ControlKind, Frame, PROTOCOL_VERSION,
};
use crate::pool::BytesPool;
use crate::tcp_reactor::{NetDriver, ReactorReceiver, ReactorSender};
use crate::transport::TransportError;
use crate::watermark::{ShedConfig, WatermarkConfig, WatermarkQueue};
use crossbeam::channel::{bounded, Sender as ChannelSender};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Hook run after each data frame lands on the inbound queue; shared
/// between the acceptor and every reader, installable after bind (hence
/// the `RwLock<Option<..>>` indirection).
pub(crate) type DeliverHook = Arc<RwLock<Option<Arc<dyn Fn() + Send + Sync>>>>;

/// Receiver-side admission rule for the [`ControlKind::Hello`] handshake.
///
/// When installed (see [`TcpReceiver::bind_manual_ack`]), a connection's
/// first hello frame is checked against it: a version other than `version`
/// or a capability byte missing any of `required_caps` drops the
/// connection immediately — a mismatched peer fails on connect, before any
/// data frame can be mis-decoded. Connections that never send a hello are
/// still admitted (legacy in-repo clients are byte-compatible); the gate
/// only rejects peers that *announce* an incompatibility.
#[derive(Debug, Clone, Copy)]
pub struct HandshakeGate {
    /// Exact protocol version required ([`PROTOCOL_VERSION`] for this build).
    pub version: u8,
    /// Capability bits the peer must announce (0 = any peer).
    pub required_caps: u8,
}

impl HandshakeGate {
    /// Gate for this build's protocol version with no capability demands.
    pub fn current() -> Self {
        HandshakeGate { version: PROTOCOL_VERSION, required_caps: 0 }
    }

    /// Check an announced `(version, caps)` pair; `Err` holds a
    /// human-readable reason.
    pub fn check(&self, version: u8, caps: u8) -> Result<(), String> {
        if version != self.version {
            return Err(format!(
                "protocol version mismatch: peer announces v{version}, this build speaks v{}",
                self.version
            ));
        }
        if caps & self.required_caps != self.required_caps {
            return Err(format!(
                "capability mismatch: peer caps {caps:#04x} miss required {:#04x}",
                self.required_caps
            ));
        }
        Ok(())
    }
}

/// Per-link ack state on a manual-ack receiver: the socket to write the
/// ack on (re-registered by each new connection carrying the link) and the
/// last watermark the *application* acknowledged — which is also what
/// heartbeats answer with, so a supervised sender's replay buffer is never
/// trimmed past what the application has actually secured.
struct ManualAckLink {
    stream: TcpStream,
    acked: u64,
}

/// State shared by every reader thread of one blocking receiver: ack
/// discipline, handshake gate, and the link→socket registry behind
/// [`TcpReceiver::send_ack`].
struct ReaderPolicy {
    /// When true, data frames are *not* auto-acked after landing on the
    /// queue; the application drives acks via [`TcpReceiver::send_ack`].
    manual_ack: bool,
    handshake: Option<HandshakeGate>,
    handshake_rejects: AtomicU64,
    ack_links: Mutex<HashMap<u64, ManualAckLink>>,
}

impl ReaderPolicy {
    fn auto() -> Arc<Self> {
        Arc::new(ReaderPolicy {
            manual_ack: false,
            handshake: None,
            handshake_rejects: AtomicU64::new(0),
            ack_links: Mutex::new(HashMap::new()),
        })
    }
}

/// Spent wire buffers on their way back to the encoder: the writer (thread
/// or task) [`give`](Self::give)s each frame's vector here once its last
/// byte is on the socket, and [`TcpSender::wire_buffer`] hands it out for
/// the next encode — so a steady stream of frames cycles a few vectors
/// instead of allocating and freeing a body-sized one per frame.
pub(crate) struct WireBuffers {
    spare: Mutex<Vec<Vec<u8>>>,
}

impl WireBuffers {
    /// Spare buffers kept at most. A writer stint can finish as many
    /// frames as the kernel send buffer had room for — a handful of 1 MB
    /// frames — before the producer takes the first one back, so the list
    /// must ride out that burst (at 4, a saturated 10 KB relay re-allocated
    /// one frame in five); 16 does, and bounds what an idle link retains.
    const MAX_SPARE: usize = 16;
    /// Buffers smaller than this (control frames) are cheaper to allocate
    /// than to keep, and would only push a grown buffer off the list.
    const MIN_KEPT_CAPACITY: usize = 4096;

    pub(crate) fn new() -> Arc<Self> {
        Arc::new(WireBuffers { spare: Mutex::new(Vec::with_capacity(Self::MAX_SPARE)) })
    }

    fn take(&self) -> Vec<u8> {
        self.spare.lock().pop().unwrap_or_default()
    }

    pub(crate) fn give(&self, mut wire: Vec<u8>) {
        if wire.capacity() < Self::MIN_KEPT_CAPACITY {
            return;
        }
        wire.clear();
        let mut spare = self.spare.lock();
        if spare.len() < Self::MAX_SPARE {
            spare.push(wire);
        }
    }
}

/// Outbound side of a TCP link: a bounded queue drained by one writer IO
/// thread (blocking path) or one IO-pool task (reactor path).
pub struct TcpSender {
    frames: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
    acks: Arc<AtomicU64>,
    wire_buffers: Arc<WireBuffers>,
    peer: SocketAddr,
    imp: SenderImpl,
}

enum SenderImpl {
    Blocking {
        tx: Option<ChannelSender<Vec<u8>>>,
        writer: Option<JoinHandle<()>>,
        ack_reader: Option<JoinHandle<()>>,
        /// Clone of the socket held to unblock the ack reader on shutdown.
        ack_stream: Option<TcpStream>,
    },
    Reactor(ReactorSender),
}

impl TcpSender {
    /// Connect to a receiver on the blocking thread-per-connection path.
    /// `queue_depth` bounds the number of in-flight frames between worker
    /// and IO thread (the shared bounded buffer of the two-tier model).
    pub fn connect(addr: impl ToSocketAddrs, queue_depth: usize) -> std::io::Result<Self> {
        Self::connect_inner(addr, queue_depth, None)
    }

    /// Like [`connect`](Self::connect), but also spawns an ack-reader IO
    /// thread that parses the receiver's backchannel and invokes `on_ack`
    /// with `(link_id, cumulative_next_expected_seq)` for every
    /// [`ControlKind::Ack`] frame. Use this for supervised links that
    /// retain unacked frames for replay.
    pub fn connect_with_acks(
        addr: impl ToSocketAddrs,
        queue_depth: usize,
        on_ack: impl Fn(u64, u64) + Send + 'static,
    ) -> std::io::Result<Self> {
        Self::connect_inner(addr, queue_depth, Some(Box::new(on_ack)))
    }

    /// Connect on the readiness-driven path: no per-connection threads;
    /// the write/ack state machine runs as a task on `driver`'s IO pool,
    /// woken by its reactor. Semantics match [`connect`](Self::connect).
    pub fn connect_reactor(
        addr: impl ToSocketAddrs,
        queue_depth: usize,
        driver: &NetDriver,
    ) -> std::io::Result<Self> {
        Self::connect_reactor_inner(addr, queue_depth, driver, None)
    }

    /// Readiness-driven equivalent of
    /// [`connect_with_acks`](Self::connect_with_acks): the ack backchannel
    /// is multiplexed onto the same IO task instead of a second thread.
    pub fn connect_reactor_with_acks(
        addr: impl ToSocketAddrs,
        queue_depth: usize,
        driver: &NetDriver,
        on_ack: impl Fn(u64, u64) + Send + 'static,
    ) -> std::io::Result<Self> {
        Self::connect_reactor_inner(addr, queue_depth, driver, Some(Box::new(on_ack)))
    }

    #[allow(clippy::type_complexity)]
    fn connect_reactor_inner(
        addr: impl ToSocketAddrs,
        queue_depth: usize,
        driver: &NetDriver,
        on_ack: Option<Box<dyn Fn(u64, u64) + Send>>,
    ) -> std::io::Result<Self> {
        assert!(queue_depth > 0, "sender queue depth must be positive");
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        let frames = Arc::new(AtomicU64::new(0));
        let bytes = Arc::new(AtomicU64::new(0));
        let acks = Arc::new(AtomicU64::new(0));
        let wire_buffers = WireBuffers::new();
        let sender = ReactorSender::spawn(
            stream,
            queue_depth,
            driver,
            on_ack,
            frames.clone(),
            bytes.clone(),
            acks.clone(),
            wire_buffers.clone(),
        )?;
        Ok(TcpSender { frames, bytes, acks, wire_buffers, peer, imp: SenderImpl::Reactor(sender) })
    }

    #[allow(clippy::type_complexity)]
    fn connect_inner(
        addr: impl ToSocketAddrs,
        queue_depth: usize,
        on_ack: Option<Box<dyn Fn(u64, u64) + Send>>,
    ) -> std::io::Result<Self> {
        assert!(queue_depth > 0, "sender queue depth must be positive");
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        let (tx, rx) = bounded::<Vec<u8>>(queue_depth);
        let frames = Arc::new(AtomicU64::new(0));
        let bytes = Arc::new(AtomicU64::new(0));
        let acks = Arc::new(AtomicU64::new(0));

        let (ack_reader, ack_stream) = match on_ack {
            Some(cb) => {
                let mut back = stream.try_clone()?;
                let keep = back.try_clone()?;
                let ack_count = acks.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("neptune-io-ack-{peer}"))
                    .spawn(move || loop {
                        match read_frame(&mut back) {
                            Ok(f) if f.control == Some(ControlKind::Ack) => {
                                ack_count.fetch_add(1, Ordering::Relaxed);
                                cb(f.link_id, f.base_seq);
                            }
                            Ok(_) => continue, // tolerate unknown chatter
                            Err(_) => return,  // peer closed or shutdown
                        }
                    })
                    .expect("spawn tcp ack reader thread");
                (Some(handle), Some(keep))
            }
            None => (None, None),
        };

        let wire_buffers = WireBuffers::new();
        let (tf, tb, spent) = (frames.clone(), bytes.clone(), wire_buffers.clone());
        let writer = std::thread::Builder::new()
            .name(format!("neptune-io-tx-{peer}"))
            .spawn(move || {
                let mut stream = stream;
                while let Ok(wire) = rx.recv() {
                    if stream.write_all(&wire).is_err() {
                        // Connection lost: drain and drop remaining frames.
                        break;
                    }
                    let len = wire.len() as u64;
                    // Buffer first, counters second: whoever observes
                    // `frames_sent` move can already take the buffer.
                    spent.give(wire);
                    tb.fetch_add(len, Ordering::Relaxed);
                    tf.fetch_add(1, Ordering::Release);
                }
                let _ = stream.flush();
            })
            .expect("spawn tcp writer thread");
        Ok(TcpSender {
            frames,
            bytes,
            acks,
            wire_buffers,
            peer,
            imp: SenderImpl::Blocking {
                tx: Some(tx),
                writer: Some(writer),
                ack_reader,
                ack_stream,
            },
        })
    }

    /// An empty vector to encode the next frame into — one the writer has
    /// finished with when there is one (its capacity comes along), a new
    /// one otherwise. [`send`](Self::send) it like any other; the writer
    /// returns it here after the last byte is written.
    pub fn wire_buffer(&self) -> Vec<u8> {
        self.wire_buffers.take()
    }

    /// Queue one encoded wire frame. Blocks when the bounded IO queue is
    /// full (backpressure). Fails once the connection is closed.
    pub fn send(&self, wire: Vec<u8>) -> Result<(), TransportError> {
        match &self.imp {
            SenderImpl::Blocking { tx: Some(tx), .. } => {
                tx.send(wire).map_err(|_| TransportError::Closed)
            }
            SenderImpl::Blocking { tx: None, .. } => Err(TransportError::Closed),
            SenderImpl::Reactor(r) => r.send(wire),
        }
    }

    /// Frames written to the socket so far. By the time a frame counts
    /// here its buffer is back with [`wire_buffer`](Self::wire_buffer)
    /// (the writer's `Release` increment pairs with this `Acquire` load).
    pub fn frames_sent(&self) -> u64 {
        self.frames.load(Ordering::Acquire)
    }

    /// Bytes written to the socket so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Ack control frames received on the backchannel (always 0 unless
    /// built with an `_with_acks` constructor).
    pub fn acks_received(&self) -> u64 {
        self.acks.load(Ordering::Relaxed)
    }

    /// Remote address.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// Flush queued frames and close the connection.
    pub fn close(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        match &mut self.imp {
            SenderImpl::Blocking { tx, writer, ack_reader, ack_stream } => {
                tx.take(); // disconnect the channel; writer drains then exits
                if let Some(w) = writer.take() {
                    let _ = w.join();
                }
                // Unblock the ack reader parked in read_frame, then join it.
                if let Some(s) = ack_stream.take() {
                    let _ = s.shutdown(std::net::Shutdown::Both);
                }
                if let Some(a) = ack_reader.take() {
                    let _ = a.join();
                }
            }
            SenderImpl::Reactor(r) => r.close(),
        }
    }
}

impl Drop for TcpSender {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Inbound side of TCP links: accepts connections and funnels decoded
/// frames into one shared watermark queue.
pub struct TcpReceiver {
    imp: ReceiverImpl,
}

enum ReceiverImpl {
    Blocking(BlockingReceiver),
    Reactor(ReactorReceiver),
}

struct BlockingReceiver {
    queue: Arc<WatermarkQueue<Frame>>,
    local: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// Clones of accepted sockets, kept so `shutdown` can unblock reader
    /// threads that are parked in `read_frame` on a still-open connection.
    accepted: Arc<Mutex<Vec<TcpStream>>>,
    decode_errors: Arc<AtomicU64>,
    on_deliver: DeliverHook,
    policy: Arc<ReaderPolicy>,
}

impl TcpReceiver {
    /// Bind a listener on the blocking thread-per-connection path; frames
    /// from every accepted connection land on one watermark-bounded
    /// inbound queue. Frame bodies come from fresh allocations; see
    /// [`bind_pooled`](Self::bind_pooled) for the recycling variant the
    /// runtime uses.
    pub fn bind(addr: impl ToSocketAddrs, watermark: WatermarkConfig) -> std::io::Result<Self> {
        Self::bind_inner(addr, watermark, ShedConfig::disabled(), None, ReaderPolicy::auto())
    }

    /// Bind on the blocking path with *manual* acknowledgement: data
    /// frames carrying [`FLAG_SEQ`](crate::frame::FLAG_SEQ) are **not**
    /// acked when they land on the inbound queue — the application calls
    /// [`send_ack`](Self::send_ack) once it has actually secured them
    /// (processed, forwarded downstream and had *that* hop acknowledged,
    /// …). Heartbeats are answered with the manually-acked watermark for
    /// the same reason. `neptune-cluster` node ingress uses this so a
    /// killed node's unacked frames stay in the upstream replay buffer.
    ///
    /// `gate`, when set, enforces the [`ControlKind::Hello`] version
    /// handshake on every accepted connection. `pool`, when set, supplies
    /// the frame-body buffers, as in [`bind_pooled`](Self::bind_pooled).
    pub fn bind_manual_ack(
        addr: impl ToSocketAddrs,
        watermark: WatermarkConfig,
        gate: Option<HandshakeGate>,
        pool: Option<Arc<BytesPool>>,
    ) -> std::io::Result<Self> {
        let policy = Arc::new(ReaderPolicy {
            manual_ack: true,
            handshake: gate,
            handshake_rejects: AtomicU64::new(0),
            ack_links: Mutex::new(HashMap::new()),
        });
        Self::bind_inner(addr, watermark, ShedConfig::disabled(), pool, policy)
    }

    /// Like [`bind`](Self::bind), but reader threads draw frame-body
    /// buffers from `pool` — the job-wide [`BytesPool`] — so the
    /// steady-state receive path performs no per-frame allocation. The
    /// consumer returns each frame's batch to the pool when done (see
    /// [`crate::frame::FrameMessages::into_batch`]).
    pub fn bind_pooled(
        addr: impl ToSocketAddrs,
        watermark: WatermarkConfig,
        pool: Arc<BytesPool>,
    ) -> std::io::Result<Self> {
        Self::bind_inner(addr, watermark, ShedConfig::disabled(), Some(pool), ReaderPolicy::auto())
    }

    /// Like [`bind_pooled`](Self::bind_pooled), with an explicit
    /// [`ShedConfig`] on the inbound queue — the reader degrades per the
    /// policy instead of blocking forever once the gate has been closed
    /// longer than the configured stall.
    pub fn bind_pooled_with_shed(
        addr: impl ToSocketAddrs,
        watermark: WatermarkConfig,
        shed: ShedConfig,
        pool: Arc<BytesPool>,
    ) -> std::io::Result<Self> {
        Self::bind_inner(addr, watermark, shed, Some(pool), ReaderPolicy::auto())
    }

    /// Bind on the readiness-driven path: no per-connection threads; the
    /// acceptor and every connection run as tasks on `driver`'s IO pool.
    pub fn bind_reactor(
        addr: impl ToSocketAddrs,
        watermark: WatermarkConfig,
        driver: &NetDriver,
    ) -> std::io::Result<Self> {
        let r = ReactorReceiver::bind(addr, watermark, ShedConfig::disabled(), None, driver)?;
        Ok(TcpReceiver { imp: ReceiverImpl::Reactor(r) })
    }

    /// Readiness-driven equivalent of
    /// [`bind_pooled_with_shed`](Self::bind_pooled_with_shed) — the
    /// constructor the runtime uses when `net_reactor` is enabled.
    pub fn bind_reactor_pooled_with_shed(
        addr: impl ToSocketAddrs,
        watermark: WatermarkConfig,
        shed: ShedConfig,
        pool: Arc<BytesPool>,
        driver: &NetDriver,
    ) -> std::io::Result<Self> {
        let r = ReactorReceiver::bind(addr, watermark, shed, Some(pool), driver)?;
        Ok(TcpReceiver { imp: ReceiverImpl::Reactor(r) })
    }

    fn bind_inner(
        addr: impl ToSocketAddrs,
        watermark: WatermarkConfig,
        shed: ShedConfig,
        pool: Option<Arc<BytesPool>>,
        policy: Arc<ReaderPolicy>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let queue = Arc::new(WatermarkQueue::with_shed(watermark, shed));
        let shutdown = Arc::new(AtomicBool::new(false));
        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accepted: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let decode_errors = Arc::new(AtomicU64::new(0));
        let on_deliver: DeliverHook = Arc::new(RwLock::new(None));

        let acceptor = {
            let queue = queue.clone();
            let shutdown = shutdown.clone();
            let readers = readers.clone();
            let accepted = accepted.clone();
            let decode_errors = decode_errors.clone();
            let on_deliver = on_deliver.clone();
            let policy = policy.clone();
            std::thread::Builder::new()
                .name(format!("neptune-io-accept-{local}"))
                .spawn(move || {
                    for conn in listener.incoming() {
                        if shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        if let Ok(clone) = stream.try_clone() {
                            accepted.lock().push(clone);
                        }
                        let queue = queue.clone();
                        let shutdown = shutdown.clone();
                        let decode_errors = decode_errors.clone();
                        let on_deliver = on_deliver.clone();
                        let pool = pool.clone();
                        let policy = policy.clone();
                        let peer = stream
                            .peer_addr()
                            .map(|a| a.to_string())
                            .unwrap_or_else(|_| "?".into());
                        let reader = std::thread::Builder::new()
                            .name(format!("neptune-io-rx-{peer}"))
                            .spawn(move || {
                                reader_loop(
                                    stream,
                                    queue,
                                    shutdown,
                                    decode_errors,
                                    on_deliver,
                                    pool,
                                    policy,
                                )
                            })
                            .expect("spawn tcp reader thread");
                        readers.lock().push(reader);
                    }
                })
                .expect("spawn tcp acceptor thread")
        };

        Ok(TcpReceiver {
            imp: ReceiverImpl::Blocking(BlockingReceiver {
                queue,
                local,
                shutdown,
                acceptor: Some(acceptor),
                readers,
                accepted,
                decode_errors,
                on_deliver,
                policy,
            }),
        })
    }

    /// On a [`bind_manual_ack`](Self::bind_manual_ack) receiver: write a
    /// cumulative ack (`next_expected` message seq) for `link_id` on the
    /// most recent connection that carried the link, and remember the
    /// watermark for heartbeat replies. Returns `false` when the link is
    /// unknown, the socket write fails, or the receiver is not in manual
    /// mode — the caller retries after the peer reconnects and resends.
    pub fn send_ack(&self, link_id: u64, next_expected: u64) -> bool {
        let ReceiverImpl::Blocking(b) = &self.imp else { return false };
        if !b.policy.manual_ack {
            return false;
        }
        let mut links = b.policy.ack_links.lock();
        let Some(entry) = links.get_mut(&link_id) else { return false };
        entry.acked = entry.acked.max(next_expected);
        let wire = encode_control_frame(link_id, ControlKind::Ack, entry.acked);
        (&entry.stream).write_all(&wire).is_ok()
    }

    /// Connections dropped by the [`HandshakeGate`] since bind.
    pub fn handshake_rejects(&self) -> u64 {
        match &self.imp {
            ReceiverImpl::Blocking(b) => b.policy.handshake_rejects.load(Ordering::Relaxed),
            ReceiverImpl::Reactor(_) => 0,
        }
    }

    /// The shared inbound queue.
    pub fn queue(&self) -> Arc<WatermarkQueue<Frame>> {
        match &self.imp {
            ReceiverImpl::Blocking(b) => b.queue.clone(),
            ReceiverImpl::Reactor(r) => r.queue(),
        }
    }

    /// Bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        match &self.imp {
            ReceiverImpl::Blocking(b) => b.local,
            ReceiverImpl::Reactor(r) => r.local_addr(),
        }
    }

    /// Frames that failed CRC or structural validation.
    pub fn decode_errors(&self) -> u64 {
        match &self.imp {
            ReceiverImpl::Blocking(b) => b.decode_errors.load(Ordering::Relaxed),
            ReceiverImpl::Reactor(r) => r.decode_errors(),
        }
    }

    /// Connections accepted since bind (cleared at shutdown). Lets tests
    /// and operators confirm connection handlers exist without sleeping.
    pub fn connections(&self) -> usize {
        match &self.imp {
            ReceiverImpl::Blocking(b) => b.accepted.lock().len(),
            ReceiverImpl::Reactor(r) => r.connections(),
        }
    }

    /// Currently-open accepted connections (the reactor-path gauge; on
    /// the blocking path this reports connections accepted since bind,
    /// which only ever over-counts).
    pub fn open_connections(&self) -> usize {
        match &self.imp {
            ReceiverImpl::Blocking(b) => b.accepted.lock().len(),
            ReceiverImpl::Reactor(r) => r.open_connections(),
        }
    }

    /// Largest accept burst drained in a single readiness stint (always 0
    /// on the blocking path, which accepts one connection per wake).
    pub fn accept_backlog_peak(&self) -> u64 {
        match &self.imp {
            ReceiverImpl::Blocking(_) => 0,
            ReceiverImpl::Reactor(r) => r.accept_backlog_peak(),
        }
    }

    /// Register a callback fired after each delivered frame (data-driven
    /// scheduling hook).
    pub fn on_deliver<F: Fn() + Send + Sync + 'static>(&self, f: F) {
        match &self.imp {
            ReceiverImpl::Blocking(b) => *b.on_deliver.write() = Some(Arc::new(f)),
            ReceiverImpl::Reactor(r) => r.set_on_deliver(Arc::new(f)),
        }
    }

    /// Fault injection: sever every accepted connection (the listener
    /// stays up so peers can reconnect). Returns how many were cut. Used
    /// by the chaos harness to reproduce seeded link-cut scenarios on
    /// either transport path.
    pub fn chaos_drop_connections(&self) -> usize {
        match &self.imp {
            ReceiverImpl::Blocking(b) => {
                let drained: Vec<TcpStream> = b.accepted.lock().drain(..).collect();
                for s in &drained {
                    let _ = s.shutdown(std::net::Shutdown::Both);
                }
                drained.len()
            }
            ReceiverImpl::Reactor(r) => r.chaos_drop_connections(),
        }
    }

    /// Stop accepting, close the queue, and release IO resources.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        match &mut self.imp {
            ReceiverImpl::Blocking(b) => b.shutdown_inner(),
            ReceiverImpl::Reactor(r) => r.shutdown(),
        }
    }
}

impl BlockingReceiver {
    fn shutdown_inner(&mut self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        self.queue.close();
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.local);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // Unblock reader threads parked in read_frame on live connections.
        for stream in self.accepted.lock().drain(..) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for r in self.readers.lock().drain(..) {
            let _ = r.join();
        }
    }
}

impl Drop for TcpReceiver {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[allow(clippy::too_many_arguments)]
fn reader_loop(
    mut stream: TcpStream,
    queue: Arc<WatermarkQueue<Frame>>,
    shutdown: Arc<AtomicBool>,
    decode_errors: Arc<AtomicU64>,
    on_deliver: DeliverHook,
    pool: Option<Arc<BytesPool>>,
    policy: Arc<ReaderPolicy>,
) {
    // Cumulative next-expected message seq for this connection's acked
    // (FLAG_SEQ-carrying) traffic. Ack replies are best-effort: a failed
    // write means the peer is gone and the next read surfaces it.
    let mut next_expected: Option<u64> = None;
    // Links this connection has registered in the manual-ack registry.
    let mut registered: Vec<u64> = Vec::new();
    loop {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        let read = match &pool {
            Some(p) => read_frame_pooled(&mut stream, p),
            None => read_frame(&mut stream),
        };
        match read {
            Ok(mut frame) => {
                if let Some(kind) = frame.control {
                    // Control frames never surface on the data queue —
                    // except barriers, which are *in-band*: checkpoint
                    // alignment depends on a barrier staying behind every
                    // data frame flushed before it, so it rides the queue
                    // in arrival order like data. A heartbeat is answered
                    // with the current cumulative ack so an idle link
                    // proves liveness end to end.
                    match kind {
                        ControlKind::Barrier => {}
                        ControlKind::Heartbeat => {
                            let ack = if policy.manual_ack {
                                policy.ack_links.lock().get(&frame.link_id).map_or(0, |l| l.acked)
                            } else {
                                next_expected.unwrap_or(0)
                            };
                            let _ = (&stream).write_all(&encode_control_frame(
                                frame.link_id,
                                ControlKind::Ack,
                                ack,
                            ));
                        }
                        ControlKind::Hello => {
                            // Answer with our own announcement so the peer
                            // can diagnose a mismatch, then gate admission.
                            if let Some(gate) = &policy.handshake {
                                let _ = (&stream).write_all(&encode_hello_frame(
                                    frame.link_id,
                                    gate.version,
                                    0,
                                ));
                                let verdict = match hello_parts(frame.base_seq) {
                                    Some((version, caps)) => gate.check(version, caps),
                                    None => Err("malformed hello value".to_string()),
                                };
                                if let Err(reason) = verdict {
                                    policy.handshake_rejects.fetch_add(1, Ordering::Relaxed);
                                    let peer = stream
                                        .peer_addr()
                                        .map(|a| a.to_string())
                                        .unwrap_or_else(|_| "?".into());
                                    eprintln!(
                                        "neptune-net: rejecting connection from {peer}: {reason}"
                                    );
                                    // Sever the socket itself, not just this
                                    // handle: the acceptor holds a clone (for
                                    // shutdown unblocking), so a plain drop
                                    // would leave the rejected peer hanging
                                    // on a half-open connection.
                                    let _ = stream.shutdown(std::net::Shutdown::Both);
                                    return;
                                }
                            }
                        }
                        ControlKind::Ack => {} // not expected inbound; skip
                    }
                    if kind != ControlKind::Barrier {
                        continue;
                    }
                }
                let seq_end = frame.seq.is_some().then(|| {
                    let end = frame.base_seq + frame.len() as u64;
                    let next = next_expected.map_or(end, |n| n.max(end));
                    next_expected = Some(next);
                    (frame.link_id, next)
                });
                // Manual mode: make the link addressable for application
                // acks before the frame surfaces, so a consumer can never
                // see a frame whose link it cannot ack.
                if policy.manual_ack {
                    if let Some((link_id, _)) = seq_end {
                        if !registered.contains(&link_id) {
                            if let Ok(clone) = stream.try_clone() {
                                let mut links = policy.ack_links.lock();
                                let acked = links.get(&link_id).map_or(0, |l| l.acked);
                                links.insert(link_id, ManualAckLink { stream: clone, acked });
                                registered.push(link_id);
                            }
                        }
                    }
                }
                // Arrival stamp: schedule delay is measured from the moment
                // the frame lands on the queue, not from socket read start.
                frame.received_at = Some(std::time::Instant::now());
                // Blocking here is the flow-control point: a gated queue
                // stops this thread from draining the socket.
                if queue.push_blocking(frame).is_err() {
                    return; // queue closed
                }
                // Ack only after the frame is safely on the inbound queue —
                // a replayed duplicate just re-acks the same watermark. In
                // manual mode the application acks instead, once secured.
                if !policy.manual_ack {
                    if let Some((link_id, next)) = seq_end {
                        let _ = (&stream).write_all(&encode_control_frame(
                            link_id,
                            ControlKind::Ack,
                            next,
                        ));
                    }
                }
                let hook = on_deliver.read().clone();
                if let Some(hook) = hook {
                    hook();
                }
            }
            Err(crate::frame::FrameError::Io(_)) => return, // peer closed
            Err(_) => {
                // Corrupted frame: count it and drop the connection — we
                // cannot resynchronize mid-stream.
                decode_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_frame, encode_hello_frame, hello_parts, CAPS_ALL, PROTOCOL_VERSION};
    use crate::test_support::wait_for;
    use neptune_compress::SelectiveCompressor;
    use neptune_granules::{IoPool, Reactor};
    use std::time::Duration;

    fn localhost_receiver(high: usize, low: usize) -> TcpReceiver {
        TcpReceiver::bind("127.0.0.1:0", WatermarkConfig::new(high, low)).unwrap()
    }

    /// Pool + reactor owned for one test's lifetime; both shut down on
    /// drop (pool first — field order — so tasks retire while the reactor
    /// still accepts deregistrations).
    struct Rig {
        pool: IoPool,
        reactor: Reactor,
    }

    impl Rig {
        fn new(name: &str) -> Rig {
            Rig { pool: IoPool::new(name, 2), reactor: Reactor::new(name).unwrap() }
        }

        fn driver(&self) -> NetDriver {
            NetDriver::new(self.pool.spawner(), self.reactor.handle())
        }
    }

    #[test]
    fn frames_cross_a_real_socket() {
        let rx = localhost_receiver(1 << 20, 1 << 10);
        let tx = TcpSender::connect(rx.local_addr(), 16).unwrap();
        let raw = SelectiveCompressor::disabled();
        let msgs = vec![b"hello".to_vec(), b"tcp".to_vec()];
        tx.send(encode_frame(3, 10, &msgs, &raw)).unwrap();
        let frame = rx.queue().pop_timeout(Duration::from_secs(5)).expect("frame");
        assert_eq!(frame.link_id, 3);
        assert_eq!(frame.base_seq, 10);
        assert_eq!(frame.messages, msgs);
        assert_eq!(rx.decode_errors(), 0);
        tx.close();
        rx.shutdown();
    }

    #[test]
    fn many_frames_in_order() {
        let rx = localhost_receiver(1 << 22, 1 << 12);
        let tx = TcpSender::connect(rx.local_addr(), 64).unwrap();
        let raw = SelectiveCompressor::disabled();
        for i in 0..200u64 {
            let msgs = vec![i.to_le_bytes().to_vec()];
            tx.send(encode_frame(1, i, &msgs, &raw)).unwrap();
        }
        let q = rx.queue();
        for i in 0..200u64 {
            let f = q.pop_timeout(Duration::from_secs(5)).expect("frame");
            assert_eq!(f.base_seq, i);
            assert_eq!(f.messages[0], i.to_le_bytes().to_vec());
        }
        // `frames_sent` increments after `write_all` returns, so the last
        // frame can be received before the counter ticks; close() joins the
        // writer and settles the counters.
        let (frames, bytes) = (tx.frames.clone(), tx.bytes.clone());
        tx.close();
        assert_eq!(frames.load(Ordering::Relaxed), 200);
        assert!(bytes.load(Ordering::Relaxed) > 200 * 8);
        rx.shutdown();
    }

    #[test]
    fn compressed_frames_roundtrip_over_tcp() {
        let rx = localhost_receiver(1 << 20, 1 << 10);
        let tx = TcpSender::connect(rx.local_addr(), 4).unwrap();
        let policy = SelectiveCompressor::new(4.0);
        let msgs: Vec<Vec<u8>> = (0..50).map(|_| vec![9u8; 200]).collect();
        tx.send(encode_frame(2, 0, &msgs, &policy)).unwrap();
        let f = rx.queue().pop_timeout(Duration::from_secs(5)).expect("frame");
        assert_eq!(f.messages, msgs);
        tx.close();
        rx.shutdown();
    }

    #[test]
    fn gated_receiver_backpressures_sender() {
        // Tiny watermarks + tiny sender queue: with the consumer stalled,
        // the sender must block rather than buffer unboundedly. The frames
        // are large (256 KB) so the total (32 MB) dwarfs what the kernel
        // socket buffers can absorb once the reader stops draining.
        const N_FRAMES: u64 = 128;
        let rx = localhost_receiver(4096, 512);
        let tx = TcpSender::connect(rx.local_addr(), 2).unwrap();
        let raw = SelectiveCompressor::disabled();
        let msgs: Vec<Vec<u8>> = vec![vec![0u8; 256 * 1024]];
        let wire = encode_frame(1, 0, &msgs, &raw);

        let tx = Arc::new(tx);
        let sent = Arc::new(AtomicU64::new(0));
        let producer = {
            let tx = tx.clone();
            let sent = sent.clone();
            let wire = wire.clone();
            std::thread::spawn(move || {
                for _ in 0..N_FRAMES {
                    if tx.send(wire.clone()).is_err() {
                        break;
                    }
                    sent.fetch_add(1, Ordering::Relaxed);
                }
            })
        };
        // Without backpressure the producer finishes all sends quickly;
        // with the receiver stalled it must still be stuck at the deadline.
        let finished_early =
            wait_for(Duration::from_millis(300), || sent.load(Ordering::Relaxed) == N_FRAMES);
        assert!(
            !finished_early,
            "producer should have been blocked by backpressure, sent {}",
            sent.load(Ordering::Relaxed)
        );
        // Drain the receiver: producer must finish.
        let q = rx.queue();
        let mut received = 0u64;
        while received < N_FRAMES {
            if q.pop_timeout(Duration::from_secs(5)).is_some() {
                received += 1;
            } else {
                panic!("timed out draining; received {received}");
            }
        }
        producer.join().unwrap();
        assert_eq!(sent.load(Ordering::Relaxed), N_FRAMES);
        rx.shutdown();
    }

    #[test]
    fn corrupted_stream_counts_decode_error() {
        let rx = localhost_receiver(1 << 20, 1 << 10);
        let mut stream = TcpStream::connect(rx.local_addr()).unwrap();
        // A valid header magic but garbage after it.
        let mut junk = crate::frame::MAGIC.to_le_bytes().to_vec();
        junk.extend_from_slice(&[0xFFu8; 64]);
        stream.write_all(&junk).unwrap();
        drop(stream);
        // Wait for the reader to process and drop the connection.
        assert!(wait_for(Duration::from_secs(5), || rx.decode_errors() > 0));
        assert_eq!(rx.decode_errors(), 1);
        rx.shutdown();
    }

    #[test]
    fn sender_close_flushes_pending() {
        let rx = localhost_receiver(1 << 20, 1 << 10);
        let tx = TcpSender::connect(rx.local_addr(), 64).unwrap();
        let raw = SelectiveCompressor::disabled();
        for i in 0..50u64 {
            tx.send(encode_frame(1, i, &[vec![1u8; 10]], &raw)).unwrap();
        }
        tx.close(); // must block until the writer drained the queue
        let q = rx.queue();
        for _ in 0..50 {
            assert!(q.pop_timeout(Duration::from_secs(5)).is_some());
        }
        rx.shutdown();
    }

    #[test]
    fn multiple_senders_one_receiver() {
        let rx = localhost_receiver(1 << 22, 1 << 12);
        let raw = SelectiveCompressor::disabled();
        let senders: Vec<_> = (0..4u64)
            .map(|link| {
                let addr = rx.local_addr();
                std::thread::spawn(move || {
                    let tx = TcpSender::connect(addr, 16).unwrap();
                    let raw = SelectiveCompressor::disabled();
                    for i in 0..100u64 {
                        tx.send(encode_frame(link, i, &[link.to_le_bytes().to_vec()], &raw))
                            .unwrap();
                    }
                    tx.close();
                })
            })
            .collect();
        let _ = raw;
        let q = rx.queue();
        let mut per_link = [0u64; 4];
        for _ in 0..400 {
            let f = q.pop_timeout(Duration::from_secs(5)).expect("frame");
            // Per-link ordering must hold even with interleaving.
            assert_eq!(f.base_seq, per_link[f.link_id as usize]);
            per_link[f.link_id as usize] += 1;
        }
        for s in senders {
            s.join().unwrap();
        }
        assert_eq!(per_link, [100, 100, 100, 100]);
        rx.shutdown();
    }

    #[test]
    fn pooled_receiver_recycles_body_buffers() {
        let pool = Arc::new(BytesPool::new(16));
        let rx = TcpReceiver::bind_pooled(
            "127.0.0.1:0",
            WatermarkConfig::new(1 << 20, 1 << 10),
            pool.clone(),
        )
        .unwrap();
        let tx = TcpSender::connect(rx.local_addr(), 16).unwrap();
        let raw = SelectiveCompressor::disabled();
        let q = rx.queue();
        for i in 0..50u64 {
            tx.send(encode_frame(1, i, &[i.to_le_bytes().to_vec()], &raw)).unwrap();
            let f = q.pop_timeout(Duration::from_secs(5)).expect("frame");
            assert_eq!(f.messages[0], i.to_le_bytes());
            // Consumer done with the frame: hand the batch back.
            pool.recycle(f.messages.into_batch());
        }
        let stats = pool.stats();
        assert!(stats.hits >= 40, "steady-state receive path must reuse body buffers: {stats:?}");
        tx.close();
        rx.shutdown();
    }

    #[test]
    fn seq_frames_elicit_cumulative_acks() {
        let rx = localhost_receiver(1 << 20, 1 << 10);
        let acks = Arc::new(Mutex::new(Vec::new()));
        let sink = acks.clone();
        let tx = TcpSender::connect_with_acks(rx.local_addr(), 16, move |link, cum| {
            sink.lock().push((link, cum));
        })
        .unwrap();
        let raw = SelectiveCompressor::disabled();
        // Two messages then one, length-prefixed, with the seq extension.
        let mut batch = Vec::new();
        for m in [b"a".as_slice(), b"b".as_slice()] {
            batch.extend_from_slice(&(m.len() as u32).to_le_bytes());
            batch.extend_from_slice(m);
        }
        tx.send(crate::frame::encode_frame_raw_ext(9, 0, 2, &batch, &raw, 0, Some(0))).unwrap();
        let mut one = (1u32).to_le_bytes().to_vec();
        one.push(b'c');
        tx.send(crate::frame::encode_frame_raw_ext(9, 2, 1, &one, &raw, 0, Some(1))).unwrap();
        let q = rx.queue();
        assert_eq!(q.pop_timeout(Duration::from_secs(5)).unwrap().seq, Some(0));
        assert_eq!(q.pop_timeout(Duration::from_secs(5)).unwrap().seq, Some(1));
        assert!(wait_for(Duration::from_secs(5), || tx.acks_received() >= 2));
        assert_eq!(*acks.lock(), vec![(9, 2), (9, 3)], "cumulative next-expected seqs");
        tx.close();
        rx.shutdown();
    }

    #[test]
    fn heartbeats_are_acked_and_bypass_the_data_queue() {
        let rx = localhost_receiver(1 << 20, 1 << 10);
        let acks = Arc::new(Mutex::new(Vec::new()));
        let sink = acks.clone();
        let tx = TcpSender::connect_with_acks(rx.local_addr(), 4, move |link, cum| {
            sink.lock().push((link, cum));
        })
        .unwrap();
        tx.send(encode_control_frame(4, ControlKind::Heartbeat, 0)).unwrap();
        assert!(wait_for(Duration::from_secs(5), || tx.acks_received() >= 1));
        assert_eq!(*acks.lock(), vec![(4, 0)], "idle link acks at watermark 0");
        assert!(
            rx.queue().pop_timeout(Duration::from_millis(50)).is_none(),
            "control frames must not surface as data"
        );
        tx.close();
        rx.shutdown();
    }

    #[test]
    fn manual_ack_receiver_defers_until_application_acks() {
        let rx = TcpReceiver::bind_manual_ack(
            "127.0.0.1:0",
            WatermarkConfig::new(1 << 20, 1 << 10),
            None,
            None,
        )
        .unwrap();
        let acks = Arc::new(Mutex::new(Vec::new()));
        let sink = acks.clone();
        let tx = TcpSender::connect_with_acks(rx.local_addr(), 16, move |link, cum| {
            sink.lock().push((link, cum));
        })
        .unwrap();
        let raw = SelectiveCompressor::disabled();
        let mut one = (1u32).to_le_bytes().to_vec();
        one.push(b'a');
        tx.send(crate::frame::encode_frame_raw_ext(9, 0, 1, &one, &raw, 0, Some(0))).unwrap();
        tx.send(crate::frame::encode_frame_raw_ext(9, 1, 1, &one, &raw, 0, Some(1))).unwrap();
        let q = rx.queue();
        assert_eq!(q.pop_timeout(Duration::from_secs(5)).unwrap().seq, Some(0));
        assert_eq!(q.pop_timeout(Duration::from_secs(5)).unwrap().seq, Some(1));
        // No automatic ack: a heartbeat must answer with watermark 0.
        tx.send(encode_control_frame(9, ControlKind::Heartbeat, 1)).unwrap();
        assert!(wait_for(Duration::from_secs(5), || tx.acks_received() >= 1));
        assert_eq!(*acks.lock(), vec![(9, 0)], "unacked link reports watermark 0");
        // Application secures the frames and acks; the watermark advances.
        assert!(rx.send_ack(9, 2), "link must be registered for manual acks");
        assert!(wait_for(Duration::from_secs(5), || acks.lock().contains(&(9, 2))));
        assert!(!rx.send_ack(77, 1), "unknown link cannot be acked");
        tx.close();
        rx.shutdown();
    }

    #[test]
    fn handshake_gate_rejects_version_mismatch_and_admits_match() {
        let gate = HandshakeGate::current();
        let rx = TcpReceiver::bind_manual_ack(
            "127.0.0.1:0",
            WatermarkConfig::new(1 << 20, 1 << 10),
            Some(gate),
            None,
        )
        .unwrap();
        // Mismatched peer: announces a future protocol version.
        let mut bad = TcpStream::connect(rx.local_addr()).unwrap();
        bad.write_all(&encode_hello_frame(1, PROTOCOL_VERSION + 1, 0)).unwrap();
        // The receiver answers with its own hello, then drops us.
        let answer = read_frame(&mut bad).unwrap();
        assert_eq!(answer.control, Some(ControlKind::Hello));
        assert_eq!(hello_parts(answer.base_seq).unwrap().0, PROTOCOL_VERSION);
        assert!(wait_for(Duration::from_secs(5), || rx.handshake_rejects() == 1));
        let mut rest = Vec::new();
        assert_eq!(std::io::Read::read_to_end(&mut bad, &mut rest).unwrap_or(0), 0, "closed");
        // Matching peer: admitted, data flows.
        let tx = TcpSender::connect(rx.local_addr(), 8).unwrap();
        tx.send(encode_hello_frame(1, PROTOCOL_VERSION, 0)).unwrap();
        let raw = SelectiveCompressor::disabled();
        tx.send(encode_frame(1, 0, &[b"ok".to_vec()], &raw)).unwrap();
        let f = rx.queue().pop_timeout(Duration::from_secs(5)).expect("admitted peer delivers");
        assert_eq!(&f.messages[0], b"ok");
        assert_eq!(rx.handshake_rejects(), 1);
        tx.close();
        rx.shutdown();
    }

    #[test]
    fn legacy_auto_ack_receiver_skips_hello_frames() {
        // A hello sent at an un-gated receiver (this repo's default) is
        // skipped like any unknown control chatter — byte compatibility.
        let rx = localhost_receiver(1 << 20, 1 << 10);
        let tx = TcpSender::connect(rx.local_addr(), 8).unwrap();
        tx.send(encode_hello_frame(1, PROTOCOL_VERSION, CAPS_ALL)).unwrap();
        let raw = SelectiveCompressor::disabled();
        tx.send(encode_frame(1, 5, &[b"after".to_vec()], &raw)).unwrap();
        let f = rx.queue().pop_timeout(Duration::from_secs(5)).expect("data after hello");
        assert_eq!(f.base_seq, 5);
        assert!(
            rx.queue().pop_timeout(Duration::from_millis(50)).is_none(),
            "hello must not surface as data"
        );
        tx.close();
        rx.shutdown();
    }

    #[test]
    fn shutdown_unblocks_idle_readers_promptly() {
        let rx = localhost_receiver(1 << 20, 1 << 10);
        // Two live connections whose readers are parked in read_frame.
        let tx1 = TcpSender::connect(rx.local_addr(), 4).unwrap();
        let tx2 = TcpSender::connect_with_acks(rx.local_addr(), 4, |_, _| {}).unwrap();
        // Both readers accepted and parked in read_frame.
        assert!(wait_for(Duration::from_secs(5), || rx.connections() == 2));
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        std::thread::spawn(move || {
            rx.shutdown();
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("receiver shutdown must not hang on blocked readers");
        tx1.close();
        tx2.close();
    }

    #[test]
    fn deliver_hook_fires_per_frame() {
        let rx = localhost_receiver(1 << 20, 1 << 10);
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        rx.on_deliver(move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
        let tx = TcpSender::connect(rx.local_addr(), 8).unwrap();
        let raw = SelectiveCompressor::disabled();
        for i in 0..10u64 {
            tx.send(encode_frame(1, i, &[b"x".to_vec()], &raw)).unwrap();
        }
        tx.close();
        let q = rx.queue();
        for _ in 0..10 {
            q.pop_timeout(Duration::from_secs(5)).unwrap();
        }
        // The hook runs after the push, so the last pop can beat it.
        assert!(wait_for(Duration::from_secs(5), || hits.load(Ordering::Relaxed) == 10));
        rx.shutdown();
    }

    // --- readiness-driven path ---------------------------------------

    #[test]
    fn reactor_frames_cross_a_real_socket() {
        let rig = Rig::new("trx1");
        let driver = rig.driver();
        let wm = WatermarkConfig::new(1 << 20, 1 << 10);
        let rx = TcpReceiver::bind_reactor("127.0.0.1:0", wm, &driver).unwrap();
        let tx = TcpSender::connect_reactor(rx.local_addr(), 16, &driver).unwrap();
        let raw = SelectiveCompressor::disabled();
        let msgs = vec![b"hello".to_vec(), b"reactor".to_vec()];
        tx.send(encode_frame(3, 10, &msgs, &raw)).unwrap();
        let frame = rx.queue().pop_timeout(Duration::from_secs(5)).expect("frame");
        assert_eq!(frame.link_id, 3);
        assert_eq!(frame.base_seq, 10);
        assert_eq!(frame.messages, msgs);
        assert!(frame.received_at.is_some(), "reactor path must stamp arrival");
        assert_eq!(rx.decode_errors(), 0);
        tx.close();
        rx.shutdown();
    }

    #[test]
    fn reactor_many_frames_in_order_and_counters_settle() {
        let rig = Rig::new("trx2");
        let driver = rig.driver();
        let wm = WatermarkConfig::new(1 << 22, 1 << 12);
        let rx = TcpReceiver::bind_reactor("127.0.0.1:0", wm, &driver).unwrap();
        let tx = TcpSender::connect_reactor(rx.local_addr(), 64, &driver).unwrap();
        let raw = SelectiveCompressor::disabled();
        for i in 0..200u64 {
            tx.send(encode_frame(1, i, &[i.to_le_bytes().to_vec()], &raw)).unwrap();
        }
        let q = rx.queue();
        for i in 0..200u64 {
            let f = q.pop_timeout(Duration::from_secs(5)).expect("frame");
            assert_eq!(f.base_seq, i, "frames must arrive in order");
        }
        let (frames, bytes) = (tx.frames.clone(), tx.bytes.clone());
        tx.close(); // close() waits for the task to drain
        assert_eq!(frames.load(Ordering::Relaxed), 200);
        assert!(bytes.load(Ordering::Relaxed) > 200 * 8);
        assert!(rig.reactor.stats().events_dispatched > 0, "readiness events must flow");
        rx.shutdown();
    }

    #[test]
    fn blocking_sender_feeds_reactor_receiver_and_vice_versa() {
        // Wire-format compatibility both ways, §II of the migration story.
        let rig = Rig::new("trx3");
        let driver = rig.driver();
        let raw = SelectiveCompressor::disabled();

        let wm = WatermarkConfig::new(1 << 20, 1 << 10);
        let reactor_rx = TcpReceiver::bind_reactor("127.0.0.1:0", wm, &driver).unwrap();
        let blocking_tx = TcpSender::connect(reactor_rx.local_addr(), 8).unwrap();
        blocking_tx.send(encode_frame(1, 7, &[b"b-to-r".to_vec()], &raw)).unwrap();
        let f = reactor_rx.queue().pop_timeout(Duration::from_secs(5)).expect("frame");
        assert_eq!(f.messages, vec![b"b-to-r".to_vec()]);

        let blocking_rx = localhost_receiver(1 << 20, 1 << 10);
        let reactor_tx = TcpSender::connect_reactor(blocking_rx.local_addr(), 8, &driver).unwrap();
        reactor_tx.send(encode_frame(1, 8, &[b"r-to-b".to_vec()], &raw)).unwrap();
        let f = blocking_rx.queue().pop_timeout(Duration::from_secs(5)).expect("frame");
        assert_eq!(f.messages, vec![b"r-to-b".to_vec()]);

        blocking_tx.close();
        reactor_tx.close();
        reactor_rx.shutdown();
        blocking_rx.shutdown();
    }

    #[test]
    fn reactor_gated_receiver_backpressures_sender() {
        // Same scenario as the blocking test: a stalled consumer must
        // stall the producer via queue gate + closed TCP window — here
        // with *zero* threads parked on sockets.
        const N_FRAMES: u64 = 128;
        let rig = Rig::new("trx4");
        let driver = rig.driver();
        let rx = TcpReceiver::bind_reactor("127.0.0.1:0", WatermarkConfig::new(4096, 512), &driver)
            .unwrap();
        let tx = Arc::new(TcpSender::connect_reactor(rx.local_addr(), 2, &driver).unwrap());
        let raw = SelectiveCompressor::disabled();
        let wire = encode_frame(1, 0, &[vec![0u8; 256 * 1024]], &raw);

        let sent = Arc::new(AtomicU64::new(0));
        let producer = {
            let tx = tx.clone();
            let sent = sent.clone();
            let wire = wire.clone();
            std::thread::spawn(move || {
                for _ in 0..N_FRAMES {
                    if tx.send(wire.clone()).is_err() {
                        break;
                    }
                    sent.fetch_add(1, Ordering::Relaxed);
                }
            })
        };
        let finished_early =
            wait_for(Duration::from_millis(300), || sent.load(Ordering::Relaxed) == N_FRAMES);
        assert!(
            !finished_early,
            "producer should have been blocked by backpressure, sent {}",
            sent.load(Ordering::Relaxed)
        );
        let q = rx.queue();
        let mut received = 0u64;
        while received < N_FRAMES {
            if q.pop_timeout(Duration::from_secs(5)).is_some() {
                received += 1;
            } else {
                panic!("timed out draining; received {received}");
            }
        }
        producer.join().unwrap();
        assert_eq!(sent.load(Ordering::Relaxed), N_FRAMES);
        rx.shutdown();
    }

    #[test]
    fn reactor_sender_close_flushes_pending() {
        let rig = Rig::new("trx5");
        let driver = rig.driver();
        let wm = WatermarkConfig::new(1 << 20, 1 << 10);
        let rx = TcpReceiver::bind_reactor("127.0.0.1:0", wm, &driver).unwrap();
        let tx = TcpSender::connect_reactor(rx.local_addr(), 64, &driver).unwrap();
        let raw = SelectiveCompressor::disabled();
        for i in 0..50u64 {
            tx.send(encode_frame(1, i, &[vec![1u8; 10]], &raw)).unwrap();
        }
        tx.close(); // must not return until the task drained the queue
        let q = rx.queue();
        for _ in 0..50 {
            assert!(q.pop_timeout(Duration::from_secs(5)).is_some());
        }
        rx.shutdown();
    }

    #[test]
    fn reactor_seq_frames_elicit_cumulative_acks() {
        let rig = Rig::new("trx6");
        let driver = rig.driver();
        let wm = WatermarkConfig::new(1 << 20, 1 << 10);
        let rx = TcpReceiver::bind_reactor("127.0.0.1:0", wm, &driver).unwrap();
        let acks = Arc::new(Mutex::new(Vec::new()));
        let sink = acks.clone();
        let tx =
            TcpSender::connect_reactor_with_acks(rx.local_addr(), 16, &driver, move |link, cum| {
                sink.lock().push((link, cum));
            })
            .unwrap();
        let raw = SelectiveCompressor::disabled();
        let mut batch = Vec::new();
        for m in [b"a".as_slice(), b"b".as_slice()] {
            batch.extend_from_slice(&(m.len() as u32).to_le_bytes());
            batch.extend_from_slice(m);
        }
        tx.send(crate::frame::encode_frame_raw_ext(9, 0, 2, &batch, &raw, 0, Some(0))).unwrap();
        let mut one = (1u32).to_le_bytes().to_vec();
        one.push(b'c');
        tx.send(crate::frame::encode_frame_raw_ext(9, 2, 1, &one, &raw, 0, Some(1))).unwrap();
        let q = rx.queue();
        assert_eq!(q.pop_timeout(Duration::from_secs(5)).unwrap().seq, Some(0));
        assert_eq!(q.pop_timeout(Duration::from_secs(5)).unwrap().seq, Some(1));
        assert!(wait_for(Duration::from_secs(5), || tx.acks_received() >= 2));
        assert_eq!(*acks.lock(), vec![(9, 2), (9, 3)], "cumulative next-expected seqs");
        tx.close();
        rx.shutdown();
    }

    #[test]
    fn reactor_heartbeats_are_acked_and_bypass_the_data_queue() {
        let rig = Rig::new("trx7");
        let driver = rig.driver();
        let wm = WatermarkConfig::new(1 << 20, 1 << 10);
        let rx = TcpReceiver::bind_reactor("127.0.0.1:0", wm, &driver).unwrap();
        let acks = Arc::new(Mutex::new(Vec::new()));
        let sink = acks.clone();
        let tx =
            TcpSender::connect_reactor_with_acks(rx.local_addr(), 4, &driver, move |link, cum| {
                sink.lock().push((link, cum));
            })
            .unwrap();
        tx.send(encode_control_frame(4, ControlKind::Heartbeat, 0)).unwrap();
        assert!(wait_for(Duration::from_secs(5), || tx.acks_received() >= 1));
        assert_eq!(*acks.lock(), vec![(4, 0)], "idle link acks at watermark 0");
        assert!(
            rx.queue().pop_timeout(Duration::from_millis(50)).is_none(),
            "control frames must not surface as data"
        );
        tx.close();
        rx.shutdown();
    }

    #[test]
    fn reactor_tracks_connection_gauges() {
        let rig = Rig::new("trx8");
        let driver = rig.driver();
        let wm = WatermarkConfig::new(1 << 20, 1 << 10);
        let rx = TcpReceiver::bind_reactor("127.0.0.1:0", wm, &driver).unwrap();
        let tx1 = TcpSender::connect_reactor(rx.local_addr(), 4, &driver).unwrap();
        let tx2 = TcpSender::connect_reactor(rx.local_addr(), 4, &driver).unwrap();
        assert!(wait_for(Duration::from_secs(5), || rx.open_connections() == 2));
        assert_eq!(rx.connections(), 2);
        assert!(rx.accept_backlog_peak() >= 1, "accept bursts must be tracked");
        drop(tx1);
        drop(tx2);
        assert!(
            wait_for(Duration::from_secs(5), || rx.open_connections() == 0),
            "closed connections must drain the gauge, at {}",
            rx.open_connections()
        );
        rx.shutdown();
    }

    #[test]
    fn reactor_corrupted_stream_counts_decode_error() {
        let rig = Rig::new("trx9");
        let driver = rig.driver();
        let wm = WatermarkConfig::new(1 << 20, 1 << 10);
        let rx = TcpReceiver::bind_reactor("127.0.0.1:0", wm, &driver).unwrap();
        let mut stream = TcpStream::connect(rx.local_addr()).unwrap();
        let mut junk = crate::frame::MAGIC.to_le_bytes().to_vec();
        junk.extend_from_slice(&[0xFFu8; 64]);
        stream.write_all(&junk).unwrap();
        drop(stream);
        assert!(wait_for(Duration::from_secs(5), || rx.decode_errors() > 0));
        assert_eq!(rx.decode_errors(), 1);
        rx.shutdown();
    }

    #[test]
    fn reactor_pooled_receiver_recycles_body_buffers() {
        let rig = Rig::new("trx10");
        let driver = rig.driver();
        let pool = Arc::new(BytesPool::new(16));
        let rx = TcpReceiver::bind_reactor_pooled_with_shed(
            "127.0.0.1:0",
            WatermarkConfig::new(1 << 20, 1 << 10),
            ShedConfig::disabled(),
            pool.clone(),
            &driver,
        )
        .unwrap();
        let tx = TcpSender::connect_reactor(rx.local_addr(), 16, &driver).unwrap();
        let raw = SelectiveCompressor::disabled();
        let q = rx.queue();
        for i in 0..50u64 {
            tx.send(encode_frame(1, i, &[i.to_le_bytes().to_vec()], &raw)).unwrap();
            let f = q.pop_timeout(Duration::from_secs(5)).expect("frame");
            assert_eq!(f.messages[0], i.to_le_bytes());
            pool.recycle(f.messages.into_batch());
        }
        let stats = pool.stats();
        assert!(stats.hits >= 40, "steady-state receive path must reuse body buffers: {stats:?}");
        tx.close();
        rx.shutdown();
    }

    #[test]
    fn reactor_chaos_drop_severs_connections_but_keeps_listener() {
        let rig = Rig::new("trx11");
        let driver = rig.driver();
        let wm = WatermarkConfig::new(1 << 20, 1 << 10);
        let rx = TcpReceiver::bind_reactor("127.0.0.1:0", wm, &driver).unwrap();
        let raw = SelectiveCompressor::disabled();
        let tx = TcpSender::connect_reactor(rx.local_addr(), 8, &driver).unwrap();
        tx.send(encode_frame(1, 0, &[b"pre".to_vec()], &raw)).unwrap();
        assert!(rx.queue().pop_timeout(Duration::from_secs(5)).is_some());

        assert_eq!(rx.chaos_drop_connections(), 1);
        // The cut link dies: sends eventually fail as the task observes it.
        assert!(wait_for(Duration::from_secs(5), || {
            tx.send(encode_frame(1, 1, &[b"dead".to_vec()], &raw)).is_err()
        }));
        // The listener survives: a new connection works.
        let tx2 = TcpSender::connect_reactor(rx.local_addr(), 8, &driver).unwrap();
        tx2.send(encode_frame(1, 2, &[b"post".to_vec()], &raw)).unwrap();
        let f = rx.queue().pop_timeout(Duration::from_secs(5)).expect("post-cut frame");
        assert_eq!(f.messages, vec![b"post".to_vec()]);
        tx2.close();
        drop(tx);
        rx.shutdown();
    }
}
