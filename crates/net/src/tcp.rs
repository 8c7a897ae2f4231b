//! TCP transport — the cross-resource link path, on the IO tier.
//!
//! The paper's two-tier thread model (§I-C, §IV-C) separates *worker
//! threads* (stream-processor logic) from a small, fixed set of *IO
//! threads* (socket traffic). Both ends of a TCP link are cooperative
//! [`IoTask`] state machines multiplexed onto that fixed IO pool, with
//! socket readiness delivered by the `neptune-granules` epoll
//! [`Reactor`](neptune_granules::Reactor) — no thread per socket, so a
//! job's thread count stays O(io_threads) at thousands of connections:
//!
//! * The **sender task** drains a **bounded** outbound queue until
//!   `WouldBlock`, then arms a one-shot writable interest and parks. When
//!   the remote end stops reading, the kernel send buffer fills, the task
//!   parks, the bounded queue fills and closes to producers until it has
//!   drained to half — the paper's *"shared bounded buffers at IO threads
//!   that are handling outbound traffic ... prevents worker threads from
//!   writing to these shared buffers"*. A producer that owns its thread
//!   waits that out in [`TcpSender::send`]; one that is itself a task on
//!   the IO tier asks [`TcpSender::has_room`], keeps what
//!   [`TcpSender::try_send`] handed back, parks, and is woken by the
//!   sender's space listener ([`TcpSender::add_space_listener`]) — it
//!   must not sleep on the thread the sender task needs to make room.
//! * The **connection task** reads whatever the kernel has, feeds it
//!   through the incremental [`FrameDecoder`], and pushes decoded frames
//!   onto the shared inbound [`WatermarkQueue`]. While the queue is gated
//!   the task does **not** re-arm its read interest — the kernel receive
//!   buffer fills and the TCP window closes, §III-B4's *"backpressure
//!   model that leverages the TCP flow control"*, with zero parked threads.
//! * The **accept task** accepts until `WouldBlock` and spawns one
//!   connection task per socket through the pool's [`IoSpawner`]; the
//!   accept burst length is tracked as the accept-backlog-peak gauge.
//!
//! # Ack backchannel
//!
//! TCP links are full duplex, and the fault-tolerance layer uses the
//! reverse direction: when a receiver decodes a data frame that carries a
//! frame sequence number ([`Frame::seq`]), it writes a cumulative
//! [`ControlKind::Ack`] control frame back on the same socket after the
//! frame lands on the inbound queue. Heartbeat control frames are answered
//! the same way (and never surface on the data queue), so an idle link
//! still proves liveness end to end. A sender built with
//! [`TcpSender::connect_reactor_with_acks`] parses that backchannel — on
//! the same task that writes — and hands `(link_id, cumulative_seq)` to a
//! callback, the hook `neptune-link`'s replay buffer trims from.
//! Unsequenced frames elicit no acks.
//!
//! A receiver bound with [`TcpReceiver::bind_manual_ack`] leaves the
//! acknowledging to the application ([`TcpReceiver::send_ack`]) and can
//! put a [`HandshakeGate`] in front of every connection.

use crate::frame::{
    encode_control_frame, encode_hello_frame, ControlKind, Frame, FrameDecoder, FrameError,
};
use crate::pool::BytesPool;
use crate::transport::TransportError;
use crate::watermark::{PushError, ShedConfig, WatermarkConfig, WatermarkQueue};
use neptune_granules::{
    IoContext, IoSpawner, IoStatus, IoTask, IoTaskHandle, NetSource, NetWaker, ReactorHandle,
};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

/// How often a gated connection task re-checks the inbound queue. The
/// gate has no per-connection release callback (listeners cannot be
/// removed, so per-connection listeners would leak under churn); a short
/// timer poll through the IO pool's wheel costs one stint per interval
/// and only while gated.
const GATE_POLL: Duration = Duration::from_millis(1);

/// Read budget per connection-task stint: after this many bytes the task
/// re-queues as Ready so one firehose connection cannot starve its
/// siblings on the same IO thread.
const READ_STINT_BYTES: usize = 256 * 1024;

/// Longest a sender `close()` waits for the task to drain the outbound
/// queue before giving up (a peer that stopped reading could otherwise
/// hang shutdown forever).
const CLOSE_DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Everything a transport endpoint needs from the runtime: a way to spawn
/// IO tasks and a way to register sockets for readiness. Cheap to clone.
#[derive(Clone)]
pub struct NetDriver {
    spawner: IoSpawner,
    reactor: ReactorHandle,
}

impl NetDriver {
    /// Bundle a pool's spawner with a reactor's registration handle.
    pub fn new(spawner: IoSpawner, reactor: ReactorHandle) -> Self {
        NetDriver { spawner, reactor }
    }

    /// The reactor handle (for stats snapshots).
    pub fn reactor(&self) -> &ReactorHandle {
        &self.reactor
    }
}

/// Receiver-side admission rule for the [`ControlKind::Hello`] handshake.
///
/// Every receiver refuses a frame of another protocol version — the
/// decoder does. With a gate installed (see
/// [`TcpReceiver::bind_manual_ack`]) the refusal is a *handshake* outcome
/// rather than a corrupt stream: the peer is sent this side's hello, whose
/// header names the version spoken here, then counted
/// ([`TcpReceiver::handshake_rejects`]), logged and severed. A gate also
/// answers each hello with its own and checks the announced capability
/// byte against `required_caps`. Connections that never send a hello are
/// still admitted; a receiver without a gate skips hello frames like any
/// control chatter.
#[derive(Debug, Clone, Copy, Default)]
pub struct HandshakeGate {
    /// Capability bits the peer must announce (0 = any peer).
    pub required_caps: u8,
}

impl HandshakeGate {
    /// Check an announced capability byte; `Err` holds a human-readable
    /// reason.
    pub fn check(&self, caps: u8) -> Result<(), String> {
        if caps & self.required_caps != self.required_caps {
            return Err(format!(
                "capability mismatch: peer caps {caps:#04x} miss required {:#04x}",
                self.required_caps
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

/// Spent wire buffers on their way back to the encoder: the sender task
/// [`give`](Self::give)s each frame's vector here once its last byte is on
/// the socket, and [`TcpSender::wire_buffer`] hands it out for the next
/// encode — so a steady stream of frames cycles a few vectors instead of
/// allocating and freeing a body-sized one per frame.
struct WireBuffers {
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

    fn new() -> Self {
        WireBuffers { spare: Mutex::new(Vec::with_capacity(Self::MAX_SPARE)) }
    }

    fn take(&self) -> Vec<u8> {
        self.spare.lock().pop().unwrap_or_default()
    }

    fn give(&self, mut wire: Vec<u8>) {
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

/// Outbound queue shared between producer threads (workers calling
/// `send`) and the sender task on the IO tier.
struct SendQueue {
    frames: VecDeque<Vec<u8>>,
    /// True from the push that fills the queue until the task has drained
    /// it to half: producers are turned away in between, so a saturated
    /// link signals space once per half queue, not once per frame.
    full: bool,
    /// `close()` was called: no new sends; the task completes once drained.
    closed: bool,
    /// The socket died: sends fail immediately, queued frames are dropped.
    dead: bool,
    /// The task exited cleanly after draining a closed queue.
    done: bool,
}

struct SenderShared {
    queue: Mutex<SendQueue>,
    /// Mirror of `SendQueue::full`, written under the queue lock at each
    /// edge so a producer can ask per packet without taking it.
    full: AtomicBool,
    /// Times the queue went full.
    full_events: AtomicU64,
    /// Fired after the queue reopens (or the link dies): wakes producer
    /// tasks parked on a full queue.
    space_listeners: Mutex<Vec<SpaceListener>>,
    /// Producers that own their thread wait here while the queue is full.
    not_full: Condvar,
    /// `close()` waits here for the drain to finish.
    drained: Condvar,
    capacity: usize,
    frames: AtomicU64,
    bytes: AtomicU64,
    acks: AtomicU64,
    /// Where fully-written wire buffers go back to the encoder.
    spent: WireBuffers,
}

impl SenderShared {
    /// Flip `full`: the locked flag and its lock-free mirror together. The
    /// fence pairs with the one in [`TcpSender::has_room`], as the
    /// watermark gate's does.
    fn set_full(&self, q: &mut SendQueue, full: bool) {
        q.full = full;
        if full {
            self.full_events.fetch_add(1, Ordering::Relaxed);
        }
        self.full.store(full, Ordering::Release);
        fence(Ordering::SeqCst);
    }

    /// Queue `wire` if producers are admitted; hands it back otherwise.
    fn offer(&self, q: &mut SendQueue, wire: Vec<u8>) -> Result<(), PushError<Vec<u8>>> {
        if q.dead || q.closed {
            return Err(PushError::Closed(wire));
        }
        if q.full {
            return Err(PushError::Gated(wire));
        }
        q.frames.push_back(wire);
        if q.frames.len() >= self.capacity {
            self.set_full(q, true);
        }
        Ok(())
    }

    /// Tell everyone waiting for room — blocked threads and parked tasks —
    /// to look again. Called with the queue lock released.
    fn signal_space(&self) {
        self.not_full.notify_all();
        let listeners: Vec<SpaceListener> = self.space_listeners.lock().clone();
        for l in listeners {
            l();
        }
    }

    /// Mark the link dead and release everyone blocked or parked on it:
    /// the queue reads as having room, so their next send sees `Closed`.
    fn fail(&self) {
        let mut q = self.queue.lock();
        q.dead = true;
        q.frames.clear();
        self.set_full(&mut q, false);
        drop(q);
        self.signal_space();
        self.drained.notify_all();
    }
}

type AckCallback = Box<dyn Fn(u64, u64) + Send>;
type SpaceListener = Arc<dyn Fn() + Send + Sync>;

/// Outbound side of a TCP link: a bounded queue drained by one task on
/// the IO pool.
pub struct TcpSender {
    shared: Arc<SenderShared>,
    handle: IoTaskHandle,
    peer: SocketAddr,
}

impl TcpSender {
    /// Connect to a receiver. The write state machine runs as a task on
    /// `driver`'s IO pool, woken by its reactor. `queue_depth` bounds the
    /// number of in-flight frames between worker and IO tier (the shared
    /// bounded buffer of the two-tier model).
    pub fn connect_reactor(
        addr: impl ToSocketAddrs,
        queue_depth: usize,
        driver: &NetDriver,
    ) -> std::io::Result<Self> {
        Self::spawn(addr, queue_depth, driver, None)
    }

    /// Like [`connect_reactor`](Self::connect_reactor), and the task also
    /// parses the receiver's backchannel, invoking `on_ack` with
    /// `(link_id, cumulative_next_expected_seq)` for every
    /// [`ControlKind::Ack`] frame. Use this for supervised links that
    /// retain unacked frames for replay.
    pub fn connect_reactor_with_acks(
        addr: impl ToSocketAddrs,
        queue_depth: usize,
        driver: &NetDriver,
        on_ack: impl Fn(u64, u64) + Send + 'static,
    ) -> std::io::Result<Self> {
        Self::spawn(addr, queue_depth, driver, Some(Box::new(on_ack)))
    }

    fn spawn(
        addr: impl ToSocketAddrs,
        queue_depth: usize,
        driver: &NetDriver,
        on_ack: Option<AckCallback>,
    ) -> std::io::Result<Self> {
        assert!(queue_depth > 0, "sender queue depth must be positive");
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        stream.set_nonblocking(true)?;
        let shared = Arc::new(SenderShared {
            queue: Mutex::new(SendQueue {
                frames: VecDeque::with_capacity(queue_depth.min(1024)),
                full: false,
                closed: false,
                dead: false,
                done: false,
            }),
            full: AtomicBool::new(false),
            full_events: AtomicU64::new(0),
            space_listeners: Mutex::new(Vec::new()),
            not_full: Condvar::new(),
            drained: Condvar::new(),
            capacity: queue_depth,
            frames: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            acks: AtomicU64::new(0),
            spent: WireBuffers::new(),
        });
        let waker = NetWaker::new();
        let source = driver.reactor.register(stream.as_raw_fd(), waker.clone())?;
        let task = SenderTask {
            stream,
            source,
            shared: shared.clone(),
            partial: None,
            decoder: FrameDecoder::new(),
            read_buf: vec![0u8; 4096],
            on_ack,
            finished: false,
        };
        let handle = driver
            .spawner
            .spawn_parked(task)
            .ok_or_else(|| std::io::Error::other("IO pool is shut down"))?;
        waker.set(handle.clone());
        // First stint arms the read interest for the ack backchannel.
        handle.wake();
        Ok(TcpSender { shared, handle, peer })
    }

    /// An empty vector to encode the next frame into — one the task has
    /// finished with when there is one (its capacity comes along), a new
    /// one otherwise. [`send`](Self::send) it like any other; the task
    /// returns it here after the last byte is written.
    pub fn wire_buffer(&self) -> Vec<u8> {
        self.shared.spent.take()
    }

    /// Queue one encoded wire frame, waiting while the bounded queue is
    /// full (backpressure): "try, else wait for the space signal" for a
    /// caller that owns its thread — a worker, a reconnect loop, teardown.
    /// A task on the IO tier uses [`try_send`](Self::try_send). Fails once
    /// the connection is closed or dead.
    pub fn send(&self, mut wire: Vec<u8>) -> Result<(), TransportError> {
        let mut q = self.shared.queue.lock();
        loop {
            match self.shared.offer(&mut q, wire) {
                Ok(()) => break,
                Err(PushError::Closed(_)) => return Err(TransportError::Closed),
                Err(PushError::Gated(back)) => wire = back,
            }
            self.shared.not_full.wait(&mut q);
        }
        drop(q);
        self.handle.wake();
        Ok(())
    }

    /// Queue one encoded wire frame if the queue admits it now; never
    /// waits. [`PushError::Gated`] hands the frame back while the queue is
    /// full — keep it, park, and retry when the space listener fires.
    pub fn try_send(&self, wire: Vec<u8>) -> Result<(), PushError<Vec<u8>>> {
        self.shared.offer(&mut self.shared.queue.lock(), wire)?;
        self.handle.wake();
        Ok(())
    }

    /// Wait until the queue admits frames again (or the link is closed or
    /// dead) without sending — for a caller that owns its thread and keeps
    /// what [`try_send`](Self::try_send) handed back somewhere of its own.
    pub fn wait_room(&self) {
        let mut q = self.shared.queue.lock();
        while q.full && !q.dead && !q.closed {
            self.shared.not_full.wait(&mut q);
        }
    }

    /// True while the queue admits frames. Lock-free: one load while there
    /// is room; "full" — the answer a producer task parks on — is
    /// confirmed behind a fence paired with the one at the reopening edge,
    /// so either this read sees the edge or the space listener fired after
    /// it finds the task still running and flags it to run again.
    pub fn has_room(&self) -> bool {
        if !self.shared.full.load(Ordering::Acquire) {
            return true;
        }
        fence(Ordering::SeqCst);
        !self.shared.full.load(Ordering::Acquire)
    }

    /// Register a callback fired when a full queue has drained to half, or
    /// the link died — the wake for producer tasks parked on
    /// [`has_room`](Self::has_room). Must be cheap and must not send.
    pub fn add_space_listener(&self, f: impl Fn() + Send + Sync + 'static) {
        self.shared.space_listeners.lock().push(Arc::new(f));
    }

    /// Times the queue went full: backpressure episodes on this link,
    /// whether its producer blocked or parked.
    pub fn full_events(&self) -> u64 {
        self.shared.full_events.load(Ordering::Relaxed)
    }

    /// Frames written to the socket so far. By the time a frame counts
    /// here its buffer is back with [`wire_buffer`](Self::wire_buffer)
    /// (the task's `Release` increment pairs with this `Acquire` load).
    pub fn frames_sent(&self) -> u64 {
        self.shared.frames.load(Ordering::Acquire)
    }

    /// Bytes written to the socket so far.
    pub fn bytes_sent(&self) -> u64 {
        self.shared.bytes.load(Ordering::Relaxed)
    }

    /// Ack control frames received on the backchannel (always 0 unless
    /// built with [`connect_reactor_with_acks`](Self::connect_reactor_with_acks)).
    pub fn acks_received(&self) -> u64 {
        self.shared.acks.load(Ordering::Relaxed)
    }

    /// Remote address.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// Flush queued frames and close the connection.
    pub fn close(self) {
        self.close_inner();
    }

    /// Stop accepting sends and wait (bounded) for the task to drain.
    fn close_inner(&self) {
        {
            let mut q = self.shared.queue.lock();
            if q.closed {
                return;
            }
            q.closed = true;
        }
        self.shared.signal_space();
        self.handle.wake();
        let deadline = Instant::now() + CLOSE_DRAIN_TIMEOUT;
        let mut q = self.shared.queue.lock();
        while !q.done && !q.dead {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || self.shared.drained.wait_for(&mut q, left).timed_out() {
                break;
            }
        }
    }
}

impl Drop for TcpSender {
    fn drop(&mut self) {
        self.close_inner();
    }
}

/// Nonblocking write/ack state machine for one outbound connection.
struct SenderTask {
    stream: TcpStream,
    source: NetSource,
    shared: Arc<SenderShared>,
    /// Frame currently on the wire: `(bytes, offset written so far)`.
    partial: Option<(Vec<u8>, usize)>,
    /// Incremental decoder for the ack/heartbeat backchannel.
    decoder: FrameDecoder,
    read_buf: Vec<u8>,
    on_ack: Option<AckCallback>,
    finished: bool,
}

impl SenderTask {
    /// Terminal stint: mark the link dead (or cleanly done), release
    /// blocked producers and closers, drop the registration.
    fn finish(&mut self, clean: bool) -> IoStatus {
        if !self.finished {
            self.finished = true;
            if clean {
                let mut q = self.shared.queue.lock();
                q.done = true;
                drop(q);
                self.shared.drained.notify_all();
            } else {
                self.shared.fail();
            }
            self.source.deregister();
        }
        IoStatus::Complete
    }

    /// Drain the ack backchannel. Returns `false` on a fatal socket
    /// condition (EOF, error, corrupt stream).
    fn read_backchannel(&mut self) -> bool {
        loop {
            match self.stream.read(&mut self.read_buf) {
                Ok(0) => return false, // peer closed
                Ok(n) => {
                    let mut off = 0;
                    while off < n {
                        match self.decoder.feed(&self.read_buf[off..n], None) {
                            Ok((used, frame)) => {
                                off += used;
                                // Anything but an ack is tolerated chatter.
                                if let (Some(f), Some(cb)) = (frame, &self.on_ack) {
                                    if f.control == Some(ControlKind::Ack) {
                                        self.shared.acks.fetch_add(1, Ordering::Relaxed);
                                        cb(f.link_id, f.base_seq);
                                    }
                                }
                            }
                            Err(_) => return false,
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }
}

impl IoTask for SenderTask {
    fn run(&mut self, ctx: &IoContext) -> IoStatus {
        if ctx.shutting_down() {
            return self.finish(false);
        }
        self.source.take_readiness();
        if !self.read_backchannel() {
            return self.finish(false);
        }
        loop {
            if self.partial.is_none() {
                let mut q = self.shared.queue.lock();
                match q.frames.pop_front() {
                    Some(wire) => {
                        let reopened = q.full && q.frames.len() <= self.shared.capacity / 2;
                        if reopened {
                            self.shared.set_full(&mut q, false);
                        }
                        drop(q);
                        if reopened {
                            self.shared.signal_space();
                        }
                        self.partial = Some((wire, 0));
                    }
                    None => {
                        let closed = q.closed;
                        drop(q);
                        if closed {
                            let _ = self.stream.flush();
                            return self.finish(true);
                        }
                        // Idle: watch the backchannel only.
                        self.source.arm(true, false);
                        return IoStatus::Park;
                    }
                }
            }
            let (wire, off) = self.partial.as_mut().expect("partial frame set above");
            match self.stream.write(&wire[*off..]) {
                Ok(0) => return self.finish(false),
                Ok(n) => {
                    *off += n;
                    if *off == wire.len() {
                        let (wire, len) = self.partial.take().expect("partial frame set above");
                        // Buffer first, counters second: whoever observes
                        // `frames_sent` move can already take the buffer.
                        self.shared.spent.give(wire);
                        self.shared.bytes.fetch_add(len as u64, Ordering::Relaxed);
                        self.shared.frames.fetch_add(1, Ordering::Release);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // Kernel send buffer full (remote backpressure):
                    // re-arm for writability, keep the backchannel open.
                    self.source.arm(true, true);
                    return IoStatus::Park;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return self.finish(false),
            }
        }
    }

    fn on_shutdown(&mut self) {
        let _ = self.finish(false);
    }
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

/// One accepted connection, shared between its task (which reads and
/// writes the socket) and the receiver (which can sever it, and hands it
/// application acks to write).
struct Conn {
    stream: TcpStream,
    /// Encoded acks from [`TcpReceiver::send_ack`] the task has yet to
    /// write.
    app_acks: Mutex<Vec<u8>>,
    /// The connection task, to wake when `app_acks` gains bytes; set
    /// before the task's first stint.
    task: OnceLock<IoTaskHandle>,
}

/// Per-link ack state on a manual-ack receiver: the connection to write
/// the ack on (re-registered by each new connection carrying the link) and
/// the last watermark the *application* acknowledged — which is also what
/// heartbeats answer with, so a supervised sender's replay buffer is never
/// trimmed past what the application has actually secured.
struct AckLink {
    conn: Weak<Conn>,
    acked: u64,
}

/// State shared by the accept task, every connection task, and the
/// [`TcpReceiver`] itself.
struct RecvShared {
    queue: Arc<WatermarkQueue<Frame>>,
    shutdown: AtomicBool,
    decode_errors: AtomicU64,
    /// Hook run after each data frame lands on the inbound queue;
    /// installable after bind.
    on_deliver: RwLock<Option<Arc<dyn Fn() + Send + Sync>>>,
    /// Largest accept burst drained in a single readiness stint.
    accept_backlog_peak: AtomicU64,
    /// Live connections by socket fd. A task removes its own entry when
    /// it finishes; `shutdown` and the chaos harness sever sockets
    /// through it, which wakes their tasks via hangup readiness.
    conns: Mutex<HashMap<RawFd, Arc<Conn>>>,
    /// When true, data frames are *not* auto-acked after landing on the
    /// queue; the application drives acks via [`TcpReceiver::send_ack`].
    manual_ack: bool,
    handshake: Option<HandshakeGate>,
    handshake_rejects: AtomicU64,
    /// Manual mode's link → connection routes (empty otherwise).
    ack_links: Mutex<HashMap<u64, AckLink>>,
}

/// Inbound side of TCP links: accepts connections and funnels decoded
/// frames into one shared watermark queue. The acceptor and every
/// connection run as tasks on the driver's IO pool.
pub struct TcpReceiver {
    shared: Arc<RecvShared>,
    acceptor: IoTaskHandle,
    local: SocketAddr,
}

impl TcpReceiver {
    /// Bind a listener; frames from every accepted connection land on one
    /// watermark-bounded inbound queue. Frame bodies come from fresh
    /// allocations; see
    /// [`bind_reactor_pooled_with_shed`](Self::bind_reactor_pooled_with_shed)
    /// for the recycling variant the runtime uses.
    pub fn bind_reactor(
        addr: impl ToSocketAddrs,
        watermark: WatermarkConfig,
        driver: &NetDriver,
    ) -> std::io::Result<Self> {
        Self::bind(addr, watermark, ShedConfig::disabled(), None, false, None, driver)
    }

    /// Like [`bind_reactor`](Self::bind_reactor), but connection tasks
    /// draw frame-body buffers from `pool` — the job-wide [`BytesPool`] —
    /// so the steady-state receive path performs no per-frame allocation
    /// (the consumer returns each frame's batch to the pool when done, see
    /// [`crate::frame::FrameMessages::into_batch`]), and the inbound queue
    /// degrades per `shed` instead of gating forever once the gate has
    /// been closed longer than the configured stall.
    pub fn bind_reactor_pooled_with_shed(
        addr: impl ToSocketAddrs,
        watermark: WatermarkConfig,
        shed: ShedConfig,
        pool: Arc<BytesPool>,
        driver: &NetDriver,
    ) -> std::io::Result<Self> {
        Self::bind(addr, watermark, shed, Some(pool), false, None, driver)
    }

    /// Bind with *manual* acknowledgement: sequenced data frames
    /// ([`Frame::seq`]) are **not** acked when they land on the inbound
    /// queue — the application calls
    /// [`send_ack`](Self::send_ack) once it has actually secured them
    /// (processed, forwarded downstream and had *that* hop acknowledged,
    /// …). Heartbeats are answered with the manually-acked watermark for
    /// the same reason. `neptune-cluster` node ingress uses this so a
    /// killed node's unacked frames stay in the upstream replay buffer.
    ///
    /// `gate`, when set, runs the [`ControlKind::Hello`] handshake on
    /// every accepted connection. `pool`, when set, supplies
    /// the frame-body buffers.
    pub fn bind_manual_ack(
        addr: impl ToSocketAddrs,
        watermark: WatermarkConfig,
        gate: Option<HandshakeGate>,
        pool: Option<Arc<BytesPool>>,
        driver: &NetDriver,
    ) -> std::io::Result<Self> {
        Self::bind(addr, watermark, ShedConfig::disabled(), pool, true, gate, driver)
    }

    fn bind(
        addr: impl ToSocketAddrs,
        watermark: WatermarkConfig,
        shed: ShedConfig,
        pool: Option<Arc<BytesPool>>,
        manual_ack: bool,
        handshake: Option<HandshakeGate>,
        driver: &NetDriver,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(RecvShared {
            queue: Arc::new(WatermarkQueue::with_shed(watermark, shed)),
            shutdown: AtomicBool::new(false),
            decode_errors: AtomicU64::new(0),
            on_deliver: RwLock::new(None),
            accept_backlog_peak: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            manual_ack,
            handshake,
            handshake_rejects: AtomicU64::new(0),
            ack_links: Mutex::new(HashMap::new()),
        });
        let waker = NetWaker::new();
        let source = driver.reactor.register(listener.as_raw_fd(), waker.clone())?;
        let task =
            AcceptTask { listener, source, shared: shared.clone(), driver: driver.clone(), pool };
        let acceptor = driver
            .spawner
            .spawn_parked(task)
            .ok_or_else(|| std::io::Error::other("IO pool is shut down"))?;
        waker.set(acceptor.clone());
        acceptor.wake();
        Ok(TcpReceiver { shared, acceptor, local })
    }

    /// On a [`bind_manual_ack`](Self::bind_manual_ack) receiver: hand a
    /// cumulative ack (`next_expected` message seq) for `link_id` to the
    /// most recent connection that carried the link, and remember the
    /// watermark for heartbeat replies. Returns `false` when the link is
    /// unknown, its connection has finished, or the receiver is not in
    /// manual mode — the caller retries after the peer reconnects and
    /// resends.
    pub fn send_ack(&self, link_id: u64, next_expected: u64) -> bool {
        let mut links = self.shared.ack_links.lock();
        let Some(link) = links.get_mut(&link_id) else { return false };
        link.acked = link.acked.max(next_expected);
        let Some(conn) = link.conn.upgrade() else { return false };
        let wire = encode_control_frame(link_id, ControlKind::Ack, link.acked);
        drop(links);
        conn.app_acks.lock().extend_from_slice(&wire);
        conn.task.get().is_some_and(|task| task.wake())
    }

    /// Connections dropped by the [`HandshakeGate`] since bind.
    pub fn handshake_rejects(&self) -> u64 {
        self.shared.handshake_rejects.load(Ordering::Relaxed)
    }

    /// The shared inbound queue.
    pub fn queue(&self) -> Arc<WatermarkQueue<Frame>> {
        self.shared.queue.clone()
    }

    /// Bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Frames that failed CRC or structural validation.
    pub fn decode_errors(&self) -> u64 {
        self.shared.decode_errors.load(Ordering::Relaxed)
    }

    /// Currently-open accepted connections.
    pub fn connections(&self) -> usize {
        self.shared.conns.lock().len()
    }

    /// Largest accept burst drained in a single readiness stint.
    pub fn accept_backlog_peak(&self) -> u64 {
        self.shared.accept_backlog_peak.load(Ordering::Relaxed)
    }

    /// Register a callback fired after each delivered frame (data-driven
    /// scheduling hook).
    pub fn on_deliver<F: Fn() + Send + Sync + 'static>(&self, f: F) {
        *self.shared.on_deliver.write() = Some(Arc::new(f));
    }

    /// Fault injection: sever every accepted connection (the listener
    /// stays up so peers can reconnect). Returns how many were cut. Used
    /// by the chaos harness to reproduce seeded link-cut scenarios.
    pub fn chaos_drop_connections(&self) -> usize {
        self.sever_all()
    }

    /// Shut every live socket down; their tasks observe the hangup
    /// through the reactor and finish.
    fn sever_all(&self) -> usize {
        let severed: Vec<Arc<Conn>> = self.shared.conns.lock().drain().map(|(_, c)| c).collect();
        for conn in &severed {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        severed.len()
    }

    /// Stop accepting, close the queue, and release IO resources.
    pub fn shutdown(self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.queue.close();
        // The acceptor checks the flag at its next stint; connection
        // tasks are woken by the socket shutdowns (hangup readiness) or,
        // if gated, by their gate-poll timer.
        self.acceptor.wake();
        self.sever_all();
    }
}

impl Drop for TcpReceiver {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Nonblocking accept loop: one per listener, spawning a connection task
/// per accepted socket.
struct AcceptTask {
    listener: TcpListener,
    source: NetSource,
    shared: Arc<RecvShared>,
    driver: NetDriver,
    pool: Option<Arc<BytesPool>>,
}

impl AcceptTask {
    /// Register + spawn the connection task for a fresh socket. An error
    /// means the runtime is shutting down (reactor or pool gone).
    fn admit(&self, stream: TcpStream) -> Result<(), ()> {
        if stream.set_nonblocking(true).is_err() {
            return Ok(()); // drop this socket, keep accepting
        }
        let _ = stream.set_nodelay(true);
        let fd = stream.as_raw_fd();
        let waker = NetWaker::new();
        let Ok(source) = self.driver.reactor.register(fd, waker.clone()) else {
            return Err(());
        };
        let conn =
            Arc::new(Conn { stream, app_acks: Mutex::new(Vec::new()), task: OnceLock::new() });
        self.shared.conns.lock().insert(fd, conn.clone());
        let task = ConnTask {
            conn: conn.clone(),
            source,
            shared: self.shared.clone(),
            pool: self.pool.clone(),
            decoder: FrameDecoder::new(),
            read_buf: vec![0u8; 16 * 1024],
            pending: VecDeque::new(),
            next_expected: None,
            ack_routes: Vec::new(),
            ack_out: Vec::new(),
            ack_off: 0,
            finished: false,
        };
        match self.driver.spawner.spawn_parked(task) {
            Some(handle) => {
                waker.set(handle.clone());
                let _ = conn.task.set(handle.clone());
                handle.wake();
                Ok(())
            }
            None => {
                // Pool shut down; the dropped task deregistered the source,
                // and forgetting the connection closes the socket.
                self.shared.conns.lock().remove(&fd);
                Err(())
            }
        }
    }
}

impl IoTask for AcceptTask {
    fn run(&mut self, ctx: &IoContext) -> IoStatus {
        if ctx.shutting_down() || self.shared.shutdown.load(Ordering::Acquire) {
            return IoStatus::Complete;
        }
        self.source.take_readiness();
        let mut burst = 0u64;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    burst += 1;
                    if self.admit(stream).is_err() {
                        return IoStatus::Complete;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.shared.accept_backlog_peak.fetch_max(burst, Ordering::Relaxed);
                    self.source.arm(true, false);
                    return IoStatus::Park;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => continue,
                Err(_) => {
                    // Transient accept failure (e.g. fd exhaustion): back
                    // off briefly instead of spinning hot.
                    self.shared.accept_backlog_peak.fetch_max(burst, Ordering::Relaxed);
                    return IoStatus::ParkUntil(Instant::now() + Duration::from_millis(5));
                }
            }
        }
    }
}

/// What draining the decoded-frame stash achieved.
enum Drain {
    /// Everything pending was delivered.
    Delivered,
    /// The inbound queue is gated: stop reading, poll the gate.
    Gated,
    /// The inbound queue is closed: the job is shutting down.
    Closed,
}

/// Why a connection task gives its connection up mid-stream.
enum Sever {
    /// A frame failed CRC or structural validation — no resync mid-stream.
    Corrupt,
    /// The handshake gate turned the peer down: another protocol version,
    /// or a hello missing a required capability.
    Rejected,
}

/// Nonblocking read/decode/deliver state machine for one accepted
/// connection, including its ack backchannel writes.
struct ConnTask {
    conn: Arc<Conn>,
    source: NetSource,
    shared: Arc<RecvShared>,
    pool: Option<Arc<BytesPool>>,
    decoder: FrameDecoder,
    read_buf: Vec<u8>,
    /// Frames decoded but not yet on the inbound queue (gate was closed),
    /// each with its pending cumulative ack `(link_id, next_expected)`.
    pending: VecDeque<(Frame, Option<(u64, u64)>)>,
    /// Cumulative next-expected message seq for sequenced traffic.
    next_expected: Option<u64>,
    /// Manual mode: links this connection has routed acks to itself for.
    ack_routes: Vec<u64>,
    /// Encoded ack/heartbeat/hello replies not yet written:
    /// `ack_out[ack_off..]`.
    ack_out: Vec<u8>,
    ack_off: usize,
    finished: bool,
}

impl ConnTask {
    /// Terminal stint. The socket itself is severed, not just this handle
    /// on it: a peer dropped for a corrupt frame or a rejected hello must
    /// see the connection end, whoever else still refers to it.
    fn finish(&mut self) -> IoStatus {
        if !self.finished {
            self.finished = true;
            self.source.deregister();
            let _ = self.conn.stream.shutdown(Shutdown::Both);
            self.shared.conns.lock().remove(&self.conn.stream.as_raw_fd());
        }
        IoStatus::Complete
    }

    fn queue_ack(&mut self, link_id: u64, next: u64) {
        self.ack_out.extend_from_slice(&encode_control_frame(link_id, ControlKind::Ack, next));
    }

    /// Write pending ack bytes until done or `WouldBlock`. Ack replies
    /// are best-effort: a failed write means the peer is gone and the
    /// next read surfaces it.
    fn flush_acks(&mut self) {
        if self.shared.manual_ack {
            self.ack_out.append(&mut self.conn.app_acks.lock());
        }
        while self.ack_off < self.ack_out.len() {
            match (&self.conn.stream).write(&self.ack_out[self.ack_off..]) {
                Ok(0) => break,
                Ok(n) => self.ack_off += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => break,
            }
        }
        self.ack_out.clear();
        self.ack_off = 0;
    }

    fn acks_pending(&self) -> bool {
        self.ack_off < self.ack_out.len()
    }

    /// Push stashed frames onto the inbound queue without blocking. While
    /// the gate is closed (and the queue does not shed) nothing is
    /// pushed and nothing is read — the backpressure lever.
    fn drain_pending(&mut self) -> Drain {
        while let Some((frame, ack)) = self.pending.pop_front() {
            // A lossless queue that is gated cannot accept the frame;
            // don't burn a push (and a gate event) per poll tick. A
            // shedding queue must see the push so its stall clock and
            // policy apply.
            if self.shared.queue.is_gated() && !self.shared.queue.sheds() {
                self.pending.push_front((frame, ack));
                return Drain::Gated;
            }
            match self.shared.queue.push_timeout(frame, Duration::ZERO) {
                Ok(_) => {
                    // Ack only after the frame landed (or was shed after
                    // the policy's stall) — a replayed duplicate just
                    // re-acks the same watermark. In manual mode there is
                    // no ack here: the application acks, once secured.
                    if let Some((link_id, next)) = ack {
                        self.queue_ack(link_id, next);
                    }
                    let hook = self.shared.on_deliver.read().clone();
                    if let Some(hook) = hook {
                        hook();
                    }
                }
                Err(PushError::Gated(frame)) => {
                    self.pending.push_front((frame, ack));
                    return Drain::Gated;
                }
                Err(PushError::Closed(_)) => return Drain::Closed,
            }
        }
        Drain::Delivered
    }

    /// Run `n` freshly-read bytes of the staging buffer through the
    /// incremental decoder, stashing completed frames.
    fn decode(&mut self, n: usize) -> Result<(), Sever> {
        let mut off = 0;
        while off < n {
            let fed = self.decoder.feed(&self.read_buf[off..n], self.pool.as_deref());
            let (used, frame) = fed.map_err(|e| self.refuse(e))?;
            off += used;
            if let Some(frame) = frame {
                self.stash(frame)?;
            }
        }
        Ok(())
    }

    /// Account for `n` bytes read straight into the decoder's body buffer.
    fn commit(&mut self, n: usize) -> Result<(), Sever> {
        match self.decoder.commit(n, self.pool.as_deref()).map_err(|e| self.refuse(e))? {
            Some(frame) => self.stash(frame),
            None => Ok(()),
        }
    }

    /// What an undecodable frame means for the connection. A gated
    /// receiver turns a peer of another protocol version away as a
    /// handshake outcome; everything else is a corrupt stream.
    fn refuse(&mut self, error: FrameError) -> Sever {
        if matches!(error, FrameError::UnsupportedVersion(_)) && self.shared.handshake.is_some() {
            return self.reject(0, error.to_string());
        }
        Sever::Corrupt
    }

    /// Queue a decoded frame for delivery (or answer it, if it is control
    /// chatter), working out the cumulative ack that follows it.
    fn stash(&mut self, mut frame: Frame) -> Result<(), Sever> {
        // Control frames never surface on the data queue — except
        // barriers, which ride it in arrival order (checkpoint alignment
        // depends on a barrier staying behind data flushed before it).
        match frame.control {
            None | Some(ControlKind::Barrier) => {}
            Some(ControlKind::Heartbeat) => {
                // Answered with the cumulative ack, so an idle link proves
                // liveness end to end.
                let acked = if self.shared.manual_ack {
                    self.shared.ack_links.lock().get(&frame.link_id).map_or(0, |l| l.acked)
                } else {
                    self.next_expected.unwrap_or(0)
                };
                self.queue_ack(frame.link_id, acked);
                return Ok(());
            }
            Some(ControlKind::Hello) => return self.admit_hello(&frame),
            Some(ControlKind::Ack) => return Ok(()), // not expected inbound; skip
        }
        let mut ack_after = None;
        if frame.seq.is_some() {
            if self.shared.manual_ack {
                // Make the link addressable for application acks before
                // the frame surfaces, so a consumer can never see a frame
                // whose link it cannot ack.
                self.route_acks_here(frame.link_id);
            } else {
                let end = frame.base_seq + frame.len() as u64;
                let next = self.next_expected.map_or(end, |n| n.max(end));
                self.next_expected = Some(next);
                ack_after = Some((frame.link_id, next));
            }
        }
        frame.received_at = Some(Instant::now());
        self.pending.push_back((frame, ack_after));
        Ok(())
    }

    /// Point `link_id`'s application acks at this connection; the
    /// watermark an earlier connection reached carries over.
    fn route_acks_here(&mut self, link_id: u64) {
        if self.ack_routes.contains(&link_id) {
            return;
        }
        self.ack_routes.push(link_id);
        let conn = Arc::downgrade(&self.conn);
        self.shared
            .ack_links
            .lock()
            .entry(link_id)
            .and_modify(|link| link.conn = conn.clone())
            .or_insert(AckLink { conn, acked: 0 });
    }

    /// The hello handshake: answer with our own announcement so the peer
    /// can diagnose a mismatch, then let the gate decide.
    fn admit_hello(&mut self, hello: &Frame) -> Result<(), Sever> {
        let Some(gate) = self.shared.handshake else { return Ok(()) };
        let verdict = u8::try_from(hello.base_seq)
            .map_err(|_| "malformed hello value".to_string())
            .and_then(|caps| gate.check(caps));
        match verdict {
            Ok(()) => {
                self.ack_out.extend_from_slice(&encode_hello_frame(hello.link_id, 0));
                Ok(())
            }
            Err(reason) => Err(self.reject(hello.link_id, reason)),
        }
    }

    /// Turn the peer away: queue our hello for the way out (its header
    /// tells the peer which version is spoken here), count and log.
    fn reject(&mut self, link_id: u64, reason: String) -> Sever {
        self.ack_out.extend_from_slice(&encode_hello_frame(link_id, 0));
        self.shared.handshake_rejects.fetch_add(1, Ordering::Relaxed);
        let peer = self.conn.stream.peer_addr().map_or_else(|_| "?".into(), |a| a.to_string());
        eprintln!("neptune-net: rejecting connection from {peer}: {reason}");
        Sever::Rejected
    }

    /// Give the connection up: count a corrupt stream, send a rejected
    /// peer our hello on the way out.
    fn sever(&mut self, why: Sever) -> IoStatus {
        match why {
            Sever::Corrupt => {
                self.shared.decode_errors.fetch_add(1, Ordering::Relaxed);
            }
            Sever::Rejected => self.flush_acks(),
        }
        self.finish()
    }
}

impl IoTask for ConnTask {
    fn run(&mut self, ctx: &IoContext) -> IoStatus {
        if ctx.shutting_down() || self.shared.shutdown.load(Ordering::Acquire) {
            return self.finish();
        }
        self.source.take_readiness();
        self.flush_acks();
        match self.drain_pending() {
            Drain::Gated => return IoStatus::ParkUntil(Instant::now() + GATE_POLL),
            Drain::Closed => return self.finish(),
            Drain::Delivered => {}
        }
        let mut budget = READ_STINT_BYTES;
        loop {
            // A body with more still to come than the staging buffer holds
            // is read in place — no second copy, and as much per syscall as
            // the stint allows. Headers, small frames and the tail of a big
            // one go through the staging buffer, many frames to a read.
            let in_place = self.decoder.body_remaining() >= self.read_buf.len();
            let mut stream = &self.conn.stream;
            let read = if in_place {
                let window = self.decoder.body_window();
                let n = window.len().min(budget);
                stream.read(&mut window[..n])
            } else {
                stream.read(&mut self.read_buf)
            };
            match read {
                Ok(0) => return self.finish(), // peer closed
                Ok(n) => {
                    let decoded = if in_place { self.commit(n) } else { self.decode(n) };
                    if let Err(why) = decoded {
                        return self.sever(why);
                    }
                    match self.drain_pending() {
                        Drain::Gated => {
                            // Deliberately NOT re-arming the read
                            // interest: the kernel buffer fills and the
                            // TCP window closes (§III-B4).
                            return IoStatus::ParkUntil(Instant::now() + GATE_POLL);
                        }
                        Drain::Closed => return self.finish(),
                        Drain::Delivered => {}
                    }
                    self.flush_acks();
                    budget = budget.saturating_sub(n);
                    if budget == 0 {
                        // Fairness: yield the IO thread, come right back.
                        return IoStatus::Ready;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.source.arm(true, self.acks_pending());
                    return IoStatus::Park;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return self.finish(),
            }
        }
    }

    fn on_shutdown(&mut self) {
        let _ = self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{
        encode_frame, encode_frame_into, read_frame, FrameHeader, CAPS_ALL, PROTOCOL_VERSION,
    };
    use crate::test_support::{wait_for, with_protocol_version, NetRig};
    use neptune_compress::SelectiveCompressor;

    const TIMEOUT: Duration = Duration::from_secs(5);

    fn roomy() -> WatermarkConfig {
        WatermarkConfig::new(1 << 20, 1 << 10)
    }

    /// One sequenced frame of `count` one-byte messages starting at
    /// message seq `base`.
    fn seq_frame(link: u64, base: u64, count: u32, frame_seq: u64) -> Vec<u8> {
        let mut batch = Vec::new();
        for _ in 0..count {
            batch.extend_from_slice(&1u32.to_le_bytes());
            batch.push(b'm');
        }
        let header = FrameHeader {
            link_id: link,
            base_seq: base,
            count,
            seq: Some(frame_seq),
            ..FrameHeader::default()
        };
        let mut wire = Vec::new();
        encode_frame_into(&mut wire, &header, &batch, &SelectiveCompressor::disabled());
        wire
    }

    /// A sender whose acks land in a shared list.
    #[allow(clippy::type_complexity)]
    fn acked_sender(
        rx: &TcpReceiver,
        depth: usize,
        driver: &NetDriver,
    ) -> (TcpSender, Arc<Mutex<Vec<(u64, u64)>>>) {
        let acks = Arc::new(Mutex::new(Vec::new()));
        let sink = acks.clone();
        let tx = TcpSender::connect_reactor_with_acks(
            rx.local_addr(),
            depth,
            driver,
            move |link, cum| {
                sink.lock().push((link, cum));
            },
        )
        .unwrap();
        (tx, acks)
    }

    #[test]
    fn reactor_frames_cross_a_real_socket() {
        let rig = NetRig::new("trx1");
        let driver = rig.driver();
        let rx = TcpReceiver::bind_reactor("127.0.0.1:0", roomy(), &driver).unwrap();
        let tx = TcpSender::connect_reactor(rx.local_addr(), 16, &driver).unwrap();
        let raw = SelectiveCompressor::disabled();
        let msgs = vec![b"hello".to_vec(), b"reactor".to_vec()];
        tx.send(encode_frame(3, 10, &msgs, &raw)).unwrap();
        let frame = rx.queue().pop_timeout(TIMEOUT).expect("frame");
        assert_eq!(frame.link_id, 3);
        assert_eq!(frame.base_seq, 10);
        assert_eq!(frame.messages, msgs);
        assert!(frame.received_at.is_some(), "arrival must be stamped");
        assert_eq!(rx.decode_errors(), 0);
        tx.close();
        rx.shutdown();
    }

    #[test]
    fn reactor_many_frames_in_order_and_counters_settle() {
        let rig = NetRig::new("trx2");
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
            let f = q.pop_timeout(TIMEOUT).expect("frame");
            assert_eq!(f.base_seq, i, "frames must arrive in order");
        }
        let counters = tx.shared.clone();
        tx.close(); // close() waits for the task to drain
        assert_eq!(counters.frames.load(Ordering::Relaxed), 200);
        assert!(counters.bytes.load(Ordering::Relaxed) > 200 * 8);
        assert!(rig.reactor().stats().events_dispatched > 0, "readiness events must flow");
        rx.shutdown();
    }

    #[test]
    fn compressed_frames_roundtrip_over_tcp() {
        let rig = NetRig::new("trx3");
        let driver = rig.driver();
        let rx = TcpReceiver::bind_reactor("127.0.0.1:0", roomy(), &driver).unwrap();
        let tx = TcpSender::connect_reactor(rx.local_addr(), 4, &driver).unwrap();
        let policy = SelectiveCompressor::new(4.0);
        let msgs: Vec<Vec<u8>> = (0..50).map(|_| vec![9u8; 200]).collect();
        tx.send(encode_frame(2, 0, &msgs, &policy)).unwrap();
        let f = rx.queue().pop_timeout(TIMEOUT).expect("frame");
        assert_eq!(f.messages, msgs);
        tx.close();
        rx.shutdown();
    }

    #[test]
    fn reactor_gated_receiver_backpressures_sender() {
        // Tiny watermarks + tiny sender queue: with the consumer stalled,
        // the sender must block rather than buffer unboundedly — via the
        // queue gate and a closed TCP window, with *zero* threads parked
        // on sockets. The frames are large (256 KB) so the total (32 MB)
        // dwarfs what the kernel socket buffers can absorb once the
        // connection task stops draining.
        const N_FRAMES: u64 = 128;
        let rig = NetRig::new("trx4");
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
            if q.pop_timeout(TIMEOUT).is_some() {
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
    fn a_full_sender_queue_refuses_at_once_and_signals_at_half() {
        // A stalled receiver and frames big enough that the kernel's
        // loopback buffers (~4 MB) fill after a few: the writer parks on
        // the socket and the 8-frame queue fills behind it.
        let rig = NetRig::new("trx-full");
        let driver = rig.driver();
        let rx = TcpReceiver::bind_reactor("127.0.0.1:0", WatermarkConfig::new(4096, 512), &driver)
            .unwrap();
        let tx = Arc::new(TcpSender::connect_reactor(rx.local_addr(), 8, &driver).unwrap());
        let signals = Arc::new(AtomicU64::new(0));
        let s = signals.clone();
        tx.add_space_listener(move || {
            s.fetch_add(1, Ordering::Relaxed);
        });
        let wire = encode_frame(1, 0, &[vec![0u8; 512 * 1024]], &SelectiveCompressor::disabled());
        assert!(tx.has_room());
        let mut sent = 0u64;
        let refused = loop {
            assert!(sent < 200, "the queue never filled");
            match tx.try_send(wire.clone()) {
                Ok(()) => sent += 1,
                Err(PushError::Gated(back)) => break back,
                Err(PushError::Closed(_)) => panic!("link died"),
            }
            // Full is sticky, so a racing writer cannot unfill it under us.
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(refused, wire, "a refused frame comes back whole");
        assert!(!tx.has_room());
        assert_eq!(tx.full_events(), 1);
        assert_eq!(signals.load(Ordering::Relaxed), 0);

        // Drain the receiver. Room is signalled once, when the queue is
        // down to half — not once per frame the writer takes — and a
        // thread that waited for it finds room.
        let waiter = {
            let tx = tx.clone();
            std::thread::spawn(move || tx.wait_room())
        };
        let q = rx.queue();
        for _ in 0..sent {
            q.pop_timeout(TIMEOUT).expect("every accepted frame arrives");
        }
        waiter.join().unwrap();
        assert!(tx.has_room());
        assert_eq!(signals.load(Ordering::Relaxed), 1, "one edge, one signal");
        assert_eq!(tx.full_events(), 1);
        tx.try_send(refused).expect("room again");
        assert!(q.pop_timeout(TIMEOUT).is_some());
        rx.shutdown();
    }

    #[test]
    fn has_room_is_answered_without_the_queue_lock() {
        let rig = NetRig::new("trx-lockfree");
        let driver = rig.driver();
        let rx = TcpReceiver::bind_reactor("127.0.0.1:0", roomy(), &driver).unwrap();
        let tx = Arc::new(TcpSender::connect_reactor(rx.local_addr(), 4, &driver).unwrap());
        // Hold the lock every send takes; a producer asking per packet
        // must still get its answer.
        let guard = tx.shared.queue.lock();
        let (answer_tx, answer_rx) = std::sync::mpsc::channel();
        let asker = {
            let tx = tx.clone();
            std::thread::spawn(move || {
                let _ = answer_tx.send(tx.has_room());
            })
        };
        let answer = answer_rx.recv_timeout(TIMEOUT).expect("has_room() must not take the lock");
        assert!(answer);
        drop(guard);
        asker.join().unwrap();
        rx.shutdown();
    }

    #[test]
    fn a_dead_link_wakes_parked_producers_to_be_told_closed() {
        let rig = NetRig::new("trx-dead");
        let driver = rig.driver();
        let rx = TcpReceiver::bind_reactor("127.0.0.1:0", roomy(), &driver).unwrap();
        let tx = TcpSender::connect_reactor(rx.local_addr(), 4, &driver).unwrap();
        let signals = Arc::new(AtomicU64::new(0));
        let s = signals.clone();
        tx.add_space_listener(move || {
            s.fetch_add(1, Ordering::Relaxed);
        });
        assert!(wait_for(TIMEOUT, || rx.connections() == 1));
        rx.chaos_drop_connections();
        // The sender task sees the hangup: whoever parked on this link is
        // signalled, finds it admitting, and is told `Closed` by the send.
        assert!(wait_for(TIMEOUT, || signals.load(Ordering::Relaxed) > 0));
        assert!(tx.has_room());
        assert!(matches!(tx.try_send(vec![1, 2, 3]), Err(PushError::Closed(_))));
        assert_eq!(tx.send(vec![1, 2, 3]), Err(TransportError::Closed));
        tx.wait_room(); // returns: nothing to wait for on a dead link
        rx.shutdown();
    }

    #[test]
    fn reactor_sender_close_flushes_pending() {
        let rig = NetRig::new("trx5");
        let driver = rig.driver();
        let rx = TcpReceiver::bind_reactor("127.0.0.1:0", roomy(), &driver).unwrap();
        let tx = TcpSender::connect_reactor(rx.local_addr(), 64, &driver).unwrap();
        let raw = SelectiveCompressor::disabled();
        for i in 0..50u64 {
            tx.send(encode_frame(1, i, &[vec![1u8; 10]], &raw)).unwrap();
        }
        tx.close(); // must not return until the task drained the queue
        let q = rx.queue();
        for _ in 0..50 {
            assert!(q.pop_timeout(TIMEOUT).is_some());
        }
        rx.shutdown();
    }

    #[test]
    fn multiple_senders_one_receiver() {
        let rig = NetRig::new("trx6");
        let driver = rig.driver();
        let wm = WatermarkConfig::new(1 << 22, 1 << 12);
        let rx = TcpReceiver::bind_reactor("127.0.0.1:0", wm, &driver).unwrap();
        let senders: Vec<_> = (0..4u64)
            .map(|link| {
                let (addr, driver) = (rx.local_addr(), driver.clone());
                std::thread::spawn(move || {
                    let tx = TcpSender::connect_reactor(addr, 16, &driver).unwrap();
                    let raw = SelectiveCompressor::disabled();
                    for i in 0..100u64 {
                        tx.send(encode_frame(link, i, &[link.to_le_bytes().to_vec()], &raw))
                            .unwrap();
                    }
                    tx.close();
                })
            })
            .collect();
        let q = rx.queue();
        let mut per_link = [0u64; 4];
        for _ in 0..400 {
            let f = q.pop_timeout(TIMEOUT).expect("frame");
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
    fn reactor_seq_frames_elicit_cumulative_acks() {
        let rig = NetRig::new("trx7");
        let driver = rig.driver();
        let rx = TcpReceiver::bind_reactor("127.0.0.1:0", roomy(), &driver).unwrap();
        let (tx, acks) = acked_sender(&rx, 16, &driver);
        // Two messages then one, with the seq extension.
        tx.send(seq_frame(9, 0, 2, 0)).unwrap();
        tx.send(seq_frame(9, 2, 1, 1)).unwrap();
        let q = rx.queue();
        assert_eq!(q.pop_timeout(TIMEOUT).unwrap().seq, Some(0));
        assert_eq!(q.pop_timeout(TIMEOUT).unwrap().seq, Some(1));
        assert!(wait_for(TIMEOUT, || tx.acks_received() >= 2));
        assert_eq!(*acks.lock(), vec![(9, 2), (9, 3)], "cumulative next-expected seqs");
        tx.close();
        rx.shutdown();
    }

    #[test]
    fn reactor_heartbeats_are_acked_and_bypass_the_data_queue() {
        let rig = NetRig::new("trx8");
        let driver = rig.driver();
        let rx = TcpReceiver::bind_reactor("127.0.0.1:0", roomy(), &driver).unwrap();
        let (tx, acks) = acked_sender(&rx, 4, &driver);
        tx.send(encode_control_frame(4, ControlKind::Heartbeat, 0)).unwrap();
        assert!(wait_for(TIMEOUT, || tx.acks_received() >= 1));
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
        let rig = NetRig::new("trx9");
        let driver = rig.driver();
        let rx = TcpReceiver::bind_manual_ack("127.0.0.1:0", roomy(), None, None, &driver).unwrap();
        let (tx, acks) = acked_sender(&rx, 16, &driver);
        tx.send(seq_frame(9, 0, 1, 0)).unwrap();
        tx.send(seq_frame(9, 1, 1, 1)).unwrap();
        let q = rx.queue();
        assert_eq!(q.pop_timeout(TIMEOUT).unwrap().seq, Some(0));
        assert_eq!(q.pop_timeout(TIMEOUT).unwrap().seq, Some(1));
        // No automatic ack: a heartbeat must answer with watermark 0.
        tx.send(encode_control_frame(9, ControlKind::Heartbeat, 1)).unwrap();
        assert!(wait_for(TIMEOUT, || tx.acks_received() >= 1));
        assert_eq!(*acks.lock(), vec![(9, 0)], "unacked link reports watermark 0");
        // Application secures the frames and acks; the watermark advances,
        // and heartbeats answer with it from then on.
        assert!(rx.send_ack(9, 2), "link must be routed for manual acks");
        assert!(wait_for(TIMEOUT, || acks.lock().contains(&(9, 2))));
        tx.send(encode_control_frame(9, ControlKind::Heartbeat, 2)).unwrap();
        assert!(wait_for(TIMEOUT, || tx.acks_received() >= 3));
        assert_eq!(acks.lock().last(), Some(&(9, 2)));
        assert!(!rx.send_ack(77, 1), "unknown link cannot be acked");
        // A finished connection cannot be acked either, but a reconnecting
        // one inherits the link's watermark.
        tx.close();
        assert!(wait_for(TIMEOUT, || !rx.send_ack(9, 2)), "finished link must refuse acks");
        let (tx, acks) = acked_sender(&rx, 16, &driver);
        tx.send(seq_frame(9, 2, 1, 2)).unwrap();
        assert_eq!(q.pop_timeout(TIMEOUT).unwrap().seq, Some(2));
        tx.send(encode_control_frame(9, ControlKind::Heartbeat, 3)).unwrap();
        assert!(wait_for(TIMEOUT, || tx.acks_received() >= 1));
        assert_eq!(*acks.lock(), vec![(9, 2)], "the watermark survives a reconnect");
        tx.close();
        rx.shutdown();
    }

    #[test]
    fn auto_ack_receiver_has_no_manual_acks() {
        let rig = NetRig::new("trx10");
        let driver = rig.driver();
        let rx = TcpReceiver::bind_reactor("127.0.0.1:0", roomy(), &driver).unwrap();
        let (tx, _acks) = acked_sender(&rx, 4, &driver);
        tx.send(seq_frame(9, 0, 1, 0)).unwrap();
        assert!(rx.queue().pop_timeout(TIMEOUT).is_some());
        assert!(!rx.send_ack(9, 1), "not in manual mode");
        tx.close();
        rx.shutdown();
    }

    #[test]
    fn handshake_gate_rejects_version_mismatch_and_admits_match() {
        let rig = NetRig::new("trx11");
        let driver = rig.driver();
        let gate = Some(HandshakeGate::default());
        let rx = TcpReceiver::bind_manual_ack("127.0.0.1:0", roomy(), gate, None, &driver).unwrap();
        // Mismatched peer: speaks a future protocol version.
        let mut bad = TcpStream::connect(rx.local_addr()).unwrap();
        bad.set_read_timeout(Some(TIMEOUT)).unwrap();
        let hello = with_protocol_version(encode_hello_frame(1, 0), PROTOCOL_VERSION + 1);
        bad.write_all(&hello).unwrap();
        // The receiver answers with its own hello — which this build's
        // decoder takes, so its header names PROTOCOL_VERSION — then
        // drops us.
        let answer = read_frame(&mut bad).unwrap();
        assert_eq!(answer.control, Some(ControlKind::Hello));
        assert!(wait_for(TIMEOUT, || rx.handshake_rejects() == 1));
        assert_eq!(rx.decode_errors(), 0, "turned away, not mistaken for corruption");
        let mut rest = Vec::new();
        assert_eq!(bad.read_to_end(&mut rest).expect("EOF, not a timeout"), 0, "closed");
        assert!(wait_for(TIMEOUT, || rx.connections() == 0), "rejected peer must be forgotten");
        // Matching peer: admitted (and answered), data flows.
        let tx = TcpSender::connect_reactor(rx.local_addr(), 8, &driver).unwrap();
        tx.send(encode_hello_frame(1, 0)).unwrap();
        let raw = SelectiveCompressor::disabled();
        tx.send(encode_frame(1, 0, &[b"ok".to_vec()], &raw)).unwrap();
        let f = rx.queue().pop_timeout(TIMEOUT).expect("admitted peer delivers");
        assert_eq!(&f.messages[0], b"ok");
        assert_eq!(rx.handshake_rejects(), 1);
        tx.close();
        rx.shutdown();
    }

    #[test]
    fn ungated_receiver_skips_hello_frames() {
        // A hello sent at an un-gated receiver (the runtime's own links)
        // is skipped like any control chatter.
        let rig = NetRig::new("trx12");
        let driver = rig.driver();
        let rx = TcpReceiver::bind_reactor("127.0.0.1:0", roomy(), &driver).unwrap();
        let tx = TcpSender::connect_reactor(rx.local_addr(), 8, &driver).unwrap();
        tx.send(encode_hello_frame(1, CAPS_ALL)).unwrap();
        let raw = SelectiveCompressor::disabled();
        tx.send(encode_frame(1, 5, &[b"after".to_vec()], &raw)).unwrap();
        let f = rx.queue().pop_timeout(TIMEOUT).expect("data after hello");
        assert_eq!(f.base_seq, 5);
        assert!(
            rx.queue().pop_timeout(Duration::from_millis(50)).is_none(),
            "hello must not surface as data"
        );
        assert_eq!(rx.handshake_rejects(), 0);
        tx.close();
        rx.shutdown();
    }

    #[test]
    fn ungated_receiver_severs_a_peer_of_another_version_on_its_first_frame() {
        // No hello, no gate: the data frame's own header carries the
        // version, and a foreign one is a decode error like any other.
        let rig = NetRig::new("trx12b");
        let driver = rig.driver();
        let rx = TcpReceiver::bind_reactor("127.0.0.1:0", roomy(), &driver).unwrap();
        let raw = SelectiveCompressor::disabled();
        let data = encode_frame(1, 0, &[b"old".to_vec()], &raw);
        let mut stranger = TcpStream::connect(rx.local_addr()).unwrap();
        stranger.set_read_timeout(Some(TIMEOUT)).unwrap();
        stranger.write_all(&with_protocol_version(data, PROTOCOL_VERSION - 1)).unwrap();
        assert!(wait_for(TIMEOUT, || rx.decode_errors() == 1));
        let mut rest = Vec::new();
        assert_eq!(stranger.read_to_end(&mut rest).expect("EOF, not a timeout"), 0, "severed");
        assert_eq!(rx.handshake_rejects(), 0, "no gate, no handshake");
        assert!(rx.queue().pop().is_none(), "nothing of it is delivered");
        rx.shutdown();
    }

    #[test]
    fn shutdown_severs_idle_connections_promptly() {
        let rig = NetRig::new("trx13");
        let driver = rig.driver();
        let rx = TcpReceiver::bind_reactor("127.0.0.1:0", roomy(), &driver).unwrap();
        // Two live connections whose tasks are parked on read interest.
        let tx1 = TcpSender::connect_reactor(rx.local_addr(), 4, &driver).unwrap();
        let (tx2, _acks) = acked_sender(&rx, 4, &driver);
        assert!(wait_for(TIMEOUT, || rx.connections() == 2));
        rx.shutdown();
        // Both peers observe the hangup: their links die.
        let raw = SelectiveCompressor::disabled();
        for tx in [&tx1, &tx2] {
            assert!(
                wait_for(TIMEOUT, || tx.send(encode_frame(1, 0, &[vec![0u8; 8]], &raw)).is_err()),
                "receiver shutdown must sever parked connections"
            );
        }
    }

    #[test]
    fn deliver_hook_fires_per_frame() {
        let rig = NetRig::new("trx14");
        let driver = rig.driver();
        let rx = TcpReceiver::bind_reactor("127.0.0.1:0", roomy(), &driver).unwrap();
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        rx.on_deliver(move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
        let tx = TcpSender::connect_reactor(rx.local_addr(), 8, &driver).unwrap();
        let raw = SelectiveCompressor::disabled();
        for i in 0..10u64 {
            tx.send(encode_frame(1, i, &[b"x".to_vec()], &raw)).unwrap();
        }
        tx.close();
        let q = rx.queue();
        for _ in 0..10 {
            q.pop_timeout(TIMEOUT).unwrap();
        }
        // The hook runs after the push, so the last pop can beat it.
        assert!(wait_for(TIMEOUT, || hits.load(Ordering::Relaxed) == 10));
        rx.shutdown();
    }

    #[test]
    fn reactor_tracks_connection_gauges() {
        let rig = NetRig::new("trx15");
        let driver = rig.driver();
        let rx = TcpReceiver::bind_reactor("127.0.0.1:0", roomy(), &driver).unwrap();
        let tx1 = TcpSender::connect_reactor(rx.local_addr(), 4, &driver).unwrap();
        let tx2 = TcpSender::connect_reactor(rx.local_addr(), 4, &driver).unwrap();
        assert!(wait_for(TIMEOUT, || rx.connections() == 2));
        assert!(rx.accept_backlog_peak() >= 1, "accept bursts must be tracked");
        drop(tx1);
        drop(tx2);
        assert!(
            wait_for(TIMEOUT, || rx.connections() == 0),
            "closed connections must drain the gauge, at {}",
            rx.connections()
        );
        rx.shutdown();
    }

    #[test]
    fn reactor_corrupted_stream_counts_decode_error() {
        let rig = NetRig::new("trx16");
        let driver = rig.driver();
        let rx = TcpReceiver::bind_reactor("127.0.0.1:0", roomy(), &driver).unwrap();
        let mut stream = TcpStream::connect(rx.local_addr()).unwrap();
        // A valid header magic but garbage after it.
        let mut junk = crate::frame::MAGIC.to_le_bytes().to_vec();
        junk.extend_from_slice(&[0xFFu8; 64]);
        stream.write_all(&junk).unwrap();
        drop(stream);
        assert!(wait_for(TIMEOUT, || rx.decode_errors() > 0));
        assert_eq!(rx.decode_errors(), 1);
        rx.shutdown();
    }

    #[test]
    fn reactor_pooled_receiver_recycles_body_buffers() {
        let rig = NetRig::new("trx17");
        let driver = rig.driver();
        let pool = Arc::new(BytesPool::new(16));
        let rx = TcpReceiver::bind_reactor_pooled_with_shed(
            "127.0.0.1:0",
            roomy(),
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
            let f = q.pop_timeout(TIMEOUT).expect("frame");
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
    fn reactor_chaos_drop_severs_connections_but_keeps_listener() {
        let rig = NetRig::new("trx18");
        let driver = rig.driver();
        let rx = TcpReceiver::bind_reactor("127.0.0.1:0", roomy(), &driver).unwrap();
        let raw = SelectiveCompressor::disabled();
        let tx = TcpSender::connect_reactor(rx.local_addr(), 8, &driver).unwrap();
        tx.send(encode_frame(1, 0, &[b"pre".to_vec()], &raw)).unwrap();
        assert!(rx.queue().pop_timeout(TIMEOUT).is_some());

        assert_eq!(rx.chaos_drop_connections(), 1);
        // The cut link dies: sends eventually fail as the task observes it.
        assert!(wait_for(TIMEOUT, || {
            tx.send(encode_frame(1, 1, &[b"dead".to_vec()], &raw)).is_err()
        }));
        // The listener survives: a new connection works.
        let tx2 = TcpSender::connect_reactor(rx.local_addr(), 8, &driver).unwrap();
        tx2.send(encode_frame(1, 2, &[b"post".to_vec()], &raw)).unwrap();
        let f = rx.queue().pop_timeout(TIMEOUT).expect("post-cut frame");
        assert_eq!(f.messages, vec![b"post".to_vec()]);
        tx2.close();
        drop(tx);
        rx.shutdown();
    }
}
