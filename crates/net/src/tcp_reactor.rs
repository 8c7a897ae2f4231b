//! Readiness-driven TCP on the IO tier (§I-C, §IV-C).
//!
//! The blocking transport spends 2–4 OS threads per connection (writer,
//! reader, acceptor, ack backchannel), so a job's thread count grows
//! O(connections) — the exact scaling wall the paper's two-tier thread
//! model exists to avoid. This module reimplements both transport ends as
//! cooperative [`IoTask`] state machines multiplexed onto the fixed IO
//! pool, with socket readiness delivered by the `neptune-granules` epoll
//! [`Reactor`](neptune_granules::Reactor):
//!
//! * The **sender task** drains the bounded outbound queue until
//!   `WouldBlock`, then arms a one-shot writable interest and parks. The
//!   ack/heartbeat backchannel is multiplexed onto the same task through
//!   an incremental [`FrameDecoder`], so `neptune-ha`'s
//!   reconnect-with-replay works unchanged over either transport.
//! * The **connection task** reads whatever the kernel has, feeds it
//!   through the incremental decoder, and pushes decoded frames onto the
//!   shared inbound [`WatermarkQueue`]. While the queue is gated the task
//!   does **not** re-arm its read interest — the kernel receive buffer
//!   fills, the TCP window closes, and §III-B4 backpressure propagates to
//!   the sender exactly as on the blocking path, with zero threads parked.
//! * The **accept task** accepts until `WouldBlock` and spawns one
//!   connection task per socket through the pool's [`IoSpawner`]; the
//!   accept burst length is tracked as the accept-backlog-peak gauge.
//!
//! Wire format and ack protocol are byte-identical to the blocking path —
//! the two interoperate freely in both directions, and
//! `RuntimeConfig::net_reactor` flips a whole job between them.

use crate::frame::{encode_control_frame, ControlKind, Frame, FrameDecoder};
use crate::pool::BytesPool;
use crate::tcp::{DeliverHook, WireBuffers};
use crate::transport::TransportError;
use crate::watermark::{PushError, ShedConfig, WatermarkConfig, WatermarkQueue};
use neptune_granules::{
    IoContext, IoSpawner, IoStatus, IoTask, IoTaskHandle, NetSource, NetWaker, ReactorHandle,
};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
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

/// Everything a reactor-path transport endpoint needs from the runtime:
/// a way to spawn IO tasks and a way to register sockets for readiness.
/// Cheap to clone; the runtime hands one to `wiring` when
/// `net_reactor` is enabled.
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

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

/// Outbound queue shared between producer threads (workers calling
/// `send`) and the sender task on the IO tier.
struct SendQueue {
    frames: VecDeque<Vec<u8>>,
    /// `close()` was called: no new sends; the task completes once drained.
    closed: bool,
    /// The socket died: sends fail immediately, queued frames are dropped.
    dead: bool,
    /// The task exited cleanly after draining a closed queue.
    done: bool,
}

struct SenderShared {
    queue: Mutex<SendQueue>,
    /// Producers wait here when the bounded queue is full.
    not_full: Condvar,
    /// `close()` waits here for the drain to finish.
    drained: Condvar,
    capacity: usize,
    frames: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
    acks: Arc<AtomicU64>,
    /// Where fully-written wire buffers go back to the encoder.
    spent: Arc<WireBuffers>,
}

impl SenderShared {
    /// Mark the link dead and release everyone blocked on it.
    fn fail(&self) {
        let mut q = self.queue.lock();
        q.dead = true;
        q.frames.clear();
        drop(q);
        self.not_full.notify_all();
        self.drained.notify_all();
    }
}

/// Reactor-path outbound link: the facade `TcpSender` wraps this when the
/// runtime runs with `net_reactor` enabled.
pub(crate) struct ReactorSender {
    shared: Arc<SenderShared>,
    handle: IoTaskHandle,
}

impl ReactorSender {
    /// Take an already-connected stream nonblocking and hand it to a
    /// sender task on the IO pool. `frames`/`bytes`/`acks` are the
    /// facade's counters, shared with the task.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn spawn(
        stream: TcpStream,
        queue_depth: usize,
        driver: &NetDriver,
        on_ack: Option<Box<dyn Fn(u64, u64) + Send>>,
        frames: Arc<AtomicU64>,
        bytes: Arc<AtomicU64>,
        acks: Arc<AtomicU64>,
        spent: Arc<WireBuffers>,
    ) -> std::io::Result<ReactorSender> {
        stream.set_nonblocking(true)?;
        let shared = Arc::new(SenderShared {
            queue: Mutex::new(SendQueue {
                frames: VecDeque::with_capacity(queue_depth.min(1024)),
                closed: false,
                dead: false,
                done: false,
            }),
            not_full: Condvar::new(),
            drained: Condvar::new(),
            capacity: queue_depth,
            frames,
            bytes,
            acks,
            spent,
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
        Ok(ReactorSender { shared, handle })
    }

    /// Queue one encoded wire frame; blocks while the bounded queue is
    /// full (the §IV-C shared bounded buffer), fails once closed or dead.
    pub(crate) fn send(&self, wire: Vec<u8>) -> Result<(), TransportError> {
        let mut q = self.shared.queue.lock();
        loop {
            if q.dead || q.closed {
                return Err(TransportError::Closed);
            }
            if q.frames.len() < self.shared.capacity {
                q.frames.push_back(wire);
                break;
            }
            self.shared.not_full.wait(&mut q);
        }
        drop(q);
        self.handle.wake();
        Ok(())
    }

    /// Stop accepting sends and wait (bounded) for the task to drain.
    pub(crate) fn close(&mut self) {
        {
            let mut q = self.shared.queue.lock();
            if q.closed {
                return;
            }
            q.closed = true;
        }
        self.shared.not_full.notify_all();
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
    on_ack: Option<Box<dyn Fn(u64, u64) + Send>>,
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
                                if let Some(f) = frame {
                                    if f.control == Some(ControlKind::Ack) {
                                        if let Some(cb) = &self.on_ack {
                                            self.shared.acks.fetch_add(1, Ordering::Relaxed);
                                            cb(f.link_id, f.base_seq);
                                        }
                                    }
                                    // Tolerate unknown chatter, like the
                                    // blocking ack reader.
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
                        drop(q);
                        self.shared.not_full.notify_one();
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

/// State shared by the accept task, every connection task, and the
/// facade `TcpReceiver`.
struct RecvShared {
    queue: Arc<WatermarkQueue<Frame>>,
    shutdown: AtomicBool,
    decode_errors: AtomicU64,
    on_deliver: DeliverHook,
    /// Currently-open accepted connections (gauge).
    open_connections: AtomicUsize,
    /// Largest accept burst drained in a single readiness stint.
    accept_backlog_peak: AtomicU64,
    /// Clones of accepted sockets: lets `shutdown` (and the chaos
    /// harness) sever live connections, which wakes their tasks via the
    /// reactor's hangup readiness.
    accepted: Mutex<Vec<TcpStream>>,
}

/// Reactor-path inbound endpoint: the facade `TcpReceiver` wraps this
/// when the runtime runs with `net_reactor` enabled.
pub(crate) struct ReactorReceiver {
    shared: Arc<RecvShared>,
    acceptor: IoTaskHandle,
    local: SocketAddr,
}

impl ReactorReceiver {
    pub(crate) fn bind(
        addr: impl ToSocketAddrs,
        watermark: WatermarkConfig,
        shed: ShedConfig,
        pool: Option<Arc<BytesPool>>,
        driver: &NetDriver,
    ) -> std::io::Result<ReactorReceiver> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(RecvShared {
            queue: Arc::new(WatermarkQueue::with_shed(watermark, shed)),
            shutdown: AtomicBool::new(false),
            decode_errors: AtomicU64::new(0),
            on_deliver: Arc::new(parking_lot::RwLock::new(None)),
            open_connections: AtomicUsize::new(0),
            accept_backlog_peak: AtomicU64::new(0),
            accepted: Mutex::new(Vec::new()),
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
        Ok(ReactorReceiver { shared, acceptor, local })
    }

    pub(crate) fn queue(&self) -> Arc<WatermarkQueue<Frame>> {
        self.shared.queue.clone()
    }

    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local
    }

    pub(crate) fn decode_errors(&self) -> u64 {
        self.shared.decode_errors.load(Ordering::Relaxed)
    }

    pub(crate) fn connections(&self) -> usize {
        self.shared.accepted.lock().len()
    }

    pub(crate) fn open_connections(&self) -> usize {
        self.shared.open_connections.load(Ordering::Relaxed)
    }

    pub(crate) fn accept_backlog_peak(&self) -> u64 {
        self.shared.accept_backlog_peak.load(Ordering::Relaxed)
    }

    pub(crate) fn set_on_deliver(&self, f: Arc<dyn Fn() + Send + Sync>) {
        *self.shared.on_deliver.write() = Some(f);
    }

    /// Sever every accepted connection (fault injection): tasks observe
    /// the hangup through the reactor and complete; the acceptor stays up
    /// so peers can reconnect.
    pub(crate) fn chaos_drop_connections(&self) -> usize {
        let drained: Vec<TcpStream> = self.shared.accepted.lock().drain(..).collect();
        let n = drained.len();
        for s in &drained {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        n
    }

    pub(crate) fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.queue.close();
        // The acceptor checks the flag at its next stint; connection
        // tasks are woken by the socket shutdowns below (hangup
        // readiness) or, if gated, by their gate-poll timer.
        self.acceptor.wake();
        for s in self.shared.accepted.lock().drain(..) {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }
}

impl Drop for ReactorReceiver {
    fn drop(&mut self) {
        self.shutdown();
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
        let waker = NetWaker::new();
        let Ok(source) = self.driver.reactor.register(stream.as_raw_fd(), waker.clone()) else {
            return Err(());
        };
        if let Ok(clone) = stream.try_clone() {
            self.shared.accepted.lock().push(clone);
        }
        self.shared.open_connections.fetch_add(1, Ordering::Relaxed);
        let task = ConnTask {
            stream,
            source,
            shared: self.shared.clone(),
            pool: self.pool.clone(),
            decoder: FrameDecoder::new(),
            read_buf: vec![0u8; 16 * 1024],
            pending: VecDeque::new(),
            next_expected: None,
            ack_out: Vec::new(),
            ack_off: 0,
            finished: false,
        };
        match self.driver.spawner.spawn_parked(task) {
            Some(handle) => {
                waker.set(handle.clone());
                handle.wake();
                Ok(())
            }
            None => {
                // Pool shut down; dropping the task closes the socket and
                // deregisters the source.
                self.shared.open_connections.fetch_sub(1, Ordering::Relaxed);
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

/// Nonblocking read/decode/deliver state machine for one accepted
/// connection, including its ack backchannel writes.
struct ConnTask {
    stream: TcpStream,
    source: NetSource,
    shared: Arc<RecvShared>,
    pool: Option<Arc<BytesPool>>,
    decoder: FrameDecoder,
    read_buf: Vec<u8>,
    /// Frames decoded but not yet on the inbound queue (gate was closed),
    /// each with its pending cumulative ack `(link_id, next_expected)`.
    pending: VecDeque<(Frame, Option<(u64, u64)>)>,
    /// Cumulative next-expected message seq for FLAG_SEQ traffic.
    next_expected: Option<u64>,
    /// Encoded ack/heartbeat replies not yet written: `ack_out[ack_off..]`.
    ack_out: Vec<u8>,
    ack_off: usize,
    finished: bool,
}

impl ConnTask {
    fn finish(&mut self) -> IoStatus {
        if !self.finished {
            self.finished = true;
            self.shared.open_connections.fetch_sub(1, Ordering::Relaxed);
            self.source.deregister();
        }
        IoStatus::Complete
    }

    fn queue_ack(&mut self, link_id: u64, next: u64) {
        self.ack_out.extend_from_slice(&encode_control_frame(link_id, ControlKind::Ack, next));
    }

    /// Write pending ack bytes until done or `WouldBlock`. Ack replies
    /// are best-effort (as on the blocking path): a failed write means
    /// the peer is gone and the next read surfaces it.
    fn flush_acks(&mut self) {
        while self.ack_off < self.ack_out.len() {
            match self.stream.write(&self.ack_out[self.ack_off..]) {
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
                    // re-acks the same watermark.
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
    /// incremental decoder, stashing completed frames. Returns `false` on
    /// a corrupt stream.
    fn decode(&mut self, n: usize) -> bool {
        let mut off = 0;
        while off < n {
            match self.decoder.feed(&self.read_buf[off..n], self.pool.as_deref()) {
                Ok((used, frame)) => {
                    off += used;
                    if let Some(frame) = frame {
                        self.stash(frame);
                    }
                }
                Err(_) => return false,
            }
        }
        true
    }

    /// Account for `n` bytes read straight into the decoder's body buffer.
    /// Returns `false` on a corrupt stream.
    fn commit(&mut self, n: usize) -> bool {
        match self.decoder.commit(n, self.pool.as_deref()) {
            Ok(Some(frame)) => self.stash(frame),
            Ok(None) => {}
            Err(_) => return false,
        }
        true
    }

    /// Queue a decoded frame for delivery (or answer it, if it is control
    /// chatter), working out the cumulative ack that follows it.
    fn stash(&mut self, mut frame: Frame) {
        if let Some(kind) = frame.control {
            // Control frames never surface on the data queue — except
            // barriers, which ride it in arrival order (checkpoint
            // alignment depends on a barrier staying behind data flushed
            // before it). A heartbeat is answered with the cumulative ack
            // so an idle link proves liveness end to end.
            if kind != ControlKind::Barrier {
                if kind == ControlKind::Heartbeat {
                    let ack = self.next_expected.unwrap_or(0);
                    self.queue_ack(frame.link_id, ack);
                }
                return;
            }
        }
        let ack_after = frame.seq.is_some().then(|| {
            let end = frame.base_seq + frame.len() as u64;
            let next = self.next_expected.map_or(end, |n| n.max(end));
            self.next_expected = Some(next);
            (frame.link_id, next)
        });
        frame.received_at = Some(Instant::now());
        self.pending.push_back((frame, ack_after));
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
            let read = if in_place {
                let window = self.decoder.body_window();
                let n = window.len().min(budget);
                self.stream.read(&mut window[..n])
            } else {
                self.stream.read(&mut self.read_buf)
            };
            match read {
                Ok(0) => return self.finish(), // peer closed
                Ok(n) => {
                    let sound = if in_place { self.commit(n) } else { self.decode(n) };
                    if !sound {
                        // Corrupted frame: count it and drop the
                        // connection — no resync mid-stream.
                        self.shared.decode_errors.fetch_add(1, Ordering::Relaxed);
                        return self.finish();
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
