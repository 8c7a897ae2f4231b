//! The cluster control protocol: versioned, capability-checked framed
//! JSON between the coordinator and `neptuned` node daemons.
//!
//! Control connections ride the same frame codec as the data plane —
//! each message is one JSON document sent as a single-message data frame
//! on the reserved control link. The **first** frame in each direction is
//! a hello ([`ControlKind::Hello`]) carrying the sender's capability byte
//! under a header that, like every frame's, names its protocol version;
//! both sides exchange hellos synchronously at connect time and refuse
//! the peer with a clear error when the version differs or a required
//! capability is missing. That is the fail-fast point for mismatched
//! `neptuned` builds: the operator sees `protocol mismatch: we speak v2
//! (caps 0x03), peer speaks v3` at startup instead of a decode error
//! mid-job.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use neptune_compress::SelectiveCompressor;
use neptune_core::json::{self, JsonValue};
use neptune_net::frame::{
    encode_frame, encode_hello_frame, read_frame, ControlKind, FrameError, CAP_SEQ_REPLAY,
    CAP_TRACE, PROTOCOL_VERSION,
};
use parking_lot::Mutex;

/// Link id reserved for control-plane message frames.
pub const CONTROL_LINK: u64 = 0;

/// Capabilities a cluster peer must advertise: the data plane relies on
/// sequenced replay for zero-loss handover and on trace-id propagation
/// for cross-process causal tracing.
pub const REQUIRED_CAPS: u8 = CAP_SEQ_REPLAY | CAP_TRACE;

/// Control protocol failures.
#[derive(Debug)]
pub enum ProtoError {
    /// Socket-level failure.
    Io(io::Error),
    /// The peer speaks a different protocol version or lacks a required
    /// capability. Formatted for the startup log.
    Mismatch {
        /// Our (version, caps).
        ours: (u8, u8),
        /// The peer's version, and its caps when its hello could be read
        /// (a hello of another version cannot).
        theirs: (u8, Option<u8>),
    },
    /// The peer's first frame was not a hello.
    NoHello,
    /// A message frame did not contain valid protocol JSON.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "control i/o error: {e}"),
            ProtoError::Mismatch { ours, theirs } => {
                write!(f, "protocol mismatch: we speak v{} (caps {:#04x}), ", ours.0, ours.1)?;
                write!(f, "peer speaks v{}", theirs.0)?;
                if let Some(caps) = theirs.1 {
                    write!(f, " (caps {caps:#04x})")?;
                }
                write!(f, " — upgrade the older neptuned build")
            }
            ProtoError::NoHello => {
                write!(f, "peer did not open with a protocol hello (not a neptuned build?)")
            }
            ProtoError::Malformed(m) => write!(f, "malformed control message: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// One message of the control protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlMsg {
    /// Node → coordinator, once per connection: identity and resources.
    Register {
        /// Node name (unique per cluster).
        node: String,
        /// Capacity in operator-instance slots.
        capacity: usize,
        /// Address the node's data-plane receiver listens on.
        data_addr: String,
        /// OS process id, so tooling (and the chaos test) can target it.
        pid: u32,
    },
    /// Coordinator → node: registration accepted.
    Welcome {
        /// The node's index in the coordinator's ring.
        node_index: usize,
    },
    /// Coordinator → node: host this slice of a job. The descriptor is a
    /// complete NEPTUNE JSON job descriptor containing the node's
    /// operators plus coordinator-injected `__ingress`/`__egress`
    /// boundary operators; `generation` bumps on every reassignment.
    Assign {
        /// Job name.
        job: String,
        /// Assignment generation (monotonic per job).
        generation: u64,
        /// Sub-descriptor JSON text for this node.
        descriptor: String,
    },
    /// Coordinator → node: start the assigned job slice.
    Start {
        /// Job name.
        job: String,
    },
    /// Coordinator → node: liveness probe; the node answers with an
    /// immediate [`ControlMsg::Report`].
    Ping {
        /// Probe nonce, echoed in the report.
        seq: u64,
    },
    /// Node → coordinator: periodic telemetry push. `body` carries
    /// operator metrics, sparse histogram dumps, sink uid counts, and
    /// data-plane watermarks (see `report` helpers in the node module).
    Report {
        /// Reporting node.
        node: String,
        /// Probe nonce being answered, or 0 for unsolicited pushes.
        seq: u64,
        /// Structured telemetry payload.
        body: JsonValue,
    },
    /// Coordinator → node: an egress edge's downstream peer moved.
    Rewire {
        /// Cut-edge index.
        edge: usize,
        /// New downstream data-plane address.
        addr: String,
        /// New link epoch for the edge.
        epoch: u32,
    },
    /// Coordinator → node: stop sources, let queued work flush.
    Drain {
        /// Job name.
        job: String,
    },
    /// Coordinator → node: tear the job down and report final metrics.
    Stop {
        /// Job name.
        job: String,
    },
    /// Coordinator → node: exit the daemon process.
    Shutdown,
    /// Either direction: a fatal, human-readable failure.
    Error {
        /// What went wrong.
        message: String,
    },
}

fn field<'a>(obj: &'a JsonValue, key: &str) -> Result<&'a JsonValue, ProtoError> {
    obj.get(key).ok_or_else(|| ProtoError::Malformed(format!("missing field '{key}'")))
}

fn str_field(obj: &JsonValue, key: &str) -> Result<String, ProtoError> {
    field(obj, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| ProtoError::Malformed(format!("field '{key}' must be a string")))
}

fn u64_field(obj: &JsonValue, key: &str) -> Result<u64, ProtoError> {
    field(obj, key)?.as_u64().ok_or_else(|| {
        ProtoError::Malformed(format!("field '{key}' must be a non-negative integer"))
    })
}

impl ControlMsg {
    /// Serialize to the wire JSON document.
    pub fn to_json(&self) -> JsonValue {
        let num = |n: u64| JsonValue::Number(n as f64);
        let s = |s: &str| JsonValue::String(s.to_owned());
        match self {
            ControlMsg::Register { node, capacity, data_addr, pid } => json::object([
                ("type", s("register")),
                ("node", s(node)),
                ("capacity", num(*capacity as u64)),
                ("data_addr", s(data_addr)),
                ("pid", num(*pid as u64)),
            ]),
            ControlMsg::Welcome { node_index } => {
                json::object([("type", s("welcome")), ("node_index", num(*node_index as u64))])
            }
            ControlMsg::Assign { job, generation, descriptor } => json::object([
                ("type", s("assign")),
                ("job", s(job)),
                ("generation", num(*generation)),
                ("descriptor", s(descriptor)),
            ]),
            ControlMsg::Start { job } => json::object([("type", s("start")), ("job", s(job))]),
            ControlMsg::Ping { seq } => json::object([("type", s("ping")), ("seq", num(*seq))]),
            ControlMsg::Report { node, seq, body } => json::object([
                ("type", s("report")),
                ("node", s(node)),
                ("seq", num(*seq)),
                ("body", body.clone()),
            ]),
            ControlMsg::Rewire { edge, addr, epoch } => json::object([
                ("type", s("rewire")),
                ("edge", num(*edge as u64)),
                ("addr", s(addr)),
                ("epoch", num(*epoch as u64)),
            ]),
            ControlMsg::Drain { job } => json::object([("type", s("drain")), ("job", s(job))]),
            ControlMsg::Stop { job } => json::object([("type", s("stop")), ("job", s(job))]),
            ControlMsg::Shutdown => json::object([("type", s("shutdown"))]),
            ControlMsg::Error { message } => {
                json::object([("type", s("error")), ("message", s(message))])
            }
        }
    }

    /// Parse from a wire JSON document.
    pub fn from_json(v: &JsonValue) -> Result<Self, ProtoError> {
        let kind = str_field(v, "type")?;
        Ok(match kind.as_str() {
            "register" => ControlMsg::Register {
                node: str_field(v, "node")?,
                capacity: u64_field(v, "capacity")? as usize,
                data_addr: str_field(v, "data_addr")?,
                pid: u64_field(v, "pid")? as u32,
            },
            "welcome" => ControlMsg::Welcome { node_index: u64_field(v, "node_index")? as usize },
            "assign" => ControlMsg::Assign {
                job: str_field(v, "job")?,
                generation: u64_field(v, "generation")?,
                descriptor: str_field(v, "descriptor")?,
            },
            "start" => ControlMsg::Start { job: str_field(v, "job")? },
            "ping" => ControlMsg::Ping { seq: u64_field(v, "seq")? },
            "report" => ControlMsg::Report {
                node: str_field(v, "node")?,
                seq: u64_field(v, "seq")?,
                body: field(v, "body")?.clone(),
            },
            "rewire" => ControlMsg::Rewire {
                edge: u64_field(v, "edge")? as usize,
                addr: str_field(v, "addr")?,
                epoch: u64_field(v, "epoch")? as u32,
            },
            "drain" => ControlMsg::Drain { job: str_field(v, "job")? },
            "stop" => ControlMsg::Stop { job: str_field(v, "job")? },
            "shutdown" => ControlMsg::Shutdown,
            "error" => ControlMsg::Error { message: str_field(v, "message")? },
            other => return Err(ProtoError::Malformed(format!("unknown message type '{other}'"))),
        })
    }
}

/// Write our hello, then read and validate the peer's. Both sides write
/// first — the frames are tiny and fit the socket buffer, so the
/// symmetric exchange cannot deadlock.
fn hello_exchange(stream: &mut TcpStream) -> Result<(), ProtoError> {
    let ours = (PROTOCOL_VERSION, REQUIRED_CAPS);
    stream.write_all(&encode_hello_frame(CONTROL_LINK, REQUIRED_CAPS))?;
    stream.flush()?;
    let frame = read_frame(stream).map_err(|e| match e {
        FrameError::UnsupportedVersion(theirs) => {
            ProtoError::Mismatch { ours, theirs: (theirs, None) }
        }
        e => ProtoError::Io(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("reading hello: {e}"),
        )),
    })?;
    if frame.control != Some(ControlKind::Hello) {
        return Err(ProtoError::NoHello);
    }
    let caps = u8::try_from(frame.base_seq).map_err(|_| ProtoError::NoHello)?;
    if caps & REQUIRED_CAPS != REQUIRED_CAPS {
        return Err(ProtoError::Mismatch { ours, theirs: (PROTOCOL_VERSION, Some(caps)) });
    }
    Ok(())
}

/// A write handle to a control connection, cloneable across threads.
#[derive(Clone)]
pub struct ControlSender {
    writer: Arc<Mutex<TcpStream>>,
    compressor: Arc<SelectiveCompressor>,
}

impl ControlSender {
    /// Send one message. Errors indicate the connection is gone.
    pub fn send(&self, msg: &ControlMsg) -> Result<(), ProtoError> {
        let body = msg.to_json().to_json();
        let wire = encode_frame(CONTROL_LINK, 0, &[body.as_bytes()], &self.compressor);
        let mut w = self.writer.lock();
        w.write_all(&wire)?;
        w.flush()?;
        Ok(())
    }
}

/// A bidirectional control connection with the hello exchange already
/// performed.
pub struct ControlConn {
    reader: TcpStream,
    sender: ControlSender,
    peer: SocketAddr,
}

impl std::fmt::Debug for ControlConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlConn").field("peer", &self.peer).finish_non_exhaustive()
    }
}

impl ControlConn {
    /// Dial `addr`, retrying for up to `patience` while the peer is still
    /// binding, then run the hello exchange.
    pub fn connect(
        addr: impl ToSocketAddrs + Copy,
        patience: Duration,
    ) -> Result<Self, ProtoError> {
        let deadline = std::time::Instant::now() + patience;
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(e) if std::time::Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => return Err(ProtoError::Io(e)),
            }
        };
        Self::establish(stream)
    }

    /// Adopt an accepted stream and run the hello exchange.
    pub fn establish(mut stream: TcpStream) -> Result<Self, ProtoError> {
        stream.set_nodelay(true).ok();
        hello_exchange(&mut stream)?;
        let peer = stream.peer_addr()?;
        let writer = stream.try_clone()?;
        Ok(ControlConn {
            reader: stream,
            sender: ControlSender {
                writer: Arc::new(Mutex::new(writer)),
                compressor: Arc::new(SelectiveCompressor::disabled()),
            },
            peer,
        })
    }

    /// The peer's socket address.
    pub fn peer(&self) -> SocketAddr {
        self.peer
    }

    /// A cloneable write handle, usable from other threads.
    pub fn sender(&self) -> ControlSender {
        self.sender.clone()
    }

    /// Send one message from the owning thread.
    pub fn send(&self, msg: &ControlMsg) -> Result<(), ProtoError> {
        self.sender.send(msg)
    }

    /// Apply a read timeout to subsequent [`ControlConn::recv`] calls
    /// (`None` blocks forever). Timeouts surface as `Io` errors with kind
    /// `WouldBlock`/`TimedOut`.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.set_read_timeout(timeout)
    }

    /// Block for the next protocol message, skipping any control frames
    /// (heartbeats, stray hellos) that share the connection.
    pub fn recv(&mut self) -> Result<ControlMsg, ProtoError> {
        loop {
            // `FrameError::Io` stringifies the error; tap the reader so the
            // `io::ErrorKind` (and thus timeout detection) survives.
            let mut tap = KindTap { inner: &mut self.reader, last_kind: None };
            let frame = match read_frame(&mut tap) {
                Ok(frame) => frame,
                Err(FrameError::Io(msg)) => {
                    let kind = tap.last_kind.unwrap_or(io::ErrorKind::UnexpectedEof);
                    return Err(ProtoError::Io(io::Error::new(kind, msg)));
                }
                Err(other) => return Err(ProtoError::Malformed(other.to_string())),
            };
            if frame.control.is_some() {
                continue;
            }
            let Some(first) = frame.messages.iter().next().map(|m| m.to_vec()) else {
                continue;
            };
            let text = String::from_utf8(first)
                .map_err(|_| ProtoError::Malformed("message is not utf-8".into()))?;
            let doc = json::parse(&text).map_err(|e| ProtoError::Malformed(e.to_string()))?;
            return ControlMsg::from_json(&doc);
        }
    }
}

/// Forwards reads while remembering the kind of the last failure, which
/// `FrameError::Io` otherwise flattens into a string.
struct KindTap<'a> {
    inner: &'a mut TcpStream,
    last_kind: Option<io::ErrorKind>,
}

impl Read for KindTap<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf).inspect_err(|e| self.last_kind = Some(e.kind()))
    }
}

/// True when an I/O error is only a read-timeout expiry.
pub fn is_timeout(err: &ProtoError) -> bool {
    matches!(
        err,
        ProtoError::Io(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use neptune_net::test_support::with_protocol_version;
    use std::net::TcpListener;

    #[test]
    fn control_messages_roundtrip_through_json() {
        let msgs = vec![
            ControlMsg::Register {
                node: "n0".into(),
                capacity: 8,
                data_addr: "127.0.0.1:9000".into(),
                pid: 1234,
            },
            ControlMsg::Welcome { node_index: 2 },
            ControlMsg::Assign {
                job: "uidgrid".into(),
                generation: 3,
                descriptor: "{\"name\":\"slice\"}".into(),
            },
            ControlMsg::Start { job: "uidgrid".into() },
            ControlMsg::Ping { seq: 7 },
            ControlMsg::Report {
                node: "n1".into(),
                seq: 7,
                body: json::object([("sink_uids", JsonValue::Number(42.0))]),
            },
            ControlMsg::Rewire { edge: 1, addr: "127.0.0.1:9001".into(), epoch: 2 },
            ControlMsg::Drain { job: "uidgrid".into() },
            ControlMsg::Stop { job: "uidgrid".into() },
            ControlMsg::Shutdown,
            ControlMsg::Error { message: "placement: no nodes registered".into() },
        ];
        for msg in msgs {
            let text = msg.to_json().to_json();
            let parsed = ControlMsg::from_json(&json::parse(&text).unwrap()).unwrap();
            assert_eq!(parsed, msg, "roundtrip of {text}");
        }
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            r#"{"no_type": 1}"#,
            r#"{"type": "launch"}"#,
            r#"{"type": "welcome"}"#,
            r#"{"type": "register", "node": 9, "capacity": 1, "data_addr": "x", "pid": 1}"#,
        ] {
            let doc = json::parse(bad).unwrap();
            assert!(ControlMsg::from_json(&doc).is_err(), "should reject {bad}");
        }
    }

    #[test]
    fn conn_pair_exchanges_hello_and_messages() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = ControlConn::establish(stream).unwrap();
            let msg = conn.recv().unwrap();
            conn.send(&ControlMsg::Welcome { node_index: 0 }).unwrap();
            msg
        });
        let mut client = ControlConn::connect(addr, Duration::from_secs(2)).unwrap();
        client
            .send(&ControlMsg::Register {
                node: "n0".into(),
                capacity: 4,
                data_addr: "127.0.0.1:7000".into(),
                pid: std::process::id(),
            })
            .unwrap();
        let reply = client.recv().unwrap();
        assert_eq!(reply, ControlMsg::Welcome { node_index: 0 });
        match server.join().unwrap() {
            ControlMsg::Register { node, capacity, .. } => {
                assert_eq!(node, "n0");
                assert_eq!(capacity, 4);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn version_skew_fails_fast_with_a_clear_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // A "future" build, one version on: handcraft the hello.
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let hello = with_protocol_version(
                encode_hello_frame(CONTROL_LINK, REQUIRED_CAPS),
                PROTOCOL_VERSION + 1,
            );
            stream.write_all(&hello).unwrap();
            // Drain the client's hello so its write never blocks.
            let _ = read_frame(&mut stream);
        });
        let err = ControlConn::connect(addr, Duration::from_secs(2)).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("protocol mismatch"), "got: {text}");
        assert!(text.contains(&format!("we speak v{PROTOCOL_VERSION}")), "got: {text}");
        assert!(text.contains(&format!("peer speaks v{}", PROTOCOL_VERSION + 1)), "got: {text}");
        server.join().unwrap();
    }

    #[test]
    fn missing_capability_is_a_mismatch() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Right version, but no replay capability.
            stream.write_all(&encode_hello_frame(CONTROL_LINK, 0)).unwrap();
            let _ = read_frame(&mut stream);
        });
        let err = ControlConn::connect(addr, Duration::from_secs(2)).unwrap_err();
        assert!(matches!(err, ProtoError::Mismatch { .. }), "got: {err}");
        server.join().unwrap();
    }

    #[test]
    fn non_hello_peer_is_reported_as_such() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // A peer that starts with a data frame.
            let wire = encode_frame(9, 0, &[b"data"], &SelectiveCompressor::disabled());
            stream.write_all(&wire).unwrap();
            let _ = read_frame(&mut stream);
        });
        let err = ControlConn::connect(addr, Duration::from_secs(2)).unwrap_err();
        assert!(matches!(err, ProtoError::NoHello), "got: {err}");
        server.join().unwrap();
    }
}
