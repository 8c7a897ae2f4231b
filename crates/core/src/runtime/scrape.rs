//! Live scrape endpoint (ISSUE 7): a tiny std-only HTTP/1.0 responder
//! serving `/metrics` (Prometheus text exposition), `/traces` (Chrome
//! trace-event JSON), and `/events` (flight-recorder JSON) straight off
//! the job's observability state.
//!
//! The listener runs as one cooperatively scheduled [`IoTask`] on the
//! job's IO tier — no extra threads, matching the two-tier thread model.
//! With the network reactor enabled the task parks until epoll reports
//! the listener readable; without it the task falls back to a coarse
//! accept poll (`ParkUntil`), which is fine for a debugging endpoint.
//! Handlers render from the job's shared read-side state through the same
//! fold `JobHandle::metrics` uses, so a scrape never locks the data plane
//! and never disagrees with the handle.

use super::JobShared;
use neptune_granules::{IoContext, IoStatus, IoTask, NetSource};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a handler waits on a slow client before dropping the
/// connection. Scrapes are tiny; anything slower is a stuck peer.
const CLIENT_IO_TIMEOUT: Duration = Duration::from_millis(200);

/// Accept-poll cadence when no reactor serves readiness events.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// One render closure per route (the task cannot hold the `JobHandle` —
/// it outlives it).
pub(super) struct ScrapeRoutes {
    /// `/metrics` — Prometheus text exposition.
    pub metrics: Box<dyn Fn() -> String + Send>,
    /// `/traces` — Chrome trace-event JSON.
    pub traces: Box<dyn Fn() -> String + Send>,
    /// `/events` — flight-recorder JSON.
    pub events: Box<dyn Fn() -> String + Send>,
}

impl ScrapeRoutes {
    /// The three routes over a job's shared state.
    pub(super) fn over(job: &Arc<JobShared>) -> Self {
        let (metrics, traces, events) = (job.clone(), job.clone(), job.clone());
        ScrapeRoutes {
            metrics: Box::new(move || metrics.telemetry(&metrics.plane()).render_prometheus()),
            traces: Box::new(move || {
                traces.spans.as_ref().map(|s| s.to_chrome_trace()).unwrap_or_else(|| {
                    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}".to_string()
                })
            }),
            events: Box::new(move || events.recorder.to_json()),
        }
    }
}

/// The IO-tier task owning the scrape listener.
pub(super) struct ScrapeTask {
    listener: TcpListener,
    routes: ScrapeRoutes,
    /// Reactor registration; `None` on the polling fallback path.
    source: Option<NetSource>,
}

impl ScrapeTask {
    /// Wrap an already-bound nonblocking listener. `source` is its
    /// reactor registration when the reactor path is on.
    pub(super) fn new(
        listener: TcpListener,
        routes: ScrapeRoutes,
        source: Option<NetSource>,
    ) -> Self {
        ScrapeTask { listener, routes, source }
    }

    fn serve(&self, stream: TcpStream) {
        // Handlers run blocking with a short timeout: a scrape response
        // is a few KB, so one stint absorbs the whole exchange without
        // per-connection state machines.
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_read_timeout(Some(CLIENT_IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(CLIENT_IO_TIMEOUT));
        let _ = respond(stream, &self.routes);
    }
}

impl IoTask for ScrapeTask {
    fn run(&mut self, ctx: &IoContext) -> IoStatus {
        if ctx.shutting_down() {
            if let Some(s) = &mut self.source {
                s.deregister();
            }
            return IoStatus::Complete;
        }
        if let Some(s) = &self.source {
            s.take_readiness();
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.serve(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return match &self.source {
                        Some(s) => {
                            s.arm(true, false);
                            IoStatus::Park
                        }
                        None => IoStatus::ParkUntil(Instant::now() + POLL_INTERVAL),
                    };
                }
                Err(_) => return IoStatus::Complete,
            }
        }
    }
}

/// Read the request line, route it, write the response. Errors just drop
/// the connection — the endpoint is best-effort by design.
fn respond(mut stream: TcpStream, routes: &ScrapeRoutes) -> std::io::Result<()> {
    let mut buf = [0u8; 1024];
    let mut len = 0;
    // Read until the request line is complete; ignore the header block.
    while len < buf.len() {
        let n = stream.read(&mut buf[len..])?;
        if n == 0 {
            break;
        }
        len += n;
        if buf[..len].contains(&b'\n') {
            break;
        }
    }
    let request_line =
        std::str::from_utf8(&buf[..len]).unwrap_or("").lines().next().unwrap_or("").to_string();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        ("405 Method Not Allowed", "text/plain; charset=utf-8", "method not allowed\n".to_string())
    } else {
        match path {
            "/metrics" => ("200 OK", "text/plain; version=0.0.4", (routes.metrics)()),
            "/traces" => ("200 OK", "application/json", (routes.traces)()),
            "/events" => ("200 OK", "application/json", (routes.events)()),
            _ => ("404 Not Found", "text/plain; charset=utf-8", "not found\n".to_string()),
        }
    };
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn routes() -> ScrapeRoutes {
        ScrapeRoutes {
            metrics: Box::new(|| "# TYPE t counter\nt 1\n".to_string()),
            traces: Box::new(|| "{\"traceEvents\":[]}".to_string()),
            events: Box::new(|| "{\"events\":[]}".to_string()),
        }
    }

    fn get(addr: std::net::SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn routes_respond_and_unknown_is_404() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let task =
            std::sync::Arc::new(parking_lot::Mutex::new(ScrapeTask::new(listener, routes(), None)));
        let t2 = task.clone();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let s2 = stop.clone();
        // Drive the accept loop by hand (no pool needed for a unit test).
        let driver = std::thread::spawn(move || {
            while !s2.load(std::sync::atomic::Ordering::Acquire) {
                let mut guard = t2.lock();
                let t = &mut *guard;
                if let Some(s) = &t.source {
                    s.take_readiness();
                }
                while let Ok((stream, _)) = t.listener.accept() {
                    t.serve(stream);
                }
                drop(guard);
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"));
        assert!(metrics.contains("# TYPE t counter"));
        let traces = get(addr, "/traces");
        assert!(traces.contains("application/json"));
        assert!(traces.contains("traceEvents"));
        let miss = get(addr, "/nope");
        assert!(miss.starts_with("HTTP/1.1 404"));
        stop.store(true, std::sync::atomic::Ordering::Release);
        driver.join().unwrap();
    }
}
