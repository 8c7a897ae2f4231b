//! Black-box flight recorder: a bounded, lock-free ring of structured
//! runtime events.
//!
//! Every subsystem already *counts* its rare transitions — gate
//! open/close, shedding, breaker trips, reconnects, dead-letter admits,
//! reactor stalls — but counters can't answer "in what order did these
//! happen before the job fell over?". The recorder timelines them: each
//! transition appends one fixed-size [`RuntimeEvent`] to a seqlock ring
//! (see [`crate::ring`]), overwriting oldest. Recording is wait-free
//! and cheap enough to leave on; the ring is dumped on panic or job
//! failure and queryable live via `JobHandle::flight_recorder()` and
//! the `/events` scrape route.
//!
//! Unlike the span ring the recorder is a single shard: the point is a
//! strict global order of transitions, which the ring's claim index
//! provides for free.

use crate::ring::{Packable, SeqRing};
use crate::trace::{json_escape, wall_micros};

/// What happened. Subjects and details are event-specific 64-bit
/// payloads (queue index, link id, replayed-frame count, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// Backpressure gate engaged on a watermark queue (subject = queue
    /// id, detail = buffered bytes).
    GateClosed = 0,
    /// Backpressure gate released (subject = queue id, detail = gated
    /// microseconds).
    GateOpened = 1,
    /// A source pump ended a shedding episode (subject = source
    /// instance, detail = packets dropped).
    Shed = 2,
    /// Circuit breaker tripped open (subject = breaker id, detail =
    /// consecutive failures).
    BreakerOpen = 3,
    /// Breaker allowing probes (subject = breaker id).
    BreakerHalfOpen = 4,
    /// Breaker closed after successful probes (subject = breaker id).
    BreakerClosed = 5,
    /// A supervised link lost its transport (subject = link id, detail
    /// = unacked frames at cut time).
    LinkCut = 6,
    /// Reconnect attempt starting (subject = link id, detail =
    /// attempt number).
    Reconnecting = 7,
    /// Reconnect succeeded (subject = link id, detail = attempt
    /// number).
    Reconnected = 8,
    /// Unacked frames replayed after reconnect (subject = link id,
    /// detail = frames replayed).
    Replay = 9,
    /// Supervised link gave up (subject = link id).
    LinkFailed = 10,
    // 11–13 named failure-detector verdicts; retired, not reused.
    /// Poison batch admitted to the dead-letter queue (subject =
    /// link id, detail = base seq).
    DeadLetter = 14,
    /// Reactor dispatch pressure: an event-buffer-filling poll or a
    /// wake delivered to a retired task (subject = events in batch).
    ReactorStall = 15,
    /// Operator panic caught by the supervisor (subject = link id,
    /// detail = attempt), or an IO task's panic caught by its pool
    /// thread (subject = the pool's panic count, detail = 0: the task
    /// is retired, not retried).
    Panic = 16,
}

impl EventKind {
    /// Stable snake_case name used by exports.
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::GateClosed => "gate_closed",
            EventKind::GateOpened => "gate_opened",
            EventKind::Shed => "shed",
            EventKind::BreakerOpen => "breaker_open",
            EventKind::BreakerHalfOpen => "breaker_half_open",
            EventKind::BreakerClosed => "breaker_closed",
            EventKind::LinkCut => "link_cut",
            EventKind::Reconnecting => "reconnecting",
            EventKind::Reconnected => "reconnected",
            EventKind::Replay => "replay",
            EventKind::LinkFailed => "link_failed",
            EventKind::DeadLetter => "dead_letter",
            EventKind::ReactorStall => "reactor_stall",
            EventKind::Panic => "panic",
        }
    }

    fn from_u8(v: u8) -> EventKind {
        match v {
            0 => EventKind::GateClosed,
            1 => EventKind::GateOpened,
            2 => EventKind::Shed,
            3 => EventKind::BreakerOpen,
            4 => EventKind::BreakerHalfOpen,
            5 => EventKind::BreakerClosed,
            6 => EventKind::LinkCut,
            7 => EventKind::Reconnecting,
            8 => EventKind::Reconnected,
            9 => EventKind::Replay,
            10 => EventKind::LinkFailed,
            14 => EventKind::DeadLetter,
            15 => EventKind::ReactorStall,
            _ => EventKind::Panic,
        }
    }
}

/// One recorded transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeEvent {
    /// Wall clock, microseconds since the Unix epoch.
    pub at_micros: u64,
    /// What happened.
    pub kind: EventKind,
    /// Event-specific subject (queue id, link id, breaker id, ...).
    pub subject: u64,
    /// Event-specific detail (bytes, counts, attempt numbers, ...).
    pub detail: u64,
}

impl Packable<4> for RuntimeEvent {
    fn pack(&self) -> [u64; 4] {
        [self.at_micros, self.kind as u64, self.subject, self.detail]
    }

    fn unpack(words: [u64; 4]) -> Self {
        RuntimeEvent {
            at_micros: words[0],
            kind: EventKind::from_u8((words[1] & 0xFF) as u8),
            subject: words[2],
            detail: words[3],
        }
    }
}

/// Bounded, lock-free timeline of runtime transitions.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: SeqRing<RuntimeEvent, 4>,
}

impl FlightRecorder {
    /// A recorder keeping the most recent ~`capacity` events.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder { ring: SeqRing::new(capacity) }
    }

    /// Append one event stamped with the current wall clock.
    #[inline]
    pub fn record(&self, kind: EventKind, subject: u64, detail: u64) {
        self.record_at(wall_micros(), kind, subject, detail);
    }

    /// Append one event with an explicit timestamp (tests, replays).
    #[inline]
    pub fn record_at(&self, at_micros: u64, kind: EventKind, subject: u64, detail: u64) {
        self.ring.push(RuntimeEvent { at_micros, kind, subject, detail });
    }

    /// Events recorded so far (including overwritten ones).
    pub fn events(&self) -> u64 {
        self.ring.recorded()
    }

    /// Events lost to slot-claim races (not ordinary ring overwrite).
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Copy out the surviving timeline, oldest first, in strict record
    /// order.
    pub fn snapshot(&self) -> Vec<RuntimeEvent> {
        self.ring.snapshot()
    }

    /// True when the timeline contains `kinds` as a (not necessarily
    /// contiguous) subsequence, in order — the chaos harness's
    /// "link-cut → suspect → reconnect → replay" style assertion.
    pub fn contains_sequence(&self, kinds: &[EventKind]) -> bool {
        let mut want = kinds.iter();
        let mut next = want.next();
        for ev in self.snapshot() {
            match next {
                None => return true,
                Some(k) if *k == ev.kind => next = want.next(),
                Some(_) => {}
            }
        }
        next.is_none()
    }

    /// JSON document for the `/events` scrape route and the stderr dump on
    /// a quarantined frame:
    /// `{"events":[{"seq":..,"at_micros":..,"kind":"..","subject":..,"detail":..}]}`.
    pub fn to_json(&self) -> String {
        let events = self.ring.snapshot_indexed();
        let mut out = String::with_capacity(32 + events.len() * 80);
        out.push_str("{\"events\":[");
        for (i, (seq, ev)) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seq\":{seq},\"at_micros\":{},\"kind\":\"{}\",\"subject\":{},\
                 \"detail\":{}}}",
                ev.at_micros,
                json_escape(ev.kind.as_str()),
                ev.subject,
                ev.detail
            ));
        }
        out.push_str(&format!("],\"recorded\":{},\"dropped\":{}}}", self.events(), self.dropped()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_kind_round_trips() {
        for k in [
            EventKind::GateClosed,
            EventKind::Shed,
            EventKind::LinkCut,
            EventKind::Replay,
            EventKind::ReactorStall,
            EventKind::Panic,
        ] {
            assert_eq!(EventKind::from_u8(k as u8), k);
            let ev = RuntimeEvent { at_micros: 1, kind: k, subject: 2, detail: 3 };
            assert_eq!(RuntimeEvent::unpack(ev.pack()), ev);
        }
    }

    #[test]
    fn snapshot_preserves_record_order() {
        let r = FlightRecorder::new(64);
        r.record_at(10, EventKind::LinkCut, 1, 0);
        r.record_at(11, EventKind::Reconnecting, 1, 0);
        r.record_at(12, EventKind::Reconnected, 1, 1);
        r.record_at(13, EventKind::Replay, 1, 5);
        let kinds: Vec<EventKind> = r.snapshot().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::LinkCut,
                EventKind::Reconnecting,
                EventKind::Reconnected,
                EventKind::Replay
            ]
        );
    }

    #[test]
    fn contains_sequence_is_subsequence_match() {
        let r = FlightRecorder::new(64);
        r.record(EventKind::GateClosed, 0, 0);
        r.record(EventKind::LinkCut, 1, 0);
        r.record(EventKind::Shed, 0, 100);
        r.record(EventKind::Reconnecting, 1, 0);
        r.record(EventKind::Reconnected, 1, 2);
        r.record(EventKind::Replay, 1, 7);
        assert!(r.contains_sequence(&[
            EventKind::LinkCut,
            EventKind::Reconnecting,
            EventKind::Reconnected,
            EventKind::Replay
        ]));
        assert!(!r.contains_sequence(&[EventKind::Replay, EventKind::LinkCut]));
        assert!(r.contains_sequence(&[]));
    }

    #[test]
    fn json_export_is_structured() {
        let r = FlightRecorder::new(8);
        r.record_at(99, EventKind::DeadLetter, 3, 40);
        let json = r.to_json();
        assert!(json.starts_with("{\"events\":["));
        assert!(json.contains("\"kind\":\"dead_letter\""));
        assert!(json.contains("\"at_micros\":99"));
        assert!(json.contains("\"subject\":3"));
        assert!(json.contains("\"recorded\":1"));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn ring_bounds_the_timeline() {
        let r = FlightRecorder::new(8);
        for i in 0..100 {
            r.record_at(i, EventKind::Shed, 0, i);
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 8);
        assert_eq!(snap.last().unwrap().detail, 99);
        assert_eq!(r.events(), 100);
    }
}
