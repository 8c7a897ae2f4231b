//! Bench-side spans: recorded around the bench's own calls into the
//! engine, kept in memory, written as a Chrome trace when the run ends.
//! Spans inside the engine are the engine's business
//! (`JobHandle::chrome_trace`); its sampled spans are appended to the same
//! file when tracing is on.

use neptune_core::json::{self, JsonValue};
use neptune_core::now_micros;
use std::sync::Mutex;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index into the recorder, unique per run.
    pub id: usize,
    /// The span that caused this one (`None` for the workload's root).
    pub parent: Option<usize>,
    /// What was being done.
    pub name: String,
    /// Start, µs since the epoch.
    pub start_us: u64,
    /// End, µs since the epoch (0 while open).
    pub end_us: u64,
}

/// In-memory span log of one workload run.
#[derive(Default)]
pub struct SpanLog {
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// An empty log.
    pub fn new() -> Self {
        SpanLog::default()
    }

    /// Open a span under `parent`; close it with [`end`](Self::end).
    pub fn begin(&self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let mut spans = self.spans.lock().expect("span log lock");
        let id = spans.len();
        spans.push(Span { id, parent, name: name.into(), start_us: now_micros(), end_us: 0 });
        id
    }

    /// Close span `id`.
    pub fn end(&self, id: usize) {
        self.spans.lock().expect("span log lock")[id].end_us = now_micros();
    }

    /// Run `f` inside a span.
    pub fn scope<T>(
        &self,
        name: impl Into<String>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span log lock").clone()
    }

    /// Chrome trace-event JSON: the bench's spans on track 0 as complete
    /// (`"X"`) events carrying their id and parent, followed by the events
    /// of `engine_trace` (a `{"traceEvents": [...]}` document from
    /// `JobHandle::chrome_trace`) when given.
    pub fn to_chrome_trace(&self, engine_traces: &[String]) -> String {
        let mut events: Vec<JsonValue> = self
            .snapshot()
            .into_iter()
            .filter(|s| s.end_us >= s.start_us && s.end_us != 0)
            .map(|s| {
                let mut args = vec![("id", JsonValue::Number(s.id as f64))];
                if let Some(p) = s.parent {
                    args.push(("parent", JsonValue::Number(p as f64)));
                }
                json::object([
                    ("name", JsonValue::String(s.name)),
                    ("cat", JsonValue::String("bench".into())),
                    ("ph", JsonValue::String("X".into())),
                    ("ts", JsonValue::Number(s.start_us as f64)),
                    ("dur", JsonValue::Number((s.end_us - s.start_us) as f64)),
                    ("pid", JsonValue::Number(0.0)),
                    ("tid", JsonValue::Number(0.0)),
                    ("args", json::object(args)),
                ])
            })
            .collect();
        for doc in engine_traces {
            if let Ok(parsed) = json::parse(doc) {
                if let Some(list) = parsed.get("traceEvents").and_then(|v| v.as_array()) {
                    events.extend(list.iter().cloned());
                }
            }
        }
        json::object([("traceEvents", JsonValue::Array(events))]).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_render_as_a_loadable_trace() {
        let log = SpanLog::new();
        let root = log.begin("workload", None);
        log.scope("saturate", Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        log.end(root);
        let spans = log.snapshot();
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);

        let engine =
            r#"{"traceEvents":[{"name":"execution","ph":"X","ts":1,"dur":2,"pid":1,"tid":3}]}"#;
        let doc = json::parse(&log.to_chrome_trace(&[engine.to_string()])).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|v| v.as_array()).expect("event list");
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("parent")).and_then(|p| p.as_u64()),
            Some(0)
        );
    }
}
