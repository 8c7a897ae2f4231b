//! The trace-tagging layer of the link stack: which flushed batches carry
//! a causal trace id, and how those ids are minted.
//!
//! Two disciplines ship, matching the two places tracing existed before
//! the link stack unified them:
//!
//! * [`TraceTagger::sampled`] — the runtime-channel discipline. A batch
//!   carries the id tagged by a traced inbound packet (propagation), or —
//!   on originating endpoints — a freshly minted id when the batch covers
//!   a sampled sequence number (1-in-N by the span ring's sampling
//!   stride). A traced batch also records its `buffer-wait` span and
//!   stamps `sent_at` lazily, so untraced batches pay no clock read.
//! * [`TraceTagger::every_n`] — the cluster-egress discipline. Every
//!   `n`-th frame on the link is traced, with ids minted from the link id
//!   and frame number; no span is recorded sender-side (the receiving
//!   plane records ingest spans).
//!
//! Both mint nonzero ids, because `PendingTrace` keeps 0 for "untagged".

use neptune_telemetry::{PendingTrace, Span, SpanRing, STAGE_BUFFER_WAIT};
use std::sync::Arc;

/// Trace ids on sampled links are minted from the originating link and
/// the sampled packet's sequence number — reproducible across runs of the
/// same stream, unique enough across links to follow in a trace viewer.
/// Ids are nonzero (seq+1) because `PendingTrace` keeps 0 for "untagged".
pub fn mint_sampled_trace_id(link_id: u64, seq: u64) -> u64 {
    (link_id << 40) | ((seq + 1) & 0xFF_FFFF_FFFF)
}

/// Trace ids on every-N links fold the link id with the frame number (+1
/// for nonzero), mirroring the cluster egress discipline.
pub fn mint_every_n_trace_id(link_id: u64, frame_no: u64) -> u64 {
    (link_id << 20) ^ (frame_no + 1)
}

enum Mode {
    Sampled {
        /// Shared span ring of the job.
        ring: Arc<SpanRing>,
        /// Track id of the sending operator.
        track: u16,
        /// True on source-operator endpoints: deterministically sample
        /// 1-in-N emitted packets by sequence number and mint their trace
        /// ids. Downstream endpoints only *propagate* ids.
        originate: bool,
        /// Trace id of the first traced packet in the currently open batch.
        pending: PendingTrace,
    },
    EveryN {
        /// Trace every `n`-th frame (0 = never).
        every: u64,
    },
}

/// Decides, per flushed batch, whether it carries a trace id.
pub struct TraceTagger {
    mode: Mode,
}

impl TraceTagger {
    /// The runtime-channel discipline: propagate tagged inbound ids, and
    /// (when `originate`) mint ids for batches covering a sampled
    /// sequence number.
    pub fn sampled(ring: Arc<SpanRing>, track: u16, originate: bool) -> Self {
        TraceTagger { mode: Mode::Sampled { ring, track, originate, pending: PendingTrace::new() } }
    }

    /// The cluster-egress discipline: trace every `every`-th frame on the
    /// link (0 disables tracing).
    pub fn every_n(every: u64) -> Self {
        TraceTagger { mode: Mode::EveryN { every } }
    }

    /// Propagate an inbound packet's trace id onto the batch currently
    /// building. No-op for every-N taggers (they mint, never propagate).
    pub fn tag_inbound(&self, trace_id: u64) {
        if let Mode::Sampled { pending, .. } = &self.mode {
            pending.set_if_empty(trace_id);
        }
    }

    /// Decide the trace id for one flushed batch. `frame_no` is the
    /// link's flush ordinal (used by every-N tagging); `sent_at` is the
    /// batch's wall-clock stamp, written lazily when a sampled batch is
    /// traced but telemetry had not already stamped it.
    pub fn tag_batch(
        &self,
        link_id: u64,
        base_seq: u64,
        count: u32,
        frame_no: u64,
        queueing_delay_micros: u64,
        sent_at: &mut u64,
    ) -> Option<u64> {
        match &self.mode {
            Mode::Sampled { ring, track, originate, pending } => {
                let mut id = pending.take();
                if id.is_none() && *originate {
                    let mask = ring.sample_every() - 1;
                    let first = (base_seq + mask) & !mask;
                    if first < base_seq + count as u64 {
                        id = Some(mint_sampled_trace_id(link_id, first));
                    }
                }
                if let Some(id) = id {
                    if *sent_at == 0 {
                        *sent_at = crate::now_micros();
                    }
                    ring.record(Span {
                        trace_id: id,
                        start_micros: sent_at.saturating_sub(queueing_delay_micros),
                        dur_micros: queueing_delay_micros,
                        stage: STAGE_BUFFER_WAIT,
                        track: *track,
                    });
                }
                id
            }
            Mode::EveryN { every } => (*every > 0 && frame_no.is_multiple_of(*every))
                .then(|| mint_every_n_trace_id(link_id, frame_no)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_tagger_mints_on_sampled_seq_and_stamps_lazily() {
        let ring = Arc::new(SpanRing::new(64, 4));
        let track = ring.register_track("src");
        let t = TraceTagger::sampled(ring.clone(), track, true);
        let mut sent_at = 0u64;
        // Batch [0, 3): covers seq 0, which is sampled at 1-in-4.
        let id = t.tag_batch(9, 0, 3, 0, 250, &mut sent_at);
        assert_eq!(id, Some(mint_sampled_trace_id(9, 0)));
        assert!(sent_at > 0, "traced batch must stamp sent-at lazily");
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].stage, STAGE_BUFFER_WAIT);
        assert_eq!(spans[0].dur_micros, 250);
        // Batch [5, 7): covers no multiple of 4 — untraced, unstamped.
        let mut sent_at = 0u64;
        assert_eq!(t.tag_batch(9, 5, 2, 1, 0, &mut sent_at), None);
        assert_eq!(sent_at, 0, "untraced batch pays no clock read");
    }

    #[test]
    fn sampled_tagger_propagates_tags_over_minting() {
        let ring = Arc::new(SpanRing::new(64, 1));
        let t = TraceTagger::sampled(ring.clone(), ring.register_track("relay"), false);
        let mut sent_at = 7u64;
        assert_eq!(t.tag_batch(1, 0, 1, 0, 0, &mut sent_at), None, "no tag, no origination");
        t.tag_inbound(0xBEEF);
        assert_eq!(t.tag_batch(1, 1, 1, 1, 0, &mut sent_at), Some(0xBEEF));
        assert_eq!(t.tag_batch(1, 2, 1, 2, 0, &mut sent_at), None, "tag consumed");
        assert_eq!(sent_at, 7, "pre-stamped batches keep their stamp");
    }

    #[test]
    fn every_n_tagger_traces_by_frame_ordinal() {
        let t = TraceTagger::every_n(4);
        let mut sent_at = 0u64;
        assert_eq!(t.tag_batch(3, 0, 1, 0, 0, &mut sent_at), Some(mint_every_n_trace_id(3, 0)));
        assert_eq!(t.tag_batch(3, 1, 1, 1, 0, &mut sent_at), None);
        assert_eq!(t.tag_batch(3, 4, 1, 4, 0, &mut sent_at), Some(mint_every_n_trace_id(3, 4)));
        assert_eq!(sent_at, 0, "every-N tagging never stamps sender-side");
        t.tag_inbound(0xDEAD);
        assert_eq!(t.tag_batch(3, 5, 1, 5, 0, &mut sent_at), None, "every-N never propagates");
        let off = TraceTagger::every_n(0);
        assert_eq!(off.tag_batch(3, 0, 1, 0, 0, &mut sent_at), None);
    }
}
