//! Aligned checkpoints: snapshot stores, the checkpoint codec, and the
//! coordinator that assembles per-instance reports into consistent cuts.
//!
//! The protocol is classic Chandy–Lamport alignment, specialized to
//! NEPTUNE's graph runtime:
//!
//! 1. A timer on the IO tier starts a round by bumping the pending
//!    checkpoint id. Each source pump observes the bump at a stint
//!    boundary, snapshots its source's [`OperatorState`], force-flushes
//!    buffered data, then emits a **barrier control frame**
//!    (`ControlKind::Barrier`, checkpoint id in `base_seq`) on every
//!    outgoing channel — so the barrier travels *behind* everything the
//!    source emitted before it.
//! 2. A processor instance receiving a barrier on one input channel
//!    stops draining that channel (frames arriving behind the barrier
//!    are stashed) until the same barrier has arrived on **every**
//!    input channel. At alignment it snapshots its own state, forwards
//!    the barrier downstream, reports to the [`CheckpointCoordinator`],
//!    and only then replays the stash. Everything the snapshot saw is
//!    pre-barrier; everything stashed is post-barrier: a consistent cut.
//! 3. The coordinator completes the round when every participant has
//!    reported, encodes the cut — operator state blobs plus the
//!    receive-side dedup cursors from `ReliableIngress` — and hands it
//!    to the configured [`SnapshotStore`].
//!
//! The dedup cursors are what make restore *exactly-once* end to end:
//! PR 3's replay buffer re-sends frames a restored consumer may already
//! have folded into its state, and the restored cursors classify
//! exactly those as duplicates.
//!
//! [`OperatorState`]: crate::state::OperatorState

use crate::state::{put_bytes, OperatorState, StateError, StateReader};
use neptune_telemetry::{HistogramSnapshot, LatencyHistogram};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Checkpoint id carried by the final barrier a finishing source emits:
/// a channel that saw it is aligned for every future round, so
/// downstream alignment never waits on a closed channel.
pub const FINAL_BARRIER: u64 = u64::MAX;

/// One operator instance's contribution to a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceState {
    /// Operator name from the graph.
    pub operator: String,
    /// Instance index within the operator.
    pub instance: u32,
    /// [`OperatorState::state_kind`] at snapshot time, re-checked on
    /// restore so a topology edit cannot feed an operator foreign state.
    pub kind: String,
    /// [`OperatorState::state_version`] at snapshot time.
    pub version: u32,
    /// The serialized state.
    pub blob: Vec<u8>,
}

impl InstanceState {
    /// Capture `state` for (`operator`, `instance`).
    pub fn capture(operator: &str, instance: u32, state: &dyn OperatorState) -> Self {
        let mut blob = Vec::new();
        state.snapshot_state(&mut blob);
        InstanceState {
            operator: operator.to_string(),
            instance,
            kind: state.state_kind().to_string(),
            version: state.state_version(),
            blob,
        }
    }

    /// Restore this contribution into `state`, checking the kind first.
    pub fn restore_into(&self, state: &mut dyn OperatorState) -> Result<(), StateError> {
        if state.state_kind() != self.kind {
            return Err(StateError::Corrupt(format!(
                "snapshot holds {:?} state but operator {}[{}] expects {:?}",
                self.kind,
                self.operator,
                self.instance,
                state.state_kind()
            )));
        }
        state.restore_state(self.version, &self.blob)
    }
}

/// A completed consistent cut: every participant's state plus the
/// receive-side dedup cursors, under one checkpoint id.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckpointSnapshot {
    /// The round this cut belongs to.
    pub checkpoint_id: u64,
    /// Per-instance state contributions, sorted by (operator, instance).
    pub states: Vec<InstanceState>,
    /// `(link_id, next_seq)` dedup watermarks captured at alignment,
    /// sorted by link — see `ReliableIngress::cursors`.
    pub cursors: Vec<(u64, u64)>,
}

/// Magic prefixing every encoded snapshot (`"NCKP"`).
const SNAPSHOT_MAGIC: [u8; 4] = *b"NCKP";
/// Version of the snapshot container format itself (not of any one
/// operator's blob — those carry their own versions).
const SNAPSHOT_FORMAT: u32 = 1;

impl CheckpointSnapshot {
    /// The contribution for (`operator`, `instance`), if present.
    pub fn state_for(&self, operator: &str, instance: u32) -> Option<&InstanceState> {
        self.states.iter().find(|s| s.operator == operator && s.instance == instance)
    }

    /// Total bytes of operator state in this cut.
    pub fn state_bytes(&self) -> usize {
        self.states.iter().map(|s| s.blob.len()).sum()
    }

    /// Encode to the stable little-endian container format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.state_bytes());
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_FORMAT.to_le_bytes());
        out.extend_from_slice(&self.checkpoint_id.to_le_bytes());
        out.extend_from_slice(&(self.states.len() as u32).to_le_bytes());
        for s in &self.states {
            put_bytes(&mut out, s.operator.as_bytes());
            out.extend_from_slice(&s.instance.to_le_bytes());
            put_bytes(&mut out, s.kind.as_bytes());
            out.extend_from_slice(&s.version.to_le_bytes());
            put_bytes(&mut out, &s.blob);
        }
        out.extend_from_slice(&(self.cursors.len() as u32).to_le_bytes());
        for &(link, next) in &self.cursors {
            out.extend_from_slice(&link.to_le_bytes());
            out.extend_from_slice(&next.to_le_bytes());
        }
        out
    }

    /// Decode an [`encode`](Self::encode)d snapshot, validating magic,
    /// format version, and exact length.
    pub fn decode(bytes: &[u8]) -> Result<Self, StateError> {
        let mut r = StateReader::new(bytes);
        let magic = [r.u8()?, r.u8()?, r.u8()?, r.u8()?];
        if magic != SNAPSHOT_MAGIC {
            return Err(StateError::Corrupt(format!("bad snapshot magic {magic:02x?}")));
        }
        let format = r.u32()?;
        if format != SNAPSHOT_FORMAT {
            return Err(StateError::VersionMismatch { supported: SNAPSHOT_FORMAT, found: format });
        }
        let checkpoint_id = r.u64()?;
        let n_states = r.u32()?;
        let mut states = Vec::with_capacity(n_states as usize);
        for _ in 0..n_states {
            let operator = String::from_utf8(r.bytes()?.to_vec())
                .map_err(|_| StateError::Corrupt("operator name not utf-8".into()))?;
            let instance = r.u32()?;
            let kind = String::from_utf8(r.bytes()?.to_vec())
                .map_err(|_| StateError::Corrupt("state kind not utf-8".into()))?;
            let version = r.u32()?;
            let blob = r.bytes()?.to_vec();
            states.push(InstanceState { operator, instance, kind, version, blob });
        }
        let n_cursors = r.u32()?;
        let mut cursors = Vec::with_capacity(n_cursors as usize);
        for _ in 0..n_cursors {
            cursors.push((r.u64()?, r.u64()?));
        }
        r.finish()?;
        Ok(CheckpointSnapshot { checkpoint_id, states, cursors })
    }
}

/// Where completed checkpoints live. Implementations must make `put`
/// atomic per checkpoint: a concurrent `latest` sees either the whole
/// snapshot or the previous one, never a torn write.
pub trait SnapshotStore: Send + Sync {
    /// Persist a completed snapshot, pruning beyond the retention bound.
    fn put(&self, snapshot: &CheckpointSnapshot) -> io::Result<()>;
    /// The newest stored snapshot, if any.
    fn latest(&self) -> io::Result<Option<CheckpointSnapshot>>;
    /// The stored snapshot with this id, if retained.
    fn get(&self, checkpoint_id: u64) -> io::Result<Option<CheckpointSnapshot>>;
    /// Retained checkpoint ids, ascending.
    fn list(&self) -> io::Result<Vec<u64>>;
}

fn corrupt(e: StateError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// In-process store: survives operator restarts within a job, dies with
/// the process. Stores the *encoded* form so both store flavours
/// exercise the same codec path.
pub struct MemorySnapshotStore {
    retain: usize,
    snapshots: Mutex<BTreeMap<u64, Vec<u8>>>,
}

impl MemorySnapshotStore {
    /// A store retaining the newest `retain` checkpoints.
    pub fn new(retain: usize) -> Self {
        MemorySnapshotStore { retain: retain.max(1), snapshots: Mutex::new(BTreeMap::new()) }
    }
}

impl SnapshotStore for MemorySnapshotStore {
    fn put(&self, snapshot: &CheckpointSnapshot) -> io::Result<()> {
        let mut map = self.snapshots.lock();
        map.insert(snapshot.checkpoint_id, snapshot.encode());
        while map.len() > self.retain {
            let oldest = *map.keys().next().expect("nonempty map");
            map.remove(&oldest);
        }
        Ok(())
    }

    fn latest(&self) -> io::Result<Option<CheckpointSnapshot>> {
        match self.snapshots.lock().values().next_back() {
            Some(bytes) => Ok(Some(CheckpointSnapshot::decode(bytes).map_err(corrupt)?)),
            None => Ok(None),
        }
    }

    fn get(&self, checkpoint_id: u64) -> io::Result<Option<CheckpointSnapshot>> {
        match self.snapshots.lock().get(&checkpoint_id) {
            Some(bytes) => Ok(Some(CheckpointSnapshot::decode(bytes).map_err(corrupt)?)),
            None => Ok(None),
        }
    }

    fn list(&self) -> io::Result<Vec<u64>> {
        Ok(self.snapshots.lock().keys().copied().collect())
    }
}

/// File-backed store: one `ckpt-<id>.nckp` per checkpoint under a root
/// directory, written to a dot-prefixed temp file and atomically
/// renamed into place, so readers (and crashes mid-write) never observe
/// a torn snapshot.
pub struct FileSnapshotStore {
    dir: PathBuf,
    retain: usize,
}

impl FileSnapshotStore {
    /// A store rooted at `dir` (created on first `put`), retaining the
    /// newest `retain` checkpoints.
    pub fn new(dir: impl Into<PathBuf>, retain: usize) -> Self {
        FileSnapshotStore { dir: dir.into(), retain: retain.max(1) }
    }

    /// The root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, id: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{id:020}.nckp"))
    }

    /// Ids found on disk, ascending. Unrelated files are ignored.
    fn ids(&self) -> io::Result<Vec<u64>> {
        let mut ids = Vec::new();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(ids),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(id) = name.strip_prefix("ckpt-").and_then(|s| s.strip_suffix(".nckp")) {
                if let Ok(id) = id.parse::<u64>() {
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    fn read(&self, id: u64) -> io::Result<Option<CheckpointSnapshot>> {
        match std::fs::read(self.path_for(id)) {
            Ok(bytes) => Ok(Some(CheckpointSnapshot::decode(&bytes).map_err(corrupt)?)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }
}

impl SnapshotStore for FileSnapshotStore {
    fn put(&self, snapshot: &CheckpointSnapshot) -> io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let tmp = self.dir.join(format!(".ckpt-{:020}.tmp", snapshot.checkpoint_id));
        std::fs::write(&tmp, snapshot.encode())?;
        std::fs::rename(&tmp, self.path_for(snapshot.checkpoint_id))?;
        let ids = self.ids()?;
        if ids.len() > self.retain {
            for &old in &ids[..ids.len() - self.retain] {
                let _ = std::fs::remove_file(self.path_for(old));
            }
        }
        Ok(())
    }

    fn latest(&self) -> io::Result<Option<CheckpointSnapshot>> {
        match self.ids()?.last() {
            Some(&id) => self.read(id),
            None => Ok(None),
        }
    }

    fn get(&self, checkpoint_id: u64) -> io::Result<Option<CheckpointSnapshot>> {
        self.read(checkpoint_id)
    }

    fn list(&self) -> io::Result<Vec<u64>> {
        self.ids()
    }
}

/// Point-in-time view of checkpoint health, the `checkpoints` section of
/// both telemetry exports.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckpointStats {
    /// Rounds assembled, stored, and acknowledged.
    pub completed: u64,
    /// Rounds superseded before every participant reported (a source
    /// died mid-round, or injection lapped a slow participant).
    pub abandoned: u64,
    /// Store writes that failed (the round still counts as abandoned).
    pub store_failures: u64,
    /// Rounds currently collecting reports.
    pub in_flight: u64,
    /// Id of the newest completed round (`None` before the first).
    pub last_completed_id: Option<u64>,
    /// Microseconds since the newest completed round, at snapshot time.
    pub last_age_micros: Option<u64>,
    /// Injection-to-stored duration distribution, microseconds.
    pub duration_micros: HistogramSnapshot,
    /// Encoded snapshot size distribution, bytes.
    pub size_bytes: HistogramSnapshot,
}

/// One in-flight round's accumulating reports.
#[derive(Debug, Default)]
struct PendingRound {
    started_micros: u64,
    reported: usize,
    states: Vec<InstanceState>,
    cursors: Vec<(u64, u64)>,
}

/// Collects per-instance barrier reports into completed
/// [`CheckpointSnapshot`]s and maintains the stats the telemetry layer
/// exports.
///
/// Shared by every processor task and source pump in a job (behind an
/// `Arc`); all methods are thread-safe.
pub struct CheckpointCoordinator {
    store: Box<dyn SnapshotStore>,
    /// Total participants (source + processor instances) whose report
    /// completes a round.
    participants: usize,
    pending: Mutex<BTreeMap<u64, PendingRound>>,
    completed: AtomicU64,
    abandoned: AtomicU64,
    store_failures: AtomicU64,
    /// `last_id + 1` so 0 can mean "none yet".
    last_completed: AtomicU64,
    last_completed_micros: AtomicU64,
    duration: LatencyHistogram,
    size: LatencyHistogram,
}

impl CheckpointCoordinator {
    /// A coordinator completing rounds once `participants` instances
    /// have reported, persisting into `store`.
    pub fn new(store: Box<dyn SnapshotStore>, participants: usize) -> Self {
        CheckpointCoordinator {
            store,
            participants: participants.max(1),
            pending: Mutex::new(BTreeMap::new()),
            completed: AtomicU64::new(0),
            abandoned: AtomicU64::new(0),
            store_failures: AtomicU64::new(0),
            last_completed: AtomicU64::new(0),
            last_completed_micros: AtomicU64::new(0),
            duration: LatencyHistogram::new(),
            size: LatencyHistogram::new(),
        }
    }

    /// Number of participants whose reports complete a round.
    pub fn participants(&self) -> usize {
        self.participants
    }

    /// Mark the start of round `checkpoint_id` (called by the barrier
    /// timer at injection; `now_micros` stamps the duration baseline).
    pub fn begin(&self, checkpoint_id: u64, now_micros: u64) {
        self.pending
            .lock()
            .entry(checkpoint_id)
            .or_insert_with(|| PendingRound { started_micros: now_micros, ..Default::default() });
    }

    /// One participant's contribution to round `checkpoint_id`: its
    /// state blobs (possibly empty for stateless operators) and any
    /// ingress dedup cursors it owns. Completes — stores — the round
    /// when this is the final outstanding report.
    ///
    /// [`FINAL_BARRIER`] reports are alignment bookkeeping only and are
    /// ignored here.
    pub fn report(
        &self,
        checkpoint_id: u64,
        now_micros: u64,
        states: Vec<InstanceState>,
        cursors: Vec<(u64, u64)>,
    ) {
        if checkpoint_id == FINAL_BARRIER {
            return;
        }
        let complete = {
            let mut pending = self.pending.lock();
            let round = pending.entry(checkpoint_id).or_insert_with(|| PendingRound {
                started_micros: now_micros,
                ..Default::default()
            });
            round.reported += 1;
            round.states.extend(states);
            round.cursors.extend(cursors);
            if round.reported < self.participants {
                None
            } else {
                let round = pending.remove(&checkpoint_id).expect("entry just touched");
                // Older rounds can no longer complete in order; a newer
                // completed cut supersedes them.
                let stale: Vec<u64> = pending.range(..checkpoint_id).map(|(&id, _)| id).collect();
                for id in stale {
                    pending.remove(&id);
                    self.abandoned.fetch_add(1, Ordering::Relaxed);
                }
                Some(round)
            }
        };
        let Some(round) = complete else { return };
        let mut snapshot =
            CheckpointSnapshot { checkpoint_id, states: round.states, cursors: round.cursors };
        snapshot.states.sort_by(|a, b| {
            (a.operator.as_str(), a.instance).cmp(&(b.operator.as_str(), b.instance))
        });
        snapshot.cursors.sort_unstable();
        // Parallel senders on one link report independent cursor reads;
        // the highest watermark wins (cursors only advance).
        snapshot.cursors.dedup_by(|next, kept| {
            if next.0 == kept.0 {
                kept.1 = kept.1.max(next.1);
                true
            } else {
                false
            }
        });
        self.size.record(snapshot.encode().len() as u64);
        match self.store.put(&snapshot) {
            Ok(()) => {
                self.completed.fetch_add(1, Ordering::Relaxed);
                self.last_completed.store(checkpoint_id + 1, Ordering::Release);
                self.last_completed_micros.store(now_micros, Ordering::Release);
                self.duration.record(now_micros.saturating_sub(round.started_micros));
            }
            Err(_) => {
                self.store_failures.fetch_add(1, Ordering::Relaxed);
                self.abandoned.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The newest completed snapshot from the backing store.
    pub fn latest(&self) -> io::Result<Option<CheckpointSnapshot>> {
        self.store.latest()
    }

    /// Rounds completed so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Current stats for telemetry export; `now_micros` anchors the
    /// age-of-last-checkpoint gauge.
    pub fn stats(&self, now_micros: u64) -> CheckpointStats {
        let last = self.last_completed.load(Ordering::Acquire);
        let last_completed_id = last.checked_sub(1);
        let last_age_micros = last_completed_id
            .map(|_| now_micros.saturating_sub(self.last_completed_micros.load(Ordering::Acquire)));
        CheckpointStats {
            completed: self.completed.load(Ordering::Relaxed),
            abandoned: self.abandoned.load(Ordering::Relaxed),
            store_failures: self.store_failures.load(Ordering::Relaxed),
            in_flight: self.pending.lock().len() as u64,
            last_completed_id,
            last_age_micros,
            duration_micros: self.duration.snapshot(),
            size_bytes: self.size.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::KeyedState;

    fn sample_snapshot(id: u64) -> CheckpointSnapshot {
        let mut s = KeyedState::new();
        s.put(b"k".to_vec(), b"v".to_vec());
        CheckpointSnapshot {
            checkpoint_id: id,
            states: vec![
                InstanceState::capture("agg", 0, &s),
                InstanceState {
                    operator: "agg".into(),
                    instance: 1,
                    kind: "keyed-state".into(),
                    version: 1,
                    blob: vec![0; 8],
                },
            ],
            cursors: vec![(3, 100), (9, 7)],
        }
    }

    #[test]
    fn snapshot_codec_round_trips_and_rejects_corruption() {
        let snap = sample_snapshot(42);
        let bytes = snap.encode();
        assert_eq!(CheckpointSnapshot::decode(&bytes).unwrap(), snap);
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(CheckpointSnapshot::decode(&bad), Err(StateError::Corrupt(_))));
        // Future container format.
        let mut newer = bytes.clone();
        newer[4..8].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            CheckpointSnapshot::decode(&newer),
            Err(StateError::VersionMismatch { supported: 1, found: 9 })
        ));
        // Truncation and trailing garbage.
        assert!(CheckpointSnapshot::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(CheckpointSnapshot::decode(&long).is_err());
    }

    #[test]
    fn instance_state_restores_and_checks_kind() {
        let mut orig = KeyedState::new();
        orig.put(b"a".to_vec(), b"1".to_vec());
        let cap = InstanceState::capture("op", 3, &orig);
        assert_eq!(cap.kind, "keyed-state");
        let mut restored = KeyedState::new();
        cap.restore_into(&mut restored).unwrap();
        assert_eq!(restored, orig);
        let mut wrong = crate::window::TumblingWindow::new(1_000);
        assert!(matches!(cap.restore_into(&mut wrong), Err(StateError::Corrupt(_))));
    }

    #[test]
    fn memory_store_retains_newest() {
        let store = MemorySnapshotStore::new(2);
        assert!(store.latest().unwrap().is_none());
        for id in 1..=4 {
            store.put(&sample_snapshot(id)).unwrap();
        }
        assert_eq!(store.list().unwrap(), vec![3, 4]);
        assert_eq!(store.latest().unwrap().unwrap().checkpoint_id, 4);
        assert!(store.get(1).unwrap().is_none(), "pruned");
        assert_eq!(store.get(3).unwrap().unwrap(), sample_snapshot(3));
    }

    #[test]
    fn file_store_round_trips_prunes_and_ignores_strangers() {
        let dir = std::env::temp_dir().join(format!("neptune-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FileSnapshotStore::new(&dir, 2);
        assert!(store.latest().unwrap().is_none(), "missing dir is empty, not an error");
        for id in 1..=3 {
            store.put(&sample_snapshot(id)).unwrap();
        }
        std::fs::write(dir.join("README"), b"not a checkpoint").unwrap();
        assert_eq!(store.list().unwrap(), vec![2, 3]);
        assert_eq!(store.latest().unwrap().unwrap(), sample_snapshot(3));
        // A fresh handle over the same directory sees the same state —
        // the kill-and-resume path.
        let reopened = FileSnapshotStore::new(&dir, 2);
        assert_eq!(reopened.latest().unwrap().unwrap().checkpoint_id, 3);
        // Corrupt file surfaces as InvalidData rather than a panic.
        std::fs::write(store.path_for(9), b"torn").unwrap();
        assert_eq!(store.get(9).unwrap_err().kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn coordinator_completes_rounds_and_abandons_stale_ones() {
        let coord = CheckpointCoordinator::new(Box::new(MemorySnapshotStore::new(4)), 2);
        coord.begin(1, 1_000);
        coord.begin(2, 2_000);
        // Round 1 gets only one of two reports; round 2 completes first.
        coord.report(1, 1_100, vec![], vec![(5, 10)]);
        coord.report(2, 2_100, vec![], vec![(5, 20)]);
        coord.report(2, 2_500, vec![InstanceState::capture("w", 0, &KeyedState::new())], vec![]);
        let stats = coord.stats(3_000);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.abandoned, 1, "round 1 superseded by round 2");
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.last_completed_id, Some(2));
        assert_eq!(stats.last_age_micros, Some(500), "3000 - completion at 2500");
        assert_eq!(stats.duration_micros.count(), 1);
        assert_eq!(stats.duration_micros.max(), 500, "2500 - begin at 2000");
        assert!(stats.size_bytes.max() > 0);
        let latest = coord.latest().unwrap().unwrap();
        assert_eq!(latest.checkpoint_id, 2);
        assert_eq!(latest.cursors, vec![(5, 20)], "duplicate link cursors keep the max");
        assert!(latest.state_for("w", 0).is_some());
        // FINAL_BARRIER reports are ignored.
        coord.report(FINAL_BARRIER, 9_000, vec![], vec![]);
        assert_eq!(coord.stats(9_000).in_flight, 0);
    }

    #[test]
    fn coordinator_reports_before_begin_still_complete() {
        // A participant can outrun the timer's begin() bookkeeping.
        let coord = CheckpointCoordinator::new(Box::new(MemorySnapshotStore::new(4)), 1);
        coord.report(7, 5_000, vec![], vec![]);
        assert_eq!(coord.completed(), 1);
        assert_eq!(coord.latest().unwrap().unwrap().checkpoint_id, 7);
    }

    #[test]
    fn empty_stats_have_no_last_checkpoint() {
        let coord = CheckpointCoordinator::new(Box::new(MemorySnapshotStore::new(1)), 3);
        let stats = coord.stats(1_000);
        assert_eq!(stats, CheckpointStats::default());
        assert_eq!(stats.last_completed_id, None);
        assert_eq!(stats.last_age_micros, None);
    }
}
