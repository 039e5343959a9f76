//! Checkpoint/replay durability: serialized session snapshots and the
//! stores that hold them.
//!
//! A Lynceus session's full state is small and explicit — the search state
//! `Σ = ⟨S, T, β, χ⟩`, the seed, the RNG position, the remaining bootstrap
//! plan, the exploration log, the receipt trail and the oracle's durable
//! cursor — so the whole thing serializes in a few kilobytes with the
//! [`crate::codec`] wire format. [`crate::service::TuningService`] writes a
//! [`SessionCheckpoint`] at every decision boundary; a killed process calls
//! [`crate::service::TuningService::restore`] and every session resumes from
//! its latest checkpoint, finishing with a report **bit-identical** to the
//! uninterrupted run (the surrogate is rebuilt from the checkpointed
//! training set via the exact incremental refit, so no model state needs to
//! be persisted).
//!
//! Two stores ship with the crate: [`MemoryStore`] (in-process, used by the
//! kill-and-resume suites) and [`DirStore`] (one file per session,
//! write-temp-then-rename so a crash mid-write never corrupts the previous
//! checkpoint).

use crate::codec::{CodecError, Decoder, Encoder};
use crate::optimizer::Exploration;
use crate::oracle::Observation;
use crate::receipt::DecisionReceipt;
use crate::state::TestedConfig;
use lynceus_space::ConfigId;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;

/// File magic of the checkpoint format.
const MAGIC: [u8; 4] = *b"LYNC";
/// Format version; bumped on any wire-format change. Version 2 added the
/// cross-run knowledge fields (attached prior, harvested anchor keys);
/// version 3 dropped the two anchor keys. [`SessionCheckpoint::decode`]
/// still reads version 2 and discards the keys, so an upgrade strands no
/// suspended session; [`SessionCheckpoint::encode`] writes only the current
/// version.
const VERSION: u32 = 3;
/// The oldest version [`SessionCheckpoint::decode`] still reads.
const VERSION_WITH_ANCHOR_KEYS: u32 = 2;

/// A serialized-state snapshot of one session at a decision boundary.
///
/// The snapshot holds everything a bit-identical resume needs: seed, step
/// count, RNG position, the remaining bootstrap plan, the full search state
/// (training set, untested order, budget bits, deployed configuration), the
/// exploration log, the receipt trail, the retry ledger and the oracle's
/// opaque durable state (e.g. a fault-plan cursor). The surrogate ensemble
/// is deliberately absent: rebuilding it from the checkpointed training set
/// is bit-identical to the incremental refits of the uninterrupted run.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCheckpoint {
    pub(crate) seed: u64,
    pub(crate) steps: u64,
    pub(crate) attempts_used: u32,
    pub(crate) pending_faults: u32,
    pub(crate) pending_retries: u32,
    pub(crate) rng_state: [u64; 4],
    pub(crate) bootstrap_plan: Vec<Vec<usize>>,
    pub(crate) tested: Vec<TestedConfig>,
    /// The untested ids **in their live order**: `SearchState::record`
    /// swap-removes, so the order is history-dependent and tie-breaks
    /// acquisition scores — it must be restored exactly, not recomputed.
    pub(crate) untested: Vec<ConfigId>,
    pub(crate) budget_initial: f64,
    pub(crate) budget_remaining: f64,
    pub(crate) current: Option<ConfigId>,
    pub(crate) explorations: Vec<Exploration>,
    pub(crate) receipts: Vec<DecisionReceipt>,
    pub(crate) oracle_state: Option<Vec<u8>>,
    /// The knowledge record attached at admission, carried verbatim so a
    /// killed warm session resumes bit-identically from the checkpoint
    /// alone — independent of whatever the knowledge store holds by then.
    pub(crate) prior: Option<crate::transfer::JobKnowledge>,
}

impl SessionCheckpoint {
    /// The seed the session was created with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of profiling steps completed at the snapshot.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The receipt trail up to the snapshot.
    #[must_use]
    pub fn receipts(&self) -> &[DecisionReceipt] {
        &self.receipts
    }

    /// Serializes the snapshot.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_bytes(&MAGIC);
        enc.put_u32(VERSION);
        enc.put_u64(self.seed);
        enc.put_u64(self.steps);
        enc.put_u32(self.attempts_used);
        enc.put_u32(self.pending_faults);
        enc.put_u32(self.pending_retries);
        for word in self.rng_state {
            enc.put_u64(word);
        }
        enc.put_usize(self.bootstrap_plan.len());
        for sample in &self.bootstrap_plan {
            enc.put_usize(sample.len());
            for &level in sample {
                enc.put_usize(level);
            }
        }
        enc.put_usize(self.tested.len());
        for t in &self.tested {
            enc.put_usize(t.id.index());
            enc.put_f64(t.cost);
            enc.put_bool(t.feasible);
        }
        enc.put_usize(self.untested.len());
        for id in &self.untested {
            enc.put_usize(id.index());
        }
        enc.put_f64(self.budget_initial);
        enc.put_f64(self.budget_remaining);
        match self.current {
            Some(id) => {
                enc.put_bool(true);
                enc.put_usize(id.index());
            }
            None => enc.put_bool(false),
        }
        enc.put_usize(self.explorations.len());
        for e in &self.explorations {
            enc.put_usize(e.id.index());
            enc.put_f64(e.observation.runtime_seconds);
            enc.put_f64(e.observation.cost);
            enc.put_usize(e.observation.metrics.len());
            for &metric in &e.observation.metrics {
                enc.put_f64(metric);
            }
            enc.put_bool(e.bootstrap);
        }
        enc.put_usize(self.receipts.len());
        for receipt in &self.receipts {
            receipt.encode_into(&mut enc);
        }
        match &self.oracle_state {
            Some(bytes) => {
                enc.put_bool(true);
                enc.put_bytes(bytes);
            }
            None => enc.put_bool(false),
        }
        match &self.prior {
            Some(prior) => {
                enc.put_bool(true);
                enc.put_bytes(&prior.encode());
            }
            None => enc.put_bool(false),
        }
        enc.finish()
    }

    /// Deserializes a snapshot.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated input, a magic/version
    /// mismatch, or any malformed field — a corrupt checkpoint degrades to a
    /// recoverable per-session error, never a panic.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Decoder::new(bytes);
        if dec.get_bytes()? != MAGIC {
            return Err(CodecError::Invalid("not a Lynceus checkpoint"));
        }
        let version = dec.get_u32()?;
        if version != VERSION && version != VERSION_WITH_ANCHOR_KEYS {
            return Err(CodecError::Invalid("unsupported checkpoint version"));
        }
        let seed = dec.get_u64()?;
        let steps = dec.get_u64()?;
        let attempts_used = dec.get_u32()?;
        let pending_faults = dec.get_u32()?;
        let pending_retries = dec.get_u32()?;
        let mut rng_state = [0u64; 4];
        for word in &mut rng_state {
            *word = dec.get_u64()?;
        }
        let plan_len = dec.get_usize()?;
        let mut bootstrap_plan = Vec::with_capacity(plan_len.min(1024));
        for _ in 0..plan_len {
            let sample_len = dec.get_usize()?;
            let mut sample = Vec::with_capacity(sample_len.min(1024));
            for _ in 0..sample_len {
                sample.push(dec.get_usize()?);
            }
            bootstrap_plan.push(sample);
        }
        let tested_len = dec.get_usize()?;
        let mut tested = Vec::with_capacity(tested_len.min(4096));
        for _ in 0..tested_len {
            let id = ConfigId(dec.get_usize()?);
            let cost = dec.get_f64()?;
            let feasible = dec.get_bool()?;
            tested.push(TestedConfig { id, cost, feasible });
        }
        let untested_len = dec.get_usize()?;
        let mut untested = Vec::with_capacity(untested_len.min(65_536));
        for _ in 0..untested_len {
            untested.push(ConfigId(dec.get_usize()?));
        }
        let budget_initial = dec.get_f64()?;
        let budget_remaining = dec.get_f64()?;
        let current = if dec.get_bool()? {
            Some(ConfigId(dec.get_usize()?))
        } else {
            None
        };
        let explorations_len = dec.get_usize()?;
        let mut explorations = Vec::with_capacity(explorations_len.min(4096));
        for _ in 0..explorations_len {
            let id = ConfigId(dec.get_usize()?);
            let runtime_seconds = dec.get_f64()?;
            let cost = dec.get_f64()?;
            let metrics_len = dec.get_usize()?;
            let mut metrics = Vec::with_capacity(metrics_len.min(1024));
            for _ in 0..metrics_len {
                metrics.push(dec.get_f64()?);
            }
            let bootstrap = dec.get_bool()?;
            explorations.push(Exploration {
                id,
                observation: Observation::new(runtime_seconds, cost).with_metrics(metrics),
                bootstrap,
            });
        }
        let receipts_len = dec.get_usize()?;
        let mut receipts = Vec::with_capacity(receipts_len.min(4096));
        for _ in 0..receipts_len {
            receipts.push(DecisionReceipt::decode_from(&mut dec)?);
        }
        let oracle_state = if dec.get_bool()? {
            Some(dec.get_bytes()?.to_vec())
        } else {
            None
        };
        let prior = if dec.get_bool()? {
            Some(crate::transfer::JobKnowledge::decode(dec.get_bytes()?)?)
        } else {
            None
        };
        if version == VERSION_WITH_ANCHOR_KEYS {
            // The harvested incumbent and tail keys no decision reads.
            dec.get_u64()?;
            dec.get_u64()?;
        }
        if !dec.is_finished() {
            return Err(CodecError::Invalid("trailing bytes after the checkpoint"));
        }
        Ok(Self {
            seed,
            steps,
            attempts_used,
            pending_faults,
            pending_retries,
            rng_state,
            bootstrap_plan,
            tested,
            untested,
            budget_initial,
            budget_remaining,
            current,
            explorations,
            receipts,
            oracle_state,
            prior,
        })
    }
}

/// Where session checkpoints live, keyed by **session name** (submit two
/// sessions under one name to the same store and the later checkpoint wins —
/// name sessions uniquely when durability is on).
pub trait CheckpointStore: Send + Sync {
    /// Persists the latest checkpoint for a session, replacing any previous
    /// one.
    fn save(&self, name: &str, bytes: &[u8]);
    /// The latest checkpoint for a session, if one exists.
    fn load(&self, name: &str) -> Option<Vec<u8>>;
    /// Drops a session's checkpoint (called when the session finishes).
    fn remove(&self, name: &str);
}

/// An in-process checkpoint store. Process-lifetime durability only — the
/// store the kill-and-resume suites use to simulate restarts cheaply.
#[derive(Debug, Default)]
pub struct MemoryStore {
    entries: Mutex<HashMap<String, Vec<u8>>>,
}

impl MemoryStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of sessions with a stored checkpoint.
    #[must_use]
    pub fn len(&self) -> usize {
        crate::poison::lock(&self.entries).len()
    }

    /// True when nothing is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl CheckpointStore for MemoryStore {
    fn save(&self, name: &str, bytes: &[u8]) {
        crate::poison::lock(&self.entries).insert(name.to_owned(), bytes.to_vec());
    }

    fn load(&self, name: &str) -> Option<Vec<u8>> {
        crate::poison::lock(&self.entries).get(name).cloned()
    }

    fn remove(&self, name: &str) {
        crate::poison::lock(&self.entries).remove(name);
    }
}

/// A directory-backed checkpoint store: one `<sanitized-name>-<hash>.ckpt`
/// file per session, written to a temp file and atomically renamed into
/// place, so a crash mid-write leaves the previous checkpoint intact.
#[derive(Debug)]
pub struct DirStore {
    dir: PathBuf,
}

impl DirStore {
    /// A store rooted at `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The file a session's checkpoint lives in. Session names are
    /// arbitrary strings; the filename keeps an alphanumeric prefix for
    /// legibility and appends an FNV-1a hash of the full name so distinct
    /// names never collide.
    #[must_use]
    pub fn path_for(&self, name: &str) -> PathBuf {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in name.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let prefix: String = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .take(48)
            .collect();
        self.dir.join(format!("{prefix}-{hash:016x}.ckpt"))
    }
}

impl CheckpointStore for DirStore {
    fn save(&self, name: &str, bytes: &[u8]) {
        let path = self.path_for(name);
        let temp = path.with_extension("ckpt.tmp");
        // Durability is best-effort by contract: the in-memory copy the
        // scheduler holds stays authoritative for the current process, so a
        // failed write degrades durability across restarts, nothing else.
        if std::fs::write(&temp, bytes).is_ok() {
            let _ = std::fs::rename(&temp, &path);
        }
    }

    fn load(&self, name: &str) -> Option<Vec<u8>> {
        std::fs::read(self.path_for(name)).ok()
    }

    fn remove(&self, name: &str) {
        let _ = std::fs::remove_file(self.path_for(name));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> SessionCheckpoint {
        SessionCheckpoint {
            seed: 7,
            steps: 4,
            attempts_used: 1,
            pending_faults: 1,
            pending_retries: 1,
            rng_state: [1, 2, 3, 4],
            bootstrap_plan: vec![vec![0, 2], vec![1, 1]],
            tested: vec![TestedConfig {
                id: ConfigId(5),
                cost: 12.5,
                feasible: true,
            }],
            untested: vec![ConfigId(1), ConfigId(9), ConfigId(0)],
            budget_initial: 100.0,
            budget_remaining: 87.5,
            current: Some(ConfigId(5)),
            explorations: vec![Exploration {
                id: ConfigId(5),
                observation: Observation::new(12.5, 12.5).with_metrics(vec![0.25]),
                bootstrap: true,
            }],
            receipts: vec![DecisionReceipt {
                step: 0,
                chosen: ConfigId(5),
                bootstrap: true,
                gamma_size: 0,
                incumbent: Some(12.5),
                budget_before: 100.0,
                budget_after: 87.5,
                candidates: 0,
                pruned: 0,
                deep_pruned: 0,
                faults_observed: 0,
                retries_consumed: 0,
            }],
            oracle_state: Some(vec![9, 9, 9]),
            prior: None,
        }
    }

    #[test]
    fn checkpoint_codec_round_trips() {
        let original = snapshot();
        let bytes = original.encode();
        let back = SessionCheckpoint::decode(&bytes).unwrap();
        assert_eq!(back, original);
        assert_eq!(back.seed(), 7);
        assert_eq!(back.steps(), 4);
        assert_eq!(back.receipts().len(), 1);

        let mut no_oracle = snapshot();
        no_oracle.oracle_state = None;
        no_oracle.current = None;
        let back = SessionCheckpoint::decode(&no_oracle.encode()).unwrap();
        assert_eq!(back, no_oracle);
    }

    #[test]
    fn warm_checkpoint_round_trips_the_prior() {
        let mut warm = snapshot();
        warm.prior = Some(crate::transfer::JobKnowledge {
            job_key: "nightly".to_owned(),
            runs: 1,
            ensemble_seed: 7,
            observations: vec![crate::transfer::PriorObservation {
                id: ConfigId(2),
                runtime_seconds: 8.0,
                cost: 2.0,
                metrics: vec![1.5],
            }],
        });
        let back = SessionCheckpoint::decode(&warm.encode()).unwrap();
        assert_eq!(back, warm);
        // A corrupt nested prior fails the whole checkpoint cleanly.
        let good = warm.encode();
        for cut in 1..good.len() {
            assert!(SessionCheckpoint::decode(&good[..cut]).is_err());
        }
    }

    #[test]
    fn every_truncation_fails_cleanly() {
        let bytes = snapshot().encode();
        for cut in 0..bytes.len() {
            assert!(
                SessionCheckpoint::decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        // Trailing garbage is rejected too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(SessionCheckpoint::decode(&padded).is_err());
    }

    #[test]
    fn foreign_magic_and_versions_are_rejected() {
        let mut bytes = snapshot().encode();
        bytes[8] = b'X'; // first magic byte (after the length prefix)
        assert!(matches!(
            SessionCheckpoint::decode(&bytes),
            Err(CodecError::Invalid("not a Lynceus checkpoint"))
        ));
        let mut bytes = snapshot().encode();
        bytes[12] = 0xFF; // version field
        assert!(matches!(
            SessionCheckpoint::decode(&bytes),
            Err(CodecError::Invalid("unsupported checkpoint version"))
        ));
    }

    #[test]
    fn memory_store_saves_loads_and_removes() {
        let store = MemoryStore::new();
        assert!(store.is_empty());
        assert_eq!(store.load("a"), None);
        store.save("a", &[1, 2]);
        store.save("b", &[3]);
        store.save("a", &[9]); // latest wins
        assert_eq!(store.len(), 2);
        assert_eq!(store.load("a"), Some(vec![9]));
        store.remove("a");
        assert_eq!(store.load("a"), None);
        assert_eq!(store.load("b"), Some(vec![3]));
    }

    #[test]
    fn dir_store_round_trips_atomically() {
        let dir = std::env::temp_dir().join(format!("lynceus-ckpt-{}", std::process::id()));
        let store = DirStore::new(&dir).unwrap();
        assert_eq!(store.load("job/with:odd chars"), None);
        store.save("job/with:odd chars", &[5, 6, 7]);
        assert_eq!(store.load("job/with:odd chars"), Some(vec![5, 6, 7]));
        // Distinct names that sanitize identically stay distinct (hash
        // suffix).
        store.save("job_with_odd chars", &[8]);
        assert_eq!(store.load("job/with:odd chars"), Some(vec![5, 6, 7]));
        assert_eq!(store.load("job_with_odd chars"), Some(vec![8]));
        store.remove("job/with:odd chars");
        assert_eq!(store.load("job/with:odd chars"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
