//! Cross-run knowledge transfer: the job-knowledge record and the stores
//! that persist it between runs of a *recurring* job.
//!
//! The paper's premise is that data-analytic jobs recur — the same Spark
//! job runs nightly, the same training job retrains weekly — so the cost of
//! tuning is amortized across executions. This module is the layer that
//! makes runs N and N+1 of one job talk to each other: a [`JobKnowledge`]
//! record carries the union of prior observations Σ and the surrogate's
//! seed material (so run N+1's ensemble extends run N's fits
//! bit-identically via the Poisson-count `refit_with` machinery).
//!
//! Nothing else crosses runs. Branch-and-bound pruning needs no carried
//! state: the replayed observations are part of the next run's Σ, so a
//! feasible one arms the pruning guard from decision one, and every
//! decision relearns its incumbent and tail anchor from zero — a stale
//! incumbent could over-prune, and a stale tail anchor never changed a
//! decision or a count on the recurring benchmark.
//!
//! Serialization reuses the [`crate::codec`] discipline with its own
//! versioned magic (`KNOW`), and the [`DirStore`] writes temp-then-rename
//! exactly like the checkpoint store, so a crash mid-harvest can never
//! leave a truncated knowledge file. The codec's float policy is explicit:
//! non-finite runtimes, costs or metrics (NaN, ±inf) are **rejected** at
//! decode — they could poison the warm surrogate — while subnormal values
//! are finite and round-trip bit-exactly.

use crate::codec::{CodecError, Decoder, Encoder};
use lynceus_space::ConfigId;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;

/// File magic of the knowledge format (distinct from the checkpoint's
/// `LYNC` so the two stores can never be cross-wired silently).
const MAGIC: [u8; 4] = *b"KNOW";
/// Format version; bumped on any wire-format change. Version 2 dropped
/// version 1's two anchor keys (the last run's incumbent and tail
/// `score_key`s). [`JobKnowledge::decode`] still reads version 1 and
/// discards the keys, so an upgrade strands no stored record;
/// [`JobKnowledge::encode`] writes only the current version.
const VERSION: u32 = 2;
/// The oldest version [`JobKnowledge::decode`] still reads.
const VERSION_WITH_ANCHOR_KEYS: u32 = 1;

/// One prior run's measurement of one configuration, replayed into the next
/// run's Σ without an oracle charge.
#[derive(Debug, Clone, PartialEq)]
pub struct PriorObservation {
    /// The configuration measured.
    pub id: ConfigId,
    /// Measured runtime (seconds); feasibility is re-derived against the
    /// *next* run's `tmax_seconds`, not frozen at harvest time.
    pub runtime_seconds: f64,
    /// Measured execution cost.
    pub cost: f64,
    /// Auxiliary metrics (constraint-model targets), in metric order.
    pub metrics: Vec<f64>,
}

impl PriorObservation {
    fn validate(&self) -> Result<(), CodecError> {
        if !self.runtime_seconds.is_finite() || self.runtime_seconds < 0.0 {
            return Err(CodecError::Invalid("non-finite prior runtime"));
        }
        if !self.cost.is_finite() || self.cost < 0.0 {
            return Err(CodecError::Invalid("non-finite prior cost"));
        }
        if self.metrics.iter().any(|m| !m.is_finite()) {
            return Err(CodecError::Invalid("non-finite prior metric"));
        }
        Ok(())
    }
}

/// Everything one run of a recurring job leaves behind for the next run.
///
/// Harvested by [`crate::service::TuningService`] at terminal-outcome
/// boundaries and attached at admit time; the attached copy also rides in
/// the session checkpoint so a killed warm session resumes bit-identically
/// even if the store mutates underneath it.
#[derive(Debug, Clone, PartialEq)]
pub struct JobKnowledge {
    /// The job identity key — sessions sharing a key share knowledge.
    pub job_key: String,
    /// Completed runs recorded into this record.
    pub runs: u64,
    /// Seed of the job's canonical surrogate ensemble, fixed at the first
    /// run: every later run's warm ensemble and every restore refit use
    /// this seed, which is what makes the `refit_with` extension chain
    /// bit-identical to a from-scratch fit on the union of observations.
    pub ensemble_seed: u64,
    /// The union of observations across all recorded runs, in recording
    /// order (order matters: surrogate refits and constraint-model fits
    /// replay it verbatim).
    pub observations: Vec<PriorObservation>,
}

impl JobKnowledge {
    /// A fresh record for a job's first run.
    #[must_use]
    pub fn new(job_key: impl Into<String>, ensemble_seed: u64) -> Self {
        Self {
            job_key: job_key.into(),
            runs: 0,
            ensemble_seed,
            observations: Vec::new(),
        }
    }

    /// True when no run has contributed observations yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// Observations whose runtime meets `tmax_seconds` — once replayed,
    /// the feasible observations that arm warm pruning from decision one.
    #[must_use]
    pub fn feasible_count(&self, tmax_seconds: f64) -> usize {
        self.observations
            .iter()
            .filter(|o| o.runtime_seconds <= tmax_seconds)
            .count()
    }

    /// The cheapest feasible prior cost under `tmax_seconds`, if any.
    #[must_use]
    pub fn best_feasible_cost(&self, tmax_seconds: f64) -> Option<f64> {
        self.observations
            .iter()
            .filter(|o| o.runtime_seconds <= tmax_seconds)
            .map(|o| o.cost)
            .min_by(f64::total_cmp)
    }

    /// Serializes the record.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_bytes(&MAGIC);
        enc.put_u32(VERSION);
        enc.put_str(&self.job_key);
        enc.put_u64(self.runs);
        enc.put_u64(self.ensemble_seed);
        enc.put_usize(self.observations.len());
        for o in &self.observations {
            enc.put_usize(o.id.index());
            enc.put_f64(o.runtime_seconds);
            enc.put_f64(o.cost);
            enc.put_usize(o.metrics.len());
            for &metric in &o.metrics {
                enc.put_f64(metric);
            }
        }
        enc.finish()
    }

    /// Deserializes a record.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated input, a magic/version
    /// mismatch, trailing bytes, or any observation violating the float
    /// policy (non-finite or negative runtime/cost, non-finite metric) — a
    /// corrupt knowledge blob degrades to a recoverable per-session error,
    /// never a panic and never a silently-poisoned surrogate.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Decoder::new(bytes);
        if dec.get_bytes()? != MAGIC {
            return Err(CodecError::Invalid("not a Lynceus knowledge record"));
        }
        let version = dec.get_u32()?;
        if version != VERSION && version != VERSION_WITH_ANCHOR_KEYS {
            return Err(CodecError::Invalid("unsupported knowledge version"));
        }
        let job_key = dec.get_str()?.to_owned();
        let runs = dec.get_u64()?;
        let ensemble_seed = dec.get_u64()?;
        if version == VERSION_WITH_ANCHOR_KEYS {
            // The last run's incumbent and tail keys no decision reads.
            dec.get_u64()?;
            dec.get_u64()?;
        }
        let observations_len = dec.get_usize()?;
        let mut observations = Vec::with_capacity(observations_len.min(4096));
        for _ in 0..observations_len {
            let id = ConfigId(dec.get_usize()?);
            let runtime_seconds = dec.get_f64()?;
            let cost = dec.get_f64()?;
            let metrics_len = dec.get_usize()?;
            let mut metrics = Vec::with_capacity(metrics_len.min(1024));
            for _ in 0..metrics_len {
                metrics.push(dec.get_f64()?);
            }
            let observation = PriorObservation {
                id,
                runtime_seconds,
                cost,
                metrics,
            };
            observation.validate()?;
            observations.push(observation);
        }
        if !dec.is_finished() {
            return Err(CodecError::Invalid("trailing bytes after the knowledge"));
        }
        Ok(Self {
            job_key,
            runs,
            ensemble_seed,
            observations,
        })
    }
}

/// Where job knowledge lives, keyed by **job key** (not session name — many
/// sessions over time share one job's record; the latest harvest wins).
///
/// Deliberately the same shape as [`crate::checkpoint::CheckpointStore`] so
/// deployments can reuse one durability strategy for both.
pub trait KnowledgeStore: Send + Sync {
    /// Persists the latest knowledge for a job, replacing any previous one.
    fn save(&self, job_key: &str, bytes: &[u8]);
    /// The latest knowledge for a job, if any.
    fn load(&self, job_key: &str) -> Option<Vec<u8>>;
    /// Drops a job's knowledge.
    fn remove(&self, job_key: &str);
}

/// An in-process knowledge store — process-lifetime transfer only, the
/// store the successive-runs suites use to chain runs cheaply.
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

    /// Number of jobs with stored knowledge.
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

impl KnowledgeStore for MemoryStore {
    fn save(&self, job_key: &str, bytes: &[u8]) {
        crate::poison::lock(&self.entries).insert(job_key.to_owned(), bytes.to_vec());
    }

    fn load(&self, job_key: &str) -> Option<Vec<u8>> {
        crate::poison::lock(&self.entries).get(job_key).cloned()
    }

    fn remove(&self, job_key: &str) {
        crate::poison::lock(&self.entries).remove(job_key);
    }
}

/// A directory-backed knowledge store: one `<sanitized-key>-<hash>.know`
/// file per job, written to a temp file and atomically renamed into place —
/// a crash mid-harvest leaves the previous run's knowledge intact, and a
/// partially-written temp file is never visible under the final name.
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

    /// The file a job's knowledge lives in — same FNV-1a-suffixed scheme as
    /// the checkpoint store, so distinct keys never collide.
    #[must_use]
    pub fn path_for(&self, job_key: &str) -> PathBuf {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in job_key.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let prefix: String = job_key
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .take(48)
            .collect();
        self.dir.join(format!("{prefix}-{hash:016x}.know"))
    }
}

impl KnowledgeStore for DirStore {
    fn save(&self, job_key: &str, bytes: &[u8]) {
        let path = self.path_for(job_key);
        let temp = path.with_extension("know.tmp");
        // Best-effort by contract, like checkpoints: a failed write costs
        // transfer for the next run, never the current run's correctness.
        if std::fs::write(&temp, bytes).is_ok() {
            let _ = std::fs::rename(&temp, &path);
        }
    }

    fn load(&self, job_key: &str) -> Option<Vec<u8>> {
        std::fs::read(self.path_for(job_key)).ok()
    }

    fn remove(&self, job_key: &str) {
        let _ = std::fs::remove_file(self.path_for(job_key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> JobKnowledge {
        JobKnowledge {
            job_key: "nightly-etl".to_owned(),
            runs: 2,
            ensemble_seed: 41,
            observations: vec![
                PriorObservation {
                    id: ConfigId(3),
                    runtime_seconds: 12.5,
                    cost: 3.25,
                    metrics: vec![0.5, 2.0],
                },
                PriorObservation {
                    id: ConfigId(0),
                    runtime_seconds: 40.0,
                    cost: 1.0,
                    metrics: vec![],
                },
            ],
        }
    }

    #[test]
    fn knowledge_codec_round_trips() {
        let original = record();
        let back = JobKnowledge::decode(&original.encode()).unwrap();
        assert_eq!(back, original);

        let empty = JobKnowledge::new("fresh", 9);
        assert!(empty.is_empty());
        assert_eq!(JobKnowledge::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn feasibility_is_rederived_per_tmax() {
        let k = record();
        assert_eq!(k.feasible_count(20.0), 1);
        assert_eq!(k.feasible_count(100.0), 2);
        assert_eq!(k.feasible_count(1.0), 0);
        assert_eq!(k.best_feasible_cost(20.0), Some(3.25));
        assert_eq!(k.best_feasible_cost(100.0), Some(1.0));
        assert_eq!(k.best_feasible_cost(1.0), None);
    }

    #[test]
    fn every_truncation_fails_cleanly() {
        let bytes = record().encode();
        for cut in 0..bytes.len() {
            assert!(
                JobKnowledge::decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(JobKnowledge::decode(&padded).is_err());
    }

    #[test]
    fn foreign_magic_and_versions_are_rejected() {
        let mut bytes = record().encode();
        bytes[8] = b'X'; // first magic byte (after the length prefix)
        assert!(matches!(
            JobKnowledge::decode(&bytes),
            Err(CodecError::Invalid("not a Lynceus knowledge record"))
        ));
        // A checkpoint blob must never decode as knowledge.
        let mut bytes = record().encode();
        bytes[8..12].copy_from_slice(b"LYNC");
        assert!(JobKnowledge::decode(&bytes).is_err());
        let mut bytes = record().encode();
        bytes[12] = 0xFF; // version field
        assert!(matches!(
            JobKnowledge::decode(&bytes),
            Err(CodecError::Invalid("unsupported knowledge version"))
        ));
    }

    #[test]
    fn adversarial_floats_are_rejected_subnormals_survive() {
        for (field, value) in [
            ("runtime", f64::NAN),
            ("runtime", f64::INFINITY),
            ("runtime", f64::NEG_INFINITY),
            ("runtime", -1.0),
            ("cost", f64::NAN),
            ("cost", f64::INFINITY),
            ("cost", f64::NEG_INFINITY),
            ("cost", -0.5),
            ("metric", f64::NAN),
            ("metric", f64::INFINITY),
            ("metric", f64::NEG_INFINITY),
        ] {
            let mut bad = record();
            match field {
                "runtime" => bad.observations[1].runtime_seconds = value,
                "cost" => bad.observations[1].cost = value,
                _ => bad.observations[0].metrics[1] = value,
            }
            assert!(
                JobKnowledge::decode(&bad.encode()).is_err(),
                "{field}={value} must be rejected"
            );
        }
        // Subnormals are finite: they pass and round-trip bit-exactly.
        let mut tiny = record();
        tiny.observations[0].cost = f64::MIN_POSITIVE / 8.0;
        tiny.observations[0].metrics[0] = -f64::MIN_POSITIVE / 2.0;
        let back = JobKnowledge::decode(&tiny.encode()).unwrap();
        assert_eq!(
            back.observations[0].cost.to_bits(),
            tiny.observations[0].cost.to_bits()
        );
        assert_eq!(
            back.observations[0].metrics[0].to_bits(),
            tiny.observations[0].metrics[0].to_bits()
        );
    }

    #[test]
    fn memory_store_saves_loads_and_removes() {
        let store = MemoryStore::new();
        assert!(store.is_empty());
        assert_eq!(store.load("job"), None);
        store.save("job", &[1, 2]);
        store.save("other", &[3]);
        store.save("job", &[9]); // latest harvest wins
        assert_eq!(store.len(), 2);
        assert_eq!(store.load("job"), Some(vec![9]));
        store.remove("job");
        assert_eq!(store.load("job"), None);
        assert_eq!(store.load("other"), Some(vec![3]));
    }

    #[test]
    fn dir_store_round_trips_atomically() {
        let dir = std::env::temp_dir().join(format!("lynceus-know-{}", std::process::id()));
        let store = DirStore::new(&dir).unwrap();
        assert_eq!(store.load("etl/job:v2"), None);
        store.save("etl/job:v2", &[5, 6, 7]);
        assert_eq!(store.load("etl/job:v2"), Some(vec![5, 6, 7]));
        store.save("etl_job_v2", &[8]); // sanitize-collision stays distinct
        assert_eq!(store.load("etl/job:v2"), Some(vec![5, 6, 7]));
        assert_eq!(store.load("etl_job_v2"), Some(vec![8]));
        store.remove("etl/job:v2");
        assert_eq!(store.load("etl/job:v2"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite regression: a crash mid-write may leave a truncated *temp*
    /// file, but the rename discipline means the visible file is always a
    /// complete record — and even if a truncated blob somehow lands in the
    /// store, every prefix of a valid encoding fails decode cleanly.
    #[test]
    fn truncated_file_corpus_never_decodes() {
        let dir = std::env::temp_dir().join(format!("lynceus-know-trunc-{}", std::process::id()));
        let store = DirStore::new(&dir).unwrap();
        let bytes = record().encode();
        // A stale temp file from a simulated crash is invisible to load().
        store.save("victim", &bytes);
        let temp = store.path_for("victim").with_extension("know.tmp");
        std::fs::write(&temp, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(store.load("victim"), Some(bytes.clone()));
        // Corpus: every truncation of the stored blob fails decode, so a
        // corrupt store degrades to "no prior" — never a poisoned session.
        for cut in [0, 1, 8, 12, bytes.len() / 2, bytes.len() - 1] {
            store.save("corrupt", &bytes[..cut]);
            let loaded = store.load("corrupt").unwrap();
            assert!(JobKnowledge::decode(&loaded).is_err());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
