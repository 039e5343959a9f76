//! Benchmark-supplied checkpoint and knowledge stores: the program's own
//! in-memory stores behind a wrapper that counts calls and bytes, keeps a
//! bounded sample of blobs for the codec replays, and records a span per
//! call when tracing is on.

use crate::trace::{self, Layer};
use lynceus_core::checkpoint::{self, CheckpointStore};
use lynceus_core::transfer::{self, KnowledgeStore};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Most blobs kept for replay, and the stride between kept saves.
const SAMPLE_CAP: usize = 512;
const SAVE_STRIDE: u64 = 8;

#[derive(Debug, Default)]
pub struct Counters {
    pub saves: AtomicU64,
    pub saved_bytes: AtomicU64,
    pub loads: AtomicU64,
    pub hits: AtomicU64,
}

impl Counters {
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    fn bump(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }

    /// Counts a save and says whether its blob joins the replay sample.
    fn saved(&self, bytes: usize) -> bool {
        let n = self.saves.fetch_add(1, Ordering::Relaxed);
        Self::bump(&self.saved_bytes, bytes as u64);
        n.is_multiple_of(SAVE_STRIDE)
    }
}

fn keep(sample: &Mutex<Vec<Vec<u8>>>, bytes: &[u8]) {
    let mut sample = sample.lock().expect("blob sample poisoned");
    if sample.len() < SAMPLE_CAP {
        sample.push(bytes.to_vec());
    }
}

/// Checkpoints keyed by session name; names end in `-<session index>`.
#[derive(Debug, Default)]
pub struct CountingCheckpoints {
    inner: checkpoint::MemoryStore,
    pub counters: Counters,
    pub saved_sample: Mutex<Vec<Vec<u8>>>,
}

fn session_of(name: &str) -> u64 {
    name.rsplit('-')
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or(trace::UNTRACED)
}

impl CheckpointStore for CountingCheckpoints {
    fn save(&self, name: &str, bytes: &[u8]) {
        let _span = trace::leaf(Layer::CheckpointStore, "save", session_of(name));
        if self.counters.saved(bytes.len()) {
            keep(&self.saved_sample, bytes);
        }
        self.inner.save(name, bytes);
    }

    fn load(&self, name: &str) -> Option<Vec<u8>> {
        let _span = trace::leaf(Layer::CheckpointStore, "load", session_of(name));
        Counters::bump(&self.counters.loads, 1);
        let found = self.inner.load(name);
        if found.is_some() {
            Counters::bump(&self.counters.hits, 1);
        }
        found
    }

    fn remove(&self, name: &str) {
        let _span = trace::leaf(Layer::CheckpointStore, "remove", session_of(name));
        self.inner.remove(name);
    }
}

/// Job knowledge keyed by job key. A key is bound to the session that
/// currently runs it, so store calls land in that session's trace.
#[derive(Debug, Default)]
pub struct CountingKnowledge {
    inner: transfer::MemoryStore,
    pub counters: Counters,
    pub saved_sample: Mutex<Vec<Vec<u8>>>,
    pub loaded_sample: Mutex<Vec<Vec<u8>>>,
    sessions: Mutex<BTreeMap<String, u64>>,
}

impl CountingKnowledge {
    pub fn bind(&self, key: &str, session: u64) {
        self.sessions
            .lock()
            .expect("key bindings poisoned")
            .insert(key.to_owned(), session);
    }

    fn session_of(&self, key: &str) -> u64 {
        self.sessions
            .lock()
            .expect("key bindings poisoned")
            .get(key)
            .copied()
            .unwrap_or(trace::UNTRACED)
    }
}

impl KnowledgeStore for CountingKnowledge {
    fn save(&self, job_key: &str, bytes: &[u8]) {
        let _span = trace::leaf(Layer::KnowledgeStore, "save", self.session_of(job_key));
        if self.counters.saved(bytes.len()) {
            keep(&self.saved_sample, bytes);
        }
        self.inner.save(job_key, bytes);
    }

    fn load(&self, job_key: &str) -> Option<Vec<u8>> {
        let _span = trace::leaf(Layer::KnowledgeStore, "load", self.session_of(job_key));
        Counters::bump(&self.counters.loads, 1);
        let found = self.inner.load(job_key);
        if let Some(bytes) = &found {
            Counters::bump(&self.counters.hits, 1);
            keep(&self.loaded_sample, bytes);
        }
        found
    }

    fn remove(&self, job_key: &str) {
        let _span = trace::leaf(Layer::KnowledgeStore, "remove", self.session_of(job_key));
        self.inner.remove(job_key);
    }
}
