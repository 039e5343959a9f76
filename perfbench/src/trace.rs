//! Spans recorded by the benchmark around its calls into each layer of the
//! program, and around the program's calls back into benchmark-supplied
//! oracles and stores. Spans stay in memory and are written out once the
//! run ends; nothing is recorded unless tracing was switched on, and only
//! sessions below the traced-session limit are recorded, so a workload that
//! completes sessions by the hundred thousand keeps a bounded trace.
//!
//! A *scope* span is opened and closed on one thread and becomes the parent
//! of every span of the same session opened while it is the innermost open
//! scope, on any thread. A *leaf* span (a callback from a program thread)
//! takes that innermost scope as its parent but parents nothing itself.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process: the one clock every
/// stamp, span and latency of the benchmark is read from.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).expect("a run lasts far less than 584 years")
}

/// The layer a span's time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own session loop (client side).
    Client,
    /// `LynceusOptimizer::optimize`: core::lynceus with learners and pool.
    Engine,
    /// A `TuningService` session from submission to outcome.
    Service,
    /// One HTTP round trip to `serve::server::Server`.
    Http,
    /// Client-side `serve::json` parsing and `serve::wire` decoding.
    Wire,
    /// The benchmark-supplied `CostOracle` (dataset lookup, storm).
    Oracle,
    /// The benchmark-supplied `CheckpointStore`.
    CheckpointStore,
    /// The benchmark-supplied `KnowledgeStore`.
    KnowledgeStore,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Client => "client",
            Layer::Engine => "engine",
            Layer::Service => "service",
            Layer::Http => "http",
            Layer::Wire => "wire",
            Layer::Oracle => "oracle",
            Layer::CheckpointStore => "checkpoint_store",
            Layer::KnowledgeStore => "knowledge_store",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// `0` for a session's root span.
    pub parent: u32,
    pub session: u64,
    pub layer: Layer,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

struct Tracer {
    enabled: AtomicBool,
    /// Sessions with an id at or above this are not traced.
    limit: AtomicU64,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    /// Innermost-last stack of open scope ids per session.
    open: Mutex<BTreeMap<u64, Vec<u32>>>,
}

static TRACER: Tracer = Tracer {
    enabled: AtomicBool::new(false),
    limit: AtomicU64::new(0),
    next_id: AtomicU32::new(1),
    spans: Mutex::new(Vec::new()),
    open: Mutex::new(BTreeMap::new()),
};

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // The panic hook fails the run on any unplanned panic, so a poisoned
    // tracer lock only ever follows a planned storm panic, which never
    // unwinds through a tracer critical section.
    mutex.lock().expect("tracer lock poisoned")
}

/// A session id that is never traced: set-up and replay sessions.
pub const UNTRACED: u64 = u64::MAX;

/// Traces sessions `0..sessions` from now on; `0` switches tracing off.
pub fn trace_sessions(sessions: u64) {
    TRACER.limit.store(sessions, Ordering::SeqCst);
    TRACER.enabled.store(sessions > 0, Ordering::SeqCst);
}

fn traced(session: u64) -> bool {
    TRACER.enabled.load(Ordering::Relaxed) && session < TRACER.limit.load(Ordering::Relaxed)
}

/// An open span; recorded when dropped.
pub struct Guard {
    id: u32,
    parent: u32,
    session: u64,
    layer: Layer,
    name: &'static str,
    start: u64,
    scope: bool,
}

fn open(layer: Layer, name: &'static str, session: u64, scope: bool) -> Guard {
    if !traced(session) {
        return Guard {
            id: 0,
            parent: 0,
            session,
            layer,
            name,
            start: 0,
            scope: false,
        };
    }
    let id = TRACER.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = {
        let mut open = lock(&TRACER.open);
        let stack = open.entry(session).or_default();
        let parent = stack.last().copied().unwrap_or(0);
        if scope {
            stack.push(id);
        }
        parent
    };
    Guard {
        id,
        parent,
        session,
        layer,
        name,
        start: now_ns(),
        scope,
    }
}

/// Opens a span that parents later spans of the same session.
pub fn scope(layer: Layer, name: &'static str, session: u64) -> Guard {
    open(layer, name, session, true)
}

/// Opens a span that parents nothing (a callback from a program thread).
pub fn leaf(layer: Layer, name: &'static str, session: u64) -> Guard {
    open(layer, name, session, false)
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end = now_ns();
        if self.scope {
            if let Ok(mut open) = TRACER.open.lock() {
                if let Some(stack) = open.get_mut(&self.session) {
                    stack.retain(|&id| id != self.id);
                    if stack.is_empty() {
                        open.remove(&self.session);
                    }
                }
            }
        }
        if let Ok(mut spans) = TRACER.spans.lock() {
            spans.push(Span {
                id: self.id,
                parent: self.parent,
                session: self.session,
                layer: self.layer,
                name: self.name,
                start: self.start,
                end,
            });
        }
    }
}

/// Takes every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *lock(&TRACER.spans))
}

/// Sessions with at least one span.
pub fn sessions(spans: &[Span]) -> usize {
    spans
        .iter()
        .map(|s| s.session)
        .collect::<std::collections::BTreeSet<_>>()
        .len()
}

/// Self time per layer in nanoseconds: each span's duration minus the part
/// of its interval covered by its children.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<Layer, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start, span.end));
    }
    let mut totals: BTreeMap<Layer, u64> = BTreeMap::new();
    for span in spans {
        let covered = children
            .get_mut(&span.id)
            .map_or(0, |kids| covered_ns(kids, span.start, span.end));
        *totals.entry(span.layer).or_default() += span.end.saturating_sub(span.start) - covered;
    }
    totals
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Writes the spans as tab-separated lines.
pub fn write(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::from("id\tparent\tsession\tlayer\tname\tstart_ns\tend_ns\n");
    for s in spans {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent,
            s.session,
            s.layer.name(),
            s.name,
            s.start,
            s.end
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: Layer, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            session: 0,
            layer,
            name: "t",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, Layer::Client, 0, 100),
            span(2, 1, Layer::Http, 10, 50),
            span(3, 2, Layer::Oracle, 20, 30),
            span(4, 2, Layer::Oracle, 25, 40),
            // A child overrunning its parent is clipped to the parent.
            span(5, 1, Layer::Oracle, 90, 120),
        ];
        let totals = self_time_by_layer(&spans);
        assert_eq!(totals[&Layer::Client], 100 - 40 - 10);
        assert_eq!(totals[&Layer::Http], 40 - 20);
        assert_eq!(totals[&Layer::Oracle], 10 + 15 + 30);
    }
}
