//! Multi-job serving: one process, one worker-thread budget, many
//! concurrent tuning sessions stepping **in parallel**.
//!
//! The single-job entry point ([`crate::LynceusOptimizer::optimize`]) runs
//! one optimization to completion on the calling thread and fans its branch
//! evaluations out over up to one worker per CPU. A tuning *service* has a
//! different shape: N independent jobs — each with its own seed, budget,
//! oracle and switching-cost model — must share the machine without
//! oversubscribing it N-fold, accept new jobs while old ones are still
//! running, and survive one misbehaving oracle without taking down every
//! other session.
//!
//! [`TuningService`] provides that layer:
//!
//! * **A concurrent scheduler over one shared pool.** The service spawns one
//!   scheduler *lane* per [`Pool`] slot. Each lane checks a ready session
//!   out of the registry, leases one pool slot for the duration of the step
//!   (the lane's own thread is the computing thread the slot pays for), and
//!   puts the session back — so up to `capacity` sessions genuinely step in
//!   parallel while the process-wide computing-thread count stays at the
//!   configured capacity. A stepping session's branch fan-out grabs whatever
//!   *extra* slots happen to be free without blocking, which makes the
//!   two-level arbitration deadlock-free by construction (see
//!   [`Pool::acquire`]).
//! * **Steady submission.** [`TuningService::submit`] takes `&self` and may
//!   be called from any thread at any time — including while the service is
//!   mid-run. New sessions join the ready queue immediately;
//!   [`TuningService::run_until_idle`] waits for the current population to
//!   drain and [`TuningService::shutdown`] ends the service.
//! * **Pluggable scheduling policies.** [`SchedulePolicy::RoundRobin`]
//!   (default) steps every live session once per round;
//!   [`SchedulePolicy::Priority`] steps the highest
//!   [`SessionSpec::with_priority`] first;
//!   [`SchedulePolicy::EarliestDeadline`] steps the smallest
//!   [`SessionSpec::with_deadline`] first. All three share a starvation
//!   guard: a session passed over for [`STARVATION_LIMIT`] consecutive
//!   dispatches is scheduled next regardless of policy, so no priority or
//!   deadline mix can park a session forever.
//! * **Per-session error isolation.** An oracle that reports a NaN/infinite
//!   cost (or a switching model with an unusable charge) moves only its own
//!   session to [`SessionStatus::Failed`] with a partial report (see
//!   [`crate::optimizer::Driver::try_profile`]); an oracle that *panics* is
//!   likewise contained to its session ([`SessionError::Panicked`]). Every
//!   other session is untouched.
//! * **Retry with deterministic backoff.** A *transient* profiling fault
//!   (spot revocation, oracle timeout — [`ProfileError::is_transient`]) does
//!   not fail the session: its [`RetryPolicy`] grants a bounded per-session
//!   retry budget, each retry optionally charges a surcharge against the
//!   session's own β (retries are never free when priced), and backoff is
//!   measured in **scheduler dispatches**, never wall-clock, so a faulted
//!   schedule replays deterministically. An exhausted retry budget degrades
//!   to [`SessionError::RetriesExhausted`] with the partial report and the
//!   receipt trail — siblings never notice.
//! * **Checkpoint/replay durability.** With a [`CheckpointStore`] attached
//!   ([`TuningService::with_checkpoints`]), every decision boundary persists
//!   the session's full state — search state `Σ`, RNG position, remaining
//!   bootstrap plan, receipts, retry ledger, oracle cursor — through the
//!   [`crate::codec`] wire format. A killed process calls
//!   [`TuningService::restore`] with the original spec and the session
//!   resumes from its latest checkpoint; the finished report is
//!   **bit-identical** to the uninterrupted run on every engine and thread
//!   count. [`SessionSpec::with_step_limit`] suspends a session at a chosen
//!   boundary ([`SessionStatus::Suspended`]) for controlled kill-and-resume.
//! * **Decision receipts.** Every profiling run appends a
//!   [`DecisionReceipt`] (chosen configuration, `Γ` size, incumbent, β
//!   before/after, prune counters, faults observed and retries consumed);
//!   the trail rides inside checkpoints and is delivered with every
//!   [`SessionOutcome`] — failed and panicked sessions included, so a dead
//!   session still explains every dollar it spent.
//! * **Bit-identical reports.** Each session owns its full state (RNG,
//!   surrogate, decision arena) and moves with it between lanes, so its
//!   sequence of random draws, refits and profiling runs is exactly the
//!   standalone sequence. The [`OptimizationReport`] a multiplexed session
//!   produces equals the report of running it alone — regardless of thread
//!   count, scheduling policy, or how the steps interleaved.
//!
//! ```
//! use lynceus_core::{
//!     OptimizerSettings, SchedulePolicy, SessionSpec, SessionStatus, TableOracle, TuningService,
//! };
//! use lynceus_space::SpaceBuilder;
//!
//! let service = TuningService::with_threads(2).with_policy(SchedulePolicy::Priority);
//! for seed in 0..4 {
//!     let space = SpaceBuilder::new()
//!         .numeric("x", (0..6).map(f64::from))
//!         .build();
//!     let oracle = TableOracle::from_fn(space, 1.0, |f| 30.0 + (f[0] - 2.0).powi(2));
//!     let settings = OptimizerSettings {
//!         budget: 400.0,
//!         tmax_seconds: 1e6,
//!         bootstrap_samples: Some(3),
//!         lookahead: 1,
//!         gauss_hermite_nodes: 2,
//!         ..OptimizerSettings::default()
//!     };
//!     service.submit(
//!         SessionSpec::new(format!("job-{seed}"), settings, Box::new(oracle), seed)
//!             .with_priority(seed as i64),
//!     );
//! }
//! for outcome in service.run() {
//!     assert!(matches!(outcome.status, SessionStatus::Finished(_)));
//! }
//! ```

use crate::checkpoint::CheckpointStore;
use crate::lynceus::{LynceusOptimizer, LynceusSession, PathEngine, SessionStep};
use crate::optimizer::{
    OptimizationReport, Optimizer, OptimizerError, OptimizerSettings, ProfileError,
};
use crate::oracle::CostOracle;
use crate::pool::Pool;
use crate::receipt::DecisionReceipt;
use crate::switching::SwitchingCost;
use crate::transfer::{JobKnowledge, KnowledgeStore};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Identifies a session within one [`TuningService`], in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(pub usize);

/// How the scheduler orders ready sessions. Policies affect *scheduling
/// only*: every session's report is bit-identical under any policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// Fair rotation: ready sessions step in first-in-first-out order, so
    /// every live session performs one profiling run per round.
    #[default]
    RoundRobin,
    /// Highest [`SessionSpec::with_priority`] first; ties step
    /// round-robin. Low-priority sessions are still guaranteed progress by
    /// the [`STARVATION_LIMIT`] aging guard.
    Priority,
    /// Smallest [`SessionSpec::with_deadline`] first; ties step
    /// round-robin. Deadline-less sessions (the default,
    /// `f64::INFINITY`) run after every deadlined one, subject to the
    /// aging guard.
    EarliestDeadline,
}

/// Starvation guard shared by every [`SchedulePolicy`]: a ready session that
/// has been passed over for this many consecutive dispatches is scheduled
/// next regardless of priority or deadline, so the policies bound waiting
/// time instead of allowing indefinite parking.
pub const STARVATION_LIMIT: u64 = 16;

/// How the service handles a session's *transient* profiling faults (spot
/// revocations, oracle timeouts — [`ProfileError::is_transient`]) and panic
/// recovery from checkpoints.
///
/// Backoff is counted in **scheduler dispatches**, never wall-clock time:
/// after its `k`-th retry a session rejoins the ready queue but is not
/// dispatchable until `backoff_steps × k` further dispatches have happened
/// service-wide (an idle scheduler fast-forwards instead of spinning). This
/// keeps faulted schedules exactly replayable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retry attempts granted over the whole session lifetime — the
    /// per-session retry budget. `0` makes every fault terminal. The count
    /// is checkpointed, so a restored session cannot reset it.
    pub max_attempts: u32,
    /// Deterministic backoff, in scheduler dispatches per consumed attempt
    /// (linear: the `k`-th retry waits `backoff_steps × k` dispatches).
    pub backoff_steps: u64,
    /// Surcharge in dollars charged against the session's remaining budget
    /// `β` for every consumed retry, so retries are never free when priced.
    /// The default `0.0` keeps recovered runs bit-identical to fault-free
    /// ones. Must be finite and non-negative.
    pub retry_cost: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_steps: 0,
            retry_cost: 0.0,
        }
    }
}

impl RetryPolicy {
    /// No retries: the first fault (or panic) is terminal.
    #[must_use]
    pub fn none() -> Self {
        Self {
            max_attempts: 0,
            backoff_steps: 0,
            retry_cost: 0.0,
        }
    }
}

/// Everything one tuning session needs: a name for reporting, the optimizer
/// settings (budget, constraint, lookahead, …), the black-box oracle to
/// profile, a seed, and optionally a switching-cost model, an engine
/// override, a scheduling priority, a deadline, a retry policy and a step
/// limit.
pub struct SessionSpec {
    name: String,
    settings: OptimizerSettings,
    seed: u64,
    oracle: Box<dyn CostOracle>,
    switching: Option<Box<dyn SwitchingCost>>,
    engine: PathEngine,
    priority: i64,
    deadline: f64,
    retry: RetryPolicy,
    halt_after: Option<u64>,
    job_key: Option<String>,
}

impl SessionSpec {
    /// Describes a session. Settings are validated at submission time by the
    /// service (an invalid spec fails its own session, nothing else).
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        settings: OptimizerSettings,
        oracle: Box<dyn CostOracle>,
        seed: u64,
    ) -> Self {
        Self {
            name: name.into(),
            settings,
            seed,
            oracle,
            switching: None,
            engine: PathEngine::default(),
            priority: 0,
            deadline: f64::INFINITY,
            retry: RetryPolicy::default(),
            halt_after: None,
            job_key: None,
        }
    }

    /// Attaches a switching-cost model (paper Section 4.4) to the session.
    #[must_use]
    pub fn with_switching_cost(mut self, switching: Box<dyn SwitchingCost>) -> Self {
        self.switching = Some(switching);
        self
    }

    /// Overrides the speculation engine (default:
    /// [`PathEngine::BoundAndPrune`]).
    #[must_use]
    pub fn with_engine(mut self, engine: PathEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Scheduling priority under [`SchedulePolicy::Priority`]: higher values
    /// step sooner (default 0). Ignored by the other policies.
    #[must_use]
    pub fn with_priority(mut self, priority: i64) -> Self {
        self.priority = priority;
        self
    }

    /// Deadline key under [`SchedulePolicy::EarliestDeadline`]: smaller
    /// values step sooner (default `f64::INFINITY` — after every deadlined
    /// session). Any monotone key works (epoch seconds, an ordinal, …); NaN
    /// is sanitized to no-deadline. Ignored by the other policies.
    #[must_use]
    pub fn with_deadline(mut self, deadline: f64) -> Self {
        self.deadline = if deadline.is_nan() {
            f64::INFINITY
        } else {
            deadline
        };
        self
    }

    /// Overrides the session's [`RetryPolicy`] (default: three retries,
    /// no backoff, no surcharge).
    ///
    /// # Panics
    ///
    /// Panics if `retry.retry_cost` is negative or not finite — the
    /// surcharge is charged against the budget `β`, which only accepts
    /// finite non-negative amounts.
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        assert!(
            retry.retry_cost.is_finite() && retry.retry_cost >= 0.0,
            "retry_cost must be a finite non-negative surcharge"
        );
        self.retry = retry;
        self
    }

    /// Suspends the session once it has completed `steps` profiling runs,
    /// delivering [`SessionStatus::Suspended`] with the checkpoint flushed
    /// to the service's [`CheckpointStore`] (if any). A later
    /// [`TuningService::restore`] with the original spec — typically
    /// *without* the limit — resumes from that exact decision boundary.
    /// This is the controlled kill switch used by the durability tests.
    #[must_use]
    pub fn with_step_limit(mut self, steps: u64) -> Self {
        self.halt_after = Some(steps);
        self
    }

    /// The session's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The session's scheduling priority (see
    /// [`SessionSpec::with_priority`]).
    #[must_use]
    pub fn priority(&self) -> i64 {
        self.priority
    }

    /// The session's deadline key (see [`SessionSpec::with_deadline`]).
    #[must_use]
    pub fn deadline(&self) -> f64 {
        self.deadline
    }

    /// The session's retry policy (see [`SessionSpec::with_retry_policy`]).
    #[must_use]
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The session's step limit, if any (see
    /// [`SessionSpec::with_step_limit`]).
    #[must_use]
    pub fn step_limit(&self) -> Option<u64> {
        self.halt_after
    }

    /// Marks the session as one run of a *recurring job*. With a
    /// [`KnowledgeStore`] attached ([`TuningService::with_knowledge_store`]),
    /// admission loads the job's [`JobKnowledge`] under this key and
    /// warm-starts the session from it (replayed observations, extended
    /// surrogate, armed pruning — see [`crate::transfer`]), and every
    /// terminal outcome harvests the session's observations back under the
    /// same key for the job's next run. Without a store the key is inert.
    #[must_use]
    pub fn with_job_key(mut self, key: impl Into<String>) -> Self {
        self.job_key = Some(key.into());
        self
    }

    /// The session's recurring-job key, if any (see
    /// [`SessionSpec::with_job_key`]).
    #[must_use]
    pub fn job_key(&self) -> Option<&str> {
        self.job_key.as_deref()
    }
}

/// A point-in-time snapshot of the service's population, used by admission
/// layers (e.g. an HTTP front-end deciding whether to shed load) and by
/// operators watching queue depth. All counters come from one acquisition
/// of the scheduler lock, so they are mutually consistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceLoad {
    /// Sessions ever submitted (terminal ones included).
    pub submitted: usize,
    /// Sessions in the ready queue (dispatchable or waiting out a backoff).
    pub ready: usize,
    /// Sessions currently checked out by a scheduler lane.
    pub running: usize,
    /// Non-terminal sessions (`ready + running`); 0 means idle.
    pub live: usize,
    /// Terminal sessions whose outcome has not been delivered yet.
    pub undelivered: usize,
    /// Scheduler dispatches performed so far (the service's logical clock).
    pub dispatches: u64,
}

/// Why a session ended in [`SessionStatus::Failed`].
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The spec's settings failed [`OptimizerSettings::validate`].
    InvalidSettings(OptimizerError),
    /// The oracle or switching model produced a charge the budget cannot
    /// accept (NaN, infinite or negative cost).
    Profile(ProfileError),
    /// The oracle (or other per-session code) panicked mid-step; the panic
    /// was contained to this session and its message captured.
    Panicked(String),
    /// A transient fault recurred past the session's
    /// [`RetryPolicy::max_attempts`]; the session degraded gracefully to a
    /// partial report instead of spending more of its budget.
    RetriesExhausted {
        /// The fault observed on the final, unretried attempt.
        last: ProfileError,
        /// Retry attempts consumed before giving up.
        attempts: u32,
    },
    /// A checkpoint could not be decoded (truncated, corrupted, or written
    /// by an incompatible version); the session was not started.
    CorruptCheckpoint(String),
    /// The job knowledge stored under the spec's
    /// [`SessionSpec::with_job_key`] could not be decoded or replayed
    /// (corrupted record, or prior observations that do not belong to this
    /// session's configuration space); the session was not started.
    CorruptKnowledge(String),
    /// The session was cancelled via [`TuningService::cancel`] before it
    /// reached a natural terminal state. The partial report and the receipt
    /// trail cover everything profiled up to the cancellation boundary.
    Cancelled,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::InvalidSettings(e) => write!(f, "session rejected: {e}"),
            SessionError::Profile(e) => write!(f, "session failed: {e}"),
            SessionError::Panicked(message) => write!(f, "session panicked: {message}"),
            SessionError::RetriesExhausted { last, attempts } => write!(
                f,
                "session failed after exhausting {attempts} retry attempts: {last}"
            ),
            SessionError::CorruptCheckpoint(message) => {
                write!(f, "session checkpoint is unusable: {message}")
            }
            SessionError::CorruptKnowledge(message) => {
                write!(f, "session job knowledge is unusable: {message}")
            }
            SessionError::Cancelled => write!(f, "session cancelled"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ProfileError> for SessionError {
    fn from(e: ProfileError) -> Self {
        SessionError::Profile(e)
    }
}

/// Terminal state of a session.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionStatus {
    /// The optimization ran to completion.
    Finished(OptimizationReport),
    /// The session was stopped by a per-session error; every other session
    /// is unaffected.
    Failed {
        /// The diagnostic.
        error: SessionError,
        /// The report covering everything profiled before the failure
        /// (`None` when the spec was rejected before any run).
        partial: Option<OptimizationReport>,
    },
    /// The session hit its [`SessionSpec::with_step_limit`] fuse and parked
    /// at a decision boundary with its checkpoint flushed; resume it with
    /// [`TuningService::restore`].
    Suspended {
        /// Profiling steps completed before suspension.
        steps: u64,
    },
}

/// The terminal outcome of one session.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The session's id (submission order).
    pub id: SessionId,
    /// The session's name.
    pub name: String,
    /// How the session ended.
    pub status: SessionStatus,
    /// One [`DecisionReceipt`] per profiling run, in step order — delivered
    /// on every terminal path (failed and panicked sessions included), so
    /// the session's spending is auditable even when no report exists.
    pub receipts: Vec<DecisionReceipt>,
}

impl SessionOutcome {
    /// The completed report, if the session finished.
    #[must_use]
    pub fn report(&self) -> Option<&OptimizationReport> {
        match &self.status {
            SessionStatus::Finished(report) => Some(report),
            SessionStatus::Failed { .. } | SessionStatus::Suspended { .. } => None,
        }
    }

    /// True when the session ended in [`SessionStatus::Failed`].
    #[must_use]
    pub fn is_failed(&self) -> bool {
        matches!(self.status, SessionStatus::Failed { .. })
    }
}

/// One registry entry. The session is *checked out* (`session: None`, not
/// terminal) while a lane is stepping it, and replaced by its outcome when
/// it reaches a terminal state.
struct Slot {
    name: String,
    priority: i64,
    deadline: f64,
    /// Dispatch count at which the session (re-)joined the ready queue;
    /// FIFO key of the round-robin order and the aging guard.
    enqueued_at: u64,
    /// Dispatch count before which the session must not be dispatched —
    /// the deterministic backoff gate (0 = immediately dispatchable).
    ready_after: u64,
    retry: RetryPolicy,
    halt_after: Option<u64>,
    /// True when the session checkpoints at every decision boundary (a
    /// retry budget, a step limit, or an attached store requires one).
    durable: bool,
    /// The latest checkpoint bytes — the in-memory authoritative copy used
    /// for panic recovery; mirrored to the [`CheckpointStore`] when one is
    /// attached. Dropped when the session turns terminal: only the panic
    /// recovery of a live session reads it, and
    /// [`TuningService::restore`] reads the store.
    checkpoint: Option<Vec<u8>>,
    session: Option<LynceusSession<'static>>,
    /// Set by [`TuningService::cancel`] while the session is checked out by
    /// a lane; honored at the next decision boundary (the session finishes
    /// its in-flight step, then terminates instead of re-queueing).
    cancel_requested: bool,
    /// True once the session is terminal. Stays set after a drain call
    /// takes the outcome, when the slot holds neither a session nor an
    /// outcome — the same shape as a session a lane has checked out.
    finalized: bool,
    /// The terminal outcome, held until a drain call delivers it.
    outcome: Option<SessionOutcome>,
}

/// Scheduler state, guarded by one mutex.
struct Sched {
    policy: SchedulePolicy,
    slots: Vec<Slot>,
    /// Ids of sessions ready to step (not running, not terminal).
    ready: Vec<usize>,
    /// Ready + running (checked-out) sessions: 0 means idle.
    live: usize,
    /// Total dispatches performed; drives FIFO ordering and aging.
    dispatches: u64,
    /// Terminal sessions whose outcome has not been delivered yet, in
    /// completion order.
    undelivered: Vec<usize>,
    /// Sessions currently checked out by a lane. When 0 and every ready
    /// session is backing off, the scheduler fast-forwards `dispatches`
    /// instead of waiting for time that will never pass on its own.
    running: usize,
    /// Checkpoint persistence, when attached via
    /// [`TuningService::with_checkpoints`].
    store: Option<Arc<dyn CheckpointStore>>,
    /// Cross-run job knowledge, when attached via
    /// [`TuningService::with_knowledge_store`].
    knowledge: Option<Arc<dyn KnowledgeStore>>,
    shutdown: bool,
}

impl Sched {
    /// A session is dispatchable when its backoff gate has passed.
    fn dispatchable(&self, id: usize) -> bool {
        self.slots[id].ready_after <= self.dispatches
    }

    /// The next session to dispatch under the active policy, or `None` when
    /// nothing is ready. The starvation guard overrides every policy: any
    /// session that waited [`STARVATION_LIMIT`] dispatches goes first.
    /// When several sessions have crossed the limit in the same dispatch,
    /// the **longest-waiting** one (oldest `enqueued_at`) is served, with
    /// equal waits resolved in registry order — the guard deliberately
    /// ignores priorities and deadlines, otherwise a high-priority starver
    /// could keep leapfrogging an older low-priority one and unbound its
    /// wait again (pinned by the tie-break test in
    /// `tests/concurrent_service.rs`). Sessions still waiting out a retry
    /// backoff are invisible to the policies *and* to the guard (a session
    /// waiting out its own backoff is parked, not starving).
    fn pick(&self) -> Option<usize> {
        let fifo = |&id: &usize| (self.slots[id].enqueued_at, id);
        let starving = self
            .ready
            .iter()
            .copied()
            .filter(|&id| self.dispatchable(id))
            .filter(|&id| {
                self.dispatches.saturating_sub(self.slots[id].enqueued_at) >= STARVATION_LIMIT
            })
            .min_by_key(|id| fifo(id));
        if starving.is_some() {
            return starving;
        }
        let candidates = || {
            self.ready
                .iter()
                .copied()
                .filter(|&id| self.dispatchable(id))
        };
        match self.policy {
            SchedulePolicy::RoundRobin => candidates().min_by_key(|id| fifo(id)),
            SchedulePolicy::Priority => candidates().min_by(|&a, &b| {
                self.slots[b]
                    .priority
                    .cmp(&self.slots[a].priority)
                    .then_with(|| fifo(&a).cmp(&fifo(&b)))
            }),
            SchedulePolicy::EarliestDeadline => candidates().min_by(|&a, &b| {
                self.slots[a]
                    .deadline
                    .total_cmp(&self.slots[b].deadline)
                    .then_with(|| fifo(&a).cmp(&fifo(&b)))
            }),
        }
    }

    /// The earliest backoff gate among ready sessions, used to fast-forward
    /// the dispatch clock when the scheduler is otherwise idle.
    fn next_wakeup(&self) -> Option<u64> {
        self.ready
            .iter()
            .map(|&id| self.slots[id].ready_after)
            .min()
    }

    /// Records a terminal outcome, drops the session's checkpoint bytes and
    /// queues the outcome for delivery.
    fn finalize(&mut self, index: usize, status: SessionStatus, receipts: Vec<DecisionReceipt>) {
        let outcome = SessionOutcome {
            id: SessionId(index),
            name: self.slots[index].name.clone(),
            status,
            receipts,
        };
        self.slots[index].outcome = Some(outcome);
        self.slots[index].checkpoint = None;
        self.slots[index].finalized = true;
        self.undelivered.push(index);
        self.live -= 1;
    }
}

/// The scheduler core shared between the service handle and its lanes.
struct Shared {
    pool: Arc<Pool>,
    state: Mutex<Sched>,
    /// Lanes wait here for ready sessions.
    work: Condvar,
    /// Drain calls ([`TuningService::run_until_idle`] & co.) wait here for
    /// completions.
    progress: Condvar,
}

/// Serves many concurrent tuning sessions from one process over one shared
/// worker pool. See the [module docs](self) for the guarantees.
pub struct TuningService {
    shared: Arc<Shared>,
    /// Scheduler lane threads, spawned on first submission.
    lanes: Mutex<Vec<JoinHandle<()>>>,
}

impl TuningService {
    /// A service whose shared pool is sized to the machine (one worker slot
    /// — and one scheduler lane — per available CPU).
    #[must_use]
    pub fn new() -> Self {
        Self::with_pool(Arc::new(Pool::with_default_capacity()))
    }

    /// A service with an explicit worker-thread budget shared by all
    /// sessions: up to `threads` sessions step concurrently (one scheduler
    /// lane per slot), and a stepping session's branch fan-out uses
    /// whatever slots its neighbours leave free.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self::with_pool(Arc::new(Pool::new(threads)))
    }

    fn with_pool(pool: Arc<Pool>) -> Self {
        Self {
            shared: Arc::new(Shared {
                pool,
                state: Mutex::new(Sched {
                    policy: SchedulePolicy::default(),
                    slots: Vec::new(),
                    ready: Vec::new(),
                    live: 0,
                    dispatches: 0,
                    undelivered: Vec::new(),
                    running: 0,
                    store: None,
                    knowledge: None,
                    shutdown: false,
                }),
                work: Condvar::new(),
                progress: Condvar::new(),
            }),
            lanes: Mutex::new(Vec::new()),
        }
    }

    /// Selects the scheduling policy (builder form of
    /// [`TuningService::set_policy`]).
    #[must_use]
    pub fn with_policy(self, policy: SchedulePolicy) -> Self {
        self.set_policy(policy);
        self
    }

    /// Changes the scheduling policy. Takes effect from the next dispatch;
    /// sessions already stepping finish their current run first.
    pub fn set_policy(&self, policy: SchedulePolicy) {
        self.lock_state().policy = policy;
    }

    /// The active scheduling policy.
    #[must_use]
    pub fn policy(&self) -> SchedulePolicy {
        self.lock_state().policy
    }

    /// Attaches a [`CheckpointStore`]: from now on every session persists a
    /// checkpoint at each decision boundary under its session *name*, and
    /// [`TuningService::restore`] can resume sessions by name. Attach the
    /// store **before** submitting — sessions admitted earlier keep running
    /// but are not persisted.
    #[must_use]
    pub fn with_checkpoints(self, store: Arc<dyn CheckpointStore>) -> Self {
        self.lock_state().store = Some(store);
        self
    }

    /// Attaches a [`KnowledgeStore`]: from now on every session submitted
    /// with a [`SessionSpec::with_job_key`] warm-starts from the job's
    /// stored [`JobKnowledge`] (first runs start from a fresh record) and
    /// harvests its observations back into the store on every terminal
    /// outcome — finished, failed, and cancelled sessions alike, so even a
    /// partial run feeds the job's next one. Attach the store **before**
    /// submitting; sessions admitted earlier are not knowledge-managed.
    #[must_use]
    pub fn with_knowledge_store(self, store: Arc<dyn KnowledgeStore>) -> Self {
        self.lock_state().knowledge = Some(store);
        self
    }

    /// Decodes the [`JobKnowledge`] stored under `key` in the attached
    /// [`KnowledgeStore`]. Returns `None` with no store attached, no record
    /// under that key, or a record that fails to decode.
    #[must_use]
    pub fn job_knowledge(&self, key: &str) -> Option<JobKnowledge> {
        let store = self.lock_state().knowledge.clone()?;
        let bytes = store.load(key)?;
        JobKnowledge::decode(&bytes).ok()
    }

    /// The pool shared by every session of this service.
    #[must_use]
    pub fn shared_pool(&self) -> &Arc<Pool> {
        &self.shared.pool
    }

    /// Number of sessions ever submitted (terminal ones included).
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.lock_state().slots.len()
    }

    /// A mutually consistent snapshot of the service's population — queue
    /// depth, checked-out sessions, undelivered outcomes and the dispatch
    /// clock. This is the hook an admission layer polls to decide whether
    /// the pool can usefully interleave one more session.
    #[must_use]
    pub fn load(&self) -> ServiceLoad {
        let state = self.lock_state();
        ServiceLoad {
            submitted: state.slots.len(),
            ready: state.ready.len(),
            running: state.running,
            live: state.live,
            undelivered: state.undelivered.len(),
            dispatches: state.dispatches,
        }
    }

    /// A clone of the terminal outcome of `id`, without consuming it:
    /// the outcome remains queued for the drain calls
    /// ([`TuningService::run_until_idle`], [`TuningService::take_next_outcome`],
    /// …), which still deliver it exactly once. Returns `None` while the
    /// session is live, for unknown ids, and for outcomes a drain call has
    /// already delivered.
    #[must_use]
    pub fn peek_outcome(&self, id: SessionId) -> Option<SessionOutcome> {
        let state = self.lock_state();
        state.slots.get(id.0).and_then(|slot| slot.outcome.clone())
    }

    /// Blocks until some session reaches a terminal state and delivers its
    /// outcome — the streaming drain for long-lived daemons. Outcomes are
    /// delivered in completion order, each exactly once across all drain
    /// calls. Returns `None` once the service has been halted
    /// ([`TuningService::halt`]/[`TuningService::shutdown`]) and every
    /// already-terminal outcome has been delivered.
    ///
    /// Unlike [`TuningService::run_until_idle`] this blocks even when no
    /// session is live — a daemon's drain thread parks here waiting for the
    /// next submission to finish — so interactive callers that expect an
    /// idle service to return should prefer `run_until_idle`.
    #[must_use]
    pub fn take_next_outcome(&self) -> Option<SessionOutcome> {
        let mut state = self.lock_state();
        loop {
            if !state.undelivered.is_empty() {
                let index = state.undelivered.remove(0);
                return Some(take_outcome(&mut state, index));
            }
            if state.shutdown {
                return None;
            }
            state = crate::poison::wait(&self.shared.progress, state);
        }
    }

    /// Cancels a session. A session still waiting in the ready queue is
    /// finalized immediately — [`SessionStatus::Failed`] with
    /// [`SessionError::Cancelled`], a partial report covering everything
    /// profiled so far, and the receipt trail. A session currently checked
    /// out by a lane finishes its in-flight profiling step first and is
    /// finalized at that decision boundary. Returns `true` when the cancel
    /// took hold, `false` for unknown ids, already-terminal sessions
    /// (whether or not a drain call has taken their outcome yet), and
    /// repeat cancels of an in-flight session.
    pub fn cancel(&self, id: SessionId) -> bool {
        let mut state = self.lock_state();
        let Some(slot) = state.slots.get_mut(id.0) else {
            return false;
        };
        if slot.finalized || slot.cancel_requested {
            return false;
        }
        match slot.session.take() {
            Some(mut session) => {
                // Ready (checked in): finalize in place. The session sits at
                // a decision boundary, so its partial report is coherent —
                // and worth harvesting for the job's next run.
                let name = slot.name.clone();
                let harvested = session.harvest_knowledge();
                let receipts = session.take_receipts();
                let status = SessionStatus::Failed {
                    error: SessionError::Cancelled,
                    partial: Some(finish_session(session)),
                };
                if let Some(position) = state.ready.iter().position(|&ready| ready == id.0) {
                    state.ready.swap_remove(position);
                }
                state.finalize(id.0, status, receipts);
                let store = state.store.clone();
                let knowledge = state.knowledge.clone();
                drop(state);
                if let Some(store) = store {
                    store.remove(&name);
                }
                if let (Some(store), Some(harvested)) = (knowledge, harvested) {
                    store.save(&harvested.job_key, &harvested.encode());
                }
                self.shared.progress.notify_all();
                true
            }
            None => {
                // Checked out by a lane: flag it; the lane honors the flag
                // at the next decision boundary instead of re-queueing.
                slot.cancel_requested = true;
                true
            }
        }
    }

    /// Stops the scheduler without consuming the service: lanes finish
    /// their in-flight step and exit, later submissions are rejected by the
    /// idle scheduler, and every drain blocked in
    /// [`TuningService::take_next_outcome`] wakes up (draining the
    /// already-terminal outcomes, then observing the halt). This is the
    /// shutdown hook for daemons that share the service behind an `Arc` and
    /// therefore cannot call the consuming [`TuningService::shutdown`].
    pub fn halt(&self) {
        self.stop_lanes();
    }

    /// Queues a session; scheduling starts immediately. May be called from
    /// any thread, including while the service is mid-run — the steady
    /// submission path of a long-lived service.
    ///
    /// A spec whose settings fail validation produces a
    /// [`SessionStatus::Failed`] outcome right away (with
    /// [`SessionError::InvalidSettings`] and no partial report); nothing
    /// else is affected.
    pub fn submit(&self, spec: SessionSpec) -> SessionId {
        self.admit(spec, None)
    }

    /// Resumes a session from the checkpoint stored under `spec.name()` in
    /// the attached [`CheckpointStore`]. The spec must match the one the
    /// session was originally submitted with (same settings, oracle, seed,
    /// engine) — the checkpoint carries search state, not configuration —
    /// though the step limit may differ (typically dropped, to run to
    /// completion). The resumed run is bit-identical to one that was never
    /// interrupted.
    ///
    /// With no store attached, or no checkpoint under that name, the spec is
    /// admitted as a fresh session. A checkpoint that fails to decode or
    /// validate fails its session immediately with
    /// [`SessionError::CorruptCheckpoint`]; nothing else is affected.
    pub fn restore(&self, spec: SessionSpec) -> SessionId {
        let resume = {
            let state = self.lock_state();
            state
                .store
                .as_ref()
                .and_then(|store| store.load(spec.name()))
        };
        self.admit(spec, resume)
    }

    /// Shared admission path of [`TuningService::submit`] (no `resume`) and
    /// [`TuningService::restore`] (checkpoint bytes to resume from).
    fn admit(&self, spec: SessionSpec, resume: Option<Vec<u8>>) -> SessionId {
        let SessionSpec {
            name,
            settings,
            seed,
            oracle,
            switching,
            engine,
            priority,
            deadline,
            retry,
            halt_after,
            job_key,
        } = spec;
        let (store, knowledge) = {
            let state = self.lock_state();
            (state.store.clone(), state.knowledge.clone())
        };
        // Panic recovery restarts from the latest checkpoint, the step-limit
        // fuse flushes one, and an attached store persists them — each needs
        // the session to checkpoint at every decision boundary.
        let durable = retry.max_attempts > 0 || halt_after.is_some() || store.is_some();
        // A recurring job's prior is attached at admission: loaded from the
        // knowledge store for repeat runs, a fresh record (fixing the job's
        // canonical ensemble seed to this first run's seed) otherwise. A
        // *resumed* session never reads the store — its checkpoint carries
        // the attached prior verbatim, so a killed warm session restores
        // bit-identically even if the store mutated underneath it.
        let prior: Result<Option<JobKnowledge>, SessionError> = match (&job_key, &knowledge) {
            (Some(key), Some(store)) if resume.is_none() => match store.load(key) {
                Some(bytes) => JobKnowledge::decode(&bytes)
                    .map(Some)
                    .map_err(|e| SessionError::CorruptKnowledge(e.to_string())),
                None => Ok(Some(JobKnowledge::new(key.clone(), seed))),
            },
            _ => Ok(None),
        };
        // Build the owned session outside the scheduler lock: constructing
        // the optimizer draws the bootstrap plan and allocates the decision
        // arena, none of which should serialize concurrent submitters.
        let prepared: Result<(LynceusSession<'static>, Option<Vec<u8>>), SessionError> = settings
            .validate()
            .map_err(SessionError::InvalidSettings)
            .and_then(|()| {
                let prior = prior?;
                let mut optimizer = LynceusOptimizer::new(settings)
                    .with_engine(engine)
                    .with_pool(Arc::clone(&self.shared.pool));
                if let Some(switching) = switching {
                    optimizer = optimizer.with_switching_cost(switching);
                }
                let session = match (resume, prior) {
                    (Some(bytes), _) => {
                        LynceusSession::owned_from_checkpoint(optimizer, oracle, &bytes)
                            .map_err(|e| SessionError::CorruptCheckpoint(e.to_string()))?
                    }
                    (None, Some(prior)) => {
                        LynceusSession::owned_warm(optimizer, oracle, seed, prior)
                            .map_err(|e| SessionError::CorruptKnowledge(e.to_string()))?
                    }
                    (None, None) => LynceusSession::owned(optimizer, oracle, seed),
                };
                // The step-0 (or resumed) checkpoint exists before the first
                // dispatch, so even a panic on the very first step recovers.
                let checkpoint = durable.then(|| session.encode_checkpoint());
                Ok((session, checkpoint))
            });
        if let (Ok((_, Some(bytes))), Some(store)) = (&prepared, &store) {
            store.save(&name, bytes);
        }

        let mut state = self.lock_state();
        let index = state.slots.len();
        let enqueued_at = state.dispatches;
        let ready_after = state.dispatches;
        match prepared {
            Ok((session, checkpoint)) => {
                state.slots.push(Slot {
                    name,
                    priority,
                    deadline,
                    enqueued_at,
                    ready_after,
                    retry,
                    halt_after,
                    durable,
                    checkpoint,
                    session: Some(session),
                    cancel_requested: false,
                    finalized: false,
                    outcome: None,
                });
                state.ready.push(index);
                state.live += 1;
                drop(state);
                self.shared.work.notify_one();
                self.ensure_lanes();
            }
            Err(error) => {
                // Rejected before any run: terminal immediately, never live.
                let outcome = SessionOutcome {
                    id: SessionId(index),
                    name: name.clone(),
                    status: SessionStatus::Failed {
                        error,
                        partial: None,
                    },
                    receipts: Vec::new(),
                };
                state.slots.push(Slot {
                    name,
                    priority,
                    deadline,
                    enqueued_at,
                    ready_after,
                    retry,
                    halt_after,
                    durable,
                    checkpoint: None,
                    session: None,
                    cancel_requested: false,
                    finalized: true,
                    outcome: Some(outcome),
                });
                state.undelivered.push(index);
                drop(state);
                self.shared.progress.notify_all();
            }
        }
        SessionId(index)
    }

    /// Blocks until every submitted session has reached a terminal state and
    /// returns the outcomes that have not been delivered yet (each outcome
    /// is delivered exactly once across
    /// [`TuningService::run_until_idle`]/[`TuningService::shutdown`] calls),
    /// in submission order. Sessions submitted by other threads while this
    /// call waits extend the wait — "idle" means the whole population
    /// drained.
    #[must_use]
    pub fn run_until_idle(&self) -> Vec<SessionOutcome> {
        let mut delivered = Vec::new();
        let mut state = self.lock_state();
        loop {
            let batch = std::mem::take(&mut state.undelivered);
            for index in batch {
                delivered.push(take_outcome(&mut state, index));
            }
            if state.live == 0 {
                break;
            }
            state = crate::poison::wait(&self.shared.progress, state);
        }
        drop(state);
        delivered.sort_by_key(|o| o.id.0);
        delivered
    }

    /// Stops the scheduler (lanes finish their in-flight step and exit; any
    /// session still non-terminal is abandoned without an outcome) and
    /// returns the undelivered outcomes in submission order. Called
    /// implicitly on drop; use [`TuningService::run_until_idle`] first to
    /// let the population drain.
    #[must_use]
    pub fn shutdown(self) -> Vec<SessionOutcome> {
        self.stop_lanes();
        let mut state = self.lock_state();
        let batch = std::mem::take(&mut state.undelivered);
        let mut delivered: Vec<SessionOutcome> = batch
            .into_iter()
            .map(|index| take_outcome(&mut state, index))
            .collect();
        drop(state);
        delivered.sort_by_key(|o| o.id.0);
        delivered
    }

    /// Drives every submitted session to a terminal state, shuts the
    /// scheduler down and returns the outcomes in submission order.
    #[must_use]
    pub fn run(self) -> Vec<SessionOutcome> {
        self.run_with(|_| {})
    }

    /// Like [`TuningService::run`], but also streams each outcome to
    /// `on_complete` (on the calling thread, in completion order) the moment
    /// its session reaches a terminal state — short sessions report while
    /// long ones are still being scheduled.
    pub fn run_with<F>(self, mut on_complete: F) -> Vec<SessionOutcome>
    where
        F: FnMut(&SessionOutcome),
    {
        let mut delivered = Vec::new();
        let mut state = self.lock_state();
        loop {
            let batch = std::mem::take(&mut state.undelivered);
            if batch.is_empty() {
                if state.live == 0 {
                    break;
                }
                state = crate::poison::wait(&self.shared.progress, state);
                continue;
            }
            let outcomes: Vec<SessionOutcome> = batch
                .into_iter()
                .map(|index| take_outcome(&mut state, index))
                .collect();
            // The callback runs without the scheduler lock so it can take as
            // long as it likes (print, persist, resubmit…).
            drop(state);
            for outcome in outcomes {
                on_complete(&outcome);
                delivered.push(outcome);
            }
            state = self.lock_state();
        }
        drop(state);
        self.stop_lanes();
        delivered.sort_by_key(|o| o.id.0);
        delivered
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, Sched> {
        crate::poison::lock(&self.shared.state)
    }

    /// Spawns the scheduler lanes (one per pool slot) if they are not
    /// running yet.
    fn ensure_lanes(&self) {
        let mut lanes = crate::poison::lock(&self.lanes);
        if !lanes.is_empty() {
            return;
        }
        for lane in 0..self.shared.pool.capacity() {
            let shared = Arc::clone(&self.shared);
            lanes.push(
                std::thread::Builder::new()
                    .name(format!("lynceus-lane-{lane}"))
                    .spawn(move || run_lane(&shared))
                    // lint: allow(no-panic) -- OS thread exhaustion at lane startup is unrecoverable; no session is in flight yet
                    .expect("failed to spawn a scheduler lane"),
            );
        }
    }

    /// Signals the lanes to exit and joins them. Idempotent.
    fn stop_lanes(&self) {
        let lanes: Vec<JoinHandle<()>> = std::mem::take(&mut *crate::poison::lock(&self.lanes));
        self.lock_state().shutdown = true;
        self.shared.work.notify_all();
        self.shared.progress.notify_all();
        for lane in lanes {
            let _ = lane.join();
        }
    }
}

impl Drop for TuningService {
    fn drop(&mut self) {
        self.stop_lanes();
    }
}

impl Default for TuningService {
    fn default() -> Self {
        Self::new()
    }
}

/// Moves a terminal outcome out of its slot for delivery.
fn take_outcome(state: &mut Sched, index: usize) -> SessionOutcome {
    state.slots[index]
        .outcome
        .take()
        // lint: allow(no-panic) -- registry invariant: finalize() stores the outcome before queueing the index; a None is a scheduler bug worth a loud stop
        .expect("undelivered entries always hold an outcome")
}

/// One scheduler lane: repeatedly checks the policy's next ready session out
/// of the registry, leases one pool slot, performs one step on this thread,
/// and returns the session (or records its terminal outcome).
fn run_lane(shared: &Shared) {
    loop {
        let (index, mut session, name, retry, halt_after, durable, cancelled, store, knowledge) = {
            let mut state = crate::poison::lock(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(index) = state.pick() {
                    state.dispatches += 1;
                    state.running += 1;
                    let position = state
                        .ready
                        .iter()
                        .position(|&id| id == index)
                        // lint: allow(no-panic) -- policy contract: pick() returns members of the ready queue it was shown; a miss is a policy bug worth a loud stop
                        .expect("picked sessions come from the ready queue");
                    state.ready.swap_remove(position);
                    let session = state.slots[index]
                        .session
                        .take()
                        // lint: allow(no-panic) -- registry invariant: a ready index always has its session checked in; a None is a scheduler bug worth a loud stop
                        .expect("ready sessions are checked in");
                    let slot = &state.slots[index];
                    break (
                        index,
                        session,
                        slot.name.clone(),
                        slot.retry,
                        slot.halt_after,
                        slot.durable,
                        slot.cancel_requested,
                        state.store.clone(),
                        state.knowledge.clone(),
                    );
                }
                // Backoff fast-forward: when no lane is stepping and every
                // ready session is still gated, no dispatch will ever happen
                // to age the gates out — jump the dispatch clock to the
                // earliest gate instead of deadlocking. Deterministic: the
                // jump target depends only on scheduler state.
                if state.running == 0 {
                    if let Some(gate) = state.next_wakeup() {
                        if gate > state.dispatches {
                            state.dispatches = gate;
                            shared.work.notify_all();
                            continue;
                        }
                    }
                }
                state = crate::poison::wait(&shared.work, state);
            }
        };

        // A cancel that landed while the session was checked out elsewhere
        // terminates it here — at the decision boundary, before another
        // step — with the same graceful degradation as a fatal fault.
        if cancelled {
            if let Some(store) = &store {
                store.remove(&name);
            }
            harvest_into(&knowledge, &session);
            let receipts = session.take_receipts();
            let status = SessionStatus::Failed {
                error: SessionError::Cancelled,
                partial: Some(finish_session(session)),
            };
            let mut state = crate::poison::lock(&shared.state);
            state.running -= 1;
            state.finalize(index, status, receipts);
            drop(state);
            shared.progress.notify_all();
            continue;
        }

        // The step-limit fuse parks the session *at* the boundary, before
        // stepping: its latest checkpoint already describes this exact state.
        // The store is where `restore` finds it; the slot keeps no copy.
        if halt_after.is_some_and(|limit| session.steps() >= limit) {
            if let Some(store) = &store {
                store.save(&name, &session.encode_checkpoint());
            }
            let steps = session.steps();
            let receipts = session.take_receipts();
            drop(session);
            let mut state = crate::poison::lock(&shared.state);
            state.running -= 1;
            state.finalize(index, SessionStatus::Suspended { steps }, receipts);
            drop(state);
            shared.progress.notify_all();
            continue;
        }

        // One slot per stepping session: this lane's thread is the computing
        // thread the slot pays for, held only for the duration of the step.
        // Branch fan-outs inside the step take free slots non-blockingly, so
        // no lock ordering between lanes and fan-outs can deadlock.
        let slot = shared.pool.acquire();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.step()));
        drop(slot);

        match result {
            Ok(Ok(SessionStep::Profiled(_))) => {
                // Checkpoint the fresh decision boundary outside the lock
                // (encoding and store I/O must not serialize other lanes).
                let bytes = durable.then(|| session.encode_checkpoint());
                if let (Some(store), Some(bytes)) = (&store, &bytes) {
                    store.save(&name, bytes);
                }
                let mut state = crate::poison::lock(&shared.state);
                if bytes.is_some() {
                    state.slots[index].checkpoint = bytes;
                }
                state.running -= 1;
                state.slots[index].enqueued_at = state.dispatches;
                state.slots[index].ready_after = state.dispatches;
                state.slots[index].session = Some(session);
                state.ready.push(index);
                drop(state);
                shared.work.notify_one();
            }
            Ok(Ok(SessionStep::Done)) => {
                if let Some(store) = &store {
                    store.remove(&name);
                }
                harvest_into(&knowledge, &session);
                let receipts = session.take_receipts();
                let status = SessionStatus::Finished(finish_session(session));
                let mut state = crate::poison::lock(&shared.state);
                state.running -= 1;
                state.finalize(index, status, receipts);
                drop(state);
                shared.progress.notify_all();
            }
            Ok(Err(error))
                if error.is_transient() && session.attempts_used() < retry.max_attempts =>
            {
                // Transient fault within the retry budget. `try_profile`
                // validates before recording, so the failed run left the
                // session at the same decision boundary (bootstrap steps
                // rewound their RNG draw) — retrying is transparent. The
                // recovery is tallied into the next receipt and the optional
                // surcharge is charged against β before re-checkpointing, so
                // a later crash cannot forget the charge.
                session.note_recovery();
                session.charge_retry(retry.retry_cost);
                let bytes = durable.then(|| session.encode_checkpoint());
                if let (Some(store), Some(bytes)) = (&store, &bytes) {
                    store.save(&name, bytes);
                }
                let backoff = retry
                    .backoff_steps
                    .saturating_mul(u64::from(session.attempts_used()));
                let mut state = crate::poison::lock(&shared.state);
                if bytes.is_some() {
                    state.slots[index].checkpoint = bytes;
                }
                state.running -= 1;
                state.slots[index].enqueued_at = state.dispatches;
                state.slots[index].ready_after = state.dispatches.saturating_add(backoff);
                state.slots[index].session = Some(session);
                state.ready.push(index);
                drop(state);
                // notify_all: the waiter that can make progress might be a
                // lane whose only job is to fast-forward past this backoff.
                shared.work.notify_all();
            }
            Ok(Err(error)) => {
                // Fatal fault, or a transient one past the retry budget:
                // degrade gracefully to a partial report plus the receipts.
                if let Some(store) = &store {
                    store.remove(&name);
                }
                harvest_into(&knowledge, &session);
                let attempts = session.attempts_used();
                let receipts = session.take_receipts();
                let error = if error.is_transient() {
                    SessionError::RetriesExhausted {
                        last: error,
                        attempts,
                    }
                } else {
                    error.into()
                };
                let status = SessionStatus::Failed {
                    error,
                    partial: Some(finish_session(session)),
                };
                let mut state = crate::poison::lock(&shared.state);
                state.running -= 1;
                state.finalize(index, status, receipts);
                drop(state);
                shared.progress.notify_all();
            }
            Err(panic) => {
                let message = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_owned());
                recover_from_panic(
                    shared, index, session, &name, retry, &store, &knowledge, message,
                );
            }
        }
    }
}

/// Panic containment and recovery. The unwound step may have died anywhere,
/// so the in-memory session is not trusted to *continue* — recovery rebuilds
/// it from the slot's latest checkpoint (which describes the decision
/// boundary the failed step started from). Without retry budget or
/// checkpoint, the panic is terminal — but the receipt trail is flushed and
/// the partial report attached, because nothing of the failed step was ever
/// recorded (`try_profile` validates before recording): a dead session still
/// explains every dollar it spent.
#[allow(clippy::too_many_arguments)]
fn recover_from_panic(
    shared: &Shared,
    index: usize,
    session: LynceusSession<'static>,
    name: &str,
    retry: RetryPolicy,
    store: &Option<Arc<dyn CheckpointStore>>,
    knowledge: &Option<Arc<dyn KnowledgeStore>>,
    message: String,
) {
    let bytes = if session.attempts_used() < retry.max_attempts {
        crate::poison::lock(&shared.state).slots[index]
            .checkpoint
            .clone()
    } else {
        None
    };
    let terminal = |status: SessionStatus, receipts: Vec<DecisionReceipt>| {
        if let Some(store) = store {
            store.remove(name);
        }
        let mut state = crate::poison::lock(&shared.state);
        state.running -= 1;
        state.finalize(index, status, receipts);
        drop(state);
        shared.progress.notify_all();
    };
    let Some(bytes) = bytes else {
        // No retry budget left (or the session never checkpointed): flush
        // what the session can still tell us. The knowledge harvest is safe
        // here — explorations are recorded only at decision boundaries
        // (`try_profile` validates before recording), so the unwound step
        // left nothing half-written behind.
        let mut session = session;
        harvest_into(knowledge, &session);
        let receipts = session.take_receipts();
        let status = SessionStatus::Failed {
            error: SessionError::Panicked(message),
            partial: Some(finish_session(session)),
        };
        terminal(status, receipts);
        return;
    };
    // Rebuild from the checkpoint. `dismantle` recovers the optimizer and
    // the oracle (whose in-memory state legitimately survives the panic —
    // a one-shot fault stays spent); the restored session then re-runs the
    // failed decision bit-identically.
    let Some((optimizer, oracle)) = session.dismantle() else {
        let status = SessionStatus::Failed {
            error: SessionError::Panicked(message),
            partial: None,
        };
        terminal(status, Vec::new());
        return;
    };
    match LynceusSession::owned_from_checkpoint(optimizer, oracle, &bytes) {
        Ok(mut restored) => {
            restored.note_recovery();
            restored.charge_retry(retry.retry_cost);
            let fresh = restored.encode_checkpoint();
            if let Some(store) = store {
                store.save(name, &fresh);
            }
            let backoff = retry
                .backoff_steps
                .saturating_mul(u64::from(restored.attempts_used()));
            let mut state = crate::poison::lock(&shared.state);
            state.slots[index].checkpoint = Some(fresh);
            state.running -= 1;
            state.slots[index].enqueued_at = state.dispatches;
            state.slots[index].ready_after = state.dispatches.saturating_add(backoff);
            state.slots[index].session = Some(restored);
            state.ready.push(index);
            drop(state);
            shared.work.notify_all();
        }
        Err(e) => {
            let status = SessionStatus::Failed {
                error: SessionError::Panicked(format!(
                    "{message} (checkpoint restore failed: {e})"
                )),
                partial: None,
            };
            terminal(status, Vec::new());
        }
    }
}

/// Builds a session's report under its own optimizer's name.
fn finish_session(session: LynceusSession<'static>) -> OptimizationReport {
    let name = session.optimizer().name().to_owned();
    session.finish(&name)
}

/// Harvests a terminal session's cross-run knowledge into the store — every
/// terminal outcome feeds the job's next run, partial ones included. A
/// no-op for sessions without an attached prior (no job key at admission)
/// or without a store.
fn harvest_into(store: &Option<Arc<dyn KnowledgeStore>>, session: &LynceusSession<'static>) {
    if let (Some(store), Some(knowledge)) = (store, session.harvest_knowledge()) {
        store.save(&knowledge.job_key, &knowledge.encode());
    }
}

/// Owned sessions must be `Send` for lanes to carry them; keep the
/// guarantee explicit so a non-`Send` field added to the session stack is a
/// compile error here instead of an inference failure somewhere in the
/// scheduler.
fn _assert_sessions_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<LynceusSession<'static>>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{Observation, TableOracle};
    use crate::switching::FnSwitching;
    use lynceus_space::{ConfigId, ConfigSpace, SpaceBuilder};

    fn valley_oracle(shift: f64) -> TableOracle {
        let space = SpaceBuilder::new()
            .numeric("x", (0..10).map(f64::from))
            .numeric("y", (0..4).map(f64::from))
            .build();
        TableOracle::from_fn(space, 1.0, move |f| {
            20.0 + (f[0] - shift).powi(2) * 4.0 + (f[1] - 1.0).powi(2) * 8.0
        })
    }

    fn settings(budget: f64, lookahead: usize) -> OptimizerSettings {
        OptimizerSettings {
            budget,
            tmax_seconds: 1e6,
            bootstrap_samples: Some(4),
            lookahead,
            gauss_hermite_nodes: 2,
            ..OptimizerSettings::default()
        }
    }

    /// An oracle that reports a poisoned cost after a number of clean runs.
    struct EventuallyPoisoned {
        inner: TableOracle,
        clean_runs: std::sync::atomic::AtomicUsize,
        poison: f64,
    }

    impl EventuallyPoisoned {
        fn new(inner: TableOracle, clean_runs: usize, poison: f64) -> Self {
            Self {
                inner,
                clean_runs: std::sync::atomic::AtomicUsize::new(clean_runs),
                poison,
            }
        }
    }

    impl CostOracle for EventuallyPoisoned {
        fn space(&self) -> &ConfigSpace {
            self.inner.space()
        }
        fn candidates(&self) -> Vec<ConfigId> {
            self.inner.candidates()
        }
        fn run(&self, id: ConfigId) -> Observation {
            use std::sync::atomic::Ordering;
            // ordering: Relaxed — one lane steps this session at a time, and
            // the scheduler's lock hand-offs order the load/store pair.
            let left = self.clean_runs.load(Ordering::Relaxed);
            if left == 0 {
                return Observation::new(1.0, self.poison);
            }
            // ordering: Relaxed — same single-stepper argument as the load above.
            self.clean_runs.store(left - 1, Ordering::Relaxed);
            self.inner.run(id)
        }
        fn price_rate(&self, id: ConfigId) -> f64 {
            self.inner.price_rate(id)
        }
    }

    #[test]
    fn multiplexed_sessions_are_bit_identical_to_solo_runs() {
        let service = TuningService::with_threads(2);
        let mut expected = Vec::new();
        // Eight sessions with distinct surfaces, budgets, seeds, lookaheads
        // and engines — including one with a switching-cost model.
        for i in 0..8u64 {
            let shift = 1.0 + (i % 5) as f64;
            let s = settings(450.0 + 40.0 * i as f64, (i % 2) as usize);
            let engine = match i % 3 {
                0 => PathEngine::BoundAndPrune,
                1 => PathEngine::Batched,
                _ => PathEngine::NaiveReference,
            };
            let mut solo = LynceusOptimizer::new(s.clone()).with_engine(engine);
            let mut spec =
                SessionSpec::new(format!("session-{i}"), s, Box::new(valley_oracle(shift)), i)
                    .with_engine(engine);
            if i == 5 {
                let switching =
                    |from: Option<ConfigId>, to: ConfigId| if from == Some(to) { 0.0 } else { 2.0 };
                solo = solo.with_switching_cost(Box::new(FnSwitching(switching)));
                spec = spec.with_switching_cost(Box::new(FnSwitching(switching)));
            }
            expected.push(solo.optimize(&valley_oracle(shift), i));
            service.submit(spec);
        }
        assert_eq!(service.session_count(), 8);

        let mut streamed = 0usize;
        let outcomes = service.run_with(|_| streamed += 1);
        assert_eq!(streamed, 8);
        assert_eq!(outcomes.len(), 8);
        for (i, (outcome, solo)) in outcomes.iter().zip(&expected).enumerate() {
            assert_eq!(outcome.id, SessionId(i));
            assert_eq!(outcome.name, format!("session-{i}"));
            assert_eq!(
                outcome.report(),
                Some(solo),
                "multiplexed session {i} diverged from its solo run"
            );
        }
    }

    #[test]
    fn a_poisoned_oracle_fails_its_session_and_spares_the_rest() {
        let service = TuningService::with_threads(2);
        for i in 0..3u64 {
            service.submit(SessionSpec::new(
                format!("healthy-{i}"),
                settings(500.0, 1),
                Box::new(valley_oracle(6.0)),
                i,
            ));
        }
        // Poisoned after 6 clean runs: it fails mid-flight, well after the
        // scheduler has interleaved it with the healthy sessions.
        service.submit(SessionSpec::new(
            "poisoned",
            settings(500.0, 1),
            Box::new(EventuallyPoisoned::new(
                valley_oracle(6.0),
                6,
                f64::INFINITY,
            )),
            9,
        ));

        let outcomes = service.run();
        assert_eq!(outcomes.len(), 4);
        for (i, outcome) in outcomes[..3].iter().enumerate() {
            let solo =
                LynceusOptimizer::new(settings(500.0, 1)).optimize(&valley_oracle(6.0), i as u64);
            assert_eq!(
                outcome.report(),
                Some(&solo),
                "healthy session {i} was disturbed by the poisoned one"
            );
        }
        let failed = &outcomes[3];
        assert!(failed.is_failed());
        let SessionStatus::Failed { error, partial } = &failed.status else {
            panic!("expected a failure");
        };
        assert!(
            matches!(
                error,
                SessionError::Profile(ProfileError::InvalidCost { cost, .. }) if cost.is_infinite()
            ),
            "unexpected diagnostic: {error}"
        );
        // The partial report covers exactly the clean runs.
        let partial = partial.as_ref().expect("failed mid-run, not at submission");
        assert_eq!(partial.num_explorations(), 6);
        assert!(error.to_string().contains("unusable cost"));
    }

    #[test]
    fn nan_costs_are_also_survivable() {
        let service = TuningService::with_threads(1);
        service.submit(SessionSpec::new(
            "nan",
            settings(500.0, 0),
            Box::new(EventuallyPoisoned::new(valley_oracle(3.0), 2, f64::NAN)),
            1,
        ));
        service.submit(SessionSpec::new(
            "fine",
            settings(500.0, 0),
            Box::new(valley_oracle(3.0)),
            1,
        ));
        let outcomes = service.run();
        assert!(outcomes[0].is_failed());
        assert!(!outcomes[1].is_failed());
    }

    /// An oracle that panics after a number of clean runs.
    struct PanickingOracle {
        inner: TableOracle,
        clean_runs: std::sync::atomic::AtomicUsize,
    }

    impl CostOracle for PanickingOracle {
        fn space(&self) -> &ConfigSpace {
            self.inner.space()
        }
        fn candidates(&self) -> Vec<ConfigId> {
            self.inner.candidates()
        }
        fn run(&self, id: ConfigId) -> Observation {
            use std::sync::atomic::Ordering;
            // ordering: Relaxed — one lane steps this session at a time, and
            // the scheduler's lock hand-offs order the load/store pair.
            let left = self.clean_runs.load(Ordering::Relaxed);
            assert!(left != 0, "cloud exploded");
            // ordering: Relaxed — same single-stepper argument as the load above.
            self.clean_runs.store(left - 1, Ordering::Relaxed);
            self.inner.run(id)
        }
        fn price_rate(&self, id: ConfigId) -> f64 {
            self.inner.price_rate(id)
        }
    }

    #[test]
    fn a_panicking_oracle_is_contained_to_its_session() {
        let service = TuningService::with_threads(2);
        service.submit(SessionSpec::new(
            "panics",
            settings(500.0, 0),
            Box::new(PanickingOracle {
                inner: valley_oracle(4.0),
                clean_runs: std::sync::atomic::AtomicUsize::new(3),
            }),
            2,
        ));
        service.submit(SessionSpec::new(
            "fine",
            settings(500.0, 0),
            Box::new(valley_oracle(4.0)),
            5,
        ));
        let outcomes = service.run();
        let SessionStatus::Failed { error, partial } = &outcomes[0].status else {
            panic!("the panicking session must fail");
        };
        assert!(
            matches!(error, SessionError::Panicked(m) if m.contains("cloud exploded")),
            "unexpected diagnostic: {error}"
        );
        assert_eq!(
            partial.as_ref().map(OptimizationReport::num_explorations),
            Some(3)
        );
        let solo = LynceusOptimizer::new(settings(500.0, 0)).optimize(&valley_oracle(4.0), 5);
        assert_eq!(outcomes[1].report(), Some(&solo));
    }

    #[test]
    fn invalid_settings_fail_at_submission_without_a_partial_report() {
        let service = TuningService::new();
        let bad = OptimizerSettings {
            budget: -1.0,
            ..OptimizerSettings::default()
        };
        service.submit(SessionSpec::new(
            "bad",
            bad,
            Box::new(valley_oracle(2.0)),
            0,
        ));
        service.submit(SessionSpec::new(
            "good",
            settings(400.0, 0),
            Box::new(valley_oracle(2.0)),
            3,
        ));
        let outcomes = service.run();
        let SessionStatus::Failed { error, partial } = &outcomes[0].status else {
            panic!("invalid settings must fail the session");
        };
        assert!(matches!(error, SessionError::InvalidSettings(_)));
        assert!(partial.is_none());
        assert!(error.to_string().contains("rejected"));
        assert!(outcomes[1].report().is_some());
    }

    #[test]
    fn an_empty_service_completes_immediately() {
        let service = TuningService::default();
        assert_eq!(service.session_count(), 0);
        assert!(service.run().is_empty());
    }

    #[test]
    fn run_until_idle_supports_submission_between_waves() {
        let service = TuningService::with_threads(2);
        let solo = |seed: u64| {
            LynceusOptimizer::new(settings(400.0, 0)).optimize(&valley_oracle(2.0), seed)
        };
        let first = service.submit(SessionSpec::new(
            "wave1",
            settings(400.0, 0),
            Box::new(valley_oracle(2.0)),
            1,
        ));
        let wave1 = service.run_until_idle();
        assert_eq!(wave1.len(), 1);
        assert_eq!(wave1[0].id, first);
        assert_eq!(wave1[0].report(), Some(&solo(1)));

        // The service is idle but alive: a second wave reuses the lanes.
        let second = service.submit(SessionSpec::new(
            "wave2",
            settings(400.0, 0),
            Box::new(valley_oracle(2.0)),
            2,
        ));
        assert_eq!(second, SessionId(1));
        let wave2 = service.run_until_idle();
        assert_eq!(wave2.len(), 1);
        assert_eq!(wave2[0].report(), Some(&solo(2)));

        // Everything was already delivered; shutdown has nothing left.
        assert!(service.shutdown().is_empty());
    }

    #[test]
    fn policies_are_reported_and_switchable() {
        let service = TuningService::with_threads(1);
        assert_eq!(service.policy(), SchedulePolicy::RoundRobin);
        service.set_policy(SchedulePolicy::EarliestDeadline);
        assert_eq!(service.policy(), SchedulePolicy::EarliestDeadline);
        let service = service.with_policy(SchedulePolicy::Priority);
        assert_eq!(service.policy(), SchedulePolicy::Priority);
    }

    #[test]
    fn spec_accessors_expose_name_priority_and_deadline() {
        let spec = SessionSpec::new("named", settings(100.0, 0), Box::new(valley_oracle(1.0)), 0);
        assert_eq!(spec.name(), "named");
        assert_eq!(spec.priority(), 0);
        assert_eq!(spec.deadline(), f64::INFINITY);
        let spec = spec.with_priority(-3).with_deadline(f64::NAN);
        assert_eq!(spec.priority(), -3);
        assert_eq!(
            spec.deadline(),
            f64::INFINITY,
            "NaN deadlines are sanitized"
        );
        let spec = spec.with_deadline(12.5);
        assert_eq!(spec.deadline(), 12.5);
        assert_eq!(SessionId(2), SessionId(2));
        assert_eq!(spec.retry_policy(), RetryPolicy::default());
        assert_eq!(spec.step_limit(), None);
        let spec = spec
            .with_retry_policy(RetryPolicy::none())
            .with_step_limit(4);
        assert_eq!(spec.retry_policy().max_attempts, 0);
        assert_eq!(spec.step_limit(), Some(4));
    }

    /// An oracle whose `try_run` reports a transient fault at chosen global
    /// call indices (the faulted call itself consumes an index, exactly like
    /// a revoked spot instance consumes an attempt).
    struct FlakyOracle {
        inner: TableOracle,
        calls: std::sync::atomic::AtomicUsize,
        faults: Vec<usize>,
    }

    impl FlakyOracle {
        fn new(inner: TableOracle, faults: Vec<usize>) -> Self {
            Self {
                inner,
                calls: std::sync::atomic::AtomicUsize::new(0),
                faults,
            }
        }
    }

    impl CostOracle for FlakyOracle {
        fn space(&self) -> &ConfigSpace {
            self.inner.space()
        }
        fn candidates(&self) -> Vec<ConfigId> {
            self.inner.candidates()
        }
        fn run(&self, id: ConfigId) -> Observation {
            self.inner.run(id)
        }
        fn try_run(&self, id: ConfigId) -> Result<Observation, crate::faults::OracleFault> {
            use std::sync::atomic::Ordering;
            // ordering: Relaxed — one lane steps this session at a time, and
            // the scheduler's lock hand-offs order the counter updates.
            let call = self.calls.fetch_add(1, Ordering::Relaxed);
            if self.faults.contains(&call) {
                Err(crate::faults::OracleFault::Revoked)
            } else {
                Ok(self.inner.run(id))
            }
        }
        fn price_rate(&self, id: ConfigId) -> f64 {
            self.inner.price_rate(id)
        }
    }

    #[test]
    fn transient_faults_are_retried_and_the_recovered_run_is_bit_identical() {
        let solo = LynceusOptimizer::new(settings(500.0, 1)).optimize(&valley_oracle(5.0), 11);
        let service = TuningService::with_threads(2);
        service.submit(
            SessionSpec::new(
                "flaky",
                settings(500.0, 1),
                Box::new(FlakyOracle::new(valley_oracle(5.0), vec![2, 6])),
                11,
            )
            .with_retry_policy(RetryPolicy {
                max_attempts: 3,
                backoff_steps: 2,
                retry_cost: 0.0,
            }),
        );
        let outcomes = service.run();
        assert_eq!(
            outcomes[0].report(),
            Some(&solo),
            "a recovered session must be bit-identical to the fault-free run"
        );
        // The recoveries are tallied on the receipts of the decisions they
        // delayed, and β was charged exactly once per profiling run.
        let receipts = &outcomes[0].receipts;
        assert_eq!(
            receipts.len() as u64,
            receipts.last().map_or(0, |r| r.step) + 1
        );
        let faults: u32 = receipts.iter().map(|r| r.faults_observed).sum();
        let retries: u32 = receipts.iter().map(|r| r.retries_consumed).sum();
        assert_eq!((faults, retries), (2, 2));
        assert_eq!(
            solo.budget_spent,
            outcomes[0]
                .report()
                .map(|r| r.budget_spent)
                .unwrap_or(f64::NAN),
            "free retries must not double-charge β"
        );
    }

    #[test]
    fn a_priced_retry_charges_its_surcharge_against_the_budget() {
        let solo = LynceusOptimizer::new(settings(500.0, 0)).optimize(&valley_oracle(5.0), 3);
        let service = TuningService::with_threads(1);
        service.submit(
            SessionSpec::new(
                "priced",
                settings(500.0, 0),
                Box::new(FlakyOracle::new(valley_oracle(5.0), vec![1])),
                3,
            )
            .with_retry_policy(RetryPolicy {
                max_attempts: 3,
                backoff_steps: 0,
                retry_cost: 2.5,
            }),
        );
        let outcomes = service.run();
        let report = outcomes[0].report().expect("recovered within the policy");
        assert!(
            (report.budget_spent - (solo.budget_spent + 2.5)).abs() < 1e-9,
            "one retry at $2.50 must surcharge β exactly once: {} vs {}",
            report.budget_spent,
            solo.budget_spent
        );
    }

    #[test]
    fn retry_exhaustion_degrades_to_a_partial_report_with_receipts() {
        let service = TuningService::with_threads(1);
        service.submit(
            SessionSpec::new(
                "doomed",
                settings(500.0, 0),
                Box::new(FlakyOracle::new(valley_oracle(5.0), vec![2, 3, 4, 5, 6])),
                7,
            )
            .with_retry_policy(RetryPolicy {
                max_attempts: 3,
                backoff_steps: 1,
                retry_cost: 0.0,
            }),
        );
        let outcomes = service.run();
        let SessionStatus::Failed { error, partial } = &outcomes[0].status else {
            panic!("an always-faulting decision must exhaust its retries");
        };
        assert!(
            matches!(error, SessionError::RetriesExhausted { attempts: 3, .. }),
            "unexpected diagnostic: {error}"
        );
        assert!(error.to_string().contains("exhausting 3 retry attempts"));
        let partial = partial.as_ref().expect("two clean runs happened");
        assert_eq!(partial.num_explorations(), 2);
        assert_eq!(outcomes[0].receipts.len(), 2);
    }

    #[test]
    fn a_step_limited_session_suspends_and_restores_bit_identically() {
        let solo = LynceusOptimizer::new(settings(500.0, 1)).optimize(&valley_oracle(6.0), 21);
        let store: Arc<dyn CheckpointStore> = Arc::new(crate::checkpoint::MemoryStore::new());

        let service = TuningService::with_threads(2).with_checkpoints(Arc::clone(&store));
        service.submit(
            SessionSpec::new(
                "parked",
                settings(500.0, 1),
                Box::new(valley_oracle(6.0)),
                21,
            )
            .with_step_limit(3),
        );
        let outcomes = service.run();
        assert!(
            matches!(outcomes[0].status, SessionStatus::Suspended { steps: 3 }),
            "expected suspension at step 3, got {:?}",
            outcomes[0].status
        );
        assert_eq!(outcomes[0].receipts.len(), 3);
        assert!(outcomes[0].report().is_none());

        // A new service — a new process, as far as the session can tell —
        // resumes from the stored checkpoint and matches the solo run.
        let revived = TuningService::with_threads(2).with_checkpoints(Arc::clone(&store));
        revived.restore(SessionSpec::new(
            "parked",
            settings(500.0, 1),
            Box::new(valley_oracle(6.0)),
            21,
        ));
        let outcomes = revived.run();
        assert_eq!(
            outcomes[0].report(),
            Some(&solo),
            "kill-and-resume must be bit-identical to the uninterrupted run"
        );
        // The checkpoint carried the receipt trail across the kill: the
        // resumed outcome delivers the complete, contiguous audit from
        // step 0, not just the post-restore half.
        let steps: Vec<u64> = outcomes[0].receipts.iter().map(|r| r.step).collect();
        assert_eq!(steps, (0..steps.len() as u64).collect::<Vec<_>>());
        assert!(
            steps.len() > 3,
            "the resumed run kept stepping past the fuse"
        );
    }

    #[test]
    fn restoring_without_a_checkpoint_runs_fresh_and_corrupt_bytes_fail_cleanly() {
        let solo = LynceusOptimizer::new(settings(400.0, 0)).optimize(&valley_oracle(2.0), 9);
        let store = Arc::new(crate::checkpoint::MemoryStore::new());
        store.save("corrupt", &[0xde, 0xad, 0xbe, 0xef]);

        let service = TuningService::with_threads(1).with_checkpoints(store);
        service.restore(SessionSpec::new(
            "fresh",
            settings(400.0, 0),
            Box::new(valley_oracle(2.0)),
            9,
        ));
        service.restore(SessionSpec::new(
            "corrupt",
            settings(400.0, 0),
            Box::new(valley_oracle(2.0)),
            9,
        ));
        let outcomes = service.run();
        assert_eq!(
            outcomes[0].report(),
            Some(&solo),
            "restore of an unknown name admits a fresh session"
        );
        let SessionStatus::Failed { error, partial } = &outcomes[1].status else {
            panic!("garbage bytes must fail the session at admission");
        };
        assert!(
            matches!(error, SessionError::CorruptCheckpoint(_)),
            "unexpected diagnostic: {error}"
        );
        assert!(partial.is_none());
        assert!(error.to_string().contains("checkpoint is unusable"));
    }

    #[test]
    fn peek_and_streamed_drain_deliver_exactly_once() {
        let service = TuningService::with_threads(1);
        let bad = OptimizerSettings {
            budget: -1.0,
            ..OptimizerSettings::default()
        };
        let id = service.submit(SessionSpec::new(
            "bad",
            bad,
            Box::new(valley_oracle(1.0)),
            0,
        ));

        // Peeking is non-consuming: the outcome stays queued for the drain.
        assert!(service.peek_outcome(id).is_some());
        assert!(service.peek_outcome(id).is_some());
        assert!(service.peek_outcome(SessionId(99)).is_none());

        let outcome = service.take_next_outcome().expect("one terminal outcome");
        assert_eq!(outcome.id, id);
        assert!(outcome.is_failed());
        // Delivered exactly once: the peek window is gone too.
        assert!(service.peek_outcome(id).is_none());

        // After halt, a drained service reports None instead of blocking.
        service.halt();
        assert!(service.take_next_outcome().is_none());
    }

    #[test]
    fn halt_wakes_a_parked_streamed_drain() {
        let service = Arc::new(TuningService::with_threads(1));
        let drain = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.take_next_outcome())
        };
        // The drain thread parks on an idle service; halt must wake it.
        service.halt();
        assert!(drain.join().expect("drain thread exited cleanly").is_none());
    }

    #[test]
    fn load_snapshots_the_population() {
        let service = TuningService::with_threads(2);
        assert_eq!(service.load(), ServiceLoad::default());
        for seed in 0..3 {
            service.submit(SessionSpec::new(
                format!("job-{seed}"),
                settings(400.0, 0),
                Box::new(valley_oracle(2.0)),
                seed,
            ));
        }
        let outcomes = service.run_until_idle();
        assert_eq!(outcomes.len(), 3);
        let load = service.load();
        assert_eq!(load.submitted, 3);
        assert_eq!(
            (load.ready, load.running, load.live, load.undelivered),
            (0, 0, 0, 0)
        );
        assert!(load.dispatches > 0);
    }

    #[test]
    fn a_cancelled_session_degrades_to_a_partial_report() {
        let service = TuningService::with_threads(1);
        let id = service.submit(SessionSpec::new(
            "cancelled",
            settings(100_000.0, 1),
            Box::new(valley_oracle(5.0)),
            13,
        ));
        assert!(
            !service.cancel(SessionId(7)),
            "unknown ids are not cancellable"
        );
        assert!(service.cancel(id));
        assert!(!service.cancel(id), "repeat cancels do not take hold twice");
        let outcomes = service.run_until_idle();
        assert_eq!(outcomes.len(), 1);
        let SessionStatus::Failed { error, partial } = &outcomes[0].status else {
            panic!("a cancelled session must report Failed/Cancelled");
        };
        assert_eq!(*error, SessionError::Cancelled);
        assert!(partial.is_some(), "cancellation keeps the partial report");
        assert_eq!(error.to_string(), "session cancelled");
        assert!(!service.cancel(id), "terminal sessions are not cancellable");
    }

    #[test]
    fn cancelling_a_queued_session_spares_its_siblings() {
        let service = TuningService::with_threads(1);
        let doomed = service.submit(SessionSpec::new(
            "doomed",
            settings(100_000.0, 1),
            Box::new(valley_oracle(3.0)),
            2,
        ));
        let healthy = service.submit(SessionSpec::new(
            "healthy",
            settings(400.0, 0),
            Box::new(valley_oracle(3.0)),
            8,
        ));
        assert!(service.cancel(doomed));
        let outcomes = service.run_until_idle();
        assert_eq!(outcomes.len(), 2);
        let by_id = |id: SessionId| outcomes.iter().find(|o| o.id == id).expect("delivered");
        assert!(matches!(
            &by_id(doomed).status,
            SessionStatus::Failed {
                error: SessionError::Cancelled,
                ..
            }
        ));
        let solo = LynceusOptimizer::new(settings(400.0, 0)).optimize(&valley_oracle(3.0), 8);
        assert_eq!(
            by_id(healthy).report(),
            Some(&solo),
            "a sibling's cancellation must not disturb the survivor"
        );
    }

    #[test]
    fn a_finished_session_clears_its_checkpoint_from_the_store() {
        let store = Arc::new(crate::checkpoint::MemoryStore::new());
        let service = TuningService::with_threads(1)
            .with_checkpoints(Arc::clone(&store) as Arc<dyn CheckpointStore>);
        service.submit(SessionSpec::new(
            "transient-state",
            settings(400.0, 0),
            Box::new(valley_oracle(3.0)),
            4,
        ));
        let outcomes = service.run();
        assert!(outcomes[0].report().is_some());
        assert!(
            store.is_empty(),
            "finished sessions must not leave stale checkpoints behind"
        );
    }

    #[test]
    fn terminal_sessions_hold_no_checkpoint_bytes() {
        // Durable sessions (the attached store makes every boundary
        // checkpoint) reaching each terminal state.
        let store: Arc<dyn CheckpointStore> = Arc::new(crate::checkpoint::MemoryStore::new());
        let service = TuningService::with_threads(1).with_checkpoints(Arc::clone(&store));
        let cancelled = service.submit(SessionSpec::new(
            "cancelled",
            settings(100_000.0, 1),
            Box::new(valley_oracle(5.0)),
            13,
        ));
        assert!(service.cancel(cancelled));
        service.submit(SessionSpec::new(
            "finished",
            settings(400.0, 0),
            Box::new(valley_oracle(3.0)),
            4,
        ));
        service.submit(SessionSpec::new(
            "failed",
            settings(500.0, 1),
            Box::new(EventuallyPoisoned::new(
                valley_oracle(6.0),
                6,
                f64::INFINITY,
            )),
            9,
        ));
        service.submit(
            SessionSpec::new(
                "suspended",
                settings(500.0, 1),
                Box::new(valley_oracle(6.0)),
                21,
            )
            .with_step_limit(3),
        );
        let outcomes = service.run_until_idle();
        let states: Vec<&str> = outcomes
            .iter()
            .map(|outcome| match &outcome.status {
                SessionStatus::Finished(_) => "finished",
                SessionStatus::Failed {
                    error: SessionError::Cancelled,
                    ..
                } => "cancelled",
                SessionStatus::Failed { .. } => "failed",
                SessionStatus::Suspended { .. } => "suspended",
            })
            .collect();
        assert_eq!(states, ["cancelled", "finished", "failed", "suspended"]);
        let state = service.lock_state();
        for slot in &state.slots {
            assert!(
                slot.checkpoint.is_none(),
                "terminal session {} still holds checkpoint bytes",
                slot.name
            );
        }
        drop(state);
        // The suspended session's checkpoint lives on in the store alone.
        assert!(store.load("suspended").is_some());
        assert!(store.load("finished").is_none());
    }
}
