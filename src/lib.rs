//! # Lynceus — budget-aware tuning and provisioning of data analytic jobs
//!
//! This is the facade crate of the Lynceus reproduction workspace. It
//! re-exports every sub-crate under a short module name so applications can
//! depend on a single crate:
//!
//! | Module | Contents |
//! | --- | --- |
//! | [`core`] | The optimizers: [`core::LynceusOptimizer`], [`core::BoOptimizer`], [`core::RandomOptimizer`], the [`core::CostOracle`] trait and the Section 4.4 extensions. |
//! | [`datasets`] | The TensorFlow / Scout / CherryPick lookup datasets used by the paper's evaluation. |
//! | [`experiments`] | The harness that reproduces every figure and table. |
//! | [`learners`] | Surrogate models (bagging ensembles of regression trees). |
//! | [`space`] | Configuration-space abstraction. |
//! | [`cloud`] | VM catalog, clusters, pricing, setup costs. |
//! | [`sim`] | Analytic job-performance simulators. |
//! | [`math`] | Normal distribution, Gauss–Hermite quadrature, LHS, statistics. |
//! | [`serve`] | HTTP/1.1 + JSON front-end over the tuning service. |
//!
//! # Quick start
//!
//! ```
//! use lynceus::core::{LynceusOptimizer, Optimizer, OptimizerSettings};
//! use lynceus::datasets::scout;
//!
//! // Pick one of the bundled datasets (a Spark job on an AWS grid)…
//! let job = scout::dataset(&scout::job_profiles()[0], 1);
//! // …give Lynceus a profiling budget of 3x the bootstrap cost…
//! let settings = OptimizerSettings {
//!     budget: job.budget_for(3, 3.0),
//!     tmax_seconds: job.tmax_seconds(),
//!     lookahead: 1,
//!     ..OptimizerSettings::default()
//! };
//! // …and let it find a cheap configuration that meets the deadline.
//! let report = LynceusOptimizer::new(settings).optimize(&job, 7);
//! assert!(report.recommended.is_some());
//! ```

//! # Multi-job serving
//!
//! One process can serve many concurrent tuning sessions through
//! [`core::TuningService`]: each session brings its own oracle, budget,
//! seed and (optionally) switching-cost model, a scheduling priority and a
//! deadline, and all of them share a single worker-thread budget
//! ([`core::Pool`]) instead of oversubscribing the machine per session.
//!
//! The scheduler is **concurrent**: one scheduler lane per pool slot checks
//! ready sessions out of a registry and steps them in parallel, each
//! stepping session holding one slot (its lane's thread is the computing
//! thread the slot pays for) while its branch fan-out soaks up whatever
//! extra slots the neighbours leave free, non-blockingly — which is what
//! makes M concurrent decisions share N workers deadlock-free, and what
//! lets the service *outrun* back-to-back execution on multicore hardware
//! (`perfbench/` measures the service's sessions per second on its 2-lane
//! workloads). Sessions can be submitted from any thread
//! while the service is mid-run (`submit`/`run_until_idle`/`shutdown`
//! lifecycle), and three scheduling policies are built in
//! ([`core::SchedulePolicy`]): round-robin (default), highest-priority
//! first, and earliest-deadline first — all three bounded by a starvation
//! guard (`core::STARVATION_LIMIT`) so no session can be parked forever.
//!
//! Error isolation is per-session: an oracle that reports a NaN or
//! infinite cost — or panics outright — moves its own session to a
//! `Failed` state with a diagnostic and a partial report, while every
//! other session runs on untouched. And because each session owns its full
//! state (RNG, surrogate, decision arena) and speculation is overlaid
//! ([`core::SpeculativeCursor`]) rather than cloned or shared, a
//! multiplexed session's [`core::OptimizationReport`] is bit-identical to
//! running that session alone — regardless of thread count, policy or
//! interleaving, which is what the `concurrent_service` and
//! `multi_session` suites (and the CI `service-stress` matrix over
//! `LYNCEUS_TEST_THREADS` × policy) enforce. See `examples/multi_job.rs`
//! for a service serving the Scout/CherryPick/TensorFlow datasets under
//! the priority policy with steady submission.
//!
//! # Serving
//!
//! [`serve`] turns the multi-job service into a network service: a
//! std-only HTTP/1.1 + JSON front-end ([`serve::Server`]) with the same
//! hand-rolled, no-dependency discipline as `core::codec`. Clients submit
//! session specs over the wire ([`serve::wire::SpecRequest`]), poll or
//! long-poll status, fetch reports and decision-receipt trails, and
//! cancel ([`core::TuningService::cancel`] honors a cancellation at the
//! next decision boundary and degrades the session to a `Failed` outcome
//! carrying the partial report). Oracles never cross the wire — a spec
//! *names* an oracle resolved through a server-side
//! [`serve::OracleFactory`] — and every wire form is versioned and
//! rejects unknown fields, so protocol drift fails loudly at the boundary
//! instead of silently downstream.
//!
//! Determinism survives the wire: floats travel in shortest-decimal form
//! (bit-exact round-trip), u64 seeds above 2^53 ride as raw decimal
//! literals, and a session submitted over HTTP produces the bit-identical
//! report and receipt trail of the same spec run solo in-process at any
//! thread count — enforced by `tests/http_conformance.rs` (golden
//! transcripts + wire-vs-solo diffs) and the CI `service-http` job.
//!
//! In front of the service sits **admission control**
//! ([`serve::AdmissionPolicy`]): a bounded live-session queue that sheds
//! past its cap with `503` + `Retry-After` and zero server-side effect.
//! Shedding is deterministic (`admitted + shed == submitted` is a hard
//! invariant; `tests/http_conformance.rs` pins a 2000-session burst to
//! exactly the cap), and `perfbench/`'s http-recurring workload measures
//! sessions per second and session latency through the full wire path.
//!
//! # Recurring jobs
//!
//! The paper's premise is that data-analytic jobs *recur* — the cost of
//! tuning is amortized across executions — yet a plain session starts
//! every run cold: fresh LHS bootstrap, empty ensemble, a pruning guard
//! that relearns feasibility from zero. The cross-run knowledge layer
//! ([`core::transfer`]) closes that loop:
//!
//! * **Job knowledge** — a [`core::JobKnowledge`] record per job key:
//!   every prior observation (config id, runtime, cost, secondary
//!   metrics), the ensemble seed the chain fits under and a run counter,
//!   serialized through a versioned `KNOW` codec that rejects truncation
//!   and non-finite payloads (and still reads the previous version, whose
//!   two anchor keys it discards). Stores implement [`core::KnowledgeStore`]
//!   (in-memory [`core::transfer::MemoryStore`], crash-safe
//!   temp-file+atomic-rename [`core::transfer::DirStore`]).
//! * **Warm starts, exactly** — a session whose [`core::SessionSpec`]
//!   carries a `job_key` replays the prior observations into Σ without
//!   oracle charges, shrinks (or skips) the LHS bootstrap by the replayed
//!   count, and extends the prior run's fitted ensemble through the
//!   Poisson-count `refit_with` machinery under the chain's pinned
//!   ensemble seed — so the warm fit is bit-identical to fitting the
//!   union from scratch, on every engine and thread count
//!   (`tests/recurring.rs` pins K=3 chains across
//!   `PathEngine::{BoundAndPrune, Batched, NaiveReference}`, store
//!   backends, and mid-run kill/resume).
//! * **Warm pruning** — a replayed feasible observation is part of Σ, so
//!   it arms branch-and-bound pruning from the first decision. Nothing
//!   else crosses runs: every decision relearns its incumbent and tail
//!   anchor from zero. The committed `BENCH_recurring.json`
//!   (`fig_recurring` bench, gated by `bench_check::recurring_violations`)
//!   measures a K=3 scout chain under a tight constraint: cost-to-target
//!   3.36 → 0.00 dollars by run 2, and first-decision pruning 0% cold
//!   (disarmed guard) → 14% warm.
//! * **Service + wire integration** — [`core::TuningService`] attaches
//!   knowledge at admit and harvests at every terminal outcome (never at
//!   suspension; checkpoints carry the attached prior, so kill/resume
//!   replays bit-identically). Over HTTP, a spec's `job_key` field rides
//!   the versioned wire form, `GET /v1/jobs/{key}` reports knowledge
//!   stats, and the wire chain harvests/reuses knowledge identically to
//!   the embedded path (`tests/http_conformance.rs`, CI `recurring` job).
//!
//! # Fault model & durability
//!
//! Production profiling runs meet weather a lookup-table replay never
//! shows: spot instances are revoked mid-run, oracles time out, harness
//! processes crash, spot prices jump. The reproduction models that storm
//! *deterministically* and makes the serving layer survive it:
//!
//! * **Deterministic fault injection** — [`core::faults`] defines the
//!   failure vocabulary ([`core::OracleFault`], [`core::FaultKind`]) and
//!   seeded schedules ([`core::FaultPlan`]) keyed by oracle-call index, so
//!   the fault plan is part of the session seed: the same seed always
//!   produces the same storm under any thread count or scheduling
//!   interleave. [`sim::TurbulentOracle`] wraps any oracle in such a plan
//!   (revocations, transient errors, mid-step panics, price shocks), and
//!   [`cloud::SpotPriceSeries`] provides seeded step-indexed spot-price
//!   walks.
//! * **Retrying sessions** — a transient fault does not fail a session:
//!   its [`core::RetryPolicy`] grants a bounded per-session retry budget
//!   with backoff counted in *scheduler dispatches* (never wall-clock) and
//!   an optional surcharge charged against the session's own β, so
//!   retries are never free when priced. Exhaustion degrades gracefully to
//!   a `Failed` outcome carrying the partial report — sibling sessions
//!   never notice, and β is never double-charged (a faulted run records
//!   and charges nothing).
//! * **Checkpoint/replay durability** — with a [`core::CheckpointStore`]
//!   attached, every decision boundary serializes the session's complete
//!   state (search state Σ, RNG position, bootstrap plan, receipts, retry
//!   ledger, oracle cursor) through the std-only binary codec
//!   ([`core::codec`]); `TuningService::restore` resumes a killed session
//!   **bit-identically** to the uninterrupted run, on every engine and
//!   thread count (enforced by the `durability` and `fault_matrix` suites
//!   and the CI `chaos` job). Decoders read the previous format version
//!   too, so an upgrade strands no suspended session: golden blobs under
//!   `tests/fixtures/formats/` pin a previous-version checkpoint and
//!   knowledge record (`tests/recurring.rs`). A terminal session's slot
//!   drops its checkpoint bytes.
//! * **Decision receipts** — every profiling run appends a
//!   [`core::DecisionReceipt`] (chosen configuration, Γ size, incumbent, β
//!   before/after, prune counters, faults observed, retries consumed);
//!   the trail rides inside checkpoints and is delivered with every
//!   terminal outcome, so even a panicked session explains every dollar
//!   it spent.
//!
//! # Performance
//!
//! The hottest path of the system is the speculation engine: every
//! optimizer decision simulates exploration paths for every budget-feasible
//! candidate, and each simulated branch needs a surrogate fitted on a
//! speculated training set plus predictions over the whole untested space.
//! The branch count grows as `|Γ|·k^LA`, which is why the paper stops at
//! `LA = 2`; the production engine opens `LA ≥ 3` with a best-first
//! branch-and-bound search (see below). The engine (see
//! [`core::PathEngine`]) is built around seven ideas:
//!
//! * **Batched, tree-major prediction** — each (real or speculated) state is
//!   scored with one [`learners::Surrogate::predict_rows`] pass over a
//!   precomputed row-major [`learners::FeatureMatrix`], into reusable
//!   buffers; a per-decision memo ([`learners::RowValueMemo`]) lets member
//!   trees shared between speculative ensembles be traversed once per
//!   decision instead of once per state. The engines gather the decision's
//!   untested rows into one dense row block (`prepare_root`) that every
//!   Gauss–Hermite branch of every candidate at every speculation level
//!   streams, instead of re-materializing scattered rows per candidate.
//! * **Flat struct-of-arrays tree tables** — fitting a
//!   [`learners::RegressionTree`] also lays the tree out as three
//!   contiguous arrays (`feature`, `threshold`, packed child indices with
//!   a leaf sentinel), so descent is an arithmetic select —
//!   `child + !(x <= threshold)` — with no pointer chasing, no enum
//!   discriminant, and no branch to mispredict (NaN features take the
//!   right child through the same comparison, exactly like the pointer
//!   walk). Batch prediction descends four rows per tree in interleaved
//!   lanes to overlap the independent memory chains. The pointer/enum
//!   form stays the authoritative, serialized representation (reference
//!   fits keep walking it), and the flat form is pinned bit-identical to
//!   it by a seeded adversarial sweep (NaN, ±inf, subnormals,
//!   exact-threshold rows) plus every engine-equivalence suite.
//! * **Incremental surrogate extension** — bootstrap resamples use
//!   counter-based Poisson(1) counts, so
//!   [`learners::BaggingEnsemble::refit_with`] extends a fitted ensemble by
//!   one speculated sample while rebuilding only the member trees whose
//!   resample draws it (~63%), bit-identically to a from-scratch fit.
//! * **Copy-on-write speculation** — [`core::SpeculativeCursor`] overlays
//!   speculated observations on the real search state with push/pop
//!   semantics instead of cloning the whole state per branch.
//! * **Pooled candidate expansion** — each `Γ` candidate's exploration
//!   tree is expanded as one task on [`core::pool`], with results reduced
//!   in `Γ` order so runs are bit-identical to sequential execution.
//! * **Precomputed numerics** — the Gauss–Hermite rule is computed once per
//!   decision ([`math::GaussHermiteRule`]), the budget filter compares
//!   against a precomputed normal quantile instead of evaluating a cdf per
//!   candidate, and the normal cdf itself uses Cephes-style rational
//!   approximations.
//! * **Best-first branch-and-bound** — the production engine
//!   (`PathEngine::BoundAndPrune`) expands every candidate's first
//!   speculation level exactly and bounds the candidate's reward-to-cost
//!   score by those exact first-step quantities plus a fixed drift
//!   allowance (κ = 1.5, the constant `PRUNE_TAIL_DRIFT`) times the
//!   largest deep-tail reward measured among the candidates already
//!   expanded this decision (tails cluster tightly within a decision, so
//!   the measured anchor tracks them across regimes). It dispatches
//!   candidates best-first (`core::pool::run_order_with`) while sharing
//!   the best exact score seen so far through one atomic cell
//!   (`core::acquisition::score_key`). A candidate whose bound cannot
//!   beat that incumbent skips its `k² + … + k^LA` deep recursion — the
//!   exponential part of the `|Γ|·k^LA` branch growth — which is what
//!   makes `LA ≥ 3` affordable; a candidate that starts its recursion
//!   finishes it. The bound is a calibration, not a proof. Pruning is
//!   disabled for decisions taken before the first feasible observation
//!   (the fallback incumbent can grow along a speculated path there), at
//!   `LA = 1` there is no tail to bound, and the `bound_and_prune`,
//!   `engine_equivalence` and `pool_matrix` suites pin pruned runs
//!   bit-identical to the exhaustive engine (`PathEngine::Batched`, the
//!   same expansion with pruning switched off) across seeds, lookaheads,
//!   switching models and worker counts. Outside those suites the
//!   calibration can fail: 4 of the 690 sessions in perfbench's
//!   scout-cherrypick prefix at seed 11 decide differently from
//!   exhaustive expansion (ROADMAP item 1). The committed
//!   `BENCH_lookahead.json` (from the `fig6_lookahead` bench, which runs
//!   its sweep sequentially so the counts are exact, and records the CPU
//!   count) shows the bound on a warm 128-point synthetic space skipping
//!   74% of candidates at `LA = 2` and 62% at `LA = 3` (at `LA = 4`,
//!   where exhaustive expansion is intractable, the pruned run completes
//!   with 38% skipped), for a per-decision speedup over exhaustive
//!   expansion of about 2–2.3× (best-of-two samples; the host's timing noise
//!   makes finer point estimates unstable across runs). Cold-start runs
//!   on the Scout dataset prune a more modest 8–22% — early-run scores
//!   cluster too tightly to separate — and run at ~1.0–1.2×.
//!
//! Per-decision state lives in a Driver-owned arena (prediction buffers, Γ
//! extraction, bound/dispatch buffers, per-worker scratch recycling, and an
//! `O(1)`-per-push speculated-membership mask replacing per-candidate
//! speculation-stack scans), so a run performs a bounded number of heap
//! allocations after its first decision regardless of length.
//!
//! The budget filter implements the switching-aware `Γ` of Algorithm 2:
//! profiling `x` charges both the run cost *and* the cost of switching the
//! deployed configuration `χ → x`, so a configuration belongs to `Γ` iff
//! `P(C(x) ≤ β − switch(χ, x)) ≥ 0.99` — equivalently, the predicted cost
//! plus the switching charge fits the remaining budget at the configured
//! confidence. (Earlier revisions filtered on `P(C(x) ≤ β)` alone, which
//! under a non-trivial [`core::SwitchingCost`] model admitted
//! configurations the budget could not actually pay for.)
//!
//! # Determinism invariants
//!
//! Bit-identical decisions are the repo's load-bearing guarantee: every
//! engine, thread count, pool capacity and scheduling policy must reproduce
//! the same [`core::OptimizationReport`]. Beyond the equivalence suites
//! that *observe* this, seven source-level invariants *prevent* the usual
//! ways it breaks, and a repo-specific analyzer (`crates/lint`, binary
//! `lynceus-lint`, run by the CI `static-analysis` job) enforces them:
//!
//! 1. **Total float ordering** — comparisons that order `f64` scores use
//!    `f64::total_cmp` (or [`core::score_cmp`]); `partial_cmp().unwrap()`
//!    sorts are banned, so a NaN can neither panic a sort nor reorder one
//!    platform-dependently.
//! 2. **No hash-map iteration in decision paths** — `HashMap`/`HashSet`
//!    iteration order is randomized per process, so `core` and `learners`
//!    iterate `BTreeMap`s, vectors, or sorted views instead.
//! 3. **No wall-clock in algorithms** — `Instant`/`SystemTime` reads live
//!    only in `crates/bench` (and allowlisted report timers / test
//!    watchdogs); time never feeds a decision.
//! 4. **Single thread source** — threads come only from [`core::Pool`] and
//!    the service lanes, so every run respects the one shared worker budget
//!    and the panic-containment lanes.
//! 5. **Justified atomic orderings** — every `Ordering::*` site carries an
//!    adjacent `// ordering:` comment saying why that strength is correct
//!    (e.g. the pruning incumbent's Relaxed fetch_max: the monotone u64
//!    `score_key` is the whole message, staleness only weakens pruning).
//! 6. **No panics in containment paths** — the pool/scheduler/engine
//!    spine avoids `unwrap`/`expect`; locks recover from poisoning
//!    (`PoisonError::into_inner`) so one contained panic cannot cascade
//!    into a service-wide poison panic. Invariant-checking `expect`s carry
//!    an in-source `// lint: allow(no-panic) -- reason` tag.
//! 7. **`#![forbid(unsafe_code)]` at every crate root** — the whole
//!    workspace, vendor stubs included.
//!
//! Exceptions are in-source and auditable: a
//! `// lint: allow(<rule>) -- <reason>` tag on (or above) the line, where
//! the reason is mandatory. `cargo run -p lynceus-lint` checks the
//! workspace; `cargo test -p lynceus-lint` runs the rule fixture corpus
//! plus a workspace self-check.
//!
//! The naive reference implementation (refit-from-scratch per branch,
//! one allocation-heavy prediction per configuration, full state clones) is
//! retained as `PathEngine::NaiveReference`: it makes bit-identical
//! decisions (asserted by the `engine_equivalence` tests) and anchors the
//! `micro_components` benchmark, whose results are committed in
//! `BENCH_baseline.json`. The purely algorithmic (sequential) speedup of a
//! lookahead-2 decision is ~3.2× (component level: incremental refit ~7×
//! vs the reference fit, memoized batched prediction ~18× vs
//! per-configuration prediction, and the flat block traversal 1.9× vs the
//! retained pointer walk on a 1-CPU container, 3.4× on the 2-vCPU host of
//! the committed baseline — the `flat_traversal` cell, which `bench_check`
//! gates at ≥ 1.0 with the bit-identity flag asserted). The artifacts also
//! carry fixed 4-thread cells (`lookahead2_multicore` and the lookahead
//! bench's `multicore_cells`) so a multicore box only has to re-run the
//! benches; on a host with fewer than 4 CPUs they are honest
//! oversubscribed measurements and flagged as such — the work-stealing
//! pool's near-linear cross-core scaling claim remains to be measured on
//! real hardware, since candidate expansions are independent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lynceus_cloud as cloud;
pub use lynceus_core as core;
pub use lynceus_datasets as datasets;
pub use lynceus_experiments as experiments;
pub use lynceus_learners as learners;
pub use lynceus_math as math;
pub use lynceus_serve as serve;
pub use lynceus_sim as sim;
pub use lynceus_space as space;

/// The most commonly used items, for glob import in examples and
/// applications.
pub mod prelude {
    pub use crate::core::{
        BoOptimizer, CheckpointStore, CostOracle, DecisionReceipt, DirStore, FaultKind, FaultPlan,
        FaultProfile, JobKnowledge, KnowledgeStore, LynceusOptimizer, MemoryStore, Observation,
        OptimizationReport, Optimizer, OptimizerSettings, OracleFault, PriorObservation,
        RandomOptimizer, RetryPolicy, SchedulePolicy, SecondaryConstraint, SessionSpec,
        SessionStatus, TableOracle, TuningService,
    };
    pub use crate::datasets::{catalog, LookupDataset};
    pub use crate::experiments::{ExperimentConfig, OptimizerKind};
    pub use crate::serve::{AdmissionPolicy, Client, Server, ServerConfig, SpecRequest};
    pub use crate::sim::TurbulentOracle;
    pub use crate::space::{Config, ConfigId, ConfigSpace, SpaceBuilder};
}
