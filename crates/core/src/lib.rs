//! Budget-aware, long-sighted Bayesian optimization for tuning and
//! provisioning data analytic jobs — the **Lynceus** algorithm, plus the
//! baselines it is evaluated against.
//!
//! The optimization problem (paper Section 2): find the configuration
//! `x = ⟨N, H, P⟩` (cluster size, VM type, job parameters) that minimizes the
//! monetary cost `C(x) = T(x)·U(x)` of running a job, subject to a runtime
//! constraint `T(x) ≤ Tmax`, while keeping the *cumulative cost of all
//! profiling runs* within a budget `B`.
//!
//! This crate provides:
//!
//! * [`CostOracle`] — the black-box environment the optimizers profile
//!   (implemented by `lynceus-datasets` lookup tables or by any live system);
//! * [`LynceusOptimizer`] — the paper's algorithm (Algorithms 1 & 2):
//!   LHS bootstrap, budget-filtered candidates, Gauss–Hermite lookahead over
//!   exploration paths, reward/cost selection;
//! * [`BoOptimizer`] — the CherryPick/Arrow-style baseline (greedy
//!   constrained Expected Improvement);
//! * [`RandomOptimizer`] — the RND baseline;
//! * [`disjoint`] — the "ideal disjoint optimization" analysis of Figure 1b;
//! * extensions of Section 4.4: [`constraints`] (multiple constraints) and
//!   [`switching`] (setup costs);
//! * [`service`] — the multi-job serving layer: [`TuningService`] steps
//!   many concurrent sessions in parallel over one shared worker
//!   [`pool::Pool`], with steady submission from any thread, pluggable
//!   scheduling policies ([`SchedulePolicy`]) under a starvation guard,
//!   and per-session error isolation.
//!
//! # Example
//!
//! ```
//! use lynceus_core::{LynceusOptimizer, Optimizer, OptimizerSettings, TableOracle};
//! use lynceus_space::SpaceBuilder;
//!
//! // A toy 2-dimensional job: cost = runtime × a flat $1/s price.
//! let space = SpaceBuilder::new()
//!     .numeric("workers", (1..=6).map(f64::from))
//!     .numeric("batch", [16.0, 256.0])
//!     .build();
//! let oracle = TableOracle::from_fn(space, 1.0, |features| {
//!     let workers = features[0];
//!     let batch = features[1];
//!     20.0 / workers + workers + batch / 64.0
//! });
//!
//! let settings = OptimizerSettings {
//!     budget: 400.0,
//!     tmax_seconds: 1_000.0,
//!     ..OptimizerSettings::default()
//! };
//! let report = LynceusOptimizer::new(settings).optimize(&oracle, 7);
//! assert!(report.recommended.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acquisition;
pub mod bo;
pub mod budget;
pub mod checkpoint;
pub mod codec;
pub mod constraints;
pub mod disjoint;
pub mod faults;
pub mod lynceus;
pub mod optimizer;
pub mod oracle;
pub(crate) mod poison;
pub mod pool;
pub mod random;
pub mod receipt;
pub mod service;
pub mod state;
pub mod switching;
pub mod transfer;

pub use acquisition::{constrained_ei, expected_improvement, incumbent_cost, score_cmp};
pub use bo::BoOptimizer;
pub use budget::Budget;
pub use checkpoint::{CheckpointStore, DirStore, MemoryStore, SessionCheckpoint};
pub use codec::{CodecError, Decoder, Encoder};
pub use constraints::SecondaryConstraint;
pub use disjoint::{disjoint_optimization, DisjointOutcome};
pub use faults::{FaultKind, FaultPlan, FaultProfile, OracleFault};
pub use lynceus::{LynceusOptimizer, PathEngine, PruneStats};
pub use optimizer::{
    Exploration, OptimizationReport, Optimizer, OptimizerError, OptimizerSettings, ProfileError,
};
pub use oracle::{CostOracle, Observation, TableOracle};
pub use pool::Pool;
pub use random::RandomOptimizer;
pub use receipt::DecisionReceipt;
pub use service::{
    RetryPolicy, SchedulePolicy, ServiceLoad, SessionError, SessionId, SessionOutcome, SessionSpec,
    SessionStatus, TuningService, STARVATION_LIMIT,
};
pub use state::{SearchState, SpeculativeCursor};
pub use switching::SwitchingCost;
// The knowledge stores stay module-qualified (`transfer::MemoryStore`,
// `transfer::DirStore`) — the crate-root names belong to the checkpoint
// stores.
pub use transfer::{JobKnowledge, KnowledgeStore, PriorObservation};
