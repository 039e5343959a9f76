//! The stamping oracle: a `CostOracle` wrapper that records when each
//! profiling run enters and leaves the wrapped oracle. Decision latency is
//! the gap between one run's return and the next run's start, so these two
//! stamps are the only instrumentation on the untraced path.
//!
//! The wrapper forwards every `CostOracle` method, so a fault storm, a
//! durable cursor or a price rate behind it reaches the program unchanged.

use crate::trace::{self, Layer};
use lynceus_core::faults::OracleFault;
use lynceus_core::{CostOracle, Observation};
use lynceus_space::{ConfigId, ConfigSpace};
use std::sync::{Arc, Mutex};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallOutcome {
    /// The run completed and was reported to the program.
    Ran,
    /// The run returned an `OracleFault`.
    Faulted,
    /// The run unwound (a planned storm panic).
    Panicked,
}

#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub enter: u64,
    pub exit: u64,
    pub outcome: CallOutcome,
}

/// The calls one session made, in call order.
#[derive(Debug, Default)]
pub struct CallLog {
    calls: Mutex<Vec<Call>>,
}

impl CallLog {
    pub fn snapshot(&self) -> Vec<Call> {
        self.calls.lock().expect("call log poisoned").clone()
    }
}

pub struct StampingOracle<O> {
    inner: O,
    log: Arc<CallLog>,
    session: u64,
}

impl<O: CostOracle> StampingOracle<O> {
    pub fn new(inner: O, log: Arc<CallLog>, session: u64) -> Self {
        Self {
            inner,
            log,
            session,
        }
    }

    fn stamped<T>(&self, name: &'static str, call: impl FnOnce(&O) -> (T, bool)) -> T {
        let mut pending = Pending {
            log: &self.log,
            enter: trace::now_ns(),
            outcome: CallOutcome::Panicked,
        };
        let _span = trace::leaf(Layer::Oracle, name, self.session);
        let (value, ran) = call(&self.inner);
        pending.outcome = if ran {
            CallOutcome::Ran
        } else {
            CallOutcome::Faulted
        };
        value
    }
}

/// Records the call when dropped, so a run that unwinds is logged too.
struct Pending<'a> {
    log: &'a CallLog,
    enter: u64,
    outcome: CallOutcome,
}

impl Drop for Pending<'_> {
    fn drop(&mut self) {
        let call = Call {
            enter: self.enter,
            exit: trace::now_ns(),
            outcome: self.outcome,
        };
        if let Ok(mut calls) = self.log.calls.lock() {
            calls.push(call);
        }
    }
}

impl<O: CostOracle> CostOracle for StampingOracle<O> {
    fn space(&self) -> &ConfigSpace {
        self.inner.space()
    }

    fn candidates(&self) -> Vec<ConfigId> {
        self.inner.candidates()
    }

    fn run(&self, id: ConfigId) -> Observation {
        self.stamped("run", |inner| (inner.run(id), true))
    }

    fn try_run(&self, id: ConfigId) -> Result<Observation, OracleFault> {
        self.stamped("try_run", |inner| {
            let result = inner.try_run(id);
            let ran = result.is_ok();
            (result, ran)
        })
    }

    fn durable_state(&self) -> Option<Vec<u8>> {
        self.inner.durable_state()
    }

    fn restore_durable_state(&self, bytes: &[u8]) -> bool {
        self.inner.restore_durable_state(bytes)
    }

    fn price_rate(&self, id: ConfigId) -> f64 {
        self.inner.price_rate(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lynceus_core::faults::{FaultKind, FaultPlan};
    use lynceus_core::TableOracle;
    use lynceus_sim::TurbulentOracle;
    use lynceus_space::SpaceBuilder;

    fn table() -> TableOracle {
        let space = SpaceBuilder::new()
            .numeric("x", (0..4).map(f64::from))
            .build();
        TableOracle::from_fn(space, 2.0, |f| 10.0 + f[0])
    }

    /// Answers every method with a value the default implementations of
    /// `CostOracle` would not produce, and counts the calls.
    struct Probe {
        table: TableOracle,
        calls: Mutex<Vec<&'static str>>,
    }

    impl Probe {
        fn note(&self, method: &'static str) {
            self.calls.lock().unwrap().push(method);
        }
    }

    impl CostOracle for Probe {
        fn space(&self) -> &ConfigSpace {
            self.note("space");
            self.table.space()
        }
        fn candidates(&self) -> Vec<ConfigId> {
            self.note("candidates");
            vec![ConfigId(3), ConfigId(1)]
        }
        fn run(&self, _id: ConfigId) -> Observation {
            self.note("run");
            Observation::new(7.0, 14.0)
        }
        fn try_run(&self, _id: ConfigId) -> Result<Observation, OracleFault> {
            self.note("try_run");
            Err(OracleFault::Revoked)
        }
        fn durable_state(&self) -> Option<Vec<u8>> {
            self.note("durable_state");
            Some(vec![9, 9])
        }
        fn restore_durable_state(&self, bytes: &[u8]) -> bool {
            self.note("restore_durable_state");
            bytes == [9, 9]
        }
        fn price_rate(&self, _id: ConfigId) -> f64 {
            self.note("price_rate");
            0.125
        }
    }

    #[test]
    fn every_cost_oracle_method_is_forwarded() {
        let log = Arc::new(CallLog::default());
        let probe = Probe {
            table: table(),
            calls: Mutex::new(Vec::new()),
        };
        let oracle = StampingOracle::new(probe, Arc::clone(&log), 0);
        assert_eq!(oracle.space().dims(), 1);
        assert_eq!(oracle.candidates(), vec![ConfigId(3), ConfigId(1)]);
        assert_eq!(oracle.run(ConfigId(0)), Observation::new(7.0, 14.0));
        assert_eq!(oracle.try_run(ConfigId(0)), Err(OracleFault::Revoked));
        assert_eq!(oracle.durable_state(), Some(vec![9, 9]));
        assert!(oracle.restore_durable_state(&[9, 9]));
        assert!(!oracle.restore_durable_state(&[1]));
        assert_eq!(oracle.price_rate(ConfigId(0)), 0.125);
        let calls = oracle.inner.calls.lock().unwrap().clone();
        assert_eq!(
            calls,
            [
                "space",
                "candidates",
                "run",
                "try_run",
                "durable_state",
                "restore_durable_state",
                "restore_durable_state",
                "price_rate"
            ]
        );
        let stamped: Vec<CallOutcome> = log.snapshot().iter().map(|c| c.outcome).collect();
        assert_eq!(stamped, [CallOutcome::Ran, CallOutcome::Faulted]);
    }

    #[test]
    fn a_storm_behind_the_wrapper_reaches_the_caller() {
        let plan = FaultPlan::new()
            .with_fault(1, FaultKind::TransientError)
            .with_fault(2, FaultKind::PriceShock(2.0));
        let log = Arc::new(CallLog::default());
        let oracle = StampingOracle::new(TurbulentOracle::new(table(), plan), Arc::clone(&log), 0);
        let id = ConfigId(1);
        assert_eq!(oracle.try_run(id).unwrap().cost, 22.0);
        assert!(oracle.try_run(id).is_err());
        assert_eq!(oracle.try_run(id).unwrap().cost, 44.0);
        // The storm's durable cursor round-trips through the wrapper.
        let state = oracle.durable_state().expect("the storm is stateful");
        assert!(oracle.restore_durable_state(&state));
        assert_eq!(oracle.inner.calls(), 3);
        assert_eq!(log.snapshot().len(), 3);
        assert!(log.snapshot().iter().all(|c| c.exit >= c.enter));
    }
}
