//! Result of simulating one job run.

/// The observable outcome of running a job on a cluster: what the paper's
/// profiling harness would have measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Execution {
    /// Wall-clock runtime in seconds (capped at the timeout when
    /// `timed_out`).
    pub runtime_seconds: f64,
    /// Monetary cost in dollars (`runtime × cluster price`, per-second
    /// billing), including the time spent before a forced termination.
    pub cost: f64,
    /// True when the job hit the dataset's timeout and was forcefully
    /// terminated (the TensorFlow jobs use a 10-minute timeout).
    pub timed_out: bool,
}

impl Execution {
    /// Builds an execution outcome, capping the runtime at `timeout_seconds`
    /// when provided.
    ///
    /// # Panics
    ///
    /// Panics if the runtime is negative or not finite, or if the price is
    /// negative.
    #[must_use]
    pub fn from_runtime(
        runtime_seconds: f64,
        price_per_second: f64,
        timeout_seconds: Option<f64>,
    ) -> Self {
        assert!(
            runtime_seconds >= 0.0 && runtime_seconds.is_finite(),
            "runtime must be finite and non-negative"
        );
        assert!(price_per_second >= 0.0, "price must be non-negative");
        let (runtime, timed_out) = match timeout_seconds {
            Some(t) if runtime_seconds > t => (t, true),
            _ => (runtime_seconds, false),
        };
        Self {
            runtime_seconds: runtime,
            cost: runtime * price_per_second,
            timed_out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_is_runtime_times_price() {
        let e = Execution::from_runtime(120.0, 0.01, None);
        assert_eq!(e.runtime_seconds, 120.0);
        assert!((e.cost - 1.2).abs() < 1e-12);
        assert!(!e.timed_out);
    }

    #[test]
    fn timeout_caps_the_runtime_and_flags_the_run() {
        let e = Execution::from_runtime(1000.0, 0.01, Some(600.0));
        assert_eq!(e.runtime_seconds, 600.0);
        assert!((e.cost - 6.0).abs() < 1e-12);
        assert!(e.timed_out);
    }

    #[test]
    fn runtime_below_timeout_is_untouched() {
        let e = Execution::from_runtime(100.0, 0.02, Some(600.0));
        assert_eq!(e.runtime_seconds, 100.0);
        assert!(!e.timed_out);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_runtime_panics() {
        let _ = Execution::from_runtime(-1.0, 0.01, None);
    }
}
