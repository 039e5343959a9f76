//! Per-decision receipts: the audit trail of why the tuner spent each
//! dollar.
//!
//! Every profiling run of a [`crate::service::TuningService`] session emits
//! one [`DecisionReceipt`] recording what was chosen, what the decision saw
//! (Γ size, incumbent, prune counters), what it cost (β before/after) and
//! what it survived (faults observed, retries consumed since the previous
//! receipt). Receipts ride inside session checkpoints — a restored session
//! keeps its full trail — and are delivered with the session's
//! [`crate::service::SessionOutcome`], *including* failed and panicked
//! sessions, so a dead session still explains every dollar it spent.
//!
//! Receipts are deliberately **not** part of [`crate::OptimizationReport`]:
//! prune counters are engine-specific diagnostics, and the report must stay
//! bit-identical across all three engines.

use crate::codec::{CodecError, Decoder, Encoder};
use lynceus_space::ConfigId;

/// The audit record of one profiling decision.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionReceipt {
    /// 0-based profiling-step index within the session (bootstrap steps
    /// included).
    pub step: u64,
    /// The configuration that was profiled.
    pub chosen: ConfigId,
    /// True for LHS bootstrap runs, false for engine decisions.
    pub bootstrap: bool,
    /// Size of the budget filter `Γ` the decision chose from (0 for
    /// bootstrap runs and for the first unfitted decision).
    pub gamma_size: u64,
    /// The incumbent: cheapest feasible cost profiled so far, *after* this
    /// run was recorded. `None` while nothing feasible has been seen.
    pub incumbent: Option<f64>,
    /// Remaining budget `β` when the step started.
    pub budget_before: f64,
    /// Remaining budget `β` after the run (and any switching charge) was
    /// charged.
    pub budget_after: f64,
    /// Branch-and-bound candidates examined by this decision: `|Γ|` for a
    /// [`crate::PathEngine::BoundAndPrune`] or
    /// [`crate::PathEngine::Batched`] decision at `LA ≥ 1` (Batched is the
    /// same expansion with pruning off, so its `pruned` and `deep_pruned`
    /// stay 0); 0 for bootstrap runs, `LA = 0` decisions and the
    /// [`crate::PathEngine::NaiveReference`] engine.
    pub candidates: u64,
    /// Candidates pruned at the candidate level by this decision.
    pub pruned: u64,
    /// Candidates cut mid-expansion by the per-branch bound.
    pub deep_pruned: u64,
    /// Oracle faults observed (and recovered from) since the previous
    /// receipt.
    pub faults_observed: u32,
    /// Retry attempts the recovery consumed since the previous receipt.
    pub retries_consumed: u32,
}

impl DecisionReceipt {
    /// Appends the receipt to an in-progress encoding.
    pub fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u64(self.step);
        enc.put_usize(self.chosen.index());
        enc.put_bool(self.bootstrap);
        enc.put_u64(self.gamma_size);
        match self.incumbent {
            Some(cost) => {
                enc.put_bool(true);
                enc.put_f64(cost);
            }
            None => enc.put_bool(false),
        }
        enc.put_f64(self.budget_before);
        enc.put_f64(self.budget_after);
        enc.put_u64(self.candidates);
        enc.put_u64(self.pruned);
        enc.put_u64(self.deep_pruned);
        enc.put_u32(self.faults_observed);
        enc.put_u32(self.retries_consumed);
    }

    /// Reads a receipt back out of an encoding.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or malformed input.
    pub fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            step: dec.get_u64()?,
            chosen: ConfigId(dec.get_usize()?),
            bootstrap: dec.get_bool()?,
            gamma_size: dec.get_u64()?,
            incumbent: if dec.get_bool()? {
                Some(dec.get_f64()?)
            } else {
                None
            },
            budget_before: dec.get_f64()?,
            budget_after: dec.get_f64()?,
            candidates: dec.get_u64()?,
            pruned: dec.get_u64()?,
            deep_pruned: dec.get_u64()?,
            faults_observed: dec.get_u32()?,
            retries_consumed: dec.get_u32()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn receipt() -> DecisionReceipt {
        DecisionReceipt {
            step: 9,
            chosen: ConfigId(42),
            bootstrap: false,
            gamma_size: 17,
            incumbent: Some(12.25),
            budget_before: 100.5,
            budget_after: 88.25,
            candidates: 17,
            pruned: 11,
            deep_pruned: 3,
            faults_observed: 2,
            retries_consumed: 2,
        }
    }

    #[test]
    fn receipt_codec_round_trips() {
        for incumbent in [Some(12.25), None] {
            let original = DecisionReceipt {
                incumbent,
                ..receipt()
            };
            let mut enc = Encoder::new();
            original.encode_into(&mut enc);
            let bytes = enc.finish();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(DecisionReceipt::decode_from(&mut dec).unwrap(), original);
            assert!(dec.is_finished());
        }
    }

    #[test]
    fn truncated_receipts_fail_cleanly() {
        let mut enc = Encoder::new();
        receipt().encode_into(&mut enc);
        let bytes = enc.finish();
        for cut in 0..bytes.len() {
            assert!(DecisionReceipt::decode_from(&mut Decoder::new(&bytes[..cut])).is_err());
        }
    }
}
