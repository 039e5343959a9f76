//! The optimizer state `Σ = ⟨S, T, β, χ⟩` (paper Section 4.3).

use crate::budget::Budget;
use lynceus_learners::TrainingSet;
use lynceus_space::{ConfigId, ConfigSpace};

/// One profiled (or speculated) configuration in the training set `S`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestedConfig {
    /// Which configuration was run.
    pub id: ConfigId,
    /// Its (measured or speculated) cost in dollars.
    pub cost: f64,
    /// Whether it satisfies the runtime constraint `T(x) ≤ Tmax`.
    pub feasible: bool,
}

/// The optimizer state: the training set `S`, the untested configurations
/// `T`, the remaining budget `β` and the currently deployed configuration
/// `χ`.
///
/// The same structure is used for the real optimization loop and for the
/// speculative states built while simulating exploration paths; the only
/// difference is whether [`SearchState::record`] is fed measured or
/// Gauss–Hermite-speculated costs.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchState {
    tested: Vec<TestedConfig>,
    untested: Vec<ConfigId>,
    budget: Budget,
    current: Option<ConfigId>,
}

impl SearchState {
    /// Creates the initial state: nothing tested, every candidate untested,
    /// the full budget available, no configuration deployed.
    #[must_use]
    pub fn new(candidates: Vec<ConfigId>, budget: Budget) -> Self {
        Self {
            tested: Vec::new(),
            untested: candidates,
            budget,
            current: None,
        }
    }

    /// Rebuilds a state from checkpointed parts, verbatim. The untested
    /// list must be the checkpointed *live order* — [`SearchState::record`]
    /// swap-removes, so the order is history-dependent and tie-breaks
    /// acquisition scores; reconstructing it any other way would break
    /// bit-identical replay.
    #[must_use]
    pub(crate) fn from_parts(
        tested: Vec<TestedConfig>,
        untested: Vec<ConfigId>,
        budget: Budget,
        current: Option<ConfigId>,
    ) -> Self {
        Self {
            tested,
            untested,
            budget,
            current,
        }
    }

    /// The profiled configurations (the training set `S`).
    #[must_use]
    pub fn tested(&self) -> &[TestedConfig] {
        &self.tested
    }

    /// The configurations not yet profiled (`T`).
    #[must_use]
    pub fn untested(&self) -> &[ConfigId] {
        &self.untested
    }

    /// The remaining budget `β`.
    #[must_use]
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The configuration currently deployed (`χ`), if any.
    #[must_use]
    pub fn current(&self) -> Option<ConfigId> {
        self.current
    }

    /// True if the configuration has already been profiled.
    #[must_use]
    pub fn is_tested(&self, id: ConfigId) -> bool {
        self.tested.iter().any(|t| t.id == id)
    }

    /// Records the outcome of running (or simulating) the job on `id`:
    /// appends it to `S`, removes it from `T`, charges the budget and marks
    /// it as the deployed configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is not in the untested set.
    pub fn record(&mut self, id: ConfigId, cost: f64, feasible: bool) {
        let position = self
            .untested
            .iter()
            .position(|&u| u == id)
            .expect("configuration was already tested or is not a candidate");
        self.untested.swap_remove(position);
        self.tested.push(TestedConfig { id, cost, feasible });
        self.budget.charge(cost);
        self.current = Some(id);
    }

    /// Replays a **prior run's** observation into `Σ`: exactly
    /// [`SearchState::record`] minus the budget charge — the measurement was
    /// paid for by the run that made it, so a recurring job's next run gets
    /// the training point for free. Used only by the cross-run knowledge
    /// layer ([`crate::transfer`]) before the session's first own step.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is not in the untested set.
    pub(crate) fn replay(&mut self, id: ConfigId, cost: f64, feasible: bool) {
        let position = self
            .untested
            .iter()
            .position(|&u| u == id)
            .expect("replayed configuration was already tested or is not a candidate");
        self.untested.swap_remove(position);
        self.tested.push(TestedConfig { id, cost, feasible });
        self.current = Some(id);
    }

    /// Returns a copy of the state in which the job was (speculatively) run
    /// on `id` with the given cost: the speculative counterpart of
    /// [`SearchState::record`], used by the exploration-path simulation.
    ///
    /// Unlike [`SearchState::record`] (which swap-removes for `O(1)` cost on
    /// the real loop), speculation removes `id` from the untested set
    /// *order-preservingly*: the untested order of a speculated state is the
    /// base order with the speculated configurations filtered out, which is
    /// exactly how [`SpeculativeCursor`] iterates. Keeping both
    /// representations in the same order makes the materialized and the
    /// overlay-based speculation paths bit-identical (ties in acquisition
    /// scores are broken by untested order).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is not in the untested set.
    #[must_use]
    pub fn speculate(&self, id: ConfigId, cost: f64, feasible: bool) -> Self {
        let mut next = self.clone();
        let position = next
            .untested
            .iter()
            .position(|&u| u == id)
            .expect("configuration was already tested or is not a candidate");
        next.untested.remove(position);
        next.tested.push(TestedConfig { id, cost, feasible });
        next.budget.charge(cost);
        next.current = Some(id);
        next
    }

    /// Charges an additional amount (e.g. a cluster switching cost) against
    /// the budget without adding a training observation.
    ///
    /// # Panics
    ///
    /// Panics if the amount is negative or not finite.
    pub fn charge_extra(&mut self, amount: f64) {
        self.budget.charge(amount);
    }

    /// `(cost, feasible)` pairs of the training set, in profiling order
    /// (the shape consumed by [`crate::acquisition::incumbent_cost`]).
    #[must_use]
    pub fn profiled_pairs(&self) -> Vec<(f64, bool)> {
        self.tested.iter().map(|t| (t.cost, t.feasible)).collect()
    }

    /// The cheapest feasible configuration profiled so far, if any.
    #[must_use]
    pub fn best_feasible(&self) -> Option<&TestedConfig> {
        self.tested
            .iter()
            .filter(|t| t.feasible)
            .min_by(|a, b| a.cost.total_cmp(&b.cost))
    }

    /// Writes the inverse of the untested list into `out` (resized to
    /// `universe`, the number of grid configurations): `out[id.index()]` is
    /// the position of `id` in [`SearchState::untested`], or
    /// [`SearchState::NOT_UNTESTED`] for tested / non-candidate ids.
    ///
    /// The speculation engine rebuilds this map once per decision and then
    /// maintains per-path "speculated" membership as a dense bitmask indexed
    /// by position — updated in `O(1)` on every cursor push/pop — instead of
    /// re-scanning the speculation stack for every candidate of every
    /// (re-)filtered `Γ`.
    pub fn untested_positions(&self, universe: usize, out: &mut Vec<u32>) {
        out.clear();
        out.resize(universe, Self::NOT_UNTESTED);
        for (position, id) in self.untested.iter().enumerate() {
            out[id.index()] =
                u32::try_from(position).expect("untested sets stay far below 2^32 entries");
        }
    }

    /// Sentinel of [`SearchState::untested_positions`] for ids that are not
    /// in the untested set.
    pub const NOT_UNTESTED: u32 = u32::MAX;

    /// Builds the surrogate training set (configuration features → cost) for
    /// the given space.
    #[must_use]
    pub fn training_set(&self, space: &ConfigSpace) -> TrainingSet {
        let mut data = TrainingSet::new(space.dims());
        for t in &self.tested {
            data.push(space.features_of(t.id), t.cost);
        }
        data
    }
}

/// A stack of speculated observations layered over a base [`SearchState`]
/// without copying it.
///
/// [`SearchState::speculate`] clones the full state — `O(|untested|)` per
/// branch, and the untested set is the whole configuration grid. The
/// exploration-path simulation instead keeps **one** cursor per path and
/// pushes/pops speculated samples as it walks the Gauss–Hermite tree, so a
/// branch costs `O(depth)` bookkeeping. All views (`untested`, profiled
/// pairs, remaining budget, deployed configuration) match the materialized
/// state bit for bit:
///
/// * the untested order is the base order with speculated ids filtered out
///   (matching [`SearchState::speculate`]'s order-preserving removal);
/// * the remaining budget replays the same sequence of `remaining - cost`
///   subtractions, and popping restores the *saved* previous value rather
///   than re-adding (floating-point subtraction is not invertible).
#[derive(Debug, Clone)]
pub struct SpeculativeCursor<'a> {
    base: &'a SearchState,
    stack: Vec<TestedConfig>,
    /// `remaining_before[d]` is the budget remaining before frame `d` was
    /// pushed, so popping restores it exactly.
    remaining_before: Vec<f64>,
    remaining: f64,
}

impl<'a> SpeculativeCursor<'a> {
    /// Creates a cursor with no speculated observations.
    #[must_use]
    pub fn new(base: &'a SearchState) -> Self {
        Self {
            base,
            stack: Vec::new(),
            remaining_before: Vec::new(),
            remaining: base.budget().remaining(),
        }
    }

    /// The base state the cursor overlays.
    #[must_use]
    pub fn base(&self) -> &SearchState {
        self.base
    }

    /// Number of speculated observations currently on the stack.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Pushes a speculated observation: the cursor now describes the state
    /// after (speculatively) running `id` at the given cost.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `id` is already tested or speculated.
    pub fn push(&mut self, id: ConfigId, cost: f64, feasible: bool) {
        debug_assert!(
            !self.is_tested(id),
            "configuration was already tested or speculated"
        );
        self.remaining_before.push(self.remaining);
        self.remaining -= cost;
        self.stack.push(TestedConfig { id, cost, feasible });
    }

    /// Charges an additional amount (e.g. a speculated switching cost)
    /// against the current frame's budget, mirroring
    /// [`SearchState::charge_extra`] on a materialized speculation: the
    /// charge is a separate subtraction after the frame's cost (the same
    /// floating-point operation order as the real driver), and popping the
    /// frame restores the pre-push budget, extra charges included.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if no frame has been pushed (the base state's
    /// budget must not be modified through the cursor), or if the amount is
    /// not a finite non-negative value — a non-finite charge would collapse
    /// the speculated β to `-inf`/NaN and contaminate every score computed
    /// from it; callers saturate model outputs before charging (see the
    /// speculation sites in [`crate::lynceus`]).
    pub fn charge_extra(&mut self, amount: f64) {
        debug_assert!(
            !self.stack.is_empty(),
            "extra charges need a speculation frame to be restored with"
        );
        debug_assert!(
            amount.is_finite() && amount >= 0.0,
            "speculated charges must be finite and non-negative, got {amount}"
        );
        self.remaining -= amount;
    }

    /// Pops the most recent speculated observation, restoring the previous
    /// budget exactly.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty.
    pub fn pop(&mut self) {
        self.stack.pop().expect("pop on an empty speculation stack");
        self.remaining = self
            .remaining_before
            .pop()
            .expect("budget stack out of sync");
    }

    /// The remaining budget `β` of the speculated state.
    #[must_use]
    pub fn remaining_budget(&self) -> f64 {
        self.remaining
    }

    /// The deployed configuration `χ` of the speculated state.
    #[must_use]
    pub fn current(&self) -> Option<ConfigId> {
        self.stack
            .last()
            .map_or_else(|| self.base.current(), |t| Some(t.id))
    }

    /// True if `id` is tested in the base state or speculated on the stack.
    #[must_use]
    pub fn is_tested(&self, id: ConfigId) -> bool {
        self.stack.iter().any(|t| t.id == id) || self.base.is_tested(id)
    }

    /// Iterates the untested configurations of the speculated state, in base
    /// order with speculated ids filtered out.
    pub fn untested(&self) -> impl Iterator<Item = ConfigId> + '_ {
        self.base
            .untested()
            .iter()
            .copied()
            .filter(move |&id| !self.stack.iter().any(|t| t.id == id))
    }

    /// Writes the `(cost, feasible)` pairs of the speculated state into
    /// `out` (cleared first): base profiling order, then stack order —
    /// matching [`SearchState::profiled_pairs`] on the materialized state.
    pub fn profiled_pairs_into(&self, out: &mut Vec<(f64, bool)>) {
        out.clear();
        out.extend(self.base.tested().iter().map(|t| (t.cost, t.feasible)));
        out.extend(self.stack.iter().map(|t| (t.cost, t.feasible)));
    }

    /// The speculated observations currently on the stack, oldest first.
    #[must_use]
    pub fn speculated(&self) -> &[TestedConfig] {
        &self.stack
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lynceus_space::SpaceBuilder;

    fn candidates(n: usize) -> Vec<ConfigId> {
        (0..n).map(ConfigId).collect()
    }

    #[test]
    fn recording_moves_configs_from_untested_to_tested() {
        let mut state = SearchState::new(candidates(5), Budget::new(100.0));
        assert_eq!(state.untested().len(), 5);
        state.record(ConfigId(2), 10.0, true);
        assert_eq!(state.untested().len(), 4);
        assert_eq!(state.tested().len(), 1);
        assert!(state.is_tested(ConfigId(2)));
        assert!(!state.is_tested(ConfigId(3)));
        assert_eq!(state.current(), Some(ConfigId(2)));
        assert!((state.budget().remaining() - 90.0).abs() < 1e-12);
    }

    #[test]
    fn speculation_does_not_mutate_the_original_state() {
        let state = SearchState::new(candidates(4), Budget::new(50.0));
        let speculated = state.speculate(ConfigId(1), 5.0, false);
        assert_eq!(state.tested().len(), 0);
        assert_eq!(speculated.tested().len(), 1);
        assert!((speculated.budget().remaining() - 45.0).abs() < 1e-12);
        assert!((state.budget().remaining() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn best_feasible_ignores_infeasible_configurations() {
        let mut state = SearchState::new(candidates(5), Budget::new(100.0));
        state.record(ConfigId(0), 2.0, false);
        state.record(ConfigId(1), 8.0, true);
        state.record(ConfigId(2), 5.0, true);
        let best = state.best_feasible().unwrap();
        assert_eq!(best.id, ConfigId(2));
        assert_eq!(best.cost, 5.0);
        assert_eq!(
            state.profiled_pairs(),
            vec![(2.0, false), (8.0, true), (5.0, true)]
        );
    }

    #[test]
    fn best_feasible_is_none_when_everything_violates_the_constraint() {
        let mut state = SearchState::new(candidates(2), Budget::new(10.0));
        state.record(ConfigId(0), 1.0, false);
        assert!(state.best_feasible().is_none());
    }

    #[test]
    fn training_set_uses_space_features() {
        let space = SpaceBuilder::new()
            .numeric("a", [1.0, 2.0])
            .numeric("b", [10.0, 20.0])
            .build();
        let mut state = SearchState::new(space.ids().collect(), Budget::new(10.0));
        state.record(ConfigId(3), 4.0, true);
        let data = state.training_set(&space);
        assert_eq!(data.len(), 1);
        assert_eq!(data.observation(0), (&[2.0, 20.0][..], 4.0));
    }

    #[test]
    #[should_panic(expected = "already tested or is not a candidate")]
    fn recording_the_same_configuration_twice_panics() {
        let mut state = SearchState::new(candidates(3), Budget::new(10.0));
        state.record(ConfigId(0), 1.0, true);
        state.record(ConfigId(0), 1.0, true);
    }

    #[test]
    fn speculation_preserves_the_untested_order() {
        let state = SearchState::new(candidates(5), Budget::new(50.0));
        let speculated = state.speculate(ConfigId(2), 5.0, true);
        assert_eq!(
            speculated.untested(),
            &[ConfigId(0), ConfigId(1), ConfigId(3), ConfigId(4)]
        );
    }

    #[test]
    fn untested_positions_invert_the_untested_list() {
        let mut state = SearchState::new(candidates(6), Budget::new(100.0));
        state.record(ConfigId(1), 3.0, true);
        state.record(ConfigId(4), 3.0, true);
        let mut positions = Vec::new();
        state.untested_positions(8, &mut positions);
        assert_eq!(positions.len(), 8);
        for (position, &id) in state.untested().iter().enumerate() {
            assert_eq!(positions[id.index()], position as u32);
        }
        // Tested ids and ids outside the candidate set map to the sentinel.
        for index in [1usize, 4, 6, 7] {
            assert_eq!(positions[index], SearchState::NOT_UNTESTED);
        }
        // Reuse keeps the buffer consistent after the set shrinks.
        state.record(ConfigId(0), 1.0, true);
        state.untested_positions(8, &mut positions);
        assert_eq!(positions[0], SearchState::NOT_UNTESTED);
    }

    #[test]
    fn cursor_views_match_the_materialized_speculation() {
        let mut state = SearchState::new(candidates(6), Budget::new(100.0));
        state.record(ConfigId(5), 10.0, false);

        let materialized =
            state
                .speculate(ConfigId(1), 7.0, true)
                .speculate(ConfigId(3), 2.5, false);

        let mut cursor = SpeculativeCursor::new(&state);
        cursor.push(ConfigId(1), 7.0, true);
        cursor.push(ConfigId(3), 2.5, false);

        assert_eq!(cursor.depth(), 2);
        assert_eq!(
            cursor.untested().collect::<Vec<_>>(),
            materialized.untested().to_vec()
        );
        assert_eq!(cursor.remaining_budget(), materialized.budget().remaining());
        assert_eq!(cursor.current(), materialized.current());
        assert!(cursor.is_tested(ConfigId(1)));
        assert!(cursor.is_tested(ConfigId(5)));
        assert!(!cursor.is_tested(ConfigId(0)));
        let mut pairs = Vec::new();
        cursor.profiled_pairs_into(&mut pairs);
        assert_eq!(pairs, materialized.profiled_pairs());
        assert_eq!(cursor.speculated().len(), 2);
        assert_eq!(cursor.base().tested().len(), 1);
    }

    #[test]
    fn cursor_charge_extra_matches_the_materialized_state_and_pops_cleanly() {
        let mut state = SearchState::new(candidates(5), Budget::new(100.0));
        state.record(ConfigId(4), 10.0, true);

        // Materialized: speculate then charge a switching cost, two separate
        // subtractions — the cursor must replay the identical sequence.
        let mut materialized = state.speculate(ConfigId(1), 0.3, true);
        materialized.charge_extra(0.7);

        let mut cursor = SpeculativeCursor::new(&state);
        let before = cursor.remaining_budget();
        cursor.push(ConfigId(1), 0.3, true);
        cursor.charge_extra(0.7);
        assert_eq!(
            cursor.remaining_budget().to_bits(),
            materialized.budget().remaining().to_bits()
        );
        cursor.pop();
        assert_eq!(cursor.remaining_budget().to_bits(), before.to_bits());
    }

    #[test]
    fn cursor_pop_restores_the_previous_budget_exactly() {
        let state = SearchState::new(candidates(4), Budget::new(1.0));
        let mut cursor = SpeculativeCursor::new(&state);
        let before = cursor.remaining_budget();
        // 0.1 is not representable in binary floating point: subtracting and
        // re-adding would not round-trip, the saved-value restore must.
        cursor.push(ConfigId(0), 0.1, true);
        cursor.push(ConfigId(1), 0.3, true);
        cursor.pop();
        cursor.pop();
        assert_eq!(cursor.remaining_budget().to_bits(), before.to_bits());
        assert_eq!(cursor.depth(), 0);
        assert_eq!(cursor.current(), None);
    }

    #[test]
    #[should_panic(expected = "empty speculation stack")]
    fn cursor_pop_on_empty_stack_panics() {
        let state = SearchState::new(candidates(2), Budget::new(1.0));
        let mut cursor = SpeculativeCursor::new(&state);
        cursor.pop();
    }
}
