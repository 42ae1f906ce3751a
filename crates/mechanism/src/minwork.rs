//! The centralized **MinWork** mechanism (Definition 5 of the paper,
//! originally Nisan & Ronen 2001).
//!
//! * **Allocation:** each task goes to the agent able to execute it in
//!   minimum (reported) time; ties are broken randomly in the paper's
//!   definition, or deterministically by lowest index to match DMW's
//!   "smallest pseudonym wins" rule.
//! * **Payment:** `P_i(y) = Σ_{j ∈ S_i} min_{i' ≠ i} y_{i'}^j` — the winner
//!   of each task is paid the second-lowest bid for it (equation (1)).
//!
//! MinWork is truthful (Theorem 2), satisfies voluntary participation, and
//! is an `n`-approximation for makespan minimization.

use crate::error::MechanismError;
use crate::problem::{AgentId, ExecutionTimes, Outcome, Schedule, TaskId};
use crate::vickrey;
use rand::Rng;

/// Tie-breaking rule for tasks with more than one minimum bid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// Deterministic: the tied agent with the smallest index wins. This is
    /// DMW's rule ("the agent with the smallest pseudonym wins", step
    /// III.3) and the default.
    #[default]
    LowestIndex,
    /// Random among the tied agents — the rule in the paper's Definition 5
    /// of the centralized mechanism. Requires [`MinWork::run_with_rng`].
    Random,
}

/// The MinWork mechanism.
///
/// # Example
/// ```
/// use dmw_mechanism::{MinWork, TieBreak, ExecutionTimes};
///
/// let bids = ExecutionTimes::from_rows(vec![vec![3, 1], vec![1, 2]])?;
/// let outcome = MinWork::new(TieBreak::LowestIndex).run(&bids)?;
/// assert_eq!(outcome.schedule.agent_of(0.into()), Some(1.into()));
/// assert_eq!(outcome.schedule.agent_of(1.into()), Some(0.into()));
/// assert_eq!(outcome.payments, vec![2, 3]);
/// # Ok::<(), dmw_mechanism::MechanismError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MinWork {
    tie_break: TieBreak,
}

impl MinWork {
    /// Creates a MinWork mechanism with the given tie-break rule.
    pub fn new(tie_break: TieBreak) -> Self {
        MinWork { tie_break }
    }

    /// The configured tie-break rule.
    pub fn tie_break(&self) -> TieBreak {
        self.tie_break
    }

    /// Runs the mechanism on a bid matrix with deterministic tie-breaking.
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::TooFewAgents`] if the matrix has fewer than
    /// two agents (enforced at construction of [`ExecutionTimes`], so this
    /// is unreachable for valid matrices).
    ///
    /// # Panics
    ///
    /// Panics if called with [`TieBreak::Random`]; use
    /// [`MinWork::run_with_rng`] to supply the randomness.
    pub fn run(&self, bids: &ExecutionTimes) -> Result<Outcome, MechanismError> {
        assert!(
            self.tie_break == TieBreak::LowestIndex,
            "TieBreak::Random requires run_with_rng"
        );
        self.run_inner(bids, &mut NoRng)
    }

    /// Runs the mechanism, breaking ties per the configured rule using
    /// `rng` when the rule is [`TieBreak::Random`].
    ///
    /// # Errors
    ///
    /// Same as [`MinWork::run`].
    pub fn run_with_rng<R: Rng + ?Sized>(
        &self,
        bids: &ExecutionTimes,
        rng: &mut R,
    ) -> Result<Outcome, MechanismError> {
        match self.tie_break {
            TieBreak::LowestIndex => self.run_inner(bids, &mut NoRng),
            TieBreak::Random => self.run_inner(bids, &mut Some(rng)),
        }
    }

    fn run_inner<T: TiePicker>(
        &self,
        bids: &ExecutionTimes,
        picker: &mut T,
    ) -> Result<Outcome, MechanismError> {
        let n = bids.agents();
        let m = bids.tasks();
        let mut assignment = Vec::with_capacity(m);
        let mut payments = vec![0u64; n];
        for j in 0..m {
            let column = bids.task_column(TaskId(j));
            let tie_winner = picker.pick(&column);
            let result = vickrey::auction(&column, tie_winner)?;
            assignment.push(result.winner);
            payments[result.winner.0] += result.second_price;
        }
        Ok(Outcome {
            schedule: Schedule::from_assignment(n, assignment)?,
            payments,
        })
    }
}

/// Internal abstraction over the tie-break randomness source.
trait TiePicker {
    /// Chooses among the minimum bidders of `column`, or `None` to use the
    /// deterministic lowest-index rule.
    fn pick(&mut self, column: &[u64]) -> Option<AgentId>;
}

/// Deterministic picker: always defers to lowest index.
struct NoRng;

impl TiePicker for NoRng {
    fn pick(&mut self, _column: &[u64]) -> Option<AgentId> {
        None
    }
}

impl<R: Rng + ?Sized> TiePicker for Option<&mut R> {
    fn pick(&mut self, column: &[u64]) -> Option<AgentId> {
        let rng = self.as_mut()?;
        let min = *column.iter().min()?;
        let tied: Vec<usize> = column
            .iter()
            .enumerate()
            .filter(|&(_, b)| *b == min)
            .map(|(i, _)| i)
            .collect();
        Some(AgentId(tied[rng.gen_range(0..tied.len())]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn bids_3x3() -> ExecutionTimes {
        ExecutionTimes::from_rows(vec![vec![2, 9, 4], vec![5, 4, 4], vec![7, 6, 1]]).unwrap()
    }

    #[test]
    fn allocates_each_task_to_minimum_bidder() {
        let outcome = MinWork::default().run(&bids_3x3()).unwrap();
        assert_eq!(outcome.schedule.agent_of(TaskId(0)), Some(AgentId(0)));
        assert_eq!(outcome.schedule.agent_of(TaskId(1)), Some(AgentId(1)));
        assert_eq!(outcome.schedule.agent_of(TaskId(2)), Some(AgentId(2)));
    }

    #[test]
    fn pays_sum_of_second_prices() {
        let outcome = MinWork::default().run(&bids_3x3()).unwrap();
        assert_eq!(outcome.payments, vec![5, 6, 4]);
    }

    #[test]
    fn tie_goes_to_lowest_index_with_tied_second_price() {
        // Task column [4, 4]: agent 0 wins, second price is 4.
        let bids = ExecutionTimes::from_rows(vec![vec![4], vec![4]]).unwrap();
        let outcome = MinWork::default().run(&bids).unwrap();
        assert_eq!(outcome.schedule.agent_of(TaskId(0)), Some(AgentId(0)));
        assert_eq!(outcome.payments, vec![4, 0]);
    }

    #[test]
    fn random_tie_break_always_picks_a_minimum_bidder() {
        let bids = ExecutionTimes::from_rows(vec![vec![4], vec![4], vec![9]]).unwrap();
        let mechanism = MinWork::new(TieBreak::Random);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut winners = std::collections::BTreeSet::new();
        for _ in 0..64 {
            let outcome = mechanism.run_with_rng(&bids, &mut rng).unwrap();
            let w = outcome.schedule.agent_of(TaskId(0)).unwrap();
            assert!(w.0 < 2, "only tied agents may win");
            winners.insert(w.0);
        }
        assert_eq!(winners.len(), 2, "both tied agents win eventually");
    }

    #[test]
    #[should_panic(expected = "run_with_rng")]
    fn random_rule_requires_rng() {
        let bids = ExecutionTimes::from_rows(vec![vec![4], vec![4]]).unwrap();
        let _ = MinWork::new(TieBreak::Random).run(&bids);
    }

    #[test]
    fn minimizes_total_work() {
        // MinWork's schedule minimizes total work over *all* schedules.
        let bids = bids_3x3();
        let outcome = MinWork::default().run(&bids).unwrap();
        let work = outcome.schedule.total_work(&bids).unwrap();
        // Exhaustive check over all 27 schedules.
        for a in 0..3usize {
            for b in 0..3usize {
                for c in 0..3usize {
                    let s = Schedule::from_assignment(3, vec![AgentId(a), AgentId(b), AgentId(c)])
                        .unwrap();
                    assert!(s.total_work(&bids).unwrap() >= work);
                }
            }
        }
    }

    proptest! {
        /// Theorem 2: truth-telling is dominant. For random instances and a
        /// random unilateral misreport, utility never improves.
        #[test]
        fn truthfulness(
            seed in 0u64..2000,
            n in 2usize..5,
            m in 1usize..4,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let truth = crate::generators::uniform(n, m, 1..=20, &mut rng).unwrap();
            let mechanism = MinWork::default();
            let honest = mechanism.run(&truth).unwrap();
            let deviator = AgentId(rng.gen_range(0..n));
            let honest_u = honest.utility(deviator, &truth).unwrap();
            let lie: Vec<u64> = (0..m).map(|_| rng.gen_range(1..=20)).collect();
            let bids = truth.with_agent_row(deviator, lie).unwrap();
            let outcome = mechanism.run(&bids).unwrap();
            let lying_u = outcome.utility(deviator, &truth).unwrap();
            prop_assert!(lying_u <= honest_u,
                "misreport improved utility: {lying_u} > {honest_u}");
        }

        /// Voluntary participation: truthful agents never incur a loss.
        #[test]
        fn voluntary_participation(
            seed in 0u64..2000,
            n in 2usize..6,
            m in 1usize..5,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let truth = crate::generators::uniform(n, m, 1..=20, &mut rng).unwrap();
            let outcome = MinWork::default().run(&truth).unwrap();
            for i in 0..n {
                prop_assert!(outcome.utility(AgentId(i), &truth).unwrap() >= 0);
            }
        }

        /// The makespan never exceeds n times the optimum on tiny instances
        /// (the n-approximation bound).
        #[test]
        fn n_approximation(seed in 0u64..500) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let truth = crate::generators::uniform(3, 3, 1..=9, &mut rng).unwrap();
            let outcome = MinWork::default().run(&truth).unwrap();
            let got = outcome.schedule.makespan(&truth).unwrap();
            let opt = crate::optimal::optimal_makespan(&truth).unwrap().makespan;
            prop_assert!(got <= 3 * opt, "makespan {got} > 3x optimal {opt}");
        }
    }
}
