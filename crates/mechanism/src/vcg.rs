//! The Vickrey–Clarke–Groves mechanism, generically and for scheduling.
//!
//! The paper's lineage starts here: "In their seminal paper, Nisan and
//! Ronen \[30\] … used the celebrated Vickrey–Clarke–Groves (VCG) mechanism
//! \[15,21,38\] for solving several standard problems in computer science
//! including … scheduling on unrelated machines" (§1.1). MinWork *is* the
//! VCG mechanism for the total-work social objective, decomposed into
//! per-task Vickrey auctions; this module implements VCG generically —
//! welfare-maximizing outcome plus Clarke-pivot payments over an explicit
//! outcome space — and the test suite proves the equivalence
//! `VCG(total work) ≡ MinWork` executably.
//!
//! The generic form also supports *restricted* outcome spaces (e.g. only
//! balanced schedules), where VCG remains truthful but stops decomposing
//! into independent auctions — a contrast the `vcg` experiment reports.

use crate::error::MechanismError;
use crate::problem::{AgentId, ExecutionTimes, Outcome, Schedule, TaskId};

/// Which schedules the VCG optimizer may choose from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutcomeSpace {
    /// Every assignment of tasks to agents (the unrestricted space on
    /// which VCG coincides with MinWork).
    #[default]
    All,
    /// Only schedules where no agent receives more than `limit` tasks —
    /// a cardinality-balanced space on which VCG payments differ from
    /// second prices.
    Balanced {
        /// Maximum number of tasks per agent.
        limit: usize,
    },
}

impl OutcomeSpace {
    fn admits(&self, assignment: &[AgentId], agents: usize) -> bool {
        match self {
            OutcomeSpace::All => true,
            OutcomeSpace::Balanced { limit } => {
                let mut counts = vec![0usize; agents];
                for a in assignment {
                    counts[a.0] += 1;
                    if counts[a.0] > *limit {
                        return false;
                    }
                }
                true
            }
        }
    }
}

/// The VCG mechanism for scheduling with the (negated) total-work social
/// objective: valuations are `V_i = −Σ_{j ∈ S_i} y_i^j`, the chosen
/// schedule maximizes `Σ V_i`, and each winner is paid its Clarke pivot
/// `opt(−i) − opt_{−i}(S*)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Vcg {
    space: OutcomeSpace,
}

/// Hard cap on the `n^m` outcome-space size the exact optimizer accepts.
pub const VCG_SEARCH_LIMIT: u128 = 50_000_000;

impl Vcg {
    /// Creates a VCG mechanism over the given outcome space.
    pub fn new(space: OutcomeSpace) -> Self {
        Vcg { space }
    }

    /// The configured outcome space.
    pub fn space(&self) -> OutcomeSpace {
        self.space
    }

    /// Minimum total work over the admissible schedules, excluding agent
    /// `excluded` entirely when given.
    fn min_total_work(
        &self,
        bids: &ExecutionTimes,
        excluded: Option<AgentId>,
    ) -> Result<(u64, Vec<AgentId>), MechanismError> {
        let n = bids.agents();
        let m = bids.tasks();
        let states = (n as u128).checked_pow(m as u32).unwrap_or(u128::MAX);
        if states > VCG_SEARCH_LIMIT {
            return Err(MechanismError::InstanceTooLarge {
                states,
                limit: VCG_SEARCH_LIMIT,
            });
        }
        let mut best: Option<(u64, Vec<AgentId>)> = None;
        let mut assignment = vec![AgentId(0); m];
        // Odometer over all n^m assignments; lexicographic order makes the
        // minimizer deterministic (lowest indices win ties).
        loop {
            let admissible = self.space.admits(&assignment, n)
                && excluded.is_none_or(|x| assignment.iter().all(|a| *a != x));
            if admissible {
                let work: u64 = assignment
                    .iter()
                    .enumerate()
                    .map(|(j, a)| bids.time(*a, TaskId(j)))
                    .sum();
                let better = match &best {
                    None => true,
                    Some((w, _)) => work < *w,
                };
                if better {
                    best = Some((work, assignment.clone()));
                }
            }
            // Advance.
            let mut pos = 0;
            loop {
                if pos == m {
                    let (w, a) = best.ok_or(MechanismError::NoTasks)?;
                    return Ok((w, a));
                }
                assignment[pos].0 += 1;
                if assignment[pos].0 < n {
                    break;
                }
                assignment[pos].0 = 0;
                pos += 1;
            }
        }
    }

    /// Runs VCG on the bid matrix.
    ///
    /// # Errors
    ///
    /// * [`MechanismError::InstanceTooLarge`] beyond [`VCG_SEARCH_LIMIT`];
    /// * [`MechanismError::NoTasks`] if the outcome space is empty (e.g. a
    ///   balance limit too small to place all tasks).
    pub fn run(&self, bids: &ExecutionTimes) -> Result<Outcome, MechanismError> {
        let n = bids.agents();
        let (_, assignment) = self.min_total_work(bids, None)?;
        let schedule = Schedule::from_assignment(n, assignment)?;
        // Clarke pivot: P_i = opt(without i) − (chosen work excluding i's
        // own share).
        let mut payments = vec![0u64; n];
        for (i, payment) in payments.iter_mut().enumerate() {
            let agent = AgentId(i);
            if schedule.tasks_of(agent).is_empty() {
                continue; // pivot is zero for non-winners under this objective
            }
            let (without_i, _) = self.min_total_work(bids, Some(agent))?;
            let chosen_without_own: u64 = schedule
                .assignment()
                .iter()
                .enumerate()
                .filter(|&(_, a)| *a != agent)
                .map(|(j, a)| bids.time(*a, TaskId(j)))
                .sum();
            *payment = without_i - chosen_without_own;
        }
        Ok(Outcome { schedule, payments })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minwork::{MinWork, TieBreak};
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn vcg_equals_minwork_on_the_unrestricted_space() {
        // The executable version of "MinWork is the VCG mechanism for the
        // total-work objective".
        let mut rng = rand::rngs::StdRng::seed_from_u64(101);
        for _ in 0..30 {
            let bids = crate::generators::uniform(4, 4, 1..=15, &mut rng).unwrap();
            let vcg = Vcg::default().run(&bids).unwrap();
            let minwork = MinWork::new(TieBreak::LowestIndex).run(&bids).unwrap();
            assert_eq!(vcg.schedule, minwork.schedule);
            assert_eq!(vcg.payments, minwork.payments);
        }
    }

    #[test]
    fn balanced_space_changes_payments() {
        // Agent 0 is cheapest on both tasks; balance limit 1 forces a
        // split, and Clarke payments stop being plain second prices.
        let bids = ExecutionTimes::from_rows(vec![vec![1, 1], vec![5, 5], vec![9, 9]]).unwrap();
        let unrestricted = Vcg::default().run(&bids).unwrap();
        assert_eq!(unrestricted.schedule.tasks_of(AgentId(0)).len(), 2);
        let balanced = Vcg::new(OutcomeSpace::Balanced { limit: 1 })
            .run(&bids)
            .unwrap();
        assert_eq!(balanced.schedule.tasks_of(AgentId(0)).len(), 1);
        assert_eq!(balanced.schedule.tasks_of(AgentId(1)).len(), 1);
        // Agent 1's pivot: without it the split is {0:1 task, 2:1 task}
        // costing 1+9 = 10; with it 1+5 = 6, of which others carry 1.
        assert_eq!(balanced.payments[1], 9);
    }

    #[test]
    fn infeasible_balance_limit_errors() {
        let bids = ExecutionTimes::from_rows(vec![vec![1, 1, 1], vec![2, 2, 2]]).unwrap();
        // 3 tasks, 2 agents, at most 1 task each: no admissible schedule.
        assert!(matches!(
            Vcg::new(OutcomeSpace::Balanced { limit: 1 }).run(&bids),
            Err(MechanismError::NoTasks)
        ));
    }

    #[test]
    fn search_limit_enforced() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let bids = crate::generators::uniform(8, 30, 1..=5, &mut rng).unwrap();
        assert!(matches!(
            Vcg::default().run(&bids),
            Err(MechanismError::InstanceTooLarge { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// VCG is truthful on the restricted (balanced) space too — the
        /// property MinWork's per-task decomposition cannot provide.
        #[test]
        fn balanced_vcg_is_truthful(seed in 0u64..3000) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let truth = crate::generators::uniform(3, 3, 1..=8, &mut rng).unwrap();
            let vcg = Vcg::new(OutcomeSpace::Balanced { limit: 2 });
            let honest = vcg.run(&truth).unwrap();
            let deviator = AgentId(rand::Rng::gen_range(&mut rng, 0..3));
            let honest_u = honest.utility(deviator, &truth).unwrap();
            let lie: Vec<u64> = (0..3).map(|_| rand::Rng::gen_range(&mut rng, 1..=8)).collect();
            let bids = truth.with_agent_row(deviator, lie).unwrap();
            let outcome = vcg.run(&bids).unwrap();
            prop_assert!(outcome.utility(deviator, &truth).unwrap() <= honest_u);
        }

        /// Voluntary participation holds for VCG on both spaces.
        #[test]
        fn vcg_voluntary_participation(seed in 0u64..1000) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let truth = crate::generators::uniform(3, 3, 1..=8, &mut rng).unwrap();
            for vcg in [Vcg::default(), Vcg::new(OutcomeSpace::Balanced { limit: 2 })] {
                let outcome = vcg.run(&truth).unwrap();
                for i in 0..3 {
                    prop_assert!(outcome.utility(AgentId(i), &truth).unwrap() >= 0);
                }
            }
        }
    }
}
