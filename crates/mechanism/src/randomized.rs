//! The randomized biased mechanism for two machines (§1.1: "the authors
//! designed a randomized 7/4-approximation mechanism for scheduling on
//! two machines", Nisan & Ronen 2001).
//!
//! Per task, a fair coin picks which machine is *favoured*; the favoured
//! machine wins whenever its bid is at most `β` times the other's
//! (`β = 4/3`), and critical-value payments keep each coin outcome
//! truthful (so the mechanism is *truthful in expectation* — in fact
//! universally truthful, being a distribution over truthful deterministic
//! mechanisms):
//!
//! * favoured machine wins and is paid `β · y_other`;
//! * unfavoured machine wins and is paid `y_other / β`.
//!
//! The expected makespan is at most `7/4` of the optimum — beating
//! MinWork's factor-2 lower bound for deterministic mechanisms on two
//! machines. Payments are rational (`β` is), so they are returned scaled:
//! all monetary amounts are in units of `1/(β_num·β_den) = 1/12` (the
//! [`SCALE`] constant) to stay exact in integers.

use crate::error::MechanismError;
use crate::problem::{AgentId, ExecutionTimes, Schedule, TaskId};
use rand::Rng;

/// The bias `β = β_num / β_den = 4/3` of Nisan–Ronen's two-machine
/// mechanism.
pub const BETA_NUM: u64 = 4;
/// Denominator of the bias.
pub const BETA_DEN: u64 = 3;

/// All monetary amounts are returned in units of `1/SCALE` so both
/// critical payments (`β·y` and `y/β`) stay exact integers.
pub const SCALE: u64 = BETA_NUM * BETA_DEN;

/// Outcome of the randomized mechanism: integer amounts scaled by
/// [`SCALE`] to keep the rational payments exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaledOutcome {
    /// The chosen schedule.
    pub schedule: Schedule,
    /// Per-agent payments in units of `1/SCALE`.
    pub scaled_payments: Vec<u64>,
}

impl ScaledOutcome {
    /// Agent utility in units of `1/SCALE`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn scaled_utility(
        &self,
        agent: AgentId,
        truth: &ExecutionTimes,
    ) -> Result<i128, MechanismError> {
        let load = self.schedule.load(agent, truth)?;
        Ok(self.scaled_payments[agent.0] as i128 - (load * SCALE) as i128)
    }
}

/// The per-task coin flips: `favoured[j]` is the machine favoured on task
/// `j`. Exposing the coins lets the truthfulness audit condition on them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coins {
    /// The favoured machine per task.
    pub favoured: Vec<AgentId>,
}

impl Coins {
    /// Samples fair coins for `m` tasks.
    pub fn flip<R: Rng + ?Sized>(m: usize, rng: &mut R) -> Self {
        Coins {
            favoured: (0..m)
                .map(|_| AgentId(usize::from(rng.gen_bool(0.5))))
                .collect(),
        }
    }
}

/// Runs the biased mechanism for the given coins (deterministic given
/// `coins`, which is what makes it universally truthful).
///
/// # Errors
///
/// Returns [`MechanismError::TooFewAgents`] unless exactly two agents bid,
/// and [`MechanismError::ShapeMismatch`] if `coins` does not cover the
/// tasks.
pub fn run_with_coins(
    bids: &ExecutionTimes,
    coins: &Coins,
) -> Result<ScaledOutcome, MechanismError> {
    if bids.agents() != 2 {
        return Err(MechanismError::TooFewAgents {
            agents: bids.agents(),
        });
    }
    let m = bids.tasks();
    if coins.favoured.len() != m {
        return Err(MechanismError::ShapeMismatch {
            left: (2, m),
            right: (2, coins.favoured.len()),
        });
    }
    let mut assignment = Vec::with_capacity(m);
    let mut scaled_payments = vec![0u64; 2];
    for j in 0..m {
        let fav = coins.favoured[j];
        let other = AgentId(1 - fav.0);
        let y_fav = bids.time(fav, TaskId(j));
        let y_other = bids.time(other, TaskId(j));
        // Favoured wins iff y_fav <= β·y_other, i.e. β_den·y_fav <= β_num·y_other.
        if BETA_DEN * y_fav <= BETA_NUM * y_other {
            assignment.push(fav);
            // Critical value β·y_other = 4/3·y_other; × SCALE = 16·y_other.
            scaled_payments[fav.0] += BETA_NUM * BETA_NUM * y_other;
        } else {
            assignment.push(other);
            // Critical value y_fav/β = 3/4·y_fav; × SCALE = 9·y_fav.
            scaled_payments[other.0] += BETA_DEN * BETA_DEN * y_fav;
        }
    }
    Ok(ScaledOutcome {
        schedule: Schedule::from_assignment(2, assignment)?,
        scaled_payments,
    })
}

/// Runs the mechanism with fresh fair coins.
///
/// # Errors
///
/// Same as [`run_with_coins`].
pub fn run_randomized<R: Rng + ?Sized>(
    bids: &ExecutionTimes,
    rng: &mut R,
) -> Result<ScaledOutcome, MechanismError> {
    let coins = Coins::flip(bids.tasks(), rng);
    run_with_coins(bids, &coins)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimal::optimal_makespan;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn two_machine(seed: u64, m: usize) -> ExecutionTimes {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        crate::generators::uniform(2, m, 1..=30, &mut rng).unwrap()
    }

    #[test]
    fn rejects_other_machine_counts() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let three = crate::generators::uniform(3, 2, 1..=9, &mut rng).unwrap();
        assert!(matches!(
            run_randomized(&three, &mut rng),
            Err(MechanismError::TooFewAgents { agents: 3 })
        ));
    }

    #[test]
    fn coins_must_cover_tasks() {
        let bids = two_machine(2, 3);
        let coins = Coins {
            favoured: vec![AgentId(0)],
        };
        assert!(matches!(
            run_with_coins(&bids, &coins),
            Err(MechanismError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn winner_is_paid_at_least_its_scaled_bid() {
        // Voluntary participation: the critical payment is at least the
        // winner's own (scaled) bid under either coin.
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for seed in 0..30u64 {
            let bids = two_machine(seed, 4);
            let outcome = run_randomized(&bids, &mut rng).unwrap();
            for i in 0..2 {
                assert!(
                    outcome.scaled_utility(AgentId(i), &bids).unwrap() >= 0,
                    "seed {seed} agent {i}"
                );
            }
        }
    }

    #[test]
    fn expected_makespan_within_seven_fourths() {
        // Average over coins (exhaustively: 2^m outcomes) and instances.
        let mut worst_ratio = 0f64;
        for seed in 0..40u64 {
            let m = 3usize;
            let bids = two_machine(seed, m);
            let opt = optimal_makespan(&bids).unwrap().makespan as f64;
            let mut expected = 0f64;
            for mask in 0..(1u32 << m) {
                let coins = Coins {
                    favoured: (0..m)
                        .map(|j| AgentId(((mask >> j) & 1) as usize))
                        .collect(),
                };
                let outcome = run_with_coins(&bids, &coins).unwrap();
                expected += outcome.schedule.makespan(&bids).unwrap() as f64;
            }
            expected /= (1u32 << m) as f64;
            worst_ratio = worst_ratio.max(expected / opt);
        }
        assert!(
            worst_ratio <= 1.75 + 1e-9,
            "expected makespan ratio {worst_ratio} exceeds 7/4"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Universal truthfulness: for EVERY coin outcome, no misreport
        /// beats truth-telling (stronger than truthful-in-expectation).
        #[test]
        fn universally_truthful(seed in 0u64..2000, mask in 0u32..8) {
            let m = 3usize;
            let truth = two_machine(seed, m);
            let coins = Coins {
                favoured: (0..m).map(|j| AgentId(((mask >> j) & 1) as usize)).collect(),
            };
            let honest = run_with_coins(&truth, &coins).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xBEEF);
            let deviator = AgentId(rand::Rng::gen_range(&mut rng, 0..2));
            let honest_u = honest.scaled_utility(deviator, &truth).unwrap();
            let lie: Vec<u64> = (0..m).map(|_| rand::Rng::gen_range(&mut rng, 1..=30)).collect();
            let bids = truth.with_agent_row(deviator, lie).unwrap();
            let outcome = run_with_coins(&bids, &coins).unwrap();
            prop_assert!(outcome.scaled_utility(deviator, &truth).unwrap() <= honest_u);
        }
    }
}
