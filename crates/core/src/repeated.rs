//! Repeated executions and the first-price leak — the Remark under
//! Theorem 10.
//!
//! DMW reveals the winner, the first price and the second price of every
//! auction. The paper's Remark argues this is harmless in one-shot play
//! ("all bids are submitted and committed before revelations") and that
//! "the knowledge of first and second-highest bid can be exploited only
//! if the same set of jobs is scheduled repeatedly".
//!
//! This module measures that exploitation attempt: an *informed* agent
//! replays the same instance, knowing `(y*, y**)` from previous rounds,
//! and plays price-targeting strategies against its true values. Because
//! each DMW execution is (per-round) truthful, no informed strategy beats
//! truth-telling — the information leak does not convert into profit,
//! which is exactly the mitigation the Remark claims.

use crate::config::DmwConfig;
use crate::error::DmwError;
use crate::runner::{utilities, DmwRunner};
use dmw_mechanism::{AgentId, ExecutionTimes, TaskId};
use rand::Rng;

/// A bid-shading strategy an informed agent can play in later rounds,
/// parameterized by the revealed `(y*, y**)` of each task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InformedStrategy {
    /// Keep reporting true values (the honest baseline).
    Truthful,
    /// Bid just below the revealed first price on every task, trying to
    /// steal the win.
    UndercutWinner,
    /// Bid exactly the revealed second price, trying to raise payments if
    /// it wins anyway.
    MatchSecondPrice,
    /// Bid just below the revealed second price.
    ShadeBelowSecond,
}

impl InformedStrategy {
    /// All strategies, honest first.
    pub fn all() -> [InformedStrategy; 4] {
        [
            InformedStrategy::Truthful,
            InformedStrategy::UndercutWinner,
            InformedStrategy::MatchSecondPrice,
            InformedStrategy::ShadeBelowSecond,
        ]
    }

    /// Label for experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            InformedStrategy::Truthful => "truthful",
            InformedStrategy::UndercutWinner => "undercut-winner",
            InformedStrategy::MatchSecondPrice => "match-second-price",
            InformedStrategy::ShadeBelowSecond => "shade-below-second",
        }
    }

    /// The bid this strategy produces for one task, given the agent's true
    /// value and the revealed prices, clamped into the bid set.
    pub fn bid(&self, truth: u64, first: u64, second: u64, w_max: u64) -> u64 {
        let raw = match self {
            InformedStrategy::Truthful => truth,
            InformedStrategy::UndercutWinner => first.saturating_sub(1).max(1),
            InformedStrategy::MatchSecondPrice => second,
            InformedStrategy::ShadeBelowSecond => second.saturating_sub(1).max(1),
        };
        raw.clamp(1, w_max)
    }
}

/// One row of the repeated-execution experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepeatedRow {
    /// The strategy the informed agent played in round two.
    pub strategy: &'static str,
    /// Its truthful round-one utility.
    pub truthful_utility: i128,
    /// Its informed round-two utility.
    pub informed_utility: i128,
}

/// Runs the two-round experiment: round one is honest (revealing prices),
/// round two replays the same instance with the informed agent playing
/// `strategy`. Returns one row per strategy.
///
/// # Errors
///
/// Propagates configuration and protocol errors.
pub fn repeated_execution<R: Rng + ?Sized>(
    config: &DmwConfig,
    truth: &ExecutionTimes,
    informed: AgentId,
    rng: &mut R,
) -> Result<Vec<RepeatedRow>, DmwError> {
    let runner = DmwRunner::new(config.clone());
    let w_max = config.encoding().w_max();

    // Round one: everyone truthful; prices leak.
    let round_one = runner.run_honest(truth, rng)?;
    let outcome_one = round_one.completed()?.clone();
    let truthful_utility = utilities(&round_one, truth)[informed.0];

    let mut rows = Vec::new();
    for strategy in InformedStrategy::all() {
        // Round two: same instance, informed agent shades using leaked
        // prices.
        let row: Vec<u64> = (0..truth.tasks())
            .map(|j| {
                strategy.bid(
                    truth.time(informed, TaskId(j)),
                    outcome_one.first_prices[j],
                    outcome_one.second_prices[j],
                    w_max,
                )
            })
            .collect();
        let bids = truth.with_agent_row(informed, row)?;
        let round_two = runner.run_honest(&bids, rng)?;
        let informed_utility = utilities(&round_two, truth)[informed.0];
        rows.push(RepeatedRow {
            strategy: strategy.label(),
            truthful_utility,
            informed_utility,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn informed_strategies_never_beat_truth() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(71);
        for seed in 0..6u64 {
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let config = DmwConfig::generate(6, 1, &mut r).unwrap();
            let truth =
                dmw_mechanism::generators::uniform(6, 2, 1..=config.encoding().w_max(), &mut r)
                    .unwrap();
            let rows = repeated_execution(&config, &truth, AgentId(2), &mut rng).unwrap();
            for row in rows {
                assert!(
                    row.informed_utility <= row.truthful_utility,
                    "seed {seed}, {}: informed {} > truthful {}",
                    row.strategy,
                    row.informed_utility,
                    row.truthful_utility
                );
            }
        }
    }

    #[test]
    fn truthful_replay_reproduces_the_baseline() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(72);
        let config = DmwConfig::generate(5, 1, &mut rng).unwrap();
        let truth =
            dmw_mechanism::generators::uniform(5, 2, 1..=config.encoding().w_max(), &mut rng)
                .unwrap();
        let rows = repeated_execution(&config, &truth, AgentId(0), &mut rng).unwrap();
        let truthful_row = rows.iter().find(|r| r.strategy == "truthful").unwrap();
        assert_eq!(truthful_row.informed_utility, truthful_row.truthful_utility);
    }

    #[test]
    fn strategy_bids_stay_in_the_bid_set() {
        for s in InformedStrategy::all() {
            for truth in 1..=5u64 {
                for first in 1..=5u64 {
                    for second in first..=5u64 {
                        let b = s.bid(truth, first, second, 5);
                        assert!((1..=5).contains(&b), "{} produced {b}", s.label());
                    }
                }
            }
        }
    }
}
