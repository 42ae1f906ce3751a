//! Experiment harnesses for the game-theoretic theorems.
//!
//! * [`faithfulness_table`] — Theorems 4–5: for every deviation in the
//!   [`Behavior`] catalogue, run the protocol with one deviator and
//!   compare its utility against the suggested strategy. Faithfulness
//!   predicts `U(deviation) ≤ U(suggested)` on every row.
//! * [`voluntary_participation_table`] — Theorems 6–9: for every deviation
//!   mix, check that each agent *following the suggested strategy* ends
//!   with non-negative utility.
//!
//! Both return plain rows so the `reproduce` harness can print them as the
//! experiment tables recorded in EXPERIMENTS.md.

use crate::config::DmwConfig;
use crate::runner::{utilities, DmwRunner};
use crate::strategy::Behavior;
use dmw_mechanism::ExecutionTimes;
use dmw_simnet::FaultPlan;
use rand::Rng;

/// One row of the faithfulness experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaithfulnessRow {
    /// The deviation the deviator executed.
    pub behavior: &'static str,
    /// Index of the deviating agent.
    pub deviator: usize,
    /// Whether the run completed (vs aborted).
    pub completed: bool,
    /// Abort reason label when aborted.
    pub abort: Option<String>,
    /// Deviator's utility under the suggested strategy (baseline run).
    pub suggested_utility: i128,
    /// Deviator's utility under the deviation.
    pub deviating_utility: i128,
}

impl FaithfulnessRow {
    /// `true` when the row is consistent with faithfulness.
    pub fn faithful(&self) -> bool {
        self.deviating_utility <= self.suggested_utility
    }
}

/// Runs the full deviation catalogue for `deviator` on one instance.
/// `truth` is used both as the (honest) bid matrix and for utility
/// evaluation — deviations here are protocol-level, not misreports.
///
/// # Errors
///
/// Propagates configuration/validation errors from the runner.
pub fn faithfulness_table<R: Rng + ?Sized>(
    config: &DmwConfig,
    truth: &ExecutionTimes,
    deviator: usize,
    rng: &mut R,
) -> Result<Vec<FaithfulnessRow>, crate::error::DmwError> {
    let n = config.agents();
    let runner = DmwRunner::new(config.clone());
    let baseline = runner.run_honest(truth, rng)?;
    let suggested_utility = utilities(&baseline, truth)[deviator];
    let mut rows = Vec::new();
    for behavior in Behavior::catalogue(n, deviator) {
        let mut behaviors = vec![Behavior::Suggested; n];
        behaviors[deviator] = behavior;
        let run = runner.run(truth, &behaviors, FaultPlan::none(n), rng)?;
        let deviating_utility = utilities(&run, truth)[deviator];
        rows.push(FaithfulnessRow {
            behavior: behavior.label(),
            deviator,
            completed: run.is_completed(),
            abort: run.abort_reason().map(|r| r.to_string()),
            suggested_utility,
            deviating_utility,
        });
    }
    Ok(rows)
}

/// One row of the strong-voluntary-participation experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoluntaryRow {
    /// The deviation executed by the non-compliant agent.
    pub behavior: &'static str,
    /// Whether the run completed.
    pub completed: bool,
    /// The minimum utility over all agents that followed the suggested
    /// strategy. Strong voluntary participation predicts `≥ 0`.
    pub min_compliant_utility: i128,
}

/// For each deviation, measures the worst utility a *compliant* agent
/// receives (Theorems 6–9 predict it is never negative).
///
/// # Errors
///
/// Propagates configuration/validation errors from the runner.
pub fn voluntary_participation_table<R: Rng + ?Sized>(
    config: &DmwConfig,
    truth: &ExecutionTimes,
    deviator: usize,
    rng: &mut R,
) -> Result<Vec<VoluntaryRow>, crate::error::DmwError> {
    let n = config.agents();
    let runner = DmwRunner::new(config.clone());
    let mut rows = Vec::new();
    for behavior in Behavior::catalogue(n, deviator) {
        let mut behaviors = vec![Behavior::Suggested; n];
        behaviors[deviator] = behavior;
        let run = runner.run(truth, &behaviors, FaultPlan::none(n), rng)?;
        let us = utilities(&run, truth);
        let min_compliant_utility = (0..n)
            .filter(|&i| i != deviator)
            .map(|i| us[i])
            .min()
            .expect("n >= 2");
        rows.push(VoluntaryRow {
            behavior: behavior.label(),
            completed: run.is_completed(),
            min_compliant_utility,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn instance(n: usize, m: usize, w_max: u64, seed: u64) -> ExecutionTimes {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        dmw_mechanism::generators::uniform(n, m, 1..=w_max, &mut rng).unwrap()
    }

    #[test]
    fn deviations_never_beat_the_suggested_strategy() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let config = DmwConfig::generate(5, 1, &mut rng).unwrap();
        let truth = instance(5, 2, config.encoding().w_max(), 32);
        let rows = faithfulness_table(&config, &truth, 1, &mut rng).unwrap();
        assert_eq!(rows.len(), Behavior::catalogue(5, 1).len());
        for row in &rows {
            assert!(
                row.faithful(),
                "{} beat the suggested strategy: {} > {}",
                row.behavior,
                row.deviating_utility,
                row.suggested_utility
            );
        }
    }

    #[test]
    fn compliant_agents_never_lose() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let config = DmwConfig::generate(5, 1, &mut rng).unwrap();
        let truth = instance(5, 2, config.encoding().w_max(), 42);
        let rows = voluntary_participation_table(&config, &truth, 2, &mut rng).unwrap();
        for row in &rows {
            assert!(
                row.min_compliant_utility >= 0,
                "{}: compliant agent lost {}",
                row.behavior,
                row.min_compliant_utility
            );
        }
    }

    #[test]
    fn tampering_deviations_abort_and_silent_ones_complete() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(51);
        let config = DmwConfig::generate(6, 2, &mut rng).unwrap();
        let truth = instance(6, 1, config.encoding().w_max(), 52);
        let rows = faithfulness_table(&config, &truth, 0, &mut rng).unwrap();
        let by_label = |l: &str| rows.iter().find(|r| r.behavior == l).unwrap();
        // Content tampering is detected and aborts the run.
        assert!(!by_label("tampered-commitments").completed);
        assert!(!by_label("corrupt-share").completed);
        assert!(!by_label("wrong-lambda").completed);
        // Pure silence is tolerated (c = 2) and the auction completes
        // without the deviator.
        assert!(by_label("silent").completed);
        // An inflated claim is outvoted; the run completes.
        assert!(by_label("inflated-payment-claim").completed);
    }
}
