//! The outcome checker: every run's result against centralized MinWork.

use dmw::{DmwRun, RunResult};
use dmw_mechanism::{AgentId, ExecutionTimes, Outcome, TaskId};

/// Checks one run.
///
/// * With no crash the run must be `Completed` with MinWork's schedule
///   and payments (lowest-index tie-break), lossy or not.
/// * With `victim` crashed it must be `Degraded` with exactly the victim
///   excluded. Tasks not re-auctioned keep MinWork's winners; each
///   re-auctioned task goes to a survivor with the lowest bid on it.
///
/// # Errors
///
/// Returns what differs.
pub fn outcome(
    run: &DmwRun,
    bids: &ExecutionTimes,
    expected: &Outcome,
    victim: Option<usize>,
) -> Result<(), String> {
    match (&run.result, victim) {
        (RunResult::Completed(got), None) => {
            if got.schedule != expected.schedule {
                return Err(format!(
                    "schedule {:?}, MinWork {:?}",
                    got.schedule.assignment(),
                    expected.schedule.assignment()
                ));
            }
            if got.payments != expected.payments {
                return Err(format!(
                    "payments {:?}, MinWork {:?}",
                    got.payments, expected.payments
                ));
            }
            Ok(())
        }
        (
            RunResult::Degraded {
                outcome,
                excluded,
                reauctioned_tasks,
            },
            Some(victim),
        ) => {
            if excluded != &[victim] {
                return Err(format!("excluded {excluded:?}, crashed [{victim}]"));
            }
            for t in 0..bids.tasks() {
                let task = TaskId(t);
                let got = outcome.schedule.agent_of(task);
                if reauctioned_tasks.contains(&t) {
                    let lowest = (0..bids.agents())
                        .filter(|&i| i != victim)
                        .map(|i| bids.time(AgentId(i), task))
                        .min();
                    let ok =
                        got.is_some_and(|w| w.0 != victim && Some(bids.time(w, task)) == lowest);
                    if !ok {
                        return Err(format!(
                            "re-auctioned task {t} went to {got:?}, lowest survivor bid {lowest:?}"
                        ));
                    }
                } else if got != expected.schedule.agent_of(task) {
                    return Err(format!(
                        "untouched task {t} went to {got:?}, MinWork {:?}",
                        expected.schedule.agent_of(task)
                    ));
                }
            }
            Ok(())
        }
        (result, victim) => Err(format!(
            "unexpected result with crashed agent {victim:?}: {}",
            describe(result)
        )),
    }
}

fn describe(result: &RunResult) -> String {
    match result {
        RunResult::Completed(_) => "completed".to_string(),
        RunResult::Degraded { excluded, .. } => format!("degraded, excluded {excluded:?}"),
        RunResult::Aborted { reason, .. } => format!("aborted: {reason:?}"),
    }
}
