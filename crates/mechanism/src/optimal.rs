//! Exact and greedy baselines for makespan minimization.
//!
//! MinWork minimizes *total work*, not makespan; the paper (citing Nisan &
//! Ronen) notes it is an `n`-approximation for the makespan objective. The
//! approximation-ratio experiment needs the true optimum, which for
//! unrelated machines is NP-hard — [`optimal_makespan`] enumerates the
//! `n^m` assignments with branch-and-bound pruning and is intended for the
//! small instances the experiment sweeps. [`greedy_makespan`] is the
//! polynomial list-scheduling baseline used for larger instances.

use crate::error::MechanismError;
use crate::problem::{AgentId, ExecutionTimes, Schedule, TaskId};

/// Result of an exact or heuristic makespan minimization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MakespanSolution {
    /// The minimizing (or heuristic) schedule.
    pub schedule: Schedule,
    /// Its makespan under the given times.
    pub makespan: u64,
}

/// Hard cap on the `n^m` search-space size accepted by the exact solver.
pub const EXACT_SEARCH_LIMIT: u128 = 200_000_000;

/// Computes a schedule with minimum makespan by exhaustive search with
/// branch-and-bound pruning.
///
/// # Errors
///
/// Returns [`MechanismError::InstanceTooLarge`] when `n^m` exceeds
/// [`EXACT_SEARCH_LIMIT`].
///
/// # Example
/// ```
/// use dmw_mechanism::{ExecutionTimes, optimal::optimal_makespan};
///
/// let t = ExecutionTimes::from_rows(vec![vec![1, 1], vec![10, 10]])?;
/// // Spreading beats stacking: one task per agent is NOT optimal here
/// // because agent 2 is slow; both go to agent 1 for makespan 2.
/// assert_eq!(optimal_makespan(&t)?.makespan, 2);
/// # Ok::<(), dmw_mechanism::MechanismError>(())
/// ```
pub fn optimal_makespan(times: &ExecutionTimes) -> Result<MakespanSolution, MechanismError> {
    let n = times.agents();
    let m = times.tasks();
    let states = (n as u128).checked_pow(m as u32).unwrap_or(u128::MAX);
    if states > EXACT_SEARCH_LIMIT {
        return Err(MechanismError::InstanceTooLarge {
            states,
            limit: EXACT_SEARCH_LIMIT,
        });
    }
    // Upper bound from the greedy heuristic primes the pruning.
    let greedy = greedy_makespan(times)?;
    let mut best = greedy.makespan;
    let mut best_assignment: Vec<AgentId> = greedy.schedule.assignment().to_vec();
    let mut loads = vec![0u64; n];
    let mut current = vec![AgentId(0); m];

    fn search(
        times: &ExecutionTimes,
        task: usize,
        loads: &mut Vec<u64>,
        current: &mut Vec<AgentId>,
        best: &mut u64,
        best_assignment: &mut Vec<AgentId>,
    ) {
        let m = times.tasks();
        if task == m {
            let makespan = *loads.iter().max().expect("n >= 2");
            if makespan < *best {
                *best = makespan;
                best_assignment.clone_from(current);
            }
            return;
        }
        for i in 0..times.agents() {
            let t = times.time(AgentId(i), TaskId(task));
            let new_load = loads[i] + t;
            // Prune: partial makespan already >= incumbent.
            if new_load >= *best {
                continue;
            }
            loads[i] = new_load;
            current[task] = AgentId(i);
            search(times, task + 1, loads, current, best, best_assignment);
            loads[i] = new_load - t;
        }
    }

    search(
        times,
        0,
        &mut loads,
        &mut current,
        &mut best,
        &mut best_assignment,
    );
    let schedule = Schedule::from_assignment(n, best_assignment)?;
    let makespan = schedule.makespan(times)?;
    Ok(MakespanSolution { schedule, makespan })
}

/// List-scheduling heuristic: tasks in decreasing order of their minimum
/// execution time; each is placed where it yields the smallest resulting
/// completion time.
///
/// # Errors
///
/// Propagates shape errors from schedule construction (unreachable for
/// valid matrices).
pub fn greedy_makespan(times: &ExecutionTimes) -> Result<MakespanSolution, MechanismError> {
    let n = times.agents();
    let m = times.tasks();
    let mut order: Vec<usize> = (0..m).collect();
    let min_time = |j: usize| {
        (0..n)
            .map(|i| times.time(AgentId(i), TaskId(j)))
            .min()
            .expect("n >= 2")
    };
    order.sort_by_key(|&j| std::cmp::Reverse(min_time(j)));
    let mut loads = vec![0u64; n];
    let mut assignment = vec![AgentId(0); m];
    for &j in &order {
        let best = (0..n)
            .min_by_key(|&i| loads[i] + times.time(AgentId(i), TaskId(j)))
            .expect("n >= 2");
        loads[best] += times.time(AgentId(best), TaskId(j));
        assignment[j] = AgentId(best);
    }
    let schedule = Schedule::from_assignment(n, assignment)?;
    let makespan = schedule.makespan(times)?;
    Ok(MakespanSolution { schedule, makespan })
}

/// Computes the schedule minimizing *total work* (each task to its fastest
/// machine) — the quantity MinWork optimizes. Exposed as a baseline so
/// experiments can report both objectives side by side.
///
/// # Errors
///
/// Propagates shape errors from schedule construction (unreachable for
/// valid matrices).
pub fn min_total_work(times: &ExecutionTimes) -> Result<MakespanSolution, MechanismError> {
    let n = times.agents();
    let m = times.tasks();
    let mut assignment = Vec::with_capacity(m);
    for j in 0..m {
        let winner = (0..n)
            .min_by_key(|&i| times.time(AgentId(i), TaskId(j)))
            .expect("n >= 2");
        assignment.push(AgentId(winner));
    }
    let schedule = Schedule::from_assignment(n, assignment)?;
    let makespan = schedule.makespan(times)?;
    Ok(MakespanSolution { schedule, makespan })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minwork::MinWork;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn optimal_beats_or_matches_greedy_and_minwork() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let t = crate::generators::uniform(3, 4, 1..=15, &mut rng).unwrap();
            let opt = optimal_makespan(&t).unwrap();
            let greedy = greedy_makespan(&t).unwrap();
            let mw = MinWork::default().run(&t).unwrap();
            assert!(opt.makespan <= greedy.makespan);
            assert!(opt.makespan <= mw.schedule.makespan(&t).unwrap());
        }
    }

    #[test]
    fn optimal_on_known_instance() {
        // Two identical fast tasks on agent 0, slow on agent 1: optimal
        // splits? agent 0 takes both (2) vs split (max(1,10)=10).
        let t = ExecutionTimes::from_rows(vec![vec![1, 1], vec![10, 10]]).unwrap();
        assert_eq!(optimal_makespan(&t).unwrap().makespan, 2);
        // Symmetric unit tasks spread across agents.
        let t = ExecutionTimes::from_rows(vec![vec![1, 1], vec![1, 1]]).unwrap();
        assert_eq!(optimal_makespan(&t).unwrap().makespan, 1);
    }

    #[test]
    fn too_large_instances_rejected() {
        let t = crate::generators::uniform(8, 40, 1..=5, &mut rand::rngs::StdRng::seed_from_u64(0))
            .unwrap();
        assert!(matches!(
            optimal_makespan(&t),
            Err(MechanismError::InstanceTooLarge { .. })
        ));
    }

    #[test]
    fn min_total_work_matches_minwork_allocation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let t = crate::generators::uniform(4, 5, 1..=30, &mut rng).unwrap();
            let baseline = min_total_work(&t).unwrap();
            let mw = MinWork::default().run(&t).unwrap();
            assert_eq!(
                baseline.schedule.total_work(&t).unwrap(),
                mw.schedule.total_work(&t).unwrap()
            );
        }
    }

    proptest! {
        #[test]
        fn optimal_is_a_lower_bound(seed in 0u64..300) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let t = crate::generators::uniform(3, 3, 1..=20, &mut rng).unwrap();
            let opt = optimal_makespan(&t).unwrap();
            // No schedule among a random sample beats the optimum.
            for _ in 0..20 {
                let assignment: Vec<AgentId> =
                    (0..3).map(|_| AgentId(rng.gen_range(0..3))).collect();
                let s = Schedule::from_assignment(3, assignment).unwrap();
                prop_assert!(s.makespan(&t).unwrap() >= opt.makespan);
            }
        }
    }
}
