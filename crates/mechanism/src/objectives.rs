//! The sum-of-completion-times objective (`Σ_j C_j`).
//!
//! Definition 2 lists the mechanism designer's candidate objectives:
//! "e.g., minimizing the makespan, minimizing the sum of completion
//! times". Makespan lives on [`crate::problem::Schedule`]; this module
//! adds `Σ C_j`:
//!
//! * [`sum_completion_times`] — the value of a given assignment, with each
//!   machine sequencing its tasks in SPT order (shortest processing time
//!   first), which is optimal per machine;
//! * [`optimal_sum_completion_times`] — the *global* optimum. Unlike the
//!   makespan (NP-hard), `R || ΣC_j` is polynomial (Horn; see the paper's
//!   scheduling reference \[34\]): assigning a task to the `r`-th-from-last
//!   position on machine `i` contributes `r · t_ij`, so the problem is a
//!   min-cost bipartite matching between tasks and `(machine, position)`
//!   slots, solved here by the Hungarian algorithm.

use crate::error::MechanismError;
use crate::problem::{AgentId, ExecutionTimes, Schedule, TaskId};

/// The sum of task completion times of `schedule` under `truth`, with
/// every machine running its assigned tasks in SPT order (the per-machine
/// optimal sequence).
///
/// # Errors
///
/// Returns [`MechanismError::ShapeMismatch`] when matrix and schedule
/// disagree.
pub fn sum_completion_times(
    schedule: &Schedule,
    truth: &ExecutionTimes,
) -> Result<u64, MechanismError> {
    if truth.agents() != schedule.agents() || truth.tasks() != schedule.tasks() {
        return Err(MechanismError::ShapeMismatch {
            left: (schedule.agents(), schedule.tasks()),
            right: (truth.agents(), truth.tasks()),
        });
    }
    let mut total = 0u64;
    for i in 0..schedule.agents() {
        let agent = AgentId(i);
        let mut times: Vec<u64> = schedule
            .tasks_of(agent)
            .into_iter()
            .map(|t| truth.time(agent, t))
            .collect();
        times.sort_unstable();
        // SPT: the k-th task (0-based) in the sequence is counted in the
        // completion time of everything after it — equivalently task k
        // contributes (len - k) times its own duration.
        let len = times.len() as u64;
        for (k, &t) in times.iter().enumerate() {
            total += (len - k as u64) * t;
        }
    }
    Ok(total)
}

/// The globally optimal `Σ C_j` schedule via min-cost matching of tasks
/// to `(machine, position-from-last)` slots.
///
/// # Errors
///
/// Propagates shape errors (unreachable for valid matrices).
pub fn optimal_sum_completion_times(
    truth: &ExecutionTimes,
) -> Result<(Schedule, u64), MechanismError> {
    let n = truth.agents();
    let m = truth.tasks();
    // Slot s = (machine i, rank r in 1..=m): cost of task j in s is r·t_ij.
    // Only m ranks per machine are ever needed.
    let slots: Vec<(usize, u64)> = (0..n)
        .flat_map(|i| (1..=m as u64).map(move |r| (i, r)))
        .collect();
    let cost = |task: usize, slot: usize| -> i64 {
        let (i, r) = slots[slot];
        (r * truth.time(AgentId(i), TaskId(task))) as i64
    };
    let assignment = hungarian(m, slots.len(), &cost);
    let mut per_task = vec![AgentId(0); m];
    for (task, &slot) in assignment.iter().enumerate() {
        per_task[task] = AgentId(slots[slot].0);
    }
    let schedule = Schedule::from_assignment(n, per_task)?;
    let value = sum_completion_times(&schedule, truth)?;
    Ok((schedule, value))
}

/// Rectangular Hungarian algorithm (augmenting rows, potentials): assigns
/// each of `rows` rows to a distinct one of `cols ≥ rows` columns
/// minimizing the total cost. Returns the chosen column per row.
///
/// # Panics
///
/// Panics if `cols < rows`.
fn hungarian(rows: usize, cols: usize, cost: &dyn Fn(usize, usize) -> i64) -> Vec<usize> {
    assert!(cols >= rows, "need at least as many columns as rows");
    const INF: i64 = i64::MAX / 4;
    // 1-based arrays per the classical formulation.
    let mut u = vec![0i64; rows + 1];
    let mut v = vec![0i64; cols + 1];
    let mut way = vec![0usize; cols + 1];
    // p[j] = row assigned to column j (0 = none).
    let mut p = vec![0usize; cols + 1];
    for i in 1..=rows {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![INF; cols + 1];
        let mut used = vec![false; cols + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = INF;
            let mut j1 = 0usize;
            for j in 1..=cols {
                if used[j] {
                    continue;
                }
                let cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=cols {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Augment along the alternating path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    let mut result = vec![usize::MAX; rows];
    for j in 1..=cols {
        if p[j] != 0 {
            result[p[j] - 1] = j - 1;
        }
    }
    debug_assert!(result.iter().all(|&c| c != usize::MAX));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn spt_sequencing_is_applied_per_machine() {
        // One machine (plus an idle one), tasks 3 and 1: SPT runs 1 first
        // (C = 1), then 3 (C = 4): total 5, not 7.
        let t = ExecutionTimes::from_rows(vec![vec![3, 1], vec![100, 100]]).unwrap();
        let s = Schedule::from_assignment(2, vec![AgentId(0), AgentId(0)]).unwrap();
        assert_eq!(sum_completion_times(&s, &t).unwrap(), 5);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let t = ExecutionTimes::from_rows(vec![vec![1], vec![2]]).unwrap();
        let s = Schedule::from_assignment(3, vec![AgentId(0)]).unwrap();
        assert!(sum_completion_times(&s, &t).is_err());
    }

    /// Brute-force reference: all n^m assignments, SPT per machine.
    fn brute_force(t: &ExecutionTimes) -> u64 {
        let n = t.agents();
        let m = t.tasks();
        let mut best = u64::MAX;
        let mut assignment = vec![AgentId(0); m];
        loop {
            let s = Schedule::from_assignment(n, assignment.clone()).unwrap();
            best = best.min(sum_completion_times(&s, t).unwrap());
            let mut pos = 0;
            loop {
                if pos == m {
                    return best;
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

    #[test]
    fn matching_solver_matches_brute_force() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..25 {
            let t = crate::generators::uniform(3, 4, 1..=15, &mut rng).unwrap();
            let (_, got) = optimal_sum_completion_times(&t).unwrap();
            assert_eq!(got, brute_force(&t));
        }
    }

    #[test]
    fn hungarian_solves_a_known_square_instance() {
        // 3x3 with optimum 4: rows to columns (1, 0, 2) = 1 + 2 + 1.
        let costs = [[4i64, 1, 3], [2, 0, 5], [3, 2, 1]];
        let assignment = hungarian(3, 3, &|r, c| costs[r][c]);
        let total: i64 = assignment
            .iter()
            .enumerate()
            .map(|(r, &c)| costs[r][c])
            .sum();
        assert_eq!(total, 4);
        // All columns distinct.
        let set: std::collections::BTreeSet<_> = assignment.iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn hungarian_rejects_narrow_matrices() {
        let _ = hungarian(3, 2, &|_, _| 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn optimum_lower_bounds_random_schedules(seed in 0u64..5000) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let t = crate::generators::uniform(3, 5, 1..=20, &mut rng).unwrap();
            let (schedule, opt) = optimal_sum_completion_times(&t).unwrap();
            prop_assert_eq!(sum_completion_times(&schedule, &t).unwrap(), opt);
            for _ in 0..10 {
                let random: Vec<AgentId> =
                    (0..5).map(|_| AgentId(rand::Rng::gen_range(&mut rng, 0..3))).collect();
                let s = Schedule::from_assignment(3, random).unwrap();
                prop_assert!(sum_completion_times(&s, &t).unwrap() >= opt);
            }
        }
    }
}
