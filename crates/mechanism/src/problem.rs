//! Problem instances, bid matrices, schedules and objectives for scheduling
//! on unrelated machines (Section 2.1 of the paper).

use crate::error::MechanismError;
use std::fmt;

/// Identifier of an agent (machine) `A_i`, `0`-based.
///
/// The paper indexes agents `A_1 … A_n`; this implementation is `0`-based
/// throughout and renders as `A1 …` only in display output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AgentId(pub usize);

impl From<usize> for AgentId {
    fn from(i: usize) -> Self {
        AgentId(i)
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0 + 1)
    }
}

/// Identifier of a task `T^j`, `0`-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

impl From<usize> for TaskId {
    fn from(j: usize) -> Self {
        TaskId(j)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0 + 1)
    }
}

/// An `n × m` matrix of execution times: entry `(i, j)` is the time agent
/// `A_i` needs to run task `T^j`, in integer time units.
///
/// The same type represents both *true values* `t` and *bid matrices* `y` —
/// a bid is just a (possibly untruthful) claimed execution-time matrix.
/// Times are integers because DMW fundamentally requires discrete bids
/// (Section 3); [`crate::quantize`] maps continuous workloads onto this
/// representation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ExecutionTimes {
    agents: usize,
    tasks: usize,
    /// Row-major: `times[i * tasks + j]`.
    times: Vec<u64>,
}

impl ExecutionTimes {
    /// Builds a matrix from per-agent rows (`rows[i][j]` = time of agent `i`
    /// on task `j`).
    ///
    /// # Errors
    ///
    /// * [`MechanismError::TooFewAgents`] for fewer than 2 rows;
    /// * [`MechanismError::NoTasks`] for empty rows;
    /// * [`MechanismError::RaggedMatrix`] if row lengths differ.
    pub fn from_rows(rows: Vec<Vec<u64>>) -> Result<Self, MechanismError> {
        if rows.len() < 2 {
            return Err(MechanismError::TooFewAgents { agents: rows.len() });
        }
        let tasks = rows[0].len();
        if tasks == 0 {
            return Err(MechanismError::NoTasks);
        }
        for (i, row) in rows.iter().enumerate() {
            if row.len() != tasks {
                return Err(MechanismError::RaggedMatrix {
                    row: i,
                    len: row.len(),
                    expected: tasks,
                });
            }
        }
        let agents = rows.len();
        let times = rows.into_iter().flatten().collect();
        Ok(ExecutionTimes {
            agents,
            tasks,
            times,
        })
    }

    /// Number of agents `n`.
    pub fn agents(&self) -> usize {
        self.agents
    }

    /// Number of tasks `m`.
    pub fn tasks(&self) -> usize {
        self.tasks
    }

    /// The execution time `t_i^j`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn time(&self, agent: AgentId, task: TaskId) -> u64 {
        assert!(agent.0 < self.agents, "agent {agent} out of range");
        assert!(task.0 < self.tasks, "task {task} out of range");
        self.times[agent.0 * self.tasks + task.0]
    }

    /// Replaces a single entry, returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn set_time(&mut self, agent: AgentId, task: TaskId, value: u64) -> u64 {
        assert!(agent.0 < self.agents && task.0 < self.tasks);
        std::mem::replace(&mut self.times[agent.0 * self.tasks + task.0], value)
    }

    /// The bid column for one task, indexed by agent.
    pub fn task_column(&self, task: TaskId) -> Vec<u64> {
        assert!(task.0 < self.tasks, "task {task} out of range");
        (0..self.agents)
            .map(|i| self.times[i * self.tasks + task.0])
            .collect()
    }

    /// The row of agent `agent` (its times for every task).
    pub fn agent_row(&self, agent: AgentId) -> &[u64] {
        assert!(agent.0 < self.agents, "agent {agent} out of range");
        &self.times[agent.0 * self.tasks..(agent.0 + 1) * self.tasks]
    }

    /// Returns a copy with agent `agent`'s row replaced — the unilateral
    /// deviation `{y_{−i}, y'_i}` used throughout the truthfulness
    /// definitions.
    ///
    /// # Errors
    ///
    /// * [`MechanismError::UnknownAgent`] for a bad index;
    /// * [`MechanismError::RaggedMatrix`] if the row length is not `m`.
    pub fn with_agent_row(&self, agent: AgentId, row: Vec<u64>) -> Result<Self, MechanismError> {
        if agent.0 >= self.agents {
            return Err(MechanismError::UnknownAgent {
                agent: agent.0,
                agents: self.agents,
            });
        }
        if row.len() != self.tasks {
            return Err(MechanismError::RaggedMatrix {
                row: agent.0,
                len: row.len(),
                expected: self.tasks,
            });
        }
        let mut clone = self.clone();
        clone.times[agent.0 * self.tasks..(agent.0 + 1) * self.tasks].copy_from_slice(&row);
        Ok(clone)
    }

    /// Iterates over all `(agent, task, time)` entries in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (AgentId, TaskId, u64)> + '_ {
        self.times
            .iter()
            .enumerate()
            .map(move |(idx, &t)| (AgentId(idx / self.tasks), TaskId(idx % self.tasks), t))
    }

    /// The smallest entry of the matrix.
    pub fn min_time(&self) -> u64 {
        self.times.iter().copied().min().unwrap_or(0)
    }
}

/// A schedule: a partition of the task set among the agents (Section 2.1).
/// Every task is assigned to exactly one agent.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Schedule {
    agents: usize,
    /// `assignment[j]` = agent owning task `j`.
    assignment: Vec<AgentId>,
}

impl Schedule {
    /// Builds a schedule from a per-task assignment vector.
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::UnknownAgent`] if any assignment refers to
    /// an agent `≥ agents`, and [`MechanismError::NoTasks`] for an empty
    /// assignment.
    pub fn from_assignment(
        agents: usize,
        assignment: Vec<AgentId>,
    ) -> Result<Self, MechanismError> {
        if assignment.is_empty() {
            return Err(MechanismError::NoTasks);
        }
        if let Some(bad) = assignment.iter().find(|a| a.0 >= agents) {
            return Err(MechanismError::UnknownAgent {
                agent: bad.0,
                agents,
            });
        }
        Ok(Schedule { agents, assignment })
    }

    /// Number of agents the schedule partitions tasks over.
    pub fn agents(&self) -> usize {
        self.agents
    }

    /// Number of tasks.
    pub fn tasks(&self) -> usize {
        self.assignment.len()
    }

    /// The agent assigned to `task`, or `None` if the index is out of range.
    pub fn agent_of(&self, task: TaskId) -> Option<AgentId> {
        self.assignment.get(task.0).copied()
    }

    /// The set `S_i`: indices of the tasks assigned to `agent`.
    pub fn tasks_of(&self, agent: AgentId) -> Vec<TaskId> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, a)| *a == agent)
            .map(|(j, _)| TaskId(j))
            .collect()
    }

    /// The per-task assignment, indexed by task.
    pub fn assignment(&self) -> &[AgentId] {
        &self.assignment
    }

    /// The completion time of `agent` under true times `truth`:
    /// `Σ_{j ∈ S_i} t_i^j`.
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::ShapeMismatch`] if the matrix shape does
    /// not match the schedule.
    pub fn load(&self, agent: AgentId, truth: &ExecutionTimes) -> Result<u64, MechanismError> {
        self.check_shape(truth)?;
        Ok(self
            .assignment
            .iter()
            .enumerate()
            .filter(|&(_, a)| *a == agent)
            .map(|(j, _)| truth.time(agent, TaskId(j)))
            .sum())
    }

    /// The makespan `C_max = max_i Σ_{j ∈ S_i} t_i^j` — the objective the
    /// mechanism designer minimizes (Definition 2, item 5).
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::ShapeMismatch`] on shape mismatch.
    pub fn makespan(&self, truth: &ExecutionTimes) -> Result<u64, MechanismError> {
        self.check_shape(truth)?;
        let mut loads = vec![0u64; self.agents];
        for (j, a) in self.assignment.iter().enumerate() {
            loads[a.0] += truth.time(*a, TaskId(j));
        }
        Ok(loads.into_iter().max().unwrap_or(0))
    }

    /// The total work `Σ_i Σ_{j ∈ S_i} t_i^j` — the quantity MinWork
    /// actually minimizes (hence its name).
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::ShapeMismatch`] on shape mismatch.
    pub fn total_work(&self, truth: &ExecutionTimes) -> Result<u64, MechanismError> {
        self.check_shape(truth)?;
        Ok(self
            .assignment
            .iter()
            .enumerate()
            .map(|(j, a)| truth.time(*a, TaskId(j)))
            .sum())
    }

    fn check_shape(&self, truth: &ExecutionTimes) -> Result<(), MechanismError> {
        if truth.agents() != self.agents || truth.tasks() != self.assignment.len() {
            return Err(MechanismError::ShapeMismatch {
                left: (self.agents, self.assignment.len()),
                right: (truth.agents(), truth.tasks()),
            });
        }
        Ok(())
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.agents {
            let tasks: Vec<String> = self
                .tasks_of(AgentId(i))
                .into_iter()
                .map(|t| t.to_string())
                .collect();
            writeln!(f, "{}: {{{}}}", AgentId(i), tasks.join(", "))?;
        }
        Ok(())
    }
}

/// The result of running a mechanism: the schedule and the payment vector
/// `P_i(y)` (Definition 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The chosen schedule `S(y)`.
    pub schedule: Schedule,
    /// The payment handed to each agent, indexed by agent.
    pub payments: Vec<u64>,
}

impl Outcome {
    /// Agent `agent`'s utility `U_i = P_i + V_i = P_i − Σ_{j ∈ S_i} t_i^j`
    /// under true execution times `truth` (Definition 2, item 4).
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::ShapeMismatch`] on shape mismatch and
    /// [`MechanismError::UnknownAgent`] for a bad agent index.
    pub fn utility(&self, agent: AgentId, truth: &ExecutionTimes) -> Result<i128, MechanismError> {
        if agent.0 >= self.payments.len() {
            return Err(MechanismError::UnknownAgent {
                agent: agent.0,
                agents: self.payments.len(),
            });
        }
        let load = self.schedule.load(agent, truth)?;
        Ok(self.payments[agent.0] as i128 - load as i128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExecutionTimes {
        ExecutionTimes::from_rows(vec![vec![2, 9, 4], vec![5, 4, 4], vec![7, 6, 1]]).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(
            ExecutionTimes::from_rows(vec![vec![1, 2]]),
            Err(MechanismError::TooFewAgents { agents: 1 })
        ));
        assert!(matches!(
            ExecutionTimes::from_rows(vec![vec![], vec![]]),
            Err(MechanismError::NoTasks)
        ));
        assert!(matches!(
            ExecutionTimes::from_rows(vec![vec![1, 2], vec![1]]),
            Err(MechanismError::RaggedMatrix {
                row: 1,
                len: 1,
                expected: 2
            })
        ));
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.agents(), 3);
        assert_eq!(t.tasks(), 3);
        assert_eq!(t.time(AgentId(1), TaskId(2)), 4);
        assert_eq!(t.task_column(TaskId(0)), vec![2, 5, 7]);
        assert_eq!(t.agent_row(AgentId(2)), &[7, 6, 1]);
        assert_eq!(t.min_time(), 1);
        assert_eq!(t.iter().count(), 9);
    }

    #[test]
    fn with_agent_row_is_unilateral() {
        let t = sample();
        let deviated = t.with_agent_row(AgentId(1), vec![1, 1, 1]).unwrap();
        assert_eq!(deviated.agent_row(AgentId(1)), &[1, 1, 1]);
        assert_eq!(deviated.agent_row(AgentId(0)), t.agent_row(AgentId(0)));
        assert_eq!(deviated.agent_row(AgentId(2)), t.agent_row(AgentId(2)));
        assert!(t.with_agent_row(AgentId(9), vec![1, 1, 1]).is_err());
        assert!(t.with_agent_row(AgentId(1), vec![1]).is_err());
    }

    #[test]
    fn set_time_returns_previous() {
        let mut t = sample();
        assert_eq!(t.set_time(AgentId(0), TaskId(0), 100), 2);
        assert_eq!(t.time(AgentId(0), TaskId(0)), 100);
    }

    #[test]
    fn schedule_objectives() {
        let t = sample();
        // T1 -> A1, T2 -> A2, T3 -> A3.
        let s = Schedule::from_assignment(3, vec![AgentId(0), AgentId(1), AgentId(2)]).unwrap();
        assert_eq!(s.makespan(&t).unwrap(), 4);
        assert_eq!(s.total_work(&t).unwrap(), 2 + 4 + 1);
        assert_eq!(s.load(AgentId(0), &t).unwrap(), 2);
        // All tasks to A1.
        let s = Schedule::from_assignment(3, vec![AgentId(0); 3]).unwrap();
        assert_eq!(s.makespan(&t).unwrap(), 15);
        assert_eq!(s.total_work(&t).unwrap(), 15);
        assert_eq!(s.tasks_of(AgentId(0)).len(), 3);
        assert!(s.tasks_of(AgentId(1)).is_empty());
    }

    #[test]
    fn schedule_validates() {
        assert!(matches!(
            Schedule::from_assignment(2, vec![AgentId(2)]),
            Err(MechanismError::UnknownAgent {
                agent: 2,
                agents: 2
            })
        ));
        assert!(matches!(
            Schedule::from_assignment(2, vec![]),
            Err(MechanismError::NoTasks)
        ));
    }

    #[test]
    fn shape_mismatch_detected() {
        let t = sample();
        let s = Schedule::from_assignment(2, vec![AgentId(0), AgentId(1)]).unwrap();
        assert!(matches!(
            s.makespan(&t),
            Err(MechanismError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn utility_is_payment_minus_load() {
        let t = sample();
        let schedule =
            Schedule::from_assignment(3, vec![AgentId(0), AgentId(1), AgentId(2)]).unwrap();
        let outcome = Outcome {
            schedule,
            payments: vec![5, 6, 2],
        };
        assert_eq!(outcome.utility(AgentId(0), &t).unwrap(), 3); // 5 - 2
        assert_eq!(outcome.utility(AgentId(1), &t).unwrap(), 2); // 6 - 4
        assert_eq!(outcome.utility(AgentId(2), &t).unwrap(), 1); // 2 - 1
        assert!(outcome.utility(AgentId(5), &t).is_err());
    }

    #[test]
    fn display_formats() {
        assert_eq!(AgentId(0).to_string(), "A1");
        assert_eq!(TaskId(2).to_string(), "T3");
        let s = Schedule::from_assignment(2, vec![AgentId(0), AgentId(0)]).unwrap();
        let shown = s.to_string();
        assert!(shown.contains("A1: {T1, T2}"));
        assert!(shown.contains("A2: {}"));
    }
}
