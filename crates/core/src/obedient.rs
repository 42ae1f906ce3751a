//! The obedient-nodes strawman — Feigenbaum–Shenker's Open Problem 10.
//!
//! "Regarding Open Problem 10, the centralized MinWork can be simply
//! distributed among obedient nodes" (§1.2). This module implements that
//! trivial distribution as a comparison point for DMW: a designated
//! *leader* collects plaintext bid rows over the network, computes the
//! MinWork outcome locally and broadcasts it. It costs only `Θ(mn)`
//! messages — but it
//!
//! * exposes every agent's full bid row to the leader (no privacy),
//! * trusts the leader unconditionally: a cheating leader can bias the
//!   schedule or the payments and **no agent can detect it** (contrast
//!   with DMW, where every tampered value trips a verification equation).
//!
//! The communication experiment reports this protocol as the middle row
//! between centralized MinWork and DMW; [`CheatingLeader`] demonstrates
//! the trust failure that motivates DMW's cryptography.

use crate::error::DmwError;
use dmw_mechanism::{AgentId, ExecutionTimes, MinWork, Outcome, TieBreak};
use dmw_simnet::{DelayTransport, NetworkStats, NodeId, Payload};
use serde::{Deserialize, Serialize};

/// Messages of the obedient protocol.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObedientBody {
    /// An agent's plaintext bid row (one entry per task) — the leader
    /// learns everything.
    BidRow(Vec<u64>),
    /// The leader's published outcome: per-task winners and per-agent
    /// payments.
    Outcome {
        /// `assignment[j]` = winner of task `j`.
        assignment: Vec<usize>,
        /// `payments[i]` = payment to agent `i`.
        payments: Vec<u64>,
    },
}

impl Payload for ObedientBody {
    fn size_bytes(&self) -> usize {
        match self {
            ObedientBody::BidRow(row) => 1 + 4 + row.len() * 8,
            ObedientBody::Outcome {
                assignment,
                payments,
            } => 1 + 4 + assignment.len() * 4 + 4 + payments.len() * 8,
        }
    }
}

/// How the leader behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum LeaderBehavior {
    /// Computes MinWork honestly.
    #[default]
    Honest,
    /// Assigns every task to itself and pays itself the maximum bid —
    /// undetectable by the other agents, who see only the published
    /// outcome.
    SelfDealing,
}

/// A cheating-leader marker used by experiments; see
/// [`LeaderBehavior::SelfDealing`].
pub type CheatingLeader = LeaderBehavior;

/// Result of an obedient-protocol run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObedientRun {
    /// The outcome as published by the leader (agents cannot verify it).
    pub outcome: Outcome,
    /// Network traffic.
    pub network: NetworkStats,
    /// `true` iff the published outcome equals the honest MinWork outcome
    /// (computable only with global knowledge — the agents themselves
    /// have no way to tell).
    pub honest_outcome: bool,
}

/// Runs the obedient leader-based distribution of MinWork. Agent 0 is the
/// leader.
///
/// # Errors
///
/// Propagates mechanism errors for malformed bid matrices.
pub fn run_obedient(
    bids: &ExecutionTimes,
    leader_behavior: LeaderBehavior,
) -> Result<ObedientRun, DmwError> {
    let n = bids.agents();
    let m = bids.tasks();
    let mut network: DelayTransport<ObedientBody> = DelayTransport::new(n);
    let leader = NodeId(0);

    // Round 0: every non-leader sends its plaintext bid row to the leader.
    for i in 1..n {
        network.send(
            NodeId(i),
            leader,
            ObedientBody::BidRow(bids.agent_row(AgentId(i)).to_vec()),
        );
    }
    network.step();

    // The leader assembles the bid matrix (its own row plus the received
    // ones) and computes the outcome.
    let mut rows: Vec<Vec<u64>> = vec![Vec::new(); n];
    rows[0] = bids.agent_row(AgentId(0)).to_vec();
    for msg in network.take_inbox(leader) {
        if let ObedientBody::BidRow(row) = msg.payload {
            rows[msg.from.0] = row;
        }
    }
    let matrix = ExecutionTimes::from_rows(rows)?;
    let honest = MinWork::new(TieBreak::LowestIndex).run(&matrix)?;
    let published = match leader_behavior {
        LeaderBehavior::Honest => honest.clone(),
        LeaderBehavior::SelfDealing => {
            // The leader takes everything and pays itself top dollar.
            let assignment = vec![AgentId(0); m];
            let mut payments = vec![0u64; n];
            payments[0] = (0..m)
                .map(|j| {
                    matrix
                        .task_column(dmw_mechanism::TaskId(j))
                        .into_iter()
                        .max()
                        .unwrap_or(0)
                })
                .sum();
            Outcome {
                schedule: dmw_mechanism::Schedule::from_assignment(n, assignment)?,
                payments,
            }
        }
    };

    // Round 1: the leader broadcasts the outcome.
    network.broadcast(
        leader,
        ObedientBody::Outcome {
            assignment: published
                .schedule
                .assignment()
                .iter()
                .map(|a| a.0)
                .collect(),
            payments: published.payments.clone(),
        },
    );
    network.step();

    let honest_outcome = published == honest;
    Ok(ObedientRun {
        outcome: published,
        network: *network.stats(),
        honest_outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn bids() -> ExecutionTimes {
        let mut rng = rand::rngs::StdRng::seed_from_u64(66);
        dmw_mechanism::generators::uniform(5, 3, 1..=9, &mut rng).unwrap()
    }

    #[test]
    fn honest_leader_reproduces_minwork() {
        let bids = bids();
        let run = run_obedient(&bids, LeaderBehavior::Honest).unwrap();
        let reference = MinWork::new(TieBreak::LowestIndex).run(&bids).unwrap();
        assert_eq!(run.outcome, reference);
        assert!(run.honest_outcome);
    }

    #[test]
    fn traffic_is_linear_in_n() {
        let bids = bids();
        let run = run_obedient(&bids, LeaderBehavior::Honest).unwrap();
        // n - 1 bid rows in, n - 1 outcome broadcasts out.
        assert_eq!(run.network.point_to_point, (5 - 1) + (5 - 1));
        assert_eq!(run.network.broadcasts, 1);
    }

    #[test]
    fn cheating_leader_is_undetectable_but_visible_globally() {
        let bids = bids();
        let run = run_obedient(&bids, LeaderBehavior::SelfDealing).unwrap();
        assert!(!run.honest_outcome, "the global observer sees the theft");
        // Every task went to the leader.
        for j in 0..3 {
            assert_eq!(run.outcome.schedule.agent_of(j.into()), Some(AgentId(0)));
        }
        // The other agents received a syntactically valid outcome — they
        // have no verification equation to reject it with, which is the
        // point of the comparison.
        assert!(run.outcome.payments[0] > 0);
    }
}
