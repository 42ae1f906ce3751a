//! The typed phase state machine driving [`crate::agent::DmwAgent`].
//!
//! The paper specifies DMW as message-triggered phases (II.2–IV), not as
//! numbered rounds; this module makes that explicit. Each phase is one
//! submodule exporting two functions over the agent state:
//!
//! * `ready(&DmwAgent) -> bool` — the *completeness predicate*: have all
//!   the messages this phase is waiting for arrived?
//! * `act(&mut DmwAgent, &mut out)` — the phase's protocol logic:
//!   verify, resolve, publish, and possibly abort.
//!
//! The agent's [`poll_at`](crate::agent::DmwAgent::poll_at) fires `act`
//! as soon as `ready` holds **or** the agent's patience budget expires,
//! then advances to [`Phase::next`]. Nothing in the protocol logic consults a round
//! number: the agent keeps its tick clock in a private field, out of
//! this module's reach (rule L6), which is what lets the same agent run
//! unchanged over the lockstep transport and over asynchronous delayed
//! transports. [`Phase::next`] is the only transition table; a unit test
//! walks it, and an integration test compares the walk with the phase
//! table of `docs/architecture.md` (rule L11).
//!
//! | phase | paper step | waits for | acts (sends) |
//! |-------|------------|-----------|--------------|
//! | [`Phase::Bidding`] | II | nothing | share bundles (unicast), commitments (broadcast) |
//! | [`Phase::Commitments`] | III.1–III.2 | all peers' shares + commitments | verify shares (eqs (7)–(9)); publish `Λ/Ψ` + participation mask |
//! | [`Phase::Resolution`] | III.2–III.3 | `Λ/Ψ` from every alive peer | check masks; verify `Λ/Ψ` (eq (11)); resolve first price (eq (12)); disclose `f`-shares |
//! | [`Phase::WinnerId`] | III.3–III.4 | the designated disclosures | verify disclosures (eq (13)); identify winner (eq (14)); publish excluded `Λ'/Ψ'` (eq (15)) |
//! | [`Phase::SecondPrice`] | III.4–IV | excluded pairs from every responsive peer | verify excluded pairs; resolve second price; submit payment claim |
//! | [`Phase::Claimed`] | — | — | terminal: nothing further |

#![expect(
    clippy::indexing_slicing,
    reason = "agent/task indices are validated at `DmwAgent` construction and every \
         per-agent vector is allocated with length `n` up front (see \
         `crate::agent`); per-site `.get()` plumbing would bury the protocol \
         equations."
)]

use crate::agent::{DmwAgent, TaskState};
use crate::error::AbortReason;
use crate::messages::Body;
use dmw_crypto::commitments::FoldedCommitments;
use dmw_simnet::Recipient;

pub mod bidding;
pub mod commitments;
pub mod resolution;
pub mod second_price;
pub mod winner_id;

/// Protocol progress of one agent: the typed replacement for raw round
/// dispatch. Transitions are linear — each phase hands over to the next
/// via [`Phase::next`] once it has acted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Phase II: sample polynomials, distribute shares, commit.
    Bidding,
    /// Phase III.1–III.2: collect the bidding traffic, verify shares,
    /// publish `Λ/Ψ`.
    Commitments,
    /// Phase III.2–III.3: verify published pairs, resolve the first
    /// price, kick off disclosure.
    Resolution,
    /// Phase III.3–III.4: verify disclosures, identify the winner,
    /// publish the excluded pair.
    WinnerId,
    /// Phase III.4–IV: verify excluded pairs, resolve the second price,
    /// submit the payment claim.
    SecondPrice,
    /// Terminal: the payment claim is out (or the agent never got there).
    Claimed,
}

impl Phase {
    /// Human-readable label, recorded on trace events.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Bidding => "bidding",
            Phase::Commitments => "commitments",
            Phase::Resolution => "resolution",
            Phase::WinnerId => "winner-id",
            Phase::SecondPrice => "second-price",
            Phase::Claimed => "claimed",
        }
    }

    /// The successor phase ([`Phase::Claimed`] is absorbing).
    pub fn next(self) -> Phase {
        match self {
            Phase::Bidding => Phase::Commitments,
            Phase::Commitments => Phase::Resolution,
            Phase::Resolution => Phase::WinnerId,
            Phase::WinnerId => Phase::SecondPrice,
            Phase::SecondPrice => Phase::Claimed,
            Phase::Claimed => Phase::Claimed,
        }
    }
}

/// Is the agent's current phase ready to act — i.e. has every message it
/// is waiting for arrived? A `false` answer defers the act until either
/// completeness or the patience budget, whichever comes first.
pub(crate) fn ready(agent: &DmwAgent) -> bool {
    match agent.phase {
        Phase::Bidding => bidding::ready(agent),
        Phase::Commitments => commitments::ready(agent),
        Phase::Resolution => resolution::ready(agent),
        Phase::WinnerId => winner_id::ready(agent),
        Phase::SecondPrice => second_price::ready(agent),
        Phase::Claimed => false,
    }
}

/// Runs the current phase's protocol logic, pushing any outgoing
/// messages (including a broadcast `Abort` on detection) into `out`.
pub(crate) fn act(agent: &mut DmwAgent, out: &mut Vec<(Recipient, Body)>) {
    match agent.phase {
        Phase::Bidding => bidding::act(agent, out),
        Phase::Commitments => commitments::act(agent, out),
        Phase::Resolution => resolution::act(agent, out),
        Phase::WinnerId => winner_id::act(agent, out),
        Phase::SecondPrice => second_price::act(agent, out),
        Phase::Claimed => {}
    }
}

/// Is the agent's fault count still within the tolerated `c`? If not,
/// aborts with [`AbortReason::TooManyFaults`] and answers `false`.
fn within_fault_bound(agent: &mut DmwAgent, out: &mut Vec<(Recipient, Body)>) -> bool {
    let observed = agent.fault_count();
    let tolerated = agent.config.encoding().faults();
    if observed > tolerated {
        agent.abort(
            AbortReason::TooManyFaults {
                observed,
                tolerated,
            },
            out,
        );
    }
    observed <= tolerated
}

/// The right-hand sides of the designated agents' eq. (11) or (13)
/// checks, indexed `[designated][task]`, evaluated on `folds`, one per
/// task. Agent `l` has a check in a task where `checks(state, l)`, and
/// entry `[l][task]` is present exactly there. `l`'s plan from the
/// configuration (`DmwConfig::powers_plan`) evaluates all its checks in
/// one pass, one column per task fold.
fn designated_products(
    agent: &DmwAgent,
    designated: &[usize],
    checks: impl Fn(&TaskState, usize) -> bool,
    folds: &[&FoldedCommitments],
) -> Vec<Vec<Option<u64>>> {
    designated
        .iter()
        .map(|&l| {
            let (tasks, checked): (Vec<usize>, Vec<&FoldedCommitments>) = agent
                .tasks
                .iter()
                .zip(folds)
                .enumerate()
                .filter(|(_, (state, _))| checks(state, l))
                .map(|(task, (_, &fold))| (task, fold))
                .unzip();
            let plan = agent.config.powers_plan(l);
            let values = FoldedCommitments::eval(agent.config.group(), plan, &checked);
            let mut row = vec![None; agent.m()];
            for (task, value) in tasks.into_iter().zip(values) {
                row[task] = Some(value);
            }
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_advance_linearly_to_the_absorbing_terminal() {
        // Numbering the variants in an exhaustive match keeps the count
        // honest: a new variant does not compile until it is numbered.
        let number = |phase: Phase| match phase {
            Phase::Bidding => 0,
            Phase::Commitments => 1,
            Phase::Resolution => 2,
            Phase::WinnerId => 3,
            Phase::SecondPrice => 4,
            Phase::Claimed => 5,
        };
        // Follow `next` until it stands still; a cycle stops at 7 steps.
        let walk: Vec<Phase> = std::iter::successors(Some(Phase::Bidding), |&at| {
            Some(at.next()).filter(|&next| next != at)
        })
        .take(7)
        .collect();
        let mut visited: Vec<usize> = walk.iter().map(|&phase| number(phase)).collect();
        visited.sort_unstable();
        assert_eq!(
            visited,
            (0..6).collect::<Vec<_>>(),
            "each phase once: {walk:?}"
        );
        assert_eq!(walk.last(), Some(&Phase::Claimed));
        assert_eq!(Phase::Claimed.next(), Phase::Claimed, "absorbing");
    }

    #[test]
    fn labels_are_unique_and_stable() {
        let labels: Vec<&str> = [
            Phase::Bidding,
            Phase::Commitments,
            Phase::Resolution,
            Phase::WinnerId,
            Phase::SecondPrice,
            Phase::Claimed,
        ]
        .iter()
        .map(|p| p.label())
        .collect();
        assert_eq!(
            labels,
            vec![
                "bidding",
                "commitments",
                "resolution",
                "winner-id",
                "second-price",
                "claimed"
            ]
        );
    }
}
