//! Phase III.4 + IV — verify excluded pairs, resolve the second price,
//! submit the payment claim.

use super::{designated_products, within_fault_bound};
use crate::agent::{AgentStatus, DmwAgent, Invariant};
use crate::error::AbortReason;
use crate::messages::Body;
use crate::strategy::Behavior;
use dmw_crypto::commitments::FoldedCommitments;
use dmw_crypto::resolution::{resolve_min_bid, verify_lambda_psi};
use dmw_simnet::Recipient;

/// Complete once an excluded pair has arrived from every responsive
/// peer for every task.
pub(crate) fn ready(agent: &DmwAgent) -> bool {
    agent
        .live_indices()
        .into_iter()
        .all(|l| l == agent.me || (0..agent.m()).all(|t| agent.tasks[t].excluded[l].is_some()))
}

/// Verifies the excluded pairs (post-exclusion eq (11)), resolves the
/// second price, computes the payment vector and submits the claim —
/// the agent's terminal act.
pub(crate) fn act(agent: &mut DmwAgent, out: &mut Vec<(Recipient, Body)>) {
    if matches!(
        agent.behavior,
        Behavior::Silent | Behavior::SilentAfterBidding
    ) {
        return;
    }
    // Silent publishers become faulty.
    for l in agent.live_indices() {
        if (0..agent.m()).any(|t| agent.tasks[t].excluded[l].is_none()) {
            agent.faulty[l] = true;
        }
    }
    if !within_fault_bound(agent, out) {
        return;
    }
    let group = agent.config.group();
    let encoding = *agent.config.encoding();
    let responsive = agent.live_indices();
    let designated = agent.designated_publishers(&responsive);
    // The responsive points of every task's second price (eq (12)).
    let points = agent
        .config
        .zero_coefficients(&responsive)
        .invariant("validated pseudonyms");
    // Rotation verification of the post-exclusion eq (11): each task
    // folds the Q vectors of every alive agent but its winner.
    let folds: Vec<FoldedCommitments> = agent
        .tasks
        .iter()
        .map(|state| {
            let winner = state.winner.invariant("identified by the winner-id phase");
            let included = (0..agent.n())
                .filter(|&l| agent.alive[l] && l != winner)
                .map(|l| state.commitments[l].as_ref().invariant("alive"));
            FoldedCommitments::q(group, included)
        })
        .collect();
    let folds: Vec<&FoldedCommitments> = folds.iter().collect();
    let gammas = designated_products(agent, &designated, |_, _| true, &folds);
    for task in 0..agent.m() {
        let state = &agent.tasks[task];
        for (&l, gamma) in designated.iter().zip(&gammas) {
            let pair = state.excluded[l].invariant("live implies published");
            let gamma = gamma[task].invariant("checked in every task");
            if verify_lambda_psi(group, gamma, l, &pair).is_err() {
                agent.abort(AbortReason::InvalidExcluded { publisher: l }, out);
                return;
            }
        }
        // Resolve the second price from the responsive excluded points.
        let lambdas: Vec<u64> = responsive
            .iter()
            .map(|&l| state.excluded[l].invariant("responsive").lambda)
            .collect();
        match resolve_min_bid(group, &encoding, &points, &lambdas) {
            Ok(price) => agent.tasks[task].second_price = Some(price.bid),
            Err(_) => {
                agent.abort(AbortReason::Unresolvable, out);
                return;
            }
        }
    }
    // Phase IV: compute the payment vector and submit it.
    let mut payments = vec![0u64; agent.n()];
    for task in 0..agent.m() {
        let winner = agent.tasks[task].winner.invariant("identified");
        #[expect(clippy::arithmetic_side_effects, reason = "payments in bid units")]
        {
            payments[winner] += agent.tasks[task].second_price.invariant("resolved");
        }
    }
    agent.claim = Some(payments.clone());
    let mut claimed = payments;
    if let Behavior::InflatedPaymentClaim { delta } = agent.behavior {
        #[expect(clippy::arithmetic_side_effects, reason = "a payment in bid units")]
        {
            claimed[agent.me] += delta;
        }
        agent.claim = Some(claimed.clone());
    }
    out.push((
        Recipient::Broadcast,
        Body::PaymentClaim { payments: claimed },
    ));
    agent.status = AgentStatus::Done;
}
