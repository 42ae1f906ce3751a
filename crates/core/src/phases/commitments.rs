//! Phase III.1 + III.2 publication — verify received bundles against
//! commitments, fix the participation mask, publish `Λ/Ψ`.

use super::within_fault_bound;
use crate::agent::{DmwAgent, Invariant};
use crate::error::AbortReason;
use crate::messages::Body;
use crate::strategy::Behavior;
use dmw_crypto::commitments::{verify_shares_folded, ShareFold};
use dmw_crypto::resolution::compute_lambda_psi;
use dmw_crypto::{Commitments, ShareBundle};
use dmw_obs::Key;
use dmw_simnet::Recipient;

/// Complete once every peer's share bundle *and* commitments have
/// arrived for every task — the full bidding fan-in.
pub(crate) fn ready(agent: &DmwAgent) -> bool {
    (0..agent.n()).all(|l| {
        l == agent.me
            || (0..agent.m()).all(|t| {
                agent.tasks[t].bundles[l].is_some() && agent.tasks[t].commitments[l].is_some()
            })
    })
}

/// Fixes the participation mask from whatever arrived, verifies every
/// live sender's bundle (III.1, eqs (7)–(9)), and publishes `Λ/Ψ` over
/// the live set (III.2, eq (10)).
pub(crate) fn act(agent: &mut DmwAgent, out: &mut Vec<(Recipient, Body)>) {
    if matches!(agent.behavior, Behavior::Silent) {
        return;
    }
    // An agent is alive iff its shares AND commitments arrived for
    // every task.
    for l in 0..agent.n() {
        agent.alive[l] = (0..agent.m()).all(|t| {
            agent.tasks[t].bundles[l].is_some() && agent.tasks[t].commitments[l].is_some()
        });
    }
    if !within_fault_bound(agent, out) {
        return;
    }
    // Verify every live sender's bundle (III.1, eqs (7)–(9)): each task by
    // one fold over the alive set, me included, and only if a fold fails,
    // the (task, sender) checks as one batch, which reports the first
    // failure in row-major (task, sender) order.
    let group = agent.config.group();
    let alive = agent.alive_indices();
    let (folds, bad_sender, submitted) = {
        // Each task's alive items, mine included, in agent order.
        let tasks: Vec<Vec<(usize, (&Commitments, ShareBundle))>> = agent
            .tasks
            .iter()
            .map(|state| {
                let item = |l: usize| {
                    let commitments = state.commitments[l].as_ref();
                    let bundle = state.bundles[l];
                    (commitments.invariant("alive"), bundle.invariant("alive"))
                };
                alive.iter().map(|&l| (l, item(l))).collect()
            })
            .collect();
        let folds: Vec<ShareFold> = tasks
            .iter()
            .map(|items| ShareFold::new(group, items.iter().map(|&(_, item)| item)))
            .collect();
        let (senders, items): (Vec<usize>, Vec<(&Commitments, ShareBundle)>) = tasks
            .iter()
            .flatten()
            .filter(|&&(l, _)| l != agent.me)
            .copied()
            .unzip();
        let plan = agent.config.powers_plan(agent.me);
        let bad = verify_shares_folded(group, plan, &folds, &items)
            .err()
            .map(|failure| {
                *senders
                    .get(failure.index)
                    .invariant("batch failure indexes a submitted item")
            });
        (folds, bad, items.len() as u64)
    };
    // The Q and R folds over the alive set are eqs (11) and (13)'s too;
    // `alive` is final from here on.
    for (state, fold) in agent.tasks.iter_mut().zip(folds) {
        let (q, r) = fold.into_q_r();
        state.folded_q = Some(q);
        state.folded_r = Some(r);
    }
    let verified = Key::named("shares_verified").agent(agent.metric_agent());
    agent.metrics.incr(verified, submitted);
    if let Some(sender) = bad_sender {
        agent.abort(AbortReason::InvalidShares { sender }, out);
        return;
    }
    if matches!(agent.behavior, Behavior::SilentAfterBidding) {
        return;
    }
    // Publish lambda/psi over the live set (III.2, eq (10)).
    let included = agent.alive.clone();
    for task in 0..agent.m() {
        let e_shares: Vec<u64> = alive
            .iter()
            .map(|&l| agent.tasks[task].bundles[l].invariant("alive").e)
            .collect();
        let h_shares: Vec<u64> = alive
            .iter()
            .map(|&l| agent.tasks[task].bundles[l].invariant("alive").h)
            .collect();
        let honest = compute_lambda_psi(group, &e_shares, &h_shares);
        agent.tasks[task].pairs[agent.me] = Some(honest);
        let mut pair = honest;
        if matches!(agent.behavior, Behavior::WrongLambda) {
            pair.lambda = group.zp().mul(pair.lambda, group.z1());
        }
        out.push((
            Recipient::Broadcast,
            Body::Lambda {
                task,
                pair,
                included: included.clone(),
            },
        ));
    }
}
