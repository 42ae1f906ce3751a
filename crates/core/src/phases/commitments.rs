//! Phase III.1 + III.2 publication — verify received bundles against
//! commitments, fix the participation mask, publish `Λ/Ψ`.

#![expect(
    clippy::indexing_slicing,
    reason = "agent/task indices are validated at `DmwAgent` construction and every \
         per-agent vector is allocated with length `n` up front (see \
         `crate::agent`); per-site `.get()` plumbing would bury the protocol \
         equations."
)]

use crate::agent::{DmwAgent, Invariant};
use crate::error::AbortReason;
use crate::messages::Body;
use crate::strategy::Behavior;
use dmw_crypto::commitments::verify_shares_batch;
use dmw_crypto::resolution::compute_lambda_psi;
use dmw_obs::{Key, MetricsSink};
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
    let faults = agent.fault_count();
    if faults > agent.config.encoding().faults() {
        agent.abort(
            AbortReason::TooManyFaults {
                observed: faults,
                tolerated: agent.config.encoding().faults(),
            },
            out,
        );
        return;
    }
    // Verify every live sender's bundle (III.1, eqs (7)–(9)). The
    // (task, sender) checks are independent, so they are submitted as
    // one batch and fanned over `verify_width` threads; the batch
    // reports the first failure in the same row-major (task, sender)
    // order the sequential loop scanned, so detection is
    // width-invariant.
    let group = *agent.config.group();
    let my_alpha = agent.config.pseudonym(agent.me);
    let (bad_sender, submitted) = {
        let mut items = Vec::new();
        let mut senders = Vec::new();
        for task in 0..agent.m() {
            for l in 0..agent.n() {
                if !agent.alive[l] || l == agent.me {
                    continue;
                }
                let bundle = agent.tasks[task].bundles[l].invariant("alive implies present");
                let commitments = agent.tasks[task].commitments[l]
                    .as_ref()
                    .invariant("alive implies present");
                items.push((commitments, bundle));
                senders.push(l);
            }
        }
        let submitted = items.len() as u64;
        let bad = verify_shares_batch(&group, my_alpha, &items, agent.verify_width)
            .err()
            .map(|failure| {
                *senders
                    .get(failure.index)
                    .invariant("batch failure indexes a submitted item")
            });
        (bad, submitted)
    };
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
    let alive = agent.alive_indices();
    for task in 0..agent.m() {
        let e_shares: Vec<u64> = alive
            .iter()
            .map(|&l| agent.tasks[task].bundles[l].invariant("alive").e)
            .collect();
        let h_shares: Vec<u64> = alive
            .iter()
            .map(|&l| agent.tasks[task].bundles[l].invariant("alive").h)
            .collect();
        let honest = compute_lambda_psi(&group, &e_shares, &h_shares);
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
