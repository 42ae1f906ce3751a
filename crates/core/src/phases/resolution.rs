//! Phase III.2 verification + first-price resolution + disclosure
//! kick-off.

use super::{designated_products, within_fault_bound};
use crate::agent::{DmwAgent, Invariant};
use crate::error::AbortReason;
use crate::messages::Body;
use crate::strategy::Behavior;
use dmw_crypto::commitments::FoldedCommitments;
use dmw_crypto::resolution::{resolve_min_bid, verify_lambda_psi};
use dmw_simnet::Recipient;

/// Complete once a `Λ/Ψ` pair (with its participation mask) has arrived
/// from every alive peer for every task.
pub(crate) fn ready(agent: &DmwAgent) -> bool {
    agent
        .alive_indices()
        .into_iter()
        .all(|l| l == agent.me || (0..agent.m()).all(|t| agent.tasks[t].pairs[l].is_some()))
}

/// Checks participation masks, marks silent publishers faulty, verifies
/// the designated pairs (eq (11)), resolves the first price (eq (12)),
/// and opens disclosure — including the winner-claim fallback.
pub(crate) fn act(agent: &mut DmwAgent, out: &mut Vec<(Recipient, Body)>) {
    if matches!(
        agent.behavior,
        Behavior::Silent | Behavior::SilentAfterBidding
    ) {
        return;
    }
    // A publisher whose participation mask disagrees with mine is
    // evidence of selective share delivery: hard abort. Masks are
    // scanned in (publisher, task) order — the arrival order of the
    // lockstep inbox — so the reported publisher is unchanged.
    for l in 0..agent.n() {
        if l == agent.me {
            continue;
        }
        for t in 0..agent.m() {
            if let Some(mask) = &agent.tasks[t].masks[l] {
                if *mask != agent.alive {
                    agent.abort(AbortReason::InconsistentMask { publisher: l }, out);
                    return;
                }
            }
        }
    }
    // Silent publishers become faulty (tolerated up to c in total).
    for l in agent.alive_indices() {
        if (0..agent.m()).any(|t| agent.tasks[t].pairs[l].is_none()) {
            agent.faulty[l] = true;
        }
    }
    if !within_fault_bound(agent, out) {
        return;
    }
    let group = agent.config.group();
    let encoding = *agent.config.encoding();
    // Rotation verification of eq (11): I check my designated
    // publishers, task-major; any honest verifier detecting tampering
    // aborts the whole run. Each task's checks run on the fold of the
    // alive agents' Q vectors that Phase III.1 built.
    let responsive = agent.live_indices();
    let designated = agent.designated_publishers(&responsive);
    let folds: Vec<&FoldedCommitments> = agent
        .tasks
        .iter()
        .map(|state| state.folded_q.as_ref().invariant("folded in Phase III.1"))
        .collect();
    let gammas = designated_products(agent, &designated, |_, _| true, &folds);
    for task in 0..agent.m() {
        for (&l, gamma) in designated.iter().zip(&gammas) {
            let pair = agent.tasks[task].pairs[l].invariant("live implies published");
            let gamma = gamma[task].invariant("checked in every task");
            if verify_lambda_psi(group, gamma, l, &pair).is_err() {
                agent.abort(AbortReason::InvalidLambdaPsi { publisher: l }, out);
                return;
            }
        }
    }
    // Resolve the first price per task from the responsive points
    // (eq (12)), whose coefficients every task shares.
    let points = agent
        .config
        .zero_coefficients(&responsive)
        .invariant("validated pseudonyms");
    for task in 0..agent.m() {
        let lambdas: Vec<u64> = responsive
            .iter()
            .map(|&l| agent.tasks[task].pairs[l].invariant("responsive").lambda)
            .collect();
        match resolve_min_bid(group, &encoding, &points, &lambdas) {
            Ok(price) => agent.tasks[task].first_price = Some(price.bid),
            Err(_) => {
                agent.abort(AbortReason::Unresolvable, out);
                return;
            }
        }
    }
    // Disclose my f-column if I am among the designated disclosers:
    // the first `winner_points + c` responsive agents (the `+ c`
    // spares keep identification alive when disclosers fall silent).
    // The set is recorded per task: it is the completeness predicate of
    // the winner-identification phase.
    for task in 0..agent.m() {
        let first_price = agent.tasks[task].first_price.invariant("resolved above");
        let needed = encoding.winner_points(first_price) + encoding.faults();
        let disclosers: Vec<usize> = responsive.iter().copied().take(needed).collect();
        agent.tasks[task].disclosers = disclosers.clone();
        if disclosers.contains(&agent.me) {
            let mut f_values: Vec<u64> = (0..agent.n())
                .map(|l| agent.tasks[task].bundles[l].map(|b| b.f).unwrap_or(0))
                .collect();
            if matches!(agent.behavior, Behavior::WrongDisclosure) {
                f_values[agent.me] = group.zq().add(f_values[agent.me], 1);
            }
            agent.tasks[task].disclosures[agent.me] = Some(f_values.clone());
            out.push((Recipient::Broadcast, Body::Disclose { task, f_values }));
        }
    }
    // Identification fallback: crashes before bidding can leave fewer
    // live share points than eq (14) needs (`y* + c + 1`). An agent
    // whose own bid equals the first price supplements the missing
    // evaluations from its own polynomials; every verifier binds them
    // to its Phase II.3 commitments via eq (9) before use.
    for task in 0..agent.m() {
        let first_price = agent.tasks[task].first_price.invariant("resolved above");
        let live = agent.live_indices();
        if live.len() < encoding.winner_points(first_price) {
            // Winner identification cannot be satisfied by live
            // disclosures alone — flag it so the next phase falls back
            // to its patience budget instead of a completeness check.
            agent.tasks[task].needs_fallback = true;
        } else {
            continue;
        }
        if !agent.bids[task].is(first_price) {
            continue;
        }
        let Some(polys) = &agent.tasks[task].polys else {
            continue;
        };
        let zq = group.zq();
        let points: Vec<(usize, u64, u64)> = (0..agent.n())
            .filter(|l| !live.contains(l))
            .map(|l| {
                let alpha = agent.config.pseudonym(l);
                let (f, h) = polys.claim_point(&zq, alpha);
                (l, f, h)
            })
            .collect();
        agent.tasks[task].claims[agent.me] = Some(points.clone());
        out.push((Recipient::Broadcast, Body::WinnerClaim { task, points }));
    }
}
