//! Phase III.2 verification + first-price resolution + disclosure
//! kick-off.

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
use dmw_crypto::resolution::{resolve_min_bid, verify_lambda_psi};
use dmw_crypto::Commitments;
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
    let group = *agent.config.group();
    let encoding = *agent.config.encoding();
    // Silent publishers become faulty (tolerated up to c in total).
    for l in agent.alive_indices() {
        if (0..agent.m()).any(|t| agent.tasks[t].pairs[l].is_none()) {
            agent.faulty[l] = true;
        }
    }
    if agent.fault_count() > encoding.faults() {
        agent.abort(
            AbortReason::TooManyFaults {
                observed: agent.fault_count(),
                tolerated: encoding.faults(),
            },
            out,
        );
        return;
    }
    // Rotation verification of eq (11): I check my designated
    // publishers; any honest verifier detecting tampering aborts the
    // whole run.
    let alive = agent.alive_indices();
    for task in 0..agent.m() {
        let commitments: Vec<Commitments> = alive
            .iter()
            .map(|&l| agent.tasks[task].commitments[l].clone().invariant("alive"))
            .collect();
        for &l in &agent.live_indices() {
            if l == agent.me || !agent.is_designated_verifier(l) {
                continue;
            }
            let pair = agent.tasks[task].pairs[l].invariant("live implies published");
            if verify_lambda_psi(
                &group,
                &commitments,
                l,
                agent.config.pseudonym(l),
                &pair,
                None,
            )
            .is_err()
            {
                agent.abort(AbortReason::InvalidLambdaPsi { publisher: l }, out);
                return;
            }
        }
    }
    // Resolve the first price per task from the responsive points
    // (eq (12)).
    let responsive = agent.live_indices();
    let alphas: Vec<u64> = responsive
        .iter()
        .map(|&l| agent.config.pseudonym(l))
        .collect();
    for task in 0..agent.m() {
        let lambdas: Vec<u64> = responsive
            .iter()
            .map(|&l| agent.tasks[task].pairs[l].invariant("responsive").lambda)
            .collect();
        match resolve_min_bid(&group, &encoding, &alphas, &lambdas) {
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
        if agent.bids[task] != first_price {
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
                (l, polys.f().eval(&zq, alpha), polys.h().eval(&zq, alpha))
            })
            .collect();
        agent.tasks[task].claims[agent.me] = Some(points.clone());
        out.push((Recipient::Broadcast, Body::WinnerClaim { task, points }));
    }
}
