//! Phase III.3 — verify disclosures, identify the winner, publish the
//! winner-excluded pair.

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
use dmw_crypto::resolution::{
    exclude_winner, identify_winner, verify_claimed_f_point, verify_f_disclosure,
};
use dmw_crypto::Commitments;
use dmw_simnet::Recipient;

/// Complete once every designated discloser's `f`-column is in, for
/// every task. Tasks flagged for the winner-claim fallback have no
/// predictable sender set, so they are never "complete" — the patience
/// budget drives them.
pub(crate) fn ready(agent: &DmwAgent) -> bool {
    agent
        .tasks
        .iter()
        .all(|t| !t.needs_fallback && t.disclosers.iter().all(|&k| t.disclosures[k].is_some()))
}

/// Verifies the designated disclosures (eq (13)), identifies the winner
/// (eq (14), with the claim fallback), and publishes the excluded pair
/// (eq (15)).
pub(crate) fn act(agent: &mut DmwAgent, out: &mut Vec<(Recipient, Body)>) {
    if matches!(
        agent.behavior,
        Behavior::Silent | Behavior::SilentAfterBidding
    ) {
        return;
    }
    let group = *agent.config.group();
    let encoding = *agent.config.encoding();
    let alive = agent.alive_indices();
    for task in 0..agent.m() {
        let commitments: Vec<Commitments> = alive
            .iter()
            .map(|&l| agent.tasks[task].commitments[l].clone().invariant("alive"))
            .collect();
        // Rotation verification of eq (13).
        for k in agent.live_indices() {
            if k == agent.me || !agent.is_designated_verifier(k) {
                continue;
            }
            let Some(f_values) = agent.tasks[task].disclosures[k].clone() else {
                continue;
            };
            let live_values: Vec<u64> = alive.iter().map(|&l| f_values[l]).collect();
            let psi_k = agent.tasks[task].pairs[k].invariant("responsive").psi;
            if verify_f_disclosure(
                &group,
                &commitments,
                k,
                agent.config.pseudonym(k),
                &live_values,
                psi_k,
            )
            .is_err()
            {
                agent.abort(AbortReason::InvalidDisclosure { discloser: k }, out);
                return;
            }
        }
        // Identify the winner from the first `winner_points` available
        // disclosures (eq (14)).
        let first_price = agent.tasks[task]
            .first_price
            .invariant("resolved by the resolution phase");
        let needed = encoding.winner_points(first_price);
        let valid_disclosers: Vec<usize> = agent
            .live_indices()
            .into_iter()
            .filter(|&k| agent.tasks[task].disclosures[k].is_some())
            .take(needed)
            .collect();
        let winner = if valid_disclosers.len() >= needed {
            let points: Vec<u64> = valid_disclosers
                .iter()
                .map(|&k| agent.config.pseudonym(k))
                .collect();
            let f_columns: Vec<Vec<u64>> = alive
                .iter()
                .map(|&l| {
                    valid_disclosers
                        .iter()
                        .map(|&k| {
                            agent.tasks[task].disclosures[k]
                                .as_ref()
                                .invariant("present")[l]
                        })
                        .collect()
                })
                .collect();
            match identify_winner(&group, &encoding, first_price, &points, &f_columns) {
                Ok(pos) => alive[pos],
                Err(_) => {
                    agent.abort(AbortReason::NoWinner, out);
                    return;
                }
            }
        } else {
            // Not enough live share points for eq (14): fall back to
            // the winner claims broadcast by the resolution phase.
            match identify_from_claims(agent, task, first_price, &valid_disclosers) {
                Ok(w) => w,
                Err(reason) => {
                    agent.abort(reason, out);
                    return;
                }
            }
        };
        agent.tasks[task].winner = Some(winner);
        // Publish the winner-excluded pair (eq (15)).
        let my_pair =
            agent.tasks[task].pairs[agent.me].invariant("I published in the commitments phase");
        let winner_bundle = agent.tasks[task].bundles[winner].invariant("winner is alive");
        let honest = exclude_winner(&group, &my_pair, winner_bundle.e, winner_bundle.h)
            .invariant("honest pairs divide cleanly");
        agent.tasks[task].excluded[agent.me] = Some(honest);
        let mut pair = honest;
        if matches!(agent.behavior, Behavior::WrongExcluded) {
            pair.lambda = group.zp().mul(pair.lambda, group.z1());
        }
        out.push((Recipient::Broadcast, Body::Excluded { task, pair }));
    }
}

/// Winner identification when live disclosures alone cannot reach the
/// `y* + c + 1` points equation (14) needs. Agents whose bid equals
/// the first price claimed their own `(f, h)` evaluations at the
/// missing pseudonyms during resolution; each claimed point is bound to
/// the claimant's Phase II.3 commitments via equation (9), the
/// claimant's f-column is interpolated over the combined point set, and
/// the lowest-indexed claimant whose column vanishes at zero wins.
///
/// A false claim cannot pass: fabricated values fail the commitment
/// binding (hard abort), and truthful values of a higher-degree
/// polynomial fail the interpolation test except with probability
/// `≈ 1/q`.
fn identify_from_claims(
    agent: &DmwAgent,
    task: usize,
    first_price: u64,
    disclosers: &[usize],
) -> Result<usize, AbortReason> {
    let group = *agent.config.group();
    let encoding = *agent.config.encoding();
    let mut any_claim = false;
    for k in agent.live_indices() {
        let Some(claim) = agent.tasks[task].claims[k].as_ref() else {
            continue;
        };
        any_claim = true;
        let commitments = agent.tasks[task].commitments[k]
            .as_ref()
            .invariant("live implies committed");
        let mut alphas: Vec<u64> = disclosers
            .iter()
            .map(|&j| agent.config.pseudonym(j))
            .collect();
        let mut column: Vec<u64> = disclosers
            .iter()
            .map(|&j| {
                agent.tasks[task].disclosures[j]
                    .as_ref()
                    .invariant("present")[k]
            })
            .collect();
        let mut seen = vec![false; agent.n()];
        for &(l, f, h) in claim {
            // A claimed point may only fill a genuinely missing
            // pseudonym, once.
            if l >= agent.n() || seen[l] || disclosers.contains(&l) {
                return Err(AbortReason::InvalidDisclosure { discloser: k });
            }
            seen[l] = true;
            let alpha = agent.config.pseudonym(l);
            if verify_claimed_f_point(&group, commitments, l, alpha, f, h).is_err() {
                return Err(AbortReason::InvalidDisclosure { discloser: k });
            }
            alphas.push(alpha);
            column.push(f);
        }
        if identify_winner(&group, &encoding, first_price, &alphas, &[column]).is_ok() {
            return Ok(k);
        }
    }
    // No claim at all is indistinguishable from a crashed winner:
    // unresolvable, as before the fallback existed.
    if any_claim {
        Err(AbortReason::NoWinner)
    } else {
        Err(AbortReason::Unresolvable)
    }
}
