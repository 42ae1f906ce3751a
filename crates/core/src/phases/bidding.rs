//! Phase II — *Bidding*: sample polynomials, distribute shares, publish
//! commitments.

#![expect(
    clippy::indexing_slicing,
    reason = "agent/task indices are validated at `DmwAgent` construction and every \
         per-agent vector is allocated with length `n` up front (see \
         `crate::agent`); per-site `.get()` plumbing would bury the protocol \
         equations."
)]

use crate::agent::{DmwAgent, Invariant};
use crate::messages::Body;
use crate::strategy::Behavior;
use dmw_crypto::polynomials::BidPolynomials;
use dmw_crypto::Commitments;
use dmw_simnet::{NodeId, Recipient};

/// Bidding waits for nothing: it opens the protocol.
pub(crate) fn ready(_agent: &DmwAgent) -> bool {
    true
}

/// Samples the polynomial quadruple per task, unicasts share bundles and
/// broadcasts commitments (II.2–II.3).
pub(crate) fn act(agent: &mut DmwAgent, out: &mut Vec<(Recipient, Body)>) {
    if matches!(agent.behavior, Behavior::Silent) {
        return;
    }
    let group = *agent.config.group();
    let encoding = *agent.config.encoding();
    let zq = group.zq();
    for task in 0..agent.m() {
        let polys = BidPolynomials::generate(&group, &encoding, agent.bids[task], &mut agent.rng)
            .invariant("bids validated at construction");
        // Publish commitments (II.3); a tamperer keeps the honest copy
        // in its own state.
        let honest = Commitments::commit(&group, &encoding, &polys);
        let published = match agent.behavior {
            Behavior::TamperedCommitments => honest.clone().with_tampered_q(&group, 0),
            _ => honest.clone(),
        };
        let my_bundle = polys.share_for(&zq, agent.config.pseudonym(agent.me));
        agent.tasks[task].bundles[agent.me] = Some(my_bundle);
        agent.tasks[task].commitments[agent.me] = Some(honest);
        out.push((
            Recipient::Broadcast,
            Body::Commit {
                task,
                commitments: published,
            },
        ));
        // Distribute shares (II.2).
        for peer in 0..agent.n() {
            if peer == agent.me {
                continue;
            }
            match agent.behavior {
                Behavior::WithholdShares => continue,
                Behavior::SelectiveShares { threshold } if peer >= threshold => continue,
                _ => {}
            }
            let mut bundle = polys.share_for(&zq, agent.config.pseudonym(peer));
            if matches!(agent.behavior, Behavior::CorruptShareTo { victim } if victim == peer) {
                bundle.e = zq.add(bundle.e, 1);
            }
            out.push((
                Recipient::Unicast(NodeId(peer)),
                Body::Shares { task, bundle },
            ));
        }
        agent.tasks[task].polys = Some(polys);
    }
}
