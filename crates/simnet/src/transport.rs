//! The transport abstraction: how protocol messages move between agents.
//!
//! [`Transport`] captures exactly the surface the protocol scheduler in
//! `dmw::runner` needs — send/broadcast, per-node inbox draining, a
//! delivery step, quiescence, and traffic statistics — so the protocol is
//! generic over *when* messages arrive. The simulator's implementation is
//! [`crate::DelayTransport`], a deterministic model where each link holds
//! messages for a seeded per-link delay. Its synchronous profile is the
//! paper's rounds (the implicit barrier of protocol step II.4):
//! everything sent in round `r` arrives in round `r + 1`. Longer delays
//! prove agents assume message *completeness*, never next-round delivery;
//! wrappers (timing decorators, test doubles) implement the trait too.
//!
//! The module also hosts [`coalesce`], the indexed per-recipient batching
//! pass: grouping same-recipient payloads is a transport concern (fewer,
//! larger transmissions), not protocol logic.

use crate::faults::FaultPlan;
use crate::network::{Delivered, NodeId, Payload, Recipient};
use crate::stats::NetworkStats;
use dmw_obs::MetricsSnapshot;
use std::collections::HashMap;

/// A message-delivery substrate for `n` protocol agents.
///
/// Implementations decide when an enqueued message becomes visible in the
/// recipient's inbox; the protocol only ever observes inboxes. One call to
/// [`Transport::step`] advances simulated time by one scheduler tick.
pub trait Transport<M: Payload + Clone> {
    /// Number of nodes attached to the transport.
    fn nodes(&self) -> usize;

    /// Enqueues a private point-to-point message.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range or `from == to` (the
    /// protocol never self-sends; local state is kept locally).
    fn send(&mut self, from: NodeId, to: NodeId, payload: M);

    /// Publishes a message to every other node — accounted as `n − 1`
    /// point-to-point transmissions, per the paper's cost model.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range.
    fn broadcast(&mut self, from: NodeId, payload: M);

    /// Drains and returns `node`'s inbox in arrival order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    fn take_inbox(&mut self, node: NodeId) -> Vec<Delivered<M>>;

    /// Advances one tick, moving due traffic into inboxes. Returns the
    /// number of messages delivered by this step.
    fn step(&mut self) -> u64;

    /// The current tick (round) number.
    fn round(&self) -> u64;

    /// The cumulative traffic counters.
    fn stats(&self) -> &NetworkStats;

    /// The transport-level [`MetricsSnapshot`]: per-link
    /// `link_messages` / `link_bytes` counters, the `delay_ticks`
    /// delivery-latency histogram (observed at enqueue, in logical
    /// ticks) and per-cause `drop_*` counters. Purely deterministic —
    /// two runs of the same seed yield equal snapshots.
    fn metrics(&self) -> &MetricsSnapshot;

    /// The fault schedule the transport applies.
    fn faults(&self) -> &FaultPlan;

    /// `true` when no traffic is pending delivery *and* every inbox has
    /// been drained — the scheduler's termination signal.
    fn is_quiescent(&self) -> bool;

    /// The earliest tick `t >= round()` at which a scheduler tick can
    /// observe transport activity: `round()` itself while any inbox
    /// still holds deliveries, otherwise the earliest held message's due
    /// tick, and `None` when the transport is quiescent. An event-driven
    /// scheduler (see `docs/scheduler.md`) may [`Transport::advance_to`]
    /// any tick up to the reported value without changing what any
    /// agent ever observes.
    ///
    /// The default is deliberately conservative — "now, unless
    /// quiescent" — which degrades an event-driven scheduler to
    /// poll-every-tick behaviour on transports that don't override it
    /// (wrappers, test doubles) while staying exactly equivalent.
    fn next_due(&self) -> Option<u64> {
        if self.is_quiescent() {
            None
        } else {
            Some(self.round())
        }
    }

    /// Advances the transport to tick `target` exactly as
    /// `target − round()` consecutive [`Transport::step`] calls would —
    /// same deliveries in the same order, same round/statistics
    /// accounting — returning the total number of messages delivered.
    /// Implementations override this to fast-forward dead air in O(1);
    /// the default literally steps. A `target` at or before the current
    /// round is a no-op.
    fn advance_to(&mut self, target: u64) -> u64 {
        let mut delivered = 0;
        while self.round() < target {
            delivered += self.step();
        }
        delivered
    }
}

/// Groups same-recipient payloads into one transmission each, preserving
/// first-occurrence recipient order and in-group payload order.
///
/// A recipient with a single payload passes through untouched; a
/// recipient with several gets them folded through `merge` (the protocol
/// passes its `Body::Batch` constructor). Grouping is indexed by a
/// recipient → slot map, so a tick with `r` outgoing messages costs
/// `O(r)` instead of the quadratic scan a per-message linear `find`
/// would.
pub fn coalesce<M>(
    outgoing: Vec<(Recipient, M)>,
    mut merge: impl FnMut(Vec<M>) -> M,
) -> Vec<(Recipient, M)> {
    let mut groups: Vec<(Recipient, Vec<M>)> = Vec::new();
    // HashMap is safe here (dmw-lint L10): `slots` is only ever probed
    // by key, never iterated — output order comes from `groups`, which
    // preserves first-occurrence order.
    let mut slots: HashMap<Recipient, usize> = HashMap::new();
    for (recipient, payload) in outgoing {
        match slots.get(&recipient) {
            Some(&slot) => groups[slot].1.push(payload),
            None => {
                slots.insert(recipient, groups.len());
                groups.push((recipient, vec![payload]));
            }
        }
    }
    groups
        .into_iter()
        .map(|(recipient, mut payloads)| {
            if payloads.len() == 1 {
                let only = payloads.pop().expect("group holds exactly one payload");
                (recipient, only)
            } else {
                (recipient, merge(payloads))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uni(to: usize) -> Recipient {
        Recipient::Unicast(NodeId(to))
    }

    #[test]
    fn coalesce_groups_by_recipient_in_first_occurrence_order() {
        let outgoing = vec![
            (uni(2), 10u64),
            (Recipient::Broadcast, 20),
            (uni(2), 30),
            (uni(1), 40),
            (Recipient::Broadcast, 50),
        ];
        let merged = coalesce(outgoing, |batch| batch.iter().sum());
        assert_eq!(
            merged,
            vec![(uni(2), 40), (Recipient::Broadcast, 70), (uni(1), 40)]
        );
    }

    #[test]
    fn singletons_pass_through_unmerged() {
        let outgoing = vec![(uni(1), 7u64)];
        let merged = coalesce(outgoing, |_| panic!("merge must not run for singletons"));
        assert_eq!(merged, vec![(uni(1), 7)]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let merged: Vec<(Recipient, u64)> = coalesce(Vec::new(), |batch| batch.iter().sum());
        assert!(merged.is_empty());
    }
}
