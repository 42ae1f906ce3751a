//! Node identities, payloads and delivered messages: the vocabulary the
//! [`crate::Transport`] speaks.

use std::fmt;

/// Identifier of a network node (agent), `0`-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Message destination: one peer or everyone else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Recipient {
    /// A single peer over the private channel.
    Unicast(NodeId),
    /// Every other node (implemented as `n − 1` unicasts, per Theorem 11).
    Broadcast,
}

/// Payload size accounting, used for the byte counters of
/// [`crate::NetworkStats`]. Implementations should return the
/// approximate wire size of the message.
pub trait Payload {
    /// Approximate serialized size in bytes.
    fn size_bytes(&self) -> usize;
}

impl Payload for u64 {
    fn size_bytes(&self) -> usize {
        8
    }
}

impl<T: Payload> Payload for Vec<T> {
    fn size_bytes(&self) -> usize {
        self.iter().map(Payload::size_bytes).sum()
    }
}

/// A message delivered into a node's inbox.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivered<M> {
    /// The sender.
    pub from: NodeId,
    /// `true` when the message arrived via the broadcast channel.
    pub broadcast: bool,
    /// The message body.
    pub payload: M,
}

/// The transport's synchronous profile — the paper's lockstep rounds —
/// seen through these types; delay-specific behaviour is tested in
/// `delay.rs`.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DelayProfile, DelayTransport, FaultPlan, Transport};

    #[test]
    fn unicast_delivers_next_round() {
        let mut net: DelayTransport<u64> = DelayTransport::new(2);
        net.send(NodeId(0), NodeId(1), 42);
        assert!(net.take_inbox(NodeId(1)).is_empty(), "not yet delivered");
        assert!(!net.is_quiescent());
        assert_eq!(net.step(), 1);
        let inbox = net.take_inbox(NodeId(1));
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].payload, 42);
        assert_eq!(inbox[0].from, NodeId(0));
        assert!(!inbox[0].broadcast);
        assert!(net.is_quiescent());
    }

    #[test]
    fn broadcast_reaches_everyone_else_and_counts_n_minus_1() {
        let mut net: DelayTransport<u64> = DelayTransport::new(5);
        net.broadcast(NodeId(2), 7);
        net.step();
        for i in 0..5 {
            let inbox = net.take_inbox(NodeId(i));
            if i == 2 {
                assert!(inbox.is_empty(), "no self-delivery");
            } else {
                assert_eq!(inbox.len(), 1);
                assert!(inbox[0].broadcast);
            }
        }
        assert_eq!(net.stats().point_to_point, 4);
        assert_eq!(net.stats().broadcasts, 1);
        assert_eq!(net.stats().bytes, 4 * 8);
    }

    #[test]
    fn crashed_node_traffic_is_dropped() {
        let plan = FaultPlan::none(3).crash_at(NodeId(1), 0);
        let mut net: DelayTransport<u64> =
            DelayTransport::with_faults(3, plan, DelayProfile::synchronous());
        net.send(NodeId(0), NodeId(1), 1); // to crashed
        net.send(NodeId(1), NodeId(2), 2); // from crashed
        net.send(NodeId(0), NodeId(2), 3); // unaffected
        net.step();
        assert!(net.take_inbox(NodeId(1)).is_empty());
        let inbox2 = net.take_inbox(NodeId(2));
        assert_eq!(inbox2.len(), 1);
        assert_eq!(inbox2[0].payload, 3);
        assert_eq!(net.stats().dropped, 2);
        assert_eq!(net.stats().delivered, 1);
        assert_eq!(net.stats().in_flight(), 0);
    }

    #[test]
    fn crash_in_future_round_spares_earlier_traffic() {
        let plan = FaultPlan::none(2).crash_at(NodeId(0), 1);
        let mut net: DelayTransport<u64> =
            DelayTransport::with_faults(2, plan, DelayProfile::synchronous());
        net.send(NodeId(0), NodeId(1), 1);
        net.step(); // round 0: delivered
        assert_eq!(net.take_inbox(NodeId(1)).len(), 1);
        net.send(NodeId(0), NodeId(1), 2);
        net.step(); // round 1: node 0 crashed
        assert!(net.take_inbox(NodeId(1)).is_empty());
    }

    #[test]
    fn dropped_link_loses_messages_one_way() {
        let plan = FaultPlan::none(2).drop_link(NodeId(0), NodeId(1));
        let mut net: DelayTransport<u64> =
            DelayTransport::with_faults(2, plan, DelayProfile::synchronous());
        net.send(NodeId(0), NodeId(1), 1);
        net.send(NodeId(1), NodeId(0), 2);
        net.step();
        assert!(net.take_inbox(NodeId(1)).is_empty());
        assert_eq!(net.take_inbox(NodeId(0)).len(), 1);
    }

    #[test]
    fn inbox_preserves_arrival_order() {
        let mut net: DelayTransport<u64> = DelayTransport::new(3);
        net.send(NodeId(1), NodeId(0), 10);
        net.send(NodeId(2), NodeId(0), 20);
        net.step();
        net.send(NodeId(1), NodeId(0), 30);
        net.step();
        let payloads: Vec<u64> = net
            .take_inbox(NodeId(0))
            .into_iter()
            .map(|d| d.payload)
            .collect();
        assert_eq!(payloads, vec![10, 20, 30]);
    }

    #[test]
    fn rounds_advance() {
        let mut net: DelayTransport<u64> = DelayTransport::new(2);
        assert_eq!(net.round(), 0);
        net.step();
        net.step();
        assert_eq!(net.round(), 2);
        assert_eq!(net.stats().rounds, 2);
    }

    #[test]
    #[should_panic(expected = "self-sends")]
    fn self_send_panics() {
        let mut net: DelayTransport<u64> = DelayTransport::new(2);
        net.send(NodeId(0), NodeId(0), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_send_panics() {
        let mut net: DelayTransport<u64> = DelayTransport::new(2);
        net.send(NodeId(0), NodeId(5), 1);
    }

    #[test]
    fn payload_sizes_accumulate() {
        let mut net: DelayTransport<Vec<u64>> = DelayTransport::new(2);
        net.send(NodeId(0), NodeId(1), vec![1, 2, 3]);
        assert_eq!(net.stats().bytes, 24);
    }

    #[test]
    fn next_due_is_now_while_traffic_exists_and_none_when_quiescent() {
        let mut net: DelayTransport<u64> = DelayTransport::new(2);
        assert_eq!(net.next_due(), None);
        net.send(NodeId(0), NodeId(1), 1);
        assert_eq!(net.next_due(), Some(1), "pending traffic is due next tick");
        net.step();
        assert_eq!(net.next_due(), Some(1), "undrained inbox is due now");
        net.take_inbox(NodeId(1));
        assert_eq!(net.next_due(), None);
    }

    /// A multi-tick jump over a message held past the next tick (due at
    /// tick 2) delivers it exactly as stepping does.
    #[test]
    fn advance_to_flushes_deferred_traffic() {
        let build = || -> DelayTransport<u64> {
            DelayTransport::with_faults(2, FaultPlan::none(2), DelayProfile::fixed(1))
        };
        let mut stepped = build();
        let mut jumped = build();
        for net in [&mut stepped, &mut jumped] {
            net.send(NodeId(0), NodeId(1), 7);
        }
        for _ in 0..4 {
            stepped.step();
        }
        assert_eq!(jumped.advance_to(4), 1);
        assert_eq!(jumped.round(), stepped.round());
        assert_eq!(jumped.stats(), stepped.stats());
        assert_eq!(jumped.take_inbox(NodeId(1)), stepped.take_inbox(NodeId(1)));
    }

    #[test]
    fn advance_to_matches_repeated_steps() {
        let mut stepped: DelayTransport<u64> = DelayTransport::new(2);
        let mut jumped: DelayTransport<u64> = DelayTransport::new(2);
        for net in [&mut stepped, &mut jumped] {
            net.send(NodeId(0), NodeId(1), 7);
        }
        for _ in 0..5 {
            stepped.step();
        }
        assert_eq!(jumped.advance_to(5), 1);
        assert_eq!(jumped.round(), stepped.round());
        assert_eq!(jumped.stats(), stepped.stats());
        assert_eq!(jumped.take_inbox(NodeId(1)), stepped.take_inbox(NodeId(1)));
        // At-or-before targets are no-ops.
        assert_eq!(jumped.advance_to(3), 0);
        assert_eq!(jumped.round(), 5);
    }
}
