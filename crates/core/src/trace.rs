//! Message-sequence traces — the reproduction of the paper's Fig. 2.
//!
//! Fig. 2 shows "the sequence of messages exchanged among participants":
//! solid arrows for point-to-point share transmissions, dashed arrows for
//! published (broadcast) values. The runner records every transmission as
//! a [`TraceEvent`]; [`render_sequence_chart`] prints the ASCII equivalent
//! of the figure, and the trace-conformance integration test asserts the
//! phase structure matches the paper's.

use dmw_simnet::Recipient;
use std::fmt::Write as _;

/// One recorded transmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Scheduler tick (lockstep: synchronous round) in which the message
    /// was sent.
    pub round: u64,
    /// Logical protocol phase the sender acted in when it emitted the
    /// message (see [`crate::phases::Phase::label`]).
    pub phase: &'static str,
    /// Sender index.
    pub from: usize,
    /// Unicast target, or `None` for a published (broadcast) message.
    pub to: Option<usize>,
    /// Message kind label (see [`crate::messages::Body::kind`]).
    pub kind: &'static str,
    /// Task index for task-scoped messages.
    pub task: Option<usize>,
}

impl TraceEvent {
    /// Builds an event from a send decision.
    pub fn new(
        round: u64,
        phase: &'static str,
        from: usize,
        recipient: &Recipient,
        kind: &'static str,
        task: Option<usize>,
    ) -> Self {
        let to = match recipient {
            Recipient::Unicast(node) => Some(node.0),
            Recipient::Broadcast => None,
        };
        TraceEvent {
            round,
            phase,
            from,
            to,
            kind,
            task,
        }
    }

    /// `true` for published (dashed-arrow) messages.
    pub fn is_broadcast(&self) -> bool {
        self.to.is_none()
    }
}

/// The protocol phase labels of Fig. 2, in wire order.
pub const PHASE_ORDER: [&str; 6] = [
    "shares",
    "commitments",
    "lambda-psi",
    "f-disclosure",
    "excluded-lambda-psi",
    "payment-claim",
];

/// Renders a trace as an ASCII sequence chart in the style of the paper's
/// Fig. 2: one line per transmission, `-->` for point-to-point (solid
/// arrows), `==>*` for published messages (dashed arrows).
pub fn render_sequence_chart(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    let mut last_round = u64::MAX;
    for e in events {
        if e.round != last_round {
            let _ = writeln!(out, "── round {} ──", e.round);
            last_round = e.round;
        }
        let task = e.task.map(|t| format!(" [T{}]", t + 1)).unwrap_or_default();
        match e.to {
            Some(to) => {
                let _ = writeln!(out, "  A{} --> A{}: {}{}", e.from + 1, to + 1, e.kind, task);
            }
            None => {
                let _ = writeln!(out, "  A{} ==>* : {}{}", e.from + 1, e.kind, task);
            }
        }
    }
    out
}

/// Counts events of each kind, a compact summary used by experiments.
pub fn kind_histogram(events: &[TraceEvent]) -> Vec<(&'static str, usize)> {
    let mut hist: Vec<(&'static str, usize)> = Vec::new();
    for e in events {
        match hist.iter_mut().find(|(k, _)| *k == e.kind) {
            Some((_, count)) => *count += 1,
            None => hist.push((e.kind, 1)),
        }
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmw_simnet::NodeId;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::new(
                0,
                "bidding",
                0,
                &Recipient::Unicast(NodeId(1)),
                "shares",
                Some(0),
            ),
            TraceEvent::new(
                0,
                "bidding",
                0,
                &Recipient::Broadcast,
                "commitments",
                Some(0),
            ),
            TraceEvent::new(
                1,
                "commitments",
                1,
                &Recipient::Broadcast,
                "lambda-psi",
                Some(0),
            ),
        ]
    }

    #[test]
    fn events_classify_broadcasts() {
        let events = sample();
        assert!(!events[0].is_broadcast());
        assert_eq!(events[0].to, Some(1));
        assert!(events[1].is_broadcast());
    }

    #[test]
    fn chart_renders_rounds_and_arrows() {
        let chart = render_sequence_chart(&sample());
        assert!(chart.contains("── round 0 ──"));
        assert!(chart.contains("A1 --> A2: shares [T1]"));
        assert!(chart.contains("A1 ==>* : commitments [T1]"));
        assert!(chart.contains("── round 1 ──"));
    }

    #[test]
    fn histogram_counts_kinds() {
        let hist = kind_histogram(&sample());
        assert!(hist.contains(&("shares", 1)));
        assert!(hist.contains(&("commitments", 1)));
        assert!(hist.contains(&("lambda-psi", 1)));
    }
}
