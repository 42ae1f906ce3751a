//! The simulator's transport: deterministic per-link delivery delays.
//!
//! [`DelayTransport`] holds every message for `1 + base + per-link
//! schedule + seeded jitter` ticks before it reaches the recipient's
//! inbox. The delay draw is a pure function of the profile seed and a
//! per-message sequence number, so a run is bit-replayable — asynchrony
//! here is a *parameter*, not a source of nondeterminism. The paper's
//! synchronous rounds are the zero-delay case: with
//! [`DelayProfile::synchronous`] (what [`DelayTransport::new`] builds)
//! everything sent in round `r` arrives in round `r + 1`, the implicit
//! barrier of protocol step II.4.
//!
//! An optional seeded inbox shuffle additionally permutes same-tick
//! arrivals per recipient, probing the protocol's independence from
//! arrival order *within* a tick.

use crate::faults::{splitmix64, FaultPlan};
use crate::network::{Delivered, NodeId, Payload};
use crate::stats::NetworkStats;
use crate::transport::Transport;
use dmw_obs::{Key, MetricsSink, MetricsSnapshot, DELAY_TICK_BUCKETS};
use std::collections::{BTreeMap, VecDeque};

/// The latency model of a [`DelayTransport`]: every message waits
/// `1 + base + U{0..=jitter}` ticks, the jitter term drawn from a seeded
/// deterministic stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayProfile {
    base: u64,
    jitter: u64,
    seed: u64,
}

impl DelayProfile {
    /// Next-tick delivery: the paper's synchronous rounds.
    pub fn synchronous() -> Self {
        Self::fixed(0)
    }

    /// Every message waits a fixed `base` extra ticks.
    pub fn fixed(base: u64) -> Self {
        DelayProfile {
            base,
            jitter: 0,
            seed: 0,
        }
    }

    /// Every message waits `base` plus a seeded draw from `0..=jitter`
    /// extra ticks.
    pub fn jittered(base: u64, jitter: u64, seed: u64) -> Self {
        DelayProfile { base, jitter, seed }
    }

    /// The largest extra delay this profile can assign.
    pub fn max_extra_delay(&self) -> u64 {
        self.base + self.jitter
    }

    /// The extra delay for the message with sequence number `seq`.
    fn draw(&self, seq: u64) -> u64 {
        if self.jitter == 0 {
            self.base
        } else {
            self.base + splitmix64(self.seed ^ seq) % (self.jitter + 1)
        }
    }
}

/// Why a transmission is lost. Variant order is the
/// checking precedence of [`classify_loss`] (sender crash before
/// recipient crash, then permanent link drop, transient partition, flap,
/// ack-path, periodic schedule, and seeded probabilistic loss last).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DropCause {
    /// The sender was crashed at the tick it sent.
    SenderCrashed,
    /// The recipient was crashed when the message would have landed.
    RecipientCrashed,
    /// The directed link is configured to drop everything.
    Link,
    /// A transient-partition window covered the send round.
    Transient,
    /// The link's flap schedule was in its dead phase at the send round.
    Flapping,
    /// The asymmetric ack-path schedule claimed this control
    /// transmission (data on the same link is untouched).
    AckPath,
    /// The periodic-drop schedule claimed this transmission.
    Periodic,
    /// The seeded Bernoulli schedule claimed this transmission.
    Probabilistic,
}

impl DropCause {
    fn metric(self) -> &'static str {
        match self {
            DropCause::SenderCrashed => "drop_sender_crashed",
            DropCause::RecipientCrashed => "drop_recipient_crashed",
            DropCause::Link => "drop_link",
            DropCause::Transient => "drop_transient",
            DropCause::Flapping => "drop_flapping",
            DropCause::AckPath => "drop_ack_path",
            DropCause::Periodic => "drop_periodic",
            DropCause::Probabilistic => "drop_probabilistic",
        }
    }
}

/// The fault-attribution chain, evaluated at enqueue. `seq` is the
/// message's *enqueue-order* sequence number (1-based), which pins the
/// periodic and probabilistic drop schedules to logical messages rather
/// than delivery order — the transport-invariance contract of
/// [`FaultPlan::is_periodically_dropped`] and
/// [`FaultPlan::is_probabilistically_dropped`]. The round-keyed
/// schedules (transient windows, flaps) are evaluated against
/// `sent_round` for the same reason: a message is lost iff the link was
/// down when it was *sent*, however long it then spends in flight.
/// `control_seq` is `Some` with the transmission's 1-based position in
/// the *control-only* enqueue order when the payload reported
/// [`Payload::is_control`]; the asymmetric ack-path schedule counts
/// only those, so it thins acknowledgments at a fixed rate regardless
/// of how much data shares the wire.
fn classify_loss(
    faults: &FaultPlan,
    from: NodeId,
    to: NodeId,
    sent_round: u64,
    recv_round: u64,
    seq: u64,
    control_seq: Option<u64>,
) -> Option<DropCause> {
    if faults.is_crashed(from, sent_round) {
        Some(DropCause::SenderCrashed)
    } else if faults.is_crashed(to, recv_round) {
        Some(DropCause::RecipientCrashed)
    } else if faults.is_link_dropped(from, to) {
        Some(DropCause::Link)
    } else if faults.is_transiently_dropped(from, to, sent_round) {
        Some(DropCause::Transient)
    } else if faults.is_flapped_down(from, to, sent_round) {
        Some(DropCause::Flapping)
    } else if control_seq.is_some_and(|k| faults.is_ack_path_dropped(k)) {
        Some(DropCause::AckPath)
    } else if faults.is_periodically_dropped(seq) {
        Some(DropCause::Periodic)
    } else if faults.is_probabilistically_dropped(seq) {
        Some(DropCause::Probabilistic)
    } else {
        None
    }
}

/// Records the per-link counters and the delivery-delay histogram for
/// one enqueued transmission. `delivery_ticks` is the logical latency
/// the message was assigned.
fn record_enqueue(
    metrics: &mut MetricsSnapshot,
    from: NodeId,
    to: NodeId,
    bytes: u64,
    delivery_ticks: u64,
) {
    let link = Key::named("link_messages")
        .agent(from.0 as u32)
        .peer(to.0 as u32);
    metrics.incr(link, 1);
    let link_bytes = Key::named("link_bytes")
        .agent(from.0 as u32)
        .peer(to.0 as u32);
    metrics.incr(link_bytes, bytes);
    metrics.observe(
        Key::named("delay_ticks"),
        DELAY_TICK_BUCKETS,
        delivery_ticks,
    );
}

/// Records one lost transmission under its attributed cause.
fn record_drop(metrics: &mut MetricsSnapshot, cause: DropCause) {
    metrics.incr(Key::named(cause.metric()), 1);
}

/// One held transmission, waiting in the bucket of its due tick.
#[derive(Debug, Clone)]
struct Held<M> {
    from: NodeId,
    to: NodeId,
    broadcast: bool,
    /// The payload to deliver, or the cause it will be lost to. Every
    /// input of [`classify_loss`] is fixed once the message is queued
    /// (the plan never changes and the landing tick is drawn at
    /// enqueue), so the verdict is taken then and only counted when the
    /// message falls due. A lost body is never delivered, so it is not
    /// stored: at scheduler-scale sweeps (n = 1024, every node crashed)
    /// the per-recipient commitment clones of a single bidding
    /// broadcast would otherwise hold tens of gigabytes in flight.
    fate: Result<M, DropCause>,
}

/// The deterministic implementation of [`Transport`].
///
/// A message is lost, in this order of attribution, when its sender was
/// crashed at the tick it was sent, its recipient is crashed at the tick
/// before it lands, the directed link is dropped, a transient partition
/// or a link flap covered the send round, the ack-path schedule claims a
/// control transmission, or the periodic or seeded probabilistic
/// schedule claims the transmission. Each loss is counted under its
/// `drop_*` metric. The reorder schedule ([`FaultPlan::reorder_every`])
/// is not loss: it holds the selected surviving transmissions one extra
/// tick.
/// Traffic counters follow one convention (`point_to_point`/`bytes` at
/// enqueue, `delivered`/`dropped` at delivery), so Theorem 11's cost
/// accounting is unchanged by asynchrony.
#[derive(Debug)]
pub struct DelayTransport<M> {
    n: usize,
    round: u64,
    /// Held traffic keyed by due tick, each bucket in enqueue order.
    /// Every key exceeds the current round, so a step takes exactly one
    /// bucket and the earliest event is the first key.
    holding: BTreeMap<u64, Vec<Held<M>>>,
    inboxes: Vec<VecDeque<Delivered<M>>>,
    stats: NetworkStats,
    metrics: MetricsSnapshot,
    faults: FaultPlan,
    profile: DelayProfile,
    shuffle_seed: Option<u64>,
    seq: u64,
    /// Control-only enqueue counter feeding the ack-path drop schedule.
    control_seq: u64,
}

/// The paper's synchronous-rounds transport by name: build it with
/// [`DelayTransport::new`], the zero-delay profile. The name stays
/// because it documents the model the paper assumes, and because the
/// `perfbench` harness constructs its lockstep workloads through it.
pub type LockstepTransport<M> = DelayTransport<M>;

impl<M: Payload + Clone> DelayTransport<M> {
    /// Creates a fault-free synchronous network of `n` nodes: every
    /// message sent in round `r` arrives in round `r + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        Self::with_faults(n, FaultPlan::none(n), DelayProfile::synchronous())
    }

    /// Creates a delayed network with a fault schedule (whose
    /// [`FaultPlan::link_delay`] entries add to the profile's latency).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_faults(n: usize, faults: FaultPlan, profile: DelayProfile) -> Self {
        assert!(n > 0, "network needs at least one node");
        DelayTransport {
            n,
            round: 0,
            holding: BTreeMap::new(),
            inboxes: (0..n).map(|_| VecDeque::new()).collect(),
            stats: NetworkStats::default(),
            metrics: MetricsSnapshot::default(),
            faults,
            profile,
            shuffle_seed: None,
            seq: 0,
            control_seq: 0,
        }
    }

    /// Additionally permutes each recipient's same-tick arrivals with a
    /// seeded Fisher–Yates shuffle — delivery-order fuzzing that stays
    /// bit-replayable.
    pub fn with_inbox_shuffle(mut self, seed: u64) -> Self {
        self.shuffle_seed = Some(seed);
        self
    }

    /// The latency model in force.
    pub fn profile(&self) -> &DelayProfile {
        &self.profile
    }

    /// Queues one transmission of a payload of `bytes` bytes. The body
    /// is only materialised (`payload()`, a clone for broadcasts) when
    /// the transmission will be delivered.
    fn enqueue(
        &mut self,
        from: NodeId,
        to: NodeId,
        broadcast: bool,
        bytes: u64,
        control: bool,
        payload: impl FnOnce() -> M,
    ) {
        self.stats.point_to_point += 1;
        self.stats.bytes += bytes;
        self.seq += 1;
        let control_seq = control.then(|| {
            self.control_seq += 1;
            self.control_seq
        });
        let delay = self.profile.draw(self.seq) + self.faults.link_delay_or_zero(from, to);
        let reordered = self.faults.is_reordered(self.seq);
        record_enqueue(
            &mut self.metrics,
            from,
            to,
            bytes,
            1 + delay + u64::from(reordered),
        );
        // Loss is attributed at the pre-reorder landing round, as if the
        // message had not been displaced, so crash boundaries do not
        // depend on the reorder schedule.
        let fate = match classify_loss(
            &self.faults,
            from,
            to,
            self.round,
            self.round + delay,
            self.seq,
            control_seq,
        ) {
            Some(cause) => Err(cause),
            None => Ok(payload()),
        };
        // Only a delivered message is displaced by the reorder schedule;
        // a lost one is counted at its undisplaced landing tick.
        let due = self.round + 1 + delay + u64::from(reordered && fate.is_ok());
        self.holding.entry(due).or_default().push(Held {
            from,
            to,
            broadcast,
            fate,
        });
    }

    /// Enqueues a private point-to-point message.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range or `from == to`.
    pub fn send(&mut self, from: NodeId, to: NodeId, payload: M) {
        assert!(from.0 < self.n && to.0 < self.n, "node out of range");
        assert_ne!(from, to, "self-sends are local state, not messages");
        let bytes = payload.size_bytes() as u64;
        let control = payload.is_control();
        self.enqueue(from, to, false, bytes, control, || payload);
    }

    /// Publishes a message to every other node — `n − 1` point-to-point
    /// transmissions, each with its own delay draw.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range.
    pub fn broadcast(&mut self, from: NodeId, payload: M) {
        assert!(from.0 < self.n, "node out of range");
        self.stats.broadcasts += 1;
        let bytes = payload.size_bytes() as u64;
        let control = payload.is_control();
        for to in 0..self.n {
            if to == from.0 {
                continue;
            }
            self.enqueue(from, NodeId(to), true, bytes, control, || payload.clone());
        }
    }

    /// Advances one tick: messages whose due tick has arrived move into
    /// inboxes (in enqueue order, unless shuffled). Returns the number
    /// delivered.
    pub fn step(&mut self) -> u64 {
        let next = self.round + 1;
        let mut arrivals = self.holding.remove(&next).unwrap_or_default();
        if let Some(seed) = self.shuffle_seed {
            self.shuffle_per_recipient(&mut arrivals, seed);
        }
        let mut delivered = 0;
        for msg in arrivals {
            match msg.fate {
                Ok(payload) => {
                    self.inboxes[msg.to.0].push_back(Delivered {
                        from: msg.from,
                        broadcast: msg.broadcast,
                        payload,
                    });
                    delivered += 1;
                }
                Err(cause) => {
                    self.stats.dropped += 1;
                    record_drop(&mut self.metrics, cause);
                }
            }
        }
        self.stats.delivered += delivered;
        self.stats.rounds += 1;
        self.round = next;
        delivered
    }

    /// Seeded Fisher–Yates over each recipient's slice of this tick's
    /// arrivals. Only positions belonging to the same recipient swap, so
    /// cross-recipient structure is untouched.
    fn shuffle_per_recipient(&self, arrivals: &mut [Held<M>], seed: u64) {
        for node in 0..self.n {
            let slots: Vec<usize> = arrivals
                .iter()
                .enumerate()
                .filter(|(_, msg)| msg.to.0 == node)
                .map(|(i, _)| i)
                .collect();
            if slots.len() < 2 {
                continue;
            }
            let mut state = splitmix64(seed ^ (self.round << 20) ^ node as u64);
            for i in (1..slots.len()).rev() {
                state = splitmix64(state);
                let j = (state % (i as u64 + 1)) as usize;
                arrivals.swap(slots[i], slots[j]);
            }
        }
    }

    /// Drains and returns `node`'s inbox in arrival order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn take_inbox(&mut self, node: NodeId) -> Vec<Delivered<M>> {
        assert!(node.0 < self.n, "node out of range");
        self.inboxes[node.0].drain(..).collect()
    }

    /// The traffic counters.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// The transport-level metrics: per-link `link_messages` /
    /// `link_bytes`, the `delay_ticks` histogram of drawn delivery
    /// latencies (observed at enqueue) and per-cause `drop_*` counters.
    pub fn metrics(&self) -> &MetricsSnapshot {
        &self.metrics
    }

    /// The fault schedule.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The current tick number.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// `true` when nothing is held in flight and every inbox is drained.
    pub fn is_quiescent(&self) -> bool {
        self.holding.is_empty() && self.inboxes.iter().all(VecDeque::is_empty)
    }

    /// The earliest tick at which the transport can matter to a
    /// scheduler tick: *now* while any inbox holds undrained
    /// deliveries, otherwise the earliest held message's due tick,
    /// `None` when quiescent.
    pub fn next_due(&self) -> Option<u64> {
        if self.inboxes.iter().any(|q| !q.is_empty()) {
            return Some(self.round);
        }
        self.holding.keys().next().copied()
    }

    /// Fast-forwards to tick `target` exactly as repeated
    /// [`DelayTransport::step`] calls would. Stretches with no due
    /// arrivals collapse into a constant-time round/statistics jump;
    /// every round on which something falls due runs a real `step`, so
    /// delivery order, the round-seeded inbox shuffle and the
    /// loss-attribution chain are all bit-identical to stepping.
    pub fn advance_to(&mut self, target: u64) -> u64 {
        let mut delivered = 0;
        while self.round < target {
            match self.holding.keys().next() {
                Some(&due) => {
                    // A message due at tick `d` is moved by the step
                    // taken at round `d − 1`; rounds before that are
                    // dead air.
                    let idle_until = (due - 1).min(target);
                    if self.round < idle_until {
                        self.stats.rounds += idle_until - self.round;
                        self.round = idle_until;
                    }
                    if self.round < target {
                        delivered += self.step();
                    }
                }
                None => {
                    self.stats.rounds += target - self.round;
                    self.round = target;
                }
            }
        }
        delivered
    }
}

impl<M: Payload + Clone> Transport<M> for DelayTransport<M> {
    fn nodes(&self) -> usize {
        DelayTransport::nodes(self)
    }

    fn send(&mut self, from: NodeId, to: NodeId, payload: M) {
        DelayTransport::send(self, from, to, payload);
    }

    fn broadcast(&mut self, from: NodeId, payload: M) {
        DelayTransport::broadcast(self, from, payload);
    }

    fn take_inbox(&mut self, node: NodeId) -> Vec<Delivered<M>> {
        DelayTransport::take_inbox(self, node)
    }

    fn step(&mut self) -> u64 {
        DelayTransport::step(self)
    }

    fn round(&self) -> u64 {
        DelayTransport::round(self)
    }

    fn stats(&self) -> &NetworkStats {
        DelayTransport::stats(self)
    }

    fn metrics(&self) -> &MetricsSnapshot {
        DelayTransport::metrics(self)
    }

    fn faults(&self) -> &FaultPlan {
        DelayTransport::faults(self)
    }

    fn is_quiescent(&self) -> bool {
        DelayTransport::is_quiescent(self)
    }

    fn next_due(&self) -> Option<u64> {
        DelayTransport::next_due(self)
    }

    fn advance_to(&mut self, target: u64) -> u64 {
        DelayTransport::advance_to(self, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronous_profile_delivers_next_tick_like_lockstep() {
        let mut net: DelayTransport<u64> = DelayTransport::new(3);
        net.send(NodeId(0), NodeId(1), 42);
        net.broadcast(NodeId(2), 7);
        assert!(!net.is_quiescent());
        assert_eq!(net.step(), 3);
        let inbox = net.take_inbox(NodeId(1));
        assert_eq!(inbox.len(), 2);
        assert_eq!(inbox[0].payload, 42);
        assert!(inbox[1].broadcast);
        assert_eq!(net.stats().point_to_point, 3);
        assert_eq!(net.stats().broadcasts, 1);
    }

    #[test]
    fn fixed_delay_holds_messages_for_base_extra_ticks() {
        let mut net: DelayTransport<u64> =
            DelayTransport::with_faults(2, FaultPlan::none(2), DelayProfile::fixed(2));
        net.send(NodeId(0), NodeId(1), 5);
        assert_eq!(net.step(), 0, "tick 1: still held");
        assert_eq!(net.step(), 0, "tick 2: still held");
        assert_eq!(net.step(), 1, "tick 3: due");
        assert_eq!(net.take_inbox(NodeId(1)).len(), 1);
        assert!(net.is_quiescent());
    }

    #[test]
    fn per_link_schedule_adds_to_the_profile() {
        let plan = FaultPlan::none(3).delay_link(NodeId(0), NodeId(1), 2);
        let mut net: DelayTransport<u64> =
            DelayTransport::with_faults(3, plan, DelayProfile::synchronous());
        net.send(NodeId(0), NodeId(1), 1); // delayed link: due at tick 3
        net.send(NodeId(0), NodeId(2), 2); // plain link: due at tick 1
        net.step();
        assert_eq!(net.take_inbox(NodeId(2)).len(), 1);
        assert!(net.take_inbox(NodeId(1)).is_empty());
        net.step();
        net.step();
        assert_eq!(net.take_inbox(NodeId(1)).len(), 1);
    }

    #[test]
    fn jitter_is_bounded_and_replayable() {
        let profile = DelayProfile::jittered(1, 3, 99);
        let run = |profile: DelayProfile| {
            let mut net: DelayTransport<u64> =
                DelayTransport::with_faults(2, FaultPlan::none(2), profile);
            for k in 0..20 {
                net.send(NodeId(0), NodeId(1), k);
            }
            let mut arrivals = Vec::new();
            for tick in 0..12 {
                net.step();
                for msg in net.take_inbox(NodeId(1)) {
                    arrivals.push((tick, msg.payload));
                }
            }
            assert!(net.is_quiescent(), "all messages within base+jitter ticks");
            arrivals
        };
        let first = run(profile);
        assert_eq!(first, run(profile), "same seed, same arrival schedule");
        for (tick, _) in &first {
            assert!(
                (1..=4).contains(tick),
                "arrival tick {tick} outside 1 + base..=base+jitter"
            );
        }
        assert!(
            first != run(DelayProfile::jittered(1, 3, 100)),
            "different seed, different schedule"
        );
    }

    #[test]
    fn inbox_shuffle_permutes_within_a_recipient_only() {
        let mut plain: DelayTransport<u64> = DelayTransport::new(3);
        let mut shuffled: DelayTransport<u64> = DelayTransport::new(3).with_inbox_shuffle(7);
        for net in [&mut plain, &mut shuffled] {
            for k in 0..8 {
                net.send(NodeId(0), NodeId(1), k);
                net.send(NodeId(0), NodeId(2), 100 + k);
            }
            net.step();
        }
        let base1: Vec<u64> = plain
            .take_inbox(NodeId(1))
            .into_iter()
            .map(|d| d.payload)
            .collect();
        let mix1: Vec<u64> = shuffled
            .take_inbox(NodeId(1))
            .into_iter()
            .map(|d| d.payload)
            .collect();
        let mut sorted = mix1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, base1, "shuffle is a permutation of the same set");
        assert_ne!(mix1, base1, "seed 7 actually permutes this batch");
        let mix2: Vec<u64> = shuffled
            .take_inbox(NodeId(2))
            .into_iter()
            .map(|d| d.payload)
            .collect();
        let mut sorted2 = mix2.clone();
        sorted2.sort_unstable();
        assert_eq!(sorted2, (100..108).collect::<Vec<u64>>());
    }

    /// Regression test for the periodic-drop drift bug: the drop
    /// schedule used to advance per *delivered* message inside
    /// [`DelayTransport::step`], so jitter (which permutes delivery
    /// order relative to enqueue order) made the same [`FaultPlan`]
    /// drop different logical messages than the synchronous (lockstep)
    /// profile. Pinning the schedule to the enqueue-time sequence number
    /// makes the selected set profile-invariant.
    #[test]
    fn periodic_drops_select_the_same_messages_as_lockstep_under_jitter() {
        let n = 4;
        // Each tick, every ordered pair exchanges one uniquely-numbered
        // message; then the network drains to quiescence.
        let surviving = |profile: DelayProfile| {
            let mut net: DelayTransport<u64> =
                DelayTransport::with_faults(n, FaultPlan::none(n).drop_every(3), profile);
            let mut payload = 0;
            for _ in 0..4 {
                for from in 0..n {
                    for to in (0..n).filter(|&to| to != from) {
                        net.send(NodeId(from), NodeId(to), payload);
                        payload += 1;
                    }
                }
                net.step();
            }
            let mut delivered = Vec::new();
            loop {
                for node in 0..n {
                    delivered.extend(net.take_inbox(NodeId(node)).into_iter().map(|d| d.payload));
                }
                if net.is_quiescent() {
                    break;
                }
                net.step();
            }
            delivered.sort_unstable();
            (delivered, net.stats().dropped)
        };
        let lockstep = surviving(DelayProfile::synchronous());
        assert_eq!(lockstep.1, 16, "every third of 48 messages");
        assert_eq!(
            surviving(DelayProfile::jittered(0, 3, 0xBEEF)),
            lockstep,
            "a fault plan must drop the same logical messages under every profile"
        );
    }

    #[test]
    fn next_due_reports_inboxes_then_earliest_held_due() {
        let plan = FaultPlan::none(3).delay_link(NodeId(0), NodeId(2), 4);
        let mut net: DelayTransport<u64> =
            DelayTransport::with_faults(3, plan, DelayProfile::fixed(1));
        assert_eq!(net.next_due(), None);
        net.send(NodeId(0), NodeId(1), 1); // due at tick 2
        net.send(NodeId(0), NodeId(2), 2); // due at tick 6
        assert_eq!(net.next_due(), Some(2));
        net.step();
        net.step();
        assert_eq!(net.next_due(), Some(2), "undrained inbox is due now");
        net.take_inbox(NodeId(1));
        assert_eq!(net.next_due(), Some(6), "next event is the held message");
        net.advance_to(6);
        net.take_inbox(NodeId(2));
        assert_eq!(net.next_due(), None);
    }

    /// `advance_to` must be indistinguishable from stepping — including
    /// the round-seeded inbox shuffle and enqueue-order drop schedules,
    /// both of which read the round counter at delivery time.
    #[test]
    fn advance_to_matches_repeated_steps_with_jitter_shuffle_and_drops() {
        let build = || -> DelayTransport<u64> {
            DelayTransport::with_faults(
                3,
                FaultPlan::none(3).drop_every(4),
                DelayProfile::jittered(1, 5, 0xABCD),
            )
            .with_inbox_shuffle(9)
        };
        let mut stepped = build();
        let mut jumped = build();
        for net in [&mut stepped, &mut jumped] {
            for k in 0..12 {
                net.send(NodeId(0), NodeId(1), k);
                net.send(NodeId(2), NodeId(1), 100 + k);
                net.send(NodeId(0), NodeId(2), 200 + k);
            }
        }
        let mut total = 0;
        for _ in 0..10 {
            total += stepped.step();
        }
        assert_eq!(jumped.advance_to(10), total);
        assert_eq!(jumped.round(), stepped.round());
        assert_eq!(jumped.stats(), stepped.stats());
        assert_eq!(jumped.metrics(), stepped.metrics());
        for node in 0..3 {
            assert_eq!(
                jumped.take_inbox(NodeId(node)),
                stepped.take_inbox(NodeId(node)),
                "inbox {node} diverged"
            );
        }
    }

    /// The delayed-crash path can end a run with traffic still held:
    /// `in_flight` must report it rather than underflow.
    #[test]
    fn in_flight_counts_messages_still_held_at_run_end() {
        let plan = FaultPlan::none(3).crash_at(NodeId(1), 2);
        let mut net: DelayTransport<u64> =
            DelayTransport::with_faults(3, plan, DelayProfile::fixed(4));
        net.send(NodeId(0), NodeId(1), 1);
        net.send(NodeId(2), NodeId(1), 2);
        net.send(NodeId(0), NodeId(2), 3);
        net.step();
        net.step();
        // "Run end": every message is still held (due tick 5).
        assert!(!net.is_quiescent());
        assert_eq!(net.stats().delivered, 0);
        assert_eq!(net.stats().dropped, 0);
        assert_eq!(net.stats().in_flight(), 3);
    }

    #[test]
    fn metrics_record_links_delays_and_drop_causes() {
        let plan = FaultPlan::none(3)
            .crash_at(NodeId(1), 0)
            .drop_link(NodeId(0), NodeId(2));
        let mut net: DelayTransport<u64> =
            DelayTransport::with_faults(3, plan, DelayProfile::fixed(1));
        net.send(NodeId(0), NodeId(1), 1); // recipient crashed
        net.send(NodeId(1), NodeId(2), 2); // sender crashed
        net.send(NodeId(0), NodeId(2), 3); // dropped link
        net.send(NodeId(2), NodeId(0), 4); // delivered
        net.step();
        net.step();
        let m = net.metrics();
        assert_eq!(m.counter(&Key::named("link_messages").agent(0).peer(1)), 1);
        assert_eq!(m.counter(&Key::named("link_bytes").agent(2).peer(0)), 8);
        assert_eq!(m.counter_total("link_messages"), 4);
        assert_eq!(m.counter(&Key::named("drop_sender_crashed")), 1);
        assert_eq!(m.counter(&Key::named("drop_recipient_crashed")), 1);
        assert_eq!(m.counter(&Key::named("drop_link")), 1);
        assert_eq!(m.counter(&Key::named("drop_periodic")), 0);
        let h = m.histogram(&Key::named("delay_ticks")).expect("series");
        assert_eq!(h.total(), 4, "every enqueue observes its drawn latency");
        // fixed(1): all four messages drew a 2-tick delivery latency.
        assert_eq!(h.counts.get(1), Some(&4));
    }

    /// A payload whose clones are counted, to observe the sender-crash
    /// tombstone.
    #[derive(Debug)]
    struct Counted {
        clones: std::rc::Rc<std::cell::Cell<u32>>,
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.clones.set(self.clones.get() + 1);
            Counted {
                clones: self.clones.clone(),
            }
        }
    }

    impl Payload for Counted {
        fn size_bytes(&self) -> usize {
            8
        }
    }

    /// A broadcast from a sender crashed at the send tick stores no
    /// clones, yet is accounted and numbered exactly like stored
    /// traffic: its `n − 1` tombstones take sequence numbers 1–3, so the
    /// `drop_every(3)` schedule lands on seqs 6 and 9 — the third and
    /// sixth of node 0's later sends. A live sender's broadcast clones
    /// only for the recipients it will reach.
    #[test]
    fn sender_crashed_broadcast_stores_no_clones_and_keeps_numbering() {
        let clones = std::rc::Rc::new(std::cell::Cell::new(0));
        let msg = || Counted {
            clones: clones.clone(),
        };
        let plan = FaultPlan::none(4).crash_at(NodeId(1), 0).drop_every(3);
        let mut net: DelayTransport<Counted> =
            DelayTransport::with_faults(4, plan, DelayProfile::synchronous());
        net.broadcast(NodeId(1), msg());
        assert_eq!(
            clones.get(),
            0,
            "a crashed sender's broadcast is never cloned"
        );
        for _ in 0..6 {
            net.send(NodeId(0), NodeId(2), msg());
        }
        net.step();
        assert_eq!(net.take_inbox(NodeId(2)).len(), 4, "sends 3 and 6 dropped");
        let stats = net.stats();
        assert_eq!(stats.point_to_point, 9);
        assert_eq!(stats.bytes, 9 * 8);
        assert_eq!(stats.dropped, 5);
        assert_eq!(net.metrics().counter_total("drop_sender_crashed"), 3);
        assert_eq!(net.metrics().counter_total("drop_periodic"), 2);
        // Seqs 10–12: node 0 receives, crashed node 1 does not, and seq
        // 12 is periodic.
        net.broadcast(NodeId(2), msg());
        assert_eq!(clones.get(), 1, "only the delivered copy is cloned");
        net.step();
        assert_eq!(net.take_inbox(NodeId(0)).len(), 1);
        assert_eq!(net.metrics().counter_total("drop_recipient_crashed"), 1);
        assert_eq!(net.metrics().counter_total("drop_periodic"), 3);
    }

    /// A toy payload marking odd values as control traffic, for the
    /// ack-path tests.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Frame(u64);

    impl Payload for Frame {
        fn size_bytes(&self) -> usize {
            8
        }

        fn is_control(&self) -> bool {
            self.0 % 2 == 1
        }
    }

    #[test]
    fn ack_path_and_reorder_schedules_mirror_lockstep() {
        // Both knobs at once on the synchronous profile: exactly the
        // selected control frames drop, and the reordered frames land a
        // tick late.
        let plan = FaultPlan::none(2).drop_acks_every(2).reorder_every(5);
        let mut net: DelayTransport<Frame> =
            DelayTransport::with_faults(2, plan, DelayProfile::synchronous());
        for f in (1..=10).map(Frame) {
            net.send(NodeId(0), NodeId(1), f);
        }
        let mut seen = Vec::new();
        for tick in 1..=3u64 {
            net.step();
            seen.extend(
                net.take_inbox(NodeId(1))
                    .into_iter()
                    .map(|d| (tick, d.payload.0)),
            );
        }
        assert!(net.is_quiescent());
        // Control slots: frames 1,3,5,7,9 → #1..#5; even slots drop
        // (frames 3, 7). Reorder slots: seqs 5 and 10 → Frames 5 and 10
        // land a tick late.
        let expected: Vec<(u64, u64)> = vec![
            (1, 1),
            (1, 2),
            (1, 4),
            (1, 6),
            (1, 8),
            (1, 9),
            (2, 5),
            (2, 10),
        ];
        assert_eq!(seen, expected);
        assert_eq!(net.metrics().counter_total("drop_ack_path"), 2);
        assert_eq!(net.stats().dropped, 2);
    }

    #[test]
    fn reordered_messages_record_their_penalized_latency() {
        let plan = FaultPlan::none(2).reorder_every(3);
        let mut net: DelayTransport<u64> =
            DelayTransport::with_faults(2, plan, DelayProfile::synchronous());
        for k in 0..3 {
            net.send(NodeId(0), NodeId(1), k);
        }
        let h = net
            .metrics()
            .histogram(&Key::named("delay_ticks"))
            .expect("series");
        assert_eq!(h.total(), 3);
        assert_eq!(h.counts.get(0), Some(&2), "two on-time one-tick arrivals");
        assert_eq!(h.counts.get(1), Some(&1), "one two-tick reordered arrival");
    }

    #[test]
    fn crash_and_drop_semantics_mirror_lockstep() {
        let plan = FaultPlan::none(3)
            .crash_at(NodeId(1), 0)
            .drop_link(NodeId(0), NodeId(2));
        let mut net: DelayTransport<u64> =
            DelayTransport::with_faults(3, plan, DelayProfile::synchronous());
        net.send(NodeId(0), NodeId(1), 1); // to crashed node
        net.send(NodeId(1), NodeId(2), 2); // from crashed node
        net.send(NodeId(0), NodeId(2), 3); // dropped link
        net.send(NodeId(2), NodeId(0), 4); // unaffected
        net.step();
        assert!(net.take_inbox(NodeId(1)).is_empty());
        assert!(net.take_inbox(NodeId(2)).is_empty());
        assert_eq!(net.take_inbox(NodeId(0)).len(), 1);
        assert_eq!(net.stats().dropped, 3);
        assert_eq!(net.stats().delivered, 1);
        assert_eq!(net.stats().in_flight(), 0);
    }
}
