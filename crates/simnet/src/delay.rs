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
use dmw_obs::{Histogram, Key, MetricsSnapshot, DELAY_TICK_BUCKETS};
use std::cell::OnceCell;
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
/// recipient crash, then permanent link drop, transient partition,
/// periodic schedule, and seeded probabilistic loss last).
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
/// [`FaultPlan::is_probabilistically_dropped`]. Transient windows are
/// evaluated against `sent_round` for the same reason: a message is lost
/// iff the link was down when it was *sent*, however long it then spends
/// in flight.
fn classify_loss(
    faults: &FaultPlan,
    from: NodeId,
    to: NodeId,
    sent_round: u64,
    recv_round: u64,
    seq: u64,
) -> Option<DropCause> {
    if faults.is_crashed(from, sent_round) {
        Some(DropCause::SenderCrashed)
    } else if faults.is_crashed(to, recv_round) {
        Some(DropCause::RecipientCrashed)
    } else if faults.is_link_dropped(from, to) {
        Some(DropCause::Link)
    } else if faults.is_transiently_dropped(from, to, sent_round) {
        Some(DropCause::Transient)
    } else if faults.is_periodically_dropped(seq) {
        Some(DropCause::Periodic)
    } else if faults.is_probabilistically_dropped(seq) {
        Some(DropCause::Probabilistic)
    } else {
        None
    }
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
/// covered the send round, or the periodic or seeded probabilistic
/// schedule claims the transmission. Each loss is counted under its
/// `drop_*` metric.
/// Traffic counters follow one convention (`point_to_point`/`bytes` at
/// enqueue, `delivered`/`dropped` at delivery), so Theorem 11's cost
/// accounting is unchanged by asynchrony.
///
/// Per-link traffic and delivery latencies are tallied at enqueue into
/// dense arrays, O(1) per transmission; [`Transport::metrics`] turns
/// them into a [`MetricsSnapshot`] when first read and keeps it until
/// the next enqueue or step.
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
    /// Messages enqueued per directed link, at index `from · n + to`.
    link_messages: Vec<u64>,
    /// Bytes enqueued per directed link, indexed as `link_messages`.
    link_bytes: Vec<u64>,
    /// Enqueue-time delivery latencies, bucketed against
    /// [`DELAY_TICK_BUCKETS`] with a trailing overflow bucket.
    delay_ticks: [u64; DELAY_TICK_BUCKETS.len() + 1],
    /// The `drop_*` counters, recorded as messages fall due.
    drops: MetricsSnapshot,
    /// The snapshot [`Transport::metrics`] last built; every enqueue
    /// and step clears it.
    snapshot: OnceCell<MetricsSnapshot>,
    faults: FaultPlan,
    profile: DelayProfile,
    shuffle_seed: Option<u64>,
    seq: u64,
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
            link_messages: vec![0; n * n],
            link_bytes: vec![0; n * n],
            delay_ticks: [0; DELAY_TICK_BUCKETS.len() + 1],
            drops: MetricsSnapshot::default(),
            snapshot: OnceCell::new(),
            faults,
            profile,
            shuffle_seed: None,
            seq: 0,
        }
    }

    /// Additionally permutes each recipient's same-tick arrivals with a
    /// seeded Fisher–Yates shuffle — delivery-order fuzzing that stays
    /// bit-replayable.
    pub fn with_inbox_shuffle(mut self, seed: u64) -> Self {
        self.shuffle_seed = Some(seed);
        self
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
        payload: impl FnOnce() -> M,
    ) {
        self.stats.point_to_point += 1;
        self.stats.bytes += bytes;
        self.seq += 1;
        let delay = self.profile.draw(self.seq) + self.faults.link_delay(from, to);
        let link = from.0 * self.n + to.0;
        self.link_messages[link] += 1;
        self.link_bytes[link] += bytes;
        self.delay_ticks[DELAY_TICK_BUCKETS.partition_point(|&b| b < 1 + delay)] += 1;
        self.snapshot.take();
        let fate = match classify_loss(
            &self.faults,
            from,
            to,
            self.round,
            self.round + delay,
            self.seq,
        ) {
            Some(cause) => Err(cause),
            None => Ok(payload()),
        };
        let due = self.round + 1 + delay;
        self.holding.entry(due).or_default().push(Held {
            from,
            to,
            broadcast,
            fate,
        });
    }

    /// Seeded Fisher–Yates over each recipient's slice of this tick's
    /// arrivals. Only positions belonging to the same recipient swap, so
    /// cross-recipient structure is untouched.
    fn shuffle_per_recipient(&self, arrivals: &mut [Held<M>], seed: u64) {
        // Bucket the positions by recipient in one counting-sort pass:
        // node `k`'s positions, in arrival order, are
        // `by_node[starts[k]..starts[k + 1]]`.
        let mut starts = vec![0; self.n + 1];
        for msg in arrivals.iter() {
            starts[msg.to.0 + 1] += 1;
        }
        for node in 0..self.n {
            starts[node + 1] += starts[node];
        }
        let mut fill = starts.clone();
        let mut by_node = vec![0; arrivals.len()];
        for (i, msg) in arrivals.iter().enumerate() {
            by_node[fill[msg.to.0]] = i;
            fill[msg.to.0] += 1;
        }
        for node in 0..self.n {
            let slots = &by_node[starts[node]..starts[node + 1]];
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

    /// Builds the snapshot of the tallies: the `drop_*` counters, one
    /// `link_bytes` and one `link_messages` counter per link that
    /// carried a message (a link of empty payloads reads 0 bytes), and
    /// the `delay_ticks` histogram once anything was enqueued.
    fn materialise(&self) -> MetricsSnapshot {
        let counters = self
            .drops
            .counters
            .iter()
            .map(|(&key, &value)| (key, value))
            .chain(link_entries(
                "link_bytes",
                self.n,
                &self.link_messages,
                &self.link_bytes,
            ))
            .chain(link_entries(
                "link_messages",
                self.n,
                &self.link_messages,
                &self.link_messages,
            ))
            .collect();
        let mut snapshot = MetricsSnapshot {
            counters,
            ..self.drops.clone()
        };
        if self.seq > 0 {
            snapshot.histograms.insert(
                Key::named("delay_ticks"),
                Histogram {
                    bounds: DELAY_TICK_BUCKETS,
                    counts: self.delay_ticks.to_vec(),
                },
            );
        }
        snapshot
    }
}

/// The `name{agent=from,peer=to}` counters of an `n × n` link tally
/// (`tally[from · n + to]`), in key order, for every link whose
/// `messages` count is non-zero.
fn link_entries<'a>(
    name: &'static str,
    n: usize,
    messages: &'a [u64],
    tally: &'a [u64],
) -> impl Iterator<Item = (Key, u64)> + 'a {
    messages
        .iter()
        .zip(tally)
        .enumerate()
        .filter(|(_, (&count, _))| count > 0)
        .map(move |(link, (_, &value))| {
            let key = Key::named(name)
                .agent((link / n) as u32)
                .peer((link % n) as u32);
            (key, value)
        })
}

impl<M: Payload + Clone> Transport<M> for DelayTransport<M> {
    fn nodes(&self) -> usize {
        self.n
    }

    fn send(&mut self, from: NodeId, to: NodeId, payload: M) {
        assert!(from.0 < self.n && to.0 < self.n, "node out of range");
        assert_ne!(from, to, "self-sends are local state, not messages");
        let bytes = payload.size_bytes() as u64;
        self.enqueue(from, to, false, bytes, || payload);
    }

    /// `n − 1` point-to-point transmissions, each with its own delay draw.
    fn broadcast(&mut self, from: NodeId, payload: M) {
        assert!(from.0 < self.n, "node out of range");
        self.stats.broadcasts += 1;
        let bytes = payload.size_bytes() as u64;
        for to in 0..self.n {
            if to == from.0 {
                continue;
            }
            self.enqueue(from, NodeId(to), true, bytes, || payload.clone());
        }
    }

    fn take_inbox(&mut self, node: NodeId) -> Vec<Delivered<M>> {
        assert!(node.0 < self.n, "node out of range");
        self.inboxes[node.0].drain(..).collect()
    }

    /// Advances one tick: messages whose due tick has arrived move into
    /// inboxes (in enqueue order, unless shuffled). Returns the number
    /// delivered.
    fn step(&mut self) -> u64 {
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
                    record_drop(&mut self.drops, cause);
                }
            }
        }
        self.snapshot.take();
        self.stats.delivered += delivered;
        self.stats.rounds += 1;
        self.round = next;
        delivered
    }

    fn round(&self) -> u64 {
        self.round
    }

    fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    fn metrics(&self) -> &MetricsSnapshot {
        self.snapshot.get_or_init(|| self.materialise())
    }

    fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    fn is_quiescent(&self) -> bool {
        self.holding.is_empty() && self.inboxes.iter().all(VecDeque::is_empty)
    }

    /// The earliest tick at which the transport can matter to a
    /// scheduler tick: *now* while any inbox holds undrained
    /// deliveries, otherwise the earliest held message's due tick,
    /// `None` when quiescent.
    fn next_due(&self) -> Option<u64> {
        if self.inboxes.iter().any(|q| !q.is_empty()) {
            return Some(self.round);
        }
        self.holding.keys().next().copied()
    }

    /// Fast-forwards to tick `target` exactly as repeated
    /// [`Transport::step`] calls would. Stretches with no due
    /// arrivals collapse into a constant-time round/statistics jump;
    /// every round on which something falls due runs a real `step`, so
    /// delivery order, the round-seeded inbox shuffle and the
    /// loss-attribution chain are all bit-identical to stepping.
    fn advance_to(&mut self, target: u64) -> u64 {
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

    /// The per-message recording the transport did before it tallied
    /// links into arrays: one `incr` per link counter and one `observe`
    /// per transmission. The reference for [`DelayTransport::metrics`].
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

    /// A transport paired with a snapshot recorded message by message:
    /// each enqueue through [`record_enqueue`], each loss through
    /// [`record_drop`] once its due tick is stepped.
    struct Reference {
        net: DelayTransport<Vec<u64>>,
        metrics: MetricsSnapshot,
        seq: u64,
        /// `(due tick, cause)` of every queued transmission that will be
        /// lost.
        losses: Vec<(u64, DropCause)>,
    }

    impl Reference {
        fn enqueue(&mut self, from: NodeId, to: NodeId, bytes: u64) {
            self.seq += 1;
            let round = self.net.round();
            let delay = self.net.profile.draw(self.seq) + self.net.faults.link_delay(from, to);
            record_enqueue(&mut self.metrics, from, to, bytes, 1 + delay);
            let faults = &self.net.faults;
            if let Some(cause) = classify_loss(faults, from, to, round, round + delay, self.seq) {
                self.losses.push((round + 1 + delay, cause));
            }
        }

        fn send(&mut self, from: usize, to: usize, payload: Vec<u64>) {
            self.enqueue(NodeId(from), NodeId(to), payload.size_bytes() as u64);
            self.net.send(NodeId(from), NodeId(to), payload);
        }

        fn broadcast(&mut self, from: usize, payload: Vec<u64>) {
            for to in (0..self.net.nodes()).filter(|&to| to != from) {
                self.enqueue(NodeId(from), NodeId(to), payload.size_bytes() as u64);
            }
            self.net.broadcast(NodeId(from), payload);
        }

        /// Records the losses that fell due by the transport's round.
        fn settle(&mut self) {
            let round = self.net.round();
            for &(_, cause) in self.losses.iter().filter(|(due, _)| *due <= round) {
                record_drop(&mut self.metrics, cause);
            }
            self.losses.retain(|(due, _)| *due > round);
        }
    }

    /// A random fault plan and delay profile over `n` nodes: crashes,
    /// dropped links, periodic loss and per-link delays long enough to
    /// reach the histogram's overflow bucket.
    fn random_setup(rng: &mut rand::rngs::StdRng, n: usize) -> (FaultPlan, DelayProfile) {
        use rand::Rng;
        let mut plan = FaultPlan::none(n);
        for _ in 0..rng.gen_range(0..3usize) {
            plan = plan.crash_at(NodeId(rng.gen_range(0..n)), rng.gen_range(0..12u64));
        }
        for _ in 0..rng.gen_range(0..3usize) {
            plan = plan.drop_link(NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
        }
        if rng.gen_bool(0.5) {
            plan = plan.drop_every(rng.gen_range(2..6u64));
        }
        for _ in 0..rng.gen_range(0..4usize) {
            let (from, to) = (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
            plan = plan.delay_link(from, to, rng.gen_range(0..20u64));
        }
        let profile = match rng.gen_range(0..3u32) {
            0 => DelayProfile::synchronous(),
            1 => DelayProfile::fixed(rng.gen_range(0..4u64)),
            _ => DelayProfile::jittered(rng.gen_range(0..3u64), rng.gen_range(0..6u64), rng.gen()),
        };
        (plan, profile)
    }

    proptest::proptest! {
        /// The snapshot built from the dense tallies equals the one the
        /// per-message recording gives, over random plans, profiles and
        /// traffic (empty payloads make 0-byte links), read in the
        /// middle of a run and again after more traffic.
        #[test]
        fn materialised_snapshot_matches_per_message_recording(seed in proptest::num::u64::ANY) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..7usize);
            let (plan, profile) = random_setup(&mut rng, n);
            let mut reference = Reference {
                net: DelayTransport::with_faults(n, plan, profile),
                metrics: MetricsSnapshot::default(),
                seq: 0,
                losses: Vec::new(),
            };
            for _ in 0..rng.gen_range(0..60usize) {
                let from = rng.gen_range(0..n);
                let payload: Vec<u64> = (0..rng.gen_range(0..3usize)).map(|k| k as u64).collect();
                match rng.gen_range(0..6u32) {
                    0 | 1 if n > 1 => {
                        let to = (from + rng.gen_range(1..n)) % n;
                        reference.send(from, to, payload);
                    }
                    2 => reference.broadcast(from, payload),
                    3 => {
                        reference.net.step();
                    }
                    4 => {
                        let target = reference.net.round() + rng.gen_range(0..8u64);
                        reference.net.advance_to(target);
                    }
                    _ => {
                        reference.settle();
                        proptest::prop_assert_eq!(reference.net.metrics(), &reference.metrics);
                    }
                }
            }
            let drained = reference.net.round() + 64;
            reference.net.advance_to(drained);
            reference.settle();
            proptest::prop_assert_eq!(reference.net.metrics(), &reference.metrics);
        }
    }

    /// The shuffle as it was before its one-pass bucketing: a rescan of
    /// the arrivals per node.
    fn shuffle_by_rescan(n: usize, round: u64, arrivals: &mut [Held<u64>], seed: u64) {
        for node in 0..n {
            let slots: Vec<usize> = arrivals
                .iter()
                .enumerate()
                .filter(|(_, msg)| msg.to.0 == node)
                .map(|(i, _)| i)
                .collect();
            if slots.len() < 2 {
                continue;
            }
            let mut state = splitmix64(seed ^ (round << 20) ^ node as u64);
            for i in (1..slots.len()).rev() {
                state = splitmix64(state);
                let j = (state % (i as u64 + 1)) as usize;
                arrivals.swap(slots[i], slots[j]);
            }
        }
    }

    proptest::proptest! {
        /// The bucketed shuffle makes the same swaps as the rescan.
        #[test]
        fn bucketed_shuffle_matches_the_rescan(seed in proptest::num::u64::ANY) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..9usize);
            let mut net: DelayTransport<u64> = DelayTransport::new(n);
            net.round = rng.gen_range(0..100u64);
            let arrivals: Vec<Held<u64>> = (0..rng.gen_range(0..40u64))
                .map(|k| Held {
                    from: NodeId(0),
                    to: NodeId(rng.gen_range(0..n)),
                    broadcast: false,
                    fate: Ok(k),
                })
                .collect();
            let shuffle_seed: u64 = rng.gen();
            let mut bucketed = arrivals.clone();
            net.shuffle_per_recipient(&mut bucketed, shuffle_seed);
            let mut rescanned = arrivals;
            shuffle_by_rescan(n, net.round, &mut rescanned, shuffle_seed);
            let order = |held: &[Held<u64>]| -> Vec<Result<u64, DropCause>> {
                held.iter().map(|h| h.fate).collect()
            };
            proptest::prop_assert_eq!(order(&bucketed), order(&rescanned));
        }
    }
}
