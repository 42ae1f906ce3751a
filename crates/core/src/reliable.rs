//! Reliable delivery: the per-agent ack/retransmit sublayer.
//!
//! In recovery mode (see [`crate::runner::DmwRunner::with_recovery`])
//! the runner interposes one [`ReliableEndpoint`] between each agent
//! and the transport. Every outbound protocol message is wrapped in a
//! [`Body::Sealed`] envelope carrying a per-link sequence number and a
//! piggybacked cumulative ack; inbound envelopes are unsealed,
//! deduplicated and released to the agent *in sequence order*, so the
//! agent above sees exactly the lossless message stream whatever the
//! network drops. When the retry budget against a peer is exhausted the
//! endpoint marks the peer *suspected dead*, clears the link, and
//! suppresses further traffic toward it — the graceful-degradation
//! signal the runner's exclusion vote consumes (see
//! `docs/recovery.md`).
//!
//! The default **adaptive** endpoint keeps recovery traffic
//! proportional to actual loss, with six cooperating mechanisms:
//!
//! 1. **Per-link RTT estimation** ([`RttEstimator`]): every clean ack
//!    round-trip (first transmission, never retransmitted — Karn's
//!    rule) feeds a fixed-point smoothed estimate plus variance, and
//!    the retransmit timeout becomes `srtt + 4·rttvar`, clamped to
//!    `[MIN_RTO, base_timeout]`. The clamp ceiling is what keeps
//!    [`RetryPolicy::worst_case_repair`] valid unchanged: the adaptive
//!    timeout only ever *shortens* the schedule, so the classic
//!    `base_timeout · 2^budget` window still dominates every adaptive
//!    repair and the runner's auto-scaled patience/round budgets (and
//!    the event engine's `next_timer` horizon) need no re-derivation.
//! 2. **Selective acknowledgment**: standalone [`Body::Ack`]s carry up
//!    to [`SACK_MAX_RANGES`] closed ranges describing what is buffered
//!    beyond the cumulative ack, letting the peer retire
//!    delivered-but-unackable tail messages instead of retransmitting
//!    them when a single gap stalls the cumulative ack. Overflowing
//!    range sets degrade to the cumulative-only contract.
//! 3. **NACK fast path with gap repair**: an out-of-order arrival
//!    triggers one [`Body::Nack`] naming exactly the missing range; the
//!    peer answers on its next tick with a single [`Body::Repair`]
//!    envelope coalescing *every* payload it owes on that link, without
//!    burning retry-budget attempts. Recovery traffic therefore scales
//!    with loss *events*, not lost payloads, and a monotone
//!    nack-watermark per link suppresses nack storms for gaps already
//!    requested.
//! 4. **Coalesced repair with a gather window**: every due payload on
//!    a link — timer-overdue and nack-marked alike — merges into one
//!    [`Body::Repair`] envelope per tick, and once the link has
//!    measured a round trip a due repair waits two extra ticks so
//!    losses from adjacent rounds join the same envelope. Unacked
//!    payloads older than the link's smoothed round trip ride any
//!    outgoing repair for free instead of becoming solo envelopes
//!    later.
//! 5. **Repair-on-seal**: a fresh envelope leaving for a peer absorbs
//!    any payload whose retransmission is already due on that link —
//!    the merged envelope replaces a send that was leaving anyway, so
//!    only the payload copies count as recovery overhead.
//! 6. **Ack echo**: adaptive standalone acks ship two back-to-back
//!    copies. Consecutive enqueue slots can never both be multiples of
//!    a periodic drop period `k ≥ 2`, so a deterministic loss schedule
//!    cannot silently eat an acknowledgment and convert delivered data
//!    into timer-driven duplicate storms.
//!
//! [`ReliableEndpoint::classic`] switches a link back to the v3
//! fixed-backoff behaviour (per-payload [`Body::Sealed`]
//! retransmissions, cumulative acks only) — the "before" arm of the
//! bench's recovery comparison.
//!
//! Everything here is driven by logical scheduler ticks and iterates in
//! peer-index order, so recovery behaviour is bit-replayable.

use crate::messages::Body;
use dmw_obs::{Key, MetricsSink, MetricsSnapshot};
use dmw_simnet::{Delivered, NodeId, Recipient};
use std::collections::BTreeMap;

/// Default first-retransmit timeout in scheduler ticks.
pub const RETRY_BASE_TIMEOUT: u64 = 4;

/// Default bound on retransmit attempts per message. Every retransmit
/// loop in this module is bounded by this budget (lint rule L8).
pub const RETRY_BUDGET: u32 = 5;

/// Floor on the adaptive retransmit timeout: one round out, one round
/// back is the fastest any ack can arrive on the simulated transports,
/// so timing out below 2 ticks could only produce spurious
/// retransmissions.
pub const MIN_RTO: u64 = 2;

/// Wire bound on selective-ack range sets. Beyond this many disjoint
/// gaps the ack degrades to the cumulative-only contract — the codec
/// rejects anything larger, so a range explosion cannot bloat control
/// traffic.
pub const SACK_MAX_RANGES: usize = 4;

/// Timeout/backoff parameters of the reliable sublayer.
///
/// Attempt `k` (0-based, `k < budget`) of an unacked message fires
/// `rto << k` ticks after the previous transmission, where `rto` is the
/// link's adaptive timeout (classic links pin `rto = base_timeout`).
/// The adaptive `rto` never exceeds `base_timeout`, so the whole repair
/// window spans at most `base_timeout · 2^budget` ticks before the
/// sender gives up and suspects the peer. The *final* attempt ships two
/// back-to-back copies of the envelope: consecutive enqueue slots can
/// never both sit on a `drop_every(k)` schedule (no two consecutive
/// integers are both multiples of `k ≥ 2`), so a periodic loss plan
/// that happens to stay phase-locked with the doubling cadence — every
/// earlier attempt landing on a dropped slot — still cannot kill the
/// last one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Ticks before the first retransmission on a link with no RTT
    /// samples, and the ceiling the adaptive timeout is clamped to.
    pub base_timeout: u64,
    /// Maximum number of timer-driven retransmissions per message, and
    /// the cap on nack-triggered fast retransmissions.
    pub budget: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_timeout: RETRY_BASE_TIMEOUT,
            budget: RETRY_BUDGET,
        }
    }
}

impl RetryPolicy {
    /// Worst-case ticks from first transmission to the *last*
    /// retransmission: `base_timeout · 2^budget` (the initial
    /// `base_timeout` wait plus the doubling backoffs
    /// `base_timeout · (1 + 2 + … + 2^{budget−1})`). The adaptive RTT
    /// timeout is clamped to `base_timeout` from above, so this bound
    /// holds for both endpoint modes: a phase waiting out this window
    /// plus delivery latency is guaranteed to have seen every
    /// repairable message, which is how the runner scales agent
    /// patience in recovery mode.
    pub fn worst_case_repair(&self) -> u64 {
        self.base_timeout
            .saturating_mul(1u64.checked_shl(self.budget.min(32)).unwrap_or(u64::MAX))
    }
}

/// Deterministic per-link round-trip estimator in the classic
/// fixed-point TCP form (RFC 6298 shifts): `srtt` is kept ×8 and
/// `rttvar` ×4, updated as `srtt += (rtt − srtt)/8` and
/// `rttvar += (|rtt − srtt| − rttvar)/4`, everything in integer
/// scheduler ticks. Samples come only from clean first-transmission
/// round-trips (Karn's rule), so retransmission ambiguity never skews
/// the estimate.
#[derive(Debug, Clone, Copy, Default)]
pub struct RttEstimator {
    srtt_x8: u64,
    rttvar_x4: u64,
    samples: u64,
}

impl RttEstimator {
    /// Folds one measured round-trip (in ticks) into the estimate.
    pub fn observe(&mut self, rtt: u64) {
        if self.samples == 0 {
            self.srtt_x8 = rtt * 8;
            self.rttvar_x4 = rtt * 2;
        } else {
            let err = (self.srtt_x8 / 8).abs_diff(rtt);
            // Decay by at least one fixed-point unit: plain `x/4`
            // truncates to zero below 4 units and would pin a stale
            // variance floor forever on a jitter-free link.
            let decay = (self.rttvar_x4 / 4).max(1);
            self.rttvar_x4 = self.rttvar_x4.saturating_sub(decay) + err;
            self.srtt_x8 = self.srtt_x8 - self.srtt_x8 / 8 + rtt;
        }
        self.samples += 1;
    }

    /// Number of round-trips folded in so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The retransmit timeout: `srtt + 4·rttvar`, clamped to
    /// `[MIN_RTO, ceiling]`. With no samples yet it *is* the ceiling —
    /// a link that has never completed a round-trip behaves exactly
    /// like the classic fixed-backoff schedule, which is what keeps
    /// no-ack suspicion timelines identical across endpoint modes.
    pub fn rto(&self, ceiling: u64) -> u64 {
        if self.samples == 0 {
            ceiling
        } else {
            (self.srtt_x8 / 8 + self.rttvar_x4)
                .max(MIN_RTO)
                .min(ceiling)
        }
    }

    /// Ticks after which a clean first transmission should have been
    /// acknowledged: the smoothed round-trip, floored at [`MIN_RTO`].
    /// An on-schedule ack is processed *before* the retransmit sweep of
    /// its arrival tick, so a payload still unacked past this horizon
    /// is genuinely suspicious. Tighter than [`RttEstimator::rto`] (no
    /// variance cushion) — used only to pick early-retransmit riders
    /// for envelopes already being emitted, where a wrong guess costs a
    /// duplicate payload rather than a wire envelope. Links with no
    /// samples fall back to the full timeout ceiling.
    pub fn ack_horizon(&self, ceiling: u64) -> u64 {
        if self.samples == 0 {
            ceiling
        } else {
            (self.srtt_x8 / 8).max(MIN_RTO).min(ceiling)
        }
    }
}

/// One in-flight message awaiting acknowledgement.
#[derive(Debug, Clone)]
struct PendingMsg {
    seq: u64,
    body: Body,
    /// Tick of the original transmission, for RTT sampling.
    sent_at: u64,
    /// Tick at which the next retransmission fires.
    next_retry: u64,
    /// Timer-driven retransmissions performed so far.
    attempts: u32,
    /// Nack-triggered fast retransmissions performed so far — bounded
    /// by the same policy budget as the timer path.
    nack_retx: u32,
    /// Set by an inbound [`Body::Nack`] covering this sequence number:
    /// the tick the request landed. The repair goes out once the link's
    /// emission delay passes instead of waiting out the timer.
    fast_retx: Option<u64>,
}

/// Reliability state of one directed peer link.
#[derive(Debug, Default)]
struct ReliableLink {
    /// Next outbound sequence number (1-based).
    next_seq: u64,
    /// Outbound messages not yet covered by a cumulative or selective
    /// ack.
    unacked: Vec<PendingMsg>,
    /// Highest sequence number received in order from the peer; every
    /// `seq <= recv_cum` has been released to the agent.
    recv_cum: u64,
    /// Out-of-order arrivals buffered until the gap closes. Its keys
    /// are also the source of the selective-ack ranges.
    reorder: BTreeMap<u64, Body>,
    /// `true` when the peer has sent us something since our last ack —
    /// piggybacked on the next outbound seal, or flushed as a
    /// standalone [`Body::Ack`] when nothing outbound is pending.
    owe_ack: bool,
    /// A gap repair request to flush on the next tick.
    owe_nack: Option<(u64, u64)>,
    /// Highest gap start already nacked — the storm suppressor: the
    /// same missing range is requested once, and the peer's retransmit
    /// timer covers a lost nack.
    last_nack_start: u64,
    /// Round-trip estimate feeding the adaptive retransmit timeout.
    rtt: RttEstimator,
}

impl ReliableLink {
    /// Two-tick repair gather window, armed once the link has measured
    /// a round trip: a due repair waits two extra ticks so losses from
    /// adjacent rounds (and early-retransmit riders) coalesce into
    /// the same envelope. Links with no samples keep the exact classic
    /// emission schedule, so the no-sample endpoint still behaves like
    /// the fixed-backoff v3 layer tick for tick.
    fn emission_delay(&self) -> u64 {
        if self.rtt.samples() > 0 {
            2
        } else {
            0
        }
    }
}

/// The per-agent endpoint of the reliable sublayer: one
/// `ReliableLink` per peer plus suspicion state and metrics.
#[derive(Debug)]
pub struct ReliableEndpoint {
    me: usize,
    n: usize,
    policy: RetryPolicy,
    links: Vec<ReliableLink>,
    /// `suspected[p]`: the retry budget toward `p` is exhausted; no
    /// further protocol traffic is sent to `p`.
    suspected: Vec<bool>,
    /// `true` (the default) enables RTT-adaptive timeouts, selective
    /// acks, the nack fast path and coalesced repair; `false` pins the
    /// v3 fixed-backoff per-payload behaviour.
    adaptive: bool,
    metrics: MetricsSnapshot,
}

impl ReliableEndpoint {
    /// Creates the adaptive endpoint for agent `me` of `n`.
    pub fn new(me: usize, n: usize, policy: RetryPolicy) -> Self {
        ReliableEndpoint {
            me,
            n,
            policy,
            links: (0..n).map(|_| ReliableLink::default()).collect(),
            suspected: vec![false; n],
            adaptive: true,
            metrics: MetricsSnapshot::default(),
        }
    }

    /// Switches the endpoint to the classic v3 recovery behaviour:
    /// fixed `base_timeout << attempts` backoff, cumulative acks only,
    /// per-payload retransmission. The baseline arm of the bench's
    /// before/after recovery comparison.
    pub fn classic(mut self) -> Self {
        self.adaptive = false;
        self
    }

    /// Which peers this endpoint has given up on.
    pub fn suspected(&self) -> &[bool] {
        &self.suspected
    }

    /// The endpoint's metrics: `retransmissions` (wire envelopes),
    /// `repair_payloads` (payload copies inside repair envelopes),
    /// `acks_sent`, `nacks_sent`, `sack_ranges`, `rtt_samples`,
    /// `duplicate_deliveries`, `suppressed_retransmits`,
    /// `suppressed_sends` and `suspect_dead`, labelled per
    /// (agent, peer) and — where the runner supplies it — the agent's
    /// phase at the time.
    pub fn metrics(&self) -> &MetricsSnapshot {
        &self.metrics
    }

    /// `true` when no outbound message is awaiting an ack and no ack or
    /// nack is owed — the endpoint's contribution to run quiescence.
    pub fn is_settled(&self) -> bool {
        self.links
            .iter()
            .all(|l| l.unacked.is_empty() && !l.owe_ack && l.owe_nack.is_none())
    }

    /// The earliest tick at which [`ReliableEndpoint::tick`] would emit
    /// control traffic: the minimum `next_retry` over unacked envelopes
    /// on non-suspected links (retransmission or, once the budget is
    /// spent, the suspicion that clears the link), each shifted by the
    /// link's one-tick gather window and floored by any pending
    /// nack-triggered fast retransmission, or `Some(0)` — "immediately"
    /// — when a standalone ack or a gap nack is owed (the scheduler
    /// clamps to the current tick). `None` when the endpoint is settled toward
    /// every peer: ticking it before `next_timer()` is then provably a
    /// no-op, which is what lets the event-driven scheduler register
    /// retransmission timers as future events instead of rediscovering
    /// them by polling (see `docs/scheduler.md`).
    pub fn next_timer(&self) -> Option<u64> {
        // Owed acks and nacks flush on the very next tick, even toward
        // suspected peers.
        if self
            .links
            .iter()
            .any(|link| link.owe_ack || link.owe_nack.is_some())
        {
            return Some(0);
        }
        // Read-only inspection: every timer surveyed here was scheduled
        // by machinery already bounded by the `RetryPolicy` budget, so
        // reporting the minimum adds no retransmission of its own.
        self.links
            .iter()
            .enumerate()
            .filter(|(peer, _)| !self.suspected[*peer])
            .flat_map(|(_, link)| {
                let delay = link.emission_delay();
                link.unacked.iter().map(move |pending| {
                    let due = match pending.fast_retx {
                        Some(at) => at.min(pending.next_retry),
                        None => pending.next_retry,
                    };
                    due + delay
                })
            })
            .min()
    }

    /// Wraps one tick's protocol output into sealed per-peer unicasts.
    /// Broadcasts expand to one envelope per non-suspected peer (the
    /// transport-level `n − 1` cost model, minus the dead); unicasts to
    /// suspected peers are suppressed and counted. Piggybacks the
    /// cumulative ack for each destination and registers every envelope
    /// for retransmission.
    pub fn seal_outgoing(
        &mut self,
        now: u64,
        phase: &'static str,
        outgoing: Vec<(Recipient, Body)>,
    ) -> Vec<(NodeId, Body)> {
        let mut wire = Vec::new();
        for (recipient, body) in outgoing {
            match recipient {
                Recipient::Unicast(to) => {
                    self.seal_one(now, phase, to.0, body, &mut wire);
                }
                Recipient::Broadcast => {
                    for to in 0..self.n {
                        if to != self.me {
                            self.seal_one(now, phase, to, body.clone(), &mut wire);
                        }
                    }
                }
            }
        }
        wire
    }

    fn seal_one(
        &mut self,
        now: u64,
        phase: &'static str,
        to: usize,
        body: Body,
        wire: &mut Vec<(NodeId, Body)>,
    ) {
        if self.suspected[to] {
            let key = Key::named("suppressed_sends")
                .phase(phase)
                .agent(self.me as u32)
                .peer(to as u32);
            self.metrics.incr(key, 1);
            return;
        }
        let adaptive = self.adaptive;
        let link = &mut self.links[to];
        link.next_seq += 1;
        let seq = link.next_seq;
        // The envelope carries the cumulative ack — but while a gap
        // holds arrivals in the reorder buffer, the adaptive endpoint
        // keeps the standalone ack owed so its selective ranges (which
        // a sealed envelope cannot carry) still reach the peer.
        if !adaptive || link.reorder.is_empty() {
            link.owe_ack = false;
        }
        let rto = if adaptive {
            link.rtt.rto(self.policy.base_timeout)
        } else {
            self.policy.base_timeout
        };
        link.unacked.push(PendingMsg {
            seq,
            body: body.clone(),
            sent_at: now,
            next_retry: now + rto,
            attempts: 0,
            nack_retx: 0,
            fast_retx: None,
        });
        // Repair-on-seal: a fresh envelope to this peer is going on the
        // wire regardless, so any payload whose retransmission is
        // already due (timer lapsed or nack-marked) rides inside it
        // instead of costing a standalone repair envelope at this
        // tick's sweep. Bookkeeping matches the sweep exactly — timer
        // rides burn an attempt, nack rides don't — except the final
        // budgeted attempt, which stays with the sweep so it keeps its
        // two-copy anti-resonance echo and the suspicion handoff (L8:
        // the ride gate below is the same per-message budget).
        let mut due: Vec<(u64, Body)> = Vec::new();
        if adaptive {
            let budget = self.policy.budget;
            for pending in link.unacked.iter_mut() {
                if pending.seq == seq {
                    continue;
                }
                let overdue = pending.next_retry <= now;
                let fast_due = pending.fast_retx.is_some();
                if !overdue && !fast_due {
                    continue;
                }
                if overdue && pending.attempts + 1 >= budget {
                    continue;
                }
                if overdue {
                    pending.next_retry = now + (rto << pending.attempts);
                    pending.attempts += 1;
                } else {
                    pending.next_retry = now + (rto << pending.attempts);
                }
                pending.fast_retx = None;
                due.push((pending.seq, pending.body.clone()));
            }
        }
        if due.is_empty() {
            wire.push((
                NodeId(to),
                Body::Sealed {
                    seq,
                    ack: link.recv_cum,
                    inner: Box::new(body),
                },
            ));
        } else {
            // The merged envelope replaces an unsealed send that was
            // leaving anyway, so it adds no recovery envelope to the
            // wire — only the payload copies are recovery overhead.
            let payloads = due.len() as u64;
            due.push((seq, body));
            due.sort_by_key(|(s, _)| *s);
            wire.push((
                NodeId(to),
                Body::Repair {
                    ack: link.recv_cum,
                    items: due,
                },
            ));
            let key = Key::named("repair_payloads")
                .phase(phase)
                .agent(self.me as u32)
                .peer(to as u32);
            self.metrics.incr(key, payloads);
        }
    }

    /// Unseals one tick's arrivals: applies piggybacked, standalone and
    /// selective acks, deduplicates, buffers out-of-order envelopes
    /// (scheduling a gap nack on the adaptive endpoint), honours repair
    /// envelopes and nack requests, and returns the in-order protocol
    /// messages the agent should see. `now` is the current scheduler
    /// tick, closing ack round-trips for the RTT estimator. Non-sealed
    /// protocol bodies pass through untouched (they cannot occur in
    /// recovery mode, but the contract stays total).
    pub fn process_inbound(
        &mut self,
        now: u64,
        inbox: Vec<Delivered<Body>>,
    ) -> Vec<Delivered<Body>> {
        let mut released = Vec::new();
        for msg in inbox {
            let from = msg.from.0;
            match msg.payload {
                Body::Sealed { seq, ack, inner } => {
                    self.apply_ack(from, ack, &[], now);
                    self.accept_payload(from, seq, *inner, msg.broadcast, &mut released);
                    self.schedule_gap_nack(from);
                }
                Body::Repair { ack, items } => {
                    self.apply_ack(from, ack, &[], now);
                    for (seq, body) in items {
                        self.accept_payload(from, seq, body, msg.broadcast, &mut released);
                    }
                    // No gap nack off a repair: the peer just flushed
                    // everything it owes, so a still-open gap means
                    // in-flight traffic, not loss.
                }
                Body::Ack { ack, sack } => {
                    self.apply_ack(from, ack, &sack, now);
                }
                Body::Nack { lo, hi } => {
                    let budget = self.policy.budget;
                    let link = &mut self.links[from];
                    // Nack-triggered fast retransmissions respect the
                    // same per-message budget as the timer path (L8):
                    // a nack beyond the budget is ignored and the
                    // timer/suspicion machinery takes over.
                    for pending in &mut link.unacked {
                        if (lo..=hi).contains(&pending.seq) && pending.nack_retx < budget {
                            pending.nack_retx += 1;
                            pending.fast_retx = Some(now);
                        }
                    }
                }
                Body::SuspectDead { peer } => {
                    // Observability only: the exclusion vote reads each
                    // endpoint's own suspicion state, never this notice.
                    let key = Key::named("suspect_notices")
                        .agent(self.me as u32)
                        .peer(peer as u32);
                    self.metrics.incr(key, 1);
                }
                other => released.push(Delivered {
                    from: msg.from,
                    broadcast: msg.broadcast,
                    payload: other,
                }),
            }
        }
        released
    }

    /// Sequence-accepts one carried payload from `from`: dedup, in-order
    /// release with reorder-buffer drain, or out-of-order buffering.
    fn accept_payload(
        &mut self,
        from: usize,
        seq: u64,
        body: Body,
        broadcast: bool,
        released: &mut Vec<Delivered<Body>>,
    ) {
        let link = &mut self.links[from];
        link.owe_ack = true;
        if seq <= link.recv_cum {
            let key = Key::named("duplicate_deliveries")
                .agent(self.me as u32)
                .peer(from as u32);
            self.metrics.incr(key, 1);
            return;
        }
        if seq == link.recv_cum + 1 {
            link.recv_cum = seq;
            released.push(Delivered {
                from: NodeId(from),
                broadcast,
                payload: body,
            });
            // The gap may have closed: drain the reorder buffer while
            // it stays consecutive.
            while let Some(next) = link.reorder.remove(&(link.recv_cum + 1)) {
                link.recv_cum += 1;
                released.push(Delivered {
                    from: NodeId(from),
                    broadcast,
                    payload: next,
                });
            }
        } else {
            // Out of order: hold until the gap closes. A duplicate of a
            // buffered seq is idempotent.
            link.reorder.entry(seq).or_insert(body);
        }
    }

    /// After an out-of-order sealed arrival, schedules one nack
    /// spanning every missing sequence number the receiver can prove
    /// lost: from the first gap up to just below the highest buffered
    /// arrival. Buffered seqs inside the span are retired at the sender
    /// by the selective ack travelling alongside, so the answering
    /// repair carries exactly the missing payloads — one envelope per
    /// loss event, however many gaps the event tore. Suppressed when
    /// that gap start was already requested (the monotone watermark
    /// that bounds nack storms to one request per gap).
    fn schedule_gap_nack(&mut self, from: usize) {
        if !self.adaptive {
            return;
        }
        let link = &mut self.links[from];
        let Some(&buffered) = link.reorder.keys().next_back() else {
            return;
        };
        let lo = link.recv_cum + 1;
        let hi = buffered - 1;
        if lo > link.last_nack_start {
            link.last_nack_start = lo;
            link.owe_nack = Some((lo, hi));
        }
    }

    /// Retires pending messages covered by a cumulative ack (feeding
    /// clean first-transmission round-trips to the RTT estimator) or by
    /// a selective-ack range (counted as suppressed retransmissions:
    /// the peer holds them buffered, so re-sending them would only
    /// manufacture duplicates).
    fn apply_ack(&mut self, from: usize, ack: u64, sack: &[(u64, u64)], now: u64) {
        let adaptive = self.adaptive;
        let link = &mut self.links[from];
        let mut samples = 0u64;
        let mut suppressed = 0u64;
        let mut kept = Vec::with_capacity(link.unacked.len());
        for pending in link.unacked.drain(..) {
            if pending.seq <= ack {
                // Karn's rule: only messages that spent none of their
                // retry budget (no timer or nack retransmission) yield
                // an unambiguous round-trip.
                let spent_budget = pending.attempts > 0 || pending.nack_retx > 0;
                if adaptive && !spent_budget {
                    link.rtt.observe(now.saturating_sub(pending.sent_at));
                    samples += 1;
                }
            } else if sack
                .iter()
                .any(|&(lo, hi)| (lo..=hi).contains(&pending.seq))
            {
                suppressed += 1;
            } else {
                kept.push(pending);
            }
        }
        link.unacked = kept;
        if samples > 0 {
            let key = Key::named("rtt_samples")
                .agent(self.me as u32)
                .peer(from as u32);
            self.metrics.incr(key, samples);
        }
        if suppressed > 0 {
            let key = Key::named("suppressed_retransmits")
                .agent(self.me as u32)
                .peer(from as u32);
            self.metrics.incr(key, suppressed);
        }
    }

    /// Advances the retransmit timers one tick and flushes owed control
    /// traffic. Returns what to transmit: coalesced [`Body::Repair`]
    /// envelopes for overdue or nack-requested messages (adaptive) or
    /// per-payload [`Body::Sealed`] retransmissions (classic), gap
    /// [`Body::Nack`]s, standalone [`Body::Ack`]s for peers with
    /// nothing outbound to piggyback on, and a fire-and-forget
    /// [`Body::SuspectDead`] broadcast when a peer's budget exhausts
    /// this tick.
    pub fn tick(&mut self, now: u64, phase: &'static str) -> Vec<(Recipient, Body)> {
        let budget = self.policy.budget;
        let mut out = Vec::new();
        for peer in 0..self.n {
            if peer == self.me {
                continue;
            }
            // Both sweeps bound every retransmission by `budget` (L8).
            if !self.suspected[peer] {
                if self.adaptive {
                    self.tick_adaptive(now, phase, peer, budget, &mut out);
                } else {
                    self.tick_classic(now, phase, peer, budget, &mut out);
                }
            }
            // Owed nacks and acks flush even toward suspected peers:
            // neither is ever acked back, so each costs one message and
            // helps the other side settle.
            let link = &mut self.links[peer];
            if let Some((lo, hi)) = link.owe_nack.take() {
                out.push((Recipient::Unicast(NodeId(peer)), Body::Nack { lo, hi }));
                let key = Key::named("nacks_sent")
                    .agent(self.me as u32)
                    .peer(peer as u32);
                self.metrics.incr(key, 1);
            }
            let link = &mut self.links[peer];
            if link.owe_ack {
                link.owe_ack = false;
                let sack = if self.adaptive {
                    sack_ranges(&link.reorder)
                } else {
                    Vec::new()
                };
                // Adaptive ack echo: two back-to-back copies occupy
                // consecutive enqueue slots, which a periodic drop
                // schedule can never both claim — so acknowledgments
                // survive the deterministic loss plans that would
                // otherwise convert delivered data into timeout-driven
                // duplicate storms.
                let copies = if self.adaptive { 2 } else { 1 };
                let ranges = sack.len() as u64;
                for _ in 0..copies {
                    out.push((
                        Recipient::Unicast(NodeId(peer)),
                        Body::Ack {
                            ack: link.recv_cum,
                            sack: sack.clone(),
                        },
                    ));
                }
                let key = Key::named("acks_sent")
                    .agent(self.me as u32)
                    .peer(peer as u32);
                self.metrics.incr(key, copies);
                if ranges > 0 {
                    let key = Key::named("sack_ranges")
                        .agent(self.me as u32)
                        .peer(peer as u32);
                    self.metrics.incr(key, ranges * copies);
                }
            }
        }
        out
    }

    /// The adaptive retransmit sweep for one peer: overdue and
    /// nack-requested messages coalesce into a single [`Body::Repair`]
    /// envelope, so one loss event costs one wire transmission however
    /// many payloads it claimed.
    fn tick_adaptive(
        &mut self,
        now: u64,
        phase: &'static str,
        peer: usize,
        budget: u32,
        out: &mut Vec<(Recipient, Body)>,
    ) {
        let link = &mut self.links[peer];
        let rto = link.rtt.rto(self.policy.base_timeout);
        let ack_horizon = link.rtt.ack_horizon(self.policy.base_timeout);
        let delay = link.emission_delay();
        let mut exhausted = false;
        let mut final_attempt = false;
        let mut items: Vec<(u64, Body)> = Vec::new();
        // Budget-bounded retransmit sweep: every pending message
        // retries at most `budget` times on the timer path, and the
        // nack fast path neither burns nor evades that budget — it
        // resends without advancing `attempts`, but marked messages
        // were already capped at `budget` nack retransmissions when the
        // nack arrived (L8).
        let mut riders: Vec<usize> = Vec::new();
        for (slot, pending) in link.unacked.iter_mut().enumerate() {
            let overdue = pending.next_retry + delay <= now;
            let fast_due = pending.fast_retx.is_some_and(|at| at + delay <= now);
            if !overdue && !fast_due {
                // Early-retransmit rider: the peer has had a full ack
                // round-trip for this payload and stayed silent — if a
                // repair envelope goes out anyway, ride along for free
                // instead of waiting to become a solo envelope later.
                if now >= pending.sent_at + ack_horizon {
                    riders.push(slot);
                }
                continue;
            }
            if overdue && pending.attempts >= budget {
                exhausted = true;
                break;
            }
            if overdue {
                if pending.attempts + 1 >= budget {
                    final_attempt = true;
                }
                pending.next_retry = now + (rto << pending.attempts);
                pending.attempts += 1;
            } else {
                // Fast path: reschedule the timer without burning an
                // attempt — the repair below is already on the wire.
                pending.next_retry = now + (rto << pending.attempts);
            }
            pending.fast_retx = None;
            items.push((pending.seq, pending.body.clone()));
        }
        if !exhausted && !items.is_empty() {
            // Riders join an envelope that was being emitted anyway;
            // like the nack fast path they neither burn nor evade the
            // attempt budget (L8) — their own timer keeps its schedule,
            // and a message that already spent its budget stays grounded.
            for slot in riders {
                let pending = &mut link.unacked[slot];
                if pending.attempts >= budget {
                    continue;
                }
                pending.next_retry = now + (rto << pending.attempts);
                // The ride answers any pending nack request too — an
                // armed fast retransmit would only duplicate it.
                pending.fast_retx = None;
                items.push((pending.seq, pending.body.clone()));
            }
            items.sort_by_key(|(seq, _)| *seq);
        }
        if exhausted {
            self.suspected[peer] = true;
            self.links[peer].unacked.clear();
            let key = Key::named("suspect_dead")
                .phase(phase)
                .agent(self.me as u32)
                .peer(peer as u32);
            self.metrics.incr(key, 1);
            out.push((Recipient::Broadcast, Body::SuspectDead { peer }));
        } else if !items.is_empty() {
            // The final budgeted attempt ships two back-to-back copies
            // of the repair envelope — the same anti-resonance echo the
            // classic sweep applies per payload.
            let copies: u64 = if final_attempt { 2 } else { 1 };
            let payloads = items.len() as u64;
            if link.reorder.is_empty() {
                link.owe_ack = false;
            }
            for _ in 0..copies {
                out.push((
                    Recipient::Unicast(NodeId(peer)),
                    Body::Repair {
                        ack: link.recv_cum,
                        items: items.clone(),
                    },
                ));
            }
            let key = Key::named("retransmissions")
                .phase(phase)
                .agent(self.me as u32)
                .peer(peer as u32);
            self.metrics.incr(key, copies);
            let key = Key::named("repair_payloads")
                .phase(phase)
                .agent(self.me as u32)
                .peer(peer as u32);
            self.metrics.incr(key, copies * payloads);
        }
    }

    /// The classic v3 sweep for one peer: each overdue payload is
    /// re-sealed and retransmitted individually on the fixed
    /// `base_timeout << attempts` backoff.
    fn tick_classic(
        &mut self,
        now: u64,
        phase: &'static str,
        peer: usize,
        budget: u32,
        out: &mut Vec<(Recipient, Body)>,
    ) {
        let mut exhausted = false;
        let link = &mut self.links[peer];
        // Budget-bounded retransmit sweep: every pending message
        // retries at most `budget` times (L8).
        for pending in &mut link.unacked {
            if pending.next_retry > now {
                continue;
            }
            if pending.attempts >= budget {
                exhausted = true;
                break;
            }
            // The final budgeted attempt ships two back-to-back copies:
            // consecutive enqueue slots can never both be multiples of
            // a drop period `k ≥ 2`, so a periodic loss schedule
            // phase-locked with the doubling backoff cannot kill every
            // attempt.
            let copies = if pending.attempts + 1 >= budget { 2 } else { 1 };
            for _ in 0..copies {
                out.push((
                    Recipient::Unicast(NodeId(peer)),
                    Body::Sealed {
                        seq: pending.seq,
                        ack: link.recv_cum,
                        inner: Box::new(pending.body.clone()),
                    },
                ));
            }
            link.owe_ack = false;
            pending.next_retry = now + (self.policy.base_timeout << pending.attempts);
            pending.attempts += 1;
            let key = Key::named("retransmissions")
                .phase(phase)
                .agent(self.me as u32)
                .peer(peer as u32);
            self.metrics.incr(key, copies);
        }
        if exhausted {
            self.suspected[peer] = true;
            self.links[peer].unacked.clear();
            let key = Key::named("suspect_dead")
                .phase(phase)
                .agent(self.me as u32)
                .peer(peer as u32);
            self.metrics.incr(key, 1);
            out.push((Recipient::Broadcast, Body::SuspectDead { peer }));
        }
    }
}

/// The selective-ack ranges for one reorder buffer: maximal runs of
/// consecutive buffered sequence numbers, lowest first, capped at
/// [`SACK_MAX_RANGES`] (overflow degrades to the cumulative-only
/// contract — correctness never depends on a sack).
fn sack_ranges(reorder: &BTreeMap<u64, Body>) -> Vec<(u64, u64)> {
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    for &seq in reorder.keys() {
        match ranges.last_mut() {
            Some((_, hi)) if *hi + 1 == seq => *hi = seq,
            _ => {
                if ranges.len() == SACK_MAX_RANGES {
                    break;
                }
                ranges.push((seq, seq));
            }
        }
    }
    ranges
}

/// The deterministic exclusion round the runner executes after a
/// recovery-mode run: agent `p` is excluded when a *strict majority* of
/// the non-excluded voters (everyone but `p` itself) suspect it. Each
/// fixpoint round excludes only the candidate(s) carrying the *most*
/// votes, so a crashed agent — suspected by every survivor, and whose
/// own endpoint suspects everybody — falls first, and its blanket
/// suspicions are discarded before they can drag a survivor down with
/// it. Returns the excluded agent indices in ascending order.
pub fn exclusion_vote(endpoints: &[ReliableEndpoint]) -> Vec<usize> {
    let n = endpoints.len();
    let mut excluded = vec![false; n];
    loop {
        let mut candidates: Vec<(usize, usize)> = Vec::new();
        for p in 0..n {
            if excluded[p] {
                continue;
            }
            let voters: Vec<usize> = (0..n).filter(|&v| v != p && !excluded[v]).collect();
            let votes = voters
                .iter()
                .filter(|&&v| endpoints[v].suspected().get(p).copied().unwrap_or(false))
                .count();
            if 2 * votes > voters.len() {
                candidates.push((votes, p));
            }
        }
        let Some(&(most, _)) = candidates.iter().max() else {
            break;
        };
        for &(votes, p) in &candidates {
            if votes == most {
                excluded[p] = true;
            }
        }
    }
    (0..n).filter(|&p| excluded[p]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delivered(from: usize, payload: Body) -> Delivered<Body> {
        Delivered {
            from: NodeId(from),
            broadcast: false,
            payload,
        }
    }

    fn ack_body(task: usize) -> Body {
        Body::Disclose {
            task,
            f_values: vec![1, 2],
        }
    }

    fn seal(seq: u64, ack: u64, task: usize) -> Body {
        Body::Sealed {
            seq,
            ack,
            inner: Box::new(ack_body(task)),
        }
    }

    #[test]
    fn sealing_stamps_consecutive_sequence_numbers_per_link() {
        let mut ep = ReliableEndpoint::new(0, 3, RetryPolicy::default());
        let wire = ep.seal_outgoing(
            0,
            "bidding",
            vec![
                (Recipient::Unicast(NodeId(1)), ack_body(0)),
                (Recipient::Broadcast, ack_body(1)),
            ],
        );
        // Unicast to 1, then broadcast to 1 and 2.
        assert_eq!(wire.len(), 3);
        let seqs: Vec<(usize, u64)> = wire
            .iter()
            .map(|(to, b)| match b {
                Body::Sealed { seq, .. } => (to.0, *seq),
                other => panic!("unsealed {}", other.kind()),
            })
            .collect();
        assert_eq!(seqs, vec![(1, 1), (1, 2), (2, 1)]);
    }

    #[test]
    fn inbound_envelopes_release_in_order_and_dedup() {
        let mut ep = ReliableEndpoint::new(0, 2, RetryPolicy::default());
        // Arrivals out of order: 2 buffers, 1 releases both, dup of 1
        // is swallowed.
        let released = ep.process_inbound(0, vec![delivered(1, seal(2, 0, 22))]);
        assert!(released.is_empty(), "gap: held for reordering");
        let released = ep.process_inbound(
            0,
            vec![delivered(1, seal(1, 0, 11)), delivered(1, seal(1, 0, 11))],
        );
        let tasks: Vec<Option<usize>> = released.iter().map(|d| d.payload.task()).collect();
        assert_eq!(tasks, vec![Some(11), Some(22)]);
        assert_eq!(
            ep.metrics()
                .counter(&Key::named("duplicate_deliveries").agent(0).peer(1)),
            1
        );
    }

    #[test]
    fn unacked_messages_retransmit_with_backoff_then_suspect() {
        let policy = RetryPolicy {
            base_timeout: 2,
            budget: 2,
        };
        let mut ep = ReliableEndpoint::new(0, 2, policy);
        let _ = ep.seal_outgoing(
            0,
            "bidding",
            vec![(Recipient::Unicast(NodeId(1)), ack_body(0))],
        );
        // No acks ever arrive, so the link has no RTT samples and the
        // adaptive timeout equals base_timeout — the suspicion timeline
        // is identical to the classic schedule: attempt 0 fires at tick
        // 2, the final attempt at tick 4 ships two back-to-back repair
        // copies (the anti-resonance echo), then the budget is
        // exhausted at the next overdue tick — worst_case_repair() =
        // 2·2² = 8.
        let mut retransmits = 0;
        let mut suspected_at = None;
        for now in 1..=20 {
            for (_, body) in ep.tick(now, "commitments") {
                match body {
                    Body::Repair { items, .. } => {
                        assert_eq!(items.len(), 1);
                        retransmits += 1;
                    }
                    Body::SuspectDead { peer } => {
                        assert_eq!(peer, 1);
                        suspected_at.get_or_insert(now);
                    }
                    other => panic!("unexpected {}", other.kind()),
                }
            }
        }
        assert_eq!(
            retransmits, 3,
            "budget bounds the sweep: 1 + the doubled final attempt"
        );
        assert_eq!(suspected_at, Some(policy.worst_case_repair()));
        assert!(ep.suspected()[1]);
        assert!(ep.is_settled(), "suspicion clears the link");
        assert_eq!(ep.metrics().counter_total("retransmissions"), 3);
        assert_eq!(ep.metrics().counter_total("repair_payloads"), 3);
        // Further sends to the suspected peer are suppressed.
        let wire = ep.seal_outgoing(15, "resolution", vec![(Recipient::Broadcast, ack_body(1))]);
        assert!(wire.is_empty());
        assert_eq!(ep.metrics().counter_total("suppressed_sends"), 1);
    }

    #[test]
    fn classic_mode_reproduces_the_v3_per_payload_schedule() {
        let policy = RetryPolicy {
            base_timeout: 2,
            budget: 2,
        };
        let mut ep = ReliableEndpoint::new(0, 2, policy).classic();
        let _ = ep.seal_outgoing(
            0,
            "bidding",
            vec![(Recipient::Unicast(NodeId(1)), ack_body(0))],
        );
        let mut retransmits = 0;
        let mut suspected_at = None;
        for now in 1..=20 {
            for (_, body) in ep.tick(now, "commitments") {
                match body {
                    Body::Sealed { seq: 1, .. } => retransmits += 1,
                    Body::SuspectDead { peer } => {
                        assert_eq!(peer, 1);
                        suspected_at.get_or_insert(now);
                    }
                    other => panic!("unexpected {}", other.kind()),
                }
            }
        }
        assert_eq!(retransmits, 3, "1 + the doubled final attempt");
        assert_eq!(suspected_at, Some(policy.worst_case_repair()));
        assert_eq!(ep.metrics().counter_total("retransmissions"), 3);
        assert_eq!(
            ep.metrics().counter_total("repair_payloads"),
            0,
            "classic mode never coalesces"
        );
    }

    #[test]
    fn acks_stop_retransmission_and_standalone_acks_flush() {
        let mut ep = ReliableEndpoint::new(0, 2, RetryPolicy::default());
        let _ = ep.seal_outgoing(
            0,
            "bidding",
            vec![(Recipient::Unicast(NodeId(1)), ack_body(0))],
        );
        assert!(!ep.is_settled());
        // Peer acks seq 1 and sends its own envelope.
        let released = ep.process_inbound(
            1,
            vec![delivered(
                1,
                Body::Sealed {
                    seq: 1,
                    ack: 1,
                    inner: Box::new(ack_body(9)),
                },
            )],
        );
        assert_eq!(released.len(), 1);
        assert!(!ep.is_settled(), "an ack is owed");
        assert_eq!(
            ep.metrics()
                .counter(&Key::named("rtt_samples").agent(0).peer(1)),
            1,
            "the clean round-trip fed the estimator"
        );
        // No outbound traffic: the owed ack flushes standalone, echoed
        // twice (consecutive enqueue slots defeat periodic ack loss).
        let control = ep.tick(1, "commitments");
        assert_eq!(control.len(), 2);
        for (_, body) in &control {
            assert!(matches!(body, Body::Ack { ack: 1, sack } if sack.is_empty()));
        }
        assert!(ep.is_settled());
        assert_eq!(ep.metrics().counter_total("acks_sent"), 2);
        // Nothing further: no retransmissions, no ack storms.
        for now in 2..40 {
            assert!(ep.tick(now, "commitments").is_empty());
        }
    }

    #[test]
    fn rtt_estimator_tracks_samples_and_clamps_the_timeout() {
        let mut est = RttEstimator::default();
        assert_eq!(est.rto(8), 8, "no samples: the ceiling (classic base)");
        est.observe(2);
        // First sample: srtt = 2, rttvar = 1 → rto = 2 + 4·1 = 6.
        assert_eq!(est.rto(8), 6);
        for _ in 0..20 {
            est.observe(2);
        }
        let converged = est.rto(8);
        assert_eq!(
            converged, MIN_RTO,
            "jitter-free samples decay the variance to zero, so the \
             floor catches the timeout; got {converged}"
        );
        let mut slow = RttEstimator::default();
        slow.observe(10);
        assert_eq!(slow.rto(3), 3, "ceiling clamps from above");
        let mut tiny = RttEstimator::default();
        tiny.observe(0);
        assert_eq!(tiny.rto(8), MIN_RTO, "floor clamps from below");
        assert_eq!(est.samples(), 21);
    }

    #[test]
    fn selective_acks_retire_tail_messages_without_retransmission() {
        let mut ep = ReliableEndpoint::new(0, 2, RetryPolicy::default());
        let _ = ep.seal_outgoing(
            0,
            "bidding",
            vec![
                (Recipient::Unicast(NodeId(1)), ack_body(0)),
                (Recipient::Unicast(NodeId(1)), ack_body(1)),
                (Recipient::Unicast(NodeId(1)), ack_body(2)),
            ],
        );
        // Seq 1 was lost; the peer holds 2..=3 buffered and says so.
        let _ = ep.process_inbound(
            2,
            vec![delivered(
                1,
                Body::Ack {
                    ack: 0,
                    sack: vec![(2, 3)],
                },
            )],
        );
        assert_eq!(
            ep.metrics()
                .counter(&Key::named("suppressed_retransmits").agent(0).peer(1)),
            2
        );
        // Only seq 1 is still pending: the repair at its timeout
        // carries exactly one payload.
        let out = ep.tick(4, "bidding");
        assert_eq!(out.len(), 1);
        match &out[0].1 {
            Body::Repair { items, .. } => {
                assert_eq!(items.len(), 1);
                assert_eq!(items[0].0, 1);
            }
            other => panic!("unexpected {}", other.kind()),
        }
    }

    #[test]
    fn sack_saturation_falls_back_to_cumulative_only() {
        let mut ep = ReliableEndpoint::new(0, 2, RetryPolicy::default());
        // Six disjoint out-of-order singletons: 3, 5, 7, 9, 11, 13.
        for seq in [3u64, 5, 7, 9, 11, 13] {
            let _ = ep.process_inbound(0, vec![delivered(1, seal(seq, 0, seq as usize))]);
        }
        let control = ep.tick(1, "bidding");
        let acks: Vec<&Body> = control
            .iter()
            .map(|(_, b)| b)
            .filter(|b| matches!(b, Body::Ack { .. }))
            .collect();
        assert!(!acks.is_empty());
        for body in acks {
            let Body::Ack { ack, sack } = body else {
                unreachable!()
            };
            assert_eq!(*ack, 0);
            assert_eq!(
                sack,
                &vec![(3, 3), (5, 5), (7, 7), (9, 9)],
                "the range set truncates at SACK_MAX_RANGES, lowest first"
            );
        }
        // The buffered-but-unadvertised tail (11, 13) stays covered by
        // the cumulative contract: once the gaps close everything
        // releases in order.
        let released = ep.process_inbound(
            2,
            (1..=13u64)
                .map(|seq| delivered(1, seal(seq, 0, seq as usize)))
                .collect(),
        );
        let tasks: Vec<Option<usize>> = released.iter().map(|d| d.payload.task()).collect();
        assert_eq!(tasks, (1..=13).map(Some).collect::<Vec<_>>());
    }

    #[test]
    fn gap_detection_nacks_the_exact_missing_range_once() {
        let mut ep = ReliableEndpoint::new(0, 2, RetryPolicy::default());
        // Seqs 1-2 lost, 3 arrives: the gap is exactly 1..=2.
        let _ = ep.process_inbound(0, vec![delivered(1, seal(3, 0, 33))]);
        let control = ep.tick(0, "bidding");
        let nacks: Vec<&Body> = control
            .iter()
            .map(|(_, b)| b)
            .filter(|b| matches!(b, Body::Nack { .. }))
            .collect();
        assert_eq!(nacks.len(), 1);
        assert!(matches!(nacks[0], Body::Nack { lo: 1, hi: 2 }));
        assert_eq!(ep.metrics().counter_total("nacks_sent"), 1);
        // Another arrival beyond the same gap must not nack again: the
        // watermark suppresses the storm.
        let _ = ep.process_inbound(1, vec![delivered(1, seal(4, 0, 44))]);
        let control = ep.tick(1, "bidding");
        assert!(
            !control.iter().any(|(_, b)| matches!(b, Body::Nack { .. })),
            "same gap start: no second nack"
        );
        assert_eq!(ep.metrics().counter_total("nacks_sent"), 1);
    }

    #[test]
    fn nack_triggers_coalesced_fast_retransmit_within_budget() {
        let policy = RetryPolicy {
            base_timeout: 16,
            budget: 3,
        };
        let mut ep = ReliableEndpoint::new(0, 2, policy);
        let _ = ep.seal_outgoing(
            0,
            "bidding",
            vec![
                (Recipient::Unicast(NodeId(1)), ack_body(0)),
                (Recipient::Unicast(NodeId(1)), ack_body(1)),
                (Recipient::Unicast(NodeId(1)), ack_body(2)),
            ],
        );
        // The peer requests 1..=2 — long before the 16-tick timer.
        let _ = ep.process_inbound(1, vec![delivered(1, Body::Nack { lo: 1, hi: 2 })]);
        assert_eq!(
            ep.next_timer(),
            Some(1),
            "fast retransmit is due at the current tick"
        );
        let out = ep.tick(1, "bidding");
        assert_eq!(out.len(), 1, "one repair envelope for the whole gap");
        match &out[0].1 {
            Body::Repair { items, .. } => {
                let seqs: Vec<u64> = items.iter().map(|(s, _)| *s).collect();
                assert_eq!(seqs, vec![1, 2], "exactly the nacked range, in order");
            }
            other => panic!("unexpected {}", other.kind()),
        }
        assert_eq!(ep.metrics().counter_total("retransmissions"), 1);
        assert_eq!(ep.metrics().counter_total("repair_payloads"), 2);
        // Nack retransmissions are budgeted: after `budget` requests
        // per message the fast path goes quiet and the timer machinery
        // is the only recourse.
        for round in 0..10u64 {
            let _ = ep.process_inbound(2 + round, vec![delivered(1, Body::Nack { lo: 1, hi: 2 })]);
            let _ = ep.tick(2 + round, "bidding");
        }
        let fast_total = ep.metrics().counter_total("repair_payloads");
        assert_eq!(
            fast_total,
            2 * u64::from(policy.budget),
            "each payload fast-retransmits at most budget times"
        );
    }

    #[test]
    fn repair_envelopes_release_like_the_sealed_stream() {
        let mut ep = ReliableEndpoint::new(0, 2, RetryPolicy::default());
        let _ = ep.process_inbound(0, vec![delivered(1, seal(4, 0, 44))]);
        // One repair closes the gap; already-buffered 4 drains behind
        // it, and a replayed item counts as a duplicate.
        let released = ep.process_inbound(
            1,
            vec![delivered(
                1,
                Body::Repair {
                    ack: 0,
                    items: vec![(1, ack_body(11)), (2, ack_body(22)), (3, ack_body(33))],
                },
            )],
        );
        let tasks: Vec<Option<usize>> = released.iter().map(|d| d.payload.task()).collect();
        assert_eq!(tasks, vec![Some(11), Some(22), Some(33), Some(44)]);
        let released = ep.process_inbound(
            2,
            vec![delivered(
                1,
                Body::Repair {
                    ack: 0,
                    items: vec![(3, ack_body(33))],
                },
            )],
        );
        assert!(released.is_empty());
        assert_eq!(ep.metrics().counter_total("duplicate_deliveries"), 1);
    }

    /// `next_timer` must bracket exactly the ticks on which `tick`
    /// emits something: skipping every tick before it, then ticking at
    /// it, reproduces the poll-every-tick behaviour.
    #[test]
    fn next_timer_predicts_every_emitting_tick() {
        let policy = RetryPolicy {
            base_timeout: 2,
            budget: 2,
        };
        let mut ep = ReliableEndpoint::new(0, 2, policy);
        assert_eq!(ep.next_timer(), None);
        let _ = ep.seal_outgoing(
            0,
            "bidding",
            vec![(Recipient::Unicast(NodeId(1)), ack_body(0))],
        );
        assert_eq!(ep.next_timer(), Some(2), "first retry at base_timeout");
        // Event-style drive: jump straight to each promised tick.
        let mut emitted_at = Vec::new();
        while let Some(due) = ep.next_timer() {
            let out = ep.tick(due, "commitments");
            assert!(
                !out.is_empty(),
                "next_timer promised activity at {due} but tick was empty"
            );
            emitted_at.push(due);
            if ep.suspected()[1] {
                break;
            }
        }
        // Poll-every-tick oracle over the same policy.
        let mut oracle = ReliableEndpoint::new(0, 2, policy);
        let _ = oracle.seal_outgoing(
            0,
            "bidding",
            vec![(Recipient::Unicast(NodeId(1)), ack_body(0))],
        );
        let mut oracle_emitted = Vec::new();
        for now in 1..=20 {
            if !oracle.tick(now, "commitments").is_empty() {
                oracle_emitted.push(now);
            }
        }
        assert_eq!(emitted_at, oracle_emitted);
        assert_eq!(ep.next_timer(), None, "suspicion cleared the link");
        // An owed ack is due immediately.
        let released = ep.process_inbound(8, vec![delivered(1, seal(1, 0, 3))]);
        assert_eq!(released.len(), 1);
        assert_eq!(ep.next_timer(), Some(0));
    }

    /// Builds endpoints where each entry of `suspicions` lists who that
    /// agent suspects.
    fn endpoints_with(suspicions: &[&[usize]]) -> Vec<ReliableEndpoint> {
        let n = suspicions.len();
        suspicions
            .iter()
            .enumerate()
            .map(|(me, suspects)| {
                let mut ep = ReliableEndpoint::new(me, n, RetryPolicy::default());
                for &p in *suspects {
                    ep.suspected[p] = true;
                }
                ep
            })
            .collect()
    }

    #[test]
    fn exclusion_vote_needs_a_strict_majority() {
        // One confused agent suspecting everyone cannot exclude anybody
        // (2 of 4 voters is not a strict majority)...
        let eps = endpoints_with(&[&[1, 2, 3, 4], &[], &[], &[], &[]]);
        assert!(exclusion_vote(&eps).is_empty());
        // ...but a crashed agent, suspected by every survivor, falls.
        let eps = endpoints_with(&[&[4], &[4], &[4], &[4], &[0, 1, 2, 3]]);
        assert_eq!(exclusion_vote(&eps), vec![4]);
    }

    #[test]
    fn exclusion_vote_discards_the_excluded_agents_votes() {
        // Agent 3 is crashed (suspects everyone, suspected by all). Its
        // blanket suspicion must not count against the survivors once it
        // is excluded, even though 0 also suspects 1 (2 of 3 votes
        // against 1 before the fixpoint discards 3's ballot).
        let eps = endpoints_with(&[&[1, 3], &[3], &[3], &[0, 1, 2]]);
        assert_eq!(exclusion_vote(&eps), vec![3]);
    }
}
