//! The per-agent DMW state machine.
//!
//! One [`DmwAgent`] executes the four protocol phases for *all* `m` task
//! auctions in lockstep (the auctions are "parallel and independent",
//! Section 2.2). Protocol progress is a typed state machine — see
//! [`crate::phases`] for the phase catalogue, transition table and the
//! per-phase protocol logic. The scheduler calls [`DmwAgent::poll_at`] on
//! each agent once per tick: every poll files the arrived messages through
//! the shared ingress path, and the current phase *acts* (verifies, resolves,
//! publishes) as soon as its expected messages are complete — or when the
//! agent's patience budget expires, whichever comes first. Under the
//! lockstep transport with the default patience of one tick, acts land on
//! exactly the classic six-round schedule.
//!
//! **Detection semantics** (Theorems 4 and 8):
//!
//! * *Tampered content* — shares failing equations (7)–(9), disagreeing
//!   participation masks, or published values failing their public checks —
//!   triggers a broadcast `Abort` that terminates the run and zeroes
//!   everyone's utility.
//! * *Silence* — an agent that stops sending — marks the agent faulty; the
//!   protocol proceeds on the surviving share points while at most `c`
//!   agents are faulty in total, and aborts with `TooManyFaults` /
//!   `Unresolvable` beyond that (the computability threshold the paper
//!   offers for Open Problem 11).
//!
//! **Rotation verification.** Verifying equation (11) for *every* publisher
//! would cost each agent `n` multi-exponentiations per task and step, on
//! top of one fold of the commitment vectors that all checks of the step
//! share. Instead, each published value is checked by its `c + 1`
//! cyclically-next live agents: with at most `c` faulty agents at least
//! one designated verifier is honest, so every tampered value is still
//! detected and aborted, with `c + 1` multi-exponentiations per task and
//! step (see DESIGN.md).

#![expect(
    clippy::indexing_slicing,
    reason = "every agent/task index in this module is validated at construction \
         (`with_policy` asserts `me < n`, bids are range checked) or at message \
         admission (`admissible` rejects out-of-range senders), and all \
         per-agent vectors are allocated with length `n` up front; per-site \
         `.get()` plumbing would bury the protocol equations."
)]

use crate::clock::PhaseClock;
use crate::config::DmwConfig;
use crate::error::AbortReason;
use crate::messages::Body;
use crate::phases::{self, Phase};
use crate::strategy::{Behavior, VerificationPolicy};
use dmw_crypto::commitments::FoldedCommitments;
use dmw_crypto::polynomials::{BidPolynomials, SecretBid, ShareBundle};
use dmw_crypto::resolution::LambdaPsi;
use dmw_crypto::Commitments;
use dmw_obs::{Key, MetricsSnapshot};
use dmw_simnet::{Delivered, Recipient};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The funnel for state-machine invariants: a value the phase structure
/// guarantees to be present (e.g. a bundle from an agent marked alive).
/// Every call site states which invariant it relies on, and the single
/// panic below is the module's only deliberate panic path.
pub(crate) trait Invariant<T> {
    fn invariant(self, what: &'static str) -> T;
}

impl<T> Invariant<T> for Option<T> {
    fn invariant(self, what: &'static str) -> T {
        match self {
            Some(v) => v,
            #[expect(clippy::panic, reason = "the module's one audited invariant funnel")]
            None => panic!("protocol invariant violated: {what}"),
        }
    }
}

impl<T, E> Invariant<T> for Result<T, E> {
    fn invariant(self, what: &'static str) -> T {
        self.ok().invariant(what)
    }
}

/// Lifecycle of an agent within one protocol run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AgentStatus {
    /// Executing the protocol.
    Running,
    /// Terminated after detecting (or being notified of) a violation.
    Aborted(AbortReason),
    /// Completed Phase IV; the final claim is available.
    Done,
}

/// Everything an agent accumulates about one task auction.
#[derive(Debug, Clone)]
pub(crate) struct TaskState {
    /// My polynomial quadruple (None for behaviors that never bid).
    pub(crate) polys: Option<BidPolynomials>,
    /// Commitments received per sender (self included).
    pub(crate) commitments: Vec<Option<Commitments>>,
    /// Share bundles received per sender (self included).
    pub(crate) bundles: Vec<Option<ShareBundle>>,
    /// The alive agents' `Q` vectors, folded in Phase III.1: the
    /// left-hand product of eq (11).
    pub(crate) folded_q: Option<FoldedCommitments>,
    /// The alive agents' `R` vectors, folded likewise: eq (13)'s.
    pub(crate) folded_r: Option<FoldedCommitments>,
    /// Published `(Λ, Ψ)` pairs per agent.
    pub(crate) pairs: Vec<Option<LambdaPsi>>,
    /// Participation masks published alongside `Λ/Ψ`, per publisher —
    /// compared against my own `alive` when the resolution phase acts.
    pub(crate) masks: Vec<Option<Vec<bool>>>,
    /// Resolved first price.
    pub(crate) first_price: Option<u64>,
    /// The designated discloser set, fixed when resolution acts (the
    /// first `winner_points + c` responsive agents).
    pub(crate) disclosers: Vec<usize>,
    /// `true` when live share points alone cannot reach the `y* + c + 1`
    /// equation (14) needs and identification must consult winner claims.
    pub(crate) needs_fallback: bool,
    /// Disclosed `f`-columns per discloser.
    pub(crate) disclosures: Vec<Option<Vec<u64>>>,
    /// Winner-claim supplements per claimant: `(agent, f, h)` evaluations
    /// at non-live pseudonyms (the pre-bidding-crash fallback).
    pub(crate) claims: Vec<Option<Vec<(usize, u64, u64)>>>,
    /// Identified winner.
    pub(crate) winner: Option<usize>,
    /// Published excluded pairs per agent.
    pub(crate) excluded: Vec<Option<LambdaPsi>>,
    /// Resolved second price.
    pub(crate) second_price: Option<u64>,
}

impl TaskState {
    fn new(n: usize) -> Self {
        TaskState {
            polys: None,
            commitments: vec![None; n],
            bundles: vec![None; n],
            folded_q: None,
            folded_r: None,
            pairs: vec![None; n],
            masks: vec![None; n],
            first_price: None,
            disclosers: Vec::new(),
            needs_fallback: false,
            disclosures: vec![None; n],
            claims: vec![None; n],
            winner: None,
            excluded: vec![None; n],
            second_price: None,
        }
    }
}

/// One protocol participant.
#[derive(Debug)]
pub struct DmwAgent {
    pub(crate) config: DmwConfig,
    pub(crate) me: usize,
    pub(crate) behavior: Behavior,
    pub(crate) policy: VerificationPolicy,
    /// My per-task bids, sealed: only `BidPolynomials::generate` reads
    /// them.
    pub(crate) bids: Vec<SecretBid>,
    pub(crate) rng: StdRng,
    pub(crate) status: AgentStatus,
    pub(crate) tasks: Vec<TaskState>,
    /// `alive[ℓ]`: agent `ℓ` completed the bidding phase toward me.
    pub(crate) alive: Vec<bool>,
    /// `faulty[ℓ]`: fell silent at a later stage. `faulty ⊆ alive`.
    pub(crate) faulty: Vec<bool>,
    /// My computed payment claim (bid units), present once Done.
    pub(crate) claim: Option<Vec<u64>>,
    /// Current phase of the typed state machine.
    pub(crate) phase: Phase,
    /// The current phase's entry tick and patience. Private to this
    /// module, so the phases cannot dispatch on time (rule L6).
    clock: PhaseClock,
    /// Label of the phase that most recently acted (trace annotation).
    pub(crate) acted_phase: &'static str,
    /// Per-agent protocol metrics: phase dwell ticks, patience
    /// expirations, share verifications, abort detection/propagation.
    /// Purely logical-tick-driven, so snapshots are bit-replayable.
    pub(crate) metrics: MetricsSnapshot,
}

impl DmwAgent {
    /// Creates agent `me` with its per-task `bids` (values in `W`) and a
    /// deterministic RNG derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range or any bid is outside `W` — the
    /// runner validates both before construction.
    pub fn new(
        config: DmwConfig,
        me: usize,
        bids: Vec<u64>,
        behavior: Behavior,
        seed: u64,
    ) -> Self {
        Self::with_policy(
            config,
            me,
            bids,
            behavior,
            VerificationPolicy::Rotation,
            seed,
        )
    }

    /// Like [`DmwAgent::new`] with an explicit verification policy.
    ///
    /// # Panics
    ///
    /// Same conditions as [`DmwAgent::new`].
    pub fn with_policy(
        config: DmwConfig,
        me: usize,
        bids: Vec<u64>,
        behavior: Behavior,
        policy: VerificationPolicy,
        seed: u64,
    ) -> Self {
        let n = config.agents();
        assert!(me < n, "agent index out of range");
        for &b in &bids {
            assert!(config.encoding().contains_bid(b), "bid {b} outside W");
        }
        let m = bids.len();
        DmwAgent {
            config,
            me,
            behavior,
            policy,
            bids: bids.into_iter().map(SecretBid::new).collect(),
            rng: StdRng::seed_from_u64(crate::config::agent_seed(seed, me)),
            status: AgentStatus::Running,
            tasks: (0..m).map(|_| TaskState::new(n)).collect(),
            alive: vec![false; n],
            faulty: vec![false; n],
            claim: None,
            phase: Phase::Bidding,
            clock: PhaseClock::new(1),
            acted_phase: Phase::Bidding.label(),
            metrics: MetricsSnapshot::default(),
        }
    }

    /// Sets how many polls a phase may wait for message completeness
    /// before acting on whatever has arrived (clamped to at least `1`).
    /// The default of `1` acts at the first poll after entering a phase —
    /// the classic lockstep schedule; delayed transports need enough
    /// patience to cover their worst-case latency.
    #[must_use]
    pub fn with_patience(mut self, patience: u64) -> Self {
        self.clock = PhaseClock::new(patience);
        self
    }

    /// Current lifecycle status.
    pub fn status(&self) -> &AgentStatus {
        &self.status
    }

    /// Current phase of the typed state machine.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Label of the phase that most recently acted — the trace annotation
    /// for the messages the last [`DmwAgent::poll_at`] emitted.
    pub fn acted_phase(&self) -> &'static str {
        self.acted_phase
    }

    /// `true` once the agent can make no further protocol progress.
    pub fn is_terminal(&self) -> bool {
        !matches!(self.status, AgentStatus::Running)
    }

    /// The abort reason, if aborted.
    pub fn abort_reason(&self) -> Option<AbortReason> {
        match &self.status {
            AgentStatus::Aborted(r) => Some(*r),
            _ => None,
        }
    }

    /// The winner this agent computed for `task` (once identified).
    pub fn winner_of(&self, task: usize) -> Option<usize> {
        self.tasks.get(task).and_then(|t| t.winner)
    }

    /// The first price this agent resolved for `task`.
    pub fn first_price_of(&self, task: usize) -> Option<u64> {
        self.tasks.get(task).and_then(|t| t.first_price)
    }

    /// The second price this agent resolved for `task`.
    pub fn second_price_of(&self, task: usize) -> Option<u64> {
        self.tasks.get(task).and_then(|t| t.second_price)
    }

    /// The payment claim this agent submitted (present once Done).
    pub fn claim(&self) -> Option<&[u64]> {
        self.claim.as_deref()
    }

    /// The behavior this agent executes.
    pub fn behavior(&self) -> Behavior {
        self.behavior
    }

    /// The per-agent protocol metrics accumulated so far: per-phase
    /// `phase_dwell_ticks`, `patience_expired`, `shares_verified`,
    /// `abort_detected` and `abort_propagated`.
    pub fn metrics(&self) -> &MetricsSnapshot {
        &self.metrics
    }

    /// My index as a metric label.
    pub(crate) fn metric_agent(&self) -> u32 {
        self.me as u32
    }

    pub(crate) fn n(&self) -> usize {
        self.config.agents()
    }

    pub(crate) fn m(&self) -> usize {
        self.tasks.len()
    }

    pub(crate) fn abort(&mut self, reason: AbortReason, out: &mut Vec<(Recipient, Body)>) {
        self.status = AgentStatus::Aborted(reason);
        let key = Key::named("abort_detected")
            .phase(self.phase.label())
            .agent(self.metric_agent());
        self.metrics.incr(key, 1);
        out.push((Recipient::Broadcast, Body::Abort { reason }));
    }

    /// Total faulty participants observed so far (silent in bidding or
    /// marked later).
    pub(crate) fn fault_count(&self) -> usize {
        (0..self.n())
            .filter(|&l| !self.alive[l] || self.faulty[l])
            .count()
    }

    /// Indices of agents alive and not marked faulty, ascending — the
    /// "responsive" set whose points drive resolution.
    pub(crate) fn live_indices(&self) -> Vec<usize> {
        (0..self.n())
            .filter(|&l| self.alive[l] && !self.faulty[l])
            .collect()
    }

    /// Indices of agents that completed bidding (the polynomials summed in
    /// `E` and `H`), ascending.
    pub(crate) fn alive_indices(&self) -> Vec<usize> {
        (0..self.n()).filter(|&l| self.alive[l]).collect()
    }

    /// The publishers in `live` (other than me) whose rotation verifier I
    /// am, ascending. Each publisher's `c + 1` designated verifiers are
    /// the cyclically-next live agents after it, so at most `c` faults
    /// leave at least one honest verifier; under
    /// [`VerificationPolicy::Full`] I verify every other live publisher.
    /// Callers pass [`Self::live_indices`], computed once per act.
    pub(crate) fn designated_publishers(&self, live: &[usize]) -> Vec<usize> {
        let verifiers = (self.config.encoding().faults() + 1).min(live.len().max(1) - 1);
        live.iter()
            .enumerate()
            .filter(|&(pos, &publisher)| {
                publisher != self.me
                    && (self.policy == VerificationPolicy::Full
                        || live
                            .iter()
                            .cycle()
                            .skip(pos + 1)
                            .take(verifiers)
                            .any(|&l| l == self.me))
            })
            .map(|(_, &publisher)| publisher)
            .collect()
    }

    /// Shared ingress: unpacks coalesced `Body::Batch` containers, honours
    /// peer aborts (at any phase), and files every protocol message into
    /// per-task state. Returns `false` when the agent is — or just became
    /// — non-`Running` and therefore must not act.
    fn ingest(&mut self, inbox: Vec<Delivered<Body>>) -> bool {
        let mut unbatched = Vec::with_capacity(inbox.len());
        for d in inbox {
            match d.payload {
                Body::Batch(bodies) => {
                    unbatched.extend(bodies.into_iter().map(|payload| Delivered {
                        from: d.from,
                        broadcast: d.broadcast,
                        payload,
                    }));
                }
                _ => unbatched.push(d),
            }
        }
        let inbox = unbatched;
        if self.status == AgentStatus::Running {
            for msg in &inbox {
                if let Body::Abort { .. } = msg.payload {
                    self.status =
                        AgentStatus::Aborted(AbortReason::PeerAborted { peer: msg.from.0 });
                    let key = Key::named("abort_propagated").agent(self.metric_agent());
                    self.metrics.incr(key, 1);
                    return false;
                }
            }
        }
        if self.status != AgentStatus::Running {
            return false;
        }
        for msg in inbox {
            self.file(msg);
        }
        true
    }

    /// Files one protocol message into per-task state, whatever the
    /// current phase — completeness predicates, not arrival timing,
    /// decide when state is consumed. Admissibility is enforced at *read*
    /// time (resolution reads only responsive publishers, identification
    /// only live disclosers), which is equivalent to the old
    /// arrival-time filter because the responsive set is fixed before
    /// the reads happen.
    fn file(&mut self, msg: Delivered<Body>) {
        let from = msg.from.0;
        match msg.payload {
            Body::Shares { task, bundle } => {
                self.tasks[task].bundles[from] = Some(bundle);
            }
            Body::Commit { task, commitments } => {
                self.tasks[task].commitments[from] = Some(commitments);
            }
            Body::Lambda {
                task,
                pair,
                included,
            } => {
                self.tasks[task].masks[from] = Some(included);
                if from != self.me {
                    self.tasks[task].pairs[from] = Some(pair);
                }
            }
            Body::Disclose { task, f_values } => {
                self.tasks[task].disclosures[from] = Some(f_values);
            }
            Body::WinnerClaim { task, points } => {
                self.tasks[task].claims[from] = Some(points);
            }
            Body::Excluded { task, pair } => {
                if from != self.me {
                    self.tasks[task].excluded[from] = Some(pair);
                }
            }
            // Reliable-delivery control traffic is consumed by the
            // runner's endpoint layer before the agent is polled; these
            // arms exist so the dispatch stays wildcard-free (L3).
            Body::PaymentClaim { .. }
            | Body::Abort { .. }
            | Body::Batch(_)
            | Body::Sealed { .. }
            | Body::Ack { .. }
            | Body::Nack { .. }
            | Body::Repair { .. }
            | Body::SuspectDead { .. } => {}
        }
    }

    /// Runs the agent's scheduler activation for tick `now`. Consumes
    /// the tick's inbox through the shared ingress path; the current
    /// phase acts when its expected messages are complete
    /// (`phases::ready`) or the patience budget expires. Returns the
    /// messages to transmit; a non-`Running` agent emits nothing.
    ///
    /// Dwell and patience accounting are functions of `now` and the
    /// phase's entry tick, not of how often the agent was polled, so an
    /// event-driven scheduler may skip ticks on which
    /// [`DmwAgent::next_wake`] promises the agent would not act: the
    /// activation at the next event tick behaves bit-identically to a
    /// poll-every-tick schedule. Ticks must be non-decreasing across
    /// calls, with at most one call per tick.
    pub fn poll_at(&mut self, now: u64, inbox: Vec<Delivered<Body>>) -> Vec<(Recipient, Body)> {
        let mut out = Vec::new();
        if !self.ingest(inbox) {
            return out;
        }
        if self.phase == Phase::Claimed {
            return out;
        }
        let ready = phases::ready(self);
        if ready || self.clock.expired(now) {
            self.acted_phase = self.phase.label();
            let dwell = Key::named("phase_dwell_ticks")
                .phase(self.acted_phase)
                .agent(self.metric_agent());
            self.metrics.incr(dwell, self.clock.waited(now));
            if !ready {
                // Acting because the budget ran out, not because the
                // phase's expected messages were complete.
                let expired = Key::named("patience_expired")
                    .phase(self.acted_phase)
                    .agent(self.metric_agent());
                self.metrics.incr(expired, 1);
            }
            phases::act(self, &mut out);
            self.phase = self.phase.next();
            self.clock.enter(now);
        }
        out
    }

    /// The next tick at which polling this agent could do anything a
    /// skipped empty poll would not: the tick its patience budget
    /// expires, or the very next tick when the current phase's inputs
    /// are already complete (it would act immediately — the cascade
    /// after an act whose successor phase is already satisfied).
    /// `None` for agents that can make no further local progress
    /// (terminal, or resting in `Claimed`); deliveries can still wake
    /// them — the scheduler unions this with the transport's and the
    /// reliable endpoints' own event horizons.
    ///
    /// Between activations an agent's state only changes through
    /// [`DmwAgent::poll_at`], so a tick `t` with no delivery and
    /// `t < next_wake()` is guaranteed to be an empty poll — the
    /// skipping contract `tests/tests/event_parity.rs` pins.
    pub fn next_wake(&self) -> Option<u64> {
        if self.is_terminal() || self.phase == Phase::Claimed {
            return None;
        }
        Some(self.clock.wake(phases::ready(self)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmw_simnet::NodeId;
    use rand::SeedableRng;

    fn config(n: usize, c: usize, seed: u64) -> DmwConfig {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        DmwConfig::generate(n, c, &mut rng).unwrap()
    }

    #[test]
    fn agent_starts_running_with_validated_bids() {
        let cfg = config(5, 1, 1);
        let agent = DmwAgent::new(cfg, 0, vec![1, 2], Behavior::Suggested, 42);
        assert_eq!(*agent.status(), AgentStatus::Running);
        assert_eq!(agent.phase(), Phase::Bidding);
        assert!(agent.claim().is_none());
        assert!(agent.abort_reason().is_none());
    }

    #[test]
    #[should_panic(expected = "outside W")]
    fn out_of_range_bid_panics() {
        let cfg = config(5, 1, 2);
        // w_max = 3 for n=5, c=1.
        let _ = DmwAgent::new(cfg, 0, vec![4], Behavior::Suggested, 42);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_index_panics() {
        let cfg = config(4, 0, 3);
        let _ = DmwAgent::new(cfg, 9, vec![1], Behavior::Suggested, 42);
    }

    #[test]
    fn each_live_publisher_has_its_c_plus_one_cyclic_successors_as_verifiers() {
        let agent = |me: usize, policy| {
            DmwAgent::with_policy(
                config(6, 1, 7),
                me,
                vec![1],
                Behavior::Suggested,
                policy,
                42,
            )
        };
        let rotation = VerificationPolicy::Rotation;
        // c = 1: agent 3 verifies the two live agents before it.
        assert_eq!(
            agent(3, rotation).designated_publishers(&[0, 1, 2, 3, 4, 5]),
            [1, 2]
        );
        assert_eq!(
            agent(0, rotation).designated_publishers(&[0, 1, 2, 3, 4, 5]),
            [4, 5]
        );
        // A dropped agent leaves the cycle; never my own value.
        assert_eq!(
            agent(3, rotation).designated_publishers(&[0, 1, 3, 4]),
            [0, 1]
        );
        assert_eq!(agent(3, rotation).designated_publishers(&[0, 3]), [0]);
        assert!(agent(3, rotation).designated_publishers(&[3]).is_empty());
        let full = agent(3, VerificationPolicy::Full);
        assert_eq!(full.designated_publishers(&[0, 1, 3, 4]), [0, 1, 4]);
    }

    #[test]
    fn silent_agent_emits_nothing_but_walks_the_phases() {
        let cfg = config(5, 1, 4);
        let mut agent = DmwAgent::new(cfg, 2, vec![1], Behavior::Silent, 42);
        for now in 0..6 {
            assert!(agent.poll_at(now, vec![]).is_empty());
        }
        assert_eq!(agent.phase(), Phase::Claimed);
        assert_eq!(
            *agent.status(),
            AgentStatus::Running,
            "silence is not termination"
        );
    }

    #[test]
    fn bidding_phase_emits_shares_and_commitments() {
        let cfg = config(5, 1, 5);
        let mut agent = DmwAgent::new(cfg, 0, vec![1, 3], Behavior::Suggested, 42);
        let out = agent.poll_at(0, vec![]);
        assert_eq!(agent.acted_phase(), "bidding");
        assert_eq!(agent.phase(), Phase::Commitments);
        let shares = out
            .iter()
            .filter(|(_, b)| matches!(b, Body::Shares { .. }))
            .count();
        let commits = out
            .iter()
            .filter(|(r, b)| matches!(b, Body::Commit { .. }) && matches!(r, Recipient::Broadcast))
            .count();
        // m = 2 tasks: 4 unicast share bundles each, one commit broadcast
        // each.
        assert_eq!(shares, 8);
        assert_eq!(commits, 2);
    }

    #[test]
    fn debug_output_shows_neither_bids_nor_polynomials() {
        let cfg = config(5, 1, 5);
        let mut agent = DmwAgent::new(cfg, 0, vec![1, 3], Behavior::Suggested, 42);
        let _ = agent.poll_at(0, vec![]);
        assert_eq!(agent.phase(), Phase::Commitments);
        let shown = format!("{agent:?}");
        // `Poly`'s own `Debug` prints `Poly { coeffs: [..] }`.
        assert!(!shown.contains("coeffs"), "{shown}");
        assert!(shown.contains("bids: [SecretBid { .. }, SecretBid { .. }]"));
        assert_eq!(
            shown.matches("polys: Some(BidPolynomials { .. })").count(),
            2
        );
    }

    #[test]
    fn peer_abort_is_honoured_at_any_phase() {
        let cfg = config(5, 1, 6);
        let mut agent = DmwAgent::new(cfg, 0, vec![1], Behavior::Suggested, 42);
        let _ = agent.poll_at(0, vec![]);
        let abort = Delivered {
            from: NodeId(3),
            broadcast: true,
            payload: Body::Abort {
                reason: AbortReason::Unresolvable,
            },
        };
        let out = agent.poll_at(1, vec![abort]);
        assert!(out.is_empty());
        assert!(agent.is_terminal());
        assert_eq!(
            agent.abort_reason(),
            Some(AbortReason::PeerAborted { peer: 3 })
        );
    }

    #[test]
    fn missing_everyone_aborts_with_too_many_faults() {
        // An agent that hears from nobody while bidding closes sees n - 1
        // faults, far beyond any tolerated c.
        let cfg = config(5, 1, 7);
        let mut agent = DmwAgent::new(cfg, 0, vec![1], Behavior::Suggested, 42);
        let _ = agent.poll_at(0, vec![]);
        let out = agent.poll_at(1, vec![]);
        assert!(matches!(
            agent.abort_reason(),
            Some(AbortReason::TooManyFaults {
                observed: 4,
                tolerated: 1
            })
        ));
        // The abort is broadcast so peers terminate too.
        assert!(out
            .iter()
            .any(|(r, b)| matches!(b, Body::Abort { .. }) && matches!(r, Recipient::Broadcast)));
    }

    #[test]
    fn patience_defers_the_commitments_act() {
        // With patience 3 and an empty inbox, the commitments phase waits
        // two extra polls for stragglers before concluding TooManyFaults.
        let cfg = config(5, 1, 8);
        let mut agent = DmwAgent::new(cfg, 0, vec![1], Behavior::Suggested, 42).with_patience(3);
        let _ = agent.poll_at(0, vec![]);
        assert_eq!(agent.phase(), Phase::Commitments);
        assert!(agent.poll_at(1, vec![]).is_empty());
        assert!(agent.poll_at(2, vec![]).is_empty());
        assert_eq!(agent.phase(), Phase::Commitments, "still waiting");
        let out = agent.poll_at(3, vec![]);
        assert!(
            matches!(
                agent.abort_reason(),
                Some(AbortReason::TooManyFaults { .. })
            ),
            "patience exhausted, acted on the empty view"
        );
        assert!(!out.is_empty());
    }

    #[test]
    fn a_tick_before_the_phase_entry_waits_zero_ticks() {
        // Bidding acts at tick 5, so Commitments begins at tick 6. A poll
        // at tick 3 has waited no tick of it: no act, no expiry, no dwell.
        let cfg = config(5, 1, 8);
        let mut agent = DmwAgent::new(cfg, 0, vec![1], Behavior::Suggested, 42);
        assert!(!agent.poll_at(5, vec![]).is_empty());
        assert_eq!(agent.phase(), Phase::Commitments);
        assert!(agent.poll_at(3, vec![]).is_empty());
        assert_eq!(agent.phase(), Phase::Commitments, "patience not expired");
        assert_eq!(agent.metrics().counter_total("patience_expired"), 0);
        assert_eq!(agent.metrics().counter_total("phase_dwell_ticks"), 6);
    }

    #[test]
    fn an_unbounded_patience_wakes_at_the_end_of_time() {
        let cfg = config(5, 1, 8);
        let mut agent =
            DmwAgent::new(cfg, 0, vec![1], Behavior::Suggested, 42).with_patience(u64::MAX);
        let _ = agent.poll_at(0, vec![]);
        assert_eq!(agent.phase(), Phase::Commitments);
        assert_eq!(agent.next_wake(), Some(u64::MAX));
    }
}
