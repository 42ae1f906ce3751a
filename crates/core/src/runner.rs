//! The protocol runner: a quiescence-driven scheduler over a pluggable
//! [`Transport`].
//!
//! [`DmwRunner`] owns the published configuration (Phase I), instantiates
//! one [`DmwAgent`] per participant, and steps a [`Transport`] until the
//! round budget is exhausted or the system is quiescent (every agent
//! terminal and no traffic in flight). Each scheduler tick polls every
//! agent with its freshly delivered inbox; the agents' typed phase state
//! machines ([`crate::phases`]) decide what to do with it. The runner
//! records the message trace (Fig. 2) and settles payments through the
//! payment infrastructure. It is the reproduction's equivalent of
//! "implementing DMW in a simulated distributed environment" (Section 5).
//!
//! [`DmwRunner::run`] uses the synchronous profile of
//! [`dmw_simnet::DelayTransport`]; with the default patience, ticks
//! coincide with the paper's synchronous rounds and honest runs take
//! exactly [`PROTOCOL_ROUNDS`] of them. [`DmwRunner::run_on`] accepts any
//! transport — e.g. a `DelayTransport` with a jittered
//! [`dmw_simnet::DelayProfile`] or per-link delays — together with
//! [`DmwRunner::with_round_budget`] and [`DmwRunner::with_patience`] to
//! give messages time to arrive.

use crate::agent::{AgentStatus, DmwAgent};
use crate::config::DmwConfig;
use crate::error::{AbortReason, DmwError};
use crate::messages::Body;
use crate::payment::settle;
use crate::reliable::{exclusion_vote, ReliableEndpoint, RetryPolicy};
use crate::strategy::{Behavior, VerificationPolicy};
use crate::trace::TraceEvent;
use dmw_mechanism::{AgentId, ExecutionTimes, Schedule, TaskId};
use dmw_obs::{Key, MetricsSink, MetricsSnapshot};
use dmw_simnet::{
    coalesce, DelayProfile, DelayTransport, FaultPlan, NetworkStats, NodeId, Payload, Recipient,
    Transport,
};
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Number of synchronous protocol rounds on the lockstep transport (0–4
/// active, one propagation round so late aborts reach every agent). This
/// is the default round budget of the scheduler.
pub const PROTOCOL_ROUNDS: u64 = 6;

/// The successful outcome of a DMW run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompletedOutcome {
    /// The agreed schedule (task → winning agent).
    pub schedule: Schedule,
    /// Settled per-agent payments, in bid units.
    pub payments: Vec<u64>,
    /// Entries the payment infrastructure withheld for lack of agreement.
    pub withheld: Vec<bool>,
    /// Per-task first prices (the winning bids).
    pub first_prices: Vec<u64>,
    /// Per-task second prices (the payments per task).
    pub second_prices: Vec<u64>,
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunResult {
    /// All live agents completed and agreed.
    Completed(CompletedOutcome),
    /// Recovery mode only: the survivors excluded unresponsive agents
    /// (their exhausted retry budgets confirmed by the majority
    /// exclusion vote) and re-auctioned the affected tasks among
    /// themselves — graceful degradation instead of an abort, available
    /// while the excluded count stays within the tolerated `c`.
    Degraded {
        /// The salvaged outcome: primary results for untouched tasks,
        /// survivor re-auction results (at the surviving second price)
        /// for the rest, payments recomputed over the final schedule.
        outcome: CompletedOutcome,
        /// Agents voted out, ascending.
        excluded: Vec<usize>,
        /// Tasks re-auctioned among the survivors, ascending.
        reauctioned_tasks: Vec<usize>,
    },
    /// The protocol aborted.
    Aborted {
        /// The first-detected reason.
        reason: AbortReason,
        /// Agents whose own detection (not peer notification) aborted them.
        detectors: Vec<usize>,
    },
}

/// A finished run: result plus observability artifacts.
#[derive(Debug, Clone)]
pub struct DmwRun {
    /// The protocol result.
    pub result: RunResult,
    /// Network traffic counters (feeds the Table 1 communication
    /// experiment).
    pub network: NetworkStats,
    /// The deterministic metrics snapshot: transport-level per-link
    /// traffic, delay histogram and drop causes, the scheduler's
    /// per-phase message/byte counts, and every agent's protocol
    /// metrics (dwell ticks, patience expirations, verifications,
    /// aborts). Bit-identical for identical seeds, whatever the thread
    /// count.
    pub metrics: MetricsSnapshot,
    /// The full message trace (feeds the Fig. 2 reproduction).
    pub trace: Vec<TraceEvent>,
}

impl DmwRun {
    /// The completed outcome — of a clean completion or of a degraded
    /// run (which also carries a full schedule and payment vector).
    ///
    /// # Errors
    ///
    /// Returns [`DmwError::Aborted`] when the run aborted.
    pub fn completed(&self) -> Result<&CompletedOutcome, DmwError> {
        match &self.result {
            RunResult::Completed(outcome) | RunResult::Degraded { outcome, .. } => Ok(outcome),
            RunResult::Aborted { reason, .. } => Err(DmwError::Aborted { reason: *reason }),
        }
    }

    /// The outcome, if the run produced one (cleanly or degraded).
    pub fn outcome(&self) -> Option<&CompletedOutcome> {
        match &self.result {
            RunResult::Completed(outcome) | RunResult::Degraded { outcome, .. } => Some(outcome),
            RunResult::Aborted { .. } => None,
        }
    }

    /// `true` when the protocol completed cleanly (not degraded).
    pub fn is_completed(&self) -> bool {
        matches!(self.result, RunResult::Completed(_))
    }

    /// `true` when the run ended in graceful degradation.
    pub fn is_degraded(&self) -> bool {
        matches!(self.result, RunResult::Degraded { .. })
    }

    /// The abort reason, if the run aborted.
    pub fn abort_reason(&self) -> Option<AbortReason> {
        match &self.result {
            RunResult::Aborted { reason, .. } => Some(*reason),
            RunResult::Completed(_) | RunResult::Degraded { .. } => None,
        }
    }
}

/// Seed-domain separator for the survivor re-auction RNG stream, so the
/// sub-run's parameters derive deterministically from the primary run's
/// seed without reusing its draws.
const RECOVERY_SEED_DOMAIN: u64 = 0x5245_4155_4354_4E31;

/// Which scheduling engine [`DmwRunner::run_on`] drives the run with.
/// Both engines execute the *same* tick body; they differ only in which
/// ticks they bother to execute, and every run artifact —
/// [`RunResult`], [`dmw_simnet::NetworkStats`], the trace, the metrics
/// snapshot — is bit-identical between them except for the
/// `events_processed` gauge that counts executed ticks
/// (`tests/tests/event_parity.rs` pins this). See `docs/scheduler.md`
/// for the event-queue design and the parity argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Discrete-event scheduling (the default): after each executed
    /// tick, jump directly to the next tick that can matter — the
    /// transport's next delivery, an agent's patience deadline or
    /// readiness cascade, or a reliable endpoint's retransmission
    /// timer — fast-forwarding the dead air in between. This is what
    /// makes recovery runs (whose backoff horizon is `base·2^budget`
    /// ticks of mostly idle waiting) and large-`n` sweeps tractable.
    #[default]
    Event,
    /// Execute every tick from 0 to the stopping round — the paper's
    /// poll-every-tick quiescence loop, kept as the regression oracle
    /// the event engine is checked against.
    Polling,
}

/// Drives DMW protocol runs under a fixed configuration.
#[derive(Debug, Clone)]
pub struct DmwRunner {
    config: DmwConfig,
    policy: VerificationPolicy,
    batching: bool,
    verify_threads: usize,
    round_budget: u64,
    patience: u64,
    recovery: Option<RetryPolicy>,
    classic_recovery: bool,
    engine: Engine,
}

impl DmwRunner {
    /// Creates a runner for the published configuration with the default
    /// rotation verification policy and per-task (unbatched) messages.
    pub fn new(config: DmwConfig) -> Self {
        DmwRunner {
            config,
            policy: VerificationPolicy::Rotation,
            batching: false,
            verify_threads: 1,
            round_budget: PROTOCOL_ROUNDS,
            patience: 1,
            recovery: None,
            classic_recovery: false,
            engine: Engine::default(),
        }
    }

    /// Selects the scheduling engine (see [`Engine`]). The default
    /// [`Engine::Event`] skips provably idle ticks;
    /// [`Engine::Polling`] executes every tick — useful as the
    /// regression oracle and for step-by-step debugging.
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the verification policy (see [`VerificationPolicy`]).
    pub fn with_policy(mut self, policy: VerificationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Coalesces each round's messages to the same recipient into one
    /// [`Body::Batch`] transmission. The paper's Θ(mn²) *message* count is
    /// an artifact of per-task accounting; batching drops the message
    /// count to Θ(n²) per run while the byte volume stays Θ(mn²) — the
    /// `ablation-batch` experiment measures both.
    pub fn with_batching(mut self, batching: bool) -> Self {
        self.batching = batching;
        self
    }

    /// Fans each agent's Phase III.1 share-verification batch over
    /// `threads` workers (`1` = sequential, the default). Detection is
    /// width-invariant — see
    /// [`dmw_crypto::commitments::verify_shares_batch`] — so this is a
    /// pure throughput knob for large `m · n` runs. When trials already
    /// saturate the machine through [`crate::batch::BatchRunner`], leave
    /// this at `1`: nested fan-out cannot create parallelism the trial
    /// level is using.
    #[must_use]
    pub fn with_verify_threads(mut self, threads: usize) -> Self {
        self.verify_threads = threads.max(1);
        self
    }

    /// Caps the number of scheduler ticks. The default is
    /// [`PROTOCOL_ROUNDS`], which exactly reproduces the paper's lockstep
    /// schedule; transports that delay delivery need a larger budget.
    #[must_use]
    pub fn with_round_budget(mut self, budget: u64) -> Self {
        self.round_budget = budget.max(1);
        self
    }

    /// Sets how many scheduler ticks an agent waits for a phase's inputs
    /// to complete before acting on whatever arrived (see
    /// [`DmwAgent::with_patience`]). The default of `1` acts at the first
    /// poll after entering a phase — the lockstep schedule. Delaying
    /// transports need patience of at least the worst-case delivery delay
    /// plus one, or honest traffic is mistaken for silence.
    #[must_use]
    pub fn with_patience(mut self, patience: u64) -> Self {
        self.patience = patience.max(1);
        self
    }

    /// Enables the reliable-delivery sublayer with the default
    /// [`RetryPolicy`]: every protocol message travels in a sequenced,
    /// cumulative-acked [`Body::Sealed`] envelope, lost traffic is
    /// retransmitted with exponential backoff, and budget-exhausted
    /// peers are excluded by majority vote with their tasks
    /// re-auctioned among the survivors ([`RunResult::Degraded`])
    /// instead of failing the run — while the excluded count stays
    /// within the tolerated `c`. Patience and the round budget
    /// auto-scale to the policy's worst-case repair horizon (explicit
    /// [`DmwRunner::with_patience`] / [`DmwRunner::with_round_budget`]
    /// values act as floors, never caps). Off by default: the lockstep
    /// artifacts of the paper reproduction are byte-exact without it.
    #[must_use]
    pub fn with_recovery(self) -> Self {
        self.with_recovery_policy(RetryPolicy::default())
    }

    /// As [`DmwRunner::with_recovery`], with explicit retry parameters.
    #[must_use]
    pub fn with_recovery_policy(mut self, policy: RetryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Pins the reliable endpoints to the classic v3 recovery
    /// behaviour — fixed `base_timeout << attempts` backoff, cumulative
    /// acks only, per-payload retransmission — instead of the default
    /// adaptive mode (RTT-derived timeouts, selective acks, nack fast
    /// path, coalesced repair; see [`crate::reliable`]). Both modes
    /// repair to the identical outcome; this knob exists so the bench
    /// can measure the recovery-overhead difference
    /// (`dmw-bench-batch/v4`'s before/after recovery block).
    #[must_use]
    pub fn with_classic_recovery(mut self, classic: bool) -> Self {
        self.classic_recovery = classic;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &DmwConfig {
        &self.config
    }

    /// Runs the protocol with every agent following the suggested strategy
    /// and no injected faults.
    ///
    /// # Errors
    ///
    /// Returns [`DmwError`] for shape/bid-range violations; an aborted
    /// protocol is reported inside the returned [`DmwRun`], not as an
    /// error.
    pub fn run_honest<R: Rng + ?Sized>(
        &self,
        bids: &ExecutionTimes,
        rng: &mut R,
    ) -> Result<DmwRun, DmwError> {
        let n = self.config.agents();
        self.run(bids, &vec![Behavior::Suggested; n], FaultPlan::none(n), rng)
    }

    /// Runs the protocol with per-agent behaviors and a network fault
    /// plan.
    ///
    /// `bids` rows index agents, columns tasks; every entry must lie in
    /// the bid set `W`.
    ///
    /// # Errors
    ///
    /// * [`DmwError::ShapeMismatch`] if the matrix does not cover the
    ///   configured agents;
    /// * [`DmwError::BidOutOfRange`] for an out-of-range entry;
    /// * [`DmwError::Config`] if `behaviors` has the wrong length.
    pub fn run<R: Rng + ?Sized>(
        &self,
        bids: &ExecutionTimes,
        behaviors: &[Behavior],
        faults: FaultPlan,
        rng: &mut R,
    ) -> Result<DmwRun, DmwError> {
        let n = self.config.agents();
        self.run_on(
            bids,
            behaviors,
            DelayTransport::with_faults(n, faults, DelayProfile::synchronous()),
            rng,
        )
    }

    /// Runs the protocol over an arbitrary [`Transport`].
    ///
    /// The scheduler polls every agent each tick (delivered inbox in,
    /// outgoing messages out), steps the transport, and stops at the
    /// round budget or as soon as every agent is terminal and the
    /// transport is quiescent — whichever comes first. With the default
    /// budget and patience on the synchronous [`DelayProfile`] this
    /// reproduces the paper's six synchronous rounds bit for bit.
    ///
    /// # Errors
    ///
    /// As [`DmwRunner::run`], plus [`DmwError::Config`] when the
    /// transport's node count disagrees with the configuration.
    pub fn run_on<T, R>(
        &self,
        bids: &ExecutionTimes,
        behaviors: &[Behavior],
        mut transport: T,
        rng: &mut R,
    ) -> Result<DmwRun, DmwError>
    where
        T: Transport<Body>,
        R: Rng + ?Sized,
    {
        let n = self.config.agents();
        let m = bids.tasks();
        if bids.agents() != n {
            return Err(DmwError::ShapeMismatch {
                agents: bids.agents(),
                expected_agents: n,
            });
        }
        if behaviors.len() != n {
            return Err(DmwError::Config {
                reason: format!("{} behaviors for {} agents", behaviors.len(), n),
            });
        }
        if transport.nodes() != n {
            return Err(DmwError::Config {
                reason: format!("transport has {} nodes for {} agents", transport.nodes(), n),
            });
        }
        let w_max = self.config.encoding().w_max();
        for (agent, task, bid) in bids.iter() {
            if !self.config.encoding().contains_bid(bid) {
                return Err(DmwError::BidOutOfRange {
                    agent: agent.0,
                    task: task.0,
                    bid,
                    w_max,
                });
            }
        }

        // In recovery mode, patience must outlast the worst-case repair
        // horizon (or honest-but-lost traffic is mistaken for silence
        // and spuriously masked) and the round budget must leave room
        // for the repaired schedule; explicit settings act as floors.
        let (patience, round_budget) = match self.recovery {
            Some(policy) => {
                let horizon = policy.worst_case_repair() + 2;
                let patience = self.patience.max(horizon);
                (patience, self.round_budget.max(patience * 8))
            }
            None => (self.patience, self.round_budget),
        };
        // A node crashed by the fault plan is invisible to the network
        // from its crash round on; its *local* state (it will observe
        // missing traffic and abort) must not be mistaken for a protocol
        // failure when scanning results below.
        let crashed: Vec<bool> = (0..n)
            .map(|i| transport.faults().is_crashed(NodeId(i), round_budget))
            .collect();

        let seed: u64 = rng.gen();
        let mut endpoints: Vec<ReliableEndpoint> = match self.recovery {
            Some(policy) => (0..n)
                .map(|i| {
                    let endpoint = ReliableEndpoint::new(i, n, policy);
                    if self.classic_recovery {
                        endpoint.classic()
                    } else {
                        endpoint
                    }
                })
                .collect(),
            None => Vec::new(),
        };
        let mut agents: Vec<DmwAgent> = behaviors
            .iter()
            .copied()
            .enumerate()
            .map(|(i, behavior)| {
                DmwAgent::with_policy(
                    self.config.clone(),
                    i,
                    bids.agent_row(AgentId(i)).to_vec(),
                    behavior,
                    self.policy,
                    seed,
                )
                .with_verify_width(self.verify_threads)
                .with_patience(patience)
            })
            .collect();
        let mut trace = Vec::new();
        // The scheduler's own series: per-phase message and byte counts,
        // attributed at send time (the only place phase, sender and
        // recipient multiplicity are all known).
        let mut sched_metrics = MetricsSnapshot::default();

        let mut round: u64 = 0;
        let mut ticks_processed: u64 = 0;
        loop {
            run_tick(
                round,
                self.batching,
                &mut agents,
                &mut endpoints,
                &mut transport,
                &mut trace,
                &mut sched_metrics,
            );
            ticks_processed += 1;
            round += 1;
            if round >= round_budget {
                break;
            }
            if transport.is_quiescent()
                && agents.iter().all(DmwAgent::is_terminal)
                && endpoints.iter().all(ReliableEndpoint::is_settled)
            {
                break;
            }
            if self.engine == Engine::Event {
                // Next tick that can matter: the transport's earliest
                // delivery, an agent's wake (patience deadline or
                // readiness cascade), or a reliable endpoint's
                // retransmission timer. Everything strictly between
                // `round` and that tick is a provable global no-op —
                // the stopping condition above is invariant across the
                // gap (nothing delivers, acts or retransmits), so both
                // engines evaluate it in identical states. With no
                // event left before the budget, fast-forward straight
                // to it, exactly as the polling loop's remaining empty
                // ticks would.
                let mut next: Option<u64> = transport.next_due();
                let mut merge = |candidate: Option<u64>| {
                    if let Some(tick) = candidate {
                        next = Some(next.map_or(tick, |t| t.min(tick)));
                    }
                };
                for agent in &agents {
                    merge(agent.next_wake());
                }
                for endpoint in &endpoints {
                    merge(endpoint.next_timer());
                }
                let target = next.unwrap_or(round_budget).clamp(round, round_budget);
                if target > round {
                    transport.advance_to(target);
                    round = target;
                    if round >= round_budget {
                        break;
                    }
                }
            }
        }

        // One post-run assembly serves every return path below: the
        // transport's per-link/drop/delay series, the scheduler's
        // per-phase traffic, each agent's protocol metrics and — in
        // recovery mode — each endpoint's retransmit/ack/suspicion
        // series merge into a single snapshot; the run length lands as
        // a gauge.
        let network = *transport.stats();
        let mut metrics = transport.metrics().clone();
        metrics.absorb(&sched_metrics);
        for agent in &agents {
            metrics.absorb(agent.metrics());
        }
        for endpoint in &endpoints {
            metrics.absorb(endpoint.metrics());
        }
        metrics.gauge_max(Key::named("run_ticks"), round);
        // `run_ticks` is simulated time (the final tick counter, both
        // engines agree on it bit-for-bit); `events_processed` is
        // scheduler work — how many tick bodies actually executed. Under
        // the polling engine they coincide; under the event engine
        // `events_processed` can be far smaller when the run has long
        // idle stretches (retransmission backoff, patience waits).
        metrics.gauge_max(Key::named("events_processed"), ticks_processed);

        let result = 'result: {
            let unresolvable = || RunResult::Aborted {
                reason: AbortReason::Unresolvable,
                detectors: vec![],
            };

            // Any abort (own detection or peer notification) fails the run.
            let mut detectors = Vec::new();
            let mut reason = None;
            for (i, (agent, &is_crashed)) in agents.iter().zip(&crashed).enumerate() {
                if is_crashed {
                    continue;
                }
                if let Some(r) = agent.abort_reason() {
                    if !matches!(r, AbortReason::PeerAborted { .. }) {
                        detectors.push(i);
                        reason.get_or_insert(r);
                    }
                }
            }
            if reason.is_none() {
                reason = agents
                    .iter()
                    .zip(&crashed)
                    .filter(|(_, &is_crashed)| !is_crashed)
                    .find_map(|(a, _)| a.abort_reason());
            }
            if let Some(reason) = reason {
                break 'result RunResult::Aborted { reason, detectors };
            }

            // Collect the outcome from the Done agents and assert agreement —
            // honest agents must have computed identical winners and prices.
            let done: Vec<&DmwAgent> = agents
                .iter()
                .zip(&crashed)
                .filter(|(a, &is_crashed)| !is_crashed && matches!(a.status(), AgentStatus::Done))
                .map(|(a, _)| a)
                .collect();
            let Some(reference) = done.first() else {
                break 'result unresolvable();
            };
            let mut assignment = Vec::with_capacity(m);
            let mut first_prices = Vec::with_capacity(m);
            let mut second_prices = Vec::with_capacity(m);
            let mut resolved = true;
            for task in 0..m {
                // A Done agent has resolved every task; a gap here is an
                // internal inconsistency and is surfaced as Unresolvable
                // rather than crashing the harness.
                let (Some(winner), Some(first), Some(second)) = (
                    reference.winner_of(task),
                    reference.first_price_of(task),
                    reference.second_price_of(task),
                ) else {
                    resolved = false;
                    break;
                };
                for other in &done {
                    if other.behavior().is_suggested() {
                        assert_eq!(
                            other.winner_of(task),
                            Some(winner),
                            "honest agents disagree on the winner of task {task}"
                        );
                    }
                }
                assignment.push(AgentId(winner));
                first_prices.push(first);
                second_prices.push(second);
            }
            if !resolved {
                break 'result unresolvable();
            }
            let schedule = Schedule::from_assignment(n, assignment)?;

            // Phase IV settlement over the submitted claims.
            let claims: Vec<Vec<u64>> = done
                .iter()
                .filter_map(|a| a.claim().map(<[u64]>::to_vec))
                .collect();
            let Some(settlement) = settle(&claims) else {
                break 'result unresolvable();
            };

            RunResult::Completed(CompletedOutcome {
                schedule,
                payments: settlement.payments,
                withheld: settlement.withheld,
                first_prices,
                second_prices,
            })
        };

        // Graceful degradation: when the reliable sublayer gave up on
        // one or more peers, the survivors vote them out and re-run the
        // affected auctions among themselves instead of failing the run
        // (while the excluded count stays within the tolerated `c`).
        let result = match &self.recovery {
            Some(_) => {
                let excluded = exclusion_vote(&endpoints);
                if excluded.is_empty() {
                    result
                } else {
                    self.degrade(result, excluded, bids, behaviors, seed, &mut metrics)?
                }
            }
            None => result,
        };

        Ok(DmwRun {
            result,
            network,
            metrics,
            trace,
        })
    }

    /// Transforms a recovery-mode run whose exclusion vote removed
    /// `excluded` agents: within the resilience threshold `c`, tasks the
    /// excluded agents had won (or — after a crash-induced abort — every
    /// task) are re-auctioned among the survivors on a pristine lockstep
    /// sub-run whose parameters derive deterministically from the primary
    /// seed, and the repaired outcome is reported as
    /// [`RunResult::Degraded`]. Aborts that identify a protocol
    /// *violation* are preserved — degradation repairs silence, never
    /// detected deviations — and beyond the threshold the run aborts
    /// [`AbortReason::Unresolvable`].
    fn degrade(
        &self,
        primary: RunResult,
        excluded: Vec<usize>,
        bids: &ExecutionTimes,
        behaviors: &[Behavior],
        seed: u64,
        metrics: &mut MetricsSnapshot,
    ) -> Result<RunResult, DmwError> {
        let n = self.config.agents();
        let m = bids.tasks();
        let c = self.config.encoding().faults();
        for &p in &excluded {
            metrics.incr(Key::named("excluded_agent").agent(p as u32), 1);
        }
        if excluded.len() > c {
            // Above the resilience threshold no re-auction keeps the bid
            // encoding valid: the existing abort path stands.
            return Ok(RunResult::Aborted {
                reason: AbortReason::Unresolvable,
                detectors: vec![],
            });
        }
        if let RunResult::Aborted { reason, .. } = &primary {
            let crash_induced = matches!(
                reason,
                AbortReason::Unresolvable | AbortReason::TooManyFaults { .. }
            );
            if !crash_induced {
                // A detected deviation (tampered shares, bad lambda, a
                // disagreeing claim...) zeroes everyone's utility no
                // matter how many peers also fell silent.
                return Ok(primary);
            }
        }

        // Tasks needing a survivor re-auction: those the excluded agents
        // had won, or all of them when the primary run never resolved.
        let affected: Vec<usize> = match &primary {
            RunResult::Completed(outcome) | RunResult::Degraded { outcome, .. } => (0..m)
                .filter(|&t| {
                    outcome
                        .schedule
                        .agent_of(TaskId(t))
                        .is_some_and(|a| excluded.contains(&a.0))
                })
                .collect(),
            RunResult::Aborted { .. } => (0..m).collect(),
        };
        metrics.incr(Key::named("degraded_runs"), 1);
        metrics.incr(Key::named("reauctioned_tasks"), affected.len() as u64);
        if affected.is_empty() {
            // The excluded agents had won nothing: the primary outcome
            // survives untouched.
            return Ok(match primary {
                RunResult::Completed(outcome) | RunResult::Degraded { outcome, .. } => {
                    RunResult::Degraded {
                        outcome,
                        excluded,
                        reauctioned_tasks: vec![],
                    }
                }
                aborted @ RunResult::Aborted { .. } => aborted,
            });
        }

        // Salvage the primary results where they exist; affected slots
        // are overwritten below (an aborted primary marks every task
        // affected, so its placeholders never survive).
        let (mut assignment, mut first_prices, mut second_prices) = match &primary {
            RunResult::Completed(outcome) | RunResult::Degraded { outcome, .. } => (
                (0..m)
                    .map(|t| outcome.schedule.agent_of(TaskId(t)).unwrap_or(AgentId(0)))
                    .collect::<Vec<_>>(),
                outcome.first_prices.clone(),
                outcome.second_prices.clone(),
            ),
            RunResult::Aborted { .. } => (vec![AgentId(0); m], vec![0; m], vec![0; m]),
        };

        // The survivor sub-configuration keeps the bid range valid:
        // `w_max = n − c − 1` is invariant under `(n − x, c − x)`, so
        // every original bid re-auctions unchanged. The sub-run rides a
        // pristine lockstep transport: recovery models the re-auction as
        // happening after the disruption that caused the exclusion has
        // passed (persistent chaos would simply trigger recovery again).
        let survivors: Vec<usize> = (0..n).filter(|i| !excluded.contains(i)).collect();
        let sub_rows: Vec<Vec<u64>> = survivors
            .iter()
            .map(|&i| {
                affected
                    .iter()
                    .map(|&t| bids.time(AgentId(i), TaskId(t)))
                    .collect()
            })
            .collect();
        let sub_bids = ExecutionTimes::from_rows(sub_rows)?;
        let sub_behaviors: Vec<Behavior> = survivors
            .iter()
            .map(|&i| behaviors.get(i).copied().unwrap_or(Behavior::Suggested))
            .collect();
        let mut sub_rng = rand::rngs::StdRng::seed_from_u64(seed ^ RECOVERY_SEED_DOMAIN);
        let sub_config = DmwConfig::generate(survivors.len(), c - excluded.len(), &mut sub_rng)?;
        let sub_runner = DmwRunner::new(sub_config)
            .with_policy(self.policy)
            .with_batching(self.batching)
            .with_verify_threads(self.verify_threads)
            .with_engine(self.engine);
        let sub_run = sub_runner.run(
            &sub_bids,
            &sub_behaviors,
            FaultPlan::none(survivors.len()),
            &mut sub_rng,
        )?;
        metrics.incr(Key::named("recovery_rounds"), sub_run.network.rounds);
        metrics.incr(
            Key::named("recovery_messages"),
            sub_run.network.point_to_point,
        );
        metrics.incr(Key::named("recovery_bytes"), sub_run.network.bytes);

        match sub_run.result {
            RunResult::Completed(sub) => {
                for (j, &t) in affected.iter().enumerate() {
                    let winner = sub
                        .schedule
                        .agent_of(TaskId(j))
                        .and_then(|w| survivors.get(w.0).copied());
                    let Some(winner) = winner else {
                        return Ok(RunResult::Aborted {
                            reason: AbortReason::Unresolvable,
                            detectors: vec![],
                        });
                    };
                    if let Some(slot) = assignment.get_mut(t) {
                        *slot = AgentId(winner);
                    }
                    if let (Some(slot), Some(&p)) =
                        (first_prices.get_mut(t), sub.first_prices.get(j))
                    {
                        *slot = p;
                    }
                    if let (Some(slot), Some(&p)) =
                        (second_prices.get_mut(t), sub.second_prices.get(j))
                    {
                        *slot = p;
                    }
                }
                let schedule = Schedule::from_assignment(n, assignment)?;
                // Payments recompute wholesale over the final schedule
                // (winner earns the task's second price), replacing the
                // primary settlement that still credited excluded agents.
                let payments: Vec<u64> = (0..n)
                    .map(|i| {
                        schedule
                            .tasks_of(AgentId(i))
                            .into_iter()
                            .map(|t| second_prices.get(t.0).copied().unwrap_or(0))
                            .sum()
                    })
                    .collect();
                Ok(RunResult::Degraded {
                    outcome: CompletedOutcome {
                        schedule,
                        payments,
                        withheld: vec![false; n],
                        first_prices,
                        second_prices,
                    },
                    excluded,
                    reauctioned_tasks: affected,
                })
            }
            // The sub-run never runs in recovery mode, so a Degraded
            // sub-result is unreachable; treat it as unresolvable
            // rather than panicking the harness.
            RunResult::Degraded { .. } => Ok(RunResult::Aborted {
                reason: AbortReason::Unresolvable,
                detectors: vec![],
            }),
            // A deviating survivor caught during the re-auction still
            // fails the whole run, with detectors mapped back to the
            // original agent indices.
            RunResult::Aborted { reason, detectors } => Ok(RunResult::Aborted {
                reason,
                detectors: detectors
                    .into_iter()
                    .filter_map(|d| survivors.get(d).copied())
                    .collect(),
            }),
        }
    }
}

/// One scheduler tick: poll every agent with its freshly delivered
/// inbox, trace and meter the logical protocol messages, seal and send
/// them (through the reliable endpoints in recovery mode), then step the
/// transport. Both [`Engine`]s execute this exact body — they differ
/// only in which ticks they execute, which is why their run artifacts
/// stay bit-identical (`docs/scheduler.md`).
fn run_tick<T: Transport<Body>>(
    round: u64,
    batching: bool,
    agents: &mut [DmwAgent],
    endpoints: &mut [ReliableEndpoint],
    transport: &mut T,
    trace: &mut Vec<TraceEvent>,
    sched_metrics: &mut MetricsSnapshot,
) {
    let n = agents.len();
    for (i, agent) in agents.iter_mut().enumerate() {
        let inbox = transport.take_inbox(NodeId(i));
        // Recovery mode: the endpoint consumes acks and control
        // traffic, deduplicates and reorders, and releases the
        // in-sequence protocol messages the agent should see.
        let inbox = match endpoints.get_mut(i) {
            Some(endpoint) => endpoint.process_inbound(round, inbox),
            None => inbox,
        };
        let outgoing = agent.poll_at(round, inbox);
        let outgoing = if batching {
            coalesce(outgoing, Body::Batch)
        } else {
            outgoing
        };
        let phase = agent.acted_phase();
        // Trace and per-phase accounting cover the *logical*
        // protocol messages — sealing overhead, retransmissions
        // and acks are metered separately by the endpoints and
        // the transport.
        for (recipient, body) in &outgoing {
            trace.push(TraceEvent::new(
                round,
                phase,
                i,
                recipient,
                body.kind(),
                body.task(),
            ));
            // Broadcasts are n − 1 transmissions, per the
            // paper's cost model and the transport's own
            // accounting.
            let copies = match recipient {
                Recipient::Unicast(_) => 1,
                Recipient::Broadcast => (n - 1) as u64,
            };
            let mut messages = Key::named("phase_messages").phase(phase).agent(i as u32);
            if let Some(task) = body.task() {
                messages = messages.task(task as u32);
            }
            sched_metrics.incr(messages, copies);
            sched_metrics.incr(
                Key::named("phase_bytes").phase(phase).agent(i as u32),
                copies * body.size_bytes() as u64,
            );
        }
        match endpoints.get_mut(i) {
            Some(endpoint) => {
                // Seal after coalescing (the envelope is the
                // outermost layer), then run the retransmit
                // timers and flush any owed standalone acks.
                for (to, body) in endpoint.seal_outgoing(round, phase, outgoing) {
                    transport.send(NodeId(i), to, body);
                }
                let label = agent.phase().label();
                for (recipient, body) in endpoint.tick(round, label) {
                    // Recovery control traffic (acks, nacks, repairs,
                    // suspicion notices) gets its own `control` row in
                    // the per-phase tables, so protocol-phase traffic
                    // stays comparable across bench schema versions.
                    let copies = match recipient {
                        Recipient::Unicast(_) => 1,
                        Recipient::Broadcast => (n - 1) as u64,
                    };
                    sched_metrics.incr(
                        Key::named("phase_messages")
                            .phase("control")
                            .agent(i as u32),
                        copies,
                    );
                    sched_metrics.incr(
                        Key::named("phase_bytes").phase("control").agent(i as u32),
                        copies * body.size_bytes() as u64,
                    );
                    match recipient {
                        Recipient::Unicast(to) => transport.send(NodeId(i), to, body),
                        Recipient::Broadcast => transport.broadcast(NodeId(i), body),
                    }
                }
            }
            None => {
                for (recipient, body) in outgoing {
                    match recipient {
                        Recipient::Unicast(to) => transport.send(NodeId(i), to, body),
                        Recipient::Broadcast => transport.broadcast(NodeId(i), body),
                    }
                }
            }
        }
    }
    transport.step();
}

/// Utility of each agent for a completed run: settled payment minus the
/// true cost of the tasks it won, in bid units (Definition 6, item 5). A
/// degraded run counts the same way over its repaired schedule (excluded
/// agents hold no tasks and earn nothing, so their utility is zero). For
/// an aborted run every agent's utility is zero — no tasks are assigned
/// and no payments are dispensed.
pub fn utilities(run: &DmwRun, truth: &ExecutionTimes) -> Vec<i128> {
    let n = truth.agents();
    match run.outcome() {
        None => vec![0; n],
        Some(outcome) => (0..n)
            .map(|i| {
                let load: u64 = outcome
                    .schedule
                    .tasks_of(AgentId(i))
                    .into_iter()
                    .map(|t| truth.time(AgentId(i), t))
                    .sum();
                let payment = outcome.payments.get(i).copied().unwrap_or(0);
                payment as i128 - load as i128
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup(n: usize, c: usize, seed: u64) -> (DmwRunner, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let config = DmwConfig::generate(n, c, &mut rng).unwrap();
        (DmwRunner::new(config), rng)
    }

    #[test]
    fn honest_run_matches_centralized_minwork() {
        let (runner, mut rng) = setup(5, 1, 11);
        let bids = ExecutionTimes::from_rows(vec![
            vec![2, 3],
            vec![1, 3],
            vec![3, 1],
            vec![2, 2],
            vec![3, 3],
        ])
        .unwrap();
        let run = runner.run_honest(&bids, &mut rng).unwrap();
        let outcome = run.completed().unwrap();
        // Task 0: winner agent 1 (bid 1), second price 2.
        // Task 1: winner agent 2 (bid 1), second price 2.
        assert_eq!(outcome.schedule.agent_of(0.into()), Some(AgentId(1)));
        assert_eq!(outcome.schedule.agent_of(1.into()), Some(AgentId(2)));
        assert_eq!(outcome.first_prices, vec![1, 1]);
        assert_eq!(outcome.second_prices, vec![2, 2]);
        assert_eq!(outcome.payments, vec![0, 2, 2, 0, 0]);
        assert!(outcome.withheld.iter().all(|&w| !w));
    }

    #[test]
    fn shape_and_range_validation() {
        let (runner, mut rng) = setup(4, 0, 12);
        let wrong_agents = ExecutionTimes::from_rows(vec![vec![1], vec![1]]).unwrap();
        assert!(matches!(
            runner.run_honest(&wrong_agents, &mut rng),
            Err(DmwError::ShapeMismatch { .. })
        ));
        let out_of_range =
            ExecutionTimes::from_rows(vec![vec![9], vec![1], vec![1], vec![1]]).unwrap();
        assert!(matches!(
            runner.run_honest(&out_of_range, &mut rng),
            Err(DmwError::BidOutOfRange { .. })
        ));
        let bids = ExecutionTimes::from_rows(vec![vec![1], vec![1], vec![1], vec![1]]).unwrap();
        assert!(matches!(
            runner.run(
                &bids,
                &[Behavior::Suggested; 2],
                FaultPlan::none(4),
                &mut rng
            ),
            Err(DmwError::Config { .. })
        ));
    }

    #[test]
    fn trace_records_all_phases() {
        let (runner, mut rng) = setup(4, 0, 13);
        let bids = ExecutionTimes::from_rows(vec![vec![2], vec![1], vec![3], vec![2]]).unwrap();
        let run = runner.run_honest(&bids, &mut rng).unwrap();
        assert!(run.is_completed());
        let kinds: std::collections::HashSet<&str> = run.trace.iter().map(|e| e.kind).collect();
        for phase in crate::trace::PHASE_ORDER {
            assert!(kinds.contains(phase), "missing phase {phase}");
        }
        // Share bundles travel point-to-point (solid arrows in Fig. 2).
        assert!(run
            .trace
            .iter()
            .filter(|e| e.kind == "shares")
            .all(|e| !e.is_broadcast()));
        // Everything else is published.
        assert!(run
            .trace
            .iter()
            .filter(|e| e.kind != "shares")
            .all(|e| e.is_broadcast()));
    }

    #[test]
    fn batching_preserves_the_outcome_and_shrinks_message_count() {
        let (runner, mut rng) = setup(6, 1, 15);
        let bids = ExecutionTimes::from_rows(vec![
            vec![2, 3, 1, 4],
            vec![1, 3, 3, 2],
            vec![3, 1, 2, 1],
            vec![2, 2, 3, 3],
            vec![3, 3, 1, 2],
            vec![4, 2, 2, 1],
        ])
        .unwrap();
        let plain = runner.run_honest(&bids, &mut rng).unwrap();
        let batched = runner
            .clone()
            .with_batching(true)
            .run_honest(&bids, &mut rng)
            .unwrap();
        let plain_outcome = plain.completed().unwrap();
        let batched_outcome = batched.completed().unwrap();
        assert_eq!(plain_outcome.schedule, batched_outcome.schedule);
        assert_eq!(plain_outcome.payments, batched_outcome.payments);
        // Far fewer transmissions, comparable bytes.
        assert!(batched.network.point_to_point * 2 < plain.network.point_to_point);
        assert!(batched.network.bytes <= plain.network.bytes * 2);
        // The batched trace shows coalesced containers.
        assert!(batched.trace.iter().any(|e| e.kind == "batch"));
        assert!(plain.trace.iter().all(|e| e.kind != "batch"));
    }

    #[test]
    fn full_verification_policy_reproduces_the_outcome() {
        let (runner, mut rng) = setup(5, 1, 16);
        let bids = ExecutionTimes::from_rows(vec![
            vec![2, 3],
            vec![1, 3],
            vec![3, 1],
            vec![2, 2],
            vec![3, 3],
        ])
        .unwrap();
        let rotation = runner.run_honest(&bids, &mut rng).unwrap();
        let full = runner
            .clone()
            .with_policy(crate::strategy::VerificationPolicy::Full)
            .run_honest(&bids, &mut rng)
            .unwrap();
        assert_eq!(
            rotation.completed().unwrap().schedule,
            full.completed().unwrap().schedule
        );
        assert_eq!(
            rotation.completed().unwrap().payments,
            full.completed().unwrap().payments
        );
    }

    #[test]
    fn full_policy_detects_wrong_lambda_at_the_verifier() {
        // Under Full verification, every agent checks every pair, so a
        // corrupted lambda is always caught by eq (11) before resolution
        // can fail mysteriously.
        let (runner, mut rng) = setup(6, 2, 17);
        let bids = ExecutionTimes::from_rows(vec![vec![2]; 6]).unwrap();
        let mut behaviors = vec![Behavior::Suggested; 6];
        behaviors[2] = Behavior::WrongLambda;
        let run = runner
            .clone()
            .with_policy(crate::strategy::VerificationPolicy::Full)
            .run(&bids, &behaviors, FaultPlan::none(6), &mut rng)
            .unwrap();
        assert!(matches!(
            run.abort_reason(),
            Some(AbortReason::InvalidLambdaPsi { publisher: 2 })
        ));
    }

    #[test]
    fn verify_threads_do_not_change_the_outcome() {
        // The Phase III.1 fan-out is a pure throughput knob: the full run
        // artifact (result, traffic, trace) is width-invariant.
        let (runner, mut rng) = setup(6, 1, 18);
        let bids = ExecutionTimes::from_rows(vec![
            vec![2, 3, 1],
            vec![1, 3, 3],
            vec![3, 1, 2],
            vec![2, 2, 3],
            vec![3, 3, 1],
            vec![4, 2, 2],
        ])
        .unwrap();
        let sequential = runner.run_honest(&bids, &mut rng).unwrap();
        let parallel = runner
            .clone()
            .with_verify_threads(4)
            .run_honest(&bids, &mut rng)
            .unwrap();
        // Different RNG draws (the two calls advance the same rng), so
        // compare against a replay with identical draws instead.
        let mut replay_rng = rand::rngs::StdRng::seed_from_u64(181);
        let mut wide_rng = rand::rngs::StdRng::seed_from_u64(181);
        let replay = runner.run_honest(&bids, &mut replay_rng).unwrap();
        let wide = runner
            .clone()
            .with_verify_threads(8)
            .run_honest(&bids, &mut wide_rng)
            .unwrap();
        assert_eq!(replay.result, wide.result);
        assert_eq!(replay.network, wide.network);
        assert_eq!(replay.trace, wide.trace);
        // And both unseeded runs still complete identically in schedule.
        assert_eq!(
            sequential.completed().unwrap().schedule,
            parallel.completed().unwrap().schedule
        );
    }

    #[test]
    fn recovery_mode_reproduces_the_lossless_outcome_under_loss() {
        // Same seed, three runs: lossless baseline, periodic loss
        // (every 3rd transmission), and 10% seeded probabilistic loss —
        // the ack/retransmit sublayer must repair both chaos schedules
        // to the identical allocation and payments, without an abort.
        let bids = ExecutionTimes::from_rows(vec![
            vec![2, 3],
            vec![1, 3],
            vec![3, 1],
            vec![2, 2],
            vec![3, 3],
        ])
        .unwrap();
        let outcome_under = |faults: FaultPlan| {
            let (runner, mut rng) = setup(5, 1, 11);
            let run = runner
                .with_recovery()
                .run(&bids, &[Behavior::Suggested; 5], faults, &mut rng)
                .unwrap();
            run
        };
        let baseline = outcome_under(FaultPlan::none(5));
        assert!(baseline.is_completed(), "lossless recovery run completes");
        let periodic = outcome_under(FaultPlan::none(5).drop_every(3));
        let probabilistic = outcome_under(FaultPlan::none(5).drop_prob(0.10, 97));
        for lossy in [&periodic, &probabilistic] {
            assert!(lossy.is_completed(), "repaired run completes cleanly");
            assert_eq!(
                lossy.completed().unwrap(),
                baseline.completed().unwrap(),
                "repair is outcome-invariant"
            );
        }
        // The repairs are visible in the metrics.
        assert!(periodic.metrics.counter_total("retransmissions") > 0);
        assert!(probabilistic.metrics.counter_total("retransmissions") > 0);
        assert_eq!(baseline.metrics.counter_total("retransmissions"), 0);
        assert!(baseline.metrics.counter_total("acks_sent") > 0);
    }

    #[test]
    fn early_crash_degrades_without_a_reauction() {
        // Crashing before bidding keeps the crashed agent's bid out of
        // the auctions entirely: the survivors still exclude it, but
        // nothing needs re-running.
        let bids = ExecutionTimes::from_rows(vec![
            vec![2, 3],
            vec![1, 3],
            vec![3, 1],
            vec![2, 2],
            vec![3, 3],
        ])
        .unwrap();
        let (runner, mut rng) = setup(5, 1, 11);
        let faults = FaultPlan::none(5).crash_at(NodeId(1), 0);
        let run = runner
            .with_recovery()
            .run(&bids, &[Behavior::Suggested; 5], faults, &mut rng)
            .unwrap();
        let RunResult::Degraded {
            excluded,
            reauctioned_tasks,
            ..
        } = &run.result
        else {
            panic!("expected degradation, got {:?}", run.result);
        };
        assert_eq!(excluded, &vec![1]);
        assert!(reauctioned_tasks.is_empty());
    }

    #[test]
    fn crash_below_threshold_degrades_with_survivor_reauction() {
        // Agent 1 wins task 0 (bid 1), then crashes after the auction
        // resolves: the survivors exclude it and re-auction its task
        // among themselves at the surviving second price.
        let bids = ExecutionTimes::from_rows(vec![
            vec![2, 3],
            vec![1, 3],
            vec![3, 1],
            vec![2, 2],
            vec![3, 3],
        ])
        .unwrap();
        let (runner, mut rng) = setup(5, 1, 11);
        let faults = FaultPlan::none(5).crash_at(NodeId(1), 4);
        let run = runner
            .with_recovery()
            .run(&bids, &[Behavior::Suggested; 5], faults, &mut rng)
            .unwrap();
        let RunResult::Degraded {
            outcome,
            excluded,
            reauctioned_tasks,
        } = &run.result
        else {
            panic!("expected degradation, got {:?}", run.result);
        };
        assert!(run.is_degraded());
        assert_eq!(excluded, &vec![1]);
        assert_eq!(reauctioned_tasks, &vec![0]);
        // Survivor bids on task 0: agent 0 → 2, agent 2 → 3, agent 3 →
        // 2, agent 4 → 3. Winner: agent 0 (first survivor at bid 2),
        // surviving second price 2. Task 1 keeps its primary result
        // (agent 2 at second price 2).
        assert_eq!(outcome.schedule.agent_of(TaskId(0)), Some(AgentId(0)));
        assert_eq!(outcome.schedule.agent_of(TaskId(1)), Some(AgentId(2)));
        assert_eq!(outcome.first_prices, vec![2, 1]);
        assert_eq!(outcome.second_prices, vec![2, 2]);
        assert_eq!(outcome.payments, vec![2, 0, 2, 0, 0]);
        assert_eq!(run.metrics.counter_total("degraded_runs"), 1);
        assert!(run.metrics.counter_total("suspect_dead") > 0);
        // Degraded utilities count over the repaired schedule.
        assert_eq!(utilities(&run, &bids), vec![0, 0, 1, 0, 0]);
    }

    #[test]
    fn crashes_beyond_threshold_stay_aborted() {
        let bids = ExecutionTimes::from_rows(vec![
            vec![2, 3],
            vec![1, 3],
            vec![3, 1],
            vec![2, 2],
            vec![3, 3],
        ])
        .unwrap();
        let (runner, mut rng) = setup(5, 1, 11);
        let faults = FaultPlan::none(5)
            .crash_at(NodeId(1), 0)
            .crash_at(NodeId(2), 0);
        let run = runner
            .with_recovery()
            .run(&bids, &[Behavior::Suggested; 5], faults, &mut rng)
            .unwrap();
        assert_eq!(run.abort_reason(), Some(AbortReason::Unresolvable));
    }

    #[test]
    fn recovery_preserves_deviation_detection() {
        // A tampering agent is still caught when the reliable sublayer
        // is active — degradation repairs silence, never violations.
        let (runner, mut rng) = setup(6, 2, 17);
        let bids = ExecutionTimes::from_rows(vec![vec![2]; 6]).unwrap();
        let mut behaviors = vec![Behavior::Suggested; 6];
        behaviors[2] = Behavior::WrongLambda;
        let run = runner
            .with_policy(crate::strategy::VerificationPolicy::Full)
            .with_recovery()
            .run(&bids, &behaviors, FaultPlan::none(6), &mut rng)
            .unwrap();
        assert!(matches!(
            run.abort_reason(),
            Some(AbortReason::InvalidLambdaPsi { publisher: 2 })
        ));
    }

    #[test]
    fn utilities_are_zero_for_aborted_runs() {
        let (runner, mut rng) = setup(4, 0, 14);
        let bids = ExecutionTimes::from_rows(vec![vec![2], vec![1], vec![3], vec![2]]).unwrap();
        let behaviors = [
            Behavior::Suggested,
            Behavior::TamperedCommitments,
            Behavior::Suggested,
            Behavior::Suggested,
        ];
        let run = runner
            .run(&bids, &behaviors, FaultPlan::none(4), &mut rng)
            .unwrap();
        assert!(!run.is_completed());
        assert_eq!(utilities(&run, &bids), vec![0; 4]);
    }
}
