//! The outside-in trace: a timing decorator around the [`Transport`] that
//! `DmwRunner::run_on` drives.
//!
//! The runner calls the transport at every layer boundary it crosses, so
//! the time between two consecutive transport calls belongs to whichever
//! layer ran in between, and the call that ended the gap says which one:
//!
//! * after `take_inbox(i)`, until the next call: agent `i` (its phase
//!   machine, the crypto it calls and, in recovery mode, the endpoint's
//!   inbound processing), labelled by the `Body::kind` the agent emits
//!   first, `idle` if it emits nothing;
//! * after a `send`/`broadcast`: `agent.emit` (sealing, endpoint timers,
//!   the scheduler's per-message accounting);
//! * after `step`/`advance_to` or a scheduler query: `runner.sched`;
//! * before the first `take_inbox`: `runner.init` (agent construction);
//! * after the closing `stats`/`metrics` reads: `runner.finish` (the
//!   exclusion vote and the survivor re-auction);
//! * from the start of the run until [`Recorder::harness_done`]: `harness`,
//!   the benchmark building the transport before it calls `run_on`.
//!
//! Every gap and every call becomes a [`Span`] whose parent is the run
//! span. Spans stay in memory; [`Recorder::write`] writes the kept ones
//! out when the benchmark ends. The decorator's own bookkeeping (clock
//! reads, payload copies for the codec replay) is measured separately as
//! trace overhead, so it is charged to no layer.

use dmw::codec::DecodeError;
use dmw::messages::Body;
use dmw_crypto::BidEncoding;
use dmw_modmath::ops::{current_ops, OpsSnapshot};
use dmw_obs::MetricsSnapshot;
use dmw_simnet::{Delivered, FaultPlan, NetworkStats, NodeId, Transport};
use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// Agent span labels: the protocol kinds an agent can emit first, then
/// recovery control traffic and polls that emit nothing.
pub const LABELS: [&str; 9] = [
    "shares",
    "commitments",
    "lambda-psi",
    "f-disclosure",
    "winner-claim",
    "excluded-lambda-psi",
    "payment-claim",
    "control",
    "idle",
];
const IDLE: usize = 8;
const CONTROL: usize = 7;

/// Span names, indexed by [`Span::name`]. Agent spans follow at
/// [`AGENT`] in [`LABELS`] order.
const NAMES: [&str; 24] = [
    "run",
    "runner.init",
    "runner.sched",
    "runner.finish",
    "agent.emit",
    "simnet.send",
    "simnet.broadcast",
    "simnet.step",
    "simnet.take_inbox",
    "simnet.query",
    "codec.replay",
    "codec.encoded_len",
    "codec.encode",
    "codec.decode",
    "harness",
    "agent.shares",
    "agent.commitments",
    "agent.lambda-psi",
    "agent.f-disclosure",
    "agent.winner-claim",
    "agent.excluded-lambda-psi",
    "agent.payment-claim",
    "agent.control",
    "agent.idle",
];
const RUN: u8 = 0;
pub const RUNNER_INIT: u8 = 1;
pub const RUNNER_SCHED: u8 = 2;
pub const RUNNER_FINISH: u8 = 3;
pub const AGENT_EMIT: u8 = 4;
pub const SIMNET_SEND: u8 = 5;
pub const SIMNET_BROADCAST: u8 = 6;
pub const SIMNET_STEP: u8 = 7;
pub const SIMNET_TAKE_INBOX: u8 = 8;
pub const SIMNET_QUERY: u8 = 9;
const CODEC_REPLAY: u8 = 10;
pub const CODEC_ENCODED_LEN: u8 = 11;
pub const CODEC_ENCODE: u8 = 12;
pub const CODEC_DECODE: u8 = 13;
const HARNESS: u8 = 14;
pub const AGENT: u8 = 15;

/// Spans kept for writing out; later runs are aggregated but not kept.
const MAX_KEPT_SPANS: usize = 200_000;
const NO_PARENT: u32 = u32::MAX;

/// One timed interval. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u32,
    parent: u32,
    run: u32,
    name: u8,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The agent-span label of the first message an agent emits, looking
/// through reliable-delivery envelopes and coalesced batches.
fn label_of(body: &Body) -> usize {
    match body {
        Body::Sealed { inner, .. } => label_of(inner),
        Body::Batch(items) => items.first().map_or(IDLE, label_of),
        Body::Ack { .. }
        | Body::Nack { .. }
        | Body::Repair { .. }
        | Body::SuspectDead { .. }
        | Body::Abort { .. } => CONTROL,
        other => LABELS
            .iter()
            .position(|&label| label == other.kind())
            .unwrap_or(CONTROL),
    }
}

/// Which transport call is being made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    Send(usize),
    Broadcast(usize),
    TakeInbox(usize),
    Step,
    /// `stats`/`metrics`: the runner reads these once the loop is over.
    Closing,
    /// Every other read-only call.
    Query,
}

/// Which layer the time after the previous call belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gap {
    Harness,
    Init,
    Agent(usize),
    Emit,
    Sched,
    Finish,
}

/// Per-layer totals over all traced runs.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub runs: u64,
    pub wall_ns: u64,
    /// Self time per span name, summed.
    pub self_ns: [u64; NAMES.len()],
    /// Modular multiplications inside agent spans, per label.
    pub label_mul: [u64; LABELS.len()],
    /// Decorator bookkeeping inside run spans.
    pub overhead_ns: u64,
    pub calls: u64,
    pub peak_tick_bytes: u64,
    pub codec_payloads: u64,
    pub codec_bytes: u64,
    pub codec_failures: u64,
}

impl Layers {
    /// Summed self time of the spans called `name`.
    pub fn ns(&self, name: u8) -> u64 {
        self.self_ns[usize::from(name)]
    }

    /// Summed self time of all agent spans.
    pub fn agent_ns(&self) -> u64 {
        (0..LABELS.len()).map(|l| self.ns(AGENT + l as u8)).sum()
    }

    /// Time inside run spans charged to no protocol layer: the
    /// benchmark's own work before `run_on` (building the transport), plus
    /// any time neither the gaps, the calls nor the decorator cover.
    pub fn unattributed_ns(&self) -> u64 {
        (self.ns(HARNESS) + self.ns(RUN)).saturating_sub(self.overhead_ns)
    }
}

/// Collects spans and counts across runs. Shared by reference with each
/// [`Timed`] transport, whose `&self` methods also record.
pub struct Recorder {
    epoch: Instant,
    next_id: u32,
    run: u32,
    /// The current run's spans; index 0 is the run span.
    spans: Vec<Span>,
    kept: Vec<Span>,
    gap: Gap,
    last_exit: Instant,
    last_ops: OpsSnapshot,
    seen_inbox: bool,
    last_step_bytes: u64,
    run_peak_tick_bytes: u64,
    run_overhead_ns: u64,
    run_calls: u64,
    /// Copies of every payload handed to the transport, for the codec
    /// replay after the run.
    payloads: Vec<Body>,
    pub layers: Layers,
}

impl Recorder {
    pub fn new() -> Self {
        let now = Instant::now();
        Recorder {
            epoch: now,
            next_id: 0,
            run: 0,
            spans: Vec::new(),
            kept: Vec::new(),
            gap: Gap::Init,
            last_exit: now,
            last_ops: OpsSnapshot::default(),
            seen_inbox: false,
            last_step_bytes: 0,
            run_peak_tick_bytes: 0,
            run_overhead_ns: 0,
            run_calls: 0,
            payloads: Vec::new(),
            layers: Layers::default(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&mut self, parent: u32, name: u8, start: Instant, end: Instant) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            run: self.run,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Opens the run span at `start`, before the benchmark builds the
    /// run's transport.
    pub fn begin_run(&mut self, start: Instant) {
        self.run += 1;
        self.spans.clear();
        self.push(NO_PARENT, RUN, start, start);
        self.gap = Gap::Harness;
        self.last_exit = start;
        self.last_ops = current_ops();
        self.seen_inbox = false;
        self.last_step_bytes = 0;
        self.run_peak_tick_bytes = 0;
        self.run_overhead_ns = 0;
        self.run_calls = 0;
    }

    /// Marks the hand-over to `run_on`: the time since
    /// [`Recorder::begin_run`] was the benchmark's own.
    pub fn harness_done(&mut self) {
        let at = Instant::now();
        self.close_gap(at, None);
        self.gap = Gap::Init;
        self.last_exit = at;
    }

    /// Closes the gap that ends at `at` with `next` (if any) about to run.
    fn close_gap(&mut self, at: Instant, next: Option<(Call, Option<&Body>)>) {
        let ops = current_ops();
        let name = match self.gap {
            Gap::Harness => HARNESS,
            Gap::Init => RUNNER_INIT,
            Gap::Emit => AGENT_EMIT,
            Gap::Sched => RUNNER_SCHED,
            Gap::Finish => RUNNER_FINISH,
            Gap::Agent(agent) => {
                let label = match next {
                    Some((Call::Send(from) | Call::Broadcast(from), Some(body)))
                        if from == agent =>
                    {
                        label_of(body)
                    }
                    _ => IDLE,
                };
                self.layers.label_mul[label] += ops.since(&self.last_ops).mul;
                AGENT + label as u8
            }
        };
        self.last_ops = ops;
        let start = self.last_exit;
        let run_id = self.spans[0].id;
        self.push(run_id, name, start, at);
    }

    fn enter(&mut self, call: Call, payload: Option<&Body>) -> Instant {
        let at = Instant::now();
        self.close_gap(at, Some((call, payload)));
        if let Some(body) = payload {
            self.payloads.push(body.clone());
        }
        self.run_calls += 1;
        at
    }

    fn exit(&mut self, call: Call, entered: Instant, call_start: Instant, call_end: Instant) {
        let name = match call {
            Call::Send(_) => SIMNET_SEND,
            Call::Broadcast(_) => SIMNET_BROADCAST,
            Call::TakeInbox(_) => SIMNET_TAKE_INBOX,
            Call::Step => SIMNET_STEP,
            Call::Closing | Call::Query => SIMNET_QUERY,
        };
        let run_id = self.spans[0].id;
        self.push(run_id, name, call_start, call_end);
        self.gap = match call {
            Call::TakeInbox(agent) => {
                self.seen_inbox = true;
                Gap::Agent(agent)
            }
            Call::Send(_) | Call::Broadcast(_) => Gap::Emit,
            Call::Closing => Gap::Finish,
            Call::Step | Call::Query if self.seen_inbox => Gap::Sched,
            Call::Step | Call::Query => Gap::Init,
        };
        let exited = Instant::now();
        let inside = exited
            .duration_since(entered)
            .saturating_sub(call_end.duration_since(call_start));
        self.run_overhead_ns += u64::try_from(inside.as_nanos()).unwrap_or(u64::MAX);
        self.last_exit = exited;
    }

    fn step_bytes(&mut self, bytes: u64) {
        let growth = bytes.saturating_sub(self.last_step_bytes);
        self.run_peak_tick_bytes = self.run_peak_tick_bytes.max(growth);
        self.last_step_bytes = bytes;
    }

    /// Closes the run at `end`, the instant `run_on` returned: books the
    /// final gap, computes self times into [`Recorder::layers`] and keeps
    /// the spans while there is room. Returns the payload copies.
    pub fn end_run(&mut self, end: Instant) -> Vec<Body> {
        self.close_gap(end, None);
        let end_ns = self.ns(end);
        self.spans[0].end_ns = end_ns;
        let wall_ns = self.spans[0].duration();
        self.fold_spans();
        let layers = &mut self.layers;
        layers.runs += 1;
        layers.wall_ns += wall_ns;
        layers.overhead_ns += self.run_overhead_ns;
        layers.calls += self.run_calls;
        layers.peak_tick_bytes = layers.peak_tick_bytes.max(self.run_peak_tick_bytes);
        std::mem::take(&mut self.payloads)
    }

    /// Adds the current span set's self times to the totals and keeps the
    /// spans while there is room, then clears the set.
    fn fold_spans(&mut self) {
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            self.layers.self_ns[usize::from(span.name)] += self_ns;
        }
        if self.kept.len() + self.spans.len() <= MAX_KEPT_SPANS {
            self.kept.extend_from_slice(&self.spans);
        }
        self.spans.clear();
    }

    /// Replays the run's payloads through the codec, outside every other
    /// span: one `encoded_len` and one `encode` per payload, then a
    /// decode of each encoding compared with the original.
    pub fn codec_replay(&mut self, payloads: &[Body], encoding: &BidEncoding) {
        let start = Instant::now();
        self.spans.clear();
        let root = self.push(NO_PARENT, CODEC_REPLAY, start, start);

        let t0 = Instant::now();
        let lengths: usize = payloads.iter().map(Body::encoded_len).sum();
        let t1 = Instant::now();
        let encoded: Vec<Vec<u8>> = payloads.iter().map(Body::encode).collect();
        let t2 = Instant::now();
        let decoded: Vec<Result<Body, DecodeError>> = encoded
            .iter()
            .map(|bytes| Body::decode(bytes, encoding))
            .collect();
        let t3 = Instant::now();
        self.push(root, CODEC_ENCODED_LEN, t0, t1);
        self.push(root, CODEC_ENCODE, t1, t2);
        self.push(root, CODEC_DECODE, t2, t3);

        let bytes: usize = encoded.iter().map(Vec::len).sum();
        let failures = payloads
            .iter()
            .zip(&decoded)
            .filter(|(original, decoded)| decoded.as_ref().ok() != Some(*original))
            .count()
            + usize::from(bytes != lengths);
        let end = Instant::now();
        self.spans[0].end_ns = self.ns(end);
        self.fold_spans();
        self.layers.codec_payloads += payloads.len() as u64;
        self.layers.codec_bytes += bytes as u64;
        self.layers.codec_failures += failures as u64;
    }

    /// Writes the kept spans as tab-separated lines: id, parent (empty
    /// for a root), run, name, start and end in nanoseconds since the
    /// first run, and self time.
    pub fn write(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tparent\trun\tname\tstart_ns\tend_ns\tself_ns")?;
        let mut start = 0;
        while start < self.kept.len() {
            // Spans of one run or replay are contiguous and start at
            // their root.
            let len = self.kept[start + 1..]
                .iter()
                .position(|s| s.parent == NO_PARENT)
                .map_or(self.kept.len() - start, |p| p + 1);
            let group = &self.kept[start..start + len];
            for (span, self_ns) in group.iter().zip(self_times(group)) {
                let parent = if span.parent == NO_PARENT {
                    String::new()
                } else {
                    span.parent.to_string()
                };
                writeln!(
                    out,
                    "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                    span.id,
                    parent,
                    span.run,
                    NAMES[usize::from(span.name)],
                    span.start_ns,
                    span.end_ns,
                    self_ns
                )?;
            }
            start += len;
        }
        Ok(())
    }

    /// Number of spans kept for [`Recorder::write`].
    pub fn kept(&self) -> usize {
        self.kept.len()
    }
}

/// Self time of each span: its duration minus the part its children
/// cover. `spans` is one root followed by its descendants, ids ascending
/// from the root's; children never overlap one another.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let Some(base) = spans.first().map(|s| s.id) else {
        return Vec::new();
    };
    let mut out: Vec<u64> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            let parent = (span.parent - base) as usize;
            out[parent] = out[parent].saturating_sub(span.duration());
        }
    }
    out
}

/// The timing decorator: forwards every call to `inner` unchanged and
/// records it on the shared [`Recorder`].
pub struct Timed<'r, T> {
    inner: T,
    rec: &'r RefCell<Recorder>,
}

impl<'r, T> Timed<'r, T> {
    pub fn new(inner: T, rec: &'r RefCell<Recorder>) -> Self {
        Timed { inner, rec }
    }

    fn query<'s, R>(&'s self, call: Call, f: impl FnOnce(&'s T) -> R) -> R {
        let entered = self.rec.borrow_mut().enter(call, None);
        let t0 = Instant::now();
        let out = f(&self.inner);
        let t1 = Instant::now();
        self.rec.borrow_mut().exit(call, entered, t0, t1);
        out
    }
}

impl<T: Transport<Body>> Transport<Body> for Timed<'_, T> {
    fn nodes(&self) -> usize {
        self.query(Call::Query, T::nodes)
    }

    fn send(&mut self, from: NodeId, to: NodeId, payload: Body) {
        let call = Call::Send(from.0);
        let entered = self.rec.borrow_mut().enter(call, Some(&payload));
        let t0 = Instant::now();
        self.inner.send(from, to, payload);
        let t1 = Instant::now();
        self.rec.borrow_mut().exit(call, entered, t0, t1);
    }

    fn broadcast(&mut self, from: NodeId, payload: Body) {
        let call = Call::Broadcast(from.0);
        let entered = self.rec.borrow_mut().enter(call, Some(&payload));
        let t0 = Instant::now();
        self.inner.broadcast(from, payload);
        let t1 = Instant::now();
        self.rec.borrow_mut().exit(call, entered, t0, t1);
    }

    fn take_inbox(&mut self, node: NodeId) -> Vec<Delivered<Body>> {
        let call = Call::TakeInbox(node.0);
        let entered = self.rec.borrow_mut().enter(call, None);
        let t0 = Instant::now();
        let inbox = self.inner.take_inbox(node);
        let t1 = Instant::now();
        self.rec.borrow_mut().exit(call, entered, t0, t1);
        inbox
    }

    fn step(&mut self) -> u64 {
        let entered = self.rec.borrow_mut().enter(Call::Step, None);
        let t0 = Instant::now();
        let delivered = self.inner.step();
        let t1 = Instant::now();
        let mut rec = self.rec.borrow_mut();
        rec.step_bytes(self.inner.stats().bytes);
        rec.exit(Call::Step, entered, t0, t1);
        delivered
    }

    fn round(&self) -> u64 {
        self.query(Call::Query, T::round)
    }

    fn stats(&self) -> &NetworkStats {
        self.query(Call::Closing, T::stats)
    }

    fn metrics(&self) -> &MetricsSnapshot {
        self.query(Call::Closing, T::metrics)
    }

    fn faults(&self) -> &FaultPlan {
        self.query(Call::Query, T::faults)
    }

    fn is_quiescent(&self) -> bool {
        self.query(Call::Query, T::is_quiescent)
    }

    fn next_due(&self) -> Option<u64> {
        self.query(Call::Query, T::next_due)
    }

    fn advance_to(&mut self, target: u64) -> u64 {
        let entered = self.rec.borrow_mut().enter(Call::Step, None);
        let t0 = Instant::now();
        let delivered = self.inner.advance_to(target);
        let t1 = Instant::now();
        let mut rec = self.rec.borrow_mut();
        rec.step_bytes(self.inner.stats().bytes);
        rec.exit(Call::Step, entered, t0, t1);
        delivered
    }
}
