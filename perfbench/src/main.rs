//! Closed-loop benchmark of the DMW protocol.
//!
//! One client, one thread: each run starts when the previous one returns.
//! Inputs come from `--seed` alone. Every run's outcome is checked against
//! centralized MinWork, and every count a run produces must repeat exactly
//! whenever its input repeats, traced or not. The last stdout line is one
//! JSON object: end-to-end metrics with `--trace 0`, per-layer metrics from
//! the outside-in trace (see `timed.rs`) with `--trace 1`.
//!
//! ```text
//! dmw-perfbench --workload honest-n32 --seed 1 --seconds 30 --trace 0
//! ```

mod check;
mod timed;

use dmw::messages::Body;
use dmw::{Behavior, DmwConfig, DmwRun, DmwRunner, RunResult};
use dmw_mechanism::generators::uniform;
use dmw_mechanism::{ExecutionTimes, MinWork, Outcome, TieBreak};
use dmw_modmath::ops::{current_ops, OpsSnapshot};
use dmw_obs::Key;
use dmw_simnet::{DelayProfile, DelayTransport, FaultPlan, LockstepTransport, NodeId, Transport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use timed::{Layers, Recorder, Timed, AGENT, LABELS};

const USAGE: &str = "usage: dmw-perfbench --workload <honest-n32|chaos-n8|wide-n64> --seed <u64> \
                     --seconds <s> --trace <0|1> [--trace-dir <dir>]";

/// Set-ups per process; `setup_s` is their median.
const SETUPS: usize = 3;
/// Tolerated colluders in every workload.
const FAULTS: usize = 1;
/// Simulated tick at which a `chaos-n8` victim preferably crashes.
const CRASH_TICK: u64 = 40;
/// Every `CRASH_EVERY`-th `chaos-n8` input crashes one agent.
const CRASH_EVERY: usize = 8;

/// One named closed-loop workload.
#[derive(Debug, Clone, Copy)]
struct Workload {
    name: &'static str,
    agents: usize,
    tasks: usize,
    /// Recovery on, `drop_every(3)` loss on a jittered delay transport,
    /// and a crash every [`CRASH_EVERY`]-th input.
    chaos: bool,
    /// Distinct inputs; the loop cycles through them, so each repeats.
    pool: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "honest-n32",
        agents: 32,
        tasks: 4,
        chaos: false,
        pool: 16,
    },
    Workload {
        name: "chaos-n8",
        agents: 8,
        tasks: 4,
        chaos: true,
        pool: 128,
    },
    Workload {
        name: "wide-n64",
        agents: 64,
        tasks: 2,
        chaos: false,
        pool: 8,
    },
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: String,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut trace_dir = "perfbench/traces".to_string();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        WORKLOADS
                            .iter()
                            .find(|w| w.name == value)
                            .copied()
                            .ok_or(format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| bad(e.to_string()))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(String::new())),
                    });
                }
                "--trace-dir" => trace_dir = value,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            trace_dir,
        })
    }
}

/// Crash ticks in order of preference: [`CRASH_TICK`], then `20..=160` by
/// distance from it, then tick 0, where the victim never speaks and is
/// excluded without a re-auction.
fn crash_ticks() -> impl Iterator<Item = u64> {
    let mut ticks: Vec<u64> = (20..=160).step_by(5).collect();
    ticks.sort_by_key(|&tick| (tick.abs_diff(CRASH_TICK), tick));
    ticks.into_iter().chain([0])
}

/// One pre-generated run input.
struct Input {
    bids: ExecutionTimes,
    /// Seeds the runner's RNG and the delay jitter stream.
    run_seed: u64,
    victim: Option<usize>,
    crash_tick: u64,
    expected: Outcome,
}

/// A workload after set-up: configuration, runner and the input pool.
struct Bench {
    workload: Workload,
    runner: DmwRunner,
    inputs: Vec<Input>,
}

impl Bench {
    fn setup(workload: Workload, seed: u64) -> Bench {
        let mut rng = StdRng::seed_from_u64(seed);
        let config =
            DmwConfig::generate(workload.agents, FAULTS, &mut rng).expect("valid workload shape");
        let mut runner = DmwRunner::new(config);
        if workload.chaos {
            runner = runner.with_recovery();
        }
        let w_max = runner.config().encoding().w_max();
        let mut inputs: Vec<Input> = (0..workload.pool)
            .map(|j| {
                let bids = uniform(workload.agents, workload.tasks, 1..=w_max, &mut rng)
                    .expect("valid bid matrix");
                let expected = MinWork::new(TieBreak::LowestIndex)
                    .run(&bids)
                    .expect("MinWork runs on any valid matrix");
                // The victim rotates over every agent across the pool.
                let victim = (workload.chaos && j % CRASH_EVERY == CRASH_EVERY - 1)
                    .then_some((j / CRASH_EVERY) % workload.agents);
                Input {
                    bids,
                    run_seed: rng.gen(),
                    victim,
                    crash_tick: CRASH_TICK,
                    expected,
                }
            })
            .collect();
        let mut bench = Bench {
            workload,
            runner,
            inputs: Vec::new(),
        };
        // A crash while shares are still being repaired can end in a safe
        // abort (an inconsistent participant mask) instead of an exclusion,
        // and a late one can miss the run; keep the first tick at which the
        // input degrades with exactly the victim excluded.
        for input in &mut inputs {
            let Some(victim) = input.victim else { continue };
            input.crash_tick = crash_ticks()
                .find(|&tick| {
                    input.crash_tick = tick;
                    matches!(&bench.run(input, None).result,
                        RunResult::Degraded { excluded, .. } if excluded == &[victim])
                })
                .unwrap_or(CRASH_TICK);
        }
        bench.inputs = inputs;
        bench
    }

    /// Runs one input on a fresh transport, traced when `rec` is given.
    fn run(&self, input: &Input, rec: Option<&RefCell<Recorder>>) -> DmwRun {
        let n = self.workload.agents;
        if self.workload.chaos {
            let mut faults = FaultPlan::none(n).drop_every(3);
            if let Some(victim) = input.victim {
                faults = faults.crash_at(NodeId(victim), input.crash_tick);
            }
            let profile = DelayProfile::jittered(0, 2, input.run_seed);
            self.run_on(input, DelayTransport::with_faults(n, faults, profile), rec)
        } else {
            self.run_on(input, LockstepTransport::new(n), rec)
        }
    }

    fn run_on<T: Transport<Body>>(
        &self,
        input: &Input,
        transport: T,
        rec: Option<&RefCell<Recorder>>,
    ) -> DmwRun {
        let behaviors = vec![Behavior::Suggested; self.workload.agents];
        let mut rng = StdRng::seed_from_u64(input.run_seed);
        let run = match rec {
            Some(rec) => {
                let transport = Timed::new(transport, rec);
                rec.borrow_mut().harness_done();
                self.runner
                    .run_on(&input.bids, &behaviors, transport, &mut rng)
            }
            None => self
                .runner
                .run_on(&input.bids, &behaviors, transport, &mut rng),
        };
        run.expect("inputs match the configuration")
    }
}

/// Reliable-layer counters as (metric suffix, `dmw-obs` counter name).
const RELIABLE: [(&str, &str); 9] = [
    ("retransmissions", "retransmissions"),
    ("repair_payloads", "repair_payloads"),
    ("acks", "acks_sent"),
    ("nacks", "nacks_sent"),
    ("duplicates", "duplicate_deliveries"),
    ("suppressed_retransmits", "suppressed_retransmits"),
    ("suspect_dead", "suspect_dead"),
    ("reauctioned_tasks", "reauctioned_tasks"),
    ("recovery_rounds", "recovery_rounds"),
];

/// Everything a run counts. For a fixed input these must repeat exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Counts {
    /// Bytes and messages on the wire, the survivor re-auction included.
    wire_bytes: u64,
    messages: u64,
    /// Simulated ticks to the outcome: the primary run plus the
    /// re-auction's rounds.
    ticks: u64,
    events: u64,
    delivered: u64,
    dropped: u64,
    ops: OpsSnapshot,
    reliable: [u64; RELIABLE.len()],
    control_bytes: u64,
}

impl Counts {
    fn of(run: &DmwRun, ops: OpsSnapshot) -> Counts {
        let m = &run.metrics;
        Counts {
            wire_bytes: run.network.bytes + m.counter_total("recovery_bytes"),
            messages: run.network.point_to_point + m.counter_total("recovery_messages"),
            ticks: m.gauge(&Key::named("run_ticks")) + m.counter_total("recovery_rounds"),
            events: m.gauge(&Key::named("events_processed")),
            delivered: run.network.delivered,
            dropped: run.network.dropped,
            ops,
            reliable: RELIABLE.map(|(_, counter)| m.counter_total(counter)),
            control_bytes: m
                .counter_by_phase("phase_bytes")
                .get("control")
                .copied()
                .unwrap_or(0),
        }
    }
}

/// Outcome checks and the determinism self-check across every run.
struct Ledger {
    /// The counts of each input's first run.
    first: Vec<Option<Counts>>,
    attempted: u64,
    failed: u64,
    mismatches: u64,
}

impl Ledger {
    fn new(pool: usize) -> Ledger {
        Ledger {
            first: vec![None; pool],
            attempted: 0,
            failed: 0,
            mismatches: 0,
        }
    }

    fn record(&mut self, bench: &Bench, index: usize, run: &DmwRun, ops: OpsSnapshot) {
        let input = &bench.inputs[index];
        self.attempted += 1;
        if let Err(why) = check::outcome(run, &input.bids, &input.expected, input.victim) {
            self.failed += 1;
            eprintln!("OUTCOME FAILURE on input {index}: {why}");
        }
        let counts = Counts::of(run, ops);
        match &self.first[index] {
            Some(first) if *first != counts => {
                self.mismatches += 1;
                eprintln!(
                    "DETERMINISM FAILURE on input {index}: counts changed on a repeat\n  \
                     first:  {first:?}\n  repeat: {counts:?}"
                );
            }
            Some(_) => {}
            None => self.first[index] = Some(counts),
        }
    }

    /// Mean of `f` over the inputs run so far, each counted once.
    fn mean(&self, f: impl Fn(&Counts) -> u64) -> f64 {
        let seen: Vec<u64> = self.first.iter().flatten().map(f).collect();
        seen.iter().sum::<u64>() as f64 / seen.len().max(1) as f64
    }

    fn sum(&self, f: impl Fn(&Counts) -> u64) -> u64 {
        self.first.iter().flatten().map(f).sum()
    }
}

/// Runs inputs back to back for `budget` (at least one run), returning
/// each run's wall time in milliseconds.
fn closed_loop(
    bench: &Bench,
    budget: Duration,
    ledger: &mut Ledger,
    rec: Option<&RefCell<Recorder>>,
) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty() || start.elapsed() < budget {
        let index = samples.len() % bench.inputs.len();
        let input = &bench.inputs[index];
        let ops_before = current_ops();
        let t0 = Instant::now();
        if let Some(rec) = rec {
            rec.borrow_mut().begin_run(t0);
        }
        let run = bench.run(input, rec);
        let t1 = Instant::now();
        let ops = current_ops().since(&ops_before);
        samples.push(t1.duration_since(t0).as_secs_f64() * 1e3);
        if let Some(rec) = rec {
            let mut rec = rec.borrow_mut();
            let payloads = rec.end_run(t1);
            rec.codec_replay(&payloads, bench.runner.config().encoding());
        }
        ledger.record(bench, index, &run, ops);
    }
    samples
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Percentiles `run_ms.tail` may report, highest first.
const TAIL_PERCENTILES: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 75.0, 60.0, 50.0];

/// The highest percentile in [`TAIL_PERCENTILES`] with at least ten
/// samples beyond it (nearest rank), with that percentile.
fn tail(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let percentile = TAIL_PERCENTILES
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    let rank = (percentile / 100.0 * n).ceil() as usize;
    (sorted[rank.clamp(1, sorted.len()) - 1], percentile)
}

/// Peak resident set size of this process in MB (2^20 bytes).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn end_to_end(bench: &Bench, samples: &[f64], setups: &[f64], ledger: &Ledger) -> Vec<Metric> {
    let timed_s: f64 = samples.iter().sum::<f64>() / 1e3;
    let tasks = (bench.workload.tasks * samples.len()) as f64;
    let (tail_ms, percentile) = tail(samples);
    println!(
        "# run_ms.tail is p{percentile} of {} runs; run_ms.p50 {:.3} ms",
        samples.len(),
        median(samples)
    );
    vec![
        metric("auctions_per_s", tasks / timed_s, "1/s"),
        metric("run_ms.p50", median(samples), "ms"),
        metric("run_ms.tail", tail_ms, "ms"),
        metric("setup_s", median(setups), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("wire_bytes_per_run", ledger.mean(|c| c.wire_bytes), "B"),
        metric("messages_per_run", ledger.mean(|c| c.messages), "count"),
        metric("sim_ticks_per_run", ledger.mean(|c| c.ticks), "ticks"),
    ]
}

fn per_layer(untraced: &[f64], traced: &[f64], ledger: &Ledger, layers: &Layers) -> Vec<Metric> {
    use timed::{
        AGENT_EMIT, RUNNER_FINISH, RUNNER_INIT, RUNNER_SCHED, SIMNET_BROADCAST, SIMNET_QUERY,
        SIMNET_SEND, SIMNET_STEP, SIMNET_TAKE_INBOX,
    };
    let runs = layers.runs.max(1) as f64;
    let per_run_s = |ns: u64| ns as f64 / 1e9 / runs;
    let share = |ns: u64| ns as f64 / layers.wall_ns.max(1) as f64;
    let simnet_ns = [
        SIMNET_SEND,
        SIMNET_BROADCAST,
        SIMNET_STEP,
        SIMNET_TAKE_INBOX,
        SIMNET_QUERY,
    ]
    .map(|name| layers.ns(name))
    .iter()
    .sum::<u64>();
    let runner_ns = layers.ns(RUNNER_INIT) + layers.ns(RUNNER_SCHED) + layers.ns(RUNNER_FINISH);
    let agent_mul: u64 = layers.label_mul.iter().sum();
    let ticks = ledger.sum(|c| c.ticks);
    let delivered = ledger.sum(|c| c.delivered);
    let duplicates_index = RELIABLE
        .iter()
        .position(|&(suffix, _)| suffix == "duplicates")
        .expect("duplicates is a reliable counter");
    let duplicates = ledger.sum(|c| c.reliable[duplicates_index]);
    let mean_ms = |s: &[f64]| s.iter().sum::<f64>() / s.len().max(1) as f64;

    let mut out = vec![
        metric("runner.ticks", ledger.mean(|c| c.ticks), "ticks"),
        metric("runner.events", ledger.mean(|c| c.events), "count"),
        metric(
            "runner.idle_ratio",
            1.0 - ledger.sum(|c| c.events) as f64 / ticks.max(1) as f64,
            "ratio",
        ),
        metric("runner.init_s", per_run_s(layers.ns(RUNNER_INIT)), "s"),
        metric("runner.sched_s", per_run_s(layers.ns(RUNNER_SCHED)), "s"),
        metric("runner.finish_s", per_run_s(layers.ns(RUNNER_FINISH)), "s"),
        metric("agent.s", per_run_s(layers.agent_ns()), "s"),
    ];
    for (l, label) in LABELS.iter().enumerate() {
        out.push(metric(
            format!("agent.{label}.s"),
            per_run_s(layers.ns(AGENT + l as u8)),
            "s",
        ));
    }
    out.push(metric(
        "agent.emit_s",
        per_run_s(layers.ns(AGENT_EMIT)),
        "s",
    ));
    out.push(metric("modmath.mul", ledger.mean(|c| c.ops.mul), "count"));
    out.push(metric("modmath.pow", ledger.mean(|c| c.ops.pow), "count"));
    out.push(metric("modmath.inv", ledger.mean(|c| c.ops.inv), "count"));
    for (l, label) in LABELS.iter().enumerate() {
        out.push(metric(
            format!("modmath.{label}.mul"),
            layers.label_mul[l] as f64 / runs,
            "count",
        ));
    }
    out.push(metric(
        "modmath.ns_per_mul",
        layers.agent_ns() as f64 / agent_mul.max(1) as f64,
        "ns",
    ));
    for (r, (suffix, _)) in RELIABLE.iter().enumerate() {
        out.push(metric(
            format!("reliable.{suffix}"),
            ledger.mean(|c| c.reliable[r]),
            "count",
        ));
    }
    out.push(metric(
        "reliable.control_bytes",
        ledger.mean(|c| c.control_bytes),
        "B",
    ));
    out.push(metric(
        "reliable.useful_ratio",
        1.0 - duplicates as f64 / delivered.max(1) as f64,
        "ratio",
    ));
    out.extend([
        metric("simnet.send_s", per_run_s(layers.ns(SIMNET_SEND)), "s"),
        metric(
            "simnet.broadcast_s",
            per_run_s(layers.ns(SIMNET_BROADCAST)),
            "s",
        ),
        metric("simnet.step_s", per_run_s(layers.ns(SIMNET_STEP)), "s"),
        metric(
            "simnet.take_inbox_s",
            per_run_s(layers.ns(SIMNET_TAKE_INBOX)),
            "s",
        ),
        metric("simnet.query_s", per_run_s(layers.ns(SIMNET_QUERY)), "s"),
        metric("simnet.calls", layers.calls as f64 / runs, "count"),
        metric("simnet.delivered", ledger.mean(|c| c.delivered), "count"),
        metric("simnet.dropped", ledger.mean(|c| c.dropped), "count"),
        metric("simnet.peak_tick_bytes", layers.peak_tick_bytes as f64, "B"),
        metric(
            "codec.encoded_len_ns",
            layers.ns(timed::CODEC_ENCODED_LEN) as f64 / layers.codec_payloads.max(1) as f64,
            "ns",
        ),
        metric(
            "codec.encode_s",
            per_run_s(layers.ns(timed::CODEC_ENCODE)),
            "s",
        ),
        metric(
            "codec.decode_s",
            per_run_s(layers.ns(timed::CODEC_DECODE)),
            "s",
        ),
        metric("codec.bytes", layers.codec_bytes as f64 / runs, "B"),
        metric(
            "codec.roundtrip_failures",
            layers.codec_failures as f64,
            "count",
        ),
        metric(
            "trace.overhead_ratio",
            mean_ms(traced) / mean_ms(untraced) - 1.0,
            "ratio",
        ),
        metric(
            "trace.unattributed_ratio",
            share(layers.unattributed_ns()),
            "ratio",
        ),
        metric("split.agent", share(layers.agent_ns()), "ratio"),
        metric("split.emit", share(layers.ns(AGENT_EMIT)), "ratio"),
        metric("split.simnet", share(simnet_ns), "ratio"),
        metric("split.runner", share(runner_ns), "ratio"),
        metric("split.trace", share(layers.overhead_ns), "ratio"),
    ]);
    out
}

fn print_result(correct: bool, ledger: &Ledger, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted,
        ledger.failed,
        body.join(", ")
    );
}

fn write_trace(path: &str, rec: &Recorder) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    rec.write(&mut out)?;
    out.flush()
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    let mut ledger = Ledger::new(workload.pool);

    // Set-up: configuration, the input pool with its MinWork answers, and
    // one warm-up run, repeated; the first is timed from process start.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut bench = None;
    for k in 0..SETUPS {
        let started = if k == 0 {
            process_start
        } else {
            Instant::now()
        };
        let candidate = Bench::setup(workload, args.seed);
        let ops_before = current_ops();
        let warm = candidate.run(&candidate.inputs[0], None);
        let ops = current_ops().since(&ops_before);
        setups.push(started.elapsed().as_secs_f64());
        ledger.record(&candidate, 0, &warm, ops);
        bench = Some(candidate);
    }
    let bench = bench.expect("at least one set-up");
    if workload.chaos {
        let ticks: Vec<String> = bench
            .inputs
            .iter()
            .filter_map(|input| Some(format!("{}@{}", input.victim?, input.crash_tick)))
            .collect();
        println!("# crashes (victim@tick): {}", ticks.join(" "));
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let (metrics, codec_failures) = if args.trace {
        let untraced = closed_loop(&bench, budget / 2, &mut ledger, None);
        let rec = RefCell::new(Recorder::new());
        let traced = closed_loop(&bench, budget / 2, &mut ledger, Some(&rec));
        let rec = rec.into_inner();
        let path = format!("{}/{}.tsv", args.trace_dir, workload.name);
        match write_trace(&path, &rec) {
            Ok(()) => println!(
                "# wrote {} spans of the first traced runs to {path}",
                rec.kept()
            ),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
        println!(
            "# {}: {} untraced and {} traced runs",
            workload.name,
            untraced.len(),
            traced.len()
        );
        let metrics = per_layer(&untraced, &traced, &ledger, &rec.layers);
        for m in metrics.iter().filter(|m| m.name.starts_with("split.")) {
            println!(
                "# {:<14} {:>6.1}% of traced run wall time",
                m.name,
                100.0 * m.value
            );
        }
        (metrics, rec.layers.codec_failures)
    } else {
        let samples = closed_loop(&bench, budget, &mut ledger, None);
        println!("# {}: {} runs", workload.name, samples.len());
        (end_to_end(&bench, &samples, &setups, &ledger), 0)
    };

    if ledger.mismatches > 0 {
        eprintln!(
            "DETERMINISM FAILURE: {} runs repeated an input with different counts",
            ledger.mismatches
        );
    }
    if codec_failures > 0 {
        eprintln!("CODEC FAILURE: {codec_failures} payloads did not survive encode/decode");
    }
    let correct = ledger.failed == 0 && ledger.mismatches == 0 && codec_failures == 0;
    print_result(correct, &ledger, &metrics);
    ExitCode::SUCCESS
}
