//! SCALE — the n-sweep behind `BENCH_scale.json`: how one protocol run
//! scales with the number of agents, and what the discrete-event
//! scheduler buys over the poll-every-tick oracle.
//!
//! Each sweep point runs up to three workloads on the lockstep
//! transport:
//!
//! * **honest** — a clean run, the paper's six synchronous rounds: all
//!   work, no dead air, so the event engine processes every tick and
//!   the point measures pure per-tick protocol cost (crypto dominates;
//!   the per-run work grows like `m·n³` because the encoding degree σ
//!   equals `n`). The point also records the per-agent modular
//!   multiplications and their ratio to Theorem 12's `m·n²·log₂ p`,
//!   which stays flat in `n` while the bound holds;
//! * **backoff** — recovery mode with a deep retry budget and one
//!   mid-protocol crash: the run's length is the retransmission
//!   backoff horizon (`base·2^budget` ticks of mostly idle waiting),
//!   which is exactly the shape the event engine was built for. The
//!   point records both `run_ticks` (simulated time) and
//!   `events_processed` (scheduler activations); their ratio is the
//!   idle fraction the event engine skips;
//! * **silence** — every node crashed from round 0, a fixed two tasks:
//!   the bidding broadcasts are all tombstoned at enqueue, nothing is
//!   ever delivered, and every agent sits out its patience window
//!   before aborting. This is a pure *scheduler-saturation* workload —
//!   no useful mechanism work, maximal idle air — and it is cheap by
//!   construction, so it carries the sweep to `n = 1024` where a full
//!   protocol run is infeasible on one host (hours of `Θ(m·n³)` share
//!   verification, and tens of gigabytes of in-flight commitment
//!   broadcasts).
//!
//! The honest and backoff workloads run only up to
//! [`ScaleBaseline::protocol_ceiling`] agents; beyond it the point
//! records `null` rather than silently extrapolating, and the silence
//! workload is the curve that continues. Up to
//! [`ScaleBaseline::oracle_ceiling`] agents the backoff workload is
//! re-run under `Engine::Polling` and the artifacts cross-checked
//! bit-for-bit (the same contract `tests/tests/event_parity.rs` pins);
//! the cheap silence workload is oracle-checked at *every* point, so
//! the committed baseline proves bit parity through `n = 1024`.
//!
//! Each point runs [`ScaleShape::repeats`] times (5 up to `n = 64`, 3
//! above) and records the median and the range of every wall clock. The
//! deterministic fields must agree across the repeats, or the sweep
//! panics.
//!
//! [`ScaleBaseline::to_json`] emits the `dmw-bench-scale/v3` schema
//! documented in `docs/benchmarks.md`.

use super::{config, rng};
use dmw::reliable::RetryPolicy;
use dmw::runner::{DmwRun, DmwRunner, Engine};
use dmw::Behavior;
use dmw_mechanism::ExecutionTimes;
use dmw_modmath::ops;
use dmw_obs::Key;
use dmw_simnet::{FaultPlan, NodeId};
use std::time::Instant;

/// The retry policy of the backoff workload: a deep budget whose
/// worst-case repair horizon (`4·2⁶ = 256` ticks) dwarfs the six active
/// protocol rounds, so the run is dominated by idle waiting.
pub const BACKOFF_POLICY: RetryPolicy = RetryPolicy {
    base_timeout: 4,
    budget: 6,
};

/// Task count of the silence workload — fixed so the (discarded)
/// bidding prologue stays flat across the sweep and the point measures
/// the scheduler, not the mechanism.
pub const SILENCE_TASKS: usize = 2;

/// Patience window of the silence workload: every agent waits this
/// many ticks for commitments that never arrive before aborting, so a
/// silence run is ~`SILENCE_PATIENCE` ticks of which only a handful
/// activate.
pub const SILENCE_PATIENCE: u64 = 256;

/// One requested sweep point: `n` agents bidding on `m` tasks,
/// measured over `trials` independent runs (more at small `n`, where a
/// single run is too fast to time honestly), the whole point measured
/// `repeats` times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleShape {
    /// Agents `n`.
    pub agents: usize,
    /// Tasks `m` (protocol workloads; silence pins [`SILENCE_TASKS`]).
    pub tasks: usize,
    /// Runs to time (each with its own bid matrix).
    pub trials: usize,
    /// Times the point is measured; its wall clocks are the median and
    /// range over the repeats.
    pub repeats: usize,
}

impl ScaleShape {
    /// The sweep's shape at `n = agents`: `m = max(2, n/32)` tasks,
    /// `max(1, 64/n)` trials, and 5 repeats up to `n = 64`, 3 above.
    pub fn for_agents(agents: usize) -> Self {
        ScaleShape {
            agents,
            tasks: (agents / 32).max(2),
            trials: (64 / agents).max(1),
            repeats: if agents <= 64 { 5 } else { 3 },
        }
    }
}

/// The default sweep: `n` doubling 8 → 1024 with the task count
/// growing alongside, trials and repeats thinning as the runs get
/// heavier ([`ScaleShape::for_agents`]).
pub fn default_shapes() -> Vec<ScaleShape> {
    [8usize, 64, 256, 1024]
        .into_iter()
        .map(ScaleShape::for_agents)
        .collect()
}

/// Wall-clock seconds of one timing over a point's repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WallSecs {
    /// The median repeat (the mean of the middle two for an even count).
    pub median: f64,
    /// The fastest repeat.
    pub min: f64,
    /// The slowest repeat.
    pub max: f64,
}

impl WallSecs {
    /// The spread of `samples`, one per repeat.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        let median = if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        };
        WallSecs {
            median,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        }
    }
}

/// One timed workload at one sweep point. Everything but `wall_secs`
/// is deterministic (it comes from the run artifacts, summed over the
/// point's trials, and agrees across repeats).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadTiming {
    /// Wall-clock seconds over all trials, across repeats.
    pub wall_secs: WallSecs,
    /// Simulated ticks, summed over trials (`run_ticks` gauge).
    pub run_ticks: u64,
    /// Scheduler activations, summed over trials (`events_processed`
    /// gauge) — equals `run_ticks` for the polling engine, and for any
    /// run with no idle air.
    pub events_processed: u64,
    /// Point-to-point messages, summed over trials.
    pub messages: u64,
    /// Wire bytes, summed over trials.
    pub bytes: u64,
}

/// Per-agent computation of the honest workload, set against
/// Theorem 12's `O(m·n²·log p)` bound. Deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentCost {
    /// Modular multiplications per agent per run, counted by
    /// `dmw_modmath::ops` (an inversion priced as one multiplication, as
    /// in Table 1).
    pub muls_per_agent: u64,
    /// `muls_per_agent / (m·n²·log₂ p)`: flat in `n` while the code
    /// stays within Theorem 12.
    pub ratio: f64,
}

/// One measured sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// The requested shape.
    pub shape: ScaleShape,
    /// The clean six-round workload under the event engine — `None`
    /// above the protocol ceiling.
    pub honest: Option<WorkloadTiming>,
    /// The honest workload's per-agent computation — `None` above the
    /// protocol ceiling.
    pub honest_cost: Option<AgentCost>,
    /// The crash-plus-deep-backoff recovery workload under the event
    /// engine — `None` above the protocol ceiling.
    pub backoff: Option<WorkloadTiming>,
    /// Wall-clock of the identical backoff workload under the polling
    /// oracle — `None` above the oracle (or protocol) ceiling.
    pub backoff_polling_wall_secs: Option<WallSecs>,
    /// The all-crashed scheduler-saturation workload under the event
    /// engine — measured at every point.
    pub silence: WorkloadTiming,
    /// Wall-clock of the identical silence workload under the polling
    /// oracle — always measured (the workload is cheap by design).
    pub silence_polling_wall_secs: WallSecs,
    /// Whether every oracle re-run at this point matched the event
    /// engine's artifacts bit-for-bit (modulo the `events_processed`
    /// gauge). The silence oracle always contributes; the backoff
    /// oracle contributes up to the oracle ceiling.
    pub bit_identical: bool,
}

/// A measured scale sweep: the artifact `BENCH_scale.json` records.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleBaseline {
    /// The sweep seed (each point's bids derive from it).
    pub seed: u64,
    /// Largest `n` at which the full-protocol workloads (honest,
    /// backoff) run at all — beyond it a single run costs hours of
    /// crypto on one core, so the point records `null`.
    pub protocol_ceiling: usize,
    /// Largest `n` at which the polling oracle re-runs the backoff
    /// workload for the wall-clock comparison and the bit-parity check.
    pub oracle_ceiling: usize,
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_parallelism: usize,
    /// The measured points, in sweep order.
    pub points: Vec<ScalePoint>,
}

/// Sums the deterministic artifact counters of one batch of runs into
/// a [`WorkloadTiming`] (the caller supplies the wall clock of this one
/// repeat).
fn timing(runs: &[DmwRun], wall_secs: f64) -> WorkloadTiming {
    WorkloadTiming {
        wall_secs: WallSecs::of(&[wall_secs]),
        run_ticks: runs
            .iter()
            .map(|r| r.metrics.gauge(&Key::named("run_ticks")))
            .sum(),
        events_processed: runs
            .iter()
            .map(|r| r.metrics.gauge(&Key::named("events_processed")))
            .sum(),
        messages: runs.iter().map(|r| r.network.point_to_point).sum(),
        bytes: runs.iter().map(|r| r.network.bytes).sum(),
    }
}

/// Bit-parity between matched event/polling runs, ignoring only the
/// engine-dependent `events_processed` gauge.
fn runs_identical(event: &[DmwRun], polling: &[DmwRun]) -> bool {
    event.len() == polling.len()
        && event.iter().zip(polling).all(|(e, p)| {
            e.result == p.result
                && e.network == p.network
                && e.trace == p.trace
                && e.metrics.clone().without_metric("events_processed")
                    == p.metrics.clone().without_metric("events_processed")
        })
}

/// Runs every shape through its workloads, [`ScaleShape::repeats`] times
/// each, and returns the measured sweep. Deterministic in everything but
/// wall clock.
///
/// # Panics
///
/// Panics on invalid shapes or failed runs — harness callers pass
/// valid sweeps — and when a point's deterministic fields differ between
/// two of its repeats.
pub fn measure_scale(
    seed: u64,
    shapes: &[ScaleShape],
    oracle_ceiling: usize,
    protocol_ceiling: usize,
) -> ScaleBaseline {
    let points = shapes
        .iter()
        .map(|&shape| {
            let repeats: Vec<ScalePoint> = (0..shape.repeats.max(1))
                .map(|_| measure_point(seed, shape, oracle_ceiling, protocol_ceiling))
                .collect();
            combine_repeats(&repeats)
        })
        .collect();
    ScaleBaseline {
        seed,
        protocol_ceiling,
        oracle_ceiling,
        host_parallelism: std::thread::available_parallelism().map_or(1, usize::from),
        points,
    }
}

/// The deterministic fields of a point: every counter of every workload,
/// the honest cost and the oracle verdict.
fn deterministic_fields(point: &ScalePoint) -> Vec<Option<u64>> {
    let counters = |w: Option<&WorkloadTiming>| {
        [
            w.map(|w| w.run_ticks),
            w.map(|w| w.events_processed),
            w.map(|w| w.messages),
            w.map(|w| w.bytes),
        ]
    };
    let mut fields = Vec::new();
    fields.extend(counters(point.honest.as_ref()));
    fields.extend(counters(point.backoff.as_ref()));
    fields.extend(counters(Some(&point.silence)));
    fields.push(point.honest_cost.map(|c| c.muls_per_agent));
    fields.push(Some(u64::from(point.bit_identical)));
    fields
}

/// One point from its repeats: the first repeat's deterministic fields
/// and every wall clock's spread.
///
/// # Panics
///
/// Panics if `repeats` is empty or two repeats disagree on a
/// deterministic field.
fn combine_repeats(repeats: &[ScalePoint]) -> ScalePoint {
    let first = &repeats[0];
    for (index, repeat) in repeats.iter().enumerate() {
        assert_eq!(
            deterministic_fields(repeat),
            deterministic_fields(first),
            "n = {}: repeat {index} disagrees with repeat 0 on a deterministic field",
            first.shape.agents
        );
    }
    // One wall clock's spread over the repeats, each of which timed it
    // once; `None` where the workload did not run.
    let spread = |wall: fn(&ScalePoint) -> Option<WallSecs>| {
        let samples: Option<Vec<f64>> = repeats.iter().map(|p| wall(p).map(|w| w.median)).collect();
        samples.map(|samples| WallSecs::of(&samples))
    };
    let retimed = |workload: Option<WorkloadTiming>, wall: Option<WallSecs>| {
        workload
            .zip(wall)
            .map(|(w, wall_secs)| WorkloadTiming { wall_secs, ..w })
    };
    let always = "every repeat times the silence workload";
    ScalePoint {
        honest: retimed(first.honest, spread(|p| p.honest.map(|w| w.wall_secs))),
        backoff: retimed(first.backoff, spread(|p| p.backoff.map(|w| w.wall_secs))),
        backoff_polling_wall_secs: spread(|p| p.backoff_polling_wall_secs),
        silence: retimed(Some(first.silence), spread(|p| Some(p.silence.wall_secs))).expect(always),
        silence_polling_wall_secs: spread(|p| Some(p.silence_polling_wall_secs)).expect(always),
        ..first.clone()
    }
}

/// Measures one repeat of one point.
fn measure_point(
    seed: u64,
    shape: ScaleShape,
    oracle_ceiling: usize,
    protocol_ceiling: usize,
) -> ScalePoint {
    let n = shape.agents;
    let mut r = rng(seed ^ n as u64);
    let cfg = config(n, 1, &mut r);
    let behaviors = vec![Behavior::Suggested; n];

    let run_all =
        |runner: &DmwRunner, bids: &[ExecutionTimes], faults: &FaultPlan| -> (Vec<DmwRun>, f64) {
            let started = Instant::now();
            let runs: Vec<DmwRun> = bids
                .iter()
                .map(|b| {
                    runner
                        .run(b, &behaviors, faults.clone(), &mut rng(seed ^ 0xACE))
                        .expect("valid sweep run")
                })
                .collect();
            (runs, started.elapsed().as_secs_f64())
        };

    let (honest, honest_cost, backoff, backoff_polling_wall_secs, backoff_identical) =
        if n <= protocol_ceiling {
            let bids: Vec<ExecutionTimes> = (0..shape.trials)
                .map(|_| super::random_bids(&cfg, shape.tasks, &mut r))
                .collect();
            // The crash lands on tick 4 — late enough that the
            // victim has bid (so the survivors must vote it out
            // and re-auction its tasks), early enough that its
            // silence matters.
            let crash = FaultPlan::none(n).crash_at(NodeId(n / 2), 4);
            let honest_runner = DmwRunner::new(cfg.clone());
            let backoff_runner = DmwRunner::new(cfg.clone()).with_recovery_policy(BACKOFF_POLICY);

            let before = ops::current_ops();
            let (honest_runs, honest_wall) = run_all(&honest_runner, &bids, &FaultPlan::none(n));
            let muls = ops::current_ops().since(&before).mul_equivalents();
            let muls_per_agent = muls / (n * shape.trials) as u64;
            let bound = (shape.tasks * n * n) as f64 * f64::from(cfg.group().zp().bits());
            let honest_cost = AgentCost {
                muls_per_agent,
                ratio: muls_per_agent as f64 / bound,
            };
            let (event_runs, event_wall) = run_all(&backoff_runner, &bids, &crash);

            let (polling_wall, identical) = if n <= oracle_ceiling {
                let polling_runner = backoff_runner.clone().with_engine(Engine::Polling);
                let (polling_runs, polling_wall) = run_all(&polling_runner, &bids, &crash);
                (
                    Some(WallSecs::of(&[polling_wall])),
                    runs_identical(&event_runs, &polling_runs),
                )
            } else {
                (None, true)
            };
            (
                Some(timing(&honest_runs, honest_wall)),
                Some(honest_cost),
                Some(timing(&event_runs, event_wall)),
                polling_wall,
                identical,
            )
        } else {
            (None, None, None, None, true)
        };

    // Silence: every node crashed before it can deliver a single
    // message; each agent bids into the void, waits out its
    // patience for commitments that never arrive, and aborts.
    let silence_bids = vec![super::random_bids(&cfg, SILENCE_TASKS, &mut r)];
    let all_crashed = (0..n).fold(FaultPlan::none(n), |plan, node| {
        plan.crash_at(NodeId(node), 0)
    });
    let silence_runner = DmwRunner::new(cfg)
        .with_patience(SILENCE_PATIENCE)
        .with_round_budget(SILENCE_PATIENCE * 4);
    let (silence_runs, silence_wall) = run_all(&silence_runner, &silence_bids, &all_crashed);
    let (silence_polling_runs, silence_polling_wall) = run_all(
        &silence_runner.clone().with_engine(Engine::Polling),
        &silence_bids,
        &all_crashed,
    );
    let silence_identical = runs_identical(&silence_runs, &silence_polling_runs);

    ScalePoint {
        shape,
        honest,
        honest_cost,
        backoff,
        backoff_polling_wall_secs,
        silence: timing(&silence_runs, silence_wall),
        silence_polling_wall_secs: WallSecs::of(&[silence_polling_wall]),
        bit_identical: backoff_identical && silence_identical,
    }
}

impl ScaleBaseline {
    /// `true` when every oracle-checked point was bit-identical.
    pub fn all_bit_identical(&self) -> bool {
        self.points.iter().all(|p| p.bit_identical)
    }

    /// Serializes to the `dmw-bench-scale/v3` JSON schema (see
    /// `docs/benchmarks.md`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"dmw-bench-scale/v3\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!(
            "  \"protocol_ceiling\": {},\n",
            self.protocol_ceiling
        ));
        out.push_str(&format!("  \"oracle_ceiling\": {},\n", self.oracle_ceiling));
        out.push_str("  \"host\": {\n");
        out.push_str(&format!("    \"os\": \"{}\",\n", std::env::consts::OS));
        out.push_str(&format!(
            "    \"available_parallelism\": {}\n",
            self.host_parallelism
        ));
        out.push_str("  },\n");
        out.push_str("  \"points\": [\n");
        let rows: Vec<String> = self.points.iter().map(point_json).collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ],\n");
        out.push_str(&format!(
            "  \"bit_identical_vs_polling_oracle\": {}\n",
            self.all_bit_identical()
        ));
        out.push_str("}\n");
        out
    }
}

/// One point of the schema's `points` array.
fn point_json(point: &ScalePoint) -> String {
    let workload = |w: &WorkloadTiming, extra: &str| {
        format!(
            "{{ {}, \"run_ticks\": {}, \"events_processed\": {}, \
             \"messages\": {}, \"bytes\": {}{extra} }}",
            wall_json("wall_secs", &w.wall_secs),
            w.run_ticks,
            w.events_processed,
            w.messages,
            w.bytes
        )
    };
    let honest = match (&point.honest, &point.honest_cost) {
        (Some(w), Some(cost)) => workload(
            w,
            &format!(
                ", \"muls_per_agent\": {}, \"muls_per_mn2_log2p\": {:.4}",
                cost.muls_per_agent, cost.ratio
            ),
        ),
        _ => "null".to_owned(),
    };
    let backoff = match &point.backoff {
        Some(w) => workload(w, ""),
        None => "null".to_owned(),
    };
    let oracle = match &point.backoff_polling_wall_secs {
        Some(secs) => wall_json("backoff_polling_wall_secs", secs),
        None => "\"backoff_polling_wall_secs\": null".to_owned(),
    };
    format!(
        "    {{\n      \"agents\": {}, \"tasks\": {}, \"trials\": {}, \"repeats\": {},\n      \
         \"honest\": {},\n      \"backoff\": {},\n      \
         {},\n      \
         \"silence\": {},\n      \
         {},\n      \"bit_identical\": {}\n    }}",
        point.shape.agents,
        point.shape.tasks,
        point.shape.trials,
        point.shape.repeats,
        honest,
        backoff,
        oracle,
        workload(&point.silence, ""),
        wall_json(
            "silence_polling_wall_secs",
            &point.silence_polling_wall_secs
        ),
        point.bit_identical
    )
}

/// `"key": median, "key_min": min, "key_max": max`.
fn wall_json(key: &str, wall: &WallSecs) -> String {
    format!(
        "\"{key}\": {:.6}, \"{key}_min\": {:.6}, \"{key}_max\": {:.6}",
        wall.median, wall.min, wall.max
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_point_measures_all_workloads_and_matches_the_oracle() {
        let shapes = [ScaleShape {
            agents: 8,
            tasks: 2,
            trials: 2,
            repeats: 2,
        }];
        let baseline = measure_scale(3, &shapes, 8, 8);
        assert_eq!(baseline.points.len(), 1);
        let point = &baseline.points[0];
        assert!(point.bit_identical, "event engine must match the oracle");
        assert!(point.backoff_polling_wall_secs.is_some());
        let honest = point.honest.expect("below the protocol ceiling");
        let backoff = point.backoff.expect("below the protocol ceiling");
        // Honest lockstep runs have no dead air: every tick activates.
        assert_eq!(honest.events_processed, honest.run_ticks);
        // The backoff workload is mostly dead air: the event engine
        // must activate on well under half its ticks.
        assert!(
            backoff.events_processed * 2 < backoff.run_ticks,
            "expected idle skipping, got {}/{} activations",
            backoff.events_processed,
            backoff.run_ticks
        );
        assert!(honest.messages > 0);
        let cost = point.honest_cost.expect("below the protocol ceiling");
        assert!(cost.muls_per_agent > 0);
        assert!(cost.ratio > 0.0);
    }

    #[test]
    fn silence_workload_is_almost_entirely_skipped_idle_air() {
        let shapes = [ScaleShape {
            agents: 8,
            tasks: 2,
            trials: 1,
            repeats: 1,
        }];
        // Protocol ceiling 0: only the silence workload runs, exactly
        // what the top of the sweep records.
        let baseline = measure_scale(6, &shapes, 0, 0);
        let point = &baseline.points[0];
        assert_eq!(point.honest, None);
        assert_eq!(point.honest_cost, None);
        assert_eq!(point.backoff, None);
        assert_eq!(point.backoff_polling_wall_secs, None);
        assert!(point.bit_identical, "silence runs are oracle-checked");
        // Every agent waits out its patience window in silence: the run
        // spans hundreds of ticks but only a handful activate.
        assert!(
            point.silence.run_ticks >= SILENCE_PATIENCE,
            "silence runs span the patience window, got {} ticks",
            point.silence.run_ticks
        );
        assert!(
            point.silence.events_processed * 10 < point.silence.run_ticks,
            "expected near-total idle skipping, got {}/{} activations",
            point.silence.events_processed,
            point.silence.run_ticks
        );
        // Nothing is ever delivered, but the doomed sends are still
        // counted — the tombstones keep the books.
        assert!(point.silence.messages > 0);
    }

    #[test]
    fn above_the_oracle_ceiling_the_comparison_is_null_not_fabricated() {
        let shapes = [ScaleShape {
            agents: 8,
            tasks: 2,
            trials: 1,
            repeats: 1,
        }];
        let baseline = measure_scale(4, &shapes, 0, 8);
        assert_eq!(baseline.points[0].backoff_polling_wall_secs, None);
        assert!(baseline.points[0].honest.is_some());
        assert!(baseline.points[0].bit_identical, "silence still checks");
        assert!(baseline
            .to_json()
            .contains("\"backoff_polling_wall_secs\": null"));
    }

    #[test]
    fn json_has_the_v3_shape() {
        let shapes = [ScaleShape {
            agents: 8,
            tasks: 2,
            trials: 1,
            repeats: 1,
        }];
        let json = measure_scale(5, &shapes, 8, 8).to_json();
        for needle in [
            "\"schema\": \"dmw-bench-scale/v3\"",
            "\"protocol_ceiling\": 8",
            "\"oracle_ceiling\": 8",
            "\"points\": [",
            "\"agents\": 8, \"tasks\": 2, \"trials\": 1, \"repeats\": 1",
            "\"honest\": { \"wall_secs\": ",
            "\"backoff\": { \"wall_secs\": ",
            "\"silence\": { \"wall_secs\": ",
            "\"wall_secs_min\": ",
            "\"wall_secs_max\": ",
            "\"backoff_polling_wall_secs\": ",
            "\"backoff_polling_wall_secs_max\": ",
            "\"silence_polling_wall_secs\": ",
            "\"silence_polling_wall_secs_min\": ",
            "\"run_ticks\": ",
            "\"events_processed\": ",
            "\"muls_per_agent\": ",
            "\"muls_per_mn2_log2p\": ",
            "\"bit_identical\": true",
            "\"bit_identical_vs_polling_oracle\": true",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    /// The integer after `"key": ` in `text`.
    fn json_u64(text: &str, key: &str) -> u64 {
        let needle = format!("\"{key}\": ");
        let start = text
            .find(&needle)
            .unwrap_or_else(|| panic!("no {key} in {text}"))
            + needle.len();
        let digits: String = text[start..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits
            .parse()
            .unwrap_or_else(|_| panic!("{key} is not an integer in {text}"))
    }

    /// The one-line `"name": { … }` object inside `text`.
    fn json_object<'a>(text: &'a str, name: &str) -> &'a str {
        let start = text
            .find(&format!("\"{name}\": {{"))
            .unwrap_or_else(|| panic!("no {name}"));
        let end = start + text[start..].find('}').expect("objects close");
        &text[start..end]
    }

    #[test]
    fn committed_n8_point_reproduces_its_deterministic_fields() {
        let committed = include_str!("../../../../BENCH_scale.json");
        let shape = default_shapes()[0];
        let point_start = committed
            .find(&format!("\"agents\": {}, ", shape.agents))
            .expect("the committed sweep has the first default point");
        let point = &committed[point_start..];
        assert_eq!(json_u64(point, "tasks"), shape.tasks as u64);
        assert_eq!(json_u64(point, "trials"), shape.trials as u64);
        assert_eq!(json_u64(point, "repeats"), shape.repeats as u64);
        let baseline = measure_scale(
            json_u64(committed, "seed"),
            &[shape],
            usize::try_from(json_u64(committed, "oracle_ceiling")).unwrap(),
            usize::try_from(json_u64(committed, "protocol_ceiling")).unwrap(),
        );
        let measured = &baseline.points[0];
        let workloads = [
            (
                "honest",
                measured.honest.expect("below the protocol ceiling"),
            ),
            (
                "backoff",
                measured.backoff.expect("below the protocol ceiling"),
            ),
            ("silence", measured.silence),
        ];
        for (name, timing) in workloads {
            let object = json_object(point, name);
            for (key, value) in [
                ("run_ticks", timing.run_ticks),
                ("events_processed", timing.events_processed),
                ("messages", timing.messages),
                ("bytes", timing.bytes),
            ] {
                assert_eq!(
                    value,
                    json_u64(object, key),
                    "{name}.{key}; re-record BENCH_scale.json"
                );
            }
        }
        let cost = measured.honest_cost.expect("below the protocol ceiling");
        assert_eq!(
            cost.muls_per_agent,
            json_u64(json_object(point, "honest"), "muls_per_agent"),
            "honest.muls_per_agent; re-record BENCH_scale.json"
        );
        assert!(measured.bit_identical);
    }

    #[test]
    fn default_shapes_sweep_to_1024_with_scaling_tasks() {
        let shapes = default_shapes();
        assert_eq!(
            shapes.iter().map(|s| s.agents).collect::<Vec<_>>(),
            vec![8, 64, 256, 1024]
        );
        assert_eq!(
            shapes.iter().map(|s| s.tasks).collect::<Vec<_>>(),
            vec![2, 2, 8, 32]
        );
        assert!(shapes.iter().all(|s| s.trials >= 1));
        assert_eq!(
            shapes.iter().map(|s| s.repeats).collect::<Vec<_>>(),
            vec![5, 5, 3, 3]
        );
    }

    #[test]
    fn wall_spread_is_the_median_and_range_of_the_repeats() {
        let wall = WallSecs::of(&[0.3, 0.1, 0.5, 0.2, 0.4]);
        assert_eq!((wall.median, wall.min, wall.max), (0.3, 0.1, 0.5));
        let wall = WallSecs::of(&[0.4, 0.1]);
        assert_eq!((wall.median, wall.min, wall.max), (0.25, 0.1, 0.4));
    }

    #[test]
    #[should_panic(expected = "disagrees with repeat 0 on a deterministic field")]
    fn repeats_that_disagree_on_a_deterministic_field_are_rejected() {
        let shape = ScaleShape {
            agents: 8,
            tasks: 2,
            trials: 1,
            repeats: 2,
        };
        let point = measure_point(7, shape, 0, 0);
        let mut drifted = point.clone();
        drifted.silence.messages += 1;
        combine_repeats(&[point, drifted]);
    }
}
