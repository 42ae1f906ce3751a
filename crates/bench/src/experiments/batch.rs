//! BATCH — the parallel batch-execution engine: determinism evidence for
//! `reproduce`, and the wall-clock/throughput baseline behind
//! `BENCH_batch.json`.
//!
//! The workload is the natural unit of the paper's evaluation: many
//! independent honest DMW runs over one published configuration (one
//! deployment, thousands of auctions — the shape of every Section 5-style
//! sweep). [`measure`] times the *same* trial batch at several thread
//! counts and cross-checks that every width produces bit-identical
//! results; [`Baseline::to_json`] serializes the measurement into the
//! `dmw-bench-batch/v5` schema documented in `docs/benchmarks.md` —
//! a per-phase breakdown (messages, bytes, dwell ticks) aggregated from
//! the deterministic `dmw-obs` metrics every run carries, with recovery
//! control traffic in its own `control` row, and a `recovery` block of
//! retransmit/ack/degradation counters. Every trial runs the chaos
//! workload: reliable delivery over seeded packet loss, with a crash
//! rotation exercising graceful degradation.
//!
//! The [`run`] report (the `batch-engine` subcommand of `reproduce`)
//! deliberately contains **no wall-clock numbers** so that
//! `docs/reproduce_output.md` stays deterministic; timings belong to the
//! `bench_batch` binary and its committed `BENCH_batch.json`.

use super::{config, random_bids, rng};
use crate::table::Report;
use dmw::batch::{aggregate_metrics, BatchRunner, TrialSpec};
use dmw::runner::{DmwRun, DmwRunner};
use dmw::DmwError;
use dmw_obs::MetricsSnapshot;
use dmw_simnet::{FaultPlan, NetworkStats, NodeId};
use std::collections::BTreeSet;
use std::time::Instant;

/// The workload shape of one baseline measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Agents `n`.
    pub agents: usize,
    /// Tolerated faults `c`.
    pub faults: usize,
    /// Tasks `m` per trial.
    pub tasks: usize,
    /// Independent honest trials in the batch. Each runs with the
    /// reliable-delivery sublayer under `drop_every(3)` packet loss,
    /// and (when `faults > 0`) every eighth crashes one agent
    /// mid-protocol, so the batch also times the ack/retransmit and
    /// graceful-degradation paths.
    pub trials: usize,
}

/// One thread-count timing of the same trial batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadMeasurement {
    /// Worker threads the batch fanned over.
    pub threads: usize,
    /// Wall-clock seconds for the whole batch.
    pub wall_secs: f64,
    /// Completed trials per second.
    pub trials_per_sec: f64,
    /// Sequential (1-thread) wall time divided by this run's wall time.
    pub speedup_vs_sequential: f64,
}

/// A measured baseline: the artifact `BENCH_batch.json` records.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// The experiment seed (trial streams derive from it).
    pub seed: u64,
    /// The measured workload.
    pub workload: Workload,
    /// `std::thread::available_parallelism()` on the measuring host — the
    /// hard ceiling on any honest speedup.
    pub host_parallelism: usize,
    /// Per-thread-count timings, in the order measured (first entry is
    /// the sequential reference).
    pub runs: Vec<ThreadMeasurement>,
    /// Whether every thread count produced bit-identical results
    /// (schedules, payments, traces, traffic counters).
    pub bit_identical: bool,
    /// Trials that completed cleanly (crash trials degrade instead).
    pub completed_trials: usize,
    /// Trials that ended in graceful degradation (survivor re-auction
    /// after an exclusion vote) — nonzero only with a crash rotation.
    pub degraded_trials: usize,
    /// Whole-batch traffic, aggregated over every trial.
    pub traffic: NetworkStats,
    /// Deterministic `dmw-obs` metrics, aggregated over every trial —
    /// the source of the per-phase breakdown and of the `recovery`
    /// block.
    pub metrics: MetricsSnapshot,
}

/// Runs `trials` honest chaos trials through [`BatchRunner`] at each
/// requested thread count, timing each pass over the identical batch, and
/// cross-checks the results for bit-identity.
///
/// The first entry of `thread_counts` is the sequential reference every
/// speedup is computed against (pass `1` first; [`measure`] does not
/// reorder).
///
/// # Panics
///
/// Panics on invalid workload shapes — harness callers pass valid ones.
pub fn measure(seed: u64, workload: Workload, thread_counts: &[usize]) -> Baseline {
    let mut r = rng(seed);
    let cfg = config(workload.agents, workload.faults, &mut r);
    let runner = DmwRunner::new(cfg).with_recovery();
    let trials: Vec<TrialSpec> = (0..workload.trials)
        .map(|i| {
            let spec = TrialSpec::honest(random_bids(runner.config(), workload.tasks, &mut r));
            let mut faults = FaultPlan::none(workload.agents).drop_every(3);
            if workload.faults > 0 && i % 8 == 3 {
                // One mid-protocol crash per eighth trial — late enough
                // that the victim participates (and often wins), so the
                // batch also times the exclusion vote and the survivor
                // re-auction, not just early-silence masking.
                faults = faults.crash_at(NodeId(i % workload.agents), 40);
            }
            spec.with_faults(faults)
        })
        .collect();

    let mut runs = Vec::new();
    let mut reference: Option<Vec<Result<DmwRun, DmwError>>> = None;
    let mut sequential_wall = None;
    let mut bit_identical = true;
    for &threads in thread_counts {
        let engine = BatchRunner::with_threads(threads);
        let started = Instant::now();
        let results = engine.run_trials(&runner, seed, &trials);
        let wall_secs = started.elapsed().as_secs_f64();
        let sequential = *sequential_wall.get_or_insert(wall_secs);
        runs.push(ThreadMeasurement {
            threads: engine.threads(),
            wall_secs,
            trials_per_sec: workload.trials as f64 / wall_secs,
            speedup_vs_sequential: sequential / wall_secs,
        });
        match &reference {
            Some(reference) => bit_identical &= equal_outcomes(reference, &results),
            None => reference = Some(results),
        }
    }

    let reference = reference.unwrap_or_default();
    let completed_trials = reference
        .iter()
        .filter(|r| r.as_ref().is_ok_and(DmwRun::is_completed))
        .count();
    let degraded_trials = reference
        .iter()
        .filter(|r| r.as_ref().is_ok_and(DmwRun::is_degraded))
        .count();
    let traffic = reference
        .iter()
        .filter_map(|r| r.as_ref().ok().map(|run| run.network))
        .sum();
    let metrics = aggregate_metrics(&reference);
    Baseline {
        seed,
        workload,
        host_parallelism: std::thread::available_parallelism().map_or(1, usize::from),
        runs,
        bit_identical,
        completed_trials,
        degraded_trials,
        traffic,
        metrics,
    }
}

/// Full-artifact equality of two batch results: run results, traffic
/// counters, metrics snapshots and message traces.
fn equal_outcomes(a: &[Result<DmwRun, DmwError>], b: &[Result<DmwRun, DmwError>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Ok(x), Ok(y)) => {
                x.result == y.result
                    && x.network == y.network
                    && x.trace == y.trace
                    && x.metrics == y.metrics
            }
            (Err(x), Err(y)) => x == y,
            _ => false,
        })
}

/// The per-phase rows of the `phases` breakdown: every phase that
/// recorded messages, bytes or dwell ticks, in deterministic (sorted)
/// phase-label order, with the three counters summed over all agents.
fn phase_breakdown(metrics: &MetricsSnapshot) -> Vec<(&'static str, u64, u64, u64)> {
    let messages = metrics.counter_by_phase("phase_messages");
    let bytes = metrics.counter_by_phase("phase_bytes");
    let dwell = metrics.counter_by_phase("phase_dwell_ticks");
    let phases: BTreeSet<&'static str> = messages
        .keys()
        .chain(bytes.keys())
        .chain(dwell.keys())
        .copied()
        .collect();
    phases
        .into_iter()
        .map(|phase| {
            (
                phase,
                messages.get(phase).copied().unwrap_or(0),
                bytes.get(phase).copied().unwrap_or(0),
                dwell.get(phase).copied().unwrap_or(0),
            )
        })
        .collect()
}

/// The recovery counters, in the order the `recovery` block serializes
/// them.
pub const RECOVERY_COUNTERS: &[&str] = &[
    "retransmissions",
    "repair_payloads",
    "acks_sent",
    "nacks_sent",
    "duplicate_deliveries",
    "suppressed_retransmits",
    "rtt_samples",
    "sack_ranges",
    "suspect_dead",
    "degraded_runs",
    "reauctioned_tasks",
    "recovery_rounds",
];

impl Baseline {
    /// Serializes to the `dmw-bench-batch/v5` JSON schema (see
    /// `docs/benchmarks.md`): the per-phase `phases` breakdown (with
    /// the `control` row for recovery traffic), the workload's
    /// `"chaos": true` flag (every sweep runs chaos), the
    /// `degraded_trials` count, and the `recovery` object of
    /// reliable-delivery and graceful-degradation counters aggregated
    /// over the whole batch.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"dmw-bench-batch/v5\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str("  \"workload\": {\n");
        out.push_str("    \"experiment\": \"chaos-trial-sweep\",\n");
        out.push_str(&format!("    \"agents\": {},\n", self.workload.agents));
        out.push_str(&format!("    \"faults\": {},\n", self.workload.faults));
        out.push_str(&format!("    \"tasks\": {},\n", self.workload.tasks));
        out.push_str(&format!("    \"trials\": {},\n", self.workload.trials));
        out.push_str("    \"chaos\": true\n");
        out.push_str("  },\n");
        out.push_str("  \"host\": {\n");
        out.push_str(&format!("    \"os\": \"{}\",\n", std::env::consts::OS));
        out.push_str(&format!(
            "    \"available_parallelism\": {}\n",
            self.host_parallelism
        ));
        out.push_str("  },\n");
        out.push_str("  \"runs\": [\n");
        let rows: Vec<String> = self
            .runs
            .iter()
            .map(|m| {
                format!(
                    "    {{ \"threads\": {}, \"wall_secs\": {:.6}, \"trials_per_sec\": {:.2}, \"speedup_vs_sequential\": {:.3} }}",
                    m.threads, m.wall_secs, m.trials_per_sec, m.speedup_vs_sequential
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ],\n");
        out.push_str(&format!(
            "  \"completed_trials\": {},\n",
            self.completed_trials
        ));
        out.push_str(&format!(
            "  \"degraded_trials\": {},\n",
            self.degraded_trials
        ));
        out.push_str("  \"recovery\": {\n");
        let recovery_rows: Vec<String> = RECOVERY_COUNTERS
            .iter()
            .map(|name| format!("    \"{name}\": {}", self.metrics.counter_total(name)))
            .collect();
        out.push_str(&recovery_rows.join(",\n"));
        out.push_str("\n  },\n");
        out.push_str("  \"aggregate_traffic\": {\n");
        out.push_str(&format!(
            "    \"messages\": {},\n",
            self.traffic.point_to_point
        ));
        out.push_str(&format!("    \"bytes\": {}\n", self.traffic.bytes));
        out.push_str("  },\n");
        out.push_str("  \"phases\": {\n");
        let phase_rows: Vec<String> = phase_breakdown(&self.metrics)
            .into_iter()
            .map(|(phase, messages, bytes, dwell)| {
                format!(
                    "    \"{phase}\": {{ \"messages\": {messages}, \"bytes\": {bytes}, \
                     \"dwell_ticks\": {dwell} }}"
                )
            })
            .collect();
        out.push_str(&phase_rows.join(",\n"));
        out.push_str("\n  },\n");
        out.push_str(&format!(
            "  \"bit_identical_across_thread_counts\": {}\n",
            self.bit_identical
        ));
        out.push_str("}\n");
        out
    }
}

/// Builds the deterministic `batch-engine` report: engine composition,
/// determinism evidence and aggregate traffic — no wall-clock numbers
/// (those live in `BENCH_batch.json`; see the module docs).
pub fn run(seed: u64) -> Report {
    let workload = Workload {
        agents: 6,
        faults: 1,
        tasks: 3,
        trials: 24,
    };
    let baseline = measure(seed, workload, &[1, 2, 8]);
    let mut report = Report::new(
        "Batch engine — thread-count-invariant parallel execution of independent trials",
    );
    report.note("Every trial draws from a private stream seeded by trial_seed(batch_seed, index), so results are bit-identical whatever the thread count.");
    report.note("The sweep runs in chaos mode: every trial repairs drop_every(3) packet loss through the reliable-delivery sublayer, and every eighth trial crashes one agent mid-protocol, degrading gracefully via the survivor re-auction (see [recovery.md](recovery.md)).");
    report.note("Wall-clock numbers are deliberately omitted here; regenerate BENCH_batch.json with the bench_batch binary — schema and interpretation in [benchmarks.md](benchmarks.md).");
    let rows = vec![vec![
        format!(
            "{}x{} (c = {})",
            workload.agents, workload.tasks, workload.faults
        ),
        workload.trials.to_string(),
        baseline.completed_trials.to_string(),
        baseline.degraded_trials.to_string(),
        baseline
            .runs
            .iter()
            .map(|m| m.threads.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        if baseline.bit_identical { "yes" } else { "NO" }.to_string(),
        baseline.traffic.point_to_point.to_string(),
        baseline.traffic.bytes.to_string(),
    ]];
    report.table(
        "chaos-trial sweep, identical batch at several widths",
        &[
            "shape",
            "trials",
            "completed",
            "degraded",
            "widths checked",
            "bit-identical",
            "total messages",
            "total bytes",
        ],
        rows,
    );
    let recovery_rows: Vec<Vec<String>> = RECOVERY_COUNTERS
        .iter()
        .map(|name| {
            vec![
                (*name).to_string(),
                baseline.metrics.counter_total(name).to_string(),
            ]
        })
        .collect();
    report.table(
        "recovery overhead, aggregated over the whole batch",
        &["counter", "total"],
        recovery_rows,
    );
    let phase_rows: Vec<Vec<String>> = phase_breakdown(&baseline.metrics)
        .into_iter()
        .map(|(phase, messages, bytes, dwell)| {
            vec![
                phase.to_string(),
                messages.to_string(),
                bytes.to_string(),
                dwell.to_string(),
            ]
        })
        .collect();
    report.table(
        "per-phase breakdown, aggregated over the whole batch (dmw-obs)",
        &["phase", "messages", "bytes", "dwell ticks"],
        phase_rows,
    );
    report.attach_metrics(baseline.metrics);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_is_deterministic_and_bit_identical() {
        let workload = Workload {
            agents: 4,
            faults: 0,
            tasks: 2,
            trials: 6,
        };
        let baseline = measure(5, workload, &[1, 2, 8]);
        assert!(baseline.bit_identical);
        assert_eq!(baseline.completed_trials, 6);
        assert_eq!(baseline.degraded_trials, 0);
        assert_eq!(baseline.runs.len(), 3);
        assert!((baseline.runs[0].speedup_vs_sequential - 1.0).abs() < 1e-9);
        assert!(baseline.traffic.point_to_point > 0);
        assert!(baseline.metrics.counter_total("phase_messages") > 0);
        assert_eq!(baseline.metrics.counter_total("degraded_runs"), 0);
    }

    #[test]
    fn chaos_workload_repairs_loss_and_degrades_crash_trials() {
        let workload = Workload {
            agents: 5,
            faults: 1,
            tasks: 2,
            trials: 8,
        };
        let baseline = measure(7, workload, &[1, 2]);
        assert!(baseline.bit_identical);
        // Trial 3 carries the rotation's crash and degrades; the other
        // seven repair their packet loss and complete cleanly.
        assert_eq!(baseline.completed_trials, 7);
        assert_eq!(baseline.degraded_trials, 1);
        assert!(baseline.metrics.counter_total("retransmissions") > 0);
        assert_eq!(baseline.metrics.counter_total("degraded_runs"), 1);
        assert!(baseline.metrics.counter_total("rtt_samples") > 0);
    }

    #[test]
    fn json_has_the_v4_shape() {
        // The id predates schema v5 and is kept stable across schema
        // bumps; the needles below pin the current (v5) shape.
        let workload = Workload {
            agents: 4,
            faults: 0,
            tasks: 1,
            trials: 3,
        };
        let json = measure(6, workload, &[1, 2]).to_json();
        for needle in [
            "\"schema\": \"dmw-bench-batch/v5\"",
            "\"experiment\": \"chaos-trial-sweep\"",
            "\"trials\": 3",
            "\"chaos\": true",
            "\"threads\": 2",
            "\"speedup_vs_sequential\"",
            "\"bit_identical_across_thread_counts\": true",
            "\"available_parallelism\"",
            "\"degraded_trials\": 0",
            "\"recovery\": {",
            "\"retransmissions\": ",
            "\"recovery_rounds\": 0",
            "\"phases\": {",
            "\"bidding\": { \"messages\": ",
            "\"dwell_ticks\": ",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn chaos_json_carries_both_recovery_arms() {
        // Recovery shows up twice in a chaos baseline: the `recovery`
        // counter block and the `control` row of the phase table.
        let workload = Workload {
            agents: 4,
            faults: 0,
            tasks: 1,
            trials: 2,
        };
        let baseline = measure(8, workload, &[1]);
        let json = baseline.to_json();
        for name in RECOVERY_COUNTERS {
            let total = baseline.metrics.counter_total(name);
            assert!(
                json.contains(&format!("    \"{name}\": {total}")),
                "recovery counter {name} = {total} missing in {json}"
            );
        }
        assert!(baseline.metrics.counter_total("retransmissions") > 0);
        assert!(
            json.contains("\"control\": { \"messages\": "),
            "recovery control traffic gets its own phase row"
        );
    }

    #[test]
    fn phase_breakdown_covers_every_protocol_phase_with_consistent_totals() {
        let workload = Workload {
            agents: 4,
            faults: 0,
            tasks: 2,
            trials: 4,
        };
        let baseline = measure(11, workload, &[1]);
        let breakdown = phase_breakdown(&baseline.metrics);
        assert!(!breakdown.is_empty());
        let message_sum: u64 = breakdown.iter().map(|(_, m, _, _)| m).sum();
        let byte_sum: u64 = breakdown.iter().map(|(_, _, b, _)| b).sum();
        assert_eq!(
            message_sum,
            baseline.metrics.counter_total("phase_messages")
        );
        assert_eq!(byte_sum, baseline.metrics.counter_total("phase_bytes"));
        // An honest run walks every phase, so the bidding fan-out and the
        // final claimed phase both appear.
        let phases: Vec<&str> = breakdown.iter().map(|(p, _, _, _)| *p).collect();
        assert!(phases.contains(&"bidding"), "phases were {phases:?}");
    }

    /// The text of `json` from the first `from` up to the next `to`.
    fn json_span<'a>(json: &'a str, from: &str, to: &str) -> &'a str {
        let start = json.find(from).unwrap_or_else(|| panic!("no {from}"));
        let end = start + json[start..].find(to).unwrap_or_else(|| panic!("no {to}"));
        &json[start..end]
    }

    #[test]
    fn committed_baseline_reproduces_its_deterministic_fields() {
        let committed = include_str!("../../../../BENCH_batch.json");
        let workload = Workload {
            agents: 8,
            faults: 1,
            tasks: 4,
            trials: 192,
        };
        let json = measure(20050717, workload, &[2]).to_json();
        for (from, to) in [
            ("\"seed\"", "\"host\""),
            (
                "\"completed_trials\"",
                "\"bit_identical_across_thread_counts\"",
            ),
        ] {
            assert_eq!(
                json_span(&json, from, to),
                json_span(committed, from, to),
                "re-record BENCH_batch.json"
            );
        }
    }

    #[test]
    fn report_renders_with_determinism_evidence() {
        let report = run(9);
        let rendered = report.render();
        assert!(rendered.contains("bit-identical"));
        assert!(rendered.contains("yes"));
        assert!(rendered.contains("per-phase breakdown"));
        assert!(report.metrics.is_some());
    }
}
