//! `bench_scale` — the n-sweep scaling baseline of the event-driven
//! scheduler.
//!
//! Sweeps the agent count 8 → 64 → 256 → 1024 (tasks scaling
//! alongside), timing a clean honest run and a crash-plus-deep-backoff
//! recovery run at each point up to the protocol ceiling, an
//! all-crashed scheduler-saturation ("silence") run at *every* point,
//! cross-checking the event engine against the poll-every-tick oracle
//! (backoff up to the oracle ceiling; silence always), and emitting
//! the `dmw-bench-scale/v3` JSON baseline (see `docs/benchmarks.md`
//! and `docs/scheduler.md`):
//!
//! ```text
//! cargo run --release -p dmw-bench --bin bench_scale -- --out BENCH_scale.json
//! cargo run --release -p dmw-bench --bin bench_scale -- --smoke
//! ```
//!
//! Each point is measured 5 times up to n = 64 and 3 times above; the
//! JSON records every wall clock's median and range over those repeats,
//! and the sweep panics if a deterministic field differs between them.
//!
//! Flags: `--agents <a,b,c>` (the sweep's `n` values; tasks follow as
//! `max(2, n/32)`, trials as `max(1, 64/n)`), `--protocol-ceiling <N>`
//! (largest `n` that runs the full-protocol honest/backoff workloads;
//! default 256 — one n = 1024 protocol run costs hours of crypto on a
//! single core, so points above record `null` and the silence curve
//! continues alone), `--oracle-ceiling <N>` (largest `n` the polling
//! oracle re-runs the *backoff* workload for the wall-clock and
//! bit-parity comparison; default 256), `--seed <u64>` (default the
//! PODC seed), `--out <path>` (write the JSON baseline; omitted =
//! print to stdout), `--smoke` (n = 8 only, no file output — the
//! `check.sh` gate). Exits non-zero if any oracle-checked point was
//! not bit-identical.

use dmw_bench::experiments::scale::{default_shapes, measure_scale, ScaleShape};

struct Options {
    agents: Option<Vec<usize>>,
    protocol_ceiling: usize,
    oracle_ceiling: usize,
    seed: u64,
    out: Option<String>,
    smoke: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_scale [--agents a,b,c] [--protocol-ceiling N] \
         [--oracle-ceiling N] [--seed S] [--out PATH] [--smoke]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(value: Option<String>) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage())
}

fn parse_options() -> Options {
    let mut options = Options {
        agents: None,
        protocol_ceiling: 256,
        oracle_ceiling: 256,
        seed: 20050717, // PODC 2005
        out: None,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--agents" => {
                let list: Option<Vec<usize>> = it
                    .next()
                    .map(|v| v.split(',').map(|t| t.trim().parse().ok()).collect())
                    .unwrap_or(None);
                options.agents = Some(list.filter(|l| !l.is_empty()).unwrap_or_else(|| usage()));
            }
            "--protocol-ceiling" => options.protocol_ceiling = parse(it.next()),
            "--oracle-ceiling" => options.oracle_ceiling = parse(it.next()),
            "--seed" => options.seed = parse(it.next()),
            "--out" => options.out = Some(it.next().unwrap_or_else(|| usage())),
            "--smoke" => options.smoke = true,
            _ => usage(),
        }
    }
    if options.smoke {
        // Smallest point only: exercises all three workloads, both
        // oracle comparisons and the JSON path in well under a second.
        options.agents = Some(vec![8]);
        options.protocol_ceiling = 8;
        options.oracle_ceiling = 8;
        options.out = None;
    }
    options
}

fn main() {
    let options = parse_options();
    let shapes: Vec<ScaleShape> = match &options.agents {
        Some(agents) => agents
            .iter()
            .map(|&agents| ScaleShape::for_agents(agents))
            .collect(),
        None => default_shapes(),
    };
    eprintln!(
        "bench_scale: sweeping n = {:?} (protocol ceiling {}, oracle ceiling {}, seed {})",
        shapes.iter().map(|s| s.agents).collect::<Vec<_>>(),
        options.protocol_ceiling,
        options.oracle_ceiling,
        options.seed
    );
    let baseline = measure_scale(
        options.seed,
        &shapes,
        options.oracle_ceiling,
        options.protocol_ceiling,
    );
    for point in &baseline.points {
        let protocol = match (&point.honest, &point.honest_cost, &point.backoff) {
            (Some(honest), Some(cost), Some(backoff)) => {
                let oracle = match point.backoff_polling_wall_secs {
                    Some(secs) => format!("{:.3}s polling", secs.median),
                    None => "oracle skipped".to_owned(),
                };
                format!(
                    "honest {:>8.3}s ({} ticks, {} muls/agent = {:.3} mn² log p); \
                     backoff {:>8.3}s ({} of {} ticks active, {})",
                    honest.wall_secs.median,
                    honest.run_ticks,
                    cost.muls_per_agent,
                    cost.ratio,
                    backoff.wall_secs.median,
                    backoff.events_processed,
                    backoff.run_ticks,
                    oracle
                )
            }
            _ => "protocol workloads skipped (above ceiling)".to_owned(),
        };
        eprintln!(
            "  n {:>5} m {:>3} x{:<2}: {}; silence {:>7.3}s ({} of {} ticks active, \
             {:.3}s polling); bit-identical: {}",
            point.shape.agents,
            point.shape.tasks,
            point.shape.trials,
            protocol,
            point.silence.wall_secs.median,
            point.silence.events_processed,
            point.silence.run_ticks,
            point.silence_polling_wall_secs.median,
            point.bit_identical
        );
    }
    if !baseline.all_bit_identical() {
        eprintln!("bench_scale: FAILED — event engine disagreed with the polling oracle");
        std::process::exit(1);
    }
    let json = baseline.to_json();
    match &options.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("bench_scale: cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("bench_scale: baseline written to {path}");
        }
        None => {
            if !options.smoke {
                println!("{json}");
            }
        }
    }
    if options.smoke {
        eprintln!("bench_scale: smoke OK");
    }
}
