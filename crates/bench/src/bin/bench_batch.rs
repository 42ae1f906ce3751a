//! `bench_batch` — wall-clock/throughput baseline of the batch engine.
//!
//! Times the identical chaos trial batch — reliable delivery over
//! `drop_every(3)` loss, with a crash rotation exercising graceful
//! degradation — at several thread counts, cross-checks bit-identity
//! of the results, and emits the `dmw-bench-batch/v5` JSON baseline — wall-clock timings plus a
//! deterministic per-phase breakdown and the recovery counters (see
//! `docs/benchmarks.md`):
//!
//! ```text
//! cargo run --release -p dmw-bench --bin bench_batch -- --out BENCH_batch.json
//! cargo run --release -p dmw-bench --bin bench_batch -- --smoke
//! ```
//!
//! Flags: `--trials <N>` (default 192), `--threads <a,b,c>` (default
//! `1,2,4,8`; the first entry is the sequential reference), `--n/--c/--m`
//! (workload shape, default `8/1/4`), `--seed <u64>` (default the PODC
//! seed), `--out <path>` (write the JSON baseline; omitted = print to
//! stdout), `--smoke` (tiny instance, no file output — the `check.sh`
//! gate), `--max-retransmissions <N>` / `--max-duplicates <N>` (recovery
//! regression ceilings: fail when the batch exceeds them).
//! Exits non-zero if any thread count produced results differing from
//! the sequential reference, or a recovery ceiling is exceeded.

use dmw_bench::experiments::batch::{measure, Workload};

struct Options {
    trials: usize,
    threads: Vec<usize>,
    n: usize,
    c: usize,
    m: usize,
    seed: u64,
    out: Option<String>,
    smoke: bool,
    max_retransmissions: Option<u64>,
    max_duplicates: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_batch [--trials N] [--threads a,b,c] [--n N] [--c C] [--m M] \
         [--seed S] [--out PATH] [--smoke] \
         [--max-retransmissions N] [--max-duplicates N]"
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
        trials: 192,
        threads: vec![1, 2, 4, 8],
        n: 8,
        c: 1,
        m: 4,
        seed: 20050717, // PODC 2005
        out: None,
        smoke: false,
        max_retransmissions: None,
        max_duplicates: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trials" => options.trials = parse(it.next()),
            "--threads" => {
                let list: Option<Vec<usize>> = it
                    .next()
                    .map(|v| v.split(',').map(|t| t.trim().parse().ok()).collect())
                    .unwrap_or(None);
                options.threads = list.filter(|l| !l.is_empty()).unwrap_or_else(|| usage());
            }
            "--n" => options.n = parse(it.next()),
            "--c" => options.c = parse(it.next()),
            "--m" => options.m = parse(it.next()),
            "--seed" => options.seed = parse(it.next()),
            "--out" => options.out = Some(it.next().unwrap_or_else(|| usage())),
            "--smoke" => options.smoke = true,
            "--max-retransmissions" => options.max_retransmissions = Some(parse(it.next())),
            "--max-duplicates" => options.max_duplicates = Some(parse(it.next())),
            _ => usage(),
        }
    }
    if options.smoke {
        // Tiny instance: exercises the whole engine path in well under a
        // second, which is all a pre-merge gate should cost.
        options.trials = 6;
        options.threads = vec![1, 2];
        options.n = 4;
        options.c = 0;
        options.m = 2;
        options.out = None;
    }
    options
}

fn main() {
    let options = parse_options();
    let workload = Workload {
        agents: options.n,
        faults: options.c,
        tasks: options.m,
        trials: options.trials,
    };
    eprintln!(
        "bench_batch: {} chaos trials of n = {}, m = {}, c = {} at widths {:?} (seed {})",
        workload.trials,
        workload.agents,
        workload.tasks,
        workload.faults,
        options.threads,
        options.seed
    );
    let baseline = measure(options.seed, workload, &options.threads);
    for run in &baseline.runs {
        eprintln!(
            "  threads {:>3}: {:>8.3}s  {:>8.1} trials/s  speedup {:.2}x",
            run.threads, run.wall_secs, run.trials_per_sec, run.speedup_vs_sequential
        );
    }
    eprintln!(
        "  completed {}/{} trials ({} degraded); bit-identical across widths: {}; \
         host parallelism: {}",
        baseline.completed_trials,
        workload.trials,
        baseline.degraded_trials,
        baseline.bit_identical,
        baseline.host_parallelism
    );
    if !baseline.bit_identical {
        eprintln!("bench_batch: FAILED — thread counts disagreed on trial results");
        std::process::exit(1);
    }
    // Recovery regression ceilings: the reliable endpoints must stay
    // under the committed recovery-traffic budget.
    let mut over_ceiling = false;
    for (name, ceiling) in [
        ("retransmissions", options.max_retransmissions),
        ("duplicate_deliveries", options.max_duplicates),
    ] {
        let measured = baseline.metrics.counter_total(name);
        if let Some(ceiling) = ceiling {
            eprintln!("  {name}: {measured} (ceiling {ceiling})");
            if measured > ceiling {
                eprintln!("bench_batch: FAILED — {name} exceeded the recovery ceiling");
                over_ceiling = true;
            }
        }
    }
    if over_ceiling {
        std::process::exit(1);
    }
    let json = baseline.to_json();
    match &options.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("bench_batch: cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("bench_batch: baseline written to {path}");
        }
        None => {
            if !options.smoke {
                println!("{json}");
            }
        }
    }
    if options.smoke {
        eprintln!("bench_batch: smoke OK");
    }
}
