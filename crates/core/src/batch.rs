//! The batch-execution engine: fans independent protocol trials across
//! scoped worker threads with deterministic per-trial RNG streams.
//!
//! Both the paper's mechanism and its evaluation are embarrassingly
//! parallel: DMW sells each of the `m` tasks in an *independent*
//! distributed Vickrey auction (Section 4), and the Section 5 experiments
//! are thousands of independent randomized trials. [`BatchRunner`] exploits
//! that structure without giving up replayability:
//!
//! * every trial draws from a private [`StdRng`] seeded by
//!   [`crate::config::trial_seed`]`(batch_seed, index)` — a pure function
//!   of the batch seed and the trial's submission index — so the results
//!   are **bit-identical whatever the thread count** (the
//!   `batch_determinism` integration test pins this down for widths 1, 2
//!   and 8);
//! * results are returned **in submission order**, regardless of which
//!   worker computed which trial and in what order trials finished.
//!
//! [`BatchRunner::run_trials`] submits protocol trials against a fixed
//! [`DmwRunner`]; the generic [`BatchRunner::map`] / [`BatchRunner::execute`]
//! fan arbitrary jobs (the `dmw-bench` experiment sweeps go through these,
//! since each sweep point regenerates its own configuration).
//!
//! This module is the crate's one source of threads. The same scoped
//! fan-out serves [`BatchRunner::map`] and the runner's polling of one
//! tick's agents (`docs/scheduler.md`). It adds each worker's
//! [`dmw_modmath::ops`] delta to the calling thread's counters, so a
//! region bracketed with `ops::current_ops()` counts the same operations
//! at every width. A fan-out started inside a worker runs inline, on that
//! worker: a batch trial never spawns tick workers of its own.
//!
//! # Example: a deterministic honest sweep
//!
//! ```
//! use dmw::batch::BatchRunner;
//! use dmw::config::DmwConfig;
//! use dmw::runner::DmwRunner;
//! use dmw_mechanism::ExecutionTimes;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let runner = DmwRunner::new(DmwConfig::generate(4, 0, &mut rng)?);
//! let instances: Vec<ExecutionTimes> = vec![
//!     ExecutionTimes::from_rows(vec![vec![2], vec![1], vec![3], vec![2]])?,
//!     ExecutionTimes::from_rows(vec![vec![1], vec![2], vec![2], vec![3]])?,
//! ];
//! let wide = BatchRunner::with_threads(8).run_honest(&runner, 42, &instances);
//! let narrow = BatchRunner::with_threads(1).run_honest(&runner, 42, &instances);
//! // Same batch seed -> same outcomes, whatever the thread count.
//! for (w, n) in wide.iter().zip(&narrow) {
//!     assert_eq!(
//!         w.as_ref().unwrap().completed()?.schedule,
//!         n.as_ref().unwrap().completed()?.schedule,
//!     );
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::config::trial_seed;
use crate::error::DmwError;
use crate::runner::{DmwRun, DmwRunner};
use crate::strategy::Behavior;
use dmw_mechanism::ExecutionTimes;
use dmw_modmath::ops::{self, OpsSnapshot};
use dmw_obs::MetricsSnapshot;
use dmw_simnet::FaultPlan;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// Set on every thread [`fan_out`] spawns.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The host's parallelism, read once per process; one worker if the host
/// cannot tell.
fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// The worker count for `items` units of work at `per_worker` units per
/// worker: one worker per full `per_worker`, at least one, at most the
/// host's parallelism.
pub(crate) fn workers_for(items: usize, per_worker: usize) -> usize {
    (items / per_worker.max(1)).clamp(1, host_parallelism())
}

/// Runs `f(job)` for every job, each on its own scoped worker thread, and
/// returns the results in job order. Each worker's operation counts are
/// added to the calling thread's (see the [module docs](self)). One job,
/// or a call from inside a worker, runs inline on the calling thread.
///
/// # Panics
///
/// Re-raises a job's panic on the calling thread, and panics if the host
/// refuses to spawn a thread.
fn fan_out<J: Send, R: Send>(jobs: Vec<J>, f: impl Fn(J) -> R + Sync) -> Vec<R> {
    if jobs.len() <= 1 || IN_WORKER.with(Cell::get) {
        return jobs.into_iter().map(f).collect();
    }
    let f = &f;
    let joined: Vec<(R, OpsSnapshot)> = std::thread::scope(|s| {
        let workers: Vec<_> = jobs
            .into_iter()
            .map(|job| {
                s.spawn(move || {
                    IN_WORKER.with(|flag| flag.set(true));
                    let before = ops::current_ops();
                    let result = f(job);
                    (result, ops::current_ops().since(&before))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| match worker.join() {
                Ok(done) => done,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    joined
        .into_iter()
        .map(|(result, delta)| {
            ops::add(delta);
            result
        })
        .collect()
}

/// Maps `f` over `items` on `width` workers, each over one contiguous run
/// of items (run lengths differ by at most one), and returns the results
/// in item order.
pub(crate) fn map_contiguous<T: Send, R: Send>(
    items: Vec<T>,
    width: usize,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let width = width.min(items.len());
    if width <= 1 {
        return items.into_iter().map(f).collect();
    }
    let (base, extra) = (items.len() / width, items.len() % width);
    let mut rest = items.into_iter();
    let runs: Vec<Vec<T>> = (0..width)
        .map(|run| {
            rest.by_ref()
                .take(base + usize::from(run < extra))
                .collect()
        })
        .collect();
    fan_out(runs, |run| run.into_iter().map(&f).collect::<Vec<R>>())
        .into_iter()
        .flatten()
        .collect()
}

/// Folds the metrics snapshots of every successful run in a batch into
/// one aggregate (counters add, gauges max, histogram buckets add) —
/// the whole-sweep analogue of summing [`dmw_simnet::NetworkStats`].
/// Trials that failed validation contribute nothing.
pub fn aggregate_metrics(runs: &[Result<DmwRun, DmwError>]) -> MetricsSnapshot {
    runs.iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|run| &run.metrics)
        .sum()
}

/// One trial submitted to [`BatchRunner::run_trials`]: a bid matrix plus
/// optional per-agent behaviors and an optional network fault plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialSpec {
    /// The bid matrix (rows index agents, columns tasks).
    pub bids: ExecutionTimes,
    /// Per-agent behaviors; `None` means every agent follows the
    /// suggested strategy.
    pub behaviors: Option<Vec<Behavior>>,
    /// The injected network faults; `None` means a fault-free network.
    pub faults: Option<FaultPlan>,
}

impl TrialSpec {
    /// An honest, fault-free trial over `bids`.
    pub fn honest(bids: ExecutionTimes) -> Self {
        TrialSpec {
            bids,
            behaviors: None,
            faults: None,
        }
    }

    /// Sets per-agent behaviors (length must match the runner's `n`).
    #[must_use]
    pub fn with_behaviors(mut self, behaviors: Vec<Behavior>) -> Self {
        self.behaviors = Some(behaviors);
        self
    }

    /// Sets the network fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }
}

/// Fans independent jobs across a configurable number of worker threads,
/// with deterministic seeding and submission-order results.
///
/// See the [module docs](self) for the determinism contract.
#[derive(Debug)]
pub struct BatchRunner {
    threads: usize,
}

impl Default for BatchRunner {
    fn default() -> Self {
        BatchRunner::new()
    }
}

impl BatchRunner {
    /// A batch runner over all available hardware parallelism.
    pub fn new() -> Self {
        BatchRunner::with_threads(0)
    }

    /// A batch runner over exactly `threads` workers; `0` means "all
    /// available hardware parallelism" (one worker if the host cannot
    /// tell).
    pub fn with_threads(threads: usize) -> Self {
        let threads = match threads {
            0 => host_parallelism(),
            n => n,
        };
        BatchRunner { threads }
    }

    /// The worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(index, &job)` for every job, fanning across the workers,
    /// and returns the results in submission order.
    ///
    /// This is the deterministic-order parallel-map primitive everything
    /// else builds on: `f` receives the job's submission index, so any
    /// seeding derived from it is independent of thread scheduling. The
    /// width is `threads().min(jobs.len())`; at width 1, or when called
    /// from inside another fan-out's worker, the jobs run in order on the
    /// calling thread. Otherwise each worker takes the next unclaimed
    /// index from a shared cursor, and the `(index, result)` pairs are
    /// sorted back into submission order. The operations the workers
    /// count are added to the calling thread's `ops` counters.
    ///
    /// # Panics
    ///
    /// Re-raises a job's panic on the calling thread once every worker
    /// has stopped, and panics if the host refuses to spawn a thread.
    pub fn map<T, R, F>(&self, jobs: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Send + Sync,
    {
        let width = self.threads.min(jobs.len());
        let cursor = AtomicUsize::new(0);
        let mut done: Vec<(usize, R)> = fan_out(vec![(); width], |()| {
            let mut local = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                local.push((i, f(i, job)));
            }
            local
        })
        .into_iter()
        .flatten()
        .collect();
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, r)| r).collect()
    }

    /// Like [`BatchRunner::map`], additionally handing `f` a private RNG
    /// seeded from [`trial_seed`]`(batch_seed, index)`.
    pub fn execute<T, R, F>(&self, batch_seed: u64, jobs: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T, &mut StdRng) -> R + Send + Sync,
    {
        self.map(jobs, |i, job| {
            let mut rng = StdRng::seed_from_u64(trial_seed(batch_seed, i as u64));
            f(i, job, &mut rng)
        })
    }

    /// Runs every trial through `runner`, fanning across the workers.
    ///
    /// Trial `i` draws from a private stream seeded by
    /// [`trial_seed`]`(batch_seed, i)`; the returned runs are in
    /// submission order and bit-identical whatever the thread count. A
    /// trial's shape/range errors are reported in its slot, not
    /// propagated — one malformed trial must not poison a batch.
    pub fn run_trials(
        &self,
        runner: &DmwRunner,
        batch_seed: u64,
        trials: &[TrialSpec],
    ) -> Vec<Result<DmwRun, DmwError>> {
        let n = runner.config().agents();
        self.execute(batch_seed, trials, |_, trial, rng| {
            let behaviors = match &trial.behaviors {
                Some(behaviors) => behaviors.clone(),
                None => vec![Behavior::Suggested; n],
            };
            let faults = match &trial.faults {
                Some(faults) => faults.clone(),
                None => FaultPlan::none(n),
            };
            runner.run(&trial.bids, &behaviors, faults, rng)
        })
    }

    /// [`BatchRunner::run_trials`] over honest, fault-free trials.
    pub fn run_honest(
        &self,
        runner: &DmwRunner,
        batch_seed: u64,
        instances: &[ExecutionTimes],
    ) -> Vec<Result<DmwRun, DmwError>> {
        let trials: Vec<TrialSpec> = instances
            .iter()
            .map(|bids| TrialSpec::honest(bids.clone()))
            .collect();
        self.run_trials(runner, batch_seed, &trials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DmwConfig;

    fn runner(n: usize, c: usize, seed: u64) -> DmwRunner {
        let mut rng = StdRng::seed_from_u64(seed);
        DmwRunner::new(DmwConfig::generate(n, c, &mut rng).unwrap())
    }

    fn instances(count: usize, n: usize, m: usize, w_max: u64, seed: u64) -> Vec<ExecutionTimes> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| dmw_mechanism::generators::uniform(n, m, 1..=w_max, &mut rng).unwrap())
            .collect()
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let runner = runner(5, 1, 11);
        let w_max = runner.config().encoding().w_max();
        let batch = instances(6, 5, 2, w_max, 99);
        let sequential = BatchRunner::with_threads(1).run_honest(&runner, 7, &batch);
        let parallel = BatchRunner::with_threads(4).run_honest(&runner, 7, &batch);
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
            assert_eq!(s.result, p.result);
            assert_eq!(s.network, p.network);
            assert_eq!(s.metrics, p.metrics);
            assert_eq!(s.trace, p.trace);
        }
        assert_eq!(
            aggregate_metrics(&sequential),
            aggregate_metrics(&parallel),
            "aggregate snapshots are thread-count invariant too"
        );
    }

    #[test]
    fn a_batch_counts_the_same_operations_at_every_width() {
        let runner = runner(5, 1, 11);
        let w_max = runner.config().encoding().w_max();
        let batch = instances(4, 5, 2, w_max, 99);
        let counted = |threads: usize| {
            let before = ops::current_ops();
            BatchRunner::with_threads(threads).run_honest(&runner, 7, &batch);
            ops::current_ops().since(&before)
        };
        let serial = counted(1);
        assert!(serial.mul > 0);
        assert_eq!(
            counted(3),
            serial,
            "worker threads' counts reach the caller"
        );
    }

    #[test]
    fn one_worker_per_full_share_up_to_the_host() {
        assert_eq!(workers_for(0, 16), 1);
        assert_eq!(workers_for(31, 16), 1);
        assert_eq!(workers_for(32, 16), 2.min(host_parallelism()));
        assert_eq!(workers_for(1 << 20, 16), host_parallelism());
    }

    #[test]
    fn contiguous_runs_cover_every_item_in_order() {
        for (count, width) in [(0, 3), (1, 4), (8, 7), (64, 4), (10, 1)] {
            let items: Vec<usize> = (0..count).collect();
            let mapped = map_contiguous(items, width, |x| x * 3);
            assert_eq!(mapped, (0..count).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_fan_out_inside_a_worker_runs_inline() {
        let outer = thread_ids(2);
        assert_ne!(outer[0], outer[1], "a top-level fan-out spawns workers");
        let inner = BatchRunner::with_threads(2).map(&[0, 1], |_, _| thread_ids(2));
        for ids in &inner {
            assert_eq!(ids[0], ids[1], "nested jobs share their worker's thread");
        }
    }

    /// The thread each of `width` fan-out jobs ran on.
    fn thread_ids(width: usize) -> Vec<std::thread::ThreadId> {
        fan_out(vec![(); width], |()| std::thread::current().id())
    }

    #[test]
    fn batch_matches_manual_sequential_replay() {
        let runner = runner(4, 0, 12);
        let w_max = runner.config().encoding().w_max();
        let batch = instances(4, 4, 1, w_max, 5);
        let results = BatchRunner::with_threads(3).run_honest(&runner, 31, &batch);
        for (i, (bids, run)) in batch.iter().zip(&results).enumerate() {
            let mut rng = StdRng::seed_from_u64(trial_seed(31, i as u64));
            let replay = runner.run_honest(bids, &mut rng).unwrap();
            assert_eq!(replay.result, run.as_ref().unwrap().result);
        }
    }

    #[test]
    fn trial_errors_stay_in_their_slot() {
        let runner = runner(4, 0, 13);
        // Second trial has the wrong number of agents.
        let good = ExecutionTimes::from_rows(vec![vec![2], vec![1], vec![3], vec![2]]).unwrap();
        let bad = ExecutionTimes::from_rows(vec![vec![1], vec![1]]).unwrap();
        let trials = vec![TrialSpec::honest(good), TrialSpec::honest(bad)];
        let results = BatchRunner::with_threads(2).run_trials(&runner, 1, &trials);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(DmwError::ShapeMismatch { .. })));
    }

    #[test]
    fn deviant_trials_abort_in_parallel_too() {
        let runner = runner(4, 0, 14);
        let bids = ExecutionTimes::from_rows(vec![vec![2], vec![1], vec![3], vec![2]]).unwrap();
        let mut behaviors = vec![Behavior::Suggested; 4];
        behaviors[1] = Behavior::TamperedCommitments;
        let trials = vec![
            TrialSpec::honest(bids.clone()),
            TrialSpec::honest(bids).with_behaviors(behaviors),
        ];
        let results = BatchRunner::with_threads(2).run_trials(&runner, 3, &trials);
        assert!(results[0].as_ref().unwrap().is_completed());
        assert!(results[1].as_ref().unwrap().abort_reason().is_some());
    }

    #[test]
    fn map_returns_results_in_submission_order() {
        let jobs: Vec<u64> = (0..500).collect();
        // Every seventh job naps, so no one worker drains the cursor
        // alone and the workers' batches interleave.
        let doubled = BatchRunner::with_threads(8).map(&jobs, |_, &x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
            x * 2
        });
        assert_eq!(doubled, (0..500).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_passes_true_indices() {
        let jobs = vec!["a"; 97];
        let indices = BatchRunner::with_threads(3).map(&jobs, |i, _| i);
        assert_eq!(indices, (0..97).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_resolves_to_at_least_one_worker() {
        assert!(BatchRunner::with_threads(0).threads() >= 1);
        assert_eq!(BatchRunner::with_threads(5).threads(), 5);
    }

    #[test]
    fn a_panicking_job_reaches_the_caller() {
        let engine = BatchRunner::with_threads(4);
        let jobs: Vec<u64> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            engine.map(&jobs, |_, &x| {
                assert!(x != 13, "boom");
                x
            })
        });
        let payload = result.expect_err("the job's panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        assert_eq!(message, Some("boom"));
    }

    #[test]
    fn generic_execute_derives_independent_streams() {
        let engine = BatchRunner::with_threads(4);
        let jobs: Vec<u32> = (0..8).collect();
        let draws = engine.execute(77, &jobs, |_, _, rng| {
            use rand::Rng;
            rng.gen::<u64>()
        });
        let replay = engine.execute(77, &jobs, |_, _, rng| {
            use rand::Rng;
            rng.gen::<u64>()
        });
        assert_eq!(draws, replay);
        let distinct: std::collections::BTreeSet<_> = draws.iter().collect();
        assert_eq!(distinct.len(), draws.len(), "streams must not collide");
    }
}
