//! Determinism contract of the batch engine: for a fixed seed, the
//! schedules, payments, traffic counters and full message traces of every
//! trial are bit-identical whatever the thread count — parallelism is an
//! execution detail, never an observable.

use dmw::batch::{BatchRunner, TrialSpec};
use dmw::runner::{DmwRun, DmwRunner};
use dmw::{Behavior, DmwError};
use dmw_simnet::{FaultPlan, NodeId};
use integration_tests::{config, random_bids, rng};

const SEED: u64 = 20050717;
const WIDTHS: [usize; 3] = [1, 2, 8];

fn assert_identical(a: &[Result<DmwRun, DmwError>], b: &[Result<DmwRun, DmwError>], width: usize) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        match (x, y) {
            (Ok(x), Ok(y)) => {
                assert_eq!(
                    x.result, y.result,
                    "trial {i} outcome differs at width {width}"
                );
                assert_eq!(
                    x.network, y.network,
                    "trial {i} traffic differs at width {width}"
                );
                assert_eq!(x.trace, y.trace, "trial {i} trace differs at width {width}");
            }
            (Err(x), Err(y)) => assert_eq!(x, y, "trial {i} error differs at width {width}"),
            _ => panic!("trial {i} ok/err status differs at width {width}"),
        }
    }
}

#[test]
fn honest_batches_are_bit_identical_across_thread_counts() {
    let mut r = rng(SEED);
    let cfg = config(6, 1, &mut r);
    let runner = DmwRunner::new(cfg);
    let instances: Vec<_> = (0..12)
        .map(|_| random_bids(runner.config(), 3, &mut r))
        .collect();

    let reference = BatchRunner::with_threads(WIDTHS[0]).run_honest(&runner, SEED, &instances);
    assert!(reference
        .iter()
        .all(|run| run.as_ref().is_ok_and(DmwRun::is_completed)));
    for width in &WIDTHS[1..] {
        let results = BatchRunner::with_threads(*width).run_honest(&runner, SEED, &instances);
        assert_identical(&reference, &results, *width);
    }
}

#[test]
fn misbehaving_and_faulty_batches_are_bit_identical_across_thread_counts() {
    let mut r = rng(SEED + 1);
    let cfg = config(5, 1, &mut r);
    let runner = DmwRunner::new(cfg);
    let n = runner.config().agents();
    let trials: Vec<TrialSpec> = (0..9)
        .map(|t| {
            let bids = random_bids(runner.config(), 2, &mut r);
            match t % 3 {
                0 => TrialSpec::honest(bids),
                1 => {
                    let mut behaviors = vec![Behavior::Suggested; n];
                    behaviors[t % n] = Behavior::TamperedCommitments;
                    TrialSpec::honest(bids).with_behaviors(behaviors)
                }
                _ => TrialSpec::honest(bids)
                    .with_faults(FaultPlan::none(n).crash_at(NodeId(t % n), 2)),
            }
        })
        .collect();

    let reference = BatchRunner::with_threads(WIDTHS[0]).run_trials(&runner, SEED, &trials);
    for width in &WIDTHS[1..] {
        let results = BatchRunner::with_threads(*width).run_trials(&runner, SEED, &trials);
        assert_identical(&reference, &results, *width);
    }
}
