//! Determinism contract of the `dmw-obs` metrics layer: the
//! [`MetricsSnapshot`] carried on every run is part of the observable
//! artifact, so it must be bit-identical whatever the batch thread
//! count. Parallelism is an execution detail, never an observable.

use dmw::batch::{aggregate_metrics, BatchRunner, TrialSpec};
use dmw::runner::DmwRunner;
use dmw::Behavior;
use dmw_simnet::{FaultPlan, NodeId};
use integration_tests::{config, random_bids, rng};

const SEED: u64 = 20050717;
const WIDTHS: [usize; 3] = [1, 2, 8];

#[test]
fn metrics_are_bit_identical_across_thread_counts() {
    let mut r = rng(SEED);
    let cfg = config(6, 1, &mut r);
    let runner = DmwRunner::new(cfg);
    let n = runner.config().agents();
    let trials: Vec<TrialSpec> = (0..12)
        .map(|t| {
            let bids = random_bids(runner.config(), 3, &mut r);
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
    let reference_aggregate = aggregate_metrics(&reference);
    assert!(
        reference_aggregate.counter_total("phase_messages") > 0,
        "the workload must actually record metrics"
    );
    for width in &WIDTHS[1..] {
        let results = BatchRunner::with_threads(*width).run_trials(&runner, SEED, &trials);
        for (i, (x, y)) in reference.iter().zip(&results).enumerate() {
            if let (Ok(x), Ok(y)) = (x, y) {
                assert_eq!(
                    x.metrics, y.metrics,
                    "trial {i} metrics differ at width {width}"
                );
            }
        }
        let aggregate = aggregate_metrics(&results);
        assert_eq!(
            reference_aggregate, aggregate,
            "aggregate metrics differ at width {width}"
        );
        assert_eq!(
            reference_aggregate.to_json(0),
            aggregate.to_json(0),
            "serialized metrics differ at width {width}"
        );
    }
}
