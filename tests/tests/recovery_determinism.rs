//! Chaos determinism suite for the reliable-delivery / graceful-
//! degradation layer: a fixed seed corpus crossed with the chaos fault
//! matrix (periodic drops, seeded probabilistic loss, transient
//! partitions) must produce bit-identical outcomes, metrics snapshots
//! and retransmit counts at every batch width. Honest runs under
//! repairable loss must match the lossless allocation and payments
//! exactly, and the resilience threshold `c` must separate graceful
//! degradation from the abort path.

use dmw::batch::{aggregate_metrics, BatchRunner, TrialSpec};
use dmw::error::AbortReason;
use dmw::reliable::RetryPolicy;
use dmw::runner::{utilities, DmwRunner, RunResult};
use dmw::Behavior;
use dmw_mechanism::{AgentId, ExecutionTimes, TaskId};
use dmw_simnet::{FaultPlan, NodeId};
use integration_tests::{config, random_bids, rng};

const SEED: u64 = 20050717;
const WIDTHS: [usize; 3] = [1, 2, 8];

/// The chaos schedules every determinism test sweeps. Transient
/// windows stay far shorter than the retry policy's repair horizon, so
/// every loss here is repairable and never triggers a spurious
/// exclusion.
fn chaos_plans(n: usize) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("periodic", FaultPlan::none(n).drop_every(3)),
        (
            "probabilistic",
            FaultPlan::none(n).drop_prob(0.10, 0xC0FFEE),
        ),
        (
            "transient",
            FaultPlan::none(n)
                .drop_link_between(NodeId(0), NodeId(2), 1, 3)
                .drop_link_between(NodeId(3), NodeId(1), 2, 4),
        ),
    ]
}

#[test]
fn repairable_chaos_reproduces_the_lossless_outcome() {
    let mut r = rng(SEED);
    let cfg = config(6, 1, &mut r);
    let bids = random_bids(&cfg, 3, &mut r);
    let behaviors = vec![Behavior::Suggested; 6];
    let runner = DmwRunner::new(cfg).with_recovery();

    let baseline = runner
        .run(&bids, &behaviors, FaultPlan::none(6), &mut rng(SEED + 1))
        .expect("valid lossless run");
    assert!(baseline.is_completed(), "lossless recovery run completes");
    assert_eq!(baseline.metrics.counter_total("retransmissions"), 0);

    for (case, faults) in chaos_plans(6) {
        let lossy = runner
            .run(&bids, &behaviors, faults, &mut rng(SEED + 1))
            .expect("valid chaos run");
        assert!(lossy.is_completed(), "{case}: repaired run completes");
        assert_eq!(
            lossy.completed().unwrap(),
            baseline.completed().unwrap(),
            "{case}: allocation and payments must match the lossless run"
        );
        assert!(
            lossy.metrics.counter_total("retransmissions") > 0,
            "{case}: the repair must be visible in the metrics"
        );
        // A pathological drop/backoff alignment may exhaust a single
        // retry budget (e.g. a run of lost acks whose payload already
        // arrived), but a lone suspicion must never win the exclusion
        // vote: the run stays a clean completion, never degrades.
        assert!(
            !lossy.is_degraded(),
            "{case}: repairable loss must not degrade the run"
        );
    }
}

#[test]
fn chaos_outcomes_are_bit_identical_across_widths() {
    let mut r = rng(SEED ^ 0xD15);
    let cfg = config(6, 1, &mut r);
    let runner = DmwRunner::new(cfg).with_recovery();
    let n = runner.config().agents();
    let plans = chaos_plans(n);
    let trials: Vec<TrialSpec> = (0..9)
        .map(|t| {
            let bids = random_bids(runner.config(), 2, &mut r);
            let (_, faults) = &plans[t % plans.len()];
            let spec = TrialSpec::honest(bids).with_faults(faults.clone());
            if t % 4 == 3 {
                // A crash rides along so degraded runs are in the corpus.
                spec.with_faults(faults.clone().crash_at(NodeId(t % n), 4))
            } else {
                spec
            }
        })
        .collect();

    let reference = BatchRunner::with_threads(WIDTHS[0]).run_trials(&runner, SEED, &trials);
    let reference_aggregate = aggregate_metrics(&reference);
    assert!(
        reference_aggregate.counter_total("retransmissions") > 0,
        "the corpus must exercise the retransmit path"
    );
    assert!(
        reference_aggregate.counter_total("rtt_samples") > 0,
        "the corpus must feed the adaptive RTT estimators — their \
         fixed-point state is part of the cross-width determinism claim"
    );
    for width in &WIDTHS[1..] {
        let results = BatchRunner::with_threads(*width).run_trials(&runner, SEED, &trials);
        for (i, (x, y)) in reference.iter().zip(&results).enumerate() {
            if let (Ok(x), Ok(y)) = (x, y) {
                assert_eq!(
                    x.result, y.result,
                    "trial {i} outcome differs at width {width}"
                );
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

#[test]
fn nack_storm_is_suppressed_under_symmetric_loss() {
    // 50% symmetric periodic loss: every second transmission (data and
    // control alike) dies. Gap nacks must stay proportional to loss
    // events — the per-link watermark may request each gap once — so
    // the nack volume stays below the ack volume instead of storming,
    // and the repaired outcome still matches the lossless run exactly.
    let mut r = rng(SEED ^ 0x57f);
    let cfg = config(6, 1, &mut r);
    let bids = random_bids(&cfg, 3, &mut r);
    let behaviors = vec![Behavior::Suggested; 6];
    let runner = DmwRunner::new(cfg).with_recovery();

    let baseline = runner
        .run(&bids, &behaviors, FaultPlan::none(6), &mut rng(SEED + 5))
        .expect("valid lossless run");
    assert!(baseline.is_completed());
    let lossy = runner
        .run(
            &bids,
            &behaviors,
            FaultPlan::none(6).drop_every(2),
            &mut rng(SEED + 5),
        )
        .expect("valid chaos run");
    assert!(lossy.is_completed(), "50% loss is repaired, not fatal");
    assert_eq!(
        lossy.completed().unwrap(),
        baseline.completed().unwrap(),
        "repair is outcome-invariant even at 50% loss"
    );
    let nacks = lossy.metrics.counter_total("nacks_sent");
    let acks = lossy.metrics.counter_total("acks_sent");
    assert!(nacks > 0, "heavy loss must exercise the nack fast path");
    assert!(
        nacks <= acks,
        "nack storm: {nacks} nacks vs {acks} acks — the watermark must \
         bound gap requests to one per gap"
    );
}

#[test]
fn suspicion_threshold_sweep_under_adaptive_timeouts() {
    // The c − 1 / c / c + 1 sweep of the resilience threshold, under an
    // explicit adaptive retry policy (tight base, deeper budget) rather
    // than the defaults: RTT-derived timeouts must not change which
    // side of the threshold a crash count lands on.
    let policy = RetryPolicy {
        base_timeout: 8,
        budget: 4,
    };
    let run_with_crashes = |crashed: &[usize]| {
        let mut r = rng(SEED ^ 0xADA);
        let cfg = config(6, 2, &mut r);
        let bids = random_bids(&cfg, 2, &mut r);
        let mut faults = FaultPlan::none(6);
        for &node in crashed {
            faults = faults.crash_at(NodeId(node), 4);
        }
        DmwRunner::new(cfg)
            .with_recovery_policy(policy)
            .run(&bids, &vec![Behavior::Suggested; 6], faults, &mut r)
            .expect("valid run")
    };

    let below = run_with_crashes(&[1]); // c − 1
    let RunResult::Degraded { excluded, .. } = &below.result else {
        panic!("c - 1 crashes must degrade, got {:?}", below.result);
    };
    assert_eq!(excluded, &vec![1]);

    let at = run_with_crashes(&[1, 4]); // exactly c
    let RunResult::Degraded { excluded, .. } = &at.result else {
        panic!("c crashes must still degrade, got {:?}", at.result);
    };
    assert_eq!(excluded, &vec![1, 4]);

    let beyond = run_with_crashes(&[1, 2, 4]); // c + 1
    assert_eq!(
        beyond.abort_reason(),
        Some(AbortReason::Unresolvable),
        "beyond the threshold the abort path is preserved"
    );
}

#[test]
fn resilience_threshold_separates_degradation_from_abort() {
    // n = 6, c = 2: crashing 0, 1, 2 agents after the auctions resolve
    // must yield Completed, Degraded, Degraded; crashing 3 (> c) must
    // keep the abort path.
    let bids_rows = vec![
        vec![2, 3],
        vec![1, 3],
        vec![3, 1],
        vec![2, 2],
        vec![3, 3],
        vec![3, 2],
    ];
    let run_with_crashes = |crashed: &[usize]| {
        let mut r = rng(SEED ^ 0x5EE);
        let cfg = config(6, 2, &mut r);
        let bids = ExecutionTimes::from_rows(bids_rows.clone()).unwrap();
        let mut faults = FaultPlan::none(6);
        for &node in crashed {
            faults = faults.crash_at(NodeId(node), 4);
        }
        DmwRunner::new(cfg)
            .with_recovery()
            .run(&bids, &vec![Behavior::Suggested; 6], faults, &mut r)
            .expect("valid run")
    };

    let clean = run_with_crashes(&[]);
    assert!(clean.is_completed(), "no crashes: clean completion");

    // One crash (the winner of task 0): degraded, task 0 re-auctioned
    // at the second-lowest *surviving* bid.
    let one = run_with_crashes(&[1]);
    let RunResult::Degraded {
        outcome,
        excluded,
        reauctioned_tasks,
    } = &one.result
    else {
        panic!("one crash must degrade, got {:?}", one.result);
    };
    assert_eq!(excluded, &vec![1]);
    assert_eq!(reauctioned_tasks, &vec![0]);
    // Surviving bids on task 0: 2, 3, 2, 3, 3 → winner agent 0 at
    // first price 2, charged the surviving second price 2.
    assert_eq!(outcome.schedule.agent_of(TaskId(0)), Some(AgentId(0)));
    assert_eq!(outcome.first_prices[0], 2);
    assert_eq!(outcome.second_prices[0], 2);
    assert_eq!(outcome.payments[0], 2);
    assert_eq!(outcome.payments[1], 0, "excluded agents earn nothing");
    let truth = ExecutionTimes::from_rows(bids_rows.clone()).unwrap();
    assert_eq!(utilities(&one, &truth)[1], 0);

    // Two crashes (== c): still degraded, both excluded.
    let two = run_with_crashes(&[1, 2]);
    let RunResult::Degraded { excluded, .. } = &two.result else {
        panic!("c crashes must still degrade, got {:?}", two.result);
    };
    assert_eq!(excluded, &vec![1, 2]);
    assert_eq!(two.metrics.counter_total("degraded_runs"), 1);

    // Three crashes (> c): the abort path is preserved.
    let three = run_with_crashes(&[1, 2, 3]);
    assert_eq!(three.abort_reason(), Some(AbortReason::Unresolvable));
}

#[test]
fn deviations_are_still_detected_under_recovery_and_chaos() {
    // A tampering agent under packet loss: the reliable sublayer
    // repairs the drops, and the tamper detection still fires — chaos
    // is no cover for deviation.
    let mut r = rng(SEED ^ 0xDE7);
    let cfg = config(6, 1, &mut r);
    let bids = random_bids(&cfg, 2, &mut r);
    let mut behaviors = vec![Behavior::Suggested; 6];
    behaviors[3] = Behavior::TamperedCommitments;
    let run = DmwRunner::new(cfg)
        .with_recovery()
        .run(&bids, &behaviors, FaultPlan::none(6).drop_every(3), &mut r)
        .expect("valid run");
    assert!(
        matches!(
            run.abort_reason(),
            Some(AbortReason::InvalidShares { sender: 3 })
        ),
        "tampering under chaos must still abort, got {:?}",
        run.result
    );
}
