//! Faithfulness (Theorems 4–5) and strong voluntary participation
//! (Theorems 6–9) across the full deviation catalogue, multiple deviators
//! and multiple instances — the THM-faith and THM-svp experiments as
//! hard assertions.

use dmw::audit::{faithfulness_table, voluntary_participation_table};
use dmw::error::AbortReason;
use dmw::runner::DmwRunner;
use dmw::Behavior;
use dmw_simnet::FaultPlan;
use integration_tests::{config, random_bids, rng};

#[test]
fn faithfulness_holds_for_every_deviator_position() {
    let mut r = rng(2000);
    let n = 5;
    let cfg = config(n, 1, &mut r);
    let truth = random_bids(&cfg, 2, &mut r);
    for deviator in 0..n {
        let rows = faithfulness_table(&cfg, &truth, deviator, &mut r).unwrap();
        for row in rows {
            assert!(
                row.faithful(),
                "deviator {deviator}, {}: {} > {}",
                row.behavior,
                row.deviating_utility,
                row.suggested_utility
            );
        }
    }
}

#[test]
fn faithfulness_holds_across_instances() {
    let mut r = rng(2001);
    for seed in 0..5u64 {
        let n = 4 + (seed as usize % 3);
        let c = seed as usize % 2;
        let cfg = config(n, c, &mut r);
        let truth = random_bids(&cfg, 1 + seed as usize % 3, &mut r);
        let rows = faithfulness_table(&cfg, &truth, 0, &mut r).unwrap();
        assert!(
            rows.iter().all(dmw::audit::FaithfulnessRow::faithful),
            "seed {seed}"
        );
    }
}

#[test]
fn voluntary_participation_across_instances() {
    let mut r = rng(2002);
    for seed in 0..5u64 {
        let n = 5 + (seed as usize % 2);
        let cfg = config(n, 1, &mut r);
        let truth = random_bids(&cfg, 2, &mut r);
        let rows = voluntary_participation_table(&cfg, &truth, n - 1, &mut r).unwrap();
        for row in rows {
            assert!(
                row.min_compliant_utility >= 0,
                "seed {seed}, {}: compliant agent lost",
                row.behavior
            );
        }
    }
}

#[test]
fn each_tampering_deviation_is_detected_with_the_right_reason() {
    let mut r = rng(2003);
    let n = 6;
    let cfg = config(n, 2, &mut r);
    let truth = random_bids(&cfg, 1, &mut r);
    let runner = DmwRunner::new(cfg);
    type ReasonCheck = fn(AbortReason) -> bool;
    let cases: Vec<(Behavior, ReasonCheck)> = vec![
        (Behavior::CorruptShareTo { victim: 2 }, |r| {
            matches!(r, AbortReason::InvalidShares { sender: 1 })
        }),
        (Behavior::TamperedCommitments, |r| {
            matches!(r, AbortReason::InvalidShares { sender: 1 })
        }),
        (Behavior::SelectiveShares { threshold: 3 }, |r| {
            matches!(r, AbortReason::InconsistentMask { .. })
        }),
        // Theorem 4: "If A_i fails to send the shares to all the others,
        // an agent not receiving its share will abort" — here through the
        // participation-mask disagreement.
        (Behavior::WithholdShares, |r| {
            matches!(r, AbortReason::InconsistentMask { publisher: 1 })
        }),
        // A corrupted lambda is caught either by a designated verifier
        // (eq (11)) or, by agents outside the rotation, as a failed
        // resolution — both race in the same round.
        (Behavior::WrongLambda, |r| {
            matches!(
                r,
                AbortReason::InvalidLambdaPsi { publisher: 1 } | AbortReason::Unresolvable
            )
        }),
        (Behavior::WrongDisclosure, |r| {
            matches!(
                r,
                AbortReason::InvalidDisclosure { discloser: 1 } | AbortReason::NoWinner
            )
        }),
        (Behavior::WrongExcluded, |r| {
            matches!(
                r,
                AbortReason::InvalidExcluded { publisher: 1 } | AbortReason::Unresolvable
            )
        }),
    ];
    for (behavior, matches_reason) in cases {
        let mut behaviors = vec![Behavior::Suggested; n];
        behaviors[1] = behavior;
        let run = runner
            .run(&truth, &behaviors, FaultPlan::none(n), &mut r)
            .unwrap();
        assert!(!run.is_completed(), "{behavior} must abort");
        let reason = run.abort_reason().unwrap();
        assert!(
            matches_reason(reason),
            "{behavior} detected as unexpected reason: {reason}"
        );
    }
}

#[test]
fn every_tampering_deviation_is_still_detected_under_delay() {
    // Decoupling detection from the lockstep schedule must not open a
    // timing loophole: on a jittered transport every deviation from the
    // catalogue still aborts the run.
    let mut r = rng(2013);
    let n = 6;
    let cfg = config(n, 2, &mut r);
    let truth = random_bids(&cfg, 1, &mut r);
    let runner = DmwRunner::new(cfg).with_round_budget(200).with_patience(10);
    let deviations = [
        Behavior::CorruptShareTo { victim: 2 },
        Behavior::TamperedCommitments,
        Behavior::SelectiveShares { threshold: 3 },
        Behavior::WithholdShares,
        Behavior::WrongLambda,
        Behavior::WrongDisclosure,
        Behavior::WrongExcluded,
        Behavior::InflatedPaymentClaim { delta: 3 },
    ];
    for profile in [
        dmw_simnet::DelayProfile::fixed(1),
        dmw_simnet::DelayProfile::jittered(0, 3, 77),
    ] {
        for behavior in deviations {
            let mut behaviors = vec![Behavior::Suggested; n];
            behaviors[1] = behavior;
            let transport: dmw_simnet::DelayTransport<dmw::messages::Body> =
                dmw_simnet::DelayTransport::with_faults(n, dmw_simnet::FaultPlan::none(n), profile);
            let run = runner
                .run_on(&truth, &behaviors, transport, &mut r)
                .unwrap();
            if matches!(behavior, Behavior::InflatedPaymentClaim { .. }) {
                // Outvoted at settlement rather than aborted, exactly as
                // on the lockstep transport.
                let outcome = run.completed().unwrap();
                assert!(!outcome.withheld[1], "honest majority outvotes the claim");
            } else {
                assert!(!run.is_completed(), "{behavior} must abort under delay");
            }
        }
    }
}

#[test]
fn silence_deviations_complete_when_tolerated() {
    let mut r = rng(2004);
    let n = 6;
    let cfg = config(n, 2, &mut r);
    let truth = random_bids(&cfg, 2, &mut r);
    let runner = DmwRunner::new(cfg);
    for behavior in [Behavior::Silent, Behavior::SilentAfterBidding] {
        let mut behaviors = vec![Behavior::Suggested; n];
        behaviors[4] = behavior;
        let run = runner
            .run(&truth, &behaviors, FaultPlan::none(n), &mut r)
            .unwrap();
        assert!(
            run.is_completed(),
            "{behavior} should be tolerated at c = 2"
        );
    }
}

#[test]
fn silence_deviations_abort_when_not_tolerated() {
    let mut r = rng(2005);
    let n = 5;
    let cfg = config(n, 0, &mut r);
    let truth = random_bids(&cfg, 1, &mut r);
    let runner = DmwRunner::new(cfg);
    for behavior in [Behavior::Silent, Behavior::SilentAfterBidding] {
        let mut behaviors = vec![Behavior::Suggested; n];
        behaviors[2] = behavior;
        let run = runner
            .run(&truth, &behaviors, FaultPlan::none(n), &mut r)
            .unwrap();
        assert!(!run.is_completed(), "{behavior} exceeds c = 0");
    }
}

#[test]
fn inflated_claim_is_outvoted_and_the_outcome_stands() {
    let mut r = rng(2006);
    let n = 5;
    let cfg = config(n, 1, &mut r);
    let truth = random_bids(&cfg, 2, &mut r);
    let runner = DmwRunner::new(cfg);
    let honest = runner.run_honest(&truth, &mut r).unwrap();
    let honest_outcome = honest.completed().unwrap();
    let mut behaviors = vec![Behavior::Suggested; n];
    behaviors[3] = Behavior::InflatedPaymentClaim { delta: 7 };
    let run = runner
        .run(&truth, &behaviors, FaultPlan::none(n), &mut r)
        .unwrap();
    let outcome = run.completed().unwrap();
    assert_eq!(
        outcome.payments, honest_outcome.payments,
        "majority carries honesty"
    );
    assert!(outcome.withheld.iter().all(|&w| !w));
}

#[test]
fn two_simultaneous_silent_deviators_within_budget() {
    let mut r = rng(2007);
    let n = 7;
    let cfg = config(n, 2, &mut r);
    let truth = random_bids(&cfg, 2, &mut r);
    let mut behaviors = vec![Behavior::Suggested; n];
    behaviors[5] = Behavior::Silent;
    behaviors[6] = Behavior::SilentAfterBidding;
    let run = DmwRunner::new(cfg)
        .run(&truth, &behaviors, FaultPlan::none(n), &mut r)
        .unwrap();
    assert!(
        run.is_completed(),
        "two silences within c = 2 are tolerated"
    );
}
