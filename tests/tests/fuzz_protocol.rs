//! Whole-protocol fuzzing: random behavior mixes, random faults, lossy
//! networks. The safety property under every perturbation is the same:
//! **the protocol never completes with a wrong outcome** — it either
//! computes exactly the centralized MinWork result of the committed bids
//! or aborts, and agents following the suggested strategy never end up
//! with negative utility.

use dmw::runner::{utilities, DmwRunner};
use dmw::Behavior;
use dmw_simnet::{DelayProfile, DelayTransport, FaultPlan, NodeId};
use integration_tests::{centralized_reference, config, random_bids, rng};
use proptest::prelude::*;

/// Runs one honest instance on the lockstep transport and again on a
/// [`DelayTransport`] built from `profile` (optionally with per-recipient
/// inbox shuffling), asserting the delayed run completes with exactly the
/// lockstep schedule and payments. Both runs replay the same RNG stream,
/// so the committed bids and polynomials are identical — only delivery
/// timing differs.
fn assert_delay_matches_lockstep(seed: u64, profile: DelayProfile, shuffle: Option<u64>) {
    let n = 6;
    let mut r = rng(seed);
    let cfg = config(n, 1, &mut r);
    let bids = random_bids(&cfg, 3, &mut r);
    let runner = DmwRunner::new(cfg);

    let mut lockstep_rng = rng(seed ^ 0xD1A7);
    let lockstep = runner
        .run_honest(&bids, &mut lockstep_rng)
        .expect("lockstep run");
    let reference = lockstep.completed().expect("honest lockstep completes");

    // Patience must outlast the worst-case delivery spread: a peer may
    // act up to `max_extra` ticks later than me, and its message may take
    // `max_extra` extra ticks on top of the one-tick baseline.
    let patience = 2 * profile.max_extra_delay() + 4;
    let mut transport: DelayTransport<dmw::messages::Body> =
        DelayTransport::with_faults(n, FaultPlan::none(n), profile);
    if let Some(s) = shuffle {
        transport = transport.with_inbox_shuffle(s);
    }
    let mut delayed_rng = rng(seed ^ 0xD1A7);
    let delayed = runner
        .clone()
        .with_round_budget(200)
        .with_patience(patience)
        .run_on(
            &bids,
            &vec![Behavior::Suggested; n],
            transport,
            &mut delayed_rng,
        )
        .expect("delayed run");
    let outcome = delayed
        .completed()
        .unwrap_or_else(|e| panic!("honest delayed run must complete (seed {seed}): {e:?}"));
    assert_eq!(outcome.schedule, reference.schedule, "seed {seed}");
    assert_eq!(outcome.payments, reference.payments, "seed {seed}");
    assert_eq!(outcome.first_prices, reference.first_prices, "seed {seed}");
    assert_eq!(
        outcome.second_prices, reference.second_prices,
        "seed {seed}"
    );
}

#[test]
fn honest_runs_match_lockstep_across_delay_profiles_and_seeds() {
    for seed in [101, 202, 303, 404] {
        // Synchronous timing but adversarially shuffled inbox order.
        assert_delay_matches_lockstep(seed, DelayProfile::synchronous(), Some(seed ^ 0x5));
        // Uniform extra latency on every link.
        assert_delay_matches_lockstep(seed, DelayProfile::fixed(2), None);
        // Seeded per-message jitter, with and without shuffling.
        assert_delay_matches_lockstep(seed, DelayProfile::jittered(1, 3, seed ^ 0x9), None);
        assert_delay_matches_lockstep(
            seed,
            DelayProfile::jittered(0, 2, seed ^ 0x11),
            Some(seed ^ 0x13),
        );
    }
}

/// The behavior catalogue as a proptest strategy (index into it).
fn any_behavior(n: usize) -> impl Strategy<Value = Behavior> {
    (0usize..=10).prop_map(move |k| {
        if k == 0 {
            Behavior::Suggested
        } else {
            Behavior::catalogue(n, 0)[k - 1]
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn random_behavior_mixes_are_safe(
        seed in 0u64..100_000,
        b1 in any_behavior(6),
        b2 in any_behavior(6),
    ) {
        let mut r = rng(seed);
        let n = 6;
        let cfg = config(n, 2, &mut r);
        let truth = random_bids(&cfg, 2, &mut r);
        // Two random behaviors at random positions, rest suggested.
        let mut behaviors = vec![Behavior::Suggested; n];
        behaviors[1] = b1;
        behaviors[4] = b2;
        let run = DmwRunner::new(cfg)
            .run(&truth, &behaviors, FaultPlan::none(n), &mut r)
            .unwrap();
        let us = utilities(&run, &truth);
        // Compliant agents never lose, completed or not.
        for i in [0usize, 2, 3, 5] {
            prop_assert!(us[i] >= 0, "compliant agent {i} lost {}", us[i]);
        }
        if run.is_completed() {
            let outcome = run.completed().unwrap();
            // Silent deviators are excluded from the auction; everyone
            // else's bids were committed. Check per-task Vickrey
            // consistency over the participating set.
            let silent = |b: Behavior| matches!(b, Behavior::Silent);
            let participants: Vec<usize> =
                (0..n).filter(|&i| !silent(behaviors[i])).collect();
            for j in 0..2 {
                let winner = outcome.schedule.agent_of(j.into()).unwrap();
                prop_assert!(participants.contains(&winner.0), "silent agent won");
                let min = participants
                    .iter()
                    .map(|&i| truth.time(i.into(), j.into()))
                    .min()
                    .unwrap();
                prop_assert_eq!(outcome.first_prices[j], min, "task {}", j);
            }
        }
    }

    #[test]
    fn shuffled_inboxes_and_random_jitter_preserve_honest_outcomes(
        seed in 0u64..100_000,
        shuffle in 0u64..100_000,
        jitter in 0u64..3,
    ) {
        assert_delay_matches_lockstep(
            seed,
            DelayProfile::jittered(0, jitter, seed ^ shuffle),
            Some(shuffle),
        );
    }

    #[test]
    fn lossy_networks_never_produce_wrong_outcomes(
        seed in 0u64..100_000,
        k in 2u64..40,
    ) {
        let mut r = rng(seed);
        let n = 5;
        let cfg = config(n, 1, &mut r);
        let bids = random_bids(&cfg, 2, &mut r);
        let plan = FaultPlan::none(n).drop_every(k);
        let run = DmwRunner::new(cfg)
            .run(&bids, &vec![Behavior::Suggested; n], plan, &mut r)
            .unwrap();
        if let Ok(outcome) = run.completed() {
            // Completion under loss is only acceptable if the answer is
            // exactly right.
            let reference = centralized_reference(&bids);
            prop_assert_eq!(&outcome.schedule, &reference.schedule);
            prop_assert_eq!(&outcome.payments, &reference.payments);
        }
    }

    #[test]
    fn random_crash_schedules_are_safe(
        seed in 0u64..100_000,
        victim in 0usize..7,
        round in 0u64..5,
    ) {
        let mut r = rng(seed);
        let n = 7;
        let cfg = config(n, 1, &mut r);
        let bids = random_bids(&cfg, 2, &mut r);
        let plan = FaultPlan::none(n).crash_at(NodeId(victim), round);
        let run = DmwRunner::new(cfg)
            .run(&bids, &vec![Behavior::Suggested; n], plan, &mut r)
            .unwrap();
        if let Ok(outcome) = run.completed() {
            // A single crash is within budget (c = 1). The completed
            // outcome must be Vickrey-consistent over the agents whose
            // bids entered the auction (everyone who finished bidding).
            for j in 0..2 {
                let winner = outcome.schedule.agent_of(j.into()).unwrap();
                let winner_bid = bids.time(winner, j.into());
                prop_assert_eq!(winner_bid, outcome.first_prices[j]);
                prop_assert!(outcome.second_prices[j] >= outcome.first_prices[j]);
            }
            // Compliant utilities non-negative.
            for u in utilities(&run, &bids) {
                prop_assert!(u >= 0);
            }
        }
    }
}
