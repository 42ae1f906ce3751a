//! DMW ≡ centralized MinWork (the EQUIV experiment): the distributed
//! protocol must reproduce the centralized mechanism's schedule and
//! payments exactly, on every instance.

use dmw::runner::{utilities, DmwRunner};
use dmw_mechanism::{AgentId, ExecutionTimes};
use integration_tests::{centralized_reference, config, random_bids, rng};
use proptest::prelude::*;

#[test]
fn equivalence_on_random_instances() {
    let mut r = rng(1000);
    for trial in 0..25 {
        let n = 4 + trial % 5;
        let m = 1 + trial % 4;
        let c = trial % 2;
        let cfg = config(n, c, &mut r);
        let bids = random_bids(&cfg, m, &mut r);
        let run = DmwRunner::new(cfg).run_honest(&bids, &mut r).unwrap();
        let distributed = run
            .completed()
            .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
        let centralized = centralized_reference(&bids);
        assert_eq!(distributed.schedule, centralized.schedule, "trial {trial}");
        assert_eq!(distributed.payments, centralized.payments, "trial {trial}");
    }
}

#[test]
fn equivalence_with_all_ties() {
    // Every agent bids the same value on every task: the lowest index
    // wins everything in both mechanisms, paid the common bid.
    let mut r = rng(1001);
    let cfg = config(5, 1, &mut r);
    let bids = ExecutionTimes::from_rows(vec![vec![2, 2]; 5]).unwrap();
    let run = DmwRunner::new(cfg).run_honest(&bids, &mut r).unwrap();
    let distributed = run.completed().unwrap();
    let centralized = centralized_reference(&bids);
    assert_eq!(distributed.schedule, centralized.schedule);
    for task in 0..2 {
        assert_eq!(distributed.schedule.agent_of(task.into()), Some(AgentId(0)));
    }
    assert_eq!(distributed.payments, vec![4, 0, 0, 0, 0]);
}

#[test]
fn utilities_match_centralized_utilities() {
    let mut r = rng(1002);
    let cfg = config(6, 1, &mut r);
    let truth = random_bids(&cfg, 3, &mut r);
    let run = DmwRunner::new(cfg).run_honest(&truth, &mut r).unwrap();
    let distributed_utilities = utilities(&run, &truth);
    let centralized = centralized_reference(&truth);
    for (i, &du) in distributed_utilities.iter().enumerate() {
        assert_eq!(
            du,
            centralized.utility(AgentId(i), &truth).unwrap(),
            "agent {i}"
        );
    }
}

#[test]
fn single_task_smallest_instance() {
    let mut r = rng(1003);
    let cfg = config(3, 0, &mut r);
    let bids = ExecutionTimes::from_rows(vec![vec![2], vec![1], vec![2]]).unwrap();
    let run = DmwRunner::new(cfg).run_honest(&bids, &mut r).unwrap();
    let outcome = run.completed().unwrap();
    assert_eq!(outcome.schedule.agent_of(0.into()), Some(AgentId(1)));
    assert_eq!(outcome.first_prices, vec![1]);
    assert_eq!(outcome.second_prices, vec![2]);
    assert_eq!(outcome.payments, vec![0, 2, 0]);
}

#[test]
fn smallest_network_two_agents() {
    // n = 2, c = 0: a single bid level W = {1}. Agent 0 wins the tie and
    // is paid agent 1's bid.
    let mut r = rng(1004);
    let cfg = config(2, 0, &mut r);
    assert_eq!(cfg.encoding().w_max(), 1);
    let bids = ExecutionTimes::from_rows(vec![vec![1], vec![1]]).unwrap();
    let run = DmwRunner::new(cfg).run_honest(&bids, &mut r).unwrap();
    let outcome = run.completed().unwrap();
    assert_eq!(outcome.schedule.agent_of(0.into()), Some(AgentId(0)));
    assert_eq!(outcome.first_prices, vec![1]);
    assert_eq!(outcome.second_prices, vec![1]);
    assert_eq!(outcome.payments, vec![1, 0]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn equivalence_property(
        seed in 0u64..50_000,
        n in 3usize..8,
        c in 0usize..3,
        m in 1usize..4,
    ) {
        prop_assume!(n >= c + 3);
        let mut r = rng(seed);
        let cfg = config(n, c, &mut r);
        let bids = random_bids(&cfg, m, &mut r);
        let run = DmwRunner::new(cfg).run_honest(&bids, &mut r).unwrap();
        let distributed = run.completed().unwrap();
        let centralized = centralized_reference(&bids);
        prop_assert_eq!(&distributed.schedule, &centralized.schedule);
        prop_assert_eq!(&distributed.payments, &centralized.payments);
        // Second price >= first price on every task (Vickrey invariant).
        for (f, s) in distributed.first_prices.iter().zip(&distributed.second_prices) {
            prop_assert!(s >= f);
        }
    }
}
