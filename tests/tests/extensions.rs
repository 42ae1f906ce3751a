//! Integration tests for the extension surfaces: the wire codec over a
//! real protocol run, the obedient-leader strawman, the distributed
//! related-machines mechanism, and the repeated-execution leak.

use dmw::codec::DecodeError;
use dmw::messages::Body;
use dmw::obedient::{run_obedient, LeaderBehavior};
use dmw::related_distributed::run_related;
use dmw::repeated::repeated_execution;
use dmw::runner::DmwRunner;
use dmw_crypto::polynomials::ShareBundle;
use dmw_mechanism::{AgentId, MinWork, TieBreak};
use dmw_simnet::{Payload, Transport};
use integration_tests::{config, random_bids, rng};
use proptest::prelude::*;

#[test]
fn every_message_of_a_real_run_round_trips_through_the_codec() {
    // Re-drive one honest run but intercept at the message level: every
    // Body an agent emits must encode/decode to itself, and the byte
    // count the network records must equal the encoded sizes.
    use dmw::agent::DmwAgent;
    use dmw::Behavior;

    let mut r = rng(6000);
    let cfg = config(5, 1, &mut r);
    let encoding = *cfg.encoding();
    let bids = random_bids(&cfg, 2, &mut r);
    let mut agents: Vec<DmwAgent> = (0..5)
        .map(|i| {
            DmwAgent::new(
                cfg.clone(),
                i,
                bids.agent_row(AgentId(i)).to_vec(),
                Behavior::Suggested,
                99,
            )
        })
        .collect();
    let mut net: dmw_simnet::DelayTransport<Body> = dmw_simnet::DelayTransport::new(5);
    let mut total_encoded = 0u64;
    for round in 0..dmw::runner::PROTOCOL_ROUNDS {
        for (i, agent) in agents.iter_mut().enumerate() {
            let inbox = net.take_inbox(dmw_simnet::NodeId(i));
            for (recipient, body) in agent.poll_at(round, inbox) {
                let bytes = body.encode();
                let decoded = Body::decode(&bytes, &encoding).expect("wire round trip");
                assert_eq!(decoded, body);
                match recipient {
                    dmw_simnet::Recipient::Unicast(to) => {
                        total_encoded += bytes.len() as u64;
                        net.send(dmw_simnet::NodeId(i), to, body);
                    }
                    dmw_simnet::Recipient::Broadcast => {
                        total_encoded += 4 * bytes.len() as u64; // n - 1 copies
                        net.broadcast(dmw_simnet::NodeId(i), body);
                    }
                }
            }
        }
        net.step();
    }
    assert_eq!(
        net.stats().bytes,
        total_encoded,
        "stats count real encoded bytes"
    );
}

#[test]
fn obedient_strawman_matches_minwork_but_is_robbable() {
    let mut r = rng(6001);
    let cfg = config(6, 1, &mut r);
    let bids = random_bids(&cfg, 3, &mut r);
    let honest = run_obedient(&bids, LeaderBehavior::Honest).unwrap();
    let reference = MinWork::new(TieBreak::LowestIndex).run(&bids).unwrap();
    assert_eq!(honest.outcome, reference);
    // Traffic comparison on the same instance: the strawman is at least
    // an order of magnitude cheaper at this size.
    let dmw_run = DmwRunner::new(cfg).run_honest(&bids, &mut r).unwrap();
    assert!(dmw_run.network.point_to_point > 10 * honest.network.point_to_point);
    // But it offers no defence.
    let robbed = run_obedient(&bids, LeaderBehavior::SelfDealing).unwrap();
    assert!(!robbed.honest_outcome);
}

#[test]
fn distributed_related_machines_is_consistent_across_seeds() {
    let mut r = rng(6002);
    for seed in 0..5u64 {
        let cfg = config(7, 1, &mut r);
        let costs: Vec<f64> = (0..7)
            .map(|i| 1.0 + ((seed + i as u64 * 3) % 11) as f64)
            .collect();
        let outcome = run_related(&cfg, &costs, 200.0, &mut r).unwrap();
        // Winner bid the minimum level; payment at least its own cost's
        // level representative.
        let min_cost = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let winner_level = outcome.quantizer.level_of(costs[outcome.winner]);
        let min_level = outcome.quantizer.level_of(min_cost);
        assert_eq!(winner_level, min_level, "seed {seed}");
        assert!(outcome.price_per_unit >= outcome.quantizer.value_of(winner_level) - 1e-9);
    }
}

#[test]
fn repeated_executions_remain_truthful_end_to_end() {
    let mut r = rng(6003);
    let cfg = config(5, 1, &mut r);
    let truth = random_bids(&cfg, 3, &mut r);
    for agent in 0..5 {
        let rows = repeated_execution(&cfg, &truth, AgentId(agent), &mut r).unwrap();
        for row in rows {
            assert!(
                row.informed_utility <= row.truthful_utility,
                "agent {agent}, {}",
                row.strategy
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn codec_round_trips_arbitrary_vectors(
        task in 0usize..1000,
        f_values in proptest::collection::vec(proptest::num::u64::ANY, 0..32),
        payments in proptest::collection::vec(proptest::num::u64::ANY, 0..32),
        mask in proptest::collection::vec(proptest::bool::ANY, 1..32),
        e in proptest::num::u64::ANY,
    ) {
        let mut r = rng(6004);
        let cfg = config(4, 0, &mut r);
        let encoding = *cfg.encoding();
        let bodies = vec![
            Body::Disclose { task, f_values },
            Body::PaymentClaim { payments },
            Body::Lambda {
                task,
                pair: dmw_crypto::resolution::LambdaPsi { lambda: e, psi: e ^ 1 },
                included: mask,
            },
            Body::Shares { task, bundle: ShareBundle { e, f: e ^ 2, g: e ^ 3, h: e ^ 4 } },
        ];
        for body in bodies {
            let bytes = body.encode();
            prop_assert_eq!(bytes.len(), body.size_bytes());
            let decoded = Body::decode(&bytes, &encoding);
            prop_assert_eq!(decoded, Ok(body));
        }
    }

    #[test]
    fn codec_never_panics_on_garbage(bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..128)) {
        let mut r = rng(6005);
        let cfg = config(4, 0, &mut r);
        // Must return an error or a valid body, never panic.
        let _: Result<Body, DecodeError> = Body::decode(&bytes, cfg.encoding());
    }
}
