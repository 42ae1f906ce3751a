//! Parity suite for the discrete-event scheduler (`Engine::Event`)
//! against the poll-every-tick oracle (`Engine::Polling`): both engines
//! execute the same tick body, so every run artifact — [`RunResult`],
//! [`dmw_simnet::NetworkStats`], the trace, the metrics snapshot — must
//! be *bit-identical* except for the `events_processed` gauge that
//! counts executed ticks. The sweep crosses honest, chaos and recovery
//! (crash/degradation) runs on the synchronous transport, adds a jittered-delay run where `next_due` does real work,
//! and pins that the event engine actually skips idle ticks when a long
//! retransmission backoff dominates the run (`docs/scheduler.md`).

use dmw::reliable::RetryPolicy;
use dmw::runner::{DmwRun, DmwRunner, Engine};
use dmw::Behavior;
use dmw_obs::Key;
use dmw_simnet::{DelayProfile, DelayTransport, FaultPlan, NodeId};
use integration_tests::{config, random_bids, rng};

const SEED: u64 = 20260807;

/// The fault schedules the parity sweep crosses: a clean run, the chaos
/// matrix (periodic drops, seeded probabilistic loss, a transient
/// partition), and an unrepairable crash that exercises the
/// degradation/re-auction path end to end.
fn plans(n: usize) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("honest", FaultPlan::none(n)),
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
        (
            "crash",
            FaultPlan::none(n).drop_every(3).crash_at(NodeId(2), 4),
        ),
    ]
}

/// Asserts two runs are bit-identical in every engine-independent
/// artifact. `events_processed` is the *only* series allowed to differ:
/// it counts executed scheduler ticks, which is exactly what the event
/// engine optimizes.
fn assert_parity(case: &str, event: &DmwRun, polling: &DmwRun) {
    assert_eq!(event.result, polling.result, "{case}: results differ");
    assert_eq!(
        event.network, polling.network,
        "{case}: network stats differ"
    );
    assert_eq!(event.trace, polling.trace, "{case}: traces differ");
    let event_metrics = event.metrics.clone().without_metric("events_processed");
    let polling_metrics = polling.metrics.clone().without_metric("events_processed");
    assert_eq!(event_metrics, polling_metrics, "{case}: metrics differ");
    assert_eq!(
        event_metrics.to_json(0),
        polling_metrics.to_json(0),
        "{case}: serialized metrics differ"
    );
}

#[test]
fn lockstep_runs_are_bit_identical_between_engines() {
    for (case, faults) in plans(6) {
        let mut r = rng(SEED);
        let cfg = config(6, 1, &mut r);
        let bids = random_bids(&cfg, 3, &mut r);
        let behaviors = vec![Behavior::Suggested; 6];
        let runner = DmwRunner::new(cfg).with_recovery();

        let event = runner
            .clone()
            .with_engine(Engine::Event)
            .run(&bids, &behaviors, faults.clone(), &mut rng(SEED + 1))
            .expect("valid event run");
        let polling = runner
            .with_engine(Engine::Polling)
            .run(&bids, &behaviors, faults, &mut rng(SEED + 1))
            .expect("valid polling run");
        assert_parity(&format!("{case}/lockstep"), &event, &polling);
    }
}

#[test]
fn jittered_delay_runs_are_bit_identical_between_engines() {
    // Non-synchronous delays are where the event engine's
    // `Transport::next_due` fast-forwarding earns its keep: held
    // messages fall due ticks apart, and the jump must land on exactly
    // the ticks the polling loop would have found non-idle.
    let mut r = rng(SEED ^ 0x717);
    let cfg = config(6, 1, &mut r);
    let bids = random_bids(&cfg, 3, &mut r);
    let behaviors = vec![Behavior::Suggested; 6];
    let runner = DmwRunner::new(cfg)
        .with_recovery()
        .with_patience(32)
        .with_round_budget(512);
    let profile = DelayProfile::jittered(2, 3, 0x5EED);

    let event = runner
        .clone()
        .with_engine(Engine::Event)
        .run_on(
            &bids,
            &behaviors,
            DelayTransport::with_faults(6, FaultPlan::none(6), profile),
            &mut rng(SEED + 3),
        )
        .expect("valid event run");
    let polling = runner
        .with_engine(Engine::Polling)
        .run_on(
            &bids,
            &behaviors,
            DelayTransport::with_faults(6, FaultPlan::none(6), profile),
            &mut rng(SEED + 3),
        )
        .expect("valid polling run");
    assert_parity("jitter/delay", &event, &polling);
}

#[test]
fn event_engine_skips_idle_ticks_under_long_backoff() {
    // A crash with a budget-6 retry policy: the survivors' links to the
    // dead node back off through base·2^6 = 256 ticks of almost pure
    // waiting (patience and round budget auto-scale to cover the repair
    // horizon), so the event engine must process strictly fewer
    // scheduler activations than ticks elapsed — that asymmetry *is*
    // the tentpole. The polling oracle, by construction, processes
    // exactly one activation per tick.
    let mut r = rng(SEED ^ 0x1D1E);
    let cfg = config(6, 1, &mut r);
    let bids = random_bids(&cfg, 3, &mut r);
    let behaviors = vec![Behavior::Suggested; 6];
    let policy = RetryPolicy {
        base_timeout: 4,
        budget: 6,
    };
    let runner = DmwRunner::new(cfg).with_recovery_policy(policy);
    let faults = FaultPlan::none(6).crash_at(NodeId(2), 4);

    let event = runner
        .clone()
        .with_engine(Engine::Event)
        .run(&bids, &behaviors, faults.clone(), &mut rng(SEED + 4))
        .expect("valid event run");
    let polling = runner
        .with_engine(Engine::Polling)
        .run(&bids, &behaviors, faults, &mut rng(SEED + 4))
        .expect("valid polling run");
    assert_parity("backoff/lockstep", &event, &polling);

    let ticks = event.metrics.gauge(&Key::named("run_ticks"));
    let event_activations = event.metrics.gauge(&Key::named("events_processed"));
    let polling_activations = polling.metrics.gauge(&Key::named("events_processed"));
    assert_eq!(
        polling_activations, ticks,
        "the polling oracle activates once per tick"
    );
    assert!(
        event_activations < ticks,
        "event engine must skip idle ticks: {event_activations} activations \
         over {ticks} ticks"
    );
    assert!(
        event_activations * 2 < ticks,
        "a budget-6 backoff run is mostly dead air; expected well under \
         half the ticks to activate, got {event_activations}/{ticks}"
    );
}
