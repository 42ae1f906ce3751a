//! Message-trace conformance with the paper's Fig. 2 (the F2 experiment):
//! phases appear in the figure's order, share bundles travel over private
//! point-to-point channels (solid arrows), everything else is published
//! (dashed arrows), and the per-phase message counts match the closed
//! forms behind Theorem 11.

use dmw::runner::DmwRunner;
use dmw::trace::{kind_histogram, render_sequence_chart, PHASE_ORDER};
use integration_tests::{config, random_bids, rng};

fn honest_run(n: usize, c: usize, m: usize, seed: u64) -> dmw::DmwRun {
    let mut r = rng(seed);
    let cfg = config(n, c, &mut r);
    let bids = random_bids(&cfg, m, &mut r);
    DmwRunner::new(cfg).run_honest(&bids, &mut r).unwrap()
}

#[test]
fn phases_appear_in_figure_order() {
    let run = honest_run(5, 1, 2, 3000);
    assert!(run.is_completed());
    let mut first_round_of: Vec<(usize, u64)> = Vec::new();
    for (pos, kind) in PHASE_ORDER.iter().enumerate() {
        let round = run
            .trace
            .iter()
            .filter(|e| e.kind == *kind)
            .map(|e| e.round)
            .min()
            .unwrap_or_else(|| panic!("phase {kind} missing from trace"));
        first_round_of.push((pos, round));
    }
    // Later phases never start before earlier phases.
    for w in first_round_of.windows(2) {
        assert!(w[0].1 <= w[1].1, "phase order violated: {first_round_of:?}");
    }
}

#[test]
fn solid_and_dashed_arrows_match_the_figure() {
    let run = honest_run(5, 1, 1, 3001);
    for e in &run.trace {
        if e.kind == "shares" {
            assert!(
                !e.is_broadcast(),
                "shares are private point-to-point messages"
            );
        } else {
            assert!(e.is_broadcast(), "{} must be published", e.kind);
        }
    }
}

#[test]
fn per_phase_counts_match_the_closed_forms() {
    let n = 6usize;
    let m = 3usize;
    let c = 1usize;
    let run = honest_run(n, c, m, 3002);
    let outcome = run.completed().unwrap();
    let hist: std::collections::BTreeMap<&str, usize> =
        kind_histogram(&run.trace).into_iter().collect();
    // Bidding: every agent sends a bundle to each of the n-1 peers, per
    // task, and one commitment broadcast per task.
    assert_eq!(hist["shares"], m * n * (n - 1));
    assert_eq!(hist["commitments"], m * n);
    // Allocation: one lambda broadcast per agent per task, one excluded
    // broadcast per agent per task.
    assert_eq!(hist["lambda-psi"], m * n);
    assert_eq!(hist["excluded-lambda-psi"], m * n);
    // Disclosure: min(winner_points(y*) + c, n) disclosers per task.
    let expected_disclosures: usize = outcome
        .first_prices
        .iter()
        .map(|&y| (y as usize + c + 1 + c).min(n))
        .sum();
    assert_eq!(hist["f-disclosure"], expected_disclosures);
    // Payments: one claim broadcast per agent, once.
    assert_eq!(hist["payment-claim"], n);
}

#[test]
fn network_point_to_point_totals_are_exact() {
    // Broadcast = n - 1 unicasts (Theorem 11's accounting), so the total
    // traffic follows exactly from the histogram.
    let n = 5usize;
    let m = 2usize;
    let run = honest_run(n, 1, m, 3003);
    let hist: std::collections::BTreeMap<&str, usize> =
        kind_histogram(&run.trace).into_iter().collect();
    let broadcast_events: usize = hist
        .iter()
        .filter(|(k, _)| **k != "shares")
        .map(|(_, v)| *v)
        .sum();
    let expected = hist["shares"] + broadcast_events * (n - 1);
    assert_eq!(run.network.point_to_point, expected as u64);
    assert_eq!(run.network.broadcasts, broadcast_events as u64);
    assert_eq!(run.network.dropped, 0);
    assert_eq!(run.network.in_flight(), 0);
}

#[test]
fn sequence_chart_renders_the_whole_protocol() {
    let run = honest_run(4, 0, 1, 3004);
    let chart = render_sequence_chart(&run.trace);
    for kind in PHASE_ORDER {
        assert!(chart.contains(kind), "chart must show {kind}");
    }
    assert!(chart.contains("-->"), "solid arrows present");
    assert!(chart.contains("==>*"), "dashed arrows present");
    assert!(chart.contains("── round 0 ──"));
}
