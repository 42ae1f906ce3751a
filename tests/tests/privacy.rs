//! Privacy under collusion across configurations (the THM-priv
//! experiment): measured exposure thresholds equal the predicted
//! `min(n − c − y, y + c) + 1` for every bid, every `(n, c)`.

use dmw::collusion::{
    e_channel_threshold, pool_and_attack, predicted_exposure_threshold, AttackOutcome,
};
use dmw_crypto::polynomials::BidPolynomials;
use integration_tests::{config, rng};

fn measured_threshold(cfg: &dmw::DmwConfig, bid: u64, seed: u64) -> Option<usize> {
    let mut r = rng(seed);
    let zq = cfg.group().zq();
    let polys = BidPolynomials::generate(cfg.group(), cfg.encoding(), bid, &mut r).unwrap();
    for size in 1..=cfg.agents() {
        let pooled: Vec<(u64, _)> = (0..size)
            .map(|k| {
                let alpha = cfg.pseudonym(k);
                (alpha, polys.share_for(&zq, alpha))
            })
            .collect();
        if let AttackOutcome::Exposed { bid: got } = pool_and_attack(cfg, &pooled) {
            assert_eq!(got, bid, "attack must recover the true bid");
            return Some(size);
        }
    }
    None
}

#[test]
fn measured_thresholds_match_predictions() {
    let mut r = rng(4000);
    for (n, c) in [(6usize, 1usize), (8, 2), (10, 3), (5, 0)] {
        let cfg = config(n, c, &mut r);
        for bid in cfg.encoding().bid_set() {
            let predicted = predicted_exposure_threshold(&cfg, bid).unwrap();
            let measured = measured_threshold(&cfg, bid, 4000 + bid).unwrap();
            assert_eq!(measured, predicted, "n={n} c={c} bid={bid}");
        }
    }
}

#[test]
fn no_single_agent_ever_exposes_a_bid() {
    let mut r = rng(4001);
    let cfg = config(9, 2, &mut r);
    for bid in cfg.encoding().bid_set() {
        assert!(
            measured_threshold(&cfg, bid, 4100 + bid).unwrap() >= 2,
            "bid {bid} exposed by a single share"
        );
    }
}

#[test]
fn e_channel_matches_the_inverse_proportionality_remark() {
    // Higher bids are recoverable from fewer e-shares; the winner's
    // (lowest) bid needs the most. This is the exact sense of the paper's
    // remark under Theorem 10.
    let mut r = rng(4002);
    let cfg = config(10, 2, &mut r);
    let thresholds: Vec<usize> = cfg
        .encoding()
        .bid_set()
        .iter()
        .map(|&b| e_channel_threshold(&cfg, b).unwrap())
        .collect();
    assert!(thresholds.windows(2).all(|w| w[0] > w[1]));
}

#[test]
fn losing_bids_stay_hidden_during_an_actual_protocol_run() {
    // End-to-end: after a complete honest run, pool what a small coalition
    // actually received and verify the low (well-protected) bids cannot be
    // recovered.
    use dmw::runner::DmwRunner;
    use integration_tests::random_bids;

    let mut r = rng(4003);
    let n = 8;
    let c = 2;
    let cfg = config(n, c, &mut r);
    let bids = random_bids(&cfg, 1, &mut r);
    let run = DmwRunner::new(cfg.clone())
        .run_honest(&bids, &mut r)
        .unwrap();
    assert!(run.is_completed());
    // A coalition of size c pools shares against a target bidding 2
    // (threshold is min(n-c-y, y+c)+1 = min(4, 4)+1 = 5 > c = 2).
    let target_bid = 2u64;
    let zq = cfg.group().zq();
    let polys = BidPolynomials::generate(cfg.group(), cfg.encoding(), target_bid, &mut r).unwrap();
    let pooled: Vec<(u64, _)> = (0..c)
        .map(|k| {
            let alpha = cfg.pseudonym(k);
            (alpha, polys.share_for(&zq, alpha))
        })
        .collect();
    assert_eq!(pool_and_attack(&cfg, &pooled), AttackOutcome::Hidden);
}

// ---------------------------------------------------------------------
// Runtime counterpart of dmw-lint rule L9: sweep an actual transcript.
// ---------------------------------------------------------------------

mod transcript_sweep {
    use dmw::messages::Body;
    use dmw::runner::DmwRunner;
    use dmw::{Behavior, DmwConfig};
    use dmw_obs::MetricsSnapshot;
    use dmw_simnet::{DelayTransport, Delivered, FaultPlan, NetworkStats, NodeId, Transport};
    use integration_tests::{random_bids, rng};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Wraps a transport and records every payload the protocol hands to
    /// the wire, before any delivery/fault processing — exactly the view
    /// an eavesdropper on all links would have.
    struct CapturingTransport<T> {
        inner: T,
        captured: Rc<RefCell<Vec<Body>>>,
    }

    impl<T: Transport<Body>> Transport<Body> for CapturingTransport<T> {
        fn nodes(&self) -> usize {
            self.inner.nodes()
        }
        fn send(&mut self, from: NodeId, to: NodeId, payload: Body) {
            self.captured.borrow_mut().push(payload.clone());
            self.inner.send(from, to, payload);
        }
        fn broadcast(&mut self, from: NodeId, payload: Body) {
            self.captured.borrow_mut().push(payload.clone());
            self.inner.broadcast(from, payload);
        }
        fn take_inbox(&mut self, node: NodeId) -> Vec<Delivered<Body>> {
            self.inner.take_inbox(node)
        }
        fn step(&mut self) -> u64 {
            self.inner.step()
        }
        fn round(&self) -> u64 {
            self.inner.round()
        }
        fn stats(&self) -> &NetworkStats {
            self.inner.stats()
        }
        fn metrics(&self) -> &MetricsSnapshot {
            self.inner.metrics()
        }
        fn faults(&self) -> &FaultPlan {
            self.inner.faults()
        }
        fn is_quiescent(&self) -> bool {
            self.inner.is_quiescent()
        }
    }

    /// Unwraps `Sealed`/`Batch` containers down to protocol leaves.
    fn leaves<'a>(body: &'a Body, out: &mut Vec<&'a Body>) {
        match body {
            Body::Batch(items) => items.iter().for_each(|b| leaves(b, out)),
            Body::Sealed { inner, .. } => leaves(inner, out),
            other => out.push(other),
        }
    }

    /// Every field-element word a leaf message carries. `PaymentClaim`
    /// is deliberately absent: payments are public by the paper's Phase
    /// IV design, and they *do* contain the second price in bid units.
    fn crypto_words(body: &Body) -> Vec<u64> {
        match body {
            Body::Shares { bundle, .. } => vec![bundle.e, bundle.f, bundle.g, bundle.h],
            Body::Commit { commitments, .. } => {
                [commitments.o(), commitments.q(), commitments.r()].concat()
            }
            Body::Lambda { pair, .. } | Body::Excluded { pair, .. } => {
                vec![pair.lambda, pair.psi]
            }
            Body::Disclose { f_values, .. } => f_values.clone(),
            Body::WinnerClaim { points, .. } => {
                points.iter().flat_map(|&(_, f, h)| [f, h]).collect()
            }
            _ => Vec::new(),
        }
    }

    fn is_crypto_bearing(body: &Body) -> bool {
        matches!(
            body,
            Body::Shares { .. }
                | Body::Commit { .. }
                | Body::Lambda { .. }
                | Body::Disclose { .. }
                | Body::WinnerClaim { .. }
                | Body::Excluded { .. }
        )
    }

    /// The raw-bid sweep itself: no crypto-bearing message may carry a
    /// word equal to a raw bid, and no crypto-bearing message's wire
    /// bytes may contain a bid's u64 encoding as a subsequence.
    fn assert_no_raw_bid_on_the_wire(captured: &[Body], bids: &[u64]) {
        let mut saw_crypto = false;
        for top in captured {
            let mut flat = Vec::new();
            leaves(top, &mut flat);
            for leaf in flat {
                if !is_crypto_bearing(leaf) {
                    continue;
                }
                saw_crypto = true;
                for word in crypto_words(leaf) {
                    assert!(
                        !bids.contains(&word),
                        "{} message carries raw bid {word} as a field word",
                        leaf.kind()
                    );
                }
                let bytes = leaf.encode();
                for &bid in bids {
                    let pat = bid.to_le_bytes();
                    assert!(
                        !bytes.windows(pat.len()).any(|w| w == pat),
                        "{} message contains the byte encoding of raw bid {bid}",
                        leaf.kind()
                    );
                }
            }
        }
        assert!(saw_crypto, "transcript captured no crypto-bearing messages");
    }

    fn run_and_capture(
        decorate: impl FnOnce(DmwRunner) -> DmwRunner,
        seed: u64,
    ) -> (Vec<Body>, Vec<u64>) {
        // A 30-bit subgroup keeps field words far from the tiny bid
        // range, so a coincidental word == bid collision is ~2^-30 per
        // word (and the seed is fixed, so a passing sweep stays passing).
        let mut r = rng(seed);
        let cfg = DmwConfig::generate_with_bits(8, 2, 48, 30, &mut r).unwrap();
        let runner = decorate(DmwRunner::new(cfg.clone()));
        let bids = random_bids(&cfg, 1, &mut r);
        let captured = Rc::new(RefCell::new(Vec::new()));
        let transport = CapturingTransport {
            inner: DelayTransport::new(cfg.agents()),
            captured: Rc::clone(&captured),
        };
        let n = cfg.agents();
        let run = runner
            .run_on(&bids, &vec![Behavior::Suggested; n], transport, &mut r)
            .unwrap();
        assert!(run.is_completed(), "honest run must complete");
        let mut distinct: Vec<u64> = (0..n)
            .flat_map(|i| bids.agent_row(dmw_mechanism::AgentId(i)).to_vec())
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        let bodies = Rc::try_unwrap(captured).unwrap().into_inner();
        (bodies, distinct)
    }

    #[test]
    fn honest_transcript_never_carries_a_raw_bid() {
        let (captured, bids) = run_and_capture(|r| r, 4200);
        assert_no_raw_bid_on_the_wire(&captured, &bids);
    }

    #[test]
    fn recovery_transcript_with_batching_never_carries_a_raw_bid() {
        // Recovery seals every payload and batching nests Batch inside
        // Sealed — the sweep must see through both container layers.
        let (captured, bids) = run_and_capture(|r| r.with_recovery().with_batching(true), 4201);
        let kinds: std::collections::BTreeSet<&str> = captured.iter().map(Body::kind).collect();
        assert!(kinds.contains("sealed"), "recovery run must seal payloads");
        assert_no_raw_bid_on_the_wire(&captured, &bids);
    }
}
