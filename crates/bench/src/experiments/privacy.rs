//! THM-priv — Theorem 10: privacy of losing bids under collusion.
//!
//! The strongest share-pooling attack, swept over coalition sizes for
//! every bid value and several `(n, c)` deployments. Predicted exposure
//! threshold: `min(n − c − y, y + c) + 1`.

use super::{config, rng};
use crate::table::Report;
use dmw::collusion::{pool_and_attack, predicted_exposure_threshold, AttackOutcome};
use dmw_crypto::polynomials::{BidPolynomials, SecretBid};

/// Sweeps coalition sizes until the bid is exposed; returns the smallest
/// exposing size.
pub fn measured_threshold(cfg: &dmw::DmwConfig, bid: u64, seed: u64) -> Option<usize> {
    let mut r = rng(seed);
    let zq = cfg.group().zq();
    let polys = BidPolynomials::generate(cfg.group(), cfg.encoding(), &SecretBid::new(bid), &mut r)
        .expect("valid bid");
    for size in 1..=cfg.agents() {
        let pooled: Vec<(u64, _)> = (0..size)
            .map(|k| {
                let alpha = cfg.pseudonym(k);
                (alpha, polys.share_for(&zq, alpha))
            })
            .collect();
        if let AttackOutcome::Exposed { bid: got } = pool_and_attack(cfg, &pooled) {
            assert_eq!(got, bid, "attack recovered the wrong bid");
            return Some(size);
        }
    }
    None
}

/// Builds the privacy report.
pub fn run(seed: u64) -> Report {
    let mut report = Report::new("Theorem 10 — bid privacy under collusion (share-pooling attack)");
    report.note(
        "Exposure threshold = smallest coalition that recovers the bid by pooling its shares.",
    );
    report.note(
        "Prediction: min(n − c − y, y + c) + 1. Coalitions below the threshold learn nothing.",
    );

    let mut r = rng(seed);
    for &(n, c) in &[(8usize, 2usize), (10, 2), (12, 3)] {
        let cfg = config(n, c, &mut r);
        let rows: Vec<Vec<String>> = cfg
            .encoding()
            .bid_set()
            .iter()
            .map(|&bid| {
                let predicted = predicted_exposure_threshold(&cfg, bid).expect("bid in W");
                let measured =
                    measured_threshold(&cfg, bid, seed + bid).expect("exposed at full size");
                vec![
                    bid.to_string(),
                    predicted.to_string(),
                    measured.to_string(),
                    if measured == predicted {
                        "match".into()
                    } else {
                        "MISMATCH".into()
                    },
                    if predicted > c {
                        "yes".into()
                    } else {
                        "no (e/f-channel cap)".into()
                    },
                ]
            })
            .collect();
        report.table(
            format!("n = {n}, c = {c}"),
            &[
                "bid",
                "predicted threshold",
                "measured threshold",
                "check",
                "survives c colluders?",
            ],
            rows,
        );
    }
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn measurements_match_predictions() {
        let report = super::run(51);
        for (_, _, rows) in &report.tables {
            for row in rows {
                assert_eq!(row[3], "match", "threshold mismatch: {row:?}");
            }
        }
    }
}
