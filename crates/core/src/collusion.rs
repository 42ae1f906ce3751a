//! Coalition attacks on bid privacy — the empirical side of Theorem 10.
//!
//! Theorem 10 states that DMW "protects the anonymity of the losing agents
//! and the privacy of their bids when fewer than `c` agents collude", and
//! remarks that "the number of colluding agents necessary to successfully
//! expose bids is inversely proportional to the bid value". This module
//! implements the strongest share-pooling attack available to a coalition
//! and measures the exact exposure threshold:
//!
//! A coalition `C` pools the share bundles each member received from a
//! target agent. The target's bid is the degree of its `e`-polynomial
//! (equivalently its `f`-polynomial, shifted). Both have zero constant
//! terms, so the coalition runs the degree-resolution procedure of
//! Section 2.4 on its pooled points: with `|C| ≥ deg + 1` points the
//! degree — and hence the bid — is recovered; with fewer, every candidate
//! degree is consistent with the pooled shares and *nothing* is learned
//! (information-theoretic hiding of the threshold scheme).
//!
//! Both polynomials leak: `deg e = σ − c − y` (small for *high* bids) and
//! `deg f = y + c` (small for *low* bids), so the true exposure threshold
//! for bid `y` is `min(n − c − y, y + c) + 1` colluders. Along the
//! `e`-channel the paper's remark holds exactly — lower (better) bids need
//! strictly larger coalitions — while the `f`-channel caps the protection
//! of the very best bids at `y + c + 1` members. The privacy experiment
//! measures this full curve; see EXPERIMENTS.md for how it refines the
//! blanket claim of Theorem 10.

use crate::config::DmwConfig;
use dmw_crypto::polynomials::ShareBundle;
use dmw_modmath::lagrange;

/// The result of a share-pooling attack against one target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackOutcome {
    /// The coalition recovered the target's bid.
    Exposed {
        /// The recovered bid.
        bid: u64,
    },
    /// The pooled shares were insufficient; the bid remains hidden.
    Hidden,
}

/// Pools the coalition's share bundles received from one target agent and
/// attempts to recover the target's bid via degree resolution on the
/// `e`-shares (falling back to the `f`-shares, which expose the bid as
/// `deg f − c`).
///
/// `coalition_points[k] = (α of coalition member k, bundle received from
/// the target)`.
///
/// # Panics
///
/// Panics if two coalition members share a pseudonym (configuration
/// violation).
pub fn pool_and_attack(
    config: &DmwConfig,
    coalition_points: &[(u64, ShareBundle)],
) -> AttackOutcome {
    let zq = config.group().zq();
    let encoding = config.encoding();
    // Attack the e-polynomial: deg e = sigma - c - y.
    let e_shares: Vec<(u64, u64)> = coalition_points.iter().map(|&(a, b)| (a, b.e)).collect();
    if let Some(degree) = lagrange::resolve_zero_degree(&zq, &e_shares) {
        if let Some(bid) = encoding.bid_of_degree(degree) {
            return AttackOutcome::Exposed { bid };
        }
    }
    // Attack the f-polynomial: deg f = y + c.
    let f_shares: Vec<(u64, u64)> = coalition_points.iter().map(|&(a, b)| (a, b.f)).collect();
    if let Some(degree) = lagrange::resolve_zero_degree(&zq, &f_shares) {
        if degree > encoding.faults() {
            let bid = (degree - encoding.faults()) as u64;
            if encoding.contains_bid(bid) {
                return AttackOutcome::Exposed { bid };
            }
        }
    }
    AttackOutcome::Hidden
}

/// The predicted minimum coalition size that exposes a bid of value `y`
/// under the parameters of `config`:
/// `min(deg e, deg f) + 1 = min(n − c − y, y + c) + 1`.
pub fn predicted_exposure_threshold(config: &DmwConfig, bid: u64) -> Option<usize> {
    let e_deg = config.encoding().degree_of_bid(bid).ok()?;
    let f_deg = config.encoding().f_degree_of_bid(bid).ok()?;
    Some(e_deg.min(f_deg) + 1)
}

/// The exposure threshold along the `e`-channel alone,
/// `deg e + 1 = n − c − y + 1` — the curve behind the paper's "inversely
/// proportional to the bid value" remark.
pub fn e_channel_threshold(config: &DmwConfig, bid: u64) -> Option<usize> {
    config.encoding().degree_of_bid(bid).ok().map(|d| d + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmw_crypto::polynomials::{BidPolynomials, SecretBid};
    use rand::SeedableRng;

    fn setup(n: usize, c: usize) -> (DmwConfig, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(999);
        let config = DmwConfig::generate(n, c, &mut rng).unwrap();
        (config, rng)
    }

    fn bundles_for(
        config: &DmwConfig,
        polys: &BidPolynomials,
        members: &[usize],
    ) -> Vec<(u64, ShareBundle)> {
        let zq = config.group().zq();
        members
            .iter()
            .map(|&k| {
                let alpha = config.pseudonym(k);
                (alpha, polys.share_for(&zq, alpha))
            })
            .collect()
    }

    #[test]
    fn coalition_at_threshold_exposes_the_bid() {
        let (config, mut rng) = setup(8, 2);
        for bid in config.encoding().bid_set() {
            let polys = BidPolynomials::generate(
                config.group(),
                config.encoding(),
                &SecretBid::new(bid),
                &mut rng,
            )
            .unwrap();
            let threshold = predicted_exposure_threshold(&config, bid).unwrap();
            let members: Vec<usize> = (0..threshold).collect();
            let outcome = pool_and_attack(&config, &bundles_for(&config, &polys, &members));
            assert_eq!(outcome, AttackOutcome::Exposed { bid }, "bid {bid}");
        }
    }

    #[test]
    fn coalition_below_threshold_learns_nothing() {
        let (config, mut rng) = setup(8, 2);
        for bid in config.encoding().bid_set() {
            let polys = BidPolynomials::generate(
                config.group(),
                config.encoding(),
                &SecretBid::new(bid),
                &mut rng,
            )
            .unwrap();
            let threshold = predicted_exposure_threshold(&config, bid).unwrap();
            let members: Vec<usize> = (0..threshold - 1).collect();
            // With one fewer share, resolution cannot succeed at the true
            // degree on either channel (up to the ~|W|/q accident, which
            // the assertion tolerates by checking the true bid is not
            // exposed).
            let outcome = pool_and_attack(&config, &bundles_for(&config, &polys, &members));
            assert_ne!(outcome, AttackOutcome::Exposed { bid }, "bid {bid}");
        }
    }

    #[test]
    fn e_channel_thresholds_are_inversely_related_to_bid() {
        // The paper's remark under Theorem 10: "more colluding agents are
        // required to violate the privacy of lower (better) bids" — exact
        // along the e-channel.
        let (config, _) = setup(10, 2);
        let thresholds: Vec<usize> = config
            .encoding()
            .bid_set()
            .iter()
            .map(|&b| e_channel_threshold(&config, b).unwrap())
            .collect();
        // Ascending bids, descending thresholds.
        assert!(thresholds.windows(2).all(|w| w[0] > w[1]));
        // The best (lowest) bid needs n - c colluders on this channel.
        assert_eq!(thresholds[0], 10 - 2);
    }

    #[test]
    fn full_thresholds_exceed_the_collusion_bound_for_middle_bids() {
        // min(n - c - y, y + c) + 1 >= c + 2 whenever y <= n - 2c: for
        // those bids Theorem 10's "fewer than c colluders learn nothing"
        // holds with slack.
        let (config, _) = setup(9, 2);
        for bid in config.encoding().bid_set() {
            let t = predicted_exposure_threshold(&config, bid).unwrap();
            if bid <= (9 - 2 * 2) as u64 {
                assert!(t > 2, "bid {bid}: threshold {t} must exceed c");
            }
            // And no bid is ever exposed by a single agent's shares.
            assert!(t >= 2);
        }
    }
}
