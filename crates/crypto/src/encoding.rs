//! The discrete bid encoding of DMW (Section 3, Notation).
//!
//! DMW encodes a bid `y` as the degree of a random polynomial `e`. Because
//! lower bids become *higher* degrees, resolving the degree of the summed
//! polynomial `E = Σ_k e_k` reveals the *minimum* bid — exactly what the
//! procurement Vickrey auction needs — while the individual bids stay
//! hidden.
//!
//! Following the paper's resilience rule ("this is achieved by adding the
//! maximum number of faulty agents `c` to the bids before encoding them"),
//! the encoded degree is
//!
//! ```text
//! τ = σ − (y + c),    σ = w_max + c + 1,    W = {1, …, w_max}
//! ```
//!
//! with `w_max = n − c − 1` ("the bid is … less than the number of
//! operational agents", i.e. `y < n − c`). Hence **`σ = n`** and:
//!
//! * `deg e = τ ∈ [1, n − c − 1]` — the summed polynomial `E` has degree at
//!   most `n − c − 1` and is resolvable from the `n − c` share points that
//!   survive even when `c` agents crash (the computability threshold of
//!   Open Problem 11);
//! * `deg f = σ − τ = y + c ∈ [c + 1, n − 1]` — the complementary witness
//!   polynomial always has degree at least `c + 1`, so a coalition of `c`
//!   agents cannot reconstruct it (Theorem 10);
//! * exposing a bid `y` by reconstructing `e` requires `τ + 1 = n − c − y + 1`
//!   colluders — *more* colluders for *lower* (better) bids, the
//!   "inversely proportional" property noted under Theorem 10. The privacy
//!   experiment measures exactly this curve.
//!
//! The paper's own Definition 11 resolves a degree-`d` polynomial from `d`
//! shares; standard interpolation requires `d + 1`, and this implementation
//! uses the consistent `d + 1` convention throughout (see DESIGN.md,
//! "Deliberate clarifications").

use crate::error::CryptoError;

/// Public parameters of the bid discretization for one auction.
///
/// # Example
/// ```
/// use dmw_crypto::BidEncoding;
///
/// let enc = BidEncoding::new(8, 2)?; // n = 8 agents, c = 2 faults
/// assert_eq!(enc.w_max(), 5);        // W = {1, …, 5}
/// assert_eq!(enc.sigma(), 8);        // σ = w_max + c + 1 = n
/// assert_eq!(enc.degree_of_bid(1)?, 5); // low bid, high degree
/// assert_eq!(enc.degree_of_bid(5)?, 1); // high bid, low degree
/// assert_eq!(enc.bid_of_degree(5), Some(1));
/// # Ok::<(), dmw_crypto::CryptoError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BidEncoding {
    agents: usize,
    faults: usize,
}

impl BidEncoding {
    /// Creates the encoding for `agents` participants tolerating `faults`
    /// faulty ones.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidEncoding`] unless `agents ≥ faults + 2`
    /// (at least one bid level must exist) and `agents ≥ 2`.
    pub fn new(agents: usize, faults: usize) -> Result<Self, CryptoError> {
        if agents < 2 || agents < faults + 2 {
            return Err(CryptoError::InvalidEncoding { agents, faults });
        }
        Ok(BidEncoding { agents, faults })
    }

    /// Number of agents `n`.
    pub fn agents(&self) -> usize {
        self.agents
    }

    /// The fault-tolerance threshold `c`: fewer than `c` colluding agents
    /// learn nothing about well-protected bids, and up to `c` crashed
    /// agents leave first-price resolution computable.
    pub fn faults(&self) -> usize {
        self.faults
    }

    /// The largest bid `w_max = n − c − 1`; the bid set is `1..=w_max`.
    pub fn w_max(&self) -> u64 {
        (self.agents - self.faults - 1) as u64
    }

    /// The polynomial size parameter `σ = w_max + c + 1 = n`: `g` and `h`
    /// have degree `σ`, commitment vectors have `σ` entries, and
    /// `deg e + deg f = σ`.
    pub fn sigma(&self) -> usize {
        self.agents
    }

    /// The discrete bid set `W` in ascending order.
    pub fn bid_set(&self) -> Vec<u64> {
        (1..=self.w_max()).collect()
    }

    /// Returns `true` iff `bid` is a member of `W`.
    pub fn contains_bid(&self, bid: u64) -> bool {
        bid >= 1 && bid <= self.w_max()
    }

    /// The degree `τ = σ − (y + c)` of the `e`-polynomial encoding bid `y`
    /// (the paper's resilience-shifted encoding).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BidOutOfRange`] for bids outside `W`.
    pub fn degree_of_bid(&self, bid: u64) -> Result<usize, CryptoError> {
        let index = usize::try_from(bid)
            .ok()
            .filter(|_| self.contains_bid(bid))
            .ok_or(CryptoError::BidOutOfRange {
                bid,
                w_max: self.w_max(),
            })?;
        Ok(self.sigma() - index - self.faults)
    }

    /// The degree `σ − τ = y + c` of the `f`-polynomial for bid `y`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BidOutOfRange`] for bids outside `W`.
    pub fn f_degree_of_bid(&self, bid: u64) -> Result<usize, CryptoError> {
        Ok(self.sigma() - self.degree_of_bid(bid)?)
    }

    /// The bid `y = σ − c − d` encoded by `e`-degree `d`, or `None` if `d`
    /// does not correspond to a bid in `W`.
    pub fn bid_of_degree(&self, degree: usize) -> Option<u64> {
        let shifted = degree + self.faults;
        if shifted >= self.sigma() {
            return None;
        }
        let bid = (self.sigma() - shifted) as u64;
        self.contains_bid(bid).then_some(bid)
    }

    /// The candidate degrees of the summed polynomial `E`, ascending —
    /// `{σ − (w + c) : w ∈ W}` — which is the exact set equation (12)
    /// searches. The smallest resolving candidate is the true degree
    /// `σ − (y_min + c)`.
    pub fn candidate_degrees(&self) -> Vec<usize> {
        let w_max = self.agents - self.faults - 1;
        (1..=w_max)
            .rev() // descending bids = ascending degrees
            .map(|w| self.sigma() - w - self.faults)
            .collect()
    }

    /// Share points needed to identify a winner whose bid is `first_price`:
    /// the winner's `f` has degree `y* + c`, so `y* + c + 1` points resolve
    /// it (step III.3).
    pub fn winner_points(&self, first_price: u64) -> usize {
        // A price too large for `usize` cannot be a real bid; demanding
        // `σ + c + 1` points (more than can exist) surfaces it as
        // `LengthMismatch` downstream instead of truncating.
        let fp = usize::try_from(first_price).unwrap_or(self.sigma());
        fp + self.faults + 1
    }

    /// Minimum subgroup order `q` for this encoding: `n` distinct non-zero
    /// pseudonyms are needed plus headroom for degree-`σ` evaluation, so we
    /// require `q ≥ σ + 2`.
    pub fn min_group_order(&self) -> u64 {
        (self.sigma() + 2) as u64
    }
}

#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "tests compare `w_max` against small `usize` agent counts"
)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_requires_headroom() {
        assert!(BidEncoding::new(1, 0).is_err());
        assert!(BidEncoding::new(2, 1).is_err(), "no bid level would remain");
        assert!(BidEncoding::new(2, 0).is_ok());
        assert!(BidEncoding::new(5, 3).is_ok());
        assert!(BidEncoding::new(5, 4).is_err());
    }

    #[test]
    fn parameters_match_the_paper_structure() {
        let enc = BidEncoding::new(8, 2).unwrap();
        // sigma = w_max + c + 1, the paper's definition.
        assert_eq!(enc.sigma(), (enc.w_max() as usize) + enc.faults() + 1);
        assert_eq!(enc.bid_set(), vec![1, 2, 3, 4, 5]);
        // Highest e-degree (lowest bid) is n - c - 1: resolvable from the
        // n - c points surviving c crashes.
        assert_eq!(
            enc.degree_of_bid(1).unwrap(),
            enc.agents() - enc.faults() - 1
        );
        // Lowest e-degree is 1 (highest bid).
        assert_eq!(enc.degree_of_bid(enc.w_max()).unwrap(), 1);
        // f-degrees are bid + c, never below c + 1.
        assert_eq!(enc.f_degree_of_bid(1).unwrap(), enc.faults() + 1);
        assert_eq!(enc.f_degree_of_bid(enc.w_max()).unwrap(), enc.agents() - 1);
    }

    #[test]
    fn zero_fault_encoding() {
        let enc = BidEncoding::new(4, 0).unwrap();
        assert_eq!(enc.w_max(), 3);
        assert_eq!(enc.sigma(), 4);
        assert_eq!(enc.candidate_degrees(), vec![1, 2, 3]);
        assert_eq!(enc.winner_points(2), 3);
    }

    #[test]
    fn bid_degree_round_trip() {
        let enc = BidEncoding::new(9, 3).unwrap();
        for w in enc.bid_set() {
            let d = enc.degree_of_bid(w).unwrap();
            assert_eq!(enc.bid_of_degree(d), Some(w));
            // e and f degrees always sum to sigma.
            assert_eq!(d + enc.f_degree_of_bid(w).unwrap(), enc.sigma());
        }
        assert_eq!(enc.bid_of_degree(0), None);
        assert_eq!(enc.bid_of_degree(enc.sigma()), None);
        assert!(enc.degree_of_bid(0).is_err());
        assert!(enc.degree_of_bid(enc.w_max() + 1).is_err());
    }

    #[test]
    fn candidate_degrees_are_ascending_and_crash_resolvable() {
        let enc = BidEncoding::new(7, 2).unwrap();
        let degrees = enc.candidate_degrees();
        assert_eq!(degrees, vec![1, 2, 3, 4]);
        assert!(degrees.windows(2).all(|w| w[0] < w[1]));
        // Every candidate resolves from the n - c surviving points.
        for d in degrees {
            assert!(d < enc.agents() - enc.faults());
        }
    }

    proptest! {
        #[test]
        fn invariants(n in 3usize..40, c in 0usize..10) {
            prop_assume!(n >= c + 2);
            let enc = BidEncoding::new(n, c).unwrap();
            prop_assert_eq!(enc.sigma(), n);
            prop_assert_eq!(enc.w_max() as usize, n - c - 1);
            for d in enc.candidate_degrees() {
                // Resolvable even when c agents crash.
                prop_assert!(d < n - c);
                prop_assert!(d >= 1);
            }
            for w in enc.bid_set() {
                // The f witness always stays beyond a c-coalition's reach.
                prop_assert!(enc.f_degree_of_bid(w).unwrap() > c);
            }
        }
    }
}
