//! The single-task procurement Vickrey auction.
//!
//! "The MinWork mechanism can be viewed as running a set of parallel and
//! independent Vickrey auctions, one for each task" (Section 2.2). In the
//! procurement (reverse) form used here, the *lowest* bidder wins and is
//! paid the *second-lowest* bid, which is what makes truth-telling dominant.

use crate::error::MechanismError;
use crate::problem::AgentId;

/// The resolved result of one Vickrey auction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VickreyResult {
    /// The winning agent (lowest bid).
    pub winner: AgentId,
    /// The winning (first-price) bid `y*`.
    pub first_price: u64,
    /// The second-lowest bid `y**` — the payment to the winner.
    pub second_price: u64,
    /// Whether more than one agent bid the first price (the allocation among
    /// them is then decided by the caller's tie-break rule).
    pub tied: bool,
}

/// Runs a procurement Vickrey auction over `bids` (indexed by agent),
/// breaking first-price ties in favour of `tie_winner` if supplied (and a
/// tie exists), otherwise the lowest agent index — DMW's "agent with the
/// smallest pseudonym wins" rule (step III.3).
///
/// # Errors
///
/// Returns [`MechanismError::TooFewAgents`] when fewer than two bids are
/// supplied: the second price would be undefined.
///
/// # Example
/// ```
/// use dmw_mechanism::vickrey::auction;
///
/// let result = auction(&[5, 2, 9, 2], None)?;
/// assert_eq!(result.winner.0, 1); // lowest index among the tied bidders
/// assert_eq!(result.first_price, 2);
/// assert_eq!(result.second_price, 2); // the other tied bid is second
/// assert!(result.tied);
/// # Ok::<(), dmw_mechanism::MechanismError>(())
/// ```
pub fn auction(bids: &[u64], tie_winner: Option<AgentId>) -> Result<VickreyResult, MechanismError> {
    if bids.len() < 2 {
        return Err(MechanismError::TooFewAgents { agents: bids.len() });
    }
    let first_price = *bids.iter().min().expect("non-empty");
    let tied_agents: Vec<usize> = bids
        .iter()
        .enumerate()
        .filter(|&(_, b)| *b == first_price)
        .map(|(i, _)| i)
        .collect();
    let tied = tied_agents.len() > 1;
    let winner = match tie_winner {
        Some(w) if tied_agents.contains(&w.0) => w,
        _ => AgentId(tied_agents[0]),
    };
    // Second price: minimum over everyone except the winner.
    let second_price = bids
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != winner.0)
        .map(|(_, &b)| b)
        .min()
        .expect("at least two bids");
    Ok(VickreyResult {
        winner,
        first_price,
        second_price,
        tied,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lowest_bid_wins_and_is_paid_second_lowest() {
        let r = auction(&[7, 3, 9], None).unwrap();
        assert_eq!(r.winner, AgentId(1));
        assert_eq!(r.first_price, 3);
        assert_eq!(r.second_price, 7);
        assert!(!r.tied);
    }

    #[test]
    fn tie_break_defaults_to_lowest_index() {
        let r = auction(&[4, 4, 9], None).unwrap();
        assert_eq!(r.winner, AgentId(0));
        assert_eq!(r.second_price, 4);
        assert!(r.tied);
    }

    #[test]
    fn tie_break_honours_requested_winner_when_tied() {
        let r = auction(&[4, 4, 9], Some(AgentId(1))).unwrap();
        assert_eq!(r.winner, AgentId(1));
        // A requested winner that did not bid the first price is ignored.
        let r = auction(&[4, 4, 9], Some(AgentId(2))).unwrap();
        assert_eq!(r.winner, AgentId(0));
    }

    #[test]
    fn two_agents_minimum() {
        assert!(auction(&[1], None).is_err());
        assert!(auction(&[], None).is_err());
        let r = auction(&[1, 2], None).unwrap();
        assert_eq!(r.second_price, 2);
    }

    #[test]
    fn all_equal_bids() {
        let r = auction(&[5, 5, 5, 5], None).unwrap();
        assert_eq!(r.winner, AgentId(0));
        assert_eq!(r.first_price, 5);
        assert_eq!(r.second_price, 5);
        assert!(r.tied);
    }

    proptest! {
        #[test]
        fn invariants(bids in proptest::collection::vec(0u64..1000, 2..16)) {
            let r = auction(&bids, None).unwrap();
            // Winner bids the minimum.
            prop_assert_eq!(bids[r.winner.0], r.first_price);
            prop_assert_eq!(r.first_price, *bids.iter().min().unwrap());
            // Payment is at least the winning bid (voluntary participation).
            prop_assert!(r.second_price >= r.first_price);
            // Payment is the min over the others.
            let others_min = bids.iter().enumerate()
                .filter(|&(i, _)| i != r.winner.0)
                .map(|(_, &b)| b).min().unwrap();
            prop_assert_eq!(r.second_price, others_min);
        }
    }
}
