//! The payment infrastructure (Phase IV).
//!
//! The paper assumes "the existence of a payment infrastructure to which
//! all agents have access" and specifies only its decision rule: "the
//! payment infrastructure issues the payment to `A_i` if the participating
//! agents agree on `P_i`; otherwise, no payment is dispensed."
//!
//! This implementation settles each entry by **majority** over the
//! submitted claims: a single deviating claim therefore cannot block
//! honest agents' payments (which would violate strong voluntary
//! participation), while any entry without a strict majority is withheld.
//! With all agents honest, claims are identical and the rule degenerates
//! to the paper's unanimity.

use std::collections::BTreeMap;

/// The outcome of settling payment claims.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Settlement {
    /// Per-agent payments in bid units (withheld entries are 0).
    pub payments: Vec<u64>,
    /// `withheld[i]` — no strict majority existed for agent `i`'s payment.
    pub withheld: Vec<bool>,
}

impl Settlement {
    /// `true` iff every entry was dispensed.
    pub fn fully_dispensed(&self) -> bool {
        self.withheld.iter().all(|&w| !w)
    }
}

/// Settles the submitted claims. `claims[k]` is one agent's claimed
/// payment vector; claims of aborted/silent agents are simply absent.
///
/// Returns `None` when no claims were submitted at all (an aborted run).
///
/// # Panics
///
/// Panics if submitted claims disagree on the number of agents.
///
/// # Example
/// ```
/// use dmw::payment::settle;
///
/// // Three honest claims outvote one inflated claim for agent 1.
/// let claims = vec![vec![2, 5], vec![2, 5], vec![2, 5], vec![2, 50]];
/// let settlement = settle(&claims).expect("claims present");
/// assert_eq!(settlement.payments, vec![2, 5]);
/// assert!(settlement.fully_dispensed());
/// ```
pub fn settle(claims: &[Vec<u64>]) -> Option<Settlement> {
    let first = claims.first()?;
    let n = first.len();
    assert!(
        claims.iter().all(|c| c.len() == n),
        "claims must cover all agents"
    );
    let mut payments = Vec::with_capacity(n);
    let mut withheld = Vec::with_capacity(n);
    for i in 0..n {
        // BTreeMap, not HashMap: `max_by_key` keeps the *last* maximum,
        // so a count tie would otherwise resolve by hash-iteration
        // order. Ordered tallying makes the pre-filter pick the largest
        // tied value, deterministically — and the strict-majority
        // filter below withholds every count tie regardless, since two
        // values cannot both exceed half the claims.
        let mut votes: BTreeMap<u64, usize> = BTreeMap::new();
        for &value in claims.iter().filter_map(|c| c.get(i)) {
            *votes.entry(value).or_insert(0) += 1;
        }
        let majority = votes
            .into_iter()
            .max_by_key(|&(_, count)| count)
            .filter(|&(_, count)| count * 2 > claims.len());
        match majority {
            Some((value, _)) => {
                payments.push(value);
                withheld.push(false);
            }
            None => {
                payments.push(0);
                withheld.push(true);
            }
        }
    }
    Some(Settlement { payments, withheld })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unanimous_claims_settle_fully() {
        let claims = vec![vec![3, 0, 5]; 4];
        let s = settle(&claims).unwrap();
        assert_eq!(s.payments, vec![3, 0, 5]);
        assert!(s.fully_dispensed());
    }

    #[test]
    fn single_deviant_claim_is_outvoted() {
        let mut claims = vec![vec![3, 0, 5]; 4];
        claims[2] = vec![3, 0, 50]; // inflates agent 2's payment
        let s = settle(&claims).unwrap();
        assert_eq!(
            s.payments,
            vec![3, 0, 5],
            "majority carries the honest value"
        );
        assert!(s.fully_dispensed());
    }

    #[test]
    fn count_ties_settle_identically_for_any_claim_order() {
        // Regression for the old HashMap tally: a 2-2 count tie used to
        // hand `max_by_key` a hash-ordered candidate stream. Every
        // permutation of the same claim multiset must now settle
        // bit-identically (withheld, since no strict majority exists).
        let orders = [
            vec![vec![3], vec![7], vec![3], vec![7]],
            vec![vec![7], vec![3], vec![7], vec![3]],
            vec![vec![7], vec![7], vec![3], vec![3]],
            vec![vec![3], vec![3], vec![7], vec![7]],
        ];
        let settlements: Vec<Settlement> = orders.iter().map(|c| settle(c).unwrap()).collect();
        assert!(settlements.iter().all(|s| *s == settlements[0]));
        assert_eq!(settlements[0].withheld, vec![true]);
        assert_eq!(settlements[0].payments, vec![0]);
    }

    #[test]
    fn tie_withholds_the_entry() {
        let claims = vec![vec![3], vec![7]];
        let s = settle(&claims).unwrap();
        assert_eq!(s.payments, vec![0]);
        assert_eq!(s.withheld, vec![true]);
        assert!(!s.fully_dispensed());
    }

    #[test]
    fn no_claims_means_no_settlement() {
        assert_eq!(settle(&[]), None);
    }

    #[test]
    #[should_panic(expected = "cover all agents")]
    fn ragged_claims_panic() {
        let _ = settle(&[vec![1, 2], vec![1]]);
    }
}
