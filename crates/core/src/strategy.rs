//! Agent behaviors: the suggested strategy and a library of deviations.
//!
//! A distributed mechanism's agents can manipulate not just their *inputs*
//! (bids — "information-revelation actions") but the *algorithm itself*
//! ("computational actions", Definitions 12–16 of the paper). Faithfulness
//! (Theorem 5) says no deviation beats the suggested strategy; rather than
//! take the theorem's word for it, the [`crate::audit`] harness executes
//! every behavior in this catalogue and measures the deviator's utility.
//!
//! Bid misreporting is *not* listed here: reporting `y ≠ t` is an
//! information-revelation action audited by the centralized truthfulness
//! machinery (`dmw_mechanism::audit`), and the runner accepts an arbitrary
//! bid matrix. The behaviors below are protocol-level (computational and
//! message-passing) deviations, mapped to the cases analysed in the proofs
//! of Theorems 4 and 8.

use std::fmt;

/// How published values (`Λ/Ψ`, disclosures, excluded pairs) are
/// verified.
///
/// Each protocol step folds the `n` commitment vectors once, and every
/// check evaluates the fold with one multi-exponentiation. Full mutual
/// verification runs `n` checks per task and step, `Θ(mn² log p)` per
/// agent with a larger constant than the rotation scheme, which checks
/// each value with `c + 1` designated verifiers (≥ 1 honest under ≤ `c`
/// faults) and keeps detection guaranteed. The `table1-comp` experiment
/// measures both; see DESIGN.md, "Rotation verification".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VerificationPolicy {
    /// Each published value is verified by its `c + 1` cyclically-next
    /// live agents (the default; matches Table 1's cost).
    #[default]
    Rotation,
    /// Every agent verifies every published value (belt-and-braces;
    /// `n` checks per task and step instead of `c + 1`).
    Full,
}

/// How one agent executes the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Behavior {
    /// The suggested strategy `χ_suggest`: follow the protocol exactly.
    #[default]
    Suggested,
    /// Send a corrupted `e`-share to one victim while staying otherwise
    /// honest (Theorem 4: "if `A_i` incorrectly computes its shares … the
    /// protocol will be aborted when verifying them").
    CorruptShareTo {
        /// The victim agent index.
        victim: usize,
    },
    /// Publish commitments with one tampered entry (detected by every
    /// receiver via equations (7)–(9)).
    TamperedCommitments,
    /// Broadcast commitments but never send the private shares (Theorem 4:
    /// "an agent not receiving its share will abort").
    WithholdShares,
    /// Send shares to agents with index below `threshold` only — selective
    /// delivery, detected through disagreeing participation masks.
    SelectiveShares {
        /// Agents with index `< threshold` receive shares; the rest do not.
        threshold: usize,
    },
    /// Send nothing at all (strategic silence; indistinguishable from a
    /// crash and tolerated up to `c` occurrences).
    Silent,
    /// Execute Phase II honestly, then fall silent (tests the resolution
    /// threshold: the bid is committed and still participates in `E`).
    SilentAfterBidding,
    /// Publish a garbage `Λ` (fails equation (11)).
    WrongLambda,
    /// Disclose tampered `f`-values in Phase III.3 (fails equation (13)).
    WrongDisclosure,
    /// Publish a tampered winner-excluded pair (fails the post-exclusion
    /// equation (11) check).
    WrongExcluded,
    /// Submit a payment claim inflated in the deviator's own favour
    /// (Phase IV: the payment infrastructure detects the disagreement and
    /// dispenses nothing).
    InflatedPaymentClaim {
        /// Amount (in bid units) added to the deviator's own payment entry.
        delta: u64,
    },
}

impl Behavior {
    /// `true` for the suggested strategy.
    pub fn is_suggested(&self) -> bool {
        matches!(self, Behavior::Suggested)
    }

    /// A short label for experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            Behavior::Suggested => "suggested",
            Behavior::CorruptShareTo { .. } => "corrupt-share",
            Behavior::TamperedCommitments => "tampered-commitments",
            Behavior::WithholdShares => "withhold-shares",
            Behavior::SelectiveShares { .. } => "selective-shares",
            Behavior::Silent => "silent",
            Behavior::SilentAfterBidding => "silent-after-bidding",
            Behavior::WrongLambda => "wrong-lambda",
            Behavior::WrongDisclosure => "wrong-disclosure",
            Behavior::WrongExcluded => "wrong-excluded",
            Behavior::InflatedPaymentClaim { .. } => "inflated-payment-claim",
        }
    }

    /// The full catalogue of deviations audited by the faithfulness
    /// experiment, instantiated for an `n`-agent deployment viewed from
    /// deviator index `me`.
    ///
    /// # Example
    /// ```
    /// use dmw::Behavior;
    ///
    /// let all = Behavior::catalogue(6, 2);
    /// assert!(all.len() >= 10);
    /// assert!(all.iter().all(|b| !b.is_suggested()));
    /// ```
    pub fn catalogue(n: usize, me: usize) -> Vec<Behavior> {
        let victim = (me + 1) % n;
        vec![
            Behavior::CorruptShareTo { victim },
            Behavior::TamperedCommitments,
            Behavior::WithholdShares,
            Behavior::SelectiveShares { threshold: n / 2 },
            Behavior::Silent,
            Behavior::SilentAfterBidding,
            Behavior::WrongLambda,
            Behavior::WrongDisclosure,
            Behavior::WrongExcluded,
            Behavior::InflatedPaymentClaim { delta: 5 },
        ]
    }
}

impl fmt::Display for Behavior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_suggested() {
        assert!(Behavior::default().is_suggested());
        assert!(!Behavior::Silent.is_suggested());
    }

    #[test]
    fn labels_are_distinct() {
        let all = Behavior::catalogue(5, 0);
        let labels: std::collections::BTreeSet<_> = all.iter().map(|b| b.label()).collect();
        assert_eq!(labels.len(), all.len());
        assert_eq!(Behavior::Suggested.to_string(), "suggested");
    }

    #[test]
    fn catalogue_never_targets_self() {
        for me in 0..5 {
            for b in Behavior::catalogue(5, me) {
                if let Behavior::CorruptShareTo { victim } = b {
                    assert_ne!(victim, me);
                }
            }
        }
    }
}
