//! Error types for the DMW cryptographic layer.

use std::error::Error;
use std::fmt;

/// Errors produced by the `dmw-crypto` crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// A bid was outside the discrete bid set `W = {1, …, w_max}`.
    BidOutOfRange {
        /// The rejected bid.
        bid: u64,
        /// The largest admissible bid `w_max = n − c − 1`.
        w_max: u64,
    },
    /// The `(n, c)` pair cannot form an encoding (`n ≥ c + 2` and `n ≥ 2`
    /// are required so that at least one bid level exists).
    InvalidEncoding {
        /// Number of agents.
        agents: usize,
        /// Fault threshold.
        faults: usize,
    },
    /// The subgroup order `q` is too small for the encoding (`σ` distinct
    /// non-zero pseudonyms plus exponent arithmetic need `q > n + 1`).
    GroupTooSmall {
        /// The subgroup order.
        q: u64,
        /// Minimum required order.
        required: u64,
    },
    /// A received share bundle failed verification against the sender's
    /// commitments — equations (7), (8) or (9).
    ShareVerificationFailed {
        /// Which equation failed first (7, 8 or 9).
        equation: u8,
    },
    /// A published `(Λ_i, Ψ_i)` pair is inconsistent with the commitments —
    /// equation (11).
    LambdaPsiInvalid {
        /// Index of the offending agent.
        agent: usize,
    },
    /// Degree resolution failed: no candidate degree satisfied the
    /// interpolation identity (equation (12)). Under honest execution this
    /// happens only with probability `≈ |W|/q`.
    ResolutionFailed,
    /// Disclosed `f`-shares failed the aggregate consistency check of
    /// equation (13) at some point.
    DisclosureInvalid {
        /// Index of the share point whose aggregate check failed.
        point: usize,
    },
    /// No agent's disclosed polynomial resolved to the winning degree
    /// (equation (14)) — inconsistent disclosures or a protocol violation.
    NoWinner,
    /// A vector had the wrong length for the encoding (commitment vectors
    /// must have exactly `σ` entries; share/pseudonym vectors `n`).
    LengthMismatch {
        /// What was being validated.
        what: &'static str,
        /// The observed length.
        got: usize,
        /// The required length.
        expected: usize,
    },
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::BidOutOfRange { bid, w_max } => {
                write!(f, "bid {bid} outside the discrete bid set 1..={w_max}")
            }
            CryptoError::InvalidEncoding { agents, faults } => {
                write!(
                    f,
                    "no bid encoding exists for n = {agents} agents with c = {faults} faults (need n >= c + 2)"
                )
            }
            CryptoError::GroupTooSmall { q, required } => {
                write!(f, "subgroup order {q} too small, need at least {required}")
            }
            CryptoError::ShareVerificationFailed { equation } => {
                write!(
                    f,
                    "share bundle inconsistent with commitments (equation ({equation}))"
                )
            }
            CryptoError::LambdaPsiInvalid { agent } => {
                write!(
                    f,
                    "published lambda/psi of agent {agent} fails equation (11)"
                )
            }
            CryptoError::ResolutionFailed => {
                write!(
                    f,
                    "polynomial degree resolution failed for every candidate bid"
                )
            }
            CryptoError::DisclosureInvalid { point } => {
                write!(
                    f,
                    "disclosed f-shares fail equation (13) at point index {point}"
                )
            }
            CryptoError::NoWinner => {
                write!(
                    f,
                    "no disclosed polynomial matches the winning degree (equation (14))"
                )
            }
            CryptoError::LengthMismatch {
                what,
                got,
                expected,
            } => {
                write!(f, "{what} has length {got}, expected {expected}")
            }
        }
    }
}

impl Error for CryptoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_well_behaved() {
        fn assert_traits<T: Send + Sync + std::error::Error>() {}
        assert_traits::<CryptoError>();
        assert!(CryptoError::ResolutionFailed
            .to_string()
            .contains("degree resolution"));
        assert!(!format!("{:?}", CryptoError::NoWinner).is_empty());
    }
}
