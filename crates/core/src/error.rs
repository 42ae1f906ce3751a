//! Error and abort types for the DMW protocol.

use std::error::Error;
use std::fmt;

/// Why an agent aborted the protocol (Theorems 4 and 8 hinge on honest
/// agents detecting these conditions and terminating, zeroing everyone's
/// utility).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum AbortReason {
    /// A received share bundle failed equations (7)–(9) against the
    /// sender's commitments (Phase III.1).
    InvalidShares {
        /// The offending sender.
        sender: usize,
    },
    /// A published `(Λ, Ψ)` pair failed equation (11) (Phase III.2).
    InvalidLambdaPsi {
        /// The offending publisher.
        publisher: usize,
    },
    /// A publisher's claimed participant mask disagrees with this agent's
    /// view of who is alive — evidence of selective share delivery.
    InconsistentMask {
        /// The offending publisher.
        publisher: usize,
    },
    /// Disclosed `f`-shares failed equation (13).
    InvalidDisclosure {
        /// The disclosing agent.
        discloser: usize,
    },
    /// An excluded `(Λ', Ψ')` pair failed the post-exclusion equation (11).
    InvalidExcluded {
        /// The offending publisher.
        publisher: usize,
    },
    /// Degree resolution failed for every candidate bid (equation (12)) —
    /// either more than `c` participants are faulty or published values
    /// were corrupted without failing pointwise checks.
    Unresolvable,
    /// No disclosed polynomial matched the winning degree (equation (14)).
    NoWinner,
    /// Too many agents fell silent: fewer than the resolution threshold
    /// remain (the paper's Open Problem 11 boundary).
    TooManyFaults {
        /// Number of silent/faulty agents observed.
        observed: usize,
        /// The tolerated maximum `c`.
        tolerated: usize,
    },
    /// Payment claims submitted to the payment infrastructure disagree
    /// (Phase IV: "the payment infrastructure issues the payment … if the
    /// participating agents agree").
    PaymentDisagreement,
    /// Another agent broadcast an abort; this agent honoured it.
    PeerAborted {
        /// The first peer observed aborting.
        peer: usize,
    },
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::InvalidShares { sender } => {
                write!(f, "shares from agent {sender} fail commitment verification")
            }
            AbortReason::InvalidLambdaPsi { publisher } => {
                write!(f, "lambda/psi from agent {publisher} fails equation (11)")
            }
            AbortReason::InconsistentMask { publisher } => {
                write!(
                    f,
                    "agent {publisher} claims a different set of live participants"
                )
            }
            AbortReason::InvalidDisclosure { discloser } => {
                write!(
                    f,
                    "f-share disclosure from agent {discloser} fails equation (13)"
                )
            }
            AbortReason::InvalidExcluded { publisher } => {
                write!(
                    f,
                    "excluded lambda/psi from agent {publisher} fails verification"
                )
            }
            AbortReason::Unresolvable => write!(f, "degree resolution failed for every candidate"),
            AbortReason::NoWinner => write!(f, "no agent proves ownership of the winning bid"),
            AbortReason::TooManyFaults {
                observed,
                tolerated,
            } => {
                write!(
                    f,
                    "{observed} faulty agents exceed the tolerated {tolerated}"
                )
            }
            AbortReason::PaymentDisagreement => write!(f, "payment claims disagree"),
            AbortReason::PeerAborted { peer } => write!(f, "agent {peer} aborted the protocol"),
        }
    }
}

/// Errors surfaced by the DMW crate's public API.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DmwError {
    /// Invalid protocol configuration.
    Config {
        /// Human-readable cause.
        reason: String,
    },
    /// A bid matrix entry is outside the discrete bid set `W`.
    BidOutOfRange {
        /// Agent index.
        agent: usize,
        /// Task index.
        task: usize,
        /// The offending bid.
        bid: u64,
        /// The largest admissible bid.
        w_max: u64,
    },
    /// The bid matrix shape does not match the configuration.
    ShapeMismatch {
        /// Agents in the matrix.
        agents: usize,
        /// Agents in the configuration.
        expected_agents: usize,
    },
    /// The run aborted; inspect the reason and the set of detecting agents.
    Aborted {
        /// Why the protocol terminated.
        reason: AbortReason,
    },
    /// A lower-layer cryptographic error.
    Crypto(dmw_crypto::CryptoError),
    /// A lower-layer number-theoretic error.
    ModMath(dmw_modmath::ModMathError),
    /// A scheduling-layer error.
    Mechanism(dmw_mechanism::MechanismError),
}

impl fmt::Display for DmwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmwError::Config { reason } => write!(f, "invalid configuration: {reason}"),
            DmwError::BidOutOfRange {
                agent,
                task,
                bid,
                w_max,
            } => {
                write!(
                    f,
                    "agent {agent} bid {bid} on task {task}, outside 1..={w_max}"
                )
            }
            DmwError::ShapeMismatch {
                agents,
                expected_agents,
            } => {
                write!(
                    f,
                    "bid matrix has {agents} agents, configuration expects {expected_agents}"
                )
            }
            DmwError::Aborted { reason } => write!(f, "protocol aborted: {reason}"),
            DmwError::Crypto(e) => write!(f, "crypto layer: {e}"),
            DmwError::ModMath(e) => write!(f, "modular arithmetic layer: {e}"),
            DmwError::Mechanism(e) => write!(f, "mechanism layer: {e}"),
        }
    }
}

impl Error for DmwError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DmwError::Crypto(e) => Some(e),
            DmwError::ModMath(e) => Some(e),
            DmwError::Mechanism(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dmw_crypto::CryptoError> for DmwError {
    fn from(e: dmw_crypto::CryptoError) -> Self {
        DmwError::Crypto(e)
    }
}

impl From<dmw_modmath::ModMathError> for DmwError {
    fn from(e: dmw_modmath::ModMathError) -> Self {
        DmwError::ModMath(e)
    }
}

impl From<dmw_mechanism::MechanismError> for DmwError {
    fn from(e: dmw_mechanism::MechanismError) -> Self {
        DmwError::Mechanism(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_well_behaved() {
        fn assert_traits<T: Send + Sync + std::error::Error>() {}
        assert_traits::<DmwError>();
        let e = DmwError::Aborted {
            reason: AbortReason::Unresolvable,
        };
        assert!(e.to_string().contains("aborted"));
    }

    #[test]
    fn abort_reasons_display() {
        for reason in [
            AbortReason::InvalidShares { sender: 1 },
            AbortReason::InvalidLambdaPsi { publisher: 2 },
            AbortReason::InconsistentMask { publisher: 0 },
            AbortReason::InvalidDisclosure { discloser: 3 },
            AbortReason::InvalidExcluded { publisher: 1 },
            AbortReason::Unresolvable,
            AbortReason::NoWinner,
            AbortReason::TooManyFaults {
                observed: 3,
                tolerated: 1,
            },
            AbortReason::PaymentDisagreement,
            AbortReason::PeerAborted { peer: 4 },
        ] {
            assert!(!reason.to_string().is_empty());
        }
    }

    #[test]
    fn source_chains_to_lower_layers() {
        let e = DmwError::Crypto(dmw_crypto::CryptoError::ResolutionFailed);
        assert!(e.source().is_some());
        let e = DmwError::Config { reason: "x".into() };
        assert!(e.source().is_none());
    }
}
