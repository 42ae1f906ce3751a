//! Error types for the modular-arithmetic substrate.

use std::error::Error;
use std::fmt;

/// Errors produced by the `dmw-modmath` crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModMathError {
    /// The supplied modulus is not an odd prime greater than 2.
    NotPrime {
        /// The rejected modulus.
        modulus: u64,
    },
    /// A value was not a member of the expected field/group range.
    OutOfRange {
        /// The rejected value.
        value: u64,
        /// The modulus defining the valid range `[0, modulus)`.
        modulus: u64,
    },
    /// Attempted to invert an element with no inverse (zero or a value
    /// sharing a factor with the modulus).
    NotInvertible {
        /// The non-invertible value.
        value: u64,
        /// The modulus.
        modulus: u64,
    },
    /// Interpolation points were not pairwise distinct.
    DuplicatePoint {
        /// The duplicated abscissa.
        point: u64,
    },
    /// Interpolation was requested with no points at all.
    EmptyInterpolation,
    /// Group parameter generation exhausted its attempt budget.
    GroupGenerationFailed {
        /// The requested bit size of the group modulus `p`.
        p_bits: u32,
        /// The requested bit size of the subgroup order `q`.
        q_bits: u32,
    },
    /// The requested bit sizes cannot produce a Schnorr group (`q` must be
    /// meaningfully smaller than `p`).
    InvalidGroupSize {
        /// The requested bit size of `p`.
        p_bits: u32,
        /// The requested bit size of `q`.
        q_bits: u32,
    },
}

impl fmt::Display for ModMathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModMathError::NotPrime { modulus } => {
                write!(f, "modulus {modulus} is not an odd prime")
            }
            ModMathError::OutOfRange { value, modulus } => {
                write!(f, "value {value} is outside the range [0, {modulus})")
            }
            ModMathError::NotInvertible { value, modulus } => {
                write!(f, "value {value} has no inverse modulo {modulus}")
            }
            ModMathError::DuplicatePoint { point } => {
                write!(f, "interpolation point {point} appears more than once")
            }
            ModMathError::EmptyInterpolation => {
                write!(f, "interpolation requires at least one point")
            }
            ModMathError::GroupGenerationFailed { p_bits, q_bits } => {
                write!(
                    f,
                    "failed to generate a Schnorr group with |p| = {p_bits} bits, |q| = {q_bits} bits"
                )
            }
            ModMathError::InvalidGroupSize { p_bits, q_bits } => {
                write!(
                    f,
                    "invalid Schnorr group sizes: |p| = {p_bits} bits must exceed |q| = {q_bits} bits by at least 2, with |p| <= 63"
                )
            }
        }
    }
}

impl Error for ModMathError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let err = ModMathError::NotPrime { modulus: 10 };
        let msg = err.to_string();
        assert!(msg.starts_with("modulus 10"));
        assert!(!msg.ends_with('.'));
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_traits<T: Send + Sync + std::error::Error>() {}
        assert_traits::<ModMathError>();
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", ModMathError::EmptyInterpolation).is_empty());
    }
}
