//! Modular arithmetic and polynomial substrate for the DMW scheduling
//! mechanism.
//!
//! This crate provides the number-theoretic foundation on which the
//! cryptographic layer of Distributed MinWork (Carroll & Grosu, PODC 2005 /
//! JPDC 2011) is built:
//!
//! * [`arith`] — primitive modular operations on `u64` values with `u128`
//!   intermediates (multiplication, exponentiation by right-to-left binary
//!   decomposition, inversion by the extended Euclidean algorithm);
//! * [`prime`] — deterministic Miller–Rabin primality testing for `u64` and
//!   random prime generation;
//! * [`field`] — [`PrimeField`], a runtime-modulus prime field `Z_p` wrapping
//!   the primitives with validation and operation counting;
//! * [`group`] — [`SchnorrGroup`], the order-`q` subgroup of `Z_p*`
//!   (`q | p − 1`) with two independent generators `z1`, `z2` as required by
//!   the paper's commitment scheme (Section 3, "Notation");
//! * [`poly`] — dense polynomials over `Z_q`, including the zero-constant-term
//!   random polynomials in which DMW encodes bids (Section 3, Phase II);
//! * [`lagrange`] — Lagrange interpolation at zero and the polynomial degree
//!   resolution procedure of Section 2.4, both the textbook formula and the
//!   paper's three-step algorithm \[14\];
//! * [`ops`] — thread-local operation counters used to regenerate the
//!   computational-cost row of the paper's Table 1.
//!
//! # Example
//!
//! Resolve the degree of a secret-shared polynomial from its shares, the core
//! primitive behind DMW's bid resolution:
//!
//! ```
//! use dmw_modmath::{PrimeField, Poly, lagrange};
//! use rand::SeedableRng;
//!
//! let field = PrimeField::new(1031)?; // a small prime field Z_q
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! // A random degree-5 polynomial with zero constant term encodes a "bid".
//! let poly = Poly::random_zero_constant(&field, 5, &mut rng);
//! // Shares are evaluations at distinct non-zero points (the pseudonyms).
//! let shares: Vec<(u64, u64)> = (1..=8).map(|a| (a, poly.eval(&field, a))).collect();
//! // Degree resolution recovers the degree — and hence the bid — from shares.
//! assert_eq!(lagrange::resolve_zero_degree(&field, &shares), Some(5));
//! # Ok::<(), dmw_modmath::ModMathError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The arithmetic core must not panic, and no cast may silently truncate,
// wrap or drop a sign: every residue operation returns through typed
// errors, and the workspace-level `warn` on these lints escalates to a
// hard failure here (test code is exempted by the root clippy.toml; the
// cast lints have no test exemption). See docs/static_analysis.md.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

pub mod arith;
pub mod error;
pub mod field;
pub mod group;
pub mod lagrange;
pub mod multiexp;
pub mod ops;
pub mod poly;
pub mod prime;

pub use error::ModMathError;
pub use field::PrimeField;
pub use group::SchnorrGroup;
pub use ops::{reset_ops, take_ops, OpsSnapshot};
pub use poly::Poly;
