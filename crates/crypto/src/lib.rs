//! Cryptographic primitives of the **Distributed MinWork** auction
//! (Section 3 of Carroll & Grosu, JPDC 2011).
//!
//! One DMW task auction proceeds, per agent, through the objects of this
//! crate:
//!
//! 1. [`encoding::BidEncoding`] fixes the public discretization: the bid set
//!    `W`, the polynomial size parameter `σ` and the bid↔degree map
//!    `τ = σ − y`.
//! 2. [`polynomials::BidPolynomials`] samples the four random zero-constant
//!    polynomials `(e, f, g, h)` of Phase II.1 that encode a bid in the
//!    *degree* of `e` (inversely: low bid ⇒ high degree).
//! 3. [`polynomials::ShareBundle`] carries the evaluations
//!    `(e(α_k), f(α_k), g(α_k), h(α_k))` sent privately to agent `k`
//!    (Phase II.2), and [`commitments::Commitments`] the published Pedersen
//!    vectors `O, Q, R` (Phase II.3, equation (6)).
//! 4. [`commitments::verify_shares`] checks a received bundle against the
//!    sender's commitments — equations (7)–(9) (Phase III.1).
//! 5. [`resolution`] implements the public blackboard math of Phases
//!    III.2–III.4: validation of the published `Λ_i = z1^{E(α_i)}`,
//!    `Ψ_i = z2^{H(α_i)}` (equation (11)), first-price resolution in the
//!    exponent (equation (12)), winner identification from disclosed
//!    `f`-shares (equations (13)–(14)) and second-price resolution after
//!    excluding the winner (equation (15)).
//!
//! The crate is *transport-agnostic*: it contains no networking. The `dmw`
//! crate drives these primitives over a simulated network and adds the
//! strategy/deviation layer.
//!
//! # Example: one complete auction on a blackboard
//!
//! ```
//! use dmw_crypto::encoding::BidEncoding;
//! use dmw_crypto::blackboard::honest_auction;
//! use dmw_modmath::SchnorrGroup;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let group = SchnorrGroup::generate(40, 16, &mut rng)?;
//! let encoding = BidEncoding::new(5, 1)?; // n = 5 agents, c = 1 fault
//! let bids = [3, 1, 2, 3, 2];
//! let outcome = honest_auction(&group, &encoding, &bids, &mut rng)?;
//! assert_eq!(outcome.winner, 1);        // lowest bid
//! assert_eq!(outcome.first_price, 1);
//! assert_eq!(outcome.second_price, 2);  // what the winner is paid
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Protocol cryptography must not panic, and no cast may silently
// truncate, wrap or drop a sign: failures surface as `CryptoError`, and
// the workspace-level `warn` on these lints escalates to a hard failure
// here (test code is exempted by the root clippy.toml; the cast lints
// have no test exemption). See docs/static_analysis.md.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]
// No machine arithmetic on residues (L2): no `/` or `%`, no raw `+ - *`
// on anything but a `usize` index, and none of the u64 `pow`/
// `wrapping_*`/`checked_*`/… methods listed in clippy.toml. Field values
// go through `dmw_modmath`. A waiver is an `#[expect]` whose reason names
// the quantity, never an `#[allow]`.
#![deny(
    clippy::integer_division_remainder_used,
    clippy::arithmetic_side_effects,
    clippy::disallowed_methods,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]
// No wall-clock reads (clippy.toml's `disallowed-types`): `forbid`, so
// no `#[allow]` can waive it.
#![forbid(clippy::disallowed_types)]

pub mod blackboard;
pub mod commitments;
pub mod encoding;
pub mod error;
pub mod polynomials;
pub mod resolution;

pub use commitments::Commitments;
pub use encoding::BidEncoding;
pub use error::CryptoError;
pub use polynomials::{BidPolynomials, SecretBid, ShareBundle};
