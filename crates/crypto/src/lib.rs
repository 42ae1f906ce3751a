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
//! 4. [`commitments::verify_shares_folded`] checks received bundles
//!    against their senders' commitments — equations (7)–(9) (Phase
//!    III.1) — on the verifier's [`commitments::powers_plan`]: one
//!    [`commitments::ShareFold`] per task, and the per-sender
//!    [`commitments::verify_shares_batch`] only to name a failing sender.
//! 5. [`resolution`] implements the public blackboard math of Phases
//!    III.2–III.4: validation of the published `Λ_i = z1^{E(α_i)}`,
//!    `Ψ_i = z2^{H(α_i)}` (equation (11)), first-price resolution in the
//!    exponent (equation (12)), winner identification from disclosed
//!    `f`-shares (equations (13)–(14)) and second-price resolution after
//!    excluding the winner (equation (15)).
//!
//! The crate is *transport-agnostic*: it contains no networking. The `dmw`
//! crate composes these primitives into the whole auction, run by the
//! agents over a simulated network, and adds the strategy/deviation layer;
//! its crate-level quickstart runs one complete auction end to end. The
//! commit-and-verify round trip of one bundle is the example on
//! [`commitments::verify_shares_batch`].

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
    clippy::disallowed_methods
)]
// No wall-clock reads (clippy.toml's `disallowed-types`): `forbid`, so
// no `#[allow]` can waive it.
#![forbid(clippy::disallowed_types)]

pub mod commitments;
pub mod encoding;
pub mod error;
pub mod polynomials;
pub mod resolution;

pub use commitments::Commitments;
pub use encoding::BidEncoding;
pub use error::CryptoError;
pub use polynomials::{BidPolynomials, SecretBid, ShareBundle};
