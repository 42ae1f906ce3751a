//! The DMW message vocabulary (Fig. 2 of the paper).
//!
//! Solid arrows in the paper's Fig. 2 are private point-to-point messages
//! (share bundles); dashed arrows are published messages (commitments,
//! `Λ/Ψ`, disclosures, excluded pairs, payment claims), implemented as
//! broadcasts and hence as `n − 1` unicasts each (Theorem 11's cost model).
//!
//! Every variant reports its exact wire size via
//! [`dmw_simnet::Payload`]; the byte counters feed the communication-cost
//! experiment.
//!
//! # Secrets cannot become messages
//!
//! A raw bid lives in a [`SecretBid`](dmw_crypto::SecretBid) and the
//! secret polynomials in a [`BidPolynomials`](dmw_crypto::BidPolynomials);
//! neither fits any [`Body`] field, and only `dmw-crypto` can read either.
//! What reaches a [`Body`] is an evaluation: a share bundle, a disclosed
//! `f`-share, a claim point. This compiles, and every block after it
//! changes one line of it and must not compile (their setup is this
//! block's, hidden):
//!
//! ```
//! use dmw::messages::Body;
//! use dmw_crypto::{BidEncoding, BidPolynomials, SecretBid, ShareBundle};
//! use dmw_modmath::SchnorrGroup;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let group = SchnorrGroup::generate(40, 16, &mut rng)?;
//! let encoding = BidEncoding::new(5, 1)?;
//! let bid = SecretBid::new(2);
//! let polys = BidPolynomials::generate(&group, &encoding, &bid, &mut rng)?;
//! let zq = group.zq();
//! let bundle: ShareBundle = polys.share_for(&zq, 7);
//! let (f, _h) = polys.claim_point(&zq, 7);
//! let shares = Body::Shares { task: 0, bundle };
//! let disclose = Body::Disclose { task: 0, f_values: vec![f] };
//! assert!(!shares.encode().is_empty() && !disclose.encode().is_empty());
//! assert!(bid.is(2));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! A bid in a share bundle:
//!
//! ```compile_fail,E0308
//! # use dmw::messages::Body;
//! # use dmw_crypto::{BidEncoding, BidPolynomials, SecretBid, ShareBundle};
//! # use dmw_modmath::SchnorrGroup;
//! # use rand::SeedableRng;
//! # let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! # let group = SchnorrGroup::generate(40, 16, &mut rng)?;
//! # let encoding = BidEncoding::new(5, 1)?;
//! # let bid = SecretBid::new(2);
//! # let polys = BidPolynomials::generate(&group, &encoding, &bid, &mut rng)?;
//! # let zq = group.zq();
//! let bundle = ShareBundle { e: bid, ..polys.share_for(&zq, 7) };
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Secret coefficients in a disclosure, on their way to the codec:
//!
//! ```compile_fail,E0624
//! # use dmw::messages::Body;
//! # use dmw_crypto::{BidEncoding, BidPolynomials, SecretBid, ShareBundle};
//! # use dmw_modmath::SchnorrGroup;
//! # use rand::SeedableRng;
//! # let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! # let group = SchnorrGroup::generate(40, 16, &mut rng)?;
//! # let encoding = BidEncoding::new(5, 1)?;
//! # let bid = SecretBid::new(2);
//! # let polys = BidPolynomials::generate(&group, &encoding, &bid, &mut rng)?;
//! # let zq = group.zq();
//! let leak = Body::Disclose { task: 0, f_values: polys.f().coeffs().to_vec() }.encode();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! A bid converted back to a number:
//!
//! ```compile_fail,E0277
//! # use dmw::messages::Body;
//! # use dmw_crypto::{BidEncoding, BidPolynomials, SecretBid, ShareBundle};
//! # use dmw_modmath::SchnorrGroup;
//! # use rand::SeedableRng;
//! # let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! # let group = SchnorrGroup::generate(40, 16, &mut rng)?;
//! # let encoding = BidEncoding::new(5, 1)?;
//! # let bid = SecretBid::new(2);
//! # let polys = BidPolynomials::generate(&group, &encoding, &bid, &mut rng)?;
//! # let zq = group.zq();
//! let raw = u64::from(bid);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! A bid unwrapped:
//!
//! ```compile_fail,E0616
//! # use dmw::messages::Body;
//! # use dmw_crypto::{BidEncoding, BidPolynomials, SecretBid, ShareBundle};
//! # use dmw_modmath::SchnorrGroup;
//! # use rand::SeedableRng;
//! # let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! # let group = SchnorrGroup::generate(40, 16, &mut rng)?;
//! # let encoding = BidEncoding::new(5, 1)?;
//! # let bid = SecretBid::new(2);
//! # let polys = BidPolynomials::generate(&group, &encoding, &bid, &mut rng)?;
//! # let zq = group.zq();
//! let raw = bid.0;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! A polynomial in a disclosure:
//!
//! ```compile_fail,E0308
//! # use dmw::messages::Body;
//! # use dmw_crypto::{BidEncoding, BidPolynomials, SecretBid, ShareBundle};
//! # use dmw_modmath::SchnorrGroup;
//! # use rand::SeedableRng;
//! # let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! # let group = SchnorrGroup::generate(40, 16, &mut rng)?;
//! # let encoding = BidEncoding::new(5, 1)?;
//! # let bid = SecretBid::new(2);
//! # let polys = BidPolynomials::generate(&group, &encoding, &bid, &mut rng)?;
//! # let zq = group.zq();
//! let leak = Body::Disclose { task: 0, f_values: dmw_modmath::Poly::zero() };
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! A bid in a payment claim:
//!
//! ```compile_fail,E0308
//! # use dmw::messages::Body;
//! # use dmw_crypto::{BidEncoding, BidPolynomials, SecretBid, ShareBundle};
//! # use dmw_modmath::SchnorrGroup;
//! # use rand::SeedableRng;
//! # let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! # let group = SchnorrGroup::generate(40, 16, &mut rng)?;
//! # let encoding = BidEncoding::new(5, 1)?;
//! # let bid = SecretBid::new(2);
//! # let polys = BidPolynomials::generate(&group, &encoding, &bid, &mut rng)?;
//! # let zq = group.zq();
//! let leak = Body::PaymentClaim { payments: vec![bid] };
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The secret polynomials as a share bundle:
//!
//! ```compile_fail,E0308
//! # use dmw::messages::Body;
//! # use dmw_crypto::{BidEncoding, BidPolynomials, SecretBid, ShareBundle};
//! # use dmw_modmath::SchnorrGroup;
//! # use rand::SeedableRng;
//! # let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! # let group = SchnorrGroup::generate(40, 16, &mut rng)?;
//! # let encoding = BidEncoding::new(5, 1)?;
//! # let bid = SecretBid::new(2);
//! # let polys = BidPolynomials::generate(&group, &encoding, &bid, &mut rng)?;
//! # let zq = group.zq();
//! let shares = Body::Shares { task: 0, bundle: polys };
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::error::AbortReason;
use dmw_crypto::polynomials::ShareBundle;
use dmw_crypto::resolution::LambdaPsi;
use dmw_crypto::Commitments;
use dmw_simnet::Payload;

/// One protocol message. `task` fields index the parallel per-task
/// auctions; payment claims cover all tasks at once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    /// Phase II.2 (solid arrow): the private share bundle
    /// `(e_i(α_k), f_i(α_k), g_i(α_k), h_i(α_k))` for one task.
    Shares {
        /// Task index.
        task: usize,
        /// The four evaluations at the recipient's pseudonym.
        bundle: ShareBundle,
    },
    /// Phase II.3 (dashed arrow): the commitment vectors `O, Q, R`.
    Commit {
        /// Task index.
        task: usize,
        /// The published commitment triple.
        commitments: Commitments,
    },
    /// Phase III.2 (dashed arrow): the published `(Λ_i, Ψ_i)` pair plus the
    /// sender's view of which agents' polynomials are included in the sums
    /// (everyone must agree, or selective share delivery is afoot).
    Lambda {
        /// Task index.
        task: usize,
        /// The published pair.
        pair: LambdaPsi,
        /// `included[ℓ]` = agent `ℓ`'s polynomials are in `E` and `H`.
        included: Vec<bool>,
    },
    /// Phase III.3 (dashed arrow): the sender discloses the `f_ℓ(α_k)`
    /// values it holds (its own point `α_k`, one value per agent `ℓ`).
    Disclose {
        /// Task index.
        task: usize,
        /// `f_values[ℓ] = f_ℓ(α_k)` as held by the sender `k`.
        f_values: Vec<u64>,
    },
    /// Phase III.3 fallback (dashed arrow): crashes before bidding can
    /// leave fewer live share points than winner identification needs
    /// (`y* + c + 1`). An agent whose own bid equals the resolved first
    /// price then supplements identification with its polynomial's
    /// evaluations at the missing pseudonyms; verifiers bind each claimed
    /// pair to the claimant's published `R` commitments via equation (9).
    WinnerClaim {
        /// Task index.
        task: usize,
        /// `(agent, f, h)` per missing point: `f = f_me(α_agent)` and
        /// `h = h_me(α_agent)` for each non-live agent `agent`.
        points: Vec<(usize, u64, u64)>,
    },
    /// Phase III.4 (dashed arrow): the winner-excluded `(Λ'_i, Ψ'_i)`.
    Excluded {
        /// Task index.
        task: usize,
        /// The pair after dividing out the winner's polynomials.
        pair: LambdaPsi,
    },
    /// Phase IV (dashed arrow): the sender's computed payment vector,
    /// submitted for agreement at the payment infrastructure.
    PaymentClaim {
        /// `payments[ℓ]` = claimed payment (in bid units) owed to agent `ℓ`.
        payments: Vec<u64>,
    },
    /// Protocol abort notification: the sender detected a violation and
    /// terminated (the enforcement mechanism of Theorems 4 and 8).
    Abort {
        /// The detected condition.
        reason: AbortReason,
    },
    /// A coalesced container: all of one round's messages to the same
    /// recipient in a single transmission. Produced only when the runner
    /// batches (the `ablation-batch` experiment); never nested.
    Batch(Vec<Body>),
    /// Reliable-delivery envelope (recovery mode only): the inner
    /// message stamped with the sender's per-link sequence number plus a
    /// piggybacked cumulative ack of everything the sender has received
    /// on the reverse link. Sealing happens *after* coalescing, so a
    /// `Sealed` may contain a `Batch` but never another `Sealed`.
    Sealed {
        /// 1-based per-link sequence number assigned by the sender.
        seq: u64,
        /// Cumulative ack: the sender has received every reverse-link
        /// sequence number `<= ack`.
        ack: u64,
        /// The protocol message being carried.
        inner: Box<Body>,
    },
    /// Standalone cumulative ack (recovery mode only), sent when an
    /// endpoint owes an ack but has no outbound traffic to piggyback it
    /// on. Never itself acked, so the exchange terminates.
    Ack {
        /// The sender has received every reverse-link sequence number
        /// `<= ack`.
        ack: u64,
        /// Selective acknowledgment: closed sequence ranges `lo..=hi`
        /// beyond `ack` that the sender holds out of order (ascending,
        /// non-overlapping, at most
        /// [`crate::reliable::SACK_MAX_RANGES`] of them — overflow
        /// falls back to the cumulative-only contract). Lets the peer
        /// retire delivered-but-unackable tail messages instead of
        /// retransmitting them when a gap stalls the cumulative ack.
        sack: Vec<(u64, u64)>,
    },
    /// Gap repair request (recovery mode only): the sender is missing
    /// reverse-link sequence numbers `lo..=hi` and has already buffered
    /// something beyond them. Fire-and-forget — a lost nack is covered
    /// by the peer's retransmit timer, so it is never acked or resent.
    Nack {
        /// First missing sequence number.
        lo: u64,
        /// Last missing sequence number (`lo <= hi`).
        hi: u64,
    },
    /// Coalesced retransmission (recovery mode only): every payload the
    /// sender owes one peer in a single envelope, in ascending sequence
    /// order, with the same piggybacked cumulative ack a [`Body::Sealed`]
    /// would carry. One wire transmission repairs a whole gap, so
    /// recovery traffic scales with loss *events*, not lost payloads.
    Repair {
        /// Cumulative ack of the reverse link, as in [`Body::Sealed`].
        ack: u64,
        /// `(seq, payload)` per retransmitted message, ascending.
        items: Vec<(u64, Body)>,
    },
    /// Fire-and-forget notice (recovery mode only): the sender's retry
    /// budget against `peer` is exhausted and it now treats that peer as
    /// dead. Observability only — the exclusion vote reads each
    /// endpoint's suspicion state directly, so losing this notice cannot
    /// change the outcome.
    SuspectDead {
        /// The peer the sender gave up on.
        peer: usize,
    },
}

impl Body {
    /// A short label for traces and Fig. 2 rendering.
    pub fn kind(&self) -> &'static str {
        match self {
            Body::Shares { .. } => "shares",
            Body::Commit { .. } => "commitments",
            Body::Lambda { .. } => "lambda-psi",
            Body::Disclose { .. } => "f-disclosure",
            Body::WinnerClaim { .. } => "winner-claim",
            Body::Excluded { .. } => "excluded-lambda-psi",
            Body::PaymentClaim { .. } => "payment-claim",
            Body::Abort { .. } => "abort",
            Body::Batch(_) => "batch",
            Body::Sealed { .. } => "sealed",
            Body::Ack { .. } => "ack",
            Body::Nack { .. } => "nack",
            Body::Repair { .. } => "repair",
            Body::SuspectDead { .. } => "suspect-dead",
        }
    }

    /// The task this message belongs to, if task-scoped. A sealed
    /// envelope reports its carried message's task.
    pub fn task(&self) -> Option<usize> {
        match self {
            Body::Shares { task, .. }
            | Body::Commit { task, .. }
            | Body::Lambda { task, .. }
            | Body::Disclose { task, .. }
            | Body::WinnerClaim { task, .. }
            | Body::Excluded { task, .. } => Some(*task),
            Body::Sealed { inner, .. } => inner.task(),
            Body::PaymentClaim { .. }
            | Body::Abort { .. }
            | Body::Batch(_)
            | Body::Ack { .. }
            | Body::Nack { .. }
            | Body::Repair { .. }
            | Body::SuspectDead { .. } => None,
        }
    }
}

impl Payload for Body {
    /// The exact wire size of the message under the binary codec of
    /// [`crate::codec`] — the network statistics therefore count real
    /// bytes, not estimates.
    fn size_bytes(&self) -> usize {
        self.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_tasks() {
        let b = Body::Shares {
            task: 3,
            bundle: ShareBundle {
                e: 1,
                f: 2,
                g: 3,
                h: 4,
            },
        };
        assert_eq!(b.kind(), "shares");
        assert_eq!(b.task(), Some(3));
        let b = Body::PaymentClaim {
            payments: vec![1, 2],
        };
        assert_eq!(b.kind(), "payment-claim");
        assert_eq!(b.task(), None);
        let b = Body::Abort {
            reason: AbortReason::Unresolvable,
        };
        assert_eq!(b.kind(), "abort");
        assert_eq!(b.task(), None);
    }

    #[test]
    fn sizes_scale_with_content() {
        let small = Body::Disclose {
            task: 0,
            f_values: vec![1; 4],
        };
        let large = Body::Disclose {
            task: 0,
            f_values: vec![1; 16],
        };
        assert!(large.size_bytes() > small.size_bytes());
        // size_bytes is the exact encoded length.
        assert_eq!(small.size_bytes(), small.encode().len());
        let shares = Body::Shares {
            task: 0,
            bundle: ShareBundle {
                e: 0,
                f: 0,
                g: 0,
                h: 0,
            },
        };
        assert_eq!(shares.size_bytes(), shares.encode().len());
    }
}
