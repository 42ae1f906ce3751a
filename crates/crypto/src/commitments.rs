//! Pedersen commitment vectors and share verification — Phase II.3 and
//! Phase III.1 of the protocol (equations (6)–(9)).
//!
//! An agent publishes three commitment vectors of length `σ`:
//!
//! * `O_ℓ = z1^{v_ℓ} · z2^{c_ℓ}` — to the coefficients `v` of the product
//!   `e·f`, blinded by `g`'s coefficients `c`;
//! * `Q_ℓ = z1^{a_ℓ} · z2^{d_ℓ}` — to `e`'s coefficients `a`, blinded by
//!   `h`'s coefficients `d` (entries beyond `τ` have `a_ℓ = 0`, which is
//!   invisible thanks to Pedersen hiding — the bid does not leak);
//! * `R_ℓ = z1^{b_ℓ} · z2^{d_ℓ}` — to `f`'s coefficients `b`, blinded by
//!   the same `d`.
//!
//! A receiver holding the share bundle `(e(α), f(α), g(α), h(α))` checks:
//!
//! * **(7)** `z1^{e(α)·f(α)} · z2^{g(α)} = Π_ℓ O_ℓ^{α^ℓ}` — binds the
//!   product structure and zero constant terms;
//! * **(8)** `z1^{e(α)} · z2^{h(α)} = Γ = Π_ℓ Q_ℓ^{α^ℓ}`;
//! * **(9)** `z1^{f(α)} · z2^{h(α)} = Φ = Π_ℓ R_ℓ^{α^ℓ}`.
//!
//! The right-hand sides `Γ` and `Φ` are computable by *anyone* from public
//! data; they are reused in equations (11) and (13) to validate later
//! protocol messages, which is why the paper computes (8) and (9) even
//! though (7) already binds the shares.
//!
//! # Verification: the fold, then blame
//!
//! A verifier checks each task with one [`ShareFold`] over its alive set,
//! itself included: the entry-wise products of the agents' `O`, `Q` and
//! `R` vectors, and the `Z_q` sums of their bundles' `e·f`, `g`, `e`, `f`
//! and `h`. Because `Π_ℓ Π_j V_{ℓ,j}^{α^j} = Π_j (Π_ℓ V_{ℓ,j})^{α^j}`,
//! the three equations of the fold are the products of every item's
//! equations, so a task costs 3 plan columns instead of 3 per sender.
//!
//! An honest item meets its equations exactly. So while at most one
//! agent of a task deviates, the task's fold holds exactly when that
//! agent's own equations hold. Only when some fold fails does
//! [`verify_shares_folded`] run the per-sender [`verify_shares_batch`]:
//! its verdict is final, and its first failure names the sender. Folds
//! never span tasks, since one sender owns all its tasks and could cancel
//! its errors between them. Two senders that coordinate can cancel their
//! errors to one receiver inside one task, and the fold then passes: the
//! check is exact against one deviator per task, which is what the
//! paper's ex-post Nash faithfulness (a unilateral notion) asks of it.
//!
//! The `Q` and `R` folds over the alive set are the left-hand products of
//! equations (11) and (13) too ([`ShareFold::into_q_r`]), so later steps
//! evaluate them without folding again.

use crate::encoding::BidEncoding;
use crate::error::CryptoError;
use crate::polynomials::{BidPolynomials, ShareBundle};
use dmw_modmath::multiexp::ExponentPlan;
use dmw_modmath::{PrimeField, SchnorrGroup};
use std::sync::Arc;

/// The published commitment triple `(O, Q, R)` of one agent for one task
/// (equation (6)). Each vector has exactly `σ` entries; entry `ℓ` (1-based
/// in the paper) is stored at index `ℓ − 1`.
///
/// The vectors are shared, not owned: a clone copies three pointers, so a
/// broadcast to `n − 1` peers and every receiver that keeps the triple
/// hold one allocation of `3σ` residues between them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Commitments {
    o: Arc<[u64]>,
    q: Arc<[u64]>,
    r: Arc<[u64]>,
}

impl Commitments {
    /// Computes the commitments of `polys` (Phase II.3).
    pub fn commit(group: &SchnorrGroup, encoding: &BidEncoding, polys: &BidPolynomials) -> Self {
        let sigma = encoding.sigma();
        let zq = group.zq();
        let v = polys.ef_product(&zq);
        let mut o = Vec::with_capacity(sigma);
        let mut q = Vec::with_capacity(sigma);
        let mut r = Vec::with_capacity(sigma);
        for l in 1..=sigma {
            o.push(group.commit(v.coeff(l), polys.g().coeff(l)));
            q.push(group.commit(polys.e().coeff(l), polys.h().coeff(l)));
            r.push(group.commit(polys.f().coeff(l), polys.h().coeff(l)));
        }
        Commitments {
            o: o.into(),
            q: q.into(),
            r: r.into(),
        }
    }

    /// Builds a commitment triple from raw published vectors (e.g. received
    /// over the network).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::LengthMismatch`] unless all three vectors
    /// have exactly `σ` entries.
    pub fn from_parts(
        encoding: &BidEncoding,
        o: Vec<u64>,
        q: Vec<u64>,
        r: Vec<u64>,
    ) -> Result<Self, CryptoError> {
        let sigma = encoding.sigma();
        for (what, v) in [
            ("O commitment vector", &o),
            ("Q commitment vector", &q),
            ("R commitment vector", &r),
        ] {
            if v.len() != sigma {
                return Err(CryptoError::LengthMismatch {
                    what,
                    got: v.len(),
                    expected: sigma,
                });
            }
        }
        Ok(Commitments {
            o: o.into(),
            q: q.into(),
            r: r.into(),
        })
    }

    /// The `O` vector (commitments to `e·f`, blinded by `g`).
    pub fn o(&self) -> &[u64] {
        &self.o
    }

    /// The `Q` vector (commitments to `e`, blinded by `h`).
    pub fn q(&self) -> &[u64] {
        &self.q
    }

    /// The `R` vector (commitments to `f`, blinded by `h`).
    pub fn r(&self) -> &[u64] {
        &self.r
    }

    /// Tampers with one `Q` entry (multiplies it by `z1`), on a copy of
    /// `Q`: every other holder of the shared vector keeps the original.
    /// Used by deviation strategies; an honest agent never calls this.
    pub fn with_tampered_q(mut self, group: &SchnorrGroup, index: usize) -> Self {
        let zp = group.zp();
        let mut q = self.q.to_vec();
        if let Some(entry) = q.get_mut(index) {
            *entry = zp.mul(*entry, group.z1());
            self.q = q.into();
        }
        self
    }
}

/// The [`ExponentPlan`] of the powers `α, α², …, α^σ` (mod `q`) of
/// pseudonym `alpha`. It evaluates any vector of up to `σ` entries "in the
/// exponent" at `alpha`, `Π_ℓ v_ℓ^{α^ℓ} (mod p)`: the right-hand side
/// shape of equations (7)–(9), (11) and (13). A shorter vector uses the
/// matching prefix of the powers. The plan depends on `alpha` and `sigma`
/// alone, so a verifier that checks one agent at several protocol steps
/// builds it once.
pub fn powers_plan(group: &SchnorrGroup, alpha: u64, sigma: usize) -> ExponentPlan {
    let zq = group.zq();
    let mut alpha_pow = 1u64; // alpha^0; each step raises it to alpha^l.
    let exps: Vec<u64> = (0..sigma)
        .map(|_| {
            alpha_pow = zq.mul(alpha_pow, alpha);
            alpha_pow
        })
        .collect();
    ExponentPlan::new(&exps)
}

/// The entry-wise product `Π_ℓ V_ℓ` of several agents' commitment vectors
/// — the `Q` vectors for equation (11), the `R` vectors for equation (13),
/// and all three kinds inside a [`ShareFold`].
///
/// Every check at one protocol step multiplies the same vectors, and
/// `Π_ℓ Π_j V_{ℓ,j}^{α^j} = Π_j (Π_ℓ V_{ℓ,j})^{α^j}` for every `α`. So the
/// vectors of each task are folded once per step (`(n − 1)·σ` plain
/// multiplications), and [`FoldedCommitments::eval`] evaluates one
/// agent's check across all task folds with one multi-exponentiation plan.
/// A missing entry of a shorter vector counts as `1`. Folding every agent
/// but the winner gives the second-price variant of equation (11)
/// (step III.4).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FoldedCommitments {
    entries: Vec<u64>,
    vectors: usize,
}

impl FoldedCommitments {
    /// Folds the `Q` vectors of `commitments` (equation (11)).
    pub fn q<'a>(
        group: &SchnorrGroup,
        commitments: impl IntoIterator<Item = &'a Commitments>,
    ) -> Self {
        Self::fold(group, commitments.into_iter().map(Commitments::q))
    }

    /// Folds the `R` vectors of `commitments` (equation (13)).
    pub fn r<'a>(
        group: &SchnorrGroup,
        commitments: impl IntoIterator<Item = &'a Commitments>,
    ) -> Self {
        Self::fold(group, commitments.into_iter().map(Commitments::r))
    }

    fn fold<'a>(group: &SchnorrGroup, vectors: impl Iterator<Item = &'a [u64]>) -> Self {
        let zp = group.zp();
        let mut fold = FoldedCommitments::default();
        for vector in vectors {
            fold.absorb(&zp, vector);
        }
        fold
    }

    /// Multiplies `vector` into the fold, entry by entry.
    fn absorb(&mut self, zp: &PrimeField, vector: &[u64]) {
        for (acc, &entry) in self.entries.iter_mut().zip(vector) {
            *acc = zp.mul(*acc, entry);
        }
        let tail = vector.get(self.entries.len()..).unwrap_or_default();
        self.entries.extend_from_slice(tail);
        self.vectors += 1;
    }

    /// How many vectors were folded.
    pub(crate) fn vectors(&self) -> usize {
        self.vectors
    }

    /// Evaluates `folds` with `plan`, the [`powers_plan`] of one pseudonym
    /// `α`: entry `t` is `Π_j (Π_ℓ V_{ℓ,j})^{α^j}`, the product of the
    /// `Γ_ℓ(α)` (or `Φ_ℓ(α)`) of every vector folded into `folds[t]`. The
    /// exponents `α^j` are the same for every fold, so the plan runs on
    /// all folds at once, one column each. A verifier passes the task folds
    /// of one designated agent.
    ///
    /// # Panics
    ///
    /// Panics if a fold is longer than the plan's exponent vector.
    pub fn eval(
        group: &SchnorrGroup,
        plan: &ExponentPlan,
        folds: &[&FoldedCommitments],
    ) -> Vec<u64> {
        let columns: Vec<&[u64]> = folds.iter().map(|fold| fold.entries.as_slice()).collect();
        plan.pow_columns(&group.zp(), &columns)
    }
}

/// One task's Phase III.1 fold over a set of `(commitments, bundle)`
/// items: the [`FoldedCommitments`] of their `O`, `Q` and `R` vectors,
/// and the `Z_q` sums of their bundles' `e·f`, `e`, `f`, `g` and `h`.
///
/// Equations (7)–(9) hold for every item only if they hold for the fold:
/// `z1^{Σ e·f} z2^{Σ g} = Π_j (Π_ℓ O_{ℓ,j})^{α^j}`,
/// `z1^{Σ e} z2^{Σ h} = Π_j (Π_ℓ Q_{ℓ,j})^{α^j}` and
/// `z1^{Σ f} z2^{Σ h} = Π_j (Π_ℓ R_{ℓ,j})^{α^j}`. Building the fold costs
/// `3(k − 1)·σ + k` plain multiplications for `k` items.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShareFold {
    o: FoldedCommitments,
    q: FoldedCommitments,
    r: FoldedCommitments,
    /// `Σ e·f` over the bundles.
    ef: u64,
    /// `Σ e`, `Σ f`, `Σ g` and `Σ h` over the bundles.
    sum: ShareBundle,
}

impl ShareFold {
    /// Folds `items`: a verifier passes every alive agent's commitments
    /// and the bundle it holds from that agent, its own included.
    pub fn new<'a>(
        group: &SchnorrGroup,
        items: impl IntoIterator<Item = (&'a Commitments, ShareBundle)>,
    ) -> Self {
        let (zp, zq) = (group.zp(), group.zq());
        let mut fold = ShareFold::default();
        for (commitments, bundle) in items {
            fold.o.absorb(&zp, commitments.o());
            fold.q.absorb(&zp, commitments.q());
            fold.r.absorb(&zp, commitments.r());
            fold.ef = zq.add(fold.ef, zq.mul(bundle.e, bundle.f));
            fold.sum = ShareBundle {
                e: zq.add(fold.sum.e, bundle.e),
                f: zq.add(fold.sum.f, bundle.f),
                g: zq.add(fold.sum.g, bundle.g),
                h: zq.add(fold.sum.h, bundle.h),
            };
        }
        fold
    }

    /// The fold of the `Q` vectors and the fold of the `R` vectors: the
    /// left-hand products of equations (11) and (13) over the same agents.
    pub fn into_q_r(self) -> (FoldedCommitments, FoldedCommitments) {
        (self.q, self.r)
    }
}

/// Do equations (7)–(9) hold on every fold of `folds` at the pseudonym of
/// `plan`, its [`powers_plan`]? One pass of `plan` over `3 · folds.len()`
/// columns.
///
/// # Panics
///
/// Panics if a fold is longer than `plan`'s exponent vector.
pub fn share_folds_hold(group: &SchnorrGroup, plan: &ExponentPlan, folds: &[ShareFold]) -> bool {
    let columns: Vec<&[u64]> = folds
        .iter()
        .flat_map(|fold| [&fold.o, &fold.q, &fold.r].map(|v| v.entries.as_slice()))
        .collect();
    let products = plan.pow_columns(&group.zp(), &columns);
    folds
        .iter()
        .zip(products.chunks_exact(3))
        .all(|(fold, rhs)| first_failing_equation(group, fold.ef, &fold.sum, rhs).is_none())
}

/// The first of equations (7), (8), (9) whose left-hand side, from
/// `ef = e·f` and `shares`, differs from its right-hand side in `rhs`.
fn first_failing_equation(
    group: &SchnorrGroup,
    ef: u64,
    shares: &ShareBundle,
    rhs: &[u64],
) -> Option<u8> {
    // (7): z1^{e(α)f(α)} z2^{g(α)} == Π O_ℓ^{α^ℓ};
    // (8): z1^{e(α)} z2^{h(α)} == Γ; (9): z1^{f(α)} z2^{h(α)} == Φ.
    let sides = [
        (7, ef, shares.g),
        (8, shares.e, shares.h),
        (9, shares.f, shares.h),
    ];
    sides
        .into_iter()
        .zip(rhs)
        .find(|&((_, z1_exp, z2_exp), &rhs)| group.commit(z1_exp, z2_exp) != rhs)
        .map(|((equation, _, _), _)| equation)
}

/// Phase III.1 for one verifier: the fold first, the per-sender batch on
/// failure. `folds` holds one [`ShareFold`] per task over the verifier's
/// alive set, itself included; `items` holds the other alive agents'
/// `(commitments, bundle)` pairs in row-major `(task, sender)` order. If
/// [`share_folds_hold`], the verdict is `Ok`; otherwise
/// [`verify_shares_batch`] on `items` gives it, even if it passes (the
/// verifier's own item can fail a fold but is no sender's fault).
///
/// With at most one deviating sender per task the verdict is the batch's
/// (see the [module docs](self)).
///
/// # Errors
///
/// Returns the [`ShareBatchFailure`] of [`verify_shares_batch`].
///
/// # Panics
///
/// Panics if a vector is longer than `plan`'s exponent vector.
pub fn verify_shares_folded(
    group: &SchnorrGroup,
    plan: &ExponentPlan,
    folds: &[ShareFold],
    items: &[(&Commitments, ShareBundle)],
) -> Result<(), ShareBatchFailure> {
    if share_folds_hold(group, plan, folds) {
        return Ok(());
    }
    verify_shares_batch(group, plan, items)
}

/// A failure inside [`verify_shares_batch`]: which batch item failed, and
/// the verification error it failed with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShareBatchFailure {
    /// Index of the failing item in the submitted batch.
    pub index: usize,
    /// The per-item verification error.
    pub error: CryptoError,
}

/// Verifies a batch of `(commitments, bundle)` pairs at one evaluation
/// point `α` against equations (7)–(9), in submission order. `plan` is
/// the [`powers_plan`] of `α`, at least as long as the longest vector in
/// the batch.
///
/// Phase III.1 checks every received bundle against its sender's
/// commitments, across both tasks and senders, and every right-hand side
/// is a product at the same exponents `α^ℓ`. So the batch runs the one
/// `plan` on the `O`, `Q` and `R` vectors of every item at once,
/// `3 · items.len()` columns in lockstep. Then it compares each item's
/// left-hand sides in order. An item whose vectors are shorter than the
/// plan uses the matching prefix of the exponents.
///
/// The verdict is the one a sequential loop over `items` gives, checking
/// (7), (8), (9) per item: the first failing item in submission order,
/// naming its first failing equation. Every item's right-hand sides are
/// computed before that verdict, so a failing batch costs as much as a
/// passing one.
///
/// # Errors
///
/// Returns [`ShareBatchFailure`] naming the first item (in submission
/// order) whose verification failed, with the underlying
/// [`CryptoError::ShareVerificationFailed`]. An agent receiving this
/// error aborts the protocol, which is the detection mechanism behind
/// Theorems 4 and 8.
///
/// # Panics
///
/// Panics if a vector is longer than `plan`'s exponent vector.
///
/// # Example
/// ```
/// use dmw_crypto::commitments::{powers_plan, verify_shares_batch};
/// use dmw_crypto::{BidEncoding, BidPolynomials, Commitments, SecretBid};
/// use dmw_modmath::SchnorrGroup;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let group = SchnorrGroup::generate(40, 16, &mut rng)?;
/// let encoding = BidEncoding::new(5, 1)?;
/// let polys = BidPolynomials::generate(&group, &encoding, &SecretBid::new(2), &mut rng)?;
/// let commitments = Commitments::commit(&group, &encoding, &polys);
/// let alpha = 7;
/// let plan = powers_plan(&group, alpha, encoding.sigma());
/// let bundle = polys.share_for(&group.zq(), alpha);
/// assert!(verify_shares_batch(&group, &plan, &[(&commitments, bundle)]).is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn verify_shares_batch(
    group: &SchnorrGroup,
    plan: &ExponentPlan,
    items: &[(&Commitments, ShareBundle)],
) -> Result<(), ShareBatchFailure> {
    let zq = group.zq();
    let columns: Vec<&[u64]> = items
        .iter()
        .flat_map(|(c, _)| [c.o(), c.q(), c.r()])
        .collect();
    let products = plan.pow_columns(&group.zp(), &columns);
    for (index, ((_, bundle), rhs)) in items.iter().zip(products.chunks_exact(3)).enumerate() {
        let ef = zq.mul(bundle.e, bundle.f);
        if let Some(equation) = first_failing_equation(group, ef, bundle, rhs) {
            return Err(ShareBatchFailure {
                index,
                error: CryptoError::ShareVerificationFailed { equation },
            });
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::polynomials::SecretBid;
    use dmw_modmath::arith;
    use rand::{Rng, SeedableRng};

    /// `Π_ℓ vector_ℓ^{α^ℓ} (mod p)`, one power at a time over the plain
    /// `u128 %` arithmetic: the reference for one column of a
    /// [`powers_plan`]. `alpha` must be below `q`.
    pub(crate) fn reference_at(group: &SchnorrGroup, alpha: u64, vector: &[u64]) -> u64 {
        let q = group.q();
        let exps: Vec<u64> =
            std::iter::successors(Some(alpha), |&a| Some(arith::mul_mod(a, alpha, q)))
                .take(vector.len())
                .collect();
        arith::product_of_powers(vector, &exps, group.p())
    }

    fn setup() -> (SchnorrGroup, BidEncoding, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
        let group = SchnorrGroup::generate(40, 16, &mut rng).unwrap();
        let encoding = BidEncoding::new(6, 1).unwrap();
        (group, encoding, rng)
    }

    /// [`verify_shares_batch`] on the one-item batch `(commitments, bundle)`
    /// at `alpha`.
    fn verify_one(
        group: &SchnorrGroup,
        commitments: &Commitments,
        alpha: u64,
        bundle: &ShareBundle,
    ) -> Result<(), CryptoError> {
        let plan = powers_plan(group, alpha, commitments.o().len());
        verify_shares_batch(group, &plan, &[(commitments, *bundle)])
            .map_err(|failure| failure.error)
    }

    #[test]
    fn honest_shares_verify_at_every_point() {
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        for bid in encoding.bid_set() {
            let polys = BidPolynomials::generate(&group, &encoding, &SecretBid::new(bid), &mut rng)
                .unwrap();
            let commitments = Commitments::commit(&group, &encoding, &polys);
            let alphas = zq.rand_distinct_nonzero(encoding.agents(), &mut rng);
            for &alpha in &alphas {
                let bundle = polys.share_for(&zq, alpha);
                verify_one(&group, &commitments, alpha, &bundle)
                    .unwrap_or_else(|e| panic!("bid {bid}, alpha {alpha}: {e}"));
            }
        }
    }

    #[test]
    fn clones_share_storage_and_tampering_copies_on_write() {
        let (group, encoding, mut rng) = setup();
        let polys =
            BidPolynomials::generate(&group, &encoding, &SecretBid::new(3), &mut rng).unwrap();
        let original = Commitments::commit(&group, &encoding, &polys);
        let clone = original.clone();
        for (a, b) in [
            (original.o(), clone.o()),
            (original.q(), clone.q()),
            (original.r(), clone.r()),
        ] {
            assert_eq!(a.as_ptr(), b.as_ptr(), "a clone shares each vector");
        }
        let untouched = original.q().to_vec();
        let tampered = clone.with_tampered_q(&group, 2);
        assert_eq!(original.q(), &untouched[..]);
        assert_ne!(tampered.q(), original.q());
        assert_eq!(tampered.q()[2], group.zp().mul(untouched[2], group.z1()));
        assert_eq!(tampered.o().as_ptr(), original.o().as_ptr());
    }

    #[test]
    fn corrupted_e_share_fails_equation_7_or_8() {
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        let polys =
            BidPolynomials::generate(&group, &encoding, &SecretBid::new(2), &mut rng).unwrap();
        let commitments = Commitments::commit(&group, &encoding, &polys);
        let mut bundle = polys.share_for(&zq, 9);
        bundle.e = zq.add(bundle.e, 1);
        let err = verify_one(&group, &commitments, 9, &bundle).unwrap_err();
        assert!(matches!(
            err,
            CryptoError::ShareVerificationFailed { equation: 7 | 8 }
        ));
    }

    #[test]
    fn corrupted_f_g_h_shares_are_each_detected() {
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        let polys =
            BidPolynomials::generate(&group, &encoding, &SecretBid::new(3), &mut rng).unwrap();
        let commitments = Commitments::commit(&group, &encoding, &polys);
        let honest = polys.share_for(&zq, 11);
        for field in 0..3 {
            let mut bundle = honest;
            match field {
                0 => bundle.f = zq.add(bundle.f, 1),
                1 => bundle.g = zq.add(bundle.g, 1),
                _ => bundle.h = zq.add(bundle.h, 1),
            }
            assert!(
                verify_one(&group, &commitments, 11, &bundle).is_err(),
                "tampered field {field} slipped through"
            );
        }
    }

    #[test]
    fn each_tamper_names_its_equation() {
        let (group, encoding, mut rng) = setup();
        let (zp, zq) = (group.zp(), group.zq());
        let polys =
            BidPolynomials::generate(&group, &encoding, &SecretBid::new(3), &mut rng).unwrap();
        let commitments = Commitments::commit(&group, &encoding, &polys);
        let alpha = 17;
        let honest = polys.share_for(&zq, alpha);
        verify_one(&group, &commitments, alpha, &honest).unwrap();
        // A bundle field enters (7) unless it is h, which (7) does not use.
        for (field, equation) in [('e', 7), ('f', 7), ('g', 7), ('h', 8)] {
            let mut bundle = honest;
            let share = match field {
                'e' => &mut bundle.e,
                'f' => &mut bundle.f,
                'g' => &mut bundle.g,
                _ => &mut bundle.h,
            };
            *share = zq.add(*share, 1);
            assert_eq!(
                verify_one(&group, &commitments, alpha, &bundle),
                Err(CryptoError::ShareVerificationFailed { equation }),
                "tampered share {field}"
            );
        }
        // A commitment entry fails exactly the equation of its vector.
        for (vector, equation) in [(0, 7), (1, 8), (2, 9)] {
            for index in [0, encoding.sigma() - 1] {
                let mut vectors = [
                    commitments.o().to_vec(),
                    commitments.q().to_vec(),
                    commitments.r().to_vec(),
                ];
                let entry = &mut vectors[vector][index];
                *entry = zp.mul(*entry, group.z2());
                let [o, q, r] = vectors;
                let tampered = Commitments::from_parts(&encoding, o, q, r).unwrap();
                assert_eq!(
                    verify_one(&group, &tampered, alpha, &honest),
                    Err(CryptoError::ShareVerificationFailed { equation }),
                    "tampered vector {vector}, entry {index}"
                );
            }
        }
    }

    #[test]
    fn shares_at_wrong_point_fail() {
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        let polys =
            BidPolynomials::generate(&group, &encoding, &SecretBid::new(2), &mut rng).unwrap();
        let commitments = Commitments::commit(&group, &encoding, &polys);
        let bundle = polys.share_for(&zq, 9);
        assert!(verify_one(&group, &commitments, 10, &bundle).is_err());
    }

    #[test]
    fn tampered_commitments_fail() {
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        let polys =
            BidPolynomials::generate(&group, &encoding, &SecretBid::new(2), &mut rng).unwrap();
        let commitments = Commitments::commit(&group, &encoding, &polys).with_tampered_q(&group, 0);
        let bundle = polys.share_for(&zq, 9);
        assert!(matches!(
            verify_one(&group, &commitments, 9, &bundle),
            Err(CryptoError::ShareVerificationFailed { equation: 8 })
        ));
    }

    #[test]
    fn mismatched_polynomials_fail_equation_7() {
        // Commit to one quadruple but send shares of a different e: the
        // product check (7) catches the substitution even when the degree
        // is unchanged.
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        let polys =
            BidPolynomials::generate(&group, &encoding, &SecretBid::new(2), &mut rng).unwrap();
        let commitments = Commitments::commit(&group, &encoding, &polys);
        let substituted =
            polys
                .clone()
                .with_substituted_e(&zq, encoding.degree_of_bid(2).unwrap(), &mut rng);
        let bundle = substituted.share_for(&zq, 5);
        let err = verify_one(&group, &commitments, 5, &bundle).unwrap_err();
        assert!(matches!(err, CryptoError::ShareVerificationFailed { .. }));
    }

    #[test]
    fn from_parts_validates_lengths() {
        let (group, encoding, mut rng) = setup();
        let polys =
            BidPolynomials::generate(&group, &encoding, &SecretBid::new(1), &mut rng).unwrap();
        let c = Commitments::commit(&group, &encoding, &polys);
        let rebuilt =
            Commitments::from_parts(&encoding, c.o().to_vec(), c.q().to_vec(), c.r().to_vec())
                .unwrap();
        assert_eq!(rebuilt, c);
        assert!(matches!(
            Commitments::from_parts(&encoding, vec![1], c.q().to_vec(), c.r().to_vec()),
            Err(CryptoError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn gamma_phi_match_share_commitments() {
        // Gamma and Phi computed from public data equal the left-hand sides
        // computed from private shares — the identity that (11) and (13)
        // rely on.
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        let polys =
            BidPolynomials::generate(&group, &encoding, &SecretBid::new(3), &mut rng).unwrap();
        let commitments = Commitments::commit(&group, &encoding, &polys);
        let alpha = 13;
        let bundle = polys.share_for(&zq, alpha);
        assert_eq!(
            powers_plan(&group, alpha, encoding.sigma())
                .pow_columns(&group.zp(), &[commitments.q(), commitments.r()]),
            [
                group.commit(bundle.e, bundle.h),
                group.commit(bundle.f, bundle.h)
            ]
        );
    }

    #[test]
    fn batch_verification_is_width_invariant() {
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        let alpha = 9;
        let committed: Vec<(Commitments, crate::polynomials::ShareBundle)> = [1, 2, 3]
            .into_iter()
            .cycle()
            .take(12)
            .map(|bid| {
                let polys =
                    BidPolynomials::generate(&group, &encoding, &SecretBid::new(bid), &mut rng)
                        .unwrap();
                let commitments = Commitments::commit(&group, &encoding, &polys);
                let bundle = polys.share_for(&zq, alpha);
                (commitments, bundle)
            })
            .collect();
        let items: Vec<(&Commitments, crate::polynomials::ShareBundle)> =
            committed.iter().map(|(c, b)| (c, *b)).collect();
        let plan = powers_plan(&group, alpha, encoding.sigma());
        assert!(verify_shares_batch(&group, &plan, &items).is_ok());
        // Corrupt two items; the batch must report the *first* one.
        let mut corrupted = items.clone();
        corrupted[3].1.e = zq.add(corrupted[3].1.e, 1);
        corrupted[9].1.f = zq.add(corrupted[9].1.f, 1);
        let failure = verify_shares_batch(&group, &plan, &corrupted).unwrap_err();
        // A tampered e share enters (7) first.
        assert_eq!(
            failure,
            ShareBatchFailure {
                index: 3,
                error: CryptoError::ShareVerificationFailed { equation: 7 },
            }
        );
        assert_eq!(sequential_verdict(&group, alpha, &corrupted), Err((3, 7)));
    }

    /// The verdict of a sequential loop that computes every right-hand
    /// side with [`reference_at`] and checks (7), (8), (9) in order.
    fn sequential_verdict(
        group: &SchnorrGroup,
        alpha: u64,
        items: &[(&Commitments, ShareBundle)],
    ) -> Result<(), (usize, u8)> {
        let zq = group.zq();
        for (index, (commitments, b)) in items.iter().enumerate() {
            let rhs = [commitments.o(), commitments.q(), commitments.r()]
                .map(|vector| reference_at(group, alpha, vector));
            let lhs = [
                group.commit(zq.mul(b.e, b.f), b.g),
                group.commit(b.e, b.h),
                group.commit(b.f, b.h),
            ];
            for ((equation, l), r) in [7, 8, 9].into_iter().zip(lhs).zip(rhs) {
                if l != r {
                    return Err((index, equation));
                }
            }
        }
        Ok(())
    }

    fn batch_verdict(
        group: &SchnorrGroup,
        plan: &ExponentPlan,
        items: &[(&Commitments, ShareBundle)],
    ) -> Result<(), (usize, u8)> {
        verify_shares_batch(group, plan, items).map_err(|failure| match failure.error {
            CryptoError::ShareVerificationFailed { equation } => (failure.index, equation),
            other => panic!("unexpected error {other}"),
        })
    }

    #[test]
    fn empty_and_one_item_batches_match_the_single_check() {
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        let plan = powers_plan(&group, 9, encoding.sigma());
        assert_eq!(verify_shares_batch(&group, &plan, &[]), Ok(()));
        let polys =
            BidPolynomials::generate(&group, &encoding, &SecretBid::new(2), &mut rng).unwrap();
        let commitments = Commitments::commit(&group, &encoding, &polys);
        let honest = polys.share_for(&zq, 9);
        let mut tampered = honest;
        tampered.h = zq.add(tampered.h, 1);
        for bundle in [honest, tampered] {
            assert_eq!(
                batch_verdict(&group, &plan, &[(&commitments, bundle)]),
                sequential_verdict(&group, 9, &[(&commitments, bundle)])
            );
        }
        assert_eq!(
            verify_one(&group, &commitments, 9, &tampered),
            Err(CryptoError::ShareVerificationFailed { equation: 8 })
        );
    }

    /// One verifier's Phase III.1 inputs over `m` tasks of `n` agents
    /// bidding at random: per task, every agent's commitments and the
    /// bundle it sends the verifier at `alpha`, the verifier's own included.
    fn phase_inputs(
        group: &SchnorrGroup,
        encoding: &BidEncoding,
        (n, m): (usize, usize),
        alpha: u64,
        rng: &mut rand::rngs::StdRng,
    ) -> Vec<Vec<(Commitments, ShareBundle)>> {
        let zq = group.zq();
        (0..m)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        let bid = rng.gen_range(1..=encoding.w_max());
                        let polys =
                            BidPolynomials::generate(group, encoding, &SecretBid::new(bid), rng)
                                .unwrap();
                        let commitments = Commitments::commit(group, encoding, &polys);
                        (commitments, polys.share_for(&zq, alpha))
                    })
                    .collect()
            })
            .collect()
    }

    /// The per-task folds over every agent and the row-major batch of
    /// every agent but `verifier`, as Phase III.1 builds them.
    fn folds_and_items<'a>(
        group: &SchnorrGroup,
        tasks: &'a [Vec<(Commitments, ShareBundle)>],
        verifier: usize,
    ) -> (Vec<ShareFold>, Vec<(&'a Commitments, ShareBundle)>) {
        let folds = tasks
            .iter()
            .map(|task| ShareFold::new(group, task.iter().map(|(c, b)| (c, *b))))
            .collect();
        let items = tasks
            .iter()
            .flat_map(|task| task.iter().enumerate())
            .filter(|&(l, _)| l != verifier)
            .map(|(_, (c, b))| (c, *b))
            .collect();
        (folds, items)
    }

    #[test]
    fn a_tampered_own_commitment_fails_the_fold_but_blames_no_sender() {
        let (group, encoding, mut rng) = setup();
        let alpha = 12;
        let plan = powers_plan(&group, alpha, encoding.sigma());
        let mut tasks = phase_inputs(&group, &encoding, (4, 2), alpha, &mut rng);
        let (folds, items) = folds_and_items(&group, &tasks, 2);
        assert!(share_folds_hold(&group, &plan, &folds));
        assert_eq!(verify_shares_folded(&group, &plan, &folds, &items), Ok(()));
        // The verifier (agent 2) publishes a tampered Q in task 1, as the
        // `TamperedCommitments` deviation does: its fold fails, and the
        // batch over the other senders decides that nobody is at fault.
        let own = &mut tasks[1][2].0;
        *own = own.clone().with_tampered_q(&group, 0);
        let (folds, items) = folds_and_items(&group, &tasks, 2);
        assert!(!share_folds_hold(&group, &plan, &folds));
        assert_eq!(verify_shares_batch(&group, &plan, &items), Ok(()));
        assert_eq!(verify_shares_folded(&group, &plan, &folds, &items), Ok(()));
    }

    #[test]
    fn errors_that_cancel_across_tasks_fail_the_fold() {
        // One sender shifts f by +1 in task 0 and by −1 in task 1; a fold
        // over both tasks would cancel them, a fold per task does not.
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        let alpha = 5;
        let plan = powers_plan(&group, alpha, encoding.sigma());
        let mut tasks = phase_inputs(&group, &encoding, (3, 2), alpha, &mut rng);
        tasks[0][1].1.f = zq.add(tasks[0][1].1.f, 1);
        tasks[1][1].1.f = zq.sub(tasks[1][1].1.f, 1);
        let (folds, items) = folds_and_items(&group, &tasks, 0);
        for fold in &folds {
            assert!(!share_folds_hold(&group, &plan, std::slice::from_ref(fold)));
        }
        assert_eq!(
            verify_shares_folded(&group, &plan, &folds, &items),
            Err(ShareBatchFailure {
                index: 0,
                error: CryptoError::ShareVerificationFailed { equation: 7 },
            })
        );
    }

    #[test]
    fn two_senders_can_cancel_their_errors_inside_one_task() {
        // Senders 1 and 2 shift their f shares to the verifier by +δ and
        // −δ, and their e shares by +ε and −ε, with ε chosen so that
        // Σ e·f is unchanged: every sum the fold checks is the honest one.
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        let alpha = 21;
        let plan = powers_plan(&group, alpha, encoding.sigma());
        let mut tasks = phase_inputs(&group, &encoding, (4, 1), alpha, &mut rng);
        let (a, b) = (tasks[0][1].1, tasks[0][2].1);
        let delta = 1;
        // δ(e_a − e_b) + ε(f_a − f_b + 2δ) = 0.
        let spread = zq.add(zq.sub(a.f, b.f), zq.add(delta, delta));
        let epsilon = zq.neg(zq.div(zq.mul(delta, zq.sub(a.e, b.e)), spread).unwrap());
        let shifted = [
            ShareBundle {
                e: zq.add(a.e, epsilon),
                f: zq.add(a.f, delta),
                ..a
            },
            ShareBundle {
                e: zq.sub(b.e, epsilon),
                f: zq.sub(b.f, delta),
                ..b
            },
        ];
        tasks[0][1].1 = shifted[0];
        tasks[0][2].1 = shifted[1];
        let (folds, items) = folds_and_items(&group, &tasks, 0);
        assert!(
            share_folds_hold(&group, &plan, &folds),
            "the coalition passes"
        );
        assert_eq!(verify_shares_folded(&group, &plan, &folds, &items), Ok(()));
        // The per-sender batch, the blame path, names the first of them.
        assert_eq!(
            verify_shares_batch(&group, &plan, &items).map_err(|failure| failure.index),
            Err(0)
        );
    }

    proptest::proptest! {
        #[test]
        fn batch_verdict_matches_a_sequential_reference_loop(
            seed in 0u64..10_000,
            count in 1usize..10,
            corruptions in 0usize..4,
        ) {
            let (group, _, _) = setup();
            let (zp, zq) = (group.zp(), group.zq());
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // Two encodings, so a batch can mix vector lengths σ.
            let encodings = [BidEncoding::new(6, 1).unwrap(), BidEncoding::new(3, 1).unwrap()];
            let alpha = zq.rand_nonzero(&mut rng);
            let plan = powers_plan(&group, alpha, 6);
            let mut committed: Vec<(Commitments, ShareBundle)> = (0..count)
                .map(|_| {
                    let encoding = &encodings[rng.gen_range(0..2usize)];
                    let bid = rng.gen_range(1..=encoding.w_max());
                    let polys =
                        BidPolynomials::generate(&group, encoding, &SecretBid::new(bid), &mut rng)
                            .unwrap();
                    (
                        Commitments::commit(&group, encoding, &polys),
                        polys.share_for(&zq, alpha),
                    )
                })
                .collect();
            // Corrupt random items: one bundle field, or one O/Q/R entry.
            for _ in 0..corruptions {
                let (commitments, bundle) = &mut committed[rng.gen_range(0..count)];
                let sigma = commitments.o.len();
                match rng.gen_range(0..7usize) {
                    0 => bundle.e = zq.add(bundle.e, 1),
                    1 => bundle.f = zq.add(bundle.f, 1),
                    2 => bundle.g = zq.add(bundle.g, 1),
                    3 => bundle.h = zq.add(bundle.h, 1),
                    vector => {
                        let entries = match vector {
                            4 => &mut commitments.o,
                            5 => &mut commitments.q,
                            _ => &mut commitments.r,
                        };
                        let entries = Arc::get_mut(entries).expect("unshared until the batch");
                        let entry = &mut entries[rng.gen_range(0..sigma)];
                        *entry = zp.mul(*entry, group.z2());
                    }
                }
            }
            let items: Vec<(&Commitments, ShareBundle)> =
                committed.iter().map(|(c, b)| (c, *b)).collect();
            let expected = sequential_verdict(&group, alpha, &items);
            proptest::prop_assert_eq!(batch_verdict(&group, &plan, &items), expected);
            for item in &items {
                let item = std::slice::from_ref(item);
                proptest::prop_assert_eq!(
                    batch_verdict(&group, &plan, item),
                    sequential_verdict(&group, alpha, item)
                );
            }
        }

        #[test]
        fn fold_then_batch_matches_the_batch_alone(
            seed in 0u64..10_000,
            n in 2usize..6,
            m in 1usize..4,
            corrupt in proptest::bool::ANY,
        ) {
            let (group, encoding, _) = setup();
            let (zp, zq) = (group.zp(), group.zq());
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let alpha = zq.rand_nonzero(&mut rng);
            let plan = powers_plan(&group, alpha, encoding.sigma());
            let mut tasks = phase_inputs(&group, &encoding, (n, m), alpha, &mut rng);
            let verifier = rng.gen_range(0..n);
            // At most one corrupted item, at any (task, agent), the
            // verifier's own included: one bundle field, or one O/Q/R entry.
            let corrupted = corrupt.then(|| (rng.gen_range(0..m), rng.gen_range(0..n)));
            if let Some((task, agent)) = corrupted {
                let (commitments, bundle) = &mut tasks[task][agent];
                match rng.gen_range(0..7usize) {
                    0 => bundle.e = zq.add(bundle.e, 1),
                    1 => bundle.f = zq.add(bundle.f, 1),
                    2 => bundle.g = zq.add(bundle.g, 1),
                    3 => bundle.h = zq.add(bundle.h, 1),
                    vector => {
                        let entries = match vector {
                            4 => &mut commitments.o,
                            5 => &mut commitments.q,
                            _ => &mut commitments.r,
                        };
                        let entries = Arc::get_mut(entries).expect("unshared");
                        let entry = &mut entries[rng.gen_range(0..encoding.sigma())];
                        *entry = zp.mul(*entry, group.z2());
                    }
                }
            }
            let (folds, items) = folds_and_items(&group, &tasks, verifier);
            let batch = verify_shares_batch(&group, &plan, &items);
            proptest::prop_assert_eq!(
                verify_shares_folded(&group, &plan, &folds, &items),
                batch.clone()
            );
            // Every corruption breaks an equation, so the folds hold
            // exactly when nothing was corrupted; a corrupted own item
            // fails its fold but no sender.
            proptest::prop_assert_eq!(share_folds_hold(&group, &plan, &folds), corrupted.is_none());
            let own = corrupted.is_some_and(|(_, agent)| agent == verifier);
            proptest::prop_assert_eq!(batch.is_ok(), corrupted.is_none() || own);
        }
    }
}
