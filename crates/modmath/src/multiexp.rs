//! Multi-exponentiation in Montgomery form: many products over one
//! exponent vector by a vector addition chain replayed in lockstep.
//!
//! The hottest operation in DMW is evaluating a commitment vector "in the
//! exponent": `Π_ℓ v_ℓ^{e_ℓ} (mod p)` with `σ` bases — it appears in
//! every instance of equations (7)–(9), (11) and (13), always at the
//! powers `e_ℓ = α^ℓ` of one pseudonym `α`. A Phase III.1 verifier checks
//! the `O`, `Q` and `R` vectors of every received bundle (equations
//! (7)–(9)) at its own powers, `3·m·(n − 1)` products in all; a verifier of
//! equation (11) or (13) evaluates the `m` task folds of one designated
//! agent at that agent's powers. An [`ExponentPlan`] derives an addition
//! chain from the exponents alone, by Bos and Coster's heuristic with the
//! division step (Bos & Coster, "Addition chain heuristics", CRYPTO '89;
//! de Rooij, "Efficient exponentiation using precomputation and vector
//! addition chains", EUROCRYPT '94): while two exponents are non-zero,
//! take the largest `e₁` and the next `e₂`, write `e₁ = k·e₂ + r`, and use
//!
//! ```text
//! v₁^{e₁} · v₂^{e₂} = v₁^{r} · (v₂ · v₁^{k})^{e₂}
//! ```
//!
//! to replace `v₂` by `v₂ · v₁^k` and `e₁` by `r`. The last non-zero
//! exponent is then raised by one ladder. At `|q| = 24` the chain needs
//! about 0.4× the multiplications of a square-and-multiply ladder shared
//! by all bases for `σ = 64`, and 0.6× for `σ = 8`. The chain is a
//! straight-line program over exponent slots, so
//! [`ExponentPlan::pow_columns`] runs it on `W` base vectors at once: each
//! step is one pass of `W` independent multiplications, which keeps the
//! multiplier busy where one chain alone would wait on each product.
//!
//! The plan multiplies Montgomery representatives (see [`crate::field`]);
//! bases are converted in once and results out once. The `primitives`
//! bench measures the lockstep batch against one plan per item; the
//! proptests pin the plan against [`crate::arith::product_of_powers`].

use crate::field::PrimeField;
use crate::ops;
use std::collections::BinaryHeap;

/// One step of an [`ExponentPlan`]: `slot[dst] ← slot[dst] · slot[src]^k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Step {
    dst: usize,
    src: usize,
    k: u64,
}

/// Multiplications that raise a value to `k ≥ 1` by left-to-right
/// square-and-multiply: `bits(k) − 1` squarings and `popcount(k) − 1`
/// products.
fn ladder_muls(k: u64) -> u64 {
    u64::from(63 - k.leading_zeros()) + u64::from(k.count_ones()) - 1
}

/// A Bos–Coster vector addition chain for one exponent vector: a
/// straight-line program that evaluates `Π_i bases[i]^{exps[i]}` for any
/// base vector, derived from the exponents alone (see the
/// [module docs](self)).
///
/// Exponents are taken as they are, with no reduction: zero entries drop
/// out, duplicates cost one multiplication, and every width up to 64 bits
/// is exact.
///
/// # Example
/// ```
/// use dmw_modmath::{arith::product_of_powers, multiexp::ExponentPlan, PrimeField};
///
/// let f = PrimeField::new(101)?;
/// let exps = [5, 25, 24];
/// let plan = ExponentPlan::new(&exps);
/// let products = plan.pow_columns(&f, &[&[2, 3, 4], &[5, 7, 9]]);
/// assert_eq!(
///     products,
///     [product_of_powers(&[2, 3, 4], &exps, 101), product_of_powers(&[5, 7, 9], &exps, 101)]
/// );
/// # Ok::<(), dmw_modmath::ModMathError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExponentPlan {
    /// Number of exponents, i.e. of slots.
    slots: usize,
    steps: Vec<Step>,
    /// The slot holding the product once every step has run, and the
    /// exponent it is still raised to; `None` when every exponent is zero.
    last: Option<(usize, u64)>,
    /// Multiplications per evaluated column.
    muls: u64,
}

impl ExponentPlan {
    /// Derives the chain for `exps`: each step pops the largest exponent
    /// from a max-heap, divides it by the next largest, and pushes back
    /// the remainder if it is non-zero. Costs `O(s log σ)` for `s` steps
    /// and records no multiplication.
    pub fn new(exps: &[u64]) -> Self {
        let mut heap: BinaryHeap<(u64, usize)> = exps
            .iter()
            .copied()
            .zip(0..)
            .filter(|&(exp, _)| exp != 0)
            .collect();
        let mut steps = Vec::new();
        let mut muls = 0;
        let last = loop {
            let Some((big, src)) = heap.pop() else {
                break None;
            };
            let Some(&(next, dst)) = heap.peek() else {
                muls += ladder_muls(big);
                break Some((src, big));
            };
            let (k, rest) = (big / next, big % next);
            steps.push(Step { dst, src, k });
            muls += ladder_muls(k) + 1;
            if rest != 0 {
                heap.push((rest, src));
            }
        };
        ExponentPlan {
            slots: exps.len(),
            steps,
            last,
            muls,
        }
    }

    /// Multiplications the chain costs per column: one per step plus the
    /// ladder of each quotient `k > 1`, plus the ladder of the last
    /// exponent.
    pub fn muls(&self) -> u64 {
        self.muls
    }

    /// Evaluates the chain on every column: entry `j` of the result is
    /// `Π_i columns[j][i]^{exps[i]}`. A column shorter than the exponent
    /// vector is padded with ones, i.e. it uses a prefix of the exponents.
    ///
    /// The `W` columns run in lockstep through a slot-major `σ × W`
    /// Montgomery buffer, so every step is one pass of `W` independent
    /// multiplications. Records `muls() · W` multiplications.
    ///
    /// # Panics
    ///
    /// Panics if a column is longer than the exponent vector.
    /// Debug-panics if a base is not a canonical field element.
    pub fn pow_columns(&self, field: &PrimeField, columns: &[&[u64]]) -> Vec<u64> {
        for column in columns {
            assert!(column.len() <= self.slots, "one exponent per base");
            debug_assert!(column.iter().all(|&b| field.contains(b)));
        }
        let width = columns.len();
        let Some((last, exp)) = self.last.filter(|_| width > 0) else {
            return vec![1; width];
        };
        ops::record_muls(self.muls * width as u64);
        // Row `i` holds base `i` of every column; padding is the one.
        let mut buf = vec![field.mont_one(); self.slots * width];
        for (i, row) in buf.chunks_exact_mut(width).enumerate() {
            for (cell, column) in row.iter_mut().zip(columns) {
                if let Some(&base) = column.get(i) {
                    *cell = field.mont_in(base);
                }
            }
        }
        let mut power = vec![0; width];
        for step in &self.steps {
            let (dst, src) = row_pair(&mut buf, width, step.dst, step.src);
            let factor = if step.k == 1 {
                src
            } else {
                pow_row(field, &mut power, src, step.k);
                &power
            };
            for (d, &f) in dst.iter_mut().zip(factor) {
                *d = field.mont_mul(*d, f);
            }
        }
        let (result, _) = buf.split_at(last * width).1.split_at(width);
        pow_row(field, &mut power, result, exp);
        power.iter().map(|&x| field.mont_out(x)).collect()
    }
}

/// Row `dst` (mutable) and row `src` of a slot-major buffer with rows of
/// `width` entries; the plan never pairs a slot with itself.
fn row_pair(buf: &mut [u64], width: usize, dst: usize, src: usize) -> (&mut [u64], &[u64]) {
    debug_assert_ne!(dst, src);
    let (head, tail) = buf.split_at_mut(dst.max(src) * width);
    let (low, _) = head
        .split_at_mut(dst.min(src) * width)
        .1
        .split_at_mut(width);
    let (high, _) = tail.split_at_mut(width);
    if dst < src {
        (low, high)
    } else {
        (high, low)
    }
}

/// Sets `out` to `base^k` entry by entry (`k ≥ 1`), by left-to-right
/// square-and-multiply: [`ladder_muls`]`(k)` multiplications per entry.
fn pow_row(field: &PrimeField, out: &mut [u64], base: &[u64], k: u64) {
    out.copy_from_slice(base);
    for bit in (0..63 - k.leading_zeros()).rev() {
        for o in out.iter_mut() {
            *o = field.mont_mul(*o, *o);
        }
        if (k >> bit) & 1 == 1 {
            for (o, &b) in out.iter_mut().zip(base) {
                *o = field.mont_mul(*o, b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::{self, product_of_powers};
    use crate::field::tests::reference_fields;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    const P: u64 = 0x7FFF_FFFF_FFFF_FFE7;

    /// What a square-and-multiply ladder shared by all bases costs for
    /// `exps`: one squaring per bit of the largest exponent and one product
    /// per set bit.
    fn ladder_count(exps: &[u64]) -> u64 {
        let top_bit = exps
            .iter()
            .map(|e| 64 - e.leading_zeros())
            .max()
            .unwrap_or(0);
        if top_bit == 0 {
            return 0;
        }
        u64::from(top_bit) + exps.iter().map(|e| u64::from(e.count_ones())).sum::<u64>()
    }

    #[test]
    fn empty_product_is_one() {
        let f = PrimeField::new(P).unwrap();
        ops::reset_ops();
        assert_eq!(ExponentPlan::new(&[]).pow_columns(&f, &[&[], &[]]), [1, 1]);
        assert_eq!(ExponentPlan::new(&[0, 0]).pow_columns(&f, &[&[5, 6]]), [1]);
        assert_eq!(
            ExponentPlan::new(&[3]).pow_columns(&f, &[]),
            Vec::<u64>::new()
        );
        assert_eq!(ops::take_ops().mul, 0);
    }

    #[test]
    fn single_base_matches_pow() {
        let f = PrimeField::new(P).unwrap();
        for (b, e) in [(2u64, 10u64), (12345, 678910), (P - 1, 3)] {
            assert_eq!(
                ExponentPlan::new(&[e]).pow_columns(&f, &[&[b]]),
                [f.pow(b, e)]
            );
        }
    }

    #[test]
    #[should_panic(expected = "one exponent per base")]
    fn plan_rejects_a_column_longer_than_its_exponents() {
        let f = PrimeField::new(P).unwrap();
        let _ = ExponentPlan::new(&[4, 5]).pow_columns(&f, &[&[1, 2], &[1, 2, 3]]);
    }

    #[test]
    fn saves_multiplications_over_naive() {
        let f = PrimeField::new(P).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let bases: Vec<u64> = (0..16).map(|_| f.rand_nonzero(&mut rng)).collect();
        let exps: Vec<u64> = (0..16).map(|_| f.rand_element(&mut rng)).collect();
        ops::reset_ops();
        let fast = ExponentPlan::new(&exps).pow_columns(&f, &[&bases]);
        let fast_muls = ops::take_ops().mul;
        let slow = product_of_powers(&bases, &exps, P);
        let slow_muls = ops::take_ops().mul;
        assert_eq!(fast, [slow]);
        assert!(
            fast_muls * 2 < slow_muls,
            "expected ≥2x saving, got {fast_muls} vs {slow_muls}"
        );
    }

    #[test]
    fn division_step_costs_one_ladder_per_quotient() {
        // 5 = 101₂: two squarings and one product.
        assert_eq!(ExponentPlan::new(&[5]).muls(), 3);
        // b₀³·b₁: b₀² · b₀, then one product into b₁.
        assert_eq!(ExponentPlan::new(&[3, 1]).muls(), 3);
        // Equal exponents fold into one slot with one product.
        assert_eq!(
            ExponentPlan::new(&[7, 7]).muls(),
            ExponentPlan::new(&[7]).muls() + 1
        );
        // A large quotient costs its ladder, not one step per unit of it:
        // 10⁶ = 333,333·3 + 1, then 3 = 3·1.
        let plan = ExponentPlan::new(&[1_000_000, 3]);
        assert_eq!(plan.steps.len(), 2);
        assert_eq!(plan.muls(), ladder_muls(333_333) + 1 + ladder_muls(3) + 1);
        let plan = ExponentPlan::new(&[u64::MAX, 1]);
        assert_eq!(plan.muls(), ladder_muls(u64::MAX) + 1);
        assert_eq!(plan.steps.len(), 1);
    }

    /// The powers `[α, α², …, α^σ] mod q`, the exponents of eqs. (7)–(9).
    fn alpha_powers(q: u64, alpha: u64, sigma: usize) -> Vec<u64> {
        std::iter::successors(Some(alpha % q), |&a| Some(arith::mul_mod(a, alpha, q)))
            .take(sigma)
            .collect()
    }

    #[test]
    fn plan_needs_under_half_the_ladder_at_sigma_64() {
        // A 24-bit q, the protocol's exponent size.
        let q = PrimeField::new(16_777_213).unwrap();
        assert_eq!(q.bits(), 24);
        let mut rng = rand::rngs::StdRng::seed_from_u64(64);
        for _ in 0..20 {
            let alpha = q.rand_nonzero(&mut rng);
            let exps = alpha_powers(q.modulus(), alpha, 64);
            let plan = ExponentPlan::new(&exps);
            assert!(
                2 * plan.muls() <= ladder_count(&exps),
                "α = {alpha}: plan {} vs ladder {}",
                plan.muls(),
                ladder_count(&exps)
            );
        }
    }

    proptest! {
        #[test]
        fn plan_matches_reference_on_every_modulus(
            seed in 0u64..10_000,
            sigma in 0usize..=70,
            shape in 0usize..4,
            bits in 0u32..64,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let width = [0, 1, 3, rng.gen_range(4usize..40)][shape];
            // Zero, duplicate, above-modulus and full 64-bit exponents.
            let mut exps: Vec<u64> = Vec::with_capacity(sigma);
            for i in 0..sigma {
                let exp = match rng.gen_range(0..6) {
                    0 => 0,
                    1 if i > 0 => exps[rng.gen_range(0..i)],
                    2 => u64::MAX - rng.gen_range(0u64..4),
                    3 => P + rng.gen_range(0u64..1000),
                    _ => rng.gen::<u64>() >> bits,
                };
                exps.push(exp);
            }
            let plan = ExponentPlan::new(&exps);
            for f in reference_fields() {
                let p = f.modulus();
                // The last column may be short: it is padded with ones.
                let columns: Vec<Vec<u64>> = (0..width)
                    .map(|j| {
                        let len = if j + 1 == width { rng.gen_range(0..=sigma) } else { sigma };
                        (0..len).map(|_| f.rand_element(&mut rng)).collect()
                    })
                    .collect();
                let refs: Vec<&[u64]> = columns.iter().map(Vec::as_slice).collect();
                ops::reset_ops();
                let products = plan.pow_columns(f, &refs);
                prop_assert_eq!(ops::take_ops().mul, plan.muls() * width as u64);
                let expected: Vec<u64> = columns
                    .iter()
                    .map(|c| product_of_powers(c, &exps, p))
                    .collect();
                prop_assert_eq!(products, expected, "p = {}", p);
            }
        }
    }
}
