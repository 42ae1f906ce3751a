//! Simultaneous multi-exponentiation (Shamir's trick), in Montgomery form.
//!
//! The hottest operation in DMW is evaluating a commitment vector "in the
//! exponent": `Π_ℓ v_ℓ^{e_ℓ} (mod p)` with `σ` bases — it appears in
//! every instance of equations (7)–(9), (11) and (13). Computing each
//! factor separately costs `≈ 1.5·k·log p` multiplications for `k` bases;
//! interleaving the square-and-multiply ladders shares the squarings
//! across all bases:
//!
//! ```text
//! acc ← 1
//! for bit from MSB to LSB:
//!     acc ← acc²
//!     for every ℓ with bit set in e_ℓ: acc ← acc · v_ℓ
//! ```
//!
//! which costs `log p` squarings plus one multiplication per set bit —
//! `≈ log p · (1 + k/2)`, roughly a 3× saving for large `k`.
//!
//! [`joint_multi_pow`] runs `K` such products that share one exponent
//! vector (the `O`, `Q` and `R` vectors of equations (7)–(9) are all
//! evaluated at the powers `α^ℓ`) as one ladder with `K` accumulators: the
//! bit tests are shared and the accumulators form `K` independent
//! dependency chains, while the multiplication count stays that of `K`
//! separate ladders. [`multi_pow`] is its one-accumulator case.
//!
//! The ladder multiplies Montgomery representatives (see [`crate::field`]);
//! bases are converted in once and results out once. The `primitives`
//! bench measures the gap to the naive product; the proptests pin both
//! functions against [`crate::arith`].

use crate::field::PrimeField;
use crate::ops;

/// Computes `Π bases[i]^{exps[i]}` in `field` by interleaved
/// square-and-multiply.
///
/// # Panics
///
/// Panics if the slices differ in length. Debug-panics if a base is not a
/// canonical field element.
///
/// # Example
/// ```
/// use dmw_modmath::{multiexp::multi_pow, PrimeField};
///
/// let f = PrimeField::new(101)?;
/// // 2^5 · 3^4 mod 101 == 32 · 81 mod 101
/// assert_eq!(multi_pow(&f, &[2, 3], &[5, 4]), f.mul(f.pow(2, 5), f.pow(3, 4)));
/// # Ok::<(), dmw_modmath::ModMathError>(())
/// ```
pub fn multi_pow(field: &PrimeField, bases: &[u64], exps: &[u64]) -> u64 {
    let [product] = joint_multi_pow(field, [bases], exps);
    product
}

/// Computes `K` multi-exponentiations over one shared exponent vector:
/// entry `k` of the result is `Π_i bases[k][i]^{exps[i]}`.
///
/// Records `K · (t + Σ_i popcount(exps[i]))` multiplications, where `t` is
/// the bit length of the largest exponent — exactly what `K` calls of
/// [`multi_pow`] record.
///
/// # Panics
///
/// Panics unless every base slice has one entry per exponent.
/// Debug-panics if a base is not a canonical field element.
///
/// # Example
/// ```
/// use dmw_modmath::{multiexp::{joint_multi_pow, multi_pow}, PrimeField};
///
/// let f = PrimeField::new(101)?;
/// let [a, b] = joint_multi_pow(&f, [&[2, 3], &[5, 7]], &[5, 4]);
/// assert_eq!(a, multi_pow(&f, &[2, 3], &[5, 4]));
/// assert_eq!(b, multi_pow(&f, &[5, 7], &[5, 4]));
/// # Ok::<(), dmw_modmath::ModMathError>(())
/// ```
pub fn joint_multi_pow<const K: usize>(
    field: &PrimeField,
    bases: [&[u64]; K],
    exps: &[u64],
) -> [u64; K] {
    for column in bases {
        assert_eq!(column.len(), exps.len(), "one exponent per base");
        debug_assert!(column.iter().all(|&b| field.contains(b)));
    }
    let top_bit = match exps.iter().map(|e| 64 - e.leading_zeros()).max() {
        None | Some(0) => return [1; K],
        Some(b) => b,
    };
    let set_bits: u64 = exps.iter().map(|e| u64::from(e.count_ones())).sum();
    ops::record_muls((u64::from(top_bit) + set_bits) * K as u64);
    // One row per exponent: its K bases in Montgomery form, side by side.
    let mut columns = bases.map(<[u64]>::iter);
    let rows: Vec<([u64; K], u64)> = exps
        .iter()
        .map(|&exp| {
            let row = columns
                .each_mut()
                .map(|c| c.next().map_or(0, |&b| field.mont_in(b)));
            (row, exp)
        })
        .collect();
    let mut acc = [field.mont_one(); K];
    for bit in (0..top_bit).rev() {
        for a in &mut acc {
            *a = field.mont_mul(*a, *a);
        }
        for (row, exp) in &rows {
            if (exp >> bit) & 1 == 1 {
                for (a, &b) in acc.iter_mut().zip(row) {
                    *a = field.mont_mul(*a, b);
                }
            }
        }
    }
    acc.map(|a| field.mont_out(a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith;
    use proptest::prelude::*;
    use rand::SeedableRng;

    const P: u64 = 0x7FFF_FFFF_FFFF_FFE7;

    fn naive(field: &PrimeField, bases: &[u64], exps: &[u64]) -> u64 {
        bases
            .iter()
            .zip(exps)
            .fold(1u64, |acc, (&b, &e)| field.mul(acc, field.pow(b, e)))
    }

    #[test]
    fn empty_product_is_one() {
        let f = PrimeField::new(P).unwrap();
        assert_eq!(multi_pow(&f, &[], &[]), 1);
        assert_eq!(multi_pow(&f, &[5], &[0]), 1);
        assert_eq!(joint_multi_pow(&f, [&[], &[], &[]], &[]), [1, 1, 1]);
        assert_eq!(joint_multi_pow(&f, [&[5], &[6]], &[0]), [1, 1]);
    }

    #[test]
    fn single_base_matches_pow() {
        let f = PrimeField::new(P).unwrap();
        for (b, e) in [(2u64, 10u64), (12345, 678910), (P - 1, 3)] {
            assert_eq!(multi_pow(&f, &[b], &[e]), f.pow(b, e));
        }
    }

    #[test]
    #[should_panic(expected = "one exponent per base")]
    fn length_mismatch_panics() {
        let f = PrimeField::new(P).unwrap();
        let _ = multi_pow(&f, &[1, 2], &[3]);
    }

    #[test]
    fn saves_multiplications_over_naive() {
        let f = PrimeField::new(P).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let bases: Vec<u64> = (0..16).map(|_| f.rand_nonzero(&mut rng)).collect();
        let exps: Vec<u64> = (0..16).map(|_| f.rand_element(&mut rng)).collect();
        ops::reset_ops();
        let fast = multi_pow(&f, &bases, &exps);
        let fast_muls = ops::take_ops().mul;
        let slow = naive(&f, &bases, &exps);
        let slow_muls = ops::take_ops().mul;
        assert_eq!(fast, slow);
        assert!(
            fast_muls * 2 < slow_muls,
            "expected ≥2x saving, got {fast_muls} vs {slow_muls}"
        );
    }

    /// The naive product over the plain `u128 %` reference arithmetic.
    fn reference(p: u64, bases: &[u64], exps: &[u64]) -> u64 {
        bases.iter().zip(exps).fold(1u64, |acc, (&b, &e)| {
            arith::mul_mod(acc, arith::pow_mod(b, e, p), p)
        })
    }

    #[test]
    #[should_panic(expected = "one exponent per base")]
    fn joint_ladder_length_mismatch_panics() {
        let f = PrimeField::new(P).unwrap();
        let _ = joint_multi_pow(&f, [&[1, 2], &[3]], &[4, 5]);
    }

    proptest! {
        #[test]
        fn ladders_match_reference_on_every_modulus(
            seed in 0u64..10_000,
            k in 0usize..10,
            bits in 0u32..64,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // Exponents of every width, up to the full 64 bits.
            let exps: Vec<u64> = (0..k).map(|_| rand::Rng::gen::<u64>(&mut rng) >> bits).collect();
            for f in crate::field::tests::reference_fields() {
                let p = f.modulus();
                let columns: [Vec<u64>; 3] = std::array::from_fn(|_| {
                    (0..k).map(|_| f.rand_element(&mut rng)).collect()
                });
                let [o, q, r] = &columns;
                ops::reset_ops();
                let single = multi_pow(f, o, &exps);
                let single_muls = ops::take_ops().mul;
                let joint = joint_multi_pow(f, [o, q, r], &exps);
                let joint_muls = ops::take_ops().mul;
                prop_assert_eq!(single, reference(p, o, &exps), "p = {}", p);
                prop_assert_eq!(
                    joint,
                    [reference(p, o, &exps), reference(p, q, &exps), reference(p, r, &exps)],
                    "p = {}", p
                );
                prop_assert_eq!(joint_muls, 3 * single_muls);
            }
        }

        #[test]
        fn matches_naive_product(
            seed in 0u64..10_000,
            k in 1usize..12,
        ) {
            let f = PrimeField::new(P).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let bases: Vec<u64> = (0..k).map(|_| f.rand_nonzero(&mut rng)).collect();
            let exps: Vec<u64> = (0..k).map(|_| f.rand_element(&mut rng)).collect();
            prop_assert_eq!(multi_pow(&f, &bases, &exps), naive(&f, &bases, &exps));
        }

        #[test]
        fn exponent_zero_bases_are_ignored(seed in 0u64..1000) {
            let f = PrimeField::new(P).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let b = f.rand_nonzero(&mut rng);
            let e = f.rand_element(&mut rng);
            prop_assert_eq!(
                multi_pow(&f, &[b, 999], &[e, 0]),
                f.pow(b, e)
            );
        }
    }
}
