//! Simultaneous multi-exponentiation (Shamir's trick).
//!
//! The hottest operation in DMW is evaluating a commitment vector "in the
//! exponent": `Π_ℓ v_ℓ^{e_ℓ} (mod p)` with `σ = n` bases — it appears in
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
//! `≈ log p · (1 + k/2)`, roughly a 3× saving for large `k`. The
//! `primitives` bench measures the gap; the correctness proptest pins the
//! identity against the naive product.

use crate::field::PrimeField;

/// Computes `Π bases[i]^{exps[i]}` in `field` by interleaved
/// square-and-multiply.
///
/// # Panics
///
/// Panics if the slices differ in length or any base is not a canonical
/// field element.
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
    assert_eq!(bases.len(), exps.len(), "one exponent per base");
    debug_assert!(bases.iter().all(|&b| field.contains(b)));
    let top_bit = match exps.iter().map(|e| 64 - e.leading_zeros()).max() {
        None | Some(0) => return 1,
        Some(b) => b,
    };
    let mut acc = 1u64;
    for bit in (0..top_bit).rev() {
        acc = field.mul(acc, acc);
        for (&base, &exp) in bases.iter().zip(exps) {
            if (exp >> bit) & 1 == 1 {
                acc = field.mul(acc, base);
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
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

    proptest! {
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
