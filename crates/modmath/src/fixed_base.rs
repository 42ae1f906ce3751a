//! Fixed-base exponentiation from a precomputed window table
//! (Brickell, Gordon, McCurley and Wilson, "Fast exponentiation with
//! precomputation", EUROCRYPT 1992).
//!
//! A base raised many times pays for one table and then needs no
//! squarings: with `W`-bit windows, entry `[j][d − 1]` holds
//! `base^{d·2^{W·j}}`, so `base^e = Π_j entry[j][e_j − 1]` over the
//! non-zero `W`-bit digits `e_j` of `e`. DMW raises the same few bases
//! over and over: the generators `z1`, `z2` in every commitment and
//! share check ([`crate::SchnorrGroup`]), and each published `Λ_k` once
//! per candidate degree of the equation (12) scan, the fallback of the
//! search that resolves equation (12) when its first test fails.
//!
//! Exponents live in `Z_q` (`q` the order of the subgroup the bases come
//! from): [`FixedBase::pow`] and [`FixedBase::product`] reduce an exponent
//! mod `q` first, which is exact for a base of order `q` and the identity
//! for an exponent already below `q`. The table covers `bits(q − 1)` bits
//! in `⌈bits(q − 1) / W⌉` windows of `2^W − 1` entries each.
//!
//! Entries are Montgomery representatives (see [`crate::field`]). The
//! counts follow [`crate::ops`]: building a table records one `mul` per
//! entry after the first; evaluating an exponent records one `pow` and
//! one `mul` per non-zero digit.

use crate::field::PrimeField;
use crate::ops;

/// The window width `W` in bits. At `|q| = 24` a table has 90 entries and
/// an exponent costs at most 6 multiplications. Chosen by measurement: a
/// traced perfbench `wide-n64` run (n = 64, |q| = 24) records 29.9 M,
/// 29.6 M and 30.2 M multiplications at `W` = 3, 4 and 5, and `W = 4`
/// ran at least as fast as the others on `wide-n64` and `honest-n32`.
/// `W = 3` (56-entry tables) records fewer in the Table 1 n-sweep up to
/// n = 32, where each `Λ` table serves few candidate degrees, and more
/// from n = 48 on.
const WINDOW: u32 = 4;

/// Non-zero digits per window, i.e. entries per table row.
const DIGITS: usize = (1 << WINDOW) - 1;

/// Mask selecting one window's digit.
const DIGIT_MASK: u64 = (1 << WINDOW) - 1;

/// The window table of one base in `Z_p*`, for exponents in `Z_q`.
///
/// # Example
/// ```
/// use dmw_modmath::{fixed_base::FixedBase, PrimeField};
///
/// let zp = PrimeField::new(1019)?;
/// let zq = PrimeField::new(509)?; // 509 | 1019 − 1
/// let base = zp.pow(2, 2); // an element of order 509
/// let table = FixedBase::new(&zp, base, &zq);
/// assert_eq!(table.pow(&zp, 300), zp.pow(base, 300));
/// assert_eq!(table.pow(&zp, 509 + 7), zp.pow(base, 7)); // reduced mod q
/// # Ok::<(), dmw_modmath::ModMathError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedBase {
    /// Row `j` holds `base^{d·2^{W·j}}` for `d = 1 ..= 2^W − 1`, in
    /// Montgomery form.
    rows: Vec<[u64; DIGITS]>,
    /// The exponent modulus `q`.
    order: u64,
}

impl FixedBase {
    /// Builds the table of `base` in `field` (`Z_p`) for exponents in
    /// `exponents` (`Z_q`). Any `u64` base is accepted and taken mod `p`.
    ///
    /// Records `⌈bits(q − 1) / W⌉ · (2^W − 1) − 1` multiplications.
    pub fn new(field: &PrimeField, base: u64, exponents: &PrimeField) -> Self {
        let order = exponents.modulus();
        let bits = 64 - (order - 1).leading_zeros();
        let windows = bits.div_ceil(WINDOW);
        let mut rows = Vec::with_capacity(windows as usize);
        // `unit` is `base^{2^{W·j}}`, the first entry of row `j`; `power`
        // walks along the row.
        let mut unit = field.mont_in(base);
        let mut power = unit;
        for j in 0..windows {
            if j > 0 {
                // `base^{(2^W − 1)·2^{W·(j−1)}} · base^{2^{W·(j−1)}}`.
                unit = field.mont_mul(power, unit);
                power = unit;
            }
            let mut row = [unit; DIGITS];
            for entry in row.iter_mut().skip(1) {
                power = field.mont_mul(power, unit);
                *entry = power;
            }
            rows.push(row);
        }
        ops::record_muls(u64::from(windows) * DIGITS as u64 - 1);
        FixedBase { rows, order }
    }

    /// `base^{exp mod q}`. Records one `pow` and one `mul` per non-zero
    /// `W`-bit digit of `exp mod q`.
    pub fn pow(&self, field: &PrimeField, exp: u64) -> u64 {
        Self::product(field, [(self, exp)])
    }

    /// `Π_i base_i^{exp_i mod q}` over `(table, exponent)` pairs, with one
    /// accumulator shared by every term. Every table must belong to
    /// `field`. Records one `pow` per term and one `mul` per non-zero
    /// digit; the empty product is `1`.
    pub fn product<'a>(
        field: &PrimeField,
        terms: impl IntoIterator<Item = (&'a FixedBase, u64)>,
    ) -> u64 {
        let mut acc = field.mont_one();
        let (mut muls, mut pows) = (0u64, 0u64);
        for (table, exp) in terms {
            pows += 1;
            let mut rest = if exp >= table.order {
                exp % table.order
            } else {
                exp
            };
            for row in &table.rows {
                let digit = usize::try_from(rest & DIGIT_MASK).unwrap_or(0);
                if let Some(&entry) = digit.checked_sub(1).and_then(|d| row.get(d)) {
                    acc = field.mont_mul(acc, entry);
                    muls += 1;
                }
                rest >>= WINDOW;
            }
            debug_assert_eq!(rest, 0, "the table covers every exponent below q");
        }
        ops::record_pows(pows);
        ops::record_muls(muls);
        field.mont_out(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith;
    use crate::field::tests::reference_fields;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The largest 64-bit prime: as an exponent field it admits exponents
    /// of every width up to 64 bits without reduction.
    fn wide_exponents() -> PrimeField {
        PrimeField::new(0xFFFF_FFFF_FFFF_FFC5).unwrap()
    }

    /// The `ops` formula: one `mul` per non-zero `W`-bit digit.
    fn digit_muls(exp: u64) -> u64 {
        (0..64)
            .step_by(WINDOW as usize)
            .filter(|&shift| (exp >> shift) & DIGIT_MASK != 0)
            .count() as u64
    }

    #[test]
    fn build_records_one_mul_per_entry_after_the_first() {
        let zp = reference_fields()[3];
        for (q, windows) in [
            (3u64, 1u64),
            (13, 1),
            (17, 2),
            (1031, 3),
            (0xFFFF_FFFF_FFFF_FFC5, 16),
        ] {
            let zq = PrimeField::new(q).unwrap();
            ops::reset_ops();
            let table = FixedBase::new(&zp, 5, &zq);
            let built = ops::take_ops();
            assert_eq!(table.rows.len() as u64, windows, "q = {q}");
            assert_eq!(built.mul, windows * DIGITS as u64 - 1, "q = {q}");
            assert_eq!(built.pow, 0);
        }
    }

    #[test]
    fn edge_exponents_match_reference() {
        let zq = wide_exponents();
        for f in reference_fields() {
            let p = f.modulus();
            for base in [0, 1, 2, p - 1] {
                let table = FixedBase::new(f, base, &zq);
                for exp in [
                    0,
                    1,
                    DIGIT_MASK,
                    DIGIT_MASK + 1,
                    0x00F0_F0F0,
                    u64::MAX >> 1,
                    zq.modulus() - 1,
                ] {
                    ops::reset_ops();
                    let fast = table.pow(f, exp);
                    let counted = ops::take_ops();
                    assert_eq!(fast, arith::pow_mod(base, exp, p), "{base}^{exp} mod {p}");
                    assert_eq!(counted.pow, 1);
                    assert_eq!(counted.mul, digit_muls(exp), "exponent {exp:#x}");
                }
            }
        }
    }

    #[test]
    fn exponents_reduce_mod_q() {
        // 2² = 4 has order 509 in Z_1019*.
        let zp = PrimeField::new(1019).unwrap();
        let zq = PrimeField::new(509).unwrap();
        let table = FixedBase::new(&zp, 4, &zq);
        for exp in [509, 509 + 5, u64::MAX] {
            assert_eq!(table.pow(&zp, exp), zp.pow(4, exp), "exponent {exp}");
            assert_eq!(table.pow(&zp, exp), zp.pow(4, exp % 509));
        }
    }

    #[test]
    fn bases_at_or_above_p_are_taken_mod_p() {
        let zq = wide_exponents();
        for f in reference_fields() {
            let p = f.modulus();
            for base in [p, p + 3, u64::MAX] {
                let table = FixedBase::new(f, base, &zq);
                assert_eq!(table.pow(f, 12345), arith::pow_mod(base % p, 12345, p));
            }
        }
    }

    #[test]
    fn empty_product_is_one() {
        let f = reference_fields()[2];
        ops::reset_ops();
        assert_eq!(FixedBase::product(&f, []), 1);
        assert_eq!(ops::take_ops(), ops::OpsSnapshot::default());
    }

    proptest! {
        #[test]
        fn pow_and_product_match_reference_on_every_modulus(
            seed in 0u64..10_000,
            k in 0usize..8,
            bits in 0u32..64,
        ) {
            let zq = wide_exponents();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // Exponents of every width, all below the exponent modulus.
            let exps: Vec<u64> = (0..k)
                .map(|_| (rng.gen::<u64>() >> bits) % zq.modulus())
                .collect();
            for f in reference_fields() {
                let p = f.modulus();
                let bases: Vec<u64> = (0..k).map(|_| f.rand_element(&mut rng)).collect();
                let tables: Vec<FixedBase> =
                    bases.iter().map(|&b| FixedBase::new(f, b, &zq)).collect();
                ops::reset_ops();
                let product = FixedBase::product(f, tables.iter().zip(exps.iter().copied()));
                let counted = ops::take_ops();
                let reference = bases.iter().zip(&exps).fold(1, |acc, (&b, &e)| {
                    arith::mul_mod(acc, arith::pow_mod(b, e, p), p)
                });
                prop_assert_eq!(product, reference, "p = {}", p);
                prop_assert_eq!(counted.pow, k as u64);
                prop_assert_eq!(counted.mul, exps.iter().map(|&e| digit_muls(e)).sum::<u64>());
                for ((table, &b), &e) in tables.iter().zip(&bases).zip(&exps) {
                    prop_assert_eq!(table.pow(f, e), arith::pow_mod(b, e, p));
                }
            }
        }
    }
}
