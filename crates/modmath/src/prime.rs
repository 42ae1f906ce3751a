//! Primality testing and prime generation.
//!
//! DMW's setup phase publishes "large primes `p`, `q` such that `q | p − 1`"
//! (Section 3, Notation). This module supplies a deterministic Miller–Rabin
//! test — exact for every `u64` thanks to a known-sufficient witness set —
//! and random prime generation used by [`crate::group`] to build those
//! parameters.

use rand::Rng;

/// Witness set proven sufficient for deterministic Miller–Rabin on all
/// integers below 3.3 · 10^24 (Sorenson & Webster), which covers `u64`.
const WITNESSES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];

/// Multiplication that bypasses the [`crate::ops`] counters: primality
/// testing is *setup* work, not protocol work, and must not pollute the
/// Table 1 computation measurements.
#[inline]
fn mul_raw(a: u64, b: u64, m: u64) -> u64 {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "in range: the residue of `% m` is `< m <= u64::MAX`"
    )]
    {
        ((a as u128 * b as u128) % m as u128) as u64
    }
}

/// Exponentiation that bypasses the [`crate::ops`] counters.
fn pow_raw(base: u64, mut exp: u64, m: u64) -> u64 {
    if m == 1 {
        return 0;
    }
    let mut result: u64 = 1;
    let mut acc = base % m;
    while exp > 0 {
        if exp & 1 == 1 {
            result = mul_raw(result, acc, m);
        }
        exp >>= 1;
        if exp > 0 {
            acc = mul_raw(acc, acc, m);
        }
    }
    result
}

/// Returns `true` iff `n` is prime. Deterministic for all `u64` inputs.
///
/// # Example
/// ```
/// use dmw_modmath::prime::is_prime;
/// assert!(is_prime(1031));
/// assert!(!is_prime(1033 * 1031));
/// ```
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for &p in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    // Write n − 1 = d · 2^s with d odd.
    let mut d = n - 1;
    let mut s = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    'witness: for &a in &WITNESSES {
        let mut x = pow_raw(a % n, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mul_raw(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Returns the smallest prime strictly greater than `n`, or `None` if it
/// would not fit in a `u64`.
///
/// # Example
/// ```
/// use dmw_modmath::prime::next_prime;
/// assert_eq!(next_prime(1024), Some(1031));
/// ```
pub fn next_prime(n: u64) -> Option<u64> {
    let mut candidate = n.checked_add(1)?;
    if candidate <= 2 {
        return Some(2);
    }
    if candidate % 2 == 0 {
        candidate += 1;
    }
    loop {
        if is_prime(candidate) {
            return Some(candidate);
        }
        candidate = candidate.checked_add(2)?;
    }
}

/// Samples a uniformly random prime with exactly `bits` bits
/// (`2 ≤ bits ≤ 63`).
///
/// # Panics
///
/// Panics if `bits` is outside `[2, 63]`.
///
/// # Example
/// ```
/// use dmw_modmath::prime::{is_prime, random_prime};
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let p = random_prime(20, &mut rng);
/// assert!(is_prime(p));
/// assert_eq!(64 - p.leading_zeros(), 20);
/// ```
pub fn random_prime<R: Rng + ?Sized>(bits: u32, rng: &mut R) -> u64 {
    assert!(
        (2..=63).contains(&bits),
        "prime bit size must be in [2, 63]"
    );
    if bits == 2 {
        return if rng.gen_bool(0.5) { 2 } else { 3 };
    }
    let low = 1u64 << (bits - 1);
    let high = (1u64 << bits) - 1;
    loop {
        // Force the top and bottom bits so the candidate is odd and has the
        // requested size.
        let candidate = rng.gen_range(low..=high) | low | 1;
        if is_prime(candidate) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn small_primes_classified() {
        let primes = [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 1031];
        for p in primes {
            assert!(is_prime(p), "{p} should be prime");
        }
        let composites = [0u64, 1, 4, 6, 9, 15, 21, 25, 91, 1024, 561, 41041];
        for c in composites {
            assert!(!is_prime(c), "{c} should be composite");
        }
    }

    #[test]
    fn strong_pseudoprimes_rejected() {
        // Known strong pseudoprimes to small bases.
        for n in [2047u64, 3215031751, 3825123056546413051] {
            assert!(!is_prime(n), "{n} is a pseudoprime, not a prime");
        }
    }

    #[test]
    fn large_known_primes_accepted() {
        assert!(is_prime(0x7FFF_FFFF_FFFF_FFE7)); // 2^63 - 25
        assert!(is_prime(18_446_744_073_709_551_557)); // largest u64 prime
    }

    #[test]
    fn next_prime_walks_forward() {
        assert_eq!(next_prime(0), Some(2));
        assert_eq!(next_prime(2), Some(3));
        assert_eq!(next_prime(13), Some(17));
        assert_eq!(next_prime(u64::MAX), None);
        assert_eq!(
            next_prime(18_446_744_073_709_551_556),
            Some(18_446_744_073_709_551_557)
        );
    }

    #[test]
    fn random_prime_has_requested_size() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for bits in [2u32, 3, 8, 16, 31, 32, 48, 63] {
            let p = random_prime(bits, &mut rng);
            assert!(is_prime(p));
            assert_eq!(64 - p.leading_zeros(), bits, "p = {p}");
        }
    }

    #[test]
    #[should_panic(expected = "bit size")]
    fn random_prime_rejects_64_bits() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let _ = random_prime(64, &mut rng);
    }

    fn naive_is_prime(n: u64) -> bool {
        if n < 2 {
            return false;
        }
        let mut d = 2;
        while d * d <= n {
            if n.is_multiple_of(d) {
                return false;
            }
            d += 1;
        }
        true
    }

    proptest! {
        #[test]
        fn matches_trial_division(n in 0u64..200_000) {
            prop_assert_eq!(is_prime(n), naive_is_prime(n));
        }

        #[test]
        fn next_prime_is_prime_and_minimal(n in 0u64..100_000) {
            let p = next_prime(n).unwrap();
            prop_assert!(naive_is_prime(p));
            for between in (n + 1)..p {
                prop_assert!(!naive_is_prime(between));
            }
        }
    }
}
