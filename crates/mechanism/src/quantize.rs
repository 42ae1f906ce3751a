//! Quantization of continuous execution times onto DMW's discrete bid set.
//!
//! DMW requires bids from `W = {w_1 < … < w_k}` with `0 < w < n − c + 1`
//! (Section 3, Notation): a bid is encoded as a polynomial degree, so only
//! `n − c` distinct levels exist. Real workloads have continuous times;
//! [`Quantizer`] maps them onto levels and back, and the
//! `ablation-quantize` experiment measures the makespan/payment distortion
//! this coarsening introduces — a cost of distribution that the paper does
//! not quantify.

use crate::error::MechanismError;
use crate::problem::ExecutionTimes;

/// A uniform quantizer mapping continuous times in `[lo, hi]` onto
/// `levels` discrete bid values `1..=levels`.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantizer {
    lo: f64,
    hi: f64,
    levels: usize,
}

impl Quantizer {
    /// Creates a quantizer over the closed range `[lo, hi]` with `levels`
    /// levels.
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::InvalidQuantization`] if `levels == 0` or
    /// the range is empty/not finite.
    pub fn new(lo: f64, hi: f64, levels: usize) -> Result<Self, MechanismError> {
        if levels == 0 || !lo.is_finite() || !hi.is_finite() || hi < lo {
            return Err(MechanismError::InvalidQuantization { levels });
        }
        Ok(Quantizer { lo, hi, levels })
    }

    /// Creates a quantizer spanning the value range of a continuous matrix.
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::InvalidQuantization`] if `levels == 0` or
    /// the matrix is empty or contains non-finite values.
    pub fn fit(times: &[Vec<f64>], levels: usize) -> Result<Self, MechanismError> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for row in times {
            for &v in row {
                if !v.is_finite() {
                    return Err(MechanismError::InvalidQuantization { levels });
                }
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        if !lo.is_finite() {
            return Err(MechanismError::InvalidQuantization { levels });
        }
        Quantizer::new(lo, hi, levels)
    }

    /// Number of levels (the size of the bid set `W`).
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Maps a continuous time to its level in `1..=levels` (clamping values
    /// outside the fitted range).
    pub fn level_of(&self, value: f64) -> u64 {
        if self.hi == self.lo {
            return 1;
        }
        let frac = ((value - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0);
        // Level 1 covers the lowest times.
        ((frac * self.levels as f64).floor() as u64 + 1).min(self.levels as u64)
    }

    /// The representative (midpoint) continuous time of a level, the value
    /// used when converting payments back to time units.
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside `1..=levels`.
    pub fn value_of(&self, level: u64) -> f64 {
        assert!(
            (1..=self.levels as u64).contains(&level),
            "level {level} outside 1..={}",
            self.levels
        );
        if self.hi == self.lo {
            return self.lo;
        }
        let width = (self.hi - self.lo) / self.levels as f64;
        self.lo + width * (level as f64 - 0.5)
    }

    /// Quantizes a full continuous matrix into an [`ExecutionTimes`] whose
    /// entries are levels in `1..=levels` — directly usable as DMW bids.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecutionTimes::from_rows`] validation.
    pub fn quantize(&self, times: &[Vec<f64>]) -> Result<ExecutionTimes, MechanismError> {
        let rows = times
            .iter()
            .map(|row| row.iter().map(|&v| self.level_of(v)).collect())
            .collect();
        ExecutionTimes::from_rows(rows)
    }

    /// Mean absolute relative error introduced by round-tripping every
    /// entry through its level representative — the distortion metric of
    /// the `ablation-quantize` experiment.
    pub fn distortion(&self, times: &[Vec<f64>]) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for row in times {
            for &v in row {
                let back = self.value_of(self.level_of(v));
                if v != 0.0 {
                    total += ((back - v) / v).abs();
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_validates() {
        assert!(Quantizer::new(0.0, 1.0, 0).is_err());
        assert!(Quantizer::new(1.0, 0.0, 4).is_err());
        assert!(Quantizer::new(0.0, f64::NAN, 4).is_err());
        assert!(Quantizer::new(0.0, 1.0, 4).is_ok());
        assert!(
            Quantizer::new(1.0, 1.0, 4).is_ok(),
            "degenerate range allowed"
        );
    }

    #[test]
    fn levels_partition_the_range() {
        let q = Quantizer::new(0.0, 10.0, 5).unwrap();
        assert_eq!(q.level_of(0.0), 1);
        assert_eq!(q.level_of(1.9), 1);
        assert_eq!(q.level_of(2.1), 2);
        assert_eq!(q.level_of(9.9), 5);
        assert_eq!(q.level_of(10.0), 5);
        // Clamping.
        assert_eq!(q.level_of(-5.0), 1);
        assert_eq!(q.level_of(50.0), 5);
    }

    #[test]
    fn representatives_are_midpoints() {
        let q = Quantizer::new(0.0, 10.0, 5).unwrap();
        assert!((q.value_of(1) - 1.0).abs() < 1e-12);
        assert!((q.value_of(5) - 9.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn value_of_rejects_out_of_range_level() {
        let q = Quantizer::new(0.0, 10.0, 5).unwrap();
        let _ = q.value_of(6);
    }

    #[test]
    fn fit_spans_data() {
        let data = vec![vec![3.0, 7.5], vec![1.0, 9.0]];
        let q = Quantizer::fit(&data, 4).unwrap();
        assert_eq!(q.level_of(1.0), 1);
        assert_eq!(q.level_of(9.0), 4);
        assert!(Quantizer::fit(&[vec![f64::INFINITY]], 4).is_err());
    }

    #[test]
    fn quantize_produces_valid_bid_matrix() {
        let data = vec![vec![3.0, 7.5], vec![1.0, 9.0]];
        let q = Quantizer::fit(&data, 4).unwrap();
        let m = q.quantize(&data).unwrap();
        assert!(m.iter().all(|(_, _, v)| (1..=4).contains(&v)));
    }

    #[test]
    fn degenerate_range_maps_everything_to_level_one() {
        let q = Quantizer::new(5.0, 5.0, 3).unwrap();
        assert_eq!(q.level_of(5.0), 1);
        assert_eq!(q.value_of(1), 5.0);
    }

    proptest! {
        #[test]
        fn finer_grids_do_not_increase_distortion(
            seed_vals in proptest::collection::vec(0.1f64..100.0, 4..20),
        ) {
            let data = vec![seed_vals.clone(), seed_vals.iter().map(|v| v * 1.5).collect()];
            let coarse = Quantizer::fit(&data, 2).unwrap().distortion(&data);
            let fine = Quantizer::fit(&data, 64).unwrap().distortion(&data);
            prop_assert!(fine <= coarse + 1e-9, "fine {fine} > coarse {coarse}");
        }

        #[test]
        fn level_roundtrip_stays_in_cell(v in 0.0f64..10.0) {
            let q = Quantizer::new(0.0, 10.0, 8).unwrap();
            let level = q.level_of(v);
            let back = q.value_of(level);
            // The representative lies within half a cell width of v.
            prop_assert!((back - v).abs() <= 10.0 / 8.0);
        }
    }
}
