//! Thread-local modular-operation counters.
//!
//! The paper's Table 1 bounds DMW's per-agent computation by `O(mn² log p)`
//! counted in modular multiplications (with an inversion costed as one
//! multiplication, Section 2.4). These counters record every primitive
//! operation executed by [`crate::arith`] so the reproduction harness can
//! measure that bound empirically rather than assert it.
//!
//! Counters are thread-local: a simulation driving `n` agents on one thread
//! measures the whole protocol; the per-agent figure is obtained by dividing
//! by `n` (all agents perform symmetric work in DMW) or by running a single
//! audited agent. Typical usage brackets a region of interest:
//!
//! ```
//! use dmw_modmath::{ops, arith};
//!
//! ops::reset_ops();
//! arith::mul_mod(3, 4, 7);
//! arith::pow_mod(2, 10, 101);
//! let snap = ops::take_ops();
//! assert_eq!(snap.pow, 1);
//! assert!(snap.mul > 1); // the explicit mul + the muls inside pow
//! ```

use std::cell::Cell;

thread_local! {
    static MUL: Cell<u64> = const { Cell::new(0) };
    static ADD: Cell<u64> = const { Cell::new(0) };
    static INV: Cell<u64> = const { Cell::new(0) };
    static POW: Cell<u64> = const { Cell::new(0) };
}

/// A snapshot of the thread-local operation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpsSnapshot {
    /// Modular multiplications, including those performed inside
    /// exponentiations (this is where the `log p` factor of Table 1 lives).
    pub mul: u64,
    /// Modular additions and subtractions.
    pub add: u64,
    /// Modular inversions (extended Euclid invocations).
    pub inv: u64,
    /// Modular exponentiations (each also contributes its internal
    /// multiplications to `mul`).
    pub pow: u64,
}

impl OpsSnapshot {
    /// Total work in "multiplication equivalents" under the paper's cost
    /// model, which prices an inversion the same as a multiplication
    /// (Section 2.4) and ignores additions.
    ///
    /// # Example
    /// ```
    /// let snap = dmw_modmath::OpsSnapshot { mul: 10, add: 99, inv: 2, pow: 1 };
    /// assert_eq!(snap.mul_equivalents(), 12);
    /// ```
    pub fn mul_equivalents(&self) -> u64 {
        self.mul + self.inv
    }

    /// Element-wise difference, saturating at zero; useful for measuring a
    /// region when `reset_ops` cannot be called (e.g. nested measurements).
    pub fn since(&self, earlier: &OpsSnapshot) -> OpsSnapshot {
        OpsSnapshot {
            mul: self.mul.saturating_sub(earlier.mul),
            add: self.add.saturating_sub(earlier.add),
            inv: self.inv.saturating_sub(earlier.inv),
            pow: self.pow.saturating_sub(earlier.pow),
        }
    }
}

impl std::ops::Add for OpsSnapshot {
    type Output = OpsSnapshot;

    fn add(self, rhs: OpsSnapshot) -> OpsSnapshot {
        OpsSnapshot {
            mul: self.mul + rhs.mul,
            add: self.add + rhs.add,
            inv: self.inv + rhs.inv,
            pow: self.pow + rhs.pow,
        }
    }
}

#[inline]
pub(crate) fn record_mul() {
    MUL.with(|c| c.set(c.get().wrapping_add(1)));
}

#[inline]
pub(crate) fn record_add() {
    ADD.with(|c| c.set(c.get().wrapping_add(1)));
}

#[inline]
pub(crate) fn record_inv() {
    INV.with(|c| c.set(c.get().wrapping_add(1)));
}

#[inline]
pub(crate) fn record_pow() {
    POW.with(|c| c.set(c.get().wrapping_add(1)));
}

/// Resets this thread's counters to zero.
pub fn reset_ops() {
    MUL.with(|c| c.set(0));
    ADD.with(|c| c.set(0));
    INV.with(|c| c.set(0));
    POW.with(|c| c.set(0));
}

/// Returns the current counters without resetting them.
pub fn current_ops() -> OpsSnapshot {
    OpsSnapshot {
        mul: MUL.with(Cell::get),
        add: ADD.with(Cell::get),
        inv: INV.with(Cell::get),
        pow: POW.with(Cell::get),
    }
}

/// Returns the current counters and resets them to zero.
pub fn take_ops() -> OpsSnapshot {
    let snap = current_ops();
    reset_ops();
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith;

    #[test]
    fn counters_track_primitive_ops() {
        reset_ops();
        arith::mul_mod(2, 3, 7);
        arith::add_mod(2, 3, 7);
        arith::sub_mod(2, 3, 7);
        arith::inv_mod(3, 7);
        let snap = take_ops();
        assert_eq!(snap.mul, 1);
        assert_eq!(snap.add, 2);
        assert_eq!(snap.inv, 1);
        assert_eq!(snap.pow, 0);
    }

    #[test]
    fn pow_contributes_log_many_muls() {
        reset_ops();
        arith::pow_mod(3, (1 << 20) - 1, 0x7FFF_FFFF_FFFF_FFE7);
        let snap = take_ops();
        assert_eq!(snap.pow, 1);
        // 20 one-bits -> 20 result muls + 19 squarings.
        assert_eq!(snap.mul, 39);
    }

    #[test]
    fn take_resets() {
        reset_ops();
        arith::mul_mod(2, 3, 7);
        let _ = take_ops();
        assert_eq!(current_ops(), OpsSnapshot::default());
    }

    #[test]
    fn since_subtracts() {
        reset_ops();
        arith::mul_mod(2, 3, 7);
        let first = current_ops();
        arith::mul_mod(2, 3, 7);
        arith::mul_mod(2, 3, 7);
        let second = current_ops();
        assert_eq!(second.since(&first).mul, 2);
        reset_ops();
    }

    #[test]
    fn snapshots_sum() {
        let a = OpsSnapshot {
            mul: 1,
            add: 2,
            inv: 3,
            pow: 4,
        };
        let b = OpsSnapshot {
            mul: 10,
            add: 20,
            inv: 30,
            pow: 40,
        };
        let s = a + b;
        assert_eq!(
            s,
            OpsSnapshot {
                mul: 11,
                add: 22,
                inv: 33,
                pow: 44
            }
        );
    }
}
