//! Thread-local modular-operation counters.
//!
//! The paper's Table 1 bounds DMW's per-agent computation by `O(mn² log p)`
//! counted in modular multiplications (with an inversion costed as one
//! multiplication, Section 2.4). These counters record every primitive
//! operation executed by [`crate::arith`] so the reproduction harness can
//! measure that bound empirically rather than assert it.
//!
//! [`crate::PrimeField`], [`crate::Poly::eval`] and [`crate::multiexp`]
//! multiply in Montgomery form and record the same counts as the
//! [`crate::arith`] reference: one `mul` per ladder or Horner step or
//! field multiplication. Converting a value into
//! or out of Montgomery form is a change of representation, not a step of
//! the paper's cost model, and is not counted. Ladders tally their steps
//! locally and flush the total once.
//!
//! A [`crate::multiexp::ExponentPlan`] records its chain's multiplications
//! once per evaluated column, i.e. `muls() · W` for `W` columns.
//!
//! A [`crate::fixed_base::FixedBase`] table is counted the same way: its
//! build records one `mul` per Montgomery product, i.e.
//! `⌈bits(q − 1) / W⌉ · (2^W − 1) − 1` for the window width `W`; each
//! exponent evaluated through a table records one `pow` and one `mul` per
//! non-zero `W`-bit digit of the exponent (reduced mod `q`), and no
//! squarings. A product over several tables shares one accumulator, so
//! `z1^a · z2^b` records two `pow`s and no combining multiplication.
//!
//! Counters are thread-local. Code that fans work out to worker threads
//! (the `dmw` runner polling a tick's agents in parallel, or a batch of
//! trials) measures each worker's delta with [`current_ops`] and
//! [`OpsSnapshot::since`], and after joining adds every delta to the
//! starting thread's counters with [`add`]. So a region bracketed on one
//! thread counts the operations of every worker it started, and the count
//! does not depend on how many workers ran. A bracketed protocol run thus
//! measures the whole protocol; the per-agent figure is obtained by
//! dividing by `n` (all agents perform symmetric work in DMW) or by
//! running a single audited agent. Typical usage brackets a region of
//! interest:
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

/// Records `count` multiplications at once, for ladders that tally their
/// steps locally and flush the total when they finish.
#[inline]
pub(crate) fn record_muls(count: u64) {
    MUL.with(|c| c.set(c.get().wrapping_add(count)));
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

/// Records `count` exponentiations at once, for products over several
/// fixed-base tables.
#[inline]
pub(crate) fn record_pows(count: u64) {
    POW.with(|c| c.set(c.get().wrapping_add(count)));
}

/// Resets this thread's counters to zero.
pub fn reset_ops() {
    MUL.with(|c| c.set(0));
    ADD.with(|c| c.set(0));
    INV.with(|c| c.set(0));
    POW.with(|c| c.set(0));
}

/// Adds `delta` to this thread's counters: a fan-out hands the operations
/// its worker threads counted back to the thread that started them.
pub fn add(delta: OpsSnapshot) {
    MUL.with(|c| c.set(c.get().wrapping_add(delta.mul)));
    ADD.with(|c| c.set(c.get().wrapping_add(delta.add)));
    INV.with(|c| c.set(c.get().wrapping_add(delta.inv)));
    POW.with(|c| c.set(c.get().wrapping_add(delta.pow)));
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
        const P: u64 = 0x7FFF_FFFF_FFFF_FFE7;
        reset_ops();
        arith::pow_mod(3, (1 << 20) - 1, P);
        let snap = take_ops();
        assert_eq!(snap.pow, 1);
        // 20 one-bits -> 20 result muls + 19 squarings.
        assert_eq!(snap.mul, 39);
        // The Montgomery ladder of `PrimeField::pow` records the same
        // counts; its conversions in and out are not multiplications.
        let field = crate::PrimeField::new(P).unwrap();
        for exp in [0, 1, 2, 3, (1 << 20) - 1, 1 << 40, P - 1, u64::MAX] {
            field.pow(3, exp);
            let montgomery = take_ops();
            arith::pow_mod(3, exp, P);
            assert_eq!(montgomery, take_ops(), "exponent {exp}");
        }
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
    fn add_merges_a_delta_into_this_thread() {
        reset_ops();
        arith::mul_mod(2, 3, 7);
        let delta = OpsSnapshot {
            mul: 5,
            add: 1,
            inv: 2,
            pow: 3,
        };
        add(delta);
        assert_eq!(
            take_ops(),
            OpsSnapshot {
                mul: 6,
                add: 1,
                inv: 2,
                pow: 3
            }
        );
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
