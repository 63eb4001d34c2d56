//! Group-operation counters.
//!
//! The paper's efficiency analysis (§4) and every batching optimisation in
//! this workspace are stated in terms of *group operations* — elliptic-curve
//! point additions and doublings, the unit in which `verify-poly` /
//! `verify-point` costs are measured. The curve layer records each projective
//! addition and doubling in a thread-local counter so tests and benchmarks
//! can assert claims like "batched verification of 256 shares performs fewer
//! group operations than 256 individual `verify-point` calls" directly,
//! instead of inferring them from wall-clock noise.
//!
//! Counters are thread-local: deterministic under `cargo test`'s
//! multi-threaded runner, and a `Cell` bump is ~1ns against the ~µs cost of
//! the point operation being counted.

use core::cell::Cell;

thread_local! {
    static ADDS: Cell<u64> = const { Cell::new(0) };
    static DOUBLES: Cell<u64> = const { Cell::new(0) };
    static DECOMPRESSIONS: Cell<u64> = const { Cell::new(0) };
}

/// A snapshot of the group-operation counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OpCount {
    /// Projective point additions performed.
    pub adds: u64,
    /// Projective point doublings performed.
    pub doubles: u64,
}

impl OpCount {
    /// Total group operations (additions + doublings).
    pub fn total(&self) -> u64 {
        self.adds + self.doubles
    }
}

impl core::ops::Sub for OpCount {
    type Output = OpCount;
    fn sub(self, earlier: OpCount) -> OpCount {
        OpCount {
            adds: self.adds.wrapping_sub(earlier.adds),
            doubles: self.doubles.wrapping_sub(earlier.doubles),
        }
    }
}

impl core::ops::Add for OpCount {
    type Output = OpCount;
    fn add(self, other: OpCount) -> OpCount {
        OpCount {
            adds: self.adds.wrapping_add(other.adds),
            doubles: self.doubles.wrapping_add(other.doubles),
        }
    }
}

/// Reads the current thread's counters.
pub fn snapshot() -> OpCount {
    OpCount {
        adds: ADDS.with(Cell::get),
        doubles: DOUBLES.with(Cell::get),
    }
}

/// Resets the current thread's counters to zero.
pub fn reset() {
    ADDS.with(|c| c.set(0));
    DOUBLES.with(|c| c.set(0));
}

/// Runs `f` and returns its result together with the operations it performed
/// on this thread (counters are left running, not reset).
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, OpCount) {
    let before = snapshot();
    let value = f();
    (value, snapshot() - before)
}

/// Point decompressions (one field square root each) performed on this
/// thread by `GroupElement::from_bytes` since the thread started. Kept apart
/// from [`OpCount`]: a decompression is codec work, not a group operation,
/// and the group-operation totals pinned across the workspace must not move
/// with it. Compare two readings to count a region's decompressions.
pub fn decompressions() -> u64 {
    DECOMPRESSIONS.with(Cell::get)
}

#[inline]
pub(crate) fn record_decompression() {
    DECOMPRESSIONS.with(|c| c.set(c.get().wrapping_add(1)));
}

#[inline]
pub(crate) fn record_add() {
    ADDS.with(|c| c.set(c.get().wrapping_add(1)));
}

#[inline]
pub(crate) fn record_double() {
    DOUBLES.with(|c| c.set(c.get().wrapping_add(1)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GroupElement, PrimeField, ProjectivePoint, Scalar};

    #[test]
    fn measure_counts_point_work() {
        let g = ProjectivePoint::generator();
        let (_, ops) = measure(|| {
            let mut acc = g;
            for _ in 0..5 {
                acc = acc.double();
            }
            acc + g
        });
        assert_eq!(ops.doubles, 5);
        assert_eq!(ops.adds, 1);
        assert_eq!(ops.total(), 6);
    }

    #[test]
    fn scalar_mul_costs_scale_with_bits() {
        // Warm the fixed-base generator table so its one-time construction
        // cost does not land inside the measured region.
        let _ = GroupElement::commit(&Scalar::one());
        let (_, small) = measure(|| GroupElement::generator().mul(&Scalar::from_u64(3)));
        let big = Scalar::from_u64(u64::MAX) * Scalar::from_u64(u64::MAX);
        let (_, large) = measure(|| GroupElement::generator().mul(&big));
        assert!(large.total() > small.total());
    }
}
