//! Montgomery-form modular arithmetic for 256-bit prime moduli.
//!
//! [`crate::field::Scalar`] keeps its values in Montgomery form (`aR mod m`
//! with `R = 2^256`) and uses the CIOS (coarsely integrated operand
//! scanning) multiplication below; its parameters are derived once, at
//! first use. The base field [`crate::field::Fp`] does not: its prime has
//! special form and it keeps canonical residues, with these routines as
//! the oracle its tests check it against.

use crate::u256::{borrowing_sub, carrying_add, mul_add_carry, U256};
use crate::u512::U512;

/// Precomputed parameters for Montgomery arithmetic modulo a 256-bit prime.
#[derive(Debug, Clone, Copy)]
pub struct MontParams {
    /// The modulus `m` (must be odd).
    pub modulus: U256,
    /// `-m^{-1} mod 2^64`.
    pub inv: u64,
    /// `R mod m` where `R = 2^256` — the Montgomery form of 1.
    pub r1: U256,
    /// `R^2 mod m` — used to convert into Montgomery form.
    pub r2: U256,
}

impl MontParams {
    /// Derives the Montgomery parameters for an odd modulus.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is even or zero.
    pub fn new(modulus: U256) -> MontParams {
        assert!(
            modulus.is_odd(),
            "Montgomery arithmetic requires an odd modulus"
        );
        let inv = inv64(modulus.0[0]);
        // R mod m = 2^256 mod m.
        let r1 = U512::from_halves(U256::ZERO, U256::ONE).reduce_mod(&modulus);
        // R^2 mod m = (R mod m)^2 * 1 ... compute as (2^256 mod m)^2 mod m.
        let r2 = r1.mul_wide(&r1).reduce_mod(&modulus);
        MontParams {
            modulus,
            inv,
            r1,
            r2,
        }
    }

    /// Montgomery multiplication: returns `a * b * R^{-1} mod m`.
    #[inline]
    pub fn mont_mul(&self, a: &U256, b: &U256) -> U256 {
        let m = &self.modulus.0;
        let mut t = [0u64; 6];
        for i in 0..4 {
            // t += a[i] * b
            let mut carry = 0u64;
            #[allow(clippy::needless_range_loop)]
            // CIOS inner product mirrors the textbook index form
            for j in 0..4 {
                let (lo, hi) = mul_add_carry(a.0[i], b.0[j], t[j], carry);
                t[j] = lo;
                carry = hi;
            }
            let (t4, c4) = carrying_add(t[4], carry, false);
            t[4] = t4;
            t[5] = c4 as u64;

            // u = t[0] * inv mod 2^64; t += u * m; t >>= 64
            let u = t[0].wrapping_mul(self.inv);
            let (_, mut carry) = mul_add_carry(u, m[0], t[0], 0);
            for j in 1..4 {
                let (lo, hi) = mul_add_carry(u, m[j], t[j], carry);
                t[j - 1] = lo;
                carry = hi;
            }
            let (t3, c3) = carrying_add(t[4], carry, false);
            t[3] = t3;
            let (t4, _) = carrying_add(t[5], c3 as u64, false);
            t[4] = t4;
            t[5] = 0;
        }
        let mut out = U256([t[0], t[1], t[2], t[3]]);
        // At this point the result is < 2m; subtract m if needed (t[4] is the
        // potential 257th bit).
        let (reduced, borrow) = out.sbb(&self.modulus);
        if t[4] != 0 || !borrow {
            out = reduced;
        }
        out
    }

    /// Converts an integer (already reduced mod `m`) into Montgomery form.
    #[inline]
    pub fn to_mont(&self, a: &U256) -> U256 {
        self.mont_mul(a, &self.r2)
    }

    /// Converts a Montgomery-form value back to a plain integer.
    #[inline]
    pub fn from_mont(&self, a: &U256) -> U256 {
        self.mont_mul(a, &U256::ONE)
    }

    /// Modular addition of two Montgomery-form values.
    #[inline]
    pub fn add(&self, a: &U256, b: &U256) -> U256 {
        a.add_mod(b, &self.modulus)
    }

    /// Modular subtraction of two Montgomery-form values.
    #[inline]
    pub fn sub(&self, a: &U256, b: &U256) -> U256 {
        a.sub_mod(b, &self.modulus)
    }

    /// Modular negation of a Montgomery-form value.
    #[inline]
    pub fn neg(&self, a: &U256) -> U256 {
        if a.is_zero() {
            U256::ZERO
        } else {
            self.modulus.wrapping_sub(a)
        }
    }
}

/// Computes `-m^{-1} mod 2^64` for odd `m` by Newton iteration.
pub fn inv64(m: u64) -> u64 {
    debug_assert!(m & 1 == 1);
    // Newton's method doubles the number of correct bits each step.
    let mut inv = 1u64;
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inv)));
    }
    inv.wrapping_neg()
}

/// Helper exposing `borrowing_sub` to keep clippy quiet about unused import in
/// release builds (used by `mont_mul` through `U256::sbb`).
#[allow(dead_code)]
fn _uses(a: u64, b: u64) -> (u64, bool) {
    borrowing_sub(a, b, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> MontParams {
        // A small odd prime that still exercises the 4-limb code path.
        MontParams::new(U256::from_u64(1_000_000_007))
    }

    #[test]
    fn inv64_is_negative_inverse() {
        for m in [1u64, 3, 5, 0xffff_ffff_ffff_ffc5, 0x1000_0000_0000_0001] {
            let inv = inv64(m);
            // m * inv ≡ -1 mod 2^64
            assert_eq!(m.wrapping_mul(inv).wrapping_add(1), 0);
        }
    }

    #[test]
    fn mont_roundtrip() {
        let p = small_params();
        let a = U256::from_u64(123_456_789);
        let am = p.to_mont(&a);
        assert_eq!(p.from_mont(&am), a);
    }

    #[test]
    fn mont_mul_matches_u128_reference() {
        let p = small_params();
        let m = 1_000_000_007u128;
        for (x, y) in [(2u64, 3u64), (999_999_999, 999_999_998), (500_000_000, 2)] {
            let a = p.to_mont(&U256::from_u64(x));
            let b = p.to_mont(&U256::from_u64(y));
            let prod = p.from_mont(&p.mont_mul(&a, &b));
            assert_eq!(prod, U256::from_u64(((x as u128 * y as u128) % m) as u64));
        }
    }

    #[test]
    fn add_sub_neg() {
        let p = small_params();
        let a = U256::from_u64(7);
        let b = U256::from_u64(1_000_000_000);
        let sum = p.add(&a, &b);
        assert_eq!(sum, U256::from_u64(0)); // 7 + 1e9 = 1_000_000_007 ≡ 0
        assert_eq!(p.sub(&a, &b), U256::from_u64(14));
        assert_eq!(p.neg(&U256::from_u64(1)), U256::from_u64(1_000_000_006));
        assert_eq!(p.neg(&U256::ZERO), U256::ZERO);
    }

    #[test]
    fn works_with_secp256k1_prime() {
        let modulus =
            U256::from_hex("FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F")
                .unwrap();
        let p = MontParams::new(modulus);
        let a = U256::from_hex("79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798")
            .unwrap();
        let am = p.to_mont(&a);
        assert_eq!(p.from_mont(&am), a);
        // a * 1 == a
        let one = p.to_mont(&U256::ONE);
        assert_eq!(p.from_mont(&p.mont_mul(&am, &one)), a);
    }
}
