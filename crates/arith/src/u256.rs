//! Fixed-width 256-bit unsigned integer arithmetic.
//!
//! [`U256`] is the raw integer type underlying both prime fields used by the
//! DKG (the secp256k1 base field and its scalar field). It is deliberately
//! minimal: only the operations needed by the field and curve layers are
//! provided, all of them constant-size and allocation-free.

use crate::u512::U512;
use core::cmp::Ordering;
use core::fmt;

/// A 256-bit unsigned integer stored as four 64-bit little-endian limbs.
///
/// `limbs[0]` is the least-significant limb.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct U256(pub [u64; 4]);

impl U256 {
    /// The value zero.
    pub const ZERO: U256 = U256([0, 0, 0, 0]);
    /// The value one.
    pub const ONE: U256 = U256([1, 0, 0, 0]);
    /// The maximum representable value, `2^256 - 1`.
    pub const MAX: U256 = U256([u64::MAX; 4]);

    /// Creates a value from four little-endian limbs.
    pub const fn from_limbs(limbs: [u64; 4]) -> Self {
        U256(limbs)
    }

    /// Creates a value from a `u64`.
    pub const fn from_u64(v: u64) -> Self {
        U256([v, 0, 0, 0])
    }

    /// Creates a value from a `u128`.
    pub const fn from_u128(v: u128) -> Self {
        U256([v as u64, (v >> 64) as u64, 0, 0])
    }

    /// Returns the little-endian limbs.
    pub const fn limbs(&self) -> [u64; 4] {
        self.0
    }

    /// Returns `true` if the value is zero.
    pub const fn is_zero(&self) -> bool {
        self.0[0] == 0 && self.0[1] == 0 && self.0[2] == 0 && self.0[3] == 0
    }

    /// Returns `true` if the value is odd.
    pub const fn is_odd(&self) -> bool {
        self.0[0] & 1 == 1
    }

    /// Returns the `i`-th bit (bit 0 is the least significant).
    pub const fn bit(&self, i: usize) -> bool {
        if i >= 256 {
            return false;
        }
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Bits `[start, start + width)` (`width ≤ 16`), zero above bit 255: the
    /// digit of a `width`-bit window starting at bit `start`.
    pub fn window(&self, start: usize, width: usize) -> usize {
        let limbs = self.limbs();
        let limb = |i: usize| u128::from(limbs.get(i).copied().unwrap_or(0));
        let (index, shift) = (start / 64, start % 64);
        let two_limbs = limb(index) | (limb(index + 1) << 64);
        (two_limbs >> shift) as usize & ((1 << width) - 1)
    }

    /// Returns the number of significant bits (the position of the highest
    /// set bit plus one), or 0 for the value zero.
    pub fn bits(&self) -> usize {
        for i in (0..4).rev() {
            if self.0[i] != 0 {
                return 64 * i + (64 - self.0[i].leading_zeros() as usize);
            }
        }
        0
    }

    /// Addition with carry-out. Returns `(sum mod 2^256, carry)`.
    pub const fn adc(&self, rhs: &U256) -> (U256, bool) {
        let (r0, c0) = carrying_add(self.0[0], rhs.0[0], false);
        let (r1, c1) = carrying_add(self.0[1], rhs.0[1], c0);
        let (r2, c2) = carrying_add(self.0[2], rhs.0[2], c1);
        let (r3, c3) = carrying_add(self.0[3], rhs.0[3], c2);
        (U256([r0, r1, r2, r3]), c3)
    }

    /// Subtraction with borrow-out. Returns `(diff mod 2^256, borrow)`.
    pub const fn sbb(&self, rhs: &U256) -> (U256, bool) {
        let (r0, b0) = borrowing_sub(self.0[0], rhs.0[0], false);
        let (r1, b1) = borrowing_sub(self.0[1], rhs.0[1], b0);
        let (r2, b2) = borrowing_sub(self.0[2], rhs.0[2], b1);
        let (r3, b3) = borrowing_sub(self.0[3], rhs.0[3], b2);
        (U256([r0, r1, r2, r3]), b3)
    }

    /// Wrapping addition (discards the carry).
    pub const fn wrapping_add(&self, rhs: &U256) -> U256 {
        self.adc(rhs).0
    }

    /// Wrapping subtraction (discards the borrow).
    pub const fn wrapping_sub(&self, rhs: &U256) -> U256 {
        self.sbb(rhs).0
    }

    /// Full 256×256 → 512-bit multiplication.
    pub fn mul_wide(&self, rhs: &U256) -> U512 {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u64;
            for j in 0..4 {
                let (lo, hi) = mul_add_carry(self.0[i], rhs.0[j], out[i + j], carry);
                out[i + j] = lo;
                carry = hi;
            }
            out[i + 4] = carry;
        }
        U512(out)
    }

    /// Squaring to a 512-bit result.
    pub fn square_wide(&self) -> U512 {
        self.mul_wide(self)
    }

    /// Logical left shift by `n < 256` bits.
    pub fn shl(&self, n: usize) -> U256 {
        debug_assert!(n < 256);
        if n == 0 {
            return *self;
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = [0u64; 4];
        for i in (limb_shift..4).rev() {
            out[i] = self.0[i - limb_shift] << bit_shift;
            if bit_shift > 0 && i > limb_shift {
                out[i] |= self.0[i - limb_shift - 1] >> (64 - bit_shift);
            }
        }
        U256(out)
    }

    /// Logical right shift by `n < 256` bits.
    pub fn shr(&self, n: usize) -> U256 {
        debug_assert!(n < 256);
        if n == 0 {
            return *self;
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = [0u64; 4];
        #[allow(clippy::needless_range_loop)] // offset indexing mirrors the limb-shift algorithm
        for i in 0..(4 - limb_shift) {
            out[i] = self.0[i + limb_shift] >> bit_shift;
            if bit_shift > 0 && i + limb_shift + 1 < 4 {
                out[i] |= self.0[i + limb_shift + 1] << (64 - bit_shift);
            }
        }
        U256(out)
    }

    /// Parses a big-endian 32-byte array.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> U256 {
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let start = 32 - 8 * (i + 1);
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[start..start + 8]);
            *limb = u64::from_be_bytes(chunk);
        }
        U256(limbs)
    }

    /// Serializes to a big-endian 32-byte array.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            let start = 32 - 8 * (i + 1);
            out[start..start + 8].copy_from_slice(&self.0[i].to_be_bytes());
        }
        out
    }

    /// Parses a (possibly shorter than 64 character) big-endian hex string.
    ///
    /// Returns `None` if the string contains non-hex characters or encodes a
    /// value wider than 256 bits.
    pub fn from_hex(s: &str) -> Option<U256> {
        let s = s.trim_start_matches("0x");
        if s.is_empty() || s.len() > 64 {
            return None;
        }
        let mut bytes = [0u8; 32];
        let padded = format!("{:0>64}", s);
        for i in 0..32 {
            bytes[i] = u8::from_str_radix(&padded[2 * i..2 * i + 2], 16).ok()?;
        }
        Some(Self::from_be_bytes(&bytes))
    }

    /// Reduction modulo `m` using binary long division.
    ///
    /// This is only used for one-off constant computation (e.g. Montgomery
    /// `R^2 mod m`); hot-path reductions use Montgomery or special-form
    /// reduction in the field layer.
    pub fn reduce_mod(&self, m: &U256) -> U256 {
        assert!(!m.is_zero(), "division by zero modulus");
        if self < m {
            return *self;
        }
        let mut rem = U256::ZERO;
        for i in (0..256).rev() {
            // rem can be as large as m - 1, which for moduli close to 2^256
            // overflows on the shift; keep the shifted-out bit explicitly.
            let overflow = rem.bit(255);
            rem = rem.shl(1);
            if self.bit(i) {
                rem.0[0] |= 1;
            }
            let (sub, borrow) = rem.sbb(m);
            if overflow || !borrow {
                rem = sub;
            }
        }
        rem
    }

    /// Modular addition of values already reduced modulo `m`.
    pub fn add_mod(&self, rhs: &U256, m: &U256) -> U256 {
        let (sum, carry) = self.adc(rhs);
        let (reduced, borrow) = sum.sbb(m);
        if carry || !borrow {
            reduced
        } else {
            sum
        }
    }

    /// Modular subtraction of values already reduced modulo `m`.
    pub fn sub_mod(&self, rhs: &U256, m: &U256) -> U256 {
        let (diff, borrow) = self.sbb(rhs);
        if borrow {
            diff.wrapping_add(m)
        } else {
            diff
        }
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "0x{:016x}{:016x}{:016x}{:016x}",
            self.0[3], self.0[2], self.0[1], self.0[0]
        )
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// `a + b + carry`, returning the low word and the carry-out.
#[inline(always)]
pub const fn carrying_add(a: u64, b: u64, carry: bool) -> (u64, bool) {
    let (s1, c1) = a.overflowing_add(b);
    let (s2, c2) = s1.overflowing_add(carry as u64);
    (s2, c1 | c2)
}

/// `a - b - borrow`, returning the low word and the borrow-out.
#[inline(always)]
pub const fn borrowing_sub(a: u64, b: u64, borrow: bool) -> (u64, bool) {
    let (d1, b1) = a.overflowing_sub(b);
    let (d2, b2) = d1.overflowing_sub(borrow as u64);
    (d2, b1 | b2)
}

/// `a * b + add + carry`, returning `(low, high)` of the 128-bit result.
#[inline(always)]
pub const fn mul_add_carry(a: u64, b: u64, add: u64, carry: u64) -> (u64, u64) {
    let wide = a as u128 * b as u128 + add as u128 + carry as u128;
    (wide as u64, (wide >> 64) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let a = U256::from_u128(0x1234_5678_9abc_def0_1122_3344_5566_7788);
        let b = U256::from_u64(0xdead_beef);
        let (sum, carry) = a.adc(&b);
        assert!(!carry);
        let (diff, borrow) = sum.sbb(&b);
        assert!(!borrow);
        assert_eq!(diff, a);
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = U256([u64::MAX, u64::MAX, 0, 0]);
        let (sum, carry) = a.adc(&U256::ONE);
        assert!(!carry);
        assert_eq!(sum, U256([0, 0, 1, 0]));
    }

    #[test]
    fn overflow_sets_carry() {
        let (sum, carry) = U256::MAX.adc(&U256::ONE);
        assert!(carry);
        assert_eq!(sum, U256::ZERO);
    }

    #[test]
    fn subtract_with_borrow() {
        let (diff, borrow) = U256::ZERO.sbb(&U256::ONE);
        assert!(borrow);
        assert_eq!(diff, U256::MAX);
    }

    #[test]
    fn mul_wide_simple() {
        let a = U256::from_u64(u64::MAX);
        let b = U256::from_u64(u64::MAX);
        let prod = a.mul_wide(&b);
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        assert_eq!(prod.0[0], 1);
        assert_eq!(prod.0[1], u64::MAX - 1);
        assert_eq!(prod.0[2], 0);
    }

    #[test]
    fn shifts() {
        let a = U256::from_u64(1);
        assert_eq!(a.shl(64), U256([0, 1, 0, 0]));
        assert_eq!(a.shl(65), U256([0, 2, 0, 0]));
        assert_eq!(U256([0, 2, 0, 0]).shr(65), U256::ONE);
        assert_eq!(a.shl(255).shr(255), U256::ONE);
    }

    #[test]
    fn bytes_roundtrip() {
        let a = U256([0x0102030405060708, 0x1112131415161718, 0, 0xff]);
        assert_eq!(U256::from_be_bytes(&a.to_be_bytes()), a);
    }

    #[test]
    fn hex_parsing() {
        assert_eq!(U256::from_hex("ff"), Some(U256::from_u64(255)));
        assert_eq!(U256::from_hex("0x10"), Some(U256::from_u64(16)));
        assert_eq!(
            U256::from_hex("0100000000000000000000000000000000"),
            Some(U256([0, 0, 1, 0]))
        );
        assert!(U256::from_hex("xyz").is_none());
        assert!(U256::from_hex("").is_none());
    }

    #[test]
    fn ordering() {
        assert!(U256::ZERO < U256::ONE);
        assert!(U256([0, 0, 0, 1]) > U256([u64::MAX, u64::MAX, u64::MAX, 0]));
    }

    #[test]
    fn reduce_mod_small() {
        let a = U256::from_u64(100);
        let m = U256::from_u64(7);
        assert_eq!(a.reduce_mod(&m), U256::from_u64(2));
    }

    #[test]
    fn add_mod_wraps() {
        let m = U256::from_u64(97);
        let a = U256::from_u64(90);
        let b = U256::from_u64(20);
        assert_eq!(a.add_mod(&b, &m), U256::from_u64(13));
        assert_eq!(
            U256::from_u64(5).sub_mod(&U256::from_u64(9), &m),
            U256::from_u64(93)
        );
    }

    #[test]
    fn bits_and_bit() {
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        assert_eq!(U256([0, 0, 0, 1]).bits(), 193);
        assert!(U256([0, 0, 0, 1]).bit(192));
        assert!(!U256([0, 0, 0, 1]).bit(191));
    }

    #[test]
    fn window_matches_bits() {
        let k = U256([
            0x0123_4567_89ab_cdef,
            0xfedc_ba98_7654_3210,
            u64::MAX,
            1 << 63,
        ]);
        for width in 1..=16 {
            for start in (0..=260).step_by(3) {
                let expected = (0..width)
                    .filter(|&b| k.bit(start + b))
                    .fold(0, |digit, b| digit | 1 << b);
                assert_eq!(k.window(start, width), expected, "[{start}, +{width})");
            }
        }
    }
}
