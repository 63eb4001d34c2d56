//! Prime-field elements for the secp256k1 base field and scalar field.
//!
//! The two fields are represented differently, each the way its modulus
//! suits:
//!
//! * [`Fp`], the base field the curve group is built on, is where almost
//!   every cycle of a group operation goes. Its prime has special form,
//!   `p = 2^256 − 0x1000003D1`, so an element is its **canonical residue**
//!   in `[0, p)` and a 512-bit product is reduced by folding the high half
//!   back in times `2^256 mod p = 0x1000003D1` (twice, then one conditional
//!   subtraction). Squaring has its own 10-product routine, inversion and
//!   square roots are fixed addition chains, and encoding is a plain copy.
//! * [`Scalar`], the field `Z_q` the paper works in (secrets, shares,
//!   polynomial coefficients), has a generic prime and keeps its elements
//!   in Montgomery form, multiplied by the CIOS routine of [`crate::mont`].
//!
//! Both are canonical in their own representation, which is what makes the
//! derived `Eq` and `Hash` sound.

use crate::mont::MontParams;
use crate::u256::{carrying_add, mul_add_carry, U256};
use crate::u512::U512;
use core::fmt;
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use rand::Rng;
use std::sync::OnceLock;

/// Common behaviour of the two prime fields.
///
/// The protocol layers are written against this trait so that the group
/// could be swapped for another discrete-log group without touching them.
pub trait PrimeField:
    Copy
    + Clone
    + Eq
    + PartialEq
    + fmt::Debug
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + 'static
{
    /// The additive identity.
    fn zero() -> Self;
    /// The multiplicative identity.
    fn one() -> Self;
    /// The field modulus.
    fn modulus() -> U256;
    /// Constructs an element from an integer, reducing modulo the modulus.
    fn from_u256(v: U256) -> Self;
    /// Returns the canonical (fully reduced) integer representative.
    fn to_u256(&self) -> U256;
    /// Returns `true` if the element is zero.
    fn is_zero(&self) -> bool;
    /// Squares the element.
    fn square(&self) -> Self;
    /// Multiplicative inverse, or `None` for zero.
    fn invert(&self) -> Option<Self>;
    /// Constructs an element from 64 uniformly random bytes (interpreted as a
    /// big-endian 512-bit integer reduced modulo the modulus). The bias is
    /// negligible (< 2^-256).
    fn from_uniform_bytes(bytes: &[u8; 64]) -> Self;
    /// Serializes the canonical representative as 32 big-endian bytes.
    fn to_be_bytes(&self) -> [u8; 32];
    /// Parses 32 big-endian bytes; returns `None` if the value is not fully
    /// reduced (≥ modulus).
    fn from_be_bytes(bytes: &[u8; 32]) -> Option<Self>;

    /// Constructs an element from a `u64`.
    fn from_u64(v: u64) -> Self {
        Self::from_u256(U256::from_u64(v))
    }

    /// Raises the element to a 256-bit power by square-and-multiply
    /// (variable time).
    fn pow(&self, exp: &U256) -> Self {
        let mut result = Self::one();
        for i in (0..exp.bits()).rev() {
            result = result.square();
            if exp.bit(i) {
                result = result * *self;
            }
        }
        result
    }

    /// Samples a uniformly random element.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut bytes = [0u8; 64];
        rng.fill(&mut bytes);
        Self::from_uniform_bytes(&bytes)
    }

    /// Inverts every element of `values` with Montgomery's trick: one field
    /// inversion plus three multiplications per element, instead of one
    /// (~256 squarings) inversion each. Zeros are skipped and come back as
    /// `None`, exactly like [`PrimeField::invert`]; every other slot holds
    /// `Some(values[i]⁻¹)` in input order.
    ///
    /// Used by `ProjectivePoint::batch_to_affine` (z-coordinates) and the
    /// Lagrange-denominator computations in `dkg-poly` reconstruction.
    fn batch_invert(values: &[Self]) -> Vec<Option<Self>> {
        // Forward pass: prefix[i] = product of the non-zero values before
        // index i (so prefix[0] = 1).
        let mut prefix = Vec::with_capacity(values.len());
        let mut acc = Self::one();
        for v in values {
            prefix.push(acc);
            if !v.is_zero() {
                acc = acc * *v;
            }
        }
        // One inversion for the whole batch. `acc` is a product of non-zero
        // field elements, hence non-zero; the `None` arm is unreachable but
        // kept total (everything maps to `None`) rather than panicking.
        let Some(mut suffix_inv) = acc.invert() else {
            return vec![None; values.len()];
        };
        // Backward pass: walking from the end, `suffix_inv` is the inverse
        // of the non-zero product up to and including the current value, so
        // multiplying by the prefix leaves exactly the value's inverse;
        // multiplying the value back in steps the running inverse down.
        let mut out = vec![None; values.len()];
        for ((v, before), slot) in values.iter().zip(prefix).zip(out.iter_mut()).rev() {
            if v.is_zero() {
                continue;
            }
            *slot = Some(before * suffix_inv);
            suffix_inv = suffix_inv * *v;
        }
        out
    }
}

/// The 512-bit integer whose 64 big-endian bytes are `bytes`.
fn wide_from_be_bytes(bytes: &[u8; 64]) -> U512 {
    let mut limbs = [0u64; 8];
    for (limb, chunk) in limbs.iter_mut().rev().zip(bytes.chunks_exact(8)) {
        *limb = chunk.iter().fold(0, |acc, &b| (acc << 8) | u64::from(b));
    }
    U512(limbs)
}

/// The operator plumbing both fields share, written once over the
/// arithmetic each implements itself (`Add`, `Sub`, `Mul`, `PrimeField`).
macro_rules! impl_field_ops {
    ($name:ident) => {
        impl $name {
            /// Doubles the element.
            pub fn double(&self) -> Self {
                *self + *self
            }

            /// Returns `true` if the canonical representative is odd.
            pub fn is_odd(&self) -> bool {
                self.to_u256().is_odd()
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                *self = *self + rhs;
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                *self = *self - rhs;
            }
        }

        impl MulAssign for $name {
            fn mul_assign(&mut self, rhs: Self) {
                *self = *self * rhs;
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({:?})", stringify!($name), self.to_u256())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:?}", self.to_u256())
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                Self::from_u64(v)
            }
        }

        impl core::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::zero(), |acc, x| acc + x)
            }
        }

        impl core::iter::Product for $name {
            fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::one(), |acc, x| acc * x)
            }
        }
    };
}

/// Element of the secp256k1 base field `F_p`, `p = 2^256 - 2^32 - 977`,
/// held as its canonical residue in `[0, p)`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct Fp(U256);

/// The base-field modulus `p`.
const P: U256 = U256::from_limbs([0xFFFF_FFFE_FFFF_FC2F, u64::MAX, u64::MAX, u64::MAX]);

/// `2^256 mod p = 2^256 − p = 2^32 + 977`: what a carry past bit 256 is
/// worth, so the reduction multiplies the high half by it.
const FOLD: u64 = 0x1_0000_03D1;

impl Fp {
    /// `v mod p` for any 256-bit `v`. `2^256 < 2p`, so at most one `p`
    /// comes off: `v ≥ p` exactly when `v + FOLD` wraps past `2^256`, and
    /// the wrapped sum is then `v − p`.
    #[inline]
    fn reduce_once(v: U256) -> U256 {
        match v.adc(&U256::from_u64(FOLD)) {
            (wrapped, true) => wrapped,
            (_, false) => v,
        }
    }

    /// `t mod p` for any 512-bit `t = hi·2^256 + lo`.
    // This, `square_wide`, `reduce_once`, `square` and `mul` are inlined
    // into the group formulas and the `square_n` loops of the addition
    // chains; left as calls, a seed-7 `dkg-digest-n13` DKG took 118 ms
    // instead of 91 on a 2-core x86-64 box.
    #[inline]
    fn reduce_wide(t: U512) -> Fp {
        let [l0, l1, l2, l3, h0, h1, h2, h3] = t.0;
        // First fold, lo + hi·FOLD: 256 bits plus a carry `top` < 2^34.
        let (r0, c) = mul_add_carry(h0, FOLD, l0, 0);
        let (r1, c) = mul_add_carry(h1, FOLD, l1, c);
        let (r2, c) = mul_add_carry(h2, FOLD, l2, c);
        let (r3, top) = mul_add_carry(h3, FOLD, l3, c);
        // Second fold, r + top·FOLD with top·FOLD < 2^67. If that carries
        // past 2^256 the remaining value is below 2^67, so folding the carry
        // in as one more FOLD cannot wrap again.
        let extra = U256::from_u128(u128::from(top) * u128::from(FOLD));
        let r = match U256([r0, r1, r2, r3]).adc(&extra) {
            (r, true) => r.wrapping_add(&U256::from_u64(FOLD)),
            (r, false) => r,
        };
        Fp(Self::reduce_once(r))
    }

    /// The 512-bit square of `a` from its 10 distinct limb products: the 6
    /// cross products `a_i·a_j` (`i < j`) once, doubled by a shift, plus
    /// the 4 squares `a_i²` on the diagonal.
    #[inline]
    fn square_wide(a: &U256) -> U512 {
        let [a0, a1, a2, a3] = a.0;
        let (t1, c) = mul_add_carry(a0, a1, 0, 0);
        let (t2, c) = mul_add_carry(a0, a2, 0, c);
        let (t3, t4) = mul_add_carry(a0, a3, 0, c);
        let (t3, c) = mul_add_carry(a1, a2, t3, 0);
        let (t4, t5) = mul_add_carry(a1, a3, t4, c);
        let (t5, t6) = mul_add_carry(a2, a3, t5, 0);

        let t7 = t6 >> 63;
        let t6 = (t6 << 1) | (t5 >> 63);
        let t5 = (t5 << 1) | (t4 >> 63);
        let t4 = (t4 << 1) | (t3 >> 63);
        let t3 = (t3 << 1) | (t2 >> 63);
        let t2 = (t2 << 1) | (t1 >> 63);
        let t1 = t1 << 1;

        let (t0, hi) = mul_add_carry(a0, a0, 0, 0);
        let (t1, c) = carrying_add(t1, hi, false);
        let (lo, hi) = mul_add_carry(a1, a1, 0, 0);
        let (t2, c) = carrying_add(t2, lo, c);
        let (t3, c) = carrying_add(t3, hi, c);
        let (lo, hi) = mul_add_carry(a2, a2, 0, 0);
        let (t4, c) = carrying_add(t4, lo, c);
        let (t5, c) = carrying_add(t5, hi, c);
        let (lo, hi) = mul_add_carry(a3, a3, 0, 0);
        let (t6, c) = carrying_add(t6, lo, c);
        let (t7, _) = carrying_add(t7, hi, c);
        U512([t0, t1, t2, t3, t4, t5, t6, t7])
    }

    /// `self^(2^n)`: `n` successive squarings.
    fn square_n(&self, n: u32) -> Self {
        let mut out = *self;
        for _ in 0..n {
            out = out.square();
        }
        out
    }

    /// The shared prefix of libsecp256k1's addition chains for `p − 2`
    /// ([`PrimeField::invert`]) and `(p + 1)/4` ([`Fp::sqrt`]): both
    /// exponents open with a run of 223 one-bits and then use runs of 22
    /// and 2. Returns `(x2, x22, x223)`, where `xN` is `self^(2^N − 1)` —
    /// 222 squarings and 11 multiplications.
    fn runs_of_ones(&self) -> (Self, Self, Self) {
        let x2 = self.square() * *self;
        let x3 = x2.square() * *self;
        let x6 = x3.square_n(3) * x3;
        let x9 = x6.square_n(3) * x3;
        let x11 = x9.square_n(2) * x2;
        let x22 = x11.square_n(11) * x11;
        let x44 = x22.square_n(22) * x22;
        let x88 = x44.square_n(44) * x44;
        let x176 = x88.square_n(88) * x88;
        let x220 = x176.square_n(44) * x44;
        let x223 = x220.square_n(3) * x3;
        (x2, x22, x223)
    }

    /// Square root, if one exists.
    ///
    /// `p ≡ 3 (mod 4)`, so a root of a square `a` is `a^{(p+1)/4}`. The
    /// exponent's binary form is three runs of ones (223, 22 and 2 long),
    /// which the fixed addition chain below — the one libsecp256k1 uses —
    /// builds with 253 squarings and 13 multiplications, about half the work
    /// of generic square-and-multiply. The result is checked, so a `Some`
    /// return is always a genuine root.
    pub fn sqrt(&self) -> Option<Self> {
        let (x2, x22, x223) = self.runs_of_ones();
        let candidate = ((x223.square_n(23) * x22).square_n(6) * x2).square_n(2);
        (candidate.square() == *self).then_some(candidate)
    }
}

impl PrimeField for Fp {
    fn zero() -> Self {
        Fp(U256::ZERO)
    }

    fn one() -> Self {
        Fp(U256::ONE)
    }

    fn modulus() -> U256 {
        P
    }

    fn from_u256(v: U256) -> Self {
        Fp(Self::reduce_once(v))
    }

    fn to_u256(&self) -> U256 {
        self.0
    }

    fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    #[inline]
    fn square(&self) -> Self {
        Self::reduce_wide(Self::square_wide(&self.0))
    }

    /// `self^(p − 2)` by libsecp256k1's addition chain: `p − 2` is a run of
    /// 223 ones, a 0, a run of 22 ones, then `0000101101` — 255 squarings
    /// and 15 multiplications, against ~255 squarings and ~250
    /// multiplications for square-and-multiply.
    fn invert(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        let (x2, x22, x223) = self.runs_of_ones();
        let t = (x223.square_n(23) * x22).square_n(5) * *self;
        Some((t.square_n(3) * x2).square_n(2) * *self)
    }

    fn from_uniform_bytes(bytes: &[u8; 64]) -> Self {
        Self::reduce_wide(wide_from_be_bytes(bytes))
    }

    fn to_be_bytes(&self) -> [u8; 32] {
        self.0.to_be_bytes()
    }

    fn from_be_bytes(bytes: &[u8; 32]) -> Option<Self> {
        let v = U256::from_be_bytes(bytes);
        (v < P).then_some(Fp(v))
    }
}

impl Add for Fp {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        match self.0.adc(&rhs.0) {
            // a + b − 2^256 ≤ 2p − 2 − 2^256 < p − FOLD: adding FOLD (i.e.
            // subtracting p modulo 2^256) lands in range without wrapping.
            (sum, true) => Fp(sum.wrapping_add(&U256::from_u64(FOLD))),
            (sum, false) => Fp(Self::reduce_once(sum)),
        }
    }
}

impl Sub for Fp {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        match self.0.sbb(&rhs.0) {
            // a − b + 2^256 > FOLD, so adding p (subtracting FOLD modulo
            // 2^256) cannot borrow.
            (diff, true) => Fp(diff.wrapping_sub(&U256::from_u64(FOLD))),
            (diff, false) => Fp(diff),
        }
    }
}

impl Mul for Fp {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::reduce_wide(self.0.mul_wide(&rhs.0))
    }
}

impl Neg for Fp {
    type Output = Self;
    fn neg(self) -> Self {
        if self.is_zero() {
            self
        } else {
            Fp(P.wrapping_sub(&self.0))
        }
    }
}

impl_field_ops!(Fp);

/// Element of the secp256k1 scalar field `Z_q` (the prime order of the
/// curve group), in Montgomery form. This is the field the DKG's secrets,
/// shares and polynomial coefficients live in.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct Scalar(U256);

/// The group order `q`.
const Q: U256 = U256::from_limbs([
    0xBFD2_5E8C_D036_4141,
    0xBAAE_DCE6_AF48_A03B,
    0xFFFF_FFFF_FFFF_FFFE,
    u64::MAX,
]);

impl Scalar {
    fn params() -> &'static MontParams {
        static PARAMS: OnceLock<MontParams> = OnceLock::new();
        PARAMS.get_or_init(|| MontParams::new(Q))
    }

    /// Evaluates the Lagrange coefficient `λ_{S,j}(x)` for interpolation of
    /// a polynomial from the share indices in `indices` at point `x`.
    ///
    /// `indices` are the node indices (1-based, as in the paper) of the
    /// shares being combined and `j` must be one of them.
    ///
    /// Returns `None` if `j` is not in `indices` or the indices are not
    /// pairwise distinct (which would require a division by zero).
    pub fn lagrange_coefficient(indices: &[u64], j: u64, x: Scalar) -> Option<Scalar> {
        if !indices.contains(&j) {
            return None;
        }
        let mut sorted = indices.to_vec();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| matches!(w, [a, b] if a == b)) {
            return None;
        }
        let xj = Scalar::from_u64(j);
        let mut num = Scalar::one();
        let mut den = Scalar::one();
        for &m in indices {
            if m == j {
                continue;
            }
            let xm = Scalar::from_u64(m);
            num *= x - xm;
            den *= xj - xm;
        }
        den.invert().map(|d| num * d)
    }
}

impl PrimeField for Scalar {
    fn zero() -> Self {
        Scalar(U256::ZERO)
    }

    fn one() -> Self {
        Scalar(Self::params().r1)
    }

    fn modulus() -> U256 {
        Q
    }

    fn from_u256(v: U256) -> Self {
        Scalar(Self::params().to_mont(&v.reduce_mod(&Q)))
    }

    fn to_u256(&self) -> U256 {
        Self::params().from_mont(&self.0)
    }

    fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    fn square(&self) -> Self {
        Scalar(Self::params().mont_mul(&self.0, &self.0))
    }

    fn invert(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        // Fermat: a^{q−2}.
        Some(self.pow(&Q.wrapping_sub(&U256::from_u64(2))))
    }

    fn from_uniform_bytes(bytes: &[u8; 64]) -> Self {
        Self::from_u256(wide_from_be_bytes(bytes).reduce_mod(&Q))
    }

    fn to_be_bytes(&self) -> [u8; 32] {
        self.to_u256().to_be_bytes()
    }

    fn from_be_bytes(bytes: &[u8; 32]) -> Option<Self> {
        let v = U256::from_be_bytes(bytes);
        (v < Q).then(|| Self::from_u256(v))
    }
}

impl Add for Scalar {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Scalar(Self::params().add(&self.0, &rhs.0))
    }
}

impl Sub for Scalar {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Scalar(Self::params().sub(&self.0, &rhs.0))
    }
}

impl Mul for Scalar {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Scalar(Self::params().mont_mul(&self.0, &rhs.0))
    }
}

impl Neg for Scalar {
    type Output = Self;
    fn neg(self) -> Self {
        Scalar(Self::params().neg(&self.0))
    }
}

impl_field_ops!(Scalar);

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xD16)
    }

    fn canonical(a: Fp) -> Fp {
        assert!(a.to_u256() < P, "{a:?} is not reduced");
        a
    }

    /// 0, 1, p − 1, p − 2, 2^256 − p − 1 and neighbours of the limb
    /// boundaries: the inputs a special-form reduction gets wrong first.
    fn edge_elements() -> Vec<Fp> {
        let mut edges: Vec<Fp> = [
            U256::ZERO,
            U256::ONE,
            U256::from_u64(2),
            P.wrapping_sub(&U256::ONE),
            P.wrapping_sub(&U256::from_u64(2)),
            U256::from_u64(FOLD - 1),
            U256::from_u64(FOLD),
            U256::from_u64(u64::MAX),
            U256([0, 1, 0, 0]),
            U256([0, 0, 0, 1 << 63]),
            U256([u64::MAX, u64::MAX, u64::MAX, u64::MAX >> 1]),
        ]
        .into_iter()
        .map(Fp::from_u256)
        .collect();
        let minus_one = -Fp::one();
        edges.push(minus_one * minus_one); // (p − 1)² ≡ 1
        edges
    }

    #[test]
    fn canonical_fp_matches_the_montgomery_oracle() {
        // Montgomery arithmetic shares no code with the special-form
        // reduction, so it is an independent oracle: `a·b mod p` through
        // `to_mont` / `mont_mul` / `from_mont`.
        let mont = MontParams::new(P);
        let oracle_mul =
            |a: U256, b: U256| mont.from_mont(&mont.mont_mul(&mont.to_mont(&a), &mont.to_mont(&b)));
        let mut r = rng();
        let mut values = edge_elements();
        values.extend((0..3000).map(|_| Fp::random(&mut r)));
        let mut pairs: Vec<(Fp, Fp)> = values.iter().map(|&a| (a, -a)).collect();
        pairs.extend(values.windows(2).map(|w| (w[0], w[1])));
        for &a in &edge_elements() {
            pairs.extend(edge_elements().into_iter().map(|b| (a, b)));
        }
        assert!(pairs.len() >= 3000);
        for (a, b) in pairs {
            let product = canonical(a * b);
            assert_eq!(product.to_u256(), oracle_mul(a.to_u256(), b.to_u256()));
            assert_eq!(canonical(a.square()), canonical(a * a), "{a:?}");
            assert_eq!(
                canonical(a + b).to_u256(),
                a.to_u256().add_mod(&b.to_u256(), &P)
            );
            assert_eq!(
                canonical(a - b).to_u256(),
                a.to_u256().sub_mod(&b.to_u256(), &P)
            );
            assert!((canonical(-a) + a).is_zero());
        }
    }

    #[test]
    fn reduction_folds_every_carry() {
        // The full 512-bit range, not only products: all ones; a high half
        // whose first fold lands exactly on 2^256 − 1 with the largest
        // carry, so the second fold wraps too; and the boundaries of the
        // final subtraction.
        let mut wide = vec![
            U512([u64::MAX; 8]),
            U512::from_halves(P, U256::ZERO),
            U512::from_halves(P.wrapping_sub(&U256::ONE), U256::ZERO),
            U512::from_halves(U256::MAX, U256::ZERO),
            U512::from_halves(U256::ZERO, U256::MAX),
            P.wrapping_sub(&U256::ONE).square_wide(),
        ];
        for hi in [U256::MAX, P, U256([0, 0, 0, 1 << 63]), U256::from_u64(1)] {
            let (low, _) = hi.mul_wide(&U256::from_u64(FOLD)).split();
            wide.push(U512::from_halves(U256::MAX.wrapping_sub(&low), hi));
        }
        let mut r = rng();
        wide.extend((0..500).map(|_| {
            let mut bytes = [0u8; 64];
            r.fill(&mut bytes[..]);
            wide_from_be_bytes(&bytes)
        }));
        for t in wide {
            assert_eq!(
                canonical(Fp::reduce_wide(t)).to_u256(),
                t.reduce_mod(&P),
                "{t:?}"
            );
        }
    }

    #[test]
    fn invert_chain_matches_fermat() {
        let exp = P.wrapping_sub(&U256::from_u64(2));
        let mut r = rng();
        let mut values = edge_elements();
        values.extend((0..200).map(|_| Fp::random(&mut r)));
        for a in values.into_iter().filter(|a| !a.is_zero()) {
            let inverse = canonical(a.invert().expect("non-zero"));
            assert_eq!(inverse, a.pow(&exp), "{a:?}");
            assert_eq!(a * inverse, Fp::one());
        }
        assert!(Fp::zero().invert().is_none());
    }

    #[test]
    fn decoding_reduces_or_rejects_exactly_as_before() {
        let cases = [
            (U256::ZERO, Some(U256::ZERO)),
            (P.wrapping_sub(&U256::ONE), Some(P.wrapping_sub(&U256::ONE))),
            (P, None),
            (P.wrapping_add(&U256::from_u64(5)), None),
            (U256::MAX, None),
        ];
        for (v, decoded) in cases {
            let reduced = v.reduce_mod(&P);
            assert_eq!(canonical(Fp::from_u256(v)).to_u256(), reduced);
            assert_eq!(
                Fp::from_be_bytes(&v.to_be_bytes()).map(|a| a.to_u256()),
                decoded
            );
            assert_eq!(Fp::from_u256(v).to_be_bytes(), reduced.to_be_bytes());
            assert_eq!(Fp::from_u256(v).is_odd(), reduced.is_odd());
        }
        let mut bytes = [0xffu8; 64];
        assert_eq!(
            Fp::from_uniform_bytes(&bytes).to_u256(),
            wide_from_be_bytes(&bytes).reduce_mod(&P)
        );
        bytes[..32].fill(0);
        assert_eq!(Fp::from_uniform_bytes(&bytes), Fp::from_u256(U256::MAX));
    }

    #[test]
    fn one_plus_one_is_two() {
        assert_eq!(Scalar::one() + Scalar::one(), Scalar::from_u64(2));
        assert_eq!(Fp::one() + Fp::one(), Fp::from_u64(2));
    }

    #[test]
    fn additive_inverse() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Scalar::random(&mut r);
            assert!((a + (-a)).is_zero());
        }
    }

    #[test]
    fn multiplicative_inverse() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Fp::random(&mut r);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a * a.invert().unwrap(), Fp::one());
        }
        assert!(Scalar::zero().invert().is_none());
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let a = Scalar::from_u64(3);
        let mut acc = Scalar::one();
        for _ in 0..17 {
            acc *= a;
        }
        assert_eq!(a.pow(&U256::from_u64(17)), acc);
        assert_eq!(a.pow(&U256::ZERO), Scalar::one());
    }

    #[test]
    fn fermat_little_theorem() {
        let mut r = rng();
        let a = Fp::random(&mut r);
        assert_eq!(a.pow(&Fp::modulus()), a);
    }

    #[test]
    fn sqrt_in_base_field() {
        let mut r = rng();
        for _ in 0..5 {
            let a = Fp::random(&mut r);
            let sq = a.square();
            let root = sq.sqrt().expect("square must have a root");
            assert!(root == a || root == -a);
        }
    }

    #[test]
    fn sqrt_chain_matches_generic_exponentiation() {
        // The oracle: generic square-and-multiply for `a^{(p+1)/4}`.
        let exp = P.wrapping_add(&U256::ONE).shr(2);
        let sqrt_generic = |a: Fp| Some(a.pow(&exp)).filter(|root| root.square() == a);
        // −1 is a non-residue (p ≡ 3 mod 4), hence so is the negation of
        // every non-zero square.
        let minus_one = -Fp::one();
        let mut cases = vec![
            Fp::zero(),
            Fp::one(),
            minus_one,
            -Fp::from_u64(4),
            -Fp::from_u64(9),
        ];
        let mut r = rng();
        cases.extend((0..1000).map(|_| Fp::random(&mut r)));
        let mut residues = 0;
        for a in cases {
            assert_eq!(a.sqrt(), sqrt_generic(a), "{a:?}");
            residues += usize::from(a.sqrt().is_some());
        }
        assert_eq!(Fp::zero().sqrt(), Some(Fp::zero()));
        assert!(Fp::one().sqrt().is_some());
        assert_eq!(minus_one.sqrt(), None);
        assert_eq!((-Fp::from_u64(4)).sqrt(), None);
        // About half of all field elements are squares.
        assert!((400..=600).contains(&residues), "{residues}");
    }

    #[test]
    fn bytes_roundtrip_and_rejection() {
        let mut r = rng();
        let a = Scalar::random(&mut r);
        assert_eq!(Scalar::from_be_bytes(&a.to_be_bytes()), Some(a));
        // The modulus itself is not a canonical encoding.
        assert_eq!(
            Scalar::from_be_bytes(&Scalar::modulus().to_be_bytes()),
            None
        );
    }

    #[test]
    fn from_uniform_bytes_reduces() {
        let bytes = [0xffu8; 64];
        let a = Scalar::from_uniform_bytes(&bytes);
        assert!(a.to_u256() < Scalar::modulus());
    }

    #[test]
    fn modulus_minus_one_squares_to_one() {
        let minus_one = -Scalar::one();
        assert_eq!(minus_one.square(), Scalar::one());
    }

    #[test]
    fn lagrange_interpolates_constant() {
        // f(x) = 5 (degree-0): every coefficient set reconstructs 5.
        let indices = [1u64, 2, 3];
        let mut sum = Scalar::zero();
        for &j in &indices {
            let lambda = Scalar::lagrange_coefficient(&indices, j, Scalar::zero()).unwrap();
            sum += lambda * Scalar::from_u64(5);
        }
        assert_eq!(sum, Scalar::from_u64(5));
    }

    #[test]
    fn lagrange_interpolates_line_at_zero() {
        // f(x) = 7 + 3x; shares at x = 2, 5.
        let f = |x: u64| Scalar::from_u64(7) + Scalar::from_u64(3) * Scalar::from_u64(x);
        let indices = [2u64, 5];
        let mut secret = Scalar::zero();
        for &j in &indices {
            let lambda = Scalar::lagrange_coefficient(&indices, j, Scalar::zero()).unwrap();
            secret += lambda * f(j);
        }
        assert_eq!(secret, Scalar::from_u64(7));
    }

    #[test]
    fn lagrange_rejects_bad_inputs() {
        assert!(Scalar::lagrange_coefficient(&[1, 2], 3, Scalar::zero()).is_none());
        assert!(Scalar::lagrange_coefficient(&[1, 1], 1, Scalar::zero()).is_none());
    }

    #[test]
    fn sum_and_product_iterators() {
        let xs = [1u64, 2, 3, 4].map(Scalar::from_u64);
        assert_eq!(xs.iter().copied().sum::<Scalar>(), Scalar::from_u64(10));
        assert_eq!(xs.iter().copied().product::<Scalar>(), Scalar::from_u64(24));
    }
}
