//! Prime-field elements for the secp256k1 base field and scalar field.
//!
//! Both fields are generated by the same macro and store elements in
//! Montgomery form. The scalar field [`Scalar`] is the field `Z_q` the paper
//! works in (secrets, shares, polynomial coefficients); the base field [`Fp`]
//! underlies the elliptic-curve group used for Feldman commitments.

use crate::mont::MontParams;
use crate::u256::U256;
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
    /// Constructs an element from a `u64`.
    fn from_u64(v: u64) -> Self;
    /// Returns the canonical (fully reduced) integer representative.
    fn to_u256(&self) -> U256;
    /// Returns `true` if the element is zero.
    fn is_zero(&self) -> bool;
    /// Squares the element.
    fn square(&self) -> Self;
    /// Raises the element to a 256-bit power (variable time).
    fn pow(&self, exp: &U256) -> Self;
    /// Multiplicative inverse, or `None` for zero.
    fn invert(&self) -> Option<Self>;
    /// Samples a uniformly random element.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self;
    /// Constructs an element from 64 uniformly random bytes (interpreted as a
    /// big-endian 512-bit integer reduced modulo the modulus). The bias is
    /// negligible (< 2^-256).
    fn from_uniform_bytes(bytes: &[u8; 64]) -> Self;
    /// Serializes the canonical representative as 32 big-endian bytes.
    fn to_be_bytes(&self) -> [u8; 32];
    /// Parses 32 big-endian bytes; returns `None` if the value is not fully
    /// reduced (≥ modulus).
    fn from_be_bytes(bytes: &[u8; 32]) -> Option<Self>;

    /// Inverts every element of `values` with Montgomery's trick: one field
    /// inversion plus three multiplications per element, instead of one
    /// (Fermat, ~256 squarings) inversion each. Zeros are skipped and come
    /// back as `None`, exactly like [`PrimeField::invert`]; every other slot
    /// holds `Some(values[i]⁻¹)` in input order.
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

macro_rules! impl_prime_field {
    ($(#[$doc:meta])* $name:ident, $modulus:expr) => {
        $(#[$doc])*
        #[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
        pub struct $name(U256);

        impl $name {
            fn params() -> &'static MontParams {
                static PARAMS: OnceLock<MontParams> = OnceLock::new();
                PARAMS.get_or_init(|| {
                    MontParams::new(U256::from_hex($modulus).expect("valid modulus literal"))
                })
            }

            /// Doubles the element.
            pub fn double(&self) -> Self {
                *self + *self
            }

            /// Returns `true` if the canonical representative is odd.
            pub fn is_odd(&self) -> bool {
                self.to_u256().is_odd()
            }
        }

        impl PrimeField for $name {
            fn zero() -> Self {
                $name(U256::ZERO)
            }

            fn one() -> Self {
                $name(Self::params().r1)
            }

            fn modulus() -> U256 {
                Self::params().modulus
            }

            fn from_u256(v: U256) -> Self {
                let p = Self::params();
                let reduced = v.reduce_mod(&p.modulus);
                $name(p.to_mont(&reduced))
            }

            fn from_u64(v: u64) -> Self {
                Self::from_u256(U256::from_u64(v))
            }

            fn to_u256(&self) -> U256 {
                Self::params().from_mont(&self.0)
            }

            fn is_zero(&self) -> bool {
                self.0.is_zero()
            }

            fn square(&self) -> Self {
                let p = Self::params();
                $name(p.mont_mul(&self.0, &self.0))
            }

            fn pow(&self, exp: &U256) -> Self {
                let mut result = Self::one();
                let bits = exp.bits();
                for i in (0..bits).rev() {
                    result = result.square();
                    if exp.bit(i) {
                        result *= *self;
                    }
                }
                result
            }

            fn invert(&self) -> Option<Self> {
                if self.is_zero() {
                    return None;
                }
                // Fermat: a^{m-2}.
                let exp = Self::modulus().wrapping_sub(&U256::from_u64(2));
                Some(self.pow(&exp))
            }

            fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
                let mut bytes = [0u8; 64];
                rng.fill(&mut bytes[..]);
                Self::from_uniform_bytes(&bytes)
            }

            fn from_uniform_bytes(bytes: &[u8; 64]) -> Self {
                let mut hi = [0u8; 32];
                let mut lo = [0u8; 32];
                hi.copy_from_slice(&bytes[..32]);
                lo.copy_from_slice(&bytes[32..]);
                let wide = U512::from_halves(U256::from_be_bytes(&lo), U256::from_be_bytes(&hi));
                Self::from_u256(wide.reduce_mod(&Self::modulus()))
            }

            fn to_be_bytes(&self) -> [u8; 32] {
                self.to_u256().to_be_bytes()
            }

            fn from_be_bytes(bytes: &[u8; 32]) -> Option<Self> {
                let v = U256::from_be_bytes(bytes);
                if v < Self::modulus() {
                    Some(Self::from_u256(v))
                } else {
                    None
                }
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                $name(Self::params().add(&self.0, &rhs.0))
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                *self = *self + rhs;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                $name(Self::params().sub(&self.0, &rhs.0))
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                *self = *self - rhs;
            }
        }

        impl Mul for $name {
            type Output = Self;
            fn mul(self, rhs: Self) -> Self {
                $name(Self::params().mont_mul(&self.0, &rhs.0))
            }
        }

        impl MulAssign for $name {
            fn mul_assign(&mut self, rhs: Self) {
                *self = *self * rhs;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                $name(Self::params().neg(&self.0))
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

impl_prime_field!(
    /// Element of the secp256k1 base field `F_p`,
    /// `p = 2^256 - 2^32 - 977`.
    Fp,
    "FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F"
);

impl_prime_field!(
    /// Element of the secp256k1 scalar field `Z_q` (the prime order of the
    /// curve group). This is the field the DKG's secrets, shares and
    /// polynomial coefficients live in.
    Scalar,
    "FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141"
);

impl Fp {
    /// Square root, if one exists.
    ///
    /// `p ≡ 3 (mod 4)`, so a root of a square `a` is `a^{(p+1)/4}`. The
    /// exponent's binary form is three runs of ones (223, 22 and 2 long),
    /// which the fixed addition chain below — the one libsecp256k1 uses —
    /// builds with 253 squarings and 13 multiplications, about half the work
    /// of generic square-and-multiply. The result is checked, so a `Some`
    /// return is always a genuine root.
    pub fn sqrt(&self) -> Option<Self> {
        // `xN` is `self^(2^N − 1)`: a run of N one-bits.
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
        let candidate = ((x223.square_n(23) * x22).square_n(6) * x2).square_n(2);
        if candidate.square() == *self {
            Some(candidate)
        } else {
            None
        }
    }

    /// `self^(2^n)`: `n` successive squarings.
    fn square_n(&self, n: u32) -> Self {
        let mut out = *self;
        for _ in 0..n {
            out = out.square();
        }
        out
    }

    /// The generic `a^{(p+1)/4}` square-and-multiply the addition chain in
    /// [`Fp::sqrt`] replaced, kept as the oracle the chain is tested against.
    #[cfg(test)]
    fn sqrt_generic(&self) -> Option<Self> {
        let exp = Self::modulus().wrapping_add(&U256::ONE).shr(2);
        let candidate = self.pow(&exp);
        if candidate.square() == *self {
            Some(candidate)
        } else {
            None
        }
    }
}

impl Scalar {
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
        if sorted.windows(2).any(|w| w[0] == w[1]) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xD16)
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
            assert_eq!(a.sqrt(), a.sqrt_generic(), "{a:?}");
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
