//! The secp256k1 elliptic-curve group used as the discrete-log group `G`.
//!
//! The paper's protocols only need a cyclic group of prime order `q` with a
//! fixed generator `g` in which the discrete-logarithm problem is hard;
//! Feldman commitments are `C_{jℓ} = g^{f_{jℓ}}`. We instantiate `G` with the
//! secp256k1 curve (`y² = x³ + 7` over `F_p`), written additively here but
//! exposed through multiplicative-style helper names where it aids reading
//! the protocol code (`commit`, `GroupElement`).

use crate::field::{Fp, PrimeField, Scalar};
use crate::u256::U256;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};
use rand::Rng;

/// The curve coefficient `b` in `y² = x³ + b`.
fn curve_b() -> Fp {
    Fp::from_u64(7)
}

/// A point on secp256k1 in affine coordinates, or the point at infinity.
///
/// This is the external, canonical representation: it is what gets hashed,
/// serialized into messages and compared for equality. Internally, chains of
/// group operations use [`ProjectivePoint`] (Jacobian coordinates) to avoid a
/// field inversion per operation.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct GroupElement {
    x: Fp,
    y: Fp,
    infinity: bool,
}

impl Default for GroupElement {
    fn default() -> Self {
        Self::identity()
    }
}

impl GroupElement {
    /// The identity element (point at infinity).
    pub fn identity() -> Self {
        GroupElement {
            x: Fp::zero(),
            y: Fp::zero(),
            infinity: true,
        }
    }

    /// The fixed group generator `g`.
    pub fn generator() -> Self {
        let x = Fp::from_u256(
            U256::from_hex("79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798")
                .expect("valid literal"),
        );
        let y = Fp::from_u256(
            U256::from_hex("483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8")
                .expect("valid literal"),
        );
        GroupElement {
            x,
            y,
            infinity: false,
        }
    }

    /// Builds a point from affine coordinates, validating the curve equation.
    pub fn from_affine(x: Fp, y: Fp) -> Option<Self> {
        let candidate = GroupElement {
            x,
            y,
            infinity: false,
        };
        if candidate.is_on_curve() {
            Some(candidate)
        } else {
            None
        }
    }

    /// Returns `true` for the identity element.
    pub fn is_identity(&self) -> bool {
        self.infinity
    }

    /// Returns the affine coordinates, or `None` for the identity.
    pub fn coordinates(&self) -> Option<(Fp, Fp)> {
        if self.infinity {
            None
        } else {
            Some((self.x, self.y))
        }
    }

    /// Checks the curve equation `y² = x³ + 7`.
    pub fn is_on_curve(&self) -> bool {
        if self.infinity {
            return true;
        }
        self.y.square() == self.x.square() * self.x + curve_b()
    }

    /// The Feldman commitment `g^s` (scalar multiplication of the generator),
    /// computed through the precomputed fixed-base window table — additions
    /// only, no doublings (see [`crate::fixed_base`]).
    pub fn commit(s: &Scalar) -> Self {
        crate::fixed_base::generator_table().mul(s)
    }

    /// Scalar multiplication `[k]P`.
    // Written multiplicatively on purpose: protocol code reads `C.mul(&e)`
    // as the paper's `C^e` (the `Mul` operator impl delegates here).
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, k: &Scalar) -> Self {
        self.mul_projective(k).to_affine()
    }

    /// [`Self::mul`] without the final affine normalisation, for callers
    /// that keep accumulating (Schnorr verification adds `g^s` to it).
    pub fn mul_projective(&self, k: &Scalar) -> ProjectivePoint {
        windowed_ladder(*self, k)
    }

    /// Samples a uniformly random group element (with known-to-nobody dlog is
    /// *not* guaranteed; this is a testing helper).
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::commit(&Scalar::random(rng))
    }

    /// Compressed 33-byte SEC1 encoding (`0x02`/`0x03` prefix + x), or 33
    /// zero bytes prefixed `0x00` for the identity.
    pub fn to_bytes(&self) -> [u8; 33] {
        let mut out = [0u8; 33];
        if self.infinity {
            return out;
        }
        let [prefix, rest @ ..] = &mut out;
        *prefix = if self.y.is_odd() { 0x03 } else { 0x02 };
        *rest = self.x.to_be_bytes();
        out
    }

    /// Parses the encoding produced by [`GroupElement::to_bytes`]. Returns
    /// `None` for any byte string that is not a valid encoding of a curve
    /// point (off-curve x, bad prefix, non-canonical field element).
    pub fn from_bytes(bytes: &[u8; 33]) -> Option<Self> {
        let [prefix, xb @ ..] = bytes;
        match *prefix {
            0x00 => {
                if xb.iter().all(|&b| b == 0) {
                    Some(Self::identity())
                } else {
                    None
                }
            }
            prefix @ (0x02 | 0x03) => {
                let x = Fp::from_be_bytes(xb)?;
                crate::ops::record_decompression();
                let rhs = x.square() * x + curve_b();
                let mut y = rhs.sqrt()?;
                if y.is_odd() != (prefix == 0x03) {
                    y = -y;
                }
                Self::from_affine(x, y)
            }
            _ => None,
        }
    }
}

impl Add for GroupElement {
    type Output = GroupElement;
    fn add(self, rhs: GroupElement) -> GroupElement {
        (ProjectivePoint::from(self) + ProjectivePoint::from(rhs)).to_affine()
    }
}

impl AddAssign for GroupElement {
    fn add_assign(&mut self, rhs: GroupElement) {
        *self = *self + rhs;
    }
}

impl Sub for GroupElement {
    type Output = GroupElement;
    fn sub(self, rhs: GroupElement) -> GroupElement {
        self + (-rhs)
    }
}

impl SubAssign for GroupElement {
    fn sub_assign(&mut self, rhs: GroupElement) {
        *self = *self - rhs;
    }
}

impl Neg for GroupElement {
    type Output = GroupElement;
    fn neg(self) -> GroupElement {
        if self.infinity {
            self
        } else {
            GroupElement {
                x: self.x,
                y: -self.y,
                infinity: false,
            }
        }
    }
}

impl Mul<Scalar> for GroupElement {
    type Output = GroupElement;
    fn mul(self, rhs: Scalar) -> GroupElement {
        GroupElement::mul(self, &rhs)
    }
}

impl Sum for GroupElement {
    fn sum<I: Iterator<Item = GroupElement>>(iter: I) -> GroupElement {
        iter.fold(GroupElement::identity(), |acc, p| acc + p)
    }
}

impl fmt::Display for GroupElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.infinity {
            write!(f, "GroupElement(identity)")
        } else {
            write!(f, "GroupElement(x={}, y={})", self.x, self.y)
        }
    }
}

/// A [`GroupElement`] without its identity flag: 64 bytes against 72, which
/// is what a precomputed table of thousands of points stores
/// ([`crate::fixed_base`]). `(0, 0)` is not on the curve — it is how
/// [`GroupElement::identity`] already fills its coordinates — so it stands
/// for the identity here.
#[derive(Copy, Clone)]
pub(crate) struct PackedPoint {
    x: Fp,
    y: Fp,
}

impl From<GroupElement> for PackedPoint {
    fn from(p: GroupElement) -> Self {
        PackedPoint { x: p.x, y: p.y }
    }
}

impl From<PackedPoint> for GroupElement {
    fn from(p: PackedPoint) -> Self {
        GroupElement {
            x: p.x,
            y: p.y,
            infinity: p.x.is_zero() && p.y.is_zero(),
        }
    }
}

/// A point in Jacobian projective coordinates `(X, Y, Z)` representing the
/// affine point `(X/Z², Y/Z³)`.
///
/// Used internally for chains of additions / scalar multiplications; convert
/// to [`GroupElement`] at the boundary.
#[derive(Copy, Clone, Debug)]
pub struct ProjectivePoint {
    x: Fp,
    y: Fp,
    z: Fp,
}

impl From<GroupElement> for ProjectivePoint {
    fn from(p: GroupElement) -> Self {
        if p.infinity {
            ProjectivePoint::identity()
        } else {
            ProjectivePoint {
                x: p.x,
                y: p.y,
                z: Fp::one(),
            }
        }
    }
}

impl ProjectivePoint {
    /// The identity element.
    pub fn identity() -> Self {
        ProjectivePoint {
            x: Fp::one(),
            y: Fp::one(),
            z: Fp::zero(),
        }
    }

    /// The group generator.
    pub fn generator() -> Self {
        GroupElement::generator().into()
    }

    /// Returns `true` for the identity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Converts to the canonical affine representation.
    ///
    /// Total over all inputs: any representation with `z = 0` (the identity)
    /// maps to [`GroupElement::identity`] rather than panicking.
    pub fn to_affine(&self) -> GroupElement {
        match self.z.invert() {
            None => GroupElement::identity(),
            Some(zinv) => Self::affine_with_z_inverse(self, zinv),
        }
    }

    /// Shared tail of [`Self::to_affine`] / [`Self::batch_to_affine`]: builds
    /// the affine point from a precomputed `z⁻¹`.
    fn affine_with_z_inverse(p: &ProjectivePoint, zinv: Fp) -> GroupElement {
        let zinv2 = zinv.square();
        let zinv3 = zinv2 * zinv;
        GroupElement {
            x: p.x * zinv2,
            y: p.y * zinv3,
            infinity: false,
        }
    }

    /// Converts a batch of points to canonical affine form with a *single*
    /// field inversion via Montgomery's trick ([`PrimeField::batch_invert`])
    /// instead of one inversion per point — an inversion costs ~hundreds of
    /// multiplications (Fermat exponentiation), so for `n` points this turns
    /// `n` inversions into `1` inversion plus `3n` multiplications.
    ///
    /// Output order matches input order; each element equals what
    /// [`Self::to_affine`] returns for the corresponding input (identity
    /// representations map to [`GroupElement::identity`]).
    pub fn batch_to_affine(points: &[ProjectivePoint]) -> Vec<GroupElement> {
        let zs: Vec<Fp> = points.iter().map(|p| p.z).collect();
        let zinvs = Fp::batch_invert(&zs);
        points
            .iter()
            .zip(zinvs)
            .map(|(p, zinv)| match zinv {
                None => GroupElement::identity(),
                Some(zinv) => Self::affine_with_z_inverse(p, zinv),
            })
            .collect()
    }

    /// `self.to_affine() == *p` without the field inversion: cross-multiplies
    /// `X == x·Z²` and `Y == y·Z³` (3M + 1S). The identity equals only the
    /// identity.
    pub fn eq_affine(&self, p: &GroupElement) -> bool {
        if self.is_identity() || p.infinity {
            return self.is_identity() && p.infinity;
        }
        let zz = self.z.square();
        self.x == p.x * zz && self.y == p.y * zz * self.z
    }

    /// Point doubling (works for all inputs including the identity).
    pub fn double(&self) -> Self {
        if self.is_identity() || self.y.is_zero() {
            return ProjectivePoint::identity();
        }
        crate::ops::record_double();
        // Standard Jacobian doubling for a = 0 curves.
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let d = ((self.x + b).square() - a - c).double();
        let e = a.double() + a;
        let f = e.square();
        let x3 = f - d.double();
        let y3 = e * (d - x3) - c.double().double().double();
        let z3 = (self.y * self.z).double();
        ProjectivePoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Scalar multiplication by a left-to-right double-and-add with a 4-bit
    /// window (variable time; this library is a protocol reproduction, not a
    /// hardened side-channel-free implementation).
    pub fn mul_scalar(&self, k: &Scalar) -> Self {
        windowed_ladder(*self, k)
    }
}

/// The 4-bit windowed ladder behind [`ProjectivePoint::mul_scalar`] and
/// [`GroupElement::mul_projective`]. Generic over the base's representation
/// so that an affine base fills the digit table with mixed additions; the
/// group-operation count is the same either way.
fn windowed_ladder<B: Copy>(base: B, k: &Scalar) -> ProjectivePoint
where
    ProjectivePoint: AddAssign<B> + AddAssign,
{
    let exp = k.to_u256();
    if exp.is_zero() {
        return ProjectivePoint::identity();
    }
    // Precompute multiples 0P..15P (table[d] = d·P).
    let mut table = [ProjectivePoint::identity(); 16];
    let mut prev = ProjectivePoint::identity();
    for entry in table.iter_mut().skip(1) {
        prev += base;
        *entry = prev;
    }
    let bits = exp.bits();
    let top_window = bits.div_ceil(4);
    let mut acc = ProjectivePoint::identity();
    for w in (0..top_window).rev() {
        for _ in 0..4 {
            acc = acc.double();
        }
        let digit = exp.window(w * 4, 4);
        if let Some(multiple) = table.get(digit).filter(|_| digit != 0) {
            acc += *multiple;
        }
    }
    acc
}

impl Add for ProjectivePoint {
    type Output = ProjectivePoint;
    fn add(self, rhs: ProjectivePoint) -> ProjectivePoint {
        if self.is_identity() {
            return rhs;
        }
        if rhs.is_identity() {
            return self;
        }
        // General Jacobian addition.
        let z1z1 = self.z.square();
        let z2z2 = rhs.z.square();
        let u1 = self.x * z2z2;
        let u2 = rhs.x * z1z1;
        let s1 = self.y * z2z2 * rhs.z;
        let s2 = rhs.y * z1z1 * self.z;
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return ProjectivePoint::identity();
        }
        crate::ops::record_add();
        let h = u2 - u1;
        let i = h.double().square();
        let j = h * i;
        let r = (s2 - s1).double();
        let v = u1 * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (s1 * j).double();
        let z3 = ((self.z + rhs.z).square() - z1z1 - z2z2) * h;
        ProjectivePoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }
}

impl AddAssign for ProjectivePoint {
    fn add_assign(&mut self, rhs: ProjectivePoint) {
        *self = *self + rhs;
    }
}

/// Mixed addition: a Jacobian accumulator plus an affine point, which is the
/// general addition with `Z₂ = 1` folded in (7M + 4S against 11M + 5S).
/// Total like the general one — either side may be the identity, the points
/// may be equal (doubles) or opposite (identity) — and it records the same
/// group operation the general addition would.
impl Add<GroupElement> for ProjectivePoint {
    type Output = ProjectivePoint;
    fn add(self, rhs: GroupElement) -> ProjectivePoint {
        if rhs.infinity {
            return self;
        }
        if self.is_identity() {
            return rhs.into();
        }
        let z1z1 = self.z.square();
        let u2 = rhs.x * z1z1;
        let s2 = rhs.y * z1z1 * self.z;
        if self.x == u2 {
            if self.y == s2 {
                return self.double();
            }
            return ProjectivePoint::identity();
        }
        crate::ops::record_add();
        let h = u2 - self.x;
        let hh = h.square();
        let i = hh.double().double();
        let j = h * i;
        let r = (s2 - self.y).double();
        let v = self.x * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (self.y * j).double();
        let z3 = (self.z + h).square() - z1z1 - hh;
        ProjectivePoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }
}

impl AddAssign<GroupElement> for ProjectivePoint {
    fn add_assign(&mut self, rhs: GroupElement) {
        *self = *self + rhs;
    }
}

impl Neg for ProjectivePoint {
    type Output = ProjectivePoint;
    fn neg(self) -> ProjectivePoint {
        ProjectivePoint {
            x: self.x,
            y: -self.y,
            z: self.z,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn generator_is_on_curve() {
        assert!(GroupElement::generator().is_on_curve());
    }

    #[test]
    fn known_double_of_generator() {
        // 2·G for secp256k1 (standard test vector).
        let two_g = GroupElement::generator() + GroupElement::generator();
        let (x, y) = two_g.coordinates().unwrap();
        assert_eq!(
            x.to_u256(),
            U256::from_hex("C6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5")
                .unwrap()
        );
        assert_eq!(
            y.to_u256(),
            U256::from_hex("1AE168FEA63DC339A3C58419466CEAEEF7F632653266D0E1236431A950CFE52A")
                .unwrap()
        );
    }

    #[test]
    fn group_order_annihilates_generator() {
        let order = Scalar::modulus();
        // [q]G should be the identity; compute via [q-1]G + G.
        let q_minus_1 = Scalar::from_u256(order.wrapping_sub(&U256::ONE));
        let p = GroupElement::generator().mul(&q_minus_1) + GroupElement::generator();
        assert!(p.is_identity());
    }

    #[test]
    fn addition_is_commutative_and_associative() {
        let mut r = rng();
        let a = GroupElement::random(&mut r);
        let b = GroupElement::random(&mut r);
        let c = GroupElement::random(&mut r);
        assert_eq!(a + b, b + a);
        assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn identity_laws() {
        let mut r = rng();
        let a = GroupElement::random(&mut r);
        assert_eq!(a + GroupElement::identity(), a);
        assert!((a - a).is_identity());
        assert_eq!(-GroupElement::identity(), GroupElement::identity());
    }

    #[test]
    fn scalar_multiplication_distributes() {
        let mut r = rng();
        let a = Scalar::random(&mut r);
        let b = Scalar::random(&mut r);
        let lhs = GroupElement::commit(&(a + b));
        let rhs = GroupElement::commit(&a) + GroupElement::commit(&b);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn scalar_multiplication_is_homomorphic_in_the_point() {
        let mut r = rng();
        let k = Scalar::random(&mut r);
        let p = GroupElement::random(&mut r);
        let q = GroupElement::random(&mut r);
        assert_eq!((p + q).mul(&k), p.mul(&k) + q.mul(&k));
    }

    #[test]
    fn small_scalar_multiples_match_repeated_addition() {
        let g = GroupElement::generator();
        let mut acc = GroupElement::identity();
        for i in 0..=10u64 {
            assert_eq!(g.mul(&Scalar::from_u64(i)), acc);
            acc += g;
        }
    }

    #[test]
    fn serialization_roundtrip() {
        let mut r = rng();
        for _ in 0..8 {
            let p = GroupElement::random(&mut r);
            assert_eq!(GroupElement::from_bytes(&p.to_bytes()), Some(p));
        }
        let id = GroupElement::identity();
        assert_eq!(GroupElement::from_bytes(&id.to_bytes()), Some(id));
    }

    #[test]
    fn deserialization_rejects_garbage() {
        let mut bytes = [0u8; 33];
        bytes[0] = 0x05;
        assert!(GroupElement::from_bytes(&bytes).is_none());
        // x = 0 with prefix 02: rhs = 7, which is not a quadratic residue x
        // coordinate of a point? Either way, from_bytes must not panic and
        // must only return valid points.
        bytes[0] = 0x02;
        if let Some(p) = GroupElement::from_bytes(&bytes) {
            assert!(p.is_on_curve());
        }
        // Non-canonical x (>= p).
        let mut big = [0xffu8; 33];
        big[0] = 0x02;
        assert!(GroupElement::from_bytes(&big).is_none());
    }

    #[test]
    fn to_affine_of_identity_is_total() {
        assert!(ProjectivePoint::identity().to_affine().is_identity());
        // A point minus itself yields an identity representation with z = 0
        // through the addition formulas, not the constructor.
        let g = ProjectivePoint::generator();
        let zero = g + (-g);
        assert!(zero.is_identity());
        assert!(zero.to_affine().is_identity());
    }

    #[test]
    fn batch_to_affine_matches_per_point() {
        let mut r = rng();
        let g = ProjectivePoint::generator();
        // A mix of accumulated points (z != 1), identities, and unit-z
        // points, in an order that exercises every interleaving.
        let mut points = Vec::new();
        let mut acc = ProjectivePoint::identity();
        for _ in 0..9 {
            acc += g.mul_scalar(&Scalar::random(&mut r));
            points.push(acc);
            points.push(ProjectivePoint::identity());
            points.push(acc.double());
        }
        points.push(g + (-g));
        let batch = ProjectivePoint::batch_to_affine(&points);
        assert_eq!(batch.len(), points.len());
        for (p, affine) in points.iter().zip(&batch) {
            assert_eq!(*affine, p.to_affine());
        }
        assert!(ProjectivePoint::batch_to_affine(&[]).is_empty());
    }

    /// A spread of Jacobian representations: identity (constructed and
    /// arithmetic), unit-z, and accumulated points with z ≠ 1.
    fn projective_samples(r: &mut StdRng) -> Vec<ProjectivePoint> {
        let g = ProjectivePoint::generator();
        let mut samples = vec![ProjectivePoint::identity(), g + (-g), g];
        let mut acc = ProjectivePoint::identity();
        for _ in 0..6 {
            acc += g.mul_scalar(&Scalar::random(r));
            samples.push(acc);
        }
        samples
    }

    #[test]
    fn mixed_addition_matches_general_addition() {
        let mut r = rng();
        let accs = projective_samples(&mut r);
        let mut addends = vec![GroupElement::identity(), GroupElement::generator()];
        addends.extend((0..4).map(|_| GroupElement::random(&mut r)));
        // Equal (→ doubling) and opposite (→ identity) to every accumulator.
        addends.extend(accs.iter().map(|p| p.to_affine()));
        addends.extend(accs.iter().map(|p| -p.to_affine()));
        for acc in &accs {
            for q in &addends {
                let (mixed, mixed_ops) = crate::ops::measure(|| *acc + *q);
                let (general, general_ops) =
                    crate::ops::measure(|| *acc + ProjectivePoint::from(*q));
                assert_eq!(mixed.to_affine(), general.to_affine());
                assert_eq!(mixed_ops, general_ops);
                let mut assigned = *acc;
                assigned += *q;
                assert_eq!(assigned.to_affine(), general.to_affine());
            }
        }
        let g = GroupElement::generator();
        assert!((ProjectivePoint::identity() + GroupElement::identity()).is_identity());
        assert_eq!((ProjectivePoint::identity() + g).to_affine(), g);
        assert_eq!((ProjectivePoint::generator() + g).to_affine(), g + g);
        assert!((ProjectivePoint::generator() + (-g)).is_identity());
    }

    #[test]
    fn eq_affine_agrees_with_normalised_equality() {
        let mut r = rng();
        let points = projective_samples(&mut r);
        let mut affines: Vec<GroupElement> = points.iter().map(|p| p.to_affine()).collect();
        affines.push(GroupElement::random(&mut r));
        affines.push(-GroupElement::generator());
        for p in &points {
            for a in &affines {
                assert_eq!(p.eq_affine(a), p.to_affine() == *a);
            }
        }
        assert!(ProjectivePoint::identity().eq_affine(&GroupElement::identity()));
        assert!(!ProjectivePoint::identity().eq_affine(&GroupElement::generator()));
        assert!(!ProjectivePoint::generator().eq_affine(&GroupElement::identity()));
    }

    #[test]
    fn affine_and_projective_ladders_agree() {
        let mut r = rng();
        let p = GroupElement::random(&mut r);
        let q_minus_1 = -Scalar::one();
        for k in [
            Scalar::zero(),
            Scalar::one(),
            q_minus_1,
            Scalar::random(&mut r),
        ] {
            let (a, a_ops) = crate::ops::measure(|| p.mul_projective(&k));
            let (b, b_ops) = crate::ops::measure(|| ProjectivePoint::from(p).mul_scalar(&k));
            assert_eq!(a.to_affine(), b.to_affine());
            assert_eq!(a_ops, b_ops);
        }
        assert!(GroupElement::identity()
            .mul(&Scalar::from_u64(5))
            .is_identity());
    }

    #[test]
    fn negation_roundtrip_through_bytes() {
        let mut r = rng();
        let p = GroupElement::random(&mut r);
        let neg = -p;
        assert_ne!(p.to_bytes(), neg.to_bytes());
        assert_eq!(GroupElement::from_bytes(&neg.to_bytes()), Some(neg));
        assert!((p + neg).is_identity());
    }
}
