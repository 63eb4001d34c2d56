//! Precomputed fixed-base scalar multiplication.
//!
//! Two kinds of base never change over a process lifetime, and both get a
//! table:
//!
//! * the group generator `g` — every Feldman commitment the protocols
//!   compute or verify is `g^s` ([`GroupElement::commit`]), served by the
//!   process-wide [`generator_table`];
//! * every signer's public key in the static PKI — each Schnorr check
//!   raises one of `n` directory keys to the challenge, so `dkg-crypto`'s
//!   `KeyDirectory` holds one [`FixedBaseTable`] per registered key.
//!
//! A windowed table trades a one-time precomputation for removing all
//! doublings from every subsequent multiplication. With window width `w`
//! the scalar is recoded into **signed digits** `d_i ∈ (−2^{w−1}, 2^{w−1}]`
//! (a window whose value exceeds `2^{w−1}` becomes `value − 2^w` and carries
//! one into the next), so the table only stores `d · 2^{wi} · B` for
//! `d ∈ [1, 2^{w−1}]` — half the entries an unsigned digit needs — and a
//! negative digit adds the negated entry, which is a field negation, not a
//! group operation. The carry needs one window more than the bits: a
//! scalar multiplication is at most `⌊256/w⌋ + 1` point additions.
//!
//! ## Storage
//!
//! Entries are **affine**, normalised about a thousand at a time when the
//! table is built (one field inversion per batch through
//! [`ProjectivePoint::batch_to_affine`]) and kept without an identity flag:
//! 64 bytes each instead of a Jacobian point's 96. A walk accumulates them
//! into one Jacobian point with the mixed addition (`ProjectivePoint +=
//! GroupElement`, 7M + 4S instead of 11M + 5S). [`FixedBaseTable::mul_onto`]
//! continues an accumulator the caller already holds, so a product of
//! powers of several fixed bases is one chain of additions.
//!
//! ## Window width
//!
//! Wider windows make each multiplication cheaper (fewer windows to add)
//! but the precomputation exponentially more expensive (`2^{w−1}` multiples
//! per window), so the right width depends on how many multiplications the
//! table will serve. [`table_window`] picks the width minimising the
//! amortised cost model [`table_cost`] via a precomputed crossover table
//! (pinned to the model by a unit test); [`FixedBaseTable::with_budget`]
//! builds a table sized for an expected multiplication count.
//!
//! [`generator_table`] is built lazily on first use and sized for a
//! long-lived process ([`GENERATOR_EXPECTED_MULS`] multiplications → a
//! 10-bit window, 26 windows × 512 = 13 312 entries = 832 KiB);
//! [`GroupElement::commit`] routes through it, so the whole workspace
//! (commitment generation, `verify-poly` / `verify-point`, the batch engine
//! in `dkg-poly`) inherits the speedup transparently. A 4-bit per-key table
//! is 65 windows × 8 = 520 entries = 32.5 KiB and costs 520 group operations
//! to build: per window, 7 for the multiples `2..=8` of the window's base
//! and one doubling of the 8th, which is the next window's base.

use std::sync::OnceLock;

use crate::curve::{GroupElement, PackedPoint, ProjectivePoint};
use crate::field::{PrimeField, Scalar};
use crate::u256::U256;

/// The multiplication budget the process-wide [`generator_table`] is sized
/// for. A DKG node computes and verifies commitments for the whole of every
/// session it joins — thousands of fixed-base multiplications over a
/// process lifetime — which lands the cost model on a 10-bit window
/// (13 312 one-time group operations, 832 KiB, at most 26 additions per
/// multiplication).
pub const GENERATOR_EXPECTED_MULS: usize = 4096;

const SCALAR_BITS: usize = 256;

/// A table under construction is normalised to affine whenever this many
/// Jacobian multiples have piled up (checked after each window): a whole
/// 4-bit table pays one field inversion, not one per window, and a wide
/// table's scratch space stays near 200 KiB instead of half again its size.
const NORMALISE_BATCH: usize = 1024;

/// Expected-multiplication-count crossovers for [`table_window`]: entry
/// `(m, w)` means "from `m` expected multiplications (inclusive) the best
/// window width is `w` bits". Derived as the argmin of [`table_cost`] over
/// `w ∈ 1..=12`; `window_crossovers_match_cost_model` pins it to the model.
const TABLE_CROSSOVERS: &[(usize, usize)] = &[
    (0, 1),
    (1, 2),
    (3, 3),
    (9, 4),
    (25, 5),
    (61, 6),
    (166, 7),
    (465, 8),
    (801, 9),
    (1963, 10),
    (5633, 11),
    (10241, 12),
];

/// Windows of a `w`-bit signed-digit recoding of a 256-bit scalar: one per
/// whole `w` bits plus one for the remaining bits and the last carry.
fn signed_windows(w: usize) -> usize {
    SCALAR_BITS / w + 1
}

/// Cost model for a fixed-base table with window width `w` serving
/// `expected_muls` multiplications, in group operations: building the table
/// costs `2^{w−1}` per window (the multiples `2..=2^{w−1}` of the window's
/// base, plus the doubling that gives the next base), and each
/// multiplication at most one addition per window (no doublings), over
/// `⌊256/w⌋ + 1` windows.
pub fn table_cost(expected_muls: usize, w: usize) -> u64 {
    let windows = signed_windows(w) as u64;
    windows * (1u64 << (w - 1)) + expected_muls as u64 * windows
}

/// The window width (in bits) minimising [`table_cost`] for a table
/// expected to serve `expected_muls` multiplications, via the precomputed
/// `TABLE_CROSSOVERS` table.
pub fn table_window(expected_muls: usize) -> usize {
    let mut window = 1;
    for &(from, w) in TABLE_CROSSOVERS {
        if expected_muls >= from {
            window = w;
        } else {
            break;
        }
    }
    window
}

/// A signed-digit windowed precomputation table for multiples of one fixed
/// base point.
#[derive(Clone)]
pub struct FixedBaseTable {
    window: usize,
    /// Window `i` occupies `entries[i·2^{w−1}..][..2^{w−1}]`, and its entry
    /// `d − 1` is `d · 2^{w·i} · B` for digit `d ∈ [1, 2^{w−1}]`.
    entries: Vec<PackedPoint>,
}

// A derived Debug would print every entry: 32.5 KiB for a 4-bit table,
// 832 KiB for the generator's.
impl std::fmt::Debug for FixedBaseTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FixedBaseTable")
            .field("window", &self.window)
            .field("entries", &self.entries.len())
            .finish()
    }
}

impl FixedBaseTable {
    /// Precomputes the table for `base` with window width `window` bits
    /// (clamped to `[1, 16]`).
    pub fn new(base: &GroupElement, window: usize) -> Self {
        let window = window.clamp(1, 16);
        let half = 1usize << (window - 1);
        let num_windows = signed_windows(window);
        let mut entries = Vec::with_capacity(num_windows * half);
        let mut multiples = Vec::new();
        let mut window_base = ProjectivePoint::from(*base);
        for w in 1..=num_windows {
            let mut acc = window_base;
            multiples.push(acc);
            for _ in 1..half {
                acc += window_base;
                multiples.push(acc);
            }
            // `acc` is now 2^{w−1} · window_base: doubled, the next window's
            // base.
            window_base = acc.double();
            if multiples.len() >= NORMALISE_BATCH || w == num_windows {
                let affine = ProjectivePoint::batch_to_affine(&multiples);
                entries.extend(affine.into_iter().map(PackedPoint::from));
                multiples.clear();
            }
        }
        FixedBaseTable { window, entries }
    }

    /// Precomputes a table for `base` with the window width the cost model
    /// picks for `expected_muls` multiplications (see [`table_window`]).
    pub fn with_budget(base: &GroupElement, expected_muls: usize) -> Self {
        Self::new(base, table_window(expected_muls))
    }

    /// The window width in bits.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Computes `k · B` (written multiplicatively: `B^k`) using only point
    /// additions.
    pub fn mul(&self, k: &Scalar) -> GroupElement {
        self.mul_projective(k).to_affine()
    }

    /// [`Self::mul`] without the final affine normalisation — callers
    /// batching many fixed-base multiplications keep the projective results
    /// and amortise the per-point field inversion through
    /// [`ProjectivePoint::batch_to_affine`].
    pub fn mul_projective(&self, k: &Scalar) -> ProjectivePoint {
        let mut acc = ProjectivePoint::identity();
        self.mul_onto(&mut acc, k);
        acc
    }

    /// Adds `k · B` to `acc`: one mixed addition per non-zero signed digit
    /// of `k`, no doublings.
    pub fn mul_onto(&self, acc: &mut ProjectivePoint, k: &Scalar) {
        let k = k.to_u256();
        let half = 1usize << (self.window - 1);
        let mut carry = 0;
        for (w, multiples) in self.entries.chunks(half).enumerate() {
            let value = window_bits(&k, w * self.window, self.window) + carry;
            // Recode into (−2^{w−1}, 2^{w−1}]: above half, borrow 2^w from
            // the next window. A 256-bit scalar's top window holds fewer
            // than w bits, so it never carries out.
            let negative = value > half;
            let digit = if negative {
                (1 << self.window) - value
            } else {
                value
            };
            carry = usize::from(negative);
            if let Some(point) = digit.checked_sub(1).and_then(|d| multiples.get(d)) {
                let point = GroupElement::from(*point);
                *acc += if negative { -point } else { point };
            }
        }
    }

    /// Computes `k · B` for every scalar in `ks` with a *single* field
    /// inversion for the whole batch (projective accumulation +
    /// [`ProjectivePoint::batch_to_affine`]); output order matches input
    /// order, each element equals `self.mul(k)`.
    pub fn mul_batch(&self, ks: &[Scalar]) -> Vec<GroupElement> {
        let projective: Vec<ProjectivePoint> = ks.iter().map(|k| self.mul_projective(k)).collect();
        ProjectivePoint::batch_to_affine(&projective)
    }
}

/// Bits `[start, start + width)` of `k` (`width ≤ 16`), zero above bit 255.
fn window_bits(k: &U256, start: usize, width: usize) -> usize {
    let limbs = k.limbs();
    let limb = |i: usize| u128::from(limbs.get(i).copied().unwrap_or(0));
    let (index, shift) = (start / 64, start % 64);
    let two_limbs = limb(index) | (limb(index + 1) << 64);
    (two_limbs >> shift) as usize & ((1 << width) - 1)
}

/// The process-wide precomputed table for the group generator `g`, built on
/// first use and sized by the cost model for [`GENERATOR_EXPECTED_MULS`]
/// multiplications. `GroupElement::commit` is routed through this table.
pub fn generator_table() -> &'static FixedBaseTable {
    static TABLE: OnceLock<FixedBaseTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        FixedBaseTable::with_budget(&GroupElement::generator(), GENERATOR_EXPECTED_MULS)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_generic_scalar_mul() {
        let mut rng = StdRng::seed_from_u64(99);
        let table = generator_table();
        for _ in 0..8 {
            let k = Scalar::random(&mut rng);
            assert_eq!(table.mul(&k), GroupElement::generator().mul(&k));
        }
    }

    #[test]
    fn handles_edge_scalars() {
        let table = generator_table();
        assert!(table.mul(&Scalar::zero()).is_identity());
        assert_eq!(table.mul(&Scalar::one()), GroupElement::generator());
        let minus_one = -Scalar::one();
        assert_eq!(table.mul(&minus_one), -GroupElement::generator());
    }

    #[test]
    fn works_for_non_generator_bases_and_narrow_windows() {
        // Signed-digit walks against the 4-bit ladder for every width up to
        // 12. Widths that do not divide 256 have a short top window; widths
        // that do have a top window holding only the last carry.
        let mut rng = StdRng::seed_from_u64(7);
        let base = GroupElement::random(&mut rng);
        let bit = |b: usize| U256::ONE.shl(b);
        let ones = |bits: usize| bit(bits).wrapping_sub(&U256::ONE);
        for window in 1..=12usize {
            let (table, build) = ops::measure(|| FixedBaseTable::new(&base, window));
            assert_eq!(table.window(), window);
            let entries = signed_windows(window) << (window - 1);
            assert_eq!(table.entries.len(), entries);
            assert_eq!(build.total(), entries as u64, "one group op per entry");
            // Every digit exactly 2^{w−1}, the largest that does not carry.
            let all_half = (0..signed_windows(window))
                .map(|w| w * window + window - 1)
                .filter(|&b| b < SCALAR_BITS)
                .fold(U256::ZERO, |k, b| k.wrapping_add(&bit(b)));
            let mut scalars = vec![
                Scalar::zero(),
                Scalar::one(),
                -Scalar::one(),
                -Scalar::from_u64(2),
                Scalar::from_u256(all_half),
                // Runs of ones: every window carries, up into the top one.
                Scalar::from_u256(ones(255)),
                Scalar::from_u256(ones(248)),
                Scalar::from_u256(ones(window)),
                Scalar::random(&mut rng),
            ];
            scalars.extend([0, 1, 63, 64, 128, 200, 254, 255].map(|b| Scalar::from_u256(bit(b))));
            for k in scalars {
                let (walk, ops) = ops::measure(|| table.mul(&k));
                assert_eq!(walk, base.mul(&k), "window {window}, {k:?}");
                assert_eq!(ops.doubles, 0);
                assert!(ops.adds <= signed_windows(window) as u64);
            }
        }
        let identity = FixedBaseTable::new(&GroupElement::identity(), 4);
        assert!(identity.mul(&Scalar::random(&mut rng)).is_identity());
    }

    #[test]
    fn mul_onto_continues_an_accumulator() {
        let mut rng = StdRng::seed_from_u64(8);
        let base = GroupElement::random(&mut rng);
        let table = FixedBaseTable::new(&base, 4);
        let (a, b) = (Scalar::random(&mut rng), Scalar::random(&mut rng));
        let mut acc = generator_table().mul_projective(&a);
        let ((), walk) = ops::measure(|| table.mul_onto(&mut acc, &b));
        assert_eq!(acc.to_affine(), GroupElement::commit(&a) + base.mul(&b));
        assert_eq!(walk.doubles, 0);
        // 64 four-bit windows plus the signed recoding's carry window.
        assert!(walk.adds <= 65);
        // Cancelling the accumulator exactly lands on the identity.
        table.mul_onto(&mut acc, &-b);
        generator_table().mul_onto(&mut acc, &-a);
        assert!(acc.is_identity());
    }

    #[test]
    fn debug_output_does_not_list_entries() {
        // Signed digits: 65 windows × 8 multiples (unsigned digits stored
        // 64 × 15 = 960).
        let table = FixedBaseTable::new(&GroupElement::generator(), 4);
        assert_eq!(
            format!("{table:?}"),
            "FixedBaseTable { window: 4, entries: 520 }"
        );
    }

    #[test]
    fn uses_fewer_group_ops_than_generic_mul() {
        let mut rng = StdRng::seed_from_u64(13);
        let k = Scalar::random(&mut rng);
        let table = generator_table(); // warm the lazy init before measuring
        let (a, table_ops) = ops::measure(|| table.mul(&k));
        let (b, generic_ops) =
            ops::measure(|| ProjectivePoint::generator().mul_scalar(&k).to_affine());
        assert_eq!(a, b);
        assert_eq!(table_ops.doubles, 0);
        assert!(table_ops.total() * 4 < generic_ops.total());
    }

    #[test]
    fn mul_batch_matches_individual_muls() {
        let mut rng = StdRng::seed_from_u64(21);
        let base = GroupElement::random(&mut rng);
        let table = FixedBaseTable::with_budget(&base, 8);
        let mut ks: Vec<Scalar> = (0..7).map(|_| Scalar::random(&mut rng)).collect();
        ks.push(Scalar::zero()); // identity result in the middle of a batch
        ks.push(Scalar::one());
        let batch = table.mul_batch(&ks);
        assert_eq!(batch.len(), ks.len());
        for (k, p) in ks.iter().zip(&batch) {
            assert_eq!(*p, table.mul(k));
        }
        assert!(table.mul_batch(&[]).is_empty());
    }

    #[test]
    fn window_crossovers_match_cost_model() {
        let argmin_cost = |m: usize| (1..=12).map(|w| table_cost(m, w)).min().unwrap();
        for m in 0..=4096usize {
            assert_eq!(table_cost(m, table_window(m)), argmin_cost(m), "m={m}");
        }
        for &(from, _) in TABLE_CROSSOVERS {
            for m in [from.saturating_sub(1), from, from + 1, 25_000] {
                assert_eq!(table_cost(m, table_window(m)), argmin_cost(m), "m={m}");
            }
        }
        // The process-wide generator table gets the width the model picks
        // for its documented budget.
        assert_eq!(
            generator_table().window(),
            table_window(GENERATOR_EXPECTED_MULS)
        );
        assert_eq!(table_window(GENERATOR_EXPECTED_MULS), 10);
    }
}
