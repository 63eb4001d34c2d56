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
//! doublings from every subsequent multiplication: with window width `w`,
//! the table stores `d · 2^{wi} · B` for every window `i` and digit
//! `d ∈ [1, 2^w)`, and a scalar multiplication becomes at most `⌈256/w⌉`
//! point additions.
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
//! but the precomputation exponentially more expensive (`2^w − 1` multiples
//! per window), so the right width depends on how many multiplications the
//! table will serve. [`table_window`] picks the width minimising the
//! amortised cost model [`table_cost`] via a precomputed crossover table
//! (pinned to the model by a unit test); [`FixedBaseTable::with_budget`]
//! builds a table sized for an expected multiplication count.
//!
//! [`generator_table`] is built lazily on first use and sized for a
//! long-lived process ([`GENERATOR_EXPECTED_MULS`] multiplications → a
//! 10-bit window, 26 598 entries ≈ 1.6 MiB); [`GroupElement::commit`] routes
//! through it, so the whole workspace (commitment generation, `verify-poly`
//! / `verify-point`, the batch engine in `dkg-poly`) inherits the speedup
//! transparently. A 4-bit per-key table is 960 entries = 60 KiB and costs
//! 960 group operations to build (≈ 0.8 ms).

use std::sync::OnceLock;

use crate::curve::{GroupElement, PackedPoint, ProjectivePoint};
use crate::field::{PrimeField, Scalar};

/// Default window width (bits per digit) when no multiplication budget is
/// given ([`FixedBaseTable::new`] clamps explicit widths to `[1, 16]`).
pub const DEFAULT_WINDOW: usize = 8;

/// The multiplication budget the process-wide [`generator_table`] is sized
/// for. A DKG node computes and verifies commitments for the whole of every
/// session it joins — thousands of fixed-base multiplications over a
/// process lifetime — which lands the cost model on a 10-bit window
/// (~26.6k one-time additions, ~1.6 MiB, 26 additions per multiplication).
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
    (2, 2),
    (6, 3),
    (17, 4),
    (55, 5),
    (122, 6),
    (332, 7),
    (693, 8),
    (2220, 9),
    (3927, 10),
    (11266, 11),
    (20482, 12),
];

/// Cost model for a fixed-base table with window width `w` serving
/// `expected_muls` multiplications, in point additions: building the table
/// costs `⌈256/w⌉ · (2^w − 1)` additions, and each multiplication costs at
/// most `⌈256/w⌉` additions (one per window, no doublings).
pub fn table_cost(expected_muls: usize, w: usize) -> u64 {
    let windows = 256u64.div_ceil(w as u64);
    windows * ((1u64 << w) - 1) + expected_muls as u64 * windows
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

/// A windowed precomputation table for multiples of one fixed base point.
#[derive(Clone)]
pub struct FixedBaseTable {
    window: usize,
    /// Window `i` occupies `entries[i·(2^w − 1)..][..2^w − 1]`, and its
    /// entry `d − 1` is `d · 2^{w·i} · B` for digit `d ∈ [1, 2^w)`.
    entries: Vec<PackedPoint>,
}

// A derived Debug would print every entry: 60 KiB for a 4-bit table, 1.6 MiB
// for the generator's.
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
        let digits_per_window = (1usize << window) - 1;
        let num_windows = SCALAR_BITS.div_ceil(window);
        let mut entries = Vec::with_capacity(num_windows * digits_per_window);
        let mut multiples = Vec::new();
        let mut window_base = ProjectivePoint::from(*base);
        for w in 1..=num_windows {
            let mut acc = window_base;
            for _ in 0..digits_per_window {
                multiples.push(acc);
                acc += window_base;
            }
            // `acc` is now 2^w · window_base: the next window's base.
            window_base = acc;
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

    /// Adds `k · B` to `acc`: one mixed addition per non-zero digit of `k`,
    /// no doublings.
    pub fn mul_onto(&self, acc: &mut ProjectivePoint, k: &Scalar) {
        let bytes = k.to_be_bytes();
        let digits_per_window = (1usize << self.window) - 1;
        for (w, multiples) in self.entries.chunks(digits_per_window).enumerate() {
            let digit = extract_window(&bytes, w, self.window);
            if let Some(point) = digit.checked_sub(1).and_then(|d| multiples.get(d)) {
                *acc += GroupElement::from(*point);
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

/// Extracts window `w` (width `c` bits, windows counted from the least
/// significant bit) of a big-endian 256-bit integer.
fn extract_window(be_bytes: &[u8; 32], w: usize, c: usize) -> usize {
    let start_bit = w * c;
    let mut value = 0usize;
    for i in 0..c {
        let bit = start_bit + i;
        if bit >= SCALAR_BITS {
            break;
        }
        let byte = be_bytes.get(31 - bit / 8).copied().unwrap_or(0);
        if (byte >> (bit % 8)) & 1 == 1 {
            value |= 1 << i;
        }
    }
    value
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
        // Widths 3, 5, 6, 7, 9, 10 do not divide 256: their top window is
        // short.
        let mut rng = StdRng::seed_from_u64(7);
        let base = GroupElement::random(&mut rng);
        let edge = [Scalar::zero(), Scalar::one(), -Scalar::one()];
        for window in 1..=10usize {
            let table = FixedBaseTable::new(&base, window);
            assert_eq!(table.window(), window);
            for k in edge.into_iter().chain([Scalar::random(&mut rng)]) {
                assert_eq!(table.mul(&k), base.mul(&k), "window {window}");
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
        assert!(walk.adds <= 64);
        // Cancelling the accumulator exactly lands on the identity.
        table.mul_onto(&mut acc, &-b);
        generator_table().mul_onto(&mut acc, &-a);
        assert!(acc.is_identity());
    }

    #[test]
    fn debug_output_does_not_list_entries() {
        let table = FixedBaseTable::new(&GroupElement::generator(), 4);
        assert_eq!(
            format!("{table:?}"),
            "FixedBaseTable { window: 4, entries: 960 }"
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
