//! Multi-exponentiation (multi-scalar multiplication).
//!
//! Commitment verification in the VSS layer repeatedly evaluates products of
//! the form `Π_j C_j^{e_j}` (e.g. `verify-poly` and `verify-point` in Fig. 1
//! of the paper). Evaluating each term separately costs one full scalar
//! multiplication per term; the Pippenger bucket method below shares the
//! doublings across all terms and is several times faster for the matrix
//! sizes that appear in practice (`t+1` up to a few dozen terms).
//!
//! ## Decomposition and parallelism
//!
//! Pippenger splits each 256-bit scalar into `⌈256/c⌉` windows of `c` bits.
//! For one window `w`, every point whose window-`w` digit is `d ≠ 0` is
//! added into bucket `d`; the bucket sums are then folded with the
//! running-sum trick into the *window sum* `Σ_d d·bucket_d`, and the final
//! result is the Horner combine `Σ_w 2^{cw} · windowsum_w` (c doublings per
//! window plus one addition).
//!
//! Two facts make this embarrassingly parallel without changing the result:
//! window sums for different `w` are completely independent, and a window
//! sum over a *partition* of the points is the sum of the per-part window
//! sums (linearity of the bucket map). [`multiexp`] therefore builds a grid
//! of `(window, point-range)` tasks and runs them through the
//! [`crate::parallel`] facade; the combine step is sequential and cheap
//! (256 doublings total). Because the group law is exact and the output is
//! normalised to canonical affine coordinates, the parallel path is
//! **bit-identical** to the sequential one for every worker count —
//! transcripts do not change.
//!
//! Parallelism engages only for inputs of at least
//! [`crate::parallel::par_threshold`] points (`DKG_MULTIEXP_PAR_THRESHOLD`,
//! default 256): the `t+1`-sized multiexps inside a single `verify-poly`
//! stay sequential (the engine's job-level pool already keeps the cores
//! busy there), while a multiexp big enough to be worth it splits across
//! the machine.
//!
//! ## Window width
//!
//! The window width is chosen per input size from a group-operation cost
//! model ([`pippenger_cost`]) via a precomputed crossover table
//! ([`pippenger_window`]), replacing the old hand-tuned step function. A
//! unit test pins the table to the model's argmin.

use crate::curve::{GroupElement, ProjectivePoint};
use crate::field::{PrimeField, Scalar};
use crate::parallel;

/// Point ranges are split into chunks of at most this many points when
/// building the `(window, point-range)` task grid. Window tasks alone give
/// `⌈256/c⌉ ≥ 16`-way parallelism; point splitting additionally bounds the
/// size of a single task on very large inputs so the chunks load-balance.
const POINT_SPLIT: usize = 4096;

/// Computes `Σ_i [scalars_i] points_i` (written multiplicatively:
/// `Π_i points_i ^ scalars_i`).
///
/// Returns the identity element for empty input. Mismatched slice lengths
/// are a programming error and panic.
///
/// Inputs of at least [`crate::parallel::par_threshold`] points are split
/// across [`crate::parallel::default_workers`] threads; smaller inputs (and
/// any input under a [`crate::parallel::sequential`] scope) run on the
/// calling thread. Both paths return bit-identical results.
pub fn multiexp(points: &[GroupElement], scalars: &[Scalar]) -> GroupElement {
    let workers = match parallel::worker_override() {
        Some(w) => w,
        None if points.len() >= parallel::par_threshold() => parallel::default_workers(),
        None => 1,
    };
    multiexp_with_workers(points, scalars, workers)
}

/// [`multiexp`] with an explicit worker count (1 = fully sequential),
/// bypassing the size threshold and environment knobs. The result is
/// bit-identical for every worker count.
pub fn multiexp_with_workers(
    points: &[GroupElement],
    scalars: &[Scalar],
    workers: usize,
) -> GroupElement {
    assert_eq!(
        points.len(),
        scalars.len(),
        "multiexp requires one scalar per point"
    );
    match (points, scalars) {
        ([], _) => GroupElement::identity(),
        ([p], [s]) => p.mul(s),
        _ => multiexp_pippenger(points, scalars, workers, POINT_SPLIT).to_affine(),
    }
}

/// Crossover table for [`pippenger_window`]: entry `(n, c)` means "from `n`
/// points (inclusive) the best window width is `c` bits". Derived as the
/// argmin of [`pippenger_cost`] over `c ∈ 1..=16`; `crossover_table_matches_
/// cost_model` pins it to the model.
const PIPPENGER_CROSSOVERS: &[(usize, usize)] = &[
    (1, 1),
    (3, 2),
    (11, 3),
    (33, 4),
    (109, 5),
    (244, 6),
    (664, 7),
    (1385, 8),
    (4440, 9),
    (7853, 10),
    (22531, 11),
    (40963, 12),
    (73731, 13),
    (294915, 14),
];

/// Group-operation cost model for an `n`-point Pippenger multiexp with a
/// `c`-bit window: each of the `⌈256/c⌉` windows pays at most `n` bucket
/// additions plus `2·(2^c − 1)` running-sum additions, and the Horner
/// combine pays 256 doublings overall. Additions and doublings are close
/// enough in cost on this curve to weigh equally.
pub fn pippenger_cost(n: usize, c: usize) -> u64 {
    let windows = 256u64.div_ceil(c as u64);
    let buckets = (1u64 << c) - 1;
    windows * (n as u64 + 2 * buckets) + 256
}

/// The window width (in bits) minimising [`pippenger_cost`] for an
/// `n`-point multiexp, via the precomputed `PIPPENGER_CROSSOVERS` table.
pub fn pippenger_window(n: usize) -> usize {
    let mut window = 1;
    for &(from, c) in PIPPENGER_CROSSOVERS {
        if n >= from {
            window = c;
        } else {
            break;
        }
    }
    window
}

/// The bucket phase for one `(window, point-range)` task: accumulates each
/// point into the bucket selected by its window-`w` digit, then folds the
/// buckets into `Σ_d d·bucket_d` with the running-sum trick.
fn window_sum(points: &[GroupElement], digits: &[[u8; 32]], w: usize, c: usize) -> ProjectivePoint {
    let mut buckets = vec![ProjectivePoint::identity(); (1usize << c) - 1];
    for (point, bytes) in points.iter().zip(digits) {
        let digit = extract_window(bytes, w, c);
        if let Some(slot) = digit.checked_sub(1).and_then(|d| buckets.get_mut(d)) {
            *slot += *point;
        }
    }
    let mut running = ProjectivePoint::identity();
    let mut sum = ProjectivePoint::identity();
    for bucket in buckets.iter().rev() {
        running += *bucket;
        sum += running;
    }
    sum
}

/// Pippenger over a `(window × point-chunk)` task grid. `point_split` caps
/// the points per task (exposed as a parameter so the grid decomposition is
/// unit-testable with tiny chunks); `workers` is the parallel-map fan-out
/// (1 = inline on the caller, same arithmetic, bit-identical result).
fn multiexp_pippenger(
    points: &[GroupElement],
    scalars: &[Scalar],
    workers: usize,
    point_split: usize,
) -> ProjectivePoint {
    let n = points.len();
    let c = pippenger_window(n);
    let num_windows = 256usize.div_ceil(c);
    let digits: Vec<[u8; 32]> = scalars.iter().map(|s| s.to_be_bytes()).collect();

    let chunk = point_split.max(1);
    let tasks: Vec<(usize, usize)> = (0..num_windows)
        .flat_map(|w| (0..n.div_ceil(chunk)).map(move |i| (w, i * chunk)))
        .collect();

    let partials = parallel::parallel_map(tasks, workers, |(w, lo)| {
        let hi = lo.saturating_add(chunk).min(n);
        let ps = points.get(lo..hi).unwrap_or_default();
        let ds = digits.get(lo..hi).unwrap_or_default();
        (w, window_sum(ps, ds, w, c))
    });

    // Window sums are additive across point chunks (linearity), so merging
    // a chunked grid gives exactly the unchunked per-window sums.
    let mut sums = vec![ProjectivePoint::identity(); num_windows];
    for (w, partial) in partials {
        if let Some(slot) = sums.get_mut(w) {
            *slot += partial;
        }
    }

    // Horner combine, most significant window first: c doublings then one
    // addition per window.
    let mut result = ProjectivePoint::identity();
    for sum in sums.iter().rev() {
        for _ in 0..c {
            result = result.double();
        }
        result += *sum;
    }
    result
}

/// Extracts window `w` (of width `c` bits, counting windows from the least
/// significant bit) from a big-endian 256-bit integer.
fn extract_window(be_bytes: &[u8; 32], w: usize, c: usize) -> usize {
    let start_bit = w * c;
    let mut value = 0usize;
    for i in 0..c {
        let bit = start_bit + i;
        if bit >= 256 {
            break;
        }
        let byte = be_bytes.get(31 - bit / 8).copied().unwrap_or(0);
        if (byte >> (bit % 8)) & 1 == 1 {
            value |= 1 << i;
        }
    }
    value
}

/// Computes `Π_i points_i ^ (base^i)` for `i = 0..points.len()`, i.e. a
/// multi-exponentiation with successive powers of a fixed base. This is the
/// access pattern of every per-claim commitment check in `dkg-poly`:
/// `verify-poly`'s columns, the row projection, share commitments and
/// commitment-vector evaluation all raise their points to `1, x, x², …`.
pub fn multiexp_powers(points: &[GroupElement], base: Scalar) -> GroupElement {
    let mut scalars = Vec::with_capacity(points.len());
    let mut acc = Scalar::one();
    for _ in 0..points.len() {
        scalars.push(acc);
        acc *= base;
    }
    multiexp(points, &scalars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn naive(points: &[GroupElement], scalars: &[Scalar]) -> GroupElement {
        points.iter().zip(scalars).map(|(p, s)| p.mul(s)).sum()
    }

    fn random_input(n: usize, seed: u64) -> (Vec<GroupElement>, Vec<Scalar>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let points = (0..n).map(|_| GroupElement::random(&mut rng)).collect();
        let scalars = (0..n).map(|_| Scalar::random(&mut rng)).collect();
        (points, scalars)
    }

    #[test]
    fn empty_input_is_identity() {
        assert!(multiexp(&[], &[]).is_identity());
    }

    #[test]
    fn single_term_matches_scalar_mul() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = GroupElement::random(&mut rng);
        let s = Scalar::random(&mut rng);
        assert_eq!(multiexp(&[p], &[s]), p.mul(&s));
    }

    #[test]
    fn matches_naive_for_various_sizes() {
        let mut rng = StdRng::seed_from_u64(2);
        for n in [2usize, 3, 5, 13, 41] {
            let points: Vec<_> = (0..n).map(|_| GroupElement::random(&mut rng)).collect();
            let scalars: Vec<_> = (0..n).map(|_| Scalar::random(&mut rng)).collect();
            assert_eq!(
                multiexp(&points, &scalars),
                naive(&points, &scalars),
                "n={n}"
            );
        }
    }

    #[test]
    fn handles_zero_and_small_scalars() {
        let mut rng = StdRng::seed_from_u64(3);
        let points: Vec<_> = (0..4).map(|_| GroupElement::random(&mut rng)).collect();
        let scalars = vec![
            Scalar::zero(),
            Scalar::one(),
            Scalar::from_u64(2),
            Scalar::from_u64(u64::MAX),
        ];
        assert_eq!(multiexp(&points, &scalars), naive(&points, &scalars));
    }

    #[test]
    fn powers_variant_matches_naive() {
        let mut rng = StdRng::seed_from_u64(4);
        let points: Vec<_> = (0..6).map(|_| GroupElement::random(&mut rng)).collect();
        let base = Scalar::from_u64(7);
        let mut scalars = Vec::new();
        let mut acc = Scalar::one();
        for _ in 0..points.len() {
            scalars.push(acc);
            acc *= base;
        }
        assert_eq!(multiexp_powers(&points, base), naive(&points, &scalars));
    }

    #[test]
    #[should_panic(expected = "one scalar per point")]
    fn mismatched_lengths_panic() {
        let _ = multiexp(&[GroupElement::generator()], &[]);
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        // Sizes straddle the small crossovers (3, 11, 33) plus 0/1/2 edges.
        for n in [0usize, 1, 2, 3, 10, 11, 33, 40] {
            let (points, scalars) = random_input(n, 0xA110 + n as u64);
            let seq = multiexp_with_workers(&points, &scalars, 1);
            for workers in [2usize, 8] {
                let par = multiexp_with_workers(&points, &scalars, workers);
                assert_eq!(par.to_bytes(), seq.to_bytes(), "n={n} workers={workers}");
            }
        }
    }

    #[test]
    fn worker_override_is_honoured_and_bit_identical() {
        let (points, scalars) = random_input(25, 77);
        let seq = parallel::sequential(|| multiexp(&points, &scalars));
        for workers in [2usize, 8] {
            let par = parallel::with_workers(workers, || multiexp(&points, &scalars));
            assert_eq!(par.to_bytes(), seq.to_bytes(), "workers={workers}");
        }
        assert_eq!(seq, naive(&points, &scalars));
    }

    #[test]
    fn point_chunked_grid_matches_unchunked() {
        // Tiny point_split values force multi-chunk windows even for small
        // inputs, exercising the chunk-merge path cheaply.
        let (points, scalars) = random_input(17, 5);
        let reference = multiexp_pippenger(&points, &scalars, 1, POINT_SPLIT).to_affine();
        for point_split in [1usize, 3, 5, 16, 17] {
            for workers in [1usize, 4] {
                let chunked =
                    multiexp_pippenger(&points, &scalars, workers, point_split).to_affine();
                assert_eq!(
                    chunked.to_bytes(),
                    reference.to_bytes(),
                    "split={point_split} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn parallel_op_counts_match_sequential() {
        let (points, scalars) = random_input(64, 9);
        let (seq, seq_ops) = crate::ops::measure(|| multiexp_with_workers(&points, &scalars, 1));
        let (par, par_ops) = crate::ops::measure(|| multiexp_with_workers(&points, &scalars, 4));
        assert_eq!(seq, par);
        // Chunking is off below POINT_SPLIT, so the parallel grid performs
        // exactly the sequential adds/doubles, merely on other threads —
        // merged counters must agree exactly.
        assert_eq!(seq_ops, par_ops);
    }

    #[test]
    fn crossover_table_matches_cost_model() {
        let argmin_cost = |n: usize| (1..=16).map(|c| pippenger_cost(n, c)).min().unwrap();
        // Dense sweep over the small-n region where every verify-poly /
        // verify-point size lives, plus both sides of each tabled crossover.
        for n in 0..=2048usize {
            assert_eq!(
                pippenger_cost(n, pippenger_window(n)),
                argmin_cost(n),
                "n={n}"
            );
        }
        for &(from, _) in PIPPENGER_CROSSOVERS {
            for n in [from.saturating_sub(1), from, from + 1] {
                assert_eq!(
                    pippenger_cost(n, pippenger_window(n)),
                    argmin_cost(n),
                    "crossover n={n}"
                );
            }
        }
    }

    #[test]
    fn window_grows_with_input_size() {
        assert_eq!(pippenger_window(0), 1);
        assert_eq!(pippenger_window(2), 1);
        assert_eq!(pippenger_window(3), 2);
        assert_eq!(pippenger_window(121), 5);
        assert_eq!(pippenger_window(300), 6);
        assert!(pippenger_window(10_000) >= 9);
        for w in 1..PIPPENGER_CROSSOVERS.len() {
            let (prev, pc) = PIPPENGER_CROSSOVERS[w - 1];
            let (next, nc) = PIPPENGER_CROSSOVERS[w];
            assert!(prev < next && pc < nc);
        }
    }
}
