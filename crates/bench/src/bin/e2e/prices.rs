//! The price list: what one primitive of `dkg-arith` and `dkg-crypto` costs
//! on this machine, measured in tight loops beside every trace pass so a
//! per-layer busy time can be read as "count × price".

// dkg-lint R6 audits every file under src/bin/ as a crate root.
#![forbid(unsafe_code)]

use std::hint::black_box;
use std::time::Instant;

use dkg_arith::{multiexp, Fp, GroupElement, PrimeField, ProjectivePoint, Scalar};
use dkg_crypto::{sha256, SigningKey};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::workloads::Metrics;

/// Mean nanoseconds of `f`, over `iterations` calls after one warm-up call.
fn mean_ns<T>(iterations: u32, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let start = Instant::now();
    for _ in 0..iterations {
        black_box(f());
    }
    start.elapsed().as_nanos() as f64 / f64::from(iterations)
}

/// Measures every price and adds it to `metrics`. Inputs come from `seed`.
pub fn measure(seed: u64, metrics: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(seed);
    let scalar = Scalar::random(&mut rng);
    let point = GroupElement::random(&mut rng);

    let (a, mut b) = (Fp::random(&mut rng), Fp::random(&mut rng));
    metrics.set(
        "arith.field_mul_ns",
        mean_ns(200_000, || {
            b = black_box(a) * b;
            b
        }),
    );
    let step = ProjectivePoint::generator().mul_scalar(&scalar);
    let mut sum = step.double();
    metrics.set(
        "arith.group_add_ns",
        mean_ns(20_000, || {
            sum += black_box(step);
            sum
        }),
    );
    let encoded = point.to_bytes();
    metrics.set(
        "arith.point_decode_us",
        mean_ns(500, || GroupElement::from_bytes(black_box(&encoded))) / 1e3,
    );
    metrics.set(
        "arith.fixed_base_mul_us",
        mean_ns(200, || GroupElement::commit(black_box(&scalar))) / 1e3,
    );
    metrics.set(
        "arith.var_base_mul_us",
        mean_ns(50, || black_box(point).mul(black_box(&scalar))) / 1e3,
    );
    let points: Vec<GroupElement> = (0..256).map(|_| GroupElement::random(&mut rng)).collect();
    let scalars: Vec<Scalar> = (0..256).map(|_| Scalar::random(&mut rng)).collect();
    metrics.set(
        "arith.multiexp256_us",
        mean_ns(3, || multiexp(black_box(&points), black_box(&scalars))) / 1e3,
    );

    let key = SigningKey::generate(&mut rng);
    let public = key.public_key();
    let message = [0x5a; 64];
    let signature = key.sign(&mut rng, &message);
    metrics.set(
        "crypto.schnorr_sign_us",
        mean_ns(100, || key.sign(&mut rng, black_box(&message))) / 1e3,
    );
    metrics.set(
        "crypto.schnorr_verify_us",
        mean_ns(50, || public.verify(black_box(&message), &signature)) / 1e3,
    );
    let block = vec![0xa5u8; 1 << 20];
    let ns_per_mb = mean_ns(8, || sha256(black_box(&block)));
    metrics.set("crypto.sha256_mb_s", 1e9 / ns_per_mb);
}
