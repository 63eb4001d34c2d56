//! Codec properties for the HybridVSS messages: every message round-trips
//! `encode → decode` losslessly, `encoded_len()` equals the real encoded
//! length, and decoding adversarially mangled bytes never panics — with the
//! context-free decoder and with the digest-resolved one, whatever its
//! lookup answers.
//!
//! `WIRE_FUZZ_CASES` raises the per-test case count (used by CI's fuzz step).

use dkg_arith::{PrimeField, Scalar};
use dkg_crypto::Digest;
use dkg_crypto::SigningKey;
use dkg_poly::{CommitmentMatrix, SymmetricBivariate, Univariate};
use dkg_vss::{CommitmentRef, ReadyWitness, SessionId, VssMessage};
use dkg_wire::{WireDecode, WireEncode};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn cases(default: u32) -> u32 {
    std::env::var("WIRE_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The matrix every sample message of `seed` commits to, by its digest —
/// what an honest session that has seen it answers lookups from.
fn sample_commitment(seed: u64) -> (Digest, Arc<CommitmentMatrix>) {
    match &sample_messages(seed)[1] {
        VssMessage::Echo { commitment, .. } => (
            commitment.digest(),
            Arc::clone(commitment.matrix().expect("sample 1 is a full echo")),
        ),
        other => panic!("sample 1 is a full echo, got {other:?}"),
    }
}

/// Deterministically builds one of each message shape from a seed.
fn sample_messages(seed: u64) -> Vec<VssMessage> {
    let mut rng = StdRng::seed_from_u64(seed);
    let t = (seed % 4) as usize + 1;
    let secret = Scalar::random(&mut rng);
    let f = SymmetricBivariate::random_with_secret(&mut rng, t, secret);
    let matrix = CommitmentMatrix::commit(&f);
    let digest = dkg_crypto::sha256(&matrix.to_bytes());
    let session = SessionId::new(seed % 7 + 1, seed % 3);
    let key = SigningKey::generate(&mut rng);
    let signature = key.sign(&mut rng, b"roundtrip");
    vec![
        VssMessage::Send {
            session,
            commitment: matrix.clone(),
            row: Univariate::random(&mut rng, t),
        },
        VssMessage::Echo {
            session,
            commitment: CommitmentRef::full(matrix.clone()),
            point: Scalar::random(&mut rng),
        },
        VssMessage::Echo {
            session,
            commitment: CommitmentRef::Digest(digest),
            point: Scalar::random(&mut rng),
        },
        VssMessage::Ready {
            session,
            commitment: CommitmentRef::Digest(digest),
            point: Scalar::random(&mut rng),
            signature: Some(signature),
        },
        VssMessage::Ready {
            session,
            commitment: CommitmentRef::full(matrix),
            point: Scalar::random(&mut rng),
            signature: None,
        },
        VssMessage::ReconstructShare {
            session,
            share: Scalar::random(&mut rng),
        },
        VssMessage::Help { session },
    ]
}

/// The durable snapshot types (`VssConfig`, `Tally`, `PendingPoint`,
/// `VssSnapshot`) share the canonical codec and must round-trip losslessly
/// like the protocol messages.
#[test]
fn snapshot_types_roundtrip_losslessly() {
    use dkg_crypto::Digest;
    use dkg_vss::{PendingPoint, Tally, VssConfig, VssSnapshot};
    use std::collections::{BTreeMap, BTreeSet};

    let mut rng = StdRng::seed_from_u64(0x5A5);
    let key = SigningKey::generate(&mut rng);
    let signature = key.sign(&mut rng, b"snapshot-roundtrip");
    let secret = Scalar::random(&mut rng);
    let f = SymmetricBivariate::random_with_secret(&mut rng, 2, secret);
    let matrix = CommitmentMatrix::commit(&f);
    let digest: Digest = dkg_crypto::sha256(&matrix.to_bytes());

    let config = VssConfig::standard(4, 1).unwrap();
    assert_eq!(VssConfig::decode(&config.encode()), Ok(config.clone()));

    let tally = Tally {
        points: BTreeMap::from([(1, Scalar::random(&mut rng))]),
        echo_from: BTreeSet::from([1, 2]),
        ready_from: BTreeSet::from([3]),
        echo_verified: BTreeSet::from([1]),
        ready_verified: BTreeSet::new(),
        witnesses: vec![ReadyWitness { node: 3, signature }],
        row: Some(Univariate::random(&mut rng, 2)),
        echo_sent: true,
        ready_sent: false,
    };
    assert_eq!(Tally::decode(&tally.encode()), Ok(tally.clone()));

    let pending = PendingPoint {
        from: 4,
        point: Scalar::random(&mut rng),
        is_ready: true,
        signature: Some(signature),
    };
    assert_eq!(PendingPoint::decode(&pending.encode()), Ok(pending.clone()));

    let snapshot = VssSnapshot {
        id: 2,
        session: SessionId::new(1, 0),
        config,
        rng: [5, 6, 7, 8],
        signing_key: Some(Scalar::random(&mut rng)),
        send_handled: true,
        tallies: BTreeMap::from([(digest, tally)]),
        commitments: BTreeMap::from([(digest, Arc::new(matrix.clone()))]),
        pending: BTreeMap::from([(digest, vec![pending])]),
        completed: Some((Arc::new(matrix), Scalar::random(&mut rng))),
        completed_witnesses: vec![ReadyWitness { node: 1, signature }],
        reconstruct_started: false,
        reconstruct_pending: BTreeMap::from([(2, Scalar::random(&mut rng))]),
        reconstruct_verified: BTreeMap::new(),
        reconstructed: None,
        outbox: BTreeMap::from([(
            3,
            vec![VssMessage::Help {
                session: SessionId::new(1, 0),
            }],
        )]),
        help_granted_total: 2,
        help_granted_per: BTreeMap::from([(3, 2)]),
    };
    let bytes = snapshot.encode();
    assert_eq!(bytes.len(), snapshot.encoded_len());
    assert_eq!(VssSnapshot::decode(&bytes), Ok(snapshot));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48)))]

    #[test]
    fn every_message_roundtrips_losslessly(seed in any::<u64>()) {
        let (digest, matrix) = sample_commitment(seed);
        let ops_before = dkg_arith::ops::decompressions();
        for message in sample_messages(seed) {
            let bytes = message.encode();
            let back = VssMessage::decode(&bytes);
            prop_assert_eq!(back.as_ref(), Ok(&message));
        }
        let context_free = dkg_arith::ops::decompressions() - ops_before;
        // A session that knows the matrix decodes the same messages from the
        // same bytes, and shares its matrix instead of decompressing again.
        let known = |_, d: &Digest| (*d == digest).then(|| Arc::clone(&matrix));
        let ops_before = dkg_arith::ops::decompressions();
        for message in sample_messages(seed) {
            let back = VssMessage::decode_known(&message.encode(), &known);
            prop_assert_eq!(back.as_ref(), Ok(&message));
            if let Ok(VssMessage::Echo { commitment, .. } | VssMessage::Ready { commitment, .. }) = &back {
                if let Some(inline) = commitment.matrix() {
                    prop_assert!(Arc::ptr_eq(inline, &matrix));
                }
            }
        }
        // The two inline copies (one echo, one ready) were hits; the dealer's
        // `send` and the ready signature's nonce point pay as before.
        let resolved = dkg_arith::ops::decompressions() - ops_before;
        let dim = matrix.threshold() as u64 + 1;
        prop_assert_eq!(context_free - resolved, 2 * dim * dim);
    }

    #[test]
    fn wire_size_is_the_exact_encoded_length(seed in any::<u64>()) {
        for message in sample_messages(seed) {
            prop_assert_eq!(message.encoded_len(), message.encode().len());
        }
    }

    #[test]
    fn witness_roundtrip_and_size(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = SigningKey::generate(&mut rng);
        let witness = ReadyWitness { node: seed, signature: key.sign(&mut rng, b"w") };
        let bytes = witness.encode();
        prop_assert_eq!(bytes.len(), ReadyWitness::ENCODED_LEN);
        prop_assert_eq!(ReadyWitness::decode(&bytes), Ok(witness));
    }

    #[test]
    fn mangled_messages_never_panic(
        seed in any::<u64>(),
        pick in 0usize..7,
        flip_byte in 0usize..usize::MAX,
        flip_bit in 0u8..8,
        cut in 0usize..usize::MAX,
        hit in any::<bool>(),
    ) {
        let message = sample_messages(seed).swap_remove(pick);
        let (digest, matrix) = sample_commitment(seed);
        // An honest session's lookup, and one that answers every digest the
        // same way whatever it is asked.
        let honest = |_, d: &Digest| (*d == digest).then(|| Arc::clone(&matrix));
        let arbitrary = |_, _: &Digest| hit.then(|| Arc::clone(&matrix));
        let bytes = message.encode();
        // Truncation: must error, never panic.
        let truncated = &bytes[..cut % bytes.len()];
        prop_assert!(VssMessage::decode(truncated).is_err());
        prop_assert_eq!(
            VssMessage::decode_known(truncated, &honest),
            VssMessage::decode(truncated)
        );
        prop_assert!(VssMessage::decode_known(truncated, &arbitrary).is_err());
        // Bit flip: must not panic; if it still decodes, re-encoding must be
        // canonical (equal to the flipped input).
        let mut flipped = bytes.clone();
        let idx = flip_byte % flipped.len();
        flipped[idx] ^= 1 << flip_bit;
        let back = VssMessage::decode(&flipped);
        if let Ok(back) = &back {
            prop_assert_eq!(back.encode(), flipped.clone());
        }
        // A flipped matrix misses the honest lookup, so resolution changes
        // neither the message nor the error.
        prop_assert_eq!(VssMessage::decode_known(&flipped, &honest), back);
        let _ = VssMessage::decode_known(&flipped, &arbitrary);
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..300), hit in any::<bool>()) {
        let (_, matrix) = sample_commitment(0);
        let arbitrary = |_, _: &Digest| hit.then(|| Arc::clone(&matrix));
        let back = VssMessage::decode(&bytes);
        prop_assert_eq!(VssMessage::decode_known(&bytes, &|_, _| None), back);
        let _ = VssMessage::decode_known(&bytes, &arbitrary);
    }
}
