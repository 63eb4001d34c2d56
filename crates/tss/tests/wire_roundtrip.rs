//! Codec properties for the threshold-signing messages: every message
//! round-trips `encode → decode` losslessly, `encoded_len()` equals the real
//! encoded length, and decoding adversarially mangled bytes never panics.
//!
//! `WIRE_FUZZ_CASES` raises the per-test case count (used by CI's fuzz step).

use dkg_arith::{GroupElement, PrimeField, Scalar};
use dkg_crypto::SigningKey;
use dkg_tss::{NonceCommitEntry, RequestState, SignSnapshot, SnapshotError, TssInput, TssMessage};
use dkg_wire::{WireDecode, WireEncode, WireError};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn cases(default: u32) -> u32 {
    std::env::var("WIRE_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn entries(rng: &mut StdRng, count: u64) -> Vec<NonceCommitEntry> {
    (1..=count)
        .map(|signer| NonceCommitEntry {
            signer: signer * 3,
            hiding: GroupElement::random(rng),
            binding: GroupElement::random(rng),
        })
        .collect()
}

/// Deterministically builds one of each message shape from a seed.
fn sample_messages(seed: u64) -> Vec<TssMessage> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sid = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let req = seed.rotate_left(17);
    let attempt = (seed % 5) as u32;
    let message: Vec<u8> = (0..(seed % 40)).map(|i| (i * 7) as u8).collect();
    let key = SigningKey::generate(&mut rng);
    let signature = key.sign(&mut rng, b"roundtrip");
    vec![
        TssMessage::SignRequest {
            sid,
            req,
            attempt,
            message: message.clone(),
            package: None,
        },
        TssMessage::SignRequest {
            sid,
            req,
            attempt,
            message,
            package: Some(entries(&mut rng, seed % 4 + 1)),
        },
        TssMessage::NonceCommit {
            sid,
            req,
            attempt,
            signer: seed % 17 + 1,
            hiding: GroupElement::random(&mut rng),
            binding: GroupElement::random(&mut rng),
        },
        TssMessage::PartialSig {
            sid,
            req,
            attempt,
            signer: seed % 13 + 1,
            response: Scalar::random(&mut rng),
        },
        TssMessage::SignResult {
            sid,
            req,
            signature,
        },
    ]
}

/// The durable snapshot types (`SignSnapshot`, `RequestState`) share
/// the canonical codec and must round-trip losslessly like the protocol
/// messages, and `TssInput` must round-trip for the write-ahead log.
#[test]
fn snapshot_and_input_types_roundtrip_losslessly() {
    use dkg_poly::{CommitmentMatrix, SymmetricBivariate};

    let mut rng = StdRng::seed_from_u64(0x7E55);
    let secret = Scalar::random(&mut rng);
    let poly = SymmetricBivariate::random_with_secret(&mut rng, 2, secret);
    let matrix = CommitmentMatrix::commit(&poly);
    let key = SigningKey::generate(&mut rng);
    let signature = key.sign(&mut rng, b"snapshot-roundtrip");

    for input in [
        TssInput::Sign {
            req: 4,
            message: b"wal".to_vec(),
        },
        TssInput::Recover,
    ] {
        assert_eq!(TssInput::decode(&input.encode()), Ok(input.clone()));
    }

    let request = RequestState {
        attempt: 3,
        excluded: BTreeSet::from([2, 5]),
        quorum: vec![1, 3, 4],
        commits: BTreeMap::from([(
            1,
            (
                GroupElement::random(&mut rng),
                GroupElement::random(&mut rng),
            ),
        )]),
        partials: BTreeMap::from([(1, Scalar::random(&mut rng)), (3, Scalar::random(&mut rng))]),
    };
    assert_eq!(RequestState::decode(&request.encode()), Ok(request.clone()));

    let snapshot = SignSnapshot {
        id: 3,
        sid: 9,
        signers: vec![1, 2, 3, 4, 5],
        threshold: 2,
        retry_delay: 500,
        share: Scalar::random(&mut rng),
        commitment: Arc::new(matrix),
        group_key: GroupElement::random(&mut rng),
        rng: [5, 6, 7, 8],
        requests: BTreeMap::from([(12, b"in flight".to_vec())]),
        nonces: BTreeMap::from([(
            (12, 3),
            (Scalar::random(&mut rng), Scalar::random(&mut rng)),
        )]),
        signed: BTreeMap::from([((12, 2), [9u8; 32])]),
        results: BTreeMap::from([(7, signature)]),
        exhausted: BTreeSet::from([2]),
        coordinating: BTreeMap::from([(12, request)]),
    };
    let bytes = snapshot.encode();
    assert_eq!(bytes.len(), snapshot.encoded_len());
    assert_eq!(SignSnapshot::decode(&bytes), Ok(snapshot));
}

/// Every [`SnapshotError`] variant is reachable from a decoded snapshot
/// (dkg-lint rule R5: named, constructed and displayed in a test).
#[test]
fn snapshot_restore_rejections_cover_every_variant() {
    use dkg_tss::SignSession;

    let mut rng = StdRng::seed_from_u64(0xBAD);
    let secret = Scalar::random(&mut rng);
    let poly = dkg_poly::SymmetricBivariate::random_with_secret(&mut rng, 1, secret);
    let matrix = dkg_poly::CommitmentMatrix::commit(&poly);
    let good = SignSnapshot {
        id: 1,
        sid: 9,
        signers: vec![1, 2, 3],
        threshold: 1,
        retry_delay: 500,
        share: poly.row(1).constant_term(),
        commitment: Arc::new(matrix.clone()),
        group_key: matrix.share_commitment(0),
        rng: [1, 2, 3, 4],
        requests: BTreeMap::new(),
        nonces: BTreeMap::new(),
        signed: BTreeMap::new(),
        results: BTreeMap::new(),
        exhausted: BTreeSet::new(),
        coordinating: BTreeMap::new(),
    };
    assert!(SignSession::restore(good.clone()).is_ok());

    // ForeignNode: the node id is outside its own signer set.
    let foreign = SignSnapshot {
        id: 9,
        ..good.clone()
    };
    assert_eq!(
        SignSession::restore(foreign).err(),
        Some(SnapshotError::ForeignNode { node: 9 })
    );
    assert!(SnapshotError::ForeignNode { node: 9 }
        .to_string()
        .contains("not in its signer set"));

    // InvalidGroupKey: the identity element has no discrete log.
    let identity = SignSnapshot {
        group_key: GroupElement::identity(),
        ..good.clone()
    };
    assert_eq!(
        SignSession::restore(identity).err(),
        Some(SnapshotError::InvalidGroupKey)
    );
    assert!(SnapshotError::InvalidGroupKey
        .to_string()
        .contains("identity"));
    // ... and neither may it differ from the matrix's C_00.
    let foreign_key = SignSnapshot {
        group_key: matrix.share_commitment(0) + GroupElement::generator(),
        ..good.clone()
    };
    assert_eq!(
        SignSession::restore(foreign_key).err(),
        Some(SnapshotError::InvalidGroupKey)
    );

    // InvalidConfig: zero retry delay, or a threshold the commitment
    // matrix disagrees with.
    let no_delay = SignSnapshot {
        retry_delay: 0,
        ..good.clone()
    };
    assert_eq!(
        SignSession::restore(no_delay).err(),
        Some(SnapshotError::InvalidConfig)
    );
    let wrong_threshold = SignSnapshot {
        threshold: 2,
        ..good
    };
    assert_eq!(
        SignSession::restore(wrong_threshold).err(),
        Some(SnapshotError::InvalidConfig)
    );
    assert!(SnapshotError::InvalidConfig.to_string().contains("config"));
}

#[test]
fn package_decode_enforces_canonical_order() {
    let mut rng = StdRng::seed_from_u64(0x0DD);
    let mut package = entries(&mut rng, 3);
    package.swap(0, 2);
    let message = TssMessage::SignRequest {
        sid: 1,
        req: 2,
        attempt: 0,
        message: vec![1, 2, 3],
        package: Some(package),
    };
    assert_eq!(
        TssMessage::decode(&message.encode()),
        Err(WireError::InvalidValue {
            context: "signing package not strictly ascending",
        })
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48)))]

    #[test]
    fn every_message_roundtrips_losslessly(seed in any::<u64>()) {
        for message in sample_messages(seed) {
            let bytes = message.encode();
            let back = TssMessage::decode(&bytes);
            prop_assert_eq!(back.as_ref(), Ok(&message));
        }
    }

    #[test]
    fn wire_size_is_the_exact_encoded_length(seed in any::<u64>()) {
        for message in sample_messages(seed) {
            prop_assert_eq!(message.encoded_len(), message.encode().len());
        }
    }

    #[test]
    fn entry_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let entry = entries(&mut rng, 1).remove(0);
        prop_assert_eq!(NonceCommitEntry::decode(&entry.encode()), Ok(entry));
    }

    #[test]
    fn mangled_messages_never_panic(
        seed in any::<u64>(),
        pick in 0usize..5,
        flip_byte in 0usize..usize::MAX,
        flip_bit in 0u8..8,
        cut in 0usize..usize::MAX,
    ) {
        let message = sample_messages(seed).swap_remove(pick);
        let bytes = message.encode();
        // Truncation: must error, never panic.
        prop_assert!(TssMessage::decode(&bytes[..cut % bytes.len()]).is_err());
        // Bit flip: must not panic; if it still decodes, re-encoding must be
        // canonical (equal to the flipped input).
        let mut flipped = bytes.clone();
        let idx = flip_byte % flipped.len();
        flipped[idx] ^= 1 << flip_bit;
        if let Ok(back) = TssMessage::decode(&flipped) {
            prop_assert_eq!(back.encode(), flipped);
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..300)) {
        let _ = TssMessage::decode(&bytes);
        let _ = TssInput::decode(&bytes);
        let _ = SignSnapshot::decode(&bytes);
        let _ = RequestState::decode(&bytes);
    }
}
