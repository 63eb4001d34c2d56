//! Codec properties for the DKG agreement messages: lossless round-trips,
//! `encoded_len()` == real encoded length, canonical proposals, and no panics
//! on adversarially mangled bytes.
//!
//! `WIRE_FUZZ_CASES` raises the per-test case count (used by CI's fuzz step).

use dkg_arith::{PrimeField, Scalar};
use dkg_core::{DealerProof, DkgMessage, Justification, Proposal, SignedVote};
use dkg_crypto::{Digest, SigningKey};
use dkg_poly::{CommitmentMatrix, SymmetricBivariate};
use dkg_vss::{CommitmentRef, ReadyWitness, SessionId, VssMessage};
use dkg_wire::{WireDecode, WireEncode, WireError};
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

/// The matrix inside sample 0 (the embedded full-commitment echo), by its
/// digest — what an honest session that has seen it answers lookups from.
fn sample_commitment(seed: u64) -> (Digest, Arc<CommitmentMatrix>) {
    match &sample_messages(seed)[0] {
        DkgMessage::Vss(VssMessage::Echo { commitment, .. }) => (
            commitment.digest(),
            Arc::clone(commitment.matrix().expect("sample 0 is a full echo")),
        ),
        other => panic!("sample 0 is a full echo, got {other:?}"),
    }
}

/// Deterministically builds one of each message shape from a seed.
fn sample_messages(seed: u64) -> Vec<DkgMessage> {
    let mut rng = StdRng::seed_from_u64(seed);
    let key = SigningKey::generate(&mut rng);
    let sig = key.sign(&mut rng, b"dkg-roundtrip");
    let proposal = Proposal::new((1..=(seed % 5 + 1)).collect());
    let votes: Vec<SignedVote> = (1..=(seed % 4 + 1))
        .map(|node| SignedVote {
            node,
            signature: sig,
        })
        .collect();
    let secret = Scalar::random(&mut rng);
    let f = SymmetricBivariate::random_with_secret(&mut rng, 2, secret);
    let matrix = CommitmentMatrix::commit(&f);
    let proofs: Vec<DealerProof> = (1..=(seed % 3 + 1))
        .map(|dealer| DealerProof {
            dealer,
            commitment_digest: dkg_crypto::sha256(&matrix.to_bytes()),
            witnesses: (1..=(seed % 3 + 1))
                .map(|node| ReadyWitness {
                    node,
                    signature: sig,
                })
                .collect(),
        })
        .collect();
    let session = SessionId::new(seed % 6 + 1, seed % 2);
    vec![
        DkgMessage::Vss(VssMessage::Echo {
            session,
            commitment: CommitmentRef::full(matrix),
            point: Scalar::random(&mut rng),
        }),
        DkgMessage::Send {
            tau: seed % 2,
            rank: seed % 3,
            proposal: proposal.clone(),
            justification: Justification::ReadyProofs(proofs),
            lead_ch_certificate: votes.clone(),
        },
        DkgMessage::Send {
            tau: seed % 2,
            rank: 0,
            proposal: proposal.clone(),
            justification: Justification::EchoCertificate(votes.clone()),
            lead_ch_certificate: Vec::new(),
        },
        DkgMessage::Echo {
            tau: seed % 2,
            rank: seed % 3,
            proposal: proposal.clone(),
            signature: sig,
        },
        DkgMessage::Ready {
            tau: seed % 2,
            rank: seed % 3,
            proposal: proposal.clone(),
            signature: sig,
        },
        DkgMessage::LeadCh {
            tau: seed % 2,
            new_rank: seed % 4 + 1,
            proposal: None,
            signature: sig,
        },
        DkgMessage::LeadCh {
            tau: seed % 2,
            new_rank: seed % 4 + 1,
            proposal: Some((proposal, Justification::ReadyCertificate(votes))),
            signature: sig,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(32)))]

    #[test]
    fn every_message_roundtrips_losslessly(seed in any::<u64>()) {
        let (digest, matrix) = sample_commitment(seed);
        let known = |_, d: &Digest| (*d == digest).then(|| Arc::clone(&matrix));
        for message in sample_messages(seed) {
            let bytes = message.encode();
            let back = DkgMessage::decode(&bytes);
            prop_assert_eq!(back.as_ref(), Ok(&message));
            // A session that knows the matrix decodes the same message.
            prop_assert_eq!(DkgMessage::decode_known(&bytes, &known), back);
        }
    }

    #[test]
    fn wire_size_is_the_exact_encoded_length(seed in any::<u64>()) {
        for message in sample_messages(seed) {
            prop_assert_eq!(message.encoded_len(), message.encode().len());
        }
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
        let truncated = &bytes[..cut % bytes.len()];
        prop_assert!(DkgMessage::decode(truncated).is_err());
        prop_assert_eq!(
            DkgMessage::decode_known(truncated, &honest),
            DkgMessage::decode(truncated)
        );
        prop_assert!(DkgMessage::decode_known(truncated, &arbitrary).is_err());
        let mut flipped = bytes.clone();
        let idx = flip_byte % flipped.len();
        flipped[idx] ^= 1 << flip_bit;
        let back = DkgMessage::decode(&flipped);
        if let Ok(back) = &back {
            prop_assert_eq!(back.encode(), flipped.clone());
        }
        // A flipped matrix misses the honest lookup, so resolution changes
        // neither the message nor the error.
        prop_assert_eq!(DkgMessage::decode_known(&flipped, &honest), back);
        let _ = DkgMessage::decode_known(&flipped, &arbitrary);
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..300), hit in any::<bool>()) {
        let (_, matrix) = sample_commitment(0);
        let arbitrary = |_, _: &Digest| hit.then(|| Arc::clone(&matrix));
        let back = DkgMessage::decode(&bytes);
        prop_assert_eq!(DkgMessage::decode_known(&bytes, &|_, _| None), back);
        let _ = DkgMessage::decode_known(&bytes, &arbitrary);
    }
}

#[test]
fn hostile_element_counts_are_rejected_before_allocation() {
    // A justification declaring 65 535 dealer proofs in a tiny frame must be
    // refused by the length guard (declared · MIN_WIRE_LEN > remaining)
    // before any per-element allocation happens.
    use dkg_wire::WireWrite;
    let mut bytes = Vec::new();
    bytes.put_u8(0); // Justification::ReadyProofs
    bytes.put_u32(65_535);
    bytes.put(&[0u8; 40]); // far less than 65 535 × 44 bytes of body
    assert!(matches!(
        Justification::decode(&bytes),
        Err(WireError::LengthOverflow { .. })
    ));
    // Same for witness lists inside a dealer proof.
    let mut bytes = Vec::new();
    bytes.put_u64(1);
    bytes.put(&[0u8; 32]);
    bytes.put_u32(50_000);
    bytes.put(&[0u8; 73]); // one witness's worth of body, 50 000 declared
    assert!(matches!(
        DealerProof::decode(&bytes),
        Err(WireError::LengthOverflow { .. })
    ));
}

#[test]
fn non_canonical_proposals_are_rejected() {
    // Encode a proposal by hand with descending dealers: decode must refuse
    // it, otherwise two byte strings would denote the same proposal and
    // votes/signatures over it would become ambiguous.
    let mut bytes = Vec::new();
    use dkg_wire::WireWrite;
    bytes.put_u32(2);
    bytes.put_u64(5);
    bytes.put_u64(3);
    assert_eq!(
        Proposal::decode(&bytes),
        Err(WireError::InvalidValue {
            context: "proposal dealer list not strictly ascending"
        })
    );
    // Duplicates are equally non-canonical.
    let mut bytes = Vec::new();
    bytes.put_u32(2);
    bytes.put_u64(3);
    bytes.put_u64(3);
    assert!(Proposal::decode(&bytes).is_err());
}

/// The durable snapshot types share the canonical codec and must survive
/// an encode → decode round-trip losslessly: `DkgConfig`, `CombineRule`,
/// `CompletedSharing`, `DkgResult` and the full `DkgSnapshot`.
#[test]
fn snapshot_types_roundtrip_losslessly() {
    use dkg_arith::GroupElement;
    use dkg_core::{CombineRule, CompletedSharing, DkgConfig, DkgResult, DkgSnapshot};
    use std::collections::{BTreeMap, BTreeSet};

    let mut rng = StdRng::seed_from_u64(0xD16);
    let key = SigningKey::generate(&mut rng);
    let sig = key.sign(&mut rng, b"snapshot-roundtrip");
    let secret = Scalar::random(&mut rng);
    let f = SymmetricBivariate::random_with_secret(&mut rng, 2, secret);
    let matrix = CommitmentMatrix::commit(&f);

    let config = DkgConfig::standard(4, 1).unwrap();
    assert_eq!(DkgConfig::decode(&config.encode()), Ok(config.clone()));

    for rule in [CombineRule::Sum, CombineRule::InterpolateAtZero] {
        assert_eq!(CombineRule::decode(&rule.encode()), Ok(rule));
    }

    let completed = CompletedSharing {
        commitment: matrix.clone(),
        share: Scalar::random(&mut rng),
        digest: dkg_crypto::sha256(&matrix.to_bytes()),
        witnesses: vec![ReadyWitness {
            node: 2,
            signature: sig,
        }],
    };
    assert_eq!(
        CompletedSharing::decode(&completed.encode()),
        Ok(completed.clone())
    );

    let result = DkgResult {
        dealers: vec![1, 3],
        commitment: matrix,
        public_key: GroupElement::generator(),
        share: Scalar::random(&mut rng),
        leader_rank: 7,
    };
    assert_eq!(DkgResult::decode(&result.encode()), Ok(result.clone()));

    let snapshot = DkgSnapshot {
        id: 2,
        tau: 1,
        config,
        signing_key: Scalar::random(&mut rng),
        directory: BTreeMap::from([
            (1, GroupElement::generator()),
            (2, GroupElement::generator()),
        ]),
        combine: CombineRule::Sum,
        rng: [11, 22, 33, 44],
        vss: BTreeMap::new(),
        completed_vss: BTreeMap::from([(1, completed)]),
        finished_set: vec![1],
        expected_dealer_keys: BTreeMap::from([(1, GroupElement::generator())]),
        started: true,
        leader_rank: 3,
        locked: None,
        echoed: BTreeSet::from([(0, vec![1, 2, 3])]),
        ready_sent: false,
        echo_votes: BTreeMap::from([(vec![9], BTreeMap::from([(4, sig)]))]),
        ready_votes: BTreeMap::new(),
        proposals: BTreeMap::new(),
        lead_ch_votes: BTreeMap::from([(2, BTreeMap::from([(1, sig)]))]),
        lc_flag: true,
        lead_ch_certificate: vec![SignedVote {
            node: 1,
            signature: sig,
        }],
        retries: 2,
        agreed: Some(Proposal::new(vec![1, 3])),
        completed: Some(result),
        reconstruct_started: true,
        reconstruct_pending: BTreeMap::from([(3, Scalar::random(&mut rng))]),
        reconstruct_verified: BTreeMap::new(),
        reconstructed: Some(Scalar::random(&mut rng)),
        outbox: BTreeMap::new(),
        help_granted_total: 5,
        help_granted_per: BTreeMap::from([(2, 3)]),
    };
    let bytes = snapshot.encode();
    assert_eq!(bytes.len(), snapshot.encoded_len());
    assert_eq!(DkgSnapshot::decode(&bytes), Ok(snapshot));
}

/// Group-modification agreement messages share the canonical codec: they
/// round-trip losslessly, `encoded_len()` is the exact encoded length, and
/// unknown tags are refused rather than misparsed.
#[test]
fn group_mod_messages_roundtrip_and_size_exactly() {
    use dkg_core::group::{GroupChange, GroupModMessage, ParameterAdjustment};
    let changes = [
        GroupChange::AddNode {
            node: 9,
            adjustment: ParameterAdjustment::Threshold,
        },
        GroupChange::AddNode {
            node: 10,
            adjustment: ParameterAdjustment::None,
        },
        GroupChange::RemoveNode {
            node: 3,
            adjustment: ParameterAdjustment::CrashLimit,
        },
    ];
    for change in changes {
        for message in [
            GroupModMessage::Propose(change),
            GroupModMessage::Echo(change),
            GroupModMessage::Ready(change),
        ] {
            let bytes = message.encode();
            assert_eq!(bytes.len(), message.encoded_len());
            assert_eq!(GroupModMessage::decode(&bytes).unwrap(), message);
        }
    }
    // Unknown message and adjustment tags are typed errors, not panics.
    assert!(matches!(
        GroupModMessage::decode(&[7, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2]),
        Err(WireError::UnknownTag { .. })
    ));
    assert!(matches!(
        GroupModMessage::decode(&[0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 9]),
        Err(WireError::UnknownTag { .. })
    ));
}

/// The persisted group-modification surface — the `GroupModInput` operator
/// record the WAL stores and the `GroupModNode` the endpoint snapshot
/// embeds — round-trips losslessly and refuses unknown tags.
#[test]
fn group_mod_input_and_snapshot_roundtrip() {
    use dkg_core::group::{
        GroupChange, GroupModInput, GroupModMessage, GroupModNode, ParameterAdjustment,
    };
    use dkg_core::DkgConfig;
    use dkg_sim::{ActionSink, Protocol};

    let input = GroupModInput::Propose(GroupChange::RemoveNode {
        node: 2,
        adjustment: ParameterAdjustment::Threshold,
    });
    let bytes = input.encode();
    assert_eq!(bytes.len(), input.encoded_len());
    assert_eq!(GroupModInput::decode(&bytes), Ok(input));
    assert!(matches!(
        GroupModInput::decode(&[9]),
        Err(WireError::UnknownTag { .. })
    ));

    // A node with live agreement state: changes echoed and readied, vote
    // sets partially filled, one change already accepted.
    let add = GroupChange::AddNode {
        node: 9,
        adjustment: ParameterAdjustment::None,
    };
    let remove = GroupChange::RemoveNode {
        node: 2,
        adjustment: ParameterAdjustment::Threshold,
    };
    let mut node = GroupModNode::new(3, DkgConfig::standard(6, 1).unwrap());
    let mut sink = ActionSink::new();
    for from in [4, 1, 2, 3] {
        node.on_message(from, GroupModMessage::Ready(add), &mut sink);
    }
    for from in [6, 5] {
        node.on_message(from, GroupModMessage::Echo(remove), &mut sink);
    }
    assert_eq!(node.accepted(), [add]);
    let bytes = node.encode();
    assert_eq!(bytes.len(), node.encoded_len());
    let back = GroupModNode::decode(&bytes).unwrap();
    assert_eq!(back, node);
    assert_eq!(back.encode(), bytes);
}
