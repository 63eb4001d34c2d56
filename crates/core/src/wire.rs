//! Canonical wire codec for the DKG agreement messages ([`dkg_wire`]
//! traits).
//!
//! Layout (all integers big-endian, lengths `u32`-prefixed):
//!
//! ```text
//! DkgMessage       := tag:u8 body
//!   0 vss          := VssMessage                         (see dkg-vss)
//!   1 send         := tau:u64 rank:u64 proposal justification vote*
//!   2 echo         := tau:u64 rank:u64 proposal signature:65B
//!   3 ready        := tau:u64 rank:u64 proposal signature:65B
//!   4 lead-ch      := tau:u64 new_rank:u64 option<proposal justification>
//!                     signature:65B
//! proposal         := count:u32 dealer:u64 × count       (strictly ascending)
//! justification    := 0 dealer-proof* | 1 vote* | 2 vote*
//! dealer-proof     := dealer:u64 digest:32B witness*
//! vote             := node:u64 signature:65B
//! ```
//!
//! Proposals are canonical on the wire: decoders reject dealer lists that
//! are not strictly ascending, so equal proposals have equal encodings and
//! the signatures over [`crate::messages::payload`] bind unambiguously.

use std::collections::{BTreeMap, BTreeSet};

use dkg_crypto::Signature;
use dkg_wire::{Reader, WireDecode, WireEncode, WireError, WireWrite};

use crate::group::{
    GroupChange, GroupModInput, GroupModMessage, GroupModNode, ParameterAdjustment,
};
use crate::messages::{DealerProof, DkgInput, DkgMessage, Justification, Proposal, SignedVote};
use crate::DkgConfig;
use dkg_vss::{KnownCommitments, ReadyWitness, VssMessage};

impl WireEncode for Proposal {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_len(self.dealers().len());
        for &dealer in self.dealers() {
            w.put_u64(dealer);
        }
    }
}

impl WireDecode for Proposal {
    const MIN_WIRE_LEN: usize = 4;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.len("proposal", dkg_wire::MAX_SEQUENCE_LEN, 8)?;
        let mut dealers = Vec::with_capacity(len);
        for _ in 0..len {
            let dealer = r.u64()?;
            if dealers.last().is_some_and(|&last| last >= dealer) {
                return Err(WireError::InvalidValue {
                    context: "proposal dealer list not strictly ascending",
                });
            }
            dealers.push(dealer);
        }
        Ok(Proposal::new(dealers))
    }
}

impl WireEncode for SignedVote {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_u64(self.node);
        self.signature.encode_to(w);
    }
}

impl WireDecode for SignedVote {
    const MIN_WIRE_LEN: usize = SignedVote::ENCODED_LEN;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SignedVote {
            node: r.u64()?,
            signature: Signature::decode_from(r)?,
        })
    }
}

impl WireEncode for DealerProof {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_u64(self.dealer);
        self.commitment_digest.encode_to(w);
        self.witnesses.encode_to(w);
    }
}

impl WireDecode for DealerProof {
    // Dealer id, digest, and an empty witness list's length prefix.
    const MIN_WIRE_LEN: usize = 8 + 32 + 4;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(DealerProof {
            dealer: r.u64()?,
            commitment_digest: <[u8; 32]>::decode_from(r)?,
            witnesses: Vec::<ReadyWitness>::decode_from(r)?,
        })
    }
}

impl WireEncode for Justification {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        match self {
            Justification::ReadyProofs(proofs) => {
                w.put_u8(0);
                proofs.encode_to(w);
            }
            Justification::EchoCertificate(votes) => {
                w.put_u8(1);
                votes.encode_to(w);
            }
            Justification::ReadyCertificate(votes) => {
                w.put_u8(2);
                votes.encode_to(w);
            }
        }
    }
}

impl WireDecode for Justification {
    // Tag byte plus an empty certificate's length prefix.
    const MIN_WIRE_LEN: usize = 1 + 4;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Justification::ReadyProofs(Vec::decode_from(r)?)),
            1 => Ok(Justification::EchoCertificate(Vec::decode_from(r)?)),
            2 => Ok(Justification::ReadyCertificate(Vec::decode_from(r)?)),
            tag => Err(WireError::UnknownTag {
                context: "justification",
                tag,
            }),
        }
    }
}

/// Operator inputs are codec'd for the persistence layer's write-ahead log
/// (a crash-recovering node replays its own past decisions from stable
/// storage), not for the network.
impl WireEncode for DkgInput {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        match self {
            DkgInput::Start => w.put_u8(0),
            DkgInput::StartReshare { value } => {
                w.put_u8(1);
                value.encode_to(w);
            }
            DkgInput::Reconstruct => w.put_u8(2),
            DkgInput::Recover => w.put_u8(3),
        }
    }
}

impl WireDecode for DkgInput {
    const MIN_WIRE_LEN: usize = 1;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(DkgInput::Start),
            1 => Ok(DkgInput::StartReshare {
                value: dkg_arith::Scalar::decode_from(r)?,
            }),
            2 => Ok(DkgInput::Reconstruct),
            3 => Ok(DkgInput::Recover),
            tag => Err(WireError::UnknownTag {
                context: "dkg input",
                tag,
            }),
        }
    }
}

impl WireEncode for DkgMessage {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        match self {
            DkgMessage::Vss(message) => {
                w.put_u8(0);
                message.encode_to(w);
            }
            DkgMessage::Send {
                tau,
                rank,
                proposal,
                justification,
                lead_ch_certificate,
            } => {
                w.put_u8(1);
                w.put_u64(*tau);
                w.put_u64(*rank);
                proposal.encode_to(w);
                justification.encode_to(w);
                lead_ch_certificate.encode_to(w);
            }
            DkgMessage::Echo {
                tau,
                rank,
                proposal,
                signature,
            } => {
                w.put_u8(2);
                w.put_u64(*tau);
                w.put_u64(*rank);
                proposal.encode_to(w);
                signature.encode_to(w);
            }
            DkgMessage::Ready {
                tau,
                rank,
                proposal,
                signature,
            } => {
                w.put_u8(3);
                w.put_u64(*tau);
                w.put_u64(*rank);
                proposal.encode_to(w);
                signature.encode_to(w);
            }
            DkgMessage::LeadCh {
                tau,
                new_rank,
                proposal,
                signature,
            } => {
                w.put_u8(4);
                w.put_u64(*tau);
                w.put_u64(*new_rank);
                match proposal {
                    None => w.put_u8(0),
                    Some((proposal, justification)) => {
                        w.put_u8(1);
                        proposal.encode_to(w);
                        justification.encode_to(w);
                    }
                }
                signature.encode_to(w);
            }
        }
    }
}

impl DkgMessage {
    /// Decodes a message that must occupy the entire input, resolving
    /// inline commitments of embedded HybridVSS `echo`/`ready` messages
    /// through `known` — [`crate::DkgNode::known_commitment`] of the hosting
    /// session (see [`VssMessage::decode_known`]). [`WireDecode::decode`] is
    /// this with nothing known.
    pub fn decode_known(bytes: &[u8], known: &KnownCommitments<'_>) -> Result<Self, WireError> {
        dkg_wire::decode_exact(bytes, |r| Self::decode_known_from(r, known))
    }

    fn decode_known_from(
        r: &mut Reader<'_>,
        known: &KnownCommitments<'_>,
    ) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(DkgMessage::Vss(VssMessage::decode_known_from(r, known)?)),
            1 => Ok(DkgMessage::Send {
                tau: r.u64()?,
                rank: r.u64()?,
                proposal: Proposal::decode_from(r)?,
                justification: Justification::decode_from(r)?,
                lead_ch_certificate: Vec::decode_from(r)?,
            }),
            2 => Ok(DkgMessage::Echo {
                tau: r.u64()?,
                rank: r.u64()?,
                proposal: Proposal::decode_from(r)?,
                signature: Signature::decode_from(r)?,
            }),
            3 => Ok(DkgMessage::Ready {
                tau: r.u64()?,
                rank: r.u64()?,
                proposal: Proposal::decode_from(r)?,
                signature: Signature::decode_from(r)?,
            }),
            4 => {
                let tau = r.u64()?;
                let new_rank = r.u64()?;
                let proposal = match r.u8()? {
                    0 => None,
                    1 => Some((Proposal::decode_from(r)?, Justification::decode_from(r)?)),
                    tag => {
                        return Err(WireError::UnknownTag {
                            context: "lead-ch proposal option",
                            tag,
                        })
                    }
                };
                Ok(DkgMessage::LeadCh {
                    tau,
                    new_rank,
                    proposal,
                    signature: Signature::decode_from(r)?,
                })
            }
            tag => Err(WireError::UnknownTag {
                context: "dkg message",
                tag,
            }),
        }
    }
}

impl WireDecode for DkgMessage {
    // Tag byte plus the smallest embedded VSS message.
    const MIN_WIRE_LEN: usize = 1 + 1 + 16;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Self::decode_known_from(r, &|_, _| None)
    }
}

// ---------------------------------------------------------------------
// Group-modification agreement messages (§6.1)
// ---------------------------------------------------------------------
//
// ```text
// GroupModMessage  := tag:u8 change          (0 propose | 1 echo | 2 ready)
// change           := kind:u8 node:u64 adjustment:u8
//                     (kind: 0 add | 1 remove; adjustment: 0 t | 1 f | 2 none)
// ```

impl WireEncode for GroupChange {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        let (kind, node, adjustment) = match *self {
            GroupChange::AddNode { node, adjustment } => (0u8, node, adjustment),
            GroupChange::RemoveNode { node, adjustment } => (1, node, adjustment),
        };
        w.put_u8(kind);
        w.put_u64(node);
        w.put_u8(match adjustment {
            ParameterAdjustment::Threshold => 0,
            ParameterAdjustment::CrashLimit => 1,
            ParameterAdjustment::None => 2,
        });
    }
}

impl WireDecode for GroupChange {
    const MIN_WIRE_LEN: usize = 1 + 8 + 1;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let kind = r.u8()?;
        let node = r.u64()?;
        let adjustment = match r.u8()? {
            0 => ParameterAdjustment::Threshold,
            1 => ParameterAdjustment::CrashLimit,
            2 => ParameterAdjustment::None,
            tag => {
                return Err(WireError::UnknownTag {
                    context: "parameter adjustment",
                    tag,
                })
            }
        };
        match kind {
            0 => Ok(GroupChange::AddNode { node, adjustment }),
            1 => Ok(GroupChange::RemoveNode { node, adjustment }),
            tag => Err(WireError::UnknownTag {
                context: "group change",
                tag,
            }),
        }
    }
}

impl WireEncode for GroupModMessage {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        let (tag, change) = match self {
            GroupModMessage::Propose(c) => (0u8, c),
            GroupModMessage::Echo(c) => (1, c),
            GroupModMessage::Ready(c) => (2, c),
        };
        w.put_u8(tag);
        change.encode_to(w);
    }
}

impl WireDecode for GroupModMessage {
    const MIN_WIRE_LEN: usize = 1 + GroupChange::MIN_WIRE_LEN;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(GroupModMessage::Propose(GroupChange::decode_from(r)?)),
            1 => Ok(GroupModMessage::Echo(GroupChange::decode_from(r)?)),
            2 => Ok(GroupModMessage::Ready(GroupChange::decode_from(r)?)),
            tag => Err(WireError::UnknownTag {
                context: "group-mod message",
                tag,
            }),
        }
    }
}

// ---------------------------------------------------------------------
// Group-modification operator inputs and the agreement state
// ---------------------------------------------------------------------
//
// ```text
// GroupModInput    := 0 propose change       (write-ahead-logged, tag 5)
// GroupModNode     := id:u64 config echoed:key-set ready_sent:key-set
//                     echo_from:from-map ready_from:from-map
//                     accepted:(count:u32 change × count)
// key-set          := count:u32 key × count                (strictly ascending)
// key              := kind:u8 node:u64 adjustment:u8
// from-map         := count:u32 (key count:u32 node:u64 × count) × count
//                     (keys and nodes strictly ascending)
// ```

impl WireEncode for GroupModInput {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        let GroupModInput::Propose(change) = self;
        w.put_u8(0);
        change.encode_to(w);
    }
}

impl WireDecode for GroupModInput {
    const MIN_WIRE_LEN: usize = 1 + GroupChange::MIN_WIRE_LEN;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(GroupModInput::Propose(GroupChange::decode_from(r)?)),
            tag => Err(WireError::UnknownTag {
                context: "group-mod input",
                tag,
            }),
        }
    }
}

/// The node is its own snapshot: see [`GroupModNode`].
impl WireEncode for GroupModNode {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_u64(self.id);
        self.config.encode_to(w);
        self.echoed.encode_to(w);
        self.ready_sent.encode_to(w);
        self.echo_from.encode_to(w);
        self.ready_from.encode_to(w);
        self.accepted.encode_to(w);
    }
}

impl WireDecode for GroupModNode {
    const MIN_WIRE_LEN: usize = 8 + DkgConfig::MIN_WIRE_LEN + 5 * 4;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(GroupModNode {
            id: r.u64()?,
            config: DkgConfig::decode_from(r)?,
            echoed: BTreeSet::decode_from(r)?,
            ready_sent: BTreeSet::decode_from(r)?,
            echo_from: BTreeMap::decode_from(r)?,
            ready_from: BTreeMap::decode_from(r)?,
            accepted: Vec::decode_from(r)?,
        })
    }
}
