//! Canonical wire codec for the HybridVSS messages ([`dkg_wire`] traits).
//!
//! Layout (all integers big-endian, lengths `u32`-prefixed):
//!
//! ```text
//! VssMessage        := tag:u8 session:16B body
//!   0 send          := matrix row
//!   1 echo          := commitment-ref point:32B
//!   2 ready         := commitment-ref point:32B option<signature:65B>
//!   3 reconstruct   := share:32B
//!   4 help          := ε
//! commitment-ref    := 0 matrix | 1 digest:32B
//! matrix            := dim:u32 point:33B × dim²          (row-major)
//! row               := count:u32 scalar:32B × count
//! ReadyWitness      := node:u64 signature:65B
//! ```
//!
//! The network driver's traffic metrics record the length of these
//! encodings, so communication complexity is measured, not estimated.
//!
//! ## Digest-resolved decoding
//!
//! Fig. 1 puts the whole matrix in every `echo` and `ready`, so a node
//! receives the same matrix `2n` times per dealer. [`WireDecode::decode`]
//! is context-free and decompresses all of them;
//! [`VssMessage::decode_known`] takes the hosting session's view of the
//! matrices it already holds ([`crate::VssNode::known_commitment`]) and
//! pays for a matrix only the first time it sees it — see
//! [`dkg_wire::primitives::decode_matrix_resolved`]. Both produce equal
//! messages from the same bytes and refuse the same bytes with the same
//! error; the format is the same.

use std::sync::Arc;

use dkg_arith::Scalar;
use dkg_crypto::{Digest, Signature};
use dkg_poly::{CommitmentMatrix, Univariate};
use dkg_wire::primitives::decode_matrix_resolved;
use dkg_wire::{Reader, WireDecode, WireEncode, WireError, WireWrite};

use crate::messages::{
    CommitmentRef, InlineCommitment, ReadyWitness, SessionId, VssInput, VssMessage,
};

/// A decoder's view of the commitment matrices its host already holds:
/// `known(session, digest)` is the matrix of that session whose point bytes
/// hash to `digest`, if the host has fully decoded it before.
pub type KnownCommitments<'a> = dyn Fn(SessionId, &Digest) -> Option<Arc<CommitmentMatrix>> + 'a;

impl WireEncode for SessionId {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put(&self.to_bytes());
    }
}

impl WireDecode for SessionId {
    const MIN_WIRE_LEN: usize = SessionId::ENCODED_LEN;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let dealer = r.u64()?;
        let tau = r.u64()?;
        Ok(SessionId::new(dealer, tau))
    }
}

impl WireEncode for CommitmentRef {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        match self {
            CommitmentRef::Full(inline) => {
                w.put_u8(0);
                inline.matrix().encode_to(w);
            }
            CommitmentRef::Digest(digest) => {
                w.put_u8(1);
                digest.encode_to(w);
            }
        }
    }
}

impl CommitmentRef {
    /// Decodes a reference, resolving an inline matrix through `known`.
    fn decode_known_from(
        r: &mut Reader<'_>,
        known: impl FnOnce(&Digest) -> Option<Arc<CommitmentMatrix>>,
    ) -> Result<Self, WireError> {
        match r.u8()? {
            0 => {
                let (matrix, digest) = decode_matrix_resolved(r, known)?;
                Ok(CommitmentRef::Full(InlineCommitment::from_parts(
                    matrix, digest,
                )))
            }
            1 => Ok(CommitmentRef::Digest(<[u8; 32]>::decode_from(r)?)),
            tag => Err(WireError::UnknownTag {
                context: "commitment ref",
                tag,
            }),
        }
    }
}

impl WireDecode for CommitmentRef {
    // Tag byte plus a 32-byte digest (the smaller arm).
    const MIN_WIRE_LEN: usize = 1 + 32;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Self::decode_known_from(r, |_| None)
    }
}

impl WireEncode for ReadyWitness {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_u64(self.node);
        self.signature.encode_to(w);
    }
}

impl WireDecode for ReadyWitness {
    const MIN_WIRE_LEN: usize = ReadyWitness::ENCODED_LEN;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ReadyWitness {
            node: r.u64()?,
            signature: Signature::decode_from(r)?,
        })
    }
}

/// Operator inputs are codec'd for the persistence layer's write-ahead log
/// (a crash-recovering node replays its own past decisions from stable
/// storage), not for the network.
impl WireEncode for VssInput {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        match self {
            VssInput::Share { secret } => {
                w.put_u8(0);
                secret.encode_to(w);
            }
            VssInput::Reconstruct => w.put_u8(1),
            VssInput::Recover => w.put_u8(2),
        }
    }
}

impl WireDecode for VssInput {
    const MIN_WIRE_LEN: usize = 1;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(VssInput::Share {
                secret: Scalar::decode_from(r)?,
            }),
            1 => Ok(VssInput::Reconstruct),
            2 => Ok(VssInput::Recover),
            tag => Err(WireError::UnknownTag {
                context: "vss input",
                tag,
            }),
        }
    }
}

impl WireEncode for VssMessage {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        match self {
            VssMessage::Send {
                session,
                commitment,
                row,
            } => {
                w.put_u8(0);
                session.encode_to(w);
                commitment.encode_to(w);
                row.encode_to(w);
            }
            VssMessage::Echo {
                session,
                commitment,
                point,
            } => {
                w.put_u8(1);
                session.encode_to(w);
                commitment.encode_to(w);
                point.encode_to(w);
            }
            VssMessage::Ready {
                session,
                commitment,
                point,
                signature,
            } => {
                w.put_u8(2);
                session.encode_to(w);
                commitment.encode_to(w);
                point.encode_to(w);
                signature.encode_to(w);
            }
            VssMessage::ReconstructShare { session, share } => {
                w.put_u8(3);
                session.encode_to(w);
                share.encode_to(w);
            }
            VssMessage::Help { session } => {
                w.put_u8(4);
                session.encode_to(w);
            }
        }
    }
}

impl VssMessage {
    /// Decodes a message that must occupy the entire input, resolving
    /// inline commitments in `echo`/`ready` through `known` (see the module
    /// docs). [`WireDecode::decode`] is this with nothing known.
    pub fn decode_known(bytes: &[u8], known: &KnownCommitments<'_>) -> Result<Self, WireError> {
        dkg_wire::decode_exact(bytes, |r| Self::decode_known_from(r, known))
    }

    /// [`VssMessage::decode_known`] on a reader, leaving the cursor after
    /// the message.
    pub fn decode_known_from(
        r: &mut Reader<'_>,
        known: &KnownCommitments<'_>,
    ) -> Result<Self, WireError> {
        let tag = r.u8()?;
        let session = SessionId::decode_from(r)?;
        let known = |digest: &Digest| known(session, digest);
        match tag {
            0 => Ok(VssMessage::Send {
                session,
                commitment: CommitmentMatrix::decode_from(r)?,
                row: Univariate::decode_from(r)?,
            }),
            1 => Ok(VssMessage::Echo {
                session,
                commitment: CommitmentRef::decode_known_from(r, known)?,
                point: Scalar::decode_from(r)?,
            }),
            2 => Ok(VssMessage::Ready {
                session,
                commitment: CommitmentRef::decode_known_from(r, known)?,
                point: Scalar::decode_from(r)?,
                signature: Option::<Signature>::decode_from(r)?,
            }),
            3 => Ok(VssMessage::ReconstructShare {
                session,
                share: Scalar::decode_from(r)?,
            }),
            4 => Ok(VssMessage::Help { session }),
            tag => Err(WireError::UnknownTag {
                context: "vss message",
                tag,
            }),
        }
    }
}

impl WireDecode for VssMessage {
    // Tag byte plus a session id (the `help` message).
    const MIN_WIRE_LEN: usize = 1 + SessionId::ENCODED_LEN;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Self::decode_known_from(r, &|_, _| None)
    }
}
