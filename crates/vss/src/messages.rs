//! HybridVSS network messages, operator inputs and outputs (Fig. 1).

use dkg_arith::Scalar;
use dkg_crypto::{Digest, NodeId, Signature};
use dkg_poly::{CommitmentMatrix, Univariate};
use dkg_sim::MessageKind;
use std::sync::Arc;

/// A session identifier `(P_d, τ)`: the dealer's identity plus a counter.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SessionId {
    /// The dealer `P_d` of this session.
    pub dealer: NodeId,
    /// The counter `τ` (the phase number in the proactive protocols).
    pub tau: u64,
}

impl SessionId {
    /// Creates a session identifier.
    pub fn new(dealer: NodeId, tau: u64) -> Self {
        SessionId { dealer, tau }
    }

    /// Canonical byte encoding, used inside signed payloads.
    pub fn to_bytes(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.dealer.to_be_bytes());
        out[8..].copy_from_slice(&self.tau.to_be_bytes());
        out
    }

    /// Wire size of the identifier.
    pub const ENCODED_LEN: usize = 16;
}

/// A commitment matrix carried inline in a message, with the SHA-256 digest
/// that names it. The matrix is shared: the `2n` echo/ready messages a node
/// sends or stores per dealer, and every message decoded against a session
/// that already knows the matrix, hold one allocation between them.
///
/// The fields are private because `digest == sha256(matrix.to_bytes())`
/// must hold — nodes key their commitment store by it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InlineCommitment {
    matrix: Arc<CommitmentMatrix>,
    digest: Digest,
}

impl InlineCommitment {
    /// Pairs a matrix with a digest the caller already computed from the
    /// matrix's point bytes (the decoder and the node's commitment store);
    /// everyone else builds one with [`CommitmentRef::full`].
    pub(crate) fn from_parts(matrix: Arc<CommitmentMatrix>, digest: Digest) -> Self {
        InlineCommitment { matrix, digest }
    }

    /// The shared matrix.
    pub fn matrix(&self) -> &Arc<CommitmentMatrix> {
        &self.matrix
    }
}

/// How a message refers to the dealer's commitment matrix: either inline
/// (the paper's Fig. 1) or by SHA-256 digest (the hash optimisation measured
/// in experiment E2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CommitmentRef {
    /// The full matrix is included.
    Full(InlineCommitment),
    /// Only a digest of the matrix is included.
    Digest(Digest),
}

impl CommitmentRef {
    /// An inline reference to `matrix`, hashing it once.
    pub fn full(matrix: impl Into<Arc<CommitmentMatrix>>) -> Self {
        let matrix = matrix.into();
        let digest = dkg_crypto::sha256(&matrix.to_bytes());
        CommitmentRef::Full(InlineCommitment { matrix, digest })
    }

    /// The digest identifying the referenced commitment.
    pub fn digest(&self) -> Digest {
        match self {
            CommitmentRef::Full(inline) => inline.digest,
            CommitmentRef::Digest(d) => *d,
        }
    }

    /// The full matrix, if carried inline.
    pub fn matrix(&self) -> Option<&Arc<CommitmentMatrix>> {
        match self {
            CommitmentRef::Full(inline) => Some(&inline.matrix),
            CommitmentRef::Digest(_) => None,
        }
    }
}

/// A signed `ready` witness: the signature node `m` produced over
/// `(session, digest(C))`. Collected into the sets `R_d` that the DKG's
/// leader uses to prove its proposal valid (§4, extended HybridVSS).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReadyWitness {
    /// The signer.
    pub node: NodeId,
    /// Schnorr signature over the ready payload.
    pub signature: Signature,
}

impl ReadyWitness {
    /// Wire size of a witness: the signer's id plus its Schnorr signature.
    pub const ENCODED_LEN: usize = 8 + dkg_crypto::Signature::ENCODED_LEN;

    /// The byte string a ready witness signs.
    pub fn payload(session: &SessionId, commitment_digest: &Digest) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 32 + 10);
        out.extend_from_slice(b"vss-ready");
        out.extend_from_slice(&session.to_bytes());
        out.extend_from_slice(commitment_digest);
        out
    }
}

/// Network messages of the HybridVSS sharing, reconstruction and recovery
/// protocols.
#[derive(Clone, PartialEq, Debug)]
pub enum VssMessage {
    /// Dealer → `P_j`: the commitment `C` and the row polynomial
    /// `a_j(y) = f(j, y)`.
    Send {
        /// Session `(P_d, τ)`.
        session: SessionId,
        /// The full commitment matrix (always inline in `send`).
        commitment: CommitmentMatrix,
        /// The receiver's row polynomial.
        row: Univariate,
    },
    /// `P_i` → `P_j`: `C` (or its digest) and the point `a_i(j) = f(i, j)`.
    Echo {
        /// Session `(P_d, τ)`.
        session: SessionId,
        /// The commitment (full or digest, per the configured mode).
        commitment: CommitmentRef,
        /// The evaluation `f(i, j)` for the receiver.
        point: Scalar,
    },
    /// `P_i` → `P_j`: ready message with the point `a_i(j)`, optionally
    /// signed so that the DKG leader can collect transferable proofs.
    Ready {
        /// Session `(P_d, τ)`.
        session: SessionId,
        /// The commitment (full or digest).
        commitment: CommitmentRef,
        /// The evaluation `f(i, j)` for the receiver.
        point: Scalar,
        /// Optional signature over `(session, digest(C))` (extended
        /// HybridVSS used by the DKG).
        signature: Option<Signature>,
    },
    /// Reconstruction: `P_i` sends its share `s_i` to everyone.
    ReconstructShare {
        /// Session `(P_d, τ)`.
        session: SessionId,
        /// The sender's share.
        share: Scalar,
    },
    /// A recovering node asks all nodes for retransmission help.
    Help {
        /// Session `(P_d, τ)`.
        session: SessionId,
    },
}

impl VssMessage {
    /// The session this message belongs to.
    pub fn session(&self) -> SessionId {
        match self {
            VssMessage::Send { session, .. }
            | VssMessage::Echo { session, .. }
            | VssMessage::Ready { session, .. }
            | VssMessage::ReconstructShare { session, .. }
            | VssMessage::Help { session } => *session,
        }
    }
}

impl MessageKind for VssMessage {
    fn kind(&self) -> &'static str {
        match self {
            VssMessage::Send { .. } => "vss-send",
            VssMessage::Echo { .. } => "vss-echo",
            VssMessage::Ready { .. } => "vss-ready",
            VssMessage::ReconstructShare { .. } => "vss-reconstruct",
            VssMessage::Help { .. } => "vss-help",
        }
    }
}

/// Operator `in` messages (Fig. 1 and the `Rec` protocol).
#[derive(Clone, Debug, PartialEq)]
pub enum VssInput {
    /// `(P_d, τ, in, share, s)` — only meaningful at the dealer.
    Share {
        /// The secret to share.
        secret: Scalar,
    },
    /// `(P_d, τ, in, reconstruct)` — start the reconstruction protocol.
    Reconstruct,
    /// `(P_d, τ, in, recover)` — run the crash-recovery procedure.
    Recover,
}

/// Operator `out` messages.
#[derive(Clone, Debug, PartialEq)]
pub enum VssOutput {
    /// `(P_d, τ, out, shared, C, s_i)`: the sharing completed. `ready_proof`
    /// carries the `n − t − f` signed ready messages (`R_d`) when the
    /// extended protocol is in use, or is empty otherwise.
    Shared {
        /// Session `(P_d, τ)`.
        session: SessionId,
        /// The agreed commitment matrix.
        commitment: CommitmentMatrix,
        /// This node's share `s_i`.
        share: Scalar,
        /// Signed ready witnesses (extended HybridVSS).
        ready_proof: Vec<ReadyWitness>,
    },
    /// `(P_d, τ, out, reconstructed, z_i)`: reconstruction completed.
    Reconstructed {
        /// Session `(P_d, τ)`.
        session: SessionId,
        /// The reconstructed secret.
        value: Scalar,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkg_arith::PrimeField;
    use dkg_poly::SymmetricBivariate;
    use dkg_wire::WireEncode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_commitment(t: usize) -> CommitmentMatrix {
        let mut rng = StdRng::seed_from_u64(5);
        let f = SymmetricBivariate::random_with_secret(&mut rng, t, Scalar::from_u64(3));
        CommitmentMatrix::commit(&f)
    }

    #[test]
    fn session_id_encoding() {
        let s = SessionId::new(7, 3);
        let bytes = s.to_bytes();
        assert_eq!(bytes.len(), SessionId::ENCODED_LEN);
        assert_eq!(&bytes[..8], &7u64.to_be_bytes());
        assert_eq!(&bytes[8..], &3u64.to_be_bytes());
    }

    #[test]
    fn commitment_ref_digest_is_stable() {
        let c = sample_commitment(2);
        let full = CommitmentRef::full(c.clone());
        let digest = CommitmentRef::Digest(full.digest());
        assert_eq!(full.digest(), digest.digest());
        assert!(full.matrix().is_some());
        assert!(digest.matrix().is_none());
        assert!(WireEncode::encoded_len(&full) > WireEncode::encoded_len(&digest));
        // One tag byte plus the 32-byte digest.
        assert_eq!(WireEncode::encoded_len(&digest), 33);
    }

    #[test]
    fn wire_sizes_reflect_mode() {
        let c = sample_commitment(3);
        let session = SessionId::new(1, 0);
        let echo_full = VssMessage::Echo {
            session,
            commitment: CommitmentRef::full(c.clone()),
            point: Scalar::one(),
        };
        let echo_digest = VssMessage::Echo {
            session,
            commitment: CommitmentRef::Digest([0u8; 32]),
            point: Scalar::one(),
        };
        assert!(echo_full.encoded_len() > echo_digest.encoded_len());
        assert_eq!(echo_full.kind(), "vss-echo");
        // Send carries the matrix (u32 dimension prefix + entries) plus the
        // t+1 row scalars (u32 count prefix).
        let send = VssMessage::Send {
            session,
            commitment: c.clone(),
            row: dkg_poly::Univariate::zero(3),
        };
        assert_eq!(
            send.encoded_len(),
            1 + 16 + (4 + c.encoded_len()) + (4 + 4 * 32)
        );
        let help = VssMessage::Help { session };
        assert_eq!(help.encoded_len(), 17);
        assert_eq!(help.session(), session);
    }

    #[test]
    fn ready_payload_binds_session_and_commitment() {
        let d1 = [1u8; 32];
        let d2 = [2u8; 32];
        let s1 = SessionId::new(1, 0);
        let s2 = SessionId::new(2, 0);
        assert_ne!(
            ReadyWitness::payload(&s1, &d1),
            ReadyWitness::payload(&s1, &d2)
        );
        assert_ne!(
            ReadyWitness::payload(&s1, &d1),
            ReadyWitness::payload(&s2, &d1)
        );
    }
}
