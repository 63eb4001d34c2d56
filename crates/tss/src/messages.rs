//! The threshold-signing protocol's operator inputs, network messages and
//! outputs.
//!
//! One signing request `req` flows through at most `attempt`-many rounds,
//! each a two-step exchange between the request's coordinator (the node
//! whose operator submitted it) and a quorum of `t + 1` share-holders:
//!
//! 1. the coordinator broadcasts [`TssMessage::SignRequest`] with an empty
//!    package — a nonce solicitation; each quorum member answers with a
//!    fresh [`TssMessage::NonceCommit`] (two commitments, FROST-style
//!    hiding + binding, so the effective nonce is fixed only after every
//!    commitment is known);
//! 2. the coordinator re-broadcasts the same `SignRequest` carrying the
//!    full commitment package; each member derives the binding factors,
//!    the group nonce `R`, the Schnorr challenge and its Lagrange
//!    coefficient, and answers with its [`TssMessage::PartialSig`].
//!
//! The coordinator aggregates `s = Σ s_i`, verifies `(R, s)` under the
//! DKG'd group key and broadcasts it as [`TssMessage::SignResult`] — an
//! ordinary Schnorr signature. Only when the aggregate does not verify are
//! the partials checked one by one
//! ([`dkg_poly::CryptoJob::PartialSigBatch`]) to name the culprits.
//! Misbehaving or silent signers are excluded and the round retried with a
//! fresh attempt counter (and fresh nonces).

use dkg_arith::{GroupElement, Scalar};
use dkg_crypto::{NodeId, Signature};
use dkg_sim::MessageKind;

/// Operator messages driving a signing session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TssInput {
    /// Request a signature over `message`; the receiving node coordinates
    /// the request. `req` identifies the request within the session —
    /// resubmitting a completed `req` re-emits its result, resubmitting an
    /// in-flight one is a no-op (crash-recovery replays are idempotent).
    Sign {
        /// The request identifier, unique within the session.
        req: u64,
        /// The message to sign.
        message: Vec<u8>,
    },
    /// §5.3-style reboot: retransmit the current round of every incomplete
    /// request this node coordinates, so a crashed coordinator picks its
    /// requests back up after [`restore`](crate::SignSession).
    Recover,
}

/// One signer's nonce-commitment pair inside a signing package.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NonceCommitEntry {
    /// The committing signer.
    pub signer: NodeId,
    /// The hiding commitment `D_i = g^{d_i}`.
    pub hiding: GroupElement,
    /// The binding commitment `E_i = g^{e_i}`.
    pub binding: GroupElement,
}

/// Network messages of the signing protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TssMessage {
    /// Coordinator → quorum. With `package = None` this solicits nonce
    /// commitments for `(req, attempt)`; with `package = Some(entries)` it
    /// carries the full commitment set and asks for partial signatures.
    SignRequest {
        /// The signing session this request belongs to.
        sid: u64,
        /// The request identifier.
        req: u64,
        /// The retry round (fresh nonces every attempt).
        attempt: u32,
        /// The message to sign.
        message: Vec<u8>,
        /// `None` = nonce solicitation; `Some` = the signing package, one
        /// entry per quorum member in strictly ascending signer order.
        package: Option<Vec<NonceCommitEntry>>,
    },
    /// Signer → coordinator: fresh nonce commitments for `(req, attempt)`.
    NonceCommit {
        /// The signing session.
        sid: u64,
        /// The request identifier.
        req: u64,
        /// The retry round.
        attempt: u32,
        /// The committing signer (also authenticated by the channel; carried
        /// so the commitment is self-describing in logs and snapshots).
        signer: NodeId,
        /// The hiding commitment `D_i`.
        hiding: GroupElement,
        /// The binding commitment `E_i`.
        binding: GroupElement,
    },
    /// Signer → coordinator: the partial response `s_i` for a package.
    PartialSig {
        /// The signing session.
        sid: u64,
        /// The request identifier.
        req: u64,
        /// The retry round.
        attempt: u32,
        /// The responding signer.
        signer: NodeId,
        /// The partial response `s_i = d_i + e_i·ρ_i + c·λ_i·x_i`.
        response: Scalar,
    },
    /// Coordinator → everyone: the aggregated signature for `req`.
    SignResult {
        /// The signing session.
        sid: u64,
        /// The request identifier.
        req: u64,
        /// The finished, singly-verifiable Schnorr signature.
        signature: Signature,
    },
}

impl TssMessage {
    /// The signing session a message belongs to (the routing channel's
    /// contents; the endpoint cross-checks the two).
    pub fn sid(&self) -> u64 {
        match self {
            TssMessage::SignRequest { sid, .. }
            | TssMessage::NonceCommit { sid, .. }
            | TssMessage::PartialSig { sid, .. }
            | TssMessage::SignResult { sid, .. } => *sid,
        }
    }
}

impl MessageKind for TssMessage {
    fn kind(&self) -> &'static str {
        match self {
            TssMessage::SignRequest { package: None, .. } => "sign-request",
            TssMessage::SignRequest {
                package: Some(_), ..
            } => "sign-package",
            TssMessage::NonceCommit { .. } => "nonce-commit",
            TssMessage::PartialSig { .. } => "partial-sig",
            TssMessage::SignResult { .. } => "sign-result",
        }
    }
}

/// Protocol-level outputs a signing session reports to its operator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TssOutput {
    /// A request completed: `signature` verifies over the request's message
    /// under the group public key, exactly like a single-signer Schnorr
    /// signature. Emitted once at the coordinator when the aggregate
    /// verifies and once at every other node when the broadcast result
    /// arrives (and verifies there).
    Signed {
        /// The completed request.
        req: u64,
        /// The aggregated signature.
        signature: Signature,
    },
    /// A request failed permanently: excluded (misbehaving or silent)
    /// signers left fewer than `t + 1` eligible share-holders.
    Exhausted {
        /// The failed request.
        req: u64,
    },
}
