//! # dkg-tss
//!
//! A threshold Schnorr signing service that puts the DKG'd key to
//! production work, for the hybrid DKG reproduction of *Distributed Key
//! Generation for the Internet* (Kate & Goldberg, ICDCS 2009). The paper
//! motivates its DKG with threshold-cryptography applications (§1); this
//! crate closes that loop: any `t + 1` of the `n` share-holders produced
//! by a completed DKG run answer signing requests, and the aggregate is an
//! ordinary Schnorr signature under the group public key — verifiers
//! neither know nor care that the key never existed in one place.
//!
//! * [`SignSession`] — the request-driven state machine: FROST-style
//!   two-round signing (commitment-based distributed nonces, then partial
//!   responses), Lagrange aggregation verified as the plain Schnorr
//!   signature it is, per-signer checks through the
//!   [`dkg_poly::CryptoJob`] pipeline only when that fails, and
//!   blame-then-retry for silent or misbehaving signers;
//! * [`TssMessage`] / [`TssInput`] / [`TssOutput`] — the wire messages,
//!   operator inputs and protocol outputs, with canonical codecs in
//!   [`mod@wire`];
//! * [`SignSnapshot`] — crash-recovery snapshots in the session's live
//!   types (coordinator state is one [`RequestState`] per request), so a
//!   rebooted signer resumes mid-request without ever reusing a nonce.
//!
//! The state machine implements [`dkg_sim::Protocol`], so the engine's
//! endpoints host it over the deterministic `EndpointNet` and the UDP
//! deployment alike.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod messages;
pub mod session;
pub mod snapshot;
pub mod wire;

pub use messages::{NonceCommitEntry, TssInput, TssMessage, TssOutput};
pub use session::{RequestState, SignSession, TssConfig};
pub use snapshot::{SignSnapshot, SnapshotError};
