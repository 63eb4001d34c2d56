//! # dkg-vss
//!
//! **HybridVSS** — the asynchronous verifiable secret sharing scheme of
//! *Distributed Key Generation for the Internet* (Kate & Goldberg,
//! ICDCS 2009, §3, Fig. 1) for the hybrid failure model
//! (`n ≥ 3t + 2f + 1` with a `t`-limited Byzantine adversary and `f`
//! simultaneous crashes / link failures).
//!
//! The crate provides:
//!
//! * [`VssNode`] — the sharing (`Sh`), reconstruction (`Rec`) and
//!   crash-recovery state machine, including the extended signed-`ready`
//!   variant the DKG protocol builds on; it implements
//!   [`dkg_sim::Protocol`], so a `dkg_engine::Endpoint` hosts one instance
//!   as a session of its own,
//! * [`faulty`] — a Byzantine dealer's split dealing for fault-injection
//!   tests,
//! * [`snapshot`] — [`VssSnapshot`], the crash-recovery image of a
//!   [`VssNode`], holding its state in the live types ([`Tally`],
//!   [`PendingPoint`], ordered maps and sets), with its `dkg-wire` codec,
//! * configuration ([`VssConfig`]) enforcing the paper's resilience bound
//!   and thresholds, and the canonical message/commitment encodings
//!   ([`wire`]) whose lengths the complexity experiments count.
//!
//! ## Example
//!
//! ```
//! use dkg_arith::{PrimeField, Scalar};
//! use dkg_engine::{Endpoint, EndpointConfig, EndpointNet};
//! use dkg_sim::DelayModel;
//! use dkg_vss::{SessionId, VssConfig, VssInput, VssNode};
//!
//! // n = 4, t = 1, f = 0; node 1 deals a secret. Each node is one session
//! // on an endpoint; the network carries their encoded datagrams.
//! let cfg = VssConfig::standard(4, 0).unwrap();
//! let session = SessionId::new(1, 0);
//! let mut net = EndpointNet::new(DelayModel::default(), 1);
//! for i in 1..=4 {
//!     let mut endpoint = Endpoint::new(i, EndpointConfig::default());
//!     endpoint.add_vss_session(VssNode::new(i, cfg.clone(), session, i, None)).unwrap();
//!     net.add_endpoint(endpoint);
//! }
//! net.schedule_vss_input(1, session, VssInput::Share { secret: Scalar::from_u64(42) }, 0);
//! net.run();
//! assert!((1..=4).all(|i| net.endpoint(i).unwrap().vss_session(session).unwrap().is_complete()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod faulty;
pub mod messages;
pub mod node;
pub mod snapshot;
mod standalone;
pub mod wire;

pub use config::{CommitmentMode, ConfigError, VssConfig};
pub use messages::{
    CommitmentRef, InlineCommitment, ReadyWitness, SessionId, VssInput, VssMessage, VssOutput,
};
pub use node::{SigningContext, VssAction, VssJobId, VssNode};
pub use snapshot::{PendingPoint, SnapshotError, Tally, VssSnapshot};
pub use wire::KnownCommitments;
