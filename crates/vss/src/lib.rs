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
//!   [`dkg_sim::Protocol`], so one instance runs directly on the
//!   [`dkg_sim`] network simulator,
//! * [`faulty`] — Byzantine dealer behaviours for fault-injection tests,
//! * configuration ([`VssConfig`]) enforcing the paper's resilience bound
//!   and thresholds, and the message/commitment encodings with byte-accurate
//!   wire sizes for the complexity experiments.
//!
//! ## Example
//!
//! ```
//! use dkg_arith::{PrimeField, Scalar};
//! use dkg_sim::{DelayModel, NetworkConfig, Simulation};
//! use dkg_vss::{SessionId, VssConfig, VssInput, VssNode, VssOutput};
//!
//! // n = 4, t = 1, f = 0; node 1 deals a secret.
//! let cfg = VssConfig::standard(4, 0).unwrap();
//! let session = SessionId::new(1, 0);
//! let mut sim = Simulation::new(NetworkConfig::default(), 1);
//! for i in 1..=4 {
//!     sim.add_node(VssNode::new(i, cfg.clone(), session, i, None));
//! }
//! sim.schedule_operator(1, VssInput::Share { secret: Scalar::from_u64(42) }, 0);
//! sim.run();
//! let completions = sim
//!     .outputs()
//!     .iter()
//!     .filter(|o| matches!(o.output, VssOutput::Shared { .. }))
//!     .count();
//! assert_eq!(completions, 4);
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
pub use snapshot::{PendingPointSnapshot, SnapshotError, TallySnapshot, VssSnapshot};
pub use wire::KnownCommitments;
