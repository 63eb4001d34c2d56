//! # dkg-core
//!
//! The primary contribution of *Distributed Key Generation for the Internet*
//! (Kate & Goldberg, ICDCS 2009), reproduced in Rust: an asynchronous
//! distributed key generation protocol for the hybrid failure model
//! (`n ≥ 3t + 2f + 1`, Byzantine + crash-recovery + link failures), built
//! from `n` parallel HybridVSS sharings and a leader-based agreement with a
//! Castro–Liskov style leader change.
//!
//! * [`DkgNode`] — the per-node state machine: optimistic phase (Fig. 2),
//!   pessimistic leader-change phase (Fig. 3), group-secret reconstruction
//!   and crash recovery. A [`dkg_sim::Protocol`], hosted as a session of a
//!   `dkg_engine::Endpoint`.
//! * [`proactive`] — share renewal and recovery across phases (§5):
//!   [`PhaseState`], [`RenewalOptions`] and the shared [`plan_renewal`]
//!   safeguards (the end-to-end drivers live in `dkg_engine::runner`).
//! * [`group`] — group-modification agreement, node addition/removal and
//!   threshold / crash-limit changes (§6). The agreement machine
//!   [`group::GroupModNode`] carries its own codec and is its own
//!   crash-recovery image.
//! * [`snapshot`] — [`DkgSnapshot`], the crash-recovery image of a
//!   [`DkgNode`], holding its state in the live types ([`CompletedSharing`],
//!   ordered maps and sets), with its `dkg-wire` codec.
//! * [`runner`] — system construction ([`SystemSetup`]): keyrings, configs
//!   and node seeding from a single seed. The canonical end-to-end driver
//!   is `dkg_engine::runner`, which re-exports it.
//!
//! ## Quickstart
//!
//! ```
//! use dkg_core::runner::SystemSetup;
//! use dkg_core::DkgInput;
//! use dkg_engine::runner::build_dkg_net;
//! use dkg_sim::DelayModel;
//!
//! // A 4-node system tolerating t = 1 Byzantine node: one endpoint per
//! // node, each hosting the DKG session τ = 0, exchanging encoded datagrams.
//! let setup = SystemSetup::generate(4, 0, 42);
//! let mut net = build_dkg_net(&setup, 0, DelayModel::Constant(25));
//! for node in 1..=4 {
//!     net.schedule_dkg_input(node, 0, DkgInput::Start, 0);
//! }
//! net.run();
//! assert!((1..=4).all(|node| net.endpoint(node).unwrap().dkg_result(0).is_some()));
//! println!("{}", net.metrics().report());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod group;
pub mod messages;
pub mod node;
pub mod proactive;
pub mod runner;
pub mod snapshot;
pub mod wire;

pub use config::{DkgConfig, NodeKeys};
pub use messages::{
    payload, CombineRule, DealerProof, DkgInput, DkgMessage, DkgOutput, Justification, Proposal,
    SignedVote,
};
pub use node::{DkgJobId, DkgNode, DkgResult};
pub use proactive::{plan_renewal, PhaseState, RenewalError, RenewalOptions, RenewalPlan};
pub use runner::SystemSetup;
pub use snapshot::{CompletedSharing, DkgSnapshot};
