//! # dkg-sim
//!
//! The node model and network model of the hybrid DKG reproduction of
//! *Distributed Key Generation for the Internet* (Kate & Goldberg, ICDCS
//! 2009) — the vocabulary every protocol crate and the one network driver
//! (`dkg_engine::EndpointNet`) share. The crate drives nothing itself:
//!
//! * the paper's node model (§7): deterministic state machines fed
//!   operator, network and timer messages ([`Protocol`], [`ActionSink`]),
//! * link models ([`DelayModel`], [`ChaosModel`]): honest-link delays plus
//!   the scheduling half of the adversary (§2.1–2.3) — asymmetric per-link
//!   latency overrides on the links it controls, reordering windows and
//!   timed partitions that heal, either dropping severed traffic or holding
//!   it until the heal (eventual delivery),
//! * weak synchrony for liveness (§2.1): the Castro–Liskov style
//!   [`DelayFunction`] behind every protocol timer,
//! * message and byte accounting ([`Metrics`], [`MessageKind`]): the driver
//!   records the length of every encoded datagram under its message's
//!   label, which is how the experiments measure message and communication
//!   complexity.
//!
//! Crashes and recoveries (§2.2), muted nodes and actively Byzantine nodes
//! are the driver's business (`EndpointNet::schedule_crash` / `mute`, the
//! `dkg-adversary` crate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod network;
pub mod protocol;
pub mod wire;

pub use dkg_crypto::NodeId;
pub use metrics::{Metrics, Tally};
pub use network::{ChaosModel, DelayFunction, DelayModel, LinkDelay, LinkFate, TimedPartition};
pub use protocol::{Action, ActionSink, Protocol, SimTime, TimerId};
pub use wire::MessageKind;
