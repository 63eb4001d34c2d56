//! # dkg-adversary
//!
//! The **active Byzantine adversary** for the hybrid DKG reproduction of
//! *Distributed Key Generation for the Internet* (Kate & Goldberg,
//! ICDCS 2009).
//!
//! The paper proves safety and liveness against an adversary that controls
//! up to `t < n/3` nodes *actively*: it holds their real keys, knows the
//! protocol, and deviates strategically. The network driver's fault hooks
//! (crashes, muting, garbage injection) never exercise that adversary —
//! this crate does, over the same byte-level [`dkg_engine::EndpointNet`]
//! the honest nodes use:
//!
//! * [`Strategy`] — a seeded, deterministic attack behaviour operating on
//!   **typed** messages; every emission is re-encoded through the
//!   canonical [`dkg_wire`] codec, so adversary frames are wire-valid by
//!   construction and rejections happen for protocol reasons only.
//! * [`MaliciousNode`] — the [`dkg_engine::CorruptEndpoint`]: an internal
//!   honest endpoint (real keys, real state machine) with the strategy
//!   sitting on its wire, able to rewrite, withhold, equivocate, replay
//!   and fabricate. Shipped strategies replay under their *own* identity
//!   (the paper's channels are authenticated, §2.3);
//!   [`Directed::spoofed`] exists to model a broken channel-auth
//!   assumption and is exercised by the origin-tagging tests.
//! * [`strategies`] — the concrete threat model: equivocating and
//!   wrong-share dealers, inconsistent echo/ready senders, vote
//!   withholders, selective senders, replayers, certificate forgers and
//!   agreement equivocators ([`StrategyKind::ALL`]).
//! * [`scenario`] — the matrix runner asserting the two-sided bound: at
//!   `f ≤ t` all honest nodes terminate with one consistent key and a
//!   worker-count-independent byte transcript; at `f = t + 1` safety still
//!   never splits.
//!
//! Chaos — asymmetric per-link latency, reordering windows, timed
//! partitions that heal — comes from [`dkg_sim::ChaosModel`] via
//! [`dkg_engine::EndpointNet::set_chaos`] and composes with every
//! strategy.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod node;
pub mod scenario;
pub mod strategies;
pub mod strategy;

pub use node::MaliciousNode;
pub use scenario::{run_scenario, ScenarioOutcome, ScenarioSpec};
pub use strategies::{
    AgreementEquivocator, CertificateForger, EquivocatingDealer, InconsistentPoints, Replayer,
    SelectiveSender, StrategyKind, VoteWithholder, WrongShareDealer,
};
pub use strategy::{Directed, NullStrategy, Strategy, StrategyCtx};
