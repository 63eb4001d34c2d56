//! # dkg-engine
//!
//! The sans-I/O protocol engine for the hybrid DKG reproduction of
//! *Distributed Key Generation for the Internet* (Kate & Goldberg,
//! ICDCS 2009): a poll-based [`Endpoint`] that multiplexes many concurrent
//! DKG, HybridVSS, threshold-signing and group-modification sessions —
//! each under its [`SessionKey`] — over real encoded byte datagrams. A
//! completed DKG's key material feeds straight into a hosted
//! [`dkg_tss::SignSession`] ([`Endpoint::add_sign_session`]), so the same
//! endpoint that generated the key serves signing requests with it.
//!
//! Where `dkg_sim::Protocol` is an in-process callback interface (and
//! remains, unchanged, the pure state-machine contract the protocol crates
//! implement), the endpoint is the *transport-facing* surface: bytes in
//! ([`Endpoint::handle_datagram`], [`Endpoint::handle_timeout`]), bytes and
//! events out ([`Endpoint::poll_transmit`], [`Endpoint::poll_event`],
//! [`Endpoint::poll_timeout`]). It owns the [`dkg_wire`] codec boundary, so
//! malformed, wrong-version, oversized, unknown-session or mis-routed
//! datagrams are refused with a typed [`Reject`] instead of reaching (or
//! panicking) a state machine, the outbox is bounded (backpressure instead
//! of unbounded buffering), and per-session traffic statistics come for
//! free.
//!
//! The endpoint also separates *protocol* work from *crypto* work: in
//! deferred mode every expensive verification the hosted state machines
//! would run becomes a [`dkg_poly::CryptoJob`] handed out through
//! [`Endpoint::poll_jobs`] and answered through [`Endpoint::complete_job`],
//! so an [`executor::Executor`] — inline for determinism-sensitive callers,
//! a [`executor::ThreadPoolExecutor`] for multi-core throughput — decides
//! where the O(n²) group operations actually run.
//!
//! * [`endpoint`] — [`Endpoint`], [`SessionKey`], [`Transmit`], [`Event`],
//!   [`Reject`], per-session [`SessionStats`], durable eviction, the
//!   crypto-job interface ([`JobTicket`]). What a state machine must
//!   provide to be hosted is the crate-private `Hosted` trait
//!   (`session.rs`); the endpoint is generic over it.
//! * [`executor`] — [`executor::Executor`], [`executor::InlineExecutor`],
//!   [`executor::ThreadPoolExecutor`] (`DKG_WORKERS`, bounded queue).
//! * [`net`] — [`EndpointNet`], a deterministic datagram network for tests
//!   and experiments: real bytes, chaos links ([`dkg_sim::ChaosModel`]:
//!   asymmetric per-link delays, reordering, healing partitions), crashes,
//!   muted nodes, raw-datagram injection, adversary-controlled nodes
//!   ([`CorruptEndpoint`]) with origin-tagged rejections
//!   ([`DatagramOrigin`]), byte-accurate [`dkg_sim::Metrics`], and
//!   executor-driven job completion with a byte transcript digest.
//! * [`runner`] — endpoint-based harness helpers (the single import path
//!   for examples/tests: [`runner::SystemSetup`],
//!   [`runner::run_key_generation`], [`runner::run_vss`],
//!   [`runner::run_threshold_signing`], …).
//!
//! ## Example
//!
//! ```
//! use dkg_core::runner::SystemSetup;
//! use dkg_engine::runner::run_key_generation;
//! use dkg_sim::DelayModel;
//!
//! // A 4-node DKG, every message travelling as encoded datagrams.
//! let setup = SystemSetup::generate(4, 0, 42);
//! let (outcomes, net) = run_key_generation(&setup, DelayModel::Constant(25), 0);
//! assert_eq!(outcomes.len(), 4);
//! assert!(outcomes.iter().all(|o| o.public_key == outcomes[0].public_key));
//! // Communication complexity, measured on the real encodings:
//! println!("{}", net.metrics().report());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod endpoint;
pub mod executor;
pub mod net;
pub mod persist;
pub mod runner;
mod session;

pub use endpoint::{
    Endpoint, EndpointConfig, EndpointStats, Event, JobTicket, Reject, SessionKey, SessionStats,
    Transmit, WallClock,
};
pub use executor::{Executor, InlineExecutor, JobOutcome, ThreadPoolExecutor};
pub use net::{
    CorruptEndpoint, CorruptSend, DatagramOrigin, EndpointNet, EventRecord, RejectRecord,
};
pub use persist::{
    EndpointSnapshot, PersistStats, RestoreError, SessionSnapshot, SessionStateSnapshot,
    SNAPSHOT_VERSION,
};
