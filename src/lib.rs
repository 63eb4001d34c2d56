//! # dkg — Kate & Goldberg's hybrid DKG, reproduced in Rust
//!
//! Meta-crate over the workspace reproducing *Distributed Key Generation for
//! the Internet* (Kate & Goldberg, ICDCS 2009). Each layer is its own crate;
//! this crate re-exports them under one roof and hosts the cross-crate
//! integration tests (`tests/`) and runnable walkthroughs (`examples/`).
//!
//! Layering (each crate depends only on the ones above it):
//!
//! 1. [`arith`] — fixed-width big integers, secp256k1 fields and group,
//!    Pippenger multi-exponentiation, fixed-base tables, op counters.
//! 2. [`crypto`] — SHA-256, Schnorr signatures, Merkle digests, keyring.
//! 3. [`poly`] — univariate/bivariate polynomials, Feldman commitments and
//!    the batched commitment-verification engine (Fiat–Shamir coefficients
//!    via [`crypto`]).
//! 4. [`wire`] — the canonical, versioned, length-delimited binary codec
//!    (`WireEncode`/`WireDecode`) every protocol message travels through.
//! 5. [`sim`] — the paper's node model (`Protocol`: state machines fed
//!    operator, network and timer messages), link delay / chaos models and
//!    message/byte metrics; drives nothing itself (see [`engine`]).
//! 6. [`vss`] — HybridVSS (§3, Fig. 1).
//! 7. [`core`] — the hybrid DKG (§4, Figs. 2–3), proactive refresh (§5) and
//!    group modification (§6).
//! 8. [`store`] — durable session state for the paper's crash-recovery
//!    model: a CRC-framed append-only write-ahead log plus versioned
//!    snapshots, with in-memory and on-disk stores.
//! 9. [`engine`] — the sans-I/O poll-based `Endpoint` multiplexing many
//!    DKG/VSS sessions over encoded byte datagrams (persisting to a
//!    [`store`] when configured), plus the byte-level deterministic
//!    network driver with real crash/restore semantics.
//! 10. [`net`] — the real-socket deployment of that endpoint: UDP framing
//!     with retransmission (restoring the §2.1 eventual-delivery
//!     assumption over a lossy wire), a per-node event loop
//!     (`NodeDriver`), and the coordinator-free process-per-node harness
//!     behind `examples/socket_dkg.rs`.
//! 11. `dkg-adversary` — the active Byzantine adversary: seeded attack
//!     strategies (equivocation, wrong shares, vote withholding, replay,
//!     certificate forgery) driving corrupted nodes over the byte-level
//!     network, plus the scenario matrix asserting the paper's `t < n/3`
//!     bound from both sides. A dev-dependency on purpose: it enables the
//!     `malice` secret-extraction hooks, which must not reach downstream
//!     consumers of this library.
//! 12. [`baselines`] — Feldman VSS / Joint-Feldman DKG comparators and
//!     closed-form complexity models.
//! 13. [`mod@bench`] — the experiment harness reproducing the paper's
//!     tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dkg_arith as arith;
pub use dkg_baselines as baselines;
pub use dkg_bench as bench;
pub use dkg_core as core;
pub use dkg_crypto as crypto;
pub use dkg_engine as engine;
/// The canonical harness: system construction plus byte-level protocol
/// drivers (`SystemSetup`, `run_key_generation`, `run_vss`,
/// `run_initial_phase`, `run_renewal_phase`, executor variants).
pub use dkg_engine::runner;
pub use dkg_net as net;
pub use dkg_poly as poly;
pub use dkg_sim as sim;
pub use dkg_store as store;
pub use dkg_vss as vss;
pub use dkg_wire as wire;

/// The byte-level wire-format specification (`docs/WIRE.md`), included
/// here so its worked hex example runs as a doctest and cannot drift
/// from the real codec.
#[doc = include_str!("../docs/WIRE.md")]
pub mod wire_spec {}
