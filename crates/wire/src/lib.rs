//! # dkg-wire
//!
//! The canonical, versioned, length-delimited binary wire codec for the
//! hybrid DKG reproduction of *Distributed Key Generation for the Internet*
//! (Kate & Goldberg, ICDCS 2009).
//!
//! The paper states its efficiency results in *bits transferred*; this crate
//! is what makes those numbers real. Every protocol message implements
//! [`WireEncode`]/[`WireDecode`] (the message enums themselves do so in
//! `dkg-vss` and `dkg-core`, next to their definitions), `encode → decode`
//! is lossless, and the byte accounting of every experiment is the length
//! of the datagrams the network driver carries — measured, not estimated.
//!
//! Decoding is hardened for untrusted input: every failure path returns a
//! typed [`WireError`] (truncation, bit flips, wrong version, oversized
//! length prefixes, off-curve points, non-canonical scalars) and never
//! panics or over-allocates.
//!
//! * [`codec`] — the [`WireEncode`]/[`WireDecode`] traits, the bounds-checked
//!   [`Reader`], the [`WireWrite`] sink (with a counting sink so
//!   `encoded_len()` is exact and allocation-free).
//! * [`primitives`] — codecs for scalars, group elements, signatures,
//!   digests, polynomials and Feldman commitments.
//! * [`frame`] — the versioned datagram framing (`version | protocol |
//!   channel | length | payload`) used by `dkg-engine`'s endpoints.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod codec;
pub mod error;
pub mod frame;
pub mod primitives;

pub use codec::{
    decode_exact, LenCounter, Reader, WireDecode, WireEncode, WireWrite, MAX_COMMITMENT_DIM,
    MAX_SEQUENCE_LEN,
};
pub use error::WireError;
pub use frame::{
    decode_datagram, decode_datagram_versioned, encode_datagram, encode_datagram_versioned, Header,
    ProtocolId, HEADER_LEN, MAX_KNOWN_VERSION, VERSION,
};
