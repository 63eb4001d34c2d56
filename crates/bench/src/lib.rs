//! # dkg-bench
//!
//! The experiment harness reproducing every quantitative claim of
//! *Distributed Key Generation for the Internet* (see DESIGN.md §4 and
//! EXPERIMENTS.md). Each `eN_*` function runs the corresponding experiment
//! on endpoints over the deterministic `dkg_engine::EndpointNet` — real
//! encoded datagrams — and returns a formatted table whose rows mirror the
//! complexity expressions stated in the paper; the `experiments` binary
//! prints them, and the Criterion benches in `benches/` time the
//! underlying primitives and subsystems.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;

pub use experiments::*;
pub use table::Table;
