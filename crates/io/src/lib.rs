//! `pt-io` — checkpoint/restart snapshots and run-artifact export.
//!
//! The paper's production regime (~1500-atom hybrid-functional rt-TDDFT,
//! thousands of attosecond steps on a batch machine) only works if a long
//! trajectory can outlive job-time limits and node failures. This crate
//! supplies the persistence layer:
//!
//! * [`format`] — a versioned, CRC-checked, little-endian binary
//!   **snapshot container** (named typed sections, every value stored at
//!   its exact bits). `pt-core` serializes what the next step of a
//!   resumed run reads into it — ψ orbitals, occupations, step/time,
//!   laser parameters, propagator options and the live ACE projector, and
//!   every accumulated `TimeSeries` channel — such that a killed and
//!   resumed trajectory is bit-identical to an uninterrupted one.
//! * [`export`] — columnar [`export::Table`] → JSON / CSV, used by
//!   `TimeSeries` export.
//! * [`json`] — a hand-rolled JSON value ([`Json`]): parser + the crate's
//!   one JSON writer, for job specs, the `pt-serve` wire protocol and
//!   [`Table::to_json`]'s numbers and strings (no serde offline).
//! * [`scan`] — checkpoint-directory listing: every `ckpt_*.ptio` by
//!   step ([`snapshot_files`]); `pt-core` reads them newest first and
//!   resumes from the first that reads.
//!
//! Std-only by design (the build environment is offline; no serde): the
//! byte layout is hand-rolled, documented in `DESIGN.md` ("Snapshot
//! format & resume semantics"), and defended by round-trip, truncation and
//! corruption tests — every malformed input surfaces as a typed
//! [`pt_ham::PtError`], never a panic.

pub mod crc32;
pub mod export;
pub mod format;
pub mod json;
pub mod scan;

pub use export::{Table, Value};
pub use format::{SnapshotFile, SnapshotWriter, FORMAT_VERSION, MAGIC};
pub use json::Json;
pub use scan::snapshot_files;
