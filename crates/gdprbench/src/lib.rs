//! GDPRbench for the reproduction: the four-role workload suite from
//! *Understanding and Benchmarking the Impact of GDPR on Database Systems*
//! (Shastri et al.), rebuilt on this repository's compliance layer.
//!
//! YCSB (in `crates/ycsb`) measures the data path — reads, updates, scans —
//! and never touches the rights paths that make a GDPR store different
//! from a plain KV store. GDPRbench models the four parties the regulation
//! names and stresses exactly those metadata-heavy paths:
//!
//! * **customer** — a data subject exercising their rights over their own
//!   data: `GDPR.KEYSOF`, `GDPR.EXPORT` (Art. 20), `GDPR.GETMETA`,
//!   `GDPR.OBJECT` (Art. 21) and the occasional `GDPR.ERASE` (Art. 17);
//! * **controller** — the operator curating metadata: purpose re-stamps
//!   via `GDPR.SETMETA`, metadata reads, fresh `GDPR.PUT`s;
//! * **processor** — the data-plane consumer reading values under purpose
//!   checks (plain `GET` on the compliance engine), the path where
//!   purpose-limitation denials actually happen;
//! * **regulator** — the supervisory authority auditing holdings:
//!   subject-key fan-outs, metadata inspections, portability exports and
//!   compliance-counter queries (`GDPR.STATS`).
//!
//! The suite is **deterministic by construction**: [`spec::BenchSpec`]
//! expands to a flat, seeded op stream ([`ops::GdprOp`]) *before* any
//! store is involved, so the same seed + config produces a byte-identical
//! workload no matter how many shards route it or which transport carries
//! it. That is what makes the cross-transport differential battery
//! possible: the in-process path and live TCP (at one and at three event
//! loops) run the *same* ops and must produce the same per-op
//! [`ops::Outcome`] stream and the same final `DIGEST`.
//!
//! Layout:
//!
//! * [`spec`] — roles, op mixes and the workload specification;
//! * [`ops`] — the op/outcome model and the seeded generator;
//! * [`client`] — the transport abstraction (in-process [`GdprStore`],
//!   live TCP) with uniform outcome classification;
//! * [`runner`] — [`drive`], which applies an op stream over one
//!   connection and returns the per-op outcomes.
//!
//! [`GdprStore`]: gdpr_core::store::GdprStore

pub mod client;
pub mod ops;
pub mod runner;
pub mod spec;

pub use client::{ClientFactory, GdprBenchClient, InProcessFactory, TcpFactory};
pub use ops::{GdprOp, Outcome};
pub use runner::drive;
pub use spec::{BenchSpec, Role};
