//! Umbrella crate for the GDPR-compliant storage workspace.
//!
//! This crate only re-exports the workspace members so that the
//! top-level `examples/` and `tests/` directories can exercise the whole
//! system through a single dependency. The real functionality lives in:
//!
//! * [`gdpr_core`] — the GDPR compliance layer (the paper's contribution)
//! * [`kvstore`] — the Redis-like storage engine substrate
//! * [`gdpr_server`] — the real RESP-over-TCP server and remote client
//! * [`ycsb`] — the YCSB-style workload generator for the data path
//! * [`gdprbench`] — the GDPRbench-style four-role workload suite for the
//!   rights/metadata paths
//! * [`audit`], [`gdpr_crypto`], [`resp`] — supporting substrates
//!
//! The paper reproductions (`crates/bench`) are a dev-dependency: the
//! tests drive Figure 1's sealed tunnel through them.

pub use audit;
pub use gdpr_core;
pub use gdpr_crypto;
pub use gdpr_server;
pub use gdprbench;
pub use kvstore;
pub use resp;
pub use ycsb;
