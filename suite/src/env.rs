//! The stack under test: a `GdprStore` on real journal and audit files, and
//! for the TCP workloads an in-process `TcpServer` on the reactor transport.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use audit::sink::{AuditSink, FileSink, SinkStats};
use gdpr_core::acl::Grant;
use gdpr_core::hot_cache::HotCacheConfig;
use gdpr_core::metadata::PersonalMetadata;
use gdpr_core::policy::CompliancePolicy;
use gdpr_core::store::{AccessContext, GdprStore};
use gdpr_server::dispatch::Dispatcher;
use gdpr_server::tcp::{ServerConfig, TcpServer, Transport};
use gdprbench::client::{ClientFactory, InProcessFactory};
use gdprbench::ops::Outcome;
use gdprbench::spec::BenchSpec;
use kvstore::config::StoreConfig;
use kvstore::ttl_wheel::DeadlineIndexKind;

use crate::affinity::SERVER_CPUS;
use crate::gen::{key_name, value, Spec, Workload, KV_ACTOR, KV_PURPOSE};

/// Engine shards of every workload.
pub const SHARDS: usize = 4;
const PASSPHRASE: &[u8] = b"suite-benchmark-passphrase";

/// Counters of the audit sink, readable while the store owns the sink (the
/// store does not expose its sink's `SinkStats`).
#[derive(Debug, Default)]
pub struct SinkCounters {
    lines: AtomicU64,
    bytes: AtomicU64,
    syncs: AtomicU64,
}

impl SinkCounters {
    /// The counters as the sink's own stats type.
    pub fn snapshot(&self) -> SinkStats {
        SinkStats {
            lines: self.lines.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
        }
    }
}

/// A `FileSink` that mirrors its stats into shared [`SinkCounters`].
#[derive(Debug)]
struct CountingSink {
    inner: FileSink,
    counters: Arc<SinkCounters>,
}

impl AuditSink for CountingSink {
    fn write_line(&mut self, line: &str) -> audit::Result<()> {
        self.inner.write_line(line)?;
        self.counters.lines.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes
            .fetch_add(line.len() as u64 + 1, Ordering::Relaxed);
        Ok(())
    }

    fn sync(&mut self) -> audit::Result<()> {
        self.inner.sync()?;
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn stats(&self) -> SinkStats {
        self.inner.stats()
    }
}

/// The workload's compliance preset, unchanged. `eventual` is AOF `everysec`
/// with audit `every_second`; `strict` is AOF `always` with group commit and
/// audit `real_time`. Both encrypt at rest.
pub fn policy_of(workload: Workload) -> CompliancePolicy {
    match workload {
        Workload::KvInprocStrict => CompliancePolicy::strict(),
        _ => CompliancePolicy::eventual(),
    }
}

/// The engine configuration of a workload, journaling under `dir`. Knobs
/// that default from environment variables are pinned so a stray variable
/// cannot change what is measured.
pub fn engine_config(policy: &CompliancePolicy, dir: &Path) -> StoreConfig {
    StoreConfig::with_aof(dir.join("journal.aof"))
        .shards(SHARDS)
        .fsync(policy.journal_fsync)
        .expiry_mode(policy.expiry_mode)
        .deadline_index(DeadlineIndexKind::Wheel)
        .encrypted(PASSPHRASE)
}

/// Start the TCP front-end over `store`. The reactor and its workers inherit
/// the calling thread's affinity mask and priority.
fn start_server(store: &Arc<GdprStore>) -> Result<TcpServer, String> {
    let config = ServerConfig {
        transport: Transport::Reactor,
        // Set explicitly, not left to `available_parallelism`: the same
        // number of workers whether or not the kernel accepted the mask.
        workers: SERVER_CPUS,
        // The suite never idles a connection on purpose, but set-up of a
        // later stack may outlast the 30 s default.
        read_timeout: Duration::from_secs(600),
        ..ServerConfig::default()
    };
    TcpServer::bind(Dispatcher::gdpr(Arc::clone(store)), "127.0.0.1:0", config)
        .map_err(|e| format!("bind server: {e}"))
}

/// Path of the audit trail under `dir`.
pub fn audit_path(dir: &Path) -> PathBuf {
    dir.join("audit.log")
}

/// One open stack.
pub struct Env {
    /// Sizes of the workload it serves.
    pub spec: Spec,
    /// Directory holding the journal segments and the audit trail.
    pub dir: PathBuf,
    /// The compliance store.
    pub store: Arc<GdprStore>,
    /// The TCP front-end (TCP workloads only).
    pub server: Option<TcpServer>,
    /// Audit sink counters.
    pub sink: Arc<SinkCounters>,
}

impl Env {
    /// Open an empty store under a fresh `dir` and, for TCP workloads, start
    /// the server. Every thread the store and the server spawn inherits the
    /// calling thread's affinity mask.
    pub fn open(spec: &Spec, dir: &Path) -> Result<Env, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let policy = policy_of(spec.workload);
        let sink = Arc::new(SinkCounters::default());
        let file = FileSink::open(audit_path(dir)).map_err(|e| format!("audit sink: {e}"))?;
        let mut store = GdprStore::open(
            policy.clone(),
            engine_config(&policy, dir),
            Box::new(CountingSink {
                inner: file,
                counters: Arc::clone(&sink),
            }),
        )
        .map_err(|e| format!("open store: {e}"))?;
        store.set_hot_cache(HotCacheConfig::default());
        store.grant(Grant::new(KV_ACTOR, KV_PURPOSE));
        for (actor, purpose) in BenchSpec::grants() {
            store.grant(Grant::new(actor, purpose));
        }
        let store = Arc::new(store);
        let server = if spec.workload.over_tcp() {
            Some(start_server(&store)?)
        } else {
            None
        };
        Ok(Env {
            spec: spec.clone(),
            dir: dir.to_path_buf(),
            store,
            server,
            sink,
        })
    }

    /// Replace the TCP front-end with a fresh one over the same store (the
    /// way out of the reactor's lost-wake-up stall: the stuck flag lives in
    /// the old server's poller). Returns the new address.
    pub fn restart_server(&mut self) -> Result<std::net::SocketAddr, String> {
        if let Some(old) = self.server.take() {
            old.shutdown();
        }
        let server = start_server(&self.store)?;
        let addr = server.local_addr();
        self.server = Some(server);
        Ok(addr)
    }

    /// The access context of the key-value workloads.
    pub fn kv_ctx() -> AccessContext {
        AccessContext::new(KV_ACTOR, KV_PURPOSE)
    }

    /// The metadata the dispatcher stamps on a plain `SET`: the key doubles
    /// as its subject and the session purpose is whitelisted.
    pub fn kv_meta(key: &str) -> PersonalMetadata {
        PersonalMetadata::new(key).with_purpose(KV_PURPOSE)
    }

    /// Load every record in-process, on the calling thread.
    pub fn load(&self, seed: u64) -> Result<(), String> {
        match self.spec.workload {
            Workload::RightsTcp => {
                let mut client = InProcessFactory::for_load(Arc::clone(&self.store)).connect()?;
                for op in self.spec.rights_load_ops(seed) {
                    if client.apply(&op) != Outcome::Ok(1) {
                        return Err(format!("load failed at {op:?}"));
                    }
                }
            }
            _ => {
                let ctx = Env::kv_ctx();
                for key in 0..self.spec.records {
                    let name = key_name(key);
                    self.store
                        .put(
                            &ctx,
                            &name,
                            value(key, 0, self.spec.value_len),
                            Env::kv_meta(&name),
                        )
                        .map_err(|e| format!("load failed at {name}: {e}"))?;
                }
            }
        }
        Ok(())
    }

    /// Stop the server, close the store and remove the files.
    pub fn close(self) -> Result<(), String> {
        let dir = self.dir.clone();
        self.close_keep_files()?;
        let _ = std::fs::remove_dir_all(dir);
        Ok(())
    }

    /// Stop the server and close the store, leaving journal and audit files
    /// in place for a reopen. Fails if something still holds the store: a
    /// reopen would then race the old instance's files.
    pub fn close_keep_files(self) -> Result<(), String> {
        if let Some(server) = self.server {
            server.shutdown();
        }
        Arc::try_unwrap(self.store)
            .map(drop)
            .map_err(|_| "the store is still shared at close".to_string())
    }
}
