//! [`ycsb::client::KvInterface`] adapters for the Figure 1 configurations.
//!
//! * [`GdprAdapter`] — the full compliance layer (metadata, ACL, audit);
//! * [`RemoteAdapter`] — the simulated network path with the optional
//!   TLS-style channel, in front of the raw engine (Figure 1's
//!   "unmodified", AOF and "LUKS + TLS" configurations).

use std::collections::BTreeMap;

use gdpr_core::acl::Grant;
use gdpr_core::metadata::PersonalMetadata;
use gdpr_core::store::{AccessContext, GdprStore};
use netsim::client::RemoteClient;
use ycsb::client::KvInterface;
use ycsb::{Result, WorkloadError};

pub use netsim::client::{decode_fields, encode_fields};

// ---------------------------------------------------------------------------

/// YCSB against the full GDPR compliance layer.
#[derive(Debug)]
pub struct GdprAdapter {
    store: GdprStore,
    ctx: AccessContext,
    subject_of_key: fn(&str) -> String,
}

impl GdprAdapter {
    /// Wrap a compliance store; installs a grant so the benchmark actor is
    /// allowed to operate, and derives the data subject from the key (every
    /// YCSB record key doubles as its subject id).
    ///
    /// # Panics
    ///
    /// When the store cannot commit the grant's audit record.
    #[must_use]
    pub fn new(store: GdprStore) -> Self {
        let ctx = AccessContext::new("ycsb-driver", "benchmarking");
        store
            .grant(Grant::new("ycsb-driver", "benchmarking"))
            .expect("the benchmark grant is recorded");
        GdprAdapter {
            store,
            ctx,
            subject_of_key: |key| key.to_string(),
        }
    }

    /// The wrapped compliance store.
    #[must_use]
    pub fn store(&self) -> &GdprStore {
        &self.store
    }

    fn metadata_for(&self, key: &str) -> PersonalMetadata {
        PersonalMetadata::new(&(self.subject_of_key)(key)).with_purpose("benchmarking")
    }
}

impl KvInterface for GdprAdapter {
    fn insert(&mut self, key: &str, fields: &BTreeMap<String, Vec<u8>>) -> Result<()> {
        self.store
            .put_record(&self.ctx, key, fields, self.metadata_for(key))
            .map_err(WorkloadError::new)
    }

    fn read(&mut self, key: &str) -> Result<Option<BTreeMap<String, Vec<u8>>>> {
        self.store
            .get_record(&self.ctx, key)
            .map_err(WorkloadError::new)
    }

    fn update(&mut self, key: &str, fields: &BTreeMap<String, Vec<u8>>) -> Result<()> {
        self.store
            .update_record(&self.ctx, key, fields)
            .map_err(WorkloadError::new)
    }

    fn scan(&mut self, start_key: &str, count: usize) -> Result<Vec<String>> {
        self.store
            .scan(&self.ctx, start_key, count)
            .map_err(WorkloadError::new)
    }

    fn tick(&mut self) -> Result<()> {
        self.store.tick().map(|_| ()).map_err(WorkloadError::new)
    }
}

// ---------------------------------------------------------------------------

/// YCSB through the simulated network path (optionally TLS-encrypted).
#[derive(Debug)]
pub struct RemoteAdapter {
    client: RemoteClient,
}

impl RemoteAdapter {
    /// Wrap a connected client.
    #[must_use]
    pub fn new(client: RemoteClient) -> Self {
        RemoteAdapter { client }
    }

    /// The wrapped client (for link statistics).
    #[must_use]
    pub fn client(&self) -> &RemoteClient {
        &self.client
    }
}

impl KvInterface for RemoteAdapter {
    fn insert(&mut self, key: &str, fields: &BTreeMap<String, Vec<u8>>) -> Result<()> {
        self.client
            .set(key, &encode_fields(fields))
            .map_err(WorkloadError::new)
    }

    fn read(&mut self, key: &str) -> Result<Option<BTreeMap<String, Vec<u8>>>> {
        match self.client.get(key).map_err(WorkloadError::new)? {
            Some(bytes) => Ok(decode_fields(&bytes)),
            None => Ok(None),
        }
    }

    fn update(&mut self, key: &str, fields: &BTreeMap<String, Vec<u8>>) -> Result<()> {
        // A faithful reproduction of the read-merge-write the single-blob
        // encoding forces on the client side.
        let mut merged = self.read(key)?.unwrap_or_default();
        for (f, v) in fields {
            merged.insert(f.clone(), v.clone());
        }
        self.client
            .set(key, &encode_fields(&merged))
            .map_err(WorkloadError::new)
    }

    fn scan(&mut self, start_key: &str, count: usize) -> Result<Vec<String>> {
        self.client
            .scan(start_key, count)
            .map_err(WorkloadError::new)
    }

    fn tick(&mut self) -> Result<()> {
        self.client
            .server()
            .store()
            .tick()
            .map(|_| ())
            .map_err(WorkloadError::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdpr_core::policy::CompliancePolicy;
    use kvstore::config::StoreConfig;
    use kvstore::store::KvStore;
    use netsim::link::LinkConfig;
    use netsim::server::RespKvServer;
    use ycsb::client::Driver;
    use ycsb::workload::WorkloadSpec;

    fn fields() -> BTreeMap<String, Vec<u8>> {
        let mut f = BTreeMap::new();
        f.insert("field0".to_string(), b"v0".to_vec());
        f.insert("field1".to_string(), b"v1".to_vec());
        f
    }

    #[test]
    fn field_blob_roundtrip() {
        let f = fields();
        assert_eq!(decode_fields(&encode_fields(&f)).unwrap(), f);
        assert!(decode_fields(b"garbage").is_none());
    }

    #[test]
    fn gdpr_adapter_runs_a_small_workload() {
        let store = GdprStore::open_in_memory(CompliancePolicy::eventual()).unwrap();
        let mut adapter = GdprAdapter::new(store);
        let mut driver = Driver::new(WorkloadSpec::workload_a(50, 100), 11);
        let load = driver.run_load(&mut adapter).unwrap();
        assert_eq!(load.errors, 0);
        let run = driver.run_transactions(&mut adapter).unwrap();
        assert_eq!(run.errors, 0);
        assert!(adapter.store().stats().allowed_ops > 0);
    }

    #[test]
    fn remote_adapter_runs_a_small_workload_over_tls_sim() {
        let server = RespKvServer::new(KvStore::open(StoreConfig::in_memory()).unwrap());
        let client =
            RemoteClient::connect_secure(server, LinkConfig::tls_proxied_4_9gbps(), b"bench");
        let mut adapter = RemoteAdapter::new(client);
        let mut driver = Driver::new(WorkloadSpec::workload_b(30, 60), 13);
        assert_eq!(driver.run_load(&mut adapter).unwrap().errors, 0);
        assert_eq!(driver.run_transactions(&mut adapter).unwrap().errors, 0);
        assert!(adapter.client().requests() > 0);
    }
}
