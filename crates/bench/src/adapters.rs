//! The [`ycsb::client::KvInterface`] adapter every Figure 1 column is
//! driven through: YCSB over one RESP connection to a `TcpServer`, direct
//! or through the sealed [`Tunnel`].
//!
//! A YCSB record travels as one opaque `SET` value: [`encode_fields`]
//! packs its field map into that blob and [`decode_fields`] unpacks it.

use std::collections::BTreeMap;

use gdpr_server::client::TcpRemoteClient;
use kvstore::object::Value;
use kvstore::serialize::{decode_value, encode_value, Reader};
use ycsb::client::KvInterface;
use ycsb::{Result, WorkloadError};

use crate::tunnel::Tunnel;

/// Serialize a YCSB field map into the single opaque blob that travels as
/// a `SET` value.
#[must_use]
pub fn encode_fields(fields: &BTreeMap<String, Vec<u8>>) -> Vec<u8> {
    let mut out = Vec::new();
    encode_value(&mut out, &Value::Hash(fields.clone()));
    out
}

/// Decode a blob produced by [`encode_fields`].
#[must_use]
pub fn decode_fields(bytes: &[u8]) -> Option<BTreeMap<String, Vec<u8>>> {
    let mut reader = Reader::new(bytes);
    match decode_value(&mut reader, "ycsb record").ok()? {
        Value::Hash(map) => Some(map),
        _ => None,
    }
}

/// YCSB over the wire.
#[derive(Debug)]
pub struct WireAdapter {
    client: TcpRemoteClient,
    /// The tunnel the client talks through, if any; dropping it hangs up
    /// and joins its relays.
    _tunnel: Option<Tunnel>,
}

impl WireAdapter {
    /// Drive `client`, which talks through `tunnel` when one is given.
    #[must_use]
    pub fn new(client: TcpRemoteClient, tunnel: Option<Tunnel>) -> Self {
        WireAdapter {
            client,
            _tunnel: tunnel,
        }
    }
}

impl KvInterface for WireAdapter {
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
        // The read-merge-write the single-blob encoding forces on the
        // client side.
        let mut merged = self.read(key)?.unwrap_or_default();
        for (f, v) in fields {
            merged.insert(f.clone(), v.clone());
        }
        self.insert(key, &merged)
    }

    fn scan(&mut self, start_key: &str, count: usize) -> Result<Vec<String>> {
        self.client
            .scan(start_key, count)
            .map_err(WorkloadError::new)
    }

    fn tick(&mut self) -> Result<()> {
        self.client.tick().map(|_| ()).map_err(WorkloadError::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::connect;
    use crate::fig1::Fig1Config;
    use crate::server::serve;
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

    /// Load and run `spec` on `config`'s server; returns the requests the
    /// server answered.
    fn run_small_workload(config: Fig1Config, spec: WorkloadSpec) -> u64 {
        let dir = crate::scratch_dir(&format!("adapter-{}", config.label()));
        let server = serve(config, &dir);
        let mut adapter = connect(config, server.local_addr());
        let mut driver = Driver::new(spec, 11);
        assert_eq!(driver.run_load(&mut adapter).unwrap().errors, 0);
        assert_eq!(driver.run_transactions(&mut adapter).unwrap().errors, 0);
        drop(adapter);
        let requests = server.dispatcher().stats().requests;
        server.shutdown();
        crate::cleanup_scratch(&dir);
        requests
    }

    #[test]
    fn gdpr_adapter_runs_a_small_workload() {
        // The strict column: GDPR.AUTH on connect, then every op through
        // the compliance layer.
        let requests =
            run_small_workload(Fig1Config::StrictGdpr, WorkloadSpec::workload_a(50, 100));
        assert!(requests > 150, "{requests}");
    }

    #[test]
    fn remote_adapter_runs_a_small_workload_over_tls_sim() {
        let requests = run_small_workload(Fig1Config::LuksTls, WorkloadSpec::workload_b(30, 60));
        assert!(requests > 90, "{requests}");
    }
}
