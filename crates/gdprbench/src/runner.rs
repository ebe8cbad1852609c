//! The driver: one connection, ops applied in order.
//!
//! [`drive`] returns the per-op [`Outcome`] vector in op order, which is
//! what the differential batteries compare across transports and shard
//! counts.

use crate::client::ClientFactory;
use crate::ops::{GdprOp, Outcome};

/// Apply `ops` in order over one connection from `factory` and return
/// each op's [`Outcome`], index for index.
///
/// # Errors
///
/// Propagates the factory's connection failure.
pub fn drive(ops: &[GdprOp], factory: &dyn ClientFactory) -> Result<Vec<Outcome>, String> {
    let mut client = factory.connect()?;
    Ok(ops.iter().map(|op| client.apply(op)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::GdprBenchClient;
    use crate::ops::load_ops;
    use crate::spec::{BenchSpec, Role};

    #[test]
    fn factory_connect_failure_propagates() {
        struct Refuses;
        impl ClientFactory for Refuses {
            fn connect(&self) -> Result<Box<dyn GdprBenchClient + Send>, String> {
                Err("nope".into())
            }
        }
        let spec = BenchSpec::new(Role::Processor, 2, 2, 10);
        let err = drive(&load_ops(&spec), &Refuses).unwrap_err();
        assert!(err.contains("nope"));
    }
}
