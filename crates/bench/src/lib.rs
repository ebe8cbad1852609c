//! The paper reproductions: Figure 1's servers, its clients, its sealed
//! tunnel and the wire adapter the YCSB driver runs through, and the
//! experiment runners behind the `fig1_throughput` and `fig2_erasure`
//! binaries.
//!
//! Each measured artefact of the paper maps to one binary in `src/bin/`:
//! `fig1_throughput` (Figure 1), `fig2_erasure` (Figure 2) and
//! `table1_matrix` (Table 1).

pub mod adapters;
mod client;
pub mod fig1;
pub mod fig2;
mod secure;
mod server;
pub mod tunnel;

use std::path::PathBuf;

/// A scratch directory for benchmark artefacts (AOF files, audit trails).
/// Created under the system temp dir and namespaced by process id so
/// concurrent runs do not collide.
#[must_use]
pub fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdpr-bench-{}-{label}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Remove a scratch directory, ignoring errors (best-effort cleanup).
pub fn cleanup_scratch(dir: &std::path::Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Check the `key=value` arguments of a paper binary: every key must be
/// one of `known` and every value an unsigned integer. The error names the
/// first argument that is not, as `bad argument "key=value": why`.
///
/// # Errors
///
/// Returns the message for the first refused argument.
pub fn check_args(args: &[String], known: &[&str]) -> Result<(), String> {
    for arg in args {
        let why = match arg.split_once('=') {
            Some((key, _)) if !known.contains(&key) => "unknown key",
            None => "not key=value",
            Some((_, value)) if value.parse::<u64>().is_err() => "want an unsigned integer",
            Some(_) => continue,
        };
        let takes = if known.is_empty() {
            "takes no arguments".to_string()
        } else {
            format!("takes {}", known.join(", "))
        };
        return Err(format!("bad argument {arg:?}: {why} ({takes})"));
    }
    Ok(())
}

/// The running binary's arguments once [`check_args`] accepts them. A
/// refused argument is printed on stderr and the process exits with
/// status 2, so a typo such as `record=100` never runs the defaults.
#[must_use]
pub fn args_or_exit(known: &[&str]) -> Vec<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(message) = check_args(&args, known) {
        eprintln!("{message}");
        std::process::exit(2);
    }
    args
}

/// The value of a `key=value` override (e.g. `records=100000`), if given.
#[must_use]
pub fn arg_value(args: &[String], key: &str) -> Option<u64> {
    args.iter().find_map(|a| {
        a.strip_prefix(&format!("{key}="))
            .and_then(|v| v.parse::<u64>().ok())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dir_is_created_and_cleaned() {
        let dir = scratch_dir("unit");
        assert!(dir.exists());
        cleanup_scratch(&dir);
        assert!(!dir.exists());
    }

    #[test]
    fn arg_value_parses_overrides() {
        let known = ["records", "ops", "missing"];
        let args: Vec<String> = vec!["records=1000".into(), "ops=5".into()];
        assert_eq!(check_args(&args, &known), Ok(()));
        assert_eq!(arg_value(&args, "records"), Some(1000));
        assert_eq!(arg_value(&args, "ops"), Some(5));
        assert_eq!(arg_value(&args, "missing"), None);
        // A bare word, an unknown key, a mistyped key and an unparseable
        // value are each refused by name.
        for bad in ["junk", "bad=x", "record=100", "ops=x"] {
            let mut with_bad = args.clone();
            with_bad.push(bad.to_string());
            let err = check_args(&with_bad, &known).unwrap_err();
            assert!(err.starts_with(&format!("bad argument {bad:?}")), "{err}");
        }
        // A binary that takes no arguments refuses any.
        assert!(check_args(&args, &[])
            .unwrap_err()
            .contains("takes no arguments"));
        assert_eq!(check_args(&[], &[]), Ok(()));
    }
}
