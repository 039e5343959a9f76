//! Support library for the benchmark harness.
//!
//! `crates/bench` keeps what no other harness covers. Three bench targets
//! time the engine's components and decisions, assert their
//! engine-identity invariants, and publish one artifact each:
//! `micro_components` (`BENCH_baseline.json`), `fig6_lookahead`
//! (`BENCH_lookahead.json`) and `fig_recurring` (`BENCH_recurring.json`).
//! The `bench_check` binary gates those artifacts, and the `repro` binary
//! regenerates the paper's figures and tables. End-to-end service
//! measurements live in `perfbench/`.
//!
//! Artifacts are [`Value`] documents written by [`write_artifact`] into
//! [`artifact_dir`]: the workspace root, or the directory named by the
//! `LYNCEUS_BENCH_OUT` environment variable. `bench_check` reads the same
//! directory by default.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lynceus_serve::json::Value;
use std::path::PathBuf;

/// The directory bench artifacts are written to and checked in:
/// `LYNCEUS_BENCH_OUT` when set, otherwise the workspace root.
#[must_use]
pub fn artifact_dir() -> PathBuf {
    std::env::var_os("LYNCEUS_BENCH_OUT").map_or_else(
        || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")),
        PathBuf::from,
    )
}

/// Writes `artifact` to `file_name` in [`artifact_dir`]. A failed write
/// ends the process with a non-zero status, so a bench that could not
/// publish never leaves a stale artifact to pass for a fresh one.
pub fn write_artifact(file_name: &str, artifact: &Value) {
    let path = artifact_dir().join(file_name);
    match std::fs::write(&path, artifact.to_json() + "\n") {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// A JSON object from `(key, value)` pairs, in order.
#[must_use]
pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}
