//! The table of `PVFS_*` variables (`pvfs::types::env::VARS`) against
//! the parsers that live with the types they produce, and against
//! README's table.

use pvfs::collective::config::parse_aggregators;
use pvfs::disk::{StorageConfig, SyncPolicy};
use pvfs::net::{FaultPlan, RetryPolicy, TransportKind};
use pvfs::replica::{parse_quorum, parse_replicas};
use pvfs::types::env::VARS;
use pvfs::types::TraceMode;

/// Whether the parser of variable `name` takes `value`. A variable
/// without an arm here has no parser the table can be held to: add one.
fn accepted(name: &str, value: &str) -> bool {
    match name {
        "PVFS_TRANSPORT" => TransportKind::parse(value).is_some(),
        "PVFS_FAULTS" => FaultPlan::parse(value).is_ok(),
        "PVFS_RETRY" => RetryPolicy::parse(value).is_ok(),
        "PVFS_AGGREGATORS" => parse_aggregators(value).is_ok(),
        "PVFS_STORAGE" => StorageConfig::parse(value, SyncPolicy::Never).is_ok(),
        "PVFS_SYNC" => SyncPolicy::parse(value).is_ok(),
        "PVFS_STATS" => pvfs::net::live::parse_stats(value).is_ok(),
        "PVFS_TRACE" => TraceMode::parse(value).is_ok(),
        "PVFS_REPLICAS" => parse_replicas(value, 8).is_ok(),
        "PVFS_WRITE_QUORUM" => parse_quorum(value).is_ok(),
        other => panic!("{other} is in the table and has no parser here"),
    }
}

#[test]
fn every_variable_rejects_its_malformed_value_and_takes_its_default() {
    for var in &VARS {
        assert!(
            !accepted(var.name, var.malformed),
            "{}={:?} must be rejected",
            var.name,
            var.malformed
        );
        // A default that is a value (not a description of "unset") is
        // one the parser takes.
        if !var.default.starts_with("unset") {
            assert!(
                accepted(var.name, var.default),
                "{}={:?} is the documented default",
                var.name,
                var.default
            );
        }
    }
}

#[test]
fn readme_lists_exactly_the_tables_variables_in_its_order() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md sits beside Cargo.toml");
    let listed: Vec<&str> = readme
        .lines()
        .filter_map(|line| line.strip_prefix("| `PVFS_"))
        .filter_map(|rest| rest.split('`').next())
        .collect();
    let table: Vec<&str> = VARS
        .iter()
        .map(|var| var.name.trim_start_matches("PVFS_"))
        .collect();
    assert_eq!(listed, table);
}
