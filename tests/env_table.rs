//! The table of `PVFS_*` variables (`pvfs::types::env::VARS`) against
//! the parsers that live with the types they produce, and README's
//! table rendered from it.

use pvfs::disk::{StorageConfig, SyncPolicy};
use pvfs::net::{FaultPlan, RetryPolicy, TransportKind};
use pvfs::replica::parse_replicas;
use pvfs::types::env::{Var, VARS};
use pvfs::types::TraceMode;

/// Whether the parser of variable `name` takes `value`. A variable
/// without an arm here has no parser the table can be held to: add one.
fn accepted(name: &str, value: &str) -> bool {
    match name {
        "PVFS_TRANSPORT" => TransportKind::parse(value).is_some(),
        "PVFS_FAULTS" => FaultPlan::parse(value).is_ok(),
        "PVFS_RETRY" => RetryPolicy::parse(value).is_ok(),
        "PVFS_STORAGE" => StorageConfig::parse(value, SyncPolicy::Never).is_ok(),
        "PVFS_SYNC" => SyncPolicy::parse(value).is_ok(),
        "PVFS_STATS" => pvfs::net::live::parse_stats(value).is_ok(),
        "PVFS_TRACE" => TraceMode::parse(value).is_ok(),
        "PVFS_REPLICAS" => parse_replicas(value, 8).is_ok(),
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

/// README's row of `var`: name, values, default and meaning.
fn readme_row(var: &Var) -> String {
    let default = match var.default {
        unset if unset.starts_with("unset") => unset.to_string(),
        value => format!("`{value}`"),
    };
    let values = var.grammar.replace('|', "\\|");
    format!(
        "| `{}` | `{values}` | {default} | {} |",
        var.name, var.meaning
    )
}

#[test]
fn readme_lists_exactly_the_tables_variables_in_its_order() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md sits beside Cargo.toml");
    let listed: Vec<&str> = readme
        .lines()
        .filter(|line| line.starts_with("| `PVFS_"))
        .collect();
    let table: Vec<String> = VARS.iter().map(readme_row).collect();
    assert_eq!(listed, table);
}
