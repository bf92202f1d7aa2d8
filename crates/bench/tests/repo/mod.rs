//! What `docs.rs` and `tombstones.rs` both read: the repo, and the rows
//! of the tombstone table.

use std::fs;
use std::path::{Path, PathBuf};

/// The rows, which name what they forbid (the file's head says how).
pub const TABLE: &str = "crates/bench/tests/tombstones.txt";

pub fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

pub fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The table's rows, each `[name, lines, patterns, paths, reason]`.
pub fn rows(table: &str) -> Vec<[&str; 5]> {
    let rows = table.lines().filter(|l| !l.starts_with('#'));
    rows.map(|row| {
        let cells: Vec<&str> = row.split(" | ").collect();
        let bad = |_| panic!("{row}: not name | lines | patterns | paths | reason");
        cells.try_into().unwrap_or_else(bad)
    })
    .collect()
}
