//! The one reader of the process environment.
//!
//! Every knob of the program is a `PVFS_*` environment variable, and
//! this module is the only place that reads one: the table of all of
//! them ([`VARS`] — name, grammar, default, meaning), the lookup
//! ([`lookup`]) and the parse-or-panic lookup most of them go through
//! ([`parsed`]). The typed parsers stay with the types they produce, in
//! their own crates; each hands its parser to [`parsed`], or calls
//! [`lookup`] and returns its own `PvfsError::Config`.
//!
//! A configuration that is not the one asked for must not run: a
//! malformed *value* is rejected by the variable's parser, and a
//! misspelt *name* — `PVFS_TRANSPROT=tcp` would otherwise run the default
//! transport and pass — by the first lookup of any variable, which fails
//! if the environment holds a `PVFS_*` name the table does not.

use std::sync::OnceLock;

/// One `PVFS_*` variable.
#[derive(Debug)]
pub struct Var {
    /// The variable's name.
    pub name: &'static str,
    /// The values it takes.
    pub grammar: &'static str,
    /// What an unset variable means.
    pub default: &'static str,
    /// What it does, in a line.
    pub meaning: &'static str,
    /// A value its parser rejects (the table's test holds each parser to
    /// it).
    pub malformed: &'static str,
}

/// Every variable the program reads, in the order README's table lists
/// them.
pub const VARS: [Var; 10] = [
    Var {
        name: "PVFS_TRANSPORT",
        grammar: "chan|tcp",
        default: "chan",
        meaning: "client↔daemon transport: in-process channels or real loopback sockets",
        malformed: "udp",
    },
    Var {
        name: "PVFS_FAULTS",
        grammar: "drop:P,delay[:Nms],disconnect:P,corrupt:P,wedge:P[,seed=N,target=S,limit=N]",
        default: "unset (no faults)",
        meaning: "seeded fault injection wrapping either transport, probabilities per frame",
        malformed: "drop:often",
    },
    Var {
        name: "PVFS_RETRY",
        grammar: "off|attempts=N,base=D,cap=D,budget=D",
        default: "attempts=4,base=1ms,cap=100ms,budget=30s",
        meaning: "client retry policy: bounded attempts, jittered backoff, per-op budget",
        malformed: "atempts=3",
    },
    Var {
        name: "PVFS_AGGREGATORS",
        grammar: "positive integer",
        default: "unset (one per I/O daemon)",
        meaning: "collective aggregator count (the ROMIO cb_nodes hint)",
        malformed: "0",
    },
    Var {
        name: "PVFS_STORAGE",
        grammar: "mem|file:<dir>",
        default: "mem",
        meaning: "daemon storage backend: in-memory stores or data file + journal per handle",
        malformed: "disk",
    },
    Var {
        name: "PVFS_SYNC",
        grammar: "never|interval:<ms>|always",
        default: "interval:100",
        meaning: "journal fsync policy of the file backend",
        malformed: "sometimes",
    },
    Var {
        name: "PVFS_STATS",
        grammar: "dump",
        default: "unset (nothing printed)",
        meaning: "one JSON stats line per daemon on stderr when a LiveCluster tears down",
        malformed: "dumpp",
    },
    Var {
        name: "PVFS_TRACE",
        grammar: "off|all|slow:<ms>|sample:<1/n>",
        default: "off",
        meaning: "distributed request tracing: which operations are traced and retained",
        malformed: "slow:soon",
    },
    Var {
        name: "PVFS_REPLICAS",
        grammar: "1..=255, at most the daemon count",
        default: "1",
        meaning: "r-way stripe mirroring",
        malformed: "0",
    },
    Var {
        name: "PVFS_WRITE_QUORUM",
        grammar: "all|majority",
        default: "all",
        meaning: "acks a replicated write needs before it succeeds",
        malformed: "most",
    },
];

/// The prefix that makes an environment variable this program's.
const PREFIX: &str = "PVFS_";

/// `Err` naming the first of `names` that starts with `PVFS_` and is not
/// in the table, and the names that are.
fn check_names(names: impl IntoIterator<Item = String>) -> Result<(), String> {
    let stranger = names
        .into_iter()
        .find(|name| name.starts_with(PREFIX) && VARS.iter().all(|var| var.name != name));
    match stranger {
        None => Ok(()),
        Some(name) => {
            let known: Vec<&str> = VARS.iter().map(|var| var.name).collect();
            Err(format!(
                "environment variable {name} is not one this program reads (a typo?); \
                 the PVFS_* variables are: {}",
                known.join(", ")
            ))
        }
    }
}

/// The value of `name` — one of [`VARS`] — or `None` when it is unset.
///
/// # Panics
///
/// When the environment holds a `PVFS_*` variable that is not in the
/// table (checked once, at the first lookup of any variable).
pub fn lookup(name: &str) -> Option<String> {
    static NAMES: OnceLock<Result<(), String>> = OnceLock::new();
    let checked = NAMES.get_or_init(|| {
        check_names(std::env::vars_os().map(|(name, _)| name.to_string_lossy().into_owned()))
    });
    if let Err(stranger) = checked {
        panic!("{stranger}");
    }
    debug_assert!(
        VARS.iter().any(|var| var.name == name),
        "{name} is missing from pvfs_types::env::VARS"
    );
    std::env::var(name).ok()
}

/// The value of `name` parsed by `parse`, or `default` when it is unset.
///
/// # Panics
///
/// On a malformed value: a typo'd run must not silently change the
/// policy under test. And as [`lookup`] does.
pub fn parsed<T>(name: &str, parse: impl FnOnce(&str) -> Result<T, String>, default: T) -> T {
    match lookup(name) {
        Some(v) => parse(&v).unwrap_or_else(|e| panic!("{name}={v:?} is rejected: {e}")),
        None => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_misspelt_name_is_rejected_with_the_names_that_exist() {
        let env = |names: &[&str]| names.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        assert_eq!(
            check_names(env(&["HOME", "PVFS_TRANSPORT", "PVFS", "pvfs_x"])),
            Ok(())
        );
        let rejected = check_names(env(&["PVFS_TRACE", "PVFS_TRANSPROT"])).unwrap_err();
        assert!(rejected.contains("PVFS_TRANSPROT is not one"), "{rejected}");
        for var in &VARS {
            assert!(rejected.contains(var.name), "{rejected}");
        }
        // A variable this program used to read is a stranger like any
        // other: a stale setting must not pass for one that took effect.
        for stale in ["PVFS_HEDGE", "PVFS_CB_BUFFER", "PVFS_BREAKER"] {
            let rejected = check_names(env(&["PVFS_TRACE", stale])).unwrap_err();
            assert!(
                rejected.contains(&format!("{stale} is not one")),
                "{rejected}"
            );
        }
    }

    #[test]
    fn the_table_has_ten_distinct_well_formed_rows() {
        let names: std::collections::HashSet<_> = VARS.iter().map(|var| var.name).collect();
        assert_eq!(names.len(), 10);
        for var in &VARS {
            assert!(var.name.starts_with(PREFIX), "{var:?}");
            for text in [var.grammar, var.default, var.meaning, var.malformed] {
                assert!(!text.is_empty(), "{var:?}");
            }
        }
    }
}
