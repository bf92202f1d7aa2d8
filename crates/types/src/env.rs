//! The one reader of the process environment.
//!
//! Every knob of the program is a `PVFS_*` environment variable, and
//! this module is the only place that reads one: the table of all of
//! them ([`VARS`] — name, grammar, default, meaning), the lookup
//! ([`lookup`]) and the parse-or-panic lookup most of them go through
//! ([`parsed`]). The typed parsers stay with the types they produce, in
//! their own crates; each hands its parser to [`parsed`], or calls
//! [`lookup`] and returns its own `PvfsError::Config`. The grammar the
//! specs share is here: [`tokens`], [`options`], [`parse_duration`].
//!
//! A configuration that is not the one asked for must not run: a
//! malformed *value* is rejected by the variable's parser, and a
//! misspelt *name* — `PVFS_TRANSPROT=tcp` would otherwise run the default
//! transport and pass — by the first lookup of any variable, which fails
//! if the environment holds a `PVFS_*` name the table does not.

use std::sync::OnceLock;
use std::time::Duration;

/// One `PVFS_*` variable.
#[derive(Debug)]
pub struct Var {
    /// The variable's name.
    pub name: &'static str,
    /// The values it takes.
    pub grammar: &'static str,
    /// What an unset variable means.
    pub default: &'static str,
    /// What it does: README's table renders its row from this one.
    pub meaning: &'static str,
    /// A value its parser rejects (the table's test holds each parser to
    /// it).
    pub malformed: &'static str,
}

/// Every variable the program reads, in the order README's table lists
/// them.
pub const VARS: [Var; 8] = [
    Var {
        name: "PVFS_TRANSPORT",
        grammar: "chan|tcp",
        default: "chan",
        meaning: "Client↔daemon transport: in-process channels or real loopback sockets. The whole suite runs under either (`PVFS_TRANSPORT=tcp cargo test`).",
        malformed: "udp",
    },
    Var {
        name: "PVFS_FAULTS",
        grammar: "drop:P,delay[:Nms],disconnect:P,corrupt:P,wedge:P[,seed=N,target=S,limit=N]",
        default: "unset (no faults)",
        meaning: "Seeded deterministic fault injection wrapping either transport; probabilities per frame. Manager RPCs are never injected.",
        malformed: "drop:often",
    },
    Var {
        name: "PVFS_RETRY",
        grammar: "off|attempts=N,base=D,cap=D,budget=D",
        default: "attempts=4,base=1ms,cap=100ms,budget=30s",
        meaning: "Client retry policy: bounded attempts, decorrelated-jitter backoff, per-op budget. Only idempotent (data) requests are retried.",
        malformed: "atempts=3",
    },
    Var {
        name: "PVFS_STORAGE",
        grammar: "mem|file:<dir>",
        default: "mem",
        meaning: "Daemon storage backend: in-memory sparse stores, or the durable file-backed engine (data file + write-ahead journal per handle, under `<dir>/iod<N>`). See Durability.",
        malformed: "disk",
    },
    Var {
        name: "PVFS_SYNC",
        grammar: "never|interval:<ms>|always",
        default: "interval:100",
        meaning: "Journal fsync policy for the file backend: fsync on a write once the interval has passed, fsync-per-batch, or only at explicit `Sync`/`Flush` barriers.",
        malformed: "sometimes",
    },
    Var {
        name: "PVFS_STATS",
        grammar: "dump",
        default: "unset (nothing printed)",
        meaning: "Print one JSON `StatsSnapshot` line per daemon to stderr when a `LiveCluster` tears down (see Observability). Any other value is rejected when the cluster spawns.",
        malformed: "dumpp",
    },
    Var {
        name: "PVFS_TRACE",
        grammar: "off|all|slow:<ms>|sample:<1/n>",
        default: "off",
        meaning: "Distributed request tracing: trace everything, retain only ops slower than `<ms>`, or head-sample 1 in `<n>`. Off costs zero wire bytes (v1 frames, pinned by test). See Tracing.",
        malformed: "slow:soon",
    },
    Var {
        name: "PVFS_REPLICAS",
        grammar: "1..=255, at most the daemon count",
        default: "1",
        meaning: "r-way stripe mirroring: copy *j* of slot *s* on daemon `(base+s+j) mod n`. `1` = the paper's single-owner striping, byte-identical. See Replication.",
        malformed: "0",
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
#[allow(clippy::disallowed_methods)] // the one reader of the environment
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

/// The non-empty, trimmed tokens of a comma-separated spec, each split
/// at its first `=` (key and value trimmed) when it has one.
pub fn tokens(spec: &str) -> impl Iterator<Item = (&str, Option<(&str, &str)>)> {
    spec.split(',')
        .map(str::trim)
        .filter(|token| !token.is_empty())
        .map(|token| {
            let option = token.split_once('=').map(|(k, v)| (k.trim(), v.trim()));
            (token, option)
        })
}

/// The `key=value` options of a spec made of nothing else; a token
/// without `=` is an error naming it.
pub fn options(spec: &str) -> impl Iterator<Item = Result<(&str, &str), String>> {
    tokens(spec)
        .map(|(token, option)| option.ok_or_else(|| format!("expected key=value, got {token:?}")))
}

/// Parse `"250ms"` / `"2s"` / bare milliseconds.
pub fn parse_duration(s: &str) -> Result<Duration, String> {
    let s = s.trim();
    let (digits, scale) = if let Some(d) = s.strip_suffix("ms") {
        (d, 1)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1000)
    } else {
        (s, 1)
    };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(scale))
        .map(Duration::from_millis)
        .ok_or_else(|| format!("duration {s:?} is malformed (try 250ms or 2s)"))
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
        let stale_names = [
            "PVFS_HEDGE",
            "PVFS_CB_BUFFER",
            "PVFS_BREAKER",
            "PVFS_AGGREGATORS",
            "PVFS_WRITE_QUORUM",
        ];
        for stale in stale_names {
            let rejected = check_names(env(&["PVFS_TRACE", stale])).unwrap_err();
            assert!(
                rejected.contains(&format!("{stale} is not one")),
                "{rejected}"
            );
        }
    }

    #[test]
    fn the_table_has_eight_distinct_well_formed_rows() {
        let names: std::collections::HashSet<_> = VARS.iter().map(|var| var.name).collect();
        assert_eq!(names.len(), 8);
        for var in &VARS {
            assert!(var.name.starts_with(PREFIX), "{var:?}");
            for text in [var.grammar, var.default, var.meaning, var.malformed] {
                assert!(!text.is_empty(), "{var:?}");
            }
        }
    }

    #[test]
    fn durations_parse_in_either_unit_and_never_wrap() {
        assert_eq!(parse_duration(" 250ms"), Ok(Duration::from_millis(250)));
        assert_eq!(parse_duration("2s"), Ok(Duration::from_secs(2)));
        assert_eq!(parse_duration("40"), Ok(Duration::from_millis(40)));
        let most = u64::MAX / 1000;
        assert_eq!(
            parse_duration(&format!("{most}s")),
            Ok(Duration::from_secs(most))
        );
        // One second more is past u64 milliseconds: malformed, not a
        // panic (debug) or a wrapped 384 ms budget (release).
        for spec in ["18446744073709552s", "2x", "s", ""] {
            let err = parse_duration(spec).unwrap_err();
            assert!(err.contains("malformed"), "{spec:?}: {err}");
        }
    }
}
