//! The one parser behind every `PVFS_*` policy spec this crate reads:
//! comma-separated tokens, `key=value` options, `250ms`/`2s` durations.
//! (The environment itself is read in `pvfs_types::env`.)

use std::time::Duration;

/// The non-empty, trimmed tokens of a comma-separated spec, each split
/// at its first `=` (key and value trimmed) when it has one.
pub(crate) fn tokens(spec: &str) -> impl Iterator<Item = (&str, Option<(&str, &str)>)> {
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
pub(crate) fn options(spec: &str) -> impl Iterator<Item = Result<(&str, &str), String>> {
    tokens(spec)
        .map(|(token, option)| option.ok_or_else(|| format!("expected key=value, got {token:?}")))
}

/// Parse `"250ms"` / `"2s"` / bare milliseconds.
pub(crate) fn parse_duration(s: &str) -> Result<Duration, String> {
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
        .map(|n| Duration::from_millis(n * scale))
        .map_err(|_| format!("duration {s:?} is malformed (try 250ms or 2s)"))
}
