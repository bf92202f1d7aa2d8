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
        .ok()
        .and_then(|n| n.checked_mul(scale))
        .map(Duration::from_millis)
        .ok_or_else(|| format!("duration {s:?} is malformed (try 250ms or 2s)"))
}

#[cfg(test)]
mod tests {
    use super::*;

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
