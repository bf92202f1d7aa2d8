//! Collective-I/O tuning knobs, mirroring ROMIO's `cb_nodes` /
//! `cb_buffer_size` hints.
//!
//! Like the transport (`PVFS_TRANSPORT`), fault (`PVFS_FAULTS`), and
//! retry (`PVFS_RETRY`) knobs, the collective layer reads its defaults
//! from the environment:
//!
//! * `PVFS_AGGREGATORS` — how many ranks act as aggregators. Clamped
//!   to the stripe's `pcount` and the group size; default is one
//!   aggregator per I/O daemon, which keeps the aggregator→daemon
//!   fan-in at exactly one.
//! * `PVFS_CB_BUFFER` — each aggregator's staging-buffer bound, e.g.
//!   `16m`, `512k`, or a raw byte count. Default 16 MiB.
//!
//! Malformed values surface as [`PvfsError::Config`] — a typed error
//! the collective entry points propagate, so a misconfigured experiment
//! fails with a diagnosable message instead of aborting the process.

use pvfs_types::{PvfsError, PvfsResult};

/// Default per-aggregator staging-buffer bound: 16 MiB, ROMIO's
/// long-standing `cb_buffer_size` default.
pub const DEFAULT_CB_BUFFER: u64 = 16 * 1024 * 1024;

/// Tuning knobs for one collective operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveConfig {
    /// Requested aggregator count (ROMIO `cb_nodes`). `None` means one
    /// aggregator per I/O daemon. The effective count is always clamped
    /// — see [`CollectiveConfig::effective_aggregators`].
    pub aggregators: Option<usize>,
    /// Per-aggregator staging-buffer bound in bytes (ROMIO
    /// `cb_buffer_size`): each aggregator splits its file domain into
    /// windows of at most this many payload bytes and stages one window
    /// at a time.
    pub cb_buffer: u64,
}

impl Default for CollectiveConfig {
    fn default() -> Self {
        CollectiveConfig {
            aggregators: None,
            cb_buffer: DEFAULT_CB_BUFFER,
        }
    }
}

impl CollectiveConfig {
    /// Defaults overridden by `PVFS_AGGREGATORS` / `PVFS_CB_BUFFER`.
    /// Malformed values are a [`PvfsError::Config`].
    pub fn from_env() -> PvfsResult<Self> {
        let mut cfg = CollectiveConfig::default();
        if let Some(v) = pvfs_types::env::lookup("PVFS_AGGREGATORS") {
            cfg.aggregators = Some(parse_aggregators(&v)?);
        }
        if let Some(v) = pvfs_types::env::lookup("PVFS_CB_BUFFER") {
            cfg.cb_buffer = parse_size(&v)?;
        }
        Ok(cfg)
    }

    /// The aggregator count actually used for a job of `ranks` clients
    /// over a stripe of `pcount` I/O daemons: the request (or `pcount`
    /// when unset), never more than `pcount` (extra aggregators would
    /// share a daemon and break the one-aggregator-per-daemon fan-in),
    /// never more than the ranks available, and at least 1.
    pub fn effective_aggregators(&self, ranks: usize, pcount: u32) -> usize {
        self.aggregators
            .unwrap_or(pcount as usize)
            .max(1)
            .min(pcount as usize)
            .min(ranks.max(1))
    }
}

/// Parse `PVFS_AGGREGATORS`: a positive integer.
pub fn parse_aggregators(s: &str) -> PvfsResult<usize> {
    let n: usize = s.trim().parse().map_err(|_| {
        PvfsError::config(format!(
            "PVFS_AGGREGATORS: expected a positive integer, got {s:?}"
        ))
    })?;
    if n < 1 {
        return Err(PvfsError::config(format!(
            "PVFS_AGGREGATORS must be at least 1, got {s:?}"
        )));
    }
    Ok(n)
}

/// Parse `PVFS_CB_BUFFER`: a byte count with an optional `k`/`m`/`g`
/// suffix (case-insensitive), e.g. `16m`, `512K`, `1048576`.
pub fn parse_size(s: &str) -> PvfsResult<u64> {
    let t = s.trim().to_ascii_lowercase();
    let (digits, mult) = match t.strip_suffix(['k', 'm', 'g']) {
        Some(d) => {
            let mult = match t.as_bytes()[t.len() - 1] {
                b'k' => 1024u64,
                b'm' => 1024 * 1024,
                _ => 1024 * 1024 * 1024,
            };
            (d, mult)
        }
        None => (t.as_str(), 1),
    };
    let n: u64 = digits.parse().map_err(|_| {
        PvfsError::config(format!(
            "PVFS_CB_BUFFER: expected bytes like 16m/512k/1048576, got {s:?}"
        ))
    })?;
    let bytes = n
        .checked_mul(mult)
        .ok_or_else(|| PvfsError::config(format!("PVFS_CB_BUFFER: {s:?} overflows u64")))?;
    if bytes == 0 {
        return Err(PvfsError::config(format!(
            "PVFS_CB_BUFFER must be positive, got {s:?}"
        )));
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config_err(e: PvfsError) -> String {
        match e {
            PvfsError::Config(msg) => msg,
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn default_is_one_aggregator_per_daemon_16m() {
        let cfg = CollectiveConfig::default();
        assert_eq!(cfg.aggregators, None);
        assert_eq!(cfg.cb_buffer, 16 * 1024 * 1024);
    }

    #[test]
    fn parse_size_suffixes() {
        assert_eq!(parse_size("16m").unwrap(), 16 * 1024 * 1024);
        assert_eq!(parse_size("512K").unwrap(), 512 * 1024);
        assert_eq!(parse_size("1g").unwrap(), 1024 * 1024 * 1024);
        assert_eq!(parse_size(" 4096 ").unwrap(), 4096);
    }

    #[test]
    fn parse_size_rejects_garbage_with_a_typed_error() {
        let msg = config_err(parse_size("lots").unwrap_err());
        assert!(msg.contains("PVFS_CB_BUFFER"), "{msg}");
    }

    #[test]
    fn parse_size_rejects_empty() {
        let msg = config_err(parse_size("").unwrap_err());
        assert!(msg.contains("PVFS_CB_BUFFER"), "{msg}");
        // A bare suffix has no digits either.
        assert!(parse_size("m").is_err());
        assert!(parse_size("   ").is_err());
    }

    #[test]
    fn parse_size_rejects_zero() {
        let msg = config_err(parse_size("0").unwrap_err());
        assert!(msg.contains("positive"), "{msg}");
        assert!(parse_size("0k").is_err());
    }

    #[test]
    fn parse_size_rejects_overflow() {
        // u64::MAX kibibytes overflows the multiply.
        let msg = config_err(parse_size("18446744073709551615k").unwrap_err());
        assert!(msg.contains("overflow"), "{msg}");
        // ...and a number too big for u64 at all fails the parse.
        assert!(parse_size("99999999999999999999999").is_err());
        // The largest representable value still parses.
        assert_eq!(parse_size("18446744073709551615").unwrap(), u64::MAX);
    }

    #[test]
    fn parse_aggregators_rejects_zero_junk_and_empty() {
        let msg = config_err(parse_aggregators("0").unwrap_err());
        assert!(msg.contains("PVFS_AGGREGATORS"), "{msg}");
        assert!(parse_aggregators("four").is_err());
        assert!(parse_aggregators("").is_err());
        assert!(parse_aggregators("-2").is_err());
        assert_eq!(parse_aggregators(" 4 ").unwrap(), 4);
    }

    #[test]
    fn effective_aggregators_clamps() {
        let cfg = CollectiveConfig::default();
        // Default: one per daemon, capped by ranks.
        assert_eq!(cfg.effective_aggregators(16, 8), 8);
        assert_eq!(cfg.effective_aggregators(2, 8), 2);
        let few = CollectiveConfig {
            aggregators: Some(3),
            ..CollectiveConfig::default()
        };
        assert_eq!(few.effective_aggregators(16, 8), 3);
        // Requests beyond pcount collapse to pcount.
        let many = CollectiveConfig {
            aggregators: Some(64),
            ..CollectiveConfig::default()
        };
        assert_eq!(many.effective_aggregators(16, 8), 8);
        // Degenerate single-rank job still gets one aggregator.
        assert_eq!(cfg.effective_aggregators(1, 4), 1);
    }
}
