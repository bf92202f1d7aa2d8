//! Collective-I/O tuning knobs, mirroring ROMIO's `cb_nodes` /
//! `cb_buffer_size` hints.
//!
//! Like the transport (`PVFS_TRANSPORT`), fault (`PVFS_FAULTS`), and
//! retry (`PVFS_RETRY`) knobs, the collective layer reads one default
//! from the environment:
//!
//! * `PVFS_AGGREGATORS` — how many ranks act as aggregators. Clamped
//!   to the stripe's `pcount` and the group size; default is one
//!   aggregator per I/O daemon, which keeps the aggregator→daemon
//!   fan-in at exactly one.
//!
//! Each aggregator's staging-buffer bound is
//! [`CollectiveConfig::cb_buffer`], 16 MiB unless a caller sets the
//! field. A malformed value surfaces as [`PvfsError::Config`] — a typed error
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
    /// Defaults overridden by `PVFS_AGGREGATORS`. A malformed value
    /// is a [`PvfsError::Config`].
    pub fn from_env() -> PvfsResult<Self> {
        let mut cfg = CollectiveConfig::default();
        if let Some(v) = pvfs_types::env::lookup("PVFS_AGGREGATORS") {
            cfg.aggregators = Some(parse_aggregators(&v)?);
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
