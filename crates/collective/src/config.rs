//! Collective-I/O tuning knobs, mirroring ROMIO's `cb_nodes` /
//! `cb_buffer_size` hints: how many ranks aggregate (one per I/O daemon
//! unless a caller sets [`CollectiveConfig::aggregators`]), and each
//! aggregator's window bound, [`CollectiveConfig::cb_buffer`] (16 MiB
//! unless a caller sets it).

/// Default per-aggregator window bound: 16 MiB, ROMIO's
/// long-standing `cb_buffer_size` default.
pub const DEFAULT_CB_BUFFER: u64 = 16 * 1024 * 1024;

/// Tuning knobs for one collective operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveConfig {
    /// Requested aggregator count (ROMIO `cb_nodes`). `None` means one
    /// aggregator per I/O daemon. The effective count is always clamped
    /// — see [`CollectiveConfig::effective_aggregators`].
    pub aggregators: Option<usize>,
    /// Per-aggregator window bound in bytes (ROMIO `cb_buffer_size`):
    /// each aggregator cuts its file domain into windows of at most this
    /// many payload bytes, each a temp of its own and list requests of
    /// its own.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_one_aggregator_per_daemon_16m() {
        let cfg = CollectiveConfig::default();
        assert_eq!(cfg.aggregators, None);
        assert_eq!(cfg.cb_buffer, 16 * 1024 * 1024);
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
