//! Access-method selection and tuning knobs.

use pvfs_proto::{MAX_BULK_BYTES, MAX_LIST_REGIONS};
use pvfs_types::{PvfsError, PvfsResult};

/// The noncontiguous access methods compared in the paper, plus the two
/// extensions its conclusion proposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// §3.1 — one contiguous request per contiguous file region.
    Multiple,
    /// §3.2 — large windowed reads + in-memory filtering; RMW writes
    /// serialized across clients.
    DataSieving,
    /// §3.3 — the contribution: ≤64 file regions per request as trailing
    /// data.
    List,
    /// §5 — sieve dense clusters, list the sparse remainder.
    Hybrid,
    /// §5 — vector-datatype requests; request count independent of
    /// region count for regular patterns.
    Datatype,
}

impl Method {
    /// The three methods the paper evaluates.
    pub const PAPER: [Method; 3] = [Method::Multiple, Method::DataSieving, Method::List];

    /// Every method [`plan`](fn@crate::plan) compiles.
    pub const ALL: [Method; 5] = [
        Method::Multiple,
        Method::DataSieving,
        Method::List,
        Method::Hybrid,
        Method::Datatype,
    ];

    /// Human-readable name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            Method::Multiple => "Multiple I/O",
            Method::DataSieving => "Data Sieving I/O",
            Method::List => "List I/O",
            Method::Hybrid => "Hybrid I/O",
            Method::Datatype => "Datatype I/O",
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tuning knobs for the planners, defaulting to the paper's choices.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodConfig {
    /// Regions per list request (paper: 64, one Ethernet frame).
    pub max_list_regions: usize,
    /// Data sieving buffer size (paper: 32 MB).
    pub sieve_buffer: u64,
    /// Hybrid: regions whose gap to the previous region is at most this
    /// many bytes are clustered into one sieved window.
    pub hybrid_gap: u64,
    /// Hybrid: derive the gap threshold from the request itself
    /// (mean region length × (1/min_density − 1)) instead of using
    /// `hybrid_gap` — the "more complex software design" §5 anticipates.
    pub hybrid_auto: bool,
    /// Hybrid: a cluster is sieved only if useful bytes / window bytes
    /// is at least this fraction (avoids dragging useless data).
    pub hybrid_min_density: f64,
}

impl MethodConfig {
    /// The paper's configuration.
    pub fn paper_default() -> MethodConfig {
        MethodConfig {
            max_list_regions: MAX_LIST_REGIONS,
            sieve_buffer: 32 * 1024 * 1024,
            hybrid_gap: 4096,
            hybrid_auto: false,
            hybrid_min_density: 0.5,
        }
    }

    /// Check the limits every planner relies on: lists of at least one
    /// and at most a frame's worth of regions (the limit the daemons
    /// enforce), and a sieve buffer that holds a byte.
    /// [`plan`](fn@crate::plan) checks them before any method sees them.
    pub fn validate(&self) -> PvfsResult<()> {
        let regions = self.max_list_regions;
        if !(1..=MAX_LIST_REGIONS).contains(&regions) {
            return Err(PvfsError::invalid(format!(
                "max_list_regions {regions} out of range 1..={MAX_LIST_REGIONS}"
            )));
        }
        // A sieve window is one request: no more than one frame's bulk.
        let sieve = self.sieve_buffer;
        if !(1..=MAX_BULK_BYTES as u64).contains(&sieve) {
            return Err(PvfsError::invalid(format!(
                "sieve buffer {sieve} out of range 1..={MAX_BULK_BYTES}"
            )));
        }
        Ok(())
    }
}

impl Default for MethodConfig {
    fn default() -> Self {
        MethodConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_3() {
        let c = MethodConfig::paper_default();
        assert_eq!(c.max_list_regions, 64);
        assert_eq!(c.sieve_buffer, 32 * 1024 * 1024);
    }

    /// A sieve window is one request: at most one frame's bulk.
    #[test]
    fn a_sieve_buffer_fits_one_frame() {
        let with = |sieve_buffer| MethodConfig {
            sieve_buffer,
            ..MethodConfig::paper_default()
        };
        assert!(with(MAX_BULK_BYTES as u64).validate().is_ok());
        for refused in [0, MAX_BULK_BYTES as u64 + 1] {
            let err = with(refused).validate().unwrap_err();
            assert!(err.to_string().contains("sieve buffer"), "{err}");
        }
    }

    /// A write plan holds a serial section under data sieving alone:
    /// its read-modify-write is the only one that races other clients.
    #[test]
    fn only_sieving_writes_serialize() {
        use crate::{plan, IoKind, ListRequest};
        use pvfs_types::{FileHandle, RegionList, StripeLayout};
        let file = RegionList::from_pairs((0..16).map(|i| (i * 100, 8))).unwrap();
        let request = ListRequest::gather(file);
        let layout = StripeLayout::new(0, 4, 64).unwrap();
        let config = MethodConfig::paper_default();
        for m in Method::ALL {
            let p = plan(m, IoKind::Write, &request, FileHandle(1), layout, &config).unwrap();
            let serial = p.tally().serial_sections;
            assert_eq!(
                serial > 0,
                m == Method::DataSieving,
                "{m}: {serial} serial sections"
            );
        }
    }

    #[test]
    fn names_match_figure_legends() {
        assert_eq!(Method::Multiple.to_string(), "Multiple I/O");
        assert_eq!(Method::DataSieving.to_string(), "Data Sieving I/O");
        assert_eq!(Method::List.to_string(), "List I/O");
    }

    #[test]
    fn paper_set_is_the_evaluated_three() {
        assert_eq!(Method::PAPER.len(), 3);
        assert_eq!(Method::ALL.len(), 5);
    }
}
