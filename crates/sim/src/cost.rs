//! Calibration constants for the simulated Chiba City testbed.
//!
//! Every number that turns counts and bytes into virtual nanoseconds
//! lives here, with its justification. Absolute seconds are *not* the
//! reproduction target — the shapes of the paper's figures are — but the
//! defaults are chosen so the simulated magnitudes land in the same
//! decade as the measured ones (§4 of the paper; see EXPERIMENTS.md for
//! the side-by-side).
//!
//! ## Derivations
//!
//! * **Network** (fig. config, §4.1): 100 Mb/s fast Ethernet, full
//!   duplex ⇒ 12.5 MB/s per NIC direction; one-way small-frame latency
//!   of ≈ 60 µs (2002-era switched TCP).
//! * **Server request overhead** `per_request_ns = 300 µs`: TCP
//!   receive + request parse + dispatch on a 500 MHz PIII. At 1 M
//!   accesses/client this puts the multiple-I/O read curve at several
//!   hundred seconds (Fig. 9's scale).
//! * **Server per-region scan** `per_region_ns = 2 µs`: intersecting
//!   one trailing-data region with the local stripes (arithmetic only).
//! * **Server per-access cost** `per_access_ns = 250 µs`: one lseek +
//!   read/write syscall against the iod's local ext2 file, charged per
//!   contiguous local run. This is what concentrates load when a
//!   client's 64-region list request lands on one or two servers — the
//!   mechanism behind the paper's block-block list-I/O upturn at
//!   ≈150 bytes/access.
//! * **Write-ACK stall** `write_ack_stall_ns = 40 ms` per *write
//!   request, on the response path*: the paper's writes are ~50× slower
//!   than its reads at the same request counts (Figs. 9 vs 10). This
//!   models the era's small-write path — the TCP small-ACK
//!   (Nagle/delayed-ACK) stall on the tiny write acknowledgement plus
//!   the iod's synchronous-ish commit. A round's parallel writes
//!   overlap their stalls, so write time tracks the *round* count:
//!   multiple-I/O writes at 1 M accesses land at ~4 × 10⁴ s and list
//!   I/O writes ~64× lower — Fig. 10's two-orders gap.
//! * **Client per-fragment cost** `per_fragment_ns = 400 µs`: the
//!   client library processes each *contiguous memory fragment* of a
//!   transfer separately (per-fragment send/recv bookkeeping on the
//!   data stream). Contiguous-memory workloads (the artificial
//!   benchmark, tiled visualization) have one fragment per piece of a
//!   request and barely notice; FLASH's 8-byte memory fragments
//!   (983 040 per proc) make this the dominant list-I/O cost — which is
//!   how Fig. 15's list bars sit two orders above data sieving while
//!   its request count is only 30/proc.
//! * **Client memcpy rate** `memcpy_bps = 400 MB/s`: PIII-era copy
//!   bandwidth; charges the data sieving buffer filtering.
//! * **Serial handoff** `serial_handoff_ns = 1 ms`: an `MPI_Barrier`
//!   round on fast Ethernet.

/// Network cost model: one NIC direction per node, full duplex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetCost {
    /// One-way propagation + switching latency (ns).
    pub latency_ns: u64,
    /// Per-direction NIC bandwidth (bytes/second).
    pub bandwidth_bps: u64,
    /// Extra delay on each *write acknowledgement* (ns): the era's
    /// small-write path — Nagle/delayed-ACK interaction on the tiny
    /// ACK plus the iod's synchronous-ish commit. Charged per write
    /// request on the response path, so a round's parallel writes
    /// overlap their stalls but sequential rounds stack them — which
    /// is exactly why the paper's write figures track the *round*
    /// count and show the ~64× multiple-vs-list gap.
    pub write_ack_stall_ns: u64,
}

impl NetCost {
    /// Time for `bytes` to cross one NIC direction.
    pub fn transfer_ns(&self, bytes: u64) -> u64 {
        if self.bandwidth_bps == 0 {
            return 0;
        }
        ((bytes as u128 * 1_000_000_000) / self.bandwidth_bps as u128) as u64
    }
}

/// Client-side CPU cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientCost {
    /// Issuing one request (build + syscall).
    pub per_request_ns: u64,
    /// Handling one contiguous memory fragment on the network data
    /// path (scatter/gather bookkeeping per fragment).
    pub per_fragment_ns: u64,
    /// Local memory copy bandwidth (bytes/second), for `Step::Copy`
    /// traffic (sieve buffer filtering).
    pub memcpy_bps: u64,
}

impl ClientCost {
    /// Time to locally copy `bytes`.
    pub fn memcpy_ns(&self, bytes: u64) -> u64 {
        if self.memcpy_bps == 0 {
            return 0;
        }
        ((bytes as u128 * 1_000_000_000) / self.memcpy_bps as u128) as u64
    }
}

/// Server-side CPU cost model (the I/O daemon's request loop).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerCost {
    /// Fixed cost to accept/parse/dispatch one request.
    pub per_request_ns: u64,
    /// Scanning one trailing-data region (pure arithmetic: intersect
    /// with the local stripes).
    pub per_region_ns: u64,
    /// One local file access (lseek + read/write syscall on the iod's
    /// local ext2 file). Charged per *contiguous local run* — a large
    /// contiguous logical request is one access because a slot's
    /// stripes pack contiguously in its local file.
    pub per_access_ns: u64,
}

/// The complete calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostConfig {
    /// Network model.
    pub net: NetCost,
    /// Client CPU model.
    pub client: ClientCost,
    /// Server CPU model.
    pub server: ServerCost,
    /// Hand-off cost between serialized clients (one barrier round).
    pub serial_handoff_ns: u64,
}

impl CostConfig {
    /// Chiba City calibration (see module docs for derivations).
    pub fn paper_default() -> CostConfig {
        CostConfig {
            net: NetCost {
                latency_ns: 60_000,             // 60 µs one-way
                bandwidth_bps: 12_500_000,      // 100 Mb/s
                write_ack_stall_ns: 40_000_000, // 40 ms
            },
            client: ClientCost {
                per_request_ns: 50_000,   // 50 µs
                per_fragment_ns: 400_000, // 400 µs
                memcpy_bps: 400_000_000,  // 400 MB/s
            },
            server: ServerCost {
                per_request_ns: 300_000, // 300 µs
                per_region_ns: 2_000,    // 2 µs
                per_access_ns: 250_000,  // 250 µs
            },
            serial_handoff_ns: 1_000_000, // 1 ms
        }
    }
}

impl Default for CostConfig {
    fn default() -> Self {
        CostConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_at_fast_ethernet() {
        let net = CostConfig::paper_default().net;
        // 12.5 MB in one second.
        assert_eq!(net.transfer_ns(12_500_000), 1_000_000_000);
        // A 1500-byte frame takes 120 µs on the wire.
        assert_eq!(net.transfer_ns(1500), 120_000);
        assert_eq!(net.transfer_ns(0), 0);
    }

    #[test]
    fn memcpy_time() {
        let c = CostConfig::paper_default().client;
        assert_eq!(c.memcpy_ns(400_000_000), 1_000_000_000);
        assert_eq!(c.memcpy_ns(0), 0);
    }

    #[test]
    fn write_gap_magnitude_matches_paper() {
        // The calibrated write-ACK stall against the read-path
        // request cost (~0.4 ms RTT) gives the ~50× read/write gap of
        // Figs. 9 vs 10.
        let c = CostConfig::paper_default();
        let read_rtt = c.client.per_request_ns
            + 2 * c.net.latency_ns
            + c.server.per_request_ns
            + c.server.per_region_ns
            + c.server.per_access_ns;
        let write_rtt = read_rtt + c.net.write_ack_stall_ns;
        let ratio = write_rtt as f64 / read_rtt as f64;
        assert!(ratio > 20.0 && ratio < 120.0, "ratio {ratio}");
    }

    #[test]
    fn no_overflow_on_huge_transfers() {
        let net = CostConfig::paper_default().net;
        assert!(net.transfer_ns(1 << 40) > 0);
    }
}
