//! One function per measured figure.

use crate::report::Row;
use pvfs_core::{IoKind, ListRequest, Method, MethodConfig};
use pvfs_sim::{metadata_rtt_ns, ClientJob, CostConfig, SimCluster};
use pvfs_types::{FileHandle, Region, RegionList, StripeLayout};
use pvfs_workloads::{BlockBlock, Cyclic, FlashIo, TiledViz};

const FH: FileHandle = FileHandle(42);

/// Experiment scale. `Paper` reproduces the paper's parameter grid
/// (1 GiB aggregate, up to 1 M accesses, up to 32 clients); `Mid`
/// shrinks the grid ~4× in every direction for minute-scale runs;
/// `Quick` is second-scale for the unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale smoke runs.
    Quick,
    /// Minutes-scale runs preserving every shape (default).
    Mid,
    /// The paper's full grid.
    Paper,
}

impl Scale {
    /// Parse from a CLI string.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "mid" => Some(Scale::Mid),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    fn cyclic_clients(self) -> &'static [u64] {
        match self {
            Scale::Quick => &[4],
            Scale::Mid => &[8, 16],
            Scale::Paper => &[8, 16, 32],
        }
    }

    fn cyclic_accesses(self) -> &'static [u64] {
        match self {
            Scale::Quick => &[1024, 4096],
            Scale::Mid => &[16_384, 65_536, 262_144],
            Scale::Paper => &[65_536, 262_144, 1_048_576],
        }
    }

    fn cyclic_aggregate(self) -> u64 {
        match self {
            Scale::Quick => 8 << 20,
            Scale::Mid => 256 << 20,
            Scale::Paper => 1 << 30,
        }
    }

    /// Block-block panels: (clients, aggregate bytes). 9 clients need
    /// an array side divisible by 3, hence the slightly smaller
    /// aggregate for that panel — documented in EXPERIMENTS.md.
    fn blockblock_panels(self) -> Vec<(u64, u64)> {
        match self {
            Scale::Quick => vec![(4, 4 << 20)],
            Scale::Mid => vec![(4, 256 << 20), (9, 144 << 20), (16, 256 << 20)],
            Scale::Paper => vec![(4, 1 << 30), (9, 576 << 20), (16, 1 << 30)],
        }
    }

    fn blockblock_accesses(self) -> &'static [u64] {
        match self {
            Scale::Quick => &[1024, 4096],
            Scale::Mid => &[16_384, 65_536, 262_144],
            Scale::Paper => &[65_536, 262_144, 1_048_576],
        }
    }

    fn flash_procs(self) -> &'static [u64] {
        match self {
            Scale::Quick => &[2, 4],
            Scale::Mid => &[2, 4, 8, 16],
            Scale::Paper => &[2, 4, 8, 16, 32],
        }
    }

    fn flash_blocks(self) -> u64 {
        match self {
            Scale::Quick => 2,
            Scale::Mid => 20,
            Scale::Paper => 80,
        }
    }
}

/// Outcome of one simulated run.
pub struct RunOutcome {
    /// Simulated makespan in seconds.
    pub seconds: f64,
    /// Total wire requests.
    pub requests: u64,
    /// Payload bytes the clients sent and received (useful + waste).
    pub wire_bytes: u64,
}

/// Run one (method, kind) over a set of per-client requests on the
/// paper's 8-server cluster with the paper-default method tuning.
pub fn run_method(
    requests: &[ListRequest],
    kind: IoKind,
    method: Method,
    file_size: u64,
    warm: bool,
) -> RunOutcome {
    run_method_configured(
        requests,
        kind,
        method,
        file_size,
        warm,
        &MethodConfig::paper_default(),
    )
}

/// [`run_method`] with explicit method tuning.
pub fn run_method_configured(
    requests: &[ListRequest],
    kind: IoKind,
    method: Method,
    file_size: u64,
    warm: bool,
    cfg: &MethodConfig,
) -> RunOutcome {
    let layout = StripeLayout::paper_default(8);
    let mut sim = SimCluster::paper_default();
    if warm {
        sim.seed_warm(FH, &layout, file_size);
    }
    let jobs: Vec<ClientJob> = requests
        .iter()
        .map(|r| {
            let plan = pvfs_core::plan(method, kind, r, FH, layout, cfg).expect("plan compiles");
            let buf_len = r.mem.extent().map(|e| e.end()).unwrap_or(0) as usize;
            ClientJob {
                plan,
                user: vec![0u8; buf_len],
            }
        })
        .collect();
    let (report, _) = sim.run(jobs).expect("simulation completes");
    let clients = report.clients.iter();
    RunOutcome {
        seconds: report.seconds(),
        requests: report.total_requests(),
        wire_bytes: clients.map(|c| c.bytes_sent + c.bytes_received).sum(),
    }
}

fn art_row(
    figure: &'static str,
    panel: String,
    method: Method,
    x: u64,
    outcome: RunOutcome,
) -> Row {
    Row {
        figure,
        panel,
        series: method.name().to_string(),
        x,
        seconds: outcome.seconds,
        requests: outcome.requests,
        wire_bytes: outcome.wire_bytes,
    }
}

/// Fig. 9 — one-dimensional cyclic **reads**: multiple vs data sieving
/// vs list I/O across access counts, one panel per client count.
pub fn fig9(scale: Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    for &clients in scale.cyclic_clients() {
        for &accesses in scale.cyclic_accesses() {
            let pattern = Cyclic {
                clients,
                accesses_per_client: accesses,
                aggregate_bytes: scale.cyclic_aggregate(),
            };
            let requests: Vec<ListRequest> = (0..clients)
                .map(|k| pattern.request_for(k).expect("valid pattern"))
                .collect();
            for method in Method::PAPER {
                let outcome =
                    run_method(&requests, IoKind::Read, method, pattern.file_size(), true);
                rows.push(art_row(
                    "fig9",
                    format!("{clients} clients"),
                    method,
                    accesses,
                    outcome,
                ));
            }
        }
    }
    rows
}

/// Fig. 10 — one-dimensional cyclic **writes**: multiple vs list I/O
/// (the paper omits data sieving writes here; with no file locking the
/// artificial benchmark's writers would need full serialization).
pub fn fig10(scale: Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    for &clients in scale.cyclic_clients() {
        for &accesses in scale.cyclic_accesses() {
            let pattern = Cyclic {
                clients,
                accesses_per_client: accesses,
                aggregate_bytes: scale.cyclic_aggregate(),
            };
            let requests: Vec<ListRequest> = (0..clients)
                .map(|k| pattern.request_for(k).expect("valid pattern"))
                .collect();
            for method in [Method::Multiple, Method::List] {
                let outcome =
                    run_method(&requests, IoKind::Write, method, pattern.file_size(), false);
                rows.push(art_row(
                    "fig10",
                    format!("{clients} clients"),
                    method,
                    accesses,
                    outcome,
                ));
            }
        }
    }
    rows
}

/// Fig. 11 — block-block **reads**: the panel set where the paper
/// observes the list-I/O upturn near ≈150 bytes/access.
pub fn fig11(scale: Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    for (clients, aggregate) in scale.blockblock_panels() {
        for &accesses in scale.blockblock_accesses() {
            let pattern = BlockBlock {
                clients,
                accesses_per_client: accesses,
                aggregate_bytes: aggregate,
            };
            let requests: Vec<ListRequest> = (0..clients)
                .map(|k| pattern.request_for(k).expect("valid pattern"))
                .collect();
            for method in Method::PAPER {
                let outcome =
                    run_method(&requests, IoKind::Read, method, pattern.file_size(), true);
                rows.push(art_row(
                    "fig11",
                    format!("{clients} clients"),
                    method,
                    accesses,
                    outcome,
                ));
            }
        }
    }
    rows
}

/// Fig. 12 — block-block **writes**: multiple vs list I/O.
pub fn fig12(scale: Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    for (clients, aggregate) in scale.blockblock_panels() {
        for &accesses in scale.blockblock_accesses() {
            let pattern = BlockBlock {
                clients,
                accesses_per_client: accesses,
                aggregate_bytes: aggregate,
            };
            let requests: Vec<ListRequest> = (0..clients)
                .map(|k| pattern.request_for(k).expect("valid pattern"))
                .collect();
            for method in [Method::Multiple, Method::List] {
                let outcome =
                    run_method(&requests, IoKind::Write, method, pattern.file_size(), false);
                rows.push(art_row(
                    "fig12",
                    format!("{clients} clients"),
                    method,
                    accesses,
                    outcome,
                ));
            }
        }
    }
    rows
}

/// Fig. 15 — the FLASH I/O checkpoint write across client counts,
/// multiple vs data sieving vs list I/O (log-scale bars in the paper).
pub fn fig15(scale: Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    for &nprocs in scale.flash_procs() {
        let flash = FlashIo::scaled(nprocs, scale.flash_blocks());
        let requests: Vec<ListRequest> = (0..nprocs)
            .map(|p| flash.request_for(p).expect("valid flash request"))
            .collect();
        for method in Method::PAPER {
            let outcome = run_method(&requests, IoKind::Write, method, flash.file_size(), false);
            rows.push(Row {
                figure: "fig15",
                panel: "checkpoint write".into(),
                series: method.name().to_string(),
                x: nprocs,
                seconds: outcome.seconds,
                requests: outcome.requests,
                wire_bytes: outcome.wire_bytes,
            });
        }
    }
    rows
}

/// Fig. 17 — tiled visualization read with 6 clients: open / read /
/// close time per method. Always the paper's exact configuration
/// (the frame is only 10.2 MiB).
pub fn fig17(_scale: Scale) -> Vec<Row> {
    let t = TiledViz::paper();
    let requests: Vec<ListRequest> = (0..t.clients())
        .map(|k| t.request_for(k).expect("valid tile request"))
        .collect();
    let open_close = metadata_rtt_ns(&CostConfig::paper_default()) as f64 / 1e9;
    let mut rows = Vec::new();
    for method in Method::PAPER {
        let outcome = run_method(&requests, IoKind::Read, method, t.file_size(), true);
        for (phase, seconds) in [
            ("open", open_close),
            ("read", outcome.seconds),
            ("close", open_close),
        ] {
            rows.push(Row {
                figure: "fig17",
                panel: phase.to_string(),
                series: method.name().to_string(),
                x: t.clients(),
                seconds,
                requests: outcome.requests,
                wire_bytes: outcome.wire_bytes,
            });
        }
    }
    rows
}

/// Extension experiment — datatype I/O (§5 future work) against the
/// paper's methods on the 1-D cyclic pattern, both directions: the
/// request count stays constant as fragmentation grows, which pays off
/// most on writes where each round stalls on the write acknowledgement.
pub fn ext_datatype(scale: Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    let clients = *scale.cyclic_clients().first().unwrap();
    for &accesses in scale.cyclic_accesses() {
        let pattern = Cyclic {
            clients,
            accesses_per_client: accesses,
            aggregate_bytes: scale.cyclic_aggregate(),
        };
        let requests: Vec<ListRequest> = (0..clients)
            .map(|k| pattern.request_for(k).expect("valid pattern"))
            .collect();
        for (kind, warm) in [(IoKind::Read, true), (IoKind::Write, false)] {
            for method in [Method::Multiple, Method::List, Method::Datatype] {
                let outcome = run_method(&requests, kind, method, pattern.file_size(), warm);
                rows.push(art_row(
                    "ext-datatype",
                    format!("{clients} clients {kind:?}"),
                    method,
                    accesses,
                    outcome,
                ));
            }
        }
    }
    rows
}

/// Extension experiment — hybrid list+sieving (§5 future work) across
/// gap densities on a clustered pattern.
pub fn ext_hybrid(scale: Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    let n_clusters = match scale {
        Scale::Quick => 64,
        _ => 512,
    };
    for gap in [64u64, 512, 4096] {
        let (file, end) = clusters(n_clusters, gap);
        let file_size = end + 4096;
        let requests = vec![ListRequest::gather(file)];
        for method in [Method::DataSieving, Method::List, Method::Hybrid] {
            let outcome = run_method(&requests, IoKind::Read, method, file_size, true);
            rows.push(Row {
                figure: "ext-hybrid",
                panel: format!("intra-cluster gap {gap} B"),
                series: method.name().to_string(),
                x: gap,
                seconds: outcome.seconds,
                requests: outcome.requests,
                wire_bytes: outcome.wire_bytes,
            });
        }
        // Auto-tuned hybrid: derives its gap threshold from the request.
        {
            let outcome = run_method_configured(
                &requests,
                IoKind::Read,
                Method::Hybrid,
                file_size,
                true,
                &MethodConfig {
                    hybrid_auto: true,
                    ..MethodConfig::paper_default()
                },
            );
            rows.push(Row {
                figure: "ext-hybrid",
                panel: format!("intra-cluster gap {gap} B"),
                series: "Hybrid I/O (auto)".to_string(),
                x: gap,
                seconds: outcome.seconds,
                requests: outcome.requests,
                wire_bytes: outcome.wire_bytes,
            });
        }
    }
    rows
}

/// `n` clusters of eight 512-byte regions `gap` bytes apart, each
/// cluster followed by a 1 MiB hole; returns the regions and the offset
/// past the last hole.
fn clusters(n: u64, gap: u64) -> (RegionList, u64) {
    let mut file = RegionList::new();
    let mut off = 0u64;
    for _ in 0..n {
        for _ in 0..8 {
            file.push(Region::new(off, 512));
            off += 512 + gap;
        }
        off += 1 << 20;
    }
    (file, off)
}

/// `n` regions of `len` bytes, `stride` apart, gathered into a
/// contiguous buffer.
fn strided(n: u64, len: u64, stride: u64) -> ListRequest {
    ListRequest::gather(RegionList::from_pairs((0..n).map(|i| (i * stride, len))).unwrap())
}

/// Ablation sweeps over the method parameters *Optimizing
/// Noncontiguous Accesses in MPI-IO* tunes, each point one request on
/// the paper's cluster (the same at every scale):
///
/// * the trailing-data limit (the paper's "conservative" 64) on a list
///   write of 8 192 × 64 B;
/// * the sieve buffer (the paper's 32 MB) on a 50%-dense 8 MiB read;
/// * the hybrid gap threshold on 256 clusters of 8 × 512 B, 128 B apart;
/// * datatype vs list on a regular read of 32 768 × 32 B.
///
/// `x` is the swept setting (regions, bytes, bytes, accesses).
pub fn ablation() -> Vec<Row> {
    let mut rows = Vec::new();
    let mut run = |panel: &str, request: &ListRequest, kind: IoKind, method, x, cfg| {
        let file_size = request.file.extent().expect("regions").end();
        let warm = kind == IoKind::Read;
        let requests = std::slice::from_ref(request);
        let outcome = run_method_configured(requests, kind, method, file_size, warm, &cfg);
        rows.push(art_row("ablation", panel.into(), method, x, outcome));
    };
    let paper = MethodConfig::paper_default;
    let writes = strided(8192, 64, 256);
    for limit in [8, 16, 32, 64] {
        let cfg = MethodConfig {
            max_list_regions: limit as usize,
            ..paper()
        };
        run(
            "trailing-data limit",
            &writes,
            IoKind::Write,
            Method::List,
            limit,
            cfg,
        );
    }
    let dense = strided(16_384, 256, 512);
    for buffer in [256 << 10, 1 << 20, 4 << 20, 32 << 20] {
        let cfg = MethodConfig {
            sieve_buffer: buffer,
            ..paper()
        };
        run(
            "sieve buffer",
            &dense,
            IoKind::Read,
            Method::DataSieving,
            buffer,
            cfg,
        );
    }
    let clustered = ListRequest::gather(clusters(256, 128).0);
    for gap in [0, 128, 1024, 65_536] {
        let cfg = MethodConfig {
            hybrid_gap: gap,
            hybrid_min_density: 0.3,
            ..paper()
        };
        run(
            "hybrid gap",
            &clustered,
            IoKind::Read,
            Method::Hybrid,
            gap,
            cfg,
        );
    }
    let regular = strided(32_768, 32, 128);
    for method in [Method::List, Method::Datatype] {
        run(
            "datatype vs list",
            &regular,
            IoKind::Read,
            method,
            32_768,
            paper(),
        );
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `seconds` of the row with `series` at `x` (the first such row).
    fn at(rows: &[Row], series: &str, x: u64) -> f64 {
        rows.iter()
            .find(|r| r.series == series && r.x == x)
            .unwrap_or_else(|| panic!("no {series} row at {x}"))
            .seconds
    }

    #[test]
    fn quick_fig9_has_expected_grid() {
        let rows = fig9(Scale::Quick);
        // 1 client count × 2 access counts × 3 methods.
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.seconds > 0.0));
        // Multiple I/O must be the slowest at the finest fragmentation.
        assert!(at(&rows, "Multiple I/O", 4096) > at(&rows, "List I/O", 4096));
    }

    #[test]
    fn quick_fig10_write_gap() {
        let rows = fig10(Scale::Quick);
        let ratio = at(&rows, "Multiple I/O", 4096) / at(&rows, "List I/O", 4096);
        assert!(ratio > 10.0, "write gap ratio {ratio}");
    }

    #[test]
    fn quick_fig11_sieving_flat_list_turns_up() {
        let rows = fig11(Scale::Quick);
        let (multiple, sieving, list) = ("Multiple I/O", "Data Sieving I/O", "List I/O");
        // Sieving reads the same windows at every access count.
        assert_eq!(at(&rows, sieving, 1024), at(&rows, sieving, 4096));
        for x in [1024, 4096] {
            assert!(at(&rows, sieving, x) < at(&rows, list, x));
            assert!(at(&rows, list, x) < at(&rows, multiple, x));
        }
        // The upturn: list grows faster than the access count once a
        // 64-region chunk lands on a single server.
        let growth = at(&rows, list, 4096) / at(&rows, list, 1024);
        assert!(growth > 4.0, "list grew {growth}x for 4x the accesses");
    }

    #[test]
    fn quick_fig12_write_gap() {
        let rows = fig12(Scale::Quick);
        for x in [1024, 4096] {
            let ratio = at(&rows, "Multiple I/O", x) / at(&rows, "List I/O", x);
            assert!(ratio > 10.0, "write gap ratio {ratio} at {x}");
        }
        for series in ["Multiple I/O", "List I/O"] {
            assert!(at(&rows, series, 4096) > 3.0 * at(&rows, series, 1024));
        }
    }

    #[test]
    fn quick_ext_hybrid_beats_both_then_meets_list() {
        let rows = ext_hybrid(Scale::Quick);
        let hybrid = at(&rows, "Hybrid I/O", 64);
        assert!(hybrid < at(&rows, "List I/O", 64));
        assert!(hybrid < at(&rows, "Data Sieving I/O", 64));
        // Gaps wider than the threshold leave nothing to sieve.
        assert_eq!(at(&rows, "Hybrid I/O", 4096), at(&rows, "List I/O", 4096));
    }

    #[test]
    fn ablation_matches_the_committed_csv() {
        let committed = include_str!("../../../results/ablation.csv");
        assert_eq!(crate::report::to_csv(&ablation()), committed);
    }

    #[test]
    fn quick_fig15_ordering() {
        let rows = fig15(Scale::Quick);
        // At small client counts: sieving < list < multiple (the
        // paper's ordering).
        assert!(at(&rows, "Data Sieving I/O", 2) < at(&rows, "List I/O", 2));
        assert!(at(&rows, "List I/O", 2) < at(&rows, "Multiple I/O", 2));
    }

    #[test]
    fn fig17_list_wins_read_phase() {
        let rows = fig17(Scale::Quick);
        let read = |series: &str| {
            rows.iter()
                .find(|r| r.series == series && r.panel == "read")
                .unwrap()
                .seconds
        };
        // §4.4.2: "list I/O is able to perform more than twice as well
        // as either of the other two methods". Our sieving lands ~1.8×
        // above list (see EXPERIMENTS.md); multiple is >2× as in the
        // paper.
        assert!(read("Multiple I/O") > 2.0 * read("List I/O"));
        assert!(read("Data Sieving I/O") > 1.5 * read("List I/O"));
    }

    #[test]
    fn ext_datatype_constant_requests() {
        let rows = ext_datatype(Scale::Quick);
        let reqs: Vec<u64> = rows
            .iter()
            .filter(|r| r.series == "Datatype I/O")
            .map(|r| r.requests)
            .collect();
        assert!(reqs.windows(2).all(|w| w[0] == w[1]), "requests {reqs:?}");
    }
}
