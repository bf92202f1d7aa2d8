//! One function per measured figure.

use crate::report::Row;
use pvfs_core::{IoKind, ListRequest, Method, MethodConfig};
use pvfs_sim::{metadata_rtt_ns, ClientJob, SimCluster};
use pvfs_types::{FileHandle, PvfsResult, Region, RegionList, StripeLayout};
use pvfs_workloads::{BlockBlock, Cyclic, FlashIo, TiledViz};

const FH: FileHandle = FileHandle(42);

/// The methods the paper's write figures compare (its data sieving
/// writes would need a file lock).
const WRITERS: [Method; 2] = [Method::Multiple, Method::List];

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

    /// Cyclic panels: (clients, aggregate bytes).
    fn cyclic_panels(self) -> Vec<(u64, u64)> {
        let (clients, aggregate): (&[u64], u64) = match self {
            Scale::Quick => (&[4], 8 << 20),
            Scale::Mid => (&[8, 16], 256 << 20),
            Scale::Paper => (&[8, 16, 32], 1 << 30),
        };
        clients.iter().map(|&c| (c, aggregate)).collect()
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

    /// Accesses per client, the x axis of every cyclic and block-block
    /// panel.
    fn accesses(self) -> &'static [u64] {
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

/// A figure: its rows at a scale.
pub type Runner = fn(Scale) -> Vec<Row>;

/// Outcome of one simulated run.
#[derive(Debug, Clone, Copy)]
pub struct RunOutcome {
    /// Simulated makespan in seconds.
    pub seconds: f64,
    /// Total wire requests.
    pub requests: u64,
    /// Payload bytes the clients sent and received (useful + waste).
    pub wire_bytes: u64,
}

/// Run one (method, kind) over a set of per-client requests on the
/// paper's 8-server cluster with the paper-default method tuning. A
/// read runs warm: the daemons' caches hold the file first.
pub fn run_method(
    requests: &[ListRequest],
    kind: IoKind,
    method: Method,
    file_size: u64,
) -> RunOutcome {
    let paper = MethodConfig::paper_default();
    run_method_configured(requests, kind, method, file_size, &paper)
}

/// [`run_method`] with explicit method tuning.
pub fn run_method_configured(
    requests: &[ListRequest],
    kind: IoKind,
    method: Method,
    file_size: u64,
    cfg: &MethodConfig,
) -> RunOutcome {
    let layout = StripeLayout::paper_default(8);
    let mut sim = SimCluster::paper_default();
    if kind == IoKind::Read {
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

/// The one place a [`Row`] is built: `outcome` as the point `x` of
/// `series` in `panel` of `figure`.
fn row(figure: &'static str, panel: String, series: &str, x: u64, outcome: RunOutcome) -> Row {
    Row {
        figure,
        panel,
        series: series.to_string(),
        x,
        seconds: outcome.seconds,
        requests: outcome.requests,
        wire_bytes: outcome.wire_bytes,
    }
}

/// Ranks `0..clients`' requests of a workload.
fn per_client(clients: u64, request: impl Fn(u64) -> PvfsResult<ListRequest>) -> Vec<ListRequest> {
    (0..clients)
        .map(|k| request(k).expect("valid workload"))
        .collect()
}

/// The two artificial patterns of the paper's §4.3.
#[derive(Clone, Copy)]
enum Pattern {
    Cyclic,
    BlockBlock,
}

/// The grid of Figs. 9–12 and ext-datatype: in each `(clients,
/// aggregate bytes)` panel of `pattern`, at each access count, every
/// method of each `(kind, methods)` run, reads warm. A figure that runs
/// both kinds names the kind in its panels.
fn sweep(
    figure: &'static str,
    pattern: Pattern,
    panels: &[(u64, u64)],
    counts: &[u64],
    runs: &[(IoKind, &[Method])],
) -> Vec<Row> {
    let mut rows = Vec::new();
    for &(clients, aggregate_bytes) in panels {
        for &accesses in counts {
            let (requests, file_size) = match pattern {
                Pattern::Cyclic => {
                    let p = Cyclic {
                        clients,
                        accesses_per_client: accesses,
                        aggregate_bytes,
                    };
                    (per_client(clients, |k| p.request_for(k)), p.file_size())
                }
                Pattern::BlockBlock => {
                    let p = BlockBlock {
                        clients,
                        accesses_per_client: accesses,
                        aggregate_bytes,
                    };
                    (per_client(clients, |k| p.request_for(k)), p.file_size())
                }
            };
            for &(kind, methods) in runs {
                let panel = match runs.len() {
                    1 => format!("{clients} clients"),
                    _ => format!("{clients} clients {kind:?}"),
                };
                for &method in methods {
                    let outcome = run_method(&requests, kind, method, file_size);
                    rows.push(row(figure, panel.clone(), method.name(), accesses, outcome));
                }
            }
        }
    }
    rows
}

/// Fig. 9 — one-dimensional cyclic **reads**: multiple vs data sieving
/// vs list I/O across access counts, one panel per client count.
pub fn fig9(scale: Scale) -> Vec<Row> {
    sweep(
        "fig9",
        Pattern::Cyclic,
        &scale.cyclic_panels(),
        scale.accesses(),
        &[(IoKind::Read, &Method::PAPER)],
    )
}

/// Fig. 10 — one-dimensional cyclic **writes**: multiple vs list I/O
/// (the paper omits data sieving writes here; with no file locking the
/// artificial benchmark's writers would need full serialization).
pub fn fig10(scale: Scale) -> Vec<Row> {
    sweep(
        "fig10",
        Pattern::Cyclic,
        &scale.cyclic_panels(),
        scale.accesses(),
        &[(IoKind::Write, &WRITERS)],
    )
}

/// Fig. 11 — block-block **reads**: the panel set where the paper
/// observes the list-I/O upturn near ≈150 bytes/access.
pub fn fig11(scale: Scale) -> Vec<Row> {
    sweep(
        "fig11",
        Pattern::BlockBlock,
        &scale.blockblock_panels(),
        scale.accesses(),
        &[(IoKind::Read, &Method::PAPER)],
    )
}

/// Fig. 12 — block-block **writes**: multiple vs list I/O.
pub fn fig12(scale: Scale) -> Vec<Row> {
    sweep(
        "fig12",
        Pattern::BlockBlock,
        &scale.blockblock_panels(),
        scale.accesses(),
        &[(IoKind::Write, &WRITERS)],
    )
}

/// Fig. 15 — the FLASH I/O checkpoint write across client counts,
/// multiple vs data sieving vs list I/O (log-scale bars in the paper).
pub fn fig15(scale: Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    for &nprocs in scale.flash_procs() {
        let flash = FlashIo::scaled(nprocs, scale.flash_blocks());
        let requests = per_client(nprocs, |p| flash.request_for(p));
        for method in Method::PAPER {
            let outcome = run_method(&requests, IoKind::Write, method, flash.file_size());
            rows.push(row(
                "fig15",
                "checkpoint write".into(),
                method.name(),
                nprocs,
                outcome,
            ));
        }
    }
    rows
}

/// Fig. 17 — tiled visualization read with 6 clients: open / read /
/// close time per method. Always the paper's exact configuration
/// (the frame is only 10.2 MiB).
pub fn fig17(_scale: Scale) -> Vec<Row> {
    let t = TiledViz::paper();
    let requests = per_client(t.clients(), |k| t.request_for(k));
    let open_close = metadata_rtt_ns() as f64 / 1e9;
    let mut rows = Vec::new();
    for method in Method::PAPER {
        let outcome = run_method(&requests, IoKind::Read, method, t.file_size());
        for (phase, seconds) in [
            ("open", open_close),
            ("read", outcome.seconds),
            ("close", open_close),
        ] {
            let point = RunOutcome { seconds, ..outcome };
            rows.push(row(
                "fig17",
                phase.into(),
                method.name(),
                t.clients(),
                point,
            ));
        }
    }
    rows
}

/// Extension experiment — datatype I/O (§5 future work) against the
/// paper's methods on the 1-D cyclic pattern, both directions: the
/// request count stays constant as fragmentation grows, which pays off
/// most on writes where each round stalls on the write acknowledgement.
pub fn ext_datatype(scale: Scale) -> Vec<Row> {
    let methods: &[Method] = &[Method::Multiple, Method::List, Method::Datatype];
    let runs = [(IoKind::Read, methods), (IoKind::Write, methods)];
    let (first, counts) = (&scale.cyclic_panels()[..1], scale.accesses());
    sweep("ext-datatype", Pattern::Cyclic, first, counts, &runs)
}

/// Extension experiment — hybrid list+sieving (§5 future work) across
/// gap densities on a clustered pattern.
pub fn ext_hybrid(scale: Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    let n_clusters = if scale == Scale::Quick { 64 } else { 512 };
    let auto = MethodConfig {
        hybrid_auto: true,
        ..MethodConfig::paper_default()
    };
    for gap in [64u64, 512, 4096] {
        let (file, end) = clusters(n_clusters, gap);
        let file_size = end + 4096;
        let requests = vec![ListRequest::gather(file)];
        let panel = format!("intra-cluster gap {gap} B");
        for method in [Method::DataSieving, Method::List, Method::Hybrid] {
            let outcome = run_method(&requests, IoKind::Read, method, file_size);
            rows.push(row(
                "ext-hybrid",
                panel.clone(),
                method.name(),
                gap,
                outcome,
            ));
        }
        // Auto-tuned hybrid: derives its gap threshold from the request.
        let outcome =
            run_method_configured(&requests, IoKind::Read, Method::Hybrid, file_size, &auto);
        rows.push(row("ext-hybrid", panel, "Hybrid I/O (auto)", gap, outcome));
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
        let requests = std::slice::from_ref(request);
        let outcome = run_method_configured(requests, kind, method, file_size, &cfg);
        rows.push(row("ablation", panel.into(), method.name(), x, outcome));
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

    /// Fig. 17 ignores its scale: it always runs the paper's frame, so
    /// its rows are `results/fig17.csv` exactly.
    #[test]
    fn fig17_matches_the_committed_csv() {
        let committed = include_str!("../../../results/fig17.csv");
        assert_eq!(crate::report::to_csv(&fig17(Scale::Quick)), committed);
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
