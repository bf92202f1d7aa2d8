//! Regenerate the paper's measured figures.
//!
//! ```text
//! figures [FIGURE ...] [--scale quick|mid|paper] [--out DIR] [--transport chan|tcp]
//!
//! FIGURE: fig9 fig10 fig11 fig12 fig15 fig17 ext-datatype ext-hybrid wire chaos durability collective replica trace all
//! ```
//!
//! Writes one CSV per figure into `--out` (default `results/`) and
//! prints the tables. Simulated seconds come from the calibrated Chiba
//! City cost model; compare *shapes* with the paper, not absolute
//! values (see EXPERIMENTS.md). The `wire` figure instead runs on the
//! **live** cluster over the transport chosen by `--transport`
//! (in-process channels or real TCP loopback sockets) and reports the
//! request frames and bytes the daemons actually received. The `chaos`
//! figure is also live: list-I/O goodput under 0–20% injected
//! transport faults, retries on vs off.

use pvfs_bench::figures::{ext_datatype, ext_hybrid};
use pvfs_bench::{
    chaos, collective, durability, fig10, fig11, fig12, fig15, fig17, fig9, render_bars,
    render_table, replica, trace, wire, write_csv, Row, Scale,
};
use pvfs_net::TransportKind;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let mut figures: Vec<String> = Vec::new();
    let mut scale = Scale::Mid;
    let mut out_dir = PathBuf::from("results");
    let mut transport = TransportKind::Chan;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_default();
                scale = Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown scale '{v}' (quick|mid|paper)");
                    std::process::exit(2);
                });
            }
            "--out" => {
                out_dir = PathBuf::from(args.next().unwrap_or_else(|| "results".into()));
            }
            "--transport" => {
                let v = args.next().unwrap_or_default();
                transport = TransportKind::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown transport '{v}' (chan|tcp)");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!(
                    "usage: figures [fig9 fig10 fig11 fig12 fig15 fig17 ext-datatype ext-hybrid wire chaos durability collective replica trace | all] \
                     [--scale quick|mid|paper] [--out DIR] [--transport chan|tcp]\n\
                     (--transport selects the live cluster's transport for the `wire`, `chaos`, `durability`,\n\
                      `collective`, `replica`, and `trace` figures; the fig* figures run on the calibrated simulator)"
                );
                return;
            }
            other => figures.push(other.to_string()),
        }
    }
    if figures.is_empty() || figures.iter().any(|f| f == "all") {
        figures = [
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig15",
            "fig17",
            "ext-datatype",
            "ext-hybrid",
            "wire",
            "chaos",
            "durability",
            "collective",
            "replica",
            "trace",
        ]
        .map(String::from)
        .to_vec();
    }

    for name in &figures {
        let started = Instant::now();
        eprintln!("running {name} at {scale:?} scale ...");
        let rows: Vec<Row> = match name.as_str() {
            "fig9" => fig9(scale),
            "fig10" => fig10(scale),
            "fig11" => fig11(scale),
            "fig12" => fig12(scale),
            "fig15" => fig15(scale),
            "fig17" => fig17(scale),
            "ext-datatype" => ext_datatype(scale),
            "ext-hybrid" => ext_hybrid(scale),
            "wire" => wire(scale, transport),
            "chaos" => chaos(scale, transport),
            "durability" => durability(scale, transport),
            "collective" => collective(scale, transport),
            "replica" => replica(scale, transport),
            "trace" => trace(scale, transport),
            other => {
                eprintln!("unknown figure '{other}'");
                std::process::exit(2);
            }
        };
        let path = out_dir.join(format!("{name}.csv"));
        write_csv(&rows, &path).expect("write csv");
        println!("{}", render_table(&rows));
        println!("{}", render_bars(&rows));
        eprintln!(
            "{name}: {} rows -> {} ({:.1}s wall)",
            rows.len(),
            path.display(),
            started.elapsed().as_secs_f64()
        );
    }
}
