//! Regenerate the paper's measured figures.
//!
//! ```text
//! figures [FIGURE ...] [--scale quick|mid|paper] [--out DIR]
//!
//! FIGURE: fig9 fig10 fig11 fig12 fig15 fig17 ext-datatype ext-hybrid ablation all
//! ```
//!
//! Writes one CSV per figure into `--out` (default `results/`) and
//! prints the tables. `ablation` runs the same grid at every scale. Simulated seconds come from the calibrated Chiba
//! City cost model; compare *shapes* with the paper, not absolute
//! values (see EXPERIMENTS.md). The live cluster is timed by `perf/`.

use pvfs_bench::figures::{ablation, ext_datatype, ext_hybrid};
use pvfs_bench::{
    fig10, fig11, fig12, fig15, fig17, fig9, render_bars, render_table, write_csv, Row, Scale,
};
use std::path::PathBuf;

const ALL: [&str; 9] = [
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig15",
    "fig17",
    "ext-datatype",
    "ext-hybrid",
    "ablation",
];

fn main() {
    let mut figures: Vec<String> = Vec::new();
    let mut scale = Scale::Mid;
    let mut out_dir = PathBuf::from("results");
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
            "--help" | "-h" => {
                println!(
                    "usage: figures [{} | all] [--scale quick|mid|paper] [--out DIR]",
                    ALL.join(" ")
                );
                return;
            }
            other => figures.push(other.to_string()),
        }
    }
    if figures.is_empty() || figures.iter().any(|f| f == "all") {
        figures = ALL.map(String::from).to_vec();
    }

    for name in &figures {
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
            "ablation" => ablation(),
            other => {
                eprintln!("unknown figure '{other}'");
                std::process::exit(2);
            }
        };
        let path = out_dir.join(format!("{name}.csv"));
        write_csv(&rows, &path).expect("write csv");
        println!("{}", render_table(&rows));
        println!("{}", render_bars(&rows));
        eprintln!("{name}: {} rows -> {}", rows.len(), path.display());
    }
}
