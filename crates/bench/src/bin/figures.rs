//! Regenerate the paper's measured figures.
//!
//! ```text
//! figures [FIGURE ...] [--scale quick|mid|paper] [--out DIR]
//! ```
//!
//! FIGURE is a name in [`pvfs_bench::FIGURES`] or `all`. Writes one CSV
//! per figure into `--out` (default `results/`) and prints the tables.
//! Simulated seconds come from the calibrated Chiba City cost model;
//! compare *shapes* with the paper, not absolute values (see
//! EXPERIMENTS.md).

use pvfs_bench::{render_bars, render_table, write_csv, Scale, FIGURES};
use std::path::PathBuf;

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
                let names = FIGURES.map(|(name, _)| name).join(" ");
                println!("usage: figures [{names} | all] [--scale quick|mid|paper] [--out DIR]");
                return;
            }
            other => figures.push(other.to_string()),
        }
    }
    if figures.is_empty() || figures.iter().any(|f| f == "all") {
        figures = FIGURES.iter().map(|(name, _)| name.to_string()).collect();
    }

    for name in &figures {
        let Some((_, run)) = FIGURES.iter().find(|(known, _)| known == name) else {
            eprintln!("unknown figure '{name}'");
            std::process::exit(2);
        };
        eprintln!("running {name} at {scale:?} scale ...");
        let rows = run(scale);
        let path = out_dir.join(format!("{name}.csv"));
        write_csv(&rows, &path).expect("write csv");
        println!("{}", render_table(&rows));
        println!("{}", render_bars(&rows));
        eprintln!("{name}: {} rows -> {}", rows.len(), path.display());
    }
}
