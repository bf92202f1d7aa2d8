//! Figure-regeneration harness.
//!
//! One function per measured figure of the paper, per extension figure,
//! and one for the ablation sweeps. Each returns [`Row`]s — `(panel,
//! series, x, simulated seconds, …)` — which the `figures` binary renders
//! as CSV + text tables and EXPERIMENTS.md quotes. Seconds come from the
//! calibrated cost model (`pvfs_sim::CostConfig`); the target is the
//! *shape*: who wins, by how much, and where the crossovers fall.
//!
//! All experiments run on the paper's cluster: 8 I/O servers (one
//! doubling as manager), 16 KiB stripes, 100 Mb/s Ethernet.

pub mod figures;
pub mod plot;
pub mod report;

pub use figures::{fig10, fig11, fig12, fig15, fig17, fig9, Scale};
pub use plot::render_bars;
pub use report::{render_table, write_csv, Row};

/// Every figure the `figures` binary runs, in the order `all` runs them.
pub const FIGURES: [&str; 9] = [
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
