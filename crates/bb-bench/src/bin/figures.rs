//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures [all|fig5|fig6|fig7|fig8|fig9|fig9r|fig10|fig11|fig12|fig13|fig14|fig15|fig16|fig17|fig18|fig19|fig_saturation|fig_chaos|ablations] [--paper]
//! ```
//!
//! Each figure prints as an aligned table and is also written to
//! `results/<figure>.csv`. `--paper` stretches windows and sweeps toward the
//! original dimensions (slower) and writes to `results/paper/<figure>.csv`,
//! so it cannot overwrite the quick-scale CSVs `scripts/check_results.sh`
//! gates; the default "quick" scale regenerates every figure in minutes.
//! An unknown figure name or flag prints the usage line and exits 2; a CSV
//! that cannot be written exits 1. EXPERIMENTS.md records paper-vs-measured
//! per figure.

use bb_bench::exp_ablation::{ablation_channel, ablation_difficulty, ablation_signing};
use bb_bench::exp_chaos::fig_chaos;
use bb_bench::exp_fault::{
    fig10, fig10_args, fig9, fig9_args, fig9_restart, fig9_restart_args, fig9_snapshot,
    fig9_snapshot_args,
};
use bb_bench::exp_macro::{
    fig13c, fig13c_grid, fig14, fig14_grid, fig15, fig16, fig16_grid, fig17, fig17_grid, fig18,
    fig18_grid, fig19_grid, fig5, fig5_grid, fig6, fig6_grid, fig7, fig7_grid, fig8, fig8_grid,
    Macro, MacroCells, MacroKey,
};
use bb_bench::exp_micro::{fig11, fig12, fig13ab};
use bb_bench::exp_saturation::fig_saturation;
use bb_bench::{Scale, Table};
use std::path::Path;

/// Every name `want` is asked about below, in the order the figures run
/// (`want` panics on one that is missing here).
const FIGURES: [&str; 19] = [
    "fig5", "fig6", "fig7", "fig8", "fig9", "fig9r", "fig10", "fig11", "fig12", "fig13", "fig14",
    "fig15", "fig16", "fig17", "fig18", "fig19", "fig_saturation", "fig_chaos", "ablations",
];

/// The cells a closed-loop figure reads at a scale.
type Grid = fn(&Scale) -> Vec<MacroKey>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paper = false;
    let mut wanted = Vec::new();
    for arg in &args {
        match arg.as_str() {
            "--paper" => paper = true,
            name if name == "all" || FIGURES.contains(&name) => wanted.push(name),
            bad => {
                eprintln!("figures: unknown argument {bad}");
                eprintln!("usage: figures [all|{}] [--paper]", FIGURES.join("|"));
                std::process::exit(2);
            }
        }
    }
    let run_all = wanted.is_empty() || wanted.contains(&"all");
    let want = |name: &str| {
        assert!(FIGURES.contains(&name), "{name} is missing from FIGURES");
        run_all || wanted.contains(&name)
    };
    let scale = if paper { Scale::paper() } else { Scale::quick() };
    let dir = Path::new(if paper { "results/paper" } else { "results" });
    let emit = |table: &Table, csv_name: &str| {
        println!("{}", table.render());
        let path = dir.join(csv_name);
        if let Err(e) = table.write_csv(&path) {
            eprintln!("figures: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("   [written to {}]\n", path.display());
    };

    println!(
        "BLOCKBENCH-RS figure harness — scale: {} (duration {}s)\n",
        if paper { "paper" } else { "quick" },
        scale.duration.as_secs_f64()
    );

    // The closed-loop figures are views of one cell set: the union of the
    // wanted figures' grids, each distinct cell run once.
    let grids: [(&str, Grid); 10] = [
        ("fig5", fig5_grid), ("fig6", fig6_grid), ("fig7", fig7_grid), ("fig8", fig8_grid),
        ("fig13", fig13c_grid), ("fig14", fig14_grid), ("fig16", fig16_grid),
        ("fig17", fig17_grid), ("fig18", fig18_grid), ("fig19", fig19_grid),
    ];
    let wanted_grids = grids.into_iter().filter(|&(name, _)| want(name));
    let cells = MacroCells::run(wanted_grids.flat_map(|(_, grid)| grid(&scale)));

    if want("fig5") {
        let (peak, sweep) = fig5(&cells, &scale);
        emit(&peak, "fig5_peak.csv");
        emit(&sweep, "fig5_sweep.csv");
    }
    if want("fig6") {
        emit(&fig6(&cells, &scale), "fig6_queues.csv");
    }
    if want("fig7") {
        emit(&fig7(&cells, &scale, Macro::Ycsb), "fig7_scalability_ycsb.csv");
    }
    if want("fig8") {
        emit(&fig8(&cells, &scale), "fig8_scalability_8clients.csv");
    }
    if want("fig9") {
        let (window, fail_at, rate) = fig9_args(&scale);
        emit(&fig9(window, fail_at, rate), "fig9_crash.csv");
    }
    if want("fig9r") {
        let (window, fail_at, restart_at, rate) = fig9_restart_args(&scale);
        emit(&fig9_restart(window, fail_at, restart_at, rate), "fig9_restart.csv");
        let (window, fail_at, restart_at, rate) = fig9_snapshot_args(&scale);
        emit(&fig9_snapshot(window, fail_at, restart_at, rate), "fig9_snapshot.csv");
    }
    if want("fig10") {
        let (window, partition_at, partition_secs, rate) = fig10_args(&scale);
        emit(&fig10(window, partition_at, partition_secs, rate), "fig10_partition.csv");
    }
    if want("fig11") {
        emit(&fig11(&scale), "fig11_cpuheavy.csv");
    }
    if want("fig12") {
        emit(&fig12(&scale), "fig12_ioheavy.csv");
    }
    if want("fig13") {
        let (q1, q2) = fig13ab(&scale);
        emit(&q1, "fig13a_q1.csv");
        emit(&q2, "fig13b_q2.csv");
        emit(&fig13c(&cells, &scale), "fig13c_donothing.csv");
    }
    if want("fig14") {
        emit(&fig14(&cells, &scale), "fig14_hstore.csv");
    }
    if want("fig15") {
        emit(&fig15(&scale), "fig15_blocksize.csv");
    }
    if want("fig16") {
        emit(&fig16(&cells, &scale), "fig16_utilisation.csv");
    }
    if want("fig17") {
        emit(&fig17(&cells, &scale), "fig17_latency_cdf.csv");
    }
    if want("fig18") {
        emit(&fig18(&cells, &scale), "fig18_queue_20x20.csv");
    }
    if want("fig19") {
        emit(&fig7(&cells, &scale, Macro::Smallbank), "fig19_scalability_smallbank.csv");
    }
    if want("fig_saturation") {
        emit(&fig_saturation(&scale), "fig_saturation.csv");
    }
    if want("fig_chaos") {
        // The matrix shape is calibrated around the 60-second window
        // (chaos at 20..35s, recovery measured from 40s).
        emit(&fig_chaos(60, scale.base_rate / 5.0), "fig_chaos.csv");
    }
    if want("ablations") {
        emit(&ablation_channel(scale.duration), "ablation_channel.csv");
        emit(&ablation_difficulty(scale.duration.max(bb_sim::SimDuration::from_secs(60))), "ablation_difficulty.csv");
        emit(&ablation_signing(scale.duration), "ablation_signing.csv");
    }
}
