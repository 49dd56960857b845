//! The paper's headline findings, as `bb_bench::claims` checks.
//!
//! The live tests run Figures 5, 13c and 14 once, over one shared set of
//! 8×8 cells, and check their claims. The rest run no simulation:
//! `claims_hold_over_committed_csvs` checks every figure's claims over the
//! committed `results/*.csv`, so EXPERIMENTS.md's verdicts are checked
//! against the bytes `scripts/check_results.sh` pins; Figures 9 and 10,
//! which run live in `bb-bench`'s lib tests, also have a test each here.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use bb_bench::claims;
use bb_bench::exp_fault::{fig10_args, fig9_args, fig9_restart_args, fig9_snapshot_args};
use bb_bench::exp_macro::{
    fig13c, fig13c_grid, fig14, fig14_grid, fig5, fig5_grid, Macro, MacroCells,
};
use bb_bench::{Platform, Scale, Table};

/// Per-client rate of the shared cells.
const RATE: f64 = 256.0;

struct Tables {
    peak: Table,
    sweep: Table,
    fig13c: Table,
    fig14: Table,
}

/// Figures 5 (peak, sweep), 13c and 14 over one cell set: every platform ×
/// workload at [`RATE`] over the quick-scale 20 s window, plus Parity's YCSB
/// at two more offered rates for the sweep.
fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let scale = Scale { rates: vec![RATE], ..Scale::quick() };
        let grids = [fig5_grid, fig13c_grid, fig14_grid].map(|grid| grid(&scale));
        let window = scale.duration;
        let parity = [64.0, 512.0].map(|rate| (Platform::Parity, Macro::Ycsb, rate, window));
        let cells = MacroCells::run(grids.into_iter().flatten().chain(parity));
        let (peak, sweep) = fig5(&cells, &scale);
        Tables { peak, sweep, fig13c: fig13c(&cells, &scale), fig14: fig14(&cells, &scale) }
    })
}

#[test]
fn hyperledger_wins_both_macro_benchmarks() -> Result<(), String> {
    claims::fig5_fabric_beats_ethereum_beats_parity(&tables().peak)
}

#[test]
fn parity_throughput_is_flat_in_offered_load() -> Result<(), String> {
    claims::fig5_parity_flat_in_offered_load(&tables().sweep, &[64.0, RATE, 512.0])
}

#[test]
fn donothing_isolates_the_bottleneck() -> Result<(), String> {
    claims::fig13c_donothing_isolates_the_bottleneck(&tables().fig13c)
}

#[test]
fn smallbank_costs_blockchains_little_but_hstore_much() -> Result<(), String> {
    claims::fig14_smallbank_costs_blockchains_little_but_hstore_much(&tables().fig14)
}

/// The sweep holds both workloads only at [`RATE`].
#[test]
fn parity_blocks_are_full() -> Result<(), String> {
    let t = tables();
    claims::parity_blocks_are_full(&t.sweep, &[RATE], &t.fig13c, &t.fig14, Scale::quick().duration)
}

fn results(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results").join(name)
}

fn csv(name: &str) -> Result<Table, String> {
    Table::read_csv(&results(name))
}

/// Figure 9 over its committed CSV (it runs live in `exp_fault`): PoW and
/// PoA survive 4 crashes, PBFT stalls at 12 servers.
#[test]
fn crash_tolerance_split() -> Result<(), String> {
    let (window, fail_at, _) = fig9_args(&Scale::quick());
    claims::fig9_pbft12_stalls_pbft16_and_pow_survive(&csv("fig9_crash.csv")?, window, fail_at)
}

/// Figure 10 over its committed CSV (it runs live in `exp_fault`).
#[test]
fn partition_forks_pow_and_poa_only() -> Result<(), String> {
    let (window, ..) = fig10_args(&Scale::quick());
    claims::fig10_partition_forks_pow_and_poa_never_pbft(&csv("fig10_partition.csv")?, window)
}

/// Every claim over the CSVs `figures all` wrote at quick scale, with the
/// arguments `figures` ran each figure at.
#[test]
fn claims_hold_over_committed_csvs() -> Result<(), String> {
    use claims::*;
    let quick = Scale::quick();
    fig5_fabric_beats_ethereum_beats_parity(&csv("fig5_peak.csv")?)?;
    let sweep = csv("fig5_sweep.csv")?;
    fig5_parity_flat_in_offered_load(&sweep, &quick.rates)?;
    crash_tolerance_split()?;
    let (window, fail_at, restart_at, _) = fig9_restart_args(&quick);
    fig9_restart_rejoins_and_recovers(&csv("fig9_restart.csv")?, window, fail_at, restart_at)?;
    let (window, fail_at, restart_at, _) = fig9_snapshot_args(&quick);
    let t = csv("fig9_snapshot.csv")?;
    fig9_snapshot_recovers_at_least_as_fast_as_replay(&t, window, fail_at, restart_at)?;
    partition_forks_pow_and_poa_only()?;
    fig11_ethereum_ooms_hyperledger_finishes(&csv("fig11_cpuheavy.csv")?, &quick.cpu_sizes)?;
    fig13b_fabric_q2_needs_one_round_trip(&csv("fig13b_q2.csv")?, &quick.analytics_spans)?;
    let (fig13c, fig14) = (csv("fig13c_donothing.csv")?, csv("fig14_hstore.csv")?);
    fig13c_donothing_isolates_the_bottleneck(&fig13c)?;
    fig14_smallbank_costs_blockchains_little_but_hstore_much(&fig14)?;
    parity_blocks_are_full(&sweep, &quick.rates, &fig13c, &fig14, quick.duration)?;
    let difficulty = csv("ablation_difficulty.csv")?;
    fig8_ethereum_degrades_with_size_but_survives(&difficulty)?;
    ablation_a_unbounded_channel_prevents_the_collapse(&csv("ablation_channel.csv")?)?;
    ablation_b_flat_difficulty_removes_ethereum_decay(&difficulty)?;
    ablation_c_cheaper_signing_unlocks_parity(&csv("ablation_signing.csv")?)?;
    let chaos = csv("fig_chaos.csv")?;
    fig_chaos_covers_every_cell(&chaos)?;
    fig_chaos_every_cell_is_live(&chaos)?;
    fig_chaos_every_cell_is_safe(&chaos)?;
    fig_chaos_mechanisms_fired(&chaos)
}

/// A claim is not vacuous over the CSVs: Figure 5's peak table with the
/// Hyperledger and Parity rows swapped fails it.
#[test]
fn a_doctored_csv_fails_its_claim() {
    let text = std::fs::read_to_string(results("fig5_peak.csv")).unwrap();
    let swapped = text.replace("parity", "@").replace("hyperledger", "parity");
    let swapped = swapped.replace('@', "hyperledger");
    let path = std::env::temp_dir().join(format!("bb_doctored_fig5_{}.csv", std::process::id()));
    std::fs::write(&path, swapped).unwrap();
    let doctored = Table::read_csv(&path);
    let _ = std::fs::remove_file(&path);
    let err = claims::fig5_fabric_beats_ethereum_beats_parity(&doctored.unwrap()).unwrap_err();
    assert!(err.contains("hyperledger"), "{err}");
}
