//! Macro-benchmark experiments: Figures 5, 6, 13c, 14, 15, 16, 17 and 18.
//!
//! Every `(platform, workload, rate)` cell is an isolated simulated world, so
//! the sweeps scatter their cells across threads via [`crate::parallel`] and
//! rebuild the tables from the index-ordered results — output is
//! byte-identical to the serial order (`BB_WORKERS=1`).

use crate::parallel::{cost_hint, map_cells, map_cells_hinted};
use crate::platforms::{Platform, Scale, ALL_PLATFORMS};
use crate::table::{num, Table};
use bb_ethereum::{EthConfig, EthereumChain};
use bb_fabric::{FabricChain, FabricConfig};
use bb_parity::{ParityChain, ParityConfig};
use bb_sim::SimDuration;
use blockbench::driver::{run_workload, DriverConfig, WorkloadConnector};
use blockbench::{BlockchainConnector, RunStats};
use bb_workloads::smallbank::SmallbankConfig;
use bb_workloads::ycsb::YcsbConfig;
use bb_workloads::{DoNothingWorkload, SmallbankWorkload, YcsbWorkload};

/// The macro workloads of Figures 5–10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Macro {
    /// Key-value store workload.
    Ycsb,
    /// OLTP banking workload.
    Smallbank,
    /// Consensus-only no-ops (Figure 13c).
    DoNothing,
}

impl Macro {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Macro::Ycsb => "YCSB",
            Macro::Smallbank => "Smallbank",
            Macro::DoNothing => "DoNothing",
        }
    }

    /// Build the workload connector, provisioned for `clients`.
    pub fn build(self, clients: u32) -> Box<dyn WorkloadConnector> {
        match self {
            Macro::Ycsb => Box::new(YcsbWorkload::new(YcsbConfig {
                clients: clients.max(32),
                preload_records: 500,
                ..YcsbConfig::default()
            })),
            Macro::Smallbank => Box::new(SmallbankWorkload::new(SmallbankConfig {
                clients: clients.max(32),
                // Fund the whole population so transfers rarely bounce —
                // the paper's Smallbank numbers count successful procedures.
                preload_accounts: 2_000,
                accounts: 2_000,
                ..SmallbankConfig::default()
            })),
            Macro::DoNothing => Box::new(DoNothingWorkload::new(clients.max(32))),
        }
    }
}

/// Run one macro configuration.
pub fn run_macro(
    platform: Platform,
    workload: Macro,
    nodes: u32,
    clients: u32,
    rate_per_client: f64,
    duration: SimDuration,
) -> RunStats {
    let mut chain = platform.build(nodes);
    let mut wl = workload.build(clients);
    run_workload(
        chain.as_mut(),
        wl.as_mut(),
        &DriverConfig {
            clients,
            rate_per_client,
            duration,
            poll_interval: SimDuration::from_millis(500),
            drain: SimDuration::from_secs(20),
        },
    )
}

/// 8-server × 8-client macro cells, each `(platform, workload, rate/client)`
/// run once over one window, in grid order. Figures 5, 6, 13c, 14, 16 and 17
/// are views of such a set.
pub struct MacroCells(Vec<((Platform, Macro, f64), RunStats)>);

impl MacroCells {
    /// Run every cell of `grid` (no two alike) for `dur`.
    pub fn run(grid: impl IntoIterator<Item = (Platform, Macro, f64)>, dur: SimDuration) -> Self {
        let keys: Vec<_> = grid.into_iter().collect();
        // The cells share 8 nodes × one duration; the request rate is what
        // separates a 5-second world from a 50-second one, so it goes into
        // the hint.
        let hint = |rate: f64| cost_hint(8, dur).saturating_mul(rate as u64 + 1);
        let cells = keys.iter().map(|&(p, w, rate)| (hint(rate), (p, w, rate))).collect();
        let stats = map_cells_hinted(cells, move |(platform, workload, rate)| {
            run_macro(platform, workload, 8, 8, rate, dur)
        });
        MacroCells(keys.into_iter().zip(stats).collect())
    }

    /// Every platform × `workloads` × `rates`, run for `duration`.
    fn grid(workloads: &[Macro], rates: &[f64], duration: SimDuration) -> Self {
        let grid = ALL_PLATFORMS.into_iter().flat_map(|p| {
            workloads.iter().flat_map(move |&w| rates.iter().map(move |&r| (p, w, r)))
        });
        MacroCells::run(grid, duration)
    }

    /// The rates `platform` ran `workload` at, with their stats, in grid order.
    fn rates(&self, platform: Platform, workload: Macro) -> impl Iterator<Item = (f64, &RunStats)> {
        let cells = self.0.iter().filter(move |((p, w, _), _)| (*p, *w) == (platform, workload));
        cells.map(|((_, _, rate), stats)| (*rate, stats))
    }

    /// The stats of one cell.
    fn get(&self, platform: Platform, workload: Macro, rate: f64) -> &RunStats {
        let mut cell = self.rates(platform, workload).filter(|&(r, _)| r == rate);
        cell.next().expect("cell in the set").1
    }
}

/// The last (saturating) rate of `scale`'s sweep.
fn top_rate(scale: &Scale) -> f64 {
    *scale.rates.last().expect("rates nonempty")
}

/// Figure 5: throughput and latency at 8 servers × 8 clients, with the
/// request-rate sweep. Returns (peak table, sweep table).
pub fn fig5(scale: &Scale) -> (Table, Table) {
    fig5_tables(&MacroCells::grid(&[Macro::Ycsb, Macro::Smallbank], &scale.rates, scale.duration))
}

/// Figure 5's (peak, sweep) tables over the YCSB and Smallbank rows of `cells`.
pub fn fig5_tables(cells: &MacroCells) -> (Table, Table) {
    let mut peak = Table::new(
        "Figure 5a: peak performance (8 servers, 8 clients)",
        &["platform", "workload", "peak tx/s", "latency s (mean)", "p99 s"],
    );
    let mut sweep = Table::new(
        "Figure 5b/c: performance vs request rate (per client)",
        &["platform", "workload", "rate/client", "tx/s", "latency s"],
    );
    for platform in ALL_PLATFORMS {
        for workload in [Macro::Ycsb, Macro::Smallbank] {
            let mut best: Option<&RunStats> = None;
            for (rate, stats) in cells.rates(platform, workload) {
                sweep.row(vec![
                    platform.name().into(),
                    workload.name().into(),
                    num(rate),
                    num(stats.throughput_tps()),
                    num(stats.mean_latency().unwrap_or(f64::NAN)),
                ]);
                if best.map(|b| stats.throughput_tps() > b.throughput_tps()).unwrap_or(true) {
                    best = Some(stats);
                }
            }
            let best = best.expect("at least one rate");
            peak.row(vec![
                platform.name().into(),
                workload.name().into(),
                num(best.throughput_tps()),
                num(best.mean_latency().unwrap_or(f64::NAN)),
                num(best.latency_quantile(0.99).unwrap_or(f64::NAN)),
            ]);
        }
    }
    (peak, sweep)
}

/// Figure 6: client request-queue length over time at 8 tx/s and 512 tx/s
/// per client.
pub fn fig6(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Figure 6: outstanding-queue length over time (8 servers, 8 clients)",
        &["platform", "rate/client", "t (s)", "queue"],
    );
    let cells = MacroCells::grid(&[Macro::Ycsb], &[8.0, 512.0], scale.duration);
    for platform in ALL_PLATFORMS {
        for (rate, stats) in cells.rates(platform, Macro::Ycsb) {
            for &(at, q) in stats.queue_timeline.points().iter().step_by(10) {
                t.row(vec![platform.name().into(), num(rate), num(at.as_secs_f64()), num(q)]);
            }
        }
    }
    t
}

/// The three macro workloads in Figure 13c's column order.
const FIG13C_WORKLOADS: [Macro; 3] = [Macro::Smallbank, Macro::Ycsb, Macro::DoNothing];

/// Figure 13c: DoNothing vs YCSB vs Smallbank throughput — the consensus
/// layer's share of the stack cost.
pub fn fig13c(scale: &Scale) -> Table {
    let rate = top_rate(scale);
    fig13c_table(&MacroCells::grid(&FIG13C_WORKLOADS, &[rate], scale.duration), rate)
}

/// Figure 13c's table over the `rate` cells of `cells`.
pub fn fig13c_table(cells: &MacroCells, rate: f64) -> Table {
    let mut t = Table::new(
        "Figure 13c: transaction throughput by workload (8x8, saturating rate)",
        &["platform", "Smallbank", "YCSB", "DoNothing"],
    );
    for platform in ALL_PLATFORMS {
        let mut row = vec![platform.name().to_string()];
        row.extend(FIG13C_WORKLOADS.map(|w| num(cells.get(platform, w, rate).throughput_tps())));
        t.row(row);
    }
    t
}

/// Figure 14's row label for the H-Store baseline.
pub(crate) const HSTORE: &str = "h-store";

/// Figure 14 (Appendix B): blockchains vs H-Store.
pub fn fig14(scale: &Scale) -> Table {
    let rate = top_rate(scale);
    let workloads = [Macro::Ycsb, Macro::Smallbank];
    fig14_table(&MacroCells::grid(&workloads, &[rate], scale.duration), rate)
}

/// Figure 14's table over the `rate` cells of `cells`, plus the H-Store runs.
pub fn fig14_table(cells: &MacroCells, rate: f64) -> Table {
    let mut t = Table::new(
        "Figure 14: throughput vs H-Store (tx/s)",
        &["system", "YCSB", "Smallbank"],
    );
    for platform in ALL_PLATFORMS {
        let tps = |w| num(cells.get(platform, w, rate).throughput_tps());
        t.row(vec![platform.name().into(), tps(Macro::Ycsb), tps(Macro::Smallbank)]);
    }
    let hy = bb_hstore::run_ycsb(bb_hstore::HStoreConfig::default(), 200_000, 100_000, 1);
    let hs = bb_hstore::run_smallbank(bb_hstore::HStoreConfig::default(), 200_000, 100_000, 1);
    t.row(vec![HSTORE.into(), num(hy.tps), num(hs.tps)]);
    t
}

/// Figure 15 (Appendix B): block generation rate at small/medium/large
/// block sizes. Block size is `gasLimit` on Ethereum, `stepDuration` on
/// Parity, `batchSize` on Hyperledger — exactly the knobs the paper turned.
pub fn fig15(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Figure 15: block generation rate vs block size (blocks/s)",
        &["platform", "small (0.5x)", "medium (1x)", "large (2x)"],
    );
    let (duration, rate) = (scale.duration, top_rate(scale));
    let build = |platform, factor: f64| -> Box<dyn BlockchainConnector> {
        match platform {
            Platform::Ethereum => {
                let mut c = EthConfig::with_nodes(8);
                c.block_gas_limit = (c.block_gas_limit as f64 * factor) as u64;
                c.max_txs_per_block = (c.max_txs_per_block as f64 * factor) as usize;
                // Bigger blocks take proportionally longer to mine (the
                // difficulty retune the authors applied when varying gasLimit).
                c.pow.base_interval =
                    SimDuration::from_secs_f64(c.pow.base_interval.as_secs_f64() * factor);
                Box::new(EthereumChain::new(c))
            }
            Platform::Parity => {
                let mut c = ParityConfig::with_nodes(8);
                c.step_duration = SimDuration::from_secs_f64(factor); // medium = 1 s
                Box::new(ParityChain::new(c))
            }
            Platform::Hyperledger => {
                let mut c = FabricConfig::with_nodes(8);
                c.batch_size = (c.batch_size as f64 * factor) as usize;
                c.batch_timeout = SimDuration::from_secs_f64(0.3 * factor);
                Box::new(FabricChain::new(c))
            }
        }
    };
    let factors = [0.5, 1.0, 2.0];
    let grid: Vec<(Platform, f64)> =
        ALL_PLATFORMS.into_iter().flat_map(|p| factors.map(|f| (p, f))).collect();
    let rates: Vec<f64> = map_cells(grid, |(platform, factor)| {
        let config = DriverConfig {
            clients: 8,
            rate_per_client: rate,
            duration,
            poll_interval: SimDuration::from_millis(500),
            drain: SimDuration::ZERO,
        };
        let mut workload = Macro::Ycsb.build(8);
        let stats = run_workload(build(platform, factor).as_mut(), workload.as_mut(), &config);
        stats.platform.blocks_main as f64 / duration.as_secs_f64()
    });
    for (platform, rates) in ALL_PLATFORMS.into_iter().zip(rates.chunks(factors.len())) {
        let mut row = vec![platform.name().to_string()];
        row.extend(rates.iter().copied().map(num));
        t.row(row);
    }
    t
}

/// Figure 16 (Appendix B): CPU and network utilisation over the first 100
/// virtual seconds of a loaded run.
pub fn fig16(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Figure 16: resource utilisation over time (8x8, saturating rate)",
        &["platform", "t (s)", "cpu %", "net Mbps"],
    );
    let rate = top_rate(scale);
    let duration = scale.duration.min(SimDuration::from_secs(100));
    let cells = MacroCells::grid(&[Macro::Ycsb], &[rate], duration);
    for platform in ALL_PLATFORMS {
        let stats = cells.get(platform, Macro::Ycsb, rate);
        let cpu = &stats.platform.cpu_utilisation;
        let net = &stats.platform.net_mbps;
        for s in (0..duration.as_micros() / 1_000_000).step_by(5) {
            let s = s as usize;
            t.row(vec![
                platform.name().into(),
                format!("{s}"),
                num(cpu.get(s).copied().unwrap_or(0.0)),
                num(net.get(s).copied().unwrap_or(0.0)),
            ]);
        }
    }
    t
}

/// Figure 17 (Appendix B): latency CDFs for YCSB and Smallbank.
pub fn fig17(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Figure 17: latency distribution (CDF), 8x8 at saturating rate",
        &["platform", "workload", "latency s", "cdf"],
    );
    let rate = top_rate(scale);
    let workloads = [Macro::Ycsb, Macro::Smallbank];
    let cells = MacroCells::grid(&workloads, &[rate], scale.duration);
    for platform in ALL_PLATFORMS {
        for workload in workloads {
            for (value, p) in cells.get(platform, workload, rate).latencies.cdf(20) {
                t.row(vec![platform.name().into(), workload.name().into(), num(value), num(p)]);
            }
        }
    }
    t
}

/// Figure 18 (Appendix B): queue length at 20 servers and 20 clients —
/// the regime where Hyperledger stalls and its queue never drains.
pub fn fig18(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Figure 18: queue length at 20 servers / 20 clients",
        &["platform", "t (s)", "queue"],
    );
    let (base_rate, duration) = (scale.base_rate, scale.duration);
    let results = map_cells(ALL_PLATFORMS.to_vec(), move |platform| {
        run_macro(platform, Macro::Ycsb, 20, 20, base_rate, duration)
    });
    for (platform, stats) in ALL_PLATFORMS.into_iter().zip(results) {
        for &(at, q) in stats.queue_timeline.points().iter().step_by(10) {
            t.row(vec![platform.name().into(), num(at.as_secs_f64()), num(q)]);
        }
    }
    t
}

/// The macro cells run live once, in `tests/paper_claims.rs`; these check the
/// tables `figures all` wrote from them at quick scale.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::claims;

    fn committed(name: &str) -> Result<Table, String> {
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        Table::read_csv(&results.join(name))
    }

    #[test]
    fn fig5_ordering_matches_paper() -> Result<(), String> {
        let peak = committed("fig5_peak.csv")?;
        assert_eq!(peak.len(), 2 * ALL_PLATFORMS.len());
        assert!(!committed("fig5_sweep.csv")?.is_empty());
        claims::fig5_fabric_beats_ethereum_beats_parity(&peak)
    }

    #[test]
    fn fig13c_has_three_rows() -> Result<(), String> {
        claims::fig13c_donothing_isolates_the_bottleneck(&committed("fig13c_donothing.csv")?)
    }
}
