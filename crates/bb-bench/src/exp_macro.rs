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

/// One 8-server × 8-client macro cell: everything [`run_macro`] is given
/// besides the 8 × 8 — platform, workload, rate per client and window.
pub type MacroKey = (Platform, Macro, f64, SimDuration);

/// 8-server × 8-client macro cells, each key run once, in the order the keys
/// first appear. Figures 5, 6, 13c, 14, 16 and 17 are views of one such set:
/// each has a grid function listing the keys it reads and a table function
/// over the set, so a run of several figures runs the union of their grids.
pub struct MacroCells(Vec<(MacroKey, RunStats)>);

impl MacroCells {
    /// Run every distinct key of `keys` once, in one scatter. Repeats are
    /// run once, so a union of grids may be passed as it is.
    pub fn run(keys: impl IntoIterator<Item = MacroKey>) -> Self {
        let keys = distinct(keys);
        // The cells share 8 nodes; the window and the request rate are what
        // separate a 5-second world from a 50-second one, so both go into
        // the hint.
        let hint = |(_, _, rate, window): MacroKey| {
            cost_hint(8, window).saturating_mul(rate as u64 + 1)
        };
        let cells = keys.iter().map(|&key| (hint(key), key)).collect();
        let stats = map_cells_hinted(cells, |(platform, workload, rate, window)| {
            run_macro(platform, workload, 8, 8, rate, window)
        });
        MacroCells(keys.into_iter().zip(stats).collect())
    }

    /// The rates `platform` ran `workload` at over `window`, with their
    /// stats, in set order.
    fn rates(
        &self,
        platform: Platform,
        workload: Macro,
        window: SimDuration,
    ) -> impl Iterator<Item = (f64, &RunStats)> {
        let cells = self.0.iter().filter(move |((p, w, _, win), _)| {
            (*p, *w, *win) == (platform, workload, window)
        });
        cells.map(|((_, _, rate, _), stats)| (*rate, stats))
    }

    /// The stats of one cell.
    fn get(&self, key: MacroKey) -> &RunStats {
        &self.0.iter().find(|(k, _)| *k == key).expect("cell in the set").1
    }
}

/// `keys` without repeats, each where it first appears.
fn distinct(keys: impl IntoIterator<Item = MacroKey>) -> Vec<MacroKey> {
    let mut out: Vec<MacroKey> = Vec::new();
    for key in keys {
        if !out.contains(&key) {
            out.push(key);
        }
    }
    out
}

/// Every platform × `workloads` × `rates` over `window`, in that nesting.
fn grid(workloads: &[Macro], rates: &[f64], window: SimDuration) -> Vec<MacroKey> {
    let keys = ALL_PLATFORMS.into_iter().flat_map(|p| {
        workloads.iter().flat_map(move |&w| rates.iter().map(move |&r| (p, w, r, window)))
    });
    keys.collect()
}

/// The last (saturating) rate of `scale`'s sweep.
fn top_rate(scale: &Scale) -> f64 {
    *scale.rates.last().expect("rates nonempty")
}

/// The two workloads of Figures 5, 14 and 17.
const YCSB_SMALLBANK: [Macro; 2] = [Macro::Ycsb, Macro::Smallbank];

/// Figure 5's cells: YCSB and Smallbank at every rate of `scale`'s sweep.
pub fn fig5_grid(scale: &Scale) -> Vec<MacroKey> {
    grid(&YCSB_SMALLBANK, &scale.rates, scale.duration)
}

/// Figure 5: throughput and latency at 8 servers × 8 clients, with the
/// request-rate sweep. Reads every YCSB and Smallbank cell of `cells` at
/// `scale`'s window: [`fig5_grid`]'s, and any other rate the set holds
/// there. Returns (peak table, sweep table).
pub fn fig5(cells: &MacroCells, scale: &Scale) -> (Table, Table) {
    let mut peak = Table::new(
        "Figure 5a: peak performance (8 servers, 8 clients)",
        &["platform", "workload", "peak tx/s", "latency s (mean)", "p99 s"],
    );
    let mut sweep = Table::new(
        "Figure 5b/c: performance vs request rate (per client)",
        &["platform", "workload", "rate/client", "tx/s", "latency s"],
    );
    for platform in ALL_PLATFORMS {
        for workload in YCSB_SMALLBANK {
            let mut best: Option<&RunStats> = None;
            for (rate, stats) in cells.rates(platform, workload, scale.duration) {
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

/// Figure 6's cells: YCSB at 8 tx/s and 512 tx/s per client.
pub fn fig6_grid(scale: &Scale) -> Vec<MacroKey> {
    grid(&[Macro::Ycsb], &[8.0, 512.0], scale.duration)
}

/// Figure 6: client request-queue length over time at 8 tx/s and 512 tx/s
/// per client.
pub fn fig6(cells: &MacroCells, scale: &Scale) -> Table {
    let mut t = Table::new(
        "Figure 6: outstanding-queue length over time (8 servers, 8 clients)",
        &["platform", "rate/client", "t (s)", "queue"],
    );
    for key @ (platform, _, rate, _) in fig6_grid(scale) {
        for &(at, q) in cells.get(key).queue_timeline.points().iter().step_by(10) {
            t.row(vec![platform.name().into(), num(rate), num(at.as_secs_f64()), num(q)]);
        }
    }
    t
}

/// The three macro workloads in Figure 13c's column order.
const FIG13C_WORKLOADS: [Macro; 3] = [Macro::Smallbank, Macro::Ycsb, Macro::DoNothing];

/// Figure 13c's cells: its three workloads at `scale`'s saturating rate.
pub fn fig13c_grid(scale: &Scale) -> Vec<MacroKey> {
    grid(&FIG13C_WORKLOADS, &[top_rate(scale)], scale.duration)
}

/// Figure 13c: DoNothing vs YCSB vs Smallbank throughput — the consensus
/// layer's share of the stack cost.
pub fn fig13c(cells: &MacroCells, scale: &Scale) -> Table {
    let mut t = Table::new(
        "Figure 13c: transaction throughput by workload (8x8, saturating rate)",
        &["platform", "Smallbank", "YCSB", "DoNothing"],
    );
    let (rate, window) = (top_rate(scale), scale.duration);
    for platform in ALL_PLATFORMS {
        let tps = |w| num(cells.get((platform, w, rate, window)).throughput_tps());
        let mut row = vec![platform.name().to_string()];
        row.extend(FIG13C_WORKLOADS.map(tps));
        t.row(row);
    }
    t
}

/// Figure 14's row label for the H-Store baseline.
pub(crate) const HSTORE: &str = "h-store";

/// Figure 14's cells: YCSB and Smallbank at `scale`'s saturating rate.
pub fn fig14_grid(scale: &Scale) -> Vec<MacroKey> {
    grid(&YCSB_SMALLBANK, &[top_rate(scale)], scale.duration)
}

/// Figure 14 (Appendix B): blockchains vs H-Store.
pub fn fig14(cells: &MacroCells, scale: &Scale) -> Table {
    let mut t = Table::new(
        "Figure 14: throughput vs H-Store (tx/s)",
        &["system", "YCSB", "Smallbank"],
    );
    let (rate, window) = (top_rate(scale), scale.duration);
    for platform in ALL_PLATFORMS {
        let tps = |w| num(cells.get((platform, w, rate, window)).throughput_tps());
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

/// Figure 16's cells: YCSB at `scale`'s saturating rate over at most the
/// first 100 virtual seconds — at quick scale the same cells as Figure 14's
/// YCSB column, at `--paper` cells of their own.
pub fn fig16_grid(scale: &Scale) -> Vec<MacroKey> {
    let window = scale.duration.min(SimDuration::from_secs(100));
    grid(&[Macro::Ycsb], &[top_rate(scale)], window)
}

/// Figure 16 (Appendix B): CPU and network utilisation over the first 100
/// virtual seconds of a loaded run.
pub fn fig16(cells: &MacroCells, scale: &Scale) -> Table {
    let mut t = Table::new(
        "Figure 16: resource utilisation over time (8x8, saturating rate)",
        &["platform", "t (s)", "cpu %", "net Mbps"],
    );
    for key @ (platform, _, _, window) in fig16_grid(scale) {
        let stats = cells.get(key);
        let cpu = &stats.platform.cpu_utilisation;
        let net = &stats.platform.net_mbps;
        for s in (0..window.as_micros() / 1_000_000).step_by(5) {
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

/// Figure 17's cells: YCSB and Smallbank at `scale`'s saturating rate.
pub fn fig17_grid(scale: &Scale) -> Vec<MacroKey> {
    grid(&YCSB_SMALLBANK, &[top_rate(scale)], scale.duration)
}

/// Figure 17 (Appendix B): latency CDFs for YCSB and Smallbank.
pub fn fig17(cells: &MacroCells, scale: &Scale) -> Table {
    let mut t = Table::new(
        "Figure 17: latency distribution (CDF), 8x8 at saturating rate",
        &["platform", "workload", "latency s", "cdf"],
    );
    for key @ (platform, workload, ..) in fig17_grid(scale) {
        for (value, p) in cells.get(key).latencies.cdf(20) {
            t.row(vec![platform.name().into(), workload.name().into(), num(value), num(p)]);
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

    /// At quick scale the six 8×8 figures read 48 cells, 21 of them
    /// distinct, so `figures all` runs 21; Figure 6 alone runs its own 6.
    #[test]
    fn macro_figures_share_their_cells() {
        let scale = Scale::quick();
        let grids = [fig5_grid, fig6_grid, fig13c_grid, fig14_grid, fig16_grid, fig17_grid];
        let keys: Vec<MacroKey> = grids.iter().flat_map(|grid| grid(&scale)).collect();
        assert_eq!(keys.len(), 48);
        assert_eq!(distinct(keys).len(), 21);
        assert_eq!(distinct(fig6_grid(&scale)).len(), 6);
    }
}
