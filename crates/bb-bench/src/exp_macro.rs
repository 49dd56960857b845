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
use blockbench::RunStats;
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

/// Figure 5: throughput and latency at 8 servers × 8 clients, with the
/// request-rate sweep. Returns (peak table, sweep table).
pub fn fig5(scale: &Scale) -> (Table, Table) {
    let mut peak = Table::new(
        "Figure 5a: peak performance (8 servers, 8 clients)",
        &["platform", "workload", "peak tx/s", "latency s (mean)", "p99 s"],
    );
    let mut sweep = Table::new(
        "Figure 5b/c: performance vs request rate (per client)",
        &["platform", "workload", "rate/client", "tx/s", "latency s"],
    );
    let duration = scale.duration;
    let mut cells = Vec::new();
    for platform in ALL_PLATFORMS {
        for workload in [Macro::Ycsb, Macro::Smallbank] {
            for &rate in &scale.rates {
                // All fig5 cells share 8 nodes × one duration; the request
                // rate is what separates a 5-second world from a 50-second
                // one, so fold it into the hint.
                let hint = cost_hint(8, duration).saturating_mul(rate as u64 + 1);
                cells.push((hint, (platform, workload, rate)));
            }
        }
    }
    let mut results = map_cells_hinted(cells, move |(platform, workload, rate)| {
        run_macro(platform, workload, 8, 8, rate, duration)
    })
    .into_iter();
    for platform in ALL_PLATFORMS {
        for workload in [Macro::Ycsb, Macro::Smallbank] {
            let mut best: Option<RunStats> = None;
            for &rate in &scale.rates {
                let stats = results.next().expect("one result per cell");
                sweep.row(vec![
                    platform.name().into(),
                    workload.name().into(),
                    num(rate),
                    num(stats.throughput_tps()),
                    num(stats.mean_latency().unwrap_or(f64::NAN)),
                ]);
                if best
                    .as_ref()
                    .map(|b| stats.throughput_tps() > b.throughput_tps())
                    .unwrap_or(true)
                {
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
    let duration = scale.duration;
    let cells: Vec<(Platform, f64)> = ALL_PLATFORMS
        .into_iter()
        .flat_map(|p| [8.0, 512.0].map(|r| (p, r)))
        .collect();
    let mut results = map_cells(cells, move |(platform, rate)| {
        run_macro(platform, Macro::Ycsb, 8, 8, rate, duration)
    })
    .into_iter();
    for platform in ALL_PLATFORMS {
        for rate in [8.0, 512.0] {
            let stats = results.next().expect("one result per cell");
            for &(at, q) in stats.queue_timeline.points().iter().step_by(10) {
                t.row(vec![
                    platform.name().into(),
                    num(rate),
                    num(at.as_secs_f64()),
                    num(q),
                ]);
            }
        }
    }
    t
}

/// Figure 13c: DoNothing vs YCSB vs Smallbank throughput — the consensus
/// layer's share of the stack cost.
pub fn fig13c(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Figure 13c: transaction throughput by workload (8x8, saturating rate)",
        &["platform", "Smallbank", "YCSB", "DoNothing"],
    );
    let rate = *scale.rates.last().expect("rates nonempty");
    let duration = scale.duration;
    let grid: Vec<(Platform, Macro)> = ALL_PLATFORMS
        .into_iter()
        .flat_map(|p| [Macro::Smallbank, Macro::Ycsb, Macro::DoNothing].map(|w| (p, w)))
        .collect();
    let mut results = map_cells(grid, move |(platform, workload)| {
        run_macro(platform, workload, 8, 8, rate, duration)
    })
    .into_iter();
    for platform in ALL_PLATFORMS {
        let mut cells = vec![platform.name().to_string()];
        for _workload in [Macro::Smallbank, Macro::Ycsb, Macro::DoNothing] {
            let stats = results.next().expect("one result per cell");
            cells.push(num(stats.throughput_tps()));
        }
        t.row(cells);
    }
    t
}

/// Figure 14 (Appendix B): blockchains vs H-Store.
pub fn fig14(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Figure 14: throughput vs H-Store (tx/s)",
        &["system", "YCSB", "Smallbank"],
    );
    let rate = *scale.rates.last().expect("rates nonempty");
    let duration = scale.duration;
    let grid: Vec<(Platform, Macro)> = ALL_PLATFORMS
        .into_iter()
        .flat_map(|p| [Macro::Ycsb, Macro::Smallbank].map(|w| (p, w)))
        .collect();
    let mut results = map_cells(grid, move |(platform, workload)| {
        run_macro(platform, workload, 8, 8, rate, duration)
    })
    .into_iter();
    for platform in ALL_PLATFORMS {
        let y = results.next().expect("one result per cell");
        let s = results.next().expect("one result per cell");
        t.row(vec![
            platform.name().into(),
            num(y.throughput_tps()),
            num(s.throughput_tps()),
        ]);
    }
    let hy = bb_hstore::run_ycsb(bb_hstore::HStoreConfig::default(), 200_000, 100_000, 1);
    let hs = bb_hstore::run_smallbank(bb_hstore::HStoreConfig::default(), 200_000, 100_000, 1);
    t.row(vec!["h-store".into(), num(hy.tps), num(hs.tps)]);
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
    let duration = scale.duration;
    let rate = *scale.rates.last().expect("rates nonempty");

    let run_eth = |factor: f64| {
        let mut c = EthConfig::with_nodes(8);
        c.block_gas_limit = (c.block_gas_limit as f64 * factor) as u64;
        c.max_txs_per_block = (c.max_txs_per_block as f64 * factor) as usize;
        // Bigger blocks take proportionally longer to mine (the difficulty
        // retune the authors applied when varying gasLimit).
        c.pow.base_interval = SimDuration::from_secs_f64(
            c.pow.base_interval.as_secs_f64() * factor,
        );
        let mut chain = EthereumChain::new(c);
        let mut wl = Macro::Ycsb.build(8);
        let stats = run_workload(
            &mut chain,
            wl.as_mut(),
            &DriverConfig {
                clients: 8,
                rate_per_client: rate,
                duration,
                poll_interval: SimDuration::from_millis(500),
                drain: SimDuration::ZERO,
            },
        );
        stats.platform.blocks_main as f64 / duration.as_secs_f64()
    };
    let run_parity = |factor: f64| {
        let mut c = ParityConfig::with_nodes(8);
        c.step_duration = SimDuration::from_secs_f64(factor); // medium = 1 s
        let mut chain = ParityChain::new(c);
        let mut wl = Macro::Ycsb.build(8);
        let stats = run_workload(
            &mut chain,
            wl.as_mut(),
            &DriverConfig {
                clients: 8,
                rate_per_client: rate,
                duration,
                poll_interval: SimDuration::from_millis(500),
                drain: SimDuration::ZERO,
            },
        );
        stats.platform.blocks_main as f64 / duration.as_secs_f64()
    };
    let run_fabric = |factor: f64| {
        let mut c = FabricConfig::with_nodes(8);
        c.batch_size = (c.batch_size as f64 * factor) as usize;
        c.batch_timeout = SimDuration::from_secs_f64(0.3 * factor);
        let mut chain = FabricChain::new(c);
        let mut wl = Macro::Ycsb.build(8);
        let stats = run_workload(
            &mut chain,
            wl.as_mut(),
            &DriverConfig {
                clients: 8,
                rate_per_client: rate,
                duration,
                poll_interval: SimDuration::from_millis(500),
                drain: SimDuration::ZERO,
            },
        );
        stats.platform.blocks_main as f64 / duration.as_secs_f64()
    };

    let factors = [0.5, 1.0, 2.0];
    let grid: Vec<(usize, f64)> = (0..3).flat_map(|p| factors.map(|f| (p, f))).collect();
    let rates: Vec<f64> = map_cells(grid, |(which, factor)| match which {
        0 => run_eth(factor),
        1 => run_parity(factor),
        _ => run_fabric(factor),
    });
    for (which, name) in ["ethereum", "parity", "hyperledger"].into_iter().enumerate() {
        t.row(vec![
            name.into(),
            num(rates[which * 3]),
            num(rates[which * 3 + 1]),
            num(rates[which * 3 + 2]),
        ]);
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
    let rate = *scale.rates.last().expect("rates nonempty");
    let duration = scale.duration.min(SimDuration::from_secs(100));
    let mut results = map_cells(ALL_PLATFORMS.to_vec(), move |platform| {
        run_macro(platform, Macro::Ycsb, 8, 8, rate, duration)
    })
    .into_iter();
    for platform in ALL_PLATFORMS {
        let stats = results.next().expect("one result per cell");
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
    let rate = *scale.rates.last().expect("rates nonempty");
    let duration = scale.duration;
    let grid: Vec<(Platform, Macro)> = ALL_PLATFORMS
        .into_iter()
        .flat_map(|p| [Macro::Ycsb, Macro::Smallbank].map(|w| (p, w)))
        .collect();
    let mut results = map_cells(grid, move |(platform, workload)| {
        run_macro(platform, workload, 8, 8, rate, duration)
    })
    .into_iter();
    for platform in ALL_PLATFORMS {
        for workload in [Macro::Ycsb, Macro::Smallbank] {
            let stats = results.next().expect("one result per cell");
            for (value, p) in stats.latencies.cdf(20) {
                t.row(vec![
                    platform.name().into(),
                    workload.name().into(),
                    num(value),
                    num(p),
                ]);
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
    let mut results = map_cells(ALL_PLATFORMS.to_vec(), move |platform| {
        run_macro(platform, Macro::Ycsb, 20, 20, base_rate, duration)
    })
    .into_iter();
    for platform in ALL_PLATFORMS {
        let stats = results.next().expect("one result per cell");
        for &(at, q) in stats.queue_timeline.points().iter().step_by(10) {
            t.row(vec![platform.name().into(), num(at.as_secs_f64()), num(q)]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            duration: SimDuration::from_secs(10),
            rates: vec![32.0, 256.0],
            ..Scale::quick()
        }
    }

    #[test]
    fn fig5_ordering_matches_paper() {
        let (peak, sweep) = fig5(&tiny());
        assert_eq!(peak.len(), 6);
        assert!(!sweep.is_empty());
        // Extract the YCSB peaks per platform from the rendered rows.
        let text = peak.render();
        let tps = |platform: &str| -> f64 {
            text.lines()
                .find(|l| l.contains(platform) && l.contains("YCSB"))
                .and_then(|l| l.split_whitespace().nth(2))
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0)
        };
        let (e, p, h) = (tps("ethereum"), tps("parity"), tps("hyperledger"));
        assert!(h > e, "hyperledger {h} vs ethereum {e}");
        assert!(e > p, "ethereum {e} vs parity {p}");
        assert!(h > 600.0, "hyperledger peak too low: {h}");
        assert!(p < 70.0, "parity peak too high: {p}");
    }

    #[test]
    fn fig13c_has_three_rows() {
        let t = fig13c(&tiny());
        assert_eq!(t.len(), 3);
    }
}
