//! Scalability experiments: Figures 7, 8 and 19.

use crate::exp_macro::{run_macro, Macro};
use crate::parallel::{cost_hint, map_cells_hinted};
use crate::platforms::{Platform, Scale, ALL_PLATFORMS};
use crate::table::{num, Table};

/// Figures 7 (YCSB) and 19 (Smallbank): scale clients and servers together.
pub fn fig7(scale: &Scale, workload: Macro) -> Table {
    let figure = if workload == Macro::Ycsb { "Figure 7" } else { "Figure 19" };
    let mut t = Table::new(
        format!("{figure}: scalability with clients = servers ({})", workload.name()),
        &["platform", "nodes", "tx/s", "latency s"],
    );
    // The paper scaled at a saturating per-client rate; 2× the base rate
    // puts the combined load past Fabric's pipeline at 20 nodes. Windows
    // stretch to cover several PoW confirmations at large N.
    let rate = scale.base_rate * 2.0;
    let duration = scale.duration.max(bb_sim::SimDuration::from_secs(60));
    let grid: Vec<(u64, (Platform, u32))> = ALL_PLATFORMS
        .into_iter()
        .flat_map(|p| scale.nodes_sweep.iter().map(move |&n| (cost_hint(n, duration), (p, n))))
        .collect();
    let results = map_cells_hinted(grid, move |(platform, n)| {
        run_macro(platform, workload, n, n, rate, duration)
    });
    let per_platform = results.chunks(scale.nodes_sweep.len());
    for (platform, sizes) in ALL_PLATFORMS.into_iter().zip(per_platform) {
        for (n, stats) in scale.nodes_sweep.iter().zip(sizes) {
            t.row(vec![
                platform.name().into(),
                format!("{n}"),
                num(stats.throughput_tps()),
                num(stats.mean_latency().unwrap_or(f64::NAN)),
            ]);
        }
    }
    t
}

/// Figure 8: scale servers only, 8 clients fixed.
pub fn fig8(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Figure 8: scalability with 8 clients fixed (YCSB)",
        &["platform", "servers", "tx/s", "latency s"],
    );
    // 32-node PoW blocks arrive every ~16 s: the window must cover several
    // confirmations.
    let duration = scale.duration.max(bb_sim::SimDuration::from_secs(90));
    let base_rate = scale.base_rate;
    let grid: Vec<(u64, (Platform, u32))> = ALL_PLATFORMS
        .into_iter()
        .flat_map(|p| scale.servers_sweep.iter().map(move |&n| (cost_hint(n, duration), (p, n))))
        .collect();
    let results = map_cells_hinted(grid, move |(platform, n)| {
        run_macro(platform, Macro::Ycsb, n, 8, base_rate, duration)
    });
    let per_platform = results.chunks(scale.servers_sweep.len());
    for (platform, sizes) in ALL_PLATFORMS.into_iter().zip(per_platform) {
        for (n, stats) in scale.servers_sweep.iter().zip(sizes) {
            t.row(vec![
                platform.name().into(),
                format!("{n}"),
                num(stats.throughput_tps()),
                num(stats.mean_latency().unwrap_or(f64::NAN)),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_fabric::{FabricChain, FabricConfig};
    use bb_sim::SimDuration;
    use crate::parallel::map_cells;
    use blockbench::{run_workload, DriverConfig};

    // The collapse test runs single Fabric points rather than rendering
    // `fig7`'s three-platform table: each point is tens of wall-seconds,
    // and the assertions concern Fabric alone.

    #[test]
    fn hyperledger_collapses_when_everything_scales() {
        // The headline scalability finding (Figure 7): Fabric works at 8×8
        // but fails at 20×20 under combined load. The paper diagnoses the
        // v0.6 mechanism — "consensus messages are rejected ... on account
        // of the message channel being full. As messages are dropped, the
        // views start to diverge" (§4.1.2) — and in this reproduction the
        // channel-filling traffic is PBFT's own view-timeout retransmission
        // storm: n replicas time out together, each re-broadcasts a batch
        // worth of requests, and the view-change votes drown in the flood.
        // The storm is a config knob (`pbft_recruit_quota`): at
        // `batch_size` it is v0.6-faithful and the collapse reproduces; at
        // the hardened default (PR 9's chaos gates forced the fix) the same
        // overload degrades but stays live. Each client offers 400 tx/s,
        // twice `fig7`'s 2 × base_rate = 200, so the 20×20 cell offers
        // 8 000 tx/s: that overload is the regime in which this test pins
        // both the collapse and the survival. The window is `fig7`'s 60 s
        // floor.
        // The three runs are independent worlds; scattering them keeps this
        // test, the suite's longest, from running alone on one core.
        let cells = vec![(8, false), (20, true), (20, false)];
        let tps = map_cells(cells, |(n, v06): (u32, bool)| {
            let mut config = FabricConfig::with_nodes(n);
            if v06 {
                config.pbft_recruit_quota = config.batch_size;
            }
            let driver = DriverConfig {
                clients: n,
                rate_per_client: 400.0,
                duration: SimDuration::from_secs(60),
                poll_interval: SimDuration::from_millis(500),
                drain: SimDuration::from_secs(20),
            };
            let mut wl = Macro::Ycsb.build(n);
            run_workload(&mut FabricChain::new(config), wl.as_mut(), &driver).throughput_tps()
        });
        let (at8, at20_v06, at20) = (tps[0], tps[1], tps[2]);
        assert!(at8 > 700.0, "fabric at 8 nodes: {at8}");
        assert!(
            at20_v06 < at8 / 2.0,
            "v0.6 retransmission storm did not collapse at 20 nodes: {at8} → {at20_v06}"
        );
        assert!(
            at20 > at8 * 0.6,
            "hardened view change no longer survives 20 nodes: {at8} → {at20}"
        );
    }

    /// Figure 8's ethereum curve, on ablation B's default-difficulty row:
    /// the same rule at 8 and at 32 nodes, 8 clients.
    #[test]
    fn ethereum_degrades_with_size_but_survives() -> Result<(), String> {
        crate::claims::fig8_ethereum_degrades_with_size_but_survives(
            crate::exp_ablation::tests::difficulty(),
        )
    }
}
