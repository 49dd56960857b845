//! `exp_saturation`: open-loop saturation ramps — the Gromit-style
//! methodology the paper's fixed-rate sweeps stop short of.
//!
//! For each platform a ladder of open-loop Poisson runs ramps the *offered*
//! aggregate rate geometrically. Below the knee, committed ≈ offered; past
//! it, the committed curve flattens (or collapses) while the outstanding
//! queue and the coordinated-omission-free tail latency blow up. The table
//! reports, per rung: committed rate, rejected submissions, peak outstanding
//! queue, and p99 latency both naive (from actual send) and CO-free (from
//! intended send) — the latter is what an open-loop client actually
//! experiences, and at saturation it dominates the naive number.

use crate::parallel::{cost_hint, map_cells_hinted};
use crate::platforms::{Platform, Scale, ALL_PLATFORMS};
use crate::table::{num, Table};
use bb_sim::SimDuration;
use blockbench::driver::run_open_loop;
use blockbench::load::{ArrivalProcess, OpenLoopConfig};
use blockbench::RunStats;
use crate::exp_macro::Macro;

/// One saturation cell: an open-loop YCSB run at a fixed offered rate.
pub fn run_saturation_cell(
    platform: Platform,
    nodes: u32,
    population: u64,
    offered: f64,
    duration: SimDuration,
) -> RunStats {
    let mut chain = platform.build(nodes);
    // Clients here size the legacy closed-loop bank, not the population;
    // keep it minimal.
    let mut wl = Macro::Ycsb.build(1);
    run_open_loop(
        chain.as_mut(),
        wl.as_mut(),
        &OpenLoopConfig {
            population,
            process: ArrivalProcess::Poisson { rate: offered },
            zipf_theta: 0.0,
            duration,
            poll_interval: SimDuration::from_millis(500),
            // Long enough for PoW's depth-2 confirmation to flush the last
            // in-window arrival: at ~2.5–4 s/block the final arrival needs
            // ~5 further block intervals before it counts as confirmed.
            drain: SimDuration::from_secs(25),
            retry_backoff: SimDuration::from_millis(250),
            seed: 0x5A7,
        },
    )
}

/// The offered-rate ladder (aggregate tx/s): geometric, monotone, wide
/// enough to straddle every platform's knee — Parity saturates below 100
/// tx/s, Hyperledger above 1000.
pub fn offered_ladder() -> Vec<f64> {
    vec![25.0, 100.0, 400.0, 1600.0, 6400.0]
}

/// Peak of the outstanding-queue timeline.
fn queue_peak(stats: &RunStats) -> f64 {
    stats.queue_timeline.points().iter().map(|&(_, v)| v).fold(0.0f64, f64::max)
}

/// `fig_saturation`: committed-vs-offered collapse curves on all three
/// platforms, over a 100k-account open-loop population.
pub fn fig_saturation(scale: &Scale) -> Table {
    let mut t = Table::new(
        "fig_saturation: open-loop saturation ramp (8 servers, Poisson arrivals, 100k accounts)",
        &[
            "platform",
            "offered tx/s",
            "committed tx/s",
            "rejected",
            "queue peak",
            "p99 s (naive)",
            "p99 s (CO-free)",
        ],
    );
    let ladder = offered_ladder();
    let duration = scale.duration.min(SimDuration::from_secs(15));
    let population = 100_000;
    let mut cells = Vec::new();
    for platform in ALL_PLATFORMS {
        for &offered in &ladder {
            // Cell cost scales with arrivals, not clients.
            let hint = cost_hint(8, duration).saturating_mul(offered as u64 + 1);
            cells.push((hint, (platform, offered)));
        }
    }
    let results = map_cells_hinted(cells, move |(platform, offered)| {
        run_saturation_cell(platform, 8, population, offered, duration)
    });
    for (platform, rungs) in ALL_PLATFORMS.into_iter().zip(results.chunks(ladder.len())) {
        for (&offered, stats) in ladder.iter().zip(rungs) {
            t.row(vec![
                platform.name().into(),
                num(offered),
                num(stats.throughput_tps()),
                format!("{}", stats.rejected),
                num(queue_peak(stats)),
                num(stats.latency_quantile(0.99).unwrap_or(f64::NAN)),
                num(stats.co_latency_quantile(0.99).unwrap_or(f64::NAN)),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance contract, smoke-sized: a monotone offered ramp whose
    /// committed curve tracks offered load below the knee and flattens or
    /// collapses past it, with CO-free p99 ≥ naive p99 at saturation — on
    /// all three platforms.
    #[test]
    fn saturation_curves_flatten_past_the_knee_on_all_platforms() {
        let ladder = [50.0, 400.0, 3200.0];
        assert!(ladder.windows(2).all(|w| w[0] < w[1]), "ladder must ramp monotonically");
        let duration = SimDuration::from_secs(6);
        for platform in ALL_PLATFORMS {
            let runs: Vec<RunStats> = ladder
                .iter()
                .map(|&offered| run_saturation_cell(platform, 4, 10_000, offered, duration))
                .collect();
            let committed: Vec<f64> = runs.iter().map(|r| r.throughput_tps()).collect();
            let name = platform.name();

            // Below the knee the platform keeps up with the offered rate.
            // Count total confirmations (drain included) rather than the
            // window-scoped `committed` counter: over a smoke-length window
            // PoW's depth-2 confirmation lag pushes most commits past the
            // measured window into the drain phase.
            let confirmed0 = runs[0].latencies.count() as f64 / duration.as_secs_f64();
            assert!(
                confirmed0 > 0.5 * ladder[0],
                "{name}: confirmed {} at offered {} — should track below the knee",
                confirmed0,
                ladder[0]
            );
            // Past the knee the committed curve flattens/collapses: offered
            // load grew 8x between the last two rungs, so committed gaining
            // less than 2x over the earlier rungs means the platform is at
            // (or past) capacity — a still-scaling platform would track the
            // full 8x. The knee itself may sit between rungs, so the last
            // rung is allowed to be the best one.
            let best = committed.iter().cloned().fold(0.0f64, f64::max);
            assert!(
                committed[2] <= 2.0 * committed[1].max(committed[0]) + 5.0,
                "{name}: committed kept scaling with offered load: {committed:?}"
            );
            assert!(
                best < 0.75 * ladder[2],
                "{name}: committed {best} never fell behind offered {} — no knee found",
                ladder[2]
            );

            // At saturation the CO-free tail dominates the naive tail.
            let sat = &runs[2];
            let naive = sat.latency_quantile(0.99).unwrap();
            let co = sat.co_latency_quantile(0.99).unwrap();
            assert!(
                co >= 0.999 * naive,
                "{name}: CO-free p99 {co} must be ≥ naive p99 {naive} at saturation"
            );
            // The saturated rung visibly queues.
            assert!(
                queue_peak(sat) > queue_peak(&runs[0]),
                "{name}: saturation should grow the outstanding queue"
            );
        }
    }
}
