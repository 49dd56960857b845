//! Fault-tolerance and security experiments: Figures 9 and 10.
//!
//! Each cell is a [`ChaosPlan`] with no actors, run by
//! [`blockbench::driver::run_timeline`] and sampled once per second; the
//! tables keep every `SAMPLE_EVERY`th second from t=1.

use crate::exp_macro::Macro;
use crate::parallel::{cost_hint, map_cells, map_cells_hinted};
use crate::platforms::{Platform, Scale, ALL_PLATFORMS};
use crate::table::{num, Table};
use bb_sim::SimDuration;
use bb_types::NodeId;
use blockbench::connector::{Fault, PlatformStats};
use blockbench::{fork_ratio, run_timeline, ChaosPlan};

/// The tables' sampling period in seconds: rows at t = 1, 1 + 5, ...
pub(crate) const SAMPLE_EVERY: usize = 5;

/// The window each fault figure drives at `scale`: twice the macro window,
/// at least `floor` seconds.
fn window(scale: &Scale, floor: u64) -> u64 {
    (scale.duration.as_micros() / 1_000_000 * 2).max(floor)
}

/// [`fig9`]'s `(window, fail_at, rate)` at `scale`.
pub fn fig9_args(scale: &Scale) -> (u64, u64, f64) {
    let window = window(scale, 60);
    (window, window / 2, scale.base_rate)
}

/// [`fig9_restart`]'s `(window, fail_at, restart_at, rate)` at `scale`.
pub fn fig9_restart_args(scale: &Scale) -> (u64, u64, u64, f64) {
    let window = window(scale, 80);
    (window, window / 5, window / 3, scale.base_rate / 2.0)
}

/// [`fig9_snapshot`]'s `(window, fail_at, restart_at, rate)` at `scale`: a
/// long outage at a low rate, so the block gap (outage time) clears the
/// snapshot threshold everywhere while the state snapshot stays small
/// relative to block-by-block replay of the gap.
pub fn fig9_snapshot_args(scale: &Scale) -> (u64, u64, u64, f64) {
    let window = window(scale, 160);
    (window, window / 8, window - 50, scale.base_rate / 50.0)
}

/// [`fig10`]'s `(window, partition_at, partition_secs, rate)` at `scale`.
pub fn fig10_args(scale: &Scale) -> (u64, u64, u64, f64) {
    let window = window(scale, 100);
    (window, window / 4, window / 3, scale.base_rate / 2.0)
}

/// Figure 9's cluster sizes: PBFT's quorum outlives 4 crashes only in the
/// larger one.
pub(crate) const FIG9_SERVERS: [u32; 2] = [12, 16];

/// Figure 9's snapshot-sync modes and their thresholds: gaps strictly larger
/// than the threshold switch to snapshot sync; `u64::MAX` pins the replay
/// path regardless of outage length.
pub(crate) const SYNC_MODES: [(&str, u64); 2] = [("replay", u64::MAX), ("snapshot", 4)];

/// Figure 9: crash 4 servers mid-run at 12 and 16 servers; per-second
/// committed transactions before/after.
pub fn fig9(window_secs: u64, fail_at: u64, rate: f64) -> Table {
    let mut t = Table::new(
        format!("Figure 9: failing 4 nodes at t={fail_at}s (8 clients)"),
        &["platform", "servers", "t (s)", "committed (cum)"],
    );
    let window = SimDuration::from_secs(window_secs);
    let grid: Vec<(u64, (Platform, u32))> = ALL_PLATFORMS
        .into_iter()
        .flat_map(|p| FIG9_SERVERS.map(|s| (cost_hint(s, window), (p, s))))
        .collect();
    let results = map_cells_hinted(grid, move |(platform, servers)| {
        // Kill the last four nodes (node 0 is the observer).
        let mut plan = ChaosPlan::new();
        for i in servers - 4..servers {
            plan = plan.at(SimDuration::from_secs(fail_at), Fault::Crash(NodeId(i)));
        }
        let mut chain = platform.build(servers);
        run_timeline(chain.as_mut(), Macro::Ycsb.build(8).as_mut(), 8, rate, window_secs, &plan)
            .series
    });
    for (platform, sizes) in ALL_PLATFORMS.into_iter().zip(results.chunks(FIG9_SERVERS.len())) {
        for (servers, series) in FIG9_SERVERS.into_iter().zip(sizes) {
            for (sec, committed, _) in series.iter().step_by(SAMPLE_EVERY) {
                t.row(vec![
                    platform.name().into(),
                    format!("{servers}"),
                    format!("{sec}"),
                    format!("{committed}"),
                ]);
            }
        }
    }
    t
}

/// The per-second series of 8-server cells in which node 7 crashes with a
/// torn WAL at `fail_at` and restarts from disk at `restart_at`, one per
/// `(platform, snapshot-sync threshold)` of `grid`.
fn restarts(
    grid: Vec<(Platform, u64)>,
    window_secs: u64,
    fail_at: u64,
    restart_at: u64,
    rate: f64,
) -> Vec<Vec<(u64, u64, PlatformStats)>> {
    let victim = NodeId(7);
    map_cells(grid, move |(platform, threshold)| {
        let plan = ChaosPlan::new()
            .at(SimDuration::from_secs(fail_at), Fault::Crash(victim))
            .at(SimDuration::from_secs(fail_at), Fault::TornTail(victim))
            .at(SimDuration::from_secs(restart_at), Fault::Restart(victim));
        let mut chain = platform.build_with_snapshot_threshold(8, threshold);
        run_timeline(chain.as_mut(), Macro::Ycsb.build(8).as_mut(), 8, rate, window_secs, &plan)
            .series
    })
}

/// Figure 9 variant for the recovery path: crash one server mid-run —
/// tearing the tail off its WAL, as a real power cut would — then restart
/// it from its durable store and watch it replay, resync and rejoin.
/// Samples cumulative committed transactions plus the recovery counters.
/// Snapshot sync is disabled here to keep this an isolated view of the
/// WAL-replay + block-resync path; [`fig9_snapshot`] compares that path
/// against chunked snapshot transfer.
pub fn fig9_restart(window_secs: u64, fail_at: u64, restart_at: u64, rate: f64) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 9 (restart): node 7 crashes with a torn WAL at t={fail_at}s, \
             restarts from disk at t={restart_at}s (8 servers, 8 clients)"
        ),
        &[
            "platform",
            "t (s)",
            "committed (cum)",
            "recovery (ms)",
            "resync blocks",
            "wal replayed",
            "wal truncated",
        ],
    );
    let grid = ALL_PLATFORMS.map(|p| (p, u64::MAX)).to_vec();
    let results = restarts(grid, window_secs, fail_at, restart_at, rate);
    for (platform, series) in ALL_PLATFORMS.into_iter().zip(results) {
        for (sec, committed, stats) in series.iter().step_by(SAMPLE_EVERY) {
            t.row(vec![
                platform.name().into(),
                format!("{sec}"),
                format!("{committed}"),
                format!("{}", stats.recovery_ms),
                format!("{}", stats.resync_blocks),
                format!("{}", stats.wal_records_replayed),
                format!("{}", stats.wal_tail_truncated),
            ]);
        }
    }
    t
}

/// Figure 9 variant comparing the two post-restart catch-up paths: the
/// same torn-WAL crash/restart as [`fig9_restart`], but with a longer
/// outage so the block gap clears the snapshot threshold, run once per
/// platform with snapshot sync disabled (pure block replay) and once
/// with a low threshold (chunked snapshot state transfer).
pub fn fig9_snapshot(window_secs: u64, fail_at: u64, restart_at: u64, rate: f64) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 9 (snapshot sync): node 7 crashes with a torn WAL at t={fail_at}s, \
             restarts at t={restart_at}s; replay vs chunked snapshot catch-up \
             (8 servers, 8 clients)"
        ),
        &[
            "platform",
            "mode",
            "t (s)",
            "committed (cum)",
            "recovery (ms)",
            "resync blocks",
            "snapshot chunks",
        ],
    );
    let grid: Vec<(Platform, u64)> =
        ALL_PLATFORMS.into_iter().flat_map(|p| SYNC_MODES.map(|(_, thr)| (p, thr))).collect();
    let results = restarts(grid, window_secs, fail_at, restart_at, rate);
    for (platform, modes) in ALL_PLATFORMS.into_iter().zip(results.chunks(SYNC_MODES.len())) {
        for ((mode, _), series) in SYNC_MODES.into_iter().zip(modes) {
            for (sec, committed, stats) in series.iter().step_by(SAMPLE_EVERY) {
                t.row(vec![
                    platform.name().into(),
                    mode.into(),
                    format!("{sec}"),
                    format!("{committed}"),
                    format!("{}", stats.recovery_ms),
                    format!("{}", stats.resync_blocks),
                    format!("{}", stats.snapshot_chunks),
                ]);
            }
        }
    }
    t
}

/// Figure 10: partition the 8-node network in half mid-run; track total
/// blocks generated vs blocks on the consensus chain (`X-total` vs `X-bc`).
pub fn fig10(window_secs: u64, partition_at: u64, partition_secs: u64, rate: f64) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 10: partition attack at t={partition_at}s for {partition_secs}s (8 servers)"
        ),
        &["platform", "t (s)", "blocks total", "blocks main", "fork ratio"],
    );
    let results = map_cells(ALL_PLATFORMS.to_vec(), move |platform| {
        let plan = ChaosPlan::new()
            .at(SimDuration::from_secs(partition_at), Fault::PartitionHalf { left: 4 })
            .at(SimDuration::from_secs(partition_at + partition_secs), Fault::Heal);
        let mut chain = platform.build(8);
        run_timeline(chain.as_mut(), Macro::Ycsb.build(8).as_mut(), 8, rate, window_secs, &plan)
            .series
    });
    for (platform, series) in ALL_PLATFORMS.into_iter().zip(results) {
        for (sec, _, stats) in series.iter().step_by(SAMPLE_EVERY) {
            t.row(vec![
                platform.name().into(),
                format!("{sec}"),
                format!("{}", stats.blocks_total),
                format!("{}", stats.blocks_main),
                num(fork_ratio(stats)),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claims;

    #[test]
    fn fig9_hyperledger_12_stalls_16_survives() -> Result<(), String> {
        let (window, fail_at) = (60, 30);
        let t = fig9(window, fail_at, 60.0);
        claims::fig9_pbft12_stalls_pbft16_and_pow_survive(&t, window, fail_at)
    }

    #[test]
    fn fig9_restart_node_rejoins_and_throughput_recovers() -> Result<(), String> {
        let (window, fail_at, restart_at) = (100, 20, 30);
        let t = fig9_restart(window, fail_at, restart_at, 20.0);
        claims::fig9_restart_rejoins_and_recovers(&t, window, fail_at, restart_at)
    }

    #[test]
    fn fig9_snapshot_sync_recovers_at_least_as_fast_as_replay() -> Result<(), String> {
        // Low per-client rate and a long outage: snapshot size scales with
        // committed transactions while the block gap scales with outage
        // time, so this is the regime where chunked transfer beats replay
        // on ethereum too (its snapshot ships the whole content-addressed
        // node store, most of which the setup preload creates).
        let (window, fail_at, restart_at) = (160, 20, 110);
        let t = fig9_snapshot(window, fail_at, restart_at, 2.0);
        claims::fig9_snapshot_recovers_at_least_as_fast_as_replay(&t, window, fail_at, restart_at)
    }

    #[test]
    fn fig10_forks_for_pow_poa_but_not_pbft() -> Result<(), String> {
        let window = 100;
        claims::fig10_partition_forks_pow_and_poa_never_pbft(&fig10(window, 20, 50, 40.0), window)
    }
}
