//! Micro-benchmark experiments: Figures 11, 12 and 13a/b.

use crate::parallel::{map_cells, map_cells_hinted};
use crate::platforms::{Platform, Scale, ALL_PLATFORMS};
use crate::table::{mb, num, Table};
use bb_workloads::{AnalyticsRunner, CpuHeavyRunner, IoHeavyRunner};

/// Memory scale factor: workload sizes are paper ÷ 100 for CPUHeavy, so
/// node RAM scales by the same factor to keep the OOM crossovers.
const CPU_MEM_SCALE: u64 = 100;
/// IOHeavy sizes are paper ÷ 10.
const IO_MEM_SCALE: u64 = 10;

/// Figure 11: CPUHeavy execution time and peak memory per input size.
/// 'X' marks out-of-memory, as in the paper.
pub fn fig11(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Figure 11: CPUHeavy (sizes = paper / 100, node RAM scaled alike)",
        &["platform", "input size", "exec time s", "peak mem MB"],
    );
    // The chain and runner are reused across sizes (the paper warms one
    // deployment per platform), so the cell is the platform.
    let sizes = scale.cpu_sizes.clone();
    let results = map_cells(ALL_PLATFORMS.to_vec(), move |platform| {
        let mut chain = platform.build_micro(CPU_MEM_SCALE);
        let mut runner = CpuHeavyRunner::new();
        sizes
            .iter()
            .map(|&n| {
                let r = runner.run(chain.as_mut(), n);
                (n, r.exec_time, r.peak_mem)
            })
            .collect::<Vec<_>>()
    });
    for (platform, rows) in ALL_PLATFORMS.into_iter().zip(results) {
        for (n, exec_time, peak_mem) in rows {
            match exec_time {
                Some(d) => t.row(vec![
                    platform.name().into(),
                    format!("{n}"),
                    num(d.as_secs_f64()),
                    mb(peak_mem),
                ]),
                None => t.row(vec![
                    platform.name().into(),
                    format!("{n}"),
                    "X".into(),
                    "X".into(),
                ]),
            }
        }
    }
    t
}

/// Figure 12: IOHeavy write/read throughput and disk usage per tuple count.
pub fn fig12(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Figure 12: IOHeavy (tuple counts = paper / 10)",
        &["platform", "tuples", "write tup/s", "read tup/s", "disk MB"],
    );
    let grid: Vec<(Platform, u64)> = ALL_PLATFORMS
        .into_iter()
        .flat_map(|p| scale.io_tuples.iter().map(move |&n| (p, n)))
        .collect();
    // Cell cost here is tuple volume, not node-count × duration.
    let hinted: Vec<(u64, (Platform, u64))> =
        grid.iter().map(|&(p, n)| (n, (p, n))).collect();
    let results = map_cells_hinted(hinted, |(platform, tuples)| {
        // Fresh chain per size, like the paper's per-point runs.
        let mut chain = platform.build_micro(IO_MEM_SCALE);
        let mut runner = IoHeavyRunner::new(10_000);
        runner.run(chain.as_mut(), tuples)
    });
    for ((platform, tuples), r) in grid.into_iter().zip(results) {
        t.row(vec![
            platform.name().into(),
            format!("{tuples}"),
            r.write_tps.map(num).unwrap_or_else(|| "X".into()),
            r.read_tps.map(num).unwrap_or_else(|| "X".into()),
            mb(r.disk_bytes),
        ]);
    }
    t
}

/// Figures 13a and 13b: analytics query latency vs blocks scanned.
pub fn fig13ab(scale: &Scale) -> (Table, Table) {
    let mut q1 = Table::new(
        "Figure 13a: analytics Q1 latency (total value in range)",
        &["platform", "blocks scanned", "latency s", "round trips"],
    );
    let mut q2 = Table::new(
        "Figure 13b: analytics Q2 latency (largest change of an account)",
        &["platform", "blocks scanned", "latency s", "round trips"],
    );
    // One preloaded chain serves every span, so the cell is the platform.
    let blocks = scale.analytics_blocks;
    let spans = scale.analytics_spans.clone();
    let results = map_cells(ALL_PLATFORMS.to_vec(), move |platform| {
        let nodes = if platform == Platform::Hyperledger { 4 } else { 1 };
        let mut chain = platform.build(nodes);
        let mut runner = AnalyticsRunner::new(1024, blocks, 3, 77);
        runner.preload(chain.as_mut());
        spans
            .iter()
            .filter(|&&span| span <= blocks)
            .map(|&span| {
                let r1 = runner.q1(chain.as_mut(), span);
                let r2 = runner.q2(chain.as_mut(), 7, span);
                (span, r1, r2)
            })
            .collect::<Vec<_>>()
    });
    for (platform, rows) in ALL_PLATFORMS.into_iter().zip(results) {
        for (span, r1, r2) in rows {
            q1.row(vec![
                platform.name().into(),
                format!("{span}"),
                num(r1.latency.as_secs_f64()),
                format!("{}", r1.round_trips),
            ]);
            q2.row(vec![
                platform.name().into(),
                format!("{span}"),
                num(r2.latency.as_secs_f64()),
                format!("{}", r2.round_trips),
            ]);
        }
    }
    (q1, q2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_sim::SimDuration;

    fn tiny() -> Scale {
        Scale {
            duration: SimDuration::from_secs(5),
            cpu_sizes: vec![10_000, 1_000_000],
            io_tuples: vec![20_000],
            analytics_blocks: 200,
            analytics_spans: vec![10, 200],
            ..Scale::quick()
        }
    }

    #[test]
    fn fig11_shape_ethereum_slowest_and_ooms() {
        let t = fig11(&tiny());
        let text = t.render();
        // Ethereum OOMs at the scaled-up size, like the paper's 100M 'X'.
        let eth_big = text
            .lines()
            .find(|l| l.contains("ethereum") && l.contains("1000000"))
            .unwrap();
        assert!(eth_big.contains('X'), "{eth_big}");
        // Hyperledger finishes everything.
        assert!(
            !text
                .lines()
                .filter(|l| l.contains("hyperledger"))
                .any(|l| l.contains('X')),
            "{text}"
        );
    }

    #[test]
    fn fig13_q2_fabric_needs_one_round_trip() {
        let (_, q2) = fig13ab(&tiny());
        let text = q2.render();
        for line in text.lines().filter(|l| l.contains("hyperledger")) {
            assert!(line.trim().ends_with(" 1"), "{line}");
        }
        // EVM platforms pay one RPC per block.
        let eth_200 = text
            .lines()
            .find(|l| l.contains("ethereum") && l.split_whitespace().nth(1) == Some("200"))
            .unwrap();
        assert!(eth_200.trim().ends_with("200"), "{eth_200}");
    }
}
