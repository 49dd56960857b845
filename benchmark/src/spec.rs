//! The benchmark's fixed vocabulary: workloads and metrics, by name.
//! `BENCHMARK.json` at the repo root declares the same lists; a unit test
//! keeps the two in step.

/// `--seconds` at which the workload sizes below were calibrated: a
/// single-cell workload then measures about this many wall seconds on the
/// 2-core reference host. Simulated windows scale linearly with `--seconds`.
pub const NOMINAL_SECONDS: f64 = 10.0;

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 42;

/// Differences in `setup_s` below this many seconds are ties.
pub const SETUP_TIE_S: f64 = 0.02;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// Extra set-up-only child processes per run; `setup_s` is the median
    /// over them and the measured run's own set-up.
    pub setup_reps: usize,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "eth_ycsb_peak",
        why: "8x8 closed-loop YCSB on PoW at 256 tx/s/client: saturated pool, tx gossip, Patricia trie that fits the node cache",
        setup_reps: 4,
    },
    WorkloadSpec {
        name: "fabric_ycsb_open",
        why: "open-loop Poisson 1000 tx/s over 1M lazy accounts on PBFT, below the knee: normal-case consensus, bucket tree, LSM writes",
        setup_reps: 8,
    },
    WorkloadSpec {
        name: "eth_ioheavy",
        why: "160k tuples written then read through execute_direct on one node: SVM + Patricia + LSM only, 9% trie-cache misses; bypasses consensus, network and event engine",
        setup_reps: 8,
    },
    WorkloadSpec {
        name: "fabric_crash_16",
        why: "16 PBFT replicas, primary crashes at 15 s and restarts at 30 s: O(n^2) traffic, view change, WAL replay, snapshot sync",
        setup_reps: 8,
    },
    WorkloadSpec {
        name: "sweep_fig5",
        why: "the Figure 5 grid, 3 platforms x 2 workloads x 3 rates through map_cells_hinted: cell scatter, nested pools, per-cell set-up, Parity, Smallbank",
        setup_reps: 1,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Host time and host memory only; see README "Two clocks". The bounds are
/// what the spread between quartiles of ten runs of one commit allows on the
/// reference host — time 4–10 % when it is quiet and up to 23 % when it is
/// not, memory up to 5 % (on the sweep) — capped at 25 %.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Layer = crate. Three sources: spans of the traced run (`driver.`,
/// `workloads.*_s/_calls`, `chain.`, `trace.`, `bench.`), exact counts the
/// model reports at run end (`model.`, `net.bytes*`, `merkle.cache_*`/
/// `nodes_*`, `storage.` counts, `exec.` counts, `consensus.equivocations`,
/// `recovery.`), and kernels (`*_ns`, `*_ms`, `pbft_msgs_per_batch`).
pub const PER_LAYER: [PerLayer; 77] = [
    // Traced run.
    layer("driver.self_s", "s", Lower),
    layer("driver.self_share", "ratio", Lower),
    layer("workloads.setup_s", "s", Lower),
    layer("workloads.gen_s", "s", Lower),
    layer("workloads.gen_calls", "count", Lower),
    layer("chain.build_s", "s", Lower),
    layer("chain.submit_s", "s", Lower),
    layer("chain.submit_calls", "count", Lower),
    layer("chain.advance_s", "s", Lower),
    layer("chain.advance_calls", "count", Lower),
    layer("chain.advance_p50_us", "us", Lower),
    layer("chain.advance_p99_us", "us", Lower),
    layer("chain.advance_max_ms", "ms", Lower),
    layer("chain.poll_s", "s", Lower),
    layer("chain.poll_calls", "count", Lower),
    layer("chain.direct_s", "s", Lower),
    layer("chain.direct_calls", "count", Lower),
    layer("chain.inject_s", "s", Lower),
    layer("chain.stats_s", "s", Lower),
    layer("chain.sim_s_per_wall_s", "ratio", Higher),
    layer("chain.tx_per_wall_s", "1/s", Higher),
    layer("trace.overhead_pct", "%", Lower),
    layer("bench.cells", "count", Higher),
    layer("bench.cell_wall_sum_s", "s", Lower),
    layer("bench.cell_wall_max_s", "s", Lower),
    layer("bench.scatter_efficiency", "ratio", Higher),
    // Exact counts (virtual-time model outputs: compare for equality).
    layer("model.submitted", "count", Higher),
    layer("model.committed", "count", Higher),
    layer("model.aborted", "count", Lower),
    layer("model.rejected", "count", Lower),
    layer("model.unconfirmed", "count", Lower),
    layer("model.tps", "1/s", Higher),
    layer("model.latency_p50_s", "s", Lower),
    layer("model.latency_p99_s", "s", Lower),
    layer("model.blocks_main", "count", Higher),
    layer("model.blocks_total", "count", Higher),
    layer("model.sim_s", "s", Higher),
    layer("net.bytes", "B", Lower),
    layer("net.bytes_per_commit", "B", Lower),
    layer("merkle.cache_hits", "count", Higher),
    layer("merkle.cache_misses", "count", Lower),
    layer("merkle.nodes_flushed", "count", Lower),
    layer("merkle.nodes_dropped", "count", Higher),
    layer("storage.batches", "count", Lower),
    layer("storage.bytes_written", "B", Lower),
    layer("storage.write_amp", "ratio", Lower),
    layer("storage.bytes_compacted", "B", Lower),
    layer("storage.wal_records_replayed", "count", Lower),
    layer("exec.conflicts", "count", Lower),
    layer("exec.serial_us", "us", Lower),
    layer("exec.modeled_us", "us", Lower),
    layer("consensus.equivocations", "count", Lower),
    layer("recovery.ms", "ms", Lower),
    layer("recovery.resync_blocks", "count", Lower),
    layer("recovery.snapshot_chunks", "count", Lower),
    // Layer kernels.
    layer("sim.shard_ns_per_event", "ns", Lower),
    layer("net.send_ns", "ns", Lower),
    layer("consensus.pbft_ns_per_msg", "ns", Lower),
    layer("consensus.pbft_msgs_per_batch", "count", Lower),
    layer("crypto.sha256_64B_ns", "ns", Lower),
    layer("crypto.sha256_1KiB_ns", "ns", Lower),
    layer("crypto.sign_ns", "ns", Lower),
    layer("crypto.verify_ns", "ns", Lower),
    layer("merkle.patricia_insert_ns", "ns", Lower),
    layer("merkle.patricia_get_ns", "ns", Lower),
    layer("merkle.patricia_commit16_ns", "ns", Lower),
    layer("merkle.bucket_put_commit16_ns", "ns", Lower),
    layer("storage.lsm_batch64_ns", "ns", Lower),
    layer("storage.lsm_get_ns", "ns", Lower),
    layer("storage.lsm_recover_open_ns", "ns", Lower),
    layer("storage.lsm_compact_ns", "ns", Lower),
    layer("exec.block32_disjoint_ns", "ns", Lower),
    layer("exec.block32_hot_ns", "ns", Lower),
    layer("svm.cpuheavy_10k_ms", "ms", Lower),
    layer("workloads.ycsb_next_tx_ns", "ns", Lower),
    layer("workloads.population_sign_ns", "ns", Lower),
    layer("driver.arrival_ns", "ns", Lower),
];

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} in {entry:?}"))
    }

    #[test]
    fn manifest_declares_exactly_this_vocabulary() {
        let doc = manifest();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(NOMINAL_SECONDS)
        );
        assert_eq!(
            doc.get("paths").unwrap().elements(),
            [Json::str("benchmark")]
        );

        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .unwrap()
            .elements()
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        assert_eq!(
            workloads,
            WORKLOADS
                .iter()
                .map(|w| (w.name, w.why))
                .collect::<Vec<_>>()
        );

        let end_to_end: Vec<(&str, &str, &str, f64)> = doc
            .get("end_to_end")
            .unwrap()
            .elements()
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        assert_eq!(
            end_to_end,
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit, m.better.as_str(), m.bound))
                .collect::<Vec<_>>()
        );

        let per_layer: Vec<(&str, &str, &str)> = doc
            .get("per_layer")
            .unwrap()
            .elements()
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        assert_eq!(
            per_layer,
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, m.better.as_str()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn vocabulary_meets_the_manifest_limits() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        assert!(END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
            .all(unit_ok));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = end_to_end("setup_s").expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s takes the largest bound"
        );
    }
}
