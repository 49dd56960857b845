//! Quickstart: benchmark one blockchain with one workload in ~30 lines.
//!
//! ```sh
//! cargo run --release -p bb-bench --example quickstart
//! ```
//!
//! Builds a 4-node Hyperledger-like (PBFT) network, deploys the YCSB
//! key-value contract, drives it with 4 open-loop clients at 100 tx/s each
//! for 30 virtual seconds, and prints the statistics the paper reports:
//! throughput, latency percentiles and the outstanding-queue profile.

use bb_fabric::{FabricChain, FabricConfig};
use bb_sim::SimDuration;
use bb_workloads::ycsb::YcsbConfig;
use bb_workloads::YcsbWorkload;
use blockbench::driver::{run_workload, DriverConfig};
use blockbench::BlockchainConnector;

fn main() {
    // 1. Pick a platform (any `BlockchainConnector` works here).
    let mut chain = FabricChain::new(FabricConfig::with_nodes(4));

    // 2. Pick a workload (any `WorkloadConnector`).
    let mut workload = YcsbWorkload::new(YcsbConfig {
        record_count: 10_000,
        preload_records: 1_000,
        read_ratio: 0.5,
        ..YcsbConfig::default()
    });

    // 3. Run the asynchronous driver on virtual time.
    let stats = run_workload(
        &mut chain,
        &mut workload,
        &DriverConfig {
            clients: 4,
            rate_per_client: 100.0,
            duration: SimDuration::from_secs(30),
            poll_interval: SimDuration::from_millis(500),
            drain: SimDuration::from_secs(10),
        },
    );

    // 4. Read the results.
    println!("platform:   {}", chain.name());
    println!("{}", stats.summary_line());
    println!(
        "blocks:     {} on the main chain, {} transactions committed",
        stats.platform.blocks_main, stats.platform.txs_committed
    );
    println!(
        "fork ratio: {:.3} (1.0 = no forks; PBFT never forks)",
        blockbench::security::fork_ratio(&stats.platform)
    );
    let tl = stats.throughput_timeline();
    let mid = &tl[tl.len() / 2..tl.len() / 2 + 5.min(tl.len() / 2)];
    println!("steady-state committed/s (mid-run sample): {mid:?}");
}
