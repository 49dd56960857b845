//! Same-seed results must be byte-identical however the host runs them:
//!
//! - across worker counts of the experiment runner (`BB_WORKERS=1` vs
//!   `BB_WORKERS=4`): each cell builds its own simulated world on its own
//!   virtual clock, and `map_cells` collects results in input order, so
//!   thread scheduling must not be observable in any rendered table;
//! - across repetitions (*replay*): a world runs on one thread and draws all
//!   its randomness from its seed, so the same seeded run twice in one
//!   process must render the same bytes — full `RunStats` debug output,
//!   across seeds, platforms and fault injections. What this catches is
//!   state leaking into results from outside the seed, `HashMap` iteration
//!   order first of all: every map's `RandomState` is keyed differently, so
//!   two runs in one process iterate in two orders.

use bb_bench::exp_macro::{self, fig13c_grid, fig18_grid, fig5_grid, Macro, MacroCells};
use bb_bench::{Platform, Scale, ALL_PLATFORMS};
use bb_ethereum::{EthConfig, EthereumChain};
use bb_fabric::{FabricChain, FabricConfig};
use bb_parity::{ParityChain, ParityConfig};
use bb_sim::SimDuration;
use bb_types::NodeId;
use bb_workloads::ycsb::{YcsbConfig, YcsbWorkload};
use blockbench::{
    run_open_loop, run_timeline, run_workload, ArrivalProcess, BlockchainConnector, ByzBehavior,
    ByzClientSpec, ChaosPlan, DriverConfig, Fault, OpenLoopConfig,
};

fn tiny_scale() -> Scale {
    Scale {
        duration: SimDuration::from_secs(3),
        rates: vec![64.0],
        ..Scale::quick()
    }
}

/// Run the same seeded experiment twice and require identical bytes;
/// returns them for the caller's non-vacuity checks.
fn assert_replays(what: &str, run: impl Fn() -> String) -> String {
    let first = run();
    assert_eq!(first, run(), "{what}: the same seeded run rendered different bytes");
    first
}

/// Require `text`'s SHA-256 to be `want`, a known answer: a replay only says
/// a run repeats, this says it is the run the literal was taken from, so a
/// refactor that moves one scheduled event or one RNG draw fails here.
fn assert_known_answer(what: &str, text: &str, want: &str) {
    let got = bb_crypto::Hash256(bb_crypto::sha256(text.as_bytes())).to_hex();
    assert_eq!(got, want, "{what}: the run's text is not the known answer");
}

fn build_seeded(platform: Platform, nodes: u32, seed: u64) -> Box<dyn BlockchainConnector> {
    match platform {
        Platform::Ethereum => {
            let mut c = EthConfig::with_nodes(nodes);
            c.seed = seed;
            Box::new(EthereumChain::new(c))
        }
        Platform::Parity => {
            let mut c = ParityConfig::with_nodes(nodes);
            c.seed = seed;
            Box::new(ParityChain::new(c))
        }
        Platform::Hyperledger => {
            let mut c = FabricConfig::with_nodes(nodes);
            c.seed = seed;
            Box::new(FabricChain::new(c))
        }
    }
}

/// The only test in this binary that touches the (process-global) knob, and
/// both values it sets are valid, so it needs no lock against the others.
#[test]
fn figure_tables_byte_identical_parallel_vs_serial() {
    let scale = tiny_scale();
    let render = |workers: &str| {
        std::env::set_var("BB_WORKERS", workers);
        let grids = [fig5_grid, fig13c_grid, fig18_grid].map(|grid| grid(&scale));
        let cells = MacroCells::run(grids.into_iter().flatten());
        let (performance, saturation) = exp_macro::fig5(&cells, &scale);
        let fig18 = exp_macro::fig18(&cells, &scale);
        [exp_macro::fig13c(&cells, &scale), performance, saturation, fig18].map(|t| t.render())
    };
    let serial = render("1");
    // Multi-threaded even on single-core CI machines.
    let parallel = render("4");
    std::env::remove_var("BB_WORKERS");
    assert_eq!(serial, parallel, "fig13c/fig5/fig18 must not depend on thread scheduling");
}

/// One full driver run (open-loop clients, polling, drain) with the full
/// `RunStats` rendered via `Debug` — every counter, every latency sample,
/// every timeline point participates in the comparison.
fn driver_stats(platform: Platform, seed: u64) -> String {
    let mut chain = build_seeded(platform, 4, seed);
    let mut workload = Macro::Ycsb.build(4);
    let config = DriverConfig {
        clients: 4,
        rate_per_client: 50.0,
        duration: SimDuration::from_secs(3),
        poll_interval: SimDuration::from_millis(500),
        drain: SimDuration::from_secs(2),
    };
    let stats = run_workload(chain.as_mut(), workload.as_mut(), &config);
    // The block-scoped batched write path is the only write path — no
    // feature flag — so every run being compared here must show flush
    // activity: sealed blocks landed as atomic store batches, and the
    // comparison below covers those counters byte for byte too.
    assert!(
        stats.platform.batch_put_count > 0,
        "{}: no write batches were applied during the run",
        platform.name()
    );
    assert!(
        stats.platform.state_nodes_flushed > 0,
        "{}: no state nodes were flushed at block seals",
        platform.name()
    );
    format!("{stats:?}")
}

#[test]
fn run_stats_replay_byte_identical_across_platforms_and_seeds() {
    let known = [
        (Platform::Ethereum, "e7c166529e5535ecad36f50f680a2e11ea874db4c7ac82ea823ebf16f45dd4cd"),
        (Platform::Parity, "b90b33bf3b89ac56ff8bffdae386d67253ac64d6e6e5e83532ccc48846729b2c"),
        (Platform::Hyperledger, "cf5214d2b0f74ce59181d2c3608861b523550c9803aff9dc3163c3dc88b3d584"),
    ];
    for (platform, want) in known {
        let texts: String = [1u64, 7, 42]
            .into_iter()
            .map(|seed| {
                assert_replays(&format!("{} seed {seed}", platform.name()), || {
                    driver_stats(platform, seed)
                })
            })
            .collect();
        assert_known_answer(&format!("{} run stats", platform.name()), &texts, want);
    }
}

/// The open-loop driver adds two scheduling sources the closed-loop path
/// does not have — the arrival-process generator and the retry queue — and
/// both must be functions of the seed alone: full `RunStats` from an
/// open-loop run must replay byte for byte. 200 tx/s is past Parity's ~45
/// tx/s, so Parity refuses part of it and its retries go through the queue.
fn open_loop_stats(platform: Platform, seed: u64) -> String {
    let mut chain = build_seeded(platform, 4, seed);
    let mut workload = Macro::Ycsb.build(1);
    let config = OpenLoopConfig {
        population: 50_000,
        process: ArrivalProcess::Poisson { rate: 200.0 },
        zipf_theta: 0.0,
        duration: SimDuration::from_secs(3),
        poll_interval: SimDuration::from_millis(500),
        drain: SimDuration::from_secs(2),
        retry_backoff: SimDuration::from_millis(100),
        seed,
    };
    let stats = run_open_loop(chain.as_mut(), workload.as_mut(), &config);
    assert!(stats.submitted > 0, "{}: open-loop run sent nothing", platform.name());
    if platform == Platform::Parity {
        assert!(stats.rejected > 0, "parity refused nothing: the retry queue went unexercised");
    }
    format!("{stats:?}")
}

#[test]
fn open_loop_run_stats_replay_byte_identical() {
    for platform in ALL_PLATFORMS {
        for seed in [1u64, 42] {
            assert_replays(&format!("{} open loop, seed {seed}", platform.name()), || {
                open_loop_stats(platform, seed)
            });
        }
    }
}

/// Block execution under maximum contention: a hot-key YCSB mix
/// (`zipf_theta = 0.99` over few records), where most transactions of a
/// block read what an earlier one wrote. Every platform executes each block
/// serially, so receipts and roots are decided by block content alone and
/// must replay.
fn hot_key_stats(platform: Platform, seed: u64) -> String {
    let mut chain = build_seeded(platform, 4, seed);
    let mut workload = YcsbWorkload::new(YcsbConfig {
        record_count: 16,
        preload_records: 16,
        zipf_theta: 0.99,
        clients: 4,
        seed,
        ..YcsbConfig::default()
    });
    let config = DriverConfig {
        clients: 4,
        rate_per_client: 50.0,
        duration: SimDuration::from_secs(3),
        poll_interval: SimDuration::from_millis(500),
        drain: SimDuration::from_secs(2),
    };
    format!("{:?}", run_workload(chain.as_mut(), &mut workload, &config))
}

#[test]
fn hot_key_run_replays_byte_identical() {
    for platform in ALL_PLATFORMS {
        assert_replays(&format!("{} hot-key run", platform.name()), || {
            hot_key_stats(platform, 42)
        });
    }
}

/// Figure-9-style fault drive: crash a third of a 12-node cluster mid-run
/// after slowing one node down, sampling cumulative commits and block
/// counters every simulated second. Faults land between `run_until` calls.
fn fault_timeline(platform: Platform) -> String {
    // A straggler first: node 1 gains 40 ms of extra link latency. Then a
    // crash of the last four nodes (node 0 is the observer).
    let mut plan = ChaosPlan::new()
        .at(SimDuration::from_secs(2), Fault::Delay(NodeId(1), SimDuration::from_millis(40)));
    for i in 8..12 {
        plan = plan.at(SimDuration::from_secs(5), Fault::Crash(NodeId(i)));
    }
    let mut chain = build_seeded(platform, 12, 42);
    let run = run_timeline(chain.as_mut(), Macro::Ycsb.build(4).as_mut(), 4, 40.0, 15, &plan);
    // The timeline itself must show the fault bit: commits exist before
    // the crash, so the comparison is not over an all-zero string.
    assert!(run.series[4].1 > 0, "{}: no commits before the crash", platform.name());
    run.series
        .iter()
        .map(|(t, committed, stats)| {
            format!(
                "t={t} committed={committed} total={} main={}\n",
                stats.blocks_total, stats.blocks_main
            )
        })
        .collect()
}

/// Crash→restart→catch-up drive: node 3 of 4 power-cuts at t=3 s (torn WAL
/// tail included), restarts from its durable store at t=7 s and resyncs
/// from the survivors. Restarts rebuild whole node worlds between
/// `run_until` calls — the rebuild, the WAL replay and the catch-up must all
/// replay.
fn restart_timeline(platform: Platform) -> String {
    let victim = NodeId(3);
    let plan = ChaosPlan::new()
        .at(SimDuration::from_secs(3), Fault::Crash(victim))
        .at(SimDuration::from_secs(3), Fault::TornTail(victim))
        .at(SimDuration::from_secs(7), Fault::Restart(victim));
    let mut chain = build_seeded(platform, 4, 42);
    let run = run_timeline(chain.as_mut(), Macro::Ycsb.build(4).as_mut(), 4, 20.0, 20, &plan);
    // The comparison is meaningless over a run where the victim never
    // caught back up: the timeline must contain a completed recovery.
    let last = &run.series.last().expect("timeline non-empty").2;
    assert!(last.resync_blocks > 0, "{}: victim resynced nothing", platform.name());
    assert!(last.recovery_ms > 0, "{}: no completed recovery window", platform.name());
    run.series
        .iter()
        .map(|(t, committed, stats)| {
            format!(
                "t={t} committed={committed} main={} recovery_ms={} resync={} wal={}+{}\n",
                stats.blocks_main,
                stats.recovery_ms,
                stats.resync_blocks,
                stats.wal_records_replayed,
                stats.wal_tail_truncated,
            )
        })
        .collect()
}

#[test]
fn restart_and_catchup_replay_identically() {
    let known = [
        (Platform::Ethereum, "7fe4034ab4d58276c41eacd472dcabc4792ccd85812a946e1af3334cc9588384"),
        (Platform::Parity, "a22c16d6ad8577f1f346cf0779c99a679388b7bd79c3bbde1765930bdb0ff594"),
        (Platform::Hyperledger, "94bc3ac41cf0303062c36924b403ae145841c90a6a7567a2b525b17ed6d9b85e"),
    ];
    for (platform, want) in known {
        let what = format!("{} restart timeline", platform.name());
        let text = assert_replays(&what, || restart_timeline(platform));
        assert_known_answer(&what, &text, want);
    }
}

/// Snapshot-transfer drive: the chains of `restart_timeline`, tuned as in
/// `cross_platform::deep_gap_chains` (gaps deeper than 4 blocks take a
/// snapshot, in 512-byte chunks, and Ethereum mines every 0.5 s). Node 3
/// power-cuts at t=3 s (torn WAL tail included) and restarts at t=12 s,
/// past the replay threshold, so it recovers by state transfer.
/// `snapshot_bytes` stays out of the text: the known answer pins the
/// transfer's schedule, not how each platform prices a chunk.
fn snapshot_timeline(platform: Platform) -> String {
    let victim = NodeId(3);
    let plan = ChaosPlan::new()
        .at(SimDuration::from_secs(3), Fault::Crash(victim))
        .at(SimDuration::from_secs(3), Fault::TornTail(victim))
        .at(SimDuration::from_secs(12), Fault::Restart(victim));
    let mut chain: Box<dyn BlockchainConnector> = match platform {
        Platform::Ethereum => {
            let mut c = EthConfig::with_nodes(4);
            c.pow.base_interval = SimDuration::from_millis(500);
            (c.snapshot_sync_blocks, c.snapshot_chunk_bytes) = (4, 512);
            Box::new(EthereumChain::new(c))
        }
        Platform::Parity => {
            let mut c = ParityConfig::with_nodes(4);
            (c.snapshot_sync_blocks, c.snapshot_chunk_bytes) = (4, 512);
            Box::new(ParityChain::new(c))
        }
        Platform::Hyperledger => {
            let mut c = FabricConfig::with_nodes(4);
            (c.snapshot_sync_blocks, c.snapshot_chunk_bytes) = (4, 512);
            Box::new(FabricChain::new(c))
        }
    };
    let run = run_timeline(chain.as_mut(), Macro::Ycsb.build(4).as_mut(), 4, 20.0, 25, &plan);
    let last = &run.series.last().expect("timeline non-empty").2;
    assert!(last.snapshot_chunks > 0, "{}: the deep gap took no snapshot", platform.name());
    assert!(last.recovery_ms > 0, "{}: no completed recovery window", platform.name());
    run.series
        .iter()
        .map(|(t, committed, stats)| {
            format!(
                "t={t} committed={committed} chunks={} recovery_ms={} resync={}\n",
                stats.snapshot_chunks, stats.recovery_ms, stats.resync_blocks,
            )
        })
        .collect()
}

#[test]
fn snapshot_timeline_replays_identically() {
    let known = [
        (Platform::Ethereum, "1b86f65b35cdbf129df8de3bf5cccaf356e1fb85b48a400966d57a2713ef0dea"),
        (Platform::Parity, "1783e7a26288658d57383a3b781fec5683c57450a44b62604c0b3b6559828cdf"),
        (Platform::Hyperledger, "052284733d516243f8b2aa78658ad67cdc6b77d609bbe5b9ea50b7906e36a953"),
    ];
    for (platform, want) in known {
        let what = format!("{} snapshot timeline", platform.name());
        let text = assert_replays(&what, || snapshot_timeline(platform));
        assert_known_answer(&what, &text, want);
    }
}

/// A composite [`ChaosPlan`] — flapping partition, gossip jitter, a
/// nonce-gap flood and a slow disk all active in one window — driven
/// through `run_timeline`. Byzantine actors are clock-driven (no RNG)
/// and jitter flows through the seeded network stream, so the full
/// per-second series, the honest-rejection counts and every node's
/// committed chain must replay byte for byte.
fn chaos_run_fingerprint(platform: Platform, seed: u64) -> String {
    let plan = ChaosPlan::new()
        .flapping_partition(SimDuration::from_secs(4), SimDuration::from_millis(1000), 3, 3)
        .at(SimDuration::from_secs(4), Fault::GossipJitter(SimDuration::from_millis(2)))
        .at(SimDuration::from_secs(4), Fault::SlowDisk(NodeId(1), SimDuration::from_micros(200)))
        .at(SimDuration::from_secs(10), Fault::Heal)
        .at(SimDuration::from_secs(10), Fault::SlowDisk(NodeId(1), SimDuration::ZERO))
        .actor(ByzClientSpec {
            server: NodeId(0),
            behavior: ByzBehavior::NonceGapFlood { start_nonce: 10_000 },
            rate: 30.0,
            from: SimDuration::from_secs(4),
            until: SimDuration::from_secs(8),
            key_seed: 0xBAD_CAFE,
        });
    let mut chain = build_seeded(platform, 4, seed);
    let run = run_timeline(chain.as_mut(), Macro::Ycsb.build(4).as_mut(), 4, 25.0, 14, &plan);
    assert!(run.byz_submitted > 0, "{}: flood actor never fired", platform.name());
    let last = run.series.last().expect("non-empty series");
    assert!(last.1 > 0, "{}: chaos run committed nothing", platform.name());
    format!(
        "series={:?}\nhonest_rejected={:?}\nchains={:?}\nbyz={}/{}\n",
        run.series, run.honest_rejected, run.chains, run.byz_submitted, run.byz_rejected
    )
}

#[test]
fn chaos_plan_runs_replay_byte_identical() {
    for platform in ALL_PLATFORMS {
        let run = assert_replays(&format!("{} chaos run", platform.name()), || {
            chaos_run_fingerprint(platform, 42)
        });
        // Non-vacuity: the partition really flapped — the fingerprint
        // embeds the stats, so pull the flap count back out of it.
        assert!(
            run.contains("partition_flaps: 3"),
            "{}: expected 3 partition flaps in the run:\n{}",
            platform.name(),
            run.lines().next().unwrap_or("")
        );
    }
}

#[test]
fn crash_and_delay_faults_replay_identically() {
    for platform in ALL_PLATFORMS {
        assert_replays(&format!("{} fault timeline", platform.name()), || {
            fault_timeline(platform)
        });
    }
}
