//! Cross-crate integration: the same workloads drive all three platforms
//! through the same framework interfaces, deterministically.

use bb_bench::exp_macro::{run_macro, Macro};
use bb_bench::{Platform, ALL_PLATFORMS};
use bb_sim::SimDuration;

#[test]
fn every_platform_commits_every_workload() {
    for platform in ALL_PLATFORMS {
        for workload in [Macro::Ycsb, Macro::Smallbank, Macro::DoNothing] {
            let stats = run_macro(platform, workload, 4, 4, 10.0, SimDuration::from_secs(15));
            assert!(
                stats.committed > 0,
                "{} × {:?} committed nothing: {}",
                platform.name(),
                workload,
                stats.summary_line()
            );
            // At 40 tx/s offered, nobody should saturate — nearly every
            // accepted submission must confirm by the end of the drain
            // (Parity's cap is ~45 tx/s, above this). `committed`/`aborted`
            // are window-scoped, so count confirmations via the latency
            // samples: every harvested confirmation leaves exactly one,
            // drain-phase included — slow-confirming PoW would undercount
            // against a 15 s window otherwise.
            assert!(
                stats.latencies.count() as u64 > stats.submitted * 9 / 10,
                "{} × {:?} lost transactions: {} confirmed of {}",
                platform.name(),
                workload,
                stats.latencies.count(),
                stats.submitted
            );
        }
    }
}

#[test]
fn realistic_contract_workloads_run_everywhere() {
    use bb_workloads::{DoublerWorkload, EtherIdWorkload, WavesWorkload};
    use blockbench::driver::{run_workload, DriverConfig, WorkloadConnector};

    let config = DriverConfig {
        clients: 4,
        rate_per_client: 10.0,
        duration: SimDuration::from_secs(10),
        poll_interval: SimDuration::from_millis(500),
        drain: SimDuration::from_secs(10),
    };
    for platform in ALL_PLATFORMS {
        let workloads: Vec<Box<dyn WorkloadConnector>> = vec![
            Box::new(EtherIdWorkload::new(4, 1)),
            Box::new(DoublerWorkload::new(4, 2)),
            Box::new(WavesWorkload::new(4, 3)),
        ];
        for mut wl in workloads {
            let mut chain = platform.build(4);
            let name = wl.name();
            let stats = run_workload(chain.as_mut(), wl.as_mut(), &config);
            // `committed` is window-scoped; with a ~2.5 s PoW interval and
            // confirm depth 2 the confirmations back-load into the drain, so
            // count every harvested confirmation (each leaves exactly one
            // latency sample, drain included) rather than betting the
            // threshold on block-race luck inside the 10 s window.
            assert!(
                stats.latencies.count() > 100,
                "{} × {}: {}",
                platform.name(),
                name,
                stats.summary_line()
            );
        }
    }
}

#[test]
fn disk_footprints_follow_the_data_models() {
    // Same committed work: trie platforms pay an order of magnitude more
    // disk than the flat-KV platform; Parity pays none at all (in-memory).
    let eth = run_macro(Platform::Ethereum, Macro::Ycsb, 4, 4, 20.0, SimDuration::from_secs(20));
    let par = run_macro(Platform::Parity, Macro::Ycsb, 4, 4, 20.0, SimDuration::from_secs(20));
    let fab =
        run_macro(Platform::Hyperledger, Macro::Ycsb, 4, 4, 20.0, SimDuration::from_secs(20));
    assert!(eth.platform.disk_bytes > 0);
    assert_eq!(par.platform.disk_bytes, 0, "parity keeps state in memory");
    assert!(fab.platform.disk_bytes > 0);
    // Normalize per committed transaction. Both durable platforms persist
    // block records alongside state (so a restart can rebuild the chain),
    // which adds the same per-transaction block-body cost to each side; the
    // trie-vs-flat-KV amplification shows up on top of that shared floor.
    let eth_per_tx = eth.platform.disk_bytes as f64 / eth.committed.max(1) as f64;
    let fab_per_tx = fab.platform.disk_bytes as f64 / fab.committed.max(1) as f64;
    assert!(
        eth_per_tx > 1.5 * fab_per_tx,
        "trie amplification missing: eth {eth_per_tx:.0} B/tx vs fabric {fab_per_tx:.0} B/tx"
    );
}

#[test]
fn restart_recovers_durable_prefix_on_every_platform() {
    use blockbench::driver::{run_workload_with_faults, DriverConfig};
    use blockbench::{Fault, FaultPlan};
    use bb_types::NodeId;

    // One node power-cuts mid-run — tearing the tail off its WAL — and
    // restarts five seconds later. On every platform the victim comes back
    // from exactly its durable prefix, resyncs the gap from peers (the
    // recovery window completes), and the cluster keeps committing. The
    // durable platforms additionally replay their WAL and truncate the torn
    // tail; Parity keeps state in memory, so its restart is a genesis
    // rebuild plus a chain re-download and touches no files.
    let victim = NodeId(3);
    let config = DriverConfig {
        clients: 4,
        rate_per_client: 20.0,
        duration: SimDuration::from_secs(20),
        poll_interval: SimDuration::from_millis(500),
        drain: SimDuration::from_secs(10),
    };
    for platform in ALL_PLATFORMS {
        let plan = FaultPlan::new()
            .at(SimDuration::from_secs(5), Fault::Crash(victim))
            .at(SimDuration::from_secs(5), Fault::TornTail(victim))
            .at(SimDuration::from_secs(10), Fault::Restart(victim));
        let mut chain = platform.build(4);
        let mut wl = Macro::Ycsb.build(4);
        let stats = run_workload_with_faults(chain.as_mut(), wl.as_mut(), &config, &plan);
        let p = &stats.platform;
        assert!(stats.committed > 0, "{}: nothing committed", platform.name());
        assert!(p.resync_blocks > 0, "{}: victim resynced nothing", platform.name());
        assert!(p.recovery_ms > 0, "{}: recovery window never completed", platform.name());
        match platform {
            Platform::Parity => {
                assert_eq!(p.wal_records_replayed, 0, "parity has no WAL to replay");
                assert_eq!(p.wal_tail_truncated, 0, "parity has no WAL tail to tear");
            }
            _ => {
                assert!(p.wal_records_replayed > 0, "{}: no WAL replay", platform.name());
                assert!(p.wal_tail_truncated >= 1, "{}: tail not truncated", platform.name());
            }
        }
    }
}

/// A 4-node chain of each platform tuned so a ten-second outage is a gap
/// deeper than the replay threshold and a snapshot transfer spans hundreds
/// of chunk round trips — long enough to inject a fault in the middle.
fn deep_gap_chains() -> Vec<Box<dyn blockbench::BlockchainConnector>> {
    let mut eth = bb_ethereum::EthConfig::with_nodes(4);
    eth.pow.base_interval = SimDuration::from_millis(500);
    let mut parity = bb_parity::ParityConfig::with_nodes(4);
    let mut fabric = bb_fabric::FabricConfig::with_nodes(4);
    (eth.snapshot_sync_blocks, eth.snapshot_chunk_bytes) = (4, 512);
    (parity.snapshot_sync_blocks, parity.snapshot_chunk_bytes) = (4, 512);
    (fabric.snapshot_sync_blocks, fabric.snapshot_chunk_bytes) = (4, 512);
    vec![
        Box::new(bb_ethereum::EthereumChain::new(eth)),
        Box::new(bb_parity::ParityChain::new(parity)),
        Box::new(bb_fabric::FabricChain::new(fabric)),
    ]
}

/// Steady YCSB writes to the three servers that never crash, one every
/// 50 ms, so every platform keeps sealing non-empty blocks.
struct Pump {
    contract: bb_types::Address,
    next: u64,
}

impl Pump {
    fn until(&mut self, chain: &mut dyn blockbench::BlockchainConnector, secs: u64) {
        use bb_contracts::ycsb;
        use bb_types::{NodeId, Transaction};
        let end = bb_sim::SimTime::from_secs(secs);
        while chain.now() < end {
            // One client per server, each on its own nonce track.
            let (client, nonce) = (self.next % 3, self.next / 3);
            let key = bb_crypto::KeyPair::from_seed(1 + client);
            let call = ycsb::write_call(self.next, b"v");
            let tx = Transaction::signed(&key, nonce, self.contract, 0, call);
            assert!(chain.submit(NodeId(client as u32), tx), "live server refused a submission");
            self.next += 1;
            chain.advance_to(chain.now() + SimDuration::from_millis(50));
        }
    }
}

/// Satellite regression: `Restart` with a deep gap opens a snapshot
/// transfer, `Crash` lands in the middle of it (the in-flight chunks are
/// dropped by the dead node), `Recover` revives the node. The transfer
/// flag used to stay latched on Parity and Fabric, so the node ignored
/// every block (or batch) forever.
#[test]
fn crash_during_snapshot_transfer_does_not_wedge_the_node() {
    use blockbench::{check_chains, Fault};
    use bb_types::NodeId;
    let victim = NodeId(3);
    for mut chain in deep_gap_chains() {
        let name = chain.name();
        let chain = chain.as_mut();
        let mut pump = Pump { contract: chain.deploy(&bb_contracts::ycsb::bundle()), next: 0 };
        pump.until(chain, 3);
        chain.inject(Fault::Crash(victim));
        pump.until(chain, 13);
        chain.inject(Fault::Restart(victim));
        // Step until the transfer is under way, then pull the plug.
        let deadline = chain.now() + SimDuration::from_secs(1);
        while chain.stats().snapshot_chunks < 3 {
            assert!(chain.now() < deadline, "{name}: deep gap never opened a snapshot transfer");
            chain.advance_to(chain.now() + SimDuration::from_micros(200));
        }
        assert_eq!(chain.stats().recovery_ms, 0, "{name}: transfer finished before the crash");
        chain.inject(Fault::Crash(victim));
        let torn_at = chain.stats().snapshot_chunks;
        pump.until(chain, 16);
        assert_eq!(chain.stats().snapshot_chunks, torn_at, "{name}: a dead node applied chunks");
        chain.inject(Fault::Recover(victim));
        pump.until(chain, 30);
        // Let the tail confirm, then compare chains.
        chain.advance_to(bb_sim::SimTime::from_secs(40));
        let chains: Vec<_> = (0..4).map(|i| chain.committed_chain(NodeId(i))).collect();
        let (peer, mine) = (chains[0].len(), chains[3].len());
        assert!(peer > 10, "{name}: the cluster stalled at {peer} blocks");
        assert!(peer.abs_diff(mine) <= 3, "{name}: revived node wedged at {mine} of {peer} blocks");
        let checked = check_chains(&chains, 3).unwrap_or_else(|v| panic!("{name}: {v}"));
        assert!(checked > 0, "{name}: safety check was vacuous");
    }
}

/// A restart replaces the node but not what the run has counted so far:
/// every per-node counter that feeds `PlatformStats` is at least its
/// pre-crash value right after the node is rebuilt.
#[test]
fn restart_preserves_every_node_counter() {
    use blockbench::Fault;
    use bb_types::NodeId;
    let victim = NodeId(3);
    for mut chain in deep_gap_chains() {
        let name = chain.name();
        let chain = chain.as_mut();
        let mut pump = Pump { contract: chain.deploy(&bb_contracts::ycsb::bundle()), next: 0 };
        // A short outage closed by block replay, then a deep one closed by
        // a snapshot transfer, so every counter has something in it.
        pump.until(chain, 3);
        chain.inject(Fault::Crash(victim));
        pump.until(chain, 4);
        chain.inject(Fault::Restart(victim));
        pump.until(chain, 8);
        chain.inject(Fault::Crash(victim));
        pump.until(chain, 18);
        chain.inject(Fault::Restart(victim));
        pump.until(chain, 30);
        let before = chain.stats();
        assert!(before.recovery_ms > 0, "{name}: recovery never completed");
        assert!(before.resync_blocks > 0 && before.resync_bytes > 0, "{name}: no replay");
        assert!(before.snapshot_chunks > 0 && before.snapshot_bytes > 0, "{name}: no transfer");
        assert!(before.exec_serial_us > 0, "{name}: no execution");
        // One more restart: the rebuilt node must carry all of it over.
        chain.inject(Fault::Crash(victim));
        chain.inject(Fault::Restart(victim));
        let after = chain.stats();
        let counters = |s: &blockbench::PlatformStats| {
            [
                ("recovery_ms", s.recovery_ms),
                ("resync_blocks", s.resync_blocks),
                ("resync_bytes", s.resync_bytes),
                ("snapshot_chunks", s.snapshot_chunks),
                ("snapshot_bytes", s.snapshot_bytes),
                ("wal_records_replayed", s.wal_records_replayed),
                ("wal_tail_truncated", s.wal_tail_truncated),
                ("exec_serial_us", s.exec_serial_us),
            ]
        };
        for ((field, was), (_, now)) in counters(&before).into_iter().zip(counters(&after)) {
            assert!(now >= was, "{name}: restart lost {field}: {was} -> {now}");
        }
    }
}

/// Smallbank with a ledger of its own: the height its set-up left the
/// chain at, and what each transaction it signs adds to the bank's total if
/// it commits. A transaction the platform refused leaves the ledger.
struct Ledger {
    workload: bb_workloads::SmallbankWorkload,
    preload_height: u64,
    signed: std::collections::HashMap<bb_types::TxId, i64>,
    last: Option<bb_types::Transaction>,
}

impl blockbench::WorkloadConnector for Ledger {
    fn name(&self) -> &'static str {
        self.workload.name()
    }
    fn setup(&mut self, chain: &mut dyn blockbench::BlockchainConnector) {
        self.workload.setup(chain);
        self.preload_height = chain.committed_chain(bb_types::NodeId(0)).len() as u64;
    }
    fn next_transaction(&mut self, client: bb_types::ClientId) -> bb_types::Transaction {
        let tx = self.workload.next_transaction(client);
        let net = bb_contracts::smallbank::net_deposit(&tx.payload);
        assert!(self.signed.insert(tx.id(), net).is_none(), "{:?} signed twice", tx.id());
        self.last = Some(tx.clone());
        tx
    }
    fn on_rejected(&mut self, client: bb_types::ClientId) {
        self.signed.remove(&self.last.as_ref().expect("a submission was refused").id());
        self.workload.on_rejected(client)
    }
}

/// Smallbank's books balance on every replica of every platform. Set-up
/// preloads 200 accounts with 100 000 each; the workload runs; then the
/// chain advances with no new load until every accepted transaction is
/// confirmed and the cross-node check covers the last block holding one.
/// Then (a) the accounts hold exactly the opening float plus the
/// `net_deposit` of every transaction that committed successfully; (b) no
/// id is confirmed twice; (c) every confirmed id is a preload deposit or was
/// signed by the workload; (d) all four replicas agree on every block and
/// state root up to there, so (a) holds on each of them.
#[test]
fn smallbank_books_balance_on_every_platform() {
    use bb_bench::exp_chaos::Scenario;
    use bb_contracts::smallbank;
    use bb_types::NodeId;
    use bb_workloads::smallbank::{SmallbankConfig, SmallbankWorkload};
    use blockbench::driver::{run_workload, DriverConfig};
    use blockbench::{check_chains, Query};
    use std::collections::HashSet;

    const ACCOUNTS: u64 = 200;
    const OPENING: i64 = 100_000;
    let config = DriverConfig {
        clients: 4,
        rate_per_client: 100.0,
        duration: SimDuration::from_secs(20),
        poll_interval: SimDuration::from_millis(500),
        drain: SimDuration::from_secs(10),
    };
    for platform in ALL_PLATFORMS {
        let name = platform.name();
        let mut chain = platform.build(4);
        let workload = SmallbankWorkload::new(SmallbankConfig {
            accounts: ACCOUNTS,
            preload_accounts: ACCOUNTS,
            opening_balance: OPENING,
            ..SmallbankConfig::default()
        });
        let mut ledger =
            Ledger { workload, preload_height: 0, signed: Default::default(), last: None };
        run_workload(chain.as_mut(), &mut ledger, &config);

        let deadline = chain.now() + SimDuration::from_secs(120);
        let (confirmed, checked) = loop {
            let blocks = chain.confirmed_blocks_since(0);
            let chains: Vec<_> = (0..4).map(|i| chain.committed_chain(NodeId(i))).collect();
            let checked = check_chains(&chains, Scenario::tip_tolerance(platform))
                .unwrap_or_else(|v| panic!("(d) {name}: {v}"));
            let count: usize = blocks.iter().map(|b| b.txs.len()).sum();
            let last = blocks.iter().rev().find(|b| !b.txs.is_empty()).map_or(0, |b| b.height);
            if count as u64 >= ACCOUNTS + ledger.signed.len() as u64 && checked >= last {
                break (blocks, checked);
            }
            assert!(
                chain.now() < deadline,
                "{name}: {count} transactions confirmed, {checked} of {last} heights checked"
            );
            chain.advance_to(chain.now() + SimDuration::from_secs(1));
        };
        assert!(checked > ledger.preload_height, "(d) {name}: the cross-node check was vacuous");

        let mut seen = HashSet::new();
        let (mut preloaded, mut expected) = (0, ACCOUNTS as i64 * OPENING);
        for block in &confirmed {
            for &(id, ok) in &block.txs {
                assert!(seen.insert(id), "(b) {name}: {id:?} confirmed twice");
                if block.height <= ledger.preload_height {
                    assert!(ok, "{name}: a preload deposit failed");
                    preloaded += 1;
                } else {
                    let net = ledger.signed.get(&id);
                    let net = net.unwrap_or_else(|| panic!("(c) {name}: {id:?} was never signed"));
                    if ok {
                        expected += net;
                    }
                }
            }
        }
        assert_eq!(preloaded, ACCOUNTS, "{name}: the preload is not the opening float");
        assert_eq!(seen.len() as u64, ACCOUNTS + ledger.signed.len() as u64, "{name}: lost a tx");

        let bank = ledger.last.expect("the workload signed a transaction").to;
        let held: i64 = (0..ACCOUNTS)
            .map(|a| {
                let q = Query::Contract { address: bank, payload: smallbank::query_call(a) };
                let r = chain.query(&q).unwrap_or_else(|e| panic!("{name}: account {a}: {e}"));
                i64::from_le_bytes(r.data.try_into().expect("an 8-byte balance"))
            })
            .sum();
        assert_eq!(held, expected, "(a) {name}: the books do not balance");
    }
}

/// Two deploys, two addresses: the YCSB and Smallbank contracts of the
/// platform tests' miniature set-up never share one, on any platform.
#[test]
fn two_deploys_get_two_addresses_on_every_platform() {
    for platform in ALL_PLATFORMS {
        let mut chain = platform.build(4);
        let (kv, bank) = bb_contracts::testing::ycsb_and_smallbank_setup(chain.as_mut());
        assert_ne!(kv, bank, "{}: Smallbank was deployed on YCSB's address", platform.name());
    }
}

/// A metamorphic relation: how the driver slices time is not part of the
/// run. The same set-up and the same 160 submissions at t0, advanced to
/// t0 + 15 s in one step, in two or in six, leave the same stats, the same
/// chain on every node and the same confirmed log.
#[test]
fn advancing_in_more_steps_changes_nothing() {
    use bb_types::{ClientId, NodeId};
    let run = |platform: Platform, steps_ms: &[u64]| {
        let mut chain = platform.build(4);
        let mut workload = Macro::Ycsb.build(4);
        workload.setup(chain.as_mut());
        let t0 = chain.now();
        for i in 0..160u32 {
            let client = ClientId(i % 4);
            if !chain.submit(NodeId(i % 4), workload.next_transaction(client)) {
                workload.on_rejected(client);
            }
        }
        for &ms in steps_ms {
            chain.advance_to(t0 + SimDuration::from_millis(ms));
        }
        let chains: Vec<_> = (0..4).map(|i| chain.committed_chain(NodeId(i))).collect();
        let confirmed = chain.confirmed_blocks_since(0);
        assert!(
            confirmed.iter().any(|b| !b.txs.is_empty()),
            "{}: nothing confirmed, the relation would be vacuous",
            platform.name()
        );
        format!("{:?}\n{chains:?}\n{confirmed:?}", chain.stats())
    };
    for platform in ALL_PLATFORMS {
        let one = run(platform, &[15_000]);
        assert_eq!(run(platform, &[7_300, 15_000]), one, "{}: two steps", platform.name());
        let six = [1, 999, 2_500, 7_300, 7_301, 15_000];
        assert_eq!(run(platform, &six), one, "{}: six steps", platform.name());
    }
}

/// A known answer per platform for the hot-key run: the
/// `hot_key_stats` configuration of `parallel_determinism` (16
/// records, Zipf 0.99, seed 42), hashed over what execution decides — every
/// node's committed chain (ids and state roots), node 0's confirmed receipts
/// and the execution charge. It lives here, not beside its configuration,
/// because it reads the confirmed log, which `parallel_determinism` does not
/// touch.
#[test]
fn hot_key_run_is_the_known_answer() {
    use bb_types::NodeId;
    use bb_workloads::ycsb::{YcsbConfig, YcsbWorkload};
    use blockbench::driver::{run_workload, DriverConfig};
    let known = [
        (Platform::Ethereum, "e5d9af1e2afcf18d76293f63568e40cf8682d0fce2e9cd7b46cdcda0ba2f2e77"),
        (Platform::Parity, "9c99c9bf6e26f3c6d9d49324f580d13afd99f14b280df0c6321cd09a01cf70d0"),
        (Platform::Hyperledger, "4295f558dfd7896bd30ad3b75311f0bacbca87604d21e9c803fd7631a2da7816"),
    ];
    for (platform, want) in known {
        let name = platform.name();
        let mut chain = platform.build(4);
        let mut workload = YcsbWorkload::new(YcsbConfig {
            record_count: 16,
            preload_records: 16,
            zipf_theta: 0.99,
            clients: 4,
            seed: 42,
            ..YcsbConfig::default()
        });
        let config = DriverConfig {
            clients: 4,
            rate_per_client: 50.0,
            duration: SimDuration::from_secs(3),
            poll_interval: SimDuration::from_millis(500),
            drain: SimDuration::from_secs(2),
        };
        let stats = run_workload(chain.as_mut(), &mut workload, &config);
        let chains: Vec<_> = (0..4).map(|i| chain.committed_chain(NodeId(i))).collect();
        let receipts = chain.confirmed_blocks_since(0);
        assert!(receipts.iter().any(|b| !b.txs.is_empty()), "{name}: nothing confirmed");
        let serial_us = stats.platform.exec_serial_us;
        let text = format!("{chains:?}\n{receipts:?}\n{serial_us}");
        let got = bb_crypto::Hash256(bb_crypto::sha256(text.as_bytes())).to_hex();
        assert_eq!(got, want, "{name}: the hot-key run is not the known answer");
    }
}
