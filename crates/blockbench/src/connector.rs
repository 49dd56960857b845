//! The `IBlockchainConnector` interface (Section 3.2) and platform stats.
//!
//! "The interface contains operations for deploying application, invoking it
//! by sending a transaction, and for querying the blockchain's states."
//! Platforms run entirely on virtual time: `advance_to` drives their
//! internal event worlds, and the driver interleaves submissions and polls
//! against that clock.

use crate::contract::ContractBundle;
use bb_crypto::Hash256;
use bb_sim::{SimDuration, SimTime};
use bb_types::{Address, Block, BlockSummary, Encoder, NodeId, Transaction};

/// One committed block as a node reports it to the cross-node safety
/// checker ([`crate::invariant`]): enough structure to verify hash-chain
/// linkage, height uniqueness and state-root agreement, nothing more.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainEntry {
    /// Main-chain height (genesis excluded, so the first entry is 1).
    pub height: u64,
    /// Block id.
    pub id: Hash256,
    /// Parent block id.
    pub parent: Hash256,
    /// Post-state root the node holds for this block.
    pub state_root: Hash256,
}

/// Snapshot of platform-level counters the benchmark reports on.
#[derive(Debug, Clone, Default)]
pub struct PlatformStats {
    /// Every block generated, main chain *and* forks (Figure 10's `X-total`).
    pub blocks_total: u64,
    /// Blocks on the consensus main chain (`X-bc`).
    pub blocks_main: u64,
    /// Transactions committed on the main chain.
    pub txs_committed: u64,
    /// Bytes on "disk" across all nodes (LSM stores).
    pub disk_bytes: u64,
    /// Mean CPU utilisation per virtual second, averaged over nodes
    /// (Figure 16 left).
    pub cpu_utilisation: Vec<f64>,
    /// Mean outbound Mbps per virtual second, averaged over nodes
    /// (Figure 16 right).
    pub net_mbps: Vec<f64>,
    /// Total network bytes offered.
    pub net_bytes: u64,
    /// Node cache hits across all state tries: steps of Ethereum/Parity
    /// Merkle-Patricia walks over committed nodes served from memory (zero
    /// for platforms without a trie cache). A step onto a block's own
    /// uncommitted node counts as neither a hit nor a miss.
    pub trie_cache_hits: u64,
    /// Node cache misses across all state tries: steps over committed
    /// nodes that had to be read from the store.
    pub trie_cache_misses: u64,
    /// State nodes/values persisted at block seals across all nodes (the
    /// block-scoped write path's storage traffic).
    pub state_nodes_flushed: u64,
    /// State nodes/values created but never persisted: garbage interior
    /// trie roots from per-tx application, or same-key overwrites absorbed
    /// by the bucket tree's overlay, dropped at block seals.
    pub state_nodes_dropped: u64,
    /// Atomic write batches applied to the backing stores (one per sealed
    /// block per node on the batched write path).
    pub batch_put_count: u64,
    /// WAL records replayed across node restarts (durable-store platforms).
    pub wal_records_replayed: u64,
    /// Torn/corrupt WAL tails truncated away at restarts.
    pub wal_tail_truncated: u64,
    /// Longest crash→caught-up recovery observed, in virtual milliseconds
    /// (0 until a restarted node has rejoined the head).
    pub recovery_ms: u64,
    /// Blocks re-fetched from peers during post-restart catch-up.
    pub resync_blocks: u64,
    /// Bytes of blocks re-fetched during post-restart catch-up.
    pub resync_bytes: u64,
    /// Cumulative bytes fed through compaction merges across all nodes.
    pub bytes_compacted: u64,
    /// Cumulative bytes physically written by the stores (WAL + tables) —
    /// the write-amplification numerator.
    pub storage_bytes_written: u64,
    /// Logical payload bytes the stores accepted — the denominator.
    pub storage_logical_bytes: u64,
    /// Snapshot state-sync chunks transferred during post-restart catch-up
    /// (zero when every gap stayed under the replay threshold).
    pub snapshot_chunks: u64,
    /// Bytes of snapshot state transferred during post-restart catch-up.
    pub snapshot_bytes: u64,
    /// Always 0: every platform executes each block serially, so no
    /// speculation conflicts. Kept only because the benchmark's adapter
    /// reads it; it goes with the optimistic executor (ROADMAP item 9).
    pub exec_conflicts: u64,
    /// Serial execution charge of every executed block, µs, summed over nodes.
    pub exec_serial_us: u64,
    /// Always 0, for the reason [`PlatformStats::exec_conflicts`] is, and
    /// goes with it.
    pub exec_modeled_us: u64,
    /// Conflicting-digest consensus messages honest replicas observed for
    /// an occupied slot and refused (PBFT equivocation detection; zero on
    /// platforms without a BFT quorum path).
    pub equivocations_detected: u64,
    /// Partition→heal transitions the network has gone through — each flap
    /// of an oscillating partition counts once, at the heal.
    pub partition_flaps: u64,
    /// Modeled milliseconds of injected per-operation disk latency across
    /// all nodes ([`Fault::SlowDisk`]); zero on in-memory platforms.
    pub disk_stall_ms: u64,
}

/// The counters every platform node keeps about itself. They describe the
/// *run*, not the process: a restart moves the value into the rebuilt node
/// (`std::mem::take`) instead of copying it field by field, and
/// [`PlatformStats::fold_node`] is the one place that decides how each is
/// combined across nodes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Longest completed restart→caught-up recovery on this node, virtual ms.
    pub recovery_ms: u64,
    /// Blocks received from peers while catching up after a restart.
    pub resync_blocks: u64,
    /// Bytes of those blocks.
    pub resync_bytes: u64,
    /// Snapshot chunks received across this node's resyncs.
    pub snapshot_chunks: u64,
    /// Payload bytes of those chunks.
    pub snapshot_bytes: u64,
    /// WAL records replayed across this node's restarts.
    pub wal_replayed: u64,
    /// Torn WAL tails truncated across this node's restarts.
    pub wal_truncated: u64,
    /// Serial execution charge of the blocks this node executed, µs.
    pub exec_serial_us: u64,
}

/// A restarted node's catch-up session: opened by `Restart`, closed into
/// [`NodeCounters::recovery_ms`] once the node's progress (head height, or
/// PBFT sequence) reaches the target learned from a live peer.
#[derive(Debug, Clone, Default)]
pub struct RecoveryWindow {
    /// Set while the node is catching up from peers.
    pub restarted_at: Option<SimTime>,
    /// The peers' progress this node must reach for the window to close.
    pub sync_target: Option<u64>,
    /// Set while a chunked snapshot transfer is closing the gap; live block
    /// or batch adoption is suppressed until the transfer lands. A crash
    /// leaves it set, and the crashed node handles nothing that reads it:
    /// the `Restart` reads it as "the crash tore a transfer" and then
    /// replaces the whole window.
    pub snapshot_syncing: bool,
}

impl RecoveryWindow {
    /// Close the window once `progress` reaches the sync target. A completed
    /// recovery records at least 1 ms: `recovery_ms == 0` means "never
    /// caught up", and a sub-millisecond catch-up (nothing committed during
    /// the outage) must not read as that.
    pub fn close_if_reached(&mut self, progress: u64, now: SimTime, counters: &mut NodeCounters) {
        if let (Some(t0), Some(target)) = (self.restarted_at, self.sync_target) {
            if progress >= target {
                let ms = (now.since(t0).as_micros() / 1000).max(1);
                counters.recovery_ms = counters.recovery_ms.max(ms);
                self.restarted_at = None;
                self.sync_target = None;
            }
        }
    }
}

/// Add one node's per-second series into the cross-node mean.
fn average_into(mean: &mut Vec<f64>, series: &[f64], nodes: u32) {
    if series.len() > mean.len() {
        mean.resize(series.len(), 0.0);
    }
    for (m, v) in mean.iter_mut().zip(series) {
        *m += v / nodes as f64;
    }
}

impl PlatformStats {
    /// Fold one of `nodes` nodes into the run-wide stats: `recovery_ms` is
    /// the maximum over nodes, every other counter a sum, and the CPU and
    /// network per-second series are averaged over `nodes` (a node whose
    /// series is shorter contributes zeros for the missing seconds).
    pub fn fold_node(&mut self, nodes: u32, counters: &NodeCounters, cpu: &[f64], net: &[f64]) {
        self.recovery_ms = self.recovery_ms.max(counters.recovery_ms);
        self.resync_blocks += counters.resync_blocks;
        self.resync_bytes += counters.resync_bytes;
        self.snapshot_chunks += counters.snapshot_chunks;
        self.snapshot_bytes += counters.snapshot_bytes;
        self.wal_records_replayed += counters.wal_replayed;
        self.wal_tail_truncated += counters.wal_truncated;
        self.exec_serial_us += counters.exec_serial_us;
        average_into(&mut self.cpu_utilisation, cpu, nodes);
        average_into(&mut self.net_mbps, net, nodes);
    }

    /// Write amplification across the platform's stores: physical bytes
    /// written per logical byte accepted, or `None` before any write.
    pub fn write_amplification(&self) -> Option<f64> {
        (self.storage_logical_bytes > 0)
            .then(|| self.storage_bytes_written as f64 / self.storage_logical_bytes as f64)
    }
}

/// Read-only queries exposed over the platforms' RPC interfaces
/// (Section 3.1.2: "current systems support a minimum set of queries...").
#[derive(Debug, Clone)]
pub enum Query {
    /// Transactions of main-chain block `height`: Q1's per-block scan.
    BlockTxs {
        /// Main-chain height to read.
        height: u64,
    },
    /// An account's balance as of main-chain block `height` — Ethereum and
    /// Parity's `getBalance(account, block)`; unsupported on Fabric v0.6
    /// ("the system does not have APIs to query historical states").
    AccountAtBlock {
        /// Account to read.
        account: Address,
        /// Historical block height.
        height: u64,
    },
    /// Read-only contract invocation (Fabric chaincode query): payload is
    /// `[method, args...]`.
    Contract {
        /// Deployed contract address.
        address: Address,
        /// Method selector + encoded arguments.
        payload: Vec<u8>,
    },
}

/// Query failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The platform cannot answer this query class (Fabric's missing
    /// historical-state API).
    Unsupported,
    /// No such block/account/contract.
    NotFound,
    /// The contract rejected the invocation.
    Contract(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Unsupported => write!(f, "query unsupported on this platform"),
            QueryError::NotFound => write!(f, "not found"),
            QueryError::Contract(e) => write!(f, "contract error: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A successful query answer plus the *server-side* simulated cost; the
/// caller adds the RPC round-trip (the Figure 13 bottleneck is round-trip
/// count, Section 4.2.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// Encoded answer. For `BlockTxs`: a list of `(from, to, value)`
    /// triples encoded with `bb_types::codec`. For `AccountAtBlock`: an
    /// 8-byte balance. For `Contract`: the chaincode's return bytes.
    pub data: Vec<u8>,
    /// Simulated time the server spent producing it.
    pub server_cost: SimDuration,
}

impl QueryResult {
    /// The `BlockTxs` answer for `block`: a `u32` count, then `(from, to,
    /// value)` per transaction. What serving it costs is the platform's.
    pub fn block_txs(block: &Block, server_cost: SimDuration) -> QueryResult {
        let mut enc = Encoder::with_capacity(block.txs.len() * 48 + 4);
        enc.put_u32(block.txs.len() as u32);
        for tx in &block.txs {
            enc.put_raw(tx.from.as_bytes()).put_raw(tx.to.as_bytes()).put_u64(tx.value);
        }
        QueryResult { data: enc.finish(), server_cost }
    }
}

/// Fault-injection commands (Section 3.3's failure modes).
#[derive(Debug, Clone)]
pub enum Fault {
    /// Crash-stop a node (Figure 9): it drops every piece of volatile state
    /// — transaction pool, miner/sealer progress, in-flight consensus and
    /// snapshot transfers, trie caches and uncommitted overlays — keeping
    /// only its durable store. It stays down until [`Fault::Restart`].
    Crash(NodeId),
    /// Restart a crashed node from its durable store alone: replay the WAL
    /// (`LsmStore::open`), rebuild the chain head from persisted blocks,
    /// then catch up from peers (PBFT checkpoint/sync, block download on
    /// the chain platforms). The one way back from a `Crash`; restarting a
    /// live node panics.
    Restart(NodeId),
    /// Tear the un-fsynced tail of the node's WAL, as a power cut would.
    /// Inject alongside [`Fault::Crash`] to make the crash destructive.
    TornTail(NodeId),
    /// Add fixed latency to all of a node's links.
    Delay(NodeId, SimDuration),
    /// Corrupt messages touching a node with this probability.
    Corrupt(NodeId, f64),
    /// Partition the first `left` nodes from the rest (Figure 10).
    PartitionHalf {
        /// Nodes on the left side.
        left: u32,
    },
    /// Asymmetric partition: the first `left` nodes still reach the rest,
    /// but everything the rest send back to them is dropped. The nasty
    /// half-open failure mode TCP keepalives exist for.
    PartitionAsymmetric {
        /// Nodes that can talk but cannot hear.
        left: u32,
    },
    /// Seeded per-message latency noise on every link, up to this
    /// amplitude on top of the configured link jitter (gossip jitter).
    /// `SimDuration::ZERO` clears it.
    GossipJitter(SimDuration),
    /// Model a slow disk on one node: every durable-store operation is
    /// charged this much extra latency (accounted in
    /// [`PlatformStats::disk_stall_ms`]). `SimDuration::ZERO` clears it;
    /// no-op on platforms without durable files.
    SlowDisk(NodeId, SimDuration),
    /// Arm byzantine equivocation on a consensus replica: while it is
    /// primary, each pre-prepare it broadcasts sends conflicting proposals
    /// to disjoint peer subsets. PBFT platforms only; no-op on the chain
    /// platforms, whose proposers cannot split a block between peers
    /// without forking against themselves.
    Equivocate(NodeId),
    /// Remove network chaos: partitions (both kinds), per-node delays and
    /// corruption probabilities, and gossip jitter.
    Heal,
}

/// Result of a direct (micro-benchmark) execution: CPUHeavy and IOHeavy
/// measure single-transaction latency and memory on one server
/// (Section 4.2 runs "one client and one server").
#[derive(Debug, Clone)]
pub struct DirectExec {
    /// Did the execution succeed?
    pub success: bool,
    /// Simulated server time: admission + execution.
    pub duration: SimDuration,
    /// Gas / native work units consumed.
    pub gas_used: u64,
    /// Modeled peak resident memory during the execution.
    pub modeled_mem: u64,
    /// Contract return data.
    pub output: Vec<u8>,
    /// Failure cause (out of memory, out of gas, revert...).
    pub error: Option<String>,
}

/// The platform-side API every simulated blockchain implements — the Rust
/// rendering of `IBlockchainConnector`.
pub trait BlockchainConnector {
    /// Human-readable platform name ("ethereum", "parity", "hyperledger").
    fn name(&self) -> &'static str;

    /// Number of server nodes.
    fn node_count(&self) -> u32;

    /// Deploy a contract synchronously at genesis/setup time, before the
    /// measured run. Returns its address.
    fn deploy(&mut self, bundle: &ContractBundle) -> Address;

    /// Submit a signed transaction to `server`'s transaction pool at the
    /// current virtual time. Returns `false` when the server refuses the
    /// submission (Parity's RPC throttling, Section 4.1.1: "it enforces a
    /// maximum client request rate at around 80 tx/s"). Completion is
    /// observed via [`BlockchainConnector::confirmed_blocks_since`].
    fn submit(&mut self, server: NodeId, tx: Transaction) -> bool;

    /// Run the platform's internal event world up to `t`.
    fn advance_to(&mut self, t: SimTime);

    /// Current virtual time of the platform world.
    fn now(&self) -> SimTime;

    /// `getLatestBlock(h)`: confirmed main-chain blocks with height > `h`,
    /// in height order (Section 3.2's polling interface).
    fn confirmed_blocks_since(&mut self, height: u64) -> Vec<BlockSummary>;

    /// Answer a read-only query against current (or historical) state.
    fn query(&mut self, q: &Query) -> Result<QueryResult, QueryError>;

    /// Inject a fault at the current virtual time.
    fn inject(&mut self, fault: Fault);

    /// Platform counters at the current instant.
    fn stats(&self) -> PlatformStats;

    /// Setup-time fast path: append `blocks` of already-signed transactions
    /// directly to every node's chain, bypassing consensus — the analytics
    /// workload preloads "100,000 blocks, each contain\[ing\] 3 transactions"
    /// this way. Only legal before the measured run starts.
    fn preload_blocks(&mut self, blocks: Vec<Vec<Transaction>>) {
        let _ = blocks;
        panic!("this platform does not support block preloading");
    }

    /// Execute one transaction synchronously on a single server and report
    /// its simulated cost — the micro-benchmark path (CPUHeavy, IOHeavy).
    fn execute_direct(&mut self, tx: Transaction) -> DirectExec;

    /// `node`'s committed main chain, genesis excluded, for the cross-node
    /// safety checker ([`crate::invariant::check_chains`]). The default is
    /// empty (the checker skips nodes that report nothing), so mocks and
    /// platforms without an inspectable chain stay compilable.
    fn committed_chain(&self, node: NodeId) -> Vec<ChainEntry> {
        let _ = node;
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_error_display() {
        assert_eq!(QueryError::Unsupported.to_string(), "query unsupported on this platform");
        assert!(QueryError::Contract("boom".into()).to_string().contains("boom"));
        assert_eq!(QueryError::NotFound.to_string(), "not found");
    }

    /// Every counter lands in its `PlatformStats` field under its policy:
    /// distinct primes make a crossed wire or a max/sum mix-up change a total.
    #[test]
    fn fold_node_sums_counters_maxes_recovery_and_averages_series() {
        let a = NodeCounters {
            recovery_ms: 2,
            resync_blocks: 3,
            resync_bytes: 5,
            snapshot_chunks: 7,
            snapshot_bytes: 11,
            wal_replayed: 13,
            wal_truncated: 17,
            exec_serial_us: 19,
        };
        let b = NodeCounters {
            recovery_ms: 31,
            resync_blocks: 37,
            resync_bytes: 41,
            snapshot_chunks: 43,
            snapshot_bytes: 47,
            wal_replayed: 53,
            wal_truncated: 59,
            exec_serial_us: 61,
        };
        let mut s = PlatformStats::default();
        s.fold_node(2, &a, &[1.0, 0.5, 0.25], &[8.0]);
        s.fold_node(2, &b, &[0.5], &[2.0, 4.0]);
        assert_eq!(s.recovery_ms, 31, "recovery is the slowest node's, not a sum");
        assert_eq!(s.resync_blocks, 3 + 37);
        assert_eq!(s.resync_bytes, 5 + 41);
        assert_eq!(s.snapshot_chunks, 7 + 43);
        assert_eq!(s.snapshot_bytes, 11 + 47);
        assert_eq!(s.wal_records_replayed, 13 + 53);
        assert_eq!(s.wal_tail_truncated, 17 + 59);
        assert_eq!(s.exec_serial_us, 19 + 61);
        // Unequal lengths: the mean is over all nodes, a missing second is 0.
        assert_eq!(s.cpu_utilisation, [0.75, 0.25, 0.125]);
        assert_eq!(s.net_mbps, [5.0, 2.0]);
        // Nothing else is touched.
        assert_eq!((s.blocks_total, s.disk_bytes), (0, 0));
        assert_eq!((s.exec_conflicts, s.exec_modeled_us), (0, 0));
    }

    #[test]
    fn recovery_window_closes_at_target() {
        let mut counters = NodeCounters::default();
        let mut w = RecoveryWindow {
            restarted_at: Some(SimTime::from_secs(10)),
            sync_target: Some(5),
            ..Default::default()
        };
        w.close_if_reached(4, SimTime::from_secs(11), &mut counters);
        assert!(w.restarted_at.is_some() && counters.recovery_ms == 0, "closed short of target");
        // A sub-millisecond catch-up still reads as a completed recovery.
        w.close_if_reached(5, SimTime::from_secs(10), &mut counters);
        assert_eq!((w.restarted_at, w.sync_target, counters.recovery_ms), (None, None, 1));
    }

    #[test]
    fn platform_stats_default_is_zeroed() {
        let s = PlatformStats::default();
        assert_eq!(s.blocks_total, 0);
        assert_eq!(s.txs_committed, 0);
        assert!(s.cpu_utilisation.is_empty());
    }
}
