//! The Ethereum-like network world: proof of work under [`AccountChain`].
//!
//! Every server node runs the full stack: a transaction pool fed by client
//! RPC and probabilistic gossip, an exponential-race miner, full block
//! validation by re-execution, heaviest-chain fork choice with reorgs (the
//! tx pool re-adopts transactions from abandoned branches), and a
//! Merkle-Patricia state trie over a private LSM store. Node 0 doubles as
//! the driver's RPC endpoint: it serves `getLatestBlock(h)` from its view of
//! the confirmed chain (head minus `confirm_depth`), block/state queries,
//! and the read-only contract path.
//!
//! What is proof-of-work here: the mining race and gossip coin flips, drawn
//! from each server's own RNG stream; admission after `rpc_delay`; and a
//! durable node's crash, restart, torn WAL tail and slow disk.

use crate::account_chain::{AccountChain, Consensus, Setup};
use crate::config::EthConfig;
use crate::node::{vm_for, ChainNode, ChainParams, ChainPlatform, SyncMsg};
use crate::state::AccountState;
use bb_consensus::pow::BlockTree;
use bb_crypto::{DigestMap, Hash256};
use bb_sim::{Effects, ShardedWorld, SimDuration, SimRng, SimTime};
use bb_storage::{FaultVfs, KvError, KvStore, LsmConfig, LsmStore};
use bb_types::{Block, NodeId, Transaction};
use blockbench::connector::{Fault, RecoveryWindow};
use std::sync::Arc;

/// Events of the Ethereum world.
#[derive(Debug, Clone)]
pub enum EthEvent {
    /// A miner's exponential race fired.
    Mine {
        /// The lucky miner.
        miner: NodeId,
        /// Race generation; stale races are ignored.
        generation: u64,
    },
    /// A transaction reached a node (client RPC or peer gossip).
    TxArrive {
        /// Receiving node.
        to: NodeId,
        /// The transaction.
        tx: Arc<Transaction>,
        /// Came from a peer (don't re-gossip) or from a client.
        gossiped: bool,
    },
    /// A block-sync message (block, ancestor request, head request) reached
    /// a node.
    Sync {
        /// Receiving node.
        to: NodeId,
        /// The message.
        msg: SyncMsg,
    },
    /// A resyncing node asks a peer for the next snapshot state chunk:
    /// live `(key, value)` pairs with key > `after`, served from the peer's
    /// durable store (trie nodes are content-addressed and block records
    /// ride in the same keyspace, so raw chunks rebuild chain + state).
    SnapshotRequest {
        /// Peer being asked.
        to: NodeId,
        /// Recovering node.
        from: NodeId,
        /// Resume cursor: last key already transferred.
        after: Option<Vec<u8>>,
    },
    /// One bounded snapshot chunk; `done` means the key space is exhausted.
    SnapshotChunk {
        /// Recovering node.
        to: NodeId,
        /// Serving peer (next chunk is requested from it).
        from: NodeId,
        /// Live pairs in key order.
        entries: Arc<Vec<(Vec<u8>, Vec<u8>)>>,
        /// Keyspace exhausted?
        done: bool,
    },
}

/// One Ethereum server.
pub struct EthNode {
    chain: ChainNode<LsmStore>,
    /// This node's private randomness: mining race draws and gossip coin
    /// flips, in this lane's own event order.
    rng: SimRng,
    mine_generation: u64,
    crashed: bool,
}

/// Read-only context shared by every lane.
pub struct EthCtx {
    config: EthConfig,
    params: ChainParams,
}

/// What proof-of-work plugs into the shared account-chain node.
impl ChainPlatform for EthCtx {
    type Store = LsmStore;
    type Event = EthEvent;
    const DIFFICULTY: u64 = 1000;

    fn params(&self) -> &ChainParams {
        &self.params
    }
    fn params_mut(&mut self) -> &mut ChainParams {
        &mut self.params
    }

    /// The durable `!b/` record rides the same atomic batch as the state
    /// flush — a crash keeps both or neither. The LSM never legitimately
    /// refuses a write, so a failure is a bug.
    fn seal(
        &self,
        state: &mut AccountState<LsmStore>,
        id: &Hash256,
        block: &Block,
    ) -> Result<(), KvError> {
        let record = block_meta_record(&state.root(), block);
        state
            .commit_block_with_meta(vec![(block_meta_key(id), Some(record))])
            .expect("state store healthy");
        Ok(())
    }

    /// A body we hold is never looked at again — not even a stored orphan
    /// re-delivered before its ancestors arrived.
    fn already_known(has_body: bool, _has_root: bool) -> bool {
        has_body
    }

    fn catch_up_charge(serial_us: u64, _txs: usize) -> SimDuration {
        SimDuration::from_micros(serial_us)
    }

    fn sync(to: NodeId, msg: SyncMsg) -> EthEvent {
        EthEvent::Sync { to, msg }
    }
    fn snapshot_request(to: NodeId, from: NodeId) -> EthEvent {
        EthEvent::SnapshotRequest { to, from, after: None }
    }
}

/// Proof of work: the sharded world of Ethereum servers.
pub struct EthWorld;

/// The Ethereum-like platform.
pub type EthereumChain = AccountChain<EthWorld>;

impl ShardedWorld for EthWorld {
    type Event = EthEvent;
    type Node = EthNode;
    type Ctx = EthCtx;

    fn route(_ctx: &EthCtx, event: &EthEvent) -> u32 {
        match event {
            EthEvent::Mine { miner, .. } => miner.0,
            EthEvent::TxArrive { to, .. }
            | EthEvent::Sync { to, .. }
            | EthEvent::SnapshotRequest { to, .. }
            | EthEvent::SnapshotChunk { to, .. } => to.0,
        }
    }

    fn handle(
        ctx: &EthCtx,
        lane: u32,
        node: &mut EthNode,
        now: SimTime,
        event: EthEvent,
        fx: &mut Effects<EthEvent>,
    ) {
        let id = NodeId(lane);
        if node.crashed {
            return; // a dead process handles nothing
        }
        match event {
            EthEvent::Mine { generation, .. } => on_mine(ctx, node, id, now, generation, fx),
            EthEvent::TxArrive { tx, gossiped, .. } => on_tx(ctx, node, id, now, tx, gossiped, fx),
            EthEvent::Sync { msg, .. } => on_sync(ctx, node, id, now, msg, fx),
            EthEvent::SnapshotRequest { from, after, .. } => {
                on_snapshot_request(ctx, node, id, from, after, fx)
            }
            EthEvent::SnapshotChunk { from, entries, done, .. } => {
                on_snapshot_chunk(ctx, node, id, now, from, entries, done, fx)
            }
        }
    }
}

/// LSM layout shared by construction and restart: the same config must be
/// used to reopen a node's store, or replay thresholds would differ.
fn eth_store_config() -> LsmConfig {
    LsmConfig {
        // Chain workloads write heavily and never delete: flush less often
        // and let more tables accumulate before a level is compacted into
        // the next.
        memtable_flush_bytes: 4 << 20,
        max_tables: 48,
        ..LsmConfig::default()
    }
}

/// Store prefix of every node's private LSM (see `LsmStore::new_private`).
const STORE_PREFIX: &str = "lsm";

/// Key of a block's durable record: `!b/` ++ block id. The `!` prefix keeps
/// the namespace disjoint from trie-node keys (32-byte hashes) and account
/// keys (20-byte addresses).
fn block_meta_key(id: &Hash256) -> Vec<u8> {
    let mut k = b"!b/".to_vec();
    k.extend_from_slice(&id.0);
    k
}

/// Durable block record: 32-byte post-state root, then the encoded block.
/// The root is recorded separately from `header.state_root` because setup
/// writes (genesis funding, contract deploys) re-commit a block's state
/// without re-hashing its header.
fn block_meta_record(root: &Hash256, block: &Block) -> Vec<u8> {
    let mut v = root.0.to_vec();
    v.extend_from_slice(&block.encode());
    v
}

fn decode_block_meta(value: &[u8]) -> Option<(Hash256, Block)> {
    if value.len() < 32 {
        return None;
    }
    let root = Hash256(value[..32].try_into().expect("32 bytes"));
    let block = Block::decode(&value[32..]).ok()?;
    Some((root, block))
}

impl EthNode {
    /// Enter a fresh mining race, cancelling any in flight: when it ends,
    /// and the event that ends it.
    fn next_race(&mut self, config: &EthConfig, me: NodeId, now: SimTime) -> (SimTime, EthEvent) {
        self.mine_generation += 1;
        let delay = self.rng.exp_duration(config.pow.miner_interval(config.nodes));
        (now + delay, EthEvent::Mine { miner: me, generation: self.mine_generation })
    }
}

fn on_mine(
    ctx: &EthCtx,
    node: &mut EthNode,
    miner: NodeId,
    now: SimTime,
    generation: u64,
    fx: &mut Effects<EthEvent>,
) {
    if node.mine_generation != generation {
        return; // stale race
    }
    // PoW saturates the reserved cores whether or not a block is found.
    let interval = ctx.config.pow.miner_interval(ctx.config.nodes);
    let from = SimTime(now.as_micros().saturating_sub(interval.as_micros().min(now.as_micros())));
    node.chain.cpu.saturate(from, now);
    node.chain.produce(ctx, now, miner, 0, fx);
    let (at, race) = node.next_race(&ctx.config, miner, now);
    fx.schedule(at, race);
}

fn on_tx(
    ctx: &EthCtx,
    node: &mut EthNode,
    me: NodeId,
    now: SimTime,
    tx: Arc<Transaction>,
    gossiped: bool,
    fx: &mut Effects<EthEvent>,
) {
    node.chain.cpu.charge(now, ctx.config.costs.sig_verify);
    if !node.chain.enqueue(Arc::clone(&tx)) {
        return;
    }
    if !gossiped {
        let size = tx.byte_size();
        for peer in (0..ctx.config.nodes).map(NodeId) {
            if peer == me || !node.rng.chance(ctx.config.tx_gossip_prob) {
                continue;
            }
            let tx = Arc::clone(&tx);
            fx.send(peer.0, size, move |_at| EthEvent::TxArrive { to: peer, tx, gossiped: true });
        }
    }
}

fn on_sync(
    ctx: &EthCtx,
    node: &mut EthNode,
    me: NodeId,
    now: SimTime,
    msg: SyncMsg,
    fx: &mut Effects<EthEvent>,
) {
    let had_head = node.chain.tree.head();
    if node.chain.on_sync(ctx, now, me, msg, fx) {
        // Mining stops until the snapshot transfer lands.
        node.mine_generation += 1;
    }
    if node.chain.tree.head() != had_head {
        // Head moved: restart the mining race on the new head.
        let (at, race) = node.next_race(&ctx.config, me, now);
        fx.schedule(at, race);
    }
}

/// Serve one bounded snapshot chunk from this node's durable store. Each
/// request pins a fresh snapshot (flushing the memtable), reads one chunk
/// past the cursor via the sparse indexes, and unpins — the store is free
/// to compact between chunks, and content-addressed trie nodes make the
/// resulting cross-chunk mix safe on the receiver.
fn on_snapshot_request(
    ctx: &EthCtx,
    node: &mut EthNode,
    me: NodeId,
    from: NodeId,
    after: Option<Vec<u8>>,
    fx: &mut Effects<EthEvent>,
) {
    let store = node.chain.state.store_mut();
    let snap = store.snapshot_open();
    let (entries, done) = store
        .snapshot_chunk(snap, after.as_deref(), ctx.config.snapshot_chunk_bytes)
        .expect("own snapshot readable");
    store.snapshot_close(snap);
    let bytes: u64 = 16 + entries.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum::<u64>();
    let entries = Arc::new(entries);
    fx.send(from.0, bytes, move |_at| EthEvent::SnapshotChunk {
        to: from,
        from: me,
        entries,
        done,
    });
}

/// Apply one received snapshot chunk. Chunks are raw store pairs (trie
/// nodes, account values, `!b/` block records), applied blind in one batch;
/// when the last chunk lands the node rebuilds its in-memory chain from the
/// store and closes the trailing gap through the normal replay path.
#[allow(clippy::too_many_arguments)]
fn on_snapshot_chunk(
    ctx: &EthCtx,
    node: &mut EthNode,
    me: NodeId,
    now: SimTime,
    from: NodeId,
    entries: Arc<Vec<(Vec<u8>, Vec<u8>)>>,
    done: bool,
    fx: &mut Effects<EthEvent>,
) {
    if !node.chain.recovery.snapshot_syncing {
        return;
    }
    node.chain.counters.snapshot_chunks += 1;
    node.chain.counters.snapshot_bytes +=
        entries.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum::<u64>();
    let mut batch = bb_storage::WriteBatch::new();
    for (k, v) in entries.iter() {
        batch.put(k, v);
    }
    let cursor = entries.last().map(|(k, _)| k.clone());
    node.chain.state.store_mut().apply_batch(batch).expect("state store healthy");
    if !done {
        fx.send(from.0, 64, move |_at| EthEvent::SnapshotRequest {
            to: from,
            from: me,
            after: cursor,
        });
        return;
    }
    // Transfer complete: make it durable, rebuild the chain from the store,
    // and fetch whatever was mined mid-transfer through the replay path.
    node.chain.state.store_mut().flush();
    rebuild_node_from_store(&mut node.chain);
    node.chain.recovery.snapshot_syncing = false;
    let ask = SyncMsg::HeadRequest { from: me };
    fx.send(from.0, 64, move |_at| EthEvent::Sync { to: from, msg: ask });
    let (at, race) = node.next_race(&ctx.config, me, now);
    fx.schedule(at, race);
}

/// Rebuild a node's in-memory chain (tree, bodies, roots, head state) from
/// its durable store alone — the shared tail of crash restart and snapshot
/// sync.
fn rebuild_node_from_store(n: &mut ChainNode<LsmStore>) {
    // Everything in-memory is stale; only the Vfs behind the store is
    // authoritative.
    let vfs = n.state.store().vfs();
    let store =
        LsmStore::open(vfs, STORE_PREFIX, eth_store_config()).expect("durable store reopens");
    let replay = store.stats();
    n.counters.wal_replayed += replay.wal_records_replayed;
    n.counters.wal_truncated += replay.wal_tail_truncated;
    n.state = AccountState::new(store);

    // Recover every durably recorded block, oldest first. The set is
    // ancestor-closed: a block is only recorded once executed, and
    // execution requires its parent's committed state.
    let mut recovered: Vec<(Hash256, Block)> = n
        .state
        .store_mut()
        .scan_prefix(b"!b/")
        .expect("durable store reads")
        .iter()
        .filter_map(|(_, v)| decode_block_meta(v))
        .collect();
    recovered.sort_by_key(|(_, b)| (b.header.height, b.id()));
    let genesis = recovered
        .iter()
        .find(|(_, b)| b.header.height == 0)
        .expect("genesis record is durable")
        .1
        .id();

    let mut tree = BlockTree::new(genesis);
    let mut bodies = DigestMap::default();
    let mut roots = DigestMap::default();
    for (root, block) in recovered {
        let bid = block.id();
        if block.header.height > 0 {
            tree.insert(bid, block.header.parent, block.header.difficulty.max(1));
        }
        roots.insert(bid, root);
        bodies.insert(bid, Arc::new(block));
    }
    n.install_chain(tree, bodies, roots);
}

impl Consensus for EthWorld {
    type Config = EthConfig;
    const NAME: &'static str = "ethereum";

    fn setup(config: &EthConfig) -> Setup<EthWorld> {
        let params = ChainParams {
            nodes: config.nodes,
            vm: vm_for(&config.costs, config.node_mem_bytes),
            costs: config.costs.clone(),
            max_txs_per_block: config.max_txs_per_block,
            block_gas_limit: config.block_gas_limit,
            tx_gas_limit: config.tx_gas_limit,
            pool_evict_blocks: config.pool_evict_blocks,
            confirm_depth: config.pow.confirm_depth,
            snapshot_sync_blocks: config.snapshot_sync_blocks,
            build_tx_cost: config.costs.sig_verify,
            block_scan_cost_us: (20, 4),
            account_read_cost: SimDuration::from_micros(60),
            deploys: Vec::new(),
        };
        Setup {
            ctx: EthCtx { config: config.clone(), params },
            store: LsmStore::new_private(eth_store_config()),
            link: config.link.clone(),
            cores: config.cores,
            seed: config.seed,
        }
    }

    /// Each miner forks its own stream for mining races and gossip flips.
    fn lane(chain: ChainNode<LsmStore>, rng: &mut SimRng) -> EthNode {
        EthNode { chain, rng: rng.fork(), mine_generation: 0, crashed: false }
    }
    fn chain(node: &EthNode) -> &ChainNode<LsmStore> {
        &node.chain
    }
    fn chain_mut(node: &mut EthNode) -> &mut ChainNode<LsmStore> {
        &mut node.chain
    }

    fn start(chain: &mut EthereumChain) {
        for i in 0..chain.config.nodes {
            enter_mining_race(chain, NodeId(i));
        }
    }

    fn admit(chain: &mut EthereumChain, server: NodeId, tx: Transaction) -> bool {
        let arrive = EthEvent::TxArrive { to: server, tx: Arc::new(tx), gossiped: false };
        chain.engine.schedule(chain.engine.now() + chain.config.rpc_delay, arrive);
        true
    }

    fn inject(chain: &mut EthereumChain, fault: Fault) {
        match fault {
            Fault::Crash(node) => {
                chain.network.crash(node);
                chain.engine.with_node_mut(node.0, |n| {
                    n.crashed = true;
                    n.mine_generation += 1; // cancel races
                    n.chain.crash();
                });
            }
            // A snapshot transfer the crash tore needs no special care here:
            // its chunks are content-addressed trie nodes and block records,
            // harmless to the live store, and the replay path closes the gap.
            Fault::Recover(node) => {
                chain.network.recover(node);
                chain.engine.with_node_mut(node.0, |n| n.crashed = false);
                // Only the revived node re-enters the race; before the run
                // starts, `start` will enter every node anyway.
                if chain.started() {
                    enter_mining_race(chain, node);
                }
            }
            Fault::Restart(node) => restart_node(chain, node),
            Fault::TornTail(node) => {
                let vfs = chain.engine.with_node(node.0, |n| n.chain.state.store().vfs());
                FaultVfs::new(vfs, chain.config.seed ^ 0xF417_7A11 ^ node.0 as u64)
                    .tear_tail(&format!("{STORE_PREFIX}/wal"));
            }
            Fault::SlowDisk(node, per_op) => {
                let vfs = chain.engine.with_node(node.0, |n| n.chain.state.store().vfs());
                vfs.lock().unwrap().set_op_latency_us(per_op.as_micros());
            }
            // PoW has no leader proposal to fork: an equivocating miner is
            // just a fork, which the heaviest-chain rule already models.
            Fault::Equivocate(_) => {}
            _ => unreachable!("the connector injects the network faults"),
        }
    }

    fn disk_stall_us(node: &EthNode) -> u64 {
        node.chain.state.store().vfs().lock().unwrap().stall_us()
    }
}

/// Restart a crashed node from its durable store alone: reopen the LSM (WAL
/// replay, torn-tail truncation), rebuild the chain from persisted block
/// records, then ask a live peer for its head to download the gap.
fn restart_node(chain: &mut EthereumChain, id: NodeId) {
    let now = chain.engine.now();
    let peer = chain.network.first_live_peer(id);
    chain.engine.with_node_mut(id.0, |n| {
        rebuild_node_from_store(&mut n.chain);
        n.crashed = false;
        n.mine_generation += 1;
        // Catch-up bookkeeping: recovery completes when the head reaches
        // the first live peer's announced height. With no live peer the
        // node is trivially caught up.
        n.chain.recovery = RecoveryWindow { restarted_at: peer.map(|_| now), ..Default::default() };
    });
    chain.network.recover(id);
    if let Some(peer) = peer {
        let msg = SyncMsg::HeadRequest { from: id };
        chain.engine.schedule(now, EthEvent::Sync { to: peer, msg });
    }
    enter_mining_race(chain, id);
}

/// Draw `miner`'s next race and schedule it, cancelling any in flight.
fn enter_mining_race(chain: &mut EthereumChain, miner: NodeId) {
    let (now, config) = (chain.engine.now(), &chain.config);
    let (at, race) = chain.engine.with_node_mut(miner.0, |n| n.next_race(config, miner, now));
    chain.engine.schedule(at, race);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_contracts::testing::ycsb_and_smallbank_setup;
    use bb_types::Address;
    use blockbench::connector::{BlockchainConnector, Query};
    use bb_contracts::{donothing, ycsb};
    use bb_crypto::KeyPair;

    fn small_chain(nodes: u32) -> EthereumChain {
        let mut config = EthConfig::with_nodes(nodes);
        config.pow.base_interval = SimDuration::from_millis(500); // fast tests
        EthereumChain::new(config)
    }

    fn client_tx(seed: u64, nonce: u64, to: Address, payload: Vec<u8>) -> Transaction {
        Transaction::signed(&KeyPair::from_seed(seed), nonce, to, 0, payload)
    }

    #[test]
    fn transactions_get_mined_and_confirmed() {
        let mut chain = small_chain(4);
        let contract = chain.deploy(&ycsb::bundle());
        for nonce in 0..20 {
            let tx = client_tx(1, nonce, contract, ycsb::write_call(nonce, b"v"));
            chain.submit(NodeId((nonce % 4) as u32), tx);
        }
        chain.advance_to(SimTime::from_secs(30));
        let blocks = chain.confirmed_blocks_since(0);
        assert!(!blocks.is_empty(), "no confirmed blocks");
        let committed: usize = blocks.iter().map(|b| b.txs.len()).sum();
        assert_eq!(committed, 20, "all transactions confirmed exactly once");
        assert!(blocks.iter().all(|b| b.txs.iter().all(|&(_, ok)| ok)));
    }

    /// Every node holds node 0's blocks and receipts at every confirmed
    /// height they share. The producer's receipts come from `build_block`'s
    /// apply loop and a validator's from `execute_block_serial`, so this is
    /// where the two serial paths must agree; the mix includes transfers
    /// from an unfunded sender, which fail, so a success flag can differ.
    #[test]
    fn nodes_converge_on_one_chain() {
        let mut chain = small_chain(4);
        let contract = chain.deploy(&donothing::bundle());
        // Genesis funds seeds 0..1024 only.
        let broke = KeyPair::from_seed(1 << 20);
        for nonce in 0..10 {
            chain.submit(NodeId(0), client_tx(1, nonce, contract, donothing::call()));
            let transfer = Transaction::signed(&broke, nonce, Address::from_index(7), 5, vec![]);
            chain.submit(NodeId(0), transfer);
        }
        chain.advance_to(SimTime::from_secs(40));
        let at = |i: u32, h: u64| {
            chain.engine.with_node(i, |n| {
                let id = n.chain.tree.main_chain_at(h);
                (id, id.and_then(|id| n.chain.receipts.get(&id).cloned()))
            })
        };
        let h0 = chain.engine.with_node(0, |n| n.chain.tree.confirmed_height(2));
        let mut failed = 0;
        for i in 1..4 {
            let hi = chain.engine.with_node(i, |n| n.chain.tree.confirmed_height(2));
            let common = h0.min(hi);
            assert!(common > 0, "node {i} has no confirmed chain (h0={h0}, hi={hi})");
            for h in 1..=common {
                let block = at(i, h);
                assert_eq!(block, at(0, h), "divergence at height {h} on node {i}");
                failed += block.1.into_iter().flatten().filter(|&(_, ok)| !ok).count();
            }
        }
        assert!(failed > 0, "no failed transaction confirmed: the flags were never compared");
    }

    #[test]
    fn forks_happen_but_resolve() {
        let mut chain = small_chain(8);
        chain.advance_to(SimTime::from_secs(120));
        let stats = chain.stats();
        assert!(stats.blocks_total >= stats.blocks_main);
        // The main chain grows at roughly the configured rate.
        assert!(stats.blocks_main > 100, "main chain too short: {}", stats.blocks_main);
    }

    #[test]
    fn partition_creates_forks_then_heals() {
        let mut chain = small_chain(8);
        chain.advance_to(SimTime::from_secs(20));
        chain.inject(Fault::PartitionHalf { left: 4 });
        chain.advance_to(SimTime::from_secs(60));
        chain.inject(Fault::Heal);
        chain.advance_to(SimTime::from_secs(120));
        let stats = chain.stats();
        let forked = stats.blocks_total - stats.blocks_main;
        assert!(forked > 5, "partition produced only {forked} fork blocks");
        // After healing, all nodes agree on the head within confirmation depth.
        let heads: Vec<_> =
            (0..8).map(|i| chain.engine.with_node(i, |n| n.chain.tree.head_height())).collect();
        let max = *heads.iter().max().unwrap();
        let min = *heads.iter().min().unwrap();
        assert!(max - min <= 3, "heads diverged after heal: {heads:?}");
    }

    #[test]
    fn crash_does_not_stop_the_chain() {
        let mut chain = small_chain(8);
        chain.advance_to(SimTime::from_secs(15));
        let before = chain.stats().blocks_main;
        // Keep node 0 alive: it is the driver's RPC endpoint/observer.
        for i in 4..8 {
            chain.inject(Fault::Crash(NodeId(i)));
        }
        chain.advance_to(SimTime::from_secs(60));
        let after = chain.stats().blocks_main;
        assert!(after > before + 10, "chain stalled after crashes: {before} → {after}");
    }

    #[test]
    fn recover_reenters_only_the_recovered_node() {
        let mut chain = small_chain(4);
        chain.advance_to(SimTime::from_secs(5));
        let generations = |chain: &EthereumChain| -> Vec<u64> {
            (0..4).map(|i| chain.engine.with_node(i, |n| n.mine_generation)).collect()
        };
        let before = generations(&chain);
        chain.inject(Fault::Crash(NodeId(3)));
        chain.inject(Fault::Recover(NodeId(3)));
        let after = generations(&chain);
        assert_eq!(after[..3], before[..3], "recovering node 3 redrew other races");
        assert!(after[3] > before[3], "node 3 did not re-enter the race: {before:?} → {after:?}");
        chain.advance_to(SimTime::from_secs(60));
        let moved = chain.engine.with_node(3, |n| n.mine_generation) > after[3];
        assert!(moved, "node 3's race never moved");
    }

    #[test]
    fn historical_balance_query() {
        let mut chain = small_chain(2);
        let alice = KeyPair::from_seed(1);
        let alice_addr = Address::from_public_key(&alice.public());
        // Preload two blocks transferring value.
        let bob = Address::from_index(999);
        chain.preload_blocks(vec![
            vec![Transaction::signed(&alice, 0, bob, 100, vec![])],
            vec![Transaction::signed(&alice, 1, bob, 50, vec![])],
        ]);
        let q1 = chain
            .query(&Query::AccountAtBlock { account: alice_addr, height: 1 })
            .unwrap();
        let q2 = chain
            .query(&Query::AccountAtBlock { account: alice_addr, height: 2 })
            .unwrap();
        let b1 = i64::from_le_bytes(q1.data.try_into().unwrap());
        let b2 = i64::from_le_bytes(q2.data.try_into().unwrap());
        assert_eq!(b1 - b2, 50, "second transfer visible between heights");
        // Block tx query decodes the transfers.
        let q = chain.query(&Query::BlockTxs { height: 1 }).unwrap();
        let mut d = bb_types::Decoder::new(&q.data);
        assert_eq!(d.u32().unwrap(), 1);
    }

    /// Everything set-up leaves on a node that a run can later observe, bar
    /// the observer's log: chain, receipts in block-id order, tip, store and
    /// trie counters, and the disk (files, I/O counters, fault settings).
    fn footprint(chain: &EthereumChain, i: u32) -> impl PartialEq + std::fmt::Debug {
        let entries = chain.committed_chain(NodeId(i));
        chain.engine.with_node(i, |n| {
            let mut receipts: Vec<_> = n.chain.receipts.clone().into_iter().collect();
            receipts.sort_unstable_by_key(|&(id, _)| id);
            let disk = n.chain.state.store().vfs().lock().unwrap().clone();
            let trie = (n.chain.state.trie_cache_stats(), n.chain.state.trie_flush_stats());
            (entries, receipts, n.chain.tip(), n.chain.state.store().stats(), trie, disk)
        })
    }

    #[test]
    fn twin_nodes_after_setup_each_own_their_copied_disk() {
        let mut chain = small_chain(4);
        let (kv, _) = ycsb_and_smallbank_setup(&mut chain);
        // 5 + 4 preloaded blocks, and every node is node 0's twin...
        let want = footprint(&chain, 0);
        assert_eq!(chain.committed_chain(NodeId(0)).len(), 9);
        for i in 1..4 {
            assert_eq!(footprint(&chain, i), want, "node {i} is no twin of node 0");
            // ...on a disk of its own, without the observer's log.
            let disks = |j| chain.engine.with_node(j, |n| n.chain.state.store().vfs());
            assert!(!Arc::ptr_eq(&disks(0), &disks(i)), "node {i} writes to node 0's disk");
            assert_eq!(chain.engine.with_node(i, |n| n.chain.observer_totals()), (9, 0));
        }
        assert_eq!(chain.engine.with_node(0, |n| n.chain.observer_totals()), (9, 200));

        // The copied WAL, manifest and tables really are node 2's own: a
        // power cut and a restart from them alone brings it back.
        for nonce in 0..20 {
            let tx = client_tx(1, nonce, kv, ycsb::write_call(nonce, b"v"));
            chain.submit(NodeId((nonce % 4) as u32), tx);
        }
        chain.advance_to(SimTime::from_secs(8));
        chain.inject(Fault::Crash(NodeId(2)));
        chain.inject(Fault::TornTail(NodeId(2)));
        chain.advance_to(SimTime::from_secs(16));
        chain.inject(Fault::Restart(NodeId(2)));
        let preloaded = &chain.committed_chain(NodeId(0))[..9];
        assert_eq!(&chain.committed_chain(NodeId(2))[..9], preloaded, "copied prefix not durable");
        chain.advance_to(SimTime::from_secs(40));
        let heads = [0, 2].map(|i| chain.engine.with_node(i, |n| n.chain.tree.head_height()));
        assert!(heads[0].abs_diff(heads[1]) <= 3, "restarted node lags: {heads:?}");
        let stats = chain.stats();
        assert!(stats.recovery_ms > 0, "recovery never completed");
        assert!(stats.wal_records_replayed > 0, "nothing replayed from the copied WAL");
        let committed: u64 = chain.engine.with_node(0, |n| n.chain.observer_totals().1);
        assert_eq!(committed, 220);
    }

    #[test]
    #[should_panic(expected = "preload after replicas diverged")]
    fn preload_refuses_to_overwrite_a_diverged_node() {
        let mut chain = small_chain(4);
        let contract = chain.deploy(&ycsb::bundle());
        // Node 2 alone moves ahead by a block.
        let lone = Arc::new(client_tx(1, 0, contract, ycsb::write_call(1, b"v")));
        chain.engine.with_ctx_node_mut(2, |ctx, n| n.chain.preload_block(ctx, SimTime::ZERO, &[lone]));
        chain.preload_blocks(vec![vec![client_tx(2, 0, contract, ycsb::write_call(2, b"v"))]]);
    }

    #[test]
    fn direct_execution_reports_gas_and_memory() {
        let mut chain = small_chain(1);
        let contract = chain.deploy(&bb_contracts::cpuheavy::bundle());
        let tx = client_tx(1, 0, contract, bb_contracts::cpuheavy::sort_call(2000));
        let res = chain.execute_direct(tx);
        assert!(res.success, "{:?}", res.error);
        assert!(res.gas_used > 100_000);
        assert!(res.modeled_mem > chain.config.costs.mem_base);
        assert!(res.duration > SimDuration::from_micros(1000));
    }

    #[test]
    fn duplicate_submissions_commit_once() {
        let mut chain = small_chain(4);
        let contract = chain.deploy(&donothing::bundle());
        let tx = client_tx(1, 0, contract, donothing::call());
        chain.submit(NodeId(0), tx.clone());
        chain.submit(NodeId(1), tx.clone());
        chain.submit(NodeId(2), tx);
        chain.advance_to(SimTime::from_secs(30));
        let committed: usize =
            chain.confirmed_blocks_since(0).iter().map(|b| b.txs.len()).sum();
        assert_eq!(committed, 1);
    }

    #[test]
    fn torn_tail_restart_recovers_durable_prefix_and_catches_up() {
        let mut chain = small_chain(4);
        let contract = chain.deploy(&ycsb::bundle());
        for nonce in 0..30 {
            let tx = client_tx(1, nonce, contract, ycsb::write_call(nonce, b"v"));
            chain.submit(NodeId((nonce % 4) as u32), tx);
        }
        chain.advance_to(SimTime::from_secs(10));
        let durable_root = chain.engine.with_node(3, |n| {
            let head = n.chain.tree.head();
            n.chain.roots[&head]
        });
        // Power cut on node 3: volatile state gone, WAL tail torn.
        chain.inject(Fault::Crash(NodeId(3)));
        chain.inject(Fault::TornTail(NodeId(3)));
        chain.advance_to(SimTime::from_secs(20));
        chain.inject(Fault::Restart(NodeId(3)));
        // The recovered chain must contain the pre-crash durable head state
        // (the crashed node's committed prefix survived the torn tail).
        let recovered_has_root = chain
            .engine
            .with_node(3, |n| n.chain.roots.values().any(|r| *r == durable_root));
        assert!(recovered_has_root, "durable pre-crash root lost in recovery");
        chain.advance_to(SimTime::from_secs(45));
        // Node 3 caught up with the cluster.
        let h3 = chain.engine.with_node(3, |n| n.chain.tree.head_height());
        let h0 = chain.engine.with_node(0, |n| n.chain.tree.head_height());
        assert!(h0.abs_diff(h3) <= 3, "restarted node lags: h0={h0} h3={h3}");
        let stats = chain.stats();
        assert!(stats.recovery_ms > 0, "recovery never completed");
        assert!(stats.resync_blocks > 0, "no blocks were resynced");
        assert!(stats.resync_bytes > 0);
        // And the chain as a whole kept committing after the rejoin.
        let committed: usize = chain.confirmed_blocks_since(0).iter().map(|b| b.txs.len()).sum();
        assert_eq!(committed, 30);
    }

    #[test]
    fn deep_gap_restart_uses_snapshot_sync_instead_of_replay() {
        let mut config = EthConfig::with_nodes(4);
        config.pow.base_interval = SimDuration::from_millis(500);
        config.snapshot_sync_blocks = 4; // force the snapshot path
        let mut chain = EthereumChain::new(config);
        let contract = chain.deploy(&ycsb::bundle());
        for nonce in 0..30 {
            let tx = client_tx(1, nonce, contract, ycsb::write_call(nonce, b"v"));
            chain.submit(NodeId((nonce % 4) as u32), tx);
        }
        chain.advance_to(SimTime::from_secs(10));
        chain.inject(Fault::Crash(NodeId(3)));
        // A long outage: the gap is far beyond the 4-block threshold.
        chain.advance_to(SimTime::from_secs(40));
        chain.inject(Fault::Restart(NodeId(3)));
        chain.advance_to(SimTime::from_secs(70));
        let stats = chain.stats();
        assert!(stats.snapshot_chunks > 0, "deep gap closed without snapshot chunks");
        assert!(stats.snapshot_bytes > 0);
        assert!(stats.recovery_ms > 0, "recovery never completed");
        // The deep gap travelled as state chunks; only the blocks mined
        // mid-transfer were replayed.
        let gap_blocks = chain.engine.with_node(0, |n| n.chain.tree.head_height());
        assert!(
            stats.resync_blocks < gap_blocks / 2,
            "snapshot sync still replayed most of the gap: {} of {gap_blocks}",
            stats.resync_blocks
        );
        let h3 = chain.engine.with_node(3, |n| n.chain.tree.head_height());
        let h0 = chain.engine.with_node(0, |n| n.chain.tree.head_height());
        assert!(h0.abs_diff(h3) <= 3, "restarted node lags: h0={h0} h3={h3}");
        // Storage cost-model observability threads through to PlatformStats.
        assert!(stats.storage_logical_bytes > 0);
        assert!(stats.write_amplification().expect("stores saw writes") > 1.0);
    }
}
