//! The Ethereum-like network world: proof of work under [`AccountChain`].
//!
//! Every server node runs the full stack: a transaction pool fed by client
//! RPC and probabilistic gossip, an exponential-race miner, full block
//! validation by re-execution, heaviest-chain fork choice with reorgs (the
//! tx pool re-adopts transactions from abandoned branches), and a
//! Merkle-Patricia state trie over a private LSM store. Validation is
//! billed on every validator, but run on the host once per world: the first
//! validator to adopt a block runs it and the others install its trie
//! delta (`ChainNode::execute_and_seal`, DESIGN.md §8). Node 0 doubles as
//! the driver's RPC endpoint: it serves `getLatestBlock(h)` from its view of
//! the confirmed chain (head minus `confirm_depth`), block/state queries,
//! and the read-only contract path.
//!
//! What is proof-of-work here: the mining race and gossip coin flips, drawn
//! from each server's own RNG stream; admission after `rpc_delay`; and a
//! durable node: it restarts from its own store, a snapshot transfer copies
//! a peer's store into it, and its disk can tear a WAL tail or slow down.

use crate::account_chain::{AccountChain, Consensus, Setup};
use crate::config::EthConfig;
use crate::node::{vm_for, BlockOutcomes, ChainNode, ChainParams, ChainPlatform, SyncMsg};
use crate::state::AccountState;
use bb_consensus::pow::BlockTree;
use bb_crypto::{DigestMap, Hash256};
use bb_sim::{Effects, ShardedWorld, SimDuration, SimRng, SimTime};
use bb_storage::{FaultVfs, KvError, KvStore, LsmConfig, LsmStore};
use bb_types::{Block, NodeId, Transaction, TxTable};
use blockbench::connector::Fault;
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
        /// Its index in the world's [`TxTable`].
        index: u32,
        /// Came from a peer (don't re-gossip) or from a client.
        gossiped: bool,
    },
    /// A sync message (block sync or snapshot transfer) reached a node.
    Sync {
        /// Receiving node.
        to: NodeId,
        /// The message.
        msg: SyncMsg,
    },
}

/// One Ethereum server.
pub struct EthNode {
    chain: ChainNode<LsmStore>,
    /// This node's private randomness: mining race draws and gossip coin
    /// flips, in this lane's own event order.
    rng: SimRng,
    mine_generation: u64,
}

/// Context shared by every lane: read-only but for the block outcomes, a
/// cache of a pure function of lane state (see `ShardedWorld::Ctx`).
pub struct EthCtx {
    config: EthConfig,
    params: ChainParams,
    outcomes: BlockOutcomes,
    txs: TxTable,
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

    /// Validators install the first validator's trie delta: the LSM never
    /// refuses a batch, so an install ends where a run ends.
    fn outcomes(&self) -> Option<&BlockOutcomes> {
        Some(&self.outcomes)
    }

    fn txs(&self) -> &TxTable {
        &self.txs
    }
    fn txs_mut(&mut self) -> &mut TxTable {
        &mut self.txs
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
            .commit_block_with_meta(vec![(block_meta_key(id).into(), Some(record))])
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

    /// Trie nodes, account values and `!b/` block records share the store's
    /// key space, so the state chunks carried the chain too: make the
    /// transfer durable and rebuild the chain from the store.
    fn state_landed(&self, node: &mut ChainNode<LsmStore>) -> bool {
        node.state.store_mut().flush();
        rebuild_node_from_store(self, node);
        true
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
            EthEvent::TxArrive { to, .. } | EthEvent::Sync { to, .. } => to.0,
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
        if ctx.params.crashed[id.index()] {
            return; // a dead process handles nothing
        }
        match event {
            EthEvent::Mine { generation, .. } => on_mine(ctx, node, id, now, generation, fx),
            EthEvent::TxArrive { tx, index, gossiped, .. } => {
                on_tx(ctx, node, id, now, tx, index, gossiped, fx)
            }
            EthEvent::Sync { msg, .. } => on_sync(ctx, node, id, now, msg, fx),
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
fn block_meta_record(root: &Hash256, block: &Block) -> Arc<[u8]> {
    block.encode_after(&root.0).into()
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

#[allow(clippy::too_many_arguments)]
fn on_tx(
    ctx: &EthCtx,
    node: &mut EthNode,
    me: NodeId,
    now: SimTime,
    tx: Arc<Transaction>,
    index: u32,
    gossiped: bool,
    fx: &mut Effects<EthEvent>,
) {
    node.chain.cpu.charge(now, ctx.config.costs.sig_verify);
    if !node.chain.enqueue(Arc::clone(&tx), index) {
        return;
    }
    if !gossiped {
        let size = tx.byte_size();
        for peer in (0..ctx.config.nodes).map(NodeId) {
            if peer == me || !node.rng.chance(ctx.config.tx_gossip_prob) {
                continue;
            }
            let tx = Arc::clone(&tx);
            let gossip = move |_at| EthEvent::TxArrive { to: peer, tx, index, gossiped: true };
            fx.send(peer.0, size, gossip);
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
        // Head moved (a block, or a snapshot transfer landed): restart the
        // mining race on the new head.
        let (at, race) = node.next_race(&ctx.config, me, now);
        fx.schedule(at, race);
    }
}

/// Rebuild a node's in-memory chain (tree, bodies, roots, head state) from
/// its durable store alone — the shared tail of crash restart and snapshot
/// sync.
fn rebuild_node_from_store(ctx: &EthCtx, n: &mut ChainNode<LsmStore>) {
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
    n.install_chain(ctx, tree, bodies, roots);
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
            snapshot_chunk_bytes: config.snapshot_chunk_bytes,
            build_tx_cost: config.costs.sig_verify,
            block_scan_cost_us: (20, 4),
            account_read_cost: SimDuration::from_micros(60),
            deploys: Vec::new(),
            crashed: vec![false; config.nodes as usize],
        };
        Setup {
            ctx: EthCtx {
                config: config.clone(),
                params,
                outcomes: BlockOutcomes::default(),
                txs: TxTable::default(),
            },
            store: LsmStore::new_private(eth_store_config()),
            link: config.link.clone(),
            cores: config.cores,
            seed: config.seed,
        }
    }

    /// Each miner forks its own stream for mining races and gossip flips.
    fn lane(chain: ChainNode<LsmStore>, rng: &mut SimRng) -> EthNode {
        EthNode { chain, rng: rng.fork(), mine_generation: 0 }
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
        let index = chain.engine.with_ctx_mut(|ctx| ctx.txs.intern(tx.id()));
        let arrive = EthEvent::TxArrive { to: server, tx: Arc::new(tx), index, gossiped: false };
        chain.engine.schedule(chain.engine.now() + chain.config.rpc_delay, arrive);
        true
    }

    /// Reopen the durable store: WAL replay, torn-tail truncation, and the
    /// chain rebuilt from the persisted block records.
    fn rebuild(ctx: &EthCtx, node: &mut EthNode) {
        rebuild_node_from_store(ctx, &mut node.chain);
    }

    /// Only the restarted node re-enters the race.
    fn resume(chain: &mut EthereumChain, node: NodeId) {
        enter_mining_race(chain, node);
    }

    fn inject(chain: &mut EthereumChain, fault: Fault) {
        match fault {
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
            _ => unreachable!("the connector injects the network and process faults"),
        }
    }

    fn disk_stall_us(node: &EthNode) -> u64 {
        node.chain.state.store().vfs().lock().unwrap().stall_us()
    }
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
    fn restart_reenters_only_the_restarted_node() {
        let mut chain = small_chain(4);
        chain.advance_to(SimTime::from_secs(5));
        let generations = |chain: &EthereumChain| -> Vec<u64> {
            (0..4).map(|i| chain.engine.with_node(i, |n| n.mine_generation)).collect()
        };
        let before = generations(&chain);
        chain.inject(Fault::Crash(NodeId(3)));
        chain.inject(Fault::Restart(NodeId(3)));
        let after = generations(&chain);
        assert_eq!(after[..3], before[..3], "restarting node 3 redrew other races");
        assert!(after[3] > before[3], "node 3 did not re-enter the race: {before:?} → {after:?}");
        chain.advance_to(SimTime::from_secs(60));
        let moved = chain.engine.with_node(3, |n| n.mine_generation) > after[3];
        assert!(moved, "node 3's race never moved");
    }

    #[test]
    #[should_panic(expected = "crash it first")]
    fn restart_of_a_live_node_panics() {
        small_chain(4).inject(Fault::Restart(NodeId(2)));
    }

    /// A crash that tears a snapshot transfer once the peer's `!b/` block
    /// records have landed leaves a store whose records name state that
    /// never arrived. A restart within `snapshot_sync_blocks` of the peer
    /// must not rebuild from them and replay: it transfers afresh, and the
    /// node ends on the cluster's chain and state roots.
    #[test]
    fn restart_after_a_torn_transfer_transfers_afresh() {
        let mut config = EthConfig::with_nodes(4);
        config.pow.base_interval = SimDuration::from_millis(500);
        (config.snapshot_sync_blocks, config.snapshot_chunk_bytes) = (4, 512);
        let sync_blocks = config.snapshot_sync_blocks;
        let mut c = EthereumChain::new(config);
        let addr = c.deploy(&ycsb::bundle());
        let mut next = 0u64;
        let step = |c: &mut EthereumChain| c.advance_to(c.now() + SimDuration::from_micros(200));
        let syncing =
            |c: &EthereumChain| c.engine.with_node(3, |n| n.chain.recovery.snapshot_syncing);
        // The heights of the block records in node `i`'s store.
        let durable = |c: &mut EthereumChain, i: u32| -> Vec<u64> {
            let records = c.engine.with_node_mut(i, |n| {
                n.chain.state.store_mut().scan_prefix(b"!b/").expect("store reads")
            });
            let blocks = records.iter().filter_map(|(_, v)| decode_block_meta(v));
            blocks.map(|(_, b)| b.header.height).collect()
        };
        ycsb_load(&mut c, addr, &mut next, 3, 3);
        c.inject(Fault::Crash(NodeId(3)));
        ycsb_load(&mut c, addr, &mut next, 3, 13);
        c.inject(Fault::Restart(NodeId(3)));
        // Step until a transfer has shipped every block record, mid-state.
        let deadline = c.now() + SimDuration::from_secs(1);
        while !syncing(&c) || durable(&mut c, 3).len() < durable(&mut c, 0).len() {
            assert!(c.now() < deadline, "no transfer stopped mid-state with every block record");
            step(&mut c);
        }
        c.inject(Fault::Crash(NodeId(3)));
        let torn_chunks = c.stats().snapshot_chunks;
        c.advance_to(c.now() + SimDuration::from_secs(1));
        let torn_head = durable(&mut c, 3).into_iter().max().expect("genesis is durable");
        let peer_head = c.engine.with_node(0, |n| n.chain.tree.head_height());
        assert!(peer_head - torn_head <= sync_blocks, "gap {torn_head}..{peer_head} is deep");
        c.inject(Fault::Restart(NodeId(3)));
        ycsb_load(&mut c, addr, &mut next, 3, 30);
        c.advance_to(SimTime::from_secs(40));
        assert!(c.stats().snapshot_chunks > torn_chunks, "restart replayed onto a torn store");
        let chains: Vec<_> = (0..4).map(|i| c.committed_chain(NodeId(i))).collect();
        let (peer, mine) = (chains[0].len(), chains[3].len());
        assert!(peer.abs_diff(mine) <= 3, "restarted node lags at {mine} of {peer} blocks");
        let checked = blockbench::check_chains(&chains, 3).unwrap_or_else(|v| panic!("{v}"));
        assert!(checked > 0, "safety check was vacuous");
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

    /// The block outcomes the run has looked up, as `(validator, block id,
    /// hit, installs)`.
    fn lookups(c: &EthereumChain) -> Vec<(NodeId, Hash256, bool, bool)> {
        c.engine.with_ctx(|ctx| ctx.outcomes.lookups.lock().unwrap().clone())
    }

    /// YCSB writes into the first `servers` nodes, one per 50 ms, until
    /// `secs`; `next` numbers them (client `1 + next % 3`, nonce `next / 3`).
    fn ycsb_load(c: &mut EthereumChain, addr: Address, next: &mut u64, servers: u64, secs: u64) {
        while c.now() < SimTime::from_secs(secs) {
            let (client, nonce) = (*next % 3, *next / 3);
            let tx = client_tx(1 + client, nonce, addr, ycsb::write_call(*next, b"v"));
            assert!(c.submit(NodeId((*next % servers) as u32), tx));
            *next += 1;
            c.advance_to(c.now() + SimDuration::from_millis(50));
        }
    }

    /// Every node's main chain agrees with every other's (all but the last
    /// `tip` blocks, which may still be in flight), state roots included.
    fn assert_one_chain(c: &EthereumChain, tip: u64) {
        let chains: Vec<_> = (0..4).map(|i| c.committed_chain(NodeId(i))).collect();
        let checked = blockbench::check_chains(&chains, tip).unwrap_or_else(|v| panic!("{v}"));
        assert!(checked > 0, "safety check was vacuous");
    }

    /// Each block runs once per world: the miner built it, the first
    /// validator to adopt it misses and keeps its outcome, and the other two
    /// install it. (With debug assertions on they also run it and assert it
    /// matches.)
    #[test]
    fn outcome_of_a_block_is_installed_by_every_validator_after_the_first() {
        let mut c = small_chain(4);
        let addr = c.deploy(&ycsb::bundle());
        ycsb_load(&mut c, addr, &mut 0, 4, 10);
        let main = c.committed_chain(NodeId(0));
        assert!(main.len() > 8, "only {} blocks", main.len());
        let log = lookups(&c);
        for entry in &main[..main.len() - 3] {
            let seen: Vec<_> = log.iter().filter(|l| l.1 == entry.id).map(|l| (l.2, l.3)).collect();
            let want = [(false, false), (true, true), (true, true)];
            assert_eq!(seen, want, "height {}", entry.height);
        }
        assert_one_chain(&c, 3);
    }

    /// A crash empties a validator's trie cache, so once restarted it cannot
    /// install: its first replayed block is a hit that it runs itself.
    #[test]
    fn outcome_of_a_block_is_run_by_a_validator_whose_cache_a_crash_emptied() {
        let mut c = small_chain(4);
        let addr = c.deploy(&ycsb::bundle());
        let mut next = 0;
        ycsb_load(&mut c, addr, &mut next, 4, 4);
        c.inject(Fault::Crash(NodeId(3)));
        ycsb_load(&mut c, addr, &mut next, 3, 6);
        let from = lookups(&c).len();
        c.inject(Fault::Restart(NodeId(3)));
        ycsb_load(&mut c, addr, &mut next, 3, 16);
        let log = lookups(&c);
        let replay: Vec<_> = log[from..].iter().filter(|l| l.0 == NodeId(3)).collect();
        assert_eq!(replay.first().map(|l| (l.2, l.3)), Some((true, false)));
        assert!(replay.iter().any(|l| l.3), "node 3 never installed once its cache refilled");
        assert_one_chain(&c, 3);
    }

    /// A validator restarted behind more blocks than the world keeps
    /// outcomes of runs the oldest itself: they were kept once (its peers
    /// hit them) and evicted since.
    #[test]
    fn outcome_of_a_block_older_than_the_cache_is_run() {
        let mut c = small_chain(4);
        let addr = c.deploy(&ycsb::bundle());
        let mut next = 0;
        ycsb_load(&mut c, addr, &mut next, 4, 4);
        c.inject(Fault::Crash(NodeId(3)));
        let floor = c.engine.with_node(3, |n| n.chain.tree.head_height());
        ycsb_load(&mut c, addr, &mut next, 3, 20);
        let behind = c.engine.with_node(0, |n| n.chain.tree.head_height()) - floor;
        assert!(behind > bb_sim::OUTCOMES_KEPT as u64, "node 3 is only {behind} blocks behind");
        let from = lookups(&c).len();
        c.inject(Fault::Restart(NodeId(3)));
        ycsb_load(&mut c, addr, &mut next, 3, 30);
        assert_eq!(c.stats().snapshot_chunks, 0, "node 3 took a snapshot instead of replaying");
        let log = lookups(&c);
        let first = log[from..].iter().find(|l| l.0 == NodeId(3)).expect("node 3 replayed");
        assert!(!first.2, "node 3's first replayed block was still kept");
        assert!(log[..from].iter().any(|l| l.1 == first.1 && l.2), "no peer hit it first");
        assert_one_chain(&c, 3);
    }

    /// A slowed disk bills the store's reads and writes, and a validator
    /// whose walks all hit its cache reads nothing: so it installs like any
    /// other, and ends with the same stall, CPU, counters, disk and root as
    /// a twin that ran the block.
    #[test]
    fn outcome_of_a_block_installs_on_a_slow_disk_like_running_it() {
        let mut c = small_chain(4);
        let addr = c.deploy(&ycsb::bundle());
        let mut next = 0;
        ycsb_load(&mut c, addr, &mut next, 4, 3);
        c.inject(Fault::SlowDisk(NodeId(2), SimDuration::from_micros(50)));
        ycsb_load(&mut c, addr, &mut next, 4, 5);
        let now = c.now();
        let footprint = |n: &mut ChainNode<LsmStore>, id: &Hash256| {
            let disk = n.state.store().vfs().lock().unwrap().clone();
            let trie = (n.state.trie_cache_stats(), n.state.trie_flush_stats());
            let charged = (n.cpu.utilisation_series(), n.counters.clone());
            (n.state.root(), n.receipts[id].clone(), trie, n.state.store().stats(), disk, charged)
        };
        let txs: Vec<_> = (0..20)
            .map(|nonce| Arc::new(client_tx(77, nonce, addr, ycsb::write_call(1000 + nonce, b"slow"))))
            .collect();
        c.engine.with_ctx_mut(|ctx| {
            for tx in &txs {
                ctx.txs.intern(tx.id());
            }
        });
        let (ran, installed, stall_before, id) = c.engine.with_ctx_node_mut(2, |ctx, n| {
            let mut miner = n.chain.clone();
            for tx in &txs {
                assert!(miner.enqueue(Arc::clone(tx), ctx.txs.index(&tx.id())));
            }
            let block = Arc::new(miner.build_block(ctx, now, NodeId(9), 0));
            assert!(block.txs.len() >= 20, "the pool's own transactions come first");
            let stall_before = n.chain.state.store().vfs().lock().unwrap().stall_us();
            let mut twins = [n.chain.clone(), n.chain.clone()];
            let mut fx = Effects::detached(2, now);
            for twin in &mut twins {
                twin.adopt_block(ctx, now, NodeId(2), Arc::clone(&block), None, &mut fx);
            }
            let [mut ran, mut installed] = twins;
            let id = block.id();
            (footprint(&mut ran, &id), footprint(&mut installed, &id), stall_before, id)
        });
        assert!(ran.4.stall_us() > stall_before, "the slowed disk did not stall");
        assert_eq!(installed, ran);
        let log = lookups(&c);
        let seen: Vec<_> = log.iter().filter(|l| l.1 == id).map(|l| (l.0, l.2, l.3)).collect();
        assert_eq!(seen, [(NodeId(2), false, false), (NodeId(2), true, true)]);
    }

    /// A validator that installs a block appends the WAL frame the runner's
    /// seal built, rather than framing its own: from one base, the runner
    /// records, runs and seals a block, its twin installs the delta, and
    /// the two disks are equal, the WAL file byte for byte, with the frame
    /// the last append on both. (The twins install in every profile;
    /// `adopt_block` runs a hit too under debug assertions.)
    #[test]
    fn installed_block_appends_the_runners_wal_frame() {
        let mut c = small_chain(4);
        let addr = c.deploy(&ycsb::bundle());
        ycsb_load(&mut c, addr, &mut 0, 4, 3);
        let now = c.now();
        let txs: Vec<_> = (0..20)
            .map(|nonce| Arc::new(client_tx(77, nonce, addr, ycsb::write_call(500 + nonce, b"w"))))
            .collect();
        c.engine.with_ctx_mut(|ctx| {
            for tx in &txs {
                ctx.txs.intern(tx.id());
            }
        });
        c.engine.with_ctx_node_mut(1, |ctx, n| {
            let mut miner = n.chain.clone();
            for tx in &txs {
                assert!(miner.enqueue(Arc::clone(tx), ctx.txs.index(&tx.id())));
            }
            let block = miner.build_block(ctx, now, NodeId(9), 0);
            let (id, parent_root) = (block.id(), n.chain.roots[&block.header.parent]);
            let (mut runner, mut installer) = (n.chain.state.clone(), n.chain.state.clone());
            runner.set_root(parent_root);
            runner.record_block();
            let params = ctx.params();
            let cost = |_| 1;
            let (height, vm) = (block.header.height, &params.vm);
            runner.execute_block_serial(&block.txs, height, vm, params.tx_gas_limit, &cost);
            ctx.seal(&mut runner, &id, &block).unwrap();
            let delta = runner.take_block_delta().expect("the seal completed the recording");
            let frame = delta.frame().expect("the runner's store framed the seal");
            installer.set_root(parent_root);
            assert!(installer.install_block(&delta).unwrap(), "the twin refused the delta");
            assert_eq!(installer.root(), runner.root());
            let disk = |s: &AccountState<LsmStore>| s.store().vfs().lock().unwrap().clone();
            let (ran, installed) = (disk(&runner), disk(&installer));
            assert_eq!(installed, ran);
            let wal = format!("{STORE_PREFIX}/wal");
            let from = installed.last_append_start(&wal).unwrap() as usize;
            assert_eq!(installed.clone().read(&wal).unwrap()[from..], frame[..]);
            assert!(ran.clone().read(&wal).unwrap().ends_with(frame));
        });
    }

    /// One signed transaction submitted at two servers enters the world's
    /// table once, and every node pools it once.
    #[test]
    fn tx_table_enters_a_transaction_submitted_twice_once() {
        let mut config = EthConfig::with_nodes(4);
        config.pow.base_interval = SimDuration::from_secs(3600); // no block in the window
        let mut c = EthereumChain::new(config);
        let contract = c.deploy(&donothing::bundle());
        let tx = client_tx(1, 0, contract, donothing::call());
        assert!(c.submit(NodeId(0), tx.clone()));
        assert!(c.submit(NodeId(1), tx));
        c.advance_to(SimTime::from_secs(1));
        assert_eq!(c.engine.with_ctx(|ctx| ctx.txs.len()), 1);
        for i in 0..4 {
            let node = c.engine.with_node(i, |n| (n.chain.tree.head_height(), n.chain.pool_len()));
            assert_eq!(node, (0, 1), "node {i}: (head height, pool length)");
        }
    }

    /// A node restarted from its store counts every transaction of its
    /// recovered blocks as seen, a preloaded one included; a node that
    /// stayed up never saw the preloaded one (set-up bypasses the pool).
    #[test]
    fn tx_table_restarted_node_refuses_its_recovered_transactions() {
        let mut c = small_chain(4);
        let contract = c.deploy(&ycsb::bundle());
        let preloaded = client_tx(1, 0, contract, ycsb::write_call(0, b"v"));
        c.preload_blocks(vec![vec![preloaded.clone()]]);
        let live = client_tx(2, 0, contract, ycsb::write_call(1, b"v"));
        assert!(c.submit(NodeId(0), live.clone()));
        c.advance_to(SimTime::from_secs(10));
        c.inject(Fault::Crash(NodeId(3)));
        c.inject(Fault::Restart(NodeId(3)));
        let recovered = c.engine.with_node(3, |n| {
            n.chain.bodies.values().flat_map(|b| &b.txs).filter(|t| t.id() == live.id()).count()
        });
        assert_eq!(recovered, 1, "the live transaction is in no recovered block");
        let mut offer = |i: u32, tx: &Transaction| {
            c.engine.with_ctx_node_mut(i, |ctx, n| {
                n.chain.enqueue(Arc::new(tx.clone()), ctx.txs.index(&tx.id()))
            })
        };
        assert!(!offer(3, &preloaded), "restarted node pooled a preloaded transaction");
        assert!(!offer(3, &live), "restarted node pooled a recovered transaction");
        assert!(!offer(1, &live));
        assert!(offer(1, &preloaded), "a live node counts a preloaded transaction as seen");
    }

    /// Every event waits in the engine's heap, and the snapshot transfer
    /// rides in `SyncMsg` without growing the platform's event.
    #[test]
    fn events_stay_within_48_bytes() {
        assert!(std::mem::size_of::<EthEvent>() <= 48, "{} bytes", std::mem::size_of::<EthEvent>());
    }
}
