//! The account-model fork-choice node, shared by Ethereum and Parity.
//!
//! The paper's layering says the two platforms differ in consensus only:
//! both keep accounts in a Merkle-Patricia trie, run the same bytecode and
//! follow the heaviest chain. [`ChainNode`] is that common node — state,
//! block tree with bodies/roots/receipts, the transaction pool with its
//! future-nonce age-out, the observer's confirmed log, and the post-restart
//! recovery window — and a platform plugs its differences in through
//! [`ChainPlatform`]: how a block is sealed, the header's difficulty, two
//! behavioural quirks that byte-identity pins, the event that carries a
//! [`SyncMsg`], and the two ends of a snapshot transfer that touch the store
//! (how a state chunk is read from it, and what the node does once the last
//! one is in). The transfer protocol itself — state chunks, then, where the
//! platform asks for it, the main chain as `(block, root)` chunks — runs
//! here. Who proposes a block and when (PoW race, PoA step) and
//! transaction admission stay with the consensus, plugged into
//! [`crate::account_chain`].
//!
//! Everything here is generic and statically dispatched: these handlers are
//! the hot loop of every Ethereum and Parity run.

use crate::config::EvmCosts;
use crate::state::{AccountState, TxInvalid};
use bb_consensus::pow::{BlockTree, InsertOutcome};
use bb_crypto::{DigestMap, DigestSet, Hash256};
use bb_merkle::{merkle_root, TrieDelta};
use bb_sim::{CpuMeter, Effects, RecentOutcomes, SimDuration, SimTime};
use bb_storage::{chunk_wire_bytes, KvError, KvPairs, KvStore};
use bb_svm::{Vm, VmConfig};
use bb_types::{
    Address, Block, BlockHeader, BlockSummary, NodeId, Transaction, TxBits, TxId, TxTable,
};
use blockbench::connector::{
    ChainEntry, DirectExec, NodeCounters, PlatformStats, Query, QueryError, QueryResult,
    RecoveryWindow,
};
use blockbench::contract::SvmContract;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// The cost constants and limits the shared node reads, resolved once from a
/// platform's config at construction, and the contracts set-up deployed.
pub struct ChainParams {
    /// Server count.
    pub nodes: u32,
    /// The contract VM (memory-capped per the platform's memory model).
    pub vm: Vm,
    /// Execution-engine cost constants.
    pub costs: EvmCosts,
    /// Transactions per block.
    pub max_txs_per_block: usize,
    /// Gas budget per block.
    pub block_gas_limit: u64,
    /// Gas budget per transaction.
    pub tx_gas_limit: u64,
    /// Age-out horizon for future-nonced pool entries, in blocks.
    pub pool_evict_blocks: u64,
    /// Blocks from the tip before the observer reports a block confirmed.
    pub confirm_depth: u64,
    /// Post-restart gaps strictly deeper than this use snapshot sync.
    pub snapshot_sync_blocks: u64,
    /// Soft byte budget of one snapshot chunk, state or chain.
    pub snapshot_chunk_bytes: usize,
    /// Producer CPU per included transaction on top of its execution
    /// (Ethereum: signature check; Parity: the signing bottleneck).
    pub build_tx_cost: SimDuration,
    /// `Query::BlockTxs` server cost in µs: `(base, per transaction)`.
    pub block_scan_cost_us: (u64, u64),
    /// `Query::AccountAtBlock` server cost.
    pub account_read_cost: SimDuration,
    /// The deploy log, `(height, address, contract)`: each contract sits on
    /// the state after the block at `height`. Only `deploy` appends.
    pub deploys: Vec<(u64, Address, SvmContract)>,
    /// Which servers are down, by index. Only the connector's `Crash` and
    /// `Restart` flip a flag, between `run_until` calls. A crashed server
    /// handles no event but those its consensus keeps running itself
    /// (Parity's steps and admission queue).
    pub crashed: Vec<bool>,
}

/// What running one block does on a validator: a pure function of its
/// [`OutcomeKey`].
#[derive(Debug, PartialEq)]
struct BlockOutcome {
    receipts: Vec<(TxId, bool)>,
    /// The serial execution time in µs.
    serial_us: u64,
    /// What the block did to the state trie, its seal included: recorded
    /// where the world keeps outcomes, and always in a kept one.
    delta: Option<TrieDelta>,
}

/// Everything a block's execution reads: the parent's post-state root, the
/// block (its id covers its height and transactions) and the deploy log's
/// length.
#[derive(PartialEq)]
struct OutcomeKey {
    parent_root: Hash256,
    id: Hash256,
    deployed: usize,
}

/// A world's recent block outcomes, held by a platform's lane context where
/// its validators install them (see [`ChainPlatform::outcomes`]). Opaque:
/// only `ChainNode::execute_and_seal` reads or fills it.
#[derive(Default)]
pub struct BlockOutcomes {
    recent: RecentOutcomes<OutcomeKey, BlockOutcome>,
    /// Every lookup as `(validator, block id, hit, installs)`, where
    /// `installs` says the validator's trie accepts the hit's delta (with
    /// debug assertions on it runs the block anyway): tests only, never
    /// stats.
    #[cfg(test)]
    pub(crate) lookups: std::sync::Mutex<Vec<(NodeId, Hash256, bool, bool)>>,
}

/// Observer counter: blocks ever produced, forks and preloads included.
pub const BLOCKS: usize = 0;

/// The contract VM for a node with `node_mem_bytes` of RAM under `costs`'
/// memory model.
pub fn vm_for(costs: &EvmCosts, node_mem_bytes: u64) -> Vm {
    let max_memory =
        (node_mem_bytes.saturating_sub(costs.mem_base) as f64 / costs.mem_overhead) as usize;
    Vm::new(VmConfig { max_memory, ..VmConfig::default() }, Default::default())
}

/// The genesis block both platforms start from.
fn genesis_block() -> Arc<Block> {
    let header = BlockHeader {
        parent: Hash256::ZERO,
        height: 0,
        timestamp_us: 0,
        tx_root: Hash256::ZERO,
        state_root: Hash256::ZERO,
        proposer: NodeId(0),
        difficulty: 0,
        round: 0,
    };
    Arc::new(Block { header, txs: Vec::new() })
}

/// What a consensus platform plugs into [`ChainNode`]. Implemented by the
/// platform's read-only lane context.
pub trait ChainPlatform {
    /// Backing store of the state trie.
    type Store: KvStore + Send;
    /// The platform's event type (sync messages are events).
    type Event: Send + 'static;
    /// Header difficulty of every non-genesis block (uniform, so heaviest
    /// chain == longest chain).
    const DIFFICULTY: u64;

    /// Cost constants and limits.
    fn params(&self) -> &ChainParams;
    /// The same, for the connector's set-up paths.
    fn params_mut(&mut self) -> &mut ChainParams;

    /// Seal `block`'s post-state (the state sits at it) into the store. A
    /// durable platform writes its block record in the same atomic batch and
    /// treats failure as a bug; a platform whose store may legitimately fill
    /// returns the error — block adoption then limps on with the unpersisted
    /// arena, and `execute_direct` reports it.
    fn seal(
        &self,
        state: &mut AccountState<Self::Store>,
        id: &Hash256,
        block: &Block,
    ) -> Result<(), KvError>;

    /// The world's recent block outcomes, where a validator installs the
    /// trie delta of the first validator that ran a block instead of
    /// running it again. `None`, the default: every validator runs every
    /// block.
    fn outcomes(&self) -> Option<&BlockOutcomes> {
        None
    }

    /// The world's transaction table: every transaction in a block, a pool
    /// or an event has its index there.
    fn txs(&self) -> &TxTable;
    /// The same, for the only two writers, both between `run_until` calls:
    /// a server's RPC admitting a transaction, and set-up preloading blocks.
    fn txs_mut(&mut self) -> &mut TxTable;

    /// Is an arriving block one this node need not look at again, given
    /// whether it already holds the body and the executed post-state root?
    fn already_known(has_body: bool, has_root: bool) -> bool;

    /// CPU charged for executing a stored orphan once its parent connects
    /// (`serial_us` is the block's serial execution time).
    fn catch_up_charge(serial_us: u64, txs: usize) -> SimDuration;

    /// The event that delivers `msg` to `to`.
    fn sync(to: NodeId, msg: SyncMsg) -> Self::Event;

    /// The last state chunk is in `node`'s store. Either rebuild the chain
    /// from the store and return `true`, or return `false` to fetch the main
    /// chain as `(block, root)` chunks too.
    fn state_landed(&self, node: &mut ChainNode<Self::Store>) -> bool;
}

/// The sync messages nodes exchange — block sync and the snapshot transfer —
/// handled by [`ChainNode::on_sync`].
#[derive(Debug, Clone)]
pub enum SyncMsg {
    /// A block: gossip from its proposer, or the reply to either request.
    Block {
        /// The block body.
        block: Arc<Block>,
        /// Peer that sent it (for parent fetches).
        from: NodeId,
    },
    /// A node asks a peer for a missing ancestor block.
    BlockRequest {
        /// Wanted block id.
        wanted: Hash256,
        /// Asking node.
        from: NodeId,
    },
    /// A restarted node asks a peer for its current head block; the reply
    /// seeds the orphan walk-back that downloads the gap.
    HeadRequest {
        /// Recovering node.
        from: NodeId,
    },
    /// A node too far behind to replay asks a peer for its next state chunk
    /// ([`KvStore::scan_range_chunk`] on the peer's live store). Trie nodes
    /// are content-addressed, so chunks read at different instants mix safely.
    StateRequest {
        /// Recovering node.
        from: NodeId,
        /// Resume cursor: the last key already transferred.
        after: Option<Vec<u8>>,
    },
    /// One bounded state chunk.
    StateChunk {
        /// Serving peer (the next chunk is asked of it).
        from: NodeId,
        /// Raw store pairs in key order.
        entries: Arc<KvPairs>,
        /// Key space exhausted?
        done: bool,
        /// On the first chunk only: the peer's head height when its scan
        /// began. The store held every trie node of that head's root then,
        /// and content-addressed nodes stay, so the chain transfer stops
        /// there.
        head: Option<u64>,
    },
    /// After the state: ask for main-chain bodies from `height` up to
    /// `last`, the height the state was served at.
    ChainRequest {
        /// Recovering node.
        from: NodeId,
        /// First wanted height.
        height: u64,
        /// Last wanted height.
        last: u64,
    },
    /// A bounded run of main-chain `(block, state root)` pairs. The roots are
    /// trusted: the freshly transferred store already holds every trie node
    /// they reach, so adoption skips re-execution.
    ChainChunk {
        /// Serving peer.
        from: NodeId,
        /// Consecutive main-chain blocks with their committed roots.
        blocks: Arc<Vec<(Arc<Block>, Hash256)>>,
        /// The last wanted height, or the peer's head, was reached?
        done: bool,
    },
}

/// What a node's pool holds, by index in the world's [`TxTable`]: which
/// indices are pooled, how many, and the head height each was last admitted
/// at.
#[derive(Clone, Default)]
struct Pooled {
    bits: TxBits,
    len: usize,
    admitted_at: Vec<u64>,
}

impl Pooled {
    /// Pool `i`, if it is not already, as admitted at head `height`.
    fn admit(&mut self, i: u32, height: u64) {
        self.len += usize::from(self.bits.insert(i));
        let slot = i as usize;
        if slot >= self.admitted_at.len() {
            self.admitted_at.resize(slot + 1, 0);
        }
        self.admitted_at[slot] = height;
    }

    /// Unpool `i`.
    fn remove(&mut self, i: u32) {
        self.len -= usize::from(self.bits.remove(i));
    }

    fn contains(&self, i: u32) -> bool {
        self.bits.contains(i)
    }

    /// The head height pooled `i` was last admitted at.
    fn admitted_at(&self, i: u32) -> u64 {
        debug_assert!(self.contains(i), "index {i} is not pooled");
        self.admitted_at[i as usize]
    }

    /// Indices pooled.
    fn len(&self) -> usize {
        self.len
    }

    /// Unpool everything.
    fn clear(&mut self) {
        self.bits.clear();
        self.len = 0;
        self.admitted_at.clear();
    }
}

/// One server of an account-model chain.
///
/// `Clone` is a twin: a second node over a second store, equal to the first
/// in everything a run can observe. Set-up builds one node and copies it
/// (DESIGN.md §4 "Replicas may start as copies").
#[derive(Clone)]
pub struct ChainNode<S: KvStore> {
    /// The account state trie.
    pub state: AccountState<S>,
    /// Fork-choice tree.
    pub tree: BlockTree,
    /// Block bodies by id (genesis included).
    pub bodies: DigestMap<Hash256, Arc<Block>>,
    /// Post-state root per block id.
    pub roots: DigestMap<Hash256, Hash256>,
    /// Receipts (tx id, success) per block id.
    pub receipts: DigestMap<Hash256, Vec<(TxId, bool)>>,
    /// Pending transactions in arrival order, each with its index in the
    /// world's [`TxTable`]. Removal is lazy: an entry counts only while
    /// `pooled` holds its index, a stale duplicate entry included.
    pool: VecDeque<(Arc<Transaction>, u32)>,
    /// The pooled indices, each with the head height at admission — the
    /// age-out clock for future-nonced entries
    /// (`ChainParams::pool_evict_blocks`).
    pooled: Pooled,
    /// Every index ever seen, bar preloaded ones (suppresses gossip loops).
    seen: TxBits,
    /// Blocks whose transactions were pruned from the pool — only blocks
    /// that joined this node's main chain. A transaction in a side block
    /// that never wins stays in the pool; pruning on mere validation would
    /// lose it for good when the fork is abandoned without a reorg through
    /// our head.
    pruned: DigestSet<Hash256>,
    /// CPU meter of the node process.
    pub cpu: CpuMeter,
    /// Post-restart catch-up session.
    pub recovery: RecoveryWindow,
    /// The head height the peer named on the first chunk of the open
    /// snapshot transfer: the chain transfer stops there, and the blocks
    /// above it re-execute on the landed state.
    served_height: u64,
    /// Run counters; they survive a restart.
    pub counters: NodeCounters,
    /// Observer state — populated only on node 0.
    confirmed: Vec<BlockSummary>,
    confirmed_height: u64,
}

impl<S: KvStore + Send> ChainNode<S> {
    /// A node at genesis over `store`: the benchmark's client accounts
    /// funded, the contracts deployed at height 0 installed, and the
    /// genesis state sealed.
    pub fn at_genesis<P: ChainPlatform<Store = S>>(p: &P, store: S, cpu: CpuMeter) -> Self {
        let mut state = AccountState::new(store);
        for seed in 0..1024 {
            let kp = bb_crypto::KeyPair::from_seed(seed);
            state
                .credit(&Address::from_public_key(&kp.public()), i64::MAX / 4)
                .expect("genesis fits a fresh store");
        }
        for (_, address, code) in p.params().deploys.iter().filter(|d| d.0 == 0) {
            state.install_contract(address, code).expect("genesis fits a fresh store");
        }
        let genesis = genesis_block();
        let id = genesis.id();
        p.seal(&mut state, &id, &genesis).expect("genesis fits a fresh store");
        let root = state.root();
        ChainNode {
            state,
            tree: BlockTree::new(id),
            bodies: DigestMap::from_iter([(id, genesis)]),
            roots: DigestMap::from_iter([(id, root)]),
            receipts: DigestMap::from_iter([(id, Vec::new())]),
            pool: VecDeque::new(),
            pooled: Pooled::default(),
            seen: TxBits::default(),
            pruned: DigestSet::from_iter([id]),
            cpu,
            recovery: RecoveryWindow::default(),
            served_height: 0,
            counters: NodeCounters::default(),
            confirmed: Vec::new(),
            confirmed_height: 0,
        }
    }

    /// Replace the chain with one recovered from a durable store and move
    /// the state to its head. The pool is volatile and resets; every
    /// recovered transaction, a preloaded one included, counts as seen.
    pub fn install_chain<P: ChainPlatform<Store = S>>(
        &mut self,
        p: &P,
        tree: BlockTree,
        bodies: DigestMap<Hash256, Arc<Block>>,
        roots: DigestMap<Hash256, Hash256>,
    ) {
        // Receipts are volatile; recovered blocks keep empty ones. (The
        // observer's confirmed log is kept separately.)
        self.receipts = bodies.keys().map(|id| (*id, Vec::new())).collect();
        self.seen =
            bodies.values().flat_map(|b| &b.txs).map(|tx| p.txs().index(&tx.id())).collect();
        self.state.set_root(roots[&tree.head()]);
        self.tree = tree;
        self.bodies = bodies;
        self.roots = roots;
        self.clear_pool();
        self.pruned.clear();
        self.prune_main_chain(p);
    }

    /// Admit the transaction at `index` in the world's [`TxTable`] to the
    /// pool; `false` if it was seen before.
    pub fn enqueue(&mut self, tx: Arc<Transaction>, index: u32) -> bool {
        if !self.seen.insert(index) {
            return false;
        }
        self.pooled.admit(index, self.tree.head_height());
        self.pool.push_back((tx, index));
        true
    }

    /// Transactions awaiting inclusion.
    pub fn pool_len(&self) -> usize {
        self.pooled.len()
    }

    fn clear_pool(&mut self) {
        self.pool.clear();
        self.pooled.clear();
    }

    /// The process died. Amnesia: the pool and the trie's uncommitted
    /// arena and caches go now; an in-flight snapshot transfer and the
    /// in-memory chain go when `Restart` rebuilds the node from its store.
    pub fn crash(&mut self) {
        self.clear_pool();
        self.state.drop_volatile();
    }

    /// Install a contract on the head state at setup time, resealing the
    /// head so a restart recovers it.
    pub fn install_contract<P: ChainPlatform<Store = S>>(
        &mut self,
        p: &P,
        addr: &Address,
        code: &SvmContract,
    ) {
        let head = self.tree.head();
        self.state.set_root(self.roots[&head]);
        self.state.install_contract(addr, code).expect("setup store healthy");
        let body = Arc::clone(&self.bodies[&head]);
        p.seal(&mut self.state, &head, &body).expect("setup store healthy");
        self.roots.insert(head, self.state.root());
    }

    /// Assemble, execute and seal a block on the current head.
    pub fn build_block<P: ChainPlatform<Store = S>>(
        &mut self,
        p: &P,
        now: SimTime,
        proposer: NodeId,
        round: u64,
    ) -> Block {
        let params = p.params();
        let parent = self.tree.head();
        let height = self.tree.head_height() + 1;
        self.state.set_root(self.roots[&parent]);

        let mut included: Vec<Arc<Transaction>> = Vec::new();
        let mut receipts: Vec<(TxId, bool)> = Vec::new();
        let mut gas_total = 0u64;
        let mut cpu_time = SimDuration::ZERO;
        // Future-nonce transactions buffered per sender, nonce-ordered —
        // the pool is in arrival order, and gossip can deliver one sender's
        // transactions out of nonce order. A plain FIFO pass would shunt
        // every later transaction of that sender to the next block (each
        // exactly one nonce ahead by the time it's popped), capping blocks
        // at a handful of transactions; real pools queue per sender by
        // nonce. Sender map is ordered so the put-back below is
        // deterministic.
        let mut future: BTreeMap<Address, BTreeMap<u64, (Arc<Transaction>, u32)>> =
            BTreeMap::new();
        'fill: while included.len() < params.max_txs_per_block {
            let Some(entry) = self.pool.pop_front() else {
                break;
            };
            if !self.pooled.contains(entry.1) {
                continue; // pruned
            }
            // Try this transaction, then any buffered successors it unblocks.
            let mut next = Some(entry);
            while let Some((tx, index)) = next.take() {
                match self.state.apply_transaction(&tx, height, &params.vm, params.tx_gas_limit) {
                    Ok(res) => {
                        gas_total += res.gas_used.max(1000);
                        cpu_time += params.costs.exec_time(res.gas_used.max(1000))
                            + params.build_tx_cost;
                        self.pooled.remove(index);
                        receipts.push((tx.id(), res.success));
                        let successor = (tx.from, tx.nonce + 1);
                        included.push(tx);
                        if included.len() >= params.max_txs_per_block
                            || gas_total >= params.block_gas_limit
                        {
                            break 'fill;
                        }
                        if let Some(q) = future.get_mut(&successor.0) {
                            next = q.remove(&successor.1);
                            if q.is_empty() {
                                future.remove(&successor.0);
                            }
                        }
                    }
                    Err(TxInvalid::BadNonce { expected, got }) if got > expected => {
                        // Future nonce: hold until its predecessor applies.
                        future.entry(tx.from).or_default().insert(got, (tx, index));
                    }
                    // Stale or broken: drop.
                    Err(_) => self.pooled.remove(index),
                }
            }
        }
        // Still-blocked transactions wait in the pool for a later block —
        // unless their nonce gap has persisted past the eviction horizon, in
        // which case the predecessor is presumed lost (or never existed: a
        // nonce-gap flood) and the entry ages out instead of re-queueing
        // (and, on a bounded pool, pinning it) forever.
        for (tx, index) in future.into_values().flat_map(BTreeMap::into_values) {
            // Only pooled transactions were tried, and a held one stays
            // pooled: its index's current admission height is the clock.
            let admitted = self.pooled.admitted_at(index);
            if height.saturating_sub(admitted) > params.pool_evict_blocks {
                self.pooled.remove(index);
            } else {
                self.pool.push_front((tx, index));
            }
        }
        self.cpu.charge(now, cpu_time);

        let header = BlockHeader {
            parent,
            height,
            timestamp_us: now.as_micros(),
            tx_root: merkle_root(&included.iter().map(|t| t.id().0).collect::<Vec<_>>()),
            state_root: self.state.root(),
            proposer,
            difficulty: P::DIFFICULTY,
            round,
        };
        let block = Block { header, txs: included };
        let id = block.id();
        let _ = p.seal(&mut self.state, &id, &block);
        self.roots.insert(id, self.state.root());
        self.receipts.insert(id, receipts);
        block
    }

    /// Execute a received block on its parent's state, one transaction after
    /// another as geth and Parity do, and seal the result — on the host,
    /// once per world. The charge is the serial execution time, except that
    /// a stored orphan catching up is billed per the platform.
    ///
    /// Where the platform keeps [`ChainPlatform::outcomes`], the validator
    /// first looks the block up among the world's recent outcomes. On a hit
    /// it installs the outcome's trie delta instead of running the block,
    /// unless its trie refuses (its cache lacks a node the block walked, as
    /// after a crash) and it runs the block after all; on a miss it runs the
    /// block and keeps the outcome. A block at a deploy height always runs.
    /// Either way the validator bills its own CPU, writes its own batch and
    /// keeps its own counters. With debug assertions on, a hit runs the
    /// block too and asserts that it did what the hit says, and every
    /// validator asserts that its post-block root is the header's
    /// `state_root`, except at a deploy height.
    fn execute_and_seal<P: ChainPlatform<Store = S>>(
        &mut self,
        p: &P,
        me: NodeId,
        now: SimTime,
        id: Hash256,
        block: &Block,
        catching_up: bool,
    ) {
        let deploys = &p.params().deploys;
        let height = block.header.height;
        let outcomes = p.outcomes().filter(|_| deploys.iter().all(|d| d.0 != height));
        let parent_root = self.roots[&block.header.parent];
        let key = OutcomeKey { parent_root, id, deployed: deploys.len() };
        self.state.set_root(parent_root);
        let hit = outcomes.and_then(|o| o.recent.find(&key));
        #[cfg(test)]
        if let Some(o) = outcomes {
            let delta = hit.as_ref().and_then(|h| h.delta.as_ref());
            let installs = delta.is_some_and(|d| self.state.accepts_block(d));
            o.lookups.lock().unwrap().push((me, id, hit.is_some(), installs));
        }
        let outcome = match hit {
            Some(hit) if !cfg!(debug_assertions) && self.install(&hit) => hit,
            Some(hit) => {
                let ran = self.run_block(p, &id, block, cfg!(debug_assertions));
                debug_assert_eq!(ran, *hit, "{me} ran block {height} unlike its kept outcome");
                hit
            }
            None => {
                let ran = Arc::new(self.run_block(p, &id, block, outcomes.is_some()));
                if let (Some(o), Some(_)) = (outcomes, &ran.delta) {
                    o.recent.keep(key, Arc::clone(&ran));
                }
                ran
            }
        };
        for tx in &block.txs {
            self.seen.insert(p.txs().index(&tx.id()));
        }
        self.counters.exec_serial_us += outcome.serial_us;
        let charge = if catching_up {
            P::catch_up_charge(outcome.serial_us, block.txs.len())
        } else {
            SimDuration::from_micros(outcome.serial_us)
        };
        self.cpu.charge(now, charge);
        let root = self.state.root();
        // Set-up re-commits state at a deploy height, so only there may a
        // validator's root differ from its header's.
        debug_assert!(
            root == block.header.state_root || deploys.iter().any(|d| d.0 == height),
            "{me} sealed block {height} on another root than its header's"
        );
        self.roots.insert(id, root);
        self.receipts.insert(id, outcome.receipts.clone());
    }

    /// Install a kept outcome's trie delta on the state standing on the
    /// block's parent root; `false` where the trie refuses it.
    fn install(&mut self, hit: &BlockOutcome) -> bool {
        let delta = hit.delta.as_ref().expect("a kept outcome carries its delta");
        self.state.install_block(delta).expect("a world that installs never refuses a batch")
    }

    /// Run a block on the state standing on its parent's root and seal it,
    /// recording its trie delta where `record`. A block at a deploy height
    /// gets its contracts on top, as set-up gave them to node 0, so
    /// re-executing the set-up chain (a Parity restart) agrees.
    fn run_block<P: ChainPlatform<Store = S>>(
        &mut self,
        p: &P,
        id: &Hash256,
        block: &Block,
        record: bool,
    ) -> BlockOutcome {
        let params = p.params();
        if record {
            self.state.record_block();
        }
        let outcome = self.state.execute_block_serial(
            &block.txs,
            block.header.height,
            &params.vm,
            params.tx_gas_limit,
            &|gas| params.costs.exec_time(gas.max(1000)).as_micros(),
        );
        let _ = p.seal(&mut self.state, id, block);
        let delta = self.state.take_block_delta();
        for (_, address, code) in params.deploys.iter().filter(|d| d.0 == block.header.height) {
            self.state.install_contract(address, code).expect("set-up contracts fit");
            let _ = p.seal(&mut self.state, id, block);
        }
        BlockOutcome { receipts: outcome.receipts, serial_us: outcome.serial_us, delta }
    }

    /// Produce a block on this node's head: build it, count it, adopt it
    /// locally, send it to every peer, and refresh the observer on node 0.
    pub fn produce<P: ChainPlatform<Store = S>>(
        &mut self,
        p: &P,
        now: SimTime,
        me: NodeId,
        round: u64,
        fx: &mut Effects<P::Event>,
    ) {
        let block = Arc::new(self.build_block(p, now, me, round));
        fx.count(BLOCKS, 1);
        self.adopt_block(p, now, me, Arc::clone(&block), None, fx);
        for peer in (0..p.params().nodes).map(NodeId) {
            if peer == me {
                continue;
            }
            let msg = P::sync(peer, SyncMsg::Block { block: Arc::clone(&block), from: me });
            fx.send(peer.0, block.byte_size(), move |_at| msg);
        }
        if me.index() == 0 {
            self.refresh_confirmed(p, now);
        }
    }

    /// Validate a block by re-execution, billed here and run on the host
    /// once per world (see `execute_and_seal`), and adopt it into the tree.
    /// An orphan is stashed and its parent requested from `request_from`.
    pub fn adopt_block<P: ChainPlatform<Store = S>>(
        &mut self,
        p: &P,
        now: SimTime,
        me: NodeId,
        block: Arc<Block>,
        request_from: Option<NodeId>,
        fx: &mut Effects<P::Event>,
    ) {
        let id = block.id();
        if P::already_known(self.bodies.contains_key(&id), self.roots.contains_key(&id)) {
            return;
        }
        let parent = block.header.parent;
        if !self.roots.contains_key(&parent) {
            // Orphan: stash in the tree and fetch the ancestor chain.
            self.tree.insert(id, parent, block.header.difficulty);
            self.bodies.insert(id, block);
            if let Some(from) = request_from {
                let ask = P::sync(from, SyncMsg::BlockRequest { wanted: parent, from: me });
                fx.send(from.0, 64, move |_at| ask);
            }
            return;
        }
        if !self.roots.contains_key(&id) {
            self.execute_and_seal(p, me, now, id, &block, false);
        }
        let difficulty = block.header.difficulty;
        self.bodies.insert(id, block);
        let old_head = self.tree.head();
        if let InsertOutcome::NewHead { reorged: true } = self.tree.insert(id, parent, difficulty) {
            self.readopt_abandoned(p, old_head);
        }
        // Connecting this block may have connected stored orphan children.
        self.execute_connected_descendants(p, me, now, id);
        // Whatever the head is now, drop its branch's transactions from the
        // pool (after the reorg path above re-added the abandoned branch's).
        self.prune_main_chain(p);
    }

    /// Remove the transactions of blocks that joined this node's main chain
    /// from its pool. Walks head→genesis, stopping at the first block
    /// already pruned, so each block is processed once; side blocks are
    /// deliberately never pruned here.
    fn prune_main_chain<P: ChainPlatform<Store = S>>(&mut self, p: &P) {
        let mut cursor = self.tree.head();
        while self.pruned.insert(cursor) {
            let Some(body) = self.bodies.get(&cursor) else {
                break;
            };
            for tx in &body.txs {
                self.pooled.remove(p.txs().index(&tx.id()));
            }
            cursor = body.header.parent;
        }
    }

    /// After a block connects, orphan children stored in `bodies` may now be
    /// on the tree without executed state; execute them in height order,
    /// siblings in id order (`bodies` iterates in no particular one).
    fn execute_connected_descendants<P: ChainPlatform<Store = S>>(
        &mut self,
        p: &P,
        me: NodeId,
        now: SimTime,
        from_id: Hash256,
    ) {
        let mut frontier = vec![from_id];
        while let Some(parent_id) = frontier.pop() {
            if !self.roots.contains_key(&parent_id) {
                continue;
            }
            let mut children: Vec<(Hash256, Arc<Block>)> = self
                .bodies
                .iter()
                .filter(|(id, b)| b.header.parent == parent_id && !self.roots.contains_key(*id))
                .map(|(id, b)| (*id, Arc::clone(b)))
                .collect();
            children.sort_unstable_by_key(|(id, _)| *id);
            for (id, child) in children {
                self.execute_and_seal(p, me, now, id, &child, true);
                frontier.push(id);
            }
        }
    }

    /// A reorg abandoned part of the old chain: re-adopt its transactions.
    fn readopt_abandoned<P: ChainPlatform<Store = S>>(&mut self, p: &P, old_head: Hash256) {
        let mut cursor = old_head;
        // Walk the old branch until we hit a block still on the main chain.
        while !self.tree.on_main_chain(&cursor) {
            let Some(body) = self.bodies.get(&cursor) else {
                break;
            };
            let height = self.tree.head_height();
            // Bodies hold `Arc<Transaction>`: re-adopting bumps refcounts
            // instead of deep-cloning every transaction.
            for tx in &body.txs {
                let index = p.txs().index(&tx.id());
                if !self.pooled.contains(index) {
                    self.pooled.admit(index, height);
                    self.pool.push_back((Arc::clone(tx), index));
                }
            }
            cursor = body.header.parent;
        }
    }

    /// Handle a sync message. Returns `true` when an arriving block opened a
    /// snapshot transfer instead of being adopted (the caller stops
    /// whatever block production it runs until the transfer lands).
    pub fn on_sync<P: ChainPlatform<Store = S>>(
        &mut self,
        p: &P,
        now: SimTime,
        me: NodeId,
        msg: SyncMsg,
        fx: &mut Effects<P::Event>,
    ) -> bool {
        match msg {
            SyncMsg::Block { block, from } => return self.on_block(p, now, me, block, from, fx),
            SyncMsg::BlockRequest { wanted, from } => {
                self.on_block_request::<P>(me, wanted, from, fx)
            }
            // Our head body: the asker's orphan-fetch walk then pulls the
            // ancestor chain block by block.
            SyncMsg::HeadRequest { from } => {
                self.on_block_request::<P>(me, self.tree.head(), from, fx)
            }
            SyncMsg::StateRequest { from, after } => {
                self.on_state_request(p, me, from, after.as_deref(), fx)
            }
            SyncMsg::StateChunk { from, entries, done, head } => {
                self.on_state_chunk(p, me, from, &entries, done, head, fx)
            }
            SyncMsg::ChainRequest { from, height, last } => {
                self.on_chain_request(p, me, from, height, last, fx)
            }
            SyncMsg::ChainChunk { from, blocks, done } => {
                self.on_chain_chunk(p, now, me, from, &blocks, done, fx)
            }
        }
        false
    }

    fn on_block<P: ChainPlatform<Store = S>>(
        &mut self,
        p: &P,
        now: SimTime,
        me: NodeId,
        block: Arc<Block>,
        from: NodeId,
        fx: &mut Effects<P::Event>,
    ) -> bool {
        if self.recovery.restarted_at.is_some() {
            if self.recovery.sync_target.is_none() {
                // First arrival after a restart is the head-request reply:
                // its height is the gap this node must close.
                let head = self.tree.head_height();
                self.recovery.sync_target = Some(block.header.height.max(head));
                let gap = block.header.height.saturating_sub(head);
                if gap > p.params().snapshot_sync_blocks || self.recovery.snapshot_syncing {
                    // Too deep to replay block by block, or the crash tore
                    // a transfer and left block records whose state never
                    // arrived: fetch the peer's state snapshot in bounded
                    // chunks instead.
                    self.recovery.snapshot_syncing = true;
                    let ask = P::sync(from, SyncMsg::StateRequest { from: me, after: None });
                    fx.send(from.0, 64, move |_at| ask);
                    return true;
                }
            }
            if self.recovery.snapshot_syncing {
                // The chain is about to be replaced wholesale by the
                // transfer; anything mined meanwhile is re-fetched by the
                // post-transfer head walk.
                return false;
            }
            self.counters.resync_blocks += 1;
            self.counters.resync_bytes += block.byte_size();
        }
        self.adopt_block(p, now, me, block, Some(from), fx);
        self.recovery.close_if_reached(self.tree.head_height(), now, &mut self.counters);
        if me.index() == 0 {
            self.refresh_confirmed(p, now);
        }
        false
    }

    /// Serve `from` the block it asked for, if we hold it.
    fn on_block_request<P: ChainPlatform<Store = S>>(
        &self,
        me: NodeId,
        wanted: Hash256,
        from: NodeId,
        fx: &mut Effects<P::Event>,
    ) {
        if let Some(body) = self.bodies.get(&wanted) {
            let bytes = body.byte_size();
            let reply = P::sync(from, SyncMsg::Block { block: Arc::clone(body), from: me });
            fx.send(from.0, bytes, move |_at| reply);
        }
    }

    /// Serve `from` one state chunk after `after`, read from the live store;
    /// the first names this node's head height. The wire carries a 16-byte
    /// header and the pairs.
    fn on_state_request<P: ChainPlatform<Store = S>>(
        &mut self,
        p: &P,
        me: NodeId,
        from: NodeId,
        after: Option<&[u8]>,
        fx: &mut Effects<P::Event>,
    ) {
        let max_bytes = p.params().snapshot_chunk_bytes;
        let (entries, done) =
            self.state.store_mut().scan_range_chunk(after, max_bytes).expect("own store readable");
        let bytes = chunk_wire_bytes(&entries);
        let entries = Arc::new(entries);
        let head = after.is_none().then(|| self.tree.head_height());
        let chunk = P::sync(from, SyncMsg::StateChunk { from: me, entries, done, head });
        fx.send(from.0, bytes, move |_at| chunk);
    }

    /// Apply a state chunk blind, in one batch, and ask for the next; after
    /// the last, hand over to [`ChainPlatform::state_landed`], or ask for
    /// the chain up to the height the first chunk named. A chunk that
    /// arrives with no transfer open is dropped.
    #[allow(clippy::too_many_arguments)]
    fn on_state_chunk<P: ChainPlatform<Store = S>>(
        &mut self,
        p: &P,
        me: NodeId,
        from: NodeId,
        entries: &[(Vec<u8>, Vec<u8>)],
        done: bool,
        head: Option<u64>,
        fx: &mut Effects<P::Event>,
    ) {
        if !self.recovery.snapshot_syncing {
            return;
        }
        if let Some(head) = head {
            self.served_height = head;
        }
        self.counters.snapshot_chunks += 1;
        self.counters.snapshot_bytes += chunk_wire_bytes(entries);
        let mut batch = bb_storage::WriteBatch::new();
        for (k, v) in entries {
            batch.put(k, v);
        }
        // A full store (Parity's capped memory) is the same OOM surface as
        // execution: the transfer goes on and the missing nodes resurface
        // through reads, not a panic. Any other refusal is a bug.
        match self.state.store_mut().apply_batch(batch) {
            Ok(()) | Err(KvError::OutOfSpace { .. }) => {}
            Err(e) => panic!("state store refused a snapshot chunk: {e}"),
        }
        let next = if !done {
            SyncMsg::StateRequest { from: me, after: entries.last().map(|(k, _)| k.clone()) }
        } else if p.state_landed(self) {
            // The chain came with the state: fetch whatever was mined
            // mid-transfer through the replay path.
            self.recovery.snapshot_syncing = false;
            SyncMsg::HeadRequest { from: me }
        } else {
            SyncMsg::ChainRequest { from: me, height: 1, last: self.served_height }
        };
        let ask = P::sync(from, next);
        fx.send(from.0, 64, move |_at| ask);
    }

    /// Serve `from` a bounded run of main-chain `(block, root)` pairs from
    /// `height` up to `last` (or this node's head, if lower).
    fn on_chain_request<P: ChainPlatform<Store = S>>(
        &self,
        p: &P,
        me: NodeId,
        from: NodeId,
        height: u64,
        last: u64,
        fx: &mut Effects<P::Event>,
    ) {
        let last = last.min(self.tree.head_height());
        let mut blocks = Vec::new();
        let mut bytes = 16u64;
        let mut h = height;
        while h <= last {
            let Some(id) = self.tree.main_chain_at(h) else { break };
            let (Some(body), Some(&root)) = (self.bodies.get(&id), self.roots.get(&id)) else {
                break;
            };
            bytes += body.byte_size() + 32;
            blocks.push((Arc::clone(body), root));
            h += 1;
            if bytes as usize >= p.params().snapshot_chunk_bytes {
                break;
            }
        }
        let done = h > last;
        let blocks = Arc::new(blocks);
        let chunk = P::sync(from, SyncMsg::ChainChunk { from: me, blocks, done });
        fx.send(from.0, bytes, move |_at| chunk);
    }

    /// Adopt a transferred chain run wholesale, re-executing nothing.
    /// Receipts are not reconstructed (the observer never snapshot-syncs in
    /// the experiments). After the last run, close the gap mined during the
    /// transfer through the head walk.
    #[allow(clippy::too_many_arguments)]
    fn on_chain_chunk<P: ChainPlatform<Store = S>>(
        &mut self,
        p: &P,
        now: SimTime,
        me: NodeId,
        from: NodeId,
        blocks: &[(Arc<Block>, Hash256)],
        done: bool,
        fx: &mut Effects<P::Event>,
    ) {
        if !self.recovery.snapshot_syncing {
            return;
        }
        self.counters.snapshot_chunks += 1;
        self.counters.snapshot_bytes +=
            16 + blocks.iter().map(|(b, _)| b.byte_size() + 32).sum::<u64>();
        for (block, root) in blocks {
            let id = block.id();
            self.tree.insert(id, block.header.parent, block.header.difficulty);
            self.bodies.insert(id, Arc::clone(block));
            self.roots.insert(id, *root);
            self.receipts.insert(id, Vec::new());
            for tx in &block.txs {
                self.seen.insert(p.txs().index(&tx.id()));
            }
        }
        if !done {
            let height = self.tree.head_height() + 1;
            let next = SyncMsg::ChainRequest { from: me, height, last: self.served_height };
            let ask = P::sync(from, next);
            fx.send(from.0, 64, move |_at| ask);
            return;
        }
        self.state.set_root(self.roots[&self.tree.head()]);
        self.recovery.snapshot_syncing = false;
        self.prune_main_chain(p);
        self.recovery.close_if_reached(self.tree.head_height(), now, &mut self.counters);
        let ask = P::sync(from, SyncMsg::HeadRequest { from: me });
        fx.send(from.0, 64, move |_at| ask);
        if me.index() == 0 {
            self.refresh_confirmed(p, now);
        }
    }

    /// Advance the observer's (node 0) confirmation log. Only lane-0 events
    /// can change node 0's tree, so this runs only on lane 0.
    pub fn refresh_confirmed<P: ChainPlatform<Store = S>>(&mut self, p: &P, now: SimTime) {
        let upto = self.tree.confirmed_height(p.params().confirm_depth);
        while self.confirmed_height < upto {
            let h = self.confirmed_height + 1;
            let Some(id) = self.tree.main_chain_at(h) else {
                break;
            };
            // Only blocks whose bodies and receipts node 0 holds.
            let (Some(body), Some(receipts)) = (self.bodies.get(&id), self.receipts.get(&id))
            else {
                break;
            };
            self.confirmed.push(BlockSummary {
                id,
                height: h,
                proposer: body.header.proposer,
                confirmed_at_us: now.as_micros(),
                txs: receipts.clone(),
            });
            self.confirmed_height = h;
        }
    }

    /// `getLatestBlock(h)` on the observer.
    pub fn confirmed_blocks_since(&self, height: u64) -> Vec<BlockSummary> {
        self.confirmed.iter().filter(|b| b.height > height).cloned().collect()
    }

    /// Carry the observer's log over a restart: it is driver-side
    /// bookkeeping, not node memory.
    pub fn take_confirmed_from(&mut self, old: &mut Self) {
        self.confirmed = std::mem::take(&mut old.confirmed);
        self.confirmed_height = old.confirmed_height;
    }

    /// Answer a read-only query against current or historical state.
    pub fn query<P: ChainPlatform<Store = S>>(
        &mut self,
        p: &P,
        q: &Query,
    ) -> Result<QueryResult, QueryError> {
        let params = p.params();
        match q {
            Query::BlockTxs { height } => {
                let id = self.tree.main_chain_at(*height).ok_or(QueryError::NotFound)?;
                let body = self.bodies.get(&id).ok_or(QueryError::NotFound)?;
                let (base, per_tx) = params.block_scan_cost_us;
                let cost = SimDuration::from_micros(base + per_tx * body.txs.len() as u64);
                Ok(QueryResult::block_txs(body, cost))
            }
            Query::AccountAtBlock { account, height } => {
                let id = self.tree.main_chain_at(*height).ok_or(QueryError::NotFound)?;
                let root = *self.roots.get(&id).ok_or(QueryError::NotFound)?;
                let acct = self
                    .state
                    .account_at(root, account)
                    .map_err(|e| QueryError::Contract(e.to_string()))?;
                Ok(QueryResult {
                    data: acct.balance.to_le_bytes().to_vec(),
                    server_cost: params.account_read_cost,
                })
            }
            Query::Contract { address, payload } => {
                // Read-only execution on the current head state.
                let root = self.roots[&self.tree.head()];
                self.state.set_root(root);
                let kp = bb_crypto::KeyPair::from_seed(0);
                let acct = self
                    .state
                    .account(&Address::from_public_key(&kp.public()))
                    .map_err(|e| QueryError::Contract(e.to_string()))?;
                let tx = Transaction::signed(&kp, acct.nonce, *address, 0, payload.clone());
                let height = self.tree.head_height();
                let res = self
                    .state
                    .apply_transaction(&tx, height, &params.vm, params.tx_gas_limit)
                    .map_err(|e| QueryError::Contract(e.to_string()))?;
                // Roll the state change back: queries are not transactions.
                self.state.set_root(root);
                if !res.success {
                    return Err(QueryError::Contract(
                        res.error.unwrap_or_else(|| "reverted".into()),
                    ));
                }
                Ok(QueryResult {
                    data: res.output,
                    server_cost: params.costs.exec_time(res.gas_used),
                })
            }
        }
    }

    /// This node's main chain, genesis excluded, for the safety checker.
    pub fn committed_chain(&self) -> Vec<ChainEntry> {
        let mut out = Vec::new();
        for h in 1..=self.tree.head_height() {
            let Some(id) = self.tree.main_chain_at(h) else { break };
            let Some(body) = self.bodies.get(&id) else { break };
            out.push(ChainEntry {
                height: h,
                id,
                parent: body.header.parent,
                // `roots` is authoritative: setup re-commits state without
                // re-hashing headers (contract deploys, direct execution).
                state_root: self.roots.get(&id).copied().unwrap_or(body.header.state_root),
            });
        }
        out
    }

    /// Where this node stands: its head and the state root sealed at it.
    pub fn tip(&self) -> (Hash256, Hash256) {
        let head = self.tree.head();
        (head, self.roots[&head])
    }

    /// Setup-time fast path, run on the observer (node 0) only: append one
    /// block of already-signed transactions to the head, bypassing consensus
    /// and the pool. Every other node then takes the result through
    /// [`Self::copy_preload_from`].
    pub fn preload_block<P: ChainPlatform<Store = S>>(
        &mut self,
        p: &P,
        now: SimTime,
        txs: &[Arc<Transaction>],
    ) {
        let params = p.params();
        let parent = self.tree.head();
        let height = self.tree.head_height() + 1;
        self.state.set_root(self.roots[&parent]);
        let receipts: Vec<(TxId, bool)> = txs
            .iter()
            .map(|tx| {
                let res =
                    self.state.apply_transaction(tx, height, &params.vm, params.tx_gas_limit);
                (tx.id(), res.is_ok_and(|r| r.success))
            })
            .collect();
        let header = BlockHeader {
            parent,
            height,
            timestamp_us: now.as_micros(),
            tx_root: merkle_root(&txs.iter().map(|t| t.id().0).collect::<Vec<_>>()),
            state_root: self.state.root(),
            proposer: NodeId(0),
            difficulty: P::DIFFICULTY,
            round: 0,
        };
        let block = Arc::new(Block { header, txs: txs.to_vec() });
        let id = block.id();
        p.seal(&mut self.state, &id, &block).expect("setup store healthy");
        self.roots.insert(id, self.state.root());
        self.bodies.insert(id, block);
        self.tree.insert(id, parent, P::DIFFICULTY);
        self.pruned.insert(id);
        self.confirmed.push(BlockSummary {
            id,
            height,
            proposer: NodeId(0),
            confirmed_at_us: now.as_micros(),
            txs: receipts.clone(),
        });
        self.confirmed_height = height;
        self.receipts.insert(id, receipts);
    }

    /// Become `src` as far as its [`Self::preload_block`]s went: a copy of
    /// exactly the fields they write, bar the observer's log. `before` is
    /// `src`'s [`Self::tip`] from before its first preloaded block; a node
    /// that is not still there is no twin of `src`, and overwriting it
    /// would hide whatever moved it.
    pub fn copy_preload_from(&mut self, src: &Self, before: (Hash256, Hash256))
    where
        S: Clone,
    {
        assert_eq!(
            self.tip(),
            before,
            "preload after replicas diverged: this node's (head, state root) is not node 0's \
             from before the preload"
        );
        self.state = src.state.clone();
        self.tree = src.tree.clone();
        self.bodies = src.bodies.clone();
        self.roots = src.roots.clone();
        self.receipts = src.receipts.clone();
        self.pruned = src.pruned.clone();
    }

    /// Execute one transaction synchronously on the head state and commit it
    /// as the new head state (the micro-benchmark path).
    pub fn execute_direct<P: ChainPlatform<Store = S>>(
        &mut self,
        p: &P,
        tx: &Transaction,
    ) -> DirectExec {
        let costs = &p.params().costs;
        let head = self.tree.head();
        self.state.set_root(self.roots[&head]);
        let height = self.tree.head_height();
        let res = match self.state.apply_transaction(tx, height, &p.params().vm, u64::MAX / 2) {
            Ok(res) => res,
            Err(e) => {
                return DirectExec {
                    success: false,
                    duration: costs.sig_verify,
                    gas_used: 0,
                    modeled_mem: 0,
                    output: Vec::new(),
                    error: Some(e.to_string()),
                };
            }
        };
        // Seal the execution as the new head state. A store out of capacity
        // fails here and the execution is reported as an out-of-space
        // failure — where Parity's memory ceiling bites on IOHeavy.
        let body = Arc::clone(&self.bodies[&head]);
        let (success, error) = match p.seal(&mut self.state, &head, &body) {
            Ok(()) => {
                self.roots.insert(head, self.state.root());
                (res.success, res.error)
            }
            Err(e) => (false, Some(e.to_string())),
        };
        DirectExec {
            success,
            duration: costs.sig_verify + costs.exec_time(res.gas_used),
            gas_used: res.gas_used,
            modeled_mem: costs.modeled_mem(res.vm_peak_mem),
            output: res.output,
            error,
        }
    }

    /// Fold this node into the run-wide stats: its counters and CPU series
    /// (with `net`, its outbound network series) by the shared policy, plus
    /// the store and trie counters every account-model node has.
    pub fn fold_into(&self, stats: &mut PlatformStats, nodes: u32, net: &[f64]) {
        stats.fold_node(nodes, &self.counters, &self.cpu.utilisation_series(), net);
        let store = self.state.store().stats();
        stats.disk_bytes += store.disk_bytes;
        stats.batch_put_count += store.batch_writes;
        stats.bytes_compacted += store.bytes_compacted;
        stats.storage_bytes_written += store.bytes_written;
        stats.storage_logical_bytes += store.logical_bytes;
        let (hits, misses) = self.state.trie_cache_stats();
        stats.trie_cache_hits += hits;
        stats.trie_cache_misses += misses;
        let (flushed, dropped) = self.state.trie_flush_stats();
        stats.state_nodes_flushed += flushed;
        stats.state_nodes_dropped += dropped;
    }

    /// `(main-chain length, transactions in the observer's confirmed log)`.
    pub fn observer_totals(&self) -> (u64, u64) {
        (self.tree.main_chain_len(), self.confirmed.iter().map(|b| b.txs.len() as u64).sum())
    }
}

#[cfg(test)]
mod tests {
    //! The node driven by hand-built blocks: no engine, no network.
    use super::*;
    use bb_crypto::KeyPair;
    use bb_storage::MemStore;

    const EVICT_BLOCKS: u64 = 2;

    struct TestCtx(ChainParams, BlockOutcomes, TxTable);

    #[derive(Debug)]
    enum TestEvent {
        Sync(NodeId, SyncMsg),
    }

    impl ChainPlatform for TestCtx {
        type Store = MemStore;
        type Event = TestEvent;
        const DIFFICULTY: u64 = 1;

        fn params(&self) -> &ChainParams {
            &self.0
        }
        fn params_mut(&mut self) -> &mut ChainParams {
            &mut self.0
        }
        fn outcomes(&self) -> Option<&BlockOutcomes> {
            Some(&self.1)
        }
        fn txs(&self) -> &TxTable {
            &self.2
        }
        fn txs_mut(&mut self) -> &mut TxTable {
            &mut self.2
        }
        fn seal(
            &self,
            state: &mut AccountState<MemStore>,
            _id: &Hash256,
            _block: &Block,
        ) -> Result<(), KvError> {
            state.commit_block()
        }
        fn already_known(has_body: bool, has_root: bool) -> bool {
            has_body && has_root
        }
        fn catch_up_charge(serial_us: u64, _txs: usize) -> SimDuration {
            SimDuration::from_micros(serial_us)
        }
        fn sync(to: NodeId, msg: SyncMsg) -> TestEvent {
            TestEvent::Sync(to, msg)
        }
        fn state_landed(&self, _node: &mut ChainNode<MemStore>) -> bool {
            false
        }
    }

    fn ctx() -> TestCtx {
        let costs = EvmCosts::ethereum();
        let params = ChainParams {
            nodes: 2,
            vm: vm_for(&costs, 32 << 30),
            costs,
            max_txs_per_block: 100,
            block_gas_limit: 12_000_000,
            tx_gas_limit: 1_000_000,
            pool_evict_blocks: EVICT_BLOCKS,
            confirm_depth: 2,
            snapshot_sync_blocks: 24,
            snapshot_chunk_bytes: 512,
            build_tx_cost: SimDuration::ZERO,
            block_scan_cost_us: (20, 4),
            account_read_cost: SimDuration::from_micros(60),
            deploys: Vec::new(),
            crashed: vec![false; 2],
        };
        TestCtx(params, BlockOutcomes::default(), TxTable::default())
    }

    fn node(p: &TestCtx) -> ChainNode<MemStore> {
        ChainNode::at_genesis(p, MemStore::new(), CpuMeter::new(8))
    }

    /// A value transfer from funded client `seed`, entered in `p`'s table.
    fn transfer(p: &mut TestCtx, seed: u64, nonce: u64) -> Arc<Transaction> {
        let to = Address::from_index(9000 + seed);
        let tx = Transaction::signed(&KeyPair::from_seed(seed), nonce, to, 1, Vec::new());
        p.2.intern(tx.id());
        Arc::new(tx)
    }

    fn enqueue(p: &TestCtx, n: &mut ChainNode<MemStore>, tx: &Arc<Transaction>) -> bool {
        n.enqueue(Arc::clone(tx), p.2.index(&tx.id()))
    }

    fn pooled(p: &TestCtx, n: &ChainNode<MemStore>, tx: &Arc<Transaction>) -> bool {
        n.pooled.contains(p.2.index(&tx.id()))
    }

    #[test]
    fn tx_table_pool_counts_each_index_once_and_keeps_its_latest_admission() {
        let mut pooled = Pooled::default();
        pooled.admit(70, 3);
        pooled.admit(70, 5);
        pooled.admit(2, 4);
        assert_eq!(pooled.len(), 2);
        assert_eq!((pooled.admitted_at(70), pooled.admitted_at(2)), (5, 4));
        pooled.remove(70);
        pooled.remove(70);
        pooled.remove(900);
        assert_eq!(pooled.len(), 1);
        assert!(!pooled.contains(70) && pooled.contains(2));
        pooled.clear();
        assert_eq!(pooled.len(), 0);
        assert!(!pooled.contains(2));
    }

    const ME: NodeId = NodeId(0);
    const PEER: NodeId = NodeId(1);

    /// Have `miner` (a peer's node) mine the given transactions on its head.
    fn mine(
        p: &TestCtx,
        miner: &mut ChainNode<MemStore>,
        at_secs: u64,
        txs: &[Arc<Transaction>],
    ) -> Arc<Block> {
        for tx in txs {
            assert!(enqueue(p, miner, tx));
        }
        let now = SimTime::from_secs(at_secs);
        let block = Arc::new(miner.build_block(p, now, PEER, 0));
        assert_eq!(block.txs.len(), txs.len(), "miner did not include what it was given");
        let mut fx = Effects::detached(PEER.0, now);
        miner.adopt_block(p, now, PEER, Arc::clone(&block), None, &mut fx);
        block
    }

    fn deliver(p: &TestCtx, n: &mut ChainNode<MemStore>, block: &Arc<Block>) -> Vec<TestEvent> {
        let now = SimTime::from_secs(100);
        let mut fx = Effects::detached(ME.0, now);
        let msg = SyncMsg::Block { block: Arc::clone(block), from: PEER };
        assert!(!n.on_sync(p, now, ME, msg, &mut fx), "no snapshot transfer expected");
        fx.take_sends().into_iter().map(|(_, _, event)| event).collect()
    }

    #[test]
    fn heavier_side_branch_reorgs_the_pool() {
        let mut p = ctx();
        let [tx_a, tx_b, tx_c] = [1, 2, 3].map(|seed| transfer(&mut p, seed, 0));
        let a1 = mine(&p, &mut node(&p), 1, &[Arc::clone(&tx_a)]);
        let mut fork_miner = node(&p);
        let b1 = mine(&p, &mut fork_miner, 2, &[Arc::clone(&tx_b)]);
        let b2 = mine(&p, &mut fork_miner, 3, &[Arc::clone(&tx_c)]);

        let mut n = node(&p);
        for tx in [&tx_a, &tx_b, &tx_c] {
            assert!(enqueue(&p, &mut n, tx));
        }
        // A1 becomes the head: its transaction leaves the pool.
        deliver(&p, &mut n, &a1);
        assert_eq!(n.tree.head(), a1.id());
        assert!(!pooled(&p, &n, &tx_a));
        // B1 ties and loses: a side block's transactions are never pruned.
        deliver(&p, &mut n, &b1);
        assert_eq!(n.tree.head(), a1.id());
        assert!(pooled(&p, &n, &tx_b), "side-block transaction was pruned");
        // B2 makes the side branch heavier: reorg. The abandoned branch's
        // transaction returns to the pool, the new main chain's leave it.
        deliver(&p, &mut n, &b2);
        assert_eq!(n.tree.head(), b2.id());
        assert!(pooled(&p, &n, &tx_a), "abandoned transaction not re-adopted");
        assert!(!pooled(&p, &n, &tx_b) && !pooled(&p, &n, &tx_c));
        assert_eq!(n.pool_len(), 1);
        // And it is minable again on the new head.
        let next = n.build_block(&p, SimTime::from_secs(101), ME, 0);
        assert_eq!(next.header.parent, b2.id());
        assert_eq!(next.txs.iter().map(|t| t.id()).collect::<Vec<_>>(), [tx_a.id()]);
    }

    #[test]
    fn orphan_requests_its_parent_once_then_descendants_execute() {
        let mut p = ctx();
        let (t0, t1) = (transfer(&mut p, 1, 0), transfer(&mut p, 1, 1));
        let mut miner = node(&p);
        let b1 = mine(&p, &mut miner, 1, &[t0]);
        let b2 = mine(&p, &mut miner, 2, &[t1]);

        let mut n = node(&p);
        let sent = deliver(&p, &mut n, &b2);
        assert!(
            matches!(
                sent.as_slice(),
                [TestEvent::Sync(PEER, SyncMsg::BlockRequest { wanted, from: ME })]
                    if *wanted == b1.id()
            ),
            "orphan must emit exactly one request for its parent: {sent:?}"
        );
        assert!(!n.roots.contains_key(&b2.id()), "orphan executed without its parent");
        assert_eq!(n.tree.head_height(), 0);

        // The parent arrives: it and the stored descendant both execute.
        assert!(deliver(&p, &mut n, &b1).is_empty());
        assert_eq!(n.tree.head(), b2.id());
        for block in [&b1, &b2] {
            assert_eq!(n.roots[&block.id()], block.header.state_root);
            assert_eq!(n.receipts[&block.id()], [(block.txs[0].id(), true)]);
        }
        // The peer serves the request from its own bodies.
        let now = SimTime::from_secs(100);
        let mut fx = Effects::detached(PEER.0, now);
        miner.on_sync(&p, now, PEER, SyncMsg::HeadRequest { from: ME }, &mut fx);
        let served = fx.take_sends();
        assert!(matches!(
            served.as_slice(),
            [(0, _, TestEvent::Sync(ME, SyncMsg::Block { block, from: PEER }))] if block.id() == b2.id()
        ));
    }

    #[test]
    fn future_nonced_entry_ages_out_and_sender_recovers() {
        let mut p = ctx();
        // Nonce 5 with no predecessors: blocked forever.
        let (stuck, valid) = (transfer(&mut p, 1, 5), transfer(&mut p, 1, 0));
        let mut n = node(&p);
        assert!(enqueue(&p, &mut n, &stuck));
        let build = |n: &mut ChainNode<MemStore>| {
            let now = SimTime::from_secs(1 + n.tree.head_height());
            let block = Arc::new(n.build_block(&p, now, ME, 0));
            let mut fx = Effects::detached(ME.0, now);
            n.adopt_block(&p, now, ME, Arc::clone(&block), None, &mut fx);
            block
        };
        // Admitted at height 0: still re-queued while the gap is no older
        // than the horizon...
        for _ in 0..EVICT_BLOCKS {
            assert!(build(&mut n).txs.is_empty());
            assert_eq!(n.pool_len(), 1, "evicted before the horizon");
        }
        // ...and evicted by the first block past it.
        assert!(build(&mut n).txs.is_empty());
        assert_eq!(n.pool_len(), 0, "future-nonced entry still pins the pool");
        // The sender's next valid transaction is admitted and mined.
        assert!(enqueue(&p, &mut n, &valid));
        assert_eq!(build(&mut n).txs.iter().map(|t| t.id()).collect::<Vec<_>>(), [valid.id()]);
    }

    #[test]
    fn out_of_nonce_order_gossip_still_fills_a_block() {
        let mut p = ctx();
        let txs = [2, 0, 1, 4, 3].map(|nonce| transfer(&mut p, 1, nonce));
        let mut n = node(&p);
        for tx in &txs {
            assert!(enqueue(&p, &mut n, tx));
        }
        let block = n.build_block(&p, SimTime::from_secs(1), ME, 0);
        let nonces: Vec<u64> = block.txs.iter().map(|t| t.nonce).collect();
        assert_eq!(nonces, [0, 1, 2, 3, 4], "one sender's transactions must all fit, in order");
        assert_eq!(n.pool_len(), 0);
    }

    /// A block at a deploy height gets its contracts on top after its
    /// seal, which no trie delta records: every validator runs it without
    /// looking it up. The next block is looked up: the first validator runs
    /// it, and the second installs it.
    #[test]
    fn outcome_of_a_block_at_a_deploy_height_is_never_looked_up() {
        let mut p = ctx();
        let (addr, code) = (Address::from_index(4242), bb_contracts::donothing::bundle().svm);
        p.0.deploys.push((1, addr, code.clone()));
        let (t0, t1) = (transfer(&mut p, 1, 0), transfer(&mut p, 1, 1));
        let mut miner = node(&p);
        let b1 = mine(&p, &mut miner, 1, &[t0]);
        // As `deploy` does to every node's head at set-up.
        miner.install_contract(&p, &addr, &code);
        let b2 = mine(&p, &mut miner, 2, &[t1]);
        let mut validators = [node(&p), node(&p)];
        for n in &mut validators {
            deliver(&p, n, &b1);
            deliver(&p, n, &b2);
        }
        let log = p.1.lookups.lock().unwrap().clone();
        let seen: Vec<_> = log.iter().map(|l| (l.1, l.2, l.3)).collect();
        assert_eq!(seen, [(b2.id(), false, false), (b2.id(), true, true)]);
        for n in &mut validators {
            assert_eq!(n.tip(), miner.tip());
            assert_eq!(n.roots[&b1.id()], miner.roots[&b1.id()], "no contract at height 1");
        }
    }

    #[test]
    fn deep_gap_opens_a_snapshot_transfer() {
        let p = ctx();
        let mut miner = node(&p);
        let gap = p.0.snapshot_sync_blocks + 1;
        let head = (1..=gap).map(|h| mine(&p, &mut miner, h, &[])).last().expect("gap > 0");
        // A restarted node learns of a gap deeper than the replay threshold.
        let mut n = node(&p);
        n.recovery.restarted_at = Some(SimTime::from_secs(99));
        let now = SimTime::from_secs(100);
        let mut fx = Effects::detached(ME.0, now);
        let msg = SyncMsg::Block { block: head, from: PEER };
        assert!(n.on_sync(&p, now, ME, msg, &mut fx), "deep gap must open a transfer");
        let sent = fx.take_sends();
        assert!(matches!(
            sent.as_slice(),
            [(1, _, TestEvent::Sync(PEER, SyncMsg::StateRequest { from: ME, after: None }))]
        ));
        assert!(n.recovery.snapshot_syncing);
    }

    /// `snapshot_bytes` counts what the wire carried: the chunk's 16-byte
    /// header and its pairs, exactly the bytes the serving peer sent.
    #[test]
    fn state_chunk_counts_its_wire_bytes() {
        let p = ctx();
        let mut peer = node(&p);
        let mut n = node(&p);
        n.recovery.snapshot_syncing = true;
        let now = SimTime::from_secs(100);
        let mut fx = Effects::detached(PEER.0, now);
        peer.on_sync(&p, now, PEER, SyncMsg::StateRequest { from: ME, after: None }, &mut fx);
        let mut served = fx.take_sends();
        assert_eq!(served.len(), 1, "the peer must serve exactly one chunk: {served:?}");
        let (lane, wire_bytes, TestEvent::Sync(to, chunk)) = served.pop().expect("one send");
        assert_eq!((lane, to), (ME.0, ME));
        let SyncMsg::StateChunk { entries, done: false, .. } = &chunk else {
            panic!("1024 funded accounts overflow one 512-byte chunk: {chunk:?}");
        };
        let last = entries.last().map(|(k, _)| k.clone());
        let mut fx = Effects::detached(ME.0, now);
        n.on_sync(&p, now, ME, chunk, &mut fx);
        assert_eq!((n.counters.snapshot_chunks, n.counters.snapshot_bytes), (1, wire_bytes));
        let sent = fx.take_sends();
        assert!(
            matches!(
                sent.as_slice(),
                [(1, 64, TestEvent::Sync(PEER, SyncMsg::StateRequest { from: ME, after }))]
                    if *after == last
            ),
            "the next chunk must be asked after the last key applied: {sent:?}"
        );
    }
}
