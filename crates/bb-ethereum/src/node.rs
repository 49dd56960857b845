//! The account-model fork-choice node, shared by Ethereum and Parity.
//!
//! The paper's layering says the two platforms differ in consensus only:
//! both keep accounts in a Merkle-Patricia trie, run the same bytecode and
//! follow the heaviest chain. [`ChainNode`] is that common node — state,
//! block tree with bodies/roots/receipts, the transaction pool with its
//! future-nonce age-out, the observer's confirmed log, and the post-restart
//! recovery window — and a platform plugs its differences in through
//! [`ChainPlatform`]: how a block is sealed, the header's difficulty, two
//! behavioural quirks that byte-identity pins, and the constructors of the
//! four sync messages the node sends. Who proposes a block and when (PoW
//! race, PoA step), transaction admission, and the snapshot wire protocol
//! stay with the consensus, plugged into [`crate::account_chain`].
//!
//! Everything here is generic and statically dispatched: these handlers are
//! the hot loop of every Ethereum and Parity run.

use crate::config::EvmCosts;
use crate::state::{AccountState, TxInvalid};
use bb_consensus::pow::{BlockTree, InsertOutcome};
use bb_crypto::{DigestMap, DigestSet, Hash256};
use bb_merkle::merkle_root;
use bb_sim::{CpuMeter, Effects, SimDuration, SimTime};
use bb_storage::{KvError, KvStore};
use bb_svm::{Vm, VmConfig};
use bb_types::{
    Address, Block, BlockHeader, BlockSummary, Encoder, NodeId, Transaction, TxId,
};
use blockbench::connector::{
    ChainEntry, DirectExec, NodeCounters, PlatformStats, Query, QueryError, QueryResult,
    RecoveryWindow,
};
use blockbench::contract::SvmContract;
use std::collections::hash_map::Entry;
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
    /// overlay, and `execute_direct` reports it.
    fn seal(
        &self,
        state: &mut AccountState<Self::Store>,
        id: &Hash256,
        block: &Block,
    ) -> Result<(), KvError>;

    /// Is an arriving block one this node need not look at again, given
    /// whether it already holds the body and the executed post-state root?
    fn already_known(has_body: bool, has_root: bool) -> bool;

    /// CPU charged for executing a stored orphan once its parent connects
    /// (`serial_us` is the block's serial execution time).
    fn catch_up_charge(serial_us: u64, txs: usize) -> SimDuration;

    /// The event that delivers `msg` to `to`.
    fn sync(to: NodeId, msg: SyncMsg) -> Self::Event;
    /// The event by which `from` asks `to` to start a snapshot transfer (the
    /// transfer protocol itself is the platform's).
    fn snapshot_request(to: NodeId, from: NodeId) -> Self::Event;
}

/// The block-sync messages nodes exchange, handled by [`ChainNode::on_sync`].
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
    /// Pending transactions in arrival order. Removal is lazy: an entry
    /// counts only while `pool_admitted` still holds its id.
    pool: VecDeque<Arc<Transaction>>,
    /// The pooled transaction ids, each with the head height at admission —
    /// the age-out clock for future-nonced entries
    /// (`ChainParams::pool_evict_blocks`).
    pool_admitted: DigestMap<TxId, u64>,
    /// Everything ever seen (suppresses gossip loops).
    pub seen: DigestSet<TxId>,
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
            pool_admitted: DigestMap::default(),
            seen: DigestSet::default(),
            pruned: DigestSet::from_iter([id]),
            cpu,
            recovery: RecoveryWindow::default(),
            counters: NodeCounters::default(),
            confirmed: Vec::new(),
            confirmed_height: 0,
        }
    }

    /// Replace the chain with one recovered from a durable store and move
    /// the state to its head. The pool is volatile and resets.
    pub fn install_chain(
        &mut self,
        tree: BlockTree,
        bodies: DigestMap<Hash256, Arc<Block>>,
        roots: DigestMap<Hash256, Hash256>,
    ) {
        // Receipts are volatile; recovered blocks keep empty ones. (The
        // observer's confirmed log is kept separately.)
        self.receipts = bodies.keys().map(|id| (*id, Vec::new())).collect();
        self.seen = bodies.values().flat_map(|b| &b.txs).map(|tx| tx.id()).collect();
        self.state.set_root(roots[&tree.head()]);
        self.tree = tree;
        self.bodies = bodies;
        self.roots = roots;
        self.clear_pool();
        self.pruned.clear();
        self.prune_main_chain();
    }

    /// Admit a transaction to the pool; `false` if it was seen before.
    pub fn enqueue(&mut self, tx: Arc<Transaction>) -> bool {
        if !self.seen.insert(tx.id()) {
            return false;
        }
        self.pool_admitted.insert(tx.id(), self.tree.head_height());
        self.pool.push_back(tx);
        true
    }

    /// Transactions awaiting inclusion.
    pub fn pool_len(&self) -> usize {
        self.pool_admitted.len()
    }

    fn clear_pool(&mut self) {
        self.pool.clear();
        self.pool_admitted.clear();
    }

    /// The process died. Amnesia: the pool, an in-flight snapshot transfer,
    /// and the trie's uncommitted overlay and caches go with it. The store
    /// (and the in-memory chain copies a gentle `Recover` resurrects) stay.
    pub fn crash(&mut self) {
        self.clear_pool();
        self.recovery.crash();
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
        let mut future: BTreeMap<Address, BTreeMap<u64, Arc<Transaction>>> = BTreeMap::new();
        'fill: while included.len() < params.max_txs_per_block {
            let Some(tx) = self.pool.pop_front() else {
                break;
            };
            if !self.pool_admitted.contains_key(&tx.id()) {
                continue; // pruned
            }
            // Try this transaction, then any buffered successors it unblocks.
            let mut next = Some(tx);
            while let Some(tx) = next.take() {
                match self.state.apply_transaction(&tx, height, &params.vm, params.tx_gas_limit) {
                    Ok(res) => {
                        gas_total += res.gas_used.max(1000);
                        cpu_time += params.costs.exec_time(res.gas_used.max(1000))
                            + params.build_tx_cost;
                        self.pool_admitted.remove(&tx.id());
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
                        future.entry(tx.from).or_default().insert(got, tx);
                    }
                    // Stale or broken: drop.
                    Err(_) => {
                        self.pool_admitted.remove(&tx.id());
                    }
                }
            }
        }
        // Still-blocked transactions wait in the pool for a later block —
        // unless their nonce gap has persisted past the eviction horizon, in
        // which case the predecessor is presumed lost (or never existed: a
        // nonce-gap flood) and the entry ages out instead of re-queueing
        // (and, on a bounded pool, pinning it) forever.
        for tx in future.into_values().flat_map(BTreeMap::into_values) {
            // Only pooled transactions were tried, and a held one stays pooled.
            let admitted = self.pool_admitted[&tx.id()];
            if height.saturating_sub(admitted) > params.pool_evict_blocks {
                self.pool_admitted.remove(&tx.id());
            } else {
                self.pool.push_front(tx);
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
    /// another as geth and Parity do, and seal the result. The charge is the
    /// serial execution time, except that a stored orphan catching up is
    /// billed per the platform. A block at a deploy height gets its
    /// contracts on top, as set-up gave them to node 0, so re-executing the
    /// set-up chain (a Parity restart) agrees.
    fn execute_and_seal<P: ChainPlatform<Store = S>>(
        &mut self,
        p: &P,
        now: SimTime,
        parent_root: Hash256,
        id: Hash256,
        block: &Block,
        catching_up: bool,
    ) {
        let params = p.params();
        self.state.set_root(parent_root);
        let outcome = self.state.execute_block_serial(
            &block.txs,
            block.header.height,
            &params.vm,
            params.tx_gas_limit,
            &|gas| params.costs.exec_time(gas.max(1000)).as_micros(),
        );
        self.seen.extend(block.txs.iter().map(|tx| tx.id()));
        self.counters.exec_serial_us += outcome.serial_us;
        let charge = if catching_up {
            P::catch_up_charge(outcome.serial_us, block.txs.len())
        } else {
            SimDuration::from_micros(outcome.serial_us)
        };
        self.cpu.charge(now, charge);
        let _ = p.seal(&mut self.state, &id, block);
        for (_, address, code) in params.deploys.iter().filter(|d| d.0 == block.header.height) {
            self.state.install_contract(address, code).expect("set-up contracts fit");
            let _ = p.seal(&mut self.state, &id, block);
        }
        self.roots.insert(id, self.state.root());
        self.receipts.insert(id, outcome.receipts);
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

    /// Validate (re-execute) and adopt a block into the tree. An orphan is
    /// stashed and its parent requested from `request_from`.
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
        let Some(&parent_root) = self.roots.get(&parent) else {
            // Orphan: stash in the tree and fetch the ancestor chain.
            self.tree.insert(id, parent, block.header.difficulty);
            self.bodies.insert(id, block);
            if let Some(from) = request_from {
                let ask = P::sync(from, SyncMsg::BlockRequest { wanted: parent, from: me });
                fx.send(from.0, 64, move |_at| ask);
            }
            return;
        };
        if !self.roots.contains_key(&id) {
            self.execute_and_seal(p, now, parent_root, id, &block, false);
        }
        let difficulty = block.header.difficulty;
        self.bodies.insert(id, block);
        let old_head = self.tree.head();
        if let InsertOutcome::NewHead { reorged: true } = self.tree.insert(id, parent, difficulty) {
            self.readopt_abandoned(old_head);
        }
        // Connecting this block may have connected stored orphan children.
        self.execute_connected_descendants(p, now, id);
        // Whatever the head is now, drop its branch's transactions from the
        // pool (after the reorg path above re-added the abandoned branch's).
        self.prune_main_chain();
    }

    /// Remove the transactions of blocks that joined this node's main chain
    /// from its pool. Walks head→genesis, stopping at the first block
    /// already pruned, so each block is processed once; side blocks are
    /// deliberately never pruned here.
    pub fn prune_main_chain(&mut self) {
        let mut cursor = self.tree.head();
        while self.pruned.insert(cursor) {
            let Some(body) = self.bodies.get(&cursor) else {
                break;
            };
            for tx in &body.txs {
                self.pool_admitted.remove(&tx.id());
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
        now: SimTime,
        from_id: Hash256,
    ) {
        let mut frontier = vec![from_id];
        while let Some(parent_id) = frontier.pop() {
            let Some(&parent_root) = self.roots.get(&parent_id) else {
                continue;
            };
            let mut children: Vec<(Hash256, Arc<Block>)> = self
                .bodies
                .iter()
                .filter(|(id, b)| b.header.parent == parent_id && !self.roots.contains_key(*id))
                .map(|(id, b)| (*id, Arc::clone(b)))
                .collect();
            children.sort_unstable_by_key(|(id, _)| *id);
            for (id, child) in children {
                self.execute_and_seal(p, now, parent_root, id, &child, true);
                frontier.push(id);
            }
        }
    }

    /// A reorg abandoned part of the old chain: re-adopt its transactions.
    fn readopt_abandoned(&mut self, old_head: Hash256) {
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
                if let Entry::Vacant(slot) = self.pool_admitted.entry(tx.id()) {
                    slot.insert(height);
                    self.pool.push_back(Arc::clone(tx));
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
            if self.recovery.snapshot_syncing {
                // The chain is about to be replaced wholesale by the
                // transfer; anything mined meanwhile is re-fetched by the
                // post-transfer head walk.
                return false;
            }
            if self.recovery.sync_target.is_none() {
                // First arrival after a restart is the head-request reply:
                // its height is the gap this node must close.
                let head = self.tree.head_height();
                self.recovery.sync_target = Some(block.header.height.max(head));
                if block.header.height.saturating_sub(head) > p.params().snapshot_sync_blocks {
                    // Too deep to replay block by block: fetch the peer's
                    // state snapshot in bounded chunks instead.
                    self.recovery.snapshot_syncing = true;
                    let ask = P::snapshot_request(from, me);
                    fx.send(from.0, 64, move |_at| ask);
                    return true;
                }
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
                let mut enc = Encoder::with_capacity(body.txs.len() * 48 + 4);
                enc.put_u32(body.txs.len() as u32);
                for tx in &body.txs {
                    enc.put_raw(tx.from.as_bytes()).put_raw(tx.to.as_bytes()).put_u64(tx.value);
                }
                let (base, per_tx) = params.block_scan_cost_us;
                let cost = SimDuration::from_micros(base + per_tx * body.txs.len() as u64);
                Ok(QueryResult { data: enc.finish(), server_cost: cost })
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

    struct TestCtx(ChainParams);

    #[derive(Debug)]
    enum TestEvent {
        Sync(NodeId, SyncMsg),
        SnapshotRequest(NodeId, NodeId),
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
        fn snapshot_request(to: NodeId, from: NodeId) -> TestEvent {
            TestEvent::SnapshotRequest(to, from)
        }
    }

    fn ctx() -> TestCtx {
        let costs = EvmCosts::ethereum();
        TestCtx(ChainParams {
            nodes: 2,
            vm: vm_for(&costs, 32 << 30),
            costs,
            max_txs_per_block: 100,
            block_gas_limit: 12_000_000,
            tx_gas_limit: 1_000_000,
            pool_evict_blocks: EVICT_BLOCKS,
            confirm_depth: 2,
            snapshot_sync_blocks: 24,
            build_tx_cost: SimDuration::ZERO,
            block_scan_cost_us: (20, 4),
            account_read_cost: SimDuration::from_micros(60),
            deploys: Vec::new(),
        })
    }

    fn node(p: &TestCtx) -> ChainNode<MemStore> {
        ChainNode::at_genesis(p, MemStore::new(), CpuMeter::new(8))
    }

    /// A value transfer from funded client `seed`.
    fn transfer(seed: u64, nonce: u64) -> Arc<Transaction> {
        let to = Address::from_index(9000 + seed);
        Arc::new(Transaction::signed(&KeyPair::from_seed(seed), nonce, to, 1, Vec::new()))
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
            assert!(miner.enqueue(Arc::clone(tx)));
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
        fx.take_sends(now).into_iter().map(|(_, _, event)| event).collect()
    }

    #[test]
    fn heavier_side_branch_reorgs_the_pool() {
        let p = ctx();
        let (tx_a, tx_b, tx_c) = (transfer(1, 0), transfer(2, 0), transfer(3, 0));
        let a1 = mine(&p, &mut node(&p), 1, &[Arc::clone(&tx_a)]);
        let mut fork_miner = node(&p);
        let b1 = mine(&p, &mut fork_miner, 2, &[Arc::clone(&tx_b)]);
        let b2 = mine(&p, &mut fork_miner, 3, &[Arc::clone(&tx_c)]);

        let mut n = node(&p);
        for tx in [&tx_a, &tx_b, &tx_c] {
            assert!(n.enqueue(Arc::clone(tx)));
        }
        // A1 becomes the head: its transaction leaves the pool.
        deliver(&p, &mut n, &a1);
        assert_eq!(n.tree.head(), a1.id());
        assert!(!n.pool_admitted.contains_key(&tx_a.id()));
        // B1 ties and loses: a side block's transactions are never pruned.
        deliver(&p, &mut n, &b1);
        assert_eq!(n.tree.head(), a1.id());
        assert!(n.pool_admitted.contains_key(&tx_b.id()), "side-block transaction was pruned");
        // B2 makes the side branch heavier: reorg. The abandoned branch's
        // transaction returns to the pool, the new main chain's leave it.
        deliver(&p, &mut n, &b2);
        assert_eq!(n.tree.head(), b2.id());
        assert!(n.pool_admitted.contains_key(&tx_a.id()), "abandoned transaction not re-adopted");
        assert!(!n.pool_admitted.contains_key(&tx_b.id()) && !n.pool_admitted.contains_key(&tx_c.id()));
        // And it is minable again on the new head.
        let next = n.build_block(&p, SimTime::from_secs(101), ME, 0);
        assert_eq!(next.header.parent, b2.id());
        assert_eq!(next.txs.iter().map(|t| t.id()).collect::<Vec<_>>(), [tx_a.id()]);
    }

    #[test]
    fn orphan_requests_its_parent_once_then_descendants_execute() {
        let p = ctx();
        let mut miner = node(&p);
        let b1 = mine(&p, &mut miner, 1, &[transfer(1, 0)]);
        let b2 = mine(&p, &mut miner, 2, &[transfer(1, 1)]);

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
        let served = fx.take_sends(now);
        assert!(matches!(
            served.as_slice(),
            [(0, _, TestEvent::Sync(ME, SyncMsg::Block { block, from: PEER }))] if block.id() == b2.id()
        ));
    }

    #[test]
    fn future_nonced_entry_ages_out_and_sender_recovers() {
        let p = ctx();
        let mut n = node(&p);
        // Nonce 5 with no predecessors: blocked forever.
        let stuck = transfer(1, 5);
        assert!(n.enqueue(Arc::clone(&stuck)));
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
        let valid = transfer(1, 0);
        assert!(n.enqueue(Arc::clone(&valid)));
        assert_eq!(build(&mut n).txs.iter().map(|t| t.id()).collect::<Vec<_>>(), [valid.id()]);
    }

    #[test]
    fn out_of_nonce_order_gossip_still_fills_a_block() {
        let p = ctx();
        let mut n = node(&p);
        for nonce in [2, 0, 1, 4, 3] {
            assert!(n.enqueue(transfer(1, nonce)));
        }
        let block = n.build_block(&p, SimTime::from_secs(1), ME, 0);
        let nonces: Vec<u64> = block.txs.iter().map(|t| t.nonce).collect();
        assert_eq!(nonces, [0, 1, 2, 3, 4], "one sender's transactions must all fit, in order");
        assert_eq!(n.pool_len(), 0);
    }

    #[test]
    fn crash_tears_a_snapshot_transfer() {
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
        let sent = fx.take_sends(now);
        assert!(matches!(sent.as_slice(), [(1, _, TestEvent::SnapshotRequest(PEER, ME))]));
        assert!(n.recovery.snapshot_syncing);
        // The crash takes the transfer with it and says so.
        n.crash();
        assert!(!n.recovery.snapshot_syncing, "flag latched across the crash");
        assert!(n.recovery.transfer_torn);
    }
}
