//! The Parity-like network world: proof of authority under [`AccountChain`].
//!
//! Every event names the authority it mutates and the confirmation log
//! lives with the observer (node 0). What is proof-of-authority here: the
//! step schedule, the signing admission queue and pool cap, a restart with
//! total amnesia, and state held resident in memory. Holding no durable
//! files, an authority is untouched by a torn WAL tail or a slow disk, and
//! an equivocating Aura authority is just a forked slot, which the
//! longest-chain rule already models: those faults change nothing here.

use crate::config::ParityConfig;
use bb_consensus::PoaSchedule;
use bb_crypto::Hash256;
use bb_ethereum::account_chain::{AccountChain, Consensus, Setup};
use bb_ethereum::node::{vm_for, ChainNode, ChainParams, ChainPlatform, SyncMsg};
use bb_ethereum::state::AccountState;
use bb_sim::{CpuMeter, Effects, ShardedWorld, SimDuration, SimRng, SimTime};
use bb_storage::{KvError, MemStore};
use bb_types::{Block, NodeId, Transaction, TxTable};
use std::sync::Arc;

/// Events of the Parity world.
#[derive(Debug, Clone)]
pub enum PoaEvent {
    /// An authority-round step boundary.
    Step {
        /// Step index.
        index: u64,
    },
    /// A transaction cleared a server's signature-verification queue.
    TxAdmit {
        /// Admitting server.
        to: NodeId,
        /// The transaction.
        tx: Arc<Transaction>,
        /// Its index in the world's [`TxTable`].
        index: u32,
        /// First hop (gossip to peers) or relayed.
        relayed: bool,
    },
    /// A sync message reached a node. A restarted authority's head request
    /// seeds the ancestor walk-back that re-downloads the whole chain
    /// (Parity's state is purely in-memory, so a restart recovers from
    /// genesis); a deeply lagged one takes a snapshot transfer instead.
    Sync {
        /// Receiving node.
        to: NodeId,
        /// The message.
        msg: SyncMsg,
    },
}

/// One Parity authority.
pub struct PoaNode {
    chain: ChainNode<MemStore>,
    /// Signature-verification pipeline state.
    admission_busy_until: SimTime,
    admission_backlog: usize,
}

/// Read-only context shared by every lane. [`ShardedWorld::route`] reads
/// its crash flags (`ChainParams::crashed`) to pick the authority lane for a
/// `Step` event.
pub struct PoaCtx {
    config: ParityConfig,
    params: ChainParams,
    schedule: PoaSchedule,
    txs: TxTable,
}

impl PoaCtx {
    fn step_authority(&self, index: u64) -> Option<NodeId> {
        let live: Vec<bool> = self.params.crashed.iter().map(|&c| !c).collect();
        self.schedule.authority_for_step_live(index, &live)
    }
}

/// What proof-of-authority plugs into the shared account-chain node.
impl ChainPlatform for PoaCtx {
    type Store = MemStore;
    type Event = PoaEvent;
    const DIFFICULTY: u64 = 1;

    fn params(&self) -> &ChainParams {
        &self.params
    }
    fn params_mut(&mut self) -> &mut ChainParams {
        &mut self.params
    }

    fn txs(&self) -> &TxTable {
        &self.txs
    }
    fn txs_mut(&mut self) -> &mut TxTable {
        &mut self.txs
    }

    /// No block records: nothing here is durable. A failed commit means the
    /// capped in-memory store is full — the arena keeps serving reads, so
    /// the chain limps on with unpersisted roots and the OOM surfaces
    /// through `execute_direct` and the memory counters, not a crash.
    ///
    /// So every authority runs every block (no `outcomes`): a refused run
    /// leaves the block's nodes in the arena and a prefix of its batch in
    /// the store, which installing another authority's trie delta cannot
    /// reproduce.
    fn seal(
        &self,
        state: &mut AccountState<MemStore>,
        _id: &Hash256,
        _block: &Block,
    ) -> Result<(), KvError> {
        state.commit_block()
    }

    /// A stored orphan (body, no root yet) that is delivered again gets
    /// another chance to connect, or re-requests its parent.
    fn already_known(has_body: bool, has_root: bool) -> bool {
        has_body && has_root
    }

    /// Catch-up keeps its historical flat per-transaction charge.
    fn catch_up_charge(_serial_us: u64, txs: usize) -> SimDuration {
        SimDuration::from_micros(100 * txs as u64)
    }

    fn sync(to: NodeId, msg: SyncMsg) -> PoaEvent {
        PoaEvent::Sync { to, msg }
    }

    /// No block records: the main chain follows as `(block, root)` chunks.
    fn state_landed(&self, _node: &mut ChainNode<MemStore>) -> bool {
        false
    }
}

/// Proof of authority: the sharded world of Parity authorities.
pub struct PoaWorld;

/// The Parity-like platform.
pub type ParityChain = AccountChain<PoaWorld>;

impl ShardedWorld for PoaWorld {
    type Event = PoaEvent;
    type Node = PoaNode;
    type Ctx = PoaCtx;

    fn route(ctx: &PoaCtx, event: &PoaEvent) -> u32 {
        match event {
            // A step fires on its authority's lane. If every authority is
            // crashed the event still needs a home: lane 0 keeps the round
            // ticking without producing.
            PoaEvent::Step { index } => ctx.step_authority(*index).map_or(0, |a| a.0),
            PoaEvent::TxAdmit { to, .. } | PoaEvent::Sync { to, .. } => to.0,
        }
    }

    fn handle(
        ctx: &PoaCtx,
        lane: u32,
        node: &mut PoaNode,
        now: SimTime,
        event: PoaEvent,
        fx: &mut Effects<PoaEvent>,
    ) {
        let id = NodeId(lane);
        match event {
            // These two keep the round ticking and the admission pipeline
            // draining on a crashed node; they check the flag themselves.
            PoaEvent::Step { index } => on_step(ctx, node, id, now, index, fx),
            PoaEvent::TxAdmit { tx, index, relayed, .. } => {
                on_admit(ctx, node, id, now, tx, index, relayed, fx)
            }
            _ if ctx.params.crashed[id.index()] => {} // a dead process handles nothing else
            PoaEvent::Sync { msg, .. } => {
                // A deep gap opens a state transfer; nothing to stop here —
                // a step on a stale head just forks and loses.
                node.chain.on_sync(ctx, now, id, msg, fx);
            }
        }
    }
}

fn on_step(
    ctx: &PoaCtx,
    node: &mut PoaNode,
    me: NodeId,
    now: SimTime,
    index: u64,
    fx: &mut Effects<PoaEvent>,
) {
    // Schedule the next boundary first, so the round never stops. The step
    // duration (~1s) dwarfs the engine's floor under cross-lane schedules
    // (the minimum link latency), so the hop is always legal; its authority
    // lane is resolved when this handler returns.
    let next = ctx.schedule.step_start(index + 1);
    fx.schedule_at(next, PoaEvent::Step { index: index + 1 });

    if ctx.params.crashed[me.index()] {
        return; // crashed after this step was routed here
    }
    match ctx.step_authority(index) {
        // A fault injected while this step was in flight moved the slot to
        // a different authority: the slot is simply missed (one skipped
        // block), rather than migrating mid-air to another lane.
        Some(authority) if authority == me => {}
        _ => return,
    }
    node.chain.produce(ctx, now, me, index, fx);
}

#[allow(clippy::too_many_arguments)]
fn on_admit(
    ctx: &PoaCtx,
    node: &mut PoaNode,
    me: NodeId,
    now: SimTime,
    tx: Arc<Transaction>,
    index: u32,
    relayed: bool,
    fx: &mut Effects<PoaEvent>,
) {
    if !relayed {
        node.admission_backlog = node.admission_backlog.saturating_sub(1);
        node.chain.cpu.charge(now, ctx.config.costs.sig_verify);
    }
    if ctx.params.crashed[me.index()] || !node.chain.enqueue(Arc::clone(&tx), index) {
        return;
    }
    if !relayed {
        // Gossip to the other authorities so whoever owns the next step
        // can include it.
        let size = tx.byte_size();
        for peer in (0..ctx.config.nodes).map(NodeId) {
            if peer == me {
                continue;
            }
            let tx = Arc::clone(&tx);
            let relay = move |_at| PoaEvent::TxAdmit { to: peer, tx, index, relayed: true };
            fx.send(peer.0, size, relay);
        }
    }
}

impl Consensus for PoaWorld {
    type Config = ParityConfig;
    const NAME: &'static str = "parity";

    fn setup(config: &ParityConfig) -> Setup<PoaWorld> {
        let params = ChainParams {
            nodes: config.nodes,
            vm: vm_for(&config.costs, config.node_mem_bytes),
            costs: config.costs.clone(),
            max_txs_per_block: config.max_txs_per_block(),
            block_gas_limit: config.block_gas_limit,
            tx_gas_limit: config.tx_gas_limit,
            pool_evict_blocks: config.pool_evict_blocks,
            confirm_depth: config.confirm_depth,
            snapshot_sync_blocks: config.snapshot_sync_blocks,
            snapshot_chunk_bytes: config.snapshot_chunk_bytes,
            build_tx_cost: config.produce_sign_cost,
            block_scan_cost_us: (15, 3),
            // In-memory state: faster reads than Ethereum's 60 µs.
            account_read_cost: SimDuration::from_micros(40),
            deploys: Vec::new(),
            crashed: vec![false; config.nodes as usize],
        };
        let ctx = PoaCtx {
            config: config.clone(),
            params,
            schedule: PoaSchedule::new(
                (0..config.nodes).map(NodeId).collect(),
                config.step_duration,
            ),
            txs: TxTable::default(),
        };
        Setup {
            ctx,
            store: MemStore::with_capacity_cap(state_cap(config)),
            link: config.link.clone(),
            cores: config.cores,
            seed: config.seed,
        }
    }

    /// Authorities draw no randomness of their own.
    fn lane(chain: ChainNode<MemStore>, _rng: &mut SimRng) -> PoaNode {
        PoaNode { chain, admission_busy_until: SimTime::ZERO, admission_backlog: 0 }
    }
    fn chain(node: &PoaNode) -> &ChainNode<MemStore> {
        &node.chain
    }
    fn chain_mut(node: &mut PoaNode) -> &mut ChainNode<MemStore> {
        &mut node.chain
    }

    fn start(chain: &mut ParityChain) {
        let now = chain.engine.now();
        let (next, index) = chain.engine.with_ctx(|ctx| {
            let next = ctx.schedule.next_step_boundary(now + SimDuration::from_micros(1));
            (next, ctx.schedule.step_at(next))
        });
        chain.engine.schedule(next, PoaEvent::Step { index });
    }

    fn admit(chain: &mut ParityChain, server: NodeId, tx: Transaction) -> bool {
        let (now, config) = (chain.engine.now(), &chain.config);
        let done = chain.engine.with_node_mut(server.0, |node| {
            if node.admission_backlog >= config.admission_queue_cap {
                // RPC throttled: Parity's ~80 tx/s per-server signing bound.
                return None;
            }
            if node.chain.pool_len() >= config.tx_pool_cap {
                // Transaction queue full: without this bound, admission (~80
                // tx/s/server) outruns the ~45 tx/s producer and accepted
                // transactions queue for the rest of the run — Parity instead
                // errors at the RPC, which is what keeps its latency low and
                // flat while throughput stays constant (Figure 5).
                return None;
            }
            let start = node.admission_busy_until.max(now + config.rpc_delay);
            let done = start + config.costs.sig_verify;
            node.admission_busy_until = done;
            node.admission_backlog += 1;
            Some(done)
        });
        let Some(done) = done else {
            return false;
        };
        let index = chain.engine.with_ctx_mut(|ctx| ctx.txs.intern(tx.id()));
        let admit = PoaEvent::TxAdmit { to: server, tx: Arc::new(tx), index, relayed: false };
        chain.engine.schedule(done, admit);
        true
    }

    /// Total amnesia: a fresh genesis node, which re-downloads the chain
    /// from a live peer and re-executes it (later deploys land as their
    /// blocks execute). Parity keeps no durable store, so this is the whole
    /// recovery story. The transaction table is the world's, in `ctx`: the
    /// fresh node indexes what it re-executes as every other node does.
    fn rebuild(ctx: &PoaCtx, node: &mut PoaNode) {
        let store = MemStore::with_capacity_cap(state_cap(&ctx.config));
        let cpu = std::mem::replace(&mut node.chain.cpu, CpuMeter::new(1));
        let mut fresh = ChainNode::at_genesis(ctx, store, cpu);
        fresh.counters = std::mem::take(&mut node.chain.counters);
        // Observer history survives as driver-side bookkeeping.
        fresh.take_confirmed_from(&mut node.chain);
        node.chain = fresh;
        node.admission_busy_until = SimTime::ZERO;
        node.admission_backlog = 0;
    }
}

/// Bytes of node RAM left for the in-memory state store.
fn state_cap(config: &ParityConfig) -> u64 {
    config.node_mem_bytes.saturating_sub(config.costs.mem_base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_contracts::testing::ycsb_and_smallbank_setup;
    use bb_storage::{KvStore, WriteBatch};
    use bb_types::Address;
    use blockbench::connector::{BlockchainConnector, Fault, Query};
    use bb_contracts::{donothing, ycsb};
    use bb_crypto::KeyPair;

    fn chain(nodes: u32) -> ParityChain {
        ParityChain::new(ParityConfig::with_nodes(nodes))
    }

    fn client_tx(seed: u64, nonce: u64, to: Address, payload: Vec<u8>) -> Transaction {
        Transaction::signed(&KeyPair::from_seed(seed), nonce, to, 0, payload)
    }

    #[test]
    fn blocks_tick_like_clockwork() {
        let mut c = chain(4);
        c.advance_to(SimTime::from_secs(30));
        let stats = c.stats();
        // One block per second; no forks beyond the block still in flight.
        assert!(stats.blocks_main >= 25, "main chain {}", stats.blocks_main);
        assert!(stats.blocks_total - stats.blocks_main <= 1);
    }

    #[test]
    fn transactions_confirm_in_seconds() {
        let mut c = chain(4);
        let contract = c.deploy(&ycsb::bundle());
        for nonce in 0..10 {
            assert!(c.submit(NodeId((nonce % 4) as u32), client_tx(1, nonce, contract, ycsb::write_call(nonce, b"v"))));
        }
        c.advance_to(SimTime::from_secs(15));
        let committed: usize = c.confirmed_blocks_since(0).iter().map(|b| b.txs.len()).sum();
        assert_eq!(committed, 10);
    }

    #[test]
    fn producer_budget_caps_throughput() {
        let mut c = chain(2);
        let contract = c.deploy(&donothing::bundle());
        // Offer far more than 45 tx/s for 10 s from many senders.
        let mut submitted = 0;
        for seed in 0..20u64 {
            for nonce in 0..60 {
                if c.submit(NodeId((seed % 2) as u32), client_tx(seed, nonce, contract, donothing::call())) {
                    submitted += 1;
                }
            }
        }
        assert!(submitted > 300, "admission rejected too aggressively: {submitted}");
        c.advance_to(SimTime::from_secs(10));
        let committed: usize = c.confirmed_blocks_since(0).iter().map(|b| b.txs.len()).sum();
        // ~45 tx per block-second, minus confirmation lag.
        let rate = committed as f64 / 10.0;
        assert!(rate > 25.0 && rate < 60.0, "rate {rate}");
    }

    #[test]
    fn admission_throttles_at_the_rpc() {
        let mut c = chain(1);
        let contract = c.deploy(&donothing::bundle());
        let mut accepted = 0;
        let mut rejected = 0;
        for nonce in 0..1000 {
            if c.submit(NodeId(0), client_tx(1, nonce, contract, donothing::call())) {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "throttling never kicked in");
        assert_eq!(accepted, c.config.admission_queue_cap as u32);
    }

    #[test]
    fn crash_leaves_throughput_steady() {
        let mut c = chain(8);
        c.advance_to(SimTime::from_secs(20));
        let before = c.stats().blocks_main;
        for i in 4..8 {
            c.inject(Fault::Crash(NodeId(i)));
        }
        c.advance_to(SimTime::from_secs(40));
        let after = c.stats().blocks_main;
        // Survivors take over the dead authorities' slots: ~1 block/s still
        // (at most one slot is missed while the crash propagates to a step
        // already in flight).
        assert!(after - before >= 16, "throughput dropped: {before} → {after}");
    }

    #[test]
    fn partition_forks_then_heals() {
        let mut c = chain(8);
        c.advance_to(SimTime::from_secs(10));
        c.inject(Fault::PartitionHalf { left: 4 });
        c.advance_to(SimTime::from_secs(40));
        c.inject(Fault::Heal);
        c.advance_to(SimTime::from_secs(80));
        let stats = c.stats();
        assert!(
            stats.blocks_total > stats.blocks_main,
            "no forks under partition: total={} main={}",
            stats.blocks_total,
            stats.blocks_main
        );
        let heads: Vec<u64> =
            (0..8).map(|i| c.engine.with_node(i, |n| n.chain.tree.head_height())).collect();
        let spread = heads.iter().max().unwrap() - heads.iter().min().unwrap();
        assert!(spread <= 2, "heads did not reconverge: {heads:?}");
    }

    #[test]
    fn in_memory_state_cap_produces_oom() {
        let mut config = ParityConfig::with_nodes(1);
        config.node_mem_bytes = config.costs.mem_base + (3 << 20); // tiny state budget
        let mut c = ParityChain::new(config);
        let contract = c.deploy(&bb_contracts::ioheavy::bundle());
        // Write batches until the in-memory trie blows the cap.
        let mut saw_oom = false;
        for i in 0..40u64 {
            let tx = client_tx(1, i, contract, bb_contracts::ioheavy::write_call(i * 500, 500));
            let res = c.execute_direct(tx);
            if !res.success {
                let err = res.error.unwrap_or_default();
                assert!(err.contains("out of space") || err.contains("storage"), "{err}");
                saw_oom = true;
                break;
            }
        }
        assert!(saw_oom, "state cap never hit");
    }

    #[test]
    fn historical_queries_work() {
        let mut c = chain(2);
        let alice = KeyPair::from_seed(1);
        let bob = Address::from_index(7);
        c.preload_blocks(vec![
            vec![Transaction::signed(&alice, 0, bob, 11, vec![])],
            vec![Transaction::signed(&alice, 1, bob, 22, vec![])],
        ]);
        let r = c.query(&Query::AccountAtBlock { account: bob, height: 1 }).unwrap();
        assert_eq!(i64::from_le_bytes(r.data.try_into().unwrap()), 11);
        let r = c.query(&Query::AccountAtBlock { account: bob, height: 2 }).unwrap();
        assert_eq!(i64::from_le_bytes(r.data.try_into().unwrap()), 33);
    }

    /// Everything set-up leaves on a node that a run can later observe, bar
    /// the observer's log: chain, tip, store counters and contents, trie
    /// counters.
    fn footprint(c: &ParityChain, i: u32) -> impl PartialEq + std::fmt::Debug {
        let entries = c.committed_chain(NodeId(i));
        c.engine.with_node(i, |n| {
            let mut receipts: Vec<_> = n.chain.receipts.clone().into_iter().collect();
            receipts.sort_unstable_by_key(|&(id, _)| id);
            let store = n.chain.state.store();
            let contents = store.clone().scan_prefix(b"").unwrap();
            let trie = (n.chain.state.trie_cache_stats(), n.chain.state.trie_flush_stats());
            (entries, receipts, n.chain.tip(), store.stats(), trie, contents)
        })
    }

    #[test]
    fn twin_nodes_after_setup_and_a_restarted_one_rejoins() {
        let mut c = chain(4);
        let (kv, _) = ycsb_and_smallbank_setup(&mut c);
        // 5 + 4 preloaded blocks, and every node is node 0's twin, without
        // the observer's log.
        let want = footprint(&c, 0);
        assert_eq!(c.committed_chain(NodeId(0)).len(), 9);
        for i in 1..4 {
            assert_eq!(footprint(&c, i), want, "node {i} is no twin of node 0");
            assert_eq!(c.engine.with_node(i, |n| n.chain.observer_totals()), (9, 0));
        }
        assert_eq!(c.engine.with_node(0, |n| n.chain.observer_totals()), (9, 200));
        // The stores are separate: a write on node 2 stays on node 2.
        let mut probe = WriteBatch::new();
        probe.put(b"!probe", b"x");
        c.engine.with_node_mut(2, |n| n.chain.state.store_mut().apply_batch(probe).unwrap());
        assert_eq!(footprint(&c, 1), want);
        assert_ne!(footprint(&c, 2), want);

        // Parity keeps nothing durable: a restarted node 2 rebuilds genesis
        // and fetches the preloaded blocks from its twins like any others.
        for nonce in 0..12 {
            c.submit(NodeId((nonce % 4) as u32), client_tx(1, nonce, kv, ycsb::write_call(nonce, b"v")));
        }
        c.advance_to(SimTime::from_secs(8));
        c.inject(Fault::Crash(NodeId(2)));
        c.advance_to(SimTime::from_secs(14));
        c.inject(Fault::Restart(NodeId(2)));
        c.advance_to(SimTime::from_secs(30));
        let heads = [0, 2].map(|i| c.engine.with_node(i, |n| n.chain.tree.head_height()));
        assert!(heads[0].abs_diff(heads[1]) <= 2, "restarted node lags: {heads:?}");
        // It re-executed every block, the set-up's included, to node 0's
        // state root and receipts at every height they share: the Smallbank
        // contract deployed at height 5 is installed there, not at genesis.
        let (chain0, chain2) = (c.committed_chain(NodeId(0)), c.committed_chain(NodeId(2)));
        let common = chain0.len().min(chain2.len());
        assert!(common > 9, "no block past the set-up to compare");
        let receipts = |i: u32, id| c.engine.with_node(i, |n| n.chain.receipts.get(&id).cloned());
        for (e0, e2) in chain0.iter().zip(&chain2) {
            let height = e0.height;
            assert_eq!(e2.state_root, e0.state_root, "restarted root differs at height {height}");
            let (r0, r2) = (receipts(0, e0.id), receipts(2, e2.id));
            assert!(r0.is_some(), "node 0 holds no receipts at height {height}");
            assert_eq!(r2, r0, "restarted receipts differ at height {height}");
        }
        assert!(c.stats().recovery_ms > 0, "recovery never completed");
    }

    #[test]
    #[should_panic(expected = "preload after replicas diverged")]
    fn preload_refuses_to_overwrite_a_diverged_node() {
        let mut c = chain(4);
        let contract = c.deploy(&ycsb::bundle());
        // Node 2 alone moves ahead by a block.
        let lone = Arc::new(client_tx(1, 0, contract, ycsb::write_call(1, b"v")));
        c.engine.with_ctx_node_mut(2, |ctx, n| n.chain.preload_block(ctx, SimTime::ZERO, &[lone]));
        c.preload_blocks(vec![vec![client_tx(2, 0, contract, ycsb::write_call(2, b"v"))]]);
    }

    #[test]
    #[should_panic(expected = "crash it first")]
    fn restart_of_a_live_node_panics() {
        chain(4).inject(Fault::Restart(NodeId(2)));
    }

    #[test]
    fn restart_rebuilds_from_genesis_and_resyncs_whole_chain() {
        let mut c = chain(4);
        let contract = c.deploy(&ycsb::bundle());
        for nonce in 0..12 {
            c.submit(NodeId((nonce % 4) as u32), client_tx(1, nonce, contract, ycsb::write_call(nonce, b"v")));
        }
        c.advance_to(SimTime::from_secs(8));
        c.inject(Fault::Crash(NodeId(3)));
        c.advance_to(SimTime::from_secs(14));
        let cluster_head = c.engine.with_node(0, |n| n.chain.tree.head_height());
        c.inject(Fault::Restart(NodeId(3)));
        // Immediately after restart the node is back at genesis...
        assert_eq!(c.engine.with_node(3, |n| n.chain.tree.head_height()), 0);
        c.advance_to(SimTime::from_secs(25));
        // ...and later it has re-downloaded and re-executed the whole chain.
        let h3 = c.engine.with_node(3, |n| n.chain.tree.head_height());
        let h0 = c.engine.with_node(0, |n| n.chain.tree.head_height());
        assert!(h0.abs_diff(h3) <= 2, "restarted node lags: h0={h0} h3={h3}");
        // The recovered states agree: same root at the common prefix.
        let common = h3.min(cluster_head);
        let id0 = c.engine.with_node(0, |n| n.chain.tree.main_chain_at(common)).unwrap();
        let r0 = c.engine.with_node(0, |n| n.chain.roots[&id0]);
        let r3 = c.engine.with_node(3, |n| n.chain.roots[&id0]);
        assert_eq!(r0, r3, "re-executed state diverged at height {common}");
        let stats = c.stats();
        assert!(stats.recovery_ms > 0, "recovery never completed");
        // A full resync: at least the whole pre-crash chain was re-fetched.
        let resynced = stats.resync_blocks;
        assert!(resynced >= cluster_head, "resynced only {resynced} blocks");
    }

    #[test]
    fn deep_gap_restart_uses_snapshot_sync_instead_of_replay() {
        let mut config = ParityConfig::with_nodes(4);
        config.snapshot_sync_blocks = 4; // force the snapshot path on a modest gap
        let mut c = ParityChain::new(config);
        let contract = c.deploy(&ycsb::bundle());
        for nonce in 0..16 {
            c.submit(NodeId((nonce % 4) as u32), client_tx(1, nonce, contract, ycsb::write_call(nonce, b"v")));
        }
        c.advance_to(SimTime::from_secs(8));
        c.inject(Fault::Crash(NodeId(3)));
        // Let the gap grow well past the snapshot threshold.
        c.advance_to(SimTime::from_secs(30));
        let cluster_head = c.engine.with_node(0, |n| n.chain.tree.head_height());
        c.inject(Fault::Restart(NodeId(3)));
        c.advance_to(SimTime::from_secs(45));
        let stats = c.stats();
        assert!(stats.snapshot_chunks > 0, "snapshot path never engaged");
        assert!(stats.snapshot_bytes > 0);
        assert!(stats.recovery_ms > 0, "recovery never completed");
        // The chain gap was closed by chunk transfer, not block replay: only
        // the handful of blocks mined during the transfer were re-fetched.
        assert!(
            stats.resync_blocks < cluster_head / 2,
            "replayed {} of a {}-block gap",
            stats.resync_blocks,
            cluster_head
        );
        let h3 = c.engine.with_node(3, |n| n.chain.tree.head_height());
        let h0 = c.engine.with_node(0, |n| n.chain.tree.head_height());
        assert!(h0.abs_diff(h3) <= 2, "restarted node lags: h0={h0} h3={h3}");
        // The transferred store really carries the state: the restarted node
        // resolves an account at a common root without ever re-executing.
        let common = h3.min(cluster_head);
        let id = c.engine.with_node(0, |n| n.chain.tree.main_chain_at(common)).unwrap();
        let root = c.engine.with_node(0, |n| n.chain.roots[&id]);
        assert_eq!(c.engine.with_node(3, |n| n.chain.roots[&id]), root);
        let client = Address::from_public_key(&KeyPair::from_seed(1).public());
        let a0 = c.engine.with_node_mut(0, |n| n.chain.state.account_at(root, &client).unwrap());
        let a3 = c.engine.with_node_mut(3, |n| n.chain.state.account_at(root, &client).unwrap());
        assert_eq!(a0.nonce, a3.nonce);
        assert_eq!(a0.balance, a3.balance);
        assert!(a0.nonce > 0, "client transactions never landed");
    }

    fn pool_len(c: &ParityChain, i: u32) -> usize {
        c.engine.with_node(i, |n| n.chain.pool_len())
    }

    /// One signed transaction submitted at two servers enters the world's
    /// table once, and every authority pools it once.
    #[test]
    fn tx_table_enters_a_transaction_submitted_twice_once() {
        let mut c = chain(4);
        let contract = c.deploy(&donothing::bundle());
        let tx = client_tx(1, 0, contract, donothing::call());
        assert!(c.submit(NodeId(0), tx.clone()));
        assert!(c.submit(NodeId(1), tx));
        // Before the first step, at 1 s, takes it into a block.
        c.advance_to(SimTime::from_millis(500));
        assert_eq!(c.engine.with_ctx(|ctx| ctx.txs.len()), 1);
        for i in 0..4 {
            assert_eq!(c.engine.with_node(i, |n| n.chain.tree.head_height()), 0);
            assert_eq!(pool_len(&c, i), 1, "authority {i}");
        }
    }

    /// A restarted authority is a fresh genesis node over the world's one
    /// transaction table: it refuses a relayed transaction of the chain it
    /// re-executed, and pools a new one once.
    #[test]
    fn tx_table_is_shared_with_a_restarted_node() {
        let mut c = chain(4);
        let contract = c.deploy(&ycsb::bundle());
        let write = |nonce| client_tx(1, nonce, contract, ycsb::write_call(nonce, b"v"));
        for nonce in 0..8 {
            assert!(c.submit(NodeId((nonce % 4) as u32), write(nonce)));
        }
        c.advance_to(SimTime::from_secs(6));
        c.inject(Fault::Crash(NodeId(2)));
        c.advance_to(SimTime::from_secs(8));
        c.inject(Fault::Restart(NodeId(2)));
        c.advance_to(SimTime::from_millis(20_500));
        let committed: usize = c.confirmed_blocks_since(0).iter().map(|b| b.txs.len()).sum();
        assert_eq!(committed, 8);
        let old = Arc::new(write(0));
        let executed = c.engine.with_node(2, |n| {
            let blocks = n.chain.bodies.iter().filter(|(id, _)| n.chain.roots.contains_key(*id));
            blocks.flat_map(|(_, b)| &b.txs).any(|t| t.id() == old.id())
        });
        assert!(executed, "the restarted authority never re-executed the first write");
        assert_eq!(pool_len(&c, 2), 0);
        let index = c.engine.with_ctx(|ctx| ctx.txs.index(&old.id()));
        let now = c.now();
        c.engine.schedule(now, PoaEvent::TxAdmit { to: NodeId(2), tx: old, index, relayed: true });
        c.advance_to(now + SimDuration::from_millis(1));
        assert_eq!(pool_len(&c, 2), 0, "a re-executed transaction was pooled again");
        let new = write(8);
        assert!(c.submit(NodeId(2), new.clone()));
        assert!(c.submit(NodeId(3), new));
        c.advance_to(now + SimDuration::from_millis(100));
        assert_eq!(c.engine.with_ctx(|ctx| ctx.txs.len()), 9);
        assert_eq!(pool_len(&c, 2), 1);
    }

    /// Every event waits in the engine's heap, and the snapshot transfer
    /// rides in `SyncMsg` without growing the platform's event.
    #[test]
    fn events_stay_within_48_bytes() {
        assert!(std::mem::size_of::<PoaEvent>() <= 48, "{} bytes", std::mem::size_of::<PoaEvent>());
    }
}
