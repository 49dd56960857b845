//! The Fabric-like network world: PBFT over the simulated network with a
//! bounded, CPU-metered message channel per peer.
//!
//! Every client request and every consensus message lands in a node's
//! bounded inbox and is drained serially at `msg_process_cost` per message.
//! When the inbox is full, arrivals are *dropped* — requests and prepares
//! alike — which is the exact mechanism behind the paper's ≥16-node
//! collapse: "the consensus messages are rejected by other peers on account
//! of the message channel being full. As messages are dropped, the views
//! start to diverge and lead to unreachable consensus" (Section 4.1.2).
//! What fills the channels at scale is v0.6's own view-timeout
//! retransmission storm; `FabricConfig::pbft_recruit_quota` controls it
//! (default hardened, `batch_size` for the v0.6-faithful collapse).
//!
//! The world is *sharded*: each peer is a lane of a
//! [`ShardedEngine`], every event routes to exactly one peer, and all
//! cross-peer traffic goes through the network outbox, which the engine
//! applies as each handler returns, in one canonical order (see
//! `bb_sim::shard` and DESIGN.md §5).

use crate::config::FabricConfig;
use crate::state::{FabricState, STORE_PREFIX};
use bb_consensus::pbft::{Action, Batch, PbftConfig, PbftMsg, PbftNode, Request};
use bb_crypto::Hash256;
use bb_merkle::{merkle_root, BlockDelta};
use bb_net::Network;
use bb_storage::{chunk_wire_bytes, FaultVfs, FrameSlot, KvStore, LsmStore, Vfs};
use bb_sim::{
    CpuMeter, Effects, RecentOutcomes, ShardedEngine, ShardedWorld, SimDuration, SimRng, SimTime,
};
use bb_types::{
    Address, Block, BlockHeader, BlockSummary, NodeId, Transaction, TxBits, TxId, TxTable,
};
use blockbench::connector::{
    BlockchainConnector, ChainEntry, DirectExec, Fault, NodeCounters, PlatformStats, Query,
    QueryError, QueryResult, RecoveryWindow,
};
use blockbench::contract::{ChaincodeFactory, ContractBundle};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};

/// Events of the Fabric world.
#[derive(Debug, Clone)]
pub enum FabEvent {
    /// A client request cleared a peer's paced RPC ingress thread.
    Ingress {
        /// Receiving peer.
        to: NodeId,
        /// Encoded transaction.
        req: Request,
    },
    /// A consensus message arrived at a peer's channel.
    Consensus {
        /// Receiving peer.
        to: NodeId,
        /// Sending peer.
        from: NodeId,
        /// The message.
        msg: PbftMsg,
    },
    /// The peer's serial message processor finished one item.
    Drain {
        /// The peer.
        node: NodeId,
        /// Pipeline generation (stale drains are ignored).
        generation: u64,
    },
    /// PBFT timer poll.
    Wake {
        /// The peer.
        node: NodeId,
    },
    /// A restarted peer that cannot replay batch by batch asks a live peer
    /// for the next chunk of its store (`ChainNode`'s `StateRequest` shape).
    SnapshotRequest {
        /// Serving peer.
        to: NodeId,
        /// Recovering peer.
        from: NodeId,
        /// Resume after this key (exclusive); `None` starts a transfer.
        after: Option<Vec<u8>>,
    },
    /// One bounded chunk of a peer's frozen store: raw store entries
    /// (state values and the `!b/` block records ride together).
    SnapshotChunk {
        /// Recovering peer.
        to: NodeId,
        /// Serving peer.
        from: NodeId,
        /// Raw `(key, value)` store entries.
        entries: Arc<Vec<(Vec<u8>, Vec<u8>)>>,
        /// True when the frozen store's key space is exhausted.
        done: bool,
    },
}

/// Key prefix of durable per-block records in each peer's LSM store.
/// Outside the `s:` state namespace, so the bucket digests never see it.
const BLOCK_META_PREFIX: &[u8] = b"!b/";

/// Big-endian height key: `scan_prefix` returns records in chain order.
fn block_meta_key(height: u64) -> Vec<u8> {
    let mut k = BLOCK_META_PREFIX.to_vec();
    k.extend_from_slice(&height.to_be_bytes());
    k
}

/// Record value: the PBFT sequence floor as of this block (0 for blocks
/// installed outside consensus, i.e. preloads) followed by the encoded
/// block. The floor is stored explicitly because preloaded blocks consume
/// heights without consuming sequence numbers.
fn block_meta_record(pbft_floor: u64, block: &Block) -> Arc<[u8]> {
    block.encode_after(&pbft_floor.to_be_bytes()).into()
}

fn decode_block_meta(value: &[u8]) -> Option<(u64, Block)> {
    let floor = u64::from_be_bytes(value.get(..8)?.try_into().ok()?);
    let block = Block::decode(&value[8..]).ok()?;
    Some((floor, block))
}

/// A peer's chain book. It is volatile: reopening the peer's disk rebuilds
/// it from the durable `!b/` records.
#[derive(Clone, Default)]
struct Ledger {
    /// Executed transactions by index in the world's [`TxTable`] (dedupe
    /// across re-proposals).
    executed: TxBits,
    /// Committed chain.
    blocks: Vec<Block>,
    /// Per-block receipts; recovered blocks carry none.
    receipts: Vec<Vec<(TxId, bool)>>,
}

impl Ledger {
    /// The ledger `state`'s `!b/` records hold — each rode the same atomic
    /// batch as its block's state flush, so these are exactly the blocks
    /// whose effects survive — and the PBFT sequence floor they reached.
    /// Every recovered transaction entered the world's `txs`.
    fn recover(state: &mut FabricState, txs: &TxTable) -> (Ledger, u64) {
        let records = state.scan_meta(BLOCK_META_PREFIX).expect("durable store recoverable");
        let (floors, blocks): (Vec<u64>, Vec<Block>) =
            records.iter().filter_map(|(_, v)| decode_block_meta(v)).unzip();
        let ledger = Ledger {
            executed: blocks.iter().flat_map(|b| &b.txs).map(|tx| txs.index(&tx.id())).collect(),
            receipts: vec![Vec::new(); blocks.len()],
            blocks,
        };
        (ledger, floors.into_iter().max().unwrap_or(0))
    }
}

struct FabNode {
    pbft: PbftNode,
    state: FabricState,
    /// Per recovering peer it serves, the frozen copy of its store that the
    /// transfer's first request took. Process memory: a crash drops them.
    serving: Vec<(NodeId, LsmStore)>,
    /// Bounded consensus channel: `(sender, message)` in arrival order.
    inbox: VecDeque<(NodeId, PbftMsg)>,
    draining: bool,
    drain_generation: u64,
    ledger: Ledger,
    cpu: CpuMeter,
    dropped_msgs: u64,
    crashed: bool,
    /// Byzantine mode ([`Fault::Equivocate`]): this replica, when primary,
    /// sends conflicting pre-prepares to disjoint peer subsets.
    equivocating: bool,
    wake_scheduled: Option<SimTime>,
    /// RPC ingress pacing (gRPC flow control).
    ingress_busy_until: SimTime,
    /// Execution time owed by the pipeline before the next drain.
    pipeline_penalty: SimDuration,
    /// Confirmed-block log; only the observer (node 0) appends to it.
    confirmed: Vec<BlockSummary>,
    /// Catch-up session after a durable-state restart; its target is the
    /// cluster's committed sequence at the restart instant. While a snapshot
    /// transfer replaces this peer's state, committed batches are dropped
    /// (the trailing `SyncRequest` replays them).
    recovery: RecoveryWindow,
    /// Run counters; they survive a restart.
    counters: NodeCounters,
}

impl FabNode {
    /// Append a block of executed `txs` on this peer's tip: assemble its
    /// header, seal the state writes and its `!b/` record as one atomic LSM
    /// batch (a crash keeps both or neither), and log its receipts — and,
    /// on the observer (node 0), its summary: PBFT confirms a block as soon
    /// as it appears on the chain (Section 3.2). `pbft` is the sequence and
    /// proposer of a committed batch: its header carries the sequence, not
    /// local delivery time, so replicas' headers are byte-identical. A
    /// preload (`None`) bypasses consensus: the set-up clock, node 0, and a
    /// zero sequence floor so a restart resumes PBFT from scratch.
    /// `tx_root` is [`tx_root`] of `txs`. A committed batch also brings its
    /// outcome's [`BatchOutcome::sealed`]: the first peer to seal the batch
    /// fills it, and a peer whose header and floor equal the ones in it
    /// stores the same `!b/` record and appends the same WAL frame. Returns
    /// the block's encoded size.
    fn append_block(
        &mut self,
        me: NodeId,
        now: SimTime,
        txs: Vec<Arc<Transaction>>,
        receipts: Vec<(TxId, bool)>,
        tx_root: Hash256,
        pbft: Option<(u64, NodeId, &OnceLock<SealedBlock>)>,
    ) -> u64 {
        let height = self.ledger.blocks.len() as u64 + 1;
        let (timestamp_us, proposer, round, floor, sealed) = match pbft {
            Some((seq, proposer, sealed)) => (seq, proposer, seq, seq, Some(sealed)),
            None => (now.as_micros(), NodeId(0), height, 0, None),
        };
        let header = BlockHeader {
            parent: self.ledger.blocks.last().map(|b| b.id()).unwrap_or(Hash256::ZERO),
            height,
            timestamp_us,
            tx_root,
            state_root: self.state.root(),
            proposer,
            difficulty: 0,
            round,
        };
        let block = Block { header, txs };
        // Shared only on an equal header and floor: the batch's key holds
        // neither the parent, nor the sequence, nor the proposer.
        let first = sealed.and_then(OnceLock::get);
        let (record, frame) = match first.filter(|s| s.floor == floor && s.header == block.header) {
            Some(first) => {
                debug_assert!(
                    block_meta_record(floor, &block) == first.record,
                    "{me} encodes block {height} unlike the peer that sealed it first"
                );
                (Arc::clone(&first.record), Some(Arc::clone(&first.frame)))
            }
            None => {
                let record = block_meta_record(floor, &block);
                // The first peer to seal the batch fills the slot; a peer
                // whose header differs from the first one's keeps its own.
                let frame = sealed.filter(|_| first.is_none()).map(|slot| {
                    let mine = slot.get_or_init(|| SealedBlock {
                        header: block.header.clone(),
                        floor,
                        record: Arc::clone(&record),
                        frame: FrameSlot::default(),
                    });
                    Arc::clone(&mine.frame)
                });
                (record, frame)
            }
        };
        let block_bytes = (record.len() - 8) as u64;
        self.state
            .commit_block_with_meta(vec![(block_meta_key(height).into(), Some(record))], frame)
            .expect("state store healthy");
        if me.index() == 0 {
            self.confirmed.push(BlockSummary {
                id: block.id(),
                height,
                proposer,
                confirmed_at_us: now.as_micros(),
                txs: receipts.clone(),
            });
        }
        self.ledger.receipts.push(receipts);
        self.ledger.blocks.push(block);
        block_bytes
    }

    /// Reopen this peer's disk — after a crash the only thing it kept,
    /// after a snapshot transfer the store the transfer streamed in — with
    /// the deploy log's chaincodes, recover the ledger from it, and resume
    /// PBFT at the sequence floor it reached, which this returns.
    fn reopen(&mut self, ctx: &FabCtx, me: NodeId) -> u64 {
        self.state = ctx.open_state(self.state.vfs());
        let floor;
        (self.ledger, floor) = Ledger::recover(&mut self.state, &ctx.txs);
        self.pbft = PbftNode::resume_at(me, pbft_config(&ctx.config), floor);
        floor
    }

    /// The process died. Amnesia: the inbox, the pipeline and the copies it
    /// served from are process memory. The state, ledger and recovery window
    /// linger until a restart replaces them, but no handler reads them while
    /// crashed.
    fn crash(&mut self) {
        self.crashed = true;
        self.serving.clear();
        self.inbox.clear();
        self.draining = false;
        self.drain_generation += 1;
        self.pipeline_penalty = SimDuration::ZERO;
        self.wake_scheduled = None;
    }

    /// Fold this peer into the run-wide stats: its counters and CPU series
    /// (with `net`, its outbound network series) by the shared policy, plus
    /// the store, bucket-tree and PBFT counters.
    fn fold_into(&self, stats: &mut PlatformStats, config: &FabricConfig, net: &[f64]) {
        stats.fold_node(config.nodes, &self.counters, &self.cpu.utilisation_series(), net);
        stats.equivocations_detected += self.pbft.equivocations_detected();
        let store = self.state.store_stats();
        stats.disk_bytes += store.disk_bytes;
        stats.batch_put_count += store.batch_writes;
        stats.bytes_compacted += store.bytes_compacted;
        stats.storage_bytes_written += store.bytes_written;
        stats.storage_logical_bytes += store.logical_bytes;
        let (flushed, superseded) = self.state.flush_stats();
        stats.state_nodes_flushed += flushed;
        stats.state_nodes_dropped += superseded;
    }
}

/// The Merkle root of a block's transaction ids (its header's `tx_root`).
fn tx_root(txs: &[Arc<Transaction>]) -> Hash256 {
    merkle_root(&txs.iter().map(|t| t.id().0).collect::<Vec<_>>())
}

/// What executing one committed batch does on a peer: a pure function of
/// its [`BatchKey`] — and the block the first peer to commit it sealed,
/// which is not part of that function.
#[derive(Debug)]
struct BatchOutcome {
    receipts: Vec<(TxId, bool)>,
    /// The serial execution charge.
    charge: SimDuration,
    /// The highest chaincode allocation of any invocation.
    alloc_peak: u64,
    tx_root: Hash256,
    /// The world-state writes.
    delta: BlockDelta,
    /// The first peer to seal this batch's block: see
    /// [`FabNode::append_block`].
    sealed: OnceLock<SealedBlock>,
}

/// Two outcomes are equal when executing their batches did the same;
/// which blocks sealed them is no part of that.
impl PartialEq for BatchOutcome {
    fn eq(&self, other: &BatchOutcome) -> bool {
        let BatchOutcome { receipts, charge, alloc_peak, tx_root, delta, sealed: _ } = self;
        *receipts == other.receipts
            && *charge == other.charge
            && *alloc_peak == other.alloc_peak
            && *tx_root == other.tx_root
            && *delta == other.delta
    }
}

/// A committed batch's block as the first peer to append it sealed it: the
/// header and PBFT floor its `!b/` record encodes, the record, and the slot
/// its store filled with the batch's WAL frame. A peer that seals an equal
/// header at an equal floor writes a byte-equal batch: the batch outcome's
/// state writes, then this record.
#[derive(Debug)]
struct SealedBlock {
    header: BlockHeader,
    floor: u64,
    record: Arc<[u8]>,
    frame: FrameSlot,
}

/// Everything a batch's execution reads: the block height the chaincodes
/// see, the deploy log's length (the chaincodes there are), the sealed
/// pre-state's root and the executed transactions in order.
#[derive(PartialEq)]
struct BatchKey {
    height: u64,
    deployed: usize,
    pre_root: Hash256,
    ids: Vec<TxId>,
}

/// Context shared by every lane: read-only but for the batch outcomes, a
/// cache of a pure function of lane state (see `ShardedWorld::Ctx`).
struct FabCtx {
    config: FabricConfig,
    /// The deploy log: every peer runs these chaincodes. Only `deploy`
    /// appends.
    deploys: Vec<(Address, ChaincodeFactory)>,
    /// The disk every peer starts on and a snapshot transfer lands on: each
    /// peer's is a clone, so the peers' byte-identical tables are held once.
    blank: Vfs,
    /// Recent batch outcomes. Only [`execute_batch_txs`] reads or fills it.
    outcomes: RecentOutcomes<BatchKey, BatchOutcome>,
    /// The world's transaction table: a transaction is numbered where it
    /// enters the world (`submit`, `preload_blocks`); the lanes only read it.
    txs: TxTable,
    /// Every outcome lookup as `(peer, height, hit)`: tests only, never
    /// stats.
    #[cfg(test)]
    lookups: Mutex<Vec<(NodeId, u64, bool)>>,
}

impl FabCtx {
    /// A blank disk of this world's lineage.
    fn blank_disk(&self) -> Arc<Mutex<Vfs>> {
        Arc::new(Mutex::new(self.blank.clone()))
    }

    /// Open `vfs` as a peer's state, with the deploy log's chaincodes.
    fn open_state(&self, vfs: Arc<Mutex<Vfs>>) -> FabricState {
        let mem_cap = self.config.node_mem_bytes.saturating_sub(self.config.mem_base);
        FabricState::reopen(vfs, self.config.state_buckets, mem_cap, &self.deploys)
            .expect("durable store recoverable")
    }
}

/// The sharded-world marker type for Fabric.
struct FabWorld;

/// The Fabric-like platform.
pub struct FabricChain {
    config: FabricConfig,
    engine: ShardedEngine<FabWorld>,
    network: Network,
}

impl ShardedWorld for FabWorld {
    type Event = FabEvent;
    type Node = FabNode;
    type Ctx = FabCtx;

    fn route(_ctx: &FabCtx, event: &FabEvent) -> u32 {
        match event {
            FabEvent::Ingress { to, .. }
            | FabEvent::Consensus { to, .. }
            | FabEvent::SnapshotRequest { to, .. }
            | FabEvent::SnapshotChunk { to, .. } => to.0,
            FabEvent::Drain { node, .. } | FabEvent::Wake { node } => node.0,
        }
    }

    fn handle(
        ctx: &FabCtx,
        lane: u32,
        node: &mut FabNode,
        now: SimTime,
        event: FabEvent,
        fx: &mut Effects<FabEvent>,
    ) {
        let id = NodeId(lane);
        match event {
            FabEvent::Ingress { req, .. } => on_ingress(ctx, node, id, now, req, fx),
            FabEvent::Consensus { from, msg, .. } => {
                enqueue(ctx, node, id, now, (from, msg), fx)
            }
            FabEvent::Drain { generation, .. } => on_drain(ctx, node, id, now, generation, fx),
            FabEvent::Wake { .. } => on_wake(ctx, node, id, now, fx),
            FabEvent::SnapshotRequest { from, after, .. } => {
                on_snapshot_request(ctx, node, id, from, after, fx)
            }
            FabEvent::SnapshotChunk { from, entries, done, .. } => {
                on_snapshot_chunk(ctx, node, id, now, from, entries, done, fx)
            }
        }
    }
}

/// A client request cleared the paced ingress thread: hand it to PBFT
/// (which forwards to the primary) and relay it to the other peers so
/// they can watch for liveness. Relays travel through the *bounded*
/// consensus channel.
fn on_ingress(
    ctx: &FabCtx,
    node: &mut FabNode,
    to: NodeId,
    now: SimTime,
    req: Request,
    fx: &mut Effects<FabEvent>,
) {
    if node.crashed {
        return;
    }
    // Ingress-side signature verification.
    node.cpu.charge(now, SimDuration::from_micros(500));
    let actions = node.pbft.on_request(req.clone(), now);
    let primary_gets_forward = actions
        .iter()
        .any(|a| matches!(a, Action::Send(_, PbftMsg::Forward(_))));
    dispatch(ctx, node, to, now, actions, fx);
    // Relay to everyone who has not seen it (skip the primary if the
    // PBFT layer already forwarded there).
    let primary = {
        // Reconstruct the primary of the node's current view.
        let view = node.pbft.view();
        NodeId((view % ctx.config.nodes as u64) as u32)
    };
    for peer in (0..ctx.config.nodes).map(NodeId) {
        if peer == to || (primary_gets_forward && peer == primary) {
            continue;
        }
        send_msg(peer, PbftMsg::Forward(req.clone()), fx);
    }
    schedule_wake(node, to, now, fx);
}

/// Deliver into the bounded channel; full channel drops the item.
fn enqueue(
    ctx: &FabCtx,
    node: &mut FabNode,
    to: NodeId,
    now: SimTime,
    item: (NodeId, PbftMsg),
    fx: &mut Effects<FabEvent>,
) {
    let cap = ctx.config.channel_capacity;
    let cost = ctx.config.msg_process_cost;
    if node.crashed {
        return;
    }
    if node.inbox.len() >= cap {
        node.dropped_msgs += 1;
        return;
    }
    node.inbox.push_back(item);
    if !node.draining {
        node.draining = true;
        node.drain_generation += 1;
        let generation = node.drain_generation;
        let penalty = std::mem::take(&mut node.pipeline_penalty);
        fx.schedule(now + cost + penalty, FabEvent::Drain { node: to, generation });
    }
}

fn on_drain(
    ctx: &FabCtx,
    node: &mut FabNode,
    id: NodeId,
    now: SimTime,
    generation: u64,
    fx: &mut Effects<FabEvent>,
) {
    let cost = ctx.config.msg_process_cost;
    if node.crashed || node.drain_generation != generation {
        return;
    }
    node.cpu.charge(now, cost);
    let Some((from, msg)) = node.inbox.pop_front() else {
        node.draining = false;
        return;
    };
    let actions = node.pbft.on_message(from, msg, now);
    if node.inbox.is_empty() {
        node.draining = false;
    } else {
        node.drain_generation += 1;
        let generation = node.drain_generation;
        let penalty = std::mem::take(&mut node.pipeline_penalty);
        fx.schedule(now + cost + penalty, FabEvent::Drain { node: id, generation });
    }
    dispatch(ctx, node, id, now, actions, fx);
    schedule_wake(node, id, now, fx);
}

fn on_wake(ctx: &FabCtx, node: &mut FabNode, id: NodeId, now: SimTime, fx: &mut Effects<FabEvent>) {
    node.wake_scheduled = None;
    if node.crashed {
        return;
    }
    let actions = node.pbft.on_tick(now);
    dispatch(ctx, node, id, now, actions, fx);
    schedule_wake(node, id, now, fx);
}

fn schedule_wake(node: &mut FabNode, id: NodeId, now: SimTime, fx: &mut Effects<FabEvent>) {
    if node.crashed {
        return;
    }
    let Some(wake) = node.pbft.next_wake() else {
        return;
    };
    let wake = wake.max(now + SimDuration::from_micros(1));
    if node.wake_scheduled.is_none_or(|t| wake < t) {
        node.wake_scheduled = Some(wake);
        fx.schedule(wake, FabEvent::Wake { node: id });
    }
}

fn dispatch(
    ctx: &FabCtx,
    node: &mut FabNode,
    from: NodeId,
    now: SimTime,
    actions: Vec<Action>,
    fx: &mut Effects<FabEvent>,
) {
    for action in actions {
        match action {
            Action::Send(to, msg) => send_msg(to, msg, fx),
            Action::Broadcast(msg) => {
                // An equivocating primary forks its proposal: the lower half
                // of the peers (by id) hears the honest batch, the upper half
                // a forged one with a correctly recomputed digest — so the
                // malformed-proposal guard cannot reject it and only the
                // cross-subset prepare/commit digest comparison can. With a
                // floor split neither subset reaches the n−f quorum, so
                // honest replicas stall seq-locally, detect the conflict,
                // and recover liveness through the view change.
                if node.equivocating {
                    if let PbftMsg::PrePrepare { view, seq, batch, .. } = &msg {
                        let mut forged = batch.to_vec();
                        forged.push(b"equivocated-request".to_vec().into());
                        let forged = Batch::from(forged);
                        let peers: Vec<NodeId> =
                            (0..ctx.config.nodes).map(NodeId).filter(|&t| t != from).collect();
                        let split = peers.len() / 2;
                        for (i, &to) in peers.iter().enumerate() {
                            if i < split {
                                send_msg(to, msg.clone(), fx);
                            } else {
                                let fork = PbftMsg::PrePrepare {
                                    view: *view,
                                    seq: *seq,
                                    digest: forged.digest(),
                                    batch: forged.clone(),
                                };
                                send_msg(to, fork, fx);
                            }
                        }
                        continue;
                    }
                }
                for to in (0..ctx.config.nodes).map(NodeId) {
                    if to != from {
                        send_msg(to, msg.clone(), fx);
                    }
                }
            }
            Action::CommitBatch { seq, batch } => commit_batch(ctx, node, from, now, seq, batch),
            // A replica jumped past history its peer no longer holds (a
            // trimmed log, or a peer that restarted above it). A restart
            // transfers state instead (`restart_node`), but a live
            // replica's gap sync can still land here; no state transfer
            // runs — the replica keeps serving consensus from the
            // checkpoint on, without the jumped-over batches.
            Action::InstallCheckpoint { .. } => {}
        }
    }
}

/// Queue a consensus message into the network outbox. Delivery time (and
/// loss under faults) is decided when the handler returns; corrupted messages
/// fail signature verification at the receiver and are discarded (the
/// paper's "random response" fault, Section 3.3).
fn send_msg(to: NodeId, msg: PbftMsg, fx: &mut Effects<FabEvent>) {
    let from = NodeId(fx.lane());
    let bytes = msg.byte_size();
    fx.send(to.0, bytes, move |_at| FabEvent::Consensus { to, from, msg });
}

/// Execute a deduplicated batch as Fabric v0.6 does: one chaincode
/// invocation after another against the live state, each billed its
/// invocation time — and on the host, once per world. A peer whose state
/// is sealed and whose disk is not slowed (a slow disk bills the reads)
/// first looks the batch up among the world's recent outcomes; on a hit it
/// installs that outcome's writes instead of running the chaincodes, on a
/// miss it runs them and keeps the outcome. Either way the peer bills its
/// own charge and seals its own block. With debug assertions on, a hit
/// runs the chaincodes too and asserts that they did what the hit says.
fn execute_batch_txs(
    ctx: &FabCtx,
    node: &mut FabNode,
    me: NodeId,
    height: u64,
    txs: &[Arc<Transaction>],
) -> Arc<BatchOutcome> {
    let disk = node.state.vfs();
    let slowed = disk.lock().expect("no holder of a disk panicked").op_latency_us() > 0;
    let key = (node.state.is_sealed() && !slowed).then(|| BatchKey {
        height,
        deployed: ctx.deploys.len(),
        pre_root: node.state.root(),
        ids: txs.iter().map(|tx| tx.id()).collect(),
    });
    let hit = key.as_ref().and_then(|key| ctx.outcomes.find(key));
    #[cfg(test)]
    if key.is_some() {
        ctx.lookups.lock().unwrap().push((me, height, hit.is_some()));
    }
    let outcome = match hit {
        Some(hit) if cfg!(debug_assertions) => {
            let ran = run_batch(ctx, node, height, txs);
            assert_eq!(ran, *hit, "{me} ran batch {height} unlike its cached outcome");
            hit
        }
        Some(hit) => {
            node.state.install_block(&hit.delta, hit.alloc_peak);
            hit
        }
        None => {
            let ran = Arc::new(run_batch(ctx, node, height, txs));
            if let Some(key) = key {
                ctx.outcomes.keep(key, Arc::clone(&ran));
            }
            ran
        }
    };
    node.counters.exec_serial_us += outcome.charge.as_micros();
    outcome
}

/// Run a batch's chaincodes, one after another, against the live state.
fn run_batch(
    ctx: &FabCtx,
    node: &mut FabNode,
    height: u64,
    txs: &[Arc<Transaction>],
) -> BatchOutcome {
    let mut receipts = Vec::with_capacity(txs.len());
    let mut charge = SimDuration::ZERO;
    let mut alloc_peak = 0;
    for tx in txs {
        let res = node.state.invoke(tx, height, true);
        charge += ctx.config.invoke_time(res.units, res.state_ops);
        alloc_peak = alloc_peak.max(res.peak_alloc);
        receipts.push((tx.id(), res.success));
    }
    // The root first: the delta then carries the Merkle level nodes the
    // batch rewrote, and a peer installing it hashes nothing.
    node.state.root();
    let delta = node.state.block_delta();
    let sealed = OnceLock::new();
    BatchOutcome { receipts, charge, alloc_peak, tx_root: tx_root(txs), delta, sealed }
}

/// Execute a committed batch and append the block.
fn commit_batch(
    ctx: &FabCtx,
    node: &mut FabNode,
    at: NodeId,
    now: SimTime,
    seq: u64,
    batch: Batch,
) {
    if node.recovery.snapshot_syncing {
        // The node's state is mid-transfer: executing against it would
        // diverge. The batch is not lost — the post-transfer `SyncRequest`
        // replays everything committed past the snapshot's floor.
        return;
    }
    let height = node.ledger.blocks.len() as u64 + 1;
    let mut txs: Vec<Arc<Transaction>> = Vec::with_capacity(batch.len());
    for req in batch.iter() {
        // Decoded once, where the request was made: every replica executes
        // and stores the same `Arc<Transaction>`.
        let Some(tx) = req.transaction() else {
            continue;
        };
        if !node.ledger.executed.insert(ctx.txs.index(&tx.id())) {
            continue; // re-proposed duplicate
        }
        txs.push(Arc::clone(tx));
    }
    let outcome = execute_batch_txs(ctx, node, at, height, &txs);
    node.cpu.charge(now, outcome.charge);
    // Execution occupies the same event loop as message processing:
    // the next drain waits for it.
    node.pipeline_penalty += outcome.charge;
    let proposer = NodeId((seq % ctx.config.nodes as u64) as u32);
    let receipts = outcome.receipts.clone();
    let block_bytes = node.append_block(
        at,
        now,
        txs,
        receipts,
        outcome.tx_root,
        Some((seq, proposer, &outcome.sealed)),
    );
    if node.recovery.restarted_at.is_some() {
        node.counters.resync_blocks += 1;
        node.counters.resync_bytes += block_bytes;
        node.recovery.close_if_reached(seq, now, &mut node.counters);
    }
}

/// Serve a recovering peer the next chunk of this peer's store. The first
/// request freezes a copy at a block boundary (commits are atomic batches),
/// replacing any earlier one for that peer; every chunk reads it, and the
/// last drops it. A follow-up with no copy (this peer crashed mid-serve)
/// goes unanswered. A copy whose requester died stays until this peer
/// crashes — bounded garbage, like a snapshot server's lease.
fn on_snapshot_request(
    ctx: &FabCtx,
    node: &mut FabNode,
    me: NodeId,
    from: NodeId,
    after: Option<Vec<u8>>,
    fx: &mut Effects<FabEvent>,
) {
    if node.crashed {
        return;
    }
    if after.is_none() {
        node.serving.retain(|(peer, _)| *peer != from);
        node.serving.push((from, node.state.frozen_store()));
    }
    let Some(i) = node.serving.iter().position(|(peer, _)| *peer == from) else {
        return;
    };
    let max_bytes = ctx.config.snapshot_chunk_bytes;
    let read = node.serving[i].1.scan_range_chunk(after.as_deref(), max_bytes);
    let (entries, done) = read.expect("frozen store readable");
    if done {
        node.serving.remove(i);
    }
    let bytes = chunk_wire_bytes(&entries);
    let chunk = FabEvent::SnapshotChunk { to: from, from: me, entries: Arc::new(entries), done };
    fx.send(from.0, bytes, move |_at| chunk);
}

/// Apply a received snapshot chunk; on the final chunk, reopen the
/// transferred store as a restart does — its WAL replay is the transfer's
/// own writes, so it counts as none — and replay anything committed since
/// its floor through a `SyncRequest`.
#[allow(clippy::too_many_arguments)]
fn on_snapshot_chunk(
    ctx: &FabCtx,
    node: &mut FabNode,
    me: NodeId,
    now: SimTime,
    from: NodeId,
    entries: Arc<Vec<(Vec<u8>, Vec<u8>)>>,
    done: bool,
    fx: &mut Effects<FabEvent>,
) {
    if node.crashed || !node.recovery.snapshot_syncing {
        return;
    }
    node.counters.snapshot_chunks += 1;
    node.counters.snapshot_bytes += chunk_wire_bytes(&entries);
    node.state.apply_snapshot_entries(&entries).expect("fresh store healthy");
    if !done {
        let after = entries.last().map(|(k, _)| k.clone());
        fx.send(from.0, 64, move |_at| FabEvent::SnapshotRequest { to: from, from: me, after });
        return;
    }
    let floor = node.reopen(ctx, me);
    node.recovery.snapshot_syncing = false;
    node.recovery.close_if_reached(floor, now, &mut node.counters);
    // Batches committed while the transfer ran replay through the normal
    // resync path.
    send_msg(from, PbftMsg::SyncRequest { from_seq: floor }, fx);
    schedule_wake(node, me, now, fx);
}

/// The PBFT parameters of a network configured by `config` — the same at
/// construction, restart and snapshot-sync resume.
fn pbft_config(config: &FabricConfig) -> PbftConfig {
    PbftConfig {
        n: config.nodes,
        batch_size: config.batch_size,
        batch_timeout: config.batch_timeout,
        view_timeout: config.view_timeout,
        recruit_quota: config.pbft_recruit_quota,
        ..PbftConfig::default()
    }
}

impl FabricChain {
    /// Build a PBFT network per `config`.
    pub fn new(config: FabricConfig) -> FabricChain {
        let mut rng = SimRng::seed_from_u64(config.seed);
        let pbft_config = pbft_config(&config);
        let ctx = FabCtx {
            config: config.clone(),
            deploys: Vec::new(),
            blank: Vfs::new(),
            outcomes: RecentOutcomes::default(),
            txs: TxTable::default(),
            #[cfg(test)]
            lookups: Mutex::default(),
        };
        let nodes = (0..config.nodes)
            .map(|i| FabNode {
                pbft: PbftNode::new(NodeId(i), pbft_config.clone()),
                state: ctx.open_state(ctx.blank_disk()),
                serving: Vec::new(),
                inbox: VecDeque::new(),
                draining: false,
                drain_generation: 0,
                ledger: Ledger::default(),
                cpu: CpuMeter::new(config.cores),
                dropped_msgs: 0,
                crashed: false,
                equivocating: false,
                wake_scheduled: None,
                ingress_busy_until: SimTime::ZERO,
                pipeline_penalty: SimDuration::ZERO,
                confirmed: Vec::new(),
                recovery: RecoveryWindow::default(),
                counters: NodeCounters::default(),
            })
            .collect();
        let network = Network::new(config.nodes, config.link.clone(), rng.fork());
        let engine = ShardedEngine::new(ctx, nodes, network.min_latency());
        FabricChain { config, engine, network }
    }

    /// Restart a crashed peer from its durable store: reopen it, then ask
    /// a live peer for the committed batches past its floor — or, when that
    /// gap is too deep to replay batch by batch, for its whole store in
    /// bounded chunks. Likewise when the crash tore a transfer: the store
    /// then holds block records whose state never fully arrived, so its
    /// floor says nothing about what can be replayed onto it. Likewise when
    /// the peer's retained log starts above the floor (it restarted above
    /// it): it would answer with a checkpoint jump over batches never
    /// executed here. With no live peer the peer is caught up as it stands.
    fn restart_node(&mut self, id: NodeId) {
        assert!(self.network.is_crashed(id), "Restart of live {id}: crash it first");
        let now = self.engine.now();
        let peer = self.network.first_live_peer(id);
        let peer_log = peer.map(|p| {
            self.engine.with_node(p.0, |n| (n.pbft.checkpoint().0, n.pbft.last_committed()))
        });
        let peer_floor = peer_log.map(|(_, committed)| committed);
        let (floor, snapshot) = self.engine.with_ctx_node_mut(id.0, |ctx, n| {
            let torn = n.recovery.snapshot_syncing;
            let floor = n.reopen(ctx, id);
            // A restart counts the WAL it replays; a transfer's landing,
            // which replays only what the transfer wrote, does not.
            let st = n.state.store_stats();
            n.counters.wal_replayed += st.wal_records_replayed;
            n.counters.wal_truncated += st.wal_tail_truncated;
            let deep = |t: u64| t.saturating_sub(floor) > ctx.config.snapshot_sync_blocks;
            let snapshot =
                peer_log.is_some_and(|(retained_from, t)| torn || deep(t) || floor < retained_from);
            if snapshot {
                // Discard the durable prefix: the transfer lands on a blank
                // disk, and PBFT stays at the durable floor until it does.
                n.state = ctx.open_state(ctx.blank_disk());
                n.ledger = Ledger::default();
            }
            n.crashed = false;
            let sync_target = peer_floor.filter(|&t| t > floor);
            n.recovery = RecoveryWindow {
                restarted_at: sync_target.map(|_| now),
                sync_target,
                snapshot_syncing: snapshot,
            };
            (floor, snapshot)
        });
        self.network.recover(id);
        if let Some(peer) = peer {
            if snapshot {
                // Freeze a copy of the peer's store and stream it.
                self.engine
                    .schedule(now, FabEvent::SnapshotRequest { to: peer, from: id, after: None });
            } else {
                // Fetch the committed batches past the durable floor.
                self.engine.schedule(
                    now,
                    FabEvent::Consensus {
                        to: peer,
                        from: id,
                        msg: PbftMsg::SyncRequest { from_seq: floor },
                    },
                );
            }
        }
        // Restart the PBFT timers.
        self.engine.schedule(now, FabEvent::Wake { node: id });
    }

    /// Consensus-message drops so far (diagnostics for the collapse).
    pub fn dropped_messages(&self) -> u64 {
        (0..self.config.nodes)
            .map(|i| self.engine.with_node(i, |n| n.dropped_msgs))
            .sum()
    }
}

impl BlockchainConnector for FabricChain {
    fn name(&self) -> &'static str {
        "hyperledger"
    }

    fn node_count(&self) -> u32 {
        self.config.nodes
    }

    /// Numbered by the deploy log: a fresh chain's first deploy is index 0.
    fn deploy(&mut self, bundle: &ContractBundle) -> Address {
        let deployed = self.engine.with_ctx(|ctx| ctx.deploys.len()) as u64;
        let addr = Address::contract(&Address::ZERO, deployed);
        for i in 0..self.config.nodes {
            self.engine.with_node_mut(i, |node| node.state.install(addr, bundle.native));
        }
        self.engine.with_ctx_mut(|ctx| ctx.deploys.push((addr, bundle.native)));
        addr
    }

    fn submit(&mut self, server: NodeId, tx: Transaction) -> bool {
        if self.network.is_crashed(server) {
            // A crashed peer's gRPC endpoint refuses connections; the client
            // sees the failure and does not burn a nonce on it.
            return false;
        }
        // The transaction enters the world here: every peer's `commit_batch`
        // looks its index up.
        self.engine.with_ctx_mut(|ctx| ctx.txs.intern(tx.id()));
        let now = self.engine.now();
        let rpc_delay = self.config.rpc_delay;
        let ingress_interval = self.config.ingress_interval;
        // The RPC ingress thread admits requests at a fixed pace; excess
        // queues here (client-visible latency), never inside consensus.
        let at = self.engine.with_node_mut(server.0, |node| {
            let at = node.ingress_busy_until.max(now + rpc_delay) + ingress_interval;
            node.ingress_busy_until = at;
            at
        });
        self.engine.schedule(at, FabEvent::Ingress { to: server, req: tx.into() });
        true
    }

    fn advance_to(&mut self, t: SimTime) {
        self.engine.run_until(t, &mut self.network);
    }

    fn now(&self) -> SimTime {
        self.engine.now()
    }

    fn confirmed_blocks_since(&mut self, height: u64) -> Vec<BlockSummary> {
        self.engine.with_node(0, |node| {
            node.confirmed.iter().filter(|b| b.height > height).cloned().collect()
        })
    }

    fn query(&mut self, q: &Query) -> Result<QueryResult, QueryError> {
        match q {
            Query::BlockTxs { height } => {
                let idx = (*height as usize).checked_sub(1).ok_or(QueryError::NotFound)?;
                self.engine.with_node(0, |node| {
                    let block = node.ledger.blocks.get(idx).ok_or(QueryError::NotFound)?;
                    let cost = SimDuration::from_micros(20 + 4 * block.txs.len() as u64);
                    Ok(QueryResult::block_txs(block, cost))
                })
            }
            Query::AccountAtBlock { .. } => {
                // "the system does not have APIs to query historical
                // states" (Section 3.4.2) — use the VersionKVStore
                // chaincode instead.
                Err(QueryError::Unsupported)
            }
            Query::Contract { address, payload } => {
                let invoke_time =
                    |units, ops| self.config.invoke_time(units, ops);
                self.engine.with_node_mut(0, |node| {
                    let kp = bb_crypto::KeyPair::from_seed(0);
                    let tx = Transaction::signed(&kp, 0, *address, 0, payload.clone());
                    let height = node.ledger.blocks.len() as u64;
                    let res = node.state.invoke(&tx, height, false);
                    if !res.success {
                        return Err(QueryError::Contract(
                            res.error.unwrap_or_else(|| "chaincode error".into()),
                        ));
                    }
                    Ok(QueryResult {
                        data: res.output,
                        server_cost: invoke_time(res.units, res.state_ops),
                    })
                })
            }
        }
    }

    fn inject(&mut self, fault: Fault) {
        match fault {
            Fault::Crash(node) => {
                self.network.crash(node);
                self.engine.with_node_mut(node.0, FabNode::crash);
            }
            Fault::Restart(node) => self.restart_node(node),
            Fault::TornTail(node) => {
                let vfs = self.engine.with_node(node.0, |n| n.state.vfs());
                FaultVfs::new(vfs, self.config.seed ^ 0xF417_7A11 ^ node.0 as u64)
                    .tear_tail(&format!("{STORE_PREFIX}/wal"));
            }
            Fault::Delay(node, d) => self.network.set_extra_delay(node, d),
            Fault::Corrupt(node, p) => self.network.set_corrupt_prob(node, p),
            Fault::PartitionHalf { left } => self.network.partition_in_half(left),
            Fault::PartitionAsymmetric { left } => self.network.partition_asymmetric(left),
            Fault::GossipJitter(amplitude) => self.network.set_gossip_jitter(amplitude),
            Fault::SlowDisk(node, per_op) => {
                let vfs = self.engine.with_node(node.0, |n| n.state.vfs());
                vfs.lock().unwrap().set_op_latency_us(per_op.as_micros());
            }
            Fault::Equivocate(node) => {
                self.engine.with_node_mut(node.0, |n| n.equivocating = true);
            }
            Fault::Heal => self.network.heal(),
        }
    }

    fn stats(&self) -> PlatformStats {
        let (blocks, txs_committed) = self.engine.with_node(0, |node| {
            let txs = node.confirmed.iter().map(|b| b.txs.len() as u64).sum();
            (node.ledger.blocks.len() as u64, txs)
        });
        // Fabric's Bucket-Merkle state has no Patricia node cache, and the
        // platform cannot tell a byzantine submission apart (the chaos
        // runner attributes those): both stay at their zero defaults.
        let mut stats = PlatformStats {
            // PBFT never forks: every committed block is on the chain.
            blocks_total: blocks,
            blocks_main: blocks,
            txs_committed,
            net_bytes: self.network.stats().bytes,
            partition_flaps: self.network.partition_flaps(),
            ..Default::default()
        };
        let mut disk_stall_us = 0u64;
        for i in 0..self.config.nodes {
            let net = self.network.tx_mbps_series(NodeId(i));
            self.engine.with_node(i, |node| {
                node.fold_into(&mut stats, &self.config, &net);
                disk_stall_us += node.state.vfs().lock().unwrap().stall_us();
            });
        }
        stats.disk_stall_ms = disk_stall_us / 1000;
        stats
    }

    fn committed_chain(&self, node: NodeId) -> Vec<ChainEntry> {
        self.engine.with_node(node.0, |n| {
            n.ledger
                .blocks
                .iter()
                .map(|b| ChainEntry {
                    height: b.header.height,
                    id: b.id(),
                    parent: b.header.parent,
                    state_root: b.header.state_root,
                })
                .collect()
        })
    }

    fn preload_blocks(&mut self, blocks: Vec<Vec<Transaction>>) {
        let now = self.engine.now();
        let before = self.engine.with_node_mut(0, |n| (n.ledger.blocks.len(), n.state.root()));
        for txs in blocks {
            let txs: Vec<Arc<Transaction>> = txs.into_iter().map(Arc::new).collect();
            // Preloaded transactions enter the world here.
            let indices: Vec<u32> = self
                .engine
                .with_ctx_mut(|ctx| txs.iter().map(|tx| ctx.txs.intern(tx.id())).collect());
            self.engine.with_node_mut(0, |node| {
                let height = node.ledger.blocks.len() as u64 + 1;
                let mut receipts = Vec::with_capacity(txs.len());
                for (tx, &i) in txs.iter().zip(&indices) {
                    node.ledger.executed.insert(i);
                    let res = node.state.invoke(tx, height, true);
                    receipts.push((tx.id(), res.success));
                }
                let root = tx_root(&txs);
                node.append_block(NodeId(0), now, txs, receipts, root, None);
            });
        }
        // Preloading is consensus-free and identical on every peer: the
        // others take node 0's result instead of recomputing it. A peer that
        // is not still where node 0 started (the run began and they moved
        // apart) is no twin of it, and overwriting it would hide that.
        for i in 1..self.config.nodes {
            self.engine.with_first_and_node_mut(i, |first, node| {
                assert_eq!(
                    (node.ledger.blocks.len(), node.state.root()),
                    before,
                    "preload after replicas diverged: peer {i}'s (block count, state root) is \
                     not node 0's from before the preload"
                );
                node.state.copy_state_from(&first.state);
                node.ledger = first.ledger.clone();
            });
        }
    }

    fn execute_direct(&mut self, tx: Transaction) -> DirectExec {
        let msg_process_cost = self.config.msg_process_cost;
        let invoke_time = |units, ops| self.config.invoke_time(units, ops);
        let mem_base = self.config.mem_base;
        self.engine.with_node_mut(0, |node| {
            let height = node.ledger.blocks.len() as u64;
            let res = node.state.invoke(&tx, height, true);
            // Each direct execution is its own "block" on this path.
            node.state.commit_block().expect("state store healthy");
            DirectExec {
                success: res.success,
                duration: msg_process_cost + invoke_time(res.units, res.state_ops),
                gas_used: res.units,
                modeled_mem: mem_base + res.peak_alloc,
                output: res.output,
                error: res.error,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_contracts::testing::ycsb_and_smallbank_setup;
    use bb_contracts::{donothing, ycsb};
    use bb_crypto::KeyPair;
    use bb_sim::OUTCOMES_KEPT;

    fn chain(nodes: u32) -> FabricChain {
        FabricChain::new(FabricConfig::with_nodes(nodes))
    }

    fn client_tx(seed: u64, nonce: u64, to: Address, payload: Vec<u8>) -> Transaction {
        Transaction::signed(&KeyPair::from_seed(seed), nonce, to, 0, payload)
    }

    /// The transactions of every block peer `i` holds, by height.
    fn block_txs(c: &FabricChain, i: u32) -> Vec<Vec<Arc<Transaction>>> {
        c.engine.with_node(i, |n| n.ledger.blocks.iter().map(|b| b.txs.clone()).collect())
    }

    #[test]
    fn transactions_commit_within_a_batch_timeout() {
        let mut c = chain(4);
        let addr = c.deploy(&ycsb::bundle());
        for nonce in 0..10 {
            c.submit(NodeId((nonce % 4) as u32), client_tx(1, nonce, addr, ycsb::write_call(nonce, b"v")));
        }
        c.advance_to(SimTime::from_secs(3));
        let committed: usize = c.confirmed_blocks_since(0).iter().map(|b| b.txs.len()).sum();
        assert_eq!(committed, 10);
        // Committed fast: within ~batch timeout + a few network hops.
        let first = &c.confirmed_blocks_since(0)[0];
        assert!(first.confirmed_at_us < 1_500_000, "took {}µs", first.confirmed_at_us);
    }

    #[test]
    fn all_peers_hold_identical_chains() {
        let mut c = chain(4);
        let addr = c.deploy(&ycsb::bundle());
        for nonce in 0..50 {
            c.submit(NodeId((nonce % 4) as u32), client_tx(2, nonce, addr, ycsb::write_call(nonce, b"x")));
        }
        c.advance_to(SimTime::from_secs(5));
        let reference: Vec<Hash256> =
            c.engine.with_node(0, |n| n.ledger.blocks.iter().map(|b| b.id()).collect());
        assert!(!reference.is_empty());
        for i in 1..4 {
            let other: Vec<Hash256> =
                c.engine.with_node(i, |n| n.ledger.blocks.iter().map(|b| b.id()).collect());
            assert_eq!(other, reference, "node {i} diverged");
        }
        // State roots and executed sets agree too.
        let root = c.engine.with_node_mut(0, |n| n.state.root());
        let executed = c.engine.with_node(0, |n| n.ledger.executed.clone());
        assert_eq!(executed, (0..50).collect(), "submitted in order, numbered in order");
        for i in 1..4 {
            assert_eq!(c.engine.with_node_mut(i, |n| n.state.root()), root);
            assert_eq!(c.engine.with_node(i, |n| n.ledger.executed.clone()), executed);
        }
        // And the chains are not four copies: every peer's block holds the
        // one `Arc<Transaction>` its request carried through consensus.
        let shared = block_txs(&c, 0);
        assert_eq!(shared.iter().map(Vec::len).sum::<usize>(), 50);
        for i in 1..4 {
            let other = block_txs(&c, i);
            for (h, (ours, theirs)) in shared.iter().zip(&other).enumerate() {
                assert_eq!(ours.len(), theirs.len());
                for (k, (a, b)) in ours.iter().zip(theirs).enumerate() {
                    assert!(Arc::ptr_eq(a, b), "node {i} block {h} tx {k} is a private copy");
                }
            }
        }
    }

    /// A transaction submitted at two peers, the second time after it
    /// committed, is one entry in the world's table and executes once on
    /// every peer.
    #[test]
    fn tx_table_enters_a_transaction_submitted_twice_once() {
        let mut c = chain(4);
        let addr = c.deploy(&donothing::bundle());
        let tx = client_tx(1, 0, addr, donothing::call());
        assert!(c.submit(NodeId(0), tx.clone()));
        c.advance_to(SimTime::from_secs(3));
        assert!(c.submit(NodeId(1), tx.clone()));
        c.advance_to(SimTime::from_secs(6));
        assert_eq!(c.engine.with_ctx(|ctx| (ctx.txs.len(), ctx.txs.index(&tx.id()))), (1, 0));
        for i in 0..4 {
            let (receipts, executed) =
                c.engine.with_node(i, |n| (n.ledger.receipts.concat(), n.ledger.executed.clone()));
            assert_eq!(receipts, [(tx.id(), true)], "peer {i} executed it other than once");
            // PBFT ordered the second copy too: its block is empty.
            let sizes: Vec<usize> = block_txs(&c, i).iter().map(Vec::len).collect();
            assert_eq!(sizes, [1, 0], "peer {i}");
            assert_eq!(executed, [0].into_iter().collect(), "peer {i}");
        }
    }

    /// A restarted peer rebuilds its executed set from its durable blocks,
    /// preloaded ones included, on the world's index space: the same bits
    /// as a peer that stayed up.
    #[test]
    fn tx_table_restarted_peer_recovers_the_executed_bits_of_a_live_one() {
        let mut c = chain(4);
        let addr = c.deploy(&ycsb::bundle());
        let write = |seed, nonce| client_tx(seed, nonce, addr, ycsb::write_call(nonce, b"v"));
        c.preload_blocks(vec![(0..5).map(|nonce| write(1, nonce)).collect()]);
        for nonce in 0..20 {
            assert!(c.submit(NodeId((nonce % 4) as u32), write(2, nonce)));
        }
        c.advance_to(SimTime::from_secs(5));
        let executed = |c: &FabricChain, i| c.engine.with_node(i, |n| n.ledger.executed.clone());
        let live = executed(&c, 0);
        assert_eq!(live, (0..25).collect());
        c.inject(Fault::Crash(NodeId(3)));
        c.inject(Fault::Restart(NodeId(3)));
        assert_eq!(c.engine.with_node(3, |n| n.ledger.blocks.len()), 2, "not a restart from disk");
        assert_eq!(executed(&c, 3), live);
    }

    /// Everything set-up leaves on a peer that a run can later observe, bar
    /// the observer's log: chain, receipts, executed set, state root, store
    /// and tree counters, the memory meter, and the disk (files, I/O counters,
    /// fault settings).
    fn footprint(c: &mut FabricChain, i: u32) -> impl PartialEq + std::fmt::Debug {
        let entries = c.committed_chain(NodeId(i));
        c.engine.with_node_mut(i, |n| {
            let disk = n.state.vfs().lock().unwrap().clone();
            let counts = (n.state.store_stats(), n.state.flush_stats(), n.state.mem_peak());
            let ledger = (n.ledger.receipts.clone(), n.ledger.executed.clone());
            (entries, ledger, n.state.root(), counts, disk)
        })
    }

    #[test]
    fn twin_peers_after_setup_each_own_their_copied_disk() {
        let mut c = chain(4);
        let (kv, _) = ycsb_and_smallbank_setup(&mut c);
        // 5 + 4 preloaded blocks, and every peer is node 0's twin...
        let want = footprint(&mut c, 0);
        assert_eq!(c.committed_chain(NodeId(0)).len(), 9);
        for i in 1..4 {
            assert_eq!(footprint(&mut c, i), want, "peer {i} is no twin of node 0");
            // ...on a disk of its own, without the observer's log, and with
            // its own chaincodes still installed.
            let disks = |j| c.engine.with_node(j, |n| n.state.vfs());
            assert!(!Arc::ptr_eq(&disks(0), &disks(i)), "peer {i} writes to node 0's disk");
            assert_eq!(c.engine.with_node(i, |n| n.confirmed.len()), 0);
            assert!(c.engine.with_node(i, |n| n.state.has_chaincode(&kv)));
        }
        assert_eq!(c.confirmed_blocks_since(0).iter().map(|b| b.txs.len()).sum::<usize>(), 200);

        // The copied WAL, manifest and tables really are peer 2's own: a
        // power cut and a restart from them alone brings it back.
        for nonce in 0..30 {
            c.submit(NodeId((nonce % 4) as u32), client_tx(7, nonce, kv, ycsb::write_call(nonce, b"v")));
        }
        c.advance_to(SimTime::from_secs(5));
        c.inject(Fault::Crash(NodeId(2)));
        c.inject(Fault::TornTail(NodeId(2)));
        for nonce in 30..60 {
            c.submit(NodeId((nonce % 2) as u32), client_tx(7, nonce, kv, ycsb::write_call(nonce, b"w")));
        }
        c.advance_to(SimTime::from_secs(10));
        c.inject(Fault::Restart(NodeId(2)));
        let recovered = c.engine.with_node(2, |n| n.ledger.blocks.len());
        assert!(recovered >= 9, "copied prefix not durable: {recovered} blocks recovered");
        c.advance_to(SimTime::from_secs(25));
        assert_eq!(c.committed_chain(NodeId(2)), c.committed_chain(NodeId(0)));
        assert_eq!(
            c.engine.with_node_mut(2, |n| n.state.root()),
            c.engine.with_node_mut(0, |n| n.state.root())
        );
        let s = c.stats();
        assert!(s.wal_records_replayed > 0, "nothing replayed from the copied WAL");
        assert!(s.recovery_ms > 0, "recovery never completed");
        assert_eq!(c.confirmed_blocks_since(0).iter().map(|b| b.txs.len()).sum::<usize>(), 260);
    }

    #[test]
    #[should_panic(expected = "preload after replicas diverged")]
    fn preload_refuses_once_the_run_has_moved_peers_apart() {
        let mut c = chain(4);
        let addr = c.deploy(&ycsb::bundle());
        // Peer 2 sleeps through a committed batch.
        c.inject(Fault::Crash(NodeId(2)));
        for nonce in 0..10 {
            c.submit(NodeId(0), client_tx(1, nonce, addr, ycsb::write_call(nonce, b"v")));
        }
        c.advance_to(SimTime::from_secs(3));
        assert!(!c.confirmed_blocks_since(0).is_empty());
        c.preload_blocks(vec![vec![client_tx(2, 0, addr, ycsb::write_call(99, b"late"))]]);
    }

    #[test]
    fn four_of_twelve_crashes_stall_the_network() {
        let mut c = chain(12);
        let addr = c.deploy(&donothing::bundle());
        for i in 8..12 {
            c.inject(Fault::Crash(NodeId(i)));
        }
        for nonce in 0..20 {
            c.submit(NodeId(nonce as u32 % 8), client_tx(1, nonce, addr, donothing::call()));
        }
        c.advance_to(SimTime::from_secs(60));
        // Quorum is n - f = 9 > 8 alive: nothing can commit (Figure 9).
        assert!(c.confirmed_blocks_since(0).is_empty());
    }

    #[test]
    fn four_of_sixteen_crashes_recover_via_view_change() {
        let mut c = chain(16);
        let addr = c.deploy(&donothing::bundle());
        // Crash the primary (node 0 is view-0 primary? no: keep node 0 as
        // observer; crash 1..5 including nothing special) — crash 4 backups.
        for i in 12..16 {
            c.inject(Fault::Crash(NodeId(i)));
        }
        for nonce in 0..20 {
            c.submit(NodeId(nonce as u32 % 8), client_tx(1, nonce, addr, donothing::call()));
        }
        c.advance_to(SimTime::from_secs(60));
        // Quorum 11 ≤ 12 alive: commits happen.
        let committed: usize = c.confirmed_blocks_since(0).iter().map(|b| b.txs.len()).sum();
        assert_eq!(committed, 20);
    }

    #[test]
    fn primary_crash_recovers_after_view_change() {
        let mut c = chain(4);
        let addr = c.deploy(&donothing::bundle());
        c.inject(Fault::Crash(NodeId(0)));
        for nonce in 0..5 {
            c.submit(NodeId(1 + nonce as u32 % 3), client_tx(1, nonce, addr, donothing::call()));
        }
        c.advance_to(SimTime::from_secs(60));
        // Node 0 is the observer AND the crashed primary, so look at node 1.
        let (committed, view) = c.engine.with_node(1, |n| {
            (n.ledger.receipts.iter().map(Vec::len).sum::<usize>(), n.pbft.view())
        });
        assert_eq!(committed, 5, "view change did not recover the cluster");
        assert!(view > 0);
    }

    #[test]
    fn torn_tail_restart_recovers_durable_prefix_and_resyncs() {
        let mut c = chain(4);
        let addr = c.deploy(&ycsb::bundle());
        // Pace submissions across batch timeouts so the pre-crash chain
        // holds several blocks (several WAL appends).
        for wave in 0..10u64 {
            c.advance_to(SimTime::from_millis(wave * 400));
            for k in 0..3u64 {
                let nonce = wave * 3 + k;
                c.submit(
                    NodeId((nonce % 4) as u32),
                    client_tx(7, nonce, addr, ycsb::write_call(nonce, b"v")),
                );
            }
        }
        c.advance_to(SimTime::from_secs(5));
        let pre_blocks = c.engine.with_node(3, |n| n.ledger.blocks.len());
        assert!(pre_blocks > 1, "need several pre-crash blocks, got {pre_blocks}");
        // Kill node 3 and tear the tail off its WAL: the final committed
        // batch (state + block record, atomically) is lost.
        c.inject(Fault::Crash(NodeId(3)));
        c.inject(Fault::TornTail(NodeId(3)));
        // The cluster keeps committing while node 3 is down.
        for nonce in 30..60 {
            c.submit(
                NodeId((nonce % 3) as u32),
                client_tx(7, nonce, addr, ycsb::write_call(nonce, b"w")),
            );
        }
        c.advance_to(SimTime::from_secs(10));
        c.inject(Fault::Restart(NodeId(3)));
        // Immediately after restart the node holds a strict durable
        // prefix of its pre-crash chain (the torn batch is gone).
        let recovered_blocks = c.engine.with_node(3, |n| n.ledger.blocks.len());
        assert!(recovered_blocks < pre_blocks, "{recovered_blocks} vs {pre_blocks}");
        c.advance_to(SimTime::from_secs(25));
        // Caught back up: chain and state byte-identical to the cluster.
        let reference: Vec<Hash256> =
            c.engine.with_node(0, |n| n.ledger.blocks.iter().map(|b| b.id()).collect());
        let recovered: Vec<Hash256> =
            c.engine.with_node(3, |n| n.ledger.blocks.iter().map(|b| b.id()).collect());
        assert_eq!(recovered, reference);
        assert_eq!(
            c.engine.with_node_mut(3, |n| n.state.root()),
            c.engine.with_node_mut(0, |n| n.state.root())
        );
        let s = c.stats();
        assert!(s.wal_tail_truncated >= 1, "torn tail never hit the WAL");
        assert!(s.wal_records_replayed > 0);
        assert!(s.resync_blocks > 0);
        assert!(s.recovery_ms > 0);
        let committed: usize = c.confirmed_blocks_since(0).iter().map(|b| b.txs.len()).sum();
        assert_eq!(committed, 60);
        // Blocks the restarted peer rebuilt from its own `!b/` records hold
        // transactions it decoded from its store — private copies, equal by
        // value. Everything it committed after the restart, through
        // consensus or a `SyncReply`, is the cluster's shared allocation.
        let (ours, theirs) = (block_txs(&c, 3), block_txs(&c, 0));
        assert!(0 < recovered_blocks && recovered_blocks < ours.len());
        for (h, (mine, reference)) in ours.iter().zip(&theirs).enumerate() {
            assert_eq!(mine, reference);
            for (a, b) in mine.iter().zip(reference) {
                assert_eq!(Arc::ptr_eq(a, b), h >= recovered_blocks, "block {h}");
            }
        }
    }

    #[test]
    fn deep_gap_restart_uses_snapshot_sync_instead_of_replay() {
        let mut config = FabricConfig::with_nodes(4);
        config.snapshot_sync_blocks = 3; // force the snapshot path on a modest gap
        let mut c = FabricChain::new(config);
        let addr = c.deploy(&ycsb::bundle());
        for wave in 0..5u64 {
            c.advance_to(SimTime::from_millis(wave * 400));
            for k in 0..3u64 {
                let nonce = wave * 3 + k;
                c.submit(
                    NodeId((nonce % 4) as u32),
                    client_tx(9, nonce, addr, ycsb::write_call(nonce, b"v")),
                );
            }
        }
        c.advance_to(SimTime::from_secs(4));
        c.inject(Fault::Crash(NodeId(3)));
        // The cluster commits well past the threshold while node 3 is down.
        for wave in 0..12u64 {
            c.advance_to(SimTime::from_secs(4) + SimDuration::from_millis(wave * 400));
            for k in 0..3u64 {
                let nonce = 15 + wave * 3 + k;
                c.submit(
                    NodeId((nonce % 3) as u32),
                    client_tx(9, nonce, addr, ycsb::write_call(nonce, b"w")),
                );
            }
        }
        c.advance_to(SimTime::from_secs(12));
        let gap = c.engine.with_node(0, |n| n.pbft.last_committed())
            - c.engine.with_node(3, |n| n.pbft.last_committed());
        assert!(gap > 3, "cluster only moved {gap} batches during the outage");
        c.inject(Fault::Restart(NodeId(3)));
        // The durable prefix was discarded in favour of a full snapshot pull.
        assert!(c.engine.with_node(3, |n| n.recovery.snapshot_syncing));
        c.advance_to(SimTime::from_secs(25));
        // Caught back up: chain and state byte-identical to the cluster.
        let reference: Vec<Hash256> =
            c.engine.with_node(0, |n| n.ledger.blocks.iter().map(|b| b.id()).collect());
        let recovered: Vec<Hash256> =
            c.engine.with_node(3, |n| n.ledger.blocks.iter().map(|b| b.id()).collect());
        assert_eq!(recovered, reference);
        assert_eq!(
            c.engine.with_node_mut(3, |n| n.state.root()),
            c.engine.with_node_mut(0, |n| n.state.root())
        );
        let s = c.stats();
        assert!(s.snapshot_chunks > 0, "snapshot path never engaged");
        assert!(s.snapshot_bytes > 0);
        assert!(s.recovery_ms > 0, "recovery never completed");
        // Only batches committed *during* the transfer replayed; the deep
        // gap itself travelled as raw store chunks.
        assert!(
            (s.resync_blocks as usize) < reference.len() / 2,
            "replayed {} of {} blocks",
            s.resync_blocks,
            reference.len()
        );
        let committed: usize = c.confirmed_blocks_since(0).iter().map(|b| b.txs.len()).sum();
        assert_eq!(committed, 51);
    }

    /// A crash that tears a snapshot transfer after every `!b/` record has
    /// landed (they sort before the `s:` state keys) leaves a store whose
    /// block records claim a floor its state never reached. A restart within
    /// `snapshot_sync_blocks` of the peer must not replay onto it: it opens
    /// a fresh transfer and ends on node 0's chain and state.
    #[test]
    fn restart_after_a_torn_transfer_transfers_afresh() {
        let mut config = FabricConfig::with_nodes(4);
        (config.snapshot_sync_blocks, config.snapshot_chunk_bytes) = (3, 512);
        let sync_blocks = config.snapshot_sync_blocks;
        let mut c = FabricChain::new(config);
        let addr = c.deploy(&ycsb::bundle());
        let mut nonce = 0u64;
        let mut load = |c: &mut FabricChain, servers: u64, secs: u64| {
            while c.now() < SimTime::from_secs(secs) {
                let tx = client_tx(9, nonce, addr, ycsb::write_call(nonce, b"v"));
                assert!(c.submit(NodeId((nonce % servers) as u32), tx));
                nonce += 1;
                c.advance_to(c.now() + SimDuration::from_millis(100));
            }
        };
        let syncing = |c: &FabricChain| c.engine.with_node(3, |n| n.recovery.snapshot_syncing);
        load(&mut c, 4, 2);
        c.inject(Fault::Crash(NodeId(3)));
        load(&mut c, 3, 8);
        c.inject(Fault::Restart(NodeId(3)));
        assert!(syncing(&c), "the outage left no deep gap");
        // Step until the first state key lands: every block record is in.
        let has_state = |c: &mut FabricChain| {
            c.engine.with_node_mut(3, |n| !n.state.scan_meta(b"s:").unwrap().is_empty())
        };
        while !has_state(&mut c) {
            c.advance_to(c.now() + SimDuration::from_micros(200));
        }
        assert!(syncing(&c), "the transfer finished with its first state chunk");
        c.inject(Fault::Crash(NodeId(3)));
        c.advance_to(c.now() + SimDuration::from_secs(2));
        let torn_floor =
            c.engine.with_ctx_node_mut(3, |ctx, n| Ledger::recover(&mut n.state, &ctx.txs).1);
        let peer_floor = c.engine.with_node(0, |n| n.pbft.last_committed());
        assert!(peer_floor - torn_floor <= sync_blocks, "gap {torn_floor}..{peer_floor} is deep");
        c.inject(Fault::Restart(NodeId(3)));
        assert!(syncing(&c), "restart replayed onto a torn store");
        c.advance_to(c.now() + SimDuration::from_secs(10));
        let ids = |c: &FabricChain, i| {
            c.engine.with_node(i, |n| n.ledger.blocks.iter().map(|b| b.id()).collect::<Vec<_>>())
        };
        assert_eq!(ids(&c, 3), ids(&c, 0));
        assert_eq!(
            c.engine.with_node_mut(3, |n| n.state.root()),
            c.engine.with_node_mut(0, |n| n.state.root())
        );
    }

    /// Where the bytes of each table file on peer `i`'s disk live, read
    /// through a copy of the disk so the peer's counters do not move.
    fn table_bytes(c: &FabricChain, i: u32) -> Vec<(String, *const u8)> {
        let mut disk = c.engine.with_node(i, |n| n.state.vfs().lock().unwrap().clone());
        let tables = disk.list(&format!("{}/sst/", crate::state::STORE_PREFIX));
        tables
            .into_iter()
            .map(|t| {
                let at = disk.read_with(&t, 0, usize::MAX, |bytes| bytes.as_ptr()).unwrap();
                (t, at)
            })
            .collect()
    }

    /// PBFT replicas apply the same batches in the same order and so seal
    /// the same tables: the world holds each once, whatever the number of
    /// peers. A peer that restarts onto a blank disk takes a disk of the same
    /// world and still ends on node 0's chain.
    #[test]
    fn twin_replicas_hold_each_sealed_table_once() {
        let mut config = FabricConfig::with_nodes(4);
        config.snapshot_sync_blocks = 3; // force the blank-disk restart
        let mut c = FabricChain::new(config);
        let addr = c.deploy(&ycsb::bundle());
        let value = vec![0xAB; 4096];
        let mut nonce = 0u64;
        let mut load = |c: &mut FabricChain, servers: u64, secs: u64| {
            while c.now() < SimTime::from_secs(secs) {
                for _ in 0..20 {
                    let tx = client_tx(11, nonce, addr, ycsb::write_call(nonce, &value));
                    assert!(c.submit(NodeId((nonce % servers) as u32), tx));
                    nonce += 1;
                }
                c.advance_to(c.now() + SimDuration::from_millis(100));
            }
        };
        load(&mut c, 4, 4);
        c.advance_to(c.now() + SimDuration::from_secs(1)); // let every peer commit the tail
        let tables = table_bytes(&c, 0);
        assert!(!tables.is_empty(), "the run sealed no table");
        for i in 1..4 {
            assert_eq!(table_bytes(&c, i), tables, "peer {i} holds a table of its own");
        }

        c.inject(Fault::Crash(NodeId(3)));
        load(&mut c, 3, 7);
        c.inject(Fault::Restart(NodeId(3)));
        assert!(c.engine.with_node(3, |n| n.recovery.snapshot_syncing), "no blank-disk restart");
        c.advance_to(c.now() + SimDuration::from_secs(10));
        let chains: Vec<_> = (0..4).map(|i| c.committed_chain(NodeId(i))).collect();
        let checked = blockbench::check_chains(&chains, 0).unwrap_or_else(|v| panic!("{v}"));
        assert!(chains.iter().all(|chain| chain.len() == chains[0].len()));
        assert_eq!(checked as usize, chains[0].len());
        assert_eq!(
            c.engine.with_node_mut(3, |n| n.state.root()),
            c.engine.with_node_mut(0, |n| n.state.root())
        );
        // Node 0 served the transfer, which flushed its memtable out of step;
        // the two peers that neither crashed nor served still share every
        // table they hold.
        assert!(table_bytes(&c, 1).len() > tables.len(), "no table sealed after the restart");
        assert_eq!(table_bytes(&c, 2), table_bytes(&c, 1), "peer 2 holds a table of its own");
    }

    /// The batch outcomes the run has looked up, as `(peer, height, hit)`.
    fn lookups(c: &FabricChain) -> Vec<(NodeId, u64, bool)> {
        c.engine.with_ctx(|ctx| ctx.lookups.lock().unwrap().clone())
    }

    /// Writes over seven hot records (in-batch overwrites) into `servers`
    /// peers, one wave per 400 ms, until `secs`.
    fn hot_writes(c: &mut FabricChain, addr: Address, nonce: &mut u64, servers: u64, secs: u64) {
        while c.now() < SimTime::from_secs(secs) {
            for _ in 0..5 {
                let tx = client_tx(13, *nonce, addr, ycsb::write_call(*nonce % 7, b"hot"));
                assert!(c.submit(NodeId((*nonce % servers) as u32), tx));
                *nonce += 1;
            }
            c.advance_to(c.now() + SimDuration::from_millis(400));
        }
    }

    fn roots(c: &mut FabricChain) -> Vec<Hash256> {
        (0..c.config.nodes).map(|i| c.engine.with_node_mut(i, |n| n.state.root())).collect()
    }

    /// Each committed batch runs once per world: the first peer to commit
    /// it misses and keeps the outcome, and the other three install it.
    /// (With debug assertions on they also run it and assert it matches.)
    /// The world keeps at most `OUTCOMES_KEPT` outcomes.
    #[test]
    fn outcome_of_a_batch_is_installed_by_every_peer_after_the_first() {
        let mut c = chain(4);
        let addr = c.deploy(&ycsb::bundle());
        hot_writes(&mut c, addr, &mut 0, 4, 8);
        c.advance_to(c.now() + SimDuration::from_secs(1));
        let height = c.committed_chain(NodeId(0)).len() as u64;
        assert!(height > OUTCOMES_KEPT as u64, "only {height} blocks");
        let log = lookups(&c);
        for h in 1..=height {
            let hits: Vec<bool> = log.iter().filter(|l| l.1 == h).map(|l| l.2).collect();
            assert_eq!(hits, [false, true, true, true], "height {h}");
        }
        let kept = c.engine.with_ctx(|ctx| ctx.outcomes.len());
        assert_eq!(kept, OUTCOMES_KEPT);
        let chains: Vec<_> = (0..4).map(|i| c.committed_chain(NodeId(i))).collect();
        assert!(chains.iter().all(|chain| *chain == chains[0]));
        let roots = roots(&mut c);
        assert!(roots.iter().all(|r| *r == roots[0]));
    }

    /// The WAL bytes of `peer`'s last append.
    fn last_wal_append(c: &FabricChain, peer: u32) -> Vec<u8> {
        c.engine.with_node(peer, |n| {
            let disk = n.state.vfs();
            let mut disk = disk.lock().unwrap();
            let wal = format!("{STORE_PREFIX}/wal");
            let from = disk.last_append_start(&wal).expect("the WAL was appended to");
            disk.read(&wal).unwrap()[from as usize..].to_vec()
        })
    }

    /// Each committed batch's block is sealed once per world: the first
    /// peer to commit it encodes its `!b/` record and frames its WAL
    /// record, and every other peer stores that one record allocation and
    /// appends those frame bytes.
    #[test]
    fn sealed_block_of_a_batch_is_shared_by_every_peer_that_installs_it() {
        let mut c = chain(4);
        let addr = c.deploy(&ycsb::bundle());
        hot_writes(&mut c, addr, &mut 0, 4, 3);
        c.advance_to(c.now() + SimDuration::from_secs(1));
        let blocks = c.engine.with_node(0, |n| n.ledger.blocks.clone());
        assert!(blocks.len() >= 4, "only {} blocks", blocks.len());
        for block in &blocks {
            let key = block_meta_key(block.header.height);
            let record = |i| c.engine.with_node(i, |n| n.state.memtable_value(&key)).unwrap();
            let first = record(0);
            for i in 1..4 {
                let height = block.header.height;
                assert!(Arc::ptr_eq(&record(i), &first), "peer {i}, height {height}");
            }
        }
        // The newest batch's outcome holds that record and the frame every
        // peer appended last.
        let last = blocks.last().unwrap();
        let pre_root = blocks[blocks.len() - 2].header.state_root;
        let outcome = c.engine.with_ctx(|ctx| {
            let ids = last.txs.iter().map(|tx| tx.id()).collect();
            let key = BatchKey { height: last.header.height, deployed: 1, pre_root, ids };
            ctx.outcomes.find(&key).expect("the newest batch's outcome is kept")
        });
        let sealed = outcome.sealed.get().expect("the first peer sealed the batch");
        assert_eq!(sealed.header, last.header);
        let key = block_meta_key(last.header.height);
        let stored = c.engine.with_node(2, |n| n.state.memtable_value(&key)).unwrap();
        assert!(Arc::ptr_eq(&sealed.record, &stored));
        let frame = sealed.frame.get().expect("the first peer's store filled the slot");
        for i in 0..4 {
            assert_eq!(last_wal_append(&c, i), frame[..], "peer {i}");
        }
    }

    /// A peer whose header differs from the first sealer's encodes its own
    /// record and frames its own WAL record — whether the sequence differs
    /// (another timestamp, round and floor) or only the proposer (an equal
    /// floor); a peer with an equal header shares them.
    #[test]
    fn sealed_block_of_a_batch_is_never_shared_with_a_different_header() {
        let mut c = chain(4);
        let now = c.now();
        let sealed = OnceLock::new();
        let mut append = |peer: u32, seq: u64, proposer: u32| {
            c.engine.with_node_mut(peer, |node| {
                let (root, pbft) = (tx_root(&[]), Some((seq, NodeId(proposer), &sealed)));
                node.append_block(NodeId(peer), now, Vec::new(), Vec::new(), root, pbft);
                node.state.memtable_value(&block_meta_key(1)).unwrap()
            })
        };
        let first = append(0, 1, 1);
        let later = append(1, 2, 1);
        let proposed = append(2, 1, 2);
        let twin = append(3, 1, 1);
        let mine: &SealedBlock = sealed.get().unwrap();
        assert_eq!(mine.floor, 1);
        assert!(Arc::ptr_eq(&mine.record, &first) && Arc::ptr_eq(&mine.record, &twin));
        let frame = mine.frame.get().unwrap();
        assert_eq!(last_wal_append(&c, 0), frame[..]);
        assert_eq!(last_wal_append(&c, 3), frame[..]);
        for (peer, own, floor) in [(1, later, 2), (2, proposed, 1)] {
            assert!(!Arc::ptr_eq(&mine.record, &own), "peer {peer} shares the record");
            let block = c.engine.with_node(peer, |n| n.ledger.blocks[0].clone());
            assert_eq!(own[..], block_meta_record(floor, &block)[..], "peer {peer}");
            assert_ne!(last_wal_append(&c, peer), frame[..], "peer {peer} appended the frame");
            let wal = c.engine.with_node(peer, |n| {
                let disk = n.state.vfs();
                let mut disk = disk.lock().unwrap();
                bb_storage::Wal::open(&mut disk, &format!("{STORE_PREFIX}/wal")).replay(&mut disk)
            });
            let meta = (Arc::from(&block_meta_key(1)[..]), Some(own));
            assert_eq!(wal.last(), Some(&vec![meta]), "peer {peer}");
        }
    }

    /// A slowed disk bills every read op, so its peer runs every batch
    /// itself — never a lookup, let alone a hit — and its stall keeps
    /// growing; the other peers still install.
    #[test]
    fn outcome_of_a_batch_is_never_installed_on_a_slow_disk() {
        let mut c = chain(4);
        let addr = c.deploy(&ycsb::bundle());
        let mut nonce = 0;
        hot_writes(&mut c, addr, &mut nonce, 4, 2);
        let stall =
            |c: &FabricChain| c.engine.with_node(2, |n| n.state.vfs().lock().unwrap().stall_us());
        assert_eq!(stall(&c), 0);
        c.inject(Fault::SlowDisk(NodeId(2), SimDuration::from_micros(50)));
        let from = lookups(&c).len();
        let slowed_at = c.committed_chain(NodeId(2)).len();
        hot_writes(&mut c, addr, &mut nonce, 4, 6);
        let mid = stall(&c);
        assert!(mid > 0);
        hot_writes(&mut c, addr, &mut nonce, 4, 8);
        c.advance_to(c.now() + SimDuration::from_secs(1));
        assert!(stall(&c) > mid, "the slow disk stopped stalling");
        assert!(c.committed_chain(NodeId(2)).len() > slowed_at + 4, "peer 2 committed too little");
        let log = &lookups(&c)[from..];
        assert!(log.iter().all(|l| l.0 != NodeId(2)), "the slowed peer looked an outcome up");
        assert!(log.iter().filter(|l| l.2).count() >= 2 * log.iter().filter(|l| !l.2).count());
        assert_eq!(c.committed_chain(NodeId(2)), c.committed_chain(NodeId(0)));
        let roots = roots(&mut c);
        assert!(roots.iter().all(|r| *r == roots[0]));
    }

    /// A peer restarted behind more batches than the world keeps outcomes
    /// of replays the oldest itself: they were kept once (its peers hit
    /// them) and evicted since. It still ends on node 0's chain and state.
    #[test]
    fn outcome_of_a_batch_older_than_the_cache_is_replayed_by_running_it() {
        let mut c = chain(4);
        let addr = c.deploy(&ycsb::bundle());
        let mut nonce = 0;
        hot_writes(&mut c, addr, &mut nonce, 4, 2);
        c.advance_to(c.now() + SimDuration::from_secs(1));
        c.inject(Fault::Crash(NodeId(3)));
        let floor = c.committed_chain(NodeId(3)).len() as u64;
        hot_writes(&mut c, addr, &mut nonce, 3, 8);
        let behind = c.committed_chain(NodeId(0)).len() as u64 - floor;
        assert!(behind > OUTCOMES_KEPT as u64, "peer 3 is only {behind} batches behind");
        let from = lookups(&c).len();
        c.inject(Fault::Restart(NodeId(3)));
        assert!(!c.engine.with_node(3, |n| n.recovery.snapshot_syncing), "no batch replay");
        c.advance_to(c.now() + SimDuration::from_secs(5));
        let log = lookups(&c);
        let replay: Vec<_> = log[from..].iter().filter(|l| l.0 == NodeId(3)).collect();
        assert_eq!(replay.first().map(|l| (l.1, l.2)), Some((floor + 1, false)));
        assert!(log[..from].iter().any(|l| l.1 == floor + 1 && l.2), "no peer hit it first");
        assert_eq!(c.committed_chain(NodeId(3)), c.committed_chain(NodeId(0)));
        let roots = roots(&mut c);
        assert!(roots.iter().all(|r| *r == roots[0]));
    }

    #[test]
    #[should_panic(expected = "crash it first")]
    fn restart_of_a_live_node_panics() {
        chain(4).inject(Fault::Restart(NodeId(2)));
    }

    #[test]
    fn even_partition_halts_without_forks() {
        let mut c = chain(8);
        let addr = c.deploy(&donothing::bundle());
        c.advance_to(SimTime::from_secs(1));
        c.inject(Fault::PartitionHalf { left: 4 });
        for nonce in 0..20 {
            c.submit(NodeId(nonce as u32 % 8), client_tx(1, nonce, addr, donothing::call()));
        }
        c.advance_to(SimTime::from_secs(30));
        // Neither half reaches quorum 6: no commits, no forks.
        assert!(c.confirmed_blocks_since(0).is_empty());
        let s = c.stats();
        assert_eq!(s.blocks_total, s.blocks_main);
        // Heal: the cluster recovers and commits everything.
        c.inject(Fault::Heal);
        c.advance_to(SimTime::from_secs(120));
        let committed: usize = c.confirmed_blocks_since(0).iter().map(|b| b.txs.len()).sum();
        assert_eq!(committed, 20, "requests lost across the partition");
    }

    #[test]
    fn channel_overflow_collapses_a_large_loaded_cluster() {
        // 20 servers all admitting at full ingress rate: the relay traffic
        // every node must process exceeds its pipeline, the bounded channel
        // fills, and consensus messages start dropping — the paper's >16
        // node failure mode.
        let mut c = chain(20);
        let addr = c.deploy(&ycsb::bundle());
        let mut nonce = [0u64; 20];
        for tick in 0..120u64 {
            c.advance_to(SimTime::from_millis(tick * 50));
            for seed in 0..20u64 {
                for _ in 0..10 {
                    let n = nonce[seed as usize];
                    nonce[seed as usize] += 1;
                    c.submit(NodeId(seed as u32), client_tx(seed, n, addr, ycsb::write_call(n, b"v")));
                }
            }
        }
        c.advance_to(SimTime::from_secs(10));
        assert!(c.dropped_messages() > 0, "bounded channel never overflowed");
        // Committed throughput is far below the admitted ~3200 tx/s.
        let committed: usize = c.confirmed_blocks_since(0).iter().map(|b| b.txs.len()).sum();
        let rate = committed as f64 / 10.0;
        assert!(rate < 2000.0, "no collapse: rate {rate}");
    }

    #[test]
    fn throughput_is_pipeline_bound() {
        let mut c = chain(8);
        let addr = c.deploy(&donothing::bundle());
        // Offer ~3200 tx/s over 8 servers, paced like the driver.
        let mut nonce = [0u64; 8];
        for tick in 0..400u64 {
            c.advance_to(SimTime::from_millis(tick * 25));
            for seed in 0..8u64 {
                for _ in 0..10 {
                    let n = nonce[seed as usize];
                    nonce[seed as usize] += 1;
                    c.submit(NodeId(seed as u32), client_tx(seed, n, addr, donothing::call()));
                }
            }
        }
        c.advance_to(SimTime::from_secs(14));
        let committed: usize = c.confirmed_blocks_since(0).iter().map(|b| b.txs.len()).sum();
        let rate = committed as f64 / 14.0;
        // Near the paper's ~1273 tx/s peak: 8 servers × 160 tx/s admission.
        assert!(rate > 900.0 && rate < 1500.0, "rate {rate}");
    }

    /// Every event waits in the engine's heap, and a consensus message
    /// carries its batch as one pointer. The account chains' 48 bytes are
    /// not reached yet.
    #[test]
    fn events_stay_within_72_bytes() {
        assert!(std::mem::size_of::<FabEvent>() <= 72, "{} bytes", std::mem::size_of::<FabEvent>());
    }

    #[test]
    fn query_paths() {
        let mut c = chain(4);
        let kv = c.deploy(&bb_contracts::version_kv::bundle());
        let alice = KeyPair::from_seed(3);
        c.preload_blocks(vec![
            vec![Transaction::signed(&alice, 0, kv, 0, bb_contracts::version_kv::send_value_call(1, 2, 10))],
            vec![Transaction::signed(&alice, 1, kv, 0, bb_contracts::version_kv::send_value_call(2, 3, 5))],
        ]);
        // Historical account query is unsupported natively...
        let err = c
            .query(&Query::AccountAtBlock { account: Address::from_index(1), height: 1 })
            .unwrap_err();
        assert_eq!(err, QueryError::Unsupported);
        // ...but the VersionKVStore chaincode answers it in one round trip.
        let r = c
            .query(&Query::Contract {
                address: kv,
                payload: bb_contracts::version_kv::account_range_call(2, 0, 100),
            })
            .unwrap();
        let pairs = bb_contracts::version_kv::decode_account_range(&r.data);
        assert_eq!(pairs.len(), 2);
        // Block transaction lists work like on the other platforms.
        let r = c.query(&Query::BlockTxs { height: 1 }).unwrap();
        let mut d = bb_types::Decoder::new(&r.data);
        assert_eq!(d.u32().unwrap(), 1);
    }
}
