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
use bb_consensus::pbft::{batch_digest, Action, PbftConfig, PbftMsg, PbftNode, Request};
use bb_crypto::{DigestSet, Hash256};
use bb_merkle::merkle_root;
use bb_net::Network;
use bb_storage::FaultVfs;
use bb_sim::{CpuMeter, Effects, ShardedEngine, ShardedWorld, SimDuration, SimRng, SimTime};
use bb_types::{Address, Block, BlockHeader, BlockSummary, Encoder, NodeId, Transaction, TxId};
use blockbench::connector::{
    BlockchainConnector, ChainEntry, DirectExec, Fault, NodeCounters, PlatformStats, Query,
    QueryError, QueryResult, RecoveryWindow,
};
use std::sync::Arc;
use blockbench::contract::ContractBundle;
use std::collections::VecDeque;

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
    /// A restarted peer too far behind to replay batch-by-batch asks a
    /// live peer for one chunk of its state snapshot.
    SnapshotRequest {
        /// Serving peer.
        to: NodeId,
        /// Recovering peer.
        from: NodeId,
        /// Pinned snapshot session on the server; `None` opens one.
        session: Option<u64>,
        /// Resume after this key (exclusive); `None` starts the stream.
        after: Option<Vec<u8>>,
    },
    /// One bounded chunk of a pinned peer snapshot: raw store entries
    /// (state values and the `!b/` block records ride together).
    SnapshotChunk {
        /// Recovering peer.
        to: NodeId,
        /// Serving peer.
        from: NodeId,
        /// The server's pinned session, echoed back for the next request.
        session: u64,
        /// Raw `(key, value)` store entries.
        entries: Arc<Vec<(Vec<u8>, Vec<u8>)>>,
        /// True when the snapshot's key space is exhausted.
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
fn block_meta_record(pbft_floor: u64, block: &Block) -> Vec<u8> {
    let mut v = pbft_floor.to_be_bytes().to_vec();
    v.extend_from_slice(&block.encode());
    v
}

fn decode_block_meta(value: &[u8]) -> Option<(u64, Block)> {
    let floor = u64::from_be_bytes(value.get(..8)?.try_into().ok()?);
    let block = Block::decode(&value[8..]).ok()?;
    Some((floor, block))
}

struct FabNode {
    pbft: PbftNode,
    state: FabricState,
    /// Bounded consensus channel: `(sender, message)` in arrival order.
    inbox: VecDeque<(NodeId, PbftMsg)>,
    draining: bool,
    drain_generation: u64,
    /// Executed transaction ids (dedupe across re-proposals).
    executed: DigestSet<TxId>,
    /// Committed chain.
    blocks: Vec<Block>,
    receipts: Vec<Vec<(TxId, bool)>>,
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
    /// zero sequence floor so a restart resumes PBFT from scratch. Returns
    /// the block's encoded size.
    fn append_block(
        &mut self,
        me: NodeId,
        now: SimTime,
        txs: Vec<Arc<Transaction>>,
        receipts: Vec<(TxId, bool)>,
        pbft: Option<(u64, NodeId)>,
    ) -> u64 {
        let height = self.blocks.len() as u64 + 1;
        let (timestamp_us, proposer, round, floor) = match pbft {
            Some((seq, proposer)) => (seq, proposer, seq, seq),
            None => (now.as_micros(), NodeId(0), height, 0),
        };
        let header = BlockHeader {
            parent: self.blocks.last().map(|b| b.id()).unwrap_or(Hash256::ZERO),
            height,
            timestamp_us,
            tx_root: merkle_root(&txs.iter().map(|t| t.id().0).collect::<Vec<_>>()),
            state_root: self.state.root(),
            proposer,
            difficulty: 0,
            round,
        };
        let block = Block { header, txs };
        let record = block_meta_record(floor, &block);
        let block_bytes = (record.len() - 8) as u64;
        self.state
            .commit_block_with_meta(vec![(block_meta_key(height), Some(record))])
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
        self.receipts.push(receipts);
        self.blocks.push(block);
        block_bytes
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

/// Read-only context shared by every lane.
struct FabCtx {
    config: FabricConfig,
}

/// The sharded-world marker type for Fabric.
struct FabWorld;

/// The Fabric-like platform.
pub struct FabricChain {
    config: FabricConfig,
    engine: ShardedEngine<FabWorld>,
    network: Network,
    contracts: Vec<(Address, blockbench::contract::ChaincodeFactory)>,
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
            FabEvent::SnapshotRequest { from, session, after, .. } => {
                on_snapshot_request(ctx, node, id, from, session, after, fx)
            }
            FabEvent::SnapshotChunk { from, session, entries, done, .. } => {
                on_snapshot_chunk(ctx, node, id, now, from, session, entries, done, fx)
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
                        let mut forged = batch.clone();
                        forged.push(b"equivocated-request".to_vec().into());
                        let forged_digest = batch_digest(&forged);
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
                                    digest: forged_digest,
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
            // A replica jumped past garbage-collected consensus history.
            // With the default horizon (1024 batches) no benchmark sweep
            // ever trims the log, so this only fires in hand-built
            // scenarios; the simulation does not model the application
            // state transfer a real deployment would run here — the
            // replica keeps serving consensus from the checkpoint on.
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
/// invocation time. Returns the receipts and the batch's execution charge.
fn execute_batch_txs(
    ctx: &FabCtx,
    node: &mut FabNode,
    height: u64,
    txs: &[Arc<Transaction>],
) -> (Vec<(TxId, bool)>, SimDuration) {
    let mut receipts = Vec::with_capacity(txs.len());
    let mut charge = SimDuration::ZERO;
    for tx in txs {
        let res = node.state.invoke(tx, height, true);
        charge += ctx.config.invoke_time(res.units, res.state_ops);
        receipts.push((tx.id(), res.success));
    }
    node.counters.exec_serial_us += charge.as_micros();
    (receipts, charge)
}

/// Execute a committed batch and append the block.
fn commit_batch(
    ctx: &FabCtx,
    node: &mut FabNode,
    at: NodeId,
    now: SimTime,
    seq: u64,
    batch: Vec<Request>,
) {
    if node.recovery.snapshot_syncing {
        // The node's state is mid-transfer: executing against it would
        // diverge. The batch is not lost — the post-transfer `SyncRequest`
        // replays everything committed past the snapshot's floor.
        return;
    }
    let height = node.blocks.len() as u64 + 1;
    let mut txs: Vec<Arc<Transaction>> = Vec::with_capacity(batch.len());
    for req in &batch {
        // Decoded once, where the request was made: every replica executes
        // and stores the same `Arc<Transaction>`.
        let Some(tx) = req.transaction() else {
            continue;
        };
        if !node.executed.insert(tx.id()) {
            continue; // re-proposed duplicate
        }
        txs.push(Arc::clone(tx));
    }
    let (receipts, exec_time) = execute_batch_txs(ctx, node, height, &txs);
    node.cpu.charge(now, exec_time);
    // Execution occupies the same event loop as message processing:
    // the next drain waits for it.
    node.pipeline_penalty += exec_time;
    let proposer = NodeId((seq % ctx.config.nodes as u64) as u32);
    let block_bytes = node.append_block(at, now, txs, receipts, Some((seq, proposer)));
    if node.recovery.restarted_at.is_some() {
        node.counters.resync_blocks += 1;
        node.counters.resync_bytes += block_bytes;
        node.recovery.close_if_reached(seq, now, &mut node.counters);
    }
}

/// A node's volatile chain bookkeeping: PBFT sequence floor, executed ids,
/// blocks and per-block receipts.
type ChainBook = (u64, DigestSet<TxId>, Vec<Block>, Vec<Vec<(TxId, bool)>>);

/// Rebuild the volatile chain bookkeeping (blocks, receipts, executed ids,
/// PBFT sequence floor) from a state's durable `!b/` records — shared by
/// the restart path and the snapshot-sync finish.
fn rebuild_chain_from_state(state: &mut FabricState) -> ChainBook {
    let mut records: Vec<(u64, Block)> = state
        .scan_meta(BLOCK_META_PREFIX)
        .expect("durable store recoverable")
        .iter()
        .filter_map(|(_, v)| decode_block_meta(v))
        .collect();
    records.sort_by_key(|(_, b)| b.header.height);
    let mut floor = 0u64;
    let mut executed = DigestSet::default();
    let mut blocks = Vec::with_capacity(records.len());
    let mut receipts = Vec::with_capacity(records.len());
    for (f, block) in records {
        floor = floor.max(f);
        for tx in &block.txs {
            executed.insert(tx.id());
        }
        // Receipts were volatile; recovered blocks carry none.
        receipts.push(Vec::new());
        blocks.push(block);
    }
    (floor, executed, blocks, receipts)
}

/// Serve one chunk of a pinned store snapshot to a recovering peer. The
/// first request opens the session; the pin freezes the table set (one
/// consistent block boundary) while compaction keeps running with file
/// deletion deferred until the session closes. If the requester dies
/// mid-transfer the session stays pinned until this peer next restarts —
/// bounded garbage, matched by real snapshot servers' lease timeouts.
fn on_snapshot_request(
    ctx: &FabCtx,
    node: &mut FabNode,
    me: NodeId,
    from: NodeId,
    session: Option<u64>,
    after: Option<Vec<u8>>,
    fx: &mut Effects<FabEvent>,
) {
    if node.crashed {
        return;
    }
    let snap = session.unwrap_or_else(|| node.state.snapshot_open());
    let Ok((entries, done)) =
        node.state.snapshot_chunk(snap, after.as_deref(), ctx.config.snapshot_chunk_bytes)
    else {
        // Unknown session (this peer restarted mid-serve): the transfer
        // stalls exactly like a crashed server would.
        return;
    };
    if done {
        node.state.snapshot_close(snap);
    }
    let bytes = 16 + entries.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum::<u64>();
    let entries = Arc::new(entries);
    fx.send(from.0, bytes, move |_at| FabEvent::SnapshotChunk {
        to: from,
        from: me,
        session: snap,
        entries,
        done,
    });
}

/// Apply a received snapshot chunk; on the final chunk, rebuild digests
/// and chain from the transferred store, resume PBFT at the transferred
/// floor, and replay anything committed since through a `SyncRequest`.
#[allow(clippy::too_many_arguments)]
fn on_snapshot_chunk(
    ctx: &FabCtx,
    node: &mut FabNode,
    me: NodeId,
    now: SimTime,
    from: NodeId,
    session: u64,
    entries: Arc<Vec<(Vec<u8>, Vec<u8>)>>,
    done: bool,
    fx: &mut Effects<FabEvent>,
) {
    if node.crashed || !node.recovery.snapshot_syncing {
        return;
    }
    node.counters.snapshot_chunks += 1;
    node.counters.snapshot_bytes +=
        16 + entries.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum::<u64>();
    node.state.apply_snapshot_entries(&entries).expect("fresh store healthy");
    if !done {
        let after = entries.last().map(|(k, _)| k.clone());
        fx.send(from.0, 64, move |_at| FabEvent::SnapshotRequest {
            to: from,
            from: me,
            session: Some(session),
            after,
        });
        return;
    }
    let buckets = ctx.config.state_buckets;
    let mem_cap = ctx.config.node_mem_bytes.saturating_sub(ctx.config.mem_base);
    let state = std::mem::replace(&mut node.state, FabricState::new(1, 0));
    let mut state =
        state.rebuild_keeping_chaincodes(buckets, mem_cap).expect("transferred store healthy");
    let (floor, executed, blocks, receipts) = rebuild_chain_from_state(&mut state);
    node.pbft = PbftNode::resume_at(me, pbft_config(&ctx.config), floor);
    node.state = state;
    node.blocks = blocks;
    node.receipts = receipts;
    node.executed = executed;
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
        let nodes = (0..config.nodes)
            .map(|i| FabNode {
                pbft: PbftNode::new(NodeId(i), pbft_config.clone()),
                state: FabricState::new(
                    config.state_buckets,
                    config.node_mem_bytes.saturating_sub(config.mem_base),
                ),
                inbox: VecDeque::new(),
                draining: false,
                drain_generation: 0,
                executed: DigestSet::default(),
                blocks: Vec::new(),
                receipts: Vec::new(),
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
        let engine = ShardedEngine::new(
            FabCtx { config: config.clone() },
            nodes,
            network.min_latency(),
        );
        FabricChain { config, engine, network, contracts: Vec::new() }
    }

    /// Restart a crashed peer from its durable store: reopen the LSM
    /// (replaying the WAL and truncating any torn tail), rebuild the
    /// bucket digests and the chain from the per-block records, resume
    /// PBFT at the durable sequence floor, and ask a live peer for the
    /// committed batches past it.
    fn restart_node(&mut self, id: NodeId) {
        let now = self.engine.now();
        let peer = self.network.first_live_peer(id);
        let peer_floor = peer.map(|p| self.engine.with_node(p.0, |n| n.pbft.last_committed()));
        let pbft_config = pbft_config(&self.config);
        let buckets = self.config.state_buckets;
        let mem_cap = self.config.node_mem_bytes.saturating_sub(self.config.mem_base);
        let snapshot_sync_blocks = self.config.snapshot_sync_blocks;
        let contracts = &self.contracts;
        let (floor, snapshot) = self.engine.with_node_mut(id.0, |n| {
            // Reopen the store from the only thing the crash preserved:
            // the Vfs-backed files.
            let mut state = FabricState::reopen(n.state.vfs(), buckets, mem_cap)
                .expect("durable store recoverable");
            let st = state.store_stats();
            n.counters.wal_replayed += st.wal_records_replayed;
            n.counters.wal_truncated += st.wal_tail_truncated;
            // Rebuild the chain from the durable block records. Each
            // record rode the same atomic batch as its state flush, so
            // this list is exactly the blocks whose effects survive.
            let (floor, executed, blocks, receipts) = rebuild_chain_from_state(&mut state);
            // The gap is known synchronously from the live peer's committed
            // floor: too deep to replay batch-by-batch → discard the durable
            // prefix and pull the peer's whole snapshot in bounded chunks.
            // Likewise when a crash tore an earlier transfer: the store then
            // holds block records whose state never fully arrived, so its
            // floor says nothing about what can be replayed onto it.
            let torn = n.recovery.transfer_torn;
            let snapshot = peer_floor
                .is_some_and(|t| torn || t.saturating_sub(floor) > snapshot_sync_blocks);
            if snapshot {
                n.state = FabricState::new(buckets, mem_cap);
                n.blocks = Vec::new();
                n.receipts = Vec::new();
                n.executed = DigestSet::default();
            } else {
                n.state = state;
                n.blocks = blocks;
                n.receipts = receipts;
                n.executed = executed;
            }
            // Chaincode binaries are redeployable artifacts, not state.
            for (addr, factory) in contracts {
                n.state.install(*addr, *factory);
            }
            n.pbft = PbftNode::resume_at(id, pbft_config, floor);
            n.inbox.clear();
            n.draining = false;
            n.drain_generation += 1;
            n.pipeline_penalty = SimDuration::ZERO;
            n.wake_scheduled = None;
            n.crashed = false;
            let sync_target = peer_floor.filter(|&t| t > floor);
            n.recovery = RecoveryWindow {
                restarted_at: sync_target.map(|_| now),
                sync_target,
                snapshot_syncing: snapshot,
                transfer_torn: false,
            };
            (floor, snapshot)
        });
        self.network.recover(id);
        if let Some(peer) = peer {
            if snapshot {
                // Open a pinned snapshot session on the peer and stream it.
                self.engine.schedule(
                    now,
                    FabEvent::SnapshotRequest { to: peer, from: id, session: None, after: None },
                );
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

    fn deploy(&mut self, bundle: &ContractBundle) -> Address {
        let addr = Address::contract(&Address::ZERO, self.contracts.len() as u64);
        for i in 0..self.config.nodes {
            let native = bundle.native;
            self.engine.with_node_mut(i, |node| node.state.install(addr, native));
        }
        self.contracts.push((addr, bundle.native));
        addr
    }

    fn submit(&mut self, server: NodeId, tx: Transaction) -> bool {
        if self.network.is_crashed(server) {
            // A crashed peer's gRPC endpoint refuses connections; the client
            // sees the failure and does not burn a nonce on it.
            return false;
        }
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
                    let block = node.blocks.get(idx).ok_or(QueryError::NotFound)?;
                    let mut enc = Encoder::with_capacity(block.txs.len() * 48 + 4);
                    enc.put_u32(block.txs.len() as u32);
                    for tx in &block.txs {
                        enc.put_raw(tx.from.as_bytes()).put_raw(tx.to.as_bytes()).put_u64(tx.value);
                    }
                    let cost = SimDuration::from_micros(20 + 4 * block.txs.len() as u64);
                    Ok(QueryResult { data: enc.finish(), server_cost: cost })
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
                    let height = node.blocks.len() as u64;
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
                self.engine.with_node_mut(node.0, |n| {
                    n.crashed = true;
                    // Amnesia: the inbox and pipeline are process memory.
                    // The chain/state maps linger until a Restart discards
                    // them, but no handler reads them while crashed.
                    n.inbox.clear();
                    n.draining = false;
                    n.drain_generation += 1;
                    n.pipeline_penalty = SimDuration::ZERO;
                    n.wake_scheduled = None;
                    n.recovery.crash();
                });
            }
            Fault::Recover(node) => {
                if self.engine.with_node(node.0, |n| n.recovery.transfer_torn) {
                    // The crash tore a snapshot transfer that was replacing
                    // this peer's state: there is no intact memory to revive.
                    return self.restart_node(node);
                }
                // Legacy gentle revive (a long GC pause, not a process
                // death): in-memory chain state is intact.
                self.network.recover(node);
                self.engine.with_node_mut(node.0, |n| n.crashed = false);
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
            (node.blocks.len() as u64, node.confirmed.iter().map(|b| b.txs.len() as u64).sum())
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
            n.blocks
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
        let before = self.engine.with_node_mut(0, |n| (n.blocks.len(), n.state.root()));
        for txs in blocks {
            let txs: Vec<Arc<Transaction>> = txs.into_iter().map(Arc::new).collect();
            self.engine.with_node_mut(0, |node| {
                let height = node.blocks.len() as u64 + 1;
                let mut receipts = Vec::with_capacity(txs.len());
                for tx in &txs {
                    node.executed.insert(tx.id());
                    let res = node.state.invoke(tx, height, true);
                    receipts.push((tx.id(), res.success));
                }
                node.append_block(NodeId(0), now, txs, receipts, None);
            });
        }
        // Preloading is consensus-free and identical on every peer: the
        // others take node 0's result instead of recomputing it. A peer that
        // is not still where node 0 started (the run began and they moved
        // apart) is no twin of it, and overwriting it would hide that.
        for i in 1..self.config.nodes {
            self.engine.with_first_and_node_mut(i, |first, node| {
                assert_eq!(
                    (node.blocks.len(), node.state.root()),
                    before,
                    "preload after replicas diverged: peer {i}'s (block count, state root) is \
                     not node 0's from before the preload"
                );
                node.state.copy_state_from(&first.state);
                node.executed = first.executed.clone();
                node.blocks = first.blocks.clone();
                node.receipts = first.receipts.clone();
            });
        }
    }

    fn execute_direct(&mut self, tx: Transaction) -> DirectExec {
        let msg_process_cost = self.config.msg_process_cost;
        let invoke_time = |units, ops| self.config.invoke_time(units, ops);
        let mem_base = self.config.mem_base;
        self.engine.with_node_mut(0, |node| {
            let height = node.blocks.len() as u64;
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

    fn chain(nodes: u32) -> FabricChain {
        FabricChain::new(FabricConfig::with_nodes(nodes))
    }

    fn client_tx(seed: u64, nonce: u64, to: Address, payload: Vec<u8>) -> Transaction {
        Transaction::signed(&KeyPair::from_seed(seed), nonce, to, 0, payload)
    }

    /// The transactions of every block peer `i` holds, by height.
    fn block_txs(c: &FabricChain, i: u32) -> Vec<Vec<Arc<Transaction>>> {
        c.engine.with_node(i, |n| n.blocks.iter().map(|b| b.txs.clone()).collect())
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
            c.engine.with_node(0, |n| n.blocks.iter().map(|b| b.id()).collect());
        assert!(!reference.is_empty());
        for i in 1..4 {
            let other: Vec<Hash256> =
                c.engine.with_node(i, |n| n.blocks.iter().map(|b| b.id()).collect());
            assert_eq!(other, reference, "node {i} diverged");
        }
        // State roots agree too.
        let root = c.engine.with_node_mut(0, |n| n.state.root());
        for i in 1..4 {
            assert_eq!(c.engine.with_node_mut(i, |n| n.state.root()), root);
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

    /// Everything set-up leaves on a peer that a run can later observe, bar
    /// the observer's log: chain, receipts, executed ids, state root, store
    /// and tree counters, the memory meter, and the disk (files, I/O counters,
    /// fault settings).
    fn footprint(c: &mut FabricChain, i: u32) -> impl PartialEq + std::fmt::Debug {
        let entries = c.committed_chain(NodeId(i));
        c.engine.with_node_mut(i, |n| {
            let disk = n.state.vfs().lock().unwrap().clone();
            let mut executed: Vec<TxId> = n.executed.iter().copied().collect();
            executed.sort_unstable();
            let counts = (n.state.store_stats(), n.state.flush_stats(), n.state.mem_peak());
            (entries, n.receipts.clone(), executed, n.state.root(), counts, disk)
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
        let recovered = c.engine.with_node(2, |n| n.blocks.len());
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
        let (committed, view) = c
            .engine
            .with_node(1, |n| (n.receipts.iter().map(Vec::len).sum::<usize>(), n.pbft.view()));
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
        let pre_blocks = c.engine.with_node(3, |n| n.blocks.len());
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
        let recovered_blocks = c.engine.with_node(3, |n| n.blocks.len());
        assert!(recovered_blocks < pre_blocks, "{recovered_blocks} vs {pre_blocks}");
        c.advance_to(SimTime::from_secs(25));
        // Caught back up: chain and state byte-identical to the cluster.
        let reference: Vec<Hash256> =
            c.engine.with_node(0, |n| n.blocks.iter().map(|b| b.id()).collect());
        let recovered: Vec<Hash256> =
            c.engine.with_node(3, |n| n.blocks.iter().map(|b| b.id()).collect());
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
            c.engine.with_node(0, |n| n.blocks.iter().map(|b| b.id()).collect());
        let recovered: Vec<Hash256> =
            c.engine.with_node(3, |n| n.blocks.iter().map(|b| b.id()).collect());
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
