//! Practical Byzantine Fault Tolerance (Castro–Liskov), as Hyperledger
//! Fabric v0.6 used it, implemented sans-IO.
//!
//! Each [`PbftNode`] is a pure state machine: feed it requests, messages and
//! ticks; it returns [`Action`]s (sends, broadcasts, committed batches) for
//! the platform to wire onto the simulated network. The platform layer adds
//! the *bounded incoming message channel* whose overflow — O(N²) traffic at
//! high load — drops consensus messages, diverges views and stalls the
//! cluster beyond 16 nodes, exactly the failure mode the paper diagnosed
//! from Fabric's logs (Section 4.1.2).
//!
//! Protocol shape:
//! - requests batch at the primary (`batch_size`, the paper's 500, or a
//!   batch timeout);
//! - three phases: pre-prepare (primary broadcast, carries the batch),
//!   prepare and commit (all-to-all); a slot commits at quorum `n − f`,
//!   `f = ⌊(n−1)/3⌋`, and batches are *delivered strictly in sequence
//!   order* — so 12 nodes stop dead when 4 crash (quorum 9 > 8 alive,
//!   Figure 9) while 16 nodes recover via view change;
//! - view change: nodes time out on outstanding work, vote `ViewChange`,
//!   and adopt a view once a quorum votes for it; the new primary announces
//!   `NewView` and laggards catch up through the sync sub-protocol
//!   (`SyncRequest`/`SyncReply`) — also how partitioned nodes rejoin after
//!   the Figure 10 attack heals (the ~50 s recovery gap).
//!
//! Simplifications vs. the full protocol, documented in DESIGN.md:
//! view-change certificates are replaced by re-forwarding uncommitted
//! requests plus state sync — equivalent liveness/safety behaviour for
//! crash and partition faults, which are the faults the benchmark injects.
//! Checkpointing is a *horizon*, not the full sub-protocol: each replica
//! keeps the last [`PbftConfig::checkpoint_horizon`] committed batches and
//! folds older ones into a running checkpoint digest. A laggard asking for
//! history below the horizon receives the checkpoint instead and installs
//! it on one peer's word (real PBFT demands f + 1 matching proofs; the
//! benchmark injects crashes and partitions, never lying replicas).
//!
//! Retransmission is *bounded*: on a liveness timeout (and on view entry)
//! a replica re-forwards at most one batch worth of outstanding requests,
//! and sync replies carry at most [`SYNC_WINDOW`] batches (the laggard
//! requests the next window after applying one). In PBFT proper these
//! bounds come from clients owning retransmission and from the high/low
//! water marks; without them an overloaded cluster re-broadcasts its
//! entire backlog every timeout — O(backlog × n²) traffic per round —
//! which turns the ≥16-node collapse from "throughput degrades" into an
//! event storm that grows without bound.

use bb_crypto::{DigestMap, DigestSet, Hash256};
use bb_sim::{SimDuration, SimTime};
use bb_types::{NodeId, Transaction};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// A client request: the payload PBFT orders, its digest, and the
/// transaction the payload encodes — one immutable allocation behind one
/// pointer.
///
/// All three are filled once, by whoever makes the value: `From<Vec<u8>>`
/// hashes the bytes and decodes them (bytes that are no transaction are
/// still ordered, with none attached), `From<Transaction>` encodes a
/// transaction the caller already holds. Every replica's `awaiting` and
/// pending entry, every forward and every [`Batch`] holding it is a
/// reference-count bump on that allocation, so n replicas read the same
/// digest and execute the same `Arc<Transaction>` instead of re-hashing and
/// re-decoding the payload n times.
#[derive(Clone)]
pub struct Request(Arc<RequestInner>);

struct RequestInner {
    digest: Hash256,
    tx: Option<Arc<Transaction>>,
    payload: Box<[u8]>,
}

impl Request {
    fn new(payload: Vec<u8>, tx: Option<Transaction>) -> Request {
        let digest = Hash256::digest_parts(&[b"pbft-req", &payload]);
        Request(Arc::new(RequestInner { digest, tx: tx.map(Arc::new), payload: payload.into() }))
    }

    /// The request's identity: `digest_parts(["pbft-req", payload])`.
    pub fn digest(&self) -> Hash256 {
        self.0.digest
    }

    /// The transaction the payload encodes, shared by every copy of the
    /// request; `None` when the payload is not a transaction.
    pub fn transaction(&self) -> Option<&Arc<Transaction>> {
        self.0.tx.as_ref()
    }
}

impl From<Vec<u8>> for Request {
    fn from(payload: Vec<u8>) -> Request {
        let tx = Transaction::decode(&payload).ok();
        Request::new(payload, tx)
    }
}

impl From<Transaction> for Request {
    fn from(tx: Transaction) -> Request {
        Request::new(tx.encode(), Some(tx))
    }
}

impl std::ops::Deref for Request {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0.payload
    }
}

impl PartialEq for Request {
    fn eq(&self, other: &Request) -> bool {
        self.digest() == other.digest()
    }
}

/// Not derived: a batch in a failed assertion would print every payload
/// byte and every decoded transaction.
impl std::fmt::Debug for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tx = if self.0.tx.is_some() { "tx" } else { "no tx" };
        write!(f, "Request({}, {} B, {tx})", self.digest().short(), self.len())
    }
}

impl Eq for Request {}

/// A proposed batch: the ordered requests and their digest, one immutable
/// allocation behind one pointer.
///
/// The digest is hashed once, by `From<Vec<Request>>`. Every slot,
/// committed-log entry, pre-prepare, sync reply and `CommitBatch` copy of
/// the batch is one reference-count bump, so n replicas neither clone the
/// request list nor re-hash it. A forged batch (an equivocating primary's)
/// is a different allocation with its own digest.
#[derive(Clone)]
pub struct Batch(Arc<BatchInner>);

struct BatchInner {
    digest: Hash256,
    requests: Box<[Request]>,
}

impl Batch {
    /// The batch's identity: `digest_parts(["pbft-batch", payload, ...])`.
    pub fn digest(&self) -> Hash256 {
        self.0.digest
    }
}

impl From<Vec<Request>> for Batch {
    fn from(requests: Vec<Request>) -> Batch {
        let digest = batch_digest(&requests);
        Batch(Arc::new(BatchInner { digest, requests: requests.into() }))
    }
}

impl std::ops::Deref for Batch {
    type Target = [Request];

    fn deref(&self) -> &[Request] {
        &self.0.requests
    }
}

impl PartialEq for Batch {
    fn eq(&self, other: &Batch) -> bool {
        self.digest() == other.digest()
    }
}

impl Eq for Batch {}

/// Not derived, for the reason `Request`'s is not.
impl std::fmt::Debug for Batch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Batch({}, {} requests)", self.digest().short(), self.len())
    }
}

/// Max committed batches per [`PbftMsg::SyncReply`]. A lagging replica
/// catches up window by window, requesting the next chunk after applying
/// one, instead of receiving the entire committed log in a single message.
pub const SYNC_WINDOW: usize = 20;

/// Requests re-broadcast alongside a `ViewChange` vote. Just enough to arm
/// every peer's liveness timer (recruitment); deliberately far below
/// `batch_size` so that n replicas timing out in the same window cannot
/// flood bounded inboxes with their own retransmissions and drown the votes.
pub const VIEW_CHANGE_RECRUIT_REQS: usize = 16;

/// Protocol parameters.
#[derive(Debug, Clone)]
pub struct PbftConfig {
    /// Replica count.
    pub n: u32,
    /// Max requests per batch (Fabric's `batchSize`, default 500).
    pub batch_size: usize,
    /// Propose a partial batch after this long with pending requests.
    pub batch_timeout: SimDuration,
    /// Outstanding work older than this triggers a view change.
    pub view_timeout: SimDuration,
    /// Committed batches kept in memory per replica; older ones fold into
    /// the checkpoint digest and are garbage-collected. Sync requests below
    /// the horizon are answered with a [`PbftMsg::Checkpoint`] jump.
    pub checkpoint_horizon: usize,
    /// Requests re-broadcast alongside each `ViewChange` vote. The default
    /// ([`VIEW_CHANGE_RECRUIT_REQS`]) only *recruits* peers into the view
    /// change; setting it to `batch_size` restores Fabric v0.6's
    /// retransmission storm — n simultaneous timeouts broadcast
    /// n × batch_size forwards, bounded inboxes overflow, the votes drown,
    /// and views diverge — the mechanism behind the paper's ≥16-node
    /// collapse (§4.1.2).
    pub recruit_quota: usize,
}

impl Default for PbftConfig {
    fn default() -> Self {
        PbftConfig {
            n: 4,
            batch_size: 500,
            batch_timeout: SimDuration::from_millis(300),
            view_timeout: SimDuration::from_secs(5),
            // Generous: paper-scale runs commit hundreds of batches, so the
            // horizon only trims truly long sweeps; crashed replicas still
            // catch up batch-by-batch well inside it.
            checkpoint_horizon: 1024,
            recruit_quota: VIEW_CHANGE_RECRUIT_REQS,
        }
    }
}

impl PbftConfig {
    /// Maximum tolerated Byzantine replicas.
    pub fn f(&self) -> u32 {
        (self.n - 1) / 3
    }

    /// Votes needed to prepare/commit/view-change: `n − f`.
    pub fn quorum(&self) -> usize {
        (self.n - self.f()) as usize
    }

    /// Primary replica of `view`.
    pub fn primary_of(&self, view: u64) -> NodeId {
        NodeId((view % self.n as u64) as u32)
    }
}

/// Wire messages between replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PbftMsg {
    /// A backup forwards a client request to the primary.
    Forward(Request),
    /// Primary proposes a batch at `(view, seq)`.
    PrePrepare {
        /// Proposing view.
        view: u64,
        /// Sequence slot.
        seq: u64,
        /// Batch digest.
        digest: Hash256,
        /// The requests themselves.
        batch: Batch,
    },
    /// A replica vouches it accepted the pre-prepare.
    Prepare {
        /// Slot view.
        view: u64,
        /// Slot sequence.
        seq: u64,
        /// Batch digest.
        digest: Hash256,
    },
    /// A replica vouches the batch is prepared network-wide.
    Commit {
        /// Slot view.
        view: u64,
        /// Slot sequence.
        seq: u64,
        /// Batch digest.
        digest: Hash256,
    },
    /// Vote to move to `new_view`.
    ViewChange {
        /// Proposed view.
        new_view: u64,
        /// Voter's last committed sequence.
        last_committed: u64,
    },
    /// The new primary announces the view is live.
    NewView {
        /// The view now in force.
        view: u64,
        /// Highest sequence committed anywhere the primary knows of.
        committed_floor: u64,
    },
    /// Ask a peer for committed batches above `from_seq`.
    SyncRequest {
        /// Fetch batches with seq > this.
        from_seq: u64,
    },
    /// Committed batches for a lagging peer.
    SyncReply {
        /// `(seq, batch)` pairs in order.
        batches: Vec<(u64, Batch)>,
    },
    /// The requested history is below the sender's checkpoint horizon:
    /// jump to this checkpoint, then sync the remaining batches.
    Checkpoint {
        /// Highest sequence folded into the checkpoint.
        seq: u64,
        /// Running digest of every batch up to and including `seq`.
        digest: Hash256,
    },
}

impl PbftMsg {
    /// Approximate wire size in bytes (for the network cost model).
    pub fn byte_size(&self) -> u64 {
        const HEADER: u64 = 64; // envelope + signature
        match self {
            PbftMsg::Forward(r) => HEADER + r.len() as u64,
            PbftMsg::PrePrepare { batch, .. } => {
                HEADER + 48 + batch.iter().map(|r| r.len() as u64 + 4).sum::<u64>()
            }
            PbftMsg::Prepare { .. } | PbftMsg::Commit { .. } => HEADER + 48,
            PbftMsg::ViewChange { .. } => HEADER + 16,
            PbftMsg::NewView { .. } => HEADER + 16,
            PbftMsg::SyncRequest { .. } => HEADER + 8,
            PbftMsg::Checkpoint { .. } => HEADER + 40,
            PbftMsg::SyncReply { batches } => {
                HEADER
                    + batches
                        .iter()
                        .map(|(_, b)| 8 + b.iter().map(|r| r.len() as u64 + 4).sum::<u64>())
                        .sum::<u64>()
            }
        }
    }
}

/// What the platform must do after feeding the node an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Send to one replica.
    Send(NodeId, PbftMsg),
    /// Send to every *other* replica. The node has already applied its own
    /// vote internally — do not loop the message back.
    Broadcast(PbftMsg),
    /// A batch committed at `seq`: execute it and append a block.
    CommitBatch {
        /// Sequence number (consecutive from 1).
        seq: u64,
        /// The ordered requests.
        batch: Batch,
    },
    /// The node jumped past garbage-collected history to a peer's
    /// checkpoint: batches `..= seq` will never be delivered here. The
    /// platform decides whether (and how) to transfer application state.
    InstallCheckpoint {
        /// Highest sequence covered by the checkpoint.
        seq: u64,
        /// The adopted checkpoint digest.
        digest: Hash256,
    },
}

#[derive(Debug, Default)]
struct Slot {
    view: u64,
    digest: Hash256,
    batch: Option<Batch>,
    prepares: HashSet<NodeId>,
    commits: HashSet<NodeId>,
    sent_commit: bool,
    commit_quorum: bool,
    delivered: bool,
}

/// Digest binding a proposal to its batch content. Hashed by
/// `Batch::from`, so a forged batch (a simulated byzantine primary's
/// *well-formed* conflicting proposal) carries its own correct digest:
/// honest replicas drop digest-mismatched pre-prepares before any
/// equivocation logic runs.
fn batch_digest(batch: &[Request]) -> Hash256 {
    let mut parts: Vec<&[u8]> = Vec::with_capacity(batch.len() + 1);
    parts.push(b"pbft-batch");
    for r in batch {
        parts.push(r);
    }
    Hash256::digest_parts(&parts)
}

/// One PBFT replica.
pub struct PbftNode {
    id: NodeId,
    config: PbftConfig,
    view: u64,
    /// Next sequence this primary will assign.
    next_seq: u64,
    slots: BTreeMap<u64, Slot>,
    last_committed: u64,
    /// Exactly the sequences in `(checkpoint_seq, last_committed]` — the
    /// retained window the sync sub-protocol serves from.
    committed_log: BTreeMap<u64, Batch>,
    /// Highest sequence folded into the checkpoint digest (0 = none).
    checkpoint_seq: u64,
    /// Chained digest of every garbage-collected batch up to
    /// `checkpoint_seq`, starting from `Hash256::ZERO`.
    checkpoint_digest: Hash256,
    /// Requests seen but not yet committed, for re-forwarding on view
    /// change, keyed by digest: every `Forward` probes it. Every
    /// retransmission path walks it in ascending digest order, and only
    /// through [`Self::lowest_awaiting`] — the map's own iteration order
    /// would reorder messages, and with them the whole simulation.
    awaiting: DigestMap<Hash256, Request>,
    /// Primary-side queue of requests not yet batched.
    pending: VecDeque<Request>,
    pending_digests: DigestSet<Hash256>,
    view_votes: HashMap<u64, HashMap<NodeId, u64>>,
    batch_deadline: Option<SimTime>,
    view_deadline: Option<SimTime>,
    /// Highest view this node has voted for (escalation state).
    voted_view: u64,
    /// Conflicting-digest messages seen for occupied slots — evidence of an
    /// equivocating replica (one proposal to us, a different one to others).
    equivocations_seen: u64,
    /// Earliest time the next gap-triggered `SyncRequest` may go out (one
    /// per view timeout, so a wedged replica does not spam its peers).
    gap_sync_after: SimTime,
}

impl PbftNode {
    /// Fresh replica in view 0.
    pub fn new(id: NodeId, config: PbftConfig) -> Self {
        PbftNode {
            id,
            config,
            view: 0,
            next_seq: 1,
            slots: BTreeMap::new(),
            last_committed: 0,
            committed_log: BTreeMap::new(),
            checkpoint_seq: 0,
            checkpoint_digest: Hash256::ZERO,
            awaiting: DigestMap::default(),
            pending: VecDeque::new(),
            pending_digests: DigestSet::default(),
            view_votes: HashMap::new(),
            batch_deadline: None,
            view_deadline: None,
            voted_view: 0,
            equivocations_seen: 0,
            gap_sync_after: SimTime::ZERO,
        }
    }

    /// Replica restarting after a crash with `floor` batches recovered from
    /// its durable store: everything in-flight (slots, awaiting set, view
    /// votes, timers) is gone — that is the point — but committed history up
    /// to `floor` need not be re-fetched from peers. The caller follows up
    /// with a `SyncRequest { from_seq: floor }` to close the gap.
    pub fn resume_at(id: NodeId, config: PbftConfig, floor: u64) -> Self {
        let mut node = PbftNode::new(id, config);
        node.last_committed = floor;
        node.next_seq = floor + 1;
        // The durable store holds the *effects* of batches ≤ floor; the
        // request payloads themselves were volatile. Fold them into the
        // checkpoint digest position so sync serves only what is missing.
        node.checkpoint_seq = floor;
        node
    }

    /// Current view.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Is this replica the primary of the current view?
    pub fn is_primary(&self) -> bool {
        self.config.primary_of(self.view) == self.id
    }

    /// Highest contiguously committed sequence.
    pub fn last_committed(&self) -> u64 {
        self.last_committed
    }

    /// `(seq, digest)` of the current checkpoint — `(0, Hash256::ZERO)`
    /// until the committed log first overflows the horizon.
    pub fn checkpoint(&self) -> (u64, Hash256) {
        (self.checkpoint_seq, self.checkpoint_digest)
    }

    /// Conflicting-digest messages this replica has refused for occupied
    /// slots — its count of observed equivocation evidence. Volatile (a
    /// restart clears it along with the slots it indexed).
    pub fn equivocations_detected(&self) -> u64 {
        self.equivocations_seen
    }

    /// Committed batches currently held in memory (bounded by
    /// [`PbftConfig::checkpoint_horizon`]).
    pub fn committed_log_len(&self) -> usize {
        self.committed_log.len()
    }

    /// Requests seen and not yet committed.
    pub fn awaiting_count(&self) -> usize {
        self.awaiting.len()
    }

    /// Earliest time the platform should call [`PbftNode::on_tick`].
    pub fn next_wake(&self) -> Option<SimTime> {
        match (self.batch_deadline, self.view_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// A client request arrived at this replica.
    pub fn on_request(&mut self, req: impl Into<Request>, now: SimTime) -> Vec<Action> {
        let req = req.into();
        if self.committed_digest(&req.digest()) {
            return Vec::new();
        }
        self.awaiting.entry(req.digest()).or_insert_with(|| req.clone());
        self.arm_view_timer(now);
        if self.is_primary() {
            self.enqueue_at_primary(req, now)
        } else {
            vec![Action::Send(self.config.primary_of(self.view), PbftMsg::Forward(req))]
        }
    }

    /// A request still queued at this primary whose digest already left
    /// `awaiting` committed in another batch: drop the repeat. Two hash
    /// probes.
    fn committed_digest(&self, digest: &Hash256) -> bool {
        !self.awaiting.contains_key(digest) && self.pending_digests.contains(digest)
    }

    /// The `k` awaiting requests with the lowest digests, in ascending
    /// digest order: the order every retransmission path sends in, which
    /// `results/` pins. A select, then a sort of `k` items; only view
    /// changes and liveness timeouts pay for it.
    fn lowest_awaiting(&self, k: usize) -> Vec<Request> {
        if k == 0 {
            return Vec::new();
        }
        let mut lowest: Vec<&Request> = self.awaiting.values().collect();
        if k < lowest.len() {
            lowest.select_nth_unstable_by_key(k - 1, |r| r.digest());
            lowest.truncate(k);
        }
        lowest.sort_unstable_by_key(|r| r.digest());
        lowest.into_iter().cloned().collect()
    }

    fn enqueue_at_primary(&mut self, req: Request, now: SimTime) -> Vec<Action> {
        if !self.pending_digests.insert(req.digest()) {
            return Vec::new();
        }
        self.pending.push_back(req);
        let mut actions = Vec::new();
        while self.pending.len() >= self.config.batch_size {
            actions.extend(self.propose_batch(now));
        }
        if !self.pending.is_empty() && self.batch_deadline.is_none() {
            self.batch_deadline = Some(now + self.config.batch_timeout);
        }
        actions
    }

    fn propose_batch(&mut self, now: SimTime) -> Vec<Action> {
        let take = self.pending.len().min(self.config.batch_size);
        if take == 0 {
            return Vec::new();
        }
        let batch = Batch::from(self.pending.drain(..take).collect::<Vec<_>>());
        for r in batch.iter() {
            self.pending_digests.remove(&r.digest());
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let digest = batch.digest();
        let slot = self.slots.entry(seq).or_default();
        slot.view = self.view;
        slot.digest = digest;
        slot.batch = Some(batch.clone());
        slot.prepares.insert(self.id);
        self.batch_deadline =
            if self.pending.is_empty() { None } else { Some(now + self.config.batch_timeout) };
        self.arm_view_timer(now);
        vec![Action::Broadcast(PbftMsg::PrePrepare { view: self.view, seq, digest, batch })]
    }

    /// A protocol message arrived (the platform has already dropped
    /// corrupted messages — signature verification failure).
    pub fn on_message(&mut self, from: NodeId, msg: PbftMsg, now: SimTime) -> Vec<Action> {
        match msg {
            PbftMsg::Forward(req) => {
                self.awaiting.entry(req.digest()).or_insert_with(|| req.clone());
                self.arm_view_timer(now);
                if self.is_primary() {
                    self.enqueue_at_primary(req, now)
                } else {
                    Vec::new() // not the primary anymore; the sender will retry after a view change
                }
            }
            PbftMsg::PrePrepare { view, seq, digest, batch } => {
                self.on_preprepare(from, view, seq, digest, batch, now)
            }
            PbftMsg::Prepare { view, seq, digest } => self.on_prepare(from, view, seq, digest, now),
            PbftMsg::Commit { view, seq, digest } => self.on_commit(from, view, seq, digest, now),
            PbftMsg::ViewChange { new_view, last_committed } => {
                self.on_view_change(from, new_view, last_committed, now)
            }
            PbftMsg::NewView { view, committed_floor } => {
                self.on_new_view(from, view, committed_floor, now)
            }
            PbftMsg::SyncRequest { from_seq } => self.on_sync_request(from, from_seq),
            PbftMsg::SyncReply { batches } => self.on_sync_reply(from, batches, now),
            PbftMsg::Checkpoint { seq, digest } => self.on_checkpoint(from, seq, digest, now),
        }
    }

    fn on_preprepare(
        &mut self,
        from: NodeId,
        view: u64,
        seq: u64,
        digest: Hash256,
        batch: Batch,
        now: SimTime,
    ) -> Vec<Action> {
        if view != self.view || from != self.config.primary_of(view) {
            return Vec::new();
        }
        if seq <= self.last_committed {
            return Vec::new();
        }
        debug_assert_eq!(batch_digest(&batch), batch.digest(), "a batch's digest is its content's");
        if batch.digest() != digest {
            return Vec::new(); // malformed proposal
        }
        let slot = self.slots.entry(seq).or_default();
        if slot.batch.is_some() && slot.digest != digest {
            // Conflicting proposal for an occupied slot: the primary is
            // equivocating. Refuse it and keep the evidence count.
            self.equivocations_seen += 1;
            return Vec::new();
        }
        slot.view = view;
        slot.digest = digest;
        slot.batch = Some(batch);
        slot.prepares.insert(from);
        slot.prepares.insert(self.id);
        self.arm_view_timer(now);
        let mut actions = vec![Action::Broadcast(PbftMsg::Prepare { view, seq, digest })];
        actions.extend(self.check_prepared(seq));
        actions.extend(self.try_deliver(now));
        actions
    }

    fn on_prepare(
        &mut self,
        from: NodeId,
        view: u64,
        seq: u64,
        digest: Hash256,
        now: SimTime,
    ) -> Vec<Action> {
        if view != self.view || seq <= self.last_committed {
            return Vec::new();
        }
        let slot = self.slots.entry(seq).or_default();
        if slot.batch.is_some() && slot.digest != digest {
            // A peer prepared a different proposal than the one we hold:
            // someone fed the two of us conflicting pre-prepares.
            self.equivocations_seen += 1;
            return Vec::new();
        }
        slot.view = view;
        if slot.batch.is_none() {
            slot.digest = digest;
        }
        slot.prepares.insert(from);
        let mut actions = self.check_prepared(seq);
        // Our own commit vote may have completed the quorum.
        actions.extend(self.try_deliver(now));
        actions
    }

    fn check_prepared(&mut self, seq: u64) -> Vec<Action> {
        let quorum = self.config.quorum();
        let view = self.view;
        let id = self.id;
        let Some(slot) = self.slots.get_mut(&seq) else {
            return Vec::new();
        };
        if slot.sent_commit || slot.prepares.len() < quorum {
            return Vec::new();
        }
        slot.sent_commit = true;
        slot.commits.insert(id);
        if slot.commits.len() >= quorum {
            // Our own vote can complete the quorum: with exactly n − f
            // commit broadcasts in flight, a replica that already heard the
            // others must not wait for a message that will never come.
            slot.commit_quorum = true;
        }
        let digest = slot.digest;
        vec![Action::Broadcast(PbftMsg::Commit { view, seq, digest })]
    }

    fn on_commit(
        &mut self,
        from: NodeId,
        view: u64,
        seq: u64,
        digest: Hash256,
        now: SimTime,
    ) -> Vec<Action> {
        if view != self.view || seq <= self.last_committed {
            return Vec::new();
        }
        let quorum = self.config.quorum();
        let slot = self.slots.entry(seq).or_default();
        if slot.batch.is_some() && slot.digest != digest {
            self.equivocations_seen += 1;
            return Vec::new();
        }
        slot.view = view;
        if slot.batch.is_none() {
            slot.digest = digest;
        }
        slot.commits.insert(from);
        if slot.commits.len() >= quorum {
            slot.commit_quorum = true;
        }
        let mut actions = self.try_deliver(now);
        // Gap resync: a commit quorum strictly above our delivery frontier
        // proves the cluster committed every sequence below it — and the
        // pre-prepares/commits we missed for those will never be resent
        // (e.g. they were dropped while our inbox was flooded during a view
        // change). Pull the hole from the peer that showed us the quorum.
        if self.last_committed + 1 < seq
            && self.slots.get(&seq).is_some_and(|s| s.commit_quorum)
            && now >= self.gap_sync_after
        {
            self.gap_sync_after = now + self.config.view_timeout;
            actions.push(Action::Send(from, PbftMsg::SyncRequest {
                from_seq: self.last_committed,
            }));
        }
        actions
    }

    /// Deliver committed batches strictly in order.
    fn try_deliver(&mut self, now: SimTime) -> Vec<Action> {
        let mut actions = Vec::new();
        loop {
            let next = self.last_committed + 1;
            let ready = self
                .slots
                .get(&next)
                .map(|s| s.commit_quorum && s.batch.is_some() && !s.delivered)
                .unwrap_or(false);
            if !ready {
                break;
            }
            let slot = self.slots.get_mut(&next).expect("checked above");
            slot.delivered = true;
            let batch = slot.batch.clone().expect("checked above");
            for r in batch.iter() {
                self.awaiting.remove(&r.digest());
            }
            self.committed_log.insert(next, batch.clone());
            self.last_committed = next;
            actions.push(Action::CommitBatch { seq: next, batch });
        }
        self.gc_committed_log();
        if !actions.is_empty() {
            // Progress: reset (or clear) the liveness timer.
            self.reset_view_timer(now);
        }
        actions
    }

    fn has_outstanding_work(&self) -> bool {
        !self.awaiting.is_empty()
            || self.slots.range(self.last_committed + 1..).any(|(_, s)| !s.delivered && s.batch.is_some())
    }

    fn arm_view_timer(&mut self, now: SimTime) {
        if self.view_deadline.is_none() && self.has_outstanding_work() {
            self.view_deadline = Some(now + self.config.view_timeout);
        }
    }

    /// Restart the liveness timer from `now`, or clear it when nothing is
    /// outstanding.
    fn reset_view_timer(&mut self, now: SimTime) {
        self.view_deadline = if self.has_outstanding_work() {
            Some(now + self.config.view_timeout)
        } else {
            None
        };
    }

    /// Timer poll: the platform calls this at (or after) `next_wake`.
    pub fn on_tick(&mut self, now: SimTime) -> Vec<Action> {
        let mut actions = Vec::new();
        if let Some(bd) = self.batch_deadline {
            if now >= bd {
                self.batch_deadline = None;
                if self.is_primary() {
                    actions.extend(self.propose_batch(now));
                }
            }
        }
        if let Some(vd) = self.view_deadline {
            if now >= vd && self.has_outstanding_work() {
                // Escalate: vote for the next view above anything voted so
                // far. The vote goes out FIRST — when every replica times
                // out in the same window the re-forward burst below can
                // overflow bounded inboxes, and a vote queued behind it
                // gets dropped at every peer: nobody reaches the quorum and
                // the cluster escalates forever without changing views.
                // Control-plane messages lead the data-plane retransmit.
                let target = (self.view + 1).max(self.voted_view + 1);
                self.voted_view = target;
                self.view_votes
                    .entry(target)
                    .or_default()
                    .insert(self.id, self.last_committed);
                self.view_deadline = Some(now + self.config.view_timeout * 2);
                actions.push(Action::Broadcast(PbftMsg::ViewChange {
                    new_view: target,
                    last_committed: self.last_committed,
                }));
                // Spread a few outstanding requests: like a PBFT client that
                // got no reply, broadcast them so every replica arms its
                // liveness timer and can join the view change. At the
                // default `recruit_quota` this is *recruitment*, not
                // retransmission — one surviving request per peer arms its
                // timer, and the real backlog is re-sent after the view
                // change (`after_view_entry` forwards a batch to the new
                // primary, which re-proposes). A batch-sized burst here is
                // self-defeating: n replicas timing out in the same window
                // broadcast n × batch_size forwards, overflow every bounded
                // inbox, and the votes drown in their own retransmit flood —
                // which is exactly Fabric v0.6's ≥16-node collapse, so the
                // quota is a config knob and the scalability experiment can
                // restore the storm deliberately.
                for req in self.lowest_awaiting(self.config.recruit_quota) {
                    actions.push(Action::Broadcast(PbftMsg::Forward(req)));
                }
                actions.extend(self.maybe_enter_view(target, now));
            }
        }
        actions
    }

    fn on_view_change(
        &mut self,
        from: NodeId,
        new_view: u64,
        last_committed: u64,
        now: SimTime,
    ) -> Vec<Action> {
        if new_view <= self.view {
            return Vec::new();
        }
        self.view_votes.entry(new_view).or_default().insert(from, last_committed);
        let mut actions = Vec::new();
        // Join rule: once f+1 replicas vote for a view, vote with them even
        // without a local timeout (prevents slow-timer stragglers from
        // blocking the quorum).
        let votes = self.view_votes.get(&new_view).map(|v| v.len()).unwrap_or(0);
        if votes > self.config.f() as usize && self.voted_view < new_view {
            self.voted_view = new_view;
            self.view_votes
                .entry(new_view)
                .or_default()
                .insert(self.id, self.last_committed);
            actions.push(Action::Broadcast(PbftMsg::ViewChange {
                new_view,
                last_committed: self.last_committed,
            }));
        }
        actions.extend(self.maybe_enter_view(new_view, now));
        actions
    }

    fn maybe_enter_view(&mut self, new_view: u64, now: SimTime) -> Vec<Action> {
        let quorum = self.config.quorum();
        let Some(votes) = self.view_votes.get(&new_view) else {
            return Vec::new();
        };
        if votes.len() < quorum || new_view <= self.view {
            return Vec::new();
        }
        let committed_floor = votes.values().copied().max().unwrap_or(0).max(self.last_committed);
        self.enter_view(new_view, now);
        let mut actions = Vec::new();
        if self.is_primary() {
            self.next_seq = committed_floor + 1;
            actions.push(Action::Broadcast(PbftMsg::NewView { view: new_view, committed_floor }));
            if self.last_committed < committed_floor {
                // The new primary itself lags; pull state from any voter.
                if let Some(peer) = self.any_peer() {
                    actions.push(Action::Send(
                        peer,
                        PbftMsg::SyncRequest { from_seq: self.last_committed },
                    ));
                }
            }
            actions.extend(self.repropose_awaiting(now));
        } else {
            actions.extend(self.after_view_entry(committed_floor, now));
        }
        actions
    }

    fn on_new_view(&mut self, from: NodeId, view: u64, committed_floor: u64, now: SimTime) -> Vec<Action> {
        if view < self.view || from != self.config.primary_of(view) {
            return Vec::new();
        }
        if view > self.view {
            self.enter_view(view, now);
        }
        self.after_view_entry(committed_floor, now)
    }

    fn after_view_entry(&mut self, committed_floor: u64, now: SimTime) -> Vec<Action> {
        let mut actions = Vec::new();
        if self.last_committed < committed_floor {
            actions.push(Action::Send(
                self.config.primary_of(self.view),
                PbftMsg::SyncRequest { from_seq: self.last_committed },
            ));
        }
        // Re-forward outstanding requests to the new primary — one batch
        // worth now; the liveness timer re-forwards the rest window by
        // window as earlier ones commit.
        let primary = self.config.primary_of(self.view);
        if primary != self.id {
            for req in self.lowest_awaiting(self.config.batch_size) {
                actions.push(Action::Send(primary, PbftMsg::Forward(req)));
            }
        }
        self.arm_view_timer(now);
        actions
    }

    fn repropose_awaiting(&mut self, now: SimTime) -> Vec<Action> {
        // In-flight window: re-propose a couple of batches, not the whole
        // backlog — backups re-forward theirs window by window too, and an
        // unbounded re-proposal burst at 20 nodes is O(backlog × n) clones.
        let mut actions = Vec::new();
        for req in self.lowest_awaiting(2 * self.config.batch_size) {
            actions.extend(self.enqueue_at_primary(req, now));
        }
        // Flush a partial batch immediately: the view change already cost
        // seconds; don't wait for the batch timer.
        actions.extend(self.propose_batch(now));
        actions
    }

    fn enter_view(&mut self, view: u64, now: SimTime) {
        self.view = view;
        self.voted_view = self.voted_view.max(view);
        // Uncommitted slots from older views are abandoned; their requests
        // live on in `awaiting` and get re-proposed.
        self.slots.retain(|&seq, slot| seq <= self.last_committed || slot.delivered);
        self.pending.clear();
        self.pending_digests.clear();
        self.view_votes.retain(|&v, _| v > view);
        self.reset_view_timer(now);
        self.batch_deadline = None;
    }

    fn any_peer(&self) -> Option<NodeId> {
        (0..self.config.n).map(NodeId).find(|&p| p != self.id)
    }

    fn on_sync_request(&mut self, from: NodeId, from_seq: u64) -> Vec<Action> {
        if from_seq < self.checkpoint_seq {
            // The batches the peer needs first were garbage-collected:
            // offer the checkpoint jump; the peer follows up with a
            // SyncRequest from the checkpoint for the retained window.
            return vec![Action::Send(
                from,
                PbftMsg::Checkpoint { seq: self.checkpoint_seq, digest: self.checkpoint_digest },
            )];
        }
        let batches: Vec<(u64, Batch)> = self
            .committed_log
            .range(from_seq + 1..)
            .take(SYNC_WINDOW)
            .map(|(&s, b)| (s, b.clone()))
            .collect();
        if batches.is_empty() {
            return Vec::new();
        }
        vec![Action::Send(from, PbftMsg::SyncReply { batches })]
    }

    fn on_sync_reply(
        &mut self,
        from: NodeId,
        batches: Vec<(u64, Batch)>,
        now: SimTime,
    ) -> Vec<Action> {
        let full_window = batches.len() == SYNC_WINDOW;
        let mut actions = Vec::new();
        for (seq, batch) in batches {
            if seq != self.last_committed + 1 {
                continue; // only contiguous catch-up
            }
            for r in batch.iter() {
                self.awaiting.remove(&r.digest());
            }
            self.committed_log.insert(seq, batch.clone());
            self.last_committed = seq;
            // Drop any stale slot occupying this sequence.
            self.slots.remove(&seq);
            actions.push(Action::CommitBatch { seq, batch });
        }
        self.gc_committed_log();
        if !actions.is_empty() {
            // A full window means the peer may hold more: request the next
            // chunk. (An empty or partial reply ends the catch-up loop.)
            if full_window {
                actions.push(Action::Send(
                    from,
                    PbftMsg::SyncRequest { from_seq: self.last_committed },
                ));
            }
            self.reset_view_timer(now);
        }
        actions
    }

    /// A peer answered a sync request with a checkpoint jump: the history
    /// this node is missing was garbage-collected everywhere it asked.
    ///
    /// Installing on one peer's word is safe for the faults the benchmark
    /// injects (crashes, partitions — never lying replicas); full PBFT
    /// would demand f + 1 matching checkpoint proofs. Requests this node
    /// forwarded that committed inside the jumped-over range stay in
    /// `awaiting` (their bodies live in the discarded batches), so they may
    /// be re-proposed — the platform's own replay protection, not PBFT,
    /// dedups at that layer, and no benchmark scenario reaches this corner.
    fn on_checkpoint(
        &mut self,
        from: NodeId,
        seq: u64,
        digest: Hash256,
        now: SimTime,
    ) -> Vec<Action> {
        if seq <= self.last_committed {
            return Vec::new(); // stale offer; batch sync can proceed
        }
        self.checkpoint_seq = seq;
        self.checkpoint_digest = digest;
        self.last_committed = seq;
        // Everything at or below the checkpoint is history this node will
        // never replay: drop stale slots and pre-checkpoint log entries so
        // the retained-window invariant holds.
        self.committed_log = self.committed_log.split_off(&(seq + 1));
        self.slots.retain(|&s, _| s > seq);
        self.reset_view_timer(now);
        vec![
            Action::InstallCheckpoint { seq, digest },
            // Fetch the peer's retained window above the checkpoint.
            Action::Send(from, PbftMsg::SyncRequest { from_seq: seq }),
        ]
    }

    /// Fold committed batches beyond the horizon into the checkpoint
    /// digest, oldest first, keeping `committed_log` bounded.
    fn gc_committed_log(&mut self) {
        while self.committed_log.len() > self.config.checkpoint_horizon {
            let (&seq, _) = self.committed_log.iter().next().expect("len > horizon >= 0");
            let batch = self.committed_log.remove(&seq).expect("key just observed");
            debug_assert_eq!(seq, self.checkpoint_seq + 1, "GC folds contiguously");
            self.checkpoint_digest = Hash256::digest_parts(&[
                b"pbft-ckpt",
                self.checkpoint_digest.as_bytes(),
                &seq.to_be_bytes(),
                batch.digest().as_bytes(),
            ]);
            self.checkpoint_seq = seq;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(payload: &[u8]) -> Request {
        payload.to_vec().into()
    }

    /// `awaiting` is walked by request digest and slots are matched by
    /// batch digest, so these values decide retransmission order and are
    /// frozen by `results/` (literals from the hash-on-every-use code).
    #[test]
    fn request_and_batch_digests_known_answer() {
        let alpha = req(b"alpha");
        assert_eq!(alpha.digest(), Hash256::digest_parts(&[b"pbft-req", b"alpha"]));
        assert_eq!(
            alpha.digest().to_hex(),
            "84dd272b6a089ee1cd479473965395c42d7f4551dcadf342ef0f0b5743688e9a"
        );
        assert_eq!(
            batch_digest(&[alpha, req(b"beta"), req(b"gamma")]).to_hex(),
            "ef528181ac2d5847e2e6bd84586573c764eab889da67cb88b6fed714c13e5d13"
        );
        assert_eq!(
            batch_digest(&[]).to_hex(),
            "61a70b8bb05fe6d08c05f27006024876523939a095fe1f58163a8528f1bf0e95"
        );
    }

    fn sample_tx() -> Transaction {
        use bb_crypto::KeyPair;
        use bb_types::Address;
        Transaction::signed(&KeyPair::from_seed(3), 5, Address::from_index(9), 42, vec![1, 2, 3])
    }

    #[test]
    fn cloned_request_shares_its_payload() {
        let a = Request::from(sample_tx());
        let b = a.clone();
        assert!(Arc::ptr_eq(a.transaction().unwrap(), b.transaction().unwrap()));
        assert!(std::ptr::eq(&*a, &*b), "one payload behind both handles");
        assert_eq!(a, b);
        assert_ne!(a, req(&[8u8; 160]));
        assert_eq!(std::mem::size_of::<Request>(), std::mem::size_of::<usize>());
    }

    #[test]
    fn both_constructors_build_the_same_request() {
        let tx = sample_tx();
        let held = Request::from(tx.clone());
        let decoded = Request::from(tx.encode());
        assert_eq!(held.digest(), decoded.digest());
        assert_eq!(&*held, &*decoded);
        assert_eq!(&*held, &tx.encode()[..]);
        for request in [&held, &decoded] {
            let attached = request.transaction().expect("payload is a transaction");
            assert_eq!(**attached, tx);
            assert_eq!(attached.id(), tx.id());
            assert_eq!(attached.byte_size(), tx.byte_size());
        }
    }

    #[test]
    fn undecodable_payload_carries_no_transaction_and_still_commits() {
        assert!(req(b"not a transaction").transaction().is_none());
        let mut truncated = sample_tx().encode();
        truncated.pop();
        assert!(Request::from(truncated).transaction().is_none());

        let mut c = Cluster::new(4);
        let now = SimTime::from_secs(1);
        c.request(NodeId(1), b"garbage-1", now);
        c.request(NodeId(2), b"garbage-2", now);
        c.request(NodeId(0), b"garbage-3", now);
        for log in &c.committed {
            assert_eq!(log.len(), 1);
            assert_eq!(log[0].1.len(), 3);
            assert!(log[0].1.iter().all(|r| r.transaction().is_none()));
        }
    }

    #[test]
    fn debug_names_a_request_without_dumping_it() {
        let tx = Request::from(sample_tx());
        assert_eq!(format!("{tx:?}"), format!("Request({}, 131 B, tx)", tx.digest().short()));
        assert_eq!(format!("{:?}", req(b"alpha")), "Request(84dd272b, 5 B, no tx)");
    }

    /// A zero-latency in-memory harness that delivers every action
    /// immediately, in FIFO order — protocol logic without the network.
    struct Cluster {
        nodes: Vec<PbftNode>,
        committed: Vec<Vec<(u64, Vec<Request>)>>,
        /// Crashed replicas drop everything.
        down: Vec<bool>,
        /// Messages handed to a live replica, by variant name.
        delivered: BTreeMap<String, u64>,
    }

    impl Cluster {
        fn new(n: u32) -> Cluster {
            Cluster::with_config(PbftConfig { n, batch_size: 3, ..PbftConfig::default() })
        }

        fn with_config(config: PbftConfig) -> Cluster {
            let n = config.n;
            Cluster {
                nodes: (0..n).map(|i| PbftNode::new(NodeId(i), config.clone())).collect(),
                committed: vec![Vec::new(); n as usize],
                down: vec![false; n as usize],
                delivered: BTreeMap::new(),
            }
        }

        fn dispatch(&mut self, from: NodeId, actions: Vec<Action>, now: SimTime) {
            let mut queue: VecDeque<(NodeId, NodeId, PbftMsg)> = VecDeque::new();
            let n = self.nodes.len() as u32;
            let absorb = |committed: &mut Vec<Vec<(u64, Vec<Request>)>>,
                              queue: &mut VecDeque<(NodeId, NodeId, PbftMsg)>,
                              src: NodeId,
                              acts: Vec<Action>| {
                for a in acts {
                    match a {
                        Action::Send(to, msg) => queue.push_back((src, to, msg)),
                        Action::Broadcast(msg) => {
                            for to in (0..n).map(NodeId).filter(|&t| t != src) {
                                queue.push_back((src, to, msg.clone()));
                            }
                        }
                        Action::CommitBatch { seq, batch } => {
                            committed[src.index()].push((seq, batch.to_vec()));
                        }
                        // State-transfer jump; the harness tracks only the
                        // batch stream, which resumes past the checkpoint.
                        Action::InstallCheckpoint { .. } => {}
                    }
                }
            };
            absorb(&mut self.committed, &mut queue, from, actions);
            while let Some((src, to, msg)) = queue.pop_front() {
                if self.down[src.index()] || self.down[to.index()] {
                    continue;
                }
                let kind = format!("{msg:?}");
                let kind = kind.chars().take_while(char::is_ascii_alphanumeric).collect();
                *self.delivered.entry(kind).or_default() += 1;
                let acts = self.nodes[to.index()].on_message(src, msg, now);
                absorb(&mut self.committed, &mut queue, to, acts);
            }
        }

        fn request(&mut self, at: NodeId, req: &[u8], now: SimTime) {
            let acts = self.nodes[at.index()].on_request(req.to_vec(), now);
            self.dispatch(at, acts, now);
        }

        fn tick_all(&mut self, now: SimTime) {
            for i in 0..self.nodes.len() {
                if self.down[i] {
                    continue;
                }
                let acts = self.nodes[i].on_tick(now);
                self.dispatch(NodeId(i as u32), acts, now);
            }
        }
    }

    #[test]
    fn quorum_math() {
        for (n, f, q) in [(4u32, 1u32, 3usize), (7, 2, 5), (8, 2, 6), (12, 3, 9), (16, 5, 11), (32, 10, 22)] {
            let c = PbftConfig { n, ..PbftConfig::default() };
            assert_eq!(c.f(), f, "n={n}");
            assert_eq!(c.quorum(), q, "n={n}");
        }
    }

    #[test]
    fn full_batch_commits_on_all_replicas() {
        let mut c = Cluster::new(4);
        let now = SimTime::from_secs(1);
        // batch_size = 3: the third request triggers a proposal.
        c.request(NodeId(0), b"tx-1", now);
        c.request(NodeId(0), b"tx-2", now);
        c.request(NodeId(0), b"tx-3", now);
        for (i, log) in c.committed.iter().enumerate() {
            assert_eq!(log.len(), 1, "replica {i}");
            assert_eq!(log[0].0, 1);
            assert_eq!(log[0].1, vec![req(b"tx-1"), req(b"tx-2"), req(b"tx-3")]);
        }
        assert!(c.nodes.iter().all(|n| n.last_committed() == 1));
        assert!(c.nodes.iter().all(|n| n.awaiting_count() == 0));
    }

    #[test]
    fn normal_case_message_counts_are_quadratic() {
        // One full batch at the primary: n-1 pre-prepares, a prepare from
        // each backup and a commit from each replica to every other
        // replica — 2n(n-1) in all, and nothing else. FIFO delivery puts
        // every prepare before any commit. Any excess elsewhere is
        // retransmission.
        for n in [4u32, 7, 10, 16] {
            let mut c = Cluster::new(n);
            let now = SimTime::from_secs(1);
            for i in 0..3 {
                c.request(NodeId(0), format!("tx-{i}").as_bytes(), now);
            }
            assert!(c.committed.iter().all(|log| log.len() == 1), "n={n}");
            let n = u64::from(n);
            let delivered: Vec<_> = c.delivered.iter().map(|(k, &v)| (k.as_str(), v)).collect();
            let prepares = (n - 1) * (n - 1);
            let expected = [("Commit", n * (n - 1)), ("PrePrepare", n - 1), ("Prepare", prepares)];
            assert_eq!(delivered, expected, "n={n}");
            assert_eq!(c.delivered.values().sum::<u64>(), 2 * n * (n - 1), "n={n}");
        }
    }

    #[test]
    fn backup_requests_are_forwarded_to_primary() {
        let mut c = Cluster::new(4);
        let now = SimTime::from_secs(1);
        c.request(NodeId(2), b"a", now);
        c.request(NodeId(3), b"b", now);
        c.request(NodeId(1), b"c", now);
        assert!(c.committed.iter().all(|log| log.len() == 1));
        let batch: &Vec<Request> = &c.committed[0][0].1;
        assert_eq!(batch.len(), 3);
    }

    #[test]
    fn partial_batch_flushes_on_timer() {
        let mut c = Cluster::new(4);
        let t0 = SimTime::from_secs(1);
        c.request(NodeId(0), b"lonely", t0);
        assert!(c.committed[0].is_empty(), "must wait for the batch timer");
        let wake = c.nodes[0].next_wake().expect("batch timer armed");
        assert_eq!(wake, t0 + PbftConfig::default().batch_timeout);
        c.tick_all(wake);
        assert!(c.committed.iter().all(|log| log.len() == 1));
        assert_eq!(c.committed[0][0].1, vec![req(b"lonely")]);
    }

    #[test]
    fn sequences_commit_in_order() {
        let mut c = Cluster::new(4);
        let now = SimTime::from_secs(1);
        for i in 0..9 {
            c.request(NodeId(0), format!("tx-{i}").as_bytes(), now);
        }
        for log in &c.committed {
            let seqs: Vec<u64> = log.iter().map(|(s, _)| *s).collect();
            assert_eq!(seqs, vec![1, 2, 3]);
        }
    }

    #[test]
    fn duplicate_requests_commit_once() {
        let mut c = Cluster::new(4);
        let now = SimTime::from_secs(1);
        c.request(NodeId(0), b"dup", now);
        c.request(NodeId(0), b"dup", now);
        c.request(NodeId(0), b"x", now);
        c.request(NodeId(0), b"y", now);
        let all: Vec<&[u8]> = c.committed[0]
            .iter()
            .flat_map(|(_, b)| b.iter().map(|r| &**r))
            .collect();
        assert_eq!(all.iter().filter(|r| **r == b"dup").count(), 1);
    }

    #[test]
    fn equivocating_primary_is_detected_and_commits_nothing() {
        // A byzantine primary splits seq 1: node 1 hears proposal A, nodes
        // 2 and 3 hear proposal B — both correctly digested, so the
        // malformed-proposal guard cannot help. Honest replicas must refuse
        // the cross-subset votes, count the evidence, and commit neither.
        let config = PbftConfig { n: 4, batch_size: 1, ..PbftConfig::default() };
        let mut nodes: Vec<PbftNode> =
            (0..4).map(|i| PbftNode::new(NodeId(i), config.clone())).collect();
        let now = SimTime::from_secs(1);
        let batch_a: Vec<Request> = vec![req(b"proposal-a")];
        let batch_b: Vec<Request> = vec![req(b"proposal-b")];
        let (da, db) = (batch_digest(&batch_a), batch_digest(&batch_b));
        let pp = |digest, batch: &Vec<Request>| PbftMsg::PrePrepare {
            view: 0,
            seq: 1,
            digest,
            batch: batch.clone().into(),
        };
        let mut queue: VecDeque<(NodeId, NodeId, PbftMsg)> = VecDeque::new();
        queue.push_back((NodeId(0), NodeId(1), pp(da, &batch_a)));
        queue.push_back((NodeId(0), NodeId(2), pp(db, &batch_b)));
        queue.push_back((NodeId(0), NodeId(3), pp(db, &batch_b)));
        let mut commits = 0;
        while let Some((src, to, msg)) = queue.pop_front() {
            if to == NodeId(0) {
                continue; // the byzantine primary answers nothing
            }
            for act in nodes[to.index()].on_message(src, msg, now) {
                match act {
                    Action::Send(dst, m) => queue.push_back((to, dst, m)),
                    Action::Broadcast(m) => {
                        for dst in (0..4).map(NodeId).filter(|&d| d != to) {
                            queue.push_back((to, dst, m.clone()));
                        }
                    }
                    Action::CommitBatch { .. } => commits += 1,
                    Action::InstallCheckpoint { .. } => {}
                }
            }
        }
        assert_eq!(commits, 0, "a split pre-prepare must never reach commit quorum");
        assert!(nodes.iter().all(|n| n.last_committed() == 0));
        // Node 1 saw conflicting prepares from 2 and 3, then their
        // conflicting commits (the B side reaches prepare quorum with the
        // primary's implicit prepare); each of 2 and 3 saw node 1's
        // conflicting prepare.
        assert_eq!(nodes[1].equivocations_detected(), 4);
        assert_eq!(nodes[2].equivocations_detected(), 1);
        assert_eq!(nodes[3].equivocations_detected(), 1);
    }

    #[test]
    fn primary_crash_triggers_view_change_and_recovery() {
        let mut c = Cluster::new(4);
        let t0 = SimTime::from_secs(1);
        // Primary (node 0) dies; a request lands at a backup.
        c.down[0] = true;
        c.request(NodeId(1), b"orphaned", t0);
        assert!(c.committed.iter().all(|log| log.is_empty()));
        // First timeout: node 1 spreads the request and votes; the other
        // replicas arm their timers. Second timeout: they join, the view
        // change reaches quorum.
        let t1 = t0 + PbftConfig::default().view_timeout + SimDuration::from_millis(1);
        c.tick_all(t1);
        let t2 = t1 + PbftConfig::default().view_timeout + SimDuration::from_millis(1);
        c.tick_all(t2);
        // View changed to 1 (primary = node 1); request re-proposed; it
        // flushes on the new primary's immediate propose.
        for i in 1..4 {
            assert_eq!(c.nodes[i].view(), 1, "replica {i}");
        }
        for i in 1..4 {
            assert_eq!(c.committed[i].len(), 1, "replica {i} committed");
            assert_eq!(c.committed[i][0].1, vec![req(b"orphaned")]);
        }
    }

    #[test]
    fn too_many_crashes_stall_forever() {
        // n = 4 tolerates f = 1; crash 2 and nothing can commit.
        let mut c = Cluster::new(4);
        let t0 = SimTime::from_secs(1);
        c.down[2] = true;
        c.down[3] = true;
        c.request(NodeId(0), b"a", t0);
        c.request(NodeId(0), b"b", t0);
        c.request(NodeId(0), b"c", t0);
        assert!(c.committed.iter().all(|log| log.is_empty()));
        // Even after repeated view-change attempts.
        let mut t = t0;
        for _ in 0..6 {
            t += PbftConfig::default().view_timeout * 3;
            c.tick_all(t);
        }
        assert!(c.committed.iter().all(|log| log.is_empty()));
    }

    #[test]
    fn lagging_replica_catches_up_via_sync() {
        let mut c = Cluster::new(4);
        let t0 = SimTime::from_secs(1);
        // Node 3 is crashed while two batches commit.
        c.down[3] = true;
        for i in 0..6 {
            c.request(NodeId(0), format!("tx-{i}").as_bytes(), t0);
        }
        assert_eq!(c.committed[0].len(), 2);
        assert!(c.committed[3].is_empty());
        // Node 3 recovers and asks a peer for state.
        c.down[3] = false;
        let acts = vec![Action::Send(NodeId(0), PbftMsg::SyncRequest { from_seq: 0 })];
        c.dispatch(NodeId(3), acts, t0 + SimDuration::from_secs(1));
        assert_eq!(c.committed[3].len(), 2);
        assert_eq!(c.nodes[3].last_committed(), 2);
        assert_eq!(c.committed[3], c.committed[0]);
    }

    #[test]
    fn resumed_replica_syncs_only_the_gap() {
        let mut c = Cluster::new(4);
        let t0 = SimTime::from_secs(1);
        // Four batches commit everywhere.
        for i in 0..12 {
            c.request(NodeId(0), format!("tx-{i}").as_bytes(), t0);
        }
        assert_eq!(c.committed[0].len(), 4);
        // Node 3 crashes having durably committed only the first 2 batches,
        // then restarts amnesiac above that floor while 2 more commit.
        c.down[3] = true;
        for i in 12..18 {
            c.request(NodeId(0), format!("tx-{i}").as_bytes(), t0);
        }
        assert_eq!(c.committed[0].len(), 6);
        let config = c.nodes[3].config.clone();
        c.nodes[3] = PbftNode::resume_at(NodeId(3), config, 2);
        c.committed[3].clear();
        c.down[3] = false;
        assert_eq!(c.nodes[3].last_committed(), 2);
        let acts = vec![Action::Send(NodeId(0), PbftMsg::SyncRequest { from_seq: 2 })];
        c.dispatch(NodeId(3), acts, t0 + SimDuration::from_secs(1));
        // Only batches 3..=6 were re-fetched; the durable prefix stayed put.
        assert_eq!(c.nodes[3].last_committed(), 6);
        assert_eq!(c.committed[3].len(), 4);
        assert_eq!(c.committed[3], c.committed[0][2..].to_vec());
    }

    #[test]
    fn stale_view_messages_ignored() {
        let config = PbftConfig { n: 4, ..PbftConfig::default() };
        let mut node = PbftNode::new(NodeId(1), config);
        let now = SimTime::from_secs(1);
        // Jump the node to view 2 via quorum of view-change votes.
        for from in [0u32, 2, 3] {
            node.on_message(
                NodeId(from),
                PbftMsg::ViewChange { new_view: 2, last_committed: 0 },
                now,
            );
        }
        assert_eq!(node.view(), 2);
        // A pre-prepare from the view-0 primary is now stale.
        let acts = node.on_message(
            NodeId(0),
            PbftMsg::PrePrepare {
                view: 0,
                seq: 1,
                digest: batch_digest(&[req(b"x")]),
                batch: vec![req(b"x")].into(),
            },
            now,
        );
        assert!(acts.is_empty());
        assert_eq!(node.last_committed(), 0);
    }

    #[test]
    fn preprepare_from_non_primary_rejected() {
        let config = PbftConfig { n: 4, ..PbftConfig::default() };
        let mut node = PbftNode::new(NodeId(1), config);
        let acts = node.on_message(
            NodeId(2), // not the view-0 primary
            PbftMsg::PrePrepare {
                view: 0,
                seq: 1,
                digest: batch_digest(&[req(b"x")]),
                batch: vec![req(b"x")].into(),
            },
            SimTime::from_secs(1),
        );
        assert!(acts.is_empty());
    }

    #[test]
    fn mismatched_digest_rejected() {
        let config = PbftConfig { n: 4, ..PbftConfig::default() };
        let mut node = PbftNode::new(NodeId(1), config);
        let acts = node.on_message(
            NodeId(0),
            PbftMsg::PrePrepare {
                view: 0,
                seq: 1,
                digest: Hash256::digest(b"lies"),
                batch: vec![req(b"x")].into(),
            },
            SimTime::from_secs(1),
        );
        assert!(acts.is_empty());
    }

    #[test]
    fn message_sizes_scale_with_content() {
        let small = PbftMsg::Prepare { view: 0, seq: 1, digest: Hash256::ZERO };
        let big = PbftMsg::PrePrepare {
            view: 0,
            seq: 1,
            digest: Hash256::ZERO,
            batch: vec![req(&[0u8; 200]); 10].into(),
        };
        assert!(big.byte_size() > small.byte_size() + 2000);
        assert!(small.byte_size() >= 64);
    }

    /// `byte_size()` is what the network model bills, so it is inside
    /// `net.bytes` and `results/`: literal sizes, payload lengths 0, 5, 160.
    #[test]
    fn message_sizes_known_answer() {
        let (empty, five, full) = (req(b""), req(b"12345"), req(&[9u8; 160]));
        let pre_prepare =
            |batch: Vec<Request>| PbftMsg::PrePrepare { view: 2, seq: 7, digest: Hash256::ZERO, batch: batch.into() };
        assert_eq!(PbftMsg::Forward(full.clone()).byte_size(), 224);
        assert_eq!(PbftMsg::Forward(empty.clone()).byte_size(), 64);
        assert_eq!(pre_prepare(vec![]).byte_size(), 112);
        assert_eq!(pre_prepare(vec![five.clone()]).byte_size(), 121);
        assert_eq!(pre_prepare(vec![empty.clone(), five.clone(), full.clone()]).byte_size(), 289);
        let reply = PbftMsg::SyncReply {
            batches: vec![(1, vec![empty, five.clone(), full].into()), (2, vec![five].into())],
        };
        assert_eq!(reply.byte_size(), 266);
        assert_eq!(PbftMsg::SyncReply { batches: vec![] }.byte_size(), 64);
        assert_eq!(PbftMsg::Commit { view: 2, seq: 7, digest: Hash256::ZERO }.byte_size(), 112);
        assert_eq!(PbftMsg::SyncRequest { from_seq: 7 }.byte_size(), 72);
    }

    /// The request digest of one fixed encoded transaction — what Fabric's
    /// `submit` hands to consensus for every client transaction.
    #[test]
    fn encoded_transaction_request_digest_known_answer() {
        use bb_crypto::KeyPair;
        use bb_types::{Address, Transaction};
        let tx = Transaction::signed(&KeyPair::from_seed(1), 0, Address::ZERO, 0, vec![]);
        let request = Request::from(tx.encode());
        assert_eq!(request.len(), 128);
        assert_eq!(request.digest().to_hex(), "73aaf1d539e12284df4be30f532c478284cb96f0d09d0dfc7f22dc78a8b19651");
    }

    #[test]
    fn commits_survive_adversarial_delivery_order() {
        use bb_sim::SimRng;
        // Same cluster, but messages are delivered in a randomly shuffled
        // order (a stand-in for arbitrary network reordering). Every replica
        // must still commit the same batches in the same order.
        for seed in 0..8u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let config = PbftConfig { n: 4, batch_size: 2, ..PbftConfig::default() };
            let mut nodes: Vec<PbftNode> =
                (0..4).map(|i| PbftNode::new(NodeId(i), config.clone())).collect();
            let mut committed: Vec<Vec<(u64, Vec<Request>)>> = vec![Vec::new(); 4];
            let now = SimTime::from_secs(1);
            let mut queue: Vec<(NodeId, NodeId, PbftMsg)> = Vec::new();
            let absorb = |committed: &mut Vec<Vec<(u64, Vec<Request>)>>,
                          queue: &mut Vec<(NodeId, NodeId, PbftMsg)>,
                          src: NodeId,
                          acts: Vec<Action>| {
                for a in acts {
                    match a {
                        Action::Send(to, m) => queue.push((src, to, m)),
                        Action::Broadcast(m) => {
                            for to in (0..4).map(NodeId).filter(|&t| t != src) {
                                queue.push((src, to, m.clone()));
                            }
                        }
                        Action::CommitBatch { seq, batch } => {
                            committed[src.index()].push((seq, batch.to_vec()));
                        }
                        Action::InstallCheckpoint { .. } => {}
                    }
                }
            };
            for i in 0..6 {
                let acts = nodes[(i % 4) as usize]
                    .on_request(format!("tx-{i}").into_bytes(), now);
                absorb(&mut committed, &mut queue, NodeId(i % 4), acts);
            }
            while !queue.is_empty() {
                let pick = rng.below(queue.len() as u64) as usize;
                let (src, to, msg) = queue.swap_remove(pick);
                let acts = nodes[to.index()].on_message(src, msg, now);
                absorb(&mut committed, &mut queue, to, acts);
            }
            // All replicas committed identical sequences.
            let reference = &committed[0];
            assert!(!reference.is_empty(), "seed {seed}: nothing committed");
            for (i, log) in committed.iter().enumerate().skip(1) {
                assert_eq!(log, reference, "seed {seed}, replica {i}");
            }
        }
    }

    #[test]
    fn timeout_retransmission_is_bounded_to_recruitment_quota() {
        // A backup sitting on a large backlog must not re-broadcast the
        // backlog on a liveness timeout — the broadcast only recruits peers
        // into the view change (arms their timers), so it is capped at
        // `VIEW_CHANGE_RECRUIT_REQS` regardless of batch size, and the vote
        // itself must lead the actions so bounded inboxes see it first.
        let config = PbftConfig { n: 4, batch_size: 500, ..PbftConfig::default() };
        let mut node = PbftNode::new(NodeId(1), config.clone());
        let t0 = SimTime::from_secs(1);
        for i in 0..50 {
            node.on_request(format!("tx-{i}").into_bytes(), t0);
        }
        assert_eq!(node.awaiting_count(), 50);
        let acts = node.on_tick(t0 + config.view_timeout + SimDuration::from_millis(1));
        let forwards = acts
            .iter()
            .filter(|a| matches!(a, Action::Broadcast(PbftMsg::Forward(_))))
            .count();
        assert_eq!(forwards, VIEW_CHANGE_RECRUIT_REQS, "recruitment window");
        assert!(
            matches!(acts.first(), Some(Action::Broadcast(PbftMsg::ViewChange { .. }))),
            "the vote must lead the retransmit burst"
        );
    }

    #[test]
    fn retransmission_order_is_deterministic() {
        // Two replicas fed the same requests in the same order must emit
        // identical retransmission actions — the digest-ordered walk of
        // `awaiting` is what keeps whole-simulation runs byte-identical
        // across processes.
        let config = PbftConfig { n: 4, batch_size: 8, ..PbftConfig::default() };
        let t0 = SimTime::from_secs(1);
        let mk = || {
            let mut n = PbftNode::new(NodeId(1), config.clone());
            for i in 0..30 {
                n.on_request(format!("tx-{i}").into_bytes(), t0);
            }
            n.on_tick(t0 + config.view_timeout + SimDuration::from_millis(1))
        };
        assert_eq!(mk(), mk());
    }

    /// `lowest_awaiting(k)` is the first `k` values of a `BTreeMap` keyed by
    /// digest — the walk every retransmission path took when `awaiting` was
    /// that map. Seeded request sets (repeats included, some committed and
    /// pruned) on a backup, checked at k ∈ {0, 1, len − 1, len, len + 7}.
    #[test]
    fn lowest_awaiting_walks_in_digest_order_seeded() {
        use bb_sim::SimRng;
        let mut rng = SimRng::seed_from_u64(0x5EED_0047);
        let now = SimTime::from_secs(1);
        let mut covered = 0;
        for case in 0..24 {
            let config = PbftConfig { n: 4, batch_size: 8, ..PbftConfig::default() };
            let mut node = PbftNode::new(NodeId(1), config);
            let mut reference: BTreeMap<Hash256, Request> = BTreeMap::new();
            for _ in 0..rng.range(0, 300) {
                let mut payload = vec![0u8; rng.range(1, 6) as usize];
                rng.fill_bytes(&mut payload);
                let r = req(&payload);
                reference.insert(r.digest(), r.clone());
                node.on_request(r, now);
            }
            // Commit one batch of awaiting requests: they leave `awaiting`.
            if reference.len() > 4 && rng.chance(0.5) {
                let batch: Batch = reference.values().step_by(3).cloned().collect::<Vec<_>>().into();
                for r in batch.iter() {
                    reference.remove(&r.digest());
                }
                let (seq, digest) = (1, batch.digest());
                node.on_message(NodeId(0), PbftMsg::PrePrepare { view: 0, seq, digest, batch }, now);
                for from in [0u32, 2] {
                    node.on_message(NodeId(from), PbftMsg::Commit { view: 0, seq, digest }, now);
                }
                node.on_message(NodeId(2), PbftMsg::Prepare { view: 0, seq, digest }, now);
                assert_eq!(node.last_committed(), 1, "case {case}");
                covered += 1;
            }
            assert_eq!(node.awaiting_count(), reference.len(), "case {case}");
            let len = reference.len();
            for k in [0, 1, len.saturating_sub(1), len, len + 7] {
                let want: Vec<Request> = reference.values().take(k).cloned().collect();
                assert_eq!(node.lowest_awaiting(k), want, "case {case}, k {k} of {len}");
            }
        }
        assert!(covered > 0, "no case pruned `awaiting` by a commit");
    }

    #[test]
    fn deep_lag_catches_up_through_sync_windows() {
        // 75 requests at batch_size 3 = 25 committed batches — more than
        // one SYNC_WINDOW. The laggard must request chunk after chunk until
        // it has the full log.
        const _: () = assert!(25 > SYNC_WINDOW);
        let mut c = Cluster::new(4);
        let t0 = SimTime::from_secs(1);
        c.down[3] = true;
        for i in 0..75 {
            c.request(NodeId(0), format!("tx-{i}").as_bytes(), t0);
        }
        assert_eq!(c.committed[0].len(), 25);
        assert!(c.committed[3].is_empty());
        c.down[3] = false;
        let acts = vec![Action::Send(NodeId(0), PbftMsg::SyncRequest { from_seq: 0 })];
        c.dispatch(NodeId(3), acts, t0 + SimDuration::from_secs(1));
        assert_eq!(c.nodes[3].last_committed(), 25);
        assert_eq!(c.committed[3], c.committed[0]);
    }

    #[test]
    fn sync_crosses_checkpoint_horizon() {
        // Horizon 5 with 25 committed batches: the live replicas hold only
        // seqs 21..=25 plus a checkpoint digest for 1..=20. A recovering
        // laggard asking for history from 0 must jump via the checkpoint,
        // then batch-sync the retained window.
        let config = PbftConfig { n: 4, batch_size: 3, checkpoint_horizon: 5, ..PbftConfig::default() };
        let mut c = Cluster::with_config(config);
        let t0 = SimTime::from_secs(1);
        c.down[3] = true;
        for i in 0..75 {
            c.request(NodeId(0), format!("tx-{i}").as_bytes(), t0);
        }
        assert_eq!(c.committed[0].len(), 25);
        assert_eq!(c.nodes[0].committed_log_len(), 5, "log bounded by horizon");
        let (ckpt_seq, ckpt_digest) = c.nodes[0].checkpoint();
        assert_eq!(ckpt_seq, 20);
        assert_ne!(ckpt_digest, Hash256::ZERO);
        // Every live replica folded the same history into the same digest.
        for i in 1..3 {
            assert_eq!(c.nodes[i].checkpoint(), (ckpt_seq, ckpt_digest), "replica {i}");
        }
        // Recovery: checkpoint jump, then sync of the retained window.
        c.down[3] = false;
        let acts = vec![Action::Send(NodeId(0), PbftMsg::SyncRequest { from_seq: 0 })];
        c.dispatch(NodeId(3), acts, t0 + SimDuration::from_secs(1));
        assert_eq!(c.nodes[3].last_committed(), 25);
        assert_eq!(c.nodes[3].checkpoint(), (ckpt_seq, ckpt_digest));
        // The laggard delivered exactly the batches above the checkpoint,
        // matching the live replicas' tail.
        assert_eq!(c.committed[3], c.committed[0][20..].to_vec());
    }

    #[test]
    fn checkpoint_digest_is_order_sensitive() {
        // Two nodes GC'ing different histories must end at different
        // digests — the chain binds sequence numbers and batch contents.
        let config = PbftConfig { n: 4, batch_size: 1, checkpoint_horizon: 0, ..PbftConfig::default() };
        let run = |batches: &[&[u8]]| {
            let mut node = PbftNode::new(NodeId(1), config.clone());
            let now = SimTime::from_secs(1);
            for (k, body) in batches.iter().enumerate() {
                let seq = k as u64 + 1;
                let batch = vec![req(body)];
                let digest = batch_digest(&batch);
                node.on_message(
                    NodeId(0),
                    PbftMsg::PrePrepare { view: 0, seq, digest, batch: batch.into() },
                    now,
                );
                node.on_message(NodeId(2), PbftMsg::Prepare { view: 0, seq, digest }, now);
                for from in [0u32, 2] {
                    node.on_message(NodeId(from), PbftMsg::Commit { view: 0, seq, digest }, now);
                }
            }
            node.checkpoint()
        };
        let (s1, d1) = run(&[b"a", b"b"]);
        let (s2, d2) = run(&[b"b", b"a"]);
        assert_eq!(s1, 2);
        assert_eq!(s2, 2);
        assert_ne!(d1, d2);
    }

    #[test]
    fn sixteen_node_cluster_commits() {
        let mut c = Cluster::new(16);
        let now = SimTime::from_secs(1);
        for i in 0..3 {
            c.request(NodeId(i % 16), format!("tx-{i}").as_bytes(), now);
        }
        assert!(c.committed.iter().all(|log| log.len() == 1));
    }
}
