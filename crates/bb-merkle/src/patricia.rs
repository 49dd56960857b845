//! A persistent Merkle-Patricia trie over pluggable key-value storage —
//! the state tree of the Ethereum-like and Parity-like platforms.
//!
//! Nodes are immutable: every update path-copies fresh leaf/extension/
//! branch nodes along the key's path and leaves the old ones in place, so
//! any earlier root still reads as it did. Committed nodes are
//! content-addressed (keyed by node hash) and never garbage collected,
//! exactly like geth v1.4 — this is the mechanism behind the
//! order-of-magnitude disk-usage gap the paper measures in Figure 12(c).
//!
//! A node's **encoding is its only representation**. It is what gets
//! hashed, what the store holds, and what the trie keeps in memory: bytes
//! in the block's arena while the node is uncommitted, and one exact-size
//! `Arc<[u8]>` in the node cache once it is committed or read from the
//! store. Walks read it in place through `View`, a borrowed,
//! bounds-checked parse; new nodes are written straight into the arena by
//! the `write_*` functions. There is no decoded form to build, clone or
//! re-encode.
//!
//! Writes are **block-scoped and hashed lazily**, as geth hashes its dirty
//! trie nodes only when `Hash()`/`Commit()` asks. `insert`/`remove` append
//! the nodes they create to a per-trie arena, unhashed: a child slot of an
//! arena node may hold the arena index of another arena node instead of a
//! hash. [`PatriciaTrie::root`] hashes the arena nodes reachable from the
//! current root, bottom-up and once each, and [`PatriciaTrie::commit`] at
//! block-seal time flushes exactly those nodes as one [`WriteBatch`] and
//! empties the arena. Intermediate per-transaction roots created and
//! replaced within a block are never hashed and never touch the WAL. Root
//! hashes are byte-identical to hashing every node as it is created; with
//! debug assertions on, every arena node carries that eager hash and
//! `root` checks each hash it computes against it.
//!
//! Dirty and clean nodes live apart. Walks follow arena indices through
//! the arena, and hashes through the cache, then the store; the cache holds
//! committed nodes only, so a block's garbage dies at commit instead of
//! waiting for the cache's wholesale clear. `cache_stats` counts walks over
//! committed nodes: an arena read is neither a hit nor a miss, a cache read
//! is a hit, and only a store read is a miss.
//!
//! A block run can be **recorded** and **installed** on a twin.
//! [`PatriciaTrie::record`] before the block and
//! [`PatriciaTrie::take_delta`] after its seal give a [`TrieDelta`]: the
//! committed nodes the block's counted walks touched and how many walks
//! there were, the node counters' increments, the sealed batch and the
//! post-state root. A twin on the same root whose cache holds every
//! walked node would, running the block, hit on every walk — so it would
//! read nothing from its store and insert nothing into its cache before
//! the seal. [`PatriciaTrie::install_delta`] does exactly what that run
//! would: the same hits, the same batch, the same cache inserts in the
//! same order, the same counters and root, without walking at all.
//!
//! The root hash is a binding commitment to the full key→value map: any two
//! insertion orders producing the same map produce the same root (verified
//! by property test).

use bb_crypto::{DigestMap, DigestSet, Hash256};
use bb_storage::{FrameSlot, IntoShared, KvError, KvOp, KvOps, KvPairs, KvStore, WriteBatch};
use std::sync::Arc;

/// Node cache capacity, in nodes. Nodes are content-addressed and
/// immutable, so the only cost of a stale-free cache is memory — a 48-byte
/// slot (hash + pointer) and the encoding of a committed node; when it
/// fills we drop it wholesale (cheapest possible policy).
const NODE_CACHE_CAP: usize = 1 << 17;

/// Merkle-Patricia trie handle owning its backing store.
///
/// `Clone` is a second trie over a second store, indistinguishable from the
/// first by anything a walk or a counter can observe: root, arena, cache
/// (same entries in the same table layout, so the wholesale `clear()` falls
/// on the same insert) and all five counters travel. Committed node
/// encodings are immutable, so the two share them by reference count.
#[derive(Clone)]
pub struct PatriciaTrie<S: KvStore> {
    store: S,
    root: Ref,
    /// The nodes created since the last commit, unhashed until `root` asks.
    /// `commit` flushes the ones reachable from the committed root and
    /// drops the rest. A committed node never references an arena node, so
    /// a walk that reaches a hash stays among committed nodes.
    arena: Arena,
    /// The roots `root` has hashed since the last commit, by hash, so
    /// `set_root` and `get_at` can return to an uncommitted root.
    hashed_roots: DigestMap<Hash256, u32>,
    /// Nodes created since construction — the write-amplification numerator
    /// an eager-write trie would have paid to storage.
    nodes_written: u64,
    /// Distinct node hashes persisted by `commit` calls.
    nodes_flushed: u64,
    /// Nodes created and never persisted: the arena nodes `commit` left
    /// behind (garbage interior roots from per-transaction application
    /// inside a block, and repeats of a flushed hash) and those
    /// `drop_volatile` discarded.
    nodes_dropped: u64,
    /// Committed nodes' encodings by hash: those the last commits flushed
    /// and those walks read from the store, each checked by [`View::parse`]
    /// before it got here (`Arc`, not `Rc`: a simulated world is `Send`).
    /// Never an uncommitted node — those stay in the arena until `commit`
    /// flushes or drops them. Content-addressing makes entries immutable,
    /// so the cache can never go stale — it only skips store reads, never
    /// changes what a walk observes (determinism-safe: no simulated cost
    /// model consumes store read counters).
    cache: DigestMap<Hash256, Arc<[u8]>>,
    cache_hits: u64,
    cache_misses: u64,
    /// Copies of the nodes an update walk is rewriting, one per level,
    /// reused across walks.
    node_bufs: Vec<Vec<u8>>,
    /// Scratch buffer an arena node's encoding is completed in before it is
    /// hashed or flushed.
    fill_buf: Vec<u8>,
    /// Scratch buffer reused across key→nibble conversions.
    nibble_buf: Vec<u8>,
    /// The block being recorded, from [`Self::record`] to
    /// [`Self::take_delta`].
    recording: Option<Box<Recording>>,
}

/// What one block did to a trie, recorded on the trie that ran it
/// ([`PatriciaTrie::record`], [`PatriciaTrie::take_delta`]) for a twin on
/// the same root to [`PatriciaTrie::install_delta`] instead of running it.
#[derive(Clone, Debug)]
pub struct TrieDelta {
    /// The committed root the block ran on.
    pre_root: Hash256,
    /// The committed nodes the block's counted walks touched, whether the
    /// cache served them or the store did.
    walked: DigestSet<Hash256>,
    /// The block's counted walks: cache hits plus misses.
    walks: u64,
    /// The block's `nodes_written` increment.
    written: u64,
    /// The seal's `nodes_dropped` increment.
    dropped: u64,
    /// The nodes the seal flushed, in flush order: the allocations the
    /// seal's batch and the cache hold.
    flushed: Vec<(Hash256, Arc<[u8]>)>,
    /// The raw store operations that rode the seal's batch, as it held
    /// them.
    extras: KvOps,
    /// The post-state root.
    root: Hash256,
    /// The seal's WAL frame, which the runner's store fills and an
    /// installer's appends. Not part of what the block did: two deltas of
    /// one block are equal whatever their slots hold.
    frame: FrameSlot,
}

impl TrieDelta {
    /// The seal's WAL frame, once the runner's store has built it.
    pub fn frame(&self) -> Option<&Arc<[u8]>> {
        self.frame.get()
    }
}

impl PartialEq for TrieDelta {
    fn eq(&self, other: &TrieDelta) -> bool {
        let TrieDelta {
            pre_root,
            walked,
            walks,
            written,
            dropped,
            flushed,
            extras,
            root,
            frame: _,
        } = self;
        *pre_root == other.pre_root
            && *walked == other.walked
            && *walks == other.walks
            && *written == other.written
            && *dropped == other.dropped
            && *flushed == other.flushed
            && *extras == other.extras
            && *root == other.root
    }
}

/// A block being recorded: its delta so far, and the counters it started
/// from.
#[derive(Clone)]
struct Recording {
    delta: TrieDelta,
    /// `cache_hits + cache_misses` when recording began.
    walks_from: u64,
    written_from: u64,
    dropped_from: u64,
    /// A commit sealed the block: `delta` is whole, and later walks are not
    /// the block's.
    sealed: bool,
}

/// Where a walk goes next: a hashed node, looked up in the cache and then
/// the store, or an arena node, by index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ref {
    Hash(Hash256),
    Node(u32),
}

impl Ref {
    /// No node at all: the empty trie, an empty branch slot.
    const EMPTY: Ref = Ref::Hash(Hash256::ZERO);

    fn is_empty(self) -> bool {
        self == Ref::EMPTY
    }

    fn is_node(self) -> bool {
        matches!(self, Ref::Node(_))
    }

    /// The 32 bytes this reference occupies in a child slot: the hash, or
    /// the arena index padded with `0xff` (never [`Hash256::ZERO`], the
    /// empty slot) until the node is hashed.
    fn slot(self) -> [u8; 32] {
        match self {
            Ref::Hash(hash) => hash.0,
            Ref::Node(index) => {
                let mut slot = [0xff; 32];
                slot[..4].copy_from_slice(&index.to_be_bytes());
                slot
            }
        }
    }

    /// The reference in the child slot starting at `bytes[at]`; `lazy`
    /// says whether it holds an arena index.
    fn in_slot(bytes: &[u8], at: usize, lazy: bool) -> Ref {
        if lazy {
            Ref::Node(index_at(bytes, at))
        } else {
            Ref::Hash(hash_at(bytes, at))
        }
    }
}

/// The arena index in the lazy child slot starting at `bytes[at]`.
fn index_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_be_bytes(bytes[at..at + 4].try_into().expect("4-byte index"))
}

/// A root to roll back to: [`PatriciaTrie::mark`] takes it without hashing
/// anything, [`PatriciaTrie::rewind`] returns to it. It stays valid until
/// the next successful commit or `drop_volatile`, which empty the arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mark(Ref);

/// The nodes created since the last commit: their encodings back to back
/// in one buffer, and where each one lies.
#[derive(Clone, Default)]
struct Arena {
    bytes: Vec<u8>,
    nodes: Vec<ArenaNode>,
}

#[derive(Clone, Copy)]
struct ArenaNode {
    start: usize,
    len: u32,
    /// Bit `i` set: child slot `i` of a branch (bit 0: an extension's
    /// child) holds an arena index, not a hash.
    lazy: u16,
    /// Set once `root` has hashed the node.
    hash: Option<Hash256>,
    /// The hash the node had when it was created, with each arena child's
    /// own eager hash in its slot: what `root` must compute.
    #[cfg(debug_assertions)]
    eager: Hash256,
}

impl Arena {
    fn node(&self, index: u32) -> (&[u8], ArenaNode) {
        let node = self.nodes[index as usize];
        (&self.bytes[node.start..node.start + node.len as usize], node)
    }
}

const TAG_LEAF: u8 = 0;
const TAG_EXT: u8 = 1;
const TAG_BRANCH: u8 = 2;

/// A node read in place: every slice borrows from the encoding, and
/// [`View::parse`] has checked every length against it.
enum View<'a> {
    /// Terminal node holding a value at the end of `path` nibbles.
    Leaf { path: &'a [u8], value: &'a [u8] },
    /// Path compression: `path` nibbles leading to a single child.
    Ext { path: &'a [u8], child: Ref },
    /// 16-way fan-out with an optional value terminating exactly here.
    Branch(Branch<'a>),
}

#[derive(Clone, Copy)]
struct Branch<'a> {
    /// Bit `i` set: slot `i` has a child.
    bitmap: u16,
    /// Bit `i` set: slot `i`'s child is an arena node.
    lazy: u16,
    /// The present slots' references only, packed in slot order:
    /// `32 * bitmap.count_ones()` bytes.
    children: &'a [u8],
    value: Option<&'a [u8]>,
}

impl Branch<'_> {
    /// The child in slot `i` ([`Ref::EMPTY`] when there is none).
    fn child(&self, i: usize) -> Ref {
        if self.bitmap >> i & 1 == 0 {
            return Ref::EMPTY;
        }
        Ref::in_slot(self.children, packed_offset(self.bitmap, i), self.lazy >> i & 1 != 0)
    }
}

/// Where slot `i`'s reference sits (or would be inserted) in a packed
/// child table.
fn packed_offset(bitmap: u16, i: usize) -> usize {
    32 * (bitmap & ((1 << i) - 1)).count_ones() as usize
}

fn hash_at(bytes: &[u8], at: usize) -> Hash256 {
    Hash256(bytes[at..at + 32].try_into().expect("32-byte slice"))
}

/// Cursor over an encoding whose every read is checked against what is left.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn corrupt() -> KvError {
        KvError::Corrupt("malformed trie node".into())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], KvError> {
        if n > self.0.len() {
            return Err(Self::corrupt());
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    /// A `u32` length and that many bytes.
    fn prefixed(&mut self) -> Result<&'a [u8], KvError> {
        let len = u32::from_be_bytes(self.take(4)?.try_into().expect("took 4"));
        self.take(len as usize)
    }
}

impl<'a> View<'a> {
    /// Check `bytes` once — every length prefix, and a branch's whole child
    /// table against its bitmap before any slot is read — so a damaged
    /// stored node is a [`KvError::Corrupt`], never an out-of-bounds index.
    /// `lazy` is the node's arena-child bits (0 for a committed node).
    fn parse(bytes: &'a [u8], lazy: u16) -> Result<View<'a>, KvError> {
        let mut r = Reader(bytes);
        match r.take(1)?[0] {
            TAG_LEAF => Ok(View::Leaf { path: r.prefixed()?, value: r.prefixed()? }),
            TAG_EXT => {
                let path = r.prefixed()?;
                Ok(View::Ext { path, child: Ref::in_slot(r.take(32)?, 0, lazy != 0) })
            }
            TAG_BRANCH => {
                let bitmap = u16::from_be_bytes(r.take(2)?.try_into().expect("took 2"));
                let children = r.take(32 * bitmap.count_ones() as usize)?;
                let value = match r.take(1)?[0] {
                    0 => None,
                    1 => Some(r.prefixed()?),
                    _ => return Err(Reader::corrupt()),
                };
                Ok(View::Branch(Branch { bitmap, lazy, children, value }))
            }
            _ => Err(Reader::corrupt()),
        }
    }
}

/// The byte offsets of an arena node's lazy child slots.
fn lazy_slots(bytes: &[u8], lazy: u16) -> impl Iterator<Item = usize> {
    let (base, bitmap) = match bytes[0] {
        TAG_EXT => {
            let path_len = u32::from_be_bytes(bytes[1..5].try_into().expect("4")) as usize;
            (5 + path_len, 0)
        }
        _ => (3, u16::from_be_bytes(bytes[1..3].try_into().expect("2"))),
    };
    (0..16)
        .filter(move |i| lazy >> i & 1 != 0)
        .map(move |i| base + packed_offset(bitmap, i))
}

/// An arena node's final encoding: its bytes with every lazy slot holding
/// `hash_of` its arena index, completed in `buf` (the bytes themselves
/// when nothing is lazy).
fn filled<'a>(
    bytes: &'a [u8],
    lazy: u16,
    buf: &'a mut Vec<u8>,
    hash_of: impl Fn(u32) -> Hash256,
) -> &'a [u8] {
    if lazy == 0 {
        return bytes;
    }
    buf.clear();
    buf.extend_from_slice(bytes);
    for at in lazy_slots(bytes, lazy) {
        buf[at..at + 32].copy_from_slice(&hash_of(index_at(bytes, at)).0);
    }
    buf
}

/// The one place a node is hashed: its [`filled`] encoding, digested.
fn hash_filled(
    bytes: &[u8],
    lazy: u16,
    buf: &mut Vec<u8>,
    hash_of: impl Fn(u32) -> Hash256,
) -> Hash256 {
    Hash256::digest(filled(bytes, lazy, buf, hash_of))
}

fn write_prefixed(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
}

/// Each `write_*` function appends one node's encoding and returns its
/// lazy-child bits.
fn write_leaf(out: &mut Vec<u8>, path: &[u8], value: &[u8]) -> u16 {
    out.push(TAG_LEAF);
    write_prefixed(out, path);
    write_prefixed(out, value);
    0
}

fn write_ext(out: &mut Vec<u8>, path: &[u8], child: Ref) -> u16 {
    out.push(TAG_EXT);
    write_prefixed(out, path);
    out.extend_from_slice(&child.slot());
    u16::from(child.is_node())
}

/// Write branch `b`, after setting slot `i` to `child` if `set` is
/// `Some((i, child))`: the packed table is copied with that one 32-byte
/// slot replaced, inserted, or — for [`Ref::EMPTY`] — left out.
fn write_branch(out: &mut Vec<u8>, b: Branch<'_>, set: Option<(usize, Ref)>) -> u16 {
    out.push(TAG_BRANCH);
    let lazy = match set {
        None => {
            out.extend_from_slice(&b.bitmap.to_be_bytes());
            out.extend_from_slice(b.children);
            b.lazy
        }
        Some((i, child)) => {
            let bit = 1u16 << i;
            let at = packed_offset(b.bitmap, i);
            let after = if b.bitmap & bit == 0 { at } else { at + 32 };
            let bitmap = if child.is_empty() { b.bitmap & !bit } else { b.bitmap | bit };
            out.extend_from_slice(&bitmap.to_be_bytes());
            out.extend_from_slice(&b.children[..at]);
            if !child.is_empty() {
                out.extend_from_slice(&child.slot());
            }
            out.extend_from_slice(&b.children[after..]);
            (b.lazy & !bit) | (u16::from(child.is_node()) << i)
        }
    };
    match b.value {
        Some(v) => {
            out.push(1);
            write_prefixed(out, v);
        }
        None => out.push(0),
    }
    lazy
}

/// A node's encoding and lazy bits as an owned buffer (the rare `remove`
/// paths, whose replacement nodes travel up the recursion before they are
/// stored).
struct Encoded {
    bytes: Vec<u8>,
    lazy: u16,
}

fn encoded(write: impl FnOnce(&mut Vec<u8>) -> u16) -> Encoded {
    let mut bytes = Vec::new();
    let lazy = write(&mut bytes);
    Encoded { bytes, lazy }
}

fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// What the old subtree contributes to the branch where a new key forks
/// off it: a child in a slot, or — when the old key ends at the fork — the
/// branch's own value.
enum OldSide<'a> {
    Child(u8, Ref),
    Value(&'a [u8]),
}

impl<S: KvStore> PatriciaTrie<S> {
    /// Empty trie over `store`.
    pub fn new(store: S) -> Self {
        PatriciaTrie {
            store,
            root: Ref::EMPTY,
            arena: Arena::default(),
            hashed_roots: DigestMap::default(),
            nodes_written: 0,
            nodes_flushed: 0,
            nodes_dropped: 0,
            cache: DigestMap::default(),
            cache_hits: 0,
            cache_misses: 0,
            node_bufs: Vec::new(),
            fill_buf: Vec::new(),
            nibble_buf: Vec::new(),
            recording: None,
        }
    }

    /// Current root commitment ([`Hash256::ZERO`] when empty), hashing the
    /// arena nodes it reaches that no earlier call hashed.
    pub fn root(&mut self) -> Hash256 {
        match self.root {
            Ref::Hash(hash) => hash,
            Ref::Node(index) => {
                let hash = self.hash_node(index);
                self.hashed_roots.insert(hash, index);
                hash
            }
        }
    }

    /// Hash arena node `index`, its unhashed arena children first (every
    /// child was created before its parent, so the recursion ends).
    fn hash_node(&mut self, index: u32) -> Hash256 {
        let (bytes, node) = self.arena.node(index);
        if let Some(hash) = node.hash {
            return hash;
        }
        let mut children = [0u32; 16];
        let mut count = 0;
        for at in lazy_slots(bytes, node.lazy) {
            children[count] = index_at(bytes, at);
            count += 1;
        }
        for &child in &children[..count] {
            self.hash_node(child);
        }
        let (bytes, _) = self.arena.node(index);
        let nodes = &self.arena.nodes;
        let hash = hash_filled(bytes, node.lazy, &mut self.fill_buf, |child| {
            nodes[child as usize].hash.expect("children are hashed first")
        });
        #[cfg(debug_assertions)]
        assert_eq!(hash, node.eager, "lazy hash of arena node {index} differs from its eager hash");
        self.arena.nodes[index as usize].hash = Some(hash);
        hash
    }

    /// Rewind/forward the trie to a historical root (every version's nodes
    /// stay in the store — the basis of `getBalance(account, block)`), or to
    /// an uncommitted root an earlier [`Self::root`] call returned.
    pub fn set_root(&mut self, root: Hash256) {
        self.root = self.resolve(root);
    }

    fn resolve(&self, root: Hash256) -> Ref {
        match self.hashed_roots.get(&root) {
            Some(&index) => Ref::Node(index),
            None => Ref::Hash(root),
        }
    }

    /// The current root as a rollback point, without hashing anything.
    pub fn mark(&self) -> Mark {
        Mark(self.root)
    }

    /// Return to a root [`Self::mark`] took since the last commit.
    pub fn rewind(&mut self, mark: Mark) {
        self.root = mark.0;
    }

    /// Borrow the backing store (stats inspection).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutably borrow the backing store.
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Trie nodes created since construction.
    pub fn nodes_written(&self) -> u64 {
        self.nodes_written
    }

    /// Distinct node hashes persisted across all `commit` calls.
    pub fn nodes_flushed(&self) -> u64 {
        self.nodes_flushed
    }

    /// Nodes created and never persisted (garbage interior roots that never
    /// reached storage).
    pub fn nodes_dropped(&self) -> u64 {
        self.nodes_dropped
    }

    /// Uncommitted nodes currently in the arena.
    pub fn pending_nodes(&self) -> usize {
        self.arena.nodes.len()
    }

    /// Node cache `(hits, misses)` since construction: walks over committed
    /// nodes served by the cache and by the store. Reads of the arena's
    /// uncommitted nodes count as neither.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache_hits, self.cache_misses)
    }

    /// Drop everything that would not survive a power cut: the uncommitted
    /// arena and the node cache. The crash-fault path calls this so a
    /// "crashed" node keeps only what its store persisted; the root hash is
    /// NOT touched — callers rewind it to a durable root themselves (the
    /// current one may name nodes that were only in the arena).
    pub fn drop_volatile(&mut self) {
        let root = self.root();
        self.root = Ref::Hash(root);
        self.nodes_dropped += self.arena.nodes.len() as u64;
        self.arena = Arena::default();
        self.hashed_roots.clear();
        self.cache.clear();
        self.recording = None;
    }

    /// Start recording the next block: its walks, up to and including the
    /// commit that seals it, which [`Self::take_delta`] then hands back.
    /// Records nothing unless the arena is empty (a sealed root is what a
    /// twin can stand on).
    pub fn record(&mut self) {
        self.recording = match (self.arena.nodes.is_empty(), self.root) {
            (true, Ref::Hash(pre_root)) => Some(Box::new(Recording {
                delta: TrieDelta {
                    pre_root,
                    walked: DigestSet::default(),
                    walks: 0,
                    written: 0,
                    dropped: 0,
                    flushed: Vec::new(),
                    extras: Vec::new(),
                    root: pre_root,
                    frame: FrameSlot::default(),
                },
                walks_from: self.cache_hits + self.cache_misses,
                written_from: self.nodes_written,
                dropped_from: self.nodes_dropped,
                sealed: false,
            })),
            _ => None,
        };
    }

    /// Stop recording: the delta of the block recorded since
    /// [`Self::record`], if a commit sealed it.
    pub fn take_delta(&mut self) -> Option<TrieDelta> {
        let recording = self.recording.take()?;
        recording.sealed.then_some(recording.delta)
    }

    /// Would running `delta`'s block here hit on every walk? True where the
    /// arena is empty, the trie stands on the root the block ran on and the
    /// cache holds every node the block walked: nothing then misses, so
    /// nothing enters the cache before the seal either.
    pub fn accepts_delta(&self, delta: &TrieDelta) -> bool {
        self.arena.nodes.is_empty()
            && self.root == Ref::Hash(delta.pre_root)
            && delta.walked.iter().all(|hash| self.cache.contains_key(hash))
    }

    /// Do what running `delta`'s block and sealing it would do here, without
    /// running it: add its walks to the cache hits, apply its batch (the
    /// flushed nodes, then its extras), add its node counts, insert the
    /// flushed nodes into the cache in flush order and stand on its root.
    ///
    /// That is the run's exact effect only where every walk would hit, so
    /// this refuses, touching nothing, with `Ok(false)` unless
    /// [`Self::accepts_delta`]. An `Err` is the store refusing the batch;
    /// nothing else has changed.
    pub fn install_delta(&mut self, delta: &TrieDelta) -> Result<bool, KvError> {
        if !self.accepts_delta(delta) {
            return Ok(false);
        }
        let mut batch = WriteBatch::new();
        for (hash, bytes) in &delta.flushed {
            batch.put(store_key(hash), Arc::clone(bytes));
        }
        push_extras(&mut batch, &delta.extras);
        batch.share_frame(Arc::clone(&delta.frame));
        self.store.apply_batch(batch)?;
        self.cache_hits += delta.walks;
        self.nodes_written += delta.written;
        self.nodes_flushed += delta.flushed.len() as u64;
        self.nodes_dropped += delta.dropped;
        for (hash, bytes) in &delta.flushed {
            self.cache_insert(*hash, Arc::clone(bytes));
        }
        self.root = Ref::Hash(delta.root);
        Ok(true)
    }

    /// Copy node `at` into `buf` for an update walk, which goes on to write
    /// while it reads, and return its lazy bits: from the arena, or the
    /// cache, then the store.
    fn load_into(&mut self, at: Ref, buf: &mut Vec<u8>) -> Result<u16, KvError> {
        match at {
            Ref::Node(index) => {
                let (bytes, node) = self.arena.node(index);
                buf.extend_from_slice(bytes);
                Ok(node.lazy)
            }
            Ref::Hash(hash) => {
                if let Some(recording) = &mut self.recording {
                    recording.walk(hash);
                }
                if let Some(bytes) = self.cache.get(&hash) {
                    self.cache_hits += 1;
                    buf.extend_from_slice(bytes);
                } else {
                    buf.extend_from_slice(&self.load_uncached(&hash, true)?);
                }
                Ok(0)
            }
        }
    }

    /// Run `f` on node `at`, read through a buffer of [`Self::node_bufs`]
    /// so that `f` may write to the trie while it reads the node.
    fn with_node<T>(
        &mut self,
        at: Ref,
        f: impl FnOnce(&mut Self, &[u8], u16) -> Result<T, KvError>,
    ) -> Result<T, KvError> {
        let mut buf = self.node_bufs.pop().unwrap_or_default();
        buf.clear();
        let out = match self.load_into(at, &mut buf) {
            Ok(lazy) => f(self, &buf, lazy),
            Err(e) => Err(e),
        };
        self.node_bufs.push(buf);
        out
    }

    /// The committed node `hash`, read from the store and checked, after
    /// the cache missed. `counted` walks record the miss and leave the node
    /// in the cache; frozen ones leave no trace.
    fn load_uncached(&mut self, hash: &Hash256, counted: bool) -> Result<Arc<[u8]>, KvError> {
        if counted {
            self.cache_misses += 1;
        }
        let bytes: Arc<[u8]> = self
            .store
            .get(&hash.0)?
            .ok_or_else(|| KvError::Corrupt(format!("missing trie node {hash:?}")))?
            .into();
        View::parse(&bytes, 0)?;
        if counted {
            self.cache_insert(*hash, bytes.clone());
        }
        Ok(bytes)
    }

    fn cache_insert(&mut self, hash: Hash256, bytes: Arc<[u8]>) {
        if self.cache.len() >= NODE_CACHE_CAP {
            self.cache.clear();
        }
        self.cache.insert(hash, bytes);
    }

    /// Append the node `write` encodes to the arena: no hash, no allocation
    /// of its own. It reaches the store and the cache only if `commit`
    /// flushes it.
    fn put(&mut self, write: impl FnOnce(&mut Vec<u8>) -> u16) -> Ref {
        let start = self.arena.bytes.len();
        let lazy = write(&mut self.arena.bytes);
        let index = u32::try_from(self.arena.nodes.len()).expect("fewer than 2^32 nodes per block");
        let len = u32::try_from(self.arena.bytes.len() - start).expect("a node under 4 GiB");
        #[cfg(debug_assertions)]
        let eager = {
            let nodes = &self.arena.nodes;
            hash_filled(&self.arena.bytes[start..], lazy, &mut self.fill_buf, |child| {
                nodes[child as usize].eager
            })
        };
        self.arena.nodes.push(ArenaNode {
            start,
            len,
            lazy,
            hash: None,
            #[cfg(debug_assertions)]
            eager,
        });
        self.nodes_written += 1;
        Ref::Node(index)
    }

    /// Hashed arena node `index`'s encoding as the store holds it, in one
    /// new allocation: the node's bytes, copied once, with every lazy slot
    /// filled in place with its child's hash.
    fn final_bytes(&self, index: u32) -> Arc<[u8]> {
        let (bytes, node) = self.arena.node(index);
        let mut out: Arc<[u8]> = Arc::from(bytes);
        let slots = Arc::get_mut(&mut out).expect("a new allocation is unshared");
        for at in lazy_slots(bytes, node.lazy) {
            let child = self.arena.nodes[index_at(bytes, at) as usize];
            slots[at..at + 32].copy_from_slice(&child.hash.expect("children are hashed first").0);
        }
        out
    }

    /// [`Self::put`] of a copy of an encoding and its lazy bits.
    fn put_copy(&mut self, bytes: &[u8], lazy: u16) -> Ref {
        self.put(|out| {
            out.extend_from_slice(bytes);
            lazy
        })
    }

    /// Flush the arena at a block boundary: hash and persist exactly the
    /// nodes reachable from the current root as one atomic [`WriteBatch`],
    /// drop the rest (garbage interior roots from per-tx application).
    /// Reachable traversal only ever follows arena indices — a committed
    /// node can't reference an uncommitted one, because a node's hash
    /// covers its children. Two arena nodes with one hash are flushed once.
    ///
    /// The flushed nodes then enter the cache in flush order. On error (a
    /// capped in-memory store running out of space) the arena is left
    /// intact and nothing enters the cache, so the in-memory trie stays
    /// fully readable and a later commit retries the flush.
    pub fn commit(&mut self) -> Result<(), KvError> {
        self.commit_with_extras(KvOps::new())
    }

    /// [`Self::commit`] plus caller-supplied raw store operations appended
    /// to the *same* atomic batch. Platforms persist per-block metadata —
    /// the encoded block, a durable head pointer — with exactly the state
    /// nodes that block committed, so a crash can never separate them.
    /// Shared extras (`Arc`s) ride the batch and a recorded delta as they
    /// are; other bytes are copied once.
    pub fn commit_with_extras<K: IntoShared, V: IntoShared>(
        &mut self,
        extras: Vec<(K, Option<V>)>,
    ) -> Result<(), KvError> {
        if self.arena.nodes.is_empty() && extras.is_empty() {
            return Ok(());
        }
        let extras: KvOps = extras
            .into_iter()
            .map(|(k, v)| (k.into_shared(), v.map(IntoShared::into_shared)))
            .collect();
        let root = self.root();
        // Deterministic DFS from the committed root, children in slot order;
        // the batch gets each distinct hash once. Each flushed node is filled
        // once, into the one allocation the batch, the cache and a recorded
        // delta share.
        let mut flushed: Vec<(Hash256, Arc<[u8]>)> = Vec::new();
        let mut seen = DigestSet::default();
        let mut batch = WriteBatch::new();
        let mut stack = vec![self.root];
        while let Some(at) = stack.pop() {
            let Ref::Node(index) = at else {
                continue; // already committed
            };
            let (bytes, node) = self.arena.node(index);
            let hash = node.hash.expect("root() hashed every reachable node");
            if !seen.insert(hash) {
                continue; // a repeat of a flushed node
            }
            match View::parse(bytes, node.lazy)? {
                View::Leaf { .. } => {}
                View::Ext { child, .. } => stack.push(child),
                View::Branch(b) => {
                    stack.extend((0..16).rev().filter(|i| b.lazy >> i & 1 != 0).map(|i| b.child(i)));
                }
            }
            let bytes = self.final_bytes(index);
            batch.put(store_key(&hash), Arc::clone(&bytes));
            flushed.push((hash, bytes));
        }
        push_extras(&mut batch, &extras);
        // A block being recorded shares its seal's frame with every twin
        // that installs its delta.
        if let Some(recording) = self.recording.as_ref().filter(|r| !r.sealed) {
            batch.share_frame(Arc::clone(&recording.delta.frame));
        }
        // On error the arena stays as it is, so nothing becomes unreadable;
        // a partial batch in the store is harmless (content-addressed
        // rewrites).
        self.store.apply_batch(batch)?;
        self.nodes_flushed += flushed.len() as u64;
        self.nodes_dropped += (self.arena.nodes.len() - flushed.len()) as u64;
        let mut recording = self.recording.take();
        let mut open = recording.as_mut().filter(|r| !r.sealed);
        // The flushed nodes are now committed: the next block's walks start
        // on the path this one just sealed. The cache takes the allocations
        // the batch carried into the store (an LSM memtable keeps them), so a
        // flushed node is in memory once.
        for (hash, bytes) in flushed {
            if let Some(open) = &mut open {
                open.delta.flushed.push((hash, Arc::clone(&bytes)));
            }
            self.cache_insert(hash, bytes);
        }
        if let Some(recording) = open {
            let delta = &mut recording.delta;
            delta.walks = self.cache_hits + self.cache_misses - recording.walks_from;
            delta.written = self.nodes_written - recording.written_from;
            delta.dropped = self.nodes_dropped - recording.dropped_from;
            delta.extras = extras;
            delta.root = root;
            recording.sealed = true;
        }
        self.recording = recording;
        self.arena = Arena::default();
        self.hashed_roots.clear();
        self.root = Ref::Hash(root);
        Ok(())
    }

    /// Fetch the value stored under `key` at the current root.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        self.read(self.root, key, true)
    }

    /// Convert `key` to nibbles in the trie's reusable scratch buffer. The
    /// caller takes ownership for the duration of the walk (so `&mut self`
    /// stays free) and hands it back via [`Self::restore_nibbles`].
    fn take_nibbles(&mut self, key: &[u8]) -> Vec<u8> {
        let mut buf = std::mem::take(&mut self.nibble_buf);
        buf.clear();
        for &b in key {
            buf.push(b >> 4);
            buf.push(b & 0x0f);
        }
        buf
    }

    fn restore_nibbles(&mut self, buf: Vec<u8>) {
        self.nibble_buf = buf;
    }

    /// Fetch `key` at the current root with *no observable side effects* on
    /// the trie: the node cache is consulted but never updated and the
    /// hit/miss counters stay untouched. Speculative executors read the
    /// pre-state through this so the speculation phase, which is modeled
    /// rather than billed, leaves no trace in a block's counters. Its only
    /// caller is `AccountState::execute_block`, which no platform runs; it
    /// goes with that executor (ROADMAP item 9).
    pub fn get_frozen(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        self.read(self.root, key, false)
    }

    /// Fetch the value stored under `key` at a historical `root`, or at an
    /// uncommitted one an earlier [`Self::root`] call returned.
    pub fn get_at(&mut self, root: Hash256, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        self.read(self.resolve(root), key, true)
    }

    fn read(&mut self, root: Ref, key: &[u8], counted: bool) -> Result<Option<Vec<u8>>, KvError> {
        if root.is_empty() {
            return Ok(None);
        }
        let nibbles = self.take_nibbles(key);
        let out = self.read_walk(root, &nibbles, counted);
        self.restore_nibbles(nibbles);
        out
    }

    /// The one read walk — the hottest loop in the Ethereum/Parity
    /// platforms. It narrows a slice over one nibble buffer instead of
    /// reallocating the remaining path at every step, and on an arena or
    /// cache hit reads the node where it lies: nothing is copied or
    /// reference-counted but the value it returns.
    fn read_walk(
        &mut self,
        root: Ref,
        nibbles: &[u8],
        counted: bool,
    ) -> Result<Option<Vec<u8>>, KvError> {
        let mut path: &[u8] = nibbles;
        let mut at = root;
        loop {
            let fetched;
            let (bytes, lazy): (&[u8], u16) = match at {
                Ref::Node(index) => {
                    let (bytes, node) = self.arena.node(index);
                    (bytes, node.lazy)
                }
                Ref::Hash(hash) => {
                    if let (true, Some(recording)) = (counted, &mut self.recording) {
                        recording.walk(hash);
                    }
                    match self.cache.get(&hash) {
                        Some(bytes) => {
                            self.cache_hits += counted as u64;
                            (bytes, 0)
                        }
                        None => {
                            fetched = self.load_uncached(&hash, counted)?;
                            (&fetched, 0)
                        }
                    }
                }
            };
            match View::parse(bytes, lazy)? {
                View::Leaf { path: p, value } => {
                    return Ok((p == path).then(|| value.to_vec()));
                }
                View::Ext { path: p, child } => {
                    if !path.starts_with(p) {
                        return Ok(None);
                    }
                    path = &path[p.len()..];
                    at = child;
                }
                View::Branch(b) => {
                    let Some((&nibble, rest)) = path.split_first() else {
                        return Ok(b.value.map(<[u8]>::to_vec));
                    };
                    let next = b.child(nibble as usize);
                    if next.is_empty() {
                        return Ok(None);
                    }
                    path = rest;
                    at = next;
                }
            }
        }
    }

    /// Insert or overwrite `key`, producing a new root.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError> {
        let path = self.take_nibbles(key);
        let result = self.insert_at(self.root, &path, value);
        self.restore_nibbles(path);
        self.root = result?;
        Ok(())
    }

    fn insert_at(&mut self, at: Ref, path: &[u8], value: &[u8]) -> Result<Ref, KvError> {
        if at.is_empty() {
            return Ok(self.put(|out| write_leaf(out, path, value)));
        }
        self.with_node(at, |this, node, lazy| {
            Ok(match View::parse(node, lazy)? {
                View::Leaf { path: p, value: old } => {
                    if p == path {
                        return Ok(this.put(|out| write_leaf(out, path, value)));
                    }
                    let cp = common_prefix_len(p, path);
                    let old_side = match p[cp..].split_first() {
                        None => OldSide::Value(old),
                        Some((&slot, rest)) => {
                            OldSide::Child(slot, this.put(|out| write_leaf(out, rest, old)))
                        }
                    };
                    this.put_fork(&path[..cp], old_side, &path[cp..], value)
                }
                View::Ext { path: p, child } => {
                    let cp = common_prefix_len(p, path);
                    match p[cp..].split_first() {
                        None => {
                            let new_child = this.insert_at(child, &path[cp..], value)?;
                            this.put(|out| write_ext(out, p, new_child))
                        }
                        // Split the extension at the divergence point; what
                        // is left of its path stays above the old child.
                        Some((&slot, rest)) => {
                            let below = if rest.is_empty() {
                                child
                            } else {
                                this.put(|out| write_ext(out, rest, child))
                            };
                            let old = OldSide::Child(slot, below);
                            this.put_fork(&path[..cp], old, &path[cp..], value)
                        }
                    }
                }
                View::Branch(b) => match path.split_first() {
                    None => {
                        this.put(|out| write_branch(out, Branch { value: Some(value), ..b }, None))
                    }
                    Some((&slot, rest)) => {
                        let slot = slot as usize;
                        let new_child = this.insert_at(b.child(slot), rest, value)?;
                        this.put(|out| write_branch(out, b, Some((slot, new_child))))
                    }
                },
            })
        })
    }

    /// Store the branch separating an old subtree — already stored, old
    /// side before new side — from the new key's remainder `new_rest`
    /// (empty: the value lands on the branch itself), under an extension
    /// for their common `prefix` if they have one. Returns the top node.
    fn put_fork(&mut self, prefix: &[u8], old: OldSide<'_>, new_rest: &[u8], value: &[u8]) -> Ref {
        let slot_bytes;
        let old = match old {
            OldSide::Child(slot, child) => {
                slot_bytes = child.slot();
                let lazy = u16::from(child.is_node()) << slot;
                Branch { bitmap: 1 << slot, lazy, children: &slot_bytes, value: None }
            }
            OldSide::Value(v) => Branch { bitmap: 0, lazy: 0, children: &[], value: Some(v) },
        };
        debug_assert!(old.value.is_none() || !new_rest.is_empty(), "two keys, one path");
        let branch = match new_rest.split_first() {
            None => self.put(|out| write_branch(out, Branch { value: Some(value), ..old }, None)),
            Some((&slot, rest)) => {
                debug_assert!(old.child(slot as usize).is_empty(), "fork sides share a slot");
                let leaf = self.put(|out| write_leaf(out, rest, value));
                self.put(|out| write_branch(out, old, Some((slot as usize, leaf))))
            }
        };
        if prefix.is_empty() {
            branch
        } else {
            self.put(|out| write_ext(out, prefix, branch))
        }
    }

    /// Remove `key` if present, producing a new root. Removing an absent
    /// key leaves the root unchanged.
    pub fn remove(&mut self, key: &[u8]) -> Result<(), KvError> {
        let root = self.root;
        if root.is_empty() {
            return Ok(());
        }
        let path = self.take_nibbles(key);
        let result = self.remove_at(root, &path);
        self.restore_nibbles(path);
        match result? {
            RemoveResult::Unchanged => {}
            RemoveResult::Gone => self.root = Ref::EMPTY,
            RemoveResult::Replaced(node) => self.root = self.put_copy(&node.bytes, node.lazy),
        }
        Ok(())
    }

    fn remove_at(&mut self, at: Ref, path: &[u8]) -> Result<RemoveResult, KvError> {
        self.with_node(at, |this, node, lazy| match View::parse(node, lazy)? {
            View::Leaf { path: p, .. } => {
                Ok(if p == path { RemoveResult::Gone } else { RemoveResult::Unchanged })
            }
            View::Ext { path: p, child } => {
                if !path.starts_with(p) {
                    return Ok(RemoveResult::Unchanged);
                }
                Ok(match this.remove_at(child, &path[p.len()..])? {
                    RemoveResult::Replaced(below) => {
                        RemoveResult::Replaced(this.graft_ext(p, &below.bytes, below.lazy)?)
                    }
                    unchanged_or_gone => unchanged_or_gone,
                })
            }
            View::Branch(b) => {
                let Some((&slot, rest)) = path.split_first() else {
                    if b.value.is_none() {
                        return Ok(RemoveResult::Unchanged);
                    }
                    return this.normalise_branch(b, None, None);
                };
                let slot = slot as usize;
                if b.child(slot).is_empty() {
                    return Ok(RemoveResult::Unchanged);
                }
                match this.remove_at(b.child(slot), rest)? {
                    RemoveResult::Unchanged => Ok(RemoveResult::Unchanged),
                    RemoveResult::Gone => this.normalise_branch(b, Some(slot), b.value),
                    RemoveResult::Replaced(below) => {
                        let set = Some((slot, this.put_copy(&below.bytes, below.lazy)));
                        Ok(RemoveResult::Replaced(encoded(|out| write_branch(out, b, set))))
                    }
                }
            }
        })
    }

    /// Merge an extension's path onto its (possibly restructured) child.
    fn graft_ext(&mut self, prefix: &[u8], child: &[u8], lazy: u16) -> Result<Encoded, KvError> {
        Ok(match View::parse(child, lazy)? {
            View::Leaf { path, value } => {
                encoded(|out| write_leaf(out, &[prefix, path].concat(), value))
            }
            View::Ext { path, child } => {
                encoded(|out| write_ext(out, &[prefix, path].concat(), child))
            }
            View::Branch(_) => {
                let below = self.put_copy(child, lazy);
                encoded(|out| write_ext(out, prefix, below))
            }
        })
    }

    /// After a removal — of the child in slot `gone`, or of the branch's
    /// own value — collapse a branch that no longer justifies fan-out.
    /// `value` is the value it is left with.
    fn normalise_branch(
        &mut self,
        b: Branch<'_>,
        gone: Option<usize>,
        value: Option<&[u8]>,
    ) -> Result<RemoveResult, KvError> {
        let left = gone.map_or(b.bitmap, |slot| b.bitmap & !(1 << slot));
        Ok(RemoveResult::Replaced(match (left.count_ones(), value) {
            (0, None) => return Ok(RemoveResult::Gone),
            (0, Some(v)) => encoded(|out| write_leaf(out, &[], v)),
            (1, None) => {
                let only = left.trailing_zeros() as usize;
                self.with_node(b.child(only), |this, child, lazy| {
                    this.graft_ext(&[only as u8], child, lazy)
                })?
            }
            _ => {
                let set = gone.map(|slot| (slot, Ref::EMPTY));
                encoded(|out| write_branch(out, Branch { value, ..b }, set))
            }
        }))
    }

    /// All `(key, value)` pairs reachable from the current root, in key
    /// order (test/diagnostic path; keys must have come from whole bytes).
    pub fn collect_all(&mut self) -> Result<KvPairs, KvError> {
        let mut out = Vec::new();
        let root = self.root;
        if !root.is_empty() {
            self.collect(root, Vec::new(), &mut out)?;
        }
        Ok(out)
    }

    fn collect(
        &mut self,
        at: Ref,
        prefix: Vec<u8>,
        out: &mut Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<(), KvError> {
        fn from_nibbles(nibbles: &[u8]) -> Vec<u8> {
            nibbles.chunks(2).map(|c| (c[0] << 4) | c.get(1).copied().unwrap_or(0)).collect()
        }
        self.with_node(at, |this, node, lazy| {
            match View::parse(node, lazy)? {
                View::Leaf { path, value } => {
                    out.push((from_nibbles(&[&prefix[..], path].concat()), value.to_vec()));
                }
                View::Ext { path, child } => {
                    this.collect(child, [&prefix[..], path].concat(), out)?;
                }
                View::Branch(b) => {
                    if let Some(v) = b.value {
                        out.push((from_nibbles(&prefix), v.to_vec()));
                    }
                    for slot in (0..16).filter(|slot| b.bitmap >> slot & 1 != 0) {
                        let mut full = prefix.clone();
                        full.push(slot as u8);
                        this.collect(b.child(slot), full, out)?;
                    }
                }
            }
            Ok(())
        })
    }
}

impl Recording {
    /// A counted walk reached committed node `hash`.
    fn walk(&mut self, hash: Hash256) {
        if !self.sealed {
            self.delta.walked.insert(hash);
        }
    }
}

/// A committed node's store key — its hash — as a batch holds it.
fn store_key(hash: &Hash256) -> Arc<[u8]> {
    Arc::from(hash.0.as_slice())
}

/// Append a caller's raw store operations to a seal's batch, sharing their
/// allocations.
fn push_extras(batch: &mut WriteBatch, extras: &[KvOp]) {
    for (k, v) in extras {
        match v {
            Some(v) => batch.put(Arc::clone(k), Arc::clone(v)),
            None => batch.delete(Arc::clone(k)),
        }
    }
}

enum RemoveResult {
    /// Key absent; nothing changed.
    Unchanged,
    /// The subtree vanished entirely.
    Gone,
    /// The subtree was rebuilt as this node's encoding (not yet stored).
    Replaced(Encoded),
}

/// The codec this file used before nodes were read in place: a decoded
/// `Node` with its own `encode`/`decode`, kept as the reference the in-place
/// reader and the `write_*` functions are compared against.
#[cfg(test)]
mod reference {
    use super::*;
    use bb_storage::MemStore;

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(super) enum Node {
        Leaf { path: Vec<u8>, value: Vec<u8> },
        Ext { path: Vec<u8>, child: Hash256 },
        Branch { children: Box<[Hash256; 16]>, value: Option<Vec<u8>> },
    }

    impl Node {
        pub(super) fn encode(&self) -> Vec<u8> {
            let mut out = Vec::new();
            match self {
                Node::Leaf { path, value } => {
                    out.push(TAG_LEAF);
                    out.extend_from_slice(&(path.len() as u32).to_be_bytes());
                    out.extend_from_slice(path);
                    out.extend_from_slice(&(value.len() as u32).to_be_bytes());
                    out.extend_from_slice(value);
                }
                Node::Ext { path, child } => {
                    out.push(TAG_EXT);
                    out.extend_from_slice(&(path.len() as u32).to_be_bytes());
                    out.extend_from_slice(path);
                    out.extend_from_slice(&child.0);
                }
                Node::Branch { children, value } => {
                    out.push(TAG_BRANCH);
                    let mut bitmap = 0u16;
                    for (i, c) in children.iter().enumerate() {
                        if !c.is_zero() {
                            bitmap |= 1 << i;
                        }
                    }
                    out.extend_from_slice(&bitmap.to_be_bytes());
                    for c in children.iter().filter(|c| !c.is_zero()) {
                        out.extend_from_slice(&c.0);
                    }
                    match value {
                        Some(v) => {
                            out.push(1);
                            out.extend_from_slice(&(v.len() as u32).to_be_bytes());
                            out.extend_from_slice(v);
                        }
                        None => out.push(0),
                    }
                }
            }
            out
        }

        pub(super) fn decode(bytes: &[u8]) -> Result<Node, KvError> {
            let corrupt = || KvError::Corrupt("malformed trie node".into());
            let tag = *bytes.first().ok_or_else(corrupt)?;
            let rest = &bytes[1..];
            match tag {
                TAG_LEAF => {
                    let plen = u32::from_be_bytes(rest.get(0..4).ok_or_else(corrupt)?.try_into().expect("4")) as usize;
                    let path = rest.get(4..4 + plen).ok_or_else(corrupt)?.to_vec();
                    let at = 4 + plen;
                    let vlen = u32::from_be_bytes(rest.get(at..at + 4).ok_or_else(corrupt)?.try_into().expect("4")) as usize;
                    let value = rest.get(at + 4..at + 4 + vlen).ok_or_else(corrupt)?.to_vec();
                    Ok(Node::Leaf { path, value })
                }
                TAG_EXT => {
                    let plen = u32::from_be_bytes(rest.get(0..4).ok_or_else(corrupt)?.try_into().expect("4")) as usize;
                    let path = rest.get(4..4 + plen).ok_or_else(corrupt)?.to_vec();
                    let at = 4 + plen;
                    let child = Hash256(rest.get(at..at + 32).ok_or_else(corrupt)?.try_into().expect("32"));
                    Ok(Node::Ext { path, child })
                }
                TAG_BRANCH => {
                    let bitmap = u16::from_be_bytes(rest.get(0..2).ok_or_else(corrupt)?.try_into().expect("2"));
                    let mut children = Box::new([Hash256::ZERO; 16]);
                    let mut at = 2;
                    for (i, slot) in children.iter_mut().enumerate() {
                        if bitmap & (1 << i) != 0 {
                            *slot = Hash256(rest.get(at..at + 32).ok_or_else(corrupt)?.try_into().expect("32"));
                            at += 32;
                        }
                    }
                    let has_value = *rest.get(at).ok_or_else(corrupt)?;
                    at += 1;
                    let value = match has_value {
                        0 => None,
                        1 => {
                            let vlen = u32::from_be_bytes(rest.get(at..at + 4).ok_or_else(corrupt)?.try_into().expect("4")) as usize;
                            Some(rest.get(at + 4..at + 4 + vlen).ok_or_else(corrupt)?.to_vec())
                        }
                        _ => return Err(corrupt()),
                    };
                    Ok(Node::Branch { children, value })
                }
                _ => Err(corrupt()),
            }
        }
    }

    /// `bytes` must be exactly what the reference codec would have written,
    /// and the in-place view of it must show the same node field by field.
    pub(super) fn check(bytes: &[u8]) {
        let node = Node::decode(bytes).expect("reference codec decodes a written node");
        assert_eq!(node.encode(), bytes, "written bytes differ from the reference encoding");
        match (View::parse(bytes, 0).expect("a written node parses"), &node) {
            (View::Leaf { path, value }, Node::Leaf { path: p, value: v }) => {
                assert_eq!((path, value), (&p[..], &v[..]));
            }
            (View::Ext { path, child }, Node::Ext { path: p, child: c }) => {
                assert_eq!((path, child), (&p[..], Ref::Hash(*c)));
            }
            (View::Branch(b), Node::Branch { children, value }) => {
                for (slot, child) in children.iter().enumerate() {
                    assert_eq!(b.child(slot), Ref::Hash(*child), "slot {slot}");
                }
                assert_eq!(b.value, value.as_deref());
            }
            _ => panic!("view and reference disagree on the kind of {node:?}"),
        }
    }

    /// Every arena node as [`check`] sees it (an arena index reads as a
    /// hash there), with lazy bits only on present child slots, each
    /// naming a node created before it.
    pub(super) fn check_arena<S: KvStore>(t: &PatriciaTrie<S>) {
        for index in 0..t.arena.nodes.len() {
            let (bytes, node) = t.arena.node(index as u32);
            check(bytes);
            let present = match View::parse(bytes, 0).unwrap() {
                View::Leaf { .. } => 0,
                View::Ext { .. } => 1,
                View::Branch(b) => b.bitmap,
            };
            assert_eq!(node.lazy & !present, 0, "arena node {index}");
            for at in lazy_slots(bytes, node.lazy) {
                assert!((index_at(bytes, at) as usize) < index, "arena node {index}");
            }
        }
    }

    pub(super) fn check_store(t: &mut PatriciaTrie<MemStore>) {
        let stored = t.store_mut().scan_prefix(b"").unwrap();
        assert!(!stored.is_empty());
        stored.iter().for_each(|(_, bytes)| check(bytes));
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{self, Node};
    use super::*;
    use bb_storage::MemStore;

    fn trie() -> PatriciaTrie<MemStore> {
        PatriciaTrie::new(MemStore::new())
    }

    #[test]
    fn empty_trie() {
        let mut t = trie();
        assert_eq!(t.root(), Hash256::ZERO);
        assert_eq!(t.get(b"anything").unwrap(), None);
        t.remove(b"anything").unwrap();
        assert_eq!(t.root(), Hash256::ZERO);
    }

    #[test]
    fn insert_get_overwrite() {
        let mut t = trie();
        t.insert(b"alice", b"100").unwrap();
        assert_eq!(t.get(b"alice").unwrap(), Some(b"100".to_vec()));
        let r1 = t.root();
        t.insert(b"alice", b"200").unwrap();
        assert_eq!(t.get(b"alice").unwrap(), Some(b"200".to_vec()));
        assert_ne!(t.root(), r1);
    }

    #[test]
    fn sibling_keys_with_shared_prefixes() {
        let mut t = trie();
        let keys: &[&[u8]] = &[b"do", b"dog", b"doge", b"horse", b"d", b"", b"dove"];
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, format!("v{i}").as_bytes()).unwrap();
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(k).unwrap(), Some(format!("v{i}").into_bytes()), "key {k:?}");
        }
        assert_eq!(t.get(b"dogs").unwrap(), None);
        assert_eq!(t.get(b"hors").unwrap(), None);
    }

    #[test]
    fn root_is_insertion_order_independent() {
        let kvs: Vec<(Vec<u8>, Vec<u8>)> = (0..50u32)
            .map(|i| (format!("key{i}").into_bytes(), format!("val{i}").into_bytes()))
            .collect();
        let mut t1 = trie();
        for (k, v) in &kvs {
            t1.insert(k, v).unwrap();
        }
        let mut t2 = trie();
        for (k, v) in kvs.iter().rev() {
            t2.insert(k, v).unwrap();
        }
        assert_eq!(t1.root(), t2.root());
    }

    #[test]
    fn remove_restores_previous_root() {
        let mut t = trie();
        t.insert(b"a", b"1").unwrap();
        t.insert(b"ab", b"2").unwrap();
        let with_two = t.root();
        t.insert(b"abc", b"3").unwrap();
        t.remove(b"abc").unwrap();
        assert_eq!(t.root(), with_two, "removal must restore the structural root");
        assert_eq!(t.get(b"abc").unwrap(), None);
        assert_eq!(t.get(b"ab").unwrap(), Some(b"2".to_vec()));
    }

    #[test]
    fn remove_all_returns_to_empty_root() {
        let mut t = trie();
        let keys: Vec<Vec<u8>> = (0..20u32).map(|i| format!("k{i}").into_bytes()).collect();
        for k in &keys {
            t.insert(k, b"v").unwrap();
        }
        for k in &keys {
            t.remove(k).unwrap();
        }
        assert_eq!(t.root(), Hash256::ZERO);
    }

    #[test]
    fn remove_absent_key_is_noop() {
        let mut t = trie();
        t.insert(b"exists", b"v").unwrap();
        let r = t.root();
        t.remove(b"absent").unwrap();
        t.remove(b"exist").unwrap(); // proper prefix of a present key
        t.remove(b"existsx").unwrap(); // extension of a present key
        assert_eq!(t.root(), r);
    }

    #[test]
    fn historical_roots_stay_readable() {
        let mut t = trie();
        t.insert(b"acct", b"10").unwrap();
        let old_root = t.root();
        t.insert(b"acct", b"20").unwrap();
        assert_eq!(t.get(b"acct").unwrap(), Some(b"20".to_vec()));
        assert_eq!(t.get_at(old_root, b"acct").unwrap(), Some(b"10".to_vec()));
        // set_root rewinds the whole view.
        let new_root = t.root();
        t.set_root(old_root);
        assert_eq!(t.get(b"acct").unwrap(), Some(b"10".to_vec()));
        t.set_root(new_root);
        assert_eq!(t.get(b"acct").unwrap(), Some(b"20".to_vec()));
    }

    #[test]
    fn collect_all_returns_sorted_pairs() {
        let mut t = trie();
        for k in ["banana", "apple", "cherry"] {
            t.insert(k.as_bytes(), k.as_bytes()).unwrap();
        }
        let all = t.collect_all().unwrap();
        let keys: Vec<_> = all.iter().map(|(k, _)| String::from_utf8_lossy(k).into_owned()).collect();
        assert_eq!(keys, vec!["apple", "banana", "cherry"]);
    }

    #[test]
    fn node_writes_amplify_updates() {
        let mut t = trie();
        for i in 0..100u32 {
            t.insert(format!("key{i:04}").as_bytes(), b"x").unwrap();
        }
        // Far more nodes written than keys inserted: the paper's Figure 12
        // disk blow-up in miniature.
        assert!(t.nodes_written() > 200, "nodes written: {}", t.nodes_written());
    }

    #[test]
    fn uncommitted_nodes_are_not_cache_traffic() {
        let key = |i: u32| format!("key{i:04}").into_bytes();
        let read_all = |t: &mut PatriciaTrie<MemStore>| {
            for i in 0..100 {
                assert_eq!(t.get(&key(i)).unwrap(), Some(i.to_be_bytes().to_vec()));
            }
            assert_eq!(t.get(b"absent").unwrap(), None);
        };
        let cached = |t: &PatriciaTrie<MemStore>| {
            let mut hashes: Vec<Hash256> = t.cache.keys().copied().collect();
            hashes.sort();
            hashes
        };
        let mut t = PatriciaTrie::new(MemStore::with_capacity_cap(40_000));
        for i in 0..100 {
            t.insert(&key(i), &i.to_be_bytes()).unwrap();
        }
        // A dirty node is read from the arena: neither a hit nor a miss,
        // and it never enters the cache.
        read_all(&mut t);
        assert_eq!(t.cache_stats(), (0, 0));
        assert!(t.cache.is_empty());

        // Once committed, the same walks are served by the cache.
        t.commit().unwrap();
        let committed = t.root();
        read_all(&mut t);
        let (hits, misses) = t.cache_stats();
        assert!(hits > 100 && misses == 0, "{hits} hits, {misses} misses");

        // After a power cut the first re-read comes from the store, the
        // second from the cache it refilled.
        t.drop_volatile();
        t.set_root(committed);
        read_all(&mut t);
        let cold = t.cache_stats();
        assert!(cold.1 > 0, "cold re-read must miss");
        read_all(&mut t);
        let warm = t.cache_stats();
        assert_eq!(warm.1, cold.1, "warm re-read must not miss");
        assert!(warm.0 > cold.0);

        // A commit the store refuses leaves the cache as it was.
        for i in 100..140 {
            t.insert(&key(i), &[i as u8; 1_000]).unwrap();
        }
        let before = (cached(&t), t.cache_stats());
        assert!(!before.0.is_empty());
        assert!(matches!(t.commit().unwrap_err(), KvError::OutOfSpace { .. }));
        assert_eq!((cached(&t), t.cache_stats()), before);
    }

    #[test]
    fn cached_and_cold_walks_agree() {
        // Dropping the cache mid-life must not change what walks observe —
        // arena + store together are authoritative, including for
        // historical roots recorded at commit points.
        let mut t = trie();
        t.insert(b"acct", b"10").unwrap();
        let old_root = t.root();
        t.commit().unwrap();
        t.insert(b"acct", b"20").unwrap();
        assert_eq!(t.get(b"acct").unwrap(), Some(b"20".to_vec()));
        t.cache.clear();
        assert_eq!(t.get(b"acct").unwrap(), Some(b"20".to_vec()));
        assert_eq!(t.get_at(old_root, b"acct").unwrap(), Some(b"10".to_vec()));
        let (_, misses) = t.cache_stats();
        assert!(misses > 0, "cold walks must repopulate through the store");
    }

    #[test]
    fn commit_flushes_strictly_fewer_nodes_than_eager_writes() {
        // One multi-tx "block": every insert is a tx, each rewriting the
        // path to its key. The eager path would have store-put every hashed
        // node (`nodes_written`); commit must flush strictly fewer, because
        // the replaced interior roots are garbage by seal time.
        let mut t = trie();
        for i in 0..32u32 {
            t.insert(format!("key{i:04}").as_bytes(), b"x").unwrap();
        }
        let eager_puts = t.nodes_written();
        assert_eq!(t.store().stats().writes, 0, "no store writes before commit");
        t.commit().unwrap();
        assert!(
            t.nodes_flushed() < eager_puts,
            "flushed {} must be < eager {}",
            t.nodes_flushed(),
            eager_puts
        );
        assert!(t.nodes_dropped() > 0, "per-tx garbage roots must be dropped");
        // Every node created is flushed or dropped at the seal.
        assert_eq!(t.nodes_flushed() + t.nodes_dropped(), eager_puts);
        assert_eq!(t.pending_nodes(), 0);
        assert_eq!(t.store().stats().batch_writes, 1, "one batch per block seal");
        // The store alone now serves everything reachable.
        t.cache.clear();
        for i in 0..32u32 {
            assert_eq!(t.get(format!("key{i:04}").as_bytes()).unwrap(), Some(b"x".to_vec()));
        }
    }

    #[test]
    fn commit_on_clean_trie_is_free() {
        let mut t = trie();
        t.insert(b"k", b"v").unwrap();
        t.commit().unwrap();
        let flushed = t.nodes_flushed();
        t.commit().unwrap(); // nothing new: no batch, no counters
        assert_eq!(t.nodes_flushed(), flushed);
        assert_eq!(t.store().stats().batch_writes, 1);
    }

    #[test]
    fn historical_block_roots_survive_garbage_drop() {
        // Three "blocks" of two txs each: the mid-block roots are garbage,
        // the sealed roots must stay readable from the store alone.
        let mut t = trie();
        let mut block_roots = Vec::new();
        let mut midblock_roots = Vec::new();
        for b in 0..3u32 {
            t.insert(format!("acct{b}").as_bytes(), b"mid").unwrap();
            midblock_roots.push(t.root());
            t.insert(format!("acct{b}").as_bytes(), format!("final{b}").as_bytes()).unwrap();
            t.commit().unwrap();
            block_roots.push(t.root());
        }
        t.cache.clear();
        for (b, root) in block_roots.iter().enumerate() {
            assert_eq!(
                t.get_at(*root, format!("acct{b}").as_bytes()).unwrap(),
                Some(format!("final{b}").into_bytes()),
                "sealed root of block {b} must stay readable"
            );
        }
        // A dropped mid-block root is gone for good: its top node never
        // reached the store.
        assert!(
            t.get_at(midblock_roots[2], b"acct2").is_err(),
            "garbage mid-block root should not resolve after commit"
        );
    }

    #[test]
    fn commit_failure_keeps_overlay_readable_and_retries() {
        // A capped store OOMs the first commit; the trie must stay fully
        // readable from the arena, and a later commit (after the cap is
        // no longer exceeded — here: never) keeps failing identically.
        let mut t = PatriciaTrie::new(MemStore::with_capacity_cap(256));
        for i in 0..16u32 {
            t.insert(format!("key{i:02}").as_bytes(), &[7u8; 32]).unwrap();
        }
        let pending = t.pending_nodes();
        let err = t.commit().unwrap_err();
        assert!(matches!(err, KvError::OutOfSpace { .. }));
        assert_eq!(t.pending_nodes(), pending, "failed commit must keep the arena");
        assert_eq!(t.nodes_flushed(), 0);
        for i in 0..16u32 {
            assert_eq!(
                t.get(format!("key{i:02}").as_bytes()).unwrap(),
                Some(vec![7u8; 32]),
                "arena must keep serving reads after a failed commit"
            );
        }
        assert!(t.commit().is_err(), "retry hits the same cap");
    }

    /// A leaf, an extension, and 1-, 2- and 16-child branches with and
    /// without a value, as the reference codec encodes them.
    fn sample_nodes() -> Vec<Node> {
        let hash = |i: usize| Hash256::digest(&[i as u8]);
        let mut nodes = vec![
            Node::Leaf { path: vec![1, 2], value: b"v".to_vec() },
            Node::Leaf { path: vec![], value: vec![] },
            Node::Ext { path: vec![3, 4, 5], child: hash(99) },
        ];
        for slots in [&[7usize][..], &[0, 15], &(0..16).collect::<Vec<_>>()] {
            for value in [None, Some(b"on the branch".to_vec())] {
                let mut children = Box::new([Hash256::ZERO; 16]);
                slots.iter().for_each(|&slot| children[slot] = hash(slot));
                nodes.push(Node::Branch { children, value });
            }
        }
        nodes
    }

    #[test]
    fn damaged_encodings_are_corrupt_never_a_panic() {
        let is_corrupt = |bytes: &[u8]| matches!(View::parse(bytes, 0), Err(KvError::Corrupt(_)));
        for node in sample_nodes() {
            let good = node.encode();
            reference::check(&good);
            for cut in 0..good.len() {
                assert!(is_corrupt(&good[..cut]), "{node:?} cut to {cut} of {} bytes", good.len());
            }
            let mut unknown_tag = good.clone();
            unknown_tag[0] = 99;
            assert!(is_corrupt(&unknown_tag));
            if let Node::Branch { .. } = node {
                // A bitmap naming one more child than the table holds.
                let mut crowded = good.clone();
                let bitmap = u16::from_be_bytes([good[1], good[2]]);
                if bitmap != u16::MAX {
                    crowded[1..3].copy_from_slice(&(bitmap | (bitmap + 1)).to_be_bytes());
                    assert!(is_corrupt(&crowded[..3 + 32 * bitmap.count_ones() as usize]));
                }
                let flag = 3 + 32 * bitmap.count_ones() as usize;
                let mut bad_flag = good.clone();
                bad_flag[flag] = 2;
                assert!(is_corrupt(&bad_flag));
            }
        }
    }

    /// `a1`/`a2` and `b1`/`b2` share only the top extension and branch, so
    /// damage below the `a` slot must fail every walk through it and no
    /// walk beside it.
    #[test]
    fn damaged_stored_node_is_an_error_on_every_walk() {
        fn stored(t: &mut PatriciaTrie<MemStore>, hash: Hash256) -> Vec<u8> {
            t.store_mut().get(&hash.0).unwrap().expect("committed node")
        }
        type Damage = fn(&mut Vec<u8>);
        let damages: [Damage; 3] = [
            |bytes| bytes.truncate(bytes.len() - 1),
            |bytes| bytes[0] = 99,
            |bytes| bytes.truncate(bytes.len() / 2),
        ];
        // How far below the top branch's `a` slot the damaged node sits: the
        // extension, the branch under it, one of its leaves.
        for depth in 0..3 {
            for damage in damages {
                let mut t = trie();
                for key in [b"a1", b"a2", b"b1", b"b2"] {
                    t.insert(key, key).unwrap();
                }
                t.commit().unwrap();
                // Root extension, top branch, then `depth` more steps down slot 1.
                let mut victim = t.root();
                for _ in 0..2 + depth {
                    let child = match View::parse(&stored(&mut t, victim), 0).unwrap() {
                        View::Ext { child, .. } => child,
                        View::Branch(b) => b.child(1),
                        View::Leaf { .. } => panic!("walked past the leaves"),
                    };
                    let Ref::Hash(child) = child else { panic!("a stored node names a hash") };
                    victim = child;
                }
                let mut bytes = stored(&mut t, victim);
                damage(&mut bytes);
                let mut batch = WriteBatch::new();
                batch.put(&victim.0, &bytes);
                t.store_mut().apply_batch(batch).unwrap();
                t.cache.clear();

                let root = t.root();
                assert!(t.get(b"a1").is_err(), "depth {depth}");
                assert!(t.get_frozen(b"a1").is_err(), "depth {depth}");
                assert!(t.insert(b"a1", b"x").is_err(), "depth {depth}");
                assert!(t.remove(b"a1").is_err(), "depth {depth}");
                if depth == 2 {
                    // `a2` itself avoids the damaged leaf, but removing it
                    // collapses their branch onto it.
                    assert_eq!(t.get(b"a2").unwrap(), Some(b"a2".to_vec()));
                    assert!(t.remove(b"a2").is_err());
                }
                assert_eq!(t.root(), root, "a failed update must not move the root");
                for key in [b"b1", b"b2"] {
                    assert_eq!(t.get(key).unwrap(), Some(key.to_vec()));
                    assert_eq!(t.get_frozen(key).unwrap(), Some(key.to_vec()));
                }
                assert_eq!(t.get(b"b3").unwrap(), None);
                t.insert(b"b3", b"b3").unwrap();
                assert_eq!(t.get(b"b3").unwrap(), Some(b"b3".to_vec()));
            }
        }
    }

    #[test]
    fn get_frozen_leaves_no_trace_wherever_the_walk_is_served() {
        let mut t = trie();
        let key = |i: u32| format!("key{i:04}").into_bytes();
        for i in 0..100 {
            t.insert(&key(i), &i.to_be_bytes()).unwrap();
        }
        let mut probes: Vec<Vec<u8>> = (0..100).map(key).collect();
        probes.extend([b"absent".to_vec(), b"key".to_vec(), b"key00000".to_vec(), vec![]]);
        let expected: Vec<_> = probes.iter().map(|k| t.get(k).unwrap()).collect();
        assert_eq!(expected.iter().flatten().count(), 100);

        let frozen_pass = |t: &mut PatriciaTrie<MemStore>, served_by: &str| {
            let before = (t.cache_stats(), t.cache.len(), t.nodes_written(), t.pending_nodes());
            for (k, want) in probes.iter().zip(&expected) {
                assert_eq!(&t.get_frozen(k).unwrap(), want, "{served_by}");
            }
            let after = (t.cache_stats(), t.cache.len(), t.nodes_written(), t.pending_nodes());
            assert_eq!(before, after, "{served_by}");
        };
        frozen_pass(&mut t, "arena");
        assert!(t.cache.is_empty(), "uncommitted nodes are never cached");
        t.commit().unwrap();
        frozen_pass(&mut t, "cache");
        assert_eq!(t.store().stats().reads, 0, "arena and cache before store");
        t.cache.clear();
        frozen_pass(&mut t, "store");
        assert!(t.store().stats().reads > 0);
        assert!(t.cache.is_empty());
    }

    /// A seal fills each flushed node once: the cache and the recorded
    /// delta hold that one allocation, the extras ride as the caller's, and
    /// a twin that installs the delta caches the same allocations.
    #[test]
    fn seal_shares_each_flushed_node_with_cache_delta_and_installer() {
        let mut ran = PatriciaTrie::new(MemStore::new());
        ran.insert(b"genesis", b"v").unwrap();
        ran.commit().unwrap();
        let mut installer = ran.clone();
        ran.record();
        for i in 0..32u32 {
            ran.insert(&i.to_be_bytes(), b"value").unwrap();
        }
        let record: Arc<[u8]> = Arc::from(&b"block record"[..]);
        ran.commit_with_extras(vec![(Arc::from(&b"!b/1"[..]), Some(Arc::clone(&record)))])
            .unwrap();
        let delta = ran.take_delta().expect("a sealed block was recorded");
        assert!(delta.flushed.len() > 1);
        assert!(Arc::ptr_eq(delta.extras[0].1.as_ref().unwrap(), &record));
        for (hash, bytes) in &delta.flushed {
            assert!(Arc::ptr_eq(ran.cache.get(hash).unwrap(), bytes), "{hash:?}");
        }
        assert!(installer.install_delta(&delta).unwrap());
        for (hash, bytes) in &delta.flushed {
            assert!(Arc::ptr_eq(installer.cache.get(hash).unwrap(), bytes), "{hash:?}");
        }
        assert_eq!(installer.root(), ran.root());
    }

    /// A `MemStore` that logs which WAL frame slot each batch shares.
    #[derive(Clone, Default)]
    struct SlotLog {
        inner: MemStore,
        slots: Vec<Option<FrameSlot>>,
    }

    impl KvStore for SlotLog {
        fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
            self.inner.get(key)
        }
        fn apply_batch(&mut self, batch: WriteBatch) -> Result<(), KvError> {
            let (ops, slot) = batch.into_parts();
            self.slots.push(slot);
            let mut batch = WriteBatch::new();
            push_extras(&mut batch, &ops);
            self.inner.apply_batch(batch)
        }
        fn scan_prefix(&mut self, prefix: &[u8]) -> Result<KvPairs, KvError> {
            self.inner.scan_prefix(prefix)
        }
        fn scan_range_chunk(
            &mut self,
            after: Option<&[u8]>,
            max_bytes: usize,
        ) -> Result<(KvPairs, bool), KvError> {
            self.inner.scan_range_chunk(after, max_bytes)
        }
        fn stats(&self) -> bb_storage::StorageStats {
            self.inner.stats()
        }
    }

    /// A recorded seal's batch shares its WAL frame slot with the delta,
    /// and a twin that installs the delta shares the same slot; a seal
    /// that is not recorded shares none.
    #[test]
    fn seal_shares_its_frame_slot_with_the_installer() {
        let mut ran = PatriciaTrie::new(SlotLog::default());
        ran.insert(b"genesis", b"v").unwrap();
        ran.commit().unwrap();
        let mut installer = ran.clone();
        ran.record();
        ran.insert(b"key", b"value").unwrap();
        ran.commit().unwrap();
        let delta = ran.take_delta().expect("a sealed block was recorded");
        assert!(installer.install_delta(&delta).unwrap());
        let [None, Some(slot)] = &ran.store().slots[..] else { panic!("the seals' slots") };
        assert!(Arc::ptr_eq(slot, &delta.frame));
        let [None, Some(installed)] = &installer.store().slots[..] else { panic!("no slot") };
        assert!(Arc::ptr_eq(installed, slot));
    }
}

/// Seeded insert/remove scripts over a small key alphabet: the trie agrees
/// with a `BTreeMap` model, its root is a pure function of the final map,
/// and committing at random block boundaries is indistinguishable from
/// committing after every operation. Every step is checked against the
/// reference codec.
#[cfg(test)]
mod seeded_props {
    use super::reference;
    use super::*;
    use bb_sim::SimRng;
    use bb_storage::MemStore;
    use std::collections::BTreeMap;

    /// Small alphabet + short keys force deep structural sharing.
    fn random_key(rng: &mut SimRng) -> Vec<u8> {
        (0..rng.below(6)).map(|_| rng.below(4) as u8).collect()
    }

    /// A twin on the same root whose cache holds every node a block walked
    /// installs the block's recorded delta and ends where running the block
    /// ends: root, the five counters, the arena, the cache, the store and
    /// its write counters. The delta is the same whichever twin recorded it,
    /// one that had to read nodes from its store included. A twin whose
    /// cache a crash emptied, or that lacks one walked node, refuses the
    /// delta and is left as it was.
    #[test]
    fn trie_delta_installs_like_running_the_block_seeded() {
        type Op = (Vec<u8>, Option<Vec<u8>>);
        fn pin(t: &mut PatriciaTrie<MemStore>) -> impl PartialEq + std::fmt::Debug {
            let counters =
                [t.nodes_written, t.nodes_flushed, t.nodes_dropped, t.cache_hits, t.cache_misses];
            let mut cache: Vec<_> = t.cache.iter().map(|(h, b)| (*h, b.to_vec())).collect();
            cache.sort_unstable();
            let written = bb_storage::StorageStats { reads: 0, bytes_read: 0, ..t.store().stats() };
            let stored = t.store_mut().scan_prefix(b"").unwrap();
            (t.root(), counters, t.pending_nodes(), cache, written, stored)
        }
        /// Record `ops` as one block (each key read, then written or
        /// removed), sealed with `extras`.
        fn run(t: &mut PatriciaTrie<MemStore>, ops: &[Op], extras: &[Op]) -> TrieDelta {
            t.record();
            for (key, value) in ops {
                t.get(key).unwrap();
                match value {
                    Some(v) => t.insert(key, v).unwrap(),
                    None => t.remove(key).unwrap(),
                }
            }
            t.commit_with_extras(extras.to_vec()).unwrap();
            t.take_delta().expect("a sealed block was recorded")
        }
        let mut rng = SimRng::seed_from_u64(0x5EED_0048);
        let (mut removes, mut overwrites, mut misses, mut refusals) = (0, 0, 0, 0);
        for case in 0..24 {
            let mut ran = PatriciaTrie::new(MemStore::new());
            let mut model = BTreeMap::new();
            for block in 0..rng.range(1, 7) {
                let ops: Vec<Op> = (0..rng.range(1, 40))
                    .map(|_| {
                        let key = random_key(&mut rng);
                        let value = rng.chance(0.7).then(|| vec![rng.below(256) as u8; 3]);
                        let old = match &value {
                            Some(v) => model.insert(key.clone(), v.clone()),
                            None => model.remove(&key),
                        };
                        let counter = if value.is_some() { &mut overwrites } else { &mut removes };
                        *counter += old.is_some() as u32;
                        (key, value)
                    })
                    .collect();
                let extras: Vec<Op> = match rng.below(3) {
                    0 => Vec::new(),
                    1 => vec![(b"!b/x".to_vec(), Some(vec![block as u8; 5]))],
                    _ => vec![(b"!b/x".to_vec(), None)],
                };
                let mut installed = ran.clone();
                let mut cold = ran.clone();
                cold.drop_volatile();
                let delta = run(&mut ran, &ops, &extras);
                assert_eq!(run(&mut cold, &ops, &extras), delta, "case {case}, block {block}");
                misses += (cold.cache_misses > 0) as u32;

                let mut emptied = installed.clone();
                emptied.drop_volatile();
                let mut lacking = installed.clone();
                let pick = rng.below(delta.walked.len().max(1) as u64) as usize;
                if let Some(&hash) = delta.walked.iter().nth(pick) {
                    lacking.cache.remove(&hash);
                    for twin in [&mut emptied, &mut lacking] {
                        let before = pin(twin);
                        assert!(!twin.install_delta(&delta).unwrap(), "case {case}, block {block}");
                        assert_eq!(pin(twin), before, "case {case}, block {block}");
                        refusals += 1;
                    }
                }
                assert!(installed.install_delta(&delta).unwrap(), "case {case}, block {block}");
                assert_eq!(pin(&mut installed), pin(&mut ran), "case {case}, block {block}");
            }
            // Pending nodes: nothing to stand on, so nothing is recorded.
            ran.insert(b"pending", b"v").unwrap();
            ran.record();
            ran.commit().unwrap();
            assert_eq!(ran.take_delta(), None, "case {case}");
        }
        let covered = (removes, overwrites, misses, refusals);
        assert!(removes > 0 && overwrites > 0 && misses > 0 && refusals > 0, "{covered:?}");
    }

    #[test]
    fn agrees_with_model_and_root_is_canonical_seeded() {
        let mut rng = SimRng::seed_from_u64(0x5EED_0008);
        for i in 0..96 {
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            let mut t = PatriciaTrie::new(MemStore::new());
            for _ in 0..rng.range(1, 60) {
                let k = random_key(&mut rng);
                if rng.chance(0.5) {
                    let mut v = vec![0u8; rng.below(8) as usize];
                    rng.fill_bytes(&mut v);
                    model.insert(k.clone(), v.clone());
                    t.insert(&k, &v).unwrap();
                } else {
                    model.remove(&k);
                    t.remove(&k).unwrap();
                }
                reference::check_arena(&t);
            }
            for (k, v) in &model {
                assert_eq!(t.get(k).unwrap(), Some(v.clone()), "case {i}");
            }
            let mut fresh = PatriciaTrie::new(MemStore::new());
            for (k, v) in &model {
                fresh.insert(k, v).unwrap();
            }
            assert_eq!(t.root(), fresh.root(), "case {i}");
        }
    }

    /// Block-scoped commits ≡ eager writes: a trie committing at randomized
    /// block boundaries must produce the identical root and identical `get`
    /// / `get_at` answers as a reference trie that commits after every
    /// single operation (the closest expressible analogue of the old eager
    /// path, where every `put_node` hit the store immediately).
    #[test]
    fn overlay_commit_equivalent_to_eager_writes_seeded() {
        let mut rng = SimRng::seed_from_u64(0x5EED_0011);
        for _ in 0..24 {
            let mut batched = PatriciaTrie::new(MemStore::new());
            let mut eager = PatriciaTrie::new(MemStore::new());
            // Roots recorded at batched-commit points (block boundaries).
            let mut sealed = Vec::new();
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            for _ in 0..rng.range(2, 80) {
                let k = random_key(&mut rng);
                match rng.below(4) {
                    // Inserts and overwrites dominate.
                    0..=1 => {
                        let mut v = vec![0u8; rng.below(8) as usize];
                        rng.fill_bytes(&mut v);
                        model.insert(k.clone(), v.clone());
                        batched.insert(&k, &v).unwrap();
                        eager.insert(&k, &v).unwrap();
                    }
                    2 => {
                        model.remove(&k);
                        batched.remove(&k).unwrap();
                        eager.remove(&k).unwrap();
                    }
                    // Block boundary: batched seals, eager has been
                    // committing all along.
                    _ => {
                        batched.commit().unwrap();
                        sealed.push((batched.root(), model.clone()));
                    }
                }
                reference::check_arena(&batched);
                reference::check_arena(&eager);
                eager.commit().unwrap(); // every op "eagerly" persisted
                assert_eq!(batched.root(), eager.root(), "roots diverged mid-block");
            }
            batched.commit().unwrap();
            sealed.push((batched.root(), model.clone()));
            reference::check_store(&mut batched);
            reference::check_store(&mut eager);
            // Live reads agree (cold, through the store).
            batched.cache.clear();
            eager.cache.clear();
            for (k, v) in &model {
                assert_eq!(batched.get(k).unwrap(), Some(v.clone()));
                assert_eq!(eager.get(k).unwrap(), Some(v.clone()));
            }
            // Historical reads at every sealed root agree with the model
            // snapshot taken at that boundary, from the store alone.
            for (root, snapshot) in &sealed {
                for (k, v) in snapshot {
                    assert_eq!(
                        batched.get_at(*root, k).unwrap(),
                        Some(v.clone()),
                        "sealed-root read diverged"
                    );
                }
            }
        }
    }

    /// A `MemStore` that refuses every batch while `refuse` is set, as a
    /// full store does.
    #[derive(Clone)]
    struct Refusing {
        inner: MemStore,
        refuse: bool,
    }

    impl KvStore for Refusing {
        fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
            self.inner.get(key)
        }
        fn apply_batch(&mut self, batch: WriteBatch) -> Result<(), KvError> {
            if self.refuse {
                return Err(KvError::OutOfSpace { used: 0, cap: 0 });
            }
            self.inner.apply_batch(batch)
        }
        fn scan_prefix(&mut self, prefix: &[u8]) -> Result<KvPairs, KvError> {
            self.inner.scan_prefix(prefix)
        }
        fn scan_range_chunk(
            &mut self,
            after: Option<&[u8]>,
            max_bytes: usize,
        ) -> Result<(KvPairs, bool), KvError> {
            self.inner.scan_range_chunk(after, max_bytes)
        }
        fn stats(&self) -> bb_storage::StorageStats {
            self.inner.stats()
        }
    }

    type Model = BTreeMap<Vec<u8>, Vec<u8>>;

    /// Lazy hashing against a trie built afresh: random inserts, removes,
    /// mark/rewind, `root`/`set_root`, clones, commits, refused commits and
    /// `drop_volatile` over short and hashed keys. After every operation the
    /// trie holds what a `BTreeMap` model holds and its root equals that of
    /// a fresh trie built from `collect_all()`; every node a commit flushed
    /// is stored under its own hash and decodes with the reference codec.
    #[test]
    fn lazy_root_matches_a_fresh_build_seeded() {
        let mut rng = SimRng::seed_from_u64(0x5EED_0041);
        for case in 0..96 {
            let hashed = case % 2 == 1;
            let key = |rng: &mut SimRng| {
                if hashed {
                    bb_crypto::sha256(&rng.below(48).to_be_bytes())[..20].to_vec()
                } else {
                    random_key(rng)
                }
            };
            let mut t = PatriciaTrie::new(Refusing { inner: MemStore::new(), refuse: false });
            let mut model = Model::new();
            // What the last accepted commit sealed; the marks taken and the
            // roots hashed since, each with the map it stood for.
            let mut sealed = (Hash256::ZERO, Model::new());
            let mut marks: Vec<(Mark, Model)> = Vec::new();
            let mut roots: Vec<(Hash256, Model)> = Vec::new();
            for step in 0..rng.range(10, 200) {
                match rng.below(16) {
                    0..=5 => {
                        let k = key(&mut rng);
                        let mut v = vec![0u8; rng.below(8) as usize];
                        rng.fill_bytes(&mut v);
                        t.insert(&k, &v).unwrap();
                        model.insert(k, v);
                    }
                    6..=7 => {
                        let k = key(&mut rng);
                        t.remove(&k).unwrap();
                        model.remove(&k);
                    }
                    8 => marks.push((t.mark(), model.clone())),
                    9 if !marks.is_empty() => {
                        let (mark, map) = marks[rng.below(marks.len() as u64) as usize].clone();
                        t.rewind(mark);
                        model = map;
                    }
                    10 => roots.push((t.root(), model.clone())),
                    11 if !roots.is_empty() => {
                        let (root, map) = roots[rng.below(roots.len() as u64) as usize].clone();
                        t.set_root(root);
                        model = map;
                    }
                    12 => t = t.clone(),
                    13 => {
                        // A commit with nothing to flush reaches no store.
                        let refused = rng.chance(0.3) && t.pending_nodes() > 0;
                        t.store_mut().refuse = refused;
                        assert_eq!(t.commit().is_err(), refused, "case {case} step {step}");
                        t.store_mut().refuse = false;
                        if !refused {
                            assert_eq!(t.pending_nodes(), 0);
                            sealed = (t.root(), model.clone());
                            marks.clear();
                            roots.clear();
                            for (hash, bytes) in t.store_mut().scan_prefix(b"").unwrap() {
                                assert_eq!(Hash256::digest(&bytes).0[..], hash[..]);
                                reference::check(&bytes);
                            }
                        }
                    }
                    14 => {
                        t.drop_volatile();
                        t.set_root(sealed.0);
                        model = sealed.1.clone();
                        marks.clear();
                        roots.clear();
                    }
                    _ => {
                        let k = key(&mut rng);
                        assert_eq!(t.get(&k).unwrap().as_ref(), model.get(&k), "case {case} step {step}");
                    }
                }
                reference::check_arena(&t);
                let root = t.root();
                let all = t.collect_all().unwrap();
                assert_eq!(all, model.clone().into_iter().collect::<KvPairs>(), "case {case} step {step}");
                let mut fresh = PatriciaTrie::new(MemStore::new());
                for (k, v) in &all {
                    fresh.insert(k, v).unwrap();
                }
                assert_eq!(root, fresh.root(), "case {case} step {step}");
                assert_eq!(
                    t.nodes_written(),
                    t.nodes_flushed() + t.nodes_dropped() + t.pending_nodes() as u64
                );
            }
        }
    }
}

/// Known answers: scripted sequences whose roots, cache counts, node counts
/// and flushed bytes are literals. `merkle.cache_hits/misses`,
/// `nodes_flushed/dropped` and `storage.bytes_written` are inside the
/// benchmark's `result_digest` and every root is inside `results/`, so a
/// change to this file that moves one of these numbers is a model change.
#[cfg(test)]
mod known_answers {
    use super::*;
    use bb_crypto::Sha256;
    use bb_storage::{MemStore, StorageStats};

    /// A `MemStore` that also keeps a running digest of every batch `commit`
    /// hands it, in order — pins the flushed bytes *and* the DFS flush order —
    /// and reports their volume as `bytes_written`.
    #[derive(Clone)]
    struct TapeStore {
        inner: MemStore,
        tape: Sha256,
        bytes_written: u64,
    }

    impl TapeStore {
        fn over(inner: MemStore) -> Self {
            TapeStore { inner, tape: Sha256::new(), bytes_written: 0 }
        }
    }

    impl KvStore for TapeStore {
        fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
            self.inner.get(key)
        }
        fn apply_batch(&mut self, batch: WriteBatch) -> Result<(), KvError> {
            for (key, value) in batch.ops() {
                let value = value.as_deref().unwrap_or(b"<deleted>");
                self.tape.update(&(key.len() as u32).to_be_bytes()).update(key);
                self.tape.update(&(value.len() as u32).to_be_bytes()).update(value);
                self.bytes_written += (key.len() + value.len()) as u64;
            }
            self.inner.apply_batch(batch)
        }
        fn scan_prefix(&mut self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>, KvError> {
            self.inner.scan_prefix(prefix)
        }
        fn scan_range_chunk(
            &mut self,
            after: Option<&[u8]>,
            max_bytes: usize,
        ) -> Result<(KvPairs, bool), KvError> {
            self.inner.scan_range_chunk(after, max_bytes)
        }
        fn stats(&self) -> StorageStats {
            StorageStats { bytes_written: self.bytes_written, ..self.inner.stats() }
        }
    }

    /// Everything a script pins at one point of its run.
    #[derive(Debug, PartialEq, Eq)]
    struct Pin {
        root: String,
        cache: (u64, u64),
        written: u64,
        flushed: u64,
        dropped: u64,
        pending: usize,
        bytes_written: u64,
        store_writes: u64,
        batches: u64,
        tape: String,
    }

    /// A literal [`Pin`]: `nodes` is written/flushed/dropped, `store` is
    /// bytes written/writes/batches.
    fn expect(
        root: &str,
        cache: (u64, u64),
        nodes: [u64; 3],
        pending: usize,
        store: [u64; 3],
        tape: &str,
    ) -> Pin {
        Pin {
            root: root.into(),
            cache,
            written: nodes[0],
            flushed: nodes[1],
            dropped: nodes[2],
            pending,
            bytes_written: store[0],
            store_writes: store[1],
            batches: store[2],
            tape: tape.into(),
        }
    }

    fn pin(t: &mut PatriciaTrie<TapeStore>) -> Pin {
        let stats = t.store().stats();
        Pin {
            root: t.root().to_hex(),
            cache: t.cache_stats(),
            written: t.nodes_written(),
            flushed: t.nodes_flushed(),
            dropped: t.nodes_dropped(),
            pending: t.pending_nodes(),
            bytes_written: stats.bytes_written,
            store_writes: stats.writes,
            batches: stats.batch_writes,
            tape: Hash256(t.store().tape.clone().finalize()).to_hex(),
        }
    }

    /// Insert every key (a block seal after every 64th and at the end), read
    /// everything ten times, overwrite everything in one block. Returns the
    /// pins after the load, after the reads and at the end.
    fn load_read_overwrite(keys: &[Vec<u8>]) -> [Pin; 3] {
        let mut t = PatriciaTrie::new(TapeStore::over(MemStore::new()));
        load(&mut t, keys, 0);
        read_overwrite(t, keys)
    }

    /// The load phase of [`load_read_overwrite`] from key `from` on.
    fn load(t: &mut PatriciaTrie<TapeStore>, keys: &[Vec<u8>], from: usize) {
        for (i, k) in keys.iter().enumerate().skip(from) {
            t.insert(k, b"value-bytes-here").unwrap();
            if i % 64 == 63 {
                t.commit().unwrap();
            }
        }
    }

    /// Everything in [`load_read_overwrite`] after the last inserted key.
    fn read_overwrite(mut t: PatriciaTrie<TapeStore>, keys: &[Vec<u8>]) -> [Pin; 3] {
        t.commit().unwrap();
        let loaded = pin(&mut t);
        for _ in 0..10 {
            for k in keys {
                assert_eq!(t.get(k).unwrap().as_deref(), Some(&b"value-bytes-here"[..]));
            }
        }
        let read = pin(&mut t);
        for k in keys {
            t.insert(k, b"another-value-16").unwrap();
        }
        t.commit().unwrap();
        [loaded, read, pin(&mut t)]
    }

    #[test]
    fn sequential_keys_that_fit_the_cache() {
        let keys: Vec<Vec<u8>> = (0..20_000u64).map(|i| i.to_be_bytes().to_vec()).collect();
        let pins = load_read_overwrite(&keys);
        let want = [
            expect(
                "0b37b21f85a1e37d06543d67d4a5ee6b43af2238240207fea086090f7366644d",
                (1_098, 0),
                [115_489, 1_810, 113_679],
                0,
                [457_054, 1_810, 313],
                "d7497ebec6d716fe48e2bdb7342ae82748684d4bbf6148efb966a5ea64771ea5",
            ),
            expect(
                "0b37b21f85a1e37d06543d67d4a5ee6b43af2238240207fea086090f7366644d",
                (1_201_098, 0),
                [115_489, 1_810, 113_679],
                0,
                [457_054, 1_810, 313],
                "d7497ebec6d716fe48e2bdb7342ae82748684d4bbf6148efb966a5ea64771ea5",
            ),
            expect(
                "e3eda1c1cc426ed20719892937b4918f52f047dca193d88c24d7a7113dbbae0c",
                (1_222_434, 0),
                [235_489, 1_818, 233_671],
                0,
                [459_648, 1_818, 314],
                "dd4c076f1c92d918c080bcdb766f86496897d96f58c9ec27ad4bfbe9a0ed38b0",
            ),
        ];
        assert_eq!(pins, want);
    }

    fn hashed_keys() -> Vec<Vec<u8>> {
        (0..60_000u64).map(|i| bb_crypto::sha256(&i.to_be_bytes())[..20].to_vec()).collect()
    }

    #[test]
    fn hashed_keys_that_cross_the_cache_cap() {
        assert_eq!(load_read_overwrite(&hashed_keys()), hashed_keys_pins());
    }

    /// A trie cloned mid-script — mid-block, arena and cache populated, the
    /// cache-cap crossings still ahead — is a twin: original and copy each
    /// finish the script on the pins of the run that never forked.
    #[test]
    fn fork_in_the_middle_lands_both_sides_on_the_known_answers() {
        let keys = hashed_keys();
        let mut original = PatriciaTrie::new(TapeStore::over(MemStore::new()));
        let half = keys.len() / 2;
        load(&mut original, &keys[..half], 0);
        assert!(original.pending_nodes() > 0 && !original.cache.is_empty());
        // No store read yet: the cache has never been cleared.
        assert_eq!(original.cache_stats().1, 0);
        let copy = original.clone();
        for mut t in [original, copy] {
            load(&mut t, &keys, half);
            assert_eq!(read_overwrite(t, &keys), hashed_keys_pins());
        }
    }

    fn hashed_keys_pins() -> [Pin; 3] {
        [
            expect(
                "cc90f69667245783cc1221184ee56b0eb5c5b738b603b129185f7471b1060ece",
                (132_237, 13_113),
                [338_283, 226_808, 111_475],
                0,
                [59_475_218, 226_808, 938],
                "68c8da4e4c1063435360a0ec5cb8180aa5f62b23018ee7fdce9da71a08a34a03",
            ),
            expect(
                "cc90f69667245783cc1221184ee56b0eb5c5b738b603b129185f7471b1060ece",
                (3_424_456, 116_794),
                [338_283, 226_808, 111_475],
                0,
                [59_475_218, 226_808, 938],
                "68c8da4e4c1063435360a0ec5cb8180aa5f62b23018ee7fdce9da71a08a34a03",
            ),
            expect(
                "020684445b18a1b83c023fdc90845ae6331c50e274b54192921bab3b463f33c8",
                (3_505_914, 116_794),
                [677_873, 308_266, 369_607],
                0,
                [68_396_288, 308_266, 939],
                "334d315501adf94687fd906be259fdeaa9452819d0a73d2377e5cbf59f5cd36a",
            ),
        ]
    }

    /// The rarer paths in one short life: removals that collapse branches, a
    /// rewind to a sealed root after a crash, a historical read, and a commit
    /// refused by a full store and retried once there is room.
    #[test]
    fn remove_rewind_crash_and_refused_commit() {
        let key = |i: u32| format!("acct{i:03}").into_bytes();
        let mut pins = Vec::new();
        let mut t = PatriciaTrie::new(TapeStore::over(MemStore::with_capacity_cap(40_000)));
        for i in 0..40 {
            t.insert(&key(i), format!("balance-of-account-{i:03}").as_bytes()).unwrap();
        }
        t.insert(b"", b"empty key lands on a branch").unwrap();
        t.insert(b"acct", b"prefix key lands on a branch").unwrap();
        t.commit().unwrap();
        let sealed = t.root();
        pins.push(pin(&mut t));

        // An unsealed block: removals, overwrites, new keys. Then power is cut.
        for i in (0..40).step_by(4) {
            t.remove(&key(i)).unwrap();
        }
        t.remove(b"acct").unwrap();
        t.remove(b"absent").unwrap();
        for i in 40..45 {
            t.insert(&key(i), b"new").unwrap();
        }
        for i in 1..6 {
            t.insert(&key(i), b"overwritten").unwrap();
        }
        assert_eq!(t.get(&key(0)).unwrap(), None);
        assert_eq!(t.get(&key(1)).unwrap().as_deref(), Some(&b"overwritten"[..]));
        pins.push(pin(&mut t));
        t.drop_volatile();
        t.set_root(sealed);
        for i in 0..40 {
            assert_eq!(t.get(&key(i)).unwrap(), Some(format!("balance-of-account-{i:03}").into_bytes()));
        }
        assert_eq!(t.get(&key(40)).unwrap(), None);
        pins.push(pin(&mut t));

        // A sealed block of removals; the older root stays readable.
        for i in (0..40).step_by(3) {
            t.remove(&key(i)).unwrap();
        }
        t.remove(b"").unwrap();
        t.commit().unwrap();
        let thinned = t.root();
        assert_eq!(t.get_at(sealed, &key(3)).unwrap(), Some(b"balance-of-account-003".to_vec()));
        assert_eq!(t.get_at(sealed, b"").unwrap().as_deref(), Some(&b"empty key lands on a branch"[..]));
        assert_eq!(t.get(&key(3)).unwrap(), None);
        assert_eq!(t.get_frozen(&key(4)).unwrap(), Some(b"balance-of-account-004".to_vec()));
        assert_eq!(t.collect_all().unwrap().len(), 27);
        pins.push(pin(&mut t));

        // A block too big for the store: the commit is refused, the arena
        // keeps serving it, and the retry goes through once it has shrunk.
        for i in 100..140 {
            t.insert(&key(i), &[i as u8; 600]).unwrap();
        }
        assert!(matches!(t.commit().unwrap_err(), KvError::OutOfSpace { .. }));
        t.cache.clear();
        assert_eq!(t.get(&key(139)).unwrap(), Some(vec![139u8; 600]));
        pins.push(pin(&mut t));
        for i in 100..140 {
            t.remove(&key(i)).unwrap();
        }
        assert_eq!(t.root(), thinned);
        t.commit().unwrap();
        pins.push(pin(&mut t));
        let want = [
            expect(
                "9309adf71beb674023461461ffabf53146ac38d28694b5425846f0e66b7c84ac",
                (0, 0),
                [183, 53, 130],
                0,
                [4_734, 53, 1],
                "d563d0bc0cda0ba170f75bc252c7fd31a6574bd36ba6f92095300a468a041cad",
            ),
            expect(
                "520a51ba843a31ba8bcae61a368ec14681c1f266272ea7a13f1ecabfeb447f8a",
                (27, 0),
                [314, 53, 130],
                131,
                [4_734, 53, 1],
                "d563d0bc0cda0ba170f75bc252c7fd31a6574bd36ba6f92095300a468a041cad",
            ),
            expect(
                "9309adf71beb674023461461ffabf53146ac38d28694b5425846f0e66b7c84ac",
                (299, 53),
                [314, 53, 261],
                0,
                [4_734, 53, 1],
                "d563d0bc0cda0ba170f75bc252c7fd31a6574bd36ba6f92095300a468a041cad",
            ),
            expect(
                "272e8aa1f5e45f0815642436ce43d47ac2500ee85d2a8bb95cc8c03c3ec68ab7",
                (379, 53),
                [413, 65, 348],
                0,
                [6_402, 65, 2],
                "bb146de66f6eaf27fb5ca502ca5f6da58e4c0be2c4986c260c95bd6d22022426",
            ),
            expect(
                "908ee5466b6493d0c690cf4e1aefff058b52bf9093222a4a8c8f4526c099423d",
                (382, 53),
                [711, 65, 348],
                298,
                [34_327, 116, 3],
                "19f0b28b18f9aa195db50f7a9de79698c2b6223b0327afd07021900636af6aaf",
            ),
            expect(
                "272e8aa1f5e45f0815642436ce43d47ac2500ee85d2a8bb95cc8c03c3ec68ab7",
                (382, 53),
                [958, 68, 890],
                0,
                [34_575, 119, 4],
                "79cdfbb7866ab9b569998f5a9685737ce6f23b5488b3e63e9acd155b77518637",
            ),
        ];
        assert_eq!(pins, want);
    }

    /// Two keys that differ only in their first nibble, with one value: the
    /// fork between them writes the same one-nibble leaf twice in one block.
    #[test]
    fn same_leaf_bytes_twice_in_one_block() {
        let mut t = PatriciaTrie::new(TapeStore::over(MemStore::new()));
        t.insert(&[0x10], b"same").unwrap();
        t.insert(&[0x20], b"same").unwrap();
        let unsealed = pin(&mut t);
        t.commit().unwrap();
        let pins = [unsealed, pin(&mut t)];
        let want = [
            expect(
                "2c99625e06cd9c3cfd40e51ba08d285313fa8eb0dafcd395fae4c840c2069d0a",
                (0, 0),
                [4, 0, 0],
                4,
                [0, 0, 0],
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            expect(
                "2c99625e06cd9c3cfd40e51ba08d285313fa8eb0dafcd395fae4c840c2069d0a",
                (0, 0),
                [4, 2, 2],
                0,
                [146, 2, 1],
                "642225f2c548f935442945aae9a986f203af57c1f268b85a13e9816763ce8bcd",
            ),
        ];
        assert_eq!(pins, want);
    }

    /// Sealed accounts; then one block writes an account away from its
    /// sealed value and back, which re-creates the sealed path, and seals.
    #[test]
    fn key_written_away_and_back() {
        let key = |i: u32| format!("acct{i:03}").into_bytes();
        let mut t = PatriciaTrie::new(TapeStore::over(MemStore::new()));
        for i in 0..20 {
            t.insert(&key(i), b"balance").unwrap();
        }
        t.commit().unwrap();
        let sealed = pin(&mut t);
        t.insert(&key(7), b"spent").unwrap();
        t.insert(&key(7), b"balance").unwrap();
        let unsealed = pin(&mut t);
        t.commit().unwrap();
        let pins = [sealed, unsealed, pin(&mut t)];
        let want = [
            expect(
                "9b086994f12e379858829508dec83362b7723e0554818bcc94383f489003b550",
                (0, 0),
                [79, 5, 74],
                0,
                [654, 5, 1],
                "52809b5f2d679c2f1ec8b2d1890753a3d518a9cf533a0bee75d37789a5443b0c",
            ),
            expect(
                "9b086994f12e379858829508dec83362b7723e0554818bcc94383f489003b550",
                (5, 0),
                [89, 5, 74],
                10,
                [654, 5, 1],
                "52809b5f2d679c2f1ec8b2d1890753a3d518a9cf533a0bee75d37789a5443b0c",
            ),
            expect(
                "9b086994f12e379858829508dec83362b7723e0554818bcc94383f489003b550",
                (5, 0),
                [89, 10, 79],
                0,
                [1_308, 10, 2],
                "c8b3b0a1bf828a81e41a1ed7cb85d6af97497bdc193aae4e926270d0515d1fea",
            ),
        ];
        assert_eq!(pins, want);
    }

    /// A failed transaction's rollback after its writes re-created sealed
    /// nodes: the mark is the sealed root, the writes go away and back, and
    /// the rewind lands on the sealed root again. The first block seals
    /// right there; the second writes one more account after the rewind.
    #[test]
    fn rewind_after_recreating_sealed_nodes() {
        let key = |i: u32| format!("acct{i:03}").into_bytes();
        let mut t = PatriciaTrie::new(TapeStore::over(MemStore::new()));
        for i in 0..20 {
            t.insert(&key(i), b"balance").unwrap();
        }
        t.commit().unwrap();
        let mut pins = vec![pin(&mut t)];
        for extra in [None, Some(40)] {
            let mark = t.root();
            t.insert(&key(7), b"spent").unwrap();
            t.insert(&key(7), b"balance").unwrap();
            t.set_root(mark);
            if let Some(i) = extra {
                t.insert(&key(i), b"balance").unwrap();
            }
            pins.push(pin(&mut t));
            t.commit().unwrap();
            pins.push(pin(&mut t));
        }
        let want = [
            expect(
                "9b086994f12e379858829508dec83362b7723e0554818bcc94383f489003b550",
                (0, 0),
                [79, 5, 74],
                0,
                [654, 5, 1],
                "52809b5f2d679c2f1ec8b2d1890753a3d518a9cf533a0bee75d37789a5443b0c",
            ),
            expect(
                "9b086994f12e379858829508dec83362b7723e0554818bcc94383f489003b550",
                (5, 0),
                [89, 5, 74],
                10,
                [654, 5, 1],
                "52809b5f2d679c2f1ec8b2d1890753a3d518a9cf533a0bee75d37789a5443b0c",
            ),
            expect(
                "9b086994f12e379858829508dec83362b7723e0554818bcc94383f489003b550",
                (5, 0),
                [89, 5, 84],
                0,
                [654, 5, 1],
                "52809b5f2d679c2f1ec8b2d1890753a3d518a9cf533a0bee75d37789a5443b0c",
            ),
            expect(
                "27dd13780ee032937aff6161ab532729c191cb321255739d6677e11440519498",
                (12, 0),
                [102, 5, 84],
                13,
                [654, 5, 1],
                "52809b5f2d679c2f1ec8b2d1890753a3d518a9cf533a0bee75d37789a5443b0c",
            ),
            expect(
                "27dd13780ee032937aff6161ab532729c191cb321255739d6677e11440519498",
                (12, 0),
                [102, 8, 94],
                0,
                [916, 8, 2],
                "f3ff86b5cfac20f1e07e1bbcfdc26f1c2d30ec338d0701b1fdbec0d3b87e7447",
            ),
        ];
        assert_eq!(pins, want);
    }
}
