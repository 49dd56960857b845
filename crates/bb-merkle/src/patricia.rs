//! A persistent Merkle-Patricia trie over pluggable key-value storage —
//! the state tree of the Ethereum-like and Parity-like platforms.
//!
//! Nodes are immutable and content-addressed: every update hashes fresh
//! leaf/extension/branch nodes along the key's path (keyed by node hash)
//! and returns a new root. Committed nodes are never garbage collected,
//! exactly like geth v1.4 — this is the mechanism behind the
//! order-of-magnitude disk-usage gap the paper measures in Figure 12(c).
//!
//! A node's **encoding is its only representation**. It is what gets
//! hashed, what the store holds, and what the trie keeps in memory: one
//! exact-size `Arc<[u8]>` per node, shared by the node cache and the
//! dirty-node overlay. Walks read it in place through `View`, a borrowed,
//! bounds-checked parse; new nodes are written straight into a reused
//! buffer by the `write_*` functions. There is no decoded form to build,
//! clone or re-encode.
//!
//! Writes are **block-scoped**: `insert`/`remove` park encoded nodes in an
//! in-memory dirty-node overlay, and [`PatriciaTrie::commit`] at block-seal
//! time flushes only the nodes reachable from the committed root as one
//! [`WriteBatch`]. Intermediate per-transaction roots created and replaced
//! within a block leave garbage nodes in the overlay that are dropped at
//! commit, so they never touch the WAL. Root hashes are byte-identical to
//! an eager-write trie: hashing is unchanged, only persistence is deferred.
//!
//! The root hash is a binding commitment to the full key→value map: any two
//! insertion orders producing the same map produce the same root (verified
//! by property test).

use bb_crypto::{DigestMap, Hash256};
use bb_storage::{KvError, KvPairs, KvStore, WriteBatch};
use std::sync::Arc;

/// Node cache capacity, in nodes. Nodes are content-addressed and
/// immutable, so the only cost of a stale-free cache is memory — a 48-byte
/// slot (hash + pointer) and the node's encoding, which an uncommitted
/// node shares with the overlay; when it fills we drop it wholesale
/// (cheapest possible policy, and the working set of a macro run refills
/// it within one block).
const NODE_CACHE_CAP: usize = 1 << 17;

/// Merkle-Patricia trie handle owning its backing store.
///
/// `Clone` is a second trie over a second store, indistinguishable from the
/// first by anything a walk or a counter can observe: root, overlay, cache
/// (same entries in the same table layout, so the wholesale `clear()` falls
/// on the same insert) and all five counters travel. Node encodings are
/// immutable, so the two share them by reference count.
#[derive(Clone)]
pub struct PatriciaTrie<S: KvStore> {
    store: S,
    root: Hash256,
    /// Uncommitted nodes' encodings by hash. Every written node lands here
    /// instead of the store; `commit` flushes the subset reachable from the
    /// committed root and drops the rest. Because nodes are
    /// content-addressed, every ancestor of an overlay node is itself in
    /// the overlay, so reads that miss the overlay can fall through to the
    /// store unconditionally.
    overlay: DigestMap<Hash256, Arc<[u8]>>,
    /// Nodes written (hashed) since construction — the write-amplification
    /// numerator an eager-write trie would have paid to storage.
    nodes_written: u64,
    /// Overlay nodes persisted by `commit` calls.
    nodes_flushed: u64,
    /// Overlay nodes discarded by `commit` calls (garbage interior roots
    /// from per-transaction application inside a block).
    nodes_dropped: u64,
    /// Recently walked or written nodes' encodings by hash, each checked by
    /// [`View::parse`] before it got here (`Arc`, not `Rc`: a simulated
    /// world is `Send`). Content-addressing makes entries immutable, so the
    /// cache can never go stale — it only skips overlay and store reads,
    /// never changes what a walk observes (determinism-safe: no simulated
    /// cost model consumes store read counters).
    cache: DigestMap<Hash256, Arc<[u8]>>,
    cache_hits: u64,
    cache_misses: u64,
    /// Scratch buffer every new node is encoded into before it is hashed.
    encode_buf: Vec<u8>,
    /// Scratch buffer reused across key→nibble conversions.
    nibble_buf: Vec<u8>,
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
    Ext { path: &'a [u8], child: Hash256 },
    /// 16-way fan-out with an optional value terminating exactly here.
    Branch(Branch<'a>),
}

#[derive(Clone, Copy)]
struct Branch<'a> {
    /// Bit `i` set: slot `i` has a child.
    bitmap: u16,
    /// The present slots' hashes only, packed in slot order:
    /// `32 * bitmap.count_ones()` bytes.
    children: &'a [u8],
    value: Option<&'a [u8]>,
}

impl Branch<'_> {
    /// The child in slot `i` ([`Hash256::ZERO`] when there is none).
    fn child(&self, i: usize) -> Hash256 {
        if self.bitmap >> i & 1 == 0 {
            return Hash256::ZERO;
        }
        hash_at(self.children, packed_offset(self.bitmap, i))
    }
}

/// Where slot `i`'s hash sits (or would be inserted) in a packed child table.
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
    fn parse(bytes: &'a [u8]) -> Result<View<'a>, KvError> {
        let mut r = Reader(bytes);
        match r.take(1)?[0] {
            TAG_LEAF => Ok(View::Leaf { path: r.prefixed()?, value: r.prefixed()? }),
            TAG_EXT => Ok(View::Ext { path: r.prefixed()?, child: hash_at(r.take(32)?, 0) }),
            TAG_BRANCH => {
                let bitmap = u16::from_be_bytes(r.take(2)?.try_into().expect("took 2"));
                let children = r.take(32 * bitmap.count_ones() as usize)?;
                let value = match r.take(1)?[0] {
                    0 => None,
                    1 => Some(r.prefixed()?),
                    _ => return Err(Reader::corrupt()),
                };
                Ok(View::Branch(Branch { bitmap, children, value }))
            }
            _ => Err(Reader::corrupt()),
        }
    }
}

fn write_prefixed(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
}

fn write_leaf(out: &mut Vec<u8>, path: &[u8], value: &[u8]) {
    out.push(TAG_LEAF);
    write_prefixed(out, path);
    write_prefixed(out, value);
}

fn write_ext(out: &mut Vec<u8>, path: &[u8], child: &Hash256) {
    out.push(TAG_EXT);
    write_prefixed(out, path);
    out.extend_from_slice(&child.0);
}

/// Write branch `b`, after setting slot `i` to `hash` if `set` is
/// `Some((i, hash))`: the packed table is copied with that one 32-byte slot
/// replaced, inserted, or — for [`Hash256::ZERO`] — left out.
fn write_branch(out: &mut Vec<u8>, b: Branch<'_>, set: Option<(usize, Hash256)>) {
    out.push(TAG_BRANCH);
    match set {
        None => {
            out.extend_from_slice(&b.bitmap.to_be_bytes());
            out.extend_from_slice(b.children);
        }
        Some((i, hash)) => {
            let bit = 1u16 << i;
            let at = packed_offset(b.bitmap, i);
            let after = if b.bitmap & bit == 0 { at } else { at + 32 };
            let bitmap = if hash.is_zero() { b.bitmap & !bit } else { b.bitmap | bit };
            out.extend_from_slice(&bitmap.to_be_bytes());
            out.extend_from_slice(&b.children[..at]);
            if !hash.is_zero() {
                out.extend_from_slice(&hash.0);
            }
            out.extend_from_slice(&b.children[after..]);
        }
    }
    match b.value {
        Some(v) => {
            out.push(1);
            write_prefixed(out, v);
        }
        None => out.push(0),
    }
}

/// A node's encoding as an owned buffer (the rare `remove` paths, whose
/// replacement nodes travel up the recursion before they are stored).
fn encoded(write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    write(&mut out);
    out
}

fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// What the old subtree contributes to the branch where a new key forks
/// off it: a child in a slot, or — when the old key ends at the fork — the
/// branch's own value.
enum OldSide<'a> {
    Child(u8, Hash256),
    Value(&'a [u8]),
}

impl<S: KvStore> PatriciaTrie<S> {
    /// Empty trie over `store`.
    pub fn new(store: S) -> Self {
        PatriciaTrie {
            store,
            root: Hash256::ZERO,
            overlay: DigestMap::default(),
            nodes_written: 0,
            nodes_flushed: 0,
            nodes_dropped: 0,
            cache: DigestMap::default(),
            cache_hits: 0,
            cache_misses: 0,
            encode_buf: Vec::new(),
            nibble_buf: Vec::new(),
        }
    }

    /// Current root commitment ([`Hash256::ZERO`] when empty).
    pub fn root(&self) -> Hash256 {
        self.root
    }

    /// Rewind/forward the trie to a historical root (every version's nodes
    /// stay in the store — the basis of `getBalance(account, block)`).
    pub fn set_root(&mut self, root: Hash256) {
        self.root = root;
    }

    /// Borrow the backing store (stats inspection).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutably borrow the backing store.
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Trie nodes written (hashed) since construction.
    pub fn nodes_written(&self) -> u64 {
        self.nodes_written
    }

    /// Overlay nodes persisted across all `commit` calls.
    pub fn nodes_flushed(&self) -> u64 {
        self.nodes_flushed
    }

    /// Overlay nodes discarded across all `commit` calls (garbage interior
    /// roots that never reached storage).
    pub fn nodes_dropped(&self) -> u64 {
        self.nodes_dropped
    }

    /// Uncommitted nodes currently parked in the overlay.
    pub fn pending_nodes(&self) -> usize {
        self.overlay.len()
    }

    /// Node cache `(hits, misses)` since construction.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache_hits, self.cache_misses)
    }

    /// Drop everything that would not survive a power cut: the uncommitted
    /// dirty-node overlay and the node cache. The crash-fault path calls
    /// this so a "crashed" node keeps only what its store persisted; the
    /// root is NOT touched — callers rewind it to a durable root themselves
    /// (the current one may reference overlay-only nodes).
    pub fn drop_volatile(&mut self) {
        self.nodes_dropped += self.overlay.len() as u64;
        self.overlay.clear();
        self.cache.clear();
    }

    /// The node `hash` for an update walk, which goes on to write while it
    /// reads: a hit costs a reference count, not a copy.
    fn load(&mut self, hash: &Hash256) -> Result<Arc<[u8]>, KvError> {
        if let Some(bytes) = self.cache.get(hash) {
            self.cache_hits += 1;
            return Ok(bytes.clone());
        }
        self.load_uncached(hash, true)
    }

    /// The node `hash` after a cache miss, checked. `counted` walks record
    /// the miss and leave the node in the cache; frozen ones leave no trace.
    fn load_uncached(&mut self, hash: &Hash256, counted: bool) -> Result<Arc<[u8]>, KvError> {
        if counted {
            self.cache_misses += 1;
        }
        // Overlay before store: uncommitted nodes exist nowhere else. The
        // reverse order would also be correct (hashes collide only for
        // identical bytes) but would charge the store a read per miss.
        let bytes = match self.overlay.get(hash) {
            Some(bytes) => bytes.clone(),
            None => self
                .store
                .get(&hash.0)?
                .ok_or_else(|| KvError::Corrupt(format!("missing trie node {hash:?}")))?
                .into(),
        };
        View::parse(&bytes)?;
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

    /// Hash and park a new node: one allocation, shared by the overlay and
    /// the cache.
    fn put_bytes(&mut self, encoding: &[u8]) -> Hash256 {
        let hash = Hash256::digest(encoding);
        let bytes: Arc<[u8]> = encoding.into();
        self.overlay.insert(hash, bytes.clone());
        self.nodes_written += 1;
        // A freshly written node is about to be walked again (it sits on
        // the path every subsequent update in this block re-traverses).
        self.cache_insert(hash, bytes);
        hash
    }

    /// [`Self::put_bytes`] of what `write` encodes into the scratch buffer.
    fn put(&mut self, write: impl FnOnce(&mut Vec<u8>)) -> Hash256 {
        let mut buf = std::mem::take(&mut self.encode_buf);
        buf.clear();
        write(&mut buf);
        let hash = self.put_bytes(&buf);
        self.encode_buf = buf;
        hash
    }

    /// Flush the overlay at a block boundary: persist exactly the nodes
    /// reachable from the current root as one atomic [`WriteBatch`], drop
    /// the rest (garbage interior roots from per-tx application). Reachable
    /// traversal only ever descends into overlay nodes — a node already in
    /// the store can't reference an uncommitted one, because a node's hash
    /// covers its children, so new parents are always new nodes.
    ///
    /// On error (a capped in-memory store running out of space) the overlay
    /// is left intact, so the in-memory trie stays fully readable and a
    /// later commit retries the flush.
    pub fn commit(&mut self) -> Result<(), KvError> {
        self.commit_with_extras(Vec::new())
    }

    /// [`Self::commit`] plus caller-supplied raw store operations appended
    /// to the *same* atomic batch. Platforms persist per-block metadata —
    /// the encoded block, a durable head pointer — with exactly the state
    /// nodes that block committed, so a crash can never separate them.
    pub fn commit_with_extras(
        &mut self,
        extras: Vec<(Vec<u8>, Option<Vec<u8>>)>,
    ) -> Result<(), KvError> {
        if self.overlay.is_empty() && extras.is_empty() {
            return Ok(());
        }
        // Deterministic DFS from the committed root; removal from the
        // overlay doubles as the visited set.
        let mut staged: Vec<(Hash256, Arc<[u8]>)> = Vec::new();
        let mut stack = vec![self.root];
        while let Some(h) = stack.pop() {
            let Some(bytes) = self.overlay.remove(&h) else {
                continue; // already committed, or already staged
            };
            match View::parse(&bytes)? {
                View::Leaf { .. } => {}
                View::Ext { child, .. } => stack.push(child),
                View::Branch(b) => {
                    stack.extend(b.children.chunks_exact(32).rev().map(|c| hash_at(c, 0)));
                }
            }
            staged.push((h, bytes));
        }
        let mut batch = WriteBatch::new();
        for (h, bytes) in &staged {
            batch.put(&h.0, bytes);
        }
        for (k, v) in &extras {
            match v {
                Some(v) => batch.put(k, v),
                None => batch.delete(k),
            }
        }
        if let Err(e) = self.store.apply_batch(batch) {
            // Restore the overlay so nothing becomes unreadable; a partial
            // batch in the store is harmless (content-addressed rewrites).
            self.overlay.extend(staged);
            return Err(e);
        }
        self.nodes_flushed += staged.len() as u64;
        self.nodes_dropped += self.overlay.len() as u64;
        self.overlay.clear();
        Ok(())
    }

    /// Fetch the value stored under `key` at the current root.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        self.get_at(self.root, key)
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
    /// goes with that executor (ROADMAP item 14).
    pub fn get_frozen(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        self.read(self.root, key, false)
    }

    /// Fetch the value stored under `key` at a historical `root`.
    pub fn get_at(&mut self, root: Hash256, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        self.read(root, key, true)
    }

    fn read(&mut self, root: Hash256, key: &[u8], counted: bool) -> Result<Option<Vec<u8>>, KvError> {
        if root.is_zero() {
            return Ok(None);
        }
        let nibbles = self.take_nibbles(key);
        let out = self.read_walk(root, &nibbles, counted);
        self.restore_nibbles(nibbles);
        out
    }

    /// The one read walk — the hottest loop in the Ethereum/Parity
    /// platforms. It narrows a slice over one nibble buffer instead of
    /// reallocating the remaining path at every step, and on a cache hit
    /// reads the node where it lies: nothing is copied or reference-counted
    /// but the value it returns.
    fn read_walk(
        &mut self,
        root: Hash256,
        nibbles: &[u8],
        counted: bool,
    ) -> Result<Option<Vec<u8>>, KvError> {
        let mut path: &[u8] = nibbles;
        let mut at = root;
        loop {
            let fetched;
            let bytes: &[u8] = match self.cache.get(&at) {
                Some(bytes) => {
                    self.cache_hits += counted as u64;
                    bytes
                }
                None => {
                    fetched = self.load_uncached(&at, counted)?;
                    &fetched
                }
            };
            match View::parse(bytes)? {
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
                    if next.is_zero() {
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

    fn insert_at(&mut self, at: Hash256, path: &[u8], value: &[u8]) -> Result<Hash256, KvError> {
        if at.is_zero() {
            return Ok(self.put(|out| write_leaf(out, path, value)));
        }
        let node = self.load(&at)?;
        Ok(match View::parse(&node)? {
            View::Leaf { path: p, value: old } => {
                if p == path {
                    return Ok(self.put(|out| write_leaf(out, path, value)));
                }
                let cp = common_prefix_len(p, path);
                let old_side = match p[cp..].split_first() {
                    None => OldSide::Value(old),
                    Some((&slot, rest)) => {
                        OldSide::Child(slot, self.put(|out| write_leaf(out, rest, old)))
                    }
                };
                self.put_fork(&path[..cp], old_side, &path[cp..], value)
            }
            View::Ext { path: p, child } => {
                let cp = common_prefix_len(p, path);
                match p[cp..].split_first() {
                    None => {
                        let new_child = self.insert_at(child, &path[cp..], value)?;
                        self.put(|out| write_ext(out, p, &new_child))
                    }
                    // Split the extension at the divergence point; what is
                    // left of its path stays above the old child.
                    Some((&slot, rest)) => {
                        let below = if rest.is_empty() {
                            child
                        } else {
                            self.put(|out| write_ext(out, rest, &child))
                        };
                        self.put_fork(&path[..cp], OldSide::Child(slot, below), &path[cp..], value)
                    }
                }
            }
            View::Branch(b) => match path.split_first() {
                None => self.put(|out| write_branch(out, Branch { value: Some(value), ..b }, None)),
                Some((&slot, rest)) => {
                    let slot = slot as usize;
                    let new_child = self.insert_at(b.child(slot), rest, value)?;
                    self.put(|out| write_branch(out, b, Some((slot, new_child))))
                }
            },
        })
    }

    /// Store the branch separating an old subtree — already stored, old
    /// side before new side — from the new key's remainder `new_rest`
    /// (empty: the value lands on the branch itself), under an extension
    /// for their common `prefix` if they have one. Returns the top node.
    fn put_fork(
        &mut self,
        prefix: &[u8],
        old: OldSide<'_>,
        new_rest: &[u8],
        value: &[u8],
    ) -> Hash256 {
        let old = match &old {
            OldSide::Child(slot, hash) => Branch { bitmap: 1 << slot, children: &hash.0, value: None },
            OldSide::Value(v) => Branch { bitmap: 0, children: &[], value: Some(v) },
        };
        debug_assert!(old.value.is_none() || !new_rest.is_empty(), "two keys, one path");
        let branch = match new_rest.split_first() {
            None => self.put(|out| write_branch(out, Branch { value: Some(value), ..old }, None)),
            Some((&slot, rest)) => {
                debug_assert!(old.child(slot as usize).is_zero(), "fork sides share a slot");
                let leaf = self.put(|out| write_leaf(out, rest, value));
                self.put(|out| write_branch(out, old, Some((slot as usize, leaf))))
            }
        };
        if prefix.is_empty() {
            branch
        } else {
            self.put(|out| write_ext(out, prefix, &branch))
        }
    }

    /// Remove `key` if present, producing a new root. Removing an absent
    /// key leaves the root unchanged.
    pub fn remove(&mut self, key: &[u8]) -> Result<(), KvError> {
        let root = self.root;
        if root.is_zero() {
            return Ok(());
        }
        let path = self.take_nibbles(key);
        let result = self.remove_at(root, &path);
        self.restore_nibbles(path);
        match result? {
            RemoveResult::Unchanged => {}
            RemoveResult::Gone => self.root = Hash256::ZERO,
            RemoveResult::Replaced(node) => self.root = self.put_bytes(&node),
        }
        Ok(())
    }

    fn remove_at(&mut self, at: Hash256, path: &[u8]) -> Result<RemoveResult, KvError> {
        let node = self.load(&at)?;
        match View::parse(&node)? {
            View::Leaf { path: p, .. } => {
                Ok(if p == path { RemoveResult::Gone } else { RemoveResult::Unchanged })
            }
            View::Ext { path: p, child } => {
                if !path.starts_with(p) {
                    return Ok(RemoveResult::Unchanged);
                }
                Ok(match self.remove_at(child, &path[p.len()..])? {
                    RemoveResult::Replaced(below) => {
                        RemoveResult::Replaced(self.graft_ext(p, &below)?)
                    }
                    unchanged_or_gone => unchanged_or_gone,
                })
            }
            View::Branch(b) => {
                let Some((&slot, rest)) = path.split_first() else {
                    if b.value.is_none() {
                        return Ok(RemoveResult::Unchanged);
                    }
                    return self.normalise_branch(b, None, None);
                };
                let slot = slot as usize;
                if b.child(slot).is_zero() {
                    return Ok(RemoveResult::Unchanged);
                }
                match self.remove_at(b.child(slot), rest)? {
                    RemoveResult::Unchanged => Ok(RemoveResult::Unchanged),
                    RemoveResult::Gone => self.normalise_branch(b, Some(slot), b.value),
                    RemoveResult::Replaced(below) => {
                        let set = Some((slot, self.put_bytes(&below)));
                        Ok(RemoveResult::Replaced(encoded(|out| write_branch(out, b, set))))
                    }
                }
            }
        }
    }

    /// Merge an extension's path onto its (possibly restructured) child.
    fn graft_ext(&mut self, prefix: &[u8], child: &[u8]) -> Result<Vec<u8>, KvError> {
        Ok(match View::parse(child)? {
            View::Leaf { path, value } => {
                encoded(|out| write_leaf(out, &[prefix, path].concat(), value))
            }
            View::Ext { path, child } => {
                encoded(|out| write_ext(out, &[prefix, path].concat(), &child))
            }
            View::Branch(_) => {
                let h = self.put_bytes(child);
                encoded(|out| write_ext(out, prefix, &h))
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
                let child = self.load(&b.child(only))?;
                self.graft_ext(&[only as u8], &child)?
            }
            _ => {
                let set = gone.map(|slot| (slot, Hash256::ZERO));
                encoded(|out| write_branch(out, Branch { value, ..b }, set))
            }
        }))
    }

    /// All `(key, value)` pairs reachable from the current root, in key
    /// order (test/diagnostic path; keys must have come from whole bytes).
    pub fn collect_all(&mut self) -> Result<KvPairs, KvError> {
        let mut out = Vec::new();
        let root = self.root;
        if !root.is_zero() {
            self.collect(root, Vec::new(), &mut out)?;
        }
        Ok(out)
    }

    fn collect(
        &mut self,
        at: Hash256,
        prefix: Vec<u8>,
        out: &mut Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<(), KvError> {
        fn from_nibbles(nibbles: &[u8]) -> Vec<u8> {
            nibbles.chunks(2).map(|c| (c[0] << 4) | c.get(1).copied().unwrap_or(0)).collect()
        }
        let node = self.load(&at)?;
        match View::parse(&node)? {
            View::Leaf { path, value } => {
                out.push((from_nibbles(&[&prefix[..], path].concat()), value.to_vec()));
            }
            View::Ext { path, child } => {
                self.collect(child, [&prefix[..], path].concat(), out)?;
            }
            View::Branch(b) => {
                if let Some(v) = b.value {
                    out.push((from_nibbles(&prefix), v.to_vec()));
                }
                for slot in (0..16).filter(|slot| b.bitmap >> slot & 1 != 0) {
                    let mut full = prefix.clone();
                    full.push(slot as u8);
                    self.collect(b.child(slot), full, out)?;
                }
            }
        }
        Ok(())
    }
}

enum RemoveResult {
    /// Key absent; nothing changed.
    Unchanged,
    /// The subtree vanished entirely.
    Gone,
    /// The subtree was rebuilt as this node's encoding (not yet stored).
    Replaced(Vec<u8>),
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
        match (View::parse(bytes).expect("a written node parses"), &node) {
            (View::Leaf { path, value }, Node::Leaf { path: p, value: v }) => {
                assert_eq!((path, value), (&p[..], &v[..]));
            }
            (View::Ext { path, child }, Node::Ext { path: p, child: c }) => {
                assert_eq!((path, child), (&p[..], *c));
            }
            (View::Branch(b), Node::Branch { children, value }) => {
                for (slot, child) in children.iter().enumerate() {
                    assert_eq!(b.child(slot), *child, "slot {slot}");
                }
                assert_eq!(b.value, value.as_deref());
            }
            _ => panic!("view and reference disagree on the kind of {node:?}"),
        }
    }

    pub(super) fn check_overlay(t: &PatriciaTrie<MemStore>) {
        t.overlay.values().for_each(|bytes| check(bytes));
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
    fn decoded_node_cache_serves_repeat_walks() {
        let mut t = trie();
        for i in 0..100u32 {
            t.insert(format!("key{i:04}").as_bytes(), b"x").unwrap();
        }
        let (_, misses_after_insert) = t.cache_stats();
        // Every node on every path was just written (and cached), so a full
        // re-read adds hits but no misses.
        for i in 0..100u32 {
            assert_eq!(t.get(format!("key{i:04}").as_bytes()).unwrap(), Some(b"x".to_vec()));
        }
        let (hits, misses) = t.cache_stats();
        assert_eq!(misses, misses_after_insert, "re-walks must not miss");
        assert!(hits > 100, "hits: {hits}");
        // And the cache must not change what a walk observes.
        assert_eq!(t.get(b"absent").unwrap(), None);
    }

    #[test]
    fn cached_and_cold_walks_agree() {
        // Dropping the cache mid-life must not change what walks observe —
        // overlay + store together are authoritative, including for
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
        assert!(misses > 0, "cold walks must repopulate through overlay/store");
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
        // <= not ==: identical-content nodes (same hash) dedupe in the
        // overlay, while the eager path would have store-put each of them.
        assert!(t.nodes_flushed() + t.nodes_dropped() <= eager_puts);
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
        // readable from the overlay, and a later commit (after the cap is
        // no longer exceeded — here: never) keeps failing identically.
        let mut t = PatriciaTrie::new(MemStore::with_capacity_cap(256));
        for i in 0..16u32 {
            t.insert(format!("key{i:02}").as_bytes(), &[7u8; 32]).unwrap();
        }
        let pending = t.pending_nodes();
        let err = t.commit().unwrap_err();
        assert!(matches!(err, KvError::OutOfSpace { .. }));
        assert_eq!(t.pending_nodes(), pending, "failed commit must restore the overlay");
        assert_eq!(t.nodes_flushed(), 0);
        t.cache.clear(); // force reads through the overlay, not the cache
        for i in 0..16u32 {
            assert_eq!(
                t.get(format!("key{i:02}").as_bytes()).unwrap(),
                Some(vec![7u8; 32]),
                "overlay must keep serving reads after a failed commit"
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
        let is_corrupt = |bytes: &[u8]| matches!(View::parse(bytes), Err(KvError::Corrupt(_)));
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
                    victim = match View::parse(&stored(&mut t, victim)).unwrap() {
                        View::Ext { child, .. } => child,
                        View::Branch(b) => b.child(1),
                        View::Leaf { .. } => panic!("walked past the leaves"),
                    };
                }
                let mut bytes = stored(&mut t, victim);
                damage(&mut bytes);
                t.store_mut().put(&victim.0, &bytes).unwrap();
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
        frozen_pass(&mut t, "cache");
        t.cache.clear();
        frozen_pass(&mut t, "overlay");
        assert_eq!(t.store().stats().reads, 0, "overlay before store");
        t.commit().unwrap();
        t.cache.clear();
        frozen_pass(&mut t, "store");
        assert!(t.store().stats().reads > 0);
        assert!(t.cache.is_empty());
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
                reference::check_overlay(&t);
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

    /// Overlay-commit ≡ eager writes: a trie committing at randomized block
    /// boundaries must produce the identical root and identical `get` /
    /// `get_at` answers as a reference trie that commits after every single
    /// operation (the closest expressible analogue of the old eager path,
    /// where every `put_node` hit the store immediately).
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
                reference::check_overlay(&batched);
                reference::check_overlay(&eager);
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
        fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError> {
            self.inner.put(key, value)
        }
        fn delete(&mut self, key: &[u8]) -> Result<(), KvError> {
            self.inner.delete(key)
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

    fn pin(t: &PatriciaTrie<TapeStore>) -> Pin {
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
        let loaded = pin(&t);
        for _ in 0..10 {
            for k in keys {
                assert_eq!(t.get(k).unwrap().as_deref(), Some(&b"value-bytes-here"[..]));
            }
        }
        let read = pin(&t);
        for k in keys {
            t.insert(k, b"another-value-16").unwrap();
        }
        t.commit().unwrap();
        [loaded, read, pin(&t)]
    }

    #[test]
    fn sequential_keys_that_fit_the_cache() {
        let keys: Vec<Vec<u8>> = (0..20_000u64).map(|i| i.to_be_bytes().to_vec()).collect();
        let pins = load_read_overwrite(&keys);
        let want = [
            expect(
                "0b37b21f85a1e37d06543d67d4a5ee6b43af2238240207fea086090f7366644d",
                (94_153, 0),
                [115_489, 1_810, 79_079],
                0,
                [457_054, 1_810, 313],
                "d7497ebec6d716fe48e2bdb7342ae82748684d4bbf6148efb966a5ea64771ea5",
            ),
            expect(
                "0b37b21f85a1e37d06543d67d4a5ee6b43af2238240207fea086090f7366644d",
                (1_294_153, 0),
                [115_489, 1_810, 79_079],
                0,
                [457_054, 1_810, 313],
                "d7497ebec6d716fe48e2bdb7342ae82748684d4bbf6148efb966a5ea64771ea5",
            ),
            expect(
                "e3eda1c1cc426ed20719892937b4918f52f047dca193d88c24d7a7113dbbae0c",
                (1_414_153, 0),
                [235_489, 1_818, 127_088],
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

    /// A trie cloned mid-script — mid-block, overlay and cache populated, the
    /// cache-cap crossings still ahead — is a twin: original and copy each
    /// finish the script on the pins of the run that never forked.
    #[test]
    fn fork_in_the_middle_lands_both_sides_on_the_known_answers() {
        let keys = hashed_keys();
        let mut original = PatriciaTrie::new(TapeStore::over(MemStore::new()));
        let half = keys.len() / 2;
        load(&mut original, &keys[..half], 0);
        assert!(original.pending_nodes() > 0 && original.cache_stats().1 > 0);
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
                (235_752, 21_073),
                [338_283, 226_808, 111_475],
                0,
                [59_475_218, 226_808, 938],
                "68c8da4e4c1063435360a0ec5cb8180aa5f62b23018ee7fdce9da71a08a34a03",
            ),
            expect(
                "cc90f69667245783cc1221184ee56b0eb5c5b738b603b129185f7471b1060ece",
                (3_516_334, 136_391),
                [338_283, 226_808, 111_475],
                0,
                [59_475_218, 226_808, 938],
                "68c8da4e4c1063435360a0ec5cb8180aa5f62b23018ee7fdce9da71a08a34a03",
            ),
            expect(
                "020684445b18a1b83c023fdc90845ae6331c50e274b54192921bab3b463f33c8",
                (3_764_617, 227_698),
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
        pins.push(pin(&t));

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
        pins.push(pin(&t));
        t.drop_volatile();
        t.set_root(sealed);
        for i in 0..40 {
            assert_eq!(t.get(&key(i)).unwrap(), Some(format!("balance-of-account-{i:03}").into_bytes()));
        }
        assert_eq!(t.get(&key(40)).unwrap(), None);
        pins.push(pin(&t));

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
        pins.push(pin(&t));

        // A block too big for the store: the commit is refused, the overlay
        // keeps serving it, and the retry goes through once it has shrunk.
        for i in 100..140 {
            t.insert(&key(i), &[i as u8; 600]).unwrap();
        }
        assert!(matches!(t.commit().unwrap_err(), KvError::OutOfSpace { .. }));
        t.cache.clear();
        assert_eq!(t.get(&key(139)).unwrap(), Some(vec![139u8; 600]));
        pins.push(pin(&t));
        for i in 100..140 {
            t.remove(&key(i)).unwrap();
        }
        assert_eq!(t.root(), thinned);
        t.commit().unwrap();
        pins.push(pin(&t));
        let want = [
            expect(
                "9309adf71beb674023461461ffabf53146ac38d28694b5425846f0e66b7c84ac",
                (130, 0),
                [183, 53, 130],
                0,
                [4_734, 53, 1],
                "d563d0bc0cda0ba170f75bc252c7fd31a6574bd36ba6f92095300a468a041cad",
            ),
            expect(
                "520a51ba843a31ba8bcae61a368ec14681c1f266272ea7a13f1ecabfeb447f8a",
                (278, 0),
                [314, 53, 130],
                123,
                [4_734, 53, 1],
                "d563d0bc0cda0ba170f75bc252c7fd31a6574bd36ba6f92095300a468a041cad",
            ),
            expect(
                "9309adf71beb674023461461ffabf53146ac38d28694b5425846f0e66b7c84ac",
                (550, 53),
                [314, 53, 253],
                0,
                [4_734, 53, 1],
                "d563d0bc0cda0ba170f75bc252c7fd31a6574bd36ba6f92095300a468a041cad",
            ),
            expect(
                "272e8aa1f5e45f0815642436ce43d47ac2500ee85d2a8bb95cc8c03c3ec68ab7",
                (717, 53),
                [413, 65, 340],
                0,
                [6_402, 65, 2],
                "bb146de66f6eaf27fb5ca502ca5f6da58e4c0be2c4986c260c95bd6d22022426",
            ),
            expect(
                "908ee5466b6493d0c690cf4e1aefff058b52bf9093222a4a8c8f4526c099423d",
                (964, 61),
                [711, 65, 340],
                298,
                [34_327, 116, 3],
                "19f0b28b18f9aa195db50f7a9de79698c2b6223b0327afd07021900636af6aaf",
            ),
            expect(
                "272e8aa1f5e45f0815642436ce43d47ac2500ee85d2a8bb95cc8c03c3ec68ab7",
                (1_216, 107),
                [958, 68, 882],
                0,
                [34_575, 119, 4],
                "79cdfbb7866ab9b569998f5a9685737ce6f23b5488b3e63e9acd155b77518637",
            ),
        ];
        assert_eq!(pins, want);
    }
}
