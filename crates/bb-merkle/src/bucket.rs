//! The Bucket-Merkle tree — Hyperledger Fabric v0.6's state authentication.
//!
//! "Hyperledger implements \[a\] Bucket-Merkle tree which uses a hash function
//! to group states into a list of buckets from which a Merkle tree is built"
//! (Section 3.1.2). Keys hash into a fixed number of buckets; each bucket
//! carries a commutative fold (XOR of entry hashes) that updates in O(1) per
//! write; the root is a binary Merkle tree over the bucket digests.
//!
//! The root is maintained incrementally, as v0.6's bucket tree does: the
//! tree keeps its internal Merkle levels, and [`BucketTree::root`] re-hashes
//! only the ancestors of the buckets written since the previous root — a
//! block's delta — with [`merkle_root`]'s rule, so every root is
//! bit-identical to a full rebuild over the bucket digests.
//!
//! The commutative fold is a simplification of Fabric's sorted-concatenation
//! bucket hash: it keeps the crucial benchmark property — one flat KV write
//! per state update, no per-update tree rebuild — which is why Fabric's
//! IOHeavy disk usage is an order of magnitude below the trie platforms
//! (Figure 12c). DESIGN.md records the substitution.

use crate::merkle::merkle_root;
use bb_crypto::Hash256;
use bb_storage::{FrameSlot, IntoShared, KvError, KvOps, KvPairs, KvStore, WriteBatch};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

const STATE_PREFIX: &[u8] = b"s:";

fn entry_digest(key: &[u8], value: &[u8]) -> Hash256 {
    Hash256::digest_parts(&[b"bucket-entry", &(key.len() as u32).to_be_bytes(), key, value])
}

fn xor_into(acc: &mut Hash256, h: &Hash256) {
    for (a, b) in acc.0.iter_mut().zip(h.0.iter()) {
        *a ^= b;
    }
}

/// Node `i` of the level above `below`, by [`merkle_root`]'s rule: children
/// `2i` and `2i + 1`, an odd tail paired with itself.
fn parent(below: &[Hash256], i: usize) -> Hash256 {
    let left = &below[2 * i];
    Hash256::combine(left, below.get(2 * i + 1).unwrap_or(left))
}

/// Every internal level over `buckets`, bottom-up; the last holds the root.
/// Empty for a single bucket, which is its own root.
fn build_levels(buckets: &[Hash256]) -> Vec<Vec<Hash256>> {
    let mut levels: Vec<Vec<Hash256>> = Vec::new();
    let mut width = buckets.len();
    while width > 1 {
        let below = levels.last().map_or(buckets, Vec::as_slice);
        let level: Vec<Hash256> = (0..width.div_ceil(2)).map(|i| parent(below, i)).collect();
        width = level.len();
        levels.push(level);
    }
    levels
}

/// What one block's writes did to a [`BucketTree`]: its pending overlay,
/// the new digests of the buckets it wrote, the entry count it left, the
/// same-key overwrites its overlay absorbed and — when the tree's root was
/// taken after the writes — the Merkle level nodes above those buckets.
/// Taken by [`BucketTree::block_delta`] from a tree that ran the writes,
/// installed by [`BucketTree::install_block_delta`] on an equal tree that
/// did not, it leaves both trees equal — roots, counts, overlay and, after
/// the seal, store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockDelta {
    pending: Overlay,
    buckets: Vec<(usize, Hash256)>,
    /// Per internal level, bottom-up, the `(index, node)` of every ancestor
    /// of `buckets`; empty when the tree's levels were not current.
    levels: Vec<Vec<(usize, Hash256)>>,
    entries: u64,
    superseded: u64,
}

/// A tree's pending overlay: full store key to `Some` value (a put) or
/// `None` (a delete), as shared bytes.
type Overlay = BTreeMap<Arc<[u8]>, Option<Arc<[u8]>>>;

/// Authenticated state store: flat key-value data plus bucket digests.
///
/// Writes are block-scoped: `put`/`delete` update the bucket digests (and
/// `entries`) eagerly in memory but park the value in a pending overlay;
/// [`BucketTree::commit`] at block-seal time drains the overlay into one
/// atomic [`WriteBatch`]. A key overwritten several times inside a block
/// reaches storage once, with its final value.
///
/// `Clone` is a second tree over a second store: digests, their Merkle
/// levels, the buckets written since the last root, entry count, the
/// pending overlay and the flush counters travel.
#[derive(Clone)]
pub struct BucketTree<S: KvStore> {
    store: S,
    bucket_hashes: Vec<Hash256>,
    /// Internal Merkle levels over `bucket_hashes` (see [`build_levels`]),
    /// current as of the last [`Self::root`] but for the buckets in
    /// `dirty`. Empty until the next root builds them in full: after
    /// `new`/`rebuild`, or once `dirty` fills (see [`Self::touch`]).
    levels: Vec<Vec<Hash256>>,
    /// Buckets `put`/`delete` changed since the last root, repeats allowed;
    /// never more entries than buckets, and none while `levels` is empty.
    dirty: Vec<usize>,
    entries: u64,
    /// Uncommitted state by full store key: `Some` = pending put, `None` =
    /// pending delete. BTreeMap so commit order is deterministic. Shared
    /// bytes: a block delta, an installing tree and the seal's batch hold
    /// these allocations, not copies.
    pending: Overlay,
    /// Values persisted by `commit` calls.
    values_flushed: u64,
    /// Same-key overwrites absorbed by the overlay before reaching storage.
    values_superseded: u64,
    /// `values_superseded` as of the last commit that emptied the overlay:
    /// the overwrites since are the open block's.
    superseded_at_seal: u64,
}

impl<S: KvStore> BucketTree<S> {
    /// New tree with `nbuckets` buckets over `store`.
    pub fn new(store: S, nbuckets: usize) -> Self {
        assert!(nbuckets > 0, "need at least one bucket");
        BucketTree {
            store,
            bucket_hashes: vec![Hash256::ZERO; nbuckets],
            levels: Vec::new(),
            dirty: Vec::new(),
            entries: 0,
            pending: BTreeMap::new(),
            values_flushed: 0,
            values_superseded: 0,
            superseded_at_seal: 0,
        }
    }

    /// Reconstruct a tree over a store that already holds committed state
    /// (the restart path): bucket digests and the entry count come from one
    /// scan of the state prefix, so the rebuilt root equals the root as of
    /// the store's last durable commit. Nothing is written.
    pub fn rebuild(mut store: S, nbuckets: usize) -> Result<Self, KvError> {
        assert!(nbuckets > 0, "need at least one bucket");
        let mut bucket_hashes = vec![Hash256::ZERO; nbuckets];
        let mut entries = 0;
        for (skey, value) in store.scan_prefix(STATE_PREFIX)? {
            let key = &skey[STATE_PREFIX.len()..];
            let bucket = (Hash256::digest_parts(&[b"bucket-assign", key]).to_u64()
                % nbuckets as u64) as usize;
            xor_into(&mut bucket_hashes[bucket], &entry_digest(key, &value));
            entries += 1;
        }
        Ok(BucketTree {
            store,
            bucket_hashes,
            levels: Vec::new(),
            dirty: Vec::new(),
            entries,
            pending: BTreeMap::new(),
            values_flushed: 0,
            values_superseded: 0,
            superseded_at_seal: 0,
        })
    }

    fn bucket_of(&self, key: &[u8]) -> usize {
        (Hash256::digest_parts(&[b"bucket-assign", key]).to_u64() % self.bucket_hashes.len() as u64)
            as usize
    }

    fn state_key(key: &[u8]) -> Arc<[u8]> {
        STATE_PREFIX.iter().chain(key).copied().collect()
    }

    /// Look up the live value for a full store key: overlay first, then the
    /// store.
    fn get_skey(&mut self, skey: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        if let Some(pending) = self.pending.get(skey) {
            return Ok(pending.as_deref().map(<[u8]>::to_vec));
        }
        self.store.get(skey)
    }

    /// Read a state value.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        self.get_skey(&Self::state_key(key))
    }

    /// Write a state value, updating the owning bucket digest in O(1). The
    /// value lands in the pending overlay until [`Self::commit`]: an `Arc`
    /// as it is, borrowed bytes copied once.
    pub fn put(&mut self, key: &[u8], value: impl IntoShared) -> Result<(), KvError> {
        let value = value.into_shared();
        let skey = Self::state_key(key);
        let bucket = self.bucket_of(key);
        let old = self.get_skey(&skey)?;
        let digest = entry_digest(key, &value);
        if self.pending.insert(skey, Some(value)).is_some() {
            self.values_superseded += 1;
        }
        if let Some(old) = &old {
            xor_into(&mut self.bucket_hashes[bucket], &entry_digest(key, old));
        } else {
            self.entries += 1;
        }
        xor_into(&mut self.bucket_hashes[bucket], &digest);
        self.touch(bucket);
        Ok(())
    }

    /// Note that `bucket`'s digest changed. Once `dirty` holds as many
    /// entries as there are buckets, a full rebuild costs no more than the
    /// walk: the levels are dropped for the next root to rebuild, which also
    /// bounds `dirty` on a tree whose root is never read (Fabric's
    /// `execute_direct` seals without a header).
    fn touch(&mut self, bucket: usize) {
        if self.dirty.len() == self.bucket_hashes.len() {
            self.levels.clear();
            self.dirty.clear();
        }
        if !self.levels.is_empty() {
            self.dirty.push(bucket);
        }
    }

    /// Delete a state value.
    pub fn delete(&mut self, key: &[u8]) -> Result<(), KvError> {
        let skey = Self::state_key(key);
        if let Some(old) = self.get_skey(&skey)? {
            let bucket = self.bucket_of(key);
            xor_into(&mut self.bucket_hashes[bucket], &entry_digest(key, &old));
            self.touch(bucket);
            if self.pending.insert(skey, None).is_some() {
                self.values_superseded += 1;
            }
            self.entries -= 1;
        }
        Ok(())
    }

    /// Flush the pending overlay at a block boundary as one atomic
    /// [`WriteBatch`]. On error the overlay is left intact (reads keep
    /// working) and a later commit retries.
    pub fn commit(&mut self) -> Result<(), KvError> {
        self.commit_with_extras(Vec::new(), None)
    }

    /// [`Self::commit`] plus caller-supplied raw store operations appended
    /// to the *same* atomic batch — per-block durable metadata (encoded
    /// block, head pointer) commits or vanishes with its state. Extras
    /// bypass the bucket digests, so they must live outside the state
    /// namespace. The batch holds the overlay's and the extras'
    /// allocations themselves, and shares `frame`, where given, with the
    /// byte-equal batches of the caller's twins.
    pub fn commit_with_extras(
        &mut self,
        extras: KvOps,
        frame: Option<FrameSlot>,
    ) -> Result<(), KvError> {
        if self.pending.is_empty() && extras.is_empty() {
            return Ok(());
        }
        let mut batch = WriteBatch::new();
        if let Some(frame) = frame {
            batch.share_frame(frame);
        }
        for (skey, value) in &self.pending {
            match value {
                Some(v) => batch.put(Arc::clone(skey), Arc::clone(v)),
                None => batch.delete(Arc::clone(skey)),
            }
        }
        let n = batch.len() as u64;
        for (k, v) in extras {
            match v {
                Some(v) => batch.put(k, v),
                None => batch.delete(k),
            }
        }
        self.store.apply_batch(batch)?;
        self.values_flushed += n;
        self.pending.clear();
        self.superseded_at_seal = self.values_superseded;
        Ok(())
    }

    /// Are the Merkle levels built and current with every bucket?
    fn levels_clean(&self) -> bool {
        !self.levels.is_empty() && self.dirty.is_empty()
    }

    /// What the writes since the last commit did: the open block's
    /// [`BlockDelta`], for an equal tree to install instead of running them.
    /// Taken after a [`Self::root`] that followed the writes, it carries
    /// the level nodes they rewrote.
    pub fn block_delta(&self) -> BlockDelta {
        let mut written: Vec<usize> = self
            .pending
            .keys()
            .map(|skey| self.bucket_of(&skey[STATE_PREFIX.len()..]))
            .collect();
        written.sort_unstable();
        written.dedup();
        let mut levels = Vec::new();
        if self.levels_clean() {
            let mut above = written.clone();
            for level in &self.levels {
                for i in &mut above {
                    *i /= 2;
                }
                above.dedup();
                levels.push(above.iter().map(|&i| (i, level[i])).collect());
            }
        }
        BlockDelta {
            pending: self.pending.clone(),
            buckets: written.into_iter().map(|b| (b, self.bucket_hashes[b])).collect(),
            levels,
            entries: self.entries,
            superseded: self.values_superseded - self.superseded_at_seal,
        }
    }

    /// Apply a block's writes as their [`BlockDelta`]: this tree, sealed
    /// and equal to the one the delta was taken from as of that block's
    /// start, ends where running the writes would have left it. Nothing
    /// reads the store. When the delta carries its level nodes and this
    /// tree's levels are built and clean, the nodes are written in place
    /// and the next root hashes nothing; otherwise the written buckets are
    /// marked for the next root to re-hash.
    pub fn install_block_delta(&mut self, delta: &BlockDelta) {
        assert!(self.pending.is_empty(), "a block delta installs on a sealed tree only");
        let in_place = !delta.levels.is_empty() && self.levels_clean();
        for &(bucket, digest) in &delta.buckets {
            self.bucket_hashes[bucket] = digest;
            if !in_place {
                self.touch(bucket);
            }
        }
        if in_place {
            debug_assert_eq!(delta.levels.len(), self.levels.len(), "equal trees have equal levels");
            for (level, nodes) in self.levels.iter_mut().zip(&delta.levels) {
                for &(i, node) in nodes {
                    level[i] = node;
                }
            }
        }
        self.entries = delta.entries;
        self.pending = delta.pending.clone();
        self.values_superseded += delta.superseded;
    }

    /// Values persisted across all `commit` calls.
    pub fn values_flushed(&self) -> u64 {
        self.values_flushed
    }

    /// Same-key overwrites absorbed by the overlay (writes that never
    /// reached storage).
    pub fn values_superseded(&self) -> u64 {
        self.values_superseded
    }

    /// Uncommitted values currently parked in the overlay.
    pub fn pending_values(&self) -> usize {
        self.pending.len()
    }

    /// All live states under `prefix`, in key order (overlay merged over
    /// the store, pending deletes filtered out).
    pub fn scan_prefix(&mut self, prefix: &[u8]) -> Result<KvPairs, KvError> {
        let sprefix = Self::state_key(prefix);
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = self
            .store
            .scan_prefix(&sprefix)?
            .into_iter()
            .map(|(k, v)| (k, Some(v)))
            .collect();
        for (k, v) in self.pending.range::<[u8], _>((Bound::Included(&*sprefix), Bound::Unbounded)) {
            if !k.starts_with(&sprefix) {
                break;
            }
            merged.insert(k.to_vec(), v.as_deref().map(<[u8]>::to_vec));
        }
        Ok(merged
            .into_iter()
            .filter_map(|(k, v)| v.map(|v| (k[STATE_PREFIX.len()..].to_vec(), v)))
            .collect())
    }

    /// Root commitment over all buckets ([`Hash256::ZERO`] with no live
    /// state, which hashes nothing). Re-hashes only the ancestors of the
    /// buckets changed since the last root, one level at a time.
    pub fn root(&mut self) -> Hash256 {
        if self.entries == 0 {
            return Hash256::ZERO;
        }
        if self.levels.is_empty() {
            self.levels = build_levels(&self.bucket_hashes);
        }
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable();
        for k in 0..self.levels.len() {
            let (done, up) = self.levels.split_at_mut(k);
            let below = done.last().map_or(&self.bucket_hashes[..], Vec::as_slice);
            for i in &mut dirty {
                *i /= 2;
            }
            dirty.dedup();
            for &i in &dirty {
                up[0][i] = parent(below, i);
            }
        }
        dirty.clear();
        self.dirty = dirty; // keep the allocation for the next block
        let root = self.levels.last().map_or(self.bucket_hashes[0], |top| top[0]);
        debug_assert_eq!(root, merkle_root(&self.bucket_hashes));
        root
    }

    /// Live state count.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// No live states?
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Borrow the backing store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutably borrow the backing store.
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.bucket_hashes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_storage::MemStore;

    fn tree() -> BucketTree<MemStore> {
        BucketTree::new(MemStore::new(), 64)
    }

    #[test]
    fn empty_root_is_zero() {
        let mut t = tree();
        assert_eq!(t.root(), Hash256::ZERO);
        assert!(t.is_empty());
    }

    #[test]
    fn put_get_delete() {
        let mut t = tree();
        t.put(b"alice", b"100").unwrap();
        assert_eq!(t.get(b"alice").unwrap(), Some(b"100".to_vec()));
        assert_eq!(t.len(), 1);
        t.put(b"alice", b"150").unwrap();
        assert_eq!(t.get(b"alice").unwrap(), Some(b"150".to_vec()));
        assert_eq!(t.len(), 1);
        t.delete(b"alice").unwrap();
        assert_eq!(t.get(b"alice").unwrap(), None);
        assert_eq!(t.root(), Hash256::ZERO);
    }

    #[test]
    fn root_changes_with_any_update() {
        let mut t = tree();
        t.put(b"a", b"1").unwrap();
        let r1 = t.root();
        t.put(b"b", b"2").unwrap();
        let r2 = t.root();
        t.put(b"a", b"9").unwrap();
        let r3 = t.root();
        assert_ne!(r1, r2);
        assert_ne!(r2, r3);
        assert_ne!(r1, r3);
    }

    #[test]
    fn root_is_order_independent() {
        let mut t1 = tree();
        let mut t2 = tree();
        let kvs: Vec<(String, String)> =
            (0..100).map(|i| (format!("key{i}"), format!("val{i}"))).collect();
        for (k, v) in &kvs {
            t1.put(k.as_bytes(), v.as_bytes()).unwrap();
        }
        for (k, v) in kvs.iter().rev() {
            t2.put(k.as_bytes(), v.as_bytes()).unwrap();
        }
        assert_eq!(t1.root(), t2.root());
    }

    #[test]
    fn overwrite_then_restore_restores_root() {
        let mut t = tree();
        t.put(b"x", b"original").unwrap();
        t.put(b"y", b"other").unwrap();
        let before = t.root();
        t.put(b"x", b"changed").unwrap();
        assert_ne!(t.root(), before);
        t.put(b"x", b"original").unwrap();
        assert_eq!(t.root(), before);
    }

    #[test]
    fn delete_absent_is_noop() {
        let mut t = tree();
        t.put(b"a", b"1").unwrap();
        let r = t.root();
        t.delete(b"ghost").unwrap();
        assert_eq!(t.root(), r);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn scan_prefix_strips_namespace() {
        let mut t = tree();
        t.put(b"acct:1", b"10").unwrap();
        t.put(b"acct:2", b"20").unwrap();
        t.put(b"dom:x", b"owner").unwrap();
        let hits = t.scan_prefix(b"acct:").unwrap();
        assert_eq!(
            hits,
            vec![
                (b"acct:1".to_vec(), b"10".to_vec()),
                (b"acct:2".to_vec(), b"20".to_vec()),
            ]
        );
    }

    #[test]
    fn single_bucket_still_works() {
        let mut t = BucketTree::new(MemStore::new(), 1);
        t.put(b"a", b"1").unwrap();
        t.put(b"b", b"2").unwrap();
        assert_ne!(t.root(), Hash256::ZERO);
        assert_eq!(t.bucket_count(), 1);
        t.delete(b"a").unwrap();
        t.delete(b"b").unwrap();
        assert_eq!(t.root(), Hash256::ZERO);
    }

    #[test]
    fn one_write_per_update_no_tree_rebuild() {
        let mut t = tree();
        for i in 0..100u32 {
            t.put(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        assert_eq!(t.store().stats().writes, 0, "writes defer to commit");
        t.commit().unwrap();
        // Exactly one storage write per distinct key, applied as a single
        // batch: the flat data model of Figure 12.
        assert_eq!(t.store().stats().writes, 100);
        assert_eq!(t.store().stats().batch_writes, 1);
        assert_eq!(t.values_flushed(), 100);
    }

    #[test]
    fn intra_block_overwrites_reach_storage_once() {
        let mut t = tree();
        for round in 0..5u32 {
            t.put(b"hot", format!("v{round}").as_bytes()).unwrap();
        }
        t.delete(b"cold").unwrap(); // absent: no pending op
        t.commit().unwrap();
        assert_eq!(t.store().stats().writes, 1, "five puts collapse to one");
        assert_eq!(t.values_superseded(), 4);
        assert_eq!(t.get(b"hot").unwrap(), Some(b"v4".to_vec()));
    }

    #[test]
    fn reads_and_scans_see_uncommitted_state() {
        let mut t = tree();
        t.put(b"acct:1", b"old").unwrap();
        t.commit().unwrap();
        t.put(b"acct:1", b"new").unwrap();
        t.put(b"acct:2", b"two").unwrap();
        t.delete(b"acct:1").unwrap();
        // Mid-block view: overlay wins over the store.
        assert_eq!(t.get(b"acct:1").unwrap(), None);
        assert_eq!(
            t.scan_prefix(b"acct:").unwrap(),
            vec![(b"acct:2".to_vec(), b"two".to_vec())]
        );
        t.commit().unwrap();
        assert_eq!(t.get(b"acct:1").unwrap(), None);
        assert_eq!(
            t.scan_prefix(b"acct:").unwrap(),
            vec![(b"acct:2".to_vec(), b"two".to_vec())]
        );
    }

    #[test]
    fn rebuild_recovers_committed_root_and_drops_uncommitted() {
        let mut t = tree();
        t.put(b"alice", b"100").unwrap();
        t.put(b"bob", b"200").unwrap();
        t.commit().unwrap();
        let durable_root = t.root();
        // Uncommitted writes after the last commit are volatile: a rebuild
        // over the same store must not see them.
        t.put(b"carol", b"300").unwrap();
        assert_ne!(t.root(), durable_root);
        let BucketTree { store, .. } = t;
        let mut r = BucketTree::rebuild(store, 64).unwrap();
        assert_eq!(r.root(), durable_root);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(b"alice").unwrap(), Some(b"100".to_vec()));
        assert_eq!(r.get(b"carol").unwrap(), None);
    }

    #[test]
    fn rebuild_of_empty_store_is_empty_tree() {
        let mut r = BucketTree::rebuild(MemStore::new(), 16).unwrap();
        assert_eq!(r.root(), Hash256::ZERO);
        assert!(r.is_empty());
    }

    #[test]
    fn root_is_unaffected_by_commit_timing() {
        let mut batched = tree();
        let mut eager = tree();
        for i in 0..50u32 {
            let k = format!("key{}", i % 17);
            batched.put(k.as_bytes(), &i.to_be_bytes()).unwrap();
            eager.put(k.as_bytes(), &i.to_be_bytes()).unwrap();
            eager.commit().unwrap();
            assert_eq!(batched.root(), eager.root());
            assert_eq!(batched.len(), eager.len());
        }
        batched.commit().unwrap();
        assert_eq!(batched.root(), eager.root());
    }

    /// An installed delta's overlay holds the runner's value allocations,
    /// and the seal's batch takes them from there.
    #[test]
    fn installed_block_delta_shares_the_runners_values() {
        let mut ran = tree();
        let mut installer = tree();
        for t in [&mut ran, &mut installer] {
            t.put(b"gone", b"soon").unwrap();
            t.commit().unwrap();
        }
        let value: Arc<[u8]> = Arc::from(&b"made once"[..]);
        ran.put(b"alice", Arc::clone(&value)).unwrap();
        ran.put(b"bob", b"copied once").unwrap();
        ran.delete(b"gone").unwrap();
        installer.install_block_delta(&ran.block_delta());
        assert_eq!(installer.pending_values(), 3);
        for (skey, v) in &ran.pending {
            let installed = &installer.pending[skey];
            match (v, installed) {
                (Some(v), Some(installed)) => assert!(Arc::ptr_eq(v, installed), "{skey:?}"),
                (v, installed) => assert_eq!((v, installed), (&None, &None), "{skey:?}"),
            }
        }
        assert!(Arc::ptr_eq(ran.pending[&b"s:alice"[..]].as_ref().unwrap(), &value));
        installer.commit().unwrap();
        assert_eq!(Arc::strong_count(&value), 2, "the runner's overlay and this test");
        assert_eq!(installer.get(b"alice").unwrap(), Some(b"made once".to_vec()));
    }
}

/// Seeded put/delete scripts: the root is a pure function of the live map
/// and reads agree with a `BTreeMap` model, and a tree cloned mid-script
/// finishes where the unforked run does.
#[cfg(test)]
mod seeded_props {
    use super::*;
    use bb_sim::SimRng;
    use bb_storage::{MemStore, StorageStats};
    use std::collections::BTreeMap;

    #[test]
    fn root_is_canonical_seeded() {
        let mut rng = SimRng::seed_from_u64(0x5EED_0009);
        for i in 0..48 {
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            let mut t = BucketTree::new(MemStore::new(), 16);
            for _ in 0..rng.range(1, 80) {
                let k: Vec<u8> = (0..rng.range(1, 4)).map(|_| rng.below(256) as u8).collect();
                if rng.chance(0.5) {
                    let mut v = vec![0u8; rng.below(4) as usize];
                    rng.fill_bytes(&mut v);
                    model.insert(k.clone(), v.clone());
                    t.put(&k, &v).unwrap();
                } else {
                    model.remove(&k);
                    t.delete(&k).unwrap();
                }
            }
            let mut fresh = BucketTree::new(MemStore::new(), 16);
            for (k, v) in &model {
                fresh.put(k, v).unwrap();
            }
            assert_eq!(t.root(), fresh.root(), "case {i}");
            assert_eq!(t.len(), model.len() as u64, "case {i}");
            for (k, v) in &model {
                assert_eq!(t.get(k).unwrap(), Some(v.clone()), "case {i}");
            }
        }
    }

    /// A tree cloned mid-script — a sealed block behind it, pending values
    /// in the overlay — is a twin: original and copy each finish the script
    /// where the run that never forked does, counters and store included.
    #[test]
    fn fork_in_the_middle_lands_both_sides_on_the_unforked_run_seeded() {
        type Op = (Vec<u8>, Option<Vec<u8>>);
        /// Apply `ops[from..]`, sealing a block after every 16th op.
        fn run(t: &mut BucketTree<MemStore>, ops: &[Op], from: usize) {
            for (i, (k, v)) in ops.iter().enumerate().skip(from) {
                match v {
                    Some(v) => t.put(k, v).unwrap(),
                    None => t.delete(k).unwrap(),
                }
                if i % 16 == 15 {
                    t.commit().unwrap();
                }
            }
        }
        fn pin(mut t: BucketTree<MemStore>) -> impl PartialEq + std::fmt::Debug {
            let pending = t.pending_values();
            t.commit().unwrap();
            let stored = t.store_mut().scan_prefix(b"").unwrap();
            let counts = (t.len(), pending, t.values_flushed(), t.values_superseded());
            (t.root(), counts, t.store().stats(), stored)
        }
        let mut rng = SimRng::seed_from_u64(0x5EED_0023);
        for _ in 0..24 {
            let ops: Vec<Op> = (0..rng.range(40, 120))
                .map(|_| {
                    let k = vec![rng.below(24) as u8];
                    let v = rng.chance(0.7).then(|| {
                        let mut v = vec![0u8; rng.below(4) as usize];
                        rng.fill_bytes(&mut v);
                        v
                    });
                    (k, v)
                })
                .collect();
            let mut unforked = BucketTree::new(MemStore::new(), 16);
            run(&mut unforked, &ops, 0);
            let want = pin(unforked);
            // Fork inside the second block.
            let fork = rng.range(17, 32) as usize;
            let mut original = BucketTree::new(MemStore::new(), 16);
            run(&mut original, &ops[..fork], 0);
            let copy = original.clone();
            for mut t in [original, copy] {
                run(&mut t, &ops, fork);
                assert_eq!(pin(t), want);
            }
        }
    }

    /// A block's writes installed as the delta an equal tree took of them
    /// land where running them does. Before each block a sealed tree is
    /// cloned; the tree runs seeded puts, deletes and in-block overwrites,
    /// the clone installs its `block_delta`, and roots, counts, overlay,
    /// flush counters and — after both seal — store contents agree. Roots
    /// are taken at random between blocks, so some clones install with
    /// their levels empty.
    #[test]
    fn block_delta_installs_like_running_the_block_seeded() {
        fn pin(t: &mut BucketTree<MemStore>) -> impl PartialEq + std::fmt::Debug {
            let counts = (t.len(), t.pending_values(), t.values_flushed(), t.values_superseded());
            (t.root(), counts)
        }
        let mut rng = SimRng::seed_from_u64(0x5EED_0045);
        let (mut deletes, mut overwrites, mut levelless) = (0, 0, 0);
        for case in 0..32 {
            let nbuckets = [1, 5, 16, 1024][case % 4];
            let mut ran = BucketTree::new(MemStore::new(), nbuckets);
            for block in 0..rng.range(1, 8) {
                let mut installed = ran.clone();
                levelless += installed.levels.is_empty() as u32;
                for _ in 0..rng.range(0, 40) {
                    let k = [rng.below(32) as u8];
                    if rng.chance(0.7) {
                        let mut v = vec![0u8; rng.below(4) as usize];
                        rng.fill_bytes(&mut v);
                        ran.put(&k, &v).unwrap();
                    } else {
                        deletes += ran.get(&k).unwrap().is_some() as u32;
                        ran.delete(&k).unwrap();
                    }
                }
                let delta = ran.block_delta();
                overwrites += delta.superseded;
                installed.install_block_delta(&delta);
                assert_eq!(installed.block_delta(), delta, "case {case}, block {block}");
                assert_eq!(pin(&mut installed), pin(&mut ran), "case {case}, block {block}");
                ran.commit().unwrap();
                installed.commit().unwrap();
                assert_eq!(pin(&mut installed), pin(&mut ran), "case {case}, block {block}");
                // The one difference: the installing tree read nothing.
                let written = |t: &BucketTree<MemStore>| StorageStats {
                    reads: 0,
                    bytes_read: 0,
                    ..t.store().stats()
                };
                assert_eq!(written(&installed), written(&ran), "case {case}, block {block}");
                let stored = |t: &mut BucketTree<MemStore>| t.store_mut().scan_prefix(b"").unwrap();
                assert_eq!(stored(&mut installed), stored(&mut ran), "case {case}, block {block}");
                if rng.chance(0.5) {
                    ran.root();
                }
            }
        }
        let covered = (deletes, overwrites, levelless);
        assert!(deletes > 0 && overwrites > 0 && levelless > 0, "{covered:?}");
    }

    /// A delta taken after the root carries the level nodes its block
    /// rewrote: a twin whose levels are built and clean installs it and
    /// holds the donor's levels, nothing left to re-hash. Two fallbacks
    /// reach the same root by re-hashing: a twin rebuilt from the store
    /// (levels empty), and a twin installing the delta taken before the
    /// root (no levels carried).
    #[test]
    fn block_delta_carries_the_rewritten_levels_seeded() {
        let mut rng = SimRng::seed_from_u64(0x5EED_0047);
        let (mut in_place, mut levelless) = (0, 0);
        for case in 0..24 {
            let nbuckets = [1, 5, 16, 1024][case % 4];
            let mut donor = BucketTree::new(MemStore::new(), nbuckets);
            for block in 0..rng.range(1, 6) {
                donor.root();
                let mut twin = donor.clone();
                let BucketTree { store, .. } = donor.clone();
                let mut rebuilt = BucketTree::rebuild(store, nbuckets).unwrap();
                let mut late = donor.clone();
                for _ in 0..rng.range(1, 60) {
                    let k = [rng.below(64) as u8];
                    if rng.chance(0.75) {
                        let mut v = vec![0u8; rng.below(4) as usize];
                        rng.fill_bytes(&mut v);
                        donor.put(&k, &v).unwrap();
                    } else {
                        donor.delete(&k).unwrap();
                    }
                }
                let early = donor.block_delta();
                let root = donor.root();
                let delta = donor.block_delta();
                let at = format!("case {case}, block {block}");
                // A single bucket has no levels, and an empty tree's root
                // hashes nothing: neither carries any.
                if nbuckets > 1 && !donor.is_empty() {
                    assert_eq!(delta.levels.len(), donor.levels.len(), "{at}");
                }
                let twin_clean = twin.levels_clean();
                twin.install_block_delta(&delta);
                if twin_clean && !delta.levels.is_empty() {
                    assert_eq!(twin.levels, donor.levels, "{at}");
                    assert!(twin.dirty.is_empty(), "{at}");
                    in_place += 1;
                }
                levelless += early.levels.is_empty() as u32;
                rebuilt.install_block_delta(&delta);
                late.install_block_delta(&early);
                for t in [&mut twin, &mut rebuilt, &mut late] {
                    assert_eq!(t.root(), root, "{at}");
                    assert_eq!(t.bucket_hashes, donor.bucket_hashes, "{at}");
                    t.commit().unwrap();
                }
                donor.commit().unwrap();
            }
        }
        assert!(in_place > 0 && levelless > 0, "{:?}", (in_place, levelless));
    }

    /// The incremental root equals the full rebuild — `merkle_root` over
    /// the bucket digests — after every operation of seeded scripts that
    /// interleave puts, deletes, roots, clones, commits and rebuilds. The
    /// check runs on a copy, so `t` piles up changed buckets between its own
    /// (rare) roots as it does inside a block — at 16 buckets often enough
    /// to drop its levels.
    #[test]
    fn incremental_root_matches_full_rebuild_seeded() {
        fn full(t: &BucketTree<MemStore>) -> Hash256 {
            if t.is_empty() {
                Hash256::ZERO
            } else {
                merkle_root(&t.bucket_hashes)
            }
        }
        let mut rng = SimRng::seed_from_u64(0x5EED_0029);
        for nbuckets in [16, 1000] {
            for case in 0..6 {
                let mut t = BucketTree::new(MemStore::new(), nbuckets);
                let mut sealed = Hash256::ZERO;
                for step in 0..150 {
                    let k = [rng.below(48) as u8];
                    match rng.below(100) {
                        0..50 => {
                            let mut v = vec![0u8; rng.below(4) as usize];
                            rng.fill_bytes(&mut v);
                            t.put(&k, &v).unwrap();
                        }
                        50..80 => t.delete(&k).unwrap(),
                        80..83 => assert_eq!(t.root(), full(&t)),
                        83..93 => {
                            t.commit().unwrap();
                            sealed = full(&t);
                        }
                        93..98 => t = t.clone(),
                        _ => {
                            let BucketTree { store, .. } = t;
                            t = BucketTree::rebuild(store, nbuckets).unwrap();
                            assert_eq!(full(&t), sealed, "{nbuckets} buckets, case {case}");
                        }
                    }
                    let root = t.clone().root();
                    assert_eq!(root, full(&t), "{nbuckets} buckets, case {case}, step {step}");
                }
            }
        }
    }
}

/// Known answers: scripted put / overwrite / delete-to-empty / commit
/// sequences whose roots and counts are literals. Every Fabric block header
/// carries this root and `results/` depends on it, so a change to this file
/// that moves one of these literals is a model change.
#[cfg(test)]
mod known_answers {
    use super::*;
    use bb_storage::MemStore;

    /// Root (hex), `len()`, `values_flushed()`, `values_superseded()`.
    type Pin = (String, u64, u64, u64);

    fn pin(t: &mut BucketTree<MemStore>) -> Pin {
        (t.root().to_hex(), t.len(), t.values_flushed(), t.values_superseded())
    }

    fn expect<const N: usize>(rows: [(&str, u64, u64, u64); N]) -> [Pin; N] {
        rows.map(|(root, len, flushed, superseded)| (root.into(), len, flushed, superseded))
    }

    fn key(i: u32) -> Vec<u8> {
        format!("key{i:03}").into_bytes()
    }

    const KEYS: u32 = 48;

    /// Block 1: put every key, pinned before the seal.
    fn load(t: &mut BucketTree<MemStore>) -> Pin {
        for i in 0..KEYS {
            t.put(&key(i), format!("v1-{i}").as_bytes()).unwrap();
        }
        let loaded = pin(t);
        t.commit().unwrap();
        loaded
    }

    /// Block 2's operations on keys `range`: every third key overwritten
    /// twice, every fifth deleted.
    fn churn(t: &mut BucketTree<MemStore>, range: std::ops::Range<u32>) {
        for i in range {
            if i % 3 == 0 {
                t.put(&key(i), format!("v2-{i}").as_bytes()).unwrap();
                t.put(&key(i), format!("v3-{i}").as_bytes()).unwrap();
            }
            if i % 5 == 0 {
                t.delete(&key(i)).unwrap();
            }
        }
    }

    /// Block 3 deletes every key (the root falls to zero), block 4 puts
    /// one back. Pins after each seal.
    fn drain_and_refill(t: &mut BucketTree<MemStore>) -> [Pin; 2] {
        for i in 0..KEYS {
            t.delete(&key(i)).unwrap();
        }
        t.commit().unwrap();
        let drained = pin(t);
        t.put(b"phoenix", b"risen").unwrap();
        t.commit().unwrap();
        [drained, pin(t)]
    }

    /// The whole script on a fresh tree of `nbuckets`: load (mid-block),
    /// churn (sealed), drain (sealed), refill (sealed).
    fn script(nbuckets: usize) -> [Pin; 4] {
        let mut t = BucketTree::new(MemStore::new(), nbuckets);
        let loaded = load(&mut t);
        churn(&mut t, 0..KEYS);
        t.commit().unwrap();
        let churned = pin(&mut t);
        let [drained, refilled] = drain_and_refill(&mut t);
        [loaded, churned, drained, refilled]
    }

    const ZERO: &str = "0000000000000000000000000000000000000000000000000000000000000000";

    #[test]
    fn one_bucket() {
        let want = expect([
            ("62e6171cfcda996320a3c7cf4588ff78092aab66e7959094901b8ce8330106cc", 48, 0, 0),
            ("44cc0ebc01832d9ccdc3e762f317cd827d6d4882717d90215af107640a9961d7", 38, 70, 20),
            (ZERO, 0, 108, 20),
            ("fa1a0e7992b6797f7075665cf5ba431879d287562d091030056ac8a5e46ad3f2", 1, 109, 20),
        ]);
        assert_eq!(script(1), want);
    }

    /// 5 → 3 → 2 → 1: odd tails duplicate their last node twice on the way up.
    #[test]
    fn five_buckets() {
        let want = expect([
            ("98d8a815d085573328eabe6c585f43cc15937298f27b2c477f82728a65b2391d", 48, 0, 0),
            ("7dc6a0a369bbfeda352342c5a157fa476a82a9d853e710679cd017d7945a3b15", 38, 70, 20),
            (ZERO, 0, 108, 20),
            ("3e188d5eef8218b684e4aee99abc064751d78b8d74153ed9ddaf12ccc9aa80e4", 1, 109, 20),
        ]);
        assert_eq!(script(5), want);
    }

    #[test]
    fn sixty_four_buckets() {
        let want = expect([
            ("8cfe081b2f0a4f1a29e54f7e62e564fd6a6de679f7ed6e4ce35c52500537fd03", 48, 0, 0),
            ("3cf8817cb71ec71b126ae6f7fd79eb4fa3d2558a2ce5637dbf25edbc52f249cf", 38, 70, 20),
            (ZERO, 0, 108, 20),
            ("b8fd894f1bd4716e7f7a1ed5ccf832ff54ef71c0252eaac6414a3ce909c72cd3", 1, 109, 20),
        ]);
        assert_eq!(script(64), want);
    }

    /// Fabric's default `state_buckets`.
    #[test]
    fn thousand_twenty_four_buckets() {
        let want = expect([
            ("3b2ac35b5cfc3bc396295fcbc1f568c2d831f918a901eff628a417ae4a2de3df", 48, 0, 0),
            ("e0443a37e033edd6ca71e4676c27b1d90c7079b0898e016b1d3487cd44037ea4", 38, 70, 20),
            (ZERO, 0, 108, 20),
            ("4b17be754e5e939d56db562032eecefb8c2e3cc6c84e5b5af2709259ba245c52", 1, 109, 20),
        ]);
        assert_eq!(script(1024), want);
    }

    /// A tree cloned inside block 2 — a root taken halfway, more writes
    /// since, the overlay part-full — finishes the script on both sides
    /// exactly where [`sixty_four_buckets`] does.
    #[test]
    fn clone_mid_block_lands_on_the_script() {
        let mut original = BucketTree::new(MemStore::new(), 64);
        load(&mut original);
        churn(&mut original, 0..24);
        let midway = pin(&mut original);
        churn(&mut original, 24..32);
        let copy = original.clone();
        let mut sides = Vec::new();
        for mut t in [original, copy] {
            churn(&mut t, 32..KEYS);
            t.commit().unwrap();
            let churned = pin(&mut t);
            let [drained, refilled] = drain_and_refill(&mut t);
            sides.push([churned, drained, refilled]);
        }
        let want = expect([(
            "02747cb14580f369d54e722275e421aff12865d7ebddf8317f7a4c203677dd05",
            43,
            48,
            10,
        )]);
        assert_eq!([midway], want);
        let [_, churned, drained, refilled] = script(64);
        let unforked = [churned, drained, refilled];
        assert_eq!(sides, [unforked.clone(), unforked]);
    }

    /// A tree rebuilt from the committed store (the restart path) has the
    /// sealed root and count, fresh flush counters, and ignores whatever
    /// was pending; the rest of the script lands on the same roots.
    #[test]
    fn rebuild_from_committed_store_lands_on_the_script() {
        let mut t = BucketTree::new(MemStore::new(), 1024);
        load(&mut t);
        churn(&mut t, 0..KEYS);
        t.commit().unwrap();
        t.put(b"uncommitted", b"lost").unwrap();
        let BucketTree { store, .. } = t;
        let mut r = BucketTree::rebuild(store, 1024).unwrap();
        let rebuilt = pin(&mut r);
        let [drained, refilled] = drain_and_refill(&mut r);
        let want = expect([
            ("e0443a37e033edd6ca71e4676c27b1d90c7079b0898e016b1d3487cd44037ea4", 38, 0, 0),
            (ZERO, 0, 38, 0),
            ("4b17be754e5e939d56db562032eecefb8c2e3cc6c84e5b5af2709259ba245c52", 1, 39, 0),
        ]);
        assert_eq!([rebuilt, drained, refilled], want);
    }
}
