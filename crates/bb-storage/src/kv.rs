//! The key-value interface every engine implements.
//!
//! Hyperledger's chaincode environment exposes exactly `putState` /
//! `getState` (Section 3.1.3); Ethereum's trie sits on the same interface
//! one level down. Keys and values are arbitrary byte strings. Every write
//! reaches a store as a [`WriteBatch`] (a sealed block, a snapshot chunk),
//! and both scans of an engine read through its one range read.

use crate::stats::StorageStats;
use std::sync::{Arc, OnceLock};

/// Errors surfaced by storage engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// Engine-internal corruption (a failed checksum, a malformed SSTable).
    Corrupt(String),
    /// The engine's backing resource is exhausted (in-memory engines with a
    /// byte cap use this to model Parity's OOM in IOHeavy).
    OutOfSpace { used: u64, cap: u64 },
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::Corrupt(what) => write!(f, "storage corrupt: {what}"),
            KvError::OutOfSpace { used, cap } => {
                write!(f, "storage out of space: {used} of {cap} bytes used")
            }
        }
    }
}

impl std::error::Error for KvError {}

/// Live `(key, value)` pairs in key order, as scans return them.
pub type KvPairs = Vec<(Vec<u8>, Vec<u8>)>;

/// One write operation as shared bytes: `(key, Some(value))` is a put,
/// `(key, None)` a delete.
pub type KvOp = (Arc<[u8]>, Option<Arc<[u8]>>);

/// Write operations in order.
pub type KvOps = Vec<KvOp>;

/// A batch's WAL frame, built once per world. Replicas that write
/// byte-equal batches attach one slot to them: the first LSM store to log
/// such a batch frames it in place and fills the slot with a copy of the
/// frame, and every later store appends those bytes instead of framing and
/// checksumming its own. Debug builds re-frame every shared frame and
/// assert that the bytes are equal.
pub type FrameSlot = Arc<OnceLock<Arc<[u8]>>>;

/// Bytes a [`WriteBatch`] (and through it the LSM memtable) holds by
/// reference count. An `Arc<[u8]>` is taken as it is: a value made once —
/// a flushed trie node, a bucket tree's pending value, a block record —
/// reaches every store that keeps it without another copy. Borrowed bytes
/// and a `Vec` are copied once. There is no impl for `&Arc<[u8]>`: sharing
/// is spelled `Arc::clone`, so a borrow never copies by accident.
pub trait IntoShared {
    /// The bytes as one shared allocation.
    fn into_shared(self) -> Arc<[u8]>;
}

impl IntoShared for Arc<[u8]> {
    fn into_shared(self) -> Arc<[u8]> {
        self
    }
}

impl IntoShared for &[u8] {
    fn into_shared(self) -> Arc<[u8]> {
        Arc::from(self)
    }
}

impl IntoShared for &Vec<u8> {
    fn into_shared(self) -> Arc<[u8]> {
        Arc::from(self.as_slice())
    }
}

impl IntoShared for Vec<u8> {
    fn into_shared(self) -> Arc<[u8]> {
        Arc::from(self)
    }
}

impl<const N: usize> IntoShared for &[u8; N] {
    fn into_shared(self) -> Arc<[u8]> {
        Arc::from(self.as_slice())
    }
}

/// What [`KvStore::scan_range_chunk`] returns from the live pairs past its
/// cursor, in key order: the pairs up to and including the one that brings
/// the key+value payload to `max_bytes`, and whether `pairs` ran out first.
pub(crate) fn take_chunk(
    pairs: impl Iterator<Item = (Vec<u8>, Vec<u8>)>,
    max_bytes: usize,
) -> (KvPairs, bool) {
    let mut out = Vec::new();
    let mut bytes = 0;
    for (k, v) in pairs {
        bytes += k.len() + v.len();
        out.push((k, v));
        if bytes >= max_bytes {
            return (out, false);
        }
    }
    (out, true)
}

/// The simulated wire size of a snapshot chunk carrying `entries`: a
/// 16-byte header and every key and value byte.
pub fn chunk_wire_bytes(entries: &[(Vec<u8>, Vec<u8>)]) -> u64 {
    16 + entries.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum::<u64>()
}

/// A buffered set of writes applied atomically by [`KvStore::apply_batch`],
/// the one write path of every store.
///
/// The LSM store turns one batch into one WAL record, one memtable pass and
/// one flush check. Operations apply in insertion order, so a later op on
/// the same key wins. Keys and values are shared bytes
/// ([`IntoShared`]): the LSM store writes them once into its WAL and moves
/// the allocations themselves into its memtable. A batch may carry a
/// [`FrameSlot`] it shares with byte-equal batches on other replicas; only
/// the LSM store reads it.
#[derive(Debug, Clone, Default)]
pub struct WriteBatch {
    ops: KvOps,
    frame: Option<FrameSlot>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> WriteBatch {
        WriteBatch::default()
    }

    /// Buffer an insert/overwrite of `key`: an `Arc` is taken as it is,
    /// borrowed bytes are copied once.
    pub fn put(&mut self, key: impl IntoShared, value: impl IntoShared) {
        self.ops.push((key.into_shared(), Some(value.into_shared())));
    }

    /// Buffer a delete of `key`.
    pub fn delete(&mut self, key: impl IntoShared) {
        self.ops.push((key.into_shared(), None));
    }

    /// Number of buffered operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no operations are buffered.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The buffered operations: `(key, Some(value))` puts, `(key, None)`
    /// deletes, in insertion order.
    pub fn ops(&self) -> &[KvOp] {
        &self.ops
    }

    /// Share `slot` with every batch of the same operations: whichever
    /// store logs one of them first fills it, the rest append its bytes.
    pub fn share_frame(&mut self, slot: FrameSlot) {
        self.frame = Some(slot);
    }

    /// Consume the batch, yielding the operations and the frame slot it
    /// shares, if any.
    pub fn into_parts(self) -> (KvOps, Option<FrameSlot>) {
        (self.ops, self.frame)
    }
}

/// An ordered key-value store. A [`WriteBatch`] is the only way to write
/// one: every platform writes a sealed block as one batch, and a single
/// write is a one-op batch.
pub trait KvStore {
    /// Fetch the value for `key`, if present.
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError>;

    /// Apply a [`WriteBatch`] in insertion order: a put inserts or
    /// overwrites its key, a delete of an absent key is a no-op. The LSM
    /// store logs the whole batch as one WAL record.
    fn apply_batch(&mut self, batch: WriteBatch) -> Result<(), KvError>;

    /// All live `(key, value)` pairs whose key starts with `prefix`, in key
    /// order: the engine's range read from `prefix`, up to the first key
    /// past it. Used by analytics scans and the bucket tree rebuild.
    fn scan_prefix(&mut self, prefix: &[u8]) -> Result<KvPairs, KvError>;

    /// A bounded run of live pairs with key strictly greater than `after`,
    /// in key order, stopping once `max_bytes` of key+value payload have
    /// accumulated. Returns `(entries, done)`; `done` means the key space
    /// is exhausted. The one chunk reader, with no default that scans the
    /// whole store: every snapshot transfer serves through it, from the
    /// live store (Ethereum, Parity) or a frozen `clone` of it (Fabric). A
    /// live store's chunks are read at different heights; an account
    /// chain's first chunk names the server's head height when its scan
    /// began, and Parity's chain transfer stops at that height.
    fn scan_range_chunk(
        &mut self,
        after: Option<&[u8]>,
        max_bytes: usize,
    ) -> Result<(KvPairs, bool), KvError>;

    /// Engine statistics snapshot.
    fn stats(&self) -> StorageStats;
}

/// One-op writes for this crate's tests: each is a one-op [`WriteBatch`]
/// through [`KvStore::apply_batch`], the one write path.
#[cfg(test)]
pub(crate) trait OneOp: KvStore {
    fn put_one(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError> {
        let mut batch = WriteBatch::new();
        batch.put(key, value);
        self.apply_batch(batch)
    }

    fn delete_one(&mut self, key: &[u8]) -> Result<(), KvError> {
        let mut batch = WriteBatch::new();
        batch.delete(key);
        self.apply_batch(batch)
    }
}

#[cfg(test)]
impl<S: KvStore> OneOp for S {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        assert!(KvError::Corrupt("bad magic".into()).to_string().contains("bad magic"));
        let e = KvError::OutOfSpace { used: 10, cap: 8 };
        assert!(e.to_string().contains("10 of 8"));
    }
}
