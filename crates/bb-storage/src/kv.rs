//! The key-value interface every engine implements.
//!
//! Hyperledger's chaincode environment exposes exactly `putState` /
//! `getState` (Section 3.1.3); Ethereum's trie sits on the same interface
//! one level down. Keys and values are arbitrary byte strings.

use crate::stats::StorageStats;

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

/// Write operations in order: `(key, Some(value))` puts, `(key, None)`
/// deletes.
pub type KvOps = Vec<(Vec<u8>, Option<Vec<u8>>)>;

/// A buffered set of writes applied atomically by [`KvStore::apply_batch`].
///
/// Engines that implement batching natively (the LSM store) turn one batch
/// into one WAL record, one memtable pass and one flush check — instead of
/// per-operation overhead. Operations apply in insertion order, so a later
/// op on the same key wins.
#[derive(Debug, Clone, Default)]
pub struct WriteBatch {
    ops: KvOps,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> WriteBatch {
        WriteBatch::default()
    }

    /// Buffer an insert/overwrite of `key`.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.ops.push((key.to_vec(), Some(value.to_vec())));
    }

    /// Buffer a delete of `key`.
    pub fn delete(&mut self, key: &[u8]) {
        self.ops.push((key.to_vec(), None));
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
    pub fn ops(&self) -> &[(Vec<u8>, Option<Vec<u8>>)] {
        &self.ops
    }

    /// Consume the batch, yielding the operations.
    pub fn into_ops(self) -> KvOps {
        self.ops
    }
}

/// An ordered key-value store.
pub trait KvStore {
    /// Fetch the value for `key`, if present.
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError>;

    /// Insert or overwrite `key`.
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError>;

    /// Remove `key`; removing an absent key is a no-op.
    fn delete(&mut self, key: &[u8]) -> Result<(), KvError>;

    /// Apply a [`WriteBatch`] in insertion order. The default implementation
    /// loops over `put`/`delete`; engines override it to amortise per-write
    /// overhead (one WAL record per batch on the LSM store).
    fn apply_batch(&mut self, batch: WriteBatch) -> Result<(), KvError> {
        for (key, value) in batch.into_ops() {
            match value {
                Some(v) => self.put(&key, &v)?,
                None => self.delete(&key)?,
            }
        }
        Ok(())
    }

    /// All live `(key, value)` pairs whose key starts with `prefix`, in key
    /// order. Used by analytics scans and the bucket tree rebuild.
    fn scan_prefix(&mut self, prefix: &[u8]) -> Result<KvPairs, KvError>;

    /// A bounded run of live pairs with key strictly greater than `after`,
    /// in key order, stopping once `max_bytes` of key+value payload have
    /// accumulated. Returns `(entries, done)`; `done` means the key space
    /// is exhausted. Parity's snapshot state sync serves its chunks through
    /// this. No store overrides it: the default scans everything and
    /// slices. The LSM store's pinned snapshots are a separate API
    /// (`LsmStore::snapshot_chunk`), which Ethereum and Fabric use.
    fn scan_range_chunk(
        &mut self,
        after: Option<&[u8]>,
        max_bytes: usize,
    ) -> Result<(KvPairs, bool), KvError> {
        let mut out = Vec::new();
        let mut bytes = 0usize;
        for (k, v) in self.scan_prefix(b"")? {
            if after.is_some_and(|a| k.as_slice() <= a) {
                continue;
            }
            bytes += k.len() + v.len();
            out.push((k, v));
            if bytes >= max_bytes {
                return Ok((out, false));
            }
        }
        Ok((out, true))
    }

    /// Engine statistics snapshot.
    fn stats(&self) -> StorageStats;
}

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
