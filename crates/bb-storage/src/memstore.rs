//! A plain ordered in-memory store — Parity's data-management model.
//!
//! "Parity holds all the state information in memory, so it has better I/O
//! performance but fails to handle large data" (Section 4.2.2). The optional
//! byte cap reproduces that failure: IOHeavy runs that exceed it get
//! [`KvError::OutOfSpace`], our analogue of the paper's 'X' (out-of-memory)
//! data points. A store is written only through `apply_batch`, which checks
//! the cap op by op, and both scans read one `BTreeMap::range`.

use crate::kv::{take_chunk, KvError, KvPairs, KvStore, WriteBatch};
use crate::stats::StorageStats;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Fixed per-entry bookkeeping overhead, on top of key and value bytes.
/// Models allocator + index overhead of an in-memory state cache.
pub const ENTRY_OVERHEAD: u64 = 64;

/// Ordered in-memory key-value store with an optional capacity cap.
///
/// `Clone` is a second store: contents, the cap and every counter are
/// copied, and nothing is shared afterwards.
#[derive(Debug, Default, Clone)]
pub struct MemStore {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
    mem_bytes: u64,
    cap: Option<u64>,
    stats: StorageStats,
}

impl MemStore {
    /// Unbounded store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store that errors once resident bytes exceed `cap`.
    pub fn with_capacity_cap(cap: u64) -> Self {
        MemStore { cap: Some(cap), ..Self::default() }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn entry_bytes(key: &[u8], value: &[u8]) -> u64 {
        key.len() as u64 + value.len() as u64 + ENTRY_OVERHEAD
    }

    /// The one range read of both scans: the pairs from `start` on, in key
    /// order.
    fn live_from<'a>(
        &'a self,
        start: Bound<&'a [u8]>,
    ) -> impl Iterator<Item = (Vec<u8>, Vec<u8>)> + 'a {
        self.map.range::<[u8], _>((start, Bound::Unbounded)).map(|(k, v)| (k.clone(), v.clone()))
    }
}

impl KvStore for MemStore {
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        self.stats.reads += 1;
        Ok(self.map.get(key).cloned())
    }

    /// Cap-respecting batch: operations apply in order until the cap trips,
    /// at which point the error surfaces (the partially applied prefix
    /// stays, matching the per-put failure mode of a real OOM). A map
    /// copies every op: there is no frame to share.
    fn apply_batch(&mut self, batch: WriteBatch) -> Result<(), KvError> {
        if batch.is_empty() {
            return Ok(());
        }
        self.stats.batch_writes += 1;
        let (ops, _frame) = batch.into_parts();
        for (key, value) in ops {
            let old = self.map.get(&*key).map_or(0, |v| Self::entry_bytes(&key, v));
            let new = value.as_ref().map_or(0, |v| Self::entry_bytes(&key, v));
            // A delete only shrinks the map, so only a put can trip the cap.
            let projected = self.mem_bytes - old + new;
            if let Some(cap) = self.cap.filter(|&cap| projected > cap) {
                return Err(KvError::OutOfSpace { used: projected, cap });
            }
            self.stats.writes += 1;
            match value {
                Some(v) => self.map.insert(key.to_vec(), v.to_vec()),
                None => self.map.remove(&*key),
            };
            self.mem_bytes = projected;
            self.stats.mem_bytes = projected;
        }
        Ok(())
    }

    fn scan_prefix(&mut self, prefix: &[u8]) -> Result<KvPairs, KvError> {
        let out: KvPairs = self
            .live_from(Bound::Included(prefix))
            .take_while(|(k, _)| k.starts_with(prefix))
            .collect();
        self.stats.reads += out.len() as u64;
        Ok(out)
    }

    fn scan_range_chunk(
        &mut self,
        after: Option<&[u8]>,
        max_bytes: usize,
    ) -> Result<(KvPairs, bool), KvError> {
        let start = after.map_or(Bound::Unbounded, Bound::Excluded);
        let (out, done) = take_chunk(self.live_from(start), max_bytes);
        self.stats.reads += out.len() as u64;
        Ok((out, done))
    }

    fn stats(&self) -> StorageStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::OneOp;

    #[test]
    fn basic_crud() {
        let mut s = MemStore::new();
        assert_eq!(s.get(b"k").unwrap(), None);
        s.put_one(b"k", b"v1").unwrap();
        assert_eq!(s.get(b"k").unwrap(), Some(b"v1".to_vec()));
        s.put_one(b"k", b"v2").unwrap();
        assert_eq!(s.get(b"k").unwrap(), Some(b"v2".to_vec()));
        s.delete_one(b"k").unwrap();
        assert_eq!(s.get(b"k").unwrap(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn scan_prefix_in_order() {
        let mut s = MemStore::new();
        for k in ["a:2", "a:1", "b:1", "a:3"] {
            s.put_one(k.as_bytes(), b"x").unwrap();
        }
        let hits = s.scan_prefix(b"a:").unwrap();
        let keys: Vec<_> = hits.iter().map(|(k, _)| String::from_utf8_lossy(k).into_owned()).collect();
        assert_eq!(keys, vec!["a:1", "a:2", "a:3"]);
    }

    #[test]
    fn capacity_cap_models_parity_oom() {
        // Each entry costs key + value + 64 overhead = 70 bytes here.
        let mut s = MemStore::with_capacity_cap(200);
        s.put_one(b"k1", b"vvvv").unwrap();
        s.put_one(b"k2", b"vvvv").unwrap();
        let err = s.put_one(b"k3", b"vvvv").unwrap_err();
        assert!(matches!(err, KvError::OutOfSpace { .. }));
        // Failed put leaves the store intact.
        assert_eq!(s.len(), 2);
        // Overwriting an existing key must not double-count.
        s.put_one(b"k1", b"wwww").unwrap();
        assert_eq!(s.get(b"k1").unwrap(), Some(b"wwww".to_vec()));
    }

    #[test]
    fn delete_releases_capacity() {
        let mut s = MemStore::with_capacity_cap(200);
        s.put_one(b"k1", b"vvvv").unwrap();
        s.put_one(b"k2", b"vvvv").unwrap();
        s.delete_one(b"k1").unwrap();
        s.put_one(b"k3", b"vvvv").unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn batch_respects_capacity_cap() {
        let mut s = MemStore::with_capacity_cap(200);
        let mut b = WriteBatch::new();
        b.put(b"k1", b"vvvv");
        b.put(b"k2", b"vvvv");
        b.put(b"k3", b"vvvv");
        let err = s.apply_batch(b).unwrap_err();
        assert!(matches!(err, KvError::OutOfSpace { .. }));
        // The prefix that fit stays applied, like per-put OOM.
        assert_eq!(s.len(), 2);
        assert_eq!(s.stats().batch_writes, 1);
    }

    #[test]
    fn clone_is_a_second_disk() {
        let mut a = MemStore::with_capacity_cap(450);
        a.put_one(b"k1", b"one").unwrap();
        a.put_one(b"k2", b"two").unwrap();
        let mut b = a.clone();
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.scan_prefix(b"").unwrap(), b.scan_prefix(b"").unwrap());
        assert_eq!(a.get(b"k1").unwrap(), b.get(b"k1").unwrap());
        assert_eq!(a.stats(), b.stats());
        // Writes stay on their side, and each side fills its own cap.
        let b_stats = b.stats();
        a.put_one(b"k1", b"changed").unwrap();
        a.delete_one(b"k2").unwrap();
        a.put_one(b"big", &[0u8; 200]).unwrap();
        assert_eq!(b.stats(), b_stats);
        assert_eq!(b.get(b"k1").unwrap(), Some(b"one".to_vec()));
        assert_eq!(b.get(b"k2").unwrap(), Some(b"two".to_vec()));
        assert_eq!(b.get(b"big").unwrap(), None);
        b.put_one(b"big", &[1u8; 200]).unwrap();
        assert!(matches!(b.put_one(b"more", &[1u8; 200]), Err(KvError::OutOfSpace { .. })));
    }

    #[test]
    fn stats_count_operations() {
        let mut s = MemStore::new();
        s.put_one(b"a", b"1").unwrap();
        s.put_one(b"b", b"2").unwrap();
        let _ = s.get(b"a").unwrap();
        let _ = s.scan_prefix(b"").unwrap();
        let st = s.stats();
        assert_eq!(st.writes, 2);
        assert_eq!(st.reads, 1 + 2);
        assert!(st.mem_bytes > 0);
        assert_eq!(st.disk_bytes, 0);
    }
}
