//! The mutable in-memory tier of the LSM tree. Deletions are tombstones
//! (`None` values) so they shadow older SSTable versions until compaction
//! drops them. Keys and values are shared bytes: a batch's allocations are
//! moved in, not copied.

use crate::kv::KvOps;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

/// Sorted in-memory write buffer.
#[derive(Debug, Default, Clone)]
pub struct MemTable {
    entries: BTreeMap<Arc<[u8]>, Option<Arc<[u8]>>>,
    approx_bytes: u64,
}

/// Fixed per-entry overhead charged to the memtable budget.
const NODE_OVERHEAD: u64 = 48;

impl MemTable {
    /// Empty memtable.
    pub fn new() -> Self {
        Self::default()
    }

    fn cost(key_len: usize, value: &Option<Arc<[u8]>>) -> u64 {
        key_len as u64 + value.as_ref().map_or(0, |v| v.len() as u64) + NODE_OVERHEAD
    }

    /// Apply a batch's operations in order: each key and value allocation
    /// is moved in as it is; a `None` value is a tombstone.
    pub fn apply(&mut self, ops: KvOps) {
        for (key, value) in ops {
            let key_len = key.len();
            let add = Self::cost(key_len, &value);
            if let Some(old) = self.entries.insert(key, value) {
                self.approx_bytes -= Self::cost(key_len, &old);
            }
            self.approx_bytes += add;
        }
    }

    /// Look up a key. `Some(None)` means "deleted here" — the caller must
    /// not fall through to older tiers.
    pub fn get(&self, key: &[u8]) -> Option<Option<&[u8]>> {
        self.entries.get(key).map(|v| v.as_deref())
    }

    /// Entries (including tombstones) from `start` on, in key order: the
    /// memtable's part of every range read.
    pub fn range_from<'a>(
        &'a self,
        start: Bound<&'a [u8]>,
    ) -> impl Iterator<Item = (&'a [u8], Option<&'a [u8]>)> + 'a {
        self.entries.range::<[u8], _>((start, Bound::Unbounded)).map(|(k, v)| (&**k, v.as_deref()))
    }

    /// Drain all entries in key order for an SSTable flush.
    pub fn drain_sorted(&mut self) -> KvOps {
        self.approx_bytes = 0;
        std::mem::take(&mut self.entries).into_iter().collect()
    }

    /// Approximate resident bytes (flush trigger input).
    pub fn approx_bytes(&self) -> u64 {
        self.approx_bytes
    }

    /// Number of entries, tombstones included.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Nothing buffered?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The allocation holding `key`'s live value.
    pub(crate) fn value_arc(&self, key: &[u8]) -> Option<&Arc<[u8]>> {
        self.entries.get(key)?.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-op writes for the cases below.
    impl MemTable {
        fn put(&mut self, key: &[u8], value: &[u8]) {
            self.apply(vec![(key.into(), Some(value.into()))]);
        }

        fn delete(&mut self, key: &[u8]) {
            self.apply(vec![(key.into(), None)]);
        }
    }

    #[test]
    fn put_get_overwrite() {
        let mut m = MemTable::new();
        assert_eq!(m.get(b"k"), None);
        m.put(b"k", b"v1");
        assert_eq!(m.get(b"k"), Some(Some(b"v1".as_slice())));
        m.put(b"k", b"v2");
        assert_eq!(m.get(b"k"), Some(Some(b"v2".as_slice())));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn tombstones_are_visible() {
        let mut m = MemTable::new();
        m.put(b"k", b"v");
        m.delete(b"k");
        assert_eq!(m.get(b"k"), Some(None));
        assert_eq!(m.len(), 1); // tombstone occupies an entry
    }

    #[test]
    fn byte_accounting_tracks_overwrites() {
        let mut m = MemTable::new();
        m.put(b"key", &[0; 100]);
        let after_first = m.approx_bytes();
        m.put(b"key", &[0; 10]);
        assert!(m.approx_bytes() < after_first);
        m.delete(b"key");
        assert_eq!(m.approx_bytes(), 3 + 48);
    }

    #[test]
    fn drain_is_sorted_and_resets() {
        let mut m = MemTable::new();
        m.put(b"b", b"2");
        m.put(b"a", b"1");
        m.delete(b"c");
        let drained: Vec<(Vec<u8>, Option<Vec<u8>>)> = m
            .drain_sorted()
            .into_iter()
            .map(|(k, v)| (k.to_vec(), v.map(|v| v.to_vec())))
            .collect();
        assert_eq!(
            drained,
            vec![
                (b"a".to_vec(), Some(b"1".to_vec())),
                (b"b".to_vec(), Some(b"2".to_vec())),
                (b"c".to_vec(), None),
            ]
        );
        assert!(m.is_empty());
        assert_eq!(m.approx_bytes(), 0);
    }

    #[test]
    fn scan_prefix_includes_tombstones() {
        let mut m = MemTable::new();
        m.put(b"a:1", b"x");
        m.delete(b"a:2");
        m.put(b"b:1", b"y");
        let hits: Vec<_> = m
            .range_from(Bound::Included(b"a:"))
            .take_while(|(k, _)| k.starts_with(b"a:"))
            .collect();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0], (b"a:1".as_slice(), Some(b"x".as_slice())));
        assert_eq!(hits[1], (b"a:2".as_slice(), None));
    }

    #[test]
    fn range_from_an_excluded_cursor_keeps_tombstones() {
        let mut m = MemTable::new();
        m.put(b"a", b"1");
        m.delete(b"b");
        m.put(b"c", b"3");
        let keys = |after: Option<&[u8]>| -> Vec<(Vec<u8>, bool)> {
            let start = after.map_or(Bound::Unbounded, Bound::Excluded);
            m.range_from(start).map(|(k, v)| (k.to_vec(), v.is_some())).collect()
        };
        assert_eq!(keys(None).len(), 3);
        assert_eq!(keys(Some(b"a")), vec![(b"b".to_vec(), false), (b"c".to_vec(), true)]);
        assert_eq!(keys(Some(b"bb")), vec![(b"c".to_vec(), true)]);
        assert!(keys(Some(b"c")).is_empty());
    }
}
