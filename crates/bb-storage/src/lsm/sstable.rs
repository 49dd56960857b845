//! Immutable sorted string tables.
//!
//! Layout of an SSTable file:
//!
//! ```text
//! [entry]*           entries in key order
//! [bloom]            encoded bloom filter
//! [index]            sparse index: every Nth entry's (key, offset)
//! [footer]           bloom_off u64 | index_off u64 | entry_count u64 | magic u32
//! ```
//!
//! An entry is `klen u32 | key | tombstone u8 | vlen u32 | value`. Point
//! reads check the bloom filter, binary-search the sparse index, then scan
//! at most one index interval — the LevelDB recipe at laptop scale.

use super::bloom::{Bloom, KeyHash};
use crate::kv::KvError;
use crate::vfs::Vfs;

const MAGIC: u32 = 0x5354_424c; // "STBL"

/// Handle to one on-"disk" table, with its bloom filter and sparse index
/// resident in memory. Clone is cheap relative to the file (bloom bits +
/// sparse index only), so a frozen copy of a store holds its tables for
/// handles' worth of memory while the original keeps compacting.
#[derive(Debug, Clone)]
pub struct SsTable {
    file: String,
    bloom: Bloom,
    /// `(first key of interval, byte offset)` in key order.
    index: Vec<(Vec<u8>, u64)>,
    entry_count: u64,
    data_end: u64,
    /// Key range `[first_key, last_key]`; both empty when the table is.
    /// Leveled compaction uses these to find next-level overlaps without
    /// touching the file.
    first_key: Vec<u8>,
    last_key: Vec<u8>,
}

/// Streaming SSTable writer: entries are appended in key order and the
/// body grows incrementally, so compaction can merge arbitrarily many
/// input tables while holding one output buffer (plus bloom + sparse
/// index) rather than a whole-store map.
///
/// `expected` only sizes the bloom filter — an over-estimate (e.g. the sum
/// of input entry counts before shadowed versions are shed) just yields a
/// slightly roomier filter.
pub struct TableBuilder {
    body: Vec<u8>,
    bloom: Bloom,
    index: Vec<(Vec<u8>, u64)>,
    index_interval: usize,
    entry_count: u64,
    first_key: Vec<u8>,
    last_key: Vec<u8>,
}

impl TableBuilder {
    pub fn new(expected: usize, bits_per_key: u32, index_interval: usize) -> TableBuilder {
        TableBuilder {
            body: Vec::new(),
            bloom: Bloom::new(expected, bits_per_key),
            index: Vec::new(),
            index_interval: index_interval.max(1),
            entry_count: 0,
            first_key: Vec::new(),
            last_key: Vec::new(),
        }
    }

    /// Append one entry; keys must arrive in strictly ascending order.
    pub fn add(&mut self, key: &[u8], value: Option<&[u8]>) {
        debug_assert!(
            self.entry_count == 0 || self.last_key.as_slice() < key,
            "SSTable entries must be strictly sorted"
        );
        if (self.entry_count as usize).is_multiple_of(self.index_interval) {
            self.index.push((key.to_vec(), self.body.len() as u64));
        }
        self.bloom.insert(key);
        self.body.extend_from_slice(&(key.len() as u32).to_be_bytes());
        self.body.extend_from_slice(key);
        match value {
            Some(v) => {
                self.body.push(0);
                self.body.extend_from_slice(&(v.len() as u32).to_be_bytes());
                self.body.extend_from_slice(v);
            }
            None => {
                self.body.push(1);
                self.body.extend_from_slice(&0u32.to_be_bytes());
            }
        }
        if self.entry_count == 0 {
            self.first_key = key.to_vec();
        }
        self.last_key = key.to_vec();
        self.entry_count += 1;
    }

    /// Bytes of entry data accumulated so far — compaction's output-split
    /// threshold.
    pub fn data_bytes(&self) -> u64 {
        self.body.len() as u64
    }

    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// Append bloom, index and footer, write the file in one atomic `write`
    /// and return the handle.
    pub fn finish(self, vfs: &mut Vfs, file: &str) -> SsTable {
        let TableBuilder { mut body, bloom, index, entry_count, first_key, last_key, .. } = self;
        let data_end = body.len() as u64;
        let bloom_off = body.len() as u64;
        body.extend_from_slice(&bloom.encode());
        let index_off = body.len() as u64;
        for (key, off) in &index {
            body.extend_from_slice(&(key.len() as u32).to_be_bytes());
            body.extend_from_slice(key);
            body.extend_from_slice(&off.to_be_bytes());
        }
        body.extend_from_slice(&bloom_off.to_be_bytes());
        body.extend_from_slice(&index_off.to_be_bytes());
        body.extend_from_slice(&entry_count.to_be_bytes());
        body.extend_from_slice(&MAGIC.to_be_bytes());
        vfs.write(file, &body);
        SsTable { file: file.to_string(), bloom, index, entry_count, data_end, first_key, last_key }
    }
}

impl SsTable {
    /// Write `entries` (sorted by key, tombstones as `None`) to `file` and
    /// return a handle. Panics if entries are not strictly sorted — the
    /// flush and compaction paths guarantee that.
    pub fn build<K: AsRef<[u8]>, V: AsRef<[u8]>>(
        vfs: &mut Vfs,
        file: &str,
        entries: &[(K, Option<V>)],
        bits_per_key: u32,
        index_interval: usize,
    ) -> SsTable {
        let mut b = TableBuilder::new(entries.len(), bits_per_key, index_interval);
        for (key, value) in entries {
            b.add(key.as_ref(), value.as_ref().map(AsRef::as_ref));
        }
        b.finish(vfs, file)
    }

    /// Re-open a table written earlier (store restart path).
    pub fn open(vfs: &mut Vfs, file: &str) -> Result<SsTable, KvError> {
        let data = vfs.read(file).map_err(|e| KvError::Corrupt(e.to_string()))?;
        if data.len() < 28 {
            return Err(KvError::Corrupt(format!("{file}: too short")));
        }
        let foot = data.len() - 28;
        let magic = u32::from_be_bytes(data[foot + 24..].try_into().expect("4 bytes"));
        if magic != MAGIC {
            return Err(KvError::Corrupt(format!("{file}: bad magic")));
        }
        let bloom_off = u64::from_be_bytes(data[foot..foot + 8].try_into().expect("8")) as usize;
        let index_off = u64::from_be_bytes(data[foot + 8..foot + 16].try_into().expect("8")) as usize;
        let entry_count = u64::from_be_bytes(data[foot + 16..foot + 24].try_into().expect("8"));
        if bloom_off > index_off || index_off > foot {
            return Err(KvError::Corrupt(format!("{file}: bad offsets")));
        }
        let bloom = Bloom::decode(&data[bloom_off..index_off])
            .ok_or_else(|| KvError::Corrupt(format!("{file}: bad bloom")))?;
        let mut index = Vec::new();
        let mut pos = index_off;
        while pos < foot {
            if pos + 4 > foot {
                return Err(KvError::Corrupt(format!("{file}: bad index")));
            }
            let klen = u32::from_be_bytes(data[pos..pos + 4].try_into().expect("4")) as usize;
            pos += 4;
            if pos + klen + 8 > foot {
                return Err(KvError::Corrupt(format!("{file}: bad index entry")));
            }
            let key = data[pos..pos + klen].to_vec();
            pos += klen;
            let off = u64::from_be_bytes(data[pos..pos + 8].try_into().expect("8"));
            pos += 8;
            index.push((key, off));
        }
        let first_key = index.first().map(|(k, _)| k.clone()).unwrap_or_default();
        let mut last_key = first_key.clone();
        if let Some((_, off)) = index.last() {
            // The footer stores no key range; recover the last key by
            // scanning the final index interval.
            let tail = &data[*off as usize..bloom_off];
            for (k, _) in EntryIter::new(tail) {
                last_key = k.to_vec();
            }
        }
        Ok(SsTable {
            file: file.to_string(),
            bloom,
            index,
            entry_count,
            data_end: bloom_off as u64,
            first_key,
            last_key,
        })
    }

    /// Point lookup of `key`, whose hashes are `hash` (taken once per read,
    /// for every table it probes). `Ok(Some(None))` means a tombstone: the
    /// key is deleted at this tier and older tables must not be consulted.
    #[allow(clippy::type_complexity)]
    pub fn get(
        &self,
        vfs: &mut Vfs,
        key: &[u8],
        hash: KeyHash,
    ) -> Result<Option<Option<Vec<u8>>>, KvError> {
        if !self.bloom.maybe_contains(hash) {
            return Ok(None);
        }
        // Find the last index entry with key <= target.
        let slot = match self.index.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
            Ok(i) => i,
            Err(0) => return Ok(None), // smaller than the table's first key
            Err(i) => i - 1,
        };
        let start = self.index[slot].1;
        let end = self.index.get(slot + 1).map(|(_, o)| *o).unwrap_or(self.data_end);
        // The interval is read in place: only the value found is copied.
        let scan = |chunk: &[u8]| {
            for (k, v) in EntryIter::new(chunk) {
                match k.cmp(key) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => return Some(v.map(|v| v.to_vec())),
                    std::cmp::Ordering::Greater => return None,
                }
            }
            None
        };
        vfs.read_with(&self.file, start as usize, (end - start) as usize, scan)
            .map_err(|e| KvError::Corrupt(e.to_string()))
    }

    /// Raw entry-region bytes for the streaming k-way merge, from the
    /// sparse-index interval that may contain `from` on: a range read skips
    /// the intervals before its start. `from = None` reads the whole region,
    /// as compaction does.
    pub fn entry_region_from(&self, vfs: &mut Vfs, from: Option<&[u8]>) -> Result<Vec<u8>, KvError> {
        let start = match from {
            None => 0,
            Some(key) => match self.index.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                Ok(i) => self.index[i].1,
                Err(0) => 0,
                Err(i) => self.index[i - 1].1,
            },
        };
        vfs.read_at(&self.file, start as usize, (self.data_end - start) as usize)
            .map_err(|e| KvError::Corrupt(e.to_string()))
    }

    /// Entry count written at build time.
    pub fn len(&self) -> u64 {
        self.entry_count
    }

    /// Zero entries?
    pub fn is_empty(&self) -> bool {
        self.entry_count == 0
    }

    /// Backing file name.
    pub fn file(&self) -> &str {
        &self.file
    }

    /// File size on the VFS.
    pub fn file_size(&self, vfs: &Vfs) -> u64 {
        vfs.file_size(&self.file).unwrap_or(0)
    }

    /// Bytes of entry data (excludes bloom/index/footer) — the unit the
    /// leveled-compaction size targets and debt are measured in.
    pub fn data_bytes(&self) -> u64 {
        self.data_end
    }

    /// Smallest key in the table; `None` when empty.
    pub fn first_key(&self) -> Option<&[u8]> {
        (self.entry_count > 0).then_some(self.first_key.as_slice())
    }

    /// Largest key in the table; `None` when empty.
    pub fn last_key(&self) -> Option<&[u8]> {
        (self.entry_count > 0).then_some(self.last_key.as_slice())
    }

    /// Does `[first_key, last_key]` intersect `[lo, hi]`?
    pub fn overlaps(&self, lo: &[u8], hi: &[u8]) -> bool {
        match (self.first_key(), self.last_key()) {
            (Some(f), Some(l)) => f <= hi && lo <= l,
            _ => false,
        }
    }
}

/// Streaming parser over the entry region of an SSTable.
struct EntryIter<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> EntryIter<'a> {
    fn new(data: &'a [u8]) -> Self {
        EntryIter { data, pos: 0 }
    }
}

impl<'a> Iterator for EntryIter<'a> {
    type Item = (&'a [u8], Option<&'a [u8]>);

    fn next(&mut self) -> Option<Self::Item> {
        let d = self.data;
        if self.pos + 4 > d.len() {
            return None;
        }
        let klen = u32::from_be_bytes(d[self.pos..self.pos + 4].try_into().ok()?) as usize;
        self.pos += 4;
        if self.pos + klen + 5 > d.len() {
            return None;
        }
        let key = &d[self.pos..self.pos + klen];
        self.pos += klen;
        let tombstone = d[self.pos] == 1;
        self.pos += 1;
        let vlen = u32::from_be_bytes(d[self.pos..self.pos + 4].try_into().ok()?) as usize;
        self.pos += 4;
        if self.pos + vlen > d.len() {
            return None;
        }
        let value = &d[self.pos..self.pos + vlen];
        self.pos += vlen;
        Some((key, if tombstone { None } else { Some(value) }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table's `(key, value)` entries in key order, tombstones as `None`.
    type Entries = Vec<(Vec<u8>, Option<Vec<u8>>)>;

    /// Every entry of `t`, parsed from its whole entry region.
    fn entries_of(t: &SsTable, vfs: &mut Vfs) -> Entries {
        let region = t.entry_region_from(vfs, None).unwrap();
        EntryIter::new(&region).map(|(k, v)| (k.to_vec(), v.map(<[u8]>::to_vec))).collect()
    }

    fn entries(n: u32) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
        (0..n)
            .map(|i| {
                let key = format!("key{i:06}").into_bytes();
                if i % 7 == 3 {
                    (key, None)
                } else {
                    (key, Some(format!("value-{i}").into_bytes()))
                }
            })
            .collect()
    }

    #[test]
    fn build_and_point_read() {
        let mut vfs = Vfs::new();
        let es = entries(500);
        let t = SsTable::build(&mut vfs, "sst/1", &es, 10, 16);
        assert_eq!(t.len(), 500);
        for (k, v) in &es {
            assert_eq!(t.get(&mut vfs, k, KeyHash::of(k)).unwrap(), Some(v.clone()), "key {k:?}");
        }
    }

    #[test]
    fn missing_keys_return_none() {
        let mut vfs = Vfs::new();
        let t = SsTable::build(&mut vfs, "sst/1", &entries(100), 10, 16);
        assert_eq!(t.get(&mut vfs, b"absent", KeyHash::of(b"absent")).unwrap(), None);
        assert_eq!(t.get(&mut vfs, b"key999999", KeyHash::of(b"key999999")).unwrap(), None);
        assert_eq!(t.get(&mut vfs, b"aaa", KeyHash::of(b"aaa")).unwrap(), None); // before first key
    }

    #[test]
    fn reopen_round_trips() {
        let mut vfs = Vfs::new();
        let es = entries(200);
        SsTable::build(&mut vfs, "sst/1", &es, 10, 8);
        let t = SsTable::open(&mut vfs, "sst/1").unwrap();
        assert_eq!(t.len(), 200);
        for (k, v) in &es {
            assert_eq!(t.get(&mut vfs, k, KeyHash::of(k)).unwrap(), Some(v.clone()));
        }
        assert_eq!(entries_of(&t, &mut vfs), es);
    }

    #[test]
    fn open_rejects_corruption() {
        let mut vfs = Vfs::new();
        SsTable::build(&mut vfs, "sst/1", &entries(10), 10, 4);
        let mut data = vfs.read("sst/1").unwrap();
        let n = data.len();
        data[n - 1] ^= 0xff; // clobber magic
        vfs.write("sst/1", &data);
        assert!(matches!(SsTable::open(&mut vfs, "sst/1"), Err(KvError::Corrupt(_))));
        assert!(SsTable::open(&mut vfs, "missing").is_err());
        vfs.write("tiny", b"abc");
        assert!(SsTable::open(&mut vfs, "tiny").is_err());
    }

    #[test]
    fn empty_table() {
        let mut vfs = Vfs::new();
        let t = SsTable::build(&mut vfs, "sst/e", &Entries::new(), 10, 16);
        assert!(t.is_empty());
        assert_eq!(t.get(&mut vfs, b"x", KeyHash::of(b"x")).unwrap(), None);
        let reopened = SsTable::open(&mut vfs, "sst/e").unwrap();
        assert!(entries_of(&reopened, &mut vfs).is_empty());
    }

    #[test]
    fn tombstones_read_back_as_some_none() {
        let mut vfs = Vfs::new();
        let es = vec![(b"dead".to_vec(), None), (b"live".to_vec(), Some(b"v".to_vec()))];
        let t = SsTable::build(&mut vfs, "sst/1", &es, 10, 16);
        assert_eq!(t.get(&mut vfs, b"dead", KeyHash::of(b"dead")).unwrap(), Some(None));
        let live = t.get(&mut vfs, b"live", KeyHash::of(b"live")).unwrap();
        assert_eq!(live, Some(Some(b"v".to_vec())));
    }

    #[test]
    fn key_range_survives_reopen() {
        let mut vfs = Vfs::new();
        let es = entries(100);
        let built = SsTable::build(&mut vfs, "sst/1", &es, 10, 16);
        assert_eq!(built.first_key(), Some(b"key000000".as_slice()));
        assert_eq!(built.last_key(), Some(b"key000099".as_slice()));
        let reopened = SsTable::open(&mut vfs, "sst/1").unwrap();
        assert_eq!(reopened.first_key(), built.first_key());
        assert_eq!(reopened.last_key(), built.last_key());
        assert_eq!(reopened.data_bytes(), built.data_bytes());
        assert!(built.overlaps(b"key000050", b"zzz"));
        assert!(!built.overlaps(b"key000100", b"zzz"));
        let empty = SsTable::build(&mut vfs, "sst/e", &Entries::new(), 10, 16);
        assert_eq!(empty.first_key(), None);
        assert!(!empty.overlaps(b"", b"\xff"));
    }

    #[test]
    fn entry_region_from_resumes_mid_table() {
        let mut vfs = Vfs::new();
        let es = entries(100);
        let t = SsTable::build(&mut vfs, "sst/1", &es, 10, 8);
        // Full region parses back to every entry.
        let full = t.entry_region_from(&mut vfs, None).unwrap();
        assert_eq!(full.len() as u64, t.data_bytes());
        let all: Vec<_> = EntryIter::new(&full).map(|(k, _)| k.to_vec()).collect();
        assert_eq!(all.len(), 100);
        // Resuming after key 57 must include key 57's interval (caller
        // re-filters), and must include every later key.
        let tail = t.entry_region_from(&mut vfs, Some(b"key000057")).unwrap();
        let keys: Vec<_> = EntryIter::new(&tail).map(|(k, _)| k.to_vec()).collect();
        assert!(keys.contains(&b"key000057".to_vec()));
        assert!(keys.contains(&b"key000099".to_vec()));
        assert!(keys.len() < 100, "suffix read should skip shipped intervals");
        // Before the first key: everything.
        let head = t.entry_region_from(&mut vfs, Some(b"aaa")).unwrap();
        assert_eq!(head, full);
    }

    #[test]
    fn builder_streams_identical_bytes_to_build() {
        let mut v1 = Vfs::new();
        let mut v2 = Vfs::new();
        let es = entries(64);
        SsTable::build(&mut v1, "sst/a", &es, 10, 16);
        let mut b = TableBuilder::new(es.len(), 10, 16);
        for (k, v) in &es {
            b.add(k, v.as_deref());
        }
        b.finish(&mut v2, "sst/a");
        assert_eq!(v1.read("sst/a").unwrap(), v2.read("sst/a").unwrap());
    }

    #[test]
    fn file_size_reported() {
        let mut vfs = Vfs::new();
        let t = SsTable::build(&mut vfs, "sst/1", &entries(50), 10, 16);
        assert_eq!(t.file_size(&vfs), vfs.file_size("sst/1").unwrap());
        assert!(t.file_size(&vfs) > 0);
        assert_eq!(t.file(), "sst/1");
    }
}
