//! The LSM store proper: WAL + memtable + leveled SSTable hierarchy +
//! incremental compaction.
//!
//! Tables are organised into levels. L0 holds raw flush output — tables
//! there may overlap, so reads walk them newest-first. L1 and below hold
//! non-overlapping key ranges, each level ~`level_growth`× the size target
//! of the one above. A compaction trigger picks **one** victim table (the
//! oldest flush in L0, round-robin by key range elsewhere) plus the tables
//! it overlaps in the next level, and merges just those with a streaming
//! k-way merge — per-trigger work is bounded by the victim + fanout, never
//! the whole store. Tombstones are dropped only when every level below the
//! merge output is empty; otherwise they must survive to shadow older
//! versions. A small `manifest` file records the level structure; its
//! single atomic write is the commit point of every flush/compaction, so a
//! crash mid-merge leaves only unlisted orphan files, which `open` deletes.

use super::bloom::KeyHash;
use super::memtable::MemTable;
use super::merge::KWayMerge;
use super::sstable::{SsTable, TableBuilder};
use super::wal::Wal;
use crate::kv::{take_chunk, KvError, KvPairs, KvStore, WriteBatch};
use crate::stats::StorageStats;
use crate::vfs::Vfs;
use std::collections::HashSet;
use std::ops::Bound;
use std::sync::Arc;
use std::sync::Mutex;

/// Modeled compaction throughput (~64 MiB/s) used to convert merged bytes
/// into deterministic `write_stall_ms`. Derived from byte counts only —
/// never wall-clock — so sharded runs stay byte-identical.
const MODELED_COMPACT_BYTES_PER_MS: u64 = 67_108;

/// Per-flush cap on compaction steps. Each step is a bounded single-victim
/// merge; the cap bounds foreground latency while letting a backlog (seen
/// in `compaction_debt_bytes`) drain over subsequent flushes.
const MAX_COMPACT_STEPS_PER_FLUSH: usize = 8;

/// Tuning knobs for [`LsmStore`].
#[derive(Debug, Clone)]
pub struct LsmConfig {
    /// Flush the memtable to an SSTable once it holds this many bytes.
    pub memtable_flush_bytes: u64,
    /// Bloom filter budget.
    pub bloom_bits_per_key: u32,
    /// Sparse index interval (entries per index slot).
    pub index_interval: usize,
    /// L0 compaction trigger: start merging flushes into L1 once more than
    /// this many L0 tables exist.
    pub max_tables: usize,
    /// Size target for L1; level n targets `level_base_bytes *
    /// level_growth^(n-1)`.
    pub level_base_bytes: u64,
    /// Fanout between consecutive levels.
    pub level_growth: u64,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_flush_bytes: 1 << 20, // 1 MiB
            bloom_bits_per_key: 10,
            index_interval: 16,
            max_tables: 8,
            level_base_bytes: 8 << 20, // 8 MiB
            level_growth: 8,
        }
    }
}

/// A table plus the id its file is named after.
#[derive(Clone)]
struct Tbl {
    id: u64,
    table: SsTable,
}

/// A log-structured merge-tree key-value store over a (shared) [`Vfs`].
pub struct LsmStore {
    vfs: Arc<Mutex<Vfs>>,
    prefix: String,
    config: LsmConfig,
    wal: Wal,
    memtable: MemTable,
    /// `levels[0]`: overlapping flush output, oldest→newest (reads walk it
    /// in reverse). `levels[1..]`: disjoint ranges sorted by first key.
    levels: Vec<Vec<Tbl>>,
    next_table_id: u64,
    /// Round-robin compaction cursor per level: the upper bound of the last
    /// victim's key range, so repeated triggers sweep the whole level.
    cursors: Vec<Vec<u8>>,
    stats: StorageStats,
}

impl LsmStore {
    /// Open a store rooted at `prefix` on `vfs`, replaying any WAL tail and
    /// re-attaching existing SSTables (restart path). The manifest restores
    /// the level structure exactly, and unlisted orphan files (a crash
    /// between writing a table and committing the manifest) are deleted. A
    /// missing manifest is an empty one: every table file is then an orphan
    /// of the first flush, whose entries the WAL still holds.
    pub fn open(vfs: Arc<Mutex<Vfs>>, prefix: &str, config: LsmConfig) -> Result<LsmStore, KvError> {
        let wal_file = format!("{prefix}/wal");
        let manifest_file = format!("{prefix}/manifest");
        let (wal, table_files, manifest_bytes) = {
            let mut v = vfs.lock().unwrap();
            let wal = Wal::open(&mut v, &wal_file);
            let files = v.list(&format!("{prefix}/sst/"));
            let manifest =
                if v.exists(&manifest_file) { Some(v.read(&manifest_file).unwrap()) } else { None };
            (wal, files, manifest)
        };
        let (mut next_table_id, level_ids) = match manifest_bytes {
            Some(bytes) => parse_manifest(&bytes, prefix)?,
            None => (0, Vec::new()),
        };
        let mut levels: Vec<Vec<Tbl>> = vec![Vec::new()];
        let mut listed = HashSet::new();
        for (n, ids) in level_ids.iter().enumerate() {
            while levels.len() <= n {
                levels.push(Vec::new());
            }
            for &id in ids {
                let file = format!("{prefix}/sst/{id:012}");
                let table = SsTable::open(&mut vfs.lock().unwrap(), &file)?;
                next_table_id = next_table_id.max(id + 1);
                listed.insert(file);
                levels[n].push(Tbl { id, table });
            }
        }
        // Orphans: tables whose manifest commit never happened, or merge
        // inputs whose deletion didn't. Either way the manifest is the
        // truth; drop them before they can shadow or resurrect anything.
        for file in table_files.iter().filter(|file| !listed.contains(*file)) {
            vfs.lock().unwrap().delete(file);
        }
        let mut store = LsmStore {
            vfs,
            prefix: prefix.to_string(),
            config,
            wal,
            memtable: MemTable::new(),
            levels,
            next_table_id,
            cursors: Vec::new(),
            stats: StorageStats::default(),
        };
        // Recover the un-flushed tail. A torn or corrupt final frame (crash
        // mid-append, bit rot) ends the valid prefix: truncate it away and
        // continue — the checksummed frames before it are intact, and
        // everything after would have failed its fsync anyway.
        let replay = store.wal.replay_with_stats(&mut store.vfs.lock().unwrap());
        store.stats.wal_records_replayed = replay.batches.len() as u64;
        if replay.torn {
            store.stats.wal_tail_truncated = 1;
            store.vfs.lock().unwrap().truncate(&wal_file, replay.valid_len);
        }
        for ops in replay.batches {
            store.memtable.apply(ops);
        }
        store.refresh_debt();
        Ok(store)
    }

    /// Convenience constructor owning a private VFS.
    pub fn new_private(config: LsmConfig) -> LsmStore {
        LsmStore::open(Arc::new(Mutex::new(Vfs::new())), "lsm", config)
            .expect("fresh VFS cannot be corrupt")
    }

    fn sst_file(&self, id: u64) -> String {
        format!("{}/sst/{:012}", self.prefix, id)
    }

    /// Persist the level structure. One atomic `write` — this is the commit
    /// point for every flush and compaction.
    fn write_manifest(&mut self) {
        let mut text = String::from("BBLSM v1\n");
        text.push_str(&format!("next {}\n", self.next_table_id));
        for (n, lvl) in self.levels.iter().enumerate() {
            text.push_str(&format!("L{n}"));
            for t in lvl {
                text.push_str(&format!(" {}", t.id));
            }
            text.push('\n');
        }
        let file = format!("{}/manifest", self.prefix);
        self.vfs.lock().unwrap().write(&file, text.as_bytes());
    }

    fn flush_memtable(&mut self) {
        if self.memtable.is_empty() {
            return;
        }
        let entries = self.memtable.drain_sorted();
        let id = self.next_table_id;
        self.next_table_id += 1;
        let file = self.sst_file(id);
        let table = {
            let mut v = self.vfs.lock().unwrap();
            SsTable::build(
                &mut v,
                &file,
                &entries,
                self.config.bloom_bits_per_key,
                self.config.index_interval,
            )
        };
        self.levels[0].push(Tbl { id, table });
        self.stats.flushes += 1;
        // Commit the new table before resetting the WAL: a crash between
        // the two replays the same entries on top of the table — idempotent
        // — while the reverse order would lose them.
        self.write_manifest();
        self.wal.reset(&mut self.vfs.lock().unwrap());
        for _ in 0..MAX_COMPACT_STEPS_PER_FLUSH {
            if !self.compact_step() {
                break;
            }
        }
        self.refresh_debt();
    }

    /// First level with an armed compaction trigger, L0 before deeper
    /// backlog: overlapping L0 tables hurt reads most.
    fn pick_trigger(&self) -> Option<usize> {
        if self.levels[0].len() > self.config.max_tables {
            return Some(0);
        }
        (1..self.levels.len()).find(|&n| self.level_bytes(n) > self.level_target(n))
    }

    fn level_bytes(&self, n: usize) -> u64 {
        self.levels[n].iter().map(|t| t.table.data_bytes()).sum()
    }

    fn level_target(&self, n: usize) -> u64 {
        self.config
            .level_base_bytes
            .saturating_mul(self.config.level_growth.saturating_pow(n.saturating_sub(1) as u32))
    }

    /// Bytes sitting above the level size targets — the compactor's unpaid
    /// backlog. Recomputed after every structural change.
    fn refresh_debt(&mut self) {
        let mut debt = 0u64;
        let l0 = &self.levels[0];
        if l0.len() > self.config.max_tables {
            let excess = l0.len() - self.config.max_tables;
            debt += l0.iter().take(excess).map(|t| t.table.data_bytes()).sum::<u64>();
        }
        for n in 1..self.levels.len() {
            debt += self.level_bytes(n).saturating_sub(self.level_target(n));
        }
        self.stats.compaction_debt_bytes = debt;
    }

    /// Run at most one bounded merge: the first armed trigger's victim plus
    /// its next-level overlap. Returns whether any work was done. Public so
    /// kernels and tests can drive compaction explicitly.
    pub fn compact_step(&mut self) -> bool {
        let Some(n) = self.pick_trigger() else {
            self.refresh_debt();
            return false;
        };
        self.compact_from(n);
        self.refresh_debt();
        true
    }

    fn compact_from(&mut self, n: usize) {
        // Victim: the *oldest* L0 flush (anything newer left behind in L0
        // still shadows the merge output below), round-robin by key range
        // elsewhere so repeated triggers sweep the level.
        let victim = if n == 0 {
            self.levels[0].remove(0)
        } else {
            let cursor = self.cursors.get(n).cloned().unwrap_or_default();
            let idx = self.levels[n]
                .iter()
                .position(|t| t.table.first_key().is_some_and(|f| f > cursor.as_slice()))
                .unwrap_or(0);
            self.levels[n].remove(idx)
        };
        let Some((lo, hi)) = victim
            .table
            .first_key()
            .zip(victim.table.last_key())
            .map(|(f, l)| (f.to_vec(), l.to_vec()))
        else {
            // An empty table carries no data; just drop it.
            self.vfs.lock().unwrap().delete(victim.table.file());
            self.stats.compactions += 1;
            self.write_manifest();
            return;
        };
        if self.cursors.len() <= n {
            self.cursors.resize(n + 1, Vec::new());
        }
        self.cursors[n] = hi.clone();
        let out_level = n + 1;
        while self.levels.len() <= out_level {
            self.levels.push(Vec::new());
        }
        // Pull the overlapping next-level tables — with disjoint L1+ ranges
        // that is the victim's fanout, never the whole level.
        let mut overlaps = Vec::new();
        let mut i = 0;
        while i < self.levels[out_level].len() {
            if self.levels[out_level][i].table.overlaps(&lo, &hi) {
                overlaps.push(self.levels[out_level].remove(i));
            } else {
                i += 1;
            }
        }
        if overlaps.is_empty() && n > 0 {
            // Trivial move: nothing to merge with, so the file is re-linked
            // a level down without rewriting a byte. (L0 victims are always
            // rewritten: flush tables are memtable-sized, and merging them
            // — even alone — bounds L1 table granularity.)
            self.stats.compactions += 1;
            self.levels[out_level].push(victim);
            self.levels[out_level]
                .sort_by(|a, b| a.table.first_key().cmp(&b.table.first_key()));
            self.write_manifest();
            return;
        }
        let mut input_bytes = victim.table.data_bytes();
        let mut expected = victim.table.len();
        let mut sources = Vec::new();
        {
            let mut v = self.vfs.lock().unwrap();
            // Newest source first: the victim came from above, so it
            // shadows everything it meets in the output level.
            sources.push(victim.table.entry_region_from(&mut v, None).expect("own table readable"));
            for t in &overlaps {
                input_bytes += t.table.data_bytes();
                expected += t.table.len();
                sources.push(t.table.entry_region_from(&mut v, None).expect("own table readable"));
            }
        }
        // Tombstones exist to shadow older versions; once nothing lives
        // below the output level there is nothing left to shadow.
        let drop_tombstones = self.levels[out_level + 1..].iter().all(|l| l.is_empty());
        let max_output = self.config.memtable_flush_bytes.saturating_mul(2).max(1);
        let mut outputs: Vec<Tbl> = Vec::new();
        let mut builder: Option<TableBuilder> = None;
        for (key, value) in KWayMerge::new(sources) {
            if value.is_none() && drop_tombstones {
                continue;
            }
            let b = builder.get_or_insert_with(|| {
                TableBuilder::new(
                    expected as usize,
                    self.config.bloom_bits_per_key,
                    self.config.index_interval,
                )
            });
            b.add(&key, value.as_deref());
            if b.data_bytes() >= max_output {
                let full = builder.take().expect("just inserted");
                outputs.push(self.finish_output(full));
            }
        }
        if let Some(b) = builder {
            if b.entry_count() > 0 {
                outputs.push(self.finish_output(b));
            }
        }
        self.levels[out_level].extend(outputs);
        self.levels[out_level].sort_by(|a, b| a.table.first_key().cmp(&b.table.first_key()));
        self.stats.compactions += 1;
        self.stats.bytes_compacted += input_bytes;
        self.stats.write_stall_ms += 1 + input_bytes / MODELED_COMPACT_BYTES_PER_MS;
        // Commit point: the manifest names the outputs and drops the
        // inputs. Only after it lands do the input files go away; a crash
        // anywhere in this window leaves orphans that `open` deletes.
        self.write_manifest();
        let mut v = self.vfs.lock().unwrap();
        for t in std::iter::once(&victim).chain(&overlaps) {
            v.delete(t.table.file());
        }
    }

    fn finish_output(&mut self, builder: TableBuilder) -> Tbl {
        let id = self.next_table_id;
        self.next_table_id += 1;
        let file = self.sst_file(id);
        let table = builder.finish(&mut self.vfs.lock().unwrap(), &file);
        Tbl { id, table }
    }

    /// Force a flush (platforms call this at block boundaries in tests).
    pub fn flush(&mut self) {
        self.flush_memtable();
    }

    /// Number of SSTables currently live across all levels.
    pub fn table_count(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }

    /// Tables per level, L0 first — test/diagnostic introspection.
    pub fn level_table_counts(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.len()).collect()
    }

    /// The allocation the memtable holds for `key`'s live value, if it
    /// holds one: which caller's bytes a batch moved in (tests of sharing
    /// across replicas read it).
    pub fn memtable_value(&self, key: &[u8]) -> Option<&Arc<[u8]>> {
        self.memtable.value_arc(key)
    }

    /// Shared VFS handle.
    pub fn vfs(&self) -> Arc<Mutex<Vfs>> {
        Arc::clone(&self.vfs)
    }

    /// The one range read of both scans: the live pairs from `start` on,
    /// in key order, from one streaming merge, newest source first — the
    /// memtable's entries from `start`, then every live table that does not
    /// end before it (L0 newest→oldest, then the deeper levels), each read
    /// from its sparse-index seek point. A call copies the suffix of every
    /// such table, however few pairs the caller takes, so a whole transfer
    /// copies each table once per chunk that reaches into it.
    fn live_from<'a>(
        &self,
        start: Bound<&'a [u8]>,
    ) -> Result<impl Iterator<Item = (Vec<u8>, Vec<u8>)> + 'a, KvError> {
        let from = match start {
            Bound::Included(key) | Bound::Excluded(key) => Some(key),
            Bound::Unbounded => None,
        };
        let mut sources = vec![Self::encode_region(self.memtable.range_from(start))];
        let mut v = self.vfs.lock().unwrap();
        let tables = self.levels[0].iter().rev().chain(self.levels[1..].iter().flatten());
        for t in tables {
            if t.table.last_key().is_some_and(|last| precedes(last, start)) {
                continue; // wholly before the start
            }
            sources.push(t.table.entry_region_from(&mut v, from)?);
        }
        // A sparse-index seek lands at or before the start, and tombstones
        // only shadow: keep the live pairs from it on.
        Ok(KWayMerge::new(sources)
            .skip_while(move |(key, _)| precedes(key, start))
            .filter_map(|(key, value)| Some((key, value?))))
    }

    /// Encode sorted entries in the SSTable entry-region format so the
    /// memtable can join a [`KWayMerge`] as the newest source.
    fn encode_region<'a>(entries: impl Iterator<Item = (&'a [u8], Option<&'a [u8]>)>) -> Vec<u8> {
        let mut out = Vec::new();
        for (k, v) in entries {
            out.extend_from_slice(&(k.len() as u32).to_be_bytes());
            out.extend_from_slice(k);
            match v {
                Some(v) => {
                    out.push(0);
                    out.extend_from_slice(&(v.len() as u32).to_be_bytes());
                    out.extend_from_slice(v);
                }
                None => {
                    out.push(1);
                    out.extend_from_slice(&0u32.to_be_bytes());
                }
            }
        }
        out
    }
}

/// Does `key` sort before the range that starts at `start`?
fn precedes(key: &[u8], start: Bound<&[u8]>) -> bool {
    match start {
        Bound::Included(s) => key < s,
        Bound::Excluded(s) => key <= s,
        Bound::Unbounded => false,
    }
}

/// Parse the manifest: `BBLSM v1`, `next <id>`, then one `L<n> <id>...`
/// line per level.
fn parse_manifest(bytes: &[u8], prefix: &str) -> Result<(u64, Vec<Vec<u64>>), KvError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| KvError::Corrupt(format!("{prefix}/manifest: not utf-8")))?;
    let mut lines = text.lines();
    if lines.next() != Some("BBLSM v1") {
        return Err(KvError::Corrupt(format!("{prefix}/manifest: bad header")));
    }
    let mut next = 0u64;
    let mut levels: Vec<Vec<u64>> = Vec::new();
    for line in lines {
        if let Some(rest) = line.strip_prefix("next ") {
            next = rest
                .trim()
                .parse()
                .map_err(|_| KvError::Corrupt(format!("{prefix}/manifest: bad next id")))?;
        } else if let Some(rest) = line.strip_prefix('L') {
            let mut parts = rest.split_whitespace();
            let n: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| KvError::Corrupt(format!("{prefix}/manifest: bad level line")))?;
            while levels.len() <= n {
                levels.push(Vec::new());
            }
            for p in parts {
                let id = p
                    .parse()
                    .map_err(|_| KvError::Corrupt(format!("{prefix}/manifest: bad table id")))?;
                levels[n].push(id);
            }
        } else if !line.trim().is_empty() {
            return Err(KvError::Corrupt(format!("{prefix}/manifest: unknown line")));
        }
    }
    Ok((next, levels))
}

impl KvStore for LsmStore {
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        self.stats.reads += 1;
        if let Some(hit) = self.memtable.get(key) {
            return Ok(hit.map(|v| v.to_vec()));
        }
        // Both bloom hashes at most once, at the first table probed.
        let mut hashed = None;
        let mut hash = || *hashed.get_or_insert_with(|| KeyHash::of(key));
        // L0 may overlap: newest table first.
        for t in self.levels[0].iter().rev() {
            if let Some(hit) = t.table.get(&mut self.vfs.lock().unwrap(), key, hash())? {
                return Ok(hit);
            }
        }
        // L1+ are disjoint and sorted: at most one candidate per level.
        for n in 1..self.levels.len() {
            let lvl = &self.levels[n];
            let i = lvl.partition_point(|t| t.table.first_key().is_some_and(|f| f <= key));
            if i == 0 {
                continue;
            }
            let t = &lvl[i - 1];
            if t.table.last_key().is_some_and(|l| l >= key) {
                if let Some(hit) = t.table.get(&mut self.vfs.lock().unwrap(), key, hash())? {
                    return Ok(hit);
                }
            }
        }
        Ok(None)
    }

    /// One WAL record, one memtable pass, one flush check. The WAL copies
    /// each byte once, or appends the frame a byte-equal batch's slot
    /// already holds; the memtable takes the batch's allocations themselves.
    fn apply_batch(&mut self, batch: WriteBatch) -> Result<(), KvError> {
        if batch.is_empty() {
            return Ok(());
        }
        let (ops, frame) = batch.into_parts();
        self.stats.writes += ops.len() as u64;
        self.stats.batch_writes += 1;
        self.stats.logical_bytes += ops
            .iter()
            .map(|(k, v)| (k.len() + v.as_ref().map_or(0, |v| v.len())) as u64)
            .sum::<u64>();
        self.wal.log_batch(&mut self.vfs.lock().unwrap(), &ops, frame.as_ref());
        self.memtable.apply(ops);
        if self.memtable.approx_bytes() >= self.config.memtable_flush_bytes {
            self.flush_memtable();
        }
        Ok(())
    }

    fn scan_prefix(&mut self, prefix: &[u8]) -> Result<KvPairs, KvError> {
        let out: KvPairs = self
            .live_from(Bound::Included(prefix))?
            .take_while(|(key, _)| key.starts_with(prefix))
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
        let (out, done) = take_chunk(self.live_from(start)?, max_bytes);
        self.stats.reads += out.len() as u64;
        Ok((out, done))
    }

    fn stats(&self) -> StorageStats {
        let mut s = self.stats;
        let v = self.vfs.lock().unwrap();
        s.disk_bytes = v.disk_usage();
        s.bytes_written = v.bytes_written();
        s.bytes_read = v.bytes_read();
        s.mem_bytes = self.memtable.approx_bytes();
        s
    }
}

/// A second disk, not a second handle: the copy owns a copy of the [`Vfs`]
/// (file bytes, I/O counters, fault settings; sealed tables shared
/// copy-on-write, as `Vfs`'s `Clone` does) behind a fresh `Arc<Mutex<_>>`,
/// plus its own memtable, table handles and counters.
/// At the moment of the copy both stores read, count and recover alike;
/// afterwards a write, fault or compaction on one never reaches the other,
/// so a copy is also a frozen view to read in chunks while the original
/// keeps writing and deleting what it compacts.
/// Written by hand because the derive would alias the one disk.
impl Clone for LsmStore {
    fn clone(&self) -> LsmStore {
        let disk = self.vfs.lock().unwrap().clone();
        LsmStore {
            vfs: Arc::new(Mutex::new(disk)),
            prefix: self.prefix.clone(),
            config: self.config.clone(),
            wal: self.wal.clone(),
            memtable: self.memtable.clone(),
            levels: self.levels.clone(),
            next_table_id: self.next_table_id,
            cursors: self.cursors.clone(),
            stats: self.stats,
        }
    }
}

impl std::fmt::Debug for LsmStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsmStore")
            .field("prefix", &self.prefix)
            .field("tables", &self.table_count())
            .field("memtable_entries", &self.memtable.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{FrameSlot, KvOps, OneOp};

    fn small_config() -> LsmConfig {
        LsmConfig { memtable_flush_bytes: 2048, max_tables: 3, ..LsmConfig::default() }
    }

    #[test]
    fn put_get_delete_across_flushes() {
        let mut s = LsmStore::new_private(small_config());
        for i in 0..500u32 {
            s.put_one(format!("k{i:05}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        assert!(s.table_count() >= 1, "flushes should have happened");
        for i in 0..500u32 {
            assert_eq!(
                s.get(format!("k{i:05}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes())
            );
        }
        s.delete_one(b"k00042").unwrap();
        assert_eq!(s.get(b"k00042").unwrap(), None);
        assert_eq!(s.get(b"k00043").unwrap(), Some(b"v43".to_vec()));
    }

    #[test]
    fn overwrites_resolve_newest_wins_across_tables() {
        let mut s = LsmStore::new_private(small_config());
        for round in 0..5u32 {
            for i in 0..100u32 {
                s.put_one(format!("k{i:03}").as_bytes(), format!("r{round}").as_bytes()).unwrap();
            }
            s.flush();
        }
        for i in 0..100u32 {
            assert_eq!(s.get(format!("k{i:03}").as_bytes()).unwrap(), Some(b"r4".to_vec()));
        }
    }

    #[test]
    fn compaction_bounds_table_count_and_drops_garbage() {
        let mut s = LsmStore::new_private(LsmConfig {
            memtable_flush_bytes: 512,
            max_tables: 2,
            ..LsmConfig::default()
        });
        for round in 0..20u32 {
            for i in 0..20u32 {
                s.put_one(format!("k{i:02}").as_bytes(), format!("round{round}data").as_bytes())
                    .unwrap();
            }
        }
        s.flush();
        // Leveled bound: <= max_tables L0 flushes plus the handful of
        // split merge outputs in L1 — 400 shadowed versions collapse into
        // a few tables' worth of live data.
        assert!(s.table_count() <= 4, "table_count {} (levels {:?})", s.table_count(), s.level_table_counts());
        assert!(s.stats().compactions > 0);
        assert!(s.stats().bytes_compacted > 0, "merges should report their input volume");
        // Obsolete inputs are deleted, not just dropped from the manifest.
        let on_disk = s.vfs().lock().unwrap().list("lsm/sst/").len();
        assert_eq!(on_disk, s.table_count(), "orphan SSTable files left behind");
        for i in 0..20u32 {
            assert_eq!(s.get(format!("k{i:02}").as_bytes()).unwrap(), Some(b"round19data".to_vec()));
        }
    }

    #[test]
    fn tombstones_survive_compaction_semantics() {
        let mut s = LsmStore::new_private(LsmConfig {
            memtable_flush_bytes: 256,
            max_tables: 2,
            ..LsmConfig::default()
        });
        s.put_one(b"doomed", b"v").unwrap();
        s.flush();
        s.delete_one(b"doomed").unwrap();
        s.flush();
        // Force compactions with filler.
        for i in 0..200u32 {
            s.put_one(format!("fill{i:04}").as_bytes(), b"x").unwrap();
        }
        s.flush();
        assert_eq!(s.get(b"doomed").unwrap(), None);
    }

    #[test]
    fn restart_recovers_wal_and_tables() {
        let vfs = Arc::new(Mutex::new(Vfs::new()));
        {
            let mut s = LsmStore::open(Arc::clone(&vfs), "db", small_config()).unwrap();
            for i in 0..300u32 {
                s.put_one(format!("k{i:04}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
            }
            // Some entries flushed to SSTables, the tail only in the WAL.
            s.put_one(b"tail", b"unflushed").unwrap();
            // Store dropped without a final flush: simulated crash.
        }
        let mut s = LsmStore::open(vfs, "db", small_config()).unwrap();
        assert_eq!(s.get(b"tail").unwrap(), Some(b"unflushed".to_vec()));
        for i in 0..300u32 {
            assert_eq!(
                s.get(format!("k{i:04}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes()),
                "key {i} lost on restart"
            );
        }
    }

    #[test]
    fn crash_before_the_first_manifest_commit_replays_the_wal() {
        // The first flush writes its table, commits the first manifest and
        // only then resets the WAL. A crash between the table and the
        // manifest leaves a table file, no manifest and the whole WAL: the
        // table is an orphan, and replaying the WAL recovers its entries.
        let vfs = Arc::new(Mutex::new(Vfs::new()));
        let entries: Vec<(Vec<u8>, Option<Vec<u8>>)> = (0..50u32)
            .map(|i| (format!("k{i:03}").into_bytes(), Some(format!("v{i}").into_bytes())))
            .collect();
        {
            let mut s = LsmStore::open(Arc::clone(&vfs), "db", LsmConfig::default()).unwrap();
            for (k, v) in &entries {
                s.put_one(k, v.as_deref().unwrap()).unwrap();
            }
            assert_eq!(s.table_count(), 0, "the entries must still be in the memtable");
            SsTable::build(&mut vfs.lock().unwrap(), "db/sst/000000000000", &entries, 10, 16);
        }
        assert!(!vfs.lock().unwrap().exists("db/manifest"));
        let mut s = LsmStore::open(Arc::clone(&vfs), "db", LsmConfig::default()).unwrap();
        assert!(vfs.lock().unwrap().list("db/sst/").is_empty(), "orphan table kept");
        assert_eq!(s.stats().wal_records_replayed, 50);
        for i in 0..50u32 {
            let value = s.get(format!("k{i:03}").as_bytes()).unwrap();
            assert_eq!(value, Some(format!("v{i}").into_bytes()));
        }
        // And the store keeps working: the next flush commits a manifest.
        s.flush();
        assert!(vfs.lock().unwrap().exists("db/manifest"));
        assert_eq!(s.table_count(), 1);
        assert_eq!(s.get(b"k049").unwrap(), Some(b"v49".to_vec()));
    }

    #[test]
    fn scan_prefix_merges_all_tiers() {
        let mut s = LsmStore::new_private(small_config());
        s.put_one(b"acct:1", b"old").unwrap();
        s.put_one(b"acct:2", b"two").unwrap();
        s.flush();
        s.put_one(b"acct:1", b"new").unwrap(); // shadow in memtable
        s.put_one(b"acct:3", b"three").unwrap();
        s.delete_one(b"acct:2").unwrap(); // tombstone in memtable
        s.put_one(b"other:9", b"no").unwrap();
        let hits = s.scan_prefix(b"acct:").unwrap();
        assert_eq!(
            hits,
            vec![
                (b"acct:1".to_vec(), b"new".to_vec()),
                (b"acct:3".to_vec(), b"three".to_vec()),
            ]
        );
    }

    #[test]
    fn stats_reflect_disk_and_memory() {
        let mut s = LsmStore::new_private(small_config());
        for i in 0..100u32 {
            s.put_one(format!("key{i:08}").as_bytes(), &[0u8; 100]).unwrap();
        }
        let st = s.stats();
        assert_eq!(st.writes, 100);
        assert!(st.disk_bytes > 0);
        assert!(st.bytes_written >= st.disk_bytes);
        assert!(st.flushes > 0);
        assert_eq!(st.logical_bytes, 100 * (11 + 100), "keys + values accepted");
        assert!(st.write_amp().unwrap() >= 1.0, "WAL + tables cost at least the payload");
    }

    #[test]
    fn batch_applies_atomically_and_recovers() {
        let vfs = Arc::new(Mutex::new(Vfs::new()));
        {
            let mut s = LsmStore::open(Arc::clone(&vfs), "db", small_config()).unwrap();
            s.put_one(b"stale", b"old").unwrap();
            let mut b = WriteBatch::new();
            b.put(b"a", b"1");
            b.put(b"stale", b"new");
            b.delete(b"missing");
            b.put(b"b", b"2");
            s.apply_batch(b).unwrap();
            assert_eq!(s.get(b"a").unwrap(), Some(b"1".to_vec()));
            assert_eq!(s.get(b"stale").unwrap(), Some(b"new".to_vec()));
            let st = s.stats();
            assert_eq!(st.writes, 5, "batch ops count as writes");
            assert_eq!(st.batch_writes, 2, "the one-op write and the batch");
            // Dropped without flush: the batch must recover from its single
            // WAL record.
        }
        let mut s = LsmStore::open(vfs, "db", small_config()).unwrap();
        assert_eq!(s.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(s.get(b"b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(s.get(b"stale").unwrap(), Some(b"new".to_vec()));
    }

    #[test]
    fn batch_wal_overhead_is_one_record() {
        // N per-op puts pay N record frames; one N-op batch pays one.
        let payload: Vec<(Vec<u8>, Option<Vec<u8>>)> = (0..50u32)
            .map(|i| (format!("key{i:04}").into_bytes(), Some(vec![7u8; 40])))
            .collect();
        let mut single = LsmStore::new_private(LsmConfig::default());
        for (k, v) in &payload {
            single.put_one(k, v.as_ref().unwrap()).unwrap();
        }
        let mut batched = LsmStore::new_private(LsmConfig::default());
        let mut b = WriteBatch::new();
        for (k, v) in &payload {
            b.put(k, v.as_ref().unwrap());
        }
        batched.apply_batch(b).unwrap();
        assert!(
            batched.stats().bytes_written < single.stats().bytes_written,
            "batched WAL {} >= per-op WAL {}",
            batched.stats().bytes_written,
            single.stats().bytes_written
        );
        // Same logical state either way.
        for (k, v) in &payload {
            assert_eq!(batched.get(k).unwrap().as_deref(), v.as_deref());
        }
    }

    #[test]
    fn apply_batch_moves_shared_bytes_into_the_memtable() {
        let mut s = LsmStore::new_private(LsmConfig::default());
        let key: Arc<[u8]> = Arc::from(&b"node-hash"[..]);
        let value: Arc<[u8]> = Arc::from(&b"node-bytes"[..]);
        let mut b = WriteBatch::new();
        b.put(Arc::clone(&key), Arc::clone(&value));
        b.put(b"copied", b"once");
        s.apply_batch(b).unwrap();
        assert!(Arc::ptr_eq(s.memtable.value_arc(&key).unwrap(), &value));
        assert_eq!(Arc::strong_count(&key), 2, "the memtable holds the batch's key");
        assert_eq!(s.get(b"copied").unwrap(), Some(b"once".to_vec()));
        // The WAL holds its own copy: a reopened store reads the same bytes.
        let vfs = s.vfs();
        drop(s);
        let mut s = LsmStore::open(vfs, "lsm", LsmConfig::default()).unwrap();
        assert_eq!(s.stats().wal_records_replayed, 1);
        assert_eq!(s.get(&key).unwrap(), Some(value.to_vec()));
    }

    /// A batch applied through an empty frame slot (framed in place) and
    /// the same batch applied through the slot it filled, on a clone of the
    /// same disk, land alike: the whole disks are equal — files, op charge,
    /// `bytes_written`, the last-append marker, `enospc_hits` — with and
    /// without a capacity that tears the append, and both disks reopen to
    /// the same records.
    #[test]
    fn shared_frame_lands_like_a_framed_one() {
        let ops: KvOps = vec![
            (Arc::from(&b"alpha"[..]), Some(Arc::from(&b"one"[..]))),
            (Arc::from(&b"beta"[..]), None),
            (Arc::from(&b"gamma-key-longer-than-a-word"[..]), Some(Arc::from(&[7u8; 19][..]))),
        ];
        let batch = |slot: &FrameSlot| {
            let mut b = WriteBatch::new();
            for (k, v) in &ops {
                match v {
                    Some(v) => b.put(Arc::clone(k), Arc::clone(v)),
                    None => b.delete(Arc::clone(k)),
                }
            }
            b.share_frame(Arc::clone(slot));
            b
        };
        for tear in [false, true] {
            let mut framed = LsmStore::new_private(LsmConfig::default());
            framed.put_one(b"before", b"x").unwrap();
            let vfs = framed.vfs();
            vfs.lock().unwrap().set_op_latency_us(3);
            if tear {
                let used = vfs.lock().unwrap().disk_usage();
                vfs.lock().unwrap().set_capacity(Some(used + 20));
            }
            let mut shared = framed.clone();
            let slot = FrameSlot::default();
            framed.apply_batch(batch(&slot)).unwrap();
            let frame = slot.get().expect("the store that framed the batch filled the slot");
            let wal_len = framed.vfs().lock().unwrap().file_size(framed.wal.file()).unwrap();
            assert_eq!(frame.len(), 13 + 86, "the slot holds the whole frame, torn or not");
            // The one-op "before" batch's frame is 33 bytes.
            assert_eq!(wal_len as usize, 33 + if tear { 20 } else { frame.len() }, "tear {tear}");
            shared.apply_batch(batch(&slot)).unwrap();
            let disk = |s: &LsmStore| s.vfs().lock().unwrap().clone();
            assert_eq!(disk(&shared), disk(&framed), "tear {tear}");
            assert_eq!(disk(&shared).enospc_hits(), tear as u64);
            assert_eq!(shared.stats(), framed.stats(), "tear {tear}");
            let replayed = |s: &LsmStore| {
                let mut v = disk(s);
                v.set_capacity(None);
                let vfs = Arc::new(Mutex::new(v));
                let mut s = LsmStore::open(Arc::clone(&vfs), "lsm", LsmConfig::default()).unwrap();
                let records = s.wal.replay(&mut vfs.lock().unwrap());
                (records, s.scan_prefix(b"").unwrap())
            };
            let (records, contents) = replayed(&framed);
            assert_eq!(replayed(&shared), (records.clone(), contents), "tear {tear}");
            assert_eq!(records.len(), if tear { 1 } else { 2 }, "tear {tear}");
        }
    }

    #[test]
    fn open_truncates_torn_tail_and_reports_it() {
        let vfs = Arc::new(Mutex::new(Vfs::new()));
        {
            let mut s = LsmStore::open(Arc::clone(&vfs), "db", LsmConfig::default()).unwrap();
            s.put_one(b"durable", b"yes").unwrap();
        }
        // Crash mid-append: a frame header with no body.
        vfs.lock().unwrap().append("db/wal", &[1, 0, 0, 0, 99]);
        let wal_len_before = vfs.lock().unwrap().file_size("db/wal").unwrap();
        let mut s = LsmStore::open(Arc::clone(&vfs), "db", LsmConfig::default()).unwrap();
        assert_eq!(s.get(b"durable").unwrap(), Some(b"yes".to_vec()));
        let st = s.stats();
        assert_eq!(st.wal_records_replayed, 1);
        assert_eq!(st.wal_tail_truncated, 1);
        // Truncate-and-continue: the torn suffix is physically gone, so the
        // store can keep appending and a third open replays cleanly.
        assert!(vfs.lock().unwrap().file_size("db/wal").unwrap() < wal_len_before);
        s.put_one(b"after", b"recovery").unwrap();
        drop(s);
        let mut s = LsmStore::open(vfs, "db", LsmConfig::default()).unwrap();
        assert_eq!(s.get(b"after").unwrap(), Some(b"recovery".to_vec()));
        assert_eq!(s.stats().wal_tail_truncated, 0);
        assert_eq!(s.stats().wal_records_replayed, 2);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut s = LsmStore::new_private(small_config());
        s.apply_batch(WriteBatch::new()).unwrap();
        let st = s.stats();
        assert_eq!((st.writes, st.batch_writes, st.bytes_written), (0, 0, 0));
    }

    #[test]
    fn empty_store_reads() {
        let mut s = LsmStore::new_private(LsmConfig::default());
        assert_eq!(s.get(b"nothing").unwrap(), None);
        assert!(s.scan_prefix(b"x").unwrap().is_empty());
        s.flush(); // flushing an empty memtable is a no-op
        assert_eq!(s.table_count(), 0);
    }
}

/// Leveled-compaction specifics: bounded per-trigger work, level
/// invariants, tombstone placement, chunked reads of a frozen copy.
#[cfg(test)]
mod leveled_tests {
    use super::*;
    use crate::kv::OneOp;
    use bb_sim::SimRng;

    fn leveled_config() -> LsmConfig {
        LsmConfig {
            memtable_flush_bytes: 2048,
            max_tables: 2,
            level_base_bytes: 8192,
            level_growth: 4,
            ..LsmConfig::default()
        }
    }

    /// The acceptance criterion for incremental compaction: per-trigger
    /// merge volume stays flat while total data grows ~10×. The old full
    /// compaction re-read every table per trigger, so its per-trigger bytes
    /// grew linearly with the store.
    #[test]
    fn bytes_compacted_per_trigger_stays_flat_as_data_grows() {
        let mut rng = SimRng::seed_from_u64(0xC0_FFEE);
        let mut s = LsmStore::new_private(leveled_config());
        let write = |s: &mut LsmStore, n: usize, rng: &mut SimRng| {
            for _ in 0..n {
                let key = rng.below(u64::MAX).to_be_bytes();
                s.put_one(&key, &[0xAB; 16]).unwrap();
            }
        };
        write(&mut s, 400, &mut rng);
        let early = s.stats();
        assert!(early.compactions > 0, "phase 1 must exercise compaction");
        let early_per_trigger = early.bytes_compacted / early.compactions;
        write(&mut s, 3600, &mut rng);
        let late = s.stats();
        assert!(late.logical_bytes >= 9 * early.logical_bytes, "data should have grown ~10x");
        let late_per_trigger =
            (late.bytes_compacted - early.bytes_compacted) / (late.compactions - early.compactions);
        assert!(
            late_per_trigger <= early_per_trigger * 3,
            "per-trigger compaction grew with the store: early {early_per_trigger} late {late_per_trigger}"
        );
        // Observability: the cost model is visible, and the backlog stays
        // bounded by the level targets, not the data volume.
        assert!(late.write_stall_ms > 0);
        assert!(late.write_amp().unwrap() > 1.0);
        assert!(
            late.compaction_debt_bytes < late.disk_bytes / 2,
            "debt {} vs disk {}: compactor fell behind",
            late.compaction_debt_bytes,
            late.disk_bytes
        );
    }

    #[test]
    fn levels_below_l0_stay_disjoint_and_sorted() {
        let mut rng = SimRng::seed_from_u64(0x1E_7E1);
        let mut s = LsmStore::new_private(leveled_config());
        for _ in 0..3000 {
            let key = rng.below(1 << 32).to_be_bytes();
            s.put_one(&key, &[1; 24]).unwrap();
        }
        s.flush();
        assert!(s.levels.len() > 1, "load should have spilled past L0");
        for lvl in s.levels.iter().skip(1) {
            for pair in lvl.windows(2) {
                let left_hi = pair[0].table.last_key().expect("non-empty");
                let right_lo = pair[1].table.first_key().expect("non-empty");
                assert!(left_hi < right_lo, "overlapping tables below L0");
            }
        }
        // Every key readable after all that churn.
        let mut check = SimRng::seed_from_u64(0x1E_7E1);
        for _ in 0..3000 {
            let key = check.below(1 << 32).to_be_bytes();
            assert_eq!(s.get(&key).unwrap(), Some(vec![1; 24]));
        }
    }

    #[test]
    fn sustained_load_keeps_table_count_and_debt_bounded() {
        // IOHeavy-style sustained sequential writes: the level structure
        // must absorb them without table count or debt growing out of
        // proportion to the data.
        let mut s = LsmStore::new_private(leveled_config());
        for i in 0..6000u64 {
            s.put_one(&i.to_be_bytes(), &[7; 32]).unwrap();
        }
        s.flush();
        let st = s.stats();
        // ~6000 * 45B entries over >=2KiB tables: a few hundred tables max.
        let ceiling = (st.disk_bytes / 1024) as usize + s.config.max_tables + 2;
        assert!(s.table_count() <= ceiling, "{} tables for {} disk bytes", s.table_count(), st.disk_bytes);
        assert!(st.compaction_debt_bytes < st.disk_bytes, "unbounded backlog");
        for i in (0..6000u64).step_by(97) {
            assert_eq!(s.get(&i.to_be_bytes()).unwrap(), Some(vec![7; 32]));
        }
    }

    #[test]
    fn tombstones_drop_at_bottom_level_only() {
        let mut s = LsmStore::new_private(leveled_config());
        // Build a bottom level holding the key.
        for i in 0..400u32 {
            s.put_one(format!("k{i:04}").as_bytes(), &[9; 16]).unwrap();
        }
        s.flush();
        while s.compact_step() {}
        let depth = s.levels.len();
        assert!(depth > 1);
        // Delete half the keys and drive the tombstones down.
        for i in (0..400u32).step_by(2) {
            s.delete_one(format!("k{i:04}").as_bytes()).unwrap();
        }
        s.flush();
        while s.compact_step() {}
        for i in 0..400u32 {
            let expect = if i % 2 == 0 { None } else { Some(vec![9; 16]) };
            assert_eq!(s.get(format!("k{i:04}").as_bytes()).unwrap(), expect, "key {i}");
        }
        // Count tombstones across all live tables: every level above the
        // bottom may carry them, the bottom may not once fully merged.
        let bottom = s.levels.len() - 1;
        let mut v = s.vfs.lock().unwrap();
        let bottom_tombstones: usize = s.levels[bottom]
            .iter()
            .map(|t| {
                let region = t.table.entry_region_from(&mut v, None).unwrap();
                KWayMerge::new(vec![region]).filter(|(_, val)| val.is_none()).count()
            })
            .sum();
        assert_eq!(bottom_tombstones, 0, "bottom level retains tombstones");
    }

    /// A frozen `clone` streams the store as it stood at the copy —
    /// memtable included — while the original keeps writing, flushing and
    /// compacting. Compaction deletes its inputs at once: mid-transfer the
    /// original's disk holds its live tables and nothing else.
    #[test]
    fn frozen_copy_streams_a_consistent_snapshot() {
        let mut s = LsmStore::new_private(leveled_config());
        for i in 0..500u32 {
            s.put_one(format!("k{i:04}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        s.delete_one(b"k0007").unwrap();
        assert!(!s.memtable.is_empty(), "the copy should carry a memtable");
        let mut frozen = s.clone();
        let compactions = s.stats().compactions;
        let mut transferred = Vec::new();
        let mut after: Option<Vec<u8>> = None;
        loop {
            for i in 0..40u32 {
                s.put_one(format!("k{i:04}").as_bytes(), b"overwritten-mid-transfer").unwrap();
            }
            s.flush();
            let files = s.vfs().lock().unwrap().list("lsm/sst/").len();
            assert_eq!(files, s.table_count(), "a compacted input outlived its merge");
            let (chunk, done) = frozen.scan_range_chunk(after.as_deref(), 512).unwrap();
            assert!(!chunk.is_empty() || done, "no progress");
            after = chunk.last().map(|(k, _)| k.clone()).or(after);
            transferred.extend(chunk);
            if done {
                break;
            }
        }
        assert!(s.stats().compactions > compactions, "nothing compacted mid-transfer");
        assert_eq!(transferred.len(), 499, "all live keys, exactly once");
        for (k, v) in &transferred {
            let i: u32 = String::from_utf8_lossy(&k[1..]).parse().unwrap();
            assert_eq!(v, format!("v{i}").as_bytes(), "pre-copy value for {i}");
        }
        assert!(!transferred.iter().any(|(k, _)| k == b"k0007"), "tombstone leaked");
        assert_eq!(s.get(b"k0001").unwrap(), Some(b"overwritten-mid-transfer".to_vec()));
    }
}

/// `LsmStore::clone` is a second disk: equal to the first at the moment of
/// the copy, and out of its reach ever after.
#[cfg(test)]
mod second_disk {
    use super::*;
    use crate::kv::OneOp;
    use crate::fault::FaultVfs;

    fn config() -> LsmConfig {
        LsmConfig { memtable_flush_bytes: 512, max_tables: 2, ..LsmConfig::default() }
    }

    fn key(i: u32) -> Vec<u8> {
        format!("k{i:02}").into_bytes()
    }

    /// A store with tables below L0, an unflushed tail in the WAL and a
    /// tombstone: every tier a copy has to carry.
    fn loaded() -> LsmStore {
        let mut s = LsmStore::new_private(config());
        for round in 0..6u32 {
            for i in 0..40 {
                s.put_one(&key(i), format!("round{round}").as_bytes()).unwrap();
            }
        }
        s.delete_one(&key(7)).unwrap();
        assert!(s.stats().compactions > 0 && s.level_table_counts().len() > 1);
        assert!(s.stats().mem_bytes > 0, "nothing left in the memtable");
        s
    }

    /// The disk as it is now: every file's bytes, the I/O and stall counters
    /// and the fault settings.
    fn disk(s: &LsmStore) -> Vfs {
        s.vfs().lock().unwrap().clone()
    }

    #[test]
    fn copy_reads_counts_and_recovers_like_the_original() {
        let mut a = loaded();
        let mut b = a.clone();
        assert!(!Arc::ptr_eq(&a.vfs(), &b.vfs()), "the copy is a second handle on one disk");
        assert_eq!(a.stats(), b.stats());
        assert_eq!(disk(&a), disk(&b));
        assert_eq!(a.level_table_counts(), b.level_table_counts());
        for i in 0..41 {
            assert_eq!(a.get(&key(i)).unwrap(), b.get(&key(i)).unwrap(), "key {i}");
        }
        let contents = a.scan_prefix(b"").unwrap();
        assert_eq!(contents.len(), 39);
        assert_eq!(b.scan_prefix(b"").unwrap(), contents);
        assert_eq!(a.stats(), b.stats(), "equal reads were charged differently");
        // The copied WAL and manifest are the copy's own: a restart from its
        // disk alone finds everything.
        let mut reopened = LsmStore::open(b.vfs(), "lsm", config()).unwrap();
        assert!(reopened.stats().wal_records_replayed > 0);
        assert_eq!(reopened.scan_prefix(b"").unwrap(), contents);
        assert_eq!(reopened.get(&key(7)).unwrap(), None, "tombstone lost in the copy");
    }

    #[test]
    fn writes_faults_and_latency_on_one_side_never_reach_the_other() {
        let mut a = loaded();
        let mut b = a.clone();
        let (b_disk, b_stats) = (disk(&b), b.stats());
        // A put, flushes and compactions...
        for i in 0..40 {
            a.put_one(&key(i), b"after-the-copy").unwrap();
        }
        a.flush();
        assert!(a.stats().compactions > b_stats.compactions);
        // ...a torn WAL tail...
        a.put_one(b"tail", b"unflushed").unwrap();
        assert!(FaultVfs::new(a.vfs(), 7).tear_tail("lsm/wal"));
        // ...and a slow disk, all on the original.
        a.vfs().lock().unwrap().set_op_latency_us(50);
        assert_eq!(a.get(&key(1)).unwrap(), Some(b"after-the-copy".to_vec()));
        assert!(a.vfs().lock().unwrap().stall_us() > 0);

        assert_eq!(disk(&b), b_disk, "the copy's files or disk counters moved");
        assert_eq!(b.stats(), b_stats);
        assert_eq!(b.get(&key(1)).unwrap(), Some(b"round5".to_vec()));
        // And the other way round.
        let a_disk = disk(&a);
        b.put_one(&key(1), b"on-the-copy").unwrap();
        b.flush();
        assert_eq!(disk(&a), a_disk);
        assert_eq!(a.get(&key(1)).unwrap(), Some(b"after-the-copy".to_vec()));
    }

    /// Every table file of a store's disk.
    fn tables(s: &LsmStore) -> Vec<String> {
        disk(s).list("lsm/sst/")
    }

    #[test]
    fn sealed_tables_of_twin_stores_are_one_allocation() {
        let mut a = loaded();
        let mut b = a.clone();
        for s in [&mut a, &mut b] {
            for i in 0..40 {
                s.put_one(&key(i), b"after-the-copy").unwrap();
            }
            s.flush();
            s.put_one(b"tail", b"unflushed").unwrap();
        }
        let (da, db) = (disk(&a), disk(&b));
        assert_eq!(da, db);
        assert!(tables(&a).len() > 1);
        for file in tables(&a).iter().map(String::as_str).chain(["lsm/manifest"]) {
            assert!(da.shares_file(&db, file), "{file} is held twice");
        }
        assert!(!da.shares_file(&db, "lsm/wal"), "an appended file is shared");
        assert_eq!(da.sealed_pool_len(), tables(&a).len() + 1);
    }

    #[test]
    fn sealed_tables_of_unrelated_stores_are_never_shared() {
        let (a, b) = (loaded(), loaded());
        let (da, db) = (disk(&a), disk(&b));
        assert_eq!(da, db, "the same writes leave the same bytes");
        for file in tables(&a) {
            assert!(!da.shares_file(&db, &file), "{file} crossed into another lineage");
        }
    }

    #[test]
    fn sealed_table_faults_on_one_disk_never_reach_its_twin() {
        type Fault = fn(&LsmStore, &str);
        let faults: [(&str, Fault); 5] = [
            ("bit rot", |s, f| assert_eq!(FaultVfs::new(s.vfs(), 3).bit_rot(f, 4), 4)),
            ("truncation", |s, f| s.vfs().lock().unwrap().truncate(f, 10)),
            ("torn tail", |s, f| {
                s.vfs().lock().unwrap().append(f, b"unsynced");
                assert!(FaultVfs::new(s.vfs(), 3).tear_tail(f));
            }),
            ("append", |s, f| s.vfs().lock().unwrap().append(f, b"more")),
            ("overwrite", |s, f| s.vfs().lock().unwrap().write(f, b"other bytes")),
        ];
        // The same writes on a disk of another lineage: bytes the fault
        // cannot reach.
        let witness = disk(&loaded());
        for (what, fault) in faults {
            let a = loaded();
            let mut b = a.clone();
            let b_disk = disk(&b);
            let table = tables(&a)[0].clone();
            assert!(disk(&a).shares_file(&b_disk, &table));
            let bytes = witness.clone().read(&table).unwrap();

            fault(&a, &table);
            assert_ne!(disk(&a).read(&table).unwrap(), bytes, "{what} did nothing");
            assert_eq!(disk(&b), b_disk, "{what} moved the twin's disk");
            assert_eq!(disk(&b), witness, "{what} reached the twin's bytes");
            assert_eq!(disk(&b).read(&table).unwrap(), bytes);
            assert!(!disk(&a).shares_file(&disk(&b), &table), "{what} left the file shared");
            // The twin still reads and recovers as it did.
            assert_eq!(b.get(&key(1)).unwrap(), Some(b"round5".to_vec()), "after {what}");
            let mut reopened = LsmStore::open(b.vfs(), "lsm", config()).unwrap();
            assert_eq!(reopened.scan_prefix(b"").unwrap().len(), 39, "after {what}");
        }
    }

    #[test]
    fn sealed_pool_empties_once_every_twin_lets_go() {
        let a = loaded();
        let b = a.clone();
        let probe = {
            let mut d = disk(&a);
            for file in d.list("") {
                d.delete(&file);
            }
            d
        };
        let sealed = tables(&a).len() + 1;
        assert_eq!(probe.sealed_pool_len(), sealed);
        drop(a);
        assert_eq!(probe.sealed_pool_len(), sealed, "the twin still holds them");
        drop(b);
        assert_eq!(probe.sealed_pool_len(), 0);
    }
}

/// Seeded crash-recovery properties: whatever a fault injector does to the
/// WAL tail, a reopened store exposes an atomic prefix of the committed
/// batches — never a partially applied batch.
#[cfg(test)]
mod fault_props {
    use super::*;
    use crate::kv::OneOp;
    use crate::fault::FaultVfs;

    const KEYS_PER_BATCH: u32 = 10;

    /// Commit `batches` numbered write batches, each setting the same ten
    /// keys to its own number. Returns the shared VFS.
    fn store_with_batches(batches: u32) -> Arc<Mutex<Vfs>> {
        let vfs = Arc::new(Mutex::new(Vfs::new()));
        // Large flush budget: everything stays in the WAL, the surface
        // under attack.
        let mut s = LsmStore::open(Arc::clone(&vfs), "db", LsmConfig::default()).unwrap();
        for round in 0..batches {
            let mut b = WriteBatch::new();
            for k in 0..KEYS_PER_BATCH {
                b.put(format!("key{k:02}").as_bytes(), &round.to_be_bytes());
            }
            s.apply_batch(b).unwrap();
        }
        vfs
    }

    /// All ten keys must agree on one batch number `< batches` (or all be
    /// absent if replay recovered nothing): batch atomicity under damage.
    fn assert_atomic_prefix(vfs: Arc<Mutex<Vfs>>, batches: u32) -> Option<u32> {
        let mut s = LsmStore::open(vfs, "db", LsmConfig::default()).unwrap();
        let values: Vec<Option<Vec<u8>>> = (0..KEYS_PER_BATCH)
            .map(|k| s.get(format!("key{k:02}").as_bytes()).unwrap())
            .collect();
        let first = values[0].clone();
        for v in &values {
            assert_eq!(*v, first, "keys disagree: a batch was applied partially");
        }
        first.map(|v| {
            let round = u32::from_be_bytes(v.as_slice().try_into().unwrap());
            assert!(round < batches);
            round
        })
    }

    #[test]
    fn torn_tail_never_splits_a_batch() {
        for seed in 0..64u64 {
            let vfs = store_with_batches(8);
            let mut f = FaultVfs::new(Arc::clone(&vfs), seed);
            assert!(f.tear_tail("db/wal"));
            // The tear always removes at least one byte of the final frame,
            // so its checksum fails and recovery surfaces batch 6 exactly.
            assert_eq!(assert_atomic_prefix(vfs, 8), Some(6), "seed {seed}");
        }
    }

    #[test]
    fn bit_rot_yields_clean_prefix_or_rejection() {
        for seed in 0..64u64 {
            let vfs = store_with_batches(8);
            let mut f = FaultVfs::new(Arc::clone(&vfs), seed);
            let flipped = f.bit_rot("db/wal", 3);
            assert!(flipped > 0);
            // Rot can land in any frame: any prefix (or nothing) is
            // acceptable, a torn batch is not.
            assert_atomic_prefix(vfs, 8);
        }
    }

    #[test]
    fn rot_after_tear_still_recovers_atomically() {
        for seed in 0..32u64 {
            let vfs = store_with_batches(6);
            let mut f = FaultVfs::new(Arc::clone(&vfs), seed);
            f.tear_tail("db/wal");
            f.bit_rot("db/wal", 2);
            assert_atomic_prefix(vfs, 6);
        }
    }

    #[test]
    fn enospc_torn_append_recovers_like_a_crash() {
        let vfs = Arc::new(Mutex::new(Vfs::new()));
        let mut s = LsmStore::open(Arc::clone(&vfs), "db", LsmConfig::default()).unwrap();
        let mut b = WriteBatch::new();
        for k in 0..KEYS_PER_BATCH {
            b.put(format!("key{k:02}").as_bytes(), &0u32.to_be_bytes());
        }
        s.apply_batch(b).unwrap();
        // Arm a ceiling that tears the next batch's WAL frame mid-write.
        let used = vfs.lock().unwrap().disk_usage();
        vfs.lock().unwrap().set_capacity(Some(used + 20));
        let mut b = WriteBatch::new();
        for k in 0..KEYS_PER_BATCH {
            b.put(format!("key{k:02}").as_bytes(), &1u32.to_be_bytes());
        }
        s.apply_batch(b).unwrap();
        assert_eq!(vfs.lock().unwrap().enospc_hits(), 1);
        drop(s);
        vfs.lock().unwrap().set_capacity(None);
        // The torn frame fails its checksum: only batch 0 survives.
        assert_eq!(assert_atomic_prefix(vfs, 2), Some(0));
    }

    #[test]
    fn crash_mid_compaction_recovers_durable_prefix_without_orphans() {
        // A crash between writing merge outputs and committing the manifest
        // leaves half-written and fully-written-but-unlisted tables behind.
        // Neither may surface on reads, and open must reclaim the files.
        let vfs = Arc::new(Mutex::new(Vfs::new()));
        let cfg = LsmConfig { memtable_flush_bytes: 512, max_tables: 2, ..LsmConfig::default() };
        {
            let mut s = LsmStore::open(Arc::clone(&vfs), "db", cfg.clone()).unwrap();
            for i in 0..100u32 {
                s.put_one(format!("k{i:03}").as_bytes(), format!("durable{i}").as_bytes()).unwrap();
            }
            s.flush();
        }
        {
            // Fake the crash window: an unlisted, fully-written output with
            // *stale* shadowing values, plus a torn sibling.
            let mut v = vfs.lock().unwrap();
            let stale: Vec<(Vec<u8>, Option<Vec<u8>>)> = (0..100u32)
                .map(|i| (format!("k{i:03}").into_bytes(), Some(b"stale-merge-output".to_vec())))
                .collect();
            SsTable::build(&mut v, "db/sst/000000000777", &stale, 10, 16);
            let bytes = v.read("db/sst/000000000777").unwrap();
            v.append("db/sst/000000000778", &bytes);
        }
        // Tear the sibling mid-write, like the crash would.
        let mut f = FaultVfs::new(Arc::clone(&vfs), 0xDEAD);
        assert!(f.tear_tail("db/sst/000000000778"));
        let mut s = LsmStore::open(Arc::clone(&vfs), "db", cfg).unwrap();
        for i in 0..100u32 {
            assert_eq!(
                s.get(format!("k{i:03}").as_bytes()).unwrap(),
                Some(format!("durable{i}").into_bytes()),
                "orphan table shadowed key {i}"
            );
        }
        let files = vfs.lock().unwrap().list("db/sst/");
        assert!(!files.iter().any(|f| f.ends_with("777") || f.ends_with("778")), "orphans kept");
        assert_eq!(files.len(), s.table_count());
    }
}

/// Seeded put/delete/flush scripts: the store reads and scans exactly like a
/// `BTreeMap` model, and leveled compaction answers every read as the
/// full-compaction store it replaced does.
#[cfg(test)]
mod seeded_props {
    use super::*;
    use crate::kv::OneOp;
    use bb_sim::SimRng;

    #[test]
    fn behaves_like_btreemap_seeded() {
        let mut rng = SimRng::seed_from_u64(0x5EED_0007);
        for i in 0..48 {
            let mut model: std::collections::BTreeMap<Vec<u8>, Vec<u8>> = Default::default();
            let mut store = LsmStore::new_private(LsmConfig {
                memtable_flush_bytes: 512,
                max_tables: 2,
                ..LsmConfig::default()
            });
            for _ in 0..rng.range(1, 200) {
                match rng.below(5) {
                    // Puts dominate so flushes see real data.
                    0..=2 => {
                        let key = vec![b'k', rng.below(256) as u8];
                        let mut value = vec![0u8; rng.below(32) as usize];
                        rng.fill_bytes(&mut value);
                        model.insert(key.clone(), value.clone());
                        store.put_one(&key, &value).unwrap();
                    }
                    3 => {
                        let key = vec![b'k', rng.below(256) as u8];
                        model.remove(&key);
                        store.delete_one(&key).unwrap();
                    }
                    _ => store.flush(),
                }
            }
            for k in 0..=255u8 {
                let key = vec![b'k', k];
                assert_eq!(store.get(&key).unwrap(), model.get(&key).cloned(), "case {i}");
            }
            let scanned = store.scan_prefix(b"k").unwrap();
            let expected: Vec<(Vec<u8>, Vec<u8>)> =
                model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            assert_eq!(scanned, expected, "case {i}");
        }
    }

    /// The old store: a flat stack of tables, full merge of everything on
    /// compaction. Kept here as the reference model the leveled store must
    /// be read-indistinguishable from.
    struct FullCompactionRef {
        memtable: std::collections::BTreeMap<Vec<u8>, Option<Vec<u8>>>,
        tables: Vec<std::collections::BTreeMap<Vec<u8>, Option<Vec<u8>>>>,
        max_tables: usize,
    }

    impl FullCompactionRef {
        fn new(max_tables: usize) -> Self {
            FullCompactionRef { memtable: Default::default(), tables: Vec::new(), max_tables }
        }

        fn flush(&mut self) {
            if self.memtable.is_empty() {
                return;
            }
            self.tables.push(std::mem::take(&mut self.memtable));
            if self.tables.len() > self.max_tables {
                self.compact();
            }
        }

        fn compact(&mut self) {
            let mut merged: std::collections::BTreeMap<Vec<u8>, Option<Vec<u8>>> =
                Default::default();
            for t in &self.tables {
                for (k, v) in t {
                    merged.insert(k.clone(), v.clone());
                }
            }
            merged.retain(|_, v| v.is_some());
            self.tables = vec![merged];
        }

        fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
            if let Some(v) = self.memtable.get(key) {
                return v.clone();
            }
            for t in self.tables.iter().rev() {
                if let Some(v) = t.get(key) {
                    return v.clone();
                }
            }
            None
        }
    }

    /// Random put/delete/flush/compact interleavings: leveled compaction
    /// must answer every read identically to the full-compaction store it
    /// replaced.
    #[test]
    fn leveled_matches_full_compaction_reference_seeded() {
        let mut rng = SimRng::seed_from_u64(0x1EAE_11ED);
        for _ in 0..32 {
            let mut reference = FullCompactionRef::new(2);
            let mut store = LsmStore::new_private(LsmConfig {
                memtable_flush_bytes: 512,
                max_tables: 2,
                level_base_bytes: 2048,
                level_growth: 4,
                ..LsmConfig::default()
            });
            for _ in 0..rng.range(50, 400) {
                match rng.below(8) {
                    0..=4 => {
                        let key = vec![b'a' + (rng.below(4) as u8), rng.below(64) as u8];
                        let mut value = vec![0u8; 1 + rng.below(24) as usize];
                        rng.fill_bytes(&mut value);
                        reference.memtable.insert(key.clone(), Some(value.clone()));
                        store.put_one(&key, &value).unwrap();
                    }
                    5 => {
                        let key = vec![b'a' + (rng.below(4) as u8), rng.below(64) as u8];
                        reference.memtable.insert(key.clone(), None);
                        store.delete_one(&key).unwrap();
                    }
                    6 => {
                        reference.flush();
                        store.flush();
                    }
                    _ => {
                        // Reference compaction is all-at-once; leveled runs
                        // as many bounded steps as it takes. Reads must not
                        // be able to tell.
                        reference.flush();
                        reference.compact();
                        store.flush();
                        while store.compact_step() {}
                    }
                }
            }
            for hi in 0..4u8 {
                for lo in 0..64u8 {
                    let key = vec![b'a' + hi, lo];
                    assert_eq!(store.get(&key).unwrap(), reference.get(&key), "key {key:?}");
                }
            }
        }
    }

    /// One random op stream into an LSM store — a tiny memtable, so the
    /// reads merge L0, deeper levels, tombstones and a live memtable — and
    /// into a `MemStore`: chunk by chunk, from random cursors and under
    /// random byte bounds, both stream the same pairs, and every round both
    /// scan the same pairs under seeded prefixes, the empty prefix and
    /// prefixes that sort before and after every key.
    #[test]
    fn scan_range_chunk_matches_memstore_seeded() {
        let mut rng = SimRng::seed_from_u64(0x5EED_0044);
        let random_key = |rng: &mut SimRng| {
            let mut key = vec![b'a' + rng.below(4) as u8, rng.below(64) as u8];
            key.truncate(1 + rng.below(2) as usize);
            key
        };
        for case in 0..16 {
            let mut lsm = LsmStore::new_private(LsmConfig {
                memtable_flush_bytes: 256,
                max_tables: 2,
                level_base_bytes: 1024,
                level_growth: 4,
                ..LsmConfig::default()
            });
            let mut mem = crate::memstore::MemStore::new();
            for round in 0..4 {
                for _ in 0..rng.range(50, 150) {
                    let key = vec![b'a' + rng.below(4) as u8, rng.below(64) as u8];
                    if rng.below(4) == 0 {
                        lsm.delete_one(&key).unwrap();
                        mem.delete_one(&key).unwrap();
                    } else {
                        let mut value = vec![0u8; 1 + rng.below(24) as usize];
                        rng.fill_bytes(&mut value);
                        lsm.put_one(&key, &value).unwrap();
                        mem.put_one(&key, &value).unwrap();
                    }
                }
                if lsm.memtable.is_empty() {
                    // A lone tombstone never fills a memtable: the reads
                    // below always merge one.
                    let key = vec![b'a', rng.below(64) as u8];
                    lsm.delete_one(&key).unwrap();
                    mem.delete_one(&key).unwrap();
                }
                if round == 3 {
                    let levels = lsm.level_table_counts();
                    assert!(levels.len() > 2 && levels[1..].iter().any(|&n| n > 0), "{levels:?}");
                }
                let seeded = (0..6).map(|_| random_key(&mut rng));
                for prefix in [vec![], b"0".to_vec(), b"z".to_vec()].into_iter().chain(seeded) {
                    let got = lsm.scan_prefix(&prefix).unwrap();
                    assert_eq!(got, mem.scan_prefix(&prefix).unwrap(), "case {case}, {prefix:?}");
                }
                for _ in 0..6 {
                    let mut after = rng.chance(0.7).then(|| random_key(&mut rng));
                    let max_bytes = rng.range(1, 400) as usize;
                    loop {
                        let got = lsm.scan_range_chunk(after.as_deref(), max_bytes).unwrap();
                        let want = mem.scan_range_chunk(after.as_deref(), max_bytes).unwrap();
                        assert_eq!(got, want, "case {case}, after {after:?}, max {max_bytes}");
                        let (chunk, done) = got;
                        if done {
                            break;
                        }
                        after = chunk.last().map(|(k, _)| k.clone());
                    }
                }
            }
        }
    }
}
