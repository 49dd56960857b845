//! A metered, in-memory virtual filesystem.
//!
//! Real disks would make cluster-scale experiments slow and
//! machine-dependent; the VFS keeps every "file" in RAM while accounting
//! bytes exactly, so Figure 12's disk-usage column comes from real file
//! contents, not estimates. Write and read volumes feed the storage engines'
//! [`crate::StorageStats`].

use std::collections::BTreeMap;

/// Error returned for operations on missing files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileNotFound(pub String);

impl std::fmt::Display for FileNotFound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "file not found: {}", self.0)
    }
}

impl std::error::Error for FileNotFound {}

/// An in-memory filesystem with byte accounting.
///
/// `Clone` deliberately copies file contents *and* the I/O counters: tests
/// snapshot a node's durable state this way to compare pre-crash and
/// post-recovery bytes, benchmarks clone a prepared image per iteration, and
/// a store copied with its replica ([`crate::LsmStore`]'s `Clone`) gets its
/// own disk this way. Two disks are equal when every file, counter and
/// fault setting is.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Vfs {
    files: BTreeMap<String, Vec<u8>>,
    bytes_written: u64,
    bytes_read: u64,
    /// Per file: offset where the most recent `append` began. An un-fsynced
    /// tail in crash-fault terms — [`crate::FaultVfs::tear_tail`] may destroy
    /// any suffix of it. Cleared by `create`/`write`/`delete` (a full rewrite
    /// is treated as synced).
    last_append: BTreeMap<String, u64>,
    /// Optional disk-full ceiling on total live bytes. Writes past it are
    /// truncated to fit (a real disk fills mid-write) and counted.
    capacity: Option<u64>,
    enospc_hits: u64,
    /// Modeled per-operation latency in µs charged to every metered I/O op
    /// — the slow-disk chaos fault. Accounting only: the simulation clock
    /// is never moved, so arming it cannot perturb event ordering.
    op_latency_us: u64,
    /// Cumulative modeled stall across all ops, µs.
    stall_us: u64,
}

impl Vfs {
    /// Empty filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge the modeled slow-disk latency for one I/O operation.
    fn charge_op(&mut self) {
        self.stall_us += self.op_latency_us;
    }

    /// Create or truncate a file.
    pub fn create(&mut self, name: &str) {
        self.files.insert(name.to_string(), Vec::new());
        self.last_append.remove(name);
    }

    /// How many of `extra` bytes fit under the capacity ceiling. Counts a
    /// hit when the write must be cut short.
    fn admit(&mut self, extra: usize) -> usize {
        let Some(cap) = self.capacity else { return extra };
        let free = cap.saturating_sub(self.disk_usage());
        if (extra as u64) <= free {
            extra
        } else {
            self.enospc_hits += 1;
            free as usize
        }
    }

    /// Append bytes to a file, creating it if needed. With a capacity set,
    /// an append that would overflow is torn: only the fitting prefix lands.
    pub fn append(&mut self, name: &str, data: &[u8]) {
        self.charge_op();
        let admitted = self.admit(data.len());
        self.bytes_written += admitted as u64;
        let file = self.files.entry(name.to_string()).or_default();
        let start = file.len() as u64;
        file.extend_from_slice(&data[..admitted]);
        self.last_append.insert(name.to_string(), start);
    }

    /// Replace a file's contents, creating it if needed. With a capacity
    /// set, an oversized rewrite is truncated to fit.
    pub fn write(&mut self, name: &str, data: &[u8]) {
        self.charge_op();
        let prior = self.file_size(name).unwrap_or(0);
        let grow = (data.len() as u64).saturating_sub(prior) as usize;
        let admitted = data.len() - (grow - self.admit(grow));
        self.bytes_written += admitted as u64;
        self.files.insert(name.to_string(), data[..admitted].to_vec());
        self.last_append.remove(name);
    }

    /// Read a whole file.
    pub fn read(&mut self, name: &str) -> Result<Vec<u8>, FileNotFound> {
        self.charge_op();
        let data = self.files.get(name).ok_or_else(|| FileNotFound(name.to_string()))?;
        self.bytes_read += data.len() as u64;
        Ok(data.clone())
    }

    /// Read a byte range `[offset, offset+len)` of a file. Short reads at
    /// end-of-file return the available prefix.
    pub fn read_at(&mut self, name: &str, offset: usize, len: usize) -> Result<Vec<u8>, FileNotFound> {
        self.charge_op();
        let data = self.files.get(name).ok_or_else(|| FileNotFound(name.to_string()))?;
        let start = offset.min(data.len());
        let end = offset.saturating_add(len).min(data.len());
        self.bytes_read += (end - start) as u64;
        Ok(data[start..end].to_vec())
    }

    /// Borrowed read of `[offset, offset+len)`: the callback sees the bytes
    /// in place, no copy. Byte accounting matches [`Self::read_at`] exactly;
    /// pass `usize::MAX` as `len` for a whole-file view.
    pub fn read_with<R>(
        &mut self,
        name: &str,
        offset: usize,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, FileNotFound> {
        self.charge_op();
        let data = self.files.get(name).ok_or_else(|| FileNotFound(name.to_string()))?;
        let start = offset.min(data.len());
        let end = offset.saturating_add(len).min(data.len());
        self.bytes_read += (end - start) as u64;
        Ok(f(&data[start..end]))
    }

    /// Cut a file down to `len` bytes (no-op if already shorter). Metadata
    /// only — no bytes are written, so accounting is untouched. Whatever
    /// survives is considered durable: the last-append marker is cleared.
    pub fn truncate(&mut self, name: &str, len: u64) {
        if let Some(data) = self.files.get_mut(name) {
            if (len as usize) < data.len() {
                data.truncate(len as usize);
            }
        }
        self.last_append.remove(name);
    }

    /// Offset where the last `append` to `name` began, if nothing has
    /// rewritten or deleted the file since. The bytes from here to EOF model
    /// the un-fsynced tail a crash may tear.
    pub fn last_append_start(&self, name: &str) -> Option<u64> {
        self.last_append.get(name).copied()
    }

    /// Mutable access to raw file bytes — fault injection only (bit rot).
    /// Accounting is deliberately untouched: rot is not I/O.
    pub fn corrupt_byte(&mut self, name: &str, offset: u64, mask: u8) -> bool {
        match self.files.get_mut(name).and_then(|d| d.get_mut(offset as usize)) {
            Some(b) => {
                *b ^= mask;
                true
            }
            None => false,
        }
    }

    /// Arm (or disarm) the disk-full ceiling.
    pub fn set_capacity(&mut self, capacity: Option<u64>) {
        self.capacity = capacity;
    }

    /// Writes cut short by the capacity ceiling.
    pub fn enospc_hits(&self) -> u64 {
        self.enospc_hits
    }

    /// Arm (or, with 0, disarm) the modeled slow disk: every subsequent
    /// metered operation charges this many µs into [`Vfs::stall_us`].
    pub fn set_op_latency_us(&mut self, us: u64) {
        self.op_latency_us = us;
    }

    /// Cumulative modeled slow-disk stall, µs.
    pub fn stall_us(&self) -> u64 {
        self.stall_us
    }

    /// Delete a file; deleting a missing file is a no-op (matching POSIX
    /// `unlink` semantics in the engines' cleanup paths).
    pub fn delete(&mut self, name: &str) {
        self.files.remove(name);
        self.last_append.remove(name);
    }

    /// Does the file exist?
    pub fn exists(&self, name: &str) -> bool {
        self.files.contains_key(name)
    }

    /// Size of one file in bytes.
    pub fn file_size(&self, name: &str) -> Option<u64> {
        self.files.get(name).map(|d| d.len() as u64)
    }

    /// Names of files whose name starts with `prefix`, in sorted order.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Total bytes currently stored — the "disk usage" of Figure 12.
    pub fn disk_usage(&self) -> u64 {
        self.files.values().map(|d| d.len() as u64).sum()
    }

    /// Cumulative bytes ever written (includes data later deleted/compacted).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Cumulative bytes read.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_write_read() {
        let mut vfs = Vfs::new();
        vfs.write("wal.log", b"hello");
        assert_eq!(vfs.read("wal.log").unwrap(), b"hello");
        assert!(vfs.exists("wal.log"));
        assert_eq!(vfs.file_size("wal.log"), Some(5));
    }

    #[test]
    fn append_grows_file() {
        let mut vfs = Vfs::new();
        vfs.append("log", b"ab");
        vfs.append("log", b"cd");
        assert_eq!(vfs.read("log").unwrap(), b"abcd");
    }

    #[test]
    fn read_missing_file_errors() {
        let mut vfs = Vfs::new();
        let err = vfs.read("nope").unwrap_err();
        assert_eq!(err.0, "nope");
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn read_at_ranges() {
        let mut vfs = Vfs::new();
        vfs.write("f", b"0123456789");
        assert_eq!(vfs.read_at("f", 2, 3).unwrap(), b"234");
        assert_eq!(vfs.read_at("f", 8, 10).unwrap(), b"89"); // short read
        assert_eq!(vfs.read_at("f", 20, 5).unwrap(), b""); // past EOF
    }

    #[test]
    fn delete_and_overwrite() {
        let mut vfs = Vfs::new();
        vfs.write("a", b"xxxx");
        vfs.delete("a");
        assert!(!vfs.exists("a"));
        vfs.delete("a"); // idempotent
        vfs.write("a", b"yy");
        assert_eq!(vfs.disk_usage(), 2);
    }

    #[test]
    fn accounting_tracks_io_volumes() {
        let mut vfs = Vfs::new();
        vfs.write("a", b"12345");
        vfs.append("a", b"678");
        let _ = vfs.read("a").unwrap();
        let _ = vfs.read_at("a", 0, 2).unwrap();
        assert_eq!(vfs.bytes_written(), 8);
        assert_eq!(vfs.bytes_read(), 10);
        assert_eq!(vfs.disk_usage(), 8);
        vfs.delete("a");
        assert_eq!(vfs.disk_usage(), 0);
        // Historical write volume survives deletion.
        assert_eq!(vfs.bytes_written(), 8);
    }

    #[test]
    fn read_with_borrows_and_meters_like_read_at() {
        let mut vfs = Vfs::new();
        vfs.write("f", b"0123456789");
        let sum: u32 = vfs.read_with("f", 2, 3, |d| d.iter().map(|&b| b as u32).sum()).unwrap();
        assert_eq!(sum, b'2' as u32 + b'3' as u32 + b'4' as u32);
        let whole = vfs.read_with("f", 0, usize::MAX, |d| d.len()).unwrap();
        assert_eq!(whole, 10);
        assert_eq!(vfs.bytes_read(), 13);
        assert!(vfs.read_with("ghost", 0, 1, |_| ()).is_err());
    }

    #[test]
    fn truncate_cuts_and_clears_append_tracking() {
        let mut vfs = Vfs::new();
        vfs.append("wal", b"aaaa");
        vfs.append("wal", b"bbbb");
        assert_eq!(vfs.last_append_start("wal"), Some(4));
        vfs.truncate("wal", 6);
        assert_eq!(vfs.read("wal").unwrap(), b"aaaabb");
        // What survives a truncation is durable: the marker is cleared.
        assert_eq!(vfs.last_append_start("wal"), None);
        vfs.truncate("wal", 100); // no-op past EOF
        assert_eq!(vfs.file_size("wal"), Some(6));
        vfs.truncate("ghost", 0); // missing file: no-op
    }

    #[test]
    fn rewrite_and_delete_clear_append_tracking() {
        let mut vfs = Vfs::new();
        vfs.append("f", b"xy");
        assert_eq!(vfs.last_append_start("f"), Some(0));
        vfs.write("f", b"replaced");
        assert_eq!(vfs.last_append_start("f"), None);
        vfs.append("f", b"z");
        vfs.delete("f");
        assert_eq!(vfs.last_append_start("f"), None);
    }

    #[test]
    fn capacity_tears_overflowing_writes() {
        let mut vfs = Vfs::new();
        vfs.set_capacity(Some(6));
        vfs.append("a", b"1234");
        assert_eq!(vfs.enospc_hits(), 0);
        vfs.append("a", b"5678"); // only 2 of 4 bytes fit
        assert_eq!(vfs.read("a").unwrap(), b"123456");
        assert_eq!(vfs.enospc_hits(), 1);
        assert_eq!(vfs.bytes_written(), 6, "only landed bytes are accounted");
        vfs.set_capacity(None);
        vfs.append("a", b"78");
        assert_eq!(vfs.read("a").unwrap(), b"12345678");
    }

    #[test]
    fn clone_snapshots_files_and_counters() {
        let mut vfs = Vfs::new();
        vfs.write("a", b"data");
        let mut snap = vfs.clone();
        vfs.write("a", b"mutated");
        assert_eq!(snap.read("a").unwrap(), b"data");
    }

    #[test]
    fn list_by_prefix_is_sorted() {
        let mut vfs = Vfs::new();
        vfs.write("sst/000002", b"");
        vfs.write("sst/000001", b"");
        vfs.write("wal", b"");
        assert_eq!(vfs.list("sst/"), vec!["sst/000001", "sst/000002"]);
        assert_eq!(vfs.list(""), vec!["sst/000001", "sst/000002", "wal"]);
        assert!(vfs.list("zzz").is_empty());
        assert_eq!(vfs.file_count(), 3);
    }
}
