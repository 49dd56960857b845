//! A metered, in-memory virtual filesystem.
//!
//! Real disks would make cluster-scale experiments slow and
//! machine-dependent; the VFS keeps every "file" in RAM while accounting
//! bytes exactly, so Figure 12's disk-usage column comes from real file
//! contents, not estimates. Write and read volumes feed the storage engines'
//! [`crate::StorageStats`].

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::{Arc, Mutex};

/// Error returned for operations on missing files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileNotFound(pub String);

impl std::fmt::Display for FileNotFound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "file not found: {}", self.0)
    }
}

impl std::error::Error for FileNotFound {}

/// One file's bytes. A file written whole by [`Vfs::write`] is *sealed*:
/// its bytes sit in its lineage's [`Pool`], so replicas that write the
/// same table under the same name hold one allocation. A file that is
/// appended to is *open* and owned by its disk alone.
#[derive(Clone)]
enum Bytes {
    Open(Vec<u8>),
    Sealed(Arc<[u8]>),
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Bytes::Open(data) => data,
            Bytes::Sealed(data) => data,
        }
    }
}

/// Files are equal when their bytes are, shared or not.
impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// The sealed files of one disk lineage, keyed by `(name, len)`; a key
/// holds more than one file while disks of the lineage disagree on its
/// bytes (a manifest rewritten at the same length on one replica before
/// another). The pool holds a strong reference to each file and drops it
/// when the last disk holding it deletes, overwrites, unseals or drops it,
/// so a lone disk holds exactly its own bytes.
#[derive(Default)]
struct Pool(Mutex<BTreeMap<PoolKey, Vec<Arc<[u8]>>>>);

/// A sealed file's `(name, len)`.
type PoolKey = (String, usize);

impl Pool {
    /// `data` sealed as `name`: the pooled file with the same bytes, else a
    /// new pooled one. Files are shared after a full compare, never on a
    /// hash.
    fn seal(&self, name: &str, data: &[u8]) -> Bytes {
        let mut pool = self.0.lock().unwrap();
        let files = pool.entry((name.to_string(), data.len())).or_default();
        match files.iter().find(|f| ***f == *data) {
            Some(f) => Bytes::Sealed(Arc::clone(f)),
            None => {
                let f: Arc<[u8]> = Arc::from(data);
                files.push(Arc::clone(&f));
                Bytes::Sealed(f)
            }
        }
    }

    /// Let go of `name`'s old bytes. A sealed file no other disk holds
    /// leaves the pool. The reference drops under the lock, so two disks
    /// letting go of one file at once cannot each leave it to the other.
    fn release(&self, name: &str, bytes: Bytes) {
        let Bytes::Sealed(data) = bytes else { return };
        let mut pool = self.0.lock().unwrap();
        let Entry::Occupied(mut files) = pool.entry((name.to_string(), data.len())) else {
            unreachable!("a sealed file outside its pool");
        };
        if Arc::strong_count(&data) == 2 {
            files.get_mut().retain(|f| !Arc::ptr_eq(f, &data));
            if files.get().is_empty() {
                files.remove();
            }
        }
        drop(data);
    }
}

/// A disk's `Debug` shows its own files, not its lineage's.
impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Pool")
    }
}

/// An in-memory filesystem with byte accounting.
///
/// `Clone` copies the files *and* the I/O counters, and the copy joins the
/// original's lineage: a sealed file's bytes are shared, not duplicated,
/// and whatever either side writes whole later is interned in the same
/// pool, while appends, truncation and bit rot copy a shared file first and
/// so never reach the other side. Tests snapshot a node's durable state
/// this way to compare pre-crash and post-recovery bytes, benchmarks clone a
/// prepared image per iteration, and a store copied with its replica
/// ([`crate::LsmStore`]'s `Clone`) gets its own disk this way. [`Vfs::new`]
/// starts a lineage of its own. Two disks are equal when every file's
/// bytes, every counter and every fault setting are; sharing is not
/// compared.
#[derive(Debug, Default, Clone)]
pub struct Vfs {
    files: BTreeMap<String, Bytes>,
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
    /// The sealed files of this disk's lineage: its own, its clones' and
    /// the disks it was cloned from.
    pool: Arc<Pool>,
}

impl PartialEq for Vfs {
    fn eq(&self, other: &Vfs) -> bool {
        let Vfs {
            files,
            bytes_written,
            bytes_read,
            last_append,
            capacity,
            enospc_hits,
            op_latency_us,
            stall_us,
            pool: _,
        } = self;
        *files == other.files
            && *bytes_written == other.bytes_written
            && *bytes_read == other.bytes_read
            && *last_append == other.last_append
            && *capacity == other.capacity
            && *enospc_hits == other.enospc_hits
            && *op_latency_us == other.op_latency_us
            && *stall_us == other.stall_us
    }
}

impl Eq for Vfs {}

/// A dropped disk lets go of its sealed files.
impl Drop for Vfs {
    fn drop(&mut self) {
        for (name, bytes) in std::mem::take(&mut self.files) {
            self.pool.release(&name, bytes);
        }
    }
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

    /// `name`'s bytes to change in place. A sealed file is copied first, so
    /// the change reaches no other disk.
    fn open_mut(&mut self, name: &str) -> Option<&mut Vec<u8>> {
        let file = self.files.get_mut(name)?;
        if let Bytes::Sealed(data) = &*file {
            let own = Bytes::Open(data.to_vec());
            let sealed = std::mem::replace(file, own);
            self.pool.release(name, sealed);
        }
        match file {
            Bytes::Open(data) => Some(data),
            Bytes::Sealed(_) => unreachable!("unsealed above"),
        }
    }

    /// Create or truncate a file. An open file is emptied in place and keeps
    /// its allocation, so a log reset after every flush does not regrow its
    /// buffer; a sealed file lets go of its bytes and starts afresh.
    pub fn create(&mut self, name: &str) {
        if let Some(Bytes::Open(data)) = self.files.get_mut(name) {
            data.clear();
            self.last_append.remove(name);
            return;
        }
        self.delete(name);
        self.files.insert(name.to_string(), Bytes::Open(Vec::new()));
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
        self.append_with(name, data.len(), |file| file.extend_from_slice(data));
    }

    /// Append `len` bytes that `fill` writes in place onto the end of a
    /// file, creating it if needed: `fill` gets the file's bytes and must
    /// extend them by exactly `len` (asserted). The one append path, so a
    /// caller that frames a record builds it in the file, with no buffer of
    /// its own. Metered like any append; with a capacity set, an append that
    /// would overflow is torn: `fill` writes all `len` bytes and only the
    /// fitting prefix lands.
    pub fn append_with(&mut self, name: &str, len: usize, fill: impl FnOnce(&mut Vec<u8>)) {
        self.charge_op();
        let admitted = self.admit(len);
        self.bytes_written += admitted as u64;
        if !self.files.contains_key(name) {
            self.files.insert(name.to_string(), Bytes::Open(Vec::new()));
        }
        let file = self.open_mut(name).expect("inserted above");
        let start = file.len();
        file.reserve(len);
        fill(file);
        assert_eq!(file.len() - start, len, "an append wrote other than it declared");
        file.truncate(start + admitted);
        match self.last_append.get_mut(name) {
            Some(at) => *at = start as u64,
            None => {
                self.last_append.insert(name.to_string(), start as u64);
            }
        }
    }

    /// Replace a file's contents, creating it if needed, and seal it: a
    /// disk of the same lineage that sealed the same bytes under the same
    /// name already holds them, and this disk shares them. With a capacity
    /// set, an oversized rewrite is truncated to fit.
    pub fn write(&mut self, name: &str, data: &[u8]) {
        self.charge_op();
        let prior = self.file_size(name).unwrap_or(0);
        let grow = (data.len() as u64).saturating_sub(prior) as usize;
        let admitted = data.len() - (grow - self.admit(grow));
        self.bytes_written += admitted as u64;
        self.delete(name);
        let sealed = self.pool.seal(name, &data[..admitted]);
        self.files.insert(name.to_string(), sealed);
    }

    /// Read a whole file.
    pub fn read(&mut self, name: &str) -> Result<Vec<u8>, FileNotFound> {
        self.charge_op();
        let data = self.files.get(name).ok_or_else(|| FileNotFound(name.to_string()))?;
        self.bytes_read += data.len() as u64;
        Ok(data.to_vec())
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
        if self.file_size(name).is_some_and(|size| len < size) {
            self.open_mut(name).expect("sized above").truncate(len as usize);
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
        if self.file_size(name).is_none_or(|size| offset >= size) {
            return false;
        }
        self.open_mut(name).expect("sized above")[offset as usize] ^= mask;
        true
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

    /// The modeled slow disk's per-operation latency, µs (0: not slowed).
    pub fn op_latency_us(&self) -> u64 {
        self.op_latency_us
    }

    /// Cumulative modeled slow-disk stall, µs.
    pub fn stall_us(&self) -> u64 {
        self.stall_us
    }

    /// Delete a file; deleting a missing file is a no-op (matching POSIX
    /// `unlink` semantics in the engines' cleanup paths).
    pub fn delete(&mut self, name: &str) {
        if let Some(old) = self.files.remove(name) {
            self.pool.release(name, old);
        }
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
impl Vfs {
    /// Sealed files in the pool of this disk's lineage.
    pub(crate) fn sealed_pool_len(&self) -> usize {
        self.pool.0.lock().unwrap().values().map(Vec::len).sum()
    }

    /// The allocation behind an open file, in bytes.
    pub(crate) fn open_capacity(&self, name: &str) -> Option<usize> {
        match self.files.get(name)? {
            Bytes::Open(data) => Some(data.capacity()),
            Bytes::Sealed(_) => None,
        }
    }

    /// Do both disks hold `name` in one allocation?
    pub(crate) fn shares_file(&self, other: &Vfs, name: &str) -> bool {
        match (self.files.get(name), other.files.get(name)) {
            (Some(Bytes::Sealed(a)), Some(Bytes::Sealed(b))) => Arc::ptr_eq(a, b),
            _ => false,
        }
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
    fn create_empties_an_open_file_in_place() {
        let mut vfs = Vfs::new();
        vfs.append("wal", b"first batch");
        vfs.append("wal", b"second");
        let mut fresh = vfs.clone();
        fresh.delete("wal");
        fresh.create("wal");
        vfs.create("wal");
        assert!(vfs.open_capacity("wal").is_some_and(|cap| cap >= 17), "the buffer was let go");
        assert_eq!(vfs, fresh, "a file emptied in place is a file created afresh");
        assert_eq!(vfs.last_append_start("wal"), None);
        vfs.append("wal", b"next");
        assert_eq!(vfs.last_append_start("wal"), Some(0));
        assert_eq!(vfs.read("wal").unwrap(), b"next");
        // A sealed file is let go of, not emptied in place.
        let probe = vfs.clone();
        vfs.write("manifest", b"sealed");
        assert_eq!(probe.sealed_pool_len(), 1);
        vfs.create("manifest");
        assert_eq!(probe.sealed_pool_len(), 0);
        assert_eq!(vfs.file_size("manifest"), Some(0));
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
        // An in-place append that overflows lands what `append` would.
        let mut copied = Vfs::new();
        let mut filled = Vfs::new();
        for vfs in [&mut copied, &mut filled] {
            vfs.set_capacity(Some(6));
            vfs.set_op_latency_us(7);
            vfs.append("a", b"1234");
        }
        copied.append("a", b"5678");
        filled.append_with("a", 4, |file| file.extend_from_slice(b"5678"));
        assert_eq!((filled.enospc_hits(), filled.bytes_written()), (1, 6));
        assert_eq!(filled.last_append_start("a"), Some(4));
        assert_eq!(filled, copied, "same bytes, counters, charge and marker");
        assert_eq!(filled.read("a").unwrap(), b"123456");
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

    #[test]
    fn sealed_file_written_twice_in_one_lineage_is_one_allocation() {
        let mut a = Vfs::new();
        let mut b = a.clone();
        a.write("sst/1", b"table bytes");
        b.write("sst/1", b"table bytes");
        assert!(a.shares_file(&b, "sst/1"));
        assert_eq!(a.sealed_pool_len(), 1);
        // Each disk still counts its own write.
        assert_eq!((a.bytes_written(), b.bytes_written()), (11, 11));
        assert_eq!((a.disk_usage(), b.disk_usage()), (11, 11));
        // A clone shares what its original sealed before and after the clone.
        let c = b.clone();
        assert!(c.shares_file(&a, "sst/1"));
        // Appended files are each disk's own.
        a.append("wal", b"log");
        b.append("wal", b"log");
        assert!(!a.shares_file(&b, "wal"));
        assert_eq!(a.read("wal").unwrap(), b.read("wal").unwrap());
    }

    #[test]
    fn sealed_files_of_unrelated_disks_are_never_shared() {
        let mut a = Vfs::new();
        let mut b = Vfs::new();
        a.write("sst/1", b"table bytes");
        b.write("sst/1", b"table bytes");
        assert!(!a.shares_file(&b, "sst/1"));
        assert_eq!(a, b, "equal bytes are equal disks, shared or not");
        assert_eq!((a.sealed_pool_len(), b.sealed_pool_len()), (1, 1));
    }

    #[test]
    fn sealed_bytes_differing_under_one_name_and_length_stay_apart() {
        let mut a = Vfs::new();
        let mut b = a.clone();
        let mut c = a.clone();
        a.write("manifest", b"aaaa");
        b.write("manifest", b"bbbb");
        assert!(!a.shares_file(&b, "manifest"));
        assert_eq!(a.read("manifest").unwrap(), b"aaaa");
        assert_eq!(b.read("manifest").unwrap(), b"bbbb");
        assert_eq!(a.sealed_pool_len(), 2);
        // A third disk shares whichever it matches, while both are held.
        c.write("manifest", b"bbbb");
        assert!(c.shares_file(&b, "manifest"));
        a.write("manifest", b"bbbb");
        assert!(a.shares_file(&b, "manifest"));
        assert_eq!(a.sealed_pool_len(), 1);
    }

    #[test]
    fn sealed_pool_empties_when_the_last_holder_lets_go() {
        let mut a = Vfs::new();
        let probe = a.clone(); // holds no file: it only sees the pool
        a.write("deleted", b"one");
        a.write("overwritten", b"two");
        a.write("unsealed", b"three");
        a.write("dropped", b"four");
        let mut b = a.clone();
        assert_eq!(probe.sealed_pool_len(), 4);
        // Deleted: the file leaves with its last holder.
        a.delete("deleted");
        assert_eq!(probe.sealed_pool_len(), 4, "b still holds it");
        b.delete("deleted");
        assert_eq!(probe.sealed_pool_len(), 3);
        // Overwritten: the new bytes come in as the old ones leave.
        a.write("overwritten", b"2");
        assert_eq!(probe.sealed_pool_len(), 4);
        b.write("overwritten", b"2");
        assert_eq!(probe.sealed_pool_len(), 3);
        assert!(a.shares_file(&b, "overwritten"));
        // Unsealed by an append and a truncation: each side's copy is open.
        a.append("unsealed", b"!");
        b.truncate("unsealed", 1);
        assert_eq!(probe.sealed_pool_len(), 2);
        // Dropped: each disk lets go of everything it sealed.
        drop(a);
        assert_eq!(probe.sealed_pool_len(), 2);
        drop(b);
        assert_eq!(probe.sealed_pool_len(), 0);
        // A lone disk holds only its own bytes.
        let mut lone = Vfs::new();
        lone.write("f", b"bytes");
        lone.write("f", b"other");
        assert_eq!(lone.sealed_pool_len(), 1);
        lone.delete("f");
        assert_eq!(lone.sealed_pool_len(), 0);
    }
}
