//! Storage-level fault injection.
//!
//! A crash is only interesting if it can destroy something: [`FaultVfs`]
//! wraps a shared [`Vfs`] and damages it the way real disks do under power
//! loss — the un-fsynced suffix of the last WAL append torn off mid-frame,
//! and seeded bit rot in cold files. The WAL's frame checksums (and the
//! SSTable footer magic) are what make these injections recoverable. The
//! disk-full ceiling and the slow disk are the [`Vfs`]'s own settings
//! (`set_capacity`, `set_op_latency_us`), which count their own hits.

use crate::vfs::Vfs;
use std::sync::{Arc, Mutex};

/// Deterministic fault injector over a shared [`Vfs`].
///
/// Owns its own seeded generator (splitmix64 — self-contained so the storage
/// crate stays dependency-free) so injections never perturb the simulation's
/// RNG stream: a run with faults draws exactly the same network jitter as a
/// run without.
#[derive(Debug)]
pub struct FaultVfs {
    vfs: Arc<Mutex<Vfs>>,
    rng_state: u64,
}

impl FaultVfs {
    /// Wrap `vfs` with a fault injector seeded by `seed`.
    pub fn new(vfs: Arc<Mutex<Vfs>>, seed: u64) -> FaultVfs {
        FaultVfs { vfs, rng_state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        // splitmix64: tiny, well-distributed, and stable across platforms.
        self.rng_state = self.rng_state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Tear the un-fsynced tail of `name`: truncate to a seeded point inside
    /// the last append, leaving a clean cut or a half-written frame. Returns
    /// `true` if bytes were actually destroyed (a file with no tracked
    /// append, or whose last append is already gone, is left alone).
    pub fn tear_tail(&mut self, name: &str) -> bool {
        let (start, len) = {
            let v = self.vfs.lock().unwrap();
            let Some(start) = v.last_append_start(name) else { return false };
            let Some(len) = v.file_size(name) else { return false };
            (start, len)
        };
        if len <= start {
            return false;
        }
        let cut = start + self.next_u64() % (len - start);
        self.vfs.lock().unwrap().truncate(name, cut);
        true
    }

    /// Flip up to `flips` seeded bits anywhere in `name`. Returns the number
    /// of bits actually flipped (zero for a missing or empty file).
    pub fn bit_rot(&mut self, name: &str, flips: u32) -> u32 {
        let mut done = 0;
        for _ in 0..flips {
            let len = self.vfs.lock().unwrap().file_size(name).filter(|&l| l > 0);
            let Some(len) = len else { break };
            let offset = self.next_u64() % len;
            let mask = 1u8 << (self.next_u64() % 8);
            if self.vfs.lock().unwrap().corrupt_byte(name, offset, mask) {
                done += 1;
            }
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared() -> Arc<Mutex<Vfs>> {
        Arc::new(Mutex::new(Vfs::new()))
    }

    #[test]
    fn tear_tail_cuts_inside_last_append_only() {
        let vfs = shared();
        vfs.lock().unwrap().append("wal", b"synced-prefix");
        vfs.lock().unwrap().append("wal", b"unfsynced-tail");
        let mut f = FaultVfs::new(Arc::clone(&vfs), 42);
        assert!(f.tear_tail("wal"));
        let len = vfs.lock().unwrap().file_size("wal").unwrap();
        assert!((13..13 + 14).contains(&len), "cut {len} outside the tail");
        // The tail is gone now; a second tear finds nothing to destroy.
        assert!(!f.tear_tail("wal"));
        assert!(!f.tear_tail("ghost"));
    }

    #[test]
    fn tear_tail_is_seed_deterministic() {
        let cut_with = |seed: u64| {
            let vfs = shared();
            vfs.lock().unwrap().append("wal", vec![7u8; 1000].as_slice());
            FaultVfs::new(Arc::clone(&vfs), seed).tear_tail("wal");
            let len = vfs.lock().unwrap().file_size("wal").unwrap();
            len
        };
        assert_eq!(cut_with(7), cut_with(7));
        assert_ne!(cut_with(7), cut_with(8), "different seeds should cut differently");
    }

    #[test]
    fn bit_rot_flips_exactly_counted_bits() {
        let vfs = shared();
        vfs.lock().unwrap().write("sst", vec![0u8; 256].as_slice());
        let mut f = FaultVfs::new(Arc::clone(&vfs), 1);
        assert_eq!(f.bit_rot("sst", 8), 8);
        let data = vfs.lock().unwrap().read("sst").unwrap();
        let ones: u32 = data.iter().map(|b| b.count_ones()).sum();
        // Two seeded flips can land on the same bit and cancel; parity of
        // the total is all that is guaranteed, but at least one must stick.
        assert!(ones > 0 && ones <= 8);
        assert_eq!(f.bit_rot("ghost", 3), 0);
    }

    #[test]
    fn slow_disk_charges_every_metered_op() {
        let mut v = Vfs::new();
        // Un-armed I/O charges nothing.
        v.append("wal", b"pre");
        assert_eq!(v.stall_us(), 0);
        v.set_op_latency_us(250);
        v.append("wal", b"abc"); // 250
        v.write("sst", b"xyz"); // 500
        let _ = v.read("wal"); // 750
        let _ = v.read_at("wal", 0, 2); // 1000
        let _ = v.read_with("wal", 0, 1, |_| ()); // 1250
        v.truncate("wal", 1); // metadata only: free
        assert_eq!(v.stall_us(), 1250);
        // Disarm: the accumulator freezes.
        v.set_op_latency_us(0);
        v.append("wal", b"post");
        assert_eq!(v.stall_us(), 1250);
    }

    #[test]
    fn enospc_counts_surface_through_counters() {
        let mut v = Vfs::new();
        v.set_capacity(Some(4));
        v.append("f", b"123456");
        assert_eq!(v.enospc_hits(), 1);
        assert_eq!(v.read("f").unwrap(), b"1234");
    }
}
