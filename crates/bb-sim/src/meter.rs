//! Resource meters behind the paper's utilisation and footprint plots.
//!
//! Figure 16 of the paper plots CPU% and network Mbps per second; Figures 11
//! and 12 report peak memory and disk usage. Because our platforms run on a
//! virtual clock, "CPU usage" means *accumulated simulated busy time* charged
//! by cost models, and "network usage" means bytes handed to the simulated
//! network — both bucketed per virtual second here.

use crate::time::{SimDuration, SimTime};

const BUCKET_US: u64 = 1_000_000; // one virtual second per bucket

fn bucket_of(t: SimTime) -> usize {
    (t.as_micros() / BUCKET_US) as usize
}

/// Accumulates simulated CPU busy-time per virtual second.
///
/// `cores` scales the utilisation denominator: a node with 8 reserved cores
/// that is busy 4 core-seconds in one second is at 50%.
#[derive(Clone, Debug)]
pub struct CpuMeter {
    cores: u32,
    busy_us: Vec<u64>,
    total_busy: SimDuration,
}

impl CpuMeter {
    /// New meter for a node with `cores` cores.
    pub fn new(cores: u32) -> Self {
        assert!(cores > 0);
        CpuMeter { cores, busy_us: Vec::new(), total_busy: SimDuration::ZERO }
    }

    /// Charge `work` core-time starting at `at`. Work longer than a bucket is
    /// spread across subsequent buckets.
    pub fn charge(&mut self, at: SimTime, work: SimDuration) {
        self.total_busy += work;
        let mut remaining = work.as_micros();
        let mut t = at.as_micros();
        while remaining > 0 {
            let b = (t / BUCKET_US) as usize;
            if self.busy_us.len() <= b {
                self.busy_us.resize(b + 1, 0);
            }
            let room = BUCKET_US - (t % BUCKET_US);
            let chunk = remaining.min(room);
            self.busy_us[b] += chunk;
            remaining -= chunk;
            t += chunk;
        }
    }

    /// Mark the whole interval `[from, to)` as fully busy on all cores —
    /// the model for PoW mining, which saturates its reserved cores. Unlike
    /// [`CpuMeter::charge`], the work runs on all cores *in parallel*, so each
    /// covered bucket is charged `cores × overlap`.
    pub fn saturate(&mut self, from: SimTime, to: SimTime) {
        if to <= from {
            return;
        }
        let mut t = from.as_micros();
        let end = to.as_micros();
        while t < end {
            let b = (t / BUCKET_US) as usize;
            if self.busy_us.len() <= b {
                self.busy_us.resize(b + 1, 0);
            }
            let room = BUCKET_US - (t % BUCKET_US);
            let chunk = (end - t).min(room);
            self.busy_us[b] += chunk * self.cores as u64;
            self.total_busy += SimDuration::from_micros(chunk * self.cores as u64);
            t += chunk;
        }
    }

    /// Utilisation (0..=100) in the virtual second containing `t`.
    pub fn utilisation_at(&self, t: SimTime) -> f64 {
        let b = bucket_of(t);
        let busy = self.busy_us.get(b).copied().unwrap_or(0);
        100.0 * busy as f64 / (BUCKET_US as f64 * self.cores as f64)
    }

    /// Per-second utilisation series from t=0 through the last charged bucket.
    pub fn utilisation_series(&self) -> Vec<f64> {
        self.busy_us
            .iter()
            .map(|&busy| 100.0 * busy as f64 / (BUCKET_US as f64 * self.cores as f64))
            .collect()
    }

    /// Total busy core-time charged.
    pub fn total_busy(&self) -> SimDuration {
        self.total_busy
    }
}

/// Counts bytes per virtual second (network send/receive, disk writes...).
#[derive(Clone, Debug, Default)]
pub struct ByteMeter {
    per_bucket: Vec<u64>,
    total: u64,
}

impl ByteMeter {
    /// New, empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `bytes` at time `at`.
    pub fn record(&mut self, at: SimTime, bytes: u64) {
        let b = bucket_of(at);
        if self.per_bucket.len() <= b {
            self.per_bucket.resize(b + 1, 0);
        }
        self.per_bucket[b] += bytes;
        self.total += bytes;
    }

    /// Total bytes recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Megabits per second in the virtual second containing `t`.
    pub fn mbps_at(&self, t: SimTime) -> f64 {
        let b = bucket_of(t);
        let bytes = self.per_bucket.get(b).copied().unwrap_or(0);
        bytes as f64 * 8.0 / 1e6
    }

    /// Per-second Mbps series.
    pub fn mbps_series(&self) -> Vec<f64> {
        self.per_bucket.iter().map(|&b| b as f64 * 8.0 / 1e6).collect()
    }
}

/// Tracks current and peak resident memory for a node, with a hard cap.
///
/// The cap models the paper's 32 GB machines: CPUHeavy at 100M elements
/// OOM-kills Ethereum, IOHeavy above 3.2M states OOM-kills Parity. Allocation
/// beyond the cap returns an error the platform surfaces as an aborted
/// transaction/run.
#[derive(Clone, Debug)]
pub struct MemMeter {
    current: u64,
    peak: u64,
    cap: u64,
}

/// Error returned when a simulated allocation would exceed the node's RAM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes requested by the failing allocation.
    pub requested: u64,
    /// Bytes already resident.
    pub in_use: u64,
    /// The configured cap.
    pub cap: u64,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of memory: requested {} B with {} B in use (cap {} B)",
            self.requested, self.in_use, self.cap
        )
    }
}

impl std::error::Error for OutOfMemory {}

impl MemMeter {
    /// New meter with the given capacity in bytes.
    pub fn new(cap: u64) -> Self {
        MemMeter { current: 0, peak: 0, cap }
    }

    /// Try to allocate `bytes`; fails without side effects past the cap.
    pub fn alloc(&mut self, bytes: u64) -> Result<(), OutOfMemory> {
        let new = self.current.saturating_add(bytes);
        if new > self.cap {
            return Err(OutOfMemory { requested: bytes, in_use: self.current, cap: self.cap });
        }
        self.current = new;
        self.peak = self.peak.max(new);
        Ok(())
    }

    /// Release `bytes` (saturating; freeing more than resident clamps to 0).
    pub fn free(&mut self, bytes: u64) {
        self.current = self.current.saturating_sub(bytes);
    }

    /// Bytes currently resident.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// High-water mark.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Configured cap.
    pub fn cap(&self) -> u64 {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_charge_single_bucket() {
        let mut m = CpuMeter::new(1);
        m.charge(SimTime::from_millis(100), SimDuration::from_millis(250));
        assert!((m.utilisation_at(SimTime::from_millis(500)) - 25.0).abs() < 1e-9);
        assert_eq!(m.total_busy(), SimDuration::from_millis(250));
    }

    #[test]
    fn cpu_charge_spills_across_buckets() {
        let mut m = CpuMeter::new(1);
        // 1.5 s of work starting at t=0.5 s: 0.5 s in bucket 0, 1.0 s in
        // bucket 1 (full), and 0 in bucket 2... wait, 1.5 total = 0.5 + 1.0.
        m.charge(SimTime::from_millis(500), SimDuration::from_millis(1500));
        assert!((m.utilisation_at(SimTime::ZERO) - 50.0).abs() < 1e-9);
        assert!((m.utilisation_at(SimTime::from_secs(1)) - 100.0).abs() < 1e-9);
        assert_eq!(m.utilisation_at(SimTime::from_secs(2)), 0.0);
    }

    #[test]
    fn cpu_multicore_denominator() {
        let mut m = CpuMeter::new(8);
        m.charge(SimTime::ZERO, SimDuration::from_secs(4));
        assert!((m.utilisation_at(SimTime::ZERO) - 100.0 / 8.0 * 1.0).abs() < 20.0);
        // 4 core-seconds spread from t=0 saturates 4 consecutive buckets of
        // one core each → 12.5% per bucket on an 8-core node.
        for s in 0..4 {
            assert!((m.utilisation_at(SimTime::from_secs(s)) - 12.5).abs() < 1e-9);
        }
    }

    #[test]
    fn cpu_saturate_marks_full_interval() {
        let mut m = CpuMeter::new(2);
        m.saturate(SimTime::from_secs(1), SimTime::from_secs(3));
        assert_eq!(m.utilisation_at(SimTime::from_secs(0)), 0.0);
        assert!((m.utilisation_at(SimTime::from_secs(1)) - 100.0).abs() < 1e-9);
        assert!((m.utilisation_at(SimTime::from_secs(2)) - 100.0).abs() < 1e-9);
        m.saturate(SimTime::from_secs(5), SimTime::from_secs(5));
        assert_eq!(m.utilisation_at(SimTime::from_secs(5)), 0.0);
    }

    #[test]
    fn byte_meter_buckets_and_totals() {
        let mut m = ByteMeter::new();
        m.record(SimTime::from_millis(100), 1_000_000);
        m.record(SimTime::from_millis(900), 1_000_000);
        m.record(SimTime::from_secs(5), 500_000);
        assert_eq!(m.total(), 2_500_000);
        assert!((m.mbps_at(SimTime::from_millis(500)) - 16.0).abs() < 1e-9);
        assert!((m.mbps_at(SimTime::from_secs(5)) - 4.0).abs() < 1e-9);
        assert_eq!(m.mbps_at(SimTime::from_secs(99)), 0.0);
    }

    #[test]
    fn mem_meter_tracks_peak_and_caps() {
        let mut m = MemMeter::new(1000);
        m.alloc(400).unwrap();
        m.alloc(400).unwrap();
        assert_eq!(m.current(), 800);
        assert_eq!(m.peak(), 800);
        let err = m.alloc(300).unwrap_err();
        assert_eq!(err.requested, 300);
        assert_eq!(err.in_use, 800);
        // Failed allocation leaves state untouched.
        assert_eq!(m.current(), 800);
        m.free(500);
        assert_eq!(m.current(), 300);
        assert_eq!(m.peak(), 800);
        m.alloc(300).unwrap();
        m.free(10_000);
        assert_eq!(m.current(), 0);
    }

    #[test]
    fn oom_displays_useful_message() {
        let e = OutOfMemory { requested: 10, in_use: 5, cap: 12 };
        let s = e.to_string();
        assert!(s.contains("requested 10"));
        assert!(s.contains("cap 12"));
    }
}
