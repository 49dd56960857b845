//! The optimistic block-execution *model* that `AccountState::execute_block`
//! runs. No platform calls it: Ethereum, Parity and Fabric all execute a
//! block's transactions serially, as geth, Parity and Fabric v0.6 do. It
//! stays only as the subject of the benchmark's `exec.block32_*` kernels and
//! goes with them (ROADMAP item 14).
//!
//! The paper's macro benchmarks saturate far below hardware limits partly
//! because every platform executes a block's transactions serially on one
//! core. This crate is the substrate for asking what an optimistic
//! (OCC-style) block executor would buy:
//!
//! 1. **Speculate**: every transaction of a sealed block runs against the
//!    immutable pre-state snapshot, recording its read set, write set and
//!    result, in a plain canonical-order loop.
//! 2. **Detect + commit** in canonical order: a transaction whose reads
//!    don't intersect the writes committed before it ([`KeySet`]) is a
//!    *winner* — its buffered writes apply verbatim. A *loser* re-executes
//!    serially at its canonical slot, exactly as the classic serial loop
//!    would have run it.
//!
//! Nothing here starts a thread. The executor's time is *modeled*, not
//! measured: [`model_block`] charges the serial sum (so existing figures are
//! unchanged) and separately computes a deterministic parallel makespan over
//! [`MODEL_LANES`] lanes, identically on any host (DESIGN.md §8).

use std::collections::BTreeSet;

/// Lanes assumed by the deterministic execution-time model. Fixed (rather
/// than `available_parallelism`) so the modeled speedup is a property of
/// the workload, not of the machine the simulation happens to run on.
pub const MODEL_LANES: usize = 4;

/// The set of (logical) keys written by transactions already committed in
/// this block — the first-writer-wins conflict oracle.
#[derive(Debug, Default)]
pub struct KeySet {
    keys: BTreeSet<Vec<u8>>,
}

impl KeySet {
    /// Empty set (start of a block).
    pub fn new() -> KeySet {
        KeySet::default()
    }

    /// Does any of `reads` hit a committed write? If so the reader
    /// speculated against stale state and must re-execute.
    pub fn conflicts(&self, reads: &[Vec<u8>]) -> bool {
        reads.iter().any(|k| self.keys.contains(k))
    }

    /// Record a committed transaction's write keys.
    pub fn record<I: IntoIterator<Item = Vec<u8>>>(&mut self, writes: I) {
        self.keys.extend(writes);
    }

    /// Number of distinct keys written so far.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no write has been recorded.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// Deterministic greedy makespan of `costs_us` over [`MODEL_LANES`] lanes:
/// each cost (in canonical order) lands on the least-loaded lane, ties to
/// the lowest index. This is the modeled wall-clock of the speculation
/// phase.
pub fn modeled_span(costs_us: &[u64]) -> u64 {
    let mut lanes = [0u64; MODEL_LANES];
    for &c in costs_us {
        let min = (0..MODEL_LANES).min_by_key(|&i| lanes[i]).expect("lanes non-empty");
        lanes[min] += c;
    }
    lanes.into_iter().max().unwrap_or(0)
}

/// Modeled execution time of one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockCost {
    /// What the classic serial loop charges (and what the simulation still
    /// charges — the model must not perturb existing figures).
    pub serial_us: u64,
    /// Speculation makespan plus the serial re-execution tail, capped at
    /// the serial cost: an optimistic executor can always fall back to the
    /// serial schedule, so the modeled speedup never drops below 1.0.
    pub modeled_us: u64,
}

/// Combine per-transaction costs into a [`BlockCost`]: `spec_us` holds the
/// speculated cost of every transaction (the parallel phase), `winner_us`
/// the summed serial charge of the clean transactions, and
/// `loser_reexec_us` the serial re-execution cost of each conflicted one.
pub fn model_block(spec_us: &[u64], winner_us: u64, loser_reexec_us: &[u64]) -> BlockCost {
    let tail: u64 = loser_reexec_us.iter().sum();
    let serial = winner_us + tail;
    let modeled = (modeled_span(spec_us) + tail).min(serial);
    BlockCost { serial_us: serial, modeled_us: modeled }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyset_detects_first_writer_wins() {
        let mut set = KeySet::new();
        assert!(!set.conflicts(&[b"a".to_vec()]));
        set.record([b"a".to_vec(), b"b".to_vec()]);
        assert!(set.conflicts(&[b"x".to_vec(), b"a".to_vec()]));
        assert!(!set.conflicts(&[b"x".to_vec()]));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn span_is_greedy_over_four_lanes() {
        // Four equal costs → one per lane.
        assert_eq!(modeled_span(&[10, 10, 10, 10]), 10);
        // Eight equal costs → two per lane.
        assert_eq!(modeled_span(&[10; 8]), 20);
        // One dominant cost bounds the span.
        assert_eq!(modeled_span(&[100, 1, 1, 1, 1]), 100);
        assert_eq!(modeled_span(&[]), 0);
    }

    #[test]
    fn model_never_exceeds_serial() {
        // Conflict-free: span 25 (100/4) beats serial 100.
        let free = model_block(&[10; 10], 100, &[]);
        assert_eq!(free.serial_us, 100);
        assert_eq!(free.modeled_us, 30); // ceil by greedy: 3 lanes get 3 txs? 10*3=30
        assert!(free.modeled_us < free.serial_us);
        // Fully conflicted: every tx re-executes; the cap keeps the model
        // at the serial cost instead of span + tail.
        let all = model_block(&[10; 10], 0, &[10; 10]);
        assert_eq!(all.serial_us, 100);
        assert_eq!(all.modeled_us, 100);
    }
}
