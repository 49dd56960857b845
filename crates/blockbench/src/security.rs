//! The security metric (Section 3.3).
//!
//! "We quantify security as the number of blocks in the forks... Security is
//! then measured by the ratio between the total number of blocks included in
//! the main branch and the total number of blocks confirmed by the users.
//! The lower the ratio, the \[more\] vulnerable the system is \[to\] double
//! spending \[and\] selfish mining."

use crate::connector::PlatformStats;

/// `blocks_main / blocks_total`: 1.0 means no forks ever (PBFT's proven
/// safety); values below 1.0 expose the double-spend window the Figure 10
/// partition attack opens on the PoW/PoA chains.
pub fn fork_ratio(stats: &PlatformStats) -> f64 {
    if stats.blocks_total == 0 {
        return 1.0;
    }
    stats.blocks_main as f64 / stats.blocks_total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_blocks_is_safe() {
        assert_eq!(fork_ratio(&PlatformStats::default()), 1.0);
    }

    #[test]
    fn fork_ratio_counts_stale_blocks() {
        let s = PlatformStats { blocks_total: 100, blocks_main: 70, ..Default::default() };
        assert!((fork_ratio(&s) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn fork_free_chain_scores_one() {
        let s = PlatformStats { blocks_total: 42, blocks_main: 42, ..Default::default() };
        assert_eq!(fork_ratio(&s), 1.0);
    }
}
