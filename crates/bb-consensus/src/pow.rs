//! Proof-of-work: mining-race timing and heaviest-chain fork choice.
//!
//! **Timing.** Finding a PoW block is memoryless, so a miner holding share
//! `s` of the network hashpower with network-wide mean block interval `I`
//! finds its next block after `Exp(mean = I/s)` — the standard analytical
//! model. The platform draws these races with [`bb_sim::SimRng`].
//!
//! **Difficulty.** The paper's authors "manually tuned the difficulty
//! variable... to ensure that miners do not diverge in large networks" and
//! observed that "the difficulty level increases at higher rate than the
//! number of nodes" (Section 4.1.2) — [`PowParams::network_interval`]
//! encodes that super-linear rule, and is one cause of Ethereum's
//! throughput degradation in Figures 7/8.
//!
//! **Fork choice.** [`BlockTree`] tracks every block ever seen (main chain
//! *and* forks — the Figure 10 security metric is their ratio), resolves the
//! head by cumulative work with first-seen tie-breaking, and buffers orphans
//! until their parents arrive.

use bb_crypto::Hash256;
use bb_sim::SimDuration;
use std::collections::HashMap;

/// Network-level PoW parameters.
#[derive(Debug, Clone)]
pub struct PowParams {
    /// Mean network-wide block interval at the reference network size.
    pub base_interval: SimDuration,
    /// Network size the base interval is tuned for.
    pub reference_nodes: u32,
    /// Super-linear exponent: interval scales with `(n/ref)^exponent` above
    /// the reference size.
    pub size_exponent: f64,
    /// Blocks from the tip before a block counts as confirmed.
    pub confirm_depth: u64,
}

impl Default for PowParams {
    fn default() -> Self {
        // The paper's private testnet: difficulty ≈ 2.5 s/block at 8 nodes,
        // confirmationLength ≈ 5 s ≈ 2 blocks.
        PowParams {
            base_interval: SimDuration::from_millis(2500),
            reference_nodes: 8,
            size_exponent: 1.35,
            confirm_depth: 2,
        }
    }
}

impl PowParams {
    /// Mean network-wide block interval for `n` mining nodes.
    pub fn network_interval(&self, n: u32) -> SimDuration {
        let n = n.max(1);
        if n <= self.reference_nodes {
            return self.base_interval;
        }
        let scale = (n as f64 / self.reference_nodes as f64).powf(self.size_exponent);
        SimDuration::from_secs_f64(self.base_interval.as_secs_f64() * scale)
    }

    /// Mean interval between *this miner's* blocks, given equal hashpower
    /// across `n` miners.
    pub fn miner_interval(&self, n: u32) -> SimDuration {
        let net = self.network_interval(n);
        net.saturating_mul(n.max(1) as u64)
    }
}

/// Outcome of inserting a block into the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The block extended the best chain; it is the new head.
    NewHead {
        /// True when the head moved to a different branch (blocks were
        /// un-done) rather than simply extending.
        reorged: bool,
    },
    /// Accepted, but a heavier branch remains the head (a fork block —
    /// counted by the security metric).
    SideChain,
    /// Parent unknown; buffered until it arrives.
    Orphaned,
    /// Already known; ignored.
    Duplicate,
}

#[derive(Debug, Clone)]
struct Entry {
    parent: Hash256,
    height: u64,
    total_work: u128,
}

/// A block tree with heaviest-chain fork choice.
#[derive(Debug, Clone)]
pub struct BlockTree {
    blocks: HashMap<Hash256, Entry>,
    /// Orphans waiting for `key` to arrive: parent → (id, work).
    orphans: HashMap<Hash256, Vec<(Hash256, u64)>>,
    head: Hash256,
    genesis: Hash256,
}

impl BlockTree {
    /// Tree rooted at `genesis` (height 0, zero work).
    pub fn new(genesis: Hash256) -> Self {
        let mut blocks = HashMap::new();
        blocks.insert(genesis, Entry { parent: Hash256::ZERO, height: 0, total_work: 0 });
        BlockTree { blocks, orphans: HashMap::new(), head: genesis, genesis }
    }

    /// The current best block.
    pub fn head(&self) -> Hash256 {
        self.head
    }

    /// The genesis block id.
    pub fn genesis(&self) -> Hash256 {
        self.genesis
    }

    /// Height of the current head.
    pub fn head_height(&self) -> u64 {
        self.blocks[&self.head].height
    }

    /// Is the block known (connected, not orphaned)?
    pub fn contains(&self, id: &Hash256) -> bool {
        self.blocks.contains_key(id)
    }

    /// Insert a block. `work` is its difficulty contribution.
    pub fn insert(&mut self, id: Hash256, parent: Hash256, work: u64) -> InsertOutcome {
        if self.blocks.contains_key(&id) {
            return InsertOutcome::Duplicate;
        }
        let Some(parent_entry) = self.blocks.get(&parent) else {
            self.orphans.entry(parent).or_default().push((id, work));
            return InsertOutcome::Orphaned;
        };
        let entry = Entry {
            parent,
            height: parent_entry.height + 1,
            total_work: parent_entry.total_work + work as u128,
        };
        let old_head = self.head;
        let heavier = entry.total_work > self.blocks[&self.head].total_work;
        self.blocks.insert(id, entry);
        let mut outcome = if heavier {
            let reorged = parent != old_head;
            self.head = id;
            InsertOutcome::NewHead { reorged }
        } else {
            InsertOutcome::SideChain
        };
        // Connect any orphans waiting on this block (recursively, via the
        // queue of newly connected ids).
        let mut queue = vec![id];
        while let Some(connected) = queue.pop() {
            let Some(waiting) = self.orphans.remove(&connected) else {
                continue;
            };
            for (child, child_work) in waiting {
                match self.insert(child, connected, child_work) {
                    InsertOutcome::NewHead { reorged } => {
                        // A connected orphan subtree may move the head.
                        if let InsertOutcome::SideChain = outcome {
                            outcome = InsertOutcome::NewHead { reorged };
                        }
                        queue.push(child);
                        let _ = reorged;
                    }
                    _ => queue.push(child),
                }
            }
        }
        outcome
    }

    /// Walk the main chain from head back to genesis (inclusive), newest
    /// first.
    pub fn main_chain(&self) -> Vec<Hash256> {
        let mut out = Vec::with_capacity(self.head_height() as usize + 1);
        let mut at = self.head;
        loop {
            out.push(at);
            if at == self.genesis {
                break;
            }
            at = self.blocks[&at].parent;
        }
        out
    }

    /// The main-chain block at `height`, if the chain is that tall.
    pub fn main_chain_at(&self, height: u64) -> Option<Hash256> {
        let head_h = self.head_height();
        if height > head_h {
            return None;
        }
        let mut at = self.head;
        for _ in 0..(head_h - height) {
            at = self.blocks[&at].parent;
        }
        Some(at)
    }

    /// Is `id` on the main chain?
    pub fn on_main_chain(&self, id: &Hash256) -> bool {
        match self.blocks.get(id) {
            Some(e) => self.main_chain_at(e.height) == Some(*id),
            None => false,
        }
    }

    /// Height below which blocks are confirmed, per `confirm_depth`.
    /// Genesis never counts as a confirmable user block.
    pub fn confirmed_height(&self, confirm_depth: u64) -> u64 {
        self.head_height().saturating_sub(confirm_depth)
    }

    /// Every connected block excluding genesis — main chain plus forks. The
    /// Figure 10 security metric is `main_chain_len / total_blocks`.
    pub fn total_blocks(&self) -> u64 {
        self.blocks.len() as u64 - 1
    }

    /// Main-chain length excluding genesis.
    pub fn main_chain_len(&self) -> u64 {
        self.head_height()
    }

    /// Blocks accepted but not on the main chain (the fork/stale count).
    pub fn fork_blocks(&self) -> u64 {
        self.total_blocks() - self.main_chain_len()
    }

    /// Orphans still waiting for parents.
    pub fn orphan_count(&self) -> usize {
        self.orphans.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(s: &str) -> Hash256 {
        Hash256::digest(s.as_bytes())
    }

    #[test]
    fn difficulty_grows_superlinearly() {
        let p = PowParams::default();
        assert_eq!(p.network_interval(8), p.base_interval);
        assert_eq!(p.network_interval(4), p.base_interval);
        let i16 = p.network_interval(16).as_secs_f64();
        let i32n = p.network_interval(32).as_secs_f64();
        let base = p.base_interval.as_secs_f64();
        assert!(i16 > 2.0 * base, "16 nodes: {i16}");
        assert!(i32n > 2.0 * i16, "32 nodes: {i32n}");
    }

    #[test]
    fn miner_interval_scales_with_population() {
        let p = PowParams::default();
        let one = p.miner_interval(8).as_secs_f64();
        assert!((one - 8.0 * 2.5).abs() < 0.01);
    }

    #[test]
    fn linear_chain_advances_head() {
        let mut t = BlockTree::new(h("g"));
        assert_eq!(t.insert(h("a"), h("g"), 10), InsertOutcome::NewHead { reorged: false });
        assert_eq!(t.insert(h("b"), h("a"), 10), InsertOutcome::NewHead { reorged: false });
        assert_eq!(t.head(), h("b"));
        assert_eq!(t.head_height(), 2);
        assert_eq!(t.main_chain(), vec![h("b"), h("a"), h("g")]);
        assert_eq!(t.fork_blocks(), 0);
    }

    #[test]
    fn fork_and_reorg() {
        let mut t = BlockTree::new(h("g"));
        t.insert(h("a1"), h("g"), 10);
        // Competing block at same height: side chain (equal work doesn't win).
        assert_eq!(t.insert(h("a2"), h("g"), 10), InsertOutcome::SideChain);
        assert_eq!(t.head(), h("a1"));
        // Extending the side chain outweighs: reorg.
        assert_eq!(t.insert(h("b2"), h("a2"), 10), InsertOutcome::NewHead { reorged: true });
        assert_eq!(t.head(), h("b2"));
        assert!(t.on_main_chain(&h("a2")));
        assert!(!t.on_main_chain(&h("a1")));
        assert_eq!(t.fork_blocks(), 1);
        assert_eq!(t.total_blocks(), 3);
    }

    #[test]
    fn heavier_single_block_beats_longer_light_chain() {
        let mut t = BlockTree::new(h("g"));
        t.insert(h("l1"), h("g"), 5);
        t.insert(h("l2"), h("l1"), 5);
        assert_eq!(t.insert(h("heavy"), h("g"), 100), InsertOutcome::NewHead { reorged: true });
        assert_eq!(t.head(), h("heavy"));
        assert_eq!(t.head_height(), 1);
    }

    #[test]
    fn orphans_connect_when_parent_arrives() {
        let mut t = BlockTree::new(h("g"));
        assert_eq!(t.insert(h("c"), h("b"), 10), InsertOutcome::Orphaned);
        assert_eq!(t.insert(h("b"), h("a"), 10), InsertOutcome::Orphaned);
        assert_eq!(t.orphan_count(), 2);
        // The missing link arrives; the whole subtree connects and wins.
        let outcome = t.insert(h("a"), h("g"), 10);
        assert!(matches!(outcome, InsertOutcome::NewHead { .. }), "{outcome:?}");
        assert_eq!(t.head(), h("c"));
        assert_eq!(t.head_height(), 3);
        assert_eq!(t.orphan_count(), 0);
    }

    #[test]
    fn duplicates_ignored() {
        let mut t = BlockTree::new(h("g"));
        t.insert(h("a"), h("g"), 10);
        assert_eq!(t.insert(h("a"), h("g"), 10), InsertOutcome::Duplicate);
        assert_eq!(t.total_blocks(), 1);
    }

    #[test]
    fn confirmed_height_lags_head() {
        let mut t = BlockTree::new(h("g"));
        let ids: Vec<Hash256> = (0..5).map(|i| h(&format!("b{i}"))).collect();
        let mut parent = h("g");
        for id in &ids {
            t.insert(*id, parent, 10);
            parent = *id;
        }
        assert_eq!(t.confirmed_height(2), 3);
        assert_eq!(t.confirmed_height(10), 0);
        assert_eq!(t.main_chain_at(3), Some(h("b2")));
        assert_eq!(t.main_chain_at(99), None);
    }

    #[test]
    fn partition_fork_metric() {
        // Two isolated halves each build 3 blocks on the same parent; after
        // healing one branch wins and the other counts as forked.
        let mut t = BlockTree::new(h("g"));
        let mut p1 = h("g");
        for i in 0..3 {
            let id = h(&format!("left{i}"));
            t.insert(id, p1, 10);
            p1 = id;
        }
        let mut p2 = h("g");
        for i in 0..4 {
            let id = h(&format!("right{i}"));
            t.insert(id, p2, 10);
            p2 = id;
        }
        assert_eq!(t.head(), h("right3"));
        assert_eq!(t.total_blocks(), 7);
        assert_eq!(t.main_chain_len(), 4);
        assert_eq!(t.fork_blocks(), 3);
    }
}
