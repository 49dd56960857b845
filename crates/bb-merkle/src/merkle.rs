//! The classic binary Merkle tree used for transaction roots.
//!
//! Odd levels duplicate the last node (the Bitcoin convention).

use bb_crypto::Hash256;

/// A fully materialised Merkle tree over a list of leaf hashes.
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// `levels[0]` = leaves, last level = `[root]`.
    levels: Vec<Vec<Hash256>>,
}

impl MerkleTree {
    /// Build a tree over `leaves`. An empty list yields the zero root
    /// (blocks with no transactions carry [`Hash256::ZERO`]).
    pub fn build(leaves: &[Hash256]) -> MerkleTree {
        if leaves.is_empty() {
            return MerkleTree { levels: vec![vec![]] };
        }
        let mut levels = vec![leaves.to_vec()];
        while levels.last().expect("nonempty").len() > 1 {
            let prev = levels.last().expect("nonempty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                let left = &pair[0];
                let right = pair.get(1).unwrap_or(left); // duplicate odd tail
                next.push(Hash256::combine(left, right));
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The root hash ([`Hash256::ZERO`] for an empty tree).
    pub fn root(&self) -> Hash256 {
        self.levels.last().and_then(|l| l.first()).copied().unwrap_or(Hash256::ZERO)
    }
}

/// Compute just the root without materialising levels — the hot path when
/// building blocks.
pub fn merkle_root(leaves: &[Hash256]) -> Hash256 {
    if leaves.is_empty() {
        return Hash256::ZERO;
    }
    let mut layer = leaves.to_vec();
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            let left = &pair[0];
            let right = pair.get(1).unwrap_or(left);
            next.push(Hash256::combine(left, right));
        }
        layer = next;
    }
    layer[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Hash256> {
        (0..n).map(|i| Hash256::digest(format!("tx{i}").as_bytes())).collect()
    }

    #[test]
    fn empty_tree_has_zero_root() {
        assert_eq!(MerkleTree::build(&[]).root(), Hash256::ZERO);
        assert_eq!(merkle_root(&[]), Hash256::ZERO);
    }

    #[test]
    fn single_leaf_root_is_leaf() {
        let l = leaves(1);
        assert_eq!(MerkleTree::build(&l).root(), l[0]);
        assert_eq!(merkle_root(&l), l[0]);
    }

    #[test]
    fn fast_root_matches_tree_root() {
        for n in [1, 2, 3, 4, 5, 7, 8, 15, 16, 33, 100] {
            let l = leaves(n);
            assert_eq!(merkle_root(&l), MerkleTree::build(&l).root(), "n={n}");
        }
    }

    #[test]
    fn root_is_content_and_order_sensitive() {
        let l = leaves(8);
        let mut reordered = l.clone();
        reordered.swap(0, 7);
        assert_ne!(merkle_root(&l), merkle_root(&reordered));
        let mut altered = l.clone();
        altered[3] = Hash256::digest(b"tampered");
        assert_ne!(merkle_root(&l), merkle_root(&altered));
    }
}

/// Exhaustive over small trees: replacing any one leaf of a tree of up to 31
/// leaves changes the root.
#[cfg(test)]
mod seeded_props {
    use super::*;

    #[test]
    fn distinct_leaf_sets_distinct_roots_exhaustive() {
        for n in 1usize..32 {
            let a: Vec<Hash256> =
                (0..n).map(|i| Hash256::digest(&(i as u64).to_be_bytes())).collect();
            for flip in 0..n {
                let mut b = a.clone();
                b[flip] = Hash256::digest(b"flip");
                assert_ne!(merkle_root(&a), merkle_root(&b), "n={n} flip={flip}");
            }
        }
    }
}
