//! Authenticated data structures for BLOCKBENCH-RS.
//!
//! Section 3.1.2 of the paper: "The hash tree for \[the\] transaction list is a
//! classic Merkle tree... different Merkle tree variants are used for the
//! state tree. Ethereum and Parity employ \[a\] Patricia-Merkle tree...
//! Hyperledger implements \[a\] Bucket-Merkle tree."
//!
//! - [`merkle`]: the classic binary Merkle tree (transaction roots in block
//!   headers);
//! - [`patricia`]: a persistent Merkle-Patricia trie over any
//!   [`bb_storage::KvStore`] — every update writes fresh interior nodes,
//!   which is exactly the write/space amplification Figure 12 shows for
//!   Ethereum and Parity;
//! - [`bucket`]: a bucket-hash tree with O(1) incremental updates over a
//!   flat key-value layout — Fabric's cheap state authentication.

pub mod bucket;
pub mod merkle;
pub mod patricia;

pub use bucket::{BlockDelta, BucketTree};
pub use merkle::{merkle_root, MerkleTree};
pub use patricia::{PatriciaTrie, TrieDelta};
