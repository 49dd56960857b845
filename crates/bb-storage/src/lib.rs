//! Storage engines for BLOCKBENCH-RS.
//!
//! The paper's platforms persist blockchain state in embedded key-value
//! stores — LevelDB under Ethereum, RocksDB under Hyperledger Fabric
//! (Section 3.1.2) — while Parity keeps state in memory. We reproduce that
//! split with:
//!
//! - [`Vfs`]: an in-memory virtual filesystem that meters every byte written
//!   and read, giving the disk-usage numbers of Figure 12 without real I/O;
//! - [`MemStore`]: a plain ordered in-memory store (Parity's model);
//! - [`LsmStore`]: a real log-structured merge tree — write-ahead log,
//!   memtable, leveled sorted immutable SSTables with bloom filters and a
//!   sparse index, incremental compaction — the LevelDB/RocksDB stand-in;
//! - [`StorageStats`]: counters every engine exposes to the benchmark.
//!
//! Engines implement the common [`KvStore`] trait so the Merkle layers and
//! platforms can swap them freely.

pub mod fault;
pub mod kv;
pub mod lsm;
pub mod memstore;
pub mod stats;
pub mod vfs;

pub use fault::FaultVfs;
pub use kv::{
    chunk_wire_bytes, FrameSlot, IntoShared, KvError, KvOp, KvOps, KvPairs, KvStore, WriteBatch,
};
pub use lsm::merge::KWayMerge;
pub use lsm::sstable::{SsTable, TableBuilder};
pub use lsm::store::{LsmConfig, LsmStore};
pub use lsm::wal::{Wal, WalReplay};
pub use memstore::MemStore;
pub use stats::StorageStats;
pub use vfs::Vfs;
