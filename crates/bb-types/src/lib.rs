//! Shared chain types for BLOCKBENCH-RS.
//!
//! The three simulated platforms (Ethereum-like, Parity-like, Fabric-like)
//! exchange the same vocabulary of objects: [`Address`]es, signed
//! [`Transaction`]s, and [`Block`]s chained by header hashes, with
//! per-transaction success receipts carried in [`BlockSummary`].
//! A deterministic binary [`codec`] underpins hashing: two nodes that build
//! the same block bytes compute the same block id, which is what makes fork
//! detection and the paper's security metric (Figure 10) meaningful. A
//! world numbers its transactions once, in a [`TxTable`], and its replicas
//! keep [`TxBits`] over those numbers ([`txs`]).

pub mod address;
pub mod block;
pub mod codec;
pub mod ids;
pub mod tx;
pub mod txs;

pub use address::Address;
pub use block::{Block, BlockHeader, BlockSummary};
pub use codec::{DecodeError, Decoder, Encoder};
pub use ids::{AccountId, ClientId, NodeId};
pub use tx::{Transaction, TxBody, TxId};
pub use txs::{TxBits, TxTable};
