//! The Ethereum-like platform (geth v1.4.18 stand-in).
//!
//! Stack, top to bottom (Figure 1 / Section 3.1 of the paper):
//! - **consensus**: proof-of-work modelled as exponential mining races over
//!   virtual time, heaviest-chain fork choice, super-linear difficulty
//!   growth with network size, 2-block (~5 s) confirmation depth;
//! - **data model**: accounts in a Merkle-Patricia trie persisted to an LSM
//!   store (the LevelDB stand-in) — every block commits a new state root,
//!   and historical roots stay queryable (`getBalance(acct, block)`);
//! - **execution**: the gas-metered SVM with Ethereum-grade cost constants
//!   (slow interpreter, heavy per-element memory overhead — Figure 11).
//!
//! [`state`] (accounts, buffered VM host, transaction application),
//! [`node`] (the fork-choice node: block tree, pool, sync, recovery) and
//! [`account_chain`] (the one connector over those nodes, with the world's
//! one `bb_types::TxTable` its nodes index by) are generic over
//! the storage backend and the consensus plug-in, and are reused by
//! `bb-parity`, which swaps PoW for authority-round and the LSM trie
//! backend for a capped in-memory store. [`chain`] holds only what is
//! proof-of-work.

pub mod account_chain;
pub mod chain;
pub mod config;
pub mod node;
pub mod state;

pub use chain::EthereumChain;
pub use config::{EthConfig, EvmCosts};
