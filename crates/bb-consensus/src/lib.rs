//! Consensus protocols for BLOCKBENCH-RS.
//!
//! Section 3.1.1 of the paper maps the three platforms onto a spectrum of
//! Byzantine-fault-tolerant protocols; this crate implements each as a pure
//! state machine the platform crates wire to the simulated network:
//!
//! - [`pow`]: proof-of-work — the analytical exponential-race model of
//!   mining, a heaviest-chain block tree with orphan handling (GHOST-style
//!   fork choice), and the super-linear difficulty-vs-network-size rule the
//!   paper's authors applied to keep large Ethereum networks from
//!   diverging;
//! - [`poa`]: Parity's Aura-style proof-of-authority round — pre-assigned
//!   time slots, one authority per step;
//! - [`pbft`]: Castro–Liskov PBFT — pre-prepare/prepare/commit with
//!   batching (Fabric's `batchSize = 500`), f = ⌊(n−1)/3⌋ quorums, and view
//!   changes. The *sans-IO* design (methods return [`pbft::Action`]s) keeps
//!   it independently testable; the bounded message channel whose overflow
//!   kills Fabric past 16 nodes lives in the platform layer.

pub mod pbft;
pub mod poa;
pub mod pow;

pub use pbft::{Batch, PbftConfig, PbftMsg, PbftNode};
pub use poa::PoaSchedule;
pub use pow::{BlockTree, InsertOutcome, PowParams};
