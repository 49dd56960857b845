//! Deterministic discrete-event simulation kernel for BLOCKBENCH-RS.
//!
//! Every experiment in this workspace — a 32-node PBFT cluster, a PoW miner
//! race, a 5-minute YCSB run — executes on a single *virtual clock*. Nodes,
//! clients and the benchmark driver are all actors whose interactions are
//! events ordered by [`SimTime`]. Real computation (VM execution, trie
//! hashing, LSM writes) is performed for real, but *timed* by calibrated cost
//! models, so a cluster-scale experiment runs in seconds of wall-clock time
//! and is bit-for-bit reproducible from a seed.
//!
//! The kernel provides:
//! - [`SimTime`] / [`SimDuration`]: microsecond-resolution virtual time,
//! - [`ShardedEngine`] / [`ShardedWorld`]: the event loop — one lane per
//!   node, one heap of keyed events, one canonical order,
//! - [`SimRng`]: a seeded RNG with the distributions the protocols need
//!   (exponential mining races, Zipfian key choice),
//! - meters ([`CpuMeter`], [`ByteMeter`], [`MemMeter`], [`TimeSeries`]): the
//!   resource accounting behind the paper's CPU%, Mbps, memory and disk plots.

pub mod meter;
pub mod rng;
pub mod series;
pub mod shard;
pub mod time;

pub use meter::{ByteMeter, CpuMeter, MemMeter};
pub use rng::SimRng;
pub use shard::{Effects, Outboard, RecentOutcomes, ShardedEngine, ShardedWorld, OUTCOMES_KEPT};
pub use series::TimeSeries;
pub use time::{SimDuration, SimTime};
