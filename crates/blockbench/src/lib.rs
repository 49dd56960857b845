//! The BLOCKBENCH framework core (Figure 4 of the paper).
//!
//! "To evaluate a blockchain system, the first step is to integrate the
//! blockchain into the framework's backend by implementing \[the\]
//! IBlockchainConnector interface... A user can use one of the existing
//! workloads... or implement a new workload using the IWorkloadConnector
//! interface... BLOCKBENCH's core component is the Driver which takes as
//! input a workload \[and\] user-defined configuration..., executes it on the
//! blockchain and outputs running statistics." (Section 3.2)
//!
//! - [`connector`]: the `BlockchainConnector` trait (deploy / submit /
//!   `get_latest_blocks(h)` / query / fault injection) every platform
//!   implements, plus platform-level stats;
//! - [`contract`]: the dual-backend contract bundle — each Table 1 contract
//!   ships an SVM bytecode build (Ethereum/Parity) and a native chaincode
//!   build (Fabric), mirroring the paper's Solidity + Go twin
//!   implementations;
//! - [`driver`]: the crate's two run loops — the asynchronous driver
//!   (closed-loop client pools and open-loop arrival streams, an
//!   outstanding-transaction queue, and a polling loop that matches
//!   confirmed blocks back to submissions) and [`driver::run_timeline`],
//!   which drives fault and chaos plans and samples once per second;
//! - [`load`]: the open-loop arrival engine — a Poisson arrival process
//!   over compact million-account populations, sampled exactly in O(1) per
//!   event;
//! - [`stats`]: throughput, latency percentiles/CDF (log-bucketed streaming
//!   histograms, naive and coordinated-omission-free), queue-length and
//!   commit timelines (Section 3.3's metrics);
//! - [`security`]: the fork-ratio security metric of Figure 10;
//! - [`chaos`]: the adversarial scenario layer — [`chaos::ChaosPlan`], the
//!   one plan type `run_timeline` takes, extends the declarative fault
//!   schedule with byzantine client actors and flapping-partition expansion;
//! - [`invariant`]: the cross-node safety checker chaos contracts gate on
//!   (prefix consistency, no conflicting commits, state-root agreement).

pub mod chaos;
pub mod connector;
pub mod contract;
pub mod driver;
pub mod fault;
pub mod invariant;
pub mod load;
pub mod security;
pub mod stats;

pub use chaos::{ByzBehavior, ByzClientSpec, ChaosPlan};
pub use connector::{
    BlockchainConnector, ChainEntry, DirectExec, Fault, NodeCounters, PlatformStats, Query,
    QueryError, QueryResult, RecoveryWindow,
};
pub use contract::{Chaincode, ChaincodeContext, ContractBundle, SvmContract};
pub use driver::{
    run_open_loop, run_timeline, run_workload, run_workload_with_faults, DriverConfig, Timeline,
    WorkloadConnector,
};
pub use fault::FaultPlan;
pub use invariant::{check_chains, SafetyViolation};
pub use load::{ArrivalGen, ArrivalProcess, OpenLoopConfig};
pub use security::fork_ratio;
pub use stats::{LogHistogram, RunStats};
