//! The chaos matrix: adversarial & degraded-environment scenarios with
//! machine-checkable liveness and safety contracts (DESIGN.md §10).
//!
//! Each cell drives one platform through a [`ChaosPlan`] — environmental
//! faults plus byzantine client actors interleaved with honest traffic on
//! the shared virtual clock, run by [`blockbench::driver::run_timeline`] —
//! and then gates on two contracts:
//!
//! - **liveness**: the post-chaos commit rate recovers to a per-scenario
//!   floor of the pre-chaos rate (the `fig9_restart` recovery style);
//! - **safety**: the cross-node invariant checker
//!   ([`blockbench::check_chains`]) walks every node's committed chain and
//!   verifies linkage, no conflicting commits and state-root agreement,
//!   with a fork-tip tolerance matching the platform's finality model.
//!
//! Everything stays inside the deterministic harness: actors use no RNG,
//! flapping partitions expand at plan-build time, and gossip jitter draws
//! flow through the seeded network stream — so every cell replays
//! byte-identically (see `tests/parallel_determinism.rs`).

use crate::exp_macro::Macro;
use crate::parallel::map_cells;
use crate::platforms::Platform;
use crate::table::{num, Table};
use bb_sim::SimDuration;
use bb_types::NodeId;
use blockbench::connector::Fault;
use blockbench::{check_chains, run_timeline, ByzBehavior, ByzClientSpec, ChaosPlan};

/// The six scenario classes of the chaos matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Byzantine clients: a nonce-gap flood, a replayer and an oversized-
    /// payload pusher hammer three servers at once.
    ByzFlood,
    /// The PBFT primary sends conflicting pre-prepares to disjoint peer
    /// subsets; honest replicas must detect it and view-change past it.
    Equivocate,
    /// One-way partition: the last two nodes still hear the cluster but
    /// their replies are dropped.
    PartitionAsym,
    /// A partition that oscillates cut/heal on a fixed period.
    PartitionFlap,
    /// One node's disk charges per-op latency (modeled accounting).
    SlowDisk,
    /// Seeded latency noise on every link.
    GossipJitter,
}

/// Scenario timing inside the driven window (seconds).
const CHAOS_START: u64 = 20;
const CHAOS_END: u64 = 35;
/// Post-chaos measurement window opens here.
const POST_FROM: u64 = 40;

impl Scenario {
    /// All scenarios in presentation order.
    pub const ALL: [Scenario; 6] = [
        Scenario::ByzFlood,
        Scenario::Equivocate,
        Scenario::PartitionAsym,
        Scenario::PartitionFlap,
        Scenario::SlowDisk,
        Scenario::GossipJitter,
    ];

    /// Table label.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::ByzFlood => "byz-flood",
            Scenario::Equivocate => "equivocate",
            Scenario::PartitionAsym => "partition-asym",
            Scenario::PartitionFlap => "partition-flap",
            Scenario::SlowDisk => "slow-disk",
            Scenario::GossipJitter => "gossip-jitter",
        }
    }

    /// Platforms the scenario applies to. Floods need a nonce-ordered
    /// pool (Fabric executes whatever arrives); equivocation needs a
    /// proposal to fork (PBFT only); slow disks need durable files
    /// (Parity's state lives in memory).
    pub fn platforms(self) -> &'static [Platform] {
        match self {
            Scenario::ByzFlood => &[Platform::Ethereum, Platform::Parity],
            Scenario::Equivocate => &[Platform::Hyperledger],
            Scenario::SlowDisk => &[Platform::Ethereum, Platform::Hyperledger],
            Scenario::PartitionAsym | Scenario::PartitionFlap | Scenario::GossipJitter => {
                &[Platform::Ethereum, Platform::Parity, Platform::Hyperledger]
            }
        }
    }

    /// The scenario's plan over an 8-node deployment.
    pub fn plan(self) -> ChaosPlan {
        let start = SimDuration::from_secs(CHAOS_START);
        let end = SimDuration::from_secs(CHAOS_END);
        match self {
            Scenario::ByzFlood => ChaosPlan::new()
                .actor(ByzClientSpec {
                    server: NodeId(0),
                    behavior: ByzBehavior::NonceGapFlood { start_nonce: 10_000 },
                    rate: 60.0,
                    from: start,
                    until: end,
                    key_seed: 0xBAD_0001,
                })
                .actor(ByzClientSpec {
                    server: NodeId(1),
                    behavior: ByzBehavior::Replay,
                    rate: 40.0,
                    from: start,
                    until: end,
                    key_seed: 0xBAD_0002,
                })
                .actor(ByzClientSpec {
                    server: NodeId(2),
                    behavior: ByzBehavior::Oversized { payload_bytes: 2048 },
                    rate: 20.0,
                    from: start,
                    until: end,
                    key_seed: 0xBAD_0003,
                }),
            // The view-0 primary turns coat; the view change is the
            // recovery mechanism, so there is no disarm event.
            Scenario::Equivocate => ChaosPlan::new().at(start, Fault::Equivocate(NodeId(0))),
            // Nodes 6 and 7 can hear but not be heard: the quorum side
            // (with the observer) keeps committing throughout.
            Scenario::PartitionAsym => ChaosPlan::new()
                .at(start, Fault::PartitionAsymmetric { left: 6 })
                .at(end, Fault::Heal),
            Scenario::PartitionFlap => ChaosPlan::new().flapping_partition(
                start,
                SimDuration::from_millis(1500),
                5,
                6,
            ),
            Scenario::SlowDisk => ChaosPlan::new()
                .at(start, Fault::SlowDisk(NodeId(1), SimDuration::from_micros(200)))
                .at(end, Fault::SlowDisk(NodeId(1), SimDuration::ZERO)),
            Scenario::GossipJitter => ChaosPlan::new()
                .at(start, Fault::GossipJitter(SimDuration::from_millis(2)))
                .at(end, Fault::Heal),
        }
    }

    /// Post-chaos throughput floor, as a fraction of the pre-chaos rate.
    /// Mild degradations must fully recover; an equivocating primary or a
    /// flapping partition buys downtime, and the byzantine flood's pool
    /// occupancy ages out block by block *after* the chaos window
    /// (`pool_evict_blocks`), so their floors leave room for the tail.
    pub fn liveness_floor(self) -> f64 {
        match self {
            Scenario::Equivocate => 0.4,
            Scenario::PartitionFlap => 0.5,
            Scenario::ByzFlood => 0.85,
            _ => 0.9,
        }
    }

    /// Fork-tip heights exempt from cross-node agreement: PBFT commits are
    /// final; chain platforms may disagree about an un-buried tip.
    pub fn tip_tolerance(platform: Platform) -> u64 {
        match platform {
            Platform::Ethereum => 8,
            Platform::Parity => 3,
            Platform::Hyperledger => 0,
        }
    }
}

/// The chaos degradation table: one row per scenario × platform cell, run
/// with 8 servers, 8 clients, `rate` tx/s per client, `window_secs` per cell
/// (must clear [`POST_FROM`]; 60 is the calibrated shape).
pub fn fig_chaos(window_secs: u64, rate: f64) -> Table {
    assert!(window_secs > POST_FROM + 5, "window too short to measure recovery");
    let grid: Vec<(Scenario, Platform)> = Scenario::ALL
        .into_iter()
        .flat_map(|s| s.platforms().iter().map(move |&p| (s, p)))
        .collect();
    let rows = map_cells(grid, move |(scenario, platform)| {
        let mut chain = platform.build(8);
        let mut wl = Macro::Ycsb.build(8);
        let run = run_timeline(chain.as_mut(), wl.as_mut(), 8, rate, window_secs, &scenario.plan());
        let committed_at = |sec: u64| {
            run.series.iter().find(|&&(t, _, _)| t == sec).map(|&(_, c, _)| c).unwrap_or(0)
        };
        let pre_rate = (committed_at(CHAOS_START - 4) - committed_at(1)) as f64
            / (CHAOS_START - 5) as f64;
        let post_rate = (committed_at(window_secs) - committed_at(POST_FROM)) as f64
            / (window_secs - POST_FROM) as f64;
        // The liveness contract.
        let live = pre_rate > 0.0 && post_rate >= scenario.liveness_floor() * pre_rate;
        let stats = &run.series.last().expect("non-empty window").2;
        vec![
            scenario.name().into(),
            platform.name().into(),
            num(pre_rate),
            num(post_rate),
            if live { "yes".into() } else { "NO".into() },
            format!("{}", run.byz_submitted),
            format!("{}", run.byz_rejected),
            format!("{}", stats.equivocations_detected),
            format!("{}", stats.partition_flaps),
            format!("{}", stats.disk_stall_ms),
            match check_chains(&run.chains, Scenario::tip_tolerance(platform)) {
                Ok(n) => format!("ok({n})"),
                Err(v) => format!("VIOLATION: {v}"),
            },
        ]
    });
    let mut t = Table::new(
        format!(
            "Chaos matrix: scenarios at t={CHAOS_START}..{CHAOS_END}s, \
             recovery window t={POST_FROM}..{window_secs}s (8 servers, 8 clients)"
        ),
        &[
            "scenario",
            "platform",
            "pre (tx/s)",
            "post (tx/s)",
            "live",
            "byz sent",
            "byz rejected",
            "equivocations",
            "flaps",
            "stall (ms)",
            "safety",
        ],
    );
    rows.into_iter().for_each(|row| t.row(row));
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claims;
    use blockbench::SafetyViolation;

    /// The whole matrix's table, shared by every contract test (cells are
    /// driven in parallel by `map_cells`; one run keeps the suite affordable).
    fn matrix() -> &'static Table {
        static MATRIX: std::sync::OnceLock<Table> = std::sync::OnceLock::new();
        MATRIX.get_or_init(|| fig_chaos(60, 20.0))
    }

    #[test]
    fn chaos_matrix_covers_all_scenarios() -> Result<(), String> {
        claims::fig_chaos_covers_every_cell(matrix())
    }

    #[test]
    fn chaos_liveness_contract_holds_on_every_cell() -> Result<(), String> {
        claims::fig_chaos_every_cell_is_live(matrix())
    }

    #[test]
    fn chaos_safety_contract_holds_and_is_not_vacuous() -> Result<(), String> {
        claims::fig_chaos_every_cell_is_safe(matrix())
    }

    #[test]
    fn chaos_mechanisms_actually_fired() -> Result<(), String> {
        claims::fig_chaos_mechanisms_fired(matrix())
    }

    /// The figure's table as a whole: every cell present, live and safe.
    #[test]
    fn fig_chaos_renders_every_cell() -> Result<(), String> {
        claims::fig_chaos_covers_every_cell(matrix())?;
        claims::fig_chaos_every_cell_is_live(matrix())?;
        claims::fig_chaos_every_cell_is_safe(matrix())
    }

    /// Negative test: the safety oracle must catch a seeded conflicting
    /// commit inside otherwise-honest chains taken from a real run.
    #[test]
    fn chaos_safety_checker_catches_seeded_violation() {
        let mut chain = Platform::Hyperledger.build(4);
        let plan = ChaosPlan::new();
        let run = run_timeline(chain.as_mut(), Macro::Ycsb.build(4).as_mut(), 4, 20.0, 12, &plan);
        let mut chains = run.chains.clone();
        assert!(check_chains(&chains, 0).expect("honest run is safe") > 0);
        // Node 1 "commits" a different block at height 1 (re-linking its
        // suffix so per-node linkage stays intact).
        let forged = bb_crypto::Hash256::digest(b"forged-block");
        chains[1][0].id = forged;
        if let Some(next) = chains[1].get_mut(1) {
            next.parent = forged;
        }
        let err = check_chains(&chains, 0).unwrap_err();
        assert!(
            matches!(err, SafetyViolation::ConflictingCommit { height: 1, .. }),
            "got {err:?}"
        );
    }
}
