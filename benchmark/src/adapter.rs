//! The one file that touches the system under test.
//!
//! Everything the benchmark links against is named in the `use` block below;
//! that block is the frozen contact surface README.md lists. It holds the
//! tracing decorators (they implement the system's traits), the five
//! workloads, the correctness checks, and the layer kernels. It drives the
//! system only through public functions and measures from outside: no file of
//! the system is edited to be measured.

use crate::host::{peak_rss_mb, Mark};
use crate::stats::median;
use crate::trace::{Op, Span, Tracer};

use bb_bench::parallel::{cost_hint, map_cells_hinted, workers_for};
use bb_consensus::pbft::{Action, PbftConfig, PbftMsg, PbftNode};
use bb_contracts::ycsb as ycsb_contract;
use bb_crypto::{sha256, Hash256, KeyPair, KeyRegistry};
use bb_ethereum::state::AccountState;
use bb_ethereum::{EthConfig, EthereumChain};
use bb_fabric::{FabricChain, FabricConfig};
use bb_merkle::{BucketTree, PatriciaTrie};
use bb_net::{LinkParams, Network};
use bb_parity::{ParityChain, ParityConfig};
use bb_sim::{Effects, Outboard, ShardedEngine, ShardedWorld, SimDuration, SimRng, SimTime};
use bb_storage::{KvStore, LsmConfig, LsmStore, MemStore, Vfs, WriteBatch};
use bb_svm::Vm;
use bb_types::{AccountId, Address, BlockSummary, ClientId, NodeId, Transaction};
use bb_workloads::smallbank::SmallbankConfig;
use bb_workloads::ycsb::YcsbConfig;
use bb_workloads::{CpuHeavyRunner, IoHeavyRunner, Population, SmallbankWorkload, YcsbWorkload};
use blockbench::connector::{
    BlockchainConnector, ChainEntry, DirectExec, Fault, PlatformStats, Query, QueryError,
    QueryResult,
};
use blockbench::contract::ContractBundle;
use blockbench::driver::{
    run_open_loop, run_workload, run_workload_with_faults, DriverConfig, WorkloadConnector,
};
use blockbench::fault::FaultPlan;
use blockbench::invariant::check_chains;
use blockbench::load::{ArrivalGen, ArrivalProcess, OpenLoopConfig};
use blockbench::stats::RunStats;

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Decorators
// ---------------------------------------------------------------------------

/// A chain that records one span per trait call and forwards it unchanged.
pub struct Traced<C> {
    inner: C,
    tracer: Tracer,
}

impl<C: BlockchainConnector> BlockchainConnector for Traced<C> {
    fn name(&self) -> &'static str {
        let _span = self.tracer.span(Op::ChainName, 0);
        self.inner.name()
    }
    fn node_count(&self) -> u32 {
        let _span = self.tracer.span(Op::NodeCount, 0);
        self.inner.node_count()
    }
    fn deploy(&mut self, bundle: &ContractBundle) -> Address {
        let _span = self.tracer.span(Op::Deploy, 0);
        self.inner.deploy(bundle)
    }
    fn submit(&mut self, server: NodeId, tx: Transaction) -> bool {
        let _span = self.tracer.span(Op::Submit, 0);
        self.inner.submit(server, tx)
    }
    fn advance_to(&mut self, t: SimTime) {
        let _span = self.tracer.span(Op::AdvanceTo, t.as_micros());
        self.inner.advance_to(t)
    }
    fn now(&self) -> SimTime {
        let _span = self.tracer.span(Op::Now, 0);
        self.inner.now()
    }
    fn confirmed_blocks_since(&mut self, height: u64) -> Vec<BlockSummary> {
        let _span = self.tracer.span(Op::ConfirmedBlocksSince, 0);
        self.inner.confirmed_blocks_since(height)
    }
    fn query(&mut self, q: &Query) -> Result<QueryResult, QueryError> {
        let _span = self.tracer.span(Op::Query, 0);
        self.inner.query(q)
    }
    fn inject(&mut self, fault: Fault) {
        let _span = self.tracer.span(Op::Inject, 0);
        self.inner.inject(fault)
    }
    fn stats(&self) -> PlatformStats {
        let _span = self.tracer.span(Op::Stats, 0);
        self.inner.stats()
    }
    fn preload_blocks(&mut self, blocks: Vec<Vec<Transaction>>) {
        let _span = self.tracer.span(Op::PreloadBlocks, 0);
        self.inner.preload_blocks(blocks)
    }
    fn execute_direct(&mut self, tx: Transaction) -> DirectExec {
        let span = self.tracer.span(Op::ExecuteDirect, 0);
        let result = self.inner.execute_direct(tx);
        span.set_virtual_us(result.duration.as_micros());
        result
    }
    fn committed_chain(&self, node: NodeId) -> Vec<ChainEntry> {
        let _span = self.tracer.span(Op::CommittedChain, 0);
        self.inner.committed_chain(node)
    }
}

/// A workload that forwards every call unchanged and stamps the host clocks
/// when `setup` returns — the one clock pair that splits a run into set-up
/// and measured phase. With a tracer it also records a span per call; the
/// end-to-end runs pass `None` and pay for no other clock reads.
pub struct TracedWorkload<W> {
    inner: W,
    tracer: Option<Tracer>,
    setup_end: Option<Mark>,
}

impl<W> TracedWorkload<W> {
    pub fn new(inner: W, tracer: Option<Tracer>) -> Self {
        TracedWorkload {
            inner,
            tracer,
            setup_end: None,
        }
    }
}

impl<W: WorkloadConnector> WorkloadConnector for TracedWorkload<W> {
    fn name(&self) -> &'static str {
        let _span = self.tracer.as_ref().map(|t| t.span(Op::WorkloadName, 0));
        self.inner.name()
    }
    fn setup(&mut self, chain: &mut dyn BlockchainConnector) {
        {
            let _span = self.tracer.as_ref().map(|t| t.span(Op::Setup, 0));
            self.inner.setup(chain);
        }
        self.setup_end = Some(Mark::now());
    }
    fn next_transaction(&mut self, client: ClientId) -> Transaction {
        let _span = self.tracer.as_ref().map(|t| t.span(Op::NextTransaction, 0));
        self.inner.next_transaction(client)
    }
    fn on_rejected(&mut self, client: ClientId) {
        let _span = self.tracer.as_ref().map(|t| t.span(Op::OnRejected, 0));
        self.inner.on_rejected(client)
    }
    fn next_transaction_keyed(&mut self, account: AccountId) -> Transaction {
        let _span = self
            .tracer
            .as_ref()
            .map(|t| t.span(Op::NextTransactionKeyed, 0));
        self.inner.next_transaction_keyed(account)
    }
    fn on_rejected_keyed(&mut self, account: AccountId) {
        let _span = self.tracer.as_ref().map(|t| t.span(Op::OnRejectedKeyed, 0));
        self.inner.on_rejected_keyed(account)
    }
}

// ---------------------------------------------------------------------------
// Running one cell
// ---------------------------------------------------------------------------

/// How a child process runs its workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end run: no spans.
    Plain,
    /// Same run with a span per trait call.
    Traced,
    /// Build the chain, run `WorkloadConnector::setup`, stop.
    SetupOnly,
}

/// Which driver entry point a cell goes through.
enum Load {
    Closed(DriverConfig),
    Faulty(DriverConfig, FaultPlan),
    Open(OpenLoopConfig),
}

/// Exact, deterministic model outputs of a run, summed over its cells.
#[derive(Debug, Default)]
struct Tally {
    cells: u64,
    submitted: u64,
    committed: u64,
    aborted: u64,
    rejected: u64,
    confirmed: u64,
    tps_sum: f64,
    latency_p50_sum: f64,
    latency_p99_sum: f64,
    sim_s: f64,
    /// The reported platform counters, summed (`recovery_ms`: the longest).
    platform: PlatformStats,
}

impl Tally {
    fn add_run(&mut self, stats: &RunStats, sim_s: f64) {
        self.cells += 1;
        self.submitted += stats.submitted;
        self.committed += stats.committed;
        self.aborted += stats.aborted;
        self.rejected += stats.rejected;
        self.confirmed += stats.latencies.count() as u64;
        self.tps_sum += stats.throughput_tps();
        self.latency_p50_sum += stats.latency_quantile(0.5).unwrap_or(0.0);
        self.latency_p99_sum += stats.latency_quantile(0.99).unwrap_or(0.0);
        self.sim_s += sim_s;
        self.add_platform(&stats.platform);
    }

    fn add_platform(&mut self, p: &PlatformStats) {
        let total = &mut self.platform;
        total.blocks_main += p.blocks_main;
        total.blocks_total += p.blocks_total;
        total.txs_committed += p.txs_committed;
        total.net_bytes += p.net_bytes;
        total.trie_cache_hits += p.trie_cache_hits;
        total.trie_cache_misses += p.trie_cache_misses;
        total.state_nodes_flushed += p.state_nodes_flushed;
        total.state_nodes_dropped += p.state_nodes_dropped;
        total.batch_put_count += p.batch_put_count;
        total.storage_bytes_written += p.storage_bytes_written;
        total.storage_logical_bytes += p.storage_logical_bytes;
        total.bytes_compacted += p.bytes_compacted;
        total.wal_records_replayed += p.wal_records_replayed;
        total.exec_conflicts += p.exec_conflicts;
        total.exec_serial_us += p.exec_serial_us;
        total.exec_modeled_us += p.exec_modeled_us;
        total.equivocations_detected += p.equivocations_detected;
        total.recovery_ms = total.recovery_ms.max(p.recovery_ms);
        total.resync_blocks += p.resync_blocks;
        total.snapshot_chunks += p.snapshot_chunks;
    }

    /// The exact-count metrics, by their fixed names. Rates and latencies of
    /// a sweep are the mean over its cells; `recovery.ms` is the longest.
    fn metrics(&self) -> Vec<(&'static str, f64)> {
        let p = &self.platform;
        let cells = self.cells.max(1) as f64;
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        vec![
            ("model.submitted", self.submitted as f64),
            ("model.committed", self.committed as f64),
            ("model.aborted", self.aborted as f64),
            ("model.rejected", self.rejected as f64),
            (
                "model.unconfirmed",
                self.submitted.saturating_sub(self.confirmed) as f64,
            ),
            ("model.tps", self.tps_sum / cells),
            ("model.latency_p50_s", self.latency_p50_sum / cells),
            ("model.latency_p99_s", self.latency_p99_sum / cells),
            ("model.blocks_main", p.blocks_main as f64),
            ("model.blocks_total", p.blocks_total as f64),
            ("model.sim_s", self.sim_s),
            ("net.bytes", p.net_bytes as f64),
            ("net.bytes_per_commit", ratio(p.net_bytes, p.txs_committed)),
            ("merkle.cache_hits", p.trie_cache_hits as f64),
            ("merkle.cache_misses", p.trie_cache_misses as f64),
            ("merkle.nodes_flushed", p.state_nodes_flushed as f64),
            ("merkle.nodes_dropped", p.state_nodes_dropped as f64),
            ("storage.batches", p.batch_put_count as f64),
            ("storage.bytes_written", p.storage_bytes_written as f64),
            (
                "storage.write_amp",
                ratio(p.storage_bytes_written, p.storage_logical_bytes),
            ),
            ("storage.bytes_compacted", p.bytes_compacted as f64),
            (
                "storage.wal_records_replayed",
                p.wal_records_replayed as f64,
            ),
            ("exec.conflicts", p.exec_conflicts as f64),
            ("exec.serial_us", p.exec_serial_us as f64),
            ("exec.modeled_us", p.exec_modeled_us as f64),
            ("consensus.equivocations", p.equivocations_detected as f64),
            ("recovery.ms", p.recovery_ms as f64),
            ("recovery.resync_blocks", p.resync_blocks as f64),
            ("recovery.snapshot_chunks", p.snapshot_chunks as f64),
        ]
    }
}

/// What one cell (one chain, one driving call) produced.
#[derive(Default)]
struct Cell {
    /// Cell start to the end of `setup`.
    setup_s: f64,
    /// End of `setup` to the return of the driving call.
    wall_s: f64,
    /// Process CPU over the same phase (only meaningful when no other cell
    /// runs beside this one).
    cpu_s: f64,
    /// `VmHWM` right after the driving call returned.
    peak_rss_mb: f64,
    /// The driver's result and the chain's final virtual time, seconds
    /// (`None` after a set-up-only run).
    run: Option<(RunStats, f64)>,
    spans: Option<Vec<Span>>,
    failures: Vec<String>,
}

/// Build a chain, run one workload against it through the driver, verify it.
/// `label` prefixes failure messages. The chain comes back for the checks
/// only one workload makes.
fn run_cell<C: BlockchainConnector, W: WorkloadConnector>(
    label: &str,
    started: Instant,
    mode: Mode,
    tip_tolerance: u64,
    build: impl FnOnce() -> C,
    workload: W,
    load: &Load,
) -> (Cell, C) {
    let tracer = (mode == Mode::Traced).then(Tracer::default);
    let root = tracer.as_ref().map(|t| t.span(Op::Run, 0));
    let mut chain = {
        let _span = tracer.as_ref().map(|t| t.span(Op::ChainBuild, 0));
        build()
    };
    let mut workload = TracedWorkload::new(workload, tracer.clone());
    if mode == Mode::SetupOnly {
        workload.setup(&mut chain);
        let done = workload.setup_end.expect("setup just ran");
        let cell = Cell {
            setup_s: (done.at - started).as_secs_f64(),
            ..Cell::default()
        };
        return (cell, chain);
    }

    let drive =
        |chain: &mut dyn BlockchainConnector, workload: &mut dyn WorkloadConnector| match load {
            Load::Closed(config) => run_workload(chain, workload, config),
            Load::Faulty(config, plan) => run_workload_with_faults(chain, workload, config, plan),
            Load::Open(config) => run_open_loop(chain, workload, config),
        };
    let (stats, chain) = match &tracer {
        Some(t) => {
            let mut traced = Traced {
                inner: chain,
                tracer: t.clone(),
            };
            let stats = drive(&mut traced, &mut workload);
            (stats, traced.inner)
        }
        None => {
            let stats = drive(&mut chain, &mut workload);
            (stats, chain)
        }
    };
    let end = Mark::now();
    drop(root);
    let peak_rss_mb = peak_rss_mb();
    let setup_end = workload.setup_end.expect("the driver runs setup first");

    // Verification, outside every timed phase.
    let mut failures = Vec::new();
    let chains: Vec<Vec<ChainEntry>> = (0..chain.node_count())
        .map(|i| chain.committed_chain(NodeId(i)))
        .collect();
    match check_chains(&chains, tip_tolerance) {
        Ok(0) => failures.push(format!("{label}: check_chains cross-checked no height")),
        Ok(_) => {}
        Err(violation) => failures.push(format!("{label}: safety violation: {violation}")),
    }
    // Confirmations of the drain phase count: a 10 s PoW window confirms
    // nothing at all for about one seed in four, and that is the model.
    if stats.latencies.count() == 0 {
        failures.push(format!("{label}: the driver saw no transaction confirmed"));
    }

    let cell = Cell {
        setup_s: (setup_end.at - started).as_secs_f64(),
        wall_s: (end.at - setup_end.at).as_secs_f64(),
        cpu_s: end.cpu_s - setup_end.cpu_s,
        peak_rss_mb,
        run: Some((stats, chain.now().as_secs_f64())),
        spans: tracer.map(|t| t.take_spans()),
        failures,
    };
    (cell, chain)
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Everything a child process reports about one run of one workload.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// SHA-256 of the `Debug` text of the run's results, hex.
    pub result_digest: String,
    /// Exact model counts, by metric name.
    pub counts: Vec<(&'static str, f64)>,
    /// Seconds each cell took, set-up included when it ran inside the cell,
    /// in input order.
    pub cell_walls: Vec<f64>,
    /// Threads the cells were scattered over.
    pub workers: usize,
    /// Spans per cell (traced runs only).
    pub traces: Option<Vec<Vec<Span>>>,
    /// Failed correctness checks; empty when the run is correct.
    pub failures: Vec<String>,
}

const POLL: SimDuration = SimDuration::from_millis(500);

fn scaled(d: SimDuration, scale: f64) -> SimDuration {
    SimDuration::from_micros((d.as_micros() as f64 * scale).round().max(1.0) as u64)
}

/// The figures' YCSB provisioning (`exp_macro::Macro::build`).
fn ycsb(seed: u64) -> YcsbWorkload {
    YcsbWorkload::new(YcsbConfig {
        clients: 32,
        preload_records: 500,
        seed,
        ..YcsbConfig::default()
    })
}

/// The figures' Smallbank provisioning.
fn smallbank(seed: u64) -> SmallbankWorkload {
    SmallbankWorkload::new(SmallbankConfig {
        clients: 32,
        preload_accounts: 2_000,
        accounts: 2_000,
        seed,
        ..SmallbankConfig::default()
    })
}

/// PBFT commits are final: `check_chains` exempts no tip. The chain platforms
/// exempt their own confirmation depth — what they call confirmed must agree.
const FABRIC_TIP_TOLERANCE: u64 = 0;

impl Outcome {
    /// The exact count `name`, 0 when the run reported none.
    pub fn count(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// Run `workload` once in this process. `scale` stretches the simulated
/// windows; at 1.0 they are the calibrated sizes README.md lists.
/// `started` is when this process began, the origin of `setup_s`.
///
/// `seed` feeds the load generators — the inputs. The platforms keep their
/// own default seed: it drives the model's lottery (PoW mining, link jitter),
/// and varying it varies the amount of simulated work — 20 to 33 blocks in
/// the same `eth_ycsb_peak` window — which no host-time metric can absorb.
pub fn run(workload: &str, seed: u64, scale: f64, mode: Mode, started: Instant) -> Outcome {
    let mut out = run_sized(workload, seed, scale, mode, started);
    if mode != Mode::SetupOnly && scale >= 1.0 {
        check_exercised(workload, &mut out);
    }
    out
}

/// At calibrated size or above, each workload must still exercise what it was
/// chosen for; a model change that moves it off its layer should say so here.
fn check_exercised(workload: &str, out: &mut Outcome) {
    let (hits, misses) = (
        out.count("merkle.cache_hits"),
        out.count("merkle.cache_misses"),
    );
    let miss_rate = if hits + misses == 0.0 {
        0.0
    } else {
        misses / (hits + misses)
    };
    let complaint = match workload {
        "eth_ycsb_peak" if miss_rate >= 0.01 => Some(format!(
            "trie miss rate {miss_rate:.4} — the state no longer fits the node cache"
        )),
        "eth_ioheavy" if miss_rate <= 0.05 => Some(format!(
            "trie miss rate {miss_rate:.4} — the working set no longer overflows the node cache"
        )),
        "fabric_crash_16" if out.count("recovery.snapshot_chunks") == 0.0 => {
            Some("the restart closed its gap without a snapshot".to_string())
        }
        _ => None,
    };
    out.failures
        .extend(complaint.map(|c| format!("{workload}: {c}")));
    // `recovery.*` must stay zero on a workload that injects no fault.
    if workload != "fabric_crash_16" {
        for name in [
            "recovery.ms",
            "recovery.resync_blocks",
            "recovery.snapshot_chunks",
        ] {
            if out.count(name) != 0.0 {
                out.failures
                    .push(format!("{workload}: {name} is non-zero without a fault"));
            }
        }
    }
}

fn run_sized(workload: &str, seed: u64, scale: f64, mode: Mode, started: Instant) -> Outcome {
    match workload {
        "eth_ycsb_peak" => {
            let load = Load::Closed(DriverConfig {
                clients: 8,
                rate_per_client: 256.0,
                duration: scaled(SimDuration::from_secs(40), scale),
                poll_interval: POLL,
                drain: SimDuration::from_secs(20),
            });
            let config = EthConfig::with_nodes(8);
            let (cell, _) = run_cell(
                workload,
                started,
                mode,
                config.pow.confirm_depth,
                || EthereumChain::new(config),
                ycsb(seed),
                &load,
            );
            single_cell(cell)
        }
        "fabric_ycsb_open" => {
            let load = Load::Open(OpenLoopConfig {
                population: 1_000_000,
                process: ArrivalProcess::Poisson { rate: 1000.0 },
                zipf_theta: 0.0,
                duration: scaled(SimDuration::from_secs(90), scale),
                poll_interval: POLL,
                drain: SimDuration::from_secs(25),
                retry_backoff: SimDuration::from_millis(250),
                seed,
            });
            let (cell, _) = run_cell(
                workload,
                started,
                mode,
                FABRIC_TIP_TOLERANCE,
                || FabricChain::new(FabricConfig::with_nodes(8)),
                ycsb(seed),
                &load,
            );
            single_cell(cell)
        }
        "eth_ioheavy" => eth_ioheavy(scale, mode, started),
        "fabric_crash_16" => {
            let crash_at = scaled(SimDuration::from_secs(15), scale);
            let restart_at = scaled(SimDuration::from_secs(30), scale);
            let config = DriverConfig {
                clients: 8,
                rate_per_client: 100.0,
                duration: scaled(SimDuration::from_secs(60), scale),
                poll_interval: POLL,
                drain: SimDuration::from_secs(20),
            };
            let plan = FaultPlan::new()
                .at(crash_at, Fault::Crash(NodeId(0)))
                .at(restart_at, Fault::Restart(NodeId(0)));
            let (mut cell, mut chain) = run_cell(
                workload,
                started,
                mode,
                FABRIC_TIP_TOLERANCE,
                || FabricChain::new(FabricConfig::with_nodes(16)),
                ycsb(seed),
                &Load::Faulty(config, plan),
            );
            if let Some((stats, _)) = &cell.run {
                // The driver polls node 0 — the node that crashed — so what it
                // confirms after the restart is what the rejoined node caught up
                // on and then committed with its peers. The first poll lands one
                // interval after the window opens.
                let window_start = stats.queue_timeline.points()[0]
                    .0
                    .since(SimTime::ZERO + POLL);
                let restart = SimTime::ZERO + window_start + restart_at;
                let resumed = chain
                    .confirmed_blocks_since(0)
                    .iter()
                    .filter(|block| block.confirmed_at_us > restart.as_micros())
                    .count();
                if resumed == 0 {
                    cell.failures
                        .push(format!("{workload}: no block confirmed after the restart"));
                }
                let heights: Vec<usize> = (0..chain.node_count())
                    .map(|i| chain.committed_chain(NodeId(i)).len())
                    .collect();
                let peers = heights[1..].iter().copied().max().unwrap_or(0);
                if heights[0] + 2 < peers {
                    cell.failures.push(format!(
                        "{workload}: restarted node 0 ended at height {} against its peers' {peers}",
                        heights[0]
                    ));
                }
            }
            single_cell(cell)
        }
        "sweep_fig5" => sweep_fig5(seed, scale, mode, started),
        other => panic!("unknown workload {other}"),
    }
}

fn digest(text: &str) -> String {
    Hash256::digest(text.as_bytes()).to_hex()
}

/// Fold the cells of a driver-run workload into its outcome: set-up summed,
/// counts tallied, one digest over every cell's result in input order.
/// `wall_s`, `cpu_s` and `peak_rss_mb` are the caller's to fill.
fn gather(cells: Vec<Cell>, workers: usize) -> Outcome {
    let mut out = Outcome {
        workers,
        ..Outcome::default()
    };
    let mut tally = Tally::default();
    let mut text = String::new();
    let mut traces = Vec::new();
    for cell in cells {
        out.setup_s += cell.setup_s;
        out.cell_walls.push(cell.setup_s + cell.wall_s);
        if let Some((stats, sim_s)) = &cell.run {
            tally.add_run(stats, *sim_s);
            write!(text, "{stats:?}").expect("write to String");
        }
        traces.extend(cell.spans);
        out.failures.extend(cell.failures);
    }
    if tally.cells > 0 {
        out.ops_attempted = tally.submitted + tally.rejected;
        out.ops_failed = tally.rejected + tally.aborted;
        out.result_digest = digest(&text);
        out.counts = tally.metrics();
    }
    out.traces = (!traces.is_empty()).then_some(traces);
    out
}

fn single_cell(cell: Cell) -> Outcome {
    let (wall_s, cpu_s, peak_rss_mb) = (cell.wall_s, cell.cpu_s, cell.peak_rss_mb);
    Outcome {
        wall_s,
        cpu_s,
        peak_rss_mb,
        cell_walls: vec![wall_s],
        ..gather(vec![cell], 1)
    }
}

/// IOHeavy on one Ethereum node, sized as `Platform::build_micro(10)` sizes
/// it. Set-up is chain construction: the runner deploys its contract itself,
/// inside the measured phase. The runner generates its own tuples from a fixed
/// key range, so this workload has no seeded input.
fn eth_ioheavy(scale: f64, mode: Mode, started: Instant) -> Outcome {
    const BATCH: u64 = 10_000;
    const MEM_SCALE: u64 = 10;
    let tuples = ((160_000.0 * scale).round() as u64).max(BATCH);

    let tracer = (mode == Mode::Traced).then(Tracer::default);
    let root = tracer.as_ref().map(|t| t.span(Op::Run, 0));
    let mut chain = {
        let _span = tracer.as_ref().map(|t| t.span(Op::ChainBuild, 0));
        let mut config = EthConfig::with_nodes(1);
        config.costs.mem_base /= MEM_SCALE;
        config.node_mem_bytes = config.costs.mem_base + ((32u64 << 30) / MEM_SCALE);
        EthereumChain::new(config)
    };
    let setup_end = Mark::now();
    let setup_s = (setup_end.at - started).as_secs_f64();
    if mode == Mode::SetupOnly {
        return Outcome {
            setup_s,
            ..Outcome::default()
        };
    }

    let mut runner = IoHeavyRunner::new(BATCH);
    let (result, chain) = match &tracer {
        Some(t) => {
            let mut traced = Traced {
                inner: chain,
                tracer: t.clone(),
            };
            let result = runner.run(&mut traced, tuples);
            (result, traced.inner)
        }
        None => {
            let result = runner.run(&mut chain, tuples);
            (result, chain)
        }
    };
    let end = Mark::now();
    drop(root);
    let peak_rss_mb = peak_rss_mb();

    let platform = chain.stats();
    let calls = 2 * tuples.div_ceil(BATCH);
    let mut failures = Vec::new();
    let mut tally = Tally {
        cells: 1,
        submitted: calls,
        ..Tally::default()
    };
    tally.add_platform(&platform);
    match (&result.error, result.write_tps, result.read_tps) {
        (None, Some(write_tps), Some(read_tps)) => {
            // The runner reports tuples per simulated second for each pass.
            tally.sim_s = tuples as f64 / write_tps + tuples as f64 / read_tps;
            tally.tps_sum = 2.0 * tuples as f64 / tally.sim_s;
            tally.committed = calls;
            tally.confirmed = calls;
        }
        (error, ..) => failures.push(format!("eth_ioheavy: run failed: {error:?}")),
    }
    Outcome {
        setup_s,
        wall_s: (end.at - setup_end.at).as_secs_f64(),
        cpu_s: end.cpu_s - setup_end.cpu_s,
        peak_rss_mb,
        ops_attempted: calls,
        ops_failed: calls - tally.committed,
        result_digest: digest(&format!("{result:?}{platform:?}")),
        counts: tally.metrics(),
        cell_walls: vec![(end.at - setup_end.at).as_secs_f64()],
        workers: 1,
        traces: tracer.map(|t| vec![t.take_spans()]),
        failures,
    }
}

#[derive(Debug, Clone, Copy)]
enum Platform {
    Ethereum,
    Parity,
    Hyperledger,
}

#[derive(Debug, Clone, Copy)]
enum Macro {
    Ycsb,
    Smallbank,
}

/// The Figure 5 grid, built here rather than through `exp_macro::fig5` so each
/// cell can be seeded, timed and checked inside its closure. Dispatch — cell
/// scatter, LPT order, fig5's cost hint — is the figure's own.
fn sweep_fig5(seed: u64, scale: f64, mode: Mode, started: Instant) -> Outcome {
    let duration = scaled(SimDuration::from_secs(10), scale);
    let mut cells = Vec::new();
    for platform in [Platform::Ethereum, Platform::Parity, Platform::Hyperledger] {
        for workload in [Macro::Ycsb, Macro::Smallbank] {
            for rate in [8.0, 64.0, 256.0] {
                let hint = cost_hint(8, duration).saturating_mul(rate as u64 + 1);
                cells.push((hint, (platform, workload, rate)));
            }
        }
    }
    let workers = workers_for(cells.len());

    let begin = Mark::now();
    let results: Vec<Cell> = map_cells_hinted(cells, move |(platform, workload, rate)| {
        let label = format!("sweep_fig5[{platform:?} {workload:?} {rate}]");
        let load = Load::Closed(DriverConfig {
            clients: 8,
            rate_per_client: rate,
            duration,
            poll_interval: POLL,
            drain: SimDuration::from_secs(20),
        });
        let cell_started = Instant::now();
        // One arm per (platform, workload): the chain and workload types differ.
        macro_rules! cell {
            ($tip:expr, $build:expr, $workload:expr) => {
                run_cell(
                    &label,
                    cell_started,
                    mode,
                    $tip,
                    || $build,
                    $workload,
                    &load,
                )
                .0
            };
        }
        let (eth, parity) = (EthConfig::with_nodes(8), ParityConfig::with_nodes(8));
        match (platform, workload) {
            (Platform::Ethereum, Macro::Ycsb) => {
                cell!(eth.pow.confirm_depth, EthereumChain::new(eth), ycsb(seed))
            }
            (Platform::Ethereum, Macro::Smallbank) => {
                cell!(
                    eth.pow.confirm_depth,
                    EthereumChain::new(eth),
                    smallbank(seed)
                )
            }
            (Platform::Parity, Macro::Ycsb) => {
                cell!(parity.confirm_depth, ParityChain::new(parity), ycsb(seed))
            }
            (Platform::Parity, Macro::Smallbank) => {
                cell!(
                    parity.confirm_depth,
                    ParityChain::new(parity),
                    smallbank(seed)
                )
            }
            (Platform::Hyperledger, Macro::Ycsb) => {
                cell!(
                    FABRIC_TIP_TOLERANCE,
                    FabricChain::new(FabricConfig::with_nodes(8)),
                    ycsb(seed)
                )
            }
            (Platform::Hyperledger, Macro::Smallbank) => {
                cell!(
                    FABRIC_TIP_TOLERANCE,
                    FabricChain::new(FabricConfig::with_nodes(8)),
                    smallbank(seed)
                )
            }
        }
    });
    let end = Mark::now();

    // Set-up runs inside each cell, so the sweep has no set-up phase of its
    // own: `wall_s` and `cpu_s` cover the whole grid, `setup_s` is the sum of
    // per-cell set-up (plus process start-up, which every workload counts).
    let mut out = gather(results, workers);
    out.setup_s += (begin.at - started).as_secs_f64();
    if mode != Mode::SetupOnly {
        out.wall_s = (end.at - begin.at).as_secs_f64();
        out.cpu_s = end.cpu_s - begin.cpu_s;
        out.peak_rss_mb = peak_rss_mb();
    }
    out
}

// ---------------------------------------------------------------------------
// Layer kernels
// ---------------------------------------------------------------------------

/// Batches per kernel; the reported time is the median batch.
const KERNEL_BATCHES: usize = 15;

/// Time `f` for about `budget`, in [`KERNEL_BATCHES`] equal batches, and
/// return the median batch's nanoseconds per unit of work. `f` returns the
/// units one call did.
fn time_kernel(budget: Duration, mut f: impl FnMut() -> u64) -> f64 {
    // Calibrate on a twentieth of the budget; this also warms caches.
    let calibrate = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || calibrate.elapsed() < budget / 20 {
        black_box(f());
        calls += 1;
    }
    let per_call_ns = calibrate.elapsed().as_nanos() as f64 / calls as f64;
    let per_batch =
        ((budget.as_nanos() as f64 / KERNEL_BATCHES as f64 / per_call_ns) as u64).max(1);
    let samples: Vec<f64> = (0..KERNEL_BATCHES)
        .map(|_| {
            let start = Instant::now();
            let mut units = 0u64;
            for _ in 0..per_batch {
                units += black_box(f());
            }
            start.elapsed().as_nanos() as f64 / units.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Every layer kernel, by metric name. Each times public functions of one
/// crate on inputs shaped like the workloads', for about `budget`.
pub fn kernels(budget: Duration) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let mut kernel = |name: &'static str, ns: f64| out.push((name, ns));

    kernel("sim.shard_ns_per_event", shard_kernel(budget));

    let mut net = Network::new(8, LinkParams::default(), SimRng::seed_from_u64(1));
    let mut sends = 0u64;
    kernel(
        "net.send_ns",
        time_kernel(budget, || {
            let now = SimTime::ZERO + SimDuration::from_micros(10 * sends);
            let (from, to) = (
                NodeId((sends % 8) as u32),
                NodeId(((sends + 1 + sends / 8 % 7) % 8) as u32),
            );
            black_box(net.send(now, from, to, 256));
            sends += 1;
            1
        }),
    );

    let (pbft_ns_per_msg, pbft_msgs_per_batch) = pbft_kernel(budget);
    kernel("consensus.pbft_ns_per_msg", pbft_ns_per_msg);
    kernel("consensus.pbft_msgs_per_batch", pbft_msgs_per_batch);

    let small = [0xabu8; 64];
    kernel(
        "crypto.sha256_64B_ns",
        time_kernel(budget, || {
            black_box(sha256(black_box(&small)));
            1
        }),
    );
    let big = vec![0xcdu8; 1024];
    kernel(
        "crypto.sha256_1KiB_ns",
        time_kernel(budget, || {
            black_box(sha256(black_box(&big)));
            1
        }),
    );
    let signer = KeyPair::from_seed(7);
    let registry = KeyRegistry::with_seed_range(64);
    let message = [0x5au8; 160];
    kernel(
        "crypto.sign_ns",
        time_kernel(budget, || {
            black_box(signer.sign(black_box(&message)));
            1
        }),
    );
    let signature = signer.sign(&message);
    kernel(
        "crypto.verify_ns",
        time_kernel(budget, || {
            assert!(signer
                .public()
                .verify(black_box(&message), &signature, &registry));
            1
        }),
    );

    // Insert fresh keys into a growing trie, then read them back warm.
    let mut trie = PatriciaTrie::new(MemStore::new());
    let mut inserted = 0u64;
    kernel(
        "merkle.patricia_insert_ns",
        time_kernel(budget, || {
            trie.insert(&inserted.to_be_bytes(), b"value-bytes-here")
                .expect("MemStore insert");
            inserted += 1;
            1
        }),
    );
    let mut read = 0u64;
    kernel(
        "merkle.patricia_get_ns",
        time_kernel(budget, || {
            black_box(
                trie.get(&(read % inserted).to_be_bytes())
                    .expect("MemStore get"),
            );
            read += 1;
            1
        }),
    );
    // A 16-write block and its seal, on each platform family's state tree.
    let mut block_trie = PatriciaTrie::new(MemStore::new());
    let mut sealed = 0u64;
    kernel(
        "merkle.patricia_commit16_ns",
        time_kernel(budget, || {
            for _ in 0..16 {
                block_trie
                    .insert(&sealed.to_be_bytes(), b"value-bytes-here")
                    .expect("MemStore insert");
                sealed += 1;
            }
            block_trie.commit().expect("MemStore commit");
            1
        }),
    );
    let mut buckets = BucketTree::new(MemStore::new(), FabricConfig::with_nodes(4).state_buckets);
    let mut put = 0u64;
    kernel(
        "merkle.bucket_put_commit16_ns",
        time_kernel(budget, || {
            for _ in 0..16 {
                buckets
                    .put(&put.to_be_bytes(), b"value-bytes-here")
                    .expect("MemStore put");
                put += 1;
            }
            buckets.commit().expect("MemStore commit");
            1
        }),
    );

    // One atomic 64-put batch (one WAL record), then point reads over it.
    let mut lsm = LsmStore::new_private(LsmConfig::default());
    let mut written = 0u64;
    kernel(
        "storage.lsm_batch64_ns",
        time_kernel(budget, || {
            let mut batch = WriteBatch::new();
            for _ in 0..64 {
                batch.put(&written.to_be_bytes(), &[0u8; 100]);
                written += 1;
            }
            lsm.apply_batch(batch).expect("private store write");
            1
        }),
    );
    let mut looked_up = 0u64;
    kernel(
        "storage.lsm_get_ns",
        time_kernel(budget, || {
            // A stride coprime to the key count visits tables of every age.
            let key = looked_up.wrapping_mul(7919) % written;
            black_box(lsm.get(&key.to_be_bytes()).expect("private store read"));
            looked_up += 1;
            1
        }),
    );
    let (recover_ns, compact_ns) = lsm_image_kernels(budget);
    kernel("storage.lsm_recover_open_ns", recover_ns);
    kernel("storage.lsm_compact_ns", compact_ns);

    let (disjoint_ns, hot_ns) = exec_kernels(budget);
    kernel("exec.block32_disjoint_ns", disjoint_ns);
    kernel("exec.block32_hot_ns", hot_ns);

    let mut sort_chain = EthereumChain::new(EthConfig::with_nodes(1));
    let mut sorter = CpuHeavyRunner::new();
    kernel(
        "svm.cpuheavy_10k_ms",
        time_kernel(budget, || {
            let result = sorter.run(&mut sort_chain, 10_000);
            assert!(
                result.error.is_none(),
                "CPUHeavy 10k must fit: {:?}",
                result.error
            );
            1
        }) / 1e6,
    );

    // Deploy only: the kernel times transaction generation, not preload.
    let mut generator = YcsbWorkload::new(YcsbConfig {
        preload_records: 0,
        ..YcsbConfig::default()
    });
    generator.setup(&mut FabricChain::new(FabricConfig::with_nodes(4)));
    let mut generated = 0u32;
    kernel(
        "workloads.ycsb_next_tx_ns",
        time_kernel(budget, || {
            black_box(generator.next_transaction(ClientId(generated % 8)));
            generated += 1;
            1
        }),
    );
    let mut arrivals = ArrivalGen::new(
        ArrivalProcess::Poisson { rate: 1000.0 },
        1_000_000,
        0.0,
        SimTime::ZERO,
        0xB2,
    );
    let mut population = Population::default();
    let to = Address::from_index(7777);
    kernel(
        "workloads.population_sign_ns",
        time_kernel(budget, || {
            let (_, account) = arrivals.next_event();
            black_box(population.sign(account, to, 0, vec![]).id());
            1
        }),
    );
    kernel(
        "driver.arrival_ns",
        time_kernel(budget, || {
            black_box(arrivals.next_event());
            1
        }),
    );
    out
}

/// `ShardedEngine::run_until` over an 8-lane ring: every event sends one
/// message to the next lane, so each window ends in a cross-lane merge.
fn shard_kernel(budget: Duration) -> f64 {
    const LANES: u32 = 8;
    const TOKENS_PER_LANE: u64 = 32;

    struct Ring;
    struct Token {
        to: u32,
    }
    impl ShardedWorld for Ring {
        type Event = Token;
        type Node = u64;
        type Ctx = ();
        fn route(_: &(), event: &Token) -> u32 {
            event.to
        }
        fn handle(
            _: &(),
            lane: u32,
            node: &mut u64,
            _: SimTime,
            _: Token,
            fx: &mut Effects<Token>,
        ) {
            *node += 1;
            let next = (lane + 1) % LANES;
            fx.send(next, 256, move |_| Token { to: next });
            fx.count(0, 1);
        }
    }
    /// Fixed latency, no RNG: the network model has its own kernel.
    struct FixedNet;
    impl Outboard for FixedNet {
        fn send(&mut self, now: SimTime, _: u32, _: u32, _: u64) -> Option<SimTime> {
            Some(now + SimDuration::from_micros(700))
        }
    }

    let mut engine: ShardedEngine<Ring> = ShardedEngine::new(
        (),
        vec![0u64; LANES as usize],
        SimDuration::from_micros(500),
    );
    for lane in 0..LANES {
        for token in 0..TOKENS_PER_LANE {
            engine.schedule(SimTime(1 + token * 20 + lane as u64), Token { to: lane });
        }
    }
    let mut delivered = engine.counter(0);
    time_kernel(budget, || {
        engine.run_until(engine.now() + SimDuration::from_millis(2), &mut FixedNet);
        let events = engine.counter(0) - delivered;
        delivered += events;
        events
    })
}

/// Eight `PbftNode`s wired action-to-message in process, no network and no
/// clock: one unit of work is one full batch through pre-prepare, prepare
/// and commit on every replica. Returns `(ns per message, messages per batch)`.
fn pbft_kernel(budget: Duration) -> (f64, f64) {
    const REPLICAS: u32 = 8;
    const BATCH: usize = 100;
    let config = PbftConfig {
        n: REPLICAS,
        batch_size: BATCH,
        ..PbftConfig::default()
    };
    let mut nodes: Vec<PbftNode> = (0..REPLICAS)
        .map(|i| PbftNode::new(NodeId(i), config.clone()))
        .collect();
    let mut queue: VecDeque<(NodeId, NodeId, PbftMsg)> = VecDeque::new();
    let (mut requests, mut batches, mut messages, mut committed) = (0u64, 0u64, 0u64, 0u64);

    let ns_per_batch = time_kernel(budget, || {
        let now = SimTime::from_millis(batches);
        for _ in 0..BATCH {
            let mut request = requests.to_be_bytes().to_vec();
            request.resize(160, 0x11);
            requests += 1;
            let actions = nodes[0].on_request(request, now);
            absorb(&mut queue, &mut committed, NodeId(0), actions);
            while let Some((from, to, msg)) = queue.pop_front() {
                messages += 1;
                let actions = nodes[to.index()].on_message(from, msg, now);
                absorb(&mut queue, &mut committed, to, actions);
            }
        }
        batches += 1;
        1
    });
    assert_eq!(
        committed,
        batches * REPLICAS as u64,
        "every replica commits every batch"
    );

    fn absorb(
        queue: &mut VecDeque<(NodeId, NodeId, PbftMsg)>,
        committed: &mut u64,
        from: NodeId,
        actions: Vec<Action>,
    ) {
        for action in actions {
            match action {
                Action::Send(to, msg) => queue.push_back((from, to, msg)),
                Action::Broadcast(msg) => {
                    for to in (0..REPLICAS).map(NodeId).filter(|&to| to != from) {
                        queue.push_back((from, to, msg.clone()));
                    }
                }
                Action::CommitBatch { .. } => *committed += 1,
                Action::InstallCheckpoint { .. } => {}
            }
        }
    }
    let msgs_per_batch = messages as f64 / batches as f64;
    (ns_per_batch / msgs_per_batch, msgs_per_batch)
}

/// Reopening and compacting prepared disk images. Each iteration clones an
/// in-memory image, so the numbers measure `LsmStore::open` (manifest, table
/// load, WAL replay) and `compact_step`, not image construction.
fn lsm_image_kernels(budget: Duration) -> (f64, f64) {
    let build_image = |config: LsmConfig| {
        let vfs = Arc::new(Mutex::new(Vfs::new()));
        let mut store = LsmStore::open(Arc::clone(&vfs), "db", config).expect("fresh image opens");
        let mut key = 0u64;
        for _ in 0..32 {
            let mut batch = WriteBatch::new();
            for _ in 0..64 {
                batch.put(&key.to_be_bytes(), &[0u8; 100]);
                key += 1;
            }
            store.apply_batch(batch).expect("image write");
        }
        drop(store);
        let image = vfs.lock().expect("sole holder").clone();
        image
    };

    // Tables and a live WAL remainder: both recovery paths run on open.
    let recover = || LsmConfig {
        memtable_flush_bytes: 64 << 10,
        ..LsmConfig::default()
    };
    let clean_image = build_image(recover());
    let recover_ns = time_kernel(budget, || {
        let vfs = Arc::new(Mutex::new(clean_image.clone()));
        let store = LsmStore::open(vfs, "db", recover()).expect("clean image opens");
        black_box(store.stats().wal_records_replayed);
        1
    });

    // ~32 overlapping L0 flushes built with the trigger out of reach, then
    // drained by single-victim steps under a low trigger.
    let backlog_image = build_image(LsmConfig {
        memtable_flush_bytes: 8 << 10,
        max_tables: usize::MAX,
        ..LsmConfig::default()
    });
    let compact_ns = time_kernel(budget, || {
        let vfs = Arc::new(Mutex::new(backlog_image.clone()));
        let eager = LsmConfig {
            memtable_flush_bytes: 8 << 10,
            max_tables: 4,
            ..LsmConfig::default()
        };
        let mut store = LsmStore::open(vfs, "db", eager).expect("backlog image opens");
        let mut steps = 0u32;
        while store.compact_step() {
            steps += 1;
        }
        assert!(steps > 0, "the backlog must trigger compaction");
        black_box(store.stats().bytes_compacted);
        1
    });
    (recover_ns, compact_ns)
}

/// One sealed 32-transaction YCSB block through `AccountState::execute_block`:
/// disjoint keys (the conflict-free path) and one hot key every transaction
/// reads after the first writes it (the serial re-execution path).
fn exec_kernels(budget: Duration) -> (f64, f64) {
    let contract = Address::from_index(7777);
    let mut state = AccountState::new(MemStore::new());
    state
        .install_contract(&contract, &ycsb_contract::bundle().svm)
        .expect("fresh store");
    let keys: Vec<KeyPair> = (0..32).map(KeyPair::from_seed).collect();
    for key in &keys {
        state
            .credit(&Address::from_public_key(&key.public()), 1_000_000)
            .expect("fresh store");
    }
    state.commit_block().expect("fresh store");
    let root = state.root();
    let vm = Vm::default();
    let block = |call: &dyn Fn(usize) -> Vec<u8>| -> Vec<Arc<Transaction>> {
        keys.iter()
            .enumerate()
            .map(|(i, key)| Arc::new(Transaction::signed(key, 0, contract, 0, call(i))))
            .collect()
    };

    let disjoint = block(&|i| ycsb_contract::write_call(i as u64, b"v"));
    let disjoint_ns = time_kernel(budget, || {
        state.set_root(root);
        let outcome = state.execute_block(&disjoint, 1, &vm, 10_000_000, |gas| gas.max(1000));
        assert_eq!(outcome.conflicts, 0, "disjoint keys must not conflict");
        black_box(outcome);
        1
    });
    let hot = block(&|i| {
        if i == 0 {
            ycsb_contract::write_call(0, b"v")
        } else {
            ycsb_contract::read_call(0)
        }
    });
    let hot_ns = time_kernel(budget, || {
        state.set_root(root);
        let outcome = state.execute_block(&hot, 1, &vm, 10_000_000, |gas| gas.max(1000));
        assert!(outcome.conflicts > 0, "a hot key must force re-execution");
        black_box(outcome);
        1
    });
    (disjoint_ns, hot_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NO_PARENT;
    use std::cell::RefCell;

    /// Records every call it receives and answers with values a decorator
    /// could not make up. It overrides the trait's defaulted methods too, so
    /// a decorator that fell back to a default would be caught: the call
    /// would be missing from the log.
    #[derive(Default)]
    struct RecordingChain {
        calls: RefCell<Vec<String>>,
    }

    impl RecordingChain {
        fn log(&self, call: String) {
            self.calls.borrow_mut().push(call);
        }
    }

    impl BlockchainConnector for RecordingChain {
        fn name(&self) -> &'static str {
            self.log("name".into());
            "recording"
        }
        fn node_count(&self) -> u32 {
            self.log("node_count".into());
            7
        }
        fn deploy(&mut self, bundle: &ContractBundle) -> Address {
            self.log(format!("deploy {}", bundle.name));
            Address::from_index(9)
        }
        fn submit(&mut self, server: NodeId, tx: Transaction) -> bool {
            self.log(format!("submit {} nonce {}", server.0, tx.nonce));
            server.0 != 3
        }
        fn advance_to(&mut self, t: SimTime) {
            self.log(format!("advance_to {}", t.as_micros()));
        }
        fn now(&self) -> SimTime {
            self.log("now".into());
            SimTime(123)
        }
        fn confirmed_blocks_since(&mut self, height: u64) -> Vec<BlockSummary> {
            self.log(format!("confirmed_blocks_since {height}"));
            vec![BlockSummary {
                id: Hash256::digest(b"block"),
                height: height + 1,
                proposer: NodeId(2),
                confirmed_at_us: 55,
                txs: Vec::new(),
            }]
        }
        fn query(&mut self, q: &Query) -> Result<QueryResult, QueryError> {
            self.log(format!("query {q:?}"));
            Err(QueryError::NotFound)
        }
        fn inject(&mut self, fault: Fault) {
            self.log(format!("inject {fault:?}"));
        }
        fn stats(&self) -> PlatformStats {
            self.log("stats".into());
            PlatformStats {
                blocks_main: 5,
                ..PlatformStats::default()
            }
        }
        fn preload_blocks(&mut self, blocks: Vec<Vec<Transaction>>) {
            self.log(format!("preload_blocks {}", blocks.len()));
        }
        fn execute_direct(&mut self, tx: Transaction) -> DirectExec {
            self.log(format!("execute_direct nonce {}", tx.nonce));
            DirectExec {
                success: true,
                duration: SimDuration::from_micros(77),
                gas_used: 11,
                modeled_mem: 13,
                output: vec![1, 2, 3],
                error: None,
            }
        }
        fn committed_chain(&self, node: NodeId) -> Vec<ChainEntry> {
            self.log(format!("committed_chain {}", node.0));
            vec![ChainEntry {
                height: node.0 as u64,
                id: Hash256::digest(b"id"),
                parent: Hash256::digest(b"parent"),
                state_root: Hash256::digest(b"root"),
            }]
        }
    }

    #[derive(Default)]
    struct RecordingWorkload {
        calls: Vec<String>,
    }

    fn tx(nonce: u64) -> Transaction {
        Transaction::signed(
            &KeyPair::from_seed(1),
            nonce,
            Address::from_index(1),
            0,
            vec![],
        )
    }

    impl WorkloadConnector for RecordingWorkload {
        fn name(&self) -> &'static str {
            "recording"
        }
        fn setup(&mut self, chain: &mut dyn BlockchainConnector) {
            self.calls
                .push(format!("setup on {} nodes", chain.node_count()));
        }
        fn next_transaction(&mut self, client: ClientId) -> Transaction {
            self.calls.push(format!("next_transaction {}", client.0));
            tx(100 + client.0 as u64)
        }
        fn on_rejected(&mut self, client: ClientId) {
            self.calls.push(format!("on_rejected {}", client.0));
        }
        fn next_transaction_keyed(&mut self, account: AccountId) -> Transaction {
            self.calls
                .push(format!("next_transaction_keyed {}", account.0));
            tx(200 + account.0)
        }
        fn on_rejected_keyed(&mut self, account: AccountId) {
            self.calls.push(format!("on_rejected_keyed {}", account.0));
        }
    }

    #[test]
    fn traced_chain_forwards_every_method_unchanged() {
        let tracer = Tracer::default();
        let mut chain = Traced {
            inner: RecordingChain::default(),
            tracer: tracer.clone(),
        };
        assert_eq!(chain.name(), "recording");
        assert_eq!(chain.node_count(), 7);
        assert_eq!(
            chain.deploy(&ycsb_contract::bundle()),
            Address::from_index(9)
        );
        assert!(chain.submit(NodeId(1), tx(4)));
        assert!(
            !chain.submit(NodeId(3), tx(5)),
            "a refusal must reach the driver"
        );
        chain.advance_to(SimTime(9_000));
        assert_eq!(chain.now(), SimTime(123));
        let blocks = chain.confirmed_blocks_since(41);
        assert_eq!(
            (blocks.len(), blocks[0].height, blocks[0].confirmed_at_us),
            (1, 42, 55)
        );
        assert_eq!(
            chain.query(&Query::BlockTxs { height: 6 }),
            Err(QueryError::NotFound)
        );
        chain.inject(Fault::Crash(NodeId(0)));
        assert_eq!(chain.stats().blocks_main, 5);
        chain.preload_blocks(vec![vec![tx(1)], vec![]]);
        let direct = chain.execute_direct(tx(8));
        assert_eq!(
            (direct.gas_used, direct.modeled_mem, direct.output),
            (11, 13, vec![1, 2, 3])
        );
        assert_eq!(chain.committed_chain(NodeId(6))[0].height, 6);

        let calls = chain.inner.calls.borrow().clone();
        assert_eq!(
            calls,
            [
                "name",
                "node_count",
                "deploy YCSB",
                "submit 1 nonce 4",
                "submit 3 nonce 5",
                "advance_to 9000",
                "now",
                "confirmed_blocks_since 41",
                "query BlockTxs { height: 6 }",
                "inject Crash(NodeId(0))",
                "stats",
                "preload_blocks 2",
                "execute_direct nonce 8",
                "committed_chain 6",
            ]
        );
        // One span per call, in call order, carrying the virtual times.
        let spans = tracer.take_spans();
        let ops: Vec<Op> = spans.iter().map(|s| s.op).collect();
        assert_eq!(
            ops,
            [
                Op::ChainName,
                Op::NodeCount,
                Op::Deploy,
                Op::Submit,
                Op::Submit,
                Op::AdvanceTo,
                Op::Now,
                Op::ConfirmedBlocksSince,
                Op::Query,
                Op::Inject,
                Op::Stats,
                Op::PreloadBlocks,
                Op::ExecuteDirect,
                Op::CommittedChain,
            ]
        );
        assert_eq!(spans[5].virtual_us, 9_000);
        assert_eq!(spans[12].virtual_us, 77);
        assert!(spans.iter().all(|s| s.parent == NO_PARENT));
    }

    #[test]
    fn traced_workload_forwards_every_method_with_and_without_a_tracer() {
        for tracer in [None, Some(Tracer::default())] {
            let mut chain = RecordingChain::default();
            let mut workload = TracedWorkload::new(RecordingWorkload::default(), tracer.clone());
            assert_eq!(workload.name(), "recording");
            assert!(workload.setup_end.is_none());
            workload.setup(&mut chain);
            assert!(
                workload.setup_end.is_some(),
                "setup stamps the phase boundary"
            );
            assert_eq!(workload.next_transaction(ClientId(3)).nonce, 103);
            workload.on_rejected(ClientId(3));
            assert_eq!(workload.next_transaction_keyed(AccountId(77)).nonce, 277);
            workload.on_rejected_keyed(AccountId(77));
            assert_eq!(
                workload.inner.calls,
                [
                    "setup on 7 nodes",
                    "next_transaction 3",
                    "on_rejected 3",
                    "next_transaction_keyed 77",
                    "on_rejected_keyed 77",
                ]
            );
            // The workload was handed the caller's chain, not a copy.
            assert_eq!(*chain.calls.borrow(), ["node_count"]);
            if let Some(tracer) = tracer {
                let ops: Vec<Op> = tracer.take_spans().iter().map(|s| s.op).collect();
                assert_eq!(
                    ops,
                    [
                        Op::WorkloadName,
                        Op::Setup,
                        Op::NextTransaction,
                        Op::OnRejected,
                        Op::NextTransactionKeyed,
                        Op::OnRejectedKeyed,
                    ]
                );
            }
        }
    }

    #[test]
    fn setup_calls_through_a_traced_chain_nest_under_the_setup_span() {
        let tracer = Tracer::default();
        let mut chain = Traced {
            inner: RecordingChain::default(),
            tracer: tracer.clone(),
        };
        let mut workload = TracedWorkload::new(RecordingWorkload::default(), Some(tracer.clone()));
        {
            let _root = tracer.span(Op::Run, 0);
            workload.setup(&mut chain);
            chain.advance_to(SimTime(1));
        }
        let shape: Vec<(Op, u32)> = tracer
            .take_spans()
            .iter()
            .map(|s| (s.op, s.parent))
            .collect();
        assert_eq!(
            shape,
            [
                (Op::Run, NO_PARENT),
                (Op::Setup, 0),
                (Op::NodeCount, 1),
                (Op::AdvanceTo, 0)
            ]
        );
    }

    #[test]
    fn tally_sums_counts_and_derives_ratios() {
        let mut tally = Tally {
            cells: 2,
            submitted: 10,
            confirmed: 7,
            tps_sum: 30.0,
            ..Tally::default()
        };
        tally.add_platform(&PlatformStats {
            net_bytes: 900,
            txs_committed: 9,
            storage_bytes_written: 300,
            storage_logical_bytes: 200,
            recovery_ms: 40,
            ..PlatformStats::default()
        });
        tally.add_platform(&PlatformStats {
            net_bytes: 100,
            txs_committed: 1,
            recovery_ms: 25,
            ..PlatformStats::default()
        });
        let metrics = tally.metrics();
        let get = |name: &str| metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("model.unconfirmed"), 3.0);
        assert_eq!(get("model.tps"), 15.0);
        assert_eq!(get("net.bytes_per_commit"), 100.0);
        assert_eq!(get("storage.write_amp"), 1.5);
        assert_eq!(get("recovery.ms"), 40.0);
        assert_eq!(get("exec.conflicts"), 0.0);
        // Every exact count the spec declares comes from here.
        let declared: Vec<&str> = crate::spec::PER_LAYER[26..55]
            .iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(
            metrics.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            declared
        );
    }

    #[test]
    fn kernel_timer_reports_time_per_unit() {
        let mut calls = 0u64;
        let ns = time_kernel(Duration::from_millis(30), || {
            calls += 1;
            std::thread::sleep(Duration::from_micros(200));
            4
        });
        // 200 µs (at least) per call, 4 units per call.
        assert!((50_000.0..500_000.0).contains(&ns), "{ns} ns per unit");
        assert!(calls > KERNEL_BATCHES as u64);
    }
}
