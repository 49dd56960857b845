//! The one `BlockchainConnector` of Ethereum and Parity, which differ in
//! consensus only (§3.1): [`AccountChain`] owns set-up, the RPC surface on
//! node 0, the network faults and the stats, and a consensus plugs in through
//! [`Consensus`]. Each server is a lane of a [`ShardedEngine`]; a world runs
//! on one thread (lanes order events, they are not threads — DESIGN.md §5).

use crate::node::{ChainNode, ChainPlatform, BLOCKS};
use bb_net::{LinkParams, Network};
use bb_sim::{CpuMeter, ShardedEngine, ShardedWorld, SimRng, SimTime};
use bb_types::{Address, BlockSummary, NodeId, Transaction};
use blockbench::connector::{
    BlockchainConnector, ChainEntry, DirectExec, Fault, PlatformStats, Query, QueryError,
    QueryResult,
};
use blockbench::contract::ContractBundle;
use std::sync::Arc;

/// A lane's state store.
pub type Store<C> = <<C as ShardedWorld>::Ctx as ChainPlatform>::Store;

/// What a consensus supplies to [`AccountChain`], implemented by its world
/// type, whose lane context is the [`ChainPlatform`] its nodes run.
pub trait Consensus:
    ShardedWorld<Ctx: ChainPlatform<Event = Self::Event, Store: Clone>> + Sized
{
    /// The platform's configuration.
    type Config;
    /// The connector's name.
    const NAME: &'static str;

    /// Resolve `config` into what the shared constructor builds from.
    fn setup(config: &Self::Config) -> Setup<Self>;
    /// A lane around a copy of the genesis node, made in node order.
    fn lane(chain: ChainNode<Store<Self>>, rng: &mut SimRng) -> Self::Node;
    /// The shared node of a lane.
    fn chain(node: &Self::Node) -> &ChainNode<Store<Self>>;
    /// The same, mutably.
    fn chain_mut(node: &mut Self::Node) -> &mut ChainNode<Store<Self>>;

    /// Start block production (once, at the first `submit`/`advance_to`).
    fn start(chain: &mut AccountChain<Self>);
    /// Take `tx` in at live `server`'s RPC; `false` refuses it.
    fn admit(chain: &mut AccountChain<Self>, server: NodeId, tx: Transaction) -> bool;
    /// Inject a node or disk fault. The network faults never reach here.
    fn inject(chain: &mut AccountChain<Self>, fault: Fault);

    /// Microseconds this node's disk stalled (its slow-disk fault).
    fn disk_stall_us(_node: &Self::Node) -> u64 {
        0
    }
}

/// What the shared constructor reads from a platform's configuration.
pub struct Setup<C: Consensus> {
    /// The lane context.
    pub ctx: C::Ctx,
    /// The store genesis is built on; every other node gets a copy.
    pub store: Store<C>,
    /// Network link parameters.
    pub link: LinkParams,
    /// Cores reserved per node process.
    pub cores: u32,
    /// Determinism seed.
    pub seed: u64,
}

/// An account-model chain under consensus `C`.
pub struct AccountChain<C: Consensus> {
    /// The platform's configuration (the lanes read their own copy).
    pub config: C::Config,
    /// The world: one lane per server.
    pub engine: ShardedEngine<C>,
    /// The links between the servers.
    pub network: Network,
    nodes: u32,
    started: bool,
}

impl<C: Consensus> AccountChain<C> {
    /// Build a network per `config`: funded client accounts, one genesis
    /// block, block production not yet started.
    pub fn new(config: C::Config) -> Self {
        let Setup { ctx, store, link, cores, seed } = C::setup(&config);
        let nodes = ctx.params().nodes;
        // The network's stream forks off the root seed first (its draws
        // happen as each handler returns, in event-key order); each lane
        // then forks whatever private stream its consensus needs.
        let mut rng = SimRng::seed_from_u64(seed);
        let network = Network::new(nodes, link, rng.fork());
        // One genesis, built once: every node but the last gets a copy (its
        // own store, on its own disk where it has one).
        let genesis = ChainNode::at_genesis(&ctx, store, CpuMeter::new(cores));
        let lanes = std::iter::repeat_n(genesis, nodes as usize)
            .map(|chain| C::lane(chain, &mut rng))
            .collect();
        let engine = ShardedEngine::new(ctx, lanes, network.min_latency());
        AccountChain { config, engine, network, nodes, started: false }
    }

    /// Has block production started?
    pub fn started(&self) -> bool {
        self.started
    }

    fn start(&mut self) {
        if !self.started {
            self.started = true;
            C::start(self);
        }
    }
}

impl<C: Consensus> BlockchainConnector for AccountChain<C> {
    fn name(&self) -> &'static str {
        C::NAME
    }

    fn node_count(&self) -> u32 {
        self.nodes
    }

    /// Numbered by the deploy log: a fresh chain's first deploy is index 0.
    fn deploy(&mut self, bundle: &ContractBundle) -> Address {
        assert!(!self.started, "deploy contracts before the run starts");
        let deployed = self.engine.with_ctx(|ctx| ctx.params().deploys.len()) as u64;
        let address = Address::contract(&Address::ZERO, deployed);
        for i in 0..self.nodes {
            self.engine.with_ctx_node_mut(i, |ctx, n| {
                C::chain_mut(n).install_contract(ctx, &address, &bundle.svm)
            });
        }
        let height = self.engine.with_node(0, |n| C::chain(n).tree.head_height());
        let deploy = (height, address, bundle.svm.clone());
        self.engine.with_ctx_mut(|ctx| ctx.params_mut().deploys.push(deploy));
        address
    }

    fn submit(&mut self, server: NodeId, tx: Transaction) -> bool {
        self.start();
        if self.network.is_crashed(server) {
            // A crashed node's RPC endpoint refuses connections; the client
            // sees the failure and does not burn a nonce on it.
            return false;
        }
        C::admit(self, server, tx)
    }

    fn advance_to(&mut self, t: SimTime) {
        self.start();
        self.engine.run_until(t, &mut self.network);
    }

    fn now(&self) -> SimTime {
        self.engine.now()
    }

    fn confirmed_blocks_since(&mut self, height: u64) -> Vec<BlockSummary> {
        self.engine.with_node(0, |n| C::chain(n).confirmed_blocks_since(height))
    }

    fn query(&mut self, q: &Query) -> Result<QueryResult, QueryError> {
        self.engine.with_ctx_node_mut(0, |ctx, n| C::chain_mut(n).query(ctx, q))
    }

    fn inject(&mut self, fault: Fault) {
        match fault {
            Fault::Delay(node, d) => self.network.set_extra_delay(node, d),
            Fault::Corrupt(node, p) => self.network.set_corrupt_prob(node, p),
            Fault::PartitionHalf { left } => self.network.partition_in_half(left),
            Fault::PartitionAsymmetric { left } => self.network.partition_asymmetric(left),
            Fault::GossipJitter(amplitude) => self.network.set_gossip_jitter(amplitude),
            Fault::Heal => self.network.heal(),
            node_fault => C::inject(self, node_fault),
        }
    }

    fn stats(&self) -> PlatformStats {
        let (blocks_main, txs_committed) =
            self.engine.with_node(0, |n| C::chain(n).observer_totals());
        // Byzantine submissions are attributed by the chaos runner; the
        // node sees them as ordinary (rejected or evicted) traffic.
        let mut stats = PlatformStats {
            blocks_total: self.engine.counter(BLOCKS),
            blocks_main,
            txs_committed,
            net_bytes: self.network.stats().bytes,
            partition_flaps: self.network.partition_flaps(),
            ..Default::default()
        };
        let mut disk_stall_us = 0u64;
        for i in 0..self.nodes {
            let net = self.network.tx_mbps_series(NodeId(i));
            self.engine.with_node(i, |n| {
                C::chain(n).fold_into(&mut stats, self.nodes, &net);
                disk_stall_us += C::disk_stall_us(n);
            });
        }
        stats.disk_stall_ms = disk_stall_us / 1000;
        stats
    }

    fn committed_chain(&self, node: NodeId) -> Vec<ChainEntry> {
        self.engine.with_node(node.0, |n| C::chain(n).committed_chain())
    }

    fn preload_blocks(&mut self, blocks: Vec<Vec<Transaction>>) {
        assert!(!self.started, "preload before the run starts");
        let now = self.engine.now();
        let before = self.engine.with_node(0, |n| C::chain(n).tip());
        for txs in blocks {
            let txs: Vec<Arc<Transaction>> = txs.into_iter().map(Arc::new).collect();
            self.engine
                .with_ctx_node_mut(0, |ctx, n| C::chain_mut(n).preload_block(ctx, now, &txs));
            self.engine.bump_counter(BLOCKS, 1);
        }
        // Preloading is consensus-free and identical on every node: the
        // others take node 0's result instead of recomputing it.
        for i in 1..self.nodes {
            self.engine.with_first_and_node_mut(i, |first, n| {
                C::chain_mut(n).copy_preload_from(C::chain(first), before)
            });
        }
    }

    fn execute_direct(&mut self, tx: Transaction) -> DirectExec {
        self.engine.with_ctx_node_mut(0, |ctx, n| C::chain_mut(n).execute_direct(ctx, &tx))
    }
}
