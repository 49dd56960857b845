//! Known answers for every signing path of the workload connectors: the ids
//! of the first transactions each path produces, as literals.
//!
//! A transaction id hashes the whole signed encoding — sender key, nonce,
//! recipient, value and payload — so a pinned id fails on any change to
//! which key signs, which nonce it uses, or what the workload's RNG draws.
//! `results/*.csv` depends on all of them.

use bb_sim::{SimDuration, SimTime};
use bb_types::{AccountId, Address, BlockSummary, ClientId, NodeId, Transaction};
use bb_workloads::realistic::EtherIdWorkload;
use bb_workloads::smallbank::{SmallbankConfig, SmallbankWorkload};
use bb_workloads::ycsb::{YcsbConfig, YcsbWorkload};
use bb_workloads::{AnalyticsRunner, CpuHeavyRunner};
use blockbench::{
    BlockchainConnector, ContractBundle, DirectExec, Fault, PlatformStats, Query, QueryError,
    QueryResult, WorkloadConnector,
};

/// A chain that only records what it is handed: preloaded blocks and direct
/// executions. Deployed contracts get sequential addresses.
#[derive(Default)]
struct Recorder {
    name: &'static str,
    deployed: u64,
    blocks: Vec<Vec<Transaction>>,
    direct: Vec<Transaction>,
}

impl BlockchainConnector for Recorder {
    fn name(&self) -> &'static str {
        self.name
    }
    fn node_count(&self) -> u32 {
        1
    }
    fn deploy(&mut self, _bundle: &ContractBundle) -> Address {
        self.deployed += 1;
        Address::from_index(self.deployed)
    }
    fn submit(&mut self, _server: NodeId, _tx: Transaction) -> bool {
        unreachable!("known answers never submit")
    }
    fn advance_to(&mut self, _t: SimTime) {}
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn confirmed_blocks_since(&mut self, _height: u64) -> Vec<BlockSummary> {
        Vec::new()
    }
    fn query(&mut self, _q: &Query) -> Result<QueryResult, QueryError> {
        Err(QueryError::Unsupported)
    }
    fn inject(&mut self, _fault: Fault) {}
    fn stats(&self) -> PlatformStats {
        PlatformStats::default()
    }
    fn preload_blocks(&mut self, blocks: Vec<Vec<Transaction>>) {
        self.blocks.extend(blocks);
    }
    fn execute_direct(&mut self, tx: Transaction) -> DirectExec {
        self.direct.push(tx);
        let (duration, output) = (SimDuration::from_micros(1), Vec::new());
        DirectExec { success: true, duration, gas_used: 0, modeled_mem: 0, output, error: None }
    }
}

fn ids<'t>(txs: impl IntoIterator<Item = &'t Transaction>) -> Vec<String> {
    txs.into_iter().map(|tx| tx.id().to_string()).collect()
}

fn block_sizes(chain: &Recorder) -> Vec<usize> {
    chain.blocks.iter().map(Vec::len).collect()
}

#[test]
fn ycsb_closed_loop_clients_sign_with_their_own_nonces() {
    let config = YcsbConfig { clients: 2, preload_records: 0, ..YcsbConfig::default() };
    let mut w = YcsbWorkload::new(config);
    w.setup(&mut Recorder::default());
    let a = w.next_transaction(ClientId(0));
    let b = w.next_transaction(ClientId(1));
    w.on_rejected(ClientId(0));
    let c = w.next_transaction(ClientId(0));
    let d = w.next_transaction(ClientId(0));
    assert_eq!([a.nonce, b.nonce, c.nonce, d.nonce], [0, 0, 0, 1]);
    assert_eq!((a.from == c.from, a.from == b.from), (true, false));
    assert_eq!(ids([&a, &b, &c, &d]), ["tx:278783d5", "tx:cebf1a59", "tx:4646114e", "tx:5573a8fc"]);
}

#[test]
fn ycsb_open_loop_accounts_sign_from_the_population() {
    let mut w = YcsbWorkload::new(YcsbConfig { preload_records: 0, ..YcsbConfig::default() });
    w.setup(&mut Recorder::default());
    let a = w.next_transaction_keyed(AccountId(7));
    let b = w.next_transaction_keyed(AccountId(999_999));
    let c = w.next_transaction_keyed(AccountId(7));
    assert_eq!([a.nonce, b.nonce, c.nonce], [0, 0, 1]);
    assert_eq!(ids([&a, &b, &c]), ["tx:01855c1c", "tx:74a8caa9", "tx:287e3d49"]);
}

#[test]
fn smallbank_preload_signs_on_its_lane() {
    let mut chain = Recorder::default();
    SmallbankWorkload::new(SmallbankConfig::default()).setup(&mut chain);
    assert_eq!(block_sizes(&chain), [500, 500]);
    let (first, last) = (&chain.blocks[0][0], &chain.blocks[1][499]);
    assert_eq!([first.nonce, last.nonce], [0, 999]);
    assert_eq!(ids([first, last]), ["tx:08dbe529", "tx:2e38f5c0"]);
}

#[test]
fn etherid_funds_each_client_from_its_own_key() {
    let mut chain = Recorder::default();
    EtherIdWorkload::new(4, 3).setup(&mut chain);
    assert_eq!(block_sizes(&chain), [4]);
    assert_eq!(ids(&chain.blocks[0][..1]), ["tx:bf7994ad"]);
}

#[test]
fn cpuheavy_signs_on_its_lane() {
    let mut chain = Recorder::default();
    CpuHeavyRunner::new().run(&mut chain, 1_000);
    assert_eq!(ids(&chain.direct), ["tx:a0ba9aa0"]);
}

#[test]
fn analytics_preload_signs_from_the_client_accounts() {
    let first_block = |name| {
        let mut chain = Recorder { name, ..Recorder::default() };
        AnalyticsRunner::new(16, 4, 3, 99).preload(&mut chain);
        assert_eq!(block_sizes(&chain), [3, 3, 3, 3], "{name}");
        ids(&chain.blocks[0])
    };
    assert_eq!(first_block("hyperledger"), ["tx:05de6f7d", "tx:26658fc4", "tx:776cf232"]);
    assert_eq!(first_block("ethereum"), ["tx:22f91d93", "tx:9fe683d8", "tx:0b4ad34f"]);
}
