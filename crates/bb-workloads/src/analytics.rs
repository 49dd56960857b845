//! The Analytics micro-benchmark (Sections 3.4.2 and 4.2.2, Figure 13a/b):
//! OLAP-style queries over chain history.
//!
//! Setup preloads accounts and `blocks × txs_per_block` random transfers.
//! On the EVM-like platforms the transfers are plain value movements and
//! the queries go through per-block RPCs; on Fabric they route through the
//! VersionKVStore chaincode (Figure 20), because "the system does not have
//! APIs to query historical states" — Q2 then needs only **one** RPC round
//! trip, the paper's 10× win.

use crate::common::{preload, Population};
use bb_contracts::version_kv;
use bb_sim::{SimDuration, SimRng};
use bb_types::{AccountId, Address, Decoder};
use blockbench::connector::{BlockchainConnector, Query};

/// Client-observed RPC round-trip cost per request (the Figure 13
/// bottleneck is the *number* of round trips).
pub const RPC_ROUND_TRIP: SimDuration = SimDuration(800);

/// Analytics preload + query runner.
pub struct AnalyticsRunner {
    /// Accounts participating in transfers.
    pub accounts: u64,
    /// Preloaded block count.
    pub blocks: u64,
    /// Transfers per block (the paper used 3 on average).
    pub txs_per_block: u64,
    /// The accounts' signers: the genesis-funded family at seed 0.
    signers: Population,
    rng: SimRng,
    /// Fabric's VersionKVStore address, when applicable.
    kv_contract: Option<Address>,
    preloaded: bool,
    first_block: u64,
}

/// A measured query outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Client-observed latency (round trips + server time).
    pub latency: SimDuration,
    /// RPC requests issued.
    pub round_trips: u64,
    /// The computed statistic (Q1: total value; Q2: largest change).
    pub answer: i64,
}

impl AnalyticsRunner {
    /// Runner with the given history shape.
    pub fn new(accounts: u64, blocks: u64, txs_per_block: u64, seed: u64) -> AnalyticsRunner {
        AnalyticsRunner {
            accounts,
            blocks,
            txs_per_block,
            signers: Population::clients(accounts),
            rng: SimRng::seed_from_u64(seed),
            kv_contract: None,
            preloaded: false,
            first_block: 0,
        }
    }

    /// Preload the chain with the transfer history.
    pub fn preload(&mut self, chain: &mut dyn BlockchainConnector) {
        assert!(!self.preloaded, "preload once");
        self.preloaded = true;
        if chain.name() == "hyperledger" {
            self.kv_contract = Some(chain.deploy(&version_kv::bundle()));
        }
        let txs = (0..self.blocks * self.txs_per_block)
            .map(|_| {
                let from = AccountId(self.rng.below(self.accounts));
                let to = self.rng.below(self.accounts);
                let value = 1 + self.rng.below(1000);
                match self.kv_contract {
                    Some(kv) => self.signers.sign(
                        from,
                        kv,
                        0,
                        version_kv::send_value_call(from.0, to, value as i64),
                    ),
                    None => {
                        let to = self.signers.address(AccountId(to));
                        self.signers.sign(from, to, value, Vec::new())
                    }
                }
            })
            .collect();
        self.first_block = chain.stats().blocks_main + 1;
        preload(chain, txs, self.txs_per_block as usize);
    }

    /// Q1: "Compute the total transaction values committed between block i
    /// and block j" — one block-content RPC per block on every platform.
    pub fn q1(&self, chain: &mut dyn BlockchainConnector, span: u64) -> QueryOutcome {
        let mut latency = SimDuration::ZERO;
        let mut total = 0i64;
        let mut round_trips = 0u64;
        let fabric_kv = self.kv_contract;
        for h in self.first_block..self.first_block + span.min(self.blocks) {
            round_trips += 1;
            latency += RPC_ROUND_TRIP;
            if let Some(kv) = fabric_kv {
                // Fabric's tx values live in chaincode state: one chaincode
                // query per block (same round-trip count as the others).
                let r = chain
                    .query(&Query::Contract {
                        address: kv,
                        payload: version_kv::block_txs_call(h),
                    })
                    .expect("preloaded block");
                latency += r.server_cost;
                for (_, _, v) in version_kv::decode_block_txs(&r.data) {
                    total += v;
                }
            } else {
                let r = chain.query(&Query::BlockTxs { height: h }).expect("preloaded block");
                latency += r.server_cost;
                let mut d = Decoder::new(&r.data);
                let n = d.u32().expect("well-formed reply");
                for _ in 0..n {
                    let _from = d.raw(20).expect("from");
                    let _to = d.raw(20).expect("to");
                    total += d.u64().expect("value") as i64;
                }
            }
        }
        QueryOutcome { latency, round_trips, answer: total }
    }

    /// Q2: "Compute the largest transaction value involving a given
    /// state (account) between block i and block j". EVM-likes: one
    /// `getBalance(account, block)` RPC **per block**; Fabric: **one**
    /// VersionKVStore chaincode call (Appendix C).
    pub fn q2(&self, chain: &mut dyn BlockchainConnector, account: u64, span: u64) -> QueryOutcome {
        let span = span.min(self.blocks);
        let from = self.first_block;
        let to = self.first_block + span;
        if let Some(kv) = self.kv_contract {
            // Fetch the full history up to `to` so the balance *at* the
            // range start is known (the baseline), then collapse versions
            // to the last balance per commit block — the same per-block
            // granularity getBalance(acct, block) gives the EVM platforms.
            let r = chain
                .query(&Query::Contract {
                    address: kv,
                    payload: version_kv::account_range_call(account, 0, to),
                })
                .expect("chaincode installed");
            // Versions come newest first: walk them oldest first and skip
            // any with a later version in the same commit block.
            let pairs = version_kv::decode_account_range(&r.data);
            let mut versions = pairs.iter().rev().peekable();
            let (mut largest, mut prev_balance) = (0i64, 0i64);
            while let Some(&(balance, commit)) = versions.next() {
                if versions.peek().is_some_and(|&&(_, next)| next == commit) {
                    continue;
                }
                if commit > from {
                    largest = largest.max((balance - prev_balance).abs());
                }
                prev_balance = balance;
            }
            return QueryOutcome {
                latency: RPC_ROUND_TRIP + r.server_cost,
                round_trips: 1,
                answer: largest,
            };
        }
        // EVM-likes: walk the range, one balance RPC per block.
        let addr = self.signers.address(AccountId(account));
        let mut latency = SimDuration::ZERO;
        let mut round_trips = 0u64;
        let mut largest = 0i64;
        let mut prev: Option<i64> = None;
        for h in from..to {
            round_trips += 1;
            latency += RPC_ROUND_TRIP;
            let r = chain
                .query(&Query::AccountAtBlock { account: addr, height: h })
                .expect("preloaded block");
            latency += r.server_cost;
            let balance = i64::from_le_bytes(r.data.try_into().expect("8-byte balance"));
            if let Some(p) = prev {
                largest = largest.max((balance - p).abs());
            }
            prev = Some(balance);
        }
        QueryOutcome { latency, round_trips, answer: largest }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_ethereum::{EthConfig, EthereumChain};
    use bb_fabric::{FabricChain, FabricConfig};
    use bb_parity::{ParityChain, ParityConfig};

    #[test]
    fn q1_totals_agree_across_platforms() {
        // Same seed → same preloaded history → same Q1 answer everywhere.
        let mut eth = EthereumChain::new(EthConfig::with_nodes(2));
        let mut par = ParityChain::new(ParityConfig::with_nodes(2));
        let mut fab = FabricChain::new(FabricConfig::with_nodes(4));
        let answers: Vec<i64> = [
            &mut eth as &mut dyn BlockchainConnector,
            &mut par as &mut dyn BlockchainConnector,
            &mut fab as &mut dyn BlockchainConnector,
        ]
        .into_iter()
        .map(|chain| {
            let mut a = AnalyticsRunner::new(64, 50, 3, 99);
            a.preload(chain);
            a.q1(chain, 50).answer
        })
        .collect();
        assert!(answers[0] > 0);
        assert_eq!(answers[0], answers[1]);
        assert_eq!(answers[0], answers[2]);
    }

    #[test]
    fn q2_round_trip_counts_match_the_paper() {
        let mut eth = EthereumChain::new(EthConfig::with_nodes(2));
        let mut a = AnalyticsRunner::new(32, 40, 3, 5);
        a.preload(&mut eth);
        let r = a.q2(&mut eth, 3, 40);
        assert_eq!(r.round_trips, 40, "one RPC per block on Ethereum");

        let mut fab = FabricChain::new(FabricConfig::with_nodes(4));
        let mut a = AnalyticsRunner::new(32, 40, 3, 5);
        a.preload(&mut fab);
        let rf = a.q2(&mut fab, 3, 40);
        assert_eq!(rf.round_trips, 1, "one chaincode call on Fabric");
        // The 10× latency gap follows from the round trips.
        assert!(
            r.latency.as_secs_f64() > 5.0 * rf.latency.as_secs_f64(),
            "eth {} vs fabric {}",
            r.latency,
            rf.latency
        );
    }

    #[test]
    fn q1_latency_scales_with_span() {
        let mut par = ParityChain::new(ParityConfig::with_nodes(2));
        let mut a = AnalyticsRunner::new(32, 100, 3, 5);
        a.preload(&mut par);
        let short = a.q1(&mut par, 10).latency;
        let long = a.q1(&mut par, 100).latency;
        assert!(long.as_secs_f64() > 8.0 * short.as_secs_f64());
    }

    #[test]
    fn q2_answers_are_consistent_between_eth_and_fabric() {
        // The largest balance change per block range must agree: both
        // platforms saw the same transfers.
        let mut eth = EthereumChain::new(EthConfig::with_nodes(2));
        let mut a1 = AnalyticsRunner::new(16, 30, 3, 123);
        a1.preload(&mut eth);
        let mut fab = FabricChain::new(FabricConfig::with_nodes(4));
        let mut a2 = AnalyticsRunner::new(16, 30, 3, 123);
        a2.preload(&mut fab);
        for account in [0u64, 3, 7] {
            let e = a1.q2(&mut eth, account, 30).answer;
            let f = a2.q2(&mut fab, account, 30).answer;
            assert_eq!(e, f, "account {account}");
        }
    }
}
