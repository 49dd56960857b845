//! The YCSB key-value workload (Section 3.4.1): "It preloads each store
//! with a number of records, and supports requests with different ratios of
//! read and write operations."

use crate::common::{preload, Population};
use bb_contracts::ycsb;
use bb_sim::rng::Zipfian;
use bb_sim::SimRng;
use bb_types::{AccountId, Address, ClientId, Transaction};
use blockbench::connector::BlockchainConnector;
use blockbench::driver::WorkloadConnector;

/// YCSB parameters.
#[derive(Debug, Clone)]
pub struct YcsbConfig {
    /// Records preloaded and addressed.
    pub record_count: u64,
    /// Preloaded records (0 = skip preload for fast setup).
    pub preload_records: u64,
    /// Value size in bytes (YCSB default-ish 100).
    pub value_size: usize,
    /// Fraction of reads (writes are the rest).
    pub read_ratio: f64,
    /// Zipfian skew (0.99 = YCSB's default "zipfian"); 0.0 ≈ uniform.
    pub zipf_theta: f64,
    /// Max concurrent clients to provision keys for.
    pub clients: u32,
    /// Randomness seed.
    pub seed: u64,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        YcsbConfig {
            record_count: 10_000,
            preload_records: 1_000,
            value_size: 100,
            read_ratio: 0.5,
            zipf_theta: 0.99,
            clients: 32,
            seed: 7,
        }
    }
}

/// The YCSB workload connector.
pub struct YcsbWorkload {
    config: YcsbConfig,
    clients: Population,
    population: Population,
    rng: SimRng,
    zipf: Zipfian,
    contract: Option<Address>,
}

impl YcsbWorkload {
    /// Build from config.
    pub fn new(config: YcsbConfig) -> YcsbWorkload {
        let rng = SimRng::seed_from_u64(config.seed);
        let zipf = Zipfian::new(config.record_count, config.zipf_theta);
        YcsbWorkload {
            clients: Population::clients(config.clients.into()),
            population: Population::default(),
            rng,
            zipf,
            contract: None,
            config,
        }
    }

    fn value(&mut self) -> Vec<u8> {
        let mut v = vec![0u8; self.config.value_size];
        self.rng.fill_bytes(&mut v);
        v
    }

    /// One read-or-write call payload (shared by both signing paths).
    fn payload(&mut self) -> Vec<u8> {
        let key = self.zipf.sample(&mut self.rng);
        if self.rng.unit() < self.config.read_ratio {
            ycsb::read_call(key)
        } else {
            let v = self.value();
            ycsb::write_call(key, &v)
        }
    }

    /// Open-loop population state (active set size).
    pub fn population(&self) -> &Population {
        &self.population
    }
}

impl WorkloadConnector for YcsbWorkload {
    fn name(&self) -> &'static str {
        "ycsb"
    }

    fn setup(&mut self, chain: &mut dyn BlockchainConnector) {
        let contract = chain.deploy(&ycsb::bundle());
        self.contract = Some(contract);
        if self.config.preload_records > 0 {
            let mut lane = Population::lane(0);
            let txs = (0..self.config.preload_records)
                .map(|k| {
                    let v = self.value();
                    lane.sign(AccountId(0), contract, 0, ycsb::write_call(k, &v))
                })
                .collect();
            preload(chain, txs, 500);
        }
    }

    fn next_transaction(&mut self, client: ClientId) -> Transaction {
        let contract = self.contract.expect("setup ran");
        let payload = self.payload();
        self.clients.sign(client, contract, 0, payload)
    }

    fn on_rejected(&mut self, client: ClientId) {
        self.clients.rollback(client);
    }

    fn next_transaction_keyed(&mut self, account: AccountId) -> Transaction {
        let contract = self.contract.expect("setup ran");
        let payload = self.payload();
        self.population.sign(account, contract, 0, payload)
    }

    fn on_rejected_keyed(&mut self, account: AccountId) {
        self.population.rollback(account);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_fabric::{FabricChain, FabricConfig};
    use blockbench::driver::{run_workload, DriverConfig};
    use bb_sim::SimDuration;

    #[test]
    fn generates_mixed_read_write_traffic() {
        let mut w = YcsbWorkload::new(YcsbConfig {
            read_ratio: 0.5,
            preload_records: 0,
            ..YcsbConfig::default()
        });
        w.contract = Some(Address::from_index(1));
        let mut reads = 0;
        let mut writes = 0;
        for i in 0..400 {
            let tx = w.next_transaction(ClientId(i % 4));
            match tx.payload[0] {
                x if x == ycsb::M_READ => reads += 1,
                x if x == ycsb::M_WRITE => writes += 1,
                other => panic!("unexpected method {other}"),
            }
        }
        assert!((150..250).contains(&reads), "reads {reads}");
        assert!((150..250).contains(&writes), "writes {writes}");
    }

    #[test]
    fn zipfian_skews_keys() {
        let mut w = YcsbWorkload::new(YcsbConfig {
            record_count: 1000,
            preload_records: 0,
            zipf_theta: 0.99,
            ..YcsbConfig::default()
        });
        w.contract = Some(Address::from_index(1));
        let mut hot = 0;
        for _ in 0..1000 {
            let tx = w.next_transaction(ClientId(0));
            let key = u64::from_le_bytes(tx.payload[1..9].try_into().unwrap());
            if key < 10 {
                hot += 1;
            }
        }
        assert!(hot > 300, "hottest 1% of keys drew only {hot}/1000");
    }

    #[test]
    fn end_to_end_on_fabric() {
        let mut chain = FabricChain::new(FabricConfig::with_nodes(4));
        let mut w = YcsbWorkload::new(YcsbConfig {
            preload_records: 100,
            ..YcsbConfig::default()
        });
        let stats = run_workload(
            &mut chain,
            &mut w,
            &DriverConfig {
                clients: 4,
                rate_per_client: 50.0,
                duration: SimDuration::from_secs(10),
                poll_interval: SimDuration::from_millis(250),
                drain: SimDuration::from_secs(5),
            },
        );
        assert!(stats.submitted > 1900, "submitted {}", stats.submitted);
        // Unsaturated: everything commits.
        assert!(
            stats.committed as f64 > 0.9 * stats.submitted as f64,
            "{}",
            stats.summary_line()
        );
        assert_eq!(stats.aborted, 0);
        assert!(stats.mean_latency().unwrap() < 2.0);
    }
}
