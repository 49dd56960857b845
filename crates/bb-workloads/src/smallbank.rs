//! The Smallbank OLTP workload (Section 3.4.1): multi-key transactional
//! procedures over bank accounts — "more complex... than YCSB, in which
//! multiple keys are updated in a single transaction" (Appendix B).

use crate::common::{preload, Population};
use bb_contracts::smallbank;
use bb_sim::SimRng;
use bb_types::{AccountId, Address, ClientId, Transaction};
use blockbench::connector::BlockchainConnector;
use blockbench::driver::WorkloadConnector;

/// Smallbank parameters.
#[derive(Debug, Clone)]
pub struct SmallbankConfig {
    /// Account population.
    pub accounts: u64,
    /// Accounts preloaded with an opening balance (0 = skip).
    pub preload_accounts: u64,
    /// Opening checking balance per preloaded account.
    pub opening_balance: i64,
    /// Max concurrent clients.
    pub clients: u32,
    /// Randomness seed.
    pub seed: u64,
}

impl Default for SmallbankConfig {
    fn default() -> Self {
        SmallbankConfig {
            accounts: 10_000,
            preload_accounts: 1_000,
            opening_balance: 1_000_000,
            clients: 32,
            seed: 11,
        }
    }
}

/// The Smallbank workload connector.
pub struct SmallbankWorkload {
    config: SmallbankConfig,
    clients: Population,
    population: Population,
    rng: SimRng,
    contract: Option<Address>,
}

impl SmallbankWorkload {
    /// Build from config.
    pub fn new(config: SmallbankConfig) -> SmallbankWorkload {
        let rng = SimRng::seed_from_u64(config.seed);
        SmallbankWorkload {
            clients: Population::clients(config.clients.into()),
            population: Population::default(),
            rng,
            contract: None,
            config,
        }
    }

    fn account(&mut self) -> u64 {
        self.rng.below(self.config.accounts)
    }

    /// One procedure-mix call payload (shared by both signing paths).
    fn payload(&mut self) -> Vec<u8> {
        let a = self.account();
        let b = self.account();
        let amount = 1 + self.rng.below(50) as i64;
        // The classic Smallbank mix, SendPayment-heavy.
        match self.rng.below(100) {
            0..=29 => smallbank::send_payment_call(a, b, amount),
            30..=49 => smallbank::deposit_checking_call(a, amount),
            50..=64 => smallbank::transact_savings_call(a, amount),
            65..=79 => smallbank::write_check_call(a, amount),
            80..=89 => smallbank::amalgamate_call(a, b),
            _ => smallbank::query_call(a),
        }
    }
}

impl WorkloadConnector for SmallbankWorkload {
    fn name(&self) -> &'static str {
        "smallbank"
    }

    fn setup(&mut self, chain: &mut dyn BlockchainConnector) {
        let contract = chain.deploy(&smallbank::bundle());
        self.contract = Some(contract);
        if self.config.preload_accounts > 0 {
            let mut lane = Population::lane(1);
            let txs = (0..self.config.preload_accounts)
                .map(|a| {
                    let call = smallbank::deposit_checking_call(a, self.config.opening_balance);
                    lane.sign(AccountId(0), contract, 0, call)
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
    use bb_sim::SimDuration;
    use blockbench::driver::{run_workload, DriverConfig};

    #[test]
    fn procedure_mix_covers_all_methods() {
        let mut w = SmallbankWorkload::new(SmallbankConfig {
            preload_accounts: 0,
            ..SmallbankConfig::default()
        });
        w.contract = Some(Address::from_index(1));
        let mut seen = [false; 6];
        for i in 0..500 {
            let tx = w.next_transaction(ClientId(i % 8));
            seen[tx.payload[0] as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "mix missed a procedure: {seen:?}");
    }

    #[test]
    fn end_to_end_on_fabric_with_low_abort_rate() {
        let mut chain = FabricChain::new(FabricConfig::with_nodes(4));
        let mut w = SmallbankWorkload::new(SmallbankConfig {
            accounts: 1000,
            preload_accounts: 1000,
            ..SmallbankConfig::default()
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
        assert!(stats.committed > 1500, "{}", stats.summary_line());
        // Preloaded balances keep insufficient-funds aborts rare.
        assert!(
            (stats.aborted as f64) < 0.05 * stats.committed as f64,
            "abort rate too high: {}",
            stats.summary_line()
        );
    }
}
