//! The DoNothing workload (Section 3.4.2): consensus-layer isolation. The
//! difference between this and YCSB/Smallbank throughput is "indicative of
//! the cost of \[the\] consensus protocol versus the rest of the software
//! stack" (Figure 13c).

use crate::common::Population;
use bb_contracts::donothing;
use bb_types::{AccountId, Address, ClientId, Transaction};
use blockbench::connector::BlockchainConnector;
use blockbench::driver::WorkloadConnector;

/// The DoNothing workload connector.
pub struct DoNothingWorkload {
    clients: Population,
    population: Population,
    contract: Option<Address>,
}

impl DoNothingWorkload {
    /// Provision for up to `clients` clients.
    pub fn new(clients: u32) -> DoNothingWorkload {
        DoNothingWorkload {
            clients: Population::clients(clients.into()),
            population: Population::default(),
            contract: None,
        }
    }
}

impl WorkloadConnector for DoNothingWorkload {
    fn name(&self) -> &'static str {
        "donothing"
    }

    fn setup(&mut self, chain: &mut dyn BlockchainConnector) {
        self.contract = Some(chain.deploy(&donothing::bundle()));
    }

    fn next_transaction(&mut self, client: ClientId) -> Transaction {
        let contract = self.contract.expect("setup ran");
        self.clients.sign(client, contract, 0, donothing::call())
    }

    fn on_rejected(&mut self, client: ClientId) {
        self.clients.rollback(client);
    }

    fn next_transaction_keyed(&mut self, account: AccountId) -> Transaction {
        let contract = self.contract.expect("setup ran");
        self.population.sign(account, contract, 0, donothing::call())
    }

    fn on_rejected_keyed(&mut self, account: AccountId) {
        self.population.rollback(account);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_parity::{ParityChain, ParityConfig};
    use bb_sim::SimDuration;
    use blockbench::driver::{run_workload, DriverConfig};

    #[test]
    fn parity_is_signing_bound_not_consensus_bound() {
        // The paper's Figure 13c: DoNothing ≈ YCSB ≈ Smallbank on Parity,
        // because the bottleneck is transaction signing.
        let mut chain = ParityChain::new(ParityConfig::with_nodes(8));
        let mut w = DoNothingWorkload::new(8);
        let stats = run_workload(
            &mut chain,
            &mut w,
            &DriverConfig {
                clients: 8,
                rate_per_client: 64.0,
                duration: SimDuration::from_secs(30),
                poll_interval: SimDuration::from_millis(500),
                drain: SimDuration::from_secs(10),
            },
        );
        let tps = stats.throughput_tps();
        assert!((30.0..60.0).contains(&tps), "parity DoNothing tps {tps}");
    }
}
