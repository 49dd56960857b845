//! The three "real workloads found in the Ethereum blockchain"
//! (Section 3.4.1): the EtherId name registrar, the Doubler pyramid scheme
//! and the WavesPresale crowd sale.

use crate::common::{preload, Population};
use bb_contracts::{doubler, etherid, wavespresale};
use bb_sim::SimRng;
use bb_types::{AccountId, Address, ClientId, Transaction};
use blockbench::connector::BlockchainConnector;
use blockbench::driver::WorkloadConnector;

/// EtherId: register / deposit / buy / transfer domain names. "The contract
/// contains a function to pre-allocate user accounts with certain balances"
/// — the preload funds each client's in-contract balance.
pub struct EtherIdWorkload {
    clients: Population,
    rng: SimRng,
    contract: Option<Address>,
    next_domain: u64,
    registered: Vec<u64>,
    client_count: u32,
}

impl EtherIdWorkload {
    /// Provision for up to `clients` clients.
    pub fn new(clients: u32, seed: u64) -> EtherIdWorkload {
        EtherIdWorkload {
            clients: Population::clients(clients.into()),
            rng: SimRng::seed_from_u64(seed),
            contract: None,
            next_domain: 0,
            registered: Vec::new(),
            client_count: clients,
        }
    }
}

impl WorkloadConnector for EtherIdWorkload {
    fn name(&self) -> &'static str {
        "etherid"
    }

    fn setup(&mut self, chain: &mut dyn BlockchainConnector) {
        let contract = chain.deploy(&etherid::bundle());
        self.contract = Some(contract);
        // Fund each client's registrar balance; clients must deposit from
        // their own accounts, so sign with the client keys directly.
        let txs = (0..self.client_count)
            .map(|c| self.clients.sign(ClientId(c), contract, 0, etherid::deposit_call(1_000_000)))
            .collect();
        preload(chain, txs, 200);
    }

    fn next_transaction(&mut self, client: ClientId) -> Transaction {
        let contract = self.contract.expect("setup ran");
        let roll = self.rng.below(100);
        let payload = if roll < 40 || self.registered.is_empty() {
            let d = self.next_domain;
            self.next_domain += 1;
            self.registered.push(d);
            etherid::register_call(d, 1 + self.rng.below(100) as i64)
        } else if roll < 70 {
            let d = self.registered[self.rng.below(self.registered.len() as u64) as usize];
            etherid::buy_call(d)
        } else if roll < 85 {
            let d = self.registered[self.rng.below(self.registered.len() as u64) as usize];
            let heir = self.clients.address(AccountId(self.rng.below(self.client_count.into())));
            etherid::transfer_call(d, heir.as_bytes())
        } else {
            etherid::deposit_call(1000)
        };
        self.clients.sign(client, contract, 0, payload)
    }

    fn on_rejected(&mut self, client: ClientId) {
        self.clients.rollback(client);
    }
}

/// Doubler: everyone keeps calling `enter` (Figure 2's pyramid scheme).
pub struct DoublerWorkload {
    clients: Population,
    rng: SimRng,
    contract: Option<Address>,
}

impl DoublerWorkload {
    /// Provision for up to `clients` clients.
    pub fn new(clients: u32, seed: u64) -> DoublerWorkload {
        DoublerWorkload {
            clients: Population::clients(clients.into()),
            rng: SimRng::seed_from_u64(seed),
            contract: None,
        }
    }
}

impl WorkloadConnector for DoublerWorkload {
    fn name(&self) -> &'static str {
        "doubler"
    }

    fn setup(&mut self, chain: &mut dyn BlockchainConnector) {
        self.contract = Some(chain.deploy(&doubler::bundle()));
    }

    fn next_transaction(&mut self, client: ClientId) -> Transaction {
        let contract = self.contract.expect("setup ran");
        let amount = 10 + self.rng.below(90) as i64;
        // The EVM build pays out of the contract's pot: send the stake
        // along as value so the pot stays solvent.
        self.clients.sign(client, contract, amount as u64, doubler::enter_call(amount))
    }

    fn on_rejected(&mut self, client: ClientId) {
        self.clients.rollback(client);
    }
}

/// WavesPresale: add token sales, transfer and query them.
pub struct WavesWorkload {
    clients: Population,
    rng: SimRng,
    contract: Option<Address>,
    next_sale: u64,
    client_count: u32,
}

impl WavesWorkload {
    /// Provision for up to `clients` clients.
    pub fn new(clients: u32, seed: u64) -> WavesWorkload {
        WavesWorkload {
            clients: Population::clients(clients.into()),
            rng: SimRng::seed_from_u64(seed),
            contract: None,
            next_sale: 0,
            client_count: clients,
        }
    }
}

impl WorkloadConnector for WavesWorkload {
    fn name(&self) -> &'static str {
        "wavespresale"
    }

    fn setup(&mut self, chain: &mut dyn BlockchainConnector) {
        self.contract = Some(chain.deploy(&wavespresale::bundle()));
    }

    fn next_transaction(&mut self, client: ClientId) -> Transaction {
        let contract = self.contract.expect("setup ran");
        let roll = self.rng.below(100);
        let payload = if roll < 50 || self.next_sale == 0 {
            let id = self.next_sale;
            self.next_sale += 1;
            wavespresale::add_sale_call(id, 100 + self.rng.below(1000) as i64)
        } else if roll < 75 {
            let id = self.rng.below(self.next_sale);
            let heir = self.clients.address(AccountId(self.rng.below(self.client_count.into())));
            wavespresale::transfer_sale_call(id, heir.as_bytes())
        } else {
            wavespresale::query_sale_call(self.rng.below(self.next_sale))
        };
        self.clients.sign(client, contract, 0, payload)
    }

    fn on_rejected(&mut self, client: ClientId) {
        self.clients.rollback(client);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_fabric::{FabricChain, FabricConfig};
    use bb_sim::SimDuration;
    use blockbench::driver::{run_workload, DriverConfig};

    fn quick_config() -> DriverConfig {
        DriverConfig {
            clients: 4,
            rate_per_client: 25.0,
            duration: SimDuration::from_secs(8),
            poll_interval: SimDuration::from_millis(250),
            drain: SimDuration::from_secs(5),
        }
    }

    #[test]
    fn etherid_runs_end_to_end() {
        let mut chain = FabricChain::new(FabricConfig::with_nodes(4));
        let mut w = EtherIdWorkload::new(4, 3);
        let stats = run_workload(&mut chain, &mut w, &quick_config());
        assert!(stats.committed > 500, "{}", stats.summary_line());
        // Some buys/transfers of contested domains legitimately abort, but
        // the bulk must succeed.
        assert!(stats.aborted < stats.committed / 3, "{}", stats.summary_line());
    }

    #[test]
    fn doubler_runs_end_to_end() {
        let mut chain = FabricChain::new(FabricConfig::with_nodes(4));
        let mut w = DoublerWorkload::new(4, 5);
        let stats = run_workload(&mut chain, &mut w, &quick_config());
        assert!(stats.committed > 600, "{}", stats.summary_line());
        assert_eq!(stats.aborted, 0, "{}", stats.summary_line());
    }

    #[test]
    fn waves_runs_end_to_end() {
        let mut chain = FabricChain::new(FabricConfig::with_nodes(4));
        let mut w = WavesWorkload::new(4, 9);
        let stats = run_workload(&mut chain, &mut w, &quick_config());
        assert!(stats.committed > 600, "{}", stats.summary_line());
        assert!(stats.aborted < stats.committed / 3, "{}", stats.summary_line());
    }
}
