//! The IOHeavy micro-benchmark runner (Section 4.2.2, Figure 12): bulk
//! random writes and reads of 20-byte-key / 100-byte-value tuples against a
//! one-server deployment, reporting operation throughput and disk usage —
//! or the out-of-memory failure (Parity's in-memory state cap).

use crate::common::Population;
use bb_contracts::ioheavy;
use bb_types::{AccountId, Address};
use blockbench::connector::BlockchainConnector;

/// One IOHeavy measurement.
#[derive(Debug, Clone)]
pub struct IoHeavyResult {
    /// Tuples targeted.
    pub tuples: u64,
    /// Write throughput (tuples per simulated second); `None` on failure.
    pub write_tps: Option<f64>,
    /// Read throughput; `None` on failure.
    pub read_tps: Option<f64>,
    /// Bytes on disk after the writes.
    pub disk_bytes: u64,
    /// Failure cause (Parity's out-of-space at ~3.2M states).
    pub error: Option<String>,
}

/// Runs IOHeavy sweeps against any platform.
pub struct IoHeavyRunner {
    lane: Population,
    contract: Option<Address>,
    batch: u64,
}

impl IoHeavyRunner {
    /// Runner issuing `batch` tuples per transaction.
    pub fn new(batch: u64) -> IoHeavyRunner {
        IoHeavyRunner { lane: Population::lane(5), contract: None, batch }
    }

    /// Write then read `tuples` tuples; report throughputs and disk usage.
    pub fn run(&mut self, chain: &mut dyn BlockchainConnector, tuples: u64) -> IoHeavyResult {
        let contract = *self
            .contract
            .get_or_insert_with(|| chain.deploy(&ioheavy::bundle()));
        let mut result =
            IoHeavyResult { tuples, write_tps: None, read_tps: None, disk_bytes: 0, error: None };
        let writes = self.batches(chain, contract, tuples, false);
        result.disk_bytes = chain.stats().disk_bytes;
        let reads = writes.and_then(|tps| {
            result.write_tps = Some(tps);
            self.batches(chain, contract, tuples, true)
        });
        match reads {
            Ok(tps) => result.read_tps = Some(tps),
            Err(error) => result.error = error,
        }
        result
    }

    /// Write (or read back) `tuples` tuples, `batch` per transaction: tuples
    /// per simulated second, or the first failed transaction's error.
    fn batches(
        &mut self,
        chain: &mut dyn BlockchainConnector,
        contract: Address,
        tuples: u64,
        read: bool,
    ) -> Result<f64, Option<String>> {
        let (mut time, mut start) = (0.0, 0u64);
        while start < tuples {
            let count = self.batch.min(tuples - start);
            let call = if read { ioheavy::read_call } else { ioheavy::write_call };
            let tx = self.lane.sign(AccountId(0), contract, 0, call(start, count));
            let res = chain.execute_direct(tx);
            if !res.success {
                return Err(res.error);
            }
            if read {
                // All tuples must be found.
                let found = i64::from_le_bytes(res.output.try_into().unwrap_or([0; 8]));
                assert_eq!(found as u64, count, "read-back miss at offset {start}");
            }
            time += res.duration.as_secs_f64();
            start += count;
        }
        Ok(tuples as f64 / time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_ethereum::{EthConfig, EthereumChain};
    use bb_fabric::{FabricChain, FabricConfig};
    use bb_parity::{ParityChain, ParityConfig};

    #[test]
    fn fabric_beats_ethereum_on_io_and_disk() {
        let tuples = 5_000;
        let mut eth = EthereumChain::new(EthConfig::with_nodes(1));
        let mut fab = FabricChain::new(FabricConfig::with_nodes(4));
        let re = IoHeavyRunner::new(1000).run(&mut eth, tuples);
        let rf = IoHeavyRunner::new(1000).run(&mut fab, tuples);
        let (we, wf) = (re.write_tps.unwrap(), rf.write_tps.unwrap());
        assert!(wf > we, "fabric writes {wf} vs ethereum {we}");
        // Trie platforms burn an order of magnitude more disk (Figure 12c).
        // Ethereum runs one node here vs Fabric's four: compare per node.
        let eth_disk = re.disk_bytes;
        let fab_disk_per_node = rf.disk_bytes / 4;
        assert!(
            eth_disk > 4 * fab_disk_per_node,
            "eth {eth_disk} vs fabric/node {fab_disk_per_node}"
        );
    }

    #[test]
    fn parity_is_fast_until_the_memory_wall() {
        let mut config = ParityConfig::with_nodes(1);
        // Shrink the state budget so the wall is test-sized.
        config.node_mem_bytes = config.costs.mem_base + (24 << 20);
        let mut par = ParityChain::new(config);
        let mut runner = IoHeavyRunner::new(1000);
        let ok = runner.run(&mut par, 2_000);
        assert!(ok.error.is_none(), "{:?}", ok.error);
        assert!(ok.write_tps.unwrap() > 0.0);
        // Push on: the capped in-memory state blows up — the Figure 12 'X'.
        let mut failed = false;
        for tuples in [8_000u64, 32_000, 128_000] {
            let r = runner.run(&mut par, tuples);
            if r.error.is_some() {
                failed = true;
                break;
            }
        }
        assert!(failed, "parity never hit its memory wall");
    }

    #[test]
    fn read_throughput_reported_and_positive() {
        let mut fab = FabricChain::new(FabricConfig::with_nodes(4));
        let r = IoHeavyRunner::new(500).run(&mut fab, 1_500);
        assert!(r.read_tps.unwrap() > 0.0);
        assert!(r.disk_bytes > 0);
        assert!(r.error.is_none());
    }
}
