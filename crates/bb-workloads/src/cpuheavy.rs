//! The CPUHeavy micro-benchmark runner (Section 4.2.1, Figure 11): deploy
//! the quicksort contract on a one-server deployment, run one sort
//! transaction per input size, and report execution time and peak memory —
//! or the out-of-memory failure.

use crate::common::Population;
use bb_contracts::cpuheavy;
use bb_sim::SimDuration;
use bb_types::AccountId;
use blockbench::connector::BlockchainConnector;

/// One CPUHeavy measurement.
#[derive(Debug, Clone)]
pub struct CpuHeavyResult {
    /// Input size (elements).
    pub n: u64,
    /// Simulated execution time; `None` when the run failed.
    pub exec_time: Option<SimDuration>,
    /// Modeled peak memory in bytes.
    pub peak_mem: u64,
    /// Failure cause (the paper's 'X' is out-of-memory).
    pub error: Option<String>,
}

/// Runs CPUHeavy sorts against any platform.
pub struct CpuHeavyRunner {
    lane: Population,
    contract: Option<bb_types::Address>,
}

impl Default for CpuHeavyRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl CpuHeavyRunner {
    /// Fresh runner.
    pub fn new() -> CpuHeavyRunner {
        CpuHeavyRunner { lane: Population::lane(4), contract: None }
    }

    /// Sort `n` elements on `chain` and measure.
    pub fn run(&mut self, chain: &mut dyn BlockchainConnector, n: u64) -> CpuHeavyResult {
        let contract = *self
            .contract
            .get_or_insert_with(|| chain.deploy(&cpuheavy::bundle()));
        let tx = self.lane.sign(AccountId(0), contract, 0, cpuheavy::sort_call(n));
        let res = chain.execute_direct(tx);
        CpuHeavyResult {
            n,
            exec_time: res.success.then_some(res.duration),
            peak_mem: res.modeled_mem,
            error: res.error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_ethereum::{EthConfig, EthereumChain};
    use bb_fabric::{FabricChain, FabricConfig};
    use bb_parity::{ParityChain, ParityConfig};

    #[test]
    fn ordering_matches_figure_11() {
        // Same input, three platforms: Hyperledger ≪ Parity < Ethereum.
        let n = 20_000;
        let mut eth = EthereumChain::new(EthConfig::with_nodes(1));
        let mut par = ParityChain::new(ParityConfig::with_nodes(1));
        let mut fab = FabricChain::new(FabricConfig::with_nodes(4));
        let re = CpuHeavyRunner::new().run(&mut eth, n);
        let rp = CpuHeavyRunner::new().run(&mut par, n);
        let rf = CpuHeavyRunner::new().run(&mut fab, n);
        let (te, tp, tf) = (
            re.exec_time.unwrap(),
            rp.exec_time.unwrap(),
            rf.exec_time.unwrap(),
        );
        assert!(te > tp, "ethereum {te} vs parity {tp}");
        assert!(tp.as_secs_f64() > 5.0 * tf.as_secs_f64(), "parity {tp} vs fabric {tf}");
        // And Ethereum's memory appetite dwarfs the others' (Figure 11).
        assert!(re.peak_mem > 2 * rp.peak_mem, "eth mem {} vs parity {}", re.peak_mem, rp.peak_mem);
    }

    #[test]
    fn ethereum_ooms_on_oversized_input() {
        // Scale the node memory down so the OOM point is test-sized.
        let mut config = EthConfig::with_nodes(1);
        config.node_mem_bytes = config.costs.mem_base + (100 << 20); // +100 MiB
        let mut eth = EthereumChain::new(config);
        let mut runner = CpuHeavyRunner::new();
        // 100 MiB / 260 overhead ≈ 400 KiB of VM arena → ~30k elements max
        // (the arena includes the 128 KiB program region).
        let small = runner.run(&mut eth, 10_000);
        assert!(small.error.is_none(), "{:?}", small.error);
        let big = runner.run(&mut eth, 200_000);
        assert!(big.exec_time.is_none());
        assert!(big.error.unwrap().contains("memory"));
    }

    #[test]
    fn sweep_is_monotone_in_time() {
        let mut fab = FabricChain::new(FabricConfig::with_nodes(4));
        let mut runner = CpuHeavyRunner::new();
        let times = [1_000, 10_000, 100_000].map(|n| runner.run(&mut fab, n).exec_time.unwrap());
        assert!(times[0] < times[1] && times[1] < times[2], "{times:?}");
    }
}
