//! Ablations: turn the paper's *diagnosed bottleneck* off and show the
//! symptom disappears. The paper attributes each platform's behaviour to a
//! specific mechanism (Section 5: "such insights are not easy to extract
//! without a systematic analysis framework") — these experiments demonstrate
//! the attribution is causal in our models, not coincidental calibration.

use crate::exp_macro::Macro;
use crate::table::{num, Table};
use bb_ethereum::{EthConfig, EthereumChain};
use bb_fabric::{FabricChain, FabricConfig};
use bb_parity::{ParityChain, ParityConfig};
use bb_sim::SimDuration;
use blockbench::driver::{run_workload, DriverConfig};
use blockbench::BlockchainConnector;

/// Ablation A's channel capacities, v0.6's bounded channel first.
pub(crate) const CHANNEL_CAPACITIES: [usize; 3] = [250, 1_000, 1_000_000];
/// Ablation B's difficulty size exponents: flat, then the default rule.
pub(crate) const SIZE_EXPONENTS: [f64; 2] = [0.0, 1.35];
/// Ablation C's producer signing costs (ms/tx), the calibrated one first.
pub(crate) const SIGN_COSTS_MS: [u64; 3] = [22, 11, 2];

/// Committed tx/s of the macro YCSB workload on `chain`, driven by
/// `clients` clients at `rate` tx/s each.
fn ycsb_tps(chain: &mut dyn BlockchainConnector, clients: u32, rate: f64, d: SimDuration) -> f64 {
    let config = DriverConfig {
        clients,
        rate_per_client: rate,
        duration: d,
        poll_interval: SimDuration::from_millis(500),
        drain: SimDuration::from_secs(10),
    };
    run_workload(chain, Macro::Ycsb.build(clients).as_mut(), &config).throughput_tps()
}

/// Ablation A — "the consensus messages are rejected ... on account of the
/// message channel being full" (Section 4.1.2). Sweep the channel capacity
/// at the 20×20 collapse point: with an effectively unbounded channel the
/// cluster merely saturates instead of collapsing.
pub fn ablation_channel(duration: SimDuration) -> Table {
    let mut t = Table::new(
        "Ablation A: Fabric channel capacity at 20 servers x 20 clients",
        &["channel capacity", "tx/s", "dropped msgs"],
    );
    for cap in CHANNEL_CAPACITIES {
        let mut config = FabricConfig::with_nodes(20);
        config.channel_capacity = cap;
        let mut chain = FabricChain::new(config);
        let tps = ycsb_tps(&mut chain, 20, 150.0, duration);
        t.row(vec![format!("{cap}"), num(tps), format!("{}", chain.dropped_messages())]);
    }
    t
}

/// Ablation B — Ethereum's scalability decay comes from the super-linear
/// difficulty rule the authors applied. With a flat difficulty the decay
/// (mostly) disappears.
pub fn ablation_difficulty(duration: SimDuration) -> Table {
    let mut t = Table::new(
        "Ablation B: Ethereum difficulty scaling at 32 servers (8 clients)",
        &["size exponent", "tx/s @ 8 nodes", "tx/s @ 32 nodes"],
    );
    for exponent in SIZE_EXPONENTS {
        let mut row = vec![num(exponent)];
        for nodes in [8u32, 32] {
            let mut config = EthConfig::with_nodes(nodes);
            config.pow.size_exponent = exponent;
            let mut chain = EthereumChain::new(config);
            row.push(num(ycsb_tps(&mut chain, 8, 48.0, duration)));
        }
        t.row(row);
    }
    t
}

/// Ablation C — "the bottleneck in Parity is due to transaction signing"
/// (Section 4.2.3). Cut the producer's per-transaction signing cost and
/// throughput scales with it; consensus was never the limit.
pub fn ablation_signing(duration: SimDuration) -> Table {
    let mut t = Table::new(
        "Ablation C: Parity producer signing cost (8 servers, 8 clients)",
        &["sign cost ms/tx", "tx/s"],
    );
    for cost_ms in SIGN_COSTS_MS {
        let mut config = ParityConfig::with_nodes(8);
        config.produce_sign_cost = SimDuration::from_millis(cost_ms);
        let mut chain = ParityChain::new(config);
        t.row(vec![format!("{cost_ms}"), num(ycsb_tps(&mut chain, 8, 256.0, duration))]);
    }
    t
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::claims;
    use crate::table::Table;

    /// Ablation B's table, shared with Figure 8's ethereum claim.
    pub(crate) fn difficulty() -> &'static Table {
        static TABLE: std::sync::OnceLock<Table> = std::sync::OnceLock::new();
        TABLE.get_or_init(|| ablation_difficulty(SimDuration::from_secs(60)))
    }

    #[test]
    fn unbounding_the_channel_prevents_the_collapse() -> Result<(), String> {
        let t = ablation_channel(SimDuration::from_secs(15));
        claims::ablation_a_unbounded_channel_prevents_the_collapse(&t)
    }

    #[test]
    fn flat_difficulty_removes_ethereum_decay() -> Result<(), String> {
        claims::ablation_b_flat_difficulty_removes_ethereum_decay(difficulty())
    }

    #[test]
    fn cheaper_signing_unlocks_parity() -> Result<(), String> {
        let t = ablation_signing(SimDuration::from_secs(20));
        claims::ablation_c_cheaper_signing_unlocks_parity(&t)
    }
}
