//! Open-loop acceptance tests: a million-account population must be cheap.
//!
//! The tentpole contract (ROADMAP "millions of users"): an open-loop Poisson
//! run over 1,000,000 distinct sending accounts completes with memory
//! proportional to the *active set* — the accounts that actually sent — not
//! the population. `Population` derives an account's key on its first send
//! and keeps that keypair and its nonce in a sparse map, so the run below
//! touches a few thousand entries where an eager setup would allocate a
//! million keypairs before the first send.

use bb_fabric::{FabricChain, FabricConfig};
use bb_parity::{ParityChain, ParityConfig};
use bb_sim::SimDuration;
use bb_workloads::ycsb::{YcsbConfig, YcsbWorkload};
use blockbench::{run_open_loop, ArrivalProcess, OpenLoopConfig};

fn million_account_config(rate: f64, secs: u64) -> OpenLoopConfig {
    OpenLoopConfig {
        population: 1_000_000,
        process: ArrivalProcess::Poisson { rate },
        // Uniform account choice: Zipfian setup is O(population), uniform is
        // O(1) — a million-account run must not pay per-account setup.
        zipf_theta: 0.0,
        duration: SimDuration::from_secs(secs),
        poll_interval: SimDuration::from_millis(500),
        drain: SimDuration::from_secs(10),
        retry_backoff: SimDuration::from_millis(250),
        seed: 0x1E6,
    }
}

#[test]
fn million_account_run_memory_tracks_active_set_not_population() {
    let mut chain = FabricChain::new(FabricConfig::with_nodes(4));
    let mut workload = YcsbWorkload::new(YcsbConfig {
        clients: 1,
        preload_records: 0,
        zipf_theta: 0.0,
        ..YcsbConfig::default()
    });
    let stats = run_open_loop(&mut chain, &mut workload, &million_account_config(500.0, 10));

    // ~5000 arrivals offered; the platform keeps up and commits them.
    assert!(
        (4500..=5500).contains(&stats.submitted),
        "submitted {} — offered load missed the Poisson volume",
        stats.submitted
    );
    assert!(
        stats.committed as f64 > 0.8 * stats.submitted as f64,
        "unsaturated run must commit what it offers: {}",
        stats.summary_line()
    );

    // The memory contract: keys and nonces exist only for accounts that sent.
    // With ~5k uniform draws from 1M ids, the active set is ≈ submitted
    // (birthday collisions are rare) and *far* below the population.
    let touched = workload.population().touched();
    assert!(
        touched as u64 >= stats.submitted / 2,
        "active set {touched} implausibly small for {} sends",
        stats.submitted
    );
    assert!(
        touched < 20_000,
        "active set {touched} is not ≪ the 1,000,000-account population"
    );
}

#[test]
fn open_loop_overload_completes_and_co_tail_dominates() {
    // Parity well past its knee: the run must terminate (retries are
    // bounded by the window) and the CO-free tail must dominate the naive
    // tail no matter how the platform absorbed the overload.
    let mut chain = ParityChain::new(ParityConfig::with_nodes(4));
    let mut workload = YcsbWorkload::new(YcsbConfig {
        clients: 1,
        preload_records: 0,
        zipf_theta: 0.0,
        ..YcsbConfig::default()
    });
    let stats = run_open_loop(&mut chain, &mut workload, &million_account_config(400.0, 8));
    assert!(stats.committed > 0, "{}", stats.summary_line());
    let naive = stats.latency_quantile(0.99).unwrap();
    let co = stats.co_latency_quantile(0.99).unwrap();
    assert!(
        co >= 0.999 * naive,
        "CO-free p99 {co} must never undercut the naive p99 {naive}"
    );
}
