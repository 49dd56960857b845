//! Regression tests for bounded-tx-pool pinning.
//!
//! Parity's pool is bounded (`tx_pool_cap`): once full, further
//! submissions error "queue full" at the RPC. Future-nonced entries used
//! to be re-queued by every `build_block` pass forever, so a byzantine
//! client flooding nonce-gapped transactions (whose predecessors never
//! arrive) pinned every pool at the cap permanently — after the flood
//! stopped, no honest transaction was ever admitted again. The age-out
//! eviction (`pool_evict_blocks`) drops a future-nonced entry once its
//! nonce gap has persisted that many blocks past admission; these tests
//! pin the recovery behaviour and the client-side nonce accounting that
//! keeps honest senders healthy across "queue full" rejections.

use bb_bench::exp_macro::Macro;
use bb_parity::{ParityChain, ParityConfig};
use bb_sim::SimDuration;
use bb_types::NodeId;
use blockbench::{run_timeline, run_workload, ByzBehavior, ByzClientSpec, ChaosPlan, DriverConfig};

/// A byzantine client floods nonce-gapped transactions until the pool
/// pins at `tx_pool_cap`; once the flood stops, occupancy must age out
/// below the cap and honest throughput must recover to at least 0.9× the
/// pre-flood rate.
///
/// This is the first cell of the chaos matrix, driven through the
/// declarative [`ChaosPlan`] API: the flood is a [`ByzClientSpec`] actor
/// and the honest traffic a single 20 tx/s workload client, interleaved
/// by [`run_timeline`] on the shared virtual clock.
#[test]
fn nonce_gap_flood_recovers_on_parity() {
    const NODES: u32 = 4;
    const SECS: u64 = 44;
    const FLOOD_START: u64 = 10;
    const FLOOD_END: u64 = 12;

    let config = ParityConfig::with_nodes(NODES);
    let pool_cap = config.tx_pool_cap;
    let horizon = config.pool_evict_blocks;

    // The flood: ~66 gap-nonced tx/s, under the ~80 tx/s admission bound
    // so the pool (not the RPC queue) is what fills. Nonces start at
    // 10_000, so every transaction is future-nonced forever (the gap can
    // never fill); the actor's own keypair seed keeps it off every honest
    // client's nonce track.
    let plan = ChaosPlan::new().actor(ByzClientSpec {
        server: NodeId(0),
        behavior: ByzBehavior::NonceGapFlood { start_nonce: 10_000 },
        rate: 66.0,
        from: SimDuration::from_secs(FLOOD_START),
        until: SimDuration::from_secs(FLOOD_END),
        key_seed: 0xBAD_C0DE,
    });
    // Honest traffic: one client at 20 tx/s to node 0, well under the
    // ~45 tx/s producer budget, for the whole run.
    let mut chain = ParityChain::new(config);
    let run = run_timeline(&mut chain, Macro::Ycsb.build(1).as_mut(), 1, 20.0, SECS, &plan);

    let window = |from: u64, to: u64| {
        run.series[to as usize - 1].1 - run.series[from as usize - 1].1
    };
    let rejects = |from: u64, to: u64| {
        run.honest_rejected[to as usize - 1] - run.honest_rejected[from as usize - 1]
    };

    assert_eq!(run.byz_submitted, 132, "flood volume off: {}", run.byz_submitted);
    // The flood must actually have pinned the pool: honest submissions
    // bounce off "queue full" after it lands.
    assert!(
        rejects(FLOOD_END, FLOOD_END + horizon) > 0,
        "flood never pinned the pool (cap {pool_cap}): no honest rejections"
    );
    // Recovery: the pool drains below cap once the gap outlives the
    // horizon, so late honest submissions are all accepted again...
    assert_eq!(
        rejects(SECS - 10, SECS),
        0,
        "pool still pinned {} blocks after the flood stopped",
        SECS - FLOOD_END
    );
    // ...and committed throughput returns to at least 0.9× pre-flood.
    let pre = window(2, FLOOD_START);
    let post = window(SECS - 10, SECS - 2);
    assert!(pre > 0, "no pre-flood throughput to compare against");
    assert!(
        post * 10 >= pre * 9,
        "post-flood throughput did not recover: pre={pre} post={post}"
    );
}

/// Client-side nonce accounting at pool saturation: drive Parity far past
/// its ~45 tx/s producer budget so "queue full" rejections are constant,
/// and verify throughput stays at the producer bound. If a workload
/// client burnt its nonce on a rejected submit, every later transaction
/// it signs would be permanently future-nonced — committed throughput
/// would collapse to roughly one pool fill and never recover.
#[test]
fn client_nonce_rolls_back_on_queue_full() {
    let mut chain = ParityChain::new(ParityConfig::with_nodes(4));
    let mut workload = Macro::Ycsb.build(4);
    let config = DriverConfig {
        clients: 4,
        rate_per_client: 100.0, // 400 tx/s aggregate >> 45 tx/s producer
        duration: SimDuration::from_secs(8),
        poll_interval: SimDuration::from_millis(500),
        drain: SimDuration::from_secs(4),
    };
    let stats = run_workload(&mut chain, workload.as_mut(), &config);
    assert!(
        stats.rejected > 0,
        "saturation run never hit the pool cap: rejected=0"
    );
    // ~45 tx/s × 8 s ≈ 360 in a perfect window; confirmation lag and the
    // admission pipeline eat some of it. Anywhere above half the producer
    // budget proves clients kept submitting includable nonces; without
    // rollback this lands below one pool cap (64).
    assert!(
        stats.committed > 180,
        "throughput collapsed at saturation — nonce burnt on rejection? committed={}",
        stats.committed
    );
}
