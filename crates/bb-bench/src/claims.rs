//! The paper's comparative findings (Section 4's bullet list), one named
//! check per claim over the [`Table`] its figure produces.
//!
//! The same function runs over a table a test has just built and over the
//! committed `results/*.csv` (`tests/paper_claims.rs`), so EXPERIMENTS.md's
//! "Shape: holds" verdicts are checked against the bytes
//! `scripts/check_results.sh` pins. Scale-dependent inputs (fault instants,
//! window ends, sweep points) are arguments; rows are found by the names and
//! constants that built them, never by a label written out here.

use bb_parity::ParityConfig;
use bb_sim::SimDuration;

use crate::exp_ablation::{CHANNEL_CAPACITIES, SIGN_COSTS_MS, SIZE_EXPONENTS};
use crate::exp_chaos::Scenario;
use crate::exp_fault::{FIG9_SERVERS, SAMPLE_EVERY, SYNC_MODES};
use crate::exp_macro::{Macro, HSTORE};
use crate::platforms::Platform::{self, Ethereum, Hyperledger, Parity};
use crate::platforms::ALL_PLATFORMS;
use crate::table::{num, Table};

/// `Err(message)` unless `cond` holds; a comparison with NaN does not.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($msg)+));
        }
    };
}

/// Figure 5a: "Hyperledger performs consistently better than Ethereum and
/// Parity". On both workloads its peak clears 600 tx/s and 2× Ethereum's,
/// Ethereum's clears 2× Parity's, Parity stays under its 70 tx/s signing
/// cap, and mean latency orders Parity < Hyperledger < Ethereum.
pub fn fig5_fabric_beats_ethereum_beats_parity(peak: &Table) -> Result<(), String> {
    for workload in [Macro::Ycsb, Macro::Smallbank].map(Macro::name) {
        let key = |p: Platform| [("platform", p.name()), ("workload", workload)];
        let at = |p, column| peak.value(&key(p), column);
        let tps = |p| at(p, "peak tx/s");
        let (e, p, h) = (tps(Ethereum)?, tps(Parity)?, tps(Hyperledger)?);
        ensure!(h > 600.0 && h > 2.0 * e, "{workload}: hyperledger {h} vs ethereum {e} tx/s");
        ensure!(e > 2.0 * p && p < 70.0, "{workload}: ethereum {e} vs parity {p} tx/s");
        let lat = |p| at(p, "latency s (mean)");
        let (el, pl, hl) = (lat(Ethereum)?, lat(Parity)?, lat(Hyperledger)?);
        ensure!(pl < hl && hl < el, "{workload}: latency {pl} parity, {hl} fabric, {el} ethereum");
    }
    Ok(())
}

/// Figure 5b: "Parity processes transactions at a constant rate". Its YCSB
/// throughput moves less than 35 % across the offered `rates` and stays
/// under its 70 tx/s signing cap.
pub fn fig5_parity_flat_in_offered_load(sweep: &Table, rates: &[f64]) -> Result<(), String> {
    let (parity, ycsb) = (Parity.name(), Macro::Ycsb.name());
    let tps = rates.iter().map(|&r| {
        sweep.value(&[("platform", parity), ("workload", ycsb), ("rate/client", &num(r))], "tx/s")
    });
    let tps = tps.collect::<Result<Vec<f64>, String>>()?;
    let (lo, hi) = tps.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    ensure!(hi - lo < 0.35 * hi && hi < 70.0, "parity tx/s {tps:?} at offered {rates:?}");
    Ok(())
}

/// Figure 13c: consensus is the gap for Ethereum, signing for Parity. One row
/// per platform; Parity's DoNothing throughput is within 15 % of its YCSB,
/// Ethereum's beats its YCSB by over 2 %.
pub fn fig13c_donothing_isolates_the_bottleneck(t: &Table) -> Result<(), String> {
    ensure!(t.len() == ALL_PLATFORMS.len(), "{}: {} rows, not one per platform", t.title, t.len());
    let tps = |p: Platform, w: Macro| t.value(&[("platform", p.name())], w.name());
    let (py, pd) = (tps(Parity, Macro::Ycsb)?, tps(Parity, Macro::DoNothing)?);
    ensure!((pd - py).abs() < 0.15 * py, "parity workloads differ: DoNothing {pd} vs YCSB {py}");
    let (ey, ed) = (tps(Ethereum, Macro::Ycsb)?, tps(Ethereum, Macro::DoNothing)?);
    ensure!(ed > 1.02 * ey, "ethereum DoNothing {ed} not cheaper than YCSB {ey}");
    Ok(())
}

/// Figure 14 and Appendix B: Smallbank costs Hyperledger under 35 % of its
/// YCSB throughput but costs H-Store 4–10× (blocking 2PC), and H-Store's
/// Smallbank is still more than 10× Hyperledger's YCSB.
pub fn fig14_smallbank_costs_blockchains_little_but_hstore_much(t: &Table) -> Result<(), String> {
    let tps = |system: &str| -> Result<(f64, f64), String> {
        let at = |w: Macro| t.value(&[("system", system)], w.name());
        Ok((at(Macro::Ycsb)?, at(Macro::Smallbank)?))
    };
    let ((fy, fs), (hy, hs)) = (tps(Hyperledger.name())?, tps(HSTORE)?);
    ensure!(1.0 - fs / fy < 0.35, "blockchain smallbank penalty too large: {fs} vs YCSB {fy}");
    ensure!((4.0..10.0).contains(&(hy / hs)), "h-store penalty: {hy} / {hs}");
    ensure!(hs > 10.0 * fy, "h-store smallbank {hs} vs hyperledger YCSB {fy}");
    Ok(())
}

/// Section 4.1.1's Parity bottleneck, in blocks: a Parity block holds at
/// most `ParityConfig::with_nodes(8).max_txs_per_block()` transactions, one
/// block per `step_duration`, and every Parity cell of the 8×8 figures offers
/// more than that (8 clients × at least 8 tx/s). So over the `window`, each
/// YCSB and DoNothing cell commits a whole number k ≤ window ÷ step of full
/// blocks, and each Smallbank cell, whose aborted transactions take block
/// slots without committing, at most that many blocks' worth — both within
/// the printed precision of the tx/s cell.
pub fn parity_blocks_are_full(
    sweep: &Table,
    rates: &[f64],
    fig13c: &Table,
    fig14: &Table,
    window: SimDuration,
) -> Result<(), String> {
    let parity = Parity.name();
    let mut cells = Vec::new();
    for w in [Macro::Ycsb, Macro::Smallbank] {
        for rate in rates.iter().map(|&r| num(r)) {
            let key = [("platform", parity), ("workload", w.name()), ("rate/client", &rate)];
            cells.push((&sweep.title, w, sweep.cell(&key, "tx/s")?));
        }
        cells.push((&fig14.title, w, fig14.cell(&[("system", parity)], w.name())?));
    }
    for w in [Macro::Ycsb, Macro::Smallbank, Macro::DoNothing] {
        cells.push((&fig13c.title, w, fig13c.cell(&[("platform", parity)], w.name())?));
    }
    let config = ParityConfig::with_nodes(8);
    let per_block = config.max_txs_per_block() as f64;
    let max_blocks = (window.as_micros() / config.step_duration.as_micros()) as f64;
    for (title, workload, printed) in cells {
        let tps: f64 = printed.parse().map_err(|_| format!("{title}: parity {printed:?}"))?;
        let decimals = printed.split_once('.').map_or(0, |(_, frac)| frac.len() as i32);
        let slack = 0.5 * 10f64.powi(-decimals) * window.as_secs_f64() / per_block;
        let blocks = tps * window.as_secs_f64() / per_block;
        let cell = format!("{title}: parity {} at {printed} tx/s", workload.name());
        ensure!(blocks <= max_blocks + slack, "{cell} overfills {max_blocks} blocks");
        let whole = blocks >= 1.0 && (blocks - blocks.round()).abs() <= slack;
        ensure!(whole || workload == Macro::Smallbank, "{cell} is {blocks} blocks of {per_block}");
    }
    Ok(())
}

/// The rows of a `window`-second fault table: every [`SAMPLE_EVERY`]th
/// second from t=1.
fn samples(window: u64) -> impl Iterator<Item = u64> {
    (1..=window).step_by(SAMPLE_EVERY)
}

/// The last sample before `at` (t=1 if none is); `u64::MAX` gives the last.
fn last_before(window: u64, at: u64) -> u64 {
    samples(window).take_while(|&s| s < at).last().unwrap_or(1)
}

/// The first sample at or after `at` (the last sample if none is).
fn first_from(window: u64, at: u64) -> u64 {
    samples(window).find(|&s| s >= at).unwrap_or_else(|| last_before(window, u64::MAX))
}

/// `column` of the row `key` at sample `sec`.
fn at(t: &Table, key: &[(&str, &str)], sec: u64, column: &str) -> Result<f64, String> {
    t.value(&[key, &[("t (s)", &sec.to_string())]].concat(), column)
}

/// Committed transactions per second of the row `key` between two samples.
fn commit_rate(t: &Table, key: &[(&str, &str)], from: u64, to: u64) -> Result<f64, String> {
    let committed = |sec| at(t, key, sec, "committed (cum)");
    Ok((committed(to)? - committed(from)?) / (to - from) as f64)
}

/// Figure 9: "Ethereum and Parity are more resilient to node failures".
/// Four servers crash at `fail_at`. Every cell commits before the fault.
/// From the first sample after it to the window's end, PBFT on the smaller
/// cluster (quorum above the survivors) commits at most 2 s of its
/// pre-fault rate; PBFT on the larger one, and Ethereum and Parity on both,
/// keep more than a quarter of theirs.
pub fn fig9_pbft12_stalls_pbft16_and_pow_survive(
    t: &Table,
    window: u64,
    fail_at: u64,
) -> Result<(), String> {
    let (before, after) = (last_before(window, fail_at), first_from(window, fail_at + 1));
    let end = last_before(window, u64::MAX);
    for platform in ALL_PLATFORMS {
        for servers in FIG9_SERVERS {
            let key = [("platform", platform.name()), ("servers", &servers.to_string())];
            let (pre, post) = (commit_rate(t, &key, 1, before)?, commit_rate(t, &key, after, end)?);
            let rates = format!("{pre:.1} tx/s to t={before}, {post:.1} from t={after}");
            let cell = format!("{}-{servers}", platform.name());
            ensure!(pre > 0.0, "{cell}: no commits before the fault");
            if (platform, servers) == (Hyperledger, FIG9_SERVERS[0]) {
                let after_fault = post * (end - after) as f64;
                ensure!(after_fault <= 2.0 * pre, "{cell} kept committing: {rates}");
            } else {
                ensure!(post > pre / 4.0, "{cell} stalled: {rates}");
            }
        }
    }
    Ok(())
}

/// Figure 9 (restart): node 7 crashes with a torn WAL at `fail_at` and
/// restarts from disk at `restart_at`. Every platform records a recovery
/// window and resynced blocks; once as much time has passed after the
/// restart as before it, the commit rate to the window's end is at least
/// 90 % of the pre-fault rate. Ethereum and Hyperledger replay their WAL and
/// truncate its torn tail; Parity's in-memory state has no WAL.
pub fn fig9_restart_rejoins_and_recovers(
    t: &Table,
    window: u64,
    fail_at: u64,
    restart_at: u64,
) -> Result<(), String> {
    let (before, from) = (last_before(window, fail_at), first_from(window, 2 * restart_at));
    let end = last_before(window, u64::MAX);
    for platform in ALL_PLATFORMS {
        let (name, durable) = (platform.name(), platform != Parity);
        let key = [("platform", name)];
        let (pre, post) = (commit_rate(t, &key, 1, before)?, commit_rate(t, &key, from, end)?);
        ensure!(pre > 0.0 && post >= 0.9 * pre, "{name}: rejoined at {post:.1} vs {pre:.1} tx/s");
        let last = |column| at(t, &key, end, column);
        ensure!(last("recovery (ms)")? > 0.0, "{name}: no recovery time recorded");
        ensure!(last("resync blocks")? > 0.0, "{name}: nothing resynced");
        ensure!((last("wal replayed")? > 0.0) == durable, "{name}: WAL replay is not {durable}");
        ensure!(!durable || last("wal truncated")? > 0.0, "{name}: torn tail not truncated");
    }
    Ok(())
}

/// Figure 9 (snapshot sync): the same crash, with an outage long enough that
/// the block gap clears the snapshot threshold. Per platform only the
/// snapshot cell transfers chunks; it resyncs fewer blocks than replay, its
/// recovery window is no longer than replay's, and from the restart to the
/// window's end it commits at least 90 % of its pre-fault rate.
pub fn fig9_snapshot_recovers_at_least_as_fast_as_replay(
    t: &Table,
    window: u64,
    fail_at: u64,
    restart_at: u64,
) -> Result<(), String> {
    let (before, from) = (last_before(window, fail_at), first_from(window, restart_at));
    let end = last_before(window, u64::MAX);
    let [(replay, _), (snapshot, _)] = SYNC_MODES;
    for platform in ALL_PLATFORMS {
        let name = platform.name();
        let last = |mode, column| at(t, &[("platform", name), ("mode", mode)], end, column);
        ensure!(last(snapshot, "snapshot chunks")? > 0.0, "{name}: snapshot mode sent no chunks");
        ensure!(last(replay, "snapshot chunks")? == 0.0, "{name}: replay mode used snapshot sync");
        let (snap, rep) = (last(snapshot, "resync blocks")?, last(replay, "resync blocks")?);
        ensure!(snap < rep, "{name}: snapshot resynced {snap} blocks vs replay's {rep}");
        let (snap, rep) = (last(snapshot, "recovery (ms)")?, last(replay, "recovery (ms)")?);
        ensure!(0.0 < snap && snap <= rep, "{name}: snapshot recovery {snap} vs replay {rep} ms");
        let key = [("platform", name), ("mode", snapshot)];
        let (pre, post) = (commit_rate(t, &key, 1, before)?, commit_rate(t, &key, from, end)?);
        ensure!(pre > 0.0 && post >= 0.9 * pre, "{name}: rejoined at {post:.1} vs {pre:.1} tx/s");
    }
    Ok(())
}

/// Figure 10: "...but they are vulnerable to security attacks that fork the
/// blockchain". After a partition, Ethereum's and Parity's main chains hold
/// under 90 % of all blocks at the window's last sample; Hyperledger's hold
/// all of them at every sample.
pub fn fig10_partition_forks_pow_and_poa_never_pbft(t: &Table, window: u64) -> Result<(), String> {
    let ratio = |p: Platform, sec| at(t, &[("platform", p.name())], sec, "fork ratio");
    let end = last_before(window, u64::MAX);
    for platform in [Ethereum, Parity] {
        let r = ratio(platform, end)?;
        ensure!(r < 0.9, "{}: barely forked, main/total {r} at t={end}", platform.name());
    }
    for sec in samples(window) {
        let r = ratio(Hyperledger, sec)?;
        ensure!(r == 1.0, "hyperledger forked: main/total {r} at t={sec}");
    }
    Ok(())
}

/// Figure 11: Ethereum runs out of memory ('X') at the largest CPUHeavy size
/// of `sizes`, as at the paper's 100M, and Hyperledger finishes every size.
pub fn fig11_ethereum_ooms_hyperledger_finishes(t: &Table, sizes: &[u64]) -> Result<(), String> {
    let time = |p: Platform, n: u64| {
        t.cell(&[("platform", p.name()), ("input size", &n.to_string())], "exec time s")
    };
    let largest = sizes.iter().copied().max().ok_or("no CPUHeavy sizes")?;
    ensure!(time(Ethereum, largest)? == "X", "ethereum finished size {largest}");
    for &n in sizes {
        ensure!(time(Hyperledger, n)? != "X", "hyperledger ran out of memory at size {n}");
    }
    Ok(())
}

/// Figure 13b: analytics Q2 costs Hyperledger one round trip (one
/// VersionKVStore call) at every span, and Ethereum and Parity one per block
/// scanned.
pub fn fig13b_fabric_q2_needs_one_round_trip(q2: &Table, spans: &[u64]) -> Result<(), String> {
    for &span in spans {
        for platform in ALL_PLATFORMS {
            let key = [("platform", platform.name()), ("blocks scanned", &span.to_string())];
            let trips = q2.value(&key, "round trips")?;
            let expected = if platform == Hyperledger { 1.0 } else { span as f64 };
            ensure!(trips == expected, "{}: {trips} round trips at span {span}", platform.name());
        }
    }
    Ok(())
}

/// Ethereum's throughput at 8 and at 32 nodes under difficulty `exponent`.
fn eth_at_8_and_32(t: &Table, exponent: f64) -> Result<(f64, f64), String> {
    let exponent = num(exponent);
    let key = [("size exponent", exponent.as_str())];
    Ok((t.value(&key, "tx/s @ 8 nodes")?, t.value(&key, "tx/s @ 32 nodes")?))
}

/// Figure 8's Ethereum curve, read off ablation B's default-difficulty row:
/// with 8 clients the 8-node rate clears 100 tx/s, and 32 nodes still commit
/// but at under half of it.
pub fn fig8_ethereum_degrades_with_size_but_survives(ablation_b: &Table) -> Result<(), String> {
    let (at8, at32) = eth_at_8_and_32(ablation_b, SIZE_EXPONENTS[1])?;
    ensure!(at8 > 100.0 && at32 > 1.0, "ethereum died: {at8} tx/s at 8 nodes, {at32} at 32");
    ensure!(at32 < at8 / 2.0, "difficulty scaling missing: {at8} -> {at32} tx/s");
    Ok(())
}

/// Ablation A: the bounded channel is Fabric's collapse mechanism at 20×20.
/// Unbounded, the cluster commits more than 1.8× what v0.6's channel lets
/// through.
pub fn ablation_a_unbounded_channel_prevents_the_collapse(t: &Table) -> Result<(), String> {
    let tps = |cap: usize| t.value(&[("channel capacity", &cap.to_string())], "tx/s");
    let [bounded, .., unbounded] = CHANNEL_CAPACITIES;
    let (bounded, unbounded) = (tps(bounded)?, tps(unbounded)?);
    ensure!(unbounded > 1.8 * bounded, "channel is not the mechanism: {bounded} vs {unbounded}");
    Ok(())
}

/// Ablation B: Ethereum's decay with size comes from the super-linear
/// difficulty rule. With a flat difficulty 32 nodes keep over 55 % of the
/// 8-node rate; with the default rule they fall under 55 % of the flat
/// 32-node rate.
pub fn ablation_b_flat_difficulty_removes_ethereum_decay(t: &Table) -> Result<(), String> {
    let [flat, steep] = SIZE_EXPONENTS;
    let ((flat8, flat32), (_, steep32)) = (eth_at_8_and_32(t, flat)?, eth_at_8_and_32(t, steep)?);
    ensure!(flat32 > 0.55 * flat8, "flat difficulty still decays: {flat8} -> {flat32}");
    ensure!(steep32 < 0.55 * flat32, "steep 32-node rate {steep32} vs flat {flat32}");
    Ok(())
}

/// Ablation C: "the bottleneck in Parity is due to transaction signing". At
/// the calibrated cost Parity stays under 60 tx/s; at the cheapest it
/// commits more than 3× that.
pub fn ablation_c_cheaper_signing_unlocks_parity(t: &Table) -> Result<(), String> {
    let tps = |ms: u64| t.value(&[("sign cost ms/tx", &ms.to_string())], "tx/s");
    let [slow, .., fast] = SIGN_COSTS_MS;
    let (slow, fast) = (tps(slow)?, tps(fast)?);
    ensure!(slow < 60.0, "baseline parity too fast: {slow}");
    ensure!(fast > 3.0 * slow, "signing cost is not the bottleneck: {slow} vs {fast}");
    Ok(())
}

/// Every `(scenario, platform)` cell of the chaos matrix, with a reader for
/// its row and a name for its messages.
fn chaos_cells<'t>(
    t: &'t Table,
) -> impl Iterator<Item = (Scenario, impl Fn(&str) -> Result<&'t str, String>, String)> {
    let cells = Scenario::ALL.into_iter().flat_map(|s| s.platforms().iter().map(move |&p| (s, p)));
    cells.map(move |(s, p)| {
        let key = [("scenario", s.name()), ("platform", p.name())];
        let cell = move |column: &str| t.cell(&key, column);
        (s, cell, format!("{}/{}", s.name(), p.name()))
    })
}

/// The chaos matrix has one row per scenario × the platforms it applies to.
pub fn fig_chaos_covers_every_cell(t: &Table) -> Result<(), String> {
    let cells = chaos_cells(t).count();
    ensure!(t.len() == cells, "{}: {} rows for {cells} cells", t.title, t.len());
    chaos_cells(t).try_for_each(|(_, cell, _)| cell("live").map(drop))
}

/// The chaos liveness contract: every cell commits before the chaos and
/// recovers to its scenario's floor of that rate afterwards.
pub fn fig_chaos_every_cell_is_live(t: &Table) -> Result<(), String> {
    for (s, cell, name) in chaos_cells(t) {
        let (pre, post) = (cell("pre (tx/s)")?, cell("post (tx/s)")?);
        let live = pre.parse::<f64>().is_ok_and(|r| r > 0.0) && cell("live")? == "yes";
        let floor = s.liveness_floor() * 100.0;
        ensure!(live, "{name}: not live at {post} tx/s after {pre} (floor {floor}%)");
    }
    Ok(())
}

/// The chaos safety contract: every cell's cross-node check passed over at
/// least one height.
pub fn fig_chaos_every_cell_is_safe(t: &Table) -> Result<(), String> {
    for (_, cell, name) in chaos_cells(t) {
        let safety = cell("safety")?;
        let checked = safety.strip_prefix("ok(").and_then(|n| n.strip_suffix(')'));
        let checked: u64 = checked.and_then(|n| n.parse().ok()).unwrap_or(0);
        ensure!(checked > 0, "{name}: safety {safety}");
    }
    Ok(())
}

/// The chaos actually happened: each byzantine flood sent its window's
/// worth, the equivocating primary was detected, every heal of a flapping
/// (5) or one-way (1) partition counted as a flap, and the slow disk stalled.
pub fn fig_chaos_mechanisms_fired(t: &Table) -> Result<(), String> {
    for (s, cell, name) in chaos_cells(t) {
        let (column, fired): (_, fn(f64) -> bool) = match s {
            // 60 + 40 + 20 tx/s over the 15-second chaos window.
            Scenario::ByzFlood => ("byz sent", |v| v == 1800.0),
            Scenario::Equivocate => ("equivocations", |v| v > 0.0),
            Scenario::PartitionFlap => ("flaps", |v| v == 5.0),
            Scenario::PartitionAsym => ("flaps", |v| v == 1.0),
            Scenario::SlowDisk => ("stall (ms)", |v| v > 0.0),
            Scenario::GossipJitter => continue,
        };
        let value = cell(column)?;
        ensure!(value.parse().is_ok_and(fired), "{name}: {column} is {value}");
    }
    Ok(())
}
