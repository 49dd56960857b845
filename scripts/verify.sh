#!/usr/bin/env bash
# Tier-1 verification, run exactly as CI would from a cold, offline checkout.
#
# The workspace is hermetic: every dependency (including the empty
# `criterion` placeholder) lives in-tree, so `--offline` must always succeed
# with an empty cargo registry cache and no network. If any step here starts
# needing the registry, that is a regression against the hermeticity
# guarantee documented in DESIGN.md.
#
# A wall-clock budget guards the suite itself: the parallel experiment
# runner (crates/bb-bench/src/parallel.rs) is what keeps the figure-driven
# tests inside it, so the suite runs with the runner *enabled* (no
# BB_WORKERS=1). Override the ceiling with BB_VERIFY_BUDGET_S if a slower
# machine needs more headroom.
#
# Performance is gated separately: `benchmark/run.sh` (BENCHMARK.json) runs
# five fixed-work workloads and the layer kernels, and `benchmark/run.sh
# compare A.json B.json` compares two recorded runs, model counts for
# equality. Run alternating parent/change pairs of the workloads a change
# touches; that is not part of tier-1 because wall-clock baselines are
# per-machine. What *is* a verify step is `benchmark/run.sh --smoke`: the
# benchmark must keep building against the crates and passing its own
# correctness checks.
#
# Behaviour is gated separately too: `scripts/check_results.sh` regenerates
# every figure (`figures all`) and fails unless each committed
# `results/*.csv` comes out byte-identical. It is the refactor gate — run it
# before and after any change that is meant to keep behaviour; it is not
# part of tier-1 because it takes ~4 min on 2 cores.
set -euo pipefail
cd "$(dirname "$0")/.."

# Run one named `cargo test` selection of a smoke section. A filter that
# matches no test passes silently (tests move and get renamed with their
# code), so a selection that runs zero tests is an error.
smoke() {
    local out
    out=$(cargo test -q --offline "$@" 2>&1) || { echo "$out"; return 1; }
    echo "$out"
    if ! grep -Eq '^test result: ok\. [1-9][0-9]* passed' <<<"$out"; then
        echo "ERROR: smoke selection ran 0 tests: cargo test $*" >&2
        return 1
    fi
}

# ~3.6x the measured single-core baseline (~500 s); a blown budget means a
# runaway test or a perf regression, not a slow afternoon.
BB_VERIFY_BUDGET_S="${BB_VERIFY_BUDGET_S:-1800}"

echo "==> tier-1: release build (offline)"
cargo build --release --offline

echo "==> tier-1: test suite (offline, parallel runner enabled, budget ${BB_VERIFY_BUDGET_S}s)"
if [ "${BB_WORKERS:-}" = "1" ]; then
    echo "NOTE: BB_WORKERS=1 set; the budget assumes the parallel runner" >&2
fi
suite_start=$SECONDS
cargo test -q --offline
suite_elapsed=$(( SECONDS - suite_start ))
echo "==> tier-1: suite took ${suite_elapsed}s (budget ${BB_VERIFY_BUDGET_S}s)"
if [ "$suite_elapsed" -gt "$BB_VERIFY_BUDGET_S" ]; then
    echo "ERROR: test suite blew the ${BB_VERIFY_BUDGET_S}s wall-clock budget (took ${suite_elapsed}s)" >&2
    exit 1
fi

echo "==> identity: transaction ids, request and batch digests are stored, immutable and frozen"
# Content identities are computed once at construction and read everywhere
# else; their values are pinned as literals because `results/` depends on
# them (DESIGN.md §4 "Identities"). The doc-test is the compile_fail proof
# that a constructed transaction cannot be assigned to.
smoke -p bb-types id
smoke -p bb-types --doc
smoke -p bb-consensus request
smoke -p bb-consensus message_sizes
# One request allocation per transaction: every Fabric peer's block holds the
# same `Arc<Transaction>` (DESIGN.md §4 "Replicas may share any immutable value").
smoke -p bb-fabric identical_chains

echo "==> twins: set-up runs once per chain, every other node starts as a copy on its own disk"
# DESIGN.md §4 "Replicas may start as copies": a copied store is a second
# disk, a trie forked mid-script lands on the unforked known answers, and on
# each platform the copied nodes are node 0's twins, restart from their own
# disks, and a preload onto a diverged node is refused.
smoke -p bb-storage second_disk
smoke -p bb-merkle fork_in_the_middle
for platform in bb-ethereum bb-parity bb-fabric; do
    smoke -p "$platform" twin
    smoke -p "$platform" preload_refuses
done

echo "==> crypto: SHA-256 known answers and scalar-vs-hardware differential, test and release profiles"
# Every layer's hashes bottom out in one `Sha256` with two compression
# functions, chosen from CPUID (DESIGN.md §4 "Hash kernel"). The differential
# tests call both directly; on a host without the SHA extensions their
# hardware halves print SKIPPED. The release run is for the workspace's only
# `unsafe` and its wrapping arithmetic with debug assertions off.
if grep -qw sha_ni /proc/cpuinfo 2>/dev/null; then
    echo "crypto: this host has sha_ni: sha256() takes the hardware path, the tests cover both"
else
    echo "crypto: this host has no sha_ni: sha256() takes the scalar path, the hardware halves are skipped"
fi
smoke -p bb-crypto sha256
smoke --release -p bb-crypto sha256
if grep -rnw --include='*.rs' unsafe crates | grep -v '^crates/bb-crypto/src/sha256\.rs:'; then
    echo "ERROR: \`unsafe\` outside crates/bb-crypto/src/sha256.rs" >&2
    exit 1
fi

echo "==> state trees: Patricia and Bucket-Merkle known answers, differentials and the WAL frame checksum, test and release profiles"
# A Patricia node's encoding is its only representation and walks read it in
# place (DESIGN.md §6 "Nodes in place"). Roots are inside `results/`, the
# cache and node counts inside the benchmark's `result_digest`: the
# known-answer scripts pin them as literals, the sweep proves a truncated or
# re-tagged stored node is an error and not an out-of-bounds index, and the
# seeded runs compare every written node with the old decoded codec. The
# Bucket-Merkle root is maintained incrementally (DESIGN.md §6 "Incremental
# bucket root"): its known answers pin roots and counts, and the seeded run
# compares it with a full `merkle_root` rebuild after every operation. The
# release runs are the packed-slot and level arithmetic with debug
# assertions off. The WAL tests check that every single-bit flip of a 3-op
# batch frame and every torn prefix of it stop replay at the previous
# record, and pin the checksum's value.
smoke -p bb-merkle patricia
smoke --release -p bb-merkle patricia
smoke -p bb-merkle bucket
smoke --release -p bb-merkle bucket
smoke -p bb-storage wal

echo "==> fault matrix: storage faults + crash-restart recovery smoke"
# The recovery path cuts across every layer (VFS fault injection, WAL
# replay, durable-state reopen, consensus resume, peer catch-up): run the
# fault-focused tests by name so a regression here is called out as such
# rather than drowned in the full suite's output.
smoke -p bb-storage fault
for platform in bb-ethereum bb-parity bb-fabric; do smoke -p "$platform" restart; done
smoke -p bb-bench --test cross_platform restart_recovers
smoke -p bb-bench --test cross_platform crash_during_snapshot_transfer

echo "==> storage matrix: leveled compaction + chunked snapshot sync smoke"
# The leveled compactor must keep its invariants (disjoint L1+, bounded
# per-trigger work, newest-wins) and stay equivalent to a full-compaction
# reference; the deep-gap restart path must close the block gap with a
# chunked snapshot transfer on every platform. Named so regressions in the
# storage write path or the sync protocol are reported as such.
smoke -p bb-storage compact
smoke -p bb-storage snapshot
for platform in bb-ethereum bb-parity bb-fabric; do smoke -p "$platform" deep_gap; done
smoke -p bb-bench --lib fig9_snapshot

echo "==> load matrix: open-loop engine + saturation-ramp smoke"
# The open-loop arrival engine (Poisson arrivals, lazy million-account
# population, CO-free latency, retry queue) and the saturation ramp are the
# offered-load surface of the harness: run them by name so a load-engine
# regression is reported as one. The saturation cell asserts the knee and
# the CO-free tail dominance on all three platforms.
smoke -p blockbench load
smoke -p bb-bench --test open_loop
smoke -p bb-bench --test parallel_determinism open_loop
smoke -p bb-bench --lib saturation_curves
# One signer: closed-loop clients, open-loop accounts, preload lanes and the
# analytics history all sign through `bb_workloads::Population`, whose known
# answers pin the first transaction ids of every signing path.
smoke -p bb-workloads
if git grep -n 'KeyPair::from_seed' -- crates/bb-workloads/src | grep -v '^crates/bb-workloads/src/common\.rs:'; then
    echo "ERROR: a workload derives keys outside bb-workloads' Population (common.rs)" >&2
    exit 1
fi

echo "==> chaos matrix: adversarial scenarios + liveness/safety gates smoke"
# The chaos matrix (DESIGN.md §10) is the adversarial surface of the
# harness: byzantine clients, an equivocating PBFT replica, asymmetric and
# flapping partitions, slow disks and gossip jitter, each cell gated on a
# liveness floor and the cross-node safety checker. Run the plan/actor/
# runner/invariant unit tests, the matrix itself and the pool-pinning
# regression by name so a chaos regression is reported as one.
smoke -p blockbench chaos
smoke -p blockbench timeline
smoke -p blockbench invariant
smoke -p bb-bench --lib exp_chaos
smoke -p bb-bench --test pool_eviction

echo "==> replay: seeded runs repeat byte for byte, and the event order is pinned"
# Every world is single-threaded, so a seed is a complete description of a
# run. The replay cases run each seeded experiment twice in one process
# (driver, open loop, hot-key run, restart, chaos, crash faults) and catch
# what leaks in from outside the seed — `HashMap` order first; the engine's
# event order (one heap on `EventKey`, each handler's sends made as it
# returns — DESIGN.md §5) is pinned by known answers.
smoke -p bb-bench --test parallel_determinism replay
smoke -p bb-sim merge_order
# Known answers: two replay cases also pin the SHA-256 of their run text on
# every platform, so a refactor that moves one event or one RNG draw fails
# here by name. And a metamorphic relation: advancing to the same instant in
# one, two or six steps must leave the same stats, chains and confirmed log.
smoke -p bb-bench --test parallel_determinism run_stats_replay_byte_identical_across_platforms_and_seeds
smoke -p bb-bench --test parallel_determinism restart_and_catchup_replay_identically
smoke -p bb-bench --test cross_platform advancing_in_more_steps_changes_nothing
# Every platform executes each block serially, as geth, Parity and Fabric
# v0.6 do: the hot-key run is a known answer on all three, nothing of the
# optimistic executor's model is back in Fabric's source, and no platform
# calls `AccountState::execute_block` (it stays only as the subject of the
# benchmark's `exec.block32_*` kernels).
smoke -p bb-bench --test cross_platform hot_key_run_is_the_known_answer
if git grep -nE 'speculate_invoke|SpecInvoke|bb_exec' -- crates/bb-fabric/src; then
    echo "ERROR: bb-fabric speculates again; Fabric executes each batch serially" >&2
    exit 1
fi
if git grep -nE '\bexecute_block\(' -- crates ':!crates/bb-ethereum/src/state.rs'; then
    echo "ERROR: a platform runs the optimistic executor; execute blocks serially" >&2
    exit 1
fi
# One account-chain connector: Ethereum and Parity are two `Consensus` impls
# of `bb_ethereum::account_chain::AccountChain`, whose one `impl
# BlockchainConnector` serves both.
connector_impl='impl(<[^>]*>)? +BlockchainConnector +for'
if git grep -nE "$connector_impl" -- crates/bb-parity/src; then
    echo "ERROR: bb-parity has a connector of its own; plug into AccountChain" >&2
    exit 1
fi
if [ "$(git grep -hE "$connector_impl" -- crates/bb-ethereum/src | wc -l)" -gt 1 ]; then
    git grep -nE "$connector_impl" -- crates/bb-ethereum/src
    echo "ERROR: bb-ethereum has more than one BlockchainConnector impl" >&2
    exit 1
fi
# One loop, not two: nothing of the windowed scheduler is left in the crates.
if git grep -nE 'min_next|gen_key|wend' crates/; then
    echo "ERROR: the windowed scheduler's names are back in crates/" >&2
    exit 1
fi
# One per-second runner: fault and chaos experiments go through
# `blockbench::driver::run_timeline` and none rebuilds its own run loop.
if git grep -nE 'confirmed_blocks_since|FaultCursor|fn (timeline|timeline_on|chaos_timeline)\b' -- crates/bb-bench tests/parallel_determinism.rs; then
    echo "ERROR: an experiment drives the chain with its own run loop; use run_timeline" >&2
    exit 1
fi

echo "==> claims: the paper's findings are named checks over tables, and hold over the committed CSVs"
# EXPERIMENTS.md's "Shape: holds" verdicts are `bb_bench::claims` functions
# over `Table`s. The tests build each table once and call its claims; this
# test runs the same claims over `results/*.csv` with no simulation, and the
# doctored-copy test shows a claim can fail. Tables are read through
# `Table::cell`/`Table::value`, never by re-parsing rendered text.
smoke -p bb-bench --test paper_claims claims_hold_over_committed_csvs
smoke -p bb-bench --test paper_claims a_doctored_csv_fails_its_claim
if git grep -n split_whitespace -- crates/bb-bench/src; then
    echo "ERROR: crates/bb-bench/src parses text; read tables with Table::cell" >&2
    exit 1
fi

echo "==> books: Smallbank conserves money on both backends and every platform"
# A Smallbank procedure changes the bank's total only by its
# `smallbank::net_deposit`. The contract tests check that on the SVM and
# native builds side by side; the platform test runs the workload on all
# three platforms and checks that the accounts on every replica hold the
# opening float plus the net of every committed transaction.
smoke -p bb-contracts smallbank
smoke -p bb-bench --test cross_platform smallbank_books

echo "==> quickstart: README's first command runs, and it is the only example"
# Experiments run through `figures`; `examples/` holds the one program
# README starts with, and nothing else.
cargo run -q --release --offline -p bb-bench --example quickstart
if [ "$(ls examples)" != "quickstart.rs" ]; then
    echo "ERROR: examples/ holds more than quickstart.rs: $(ls examples | tr '\n' ' ')" >&2
    exit 1
fi
if [ "$(grep -c '^\[\[example\]\]' crates/bb-bench/Cargo.toml)" != 1 ]; then
    echo "ERROR: crates/bb-bench/Cargo.toml declares more than one [[example]]" >&2
    exit 1
fi

echo "==> figures: an unknown figure name is a usage error, not a silent no-op"
status=0; ./target/release/figures nosuchfig 2>/dev/null || status=$?
if [ "$status" -ne 2 ]; then
    echo "ERROR: \`figures nosuchfig\` exited $status, expected 2" >&2
    exit 1
fi

echo "==> benchmark: builds against the crates and passes its own checks (smoke scale)"
bash benchmark/run.sh --smoke | tail -n 1

echo "==> no warnings: every target of the workspace checks clean (offline)"
# Cargo replays cached warnings, so a warm tree still reports them.
warnings=$(cargo check -q --offline --workspace --all-targets 2>&1) || { echo "$warnings"; exit 1; }
if grep -q '^warning' <<<"$warnings"; then
    echo "$warnings"
    echo "ERROR: \`cargo check --workspace --all-targets\` printed warnings" >&2
    exit 1
fi

echo "==> clippy: every target of the workspace lints clean (offline)"
cargo clippy -q --offline --workspace --all-targets -- -D warnings

echo "==> one performance ruler: the benchmark's layer kernels, no second bench harness"
# Component-wise numbers come from `benchmark/src/adapter.rs` alone, and
# with no feature the zero-warnings step above checks every target there
# is. `crates/criterion` stays empty: it exists only for the edge
# `benchmark/Cargo.lock` pins.
if git grep -n '^\[features\]' -- 'crates/*/Cargo.toml'; then
    echo "ERROR: a crate manifest has a [features] table" >&2
    exit 1
fi
if [ -e crates/bb-bench/benches ]; then
    echo "ERROR: crates/bb-bench/benches is back" >&2
    exit 1
fi
if grep -nvE '^[[:space:]]*(//.*)?$' crates/criterion/src/lib.rs; then
    echo "ERROR: crates/criterion/src/lib.rs defines an item" >&2
    exit 1
fi

echo "==> one property-test mechanism: seeded #[test]s, nothing behind a feature"
# The in-tree `proptest` shim is gone and stays gone, and no test hides
# behind a Cargo feature that no gate turns on.
if git grep -n proptest -- crates Cargo.toml Cargo.lock; then
    echo "ERROR: \`proptest\` is back in the workspace" >&2
    exit 1
fi
if git grep -nE 'cfg\(.*feature' -- 'crates/*.rs'; then
    echo "ERROR: feature-gated code in crates/" >&2
    exit 1
fi

echo "==> hermeticity: no crates.io packages in any manifest"
if grep -rn 'rand' crates/*/Cargo.toml; then
    echo "ERROR: external RNG dependency crept back into a manifest" >&2
    exit 1
fi
if awk '/\[workspace.dependencies\]/{f=1;next} /^\[/{f=0} f && !/^[[:space:]]*#/ && /=/ && !/path[[:space:]]*=/' Cargo.toml | grep .; then
    echo "ERROR: non-path (registry) dependency in [workspace.dependencies]" >&2
    exit 1
fi

echo "verify: OK"
