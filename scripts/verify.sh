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

# The sections below name the tests that pin each property. A filter that
# matches no test passes silently (tests move and get renamed with their
# code), so a selection that matches none is an error.
#
# `listed` checks a test-profile selection against `cargo test -- --list`
# without running it again: the suite run below already ran every test of
# the test profile once.
listed() {
    local out
    out=$(cargo test -q --offline "$@" -- --list 2>&1) || { echo "$out"; return 1; }
    if ! grep -q ': test$' <<<"$out"; then
        echo "ERROR: selection matches no test: cargo test $*" >&2
        return 1
    fi
    echo "listed: cargo test $* ($(grep -c ': test$' <<<"$out") tests)"
}

# `smoke` runs a selection in another profile (`--release`: debug assertions
# off), which the suite run does not cover; a selection that runs zero tests
# is an error.
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
listed -p bb-types id
listed -p bb-types --doc
listed -p bb-consensus request
listed -p bb-consensus message_sizes
# One request allocation per transaction: every Fabric peer's block holds the
# same `Arc<Transaction>` (DESIGN.md §4 "Replicas may share any immutable value").
listed -p bb-fabric identical_chains

echo "==> twins: set-up runs once per chain, every other node starts as a copy on its own disk"
# DESIGN.md §4 "Replicas may start as copies": a copied store is a second
# disk, a trie forked mid-script lands on the unforked known answers, and on
# each platform the copied nodes are node 0's twins, restart from their own
# disks, and a preload onto a diverged node is refused.
listed -p bb-storage second_disk
listed -p bb-merkle fork_in_the_middle
for platform in bb-ethereum bb-parity bb-fabric; do
    listed -p "$platform" twin
    listed -p "$platform" preload_refuses
done
# Sealed files are held once per world (DESIGN.md §4 "Replicas may share any
# immutable value"): the disks of one lineage share a file written whole
# with the same bytes, an unrelated disk never does, a fault on one side
# copies first, and the pool empties with its last holder. On Fabric every
# peer's tables are node 0's allocations. The pool is `bb-storage`'s own: no
# type of it leaves `vfs.rs`.
listed -p bb-storage sealed
listed -p bb-fabric twin_replicas_hold_each_sealed_table_once
if git grep -n 'Pool' -- crates/bb-storage/src/lib.rs ||
    git grep -nE '^[[:space:]]*pub(\([a-z]+\))? .*Pool' -- crates/bb-storage/src ':!crates/bb-storage/src/vfs.rs' ||
    git grep -nE '^[[:space:]]*pub .*\bPool\b' -- crates/bb-storage/src/vfs.rs; then
    echo "ERROR: bb-storage exports its sealed-file pool; it stays private to vfs.rs" >&2
    exit 1
fi

echo "==> once per world: a committed Fabric batch or an Ethereum block runs on one replica, the others install its outcome"
# DESIGN.md §8 "Executed once per world": every peer after the first
# installs a batch's cached outcome, a slowed disk's peer always runs the
# batch, and a replay older than the cache runs it. Every Ethereum
# validator after the first installs a block's trie delta; one whose cache
# a crash emptied runs it, as does one replaying a block older than the
# cache, and every validator runs a block at a deploy height; a slowed
# disk installs and ends where running ends. In the test profile a hit
# also runs the block and asserts the outcome; the release run is the one
# where a hit installs instead. Both caches are one `bb_sim::RecentOutcomes`
# each: Fabric's stays private to `bb-fabric`'s chain.rs and only
# `execute_batch_txs` reads it; the account chains' is opaque outside
# `bb-ethereum`'s node.rs and only `execute_and_seal` reads it.
listed -p bb-merkle block_delta_installs_like_running_the_block_seeded
smoke --release -p bb-merkle block_delta_installs_like_running_the_block_seeded
listed -p bb-merkle trie_delta_installs_like_running_the_block_seeded
smoke --release -p bb-merkle trie_delta_installs_like_running_the_block_seeded
listed -p bb-fabric outcome_of_a_batch
smoke --release -p bb-fabric outcome_of_a_batch
listed -p bb-ethereum outcome_of_a_block
smoke --release -p bb-ethereum outcome_of_a_block
listed -p bb-ethereum events_stay_within_48_bytes
listed -p bb-parity events_stay_within_48_bytes
if git grep -nE '\b(BlockOutcomes|BlockOutcome|OutcomeKey)\b' -- crates/bb-ethereum/src/lib.rs ||
    git grep -nE '^[[:space:]]*pub(\([a-z]+\))? .*\b(BlockOutcome|OutcomeKey|RecentOutcomes)\b' -- crates/bb-ethereum/src crates/bb-parity/src ||
    git grep -nE '^[[:space:]]*pub(\([a-z]+\))? +(recent|fn +(find|keep))\b' -- crates/bb-ethereum/src/node.rs ||
    git grep -nE '\.outcomes\(\)' -- crates ':!crates/bb-ethereum/src/node.rs'; then
    echo "ERROR: bb-ethereum leaks its block-outcome cache; it stays opaque outside node.rs" >&2
    exit 1
fi
readers=$(awk '/^#\[cfg\(test\)\]/ { exit }
    match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
    /\.recent\.|\.outcomes\(\)/ { print fn }' crates/bb-ethereum/src/node.rs | sort -u)
if [ "$readers" != execute_and_seal ]; then
    echo "ERROR: the block-outcome cache is read outside execute_and_seal (in: ${readers:-nothing})" >&2
    exit 1
fi
if git grep -nE '\b(Outcomes|BatchOutcome|BatchKey|OUTCOMES_KEPT)\b' -- crates/bb-fabric/src/lib.rs ||
    git grep -nE '^[[:space:]]*pub(\([a-z]+\))? .*\b(Outcomes|BatchOutcome|BatchKey)\b' -- crates/bb-fabric/src ||
    git grep -nE '\.outcomes\b' -- crates/bb-fabric/src ':!crates/bb-fabric/src/chain.rs'; then
    echo "ERROR: bb-fabric exports its batch-outcome cache; it stays private to chain.rs" >&2
    exit 1
fi
readers=$(awk '/^#\[cfg\(test\)\]/ { exit }
    match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
    /\.outcomes([^a-z_0-9]|$)/ { print fn }' crates/bb-fabric/src/chain.rs | sort -u)
if [ "$readers" != execute_batch_txs ]; then
    echo "ERROR: the batch-outcome cache is read outside execute_batch_txs (in: ${readers:-nothing})" >&2
    exit 1
fi

echo "==> one batch per world: one allocation, one digest and one Merkle root per committed PBFT batch"
# DESIGN.md §4 "Identities" and §8 "Executed once per world": a
# `pbft::Batch` hashes its digest once, in `From<Vec<Request>>`, and every
# copy is a refcount bump; `awaiting` is a digest-keyed hash map that only
# `lowest_awaiting` walks, in the digest order `results/` pins; a batch
# outcome's delta carries the bucket-tree levels it rewrote, so an
# installing peer hashes nothing. The levels install in place in both
# profiles; the release run is the one where a hit installs the outcome.
listed -p bb-consensus lowest_awaiting_walks_in_digest_order_seeded
smoke --release -p bb-consensus lowest_awaiting_walks_in_digest_order_seeded
listed -p bb-merkle block_delta_carries_the_rewritten_levels_seeded
smoke --release -p bb-merkle block_delta_carries_the_rewritten_levels_seeded
listed -p bb-fabric events_stay_within_72_bytes
smoke --release -p bb-fabric events_stay_within_72_bytes
hashers=$(awk '/^#\[cfg\(test\)\]/ { exit }
    /^impl/ { impl = $0 }
    match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
    /batch_digest\(/ && !/^[[:space:]]*\/\/|fn batch_digest\(|debug_assert/ &&
        !(fn == "from" && impl ~ /From<Vec<Request>> for Batch/) { print NR ": " $0 }' \
    crates/bb-consensus/src/pbft.rs)
if [ -n "$hashers" ] || git grep -n 'batch_digest(' -- crates ':!crates/bb-consensus/src/pbft.rs'; then
    echo "${hashers}"
    echo "ERROR: a batch is re-hashed outside Batch::from and its debug assertion" >&2
    exit 1
fi
walkers=$(awk '/^#\[cfg\(test\)\]/ { exit }
    match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
    /\.awaiting\.(values|values_mut|iter|iter_mut|keys|drain|into_iter)\(|in &(mut )?self\.awaiting/ { print fn }' \
    crates/bb-consensus/src/pbft.rs | sort -u)
if [ "$walkers" != lowest_awaiting ]; then
    echo "ERROR: \`awaiting\` is walked outside lowest_awaiting (in: ${walkers:-nothing})" >&2
    exit 1
fi

echo "==> one transaction table: every platform's replicas keep bitsets over the world's dense indices"
# DESIGN.md §4 "What stays per node": a transaction gets its index once, in
# the world's `bb_types::TxTable`, when it enters the world at a server's
# RPC (`Consensus::admit` on Ethereum and Parity, `FabricChain::submit` on
# Fabric) or in a set-up preload; a replica's `seen`, pool and executed set
# are bitsets and vectors over those indices, never digest-keyed tables of
# ids. The tests: one entry (and one pool entry, or one execution) for a
# transaction submitted twice, a restarted Parity authority on the world's
# index space, a restarted Ethereum node refusing its recovered (preloaded
# included) transactions, a restarted Fabric peer recovering a live peer's
# executed bits, and the bitset's edges.
for crate in bb-types bb-ethereum bb-parity bb-fabric; do
    listed -p "$crate" tx_table
    smoke --release -p "$crate" tx_table
done
tables=$(for f in $(git ls-files 'crates/bb-ethereum/src/*.rs' 'crates/bb-parity/src/*.rs' \
    'crates/bb-fabric/src/*.rs'); do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
        /Digest(Set|Map)<([a-z_0-9]+::)*TxId([^A-Za-z_0-9]|$)/ { print f ":" NR ": " $0 }' "$f"
done)
if [ -n "$tables" ]; then
    echo "$tables"
    echo "ERROR: a replica keeps a digest-keyed table of transaction ids; index the world's TxTable" >&2
    exit 1
fi
interners=$(for f in $(git ls-files 'crates/*.rs'); do
    awk '/^#\[cfg\(test\)\]/ { exit }
        match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
        /\.intern\(/ { print fn }' "$f"
done | sort -u | tr '\n' ' ')
if [ "$interners" != "admit preload_blocks submit " ]; then
    echo "ERROR: the transaction table is written outside admit, submit and preload_blocks (in: ${interners:-nothing})" >&2
    exit 1
fi

echo "==> one engine queue: 32-byte keys in the heap, events in a slab, a send's event built as it is sent"
# DESIGN.md §5 "The event order": the heap orders `(key, lane, slot)`
# entries and the events wait in a slab whose freed slots are reused; a send
# builds its event at once and the outbox holds it, no box. The order is
# the one `merge_order` pins by value. A log reset keeps its buffer: `create`
# empties an open file in place.
listed -p bb-sim merge_order
smoke --release -p bb-sim merge_order
listed -p bb-sim slab_reuses_freed_slots
smoke --release -p bb-sim slab_reuses_freed_slots
listed -p bb-sim heap_entries_stay_within_32_bytes
smoke --release -p bb-sim heap_entries_stay_within_32_bytes
listed -p bb-storage create_empties_an_open_file_in_place
smoke --release -p bb-storage create_empties_an_open_file_in_place
boxed=$(awk '/^#\[cfg\(test\)\]/ { exit }
    /Box<dyn FnOnce|Entry</ { print NR ": " $0 }' crates/bb-sim/src/shard.rs)
if [ -n "$boxed" ]; then
    echo "$boxed"
    echo "ERROR: the engine boxes a send or carries events in its heap entries" >&2
    exit 1
fi

echo "==> one copy per stored byte: shared bytes from the trie and bucket overlays into the memtable, WAL frames written in place"
# DESIGN.md §6 "Storage write path": a `WriteBatch` holds `Arc<[u8]>`s, the
# memtable takes them as they are, and `Wal::log_batch` serialises the batch
# straight into the log file through `Vfs::append_with`, the one append
# path. A flushed Patricia node is one allocation shared by the batch, the
# node cache and a recorded delta; a bucket tree's overlay shares its values
# with its block deltas and its seal's batch. The frame's bytes are pinned
# by value (`checksum_known_answer`), and an in-place append tears under a
# capacity as a copying one does.
for t in checksum_known_answer capacity_tears_overflowing_writes \
    apply_batch_moves_shared_bytes_into_the_memtable; do
    listed -p bb-storage "$t"
    smoke --release -p bb-storage "$t"
done
for t in seal_shares_each_flushed_node_with_cache_delta_and_installer \
    installed_block_delta_shares_the_runners_values; do
    listed -p bb-merkle "$t"
    smoke --release -p bb-merkle "$t"
done
copied=$(awk '/^#\[cfg\(test\)\]/ { exit } /to_vec\(\)/ { print NR ": " $0 }' \
    crates/bb-storage/src/lsm/memtable.rs)
if [ -n "$copied" ]; then
    echo "$copied"
    echo "ERROR: the memtable copies bytes it could share" >&2
    exit 1
fi
staged=$(awk '/^    pub fn log_batch/ { body = 1 } body && /Vec::|vec!|to_vec|\.append\(/ { print NR ": " $0 }
    body && /^    }$/ { exit }' crates/bb-storage/src/lsm/wal.rs)
if [ -n "$staged" ] || ! grep -q '^    pub fn log_batch' crates/bb-storage/src/lsm/wal.rs; then
    echo "$staged"
    echo "ERROR: Wal::log_batch stages the frame in a buffer instead of writing it in place" >&2
    exit 1
fi
borrowed=$(for f in crates/bb-merkle/src/*.rs; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } /batch\.put\(&/ { print f ":" NR ": " $0 }' "$f"
done)
if [ -n "$borrowed" ]; then
    echo "$borrowed"
    echo "ERROR: a state tree copies bytes into its batch instead of sharing them" >&2
    exit 1
fi

echo "==> one frame per world: replicas that install a batch append the first replica's WAL frame and store its block record"
# DESIGN.md §6 "Storage write path": a `WriteBatch` may share a `FrameSlot`
# with the byte-equal batches of other replicas. The first LSM store to log
# one frames it in place and fills the slot; the others append the slot's
# bytes through `Vfs::append`. Fabric's batch outcome carries the slot and
# the `!b/` record the first peer built, reused only on an equal header and
# floor; an Ethereum `TrieDelta` carries the runner's slot. Debug builds
# re-frame every shared frame and re-encode every shared record. The tests
# run in both profiles: the release run takes the paths the debug asserts
# do not watch.
for t in shared_frame_lands_like_a_framed_one encoded_filter_known_answer; do
    listed -p bb-storage "$t"
    smoke --release -p bb-storage "$t"
done
listed -p bb-merkle seal_shares_its_frame_slot_with_the_installer
smoke --release -p bb-merkle seal_shares_its_frame_slot_with_the_installer
listed -p bb-fabric sealed_block_of_a_batch
smoke --release -p bb-fabric sealed_block_of_a_batch
listed -p bb-ethereum installed_block_appends_the_runners_wal_frame
smoke --release -p bb-ethereum installed_block_appends_the_runners_wal_frame
# Lines above FILE's test module that call NAME( outside the functions
# listed after it (the definition `fn NAME(` aside).
calls_outside() {
    local file=$1 name=$2
    shift 2
    awk -v name="$name" -v allowed=" $* " '
        /^#\[cfg\(test\)\]/ { exit }
        $0 ~ /^[ \t]*(pub[^ ]* )?fn / && match($0, /fn [a-z_0-9]+/) {
            fn = substr($0, RSTART + 3, RLENGTH - 3)
        }
        index($0, name "(") && !index($0, "fn " name "(") && !index(allowed, " " fn " ") {
            print FILENAME ":" NR ": " $0
        }' "$file"
}
resealed=$(calls_outside crates/bb-fabric/src/chain.rs block_meta_record append_block
    calls_outside crates/bb-ethereum/src/chain.rs block_meta_record seal
    calls_outside crates/bb-storage/src/lsm/wal.rs checksum write_frame parse_one)
if [ -n "$resealed" ]; then
    echo "$resealed"
    echo "ERROR: a block record or a WAL checksum is built outside its one sealing site" >&2
    exit 1
fi

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
listed -p bb-crypto sha256
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
listed -p bb-merkle patricia
smoke --release -p bb-merkle patricia
# The dirty/clean split (DESIGN.md §6 "Dirty-node arena, hashed lazily"): a
# block's uncommitted nodes live in the arena and are never cache traffic,
# the cache holds committed nodes only and a refused commit adds none.
# Named so that a rename cannot drop it from the selection above
# unnoticed; so is the seeded run that compares the lazily hashed root with
# a trie built afresh after every insert, remove, rewind, clone, commit,
# refused commit and crash.
listed -p bb-merkle uncommitted_nodes
smoke --release -p bb-merkle uncommitted_nodes
listed -p bb-merkle lazy_root_matches_a_fresh_build_seeded
smoke --release -p bb-merkle lazy_root_matches_a_fresh_build_seeded
# A Patricia node is hashed in one function, `hash_filled`, which `root`
# reaches (and `put`, under debug assertions only, for the eager-hash
# cross-check), so an eager hash cannot creep back into `insert`. The test
# modules, from the first `#[cfg(test)]` on, are exempt.
hashers=$(awk '/^#\[cfg\(test\)\]/ { exit }
    match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
    /Hash256::digest/ { print fn }' crates/bb-merkle/src/patricia.rs | sort -u)
if [ "$hashers" != hash_filled ]; then
    echo "ERROR: Hash256::digest in patricia.rs outside hash_filled (in: ${hashers:-nothing})" >&2
    exit 1
fi
listed -p bb-merkle bucket
smoke --release -p bb-merkle bucket
listed -p bb-storage wal

echo "==> fault matrix: storage faults + crash-restart recovery smoke"
# The recovery path cuts across every layer (VFS fault injection, WAL
# replay, durable-state reopen, consensus resume, peer catch-up): name the
# fault-focused tests so that a rename cannot drop one from the suite
# unnoticed.
listed -p bb-storage fault
for platform in bb-ethereum bb-parity bb-fabric; do listed -p "$platform" restart; done
listed -p bb-bench --test cross_platform restart_recovers
listed -p bb-bench --test cross_platform crash_during_snapshot_transfer_does_not_wedge_the_node
listed -p bb-bench --test cross_platform restart_preserves_every_node_counter
listed -p bb-bench --test cross_platform restart_with_no_live_peer_comes_back_at_its_durable_prefix
# A Fabric peer restarting behind a peer that itself restarted transfers
# state instead of taking a checkpoint jump over batches it never executed.
listed -p bb-bench --test cross_platform fabric_restart_behind_a_restarted_peer_skips_no_batch
listed -p bb-bench --test parallel_determinism snapshot_timeline
# A restart after a crash tore a snapshot transfer transfers afresh, and
# restarting one miner redraws no other miner's race.
for platform in bb-ethereum bb-fabric; do
    listed -p "$platform" restart_after_a_torn_transfer_transfers_afresh
done
listed -p bb-ethereum restart_reenters_only_the_restarted_node
# One account-chain recovery path: the snapshot transfer is `SyncMsg`
# traffic handled by `ChainNode::on_sync`, and crash and restart run in
# `AccountChain::inject`. Neither consensus keeps a copy.
if git grep -nE 'Snapshot(Request|Chunk)|Chain(Request|Chunk)|fn restart_node' -- \
    crates/bb-ethereum/src/chain.rs crates/bb-parity/src/chain.rs; then
    echo "ERROR: an account-chain consensus runs its own transfer or restart; use ChainNode and AccountChain" >&2
    exit 1
fi
# One way back from a crash: `Restart`. No gentle revive, and no
# crash-time bookkeeping or per-platform knob for one.
if git grep -nE 'Recover\(|TORN_TRANSFER_RESTARTS|transfer_torn|fn revive' -- crates; then
    echo "ERROR: a second way back from a crash is back; Restart is the only one" >&2
    exit 1
fi
# One recovery path for a Fabric peer: a restart and a snapshot transfer's
# landing both run `FabNode::reopen`, over the one `FabricState::reopen`,
# and `Ledger::recover` is the one chain book.
if git grep -nE 'rebuild_keeping_chaincodes|ChainBook|rebuild_chain_from_state' -- crates/bb-fabric/src; then
    echo "ERROR: Fabric has a second reopen or chain book; use FabNode::reopen and Ledger::recover" >&2
    exit 1
fi
opens=$(for f in crates/bb-fabric/src/*.rs; do
    awk '/#\[cfg\(test\)\]/ { exit } /LsmStore::open\(/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)
if [ "$(grep -c . <<<"$opens")" -gt 1 ]; then
    echo "$opens"
    echo "ERROR: Fabric opens its LSM store in more than one place; FabricState::reopen is the one" >&2
    exit 1
fi

echo "==> storage matrix: leveled compaction + chunked snapshot sync smoke"
# The leveled compactor must keep its invariants (disjoint L1+, bounded
# per-trigger work, newest-wins) and stay equivalent to a full-compaction
# reference; the deep-gap restart path must close the block gap with a
# chunked snapshot transfer on every platform. Named so regressions in the
# storage write path or the sync protocol are reported as such.
listed -p bb-storage compact
listed -p bb-storage snapshot
# One chunk reader: `KvStore::scan_range_chunk`, implemented by every engine
# (the LSM's stream equals MemStore's over random ops, cursors and bounds).
# A consistent view across chunks is a frozen `clone` of the store: no LSM
# snapshot pins, no deferred deletions, no platform hook that reads chunks.
listed -p bb-storage scan_range_chunk_matches_memstore_seeded
listed -p bb-storage frozen_copy_streams_a_consistent_snapshot
if git grep -nwE 'snapshot_open|snapshot_close|SnapshotPin|deferred_deletes|fn state_chunk' -- crates; then
    echo "ERROR: a second chunk reader is back; read chunks with KvStore::scan_range_chunk, from a frozen clone where the view must hold still" >&2
    exit 1
fi
# A Parity transfer serves and lands one height: the first state chunk
# names the peer's head, and the chain transfer stops there.
listed -p bb-bench --test cross_platform parity_snapshot_restart_lands_on_its_peers_state

echo "==> one write path: a batch is the only store write and the only WAL record"
# DESIGN.md §6 "Storage write path": `KvStore::apply_batch` is the only
# write (a single write is a one-op `WriteBatch`), the WAL's one record is
# the batch frame, and both scans of a store read through its one range
# routine (the LSM's prefix scans equal MemStore's in the seeded test above).
listed -p bb-storage behaves_like_btreemap_seeded
listed -p bb-storage batch_wal_overhead_is_one_record
single=$(awk '/^pub trait KvStore/ { body = 1 } body && /fn (put|delete)[ (<]/ { print FILENAME ":" NR ": " $0 }
    body && /^}/ { exit }' crates/bb-storage/src/kv.rs)
tags=$(grep -nE '^[[:space:]]*(pub(\([a-z]+\))? )?const TAG_' crates/bb-storage/src/lsm/wal.rs | grep -v 'const TAG_BATCH:' || true)
if [ -n "$single$tags" ] || ! grep -q '^pub trait KvStore' crates/bb-storage/src/kv.rs ||
    ! grep -q '^const TAG_BATCH:' crates/bb-storage/src/lsm/wal.rs; then
    echo "$single$tags"
    echo "ERROR: a single-op store write or a second WAL record kind is back; write a one-op WriteBatch" >&2
    exit 1
fi
for platform in bb-ethereum bb-parity bb-fabric; do listed -p "$platform" deep_gap; done
listed -p bb-bench --lib fig9_snapshot

echo "==> load matrix: open-loop engine + saturation-ramp smoke"
# The open-loop arrival engine (Poisson arrivals, lazy million-account
# population, CO-free latency, retry queue) and the saturation ramp are the
# offered-load surface of the harness: name their tests so that a rename
# cannot drop one unnoticed. The saturation cell asserts the knee and the
# CO-free tail dominance on all three platforms.
listed -p blockbench load
listed -p bb-bench --test open_loop
listed -p bb-bench --test parallel_determinism open_loop
listed -p bb-bench --lib saturation_curves
# One signer: closed-loop clients, open-loop accounts, preload lanes and the
# analytics history all sign through `bb_workloads::Population`, whose known
# answers pin the first transaction ids of every signing path.
listed -p bb-workloads
if git grep -n 'KeyPair::from_seed' -- crates/bb-workloads/src | grep -v '^crates/bb-workloads/src/common\.rs:'; then
    echo "ERROR: a workload derives keys outside bb-workloads' Population (common.rs)" >&2
    exit 1
fi

echo "==> chaos matrix: adversarial scenarios + liveness/safety gates smoke"
# The chaos matrix (DESIGN.md §10) is the adversarial surface of the
# harness: byzantine clients, an equivocating PBFT replica, asymmetric and
# flapping partitions, slow disks and gossip jitter, each cell gated on a
# liveness floor and the cross-node safety checker. Name the plan/actor/
# runner/invariant unit tests, the matrix itself and the pool-pinning
# regression so that a rename cannot drop one unnoticed.
listed -p blockbench chaos
listed -p blockbench timeline
listed -p blockbench invariant
listed -p bb-bench --lib exp_chaos
listed -p bb-bench --test pool_eviction

echo "==> replay: seeded runs repeat byte for byte, and the event order is pinned"
# Every world is single-threaded, so a seed is a complete description of a
# run. The replay cases run each seeded experiment twice in one process
# (driver, open loop, hot-key run, restart, chaos, crash faults) and catch
# what leaks in from outside the seed — `HashMap` order first; the engine's
# event order (one heap on `EventKey`, each handler's sends made as it
# returns — DESIGN.md §5) is pinned by known answers.
listed -p bb-bench --test parallel_determinism replay
listed -p bb-sim merge_order
# Known answers: two replay cases also pin the SHA-256 of their run text on
# every platform, so a refactor that moves one event or one RNG draw fails
# here by name. And a metamorphic relation: advancing to the same instant in
# one, two or six steps must leave the same stats, chains and confirmed log.
listed -p bb-bench --test parallel_determinism run_stats_replay_byte_identical_across_platforms_and_seeds
listed -p bb-bench --test parallel_determinism restart_and_catchup_replay_identically
listed -p bb-bench --test cross_platform advancing_in_more_steps_changes_nothing
# Every platform executes each block serially, as geth, Parity and Fabric
# v0.6 do: the hot-key run is a known answer on all three, nothing of the
# optimistic executor's model is back in Fabric's source, and no platform
# calls `AccountState::execute_block` (it stays only as the subject of the
# benchmark's `exec.block32_*` kernels).
listed -p bb-bench --test cross_platform hot_key_run_is_the_known_answer
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
listed -p bb-bench --test paper_claims claims_hold_over_committed_csvs
listed -p bb-bench --test paper_claims a_doctored_csv_fails_its_claim
if git grep -n split_whitespace -- crates/bb-bench/src; then
    echo "ERROR: crates/bb-bench/src parses text; read tables with Table::cell" >&2
    exit 1
fi

echo "==> one cell set: every closed-loop figure reads one MacroCells, every ablation cell runs in a scatter"
# Figures 5–8, 13c, 14 and 16–19 are views of one `exp_macro::MacroCells`,
# keyed by servers × clients: `figures` runs the union of the wanted grids
# once, in one scatter, and Figure 5's sweep reads only its 8×8 cells. The
# ablations scatter their cells through `map_cells_hinted` too. So the
# scalability module stays gone, `MacroCells::run` is the one non-test
# caller of `run_macro` in bb-bench, and no ablation cell runs (`ycsb_tps`)
# and no ablation constant is looped over outside a `map_cells_hinted` call.
listed -p bb-bench --lib macro_figures_share_their_cells
listed -p bb-bench --lib eight_by_eight_views_ignore_other_sizes
if [ -e crates/bb-bench/src/exp_scale.rs ]; then
    echo "ERROR: crates/bb-bench/src/exp_scale.rs is back; scalability figures are views of MacroCells" >&2
    exit 1
fi
callers=$(find crates/bb-bench/src -name '*.rs' | sort | while read -r f; do
    awk '/^#\[cfg\(test\)\]/ { exit }
        /^impl/ { impl = $2 "::" } /^}/ { impl = "" }
        match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
        /run_macro\(/ && !/fn run_macro\(|^[[:space:]]*\/\// { print FILENAME ": " impl fn }' "$f"
done | sort -u)
if [ "$callers" != "crates/bb-bench/src/exp_macro.rs: MacroCells::run" ]; then
    echo "${callers}"
    echo "ERROR: run_macro has a non-test caller besides MacroCells::run; add the cells to a grid" >&2
    exit 1
fi
loose=$(awk '/^#\[cfg\(test\)\]/ { exit }
    /map_cells_hinted\(/ { inside = 1; depth = 0 }
    inside { depth += gsub(/\(/, "(") - gsub(/\)/, ")"); if (depth <= 0) inside = 0; next }
    /(^|[^a-z_])for .* in .*(CHANNEL_CAPACITIES|SIZE_EXPONENTS|SIGN_COSTS_MS)/ ||
        (/ycsb_tps\(/ && !/fn ycsb_tps\(/) { print FNR ": " $0 }' crates/bb-bench/src/exp_ablation.rs)
if [ -n "$loose" ]; then
    echo "${loose}"
    echo "ERROR: an ablation cell runs outside a map_cells_hinted scatter" >&2
    exit 1
fi

echo "==> books: Smallbank conserves money on both backends and every platform"
# A Smallbank procedure changes the bank's total only by its
# `smallbank::net_deposit`. The contract tests check that on the SVM and
# native builds side by side; the platform test runs the workload on all
# three platforms and checks that the accounts on every replica hold the
# opening float plus the net of every committed transaction.
listed -p bb-contracts smallbank
listed -p bb-bench --test cross_platform smallbank_books

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
