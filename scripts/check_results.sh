#!/usr/bin/env bash
# Refactor gate: every committed results/*.csv must be exactly what the
# current tree produces.
#
# The figures are deterministic virtual-time outputs, so a change that is
# meant to keep behaviour (a refactor, a wall-clock optimisation) must
# leave every byte of them alone. This regenerates all of them with
# `figures all` and fails if any tracked CSV changed or a CSV appeared
# that is not tracked. A change that is *meant* to move a figure commits
# the new CSV and says which and why in CHANGES.md; the paper's claims
# (`bb_bench::claims`) must still hold over whatever it commits, so they run
# over the regenerated CSVs before the comparison. `figures --paper` writes
# to results/paper/, which is outside this gate (`:(glob)` keeps `*` from
# crossing a `/`).
#
# Not part of tier-1: ~2 min on a 2-core host (`figures all` 96-99 s, with
# every closed-loop figure a view of one cell set run in one scatter, plus a
# warm release build).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> check_results: release build (offline)"
cargo build --release --offline

echo "==> check_results: figures all"
./target/release/figures all > /dev/null

echo "==> check_results: the paper's claims hold over the CSVs"
cargo test -q --offline -p bb-bench --test paper_claims claims_hold_over_committed_csvs

echo "==> check_results: committed CSVs unchanged"
if ! git diff --exit-code --stat -- ':(glob)results/*.csv'; then
    echo "ERROR: regenerated results/*.csv differ from the committed files" >&2
    exit 1
fi
untracked=$(git ls-files --others --exclude-standard -- ':(glob)results/*.csv')
if [ -n "$untracked" ]; then
    echo "ERROR: figures all wrote CSVs that are not committed:" >&2
    echo "$untracked" >&2
    exit 1
fi

echo "check_results: OK"
