#!/usr/bin/env bash
# The repo's benchmark, one command.
#
#   benchmark/run.sh                      every workload, its traced run and the
#                                         layer kernels; prints each metric by name
#                                         with its unit, writes out/result.json
#   benchmark/run.sh --smoke              the same in well under a minute, for CI
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one workload, one JSON result line last
#                                         (the form BENCHMARK.json's driver uses)
#   benchmark/run.sh compare A.json B.json
#
# Builds the `bench` package offline in release mode first. It is a package of
# its own (own [workspace], own Cargo.lock) with path dependencies on
# ../crates/*, built into the repo's target directory unless CARGO_TARGET_DIR
# says otherwise, so nothing outside benchmark/ changes.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target}"
mkdir -p "$target"
target="$(cd "$target" && pwd)"

# Cargo's progress goes to stderr; stdout stays the benchmark's own.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

# Users' defaults: no BB_* knob reaches the measured processes. (The runner
# strips them from every child again, for callers that skip this script.)
for knob in $(compgen -e | grep '^BB_' || true); do
    unset "$knob"
done

bench="$target/release/bench"
for arg in "$@"; do
    if [ "$arg" = --workload ]; then
        exec "$bench" "$@" --out-dir "$here/out"
    fi
done
case "${1:-all}" in
    compare)
        exec "$bench" "$@"
        ;;
    all | --*)
        [ "${1:-}" = all ] && shift
        sha="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
        [ -z "$(git -C "$here" status --porcelain 2>/dev/null)" ] || sha="$sha-dirty"
        exec "$bench" all "$@" --out-dir "$here/out" \
            --id "git_sha=$sha" \
            --id "date=$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
            --id "rustc=$(rustc --version)"
        ;;
    *)
        echo "run.sh: unknown command $1 (try: --smoke, --workload W ..., compare A B)" >&2
        exit 2
        ;;
esac
