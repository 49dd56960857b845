//! Empty on purpose: this crate defines nothing.
//!
//! Wall-clock performance, end to end and per layer, is measured by
//! `benchmark/` alone (its layer kernels live in `benchmark/src/adapter.rs`).
//! The crate exists only because `benchmark/Cargo.lock` pins the
//! `bb-bench -> criterion` dependency edge, and that lockfile changes only
//! together with the benchmark. The next change to the benchmark deletes
//! this crate and `bb-bench`'s `criterion` line together.
