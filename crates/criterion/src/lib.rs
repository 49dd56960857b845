//! An in-tree, dependency-free stand-in for the `criterion` crate.
//!
//! The workspace builds offline from a cold checkout (see `DESIGN.md`,
//! "Hermeticity"), so the real Criterion cannot be a dependency. This shim
//! implements the API surface the `bb-bench` benches use — `Criterion`,
//! benchmark groups, `Throughput`, `black_box`, `criterion_group!` /
//! `criterion_main!` — with a calibrated wall-clock timer: each benchmark is
//! warmed up briefly, then timed as a series of equal batches filling a
//! fixed measurement budget, and the per-iteration mean, median and MAD
//! (median absolute deviation) are reported. The median is the robust
//! headline number; the MAD is its noise floor.
//!
//! It intentionally does **not** do Criterion's full statistical analysis,
//! HTML reports or regression detection; numbers printed here are
//! indicative only. Benches are additionally feature-gated (`bench`) so
//! tier-1 test runs never build them.

use std::time::{Duration, Instant};

/// Opaque value barrier: prevents the optimiser from deleting benchmark
/// bodies.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Unit the benchmark's throughput is reported in.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// Number of timing batches a measurement is split into; each batch yields
/// one per-iteration sample, so median/MAD are computed over this many
/// observations.
pub const SAMPLE_BATCHES: usize = 15;

/// Robust summary of repeated per-iteration timings (nanoseconds).
#[derive(Debug, Clone, Copy)]
pub struct SampleStats {
    /// Arithmetic mean over all iterations (total time / total iters).
    pub mean_ns: f64,
    /// Median of the per-batch means — robust to a slow outlier batch.
    pub median_ns: f64,
    /// Median absolute deviation of the per-batch means around the median;
    /// the measurement's noise floor.
    pub mad_ns: f64,
    /// Total iterations across all batches.
    pub iters: u64,
}

/// Summarize per-batch `(elapsed, iters)` timings into mean/median/MAD.
pub fn summarize(batches: &[(Duration, u64)]) -> Option<SampleStats> {
    if batches.is_empty() {
        return None;
    }
    let total: Duration = batches.iter().map(|(d, _)| *d).sum();
    let iters: u64 = batches.iter().map(|(_, n)| *n).sum();
    let mut per_iter: Vec<f64> =
        batches.iter().map(|(d, n)| d.as_nanos() as f64 / (*n).max(1) as f64).collect();
    let median = median_of(&mut per_iter);
    let mut deviations: Vec<f64> = per_iter.iter().map(|s| (s - median).abs()).collect();
    let mad = median_of(&mut deviations);
    Some(SampleStats {
        mean_ns: total.as_nanos() as f64 / iters.max(1) as f64,
        median_ns: median,
        mad_ns: mad,
        iters,
    })
}

fn median_of(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    iters_hint: u64,
    /// Per-batch (elapsed, iterations) of the measured phase.
    measured: Vec<(Duration, u64)>,
}

impl Bencher {
    /// Run `body` repeatedly, recording [`SAMPLE_BATCHES`] timing batches.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut body: F) {
        // Warm-up: run once to touch caches and estimate per-iter cost.
        let warm_start = Instant::now();
        black_box(body());
        let per_iter = warm_start.elapsed().max(Duration::from_nanos(1));

        // Aim for ~100 ms of total measurement split into equal batches,
        // capped by the sample-size hint so cluster-scale simulation benches
        // stay tractable.
        let budget = Duration::from_millis(100);
        let total_iters =
            (budget.as_nanos() / per_iter.as_nanos()).clamp(1, self.iters_hint as u128) as u64;
        let per_batch = (total_iters / SAMPLE_BATCHES as u64).max(1);

        self.measured.clear();
        let mut remaining = total_iters;
        while remaining > 0 {
            let n = per_batch.min(remaining);
            let start = Instant::now();
            for _ in 0..n {
                black_box(body());
            }
            self.measured.push((start.elapsed(), n));
            remaining -= n;
        }
    }
}

/// Top-level benchmark registry.
pub struct Criterion {
    sample_size: u64,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 100 }
    }
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            throughput: None,
            _parent: self,
        }
    }

    /// Run a single benchmark outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl Into<String>,
        f: F,
    ) -> &mut Self {
        run_one(&name.into(), self.sample_size, None, f);
        self
    }
}

/// A named group sharing throughput/sample-size settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: u64,
    throughput: Option<Throughput>,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Label subsequent benchmarks with a throughput unit.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Cap the number of measured iterations (Criterion's sample count is
    /// reinterpreted as an iteration cap here).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1) as u64;
        self
    }

    /// Run one benchmark inside the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl Into<String>,
        f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, name.into());
        run_one(&full, self.sample_size, self.throughput, f);
        self
    }

    /// End the group (present for API compatibility).
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(name: &str, sample_size: u64, tp: Option<Throughput>, mut f: F) {
    let mut b = Bencher { iters_hint: sample_size.max(1) * 100, measured: Vec::new() };
    f(&mut b);
    let Some(stats) = summarize(&b.measured) else {
        println!("{name:<40} (no measurement: closure never called iter)");
        return;
    };
    let rate = tp.map(|t| match t {
        Throughput::Bytes(n) => {
            format!("  {:>10.1} MiB/s", n as f64 / stats.median_ns * 1e9 / (1 << 20) as f64)
        }
        Throughput::Elements(n) => format!("  {:>10.1} elem/s", n as f64 / stats.median_ns * 1e9),
    });
    println!(
        "{name:<40} {:>12.0} ns/iter ±{:.0} ({} iters){}",
        stats.median_ns,
        stats.mad_ns,
        stats.iters,
        rate.unwrap_or_default()
    );
}

/// Group benchmark functions under a callable name.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Emit `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_and_reports() {
        let mut c = Criterion::default();
        let mut calls = 0u64;
        {
            let mut g = c.benchmark_group("shim");
            g.sample_size(10);
            g.throughput(Throughput::Bytes(64));
            g.bench_function("counts", |b| {
                b.iter(|| {
                    calls += 1;
                    black_box(calls)
                })
            });
            g.finish();
        }
        assert!(calls > 0, "benchmark body never ran");
    }

    #[test]
    fn black_box_is_identity() {
        assert_eq!(black_box(41) + 1, 42);
    }

    #[test]
    fn summarize_is_robust_to_outlier_batches() {
        // 14 batches at 100 ns/iter, one pathological batch at 10 µs/iter
        // (e.g. a GC-style stall): the median and MAD shrug it off, the mean
        // does not.
        let batches: Vec<(Duration, u64)> = (0..15)
            .map(|i| {
                let per_iter_ns: u64 = if i == 14 { 10_000 } else { 100 };
                (Duration::from_nanos(per_iter_ns * 10), 10)
            })
            .collect();
        let s = summarize(&batches).unwrap();
        assert_eq!(s.median_ns, 100.0);
        assert_eq!(s.mad_ns, 0.0);
        assert!(s.mean_ns > 500.0, "mean {} should be dragged up", s.mean_ns);
        assert_eq!(s.iters, 150);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn summarize_even_count_interpolates() {
        let batches =
            vec![(Duration::from_nanos(100), 1), (Duration::from_nanos(200), 1)];
        let s = summarize(&batches).unwrap();
        assert_eq!(s.median_ns, 150.0);
        assert_eq!(s.mad_ns, 50.0);
    }
}
