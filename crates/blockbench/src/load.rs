//! Open-loop arrival generation: one arrival-process generator replaces the
//! per-client timer vector.
//!
//! The paper's driver is closed-loop — a fixed pool of clients, each on its
//! own timer (8–1024 tx/s sweeps, Figures 5–6). Production traffic is
//! open-loop: requests arrive from a huge population on a schedule that does
//! not care whether earlier requests finished. This module models that as a
//! single Poisson arrival process — constant-rate, memoryless traffic —
//! emitting `(send_time, account_id)` events in O(1) per event, independent
//! of population size: each gap is a unit exponential quantum `E = -ln(U)`
//! divided by the rate, with no thinning and no per-tick loop.

use bb_sim::rng::Zipfian;
use bb_sim::{SimDuration, SimRng, SimTime};
use bb_types::AccountId;

/// The offered-load schedule, in aggregate transactions/second. Times are
/// measured from the start of the measured window.
#[derive(Debug, Clone)]
pub enum ArrivalProcess {
    /// Constant-rate Poisson traffic: independent exponential inter-arrivals
    /// with mean `1/rate`.
    Poisson {
        /// Aggregate arrival rate, tx/s. Must be positive.
        rate: f64,
    },
}

impl ArrivalProcess {
    /// Panic with a clear message on nonsensical parameters.
    pub fn validate(&self) {
        let ArrivalProcess::Poisson { rate } = *self;
        assert!(rate > 0.0 && rate.is_finite(), "Poisson rate must be positive");
    }

    /// Advance `elapsed` (seconds) by one arrival: consume the unit
    /// exponential quantum `e` at the process's rate.
    fn advance(&self, elapsed: f64, e: f64) -> f64 {
        let ArrivalProcess::Poisson { rate } = *self;
        elapsed + e / rate
    }
}

/// How the generator picks *which* account sends each transaction.
fn account_sampler(population: u64, zipf_theta: f64) -> Option<Zipfian> {
    assert!(population > 0, "population must be non-empty");
    if zipf_theta > 0.0 {
        // O(population) once, at construction — acceptable for skewed runs,
        // and uniform runs (theta = 0) skip it entirely so million-account
        // setups stay O(1).
        Some(Zipfian::new(population, zipf_theta))
    } else {
        None
    }
}

/// The open-loop event generator: an infinite, deterministic stream of
/// `(send_time, account)` arrivals. One forked [`SimRng`] drives both the
/// inter-arrival draws and the account choices, so a seed pins the entire
/// offered-load schedule independent of what the platform does with it.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    population: u64,
    zipf: Option<Zipfian>,
    rng: SimRng,
    t0: SimTime,
    /// Seconds elapsed since `t0` at the last emitted event (exact f64 clock;
    /// emitted `SimTime`s round to the microsecond grid).
    elapsed: f64,
}

impl ArrivalGen {
    /// A generator whose first event follows `t0`.
    pub fn new(
        process: ArrivalProcess,
        population: u64,
        zipf_theta: f64,
        t0: SimTime,
        seed: u64,
    ) -> ArrivalGen {
        process.validate();
        ArrivalGen {
            zipf: account_sampler(population, zipf_theta),
            process,
            population,
            rng: SimRng::seed_from_u64(seed),
            t0,
            elapsed: 0.0,
        }
    }

    /// Draw the next arrival. O(1); never exhausts.
    pub fn next_event(&mut self) -> (SimTime, AccountId) {
        // Unit exponential quantum; u ∈ (0, 1] keeps ln finite.
        let e = -(1.0 - self.rng.unit()).ln();
        self.elapsed = self.process.advance(self.elapsed, e);
        let account = match &self.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => self.rng.below(self.population),
        };
        (self.t0 + SimDuration::from_secs_f64(self.elapsed), AccountId(account))
    }

    /// Number of distinct accounts in the population.
    pub fn population(&self) -> u64 {
        self.population
    }
}

/// Configuration for one open-loop run ([`crate::driver::run_open_loop`]).
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Distinct accounts in the sending population. Keys and nonces are
    /// materialised lazily by the workload (`Population`), so this can be in
    /// the millions without O(population) setup cost.
    pub population: u64,
    /// The offered-load schedule.
    pub process: ArrivalProcess,
    /// Zipfian skew over account choice (0.0 = uniform; 0.99 = YCSB-hot).
    pub zipf_theta: f64,
    /// Measured window length.
    pub duration: SimDuration,
    /// Poll cadence for `getLatestBlock(h)`.
    pub poll_interval: SimDuration,
    /// Extra polling time after the window to harvest late commits.
    pub drain: SimDuration,
    /// Delay before re-submitting an RPC-rejected transaction. Retries keep
    /// the original *intended* send time, which is what makes the reported
    /// `latencies_intended` coordinated-omission-free.
    pub retry_backoff: SimDuration,
    /// Seed for the arrival generator (independent of the platform seed).
    pub seed: u64,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            population: 1_000_000,
            process: ArrivalProcess::Poisson { rate: 1000.0 },
            zipf_theta: 0.0,
            duration: SimDuration::from_secs(60),
            poll_interval: SimDuration::from_millis(500),
            drain: SimDuration::from_secs(30),
            retry_backoff: SimDuration::from_millis(250),
            seed: 0x0B10,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaps(gen: &mut ArrivalGen, n: usize) -> Vec<f64> {
        let mut prev = 0.0;
        (0..n)
            .map(|_| {
                gen.next_event();
                let g = gen.elapsed - prev;
                prev = gen.elapsed;
                g
            })
            .collect()
    }

    /// Seeded KAT: Poisson inter-arrivals have mean 1/λ and coefficient of
    /// variation 1 (the memoryless signature evenly spaced sends would not
    /// have).
    #[test]
    fn poisson_mean_and_variance_kat() {
        let mut gen =
            ArrivalGen::new(ArrivalProcess::Poisson { rate: 1000.0 }, 1_000_000, 0.0, SimTime::ZERO, 42);
        let gs = gaps(&mut gen, 100_000);
        let mean = gs.iter().sum::<f64>() / gs.len() as f64;
        let var = gs.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gs.len() as f64;
        assert!((mean - 1e-3).abs() < 1e-5, "mean gap {mean}");
        let cv2 = var / (mean * mean);
        assert!((cv2 - 1.0).abs() < 0.05, "squared CV {cv2}");
    }

    #[test]
    fn streams_are_deterministic_across_reruns() {
        let mk = |seed| {
            ArrivalGen::new(
                ArrivalProcess::Poisson { rate: 500.0 },
                1 << 20,
                0.99,
                SimTime::from_secs(5),
                seed,
            )
        };
        let (mut a, mut b, mut c) = (mk(9), mk(9), mk(10));
        let sa: Vec<_> = (0..1000).map(|_| a.next_event()).collect();
        let sb: Vec<_> = (0..1000).map(|_| b.next_event()).collect();
        let sc: Vec<_> = (0..1000).map(|_| c.next_event()).collect();
        assert_eq!(sa, sb, "same seed must give an identical event stream");
        assert_ne!(sa, sc, "different seeds must differ");
        // Times are non-decreasing and offset by t0.
        assert!(sa[0].0 >= SimTime::from_secs(5));
        assert!(sa.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn million_account_generator_is_population_oblivious() {
        // Uniform account choice over a million-account population: setup
        // does no O(population) work, and draws cover the id space.
        let mut gen = ArrivalGen::new(
            ArrivalProcess::Poisson { rate: 10_000.0 },
            1_000_000,
            0.0,
            SimTime::ZERO,
            1,
        );
        let ids: Vec<u64> = (0..4096).map(|_| gen.next_event().1.index()).collect();
        assert!(ids.iter().all(|&a| a < 1_000_000));
        assert!(ids.iter().any(|&a| a > 500_000), "draws never reached the top half");
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert!(distinct.len() > 4000, "uniform draws should rarely collide");
    }

    #[test]
    fn zipf_theta_skews_account_choice() {
        let mut gen =
            ArrivalGen::new(ArrivalProcess::Poisson { rate: 100.0 }, 100_000, 0.99, SimTime::ZERO, 2);
        let hot = (0..2000).filter(|_| gen.next_event().1.index() < 1000).count();
        assert!(hot > 600, "hottest 1% of accounts drew only {hot}/2000");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        ArrivalProcess::Poisson { rate: 0.0 }.validate();
    }
}
