//! `bench` — the repo's wall-clock benchmark. See README.md beside Cargo.toml.
//!
//! ```text
//! bench --workload W --seed N --seconds S --trace 0|1 [--reps R]   one workload, one result line
//! bench all [--seed N] [--seconds S] [--reps R] [--smoke] [--id k=v]...   the whole scoreboard
//! bench compare A.json B.json                                      is B worse than A?
//! ```
//! Both run forms take `--out-dir DIR` (default `benchmark/out`).

mod adapter;
mod compare;
mod host;
mod json;
mod record;
mod runner;
mod spec;
mod stats;
mod trace;

use adapter::Mode;
use json::Json;
use runner::{Plan, Runner};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Wall milliseconds per layer kernel.
const KERNEL_BUDGET_MS: u64 = 200;

/// `--smoke`: every simulated window a tenth of its calibrated length.
const SMOKE_SECONDS: f64 = 1.0;

/// `--key value` pairs and bare words, in order. `--smoke` takes no value.
struct Args {
    options: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            options: Vec::new(),
            words: Vec::new(),
        };
        let mut args = args;
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => parsed.options.push(("smoke".into(), String::new())),
                Some(key) => {
                    let value = args.next().ok_or(format!("--{key} needs a value"))?;
                    parsed.options.push((key.to_string(), value));
                }
                None => parsed.words.push(arg),
            }
        }
        Ok(parsed)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{key} {text}: not a valid number")),
        }
    }

    fn seconds(&self, default: f64) -> Result<f64, String> {
        let seconds = self.number("seconds", default)?;
        if seconds.is_finite() && seconds > 0.0 {
            Ok(seconds)
        } else {
            Err(format!("--seconds {seconds}: must be positive"))
        }
    }

    fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.get("out-dir").unwrap_or("benchmark/out"))
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => return usage(&e),
    };
    let outcome = match args.words.first().map(String::as_str) {
        Some("child") => child(&args, started),
        Some("compare") => compare_files(&args),
        Some("all") => all(&args),
        None if args.get("workload").is_some() => one(&args),
        _ => return usage("expected --workload, all, or compare"),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage(error: &str) -> ExitCode {
    eprintln!("bench: {error}");
    eprintln!(
        "usage: bench --workload W --seed N --seconds S --trace 0|1 [--reps R] [--out-dir DIR]"
    );
    eprintln!("       bench all [--seed N] [--seconds S] [--reps R] [--smoke] [--id k=v]... [--out-dir DIR]");
    eprintln!("       bench compare A.json B.json");
    eprintln!("workloads:");
    for workload in &spec::WORKLOADS {
        eprintln!("  {:<18} {}", workload.name, workload.why);
    }
    ExitCode::from(2)
}

fn runner(args: &Args) -> Result<Runner, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    Ok(Runner {
        exe,
        out_dir: args.out_dir(),
    })
}

/// One process, one run: what the runner starts for every repetition.
fn child(args: &Args, started: Instant) -> Result<bool, String> {
    let line = if args.get("kernels").is_some() {
        let budget = Duration::from_millis(args.number("kernels", KERNEL_BUDGET_MS)?);
        Json::obj(
            adapter::kernels(budget)
                .into_iter()
                .map(|(name, v)| (name, Json::Num(v))),
        )
    } else {
        let workload = args.get("workload").ok_or("child needs --workload")?;
        spec::workload(workload).ok_or(format!("unknown workload {workload}"))?;
        let mode = match args.get("mode") {
            Some("plain") => Mode::Plain,
            Some("traced") => Mode::Traced,
            Some("setup") => Mode::SetupOnly,
            other => {
                return Err(format!(
                    "child needs --mode plain|traced|setup, got {other:?}"
                ))
            }
        };
        let seed = args.number("seed", spec::DEFAULT_SEED)?;
        let seconds = args.seconds(spec::NOMINAL_SECONDS)?;
        record::measure(workload, seed, seconds, mode, &args.out_dir(), started)?.to_json()
    };
    println!("{}", line.render());
    Ok(true)
}

/// The contract's form: one workload, one result line last on stdout.
fn one(args: &Args) -> Result<bool, String> {
    let name = args.get("workload").expect("checked by main");
    let workload = spec::workload(name).ok_or(format!("unknown workload {name}"))?;
    let trace = match args.get("trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let plan = Plan {
        seed: args.number("seed", spec::DEFAULT_SEED)?,
        seconds: args.seconds(spec::NOMINAL_SECONDS)?,
        reps: args.number("reps", 1)?,
        // The traced form reports no set-up time: skip the extra samples.
        setup_reps: trace.then_some(0),
        traced: trace,
    };
    let runner = runner(args)?;
    let result = runner.workload(workload, &plan)?;
    let kernels = if trace {
        Some(runner.kernels(KERNEL_BUDGET_MS)?)
    } else {
        None
    };
    runner::print_workload(&result);
    if let Some(kernels) = &kernels {
        runner::print_layers(kernels);
    }
    println!(
        "{}",
        runner::contract_line(&result, kernels.as_deref())?.render()
    );
    Ok(result.failures.is_empty())
}

/// Every workload, its traced run and the kernels; writes `result.json`.
fn all(args: &Args) -> Result<bool, String> {
    let smoke = args.get("smoke").is_some();
    let plan = Plan {
        seed: args.number("seed", spec::DEFAULT_SEED)?,
        seconds: args.seconds(if smoke {
            SMOKE_SECONDS
        } else {
            spec::NOMINAL_SECONDS
        })?,
        reps: args.number("reps", if smoke { 1 } else { 3 })?,
        setup_reps: smoke.then_some(0),
        traced: true,
    };
    let runner = runner(args)?;
    let mut results = Vec::new();
    for workload in &spec::WORKLOADS {
        let result = runner.workload(workload, &plan)?;
        runner::print_workload(&result);
        results.push(result);
    }
    let kernels = runner.kernels(if smoke {
        KERNEL_BUDGET_MS / 5
    } else {
        KERNEL_BUDGET_MS
    })?;
    println!("kernels");
    runner::print_layers(&kernels);

    let mut identity: Vec<(String, Json)> = args
        .options
        .iter()
        .filter(|(key, _)| key == "id")
        .filter_map(|(_, pair)| pair.split_once('='))
        .map(|(key, value)| (key.to_string(), Json::str(value)))
        .collect();
    identity.extend([
        ("nproc".to_string(), Json::Num(host::nproc() as f64)),
        ("seed".to_string(), Json::Num(plan.seed as f64)),
        ("seconds".to_string(), Json::Num(plan.seconds)),
        ("reps".to_string(), Json::Num(plan.reps as f64)),
    ]);
    let path = runner.out_dir.join("result.json");
    std::fs::create_dir_all(&runner.out_dir)
        .and_then(|()| {
            std::fs::write(
                &path,
                runner::result_file(identity, &results, &kernels).render_pretty(),
            )
        })
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(results.iter().all(|r| r.failures.is_empty()))
}

fn compare_files(args: &Args) -> Result<bool, String> {
    let [_, a, b] = args.words.as_slice() else {
        return Err("compare needs exactly two result files".into());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (report, ok) = compare::compare(&read(a)?, &read(b)?);
    print!("{report}");
    Ok(ok)
}
