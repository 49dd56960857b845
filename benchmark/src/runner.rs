//! The parent side: run every (workload, repetition) in a fresh child process
//! of this executable, strictly one at a time, guard determinism, and fold
//! the children's records into medians.

use crate::json::Json;
use crate::record::Record;
use crate::spec::{self, WorkloadSpec, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// How much to run per workload.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    /// Nominal wall seconds of one measured run (scales the simulated windows).
    pub seconds: f64,
    /// Timed repetitions.
    pub reps: usize,
    /// Extra set-up-only children; `None` takes the workload's own count.
    pub setup_reps: Option<usize>,
    /// Also make one traced run.
    pub traced: bool,
}

pub struct Runner {
    pub exe: PathBuf,
    pub out_dir: PathBuf,
}

/// One workload's folded result.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub name: &'static str,
    /// Median, extremes and count per end-to-end metric, in `END_TO_END` order.
    pub end_to_end: Vec<(&'static str, Summary)>,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub result_digest: String,
    /// Exact counts of the first repetition, plus the traced run's layer
    /// metrics and `trace.overhead_pct` when the plan asked for one.
    pub per_layer: Vec<(String, f64)>,
    /// Failed correctness checks of any child.
    pub failures: Vec<String>,
}

impl Runner {
    /// Run this executable as `bench child <args>` with every `BB_*` variable
    /// removed — the defaults users get — wait for it, and parse the JSON
    /// record on the last line of its standard output.
    fn child(&self, args: &[&str]) -> Result<Json, String> {
        let mut command = Command::new(&self.exe);
        command
            .arg("child")
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("BB_") {
                command.env_remove(key);
            }
        }
        let output = command
            .output()
            .map_err(|e| format!("cannot start {}: {e}", self.exe.display()))?;
        if !output.status.success() {
            return Err(format!("child {args:?} ended with {}", output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("");
        Json::parse(last).map_err(|e| format!("child {args:?} printed no record: {e}"))
    }

    fn measure(&self, workload: &str, plan: &Plan, mode: &str) -> Result<Record, String> {
        let (seed, seconds) = (plan.seed.to_string(), plan.seconds.to_string());
        let out_dir = self.out_dir.display().to_string();
        let args = [
            "--workload",
            workload,
            "--seed",
            &seed,
            "--seconds",
            &seconds,
            "--mode",
            mode,
            "--out-dir",
            &out_dir,
        ];
        Record::from_json(&self.child(&args)?)
    }

    /// The layer kernels, each timed for about `budget_ms`.
    pub fn kernels(&self, budget_ms: u64) -> Result<Vec<(String, f64)>, String> {
        let doc = self.child(&["--kernels", &budget_ms.to_string()])?;
        doc.members()
            .iter()
            .map(|(name, v)| {
                v.as_f64()
                    .map(|v| (name.clone(), v))
                    .ok_or(format!("kernel {name:?} is not a number"))
            })
            .collect()
    }

    /// Run one workload as `plan` says. Errors are harness failures and
    /// determinism violations — reported before any timing is; failed
    /// correctness checks come back inside the result.
    pub fn workload(&self, spec: &WorkloadSpec, plan: &Plan) -> Result<WorkloadResult, String> {
        let mut setup_samples = Vec::new();
        for _ in 0..plan.setup_reps.unwrap_or(spec.setup_reps) {
            setup_samples.push(self.measure(spec.name, plan, "setup")?.setup_s);
        }

        let mut reps: Vec<Record> = Vec::new();
        for rep in 0..plan.reps.max(1) {
            let record = self.measure(spec.name, plan, "plain")?;
            if let Some(first) = reps.first() {
                let this = format!("repetition {}", rep + 1);
                same_digest(
                    spec.name,
                    "repetition 1",
                    &first.result_digest,
                    &this,
                    &record.result_digest,
                )?;
            }
            reps.push(record);
        }
        let first = &reps[0];
        let mut per_layer = first.layers.clone();
        let mut failures: Vec<String> = reps.iter().flat_map(|r| r.failures.clone()).collect();

        let column = |f: fn(&Record) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
        setup_samples.extend(column(|r| r.setup_s));
        let end_to_end = vec![
            ("wall_s", Summary::of(&column(|r| r.wall_s))),
            ("cpu_s", Summary::of(&column(|r| r.cpu_s))),
            ("peak_rss_mb", Summary::of(&column(|r| r.peak_rss_mb))),
            ("setup_s", Summary::of(&setup_samples)),
        ];

        if plan.traced {
            let traced = self.measure(spec.name, plan, "traced")?;
            same_digest(
                spec.name,
                "untraced run",
                &first.result_digest,
                "traced run",
                &traced.result_digest,
            )?;
            let untraced_wall = end_to_end[0].1.median;
            per_layer = traced.layers.clone();
            per_layer.push((
                "trace.overhead_pct".into(),
                (traced.wall_s - untraced_wall) / untraced_wall * 100.0,
            ));
            failures.extend(traced.failures);
        }
        Ok(WorkloadResult {
            name: spec.name,
            end_to_end,
            ops_attempted: first.ops_attempted,
            ops_failed: first.ops_failed,
            result_digest: first.result_digest.clone(),
            per_layer,
            failures,
        })
    }
}

/// The determinism guard: same inputs, same model outputs, traced or not.
fn same_digest(workload: &str, a_name: &str, a: &str, b_name: &str, b: &str) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!(
            "{workload}: result_digest differs — the run is not deterministic, or tracing perturbed it\n  {a_name}: {a}\n  {b_name}: {b}"
        ))
    }
}

/// Print one workload's metrics by name, with units.
pub fn print_workload(result: &WorkloadResult) {
    println!("{}", result.name);
    for (metric, (name, s)) in END_TO_END.iter().zip(&result.end_to_end) {
        println!(
            "  {name:<34} {:>16.4} {:<6} {} is better, bound {:.0}% (min {:.4} max {:.4} n {})",
            s.median,
            metric.unit,
            metric.better.as_str(),
            metric.bound * 100.0,
            s.min,
            s.max,
            s.n
        );
    }
    println!("  {:<34} {:>16}", "ops_attempted", result.ops_attempted);
    println!("  {:<34} {:>16}", "ops_failed", result.ops_failed);
    println!("  {:<34} {}", "result_digest", result.result_digest);
    print_layers(&result.per_layer);
    for failure in &result.failures {
        println!("  FAILED {failure}");
    }
}

pub fn print_layers(layers: &[(String, f64)]) {
    for (name, value) in layers {
        let (unit, better) =
            spec::per_layer(name).map_or(("", ""), |m| (m.unit, m.better.as_str()));
        println!("  {name:<34} {value:>16.4} {unit:<6} {better} is better");
    }
}

/// The contract's result line for one run of one workload: every end-to-end
/// metric (`trace` off) or every per-layer metric (`trace` on).
pub fn contract_line(
    result: &WorkloadResult,
    kernels: Option<&[(String, f64)]>,
) -> Result<Json, String> {
    let metric = |value: f64, unit: &str| {
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
    };
    let metrics: Vec<(String, Json)> = match kernels {
        None => END_TO_END
            .iter()
            .zip(&result.end_to_end)
            .map(|(m, (_, s))| (m.name.to_string(), metric(s.median, m.unit)))
            .collect(),
        Some(kernels) => PER_LAYER
            .iter()
            .map(|m| {
                result
                    .per_layer
                    .iter()
                    .chain(kernels)
                    .find(|(name, _)| name == m.name)
                    .map(|(_, v)| (m.name.to_string(), metric(*v, m.unit)))
                    .ok_or(format!(
                        "{}: no value for per-layer metric {}",
                        result.name, m.name
                    ))
            })
            .collect::<Result<_, _>>()?,
    };
    Ok(Json::obj([
        ("correct", Json::Bool(result.failures.is_empty())),
        ("attempted", Json::Num(result.ops_attempted as f64)),
        ("failed", Json::Num(result.ops_failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// `result.json`: what `bench compare` reads.
pub fn result_file(
    identity: Vec<(String, Json)>,
    results: &[WorkloadResult],
    kernels: &[(String, f64)],
) -> Json {
    let numbers =
        |pairs: &[(String, f64)]| Json::obj(pairs.iter().map(|(n, v)| (n.clone(), Json::Num(*v))));
    Json::obj([
        ("identity", Json::Obj(identity)),
        // The benchmark measures; it claims nothing.
        ("claim", Json::Null),
        (
            "workloads",
            Json::obj(results.iter().map(|r| {
                (
                    r.name,
                    Json::obj([
                        (
                            "end_to_end",
                            Json::obj(r.end_to_end.iter().map(|(name, s)| {
                                (
                                    *name,
                                    Json::obj([
                                        ("median", Json::Num(s.median)),
                                        ("min", Json::Num(s.min)),
                                        ("max", Json::Num(s.max)),
                                        ("n", Json::Num(s.n as f64)),
                                        (
                                            "unit",
                                            Json::str(
                                                spec::end_to_end(name).map_or("", |m| m.unit),
                                            ),
                                        ),
                                    ]),
                                )
                            })),
                        ),
                        ("ops_attempted", Json::Num(r.ops_attempted as f64)),
                        ("ops_failed", Json::Num(r.ops_failed as f64)),
                        ("result_digest", Json::str(&r.result_digest)),
                        ("per_layer", numbers(&r.per_layer)),
                        (
                            "failures",
                            Json::Arr(r.failures.iter().map(Json::str).collect()),
                        ),
                    ]),
                )
            })),
        ),
        ("kernels", numbers(kernels)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> WorkloadResult {
        WorkloadResult {
            name: "eth_ycsb_peak",
            end_to_end: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, m)| (m.name, Summary::of(&[1.5 + i as f64])))
                .collect(),
            ops_attempted: 100,
            ops_failed: 3,
            result_digest: "d1".into(),
            per_layer: PER_LAYER
                .iter()
                .take(55)
                .map(|m| (m.name.to_string(), 2.0))
                .collect(),
            failures: vec![],
        }
    }

    #[test]
    fn digest_guard_prints_both_sides() {
        assert!(same_digest("w", "a", "x", "b", "x").is_ok());
        let err = same_digest("w", "repetition 1", "aaa", "repetition 2", "bbb").unwrap_err();
        assert!(
            err.contains("repetition 1: aaa") && err.contains("repetition 2: bbb"),
            "{err}"
        );
    }

    #[test]
    fn contract_line_carries_exactly_the_declared_metrics() {
        let end_to_end = contract_line(&result(), None).unwrap();
        let keys: Vec<&str> = end_to_end
            .members()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<&str> = end_to_end
            .get("metrics")
            .unwrap()
            .members()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, ["wall_s", "cpu_s", "peak_rss_mb", "setup_s"]);
        assert_eq!(end_to_end.get("correct"), Some(&Json::Bool(true)));
        let setup = end_to_end.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(
            (
                setup.get("value").unwrap().as_f64(),
                setup.get("unit").unwrap().as_str()
            ),
            (Some(4.5), Some("s"))
        );

        let kernels: Vec<(String, f64)> = PER_LAYER
            .iter()
            .skip(55)
            .map(|m| (m.name.to_string(), 7.0))
            .collect();
        let layered = contract_line(&result(), Some(&kernels)).unwrap();
        assert_eq!(
            layered.get("metrics").unwrap().members().len(),
            PER_LAYER.len()
        );
        // A missing layer metric is a harness bug, not a silent zero.
        assert!(contract_line(&result(), Some(&kernels[1..])).is_err());
    }

    #[test]
    fn failed_checks_make_the_line_incorrect() {
        let mut r = result();
        r.failures.push("boom".into());
        assert_eq!(
            contract_line(&r, None).unwrap().get("correct"),
            Some(&Json::Bool(false))
        );
    }

    #[test]
    fn result_file_parses_back_with_a_null_claim() {
        let doc = result_file(
            vec![("seed".into(), Json::Num(42.0))],
            &[result()],
            &[("net.send_ns".into(), 31.5)],
        );
        let back = Json::parse(&doc.render_pretty()).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("claim"), Some(&Json::Null));
        let wall = back
            .get("workloads")
            .unwrap()
            .get("eth_ycsb_peak")
            .unwrap()
            .get("end_to_end")
            .unwrap()
            .get("wall_s")
            .unwrap();
        assert_eq!(wall.get("median").unwrap().as_f64(), Some(1.5));
    }
}
