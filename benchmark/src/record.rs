//! What one child process measures and how it hands it to the runner: a
//! [`Record`], printed as one line of JSON on the child's standard output.

use crate::adapter::{self, Mode, Outcome};
use crate::json::Json;
use crate::spec::NOMINAL_SECONDS;
use crate::trace::{self, Op, OpStats, Profile};
use std::path::Path;
use std::time::Instant;

/// One run of one workload in one process.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub result_digest: String,
    /// Exact model counts and, after a traced run, the span-derived layer
    /// metrics, by name.
    pub layers: Vec<(String, f64)>,
    pub failures: Vec<String>,
}

impl Record {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("setup_s", Json::Num(self.setup_s)),
            ("wall_s", Json::Num(self.wall_s)),
            ("cpu_s", Json::Num(self.cpu_s)),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            ("ops_attempted", Json::Num(self.ops_attempted as f64)),
            ("ops_failed", Json::Num(self.ops_failed as f64)),
            ("result_digest", Json::str(&self.result_digest)),
            (
                "layers",
                Json::obj(self.layers.iter().map(|(n, v)| (n.clone(), Json::Num(*v)))),
            ),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<Record, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("record lacks number {key:?}"))
        };
        Ok(Record {
            setup_s: num("setup_s")?,
            wall_s: num("wall_s")?,
            cpu_s: num("cpu_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            ops_attempted: num("ops_attempted")? as u64,
            ops_failed: num("ops_failed")? as u64,
            result_digest: doc
                .get("result_digest")
                .and_then(Json::as_str)
                .ok_or("record lacks result_digest")?
                .to_string(),
            layers: doc
                .get("layers")
                .ok_or("record lacks layers")?
                .members()
                .iter()
                .map(|(name, v)| {
                    v.as_f64()
                        .map(|v| (name.clone(), v))
                        .ok_or_else(|| format!("layer {name:?} is not a number"))
                })
                .collect::<Result<_, _>>()?,
            failures: doc
                .get("failures")
                .ok_or("record lacks failures")?
                .elements()
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
        })
    }
}

/// Run `workload` once in this process. A traced run also writes
/// `trace_<workload>.json` under `out_dir`.
pub fn measure(
    workload: &str,
    seed: u64,
    seconds: f64,
    mode: Mode,
    out_dir: &Path,
    started: Instant,
) -> Result<Record, String> {
    let outcome = adapter::run(workload, seed, seconds / NOMINAL_SECONDS, mode, started);
    let mut layers: Vec<(String, f64)> = outcome
        .counts
        .iter()
        .map(|&(name, v)| (name.to_string(), v))
        .collect();
    if mode != Mode::SetupOnly {
        layers.extend(scatter_layers(&outcome));
    }
    if let Some(cells) = &outcome.traces {
        let profile = trace::profile(cells);
        layers.extend(span_layers(&profile, outcome.count("model.committed")));
        let path = out_dir.join(format!("trace_{workload}.json"));
        std::fs::create_dir_all(out_dir)
            .and_then(|()| {
                std::fs::write(
                    &path,
                    trace_file(workload, seed, cells.len(), &profile).render_pretty(),
                )
            })
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(Record {
        setup_s: outcome.setup_s,
        wall_s: outcome.wall_s,
        cpu_s: outcome.cpu_s,
        peak_rss_mb: outcome.peak_rss_mb,
        ops_attempted: outcome.ops_attempted,
        ops_failed: outcome.ops_failed,
        result_digest: outcome.result_digest,
        layers,
        failures: outcome.failures,
    })
}

/// `bench.*`: how the cells of the run filled the worker threads.
fn scatter_layers(outcome: &Outcome) -> Vec<(String, f64)> {
    let sum: f64 = outcome.cell_walls.iter().sum();
    let max = outcome.cell_walls.iter().copied().fold(0.0, f64::max);
    vec![
        ("bench.cells".into(), outcome.cell_walls.len() as f64),
        ("bench.cell_wall_sum_s".into(), sum),
        ("bench.cell_wall_max_s".into(), max),
        (
            "bench.scatter_efficiency".into(),
            sum / (outcome.wall_s * outcome.workers as f64),
        ),
    ]
}

/// The span-derived layer metrics. Only driver-issued calls count, so that
/// with `driver.self_s` they add up to the run.
fn span_layers(profile: &Profile, committed: f64) -> Vec<(String, f64)> {
    let s = |ns: u64| ns as f64 / 1e9;
    let generated = [Op::NextTransaction, Op::NextTransactionKeyed].map(|op| profile.issued(op));
    let advance = profile.issued(Op::AdvanceTo);
    let measured_s = s(profile.measured_ns);
    [
        ("driver.self_s", s(profile.self_ns)),
        ("driver.self_share", s(profile.self_ns) / measured_s),
        ("workloads.setup_s", s(profile.issued(Op::Setup).total_ns)),
        (
            "workloads.gen_s",
            s(generated.iter().map(|g| g.total_ns).sum()),
        ),
        (
            "workloads.gen_calls",
            generated.iter().map(|g| g.count).sum::<u64>() as f64,
        ),
        ("chain.build_s", s(profile.issued(Op::ChainBuild).total_ns)),
        ("chain.submit_s", s(profile.issued(Op::Submit).total_ns)),
        (
            "chain.submit_calls",
            profile.issued(Op::Submit).count as f64,
        ),
        ("chain.advance_s", s(advance.total_ns)),
        ("chain.advance_calls", advance.count as f64),
        ("chain.advance_p50_us", advance.p50_ns as f64 / 1e3),
        ("chain.advance_p99_us", advance.p99_ns as f64 / 1e3),
        ("chain.advance_max_ms", advance.max_ns as f64 / 1e6),
        (
            "chain.poll_s",
            s(profile.issued(Op::ConfirmedBlocksSince).total_ns),
        ),
        (
            "chain.poll_calls",
            profile.issued(Op::ConfirmedBlocksSince).count as f64,
        ),
        (
            "chain.direct_s",
            s(profile.issued(Op::ExecuteDirect).total_ns),
        ),
        (
            "chain.direct_calls",
            profile.issued(Op::ExecuteDirect).count as f64,
        ),
        ("chain.inject_s", s(profile.issued(Op::Inject).total_ns)),
        ("chain.stats_s", s(profile.issued(Op::Stats).total_ns)),
        (
            "chain.sim_s_per_wall_s",
            profile.virtual_us as f64 / 1e6 / measured_s,
        ),
        ("chain.tx_per_wall_s", committed / measured_s),
    ]
    .into_iter()
    .map(|(name, v)| (name.to_string(), v))
    .collect()
}

fn trace_file(workload: &str, seed: u64, cells: usize, profile: &Profile) -> Json {
    let table = |rows: &[(Op, OpStats)]| {
        Json::obj(rows.iter().map(|(op, st)| {
            (
                op.label(),
                Json::obj([
                    ("count", Json::Num(st.count as f64)),
                    ("total_s", Json::Num(st.total_ns as f64 / 1e9)),
                    ("p50_us", Json::Num(st.p50_ns as f64 / 1e3)),
                    ("p99_us", Json::Num(st.p99_ns as f64 / 1e3)),
                    ("max_us", Json::Num(st.max_ns as f64 / 1e3)),
                ]),
            )
        }))
    };
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("cells", Json::Num(cells as f64)),
        ("run_s", Json::Num(profile.run_ns as f64 / 1e9)),
        ("measured_s", Json::Num(profile.measured_ns as f64 / 1e9)),
        ("driver_self_s", Json::Num(profile.self_ns as f64 / 1e9)),
        ("issued_by_driver", table(&profile.issued)),
        ("issued_in_setup", table(&profile.in_setup)),
        (
            "slowest_advance_to",
            Json::Arr(
                profile
                    .slowest_advances
                    .iter()
                    .map(|a| {
                        Json::obj([
                            ("cell", Json::Num(a.cell as f64)),
                            ("at_s", Json::Num(a.at_ns as f64 / 1e9)),
                            ("duration_ms", Json::Num(a.duration_ns as f64 / 1e6)),
                            ("virtual_s", Json::Num(a.virtual_us as f64 / 1e6)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Span, NO_PARENT};

    #[test]
    fn record_survives_the_pipe() {
        let record = Record {
            setup_s: 0.036125,
            wall_s: 11.5,
            cpu_s: 13.02,
            peak_rss_mb: 412.75,
            ops_attempted: 89_763,
            ops_failed: 43,
            result_digest: "ab12".into(),
            layers: vec![
                ("model.committed".into(), 89_720.0),
                ("storage.write_amp".into(), 1.625),
            ],
            failures: vec!["fabric: \"quoted\" failure".into()],
        };
        let line = record.to_json().render();
        assert!(!line.contains('\n'));
        assert_eq!(
            Record::from_json(&Json::parse(&line).unwrap()).unwrap(),
            record
        );
    }

    #[test]
    fn incomplete_record_is_refused() {
        assert!(Record::from_json(&Json::parse(r#"{"wall_s": 1}"#).unwrap()).is_err());
    }

    #[test]
    fn span_layers_add_up_to_the_run() {
        let span = |op, parent, start_ns, end_ns, virtual_us| Span {
            op,
            parent,
            start_ns,
            end_ns,
            virtual_us,
        };
        let s = 1_000_000_000u64;
        let cell = vec![
            span(Op::Run, NO_PARENT, 0, 10 * s, 0),
            span(Op::ChainBuild, 0, 0, s / 2, 0),
            span(Op::Setup, 0, s / 2, s, 0),
            span(Op::Submit, 2, s / 2, s / 2 + 10, 0), // inside set-up: not the driver's
            span(Op::NextTransaction, 0, s, 2 * s, 0),
            span(Op::AdvanceTo, 0, 2 * s, 8 * s, 3_000_000),
            span(Op::AdvanceTo, 0, 8 * s, 9 * s, 21_000_000),
        ];
        let layers = span_layers(&trace::profile(&[cell]), 450.0);
        let get = |name: &str| layers.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(get("driver.self_s"), 1.0);
        assert_eq!(get("driver.self_share"), 1.0 / 9.0);
        assert_eq!(get("chain.advance_s"), 7.0);
        assert_eq!(get("chain.advance_calls"), 2.0);
        assert_eq!(get("chain.advance_max_ms"), 6000.0);
        assert_eq!(get("chain.submit_calls"), 0.0);
        assert_eq!(get("workloads.gen_calls"), 1.0);
        assert_eq!(get("chain.sim_s_per_wall_s"), 2.0);
        assert_eq!(get("chain.tx_per_wall_s"), 50.0);
        let parts = [
            "driver.self_s",
            "chain.build_s",
            "workloads.setup_s",
            "workloads.gen_s",
            "chain.advance_s",
        ];
        assert_eq!(parts.iter().map(|p| get(p)).sum::<f64>(), 10.0);
    }

    #[test]
    fn scatter_efficiency_is_busy_time_over_capacity() {
        let outcome = Outcome {
            wall_s: 10.0,
            workers: 2,
            cell_walls: vec![4.0, 6.0, 5.0],
            ..Outcome::default()
        };
        let layers = scatter_layers(&outcome);
        assert_eq!(layers[0], ("bench.cells".to_string(), 3.0));
        assert_eq!(layers[1].1, 15.0);
        assert_eq!(layers[2].1, 6.0);
        assert_eq!(layers[3].1, 0.75);
    }
}
