//! `bench compare A.json B.json`: is B worse than A?
//!
//! Per workload: each end-to-end median against the metric's bound, the
//! failure counts side by side, and every exact model count for equality.
//! Host time is noisy and model counts are not, so the two are judged
//! differently: a median may move within its bound, a count may not move.

use crate::json::Json;
use crate::spec::{Better, END_TO_END, SETUP_TIE_S, WORKLOADS};
use std::fmt::Write as _;

/// Verdict on one end-to-end metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Below the tie threshold of `setup_s`.
    Tie,
    /// Either side's own min–max spread exceeds the bound: no verdict.
    Unresolved,
    Regressed,
}

/// Judge B's summary of a metric against A's.
pub fn judge(
    name: &str,
    better: Better,
    bound: f64,
    a: (f64, f64, f64),
    b: (f64, f64, f64),
) -> Verdict {
    let ((a_median, a_min, a_max), (b_median, b_min, b_max)) = (a, b);
    if name == "setup_s" && (b_median - a_median).abs() < SETUP_TIE_S {
        return Verdict::Tie;
    }
    let spread = |median: f64, min: f64, max: f64| (max - min) / median.abs();
    if spread(a_median, a_min, a_max) > bound || spread(b_median, b_min, b_max) > bound {
        return Verdict::Unresolved;
    }
    let worse = match better {
        Better::Lower => (b_median - a_median) / a_median.abs(),
        Better::Higher => (a_median - b_median) / a_median.abs(),
    };
    if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// The comparison report and whether B passed: no regression, no drift.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut report = String::new();
    let (mut regressions, mut drifts, mut unresolved) = (0u32, 0u32, 0u32);
    let mut line = |text: String| writeln!(report, "{text}").expect("write to String");

    for key in ["seed", "seconds"] {
        let of = |doc: &Json| {
            doc.get("identity")
                .and_then(|i| i.get(key))
                .and_then(Json::as_f64)
        };
        if of(a) != of(b) {
            line(format!(
                "note: {key} differs ({:?} vs {:?}): the inputs differ, so model counts will",
                of(a),
                of(b)
            ));
        }
    }

    fn workload_of<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
        doc.get("workloads")?.get(name)
    }
    for workload in &WORKLOADS {
        let (wa, wb) = match (workload_of(a, workload.name), workload_of(b, workload.name)) {
            (Some(wa), Some(wb)) => (wa, wb),
            (None, None) => continue,
            (in_a, _) => {
                drifts += 1;
                line(format!(
                    "{}: only in {}  DRIFT",
                    workload.name,
                    if in_a.is_some() { "A" } else { "B" }
                ));
                continue;
            }
        };
        line(workload.name.to_string());

        for metric in &END_TO_END {
            let summary = |w: &Json| {
                let m = w.get("end_to_end")?.get(metric.name)?;
                let field = |k: &str| m.get(k).and_then(Json::as_f64);
                Some((field("median")?, field("min")?, field("max")?))
            };
            let (Some(sa), Some(sb)) = (summary(wa), summary(wb)) else {
                drifts += 1;
                line(format!("  {:<28} missing on one side  DRIFT", metric.name));
                continue;
            };
            let verdict = judge(metric.name, metric.better, metric.bound, sa, sb);
            match verdict {
                Verdict::Regressed => regressions += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok | Verdict::Tie => {}
            }
            line(format!(
                "  {:<28} {:>12.4} -> {:>12.4} {:<4} {:>+7.1}%  bound {:>2.0}%  {}",
                metric.name,
                sa.0,
                sb.0,
                metric.unit,
                (sb.0 - sa.0) / sa.0.abs() * 100.0,
                metric.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Tie => "tie",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regressed => "REGRESSED",
                }
            ));
        }

        let ops = |w: &Json| {
            let field = |k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            (field("ops_failed"), field("ops_attempted"))
        };
        let (oa, ob) = (ops(wa), ops(wb));
        let same = oa == ob;
        drifts += u32::from(!same);
        line(format!(
            "  {:<28} {}/{} -> {}/{}  {}",
            "ops_failed/ops_attempted",
            oa.0,
            oa.1,
            ob.0,
            ob.1,
            if same { "same" } else { "DRIFT" }
        ));

        let digest = |w: &Json| {
            w.get("result_digest")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string()
        };
        let mut moved = Vec::new();
        if digest(wa) != digest(wb) {
            moved.push(format!("result_digest {} -> {}", digest(wa), digest(wb)));
        }
        let layers_a = wa.get("per_layer").map(Json::members).unwrap_or(&[]);
        let mut counts = 0;
        for (name, va) in layers_a.iter().filter(|(n, _)| n.starts_with("model.")) {
            counts += 1;
            let vb = wb.get("per_layer").and_then(|l| l.get(name));
            if vb != Some(va) {
                moved.push(format!(
                    "{name} {:?} -> {:?}",
                    va.as_f64(),
                    vb.and_then(Json::as_f64)
                ));
            }
        }
        if moved.is_empty() {
            line(format!(
                "  {:<28} {counts} counts and the digest identical",
                "model.*"
            ));
        } else {
            drifts += moved.len() as u32;
            for m in moved {
                line(format!("  {m}  DRIFT"));
            }
        }
    }

    let ok = regressions == 0 && drifts == 0;
    line(format!(
        "{}: {regressions} regressed, {drifts} drifted, {unresolved} unresolved",
        if ok { "PASS" } else { "FAIL" }
    ));
    (report, ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    fn doc(wall: (f64, f64, f64), committed: f64, failed: f64) -> Json {
        let summary = |(median, min, max): (f64, f64, f64)| {
            Json::obj([
                ("median", Json::Num(median)),
                ("min", Json::Num(min)),
                ("max", Json::Num(max)),
            ])
        };
        Json::obj([
            (
                "identity",
                Json::obj([("seed", Json::Num(42.0)), ("seconds", Json::Num(10.0))]),
            ),
            (
                "workloads",
                Json::obj([(
                    "eth_ioheavy",
                    Json::obj([
                        (
                            "end_to_end",
                            Json::obj([
                                ("wall_s", summary(wall)),
                                ("cpu_s", summary((9.0, 9.0, 9.0))),
                                ("peak_rss_mb", summary((300.0, 300.0, 300.0))),
                                ("setup_s", summary((0.036, 0.03, 0.05))),
                            ]),
                        ),
                        ("ops_attempted", Json::Num(32.0)),
                        ("ops_failed", Json::Num(failed)),
                        ("result_digest", Json::str(format!("digest-{committed}"))),
                        (
                            "per_layer",
                            Json::obj([
                                ("model.committed", Json::Num(committed)),
                                ("chain.direct_s", Json::Num(wall.0)),
                            ]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn judge_uses_direction_bound_spread_and_tie() {
        let flat = |m: f64| (m, m, m);
        assert_eq!(
            judge("wall_s", Better::Lower, 0.10, flat(10.0), flat(10.9)),
            Verdict::Ok
        );
        assert_eq!(
            judge("wall_s", Better::Lower, 0.10, flat(10.0), flat(11.1)),
            Verdict::Regressed
        );
        assert_eq!(
            judge("wall_s", Better::Lower, 0.10, flat(10.0), flat(5.0)),
            Verdict::Ok
        );
        assert_eq!(
            judge("tps", Better::Higher, 0.10, flat(100.0), flat(85.0)),
            Verdict::Regressed
        );
        assert_eq!(
            judge("tps", Better::Higher, 0.10, flat(100.0), flat(120.0)),
            Verdict::Ok
        );
        // A side that cannot agree with itself within the bound decides nothing.
        assert_eq!(
            judge("wall_s", Better::Lower, 0.10, (10.0, 9.0, 10.5), flat(12.0)),
            Verdict::Unresolved
        );
        // 36 ms -> 50 ms is +39 %, and a tie.
        assert_eq!(
            judge("setup_s", Better::Lower, 0.25, flat(0.036), flat(0.050)),
            Verdict::Tie
        );
        assert_eq!(
            judge("setup_s", Better::Lower, 0.25, flat(1.0), flat(1.3)),
            Verdict::Regressed
        );
    }

    #[test]
    fn same_run_twice_passes() {
        let a = doc((9.5, 9.4, 9.6), 32.0, 0.0);
        let (report, ok) = compare(&a, &a);
        assert!(ok, "{report}");
        assert!(
            report.contains("PASS: 0 regressed, 0 drifted, 0 unresolved"),
            "{report}"
        );
        assert!(
            report.contains("1 counts and the digest identical"),
            "{report}"
        );
    }

    #[test]
    fn slower_run_fails_and_faster_passes() {
        let a = doc((9.5, 9.4, 9.6), 32.0, 0.0);
        // Just past the declared bound, whatever it is.
        let slow = 9.5 * (1.0 + spec::end_to_end("wall_s").unwrap().bound) + 0.1;
        let (report, ok) = compare(&a, &doc((slow, slow - 0.1, slow + 0.1), 32.0, 0.0));
        assert!(!ok && report.contains("REGRESSED"), "{report}");
        let (report, ok) = compare(&a, &doc((slow - 0.2, slow - 0.3, slow - 0.1), 32.0, 0.0));
        assert!(ok, "{report}");
        let (report, ok) = compare(&a, &doc((8.0, 7.9, 8.1), 32.0, 0.0));
        assert!(ok, "{report}");
    }

    #[test]
    fn model_drift_fails_even_when_faster() {
        let a = doc((9.5, 9.4, 9.6), 32.0, 0.0);
        let (report, ok) = compare(&a, &doc((5.0, 5.0, 5.0), 31.0, 1.0));
        assert!(!ok, "{report}");
        assert!(
            report.contains("model.committed Some(32.0) -> Some(31.0)  DRIFT"),
            "{report}"
        );
        assert!(report.contains("result_digest"), "{report}");
        assert!(report.contains("0/32 -> 1/32  DRIFT"), "{report}");
    }

    #[test]
    fn noisy_side_is_unresolved_not_failed() {
        let a = doc((9.5, 9.4, 9.6), 32.0, 0.0);
        let (report, ok) = compare(&a, &doc((12.0, 9.0, 13.0), 32.0, 0.0));
        assert!(ok, "{report}");
        assert!(
            report.contains("unresolved") && report.contains("1 unresolved"),
            "{report}"
        );
    }
}
