//! `perf compare A.json B.json`: per workload and end-to-end metric,
//! whether B improved on, matched, or regressed from A — or whether the
//! run-to-run spread is too wide to tell (choosing-metrics §6.5).

use crate::json::Json;
use crate::report::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, quartiles};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The spread of either side is wider than the metric's bound and
    /// the two sides' runs overlap.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Interquartile range over the median; 0 for fewer than two runs.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

/// Judges B's runs against A's for one metric.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    // Positive = B is better, as a share of A's median.
    let (ma, mb) = (median(a), median(b));
    let gain = match metric.better {
        Better::Higher => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
        Better::Lower => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
    };
    let better = |x: f64, y: f64| match metric.better {
        Better::Higher => x > y,
        Better::Lower => x < y,
    };
    let b_dominates = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let a_dominates = a.iter().all(|&x| b.iter().all(|&y| better(x, y)));
    if spread(a).max(spread(b)) > metric.bound && !b_dominates && !a_dominates {
        return Verdict::Unresolved;
    }
    if gain < -metric.bound {
        Verdict::Regressed
    } else if gain > metric.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// One workload's metrics, each with its value in every run.
type WorkloadRuns = (String, Vec<(String, Vec<f64>)>);

/// `workload → metric → values` of every untraced run in a report
/// document (`perf run` output).
fn collect(doc: &Json) -> Vec<WorkloadRuns> {
    let mut out: Vec<WorkloadRuns> = Vec::new();
    for run in doc.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
        let (Some(workload), Some(metrics)) = (
            run.get("workload").and_then(Json::as_str),
            run.get("metrics").and_then(Json::as_obj),
        ) else {
            continue;
        };
        if run.get("traced") == Some(&Json::Bool(true)) {
            continue;
        }
        if !out.iter().any(|(w, _)| w == workload) {
            out.push((workload.to_string(), Vec::new()));
        }
        let per = &mut out
            .iter_mut()
            .find(|(w, _)| w == workload)
            .expect("just pushed")
            .1;
        for (name, m) in metrics {
            let Some(v) = m.get("value").and_then(Json::as_f64) else {
                continue;
            };
            match per.iter_mut().find(|(n, _)| n == name) {
                Some((_, vs)) => vs.push(v),
                None => per.push((name.clone(), vec![v])),
            }
        }
    }
    out
}

/// Renders the comparison table and counts the rows that are not
/// `improved` or `unchanged`.
pub fn compare(a: &Json, b: &Json) -> (String, usize) {
    let (a, b) = (collect(a), collect(b));
    let mut text = format!(
        "{:<24} {:<20} {:>14} {:>14} {:<4} {:>8} {:>7} {:>7}  {}\n",
        "workload",
        "metric",
        "A median",
        "B median",
        "unit",
        "change",
        "spread",
        "bound",
        "verdict"
    );
    let mut bad = 0;
    for (workload, a_metrics) in &a {
        let Some((_, b_metrics)) = b.iter().find(|(w, _)| w == workload) else {
            text.push_str(&format!("{workload:<24} missing from B\n"));
            bad += 1;
            continue;
        };
        for metric in &END_TO_END {
            let find = |ms: &[(String, Vec<f64>)]| {
                ms.iter()
                    .find(|(n, _)| n == metric.name)
                    .map(|(_, v)| v.clone())
            };
            let (Some(av), Some(bv)) = (find(a_metrics), find(b_metrics)) else {
                continue;
            };
            let verdict = judge(metric, &av, &bv);
            bad += usize::from(matches!(verdict, Verdict::Regressed | Verdict::Unresolved));
            let (ma, mb) = (median(&av), median(&bv));
            text.push_str(&format!(
                "{:<24} {:<20} {:>14.6} {:>14.6} {:<4} {:>+7.1}% {:>6.1}% {:>6.1}%  {}\n",
                workload,
                metric.name,
                ma,
                mb,
                metric.unit,
                (mb - ma) / ma.abs().max(f64::MIN_POSITIVE) * 100.0,
                spread(&av).max(spread(&bv)) * 100.0,
                metric.bound * 100.0,
                verdict.name(),
            ));
        }
    }
    (text, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "x",
            better,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = metric(Better::Lower);
        assert_eq!(judge(&lower, &[10.0], &[10.5]), Verdict::Unchanged);
        assert_eq!(judge(&lower, &[10.0], &[12.0]), Verdict::Regressed);
        assert_eq!(judge(&lower, &[10.0], &[8.0]), Verdict::Improved);
        assert_eq!(
            judge(&metric(Better::Higher), &[10.0], &[12.0]),
            Verdict::Improved
        );
        // Overlapping, widely spread runs cannot be told apart …
        let noisy_a = [8.0, 10.0, 12.0, 9.0, 11.0];
        let noisy_b = [9.0, 11.0, 13.0, 10.0, 12.0];
        assert_eq!(judge(&lower, &noisy_a, &noisy_b), Verdict::Unresolved);
        // … unless every run of one side beats every run of the other.
        let clear_b = [5.0, 6.0, 7.0, 5.5, 6.5];
        assert_eq!(judge(&lower, &noisy_a, &clear_b), Verdict::Improved);
    }
}
