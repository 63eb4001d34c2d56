//! `e2e compare <a.json> <b.json>`: one row per (end-to-end metric,
//! workload) of two results files written by `e2e run` — both medians, the
//! ratio with its base, the bound, and whether `b` is within it.

// dkg-lint R6 audits every file under src/bin/ as a crate root.
#![forbid(unsafe_code)]

use std::fmt::Write as _;

use crate::json::Json;
use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is no worse than `a`'s by more than the bound.
    Ok,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, and the runs of `b`
    /// are not all better than the runs of `a`: the bound cannot be judged.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges the runs `b` against the runs `a` of one metric.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (base, changed) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (changed - base) / base.abs(),
        Better::Higher => (base - changed) / base.abs(),
    };
    if spread(a).max(spread(b)) > bound {
        let all_better = a.iter().all(|&x| {
            b.iter().all(|&y| match better {
                Better::Lower => y < x,
                Better::Higher => y > x,
            })
        });
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn values(file: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    file.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .as_array()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// The comparison table, and whether every row is `ok`.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut all_ok = true;
    let _ = writeln!(
        out,
        "{:<18} {:<13} {:>14} {:>14} {:>9} {:>8} {:>8}  verdict",
        "workload", "metric", "median a", "median b", "b / a", "spread", "bound"
    );
    for workload in WORKLOADS {
        for metric in END_TO_END {
            let (Some(va), Some(vb)) = (
                values(a, workload.name, metric.name),
                values(b, workload.name, metric.name),
            ) else {
                continue;
            };
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(&va, &vb, metric.better, metric.bound);
            all_ok &= verdict == Verdict::Ok;
            let _ = writeln!(
                out,
                "{:<18} {:<13} {:>14.4} {:>14.4} {:>9.4} {:>8.4} {:>8}  {}",
                workload.name,
                metric.name,
                median(&va),
                median(&vb),
                median(&vb) / median(&va),
                spread(&va).max(spread(&vb)),
                metric.bound,
                verdict.as_str()
            );
        }
    }
    let _ = writeln!(
        out,
        "b / a is b's median over a's (the base); spread is the wider of the two \
         interquartile ranges over its median"
    );
    (out, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.8, 99.4, 100.1, 99.9];
        let slower = [115.0, 116.0, 114.0, 115.5, 114.5];
        assert_eq!(judge(&base, &same, Better::Lower, 0.1), Verdict::Ok);
        assert_eq!(judge(&base, &slower, Better::Lower, 0.1), Verdict::Worse);
        // The same numbers are an improvement when higher is better.
        assert_eq!(judge(&base, &slower, Better::Higher, 0.1), Verdict::Ok);
        assert_eq!(judge(&slower, &base, Better::Higher, 0.1), Verdict::Worse);
        // A spread wider than the bound resolves only when every run wins.
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(
            judge(&noisy, &same, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        let faster = [50.0, 51.0, 49.0, 50.5, 49.5];
        assert_eq!(judge(&noisy, &faster, Better::Lower, 0.1), Verdict::Ok);
        // Exact counters: any increase is worse at bound 0.
        assert_eq!(judge(&[4914.0], &[4914.0], Better::Lower, 0.0), Verdict::Ok);
        assert_eq!(
            judge(&[4914.0], &[4915.0], Better::Lower, 0.0),
            Verdict::Worse
        );
    }

    #[test]
    fn compare_reads_results_files() {
        let file = |op_ms: &[f64]| {
            let list = |v: &[f64]| Json::Arr(v.iter().copied().map(Json::Num).collect());
            Json::obj([(
                "workloads",
                Json::obj([(
                    "udp-dkg-n7",
                    Json::obj([(
                        "end_to_end",
                        Json::obj([("op_ms", list(op_ms)), ("setup_s", list(&[0.1]))]),
                    )]),
                )]),
            )])
        };
        let (table, ok) = compare(&file(&[500.0, 510.0]), &file(&[505.0, 506.0]));
        assert!(ok, "{table}");
        assert_eq!(table.lines().count(), 4, "{table}");
        let (table, ok) = compare(&file(&[500.0, 510.0]), &file(&[705.0, 706.0]));
        assert!(!ok && table.contains("worse"), "{table}");
    }
}
