//! `perf compare A.json B.json`: two report files, one row per
//! (workload, metric), judged against the metric's bound.

use crate::json::Value;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
        }
    }
}

/// Relative change from `a` to `b`, signed so that positive is worse.
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == 0.0 {
            0.0
        } else {
            f64::INFINITY.copysign(b)
        };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// `worse` when `b` is worse than `a` by more than `bound` of `a`,
/// `better` when it is better by more than that, else `same`.
pub fn judge(a: f64, b: f64, better: Better, bound: f64) -> Verdict {
    let w = worsening(a, b, better);
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn metric(report: &Value, workload: &str, group: &str, name: &str) -> Option<f64> {
    report
        .get("workloads")?
        .get(workload)?
        .get(group)?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// The comparison table and whether any end-to-end row is `worse`.
/// Per-layer rows have no bound: they show the change and no verdict.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    let workloads = a
        .get("workloads")
        .ok_or("first file has no \"workloads\"")?
        .members();
    let mut out = String::new();
    let mut any_worse = false;
    for (workload, _) in workloads {
        let _ = writeln!(out, "{workload}");
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (
                metric(a, workload, "end_to_end", m.name),
                metric(b, workload, "end_to_end", m.name),
            ) else {
                return Err(format!("{workload}: {} is missing from one file", m.name));
            };
            let verdict = judge(va, vb, m.better, m.bound);
            any_worse |= verdict == Verdict::Worse;
            let _ = writeln!(
                out,
                "  {:<32} {:>14.6} {:>14.6} {:>+9.2}%  {:<6} (bound {:.1}%, {} is better) {}",
                m.name,
                va,
                vb,
                100.0 * ratio_change(va, vb),
                verdict.word(),
                100.0 * m.bound,
                m.better.word(),
                m.unit
            );
        }
        for m in &PER_LAYER {
            let (Some(va), Some(vb)) = (
                metric(a, workload, "per_layer", m.name),
                metric(b, workload, "per_layer", m.name),
            ) else {
                continue; // a file made with --trace 0 only
            };
            let _ = writeln!(
                out,
                "  {:<32} {:>14.6} {:>14.6} {:>+9.2}%  {}",
                m.name,
                va,
                vb,
                100.0 * ratio_change(va, vb),
                m.unit
            );
        }
    }
    Ok((out, any_worse))
}

fn ratio_change(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        0.0
    } else {
        (b - a) / a.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_respects_direction_and_bound() {
        // a rate: higher is better, bound 10 %.
        assert_eq!(judge(100.0, 95.0, Better::Higher, 0.10), Verdict::Same);
        assert_eq!(judge(100.0, 89.0, Better::Higher, 0.10), Verdict::Worse);
        assert_eq!(judge(100.0, 111.0, Better::Higher, 0.10), Verdict::Better);
        // latency: lower is better.
        assert_eq!(judge(2.0, 2.1, Better::Lower, 0.10), Verdict::Same);
        assert_eq!(judge(2.0, 2.3, Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(judge(2.0, 1.7, Better::Lower, 0.10), Verdict::Better);
        // counts: one frame more in 64 is far past 0.1 %.
        assert_eq!(judge(64.0, 64.0, Better::Lower, 0.001), Verdict::Same);
        assert_eq!(judge(64.0, 65.0, Better::Lower, 0.001), Verdict::Worse);
        assert_eq!(judge(0.0, 0.0, Better::Lower, 0.001), Verdict::Same);
        assert_eq!(judge(0.0, 1.0, Better::Lower, 0.001), Verdict::Worse);
    }

    fn report(peak_rss: f64) -> Value {
        let mut e2e = Value::obj();
        for m in &END_TO_END {
            let mut v = Value::obj();
            v.push(
                "value",
                if m.name == "peak_rss_mib" {
                    peak_rss
                } else {
                    1.0
                },
            )
            .push("unit", m.unit);
            e2e.push(m.name, v);
        }
        let mut w = Value::obj();
        w.push("end_to_end", e2e);
        let mut ws = Value::obj();
        ws.push("cyclic_list_write", w);
        let mut doc = Value::obj();
        doc.push("workloads", ws);
        doc
    }

    #[test]
    fn compare_flags_a_worse_row_and_only_then() {
        let (table, worse) = compare(&report(70.0), &report(71.0)).unwrap();
        assert!(!worse, "{table}");
        assert!(table.contains("peak_rss_mib") && table.contains("same"));
        let (table, worse) = compare(&report(70.0), &report(90.0)).unwrap();
        assert!(worse);
        assert!(table.contains("worse"), "{table}");
        assert!(compare(&Value::obj(), &report(1.0)).is_err());
    }
}
