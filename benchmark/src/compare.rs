//! `compare <a.json> <b.json>`: the before/after table. One row per
//! (workload, end-to-end metric) with both sides' median and quartiles over
//! their seeds, the metric's bound and a verdict, plus the failed share.

use crate::json::{self, Value};
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// A side's own quartiles are further apart than the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and inter-quartile spread (as a share of the median) of a side.
fn summary(samples: &[f64]) -> Option<(f64, Option<[f64; 3]>)> {
    let sorted = stats::sorted(samples.to_vec());
    Some((stats::median(&sorted)?, stats::quartiles(&sorted)))
}

/// `spread_counts` is off for `setup_s` only: the acceptance driver holds
/// its medians to the bound but not its quartiles (set-up is microseconds
/// of thread spawning, whose single samples scatter).
pub fn verdict(
    a: &[f64],
    b: &[f64],
    higher_is_better: bool,
    bound: f64,
    spread_counts: bool,
) -> Option<Verdict> {
    let (a_med, a_q) = summary(a)?;
    let (b_med, b_q) = summary(b)?;
    let wide = |med: f64, q: Option<[f64; 3]>| {
        spread_counts && q.is_some_and(|[q1, _, q3]| med != 0.0 && (q3 - q1) / med.abs() > bound)
    };
    if wide(a_med, a_q) || wide(b_med, b_q) {
        return Some(Verdict::Unresolved);
    }
    let worse_by = if higher_is_better {
        (a_med - b_med) / a_med.abs()
    } else {
        (b_med - a_med) / a_med.abs()
    };
    Some(if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    })
}

fn samples(file: &Value, workload: &str, metric: &str) -> Vec<f64> {
    file.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("samples"))
        .and_then(Value::as_array)
        .map(|items| items.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn count(file: &Value, workload: &str, key: &str) -> f64 {
    file.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(key))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

fn side(samples: &[f64]) -> String {
    match summary(samples) {
        Some((med, Some([q1, _, q3]))) => {
            format!("{med:.6} [{q1:.6} .. {q3:.6}] n={}", samples.len())
        }
        Some((med, None)) => format!("{med:.6} n=1"),
        None => "no samples".into(),
    }
}

/// Prints the table; `Ok(true)` when no row regressed or is unresolved.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut clean = true;
    println!("workload metric a b bound verdict");
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (sa, sb) = (samples(&a, w.name, m.name), samples(&b, w.name, m.name));
            let verdict = verdict(&sa, &sb, m.higher_is_better, m.bound, m.name != "setup_s");
            clean &= verdict == Some(Verdict::Ok);
            println!(
                "{} {} | {} | {} | {} | {}",
                w.name,
                m.name,
                side(&sa),
                side(&sb),
                m.bound,
                verdict.map_or("missing", Verdict::name)
            );
        }
        let share = |file: &Value| {
            let attempted = count(file, w.name, "attempted");
            if attempted > 0.0 {
                count(file, w.name, "failed") / attempted
            } else {
                1.0
            }
        };
        let (fa, fb) = (share(&a), share(&b));
        clean &= fb <= fa;
        println!(
            "{} failed_share | {fa} | {fb} | 0 | {}",
            w.name,
            if fb <= fa { "ok" } else { "regressed" }
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [90.0, 91.0, 89.0, 90.5, 89.5];
        let noisy = [100.0, 130.0, 70.0, 115.0, 85.0];
        let v = |a: &[f64], b: &[f64], higher| verdict(a, b, higher, 0.08, true);
        assert_eq!(v(&steady, &steady, true), Some(Verdict::Ok));
        assert_eq!(v(&steady, &slower, true), Some(Verdict::Regressed));
        // Lower is better: the same drop is an improvement.
        assert_eq!(v(&steady, &slower, false), Some(Verdict::Ok));
        assert_eq!(v(&slower, &steady, false), Some(Verdict::Regressed));
        assert_eq!(v(&steady, &noisy, true), Some(Verdict::Unresolved));
        assert_eq!(
            verdict(&steady, &noisy, true, 0.08, false),
            Some(Verdict::Ok)
        );
        assert_eq!(v(&[100.0], &[95.0], true), Some(Verdict::Ok));
        assert_eq!(v(&[], &steady, true), None);
    }
}
