//! `compare A B`: per workload × end-to-end metric, both sides' medians
//! with quartiles, the relative difference, the bound, and a verdict.
//! A side is one result file or a directory of them (a set).

use crate::report::{read_result_file, Better, MetricDef, END_TO_END};
use crate::stats::quartiles;
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot tell "unchanged" from "worse": not the same as unchanged.
    Unresolved,
}

/// `(workload, metric) -> values`, one per untraced run.
type Side = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &Path) -> Result<Side, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        for entry in std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))? {
            let file = entry.map_err(|e| e.to_string())?.path();
            if file.extension().is_some_and(|e| e == "result") {
                files.push(file);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut side = Side::new();
    for file in files {
        let result = read_result_file(&file)?;
        if result.trace {
            continue;
        }
        for (name, value) in result.metrics {
            side.entry((result.workload.clone(), name))
                .or_default()
                .push(value);
        }
    }
    if side.is_empty() {
        return Err(format!("{}: no untraced result files", path.display()));
    }
    Ok(side)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (a1, a_med, a3) = quartiles(a);
    let (b1, b_med, b3) = quartiles(b);
    let worse = worsening(def, a_med, b_med);
    let spread = ((a3 - a1) / a_med).abs().max(((b3 - b1) / b_med).abs());
    let verdict = if spread > def.bound {
        let every_b_better = match def.better {
            Better::Lower => b.iter().all(|y| a.iter().all(|x| y < x)),
            Better::Higher => b.iter().all(|y| a.iter().all(|x| y > x)),
        };
        if every_b_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worse > def.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse)
}

pub fn main(a: &str, b: &str) -> ExitCode {
    let (a, b) = match (load(Path::new(a)), load(Path::new(b))) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("hdk-benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "| workload | metric | unit | A median [q1, q3] (n) | B median [q1, q3] (n) | B worse by | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    let mut regressed = false;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (verdict, worse) = judge(m, va, vb);
            regressed |= verdict == Verdict::Regressed;
            let cell = |v: &[f64]| {
                let (q1, med, q3) = quartiles(v);
                format!("{med:.4} [{q1:.4}, {q3:.4}] ({})", v.len())
            };
            println!(
                "| {} | {} | {} | {} | {} | {:+.2} % | {:.1} % | {} |",
                w.name,
                m.name,
                m.unit,
                cell(va),
                cell(vb),
                100.0 * worse,
                100.0 * m.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn verdicts_follow_the_bound_the_direction_and_the_spread() {
        let qps = def("query_qps"); // higher is better, 25 %
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let scaled = |f: f64| steady.map(|v| v * f);
        assert_eq!(judge(qps, &steady, &scaled(0.9)).0, Verdict::Ok);
        assert_eq!(judge(qps, &steady, &scaled(0.7)).0, Verdict::Regressed);
        assert_eq!(judge(qps, &steady, &scaled(1.5)).0, Verdict::Ok);
        let p50 = def("query_p50_us"); // lower is better, 25 %
        assert_eq!(judge(p50, &steady, &scaled(1.35)).0, Verdict::Regressed);
        assert_eq!(judge(p50, &steady, &scaled(0.8)).0, Verdict::Ok);
        // A count may not move by a thousandth.
        let postings = def("postings_per_query");
        assert_eq!(
            judge(postings, &[45.0; 3], &[45.1; 3]).0,
            Verdict::Regressed
        );
        assert_eq!(judge(postings, &[45.0; 3], &[45.0; 3]).0, Verdict::Ok);
        // Spread wider than the bound: unresolved, not unchanged...
        let noisy = [100.0, 160.0, 60.0, 135.0, 75.0];
        assert_eq!(judge(p50, &noisy, &noisy).0, Verdict::Unresolved);
        // ...unless every run of B reads better than every run of A.
        assert_eq!(judge(p50, &noisy, &noisy.map(|v| v * 0.3)).0, Verdict::Ok);
        let (_, worse) = judge(p50, &[100.0], &[110.0]);
        assert!((worse - 0.10).abs() < 1e-12);
    }
}
