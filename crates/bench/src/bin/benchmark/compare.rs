//! `benchmark compare A.json B.json`: one row per workload × end-to-end
//! metric, judged against the bounds in `BENCHMARK.json`.

use std::fmt::Write as _;

use crate::metrics::{floor, Better, Bound, Metric, ResultFile};
use crate::stats::spread;

/// How B's value relates to A's under a metric's bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or under the absolute floor).
    Same,
    Better,
    Worse,
    /// The run-to-run spread is wider than the bound, so the bound cannot
    /// separate a change from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against `a`: worse when it moved the wrong way by more than
/// both `bound × a` and `floor`; unresolved when either side's spread
/// exceeds the bound, unless every sample of B beats every sample of A.
pub fn judge(a: &Metric, b: &Metric, better: Better, bound: f64, floor: f64) -> Verdict {
    let samples = |m: &Metric| if m.samples.is_empty() { vec![m.value] } else { m.samples.clone() };
    let (sa, sb) = (samples(a), samples(b));
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    if spread(&sa).max(spread(&sb)) > bound {
        let all_better = sb.iter().all(|&y| sa.iter().all(|&x| beats(y, x)));
        return if all_better { Verdict::Better } else { Verdict::Unresolved };
    }
    let worse_by = match better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    };
    let allowed = (bound * a.value.abs()).max(floor);
    if worse_by > allowed {
        Verdict::Worse
    } else if -worse_by > allowed {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Renders the comparison table under `BENCHMARK.json`'s `bounds`; the
/// second value is whether any row is `worse`.
pub fn compare(a: &ResultFile, b: &ResultFile, bounds: &[Bound]) -> (String, bool) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<12} {:>14} {:>14} {:>8} {:>6} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "delta%", "bound%", "sprdA%", "sprdB%"
    );
    let mut any_worse = false;
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.workload == wa.workload) else { continue };
        for bound in bounds {
            let (Some(ma), Some(mb)) =
                (wa.end_to_end.get(&bound.name), wb.end_to_end.get(&bound.name))
            else {
                continue;
            };
            let floor = floor(&wa.workload, &bound.name);
            let verdict = judge(ma, mb, bound.better, bound.bound, floor);
            any_worse |= verdict == Verdict::Worse;
            let delta = if ma.value == 0.0 { 0.0 } else { 100.0 * (mb.value / ma.value - 1.0) };
            let _ = writeln!(
                out,
                "{:<14} {:<12} {:>14.6} {:>14.6} {:>+8.2} {:>6.1} {:>7.2} {:>7.2}  {}",
                wa.workload,
                bound.name,
                ma.value,
                mb.value,
                delta,
                100.0 * bound.bound,
                100.0 * spread(&ma.samples),
                100.0 * spread(&mb.samples),
                verdict.as_str()
            );
        }
        // More failed operations than the base is a regression whatever
        // the timings say.
        let (fa, fb) = (wa.failed, wb.failed);
        let verdict = if fb > fa { Verdict::Worse } else { Verdict::Same };
        any_worse |= verdict == Verdict::Worse;
        let _ = writeln!(
            out,
            "{:<14} {:<12} {fa:>14} {fb:>14} {:>31}  {}",
            wa.workload,
            "failed",
            "",
            verdict.as_str()
        );
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(samples: &[f64]) -> Metric {
        Metric { value: crate::stats::median(samples), unit: "s".into(), samples: samples.to_vec() }
    }

    #[test]
    fn bounds_and_directions() {
        let a = m(&[1.0, 1.0, 1.0]);
        assert_eq!(judge(&a, &m(&[1.05, 1.05]), Better::Lower, 0.1, 0.0), Verdict::Same);
        assert_eq!(judge(&a, &m(&[1.2, 1.2]), Better::Lower, 0.1, 0.0), Verdict::Worse);
        assert_eq!(judge(&a, &m(&[0.8, 0.8]), Better::Lower, 0.1, 0.0), Verdict::Better);
        assert_eq!(judge(&a, &m(&[1.2, 1.2]), Better::Higher, 0.1, 0.0), Verdict::Better);
        assert_eq!(judge(&a, &m(&[0.8, 0.8]), Better::Higher, 0.1, 0.0), Verdict::Worse);
    }

    #[test]
    fn absolute_floor_absorbs_small_changes() {
        // +40% of 10 ms is 4 ms: over a 25% bound, under a 5 ms floor.
        let a = m(&[0.010, 0.010]);
        let b = m(&[0.014, 0.014]);
        assert_eq!(judge(&a, &b, Better::Lower, 0.25, 0.0), Verdict::Worse);
        assert_eq!(judge(&a, &b, Better::Lower, 0.25, 0.005), Verdict::Same);
        assert_eq!(judge(&a, &m(&[0.016, 0.016]), Better::Lower, 0.25, 0.005), Verdict::Worse);
        // A floor below bound × base changes nothing.
        assert_eq!(judge(&a, &m(&[0.012, 0.012]), Better::Lower, 0.25, 0.001), Verdict::Same);
        assert_eq!(judge(&a, &m(&[0.013, 0.013]), Better::Lower, 0.25, 0.001), Verdict::Worse);
    }

    fn file(workload: &str, setup: f64) -> ResultFile {
        let mut w = crate::metrics::WorkloadResult::new(workload, 1, false);
        w.e2e("setup_s", vec![setup; 3]);
        ResultFile {
            schema: String::new(),
            git_head: String::new(),
            nproc: 2,
            seed: 1,
            seconds: 10,
            traced: false,
            workloads: vec![w],
        }
    }

    #[test]
    fn compare_applies_the_workload_floor_and_the_given_bounds() {
        let bounds = [Bound { name: "setup_s".into(), better: Better::Lower, bound: 0.25 }];
        // experiments: 0.8 ms to 1.1 ms is +37%, but under its 0.4 ms floor.
        let (table, worse) =
            compare(&file("experiments", 0.0008), &file("experiments", 0.0011), &bounds);
        assert!(!worse, "{table}");
        // 0.8 ms to 1.3 ms is over the floor.
        let (table, worse) =
            compare(&file("experiments", 0.0008), &file("experiments", 0.0013), &bounds);
        assert!(worse && table.contains("worse"), "{table}");
        // serve's 0.5 ms floor sits below 25% of its 17 ms set-up.
        let (table, worse) =
            compare(&file("serve-inproc", 0.017), &file("serve-inproc", 0.0215), &bounds);
        assert!(worse, "{table}");
        // With no bounds, only the failure rows are judged.
        let (table, worse) = compare(&file("serve-inproc", 0.017), &file("serve-inproc", 1.0), &[]);
        assert!(!worse && !table.contains("setup_s"), "{table}");
    }

    #[test]
    fn wide_spread_is_unresolved_unless_b_dominates() {
        let a = m(&[1.0, 1.5, 2.0, 2.5]);
        assert_eq!(judge(&a, &m(&[1.9, 2.0, 2.1]), Better::Lower, 0.1, 0.0), Verdict::Unresolved);
        assert_eq!(judge(&a, &m(&[0.5, 0.6, 0.7]), Better::Lower, 0.1, 0.0), Verdict::Better);
        // Deterministic values have no spread.
        let d = Metric { value: 3.0, unit: "%".into(), samples: Vec::new() };
        assert_eq!(judge(&d, &d, Better::Lower, 0.0, 0.0), Verdict::Same);
    }
}
