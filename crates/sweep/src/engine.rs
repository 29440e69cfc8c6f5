//! The parallel point runner: a work-sharing pool over std scoped threads.
//!
//! crossbeam is unavailable in this build environment (no crates.io
//! access), so the pool uses `std::thread::scope`, an atomic next-point
//! cursor for work sharing, and an `mpsc` channel to collect results.
//! Determinism does not depend on the schedule: every result carries its
//! point index and is re-assembled in submission order, and every point's
//! RNG seed is a pure function of its identity (see
//! [`SweepPoint::seed`](crate::SweepPoint::seed)).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use crate::{PointCtx, PointStat, SweepConfig, SweepPoint};

/// Runs `work` over `points` on up to `cfg.jobs` threads, returning results
/// in point order plus one [`PointStat`] per point (also in point order).
pub fn run_points<P, R>(
    experiment: &str,
    cfg: &SweepConfig,
    points: &[P],
    key: impl Fn(&P) -> SweepPoint + Sync,
    work: impl Fn(&PointCtx, &P) -> R + Sync,
) -> (Vec<R>, Vec<PointStat>)
where
    P: Sync,
    R: Send,
{
    let n = points.len();
    let jobs = cfg.jobs.clamp(1, n.max(1));
    let run_one = |i: usize| -> (R, PointStat) {
        let pctx = PointCtx::new(experiment, cfg, i, &key(&points[i]));
        let start = Instant::now();
        let result = work(&pctx, &points[i]);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let stat = PointStat { label: pctx.label, seed: pctx.seed, wall_ms, cached: false };
        (result, stat)
    };

    if jobs == 1 {
        // Serial fast path: no pool, same results by construction.
        let mut results = Vec::with_capacity(n);
        let mut stats = Vec::with_capacity(n);
        for i in 0..n {
            let (r, s) = run_one(i);
            results.push(r);
            stats.push(s);
        }
        return (results, stats);
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R, PointStat)>();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            let run_one = &run_one;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let (r, s) = run_one(i);
                if tx.send((i, r, s)).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);

    // Re-assemble in submission order: the artifact bytes cannot depend on
    // which worker finished first.
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut stats: Vec<Option<PointStat>> = (0..n).map(|_| None).collect();
    for (i, r, s) in rx {
        results[i] = Some(r);
        stats[i] = Some(s);
    }
    let results = results.into_iter().map(|r| r.expect("worker completed point")).collect();
    let stats = stats.into_iter().map(|s| s.expect("worker completed point")).collect();
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_points(jobs: usize) -> Vec<u64> {
        let points: Vec<u64> = (0..100).collect();
        let (results, stats) = run_points(
            "square",
            &SweepConfig::new(0).jobs(jobs),
            &points,
            |p| SweepPoint::new().detail(p.to_string()),
            |_ctx, p| p * p,
        );
        assert_eq!(stats.len(), 100);
        results
    }

    #[test]
    fn parallel_results_keep_submission_order() {
        let serial = square_points(1);
        for jobs in [2, 4, 8] {
            assert_eq!(square_points(jobs), serial);
        }
    }

    #[test]
    fn point_seeds_do_not_depend_on_jobs() {
        let points: Vec<u64> = (0..32).collect();
        let seeds = |jobs| {
            let (r, _) = run_points(
                "seeds",
                &SweepConfig::new(0).jobs(jobs),
                &points,
                |p| SweepPoint::new().detail(p.to_string()),
                |ctx, _| ctx.seed,
            );
            r
        };
        assert_eq!(seeds(1), seeds(7));
    }

    #[test]
    fn zero_points_is_fine() {
        let cfg = SweepConfig::new(0).jobs(8);
        let (r, s) =
            run_points("empty", &cfg, &Vec::<u64>::new(), |_| SweepPoint::new(), |_, p| *p);
        assert!(r.is_empty() && s.is_empty());
    }
}
