//! The ordered worker pool: the one parallel map the sweep engine's points
//! and the model checker's frontier expansion both run on.
//!
//! Workers are `std::thread::scope` threads sharing an atomic next-index
//! cursor, so the schedule decides only *who* computes an index. Results
//! come back in index order, which is what keeps every artifact and every
//! checker report byte-identical for any `--jobs` value.

use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The default `--jobs` value: the machine's available parallelism.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Computes `f(0), .., f(n - 1)` on up to `jobs` threads and returns the
/// results in index order. Runs serially on the calling thread when
/// `jobs.min(n) <= 1`.
///
/// A panic in `f` is re-raised on the calling thread with its original
/// payload (not std's generic "a scoped thread panicked"), so a caller's
/// `catch_unwind` reads the real message. The other workers stop at their
/// next claim rather than run every remaining item first.
///
/// ```
/// let squares = ringsim_types::par::map_indexed(4, 5, |i| i * i);
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
pub fn map_indexed<R: Send>(jobs: usize, n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let workers = jobs.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let worker = || {
        let _stop = EndOnUnwind { next: &next, n };
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return out;
            }
            out.push((i, f(i)));
        }
    };
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        // The scope joins any handle left behind, then re-raises this
        // unwind's payload.
        handles.into_iter().flat_map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))).collect()
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Moves the cursor past the last index when its worker unwinds, so no
/// worker claims another item after a panic.
struct EndOnUnwind<'a> {
    next: &'a AtomicUsize,
    n: usize,
}

impl Drop for EndOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.next.store(self.n, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    #[test]
    fn parallel_results_keep_index_order() {
        let serial = map_indexed(1, 100, |i| i * i);
        assert_eq!(serial, (0..100).map(|i| i * i).collect::<Vec<_>>());
        for jobs in [2, 4, 8] {
            assert_eq!(map_indexed(jobs, 100, |i| i * i), serial);
        }
    }

    #[test]
    fn zero_items_is_fine() {
        assert!(map_indexed(8, 0, |i| i).is_empty());
    }

    #[test]
    fn a_worker_panic_keeps_its_message() {
        for jobs in [1, 2, 4] {
            let payload = catch_unwind(|| {
                map_indexed(jobs, 16, |i| {
                    assert!(i != 7, "item {i} failed");
                    i
                })
            })
            .expect_err("the panic reaches the caller");
            let msg = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(msg, Some("item 7 failed"), "jobs {jobs}");
        }
    }

    #[test]
    fn a_worker_panic_stops_the_other_workers() {
        let ran = AtomicUsize::new(0);
        let payload = catch_unwind(|| {
            map_indexed(2, 200, |i| {
                assert!(i != 0, "item {i} failed");
                std::thread::sleep(std::time::Duration::from_millis(2));
                ran.fetch_add(1, Ordering::Relaxed);
            })
        })
        .expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("item 0 failed"));
        let ran = ran.into_inner();
        assert!(ran < 50, "{ran} of 199 items ran after item 0 panicked");
    }
}
