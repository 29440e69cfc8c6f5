//! Deterministic shard planning for multi-process sweep execution.
//!
//! A sweep's points are **embarrassingly parallel**, so a run can be split
//! across worker *processes* the same way [`SweepCtx::map`](crate::SweepCtx::map)
//! already splits it across threads. A [`Shard`] names one worker's slice
//! of the plan: with `count` shards, shard `index` owns every point whose
//! submission index `i` satisfies `i % count == index` (round-robin
//! striping, so expensive points that cluster at one end of a sweep — the
//! 64-processor configs usually come last — spread evenly over shards).
//!
//! Ownership is a pure function of `(submission index, shard count)`:
//! never of timing, hostnames or pids, which is what makes the sharded
//! path reproducible. The **merge substrate is the per-point result
//! cache**. A worker runs [`run_shard`](crate::run_shard) with the run
//! directory as its out dir: it computes its stripe of the experiment's
//! first `map` call exactly as an unsharded run computes every point,
//! writes each result into the run's `.cache/`, and stops. It renders
//! nothing and never waits for a peer.
//!
//! The coordinator then runs the experiment once more, unsharded, against
//! that cache: the **fold**. It is the only merge and the only recovery
//! path. Points a worker cached replay as hits; points a dead, failed or
//! never-started worker left out are computed as ordinary misses, as is
//! every point of any later `map` call, which no worker reaches. The fold
//! renders the artifacts in one process, so they are byte-identical to a
//! single-pool run. This is the `--jobs`-invariance discipline lifted one
//! level: artifacts may not depend on the shard count, just as they may
//! not depend on the thread count.

use std::fmt;
use std::str::FromStr;

/// One worker's slice of a sharded sweep: `index` of `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This worker's shard number, in `0..count`.
    pub index: usize,
    /// Total number of shards the sweep is split into.
    pub count: usize,
}

impl Shard {
    /// Builds a shard spec, validating `index < count` and `count >= 1`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for an empty or out-of-range spec.
    pub fn new(index: usize, count: usize) -> Result<Self, String> {
        if count == 0 {
            return Err("shard count must be at least 1".to_owned());
        }
        if index >= count {
            return Err(format!("shard index {index} out of range for {count} shard(s)"));
        }
        Ok(Self { index, count })
    }

    /// Whether this shard owns the point at submission index `i` of a
    /// `map` call (round-robin striping).
    #[must_use]
    pub fn owns(&self, i: usize) -> bool {
        i % self.count == self.index
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

impl FromStr for Shard {
    type Err = String;

    /// Parses the CLI spelling `index/count` (e.g. `0/4`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let Some((i, n)) = s.split_once('/') else {
            return Err(format!("malformed shard `{s}` (expected `index/count`, e.g. `0/4`)"));
        };
        let index =
            i.parse::<usize>().map_err(|_| format!("malformed shard index `{i}` in `{s}`"))?;
        let count =
            n.parse::<usize>().map_err(|_| format!("malformed shard count `{n}` in `{s}`"))?;
        Self::new(index, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_point_is_owned_by_exactly_one_shard() {
        for count in 1..=8 {
            for i in 0..1000 {
                let owners: Vec<usize> =
                    (0..count).filter(|&s| Shard::new(s, count).unwrap().owns(i)).collect();
                assert_eq!(owners.len(), 1, "point {i} with {count} shards: {owners:?}");
            }
        }
    }

    #[test]
    fn striping_is_balanced() {
        let count = 4;
        for s in 0..count {
            let shard = Shard::new(s, count).unwrap();
            let owned = (0..100).filter(|&i| shard.owns(i)).count();
            assert_eq!(owned, 25);
        }
    }

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        let s: Shard = "2/4".parse().unwrap();
        assert_eq!((s.index, s.count), (2, 4));
        assert_eq!(s.to_string(), "2/4");
        assert_eq!("0/1".parse::<Shard>().unwrap(), Shard::new(0, 1).unwrap());
        for bad in ["", "3", "4/4", "1/0", "a/4", "1/b", "-1/4"] {
            assert!(bad.parse::<Shard>().is_err(), "accepted `{bad}`");
        }
    }
}
