//! Metric primitives shared by the simulators: [`RunningMean`], the
//! streaming mean/min/max of a series (latencies and network delays).

use serde::{Deserialize, Serialize};

use crate::Time;

/// Streaming mean, minimum and maximum of an `f64` series.
///
/// # Examples
///
/// ```
/// use ringsim_types::stats::RunningMean;
///
/// let mut m = RunningMean::default();
/// m.push(1.0);
/// m.push(3.0);
/// assert_eq!(m.mean(), 2.0);
/// assert_eq!(m.count(), 2);
/// assert_eq!(m.min(), Some(1.0));
/// assert_eq!(m.max(), Some(3.0));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunningMean {
    count: u64,
    sum: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl RunningMean {
    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }

    /// Adds a [`Time`] sample, in nanoseconds.
    pub fn push_time_ns(&mut self, t: Time) {
        self.push(t.as_ns_f64());
    }

    /// Number of samples.
    #[must_use]
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples (0 with no samples).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Sum of the samples.
    #[must_use]
    pub const fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest sample seen, if any.
    #[must_use]
    pub const fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest sample seen, if any.
    #[must_use]
    pub const fn max(&self) -> Option<f64> {
        self.max
    }

    /// Merges another series into this one.
    pub fn merge(&mut self, other: &RunningMean) {
        self.count += other.count;
        self.sum += other.sum;
        if let Some(m) = other.min {
            self.min = Some(self.min.map_or(m, |s| s.min(m)));
        }
        if let Some(m) = other.max {
            self.max = Some(self.max.map_or(m, |s| s.max(m)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_mean_merge() {
        let mut a = RunningMean::default();
        let mut b = RunningMean::default();
        a.push(1.0);
        b.push(5.0);
        b.push(9.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.mean(), 5.0);
        assert_eq!(a.min(), Some(1.0));
        assert_eq!(a.max(), Some(9.0));
    }

    #[test]
    fn running_mean_empty() {
        let m = RunningMean::default();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.min(), None);
    }
}
