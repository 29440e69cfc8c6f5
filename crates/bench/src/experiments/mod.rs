//! One [`Experiment`] per paper table/figure, plus validation and
//! ablations, all registered in [`ALL`].
//!
//! Every experiment prints a human-readable table and writes JSON (and for
//! the figure sweeps, gnuplot `.dat`) artifacts through its
//! [`ringsim_sweep::SweepCtx`]; `ringsim experiments` drives the registry.

use ringsim_sweep::Experiment;

pub mod ablation;
pub mod block_sweep;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod future_work;
pub mod hierarchy;
pub mod ring_access;
pub mod sci_vs_fullmap;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod topology_sweep;
pub mod validate;
pub mod wide_ring;

/// Every experiment, in the order `ringsim experiments` runs them.
pub static ALL: [&dyn Experiment; 17] = [
    &table1::Table1,
    &table2::Table2,
    &table3::Table3,
    &table4::Table4,
    &fig3::Fig3,
    &fig4::Fig4,
    &fig5::Fig5,
    &fig6::Fig6,
    &validate::Validate,
    &ablation::Ablation,
    &future_work::FutureWork,
    &block_sweep::BlockSweep,
    &hierarchy::Hierarchy,
    &wide_ring::WideRing,
    &ring_access::RingAccess,
    &sci_vs_fullmap::SciVsFullmap,
    &topology_sweep::TopologySweep,
];

/// Looks an experiment up by registry name.
#[must_use]
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    ALL.into_iter().find(|e| e.name() == name)
}

/// The full registry, for front ends beyond `ringsim experiments` — its
/// `--list` output and the HTTP service's `GET /experiments` endpoint both
/// render name/description pairs from this slice.
#[must_use]
pub fn registry() -> &'static [&'static dyn Experiment] {
    &ALL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let mut names: Vec<&str> = ALL.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len());
        for e in ALL {
            assert!(find(e.name()).is_some());
            assert!(!e.description().is_empty());
        }
    }
}
