use ringsim_ring::RingTopology;
use ringsim_types::{ConfigError, Time};

use crate::input::ModelInput;
use crate::{fixed_point, ModelOutput};

/// Analytical model of a two-level hierarchy of snooping slotted rings
/// (the Hector/KSR1 direction discussed in the paper's related work, §5).
///
/// Transactions whose home is node-local cost only the memory access.
/// Remote transactions split by `locality` — the probability that the home
/// (and any dirty copy) lives in the requester's local ring:
///
/// * **intra-ring**: one local-ring probe revolution + access + a half-ring
///   reply, exactly like the flat snooping model but on the short ring;
/// * **inter-ring**: the probe does a full local revolution (reaching the
///   inter-ring interface), a full global revolution (snooped by every
///   IRI's filter directory), and a full revolution of the responding
///   ring; the reply travels half of each.
///
/// Contention is a fixed point over four slot pools: local probe, local
/// block, global probe and global block. In [`ModelOutput`], `probe_util`
/// reports the *local* rings' combined slot utilisation and `block_util`
/// the *global* ring's (documented re-purposing for the hierarchy).
#[derive(Debug, Clone, PartialEq)]
pub struct HierRingModel {
    topo: RingTopology,
    locality: f64,
    mem_latency: Time,
    supply_latency: Time,
    tolerate_writes: bool,
}

impl HierRingModel {
    /// Creates the model of a two-level `topo` with uniform home placement
    /// (locality `1/k`).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] unless `topo` has exactly two levels: the
    /// model's slot pools are one level of local rings and one global ring.
    pub fn new(topo: RingTopology) -> Result<Self, ConfigError> {
        if topo.levels() != 2 {
            return Err(ConfigError::new("levels", "the hierarchy model is exactly two levels"));
        }
        let locality = topo.uniform_locality();
        Ok(Self {
            topo,
            locality,
            mem_latency: Time::from_ns(140),
            supply_latency: Time::from_ns(140),
            tolerate_writes: false,
        })
    }

    /// Overrides the fraction of remote transactions that stay within the
    /// requester's local ring (clamped to `[0, 1]`); models software page
    /// placement with cluster affinity.
    #[must_use]
    pub fn with_locality(mut self, locality: f64) -> Self {
        self.locality = locality.clamp(0.0, 1.0);
        self
    }

    /// Enables the §6 write-tolerance scenario (see
    /// [`crate::RingModel::with_write_tolerance`]).
    #[must_use]
    pub fn with_write_tolerance(mut self, on: bool) -> Self {
        self.tolerate_writes = on;
        self
    }

    /// Evaluates the model at a processor cycle time.
    #[must_use]
    pub fn evaluate(&self, input: &ModelInput, proc_cycle: Time) -> ModelOutput {
        let tc = self.topo.base().clock_period.as_ns_f64();
        let s_l = self.topo.layout(0).stages() as f64;
        let s_g = self.topo.layout(1).stages() as f64;
        let f_stages = self.topo.base().frame_stages() as f64;
        let rings = self.topo.leaf_rings() as f64;
        // Slot pools: every local ring contributes its slots; demand is
        // spread evenly (symmetric workload).
        let block_slots_per_frame = self.topo.base().block_slots_per_frame as f64;
        let probe_slots_per_frame = self.topo.base().probe_slots_per_frame as f64;
        let frames_l = s_l / f_stages;
        let frames_g = s_g / f_stages;
        let n_lp = frames_l * probe_slots_per_frame * rings;
        let n_lb = frames_l * block_slots_per_frame * rings;
        let n_gp = frames_g * probe_slots_per_frame;
        let n_gb = frames_g * block_slots_per_frame;

        let mem = self.mem_latency.as_ns_f64();
        let sup = self.supply_latency.as_ns_f64();
        let compute = (1.0 + input.instr_per_data) * proc_cycle.as_ns_f64();
        let fr = input.freqs;
        let procs = input.procs as f64;
        let loc = self.locality;

        // Per-data-ref frequencies of the flat classes, re-grouped.
        let f_node_local = fr.private_miss
            + fr.read_clean_local
            + fr.write_nosharers_local
            + fr.upgrade_nosharers_local;
        let f_read_remote = fr.read_clean_remote + fr.read_dirty_1 + fr.read_dirty_2;
        let f_write_remote = fr.write_nosharers_remote
            + fr.write_sharers_remote
            + fr.write_sharers_local
            + fr.write_dirty_1
            + fr.write_dirty_2;
        let dirty_frac = {
            let dirty = fr.read_dirty_1 + fr.read_dirty_2 + fr.write_dirty_1 + fr.write_dirty_2;
            let all = f_read_remote + f_write_remote;
            if all > 0.0 {
                dirty / all
            } else {
                0.0
            }
        };
        let f_upgrade =
            fr.upgrade_nosharers_remote + fr.upgrade_sharers_remote + fr.upgrade_sharers_local;
        let f_wb = fr.writeback_remote;

        fixed_point(|[r_lp, r_lb, r_gp, r_gb]: [f64; 4]| {
            let probe_spacing = f_stages / (probe_slots_per_frame / 2.0).max(1.0);
            let block_spacing = f_stages / block_slots_per_frame;
            let w_lp = tc * (probe_spacing / 2.0 + probe_spacing * r_lp / (1.0 - r_lp));
            let w_lb = tc * (block_spacing / 2.0 + block_spacing * r_lb / (1.0 - r_lb));
            let w_gp = tc * (probe_spacing / 2.0 + probe_spacing * r_gp / (1.0 - r_gp));
            let w_gb = tc * (block_spacing / 2.0 + block_spacing * r_gb / (1.0 - r_gb));

            let rt_l = s_l * tc;
            let rt_g = s_g * tc;
            let access = mem * (1.0 - dirty_frac) + sup * dirty_frac;

            // Latencies.
            let intra_miss = w_lp + rt_l + access + w_lb;
            let inter_miss = w_lp + rt_l + w_gp + rt_g + w_lp + rt_l + access + w_lb + w_gb;
            let intra_upg = w_lp + rt_l + f_stages * tc;
            let inter_upg = w_lp + rt_l + w_gp + rt_g + w_lp + rt_l + f_stages * tc;
            let miss_remote_lat = loc * intra_miss + (1.0 - loc) * inter_miss;
            let upg_lat = loc * intra_upg + (1.0 - loc) * inter_upg;

            let f_miss = f_node_local + f_read_remote + f_write_remote;
            let write_stall = if self.tolerate_writes { 0.0 } else { 1.0 };
            let stall = f_node_local * mem
                + f_read_remote * miss_remote_lat
                + f_write_remote * miss_remote_lat * write_stall
                + f_upgrade * upg_lat * write_stall;
            let t_ref = compute + stall;
            let proc_util = compute / t_ref;

            // Occupancies (stage-cycles per transaction).
            let f_remote = f_read_remote + f_write_remote;
            let probe_local_cycles = f_remote * (loc * s_l + (1.0 - loc) * 2.0 * s_l)
                + f_upgrade * (loc * s_l + (1.0 - loc) * 2.0 * s_l);
            let probe_global_cycles = (f_remote + f_upgrade) * (1.0 - loc) * s_g;
            let block_local_cycles = f_remote * (loc * s_l / 2.0 + (1.0 - loc) * s_l)
                + f_wb * (loc * s_l / 2.0 + (1.0 - loc) * s_l);
            let block_global_cycles = (f_remote + f_wb) * (1.0 - loc) * s_g / 2.0;

            let rate = procs / t_ref; // transactions per ns per class unit
            let r_lp_new = probe_local_cycles * rate * tc / n_lp;
            let r_lb_new = block_local_cycles * rate * tc / n_lb;
            let r_gp_new = probe_global_cycles * rate * tc / n_gp;
            let r_gb_new = block_global_cycles * rate * tc / n_gb;

            let miss_lat = if f_miss > 0.0 {
                (f_node_local * mem + (f_read_remote + f_write_remote) * miss_remote_lat) / f_miss
            } else {
                0.0
            };
            let local_util = (r_lp * n_lp + r_lb * n_lb) / (n_lp + n_lb);
            let global_util = (r_gp * n_gp + r_gb * n_gb) / (n_gp + n_gb);
            let net = (local_util * (n_lp + n_lb) + global_util * (n_gp + n_gb))
                / (n_lp + n_lb + n_gp + n_gb);
            (
                [r_lp_new, r_lb_new, r_gp_new, r_gb_new],
                ModelOutput {
                    proc_util,
                    net_util: net,
                    probe_util: local_util,
                    block_util: global_util,
                    miss_latency_ns: miss_lat,
                    upgrade_latency_ns: upg_lat,
                    iterations: 0,
                    converged: false,
                },
            )
        })
    }

    /// Evaluates a single sweep point at a whole-nanosecond processor
    /// cycle — the point-granular entry the parallel sweep engine fans out
    /// over.
    #[must_use]
    pub fn sweep_point(&self, input: &ModelInput, ns: u64) -> (Time, ModelOutput) {
        let t = Time::from_ns(ns);
        (t, self.evaluate(input, t))
    }

    /// Sweeps the processor cycle (inclusive, whole nanoseconds).
    #[must_use]
    pub fn sweep(&self, input: &ModelInput, from_ns: u64, to_ns: u64) -> Vec<(Time, ModelOutput)> {
        (from_ns..=to_ns).map(|ns| self.sweep_point(input, ns)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::ClassFreqs;
    use crate::RingModel;
    use ringsim_proto::ProtocolKind;
    use ringsim_ring::RingConfig;

    fn input64() -> ModelInput {
        ModelInput {
            procs: 64,
            instr_per_data: 1.0,
            freqs: ClassFreqs {
                private_miss: 0.003,
                read_clean_remote: 0.02,
                read_dirty_1: 0.005,
                read_dirty_2: 0.004,
                write_nosharers_remote: 0.004,
                upgrade_sharers_remote: 0.004,
                writeback_remote: 0.005,
                ..ClassFreqs::default()
            },
        }
    }

    fn model(rings: usize, per: usize) -> HierRingModel {
        HierRingModel::new(RingTopology::two_level(rings, per).unwrap()).unwrap()
    }

    #[test]
    fn converges_and_is_sane() {
        let out = model(8, 8).evaluate(&input64(), Time::from_ns(10));
        assert!(out.converged);
        assert!(out.proc_util > 0.0 && out.proc_util < 1.0);
        assert!(out.miss_latency_ns > 140.0);
        assert!(out.net_util > 0.0 && out.net_util < 1.0);
    }

    #[test]
    fn locality_helps() {
        let uniform = model(8, 8).evaluate(&input64(), Time::from_ns(5));
        let clustered = model(8, 8).with_locality(0.9).evaluate(&input64(), Time::from_ns(5));
        assert!(clustered.proc_util > uniform.proc_util);
        assert!(clustered.miss_latency_ns < uniform.miss_latency_ns);
    }

    #[test]
    fn hierarchy_beats_flat_ring_at_64_processors() {
        // Three short revolutions beat one 200-stage revolution even with
        // uniform placement; with locality the gap widens.
        let input = input64();
        let flat = RingModel::new(RingConfig::standard_500mhz(64), ProtocolKind::Snooping)
            .evaluate(&input, Time::from_ns(10));
        let hier = model(8, 8).evaluate(&input, Time::from_ns(10));
        assert!(
            hier.miss_latency_ns < flat.miss_latency_ns,
            "hier {} vs flat {}",
            hier.miss_latency_ns,
            flat.miss_latency_ns
        );
    }

    #[test]
    fn global_ring_is_the_hierarchys_bottleneck() {
        // With low locality and fast processors, the global ring loads up
        // much more than the local rings.
        let out = model(8, 8).with_locality(0.1).evaluate(&input64(), Time::from_ns(2));
        assert!(
            out.block_util > out.probe_util,
            "global {} <= local {}",
            out.block_util,
            out.probe_util
        );
    }

    #[test]
    fn write_tolerance_reduces_stall() {
        let mut input = input64();
        input.procs = 32;
        let base = model(4, 8).evaluate(&input, Time::from_ns(5));
        let tol = model(4, 8).with_write_tolerance(true).evaluate(&input, Time::from_ns(5));
        assert!(tol.proc_util > base.proc_util);
    }

    #[test]
    fn only_two_level_trees_are_modelled() {
        assert!(HierRingModel::new(RingTopology::three_level(2, 2, 2).unwrap()).is_err());
        assert!(HierRingModel::new(RingTopology::flat(8).unwrap()).is_err());
    }
}
