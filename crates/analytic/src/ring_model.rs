use ringsim_proto::ProtocolKind;
use ringsim_ring::RingConfig;
use ringsim_types::Time;

use crate::input::ModelInput;
use crate::{fixed_point, ModelOutput};

/// Analytical model of a cache-coherent slotted ring (snooping or full-map
/// directory).
///
/// Latency per transaction class = slot-alignment and contention waits
/// (geometric skip of busy slots) + ring travel (stage distances, with the
/// expected distance of a unicast hop taken as half a revolution) + the
/// fixed 140 ns memory / dirty-cache supply times. Slot contention is the
/// fixed point of the implied message rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingModel {
    ring: RingConfig,
    protocol: ProtocolKind,
    mem_latency: Time,
    supply_latency: Time,
    tolerate_writes: bool,
}

/// One transaction class: frequency, latency, slot occupancies, whether it
/// counts as a miss (vs upgrade) for reporting, and whether the processor
/// stalls for it (writes/upgrades stop blocking under write tolerance).
struct Class {
    freq: f64,
    latency_ns: f64,
    probe_cycles: f64,
    block_cycles: f64,
    is_miss: bool,
    is_write: bool,
}

impl RingModel {
    /// Creates the model with the paper's 140 ns memory and supply times.
    ///
    /// Only the paper's slotted-ring protocols are modelled:
    /// [`ProtocolKind::Snooping`] and [`ProtocolKind::Directory`]. Passing
    /// any other kind makes [`RingModel::evaluate`] panic.
    #[must_use]
    pub fn new(ring: RingConfig, protocol: ProtocolKind) -> Self {
        Self {
            ring,
            protocol,
            mem_latency: Time::from_ns(140),
            supply_latency: Time::from_ns(140),
            tolerate_writes: false,
        }
    }

    /// Enables the latency-tolerance scenario of paper §6: write misses and
    /// invalidations no longer stall the processor (write buffer / weak
    /// ordering), but their messages still load the ring.
    #[must_use]
    pub fn with_write_tolerance(mut self, on: bool) -> Self {
        self.tolerate_writes = on;
        self
    }

    /// Overrides the memory latency.
    #[must_use]
    pub fn with_mem_latency(mut self, t: Time) -> Self {
        self.mem_latency = t;
        self
    }

    /// The ring configuration the model describes.
    #[must_use]
    pub fn ring(&self) -> &RingConfig {
        &self.ring
    }

    /// Evaluates the model for `input` at the given processor cycle time.
    ///
    /// # Panics
    ///
    /// Panics if the ring configuration is invalid.
    #[must_use]
    pub fn evaluate(&self, input: &ModelInput, proc_cycle: Time) -> ModelOutput {
        let layout = self.ring.layout().expect("valid ring config");
        let tc = self.ring.clock_period.as_ns_f64();
        let s = layout.stages() as f64;
        let f_stages = layout.frame_stages() as f64;
        let n_probe =
            (layout.slot_count() - layout.slots_of_kind(ringsim_ring::SlotKind::Block)) as f64;
        let n_block = layout.slots_of_kind(ringsim_ring::SlotKind::Block) as f64;
        // Slots of a matching parity pass a node every `spacing` cycles.
        let ppf = self.ring.probe_slots_per_frame as f64;
        let probe_spacing = if self.ring.probe_slots_per_frame >= 2 {
            f_stages / (ppf / 2.0).floor().max(1.0)
        } else {
            f_stages
        };
        let block_spacing = f_stages / self.ring.block_slots_per_frame as f64;

        let mem = self.mem_latency.as_ns_f64();
        let sup = self.supply_latency.as_ns_f64();
        let tproc = proc_cycle.as_ns_f64();
        let compute = (1.0 + input.instr_per_data) * tproc;
        let fr = input.freqs;
        let procs = input.procs as f64;

        let out = fixed_point(|[rho_p, rho_b]: [f64; 2]| {
            // Mean wait for a free slot: half a spacing for alignment, plus
            // geometric skipping of busy slots.
            let w_p = tc * (probe_spacing / 2.0 + probe_spacing * rho_p / (1.0 - rho_p));
            let w_b = tc * (block_spacing / 2.0 + block_spacing * rho_b / (1.0 - rho_b));
            let ring_round = s * tc;
            let half = s / 2.0;

            let classes: Vec<Class> = match self.protocol {
                ProtocolKind::Snooping => {
                    let probe_round = w_p + ring_round;
                    vec![
                        Class {
                            freq: fr.private_miss,
                            latency_ns: mem,
                            probe_cycles: 0.0,
                            block_cycles: 0.0,
                            is_miss: true,
                            is_write: false,
                        },
                        Class {
                            freq: fr.read_clean_local,
                            latency_ns: mem,
                            probe_cycles: 0.0,
                            block_cycles: 0.0,
                            is_miss: true,
                            is_write: false,
                        },
                        Class {
                            freq: fr.read_clean_remote,
                            latency_ns: probe_round + mem + w_b,
                            probe_cycles: s,
                            block_cycles: half,
                            is_miss: true,
                            is_write: false,
                        },
                        Class {
                            freq: fr.read_dirty_1 + fr.read_dirty_2,
                            latency_ns: probe_round + sup + w_b,
                            probe_cycles: s,
                            block_cycles: half + half,
                            is_miss: true,
                            is_write: false,
                        },
                        Class {
                            freq: fr.write_nosharers_local + fr.write_sharers_local,
                            latency_ns: w_p + ring_round.max(mem),
                            probe_cycles: s,
                            block_cycles: 0.0,
                            is_miss: true,
                            is_write: true,
                        },
                        Class {
                            freq: fr.write_nosharers_remote + fr.write_sharers_remote,
                            latency_ns: probe_round + mem + w_b,
                            probe_cycles: s,
                            block_cycles: half,
                            is_miss: true,
                            is_write: true,
                        },
                        Class {
                            freq: fr.write_dirty_1 + fr.write_dirty_2,
                            latency_ns: probe_round + sup + w_b,
                            probe_cycles: s,
                            block_cycles: half,
                            is_miss: true,
                            is_write: true,
                        },
                        Class {
                            freq: fr.upgrade_nosharers_local + fr.upgrade_sharers_local,
                            latency_ns: w_p + ring_round,
                            probe_cycles: s,
                            block_cycles: 0.0,
                            is_miss: false,
                            is_write: true,
                        },
                        Class {
                            freq: fr.upgrade_nosharers_remote + fr.upgrade_sharers_remote,
                            latency_ns: w_p + ring_round + f_stages * tc,
                            probe_cycles: s,
                            block_cycles: 0.0,
                            is_miss: false,
                            is_write: true,
                        },
                        Class {
                            freq: fr.writeback_remote,
                            latency_ns: 0.0,
                            probe_cycles: 0.0,
                            block_cycles: half,
                            is_miss: false,
                            is_write: true,
                        },
                    ]
                }
                ProtocolKind::Directory => vec![
                    Class {
                        freq: fr.private_miss,
                        latency_ns: mem,
                        probe_cycles: 0.0,
                        block_cycles: 0.0,
                        is_miss: true,
                        is_write: false,
                    },
                    Class {
                        freq: fr.read_clean_local,
                        latency_ns: mem,
                        probe_cycles: 0.0,
                        block_cycles: 0.0,
                        is_miss: true,
                        is_write: false,
                    },
                    Class {
                        freq: fr.read_clean_remote,
                        latency_ns: w_p + w_b + ring_round + mem,
                        probe_cycles: half,
                        block_cycles: half,
                        is_miss: true,
                        is_write: false,
                    },
                    Class {
                        freq: fr.read_dirty_1 + fr.write_dirty_1,
                        latency_ns: 2.0 * w_p + w_b + ring_round + mem + sup,
                        probe_cycles: s,
                        block_cycles: half + half,
                        is_miss: true,
                        is_write: false,
                    },
                    Class {
                        freq: fr.read_dirty_2 + fr.write_dirty_2,
                        latency_ns: 2.0 * w_p + w_b + 2.0 * ring_round + mem + sup,
                        probe_cycles: 1.5 * s,
                        block_cycles: half + half,
                        is_miss: true,
                        is_write: false,
                    },
                    Class {
                        freq: fr.write_nosharers_local,
                        latency_ns: mem,
                        probe_cycles: 0.0,
                        block_cycles: 0.0,
                        is_miss: true,
                        is_write: true,
                    },
                    Class {
                        freq: fr.write_nosharers_remote,
                        latency_ns: w_p + w_b + ring_round + mem,
                        probe_cycles: half,
                        block_cycles: half,
                        is_miss: true,
                        is_write: true,
                    },
                    Class {
                        freq: fr.write_sharers_local,
                        latency_ns: mem + w_p + ring_round,
                        probe_cycles: s,
                        block_cycles: 0.0,
                        is_miss: true,
                        is_write: true,
                    },
                    Class {
                        freq: fr.write_sharers_remote,
                        latency_ns: 2.0 * w_p + w_b + 2.0 * ring_round + mem,
                        probe_cycles: 1.5 * s,
                        block_cycles: half,
                        is_miss: true,
                        is_write: true,
                    },
                    Class {
                        freq: fr.upgrade_nosharers_local,
                        latency_ns: mem,
                        probe_cycles: 0.0,
                        block_cycles: 0.0,
                        is_miss: false,
                        is_write: true,
                    },
                    Class {
                        freq: fr.upgrade_nosharers_remote,
                        latency_ns: 2.0 * w_p + ring_round + mem,
                        probe_cycles: s,
                        block_cycles: 0.0,
                        is_miss: false,
                        is_write: true,
                    },
                    Class {
                        freq: fr.upgrade_sharers_local,
                        latency_ns: mem + w_p + ring_round,
                        probe_cycles: s,
                        block_cycles: 0.0,
                        is_miss: false,
                        is_write: true,
                    },
                    Class {
                        freq: fr.upgrade_sharers_remote,
                        latency_ns: 3.0 * w_p + 2.0 * ring_round + mem,
                        probe_cycles: 2.0 * s,
                        block_cycles: 0.0,
                        is_miss: false,
                        is_write: true,
                    },
                    Class {
                        freq: fr.writeback_remote,
                        latency_ns: 0.0,
                        probe_cycles: 0.0,
                        block_cycles: half,
                        is_miss: false,
                        is_write: true,
                    },
                ],
                ProtocolKind::Sci
                | ProtocolKind::Msi
                | ProtocolKind::Mesi
                | ProtocolKind::Dragon => panic!(
                    "RingModel covers the paper's slotted-ring protocols \
                     (snooping/directory), not {:?}",
                    self.protocol
                ),
            };

            // Mean time per data reference: compute plus blocking stalls
            // (write-backs never block; writes and upgrades stop blocking
            // under write tolerance, though their traffic remains).
            let stall: f64 = classes
                .iter()
                .filter(|c| !(self.tolerate_writes && c.is_write))
                .map(|c| c.freq * c.latency_ns)
                .sum();
            let t_ref = compute + stall;
            let proc_util = compute / t_ref;

            // Implied slot occupancies: each node generates
            // `freq / t_ref` events/ns; every event occupies slot-cycles
            // for its travel; one slot provides one slot-cycle per tc.
            let probe_demand: f64 =
                classes.iter().map(|c| c.freq * c.probe_cycles).sum::<f64>() * procs / t_ref;
            let block_demand: f64 =
                classes.iter().map(|c| c.freq * c.block_cycles).sum::<f64>() * procs / t_ref;
            let rho_p_new = probe_demand * tc / n_probe;
            let rho_b_new = block_demand * tc / n_block;

            let miss_f: f64 = classes.iter().filter(|c| c.is_miss).map(|c| c.freq).sum();
            let miss_lat: f64 =
                classes.iter().filter(|c| c.is_miss).map(|c| c.freq * c.latency_ns).sum::<f64>()
                    / miss_f.max(1e-30);
            let upg_f: f64 =
                classes.iter().filter(|c| !c.is_miss && c.latency_ns > 0.0).map(|c| c.freq).sum();
            let upg_lat: f64 = classes
                .iter()
                .filter(|c| !c.is_miss && c.latency_ns > 0.0)
                .map(|c| c.freq * c.latency_ns)
                .sum::<f64>()
                / upg_f.max(1e-30);

            let net = (rho_p * n_probe + rho_b * n_block) / (n_probe + n_block);
            (
                [rho_p_new, rho_b_new],
                ModelOutput {
                    proc_util,
                    net_util: net,
                    probe_util: rho_p,
                    block_util: rho_b,
                    miss_latency_ns: miss_lat,
                    upgrade_latency_ns: upg_lat,
                    iterations: 0,
                    converged: false,
                },
            )
        });
        out
    }

    /// Evaluates a single sweep point at a whole-nanosecond processor
    /// cycle — the point-granular entry the parallel sweep engine fans out
    /// over.
    #[must_use]
    pub fn sweep_point(&self, input: &ModelInput, ns: u64) -> (Time, ModelOutput) {
        let t = Time::from_ns(ns);
        (t, self.evaluate(input, t))
    }

    /// Sweeps the processor cycle from `from` to `to` (inclusive, in whole
    /// nanoseconds) — the x-axis of Figures 3, 4 and 6.
    #[must_use]
    pub fn sweep(&self, input: &ModelInput, from_ns: u64, to_ns: u64) -> Vec<(Time, ModelOutput)> {
        (from_ns..=to_ns).map(|ns| self.sweep_point(input, ns)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::ClassFreqs;

    fn demo_input(procs: usize) -> ModelInput {
        ModelInput {
            procs,
            instr_per_data: 2.0,
            freqs: ClassFreqs {
                private_miss: 0.002,
                read_clean_local: 0.001,
                read_clean_remote: 0.012,
                read_dirty_1: 0.004,
                read_dirty_2: 0.003,
                write_nosharers_remote: 0.004,
                write_sharers_remote: 0.002,
                write_dirty_1: 0.002,
                write_dirty_2: 0.001,
                upgrade_nosharers_remote: 0.002,
                upgrade_sharers_remote: 0.004,
                writeback_remote: 0.004,
                ..ClassFreqs::default()
            },
        }
    }

    fn model(protocol: ProtocolKind, procs: usize) -> RingModel {
        RingModel::new(RingConfig::standard_500mhz(procs), protocol)
    }

    #[test]
    fn converges_and_is_sane() {
        for protocol in [ProtocolKind::Snooping, ProtocolKind::Directory] {
            let out = model(protocol, 16).evaluate(&demo_input(16), Time::from_ns(20));
            assert!(out.converged, "{protocol}: did not converge");
            assert!(out.proc_util > 0.0 && out.proc_util < 1.0);
            assert!(out.net_util > 0.0 && out.net_util < 1.0);
            assert!(out.miss_latency_ns > 140.0, "{protocol}: {}", out.miss_latency_ns);
        }
    }

    #[test]
    fn faster_processors_lower_utilisation_raise_ring_load() {
        let m = model(ProtocolKind::Snooping, 16);
        let slow = m.evaluate(&demo_input(16), Time::from_ns(20));
        let fast = m.evaluate(&demo_input(16), Time::from_ns(2));
        assert!(fast.proc_util < slow.proc_util);
        assert!(fast.net_util > slow.net_util);
        assert!(fast.miss_latency_ns >= slow.miss_latency_ns);
    }

    #[test]
    fn snooping_beats_directory_on_dirty_heavy_mixes() {
        // With a large 2-cycle miss population, the paper finds snooping's
        // position-independent single traversal wins at low load.
        let input = demo_input(16);
        let s = model(ProtocolKind::Snooping, 16).evaluate(&input, Time::from_ns(20));
        let d = model(ProtocolKind::Directory, 16).evaluate(&input, Time::from_ns(20));
        assert!(
            s.miss_latency_ns < d.miss_latency_ns,
            "snooping {} vs directory {}",
            s.miss_latency_ns,
            d.miss_latency_ns
        );
        // But snooping always loads the ring more (broadcast probes).
        assert!(s.net_util > d.net_util);
    }

    #[test]
    fn slower_ring_clock_raises_latency() {
        let fast = RingModel::new(RingConfig::standard_500mhz(16), ProtocolKind::Snooping)
            .evaluate(&demo_input(16), Time::from_ns(10));
        let slow = RingModel::new(RingConfig::standard_250mhz(16), ProtocolKind::Snooping)
            .evaluate(&demo_input(16), Time::from_ns(10));
        assert!(slow.miss_latency_ns > fast.miss_latency_ns);
        assert!(slow.proc_util < fast.proc_util);
    }

    #[test]
    fn sweep_covers_range() {
        let m = model(ProtocolKind::Directory, 8);
        let pts = m.sweep(&demo_input(8), 1, 20);
        assert_eq!(pts.len(), 20);
        assert_eq!(pts[0].0, Time::from_ns(1));
        assert_eq!(pts[19].0, Time::from_ns(20));
        // Utilisation is monotone non-decreasing in processor cycle time.
        for w in pts.windows(2) {
            assert!(w[1].1.proc_util >= w[0].1.proc_util - 1e-9);
        }
    }

    #[test]
    fn ring_never_saturates_on_modest_load() {
        // Paper §6: the ring stays below saturation in all simulated
        // configurations.
        let m = model(ProtocolKind::Snooping, 8);
        for ns in [1u64, 2, 5, 10, 20] {
            let out = m.evaluate(&demo_input(8), Time::from_ns(ns));
            assert!(out.net_util < 0.9, "{ns} ns: util {}", out.net_util);
        }
    }
}
