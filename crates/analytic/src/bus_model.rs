use ringsim_bus::BusConfig;
use ringsim_types::Time;

use crate::input::ModelInput;
use crate::{fixed_point, ModelOutput};

/// Analytical model of the split-transaction snooping bus.
///
/// The bus is an exclusive FIFO-served resource; the mean queueing delay per
/// grant uses the M/M/1-style approximation `W = ρ/(1-ρ) · x̄` with `x̄` the
/// mean grant length. Every miss broadcasts a request phase; remote clean
/// misses and dirty misses add a response phase; upgrades are address-only
/// transactions; remote write-backs add a data transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusModel {
    bus: BusConfig,
    mem_latency: Time,
    supply_latency: Time,
    tolerate_writes: bool,
}

struct Class {
    freq: f64,
    latency_ns: f64,
    bus_ns_addr: f64,
    bus_ns_data: f64,
    grants: f64,
    is_miss: bool,
    is_write: bool,
}

impl BusModel {
    /// Creates the model with the paper's 140 ns memory and supply times.
    #[must_use]
    pub fn new(bus: BusConfig) -> Self {
        Self {
            bus,
            mem_latency: Time::from_ns(140),
            supply_latency: Time::from_ns(140),
            tolerate_writes: false,
        }
    }

    /// Enables the latency-tolerance scenario of paper §6 (write buffer /
    /// weak ordering): writes and invalidations no longer stall the
    /// processor but still occupy the bus — which the paper predicts is
    /// self-defeating near saturation.
    #[must_use]
    pub fn with_write_tolerance(mut self, on: bool) -> Self {
        self.tolerate_writes = on;
        self
    }

    /// The bus configuration the model describes.
    #[must_use]
    pub fn bus(&self) -> &BusConfig {
        &self.bus
    }

    /// Evaluates the model for `input` at the given processor cycle time.
    #[must_use]
    pub fn evaluate(&self, input: &ModelInput, proc_cycle: Time) -> ModelOutput {
        let tb = self.bus.clock_period.as_ns_f64();
        let req = self.bus.request_cycles as f64 * tb;
        let resp = self.bus.response_cycles() as f64 * tb;
        let inv = self.bus.inval_cycles as f64 * tb;
        let mem = self.mem_latency.as_ns_f64();
        let sup = self.supply_latency.as_ns_f64();
        let compute = (1.0 + input.instr_per_data) * proc_cycle.as_ns_f64();
        let fr = input.freqs;
        let procs = input.procs as f64;

        fixed_point(|[rho]: [f64; 1]| {
            // Per-grant queueing delay.
            let classes = |w: f64| -> Vec<Class> {
                let local_miss = w + req + mem;
                let remote_clean = w + req + mem + w + resp;
                let dirty = w + req + sup + w + resp;
                vec![
                    Class {
                        freq: fr.private_miss + fr.read_clean_local,
                        latency_ns: local_miss,
                        bus_ns_addr: req,
                        bus_ns_data: 0.0,
                        grants: 1.0,
                        is_miss: true,
                        is_write: false,
                    },
                    Class {
                        freq: fr.write_nosharers_local + fr.write_sharers_local,
                        latency_ns: local_miss,
                        bus_ns_addr: req,
                        bus_ns_data: 0.0,
                        grants: 1.0,
                        is_miss: true,
                        is_write: true,
                    },
                    Class {
                        freq: fr.read_clean_remote,
                        latency_ns: remote_clean,
                        bus_ns_addr: req,
                        bus_ns_data: resp,
                        grants: 2.0,
                        is_miss: true,
                        is_write: false,
                    },
                    Class {
                        freq: fr.write_nosharers_remote + fr.write_sharers_remote,
                        latency_ns: remote_clean,
                        bus_ns_addr: req,
                        bus_ns_data: resp,
                        grants: 2.0,
                        is_miss: true,
                        is_write: true,
                    },
                    Class {
                        freq: fr.read_dirty_1 + fr.read_dirty_2,
                        latency_ns: dirty,
                        bus_ns_addr: req,
                        bus_ns_data: resp,
                        grants: 2.0,
                        is_miss: true,
                        is_write: false,
                    },
                    Class {
                        freq: fr.write_dirty_1 + fr.write_dirty_2,
                        latency_ns: dirty,
                        bus_ns_addr: req,
                        bus_ns_data: resp,
                        grants: 2.0,
                        is_miss: true,
                        is_write: true,
                    },
                    Class {
                        freq: fr.upgrade_nosharers_local
                            + fr.upgrade_nosharers_remote
                            + fr.upgrade_sharers_local
                            + fr.upgrade_sharers_remote,
                        latency_ns: w + inv,
                        bus_ns_addr: inv,
                        bus_ns_data: 0.0,
                        grants: 1.0,
                        is_miss: false,
                        is_write: true,
                    },
                    Class {
                        freq: fr.writeback_remote,
                        latency_ns: 0.0,
                        bus_ns_addr: 0.0,
                        bus_ns_data: resp,
                        grants: 1.0,
                        is_miss: false,
                        is_write: true,
                    },
                ]
            };
            // Mean grant length from the zero-wait class mix (independent
            // of w).
            let base = classes(0.0);
            let total_bus: f64 =
                base.iter().map(|c| c.freq * (c.bus_ns_addr + c.bus_ns_data)).sum();
            let total_grants: f64 = base.iter().map(|c| c.freq * c.grants).sum();
            let xbar = if total_grants > 0.0 { total_bus / total_grants } else { 0.0 };
            let w = rho / (1.0 - rho) * xbar;
            let classes = classes(w);

            let stall: f64 = classes
                .iter()
                .filter(|c| !(self.tolerate_writes && c.is_write))
                .map(|c| c.freq * c.latency_ns)
                .sum();
            let t_ref = compute + stall;
            let proc_util = compute / t_ref;

            let addr_demand: f64 =
                classes.iter().map(|c| c.freq * c.bus_ns_addr).sum::<f64>() * procs / t_ref;
            let data_demand: f64 =
                classes.iter().map(|c| c.freq * c.bus_ns_data).sum::<f64>() * procs / t_ref;
            let rho_new = addr_demand + data_demand;

            let miss_f: f64 = classes.iter().filter(|c| c.is_miss).map(|c| c.freq).sum();
            let miss_lat =
                classes.iter().filter(|c| c.is_miss).map(|c| c.freq * c.latency_ns).sum::<f64>()
                    / miss_f.max(1e-30);
            let upg_f = fr.upgrade_total();
            let upg_lat = if upg_f > 0.0 { w + inv } else { 0.0 };

            (
                [rho_new],
                ModelOutput {
                    proc_util,
                    net_util: rho,
                    probe_util: rho
                        * if addr_demand + data_demand > 0.0 {
                            addr_demand / (addr_demand + data_demand)
                        } else {
                            0.0
                        },
                    block_util: rho
                        * if addr_demand + data_demand > 0.0 {
                            data_demand / (addr_demand + data_demand)
                        } else {
                            0.0
                        },
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

    fn busy_input(procs: usize) -> ModelInput {
        ModelInput {
            procs,
            instr_per_data: 2.0,
            freqs: ClassFreqs {
                private_miss: 0.002,
                read_clean_remote: 0.015,
                read_dirty_1: 0.005,
                write_nosharers_remote: 0.005,
                upgrade_sharers_remote: 0.005,
                writeback_remote: 0.005,
                ..ClassFreqs::default()
            },
        }
    }

    #[test]
    fn converges_and_is_sane() {
        let m = BusModel::new(BusConfig::bus_100mhz(8));
        let out = m.evaluate(&busy_input(8), Time::from_ns(20));
        assert!(out.converged);
        assert!(out.proc_util > 0.0 && out.proc_util < 1.0);
        assert!(out.net_util > 0.0 && out.net_util <= 1.0);
        assert!(out.miss_latency_ns > mem_floor());
    }

    fn mem_floor() -> f64 {
        140.0
    }

    #[test]
    fn saturates_with_many_fast_processors() {
        let m = BusModel::new(BusConfig::bus_50mhz(32));
        let out = m.evaluate(&busy_input(32), Time::from_ns(2));
        assert!(out.net_util > 0.95, "util {}", out.net_util);
        assert!(out.proc_util < 0.3, "proc util {}", out.proc_util);
        // Latency explodes at saturation.
        assert!(out.miss_latency_ns > 1_000.0);
    }

    #[test]
    fn faster_bus_clock_helps() {
        let slow =
            BusModel::new(BusConfig::bus_50mhz(16)).evaluate(&busy_input(16), Time::from_ns(5));
        let fast =
            BusModel::new(BusConfig::bus_100mhz(16)).evaluate(&busy_input(16), Time::from_ns(5));
        assert!(fast.proc_util > slow.proc_util);
        assert!(fast.miss_latency_ns < slow.miss_latency_ns);
    }

    #[test]
    fn bus_latency_constant_until_contention() {
        // With a single light processor pair the latency is near the
        // contention-free floor: request + mem + response.
        let mut input = busy_input(2);
        input.freqs = ClassFreqs { read_clean_remote: 0.0005, ..ClassFreqs::default() };
        let cfg = BusConfig::bus_100mhz(2);
        let m = BusModel::new(cfg);
        let out = m.evaluate(&input, Time::from_ns(20));
        let floor = (cfg.request_cycles + cfg.response_cycles()) as f64
            * cfg.clock_period.as_ns_f64()
            + 140.0;
        assert!((out.miss_latency_ns - floor).abs() < 5.0, "{} vs {floor}", out.miss_latency_ns);
    }

    #[test]
    fn sweep_monotone() {
        // Near saturation the damped fixed point leaves small numerical
        // ripples, so allow a tolerance proportional to the value.
        let m = BusModel::new(BusConfig::bus_100mhz(16));
        let pts = m.sweep(&busy_input(16), 1, 20);
        for w in pts.windows(2) {
            assert!(
                w[1].1.proc_util >= w[0].1.proc_util * 0.98,
                "{} then {}",
                w[0].1.proc_util,
                w[1].1.proc_util
            );
        }
        // And the sweep endpoints are unambiguous.
        assert!(pts[19].1.proc_util > pts[0].1.proc_util);
    }
}
