use serde::{Deserialize, Serialize};

use ringsim_cache::CacheConfig;
use ringsim_proto::ProtocolKind;
use ringsim_ring::RingConfig;
use ringsim_types::{ConfigError, Time};

/// Configuration of a complete ring-based system: interconnect, caches,
/// protocol and timing constants.
///
/// # Examples
///
/// ```
/// use ringsim_core::SystemConfig;
/// use ringsim_proto::ProtocolKind;
/// use ringsim_types::Time;
///
/// let cfg = SystemConfig::ring_500mhz(ProtocolKind::Snooping, 8)
///     .with_proc_cycle(Time::from_ns(20)); // 50 MIPS processors
/// cfg.validate().unwrap();
/// assert_eq!(cfg.mem_latency, Time::from_ns(140));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Coherence protocol run on the ring.
    pub protocol: ProtocolKind,
    /// Slotted-ring parameters.
    pub ring: RingConfig,
    /// Per-processor cache geometry.
    pub cache: CacheConfig,
    /// Processor cycle time (1–20 ns in the paper's sweeps).
    pub proc_cycle: Time,
    /// Local memory bank access time (fixed at 140 ns in the paper).
    pub mem_latency: Time,
    /// Time for a dirty cache to supply a block (the paper folds this into
    /// the same 140 ns bank time).
    pub supply_latency: Time,
    /// Cycles a requester waits before re-issuing a nacked snooping probe,
    /// in ring cycles.
    pub retry_backoff_cycles: u64,
    /// When `true`, each home's memory bank serialises accesses (queueing
    /// on top of the 140 ns service time). The paper assumes contention-free
    /// banks ("fixed at 140 nsec"); this knob ablates that assumption.
    pub model_bank_contention: bool,
}

impl SystemConfig {
    /// The paper's baseline: 500 MHz 32-bit ring, 128 KB caches, 140 ns
    /// memory, 50 MIPS (20 ns) processors. Override any other field in
    /// place, then check the result with [`validate`](Self::validate).
    #[must_use]
    pub fn ring_500mhz(protocol: ProtocolKind, nodes: usize) -> Self {
        Self {
            protocol,
            ring: RingConfig::standard_500mhz(nodes),
            cache: CacheConfig::paper_default(),
            proc_cycle: Time::from_ns(20),
            mem_latency: Time::from_ns(140),
            supply_latency: Time::from_ns(140),
            retry_backoff_cycles: 40,
            model_bank_contention: false,
        }
    }

    /// Same system on a 250 MHz ring.
    #[must_use]
    pub fn ring_250mhz(protocol: ProtocolKind, nodes: usize) -> Self {
        Self { ring: RingConfig::standard_250mhz(nodes), ..Self::ring_500mhz(protocol, nodes) }
    }

    /// Number of nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.ring.nodes
    }

    /// Builder-style processor cycle override.
    #[must_use]
    pub fn with_proc_cycle(mut self, proc_cycle: Time) -> Self {
        self.proc_cycle = proc_cycle;
        self
    }

    /// Builder-style MIPS override (`mips` million single-cycle
    /// instructions per second).
    ///
    /// # Panics
    ///
    /// Panics if `mips` is zero.
    #[must_use]
    pub fn with_mips(self, mips: u64) -> Self {
        assert!(mips > 0, "mips must be positive");
        self.with_proc_cycle(Time::from_ps(1_000_000 / mips))
    }

    /// Validates all parts.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found in the ring, cache or timing
    /// parameters.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.ring.validate()?;
        self.cache.validate()?;
        if self.ring.nodes > 64 {
            return Err(ConfigError::new("ring.nodes", "at most 64 nodes supported"));
        }
        if self.proc_cycle.is_zero() {
            return Err(ConfigError::new("proc_cycle", "must be non-zero"));
        }
        if !matches!(
            self.protocol,
            ringsim_proto::ProtocolKind::Snooping | ringsim_proto::ProtocolKind::Directory
        ) {
            return Err(ConfigError::new(
                "protocol",
                "the slotted-ring simulator runs snooping or directory; \
                 SCI runs on SciRingSystem, MESI/Dragon on BusSystem",
            ));
        }
        if self.mem_latency.is_zero() {
            return Err(ConfigError::new("mem_latency", "must be non-zero"));
        }
        if self.supply_latency.is_zero() {
            return Err(ConfigError::new("supply_latency", "must be non-zero"));
        }
        if self.cache.block_bytes != self.ring.block_bytes {
            return Err(ConfigError::new(
                "cache.block_bytes",
                "must match ring.block_bytes (one block per block slot)",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_valid() {
        SystemConfig::ring_500mhz(ProtocolKind::Snooping, 16).validate().unwrap();
        SystemConfig::ring_250mhz(ProtocolKind::Directory, 8).validate().unwrap();
    }

    #[test]
    fn mips_conversion() {
        let cfg = SystemConfig::ring_500mhz(ProtocolKind::Snooping, 8).with_mips(50);
        assert_eq!(cfg.proc_cycle, Time::from_ns(20));
        let cfg = cfg.with_mips(400);
        assert_eq!(cfg.proc_cycle, Time::from_ps(2_500));
    }

    #[test]
    fn block_size_mismatch_rejected() {
        let mut cfg = SystemConfig::ring_500mhz(ProtocolKind::Snooping, 8);
        cfg.cache.block_bytes = 32;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_more_than_64_nodes() {
        // Too many nodes for the directory bitmap.
        SystemConfig::ring_500mhz(ProtocolKind::Snooping, 64).validate().unwrap();
        assert!(SystemConfig::ring_500mhz(ProtocolKind::Snooping, 65).validate().is_err());
    }

    #[test]
    fn zero_times_rejected() {
        let mut cfg = SystemConfig::ring_500mhz(ProtocolKind::Snooping, 8);
        cfg.proc_cycle = Time::ZERO;
        assert!(cfg.validate().is_err());
    }
}
