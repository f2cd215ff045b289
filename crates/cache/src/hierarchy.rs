//! Multi-level memory hierarchy geometry: L1 instruction + L1 data + L2
//! unified.
//!
//! The paper requires inclusion between the L1 caches and the unified L2,
//! which "decouples the behavior of the unified cache from the
//! data/instruction caches in the sense that the unified cache misses will
//! not be affected by the presence of the data/instruction caches.
//! Therefore, the unified cache misses may be obtained independently […] by
//! simulating the entire address trace." Each level is therefore
//! evaluated on its own stream, and this module holds only the design:
//! [`MemoryDesign`] names the three geometries and checks the inclusion
//! precondition, and [`Penalties`] prices the misses when a system's stall
//! cycles combine the levels (`mhe_core::system`).

use crate::config::CacheConfig;

/// Miss penalties in processor cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Penalties {
    /// Cycles to fill an L1 miss that hits in L2.
    pub l1_miss: u64,
    /// Additional cycles when the reference also misses in L2.
    pub l2_miss: u64,
}

impl Default for Penalties {
    fn default() -> Self {
        // Late-1990s embedded-system flavored defaults.
        Self { l1_miss: 10, l2_miss: 50 }
    }
}

/// Geometry of a whole memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryDesign {
    /// L1 instruction cache.
    pub icache: CacheConfig,
    /// L1 data cache.
    pub dcache: CacheConfig,
    /// L2 unified cache.
    pub ucache: CacheConfig,
}

impl MemoryDesign {
    /// Whether L2 capacity can uphold inclusion over both L1s (necessary
    /// condition: L2 at least as large as each L1, with line size no
    /// smaller).
    pub fn satisfies_inclusion(&self) -> bool {
        self.ucache.size_bytes() >= self.icache.size_bytes()
            && self.ucache.size_bytes() >= self.dcache.size_bytes()
            && self.ucache.line_words >= self.icache.line_words
            && self.ucache.line_words >= self.dcache.line_words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inclusion_check_considers_capacity_and_line_sizes() {
        let good = MemoryDesign {
            icache: CacheConfig::from_bytes(1024, 1, 32),
            dcache: CacheConfig::from_bytes(1024, 1, 32),
            ucache: CacheConfig::from_bytes(16 * 1024, 2, 64),
        };
        assert!(good.satisfies_inclusion());
        let small_l2 = MemoryDesign {
            icache: CacheConfig::from_bytes(16 * 1024, 2, 32),
            ucache: CacheConfig::from_bytes(8 * 1024, 2, 64),
            ..good
        };
        assert!(!small_l2.satisfies_inclusion());
        let short_l2_lines = MemoryDesign {
            icache: CacheConfig::from_bytes(1024, 1, 64),
            ucache: CacheConfig::from_bytes(16 * 1024, 2, 32),
            ..good
        };
        assert!(!short_l2_lines.satisfies_inclusion());
    }
}
