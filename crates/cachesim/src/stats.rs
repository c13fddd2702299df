//! Simulation statistics: per-level hit/miss counts, the paper's
//! Fig. 9 L2-miss breakdown, and the cycle estimate.
//!
//! Every statistic is a count, so runs add: the statistics of
//! [`MemorySim::partial`](crate::MemorySim::partial) simulators sum
//! (`+=`) to the whole simulator's.

use std::ops::AddAssign;

/// Accesses and misses at one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Lookups performed at this level.
    pub accesses: u64,
    /// Lookups that missed.
    pub misses: u64,
}

impl LevelStats {
    /// Hits at this level.
    pub fn hits(&self) -> u64 {
        self.accesses - self.misses
    }

    /// Misses per kilo-instruction given the run's instruction count.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / instructions as f64
        }
    }

    /// Miss ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

impl AddAssign for LevelStats {
    fn add_assign(&mut self, other: Self) {
        self.accesses += other.accesses;
        self.misses += other.misses;
    }
}

/// Where L2 misses were served — the four stacked categories of the
/// paper's Fig. 9.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L2MissBreakdown {
    /// Served by the local socket's LLC with no snoop.
    pub l3_hits: u64,
    /// Served by another core's private cache in the same socket.
    pub snoops_local: u64,
    /// Served by the remote socket (remote LLC or remote core).
    pub snoops_remote: u64,
    /// Served from DRAM.
    pub off_chip: u64,
}

impl L2MissBreakdown {
    /// Total classified L2 misses.
    pub fn total(&self) -> u64 {
        self.l3_hits + self.snoops_local + self.snoops_remote + self.off_chip
    }

    /// The four categories as fractions of the total, in Fig. 9's
    /// stacking order (L3 hits, local snoops, remote snoops, off-chip).
    /// All zeros when no misses occurred.
    pub fn fractions(&self) -> [f64; 4] {
        let t = self.total();
        if t == 0 {
            return [0.0; 4];
        }
        let t = t as f64;
        [
            self.l3_hits as f64 / t,
            self.snoops_local as f64 / t,
            self.snoops_remote as f64 / t,
            self.off_chip as f64 / t,
        ]
    }
}

impl AddAssign for L2MissBreakdown {
    fn add_assign(&mut self, other: Self) {
        self.l3_hits += other.l3_hits;
        self.snoops_local += other.snoops_local;
        self.snoops_remote += other.snoops_remote;
        self.off_chip += other.off_chip;
    }
}

/// Aggregate statistics for one simulated run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Modeled instruction count (charged by the traced application).
    pub instructions: u64,
    /// L1 data cache.
    pub l1: LevelStats,
    /// Private L2.
    pub l2: LevelStats,
    /// Shared LLC. `misses` are off-chip accesses, matching the
    /// hardware counter the paper reads for L3 MPKI.
    pub l3: LevelStats,
    /// Classification of every L2 miss (Fig. 9).
    pub l2_breakdown: L2MissBreakdown,
    /// Estimated execution cycles from the latency model.
    pub cycles: u64,
}

impl SimStats {
    /// L1 / L2 / L3 MPKI triple (Fig. 8's three panels).
    pub fn mpki(&self) -> [f64; 3] {
        [
            self.l1.mpki(self.instructions),
            self.l2.mpki(self.instructions),
            self.l3.mpki(self.instructions),
        ]
    }
}

impl AddAssign for SimStats {
    fn add_assign(&mut self, other: Self) {
        self.instructions += other.instructions;
        self.l1 += other.l1;
        self.l2 += other.l2;
        self.l3 += other.l3;
        self.l2_breakdown += other.l2_breakdown;
        self.cycles += other.cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_stats_math() {
        let s = LevelStats {
            accesses: 1000,
            misses: 250,
        };
        assert_eq!(s.hits(), 750);
        assert_eq!(s.miss_ratio(), 0.25);
        assert_eq!(s.mpki(10_000), 25.0);
        assert_eq!(s.mpki(0), 0.0);
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let b = L2MissBreakdown {
            l3_hits: 10,
            snoops_local: 20,
            snoops_remote: 30,
            off_chip: 40,
        };
        assert_eq!(b.total(), 100);
        let f = b.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(f[3], 0.4);
    }

    #[test]
    fn empty_breakdown() {
        assert_eq!(L2MissBreakdown::default().fractions(), [0.0; 4]);
    }
}
