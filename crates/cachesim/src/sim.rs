//! The full memory hierarchy simulator.
//!
//! Geometry: per-core private L1 and L2 (L2 inclusive of L1), one
//! shared LLC per socket, and a directory tracking which cores hold
//! each block so every L2 miss can be classified the way the paper's
//! Fig. 9 does (L3 hit / intra-socket snoop / cross-socket snoop /
//! off-chip). Writes to blocks shared by other cores trigger
//! invalidations (RFO), which is what makes push-based applications
//! (PRD, SSSP) generate the coherence traffic the paper measures.
//!
//! # Partitions
//!
//! Every level indexes its sets by the top bits of one block hash (see
//! [`crate::cache`]), so the top `m` bits, with `2^m` the smallest set
//! count ([`SimConfig::partitions`]), name a partition that contains
//! everything an access can touch: its block's set at every level, the
//! victims those sets evict (which share the set), other cores' copies
//! of the block, and its directory entry. Partitions therefore evolve
//! independently, and [`MemorySim::partial`] simulators that split them
//! among themselves report statistics summing exactly to one whole
//! simulator's. This holds only while every level's set index refines
//! the same partitions; a change to set indexing must keep that.

use crate::cache::{partition, SetAssocCache};
use crate::config::{LatencyModel, SimConfig, MAX_CORES};
use crate::layout::{AccessPattern, ArrayId, MemoryLayout};
use crate::stats::SimStats;
use crate::BLOCK_BYTES;

/// Directory entry: which cores hold the block, and whether one of
/// them holds it dirty.
#[derive(Debug, Clone, Copy)]
struct DirEntry {
    /// Bitmask over cores with the block in their private caches.
    sharers: u16,
    /// Core holding the block modified; `NO_OWNER` if clean.
    dirty_owner: u8,
}

const NO_OWNER: u8 = u8::MAX;

impl DirEntry {
    /// A block no core holds.
    const UNCACHED: DirEntry = DirEntry {
        sharers: 0,
        dirty_owner: NO_OWNER,
    };
}

/// Where an access was ultimately served; indexes the cycle-cost
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServePoint {
    L1,
    L2,
    L3,
    SnoopLocal,
    SnoopRemote,
    Memory,
}

/// Cycles charged per access, by access pattern and serve point.
type CostTable = [[u64; 6]; 2];

/// The trace-driven multi-core memory hierarchy simulator.
///
/// Drive it through the [`crate::tracer::Tracer`] interface (or the
/// inherent [`MemorySim::read`] / [`MemorySim::write`] /
/// [`MemorySim::instr`] methods) and read the results from
/// [`MemorySim::stats`].
#[derive(Debug)]
pub struct MemorySim {
    config: SimConfig,
    layout: MemoryLayout,
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    llc: Vec<SetAssocCache>,
    /// One entry per block of the layout, indexed by block number.
    directory: Vec<DirEntry>,
    /// Socket of each core.
    socket_of: [usize; MAX_CORES],
    /// Cores of each socket, as sharer masks.
    socket_cores: [u16; MAX_CORES],
    cost: CostTable,
    /// Whether this simulator owns each set partition (all of them
    /// unless built by [`MemorySim::partial`]).
    owned: Vec<bool>,
    /// Whether [`MemorySim::instr`] counts (share 0 only, so the
    /// shares of a trace count its instructions once).
    charges_instr: bool,
    stats: SimStats,
}

impl MemorySim {
    /// Creates a simulator for the given configuration and address
    /// layout.
    ///
    /// # Panics
    ///
    /// Panics if the configuration requests more than 16 cores (the
    /// directory stores sharer sets as 16-bit masks) or if cores do not
    /// divide evenly across sockets.
    pub fn new(config: SimConfig, layout: MemoryLayout) -> Self {
        Self::partial(config, layout, 0, 1)
    }

    /// A simulator restricted to share `share` of `shares`: the set
    /// partitions `p` with `p % shares == share` (see the module docs).
    /// It ignores every access to a block outside them, and only share
    /// 0 counts instructions, so `shares` simulators fed the same trace
    /// report statistics that sum exactly to [`MemorySim::new`]'s.
    /// Shares beyond [`SimConfig::partitions`] own nothing.
    ///
    /// # Panics
    ///
    /// Panics if `share >= shares`, and as [`MemorySim::new`] does.
    pub fn partial(config: SimConfig, layout: MemoryLayout, share: usize, shares: usize) -> Self {
        assert!(share < shares, "share {share} of {shares}");
        assert!(
            config.cores >= 1 && config.cores <= MAX_CORES,
            "1..={MAX_CORES} cores supported"
        );
        let _ = config.cores_per_socket(); // validates divisibility
        let socket_of = std::array::from_fn(|core| config.socket_of(core));
        let socket_cores = std::array::from_fn(|socket| {
            (0..config.cores)
                .filter(|&core| config.socket_of(core) == socket)
                .fold(0, |mask, core| mask | 1 << core)
        });
        // Blocks handed out by the layout start at 1 (address 0 is
        // never valid) and stay below this bound.
        let num_blocks = (layout.total_bytes() / BLOCK_BYTES + 2) as usize;
        MemorySim {
            l1: (0..config.cores)
                .map(|_| SetAssocCache::new(config.l1_bytes, config.l1_ways))
                .collect(),
            l2: (0..config.cores)
                .map(|_| SetAssocCache::new(config.l2_bytes, config.l2_ways))
                .collect(),
            llc: (0..config.sockets)
                .map(|_| SetAssocCache::new(config.llc_bytes, config.llc_ways))
                .collect(),
            directory: vec![DirEntry::UNCACHED; num_blocks],
            socket_of,
            socket_cores,
            cost: cost_table(&config.latency),
            owned: (0..config.partitions())
                .map(|p| p % shares == share)
                .collect(),
            charges_instr: share == 0,
            config,
            layout,
            stats: SimStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The address layout in use.
    pub fn layout(&self) -> &MemoryLayout {
        &self.layout
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Charges `count` modeled instructions executed by a core.
    /// Instructions contribute `count / 2` base cycles (IPC 2 when not
    /// memory-stalled). Partial simulators other than share 0 ignore
    /// them.
    pub fn instr(&mut self, count: u64) {
        if self.charges_instr {
            self.stats.instructions += count;
            self.stats.cycles += count / 2;
        }
    }

    /// Simulates a read of `array[index]` by `core` (nothing, if its
    /// block lies outside this simulator's partitions).
    pub fn read(&mut self, core: usize, array: ArrayId, index: usize) {
        let addr = self.layout.addr(array, index);
        let pattern = self.layout.pattern(array);
        self.access(core, addr / BLOCK_BYTES, false, pattern);
    }

    /// Simulates a write of `array[index]` by `core` (nothing, if its
    /// block lies outside this simulator's partitions).
    pub fn write(&mut self, core: usize, array: ArrayId, index: usize) {
        let addr = self.layout.addr(array, index);
        let pattern = self.layout.pattern(array);
        self.access(core, addr / BLOCK_BYTES, true, pattern);
    }

    fn access(&mut self, core: usize, block: u64, write: bool, pattern: AccessPattern) {
        debug_assert!(core < self.config.cores, "core {core} out of range");
        if !self.owned[partition(block, self.owned.len())] {
            return;
        }
        let served = self.access_inner(core, block, write);
        self.charge(served, pattern);
    }

    fn access_inner(&mut self, core: usize, block: u64, write: bool) -> ServePoint {
        let dir_idx = block as usize;

        // A write to a block other cores hold must invalidate them
        // (RFO), even if our own copy is an L1 hit. This is the source
        // of push-application coherence traffic.
        if write {
            let entry = self.directory[dir_idx];
            let others = entry.sharers & !(1u16 << core);
            if others != 0 {
                return self.rfo(core, block, dir_idx, others, entry);
            }
        }

        // L1.
        self.stats.l1.accesses += 1;
        let r1 = self.l1[core].access_block(block, write);
        if r1.hit {
            if write {
                self.directory[dir_idx].dirty_owner = core as u8;
                self.directory[dir_idx].sharers |= 1 << core;
            }
            return ServePoint::L1;
        }
        self.stats.l1.misses += 1;
        if let Some((evicted, dirty)) = r1.evicted {
            if dirty {
                self.fold_l1_victim_into_l2(core, evicted);
            }
        }

        // L2.
        self.stats.l2.accesses += 1;
        let r2 = self.l2[core].access_block(block, write);
        if let Some((evicted, dirty)) = r2.evicted {
            self.evict_from_l2(core, evicted, dirty);
        }
        if r2.hit {
            self.note_present(dir_idx, core, write);
            return ServePoint::L2;
        }
        self.stats.l2.misses += 1;

        // L2 miss: classify like Fig. 9.
        let served = self.serve_l2_miss(core, block, dir_idx, write);
        self.note_present(dir_idx, core, write);
        served
    }

    /// Read-for-ownership: invalidate every other holder, classify the
    /// transfer as a snoop, and install the line exclusively here.
    fn rfo(
        &mut self,
        core: usize,
        block: u64,
        dir_idx: usize,
        others: u16,
        entry: DirEntry,
    ) -> ServePoint {
        // Invalidate all other private copies.
        for c in 0..self.config.cores {
            if others & (1 << c) != 0 {
                self.l1[c].invalidate_block(block);
                self.l2[c].invalidate_block(block);
            }
        }
        // Ownership transfer counted as a full miss chain.
        self.stats.l1.accesses += 1;
        self.stats.l1.misses += 1;
        self.stats.l2.accesses += 1;
        self.stats.l2.misses += 1;
        self.stats.l3.accesses += 1;

        // Provider: the dirty owner if any (only it holds the current
        // data, so *its* socket decides the Fig. 9 local/remote
        // split, even when stale sharer bits linger on the
        // requester's socket), else the nearest clean sharer — local
        // whenever any sharer sits on the requester's socket.
        let my_socket = self.socket_of[core];
        let local = if entry.dirty_owner != NO_OWNER && entry.dirty_owner as usize != core {
            self.socket_of[entry.dirty_owner as usize] == my_socket
        } else {
            others & self.socket_cores[my_socket] != 0
        };
        let served = if local {
            self.stats.l2_breakdown.snoops_local += 1;
            ServePoint::SnoopLocal
        } else {
            self.stats.l2_breakdown.snoops_remote += 1;
            ServePoint::SnoopRemote
        };

        // Install exclusively in this core's caches.
        if let Some((e, d)) = self.l1[core].fill_block(block, true) {
            if d {
                self.fold_l1_victim_into_l2(core, e);
            }
        }
        if let Some((e, d)) = self.l2[core].fill_block(block, true) {
            self.evict_from_l2(core, e, d);
        }
        self.directory[dir_idx] = DirEntry {
            sharers: 1 << core,
            dirty_owner: core as u8,
        };
        served
    }

    /// Classifies and serves an L2 miss: local dirty holder → snoop;
    /// local LLC → L3 hit; remote holder/LLC → remote snoop; else DRAM.
    fn serve_l2_miss(
        &mut self,
        core: usize,
        block: u64,
        dir_idx: usize,
        write: bool,
    ) -> ServePoint {
        self.stats.l3.accesses += 1;
        let my_socket = self.socket_of[core];
        let entry = self.directory[dir_idx];

        // A dirty copy in another core's cache must be snooped.
        let dirty_owner = entry.dirty_owner;
        if dirty_owner != NO_OWNER && dirty_owner as usize != core {
            let owner = dirty_owner as usize;
            if write {
                // Write: take ownership, invalidate the old owner.
                self.l1[owner].invalidate_block(block);
                self.l2[owner].invalidate_block(block);
                // The requester is added by note_present.
                self.directory[dir_idx] = DirEntry::UNCACHED;
            } else {
                // Read: the owner's line is demoted to shared; the
                // dirty data is written back to the owner's LLC.
                self.directory[dir_idx].dirty_owner = NO_OWNER;
                self.llc_fill(self.socket_of[owner], block, true);
            }
            return if self.socket_of[owner] == my_socket {
                self.stats.l2_breakdown.snoops_local += 1;
                ServePoint::SnoopLocal
            } else {
                self.stats.l2_breakdown.snoops_remote += 1;
                ServePoint::SnoopRemote
            };
        }

        // Local LLC?
        let r3 = self.llc[my_socket].access_block(block, false);
        if r3.hit {
            self.stats.l2_breakdown.l3_hits += 1;
            return ServePoint::L3;
        }
        // access_block allocated the line in the local LLC; handle its
        // victim (dirty LLC victims go to DRAM — no further modeling).
        let _ = r3.evicted;

        // Remote LLC (clean cross-socket forward)?
        let remote_hit = (0..self.config.sockets)
            .filter(|&s| s != my_socket)
            .any(|s| self.llc[s].contains_block(block));
        if remote_hit {
            self.stats.l2_breakdown.snoops_remote += 1;
            return ServePoint::SnoopRemote;
        }

        // Clean copy in a remote core's private cache (sharers set but
        // not dirty): forwarded cross-socket as well.
        let others = entry.sharers & !(1u16 << core);
        if others != 0 {
            if others & self.socket_cores[my_socket] != 0 {
                self.stats.l2_breakdown.snoops_local += 1;
                return ServePoint::SnoopLocal;
            }
            self.stats.l2_breakdown.snoops_remote += 1;
            return ServePoint::SnoopRemote;
        }

        self.stats.l3.misses += 1;
        self.stats.l2_breakdown.off_chip += 1;
        ServePoint::Memory
    }

    /// Folds a dirty L1 victim into its private L2. Normally the line
    /// is already there (inclusion) and the fill just merges
    /// dirtiness; when inclusion was broken earlier, the fold
    /// allocates and may displace an L2 victim of its own, which must
    /// run the full eviction path — dropping it leaves the victim's
    /// directory sharer bit stale and its dirty data lost.
    fn fold_l1_victim_into_l2(&mut self, core: usize, block: u64) {
        if let Some((l2_victim, l2_dirty)) = self.l2[core].fill_block(block, true) {
            self.evict_from_l2(core, l2_victim, l2_dirty);
        }
    }

    /// Handles an eviction from a private L2: back-invalidate L1
    /// (inclusion), update the directory, and write dirty data back to
    /// the local LLC.
    fn evict_from_l2(&mut self, core: usize, block: u64, dirty: bool) {
        let l1_dirty = self.l1[core].invalidate_block(block).unwrap_or(false);
        let entry = &mut self.directory[block as usize];
        entry.sharers &= !(1u16 << core);
        if entry.dirty_owner == core as u8 {
            entry.dirty_owner = NO_OWNER;
        }
        if dirty || l1_dirty {
            self.llc_fill(self.socket_of[core], block, true);
        }
    }

    fn llc_fill(&mut self, socket: usize, block: u64, dirty: bool) {
        // Dirty LLC victims drain to DRAM; nothing further to model.
        let _ = self.llc[socket].fill_block(block, dirty);
    }

    fn note_present(&mut self, dir_idx: usize, core: usize, write: bool) {
        let e = &mut self.directory[dir_idx];
        e.sharers |= 1 << core;
        if write {
            e.dirty_owner = core as u8;
        }
    }

    fn charge(&mut self, served: ServePoint, pattern: AccessPattern) {
        self.stats.cycles += self.cost[pattern as usize][served as usize];
    }
}

/// Cycles per access: an L1 hit costs its latency; anything further
/// out costs its latency divided by the pattern's memory-level
/// parallelism. Every access costs at least one cycle.
fn cost_table(lat: &LatencyModel) -> CostTable {
    let row = |mlp: u64| {
        let mlp = mlp.max(1);
        [
            lat.l1,
            lat.l2 / mlp,
            lat.l3 / mlp,
            lat.snoop_local / mlp,
            lat.snoop_remote / mlp,
            lat.memory / mlp,
        ]
        .map(|cycles| cycles.max(1))
    };
    // Rows in `AccessPattern` declaration order.
    [row(lat.streaming_mlp), row(lat.irregular_mlp)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::AccessPattern::Irregular;

    fn sim_with(n: usize) -> (MemorySim, ArrayId) {
        let mut layout = MemoryLayout::new();
        let a = layout.register("a", n, 8, Irregular);
        (MemorySim::new(SimConfig::default(), layout), a)
    }

    #[test]
    fn repeated_reads_hit_l1() {
        let (mut sim, a) = sim_with(64);
        for _ in 0..10 {
            sim.read(0, a, 5);
        }
        let s = sim.stats();
        assert_eq!(s.l1.accesses, 10);
        assert_eq!(s.l1.misses, 1);
        assert_eq!(s.l2.misses, 1);
        assert_eq!(s.l2_breakdown.off_chip, 1);
    }

    #[test]
    fn spatial_locality_within_block() {
        let (mut sim, a) = sim_with(64);
        for i in 0..8 {
            sim.read(0, a, i); // one 64B block of 8-byte elements
        }
        assert_eq!(sim.stats().l1.misses, 1);
    }

    #[test]
    fn capacity_misses_beyond_l1() {
        // Touch far more blocks than L1 holds, twice; second pass should
        // still hit in L2/L3 (footprint 16 KiB = L2 size).
        let (mut sim, a) = sim_with(2048);
        for round in 0..2 {
            for i in (0..2048).step_by(8) {
                sim.read(0, a, i);
            }
            if round == 0 {
                let s = sim.stats();
                assert_eq!(s.l1.misses, 256, "cold pass misses every block");
            }
        }
        let s = sim.stats();
        // Second pass: mostly L2/L3 hits, not off-chip.
        assert!(
            s.l2_breakdown.off_chip < 300,
            "off-chip {} should be ~256 cold misses",
            s.l2_breakdown.off_chip
        );
    }

    #[test]
    fn mpki_uses_instructions() {
        let (mut sim, a) = sim_with(64);
        sim.instr(1000);
        sim.read(0, a, 0);
        let [l1, _, l3] = sim.stats().mpki();
        assert_eq!(l1, 1.0);
        assert_eq!(l3, 1.0);
    }

    #[test]
    fn write_sharing_generates_snoops() {
        // Core 0 and core 1 (same socket) alternately write one block.
        let (mut sim, a) = sim_with(64);
        sim.write(0, a, 0);
        sim.write(1, a, 0);
        sim.write(0, a, 0);
        sim.write(1, a, 0);
        let b = sim.stats().l2_breakdown;
        assert!(b.snoops_local >= 3, "ping-pong should snoop: {b:?}");
        assert_eq!(b.snoops_remote, 0, "cores 0,1 share a socket");
    }

    #[test]
    fn cross_socket_write_sharing_snoops_remotely() {
        // Default config: 8 cores, 2 sockets -> core 0 socket 0,
        // core 4 socket 1.
        let (mut sim, a) = sim_with(64);
        sim.write(0, a, 0);
        sim.write(4, a, 0);
        let b = sim.stats().l2_breakdown;
        assert!(b.snoops_remote >= 1, "expected remote snoop: {b:?}");
    }

    #[test]
    fn read_of_remote_dirty_line_snoops() {
        let (mut sim, a) = sim_with(64);
        sim.write(0, a, 0); // core 0 holds dirty
        sim.read(1, a, 0); // same socket: local snoop
        let b = sim.stats().l2_breakdown;
        assert_eq!(b.snoops_local, 1, "{b:?}");
    }

    #[test]
    fn cold_reads_go_off_chip_whichever_core_reads() {
        // Regression: fresh directory entries named core 0 their dirty
        // owner, so a cold read by any other core counted a snoop
        // (local for core 1, remote for core 5) and dirty-filled
        // socket 0's LLC.
        for core in [0, 1, 5] {
            let (mut sim, a) = sim_with(64);
            sim.read(core, a, 0);
            let b = sim.stats().l2_breakdown;
            let want = crate::stats::L2MissBreakdown {
                off_chip: 1,
                ..Default::default()
            };
            assert_eq!(b, want, "core {core}");
        }
    }

    #[test]
    fn a_block_fetched_clean_is_an_l3_hit_for_a_neighbour() {
        // Core 0's read leaves the block clean in socket 0's LLC; core
        // 1 (same socket) then finds it there, with no snoop.
        let (mut sim, a) = sim_with(64);
        sim.read(0, a, 0);
        sim.read(1, a, 0);
        let b = sim.stats().l2_breakdown;
        assert_eq!((b.off_chip, b.l3_hits, b.snoops_local), (1, 1, 0), "{b:?}");
    }

    #[test]
    fn read_sharing_is_cheap_after_first_fetch() {
        let (mut sim, a) = sim_with(64);
        sim.read(0, a, 0); // off-chip
        sim.read(1, a, 0); // served on-chip (LLC or sibling)
        let b = sim.stats().l2_breakdown;
        assert_eq!(b.off_chip, 1, "{b:?}");
    }

    #[test]
    fn llc_hit_after_l2_eviction() {
        // Stream through 4x the L2 but well within the LLC, then
        // re-read the first block: should be served by LLC (L3 hit).
        let mut layout = MemoryLayout::new();
        let a = layout.register("a", 16384, 8, Irregular);
        let mut sim = MemorySim::new(SimConfig::default(), layout);
        for i in (0..8192).step_by(8) {
            sim.read(0, a, i);
        }
        let before = sim.stats().l2_breakdown.l3_hits;
        sim.read(0, a, 0);
        let after = sim.stats().l2_breakdown.l3_hits;
        assert_eq!(after - before, 1, "expected an L3 hit");
    }

    #[test]
    fn cycles_accumulate() {
        let (mut sim, a) = sim_with(64);
        sim.instr(100);
        let c0 = sim.stats().cycles;
        sim.read(0, a, 0);
        assert!(sim.stats().cycles > c0);
    }

    #[test]
    fn rfo_snoop_classification_follows_the_dirty_provider() {
        // Default config: 8 cores / 2 sockets. Requester core 0
        // (socket 0), dirty owner core 4 (socket 1), and core 1
        // (socket 0) carrying a stale sharer bit — the directory
        // state dropped L2 evictions used to leave behind. The dirty
        // owner supplies the data, so the ownership transfer is a
        // *remote* snoop; classifying it local because some sharer
        // bit is on the requester's socket skews the Fig. 9 split.
        let (mut sim, a) = sim_with(64);
        sim.write(4, a, 0);
        let block = sim.layout.addr(a, 0) / BLOCK_BYTES;
        sim.directory[block as usize].sharers |= 1 << 1;
        let before = sim.stats.l2_breakdown;
        sim.write(0, a, 0);
        let after = sim.stats.l2_breakdown;
        assert_eq!(after.snoops_remote - before.snoops_remote, 1, "{after:?}");
        assert_eq!(
            after.snoops_local, before.snoops_local,
            "the provider is remote: {after:?}"
        );
    }

    #[test]
    fn rfo_clean_sharing_is_served_by_the_nearest_sharer() {
        let (mut sim, a) = sim_with(64);
        sim.write(4, a, 0); // core 4 (socket 1) owns the block dirty
        sim.read(1, a, 0); // remote snoop demotes it; {1, 4} share clean
        let before = sim.stats.l2_breakdown;
        sim.write(0, a, 0); // upgrade: the socket-0 sharer supplies
        let after = sim.stats.l2_breakdown;
        assert_eq!(after.snoops_local - before.snoops_local, 1, "{after:?}");
        assert_eq!(after.snoops_remote, before.snoops_remote, "{after:?}");
    }

    #[test]
    fn folded_l1_victims_run_the_full_l2_eviction_path() {
        // Tiny single-core hierarchy — L1 = 1 set x 2 ways, L2 =
        // 1 set x 4 ways — so every victim is deterministic.
        let mut layout = MemoryLayout::new();
        let a = layout.register("a", 1024, 8, Irregular);
        // Blocks are consecutive: 8 elements x 8 bytes per 64B block.
        let b: Vec<u64> = (0..6)
            .map(|i| layout.addr(a, i * 8) / BLOCK_BYTES)
            .collect();
        let cfg = SimConfig {
            cores: 1,
            sockets: 1,
            l1_bytes: 2 * 64,
            l1_ways: 2,
            l2_bytes: 4 * 64,
            l2_ways: 4,
            ..Default::default()
        };
        let mut sim = MemorySim::new(cfg, layout);
        let dir = |blk: u64| blk as usize;

        sim.write(0, a, 0); // b0 dirty in L1 and L2
        sim.read(0, a, 8); // b1 in L1 and L2; L1 now full {b0, b1}
                           // Break inclusion for b0 the way an invalidate once could:
                           // L1 keeps its dirty copy, L2 loses the line.
        sim.l2[0].invalidate_block(b[0]);
        // Fill L2's single set to capacity with tracked blocks.
        for (i, &blk) in b[2..5].iter().enumerate() {
            sim.l2[0].fill_block(blk, i == 0); // b2 dirty, b3/b4 clean
            sim.directory[dir(blk)].sharers |= 1;
        }
        sim.directory[dir(b[2])].dirty_owner = 0;
        sim.l2[0].access_block(b[1], false); // b1 most-recent => LRU is b2

        // Read b5: L1 evicts dirty b0, whose fold into the (full,
        // non-inclusive) L2 displaces b2 — an eviction that used to
        // be dropped on the floor.
        sim.read(0, a, 40);

        assert!(sim.l2[0].contains_block(b[0]), "fold must land in L2");
        assert!(!sim.l2[0].contains_block(b[2]), "b2 was the L2 victim");
        let e = sim.directory[dir(b[2])];
        assert_eq!(e.sharers, 0, "victim's sharer bit must clear");
        assert_eq!(e.dirty_owner, NO_OWNER, "victim's ownership must clear");
        assert!(
            sim.llc[0].contains_block(b[2]),
            "the dirty victim must write back to the LLC"
        );
    }

    #[test]
    fn cost_table_divides_by_mlp_with_a_one_cycle_floor() {
        let table = cost_table(&LatencyModel::default());
        assert_eq!(
            table[AccessPattern::Streaming as usize],
            [4, 1, 6, 11, 18, 31]
        );
        assert_eq!(table[Irregular as usize], [4, 7, 25, 45, 75, 125]);
        let lat = LatencyModel {
            l1: 0,
            streaming_mlp: 0,
            ..Default::default()
        };
        assert_eq!(cost_table(&lat)[0], [1, 14, 50, 90, 150, 250]);
    }

    #[test]
    #[should_panic(expected = "1..=16 cores")]
    fn rejects_too_many_cores() {
        let layout = MemoryLayout::new();
        let cfg = SimConfig {
            cores: 32,
            sockets: 2,
            ..Default::default()
        };
        let _ = MemorySim::new(cfg, layout);
    }
}
