//! Differential tests of the partition split: for every share count
//! `t` in `1..=partitions`, the `t` partial simulators' summed
//! statistics must equal one whole simulator's on the same trace.

use lgr_cachesim::{AccessPattern, ArrayId, MemoryLayout, MemorySim, SimConfig, SimStats};
use proptest::collection::vec;
use proptest::prelude::*;

/// One traced event: `(kind, core, array, index)`; kind 0 charges
/// instructions, 1–2 write and 3–7 read `array[index]` (both taken
/// modulo their range).
type Op = (u8, usize, usize, usize);

/// A machine of `sockets × per_socket` cores whose levels have
/// `2^exp` sets of `ways` ways each.
fn machine(sockets: usize, per_socket: usize, levels: [(u32, usize); 3]) -> SimConfig {
    let bytes = |(exp, ways): (u32, usize)| (1 << exp) * ways * 64;
    SimConfig {
        cores: sockets * per_socket,
        sockets,
        l1_bytes: bytes(levels[0]),
        l1_ways: levels[0].1,
        l2_bytes: bytes(levels[1]),
        l2_ways: levels[1].1,
        llc_bytes: bytes(levels[2]),
        llc_ways: levels[2].1,
        ..Default::default()
    }
}

/// Three arrays, one streaming, of the given element counts.
fn layout(lens: [usize; 3]) -> (MemoryLayout, [ArrayId; 3]) {
    let mut layout = MemoryLayout::new();
    let ids = [
        layout.register("vtx", lens[0], 4, AccessPattern::Streaming),
        layout.register("prop", lens[1], 8, AccessPattern::Irregular),
        layout.register("aux", lens[2], 8, AccessPattern::Irregular),
    ];
    (layout, ids)
}

fn run(mut sim: MemorySim, arrays: &[ArrayId; 3], lens: [usize; 3], trace: &[Op]) -> SimStats {
    let cores = sim.config().cores;
    for &(kind, core, array, index) in trace {
        let (core, array) = (core % cores, array % 3);
        let (id, index) = (arrays[array], index % lens[array]);
        match kind {
            0 => sim.instr(index as u64),
            1 | 2 => sim.write(core, id, index),
            _ => sim.read(core, id, index),
        }
    }
    *sim.stats()
}

fn shares_sum_to_the_whole(
    cfg: SimConfig,
    lens: [usize; 3],
    trace: &[Op],
) -> Result<(), TestCaseError> {
    let (layout, arrays) = layout(lens);
    let whole = run(MemorySim::new(cfg, layout.clone()), &arrays, lens, trace);
    for shares in 1..=cfg.partitions() {
        let mut sum = SimStats::default();
        for share in 0..shares {
            let sim = MemorySim::partial(cfg, layout.clone(), share, shares);
            sum += run(sim, &arrays, lens, trace);
        }
        prop_assert_eq!(sum, whole, "{} shares of {:?}", shares, cfg);
    }
    Ok(())
}

/// `(sockets, cores per socket, [(set exponent, ways); 3])`. Set
/// exponents start at 0 (a single-set level) and are drawn per level,
/// so an L1 with more sets than its L2 is common.
fn geometry() -> impl Strategy<Value = SimConfig> {
    (1usize..5)
        .prop_flat_map(|sockets| (Just(sockets), 1..16 / sockets + 1))
        .prop_flat_map(|(sockets, per_socket)| {
            let level = |max_exp: u32, max_ways: usize| (0..max_exp + 1, 1..max_ways + 1);
            (
                Just(sockets),
                Just(per_socket),
                (level(4, 4), level(4, 8), level(5, 8)),
            )
        })
        .prop_map(|(sockets, per_socket, (l1, l2, llc))| {
            machine(sockets, per_socket, [l1, l2, llc])
        })
}

/// Array lengths spanning several LLC capacities, and a trace over
/// them.
fn workload() -> impl Strategy<Value = ([usize; 3], Vec<Op>)> {
    (1usize..600, 1usize..3000, 1usize..600).prop_flat_map(|(a, b, c)| {
        (
            Just([a, b, c]),
            vec((0u8..8, 0usize..16, 0usize..3, 0usize..4096), 0..2000),
        )
    })
}

proptest! {
    #[test]
    fn partial_simulators_sum_to_the_whole(cfg in geometry(), (lens, trace) in workload()) {
        shares_sum_to_the_whole(cfg, lens, &trace)?;
    }
}

#[test]
fn corner_geometries_split_exactly() {
    // Deterministic trace: cores take turns over a strided walk that
    // wraps around each array, so blocks are revisited; a quarter of
    // the events are writes.
    let lens = [300, 2500, 500];
    let trace: Vec<Op> = (0..6000usize)
        .map(|i| ((i % 8) as u8, i % 13, (i / 8) % 3, i * 37 + i / 100))
        .collect();
    for cfg in [
        // The default machine: 8 / 32 / 128 sets, 8 partitions.
        SimConfig::default(),
        // An L1 with more sets (16) than its L2 (4): 4 partitions.
        machine(2, 4, [(4, 2), (2, 8), (5, 4)]),
        // A single-set LLC: one partition, `t = 1` only.
        machine(4, 4, [(3, 2), (4, 2), (0, 16)]),
        // One core, single-set L1.
        machine(1, 1, [(0, 4), (3, 2), (4, 2)]),
    ] {
        shares_sum_to_the_whole(cfg, lens, &trace).unwrap();
    }
}

#[test]
fn each_share_simulates_only_its_partitions() {
    let (layout, arrays) = layout([64, 4096, 64]);
    let cfg = SimConfig::default();
    let shares: Vec<SimStats> = (0..3)
        .map(|share| {
            let mut sim = MemorySim::partial(cfg, layout.clone(), share, 3);
            for i in 0..4096 {
                sim.read(0, arrays[1], i);
            }
            sim.instr(100);
            *sim.stats()
        })
        .collect();
    // 512 distinct blocks over 8 partitions, 3:3:2 of them per share.
    for s in &shares {
        assert!(s.l1.accesses > 0 && s.l1.accesses < 4096, "{s:?}");
    }
    let accesses: u64 = shares.iter().map(|s| s.l1.accesses).sum();
    assert_eq!(accesses, 4096);
    let instructions: Vec<u64> = shares.iter().map(|s| s.instructions).collect();
    assert_eq!(
        instructions,
        [100, 0, 0],
        "only share 0 counts instructions"
    );
}
