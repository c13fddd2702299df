//! Golden simulator statistics: the full `SimStats` of
//! `Session::run` for a fixed roster, pinned as literals.
//!
//! Every MPKI, L2-miss breakdown and simulated speedup the repo
//! reports is derived from these counters, so any change to the cache
//! simulator, the traced kernels, the generators or the reorderings
//! that moves a single count fails here by name — not only in the
//! benchmark's digest. A speed change to the simulator must leave this
//! table untouched.

use lgr_cachesim::SimStats;
use lgr_engine::{AppSpec, DatasetSpec, Job, Session, SessionConfig, TechniqueSpec};

/// `(dataset, technique, app, [instructions, l1 accesses, l1 misses,
/// l2 accesses, l2 misses, l3 accesses, l3 misses, l3 hits, local
/// snoops, remote snoops, off-chip, cycles])` under
/// `SessionConfig::quick()`; technique `""` is the original order.
/// Every app on sd and fr in both orders with its knobs at the
/// session defaults, then one row per app with each of its knobs set,
/// so a knob that fell back to a wrong default moves a count. Radii
/// on kr with nine sources stops after five rounds, so `rounds=7`
/// does not bind; `rounds=4` does.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, &str, [u64; 12])] = &[
    ("sd", "", "pr", [532576, 254000, 70666, 70666, 37745, 37745, 11603, 25756, 0, 386, 11603, 2292647]),
    ("sd", "", "prd", [965366, 394728, 76873, 76873, 54938, 54938, 17851, 7639, 20718, 8730, 17851, 4325166]),
    ("sd", "", "sssp", [566702, 191508, 51315, 51315, 29865, 29865, 10530, 15682, 2616, 1037, 10530, 1843345]),
    ("sd", "", "bc", [407428, 169105, 29386, 29386, 20929, 20929, 9238, 9832, 669, 1190, 9238, 1503918]),
    ("sd", "", "radii", [891724, 355552, 82870, 82870, 44999, 44999, 22878, 21220, 318, 583, 22878, 3181841]),
    ("sd", "dbg", "pr", [532576, 254000, 43323, 43323, 25716, 25716, 10995, 14384, 1, 336, 10995, 1980615]),
    ("sd", "dbg", "prd", [965366, 394728, 48175, 48175, 34270, 34270, 15697, 6601, 7030, 4942, 15697, 3344573]),
    ("sd", "dbg", "sssp", [601348, 203059, 36869, 36869, 21133, 21133, 10967, 8873, 746, 547, 10967, 1675731]),
    ("sd", "dbg", "bc", [407428, 169105, 23202, 23202, 16136, 16136, 9239, 5418, 476, 1003, 9239, 1398446]),
    ("sd", "dbg", "radii", [891724, 355552, 55100, 55100, 36953, 36953, 21220, 15049, 211, 473, 21220, 2885887]),
    ("fr", "", "pr", [570908, 277222, 43284, 43284, 21346, 21346, 12276, 8801, 1, 268, 12276, 2015878]),
    ("fr", "", "prd", [1026126, 426579, 48819, 48819, 37496, 37496, 18650, 3866, 10464, 4516, 18650, 3644754]),
    ("fr", "", "sssp", [543670, 183262, 30135, 30135, 19531, 19531, 8701, 8585, 1644, 601, 8701, 1495594]),
    ("fr", "", "bc", [419464, 176404, 20363, 20363, 15171, 15171, 9576, 4373, 532, 690, 9576, 1380136]),
    ("fr", "", "radii", [1187503, 474278, 64218, 64218, 41586, 41586, 30435, 10900, 4, 247, 30435, 3702937]),
    ("fr", "dbg", "pr", [570908, 277222, 31831, 31831, 18439, 18439, 11632, 6545, 11, 251, 11632, 1918461]),
    ("fr", "dbg", "prd", [1026126, 426579, 39265, 39265, 29018, 29018, 16954, 3676, 4980, 3408, 16954, 3261500]),
    ("fr", "dbg", "sssp", [656278, 220951, 30850, 30850, 19511, 19511, 12167, 6061, 874, 409, 12167, 1740134]),
    ("fr", "dbg", "bc", [419464, 176404, 17934, 17934, 13784, 13784, 9490, 3236, 364, 694, 9490, 1345852]),
    ("fr", "dbg", "radii", [1187503, 474278, 53257, 53257, 36949, 36949, 27650, 9004, 49, 246, 27650, 3513585]),
    ("kr", "hubcluster", "radii:rounds=7:sources=9", [336130, 134104, 21388, 21388, 10215, 10215, 7582, 2299, 95, 239, 7582, 1028600]),
    ("kr", "hubcluster", "radii:rounds=4:sources=9", [332964, 133150, 20953, 20953, 9858, 9858, 7369, 2208, 84, 197, 7369, 1009966]),
    ("lj", "dbg", "sssp:roots=5", [72070, 24438, 1723, 1723, 1304, 1304, 204, 470, 489, 141, 204, 178867]),
    ("tw", "dbg", "pr:iters=4", [819536, 393796, 60155, 60155, 30043, 30043, 15830, 13889, 40, 284, 15830, 2811942]),
    ("pl", "sort", "prd:iters=2", [230336, 92796, 9274, 9274, 6571, 6571, 2506, 1532, 1717, 816, 2506, 717737]),
    ("mp", "dbg", "bc:roots=3", [1388966, 572034, 55376, 55376, 42835, 42835, 28108, 11888, 1178, 1661, 28108, 4171188]),
];

fn counts(s: &SimStats) -> [u64; 12] {
    let b = s.l2_breakdown;
    [
        s.instructions,
        s.l1.accesses,
        s.l1.misses,
        s.l2.accesses,
        s.l2.misses,
        s.l3.accesses,
        s.l3.misses,
        b.l3_hits,
        b.snoops_local,
        b.snoops_remote,
        b.off_chip,
        s.cycles,
    ]
}

#[test]
fn session_run_statistics_match_the_golden_table() {
    let session = Session::new(SessionConfig::quick());
    let mut actual = Vec::new();
    for &(ds, tech, app, _) in GOLDEN {
        let mut job = Job::new(
            app.parse::<AppSpec>().unwrap(),
            ds.parse::<DatasetSpec>().unwrap(),
        );
        if !tech.is_empty() {
            job = job.with_technique(tech.parse::<TechniqueSpec>().unwrap());
        }
        actual.push((ds, tech, app, counts(&session.run(&job).stats)));
    }
    let row = |(ds, tech, app, c): &(&str, &str, &str, [u64; 12])| {
        format!("    ({ds:?}, {tech:?}, {app:?}, {c:?}),")
    };
    let got: Vec<String> = actual.iter().map(row).collect();
    let want: Vec<String> = GOLDEN.iter().map(row).collect();
    assert!(
        got == want,
        "statistics drifted; actual table:\n{}",
        got.join("\n")
    );
}
