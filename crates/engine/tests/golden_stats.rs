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
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, &str, [u64; 12])] = &[
    ("sd", "", "pr", [532576, 254000, 70666, 70666, 37745, 37745, 6385, 25615, 3351, 2394, 6385, 2198316]),
    ("sd", "", "prd", [965366, 394728, 76873, 76873, 54938, 54938, 12488, 7604, 23461, 11385, 12488, 4227091]),
    ("sd", "", "sssp", [566702, 191508, 51315, 51315, 29865, 29865, 6501, 14374, 5184, 3806, 6501, 1787889]),
    ("sd", "", "bc", [407428, 169105, 29386, 29386, 20929, 20929, 1972, 8785, 4647, 5525, 1972, 1378178]),
    ("sd", "", "radii", [891724, 355552, 82870, 82870, 44999, 44999, 17190, 21147, 3646, 3016, 17190, 3059936]),
    ("sd", "dbg", "pr", [532576, 254000, 43323, 43323, 25716, 25716, 10159, 14053, 615, 889, 10159, 1969874]),
    ("sd", "dbg", "prd", [965366, 394728, 48175, 48175, 34270, 34270, 14345, 6329, 7835, 5761, 14345, 3316794]),
    ("sd", "dbg", "sssp", [601348, 203059, 36869, 36869, 21133, 21133, 10128, 8502, 1359, 1144, 10128, 1666127]),
    ("sd", "dbg", "bc", [407428, 169105, 23202, 23202, 16136, 16136, 6714, 5372, 1827, 2223, 6714, 1336387]),
    ("sd", "dbg", "radii", [891724, 355552, 55100, 55100, 36953, 36953, 20041, 14780, 947, 1185, 20041, 2858759]),
    ("fr", "", "pr", [570908, 277222, 43284, 43284, 21346, 21346, 6804, 8553, 2519, 3470, 6804, 1934058]),
    ("fr", "", "prd", [1026126, 426579, 48819, 48819, 37496, 37496, 13175, 3814, 12898, 7609, 13175, 3553604]),
    ("fr", "", "sssp", [543670, 183262, 30135, 30135, 19531, 19531, 5079, 6247, 4023, 4182, 5079, 1459795]),
    ("fr", "", "bc", [419464, 176404, 20363, 20363, 15171, 15171, 1812, 3995, 4317, 5047, 1812, 1242070]),
    ("fr", "", "radii", [1187503, 474278, 64218, 64218, 41586, 41586, 24834, 10733, 2533, 3486, 24834, 3606708]),
    ("fr", "dbg", "pr", [570908, 277222, 31831, 31831, 18439, 18439, 10118, 6324, 1202, 795, 10118, 1893752]),
    ("fr", "dbg", "prd", [1026126, 426579, 39265, 39265, 29018, 29018, 14879, 3590, 6435, 4114, 14879, 3219312]),
    ("fr", "dbg", "sssp", [656278, 220951, 30850, 30850, 19511, 19511, 10377, 5991, 2194, 949, 10377, 1708661]),
    ("fr", "dbg", "bc", [419464, 176404, 17934, 17934, 13784, 13784, 6120, 3214, 2670, 1780, 6120, 1274690]),
    ("fr", "dbg", "radii", [1187503, 474278, 53257, 53257, 36949, 36949, 25918, 8883, 1284, 864, 25918, 3477174]),
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
    for ds in ["sd", "fr"] {
        for tech in ["", "dbg"] {
            for app in ["pr", "prd", "sssp", "bc", "radii"] {
                let mut job = Job::new(
                    app.parse::<AppSpec>().unwrap(),
                    ds.parse::<DatasetSpec>().unwrap(),
                );
                if !tech.is_empty() {
                    job = job.with_technique(tech.parse::<TechniqueSpec>().unwrap());
                }
                actual.push((ds, tech, app, counts(&session.run(&job).stats)));
            }
        }
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
