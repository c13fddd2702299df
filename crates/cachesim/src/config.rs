//! Simulator configuration: hierarchy geometry and latency model.

use std::fmt;
use std::str::FromStr;

use crate::BLOCK_BYTES;

/// Access latencies in cycles, used to convert simulated miss counts
/// into an execution-time estimate (the basis of every speedup figure
/// in the reproduction).
///
/// Values approximate the paper's Broadwell Xeon. Only *ratios* matter
/// for speedups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// L1 hit.
    pub l1: u64,
    /// L2 hit.
    pub l2: u64,
    /// LLC hit in the local socket, no snooping needed.
    pub l3: u64,
    /// Served by another core's cache in the same socket.
    pub snoop_local: u64,
    /// Served by the remote socket (cache-to-cache or remote LLC).
    pub snoop_remote: u64,
    /// DRAM.
    pub memory: u64,
    /// Effective memory-level parallelism for *streaming* accesses:
    /// prefetchable misses are charged `latency / streaming_mlp`.
    pub streaming_mlp: u64,
    /// Effective MLP for irregular accesses (out-of-order windows
    /// overlap a few misses even without prefetching).
    pub irregular_mlp: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            l1: 4,
            l2: 14,
            l3: 50,
            snoop_local: 90,
            snoop_remote: 150,
            memory: 250,
            streaming_mlp: 8,
            irregular_mlp: 2,
        }
    }
}

/// Cache hierarchy geometry.
///
/// The defaults scale the paper's dual-socket Xeon (10 cores/socket,
/// 32 KiB L1, 256 KiB L2, 25 MiB shared LLC per socket) down to one
/// fixed geometry that does not follow the dataset scale. The hot
/// property-array footprint : LLC ratio, which drives the paper's
/// effects, comes near the paper's regime only around the default
/// scale (2^17 `sd` vertices); at smaller scales the hot footprint is
/// a small fraction of the LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Total cores; they are split evenly across sockets.
    pub cores: usize,
    /// Number of sockets (the paper's platform has 2).
    pub sockets: usize,
    /// Per-core L1 data cache capacity in bytes.
    pub l1_bytes: usize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// Per-core L2 capacity in bytes.
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// Per-socket shared LLC capacity in bytes.
    pub llc_bytes: usize,
    /// LLC associativity.
    pub llc_ways: usize,
    /// Latency model for cycle estimation.
    pub latency: LatencyModel,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cores: 8,
            sockets: 2,
            l1_bytes: 4 << 10,
            l1_ways: 8,
            l2_bytes: 16 << 10,
            l2_ways: 8,
            llc_bytes: 128 << 10,
            llc_ways: 16,
            latency: LatencyModel::default(),
        }
    }
}

/// Largest simulatable core count: the coherence directory stores
/// sharer sets as 16-bit masks.
pub const MAX_CORES: usize = 16;

impl SimConfig {
    /// A single-core configuration (handy for unit tests and
    /// pull-only measurements).
    pub fn single_core() -> Self {
        SimConfig {
            cores: 1,
            sockets: 1,
            ..Default::default()
        }
    }

    /// Checks every invariant [`MemorySim::new`](crate::MemorySim::new)
    /// would later assert — core count within `1..=16`, at least one
    /// socket, cores dividing evenly across sockets, and for each cache
    /// level a capacity that is a positive multiple of `ways × 64`
    /// bytes with a power-of-two set count — so callers building a
    /// config from untrusted input (CLI flags, RPC payloads) get a
    /// reportable error instead of a panic deep in simulator
    /// construction. [`SimConfig::from_str`] applies this
    /// automatically; it never panics itself, whatever the fields hold.
    pub fn validate(&self) -> Result<(), SimConfigParseError> {
        if self.cores < 1 || self.cores > MAX_CORES {
            return Err(SimConfigParseError {
                token: format!("cores={}", self.cores),
                expected: Some(format!(
                    "1..={MAX_CORES} cores (directory sharer masks are 16-bit)"
                )),
            });
        }
        if self.sockets < 1 || !self.cores.is_multiple_of(self.sockets) {
            return Err(SimConfigParseError {
                token: format!("cores={} with sockets={}", self.cores, self.sockets),
                expected: Some("cores dividing evenly across at least one socket".to_owned()),
            });
        }
        for (level, bytes, ways, sets) in self.levels() {
            if sets.is_none() {
                let token = if bytes.is_multiple_of(1 << 10) {
                    format!("{level}kb={}", bytes >> 10)
                } else {
                    format!("{level}_bytes={bytes}")
                };
                return Err(SimConfigParseError {
                    token,
                    expected: Some(format!(
                        "a positive multiple of {ways} ways x 64 B with a power-of-two set count"
                    )),
                });
            }
        }
        Ok(())
    }

    /// Each level's name, capacity, associativity and set count; the
    /// count is `None` unless the capacity is a positive multiple of
    /// `ways × 64` bytes with a power-of-two quotient.
    fn levels(&self) -> [(&'static str, usize, usize, Option<usize>); 3] {
        [
            ("l1", self.l1_bytes, self.l1_ways),
            ("l2", self.l2_bytes, self.l2_ways),
            ("llc", self.llc_bytes, self.llc_ways),
        ]
        .map(|(level, bytes, ways)| {
            let sets = ways
                .checked_mul(BLOCK_BYTES as usize)
                .filter(|&set_bytes| set_bytes > 0 && bytes.is_multiple_of(set_bytes))
                .and_then(|set_bytes| bytes.checked_div(set_bytes))
                .filter(|sets| sets.is_power_of_two());
            (level, bytes, ways, sets)
        })
    }

    /// Number of set partitions the hierarchy splits into: the
    /// smallest set count among its levels (1 for a geometry
    /// [`SimConfig::validate`] rejects). Every set of every level lies
    /// inside one partition, so the partitions simulate independently
    /// (see [`MemorySim::partial`](crate::MemorySim::partial)).
    pub fn partitions(&self) -> usize {
        self.levels()
            .iter()
            .map(|&(_, _, _, sets)| sets.unwrap_or(1))
            .min()
            .unwrap_or(1)
    }

    /// Cores per socket.
    ///
    /// # Panics
    ///
    /// Panics if cores don't divide evenly across sockets.
    pub fn cores_per_socket(&self) -> usize {
        assert!(
            self.sockets > 0 && self.cores.is_multiple_of(self.sockets),
            "{} cores don't divide across {} sockets",
            self.cores,
            self.sockets
        );
        self.cores / self.sockets
    }

    /// Socket that owns core `core`.
    pub fn socket_of(&self, core: usize) -> usize {
        core / self.cores_per_socket()
    }
}

/// A malformed simulator knob string. Carries the offending token and
/// the valid knob names, matching the engine's spec-error contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfigParseError {
    /// The `key=value` (or bare) token that failed.
    pub token: String,
    /// What a valid value would look like, when the token named a real
    /// knob but its value was out of range.
    pub expected: Option<String>,
}

/// Knob names accepted by [`SimConfig::from_str`].
pub const SIM_KNOBS: [&str; 5] = ["cores", "sockets", "l1kb", "l2kb", "llckb"];

impl fmt::Display for SimConfigParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid simulator knob `{}`", self.token)?;
        if let Some(expected) = &self.expected {
            write!(f, " (expected {expected})")?;
        }
        write!(f, "; valid: {}", SIM_KNOBS.join(", "))
    }
}

impl std::error::Error for SimConfigParseError {}

/// Parses a comma-separated knob list over the default geometry, the
/// string-addressable surface CLI/session layers expose
/// (`"cores=4,sockets=1,llckb=64"`). Capacities are in KiB;
/// associativities and the latency model keep their defaults.
///
/// ```
/// use lgr_cachesim::SimConfig;
///
/// let cfg: SimConfig = "cores=4,sockets=1,llckb=64".parse().unwrap();
/// assert_eq!(cfg.cores, 4);
/// assert_eq!(cfg.llc_bytes, 64 << 10);
/// assert!("turbo=9".parse::<SimConfig>().unwrap_err().to_string().contains("turbo=9"));
/// ```
impl FromStr for SimConfig {
    type Err = SimConfigParseError;

    fn from_str(s: &str) -> Result<Self, SimConfigParseError> {
        let mut cfg = SimConfig::default();
        for token in s.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let err = || SimConfigParseError {
                token: token.to_owned(),
                expected: None,
            };
            let (key, value) = token.split_once('=').ok_or_else(err)?;
            let n: usize = value.trim().parse().map_err(|_| err())?;
            if n == 0 {
                return Err(err());
            }
            let kib = || {
                n.checked_mul(1 << 10).ok_or_else(|| SimConfigParseError {
                    token: token.to_owned(),
                    expected: Some("a capacity in KiB whose byte count fits in usize".to_owned()),
                })
            };
            match key.trim() {
                "cores" => cfg.cores = n,
                "sockets" => cfg.sockets = n,
                "l1kb" => cfg.l1_bytes = kib()?,
                "l2kb" => cfg.l2_bytes = kib()?,
                "llckb" => cfg.llc_bytes = kib()?,
                _ => return Err(err()),
            }
        }
        // Every bound `MemorySim::new` asserts is checked here, so a
        // malformed `--sim` flag is a clean parse error (CLI exit 1),
        // never a panic inside simulator construction.
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_is_sane() {
        let c = SimConfig::default();
        assert_eq!(c.cores_per_socket(), 4);
        assert_eq!(c.socket_of(0), 0);
        assert_eq!(c.socket_of(3), 0);
        assert_eq!(c.socket_of(4), 1);
        assert!(c.l1_bytes < c.l2_bytes && c.l2_bytes < c.llc_bytes);
    }

    #[test]
    fn partitions_are_the_smallest_set_count() {
        // 8, 32 and 128 sets: the L1 bounds the split.
        assert_eq!(SimConfig::default().partitions(), 8);
        // An L1 with more sets than its L2: the L2 bounds it.
        let cfg: SimConfig = "l1kb=64".parse().unwrap();
        assert_eq!(cfg.partitions(), 32);
        let single_set_llc = SimConfig {
            llc_bytes: 16 * 64,
            ..Default::default()
        };
        assert_eq!(single_set_llc.partitions(), 1);
        // A geometry validate() rejects is one partition, not a panic.
        let ragged = SimConfig {
            l1_ways: 0,
            ..Default::default()
        };
        assert_eq!(ragged.partitions(), 1);
    }

    #[test]
    fn latencies_monotone() {
        let l = LatencyModel::default();
        assert!(l.l1 < l.l2 && l.l2 < l.l3);
        assert!(l.l3 < l.snoop_local && l.snoop_local < l.snoop_remote);
        assert!(l.snoop_remote < l.memory);
    }

    #[test]
    fn knob_strings_parse_over_defaults() {
        let cfg: SimConfig = "cores=2, sockets=1".parse().unwrap();
        assert_eq!(cfg.cores, 2);
        assert_eq!(cfg.sockets, 1);
        assert_eq!(cfg.l1_bytes, SimConfig::default().l1_bytes);
        assert_eq!("".parse::<SimConfig>().unwrap(), SimConfig::default());
        let err = "cores=3,sockets=2".parse::<SimConfig>().unwrap_err();
        assert!(err.to_string().contains("cores=3"), "{err}");
        let err = "l1kb=0".parse::<SimConfig>().unwrap_err();
        assert_eq!(err.token, "l1kb=0");
    }

    #[test]
    fn core_bound_is_a_parse_error_not_a_panic() {
        // Regression: `--sim cores=32` used to parse fine and then
        // panic in MemorySim::new; the bound now lives in validation.
        let err = "cores=32,sockets=2".parse::<SimConfig>().unwrap_err();
        assert_eq!(err.token, "cores=32");
        assert!(err.to_string().contains("1..=16"), "{err}");
        // The boundary itself is accepted.
        assert!("cores=16,sockets=2".parse::<SimConfig>().is_ok());
        // validate() covers hand-built configs the same way.
        let cfg = SimConfig {
            cores: 32,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = SimConfig {
            sockets: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        assert!(SimConfig::default().validate().is_ok());
    }

    #[test]
    fn cache_geometry_is_a_parse_error_not_a_panic() {
        // Regression: these parsed and then panicked in
        // SetAssocCache::new (6 and 96 sets are not powers of two), or
        // silently wrapped to a 1 KiB L1 (`n << 10` dropped high bits).
        for (input, token) in [
            ("l1kb=3", "l1kb=3"),
            ("llckb=96", "llckb=96"),
            ("l1kb=18014398509481985", "l1kb=18014398509481985"),
        ] {
            let err = input.parse::<SimConfig>().unwrap_err();
            assert_eq!(err.token, token, "{err}");
        }
        assert!("l1kb=8,l2kb=32,llckb=256".parse::<SimConfig>().is_ok());
        // Hand-built configs: zero ways, zero or ragged capacities and
        // overflowing `ways × 64` are errors, never panics.
        for cfg in [
            SimConfig {
                l1_ways: 0,
                ..Default::default()
            },
            SimConfig {
                l2_bytes: 0,
                ..Default::default()
            },
            SimConfig {
                llc_bytes: 100,
                ..Default::default()
            },
            SimConfig {
                llc_ways: usize::MAX,
                ..Default::default()
            },
        ] {
            assert!(cfg.validate().is_err(), "{cfg:?}");
        }
        let err = SimConfig {
            l1_bytes: 3 * 64,
            l1_ways: 1,
            ..Default::default()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err.token, "l1_bytes=192");
        assert!(SimConfig::single_core().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "don't divide")]
    fn uneven_socket_split_panics() {
        let c = SimConfig {
            cores: 3,
            sockets: 2,
            ..Default::default()
        };
        let _ = c.cores_per_socket();
    }
}
