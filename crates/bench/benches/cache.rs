//! Benchmark for the engine's coalescing cache under concurrency: the
//! shard sweep (1/4/16/64 shards, unbounded, 8 threads) under skewed
//! hits and under distinct-key insert churn locates the throughput
//! plateau that justifies `lgr_engine::coalesce::DEFAULT_SHARDS`.
//!
//! Run with `cargo bench -p lgr-bench --bench cache`. Each line is the
//! median wall time of `SAMPLES` runs (after one untimed warm-up) and
//! the op throughput it implies.
//!
//! Everything is deterministic: keys come from a fixed-seed LCG with
//! a product skew, build cost is a fixed busy-work loop.

use std::time::{Duration, Instant};

use lgr_engine::coalesce::{CacheConfig, ShardedCache};

const THREADS: usize = 8;
const SAMPLES: usize = 10;

/// Splitmix-style step; high bits are the usable ones.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// A draw in `0..n` skewed toward 0 (product of two uniforms), so a
/// few keys are hot and the tail is long — the shape a server's
/// duplicate-heavy job stream has.
fn skewed(state: &mut u64, n: u64) -> u64 {
    (lcg(state) % n) * (lcg(state) % n) / n
}

/// Deterministic stand-in for a graph build: `work` rounds of
/// integer mixing, then a value whose weight the cache accounts.
fn build_value(key: u64, work: u64, bytes: usize) -> Vec<u8> {
    let mut acc = key.wrapping_mul(0x9E3779B97F4A7C15);
    for i in 0..work {
        acc = acc
            .wrapping_mul(0x9E3779B97F4A7C15)
            .rotate_left((i % 63) as u32);
    }
    let mut v = vec![0u8; bytes];
    v[0] = acc as u8;
    v
}

/// Runs `ops(thread, cache)` on `THREADS` scoped threads sharing a
/// fresh cache built from `config`.
fn run_threads(config: CacheConfig, ops: impl Fn(usize, &ShardedCache<u64, Vec<u8>>) + Sync) {
    let cache = ShardedCache::with_config(config);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (cache, ops) = (&cache, &ops);
            scope.spawn(move || ops(t, cache));
        }
    });
}

/// Times `run` once untimed, then `SAMPLES` times, and prints the
/// median with the throughput of `elements` ops per run.
fn bench(name: &str, elements: usize, run: impl Fn()) {
    run();
    let mut samples: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed()
        })
        .collect();
    samples.sort_unstable();
    let median = samples[SAMPLES / 2];
    println!(
        "{name:<52} {:>10.3} ms {:>12.0} ops/s",
        median.as_secs_f64() * 1e3,
        elements as f64 / median.as_secs_f64()
    );
}

/// Shard sweep: hit-dominated skewed traffic, where throughput is
/// bounded by lock contention, not build cost; then the write path,
/// where every op inserts a distinct key, so threads contend on the
/// shard *write* lock (insert + publish) instead of the per-slot hit
/// path. The write path is where the shard count earns its keep.
fn bench_shards() {
    const OPS: usize = 20_000;
    const KEYS: u64 = 64;
    const CHURN_OPS: usize = 4_000;
    for shards in [1usize, 4, 16, 64] {
        let name = format!("cache_shards/skewed_hits_8threads/{shards}");
        bench(&name, THREADS * OPS, || {
            run_threads(CacheConfig::unbounded().with_shards(shards), |t, cache| {
                let mut rng = 0x1234_5678_u64 ^ (t as u64) << 32;
                let mut sink = 0u64;
                for _ in 0..OPS {
                    let key = skewed(&mut rng, KEYS);
                    let v = cache.get_or_build(&key, || build_value(key, 100, 1024));
                    sink = sink.wrapping_add(v[0] as u64);
                }
                std::hint::black_box(sink);
            });
        });
    }
    for shards in [1usize, 4, 16, 64] {
        let name = format!("cache_shards_churn/distinct_inserts_8threads/{shards}");
        bench(&name, THREADS * CHURN_OPS, || {
            run_threads(CacheConfig::unbounded().with_shards(shards), |t, cache| {
                let mut sink = 0u64;
                for op in 0..CHURN_OPS {
                    let key = (t * CHURN_OPS + op) as u64;
                    let v = cache.get_or_build(&key, || build_value(key, 0, 64));
                    sink = sink.wrapping_add(v[0] as u64);
                }
                std::hint::black_box(sink);
            });
        });
    }
}

fn main() {
    bench_shards();
}
