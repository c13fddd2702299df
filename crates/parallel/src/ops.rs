//! Safe data-parallel operations built on [`Pool::broadcast`].

use std::ops::Range;

use crate::{even_ranges, Pool, SyncSlice};

/// Runs `f(chunk_index, range, &mut data[range])` for every range, in
/// parallel. Ranges are assigned to workers round-robin (`ranges[k]`
/// goes to worker `k % threads`), so callers may pass more ranges than
/// workers.
///
/// # Panics
///
/// Panics if the ranges are not sorted, non-overlapping, and within
/// `data` bounds.
pub fn par_chunks_mut<T, F>(pool: &Pool, data: &mut [T], ranges: &[Range<usize>], f: F)
where
    T: Send,
    F: Fn(usize, Range<usize>, &mut [T]) + Sync,
{
    assert!(
        ranges.windows(2).all(|w| w[0].end <= w[1].start),
        "chunk ranges must be sorted and non-overlapping"
    );
    if let Some(last) = ranges.last() {
        assert!(
            last.end <= data.len(),
            "chunk range {last:?} exceeds slice length {}",
            data.len()
        );
    }
    let view = SyncSlice::new(data);
    let threads = pool.threads();
    pool.broadcast(|w| {
        for k in (w..ranges.len()).step_by(threads) {
            let range = ranges[k].clone();
            // SAFETY: the ranges were checked non-overlapping above
            // and each index k is visited by exactly one worker, so
            // every subslice is accessed by one thread only.
            let chunk = unsafe { view.slice_mut(range.clone()) };
            f(k, range, chunk);
        }
    });
}

/// Fills `out[i] = f(i)` in parallel over even chunks.
///
/// # Example
///
/// ```
/// use lgr_parallel::{par_fill, Pool};
///
/// let pool = Pool::new(4);
/// let mut squares = vec![0usize; 100];
/// par_fill(&pool, &mut squares, |i| i * i);
/// assert_eq!(squares[9], 81);
/// ```
pub fn par_fill<T, F>(pool: &Pool, out: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let ranges = even_ranges(out.len(), pool.threads());
    par_fill_ranges(pool, out, &ranges, f);
}

/// Fills `out[i] = f(i)` in parallel, dividing work by the given
/// ranges (e.g. [`crate::edge_balanced_ranges`] for degree-skewed
/// per-vertex work).
///
/// # Panics
///
/// Panics if the ranges are not sorted, non-overlapping, and within
/// `out` bounds.
pub fn par_fill_ranges<T, F>(pool: &Pool, out: &mut [T], ranges: &[Range<usize>], f: F)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_chunks_mut(pool, out, ranges, |_, range, chunk| {
        for (slot, i) in chunk.iter_mut().zip(range) {
            *slot = f(i);
        }
    });
}

/// Stable scatter offsets: the result of per-part histograms merged
/// by prefix sum, as produced by [`stable_offsets`].
///
/// For a counting sort over `bins` keys where part `p` is the `p`-th
/// consecutive piece of the input, `row(p)[b]` is the first output
/// slot for part `p`'s items with key `b`. Laying items out at
/// `row(p)[b]`, incrementing per item, yields the *stable* order:
/// grouped by bin, input order within each bin.
#[derive(Debug, Clone)]
pub struct StableOffsets {
    bins: usize,
    /// Flat `parts × bins` start-offset matrix, row per part.
    offsets: Vec<usize>,
    /// `bin_starts[b]` is the first output slot of bin `b`; the extra
    /// last entry equals the item total (a ready-made CSR index).
    bin_starts: Vec<usize>,
}

impl StableOffsets {
    /// Part `p`'s start offset per bin. Clone it into a local cursor
    /// and post-increment per scattered item.
    pub fn row(&self, part: usize) -> &[usize] {
        &self.offsets[part * self.bins..(part + 1) * self.bins]
    }

    /// Exclusive prefix sum of bin sizes, length `bins + 1` — exactly
    /// a CSR index array when bins are vertices.
    pub fn bin_starts(&self) -> &[usize] {
        &self.bin_starts
    }

    /// Consumes `self`, returning the bin-starts vector without
    /// copying.
    pub fn into_bin_starts(self) -> Vec<usize> {
        self.bin_starts
    }

    /// Total number of items counted.
    pub fn total(&self) -> usize {
        // `bin_starts` holds `bins + 1` entries, so `last` is never
        // `None`.
        self.bin_starts.last().copied().unwrap_or(0)
    }
}

/// Per-part histograms merged by prefix sum: `count(p, row)` adds one
/// to `row[b]` for each item of part `p` with key `b`, every part
/// counting into its own zeroed row on the pool; the rows are then
/// merged into stable scatter offsets (bin-major, then part-major —
/// i.e. input order within each bin, because part `p` must be the
/// `p`-th *consecutive* piece of the input).
///
/// `count` runs exactly once per part, so it may also record a
/// per-item result in a range of its own (`lgr-core`'s
/// `group_reorder_with` keeps each vertex's group). It runs out of
/// line, with `row` a `noalias` parameter: the compiler then holds
/// `count`'s captures in registers instead of reloading them after
/// every increment, which keeps random increments (a CSR's owners)
/// overlapping in the memory pipeline.
///
/// Both the counting pass and the (column-strided) prefix merge run on
/// the pool; only the `O(threads)` chunk-total prefix is sequential.
///
/// # Safety argument for the internal `unsafe`
///
/// The prefix merge writes through [`SyncSlice`] without locks: each
/// pool task owns a disjoint range of bins, and every cell it touches
/// (`p * bins + b`, plus `bin_starts[b]`) is indexed by a bin `b`
/// from its own range — tasks therefore never alias a cell, and both
/// borrows end before the enclosing scope returns the vectors.
///
/// # Example
///
/// ```
/// use lgr_parallel::{even_ranges, stable_offsets, Pool};
///
/// let keys = [1usize, 0, 1, 1, 0];
/// let pool = Pool::new(2);
/// let ranges = even_ranges(keys.len(), pool.threads());
/// let offs = stable_offsets(&pool, ranges.len(), 2, |p, row| {
///     for &k in &keys[ranges[p].clone()] {
///         row[k] += 1;
///     }
/// });
/// assert_eq!(offs.bin_starts(), &[0, 2, 5]);
/// // Part 0 holds items 0..3 (keys 1, 0, 1): its first key-0 item
/// // lands at slot 0, its first key-1 item at slot 2.
/// assert_eq!(offs.row(0), &[0, 2]);
/// // Part 1 holds items 3..5 (keys 1, 0): after part 0's one key-0
/// // item and two key-1 items.
/// assert_eq!(offs.row(1), &[1, 4]);
/// ```
///
/// # Panics
///
/// Panics if `count` indexes `row` at or past `bins`.
pub fn stable_offsets<F>(pool: &Pool, parts: usize, bins: usize, count: F) -> StableOffsets
where
    F: Fn(usize, &mut [usize]) + Sync,
{
    let mut offsets = vec![0usize; parts * bins];
    // Pass 1: per-part histograms, each part filling its own row.
    let rows: Vec<Range<usize>> = (0..parts).map(|p| p * bins..(p + 1) * bins).collect();
    par_chunks_mut(pool, &mut offsets, &rows, |p, _, row| {
        count_part(row, p, &count)
    });
    // Pass 2: column-major exclusive prefix sum, parallel over bin
    // chunks. Each chunk first accumulates relative offsets...
    let mut bin_starts = vec![0usize; bins + 1];
    let bin_ranges = even_ranges(bins, pool.threads());
    let mut chunk_totals = vec![0usize; bin_ranges.len()];
    {
        let off = SyncSlice::new(&mut offsets);
        let starts = SyncSlice::new(&mut bin_starts);
        par_fill(pool, &mut chunk_totals, |j| {
            let mut acc = 0usize;
            for b in bin_ranges[j].clone() {
                // SAFETY: bin chunk j touches only columns in its
                // (disjoint) bin range.
                unsafe { starts.write(b, acc) };
                for p in 0..parts {
                    let idx = p * bins + b;
                    // SAFETY: same disjoint-columns argument.
                    let c = unsafe { off.read(idx) };
                    // SAFETY: same disjoint-columns argument.
                    unsafe { off.write(idx, acc) };
                    acc += c;
                }
            }
            acc
        });
    }
    // ...then a sequential O(threads) prefix over chunk totals...
    let mut bases = vec![0usize; bin_ranges.len()];
    let mut acc = 0usize;
    for (base, &t) in bases.iter_mut().zip(&chunk_totals) {
        *base = acc;
        acc += t;
    }
    let total = acc;
    // ...and a parallel pass rebasing every chunk.
    {
        let off = SyncSlice::new(&mut offsets);
        let starts = SyncSlice::new(&mut bin_starts);
        let bases = &bases;
        let bin_ranges_ref = &bin_ranges;
        pool.broadcast(|w| {
            for j in (w..bin_ranges_ref.len()).step_by(pool.threads()) {
                let base = bases[j];
                if base == 0 {
                    continue;
                }
                for b in bin_ranges_ref[j].clone() {
                    // SAFETY: disjoint bin columns per chunk j, and
                    // each j is visited by exactly one worker.
                    unsafe { starts.write(b, starts.read(b) + base) };
                    for p in 0..parts {
                        let idx = p * bins + b;
                        // SAFETY: same disjoint-columns-per-chunk
                        // argument as the rebase above.
                        unsafe { off.write(idx, off.read(idx) + base) };
                    }
                }
            }
        });
    }
    bin_starts[bins] = total;
    StableOffsets {
        bins,
        offsets,
        bin_starts,
    }
}

/// Runs `count(part, row)` out of line, so that `row` arrives as a
/// `noalias` parameter (see [`stable_offsets`]).
#[inline(never)]
fn count_part<F: Fn(usize, &mut [usize])>(row: &mut [usize], part: usize, count: &F) {
    count(part, row);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_fill_matches_sequential() {
        for threads in [1usize, 2, 3, 8] {
            let pool = Pool::new(threads);
            let mut out = vec![0u64; 1000];
            par_fill(&pool, &mut out, |i| (i as u64).wrapping_mul(0x9E37));
            assert!(out
                .iter()
                .enumerate()
                .all(|(i, &v)| v == (i as u64).wrapping_mul(0x9E37)));
        }
    }

    #[test]
    fn par_chunks_mut_round_robins_excess_ranges() {
        let pool = Pool::new(2);
        let mut data = vec![0usize; 10];
        let ranges: Vec<Range<usize>> = (0..5).map(|i| i * 2..i * 2 + 2).collect();
        par_chunks_mut(&pool, &mut data, &ranges, |k, range, chunk| {
            for (slot, i) in chunk.iter_mut().zip(range) {
                *slot = k * 100 + i;
            }
        });
        assert_eq!(data[0], 0);
        assert_eq!(data[9], 409);
    }

    #[test]
    #[should_panic(expected = "non-overlapping")]
    fn par_chunks_mut_rejects_overlap() {
        let pool = Pool::new(2);
        let mut data = vec![0usize; 10];
        par_chunks_mut(&pool, &mut data, &[0..5, 4..10], |_, _, _| {});
    }

    /// Reference sequential stable counting-sort offsets.
    fn reference_offsets(keys: &[usize], ranges: &[Range<usize>], bins: usize) -> Vec<usize> {
        let parts = ranges.len();
        let mut counts = vec![0usize; parts * bins];
        for (p, r) in ranges.iter().enumerate() {
            for i in r.clone() {
                counts[p * bins + keys[i]] += 1;
            }
        }
        let mut offsets = vec![0usize; parts * bins];
        let mut acc = 0usize;
        for b in 0..bins {
            for p in 0..parts {
                offsets[p * bins + b] = acc;
                acc += counts[p * bins + b];
            }
        }
        offsets
    }

    /// Counts `keys[i]` for every item `i` of part `p`'s range.
    fn count_keys<'a>(
        keys: &'a [usize],
        ranges: &'a [Range<usize>],
    ) -> impl Fn(usize, &mut [usize]) + Sync + 'a {
        move |p, row| {
            for &k in &keys[ranges[p].clone()] {
                row[k] += 1;
            }
        }
    }

    #[test]
    fn stable_offsets_matches_reference() {
        let keys: Vec<usize> = (0..500).map(|i| (i * 7 + i / 13) % 17).collect();
        for threads in [1usize, 2, 3, 8] {
            let pool = Pool::new(threads);
            let ranges = even_ranges(keys.len(), pool.threads());
            let offs = stable_offsets(&pool, ranges.len(), 17, count_keys(&keys, &ranges));
            let expect = reference_offsets(&keys, &ranges, 17);
            for p in 0..ranges.len() {
                assert_eq!(offs.row(p), &expect[p * 17..(p + 1) * 17], "part {p}");
            }
            assert_eq!(offs.total(), keys.len());
            // bin_starts is the exclusive prefix of bin sizes.
            let mut sizes = [0usize; 17];
            for &k in &keys {
                sizes[k] += 1;
            }
            let mut acc = 0;
            for (b, &s) in sizes.iter().enumerate() {
                assert_eq!(offs.bin_starts()[b], acc);
                acc += s;
            }
            assert_eq!(offs.bin_starts()[17], acc);
        }
    }

    #[test]
    fn stable_offsets_scatter_is_stable() {
        // Scatter items through the offsets and verify bin-major,
        // input-order-within-bin layout.
        let keys = [2usize, 0, 2, 1, 0, 2, 2, 1];
        let pool = Pool::new(3);
        let ranges = even_ranges(keys.len(), pool.threads());
        let offs = stable_offsets(&pool, ranges.len(), 3, count_keys(&keys, &ranges));
        let mut out = vec![usize::MAX; keys.len()];
        for (p, r) in ranges.iter().enumerate() {
            let mut cursor = offs.row(p).to_vec();
            for i in r.clone() {
                out[cursor[keys[i]]] = i;
                cursor[keys[i]] += 1;
            }
        }
        // Stable counting sort of indices by key.
        let mut expect: Vec<usize> = (0..keys.len()).collect();
        expect.sort_by_key(|&i| keys[i]);
        assert_eq!(out, expect);
    }

    #[test]
    fn stable_offsets_empty_input() {
        let pool = Pool::new(4);
        let ranges = even_ranges(0, pool.threads());
        let offs = stable_offsets(&pool, ranges.len(), 5, count_keys(&[], &ranges));
        assert_eq!(offs.total(), 0);
        assert_eq!(offs.bin_starts(), &[0; 6]);
    }

    #[test]
    fn stable_offsets_zero_bins() {
        let pool = Pool::new(2);
        let ranges = even_ranges(0, pool.threads());
        let offs = stable_offsets(&pool, ranges.len(), 0, count_keys(&[], &ranges));
        assert_eq!(offs.total(), 0);
        assert_eq!(offs.bin_starts(), &[0]);
    }
}
