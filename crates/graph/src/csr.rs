//! Compressed Sparse Row graphs with both edge directions.
//!
//! Like Ligra, the analytics engine needs in-edges for pull-based
//! computations and out-edges for push-based ones, so [`Csr`] stores
//! both adjacency structures. Weighted graphs carry per-edge weights
//! parallel to each adjacency array. A relabel may write only the
//! [`Directions`] a kernel reads; the other direction then keeps only
//! its index.

use std::ops::Range;

use lgr_parallel::{
    edge_balanced_ranges, even_ranges, par_chunks_mut, par_fill, stable_offsets, Pool, SyncSlice,
};

use crate::{EdgeList, Permutation, VertexId, Weight};

/// The canonical sort key of an edge in a weighted list: neighbor in
/// the high half, weight in the low, so `u64` order is the order of
/// the `(neighbor, weight)` pairs.
fn packed(neighbor: VertexId, weight: Weight) -> u64 {
    u64::from(neighbor) << 32 | u64::from(weight)
}

/// Canonicalizes one vertex's neighbor list: ascending neighbor IDs,
/// weights moving with their edges. Equal `(neighbor, weight)` pairs
/// make the result independent of the input order, which is what lets
/// every pool size produce structurally equal (`==`) CSRs, and two
/// edge lists describing the same multigraph build identical ones.
/// A weighted list already in order returns before any copy.
///
/// `scratch` holds the transient [`packed`] keys of the weighted path;
/// callers keep one buffer per worker and reuse it across vertices,
/// so sorting V adjacency lists costs O(max degree) transient space
/// instead of V allocations.
fn sort_adjacent(
    neighbors: &mut [VertexId],
    weights: Option<&mut [Weight]>,
    scratch: &mut Vec<u64>,
) {
    match weights {
        None => neighbors.sort_unstable(),
        Some(ws) => {
            let keys = neighbors.iter().zip(ws.iter()).map(|(&v, &w)| packed(v, w));
            if keys.clone().is_sorted() {
                return;
            }
            scratch.clear();
            scratch.extend(keys);
            scratch.sort_unstable();
            for ((v, w), &key) in neighbors.iter_mut().zip(ws.iter_mut()).zip(scratch.iter()) {
                (*v, *w) = ((key >> 32) as VertexId, key as Weight);
            }
        }
    }
}

/// Why a set of raw CSR arrays does not describe a valid [`Csr`]
/// (see [`Csr::from_adjacency_parts`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrPartsError {
    message: String,
}

impl CsrPartsError {
    fn new(message: impl Into<String>) -> Self {
        CsrPartsError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CsrPartsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid CSR parts: {}", self.message)
    }
}

impl std::error::Error for CsrPartsError {}

/// Borrowed view of one adjacency direction's raw arrays, exposed so
/// serializers (the `.lgr` binary format in `lgr-io`) can write a CSR
/// without round-tripping through an [`EdgeList`].
#[derive(Debug, Clone, Copy)]
pub struct AdjacencyView<'a> {
    /// Cumulative edge offsets, length `V + 1`:
    /// `index[v]..index[v + 1]` is vertex `v`'s neighbor range.
    pub index: &'a [usize],
    /// Neighbor IDs grouped by owning vertex, ascending within each
    /// vertex's range (the canonical order).
    pub neighbors: &'a [VertexId],
    /// Optional per-edge weights parallel to `neighbors`.
    pub weights: Option<&'a [Weight]>,
}

/// Which adjacency directions [`Csr::relabel_with`] writes. A
/// direction it does not write keeps only its index, so degrees,
/// offsets, [`Csr::num_edges`] and [`Csr::is_weighted`] still answer
/// for the whole graph, while its neighbors and weights are empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Directions {
    /// Only the out-direction, what push kernels read.
    Out,
    /// Only the in-direction, what pull kernels read.
    In,
    /// Both directions: the whole graph.
    Both,
}

/// One direction of adjacency in CSR form.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Adjacency {
    /// `index[v]..index[v+1]` is the neighbor range of `v`. Length V+1.
    index: Vec<usize>,
    /// Neighbor IDs, grouped by owning vertex.
    neighbors: Vec<VertexId>,
    /// Optional per-edge weights, parallel to `neighbors`.
    weights: Option<Vec<Weight>>,
}

/// What a CSR is written from: `(owner, neighbor, slot)`, with `slot`
/// indexing the source's weight array, so weights move with their
/// edges without the walk reading them.
type Triple = (usize, VertexId, usize);

/// How many parts a build's walks over `num_edges` edges are cut into:
/// two per worker, dealt round-robin, since equal edge mass is not
/// equal time (short lists cost more per edge than hub lists). Each
/// part costs a V-slot histogram row and a V-slot cursor, so the count
/// is capped at the average degree: the transient matrix never exceeds
/// the edge array, however many cores the host has. A permutation
/// apply cuts nothing: it knows its offsets before it walks.
fn walk_parts(pool: &Pool, num_vertices: usize, num_edges: usize) -> usize {
    (2 * pool.threads()).min((num_edges / num_vertices.max(1)).max(1))
}

impl Adjacency {
    /// The stable counting scatter a build writes its CSR with: the
    /// triples `walk` yields for each of `parts`, consecutive ranges of
    /// its items, grouped by owner over `num_vertices` lists, with
    /// weights read from `weights` at each slot. Parts are counted and
    /// scattered on the pool, and each list holds part `p`'s triples
    /// behind every earlier part's, in walk order within a part, so
    /// the result is the same (`==`) for every pool size. Each part is
    /// walked twice, to count and to scatter; the raw writes rely on
    /// both walks yielding the same owners.
    fn scatter<I: Iterator<Item = Triple>>(
        num_vertices: usize,
        weights: Option<&[Weight]>,
        parts: &[Range<usize>],
        walk: impl Fn(Range<usize>) -> I + Sync,
        pool: &Pool,
    ) -> Self {
        let offs = stable_offsets(pool, parts.len(), num_vertices, |p, row| {
            walk(parts[p].clone()).for_each(|(owner, _, _)| row[owner] += 1);
        });
        let mut neighbors = vec![0 as VertexId; offs.total()];
        let mut out_weights = weights.map(|_| vec![0 as Weight; offs.total()]);
        {
            let nb = SyncSlice::new(&mut neighbors);
            let wt = out_weights.as_mut().map(|w| SyncSlice::new(w));
            pool.broadcast(|w| {
                for p in (w..parts.len()).step_by(pool.threads()) {
                    let (triples, cursor) = (walk(parts[p].clone()), &mut offs.row(p).to_vec());
                    // One instance per weightedness: no per-edge test.
                    match (weights, wt) {
                        (Some(src), Some(wt)) => {
                            scatter_part(triples, cursor, move |slot, v, k| {
                                // SAFETY: stable offsets give every triple a
                                // distinct in-bounds slot, so writes are
                                // disjoint across parts.
                                unsafe {
                                    nb.write(slot, v);
                                    wt.write(slot, src[k]);
                                }
                            })
                        }
                        // SAFETY: as above.
                        _ => scatter_part(triples, cursor, move |slot, v, _| unsafe {
                            nb.write(slot, v)
                        }),
                    }
                }
            });
        }
        Adjacency {
            index: offs.into_bin_starts(),
            neighbors,
            weights: out_weights,
        }
    }

    /// The triples of this direction transposed under a relabeling:
    /// new ids `nv` of `items` in ascending order, each entry `u` of old
    /// vertex `old_of(nv)`'s list yielding `(new_of(u), nv, slot)`. The
    /// lists here are canonical, so the entries one owner receives from
    /// one `nv` (the copies of one `u`) come in ascending weight order,
    /// and `nv` ascends: scattered by owner in walk order, every list of
    /// the transpose is canonical with no sort, parallel edges and
    /// self-loops included.
    fn transposed<'a>(
        &'a self,
        items: Range<usize>,
        old_of: impl Fn(usize) -> usize + Copy + 'a,
        new_of: impl Fn(VertexId) -> usize + Copy + 'a,
    ) -> impl Iterator<Item = Triple> + 'a {
        let (index, neighbors) = (&self.index[..], &self.neighbors[..]);
        items.flat_map(move |nv| {
            let v = old_of(nv);
            let range = index[v]..index[v + 1];
            let slots = range.clone().zip(&neighbors[range]);
            slots.map(move |(slot, &u)| (new_of(u), nv as VertexId, slot))
        })
    }

    /// This direction transposed, the in-direction of a build: the
    /// counting scatter of [`Adjacency::transposed`] under the
    /// identity, its vertices cut into `parts` of near-equal edge mass
    /// so that no part holds every hub.
    fn transpose(&self, parts: usize, pool: &Pool) -> Self {
        let cuts = edge_balanced_ranges(&self.index, parts);
        let walk = |items| self.transposed(items, |v| v, |u| u as usize);
        let n = self.index.len() - 1;
        Adjacency::scatter(n, self.weights.as_deref(), &cuts, walk, pool)
    }

    /// Writes `self`, whose arrays are sized for `walked`'s transpose,
    /// as that transpose under the relabeling `inv` (new id to old) /
    /// `new_ids` (old id to new), in one walk with no count pass. A
    /// relabeled vertex keeps its degree, so list `nv` starts at the
    /// sum of the degrees in `sizes` (the other old direction's index)
    /// of `inv[..nv]`, and its cursor starts there. The cursors live in
    /// `index[1..]`: cursor `nv` ends one past list `nv`'s last slot,
    /// which is where list `nv + 1` starts. The writes are
    /// bounds-checked, so a CSR whose directions disagree (see
    /// [`Csr::from_adjacency_parts`]) panics or relabels wrongly but
    /// never writes out of bounds.
    fn relabel(
        &mut self,
        walked: &Adjacency,
        sizes: &[usize],
        inv: &[VertexId],
        new_ids: &[VertexId],
    ) {
        let cursor = &mut self.index[1..];
        let mut start = 0;
        for (c, &v) in cursor.iter_mut().zip(inv) {
            *c = start;
            start += sizes[v as usize + 1] - sizes[v as usize];
        }
        let old_of = |nv: usize| inv[nv] as usize;
        let triples = walked.transposed(0..inv.len(), old_of, |u| new_ids[u as usize] as usize);
        let neighbors = &mut self.neighbors[..];
        // One instance per weightedness: no per-edge test.
        match (walked.weights.as_deref(), self.weights.as_deref_mut()) {
            (Some(src), Some(wt)) => scatter_part(triples, cursor, move |slot, v, k| {
                neighbors[slot] = v;
                wt[slot] = src[k];
            }),
            _ => scatter_part(triples, cursor, move |slot, v, _| neighbors[slot] = v),
        }
    }

    /// This direction's index under the relabeling `inv` (new id to
    /// old): a relabeled vertex keeps its degree, so list `nv` starts
    /// at the sum of the degrees of `inv[..nv]`.
    fn relabeled_index(&self, inv: &[VertexId]) -> Vec<usize> {
        let degrees = inv.iter().map(|&v| self.degree(v) as usize);
        let ends = degrees.scan(0, |end, d| {
            *end += d;
            Some(*end)
        });
        std::iter::once(0).chain(ends).collect()
    }

    /// This direction under the relabeling `inv` (new id to old) with
    /// only its index written: what a relabel keeps of a direction the
    /// job does not read.
    fn index_only(&self, inv: &[VertexId]) -> Self {
        Adjacency {
            index: self.relabeled_index(inv),
            neighbors: Vec::new(),
            weights: self.weights.as_ref().map(|_| Vec::new()),
        }
    }

    /// This direction relabeled, gathered from itself in new-id order:
    /// list `nv` is old list `inv[nv]` with each neighbor mapped
    /// through `new_ids` and its weight carried along, then sorted
    /// into canonical order. The new ids are cut into edge-balanced
    /// ranges, one per pool worker, and each worker writes only its
    /// range's lists.
    fn gathered(&self, inv: &[VertexId], new_ids: &[VertexId], pool: &Pool) -> Self {
        let index = self.relabeled_index(inv);
        let m = self.neighbors.len();
        let mut neighbors = vec![0 as VertexId; m];
        let mut weights = self.weights.as_ref().map(|_| vec![0 as Weight; m]);
        let ranges = edge_balanced_ranges(&index, pool.threads());
        {
            let nb = SyncSlice::new(&mut neighbors);
            let wt = weights.as_mut().map(|w| SyncSlice::new(w));
            pool.broadcast(|w| {
                let (lists, mut scratch) = (ranges[w].clone(), Vec::new());
                for nv in lists {
                    let (old, new) = (self.range(inv[nv]), index[nv]..index[nv + 1]);
                    // SAFETY: the worker ranges are disjoint, so are
                    // their lists' slots, and each list is written by
                    // the one worker whose range holds it.
                    let nbrs = unsafe { nb.slice_mut(new.clone()) };
                    for (slot, &u) in nbrs.iter_mut().zip(&self.neighbors[old.clone()]) {
                        *slot = new_ids[u as usize];
                    }
                    // SAFETY: the same disjoint per-list range as above.
                    let ws = wt.map(|wt| unsafe { wt.slice_mut(new.clone()) });
                    let ws = ws.zip(self.weights.as_deref()).map(|(ws, src)| {
                        ws.copy_from_slice(&src[old]);
                        ws
                    });
                    sort_adjacent(nbrs, ws, &mut scratch);
                }
            });
        }
        Adjacency {
            index,
            neighbors,
            weights,
        }
    }

    /// Sorts every list into canonical `(neighbor, weight)` order on the
    /// pool, dividing vertices by edge mass so hub-heavy prefixes don't
    /// serialize on one worker.
    fn sort_lists(&mut self, pool: &Pool) {
        let index = &self.index;
        let vranges = edge_balanced_ranges(index, pool.threads());
        let nb = SyncSlice::new(&mut self.neighbors);
        let wt = self.weights.as_mut().map(|w| SyncSlice::new(w));
        pool.broadcast(|w| {
            let mut scratch = Vec::new();
            for v in vranges[w].clone() {
                let range = index[v]..index[v + 1];
                // SAFETY: neighbor ranges of distinct vertices are
                // disjoint, and each worker owns a distinct vertex
                // range.
                let nbrs = unsafe { nb.slice_mut(range.clone()) };
                // SAFETY: same disjoint per-vertex range as above.
                let ws = wt.map(|wt| unsafe { wt.slice_mut(range.clone()) });
                sort_adjacent(nbrs, ws, &mut scratch);
            }
        });
    }

    #[inline]
    fn range(&self, v: VertexId) -> Range<usize> {
        self.index[v as usize]..self.index[v as usize + 1]
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.range(v)]
    }

    #[inline]
    fn degree(&self, v: VertexId) -> u32 {
        (self.index[v as usize + 1] - self.index[v as usize]) as u32
    }
}

/// Scatters `triples` through `cursor`, starting each owner's run at
/// `cursor[owner]`, and hands each `(slot, neighbor, source slot)` to
/// `put`. Out of line so that `cursor` and the walk's state arrive as
/// `noalias` parameters: the writes would otherwise force a reload of
/// every captured pointer per edge.
#[inline(never)]
fn scatter_part(
    triples: impl Iterator<Item = Triple>,
    cursor: &mut [usize],
    mut put: impl FnMut(usize, VertexId, usize),
) {
    triples.for_each(move |(owner, neighbor, k)| {
        let slot = cursor[owner];
        cursor[owner] += 1;
        put(slot, neighbor, k);
    });
}

/// A directed graph in Compressed Sparse Row form, storing both in- and
/// out-edges, with optional per-edge weights.
///
/// # Example
///
/// ```
/// use lgr_graph::{Csr, EdgeList};
///
/// let mut el = EdgeList::new(3);
/// el.push(0, 1);
/// el.push(0, 2);
/// el.push(2, 1);
/// let g = Csr::from_edge_list(&el);
/// assert_eq!(g.out_neighbors(0), &[1, 2]);
/// assert_eq!(g.in_neighbors(1), &[0, 2]);
/// assert_eq!(g.out_degree(0), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Csr {
    num_vertices: usize,
    num_edges: usize,
    out: Adjacency,
    inn: Adjacency,
}

impl Csr {
    /// Builds a CSR graph from an edge list on the calling thread:
    /// [`Csr::from_edge_list_with`] on a pool of one. O(V + E).
    pub fn from_edge_list(el: &EdgeList) -> Self {
        Self::from_edge_list_with(el, &Pool::new(1))
    }

    /// Builds a CSR graph from an edge list using the worker pool. The
    /// out-direction is a stable counting scatter of the edges by
    /// source (per-part histograms merged by prefix sum, then the
    /// scatter), after which each list is sorted, edge-balanced across
    /// the workers. The in-direction is the transpose of that sorted
    /// out-direction, the same scatter walking sources in ascending
    /// order, and needs no sort. Each vertex's neighbors come out in
    /// ascending `(neighbor, weight)` order.
    ///
    /// The result is structurally identical (`==`) for every pool
    /// size; a pool of one runs the same code inline.
    ///
    /// # Example
    ///
    /// ```
    /// use lgr_graph::{Csr, EdgeList};
    /// use lgr_parallel::Pool;
    ///
    /// let mut el = EdgeList::new(3);
    /// el.push(0, 1);
    /// el.push(2, 1);
    /// let pool = Pool::new(4);
    /// assert_eq!(Csr::from_edge_list_with(&el, &pool), Csr::from_edge_list(&el));
    /// ```
    pub fn from_edge_list_with(el: &EdgeList, pool: &Pool) -> Self {
        let (n, edges) = (el.num_vertices(), el.edges());
        let parts = walk_parts(pool, n, edges.len());
        let cuts = even_ranges(edges.len(), parts);
        let walk = |items: Range<usize>| {
            let pairs = items.clone().zip(&edges[items]);
            pairs.map(|(slot, &(u, v))| (u as usize, v, slot))
        };
        let mut out = Adjacency::scatter(n, el.weights(), &cuts, walk, pool);
        out.sort_lists(pool);
        let inn = out.transpose(parts, pool);
        Csr {
            num_vertices: n,
            num_edges: edges.len(),
            out,
            inn,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// `true` if the graph carries edge weights.
    pub fn is_weighted(&self) -> bool {
        self.out.weights.is_some()
    }

    /// Average degree `E / V` (0.0 for an empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            self.num_edges as f64 / self.num_vertices as f64
        }
    }

    /// Out-neighbors of `v` (targets of edges leaving `v`).
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.out.neighbors(v)
    }

    /// In-neighbors of `v` (sources of edges entering `v`).
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.inn.neighbors(v)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u32 {
        self.out.degree(v)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> u32 {
        self.inn.degree(v)
    }

    /// Weights parallel to [`Csr::out_neighbors`], if the graph is
    /// weighted.
    #[inline]
    pub fn out_weights(&self, v: VertexId) -> Option<&[Weight]> {
        self.out.weights.as_ref().map(|w| &w[self.out.range(v)])
    }

    /// Weights parallel to [`Csr::in_neighbors`], if the graph is
    /// weighted.
    #[inline]
    pub fn in_weights(&self, v: VertexId) -> Option<&[Weight]> {
        self.inn.weights.as_ref().map(|w| &w[self.inn.range(v)])
    }

    /// Offset of the first out-edge of `v` within the out-edge array.
    ///
    /// Exposed so the cache simulator can map edge-array traversals to
    /// memory addresses.
    #[inline]
    pub fn out_edge_offset(&self, v: VertexId) -> usize {
        self.out.index[v as usize]
    }

    /// Offset of the first in-edge of `v` within the in-edge array.
    #[inline]
    pub fn in_edge_offset(&self, v: VertexId) -> usize {
        self.inn.index[v as usize]
    }

    /// The cumulative out-edge offset array (length `V + 1`):
    /// `out_offsets()[v + 1] - out_offsets()[v]` is `v`'s out-degree.
    ///
    /// Exposed for edge-balanced work division
    /// ([`lgr_parallel::edge_balanced_ranges`]).
    #[inline]
    pub fn out_offsets(&self) -> &[usize] {
        &self.out.index
    }

    /// The cumulative in-edge offset array (length `V + 1`), the
    /// in-direction counterpart of [`Csr::out_offsets`].
    #[inline]
    pub fn in_offsets(&self) -> &[usize] {
        &self.inn.index
    }

    /// All out-degrees as a vector.
    pub fn out_degrees(&self) -> Vec<u32> {
        (0..self.num_vertices as VertexId)
            .map(|v| self.out_degree(v))
            .collect()
    }

    /// All in-degrees as a vector.
    pub fn in_degrees(&self) -> Vec<u32> {
        (0..self.num_vertices as VertexId)
            .map(|v| self.in_degree(v))
            .collect()
    }

    /// Converts back to an edge list (edges ordered by source vertex).
    pub fn to_edge_list(&self) -> EdgeList {
        let mut el = EdgeList::with_capacity(self.num_vertices, self.num_edges);
        for u in 0..self.num_vertices as VertexId {
            match self.out_weights(u) {
                Some(ws) => {
                    for (&v, &w) in self.out_neighbors(u).iter().zip(ws) {
                        el.push_weighted(u, v, w);
                    }
                }
                None => {
                    for &v in self.out_neighbors(u) {
                        el.push(u, v);
                    }
                }
            }
        }
        el
    }

    /// Relabels every vertex according to `perm` and rebuilds the CSR.
    ///
    /// This is the "apply the reordering" step: after it, vertex `v`'s
    /// data lives at slot `perm.new_id(v)` of every array. The graph
    /// itself (as a set of weighted edges) is unchanged.
    ///
    /// Runs [`Csr::apply_permutation_with`] on a pool of one.
    ///
    /// # Panics
    ///
    /// Panics if the permutation length differs from the vertex count.
    pub fn apply_permutation(&self, perm: &Permutation) -> Csr {
        self.apply_permutation_with(perm, &Pool::new(1))
    }

    /// [`Csr::apply_permutation`] on the worker pool:
    /// [`Csr::relabel_with`] writing [`Directions::Both`].
    ///
    /// # Panics
    ///
    /// Panics if the permutation length differs from the vertex count.
    pub fn apply_permutation_with(&self, perm: &Permutation, pool: &Pool) -> Csr {
        self.relabel_with(perm, Directions::Both, pool)
    }

    /// Relabels every vertex according to `perm`, writing the
    /// directions `dirs` names. Each written direction is structurally
    /// identical (`==`) to the same direction of
    /// [`Csr::apply_permutation`], for every pool size; a direction not
    /// written keeps only its index (see [`Directions`]), so a kernel
    /// that reads its neighbors or weights panics.
    ///
    /// [`Directions::Both`] writes each direction as the transpose of
    /// the *other* old direction, CSR-to-CSR with no intermediate
    /// [`EdgeList`] and no count pass: a relabeled vertex keeps its
    /// degree, so the new out-index is the prefix sum of the old
    /// out-degrees in new-id order (and the in-index of the
    /// in-degrees), and one walk fills each direction from cursors
    /// that start at those offsets. New ids are walked in ascending
    /// order, and because the old lists are canonical, every new list
    /// comes out in canonical `(neighbor, weight)` order with no sort.
    /// The two directions are two jobs: on a pool of two or more
    /// threads each runs on its own worker (further workers stay
    /// idle), and on a pool of one both run inline.
    ///
    /// [`Directions::Out`] and [`Directions::In`] gather the one
    /// direction from the same old direction instead, list by list in
    /// new-id order, each list mapped and sorted, with the lists cut
    /// into edge-balanced ranges across every pool worker.
    ///
    /// Every array is allocated on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if the permutation length differs from the vertex count.
    pub fn relabel_with(&self, perm: &Permutation, dirs: Directions, pool: &Pool) -> Csr {
        assert_eq!(perm.len(), self.num_vertices, "permutation length mismatch");
        let (n, m, inv) = (self.num_vertices, self.num_edges, perm.inverse());
        let new_ids = perm.new_ids();
        let (out, inn) = match dirs {
            Directions::Out => (
                self.out.gathered(&inv, new_ids, pool),
                self.inn.index_only(&inv),
            ),
            Directions::In => (
                self.out.index_only(&inv),
                self.inn.gathered(&inv, new_ids, pool),
            ),
            Directions::Both => {
                // (walked, sizes): the new out-direction transposes the
                // old in-lists into lists sized by the old out-degrees,
                // and the new in-direction the other way round.
                let sources = [(&self.inn, &self.out.index), (&self.out, &self.inn.index)];
                let mut both = sources.map(|(walked, _)| Adjacency {
                    index: vec![0; n + 1],
                    neighbors: vec![0; m],
                    weights: walked.weights.as_ref().map(|_| vec![0; m]),
                });
                par_chunks_mut(pool, &mut both, &[0..1, 1..2], |k, _, dir| {
                    let (walked, sizes) = sources[k];
                    dir[0].relabel(walked, sizes, &inv, new_ids);
                });
                let [out, inn] = both;
                (out, inn)
            }
        };
        Csr {
            num_vertices: n,
            num_edges: m,
            out,
            inn,
        }
    }

    /// Raw view of the out-direction arrays (for serializers). A
    /// direction [`Csr::relabel_with`] did not write shows its index
    /// and empty neighbors.
    pub fn out_adjacency(&self) -> AdjacencyView<'_> {
        AdjacencyView {
            index: &self.out.index,
            neighbors: &self.out.neighbors,
            weights: self.out.weights.as_deref(),
        }
    }

    /// Raw view of the in-direction arrays (for serializers).
    pub fn in_adjacency(&self) -> AdjacencyView<'_> {
        AdjacencyView {
            index: &self.inn.index,
            neighbors: &self.inn.neighbors,
            weights: self.inn.weights.as_deref(),
        }
    }

    /// Reassembles a CSR from the raw arrays of both directions — the
    /// deserialization counterpart of [`Csr::out_adjacency`] /
    /// [`Csr::in_adjacency`]: [`Csr::from_adjacency_parts_with`] on a
    /// pool of one.
    pub fn from_adjacency_parts(
        num_vertices: usize,
        out: (Vec<usize>, Vec<VertexId>, Option<Vec<Weight>>),
        inn: (Vec<usize>, Vec<VertexId>, Option<Vec<Weight>>),
    ) -> Result<Csr, CsrPartsError> {
        Self::from_adjacency_parts_with(num_vertices, out, inn, &Pool::new(1))
    }

    /// [`Csr::from_adjacency_parts`] on the worker pool, used by the
    /// `.lgr` binary loader to reconstruct a graph with no per-edge
    /// parsing or counting sort.
    ///
    /// Validates the structural invariants every constructor of this
    /// type guarantees: index shape and monotonicity, neighbor-ID
    /// bounds, weight-array parity between directions, equal edge
    /// counts in both directions, and the canonical ascending
    /// `(neighbor, weight)` order within each vertex's range (what
    /// makes CSR equality structural). It does **not** verify that the
    /// in-direction is the exact transpose of the out-direction;
    /// serialized files carry a checksum for integrity instead.
    ///
    /// The two directions are checked as two jobs, each on its own
    /// worker on a pool of two or more threads; when both are invalid,
    /// the out-direction's error is the one returned, for every pool
    /// size.
    pub fn from_adjacency_parts_with(
        num_vertices: usize,
        out: (Vec<usize>, Vec<VertexId>, Option<Vec<Weight>>),
        inn: (Vec<usize>, Vec<VertexId>, Option<Vec<Weight>>),
        pool: &Pool,
    ) -> Result<Csr, CsrPartsError> {
        if out.2.is_some() != inn.2.is_some() {
            return Err(CsrPartsError::new(
                "one direction is weighted and the other is not",
            ));
        }
        let num_edges = out.1.len();
        if inn.1.len() != num_edges {
            return Err(CsrPartsError::new(format!(
                "edge-count mismatch: {} out-edges vs {} in-edges",
                num_edges,
                inn.1.len()
            )));
        }
        let dirs = [("out", &out), ("in", &inn)];
        let mut checks = [Ok(()), Ok(())];
        par_fill(pool, &mut checks, |k| {
            let (dir, (index, neighbors, weights)) = dirs[k];
            validate_direction(dir, num_vertices, index, neighbors, weights.as_deref())
        });
        checks.into_iter().collect::<Result<(), _>>()?;
        Ok(Csr {
            num_vertices,
            num_edges,
            out: Adjacency {
                index: out.0,
                neighbors: out.1,
                weights: out.2,
            },
            inn: Adjacency {
                index: inn.0,
                neighbors: inn.1,
                weights: inn.2,
            },
        })
    }
}

/// Checks one direction's raw arrays for [`Csr::from_adjacency_parts`],
/// naming it `dir` in the error.
fn validate_direction(
    dir: &str,
    num_vertices: usize,
    index: &[usize],
    neighbors: &[VertexId],
    weights: Option<&[Weight]>,
) -> Result<(), CsrPartsError> {
    if index.len() != num_vertices + 1 {
        return Err(CsrPartsError::new(format!(
            "{dir} index has {} entries, expected {}",
            index.len(),
            num_vertices + 1
        )));
    }
    if index.first() != Some(&0) {
        return Err(CsrPartsError::new(format!("{dir} index must start at 0")));
    }
    if index.windows(2).any(|w| w[0] > w[1]) {
        return Err(CsrPartsError::new(format!("{dir} index is not monotonic")));
    }
    if index[num_vertices] != neighbors.len() {
        return Err(CsrPartsError::new(format!(
            "{dir} index ends at {} but there are {} neighbors",
            index[num_vertices],
            neighbors.len()
        )));
    }
    if neighbors.iter().any(|&v| v as usize >= num_vertices) {
        return Err(CsrPartsError::new(format!(
            "{dir} neighbor ID out of range for {num_vertices} vertices"
        )));
    }
    if let Some(ws) = weights {
        if ws.len() != neighbors.len() {
            return Err(CsrPartsError::new(format!(
                "{dir} weights length {} does not match {} neighbors",
                ws.len(),
                neighbors.len()
            )));
        }
    }
    for (v, bounds) in index.windows(2).enumerate() {
        let range = bounds[0]..bounds[1];
        let sorted = match weights {
            None => neighbors[range].is_sorted(),
            Some(ws) => neighbors[range.clone()]
                .iter()
                .zip(&ws[range])
                .map(|(&n, &w)| packed(n, w))
                .is_sorted(),
        };
        if !sorted {
            return Err(CsrPartsError::new(format!(
                "{dir} neighbors of vertex {v} are not in canonical order"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Csr {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut el = EdgeList::new(4);
        el.push(0, 1);
        el.push(0, 2);
        el.push(1, 3);
        el.push(2, 3);
        Csr::from_edge_list(&el)
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.average_degree(), 1.0);
    }

    #[test]
    fn weighted_round_trip() {
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 10);
        el.push_weighted(0, 2, 20);
        el.push_weighted(2, 1, 30);
        let g = Csr::from_edge_list(&el);
        assert!(g.is_weighted());
        assert_eq!(g.out_weights(0).unwrap(), &[10, 20]);
        // In-edges of 1 come from 0 (w=10) and 2 (w=30).
        let (in_nb, in_w) = (g.in_neighbors(1), g.in_weights(1).unwrap());
        let mut pairs: Vec<_> = in_nb.iter().zip(in_w).map(|(&a, &b)| (a, b)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 10), (2, 30)]);
    }

    #[test]
    fn to_edge_list_round_trips() {
        let g = diamond();
        let el = g.to_edge_list();
        let g2 = Csr::from_edge_list(&el);
        assert_eq!(g, g2);
    }

    #[test]
    fn permutation_preserves_structure() {
        let g = diamond();
        // Reverse IDs: v -> 3 - v.
        let perm = Permutation::from_new_ids(vec![3, 2, 1, 0]).unwrap();
        let h = g.apply_permutation(&perm);
        assert_eq!(h.num_edges(), g.num_edges());
        // Edge 0->1 becomes 3->2.
        assert!(h.out_neighbors(3).contains(&2));
        // Degree multiset is preserved.
        let mut dg: Vec<_> = g.out_degrees();
        let mut dh: Vec<_> = h.out_degrees();
        dg.sort_unstable();
        dh.sort_unstable();
        assert_eq!(dg, dh);
    }

    #[test]
    fn permutation_preserves_weights() {
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 5);
        el.push_weighted(1, 2, 6);
        let g = Csr::from_edge_list(&el);
        let perm = Permutation::from_new_ids(vec![2, 0, 1]).unwrap();
        let h = g.apply_permutation(&perm);
        // Edge 0->1 (w=5) is now 2->0.
        assert_eq!(h.out_neighbors(2), &[0]);
        assert_eq!(h.out_weights(2).unwrap(), &[5]);
    }

    #[test]
    fn self_loops_and_parallel_edges() {
        let mut el = EdgeList::new(2);
        el.push(0, 0);
        el.push(0, 1);
        el.push(0, 1);
        let g = Csr::from_edge_list(&el);
        assert_eq!(g.out_degree(0), 3);
        assert_eq!(g.in_degree(1), 2);
        assert_eq!(g.in_degree(0), 1);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edge_list(&EdgeList::new(0));
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    fn adjacency_parts_round_trip() {
        let mut el = EdgeList::new(4);
        el.push_weighted(0, 1, 5);
        el.push_weighted(0, 2, 7);
        el.push_weighted(2, 3, 9);
        for g in [
            Csr::from_edge_list(&el),
            diamond(),
            Csr::from_edge_list(&EdgeList::new(0)),
            Csr::from_edge_list(&EdgeList::new(1)),
        ] {
            let out = g.out_adjacency();
            let inn = g.in_adjacency();
            let rebuilt = Csr::from_adjacency_parts(
                g.num_vertices(),
                (
                    out.index.to_vec(),
                    out.neighbors.to_vec(),
                    out.weights.map(<[_]>::to_vec),
                ),
                (
                    inn.index.to_vec(),
                    inn.neighbors.to_vec(),
                    inn.weights.map(<[_]>::to_vec),
                ),
            )
            .unwrap();
            assert_eq!(rebuilt, g);
        }
    }

    #[test]
    fn adjacency_parts_validation_rejects_corruption() {
        let g = diamond();
        let parts = |g: &Csr| {
            let o = g.out_adjacency();
            let i = g.in_adjacency();
            (
                (
                    o.index.to_vec(),
                    o.neighbors.to_vec(),
                    o.weights.map(<[_]>::to_vec),
                ),
                (
                    i.index.to_vec(),
                    i.neighbors.to_vec(),
                    i.weights.map(<[_]>::to_vec),
                ),
            )
        };
        // Out-of-range neighbor.
        let (mut out, inn) = parts(&g);
        out.1[0] = 99;
        assert!(Csr::from_adjacency_parts(4, out, inn).is_err());
        // Non-monotonic index.
        let (mut out, inn) = parts(&g);
        out.0[1] = 4;
        out.0[2] = 2;
        assert!(Csr::from_adjacency_parts(4, out, inn).is_err());
        // Non-canonical neighbor order.
        let (mut out, inn) = parts(&g);
        out.1.swap(0, 1);
        assert!(Csr::from_adjacency_parts(4, out, inn).is_err());
        // Wrong vertex count.
        let (out, inn) = parts(&g);
        assert!(Csr::from_adjacency_parts(5, out, inn).is_err());
        // Mixed weightedness across directions.
        let (mut out, inn) = parts(&g);
        out.2 = Some(vec![1; 4]);
        assert!(Csr::from_adjacency_parts(4, out, inn).is_err());
    }

    #[test]
    fn packed_sort_is_the_pair_order() {
        let pairs = [
            (u32::MAX, 0),
            (0, u32::MAX),
            (5, 2),
            (5, 1),
            (u32::MAX, u32::MAX),
            (0, 0),
            (5, 2),
        ];
        let (mut nbrs, mut ws): (Vec<_>, Vec<_>) = pairs.iter().copied().unzip();
        sort_adjacent(&mut nbrs, Some(&mut ws), &mut Vec::new());
        let mut want = pairs.to_vec();
        want.sort_unstable();
        assert_eq!(nbrs.into_iter().zip(ws).collect::<Vec<_>>(), want);
    }

    #[test]
    fn pooled_validation_returns_the_out_direction_error_first() {
        let g = diamond();
        for threads in 1..=3 {
            let (o, i) = (g.out_adjacency(), g.in_adjacency());
            let mut out = (o.index.to_vec(), o.neighbors.to_vec(), None);
            let mut inn = (i.index.to_vec(), i.neighbors.to_vec(), None);
            out.1.swap(0, 1);
            inn.1[0] = 99;
            let pool = Pool::new(threads);
            let err = Csr::from_adjacency_parts_with(4, out, inn, &pool).unwrap_err();
            assert_eq!(
                err.to_string(),
                "invalid CSR parts: out neighbors of vertex 0 are not in canonical order",
                "{threads} threads"
            );
        }
    }

    #[test]
    fn one_direction_relabels_match_both_on_a_pool_of_three() {
        // Self-loops, parallel edges with equal and distinct weights,
        // a hub and an isolated vertex.
        let mut el = EdgeList::new(6);
        for (u, v, w) in [
            (0, 0, 3),
            (0, 1, 2),
            (0, 1, 2),
            (0, 1, 1),
            (0, 3, 7),
            (0, 4, 1),
            (1, 0, 5),
            (3, 0, 4),
            (3, 3, 1),
            (4, 0, 2),
            (1, 3, 9),
        ] {
            el.push_weighted(u, v, w);
        }
        let g = Csr::from_edge_list(&el);
        let perm = Permutation::from_new_ids(vec![2, 4, 0, 1, 5, 3]).unwrap();
        let pool = Pool::new(3);
        let both = g.relabel_with(&perm, Directions::Both, &pool);
        let out = g.relabel_with(&perm, Directions::Out, &pool);
        let inn = g.relabel_with(&perm, Directions::In, &pool);
        assert_eq!((out.out, inn.inn), (both.out.clone(), both.inn.clone()));
        for (unbuilt, reference) in [(&out.inn, &both.inn), (&inn.out, &both.out)] {
            assert_eq!(unbuilt.index, reference.index);
            assert!(unbuilt.neighbors.is_empty());
            assert_eq!(unbuilt.weights, Some(Vec::new()));
        }
    }

    #[test]
    fn edge_offsets_are_cumulative() {
        let g = diamond();
        assert_eq!(g.out_edge_offset(0), 0);
        assert_eq!(g.out_edge_offset(1), 2);
        assert_eq!(g.out_edge_offset(2), 3);
        assert_eq!(g.in_edge_offset(3), 2);
    }
}
