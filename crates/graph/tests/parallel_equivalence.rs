//! Structural-equality properties for the pooled construction paths:
//! CSR build, direct permutation apply, one-direction relabels, and
//! degree extraction must equal an independent reference for every
//! thread count, including weighted, self-loop, and parallel-edge
//! graphs. The reference CSR sorts `(owner, neighbour, weight)` triples
//! and counts the index; the reference degrees count the edge list.

use proptest::prelude::*;

use lgr_graph::{
    gen, AdjacencyView, Csr, DegreeKind, Directions, EdgeList, Permutation, VertexId, Weight,
};
use lgr_parallel::Pool;

/// Thread counts exercised per case (1 = inline on the caller).
const THREADS: [usize; 4] = [1, 2, 3, 8];

/// One direction of the reference CSR: the edge list's
/// `(owner, neighbour, weight)` triples sorted, with the index counted
/// from the owners. Unweighted triples carry weight 0.
fn reference_direction(
    el: &EdgeList,
    by_source: bool,
) -> (Vec<usize>, Vec<VertexId>, Option<Vec<Weight>>) {
    let mut triples: Vec<(VertexId, VertexId, Weight)> = el
        .edges()
        .iter()
        .enumerate()
        .map(|(i, &(u, v))| {
            let w = el.weights().map_or(0, |ws| ws[i]);
            if by_source {
                (u, v, w)
            } else {
                (v, u, w)
            }
        })
        .collect();
    triples.sort_unstable();
    let mut index = vec![0usize; el.num_vertices() + 1];
    for &(owner, _, _) in &triples {
        index[owner as usize + 1] += 1;
    }
    for v in 0..el.num_vertices() {
        index[v + 1] += index[v];
    }
    let neighbors = triples.iter().map(|&(_, nbr, _)| nbr).collect();
    let weights = el
        .weights()
        .map(|_| triples.iter().map(|&(_, _, w)| w).collect());
    (index, neighbors, weights)
}

/// The CSR `el` describes, built without the counting-sort code under
/// test.
fn reference_csr(el: &EdgeList) -> Csr {
    Csr::from_adjacency_parts(
        el.num_vertices(),
        reference_direction(el, true),
        reference_direction(el, false),
    )
    .expect("sorted triples are canonical CSR parts")
}

/// Small vertex counts with many edges, so self-loops and parallel
/// edges occur constantly; `weighted != 0` attaches deterministic
/// pseudo-random weights.
fn arb_edge_list() -> impl Strategy<Value = EdgeList> {
    (1usize..14, 0u8..2, 0u64..1000).prop_flat_map(|(n, weighted, seed)| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..200).prop_map(move |edges| {
            let mut el = EdgeList::from_parts(n, edges, None);
            if weighted != 0 {
                el.randomize_weights(31, seed);
            }
            el
        })
    })
}

/// Like [`arb_edge_list`], with empty and one-vertex graphs drawn as
/// often as any other size.
fn arb_any_size_edge_list() -> impl Strategy<Value = EdgeList> {
    (0usize..14, 0u8..2, 0u64..1000).prop_flat_map(|(n, weighted, seed)| {
        let ids = 0..(n as u32).max(1);
        let edges = if n == 0 { 0..1 } else { 0..200 };
        proptest::collection::vec((ids.clone(), ids), edges).prop_map(move |edges| {
            let mut el = EdgeList::from_parts(n, edges, None);
            if weighted != 0 {
                el.randomize_weights(31, seed);
            }
            el
        })
    })
}

/// A direction's arrays, comparable with `==`.
fn arrays(view: AdjacencyView<'_>) -> (&[usize], &[VertexId], Option<&[Weight]>) {
    (view.index, view.neighbors, view.weights)
}

/// Asserts that `relabeled`, written in `dirs`, holds each written
/// direction of `full` exactly and the index of each other one, and
/// answers the whole graph's counts.
fn assert_holds(relabeled: &Csr, full: &Csr, dirs: Directions) -> Result<(), TestCaseError> {
    let (out, inn) = (dirs != Directions::In, dirs != Directions::Out);
    for (built, got, want) in [
        (out, relabeled.out_adjacency(), full.out_adjacency()),
        (inn, relabeled.in_adjacency(), full.in_adjacency()),
    ] {
        if built {
            prop_assert_eq!(arrays(got), arrays(want));
        } else {
            prop_assert_eq!(got.index, want.index);
            prop_assert!(got.neighbors.is_empty());
            prop_assert_eq!(got.weights.map(<[_]>::len), want.weights.map(|_| 0));
        }
    }
    prop_assert_eq!(relabeled.num_vertices(), full.num_vertices());
    prop_assert_eq!(relabeled.num_edges(), full.num_edges());
    prop_assert_eq!(relabeled.is_weighted(), full.is_weighted());
    Ok(())
}

/// Asserts the build at every pool size equals the reference, and so
/// does applying the reversal permutation to it.
fn assert_builds_match_reference(el: &EdgeList) {
    let reference = reference_csr(el);
    let n = el.num_vertices() as VertexId;
    let reversal = Permutation::from_new_ids((0..n).rev().collect()).unwrap();
    let reversed = reference_csr(&el.relabel(&reversal));
    assert_eq!(Csr::from_edge_list(el), reference);
    for threads in THREADS {
        let pool = Pool::new(threads);
        let g = Csr::from_edge_list_with(el, &pool);
        assert_eq!(g, reference, "threads = {threads}");
        assert_eq!(
            g.apply_permutation_with(&reversal, &pool),
            reversed,
            "threads = {threads}"
        );
    }
}

proptest! {
    // Case budget: ProptestConfig's default (64 in the workspace shim,
    // CI-friendly); set PROPTEST_CASES=<n> for deeper local soak runs.
    #![proptest_config(ProptestConfig::default())]

    /// CSR construction equals the sorted-triples reference at every
    /// pool size.
    #[test]
    fn parallel_build_matches_sequential(el in arb_edge_list()) {
        let reference = reference_csr(&el);
        prop_assert_eq!(&Csr::from_edge_list(&el), &reference);
        for threads in THREADS {
            let pool = Pool::new(threads);
            let par = Csr::from_edge_list_with(&el, &pool);
            prop_assert_eq!(&par, &reference, "threads = {}", threads);
        }
    }

    /// The direct CSR-to-CSR permutation apply equals the reference
    /// CSR of the relabeled edge list at every pool size.
    #[test]
    fn direct_apply_matches_edge_list_rebuild(el in arb_edge_list(), seed in 0u64..1000) {
        let g = Csr::from_edge_list(&el);
        let perm = gen::random_permutation(g.num_vertices(), seed);
        let reference = reference_csr(&el.relabel(&perm));
        prop_assert_eq!(&g.apply_permutation(&perm), &reference);
        for threads in THREADS {
            let pool = Pool::new(threads);
            let pooled = g.apply_permutation_with(&perm, &pool);
            prop_assert_eq!(&pooled, &reference, "threads = {}", threads);
        }
    }

    /// A relabel writing one direction holds that direction of
    /// `apply_permutation` and only the index of the other; writing
    /// both is `apply_permutation`. Every pool size, every
    /// `Directions` value.
    #[test]
    fn relabels_write_exactly_the_directions_asked(
        el in arb_any_size_edge_list(),
        seed in 0u64..1000,
    ) {
        let g = Csr::from_edge_list(&el);
        let perm = gen::random_permutation(g.num_vertices(), seed);
        let full = g.apply_permutation(&perm);
        for threads in 1..=3 {
            let pool = Pool::new(threads);
            for dirs in [Directions::Out, Directions::In, Directions::Both] {
                let relabeled = g.relabel_with(&perm, dirs, &pool);
                assert_holds(&relabeled, &full, dirs)?;
                if dirs == Directions::Both {
                    prop_assert_eq!(&relabeled, &full, "threads = {}", threads);
                }
            }
        }
    }

    /// Degree extraction equals the edge list's own degree counts for
    /// every degree kind and pool size.
    #[test]
    fn parallel_degrees_match_sequential(el in arb_edge_list()) {
        let g = Csr::from_edge_list(&el);
        let (ins, outs) = (el.in_degrees(), el.out_degrees());
        for (kind, expected) in [(DegreeKind::In, &ins), (DegreeKind::Out, &outs)] {
            prop_assert_eq!(&kind.degrees(&g), expected);
            for threads in THREADS {
                let pool = Pool::new(threads);
                prop_assert_eq!(&kind.degrees_with(&g, &pool), expected, "threads = {}", threads);
            }
        }
    }
}

#[test]
fn parallel_build_empty_graph() {
    assert_builds_match_reference(&EdgeList::new(0));
}

#[test]
fn parallel_build_more_workers_than_edges() {
    let mut el = EdgeList::new(3);
    el.push(0, 1);
    el.push(2, 2);
    assert_builds_match_reference(&el);
}

#[test]
fn parallel_paths_on_generated_graph() {
    // A mid-size skewed graph with weights: one pool per size reused
    // across build, apply, and degree extraction.
    let mut el = gen::community(gen::CommunityConfig::new(3000, 6.0).with_seed(42));
    el.randomize_weights(16, 9);
    let reference = reference_csr(&el);
    // A random order, and a hub-first one: a stable sort by descending
    // out-degree, as Sort and DBG produce.
    let degrees = el.out_degrees();
    let mut hubs_first: Vec<VertexId> = (0..el.num_vertices() as VertexId).collect();
    hubs_first.sort_by_key(|&v| std::cmp::Reverse(degrees[v as usize]));
    let perms = [
        gen::random_permutation(el.num_vertices(), 77),
        Permutation::from_order(&hubs_first).unwrap(),
    ];
    let relabeled: Vec<Csr> = perms
        .iter()
        .map(|p| reference_csr(&el.relabel(p)))
        .collect();
    for threads in THREADS {
        let pool = Pool::new(threads);
        let par = Csr::from_edge_list_with(&el, &pool);
        assert_eq!(par, reference, "threads = {threads}");
        for (perm, relabeled) in perms.iter().zip(&relabeled) {
            assert_eq!(
                &par.apply_permutation_with(perm, &pool),
                relabeled,
                "threads = {threads}"
            );
        }
        assert_eq!(
            DegreeKind::Out.degrees_with(&par, &pool),
            el.out_degrees(),
            "threads = {threads}"
        );
    }
}
