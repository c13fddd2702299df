//! Property-based tests over the core data structures and the
//! reordering invariants.

use proptest::prelude::*;

use graph_reorder::prelude::*;
use graph_reorder::reorder::{framework, RandomCacheBlock, RandomVertex};
use lgr_analytics::verify;
use lgr_graph::gen;

/// An arbitrary small directed graph as an edge list.
fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (2usize..60).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..200)
            .prop_map(move |edges| EdgeList::from_parts(n, edges, None))
    })
}

/// An arbitrary small weighted graph.
fn arb_weighted_graph() -> impl Strategy<Value = EdgeList> {
    (2usize..40).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 1..50u32), 1..150).prop_map(
            move |triples| {
                let mut el = EdgeList::new(n);
                for (u, v, w) in triples {
                    el.push_weighted(u, v, w);
                }
                el
            },
        )
    })
}

proptest! {
    // Case budget: ProptestConfig's default (64 in the workspace shim,
    // CI-friendly); set PROPTEST_CASES=<n> for deeper local soak runs.
    #![proptest_config(ProptestConfig::default())]

    /// CSR round-trips through an edge list losslessly as a
    /// multigraph: the edge multiset is preserved, and one
    /// normalization pass (CSR groups edges by source) is idempotent.
    #[test]
    fn csr_round_trip(el in arb_graph()) {
        let g = Csr::from_edge_list(&el);
        let back = g.to_edge_list();
        let mut original: Vec<_> = el.edges().to_vec();
        let mut returned: Vec<_> = back.edges().to_vec();
        original.sort_unstable();
        returned.sort_unstable();
        prop_assert_eq!(original, returned);

        // Idempotence: once normalized, the representation is stable.
        let g2 = Csr::from_edge_list(&back);
        let g3 = Csr::from_edge_list(&g2.to_edge_list());
        prop_assert_eq!(g2, g3);
    }

    /// CSR preserves edge and degree counts.
    #[test]
    fn csr_counts(el in arb_graph()) {
        let g = Csr::from_edge_list(&el);
        prop_assert_eq!(g.num_edges(), el.num_edges());
        let total_out: u32 = g.out_degrees().iter().sum();
        let total_in: u32 = g.in_degrees().iter().sum();
        prop_assert_eq!(total_out as usize, el.num_edges());
        prop_assert_eq!(total_in as usize, el.num_edges());
    }

    /// Every technique's output is a bijection, and applying it twice
    /// (via composition with its inverse) restores the identity.
    #[test]
    fn techniques_produce_bijections(el in arb_graph(), seed in 0u64..1000) {
        let g = Csr::from_edge_list(&el);
        let techniques: Vec<Box<dyn ReorderingTechnique>> = vec![
            Box::new(Sort::new()),
            Box::new(HubSort::new()),
            Box::new(HubCluster::new()),
            Box::new(Dbg::default()),
            Box::new(RandomVertex::new(seed)),
            Box::new(RandomCacheBlock::new(1 + (seed % 4) as usize, seed)),
            Box::new(Gorder::new()),
        ];
        for t in &techniques {
            let p = t.reorder(&g, DegreeKind::Out);
            // from_new_ids validates bijectivity internally; re-validate
            // through the public constructor.
            prop_assert!(Permutation::from_new_ids(p.new_ids().to_vec()).is_ok(), "{:?}", t);
            let inv = Permutation::from_new_ids(p.inverse()).unwrap();
            prop_assert!(p.then(&inv).is_identity(), "{:?}", t);
        }
    }

    /// Reordering preserves the degree multiset (graph isomorphism
    /// witness).
    #[test]
    fn reordering_preserves_degree_multiset(el in arb_graph()) {
        let g = Csr::from_edge_list(&el);
        for t in [&Sort::new() as &dyn ReorderingTechnique, &Dbg::default(), &HubCluster::new()] {
            let p = t.reorder(&g, DegreeKind::In);
            let h = g.apply_permutation(&p);
            let mut a = g.in_degrees();
            let mut b = h.in_degrees();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b, "{:?}", t);
        }
    }

    /// Sort's defining property: degrees are non-increasing in the new
    /// layout.
    #[test]
    fn sort_is_descending(el in arb_graph()) {
        let g = Csr::from_edge_list(&el);
        let p = Sort::new().reorder(&g, DegreeKind::Out);
        let h = g.apply_permutation(&p);
        let d = h.out_degrees();
        prop_assert!(d.windows(2).all(|w| w[0] >= w[1]), "{d:?}");
    }

    /// DBG's defining properties: group indices are non-decreasing
    /// through the layout, and original order is kept within groups.
    #[test]
    fn dbg_grouping_invariants(el in arb_graph()) {
        let g = Csr::from_edge_list(&el);
        let degrees = DegreeKind::Out.degrees(&g);
        let avg = lgr_graph::average_degree(&degrees);
        let spec = Dbg::default().spec_for(avg);
        let p = Dbg::default().reorder(&g, DegreeKind::Out);
        let layout = p.inverse();
        let mut last_group = 0usize;
        let mut last_in_group: Vec<Option<u32>> = vec![None; spec.num_groups()];
        for &orig in &layout {
            let grp = spec.group_of(degrees[orig as usize]);
            prop_assert!(grp >= last_group, "group regression");
            last_group = grp;
            if let Some(prev) = last_in_group[grp] {
                prop_assert!(prev < orig, "order within group violated");
            }
            last_in_group[grp] = Some(orig);
        }
    }

    /// The grouping framework covers every degree exactly once for any
    /// valid spec.
    #[test]
    fn grouping_spec_covers_all_degrees(
        mut bounds in proptest::collection::vec(1u32..5000, 0..6),
        degree in 0u32..10_000,
    ) {
        bounds.sort_unstable_by(|a, b| b.cmp(a));
        bounds.dedup();
        bounds.push(0);
        let spec = framework::GroupingSpec::new(bounds.clone()).unwrap();
        let g = spec.group_of(degree);
        prop_assert!(g < spec.num_groups());
        // Degree lies within its group's range.
        let lower = spec.lower_bounds()[g];
        prop_assert!(degree >= lower);
        if g > 0 {
            prop_assert!(degree < spec.lower_bounds()[g - 1]);
        }
    }

    /// SSSP on the engine equals Dijkstra for arbitrary weighted
    /// graphs (cross-validation of two different algorithms).
    #[test]
    fn sssp_matches_dijkstra(el in arb_weighted_graph(), root_pick in 0usize..40) {
        let g = Csr::from_edge_list(&el);
        let root = (root_pick % g.num_vertices()) as u32;
        let engine = sssp(&g, &SsspConfig::from_root(root), &mut NullTracer);
        let expect = verify::dijkstra_reference(&g, root);
        prop_assert_eq!(engine.distances, expect);
    }

    /// BC BFS depths equal reference BFS depths for arbitrary graphs.
    #[test]
    fn bc_depths_match_bfs(el in arb_graph(), root_pick in 0usize..60) {
        let g = Csr::from_edge_list(&el);
        let root = (root_pick % g.num_vertices()) as u32;
        let engine = bc(&g, &BcConfig::from_root(root), &mut NullTracer);
        let expect = verify::bfs_reference(&g, root);
        prop_assert_eq!(engine.depths, expect);
    }

    /// Random permutations compose associatively with `then`.
    #[test]
    fn permutation_composition_associative(n in 1usize..50, s1 in 0u64..100, s2 in 0u64..100, s3 in 0u64..100) {
        let p1 = gen::random_permutation(n, s1);
        let p2 = gen::random_permutation(n, s2);
        let p3 = gen::random_permutation(n, s3);
        let left = p1.then(&p2).then(&p3);
        let right = p1.then(&p2.then(&p3));
        prop_assert_eq!(left, right);
    }

    /// The alias table never returns a zero-weight outcome.
    #[test]
    fn alias_table_respects_support(weights in proptest::collection::vec(0.0f64..10.0, 1..30), seed in 0u64..100) {
        use rand::{rngs::SmallRng, SeedableRng};
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let t = gen::AliasTable::new(&weights).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..100 {
            let x = t.sample(&mut rng);
            prop_assert!(weights[x] > 0.0, "sampled zero-weight outcome {x}");
        }
    }
}
