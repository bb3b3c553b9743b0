//! Property-based tests for the CSR graph substrate.

use pit_graph::{GraphBuilder, NodeId};
use proptest::prelude::*;
use rustc_hash::FxHashSet;

/// Strategy: a random edge list over `n` nodes with valid probabilities and
/// no self-loops or duplicates.
fn edge_list(
    max_nodes: usize,
    max_edges: usize,
) -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>)> {
    (2..=max_nodes).prop_flat_map(move |n| {
        let edge = (0..n as u32, 0..n as u32, 0.0f64..=1.0f64)
            .prop_filter("no self-loops", |(a, b, _)| a != b);
        proptest::collection::vec(edge, 0..=max_edges).prop_map(move |mut es| {
            // Deduplicate on (src, dst) keeping the first occurrence so the
            // builder never sees conflicting duplicates.
            let mut seen = FxHashSet::default();
            es.retain(|&(a, b, _)| seen.insert((a, b)));
            (n, es)
        })
    })
}

proptest! {
    /// Every edge added is observable via out_edges, in_edges and edge_prob,
    /// and counts agree.
    #[test]
    fn csr_faithful_to_edge_list((n, edges) in edge_list(40, 200)) {
        let mut b = GraphBuilder::new(n);
        for &(u, v, p) in &edges {
            b.add_edge(NodeId(u), NodeId(v), p).unwrap();
        }
        let g = b.build().unwrap();
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), edges.len());
        for &(u, v, p) in &edges {
            prop_assert_eq!(g.edge_prob(NodeId(u), NodeId(v)), Some(p));
            prop_assert!(g.out_neighbors(NodeId(u)).contains(&NodeId(v)));
            prop_assert!(g.in_neighbors(NodeId(v)).contains(&NodeId(u)));
        }
        // Degree sums both equal the edge count.
        let out_sum: usize = g.nodes().map(|u| g.out_degree(u)).sum();
        let in_sum: usize = g.nodes().map(|u| g.in_degree(u)).sum();
        prop_assert_eq!(out_sum, edges.len());
        prop_assert_eq!(in_sum, edges.len());
    }

    /// Adjacency slices are sorted (binary-search invariant).
    #[test]
    fn adjacency_sorted((n, edges) in edge_list(30, 150)) {
        let mut b = GraphBuilder::new(n);
        for &(u, v, p) in &edges {
            b.add_edge(NodeId(u), NodeId(v), p).unwrap();
        }
        let g = b.build().unwrap();
        for u in g.nodes() {
            let outs = g.out_neighbors(u);
            prop_assert!(outs.windows(2).all(|w| w[0] < w[1]));
            let ins = g.in_neighbors(u);
            prop_assert!(ins.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// edge_prob is None exactly for absent pairs.
    #[test]
    fn edge_prob_absent((n, edges) in edge_list(15, 40)) {
        let mut b = GraphBuilder::new(n);
        for &(u, v, p) in &edges {
            b.add_edge(NodeId(u), NodeId(v), p).unwrap();
        }
        let g = b.build().unwrap();
        let present: FxHashSet<(u32, u32)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                let expect = present.contains(&(u, v));
                prop_assert_eq!(g.has_edge(NodeId(u), NodeId(v)), expect);
            }
        }
    }
}
