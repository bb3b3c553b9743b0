//! Cross-crate property-based tests: the online search against brute force,
//! summarization invariants, and baseline consistency on random graphs.

use pit_baselines::exact::sum_simple_path_probs;
use pit_graph::{GraphBuilder, NodeId, TermId, TopicId};
use pit_index::{PropIndexConfig, PropagationIndex};
use pit_search_core::{PersonalizedSearcher, SearchConfig, TopicRepIndex};
use pit_summarize::{LrwConfig, LrwSummarizer, RepView, SummarizeContext, Summarizer};
use pit_topics::{KeywordQuery, TopicSpaceBuilder};
use pit_walk::{WalkConfig, WalkIndex};
use proptest::prelude::*;
use rustc_hash::FxHashSet;

/// A random small directed graph plus a random topic assignment.
#[derive(Debug, Clone)]
struct Instance {
    n: usize,
    edges: Vec<(u32, u32, f64)>,
    /// topic -> member node ids.
    topics: Vec<Vec<u32>>,
}

fn instance() -> impl Strategy<Value = Instance> {
    (4usize..=14).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 0.1f64..0.9f64)
            .prop_filter("no self-loops", |(a, b, _)| a != b);
        let edges = proptest::collection::vec(edge, n..4 * n).prop_map(move |mut es| {
            let mut seen = FxHashSet::default();
            es.retain(|&(a, b, _)| seen.insert((a, b)));
            es
        });
        let topic = proptest::collection::vec(0..n as u32, 1..=4).prop_map(|mut t| {
            t.sort_unstable();
            t.dedup();
            t
        });
        let topics = proptest::collection::vec(topic, 2..=4);
        (edges, topics).prop_map(move |(edges, topics)| Instance { n, edges, topics })
    })
}

struct Built {
    graph: pit_graph::CsrGraph,
    space: pit_topics::TopicSpace,
    prop: PropagationIndex,
    reps: TopicRepIndex,
}

fn build(inst: &Instance, theta: f64) -> Built {
    let mut b = GraphBuilder::new(inst.n);
    for &(u, v, p) in &inst.edges {
        b.add_edge(NodeId(u), NodeId(v), p).unwrap();
    }
    let graph = b.build().unwrap();
    let mut tb = TopicSpaceBuilder::new(inst.n, 1);
    for members in &inst.topics {
        let t = tb.add_topic(vec![TermId(0)]);
        for &m in members {
            tb.assign(NodeId(m), t);
        }
    }
    let space = tb.build();
    let walks = WalkIndex::build(&graph, WalkConfig::new(3, 8).with_seed(1));
    let prop = PropagationIndex::build(&graph, PropIndexConfig::with_theta(theta));
    let ctx = SummarizeContext {
        graph: &graph,
        space: &space,
        walks: &walks,
    };
    let reps = TopicRepIndex::build(&ctx, &LrwSummarizer::new(LrwConfig::default()));
    Built {
        graph,
        space,
        prop,
        reps,
    }
}

/// Brute-force reference: score of each topic by summing, over its
/// representatives, weight × Γ(v) entry (round-0 semantics, no expansion).
fn brute_force_scores(built: &Built, user: NodeId) -> Vec<(TopicId, f64)> {
    let gamma = built.prop.gamma(user);
    built
        .space
        .topics()
        .map(|t| {
            let set = built.reps.get(t);
            let score: f64 = set
                .iter()
                .filter_map(|(x, w)| gamma.get(x).map(|p| p * w))
                .sum();
            (t, score)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The searcher's round-0 scores equal the brute-force reference
    /// (pruning and expansion disabled), and the top-k is the k best.
    #[test]
    fn search_matches_brute_force(inst in instance()) {
        let built = build(&inst, 0.05);
        let user = NodeId(0);
        let searcher = PersonalizedSearcher::new(
            &built.space,
            &built.prop,
            &built.reps,
            SearchConfig { k: built.space.topic_count(), max_expand_rounds: 0, prune: false },
        );
        let out = searcher.search(&KeywordQuery::new(user, vec![TermId(0)]));
        let mut expect = brute_force_scores(&built, user);
        expect.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        prop_assert_eq!(out.top_k.len(), expect.len());
        for (got, (t, s)) in out.top_k.iter().zip(expect.iter()) {
            prop_assert_eq!(got.topic, *t);
            prop_assert!((got.score - s).abs() < 1e-12,
                "topic {}: {} vs {}", t, got.score, s);
        }
    }

    /// Pruning never changes the returned top-k set on random instances.
    #[test]
    fn pruning_is_safe(inst in instance(), k in 1usize..5) {
        let built = build(&inst, 0.02);
        for u in 0..inst.n.min(4) {
            let q = KeywordQuery::new(NodeId(u as u32), vec![TermId(0)]);
            let pruned = PersonalizedSearcher::new(
                &built.space, &built.prop, &built.reps,
                SearchConfig { k, max_expand_rounds: 5, prune: true },
            ).search(&q);
            let full = PersonalizedSearcher::new(
                &built.space, &built.prop, &built.reps,
                SearchConfig { k, max_expand_rounds: 5, prune: false },
            ).search(&q);
            let a: Vec<TopicId> = pruned.top_k.iter().map(|s| s.topic).collect();
            let b: Vec<TopicId> = full.top_k.iter().map(|s| s.topic).collect();
            prop_assert_eq!(a, b, "user {} k {}", u, k);
        }
    }

    /// Summarization invariants: weights non-negative, total ≤ 1, and every
    /// representative set is bounded by its configuration.
    #[test]
    fn summaries_are_well_formed(inst in instance()) {
        let built = build(&inst, 0.05);
        for t in built.space.topics() {
            let set: RepView = built.reps.get(t);
            prop_assert!(set.total_weight() <= 1.0 + 1e-9, "topic {}: {}", t, set.total_weight());
            for (_, w) in set.iter() {
                prop_assert!(w >= 0.0 && w.is_finite());
            }
        }
    }

    /// Γ(v) entries are genuine lower bounds on the exact (simple-path)
    /// propagation probability: thresholded path enumeration can only omit
    /// probability mass, never invent it.
    #[test]
    fn gamma_entries_below_exact_path_sum(inst in instance()) {
        let built = build(&inst, 0.05);
        for v in built.graph.nodes().take(4) {
            for (u, p) in built.prop.gamma(v).iter() {
                let exact = sum_simple_path_probs(&built.graph, u, v);
                prop_assert!(p <= exact + 1e-9,
                    "Γ({})[{}] = {} exceeds exact {}", v, u, p, exact);
            }
        }
    }

    /// The LRW summarizer is deterministic as a function of its inputs.
    #[test]
    fn summarizer_deterministic(inst in instance()) {
        let a = build(&inst, 0.05);
        let b = build(&inst, 0.05);
        for t in a.space.topics() {
            prop_assert_eq!(a.reps.get(t), b.reps.get(t));
        }
    }
}

/// Non-proptest sanity: the LRW summarizer respects explicit rep counts on a
/// fixed random instance.
#[test]
fn rep_count_respected() {
    let inst = Instance {
        n: 10,
        edges: (0..9u32).map(|i| (i, i + 1, 0.5)).collect(),
        topics: vec![vec![0, 2, 4, 6, 8]],
    };
    let mut b = GraphBuilder::new(inst.n);
    for &(u, v, p) in &inst.edges {
        b.add_edge(NodeId(u), NodeId(v), p).unwrap();
    }
    let graph = b.build().unwrap();
    let mut tb = TopicSpaceBuilder::new(inst.n, 1);
    let t = tb.add_topic(vec![TermId(0)]);
    for &m in &inst.topics[0] {
        tb.assign(NodeId(m), t);
    }
    let space = tb.build();
    let walks = WalkIndex::build(&graph, WalkConfig::new(3, 8));
    let ctx = SummarizeContext {
        graph: &graph,
        space: &space,
        walks: &walks,
    };
    for count in 1..=5usize {
        let set = LrwSummarizer::new(LrwConfig {
            rep_count: Some(count),
            ..LrwConfig::default()
        })
        .summarize(&ctx, t);
        assert_eq!(set.len(), count);
    }
}
